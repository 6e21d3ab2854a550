"""Tests of the benchmark's own parts: generator, output check, names, spans.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import checks
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("workload", ["float-eval", "exact-eval"])
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.points_for(workload, 7)
    again = workloads.points_for(workload, 7)
    other = workloads.points_for(workload, 8)
    assert [p.argv for p in first] == [p.argv for p in again]
    assert [p.argv for p in first] != [p.argv for p in other]
    assert len(first) == len(other)


def test_probe_is_deterministic_per_seed():
    first = workloads.probe_points(7)
    assert [p.argv for p in first] == [p.argv for p in workloads.probe_points(7)]
    assert [p.argv for p in first] != [p.argv for p in workloads.probe_points(8)]


def test_float_pool_keeps_its_mix():
    points = workloads.float_points(3)
    assert {p.kind for p in points} == {
        "narrow/generic", "narrow/raw-terminates", "narrow/transformed-terminates"}
    assert {p.x for p in points} == {cell[0] for cell in workloads.FLOAT_CELLS}
    assert max(max(abs(p.a), abs(p.b)) for p in points) <= workloads.FLOAT_HALF
    probe = workloads.probe_points(3)
    assert {p.x for p in probe} == set(workloads.PROBE_XS)
    wide = [p for p in probe if p.kind.startswith("wide")]
    assert max(abs(p.a) for p in wide) > 5


def test_judge_counts_every_failure_as_incorrect():
    point = workloads.Point(("eval",), "t", 0.5, 0.5, 1.5, 0.5)
    ref = checks.reference(point)
    good = float(ref)
    tally = run.Tally()
    tally.add(0, _eval_outcome(good, good))
    assert run.judge(tally, [ref])["correct"]
    tally.add(1, checks.Outcome(3, "", None))
    verdict = run.judge(tally, [ref, ref])
    assert not verdict["correct"] and verdict["failed"] == 1
    assert verdict["reasons"] == {"exit-3": 1}


def test_argv_parses_back_to_the_point():
    cli = run.load_cli()
    from gausshyp.scalar import parse_scalar
    for p in workloads.exact_points(2)[:20] + workloads.float_points(2)[:20]:
        args = cli.build_parser().parse_args(list(p.argv))
        exact = args.mode == "exact"
        assert [parse_scalar(getattr(args, k), exact) for k in "abcx"] == \
            [p.a, p.b, p.c, p.x]


def test_brute_polynomial_matches_a_direct_sum():
    b, c, x = Fraction(2, 7), Fraction(3, 2), Fraction(-1, 4)
    for n in (0, 1, 5, 12):
        term, total = Fraction(1), Fraction(1)
        for k in range(n):
            term = term * (-n + k) * (b + k) / ((k + 1) * (c + k)) * x
            total += term
        assert checks.brute_polynomial(n, b, c, x) == total


def _eval_outcome(value, transformed, code=0, bound=1e-13):
    report = {"command": "eval", "inputs": {"mode": "float"},
              "outputs": {"value": value, "tail_bound": bound,
                          "transformed_value": transformed,
                          "transformed_tail_bound": bound},
              "status": "pass" if code == 0 else "fail"}
    return checks.Outcome(code, json.dumps(report), None)


def test_check_flags_planted_failures():
    point = workloads.Point(("eval",), "t", 0.5, 0.5, 1.5, 0.5)
    ref = checks.reference(point)
    good = float(ref)
    assert checks.check(_eval_outcome(good, good), ref) is None

    wrong = checks.check(_eval_outcome(good * (1 + 1e-6), good), ref)
    assert wrong.reason == "check-value" and wrong.silent
    wrong = checks.check(_eval_outcome(good, good + 1e-6), ref)
    assert wrong.reason == "check-transformed_value" and wrong.silent

    exit1 = checks.check(_eval_outcome(good, good + 1e-3, code=1), ref)
    assert exit1.reason == "exit-1" and not exit1.silent
    exit3 = checks.check(checks.Outcome(3, "", None), ref)
    assert exit3.reason == "exit-3" and not exit3.silent
    raised = checks.check(checks.Outcome(None, "", "OverflowError"), ref)
    assert raised.reason == "raised-OverflowError"


def test_check_allows_ten_tail_bounds():
    point = workloads.Point(("eval",), "t", 0.5, 0.5, 1.5, 0.5)
    ref = checks.reference(point)
    off = float(ref) + 5e-9
    assert checks.check(_eval_outcome(off, off, bound=1e-9), ref) is None
    assert checks.check(_eval_outcome(off, off, bound=1e-11), ref) is not None


def test_exact_points_pass_against_their_oracles():
    cli = run.load_cli()
    points = workloads.exact_points(1)
    sample = [p for p in points if p.kind == "series"][:3]
    sample += sorted((p for p in points if p.kind == "polynomial"),
                     key=lambda p: -p.a)[:2]
    for p in sample:
        outcome, _ = run.invoke(cli, p.argv)
        assert checks.check(outcome, checks.reference(p)) is None, p.argv


def test_digest_sees_exact_fields_only():
    report = {"command": "eval", "inputs": {"mode": "exact"},
              "outputs": {"value": "1/3", "transformed_value": 0.3333333333333333}}
    outcome = checks.Outcome(0, json.dumps(report), None)
    assert checks.exact_fields(outcome) == [0, "1/3"]
    changed = dict(report, outputs={"value": "1/3", "transformed_value": 0.33})
    assert checks.digest([outcome]) == checks.digest(
        [checks.Outcome(0, json.dumps(changed), None)])
    assert checks.digest([outcome]) != checks.digest([checks.Outcome(3, "", None)])


def test_metric_names_are_valid_and_match_benchmark_json():
    names = list(run.END_TO_END_UNITS) + list(run.LAYER_UNITS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_UNITS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**run.END_TO_END_UNITS, **run.LAYER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_stats_cover_every_per_layer_name():
    assert set(spans.LayerStats().metrics()) == set(spans.UNITS)


def test_traced_call_records_parented_spans_and_restores():
    cli = run.load_cli()
    import gausshyp.transform as transform
    original = transform.eval_series
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.invoke(cli, ("eval", "-a=0.3", "-b=0.7", "-c=1.5", "-x=0.5"))
        recorded = tracer.take()
    finally:
        tracer.remove()
    assert transform.eval_series is original
    assert recorded[0].name == "cli.main" and recorded[0].parent is None
    assert all(s.parent is not None for s in recorded[1:])
    names = [s.name for s in recorded]
    assert names.count("cli.render_json") == 1  # recursion folds into one span
    nested = [s for s in recorded if s.name == "series.eval_series"
              and recorded[s.parent].name == "transform.eval_transformed"]
    assert len(nested) == 1
    stats = spans.LayerStats()
    stats.add_request(recorded)
    layer = stats.metrics()
    assert layer["series.eval_series.float.calls"] == 2
    assert 0 < layer["cli.main.self_ms"]
    assert layer["transform.selector.optimal_share"] in (0.0, 1.0)


def test_mpmath_reference_is_stable_in_precision():
    point = workloads.float_points(5)[0]
    ref = checks.reference(point)
    with mpmath.workdps(50):
        finer = mpmath.hyp2f1(point.a, point.b, point.c, point.x)
        assert abs(ref - finer) <= 1e-25 * (1 + abs(finer))
