"""Tests for the command-line interface: formats, exit codes, round-trips."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gausshyp import (IntegralSpec, check_closed_form_I, check_closed_form_II,
                      quad_I, quad_II, ratio_identity_sides,
                      theta_identity_sides)
from gausshyp import binom, cli, integrals, series, transform
from gausshyp.cli import (INTEGRAL_AS, INTEGRAL_NI, ODE_GRID, _verify_integrals,
                          build_parser, format_float, main, render_json)
from oracles import isinstance_render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- serialization primitives ----

def test_format_float():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-0.0) == "0"
    assert format_float(2.0) == "2"
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_render_json_round_trip():
    doc = {"a": 1, "b": 0.1, "c": [True, None, "x/y"], "d": {"e": 2.0},
           "f": -0.0, "g": 1e22, "h": "quote\"and\\slash"}
    s = render_json(doc)
    assert render_json(json.loads(s)) == s


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7e308, -1.7e308, sys.float_info.max)
report_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(),
    st.text(st.one_of(st.characters(),
                      st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800'))),
    st.one_of(st.sampled_from(EDGE_FLOATS),
              st.floats(allow_nan=False, allow_infinity=False)).map(np.float64),
)
reports = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner,
                        max_size=4)),
    max_leaves=24)


@seed(1748)
@settings(max_examples=200, deadline=None)
@given(reports)
def test_render_json_matches_the_isinstance_renderer(value):
    assert render_json(value) == isinstance_render_json(value)


def test_render_json_rejects_what_the_isinstance_renderer_rejects():
    for bad in (math.inf, -math.inf, math.nan, np.float64("inf"),
                np.float64("nan")):
        for value in (bad, [1, {"v": bad}], {"k": (bad,)}):
            for render in (render_json, isinstance_render_json):
                with pytest.raises(ValueError):
                    render(value)
    for unknown in (object(), {1, 2}, 1j, b"bytes", np.int64(3)):
        for value in (unknown, {"k": [unknown]}):
            for render in (render_json, isinstance_render_json):
                with pytest.raises(TypeError, match="cannot serialize"):
                    render(value)


# ---- eval ----

def test_eval_float(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.5")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["outputs"]["value"] == pytest.approx(1.3862943611198906,
                                                       abs=1e-11)
    assert report["outputs"]["terms_used"] >= 1
    assert report["outputs"]["selected_representation"] in ("raw", "transformed")


def test_eval_exact(capsys):
    code, out, _ = run(capsys, "eval", "--mode", "exact", "-a", "-2", "-b", "3",
                       "-c", "1", "-x", "1/4")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["value"] == "-1/8"
    assert report["outputs"]["transformed_value"] == "-1/8"
    assert report["outputs"]["terminated"] is True
    assert report["outputs"]["agreement_residual"] == 0


def test_eval_output_round_trips_bytes(capsys):
    for argv in (["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "0.5"],
                 ["eval", "--mode", "exact", "-a", "1/2", "-b", "1/2",
                  "-c", "3/2", "-x", "1/4"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) + "\n" == out


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--output", "csv", "-a", "1", "-b", "1",
                       "-c", "2", "-x", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["a", "b", "c", "x"]
    assert len(rows) == 2 and rows[1][-1] == "pass"


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--output", "text", "-a", "1", "-b", "1",
                       "-c", "2", "-x", "0.5")
    assert code == 0
    assert "value:" in out and "status: pass" in out


def test_eval_domain_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "0",
                         "-x", "0.5")
    assert code == 2 and out == ""
    assert "c" in err
    code, _, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                       "-x", "1.5")
    assert code == 2 and "x" in err
    for a, c in (("nan", "2"), ("inf", "2"), ("1", "nan")):
        code, out, err = run(capsys, "eval", "-a", a, "-b", "1", "-c", c,
                             "-x", "0.5")
        assert code == 2 and out == "" and "finite" in err
    # values past the float range: an exact prefactor (19/10)**2001, an
    # exact parameter 1e400, float prefactors 1.99**2000 and 1.99**2000.5,
    # a raw polynomial whose float and exact sums pass the float range, an
    # exact z times a prefactor (1/2)**2000.2 that underflows to 0.0, and
    # an agreement allowance 100 tol (1 + |value|) at tol = 1e307
    for argv in (["--mode", "exact", "-a=-2000", "-b=1/2", "-c=3/2", "-x=-9/10"],
                 ["--mode", "exact", "-a=1e400", "-b=1", "-c=2", "-x=1/2"],
                 ["-a=-2000", "-b=1", "-c=1", "-x=-0.99"],
                 ["-a=-2000", "-b=1", "-c=1.5", "-x=-0.99"],
                 ["-a=-1020", "-b=3", "-c=1", "-x=-0.99"],
                 ["--mode", "exact", "-a=-1020", "-b=3", "-c=1", "-x=-99/100"],
                 ["--mode", "exact", "-a=-2000", "-b=1/3", "-c=5/9", "-x=1/2"],
                 ["-a", "1", "-b", "1", "-c", "2", "-x", "0.5", "--tol", "1e307"]):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert "float range" in err and "Traceback" not in err
    # a tol of inf, a tol that underflows once divided by the prefactor
    # 1.9**299.5, an exact sum and an exact input with more digits than the
    # interpreter converts to text (9236 and 5001 against 4300)
    for argv, word in ((["-a", "1", "-b", "1", "-c", "2", "-x", "0.5",
                         "--tol", "inf"], "tol"),
                       (["-a=-300", "-b=1.5", "-c=1", "-x=-0.9",
                         "--tol", "1e-300"], "1e-300"),
                       (["--mode", "exact", "-a=1/3", "-b=2/7", "-c=5/9",
                         "-x=99/100"], "digit"),
                       (["--mode", "exact", "-a=1", "-b=1", "-c=2",
                         "-x=1e-5000"], "digit")):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert word in err and "Traceback" not in err


def test_eval_selects_the_side_with_fewer_terms(capsys):
    # neither side terminates: raw takes 56 terms, transformed 21
    code, out, _ = run(capsys, "eval", "-a", "1.5", "-b", "2.5", "-c", "0.6",
                       "-x", "0.5")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["selected_representation"] == "transformed"
    assert outputs["transformed_terms_used"] < outputs["terms_used"]


def test_eval_no_convergence_exit_3(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.9", "--max-terms", "5")
    assert code == 3 and out == ""
    assert "terms" in err


def test_eval_term_beyond_float_range_exit_3(capsys):
    # the transformed side's terms pass 1e308 before its majorant drops
    # below 1, which must leave the bound unmet rather than raise
    code, out, err = run(capsys, "eval", "--mode", "exact", "-a=-400",
                         "-b=1/2", "-c=3/2", "-x=9/10", "--max-terms", "3700")
    assert code == 3 and out == ""
    assert "terms" in err


def test_eval_transformed_side_over_budget_exit_3(capsys):
    # the Euler side (c+400, c-b; c) at 9/10 never meets tol in the
    # 10000-term budget: its terms pass the float range and come back
    # too slowly
    code, out, err = run(capsys, "eval", "--mode", "exact", "-a=-400",
                         "-b=3/7", "-c=5/9", "-x=9/10")
    assert code == 3 and out == ""
    assert err == ("no convergence: tail bound still above tol=1e-12 after "
                   "10000 terms\n")


def test_eval_float_term_past_the_float_range_exit_3(capsys):
    # raw term 1 is inf: the sum stops there, not after the whole budget
    code, out, err = run(capsys, "eval", "-a=1e308", "-b=1e308", "-c=1",
                         "-x=0.5")
    assert code == 3 and out == ""
    assert err == "no convergence: term 1 is inf, outside the float range\n"


def test_eval_majorant_past_the_budget_exit_3(capsys):
    # a+k > 0 only from k0 = 20001 on, past the 10000-term budget: the sum
    # fails before its first term, so the inf term 1 is never formed
    code, out, err = run(capsys, "eval", "-a=-20000.5", "-b=1e308", "-c=1",
                         "-x=0.5")
    assert code == 3 and out == ""
    assert err == ("no convergence: the tail bound applies from term 20001 "
                   "on, past max_terms=10000\n")


# Exact points whose raw majorant at term 9999 is past 1, about 9.5e303
# and 1.98: no term can stop the sum.  Stepped through the whole budget,
# they took 70 s and 177 s on a 2-core x86 host.
HOPELESS_EXACT = [
    ["-a=1e308", "-b=31.97985643973101", "-c=41", "-x=0.9528863657076383"],
    ["-a=-9.99999999970619", "-b=1e-300", "-c=-7035.893450427089",
     "-x=-587/1000"],
]


@pytest.mark.parametrize("point", HOPELESS_EXACT,
                         ids=[" ".join(p) for p in HOPELESS_EXACT])
def test_eval_exact_hopeless_sum_fails_before_its_first_term(capsys,
                                                            term_steps,
                                                            point):
    code, out, err = run(capsys, "eval", "--mode", "exact", *point)
    assert code == 3 and out == ""
    assert err == ("no convergence: tail bound still above tol=1e-12 after "
                   "10000 terms\n")
    assert term_steps == []


def test_term_step_spy_sees_an_exact_sum(capsys, term_steps):
    code, _, _ = run(capsys, "eval", "--mode", "exact", "-a=1/3", "-b=2/7",
                     "-c=5/9", "-x=1/2")
    assert code == 0
    assert term_steps[:3] == [0, 1, 2]


# An exact raw value against a double Euler value, c-a-b not an integer:
# below tol of about 1e-14 the allowance is the prefactor's own rounding.

FLOOR_ARGV = ["eval", "--mode", "exact", "-a=28/9", "-b=-1", "-c=-5/4",
              "-x=2/100", "--tol", "1e-30"]


def test_eval_exact_against_a_double_passes_below_the_rounding(capsys):
    code, out, err = run(capsys, *FLOOR_ARGV)
    assert code == 0 and err == ""
    outputs = json.loads(out)["outputs"]
    assert outputs["value"] == "1181/1125"
    assert 0 < outputs["agreement_residual"] <= outputs["agreement_allowance"]
    assert outputs["agreement_allowance"] < 1e-14
    assert json.loads(out)["status"] == "pass"


def test_eval_exact_floor_still_fails_a_perturbed_euler_value(capsys,
                                                              monkeypatch):
    real = cli.eval_transformed

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        return out._replace(value=out.value * (1 + 1e-12))

    monkeypatch.setattr(cli, "eval_transformed", perturbed)
    code, out, _ = run(capsys, *FLOOR_ARGV)
    assert code == 1 and json.loads(out)["status"] == "fail"


def _rational(rng, bound, denominators):
    den = rng.choice(denominators)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def test_eval_exact_points_at_tiny_tols_pass_where_mpmath_agrees(capsys):
    # first order, with u = 2**-53 and L = log(1-x), the Euler value is off
    # by at most u(|e| + 4|eL| + 6)|s| from rounding, e = c-a-b (see
    # cmd_eval); both values must be that close to mpmath, and then pass
    rng = random.Random(1812)
    checked = 0
    while checked < 24:
        a, b = _rational(rng, 6, (2, 3, 7)), _rational(rng, 6, (3, 4, 5))
        c = abs(_rational(rng, 5, (3, 4, 6))) + Fraction(1, 2)
        e = c - a - b
        if e.denominator == 1:
            continue
        tol = ("1e-30", "1e-200")[checked % 2]
        x = Fraction(rng.randint(-90, 90), 100 if tol == "1e-30" else 400)
        code, out, err = run(capsys, "eval", "--mode", "exact", f"-a={a}",
                             f"-b={b}", f"-c={c}", f"-x={x}", "--tol", tol)
        assert err == "", (a, b, c, x, tol)
        outputs = json.loads(out)["outputs"]
        with mpmath.workdps(60):
            ref = mpmath.hyp2f1(*(mpmath.mpf(v.numerator) / v.denominator
                                  for v in (a, b, c, x)))
            raw = Fraction(outputs["value"])
            raw_error = abs(mpmath.mpf(raw.numerator) / raw.denominator - ref)
            euler_error = abs(outputs["transformed_value"] - ref)
        rounding = (abs(float(e)) + 4 * abs(float(e) * math.log(float(1 - x)))
                    + 6) * 2.0 ** -53 * abs(float(ref))
        assert raw_error <= outputs["tail_bound"] + 1e-55, (a, b, c, x, tol)
        assert euler_error <= outputs["transformed_tail_bound"] + rounding
        assert code == 0 and json.loads(out)["status"] == "pass", (
            a, b, c, x, tol)
        checked += 1


def test_closed_stdout_ends_cleanly():
    # the read end closes before the CLI writes, so its write hits EPIPE
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gausshyp.cli", "eval", "-a", "1", "-b", "1",
         "-c", "2", "-x", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_closed_stdout_closes_the_null_device_fd(monkeypatch, tmp_path):
    # in process, each broken pipe opens the null device once; that fd must
    # not stay open after it has been duplicated onto stdout
    opened = []
    real_open = os.open

    def recording_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        opened.append(fd)
        return fd

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        for _ in range(3):
            assert main(["eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.5"]) == 0
        monkeypatch.undo()
    assert len(opened) == 3
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


# ---- verify ----

@pytest.mark.parametrize("suite", ["binom", "ode", "triple", "integrals"])
def test_verify_suites_pass(capsys, suite):
    code, out, err = run(capsys, "verify", suite)
    assert code == 0, err
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(chk["failures"] == 0 for chk in report["checks"])


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    table = [(chk["suite"], chk["check"], chk["cases"], chk["failures"],
              chk.get("not_applicable", 0)) for chk in report["checks"]]
    assert table == [
        ("binom", "reflection", 325, 0, 0),
        ("binom", "pascal-recurrence", 300, 0, 0),
        ("binom", "integer-agreement", 169, 0, 0),
        ("binom", "sign-bridge", 49, 0, 0),
        ("ode", "residual-zeros", 1078, 0, 0),
        ("ode", "residual-tip", 98, 0, 0),
        ("ode", "operator-identity", 1078, 0, 0),
        ("triple", "three-series-relations", 189, 0, 54),
        ("integrals", "closed-form-I", 64, 0, 0),
        ("integrals", "closed-form-II", 64, 0, 0),
        ("integrals", "ratio-identity", 64, 0, 0),
        ("integrals", "theta-identity", 64, 0, 0),
        ("integrals", "sign-bridge", 49, 0, 0),
    ]


def test_verify_tol_must_be_positive_and_finite(capsys):
    for argv in (["binom", "--tol", "inf"], ["ode", "--tol", "nan"],
                 ["binom", "--tol", "-1"], ["binom", "--tol", "0"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert "tol" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["binom", "ode", "integrals"])
def test_verify_max_terms_must_be_positive(capsys, suite):
    # these suites never reach a term budget of their own, so the option is
    # checked once for every command
    code, out, err = run(capsys, "verify", suite, "--max-terms", "0")
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1
    assert "max_terms" in err and "Traceback" not in err


def test_verify_integrals_worst_residual_per_check(capsys):
    code, out, _ = run(capsys, "verify", "integrals")
    assert code == 0
    worst = {chk["check"]: chk.get("worst_residual")
             for chk in json.loads(out)["checks"]}
    specs = [IntegralSpec(a, n, i) for a in INTEGRAL_AS for n, i in INTEGRAL_NI]
    for name, check in (("closed-form-I", check_closed_form_I),
                        ("closed-form-II", check_closed_form_II)):
        results = [check(spec) for spec in specs]
        assert worst[name] == max(abs(r.quadrature - r.closed_form)
                                  for r in results)
    for name, sides in (("ratio-identity", ratio_identity_sides),
                        ("theta-identity", theta_identity_sides)):
        residuals = []
        for spec in specs:
            lhs, rhs = sides(spec, quad_I(spec), quad_II(spec))
            residuals.append(abs(lhs - rhs))
        assert worst[name] == max(residuals)


@pytest.mark.parametrize("tol", ["1e-8", "1e-6", "1e-320"])
def test_verify_integrals_pairs_match_the_per_spec_functions(monkeypatch,
                                                             tol):
    # the suite's loop over (n, i), which forms the characters once for
    # every modulus, must give the (residual, allowance) pairs of the
    # public functions called per spec, in its order: a inside (n, i)
    seen = {}
    real = cli._within

    def recording(name, pairs, not_applicable=0):
        seen[name] = pairs = list(pairs)
        return real(name, pairs, not_applicable)

    monkeypatch.setattr(cli, "_within", recording)
    _verify_integrals(build_parser().parse_args(
        ["verify", "integrals", "--tol", tol]))
    tol = float(tol)
    want = {name: [] for name in ("closed-form-I", "closed-form-II",
                                  "ratio-identity", "theta-identity")}
    for n, i in INTEGRAL_NI:
        for a in INTEGRAL_AS:
            spec = IntegralSpec(a, n, i)
            for name, check in (("closed-form-I", check_closed_form_I),
                                ("closed-form-II", check_closed_form_II)):
                r = check(spec)
                want[name].append((abs(r.quadrature - r.closed_form),
                                   max(tol, 10.0 * r.abs_error_estimate)))
            for name, sides in (("ratio-identity", ratio_identity_sides),
                                ("theta-identity", theta_identity_sides)):
                lhs, rhs = sides(spec, quad_I(spec), quad_II(spec))
                want[name].append((abs(lhs - rhs), tol * (1.0 + abs(lhs))))
    assert seen == want


def test_verify_integrals_runs_each_quadrature_once(monkeypatch):
    # 64 specs, one quad_I and one quad_II each, shared by all four checks
    calls = []
    real = integrals._integral

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrals, "_integral", counting)
    args = build_parser().parse_args(["verify", "integrals"])
    entries = _verify_integrals(args)
    assert all(entry["status"] == "pass" for entry in entries)
    assert len(calls) == 2 * len(INTEGRAL_AS) * len(INTEGRAL_NI) == 128


def test_verify_integrals_forms_the_powers_once_per_spec(monkeypatch):
    # (1-a**2)**(-n) and (1-a**2)**(n+1) serve both identities of a spec:
    # two power calls for each of the 64 specs
    calls = []
    real = integrals.power

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(integrals, "power", counting)
    entries = _verify_integrals(build_parser().parse_args(["verify",
                                                           "integrals"]))
    assert all(entry["status"] == "pass" for entry in entries)
    assert len(calls) == 2 * len(INTEGRAL_AS) * len(INTEGRAL_NI) == 128


def test_verify_ode_forms_the_coefficients_once_per_grid_point(capsys,
                                                             monkeypatch):
    # the tip and both residuals of a grid point share one truncation
    calls = []
    real = series._integer_coefficients

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_integer_coefficients", counting)
    code, out, _ = run(capsys, "verify", "ode")
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert len(calls) == len(ODE_GRID) == 98


def _checks(out: str) -> dict:
    return {(chk["suite"], chk["check"]): chk
            for chk in json.loads(out)["checks"]}


def test_verify_all_runs_the_sign_bridge_once(capsys, monkeypatch):
    # binom and integrals both end with the 49-case sign bridge; under
    # `verify all` one run serves both, and each suite alone still runs it
    calls = []
    real = cli.verify_sign_bridge

    def counting(n, i):
        calls.append((n, i))
        return real(n, i)

    monkeypatch.setattr(cli, "verify_sign_bridge", counting)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and len(calls) == 49
    checks = _checks(out)
    bridge = {k: v for k, v in checks[("binom", "sign-bridge")].items()
              if k != "suite"}
    assert bridge == {"check": "sign-bridge", "cases": 49, "failures": 0,
                      "status": "pass"}
    assert checks[("integrals", "sign-bridge")] == {"suite": "integrals",
                                                    **bridge}
    for suite in ("binom", "integrals"):
        calls.clear()
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0 and len(calls) == 49
        assert _checks(out)[(suite, "sign-bridge")] == {"suite": suite,
                                                        **bridge}


def test_verify_forms_each_character_once(capsys, monkeypatch):
    # the triple suite forms the three leading characters of each (e, f, h)
    # once for its three points, the integral suite the four characters of
    # each (n, i) once for its four moduli, and the sign bridge each of its
    # four characters once per (n, i): 510 binom_char calls under
    # `verify all`
    calls = []
    real = binom.binom_char

    def counting(m, k):
        calls.append((m, k))
        return real(m, k)

    for module in (binom, cli, integrals, transform):
        monkeypatch.setattr(module, "binom_char", counting)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and len(calls) == 510
    assert _checks(out)[("binom", "sign-bridge")]["cases"] == 49
    calls.clear()
    code, _, _ = run(capsys, "verify", "triple")
    assert code == 0 and len(calls) == 81
    assert calls == [(m, e) for e, f, h in cli.TRIPLE_EFH
                     for m in (h, e - h - 1, -f - 1)]
    calls.clear()
    # per (n, i), in loop order: the leads of the two closed forms, which
    # the ratio identity shares, then the theta identity's characters; the
    # sign bridge follows
    code, _, _ = run(capsys, "verify", "integrals")
    assert code == 0 and len(calls) == 64 + 196
    assert calls == [(m, i) for n, i in cli.INTEGRAL_NI
                     for m in (n + i, -n - 1 + i, -n - 1, n)] + [
        (m, i) for n, i in product(cli.SIGN_RANGE, repeat=2)
        for m in (n, n + i, -n - 1, -n - 1 + i)]


@pytest.mark.parametrize("k", [0, 4, 10])
def test_verify_ode_fails_on_a_perturbed_numerator(capsys, monkeypatch, k):
    # the integer comparisons must see one coefficient numerator off by one
    real = series._integer_coefficients

    def perturbed(params, degree):
        num, D = real(params, degree)
        num[k] += 1
        return num, D

    monkeypatch.setattr(series, "_integer_coefficients", perturbed)
    code, out, _ = run(capsys, "verify", "ode")
    assert code == 1 and json.loads(out)["status"] == "fail"
    checks = _checks(out)
    assert checks[("ode", "residual-zeros")]["failures"] > 0
    assert checks[("ode", "operator-identity")]["failures"] > 0


def _falling_wrong_sign(p, q, k):
    num = 1
    for j in range(k):
        num *= p + j * q
    return num


def _falling_off_by_one(p, q, k):
    num = 1
    for j in range(1, k + 1):
        num *= p - j * q
    return num


@pytest.mark.parametrize("fault,failing", [
    (_falling_wrong_sign, {"reflection", "pascal-recurrence",
                           "integer-agreement", "sign-bridge"}),
    (_falling_off_by_one, {"reflection", "integer-agreement", "sign-bridge"}),
])
def test_verify_binom_fails_on_a_faulty_character_numerator(capsys,
                                                           monkeypatch,
                                                           fault, failing):
    # binom_char and the numerator checks share one helper; a fault in it
    # must fail the suite, and the numerator checks must see it themselves
    monkeypatch.setattr(binom, "_falling", fault)
    code, out, _ = run(capsys, "verify", "binom")
    assert code == 1 and json.loads(out)["status"] == "fail"
    assert {check for (_, check), chk in _checks(out).items()
            if chk["failures"]} == failing


def test_verify_triple_at_a_tol_below_its_prefactors(capsys):
    # tol / 1000 over a leading character above 1 underflows to 0; each
    # character is then summed to the least positive double instead
    code, out, err = run(capsys, "verify", "triple", "--tol", "1e-320")
    assert code == 0, err
    check, = json.loads(out)["checks"]
    assert (check["cases"], check["failures"], check["not_applicable"]) \
        == (189, 0, 54)
    # every suite reports; whether the float suites meet so tight a tol is
    # not asked here
    code, out, err = run(capsys, "verify", "all", "--tol", "1e-320")
    assert code in (0, 1) and err == ""
    assert [suite for suite, _ in _checks(out)] == (
        ["binom"] * 4 + ["ode"] * 3 + ["triple"] + ["integrals"] * 5)


def test_verify_looser_tol_still_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_absurd_tol_fails_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "integrals", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]


def test_verify_triple_passes_below_the_old_series_floor(capsys):
    # the grid is exact, so each residual is the truncation of exact partial
    # sums, which summing each character to tol / 1000 keeps below tol
    code, out, _ = run(capsys, "verify", "triple", "--tol", "1e-30")
    assert code == 0
    check, = json.loads(out)["checks"]
    assert (check["failures"], check["status"]) == (0, "pass")
    assert check["worst_residual"] <= 1e-30


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "binom", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "check", "cases", "failures",
                       "worst_residual", "status"]
    assert all(row[-1] == "pass" for row in rows[1:])


# ---- bench ----

def test_bench_csv_default_grid(capsys):
    code, out, _ = run(capsys, "bench", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert header == ["a", "b", "c", "x", "raw_terms", "raw_terminated",
                      "transformed_terms", "transformed_terminated",
                      "selected", "status"]
    assert len(data) == 25  # 5 parameter sets x 5 points
    sel = header.index("selected")
    raw_terms = header.index("raw_terms")
    tr_terms = header.index("transformed_terms")
    raw_done = header.index("raw_terminated")
    tr_done = header.index("transformed_terminated")
    for row in data:
        assert row[header.index("status")] == "ok"
        if row[raw_done] == "true" and row[tr_done] == "false":
            assert row[sel] == "raw"
            assert int(row[raw_terms]) < int(row[tr_terms])
        if row[tr_done] == "true" and row[raw_done] == "false":
            assert row[sel] == "transformed"
            assert int(row[tr_terms]) < int(row[raw_terms])


def test_bench_custom_grid(capsys):
    code, out, _ = run(capsys, "bench", "--grid", "3,1,2;1,1,2",
                       "-x", "0.5,0.9", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 4
    first = report["rows"][0]
    assert first["selected"] == "transformed"
    assert first["transformed_terms"] == 2


def test_bench_exact_mode_reads_the_default_grid_and_points_exactly(capsys):
    code, out, _ = run(capsys, "bench", "--mode", "exact", "--output", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,1,2,1/10,13,false,2,true,transformed,ok"
    code, out, _ = run(capsys, "bench", "--mode", "exact", "--grid",
                       "1/3,2/7,5/9", "-x", "0.5")
    assert code == 0
    row, = json.loads(out)["rows"]
    assert (row["a"], row["x"]) == ("1/3", "1/2")


def test_bench_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "bench", "--grid", "1,2")
    assert code == 2 and "triple" in err


# ---- report contract ----
#
# The exact stdout of argv lists whose reports use no libm function, so the
# bytes do not depend on the platform's math library, apart from the exact
# evals at (1/3, 2/7; 5/9; 1/2) and (-40, 5/4; 7/3; -1/4): their Euler
# prefactor (1-x)**(c-a-b) goes through exp and log, and they pin the
# rounded exact sum that multiplies it.  Regenerate the file only for a
# deliberate change of the report contract.

CONTRACT = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_contract.json").read_text())


@pytest.mark.parametrize("case", CONTRACT,
                         ids=[" ".join(c["argv"]) for c in CONTRACT])
def test_report_contract_bytes(capsys, case):
    assert run(capsys, *case["argv"]) == (0, case["stdout"], "")


# ---- one parser per process ----

def test_parser_is_built_once_per_process(capsys, monkeypatch):
    argvs = [["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "0.5"],
             ["eval", "--mode", "exact", "-a=-2", "-b=3", "-c=1", "-x=1/4"],
             ["verify", "binom", "--output", "csv"]]
    main(argvs[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    codes = [main(argvs[k % len(argvs)]) for k in range(20)]
    capsys.readouterr()
    assert codes == [0] * 20
    assert built == []


def test_repeated_main_calls_print_the_contract_bytes(capsys):
    # the cached parser must fill a fresh namespace on every call, after a
    # rejected argv and a --help as well, in either order of the runs
    for case in CONTRACT:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], "")
    with pytest.raises(SystemExit) as rejected:
        main(["eval", "-a", "1"])
    assert rejected.value.code == 2
    with pytest.raises(SystemExit) as helped:
        main(["eval", "--help"])
    assert helped.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gausshyp eval")
    for case in reversed(CONTRACT):
        assert run(capsys, *case["argv"]) == (0, case["stdout"], "")


# ---- one parse per argv ----
#
# An argv whose first word names a command is parsed by that command's
# parser alone; the full parser must see no difference.  Emptying the
# parser's command table sends every argv through the full parser.

EVAL_ARGV = ["eval", "-a=1", "-b=1", "-c=2", "-x=0.5"]
DISPATCH_ARGVS = [
    [], ["--help"], ["-h", "eval"], ["nosuch"], ["Eval", "-a=1"],
    ["--mode", "exact", *EVAL_ARGV],
    EVAL_ARGV, ["eval", "--help"], ["eval"], ["eval", "-a", "1"],
    [*EVAL_ARGV, "--bogus"], [*EVAL_ARGV, "extra"], [*EVAL_ARGV, "--", "1"],
    [*EVAL_ARGV, "--bogus", "--help"], [*EVAL_ARGV, "--tol", "abc"],
    [*EVAL_ARGV, "--out", "csv"], [*EVAL_ARGV, "--max", "5"],
    [*EVAL_ARGV, "--output=text", "--mode=exact"],
    ["eval", "-a", "-3", "-b", "1", "-c", "2", "-x", "0.5"],
    ["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "-3/4"],
    ["eval", "-x=-0.5", "-a=1", "-a=2", "-b=1/2", "-c=3/2", "--mode", "exact"],
    ["verify", "nosuch"], ["verify", "binom", "ode"],
    ["verify", "binom", "--output", "csv", "--tol", "1e-6"],
    ["bench", "--grid", "3,1,2;1,1,2", "-x", "0.5,0.9"],
    ["bench", "--grid", "1,2"], ["bench", "--help"],
]


def _dispatch(capsys, monkeypatch, argvs):
    """(code or SystemExit code, stdout, stderr, parsed namespace) per argv."""
    parsed = []
    for name, command in list(cli._COMMANDS.items()):
        def recording(args, command=command):
            parsed.append(vars(args).copy())
            return command(args)
        monkeypatch.setitem(cli._COMMANDS, name, recording)
    outcomes = []
    for argv in argvs:
        parsed.clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        outcomes.append((code, out, err, parsed[:]))
    return outcomes


def test_command_parser_matches_the_full_parser(capsys, monkeypatch):
    direct = _dispatch(capsys, monkeypatch, DISPATCH_ARGVS)
    monkeypatch.setattr(build_parser(), "commands", {})
    full = _dispatch(capsys, monkeypatch, DISPATCH_ARGVS)
    for argv, got, want in zip(DISPATCH_ARGVS, direct, full):
        assert got == want, argv
    accepted = [argv for argv, (*_, parsed) in zip(DISPATCH_ARGVS, full)
                if parsed]
    assert len(accepted) == 9
    assert full[DISPATCH_ARGVS.index([*EVAL_ARGV, "--bogus"])][2].startswith(
        "usage: gausshyp [-h] {eval,verify,bench} ...\n")


def test_a_command_argv_skips_the_full_parser(capsys, monkeypatch):
    scans = []
    parser = build_parser()
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args: scans.append(args))
    assert main(EVAL_ARGV) == 0
    assert main(["verify", "binom", "--output", "csv"]) == 0
    capsys.readouterr()
    assert scans == []


# ---- no command imports NumPy ----

_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gausshyp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(json.dumps([code, "numpy" in sys.modules]))
"""


NUMPY_CASES = [
    ["eval", "-a=1", "-b=1", "-c=2", "-x=0.5"],
    ["eval", "--mode", "exact", "-a=1/3", "-b=2/7", "-c=5/9", "-x=1/2"],
    ["bench"],
    ["verify", "binom"],
    ["verify", "ode"],
    ["verify", "triple"],
    ["verify", "integrals"],
    ["verify", "all"],
]


# every command, the quadrature's included, runs without loading NumPy
@pytest.mark.parametrize("argv", NUMPY_CASES,
                         ids=[" ".join(argv) for argv in NUMPY_CASES])
def test_numpy_is_imported_only_by_the_quadrature(argv):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(src), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, False]


# ---- no command imports dataclasses ----

_START_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from gausshyp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(json.dumps([code, sorted({"dataclasses", "inspect", "typing"}
                               & set(sys.modules))]))
"""


START_CASES = [
    ["eval", "-a=1", "-b=1", "-c=2", "-x=0.5"],
    ["eval", "--mode", "exact", "-a=1/3", "-b=2/7", "-c=5/9", "-x=1/2",
     "--output", "csv"],
    ["bench"],
    ["verify", "all"],
]


# dataclasses, the inspect it loads, and typing each cost milliseconds of
# every start; -S leaves out site, whose .pth files may load them themselves
@pytest.mark.parametrize("argv", START_CASES,
                         ids=[" ".join(argv) for argv in START_CASES])
def test_no_command_imports_dataclasses_inspect_or_typing(argv):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _START_PROBE, str(src), *argv],
        capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, []]
