"""Tests for the command-line interface: formats, exit codes, round-trips."""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import pathlib
import random
import struct
import subprocess
import sys
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from gausshyp import (HypergeometricParams, IntegralSpec, NoConvergenceError,
                      check_closed_form_I, check_closed_form_II,
                      quad_I, quad_II, ratio_identity_sides,
                      theta_identity_sides)
from gausshyp import binom, cli, integrals, scalar, series, transform
from gausshyp.cli import (INTEGRAL_AS, INTEGRAL_NI, ODE_GRID, _verify_integrals,
                          build_parser, format_float, main, render_json)
from gausshyp.scalar import is_exact, parse_scalar
from oracles import isinstance_render_json, reference_format_float


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


def _seeded_doubles(n: int) -> list[float]:
    """Every finite double of n seeded bit patterns, so that each exponent,
    the subnormals among them, is drawn alike, and n seeded uniform draws
    in [-10, 10], where report values mostly lie."""
    rng = random.Random(2029)
    patterns = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                for _ in range(n)]
    return ([v for v in patterns if math.isfinite(v)]
            + [rng.uniform(-10.0, 10.0) for _ in range(n)])


def test_format_float_is_17_significant_digits_with_no_negative_zero():
    # the reference is format(v, ".17g") with "-0" read as "0"; it does not
    # go through cli, as the render_json tests' oracle does not either
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             2.225073858507201e-308, sys.float_info.max, -sys.float_info.max,
             1e22, 1e-7, 0.1, 2.0, 1.9911, -1.3732]
    for v in edges + _seeded_doubles(20000):
        assert format_float(v) == reference_format_float(v), v
        assert format_float(np.float64(v)) == reference_format_float(v), v
    for bad in (math.inf, -math.inf, math.nan, -math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite float in report"):
            format_float(bad)


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
    # exact parameter 1e400, raw float polynomials whose sums pass the float
    # range, refused before their Euler prefactors 1.99**2000, 1.99**2000.5
    # and (41/35)**-1e308 are formed, a raw polynomial whose float and exact
    # sums pass the float range, an exact z times a prefactor
    # (1/2)**2000.2 that underflows to 0.0, and an agreement allowance
    # 100 tol (1 + |value|) at tol = 1e307
    for argv in (["--mode", "exact", "-a=-2000", "-b=1/2", "-c=3/2", "-x=-9/10"],
                 ["--mode", "exact", "-a=1e400", "-b=1", "-c=2", "-x=1/2"],
                 ["-a=-2000", "-b=1", "-c=1", "-x=-0.99"],
                 ["-a=-2000", "-b=1", "-c=1.5", "-x=-0.99"],
                 ["-a=1e308", "-b=-7", "-c=52/8", "-x=-6/35"],
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


@pytest.mark.parametrize("a, b, c, exponent",
                         [("1e308", "-1", "52/8", "-1e+308"),
                          ("3e5", "-7", "6", "-299987.0")])
def test_eval_rejects_an_exact_power_too_large_to_form(capsys, monkeypatch,
                                                       a, b, c, exponent):
    # c-a-b is an integral double and 1-x the exact 41/35, so the Euler
    # prefactor is an exact power, refused before it is formed.  At -1e308
    # it would never be formed; b = -1 keeps the raw side, a polynomial of
    # degree 1, inside the float range.  At -299987 it would take about a
    # second, after which the Euler side, 299995 terms long, would fail its
    # budget (exit 3); the refusal comes first, so that argv exits 2 as well.
    formed = []
    pow_ = Fraction.__pow__
    monkeypatch.setattr(Fraction, "__pow__",
                        lambda *args: formed.append(args) or pow_(*args))
    code, out, err = run(capsys, "eval", f"-a={a}", f"-b={b}", f"-c={c}",
                         "-x=-6/35")
    assert (code, out) == (2, "")
    assert err == (f"domain error: (41/35)**{exponent} would have more than "
                   f"{64 * sys.get_int_max_str_digits()} bits in its "
                   "numerator or denominator\n")
    assert formed == []


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_eval_of_a_long_polynomial_at_zero_is_its_first_term(capsys,
                                                             term_steps, mode):
    # s = 1 at x = 0 whatever the degree: a polynomial of 20001 terms, past
    # the budget, ends at its first term and steps none
    code, out, err = run(capsys, "eval", f"--mode={mode}", "-a=-20000",
                         "-b=1", "-c=1", "-x=0")
    assert (code, err) == (0, "")
    outputs = json.loads(out)["outputs"]
    assert outputs["value"] in (1, "1")
    assert (outputs["terms_used"], outputs["terminated"],
            outputs["tail_bound"]) == (1, True, 0)
    assert term_steps == []
    # a short one, which used to step its zero terms: a tie, to raw
    code, out, _ = run(capsys, "eval", f"--mode={mode}", "-a=-3", "-b=1",
                       "-c=1", "-x=0")
    outputs = json.loads(out)["outputs"]
    assert (code, outputs["terms_used"], outputs["selection_reason"]) \
        == (0, 1, "both sides take 1 terms; tie goes to raw")


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


@pytest.mark.parametrize("grid", ["-5,440.5,0.5", "440.5,-18.5,39.875"])
def test_a_prefactor_times_its_series_past_the_float_range_exit_2(capsys,
                                                                  grid):
    # the Euler side's product overflows: eval exits 2 naming it, and the
    # bench row reads domain-error, where it read ok
    a, b, c = grid.split(",")
    code, out, err = run(capsys, "eval", f"-a={a}", f"-b={b}", f"-c={c}",
                         "-x=0.75")
    assert code == 2 and out == ""
    assert err == ("domain error: scaled series value must be finite, "
                   "inside the float range\n")
    code, out, err = run(capsys, "bench", f"--grid={grid}", "-x=0.75")
    assert code == 0 and err == ""
    assert json.loads(out)["rows"][0]["status"] == "domain-error"


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
    code, out, err = run(capsys, "eval", "-a=2", "-b=1e308", "-c=1e308",
                         "-x=0.4")
    assert code == 3 and out == ""
    assert err == "no convergence: term 1 is inf, outside the float range\n"


@pytest.mark.parametrize("c", ["1e307", f"{10 ** 307}/1"],
                         ids=["float-c", "exact-c"])
def test_eval_float_denominator_past_the_float_range_exit_3(capsys, c):
    # (k+1)(c+k) overflows to inf at k = 17 and zeroes term 18, whose bound
    # would read 0: the sum stops there with exit 3, where it printed a
    # value off by about 0.17 with a tail bound of 0, or, for an exact c,
    # ended in an OverflowError
    code, out, err = run(capsys, "eval", "-a=0.5", "-b=1e307", f"-c={c}",
                         "-x=0.9")
    assert code == 3 and out == ""
    assert err == ("no convergence: the denominator of term 18 is inf, "
                   "outside the float range\n")


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
# they took 70 s and 177 s on a 2-core x86 host.  In the other four the
# majorant overflows to inf; stepped, the fourth took 0.87 s at 500 terms
# and 38.7 s at 4000, and the last two over 5 s each.
HOPELESS_EXACT = [
    ["-a=1e308", "-b=31.97985643973101", "-c=41", "-x=0.9528863657076383"],
    ["-a=-9.99999999970619", "-b=1e-300", "-c=-7035.893450427089",
     "-x=-587/1000"],
    ["-a=1e308", "-b=1e308", "-c=1", "-x=1/2"],
    ["-a=1e300", "-b=1e300", "-c=1", "-x=-1/2"],
    ["--tol=1e-100", "-a=1e300", "-b=1e300", "-c=-1/2", "-x=1e-30"],
    ["--tol=1e300", "-a=1e308", "-b=1e300", "-c=0.5", "-x=-0.9"],
]


@pytest.mark.parametrize("point", HOPELESS_EXACT,
                         ids=[" ".join(p) for p in HOPELESS_EXACT])
def test_eval_exact_hopeless_sum_fails_before_its_first_term(capsys,
                                                            term_steps,
                                                            point):
    code, out, err = run(capsys, "eval", "--mode", "exact", *point)
    tol = next((float(w[6:]) for w in point if w.startswith("--tol=")),
               1e-12)
    assert code == 3 and out == ""
    assert err == (f"no convergence: tail bound still above tol={tol} after "
                   "10000 terms\n")
    assert term_steps == []


def test_term_step_spy_sees_an_exact_sum(capsys, term_steps):
    code, _, _ = run(capsys, "eval", "--mode", "exact", "-a=1/3", "-b=2/7",
                     "-c=5/9", "-x=1/2")
    assert code == 0
    assert term_steps[:3] == [0, 1, 2]


# ---- fuzzed eval and bench argv ----
#
# Each call exits 0-3 with one report, or with one error line, and steps no
# term past its budget.  The values are the edges that hand fuzzing found
# hangs and tracebacks at: zeros, halves, p/q, the float range's ends, nan,
# inf, 1/0, long polynomials and points near +-1.

FUZZ_VALUES = st.sampled_from(
    ["0.5", "-0.5", "3/7", "-22/7", "1", "2", "0", "1e308", "-1e308",
     "5e-324", "-20000", "-1020", "-7"])
# c as a nonpositive integer is one of the refused values
FUZZ_C = st.sampled_from(
    ["0.5", "-0.5", "3/7", "-22/7", "1", "2", "1e308", "5e-324",
     "-20001/2"])
FUZZ_POINTS = st.sampled_from(
    ["0.5", "-0.5", "3/7", "0", "5e-324", "0.99", "-0.99", "99/100",
     "-999999/1000000", "0.9999999999999999", "-0.9999999999999999"])
FUZZ_REFUSED = st.sampled_from(["nan", "inf", "-inf", "1/0", "1", "0", "-7"])


@st.composite
def fuzz_argvs(draw):
    """An eval or bench argv in either mode, every value spelled with '='.
    In one argv of four, one value is nan, inf, 1/0, 1, which is no point
    of (-1, 1), or 0 or -7, which are no c."""
    bench = draw(st.booleans())
    triples, points = ((draw(st.integers(1, 2)), draw(st.integers(1, 2)))
                       if bench else (1, 1))
    values = [draw(FUZZ_C if i % 3 == 2 else FUZZ_VALUES)
              for i in range(3 * triples)]
    values += [draw(FUZZ_POINTS) for _ in range(points)]
    if not draw(st.integers(0, 3)):
        values[draw(st.integers(0, len(values) - 1))] = draw(FUZZ_REFUSED)
    if bench:
        grid = [values[i:i + 3] for i in range(0, 3 * triples, 3)]
        words = ["bench", "--grid=" + ";".join(map(",".join, grid)),
                 "-x=" + ",".join(values[3 * triples:])]
    else:
        words = ["eval", *map("-{}={}".format, "abcx", values)]
    if draw(st.booleans()):
        words.append("--tol=" + draw(st.sampled_from(
            ["5e-324", "1e-320", "1e-300", "1e-30", "1e-12", "1e-3"])))
    max_terms = draw(st.integers(1, 500))
    return [*words, f"--mode={draw(st.sampled_from(['float', 'exact']))}",
            f"--max-terms={max_terms}",
            f"--output={draw(st.sampled_from(['json', 'csv', 'text']))}"]


@seed(3402)
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_argvs())
@example(["eval", "-a=-20000", "-b=1", "-c=1", "-x=0", "--mode=exact",
          "--max-terms=500", "--output=json"])
@example(["eval", "-a=-2000", "-b=1", "-c=1", "-x=-0.99", "--mode=float",
          "--max-terms=500", "--output=csv"])
@example(["bench", "--grid=1e308,1e308,-0.5", "-x=0", "--mode=exact",
          "--max-terms=60", "--output=text"])  # raised OverflowError
def test_fuzzed_argv_exit_0_to_3_within_budget(capsys, term_steps, argv):
    term_steps.clear()
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code in (0, 1):
        assert err == ""
        if argv[-1] == "--output=json":
            assert json.loads(out)["command"] == argv[0]
            assert out.count("\n") == 1
        else:
            assert out.endswith("\n") and out.strip()
    else:
        assert code in (2, 3) and out == ""
        assert err.count("\n") == 1
        assert err.startswith(("domain error: ", "no convergence: "))
    assert all(k < int(argv[-2][12:]) for k in term_steps)


# Exact sums whose denominator outgrows the bit cap of scalar.power, each
# stopped at the term named: the first ran for minutes, the second exited
# 2 on its Euler prefactor after some 10 s of exact steps.
CAPPED_EXACT = {
    267: ["-a=7/3", "-b=1", "-c=1e-305", "-x=-0.99"],
    1332: ["-a=4792.554954931658", "-b=-0.9999999993392749",
           "-c=-7527.34172419949", "-x=0.08964856403863841"],
}


@pytest.mark.parametrize("term", list(CAPPED_EXACT))
def test_an_exact_sum_past_the_bit_cap_is_a_domain_error(capsys, term_steps,
                                                         term):
    code, out, err = run(capsys, "eval", "--mode", "exact",
                         *CAPPED_EXACT[term])
    assert code == 2 and out == ""
    assert err == ("domain error: the exact sum's denominator passes "
                   f"{scalar._power_bits()} bits at term {term}\n")
    assert term_steps == list(range(term))


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
    real = transform.eval_transformed

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        return out._replace(value=out.value * (1 + 1e-12))

    monkeypatch.setattr(transform, "eval_transformed", perturbed)
    code, out, _ = run(capsys, *FLOOR_ARGV)
    assert code == 1 and json.loads(out)["status"] == "fail"


def test_eval_exact_forms_the_euler_parameters_once(capsys, monkeypatch):
    # c-a-b = 43/12 is not an integer, so the Euler side is a double and
    # the allowance takes the prefactor's rounding floor, which reads c-a-b
    # and 1-x without forming the Euler parameters a second time
    calls = []
    real = transform.euler_transform_params

    def spy(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(transform, "euler_transform_params", spy)
    code, out, err = run(capsys, "eval", "--mode", "exact", "-a=-40",
                         "-b=5/4", "-c=7/3", "-x=-1/4")
    assert (code, err) == (0, "")
    assert json.loads(out)["outputs"]["agreement_allowance"] > 0
    assert calls == [HypergeometricParams(-40, Fraction(5, 4), Fraction(7, 3))]


def _two_branch_allowance(params, x, tol, raw, transformed):
    """The allowance as `eval` formed it in two branches: 100 tol (1+|raw|),
    raised to the prefactor's rounding floor when an exact raw value meets
    a double Euler value."""
    allowance = 100.0 * tol * (1.0 + abs(float(raw.value)))
    if is_exact(raw.value) and isinstance(transformed.value, float):
        e = float(params.c - params.a - params.b)
        rounding = abs(e) + 3.0 * abs(e * math.log(float(1 - x))) + 4.0
        allowance = max(allowance, rounding * 2.0 ** -52
                        * (1.0 + abs(float(raw.value))))
    return allowance


def _agreement_points():
    """FLOOR_ARGV's point, then seeded float and exact points."""
    args = build_parser().parse_args(FLOOR_ARGV)
    abc = (parse_scalar(v, True) for v in (args.a, args.b, args.c))
    yield HypergeometricParams(*abc), parse_scalar(args.x, True), args.tol
    rng = random.Random(2310)
    for _ in range(60):
        yield (HypergeometricParams(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                    rng.uniform(0.5, 5)),
               rng.uniform(-0.9, 0.9), rng.choice((1e-6, 1e-12, 1e-15)))
    for _ in range(60):
        yield (HypergeometricParams(_rational(rng, 5, (1, 2, 3, 7)),
                                    _rational(rng, 5, (1, 2, 4, 9)),
                                    Fraction(rng.randint(1, 40),
                                             rng.randint(1, 8))),
               Fraction(rng.randint(-9, 9), rng.choice((20, 23, 40))),
               rng.choice((1e-8, 1e-14, 1e-20, 1e-30)))


def test_agreement_is_the_two_branch_allowance_bit_for_bit():
    # max(100 tol, floor) (1+|raw|) rounds as the larger of the two
    # products over the same fl(1+|raw|)
    floors = 0
    for params, x, tol in _agreement_points():
        try:
            raw, tr, _ = transform.evaluate(params, x, tol, 3000)
        except NoConvergenceError:
            continue
        residual, allowance = transform.agreement(params, x, tol, raw, tr)
        want = _two_branch_allowance(params, x, tol, raw, tr)
        assert allowance.hex() == want.hex()
        assert residual == abs(float(raw.value) - float(tr.value))
        floors += allowance != 100.0 * tol * (1.0 + abs(float(raw.value)))
    assert floors >= 10


def _rational(rng, bound, denominators):
    den = rng.choice(denominators)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def test_eval_exact_points_at_tiny_tols_pass_where_mpmath_agrees(capsys):
    # first order, with u = 2**-53 and L = log(1-x), the Euler value is off
    # by at most u(|e| + 4|eL| + 6)|s| from rounding, e = c-a-b (see
    # transform.agreement); both values must be that close to mpmath, and
    # then pass
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
    # binom and ode never reach a term budget of their own, so the option is
    # checked once for every command, before any suite runs
    code, out, err = run(capsys, "verify", suite, "--max-terms", "0")
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1
    assert "max_terms" in err and "Traceback" not in err


# No sum can spend a budget past 2**53, and every command refuses one before
# it sums a term.  Under such a budget the float and the exact point below
# were summed without end, where a budget of 2**53 turns each away at once,
# and a budget past the float range overflowed the float loop's counter:
# an OverflowError, exit 1.
HOPELESS_FLOAT = ["eval", "-a=1.7852755613304564e+308", "-b=0.5",
                  "-c=1.9861890721150725e+306", "-x=0.00048828125",
                  "--tol", "2e-311"]
PAST_2_53, PAST_FLOATS = str(2 ** 53 + 1), str(10 ** 309)


@pytest.mark.parametrize("argv", [
    [*HOPELESS_FLOAT, "--max-terms", PAST_2_53],
    ["eval", "--mode", "exact", "-a=" + "10" * 50, "-b=1/3", "-c=-7/2",
     "-x=-0.5", "--tol=5e-324", "--max-terms=" + PAST_2_53],
    ["eval", "-a=0.3", "-b=0.7", "-c=1.5", "-x=0.5", "--max-terms",
     PAST_FLOATS],
    ["bench", "--max-terms", PAST_FLOATS],
    ["verify", "triple", "--max-terms", PAST_2_53],
    ["verify", "integrals", "--max-terms", PAST_2_53],
], ids=["float-sum", "exact-sum", "float-counter", "bench", "triple",
        "integrals"])
def test_a_budget_past_2_53_is_a_domain_error(capsys, term_steps, argv):
    code, out, err = run(capsys, *argv)
    budget = argv[-1].rpartition("=")[2]
    assert code == 2 and out == ""
    assert err == ("domain error: max_terms must lie in [1, 2**53], "
                   f"got {budget}\n")
    assert term_steps == []


def test_a_budget_of_2_53_turns_a_hopeless_sum_away_at_once(capsys,
                                                            term_steps):
    code, out, err = run(capsys, *HOPELESS_FLOAT, "--max-terms",
                         str(2 ** 53))
    assert code == 3 and out == ""
    assert err == ("no convergence: tail bound still above tol=2e-311 after "
                   "9007199254740992 terms\n")
    assert term_steps == []


@pytest.mark.parametrize("budget", ["1", "60", "70"])
def test_verify_integrals_sums_its_closed_forms_within_max_terms(capsys,
                                                                 budget):
    # the suite's longest closed-form series takes 71 terms; the message
    # names the first case that runs out and the suite's tol and budget
    case = {"1": "(0, 0, 0.1)", "60": "(2, 0, 0.7)", "70": "(3, 0, 0.7)"}[budget]
    code, out, err = run(capsys, "verify", "integrals", "--max-terms", budget)
    assert code == 3 and out == ""
    assert err == (f"no convergence: case (n, i, a) = {case} at tol=1e-08, "
                   f"max_terms={budget}: tail bound still above tol=1e-12 "
                   f"after {budget} terms\n")


def test_verify_exit_3_names_the_case_and_the_settings_given(capsys):
    code, out, err = run(capsys, "verify", "integrals", "--tol", "1e-6",
                         "--max-terms", "65")
    assert code == 3 and out == ""
    assert err == ("no convergence: case (n, i, a) = (3, 0, 0.7) at "
                   "tol=1e-06, max_terms=65: tail bound still above "
                   "tol=1e-12 after 65 terms\n")
    code, out, err = run(capsys, "verify", "triple", "--max-terms", "1")
    assert code == 3 and out == ""
    assert err == ("no convergence: case (e, f, h, x) = (0, 0, 0, 1/4) at "
                   "tol=1e-10, max_terms=1: tail bound still above "
                   "tol=1e-13 after 1 terms\n")


def test_verify_integrals_at_any_sufficient_budget_prints_the_same_bytes(
        capsys):
    _, want, _ = run(capsys, "verify", "integrals")
    assert run(capsys, "verify", "integrals", "--max-terms", "71") == (
        0, want, "")


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

    def recording(name, pairs):
        seen[name] = pairs = list(pairs)
        return real(name, pairs)

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
    # once for its three points, the integral suite the two characters of
    # each (n, i) once for its four moduli, and the sign bridge each of its
    # four characters once per (n, i): 478 binom_char calls under
    # `verify all`
    calls = []
    real = binom.binom_char

    def counting(m, k):
        calls.append((m, k))
        return real(m, k)

    for module in (binom, cli, integrals, transform):
        monkeypatch.setattr(module, "binom_char", counting)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and len(calls) == 478
    assert _checks(out)[("binom", "sign-bridge")]["cases"] == 49
    calls.clear()
    code, _, _ = run(capsys, "verify", "triple")
    assert code == 0 and len(calls) == 81
    assert calls == [(m, e) for e, f, h in cli.TRIPLE_EFH
                     for m in (h, e - h - 1, -f - 1)]
    calls.clear()
    # per (n, i), in loop order: the leads of the two closed forms, which
    # the ratio identity and its theta form share; the sign bridge follows
    code, _, _ = run(capsys, "verify", "integrals")
    assert code == 0 and len(calls) == 32 + 196
    assert calls == [(m, i) for n, i in cli.INTEGRAL_NI
                     for m in (n + i, -n - 1 + i)] + [
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


@pytest.mark.parametrize("entries,index,flipped", [
    # a residual entry below the survivor, which the identity restates
    ("_ode_entries", 3, [(0, 3), (2, 3)]),
    ("_ode_entries", 11, [(0, 10)]),             # the x**(N+1) entry
    ("_ode_entries", 10, [(1, 0), (2, 10)]),     # the survivor
])
def test_verify_ode_fails_exactly_the_check_of_a_perturbed_entry(
        capsys, monkeypatch, entries, index, flipped):
    # one integer entry off by one at the first grid point flips the
    # ode_checks verdicts that compare it, and fails each of their checks
    # once: the identity's entries are minus the residual's 0..N
    real = getattr(series, entries)
    calls = []

    def perturbed(*args):
        out = real(*args)
        if not calls:
            out[index] += 1
        calls.append(args)
        return out

    monkeypatch.setattr(series, entries, perturbed)
    verdicts = series.ode_checks(HypergeometricParams(*ODE_GRID[0]), 10)
    assert [(i, j) for i, cases in enumerate(verdicts)
            for j, ok in enumerate(cases) if not ok] == flipped
    calls.clear()
    code, out, _ = run(capsys, "verify", "ode")
    assert code == 1 and json.loads(out)["status"] == "fail"
    checks = _checks(out)
    assert [checks[("ode", name)]["failures"] for name in (
        "residual-zeros", "residual-tip", "operator-identity")] \
        == [int(any(i == f for f, _ in flipped)) for i in range(3)]


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


def test_verify_integrals_fails_on_a_faulty_nonnegative_character(
        capsys, monkeypatch):
    # binom(n, i) and binom(n+i, i) off by one for i >= 1: the suite's
    # closed forms and both identities take their characters from the
    # closed forms' character series, and the sign bridge, which forms all
    # four, must still fail the suite
    real = integrals.binom_char

    def faulty(m, k):
        return real(m, k) + (m >= 0 and k >= 1)

    monkeypatch.setattr(integrals, "binom_char", faulty)
    code, out, _ = run(capsys, "verify", "integrals")
    assert code == 1 and json.loads(out)["status"] == "fail"
    assert _checks(out)[("integrals", "sign-bridge")]["failures"] > 0


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


def test_within_fails_a_nan_residual():
    # a case passes only where residual <= allowance, as in eval and the
    # triple relations: a nan residual fails
    entry = cli._within("c", [(math.nan, 1.0), (0.5, 1.0)])
    assert (entry["cases"], entry["failures"], entry["status"]) \
        == (2, 1, "fail")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_within_reports_no_worst_residual_past_a_non_finite_one(bad, first):
    # max() skipped a nan after the first case and kept it in the first,
    # where the report then raised on it
    pairs = [(0.5, 1.0), (bad, 1.0)]
    entry = cli._within("c", pairs[::-1] if first else pairs)
    assert (entry["failures"], entry["worst_residual"], entry["status"]) \
        == (1, None, "fail")
    assert render_json(entry) == ('{"check":"c","cases":2,"failures":1,'
                                  '"status":"fail","worst_residual":null}')
    assert cli.render_csv(["check", "worst_residual", "status"], [entry]) \
        == "check,worst_residual,status\nc,,fail\n"


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


def test_bench_reports_a_point_that_does_not_converge(capsys):
    # a sum that spends its budget fails its row, not the command
    code, out, err = run(capsys, "bench", "--grid", "1,1,2;-2,3,1",
                         "-x", "0.5,0.99", "--max-terms", "50",
                         "--output", "csv")
    assert code == 0 and err == ""
    header, *rows = list(csv.reader(io.StringIO(out)))
    status = header.index("status")
    assert [row[:4] + row[status:] for row in rows] == [
        ["1", "1", "2", "0.5", "ok"],
        ["1", "1", "2", "0.98999999999999999", "no-convergence"],
        ["-2", "3", "1", "0.5", "ok"],
        ["-2", "3", "1", "0.98999999999999999", "ok"]]
    assert rows[1][4:status] == [""] * 5
    assert all(all(row[4:status]) for row in rows[::2] + rows[3:])


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_bench_rows_are_eval_at_each_point(capsys, mode):
    # both commands sum and choose through transform.evaluate, so each row
    # of the default grid holds eval's term counts, flags and choice
    code, out, _ = run(capsys, "bench", "--mode", mode)
    assert code == 0
    rows = json.loads(out)["rows"]
    points = [(*triple.split(","), x) for triple in cli.BENCH_PARAMS.split(";")
              for x in cli.BENCH_XS.split(",")]
    assert len(rows) == len(points)
    for row, (a, b, c, x) in zip(rows, points):
        code, out, _ = run(capsys, "eval", "--mode", mode, f"-a={a}",
                           f"-b={b}", f"-c={c}", f"-x={x}")
        assert row["status"] == "ok" and code in (0, 1)
        report = json.loads(out)
        outputs = report["outputs"]
        assert [row[k] for k in "abcx"] == [report["inputs"][k] for k in "abcx"]
        assert ((row["raw_terms"], row["raw_terminated"],
                 row["transformed_terms"], row["transformed_terminated"],
                 row["selected"])
                == (outputs["terms_used"], outputs["terminated"],
                    outputs["transformed_terms_used"],
                    outputs["transformed_terminated"],
                    outputs["selected_representation"]))


#: A bench row's status for each exit code of eval at the row's point.
ROW_STATUS = {0: "ok", 1: "ok", 2: "domain-error", 3: "no-convergence"}


@st.composite
def shared_points(draw):
    """a, b, c, x from the fuzz test's edge values, and the options eval and
    bench both take: either mode, a budget of 1-500 and a tol up to 1e300,
    whose allowance lies past the float range."""
    values = [draw(FUZZ_VALUES), draw(FUZZ_VALUES), draw(FUZZ_C),
              draw(FUZZ_POINTS)]
    options = [f"--mode={draw(st.sampled_from(['float', 'exact']))}",
               f"--max-terms={draw(st.integers(1, 500))}"]
    if draw(st.booleans()):
        options.append("--tol=" + draw(st.sampled_from(
            ["5e-324", "1e-300", "1e-12", "1e-3", "1e300"])))
    return values, options


@seed(3503)
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shared_points())
@example((["1/3", "2/7", "5/9", "99/100"], ["--mode=exact"]))  # 9236 digits
@example((["0.5", "-42", "-18.5", "-0.9"], ["--tol=1e300"]))  # the allowance
@example((["-5", "440.5", "0.5", "0.75"], []))  # the Euler product is inf
def test_a_bench_row_reads_the_exit_code_of_eval_at_its_point(capsys,
                                                              point):
    # both commands run one evaluation with one set of value rules, so a
    # row eval would refuse reads domain-error, not ok, and an ok row holds
    # five of eval's outputs
    (a, b, c, x), options = point
    code = main(["eval", f"-a={a}", f"-b={b}", f"-c={c}", f"-x={x}",
                 *options])
    out = capsys.readouterr()[0]
    assert main(["bench", f"--grid={a},{b},{c}", f"-x={x}", *options]) == 0
    row, = json.loads(capsys.readouterr()[0])["rows"]
    assert row["status"] == ROW_STATUS[code]
    if row["status"] == "ok":
        outputs = json.loads(out)["outputs"]
        assert ((row["raw_terms"], row["raw_terminated"],
                 row["transformed_terms"], row["transformed_terminated"],
                 row["selected"])
                == (outputs["terms_used"], outputs["terminated"],
                    outputs["transformed_terms_used"],
                    outputs["transformed_terminated"],
                    outputs["selected_representation"]))


def test_bench_reports_a_point_whose_sum_is_a_domain_error(capsys):
    # the exact raw sum's denominator passes the bit cap at term 1910: the
    # row reads domain-error and the command goes on, where it exited 2
    code, out, err = run(capsys, "bench", "--mode", "exact",
                         "--grid=-9402.123456789012,0.1234567890123,"
                         "0.9876543210987;3,1,2", "-x=1/2", "--output", "csv")
    assert code == 0 and err == ""
    header, *rows = list(csv.reader(io.StringIO(out)))
    status = header.index("status")
    assert [row[status] for row in rows] == ["domain-error", "ok"]
    assert rows[0][4:status] == [""] * 5


def test_bench_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "bench", "--grid", "1,2")
    assert code == 2 and "triple" in err


@pytest.mark.parametrize("argv,message", [
    (["bench", "-x="], "cannot parse number ''"),
    (["bench", "--grid="], "grid entry '' is not an a,b,c triple"),
    (["bench", "-x=0.5,,"], "cannot parse number ''"),
])
def test_bench_empty_list_exit_2(capsys, argv, message):
    # an empty list is an entry that does not parse, not the built-in one
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"domain error: {message}")


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
    monkeypatch.setattr(cli, "_read_literal", lambda name, words: None)
    full = _dispatch(capsys, monkeypatch, DISPATCH_ARGVS)
    for argv, got, want in zip(DISPATCH_ARGVS, direct, full):
        assert got == want, argv
    accepted = [argv for argv, (*_, parsed) in zip(DISPATCH_ARGVS, full)
                if parsed]
    assert len(accepted) == 9
    assert full[DISPATCH_ARGVS.index([*EVAL_ARGV, "--bogus"])][2].startswith(
        "usage: gausshyp [-h] {eval,verify,bench} ...\n")


def test_a_command_argv_skips_the_full_parser(capsys, monkeypatch):
    # the literal reader reads EVAL_ARGV; it declines the positional of
    # verify, which one parse_args call on the full parser reads
    parses = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parses.append(self)
                        or parse_args(self, *args))
    assert main(EVAL_ARGV) == 0
    assert parses == []
    assert main(["verify", "binom", "--output", "csv"]) == 0
    capsys.readouterr()
    assert parses == [build_parser()]


# ---- the literal reader ----
#
# A literal argv of a command without positionals is read from the option
# tables before any argparse call; what the reader declines takes the full
# parser.  Switching the reader off sends every argv to the full parser,
# the reference for both.

LITERAL_VALUES = st.sampled_from(
    ["-3", "-0.5", "-3/4", "--", "", "1e-6", "abc", "exact", "bogus",
     "0", "0.5", "1", "2", "3/2", "3,1,2;1,1,2"])
PLAIN_VALUES = ("0", "0.5", "1", "2", "3/2", "1e-6")


@st.composite
def command_argvs(draw):
    """An eval or bench argv: its required options mostly present with a
    plain number, more options with a value they take or one of
    LITERAL_VALUES, each spelled with '=' or as two words and now and then
    cut short, and in one argv of four -h, --bogus, a stray positional or
    a bare '--' put anywhere."""
    name = draw(st.sampled_from(["eval", "bench"]))
    options = cli._options(name)
    pairs = [(flag, draw(st.sampled_from(PLAIN_VALUES)))
             for flag, spec in options.items()
             if spec.get("required") and draw(st.integers(0, 7))]
    for flag in draw(st.lists(st.sampled_from(list(options)), max_size=4)):
        taken = st.sampled_from(options[flag].get("choices", PLAIN_VALUES))
        pairs.append((flag, draw(st.one_of(taken, taken, LITERAL_VALUES))))
    words = []
    for flag, text in draw(st.permutations(pairs)):
        if flag.startswith("--") and not draw(st.integers(0, 3)):
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        words += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    if not draw(st.integers(0, 3)):
        for extra in draw(st.lists(st.sampled_from(
                ["-h", "--bogus", "extra", "--"]), min_size=1, max_size=2)):
            words.insert(draw(st.integers(0, len(words))), extra)
    return [name, *words]


@seed(2028)
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_argvs())
def test_literal_reader_matches_the_full_parser(capsys, argv):
    with pytest.MonkeyPatch.context() as patch:
        literal = _dispatch(capsys, patch, [argv])
        patch.setattr(cli, "_read_literal", lambda name, words: None)
        full = _dispatch(capsys, patch, [argv])
    assert literal == full


@pytest.mark.parametrize("argv", [
    [*EVAL_ARGV, "--out", "csv"], [*EVAL_ARGV, "--max=5"],
    ["eval", "-a", "-3", "-b", "1", "-c", "2", "-x", "0.5"],
    [*EVAL_ARGV, "-h"], [*EVAL_ARGV, "--bogus"], [*EVAL_ARGV, "extra"],
    [*EVAL_ARGV, "--"], [*EVAL_ARGV, "--tol"], ["eval", "-a=1"],
    ["eval", "-a=--", "-b=1", "-c=2", "-x=0.5"], ["bench", "--grid=--"],
    [*EVAL_ARGV, "--tol=abc"], [*EVAL_ARGV, "--mode", "bogus"],
    ["verify", "all"], ["verify", "suite", "all"], ["verify", "--tol=1"]])
def test_the_literal_reader_declines_what_argparse_reads(argv):
    assert cli._read_literal(argv[0], argv[1:]) is None


def test_a_literal_argv_reaches_no_argparse_parse(capsys, monkeypatch):
    # the parses called from outside argparse, not those of a subparser
    # the full parser hands its words to
    calls = []
    for method in ("parse_known_args", "parse_args"):
        def spy(self, *args, _method=getattr(argparse.ArgumentParser, method),
                **kwargs):
            if sys._getframe(1).f_globals["__name__"] != "argparse":
                calls.append(self.prog)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, method, spy)
    for argv in (["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "0.5"],
                 EVAL_ARGV,
                 ["eval", "--mode", "exact", "-a=-2", "-b=3", "-c=1",
                  "-x=1/4"],
                 ["bench", "--grid", "3,1,2", "-x", "0.5"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    # the suite of verify is a positional, and a word after -x that starts
    # with '-' may be an option: the full parser reads both
    assert main(["verify", "all"]) == 0
    assert calls == ["gausshyp"]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as rejected:
        main(["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "-3/4"])
    assert rejected.value.code == 2
    usage = next(case["stdout"] for case in HELP
                 if case["argv"] == ["eval", "--help"]).split("\n\n")[0]
    assert capsys.readouterr().err == (
        f"{usage}\ngausshyp eval: error: argument -x: expected one argument\n")


@pytest.mark.parametrize("argv", [
    [*EVAL_ARGV, "--tol=--"], [*EVAL_ARGV, "--mode=--"],
    [*EVAL_ARGV, "--outpu=--"], [*EVAL_ARGV, "--max-terms=--"],
    ["eval", "-a=--", "-b=1", "-c=2", "-x=0.5"],
    ["bench", "--grid=--"], ["bench", "-x=--"],
    ["verify", "binom", "--tol=--"]])
def test_an_option_valued_double_dash_exits_2(capsys, argv):
    # argparse before Python 3.13 stores the value of "OPT=--" as [], which
    # raised in the command or printed a report of it
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


# ---- help bytes ----
#
# The --help stdout of the parser and each command, pinned as argparse
# printed it when each option was declared by its own add_argument call
# and the common ones came through parents=[common].

HELP = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_help.json").read_text())


@pytest.mark.parametrize("case", HELP, ids=[" ".join(c["argv"]) for c in HELP])
def test_help_bytes(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit) as helped:
        main(case["argv"])
    assert helped.value.code == 0
    assert capsys.readouterr() == (case["stdout"], "")


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


# ---- one path per verify check ----

def test_cli_imports_no_private_library_name():
    # each suite runs the public entry that tests, demos and users call, so
    # the CLI brings in no _-prefixed name from the package
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names]
    assert "integral_checks" in names
    assert [name for name in names if name.startswith("_")] == []


def test_verify_ode_leaves_its_comparisons_to_the_library():
    # which entries must vanish and which must equal the survivor is
    # decided in series.ode_checks alone
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    suite, = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "_verify_ode"]
    assert not [node for node in ast.walk(suite)
                if isinstance(node, ast.Compare)]


def test_cli_leaves_the_evaluation_to_the_library():
    # eval and bench sum, choose, check and compare through
    # transform.evaluate and transform.agreement, so the CLI binds none of
    # the calls they make and forms no logarithm of its own
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"evaluate", "agreement"} <= names
    assert not names & {"eval_series", "eval_transformed",
                        "select_representation", "is_exact",
                        "check_finite", "check_printable"}
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "log"]
