"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`
or in captured output on failure) and then asserts, so the suite doubles as
a checklist.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import product

from gausshyp import (HypergeometricParams, IntegralSpec, TripleParams,
                      binom_char, check_closed_form_I, check_closed_form_II,
                      coefficients, eval_series, eval_transformed,
                      ode_residual, quad_I, quad_II, ratio_identity_sides,
                      reflect_char, substitution_residual,
                      theta_identity_sides, verify_sign_bridge,
                      verify_triple_relations)
from gausshyp.cli import RunConfig, build_parser, cmd_bench
from oracles import brute_series

P = HypergeometricParams


def _report(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} - {description}")
    assert not failures, (
        f"criterion {num}: {len(failures)} failures, first: {failures[:3]}")


def test_criterion_1_transformation_identity():
    rng = random.Random(20260814)
    start = time.monotonic()
    failures = []
    count = 0
    while count < 200:
        a = rng.uniform(-5, 5)
        b = rng.uniform(-5, 5)
        c = rng.uniform(-5, 5)
        near = round(c)
        if near <= 0 and abs(c - near) < 1e-3:
            continue
        count += 1
        params = P(a, b, c)
        for j in range(9):
            x = 0.1 * j
            raw = eval_series(params, x, tol=1e-12, max_terms=20000)
            tr = eval_transformed(params, x, tol=1e-12, max_terms=20000)
            err = abs(raw.value - tr.value)
            if err > 1e-10 * (1 + abs(raw.value)):
                failures.append((a, b, c, x, err))
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _report(1, "raw and transformed evaluations agree to 1e-10 relative "
               "on 200 random parameter triples across x in {0,...,0.8} "
               f"in {elapsed:.2f}s", failures)


def test_criterion_2_terminating_exactness():
    failures = []
    xs = (F(1, 4), F(1, 2), F(3, 4))
    for a in range(-6, 0):
        for b in range(1, 5):
            for c in range(1, 5):
                params = P(a, b, c)
                for x in xs:
                    raw = eval_series(params, x)
                    oracle = brute_series(a, b, c, x, -a)
                    if not (isinstance(raw.value, F) and raw.value == oracle):
                        failures.append(("raw", a, b, c, x))
                    beta = c - b
                    if beta <= 0:   # transformed side also terminates
                        tr = eval_transformed(params, x)
                        z = brute_series(c - a, beta, c, x, -beta)
                        mirrored = z * (1 - x) ** (c - a - b)
                        if not (tr.value == mirrored and tr.value == oracle):
                            failures.append(("mirrored", a, b, c, x))
    _report(2, "terminating evaluations match the brute-force rational "
               "oracle bit for bit, including the mirrored transformed side",
            failures)


def test_criterion_3_ode_residual_structure():
    failures = []
    grid = [(a, b, c) for a in range(-6, 0) for b in range(1, 5)
            for c in range(1, 5)]
    grid += [(1, 1, 2), (F(1, 2), F(1, 2), F(3, 2))]
    for a, b, c in grid:
        params = P(a, b, c)
        r = ode_residual(params, 10).residual_coefficients
        c10 = coefficients(params, 10)[10]
        if any(r[j] != 0 for j in range(10)):
            failures.append(("zeros", a, b, c))
        if r[10] != -(F(a) + 10) * (F(b) + 10) * c10:
            failures.append(("tip", a, b, c))
        if r[11] != 0:
            failures.append(("past-tip", a, b, c))
    _report(3, "degree-10 truncation residual vanishes exactly through "
               "x**9 and the x**10 coefficient is -(a+10)(b+10)c_10",
            failures)


def test_criterion_4_substitution_residual():
    rng = random.Random(424242)
    failures = []
    for sample in range(50):
        while True:
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            c = rng.uniform(-3, 3)
            near = round(c)
            if not (near <= 0 and abs(c - near) < 1e-3):
                break
        x = rng.uniform(0.05, 0.85)
        n = (c - a - b) if sample % 5 == 0 else rng.uniform(-2.5, 2.5)
        residual = substitution_residual(P(a, b, c), n, x)
        if abs(residual) > 1e-8:
            failures.append((a, b, c, n, x, residual))
    _report(4, "transformed-equation residual stays below 1e-8 for 50 "
               "sampled (a,b,c,n,x), including n = c-a-b", failures)


def test_criterion_5_integral_closed_forms():
    start = time.monotonic()
    failures = []
    for (n, i), a in product(product(range(4), range(4)), (0.1, 0.3, 0.5, 0.7)):
        spec = IntegralSpec(a, n, i)
        r1 = check_closed_form_I(spec)
        if abs(r1.quadrature - r1.closed_form) > 1e-8:
            failures.append(("I", a, n, i))
        r2 = check_closed_form_II(spec)
        if abs(r2.quadrature - r2.closed_form) > 1e-8:
            failures.append(("II", a, n, i))
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(5, "quadrature matches both closed forms to 1e-8 over "
               f"(n,i) in 0..3 squared, a in 0.1..0.7, in {elapsed:.2f}s",
            failures)


def test_criterion_6_ratio_identities():
    failures = []
    for (n, i), a in product(product(range(4), range(4)), (0.1, 0.3, 0.5, 0.7)):
        spec = IntegralSpec(a, n, i)
        q_I, q_II = quad_I(spec), quad_II(spec)
        lhs, rhs = ratio_identity_sides(spec, q_I, q_II)
        if abs(lhs - rhs) > 1e-8 * (1 + abs(lhs)):
            failures.append(("ratio", a, n, i))
        lhs, rhs = theta_identity_sides(spec, q_I, q_II)
        if abs(lhs - rhs) > 1e-8 * (1 + abs(lhs)):
            failures.append(("theta", a, n, i))
    _report(6, "both cross-family ratio identities hold to 1e-8 relative "
               "on the full grid", failures)


def test_criterion_7_binomial_exactness():
    failures = []
    ms = list(range(-10, 11)) + [F(1, 2), F(-1, 2), F(3, 2), F(-3, 2)]
    for m in ms:
        for k in range(13):
            if binom_char(-m, k) != reflect_char(m, k):
                failures.append(("reflection", m, k))
    for n, i in product(range(7), range(7)):
        if not verify_sign_bridge(n, i):
            failures.append(("bridge", n, i))
    _report(7, "reflection identity exact for integer and half-integer "
               "upper index; sign-bridge proportion exact on 0..6 squared",
            failures)


def test_criterion_8_triple_relations():
    failures = []
    for e, f, h in product(range(3), repeat=3):
        for x in (F(0), F(1, 4), F(1, 2)):
            out = verify_triple_relations(TripleParams(e, f, h), x, tol=1e-10)
            if not out.passed:
                failures.append((e, f, h, x, out.residuals))
    _report(8, "all applicable three-series relations hold to 1e-10 on "
               "(e,f,h) in 0..2 cubed, x in {0, 1/4, 1/2}", failures)


def test_criterion_9_bench_selector():
    args = build_parser().parse_args(["bench"])
    report, _, code = cmd_bench(args, RunConfig())
    failures = []
    if code != 0:
        failures.append(("exit", code))
    decisive = 0
    for row in report["rows"]:
        raw_done, tr_done = row["raw_terminated"], row["transformed_terminated"]
        if raw_done == tr_done:
            continue
        decisive += 1
        winner = "raw" if raw_done else "transformed"
        lo, hi = ((row["raw_terms"], row["transformed_terms"])
                  if raw_done else
                  (row["transformed_terms"], row["raw_terms"]))
        if row["selected"] != winner or not lo < hi:
            failures.append((row["a"], row["b"], row["c"], row["x"],
                             row["selected"], lo, hi))
    if decisive == 0:
        failures.append(("no decisive rows in default grid",))
    _report(9, "bench selects the terminating representation with strictly "
               f"fewer terms in all {decisive} decisive rows", failures)
