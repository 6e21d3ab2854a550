"""Tests for the transformation, parameter maps, and the three-series sums."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest

from gausshyp import (DomainError, HypergeometricParams, Representation,
                      TripleParams, binom_char, character_series,
                      eval_series, eval_transformed,
                      euler_transform_params, params_from_triple,
                      select_representation, termination_index, triple_params,
                      triple_sums, verify_triple_relations)
from gausshyp import series, transform
from gausshyp.transform import _relation, evaluate, triple_relations
from oracles import brute_char_sum, brute_series, scalar_triple_relations

P = HypergeometricParams


# ---- parameter maps ----

def test_transform_params_examples():
    assert euler_transform_params(P(1, 2, 4)) == (P(3, 2, 4), 1)
    assert (euler_transform_params(P(F(1, 2), F(1, 2), F(3, 2)))
            == (P(1, 1, F(3, 2)), F(1, 2)))


def test_transform_is_involution():
    rng = random.Random(7)
    for _ in range(25):
        params = P(F(rng.randint(-40, 40), rng.randint(1, 8)),
                   F(rng.randint(-40, 40), rng.randint(1, 8)),
                   F(rng.randint(1, 40), rng.randint(1, 8)))
        once, exponent = euler_transform_params(params)
        twice, back = euler_transform_params(once)
        assert twice == params
        assert back == -exponent


def test_triple_params_roundtrip():
    params = P(-1, -1, 2)
    tp = triple_params(params)
    assert (tp.e, tp.f, tp.h) == (1, 1, 2)
    assert params_from_triple(tp) == params


def test_triple_params_need_integer_c():
    with pytest.raises(DomainError):
        triple_params(P(1, 1, F(3, 2)))
    with pytest.raises(DomainError):
        TripleParams(-1, 1, 1)
    with pytest.raises(DomainError):
        TripleParams(F(1, 2), 1, 1)


def test_termination_trades_sides():
    # a nonpositive integer terminates raw; c-a nonpositive terminates z
    zp, _ = euler_transform_params(P(3, 1, 2))
    assert termination_index(P(3, 1, 2)) is None
    assert termination_index(zp) == 1
    zp, _ = euler_transform_params(P(-2, 3, F(3, 2)))
    assert termination_index(zp) is None


# ---- transformed evaluation ----

def test_eval_transformed_polynomializes():
    out = eval_transformed(P(3, 1, 2), F(1, 2))
    assert out.value == 3 and out.terminated and out.terms_used == 2


def test_eval_transformed_at_zero():
    assert eval_transformed(P(1, 1, 2), F(0)).value == 1


def test_eval_transformed_non_integer_exponent():
    out = eval_transformed(P(F(1, 2), F(1, 2), F(3, 2)), F(1, 4))
    raw = eval_series(P(F(1, 2), F(1, 2), F(3, 2)), F(1, 4), tol=1e-14)
    assert isinstance(out.value, float)  # (3/4)**(1/2) forces doubles
    assert abs(out.value - float(raw.value)) <= 1e-12 * (1 + abs(out.value))


def test_raw_and_transformed_agree_float():
    rng = random.Random(11)
    for _ in range(30):
        a = rng.uniform(-4, 4)
        b = rng.uniform(-4, 4)
        c = rng.uniform(0.2, 4)
        x = rng.uniform(0, 0.8)
        raw = eval_series(P(a, b, c), x, tol=1e-13, max_terms=50000)
        tr = eval_transformed(P(a, b, c), x, tol=1e-13, max_terms=50000)
        assert abs(raw.value - tr.value) <= 1e-10 * (1 + abs(raw.value))


def test_transformed_matches_product_oracle():
    # terminating transformed side, exact: z summed by brute force
    params = P(-2, 3, 1)   # alpha = 3, beta = -2, exponent = 0
    tr = eval_transformed(params, F(1, 3))
    z = brute_series(3, -2, 1, F(1, 3), 2)
    assert tr.value == z * (1 - F(1, 3)) ** 0
    params = P(4, 3, 2)    # alpha = -2, beta = -1, exponent = -5
    tr = eval_transformed(params, F(1, 5))
    z = brute_series(-2, -1, 2, F(1, 5), 2)
    assert tr.value == z * (1 - F(1, 5)) ** -5


def test_eval_transformed_exact_prefactor_times_an_overflowed_float_sum():
    # the exponent -1202.0 is an integer, so the prefactor (199/100)**-1202
    # stays exact, while the terminating float sum overflows to inf, which
    # the float loop refuses at its last term
    with pytest.raises(DomainError, match="^the polynomial's sum is inf, "
                       "outside the float range$"):
        eval_transformed(P(1200.5, 3.0, 1.5), F(-99, 100))


def test_eval_transformed_refuses_a_product_past_the_float_range():
    # a finite prefactor times a finite sum overflows: the product is
    # refused, where it came back as a sum of +-inf with a small tail bound
    for params in (P(-5.0, 440.5, 0.5), P(F(1937326317771813, 4398046511104),
                                          F(-37, 2), F(319, 8))):
        with pytest.raises(DomainError, match="^scaled series value must be "
                           "finite, inside the float range$"):
            eval_transformed(params, 0.75)
    # s(1, 1; 2; 3/4) = -log(1/4) / (3/4) ~ 1.85, times 1e308
    with pytest.raises(DomainError, match="^scaled series value"):
        series.scaled_sum(1e308, P(1.0, 1.0, 2.0), 0.75, 1e-12, 10000)


# ---- representation choice ----

def select(params, x):
    """The selector's choice at (params, x), with the two sums it compared."""
    raw, tr = eval_series(params, x), eval_transformed(params, x)
    return select_representation(raw, tr), raw, tr


def test_select_transformed_only_terminating():
    choice, raw, tr = select(P(3, 1, 2), 0.5)
    assert choice.representation is Representation.TRANSFORMED
    assert tr.terms_used == 2 and not raw.terminated
    assert "terminates after 2 terms" in choice.reason


def test_select_raw_only_terminating():
    choice, raw, tr = select(P(-2, 3, F(3, 2)), 0.5)
    assert choice.representation is Representation.RAW
    assert raw.terms_used == 3 and not tr.terminated
    assert "terminates after 3 terms" in choice.reason


def test_select_tie_goes_to_raw():
    both, raw, tr = select(P(-2, 3, 1), 0.5)         # both terminate: 3 and 3
    assert (raw.terms_used, tr.terms_used) == (3, 3)
    assert both.representation is Representation.RAW
    neither, raw, tr = select(P(1, 1, 2), 0.5)       # neither: 36 and 36
    assert (raw.terms_used, tr.terms_used) == (36, 36)
    assert neither.representation is Representation.RAW
    assert "tie" in neither.reason


def test_select_never_takes_the_costlier_side():
    rng = random.Random(20120)
    for _ in range(300):
        params = P(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 5))
        x = rng.choice((-0.9, -0.5, 0.2, 0.5, 0.9))
        choice, raw, tr = select(params, x)
        chosen, other = ((tr, raw)
                         if choice.representation is Representation.TRANSFORMED
                         else (raw, tr))
        if chosen.terminated and not other.terminated:
            continue
        assert chosen.terms_used <= other.terms_used, (params, x, choice)


def test_evaluate_is_the_three_separate_calls():
    # raw sum, Euler sum, then the choice of the two, at the given tol and
    # budget, in both modes
    cases = [(P(3, 1, 2), 0.5), (P(-2, 3, F(3, 2)), F(1, 3)),
             (P(F(1, 2), F(1, 2), F(3, 2)), F(-1, 4)),
             (P(0.3, 0.7, 1.5), -0.6), (P(F(28, 9), -1, F(-5, 4)), F(1, 50))]
    for (params, x), tol in product(cases, (1e-8, 1e-12, 1e-30)):
        raw = eval_series(params, x, tol, 5000)
        tr = eval_transformed(params, x, tol, 5000)
        assert evaluate(params, x, tol, 5000) == (
            raw, tr, select_representation(raw, tr))
    # the defaults are those of eval_series and eval_transformed
    raw, tr = eval_series(P(3, 1, 2), 0.9), eval_transformed(P(3, 1, 2), 0.9)
    assert evaluate(P(3, 1, 2), 0.9) == (raw, tr,
                                         select_representation(raw, tr))


# ---- character series ----

def test_character_series_terminating_exact():
    # binom(2,k) binom(3,1+k) x**k = 3 + 6x + x**2
    out = character_series(2, 3, 1, F(1, 2))
    assert out.value == 3 + 6 * F(1, 2) + F(1, 4)
    assert out.terminated
    assert out.value == brute_char_sum(2, 3, 1, F(1, 2), 4)


def test_character_series_zero_leading_term():
    out = character_series(5, 2, 4, F(1, 3))   # binom(2, 4+k) = 0 for all k
    assert out.value == 0 and out.terminated and out.terms_used == 1


def test_character_series_infinite_vs_brute():
    out = character_series(-3, -2, 1, F(1, 4), tol=1e-15)
    ref = brute_char_sum(-3, -2, 1, F(1, 4), 60)
    assert abs(float(out.value - ref)) <= 2e-15
    assert not out.terminated


def test_character_series_below_the_least_double_over_its_lead():
    # tol / |lead| underflows to 0 past a lead of 1; the series is then
    # summed to the least positive double, whatever the lead
    for lead in (1.0, 1.5, 2.5, 6.0, 1e5 / 3, 2.0 ** 52 + 1, 1e300):
        assert max(5e-324, lead * 5e-324) / lead == 5e-324
    for m1, m2, shift, x in ((-3, -2, 1, F(1, 4)), (F(1, 2), F(81, 2), 20, F(1, 2)),
                             (0.5, 6.5, 3, -0.25)):
        lead = abs(float(binom_char(m2, shift)))
        out = character_series(m1, m2, shift, x, 5e-324)
        assert 1.0 < lead and out.tail_bound <= lead * 5e-324
        assert not out.terminated


def _count_checks(monkeypatch) -> tuple[list, list]:
    """The points check_eval_point sees and the leads check_finite sees as
    a prefactor, in series and transform, from here on."""
    points, prefactors = [], []
    real_point, real_finite = series.check_eval_point, series.check_finite

    def point(value):
        points.append(value)
        return real_point(value)

    def finite(name, value):
        if name == "prefactor":
            prefactors.append(value)
        return real_finite(name, value)

    for module in (series, transform):
        monkeypatch.setattr(module, "check_eval_point", point)
        monkeypatch.setattr(module, "check_finite", finite)
    return points, prefactors


@pytest.mark.parametrize("m1,m2,shift,x", [
    (-3, -2, 1, F(1, 4)),   # an infinite exact sum
    (2, 3, 1, F(1, 2)),     # a terminating one
])
def test_character_series_checks_its_lead_and_x_once(monkeypatch, m1, m2,
                                                     shift, x):
    # the public entry checks x, the sum its lead; an exact sum makes
    # neither check again below them
    points, prefactors = _count_checks(monkeypatch)
    character_series(m1, m2, shift, x)
    assert points == [x]
    assert prefactors == [binom_char(m2, shift)]


def test_triple_relations_check_each_point_and_lead_once(monkeypatch):
    points, prefactors = _count_checks(monkeypatch)
    xs = (F(0), F(1, 4), F(1, 2))
    list(triple_relations(TripleParams(1, 2, 1), xs, 1e-10, 10000))
    assert points == list(xs)
    assert len(prefactors) == 3 * len(xs)  # one per nonzero sum at each x


def test_triple_relations_check_the_series_budget_once(monkeypatch):
    calls = []
    monkeypatch.setattr(transform, "check_budget",
                        lambda *budget: calls.append(budget))
    xs = (F(0), F(1, 4), F(1, 2))
    list(triple_relations(TripleParams(1, 2, 1), xs, 1e-10, 10000))
    assert calls == [(1e-10 / 1000.0, 10000)]
    # neither argument depends on x, so the check runs before any point:
    # with none, at the first next()
    monkeypatch.undo()
    with pytest.raises(DomainError, match="max_terms"):
        next(triple_relations(TripleParams(1, 2, 1), (), 1e-10, 0))


def test_character_series_validation():
    with pytest.raises(DomainError):
        character_series(1, 1, -1, F(1, 2))
    with pytest.raises(DomainError):
        character_series(1, 1, 1, 2)
    # a non-finite m1 is rejected also where binom(m2, shift+k) = 0 for
    # every k would make the sum vanish
    for m1 in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match="finite"):
            character_series(m1, 3, 10, 0.5)


def test_character_series_lead_past_the_float_range():
    # binom(10**300, 2) is about 5e599
    with pytest.raises(DomainError, match="prefactor"):
        character_series(F(1, 2), 10**300, 2, F(1, 2))


def test_character_series_exact_lead_past_the_float_range_in_float_mode():
    # a float m1 or x makes the sum a float; binom(2000, 1000) is about
    # 2e600 and must be rejected before it is converted
    with pytest.raises(DomainError, match="prefactor"):
        character_series(0.5, 2000, 1000, 0.5)
    for x in (0.5, F(1, 2)):  # a float m1 alone makes the sum a float
        zero = character_series(0.5, 3, 10, x)
        assert zero.value == 0.0 and isinstance(zero.value, float)


# ---- tail bounds of prefactor x series ----

def _rational(rng):
    return F(rng.randint(-45, 45), rng.randint(1, 9))


def _point(rng):
    return F(rng.choice((-9, -7, -5, -3, 3, 5, 7, 9)), 10)


def _check_scaled_bound(evaluate, tol):
    # tol applies to the product, and the tail bound covers the distance to
    # the same sum taken a million times tighter, up to that sum's own bound
    out, ref = evaluate(tol), evaluate(tol * 1e-6)
    assert type(out.value) is F
    assert out.tail_bound <= tol * (1 + 1e-12)
    err = abs(float(out.value - ref.value))
    assert err <= out.tail_bound * (1 + 1e-9) + ref.tail_bound


def test_transformed_tail_bound_scales_with_the_prefactor():
    rng = random.Random(2019)
    for _ in range(400):
        a, b = _rational(rng), _rational(rng)
        c = a + b + rng.randint(-8, 8)  # |(1-x)**(c-a-b)| from 1e-8 to 1e8
        if c.denominator == 1 and c <= 0:
            continue
        x, tol = _point(rng), 10.0 ** rng.uniform(-14, -6)
        _check_scaled_bound(lambda t: eval_transformed(P(a, b, c), x, t), tol)


def test_character_tail_bound_scales_with_the_leading_character():
    rng = random.Random(2019)
    for _ in range(400):
        m1, m2, shift = _rational(rng), _rational(rng), rng.randint(0, 12)
        x, tol = _point(rng), 10.0 ** rng.uniform(-14, -6)
        _check_scaled_bound(
            lambda t: character_series(m1, m2, shift, x, t), tol)


# ---- three proportional sums ----

def test_triple_sums_at_zero():
    s = triple_sums(TripleParams(1, 1, 2), F(0))
    assert (s.a_sum, s.b_sum, s.c_sum) == (2, -2, -2)
    s0 = triple_sums(TripleParams(0, 1, 2), F(0))
    assert s0.a_sum == 1   # shift 0 makes the leading term binom(h, 0) = 1


def test_triple_sums_vs_brute():
    tp = TripleParams(1, 1, 2)
    x = F(1, 4)
    s = triple_sums(tp, x, tol=1e-15)
    assert s.a_sum == brute_char_sum(1, 2, 1, x, 4)
    assert abs(float(s.b_sum - brute_char_sum(-3, -2, 1, x, 60))) <= 1e-14
    assert abs(float(s.c_sum - brute_char_sum(-3, -2, 1, x, 60))) <= 1e-14


def test_a_sum_is_scaled_hypergeometric():
    # the first sum equals binom(h, e) times the series with (-f, e-h; e+1)
    for (e, f, h) in [(1, 1, 2), (2, 1, 1), (0, 2, 2), (1, 2, 0)]:
        for x in (F(0), F(1, 4), F(1, 2)):
            s = triple_sums(TripleParams(e, f, h), x, tol=1e-15)
            base = eval_series(P(-f, e - h, e + 1), x, tol=1e-15)
            assert abs(float(s.a_sum - binom_char(h, e) * base.value)) <= 1e-13


def test_triple_relations_pass():
    for (e, f, h) in [(1, 1, 2), (0, 0, 0), (2, 2, 2), (1, 0, 2)]:
        for x in (F(0), F(1, 4), F(1, 2)):
            out = verify_triple_relations(TripleParams(e, f, h), x)
            assert out.passed, (e, f, h, x, out.residuals)


def test_triple_relations_not_applicable():
    # binom(h, e) = 0 when h < e are both nonnegative integers
    out = verify_triple_relations(TripleParams(2, 1, 0), F(1, 4))
    assert out.residuals[0] is None and out.residuals[1] is None
    assert out.residuals[2] is not None
    assert out.passed


def test_triple_relations_exact_when_all_terminate():
    # e=0 turns relation 3 into an identity between two terminating sums
    out = verify_triple_relations(TripleParams(0, 2, 1), F(1, 2))
    assert out.passed


# ---- relation arithmetic: leads formed once against Scalar products ----

def _same(got, want):
    # the same type and the same bits: repr of a float round-trips
    return type(got) is type(want) and repr(got) == repr(want)


def _matches_scalar_products(tp, x):
    out = verify_triple_relations(tp, x)
    residuals, allowances, passed, sums = scalar_triple_relations(tp, x)
    assert out.sums == sums
    assert out.passed == passed
    for got, want in zip(out.allowances, allowances):
        assert _same(got, want), (tp, x)
    for got, want in zip(out.residuals, residuals):
        assert _same(got, want), (tp, x)
    return out


@pytest.mark.parametrize("x", [F(0), F(1, 4), F(-1, 3), F(1, 2)])
def test_triple_relations_match_the_scalar_products(x):
    # integer f + h + 1 keeps p exact and all seven operands with it, so
    # the residuals are Fractions; a rational one makes p a double while
    # relation 3 stays exact
    mixed = 0
    for e, f, h in product(range(4), (F(-5, 2), -1, 0, F(7, 3)),
                           (F(-5, 2), 2, F(7, 3))):
        out = _matches_scalar_products(TripleParams(e, f, h), x)
        assert out.passed
        first = out.residuals[:2] if (f + h).denominator == 1 else ()
        assert all(r is None or type(r) is F
                   for r in (*first, out.residuals[2]))
        if not first and out.residuals[0] is not None:
            assert type(out.residuals[0]) is float
            mixed += 1
    assert mixed > 0


@pytest.mark.parametrize("x", [0.0, 0.25, -1 / 3, 0.5])
def test_triple_relations_match_the_scalar_products_in_floats(x):
    for e, f, h in product(range(4), (-2.5, -1.0, 0.0, 7 / 3),
                           (-2.5, 2.0, 7 / 3)):
        out = _matches_scalar_products(TripleParams(e, f, h), x)
        assert all(r is None or type(r) is float for r in out.residuals)


def test_triple_relations_exact_lead_times_p_before_a_float_sum():
    # a float f with f + h + 1 an integer keeps [h over e] and p exact
    # while B and C are doubles: [h over e] p is formed exactly first, then
    # meets B, where rounding each factor first would move bits
    out = _matches_scalar_products(TripleParams(1, 2.0, 1), F(1, 4))
    assert type(out.sums.b_sum) is float
    assert all(type(r) is float for r in out.residuals)
    for e, (f, h), x in product(range(4), ((2.0, 1), (-2.5, F(1, 2)),
                                           (0.5, F(-3, 2)), (1.5, F(5, 2))),
                                (F(1, 3), F(-1, 3), F(3, 7))):
        _matches_scalar_products(TripleParams(e, f, h), x)


@pytest.mark.parametrize("tp, x, message", [
    # [e-h-1 over e] A ~ 1.8e358
    (TripleParams(300, 0, 600), F(1, 4), "relation 1"),
    (TripleParams(300, 0, 600), F(0), "relation 1"),
    # both sides of relation 1 inf
    (TripleParams(300, 0.0, 600.0), 0.25, "relation 1"),
    # exact [h over e] p ~ 4e475, but first the float series of B cancels
    # to ~8.9e283, which its lead ~2.7e299 takes past the range
    (TripleParams(500, 0.0, 1000), F(-1, 2), "scaled series value"),
    # the ids that (tp, x) alone gave, kept when the message joined them
], ids=["tp0-x0", "tp1-x1", "tp2-0.25", "tp3-x3"])
def test_triple_relation_side_past_the_float_range(tp, x, message):
    # every lead lies inside the float range, one side or one sum does not
    with pytest.raises(DomainError, match=message):
        verify_triple_relations(tp, x)


def test_relation_checks_both_sides_against_the_float_range():
    # the sides of a relation agree, so in a triple the left one is past
    # the range whenever the right one is; each is checked alone here
    assert _relation(3, F(1, 3), F(2, 3), 1e-10) == (F(1, 3),
                                                     1e-10 * (1 + 1 / 3))
    for sides in ((F(10 ** 309), F(1)), (F(1), F(-10 ** 309)),
                  (float("inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(DomainError, match="relation 3"):
            _relation(3, *sides, 1e-10)
