"""Seeded inputs for the three workloads.

Each workload is a pool of CLI argument lists.  The pool is built from the
seed alone: the same seed gives the same argv lists in the same order.  The
closed loop in ``run.py`` cycles through the pool.

Parameters come from a randomly shifted low-discrepancy lattice inside
fixed cells (parameter range x point x kind), so every seed gives nearly the
same mix of cheap and costly points and only the values inside each cell
move.  That keeps the latency percentiles steady from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("float-eval", "exact-eval", "verify-all")

#: Cells of the timed float workload, all in the acceptance range
#: |a|, |b| <= 5, c in [0.5, 5]: (x, generic points, points whose raw side
#: terminates, points whose transformed side terminates).  0.98 is the slow
#: end of the term loop: up to about 4900 raw terms in this range, half the
#: default budget, where at 0.99 the corner a, b -> 5, c -> 0.5 runs out of
#: it.  Every point here passes its check today; inputs that fail are in
#: the defect probe instead (see probe_points).
FLOAT_CELLS = ((0.2, 24, 4, 4), (-0.2, 24, 4, 4), (-0.4, 24, 4, 4),
               (0.5, 24, 4, 4), (0.9, 24, 4, 4), (0.98, 32, 0, 0))
FLOAT_HALF, FLOAT_C_HI = 5.0, 5.0

#: The defect probe: the full float mix, on which about a fifth of the
#: calls fail today (ROADMAP aim 3).  (label, half-width of a and b, upper
#: end of c) for the narrow and wide ranges; c always starts at 0.5.
PROBE_XS = (0.2, -0.2, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99)
PROBE_RANGES = (("narrow", 5.0, 5.0), ("wide", 30.0, 30.0))
#: Per (range, x) cell of the probe: generic, raw- and transformed-terminating.
PROBE_CELL = (24, 4, 4)

#: (x, count) of the non-terminating exact points.  With the polynomials
#: below, the counts place the median call inside the +-3/4 group and the
#: 90th percentile inside the polynomials, away from the jump in cost
#: between two groups, where the quantile would flip from seed to seed.
EXACT_SERIES = ((Fraction(1, 2), 24), (Fraction(-1, 2), 24),
                (Fraction(3, 4), 16), (Fraction(-3, 4), 16),
                (Fraction(9, 10), 8), (Fraction(-9, 10), 8))
EXACT_POLY_XS = (Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4))
#: Degrees of the terminating polynomials, the same at every x and seed:
#: their cost grows steeply with the degree, so drawn degrees made the
#: cost of the pool move from seed to seed.
EXACT_POLY_DEGREES = (50, 300, 550, 800)
EXACT_DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9)

VERIFY_ARGV = ("verify", "all")


@dataclass(frozen=True)
class Point:
    """One operation: the argv the CLI receives plus the values behind it.

    ``a``, ``b``, ``c``, ``x`` are the numbers the CLI parses from the argv
    (floats for the float workload, Fractions for the exact one); None for
    ``verify all``.  ``kind`` names the cell the point was drawn from.
    """

    argv: tuple[str, ...]
    kind: str
    a: float | Fraction | None = None
    b: float | Fraction | None = None
    c: float | Fraction | None = None
    x: float | Fraction | None = None


def _flag(name: str, value) -> str:
    # "-a=-3/4": argparse would read a separate "-3/4" as an option
    return f"-{name}={value}"


def _eval_argv(a, b, c, x, exact: bool) -> tuple[str, ...]:
    mode = ("--mode", "exact") if exact else ()
    return ("eval", *mode, _flag("a", a), _flag("b", b), _flag("c", c),
            _flag("x", x))


def _lattice(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points in [0, 1)**dims: the additive sequence i * alpha mod 1 with
    Roberts' generalised golden ratio for alpha, shifted by a random vector.

    Any n consecutive points cover the cube evenly, so the cost mix of a
    cell barely moves from seed to seed while every value does.
    """
    g = 2.0
    for _ in range(50):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = [g ** -(j + 1) for j in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    return [[(shift[j] + (i + 1) * alpha[j]) % 1.0 for j in range(dims)]
            for i in range(n)]


def _scale(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _pick(u: float, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _dec(v: float) -> str:
    return f"{v:.4f}"


def _float_cell(rng: random.Random, label: str, half: float, c_hi: float,
                x: float, n_gen: int, n_raw: int, n_trans: int) -> list[Point]:
    cell = [(_dec(_scale(ua, -half, half)), _dec(_scale(ub, -half, half)),
             _dec(_scale(uc, 0.5, c_hi)), "generic")
            for ua, ub, uc in _lattice(rng, n_gen, 3)]
    for i, (um, uo, uc) in enumerate(_lattice(rng, n_raw, 3)):
        # a nonpositive integer upper parameter: the raw side terminates
        m = str(-_pick(um, range(int(half) + 1)))
        other = _dec(_scale(uo, -half, half))
        a, b = (m, other) if i % 2 else (other, m)
        cell.append((a, b, _dec(_scale(uc, 0.5, c_hi)), "raw-terminates"))
    for i, (uc, um, uo) in enumerate(_lattice(rng, n_trans, 3)):
        # c - a a nonpositive integer: the transformed side terminates;
        # c on a grid of 1/8, so that c - a is an exact double
        c = _pick(uc, range(4, int(8 * c_hi) + 1)) / 8
        up = repr(c + _pick(um, range(int(half - c) + 1)))
        other = _dec(_scale(uo, -half, half))
        a, b = (up, other) if i % 2 else (other, up)
        cell.append((a, b, repr(c), "transformed-terminates"))
    return [Point(_eval_argv(a, b, c, repr(x), False), f"{label}/{kind}",
                  float(a), float(b), float(c), x)
            for a, b, c, kind in cell]


def float_points(seed: int) -> list[Point]:
    """The timed float workload: FLOAT_CELLS in the acceptance range."""
    rng = random.Random(f"float-eval:{seed}")
    points = [p for x, *counts in FLOAT_CELLS
              for p in _float_cell(rng, "narrow", FLOAT_HALF, FLOAT_C_HI, x,
                                   *counts)]
    rng.shuffle(points)
    return points


def probe_points(seed: int) -> list[Point]:
    """The defect probe: narrow and wide ranges at every x of PROBE_XS.

    Not timed.  Its failures (exit 1, exit 3, a wrong value reported as a
    pass) are the float bound that ignores rounding and the term budget of
    ROADMAP aim 3; the traced run reports their share.
    """
    rng = random.Random(f"float-probe:{seed}")
    return [p for label, half, c_hi in PROBE_RANGES for x in PROBE_XS
            for p in _float_cell(rng, label, half, c_hi, x, *PROBE_CELL)]


def _denominator(i: int, k: int) -> int:
    """Denominator of parameter k of the i-th point of a cell.

    A fixed pattern rather than a draw: the size of the denominators sets
    the cost of every Fraction step, so each seed gets the same pairing of
    degree rank and denominators and only the numerators move.
    """
    return EXACT_DENOMINATORS[(i * (2 * k + 1) + k) % len(EXACT_DENOMINATORS)]


def _rational(u: float, q: int, lo: Fraction, hi: Fraction) -> Fraction:
    """The p/q in lowest terms in [lo, hi] at unit position u.

    p is coprime to q, so the denominator stays q and the value is never
    an integer.
    """
    ps = [p for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
          if math.gcd(p, q) == 1]
    return Fraction(_pick(u, ps), q)


def exact_points(seed: int) -> list[Point]:
    rng = random.Random(f"exact-eval:{seed}")
    points = []
    half, c_lo, c_hi = Fraction(3), Fraction(1, 2), Fraction(3)
    for x, count in EXACT_SERIES:
        for i, u in enumerate(_lattice(rng, count, 3)):
            # a and b are not integers: neither upper parameter stops the raw side
            a = _rational(u[0], _denominator(i, 0), -half, half)
            b = _rational(u[1], _denominator(i, 1), -half, half)
            c = _rational(u[2], _denominator(i, 2), c_lo, c_hi)
            points.append(Point(_eval_argv(a, b, c, x, True), "series", a, b, c, x))
    for x in EXACT_POLY_XS:
        lattice = _lattice(rng, len(EXACT_POLY_DEGREES), 2)
        for i, (degree, u) in enumerate(zip(EXACT_POLY_DEGREES, lattice)):
            a = Fraction(-degree)
            b = _rational(u[0], _denominator(i, 1), -half, half)
            c = _rational(u[1], _denominator(i, 2), c_lo, c_hi)
            points.append(Point(_eval_argv(a, b, c, x, True), "polynomial", a, b, c, x))
    rng.shuffle(points)
    return points


def points_for(workload: str, seed: int) -> list[Point]:
    if workload == "float-eval":
        return float_points(seed)
    if workload == "exact-eval":
        return exact_points(seed)
    if workload == "verify-all":
        # ``verify all`` has no inputs to draw: the seed changes nothing
        return [Point(VERIFY_ARGV, "verify-all")]
    raise ValueError(f"unknown workload {workload!r}")
