"""How the transformation turns slow series into fast (or finite) ones.

Evaluates s(a, b; c; x) through the raw series and through
(1-x)**(c-a-b) z with ``transform.evaluate``, compares term counts across
x, and shows the selector picking the side that took fewer terms.
"""

from __future__ import annotations

from gausshyp import HypergeometricParams
from gausshyp.transform import evaluate


def sweep(a, b, c):
    params = HypergeometricParams(a, b, c)
    print(f"\n(a, b, c) = ({a}, {b}, {c})")
    print(f"{'x':>5} {'raw terms':>10} {'transformed':>12} {'selected':>12}   value")
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        raw, tr, choice = evaluate(params, x)
        print(f"{x:>5} {raw.terms_used:>10} {tr.terms_used:>12} "
              f"{choice.representation.value:>12}   {raw.value:.15g}")
        assert abs(raw.value - tr.value) <= 1e-10 * (1 + abs(raw.value))


def main():
    print("Raw vs transformed term counts (values agree to 1e-10)")

    # c - a = -1: the transformed series is a two-term polynomial,
    # while the raw series needs hundreds of terms near x = 0.9
    sweep(3, 1, 2)

    # a = -2: the raw side is the polynomial and the transformed side
    # is infinite, so the selector flips
    sweep(-2, 3, 1.5)

    # neither side terminates; raw wins at every x because it takes
    # fewer terms than the transformed side
    sweep(0.5, 0.5, 1.5)

    _, _, choice = evaluate(HypergeometricParams(3, 1, 2), 0.9)
    print(f"\nselector reason at x=0.9 for (3,1,2): {choice.reason}")


if __name__ == "__main__":
    main()
