"""Reference values and the output check.  Nothing in this module is timed.

Three oracles, none of which shares code with the library:

* float points: ``mpmath.hyp2f1`` at FLOAT_DPS digits;
* exact points that do not terminate: ``mpmath.hyp2f1`` at EXACT_DPS digits;
* terminating exact points: ``brute_polynomial``, the falling-factorial
  product over integers with one normalisation at the end (the library
  instead steps a Fraction term recurrence).

A value fails when |value - reference| exceeds
max(10 * its reported tail bound, 1e-10 * (1 + |reference|)); the rule
applies to ``value`` and to ``transformed_value``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from workloads import Point

FLOAT_DPS = 30
EXACT_DPS = 60
REL_FLOOR = 1e-10
BOUND_FACTOR = 10

#: (suite, check) -> cases of ``verify all``, counted from the CLI's grids:
#: 25 upper indices x 13 lower ones, 7 x 7 sign pairs, 98 ODE triples at
#: degree 10 (11 checked entries each), 27 (e, f, h) x 3 points x 3
#: relations, 4 moduli x 16 (n, i) integrals.
VERIFY_CASES = {
    ("binom", "reflection"): 325,
    ("binom", "pascal-recurrence"): 300,
    ("binom", "integer-agreement"): 169,
    ("binom", "sign-bridge"): 49,
    ("ode", "residual-zeros"): 1078,
    ("ode", "residual-tip"): 98,
    ("ode", "operator-identity"): 1078,
    ("triple", "three-series-relations"): 243,
    ("integrals", "closed-form-I"): 64,
    ("integrals", "closed-form-II"): 64,
    ("integrals", "ratio-identity"): 64,
    ("integrals", "theta-identity"): 64,
    ("integrals", "sign-bridge"): 49,
}


def brute_polynomial(n: int, b: Fraction, c: Fraction, x: Fraction) -> Fraction:
    """s(-n, b; c; x) summed from the closed product form of each term,

        t_k = (-1)**k n(n-1)..(n-k+1) (b)_k x**k / (k! (c)_k),

    in integers over the common denominator n! (c)_n x-denominator**n,
    with a single reduction at the end.
    """
    pb, qb = b.numerator, b.denominator
    pc, qc = c.numerator, c.denominator
    px, qx = x.numerator, x.denominator
    nums = [1]
    for k in range(n):
        # numerator of t_{k+1} from that of t_k: one more factor of each product
        nums.append(nums[-1] * -(n - k) * (pb + k * qb) * qc * px)
    total, cofactor = 0, 1
    for k in range(n, -1, -1):
        # cofactor = D_n / D_k, where D_k = k! prod(pc + j qc) qb**k qx**k
        total += nums[k] * cofactor
        if k:
            cofactor *= k * (pc + (k - 1) * qc) * qb * qx
    return Fraction(total, cofactor)


def reference(point: Point):
    """Reference value of one point: Fraction, mpf, or VERIFY_CASES."""
    if point.a is None:
        return VERIFY_CASES
    if isinstance(point.x, float):
        with mpmath.workdps(FLOAT_DPS):
            return +mpmath.hyp2f1(point.a, point.b, point.c, point.x)
    if point.a.denominator == 1 and point.a <= 0:
        return brute_polynomial(-int(point.a), point.b, point.c, point.x)
    with mpmath.workdps(EXACT_DPS):
        args = [mpmath.mpf(v.numerator) / v.denominator
                for v in (point.a, point.b, point.c, point.x)]
        return +mpmath.hyp2f1(*args)


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation left behind."""

    code: int | None      # exit code; None when main raised
    stdout: str
    raised: str | None    # exception type name when main raised


@dataclass(frozen=True)
class Failure:
    """Why an operation failed.

    ``silent`` marks a wrong result that the CLI reported as a pass
    (exit 0); every other failure is one the CLI signalled itself.
    """

    reason: str
    silent: bool


def _parse_value(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def _value_error(value, tail_bound: float, ref) -> bool:
    """True when value misses ref by more than the allowance."""
    if isinstance(ref, Fraction):
        err = abs(Fraction(value) - ref)
        allowance = max(Fraction(BOUND_FACTOR * tail_bound),
                        Fraction(REL_FLOOR) * (1 + abs(ref)))
        return err > allowance
    with mpmath.workdps(EXACT_DPS):
        if isinstance(value, Fraction):
            v = mpmath.mpf(value.numerator) / value.denominator
        else:
            v = mpmath.mpf(value)
        err = abs(v - ref)
        return err > max(BOUND_FACTOR * mpmath.mpf(tail_bound),
                         REL_FLOOR * (1 + abs(ref)))


def _check_eval(report: dict, ref) -> str | None:
    out = report["outputs"]
    for key, bound in (("value", "tail_bound"),
                       ("transformed_value", "transformed_tail_bound")):
        if _value_error(_parse_value(out[key]), out[bound], ref):
            return f"check-{key}"
    return None


def _check_verify(report: dict, expected: dict) -> str | None:
    seen = {}
    for entry in report["checks"]:
        if entry["status"] != "pass" or entry["failures"] != 0:
            return f"check-{entry['suite']}/{entry['check']}"
        seen[(entry["suite"], entry["check"])] = (
            entry["cases"] + entry.get("not_applicable", 0))
    if seen != expected:
        return "check-verify-cases"
    return None


def check(outcome: Outcome, ref) -> Failure | None:
    """Classify one invocation: None when it passed."""
    if outcome.raised is not None:
        return Failure(f"raised-{outcome.raised}", False)
    if outcome.code != 0:
        return Failure(f"exit-{outcome.code}", False)
    try:
        report = json.loads(outcome.stdout)
        if report["status"] != "pass":
            return Failure("status-fail", True)
        if report["command"] == "verify":
            reason = _check_verify(report, ref)
        else:
            reason = _check_eval(report, ref)
    except (ValueError, KeyError, TypeError) as exc:
        return Failure(f"unreadable-{type(exc).__name__}", True)
    return Failure(reason, True) if reason else None


def exact_fields(outcome: Outcome) -> list:
    """The exact parts of one invocation, the input of the digest.

    The exit code, then for exact ``eval`` the value and, when exact, the
    transformed value; for ``verify`` the cases, failures and status of
    every check and the overall status.
    """
    fields: list = [outcome.code]
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        return fields
    if report.get("command") == "verify":
        fields += [[e["suite"], e["check"], e["cases"], e["failures"], e["status"]]
                   for e in report["checks"]]
        fields.append(report["status"])
    else:
        out = report["outputs"]
        fields += [v for v in (out["value"], out["transformed_value"])
                   if isinstance(v, str)]
    return fields


def digest(outcomes: list[Outcome]) -> str:
    """sha256 over the exact fields of the invocations, in order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(exact_fields(outcome), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()
