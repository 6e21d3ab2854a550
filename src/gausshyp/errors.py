"""Exception types shared across the library."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the supported real domain."""


class InvalidCError(DomainError):
    """The lower parameter c is zero or a negative integer, so the
    coefficient recurrence would divide by zero at some finite degree."""


class NoConvergenceError(RuntimeError):
    """The term budget ran out before the tail bound dropped below tol."""


class QuadratureFailureError(RuntimeError):
    """The trapezoid rule would need more points than its cap to meet the
    requested error bound, or a bound past the float range."""


def no_convergence_in(case: str, tol: float, max_terms: int,
                      exc: NoConvergenceError) -> NoConvergenceError:
    """exc, led by the case that raised it and the tol and max_terms it was
    checked under."""
    return NoConvergenceError(
        f"case {case} at tol={tol}, max_terms={max_terms}: {exc}")
