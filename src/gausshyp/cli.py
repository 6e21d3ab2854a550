"""Command-line front end.

Three subcommands:

  eval    evaluate the series at one point through both representations
  verify  run an identity suite on its built-in grid
  bench   sweep a parameter grid and report term counts per representation

Reports go to stdout as canonical JSON (default), CSV, or plain text;
diagnostics go to stderr only.  Exit codes: 0 pass, 1 identity failure,
2 domain error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .binom import binom_char, reflect_char
from .errors import (DomainError, NoConvergenceError, QuadratureFailureError)
from .integrals import (IntegralSpec, check_closed_form_I,
                        check_closed_form_II, ratio_identity_sides,
                        theta_identity_sides, verify_sign_bridge)
from .scalar import Scalar, parse_scalar
from .series import (HypergeometricParams, coefficients, eval_series,
                     ode_residual, operator_identity_residual)
from .transform import (TripleParams, eval_transformed, select_representation,
                        verify_triple_relations)


@dataclass(frozen=True)
class RunConfig:
    mode: str = "float"
    tol: float = 1e-12
    max_terms: int = 10000
    output: str = "json"
    tol_overridden: bool = False

    def identity_tol(self, default: float) -> float:
        """Comparison tolerance for inexact identity checks.

        The per-suite default unless the user passed --tol explicitly.
        """
        return self.tol if self.tol_overridden else default


# ---- canonical serialization ----
#
# The JSON renderer is the output contract: insertion-ordered keys, floats
# at 17 significant digits (so render(parse(render(x))) is byte-identical),
# exact rationals as "p/q" strings, -0.0 normalized to 0.0.

def format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite float in report")
    if v == 0.0:
        v = 0.0
    return format(v, ".17g")


def render_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{render_json(v)}"
                         for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render_text(value, indent: str = "") -> str:
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{indent}{k}:")
                lines.append(render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_cell(v)}")
    elif isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (dict, list, tuple)):
                lines.append(render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_cell(v)}")
    else:
        lines.append(f"{indent}{_cell(value)}")
    return "\n".join(line for line in lines if line)


# ---- built-in grids ----
#
# These are part of the CLI contract: `verify all` over them is the
# repository smoke test, and the acceptance tests run the same ranges.

_F = Fraction

ODE_GRID: tuple[tuple[Scalar, Scalar, Scalar], ...] = tuple(
    (a, b, c) for a in range(-1, -7, -1) for b in range(1, 5) for c in range(1, 5)
) + ((1, 1, 2), (_F(1, 2), _F(1, 2), _F(3, 2)))

BINOM_MS: tuple[Scalar, ...] = tuple(range(-10, 11)) + (
    _F(1, 2), _F(-1, 2), _F(3, 2), _F(-3, 2))
BINOM_KS = tuple(range(13))
SIGN_RANGE = tuple(range(7))

TRIPLE_EFH = tuple(product((0, 1, 2), repeat=3))
TRIPLE_XS: tuple[Scalar, ...] = (_F(0), _F(1, 4), _F(1, 2))

INTEGRAL_AS = (0.1, 0.3, 0.5, 0.7)
INTEGRAL_NI = tuple(product(range(4), range(4)))

BENCH_PARAMS: tuple[tuple[Scalar, Scalar, Scalar], ...] = (
    (3, 1, 2),                        # transformed side terminates
    (-2, 3, _F(3, 2)),                # raw side terminates
    (-2, 3, 1),                       # both terminate
    (1, 1, 2),                        # neither terminates
    (_F(1, 2), _F(1, 2), _F(3, 2)),   # neither terminates
)
BENCH_XS = (0.1, 0.3, 0.5, 0.7, 0.9)


# ---- eval ----

def cmd_eval(args, config: RunConfig):
    exact = config.mode == "exact"
    a = parse_scalar(args.a, exact)
    b = parse_scalar(args.b, exact)
    c = parse_scalar(args.c, exact)
    x = parse_scalar(args.x, exact)
    params = HypergeometricParams(a, b, c)

    raw = eval_series(params, x, config.tol, config.max_terms)
    trans = eval_transformed(params, x, config.tol, config.max_terms)
    choice = select_representation(params, x, config.tol)
    residual = abs(float(raw.value) - float(trans.value))
    allowance = 100.0 * config.tol * (1.0 + abs(float(raw.value)))
    ok = residual <= allowance

    report = {
        "command": "eval",
        "inputs": {"a": a, "b": b, "c": c, "x": x, "mode": config.mode,
                   "tol": config.tol, "max_terms": config.max_terms},
        "outputs": {
            "value": raw.value,
            "terms_used": raw.terms_used,
            "terminated": raw.terminated,
            "tail_bound": raw.tail_bound,
            "transformed_value": trans.value,
            "transformed_terms_used": trans.terms_used,
            "transformed_terminated": trans.terminated,
            "transformed_tail_bound": trans.tail_bound,
            "agreement_residual": residual,
            "agreement_allowance": allowance,
            "selected_representation": choice.representation.value,
            "selection_reason": choice.reason,
        },
        "status": "pass" if ok else "fail",
        "error": None if ok else
        f"raw and transformed values disagree by {residual:.3e}",
    }
    header = ["a", "b", "c", "x", "value", "terms_used", "terminated",
              "tail_bound", "transformed_value", "transformed_terms_used",
              "agreement_residual", "selected_representation", "status"]
    row = [a, b, c, x, raw.value, raw.terms_used, raw.terminated,
           raw.tail_bound, trans.value, trans.terms_used, residual,
           choice.representation.value, report["status"]]
    return report, (header, [row]), (0 if ok else 1)


# ---- verify ----

def _check_entry(name: str, cases: int, failures: int,
                 worst_residual: float | None = None,
                 not_applicable: int = 0) -> dict:
    entry = {
        "check": name,
        "cases": cases,
        "failures": failures,
        "status": "pass" if failures == 0 else "fail",
    }
    if worst_residual is not None:
        entry["worst_residual"] = worst_residual
    if not_applicable:
        entry["not_applicable"] = not_applicable
    return entry


def _passes(name: str, outcomes) -> dict:
    """Entry of a check whose cases each pass (True) or fail (False)."""
    outcomes = list(outcomes)
    return _check_entry(name, len(outcomes), outcomes.count(False))


def _within(name: str, pairs, not_applicable: int = 0) -> dict:
    """Entry of a check whose cases are (residual, allowance) pairs."""
    pairs = list(pairs)
    failures = sum(residual > allowance for residual, allowance in pairs)
    worst = max((residual for residual, _ in pairs), default=0.0)
    return _check_entry(name, len(pairs), failures, worst_residual=worst,
                        not_applicable=not_applicable)


def _sign_bridge() -> dict:
    return _passes("sign-bridge", (verify_sign_bridge(n, i) for n, i
                                   in product(SIGN_RANGE, SIGN_RANGE)))


def _verify_binom(config: RunConfig) -> list[dict]:
    return [
        _passes("reflection", (binom_char(-m, k) == reflect_char(m, k)
                               for m in BINOM_MS for k in BINOM_KS)),
        _passes("pascal-recurrence",
                (binom_char(m, k)
                 == binom_char(m - 1, k) + binom_char(m - 1, k - 1)
                 for m in BINOM_MS for k in BINOM_KS[1:])),
        _passes("integer-agreement",
                (binom_char(m, k) == (comb(m, k) if k <= m else 0)
                 for m in range(0, 13) for k in BINOM_KS)),
        _sign_bridge(),
    ]


def _verify_ode(config: RunConfig) -> list[dict]:
    degree = 10
    zeros, tips, ops = [], [], []
    for a, b, c in ODE_GRID:
        params = HypergeometricParams(a, b, c)
        tip = (a + degree) * (b + degree) * coefficients(params, degree)[degree]
        res = ode_residual(params, degree).residual_coefficients
        zeros += [v == 0 for v in res[:degree] + res[degree + 1:]]
        tips.append(res[degree] == -tip)
        diff = operator_identity_residual(params, degree)
        ops += [v == 0 for v in diff[:degree]] + [diff[degree] == tip]
    return [
        _passes("residual-zeros", zeros),
        _passes("residual-tip", tips),
        _passes("operator-identity", ops),
    ]


def _verify_triple(config: RunConfig) -> list[dict]:
    tol = config.identity_tol(1e-10)
    pairs = []
    skipped = 0
    for e, f, h in TRIPLE_EFH:
        tp = TripleParams(e, f, h)
        for x in TRIPLE_XS:
            out = verify_triple_relations(tp, x, tol=tol,
                                          max_terms=config.max_terms)
            for residual, allowance in zip(out.residuals, out.allowances):
                if residual is None:
                    skipped += 1
                else:
                    pairs.append((float(residual), allowance))
    return [_within("three-series-relations", pairs, not_applicable=skipped)]


def _verify_integrals(config: RunConfig) -> list[dict]:
    tol = config.identity_tol(1e-8)
    closed_I, closed_II, ratio, theta = [], [], [], []
    for a in INTEGRAL_AS:
        for n, i in INTEGRAL_NI:
            spec = IntegralSpec(a, n, i)
            r_I, r_II = check_closed_form_I(spec), check_closed_form_II(spec)
            for r, pairs in ((r_I, closed_I), (r_II, closed_II)):
                pairs.append((abs(r.quadrature - r.closed_form),
                              max(tol, 10.0 * r.abs_error_estimate)))
            for sides, pairs in ((ratio_identity_sides, ratio),
                                 (theta_identity_sides, theta)):
                lhs, rhs = sides(spec, r_I.quadrature, r_II.quadrature)
                pairs.append((abs(lhs - rhs), tol * (1.0 + abs(lhs))))
    return [
        _within("closed-form-I", closed_I),
        _within("closed-form-II", closed_II),
        _within("ratio-identity", ratio),
        _within("theta-identity", theta),
        _sign_bridge(),
    ]


_SUITES = {
    "binom": _verify_binom,
    "ode": _verify_ode,
    "triple": _verify_triple,
    "integrals": _verify_integrals,
}


def cmd_verify(args, config: RunConfig):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    for name in names:
        for entry in _SUITES[name](config):
            entry = {"suite": name, **entry}
            checks.append(entry)
    ok = all(entry["status"] == "pass" for entry in checks)
    report = {
        "command": "verify",
        "suite": args.suite,
        "tol": config.tol if config.tol_overridden else None,
        "checks": checks,
        "status": "pass" if ok else "fail",
        "error": None if ok else "one or more identity checks failed",
    }
    header = ["suite", "check", "cases", "failures", "worst_residual", "status"]
    rows = [[e["suite"], e["check"], e["cases"], e["failures"],
             e.get("worst_residual"), e["status"]] for e in checks]
    return report, (header, rows), (0 if ok else 1)


# ---- bench ----

def _parse_grid(text: str, exact: bool) -> list[tuple[Scalar, Scalar, Scalar]]:
    triples = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 3:
            raise DomainError(f"grid entry {chunk!r} is not an a,b,c triple")
        triples.append(tuple(parse_scalar(p, exact) for p in parts))
    return triples


def cmd_bench(args, config: RunConfig):
    exact = config.mode == "exact"
    grid = (_parse_grid(args.grid, exact) if args.grid else list(BENCH_PARAMS))
    xs = ([parse_scalar(p, False) for p in args.x_list.split(",")]
          if args.x_list else list(BENCH_XS))
    rows = []
    for a, b, c in grid:
        params = HypergeometricParams(a, b, c)
        for x in xs:
            row = {"a": a, "b": b, "c": c, "x": x}
            try:
                raw = eval_series(params, x, config.tol, config.max_terms)
                trans = eval_transformed(params, x, config.tol, config.max_terms)
                choice = select_representation(params, x, config.tol)
                row.update({
                    "raw_terms": raw.terms_used,
                    "raw_terminated": raw.terminated,
                    "transformed_terms": trans.terms_used,
                    "transformed_terminated": trans.terminated,
                    "raw_estimate": choice.raw_estimate,
                    "transformed_estimate": choice.transformed_estimate,
                    "selected": choice.representation.value,
                    "status": "ok",
                })
            except NoConvergenceError:
                row.update({
                    "raw_terms": None, "raw_terminated": None,
                    "transformed_terms": None, "transformed_terminated": None,
                    "raw_estimate": None, "transformed_estimate": None,
                    "selected": None, "status": "no-convergence",
                })
            rows.append(row)
    report = {"command": "bench", "mode": config.mode, "tol": config.tol,
              "max_terms": config.max_terms, "rows": rows}
    header = list(rows[0]) if rows else []
    csv_rows = [[row[k] for k in header] for row in rows]
    return report, (header, csv_rows), 0


# ---- entry point ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausshyp",
        description="Gauss hypergeometric series with transformation, "
                    "identity verification, and benchmarking")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default="float",
                        help="exact rational arithmetic or doubles")
    common.add_argument("--tol", type=float, default=None,
                        help="series tolerance; for verify, also the "
                             "identity comparison tolerance")
    common.add_argument("--max-terms", type=int, default=10000,
                        help="term budget per series")
    common.add_argument("--output", choices=("json", "csv", "text"),
                        default="json", help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate the series at one point")
    for flag in ("-a", "-b", "-c", "-x"):
        p_eval.add_argument(flag, required=True,
                            help=f"{flag[1]} value (accepts p/q)")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run an identity suite on its built-in grid")
    p_verify.add_argument("suite",
                          choices=("ode", "triple", "integrals", "binom", "all"))

    p_bench = sub.add_parser("bench", parents=[common],
                             help="sweep a grid, reporting term counts per "
                                  "representation")
    p_bench.add_argument("--grid",
                         help="semicolon-separated a,b,c triples "
                              "(default: built-in grid)")
    p_bench.add_argument("-x", dest="x_list",
                         help="comma-separated x values "
                              "(default: 0.1,0.3,0.5,0.7,0.9)")
    return parser


_COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        mode=args.mode,
        tol=args.tol if args.tol is not None else 1e-12,
        max_terms=args.max_terms,
        output=args.output,
        tol_overridden=args.tol is not None,
    )
    try:
        report, csv_data, code = _COMMANDS[args.command](args, config)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, QuadratureFailureError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    if config.output == "json":
        text = render_json(report) + "\n"
    elif config.output == "csv":
        text = render_csv(*csv_data)
    else:
        text = render_text(report) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`).  Point stdout at the
        # null device so the interpreter's flush at exit does not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
