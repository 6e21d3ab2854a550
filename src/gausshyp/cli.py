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
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product
from math import comb

from .binom import _pascal_holds, _reflection_holds, binom_char
from .errors import (DomainError, NoConvergenceError, QuadratureFailureError)
from .integrals import _grid_checks, verify_sign_bridge
from .scalar import (Scalar, check_finite, check_printable, is_exact,
                     parse_scalar)
from .series import HypergeometricParams, _ode_checks, check_budget, eval_series
from .transform import (TripleParams, _triple_relations, eval_transformed,
                        select_representation)


# ---- canonical serialization ----
#
# The JSON renderer is the output contract: insertion-ordered keys, floats
# at 17 significant digits (so render(parse(render(x))) is byte-identical),
# exact rationals as "p/q" strings, -0.0 normalized to 0.0.  A value is
# rendered by the entry for its exact type, strings escaped by the function
# json.dumps uses, so the bytes are those of the isinstance chain in
# tests/oracles.py.

def format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("non-finite float in report")
    if v == 0.0:
        v = 0.0
    return format(v, ".17g")


_quote = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls


def _render_dict(value: dict) -> str:
    get = _RENDERERS.get
    return "{" + ",".join([
        f"{_quote(str(k))}:{get(type(v), _render_instance)(v)}"
        for k, v in value.items()]) + "}"


def _render_sequence(value) -> str:
    get = _RENDERERS.get
    return "[" + ",".join([get(type(v), _render_instance)(v)
                           for v in value]) + "]"


def _render_instance(value) -> str:
    """Render a value whose exact type has no entry: the first entry whose
    type it is an instance of (numpy.float64 is a float), else TypeError."""
    for kind, render in _RENDERERS.items():
        if isinstance(value, kind):
            return render(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# keyed on the exact type; the order is that of the isinstance fallback,
# so bool is tried before int
_RENDERERS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: format_float,
    Fraction: lambda value: _quote(str(value)),
    str: _quote,
    dict: _render_dict,
    list: _render_sequence,
    tuple: _render_sequence,
}


def render_json(value) -> str:
    return _RENDERERS.get(type(value), _render_instance)(value)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def render_csv(columns: list[str], records: list[dict]) -> str:
    """One row per record, holding its values under columns (empty if absent)."""
    import csv  # here, not at the top: only --output csv pays its import
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_cell(record.get(k)) for k in columns])
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

#: The default bench grid and points, as a user would type them, so that
#: --mode reads them as it reads --grid and -x.  The triples: transformed
#: side terminates, raw side terminates, both do, neither does (twice).
BENCH_PARAMS = "3,1,2;-2,3,3/2;-2,3,1;1,1,2;1/2,1/2,3/2"
BENCH_XS = "0.1,0.3,0.5,0.7,0.9"


def _tol(args, default: float = 1e-12) -> float:
    """--tol if it was given, else default: the series tol of eval and
    bench, or the comparison tol a verify suite names."""
    return default if args.tol is None else args.tol


# ---- eval ----

EVAL_COLUMNS = ["a", "b", "c", "x", "value", "terms_used", "terminated",
                "tail_bound", "transformed_value", "transformed_terms_used",
                "agreement_residual", "selected_representation", "status"]


def cmd_eval(args):
    exact = args.mode == "exact"
    a = parse_scalar(args.a, exact)
    b = parse_scalar(args.b, exact)
    c = parse_scalar(args.c, exact)
    x = parse_scalar(args.x, exact)
    params = HypergeometricParams(a, b, c)
    tol = _tol(args)

    raw = eval_series(params, x, tol, args.max_terms)
    trans = eval_transformed(params, x, tol, args.max_terms)
    for name, value in (("raw value", raw.value),
                        ("transformed value", trans.value)):
        check_finite(name, value)
        check_printable(name, value)
    choice = select_representation(raw, trans)
    residual = abs(float(raw.value) - float(trans.value))
    allowance = 100.0 * tol * (1.0 + abs(float(raw.value)))
    if is_exact(raw.value) and isinstance(trans.value, float):
        # The raw value is exact and the Euler value a double: its prefactor
        # (1-x)**e, e = c-a-b not an integer, is exp(fl(e) log(fl(1-x))).
        # With u = 2**-53 and L = log(1-x), rounding 1-x, e and their
        # product, with log within 1 ulp (2u), puts u(|e| + 4|eL|) on the
        # argument of exp; exp (2u), the rounded sum, the product, float(raw)
        # and the subtraction add 6u relative.  The floor exceeds that bound
        # by (|e|/2 + |eL| + 1) 2**-52 (1+|raw|), at least a fiftieth of the
        # floor, which covers the two tails (at most tol each) whenever the
        # floor is the allowance.
        e = float(c - a - b)
        rounding = abs(e) + 3.0 * abs(e * math.log(float(1 - x))) + 4.0
        allowance = max(allowance, rounding * 2.0 ** -52
                        * (1.0 + abs(float(raw.value))))
    check_finite("agreement allowance", allowance)
    ok = residual <= allowance

    report = {
        "command": "eval",
        "inputs": {"a": a, "b": b, "c": c, "x": x, "mode": args.mode,
                   "tol": tol, "max_terms": args.max_terms},
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
    record = {**report["inputs"], **report["outputs"], "status": report["status"]}
    return report, EVAL_COLUMNS, [record], (0 if ok else 1)


# ---- verify ----

def _passes(name: str, outcomes) -> dict:
    """Entry of a check whose cases each pass (True) or fail (False)."""
    outcomes = list(outcomes)
    failures = outcomes.count(False)
    return {"check": name, "cases": len(outcomes), "failures": failures,
            "status": "pass" if failures == 0 else "fail"}


def _within(name: str, pairs, not_applicable: int = 0) -> dict:
    """Entry of a check whose cases are (residual, allowance) pairs."""
    pairs = list(pairs)
    entry = _passes(name, (not residual > allowance
                           for residual, allowance in pairs))
    entry["worst_residual"] = max((residual for residual, _ in pairs),
                                  default=0.0)
    if not_applicable:
        entry["not_applicable"] = not_applicable
    return entry


def _sign_bridge() -> dict:
    return _passes("sign-bridge", (verify_sign_bridge(n, i) for n, i
                                   in product(SIGN_RANGE, SIGN_RANGE)))


# Each suite takes the parsed args and, under `verify all`, the sign-bridge
# entry already run for an earlier suite: binom and integrals both end with
# it, and the other suites ignore it.

def _verify_binom(args, bridge: dict | None = None) -> list[dict]:
    return [
        _passes("reflection", (_reflection_holds(m, k)
                               for m in BINOM_MS for k in BINOM_KS)),
        _passes("pascal-recurrence", (_pascal_holds(m, k)
                                      for m in BINOM_MS for k in BINOM_KS[1:])),
        _passes("integer-agreement",
                (binom_char(m, k) == (comb(m, k) if k <= m else 0)
                 for m in range(0, 13) for k in BINOM_KS)),
        bridge or _sign_bridge(),
    ]


def _verify_ode(args, bridge: dict | None = None) -> list[dict]:
    degree = 10
    zeros, tips, ops = [], [], []
    for a, b, c in ODE_GRID:
        # integer entries over one scale: zero, or the tip, exactly when
        # the residual's Fraction is
        tip, res, diff = _ode_checks(HypergeometricParams(a, b, c), degree)
        zeros += [v == 0 for v in res[:degree] + res[degree + 1:]]
        tips.append(res[degree] == -tip)
        ops += [v == 0 for v in diff[:degree]] + [diff[degree] == tip]
    return [
        _passes("residual-zeros", zeros),
        _passes("residual-tip", tips),
        _passes("operator-identity", ops),
    ]


def _verify_triple(args, bridge: dict | None = None) -> list[dict]:
    tol = _tol(args, 1e-10)
    pairs = []
    skipped = 0
    for e, f, h in TRIPLE_EFH:
        for _, checks in _triple_relations(
                TripleParams(e, f, h), TRIPLE_XS, tol, args.max_terms):
            for check in checks:
                if check is None:
                    skipped += 1
                else:
                    residual, allowance = check
                    pairs.append((float(residual), allowance))
    return [_within("three-series-relations", pairs, not_applicable=skipped)]


def _verify_integrals(args, bridge: dict | None = None) -> list[dict]:
    tol = _tol(args, 1e-8)
    closed_I, closed_II, ratio, theta = [], [], [], []
    for r_I, r_II, *sides in _grid_checks(INTEGRAL_AS, INTEGRAL_NI):
        for r, pairs in ((r_I, closed_I), (r_II, closed_II)):
            pairs.append((abs(r.quadrature - r.closed_form),
                          max(tol, 10.0 * r.abs_error_estimate)))
        for (lhs, rhs), pairs in zip(sides, (ratio, theta)):
            pairs.append((abs(lhs - rhs), tol * (1.0 + abs(lhs))))
    return [
        _within("closed-form-I", closed_I),
        _within("closed-form-II", closed_II),
        _within("ratio-identity", ratio),
        _within("theta-identity", theta),
        bridge or _sign_bridge(),
    ]


_SUITES = {
    "binom": _verify_binom,
    "ode": _verify_ode,
    "triple": _verify_triple,
    "integrals": _verify_integrals,
}


VERIFY_COLUMNS = ["suite", "check", "cases", "failures", "worst_residual",
                  "status"]


def cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    bridge = _sign_bridge() if len(names) > 1 else None  # one run serves both
    checks = [{"suite": name, **entry}
              for name in names for entry in _SUITES[name](args, bridge)]
    ok = all(entry["status"] == "pass" for entry in checks)
    report = {
        "command": "verify",
        "suite": args.suite,
        "tol": args.tol,
        "checks": checks,
        "status": "pass" if ok else "fail",
        "error": None if ok else "one or more identity checks failed",
    }
    return report, VERIFY_COLUMNS, checks, (0 if ok else 1)


# ---- bench ----

def _parse_grid(text: str, exact: bool) -> list[tuple[Scalar, Scalar, Scalar]]:
    triples = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 3:
            raise DomainError(f"grid entry {chunk!r} is not an a,b,c triple")
        triples.append(tuple(parse_scalar(p, exact) for p in parts))
    return triples


def cmd_bench(args):
    exact = args.mode == "exact"
    tol = _tol(args)
    grid = _parse_grid(args.grid or BENCH_PARAMS, exact)
    xs = [parse_scalar(p, exact) for p in (args.x_list or BENCH_XS).split(",")]
    rows = []
    for a, b, c in grid:
        params = HypergeometricParams(a, b, c)
        for x in xs:
            row = {"a": a, "b": b, "c": c, "x": x}
            try:
                raw = eval_series(params, x, tol, args.max_terms)
                trans = eval_transformed(params, x, tol, args.max_terms)
                choice = select_representation(raw, trans)
                row.update({
                    "raw_terms": raw.terms_used,
                    "raw_terminated": raw.terminated,
                    "transformed_terms": trans.terms_used,
                    "transformed_terminated": trans.terminated,
                    "selected": choice.representation.value,
                    "status": "ok",
                })
            except NoConvergenceError:
                row.update({
                    "raw_terms": None, "raw_terminated": None,
                    "transformed_terms": None, "transformed_terminated": None,
                    "selected": None, "status": "no-convergence",
                })
            rows.append(row)
    report = {"command": "bench", "mode": args.mode, "tol": tol,
              "max_terms": args.max_terms, "rows": rows}
    return report, list(rows[0]), rows, 0


# ---- entry point ----

@functools.cache  # built on the first call; parse_args keeps no state
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
    parser.commands = sub.choices  # command name -> its own parser

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
    # The full parser scans every word before handing the rest to the
    # command's parser; an argv that names a command is parsed by that
    # parser alone.  Anything else, or words it leaves over, takes the full
    # parser, which prints the top-level usage and errors.
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or extras:
        args = parser.parse_args(argv)
    try:
        check_budget(_tol(args), args.max_terms)
        report, columns, records, code = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergenceError, QuadratureFailureError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    if args.output == "json":
        text = render_json(report) + "\n"
    elif args.output == "csv":
        text = render_csv(columns, records)
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
