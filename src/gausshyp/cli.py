"""Command-line front end.

Three subcommands:

  eval    evaluate the series at one point through both representations
  verify  run an identity suite on its built-in grid
  bench   sweep a parameter grid and report term counts per representation

Reports go to stdout as canonical JSON (default), CSV, or plain text;
diagnostics go to stderr only.  Exit codes: 0 pass, 1 identity failure,
2 domain error, 3 non-convergence.

A command parses its arguments, loops over its points, renders the report
and maps errors to exit codes; the sums, choices, value checks and
allowances come from the library.  eval and bench sum, choose and check
through transform.evaluate and take the residual and allowance from
transform.agreement, so a bench row reads domain-error exactly where eval
of its point exits 2.
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
from itertools import chain, product
from math import comb

from .binom import binom_char, pascal_holds, reflection_holds
from .errors import (DomainError, NoConvergenceError, QuadratureFailureError)
from .integrals import integral_checks, verify_sign_bridge
from .scalar import Scalar, parse_scalar
from .series import (HypergeometricParams, check_budget,
                     check_eval_point, ode_checks)
from .transform import TripleParams, agreement, evaluate, triple_relations


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
    return "%.17g" % (v + 0.0)  # -0.0 + 0.0 is 0.0


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
    else:
        for v in value:
            lines.append(render_text(v, indent + "  "))
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

    raw, trans, choice = evaluate(params, x, tol, args.max_terms)
    residual, allowance = agreement(params, x, tol, raw, trans)
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


def _within(name: str, pairs) -> dict:
    """Entry of a check whose cases are (residual, allowance) pairs, each
    None where the check does not apply, counted apart."""
    pairs = list(pairs)
    applied = [pair for pair in pairs if pair is not None]
    entry = _passes(name, (residual <= allowance
                           for residual, allowance in applied))
    residuals = [residual for residual, _ in applied]
    # null, not max(), past a nan or inf: max skips a nan after the first
    # case, and the report prints no non-finite float
    entry["worst_residual"] = (max(residuals, default=0.0)
                               if all(map(math.isfinite, residuals)) else None)
    if len(applied) < len(pairs):
        entry["not_applicable"] = len(pairs) - len(applied)
    return entry


def _sign_bridge() -> dict:
    return _passes("sign-bridge", (verify_sign_bridge(n, i) for n, i
                                   in product(SIGN_RANGE, SIGN_RANGE)))


# Each suite takes the parsed args and, under `verify all`, the sign-bridge
# entry already run for an earlier suite: binom and integrals both end with
# it, and the other suites ignore it.

def _verify_binom(args, bridge: dict | None = None) -> list[dict]:
    return [
        _passes("reflection", (reflection_holds(m, k)
                               for m in BINOM_MS for k in BINOM_KS)),
        _passes("pascal-recurrence", (pascal_holds(m, k)
                                      for m in BINOM_MS for k in BINOM_KS[1:])),
        _passes("integer-agreement",
                (binom_char(m, k) == comb(m, k)
                 for m in range(0, 13) for k in BINOM_KS)),
        bridge or _sign_bridge(),
    ]


def _verify_ode(args, bridge: dict | None = None) -> list[dict]:
    cases = zip(*(ode_checks(HypergeometricParams(a, b, c), 10)
                  for a, b, c in ODE_GRID))
    names = ("residual-zeros", "residual-tip", "operator-identity")
    return [_passes(name, chain.from_iterable(verdicts))
            for name, verdicts in zip(names, cases)]


def _verify_triple(args, bridge: dict | None = None) -> list[dict]:
    tol = _tol(args, 1e-10)
    pairs = [None if check is None else (float(check[0]), check[1])
             for e, f, h in TRIPLE_EFH
             for _, checks in triple_relations(
                 TripleParams(e, f, h), TRIPLE_XS, tol, args.max_terms)
             for check in checks]
    return [_within("three-series-relations", pairs)]


def _verify_integrals(args, bridge: dict | None = None) -> list[dict]:
    cases = zip(*integral_checks(INTEGRAL_AS, INTEGRAL_NI, _tol(args, 1e-8),
                                 args.max_terms))
    names = ("closed-form-I", "closed-form-II", "ratio-identity",
             "theta-identity")
    return [*(_within(name, pairs) for name, pairs in zip(names, cases)),
            bridge or _sign_bridge()]


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
    grid = _parse_grid(args.grid, exact)
    xs = [parse_scalar(p, exact) for p in args.x_list.split(",")]
    rows = []
    for a, b, c in grid:
        params = HypergeometricParams(a, b, c)
        for x in xs:
            row = {"a": a, "b": b, "c": c, "x": x}
            # a point outside (-1, 1) fails the command, not its row
            check_eval_point(x)
            try:
                raw, trans, choice = evaluate(params, x, tol, args.max_terms)
                # as in eval, an allowance past the float range refuses
                # the point; the pair itself is not reported
                agreement(params, x, tol, raw, trans)
                row.update({
                    "raw_terms": raw.terms_used,
                    "raw_terminated": raw.terminated,
                    "transformed_terms": trans.terms_used,
                    "transformed_terminated": trans.terminated,
                    "selected": choice.representation.value,
                    "status": "ok",
                })
            except (NoConvergenceError, DomainError) as exc:
                row.update({
                    "raw_terms": None, "raw_terminated": None,
                    "transformed_terms": None, "transformed_terminated": None,
                    "selected": None, "status": (
                        "domain-error" if isinstance(exc, DomainError)
                        else "no-convergence"),
                })
            rows.append(row)
    report = {"command": "bench", "mode": args.mode, "tol": tol,
              "max_terms": args.max_terms, "rows": rows}
    return report, list(rows[0]), rows, 0


# ---- entry point ----
#
# Each option is declared once, in these tables: build_parser hands every
# entry to argparse, which owns help, usage, abbreviations and errors, and
# _read_literal reads a literal argv from the same entries, resolved once
# per command at import.  A command's own options follow the common ones,
# in the order help lists them; a key without a leading '-' is a
# positional.

COMMON_OPTIONS = {
    "--mode": dict(choices=("exact", "float"), default="float",
                   help="exact rational arithmetic or doubles"),
    "--tol": dict(type=float, default=None,
                  help="series tolerance; for verify, also the identity "
                       "comparison tolerance"),
    "--max-terms": dict(type=int, default=10000,
                        help="term budget per series"),
    "--output": dict(choices=("json", "csv", "text"), default="json",
                     help="report format"),
}

#: command -> (its help line, its own options)
COMMAND_OPTIONS = {
    "eval": ("evaluate the series at one point", {
        flag: dict(required=True, help=f"{flag[1]} value (accepts p/q)")
        for flag in ("-a", "-b", "-c", "-x")}),
    "verify": ("run an identity suite on its built-in grid", {
        "suite": dict(choices=("ode", "triple", "integrals", "binom",
                               "all"))}),
    "bench": ("sweep a grid, reporting term counts per representation", {
        "--grid": dict(default=BENCH_PARAMS,
                       help="semicolon-separated a,b,c triples "
                            "(default: built-in grid)"),
        "-x": dict(dest="x_list", default=BENCH_XS,
                   help="comma-separated x values (default: %(default)s)")}),
}


@functools.cache  # built on the first call; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausshyp",
        description="Gauss hypergeometric series with transformation, "
                    "identity verification, and benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMAND_OPTIONS.items():
        command = sub.add_parser(name, help=text)
        for flag, spec in _options(name).items():
            command.add_argument(flag, **spec)
    return parser


def _options(name: str) -> dict:
    """Every option of command name, the common ones first."""
    return {**COMMON_OPTIONS, **COMMAND_OPTIONS[name][1]}


def _dest(flag: str, spec: dict) -> str:
    """The attribute argparse stores the value of a one-name entry under."""
    return spec.get("dest") or flag.lstrip("-").replace("-", "_")


def _resolve(name: str) -> tuple[dict, dict, int]:
    """Command name's options as _read_literal reads them: flag -> (dest,
    type, choices) of each option string; the namespace of an argv that
    gives none, which lacks the required options and the positionals; and
    the size of a namespace that lacks nothing."""
    options = _options(name)
    flags = {flag: (_dest(flag, spec), spec.get("type", str),
                    spec.get("choices"))
             for flag, spec in options.items() if flag.startswith("-")}
    defaults = {_dest(flag, spec): spec.get("default") for flag, spec
                in options.items() if flag in flags and not spec.get("required")}
    return flags, {"command": name, **defaults}, len(options) + 1


#: command -> its options resolved once, at import
_LITERAL = {name: _resolve(name) for name in COMMAND_OPTIONS}


def _read_literal(name: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives command name for words, read from the
    option tables; a later duplicate wins and an option not given takes its
    default, as in argparse.

    None, which sends words to argparse, unless each word is a full option
    string with =VALUE or followed by a value that does not start with '-',
    no value is '--', the command declares no positional, every required
    option is given and each value takes its option's type and choices.
    """
    flags, defaults, size = _LITERAL[name]
    values = defaults.copy()
    words = iter(words)
    for word in words:
        flag, sep, value = word.partition("=")
        if not sep:
            value = next(words, "-")  # a missing value declines as '-' does
        spec = flags.get(flag)
        if spec is None or value == "--" or not sep and value.startswith("-"):
            return None
        dest, kind, choices = spec
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices and value not in choices:
            return None
        values[dest] = value
    if len(values) < size:  # a required option or a positional is missing
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # as Namespace(**values), without a setattr each
    return args


_COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "bench": cmd_bench}


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv as the full parser reads it, which prints the usage and
    errors."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.13 drops the '--' of an option's "=--" and
    # stores an empty list, which would reach a command as a value
    for flag, spec in _options(args.command).items():
        if getattr(args, _dest(flag, spec)) == []:
            parser.error(f"argument {flag}: expected one argument")
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a literal argv that names a command is read from the option tables
    args = (_read_literal(argv[0], argv[1:])
            if argv and argv[0] in _LITERAL else None)
    if args is None:
        args = _parse(argv)
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
