"""Spans around the calls into gausshyp's public functions.

``Tracer.install`` replaces each function named in TARGETS, in every
gausshyp module that binds it, by a wrapper that records a span: name,
parent span, start and end.  ``Tracer.remove`` puts the originals back.
No library file changes; the spans exist only while a traced pass runs.

A span's self time is its duration minus the durations of its direct
children.  A function that calls itself (``render_json`` recurses over the
report) records one span for the outermost call.

Spans stay in memory for one CLI invocation; ``LayerStats.add_request``
folds them into per-layer sums once the invocation has returned, outside
its timed window.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

#: (module, function): the public functions the CLI reaches, by layer.
TARGETS = (
    ("cli", "main"), ("cli", "build_parser"), ("cli", "render_json"),
    ("scalar", "parse_scalar"), ("scalar", "power"),
    ("series", "eval_series"), ("series", "coefficients"),
    ("series", "ode_residual"), ("series", "operator_identity_residual"),
    ("transform", "eval_transformed"), ("transform", "select_representation"),
    ("transform", "character_series"), ("transform", "verify_triple_relations"),
    ("binom", "binom_char"), ("binom", "reflect_char"),
    ("integrals", "check_closed_form_I"), ("integrals", "check_closed_form_II"),
    ("integrals", "quad_I"), ("integrals", "quad_II"),
    ("integrals", "verify_sign_bridge"),
)

#: Unit of every per-layer metric.  "/op" values are per CLI invocation.
UNITS = {
    "cli.main.self_ms": "ms/op",
    "cli.build_parser.us_per_call": "us",
    "cli.render_json.us_per_call": "us",
    "cli.render_json.bytes": "B/call",
    "scalar.parse_scalar.us_per_call": "us",
    "scalar.power.us_per_call": "us",
    "series.eval_series.float.calls": "count/op",
    "series.eval_series.float.busy_ms": "ms/op",
    "series.eval_series.float.terms": "count/op",
    "series.eval_series.float.ns_per_term": "ns",
    "series.eval_series.float.no_convergence": "count/op",
    "series.eval_series.exact.calls": "count/op",
    "series.eval_series.exact.busy_ms": "ms/op",
    "series.eval_series.exact.terms": "count/op",
    "series.eval_series.exact.us_per_term": "us",
    "series.eval_series.exact.result_digits_max": "digits",
    "series.ode_residual.busy_ms": "ms/op",
    "series.operator_identity_residual.busy_ms": "ms/op",
    "series.coefficients.busy_ms": "ms/op",
    "transform.eval_transformed.self_ms": "ms/op",
    "transform.select_representation.calls": "count/op",
    "transform.select_representation.busy_ms": "ms/op",
    "transform.selector.term_excess": "ratio",
    "transform.selector.min_terms": "count/op",
    "transform.selector.optimal_share": "share",
    "transform.character_series.busy_ms": "ms/op",
    "transform.character_series.terms": "count/op",
    "transform.verify_triple_relations.busy_ms": "ms/op",
    "binom.binom_char.calls": "count/op",
    "binom.binom_char.busy_ms": "ms/op",
    "binom.reflect_char.busy_ms": "ms/op",
    "integrals.check_closed_form_I.busy_ms": "ms/op",
    "integrals.check_closed_form_II.busy_ms": "ms/op",
    "integrals.quad_I.busy_ms": "ms/op",
    "integrals.quad_II.busy_ms": "ms/op",
    "integrals.verify_sign_bridge.busy_ms": "ms/op",
}

_LOG10_2 = math.log10(2)


class Span:
    __slots__ = ("name", "parent", "args", "start", "end", "result", "error")

    def __init__(self, name: str, parent: int | None, args: tuple) -> None:
        self.name = name
        self.parent = parent
        self.args = args
        self.start = self.end = 0
        self.result = None
        self.error: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "gausshyp" or key.startswith("gausshyp.")]
        for module_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"gausshyp.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """The spans recorded since the last take, oldest first."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _is_exact_eval(span: Span) -> bool:
    params, x = span.args[0], span.args[1]
    return not any(isinstance(v, float) for v in (params.a, params.b, params.c, x))


def _digits(value) -> int:
    if isinstance(value, Fraction):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    else:
        bits = int(value).bit_length()
    return int(bits * _LOG10_2) + 1


class LayerStats:
    """Per-layer sums over the requests of one traced pass."""

    def __init__(self) -> None:
        self.requests = 0
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()     # ns, summed span durations
        self.busy_ok: Counter = Counter()  # ns, of eval_series calls that returned
        self.self_: Counter = Counter()    # ns, durations minus direct children
        self.terms: Counter = Counter()
        self.no_convergence = 0
        self.exact_digits_max = 0
        self.render_bytes = 0
        self.selector_calls = 0
        self.selector_optimal = 0
        self.selector_chosen_terms = 0
        self.selector_min_terms = 0

    def add_request(self, spans: list[Span]) -> None:
        self.requests += 1
        children = [0] * len(spans)
        for span in spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        raw = trans = choice = None
        for i, span in enumerate(spans):
            dur = span.end - span.start
            key = span.name
            if key == "series.eval_series":
                key += ".exact" if _is_exact_eval(span) else ".float"
                if span.error == "NoConvergenceError":
                    self.no_convergence += 1
                elif span.result is not None:
                    self.terms[key] += span.result.terms_used
                    self.busy_ok[key] += dur
                    if key.endswith("exact"):
                        self.exact_digits_max = max(self.exact_digits_max,
                                                    _digits(span.result.value))
            elif key == "transform.character_series" and span.result is not None:
                self.terms[key] += span.result.terms_used
            elif key == "cli.render_json" and span.result is not None:
                self.render_bytes += len(span.result)
            self.calls[key] += 1
            self.busy[key] += dur
            self.self_[key] += dur - children[i]
            if span.parent == 0 and span.result is not None:
                # direct calls from cli.main: the eval command's two sides
                if span.name == "series.eval_series":
                    raw = span.result.terms_used
                elif span.name == "transform.eval_transformed":
                    trans = span.result.terms_used
                elif span.name == "transform.select_representation":
                    choice = span.result.representation.value
        if None not in (raw, trans, choice):
            chosen = raw if choice == "raw" else trans
            self.selector_calls += 1
            self.selector_optimal += chosen == min(raw, trans)
            self.selector_chosen_terms += chosen
            self.selector_min_terms += min(raw, trans)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, named as in UNITS.

        Per-op values divide by the requests of the pass; per-term times
        count only calls that returned, since a call that ran out of budget
        reports no term count.  A ratio whose base is zero reads 0.
        """
        ops = max(self.requests, 1)

        def per_op_ms(table, key):
            return table[key] / 1e6 / ops

        def ratio(num, den):
            return num / den if den else 0.0

        def per_call_us(key):
            return ratio(self.busy[key] / 1e3, self.calls[key])

        fl, ex = "series.eval_series.float", "series.eval_series.exact"
        out = {
            "cli.main.self_ms": per_op_ms(self.self_, "cli.main"),
            "cli.build_parser.us_per_call": per_call_us("cli.build_parser"),
            "cli.render_json.us_per_call": per_call_us("cli.render_json"),
            "cli.render_json.bytes": ratio(self.render_bytes,
                                           self.calls["cli.render_json"]),
            "scalar.parse_scalar.us_per_call": per_call_us("scalar.parse_scalar"),
            "scalar.power.us_per_call": per_call_us("scalar.power"),
            f"{fl}.calls": self.calls[fl] / ops,
            f"{fl}.busy_ms": per_op_ms(self.busy, fl),
            f"{fl}.terms": self.terms[fl] / ops,
            f"{fl}.ns_per_term": ratio(self.busy_ok[fl], self.terms[fl]),
            f"{fl}.no_convergence": self.no_convergence / ops,
            f"{ex}.calls": self.calls[ex] / ops,
            f"{ex}.busy_ms": per_op_ms(self.busy, ex),
            f"{ex}.terms": self.terms[ex] / ops,
            f"{ex}.us_per_term": ratio(self.busy_ok[ex] / 1e3, self.terms[ex]),
            f"{ex}.result_digits_max": self.exact_digits_max,
            "transform.eval_transformed.self_ms":
                per_op_ms(self.self_, "transform.eval_transformed"),
            "transform.select_representation.calls":
                self.calls["transform.select_representation"] / ops,
            "transform.select_representation.busy_ms":
                per_op_ms(self.busy, "transform.select_representation"),
            "transform.selector.term_excess":
                ratio(self.selector_chosen_terms, self.selector_min_terms),
            "transform.selector.min_terms": self.selector_min_terms / ops,
            "transform.selector.optimal_share":
                ratio(self.selector_optimal, self.selector_calls),
            "transform.character_series.terms":
                self.terms["transform.character_series"] / ops,
            "binom.binom_char.calls": self.calls["binom.binom_char"] / ops,
        }
        for key in ("series.ode_residual", "series.operator_identity_residual",
                    "series.coefficients", "transform.character_series",
                    "transform.verify_triple_relations", "binom.binom_char",
                    "binom.reflect_char", "integrals.check_closed_form_I",
                    "integrals.check_closed_form_II", "integrals.quad_I",
                    "integrals.quad_II", "integrals.verify_sign_bridge"):
            out[f"{key}.busy_ms"] = per_op_ms(self.busy, key)
        return out
