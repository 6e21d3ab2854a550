"""Shared fixtures."""

from __future__ import annotations

import inspect
import sys

import pytest

from gausshyp import series


def _step_lines(func, step: str) -> set[int]:
    """The numbers of the lines of func that start with step."""
    lines, first = inspect.getsourcelines(func)
    return {first + i for i, line in enumerate(lines)
            if line.strip().startswith(step)}


@pytest.fixture
def term_steps():
    """The k of every term step either summation loop takes while the test
    runs: in _integer_sum the line that forms the factor p(k), in
    eval_series's float loop the one line that forms t_{k+1}.  Each loop
    steps each term once, so no k shows twice within one sum.

    A line tracer on those two functions alone records k each time a step
    line runs, so that a test asserts on the work done rather than on wall
    time.
    """
    counters = {series._integer_sum.__code__: "k",
                series.eval_series.__code__: "kf"}
    step_lines = (_step_lines(series._integer_sum, "p = (na + k * da)")
                  | _step_lines(series.eval_series, "term = term * (a + kf)"))
    steps: list = []

    def trace_line(frame, event, arg):
        if event == "line" and frame.f_lineno in step_lines:
            steps.append(frame.f_locals[counters[frame.f_code]])
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code in counters else None

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        yield steps
    finally:
        sys.settrace(previous)
