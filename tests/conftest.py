"""Shared fixtures."""

from __future__ import annotations

import inspect
import sys

import pytest

from gausshyp import series


@pytest.fixture
def term_steps():
    """The k of every term step _integer_sum takes while the test runs.

    A line tracer on that function alone records k each time its step line,
    the one that forms the factor p(k), runs, so that a test asserts on the
    work done rather than on wall time.
    """
    code = series._integer_sum.__code__
    lines, first = inspect.getsourcelines(series._integer_sum)
    step = first + next(i for i, line in enumerate(lines)
                        if line.strip().startswith("p = (na + k * da)"))
    steps: list[int] = []

    def trace_line(frame, event, arg):
        if event == "line" and frame.f_lineno == step:
            steps.append(frame.f_locals["k"])
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        yield steps
    finally:
        sys.settrace(previous)
