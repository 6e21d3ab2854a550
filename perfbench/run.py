"""The gausshyp benchmark: the public CLI driven in-process, in a closed loop.

    python3 perfbench/run.py --workload float-eval --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each ``gausshyp.cli.main(argv)`` call
starts when the previous one has returned, with stdout captured.  The seed
builds the workload's argv pool (``workloads.py``); the program receives
only those argv lists.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs alternating untraced and traced passes over a fixed list
of operations and reports the per-layer metrics (``spans.py``), the tracing
overhead, the scipy and mpmath yardsticks, and the failed share of the
untimed float defect probe.

Every output is checked after the timed loop (``checks.py``).  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full results record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import mpmath

import checks
import workloads
from spans import UNITS as SPAN_UNITS
from spans import LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Calls in one run at least, so that the best call of even the one-point
#: ``verify all`` pool is taken from many.
MIN_CALLS = 110
#: Fresh interpreters started per run to time set-up: between passes, one
#: each time another 1/SETUP_REPEATS of ``--seconds`` has gone by, so that
#: the samples spread over the run as the host's speed drifts, and the rest
#: after the loop.  The median is reported.
SETUP_REPEATS = 7
#: Untimed operations before the loop, so lazy set-up is not measured.
WARMUP_OPS = 8
#: Operations in one pass of a traced run.
TRACE_PASS_OPS = {"float-eval": 576, "exact-eval": 72, "verify-all": 8}
#: Points timed for the mpmath yardstick (scipy takes the whole float pool).
MPMATH_REF_POINTS = 64

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

LAYER_UNITS = {**SPAN_UNITS, "trace.overhead_share": "share",
               "ref.scipy_hyp2f1.us_per_point": "us",
               "ref.mpmath_hyp2f1.us_per_point": "us",
               "probe.float_eval.failed_share": "share"}

WAITING_NOTE = ("one client, one process, one thread: no layer waits for "
                "another, so no waiting time is reported")

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from gausshyp.cli import main; sys.exit(main(sys.argv[2:]))")


def load_cli():
    """Import gausshyp.cli from this checkout's src/, or exit with code 1."""
    if not (SRC / "gausshyp" / "cli.py").is_file():
        sys.exit(f"no gausshyp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gausshyp.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"gausshyp imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv) -> tuple[checks.Outcome, int]:
    """Run ``main(argv)`` with stdout and stderr captured; (outcome, ns)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects an argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        code, raised = None, type(exc).__name__
    elapsed = perf_counter_ns() - start
    return checks.Outcome(code, out.getvalue(), raised), elapsed


class Tally:
    """Distinct outcomes per pool index with their counts.

    Repeats of a point keep one copy of its output, so memory stays that of
    the pool, not of the run.
    """

    def __init__(self) -> None:
        self.by_point: dict[int, Counter] = {}
        self.first: dict[int, checks.Outcome] = {}

    def add(self, index: int, outcome: checks.Outcome) -> None:
        self.by_point.setdefault(index, Counter())[outcome] += 1
        self.first.setdefault(index, outcome)

    def attempted(self) -> int:
        return sum(sum(c.values()) for c in self.by_point.values())


def closed_loop(cli, points, seconds: float, tally: Tally,
                between) -> list[list[int]]:
    """Whole passes over the pool, as many as fit in ``seconds`` judged by
    the previous pass, and at least MIN_CALLS calls; the latencies in ns of
    each pass, in pool order.  ``between()`` runs after each pass, untimed."""
    passes = []
    start = perf_counter()
    pass_s = 0.0
    while (len(passes) * len(points) < MIN_CALLS
           or perf_counter() - start + pass_s <= seconds):
        latencies = []
        pass_start = perf_counter()
        for index, point in enumerate(points):
            outcome, ns = invoke(cli, point.argv)
            latencies.append(ns)
            tally.add(index, outcome)
        passes.append(latencies)
        pass_s = perf_counter() - pass_start
        between()
    return passes


def time_setup(first) -> float:
    """Wall time of a fresh interpreter that imports gausshyp and runs the
    workload's first operation."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *first.argv],
                   cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    return perf_counter() - start


def judge(tally: Tally, refs: list) -> dict:
    """Check every outcome once; count failures by reason.

    ``correct`` is false when one point gave two different outputs, or when
    any operation failed at all: exited non-zero, raised, or returned a
    value its check rejects.
    """
    reasons: Counter = Counter()
    silent = 0
    for index, counts in tally.by_point.items():
        for outcome, n in counts.items():
            failure = checks.check(outcome, refs[index])
            if failure:
                reasons[failure.reason] += n
                silent += n * failure.silent
    failed = sum(reasons.values())
    nondeterministic = sum(len(c) > 1 for c in tally.by_point.values())
    correct = not nondeterministic and not failed
    return {"correct": correct, "failed": failed, "reasons": dict(reasons),
            "silent_failures": silent, "nondeterministic_points": nondeterministic}


def harrell_davis(n: int, p: float) -> list[float]:
    """Weights of the Harrell-Davis estimate of the p-quantile of n sorted
    values: their average under a Beta(p(n+1), (1-p)(n+1)) law.

    One order statistic jumps when the quantile falls where the costs of
    two kinds of call meet; the weighted average moves smoothly.
    """
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True))
           for i in range(n + 1)]
    return [hi - lo for lo, hi in zip(cdf, cdf[1:])]


def measure(cli, points, refs, seconds: float) -> tuple[dict, dict]:
    """Tracing off: the end-to-end metrics.

    Every point of the pool is called many times over the run, and its
    latency is the fastest of its calls.  On a shared host the speed of the
    processor swings by up to 2x over seconds; the fastest call of a point
    is the one that recurs from run to run, and a slower program slows
    every call, the fastest included.  ``latency_ms_p50`` and
    ``latency_ms_p90`` are Harrell-Davis quantiles of these per-point
    latencies, and ``ops_per_s`` is the pool size over their sum: calls
    per second with every call at its best.
    """
    for p in points[:WARMUP_OPS]:
        invoke(cli, p.argv)
    tally = Tally()
    setup_times: list[float] = []
    start = perf_counter()

    def between_passes():
        if len(setup_times) < (perf_counter() - start) / seconds * SETUP_REPEATS:
            setup_times.append(time_setup(points[0]))

    passes = closed_loop(cli, points, seconds, tally, between_passes)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(points[0]))
    verdict = judge(tally, refs)
    attempted = tally.attempted()
    best = [min(column) for column in zip(*passes)]

    def quantile_ms(p):
        weights = harrell_davis(len(best), p)
        return sum(w * ns for w, ns in zip(weights, sorted(best))) / 1e6

    metrics = {
        "ops_per_s": len(best) / (sum(best) / 1e9),
        "latency_ms_p50": quantile_ms(0.5),
        "latency_ms_p90": quantile_ms(0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tally": tally, "verdict": verdict, "attempted": attempted,
                     "calls_per_point": len(passes),
                     "loop_ops_per_s": attempted / (sum(map(sum, passes)) / 1e9),
                     "setup_samples_s": setup_times,
                     "failed_share": verdict["failed"] / attempted}


def traced_passes(cli, workload: str, points, seconds: float, tally: Tally):
    """Alternate untraced and traced passes over one fixed operation list,
    as many pairs as fit in ``seconds`` and at least two.  Returns the
    per-layer metrics of each traced pass and the latency sums of both."""
    n = TRACE_PASS_OPS[workload]
    order = [i % len(points) for i in range(n)]
    for i in order[:WARMUP_OPS]:
        invoke(cli, points[i].argv)
    plain_ns, traced_ns, layers = [], [], []
    start = perf_counter()
    pair, pair_s = 0, 0.0
    while pair < 2 or perf_counter() - start + pair_s <= seconds:
        pair_start = perf_counter()
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer, stats, total = Tracer(), LayerStats(), 0
            if traced:
                tracer.install()
            try:
                for i in order:
                    outcome, ns = invoke(cli, points[i].argv)
                    total += ns
                    tally.add(i, outcome)
                    if traced:
                        stats.add_request(tracer.take())
            finally:
                tracer.remove()
            if traced:
                traced_ns.append(total)
                layers.append(stats.metrics())
            else:
                plain_ns.append(total)
        pair, pair_s = pair + 1, perf_counter() - pair_start
    return layers, plain_ns, traced_ns


def yardsticks(seed: int) -> dict[str, float]:
    """Outside references over the float workload's points, never gated."""
    import numpy as np
    import scipy.special

    pts = workloads.float_points(seed)
    a, b, c, x = (np.array([getattr(p, k) for p in pts]) for k in "abcx")
    runs = []
    for _ in range(15):
        start = perf_counter_ns()
        scipy.special.hyp2f1(a, b, c, x)
        runs.append(perf_counter_ns() - start)
    scipy_us = statistics.median(runs) / 1e3 / len(pts)
    runs = []
    sample = pts[:MPMATH_REF_POINTS]
    for _ in range(3):
        start = perf_counter_ns()
        for p in sample:
            mpmath.hyp2f1(p.a, p.b, p.c, p.x)
        runs.append(perf_counter_ns() - start)
    mpmath_us = statistics.median(runs) / 1e3 / len(sample)
    return {"ref.scipy_hyp2f1.us_per_point": scipy_us,
            "ref.mpmath_hyp2f1.us_per_point": mpmath_us}


def defect_probe(cli, seed: int) -> dict:
    """Each point of the float defect probe once, untimed, and checked.

    The probe is the full float mix (``workloads.probe_points``), on which
    the float bound that ignores rounding and the term budget of ROADMAP
    aim 3 make about a fifth of the calls fail today.  Its calls are not
    operations of the workload: they count in neither ``attempted`` nor
    ``failed``, and their share is a per-layer metric, so that the defect
    stays in view until it is fixed.
    """
    tally = Tally()
    points = workloads.probe_points(seed)
    for i, p in enumerate(points):
        tally.add(i, invoke(cli, p.argv)[0])
    verdict = judge(tally, [checks.reference(p) for p in points])
    return {"attempted": len(points), "failed": verdict["failed"],
            "failed_share": verdict["failed"] / len(points),
            "reasons": verdict["reasons"],
            "silent_failures": verdict["silent_failures"]}


def trace_run(cli, workload: str, points, refs, seconds: float, seed: int):
    tally = Tally()
    layers, plain_ns, traced_ns = traced_passes(cli, workload, points, seconds,
                                                tally)
    metrics = {key: statistics.median(layer[key] for layer in layers)
               for key in layers[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0)
    metrics.update(yardsticks(seed))
    probe = defect_probe(cli, seed)
    metrics["probe.float_eval.failed_share"] = probe["failed_share"]
    verdict = judge(tally, refs)
    attempted = tally.attempted()
    return metrics, {"tally": tally, "verdict": verdict, "attempted": attempted,
                     "traced_passes": len(layers),
                     "ops_per_pass": TRACE_PASS_OPS[workload],
                     "failed_share": verdict["failed"] / attempted,
                     "defect_probe": probe}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gausshyp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "seed": seed, "commit": _commit(), "source_sha256": _source_sha256()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    points = workloads.points_for(args.workload, args.seed)
    refs = [checks.reference(p) for p in points]
    if args.trace:
        metrics, info = trace_run(cli, args.workload, points, refs,
                                  args.seconds, args.seed)
        units = LAYER_UNITS
    else:
        metrics, info = measure(cli, points, refs, args.seconds)
        units = END_TO_END_UNITS
    tally, verdict = info.pop("tally"), info.pop("verdict")
    first = [tally.first[i] for i in sorted(tally.first)]
    digest = checks.digest(first) if args.workload != "float-eval" else None
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "benchmark": "gausshyp", "workload": args.workload,
        "trace": args.trace, "seconds": args.seconds,
        "loop": "closed, 1 client", "waiting": WAITING_NOTE,
        "environment": environment(args.seed), "pool_size": len(points),
        **info, **verdict, "exact_digest": digest,
        "exact_digest_points": len(first), "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": verdict["correct"], "attempted": info["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
