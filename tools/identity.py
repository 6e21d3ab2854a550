"""Compare the CLI's outputs on one argv corpus between this tree and REV.

    python tools/identity.py --against REV

REV is checked out with ``git worktree add --detach`` into a temporary
directory, which is removed again on exit, also on error, so that ``git
worktree list`` and ``git status`` end as they began.  Only local git is
used.

The corpus is built once, from this tree:

- the float-eval, exact-eval and probe pools of seeds 1-3 from
  ``perfbench/workloads.py``;
- every argv of ``tests/cli_contract.json``;
- ``verify all`` at its default tol, 1e-6, 1e-30 and 1e-320, in every
  format, and ``bench`` in both modes and every format;
- 1500 ``eval`` and 1500 ``bench`` argv drawn with a fixed seed from the
  edge values of the CLI fuzz test in ``tests/test_cli.py``;
- positive controls: argv whose outputs earlier changes moved on purpose;
- the four demos, each run as a script.

Each tree runs the whole corpus in one subprocess, in process through
``gausshyp.cli.main`` on that tree's ``src``, and records stdout, stderr
and the exit code of each argv.  The two trees run side by side.  The
counts are printed per group, then every moved argv with both outputs.
The exit status is 0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import runpy
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("exact_arithmetic.py", "integral_identities.py",
         "series_and_transformation.py", "three_series.py")
FORMATS = ("json", "csv", "text")

# The edge values of test_fuzzed_argv_exit_0_to_3_within_budget, and the
# tols of both CLI fuzz tests in tests/test_cli.py.
VALUES = ["0.5", "-0.5", "3/7", "-22/7", "1", "2", "0", "1e308", "-1e308",
          "5e-324", "-20000", "-1020", "-7"]
C_VALUES = ["0.5", "-0.5", "3/7", "-22/7", "1", "2", "1e308", "5e-324",
            "-20001/2"]
POINTS = ["0.5", "-0.5", "3/7", "0", "5e-324", "0.99", "-0.99", "99/100",
          "-999999/1000000", "0.9999999999999999", "-0.9999999999999999"]
REFUSED = ["nan", "inf", "-inf", "1/0", "1", "0", "-7"]
TOLS = ["5e-324", "1e-320", "1e-300", "1e-30", "1e-12", "1e-3", "1e300"]

FUZZ_SEED = 3616
FUZZ_EACH = 1500

#: x inside (-1, 1) whose double is 1.0
NEAR_ONE = "99999999999999999999/100000000000000000000"

#: argv whose outputs a change moved on purpose, as its CHANGES.md line
#: names them: a run against the commit before that change reports them
CONTROLS = [
    # a scale times its series past the float range is refused inside the
    # sum ("scaled series value must be finite")
    ["eval", "-a=-5", "-b=440.5", "-c=0.5", "-x=0.75"],
    ["eval", "-a=440.5", "-b=-18.5", "-c=39.875", "-x=0.75"],
    ["eval", "-a=-91/35", "-b=440.5", "-c=-18.5", "-x=0.7860465436980572",
     "--mode=exact", "--tol=1e300", "--max-terms=10000"],
    # bench rows at points eval refuses read domain-error
    ["bench", "--mode=exact", "--grid=1/3,2/7,5/9", "-x=99/100",
     "--output=csv"],
    ["bench", "--tol=1e300", "--grid=0.5,-42,-18.5", "-x=-0.9",
     "--output=csv"],
    ["bench", "--grid=-5,440.5,0.5", "-x=0.75", "--output=csv"],
    # an exact x inside (-1, 1) whose double is +-1.0 has its own message
    *([command, *grid, f"-x={sign}{x}", f"--mode={mode}"]
      for command, grid in (("eval", ["-a=1/2", "-b=1/2", "-c=1"]),
                            ("bench", ["--grid=1/2,1/2,1"]))
      for mode in ("float", "exact") for sign in ("", "-")
      for x in (NEAR_ONE, "0.99999999999999999999")),
]


def _fuzz_argv(rng: random.Random, bench: bool) -> list[str]:
    """An eval or bench argv in either mode, as the CLI fuzz test draws
    one: in one argv of four, one value is refused."""
    triples, points = ((rng.randint(1, 2), rng.randint(1, 2)) if bench
                       else (1, 1))
    values = [rng.choice(C_VALUES if i % 3 == 2 else VALUES)
              for i in range(3 * triples)]
    values += [rng.choice(POINTS) for _ in range(points)]
    if not rng.randint(0, 3):
        values[rng.randrange(len(values))] = rng.choice(REFUSED)
    if bench:
        grid = [values[i:i + 3] for i in range(0, 3 * triples, 3)]
        words = ["bench", "--grid=" + ";".join(map(",".join, grid)),
                 "-x=" + ",".join(values[3 * triples:])]
    else:
        words = ["eval", *map("-{}={}".format, "abcx", values)]
    if rng.random() < 0.5:
        words.append("--tol=" + rng.choice(TOLS))
    return [*words, f"--mode={rng.choice(['float', 'exact'])}",
            f"--max-terms={rng.randint(1, 500)}",
            f"--output={rng.choice(FORMATS)}"]


def build_corpus() -> list[dict]:
    """The corpus: one {"group", "argv"} or {"group", "demo"} per entry."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    corpus = [{"group": f"{name} pool, seed {seed}", "argv": list(p.argv)}
              for name, points in (("float-eval", workloads.float_points),
                                   ("exact-eval", workloads.exact_points),
                                   ("probe", workloads.probe_points))
              for seed in (1, 2, 3) for p in points(seed)]
    contract = json.loads((ROOT / "tests" / "cli_contract.json").read_text())
    corpus += [{"group": "cli_contract.json", "argv": case["argv"]}
               for case in contract]
    corpus += [{"group": "verify all", "argv": ["verify", "all", *tol,
                                                f"--output={fmt}"]}
               for tol in ([], ["--tol=1e-6"], ["--tol=1e-30"],
                           ["--tol=1e-320"]) for fmt in FORMATS]
    corpus += [{"group": "bench", "argv": ["bench", f"--mode={mode}",
                                           f"--output={fmt}"]}
               for mode in ("float", "exact") for fmt in FORMATS]
    rng = random.Random(FUZZ_SEED)
    corpus += [{"group": f"fuzzed {command}",
                "argv": _fuzz_argv(rng, command == "bench")}
               for command in ("eval", "bench") for _ in range(FUZZ_EACH)]
    corpus += [{"group": "controls", "argv": argv} for argv in CONTROLS]
    corpus += [{"group": "demos", "demo": name} for name in DEMOS]
    return corpus


def _captured(call) -> list:
    """[exit code, stdout, stderr] of call(); an exception that escapes is
    its stderr, with a null code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an output like any other
            code = None
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return [code, out.getvalue(), err.getvalue()]


def run_corpus(corpus_path: str, tree: str, out_path: str) -> None:
    """Run the corpus on tree's gausshyp, which must be first on sys.path,
    and write one [code, stdout, stderr] per entry to out_path."""
    import gausshyp
    from gausshyp.cli import main
    if not Path(gausshyp.__file__).resolve().is_relative_to(
            Path(tree).resolve()):
        sys.exit(f"gausshyp came from {gausshyp.__file__}, not from {tree}")
    results = []
    for entry in json.loads(Path(corpus_path).read_text()):
        if "argv" in entry:
            results.append(_captured(lambda: main(entry["argv"])))
            continue
        demo = Path(tree) / "demos" / entry["demo"]

        def script() -> int:
            runpy.run_path(str(demo), run_name="__main__")
            return 0
        results.append(_captured(script) if demo.exists()
                       else [None, "", f"no demo {demo.name}\n"])
    Path(out_path).write_text(json.dumps(results))


def _start(tree: Path, corpus_path: Path, out_path: Path) -> subprocess.Popen:
    """A subprocess that runs the corpus on tree's src."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(Path(__file__).parent)])}
    code = "import sys, identity; identity.run_corpus(*sys.argv[1:])"
    return subprocess.Popen([sys.executable, "-c", code, str(corpus_path),
                             str(tree), str(out_path)], cwd=tree, env=env)


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                   stdout=subprocess.DEVNULL)


def _report(corpus: list[dict], ours: list, theirs: list, rev: str) -> int:
    groups: dict[str, list[int]] = {}
    moved = []
    for entry, new, old in zip(corpus, ours, theirs):
        counts = groups.setdefault(entry["group"], [0, 0])
        counts[0] += 1
        if new != old:
            counts[1] += 1
            moved.append((entry, new, old))
    print(f"{len(corpus)} entries, {len(moved)} moved against {rev}")
    for group, (total, changed) in groups.items():
        print(f"  {group}: {total}, {changed} moved")
    for entry, new, old in moved:
        print("\n" + "=" * 72)
        print(" ".join(entry["argv"]) if "argv" in entry
              else f"demos/{entry['demo']}")
        for side, (code, out, err) in ((rev, old), ("this tree", new)):
            print(f"--- {side}: exit {code}\n[stdout]\n{out}\n[stderr]\n{err}")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision to compare this tree with")
    rev = parser.parse_args().against
    # SIGTERM unwinds as an exception does, through the cleanup below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    corpus = build_corpus()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        corpus_path = tmp / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        tree = tmp / "tree"
        _git("worktree", "add", "--quiet", "--detach", str(tree), rev)
        runs: list[subprocess.Popen] = []
        try:
            runs += [_start(path, corpus_path, tmp / f"{name}.json")
                     for name, path in (("ours", ROOT), ("theirs", tree))]
            if any(run.wait() for run in runs):
                sys.exit("a corpus run failed")
            ours, theirs = (json.loads((tmp / f"{name}.json").read_text())
                            for name in ("ours", "theirs"))
        finally:
            for run in runs:  # each has exited, unless an error cut in
                run.kill()
                run.wait()
            _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "prune")
    return _report(corpus, ours, theirs, rev)


if __name__ == "__main__":
    sys.exit(main())
