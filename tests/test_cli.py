"""Tests for the command-line interface: formats, exit codes, round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gausshyp import (IntegralSpec, check_closed_form_I, check_closed_form_II,
                      quad_I, quad_II, ratio_identity_sides,
                      theta_identity_sides)
from gausshyp import integrals
from gausshyp.cli import (INTEGRAL_AS, INTEGRAL_NI, RunConfig,
                          _verify_integrals, format_float, main, render_json)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- serialization primitives ----

def test_format_float():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-0.0) == "0"
    assert format_float(2.0) == "2"
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_render_json_round_trip():
    doc = {"a": 1, "b": 0.1, "c": [True, None, "x/y"], "d": {"e": 2.0},
           "f": -0.0, "g": 1e22, "h": "quote\"and\\slash"}
    s = render_json(doc)
    assert render_json(json.loads(s)) == s


# ---- eval ----

def test_eval_float(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.5")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["outputs"]["value"] == pytest.approx(1.3862943611198906,
                                                       abs=1e-11)
    assert report["outputs"]["terms_used"] >= 1
    assert report["outputs"]["selected_representation"] in ("raw", "transformed")


def test_eval_exact(capsys):
    code, out, _ = run(capsys, "eval", "--mode", "exact", "-a", "-2", "-b", "3",
                       "-c", "1", "-x", "1/4")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["value"] == "-1/8"
    assert report["outputs"]["transformed_value"] == "-1/8"
    assert report["outputs"]["terminated"] is True
    assert report["outputs"]["agreement_residual"] == 0


def test_eval_output_round_trips_bytes(capsys):
    for argv in (["eval", "-a", "1", "-b", "1", "-c", "2", "-x", "0.5"],
                 ["eval", "--mode", "exact", "-a", "1/2", "-b", "1/2",
                  "-c", "3/2", "-x", "1/4"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) + "\n" == out


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--output", "csv", "-a", "1", "-b", "1",
                       "-c", "2", "-x", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["a", "b", "c", "x"]
    assert len(rows) == 2 and rows[1][-1] == "pass"


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--output", "text", "-a", "1", "-b", "1",
                       "-c", "2", "-x", "0.5")
    assert code == 0
    assert "value:" in out and "status: pass" in out


def test_eval_domain_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "0",
                         "-x", "0.5")
    assert code == 2 and out == ""
    assert "c" in err
    code, _, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                       "-x", "1.5")
    assert code == 2 and "x" in err
    for a, c in (("nan", "2"), ("inf", "2"), ("1", "nan")):
        code, out, err = run(capsys, "eval", "-a", a, "-b", "1", "-c", c,
                             "-x", "0.5")
        assert code == 2 and out == "" and "finite" in err
    # values past the float range: an exact prefactor (19/10)**2001, an
    # exact parameter 1e400, and float prefactors 1.99**2000 and 1.99**2000.5
    for argv in (["--mode", "exact", "-a=-2000", "-b=1/2", "-c=3/2", "-x=-9/10"],
                 ["--mode", "exact", "-a=1e400", "-b=1", "-c=2", "-x=1/2"],
                 ["-a=-2000", "-b=1", "-c=1", "-x=-0.99"],
                 ["-a=-2000", "-b=1", "-c=1.5", "-x=-0.99"]):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert "float range" in err and "Traceback" not in err


def test_eval_no_convergence_exit_3(capsys):
    code, out, err = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.9", "--max-terms", "5")
    assert code == 3 and out == ""
    assert "terms" in err


def test_eval_term_beyond_float_range_exit_3(capsys):
    # the transformed side's terms pass 1e308 before its majorant drops
    # below 1, which must leave the bound unmet rather than raise
    code, out, err = run(capsys, "eval", "--mode", "exact", "-a=-400",
                         "-b=1/2", "-c=3/2", "-x=9/10", "--max-terms", "3700")
    assert code == 3 and out == ""
    assert "terms" in err


def test_closed_stdout_ends_cleanly():
    # the read end closes before the CLI writes, so its write hits EPIPE
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gausshyp.cli", "eval", "-a", "1", "-b", "1",
         "-c", "2", "-x", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_closed_stdout_closes_the_null_device_fd(monkeypatch, tmp_path):
    # in process, each broken pipe opens the null device once; that fd must
    # not stay open after it has been duplicated onto stdout
    opened = []
    real_open = os.open

    def recording_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        opened.append(fd)
        return fd

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        for _ in range(3):
            assert main(["eval", "-a", "1", "-b", "1", "-c", "2",
                         "-x", "0.5"]) == 0
        monkeypatch.undo()
    assert len(opened) == 3
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


# ---- verify ----

@pytest.mark.parametrize("suite", ["binom", "ode", "triple", "integrals"])
def test_verify_suites_pass(capsys, suite):
    code, out, err = run(capsys, "verify", suite)
    assert code == 0, err
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(chk["failures"] == 0 for chk in report["checks"])


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    report = json.loads(out)
    suites = {chk["suite"] for chk in report["checks"]}
    assert suites == {"binom", "ode", "triple", "integrals"}
    assert report["status"] == "pass"


def test_verify_integrals_worst_residual_per_check(capsys):
    code, out, _ = run(capsys, "verify", "integrals")
    assert code == 0
    worst = {chk["check"]: chk.get("worst_residual")
             for chk in json.loads(out)["checks"]}
    specs = [IntegralSpec(a, n, i) for a in INTEGRAL_AS for n, i in INTEGRAL_NI]
    for name, check in (("closed-form-I", check_closed_form_I),
                        ("closed-form-II", check_closed_form_II)):
        results = [check(spec) for spec in specs]
        assert worst[name] == max(abs(r.quadrature - r.closed_form)
                                  for r in results)
    for name, sides in (("ratio-identity", ratio_identity_sides),
                        ("theta-identity", theta_identity_sides)):
        residuals = []
        for spec in specs:
            lhs, rhs = sides(spec, quad_I(spec), quad_II(spec))
            residuals.append(abs(lhs - rhs))
        assert worst[name] == max(residuals)


def test_verify_integrals_runs_each_quadrature_once(monkeypatch):
    # 64 specs, one quad_I and one quad_II each, shared by all four checks
    calls = []
    real = integrals._adaptive_gauss

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrals, "_adaptive_gauss", counting)
    entries = _verify_integrals(RunConfig())
    assert all(entry["status"] == "pass" for entry in entries)
    assert len(calls) == 2 * len(INTEGRAL_AS) * len(INTEGRAL_NI) == 128


def test_verify_looser_tol_still_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_absurd_tol_fails_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "integrals", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "binom", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "check", "cases", "failures",
                       "worst_residual", "status"]
    assert all(row[-1] == "pass" for row in rows[1:])


# ---- bench ----

def test_bench_csv_default_grid(capsys):
    code, out, _ = run(capsys, "bench", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert len(data) == 25  # 5 parameter sets x 5 points
    sel = header.index("selected")
    raw_terms = header.index("raw_terms")
    tr_terms = header.index("transformed_terms")
    raw_done = header.index("raw_terminated")
    tr_done = header.index("transformed_terminated")
    for row in data:
        assert row[header.index("status")] == "ok"
        if row[raw_done] == "true" and row[tr_done] == "false":
            assert row[sel] == "raw"
            assert int(row[raw_terms]) < int(row[tr_terms])
        if row[tr_done] == "true" and row[raw_done] == "false":
            assert row[sel] == "transformed"
            assert int(row[tr_terms]) < int(row[raw_terms])


def test_bench_custom_grid(capsys):
    code, out, _ = run(capsys, "bench", "--grid", "3,1,2;1,1,2",
                       "-x", "0.5,0.9", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 4
    first = report["rows"][0]
    assert first["selected"] == "transformed"
    assert first["transformed_terms"] == 2


def test_bench_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "bench", "--grid", "1,2")
    assert code == 2 and "triple" in err
