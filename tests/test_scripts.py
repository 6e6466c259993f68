"""The experiment script under scripts/, the scan-cyclic command and the
benchmark's job runner run end to end and print their JSON."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, script: str, *args: str, folder: str = "scripts") -> str:
    return _python(tmp_path, str(ROOT / folder / script), *args)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _python(tmp_path, *args: str, returncode: int = 0) -> str:
    done = subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == returncode, done.stderr
    return done.stdout


def test_run_scan(tmp_path):
    # the scan-cyclic command replaced scripts/run_scan.py: its summary keeps
    # the script's tallies, and its CSV one row per composite
    out = tmp_path / "scan.csv"
    stdout = _python(
        tmp_path, "-m", "malle_lab.cli", "scan-cyclic", "--max", "500", "--jobs", "2",
        "--out", str(out),
    )
    summary = json.loads(stdout)
    assert set(summary) == {
        "n_max", "model", "composite_count", "count_i", "count_ii", "fraction_i",
        "fraction_ii", "flag_ii_by_case", "flag_i_by_n_mod_12", "csv", "manifest",
    }
    assert summary["n_max"] == 500 and summary["csv"] == str(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,a,d2,theta,flag_i,flag_ii,case"
    assert len(lines) == summary["composite_count"] + 1


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly(tmp_path):
    # a reader that stops early (| head -2) closes the pipe: the process ends
    # as a tool killed by SIGPIPE does, not with a usage error on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "malle_lab.cli", "coeffs", "C2", "--max", "100000"],
        cwd=tmp_path,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,count\r\n"  # the csv module ends rows with CRLF
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == -signal.SIGPIPE
    assert stderr == b""


def test_run_scan_rejects_jobs_below_one(tmp_path):
    _python(
        tmp_path, "-m", "malle_lab.cli", "scan-cyclic", "--max", "500", "--jobs", "0",
        returncode=2,
    )


def test_main_term_regression(tmp_path):
    stdout = _run(tmp_path, "main_term_regression.py", "--group", "C2", "--xmax", "2000")
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert len(rows) == 12
    for row in rows:
        assert set(row) == {"X", "observed", "predicted", "rel_err"}
    assert rows[-1]["X"] == 2000 and rows[-1]["observed"] > 0


def test_bench_job_traces_caches(tmp_path):
    # the tracer reads cache_info() of the caches it names; a traced job
    # fails if one of them stops being an lru_cache
    spec = {
        "id": "t",
        "call": "cli",
        "args": ["series", "C2xC2", "--s", "3/2", "--pmax", "200", "--surjective"],
        "trace": 1,
    }
    report = json.loads(_run(tmp_path, "job.py", json.dumps(spec), folder="bench"))
    assert report["rc"] == 0
    assert report["layers"]["series.restricted_local_factor.misses"] > 0


def test_bench_job_traces_the_oracle(tmp_path):
    # the tracer counts DirichletCharacter.conductor as a property and mul as
    # a method, and reads .order of every character characters_up_to returns;
    # a traced job fails if one of them changes kind.  Counts build no
    # characters, so the characters come from the L-values of a residue
    spec = {"id": "t", "call": "residue", "args": ["C3", "2000"], "trace": 1}
    report = json.loads(_run(tmp_path, "job.py", json.dumps(spec), folder="bench"))
    assert report["rc"] == 0
    assert report["layers"]["oracle.pool_characters"] > 0
    assert report["layers"]["oracle.conductor.calls"] > 0
    spec = {"id": "t", "call": "cli", "args": ["count", "C2xC2", "--X", "2000"], "trace": 1}
    report = json.loads(_run(tmp_path, "job.py", json.dumps(spec), folder="bench"))
    assert report["rc"] == 0
