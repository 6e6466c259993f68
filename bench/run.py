"""Benchmark of malle-lab: oracle counts, Euler products and exact tables.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1] [--repeat K]

--seconds is the length of one run of one workload; it defaults to
run_seconds in BENCHMARK.json, the length automated runs pass.

Each job runs in a fresh interpreter (bench/job.py), one at a time, the way
one CLI invocation does, so no cache of the program carries over from one
job to the next.  A run repeats whole rounds of the workload's jobs while a
further round still fits in --seconds, then checks every output (checks.py)
and prints a table followed, as its last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
round also runs each job under the span recorder (tracer.py), the metrics
are the per-layer ones, and the spans are written to
.bench_out/spans-<workload>-seed<seed>.jsonl.  --workload all runs the three
workloads in turn, each for --seconds, and its last line holds one such
object per workload.  --repeat K makes K runs per workload with seeds
seed..seed+K-1 and prints the median, quartiles and spread of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

PRECISION = "50"  # MALLE_LAB_PRECISION, the documented default
RUN_DEADLINE_S = 150  # no job is started or left running past this

# BENCHMARK.json names the metrics, their units and the length of a run.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class JobRun:
    job: workloads.Job
    traced: bool
    ok: bool
    setup_s: float = 0.0
    job_s: float = 0.0
    ref_s: float = 0.0  # job_s at the reference speed (job.py scales it)
    probe_s: float = 0.0
    maxrss_kib: int = 0
    error: str = ""
    stdout: str = ""
    result: object = None
    out_text: str | None = None
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MALLE_LAB_PRECISION"] = PRECISION
    return env


def run_job(job, tag: str, traced: bool, work: Path, deadline: float) -> JobRun:
    """Start one job process, wait for it, and read its report."""
    out_file = work / f"{job.name}.out"
    out_file.unlink(missing_ok=True)
    args = [str(out_file) if a == workloads.OUT else a for a in job.args]
    spec = {"id": tag, "call": job.call, "args": args, "trace": traced}
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
        cwd=ROOT, env=_job_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and its scan workers
        proc.communicate()
        return JobRun(job, traced, False, error="killed at the run deadline")
    if proc.returncode != 0:
        return JobRun(job, traced, False, error=f"exit {proc.returncode}: {stderr.strip()[-300:]}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return JobRun(job, traced, False, error=f"unreadable report: {stdout[-200:]!r}")
    return JobRun(
        job, traced, report["rc"] == 0,
        setup_s=report["ready"] - started,
        job_s=report["job_s"],
        ref_s=report["ref_s"],
        probe_s=report["probe_s"],
        maxrss_kib=report["maxrss_kib"],
        error="" if report["rc"] == 0 else f"cli exit {report['rc']}: {stderr.strip()[-300:]}",
        stdout=report["stdout"],
        result=report["result"],
        out_text=out_file.read_text() if out_file.exists() else None,
        layers=report.get("layers", {}),
        spans=report.get("spans", []),
    )


def _median(values):
    return statistics.median(values) if values else 0.0


def _round_layers(runs: list[JobRun], notes: dict) -> dict:
    """Per-layer figures of one round from its traced and untraced jobs."""
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    total: dict[str, float] = {}
    for r in traced:
        for key, value in r.layers.items():
            if key.endswith(".cache_entries"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    total["groups.span_per_subgroup"] = ratio(total.get("groups.subgroups_built", 0), total.get("groups.span.calls", 0))
    total["oracle.pool_exact_order_ratio"] = ratio(total.get("oracle.pool_characters", 0), total.get("oracle.pool_candidates", 0))
    total["series.factor_evals"] = sum(
        total.get(k, 0) for k in ("series.restricted_local_factor.hits",
                                  "series.restricted_local_factor.misses",
                                  "series.inline_factor_evals"))
    # wall times: the two scans are scaled by probes on different numbers of cores
    wall = {r.job.name: r.job_s for r in plain}
    total["theta.scan_speedup"] = ratio(wall.get("scan", 0), wall.get("scan-parallel", 0))
    total["series.residue_c2_digits"] = notes.get("residue_c2_digits", 0.0)
    total["tracer.overhead_pct"] = 100 * (ratio(sum(r.ref_s for r in traced), sum(r.ref_s for r in plain)) - 1)
    return {name: total.get(name, 0.0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: whole rounds of the workload's jobs, then the output checks."""
    workload = workloads.build(name, seed)
    checker = checks.Checker(workload)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    rounds: list[list[JobRun]] = []
    failures: list[str] = []
    correct = True
    try:
        while True:
            start = time.monotonic()
            runs = []
            for traced in (False, True) if trace else (False,):
                for job in workload.jobs:
                    tag = f"{name}/seed{seed}/round{len(rounds)}/{job.name}{'/traced' if traced else ''}"
                    runs.append(run_job(job, tag, traced, work, deadline))
            rounds.append(runs)
            took = time.monotonic() - start
            if any(not r.ok and "deadline" in r.error for r in runs):
                break
            if time.monotonic() - began + took > seconds:
                break
        notes: dict = {}
        for runs in rounds:
            for r in runs:
                if not r.ok:
                    failures.append(f"{r.job.name}: {r.error}")
                    continue
                fails, job_notes = checker.check(r.job, r.stdout, r.result, r.out_text)
                notes.update(job_notes)
                if fails:
                    r.ok = correct = False
                    failures.extend(f"{r.job.name}: {f}" for f in fails)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_runs = [r for runs in rounds for r in runs]
    ok_runs = [r for r in all_runs if r.ok]
    plain = [r for r in ok_runs if not r.traced]
    result = {
        "correct": correct,
        "attempted": len(all_runs),
        "failed": len(all_runs) - len(ok_runs),
        "rounds": len(rounds),
        "failures": sorted(set(failures)),
        "notes": notes,
    }
    if trace:
        per_round = [_round_layers(runs, notes) for runs in rounds]
        result["metrics"] = {
            k: {"value": _median([r[k] for r in per_round]), "unit": unit} for k, unit in PER_LAYER.items()
        }
        unmarked = sum(r.layers.get("oracle.walk_unmarked", 0) for r in all_runs)
        if unmarked:  # oracle.walk_s leaves these count_surjections spans out
            notes["count_surjections spans without a characters_up_to child"] = unmarked
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        with spans_file.open("w") as handle:
            for r in all_runs:
                for row in r.spans:
                    handle.write(json.dumps(row) + "\n")
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        per_job: dict[str, list[float]] = {}
        for r in plain:
            per_job.setdefault(r.job.name, []).append(r.ref_s)
        kind_s = {
            kind: sum(_median(per_job.get(job.name, [])) for job in workload.jobs if job.kind == kind)
            for kind in workloads.KINDS
        }
        for kind in workloads.KINDS:
            notes[f"{kind}_wall_s"] = sum(
                _median([r.job_s for r in plain if r.job.name == job.name])
                for job in workload.jobs if job.kind == kind
            )
        notes["probe_s"] = _median([r.probe_s for r in plain])
        values = {
            "setup_s": _median([r.setup_s for r in plain]),
            "peak_rss_mib": max((r.maxrss_kib for r in plain), default=0) / 1024,
            "long_s": kind_s["long"],
            "wide_s": kind_s["wide"],
        }
        result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return result


def _contract(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def _print_run(name: str, result: dict) -> None:
    print(f"== {name}: {result['rounds']} rounds, {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in result["notes"].items():
        print(f"   ({key} = {value:.4g})")
    if "spans_file" in result:
        print(f"   spans written to {result['spans_file']}")
    for line in result["failures"][:20]:
        print(f"   FAILED {line}")


def _steadiness(results: list[dict]) -> dict:
    """Median, quartiles and spread (IQR / median) of each metric over the runs."""
    out = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        out[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"   {metric:<44} median {med:>12.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:7.2%}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"   failed share per run: {shares}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not (SRC / "malle_lab" / "__init__.py").is_file():
        print(f"malle_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks call the program's second routes
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        results = []
        for k in range(args.repeat):
            result = run_workload(name, args.seed + k, args.seconds, bool(args.trace))
            _print_run(f"{name} seed {args.seed + k}", result)
            results.append(result)
        if args.repeat > 1:
            print(f"== {name}: steadiness over {args.repeat} runs")
            summary[name] = _steadiness(results)
        else:
            summary[name] = _contract(results[0])
    sys.stdout.flush()
    if args.repeat == 1 and len(names) == 1:
        print(json.dumps(summary[names[0]]))
    else:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
