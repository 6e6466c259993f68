"""Run one benchmark job in this fresh interpreter and print its report as JSON.

Usage: python3 job.py '<spec>', where spec is a JSON object with the keys
id, call ("cli", "residue" or "tables"), args and trace.  The report holds
the monotonic time at which malle_lab.cli was imported and its parser built,
the job's own wall time, that time scaled to a reference speed, the mean
time of a fixed probe loop run just before and just after the job, its exit
code, what it printed, the peak resident set size of this process and of its
children, and with tracing on the raw per-layer figures and spans.

The speed of a shared machine drifts by up to 2x over tens of seconds, so a
job's time is scaled by PROBE_REF_S / (time of the probe loop around it):
seconds at the speed at which the probe takes PROBE_REF_S, about this
machine's speed when it is quiet.  A table session probes again after each
group, out of its timing, and scales each group's time by the probes on
either side of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

from malle_lab import cli

cli.build_parser()
READY = time.monotonic()

PROBE_N = 12_000
PROBE_REF_S = 0.05
STEP_PROBE_N = 3_000  # the shorter probe between the groups of a table session


def probe(n: int = PROBE_N) -> float:
    """Seconds for a fixed pure-Python loop of n steps: the machine's speed right now.

    The loop mixes what the program spends its time on: small tuples and
    frozensets, Fraction arithmetic, dict updates and multi-word integers.
    """
    start = time.perf_counter()
    seen, table, acc, big = set(), {}, Fraction(0), 3
    for i in range(n):
        t = tuple((i * k) % 12 for k in (1, 5, 7))
        if t not in seen:
            seen.add(frozenset(t))
        acc += Fraction(i % 13, 1 + i % 11)
        table[(i % 997, i & 7)] = acc
        big = (big * 1103515245 + i) % (1 << 256)
    return time.perf_counter() - start


def probe_on(cores: int) -> float:
    """Mean time of `cores` probes run at once: here and in forked children."""
    children = []
    for _ in range(cores - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            os.write(write, repr(probe()).encode())
            os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = [probe()]
    for pid, read in children:
        with os.fdopen(read) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _residue(group: str, p_max: str) -> dict:
    from mpmath import mp

    from malle_lab import groups, series

    est = series.residue_main_term(groups.parse_group_literal(group), int(p_max))
    return {
        "group": group,
        "p_max": int(p_max),
        "exponent": str(est.exponent),
        "log_power": est.log_power,
        "leading": mp.nstr(est.leading, 45),
    }


def _tables(steps: list, *literals: str) -> dict:
    """invariant_summary, theta_best (soehne, disc), theta_ram and the sieve terms of each group.

    Appends (seconds, probe time after it) per group to `steps`; the probe
    time is scaled to a full PROBE_N loop.
    """
    from malle_lab import groups, invariants, theta

    rows = []
    for literal in literals:
        start = time.perf_counter()
        G = groups.parse_group_literal(literal)
        action = invariants.GaloisActionSpec.cyclotomic(G)
        best = theta.theta_best(G, action, invariants.WeightFn.disc(), theta.SubconvexityModel.soehne())
        rows.append({
            "group": str(G),
            "summary": invariants.invariant_summary(G),
            "theta": str(best.bound),
            "theta_ram": str(theta.theta_ram(G)),
            "sieve": [[G.order // H.order, mu] for H, mu in groups.sieve_terms(G)],
        })
        seconds = time.perf_counter() - start
        steps.append((seconds, probe(STEP_PROBE_N) * PROBE_N / STEP_PROBE_N))
    return {"groups": rows}


def _own_peak_kib() -> int:
    """Peak resident set of this process image (VmHWM), in KiB.

    ru_maxrss of RUSAGE_SELF would not do: Linux carries the parent's peak
    into it across the fork and exec that started this process.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.install(spec["id"])
    captured = io.StringIO()
    result = None
    steps: list[tuple[float, float]] = []
    args = list(spec["args"])
    # a job that runs workers of its own is probed on as many cores
    cores = int(args[args.index("--jobs") + 1]) if spec["call"] == "cli" and "--jobs" in args else 1
    before = probe_on(cores)
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if spec["call"] == "cli":
            rc = cli.run(args)
        elif spec["call"] == "residue":
            result = _residue(*args)
            rc = 0
        else:
            result = _tables(steps, *args)
            rc = 0
    job_s = time.perf_counter() - start
    after = probe_on(cores)
    if steps:
        probes = [before] + [p for _, p in steps]
        job_s = sum(seconds for seconds, _ in steps)
        ref_s = sum(seconds * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
                    for i, (seconds, _) in enumerate(steps))
    else:
        ref_s = job_s * 2 * PROBE_REF_S / (before + after)
    peak = max(_own_peak_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "ready": READY,
        "job_s": job_s,
        "ref_s": ref_s,
        "probe_s": (before + after) / 2,
        "rc": rc,
        "stdout": captured.getvalue(),
        "result": result,
        "maxrss_kib": peak,
    }
    if recorder is not None:
        report["layers"] = recorder.layer_totals()
        report["spans"] = recorder.span_rows()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
