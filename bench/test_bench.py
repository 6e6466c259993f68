"""Consistency of BENCHMARK.json with the runner, and of the workloads.

Run with ``python3 -m pytest bench``.
"""

import json
from pathlib import Path

import refs
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_and_bounds_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_same_seed_same_jobs():
    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)


def test_bounds_move_by_at_most_the_jitter():
    base = {job.name: job.args for job in workloads.build("oracle-counts", 1).jobs}
    for seed in range(2, 12):
        for job in workloads.build("oracle-counts", seed).jobs:
            x, x0 = int(job.args[3]), int(base[job.name][3])
            assert abs(x / x0 - 1) <= 2 * workloads.BOUND_JITTER + 1e-3


def test_every_job_has_a_kind_and_the_table_lists_81_groups():
    for name in workloads.NAMES:
        for job in workloads.build(name, 1).jobs:
            assert job.kind in workloads.KINDS
    tables = [job for job in workloads.build("exact-tables", 1).jobs if job.call == "tables"]
    literals = sorted(literal for job in tables for literal in job.args)
    expected = sorted(refs.group_literal(fs) for fs in refs.abelian_groups(workloads.TABLE_MAX_ORDER))
    assert len(literals) == 81 and literals == expected
