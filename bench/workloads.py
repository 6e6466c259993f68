"""The benchmark's three workloads, as lists of jobs generated from a seed.

A job is one user request: one CLI invocation, or one library call where the
CLI has no command.  Each job belongs to one of two kinds, and the runner
reports a time per kind:

- ``long``: the cost is one long loop over a single object (the character
  pool of a cyclic count, the primes up to P, the integers up to n_max);
- ``wide``: the cost spreads over many objects (tuples of characters in the
  oracle's tree walk, the sieve subgroups of a wide group, the 81 groups of
  the invariant table).

Bounds are the sizes measured in README.md scaled down together, so that a
round of every workload fits a run several times over.  The seed moves each
bound by at most BOUND_JITTER and picks the scan rows that are cross-checked;
the program sees only the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import refs

BOUND_JITTER = 0.02
KINDS = ("long", "wide")
TABLE_MAX_ORDER = 48
SCAN_ALWAYS_CHECKED = 400  # every scan row with n <= this is cross-checked
SCAN_SAMPLE = 6  # seed-chosen rows above it, n <= SCAN_SAMPLE_MAX
SCAN_SAMPLE_MAX = 2000
OUT = "@OUT"  # replaced by the job's output file in the run's work directory


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    call: str  # "cli", "residue" or "tables"
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    scan_sample: tuple[int, ...] = ()


def _jiggle(rng: random.Random, base: int) -> int:
    return max(1, round(base * (1 + rng.uniform(-BOUND_JITTER, BOUND_JITTER))))


def _oracle(rng: random.Random) -> Workload:
    def count(group, x, kind="long", ram=False, histogram=False):
        argv = ("count", group, "--X", str(_jiggle(rng, x)))
        argv += ("--ordering", "ram") if ram else ()
        argv += ("--histogram", OUT) if histogram else ()
        return Job(f"count-{group}{'-ram' if ram else ''}", kind, "cli", argv)

    return Workload("oracle-counts", (
        count("C2", 125_000),
        count("C3", 1_250_000_000),
        count("C2", 1_250, ram=True),
        count("C4", 25_000, histogram=True),
        count("C6", 25_000, histogram=True),
        count("C2xC2", 12_500, kind="wide"),
        count("C2xC4", 25_000, kind="wide", histogram=True),
    ))


def _euler(rng: random.Random) -> Workload:
    def residue(group, p):
        return Job(f"residue-{group}", "long", "residue", (group, str(_jiggle(rng, p))))

    def cli(name, kind, *argv, pmax):
        return Job(name, kind, "cli", argv + ("--pmax", str(_jiggle(rng, pmax))))

    return Workload("euler-products", (
        residue("C2", 250_000),
        residue("C3", 25_000),
        cli("series-C3-residual", "long", "series", "C3", "--s", "3/4",
            "--mode", "residual", pmax=25_000),
        cli("sieve-check-C6", "long", "sieve-check", "C6", "--d", "4", pmax=25_000),
        cli("sieve-check-C4", "long", "sieve-check", "C4", "--d", "3", pmax=25_000),
        cli("series-C2^4", "wide", "series", "C2xC2xC2xC2", "--s", "1/7",
            "--surjective", pmax=2_500),
        cli("series-C2xC2xC4", "wide", "series", "C2xC2xC4", "--s", "1/5",
            "--surjective", pmax=2_500),
    ))


def _exact(rng: random.Random) -> Workload:
    n_max = str(_jiggle(rng, 25_000))
    groups = [refs.group_literal(fs) for fs in refs.abelian_groups(TABLE_MAX_ORDER)]
    jobs = (
        Job("tables", "wide", "tables", tuple(groups)),
        Job("scan", "long", "cli", ("scan-cyclic", "--max", n_max, "--jobs", "1", "--out", OUT)),
        Job("scan-parallel", "long", "cli", ("scan-cyclic", "--max", n_max, "--jobs", "2", "--out", OUT)),
        Job("coeffs-C2", "long", "cli",
            ("coeffs", "C2", "--max", str(_jiggle(rng, 10_000)), "--surjective")),
        Job("coeffs-C2xC2", "long", "cli",
            ("coeffs", "C2xC2", "--max", str(_jiggle(rng, 50_000)), "--surjective")),
    )
    above = [n for n in refs.composites_below(SCAN_SAMPLE_MAX) if n > SCAN_ALWAYS_CHECKED]
    sample = tuple(sorted(rng.sample(above, SCAN_SAMPLE)))
    return Workload("exact-tables", jobs, sample)


BUILDERS = {"oracle-counts": _oracle, "euler-products": _euler, "exact-tables": _exact}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's jobs for this seed; the same seed gives the same jobs."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"))
