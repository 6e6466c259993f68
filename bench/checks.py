"""Checks of every job's output against independent references.

Each check compares a job's output with a computation from refs.py, with a
property the method must have, or, for the oracle histograms and the scan
rows, with the program's other route to the same exact numbers
(series_coefficients against the oracle, theta_best against the integer
scan).  A run repeats the same jobs, so a repeated output is checked once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import refs
import workloads

SIEVE_SIGNS = {("C6", "4"): -1, ("C4", "3"): 1}


def _arg(args, flag: str) -> str:
    return args[args.index(flag) + 1]


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


class Checker:
    """Checks one workload's job outputs; remembers verdicts by output."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.verdicts: dict[tuple[str, str], tuple[list[str], dict]] = {}
        self.scan_outputs: dict[int, tuple[dict, str]] = {}
        self.theta_cache: dict[tuple[str, str], Fraction] = {}

    def check(self, job: workloads.Job, stdout: str, result, out_text: str | None):
        """(failures, notes) for one job output."""
        doc = None
        body = stdout
        if job.call == "cli" and job.args[0] != "coeffs":
            doc = json.loads(stdout)
            doc.pop("manifest")  # argv, wall time and checksum differ between runs
            doc.pop("csv", None)
            doc.pop("histogram_csv", None)
            body = json.dumps(doc, sort_keys=True)
        key = hashlib.sha256(
            json.dumps([body, result, out_text], sort_keys=True).encode()
        ).hexdigest()
        if (job.name, key) not in self.verdicts:
            fails: list[str] = []
            notes: dict = {}
            try:
                self._dispatch(job, doc, stdout, result, out_text, fails, notes)
            except Exception as exc:  # a malformed output or a failing second route
                fails.append(f"check raised {exc!r}")
            self.verdicts[(job.name, key)] = (fails, notes)
        return self.verdicts[(job.name, key)]

    def _dispatch(self, job, doc, stdout, result, out_text, fails, notes):
        if job.call == "residue":
            self._residue(job, result, fails, notes)
        elif job.call == "tables":
            self._tables(job, result, fails)
        elif job.args[0] == "count":
            self._count(job, doc, out_text, fails)
        elif job.args[0] == "series" and "--surjective" in job.args:
            self._wide(job, doc, fails)
        elif job.args[0] == "series":
            self._residual(job, doc, fails)
        elif job.args[0] == "sieve-check":
            self._sieve_check(job, doc, fails)
        elif job.args[0] == "scan-cyclic":
            self._scan(job, doc, out_text, fails)
        elif job.args[0] == "coeffs":
            self._coeffs(job, stdout, fails)
        else:
            fails.append("no check for this job")

    # -- oracle ------------------------------------------------------------------

    def _count(self, job, doc, hist_text, fails):
        group, x = job.args[1], int(_arg(job.args, "--X"))
        ordering = _arg(job.args, "--ordering") if "--ordering" in job.args else "disc"
        factors = refs.literal_factors(group)
        if (doc["group"], doc["X"], doc["ordering"]) != (group, x, ordering):
            fails.append(f"echoed inputs {doc['group']} {doc['X']} {doc['ordering']}")
        aut = refs.aut_order(factors)
        if doc["surjections"] != aut * doc["fields"]:
            fails.append(f"surjections {doc['surjections']} != |Aut| {aut} * fields {doc['fields']}")
        if "--histogram" in job.args:
            from malle_lab.groups import parse_group_literal
            from malle_lab.series import series_coefficients

            hist = {int(n): int(c) for n, c in _csv_rows(hist_text)}
            if sum(hist.values()) != doc["surjections"]:
                fails.append("histogram does not sum to the surjection count")
            series = series_coefficients(parse_group_literal(group), x, surjective=True)
            if hist != series:
                fails.append("oracle histogram differs from series_coefficients")
            return
        reference = {
            ("C2", "disc"): lambda: len(refs.fundamental_discriminants(x)),
            ("C2", "ram"): lambda: refs.c2_ram_count(x),
            ("C3", "disc"): lambda: refs.c3_count(x),
            ("C2xC2", "disc"): lambda: refs.c2xc2_count(x),
        }[(group, ordering)]()
        if doc["fields"] != reference:
            fails.append(f"fields {doc['fields']} != reference {reference}")

    # -- Euler products ------------------------------------------------------------

    def _residue(self, job, result, fails, notes):
        group, p_max = job.args[0], int(job.args[1])
        leading = Decimal(result["leading"])
        if group == "C2":
            exact = refs.c2_residue()
            rel = (leading - exact) / exact
            if not 0 < rel < Decimal(1) / p_max:
                fails.append(f"C2 residue relative error {rel:.3e} outside (0, 1/P)")
            else:
                notes["residue_c2_digits"] = -float(rel.log10())
        elif group == "C3":
            cohn = refs.cohn_c3_constant(10 * p_max)
            rel = abs(float(leading) / 2 - cohn) / cohn
            if not rel < 2 / p_max:
                fails.append(f"C3 residue / 2 is {rel:.3e} from Cohn's constant")
        else:
            fails.append(f"no residue reference for {group}")

    def _residual(self, job, doc, fails):
        p_max = int(_arg(job.args, "--pmax"))
        if (job.args[1], _arg(job.args, "--s"), _arg(job.args, "--mode")) != ("C3", "3/4", "residual"):
            fails.append("no closed form for this product")
            return
        exact = refs.c3_residual_product(p_max)
        rel = abs(Decimal(doc["value"]) - exact) / exact
        if rel > Decimal("1e-25"):
            fails.append(f"C3 residual product {rel:.3e} from its closed form")

    def _sieve_check(self, job, doc, fails):
        want = SIEVE_SIGNS[(job.args[1], _arg(job.args, "--d"))]
        signs = {(Decimal(v) > 0) - (Decimal(v) < 0) for _, v in doc["checkpoints"]}
        if doc["sign"] != want or not doc["sign_stable"] or signs != {want}:
            fails.append(f"sign {doc['sign']} (checkpoints {sorted(signs)}), expected {want}")

    def _wide(self, job, doc, fails):
        factors = refs.literal_factors(job.args[1])
        order = math.prod(factors)
        counts: Counter = Counter()
        total = Decimal(0)
        scale = Decimal(0)
        for label, mu, value in doc["terms"]:
            index = order // int(label.split("order=")[1].split(";")[0])
            counts[index] += 1
            if mu != refs.hall_mu(index):
                fails.append(f"mu {mu} at index {index}, Hall gives {refs.hall_mu(index)}")
            v = Decimal(value)
            if v < 1:
                fails.append(f"restricted product {value} below 1")
            total += mu * v
            scale += abs(mu * v)
        if dict(counts) != refs.sieve_index_counts(factors):
            fails.append(f"{len(doc['terms'])} sieve terms, expected {refs.subspace_count(factors)}")
        if sum(mu for _, mu, _ in doc["terms"]) != 0:
            fails.append("Moebius weights do not sum to 0")
        if abs(Decimal(doc["value"]) - total) > scale * Decimal("1e-24"):
            fails.append("value is not the mu-weighted sum of its terms")

    # -- exact tables ------------------------------------------------------------

    def _tables(self, job, result, fails):
        rows = result["groups"]
        if [row["group"] for row in rows] != list(job.args):
            fails.append("table rows do not follow the requested groups")
        for row in rows:
            factors = refs.literal_factors(row["group"])
            n = math.prod(factors)
            a, b_a = refs.expected_invariants(factors)
            summary = row["summary"]
            got_a = Fraction(summary["a"])
            theta_s = Fraction(row["theta"])
            problems = [
                got_a != a and f"a = {got_a}, expected {a}",
                summary["b"].get(str(a)) != b_a and f"b_a = {summary['b'].get(str(a))}, expected {b_a}",
                self._theta_lindelof(row["group"]) != 1 / (2 * a) and "Lindelof theta != 1/(2a)",
                not 1 / (2 * a) <= theta_s < 1 / a and f"theta {theta_s} outside [1/(2a), 1/a)",
                Fraction(row["theta_ram"]) != 1 - Fraction(3, 5 + n) and "theta_ram != 1 - 3/(6 + |G| - 1)",
            ]
            counts = Counter(index for index, _ in row["sieve"])
            if dict(counts) != refs.sieve_index_counts(factors):
                problems.append(f"{len(row['sieve'])} sieve subgroups, expected {refs.subspace_count(factors)}")
            if any(mu != refs.hall_mu(index) for index, mu in row["sieve"]):
                problems.append("sieve mu differs from Hall's formula")
            if sum(mu for _, mu in row["sieve"]) != 0:
                problems.append("sieve mu does not sum to 0")
            fails.extend(f"{row['group']}: {p}" for p in problems if p)

    def _scan(self, job, doc, csv_text, fails):
        n_max = int(_arg(job.args, "--max"))
        rows = _csv_rows(csv_text)
        ns = [int(r[0]) for r in rows]
        if doc["composite_count"] != refs.composite_count(n_max) or ns != refs.composites_below(n_max):
            fails.append(f"{doc['composite_count']} composite rows, the prime sieve gives {refs.composite_count(n_max)}")
        if doc["count_i"] != sum(int(r[4]) for r in rows) or doc["count_ii"] != sum(int(r[5]) for r in rows):
            fails.append("summary counts disagree with the rows")
        serial = self.scan_outputs.setdefault(n_max, (doc, csv_text))
        if serial != (doc, csv_text):
            fails.append("rows differ between --jobs 1 and --jobs 2")
        theta = {int(r[0]): Fraction(r[3]) for r in rows}
        sample = [n for n in ns if n <= workloads.SCAN_ALWAYS_CHECKED]
        sample += [n for n in self.workload.scan_sample if n < n_max]
        for n in sample:
            if theta[n] != self._theta_cyclic(n):
                fails.append(f"scan theta for C_{n} is {theta[n]}, theta_best gives {self._theta_cyclic(n)}")

    def _theta_cyclic(self, n: int) -> Fraction:
        return self._theta(f"C{n}", "soehne")

    def _theta_lindelof(self, literal: str) -> Fraction:
        return self._theta(literal, "lindelof")

    def _theta(self, literal: str, kind: str) -> Fraction:
        """theta_best(G) under the model `kind`, computed here, outside the timed jobs."""
        if (literal, kind) not in self.theta_cache:
            from malle_lab.groups import parse_group_literal
            from malle_lab.invariants import GaloisActionSpec, WeightFn
            from malle_lab.theta import SubconvexityModel, theta_best

            G = parse_group_literal(literal)
            best = theta_best(G, GaloisActionSpec.cyclotomic(G), WeightFn.disc(), SubconvexityModel(kind))
            self.theta_cache[(literal, kind)] = best.bound
        return self.theta_cache[(literal, kind)]

    def _coeffs(self, job, stdout, fails):
        group, n_max = job.args[1], int(_arg(job.args, "--max"))
        got = {int(n): int(c) for n, c in _csv_rows(stdout)}
        if group == "C2":
            want = refs.c2_disc_histogram(n_max)
        elif group == "C2xC2":
            want = {n: 6 * c for n, c in refs.c2xc2_histogram(n_max).items()}
        else:
            fails.append(f"no reference for coefficients of {group}")
            return
        if got != want:
            fails.append(f"{group} coefficients differ from the field histogram")
