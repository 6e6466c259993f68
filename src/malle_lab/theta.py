"""Exact-rational power-saving bounds and the composite-n cyclic scan.

The bound for the error exponent theta has the shape

    1/a - (1/a - 1/D) / (1 + sum over orbits of 2 mu(o) (1 - wt(o)/D)),

minimized over the finitely many candidates D in the weight spectrum plus
D = 2a.  The subconvexity model supplies mu: degree/4 for convexity,
degree/6 for the known unconditional bound, 0 under Lindelof, where the
degree of the orbit L-function is |orbit| * [K:Q].  One formula,
``_bound_at``, evaluates it from running sums, on ints for every preset
model; no floats.  A preset's 2 mu is a slope per element, so its classes
come from the element orders, scaled by the slope's denominator; only custom
mu tables and custom weights walk the orbits, and only they run the formula
on Fractions.  ``theta_best`` builds Fractions for its result alone.

theta(D) is unimodal: past weight w_j its slope has the sign of S_j - a(k + C_j),
C_j and S_j summing c and c w up to w_j.  That grows by c (w - a) >= 0 per class,
so the cyclic scan walks the divisors of n only up to the first w_j with
S_j >= a(k + C_j), or takes 2a.  ``theta_best`` evaluates every candidate,
as it returns them all, and takes the first minimum of that table.

The scan's block kernel makes each row a plain tuple of ints, a bool and the
case name.  Pool workers, forked with the phi table already in memory, send
those tuples back; the report keeps them as its ``table``, and the CSV is
written from it.  ``ScanReport.rows`` wraps them in ScanRows only when it is
first read, so neither the workers nor the CLI build a ScanRow.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .groups import AbelianGroup, BudgetExceededError, Element, element_orders
from .invariants import (
    GaloisActionSpec,
    OrbitData,
    WeightFn,
    classify_case,
    nonidentity_orbits,
)

SCAN_CAP = 200_000
SCAN_BLOCK = 1 << 14

_PRESET_SLOPES = {"soehne": Fraction(1, 3), "convexity": Fraction(1, 2), "lindelof": Fraction(0)}


@dataclass(frozen=True)
class SubconvexityModel:
    """Critical-line growth exponents mu(1/2) per orbit, with a [K:Q] multiplier."""

    kind: str
    deg_k: int = 1
    table: tuple[tuple[Element, Fraction], ...] | None = None

    def __post_init__(self):
        if self.kind not in _PRESET_SLOPES and (self.kind != "custom" or self.table is None):
            raise ValueError(f"unknown model {self.kind!r}")
        if self.deg_k < 1:
            raise ValueError(f"[K:Q] = {self.deg_k} must be at least 1")

    def slope(self) -> Fraction:
        """2 mu per element of the orbit, the same for every orbit of a preset model."""
        if self.kind not in _PRESET_SLOPES:
            raise ValueError(f"model kind {self.kind!r} has no per-element slope")
        return self.deg_k * _PRESET_SLOPES[self.kind]

    @cached_property
    def _lookup(self) -> dict[Element, Fraction]:
        return dict(self.table)

    def mu(self, orbit: OrbitData) -> Fraction:
        if self.kind == "custom":
            lookup = self._lookup
            if orbit.representative not in lookup:
                raise KeyError(f"no mu entry for orbit of {orbit.representative}")
            value = lookup[orbit.representative]
            if value < 0:
                raise ValueError("mu values must be nonnegative")
            return value
        return self.slope() * orbit.size / 2

    @staticmethod
    def soehne(deg_k: int = 1) -> "SubconvexityModel":
        return SubconvexityModel("soehne", deg_k)

    @staticmethod
    def convexity(deg_k: int = 1) -> "SubconvexityModel":
        return SubconvexityModel("convexity", deg_k)

    @staticmethod
    def lindelof(deg_k: int = 1) -> "SubconvexityModel":
        return SubconvexityModel("lindelof", deg_k)

    @staticmethod
    def custom(mapping: dict, deg_k: int = 1) -> "SubconvexityModel":
        table = tuple(sorted(((k, Fraction(v)) for k, v in mapping.items())))
        return SubconvexityModel("custom", deg_k, table)


@dataclass(frozen=True)
class ThetaResult:
    """Upper bound for the power-saving exponent with its optimizing D."""

    bound: Fraction
    witness_d: Fraction
    model_kind: str
    candidates: tuple[tuple[Fraction, Fraction], ...]  # (D, bound at D)

    def as_dict(self) -> dict:
        return {
            "bound": str(self.bound),
            "witness_D": str(self.witness_d),
            "model": self.model_kind,
            "candidates": [[str(d), str(v)] for d, v in self.candidates],
        }


def vertical_exponent(
    orbit_list: tuple[OrbitData, ...] | list[OrbitData],
    model: SubconvexityModel,
    sigma: Fraction,
) -> Fraction:
    """Growth exponent of the generating series on the vertical line Re = sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    total = Fraction(0)
    for o in orbit_list:
        if o.weight == 0:
            continue
        term = 1 - o.weight * sigma
        if term > 0:
            total += 2 * model.mu(o) * term
    return total


def _bound_at(k, a, C, S, D):
    """(D, numerator, denominator) of the bound at D, with C and S summing c and
    c w over the classes of weight w < D: T = C D - S is the sum of c (D - w)
    there, and the bound is (k a + T) / (a (k D + T))."""
    T = C * D - S
    return D, k * a + T, a * (k * D + T)


def _candidate_table(classes, k):
    """(D, numerator, denominator) at every candidate D, by ``_bound_at`` from running sums."""
    a = classes[0][0]
    C = S = 0
    table = []
    for w, c in classes:
        if w >= 2 * a:
            break
        table.append(_bound_at(k, a, C, S, w))
        C += c
        S += c * w
    table.append(_bound_at(k, a, C, S, 2 * a))
    return table


def _orbit_classes(G, action, wt, model):
    """(classes, k): (w, c_w) by ascending w, with c_w / k the sum of 2 mu over
    the orbits of weight w.

    A preset model under disc or ram gives int weights and c_w = slope
    numerator times the number of elements of weight w, with k the slope
    denominator, so the kernel runs on ints as in the cyclic scan.  Custom mu
    tables and custom weights sum their orbits' Fractions, with k = 1.
    """
    if G.order <= 1:
        raise ValueError("theta is undefined for the trivial group")
    if action.group != G:
        raise ValueError("action is attached to a different group")
    if model.kind != "custom" and wt.kind in ("disc", "ram"):
        n = G.order
        counts: dict[int, int] = {}
        for e, k in element_orders(G)[1:]:
            w = n - n // e if wt.kind == "disc" else 1
            counts[w] = counts.get(w, 0) + k
        slope = model.slope()
        return [(w, slope.numerator * c) for w, c in sorted(counts.items())], slope.denominator
    classes: dict[Fraction, Fraction] = {}
    for o in nonidentity_orbits(G, action, wt):
        classes[o.weight] = classes.get(o.weight, 0) + 2 * model.mu(o)
    return sorted(classes.items()), 1


def theta_at_D(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
    D: Fraction | int,
) -> Fraction:
    """The bound evaluated at one shift parameter D in [a, 2a]."""
    D = Fraction(D)
    classes, k = _orbit_classes(G, action, wt, model)
    a = classes[0][0]
    if not a <= D <= 2 * a:
        raise ValueError(f"D = {D} outside [{a}, {2 * a}]")
    below = [(w, c) for w, c in classes if w < D]
    _, num, den = _bound_at(k, a, sum(c for _, c in below), sum(c * w for w, c in below), D)
    return num / den


def theta_best(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
) -> ThetaResult:
    """Minimize the bound over the candidate shifts (spectrum plus 2a)."""
    classes, k = _orbit_classes(G, action, wt, model)
    a = classes[0][0]
    table = tuple((Fraction(D), Fraction(n, d)) for D, n, d in _candidate_table(classes, k))
    values = [v for _, v in table]
    # convex in D: no interior strict local maximum among the candidates
    for i in range(1, len(values) - 1):
        assert not (
            values[i] > values[i - 1] and values[i] > values[i + 1]
        ), "candidate table has an interior local max"
    bound = min(values)
    assert bound * a < 1, "bound does not save over the main term"
    witness = table[values.index(bound)][0]  # the first minimum
    return ThetaResult(bound, witness, model.kind, table)


def theta_ram(G: AbelianGroup, deg_k: int = 1) -> Fraction:
    """Unconditional bound for the product-of-ramified-primes ordering."""
    model = SubconvexityModel.soehne(deg_k)
    value = 1 - Fraction(3, 6 + deg_k * (G.order - 1))
    best = theta_best(G, GaloisActionSpec.cyclotomic(G), WeightFn.ram(), model)
    assert best.bound == value, "closed form disagrees with the optimizer"
    return value


# -- cyclic scan --------------------------------------------------------------


class ScanRow(NamedTuple):
    """One composite n of the cyclic scan, with theta = num/den in lowest terms."""

    n: int
    a: int
    d2: int
    num: int
    den: int
    flag_i: bool
    case: str

    @property
    def theta(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def flag_ii(self) -> bool:
        return self.case != "none"


@dataclass(frozen=True)
class ScanReport:
    """The scan's rows, with the criterion (i) rows tallied by n mod 12 and the
    criterion (ii) rows by non-vanishing case.

    ``table`` holds each row as the plain tuple of the ScanRow fields;
    ``rows`` wraps them in ScanRows on its first access.
    """

    n_max: int
    model_kind: str
    composite_count: int
    flag_ii_by_case: dict[str, int]
    flag_i_by_n_mod_12: dict[int, int]
    table: tuple[tuple, ...]

    @cached_property
    def rows(self) -> tuple[ScanRow, ...]:
        return tuple(map(ScanRow._make, self.table))

    @property
    def count_i(self) -> int:
        return sum(self.flag_i_by_n_mod_12.values())

    @property
    def count_ii(self) -> int:
        return sum(self.flag_ii_by_case.values())

    @property
    def fraction_i(self) -> float | None:
        """The share of composite n flagged by criterion (i), None if there are none."""
        return self.count_i / self.composite_count if self.composite_count else None

    @property
    def fraction_ii(self) -> float | None:
        return self.count_ii / self.composite_count if self.composite_count else None

    def summary(self) -> dict:
        return {
            "n_max": self.n_max,
            "model": self.model_kind,
            "composite_count": self.composite_count,
            "count_i": self.count_i,
            "count_ii": self.count_ii,
            "fraction_i": self.fraction_i,
            "fraction_ii": self.fraction_ii,
            "flag_ii_by_case": dict(self.flag_ii_by_case),
            "flag_i_by_n_mod_12": {str(k): v for k, v in sorted(self.flag_i_by_n_mod_12.items())},
        }


def _phi_sieve(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _scan_block(lo: int, hi: int, cn: int, cd: int, phi: list[int]) -> list[tuple]:
    """The row of each composite n in [lo, hi), lo >= 4, as the plain tuple of
    the ScanRow fields, with theta in lowest terms.

    Sieves the divisors 1 < e <= sqrt(n) of the block's n; their co-divisors
    n // e in reverse order, then n, complete the ascending list.  phi must
    reach hi - 1; e is prime iff phi(e) = e - 1, and each p^j, j >= 2,
    dividing n puts one p into m = n / rad(n).
    """
    small = [[] for _ in range(lo, hi)]
    ms = [1] * (hi - lo)
    for e in range(2, math.isqrt(hi - 1) + 1):
        for i in range(max(e * e, -(-lo // e) * e) - lo, hi - lo, e):
            small[i].append(e)
        if phi[e] == e - 1:
            q = e * e
            while q < hi:
                for i in range(-(-lo // q) * q - lo, hi - lo, q):
                    ms[i] *= e
                q *= e
    rows = []
    append = rows.append
    for n, low, m in zip(range(lo, hi), small, ms):
        if not low:  # n is prime
            continue
        divs = low + [n // e for e in reversed(low) if e * e != n]
        divs.append(n)
        a, d2 = n - n // divs[0], n - n // divs[1]
        # walk to the turning point; every weight n - n/e is below n <= 2a,
        # so D = 2a only when no class turns the slope
        D = 2 * a
        C = S = 0
        for e in divs:
            w = n - n // e
            c = cn * phi[e]
            if S + c * w >= a * (cd + C + c):  # the slope past w is >= 0
                D = w
                break
            C += c
            S += c * w
        _, num, den = _bound_at(cd, a, C, S, D)
        g = math.gcd(num, den)
        num //= g
        den //= g
        flag_i = num * d2 < den
        case = "none"
        if flag_i:  # otherwise no larger index has theta < 1/d either
            for j in range(1, len(divs)):
                d = n - n // divs[j]
                if num * d >= den:
                    break
                case = classify_case(n, d, divs[:j], m, True)
                if case != "none":
                    break
        append((n, a, d2, num, den, flag_i, case))
    return rows


_worker_phi: list[int] = []  # a scan worker's phi, from the parent's memory under fork


def _share_phi(phi: list[int]) -> None:
    global _worker_phi
    _worker_phi = phi


def _scan_block_packed(args: tuple) -> list[tuple]:
    return _scan_block(*args, _worker_phi)


def scan_cyclic(
    n_max: int, model: SubconvexityModel | None = None, jobs: int = 1
) -> ScanReport:
    """Scan composite n < n_max for revealed lower order terms.

    Runs the theta kernel in int arithmetic: the orbits of C_n of order e
    form one class of index n - n/e with c = cn * phi(e) and k = cd, where
    cn/cd is the preset model's 2 mu per element.  Criterion (i) flags
    theta < 1/d2 for d2 the second smallest index; criterion (ii)
    additionally demands an index d > a with theta < 1/d, a proved
    non-vanishing case, and bbar_d >= 1 (automatic with the default
    zeta-order hook since every index of a cyclic group has b_d = 1).
    The n run in blocks of at most SCAN_BLOCK on min(jobs, blocks) worker
    processes, or serially when that is 1; n_max above SCAN_CAP raises
    BudgetExceededError.
    """
    if n_max < 4:
        raise ValueError("scan needs n_max >= 4")
    if jobs < 1:
        raise ValueError(f"jobs = {jobs} must be at least 1")
    if n_max > SCAN_CAP:
        raise BudgetExceededError(f"scan bound {n_max} exceeds the cap {SCAN_CAP}")
    model = model or SubconvexityModel.soehne()
    slope = model.slope()
    cn, cd = slope.numerator, slope.denominator
    phi = _phi_sieve(n_max)
    step = max(256, min(SCAN_BLOCK, (n_max - 4) // (4 * jobs) + 1))
    blocks = [(lo, min(lo + step, n_max), cn, cd) for lo in range(4, n_max, step)]
    workers = min(jobs, len(blocks))
    rows: list[tuple] = []
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers, _share_phi, (phi,)) as pool:
            for part in pool.imap(_scan_block_packed, blocks):
                rows += part
    else:
        for block in blocks:
            rows += _scan_block(*block, phi)
    flagged = [r for r in rows if r[5]]  # flag_i; criterion (ii) rows are among them
    by_case = Counter(r[6] for r in flagged)
    del by_case["none"]
    by_n_mod_12 = Counter(r[0] % 12 for r in flagged)
    return ScanReport(n_max, model.kind, len(rows), dict(by_case), dict(by_n_mod_12), tuple(rows))


_CSV_TAILS = {
    (flag_i, case): f",{flag_i:d},{case != 'none':d},{case}\r\n"
    for flag_i in (False, True)
    for case in ("none", "case_i", "case_ii", "case_iii", "case_iv")
}


def write_scan_csv(path: str, rows) -> None:
    """Write the scan rows (ScanRows or plain tuples of their fields) to ``path`` as
    csv.writer would: a header, then one comma-separated line per row with theta
    as num/den, each line ended by CR LF."""
    tails = _CSV_TAILS
    with open(path, "w", newline="") as handle:
        handle.write("n,a,d2,theta,flag_i,flag_ii,case\r\n")
        handle.writelines(
            f"{n},{a},{d2},{num}/{den}{tails[flag_i, case]}"
            for n, a, d2, num, den, flag_i, case in rows
        )


# -- dual Selmer size ----------------------------------------------------------


def dual_selmer_size(
    r1: int,
    r2: int,
    mu_k: int,
    class_group: AbelianGroup,
    G: AbelianGroup,
) -> int:
    """Size of the group indexing the Fourier terms of the generating series.

    Evaluates |G|^(r1+r2-1) * [G : mu G] / |G[2]|^r1 * |Hom(Cl, G)| for a
    field with signature (r1, r2), mu_k roots of unity, and class group Cl.
    The series collapses to a single Euler product exactly when this is 1.
    """
    if r1 + r2 < 1:
        raise ValueError("a number field has at least one infinite place")
    if mu_k % 2 or mu_k < 2:
        raise ValueError("the unit roots form a group of even order")
    n = G.order
    index_mu = 1
    torsion2 = 1
    for d in G.invariant_factors:
        index_mu *= math.gcd(d, mu_k)
        torsion2 *= math.gcd(d, 2)
    homs = 1
    for c in class_group.invariant_factors:
        for d in G.invariant_factors:
            homs *= math.gcd(c, d)
    value = Fraction(n ** (r1 + r2 - 1) * index_mu * homs, torsion2**r1)
    if value.denominator != 1:
        raise ArithmeticError("size formula did not evaluate to an integer")
    return int(value)
