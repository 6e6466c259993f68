"""Exact-rational power-saving bounds and the composite-n cyclic scan.

The bound for the error exponent theta has the shape

    1/a - (1/a - 1/D) / (1 + sum over orbits of 2 mu(o) (1 - wt(o)/D)),

minimized over the finitely many candidates D in the weight spectrum plus
D = 2a.  The subconvexity model supplies mu: degree/4 for convexity,
degree/6 for the known unconditional bound, 0 under Lindelof, where the
degree of the orbit L-function is |orbit| * [K:Q].  One kernel evaluates
it: on Fractions for ``theta_best``, on ints in the cyclic scan; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groups import AbelianGroup, Element
from .invariants import (
    GaloisActionSpec,
    OrbitData,
    WeightFn,
    classify_case,
    nonidentity_orbits,
)

_PRESET_SLOPES = {"soehne": Fraction(1, 3), "convexity": Fraction(1, 2), "lindelof": Fraction(0)}


@dataclass(frozen=True)
class SubconvexityModel:
    """Critical-line growth exponents mu(1/2) per orbit, with a [K:Q] multiplier."""

    kind: str
    deg_k: int = 1
    table: tuple[tuple[Element, Fraction], ...] | None = None

    def slope(self) -> Fraction:
        """2 mu per element of the orbit, the same for every orbit of a preset model."""
        if self.kind not in _PRESET_SLOPES:
            raise ValueError(f"model kind {self.kind!r} has no per-element slope")
        return self.deg_k * _PRESET_SLOPES[self.kind]

    def mu(self, orbit: OrbitData) -> Fraction:
        if self.kind == "custom":
            assert self.table is not None
            lookup = dict(self.table)
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


def _theta_table(classes, k, candidates=None):
    """(D, numerator, denominator) of the bound at each candidate D, and the first minimum.

    classes are (w, c_w) by ascending weight, c_w = k * (sum of 2 mu over the
    orbits of weight w); with T = sum over w < D of c_w (D - w) the bound is
    (k a + T) / (a (k D + T)).  Candidates default to the weights below 2a, and 2a.
    """
    a = classes[0][0]
    if candidates is None:
        candidates = [w for w, _ in classes if w < 2 * a] + [2 * a]
    table = []
    for D in candidates:
        T = 0
        for w, c in classes:
            if w >= D:
                break
            T += c * (D - w)
        table.append((D, k * a + T, a * (k * D + T)))
    best = table[0]
    for entry in table[1:]:
        if entry[1] * best[2] < best[1] * entry[2]:
            best = entry
    return table, best


def _orbit_classes(G, action, wt, model) -> list[tuple[Fraction, Fraction]]:
    """(w, sum of 2 mu over the orbits of weight w) by ascending w: the classes at k = 1."""
    if G.order <= 1:
        raise ValueError("theta is undefined for the trivial group")
    classes: dict[Fraction, Fraction] = {}
    for o in nonidentity_orbits(G, action, wt):
        two_mu = 2 * model.mu(o)
        if model.kind == "soehne":
            elements = o.size * Fraction(model.deg_k, 3)
            assert two_mu == elements, "orbit-level and element-level bounds disagree"
        classes[o.weight] = classes.get(o.weight, 0) + two_mu
    return sorted(classes.items())


def theta_at_D(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
    D: Fraction | int,
) -> Fraction:
    """The bound evaluated at one shift parameter D in [a, 2a]."""
    D = Fraction(D)
    classes = _orbit_classes(G, action, wt, model)
    a = classes[0][0]
    if not a <= D <= 2 * a:
        raise ValueError(f"D = {D} outside [{a}, {2 * a}]")
    _, (_, num, den) = _theta_table(classes, 1, [D])
    return num / den


def theta_best(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
) -> ThetaResult:
    """Minimize the bound over the candidate shifts (spectrum plus 2a)."""
    classes = _orbit_classes(G, action, wt, model)
    a = classes[0][0]
    rows, (witness, num, den) = _theta_table(classes, 1)
    table = tuple((D, n / d) for D, n, d in rows)
    values = [v for _, v in table]
    # convex in D: no interior strict local maximum among the candidates
    for i in range(1, len(values) - 1):
        assert not (
            values[i] > values[i - 1] and values[i] > values[i + 1]
        ), "candidate table has an interior local max"
    bound = num / den
    assert bound == min(values)
    assert bound < 1 / a, "bound does not save over the main term"
    return ThetaResult(bound, witness, model.kind, table)


def theta_ram(G: AbelianGroup, deg_k: int = 1) -> Fraction:
    """Unconditional bound for the product-of-ramified-primes ordering."""
    value = 1 - Fraction(3, 6 + deg_k * (G.order - 1))
    best = theta_best(
        G,
        GaloisActionSpec.cyclotomic(G),
        WeightFn.ram(),
        SubconvexityModel.soehne(deg_k),
    )
    assert best.bound == value, "closed form disagrees with the optimizer"
    return value


# -- cyclic scan --------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    n: int
    a: int
    d2: int
    theta: Fraction
    flag_i: bool
    flag_ii: bool
    case: str


@dataclass(frozen=True)
class ScanReport:
    n_max: int
    model_kind: str
    composite_count: int
    count_i: int
    count_ii: int
    rows: tuple[ScanRow, ...]

    @property
    def fraction_i(self) -> float:
        return self.count_i / self.composite_count

    @property
    def fraction_ii(self) -> float:
        return self.count_ii / self.composite_count

    def summary(self) -> dict:
        return {
            "n_max": self.n_max,
            "model": self.model_kind,
            "composite_count": self.composite_count,
            "count_i": self.count_i,
            "count_ii": self.count_ii,
            "fraction_i": self.fraction_i,
            "fraction_ii": self.fraction_ii,
        }


def _phi_sieve(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def _spf_sieve(n: int) -> list[int]:
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _divisors_and_radical(n: int, spf: list[int]) -> tuple[list[int], int]:
    """Sorted divisors and the radical of n, from the smallest-prime-factor sieve."""
    divs = [1]
    rad = 1
    m = n
    while m > 1:
        p = spf[m]
        rad *= p
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs, rad


def _scan_chunk(
    lo: int, hi: int, cn: int, cd: int, phi: list[int], spf: list[int]
) -> list[ScanRow]:
    """Rows for composite n in [lo, hi); the sieves must reach hi - 1."""
    rows: list[ScanRow] = []
    for n in range(max(lo, 4), hi):
        if spf[n] == n:
            continue
        divs, rad = _divisors_and_radical(n, spf)
        divs = divs[1:]  # drop 1
        inds = [n - n // e for e in divs]
        a, d2 = inds[0], inds[1]
        classes = [(ind, cn * phi[e]) for e, ind in zip(divs, inds)]
        _, (_, num, den) = _theta_table(classes, cd)
        flag_i = num * d2 < den
        case = "none"
        if flag_i:  # otherwise no larger index has theta < 1/d either
            m = n // rad
            for d in inds[1:]:
                if num * d >= den:
                    break
                case = classify_case(n, d, divs, m, True)
                if case != "none":
                    break
        rows.append(
            ScanRow(n, a, d2, Fraction(num, den), flag_i, case != "none", case)
        )
    return rows


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
    """
    if n_max < 4:
        raise ValueError("scan needs n_max >= 4")
    model = model or SubconvexityModel.soehne()
    slope = model.slope()
    cn, cd = slope.numerator, slope.denominator
    phi = _phi_sieve(n_max)
    spf = _spf_sieve(n_max)
    if jobs > 1:
        import multiprocessing

        step = max(256, (n_max - 4) // (4 * jobs) + 1)
        spans = [(lo, min(lo + step, n_max)) for lo in range(4, n_max, step)]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            parts = pool.starmap(
                _scan_chunk, [(lo, hi, cn, cd, phi, spf) for lo, hi in spans]
            )
        rows = [row for part in parts for row in part]
    else:
        rows = _scan_chunk(4, n_max, cn, cd, phi, spf)
    rows.sort(key=lambda r: r.n)
    count_i = sum(1 for r in rows if r.flag_i)
    count_ii = sum(1 for r in rows if r.flag_ii)
    return ScanReport(n_max, model.kind, len(rows), count_i, count_ii, tuple(rows))


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
