"""Exact-rational power-saving bounds and the composite-n cyclic scan.

The bound for the error exponent theta has the shape

    1/a - (1/a - 1/D) / (1 + sum over orbits of 2 mu(o) (1 - wt(o)/D)),

minimized over the finitely many candidates D in the weight spectrum plus
D = 2a.  The subconvexity model supplies mu: degree/4 for convexity,
degree/6 for the known unconditional bound, 0 under Lindelof, where the
degree of the orbit L-function is |orbit| * [K:Q].  Everything in this
module is Fraction arithmetic; no floats.
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
    a_invariant,
    nonidentity_orbits,
    weight_spectrum,
)
from .numerics import divisors, radical


@dataclass(frozen=True)
class SubconvexityModel:
    """Critical-line growth exponents mu(1/2) per orbit, with a [K:Q] multiplier."""

    kind: str
    deg_k: int = 1
    table: tuple[tuple[Element, Fraction], ...] | None = None

    def mu(self, orbit: OrbitData) -> Fraction:
        if self.kind == "convexity":
            return Fraction(self.deg_k * orbit.size, 4)
        if self.kind == "soehne":
            return Fraction(self.deg_k * orbit.size, 6)
        if self.kind == "lindelof":
            return Fraction(0)
        if self.kind == "custom":
            assert self.table is not None
            lookup = dict(self.table)
            if orbit.representative not in lookup:
                raise KeyError(f"no mu entry for orbit of {orbit.representative}")
            value = lookup[orbit.representative]
            if value < 0:
                raise ValueError("mu values must be nonnegative")
            return value
        raise ValueError(f"unknown model kind {self.kind!r}")

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


def theta_at_D(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
    D: Fraction | int,
) -> Fraction:
    """The bound evaluated at one shift parameter D in [a, 2a]."""
    D = Fraction(D)
    orbs = nonidentity_orbits(G, action, wt)
    a = min(o.weight for o in orbs)
    if not a <= D <= 2 * a:
        raise ValueError(f"D = {D} outside [{a}, {2 * a}]")
    denom = Fraction(1)
    for o in orbs:
        if o.weight < D:
            denom += 2 * model.mu(o) * (1 - o.weight / D)
    bound = 1 / a - (1 / a - 1 / D) / denom
    if model.kind == "soehne":
        # orbit-level bound must agree with the element-level form deg/3 per element
        elt_denom = Fraction(1)
        for o in orbs:
            if o.weight < D:
                elt_denom += o.size * Fraction(model.deg_k, 3) * (1 - o.weight / D)
        assert elt_denom == denom, "orbit-level and element-level bounds disagree"
    return bound


def theta_best(
    G: AbelianGroup,
    action: GaloisActionSpec,
    wt: WeightFn,
    model: SubconvexityModel,
) -> ThetaResult:
    """Minimize the bound over the candidate shifts (spectrum plus 2a)."""
    if G.order <= 1:
        raise ValueError("theta is undefined for the trivial group")
    a = a_invariant(G, action, wt)
    candidates = sorted(set(weight_spectrum(G, action, wt)) | {2 * a})
    candidates = [D for D in candidates if a <= D <= 2 * a]
    table = tuple((D, theta_at_D(G, action, wt, model, D)) for D in candidates)
    values = [v for _, v in table]
    # convex in D: no interior strict local maximum among the candidates
    for i in range(1, len(values) - 1):
        assert not (
            values[i] > values[i - 1] and values[i] > values[i + 1]
        ), "candidate table has an interior local max"
    best = min(range(len(table)), key=lambda i: (values[i], table[i][0]))
    bound, witness = values[best], table[best][0]
    assert bound == min(values)
    assert bound < 1 / a, "bound does not save over the main term"
    return ThetaResult(bound, witness, model.kind, table)


def theta_ram(G: AbelianGroup, deg_k: int = 1) -> Fraction:
    """Unconditional bound for the product-of-ramified-primes ordering."""
    if G.order <= 1:
        raise ValueError("theta is undefined for the trivial group")
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


def _divisors_from_spf(n: int, spf: list[int]) -> list[int]:
    divs = [1]
    m = n
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def _model_slope(model: SubconvexityModel) -> tuple[int, int]:
    """Per-element coefficient 2 mu / degree as a fraction (cn, cd)."""
    if model.kind == "soehne":
        return model.deg_k, 3
    if model.kind == "convexity":
        return model.deg_k, 2
    if model.kind == "lindelof":
        return 0, 1
    raise ValueError("scan supports only the preset models")


def _scan_chunk(
    lo: int, hi: int, cn: int, cd: int, phi: list[int], spf: list[int]
) -> list[ScanRow]:
    """Rows for composite n in [lo, hi); the sieves must reach hi - 1."""
    rows: list[ScanRow] = []
    for n in range(max(lo, 4), hi):
        if spf[n] == n:
            continue
        divs = _divisors_from_spf(n, spf)[1:]  # drop 1
        inds = [n - n // e for e in divs]
        a, d2 = inds[0], inds[1]
        best_num, best_den = None, None
        for D in inds + [2 * a]:
            s = 0
            for e, ind in zip(divs, inds):
                if ind >= D:
                    break
                s += phi[e] * (D - ind)
            num = cn * s + cd * a
            den = a * (cd * D + cn * s)
            if best_num is None or num * best_den < best_num * den:
                best_num, best_den = num, den
        flag_i = best_num * d2 < best_den
        flag_ii = False
        case_used = "none"
        for e, d in zip(divs[1:], inds[1:]):
            if best_num * d < best_den:
                case = _cyclic_case_fast(n, d, divs, inds)
                if case != "none":
                    flag_ii = True
                    case_used = case
                    break
        rows.append(
            ScanRow(n, a, d2, Fraction(best_num, best_den), flag_i, flag_ii, case_used)
        )
    return rows


def _cyclic_case_fast(n: int, d: int, divs: list[int], inds: list[int]) -> str:
    if d == inds[0]:
        return "case_i"
    nrad = n // radical(n)
    small = [e for e, ind in zip(divs, inds) if ind < d]
    if all(nrad % e == 0 for e in small):
        return "case_ii"
    if n % 4 == 2 and all(nrad % e == 0 or e == 2 for e in small):
        return "case_iii"
    if d == n - 1:
        return "case_iv"
    return "none"


def cyclic_nonvanishing_case(n: int, d: int) -> str:
    """Divisor-arithmetic version of the case classification for C_n."""
    divs = [e for e in divisors(n) if e > 1]
    inds = [n - n // e for e in divs]
    if d not in inds:
        raise ValueError(f"{d} is not in the index spectrum of C_{n}")
    return _cyclic_case_fast(n, d, divs, inds)


def scan_cyclic(
    n_max: int, model: SubconvexityModel | None = None, jobs: int = 1
) -> ScanReport:
    """Scan composite n < n_max for revealed lower order terms.

    Integer arithmetic throughout: for the preset models the bound at D is
    (cn*S + cd*a) / (a*(cd*D + cn*S)) with S = sum phi(e) (D - ind_e) over
    divisors e of smaller index, where cn/cd is 2mu/degree per element.
    Criterion (i) flags theta < 1/d2 for d2 the second smallest index;
    criterion (ii) additionally demands an index d > a with theta < 1/d,
    a proved non-vanishing case, and bbar_d >= 1 (automatic with the default
    zeta-order hook since every index of a cyclic group has b_d = 1).
    """
    if n_max < 4:
        raise ValueError("scan needs n_max >= 4")
    model = model or SubconvexityModel.soehne()
    cn, cd = _model_slope(model)
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
