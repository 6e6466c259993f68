"""The generating Dirichlet series over Q: Euler factors and their uses.

Counting homomorphisms from the absolute Galois group of Q to an abelian
group G by absolute discriminant gives a Dirichlet series that is a product
of local factors.  At a prime p the factor is a polynomial in p^-s whose
terms are indexed by the possible inertia images: away from |G| these are
the elements of order dividing p - 1 weighted by their index, while at
p | |G| the local abelianized Galois group (Z-hat times Z_p^*) is enumerated
hom by hom, with discriminant exponents from conductor-discriminant.

Factoring one cyclotomic zeta per cyclotomic orbit leaves an Euler product
that converges past the abscissa; that decomposition drives the truncated
evaluations, the leading-term residue estimate, the subgroup-lattice sieve
to surjections, and the sign checks for lower order terms.  All four run
their Euler products through one prime loop, ``_euler_products``: one row
per subgroup restricting inertia, each row with its own zeta corrections.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .groups import (
    AbelianGroup,
    Element,
    GroupTooLargeError,
    Subgroup,
    character_angle,
    element_order,
    full_subgroup,
    sieve_terms,
)
from .invariants import (
    GaloisActionSpec,
    OrbitData,
    WeightFn,
    b_d,
    nonidentity_orbits,
    nonvanishing_case,
    weight_spectrum,
)
from .lvalues import dedekind_zeta_residue, dedekind_zeta_value, riemann_zeta_value
from .numerics import (
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    precision_digits,
    primes_up_to,
)

COEFFICIENT_CAP = 200_000


class DivergenceError(ValueError):
    """Evaluation point is outside the convergence region."""


class UnsupportedCaseError(ValueError):
    """No proved expression applies to this (G, d) pair."""


@dataclass(frozen=True)
class LocalFactor:
    """1 + sum of c_j p^(-a_j s), stored as (coefficient, exponent) pairs."""

    prime: int
    terms: tuple[tuple[int, int], ...]

    def coefficient_sum(self) -> int:
        return sum(c for c, _ in self.terms)

    def value(self, s: Fraction):
        """Evaluate at real rational s in the current mp context."""
        s = Fraction(s)
        return self.value_at(mp.power(mp.root(self.prime, s.denominator), -s.numerator))

    def value_at(self, u):
        """Evaluate 1 + sum c u^a with u = p^(-s) precomputed."""
        total = mp.mpf(1)
        for c, a in self.terms:
            total += c * u**a
        return total


def _index_of_order(G: AbelianGroup, e: int) -> int:
    return G.order - G.order // e


def _wild_pairs(G: AbelianGroup, p: int, allowed: frozenset[Element]):
    """Inertia homomorphisms at p | |G| as (tame part, wild part) pairs."""
    elems = tuple(sorted(allowed))
    if p == 2:
        tame = [g for g in elems if G.scale(2, g) == G.identity]
    else:
        tame = [g for g in elems if G.scale(p - 1, g) == G.identity]
    wild = [g for g in elems if _is_prime_power_order(G, g, p)]
    return tame, wild


def _is_prime_power_order(G: AbelianGroup, g: Element, p: int) -> bool:
    o = element_order(G, g)
    while o % p == 0:
        o //= p
    return o == 1


def _wild_disc_exponent(G: AbelianGroup, p: int, t: Element, w: Element) -> int:
    """Sum over dual characters of the local conductor exponent at p."""
    total = 0
    for psi in G.elements():
        tame_trivial = character_angle(G, psi, t) == 0
        wild_angle = character_angle(G, psi, w)
        if wild_angle == 0:
            if tame_trivial:
                continue
            total += 1 if p != 2 else 2
        else:
            j = wild_angle.denominator
            v = 0
            while j % p == 0:
                j //= p
                v += 1
            total += v + (1 if p != 2 else 2)
    return total


def _wild_terms(
    G: AbelianGroup, p: int, allowed: frozenset[Element]
) -> tuple[tuple[int, int], ...]:
    tame, wild = _wild_pairs(G, p, allowed)
    by_exp: dict[int, int] = {}
    for t in tame:
        for w in wild:
            if t == G.identity and w == G.identity:
                continue
            d = _wild_disc_exponent(G, p, t, w)
            by_exp[d] = by_exp.get(d, 0) + 1
    return tuple(sorted((c, a) for a, c in by_exp.items()))


def local_factor(G: AbelianGroup, p: int) -> LocalFactor:
    """Local Euler factor of the hom-counting series at p."""
    return restricted_local_factor(G, full_subgroup(G), p)


@lru_cache(maxsize=None)
def restricted_local_factor(G: AbelianGroup, H: Subgroup, p: int) -> LocalFactor:
    """Local factor for homs whose inertia lands in the subgroup H.

    Discriminant exponents stay those of G (index in G, conductors over the
    dual of G), only the inertia image is restricted.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if G.order % p == 0:
        return LocalFactor(p, _wild_terms(G, p, H.elements))
    by_exp: dict[int, int] = {}
    for e, count in _element_orders(G, H):
        if (p - 1) % e == 0:
            ind = _index_of_order(G, e)
            by_exp[ind] = by_exp.get(ind, 0) + count
    return LocalFactor(p, tuple(sorted((c, a) for a, c in by_exp.items())))


@lru_cache(maxsize=None)
def _element_orders(G: AbelianGroup, H: Subgroup) -> tuple[tuple[int, int], ...]:
    """(order, number of elements of that order) over the non-identity of H."""
    counts = Counter(element_order(G, g) for g in H.elements if g != G.identity)
    return tuple(sorted(counts.items()))


# -- zeta factorization --------------------------------------------------------


@dataclass(frozen=True)
class ZetaFactorization:
    """One cyclotomic zeta factor zeta_{Q(zeta_m)}(a s) per non-identity orbit."""

    group: AbelianGroup
    entries: tuple[tuple[int, int], ...]  # (cyclotomic conductor m, scale a)

    def pole_order(self, d: int) -> int:
        return sum(1 for _, a in self.entries if a == d)


@lru_cache(maxsize=None)
def _disc_orbits(G: AbelianGroup) -> tuple[OrbitData, ...]:
    return nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), WeightFn.disc())


def zeta_factorization(G: AbelianGroup) -> ZetaFactorization:
    entries = tuple(
        sorted((o.element_order, int(o.weight)) for o in _disc_orbits(G))
    )
    fact = ZetaFactorization(G, entries)
    action, wt = GaloisActionSpec.cyclotomic(G), WeightFn.disc()
    for d in weight_spectrum(G, action, wt):
        assert fact.pole_order(int(d)) == b_d(G, action, wt, d), (
            "zeta factor count disagrees with the orbit count"
        )
    return fact


@lru_cache(maxsize=None)
def zeta_local_data(m: int, p: int) -> tuple[int, int]:
    """(residue degree f, number of primes g) for p in Q(zeta_m).

    Ramification at p | m is handled by stripping the p-part of m.
    """
    m_prime = m
    while m_prime % p == 0:
        m_prime //= p
    f = multiplicative_order(p % m_prime if m_prime > 1 else 0, m_prime)
    return f, euler_phi(m_prime) // f


# -- truncated Euler products ----------------------------------------------


FACTOR_LOG_LIMIT = 25  # per-prime factors kept for inspection


@dataclass(frozen=True)
class EulerProductState:
    group: AbelianGroup
    s: Fraction
    p_max: int
    mode: str
    value: object  # mpf
    checkpoints: tuple[tuple[int, object], ...]
    factor_log: tuple[tuple[int, object], ...] = ()

    def as_dict(self) -> dict:
        return {
            "group": str(self.group),
            "s": str(self.s),
            "p_max": self.p_max,
            "mode": self.mode,
            "value": mp.nstr(self.value, 30),
            "checkpoints": [[p, mp.nstr(v, 30)] for p, v in self.checkpoints],
            "factor_log": [[p, mp.nstr(v, 20)] for p, v in self.factor_log],
        }


def _checkpoint_set(p_max: int) -> list[int]:
    marks = sorted({max(2, p_max // 100), max(2, p_max // 10), p_max})
    return marks


def _euler_products(G: AbelianGroup, s: Fraction, p_max: int, rows, factor_log=None):
    """The one prime loop: a truncated Euler product per row over p <= p_max.

    A row is (H, corrections).  Its factor at p is the local factor with
    inertia restricted to H at u = p^(-s), times (1 - u^(ind f_p))^(k g_p)
    for each correction (m, ind, k), where p has residue degree f_p and g_p
    primes in Q(zeta_m).  Yields (mark, p, products) at each checkpoint
    mark, p being the prime that reached the mark or None once the primes
    ran out; the last products are the whole truncated products.  For a
    one-row call, factor_log receives the first FACTOR_LOG_LIMIT (p, factor).
    """
    prods = [mp.mpf(1)] * len(rows)
    marks = _checkpoint_set(p_max)
    for p in primes_up_to(p_max):
        u = mp.power(mp.root(p, s.denominator), -s.numerator)
        for i, (H, corrections) in enumerate(rows):
            factor = restricted_local_factor(G, H, p).value_at(u)
            for m, ind, k in corrections:
                f_p, g_p = zeta_local_data(m, p)
                factor *= (1 - u ** (ind * f_p)) ** (k * g_p)
            prods[i] *= factor
        if factor_log is not None and len(factor_log) < FACTOR_LOG_LIMIT:
            factor_log.append((p, factor))
        while marks and p >= marks[0]:
            yield marks.pop(0), p, tuple(prods)
    for mark in marks:
        yield mark, None, tuple(prods)


def euler_product_truncated(
    G: AbelianGroup,
    s: Fraction | int,
    p_max: int,
    mode: str = "full",
    dps: int | None = None,
) -> EulerProductState:
    """Product of local factors over p <= p_max at real s.

    mode 'full' needs s > 1/a; mode 'residual' divides out the zeta Euler
    factors orbit by orbit and needs only s > 1/(2a).
    """
    s = Fraction(s)
    orbs = _disc_orbits(G)
    a = min(o.weight for o in orbs) if orbs else Fraction(1)
    if mode == "full" and s <= 1 / a:
        raise DivergenceError(f"full product diverges at s = {s} <= 1/a")
    if mode == "residual" and s <= 1 / (2 * a):
        raise DivergenceError(f"residual product diverges at s = {s} <= 1/(2a)")
    if mode not in ("full", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    dps = dps or precision_digits()
    corrections = ()
    if mode == "residual":
        corrections = tuple((o.element_order, int(o.weight), 1) for o in orbs)
    rows = [(full_subgroup(G), corrections)]
    factor_log: list = []
    with mp.workdps(dps + 10):
        checkpoints = tuple(
            (p or p_max, prods[0])
            for _, p, prods in _euler_products(G, s, p_max, rows, factor_log)
        )
    return EulerProductState(
        G, s, p_max, mode, checkpoints[-1][1], checkpoints, tuple(factor_log)
    )


# -- Dirichlet coefficients --------------------------------------------------


def _coefficients_for_factors(factors: dict[int, tuple[tuple[int, int], ...]], n_max: int) -> dict[int, int]:
    coeffs = {1: 1}
    for p, terms in sorted(factors.items()):
        snapshot = list(coeffs.items())
        for c, a in terms:
            pa = p**a
            if pa > n_max:
                continue
            for n, v in snapshot:
                m = n * pa
                if m <= n_max:
                    coeffs[m] = coeffs.get(m, 0) + c * v
    return coeffs


def series_coefficients(
    G: AbelianGroup, n_max: int, surjective: bool = False
) -> dict[int, int]:
    """Exact coefficients up to n_max: counts of homs (or surjections) by |disc|."""
    if n_max > COEFFICIENT_CAP:
        raise GroupTooLargeError(f"coefficient bound {n_max} exceeds the cap")
    if not surjective:
        return _coefficients_for_factors(_factor_terms(G, full_subgroup(G), n_max), n_max)
    total: dict[int, int] = {}
    for H, mu in sieve_terms(G):
        part = _coefficients_for_factors(_factor_terms(G, H, n_max), n_max)
        for n, v in part.items():
            total[n] = total.get(n, 0) + mu * v
    return {n: v for n, v in sorted(total.items()) if v}


def _factor_terms(G: AbelianGroup, H: Subgroup, n_max: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Local factor terms (restricted to inertia in H) for every usable prime."""
    out: dict[int, tuple[tuple[int, int], ...]] = {}
    min_ind = min(
        (_index_of_order(G, element_order(G, g)) for g in H.elements if g != G.identity),
        default=None,
    )
    if min_ind is None:
        return out
    wild = [p for p, _ in factorize(G.order)]
    for p in primes_up_to(n_max):
        if p not in wild and p**min_ind > n_max:
            continue
        terms = restricted_local_factor(G, H, p).terms
        terms = tuple((c, a) for c, a in terms if p**a <= n_max)
        if terms:
            out[p] = terms
    return out


# -- the surjection sieve ------------------------------------------------------


def sieve_to_surjective(
    G: AbelianGroup,
    s: Fraction | int,
    p_max: int,
    dps: int | None = None,
) -> tuple[object, tuple[tuple[str, int, object], ...]]:
    """Moebius-weighted sum of truncated subgroup-restricted products at s.

    Returns (value, terms) with one (subgroup label, mu, product value) per
    subgroup containing the Frattini subgroup.
    """
    s = Fraction(s)
    orbs = _disc_orbits(G)
    a = min(o.weight for o in orbs)
    if s <= 1 / a:
        raise DivergenceError(f"sieve summands diverge at s = {s} <= 1/a")
    dps = dps or precision_digits()
    subgroups = sieve_terms(G)
    terms_out = []
    with mp.workdps(dps + 10):
        *_, (_, _, prods) = _euler_products(G, s, p_max, [(H, ()) for H, _ in subgroups])
        total = mp.mpf(0)
        for (H, mu), prod in zip(subgroups, prods):
            label = "+".join(str(e) for e in sorted({element_order(G, g) for g in H.elements}))
            terms_out.append((f"H(order={H.order};orders={label})", mu, prod))
            total += mu * prod
    return total, tuple(terms_out)


# -- residues and non-vanishing ----------------------------------------------


@dataclass(frozen=True)
class MainTermEstimate:
    group: AbelianGroup
    exponent: Fraction
    log_power: int
    leading: object  # mpf
    checkpoints: tuple[tuple[int, object], ...]

    def predict(self, x: float):
        ex = mp.mpf(self.exponent.numerator) / self.exponent.denominator
        return self.leading * mp.power(x, ex) * mp.log(x) ** self.log_power

    def as_dict(self) -> dict:
        return {
            "group": str(self.group),
            "exponent": str(self.exponent),
            "log_power": self.log_power,
            "leading": mp.nstr(self.leading, 20),
            "checkpoints": [[p, mp.nstr(v, 20)] for p, v in self.checkpoints],
        }


def residue_main_term(
    G: AbelianGroup, p_max: int, dps: int | None = None
) -> MainTermEstimate:
    """Leading main-term coefficient of the surjection count.

    The count grows like leading * X^(1/a) log(X)^(b-1); the leading value
    combines, for every sieve subgroup containing all minimal-index orbits,
    the truncated residual Euler product at s = 1/a, the zeta residues of
    the minimal-index orbits, and the zeta values of the larger orbits.
    """
    dps = dps or precision_digits()
    orbs = _disc_orbits(G)
    a = int(min(o.weight for o in orbs))
    b = sum(1 for o in orbs if o.weight == a)
    with mp.workdps(dps + 10):
        rows, weights = [], []
        for H, mu in sieve_terms(G):
            orbits_in = [o for o in orbs if o.representative in H.elements]
            if sum(1 for o in orbits_in if o.weight == a) < b:
                continue
            zeta_part = mp.mpf(1)
            for o in orbits_in:
                if o.weight == a:
                    zeta_part *= dedekind_zeta_residue(o.element_order, dps) / a
                else:
                    zeta_part *= dedekind_zeta_value(
                        o.element_order, Fraction(int(o.weight), a), dps
                    )
            rows.append((H, tuple((o.element_order, int(o.weight), 1) for o in orbits_in)))
            weights.append((mu, zeta_part))
        partials = {
            mark: mp.fsum(mu * z * prod for (mu, z), prod in zip(weights, prods))
            for mark, _, prods in _euler_products(G, Fraction(1, a), p_max, rows)
        }
        residue = partials[max(partials)]
        lead = residue * a / math.factorial(b - 1)
        checkpoints = tuple(
            (m, v * a / math.factorial(b - 1)) for m, v in sorted(partials.items())
        )
    return MainTermEstimate(G, Fraction(1, a), b - 1, lead, checkpoints)


@dataclass(frozen=True)
class NonvanishingReport:
    group: AbelianGroup
    d: int
    case: str
    p_max: int
    checkpoints: tuple[tuple[int, object], ...]

    @property
    def value(self):
        return self.checkpoints[-1][1]

    @property
    def sign(self) -> int:
        v = self.value
        return 0 if v == 0 else (1 if v > 0 else -1)

    @property
    def sign_stable(self) -> bool:
        signs = {1 if v > 0 else (-1 if v < 0 else 0) for _, v in self.checkpoints}
        return len(signs) == 1 and 0 not in signs

    def as_dict(self) -> dict:
        return {
            "group": str(self.group),
            "d": self.d,
            "case": self.case,
            "p_max": self.p_max,
            "value": mp.nstr(self.value, 20),
            "sign": self.sign,
            "sign_stable": self.sign_stable,
            "checkpoints": [[p, mp.nstr(v, 20)] for p, v in self.checkpoints],
        }


def nonvanishing_limit(
    G: AbelianGroup, d: int, p_max: int, dps: int | None = None
) -> NonvanishingReport:
    """Truncated limit expression certifying the pole at s = 1/d.

    Cases i/ii evaluate the sieve with all smaller-index zeta factors divided
    out (the result is a sum of nonnegative sieve contributions, so positive).
    Case iii keeps the minimal-index zeta as an explicit negative value and
    splits the sieve by whether the subgroup contains the 2-torsion.  Case iv
    is the single full-group term of the sieve.
    """
    case = nonvanishing_case(G, d)
    if case == "none":
        raise UnsupportedCaseError(f"no proved expression for {G} at d = {d}")
    dps = dps or precision_digits()
    orbs = _disc_orbits(G)
    action, wt = GaloisActionSpec.cyclotomic(G), WeightFn.disc()
    a = int(min(o.weight for o in orbs))
    entries = tuple(
        (o.element_order, int(o.weight), b_d(G, action, wt, o.weight))
        for o in orbs
    )

    def sieve_value(subgroups, corr_lower, corr_upper):
        """Sieve sum with the zeta factors of corr_lower < ind < corr_upper
        divided out; entries carry (m, ind, multiplicity b_ind)."""
        corrections = tuple(e for e in entries if corr_lower < e[1] < corr_upper)
        rows = [(H, corrections) for H, _ in subgroups]
        return {
            mark: mp.fsum(mu * prod for (_, mu), prod in zip(subgroups, prods))
            for mark, _, prods in _euler_products(G, Fraction(1, d), p_max, rows)
        }

    with mp.workdps(dps + 10):
        if case in ("case_i", "case_ii"):
            partial = sieve_value(sieve_terms(G), Fraction(0), Fraction(d))
            checkpoints = tuple(sorted(partial.items()))
        elif case == "case_iv":
            partial = sieve_value(
                ((full_subgroup(G), 1),), Fraction(0), Fraction(d)
            )
            checkpoints = tuple(sorted(partial.items()))
        else:  # case_iii: split at the 2-torsion subgroup
            two = frozenset(
                g for g in G.elements() if G.scale(2, g) == G.identity
            )
            with_two = tuple((H, mu) for H, mu in sieve_terms(G) if two <= H.elements)
            without_two = tuple(
                (H, mu) for H, mu in sieve_terms(G) if not two <= H.elements
            )
            s_plus = sieve_value(with_two, Fraction(0), Fraction(d))
            s_minus = sieve_value(without_two, Fraction(a), Fraction(d))
            zeta_at = riemann_zeta_value(Fraction(a, d), dps)
            checkpoints = tuple(
                (m, zeta_at * s_plus[m] + s_minus[m]) for m in sorted(s_plus)
            )
    return NonvanishingReport(G, d, case, p_max, checkpoints)
