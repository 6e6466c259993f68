"""The generating Dirichlet series over Q: Euler factors and their uses.

Counting homomorphisms from the absolute Galois group of Q to an abelian
group G by absolute discriminant gives a Dirichlet series that is a product
of local factors.  At a prime p the factor is a polynomial in p^-s whose
terms are indexed by the possible inertia images, pairs of a tame and a
wild element; by conductor-discriminant the discriminant exponent of a pair
has a closed form in the element orders, so every factor comes from the
element-order histogram of G (away from |G| the exponent is the index).

Factoring one cyclotomic zeta per cyclotomic orbit leaves an Euler product
that converges past the abscissa; that decomposition drives the truncated
evaluations, the leading-term residue estimate, the subgroup-lattice sieve
to surjections, and the sign checks for lower order terms.  All four run
their Euler products through one prime loop, ``_euler_products``, with one
row per element-order histogram of the subgroup restricting inertia: a
row's factors depend on the subgroup only through it, and its zeta
corrections are cyclotomic orbits, counted from a histogram by
``invariants.cyclotomic_orbits``.  So the sieve has one row per
``groups.sieve_types`` entry, a histogram with its summed Moebius weight:
7 rows for the 2,825 sieve subgroups of C2^6.

A row's factor at p is an integer polynomial in u = p^-s that depends on p
only through p mod exp(G): a prime dividing |G| is alone in its class, and
for every other prime the wild part is trivial while the tame part
gcd(p - 1, exp G) and the splitting of p in each Q(zeta_m), m | exp(G), are
fixed by p mod exp(G).  So the loop builds each row's polynomial once per
class, and per prime evaluates each distinct polynomial of its class once.

The loop runs on Python ints in fixed point at scale 2^W, W being mp.prec
plus GUARD_BITS: u = floor(2^W p^-s) from ``integer_root``, its powers
shared by the polynomials of a class, and each row's product a (mantissa,
exponent) pair kept at W bits.  mpfs are built only at the checkpoints.
Every step truncates, so the loop knows its rounding error: for a factor
f = 1 + sum c u^a it is below sum |c| (2a - 1) units of 2^-W, relative to
f, and below 2 units per product step; a row's stated relative bound is
twice their sum over the primes, plus 2^-mp.prec for the final rounding.
``_sieve_sums`` evaluates every weighted sum over rows and reads a sum
within its summed bound as an exact 0 (the primes so far admit no
surjection) only if each of its rows states a bound below 1; else it raises.
No prime loop runs past EULER_PRIME_CAP.  The precision is that of
``lvalues.working_precision``.

The exact Dirichlet coefficients come from the same factors.  They are
multiplicative, so ``series_coefficients`` keeps them in one list over
n <= n_max, and each prime p makes one pass over it, n descending, adding
c v[n] to v[n p^a] for every term c p^(-a s) with n p^a <= n_max; the cost
is the sum over p of n_max / p^a_min, not the number of primes times the
number of nonzero coefficients.  Every exponent is at least the least index
min_ind of a nontrivial element of the inertia subgroup, so a row uses
only the primes up to the min_ind-th root of n_max, and a call sieves them
once, up to the largest such root.  The surjection sieve makes one pass
per sieve type and skips the types whose Moebius sum vanishes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .groups import (
    AbelianGroup,
    BudgetExceededError,
    Histogram,
    element_orders,
    sieve_terms,
    sieve_types,
)
from .invariants import cyclotomic_orbits, nonvanishing_case
from .lvalues import dedekind_zeta_residue, dedekind_zeta_value, working_precision
from .numerics import (
    divisors,
    euler_phi,
    factorize,
    integer_root,
    is_prime,
    multiplicative_order,
    primes_up_to,
)

COEFFICIENT_CAP = 200_000
EULER_PRIME_CAP = 10**7


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
        u = mp.power(mp.root(self.prime, s.denominator), -s.numerator)
        total = mp.mpf(1)
        for c, a in self.terms:
            total += c * u**a
        return total


def local_factor(G: AbelianGroup, p: int) -> LocalFactor:
    """Local Euler factor of the hom-counting series at p."""
    return restricted_local_factor(G, element_orders(G), p)


@lru_cache(maxsize=None)
def restricted_local_factor(G: AbelianGroup, orders: Histogram, p: int) -> LocalFactor:
    """Local factor for homs whose inertia lands in a subgroup H of histogram ``orders``.

    Discriminant exponents stay those of G (index in G, conductors over the
    dual of G), only the inertia image is restricted.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    wild = p ** dict(factorize(G.order)).get(p, 0)
    tame = math.gcd(2 if p == 2 else p - 1, G.exponent)
    return LocalFactor(p, _local_terms(G.order, orders, wild, tame))


@lru_cache(maxsize=None)
def _local_terms(n: int, orders: Histogram, wild: int, tame: int) -> tuple[tuple[int, int], ...]:
    """Local factor terms at a prime p for G of order n from the histogram of H.

    Inertia at p maps to a pair (t, w) of elements of H: the tame part t has
    order dividing ``tame`` (gcd(p - 1, exp G), or 2 at p = 2) and the wild
    part w order dividing ``wild``, the p-part of |G|.  A character psi of G
    adds j + c to the discriminant exponent when psi(w) has exact order
    p^j > 1, and c when psi(w) = 1 but psi(t) != 1, where c = 2 at p = 2
    and 1 otherwise (conductor-discriminant).  Counting the characters of
    each kind gives the exponent
    c (|G| - |G|/|<t, w>|) + sum over 1 < q dividing |w| of (|G| - |G|/q).
    For p not dividing |G| only w = 0 occurs and this is the index of t, so
    the terms depend on p only through gcd(p - 1, exp G).
    """
    at_two = wild % 2 == 0  # p = 2 divides |G| (for odd |G|, t = w = 0 at 2)
    c = 2 if at_two else 1
    pairs = []  # (number of pairs (t, w), order of w, order of <t, w>)
    if at_two:  # the t in <w> are 0 and, for w != 0, the involution of <w>
        tame_count = sum(k for o, k in orders if tame % o == 0)
        for o, k in orders:
            if wild % o == 0:
                inside = min(o, 2)
                pairs += [(k * inside, o, o), (k * (tame_count - inside), o, 2 * o)]
    else:  # coprime orders: t + w runs once over the elements of H
        for o, k in orders:
            w = math.gcd(o, wild)
            if tame % (o // w) == 0:
                pairs.append((k, w, o))
    by_exp: Counter = Counter()
    for k, w, order in pairs:
        exponent = c * (n - n // order) + sum(n - n // q for q in divisors(w)[1:])
        if k and exponent:
            by_exp[exponent] += k
    return tuple(sorted((k, a) for a, k in by_exp.items()))


# -- zeta factorization --------------------------------------------------------


@dataclass(frozen=True)
class ZetaFactorization:
    """One cyclotomic zeta factor zeta_{Q(zeta_m)}(a s) per non-identity orbit."""

    group: AbelianGroup
    entries: tuple[tuple[int, int], ...]  # (cyclotomic conductor m, scale a)

    def pole_order(self, d: int) -> int:
        return sum(1 for _, a in self.entries if a == d)


def _sieve_entries(G: AbelianGroup) -> tuple[tuple[tuple[int, int], ...], int]:
    """The orbit entries of G and its least index a, for the sieve's callers."""
    entries = cyclotomic_orbits(G, element_orders(G))
    if not entries:
        raise ValueError("the surjection sieve is undefined for the trivial group")
    return entries, entries[0][1]


def zeta_factorization(G: AbelianGroup) -> ZetaFactorization:
    return ZetaFactorization(G, cyclotomic_orbits(G, element_orders(G)))


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
GUARD_BITS = 32  # fixed-point bits of the prime loop beyond mp.prec


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


def _class_key(G: AbelianGroup, p: int) -> int:
    """p mod exp(G), the class of p (see the module docstring).

    p = 2 with exp(G) odd shares its class: its tame part gcd(2, exp G) = 1
    is that of every p = 2 mod exp(G), and its splitting in Q(zeta_m) is
    fixed by 2 mod m as for any p not dividing m.
    """
    return p % G.exponent


def _row_polynomial(G: AbelianGroup, orders: Histogram, corrections, p: int) -> LocalFactor:
    """A row's Euler factor at p as an exact integer polynomial in u = p^(-s).

    The polynomial (1 + sum c u^a) * prod (1 - u^(ind f_p))^(g_p) is
    returned as a ``LocalFactor`` at p; it is the factor of every prime of
    p's class (``_class_key``).
    """
    coeffs = [1]
    for c, a in restricted_local_factor(G, orders, p).terms:
        coeffs += [0] * (a + 1 - len(coeffs))
        coeffs[a] += c
    for m, ind in corrections:
        f_p, g_p = zeta_local_data(m, p)
        n = ind * f_p
        for _ in range(g_p):
            coeffs += [0] * n
            for k in range(len(coeffs) - 1, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return LocalFactor(p, tuple((c, k) for k, c in enumerate(coeffs) if c and k))


def _class_plan(G: AbelianGroup, rows, p: int):
    """((factor, row indices), ...): each distinct ``_row_polynomial`` at p once."""
    plan: dict = {}
    for i, (orders, corrections) in enumerate(rows):
        plan.setdefault(_row_polynomial(G, orders, corrections, p), []).append(i)
    return tuple(plan.items())


def _euler_products(
    G: AbelianGroup, s: Fraction, p_max: int, rows, factor_log=None, bounds=None
):
    """The one prime loop: a truncated Euler product per row over p <= p_max.

    A row is (orders, corrections).  Its factor at p is the local factor
    with inertia restricted to a subgroup of element-order histogram orders
    at u = p^(-s), times (1 - u^(ind f_p))^(g_p)
    for each correction (m, ind), where p has residue degree f_p and g_p
    primes in Q(zeta_m): the Euler factor at p of 1/zeta_{Q(zeta_m)}(ind s).
    That factor is an integer polynomial in u which depends on p only
    through its class p mod exp(G) (``_class_key``): a prime dividing |G|
    is alone in its class, and for the others p mod exp(G) fixes the tame
    part gcd(p - 1, exp G) and every f_p and g_p.  The first prime of a
    class builds each row's polynomial; every prime evaluates each distinct
    polynomial of its class once and multiplies it into the rows that
    share it.

    The loop runs on Python ints at the fixed-point scale 2^W, W = mp.prec +
    GUARD_BITS.  With s = n/q, u = floor(2^W p^(-s)) is
    ``integer_root(2^(q W) // p^n, q)``, and the powers u^a a class needs
    are truncated products shared by its polynomials.  A row's product is
    a pair (mantissa, exponent) renormalized to W bits after every factor,
    so a product that grows or shrinks keeps its relative precision.
    Every truncation rounds down by less than one unit of 2^-W, so u^a is
    short by less than 2a - 1 units and a polynomial sum c u^a is off by
    less than e = sum |c| (2a - 1) units; a factor f adds a relative error
    of e / f and each product step one of 2 units.  The bound a row states
    at a mark is twice the sum of these over its primes (covering the
    higher orders while that sum is below 1/4) plus 2^-mp.prec for the
    rounding of the product to an mpf.

    Yields (mark, p, products) at each checkpoint mark, p being the prime
    that reached the mark or None once the primes ran out; the products are
    mpfs, and the last ones are the whole truncated products.  With a list
    as bounds, each mark appends the rows' relative rounding bounds (mpfs).
    For a one-row call, factor_log receives the first FACTOR_LOG_LIMIT
    (p, factor).
    """
    if p_max < 2:
        raise ValueError(f"p_max = {p_max} takes no prime; it must be at least 2")
    if p_max > EULER_PRIME_CAP:
        raise BudgetExceededError(f"prime bound {p_max} exceeds the cap {EULER_PRIME_CAP}")
    W = mp.prec + GUARD_BITS
    one, top = 1 << W, 1 << (s.denominator * W)
    mants, exps = [one] * len(rows), [-W] * len(rows)
    errors: list = []  # sum over the primes of e / f per plan entry, in units
    row_entries: list = [[] for _ in rows]  # the plan entries of each row

    def checkpoint(steps):
        if bounds is not None:
            bounds.append(tuple(
                mp.ldexp(2 * (sum(errors[j] for j in entries) + 2 * steps) + 2**GUARD_BITS, -W)
                for entries in row_entries
            ))
        return tuple(mp.mpf(pair) for pair in zip(mants, exps))

    marks = _checkpoint_set(p_max)
    plans: dict = {}
    for steps, p in enumerate(primes_up_to(p_max), 1):
        key = _class_key(G, p)
        plan = plans.get(key)
        if plan is None:
            polys, entries = _class_plan(G, rows, p), []
            for poly, indices in polys:
                for i in indices:
                    row_entries[i].append(len(errors))
                e = sum(abs(c) * (2 * a - 1) for c, a in poly.terms)
                entries.append((poly.terms, e << W, indices, len(errors)))
                errors.append(0.0)
            needed = sorted({a for poly, _ in polys for _, a in poly.terms})
            plan = plans[key] = (needed, entries)
        needed, entries = plan
        powers = _fixed_powers(integer_root(top // p**s.numerator, s.denominator), needed, W)
        for terms, scaled_e, indices, j in entries:
            factor = one
            for c, a in terms:
                factor += c * powers[a]
            errors[j] += scaled_e / factor if factor > 0 else math.inf
            for i in indices:
                m = mants[i] * factor
                shift = m.bit_length() - W
                mants[i] = m >> shift if shift >= 0 else m << -shift
                exps[i] += shift - W
        if factor_log is not None and len(factor_log) < FACTOR_LOG_LIMIT:
            factor_log.append((p, mp.mpf((factor, -W))))
        while marks and p >= marks[0]:
            yield marks.pop(0), p, checkpoint(steps)
    for mark in marks:
        yield mark, None, checkpoint(steps)


def _fixed_powers(u: int, exponents, W: int) -> dict[int, int]:
    """{a: u^a} at scale 2^W for the ascending exponents, each truncated.

    u^a is u^b times u^(a - b) for the exponent b before it, and each gap's
    power is computed once.
    """
    gaps: dict[int, int] = {}
    powers: dict[int, int] = {}
    previous = 0
    for a in exponents:
        gap = a - previous
        if gap not in gaps:
            gaps[gap] = _fixed_power(u, gap, W)
        powers[a] = gaps[gap] if previous == 0 else (powers[previous] * gaps[gap]) >> W
        previous = a
    return powers


def _fixed_power(u: int, k: int, W: int) -> int:
    """u^k at scale 2^W by square-and-multiply, truncated after each product."""
    result = None
    while True:
        if k & 1:
            result = u if result is None else (result * u) >> W
        k >>= 1
        if not k:
            return result
        u = (u * u) >> W


def euler_product_truncated(
    G: AbelianGroup, s: Fraction | int, p_max: int, mode: str = "full"
) -> EulerProductState:
    """Product of local factors over p <= p_max at real s.

    mode 'full' needs s > 1/a; mode 'residual' divides out the zeta Euler
    factors orbit by orbit and needs only s > 1/(2a).
    """
    s = Fraction(s)
    orders = element_orders(G)
    entries = cyclotomic_orbits(G, orders)
    a = Fraction(entries[0][1] if entries else 1)
    if mode == "full" and s <= 1 / a:
        raise DivergenceError(f"full product diverges at s = {s} <= 1/a")
    if mode == "residual" and s <= 1 / (2 * a):
        raise DivergenceError(f"residual product diverges at s = {s} <= 1/(2a)")
    if mode not in ("full", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = [(orders, entries if mode == "residual" else ())]
    factor_log: list = []
    with working_precision():
        checkpoints = tuple(
            (p or p_max, prods[0])
            for _, p, prods in _euler_products(G, s, p_max, rows, factor_log)
        )
    return EulerProductState(
        G, s, p_max, mode, checkpoints[-1][1], checkpoints, tuple(factor_log)
    )


# -- Dirichlet coefficients --------------------------------------------------


def series_coefficients(
    G: AbelianGroup, n_max: int, surjective: bool = False
) -> dict[int, int]:
    """Exact coefficients up to n_max: counts of homs (or surjections) by |disc|.

    Each sieve type with a nonzero Moebius sum runs one ``_add_coefficients``
    pass (see the module docstring); the primes are sieved once, up to the
    largest root of n_max that a pass uses.
    """
    if n_max > COEFFICIENT_CAP:
        raise BudgetExceededError(f"coefficient bound {n_max} exceeds the cap")
    if n_max < 1:
        raise ValueError("the coefficient bound must be at least 1")
    rows = sieve_types(G) if surjective else ((element_orders(G), 1),)
    rows = [(orders, mu) for orders, mu in rows if mu]
    # a pass uses the primes up to the min_ind-th root of n_max, where min_ind
    # is the index of its type's first orbit entry (none for trivial H)
    roots = [
        integer_root(n_max, ind)
        for orders, _ in rows
        for _, ind in cyclotomic_orbits(G, orders)[:1]
    ]
    primes = primes_up_to(max(roots, default=1))
    total = [0] * (n_max + 1)
    for orders, mu in rows:
        _add_coefficients(total, G, orders, mu, primes)
    return {n: v for n, v in enumerate(total) if v}


def _add_coefficients(
    total: list[int], G: AbelianGroup, orders: Histogram, mu: int, primes: list[int]
) -> None:
    """Add mu times the coefficients of the series with inertia in H to total,
    H being a subgroup of element-order histogram orders.

    total holds n = 0..n_max and primes every prime the pass uses.  A local
    exponent is at least min_ind, the least index of a nontrivial element of
    H: the inertia image <t, w> contains t + w, w, or at p = 2 the involution
    t, and its exponent is at least that element's index.  So only the
    primes up to the min_ind-th root of n_max are used, wild ones included.
    The pass at p walks n downwards: before it the values vanish on the
    multiples of p, and it writes only to multiples of p above the n it
    reads, so each value it reads is final.
    """
    n_max = len(total) - 1
    orbits_in = cyclotomic_orbits(G, orders)
    steps = []  # (p, ((c, p^a), ...) by ascending a)
    if orbits_in:
        root = integer_root(n_max, orbits_in[0][1])  # min_ind
        by_class: dict[int, list[tuple[int, int]]] = {}
        for p in primes[: bisect_right(primes, root)]:
            key = _class_key(G, p)
            if key not in by_class:
                by_class[key] = sorted(restricted_local_factor(G, orders, p).terms, key=lambda t: t[1])
            powers = tuple((c, p**a) for c, a in by_class[key] if p**a <= n_max)
            if powers:
                steps.append((p, powers))
    if not steps:
        total[1] += mu
        return
    vals = [0] * (n_max + 1)
    vals[1] = mu
    for p, powers in steps:
        for n in range(n_max // powers[0][1], 0, -1):
            v = vals[n]
            if v:
                for c, q in powers:
                    m = n * q
                    if m > n_max:
                        break
                    vals[m] += c * v
    for n, v in enumerate(vals):
        if v:
            total[n] += v


# -- the surjection sieve ------------------------------------------------------


def _sieve_sums(G: AbelianGroup, s: Fraction, p_max: int, parts):
    """Each part's weighted sum of its rows' products at every checkpoint.

    A part is a list of rows (orders, corrections, weight): an
    ``_euler_products`` row and the weight of its product, a Moebius sum,
    possibly times zeta values.  Every part runs in one prime loop.  Returns
    ((mark, sums, products), ...) with one sum per part and every row's
    product, the parts' rows in turn.  A sum within its rounding bound,
    sum |weight prod| times each product's stated bound plus 2^-prec for
    the product by the weight, is exactly 0; such sums occur where the
    primes so far admit no surjection.  If a row of nonzero weight states a
    bound of 1 or more, such a sum has no digits and raises
    BudgetExceededError instead.
    """
    rows = [row for part in parts for row in part]
    bounds: list = []
    marks = list(_euler_products(G, s, p_max, [row[:2] for row in rows], bounds=bounds))
    unit = mp.ldexp(1, -mp.prec)
    out = []
    for (mark, _, prods), errors in zip(marks, bounds):
        terms = [(row[2], row[2] * prod, error) for row, prod, error in zip(rows, prods, errors)]
        sums, start = [], 0
        for part in parts:
            own, start = terms[start : start + len(part)], start + len(part)
            value = mp.fsum(t for _, t, _ in own)
            if abs(value) > mp.fsum(abs(t) * (error + unit) for _, t, error in own):
                sums.append(value)
                continue
            worst = max((error for weight, _, error in own if weight), default=0)
            if worst >= 1:
                raise BudgetExceededError(
                    f"a sieve row states a relative bound of {mp.nstr(worst, 3)} at p <= {mark} "
                    f"with {mp.dps} working digits; raise MALLE_LAB_PRECISION"
                )
            sums.append(mp.zero)
        out.append((mark, sums, prods))
    return out


def sieve_to_surjective(
    G: AbelianGroup, s: Fraction | int, p_max: int
) -> tuple[object, tuple[tuple[str, int, object], ...]]:
    """Moebius-weighted sum of truncated subgroup-restricted products at s.

    One product runs per sieve type.  Returns (value, terms) with one
    (subgroup label, mu, product value) per subgroup containing the Frattini
    subgroup, in ``sieve_terms`` order; a subgroup's product is its type's.
    The value is exactly 0 when within its rounding bound (``_sieve_sums``).
    """
    s = Fraction(s)
    _, a = _sieve_entries(G)
    if s <= Fraction(1, a):
        raise DivergenceError(f"sieve summands diverge at s = {s} <= 1/a")
    subgroups = sieve_terms(G)  # raises above SIEVE_TERMS_CAP before the prime loop
    types = sieve_types(G)
    with working_precision():
        *_, (_, (total,), prods) = _sieve_sums(
            G, s, p_max, [[(orders, (), mu) for orders, mu in types]]
        )
    by_type = {orders: prod for (orders, _), prod in zip(types, prods)}
    terms_out = []
    for H, mu in subgroups:
        orders = element_orders(H)
        label = "+".join(str(o) for o, _ in orders)
        terms_out.append((f"H(order={H.order};orders={label})", mu, by_type[orders]))
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


def residue_main_term(G: AbelianGroup, p_max: int) -> MainTermEstimate:
    """Leading main-term coefficient of the surjection count.

    The count grows like leading * X^(1/a) log(X)^(b-1); the leading value
    combines, for every sieve type containing all minimal-index orbits, the
    truncated residual Euler product at s = 1/a, the zeta residues of the
    minimal-index orbits, and the zeta values of the larger orbits.
    """
    entries, a = _sieve_entries(G)
    b = sum(1 for _, ind in entries if ind == a)
    with working_precision():
        rows = []
        for orders, mu in sieve_types(G):
            orbits_in = cyclotomic_orbits(G, orders)
            if sum(1 for _, ind in orbits_in if ind == a) < b:
                continue
            zeta_part = mp.mpf(1)
            for m, ind in orbits_in:
                if ind == a:
                    zeta_part *= dedekind_zeta_residue(m) / a
                else:
                    zeta_part *= dedekind_zeta_value(m, Fraction(ind, a))
            rows.append((orders, orbits_in, mu * zeta_part))
        checkpoints = tuple(
            (mark, value * a / math.factorial(b - 1))
            for mark, (value,), _ in _sieve_sums(G, Fraction(1, a), p_max, [rows])
        )
    return MainTermEstimate(G, Fraction(1, a), b - 1, checkpoints[-1][1], checkpoints)


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


def nonvanishing_limit(G: AbelianGroup, d: int, p_max: int) -> NonvanishingReport:
    """Truncated limit expression certifying the pole at s = 1/d.

    Cases i/ii evaluate the sieve with all smaller-index zeta factors divided
    out (the result is a sum of nonnegative sieve contributions, so positive).
    Case iii keeps the minimal-index zeta as an explicit negative value and
    splits the sieve by whether the subgroup contains the 2-torsion.  Case iv
    is the single full-group term of the sieve.
    """
    entries, a = _sieve_entries(G)
    case = nonvanishing_case(G, d)
    if case == "none":
        raise UnsupportedCaseError(f"no proved expression for {G} at d = {d}")

    def rows(types, lower):
        """The types' rows with the zeta factors of lower < ind < d divided
        out, one cyclotomic zeta factor per orbit."""
        corrections = tuple(e for e in entries if lower < e[1] < d)
        return [(orders, corrections, mu) for orders, mu in types]

    if case == "case_iii":  # split at the 2-torsion G[2], which H contains
        # iff it has as many elements of order <= 2 as G
        def two_torsion(orders):
            return sum(k for o, k in orders if o <= 2)

        two = two_torsion(element_orders(G))
        parts = [
            rows([t for t in sieve_types(G) if two_torsion(t[0]) == two], 0),
            rows([t for t in sieve_types(G) if two_torsion(t[0]) < two], a),
        ]
    else:
        types = ((element_orders(G), 1),) if case == "case_iv" else sieve_types(G)
        parts = [rows(types, 0)]
    with working_precision():
        sums = _sieve_sums(G, Fraction(1, d), p_max, parts)
        if case == "case_iii":  # zeta(a/d), the cyclotomic zeta at m = 1
            zeta_at = dedekind_zeta_value(1, Fraction(a, d))
            checkpoints = tuple((m, zeta_at * plus + minus) for m, (plus, minus), _ in sums)
        else:
            checkpoints = tuple((m, value) for m, (value,), _ in sums)
    return NonvanishingReport(G, d, case, p_max, checkpoints)
