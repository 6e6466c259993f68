"""Finite abelian groups in invariant-factor form.

Elements are residue tuples, subgroups are explicit element sets, and the
subgroup poset carries a Moebius function (P. Hall's closed form) used by
the surjection sieve.  The sieve needs only the subgroups containing the
Frattini subgroup Phi(G); they are built directly as the preimages of the
subspaces of G/Phi(G), a product over p of F_p^(r_p).  The sieve's rows
are histograms, not subgroups: every sieve quantity depends on a subgroup
only through its element-order histogram (``element_orders``), so
``sieve_types`` folds the subgroups of one histogram into one row: the
histogram with the summed Moebius weight.
G's own histogram is counted from its invariant factors; only the sieve
subgroups and element-keyed inputs list elements, up to a cap on |G|.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from .numerics import divisors, factorize, radical

ENUMERATION_CAP = 10_000

Element = tuple[int, ...]


class GroupTooLargeError(ValueError):
    """An operation would enumerate a group beyond the configured cap."""


@dataclass(frozen=True)
class AbelianGroup:
    """Product of cyclic groups Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... | d_k."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError("invariant factors must be at least 2")
        if any(b % a for a, b in zip(fs, fs[1:])):
            raise ValueError(f"{fs} is not a divisibility chain; use make_group")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def is_cyclic(self) -> bool:
        return self.rank <= 1

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % d for x, d in zip(a, self.invariant_factors))

    def contains(self, a: Element) -> bool:
        return len(a) == self.rank and all(
            0 <= x < d for x, d in zip(a, self.invariant_factors)
        )

    def basis(self) -> tuple[Element, ...]:
        k = self.rank
        return tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        )

    def elements(self) -> tuple[Element, ...]:
        return _elements(self)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{d}" for d in self.invariant_factors)


def _check_cap(G: AbelianGroup) -> None:
    if G.order > ENUMERATION_CAP:
        raise GroupTooLargeError(
            f"|G| = {G.order} exceeds the enumeration cap {ENUMERATION_CAP}"
        )


@lru_cache(maxsize=None)
def _elements(G: AbelianGroup) -> tuple[Element, ...]:
    _check_cap(G)
    return tuple(product(*(range(d) for d in G.invariant_factors)))


def make_group(factors: list[int] | tuple[int, ...]) -> AbelianGroup:
    """Normalize a multiset of cyclic orders to invariant factors.

    Works over the integers by gcd/lcm pivoting on the diagonal, so C4 x C6
    comes out as [2, 12]. Factors equal to 1 are rejected except that the
    empty list yields the trivial group.
    """
    vals = list(factors)
    for v in vals:
        if v < 2:
            raise ValueError(f"cyclic factor {v} < 2 is not allowed")
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = math.gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals.sort()
    return AbelianGroup(tuple(v for v in vals if v > 1))


def element_order(G: AbelianGroup, g: Element) -> int:
    if not G.contains(g):
        raise ValueError(f"{g} is not an element of {G}")
    order = 1
    for x, d in zip(g, G.invariant_factors):
        order = math.lcm(order, d // math.gcd(d, x))
    return order


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by its full element set (equality is set equality)."""

    group: AbelianGroup
    elements: frozenset[Element]
    generators: tuple[Element, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> tuple[Element, ...]:
        return tuple(sorted(self.elements))


def span(G: AbelianGroup, gens: tuple[Element, ...]) -> Subgroup:
    """Closure of a generator set under the group operation."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                x = G.add(h, g)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return Subgroup(G, frozenset(seen), gens)


def full_subgroup(G: AbelianGroup) -> Subgroup:
    return Subgroup(G, frozenset(_elements(G)), G.basis())


def trivial_subgroup(G: AbelianGroup) -> Subgroup:
    return Subgroup(G, frozenset({G.identity}), ())


def frattini(G: AbelianGroup) -> Subgroup:
    """Intersection of the maximal subgroups; for abelian G this is rad(|G|)*G."""
    r = radical(G.order)
    gens = tuple(g for g in (G.scale(r, e) for e in G.basis()) if g != G.identity)
    return span(G, gens)


def _hall_moebius(index: int) -> int:
    """mu(H, G) for H containing Frattini(G), from the index [G:H] alone.

    G/H is then elementary abelian, and P. Hall's formula gives the product
    over p^k || [G:H] of (-1)^k p^(k(k-1)/2).
    """
    mu = 1
    for p, k in factorize(index):
        mu *= (-1) ** k * p ** (k * (k - 1) // 2)
    return mu


def moebius_subgroup(H: Subgroup, G: AbelianGroup) -> int:
    """mu(H, G) in the subgroup lattice; zero unless H contains Frattini(G)."""
    if H.group != G:
        raise ValueError("subgroup belongs to a different group")
    if span(G, H.generators).elements != H.elements:
        raise ValueError("not a subgroup of the ambient group")
    if not frattini(G).elements <= H.elements:
        return 0
    return _hall_moebius(G.order // H.order)


def _subspaces(p: int, n: int):
    """Every subspace of F_p^n once, as the rows of its reduced row-echelon form."""
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [
                (r, c)
                for r, pc in enumerate(pivots)
                for c in range(pc + 1, n)
                if c not in pivots
            ]
            for values in product(range(p), repeat=len(free)):
                rows = [[int(c == pc) for c in range(n)] for pc in pivots]
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                yield rows


def _lifted_subspaces(G: AbelianGroup, p: int) -> list[tuple[Element, ...]]:
    """Lifts to G of the subspaces of the p-part of G/Frattini(G).

    That part is F_p^r, one coordinate per invariant factor d_i divisible
    by p; its i-th basis vector lifts to e_i times the CRT idempotent of
    Z/d_i that is 1 mod the p-part of d_i and 0 mod the rest.
    """
    coords, idempotents = [], []
    for i, d in enumerate(G.invariant_factors):
        if d % p:
            continue
        q = p ** dict(factorize(d))[p]
        rest = d // q
        coords.append(i)
        idempotents.append(rest * pow(rest, -1, q) % d)
    out = []
    for rows in _subspaces(p, len(coords)):
        lifts = []
        for row in rows:
            g = [0] * G.rank
            for i, c, v in zip(coords, idempotents, row):
                g[i] = v * c % G.invariant_factors[i]
            lifts.append(tuple(g))
        out.append(tuple(lifts))
    return out


@lru_cache(maxsize=None)
def sieve_terms(G: AbelianGroup) -> tuple[tuple[Subgroup, int], ...]:
    """Subgroups with nonzero Moebius weight, i.e. those containing Frattini.

    They are the preimages of the subspaces of G/Frattini(G), one span per
    choice of a subspace for every prime, sorted by (order, element list).
    """
    _check_cap(G)
    phi = frattini(G).generators
    per_prime = [_lifted_subspaces(G, p) for p, _ in factorize(G.order)]
    subs = [
        span(G, phi + sum(choice, ()))
        for choice in product(*per_prime)
    ]
    subs.sort(key=lambda H: (H.order, H.sorted_elements()))
    return tuple((H, _hall_moebius(G.order // H.order)) for H in subs)


Histogram = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def element_orders(G: AbelianGroup, H: Subgroup | None = None) -> Histogram:
    """(order, number of elements of that order) over H (or G), identity included.

    G's is counted: prod gcd(e, d_i) of its elements have g^e = 1.
    """
    if H is None:
        _check_cap(G)  # guards factorize(exp G), slow on a large prime
        counts: dict[int, int] = {}
        for e in divisors(G.exponent):
            fixed = math.prod(math.gcd(e, d) for d in G.invariant_factors)
            counts[e] = fixed - sum(k for f, k in counts.items() if e % f == 0)
        return tuple(counts.items())
    return tuple(sorted(Counter(element_order(G, g) for g in H.elements).items()))


@lru_cache(maxsize=None)
def sieve_types(G: AbelianGroup) -> tuple[tuple[Histogram, int], ...]:
    """One (element-order histogram, summed mu) per type of sieve subgroup.

    The histogram is H's isomorphism type and fixes every sieve quantity.
    The types come in the order of their first subgroups in ``sieve_terms``:
    7 for the 2,825 sieve subgroups of C2^6.
    """
    types: dict[Histogram, int] = {}
    for H, mu in sieve_terms(G):
        orders = element_orders(G, H)
        types[orders] = types.get(orders, 0) + mu
    return tuple(types.items())


def aut_order(G: AbelianGroup) -> int:
    """|Aut(G)| via the prime-by-prime formula for abelian p-groups."""
    total = 1
    for p, _ in factorize(G.order):
        exps = sorted(
            e for d in G.invariant_factors for q, e in factorize(d) if q == p
        )
        n = len(exps)
        d_k = [max(l + 1 for l in range(n) if exps[l] == exps[k]) for k in range(n)]
        c_k = [min(l + 1 for l in range(n) if exps[l] == exps[k]) for k in range(n)]
        count = 1
        for k in range(n):
            count *= p ** d_k[k] - p**k
        for j in range(n):
            count *= p ** (exps[j] * (n - d_k[j]))
        for i in range(n):
            count *= p ** ((exps[i] - 1) * (n - c_k[i] + 1))
        total *= count
    return total


def parse_group_literal(text: str) -> AbelianGroup:
    """Parse CLI group literals: 'C4', 'C2xC6', or '[2,6]'."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"malformed group literal {text!r}")
        body = s[1:-1].strip()
        factors = [int(tok) for tok in body.split(",")] if body else []
        return make_group(factors)
    factors = []
    for part in s.split("x"):
        part = part.strip()
        if not part or part[0] not in "Cc" or not part[1:].isdigit():
            raise ValueError(f"malformed group literal {text!r}")
        value = int(part[1:])
        if value == 1:
            continue
        factors.append(value)
    return make_group(factors)
