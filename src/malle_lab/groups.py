"""Finite abelian groups in invariant-factor form.

Elements are residue tuples; a group is listed element by element only up
to a cap on |G|.  The surjection sieve runs over the subgroups H containing
the Frattini subgroup Phi(G), those with mu(H, G) != 0, and mu(H, G) has
P. Hall's closed form in the index [G:H].  Every sieve quantity depends on
H only through its isomorphism type, so no subgroup is built: the sieve
types are counted.  The sieve subgroups of G are products over p of those
of its Sylow parts, and a Hall polynomial counts the latter of each type
(``_sylow_sieve_types``).  ``sieve_types`` gives one row per type, its
element-order histogram (``element_orders``, counted from the invariant
factors) with the summed Moebius weight; ``sieve_terms`` lists (type, mu)
once per subgroup, up to SIEVE_TERMS_CAP of them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .numerics import divisors, factorize

ENUMERATION_CAP = 10_000
SIEVE_TERMS_CAP = 100_000

Element = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """A computation would pass one of its caps or budgets; the CLI exits 3."""


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
        raise BudgetExceededError(
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


def _hall_moebius(index: int) -> int:
    """mu(H, G) for H containing Frattini(G), from the index [G:H] alone.

    G/H is then elementary abelian, and P. Hall's formula gives the product
    over p^k || [G:H] of (-1)^k p^(k(k-1)/2).
    """
    mu = 1
    for p, k in factorize(index):
        mu *= (-1) ** k * p ** (k * (k - 1) // 2)
    return mu


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _sylow_sieve_types(p: int, parts: list[int]) -> list[tuple[list[int], int]]:
    """(type, count) for the subgroups H >= pP of the p-group P of type ``parts``.

    Lowering by one x_v of the m_v parts equal to v, 0 <= x_v <= m_v, gives
    each type once.  The Hall polynomial g^parts_(type, (1^m))(p)
    (Macdonald, ch. II (4.6)) counts them; it equals the product over v of
    [m_v choose x_v]_p p^(x_v k_v), k_v the number of parts above v that
    are not lowered.  A type is its list of cyclic orders p^w, w > 0.
    """
    mult = sorted(Counter(parts).items(), reverse=True)
    out = []
    for xs in product(*(range(m_v + 1) for _, m_v in mult)):
        orders, count, kept_above = [], 1, 0
        for (v, m_v), x in zip(mult, xs):
            orders += [p**v] * (m_v - x) + [p ** (v - 1)] * x
            count *= _gaussian_binomial(m_v, x, p) * p ** (x * kept_above)
            kept_above += m_v - x
        out.append(([q for q in orders if q > 1], count))
    return out


@lru_cache(maxsize=None)
def _sieve_type_counts(G: AbelianGroup) -> tuple[tuple[AbelianGroup, int, int], ...]:
    """(type of H, number of sieve subgroups of that type, mu(H, G)).

    The types come by (|H|, invariant factors).  A sieve subgroup is a
    product over p of sieve subgroups of the Sylow parts, so its type is
    the product of theirs and so is its count.
    """
    _check_cap(G)
    per_prime = []
    for p, _ in factorize(G.order):
        parts = [k for d in G.invariant_factors for q, k in factorize(d) if q == p]
        per_prime.append(_sylow_sieve_types(p, parts))
    counted = []
    for choice in product(*per_prime):
        H = make_group([q for orders, _ in choice for q in orders])
        count = math.prod(n for _, n in choice)
        counted.append((H, count, _hall_moebius(G.order // H.order)))
    counted.sort(key=lambda t: (t[0].order, t[0].invariant_factors))
    return tuple(counted)


def sieve_terms(G: AbelianGroup) -> tuple[tuple[AbelianGroup, int], ...]:
    """(type of H, mu(H, G)) once per subgroup H containing Frattini(G).

    These are the subgroups of nonzero Moebius weight, by ascending |H| and
    then by type.  Their number is checked against SIEVE_TERMS_CAP before
    the list is built: 29,212 for C2^7, 229,755,605 for C2^10.
    """
    counted = _sieve_type_counts(G)
    total = sum(count for _, count, _ in counted)
    if total > SIEVE_TERMS_CAP:
        raise BudgetExceededError(
            f"{G} has {total} sieve subgroups, above the cap {SIEVE_TERMS_CAP}"
        )
    return tuple(term for H, count, mu in counted for term in [(H, mu)] * count)


Histogram = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def element_orders(G: AbelianGroup) -> Histogram:
    """(order, number of elements of that order) over G, identity included.

    It is counted: prod gcd(e, d_i) of the elements have g^e = 1.
    """
    _check_cap(G)  # guards factorize(exp G), slow on a large prime
    counts: dict[int, int] = {}
    for e in divisors(G.exponent):
        fixed = math.prod(math.gcd(e, d) for d in G.invariant_factors)
        counts[e] = fixed - sum(k for f, k in counts.items() if e % f == 0)
    return tuple(counts.items())


@lru_cache(maxsize=None)
def sieve_types(G: AbelianGroup) -> tuple[tuple[Histogram, int], ...]:
    """One (element-order histogram, summed mu) per type of sieve subgroup.

    The histogram is H's isomorphism type and fixes every sieve quantity.
    The types come in ``sieve_terms`` order: 7 for the 2,825 sieve
    subgroups of C2^6.
    """
    return tuple((element_orders(H), count * mu) for H, count, mu in _sieve_type_counts(G))


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
