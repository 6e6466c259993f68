"""Brute-force counting of abelian extensions of Q through local homomorphisms.

By Kronecker-Weber the Galois group of the maximal abelian extension of Q
is the product over p of Z_p^*, so a continuous surjection onto an abelian
group G is a tuple of homomorphisms (Z/p^k)^* -> G, almost all trivial,
whose images generate G.  Both invariants multiply one factor p^c per
nontrivial local homomorphism: c = 1 for the product of ramified primes,
and for the discriminant a sum over the unit filtration U^j of
|G| - |G|/|phi(U^j)| (``_disc_exponent``).  The images generate G exactly
when no maximal subgroup of G holds them all, so counts walk integer local
types prime by prime, keyed by the bit mask of the maximal subgroups that
hold their images, with no field arithmetic, no subgroup, no character
objects and no list of the elements of G.

Dirichlet characters serve the L-values of ``lvalues`` and the test
suite's reference counts; no count builds one.  A character is stored by
its prime-power local components on coherent unit group generators, so
that multiplication and primitivity are componentwise, and its conductor
and order are read from the components (``_local_invariants``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, islice, product, repeat
from operator import and_, attrgetter, mul, sub

from .groups import AbelianGroup, BudgetExceededError, Element, aut_order
from .numerics import (
    factorize,
    integer_root,
    primes_up_to,
    smallest_prime_factor,
    unit_group_components,
)

DEFAULT_NODE_BUDGET = 50_000_000


# A local component at p is (p, k, exps): exponents of the character on the
# generators of (Z/p^k)^*, one generator for odd p, the pair (-1, 5) for
# p = 2 with k >= 3, just -1 for k = 2.


@lru_cache(maxsize=None)
def _local_orders(p: int, k: int) -> tuple[int, ...]:
    if p == 2:
        if k == 1:
            return ()
        if k == 2:
            return (2,)
        return (2, 2 ** (k - 2))
    return ((p - 1) * p ** (k - 1),)


@lru_cache(maxsize=None)
def _local_invariants(p: int, k: int, exps: tuple[int, ...]) -> tuple[int, int]:
    """(conductor, order) of the local component with exponents exps mod p^k."""
    if p != 2:
        n = (p - 1) * p ** (k - 1)
        order = n // math.gcd(n, exps[0])
        if order == 1:
            return 1, 1
        f = p
        r = order
        while r % p == 0:
            r //= p
            f *= p
        return f, order
    if k == 1:
        return 1, 1
    w = 1 if k == 2 else 2 ** (k - 2) // math.gcd(2 ** (k - 2), exps[1])
    if w > 1:
        return 4 * w, w
    return (4, 2) if exps[0] % 2 else (1, 1)


@dataclass(frozen=True, slots=True)
class DirichletCharacter:
    """Finite-order character of (Z/q)^*, stored by prime-power components.

    The conductor and the order are read from the components, one
    ``_local_invariants`` per component.
    """

    components: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def modulus(self) -> int:
        return math.prod(p**k for p, k, _ in self.components)

    @property
    def conductor(self) -> int:
        return math.prod(_local_invariants(*comp)[0] for comp in self.components)

    @property
    def order(self) -> int:
        return math.lcm(*(_local_invariants(*comp)[1] for comp in self.components))

    def is_trivial(self) -> bool:
        return self.order == 1

    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(comp[0] for comp in self.components if _local_invariants(*comp)[0] > 1)

    def mul(self, other: "DirichletCharacter") -> "DirichletCharacter":
        by_p: dict[int, tuple[int, tuple[int, ...]]] = {}
        for p, k, exps in self.components + other.components:
            by_p[p] = _local_product(p, *by_p[p], k, exps) if p in by_p else (k, exps)
        return _primitive_of((p, k, exps) for p, (k, exps) in by_p.items())

    def power(self, e: int) -> "DirichletCharacter":
        if e == 1:
            return self.primitive()
        return _primitive_of(
            (p, k, tuple(x * e % n for x, n in zip(exps, _local_orders(p, k))))
            for p, k, exps in self.components
        )

    def primitive(self) -> "DirichletCharacter":
        if self.conductor == self.modulus:
            return self
        return _primitive_of(self.components)

    def generator_values(self) -> tuple[tuple[int, int], ...]:
        """Values on the unit-group generators as (order, exponent) pairs."""
        return tuple(
            (n, e % n) for p, k, exps in self.components for e, n in zip(exps, _local_orders(p, k))
        )

    def angles(self) -> tuple[tuple[int, Fraction], ...]:
        """Values on the units a mod the conductor as sorted pairs (a, angle).

        chi(a) = exp(2 pi i angle) with angle in [0, 1).  The table walks the
        powers of the generators of ``unit_group_components(conductor)``,
        the generators ``generator_values`` refers to.
        """
        prim = self.primitive()
        f = prim.conductor
        values = prim.generator_values()
        top = math.lcm(*(n for n, _ in values))  # angles are walked as numerators over top
        table = [(1, 0)]
        for (_, _, g, _), (n, e) in zip(unit_group_components(f), values):
            walked = []
            for a, angle in table:
                for _ in range(n):
                    walked.append((a, angle))
                    a = a * g % f
                    angle = (angle + e * (top // n)) % top
            table = walked
        return tuple(sorted((a, Fraction(angle, top)) for a, angle in table))


def _primitive_of(components) -> DirichletCharacter:
    """The primitive character of the given components, in sorted order."""
    comps = []
    for p, k, exps in sorted(components):
        f = _local_invariants(p, k, exps)[0]
        if f == 1:
            continue
        k_f = 1
        while p**k_f < f:
            k_f += 1
        comps.append((p, k_f, _shrink(p, k, exps, k_f)))
    return DirichletCharacter(tuple(comps))


def _lift(p: int, k_from: int, exps: tuple[int, ...], k_to: int) -> tuple[int, ...]:
    """Rescale exponents when the modulus grows from p^k_from to p^k_to."""
    if k_to == k_from:
        return exps
    orders_to = _local_orders(p, k_to)
    if p != 2:
        orders_from = _local_orders(p, k_from)
        return (exps[0] * (orders_to[0] // orders_from[0]),)
    if k_from == 1:
        return tuple(0 for _ in orders_to)
    if k_from == 2:
        sign = exps[0]
        return (sign,) if len(orders_to) == 1 else (sign, 0)
    scale = orders_to[1] // _local_orders(2, k_from)[1]
    return (exps[0], exps[1] * scale)


def _local_product(
    p: int, k0: int, exps0: tuple[int, ...], k1: int, exps1: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """(k, exps) of the product of two local components at p, mod p^max(k0, k1)."""
    k = max(k0, k1)
    a = _lift(p, k0, exps0, k)
    b = _lift(p, k1, exps1, k)
    return k, tuple((x + y) % n for x, y, n in zip(a, b, _local_orders(p, k)))


def _shrink(p: int, k_from: int, exps: tuple[int, ...], k_to: int) -> tuple[int, ...]:
    """Inverse of _lift for a character whose conductor divides p^k_to."""
    if k_to == k_from:
        return exps
    if p != 2:
        scale = _local_orders(p, k_from)[0] // _local_orders(p, k_to)[0]
        assert exps[0] % scale == 0
        return (exps[0] // scale,)
    if k_to == 2:
        return (exps[0] % 2,)
    scale = _local_orders(2, k_from)[1] // _local_orders(2, k_to)[1]
    assert exps[1] % scale == 0
    return (exps[0] % 2, exps[1] // scale)


TRIVIAL_CHARACTER = DirichletCharacter(())


def _local_primitive_atoms(p: int, k: int, e: int) -> tuple[DirichletCharacter, ...]:
    """Primitive characters mod p^k of order dividing e."""
    out: list[DirichletCharacter] = []
    if p != 2:
        n = _local_orders(p, k)[0]
        g = math.gcd(n, e)
        for t in range(1, g):
            exps = (n // g * t,)
            if _local_invariants(p, k, exps)[0] == p**k:
                out.append(DirichletCharacter(((p, k, exps),)))
    elif k == 2:
        if e % 2 == 0:
            out.append(DirichletCharacter(((2, 2, (1,)),)))
    elif k >= 3:
        wild_order = 2 ** (k - 2)
        if e % wild_order == 0:
            for sign in (0, 1):
                for w in range(1, wild_order, 2):
                    out.append(DirichletCharacter(((2, k, (sign, w)),)))
    return tuple(out)


def characters_up_to(e: int, f_max: int) -> list[DirichletCharacter]:
    """All primitive nontrivial characters of order dividing e, conductor <= f_max.

    Built multiplicatively from prime-power atoms, one prime after another;
    the result is sorted by conductor, ties by components.
    """
    if e < 1 or f_max < 1:
        raise ValueError("order and conductor bounds must be positive")
    atoms: list[tuple[int, list[DirichletCharacter]]] = []
    for p in primes_up_to(f_max):
        local: list[DirichletCharacter] = []
        k = 1
        while p**k <= f_max:  # by ascending conductor p^k
            local.extend(_local_primitive_atoms(p, k, e))
            k += 1
        if local:
            atoms.append((p, local))
    out: list[DirichletCharacter] = []

    def extend(start: int, comps: tuple, cond: int) -> None:
        if cond > 1:
            out.append(DirichletCharacter(comps))
        for i in range(start, len(atoms)):
            p, local = atoms[i]
            if cond * p > f_max:
                break
            for atom in local:
                c = cond * atom.conductor
                if c > f_max:
                    break
                extend(i + 1, comps + atom.components, c)

    extend(0, (), 1)
    # characters of one conductor share their (p, k) sequence, and the DFS
    # emits them in component order, so a stable sort by conductor alone
    # gives the order of (conductor, components)
    out.sort(key=attrgetter("conductor"))
    return out


# -- counting -----------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    group: AbelianGroup
    bound: int
    ordering: str
    surjections: int
    fields: int
    histogram: tuple[tuple[int, int], ...] | None

    def as_dict(self) -> dict:
        out = {
            "group": str(self.group),
            "X": self.bound,
            "ordering": self.ordering,
            "surjections": self.surjections,
            "fields": self.fields,
        }
        if self.histogram is not None:
            out["histogram_rows"] = len(self.histogram)
        return out


def _killed_by(G: AbelianGroup, n: int) -> list[Element]:
    """The elements g of G with n g = 0."""
    return list(product(*(range(0, d, d // math.gcd(n, d)) for d in G.invariant_factors)))


def _disc_exponent(p: int, k: int, size: int, hom: tuple[list[int], ...]) -> int:
    """v_p(disc) of phi : (Z/p^k)^* -> G, |G| = size; the image of a generator
    of order n is scaled to w = (g_i n / d_i)_i, of order n / gcd(n, w).

    The psi in the dual group with v_p(cond(psi o phi)) > j are those not
    trivial on phi(U^j), so the conductor-discriminant sum is the sum over
    j < k of |G| - |G|/|phi(U^j)| (Serre, Local Fields, ch. IV, VI), where
    U^j = <g^((p - 1) p^(j - 1))> for odd p and j > 0, U^0 = U^1 = <-1, 5>
    at 2 and U^j = <5^(2^(j - 2))> there for j > 1.
    """
    n, w = _local_orders(p, k)[-1], hom[-1]
    o = n // math.gcd(n, *w)  # the order of phi(g), of phi(5), or of phi(-1) when k = 2
    if p != 2:
        sizes = [o] + [o // math.gcd(o, (p - 1) * p ** (j - 1)) for j in range(1, k)]
    else:
        # <phi(-1), phi(5)> = <phi(5)> when phi(-1) is 0 or (o/2) phi(5): x n = o y mod 2n
        a = hom[0]
        inside = k == 2 or not any(a) or (
            o % 2 == 0 and all((x * n - o * y) % (2 * n) == 0 for x, y in zip(a, w))
        )
        sizes = [o << (not inside)] * 2 + [o // math.gcd(o, 2 ** (j - 2)) for j in range(2, k)]
    return sum(size - size // s for s in sizes)


def _count(
    G: AbelianGroup, x_bound: int, disc: bool, histogram: bool, node_budget: int
) -> tuple[int, dict[int, int]]:
    """Surjections onto G with invariant <= X, and their histogram.

    A surjection is a tuple of local homs phi_p : (Z/p^k)^* -> G, almost all
    trivial, whose images generate G, and both invariants are products of
    one factor p^c per nontrivial phi_p.  The images generate G exactly
    when no maximal subgroup of G holds them all, so the walk's state is
    the set of maximal subgroups that still do, a bit mask, and a
    surjection is a tuple whose state is empty.  The walk runs over
    integers: it takes primes in ascending order and local types (c, mask,
    multiplicity), multiplying keys and multiplicities and ANDing masks.
    Above exp G every prime is tame and its types depend only on
    gcd(p - 1, exp G): they are made once per class, from its first prime.

    Without a histogram, once no two more primes fit (key times
    (p p_next)^c_min passes X), the single-prime leaves are counted by
    bisection with prefix sums, per tame type, of its multiplicity.
    """
    # a nontrivial phi_p multiplies disc by p^c with c >= |G| - |G|/l, for
    # l the least prime dividing |G|; the primes to the sieve bound count
    # as nodes, checked before any sieve
    order, exp, factors = G.order, G.exponent, G.invariant_factors
    bound = integer_root(x_bound, order - order // smallest_prime_factor(order)) if disc else x_bound
    if bound > node_budget:
        raise BudgetExceededError(f"sieving to {bound} exceeds {node_budget} nodes")
    if bound < 2:
        return 0, {}
    over = f"enumeration exceeded {node_budget} nodes"

    def homs(builds: list[tuple[int, int]]) -> int:
        """The builds' homs, prod_i gcd(n, d_i) images per generator of order n."""
        return sum(
            math.prod(math.gcd(n, d) for n in _local_orders(p, k) for d in factors)
            for p, k in builds
        )

    # charged before G is listed and before the sieve to the bound: the
    # (l^r - 1)/(l - 1) maximal subgroups of index l, r the number of d_i
    # divisible by l, and the builds at primes up to exp G, each hom read
    # against every maximal subgroup; every hom (Z_p)^* -> G factors through
    # (Z/p^k)^*, k = v_p(exp G) + 1, one more at 2
    ells = dict(factorize(exp))
    kernel_count = sum((l ** sum(d % l == 0 for d in factors) - 1) // (l - 1) for l in ells)
    primes = primes_up_to(min(exp, bound))
    small = len(primes)
    builds = [(p, ells.get(p, 0) + 1 + (p == 2)) for p in primes]
    nodes = bound + kernel_count * (1 + homs(builds))
    if nodes > node_budget:
        raise BudgetExceededError(over)
    if exp < bound:
        primes = primes_up_to(bound)
    classes = array("q", map(math.gcd, map(sub, islice(primes, small, None), repeat(1)), repeat(exp)))
    tame_at = {g: primes[small + classes.index(g)] for g in set(classes)}
    # the tame classes' builds, after the sieve that finds them
    nodes += kernel_count * homs([(p, 1) for p in tame_at.values()])
    if nodes > node_budget:
        raise BudgetExceededError(over)
    # bit i stands for the maximal subgroup ker psi_i: psi_i has prime order
    # l, and of the l - 1 generators of <psi_i> it is the one whose first
    # nonzero coordinate is d / l
    kernels = [
        psi
        for l in ells
        for psi in _killed_by(G, l)
        if next((x * l == d for x, d in zip(psi, factors) if x), False)
    ]

    def held(w: list[int], n: int) -> int:
        """The bits of the kernels psi that kill an image g of order
        dividing n, given scaled as w: n psi(g) = sum_i psi_i w_i mod n."""
        return sum(1 << i for i, psi in enumerate(kernels) if not sum(map(mul, psi, w)) % n)

    def types_at(p: int, k: int) -> tuple[tuple[int, int, int], ...]:
        """(c, mask, multiplicity) of the nontrivial homs (Z/p^k)^* -> G,
        given by the images of the generators of (Z/p^k)^*; mask holds the
        bits of the psi_i that kill every image, and for disc c is
        ``_disc_exponent``."""
        orders = _local_orders(p, k)
        # psi o phi sends generator j, of order n_j, to sum_i psi_i g_i n_j / d_i
        # mod n_j, so each image g is kept scaled to (g_i n_j / d_i)_i
        images = [
            [[x * n // d for x, d in zip(g, factors)] for g in _killed_by(G, n)] for n in orders
        ]
        masks = [[held(w, n) for w in image] for image, n in zip(images, orders)]
        found: Counter = Counter()
        for hom, held_by in zip(product(*images), product(*masks)):
            if any(map(any, hom)):
                found[_disc_exponent(p, k, order, hom) if disc else 1, reduce(and_, held_by)] += 1
        return tuple(sorted((c, h, m) for (c, h), m in found.items()))

    local = [types_at(p, k) for p, k in builds]
    tame = {g: types_at(p, 1) for g, p in tame_at.items()}

    tame_types = {(c, h) for types in tame.values() for c, h, _ in types}
    c_min = min((c for c, _ in tame_types), default=0)
    end = len(primes) if tame_types else small
    prefix: dict[tuple[int, int], array] = {}
    for c, h in () if histogram else tame_types:
        mult = [0] * (exp + 1)
        for g, types in tame.items():
            mult[g] = sum(m for c1, h1, m in types if (c1, h1) == (c, h))
        prefix[c, h] = array("q", accumulate(map(mult.__getitem__, classes), initial=0))

    def leaves(j: int, room: int, state: int) -> int:
        """Homs at primes from the j-th on whose mask clears state, so that
        the tuple is onto, and that fit in room."""
        total = 0
        for (c, h), pre in prefix.items():
            if not state & h:
                hi = bisect_right(primes, integer_root(room, c), j)
                total += pre[hi - small] - pre[j - small]
        return total

    count = 0
    hist: dict[int, int] = {}

    def walk(j: int, key: int, state: int, mult: int) -> None:
        """key, state and mult of the homs taken so far, all at primes
        before the j-th."""
        nonlocal count, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(over)
        if not state:
            count += mult
            if histogram:
                hist[key] = hist.get(key, 0) + mult
        room = x_bound // key
        while j < end:
            p = primes[j]
            if j < small:
                types = local[j]
            else:
                if p**c_min > room:
                    break
                if prefix and (j + 1 == end or (p * primes[j + 1]) ** c_min > room):
                    count += mult * leaves(j, room, state)
                    break
                types = tame[classes[j - small]]
            for c, h, m in types:
                f = p**c
                if f > room:
                    break
                walk(j + 1, key * f, state & h, mult * m)
            j += 1

    walk(0, 1, (1 << len(kernels)) - 1, 1)
    return count, hist


def count_surjections(
    G: AbelianGroup,
    x_bound: int,
    ordering: str = "disc",
    histogram: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountReport:
    """Count surjections from the Galois group of Q onto G with invariant <= X.

    By Kronecker-Weber the Galois group of the maximal abelian extension is
    the product over p of Z_p^*, so a surjection is a tuple of local homs
    phi_p : (Z/p^k)^* -> G, almost all trivial, whose images generate G
    (k = v_p(exp G) + 1, one more at p = 2).  Both invariants multiply one
    factor p^c per nontrivial phi_p: c = 1 for ram, and for disc, by the
    conductor-discriminant formula, c = sum over the dual group of
    v_p(cond(psi o phi_p)) (``_disc_exponent``).  ``_count`` walks these
    local types prime by prime, with no character objects and no list of G;
    its state is the set of maximal subgroups of G that hold every image so
    far, and a tuple is onto when that set is empty.

    The primes it sieves, to X^(1/(|G| - |G|/l)) for disc (l the least
    prime dividing |G|) and to X for ram, count against the node budget, and
    so do the maximal subgroups and the builds of local types at the primes
    up to exp G (homs times maximal subgroups): all are checked before G is
    listed and before the sieve to the bound runs.  Then the builds of the
    tame classes count, and each walk node.
    """
    if x_bound < 1:
        raise ValueError("the bound must be at least 1")
    if ordering not in ("disc", "ram"):
        raise ValueError("ordering must be disc or ram")
    if not G.invariant_factors:
        return CountReport(G, x_bound, ordering, 1, 1, ((1, 1),) if histogram else None)
    count, hist = _count(G, x_bound, ordering == "disc", histogram, node_budget)
    aut = aut_order(G)
    assert count % aut == 0, "surjection count must be divisible by |Aut(G)|"
    hist_out = tuple(sorted(hist.items())) if histogram else None
    return CountReport(G, x_bound, ordering, count, count // aut, hist_out)
