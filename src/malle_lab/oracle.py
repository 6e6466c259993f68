"""Brute-force counting of abelian extensions of Q through Dirichlet characters.

Every continuous surjection from the absolute Galois group of Q onto an
abelian group G corresponds, by duality and Kronecker-Weber, to exactly one
injection of the dual group of G into the group of Dirichlet characters.
Enumerating character tuples therefore counts surjections with no field
arithmetic at all: the discriminant is the product over the dual group of
the conductors of the image characters, and the product-of-ramified-primes
invariant is the radical of their lcm.

Characters are stored by prime-power local components on coherent unit
group generators, so multiplication, conductors, and primitivity are all
componentwise.  Cyclic groups need no character objects past a few local
atoms: both invariants of a character are products of one factor per
prime, so their counts walk integer atom types prime by prime.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from operator import attrgetter, sub

from .groups import AbelianGroup, aut_order, make_group
from .numerics import euler_phi, integer_root, primes_up_to, unit_group_components

DEFAULT_NODE_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration grew past the configured node budget."""


@dataclass(frozen=True)
class UnitGroupStructure:
    """(Z/q)^* with explicit generator residues for its cyclic components."""

    modulus: int
    generator_residues: tuple[int, ...]
    generator_orders: tuple[int, ...]
    group: AbelianGroup


def unit_group_structure(q: int) -> UnitGroupStructure:
    if q < 1:
        raise ValueError("modulus must be positive")
    comps = unit_group_components(q)
    residues = tuple(residue for _, _, residue, _ in comps)
    orders = tuple(order for _, _, _, order in comps)
    return UnitGroupStructure(q, residues, orders, make_group(list(orders)))


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

    The conductor and the order are computed once, when the character is
    built; equality and hashing see only the components.
    """

    components: tuple[tuple[int, int, tuple[int, ...]], ...]
    _conductor: int = field(init=False, compare=False, repr=False)
    _order: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        cond = 1
        order = 1
        for p, k, exps in self.components:
            f, o = _local_invariants(p, k, exps)
            cond *= f
            order = math.lcm(order, o)
        object.__setattr__(self, "_conductor", cond)
        object.__setattr__(self, "_order", order)

    @property
    def modulus(self) -> int:
        return math.prod(p**k for p, k, _ in self.components) if self.components else 1

    @property
    def conductor(self) -> int:
        return self._conductor

    @property
    def order(self) -> int:
        return self._order

    def is_trivial(self) -> bool:
        return self.order == 1

    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(
            p for p, k, exps in self.components if _local_invariants(p, k, exps)[0] > 1
        )

    def mul(self, other: "DirichletCharacter") -> "DirichletCharacter":
        by_p: dict[int, tuple[int, tuple[int, ...]]] = {}
        for p, k, exps in self.components + other.components:
            if p not in by_p:
                by_p[p] = (k, exps)
                continue
            by_p[p] = _local_product(p, *by_p[p], k, exps)
        return _primitive_of((p, k, exps) for p, (k, exps) in by_p.items())

    def power(self, e: int) -> "DirichletCharacter":
        if e == 1:
            return self.primitive()
        comps = []
        for p, k, exps in self.components:
            orders = _local_orders(p, k)
            comps.append((p, k, tuple((x * e) % n for x, n in zip(exps, orders))))
        return _primitive_of(comps)

    def primitive(self) -> "DirichletCharacter":
        if self._conductor == self.modulus:
            return self
        return _primitive_of(self.components)

    def generator_values(self) -> tuple[tuple[int, int], ...]:
        """Values on the unit-group generators as (order, exponent) pairs."""
        out = []
        for p, k, exps in self.components:
            for e, n in zip(exps, _local_orders(p, k)):
                out.append((n, e % n))
        return tuple(out)

    def angles(self) -> tuple[tuple[int, Fraction], ...]:
        """Values on the units a mod the conductor as sorted pairs (a, angle).

        chi(a) = exp(2 pi i angle) with angle in [0, 1).  The table walks the
        powers of the generators of ``unit_group_components(conductor)``,
        the generators ``generator_values`` refers to.
        """
        prim = self.primitive()
        f = prim.conductor
        if f == 1:
            return ((1, Fraction(0)),)
        table = [(1, Fraction(0))]
        gens = unit_group_components(f)
        for (_, _, g, _), (n, e) in zip(gens, prim.generator_values()):
            walked = []
            for a, angle in table:
                for x in range(n):
                    walked.append((a, (angle + Fraction(e * x, n)) % 1))
                    a = a * g % f
            table = walked
        return tuple(sorted(table))


def _assembled(components: tuple, conductor: int, order: int) -> DirichletCharacter:
    """A primitive character whose conductor and order the caller already knows."""
    chi = object.__new__(DirichletCharacter)
    object.__setattr__(chi, "components", components)
    object.__setattr__(chi, "_conductor", conductor)
    object.__setattr__(chi, "_order", order)
    return chi


def _primitive_of(components) -> DirichletCharacter:
    """The primitive character of the given components, in sorted order."""
    comps = []
    cond = 1
    order = 1
    for p, k, exps in sorted(components):
        f, o = _local_invariants(p, k, exps)
        if f == 1:
            continue
        if f != p**k:
            k_f = 0
            ff = f
            while ff > 1:
                ff //= p
                k_f += 1
            exps = _shrink(p, k, exps, k_f)
            k = k_f
        comps.append((p, k, exps))
        cond *= f
        order = math.lcm(order, o)
    return _assembled(tuple(comps), cond, order)


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


def conductor(chi: DirichletCharacter) -> int:
    """Primitive conductor: the smallest modulus the character lives on."""
    return chi.conductor


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
    elif k == 3:
        if e % 2 == 0:
            out.append(DirichletCharacter(((2, 3, (0, 1)),)))
            out.append(DirichletCharacter(((2, 3, (1, 1)),)))
    elif k >= 4:
        wild_order = 2 ** (k - 2)
        if e % wild_order == 0:
            for sign in (0, 1):
                for w in range(1, wild_order, 2):
                    out.append(DirichletCharacter(((2, k, (sign, w)),)))
    return tuple(out)


def characters_up_to(e: int, f_max: int, budget: int | None = None) -> list[DirichletCharacter]:
    """All primitive nontrivial characters of order dividing e, conductor <= f_max.

    Built multiplicatively from prime-power atoms; the result is sorted by
    conductor, ties by components.  With a budget, the primes up to f_max
    count as f_max of it and every character built as one more; f_max alone
    past the budget raises BudgetExceededError before the primes are
    sieved.  The atoms of a prime are made only when the enumeration first
    reaches it, so an oversized request stops before it allocates much.
    """
    if e < 1 or f_max < 1:
        raise ValueError("order and conductor bounds must be positive")
    if budget is not None:
        budget -= f_max
        if budget < 0:
            raise BudgetExceededError(f"sieving to {f_max} exceeds the budget")
    primes = iter(primes_up_to(f_max))
    atoms_by_p: list[tuple[int, list[DirichletCharacter]]] = []

    def atoms_at(i: int) -> tuple[int, list[DirichletCharacter]] | None:
        """The i-th prime that carries atoms, with its atoms by conductor."""
        while len(atoms_by_p) <= i:
            p = next(primes, None)
            if p is None:
                return None
            local: list[DirichletCharacter] = []
            k = 1
            while p**k <= f_max:
                local.extend(_local_primitive_atoms(p, k, e))
                k += 1
            if local:
                local.sort(key=lambda chi: chi.conductor)
                atoms_by_p.append((p, local))
        return atoms_by_p[i]

    out: list[DirichletCharacter] = []

    def extend(start: int, comps: tuple, cond: int, order: int) -> None:
        if cond > 1:
            if budget is not None and len(out) >= budget:
                raise BudgetExceededError(f"character pool exceeded {budget} characters")
            out.append(_assembled(comps, cond, order))
        i = start
        while (entry := atoms_at(i)) is not None:
            p, local = entry
            if cond * p > f_max:
                break
            for atom in local:
                c = cond * atom.conductor
                if c > f_max:
                    break
                extend(i + 1, comps + atom.components, c, math.lcm(order, atom.order))
            i += 1

    extend(0, (), 1, 1)
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


def _power_conductor(chi: DirichletCharacter, g: int) -> int:
    """Conductor of chi^g, read from the components of chi."""
    if g == 1:
        return chi.conductor
    cond = 1
    for p, k, exps in chi.components:
        orders = _local_orders(p, k)
        cond *= _local_invariants(p, k, tuple(x * g % n for x, n in zip(exps, orders)))[0]
    return cond


def _product_conductor(local: dict, cp: int, chi: DirichletCharacter) -> int:
    """Conductor of psi * chi for primitive psi and chi.

    local maps each prime of psi to its (k, exps) and cp is the conductor
    of psi.  Only the primes of gcd(cp, cond chi) need the product of the
    local components; at every other prime one factor is unramified.
    """
    ce = chi.conductor
    g = math.gcd(cp, ce)
    if g == 1:
        return cp * ce
    cond = cp * ce
    for p, k, exps in chi.components:
        if g % p:
            continue
        k0, exps0 = local[p]
        top, summed = _local_product(p, k0, exps0, k, exps)
        cond = cond // p ** (k + k0) * _local_invariants(p, top, summed)[0]
    return cond


def _prefix(psi: DirichletCharacter) -> tuple[DirichletCharacter, dict, int]:
    return psi, {p: (k, exps) for p, k, exps in psi.components}, psi.conductor


def _extended(prefixes: list, powers: tuple[DirichletCharacter, ...]) -> list:
    """The nonzero products of the images so far, with the powers of the
    next image chi folded in: psi, chi^e and psi * chi^e."""
    out = list(prefixes)
    for chi in powers:
        out.append(_prefix(chi))
        out.extend(_prefix(psi.mul(chi)) for psi, _, _ in prefixes)
    return out


def _mixed_invariant(prefixes: list, powers: tuple, inv: int, limit: int | None) -> int | None:
    """inv times the conductors of the mixed elements psi * chi^e; None if
    one of them is trivial (conductor 1) or, given a limit, the product
    passes it.  Without a limit only injectivity is checked."""
    for _, local, cp in prefixes:
        for chi in powers:
            c = _product_conductor(local, cp, chi)
            if c == 1:
                return None
            if limit is not None:
                inv *= c
                if inv > limit:
                    return None
    return inv


def _disc_weights(d: int) -> list[tuple[int, int]]:
    """(g, phi(d/g)) over the proper divisors g of d: cond(chi^e) depends on
    e only through gcd(e, d), so disc0(chi) = prod_g cond(chi^g)^phi(d/g)."""
    return [(g, euler_phi(d // g)) for g in range(1, d) if d % g == 0]


def _local_types(p: int, d: int, disc: bool) -> tuple[tuple[int, int, int], ...]:
    """(c, order, multiplicity) of the primitive atoms at p of order dividing d.

    An atom multiplies the invariant by p^c: by its disc0 for disc, by p for
    ram.  Atoms of order dividing d live mod p^k for k <= v_p(d) + 1, and
    k <= v_2(d) + 2 at p = 2; for p not dividing d only k = 1 has any.
    """
    top = 2 if p == 2 else 1
    rest = d
    while rest % p == 0:
        rest //= p
        top += 1
    weights = _disc_weights(d)
    types: Counter = Counter()
    for k in range(1, top + 1):
        for atom in _local_primitive_atoms(p, k, d):
            f = math.prod(_power_conductor(atom, g) ** w for g, w in weights) if disc else p
            c = 0
            while f > 1:
                f //= p
                c += 1
            types[c, atom.order] += 1
    return tuple(sorted((c, t, m) for (c, t), m in types.items()))


def _cyclic_count(
    d: int, x_bound: int, disc: bool, histogram: bool, node_budget: int
) -> tuple[int, dict[int, int]]:
    """Characters of exact order d with invariant <= X, and their histogram.

    A character is a product of primitive local atoms at distinct primes,
    of exact order the lcm of their orders, and both invariants are
    products of one factor p^c per atom.  So the walk runs over integers:
    it takes primes in ascending order and atom types (c, order,
    multiplicity) from ``_local_types``, multiplying keys and
    multiplicities.  Above d every prime is tame and its types depend only
    on gcd(p - 1, d): they are made once per class, from its first prime.

    Without a histogram, once no two more primes fit (key times
    (p p_next)^c_min passes X), the single-prime leaves are counted by
    bisection with prefix sums, per tame type, of its multiplicity.
    """
    # the primes to the sieve bound count as nodes, checked before the sieve
    nodes = integer_root(x_bound, euler_phi(d)) if disc else x_bound
    if nodes > node_budget:
        raise BudgetExceededError(f"sieving to {nodes} exceeds {node_budget} nodes")
    primes = primes_up_to(nodes)
    small = bisect_right(primes, d)
    local = [_local_types(p, d, disc) for p in primes[:small]]
    classes = array("q", map(math.gcd, map(sub, islice(primes, small, None), repeat(1)), repeat(d)))
    tame = {g: _local_types(primes[small + classes.index(g)], d, disc) for g in set(classes)}
    tame_types = {(c, t) for types in tame.values() for c, t, _ in types}
    c_min = min((c for c, _ in tame_types), default=0)
    end = len(primes) if tame_types else small
    prefix: dict[tuple[int, int], array] = {}
    for c, t in () if histogram else tame_types:
        mult = [0] * (d + 1)
        for g, types in tame.items():
            mult[g] = sum(m for c1, t1, m in types if (c1, t1) == (c, t))
        prefix[c, t] = array("q", accumulate(map(mult.__getitem__, classes), initial=0))

    def leaves(j: int, room: int, order: int) -> int:
        """Atoms of primes from the j-th on that complete order to d and
        fit in room."""
        total = 0
        for (c, t), pre in prefix.items():
            if math.lcm(order, t) == d:
                hi = bisect_right(primes, integer_root(room, c), j)
                total += pre[hi - small] - pre[j - small]
        return total

    count = 0
    hist: dict[int, int] = {}

    def walk(j: int, key: int, order: int, mult: int) -> None:
        """key, order and mult of the atoms taken so far, all at primes
        before the j-th."""
        nonlocal count, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"enumeration exceeded {node_budget} nodes")
        if order == d:
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
                    count += mult * leaves(j, room, order)
                    break
                types = tame[classes[j - small]]
            for c, t, m in types:
                f = p**c
                if f > room:
                    break
                walk(j + 1, key * f, math.lcm(order, t), mult * m)
            j += 1

    walk(0, 1, 1, 1)
    return count, hist


def count_surjections(
    G: AbelianGroup,
    x_bound: int,
    ordering: str = "disc",
    histogram: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountReport:
    """Count surjections from the Galois group of Q onto G with invariant <= X.

    Cyclic G = C_d: a surjection is a character of exact order d, and its
    invariant is disc0(chi) = prod_{1 <= e < d} cond(chi^e) (disc) or the
    product of its ramified primes (ram).  ``_cyclic_count`` counts them by
    a walk over integer atom types, with no character objects; the primes
    it sieves, to integer_root(X, phi(d)) for disc (disc0 >= cond^phi(d))
    and to X for ram, count against the node budget before the sieve runs.

    Noncyclic G: generator i of the dual group maps to a character chi_i of
    exact order d_i (injectivity on the i-th cyclic piece demands that).
    Level i of the walk holds the nonzero dual elements whose last nonzero
    coordinate is i: the powers chi_i^e, 1 <= e < d_i, and the mixed
    elements psi * chi_i^e, psi a nonzero product of the earlier images.
    Injectivity is checked on every mixed element: its image is trivial
    exactly when its conductor is 1.

    Disc: the conductors of the powers multiply to the pool key disc0(chi).
    Every nonidentity dual element maps to a nontrivial primitive
    character, of conductor at least 3, so a tuple with chi_i = chi has
    discriminant at least disc0(chi) * 3^(|G| - d_i).  The order-d pool
    therefore holds the keys up to X // 3^(|G| - d), built to conductor
    integer_root(X // 3^(|G| - d), phi(d)).  The levels after i add at least
    tail[i + 1]: the product over them of their pool's least key times 3 per
    mixed element.  Level i keeps the keys up to
    X // (inv * 3^(mixed_i) * tail[i + 1]), inv the discriminant of the
    levels before it, and drops an entry once inv * key times its mixed
    conductors passes X // tail[i + 1].

    Ram: the ramified primes of every dual image lie among those of the
    generator images, so the invariant is the lcm of the generators'
    products of ramified primes.  Pools run to conductor 2 d X, keyed by
    that product, with no tail.
    """
    if x_bound < 1:
        raise ValueError("the bound must be at least 1")
    if ordering not in ("disc", "ram"):
        raise ValueError("ordering must be disc or ram")
    factors = G.invariant_factors
    if not factors:
        return CountReport(G, x_bound, ordering, 1, 1, ((1, 1),) if histogram else None)
    disc = ordering == "disc"
    rank = len(factors)
    if rank == 1:
        count, hist = _cyclic_count(factors[0], x_bound, disc, histogram, node_budget)
    else:
        count, hist = _noncyclic_count(G, x_bound, disc, histogram, node_budget)
    aut = aut_order(G)
    assert count % aut == 0, "surjection count must be divisible by |Aut(G)|"
    hist_out = tuple(sorted(hist.items())) if histogram else None
    return CountReport(G, x_bound, ordering, count, count // aut, hist_out)


def _noncyclic_count(
    G: AbelianGroup, x_bound: int, disc: bool, histogram: bool, node_budget: int
) -> tuple[int, dict[int, int]]:
    """Surjections onto G of rank >= 2 by the pool walk of ``count_surjections``."""
    # the sieve bound of a pool and every pool character count as nodes, so
    # an oversized request stops before or while its pool is built.  A pool
    # is its keys in increasing order and the powers (chi, chi^2, ...,
    # chi^(d-1)) beside them.
    factors = G.invariant_factors
    rank = len(factors)
    nodes = 0
    pools: dict[int, tuple[list[int], list[tuple[DirichletCharacter, ...]]]] = {}
    for d in sorted(set(factors)):
        if disc:
            rest = G.order - d  # 3^rest > X once rest reaches X's bit length
            key_cap = x_bound // 3**rest if rest < x_bound.bit_length() else 0
            f_cap = integer_root(key_cap, euler_phi(d))
        else:
            # order-d characters ramified within {p : p | ram} have conductor
            # at most ram * d * 2 (one extra power of p per p | d, two at 2)
            key_cap, f_cap = x_bound, 2 * d * x_bound
        chars = characters_up_to(d, f_cap, budget=node_budget - nodes) if f_cap else []
        nodes += f_cap + len(chars)
        chars = [chi for chi in chars if chi.order == d]
        if not disc:
            keys = [math.prod(p for p, _, _ in chi.components) for chi in chars]
        elif d == 2:
            keys = [chi.conductor for chi in chars]
        else:
            weights = _disc_weights(d)
            keys = [math.prod(_power_conductor(chi, g) ** w for g, w in weights) for chi in chars]
        if not (disc and d <= 3):  # disc0 is cond for d = 2, cond^2 for d = 3
            order = sorted(range(len(keys)), key=keys.__getitem__)
            keys = [keys[j] for j in order]
            chars = [chars[j] for j in order]
        del keys[bisect_right(keys, key_cap):]
        powers = [(chi, *map(chi.power, range(2, d))) for chi in chars[: len(keys)]]
        pools[d] = (keys, powers)

    hist: dict[int, int] = {}
    count = 0

    if all(keys for keys, _ in pools.values()):
        mixed = [(math.prod(factors[:i]) - 1) * (d - 1) for i, d in enumerate(factors)]
        tail = [1] * (rank + 1)
        if disc:
            for i in reversed(range(rank)):
                tail[i] = tail[i + 1] * pools[factors[i]][0][0] * 3 ** mixed[i]
        floors = [3 ** m * t for m, t in zip(mixed, tail[1:])]

        def walk(i: int, inv: int, prefixes: list) -> None:
            """inv is the invariant of the levels before i; prefixes holds
            the nonzero products of their images."""
            nonlocal count, nodes
            keys, powers_of = pools[factors[i]]
            if disc:
                hi = bisect_right(keys, x_bound // (inv * floors[i]))
                limit = x_bound // tail[i + 1]
            else:
                hi, limit = len(keys), None
            for j in range(hi):
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceededError(f"enumeration exceeded {node_budget} nodes")
                if disc:
                    new_inv = inv * keys[j]
                else:
                    new_inv = math.lcm(inv, keys[j])
                    if new_inv > x_bound:
                        continue
                new_inv = _mixed_invariant(prefixes, powers_of[j], new_inv, limit)
                if new_inv is None:
                    continue
                if i + 1 < rank:
                    walk(i + 1, new_inv, _extended(prefixes, powers_of[j]))
                    continue
                count += 1
                if histogram:
                    hist[new_inv] = hist.get(new_inv, 0) + 1

        walk(0, 1, [])
    return count, hist
