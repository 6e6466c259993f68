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
componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

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
            k0, exps0 = by_p[p]
            k_new = max(k, k0)
            a = _lift(p, k0, exps0, k_new)
            b = _lift(p, k, exps, k_new)
            orders = _local_orders(p, k_new)
            by_p[p] = (k_new, tuple((x + y) % n for x, y, n in zip(a, b, orders)))
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
    conductor with deterministic tie order.  With a budget, building more
    than that many characters raises BudgetExceededError; the atoms of a
    prime are made only when the enumeration first reaches it, so an
    oversized request stops before it allocates much.
    """
    if e < 1 or f_max < 1:
        raise ValueError("order and conductor bounds must be positive")
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
    out.sort(key=lambda chi: (chi.conductor, chi.components))
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


@lru_cache(maxsize=None)
def _dual_levels(factors: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Nonzero dual exponent tuples grouped by their last nonzero coordinate."""
    k = len(factors)
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for exps in iproduct(*(range(d) for d in factors)):
        if not any(exps):
            continue
        last = max(i for i, v in enumerate(exps) if v)
        levels[last].append(exps)
    return tuple(tuple(level) for level in levels)


def count_surjections(
    G: AbelianGroup,
    x_bound: int,
    ordering: str = "disc",
    histogram: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountReport:
    """Count surjections from the Galois group of Q onto G with invariant <= X.

    Images of the dual-group generators run over Dirichlet characters of
    exact order d_i (injectivity on the i-th cyclic piece demands that), the
    partial invariant of the images chosen so far prunes the tree (for ram
    before any character product is formed), and full injectivity is checked
    on every nonzero dual element.
    """
    if x_bound < 1:
        raise ValueError("the bound must be at least 1")
    if ordering not in ("disc", "ram"):
        raise ValueError("ordering must be disc or ram")
    factors = G.invariant_factors
    if not factors:
        return CountReport(G, x_bound, ordering, 1, 1, ((1, 1),) if histogram else None)

    # every pool character counts as a node, so an oversized request stops
    # while its pool is built; a pool entry holds chi, chi^2, ..., chi^(d-1).
    # Disc pools stay sorted by conductor; ram pools are sorted by the
    # product of the ramified primes of chi, kept alongside in rads[d].
    nodes = 0
    pools: dict[int, list[tuple[DirichletCharacter, ...]]] = {}
    rads: dict[int, list[int]] = {}
    phis = {d: euler_phi(d) for d in factors}
    for d in sorted(phis):
        if ordering == "disc":
            f_cap = integer_root(x_bound, phis[d])
        else:
            # order-d characters ramified within {p : p | ram} have conductor
            # at most ram * d * 2 (one extra power of p per p | d, two at 2)
            f_cap = 2 * d * x_bound
        chars = characters_up_to(d, f_cap, budget=node_budget - nodes)
        nodes += len(chars)
        pools[d] = [(chi, *map(chi.power, range(2, d))) for chi in chars if chi.order == d]
        if ordering == "ram":
            keyed = sorted(
                ((math.prod(powers[0].ramified_primes()), powers) for powers in pools[d]),
                key=lambda entry: entry[0],
            )
            rads[d] = [rad for rad, _ in keyed]
            pools[d] = [powers for _, powers in keyed]

    levels = _dual_levels(factors)
    hist: dict[int, int] = {}
    count = 0

    def level_conductors(images: list[tuple[DirichletCharacter, ...]], i: int) -> int | None:
        """Conductor product over the dual elements at level i; None if one
        of them maps to the trivial character (injectivity fails)."""
        value = 1
        for exps in levels[i]:
            img = TRIVIAL_CHARACTER
            for powers, e in zip(images, exps):
                if e:
                    part = powers[e - 1]
                    img = part if img.is_trivial() else img.mul(part)
            if img.is_trivial():
                return None
            value *= img.conductor
        return value

    def walk(i: int, images: list[tuple[DirichletCharacter, ...]], inv: int) -> None:
        """inv is the discriminant of the images so far (disc), or the product
        of their ramified primes (ram).  The ramified primes of every dual
        element's image lie in those of the generator images, so the ram
        invariant of a tuple is the lcm of the generators' prime products."""
        nonlocal count, nodes
        if i == len(factors):
            count += 1
            if histogram:
                hist[inv] = hist.get(inv, 0) + 1
            return
        d_i = factors[i]
        phi_d = phis[d_i]
        for j, powers in enumerate(pools[d_i]):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(f"enumeration exceeded {node_budget} nodes")
            if ordering == "disc":
                if inv * powers[0].conductor**phi_d > x_bound:
                    break  # pools are sorted by conductor
            else:
                rad = rads[d_i][j]
                if rad > x_bound:
                    break  # ram pools are sorted by that product
                new_inv = math.lcm(inv, rad)
                if new_inv > x_bound:
                    continue
            extended = images + [powers]
            value = level_conductors(extended, i)
            if value is None:
                continue
            if ordering == "disc":
                new_inv = inv * value
                if new_inv > x_bound:
                    continue
            walk(i + 1, extended, new_inv)

    walk(0, [], 1)
    aut = aut_order(G)
    assert count % aut == 0, "surjection count must be divisible by |Aut(G)|"
    hist_out = tuple(sorted(hist.items())) if histogram else None
    return CountReport(G, x_bound, ordering, count, count // aut, hist_out)
