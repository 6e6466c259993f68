"""Counting invariants for abelian extensions: index, orbits, a, b_d, cases.

The discriminant of a tamely ramified extension is governed by the index
ind(g) = |G|(1 - 1/ord(g)) of the inertia generator in the regular
representation.  Galois twists act on group elements through pairs
(automorphism, unit power); over Q the plain cyclotomic action uses every
unit.  Orbits of that action, weighted by an index function, produce the
exponents and log-powers of the counting asymptotics and the case analysis
for when lower order terms provably survive the surjection sieve; the cases
need only the element orders, so they are found without enumerating G.

Under unit actions, the plain one or ``units=``, the orbits are counted, not
listed: ``cyclotomic_orbits`` reads one triple (order, index, number of
orbits) per element order off a histogram (of G or of a sieve row), and
``invariant_summary``, the series and ``bbar_d`` apply each triple once with
its multiplicity.  ``orbits`` enumerates, for automorphism twists and
element-keyed tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from .groups import (
    AbelianGroup,
    Element,
    Histogram,
    element_order,
    element_orders,
    make_group,
    sieve_types,
)
from .numerics import divisors, euler_phi, factorize, unit_group_components


class InvarianceViolation(ValueError):
    """A custom weight table is not constant on an orbit."""


def index_of(G: AbelianGroup, g: Element) -> int:
    """Index of g in the regular representation: |G| (1 - 1/ord(g))."""
    n = G.order
    return n - n // element_order(G, g)


# -- weight functions ---------------------------------------------------------


@dataclass(frozen=True)
class WeightFn:
    """Weight on group elements; zero exactly at the identity.

    kind 'disc' is the regular-representation index, 'ram' weights every
    non-identity element 1, and 'custom' carries an explicit table keyed by
    element order (int key) or by element tuple.
    """

    kind: str
    table: tuple[tuple[object, Fraction], ...] | None = None

    @cached_property
    def _lookup(self) -> dict[object, Fraction]:
        return dict(self.table)

    @staticmethod
    def disc() -> "WeightFn":
        return WeightFn("disc")

    @staticmethod
    def ram() -> "WeightFn":
        return WeightFn("ram")

    @staticmethod
    def custom(G: AbelianGroup, mapping: dict) -> "WeightFn":
        table = tuple(sorted(((k, Fraction(v)) for k, v in mapping.items()), key=str))
        wt = WeightFn("custom", table)
        for key, value in table:
            if value < 0:
                raise ValueError("weights must be nonnegative")
        # invariance under invertible powers: check on the elements of G
        for g in G.elements():
            w = weight_of(G, wt, g)
            o = element_order(G, g)
            for u in range(1, o):
                if math.gcd(u, o) == 1 and weight_of(G, wt, G.scale(u, g)) != w:
                    raise InvarianceViolation(
                        f"weight not invariant on the orbit of {g}"
                    )
            if (g == G.identity) != (w == 0):
                raise ValueError("weight must vanish exactly at the identity")
        return wt


def weight_of(G: AbelianGroup, wt: WeightFn, g: Element) -> Fraction:
    if wt.kind == "disc":
        return Fraction(index_of(G, g))
    if wt.kind == "ram":
        return Fraction(0) if g == G.identity else Fraction(1)
    if wt.kind == "custom":
        if g == G.identity:
            return Fraction(0)
        assert wt.table is not None
        lookup = wt._lookup
        if g in lookup:
            return lookup[g]
        o = element_order(G, g)
        if o in lookup:
            return lookup[o]
        raise KeyError(f"custom weight table has no entry for {g} (order {o})")
    raise ValueError(f"unknown weight kind {wt.kind!r}")


# -- Galois actions -----------------------------------------------------------


AutMap = tuple[Element, ...]  # images of the basis elements


@dataclass(frozen=True)
class GaloisActionSpec:
    """Group action generated by pairs (automorphism, unit): t -> alpha(t)^u."""

    group: AbelianGroup
    generators: tuple[tuple[AutMap, int], ...]

    def apply(self, pair: tuple[AutMap, int], g: Element) -> Element:
        aut, u = pair
        G = self.group
        image = G.identity
        for coord, basis_image in zip(g, aut):
            image = G.add(image, G.scale(coord, basis_image))
        return G.scale(u, image)

    def orbit_of(self, g: Element) -> frozenset[Element]:
        seen = {g}
        frontier = [g]
        while frontier:
            new = []
            for h in frontier:
                for pair in self.generators:
                    x = self.apply(pair, h)
                    if x not in seen:
                        seen.add(x)
                        new.append(x)
            frontier = new
        return frozenset(seen)

    @staticmethod
    def trivial(G: AbelianGroup) -> "GaloisActionSpec":
        return GaloisActionSpec(G, ((G.basis(), 1),))

    @staticmethod
    def cyclotomic(G: AbelianGroup) -> "GaloisActionSpec":
        """The action g -> g^u for every unit u mod exp(G) (the K = Q case)."""
        exp = G.exponent
        gens = [(G.basis(), residue % exp) for _, _, residue, _ in unit_group_components(exp)]
        if not gens:
            gens = [(G.basis(), 1)]
        return GaloisActionSpec(G, tuple(gens))

    @staticmethod
    def from_units(G: AbelianGroup, units: list[int]) -> "GaloisActionSpec":
        exp = G.exponent
        gens = []
        for u in units:
            u %= exp if exp > 1 else 1
            if exp > 1 and math.gcd(u, exp) != 1:
                raise ValueError(f"{u} is not a unit mod {exp}")
            gens.append((G.basis(), u if exp > 1 else 1))
        if not gens:
            gens = [(G.basis(), 1)]
        return GaloisActionSpec(G, tuple(gens))


@dataclass(frozen=True)
class OrbitData:
    representative: Element
    size: int
    weight: Fraction
    element_order: int
    members: tuple[Element, ...]


@lru_cache(maxsize=None)
def orbits(
    G: AbelianGroup, action: GaloisActionSpec, wt: WeightFn
) -> tuple[OrbitData, ...]:
    """Partition of all of G (identity included) into action orbits."""
    if action.group != G:
        raise ValueError("action is attached to a different group")
    out = []
    remaining = set(G.elements())
    while remaining:
        members = tuple(sorted(action.orbit_of(min(remaining))))
        remaining -= set(members)
        rep = members[0]
        w = weight_of(G, wt, rep)
        for other in members[1:]:
            if weight_of(G, wt, other) != w:
                raise InvarianceViolation(
                    f"weight is not constant on the orbit of {rep}"
                )
        out.append(
            OrbitData(rep, len(members), w, element_order(G, rep), members)
        )
    assert sum(o.size for o in out) == G.order
    out.sort(key=lambda o: (o.weight, o.representative))
    return tuple(out)


def nonidentity_orbits(
    G: AbelianGroup, action: GaloisActionSpec, wt: WeightFn
) -> tuple[OrbitData, ...]:
    return tuple(o for o in orbits(G, action, wt) if o.weight != 0)


def weight_spectrum(
    G: AbelianGroup, action: GaloisActionSpec, wt: WeightFn
) -> tuple[Fraction, ...]:
    return tuple(sorted({o.weight for o in nonidentity_orbits(G, action, wt)}))


def a_invariant(G: AbelianGroup, action: GaloisActionSpec, wt: WeightFn) -> Fraction:
    """Minimal weight of a non-identity orbit (the main-term exponent is 1/a)."""
    if G.order <= 1:
        raise ValueError("a is undefined for the trivial group")
    return min(o.weight for o in nonidentity_orbits(G, action, wt))


def b_d(
    G: AbelianGroup, action: GaloisActionSpec, wt: WeightFn, d: Fraction | int
) -> int:
    """Number of non-identity orbits of weight exactly d."""
    target = Fraction(d)
    return sum(1 for o in nonidentity_orbits(G, action, wt) if o.weight == target)


ZetaOrderHook = Callable[[int, Fraction], int]


def default_zeta_order_hook(m: int, x: Fraction) -> int:
    """Order of vanishing of the degree-phi(m) cyclotomic zeta at x: assume 0."""
    return 0


def _orbit_size(e: int, units: tuple[int, ...] | None) -> int:
    """|U mod e| for U the group the units generate; phi(e) for every unit."""
    if units is None:
        return euler_phi(e)
    seen = frontier = {1 % e}
    while frontier:
        frontier = {x * u % e for x in frontier for u in units} - seen
        seen |= frontier
    return len(seen)


@lru_cache(maxsize=None)
def cyclotomic_orbits(
    G: AbelianGroup, orders: Histogram, units: tuple[int, ...] | None = None
) -> tuple[tuple[int, int, int], ...]:
    """(order e, index n - n/e in G, number of orbits) per order e > 1 in the
    histogram ``orders`` (of G or of a subgroup), the orbits being those of
    t -> t^u for u in the group U the units generate (every unit if None).

    u fixes an element of order e only when u = 1 mod e, so the k_e elements
    of order e form k_e / |U mod e| orbits; they come by ascending order,
    which is ascending index.
    """
    n = G.order
    return tuple((e, n - n // e, k // _orbit_size(e, units)) for e, k in orders if e > 1)


@lru_cache(maxsize=None)
def _index_spectrum(G: AbelianGroup) -> frozenset[int]:
    n = G.order
    return frozenset(n - n // e for e in divisors(G.exponent) if e > 1)


@lru_cache(maxsize=None)
def _frattini_exponent(G: AbelianGroup) -> int:
    """m with Frattini(G) = prod_p p G_p holding every element of order e iff
    e | m: m = prod over p | |G| of p^(min v_p(d_i) - 1), over the invariant
    factors d_i divisible by p."""
    m = 1
    for p, _ in factorize(G.order):
        # d_1 | d_2 | ...: the first d_i divisible by p has the least v_p
        first = next(f for f in G.invariant_factors if f % p == 0)
        m *= p ** (dict(factorize(first))[p] - 1)
    return m


def _type_bbar(G: AbelianGroup, d: int, zeta_ord_hook: ZetaOrderHook, orders: Histogram) -> int:
    """bbar at s = 1/d of a subgroup of G with element-order histogram ``orders``.

    Scaled by [G:H], the index in H of an element of order e is ind_G(e), so
    H enters through its orbits of index d, or not at all.  bbar is their
    number minus, for every orbit of index ind < d, the hook at ind / d,
    clamped at 0.
    """
    if d not in _index_spectrum(G):
        raise ValueError(f"{d} is not in the index spectrum of {G}")
    counts = cyclotomic_orbits(G, orders)
    bbar = sum(k for _, ind, k in counts if ind == d)
    if not bbar:
        return 0
    for e, ind, k in counts:
        if ind >= d:
            break
        ord_val = zeta_ord_hook(e, Fraction(ind, d))
        if ord_val < 0:
            raise ValueError("zeta order hook returned a negative order")
        bbar -= k * ord_val
    return max(bbar, 0)


def bbar_d(
    G: AbelianGroup,
    d: int,
    zeta_ord_hook: ZetaOrderHook = default_zeta_order_hook,
) -> int:
    """b_d minus hypothetical real-zero corrections, clamped at zero.

    The correction sums the hook once per cyclotomic orbit of smaller index,
    evaluated at the scaled point ind(o)/d; the hook returns the assumed
    order of vanishing (0 everywhere by default).
    """
    return _type_bbar(G, d, zeta_ord_hook, element_orders(G))


def conjectured_pole_order(
    G: AbelianGroup,
    d: int,
    zeta_ord_hook: ZetaOrderHook = default_zeta_order_hook,
) -> int:
    """Predicted exact pole order at s = 1/d: max of bbar over Frattini-over subgroups.

    A subgroup H enters with the scaled index d / [G:H]; its bbar depends
    on H only through its type, so each sieve type is evaluated once.
    """
    return max(_type_bbar(G, d, zeta_ord_hook, orders) for orders, _ in sieve_types(G))


def classify_case(n: int, d: int, smaller: list[int], m: int, cyclic: bool) -> str:
    """First applicable non-vanishing case for the pole at s = 1/d over Q.

    G has order n, d is in its index spectrum, and ``smaller`` holds exactly
    the element orders e > 1 of G whose index n - n/e is below d, i.e. the
    divisors of exp(G) below the one of index d.  Elements of order e lie in
    Frattini(G) iff e | m.  i: d is the minimal index, so ``smaller`` is
    empty.  ii: everything of smaller index sits in the Frattini subgroup.
    iii: G = C2 x (odd) and smaller-index elements sit in Frattini union the
    2-torsion.  iv: G cyclic and d the index of a generator.  'none'
    otherwise.
    """
    if not smaller:
        return "case_i"
    if all(m % e == 0 for e in smaller):
        return "case_ii"
    if n % 4 == 2 and all(e == 2 or m % e == 0 for e in smaller):
        return "case_iii"
    if cyclic and d == n - 1:
        return "case_iv"
    return "none"


def nonvanishing_case(G: AbelianGroup, d: int) -> str:
    """``classify_case`` from the invariant factors, so G may exceed the cap."""
    n = G.order
    if d not in _index_spectrum(G):
        raise ValueError(f"{d} is not in the index spectrum of {G}")
    smaller = [e for e in divisors(G.exponent)[1:] if n - n // e < d]
    return classify_case(n, d, smaller, _frattini_exponent(G), G.is_cyclic())


def invariant_summary(
    G: AbelianGroup,
    ordering: str = "disc",
    units: list[int] | None = None,
) -> dict:
    """All invariants of one group in a JSON-friendly dict (CLI backend)."""
    if G.order <= 1:
        raise ValueError("invariants are undefined for the trivial group")
    for u in units or ():
        if math.gcd(u, G.exponent) != 1:
            raise ValueError(f"{u % G.exponent} is not a unit mod {G.exponent}")
    counts: Counter = Counter()
    for _, ind, k in cyclotomic_orbits(G, element_orders(G), None if units is None else tuple(units)):
        counts[ind if ordering == "disc" else 1] += k
    spectrum = sorted(counts)
    summary = {
        "group": str(G),
        "order": G.order,
        "ordering": ordering,
        "a": str(spectrum[0]),
        "spectrum": [str(d) for d in spectrum],
        "b": {str(d): counts[d] for d in spectrum},
    }
    if ordering == "disc" and units is None:
        summary["bbar"] = {str(d): bbar_d(G, int(d)) for d in spectrum}
        summary["conjectured_pole_order"] = {
            str(d): conjectured_pole_order(G, int(d)) for d in spectrum
        }
        summary["case"] = {str(d): nonvanishing_case(G, int(d)) for d in spectrum}
    return summary


def cyclic_group(n: int) -> AbelianGroup:
    return make_group([n]) if n > 1 else AbelianGroup(())
