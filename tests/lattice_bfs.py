"""Subgroups of a finite abelian group as element sets, and every one by BFS.

The program counts the sieve subgroups by type and builds none of them;
these slow, obviously complete forms are the reference the tests compare
the counts against: a subgroup is its element set, the lattice is a BFS
over spans, and the Moebius function is P. Hall's closed form on the
subgroups that contain the Frattini subgroup and 0 elsewhere.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from malle_lab.groups import AbelianGroup, Element, _hall_moebius, element_order
from malle_lab.numerics import factorize


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
    return Subgroup(G, frozenset(G.elements()), G.basis())


def trivial_subgroup(G: AbelianGroup) -> Subgroup:
    return Subgroup(G, frozenset({G.identity}), ())


def frattini(G: AbelianGroup) -> Subgroup:
    """Intersection of the maximal subgroups; for abelian G this is rad(|G|)*G."""
    r = math.prod(p for p, _ in factorize(G.order))
    gens = tuple(g for g in (G.scale(r, e) for e in G.basis()) if g != G.identity)
    return span(G, gens)


def moebius_subgroup(H: Subgroup, G: AbelianGroup) -> int:
    """mu(H, G) in the subgroup lattice; zero unless H contains Frattini(G)."""
    if H.group != G:
        raise ValueError("subgroup belongs to a different group")
    if span(G, H.generators).elements != H.elements:
        raise ValueError("not a subgroup of the ambient group")
    if not frattini(G).elements <= H.elements:
        return 0
    return _hall_moebius(G.order // H.order)


def histogram(H: Subgroup) -> tuple[tuple[int, int], ...]:
    """(order, number of elements of that order) over H, identity included."""
    return tuple(sorted(Counter(element_order(H.group, g) for g in H.elements).items()))


@lru_cache(maxsize=None)
def subgroup_lattice(G: AbelianGroup) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, sorted by (order, element list)."""
    elems = G.elements()
    trivial = frozenset({G.identity})
    found: dict[frozenset, tuple[Element, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new: list[frozenset] = []
        for hset in frontier:
            gens = found[hset]
            for g in elems:
                if g in hset:
                    continue
                extended = span(G, gens + (g,)).elements
                if extended not in found:
                    found[extended] = gens + (g,)
                    new.append(extended)
        frontier = new
    subs = [Subgroup(G, hset, gens) for hset, gens in found.items()]
    subs.sort(key=lambda H: (H.order, H.sorted_elements()))
    return tuple(subs)
