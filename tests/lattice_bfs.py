"""Every subgroup of a finite abelian group by a BFS over spans.

The program builds only the sieve subgroups, from the subspaces of
G/Frattini(G); this slow, obviously complete enumeration is the reference
the tests compare them against.
"""

from __future__ import annotations

from functools import lru_cache

from malle_lab.groups import AbelianGroup, Element, Subgroup, span


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
