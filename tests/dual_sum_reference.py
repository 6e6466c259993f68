"""The discriminant exponent of a local hom as a sum over the dual group.

The oracle reads v_p(disc) of a local hom phi : (Z/p^k)^* -> G from the
orders of the images of the unit filtration (``oracle._disc_exponent``).
This is the form it replaced, kept as the reference: by the
conductor-discriminant formula v_p(disc) is the sum, over every psi in the
dual group listed element by element, of v_p(cond(psi o phi)), one local
conductor each.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from malle_lab.groups import AbelianGroup
from malle_lab.oracle import _local_invariants, _local_orders


def local_homs(G: AbelianGroup, p: int, k: int) -> list[tuple[list[int], ...]]:
    """Every nontrivial hom (Z/p^k)^* -> G, by the images of the generators
    of (Z/p^k)^*: the one of order n sends to some g with n g = 0, scaled
    to (g_i n / d_i)_i."""
    factors = G.invariant_factors
    images = [
        [[x * n // d for x, d in zip(g, factors)] for g in G.elements() if not any(G.scale(n, g))]
        for n in _local_orders(p, k)
    ]
    return [hom for hom in product(*images) if any(map(any, hom))]


def dual_sum_exponent(G: AbelianGroup, p: int, k: int, hom: tuple[list[int], ...]) -> int:
    """v_p(disc) of the hom: psi o phi sends generator j, of order n_j, to
    sum_i psi_i w_i mod n_j, and v_p of its conductor is summed over psi."""
    orders = _local_orders(p, k)
    exponent = {p**e: e for e in range(k + 1)}
    return sum(
        exponent[_local_invariants(p, k, tuple(
            sum(map(mul, psi, w)) % n for w, n in zip(hom, orders)
        ))[0]]
        for psi in G.elements()
    )
