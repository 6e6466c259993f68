"""The surjection sieve one subgroup at a time.

The program counts the sieve subgroups by type (``groups.sieve_types``) and
reads the pole orders off the types' histograms.  Here every sieve subgroup
is built, as the preimage of a subspace of G/Frattini(G), and these
per-subgroup versions, which build each subgroup's abstract type and run
one Euler-product row per subgroup, are the reference the tests compare the
counted sieve against; ``bbar_d`` counts the orbits one by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from mpmath import mp

from lattice_bfs import Subgroup, frattini, full_subgroup, histogram, span
from malle_lab.groups import AbelianGroup, Element, _hall_moebius, element_order, make_group
from malle_lab.invariants import (
    GaloisActionSpec,
    WeightFn,
    b_d,
    default_zeta_order_hook,
    nonidentity_orbits,
    nonvanishing_case,
    weight_spectrum,
)
from malle_lab.lvalues import dedekind_zeta_residue, dedekind_zeta_value
from malle_lab.numerics import factorize
from malle_lab.series import _euler_products


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
def sieve_subgroups(G: AbelianGroup) -> tuple[tuple[Subgroup, int], ...]:
    """(H, mu(H, G)) for every subgroup H containing Frattini(G).

    They are the preimages of the subspaces of G/Frattini(G), one span per
    choice of a subspace for every prime, sorted by (order, element list).
    """
    phi = frattini(G).generators
    per_prime = [_lifted_subspaces(G, p) for p, _ in factorize(G.order)]
    subs = [span(G, phi + sum(choice, ())) for choice in product(*per_prime)]
    subs.sort(key=lambda H: (H.order, H.sorted_elements()))
    return tuple((H, _hall_moebius(G.order // H.order)) for H in subs)


def _disc_orbits(G: AbelianGroup):
    return nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), WeightFn.disc())


def subgroup_invariant_factors(H: Subgroup) -> AbelianGroup:
    """Abstract isomorphism type of a subgroup from its element orders.

    For each prime p the partition of the p-part is recovered from the
    counts #{h : p^k h = 0} = p^(sum_i min(lambda_i, k)).
    """
    n = H.order
    if n == 1:
        return AbelianGroup(())
    G = H.group
    parts: dict[int, list[int]] = {}
    for p, e in factorize(n):
        log_counts = []
        for k in range(e + 1):
            pk = p**k
            count = sum(1 for h in H.elements if G.scale(pk, h) == G.identity)
            log_counts.append(round(math.log(count, p)))
        # log_counts[k] - log_counts[k-1] = number of partition parts >= k
        ge = [log_counts[k] - log_counts[k - 1] for k in range(1, e + 1)]
        partition = []
        for k, cnt in enumerate(ge, start=1):
            nxt = ge[k] if k < len(ge) else 0
            partition.extend([k] * (cnt - nxt))
        parts[p] = sorted(partition, reverse=True)
    rank = max(len(v) for v in parts.values())
    factors = []
    for i in range(rank):
        d = 1
        for p, partition in parts.items():
            if i < len(partition):
                d *= p ** partition[i]
        factors.append(d)
    return make_group([f for f in factors if f > 1])


def bbar_d(G: AbelianGroup, d: int, zeta_ord_hook=default_zeta_order_hook) -> int:
    """b_d minus the hook once per cyclotomic orbit of smaller index, clamped at 0."""
    action, wt = GaloisActionSpec.cyclotomic(G), WeightFn.disc()
    if Fraction(d) not in weight_spectrum(G, action, wt):
        raise ValueError(f"{d} is not in the index spectrum of {G}")
    correction = 0
    for o in nonidentity_orbits(G, action, wt):
        if o.weight < d:
            ord_val = zeta_ord_hook(o.element_order, Fraction(o.weight, d))
            if ord_val < 0:
                raise ValueError("zeta order hook returned a negative order")
            correction += ord_val
    return max(b_d(G, action, wt, d) - correction, 0)


def conjectured_pole_order(
    G: AbelianGroup, d: int, zeta_ord_hook=default_zeta_order_hook
) -> int:
    """Max of bbar over the sieve subgroups, each through its abstract type."""
    wt = WeightFn.disc()
    if Fraction(d) not in weight_spectrum(G, GaloisActionSpec.cyclotomic(G), wt):
        raise ValueError(f"{d} is not in the index spectrum of {G}")
    best = 0
    for H, _ in sieve_subgroups(G):
        if H.order == 1:
            continue
        index = G.order // H.order
        if d % index:
            continue
        H_abs = subgroup_invariant_factors(H)
        scaled = d // index
        spectrum = weight_spectrum(H_abs, GaloisActionSpec.cyclotomic(H_abs), wt)
        if Fraction(scaled) not in spectrum:
            continue
        best = max(best, bbar_d(H_abs, scaled, zeta_ord_hook))
    return best


def sieve_to_surjective(G: AbelianGroup, s: Fraction, p_max: int, dps: int):
    """(value, terms) with one Euler-product row per sieve subgroup.

    The subgroups come by (order, abstract type), as ``groups.sieve_terms``
    lists them.
    """
    subgroups = sorted(
        sieve_subgroups(G),
        key=lambda t: (t[0].order, subgroup_invariant_factors(t[0]).invariant_factors),
    )
    terms = []
    with mp.workdps(dps + 10):
        rows = [(histogram(H), ()) for H, _ in subgroups]
        *_, (_, _, prods) = _euler_products(G, s, p_max, rows)
        total = mp.mpf(0)
        for (H, mu), prod in zip(subgroups, prods):
            label = "+".join(str(e) for e in sorted({element_order(G, g) for g in H.elements}))
            terms.append((f"H(order={H.order};orders={label})", mu, prod))
            total += mu * prod
    return total, tuple(terms)


def residue_main_term(G: AbelianGroup, p_max: int, dps: int):
    """((mark, leading coefficient), ...) with one row per sieve subgroup."""
    orbs = _disc_orbits(G)
    a = int(min(o.weight for o in orbs))
    b = sum(1 for o in orbs if o.weight == a)
    with mp.workdps(dps + 10):
        rows, weights = [], []
        for H, mu in sieve_subgroups(G):
            orbits_in = [o for o in orbs if o.representative in H.elements]
            if sum(1 for o in orbits_in if o.weight == a) < b:
                continue
            zeta_part = mp.mpf(1)
            for o in orbits_in:
                if o.weight == a:
                    zeta_part *= dedekind_zeta_residue(o.element_order) / a
                else:
                    zeta_part *= dedekind_zeta_value(o.element_order, Fraction(int(o.weight), a))
            orbit_entries = tuple((o.element_order, int(o.weight)) for o in orbits_in)
            rows.append((histogram(H), orbit_entries))
            weights.append((mu, zeta_part))
        return tuple(
            (mark, mp.fsum(mu * z * prod for (mu, z), prod in zip(weights, prods))
             * a / math.factorial(b - 1))
            for mark, _, prods in _euler_products(G, Fraction(1, a), p_max, rows)
        )


def nonvanishing_limit(G: AbelianGroup, d: int, p_max: int, dps: int):
    """((mark, value), ...) with one row per sieve subgroup."""
    case = nonvanishing_case(G, d)
    orbs = _disc_orbits(G)
    a = int(min(o.weight for o in orbs))
    entries = tuple((o.element_order, int(o.weight)) for o in orbs)
    if case == "case_iv":
        parts = [(((full_subgroup(G), 1),), 0, d)]
    elif case == "case_iii":
        two = frozenset(g for g in G.elements() if G.scale(2, g) == G.identity)
        parts = [
            (tuple(t for t in sieve_subgroups(G) if two <= t[0].elements), 0, d),
            (tuple(t for t in sieve_subgroups(G) if not two <= t[0].elements), a, d),
        ]
    else:
        parts = [(sieve_subgroups(G), 0, d)]
    rows, weights = [], []
    for j, (subgroups, lower, upper) in enumerate(parts):
        corrections = tuple(e for e in entries if lower < e[1] < upper)
        rows += [(histogram(H), corrections) for H, _ in subgroups]
        weights += [(j, mu) for _, mu in subgroups]
    with mp.workdps(dps + 10):
        out = []
        for mark, _, prods in _euler_products(G, Fraction(1, d), p_max, rows):
            sums = [
                mp.fsum(mu * prod for (part, mu), prod in zip(weights, prods) if part == j)
                for j in range(len(parts))
            ]
            if case == "case_iii":
                sums = [mp.zeta(mp.mpf(a) / d) * sums[0] + sums[1]]
            out.append((mark, sums[0]))
        return tuple(out)

