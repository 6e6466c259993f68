import math
from collections import Counter
from fractions import Fraction

import pytest

import sieve_reference
from conftest import all_abelian_groups
from lattice_bfs import frattini
from malle_lab.groups import element_order, element_orders, make_group
from malle_lab.invariants import (
    GaloisActionSpec,
    InvarianceViolation,
    WeightFn,
    a_invariant,
    b_d,
    bbar_d,
    conjectured_pole_order,
    cyclic_group,
    cyclotomic_orbits,
    default_zeta_order_hook,
    index_of,
    invariant_summary,
    nonidentity_orbits,
    nonvanishing_case,
    orbits,
    weight_spectrum,
)
from malle_lab.numerics import euler_phi, smallest_prime_factor

DISC = WeightFn.disc()


class TestIndex:
    def test_identity(self):
        for G in (make_group([5]), make_group([2, 4])):
            assert index_of(G, G.identity) == 0

    def test_order_two_in_c6(self):
        G = make_group([6])
        assert index_of(G, (3,)) == 3

    def test_c9_order_three(self):
        assert index_of(make_group([9]), (3,)) == 6

    def test_invariant_under_invertible_powers(self):
        for G in all_abelian_groups(30):
            for g in G.elements():
                o = element_order(G, g)
                for u in range(1, o + 1):
                    if math.gcd(u, o) == 1:
                        assert index_of(G, G.scale(u, g)) == index_of(G, g)


class TestActions:
    def test_cyclotomic_closure_is_all_units(self):
        G = make_group([9])
        action = GaloisActionSpec.cyclotomic(G)
        assert action.orbit_of((1,)) == {(u,) for u in range(1, 9) if math.gcd(u, 9) == 1}

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            GaloisActionSpec.from_units(make_group([6]), [2])

    def test_twisted_action_with_automorphism_part(self):
        # conjugation-style twist on C_2 x C_2: swap the two coordinates;
        # the three involutions fall into orbits {(1,0),(0,1)} and {(1,1)}
        G = make_group([2, 2])
        swap = ((0, 1), (1, 0))
        action = GaloisActionSpec(G, ((swap, 1),))
        orbs = nonidentity_orbits(G, action, DISC)
        assert sorted(o.size for o in orbs) == [1, 2]
        assert b_d(G, action, DISC, 2) == 2

    def test_twisted_theta_uses_orbit_sizes(self):
        from malle_lab.theta import SubconvexityModel, theta_best

        G = make_group([2, 2])
        swap = ((0, 1), (1, 0))
        twisted = GaloisActionSpec(G, ((swap, 1),))
        plain = GaloisActionSpec.cyclotomic(G)
        bt = theta_best(G, twisted, DISC, SubconvexityModel.soehne()).bound
        bp = theta_best(G, plain, DISC, SubconvexityModel.soehne()).bound
        # same element-level data, so the unconditional bound is unchanged
        assert bt == bp


class TestOrbits:
    def test_klein_four(self):
        G = make_group([2, 2])
        orbs = orbits(G, GaloisActionSpec.cyclotomic(G), DISC)
        assert len(orbs) == 4
        nontrivial = [o for o in orbs if o.weight != 0]
        assert all(o.size == 1 and o.weight == 2 for o in nontrivial)

    def test_c9(self):
        G = make_group([9])
        orbs = nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), DISC)
        assert [(o.size, int(o.weight), o.element_order) for o in orbs] == [
            (2, 6, 3),
            (6, 8, 9),
        ]

    def test_trivial_action_gives_singletons(self):
        G = make_group([3])
        orbs = orbits(G, GaloisActionSpec.from_units(G, [1]), DISC)
        assert len(orbs) == 3

    def test_orbit_sizes_phi_of_order(self):
        for G in all_abelian_groups(40) + [make_group([n]) for n in (60, 128, 200)]:
            for o in nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), DISC):
                assert o.size == euler_phi(o.element_order)

    def test_counted_orbits_match_enumerated(self):
        # the counted form reads the orbits off the element-order histogram:
        # one (order, index, multiplicity) per order, by ascending order
        for G in all_abelian_groups(64):
            enumerated = Counter(
                (o.element_order, int(o.weight))
                for o in nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), DISC)
            )
            expected = [(e, ind, k) for (e, ind), k in sorted(enumerated.items())]
            assert list(cyclotomic_orbits(G, element_orders(G))) == expected, G

    def test_custom_weight_invariance_enforced(self):
        G = make_group([5])
        with pytest.raises(InvarianceViolation):
            WeightFn.custom(G, {(1,): 1, (2,): 2, (3,): 2, (4,): 1})

    def test_custom_weight_by_order(self):
        G = make_group([6])
        wt = WeightFn.custom(G, {2: Fraction(1), 3: 2, 6: 3})
        orbs = nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), wt)
        assert sorted(o.weight for o in orbs) == [1, 2, 3]

    def test_custom_weight_missing_entry(self):
        G = make_group([6])
        with pytest.raises(KeyError) as missing:
            WeightFn.custom(G, {2: 1, 6: 3})
        assert missing.value.args == ("custom weight table has no entry for (2,) (order 3)",)
        with pytest.raises(ValueError) as below_zero:
            WeightFn.custom(G, {2: 1, 3: -2, 6: 3})
        assert below_zero.value.args == ("weights must be nonnegative",)

    def test_custom_weight_lookup_keeps_equality(self):
        # orbits() caches on the weight: one whose lookup is built still
        # equals, and hashes as, a fresh one of the same table
        G = make_group([12])
        mapping = {2: 1, 3: 2, 4: 2, 6: 3, 12: 4}
        used = WeightFn.custom(G, mapping)
        fresh = WeightFn("custom", used.table)
        assert used == fresh and hash(used) == hash(fresh)
        spectrum = sorted(o.weight for o in nonidentity_orbits(G, GaloisActionSpec.cyclotomic(G), fresh))
        assert spectrum == [1, 2, 2, 3, 4]


class TestAInvariant:
    def test_prime_cyclic(self):
        for p in (3, 5, 7):
            G = cyclic_group(p)
            assert a_invariant(G, GaloisActionSpec.cyclotomic(G), DISC) == p - 1

    def test_even_order(self):
        for factors in ([6], [2, 4], [2, 2, 2], [10]):
            G = make_group(factors)
            assert a_invariant(G, GaloisActionSpec.cyclotomic(G), DISC) == G.order // 2

    def test_c15(self):
        G = make_group([15])
        assert a_invariant(G, GaloisActionSpec.cyclotomic(G), DISC) == 10

    def test_closed_form_small_and_sampled(self, rng):
        ns = list(range(2, 301)) + [rng.randint(301, 9999) for _ in range(40)]
        for n in ns:
            G = cyclic_group(n)
            ell = smallest_prime_factor(n)
            expected = n * (ell - 1) // ell
            assert a_invariant(G, GaloisActionSpec.cyclotomic(G), DISC) == expected

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            a_invariant(cyclic_group(1), GaloisActionSpec.trivial(cyclic_group(1)), DISC)


class TestBd:
    def test_klein_four(self):
        G = make_group([2, 2])
        assert b_d(G, GaloisActionSpec.cyclotomic(G), DISC, 2) == 3

    def test_c4(self):
        G = make_group([4])
        act = GaloisActionSpec.cyclotomic(G)
        assert b_d(G, act, DISC, 3) == 1
        assert b_d(G, act, DISC, 5) == 0

    def test_sum_over_spectrum(self):
        for G in all_abelian_groups(48):
            act = GaloisActionSpec.cyclotomic(G)
            total = sum(b_d(G, act, DISC, d) for d in weight_spectrum(G, act, DISC))
            assert total == len(nonidentity_orbits(G, act, DISC))


class TestBbar:
    def test_default_hook_equals_bd(self):
        for G in all_abelian_groups(36):
            act = GaloisActionSpec.cyclotomic(G)
            for d in weight_spectrum(G, act, DISC):
                assert bbar_d(G, int(d)) == b_d(G, act, DISC, d)

    def test_c4(self):
        assert bbar_d(make_group([4]), 3) == 1

    def test_c15_with_and_without_zero(self):
        G = make_group([15])
        assert bbar_d(G, 12) == 1

        def hook(m, x):
            return 1 if (m, x) == (3, Fraction(5, 6)) else 0

        assert bbar_d(G, 12, hook) == 0

    def test_negative_hook_rejected(self):
        with pytest.raises(ValueError):
            bbar_d(make_group([4]), 3, lambda m, x: -1)

    def test_not_in_spectrum(self):
        with pytest.raises(ValueError):
            bbar_d(make_group([4]), 5)


FORCED_ZERO_HOOKS = (
    lambda m, x: 1,  # every smaller-index orbit vanishes once
    lambda m, x: 2 if m == 2 and x >= Fraction(1, 2) else 0,
)


class TestConjecturedPoleOrder:
    def test_closed_form_matches_per_orbit_reference(self):
        hooks = (default_zeta_order_hook,) + FORCED_ZERO_HOOKS
        for G in all_abelian_groups(64):
            for d in weight_spectrum(G, GaloisActionSpec.cyclotomic(G), DISC):
                for hook in hooks:
                    expected = sieve_reference.bbar_d(G, int(d), hook)
                    assert bbar_d(G, int(d), hook) == expected, (G, d)
                    expected = sieve_reference.conjectured_pole_order(G, int(d), hook)
                    assert conjectured_pole_order(G, int(d), hook) == expected, (G, d)

    def test_negative_hook_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            conjectured_pole_order(make_group([4]), 3, lambda m, x: -1)

    def test_not_in_spectrum(self):
        with pytest.raises(ValueError):
            conjectured_pole_order(make_group([4]), 5)

    def test_c4(self):
        assert conjectured_pole_order(make_group([4]), 3) == 1

    def test_c15(self):
        assert conjectured_pole_order(make_group([15]), 12) == 1

    def test_c2(self):
        assert conjectured_pole_order(make_group([2]), 1) == 1

    def test_subgroup_dominates_under_forced_zero(self):
        # a forced zero kills the top-group count at d = 12 but the index-5
        # subgroup contribution survives through the scaled index 4
        G = make_group([15])

        def hook(m, x):
            return 1 if (m, x) == (3, Fraction(5, 6)) else 0

        assert conjectured_pole_order(G, 12, hook) == 1
        assert bbar_d(G, 12, hook) == 0


def _nonvanishing_case_by_elements(G, d):
    """Reference classifier: walks the elements of G, so |G| stays below the cap."""
    action = GaloisActionSpec.cyclotomic(G)
    if Fraction(d) not in weight_spectrum(G, action, DISC):
        raise ValueError(f"{d} is not in the index spectrum of {G}")
    n = G.order
    ell = smallest_prime_factor(n)
    if d == n - n // ell:
        return "case_i"
    phi = frattini(G).elements
    smaller = [g for g in G.elements() if g != G.identity and index_of(G, g) < d]
    if all(g in phi for g in smaller):
        return "case_ii"
    if n % 4 == 2:
        two_torsion = {g for g in G.elements() if G.scale(2, g) == G.identity}
        if all(g in phi or g in two_torsion for g in smaller):
            return "case_iii"
    if G.is_cyclic() and d == n - 1:
        return "case_iv"
    return "none"


class TestCases:
    @pytest.mark.parametrize(
        "factors,d,expected",
        [
            ([4], 2, "case_i"),
            ([4], 3, "case_ii"),
            ([6], 4, "case_iii"),
            ([6], 5, "case_iv"),
            ([9], 8, "case_ii"),
            ([15], 12, "none"),
            ([15], 14, "case_iv"),
            ([2, 2], 2, "case_i"),
            ([10], 8, "case_iii"),
        ],
    )
    def test_classification(self, factors, d, expected):
        assert nonvanishing_case(make_group(factors), d) == expected

    def test_requires_spectrum_membership(self):
        with pytest.raises(ValueError):
            nonvanishing_case(make_group([4]), 4)

    def test_matches_element_walk(self):
        pairs = 0
        for G in all_abelian_groups(64):
            for d in weight_spectrum(G, GaloisActionSpec.cyclotomic(G), DISC):
                expected = _nonvanishing_case_by_elements(G, int(d))
                assert nonvanishing_case(G, int(d)) == expected, (G, d)
                pairs += 1
        assert pairs == 377

    def test_above_enumeration_cap(self):
        # 26244 = 2^2 3^8: the orders of smaller index are 2 and 3, both of
        # which divide 26244 / rad(26244) = 4374
        assert nonvanishing_case(make_group([26244]), 19683) == "case_ii"


class TestSummary:
    def test_counted_summary_matches_enumerated_orbits(self):
        for G in all_abelian_groups(64):
            action = GaloisActionSpec.cyclotomic(G)
            for ordering, wt in (("disc", DISC), ("ram", WeightFn.ram())):
                out = invariant_summary(G, ordering)
                spectrum = weight_spectrum(G, action, wt)
                assert out["a"] == str(a_invariant(G, action, wt)), (G, ordering)
                assert out["spectrum"] == [str(d) for d in spectrum], (G, ordering)
                assert out["b"] == {str(d): b_d(G, action, wt, d) for d in spectrum}, (G, ordering)

    @pytest.mark.parametrize("units", [[], [1], [-1], [5], [7], [-1, 5], [11, 13]])
    def test_counted_unit_orbits_match_enumerated_orbits(self, units):
        # under t -> t^u the k_e elements of order e form k_e / |U mod e|
        # orbits; the reference walks every element through the action
        for G in all_abelian_groups(64):
            if any(math.gcd(u, G.exponent) != 1 for u in units):
                continue
            action = GaloisActionSpec.from_units(G, units)
            for ordering, wt in (("disc", DISC), ("ram", WeightFn.ram())):
                weights = [o.weight for o in nonidentity_orbits(G, action, wt)]
                out = invariant_summary(G, ordering, units)
                assert out["spectrum"] == [str(d) for d in sorted(set(weights))], (G, units)
                assert out["b"] == {str(d): weights.count(d) for d in set(weights)}, (G, units)
                assert out["a"] == str(min(weights))

    def test_units_must_be_units_mod_the_exponent(self):
        with pytest.raises(ValueError, match="3 is not a unit mod 6"):
            invariant_summary(make_group([2, 6]), "disc", [5, 9])
        with pytest.raises(ValueError, match="0 is not a unit mod 2"):
            invariant_summary(make_group([2, 2]), "ram", [2])

    def test_cli_payload_shape(self):
        out = invariant_summary(make_group([4]))
        assert out["a"] == "2"
        assert out["spectrum"] == ["2", "3"]
        assert out["b"] == {"2": 1, "3": 1}
        assert out["case"]["3"] == "case_ii"

    def test_ram_ordering(self):
        out = invariant_summary(make_group([2, 6]), ordering="ram")
        assert out["a"] == "1"
        assert out["spectrum"] == ["1"]
