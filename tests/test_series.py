import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from conftest import all_abelian_groups
from malle_lab.groups import (
    element_order,
    full_subgroup,
    make_group,
    moebius_subgroup,
    span,
    subgroup_lattice,
)
from malle_lab.invariants import GaloisActionSpec, WeightFn, b_d, weight_spectrum
from malle_lab.series import (
    DivergenceError,
    UnsupportedCaseError,
    euler_product_truncated,
    local_factor,
    nonvanishing_limit,
    residue_main_term,
    restricted_local_factor,
    series_coefficients,
    sieve_to_surjective,
    zeta_factorization,
    zeta_local_data,
)
from malle_lab.numerics import factorize, primes_up_to

DISC = WeightFn.disc()


class TestLocalFactorExamples:
    def test_c3_split_prime(self):
        assert local_factor(make_group([3]), 7).terms == ((2, 2),)

    def test_c3_inert_prime(self):
        assert local_factor(make_group([3]), 5).terms == ()

    def test_c3_wild(self):
        assert local_factor(make_group([3]), 3).terms == ((2, 4),)

    def test_c2_at_two(self):
        assert local_factor(make_group([2]), 2).terms == ((1, 2), (2, 3))

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            local_factor(make_group([3]), 6)

    def test_tame_coefficient_sum_counts_elements(self):
        for G in all_abelian_groups(24):
            for p in (7, 11, 13, 101):
                if G.order % p == 0:
                    continue
                lf = local_factor(G, p)
                expected = sum(
                    1
                    for g in G.elements()
                    if g != G.identity and (p - 1) % element_order(G, g) == 0
                )
                assert lf.coefficient_sum() == expected


class TestTameConsistency:
    def test_brute_force_reimplementation(self):
        # independent path: enumerate elements, filter by order dividing p-1,
        # group the exponents by hand
        groups = [G for G in all_abelian_groups(48)]
        primes = [p for p in primes_up_to(1000)]
        rng = random.Random(7)
        sample = rng.sample(primes, 40)
        for G in groups:
            n = G.order
            for p in sample:
                if n % p == 0:
                    continue
                expected: dict[int, int] = {}
                for g in G.elements():
                    if g == G.identity:
                        continue
                    o = element_order(G, g)
                    if (p - 1) % o == 0:
                        ind = n - n // o
                        expected[ind] = expected.get(ind, 0) + 1
                assert dict(
                    (a, c) for c, a in local_factor(G, p).terms
                ) == expected


class TestWildConsistency:
    def test_hom_count(self):
        # coefficient sum + 1 equals the number of continuous homs from the
        # local inertia group: #Hom(Z/(p-1), G) * #(p-power torsion), with
        # the tame part replaced by G[2] at p = 2
        for G in all_abelian_groups(48):
            for p, _ in factorize(G.order):
                lf = local_factor(G, p)
                if p == 2:
                    tame = sum(1 for g in G.elements() if G.scale(2, g) == G.identity)
                else:
                    tame = sum(
                        1 for g in G.elements() if G.scale(p - 1, g) == G.identity
                    )
                wild = sum(
                    1
                    for g in G.elements()
                    if all(q == p for q, _ in factorize(element_order(G, g)))
                )
                assert lf.coefficient_sum() + 1 == tame * wild

    def test_c4_at_two(self):
        assert local_factor(make_group([4]), 2).terms == ((1, 4), (2, 6), (4, 11))

    def test_c6_at_three(self):
        assert local_factor(make_group([6]), 3).terms == ((1, 3), (2, 8), (2, 9))


class TestZetaFactorization:
    def test_c3(self):
        assert zeta_factorization(make_group([3])).entries == ((3, 2),)

    def test_klein(self):
        fact = zeta_factorization(make_group([2, 2]))
        assert fact.entries == ((2, 2), (2, 2), (2, 2))
        assert fact.pole_order(2) == 3

    def test_c4(self):
        assert zeta_factorization(make_group([4])).entries == ((2, 2), (4, 3))

    def test_pole_orders_equal_bd(self):
        for G in all_abelian_groups(36):
            fact = zeta_factorization(G)
            act = GaloisActionSpec.cyclotomic(G)
            for d in weight_spectrum(G, act, DISC):
                assert fact.pole_order(int(d)) == b_d(G, act, DISC, d)

    def test_local_data_split_and_ramified(self):
        assert zeta_local_data(3, 7) == (1, 2)   # split
        assert zeta_local_data(3, 5) == (2, 1)   # inert
        assert zeta_local_data(3, 3) == (1, 1)   # ramified
        assert zeta_local_data(1, 11) == (1, 1)
        assert zeta_local_data(2, 2) == (1, 1)


class TestEulerProduct:
    def test_single_factor(self):
        G = make_group([3])
        state = euler_product_truncated(G, Fraction(3, 4), 2)
        with mp.workdps(30):
            assert abs(state.value - local_factor(G, 2).value(Fraction(3, 4))) < 1e-25

    def test_residual_b_mode_matches_squarefree_density(self):
        G = make_group([2])
        state = euler_product_truncated(G, 1, 10**5, mode="residual")
        assert abs(float(state.value) - 6 / math.pi**2) < 1e-3

    def test_c3_convergence(self):
        G = make_group([3])
        small = euler_product_truncated(G, Fraction(3, 4), 10**4, mode="residual")
        large = euler_product_truncated(G, Fraction(3, 4), 10**5, mode="residual")
        assert abs(float(small.value) - float(large.value)) < 1e-4

    def test_divergence_guards(self):
        G = make_group([3])
        with pytest.raises(DivergenceError):
            euler_product_truncated(G, Fraction(1, 2), 100, mode="full")
        with pytest.raises(DivergenceError):
            euler_product_truncated(G, Fraction(1, 4), 100, mode="residual")

    def test_residual_factors_near_one(self):
        # the leftover Euler factor is 1 + O(p^(-2 a sigma)) at sigma = 1/a
        for factors in ([2], [3], [4], [2, 2], [6]):
            G = make_group(factors)
            orbs = zeta_factorization(G).entries
            a = min(aa for _, aa in orbs)
            s = Fraction(1, a)
            with mp.workdps(30):
                for p in primes_up_to(300):
                    if G.order % p == 0:
                        continue
                    u = mp.power(mp.root(p, s.denominator), -s.numerator)
                    factor = local_factor(G, p).value(s)
                    for m_o, ind_o in orbs:
                        f_p, g_p = zeta_local_data(m_o, p)
                        factor *= (1 - u ** (ind_o * f_p)) ** g_p
                    assert abs(factor - 1) < 60 / p**2


class TestSieve:
    def test_c2_full_minus_one(self):
        G = make_group([2])
        value, terms = sieve_to_surjective(G, Fraction(3, 2), 500)
        full = euler_product_truncated(G, Fraction(3, 2), 500).value
        with mp.workdps(30):
            assert abs(value - (full - 1)) < 1e-20

    def test_c4_drops_trivial_subgroup(self):
        G = make_group([4])
        s = Fraction(3, 5)
        value, terms = sieve_to_surjective(G, s, 300)
        assert len(terms) == 2  # mu vanishes below the Frattini subgroup
        full = euler_product_truncated(G, s, 300).value
        lattice = subgroup_lattice(G)
        c2 = next(H for H in lattice if H.order == 2)
        with mp.workdps(30):
            restricted = mp.mpf(1)
            for p in primes_up_to(300):
                restricted *= restricted_local_factor(G, c2, p).value(s)
            assert abs(value - (full - restricted)) < 1e-18


class TestCoefficients:
    def test_hom_series_constant_term(self):
        for factors in ([2], [4], [2, 2]):
            assert series_coefficients(make_group(factors), 10)[1] == 1

    def test_c2_at_eight(self):
        assert series_coefficients(make_group([2]), 10, surjective=True)[8] == 2

    def test_c3_at_fortynine(self):
        coeffs = series_coefficients(make_group([3]), 100, surjective=True)
        assert coeffs[49] == 2
        assert coeffs[81] == 2
        assert 48 not in coeffs

    def test_surjective_drops_identity(self):
        coeffs = series_coefficients(make_group([6]), 10**3, surjective=True)
        assert 1 not in coeffs

    def test_cap(self):
        from malle_lab.groups import GroupTooLargeError

        with pytest.raises(GroupTooLargeError):
            series_coefficients(make_group([2]), 10**7)


class TestMoebiusSieveIdentity:
    def _brute_sides(self, G, primes, rng):
        lattice = subgroup_lattice(G)
        mu = {H.elements: moebius_subgroup(H, G) for H in lattice}
        fvals = {
            (H.elements, p): rng.uniform(0.0, 0.5) for H in lattice for p in primes
        }
        top = full_subgroup(G)
        lhs = 0.0
        for Z in lattice:
            prod = 1.0
            for p in primes:
                prod *= 1.0 + sum(
                    fvals[(Y.elements, p)]
                    for Y in lattice
                    if Y.elements <= Z.elements
                )
            lhs += mu[Z.elements] * prod
        # right side: joins over squarefree supported tuples, via a DP over
        # primes with the running join as state
        states = {H.elements: 0.0 for H in lattice}
        empty = "empty"
        dp = {empty: 1.0}
        for p in primes:
            new = dict(dp)
            for state, weight in dp.items():
                for Y in lattice:
                    contrib = weight * fvals[(Y.elements, p)]
                    if state == empty:
                        joined = Y.elements
                    else:
                        joined = span(
                            G, tuple(state) + tuple(Y.elements)
                        ).elements
                    new[joined] = new.get(joined, 0.0) + contrib
            dp = new
        mu_sum = sum(mu[Z.elements] for Z in lattice)
        rhs = mu_sum + dp.get(top.elements, 0.0)
        return lhs, rhs

    @pytest.mark.parametrize("factors", [[12], [2, 4]])
    def test_identity(self, factors):
        G = make_group(factors)
        primes = primes_up_to(50)
        rng = random.Random(123)
        for _ in range(100):
            lhs, rhs = self._brute_sides(G, primes, rng)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestMainTerm:
    def test_c2_shape(self):
        est = residue_main_term(make_group([2]), 10**4)
        assert est.exponent == 1
        assert est.log_power == 0
        assert abs(float(est.leading) - 6 / math.pi**2) < 1e-3

    def test_klein_log_power(self):
        est = residue_main_term(make_group([2, 2]), 10**3)
        assert est.exponent == Fraction(1, 2)
        assert est.log_power == 2

    def test_c3_exponent(self):
        est = residue_main_term(make_group([3]), 10**4)
        assert est.exponent == Fraction(1, 2)
        assert est.log_power == 0


class TestNonvanishing:
    def test_c4_positive(self):
        rep = nonvanishing_limit(make_group([4]), 3, 3000)
        assert rep.case == "case_ii"
        assert rep.sign == 1 and rep.sign_stable

    def test_c2_main_term_positive(self):
        rep = nonvanishing_limit(make_group([2]), 1, 2000)
        assert rep.case == "case_i"
        assert rep.sign == 1

    def test_c6_negative(self):
        rep = nonvanishing_limit(make_group([6]), 4, 3000)
        assert rep.case == "case_iii"
        assert rep.sign == -1 and rep.sign_stable

    def test_c6_generator_case(self):
        rep = nonvanishing_limit(make_group([6]), 5, 2000)
        assert rep.case == "case_iv"
        assert rep.sign != 0

    def test_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            nonvanishing_limit(make_group([15]), 12, 100)


def _digits(points):
    return [(p, mp.nstr(v, 30)) for p, v in points]


class TestPinnedDigits:
    """Printed digits at 50-digit precision, fixed so that a rewrite of the
    prime loops cannot move any of them."""

    def test_c3_residual_product(self):
        state = euler_product_truncated(
            make_group([3]), Fraction(3, 4), 2000, "residual", dps=50
        )
        assert mp.nstr(state.value, 30) == "0.744174289975863758886889600774"
        assert _digits(state.checkpoints) == [
            (23, "0.744426934933551653335508800287"),
            (211, "0.744176843787475715697492682231"),
            (2000, "0.744174289975863758886889600774"),
        ]
        assert _digits(state.factor_log) == [
            (2, "0.875"),
            (3, "0.867368422141985837397959078586"),
            (5, "0.992"),
            (7, "0.991568483526038506644910051259"),
            (11, "0.999248685199098422238918106687"),
            (13, "0.998653923188831806628690113852"),
            (17, "0.999796458375737838387950335844"),
            (19, "0.999566139236713508364206953746"),
            (23, "0.999917810470946001479411522972"),
            (29, "0.999958997908893353561031612612"),
            (31, "0.999899687403539338628792877544"),
            (37, "0.999940948935536813920777235129"),
            (41, "0.99998549063420437892659711844"),
            (43, "0.999962356685030999233161762609"),
            (47, "0.999990368222840796355335522957"),
            (53, "0.99999328304573574158533554545"),
            (59, "0.999995130953018565676140209077"),
            (61, "0.999986801529337211498524889063"),
            (67, "0.999990037494136862788449678025"),
            (71, "0.999997206009315164943240079238"),
            (73, "0.999992296497599777122150906702"),
            (79, "0.999993921065724617753805980916"),
            (83, "0.999998251096999407121882799014"),
            (89, "0.999998581497909837170145070209"),
            (97, "0.999996715245764088231144774527"),
        ]

    def test_c4_full_product(self):
        state = euler_product_truncated(make_group([4]), Fraction(3, 2), 30, dps=50)
        assert mp.nstr(state.value, 30) == "1.07224584292580226546549661547"
        assert _digits(state.checkpoints) == [
            (2, "1.01957440837287515548854985622"),
            (3, "1.05733642349779645754368133238"),
            (30, "1.07224584292580226546549661547"),
        ]
        assert _digits(state.factor_log) == [
            (2, "1.01957440837287515548854985622"),
            (3, "1.03703703703703703703703703704"),
            (5, "1.00943108350559986540570187115"),
            (7, "1.00291545189504373177842565598"),
            (11, "1.00075131480090157776108189331"),
            (13, "1.00047458773138984031098415118"),
            (17, "1.0002093494001517302947406977"),
            (19, "1.00014579384749963551538125091"),
            (23, "1.00008218952905399852058847703"),
            (29, "1.00004152718746347505973763349"),
        ]

    def test_klein_sieve(self):
        value, terms = sieve_to_surjective(make_group([2, 2]), Fraction(3, 2), 500, dps=50)
        assert mp.nstr(value, 30) == "0.0109006925122641950391069719988"
        c2 = ("H(order=2;orders=1+2)", -1, "1.07079292857390929723319735056")
        assert [(label, mu, mp.nstr(v, 30)) for label, mu, v in terms] == [
            ("H(order=1;orders=1)", 2, "1.0"),
            c2,
            c2,
            c2,
            ("H(order=4;orders=1+2)", 1, "1.22327947823399208673869902369"),
        ]

    def test_c2_residue(self):
        est = residue_main_term(make_group([2]), 10**4, dps=50)
        assert _digits(est.checkpoints) == [
            (100, "0.608974022064020188426251301322"),
            (1000, "0.60800371009990369352745741945"),
            (10000, "0.607933069114055130183804996711"),
        ]

    def test_nonvanishing_c6_case_iii(self):
        rep = nonvanishing_limit(make_group([6]), 4, 3000, dps=50)
        assert _digits(rep.checkpoints) == [
            (30, "-3.64301298417476430714572629504"),
            (300, "-7.52291888554893349627109099392"),
            (3000, "-11.7556357496145881510576465781"),
        ]

    def test_nonvanishing_c4(self):
        rep = nonvanishing_limit(make_group([4]), 3, 3000, dps=50)
        assert _digits(rep.checkpoints) == [
            (30, "0.3788440558490390740574285379"),
            (300, "0.696795693738653184880627445132"),
            (3000, "1.05273040969667469897700815512"),
        ]
