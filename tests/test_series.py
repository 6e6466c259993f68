import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import constants_reference
import sieve_reference
from conftest import all_abelian_groups
from lattice_bfs import full_subgroup, histogram, moebius_subgroup, span, subgroup_lattice
from malle_lab.groups import (
    BudgetExceededError,
    element_order,
    element_orders,
    make_group,
    sieve_terms,
    sieve_types,
)
from malle_lab import series
from malle_lab.invariants import GaloisActionSpec, WeightFn, b_d, weight_spectrum
from malle_lab.lvalues import dedekind_zeta_residue
from malle_lab.series import (
    DivergenceError,
    UnsupportedCaseError,
    _euler_products,
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


def _local_terms_by_characters(G, H, p):
    """Reference: local factor terms at p | |G| by summing conductor exponents
    over every character of G, for every (tame, wild) inertia pair in H.

    A character is an exponent tuple k with psi(g) = exp(2 pi i sum k_i g_i / d_i).
    """

    def angle(psi, g):
        return sum(Fraction(k * x, d) for k, x, d in zip(psi, g, G.invariant_factors)) % 1

    def is_p_power(g):
        o = element_order(G, g)
        while o % p == 0:
            o //= p
        return o == 1

    elems = sorted(H.elements)
    tame = [g for g in elems if G.scale(2 if p == 2 else p - 1, g) == G.identity]
    wild = [g for g in elems if is_p_power(g)]
    c = 2 if p == 2 else 1
    by_exp: dict[int, int] = {}
    for t in tame:
        for w in wild:
            if t == G.identity and w == G.identity:
                continue
            exponent = 0
            for psi in G.elements():
                wild_angle = angle(psi, w)
                if wild_angle != 0:
                    j, v = wild_angle.denominator, 0
                    while j % p == 0:
                        j //= p
                        v += 1
                    exponent += v + c
                elif angle(psi, t) != 0:
                    exponent += c
            by_exp[exponent] = by_exp.get(exponent, 0) + 1
    return tuple(sorted((k, a) for a, k in by_exp.items()))


class TestClosedFormAgainstCharacters:
    def test_local_factor(self):
        for G in all_abelian_groups(32):
            for p, _ in factorize(G.order):
                expected = _local_terms_by_characters(G, full_subgroup(G), p)
                assert local_factor(G, p).terms == expected, (str(G), p)

    def test_restricted_to_sieve_subgroups(self):
        for G in all_abelian_groups(16):
            for H, _ in sieve_reference.sieve_subgroups(G):
                for p, _ in factorize(G.order):
                    expected = _local_terms_by_characters(G, H, p)
                    terms = restricted_local_factor(G, histogram(H), p).terms
                    assert terms == expected, (str(G), p)


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

    def test_prime_bound_below_two(self):
        G = make_group([2])
        for p_max in (1, 0, -5):
            with pytest.raises(ValueError, match="at least 2"):
                euler_product_truncated(G, 2, p_max)
            with pytest.raises(ValueError, match="at least 2"):
                residue_main_term(G, p_max)
            with pytest.raises(ValueError, match="at least 2"):
                nonvanishing_limit(G, 1, p_max)
            with pytest.raises(ValueError, match="at least 2"):
                sieve_to_surjective(G, 2, p_max)

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

    def test_class_kernel_matches_per_prime_product(self):
        # the kernel builds one polynomial per class of primes; the reference
        # multiplies each prime's own local factor and zeta corrections
        p_max = 600  # includes p = 2 and every p | |G|
        for factors in ([3], [4], [6], [2, 2], [2, 4], [2, 2, 2]):
            G = make_group(factors)
            entries = zeta_factorization(G).entries
            a = min(ind for _, ind in entries)
            rows = [
                (element_orders(H), corrections)
                for H, _ in sieve_terms(G)
                for corrections in ((), entries)
            ]
            for s in (Fraction(1, a), Fraction(3, 4 * a)):
                with mp.workdps(60):
                    *_, (_, _, prods) = _euler_products(G, s, p_max, rows)
                    for (orders, corrections), prod in zip(rows, prods):
                        expected = mp.mpf(1)
                        for p in primes_up_to(p_max):
                            u = mp.power(mp.root(p, s.denominator), -s.numerator)
                            factor = restricted_local_factor(G, orders, p).value(s)
                            for m, ind in corrections:
                                f_p, g_p = zeta_local_data(m, p)
                                factor *= (1 - u ** (ind * f_p)) ** g_p
                            expected *= factor
                        assert abs(prod / expected - 1) < mp.mpf("1e-45"), (str(G), s, orders)

    def test_prime_bound_above_the_cap(self, monkeypatch):
        def no_sieve(n):
            raise AssertionError("the primes were sieved before the cap was checked")

        monkeypatch.setattr(series, "primes_up_to", no_sieve)
        G, p_max = make_group([2]), series.EULER_PRIME_CAP + 1
        for call in (
            lambda: euler_product_truncated(G, 2, p_max),
            lambda: residue_main_term(G, p_max),
            lambda: nonvanishing_limit(G, 1, p_max),
            lambda: sieve_to_surjective(G, 2, p_max),
        ):
            with pytest.raises(BudgetExceededError, match="prime bound"):
                call()

    def test_caches_hold_one_entry_per_row_and_class(self):
        cases = (
            (make_group([2]), 20000, lambda G, p_max: residue_main_term(G, p_max)),
            (make_group([2, 2, 4]), 2000,
             lambda G, p_max: sieve_to_surjective(G, Fraction(1, 5), p_max)),
        )
        for G, p_max, run in cases:
            restricted_local_factor.cache_clear()
            zeta_local_data.cache_clear()
            run(G, p_max)
            classes = {p % G.exponent for p in primes_up_to(p_max)}
            bound = len(sieve_types(G)) * len(classes)
            assert restricted_local_factor.cache_info().currsize <= bound
            assert zeta_local_data.cache_info().currsize <= bound


def _per_prime_products(G, rows, s, p_max):
    """Each row's product as the mpf product of its per-prime factors."""
    out = []
    for orders, corrections in rows:
        prod = mp.mpf(1)
        for p in primes_up_to(p_max):
            u = mp.power(mp.root(p, s.denominator), -s.numerator)
            factor = restricted_local_factor(G, orders, p).value(s)
            for m, ind in corrections:
                f_p, g_p = zeta_local_data(m, p)
                factor *= (1 - u ** (ind * f_p)) ** g_p
            prod *= factor
        out.append(prod)
    return out


class TestFixedPointKernel:
    """The fixed-point prime loop against the per-prime mpf product at 30 more
    digits, within the relative rounding bound the loop states for each row."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 16])  # isqrt, Newton and q = 1
    @pytest.mark.parametrize("dps", [15, 50, 100])
    def test_within_the_stated_bound(self, dps, q):
        G, p_max, s = make_group([6]), 300, Fraction(1, q)
        orders, entries = element_orders(G), zeta_factorization(G).entries
        with mp.workdps(30):  # enough copies of 1/zeta(s) to fall below 1e-10 at p = 2
            at_two, copies = restricted_local_factor(G, orders, 2).value(s), 0
            while at_two >= 1e-10:
                at_two, copies = at_two * (1 - mp.mpf(2) ** -s), copies + 1
        rows = [
            (orders, ()),  # grows to about 3e17 at q = 16
            (orders, entries),  # the residual product
            (orders, ((1, 1),) * 6),  # shrinks over the primes
            (orders, ((1, 1),) * copies),  # below 1e-10 from p = 2 on
        ]
        with mp.workdps(dps):
            prec, bounds = mp.prec, []
            marks = list(_euler_products(G, s, p_max, rows, bounds=bounds))
        with mp.workdps(dps + 30):
            for (mark, p, prods), bound_row in zip(marks, bounds):
                refs = _per_prime_products(G, rows, s, p or mark)
                for i, (prod, ref, bound) in enumerate(zip(prods, refs, bound_row)):
                    assert abs(prod / ref - 1) <= bound, (p, i)
            # the guard bits keep the loop's own rounding far below mp.prec
            # on the rows without expanded powers of 1/zeta
            assert all(b <= 2 * mp.mpf(2) ** -prec for b in bounds[-1][:2])


# C4, C6 and C3xC6 add nonvanishing cases ii, iii and iv to the case i of the rest
FOLDED_GROUPS = ([2, 2, 2], [2, 2, 2, 2], [2, 2, 4], [2, 4], [3, 3], [2, 6], [4], [6], [3, 6])


def _close(value, reference):
    return abs(value - reference) <= mp.mpf("1e-40") * max(1, abs(reference))


class TestSieve:
    def test_trivial_group_rejected(self):
        G = make_group([])
        with pytest.raises(ValueError, match="trivial group"):
            sieve_to_surjective(G, 2, 10)
        with pytest.raises(ValueError, match="trivial group"):
            residue_main_term(G, 10)
        with pytest.raises(ValueError, match="trivial group"):
            nonvanishing_limit(G, 1, 10)

    @pytest.mark.parametrize("factors", FOLDED_GROUPS, ids=str)
    def test_folded_rows_match_per_subgroup_reference(self, factors):
        # one Euler row per sieve type against one row per sieve subgroup
        G = make_group(factors)
        dps, p_max = 50, 300
        a = min(ind for _, ind in zeta_factorization(G).entries)
        s = Fraction(3, 2 * a)
        value, terms = sieve_to_surjective(G, s, p_max)
        ref_value, ref_terms = sieve_reference.sieve_to_surjective(G, s, p_max, dps)
        with mp.workdps(dps):
            assert _close(value, ref_value)
            assert [t[:2] for t in terms] == [t[:2] for t in ref_terms]
            assert all(_close(t[2], r[2]) for t, r in zip(terms, ref_terms))
            est = residue_main_term(G, p_max)
            ref = sieve_reference.residue_main_term(G, p_max, dps)
            assert [m for m, _ in est.checkpoints] == [m for m, _ in ref]
            assert all(_close(v, r) for (_, v), (_, r) in zip(est.checkpoints, ref))
            for d in sorted({ind for _, ind in zeta_factorization(G).entries}):
                try:
                    rep = nonvanishing_limit(G, d, p_max)
                except UnsupportedCaseError:
                    continue
                ref = sieve_reference.nonvanishing_limit(G, d, p_max, dps)
                assert [m for m, _ in rep.checkpoints] == [m for m, _ in ref]
                assert all(_close(v, r) for (_, v), (_, r) in zip(rep.checkpoints, ref)), d

    @pytest.mark.parametrize("factors,s,p_max", [
        ([2, 2, 2, 2], Fraction(1, 7), 3),
        ([2, 2, 2], Fraction(1, 3), 2),
    ])
    def test_exact_zero_sum(self, factors, s, p_max):
        # no C2^4 (C2^3) extension is ramified at 2 and 3 (at 2) alone: the
        # sum printed rounding noise near 1e-59 instead of 0
        value, _ = sieve_to_surjective(make_group(factors), s, p_max)
        assert value == 0
        assert mp.nstr(value, 30) == "0.0"

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
                restricted *= restricted_local_factor(G, histogram(c2), p).value(s)
            assert abs(value - (full - restricted)) < 1e-18


def _reference_coefficients(G, n_max, surjective=False):
    """Coefficients by the snapshot algorithm: for each usable prime p, in
    ascending order, every term c p^(-a s) multiplies a snapshot of every
    coefficient found so far; one run per sieve row, Moebius-weighted."""

    def factor_terms(H):
        orders = [element_order(G, g) for g in H.elements if g != G.identity]
        if not orders:
            return {}
        min_ind = min(G.order - G.order // o for o in orders)
        wild = [p for p, _ in factorize(G.order)]
        out = {}
        for p in primes_up_to(n_max):
            if p not in wild and p**min_ind > n_max:
                continue
            terms = tuple(
                (c, a)
                for c, a in restricted_local_factor(G, histogram(H), p).terms
                if p**a <= n_max
            )
            if terms:
                out[p] = terms
        return out

    def coefficients(factors):
        coeffs = {1: 1}
        for p, terms in sorted(factors.items()):
            snapshot = list(coeffs.items())
            for c, a in terms:
                pa = p**a
                for n, v in snapshot:
                    if n * pa <= n_max:
                        coeffs[n * pa] = coeffs.get(n * pa, 0) + c * v
        return coeffs

    if not surjective:
        return coefficients(factor_terms(full_subgroup(G)))
    total = {}
    for H, mu in sieve_reference.sieve_subgroups(G):
        for n, v in coefficients(factor_terms(H)).items():
            total[n] = total.get(n, 0) + mu * v
    return {n: v for n, v in total.items() if v}


REFERENCE_GROUPS = (
    [2], [3], [4], [6], [8], [9], [12], [2, 2], [2, 4], [2, 6], [3, 3], [2, 2, 2]
)


class TestCoefficients:
    @pytest.mark.parametrize("surjective", [False, True])
    @pytest.mark.parametrize("n_max", [1, 2, 97, 1000, 4096])  # 4096 = 2^12
    @pytest.mark.parametrize("factors", REFERENCE_GROUPS, ids=str)
    def test_matches_snapshot_reference(self, factors, n_max, surjective):
        G = make_group(factors)
        expected = _reference_coefficients(G, n_max, surjective)
        assert series_coefficients(G, n_max, surjective) == expected

    def test_terms_start_at_the_least_index(self):
        # the kernel uses only the primes up to the min_ind-th root of n_max,
        # wild primes included: no local term has a smaller exponent
        for G in all_abelian_groups(48):
            for H, _ in sieve_reference.sieve_subgroups(G):
                orders = [element_order(G, g) for g in H.elements if g != G.identity]
                if not orders:
                    continue
                min_ind = min(G.order - G.order // o for o in orders)
                wild = [p for p, _ in factorize(G.order)]
                for p in set(wild) | {2, 3, 5, 7, 13, 37, 73}:
                    terms = restricted_local_factor(G, histogram(H), p).terms
                    assert all(a >= min_ind for _, a in terms), (str(G), H.order, p)

    def test_one_pass_per_element_order_histogram(self, monkeypatch):
        passes = []
        kernel = series._add_coefficients

        def counted(total, G, H, mu, primes):
            passes.append(H)
            kernel(total, G, H, mu, primes)

        monkeypatch.setattr(series, "_add_coefficients", counted)
        C2_4 = make_group([2, 2, 2, 2])
        coeffs = series_coefficients(C2_4, 10**4, surjective=True)
        assert len(sieve_terms(C2_4)) == 67
        assert 0 < len(passes) <= 5  # one per subgroup order
        assert coeffs == _reference_coefficients(C2_4, 10**4, surjective=True)
        passes.clear()
        # every prime power with a term exceeds 200000, and the Moebius
        # weights over the sieve rows sum to zero
        assert series_coefficients(make_group([2] * 5), 200_000, surjective=True) == {}
        assert len(passes) <= 6

    def test_bound_below_one(self):
        with pytest.raises(ValueError):
            series_coefficients(make_group([2]), 0)

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
        with pytest.raises(BudgetExceededError):
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

    def test_prime_cyclic_constants_from_conductors(self):
        # R_l from the conductors of cyclic degree-l fields shares only the
        # zeta residue with the program; the truncation at P leaves well
        # under 1/P, relative (0.15/P to 0.39/P measured)
        assert abs(constants_reference.cohn_c3() / constants_reference.conductor_constant(3) - 1) < 1e-6
        for l in (3, 5, 7):
            R = constants_reference.conductor_constant(l)
            for p_max in (10**4, 10**5):
                leading = float(residue_main_term(make_group([l]), p_max).leading)
                assert abs(leading - R) < R / p_max, (l, p_max)

    def test_no_digits_no_zero(self, monkeypatch):
        # the 127 corrections (1 - u^64) of C2^7 leave each row a relative
        # bound of 1.35e+11 at 50 digits: the sums within it have no digits,
        # and reading them as 0 printed a leading 0.0
        G = make_group([2] * 7)
        monkeypatch.delenv("MALLE_LAB_PRECISION", raising=False)
        with pytest.raises(BudgetExceededError, match=r"bound of 1.35e\+11 at p <= 3 with 60 working"):
            residue_main_term(G, 300)
        monkeypatch.setenv("MALLE_LAB_PRECISION", "120")
        assert mp.nstr(residue_main_term(G, 300).leading, 15) == "4.14954844695731e-539"


class TestPrecisionVariable:
    def test_governs_every_evaluator_within_one_process(self, monkeypatch):
        values = []
        for digits in ("30", "80"):
            monkeypatch.setenv("MALLE_LAB_PRECISION", digits)
            est = residue_main_term(make_group([3]), 2000)
            values.append((dedekind_zeta_residue(3), est.leading))
        for low, high in zip(*values):
            assert abs(low - high) < mp.mpf(10) ** -25 * abs(high)
            assert low != high  # a stale 30-digit cache entry would give the same mpf


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

    @pytest.mark.parametrize("factors,d", [([4, 4], 12), ([4, 8], 24)])
    def test_one_zeta_factor_per_orbit(self, factors, d):
        # three order-2 orbits of index below d: dividing each of their zeta
        # factors out b_ind times instead of once drove these toward 1e-14
        rep = nonvanishing_limit(make_group(factors), d, 2000)
        assert rep.case == "case_ii"
        assert all(v > 1e-3 for _, v in rep.checkpoints)

    def test_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            nonvanishing_limit(make_group([15]), 12, 100)

    @pytest.mark.parametrize("p_max", [200, 300])
    @pytest.mark.parametrize("order", ["as built", "reversed", "shuffled"])
    def test_exact_zero_checkpoint(self, monkeypatch, p_max, order):
        # no C8xC8 extension is ramified at 2 and 3 alone, so the sieve over
        # p <= 3 is exactly 0 whatever order its rows are summed in
        built = sieve_types

        def reordered(G):
            types = list(built(G))
            if order == "reversed":
                types.reverse()
            elif order == "shuffled":
                random.Random(7).shuffle(types)
            return tuple(types)

        monkeypatch.setattr(series, "sieve_types", reordered)
        rep = nonvanishing_limit(make_group([8, 8]), 32, p_max)
        assert rep.checkpoints[0][1] == 0
        assert rep.as_dict()["checkpoints"][0][1] == "0.0"
        assert rep.sign_stable is False


def _digits(points):
    return [(p, mp.nstr(v, 30)) for p, v in points]


class TestPinnedDigits:
    """Printed digits at 50-digit precision, fixed so that a rewrite of the
    prime loops cannot move any of them."""

    def test_c3_residual_product(self):
        state = euler_product_truncated(
            make_group([3]), Fraction(3, 4), 2000, "residual"
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
        state = euler_product_truncated(make_group([4]), Fraction(3, 2), 30)
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
        value, terms = sieve_to_surjective(make_group([2, 2]), Fraction(3, 2), 500)
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
        est = residue_main_term(make_group([2]), 10**4)
        assert _digits(est.checkpoints) == [
            (100, "0.608974022064020188426251301322"),
            (1000, "0.60800371009990369352745741945"),
            (10000, "0.607933069114055130183804996711"),
        ]

    def test_nonvanishing_c6_case_iii(self):
        rep = nonvanishing_limit(make_group([6]), 4, 3000)
        assert _digits(rep.checkpoints) == [
            (30, "-3.64301298417476430714572629504"),
            (300, "-7.52291888554893349627109099392"),
            (3000, "-11.7556357496145881510576465781"),
        ]

    def test_nonvanishing_c4(self):
        rep = nonvanishing_limit(make_group([4]), 3, 3000)
        assert _digits(rep.checkpoints) == [
            (30, "0.3788440558490390740574285379"),
            (300, "0.696795693738653184880627445132"),
            (3000, "1.05273040969667469897700815512"),
        ]
