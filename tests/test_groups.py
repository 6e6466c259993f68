import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_abelian_groups
from lattice_bfs import (
    Subgroup,
    frattini,
    full_subgroup,
    histogram,
    moebius_subgroup,
    span,
    subgroup_lattice,
    trivial_subgroup,
)
from sieve_reference import sieve_subgroups, subgroup_invariant_factors
from malle_lab.groups import (
    SIEVE_TERMS_CAP,
    AbelianGroup,
    BudgetExceededError,
    _sieve_type_counts,
    aut_order,
    element_order,
    element_orders,
    make_group,
    parse_group_literal,
    sieve_terms,
    sieve_types,
)
from malle_lab.numerics import divisors


class TestMakeGroup:
    def test_already_normalized(self):
        assert make_group([2, 2]).invariant_factors == (2, 2)

    def test_crt_merge(self):
        assert make_group([2, 3]).invariant_factors == (6,)

    def test_smith_pivot(self):
        assert make_group([4, 6]).invariant_factors == (2, 12)

    def test_trivial(self):
        assert make_group([]).invariant_factors == ()
        assert make_group([]).order == 1

    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            make_group([1, 4])
        with pytest.raises(ValueError):
            make_group([0])

    @given(st.lists(st.integers(2, 40), min_size=1, max_size=4))
    def test_divisibility_chain_and_order(self, factors):
        G = make_group(factors)
        fs = G.invariant_factors
        for a, b in zip(fs, fs[1:]):
            assert b % a == 0
        assert G.order == math.prod(factors)
        assert G.exponent == (fs[-1] if fs else 1)
        assert G.order % G.exponent == 0


class TestElements:
    def test_identity_order(self):
        G = make_group([6])
        assert element_order(G, (0,)) == 1

    def test_c6(self):
        assert element_order(make_group([6]), (3,)) == 2

    def test_c2xc12(self):
        assert element_order(make_group([2, 12]), (1, 4)) == 6

    def test_invalid_element(self):
        with pytest.raises(ValueError):
            element_order(make_group([4]), (1, 1))

    def test_counted_histogram_matches_enumeration(self):
        # G's histogram is counted from its invariant factors
        for G in all_abelian_groups(64, 1):
            assert element_orders(G) == histogram(full_subgroup(G)), G


class TestSubgroups:
    @pytest.mark.parametrize("n", [4, 6, 12, 30, 36, 100])
    def test_cyclic_counts_match_divisors(self, n):
        assert len(subgroup_lattice(make_group([n]))) == len(divisors(n))

    def test_klein_four(self):
        assert len(subgroup_lattice(make_group([2, 2]))) == 5

    def test_c2xc4(self):
        assert len(subgroup_lattice(make_group([2, 4]))) == 8

    def test_lagrange_and_closure(self):
        G = make_group([2, 6])
        for H in subgroup_lattice(G):
            assert G.order % H.order == 0
            assert G.identity in H.elements
            for a in H.elements:
                assert G.scale(-1, a) in H.elements
                for b in H.elements:
                    assert G.add(a, b) in H.elements

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            subgroup_lattice(make_group([10007 + 1]))  # 10008 > cap
        with pytest.raises(BudgetExceededError):
            sieve_terms(make_group([10007 + 1]))

    def test_equality_ignores_generators(self):
        G = make_group([2, 2])
        A = span(G, ((1, 0), (0, 1)))
        B = span(G, ((1, 1), (0, 1)))
        assert A.generators != B.generators
        assert A == B
        assert hash(A) == hash(B)

    def test_abstract_type_of_subgroups(self):
        G = make_group([2, 4])
        types = sorted(
            subgroup_invariant_factors(H).invariant_factors
            for H in subgroup_lattice(G)
        )
        assert types == sorted(
            [(), (2,), (2,), (2,), (2, 2), (4,), (4,), (2, 4)]
        )


class TestFrattini:
    def test_examples(self):
        assert frattini(make_group([2, 2])).order == 1
        phi4 = frattini(make_group([4]))
        assert phi4.order == 2 and (2,) in phi4.elements
        assert frattini(make_group([12])).order == 2

    def test_no_identity_generators(self):
        assert frattini(make_group([2] * 6)).generators == ()
        assert frattini(make_group([4, 12])).generators == ((2, 0), (0, 6))

    @pytest.mark.parametrize("factors", [[4], [8], [12], [2, 2], [2, 4], [9], [3, 9], [2, 6], [36]])
    def test_equals_intersection_of_maximals(self, factors):
        G = make_group(factors)
        lattice = subgroup_lattice(G)
        maximal = [
            H
            for H in lattice
            if H.order < G.order
            and not any(
                H.elements < K.elements and K.order < G.order for K in lattice
            )
        ]
        inter = set(full_subgroup(G).elements)
        for H in maximal:
            inter &= H.elements
        assert frattini(G).elements == frozenset(inter)


def _moebius_family():
    groups = [G for G in all_abelian_groups(36)]
    groups += [make_group([n]) for n in (48, 60, 96, 128, 144, 180, 200)]
    groups += [make_group(f) for f in ([2, 4], [4, 4], [3, 9], [2, 2, 6], [5, 5])]
    return groups


class TestMoebius:
    def test_identity_value(self):
        G = make_group([6])
        assert moebius_subgroup(full_subgroup(G), G) == 1

    def test_two_element_chain(self):
        G = make_group([5])
        assert moebius_subgroup(trivial_subgroup(G), G) == -1

    def test_elementary_3squared(self):
        G = make_group([3, 3])
        assert moebius_subgroup(trivial_subgroup(G), G) == 3

    def test_not_a_subgroup(self):
        G = make_group([4])
        H = trivial_subgroup(make_group([2, 2]))
        with pytest.raises(ValueError):
            moebius_subgroup(H, G)

    def test_elements_not_spanned_by_generators(self):
        G = make_group([4])
        H = Subgroup(G, frozenset({(0,), (1,)}), ((1,),))
        with pytest.raises(ValueError):
            moebius_subgroup(H, G)

    def test_defining_recursion_everywhere(self):
        # sum over H <= K <= G of mu(K, G) is 1 exactly when H = G; the
        # family covers orders up to 200 with small lattices (the elementary
        # 2-group monsters are skipped for runtime, their recursion is the
        # same computation at larger scale)
        for G in _moebius_family():
            lattice = subgroup_lattice(G)
            if len(lattice) > 150:
                continue
            mu = {H.elements: moebius_subgroup(H, G) for H in lattice}
            for H in lattice:
                total = sum(
                    mu[K.elements]
                    for K in lattice
                    if H.elements <= K.elements
                )
                assert total == (1 if H.order == G.order else 0)

    def test_frattini_support(self):
        for G in _moebius_family():
            lattice = subgroup_lattice(G)
            if len(lattice) > 150:
                continue
            phi = frattini(G).elements
            for H in lattice:
                if moebius_subgroup(H, G) != 0:
                    assert phi <= H.elements


ELEMENTARY_2_6 = make_group([2] * 6)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _reference_types(G):
    """The reference's (histogram, summed mu) rows, by (order, abstract type)."""
    types = {}
    for H, mu in sorted(
        sieve_subgroups(G),
        key=lambda t: (t[0].order, subgroup_invariant_factors(t[0]).invariant_factors),
    ):
        hist = histogram(H)
        types[hist] = types.get(hist, 0) + mu
    return list(types.items())


PARITY_GROUPS = all_abelian_groups(64) + [
    make_group(f) for f in ([2, 2, 2, 4], [2, 4, 8], [3, 3, 9])
]


class TestSieveTerms:
    def test_matches_filtered_bfs(self):
        # the reference builds the sieve subgroups from the subspaces of
        # G/Frattini(G); the BFS of C2^6 alone takes about 25 s, so C2^6 is
        # checked by its counts below
        for G in all_abelian_groups(64):
            if G == ELEMENTARY_2_6:
                continue
            phi = frattini(G).elements
            expected = [
                (H.elements, moebius_subgroup(H, G))
                for H in subgroup_lattice(G)
                if phi <= H.elements
            ]
            assert [(H.elements, mu) for H, mu in sieve_subgroups(G)] == expected, G

    @pytest.mark.parametrize("G", PARITY_GROUPS, ids=str)
    def test_counted_terms_match_reference(self, G):
        # the Hall counts give every subgroup once: the (|H|, histogram, mu)
        # multisets agree
        counted = Counter((H.order, element_orders(H), mu) for H, mu in sieve_terms(G))
        built = Counter((H.order, histogram(H), mu) for H, mu in sieve_subgroups(G))
        assert counted == built

    def test_elementary_2_counts_closed_form(self):
        # sum over k of the Gaussian binomials [r choose k]_2
        expected = [2, 5, 16, 67, 374, 2825, 29212, 417199, 8283458, 229755605]
        assert SIEVE_TERMS_CAP >= expected[6]  # C2^7 is listed
        for r, total in enumerate(expected, start=1):
            G = make_group([2] * r)
            assert sum(count for _, count, _ in _sieve_type_counts(G)) == total
            assert total == sum(_gaussian_binomial(r, k, 2) for k in range(r + 1))
            assert [mu for _, mu in sieve_types(G)] == [
                (-1) ** k * 2 ** (k * (k - 1) // 2) * _gaussian_binomial(r, k, 2)
                for k in range(r, -1, -1)
            ]
            if total <= SIEVE_TERMS_CAP:
                assert len(sieve_terms(G)) == total
            else:
                with pytest.raises(BudgetExceededError, match="sieve subgroups"):
                    sieve_terms(G)

    def test_order_by_size_then_type(self):
        # order 4 holds two C4 and one C2xC2; the types ascend within an order
        G = make_group([2, 4])
        assert [(H.invariant_factors, mu) for H, mu in sieve_terms(G)] == [
            ((2,), 2),
            ((2, 2), -1),
            ((4,), -1),
            ((4,), -1),
            ((2, 4), 1),
        ]

    def test_elementary_2_6_counts(self):
        terms = sieve_terms(ELEMENTARY_2_6)
        assert len(terms) == 2825
        per_index = {}
        for H, _ in terms:
            index = ELEMENTARY_2_6.order // H.order
            per_index[index] = per_index.get(index, 0) + 1
        assert per_index == {2**k: _gaussian_binomial(6, k, 2) for k in range(7)}
        assert sum(mu for _, mu in terms) == 0

    def test_recursion_on_sieve_subgroups(self):
        # every K between H and G contains Frattini(G) once H does, so the
        # defining recursion of mu runs over the sieve subgroups alone
        for G in _moebius_family() + [make_group([2] * 5), ELEMENTARY_2_6]:
            terms = sieve_subgroups(G)
            for H, _ in terms:
                total = sum(
                    mu
                    for K, mu in terms
                    if K.order % H.order == 0 and H.elements <= K.elements
                )
                assert total == (1 if H.order == G.order else 0), (G, H.order)


class TestSieveTypes:
    def test_one_row_per_histogram_with_summed_mu(self):
        # equal to the reference's rows, in their order
        for G in PARITY_GROUPS:
            types = sieve_types(G)
            histograms = [orders for orders, _ in types]
            assert len(set(histograms)) == len(histograms), G
            assert list(types) == _reference_types(G), G

    def test_elementary_2_6_has_seven_types(self):
        # one type per order 2^k, k = 0..6, among 2,825 sieve subgroups
        types = sieve_types(ELEMENTARY_2_6)
        assert len(types) == 7
        assert [mu for _, mu in types] == [
            (-1) ** k * 2 ** (k * (k - 1) // 2) * _gaussian_binomial(6, k, 2)
            for k in range(6, -1, -1)
        ]


class TestAutOrder:
    def test_examples(self):
        assert aut_order(make_group([3])) == 2
        assert aut_order(make_group([2, 2])) == 6
        assert aut_order(make_group([2])) == 1

    def _brute_force(self, G: AbelianGroup) -> int:
        basis = G.basis()
        orders = [element_order(G, e) for e in basis]
        elems = G.elements()
        count = 0
        for images in product(elems, repeat=len(basis)):
            ok = all(G.scale(o, img) == G.identity for o, img in zip(orders, images))
            if not ok:
                continue
            seen = set()
            for coeffs in product(*(range(d) for d in G.invariant_factors)):
                x = G.identity
                for c, img in zip(coeffs, images):
                    x = G.add(x, G.scale(c, img))
                seen.add(x)
            if len(seen) == G.order:
                count += 1
        return count

    @pytest.mark.parametrize(
        "factors", [[2], [3], [4], [6], [2, 2], [2, 4], [3, 3], [8], [2, 6], [12]]
    )
    def test_against_brute_force(self, factors):
        G = make_group(factors)
        assert aut_order(G) == self._brute_force(G)


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("C4", (4,)),
            ("C2xC6", (2, 6)),
            ("[2,6]", (2, 6)),
            ("[4, 6]", (2, 12)),
            ("c3xc3", (3, 3)),
            ("C1", ()),
            ("[]", ()),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_group_literal(text).invariant_factors == expected

    @pytest.mark.parametrize("text", ["", "4", "Cx", "[2", "C2+C4"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_group_literal(text)
