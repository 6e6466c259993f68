"""Hand-computed small cases for the benchmark's independent references.

Run with ``python3 -m pytest bench``.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

import refs


def test_fundamental_discriminants_small():
    assert refs.fundamental_discriminants(5) == [-3, -4, 5]
    assert refs.fundamental_discriminants(8) == [-3, -4, 5, -7, -8, 8]
    assert len(refs.fundamental_discriminants(1)) == 0


def test_c2_histogram_small():
    hist = refs.c2_disc_histogram(24)
    assert hist[3] == hist[4] == hist[5] == 1
    assert hist[8] == 2  # -8 and 8
    assert hist[12] == 1 and hist[20] == 1  # 12 and -20
    assert hist[24] == 2  # -24 and 24
    assert 9 not in hist and 16 not in hist


def test_c2_ram_small():
    assert refs.c2_ram_count(1) == 0
    assert refs.c2_ram_count(2) == 3  # Q(i), Q(sqrt 2), Q(sqrt -2)
    assert refs.c2_ram_count(3) == 4  # and Q(sqrt -3)
    assert refs.c2_ram_count(6) == 4 + 1 + 3  # 5; and 6 = 2*3: Q(sqrt 3), Q(sqrt +-6)


def test_c3_small():
    assert refs.c3_count(48) == 0
    assert refs.c3_count(49) == 1  # conductor 7
    assert refs.c3_count(81) == 2  # and conductor 9
    # conductors 7 9 13 19 31 37 43 61, and 63 = 9 * 7 with two fields
    assert refs.c3_count(63**2) == 10


def test_c2xc2_small():
    assert refs.c2xc2_count(143) == 0
    assert refs.c2xc2_histogram(144) == {144: 1}  # Q(i, sqrt -3)
    assert refs.c2xc2_histogram(256) == {144: 1, 225: 1, 256: 1}
    assert refs.c2xc2_count(400) == 4  # Q(i, sqrt 5)


def test_published_sizes():
    """The counts quoted for the oracle at its documented sizes."""
    assert len(refs.fundamental_discriminants(10**6)) == 607925
    assert refs.c2_ram_count(10**4) == 10136
    assert refs.c3_count(10**7) == 501
    assert refs.c2xc2_count(10**5) == 243


def test_fundamental_discriminant_density():
    x = 10**5
    assert abs(len(refs.fundamental_discriminants(x)) / x - 6 / math.pi**2) < 1e-3


def test_aut_order():
    assert [refs.aut_order(fs) for fs in [(2,), (3,), (4,), (6,), (2, 2), (2, 4)]] == [
        1, 2, 2, 2, 6, 8,
    ]


def test_gaussian_binomials_and_subspaces():
    assert [refs.gaussian_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    assert refs.subspace_count((2, 2, 2, 2)) == 67
    assert refs.subspace_count((2, 2, 4)) == 16
    assert refs.subspace_count((2, 6)) == 5 * 2
    assert refs.sieve_index_counts((4,)) == {1: 1, 2: 1}


def test_hall_mu():
    assert [refs.hall_mu(i) for i in (1, 2, 4, 8, 6, 9)] == [1, -1, 2, -8, 1, 3]
    for fs in [(2, 2, 2, 2), (2, 6), (3, 3), (2, 2, 4)]:
        counts = refs.sieve_index_counts(fs)
        assert sum(c * refs.hall_mu(i) for i, c in counts.items()) == 0


def test_abelian_groups():
    groups = refs.abelian_groups(48)
    assert len(groups) == 81
    assert groups[:4] == [(2,), (3,), (2, 2), (4,)]
    assert (2, 2, 2, 2, 2) in groups and (2, 2, 12) in groups
    assert all(b % a == 0 for fs in groups for a, b in zip(fs, fs[1:]))


def test_expected_invariants():
    assert refs.expected_invariants((2, 2)) == (Fraction(2), 3)
    assert refs.expected_invariants((3, 3)) == (Fraction(6), 4)
    assert refs.expected_invariants((12,)) == (Fraction(6), 1)


def test_composites():
    assert refs.composite_count(10) == 4  # 4 6 8 9
    assert refs.composites_below(13) == [4, 6, 8, 9, 10, 12]


def test_decimal_constants():
    assert abs(float(refs.decimal_pi(30)) - math.pi) < 1e-15
    assert abs(float(refs.c2_residue()) - 6 / math.pi**2) < 1e-15
    assert abs(refs.cohn_c3_constant(10**5) - 0.1585) < 1e-3


def test_c3_residual_small():
    u = lambda p: p ** -1.5
    direct = (1 + 2 * u(3) ** 2) * (1 - u(3)) * (1 - u(2) ** 2) * (1 - u(5) ** 2)
    direct *= (1 + 2 * u(7)) * (1 - u(7)) ** 2
    assert float(refs.c3_residual_product(7)) == pytest.approx(direct, rel=1e-14)
    assert isinstance(refs.c3_residual_product(7), Decimal)
