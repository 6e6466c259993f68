import math
import time

from hypothesis import given
from hypothesis import strategies as st

import pytest

from malle_lab import groups, numerics
from malle_lab.numerics import BudgetExceededError, factorize, integer_root, primes_up_to


@given(st.integers(min_value=0, max_value=2**4000), st.integers(min_value=1, max_value=16))
def test_integer_root_brackets_x(x, k):
    r = integer_root(x, k)
    assert r**k <= x < (r + 1) ** k


@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=1, max_value=16))
def test_integer_root_of_a_power_of_two(e, k):
    # past 2^1024 a float root of x overflows; near powers the seed is tightest
    for x in (2**e - 1, 2**e, 2**e + 1):
        if x >= 0:
            r = integer_root(x, k)
            assert r**k <= x < (r + 1) ** k


def test_integer_root_large_exact_powers():
    assert integer_root(2**1100, 4) == 2**275
    assert integer_root(3**2000, 16) == 3**125
    assert integer_root(3**2000 - 1, 16) == 3**125 - 1


def test_integer_root_past_the_bit_length():
    # a Newton step from r = 2 built 2^(k - 1) first: 5 s at k = 10^9 + 7
    start = time.perf_counter()
    assert integer_root(3, 10**9 + 7) == 1
    assert time.perf_counter() - start < 0.5
    for x in (2, 3, 2**64 - 1):
        for k in (x.bit_length(), x.bit_length() + 1, 2 * x.bit_length() + 1):
            assert integer_root(x, k) == 1


def _primes_by_trial_division(n):
    return [m for m in range(2, n + 1) if all(m % q for q in range(2, math.isqrt(m) + 1))]


@given(st.integers(min_value=0, max_value=5000))
def test_primes_up_to_matches_trial_division(n):
    assert primes_up_to(n) == _primes_by_trial_division(n)


def test_primes_up_to_small_edges():
    assert [primes_up_to(n) for n in range(5)] == [[], [], [2], [2, 3], [2, 3]]


def test_primes_up_to_a_million():
    primes = primes_up_to(10**6)
    assert len(primes) == 78_498
    assert primes[-1] == 999_983


def _factorize_by_trial_division(n):
    """The reference: trial division by 2, 3 and every 6k +- 1 up to the root."""
    out, m = [], n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= m:
        for q in (f, f + 2):
            e = 0
            while m % q == 0:
                m, e = m // q, e + 1
            if e:
                out.append((q, e))
        f += 6
    if m > 1:
        out.append((m, 1))
    return tuple(sorted(out))


def test_factorize_matches_trial_division():
    uncached = factorize.__wrapped__  # leave the cache as the program fills it
    for n in range(1, 10**5 + 1):
        assert uncached(n) == _factorize_by_trial_division(n), n


NEAR_1E9 = (999_999_937, 1_000_000_007, 1_000_000_009)
NEAR_1E12 = (999_999_999_989, 1_000_000_000_039)


def test_factorize_products_of_large_primes():
    # Miller-Rabin tells these primes, and Pollard-Brent splits their
    # products; the trial division they replace runs to 10^9 on p q near 10^18
    for p in NEAR_1E9 + NEAR_1E12:
        assert _factorize_by_trial_division(p) == ((p, 1),)
        assert factorize(p) == ((p, 1),)
    a, b, c = NEAR_1E9
    x, y = NEAR_1E12
    for parts in ([a, b], [7, a, a], [2, 2, 3, b, c], [a, x], [x, y], [1009, 1013, 1013, y]):
        n = math.prod(parts)
        expected = tuple(sorted((p, parts.count(p)) for p in set(parts)))
        assert factorize(n) == expected, n


def test_factorize_past_the_exact_test():
    # the bases 2..41 decide primality exactly below MILLER_RABIN_LIMIT; a
    # larger cofactor with no prime factor below 1000 is over budget
    assert groups.BudgetExceededError is numerics.BudgetExceededError
    a, b, c = NEAR_1E9
    assert factorize(8 * a * b) == ((2, 3), (a, 1), (b, 1))
    with pytest.raises(BudgetExceededError, match="factorization limit"):
        factorize(a * b * c)
    assert a * b * c >= numerics.MILLER_RABIN_LIMIT
