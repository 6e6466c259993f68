import math
import time

from hypothesis import given
from hypothesis import strategies as st

from malle_lab.numerics import integer_root, primes_up_to


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
