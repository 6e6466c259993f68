"""Shared arithmetic plumbing: primes, divisors, unit groups, precision.

Everything here is elementary and deterministic; the heavier analytic
machinery lives in :mod:`malle_lab.lvalues`.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import lru_cache
from itertools import compress

DEFAULT_PRECISION = 50


def precision_digits() -> int:
    """Working precision in significant digits (env MALLE_LAB_PRECISION)."""
    raw = os.environ.get("MALLE_LAB_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    value = int(raw)
    if value < 10:
        raise ValueError("MALLE_LAB_PRECISION must be at least 10 digits")
    return value


def primes_up_to(n: int) -> list[int]:
    """All primes <= n: 2, then a byte sieve over the odd numbers (index i is 2i + 1)."""
    if n < 2:
        return []
    size = (n + 1) // 2
    sieve = bytearray(b"\x01") * size
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2  # odd multiples of p are p apart in index
            sieve[start::p] = b"\x00" * ((size - 1 - start) // p + 1)
    return [2, *compress(range(1, n + 1, 2), sieve)]


def integer_root(x: int, k: int) -> int:
    """Largest r with r^k <= x, exact for x of any size.

    An even k takes ``math.isqrt`` first: r^(k/2) <= isqrt(x) exactly when
    r^k <= x.  Once 2^k passes x the root is 1.  Otherwise a float root of
    the top 64 bits of x, taken a little high, seeds integer Newton steps,
    which decrease from any r above the root and stop at the largest r with
    r^k <= x.
    """
    if x < 0 or k < 1:
        raise ValueError("integer_root expects x >= 0 and k >= 1")
    while k % 2 == 0:
        x, k = math.isqrt(x), k // 2
    if k == 1 or x < 2:
        return x
    if k >= x.bit_length():
        return 1
    shift = max(0, x.bit_length() - 64) // k * k
    seed = ((x >> shift) + 1) ** (1.0 / k) * (1 + 2.0**-40)
    r = (int(seed) + 1) << (shift // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


class BudgetExceededError(RuntimeError):
    """A computation would pass one of its caps or budgets; the CLI exits 3."""


TRIAL_PRIMES = tuple(primes_up_to(1000))  # factorize divides by these first
# Miller-Rabin to these bases is exact below the limit (Sorenson and Webster)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...) with p ascending.

    Trial division by ``TRIAL_PRIMES`` leaves a cofactor with no prime
    factor below 1000; below 1000^2 it is prime, and otherwise Miller-Rabin
    tells prime from composite and Pollard-Brent splits the composites.
    Both are deterministic, and the test is exact only below
    MILLER_RABIN_LIMIT (about 3.3e24), so a larger cofactor raises
    BudgetExceededError.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: Counter = Counter()
    m = n
    for p in TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            out[p] += 1
    if m >= MILLER_RABIN_LIMIT:
        raise BudgetExceededError(
            f"{n} has a cofactor {m} with no prime factor below 1000, past the "
            f"factorization limit {MILLER_RABIN_LIMIT}"
        )
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if m < 1000**2 or _miller_rabin(m):
            out[m] += 1
        else:
            d = _pollard_brent(m)
            pending += [d, m // d]
    return tuple(sorted(out.items()))


def _miller_rabin(n: int) -> bool:
    """Whether the odd n > 41 is a strong probable prime to every base of
    MILLER_RABIN_BASES: exactly whether it is prime, for n below the limit."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A factor 1 < d < n of the composite n, which has no prime factor
    below 1000: Brent's cycle search on x -> x^2 + c from x = 2, for
    c = 1, 2, ... until one splits n, with the gcds taken over batches of
    128 steps."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step its values one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"Pollard-Brent found no factor of {n}")


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Sorted divisors of n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("no prime factor below 2")
    return factorize(n)[0][0]


def euler_phi(n: int) -> int:
    value = 1
    for p, e in factorize(n):
        value *= p ** (e - 1) * (p - 1)
    return value


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m; requires gcd(a, m) = 1."""
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = 1
    x = a
    while x != 1:
        x = x * a % m
        order += 1
    return order


@lru_cache(maxsize=None)
def primitive_root(p: int, k: int = 1) -> int:
    """A generator of (Z/p^k)^* for odd p (valid for every k >= 1)."""
    if p == 2 or not is_prime(p):
        raise ValueError("primitive_root expects an odd prime")
    phi = p - 1
    prime_parts = [q for q, _ in factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in prime_parts):
            break
        g += 1
    # a primitive root mod p^2 is one mod p^k for all k
    if k >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=None)
def unit_group_components(q: int) -> tuple[tuple[int, int, int, int], ...]:
    """Cyclic decomposition of (Z/q)^* as (prime, prime_power, residue, order).

    The residues generate the unit group; for 2^k with k >= 3 the two rows
    are the sign part (-1, order 2) followed by the pro-2 part (5).
    Generator choices are coherent across powers of the same prime, which
    keeps character lifting a pure exponent scaling.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    rows: list[tuple[int, int, int, int]] = []
    for p, e in factorize(q):
        pk = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                rows.append((2, 4, 3, 2))
            else:
                rows.append((2, pk, pk - 1, 2))
                rows.append((2, pk, 5, 2 ** (e - 2)))
        else:
            g = primitive_root(p, e)
            rows.append((p, pk, g % pk, euler_phi(pk)))
    # lift each local generator to a residue mod q that is 1 at the other primes
    lifted = []
    for p, pk, g, order in rows:
        rest = q // pk
        residue = _crt_pair(g, pk, 1, rest)
        lifted.append((p, pk, residue, order))
    return tuple(lifted)


def _crt_pair(a: int, m: int, b: int, n: int) -> int:
    """x with x = a (m), x = b (n) for coprime m, n."""
    if n == 1:
        return a % m
    if m == 1:
        return b % n
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)
