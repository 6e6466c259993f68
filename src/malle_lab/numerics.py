"""Shared arithmetic plumbing: primes, divisors, unit groups, precision.

Everything here is elementary and deterministic; the heavier analytic
machinery lives in :mod:`malle_lab.lvalues`.
"""

from __future__ import annotations

import math
import os
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


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= m:
        for q in (f, f + 2):
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                out.append((q, e))
        f += 6
    if m > 1:
        out.append((m, 1))
    out.sort()
    return tuple(out)


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
