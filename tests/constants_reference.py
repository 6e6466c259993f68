"""Surjection constants of C_l, l prime, from the conductor parametrisation.

The count of surjections Gal(Qbar/Q) -> C_l of |disc| <= X grows like
R_l X^(1/(l - 1)).  A cyclic degree-l field has conductor f = l^e q_1 ... q_r
with distinct primes q_i = 1 mod l and e in {0, 2}, and discriminant
f^(l - 1).  Each f carries (l - 1)^(omega(f) - 1) fields, so (l - 1)^omega(f)
surjections, and the homomorphisms, the trivial one included, have the
Dirichlet series in w = (l - 1) s

    H(w) = (1 + (l - 1) l^(-2w)) prod_{q = 1 (l)} (1 + (l - 1) q^(-w)).

Dividing by zeta of Q(zeta_l), whose Euler factor is (1 - l^-w)^-1 at l,
(1 - q^-w)^-(l - 1) at q = 1 mod l and (1 - p^(-f_p w))^(-g_p) elsewhere,
f_p the order of p mod l and g_p = (l - 1) / f_p, leaves a product that
converges at w = 1, so

    R_l = res zeta_{Q(zeta_l)} (1 + (l - 1)/l^2)(1 - 1/l)
          prod_{q = 1 (l)} (1 + (l - 1)/q)(1 - 1/q)^(l - 1)
          prod_{p != 1 (l), p != l} (1 - p^(-f_p))^(g_p).

Every factor of the two products is 1 - O(p^-2), so primes to 2*10^6 leave
a tail of about 10^-7, relative, and floats suffice.  Only the zeta residue
comes from the program.  For l = 3, ``cohn_c3`` is the same constant in H.
Cohn's form ("The density of abelian cubic fields", Proc. AMS 5, 1954),
twice his count of fields, built from pi alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

from malle_lab.lvalues import dedekind_zeta_residue

PRIME_BOUND = 2 * 10**6


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(p for p in range(n + 1) if sieve[p])


def _order_mod(p: int, l: int) -> int:
    order, x = 1, p % l
    while x != 1:
        x = x * p % l
        order += 1
    return order


def conductor_constant(l: int, prime_bound: int = PRIME_BOUND) -> float:
    """R_l from the conductor parametrisation, primes to prime_bound."""
    logs = [math.log1p((l - 1) / l**2), math.log1p(-1 / l)]
    for p in _primes(prime_bound):
        if p == l:
            continue
        if p % l == 1:
            logs.append(math.log1p((l - 1) / p) + (l - 1) * math.log1p(-1 / p))
        else:
            f = _order_mod(p, l)
            logs.append((l - 1) // f * math.log1p(-(float(p) ** -f)))
    return float(dedekind_zeta_residue(l)) * math.exp(math.fsum(logs))


def cohn_c3(prime_bound: int = PRIME_BOUND) -> float:
    """R_3 = 2 * 11 sqrt(3) / (36 pi) * prod_{p = 1 (6)} (1 - 2 / (p (p + 1)))."""
    logs = [math.log1p(-2 / (p * (p + 1))) for p in _primes(prime_bound) if p % 6 == 1]
    return 2 * 11 * math.sqrt(3) / (36 * math.pi) * math.exp(math.fsum(logs))
