"""Independent references for the benchmark's output checks.

Everything here is written from the mathematics alone, with the standard
library only, and shares no code with ``malle_lab``: squarefree sieves for
quadratic fields, conductor enumeration for cyclic cubic fields, pairs of
quadratic fields for biquadratic ones, Gaussian binomials and Hall's Moebius
function for the subgroup sieve, and decimal arithmetic for the Euler-product
closed forms.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product


# -- sieves -------------------------------------------------------------------


def prime_flags(n: int) -> bytearray:
    """flags[k] == 1 exactly when k is prime, for 0 <= k <= n."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[: min(2, n + 1)] = bytes(min(2, n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes_to(n: int) -> list[int]:
    return [k for k, flag in enumerate(prime_flags(n)) if flag] if n >= 2 else []


def squarefree_flags(n: int) -> bytearray:
    """flags[k] == 1 exactly when k >= 1 is squarefree, for 0 <= k <= n."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = 0
    for p in primes_to(math.isqrt(n)):
        q = p * p
        flags[q::q] = bytes(len(range(q, n + 1, q)))
    return flags


def composite_count(n_max: int) -> int:
    """Number of composite n with 4 <= n < n_max."""
    flags = prime_flags(n_max - 1)
    return sum(1 for n in range(4, n_max) if not flags[n])


def composites_below(n_max: int) -> list[int]:
    flags = prime_flags(n_max - 1)
    return [n for n in range(4, n_max) if not flags[n]]


# -- quadratic fields -----------------------------------------------------------


def fundamental_discriminants(x: int) -> list[int]:
    """Every fundamental discriminant D != 1 with |D| <= x, sorted by (|D|, D).

    Odd D is squarefree with D = 1 mod 4, so each odd squarefree n > 1 gives
    exactly one of +n, -n.  Even D is 4m with m squarefree and m = 2, 3 mod 4:
    k = |m| gives -4k when k = 1 mod 4, +4k when k = 3 mod 4, both signs when
    k = 2 mod 4.
    """
    sqf = squarefree_flags(x)
    out = []
    for n in range(3, x + 1, 2):
        if sqf[n]:
            out.append(n if n % 4 == 1 else -n)
    for k in range(1, x // 4 + 1):
        if not sqf[k]:
            continue
        r = k % 4
        if r == 1:
            out.append(-4 * k)
        elif r == 3:
            out.append(4 * k)
        elif r == 2:
            out.extend((-4 * k, 4 * k))
    out.sort(key=lambda d: (abs(d), d))
    return out


def c2_disc_histogram(x: int) -> dict[int, int]:
    """|D| -> number of quadratic fields of that absolute discriminant."""
    hist: dict[int, int] = {}
    for d in fundamental_discriminants(x):
        hist[abs(d)] = hist.get(abs(d), 0) + 1
    return hist


def c2_ram_count(x: int) -> int:
    """Quadratic fields whose product of ramified primes is at most x.

    An odd squarefree r > 1 is ramified in exactly one field (the sign with
    D = 1 mod 4); 2r' with r' odd squarefree is ramified in three (the sign
    of -4r' or 4r' that is fundamental, and both of +-8r').
    """
    sqf = squarefree_flags(max(x, 1))
    odd = sum(1 for r in range(3, x + 1, 2) if sqf[r])
    with_two = sum(1 for r in range(1, x // 2 + 1, 2) if sqf[r])
    return odd + 3 * with_two


# -- cyclic cubic fields --------------------------------------------------------


def c3_count(x: int) -> int:
    """Cyclic cubic fields with discriminant f^2 <= x.

    The conductor f is 9^e times distinct primes p = 1 mod 3 (e in {0, 1}),
    and each such f with t ramified primes carries 2^(t-1) fields.
    """
    f_max = math.isqrt(x)
    if f_max < 7:
        return 0
    spf = list(range(f_max + 1))
    for p in range(2, math.isqrt(f_max) + 1):
        if spf[p] == p:
            for k in range(p * p, f_max + 1, p):
                if spf[k] == k:
                    spf[k] = p
    total = 0
    for f in range(7, f_max + 1):
        m, t, ok = f, 0, True
        if m % 9 == 0:
            m //= 9
            t = 1
            if m % 3 == 0:
                continue
        while m > 1:
            p = spf[m]
            m //= p
            if p % 3 != 1 or m % p == 0:
                ok = False
                break
            t += 1
        if ok and t:
            total += 2 ** (t - 1)
    return total


# -- biquadratic fields ---------------------------------------------------------


def _core(d: int) -> int:
    """Squarefree kernel (with sign) of a fundamental discriminant."""
    return d if d % 4 == 1 else d // 4


def _fundamental_of_core(c: int) -> int:
    return c if c % 4 == 1 else 4 * c


def c2xc2_histogram(x: int) -> dict[int, int]:
    """|disc| -> number of biquadratic fields, over |disc| <= x.

    A biquadratic field is an unordered triple {d1, d2, d3} of quadratic
    fundamental discriminants with d3 the discriminant of Q(sqrt(d1 d2)),
    and its discriminant is d1 d2 d3.  Each triple is met once, in
    (|d|, d) order.
    """
    # the other two discriminants of a triple have |d1 d2| >= 3 * 4
    discs = fundamental_discriminants(max(x // 12, 1))
    key = {d: (abs(d), d) for d in discs}
    hist: dict[int, int] = {}
    for i, d1 in enumerate(discs):
        for d2 in discs[i + 1 :]:
            if abs(d1 * d2) * 5 > x:  # |d3| >= 5 since d3 > d2 in key order
                break
            c1, c2 = _core(d1), _core(d2)
            g = math.gcd(c1, c2)
            d3 = _fundamental_of_core(c1 * c2 // (g * g))
            if (abs(d3), d3) <= key[d2]:
                continue
            disc = abs(d1 * d2 * d3)
            if disc <= x:
                hist[disc] = hist.get(disc, 0) + 1
    return hist


def c2xc2_count(x: int) -> int:
    return sum(c2xc2_histogram(x).values())


# -- finite abelian groups --------------------------------------------------------


def _factor(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_groups(max_order: int, min_order: int = 2) -> list[tuple[int, ...]]:
    """Invariant factors d1 | d2 | ... of every abelian group in the order range.

    One entry per isomorphism class, from one partition of the exponent per
    prime; sorted by order, then by factors.
    """
    out = []
    for n in range(min_order, max_order + 1):
        per_prime = [[(p, part) for part in _partitions(e)] for p, e in _factor(n)]
        for combo in product(*per_prime):
            rank = max(len(part) for _, part in combo)
            factors = []
            for i in range(rank):
                d = 1
                for p, part in combo:
                    j = i - (rank - len(part))  # align the parts at the top
                    if j >= 0:
                        d *= p ** sorted(part)[j]
                factors.append(d)
            out.append(tuple(factors))
    out.sort(key=lambda fs: (math.prod(fs), fs))
    return out


def group_literal(factors: tuple[int, ...]) -> str:
    return "x".join(f"C{d}" for d in factors)


def literal_factors(text: str) -> tuple[int, ...]:
    """Invariant factors of a literal such as 'C2xC6' already in that form."""
    return tuple(int(part[1:]) for part in text.split("x"))


def p_rank(factors: tuple[int, ...], p: int) -> int:
    return sum(1 for d in factors if d % p == 0)


def aut_order(factors: tuple[int, ...]) -> int:
    """|Aut(G)| by counting generator images that give a bijection."""
    elems = list(product(*(range(d) for d in factors)))
    order = len(elems)

    def elem_order(g):
        o = 1
        for x, d in zip(g, factors):
            o = math.lcm(o, d // math.gcd(d, x))
        return o

    choices = [[g for g in elems if d % elem_order(g) == 0] for d in factors]
    count = 0
    for images in product(*choices):
        seen = set()
        for coeffs in elems:
            seen.add(
                tuple(
                    sum(c * img[i] for c, img in zip(coeffs, images)) % d
                    for i, d in enumerate(factors)
                )
            )
        count += len(seen) == order
    return count


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def sieve_index_counts(factors: tuple[int, ...]) -> dict[int, int]:
    """[G:H] -> number of subgroups H containing the Frattini subgroup.

    Those are the subspaces of G/Phi(G), the product over p | |G| of F_p^r_p,
    so a subgroup of index prod p^k_p is a choice of one codimension-k_p
    subspace per prime.
    """
    counts = {1: 1}
    for p, _ in _factor(math.prod(factors)):
        r = p_rank(factors, p)
        counts = {
            index * p**k: c * gaussian_binomial(r, k, p)
            for index, c in counts.items()
            for k in range(r + 1)
        }
    return counts


def subspace_count(factors: tuple[int, ...]) -> int:
    return sum(sieve_index_counts(factors).values())


def hall_mu(index: int) -> int:
    """Hall's mu(H, G) for G/H elementary abelian: prod (-1)^k p^(k(k-1)/2)."""
    mu = 1
    for p, k in _factor(index):
        mu *= (-1) ** k * p ** (k * (k - 1) // 2)
    return mu


def smallest_prime(n: int) -> int:
    return _factor(n)[0][0]


def expected_invariants(factors: tuple[int, ...]) -> tuple[Fraction, int]:
    """(a, b_a) for the discriminant ordering over Q.

    The minimal index |G|(1 - 1/l) belongs to the elements of order l, the
    smallest prime dividing |G|; there are l^r - 1 of them (r the l-rank),
    and the cyclotomic action joins them in orbits of size l - 1.
    """
    n = math.prod(factors)
    ell = smallest_prime(n)
    r = p_rank(factors, ell)
    return Fraction(n * (ell - 1), ell), (ell**r - 1) // (ell - 1)


# -- Euler products -------------------------------------------------------------


def decimal_pi(digits: int) -> Decimal:
    """pi to the given number of digits (the series from the decimal docs)."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        three = Decimal(3)
        last, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        result = +s
    return result


def c2_residue(digits: int = 60) -> Decimal:
    """6 / pi^2, the density of fundamental discriminants."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        pi = decimal_pi(digits + 5)
        return 6 / (pi * pi)


def cohn_c3_constant(p_max: int) -> float:
    """Cohn's 11 sqrt(3) / (36 pi) * prod over p = 1 mod 3, p <= p_max.

    The factors are 1 - 2/(p(p+1)); the tail beyond p_max changes the
    product by less than 2/p_max relatively.
    """
    prod = 1.0
    for p in primes_to(p_max):
        if p % 3 == 1:
            prod *= 1 - 2 / (p * (p + 1))
    return 11 * math.sqrt(3) / (36 * math.pi) * prod


def c3_residual_product(p_max: int, digits: int = 60) -> Decimal:
    """Truncated C3 residual product at s = 3/4, from its closed form.

    (1 + 2 * 3^-4s)(1 - 3^-2s) * prod_{p = 1 (3)} (1 + 2 p^-2s)(1 - p^-2s)^2
    * prod_{p = 2 (3)} (1 - p^-4s), over p <= p_max, with p^-2s = p^(-3/2).
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        total = Decimal(1)
        for p in primes_to(p_max):
            dp = Decimal(p)
            u2 = 1 / (dp * dp.sqrt())  # p^(-2s)
            if p == 3:
                total *= (1 + 2 * u2 * u2) * (1 - u2)
            elif p % 3 == 1:
                total *= (1 + 2 * u2) * (1 - u2) ** 2
            else:
                total *= 1 - u2 * u2
        return +total
