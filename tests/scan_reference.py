"""The cyclic scan one n at a time, from the full table of candidate bounds.

The program walks each n's classes only up to the turning point of theta(D)
and sieves the divisors of a block of n at once; this slow path evaluates
the bound at every candidate D, takes the divisors from a smallest-prime-
factor sieve, with phi(e) from the factorization of e, and is the reference
the tests compare the scan against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from malle_lab.invariants import classify_case
from malle_lab.theta import ScanRow, SubconvexityModel


def theta_table(classes, k):
    """(D, numerator, denominator) of the bound at each candidate D, and the first minimum.

    classes are (w, c_w) by ascending weight; with T = sum over w < D of
    c_w (D - w) the bound is (k a + T) / (a (k D + T)).  The candidates are
    the weights below 2a, and 2a.
    """
    a = classes[0][0]
    candidates = [w for w, _ in classes if w < 2 * a] + [2 * a]
    table = []
    for D in candidates:
        T = 0
        for w, c in classes:
            if w >= D:
                break
            T += c * (D - w)
        table.append((D, k * a + T, a * (k * D + T)))
    best = table[0]
    for entry in table[1:]:
        if entry[1] * best[2] < best[1] * entry[2]:
            best = entry
    return table, best


def _spf_sieve(n: int) -> list[int]:
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _factorization(n: int, spf: list[int]) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing n, from the smallest-prime-factor sieve."""
    factors = []
    while n > 1:
        p = spf[n]
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        factors.append((p, k))
    return factors


def _phi(e: int, spf: list[int]) -> int:
    return math.prod((p - 1) * p ** (k - 1) for p, k in _factorization(e, spf))


def _divisors_and_radical(n: int, spf: list[int]) -> tuple[list[int], int]:
    """Sorted divisors and the radical of n, from the smallest-prime-factor sieve."""
    divs = [1]
    rad = 1
    for p, k in _factorization(n, spf):
        rad *= p
        divs = [d * p**j for d in divs for j in range(k + 1)]
    divs.sort()
    return divs, rad


def scan_rows(n_max: int, model: SubconvexityModel) -> list[ScanRow]:
    """The rows of ``scan_cyclic(n_max, model)``, one composite n at a time."""
    slope = model.slope()
    cn, cd = slope.numerator, slope.denominator
    spf = _spf_sieve(n_max)
    rows = []
    for n in range(4, n_max):
        if spf[n] == n:
            continue
        divs, rad = _divisors_and_radical(n, spf)
        divs = divs[1:]
        inds = [n - n // e for e in divs]
        a, d2 = inds[0], inds[1]
        _, (_, num, den) = theta_table([(ind, cn * _phi(e, spf)) for e, ind in zip(divs, inds)], cd)
        flag_i = num * d2 < den
        case = "none"
        if flag_i:
            for d in inds[1:]:
                if num * d >= den:
                    break
                smaller = [e for e, ind in zip(divs, inds) if ind < d]
                case = classify_case(n, d, smaller, n // rad, True)
                if case != "none":
                    break
        theta = Fraction(num, den)
        rows.append(ScanRow(n, a, d2, theta.numerator, theta.denominator, flag_i, case))
    return rows
