"""Dirichlet L-values and cyclotomic Dedekind zeta values at real points.

The zeta function of the m-th cyclotomic field factors over the characters
mod m into the L-functions of their primitive characters.  The characters
are the oracle's :class:`~malle_lab.oracle.DirichletCharacter`, whose
conductor and order are read from its components; they serve these values
and the test suite's reference counts, and no oracle count builds one.  Each
L-function is evaluated from the character's value table through Hurwitz
zeta sums (Euler-Maclaurin under the hood), so real points inside the
critical strip and residues at 1 are both available to high precision.
Every evaluator, here and in ``series``, runs under ``working_precision``:
MALLE_LAB_PRECISION digits plus 10 guard digits, with no per-call override.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .numerics import euler_phi, precision_digits
from .oracle import TRIVIAL_CHARACTER, DirichletCharacter, characters_up_to


@lru_cache(maxsize=None)
def characters_mod(m: int) -> tuple[DirichletCharacter, ...]:
    """All characters of (Z/m)^*, each given by its primitive character."""
    return (TRIVIAL_CHARACTER,) + tuple(
        chi for chi in characters_up_to(euler_phi(m), m) if m % chi.conductor == 0
    )


def _root_of_unity(angle: Fraction):
    if angle == 0:
        return mp.mpf(1)
    return mp.expjpi(2 * mp.mpf(angle.numerator) / angle.denominator)


def _l_value(x: Fraction, f: int, prim: tuple[tuple[int, Fraction], ...]):
    """L(x, chi) for the primitive character chi of conductor f at real x > 0."""
    if f == 1:
        return mp.zeta(mp.mpf(x.numerator) / x.denominator)
    if x == 1:
        total = mp.mpc(0)
        for a, angle in prim:
            total -= _root_of_unity(angle) * mp.digamma(mp.mpf(a) / f)
        return total / f
    xs = mp.mpf(x.numerator) / x.denominator
    total = mp.mpc(0)
    for a, angle in prim:
        total += _root_of_unity(angle) * mp.zeta(xs, mp.mpf(a) / f)
    return total * mp.power(f, -xs)


@contextmanager
def working_precision():
    """mp.workdps at MALLE_LAB_PRECISION plus 10 guard digits, read at each
    entry; yields the digits."""
    digits = precision_digits()
    with mp.workdps(digits + 10):
        yield digits


@lru_cache(maxsize=None)
def _cyclotomic_zeta(m: int, x: Fraction, digits: int):
    """Product of L(x, chi) over the characters mod m; at x = 1 the trivial
    character, whose L-function has the pole, is left out.  Runs under
    ``working_precision``; its digits key the cache."""
    acc = mp.mpc(1)
    for chi in characters_mod(m):
        if x == 1 and chi.conductor == 1:
            continue
        acc *= _l_value(x, chi.conductor, chi.angles())
    assert abs(acc.imag) < mp.mpf(10) ** (-digits), "zeta value should be real"
    return acc.real


def dedekind_zeta_value(m: int, x: Fraction | int):
    """zeta of Q(zeta_m) at the real point x != 1, as a real mpf."""
    x = Fraction(x)
    if x == 1:
        raise ValueError("pole at 1; use dedekind_zeta_residue")
    with working_precision() as digits:
        return _cyclotomic_zeta(m, x, digits)


def dedekind_zeta_residue(m: int):
    """Residue at s = 1 of zeta of Q(zeta_m): product of L(1, chi), chi != 1."""
    with working_precision() as digits:
        return _cyclotomic_zeta(m, Fraction(1), digits)
