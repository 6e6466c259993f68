import math
from fractions import Fraction
from itertools import product
from operator import mul

from mpmath import mp

from malle_lab.lvalues import (
    characters_mod,
    dedekind_zeta_residue,
    dedekind_zeta_value,
)
from malle_lab.numerics import divisors, euler_phi, unit_group_components
from malle_lab.oracle import TRIVIAL_CHARACTER


def close(a, b, digits=25):
    return abs(a - b) < mp.mpf(10) ** (-digits)


def _value(table: dict, f: int, a: int) -> Fraction:
    """Angle of the character with value table `table` mod f at the unit a."""
    return table[a % f if f > 1 else 1]


def _reference_characters(m: int) -> tuple[int, list[tuple[int, tuple, tuple[tuple[int, int], ...]]]]:
    """(conductor, components, angle table) of every character of (Z/m)^*,
    from the definitions.

    Discrete logs of the units mod m on the generators of
    ``unit_group_components(m)`` give each character's values; its
    conductor is the least f | m such that it is 1 on every unit a = 1 mod f,
    its table on (Z/f)^* is read from those values, and its components are
    its exponents on the generators of ``unit_group_components(f)``, by
    prime.  Angles are numerators over the exponent of (Z/m)^*, returned
    first.
    """
    gens = unit_group_components(m)
    orders = [n for *_, n in gens]
    top = math.lcm(*orders)
    logs = {}
    for xs in product(*(range(n) for n in orders)):
        a = 1 % m
        for (_, _, g, _), x in zip(gens, xs):
            a = a * pow(g, x, m) % m
        logs[a] = [x * (top // n) for x, n in zip(xs, orders)]
    assert len(logs) == euler_phi(m)
    kernels = [(f, [a for a in logs if a % f == 1 % f]) for f in divisors(m)]
    local_gens = {f: unit_group_components(f) for f in divisors(m)}
    out = []
    for es in product(*(range(n) for n in orders)):
        values = {a: sum(map(mul, es, xs)) % top for a, xs in logs.items()}
        f = next(f for f, kernel in kernels if not any(values[a] for a in kernel))
        table = {}
        for a, v in values.items():
            assert table.setdefault(a % f if f > 1 else 1, v) == v
        by_p = {}
        for p, pk, g, n in local_gens[f]:
            by_p.setdefault((p, pk), []).append(table[g] * n // top)
        comps = tuple(
            (p, next(k for k in range(1, pk.bit_length()) if p**k == pk), tuple(exps))
            for (p, pk), exps in by_p.items()
        )
        out.append((f, comps, tuple(sorted(table.items()))))
    return top, out


class TestCharacters:
    def test_characters_mod_match_the_definitions(self):
        # the trivial character, then the primitive characters whose
        # conductor divides m by (conductor, components), each with the
        # reference's angle table; _cyclotomic_zeta multiplies in list
        # order, so the order is pinned too
        for m in range(1, 201):
            top, expected = _reference_characters(m)
            found = [
                (
                    chi.conductor,
                    chi.components,
                    tuple((a, top // t.denominator * t.numerator) for a, t in chi.angles()),
                )
                for chi in characters_mod(m)
            ]
            assert found == sorted(expected), m

    def test_counts(self):
        assert len(characters_mod(1)) == 1
        assert len(characters_mod(5)) == 4
        assert len(characters_mod(8)) == 4
        assert len(characters_mod(9)) == 6

    def test_conductors_mod_9(self):
        conductors = sorted(chi.conductor for chi in characters_mod(9))
        assert conductors == [1, 3, 9, 9, 9, 9]

    def test_angles_are_homomorphisms(self):
        chars = {chi for m in range(1, 41) for chi in characters_mod(m)}
        assert TRIVIAL_CHARACTER.angles() == ((1, Fraction(0)),)
        for chi in chars:
            f = chi.conductor
            table = dict(chi.angles())
            units = [a for a in range(1, max(f, 2)) if math.gcd(a, f) == 1]
            assert sorted(table) == units
            assert all(0 <= angle < 1 for angle in table.values())
            for a in units:
                for b in units:
                    assert _value(table, f, a * b) == (table[a] + table[b]) % 1

    def test_product_angles_add(self):
        for m in (16, 36, 40, 63):
            for chi in characters_mod(m):
                for psi in characters_mod(m):
                    prod = chi.mul(psi)
                    t1, t2, t3 = (dict(c.angles()) for c in (chi, psi, prod))
                    for a in range(1, m):
                        if math.gcd(a, m) != 1:
                            continue
                        expected = (
                            _value(t1, chi.conductor, a) + _value(t2, psi.conductor, a)
                        ) % 1
                        assert _value(t3, prod.conductor, a) == expected


class TestValues:
    def test_riemann_at_two(self):
        with mp.workdps(40):
            assert close(dedekind_zeta_value(1, 2), mp.pi**2 / 6, 35)

    def test_trivial_fields_are_riemann(self):
        for m in (1, 2):
            with mp.workdps(40):
                expected = mp.zeta(mp.mpf(3) / 4)
            assert close(dedekind_zeta_value(m, Fraction(3, 4)), expected, 30)

    def test_gaussian_field_at_two(self):
        # zeta_{Q(i)}(2) = zeta(2) * L(2, chi_-4) = (pi^2/6) * Catalan
        with mp.workdps(40):
            expected = mp.pi**2 / 6 * mp.catalan
        assert close(dedekind_zeta_value(4, Fraction(2)), expected, 30)

    def test_eisenstein_residue(self):
        # residue of zeta_{Q(zeta_3)} at 1 is L(1, chi_-3) = pi / (3 sqrt 3)
        with mp.workdps(40):
            expected = mp.pi / (3 * mp.sqrt(3))
        assert close(dedekind_zeta_residue(3), expected, 30)

    def test_gaussian_residue(self):
        # L(1, chi_-4) = pi / 4
        with mp.workdps(40):
            expected = mp.pi / 4
        assert close(dedekind_zeta_residue(4), expected, 30)

    def test_cyclotomic_12_residue_factors(self):
        # characters mod 12: trivial, chi_-4, chi_-3, chi_12
        with mp.workdps(40):
            l3 = mp.pi / (3 * mp.sqrt(3))
            l4 = mp.pi / 4
            l12 = 2 * mp.log(2 + mp.sqrt(3)) / mp.sqrt(12)
            expected = l3 * l4 * l12
        assert close(dedekind_zeta_residue(12), expected, 28)

    def test_negative_value_in_critical_strip(self):
        assert dedekind_zeta_value(1, Fraction(3, 4)) < 0
        assert dedekind_zeta_value(1, Fraction(2, 3)) < 0

    def test_pole_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            dedekind_zeta_value(3, 1)


PINNED_RESIDUES = {
    3: "0.604599788078072616864692752547385244094688749",
    4: "0.78539816339744830961566084581987572104929235",
    5: "0.339837278240523535464278781158977485328977233",
    8: "0.543675539590749790078617654509805679226057059",
    9: "0.333684590840779973834063171346130449569065879",
    12: "0.361051484876071024786013046427925726637295512",
    15: "0.215278802716395487537116637107846145419116982",
    16: "0.464556703293382731821113114096403761220744162",
    24: "0.299995037071772721407712749239222613228510965",
}

PINNED_VALUES = {
    Fraction(3, 4): {
        3: "-1.87838385000197407605869865448958634022762957",
        4: "-2.51938986969828802534084960122617173011112508",
        5: "-0.831537917311963924594517927286058780028688096",
        8: "-1.43538429880861136629947469366537968683495783",
        9: "-0.734422547658796188626470927150919559094932796",
        12: "-0.896161626243250437897713060556482550038370748",
        15: "-0.388923462647492030882419131634302580363852826",
        16: "-1.05244197487783063087603096268891618323421945",
        24: "-0.615193004304460627541274709633631296826895339",
    },
    Fraction(2): {
        3: "1.2851909554841494029175117986995746039691784",
        4: "1.5067030099229850308865650481820713959854477",
        5: "1.09234966173096978239654781143520451580882371",
        8: "1.39947005050545500486882186519065771260783116",
        9: "1.15284805338408289926478156430781792669909196",
        12: "1.11798168534773851789797150384691702252290949",
        15: "1.022042091756555721588932099417761270238202",
        16: "1.37695303865795909486402395360596041202741323",
        24: "1.1064735804239265618055667646327180745352105",
    },
}


class TestPinnedDigits:
    """Printed digits at 50-digit precision, fixed so that a rewrite of the
    character enumeration cannot move any of them."""

    def test_residues(self):
        got = {m: mp.nstr(dedekind_zeta_residue(m), 45) for m in PINNED_RESIDUES}
        assert got == PINNED_RESIDUES

    def test_values(self):
        for x, pinned in PINNED_VALUES.items():
            got = {m: mp.nstr(dedekind_zeta_value(m, x), 45) for m in pinned}
            assert got == pinned, x
