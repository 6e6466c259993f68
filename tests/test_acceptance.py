"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 3 (the composite-n scan percentages) is a known red: the
implemented bound reproduces every closed form the optimizer is built from,
but the two published scan fractions are not reachable from it; the
"Known red" section of README.md carries the analysis.
"""

import math
import random
import time
from fractions import Fraction

from mpmath import mp

from lattice_bfs import full_subgroup, moebius_subgroup, span, subgroup_lattice
from malle_lab.groups import make_group
from malle_lab.invariants import GaloisActionSpec, WeightFn, a_invariant
from malle_lab.numerics import primes_up_to, smallest_prime_factor
from malle_lab.oracle import count_surjections
from malle_lab.series import (
    local_factor,
    nonvanishing_limit,
    residue_main_term,
    series_coefficients,
)
from malle_lab.tauberian import (
    StepSequence,
    TauberianParams,
    sandwich_check,
    saving_exponent,
)
from malle_lab.theta import (
    SubconvexityModel,
    dual_selmer_size,
    scan_cyclic,
    theta_at_D,
    theta_best,
    theta_ram,
)

DISC = WeightFn.disc()
RAM = WeightFn.ram()


def cyc(G):
    return GaloisActionSpec.cyclotomic(G)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_prime_cyclic_theta():
    start = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        G = make_group([p])
        bound = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne()).bound
        ok = ok and bound == Fraction(p + 2, (p - 1) * (p + 5))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, "theta(C_p) = (p+2)/((p-1)(p+5)) for p in {3,5,7,11,13}", ok, f"{elapsed:.2f}s")


def test_criterion_02_closed_form_families():
    ok = True
    details = []
    for M in (5, 7, 11, 25, 35):
        ell = smallest_prime_factor(M)
        G4 = make_group([4 * M])
        D4 = Fraction(4 * M * (ell - 1), ell)
        value4 = theta_at_D(G4, cyc(G4), DISC, SubconvexityModel.soehne(), D4)
        expected4 = Fraction(5, 16 * M) + Fraction(3, 32 * M * ell - 48 * M)
        best4 = theta_best(G4, cyc(G4), DISC, SubconvexityModel.soehne()).bound
        ok = ok and value4 == expected4 and best4 <= value4

        G6 = make_group([6 * M])
        if M % 5:
            D6, expected6 = Fraction(5 * M), Fraction(13, 57 * M)
        else:
            D6, expected6 = Fraction(24 * M, 5), Fraction(62, 267 * M)
        value6 = theta_at_D(G6, cyc(G6), DISC, SubconvexityModel.soehne(), D6)
        best6 = theta_best(G6, cyc(G6), DISC, SubconvexityModel.soehne()).bound
        ok = ok and value6 == expected6 and best6 <= value6
        details.append(f"M={M}")
    _report(2, "C_4M and C_6M bounds match their closed forms exactly", ok, " ".join(details))


def test_criterion_03_composite_scan():
    start = time.monotonic()
    report = scan_cyclic(20000, SubconvexityModel.soehne())
    elapsed = time.monotonic() - start
    fi, fii = 100 * report.fraction_i, 100 * report.fraction_ii
    ok = abs(fi - 48.5) <= 0.5 and abs(fii - 39.4) <= 0.5 and elapsed < 120
    _report(
        3,
        "scan_cyclic(20000) fractions within 0.5pp of 48.5% and 39.4%",
        ok,
        f"got {fi:.2f}% and {fii:.2f}% in {elapsed:.1f}s",
    )


def test_criterion_04_lindelof_bound():
    rng = random.Random(404)
    ok = True
    for _ in range(50):
        while True:
            factors = [rng.randint(2, 100) for _ in range(rng.randint(1, 3))]
            G = make_group(factors)
            if 2 <= G.order <= 100:
                break
        a = a_invariant(G, cyc(G), DISC)
        result = theta_best(G, cyc(G), DISC, SubconvexityModel.lindelof())
        ok = ok and result.bound == 1 / (2 * a) and result.witness_d == 2 * a
    _report(4, "Lindelof model gives exactly 1/(2a) for 50 random groups", ok)


def test_criterion_05_ram_bound():
    rng = random.Random(505)
    ok = True
    for _ in range(20):
        while True:
            factors = [rng.randint(2, 40) for _ in range(rng.randint(1, 3))]
            G = make_group(factors)
            if 2 <= G.order <= 200:
                break
        deg = rng.randint(1, 5)
        value = theta_ram(G, deg)  # asserts agreement with the optimizer
        ok = ok and value == 1 - Fraction(3, 6 + deg * (G.order - 1))
    _report(5, "theta_ram equals 1 - 3/(6 + degK(|G|-1)) and the optimizer agrees", ok)


def test_criterion_06_c3_local_factors():
    G = make_group([3])
    ok = local_factor(G, 3).terms == ((2, 4),)
    for p in primes_up_to(10**4):
        if p == 3:
            continue
        expected = ((2, 2),) if p % 3 == 1 else ()
        if local_factor(G, p).terms != expected:
            ok = False
            break
    _report(6, "C_3 Euler factors match the displayed product for all p <= 10^4", ok)


def test_criterion_07_oracle_equals_series():
    start = time.monotonic()
    ok = True
    details = []
    for factors in ([2], [3], [4], [2, 2], [5], [6]):
        G = make_group(factors)
        coeffs = series_coefficients(G, 10**4, surjective=True)
        hist = dict(count_surjections(G, 10**4, histogram=True).histogram)
        same = coeffs == hist
        ok = ok and same
        details.append(f"{G}:{'=' if same else '!='}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _report(7, "series coefficients equal oracle histograms up to 10^4", ok,
            f"{' '.join(details)} in {elapsed:.0f}s")


def test_criterion_08_main_term_regression():
    C2 = make_group([2])
    oracle2 = count_surjections(C2, 10**6).surjections
    pred2 = float(residue_main_term(C2, 10**5).predict(10**6))
    err2 = abs(pred2 / oracle2 - 1)

    C3 = make_group([3])
    oracle3 = count_surjections(C3, 10**7).surjections
    pred3 = float(residue_main_term(C3, 10**5).predict(10**7))
    err3 = abs(pred3 / oracle3 - 1)

    ok = err2 < 0.01 and err3 < 0.05
    _report(8, "main-term predictions match oracle counts (1% at 1e6, 5% at 1e7)", ok,
            f"C2 err {100*err2:.4f}% C3 err {100*err3:.3f}%")


def test_criterion_09_nonvanishing_signs():
    ok = True
    details = []
    checks = [
        ([4], 3, lambda r: r.sign == 1),
        ([6], 4, lambda r: r.sign == -1),
        ([4], 3, lambda r: r.sign != 0),
        ([6], 5, lambda r: r.sign != 0),
        ([9], 8, lambda r: r.sign != 0),
    ]
    for factors, d, predicate in checks:
        G = make_group(factors)
        rep = nonvanishing_limit(G, d, 10**5)
        good = predicate(rep) and rep.sign_stable
        # error bar excluding zero: every checkpoint on the same side with a margin
        margin = min(abs(v) for _, v in rep.checkpoints)
        good = good and margin > mp.mpf("1e-6")
        ok = ok and good
        details.append(f"{G},d={d}:{'+' if rep.sign > 0 else '-'}")
    _report(9, "non-vanishing limits have stable nonzero signs at P=1e5", ok, " ".join(details))


def test_criterion_10_moebius_sieve_identity():
    rng = random.Random(1010)
    primes = primes_up_to(50)
    ok = True
    for factors in ([12], [2, 4]):
        G = make_group(factors)
        lattice = subgroup_lattice(G)
        mu = {H.elements: moebius_subgroup(H, G) for H in lattice}
        top = full_subgroup(G).elements
        # mu is Hall's closed form on the subgroups over Frattini(G) and 0
        # elsewhere; it must satisfy the lattice recursion at every subgroup
        for H in lattice:
            total = sum(mu[K.elements] for K in lattice if H.elements <= K.elements)
            if total != (1 if H.elements == top else 0):
                ok = False
        for _ in range(100):
            f = {(H.elements, p): rng.uniform(0, 0.5) for H in lattice for p in primes}
            lhs = 0.0
            for Z in lattice:
                prod = 1.0
                for p in primes:
                    prod *= 1.0 + sum(
                        f[(Y.elements, p)] for Y in lattice if Y.elements <= Z.elements
                    )
                lhs += mu[Z.elements] * prod
            dp = {"empty": 1.0}
            for p in primes:
                new = dict(dp)
                for state, weight in dp.items():
                    for Y in lattice:
                        contrib = weight * f[(Y.elements, p)]
                        joined = (
                            Y.elements
                            if state == "empty"
                            else span(G, tuple(state) + tuple(Y.elements)).elements
                        )
                        new[joined] = new.get(joined, 0.0) + contrib
                dp = new
            rhs = sum(mu[Z.elements] for Z in lattice) + dp.get(top, 0.0)
            if not abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs)):
                ok = False
    _report(10, "Moebius recursion and poset sieve identity on C_12 and C_2xC_4 (100 random f each)", ok)


def test_criterion_11_tauberian_layer():
    rng = random.Random(1111)
    ok = True
    for _ in range(1000):
        length = rng.randint(1, 25)
        seq = StepSequence.from_pairs(
            [(n, rng.uniform(0, 4)) for n in range(1, length + 1)]
        )
        k = rng.randint(1, 5)
        y = rng.uniform(0.2, 10)
        x = rng.uniform(k * y + 0.5, k * y + 200)
        _, _, holds = sandwich_check(seq, k, y, x)
        ok = ok and holds

    hand = {
        (0, 1): Fraction(1) - Fraction(1, 1),       # sigma - delta
        (1, 3): Fraction(1) - Fraction(3, 7),       # sigma - 3 delta/7
        (2, 5): Fraction(1) - Fraction(4, 16),      # sigma - 4 delta/16
    }
    for (xi, k), expected in hand.items():
        params = TauberianParams(Fraction(1), Fraction(1), Fraction(xi), k)
        ok = ok and saving_exponent(params).error_exponent == expected

    # convergence of the saving to delta/(xi+1): the gap at finite k is
    # delta xi (m+1) / ((xi+1)((k+1)xi + k - m)), so delta = 1/1000 puts
    # k = 10^6 within 1e-9 for xi in {0, 1, 2}
    delta = Fraction(1, 1000)
    for xi in (0, 1, 2):
        params = TauberianParams(Fraction(1), delta, Fraction(xi), 10**6)
        out = saving_exponent(params)
        gap = abs((params.sigma_a - out.error_exponent) - delta / (xi + 1))
        ok = ok and gap < Fraction(1, 10**9)
    _report(11, "sandwich holds on 1000 fuzzed sequences; exponents exact and convergent", ok)


def test_criterion_12_dual_selmer():
    ok = True
    for factors in ([2], [3], [4], [2, 2], [6]):
        ok = ok and dual_selmer_size(1, 0, 2, make_group([]), make_group(factors)) == 1
    for n in (1, 2, 3):
        ok = ok and dual_selmer_size(2, 0, 2, make_group([]), make_group([2] * n)) == 1
    _report(12, "dual Selmer group is trivial over Q and for real-quadratic C_2^n", ok)
