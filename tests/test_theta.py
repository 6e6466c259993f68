import csv
import functools
import io
import itertools
import math
import multiprocessing
import pickle
import random
from fractions import Fraction

import pytest

import scan_reference
from conftest import all_abelian_groups, random_abelian_group
from malle_lab import theta
from malle_lab.groups import BudgetExceededError, make_group
from malle_lab.invariants import (
    GaloisActionSpec,
    WeightFn,
    a_invariant,
    nonidentity_orbits,
    nonvanishing_case,
    weight_spectrum,
)
from malle_lab.numerics import factorize
from malle_lab.theta import (
    SCAN_CAP,
    SubconvexityModel,
    dual_selmer_size,
    scan_cyclic,
    theta_at_D,
    theta_best,
    theta_ram,
    vertical_exponent,
)

DISC = WeightFn.disc()
RAM = WeightFn.ram()


def cyc(G):
    return GaloisActionSpec.cyclotomic(G)


class TestVerticalExponent:
    def test_lindelof_vanishes(self):
        G = make_group([12])
        orbs = nonidentity_orbits(G, cyc(G), DISC)
        assert vertical_exponent(orbs, SubconvexityModel.lindelof(), Fraction(1, 7)) == 0

    def test_c3_soehne_quarter(self):
        G = make_group([3])
        orbs = nonidentity_orbits(G, cyc(G), DISC)
        value = vertical_exponent(orbs, SubconvexityModel.soehne(), Fraction(1, 4))
        assert value == Fraction(1, 3)

    def test_vanishes_past_one_over_a(self):
        G = make_group([2, 4])
        orbs = nonidentity_orbits(G, cyc(G), DISC)
        a = a_invariant(G, cyc(G), DISC)
        for model in (SubconvexityModel.soehne(), SubconvexityModel.convexity()):
            assert vertical_exponent(orbs, model, 1 / a) == 0
            assert vertical_exponent(orbs, model, 1 / a + 1) == 0

    def test_requires_positive_sigma(self):
        G = make_group([3])
        orbs = nonidentity_orbits(G, cyc(G), DISC)
        with pytest.raises(ValueError):
            vertical_exponent(orbs, SubconvexityModel.soehne(), Fraction(0))


class TestThetaAtD:
    def test_c3_at_four(self):
        G = make_group([3])
        assert theta_at_D(G, cyc(G), DISC, SubconvexityModel.soehne(), 4) == Fraction(5, 16)

    def test_c4_at_three(self):
        G = make_group([4])
        assert theta_at_D(G, cyc(G), DISC, SubconvexityModel.soehne(), 3) == Fraction(7, 20)

    def test_lindelof_at_2a(self):
        for G in (make_group([4]), make_group([2, 6]), make_group([9])):
            a = a_invariant(G, cyc(G), DISC)
            value = theta_at_D(G, cyc(G), DISC, SubconvexityModel.lindelof(), 2 * a)
            assert value == 1 / (2 * a)

    def test_rejects_out_of_range(self):
        G = make_group([4])
        with pytest.raises(ValueError):
            theta_at_D(G, cyc(G), DISC, SubconvexityModel.soehne(), 1)
        with pytest.raises(ValueError):
            theta_at_D(G, cyc(G), DISC, SubconvexityModel.soehne(), 5)

    def test_exactness_is_rational(self):
        G = make_group([2, 6])
        value = theta_at_D(G, cyc(G), DISC, SubconvexityModel.soehne(), 8)
        assert isinstance(value, Fraction)


class TestThetaBest:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_cyclic_closed_form(self, p):
        G = make_group([p])
        result = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne())
        assert result.bound == Fraction(p + 2, (p - 1) * (p + 5))

    def test_c4(self):
        G = make_group([4])
        result = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne())
        assert result.bound == Fraction(5, 16)
        assert result.witness_d == 4
        assert dict(result.candidates) == {
            Fraction(2): Fraction(1, 2),
            Fraction(3): Fraction(7, 20),
            Fraction(4): Fraction(5, 16),
        }

    def test_bound_is_min_of_candidates(self, rng):
        for _ in range(20):
            G = random_abelian_group(rng, 80)
            result = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne())
            assert result.bound == min(v for _, v in result.candidates)

    def test_strict_power_saving(self, rng):
        for _ in range(20):
            G = random_abelian_group(rng, 120)
            a = a_invariant(G, cyc(G), DISC)
            for model in (
                SubconvexityModel.soehne(),
                SubconvexityModel.convexity(),
                SubconvexityModel.lindelof(),
            ):
                assert theta_best(G, cyc(G), DISC, model).bound < 1 / a

    def test_monotone_in_model(self, rng):
        for _ in range(25):
            G = random_abelian_group(rng, 100)
            lind = theta_best(G, cyc(G), DISC, SubconvexityModel.lindelof()).bound
            soehne = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne()).bound
            conv = theta_best(G, cyc(G), DISC, SubconvexityModel.convexity()).bound
            assert lind <= soehne <= conv

    def test_candidate_table_unimodal(self):
        # the bound is monotone between consecutive candidates with at most
        # one sign change (decreasing then increasing), so the minimum sits
        # at a candidate and no interior candidate is a local max; exact
        # second differences can be negative (C45 is a counterexample), so
        # unimodality is the invariant checked here
        for G in all_abelian_groups(60):
            result = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne())
            pts = sorted(result.candidates)
            diffs = [v2 - v1 for (_, v1), (_, v2) in zip(pts, pts[1:])]
            seen_increase = False
            for step in diffs:
                if step > 0:
                    seen_increase = True
                else:
                    assert not seen_increase, f"{G}: bound rose then fell"

    def test_custom_model_table(self):
        G = make_group([3])
        rep = nonidentity_orbits(G, cyc(G), DISC)[0].representative
        custom = SubconvexityModel.custom({rep: Fraction(1, 3)})
        assert (
            theta_best(G, cyc(G), DISC, custom).bound
            == theta_best(G, cyc(G), DISC, SubconvexityModel.soehne()).bound
        )

    def test_orbit_equals_element_level_for_every_candidate(self):
        # a preset's classes are counted from the element orders; they equal
        # the sums of 2 mu over the enumerated orbits of each weight, under
        # the cyclotomic action and under a twist whose orbits are not the units'
        C2xC2 = make_group([2, 2])
        swap = GaloisActionSpec(C2xC2, ((((0, 1), (1, 0)), 1),))
        for G, action in [(G, cyc(G)) for G in all_abelian_groups(64)] + [(C2xC2, swap)]:
            for wt in (DISC, RAM):
                for kind in ("soehne", "convexity", "lindelof"):
                    for deg in (1, 2):
                        model = SubconvexityModel(kind, deg)
                        sums = {}
                        for o in nonidentity_orbits(G, action, wt):
                            sums[o.weight] = sums.get(o.weight, 0) + 2 * model.mu(o)
                        classes, k = theta._orbit_classes(G, action, wt, model)
                        per_weight = [(w, Fraction(c, k)) for w, c in classes]
                        assert per_weight == sorted(sums.items()), (G, action, wt, model)

    def test_custom_mu_table_errors(self):
        G = make_group([6])
        reps = [o.representative for o in nonidentity_orbits(G, cyc(G), DISC)]
        partial = SubconvexityModel.custom({r: Fraction(1, 3) for r in reps[1:]})
        with pytest.raises(KeyError) as missing:
            theta_best(G, cyc(G), DISC, partial)
        assert missing.value.args == (f"no mu entry for orbit of {reps[0]}",)
        negative = SubconvexityModel.custom({**{r: Fraction(1, 3) for r in reps}, reps[-1]: -1})
        with pytest.raises(ValueError) as below_zero:
            theta_best(G, cyc(G), DISC, negative)
        assert below_zero.value.args == ("mu values must be nonnegative",)

    def test_custom_mu_lookup_keeps_equality(self):
        # the lookup a model builds on its first orbit is no field: a used
        # model still equals, and hashes as, a fresh one of the same table
        G = make_group([5])
        mapping = {o.representative: Fraction(1, 4) for o in nonidentity_orbits(G, cyc(G), DISC)}
        used = SubconvexityModel.custom(mapping)
        first = theta_best(G, cyc(G), DISC, used)
        fresh = SubconvexityModel.custom(mapping)
        assert used == fresh and hash(used) == hash(fresh)
        assert theta_best(G, cyc(G), DISC, used) == first == theta_best(G, cyc(G), DISC, fresh)

    def test_unknown_model_rejected(self):
        for kind in ("foo", "custom"):  # a custom model needs its mu table
            with pytest.raises(ValueError, match="unknown model"):
                SubconvexityModel(kind)

    def test_action_of_another_group_rejected(self):
        # the preset classes read no orbit, so the action's group is checked up front
        with pytest.raises(ValueError, match="different group"):
            theta_best(make_group([4]), cyc(make_group([2])), DISC, SubconvexityModel.soehne())


class TestThetaMin:
    @staticmethod
    def _models(G, wt, deg, rng):
        """The three presets and two seeded custom models with mu >= 0, some 0."""
        models = [SubconvexityModel(kind, deg) for kind in ("soehne", "convexity", "lindelof")]
        reps = [o.representative for o in nonidentity_orbits(G, cyc(G), wt)]
        for _ in range(2):
            mu = {r: Fraction(rng.randint(0, 4), rng.randint(1, 6)) for r in reps}
            models.append(SubconvexityModel.custom(mu, deg))
        return models

    def test_turning_point_is_the_table_minimum(self):
        # theta_best's first minimum and its linear table against the full table
        rng = random.Random(13)
        for G in all_abelian_groups(64):
            for wt in (DISC, RAM):
                for deg in (1, 2):
                    for model in self._models(G, wt, deg, rng):
                        classes, k = theta._orbit_classes(G, cyc(G), wt, model)
                        table, best = scan_reference.theta_table(classes, k)
                        result = theta_best(G, cyc(G), wt, model)
                        assert result.witness_d == best[0], (G, model)
                        assert result.candidates == tuple((D, Fraction(n, d)) for D, n, d in table)

    def test_flat_piece_takes_its_first_weight(self):
        # C4 with 2 mu = 2 on its weight-3 orbit: the slope past D = 3 is 0,
        # so theta(3) = theta(4) and the first minimum is D = 3
        G = make_group([4])
        reps = {o.weight: o.representative for o in nonidentity_orbits(G, cyc(G), DISC)}
        model = SubconvexityModel.custom({reps[2]: Fraction(1, 5), reps[3]: Fraction(1)})
        result = theta_best(G, cyc(G), DISC, model)
        values = dict(result.candidates)
        assert values[3] == values[4] == result.bound
        assert result.witness_d == 3

    def test_degree_below_one_rejected(self):
        rep = nonidentity_orbits(make_group([3]), cyc(make_group([3])), DISC)[0].representative
        for deg in (0, -1):
            for make in (
                SubconvexityModel.soehne,
                SubconvexityModel.convexity,
                SubconvexityModel.lindelof,
                lambda d: SubconvexityModel.custom({rep: Fraction(1, 3)}, d),
            ):
                with pytest.raises(ValueError, match="at least 1"):
                    make(deg)
        with pytest.raises(ValueError, match="at least 1"):
            theta_ram(make_group([4]), -2)  # 6 + deg (|G| - 1) = 0


class TestIntKernel:
    """Presets run the theta kernel on ints; custom tables keep Fractions."""

    @staticmethod
    def _reference(G, action, wt, model):
        """(candidates, (D, num, den) at the first minimum) from Fractions alone:
        the sums of 2 mu over the enumerated orbits of each weight, at k = 1."""
        sums = {}
        for o in nonidentity_orbits(G, action, wt):
            sums[o.weight] = sums.get(o.weight, Fraction(0)) + 2 * model.mu(o)
        table, best = scan_reference.theta_table(sorted(sums.items()), 1)
        return tuple((D, num / den) for D, num, den in table), best

    @staticmethod
    def _cases(G):
        """(weight, model) over the presets at deg_k 1 and 2 under disc and ram,
        one custom mu table under each, and a preset under a custom weight table."""
        for wt in (DISC, RAM):
            for kind in ("soehne", "convexity", "lindelof"):
                for deg in (1, 2):
                    yield wt, SubconvexityModel(kind, deg)
            reps = [o.representative for o in nonidentity_orbits(G, cyc(G), wt)]
            yield wt, SubconvexityModel.custom(
                {r: Fraction(i % 3, i + 2) for i, r in enumerate(reps)}
            )
        orders = [e for e in range(2, G.exponent + 1) if G.exponent % e == 0]
        yield WeightFn.custom(G, {e: Fraction(e + 1, 2) for e in orders}), SubconvexityModel.soehne()

    def test_parity_with_fraction_reference(self):
        for G in all_abelian_groups(64):
            for wt, model in self._cases(G):
                candidates, (D_min, num, den) = self._reference(G, cyc(G), wt, model)
                result = theta_best(G, cyc(G), wt, model)
                assert result.candidates == candidates, (G, wt, model)
                assert result.bound == num / den and result.witness_d == D_min, (G, wt, model)
                assert type(result.bound) is Fraction and type(result.witness_d) is Fraction
                for D, value in result.candidates:
                    assert type(D) is Fraction and type(value) is Fraction
                    at_D = theta_at_D(G, cyc(G), wt, model, D)
                    assert at_D == value and type(at_D) is Fraction, (G, wt, model, D)
            for deg in (1, 2):
                _, (_, num, den) = self._reference(G, cyc(G), RAM, SubconvexityModel.soehne(deg))
                assert theta_ram(G, deg) == num / den, (G, deg)

    def test_presets_feed_the_kernel_ints(self, monkeypatch):
        calls = []

        def check(classes, k):
            assert type(k) is int, k
            for w, c in classes:
                assert type(w) is int and type(c) is int, (w, c)
            calls.append(k)

        candidate_table = theta._candidate_table

        def guarded_table(classes, k):
            check(classes, k)
            return candidate_table(classes, k)

        monkeypatch.setattr(theta, "_candidate_table", guarded_table)
        for G in all_abelian_groups(32):
            for wt in (DISC, RAM):
                for kind in ("soehne", "convexity", "lindelof"):
                    for deg in (1, 2):
                        theta_best(G, cyc(G), wt, SubconvexityModel(kind, deg))
            theta_ram(G)
        assert len(calls) == len(all_abelian_groups(32)) * (12 + 1)


class TestThetaRam:
    @pytest.mark.parametrize(
        "factors,deg,expected",
        [
            ([4], 1, Fraction(2, 3)),
            ([2, 2], 1, Fraction(2, 3)),
            ([2], 1, Fraction(4, 7)),
            ([6], 2, 1 - Fraction(3, 16)),
        ],
    )
    def test_closed_form(self, factors, deg, expected):
        assert theta_ram(make_group(factors), deg) == expected

    def test_random_pairs_agree_with_optimizer(self, rng):
        for _ in range(20):
            G = random_abelian_group(rng, 60)
            deg = rng.randint(1, 4)
            value = theta_ram(G, deg)
            assert value == 1 - Fraction(3, 6 + deg * (G.order - 1))

    def test_lindelof_variant(self):
        G = make_group([2, 2])
        best = theta_best(G, cyc(G), RAM, SubconvexityModel.lindelof())
        assert best.bound == Fraction(1, 2)


class TestScan:
    def test_rows_match_generic_path(self):
        report = scan_cyclic(120)
        rows = {r.n: r for r in report.rows}
        for n in (4, 6, 9, 12, 30, 60, 100):
            G = make_group([n])
            best = theta_best(G, cyc(G), DISC, SubconvexityModel.soehne())
            assert rows[n].theta == best.bound

    def test_case_is_first_classified_index(self):
        # the row's case is that of the first index d > a with theta < 1/d
        # whose pole the classifier proves non-vanishing
        rows = {r.n: r for r in scan_cyclic(200).rows}
        for n, row in rows.items():
            G = make_group([n])
            inds = [int(d) for d in weight_spectrum(G, cyc(G), DISC)]
            cases = [
                nonvanishing_case(G, d) for d in inds[1:] if row.theta < Fraction(1, d)
            ]
            case = next((c for c in cases if c != "none"), "none")
            assert (row.case, row.flag_ii) == (case, case != "none"), n

    def test_leaves_factorize_cache_empty(self):
        # rad(n) comes from the scan's own sieve, not from the global cache
        factorize.cache_clear()
        scan_cyclic(3000)
        assert factorize.cache_info().currsize == 0

    def test_known_families_flag(self):
        # 6M reveals its secondary term for every M coprime to 6; 4M does so
        # when the smallest prime of M is at least 7: at ell = 5 the bound
        # 5/(16M) + 3/(32 M ell - 48 M) exceeds 1/(3M) (19/280 > 1/15 at
        # M = 5), so C_20-type groups genuinely stay unflagged
        report = scan_cyclic(600)
        rows = {r.n: r for r in report.rows}
        for m in (1, 5, 7, 11, 13, 25, 35, 49, 77, 91):
            n = 6 * m
            if n < 600:
                assert rows[n].flag_ii, f"C_{n} should reveal a secondary term"
        for m in (1, 7, 11, 13, 49, 77, 91, 119, 133):
            n = 4 * m
            if n < 600:
                assert rows[n].flag_ii, f"C_{n} should reveal a secondary term"
        for n in (20, 100, 140, 220, 260, 460, 580):
            assert not rows[n].flag_i, f"C_{n} bound cannot reveal 1/(3M)"

    def test_lindelof_scan_flags_everything(self):
        report = scan_cyclic(300, SubconvexityModel.lindelof())
        assert report.count_i == report.composite_count

    def test_block_tasks_carry_no_phi(self, monkeypatch):
        # the workers get phi once, from the pool initializer; a task is its bounds
        sizes = []

        class InlinePool:
            def __init__(self, jobs, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                for task in tasks:
                    sizes.append(len(pickle.dumps(task)))
                    yield func(task)

        class InlineContext:
            Pool = InlinePool

        monkeypatch.setattr(theta, "_worker_phi", [])
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: InlineContext)
        assert scan_cyclic(20000, jobs=2).rows == scan_cyclic(20000, jobs=1).rows
        assert len(sizes) > 1 and max(sizes) < 1024

    def test_one_block_forks_no_pool(self, monkeypatch):
        # n_max = 200 is one block, so four jobs run it serially
        def no_pool(method):
            raise AssertionError("a pool was opened for a single block")

        serial = scan_cyclic(200, jobs=1).rows
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert scan_cyclic(200, jobs=4).rows == serial

    def test_workers_return_plain_tuples(self, monkeypatch):
        # rows leave a worker as plain tuples and become ScanRows in the parent
        # when .rows is read, so a ScanRow that cannot be pickled (the forked
        # workers inherit the patch) does not stop the pool
        serial = scan_cyclic(3000, jobs=1).rows

        def no_pickle(self):
            raise AssertionError("a ScanRow was pickled")

        monkeypatch.setattr(theta.ScanRow, "__getnewargs__", no_pickle)
        with pytest.raises(AssertionError, match="was pickled"):
            pickle.dumps(serial[0])
        rows = scan_cyclic(3000, jobs=2).rows
        assert rows == serial
        assert all(type(r) is theta.ScanRow for r in rows)

    def test_csv_bytes_for_every_flag_and_case(self, tmp_path):
        # every (flag_i, case) pair, with one- and many-digit ints, as csv.writer
        # writes them with theta as str(Fraction)
        cases = ("none", "case_i", "case_ii", "case_iii", "case_iv")
        rows = [
            theta.ScanRow(n, n - n // 2, 10**12 + n, num, den, flag_i, case)
            for n, (flag_i, case) in enumerate(itertools.product((False, True), cases), start=4)
            for num, den in ((1, 3), (10**9 + 7, 2**61 - 1))
        ]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["n", "a", "d2", "theta", "flag_i", "flag_ii", "case"])
        for r in rows:
            flag_ii = int(r.case != "none")
            theta_s = str(Fraction(r.num, r.den))
            writer.writerow([r.n, r.a, r.d2, theta_s, int(r.flag_i), flag_ii, r.case])
        for written in (rows, [tuple(r) for r in rows]):
            out = tmp_path / "rows.csv"
            theta.write_scan_csv(str(out), written)
            assert out.read_bytes() == expected.getvalue().encode()

    def test_theta_in_lowest_terms(self):
        for r in scan_cyclic(3000).rows:
            assert math.gcd(r.num, r.den) == 1 and r.den > 1, r

    def test_parallel_matches_serial(self):
        serial = scan_cyclic(1500, jobs=1)
        parallel = scan_cyclic(1500, jobs=3)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["soehne", "convexity", "lindelof"])
    @pytest.mark.parametrize("n_max", [4, 5, 6, 17, 257, 3000])
    def test_rows_match_reference(self, n_max, kind, jobs):
        # 5, 17 and 257 end their last block at the square 4, 16 and 256
        model = SubconvexityModel(kind)
        report = scan_cyclic(n_max, model, jobs=jobs)
        assert list(report.rows) == _reference_rows(n_max, kind)
        assert report.composite_count == len(report.rows)

    def test_blocks_with_square_edges(self):
        # blocks that start, end or stop one short of a square m^2
        n_max = 1700
        phi = theta._phi_sieve(n_max)
        edges = sorted({4, n_max} | {m * m + t for m in range(3, 41) for t in (-1, 0, 1)})
        rows = []
        for lo, hi in zip(edges, edges[1:]):
            rows += theta._scan_block(lo, hi, 1, 3, phi)
        expected = _reference_rows(n_max, "soehne")
        assert [(n, a, d2, Fraction(num, den), flag_i, case != "none", case)
                for n, a, d2, num, den, flag_i, case in rows] == [
            (r.n, r.a, r.d2, r.theta, r.flag_i, r.flag_ii, r.case) for r in expected
        ]

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            scan_cyclic(3)

    def test_empty_scan_has_no_fractions(self):
        # n < 4 holds no composite, so the shares are undefined, not a division by 0
        report = scan_cyclic(4)
        assert report.composite_count == 0 and report.table == report.rows == ()
        summary = report.summary()
        assert summary["fraction_i"] is None and summary["fraction_ii"] is None
        assert (summary["count_i"], summary["count_ii"]) == (0, 0)
        assert scan_cyclic(5).fraction_i == 1.0  # C_4 alone, flagged

    def test_rows_are_built_once_from_the_table(self):
        report = scan_cyclic(3000)
        assert all(type(row) is tuple for row in report.table)
        rows = report.rows
        assert report.rows is rows
        assert rows == tuple(map(theta.ScanRow._make, report.table))
        assert all(type(row) is theta.ScanRow for row in rows)

    def test_rejects_jobs_below_one(self):
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="at least 1"):
                scan_cyclic(100, jobs=jobs)

    def test_bound_above_the_cap(self, monkeypatch):
        def no_sieve(n):
            raise AssertionError("the sieve ran before the cap was checked")

        monkeypatch.setattr(theta, "_phi_sieve", no_sieve)
        for jobs in (1, 2):
            with pytest.raises(BudgetExceededError, match="exceeds the cap"):
                scan_cyclic(SCAN_CAP + 1, jobs=jobs)

    def test_rejects_custom_model(self):
        G = make_group([3])
        rep = nonidentity_orbits(G, cyc(G), DISC)[0].representative
        with pytest.raises(ValueError):
            scan_cyclic(100, SubconvexityModel.custom({rep: Fraction(1, 3)}))


@functools.lru_cache(maxsize=None)
def _reference_rows(n_max, kind):
    return scan_reference.scan_rows(n_max, SubconvexityModel(kind))


class TestDualSelmer:
    def test_rationals_always_trivial(self):
        for factors in ([2], [3], [4], [2, 2], [6], [5, 5], [2, 4]):
            assert dual_selmer_size(1, 0, 2, make_group([]), make_group(factors)) == 1

    def test_real_quadratic_two_groups(self):
        for n in (1, 2, 3):
            G = make_group([2] * n)
            assert dual_selmer_size(2, 0, 2, make_group([]), G) == 1

    def test_imaginary_quadratic_c2(self):
        assert dual_selmer_size(0, 1, 2, make_group([]), make_group([2])) == 2

    def test_formula_with_class_group(self):
        # |Hom(Cl, G)| enters multiplicatively
        assert (
            dual_selmer_size(1, 0, 2, make_group([3]), make_group([3]))
            == dual_selmer_size(1, 0, 2, make_group([]), make_group([3])) * 3
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dual_selmer_size(0, 0, 2, make_group([]), make_group([2]))
        with pytest.raises(ValueError):
            dual_selmer_size(1, 0, 3, make_group([]), make_group([2]))
