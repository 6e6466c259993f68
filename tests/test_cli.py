import argparse
import csv
import io
import json
import os
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

import scan_reference
from test_scripts import _python

from malle_lab import cli, series, theta
from malle_lab.cli import run
from malle_lab.groups import BudgetExceededError


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def payload(argv):
    code, out = invoke(argv)
    assert code == 0, out
    return json.loads(out)


class TestExitCodes:
    def test_success(self):
        assert invoke(["theta", "C3"])[0] == 0

    def test_unknown_subcommand(self):
        assert invoke(["frobnicate"])[0] == 2

    def test_trivial_group_usage_error(self, capsys):
        assert invoke(["invariants", "C1"])[0] == 2
        assert invoke(["theta", "C1"])[0] == 2
        assert "theta is undefined for the trivial group" in capsys.readouterr().err

    def test_malformed_group(self):
        assert invoke(["theta", "Q8"])[0] == 2

    def test_file_errors_are_usage_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x.csv")
        for argv in (
            ["coeffs", "C2", "--max", "10", "--out", missing],
            ["scan-cyclic", "--max", "100", "--out", missing],
            ["count", "C2", "--X", "100", "--histogram", missing],
            ["tauberian", "fit", "--counts", missing, "--main", "1*X"],
        ):
            assert invoke(argv)[0] == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and err.count("\n") == 1, argv

    def test_unwritable_output_fails_before_the_work(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the computation ran before the output was opened")

        for name in ("scan_cyclic", "count_surjections", "series_coefficients"):
            monkeypatch.setattr(cli, name, unreachable)
        missing = str(tmp_path / "missing" / "x.csv")
        for argv in (
            ["scan-cyclic", "--max", "200000", "--jobs", "1", "--out", missing],
            ["count", "C4", "--X", "100000000", "--histogram", missing],
            ["coeffs", "C2", "--max", "200000", "--out", missing],
        ):
            assert invoke(argv)[0] == 2, argv
            assert capsys.readouterr().err.startswith("usage error:"), argv

    def test_failed_run_keeps_an_existing_output(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("kept\n")
        assert invoke(["coeffs", "C2", "--max", "10000000", "--out", str(out)])[0] == 3
        assert out.read_text() == "kept\n"

    def test_unknown_model_is_usage_error(self, capsys):
        for argv in (
            ["theta", "C3", "--model", "foo"],
            ["scan-cyclic", "--max", "100", "--model", "custom"],
        ):
            assert invoke(argv)[0] == 2, argv
            assert "unknown model" in capsys.readouterr().err, argv

    def test_budget_error(self):
        # coefficient bound beyond the configured cap
        assert invoke(["coeffs", "C2", "--max", "10000000"])[0] == 3

    def test_degree_below_one_is_usage_error(self):
        # --degK -1 printed the bound 1/8, below the Lindelof 1/4
        for deg in ("0", "-1"):
            assert invoke(["theta", "C3", "--degK", deg])[0] == 2

    def test_oracle_budget_error(self, monkeypatch):
        def over_budget(*args, **kwargs):
            raise BudgetExceededError("node budget exhausted")

        monkeypatch.setattr(cli, "count_surjections", over_budget)
        assert invoke(["count", "C2", "--X", "10"])[0] == 3

    def test_empty_memory_error_names_its_type(self, monkeypatch, capsys):
        # a bare MemoryError has no message: "budget error: " said nothing
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "count_surjections", out_of_memory)
        assert invoke(["count", "C2", "--X", "10"])[0] == 3
        assert capsys.readouterr().err == "budget error: MemoryError\n"

    def test_oracle_sieve_past_the_budget(self):
        # the sieve bound 10^9 is past the default node budget, so the count
        # exits 3 before any prime is sieved
        assert invoke(["count", "C2", "--X", "1000000000"])[0] == 3

    def test_surjective_sieve_past_the_budget(self, capsys):
        # C2^10 has 229,755,605 sieve subgroups: their number is counted and
        # checked before any of them is listed or any prime is looped
        argv = ["series", "x".join(["C2"] * 10), "--s", "1", "--pmax", "10", "--surjective"]
        start = time.perf_counter()
        assert invoke(argv)[0] == 3
        assert time.perf_counter() - start < 1
        assert "229755605 sieve subgroups" in capsys.readouterr().err

    def test_count_with_no_prime_in_the_sieve(self):
        # a nontrivial local hom into C20011 multiplies disc by p^20010, so no
        # prime fits under 10^12 and nothing of the group is enumerated
        assert payload(["count", "C20011", "--X", "1000000000000"])["surjections"] == 0

    def test_count_of_a_huge_prime_cyclic_group(self):
        # the sieve bound is the (10^12 + 38)-th root of 10; a Newton step
        # from 2 built 2^(5 * 10^11) and ran out of memory
        start = time.perf_counter()
        assert payload(["count", "C1000000000039", "--X", "10"])["fields"] == 0
        assert time.perf_counter() - start < 5

    def test_count_of_a_large_prime_cyclic_group_under_ram(self):
        # 10,006 nontrivial homs at each of 7 primes, all onto C10007
        assert payload(["count", "C10007", "--X", "1000000", "--ordering", "ram"])["fields"] == 7


class TestManifest:
    def test_fields_present(self):
        doc = payload(["theta", "C3"])
        manifest = doc["manifest"]
        for key in ("command", "argv", "version", "precision", "wall_time_s", "output_sha256"):
            assert key in manifest
        assert manifest["command"] == "theta"

    def test_checksum_matches_payload(self):
        import hashlib

        doc = payload(["theta", "C5"])
        manifest = doc.pop("manifest")
        body = json.dumps(doc, sort_keys=True)
        assert manifest["output_sha256"] == hashlib.sha256(body.encode()).hexdigest()


class TestInvariants:
    def test_elementary_2_8_counts_its_sieve(self):
        # 417,199 sieve subgroups in 9 types; no subgroup is built
        doc = payload(["invariants", "x".join(["C2"] * 8)])
        assert doc["conjectured_pole_order"] == {"128": 255}


class TestTheta:
    def test_c3_bound_is_rational_string(self):
        doc = payload(["theta", "C3", "--model", "soehne"])
        assert doc["bound"] == "5/16"
        assert doc["witness_D"] == "4"

    def test_lindelof(self):
        doc = payload(["theta", "C2xC2", "--model", "lindelof"])
        assert doc["bound"] == "1/4"

    def test_ram_ordering(self):
        doc = payload(["theta", "C4", "--ordering", "ram"])
        assert doc["bound"] == "2/3"


class TestInvariants:
    def test_c4(self):
        doc = payload(["invariants", "C4"])
        assert doc["spectrum"] == ["2", "3"]
        assert doc["bbar"] == {"2": 1, "3": 1}

    def test_units_action(self):
        doc = payload(["invariants", "C9", "--action", "units=1"])
        assert doc["b"]["8"] == 6  # singleton orbits under the trivial action


class TestScan:
    def test_summary_and_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        doc = payload(["scan-cyclic", "--max", "200", "--out", str(out), "--jobs", "1"])
        assert set(doc) == {
            "n_max", "model", "composite_count", "count_i", "count_ii", "fraction_i",
            "fraction_ii", "flag_ii_by_case", "flag_i_by_n_mod_12", "csv", "manifest",
        }
        assert doc["composite_count"] == 152 and doc["csv"] == str(out)
        assert doc["flag_ii_by_case"] == {"case_ii": 46, "case_iii": 17}
        assert doc["flag_i_by_n_mod_12"] == {
            "0": 16, "3": 4, "4": 14, "5": 1, "6": 17, "7": 4, "8": 13, "9": 3, "11": 2,
        }
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 152
        assert rows[0]["n"] == "4" and rows[0]["theta"] == "5/16"
        # the tallies split the flagged rows of the CSV
        flag_i = Counter(str(int(r["n"]) % 12) for r in rows if r["flag_i"] == "1")
        flag_ii = Counter(r["case"] for r in rows if r["flag_ii"] == "1")
        assert doc["flag_i_by_n_mod_12"] == flag_i and sum(flag_i.values()) == doc["count_i"]
        assert doc["flag_ii_by_case"] == flag_ii and sum(flag_ii.values()) == doc["count_ii"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_csv_bytes_match_reference(self, tmp_path, jobs):
        # the reference rows through csv.writer and str(Fraction) pin the format
        out = tmp_path / "scan.csv"
        payload(["scan-cyclic", "--max", "3000", "--out", str(out), "--jobs", jobs])
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["n", "a", "d2", "theta", "flag_i", "flag_ii", "case"])
        for r in scan_reference.scan_rows(3000, theta.SubconvexityModel.soehne()):
            writer.writerow([r.n, r.a, r.d2, str(r.theta), int(r.flag_i), int(r.flag_ii), r.case])
        assert out.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_csv_builds_no_scan_row(self, tmp_path, monkeypatch, jobs):
        # the CSV comes from the report's plain tuples; the forked workers
        # inherit the patch, so neither they nor the parent build a ScanRow
        expected = tmp_path / "expected.csv"
        theta.write_scan_csv(str(expected), theta.scan_cyclic(3000).rows)

        def no_row(*args, **kwargs):
            raise AssertionError("a ScanRow was built")

        monkeypatch.setattr(theta.ScanRow, "_make", no_row)
        monkeypatch.setattr(theta.ScanRow, "__new__", no_row)
        out = tmp_path / "scan.csv"
        payload(["scan-cyclic", "--max", "3000", "--out", str(out), "--jobs", jobs])
        assert out.read_bytes() == expected.read_bytes()

    def test_empty_scan_exits_zero(self, tmp_path):
        # --max 4 holds no composite n: null shares and a CSV of the header alone
        out = tmp_path / "scan.csv"
        doc = payload(["scan-cyclic", "--max", "4", "--out", str(out), "--jobs", "1"])
        assert doc["composite_count"] == doc["count_i"] == doc["count_ii"] == 0
        assert doc["fraction_i"] is None and doc["fraction_ii"] is None
        assert out.read_bytes() == b"n,a,d2,theta,flag_i,flag_ii,case\r\n"

    def test_jobs_below_one_is_usage_error(self):
        # --jobs -2 ran serially
        for jobs in ("0", "-2"):
            assert invoke(["scan-cyclic", "--max", "200", "--jobs", jobs])[0] == 2

    def test_jobs_default_to_every_core(self, monkeypatch):
        seen = []

        def record(n_max, model, jobs):
            seen.append(jobs)
            return theta.scan_cyclic(n_max, model)

        # one worker per CPU of the affinity mask; the CPU count where there is no mask
        monkeypatch.setattr(cli, "scan_cyclic", record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        payload(["scan-cyclic", "--max", "50"])
        monkeypatch.delattr(os, "sched_getaffinity")
        payload(["scan-cyclic", "--max", "50"])
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        payload(["scan-cyclic", "--max", "50"])
        assert seen == [2, 5, 1]

    def test_bound_above_the_cap_is_budget_error(self, monkeypatch):
        def no_sieve(n):
            raise AssertionError("the sieve ran before the cap was checked")

        monkeypatch.setattr(theta, "_phi_sieve", no_sieve)
        assert invoke(["scan-cyclic", "--max", str(theta.SCAN_CAP + 1), "--jobs", "1"])[0] == 3


class TestSeriesAndCoeffs:
    def test_series_value(self):
        doc = payload(["series", "C3", "--s", "3/4", "--pmax", "500"])
        assert doc["factorization"] == [[3, 2]]
        assert float(doc["value"]) > 1

    def test_series_divergence_is_usage_error(self):
        assert invoke(["series", "C3", "--s", "1/2", "--pmax", "100"])[0] == 2

    def test_series_prime_bound_below_two_is_usage_error(self, capsys):
        assert invoke(["series", "C2", "--s", "2", "--pmax", "-5"])[0] == 2
        assert "at least 2" in capsys.readouterr().err

    def test_surjective_trivial_group_is_usage_error(self, capsys):
        argv = ["series", "C1", "--s", "2", "--pmax", "10", "--surjective"]
        assert invoke(argv)[0] == 2
        assert "trivial group" in capsys.readouterr().err

    def test_series_zero_denominator_is_usage_error(self, capsys):
        assert invoke(["series", "C2", "--s", "1/0", "--pmax", "100"])[0] == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_surjective_residual_is_usage_error(self, capsys):
        argv = ["series", "C2xC2", "--s", "1", "--pmax", "100", "--surjective", "--mode", "residual"]
        assert invoke(argv)[0] == 2
        assert "--mode residual" in capsys.readouterr().err

    def test_prime_bound_above_the_cap_is_budget_error(self, monkeypatch, capsys):
        def no_sieve(n):
            raise AssertionError("the primes were sieved before the cap was checked")

        monkeypatch.setattr(series, "primes_up_to", no_sieve)
        p_max = str(series.EULER_PRIME_CAP + 1)
        assert invoke(["series", "C2", "--s", "2", "--pmax", p_max])[0] == 3
        assert invoke(["sieve-check", "C4", "--d", "3", "--pmax", p_max])[0] == 3
        assert "exceeds the cap" in capsys.readouterr().err

    def test_coeffs_stdout(self):
        code, out = invoke(["coeffs", "C2", "--max", "10", "--surjective"])
        assert code == 0
        rows = dict(
            (int(a), int(b))
            for a, b in (line.split(",") for line in out.strip().splitlines()[1:])
        )
        assert rows == {3: 1, 4: 1, 5: 1, 7: 1, 8: 2}

    def test_count(self):
        doc = payload(["count", "C2", "--X", "10"])
        assert doc["surjections"] == 6

    def test_sieve_check(self):
        doc = payload(["sieve-check", "C6", "--d", "4", "--pmax", "1000"])
        assert doc["case"] == "case_iii"
        assert doc["sign"] == -1
        assert doc["sign_stable"] is True


class TestTauberianCli:
    def test_exponent(self):
        doc = payload(
            ["tauberian", "exponent", "--sigma", "1", "--delta", "1/2", "--xi", "0", "--k", "1"]
        )
        assert doc["error_exponent"] == "1/2"

    def test_fit(self, tmp_path):
        path = tmp_path / "counts.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["X", "N"])
            for x in [10 * 2**i for i in range(12)]:
                writer.writerow([x, 2.0 * x + x**0.5])
        doc = payload(["tauberian", "fit", "--counts", str(path), "--main", "2*X^1"])
        assert abs(doc["fitted_exponent"] - 0.5) < 0.05

    def test_fit_reads_every_number_form(self, tmp_path):
        # exponent and signed forms are samples, not headers to skip
        path = tmp_path / "counts.csv"
        xs = [10 * 2**i for i in range(12)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["X", "N"])
            for i, x in enumerate(xs):
                writer.writerow([f"{x:e}" if i % 2 else f"+{x}", 2.0 * x + x**0.5])
        doc = payload(["tauberian", "fit", "--counts", str(path), "--main", "2*X^1"])
        assert doc["samples"] == len(xs)
        assert abs(doc["fitted_exponent"] - 0.5) < 0.05

    def test_fit_rejects_malformed_rows(self, tmp_path, capsys):
        for bad in (["40"], ["forty", "81"], ["40", "81", "1"]):
            path = tmp_path / "counts.csv"
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerows([["X", "N"], [10, 23], bad, [80, 169]])
            code, _ = invoke(["tauberian", "fit", "--counts", str(path), "--main", "2*X^1"])
            assert code == 2, bad
            assert "line 3" in capsys.readouterr().err, bad


class TestPrecisionEnv:
    def test_env_override(self):
        os.environ["MALLE_LAB_PRECISION"] = "30"
        try:
            doc = payload(["theta", "C3"])
            assert doc["manifest"]["precision"] == 30
        finally:
            del os.environ["MALLE_LAB_PRECISION"]


def _without_wall_time(out: str) -> str:
    if not out:
        return out
    doc = json.loads(out)
    del doc["manifest"]["wall_time_s"]
    return json.dumps(doc, sort_keys=True)


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_runs_build_no_parser_after_the_first(self, monkeypatch):
        invoke(["theta", "C3"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["theta", "C3"], ["invariants", "C4"], ["count", "C4", "--X", "1000"]):
            assert invoke(argv)[0] == 0
        assert built == []

    def test_import_builds_no_parser(self, tmp_path):
        # a fresh interpreter: importing the CLI costs no parser, the first build does
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from malle_lab import cli\n"
            "print(len(built))\n"
            "cli.build_parser()\n"
            "print(len(built))\n"
        )
        on_import, on_build = map(int, _python(tmp_path, "-c", code).split())
        assert on_import == 0 and on_build > 0

    def test_runs_leave_no_state_in_the_parser(self, tmp_path, monkeypatch, capsys):
        histogram = str(tmp_path / "hist.csv")
        sequence = [
            ["count", "C4"],  # --X is required: exit 2
            ["count", "C4", "--X", "1000", "--histogram", histogram],
            ["count", "C4", "--X", "1000"],
            ["tauberian", "exponent", "--sigma", "1", "--delta", "1/2", "--xi", "0", "--k", "1"],
            ["theta", "C3"],
        ]

        def outcomes():
            rows = []
            for argv in sequence:
                code, out = invoke(argv)
                rows.append((code, _without_wall_time(out), capsys.readouterr().err))
            return rows

        shared = outcomes()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = outcomes()
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
        assert json.loads(shared[1][1])["histogram_csv"] == histogram
        assert "histogram_csv" not in json.loads(shared[2][1])
