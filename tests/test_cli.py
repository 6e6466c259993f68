import csv
import io
import json
import os
from contextlib import redirect_stdout

from malle_lab import cli, series, theta
from malle_lab.cli import run
from malle_lab.oracle import BudgetExceededError


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
        assert doc["composite_count"] == 152
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 152
        assert rows[0]["n"] == "4" and rows[0]["theta"] == "5/16"

    def test_jobs_below_one_is_usage_error(self):
        # --jobs -2 ran serially
        for jobs in ("0", "-2"):
            assert invoke(["scan-cyclic", "--max", "200", "--jobs", jobs])[0] == 2

    def test_jobs_default_to_every_core(self, monkeypatch):
        seen = []

        def record(n_max, model, jobs):
            seen.append(jobs)
            return theta.scan_cyclic(n_max, model)

        monkeypatch.setattr(cli, "scan_cyclic", record)
        payload(["scan-cyclic", "--max", "50"])
        assert seen == [os.cpu_count() or 1]

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
