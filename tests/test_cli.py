import csv
import io
import json
import os
from contextlib import redirect_stdout

from malle_lab import cli
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

    def test_trivial_group_usage_error(self):
        assert invoke(["invariants", "C1"])[0] == 2

    def test_malformed_group(self):
        assert invoke(["theta", "Q8"])[0] == 2

    def test_budget_error(self):
        # coefficient bound beyond the configured cap
        assert invoke(["coeffs", "C2", "--max", "10000000"])[0] == 3

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


class TestSeriesAndCoeffs:
    def test_series_value(self):
        doc = payload(["series", "C3", "--s", "3/4", "--pmax", "500"])
        assert doc["factorization"] == [[3, 2]]
        assert float(doc["value"]) > 1

    def test_series_divergence_is_usage_error(self):
        assert invoke(["series", "C3", "--s", "1/2", "--pmax", "100"])[0] == 2

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


class TestPrecisionEnv:
    def test_env_override(self):
        os.environ["MALLE_LAB_PRECISION"] = "30"
        try:
            doc = payload(["theta", "C3"])
            assert doc["manifest"]["precision"] == 30
        finally:
            del os.environ["MALLE_LAB_PRECISION"]
