"""End-to-end command line tests via subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from chainopt import decompose, validate_stochastic, write_matrix_text
from chainopt.harness import study_matrix

from conftest import NINE_STATE_ROWS


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "chainopt", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=180,
    )


@pytest.fixture
def nine_state_file(tmp_path):
    path = tmp_path / "nine.txt"
    write_matrix_text(validate_stochastic(np.asarray(NINE_STATE_ROWS)), path)
    return path


@pytest.fixture
def seven_state_file(tmp_path):
    path = tmp_path / "seven.txt"
    write_matrix_text(study_matrix(), path)
    return path


class TestDecompose:
    def test_nine_state_json(self, nine_state_file):
        proc = cli("decompose", "--matrix", str(nine_state_file))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload == {
            "classes": [[1, 2, 3, 4], [5, 6, 7]],
            "periods": [2, 3],
            "transient": [8, 9],
            "delta": 6,
        }

    def test_seven_state_json(self, seven_state_file):
        proc = cli("decompose", "--matrix", str(seven_state_file))
        payload = json.loads(proc.stdout)
        assert payload["periods"] == [2, 1]
        assert payload["delta"] == 2
        assert payload["transient"] == []

    def test_missing_file_is_json_error(self, tmp_path):
        proc = cli("decompose", "--matrix", str(tmp_path / "absent.txt"))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "message"}

    def test_invalid_matrix_is_json_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0.5 0.6\n0 1\n")
        proc = cli("decompose", "--matrix", str(path))
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "RowSumError"
        assert "row 1" in err["message"]

    def test_rejected_layout_is_json_error(self, tmp_path):
        path = tmp_path / "commented.txt"
        path.write_text("2\n# a comment\n0.5 0.5\n0 1\n")
        proc = cli("decompose", "--matrix", str(path))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert str(path) in err["message"]


class TestDecay:
    def test_nine_state_fits(self, nine_state_file):
        proc = cli("decay", "--matrix", str(nine_state_file), "--kmax", "40")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["matrix"]["beta_hat"] > 0.0
        assert payload["matrix"]["rmse"] < 0.5
        assert payload["transient"]["beta_hat"] > 0.0

    def test_identity_reports_degenerate(self, tmp_path):
        path = tmp_path / "eye.txt"
        write_matrix_text(validate_stochastic(np.eye(3)), path)
        proc = cli("decay", "--matrix", str(path))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "DegenerateFitError"


class TestWeights:
    def test_matches_library(self, seven_state_file, tmp_path):
        init1 = tmp_path / "i1.txt"
        init1.write_text("1 0 0 0 0 0 0\n")
        init2 = tmp_path / "i2.txt"
        init2.write_text("0 0 0 0 1 0 0\n")
        proc = cli(
            "weights",
            "--matrix", str(seven_state_file),
            "--init", str(init1),
            "--init", str(init2),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        from chainopt.harness import study_weights

        _, expected = study_weights()
        assert np.allclose(payload["weights"], expected, atol=1e-12)

    def test_single_chain(self, seven_state_file, tmp_path):
        init = tmp_path / "i.txt"
        init.write_text("0 0 0 0 1 0 0\n")
        proc = cli("weights", "--matrix", str(seven_state_file), "--init", str(init))
        payload = json.loads(proc.stdout)
        w = np.asarray(payload["weights"])
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(w[:4], 0.0)

    def test_bad_distribution_is_json_error(self, seven_state_file, tmp_path):
        init = tmp_path / "i.txt"
        init.write_text("1 1 0 0 0 0 0\n")
        good = tmp_path / "good.txt"
        good.write_text("1 0 0 0 0 0 0\n")
        proc = cli(
            "weights", "--matrix", str(seven_state_file), "--init", str(good), "--init", str(init)
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidDistributionError"
        assert str(init) in err["message"]

    def test_unparseable_distribution_names_file(self, seven_state_file, tmp_path):
        init = tmp_path / "i.txt"
        init.write_text("1 0 0 x 0 0 0\n")
        proc = cli("weights", "--matrix", str(seven_state_file), "--init", str(init))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert str(init) in err["message"]


class TestWeaklyCoupledPair:
    """[[1-e, e], [e, 1-e]] at e = 1e-4, whose matrix squares drift off the simplex."""

    @pytest.fixture
    def pair_file(self, tmp_path):
        e = 1e-4
        path = tmp_path / "pair.txt"
        write_matrix_text(validate_stochastic([[1.0 - e, e], [e, 1.0 - e]]), path)
        return path

    def test_decompose_succeeds(self, pair_file):
        proc = cli("decompose", "--matrix", str(pair_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "classes": [[1, 2]], "periods": [1], "transient": [], "delta": 1,
        }

    def test_weights_succeed(self, pair_file, tmp_path):
        init = tmp_path / "i.txt"
        init.write_text("1 0\n")
        proc = cli("weights", "--matrix", str(pair_file), "--init", str(init))
        assert proc.returncode == 0
        weights = np.asarray(json.loads(proc.stdout)["weights"])
        assert np.max(np.abs(weights - 0.5)) <= 1e-12

    def test_decay_fits_exact_rate(self, pair_file):
        # P^k approaches the uniform limit exactly as (1 - 2e)^k
        proc = cli("decay", "--matrix", str(pair_file))
        assert proc.returncode == 0
        beta_hat = json.loads(proc.stdout)["matrix"]["beta_hat"]
        assert beta_hat == pytest.approx(-np.log1p(-2e-4), rel=1e-6)


class TestRun:
    def test_tiny_suite(self, tmp_path):
        out = tmp_path / "suite"
        proc = cli(
            "run",
            "--method", "m3",
            "--test", "1",
            "--budget", "400",
            "--seeds", "0,1",
            "--out", str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["out"] == str(out)
        assert payload["seeds"] == 2
        assert "median_best_f" in payload
        assert (out / "m3_test1_seed0.csv").exists()
        assert (out / "m3_test1_seed1.csv").exists()
        summary = json.loads((out / "m3_test1_summary.json").read_text())
        assert summary["method"] == "m3"
        assert summary["seeds"] == [0, 1]

    def test_constant_schedule_flag(self, tmp_path):
        out = tmp_path / "suite"
        proc = cli(
            "run",
            "--method", "m1",
            "--test", "5",
            "--schedule", "constant",
            "--lambda", "1e-3",
            "--budget", "300",
            "--seeds", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0
        summary = json.loads((out / "m1_test5_summary.json").read_text())
        assert summary["schedule"] == {"kind": "constant", "lam": 1e-3}
        assert summary["chains"] == 2

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--schedule", "constant", "--a", "3"], "a"),
            (["--schedule", "constant", "--xi", "0.8"], "xi"),
            (["--lambda", "1e-3"], "lam"),
        ],
        ids=["a-constant", "xi-constant", "lambda-diminishing"],
    )
    def test_flag_for_other_schedule_is_json_error(self, tmp_path, flags, name):
        out = tmp_path / "x"
        proc = cli(
            "run", "--method", "m1", "--test", "1", *flags,
            "--budget", "10", "--seeds", "0", "--out", str(out),
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert f"override {name}=" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--schedule", "constant", "--lambda", "nan"], "stepsize must be finite"),
            (["--a", "inf"], "scale a must be positive and finite"),
            (["--seeds", "0,-1"], "seed must be a non-negative integer, got -1"),
        ],
        ids=["lambda-nan", "a-inf", "negative-seed"],
    )
    def test_bad_value_is_json_error_before_writing(self, tmp_path, flags, message):
        out = tmp_path / "x"
        proc = cli(
            "run", "--method", "m1", "--test", "1", "--budget", "10", *flags, "--out", str(out),
        )
        assert proc.returncode == 1
        assert message in json.loads(proc.stderr)["message"]
        assert not out.exists()

    def test_bad_test_number(self, tmp_path):
        proc = cli(
            "run", "--method", "m1", "--test", "9",
            "--budget", "10", "--seeds", "0", "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "UnknownTestError"

    def test_unparseable_seeds(self, tmp_path):
        proc = cli(
            "run", "--method", "m1", "--test", "1",
            "--budget", "10", "--seeds", "0,two", "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "InvalidSpecError"
