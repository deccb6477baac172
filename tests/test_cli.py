import csv
import json
from pathlib import Path

import numpy as np
import pytest

from secsource import cli, modelio
from secsource.probability import ModelError, Pmf, SourceModel, bsc

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def model_file(tmp_path, binary_model):
    path = tmp_path / "binary.json"
    modelio.write_model(binary_model, path)
    return path


@pytest.fixture()
def aux_identity_file(tmp_path):
    path = tmp_path / "aux.json"
    path.write_text(json.dumps({
        "schema": 1,
        "p_u_given_xtilde": [[1.0, 0.0], [0.0, 1.0]],
    }))
    return path


@pytest.fixture()
def nan_model_file(tmp_path):
    """The demo binary instance with p_x replaced by [NaN, NaN]."""
    data = json.loads((ROOT / "demos" / "models" / "binary_instance.json").read_text())
    data["p_x"] = [float("nan"), float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    return path


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestModelIO:
    def test_roundtrip_exact(self, tmp_path, binary_model):
        path = tmp_path / "m.json"
        modelio.write_model(binary_model, path)
        again = modelio.parse_model(path)
        np.testing.assert_array_equal(again.px.probs, binary_model.px.probs)
        np.testing.assert_array_equal(again.meas_enc.rows, binary_model.meas_enc.rows)
        np.testing.assert_array_equal(
            again.meas_dec_eve.rows, binary_model.meas_dec_eve.rows
        )
        assert (again.y_size, again.z_size) == (2, 2)

    def test_bad_row_sum_rejected_with_row_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": 1,
            "p_x": [0.5, 0.5],
            "p_xtilde_given_x": [[0.9, 0.1], [0.59, 0.4]],
            "p_yz_given_x": [[0.25] * 4, [0.25] * 4],
            "y_size": 2, "z_size": 2,
        }))
        with pytest.raises(ModelError, match="row 1"):
            modelio.parse_model(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({
            "schema": 1,
            "p_x": [0.5, 0.5],
            "p_xtilde_given_x": [[0.9, 0.1], [0.1, 0.9]],
            "p_yz_given_x": [[1 / 3] * 3, [1 / 3] * 3, [1 / 3] * 3],
            "y_size": 2, "z_size": 2,
        }))
        with pytest.raises(ModelError):
            modelio.parse_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="not found"):
            modelio.parse_model(tmp_path / "absent.json")

    def test_non_finite_pmf_rejected(self, nan_model_file):
        with pytest.raises(ModelError, match="p_x: pmf entries must be finite"):
            modelio.parse_model(nan_model_file)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"schema": 2}))
        with pytest.raises(ModelError, match="schema"):
            modelio.parse_model(path)


class TestCommands:
    def test_gaussian_alpha_one_row(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main([
            "gaussian", "--rho-x", "0.9", "--rho-y", "0.8", "--rho-z", "0.95",
            "--alphas", "1", "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["alpha", "rw_bits", "rs_bits", "rl_bits", "d"]
        assert rows == [["1", "0", "0", "0", "0.4816"]]

    def test_gaussian_with_samples(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = cli.main([
            "gaussian", "--rho-x", "0.9", "--rho-y", "0.8", "--rho-z", "0.95",
            "--alphas", "0.5", "--samples", "20000", "--output", str(out),
        ])
        assert rc == 0
        assert "MMSE check" in capsys.readouterr().out

    def test_compute_region(self, tmp_path, model_file):
        out = tmp_path / "r.csv"
        rc = cli.main([
            "compute-region", "--model", str(model_file), "--r0", "0",
            "--targets", "0.1,0.3", "--output", str(out),
            "--u-size", "2", "--v-size", "1", "--q-size", "1",
            "--restarts", "3", "--seed", "1",
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["d", "rw_bits", "rs_bits", "rl_bits", "regime"]
        assert len(rows) == 2
        assert float(rows[0][1]) >= float(rows[1][1])  # rw non-increasing in d

    def test_compute_region_deterministic(self, tmp_path, model_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main([
                "compute-region", "--model", str(model_file),
                "--targets", "0.15", "--output", str(out),
                "--u-size", "2", "--v-size", "1", "--q-size", "1",
                "--restarts", "2", "--seed", "9",
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_lossless_region(self, tmp_path, model_file):
        out = tmp_path / "l.csv"
        rc = cli.main([
            "lossless-region", "--model", str(model_file), "--r0", "0",
            "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["d", "rw_bits", "rs_bits", "rl_bits", "regime"]
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == pytest.approx(0.826746, abs=1e-5)

    def test_simulate(self, tmp_path, model_file, aux_identity_file):
        out = tmp_path / "s.csv"
        rc = cli.main([
            "simulate", "--model", str(model_file), "--aux", str(aux_identity_file),
            "--n", "60", "--epsilon", "0.15", "--trials", "40",
            "--seed", "4", "--output", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out)
        assert header == ["n", "error_rate", "distortion",
                          "leak_secrecy_bits", "leak_privacy_bits"]
        assert rows[0][0] == "60"
        assert 0.0 <= float(rows[0][1]) <= 1.0

    def test_check_channel_feasible(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({
            "schema": 1,
            "p_y_given_x": [[0.7, 0.3], [0.3, 0.7]],
            "p_z_given_x": [[0.9, 0.1], [0.1, 0.9]],
        }))
        rc = cli.main(["check-channel", "--channels", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded: yes" in out
        assert "witness" in out

    def test_check_channel_falsified(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({
            "schema": 1,
            "p_y_given_x": [[0.9, 0.1], [0.1, 0.9]],
            "p_z_given_x": [[0.7, 0.3], [0.3, 0.7]],
        }))
        rc = cli.main(["check-channel", "--channels", str(path), "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded: no" in out
        assert "falsified" in out

    def test_check_channel_zero_trials_fails(self, tmp_path, capsys):
        # The arguments are checked before the degradedness LP, whatever the
        # pair, and zero trials are refused instead of silently running 200.
        not_degraded = ([[0.9, 0.1], [0.1, 0.9]], [[0.7, 0.3], [0.3, 0.7]])
        degraded = ([[0.66, 0.34], [0.34, 0.66]], [[0.9, 0.1], [0.1, 0.9]])
        path = tmp_path / "ch.json"
        for (p_y, p_z), flags, message in (
            (not_degraded, ["--trials", "0"], "trials must be >= 1"),
            (degraded, ["--trials", "0"], "trials must be >= 1"),
            (degraded, ["--l-size", "1"], "l_size must be >= 2"),
        ):
            path.write_text(json.dumps({"schema": 1, "p_y_given_x": p_y, "p_z_given_x": p_z}))
            rc = cli.main(["check-channel", "--channels", str(path), *flags])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"check-channel: error: {message}" in captured.err
        # Without the bad flag the degraded pair is certified and exits 0.
        assert cli.main(["check-channel", "--channels", str(path)]) == 0
        assert "degraded: yes" in capsys.readouterr().out

    def test_missing_model_fails_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = cli.main([
            "compute-region", "--model", str(tmp_path / "absent.json"),
            "--targets", "0.1", "--output", str(out),
        ])
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_non_finite_model_fails_with_message(self, tmp_path, capsys, nan_model_file):
        out = tmp_path / "never.csv"
        rc = cli.main([
            "compute-region", "--model", str(nan_model_file),
            "--targets", "0.1", "--output", str(out),
        ])
        assert rc == 1
        assert not out.exists()
        assert "p_x: pmf entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["compute-region", "--r0", "nan", "--targets", "0.1"], "r0=nan"),
        (["compute-region", "--targets", "nan,0.1"], "targets [nan, 0.1]"),
        (["compute-region", "--targets", "0.1,inf"], "targets [0.1, inf]"),
        (["lossless-region", "--r0", "nan"], "r0=nan must be finite"),
        (["simulate", "--r0", "nan", "--n", "12", "--epsilon", "0.1", "--trials", "2"],
         "r0=nan must be finite"),
        (["simulate", "--n", "12", "--epsilon", "nan", "--trials", "2"], "epsilon=nan"),
        (["simulate", "--n", "12", "--epsilon", "inf", "--trials", "2"], "epsilon=inf"),
        (["compute-region", "--u-size", "0", "--targets", "0.1"], "u_size must be >= 1, got 0"),
        (["compute-region", "--v-size", "0", "--targets", "0.1"], "v_size must be >= 1, got 0"),
        (["compute-region", "--q-size", "0", "--targets", "0.1"], "q_size must be >= 1, got 0"),
    ])
    def test_non_finite_rate_fails_with_message(self, tmp_path, capsys, model_file,
                                                aux_identity_file, args, message):
        # NaN passes an `r0 < 0` check: it once wrote leakages of 0 labelled
        # small_key, or died deep in the codec, as an infinite epsilon did.
        out = tmp_path / "never.csv"
        extra = ["--aux", str(aux_identity_file)] if args[0] == "simulate" else []
        rc = cli.main([*args, "--model", str(model_file), *extra, "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{args[0]}: error:" in err and message in err

    def test_oversized_grid_fails_fast(self, tmp_path, capsys, model_file):
        # Without --u-size the grid oracle would enumerate |U| = 25 rows.
        out = tmp_path / "never.csv"
        rc = cli.main([
            "compute-region", "--model", str(model_file), "--grid",
            "--targets", "0.1", "--output", str(out),
        ])
        assert rc == 1
        assert not out.exists()
        assert "above the limit" in capsys.readouterr().err


class TestImport:
    def test_import_leaves_slow_scipy_modules_unloaded(self):
        # scipy.stats, scipy.optimize and scipy.special cost up to a second
        # of every CLI call; only the functions that need them may import them.
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = ("import sys, secsource; "
                "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
