import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secsource import channels, cli, modelio, probability, regions
from secsource.probability import ModelError, Pmf, SourceModel, bsc

ROOT = Path(__file__).resolve().parents[1]
DEMO_MODEL = str(ROOT / "demos" / "models" / "binary_instance.json")
DEMO_AUX = str(ROOT / "demos" / "models" / "aux_identity.json")
GAUSSIAN_RHOS = ["--rho-x", "0.9", "--rho-y", "0.8", "--rho-z", "0.95", "--alphas", "0.5"]


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

    def test_label_keys_ignored(self, tmp_path):
        # Label lists are not part of the model; a file that has them parses
        # to the same model as one without.
        data = json.loads(Path(DEMO_MODEL).read_text())
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps({**data, "x_labels": ["a", "b"], "z_labels": ["0"]}))
        modelio.write_model(modelio.parse_model(path), tmp_path / "a.json")
        modelio.write_model(modelio.parse_model(DEMO_MODEL), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_schema_version_checked(self, tmp_path):
        # JSON true and 1.0 compare equal to 1 but are not the integer version.
        data = json.loads(Path(DEMO_MODEL).read_text())
        path = tmp_path / "v.json"
        for schema in (2, True, 1.0):
            path.write_text(json.dumps({**data, "schema": schema}))
            with pytest.raises(ModelError, match=f"has schema {schema!r}; expected 1"):
                modelio.parse_model(path)

    @pytest.mark.parametrize("case, message", [
        ("malformed_json", "malformed model file"),
        ("not_an_object", "must hold a JSON object"),
        ("missing_matrix", "model file is missing 'p_yz_given_x'"),
        ("non_numeric_matrix", "p_xtilde_given_x: entries must be numbers"),
        ("non_numeric_p_x", "p_x: entries must be numbers"),
        ("non_numeric_reconstruction", "reconstruction entries must be numbers"),
        ("missing_p_x", "model file is missing 'p_x'"),
        ("fractional_y_size", "model file needs integer 'y_size' and 'z_size'"),
        ("boolean_y_size", "got y_size = True"),
        ("boolean_z_size", "got z_size = True"),
        # A cast reads JSON true and false as 1.0 and 0.0, so each of these
        # once parsed: the pmf [1, 0], the identity channel, the map [[0, 0], [1, 1]].
        ("boolean_p_x", "p_x: entries must be numbers, not booleans"),
        ("boolean_p_xtilde_given_x", "p_xtilde_given_x: entries must be numbers, not booleans"),
        ("boolean_p_y_given_x", "p_y_given_x: entries must be numbers, not booleans"),
        ("boolean_reconstruction", "reconstruction entries must be numbers, not booleans"),
        ("channel_inputs_differ", "channel pair must share the input alphabet"),
    ])
    def test_malformed_files_refused(self, tmp_path, case, message):
        data = json.loads(Path(DEMO_MODEL).read_text())
        parse = modelio.parse_model
        if case == "missing_matrix":
            del data["p_yz_given_x"]
        elif case == "non_numeric_matrix":
            data["p_xtilde_given_x"] = [["a", "b"], ["c", "d"]]
        elif case == "non_numeric_p_x":
            data["p_x"] = {"a": 1}
        elif case == "missing_p_x":
            del data["p_x"]
        elif case == "fractional_y_size":
            data["y_size"] = 2.0
        elif case == "boolean_p_x":
            data["p_x"] = [True, 0.0]
        elif case == "boolean_p_xtilde_given_x":
            data["p_xtilde_given_x"] = [[True, False], [False, True]]
        elif case == "boolean_p_y_given_x":
            data = {"schema": 1, "p_y_given_x": [[1, False], [0.3, 0.7]],
                    "p_z_given_x": [[0.9, 0.1], [0.1, 0.9]]}
            parse = modelio.parse_channel_pair
        elif case == "non_numeric_reconstruction":
            data = {**json.loads(Path(DEMO_AUX).read_text()), "reconstruction": "ab"}
            parse = modelio.parse_aux
        elif case == "boolean_reconstruction":
            data = {**json.loads(Path(DEMO_AUX).read_text()),
                    "reconstruction": [[0, False], [1, True]]}
            parse = modelio.parse_aux
        elif case.startswith("boolean_"):
            data[case.removeprefix("boolean_")] = True
        elif case == "channel_inputs_differ":
            data = {"schema": 1, "p_y_given_x": [[0.7, 0.3], [0.3, 0.7]],
                    "p_z_given_x": [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]}
            parse = modelio.parse_channel_pair
        text = {"malformed_json": "{\"schema\": 1,", "not_an_object": "[1, 2]"}.get(
            case, json.dumps(data))
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ModelError, match=message) as raised:
            parse(path)
        assert type(raised.value) is ModelError

    def test_integer_entries_accepted(self, tmp_path):
        # JSON 0 and 1 are numbers; only true and false are refused.
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"schema": 1, "p_y_given_x": [[1, 0], [0, 1]],
                                    "p_z_given_x": [[1, 0], [0.5, 0.5]]}))
        p_y, _ = modelio.parse_channel_pair(path)
        assert p_y.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        data = json.loads(Path(DEMO_AUX).read_text())
        path.write_text(json.dumps({**data, "reconstruction": [[0, 0], [1, 1]]}))
        assert modelio.parse_aux(path).reconstruction.tolist() == [[0, 0], [1, 1]]

    def test_aux_identity_file_parses(self):
        # Its p_q_given_v is the one form an aux file may hold, the constant.
        scheme = modelio.parse_aux(DEMO_AUX)
        assert scheme.u_size == 2 and scheme.v_size == 1
        assert scheme.p_q_given_v.rows.tolist() == [[1.0]]

    def test_aux_file_with_a_live_p_q_given_v_refused(self, tmp_path):
        # No bound depends on Q, so a two-column P(Q|V) is refused by name
        # rather than dropped.
        data = json.loads(Path(DEMO_AUX).read_text())
        path = tmp_path / "aux.json"
        path.write_text(json.dumps({**data, "p_q_given_v": [[0.5, 0.5]]}))
        with pytest.raises(ModelError, match="p_q_given_v") as raised:
            modelio.parse_aux(path)
        assert type(raised.value) is ModelError


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
            "--u-size", "3", "--v-size", "1", "--q-size", "1",
            "--seed", "1",
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
                "--u-size", "3", "--v-size", "1", "--q-size", "1",
                "--seed", "9",
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

    def test_check_channel_undecided_lp_fails_cleanly(self, capsys, monkeypatch):
        # An undecided LP (singular basis, pivot cap, open duality gap) is an
        # error line and exit 1, not a traceback.
        def undecided(*args):
            raise RuntimeError("degradedness LP hit a singular basis")

        monkeypatch.setattr(channels, "_simplex", undecided)
        rc = cli.main(["check-channel", "--model", DEMO_MODEL])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "check-channel: error: degradedness LP hit a singular basis\n"

    def test_alphabet_above_sufficient_bound_fails_before_search(
        self, tmp_path, capsys, model_file, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(regions, "_PosteriorLP", never)
        out = tmp_path / "never.csv"
        rc = cli.main(["compute-region", "--model", str(model_file), "--u-size", "26",
                       "--targets", "0.1", "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "u_size=26 exceeds the sufficient bound 25" in capsys.readouterr().err

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

    @pytest.mark.parametrize("args, message", [
        (["compute-region", "--model", DEMO_MODEL, "--targets", "0.1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["simulate", "--model", DEMO_MODEL, "--aux", DEMO_AUX, "--n", "12",
          "--epsilon", "0.1", "--trials", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["gaussian", *GAUSSIAN_RHOS, "--samples", "5", "--seed", "-3"],
         "--seed must be >= 0, got -3"),
        (["gaussian", *GAUSSIAN_RHOS, "--samples", "-5"], "--samples must be >= 0, got -5"),
        (["check-channel", "--model", DEMO_MODEL, "--seed", "-1"],
         "--seed must be >= 0, got -1"),
    ])
    def test_negative_seed_or_samples_fails_with_flag(self, tmp_path, capsys, args, message):
        # A negative seed once failed with numpy's message, which names no
        # flag; negative samples once skipped the MMSE check and exited 0.
        out = tmp_path / "never.csv"
        output = [] if args[0] == "check-channel" else ["--output", str(out)]
        assert cli.main([*args, *output]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{args[0]}: error: {message}" in captured.err

    @pytest.mark.parametrize("recon, distortion", [([[0, 0], [1, 1]], "0"),
                                                   ([[1, 1], [0, 0]], "1")])
    def test_simulate_reads_reconstruction_map(self, tmp_path, recon, distortion):
        # U = Xt: the map xhat = u is exact, its complement always wrong.
        aux = tmp_path / "aux.json"
        data = json.loads(Path(DEMO_AUX).read_text())
        aux.write_text(json.dumps({**data, "reconstruction": recon}))
        out = tmp_path / "s.csv"
        rc = cli.main(["simulate", "--model", DEMO_MODEL, "--aux", str(aux), "--n", "60",
                       "--epsilon", "0.15", "--trials", "40", "--seed", "4",
                       "--output", str(out)])
        assert rc == 0
        _, rows = _read_csv(out)
        assert rows[0][1] == "0" and rows[0][2] == distortion

    def test_simulate_rejects_misshapen_reconstruction_map(self, tmp_path, capsys):
        aux = tmp_path / "aux.json"
        data = json.loads(Path(DEMO_AUX).read_text())
        aux.write_text(json.dumps({**data, "reconstruction": [[0, 0, 0], [1, 1, 1]]}))
        out = tmp_path / "never.csv"
        rc = cli.main(["simulate", "--model", DEMO_MODEL, "--aux", str(aux), "--n", "12",
                       "--epsilon", "0.1", "--trials", "2", "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "reconstruction map must be (|U|, |Y|)" in capsys.readouterr().err

    @pytest.mark.parametrize("recon, message", [
        # A -1 once wrapped to the last symbol, a 5 ended in an IndexError
        # traceback and fractions were truncated to 0 and 1.
        ([[0, -1], [1, 1]], "reconstruction entries must be non-negative integers"),
        ([[0, 5], [1, 1]], "reconstruction map entry 5 is outside the metric's 2"),
        ([[0.9, 0.2], [1.7, 1]], "reconstruction entries must be non-negative integers"),
        ([[0, float("nan")], [1, 1]], "reconstruction entries must be non-negative integers"),
    ])
    def test_simulate_rejects_malformed_reconstruction_map(self, tmp_path, capsys, recon,
                                                           message):
        aux = tmp_path / "aux.json"
        data = json.loads(Path(DEMO_AUX).read_text())
        aux.write_text(json.dumps({**data, "reconstruction": recon}))
        out = tmp_path / "never.csv"
        rc = cli.main(["simulate", "--model", DEMO_MODEL, "--aux", str(aux), "--n", "12",
                       "--epsilon", "0.1", "--trials", "20", "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("simulate: error: ") and message in line

    def test_lossless_region_identity_aux_matches_default(self, tmp_path, monkeypatch):
        # The identity aux file's constant P(V|U), read as P(V|Xt), is the
        # default constant V layer.  Neither run builds a joint.
        def never(*args, **kwargs):
            raise AssertionError("a joint was built")

        for name in ("extend_with_auxiliaries", "lossy_point"):
            monkeypatch.setattr(regions, name, never)
        monkeypatch.setattr(probability, "build_joint", never)
        monkeypatch.setattr(probability.JointPmf, "__post_init__", never)
        rows = []
        for name, extra in (("plain.csv", []), ("aux.csv", ["--aux", DEMO_AUX])):
            out = tmp_path / name
            assert cli.main(["lossless-region", "--model", DEMO_MODEL, *extra,
                             "--output", str(out)]) == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("p_u", [
        # A noisy P(U|Xt) was dropped silently: rs came out as at U = Xt.
        [[0.9, 0.1], [0.1, 0.9]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])
    def test_lossless_region_refuses_aux_other_than_identity(self, tmp_path, capsys, p_u):
        aux = tmp_path / "aux.json"
        aux.write_text(json.dumps({"schema": 1, "p_u_given_xtilde": p_u}))
        out = tmp_path / "never.csv"
        rc = cli.main(["lossless-region", "--model", DEMO_MODEL, "--aux", str(aux),
                       "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lossless-region: error: lossless aux file must give "
                                       "p_u_given_xtilde as the identity")

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
    def test_readme_commands_leave_scipy_unloaded(self, tmp_path):
        # Importing scipy.optimize or scipy.special costs a CLI call up to half
        # a second; no README command may load any part of scipy.
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "schema": 1,
            "p_y_given_x": (bsc(0.1).rows @ bsc(0.2).rows).tolist(),
            "p_z_given_x": bsc(0.1).rows.tolist(),
        }))
        out = str(tmp_path / "out.csv")
        commands = [
            ["compute-region", "--model", DEMO_MODEL, "--targets", "0.1", "--u-size", "3",
             "--v-size", "1", "--q-size", "1", "--r0", "0", "--seed", "7", "--output", out],
            ["lossless-region", "--model", DEMO_MODEL, "--r0", "0", "--output", out],
            ["gaussian", *GAUSSIAN_RHOS, "--samples", "1000", "--output", out],
            # n = 400 runs the collision engine, as in the README.
            ["simulate", "--model", DEMO_MODEL, "--aux", DEMO_AUX, "--n", "400",
             "--epsilon", "0.15", "--r0", "0", "--trials", "3", "--seed", "3", "--output", out],
            ["check-channel", "--model", DEMO_MODEL],
            ["check-channel", "--channels", str(pair)],
        ]
        code = ("import json, sys; from secsource.cli import main; "
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(codes, sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        res = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"

    def test_each_command_loads_only_its_layers(self, tmp_path):
        # A layer is imported on first use: a bare import loads none (and no
        # numpy), --help loads no numpy, and each command only its own layers.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        loaded = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('secsource.'))"

        def run(code, *args):
            res = subprocess.run([sys.executable, "-c", f"import sys\n{code}", *args], env=env,
                                 capture_output=True, text=True, check=True)
            return json.loads(res.stdout.splitlines()[-1])

        assert run(f"import json, secsource; print(json.dumps({loaded}))") == []
        assert run(
            "import json, secsource\n"
            "names = secsource.__all__\n"
            "ok = [getattr(secsource, n) is getattr(sys.modules[getattr(secsource, n).__module__], n)"
            " for n in names]\n"
            "try:\n    secsource.no_such_name\n    unknown = 'resolved'\n"
            "except AttributeError:\n    unknown = 'AttributeError'\n"
            "print(json.dumps([len(names), all(ok), set(names) <= set(dir(secsource)), unknown,"
            " secsource.trace_region is secsource.regions.trace_region]))"
        ) == [42, True, True, "AttributeError", True]
        assert run("import json\nfrom secsource.cli import main\ntry:\n    main(['--help'])\n"
                   f"except SystemExit as exit:\n    print(json.dumps([exit.code, {loaded}]))"
                   ) == [0, ["secsource.cli"]]

        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"schema": 1, "p_y_given_x": [[0.7, 0.3], [0.3, 0.7]],
                                    "p_z_given_x": [[0.9, 0.1], [0.1, 0.9]]}))
        out = str(tmp_path / "out.csv")
        region = {"cli", "modelio", "probability", "regions", "channels"}
        channel = {"cli", "modelio", "probability", "channels"}
        cases = [
            (["compute-region", "--model", DEMO_MODEL, "--targets", "0.1", "--u-size", "3",
              "--output", out], region),
            (["lossless-region", "--model", DEMO_MODEL, "--output", out], region),
            (["gaussian", *GAUSSIAN_RHOS, "--output", out],
             {"cli", "gaussian", "probability", "regions", "channels"}),
            (["simulate", "--model", DEMO_MODEL, "--aux", DEMO_AUX, "--n", "12", "--epsilon",
              "0.15", "--trials", "2", "--output", out], region | {"binning"}),
            (["check-channel", "--model", DEMO_MODEL, "--trials", "2"], channel),
            (["check-channel", "--channels", str(pair), "--trials", "2"], channel),
        ]
        for argv, layers in cases:
            got = run("import json\nfrom secsource.cli import main\nrc = main(sys.argv[1:])\n"
                      f"print(json.dumps([rc, {loaded}]))", *argv)
            assert got == [0, sorted({"numpy"} | {f"secsource.{m}" for m in layers})], argv
