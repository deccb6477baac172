import math

import numpy as np
import pytest

from conftest import entropy_oracle, h2, random_model, star
from secsource.probability import (
    DimensionError,
    JointPmf,
    ModelError,
    Pmf,
    SourceModel,
    StochasticMatrix,
    bsc,
    build_joint,
)
from secsource.regions import AuxScheme, extend_with_auxiliaries


class TestConstruction:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ModelError):
            Pmf(np.array([1.1, -0.1]))

    def test_pmf_rejects_unnormalized(self):
        with pytest.raises(ModelError):
            Pmf(np.array([0.5, 0.49]))

    def test_pmf_accepts_tiny_slack(self):
        Pmf(np.array([0.5, 0.5 + 5e-13]))

    def test_matrix_row_invariants(self):
        with pytest.raises(ModelError):
            StochasticMatrix(np.array([[0.5, 0.5], [0.6, 0.6]]))

    def test_model_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            SourceModel(
                px=Pmf.uniform(2),
                meas_enc=StochasticMatrix.identity(3),
                meas_dec_eve=StochasticMatrix.identity(4),
                y_size=2,
                z_size=2,
            )

    def test_joint_axes_unique(self):
        with pytest.raises(DimensionError):
            JointPmf(("A", "A"), np.full((2, 2), 0.25))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            Pmf(np.array([np.nan, np.nan]))
        with pytest.raises(ModelError, match="finite"):
            Pmf(np.array([np.inf, 0.0]))
        with pytest.raises(ModelError, match="finite"):
            StochasticMatrix(np.array([[np.nan, np.nan]]))
        with pytest.raises(ModelError, match="finite"):
            JointPmf(("A",), np.array([np.nan, 1.0]))

    def test_immutability(self):
        p = Pmf.uniform(2)
        with pytest.raises(ValueError):
            p.probs[0] = 0.3


class TestBuildJoint:
    def test_noiseless_channels(self):
        model = SourceModel.from_channels(
            Pmf.uniform(2), StochasticMatrix.identity(2),
            StochasticMatrix.identity(2), StochasticMatrix.identity(2),
        )
        j = build_joint(model)
        expected = np.zeros((2, 2, 2, 2))
        expected[0, 0, 0, 0] = 0.5
        expected[1, 1, 1, 1] = 0.5
        np.testing.assert_allclose(j.table, expected)

    def test_bsc_product_entries(self, binary_model, binary_joint):
        # Oracle: explicit product of the three factors for every cell.
        enc, yz = binary_model.meas_enc.rows, binary_model.yz_table()
        for xt in range(2):
            for x in range(2):
                for y in range(2):
                    for z in range(2):
                        want = 0.5 * enc[x, xt] * yz[x, y, z]
                        assert binary_joint.table[xt, x, y, z] == pytest.approx(want, abs=1e-15)
        assert binary_joint.table[0, 0, 0, 0] == pytest.approx(0.252, abs=1e-15)

    def test_normalization(self, binary_joint):
        assert binary_joint.table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_markov_chain_by_construction(self, binary_joint):
        assert binary_joint.mutual_information(("Xt",), ("Y", "Z"), ("X",)) <= 1e-12


class TestMarginal:
    def test_identity(self, binary_joint):
        m = binary_joint.marginal(("Xt", "X", "Y", "Z"))
        np.testing.assert_allclose(m.table, binary_joint.table)

    def test_keep_x_uniform(self, binary_joint):
        np.testing.assert_allclose(
            binary_joint.marginal(("X",)).table, [0.5, 0.5], atol=1e-15
        )

    def test_keep_xt_uniform(self, binary_joint):
        # 0.5 * 0.9 + 0.5 * 0.1 per symbol under the symmetric channel.
        np.testing.assert_allclose(
            binary_joint.marginal(("Xt",)).table, [0.5, 0.5], atol=1e-15
        )

    def test_reproduces_px(self):
        # Exact up to the float rounding of the channel-row products.
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = random_model(rng, nx=3, nxt=2, ny=2, nz=3)
            j = build_joint(model)
            np.testing.assert_allclose(
                j.marginal(("X",)).table, model.px.probs, rtol=0, atol=1e-15
            )

    def test_unknown_name(self, binary_joint):
        with pytest.raises(DimensionError):
            binary_joint.marginal(("W",))


class TestEntropy:
    def test_uniform_binary(self):
        j = JointPmf(("A",), np.array([0.5, 0.5]))
        assert j.entropy() == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        j = JointPmf(("A",), np.array([1.0, 0.0]))
        assert j.entropy() == 0.0

    def test_quarter_three_quarter(self):
        j = JointPmf(("A",), np.array([0.25, 0.75]))
        want = entropy_oracle([0.25, 0.75])
        assert want == pytest.approx(0.811278, abs=5e-7)
        assert j.entropy() == pytest.approx(want, abs=1e-12)


class TestConditionalMutualInformation:
    def test_independent(self):
        j = JointPmf(("A", "B"), np.outer([0.3, 0.7], [0.6, 0.4]))
        assert j.mutual_information(("A",), ("B",)) == 0.0

    def test_identical_uniform(self):
        j = JointPmf(("A", "B"), np.eye(2) / 2)
        assert j.mutual_information(("A",), ("B",)) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_point_two(self, binary_joint):
        want = 1.0 - h2(0.2)
        assert want == pytest.approx(0.278072, abs=5e-7)
        got = binary_joint.mutual_information(("X",), ("Y",))
        assert got == pytest.approx(want, abs=1e-12)

    def test_overlap_rejected(self, binary_joint):
        with pytest.raises(DimensionError):
            binary_joint.mutual_information(("X",), ("X", "Y"))

    def test_conditioning_variable(self, binary_joint):
        # I(Y;Z|X) = 0 by construction (product channel).
        assert binary_joint.mutual_information(("Y",), ("Z",), ("X",)) <= 1e-12


def _random_joint(rng, max_axes=4, max_size=4):
    n_axes = rng.integers(2, max_axes + 1)
    sizes = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n_axes))
    names = tuple("ABCD"[: n_axes])
    table = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointPmf(names, table)


class TestPropertySuite:
    def test_chain_rule_and_nonnegativity(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            j = _random_joint(rng, max_axes=3)
            names = j.names
            a, b = names[0], names[1]
            c = names[2:3]
            lhs = j.mutual_information((a, b), c) if c else None
            if c:
                rhs = j.mutual_information((a,), c) + j.mutual_information((b,), c, (a,))
                assert lhs == pytest.approx(rhs, abs=1e-9)
                assert lhs >= 0.0
            assert j.mutual_information((a,), (b,)) >= 0.0
            assert j.entropy((a,)) >= 0.0

    def test_data_processing_on_extended_joints(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            model = random_model(rng, nx=2, nxt=3, ny=2, nz=2)
            joint = build_joint(model)
            aux = AuxScheme(
                StochasticMatrix(rng.dirichlet(np.ones(3), size=3)),
                StochasticMatrix(rng.dirichlet(np.ones(2), size=3)),
                StochasticMatrix(rng.dirichlet(np.ones(2), size=2)),
            )
            full = extend_with_auxiliaries(joint, aux)
            i_uy = full.mutual_information(("U",), ("Y",))
            i_ux = full.mutual_information(("U",), ("X",))
            i_uxt = full.mutual_information(("U",), ("Xt",))
            assert i_uy <= i_ux + 1e-9
            assert i_ux <= i_uxt + 1e-9


def test_to_text_roundtrips_table(binary_joint):
    text = binary_joint.to_text()
    header, body = text.splitlines()
    assert header == "Xt:2 X:2 Y:2 Z:2"
    values = np.array([float(v) for v in body.split()]).reshape(2, 2, 2, 2)
    np.testing.assert_array_equal(values, binary_joint.table)
