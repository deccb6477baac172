import numpy as np
import pytest

from conftest import h2, star
from secsource import channels
from secsource.channels import (
    DegradednessCertificate,
    check_stochastic_degraded,
    less_noisy_falsify,
)
from secsource.probability import DimensionError, StochasticMatrix, bsc


class TestDegradedness:
    def test_self_degraded_identity_witness(self):
        cert = check_stochastic_degraded(bsc(0.2), bsc(0.2))
        assert cert.feasible
        assert cert.residual <= 1e-8
        composed = bsc(0.2).rows @ cert.witness.rows
        np.testing.assert_allclose(composed, bsc(0.2).rows, atol=1e-8)

    def test_bsc_composition_crossover(self):
        # 0.1 * p = 0.3 has the unique solution p = 0.25.
        cert = check_stochastic_degraded(bsc(0.3), bsc(0.1))
        assert cert.feasible
        assert cert.residual <= 1e-8
        assert cert.witness.rows[0, 1] == pytest.approx(0.25, abs=1e-6)
        assert cert.witness.rows[1, 0] == pytest.approx(0.25, abs=1e-6)
        assert star(0.1, 0.25) == pytest.approx(0.3, abs=1e-12)

    def test_reversed_pair_infeasible(self):
        cert = check_stochastic_degraded(bsc(0.1), bsc(0.3))
        assert not cert.feasible
        assert cert.witness is None
        assert cert.residual > 1e-8

    def test_witness_composition_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p_z = StochasticMatrix(rng.dirichlet(np.ones(3), size=2))
            post = StochasticMatrix(rng.dirichlet(np.ones(2), size=3))
            p_y = StochasticMatrix(p_z.rows @ post.rows)
            cert = check_stochastic_degraded(p_y, p_z)
            assert cert.feasible
            composed = p_z.rows @ cert.witness.rows
            assert np.abs(composed - p_y.rows).max() <= 1e-8

    def test_input_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            check_stochastic_degraded(
                bsc(0.1), StochasticMatrix(np.full((3, 2), 0.5))
            )

    def test_post_processing_below_coarse_solver_tolerance(self):
        # A 1e-7 flip lies below a 1e-7 primal feasibility tolerance; the
        # pair is degraded by construction, so the optimum is 0.
        post = np.array([[1e-7, 1.0 - 1e-7], [0.0, 1.0]])
        p_y = StochasticMatrix(bsc(0.1).rows @ post)
        cert = check_stochastic_degraded(p_y, bsc(0.1))
        assert cert.feasible
        assert cert.residual <= 1e-12
        np.testing.assert_allclose(cert.witness.rows, post, atol=1e-12)

    def test_sparse_post_processing_sweep_certified(self):
        # Dirichlet(0.1) rows put many entries near zero.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            nx, ny, nz = rng.integers(2, 6, size=3)
            p_z = rng.dirichlet(np.ones(nz), size=nx)
            p_y = p_z @ rng.dirichlet(np.full(ny, 0.1), size=nz)
            cert = check_stochastic_degraded(StochasticMatrix(p_y), StochasticMatrix(p_z))
            assert cert.feasible, (nx, ny, nz, cert.residual)
            assert np.abs(p_z @ cert.witness.rows - p_y).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(3, 1, 2), (3, 2, 1), (1, 3, 3)])
    def test_unary_alphabets(self, shape):
        nx, ny, nz = shape
        rng = np.random.default_rng(sum(shape))
        p_y = StochasticMatrix(rng.dirichlet(np.ones(ny), size=nx))
        p_z = StochasticMatrix(rng.dirichlet(np.ones(nz), size=nx))
        cert = check_stochastic_degraded(p_y, p_z)
        if ny == 1 or nx == 1:
            # A constant Y, or a single input, is always reachable.
            assert cert.feasible and cert.residual <= 1e-12
        else:
            # A constant Z reaches only rows equal to a mixture row.
            assert not cert.feasible
        assert cert.lower_bound <= cert.residual

    def test_identical_channels_and_unused_z_symbol(self):
        rows = np.array([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8], [0.7, 0.0, 0.3]])
        p = StochasticMatrix(rows)
        cert = check_stochastic_degraded(p, p)
        assert cert.feasible and cert.residual <= 1e-12
        # Dropping the never-seen Z symbol leaves a degraded 3 x 2 output.
        p_y = StochasticMatrix(rows[:, [0, 2]])
        cert = check_stochastic_degraded(p_y, p)
        assert cert.feasible and cert.residual <= 1e-12
        np.testing.assert_allclose(rows @ cert.witness.rows, p_y.rows, atol=1e-12)

    def test_reversed_pair_optimum_certified_by_dual(self):
        cert = check_stochastic_degraded(bsc(0.1), bsc(0.3))
        assert cert.residual - cert.lower_bound <= 1e-9
        assert cert.lower_bound <= cert.residual

    def test_unproven_answer_raises(self, monkeypatch):
        # The slack basis with zero duals: the witness is the start map and
        # the dual bound is 0, far below it.
        def slack_basis(a, b, c):
            m, n = a.shape
            return np.zeros(n), np.zeros(m), np.arange(n, n + m)

        monkeypatch.setattr(channels, "_simplex", slack_basis)
        with pytest.raises(RuntimeError, match="witness residual .* dual lower bound"):
            check_stochastic_degraded(bsc(0.1), bsc(0.3))

    def test_pivot_cap_and_singular_basis_raise(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(channels, "_MAX_PIVOTS_PER_DIM", 0)
            with pytest.raises(RuntimeError, match="pivot cap"):
                check_stochastic_degraded(bsc(0.3), bsc(0.1))

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(channels.np.linalg, "solve", singular)
        with pytest.raises(RuntimeError, match="singular basis"):
            check_stochastic_degraded(bsc(0.3), bsc(0.1))


def _highs_residual(py, pz):
    """The composition residual of HiGHS's optimum of the same LP."""
    from scipy.optimize import linprog

    nx, ny = py.shape
    nz = pz.shape[1]
    comp = np.kron(pz, np.eye(ny))
    slack = -np.ones((nx * ny, 1))
    a_ub = np.vstack([np.hstack([comp, slack]), np.hstack([-comp, slack])])
    b_ub = np.concatenate([py.ravel(), -py.ravel()])
    a_eq = np.hstack([np.kron(np.eye(nz), np.ones(ny)), np.zeros((nz, 1))])
    c = np.zeros(nz * ny + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(nz),
                  bounds=[(0.0, 1.0)] * (nz * ny) + [(0.0, None)], method="highs")
    assert res.success
    t = np.clip(res.x[:-1], 0.0, None).reshape(nz, ny)
    t /= t.sum(axis=1, keepdims=True)
    return float(np.abs(pz @ t - py).max())


class TestAgainstHighs:
    @pytest.fixture(autouse=True)
    def _scipy(self):
        pytest.importorskip("scipy.optimize")

    @staticmethod
    def _pairs(rng, count, lo, hi):
        for k in range(count):
            nx, ny, nz = rng.integers(lo, hi + 1, size=3)
            p_z = rng.dirichlet(np.ones(nz), size=nx)
            if k % 2:
                p_y = rng.dirichlet(np.ones(ny), size=nx)
            else:
                p_y = p_z @ rng.dirichlet(np.full(ny, 0.1), size=nz)
            yield p_y, p_z

    @pytest.mark.parametrize("lo, hi, count", [(1, 5, 300), (6, 8, 6)])
    def test_never_worse_and_certified(self, lo, hi, count):
        rng = np.random.default_rng(hi)
        for p_y, p_z in self._pairs(rng, count, lo, hi):
            cert = check_stochastic_degraded(StochasticMatrix(p_y), StochasticMatrix(p_z))
            assert cert.residual <= _highs_residual(p_y, p_z) + 1e-9
            assert cert.lower_bound <= cert.residual
            if cert.feasible:
                assert np.abs(p_z @ cert.witness.rows - p_y).max() <= 1e-8
            else:
                assert cert.residual - cert.lower_bound <= 1e-9


class TestLessNoisy:
    def test_perfect_eavesdropper_not_falsified(self):
        verdict = less_noisy_falsify(bsc(0.2), StochasticMatrix.identity(2),
                                     trials=100, seed=0)
        assert not verdict.falsified

    def test_canonical_witness_l_equals_x(self):
        verdict = less_noisy_falsify(bsc(0.1), bsc(0.3), trials=10, seed=0)
        assert verdict.falsified
        # First candidate is L = X under the uniform law.
        assert verdict.trials_run == 1
        np.testing.assert_allclose(verdict.witness_px.probs, [0.5, 0.5])
        assert verdict.i_l_y == pytest.approx(1.0 - h2(0.1), abs=1e-9)
        assert verdict.i_l_z == pytest.approx(1.0 - h2(0.3), abs=1e-9)
        assert verdict.gap > 1e-9

    def test_identical_channels_not_falsified(self):
        verdict = less_noisy_falsify(bsc(0.25), bsc(0.25), trials=50, seed=1)
        assert not verdict.falsified

    def test_degraded_implies_not_falsified(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            p_z = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
            post = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
            p_y = StochasticMatrix(p_z.rows @ post.rows)
            verdict = less_noisy_falsify(p_y, p_z, trials=50, seed=3)
            assert not verdict.falsified
            assert verdict.via_degradedness

    def test_witness_reproducibly_violates(self):
        verdict = less_noisy_falsify(bsc(0.05), bsc(0.4), trials=20, seed=5)
        assert verdict.falsified
        # Recompute the violation from the returned witness alone.
        px = verdict.witness_px.probs
        pl = verdict.witness_channel.rows
        j_ly = (pl * px[:, None]).T @ bsc(0.05).rows
        j_lz = (pl * px[:, None]).T @ bsc(0.4).rows

        def mi(j):
            pa = j.sum(axis=1, keepdims=True)
            pb = j.sum(axis=0, keepdims=True)
            mask = j > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(mask, j * np.log2(j / (pa * pb)), 0.0)
            return float(terms.sum())

        assert mi(j_ly) - mi(j_lz) > 1e-9

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            less_noisy_falsify(bsc(0.1), bsc(0.3), trials=0)
        with pytest.raises(ValueError):
            less_noisy_falsify(bsc(0.1), bsc(0.3), trials=5, l_size=1)
