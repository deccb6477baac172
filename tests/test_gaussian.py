import math

import numpy as np
import pytest

from secsource import gaussian
from secsource.gaussian import (
    GaussianModel,
    covariance_xtuy,
    discretize,
    gaussian_mmse_check,
    gaussian_point,
    gaussian_trace,
)
from secsource.probability import ModelError
from secsource.regions import DistortionMetric, corollary_point

MODEL = GaussianModel(0.9, 0.8, 0.95)


def covariance_oracle(model: GaussianModel, alpha: float):
    """Independent re-derivation of the boundary point from covariance
    determinants and differential-entropy algebra (log base 2 throughout).

    rw = I(U;Xt) - I(U;Y) = h(Xt|Y) - h(Xt|U,Y) expressed through
    det-ratios of the (Xt, U, Y) covariance; rs and rl replace Y with Z /
    Xt with X; d = 2^(2 h(Xt|U,Y)) / (2 pi e).
    """
    rx, ry, rz = model.rho_x, model.rho_y, model.rho_z
    one_m_a = 1.0 - alpha

    def det(m):
        return float(np.linalg.det(np.array(m)))

    def mi(var_a, var_b, cov):  # I(A;B) for jointly Gaussian scalars, bits
        rho2 = cov**2 / (var_a * var_b)
        return -0.5 * math.log2(1.0 - rho2)

    var_u = one_m_a
    i_u_xt = mi(var_u, 1.0, one_m_a)
    i_u_x = mi(var_u, 1.0, rx * one_m_a)
    i_u_y = mi(var_u, 1.0, rx * ry * one_m_a)
    i_u_z = mi(var_u, 1.0, rx * rz * one_m_a)

    k_xtuy = covariance_xtuy(model, alpha)
    k_uy = k_xtuy[1:, 1:]
    h_xt_uy = 0.5 * math.log2(2 * math.pi * math.e * det(k_xtuy) / det(k_uy))
    d = 2.0 ** (2.0 * h_xt_uy) / (2 * math.pi * math.e)
    return i_u_xt - i_u_y, i_u_xt - i_u_z, i_u_x - i_u_z, d


class TestClosedForm:
    def test_alpha_one_endpoint(self):
        pt = gaussian_point(MODEL, 1.0)
        assert pt.rw == 0.0 and pt.rs == 0.0 and pt.rl == 0.0
        assert pt.d == pytest.approx(1.0 - 0.9**2 * 0.8**2, abs=1e-15)

    def test_matches_covariance_oracle(self):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.99):
            pt = gaussian_point(MODEL, alpha)
            rw, rs, rl, d = covariance_oracle(MODEL, alpha)
            assert pt.rw == pytest.approx(rw, abs=1e-9)
            assert pt.rs == pytest.approx(rs, abs=1e-9)
            assert pt.rl == pytest.approx(rl, abs=1e-9)
            assert pt.d == pytest.approx(d, abs=1e-9)

    def test_frozen_alpha_half_tuple(self):
        # Values confirmed against covariance_oracle before freezing.
        pt = gaussian_point(MODEL, 0.5)
        assert pt.rw == pytest.approx(0.2835780018553934, abs=1e-12)
        assert pt.rs == pytest.approx(0.1718318235054667, abs=1e-12)
        assert pt.rl == pytest.approx(0.0463510367388572, abs=1e-12)
        assert pt.d == pytest.approx(0.3250539956803455, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ModelError):
            gaussian_point(MODEL, 0.0)
        with pytest.raises(ModelError):
            gaussian_point(MODEL, 1.2)
        with pytest.raises(ModelError):
            gaussian_point(GaussianModel(0.9, 0.95, 0.8), 0.5)  # |rho_y| >= |rho_z|
        with pytest.raises(ModelError):
            GaussianModel(1.0, 0.5, 0.9)

    def test_rl_nonnegative_and_rs_below_rw(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rho = np.sort(rng.uniform(0.01, 0.99, size=2))
            m = GaussianModel(float(rng.uniform(-0.99, 0.99)), float(rho[0]), float(rho[1]))
            a = float(rng.uniform(1e-3, 1.0))
            pt = gaussian_point(m, a)
            assert pt.rl >= 0.0
            assert pt.rs <= pt.rw + 1e-12

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.05, 1.0, 30)
        pts = [gaussian_point(MODEL, float(a)) for a in alphas]
        d = [p.d for p in pts]
        rw = [p.rw for p in pts]
        assert all(d[i] < d[i + 1] for i in range(len(d) - 1))
        assert all(rw[i] > rw[i + 1] for i in range(len(rw) - 1))

    def test_perfect_description_limit(self):
        pt = gaussian_point(MODEL, 1e-9)
        assert pt.d < 1e-8
        assert pt.rw > 10.0


class TestTrace:
    def test_single_alpha_one(self):
        trace = gaussian_trace(MODEL, [1.0])
        assert len(trace) == 1
        a, pt = trace[0]
        assert a == 1.0 and pt.rw == 0.0

    def test_sorted_output(self):
        trace = gaussian_trace(MODEL, [0.75, 0.25, 0.5])
        assert [a for a, _ in trace] == [0.25, 0.5, 0.75]
        d = [pt.d for _, pt in trace]
        assert d[0] < d[1] < d[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            gaussian_trace(MODEL, [])


class TestMmseCheck:
    def test_alpha_one_uses_y_only(self):
        emp, ana = gaussian_mmse_check(MODEL, 1.0, samples=200_000, seed=1)
        assert ana == pytest.approx(1.0 - 0.9**2 * 0.8**2, abs=1e-15)
        assert emp == pytest.approx(ana, abs=0.02)

    def test_rho_y_zero_gives_alpha(self):
        m = GaussianModel(0.9, 0.0, 0.5)
        for alpha in (0.3, 0.7):
            emp, ana = gaussian_mmse_check(m, alpha, samples=200_000, seed=2)
            assert ana == pytest.approx(alpha, abs=1e-15)
            assert emp == pytest.approx(alpha, abs=0.02)

    def test_sampling_error_bound(self):
        samples = 400_000
        for seed in range(3):
            emp, ana = gaussian_mmse_check(MODEL, 0.5, samples=samples, seed=seed)
            # Squared-error population std is d * sqrt(2).
            bound = 4.0 * ana * math.sqrt(2.0 / samples)
            assert abs(emp - ana) <= bound

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            gaussian_mmse_check(MODEL, 0.5, samples=0)


class TestDiscreteBridge:
    def test_quantized_model_reproduces_rates(self):
        # e(L), the largest rate error against the closed form over three
        # alphas, stays within 0.05 bits at L = 32 levels and shrinks by at
        # least 0.6x per doubling of L (2.1x to 2.3x measured: 0.0307,
        # 0.0132, 0.0058, 0.0026 and 0.0013 bits at L = 16, 32, 64, 128
        # and 256).
        errors = {}
        for levels in (16, 32, 64, 128, 256):
            metric = DistortionMetric.hamming(levels)
            errors[levels] = 0.0
            for alpha in (0.25, 0.5, 0.75):
                continuous = gaussian_point(MODEL, alpha)
                discrete_model, aux_u = discretize(MODEL, alpha, levels=levels)
                pt = corollary_point(discrete_model, aux_u, metric)
                for rate in ("rw", "rs", "rl"):
                    error = abs(getattr(pt, rate) - getattr(continuous, rate))
                    errors[levels] = max(errors[levels], error)
        assert errors[32] <= 0.05
        assert errors[32] <= 0.6 * errors[16] and errors[64] <= 0.6 * errors[32]
        assert errors[64] <= 0.0065 and errors[128] <= 0.6 * errors[64]
        assert errors[256] <= 0.6 * errors[128]

    def test_quantile_cells_near_equal_mass(self):
        discrete_model, _ = discretize(MODEL, 0.5, levels=16)
        np.testing.assert_allclose(discrete_model.px.probs, 1.0 / 16, rtol=1e-3)

    def test_alpha_one_rejected(self):
        with pytest.raises(ModelError):
            discretize(MODEL, 1.0)

    def test_normal_cdf_and_quantiles_match_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.linspace(-9.0, 9.0, 721), [-np.inf, np.inf]])
        np.testing.assert_allclose(gaussian._std_normal_cdf(x), special.ndtr(x),
                                   rtol=0, atol=1e-12)
        for sigma in (1.0, 0.5):
            for levels in (2, 16, 32):
                qs = np.linspace(special.ndtr(-4.0), special.ndtr(4.0), levels + 1)
                want = sigma * special.ndtri(qs)
                want[[0, -1]] = -4.0 * sigma, 4.0 * sigma
                np.testing.assert_allclose(gaussian._quantile_edges(sigma, levels), want,
                                           rtol=0, atol=1e-12)
