"""Closed-form lossy region for the scalar Gaussian model, its Monte-Carlo
MMSE validation, and a quantile-quantized discrete bridge.

The model: Xt ~ N(0,1) is the encoder observation, the remote source is
X = rho_x Xt + N_x (an inverse measurement channel), the decoder sees
Y = rho_y X + N_y and the eavesdropper Z = rho_z X + N_z, with independent
zero-mean Gaussian noises making every variable unit variance.  The boundary
is parameterized by the auxiliary split Xt = U + Theta with U ~ N(0, 1-alpha)
and Theta ~ N(0, alpha) independent; the reconstruction is the MMSE estimate
of Xt from (U, Y).  All rates are in bits, distortion is squared error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import ModelError, Pmf, SourceModel, StochasticMatrix
from .regions import RateTuple


@dataclass(frozen=True)
class GaussianModel:
    """Correlation coefficients of the three measurement channels."""

    rho_x: float
    rho_y: float
    rho_z: float

    def __post_init__(self):
        for name, v in (("rho_x", self.rho_x), ("rho_y", self.rho_y), ("rho_z", self.rho_z)):
            if not -1.0 < v < 1.0:
                raise ModelError(f"{name}={v!r} must lie in (-1, 1)")

    def require_ordering(self) -> None:
        """Region evaluation needs |rho_z| > |rho_y| (eavesdropper less noisy)."""
        if abs(self.rho_y) >= abs(self.rho_z):
            raise ModelError(
                "region evaluation requires |rho_y| < |rho_z| "
                f"(got {self.rho_y!r}, {self.rho_z!r})"
            )


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ModelError(f"alpha={alpha!r} must lie in (0, 1]")
    return float(alpha)


def gaussian_point(model: GaussianModel, alpha: float) -> RateTuple:
    """Boundary point of the Gaussian lossy region at auxiliary parameter alpha.

    rw = (1/2) log2((1 - rx^2 ry^2 (1-a)) / a)
    rs = (1/2) log2((1 - rx^2 rz^2 (1-a)) / a)
    rl = (1/2) log2((1 - rx^2 rz^2 (1-a)) / (1 - rx^2 (1-a)))
    d  = a (1 - rx^2 ry^2) / (1 - rx^2 ry^2 (1-a))
    """
    model.require_ordering()
    a = _check_alpha(alpha)
    rx2, ry2, rz2 = model.rho_x**2, model.rho_y**2, model.rho_z**2
    ky = 1.0 - rx2 * ry2 * (1.0 - a)
    kz = 1.0 - rx2 * rz2 * (1.0 - a)
    kx = 1.0 - rx2 * (1.0 - a)
    return RateTuple(
        rw=max(0.0, 0.5 * math.log2(ky / a)),
        rs=max(0.0, 0.5 * math.log2(kz / a)),
        rl=max(0.0, 0.5 * math.log2(kz / kx)),
        d=a * (1.0 - rx2 * ry2) / ky,
    )


def gaussian_trace(
    model: GaussianModel, alphas: Sequence[float]
) -> list[tuple[float, RateTuple]]:
    """Pointwise boundary sweep, sorted by alpha."""
    if len(alphas) == 0:
        raise ValueError("alpha grid must be non-empty")
    return [(a, gaussian_point(model, a)) for a in sorted(float(a) for a in alphas)]


def covariance_xtuy(model: GaussianModel, alpha: float) -> np.ndarray:
    """Covariance matrix of (Xt, U, Y) under the auxiliary decomposition."""
    a = _check_alpha(alpha)
    rx, ry = model.rho_x, model.rho_y
    one_m_a = 1.0 - a
    return np.array(
        [
            [1.0, one_m_a, rx * ry],
            [one_m_a, one_m_a, rx * ry * one_m_a],
            [rx * ry, rx * ry * one_m_a, 1.0],
        ]
    )


def gaussian_mmse_check(
    model: GaussianModel, alpha: float, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo validation of the closed-form distortion.

    Draws i.i.d. (Xt, U, Y), forms the linear MMSE estimate of Xt from (U, Y)
    using the analytic covariances, and returns (empirical mean squared
    error, analytic distortion).  The two agree within sampling error; the
    squared-error population std is d * sqrt(2), so the Monte-Carlo standard
    error is d * sqrt(2 / samples).
    """
    a = _check_alpha(alpha)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rx, ry = model.rho_x, model.rho_y

    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, math.sqrt(1.0 - a), size=samples) if a < 1.0 else np.zeros(samples)
    theta = rng.normal(0.0, math.sqrt(a), size=samples)
    xt = u + theta
    x = rx * xt + rng.normal(0.0, math.sqrt(1.0 - rx**2), size=samples)
    y = ry * x + rng.normal(0.0, math.sqrt(1.0 - ry**2), size=samples)

    k = covariance_xtuy(model, a)
    k_uy = k[1:, 1:]
    c = k[0, 1:]
    w = np.linalg.pinv(k_uy) @ c  # degenerate U at alpha = 1 handled by pinv
    est = w[0] * u + w[1] * y
    empirical = float(np.mean((xt - est) ** 2))

    rx2, ry2 = rx**2, ry**2
    analytic = a * (1.0 - rx2 * ry2) / (1.0 - rx2 * ry2 * (1.0 - a))
    return empirical, analytic


# ---------------------------------------------------------------------------
# Quantized discrete bridge
# ---------------------------------------------------------------------------

_TAIL_SIGMAS = 4.0
_QUAD_NODES = 24


def _std_normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt 2) / 2, accurate in both tails."""
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(-np.asarray(x) / math.sqrt(2.0))


def _quantile_edges(sigma: float, levels: int) -> np.ndarray:
    """Equal-probability cell edges of N(0, sigma^2) truncated to +/- 4 sigma."""
    from statistics import NormalDist  # deferred: only the discrete bridge needs it

    lo, hi = _std_normal_cdf(np.array([-_TAIL_SIGMAS, _TAIL_SIGMAS]))
    qs = np.linspace(lo, hi, levels + 1)
    edges = sigma * np.array([NormalDist().inv_cdf(q) for q in qs])
    edges[0] = -_TAIL_SIGMAS * sigma
    edges[-1] = _TAIL_SIGMAS * sigma
    return edges


def _gaussian_channel(
    sigma_a: float, sigma_b: float, cov: float, levels: int
) -> np.ndarray:
    """Cell-to-cell conditional P(B-cell | A-cell) for jointly Gaussian (A, B).

    B | A = a is N(cov/sigma_a^2 * a, sigma_b^2 - cov^2/sigma_a^2); each row
    integrates the per-a cell probabilities over the A cell with
    Gauss-Legendre quadrature and renormalizes (the mass beyond 4 sigma is
    folded into the outer cells).
    """
    from numpy.polynomial.legendre import leggauss  # deferred: only the discrete bridge needs it

    edges_a = _quantile_edges(sigma_a, levels)
    edges_b = _quantile_edges(sigma_b, levels)
    slope = cov / sigma_a**2
    s2 = sigma_b**2 - cov**2 / sigma_a**2
    s = math.sqrt(max(s2, 1e-300))
    nodes, weights = leggauss(_QUAD_NODES)

    inner = edges_b.copy()
    inner[0], inner[-1] = -np.inf, np.inf  # outer cells absorb the tails

    rows = np.empty((levels, levels))
    for i in range(levels):
        lo, hi = edges_a[i], edges_a[i + 1]
        a = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights * _std_normal_pdf(a / sigma_a) / sigma_a
        cdfs = _std_normal_cdf((inner[None, :] - slope * a[:, None]) / s)
        cell = cdfs[:, 1:] - cdfs[:, :-1]
        rows[i] = w @ cell
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def discretize(
    model: GaussianModel, alpha: float, levels: int = 32
) -> tuple[SourceModel, StochasticMatrix]:
    """Quantize the Gaussian model and its alpha-auxiliary to a finite model.

    Each variable gets its own equal-probability (quantile) binning over
    +/- 4 standard deviations.  Returns the discrete source model (with the
    product channel for (Y, Z), which are conditionally independent given X)
    and the induced auxiliary channel P(U-cell | Xt-cell) for use with the
    discrete no-key region.
    """
    a = _check_alpha(alpha)
    if not a < 1.0:
        raise ModelError("discretize requires alpha < 1 (U degenerates at alpha = 1)")
    if levels < 2:
        raise ModelError("levels must be >= 2")

    edges_x = _quantile_edges(1.0, levels)
    px_raw = np.diff(_std_normal_cdf(edges_x))
    px = Pmf(px_raw / px_raw.sum())

    # Channels along the chain U - Xt - X - (Y, Z); all marginals unit
    # variance except U ~ N(0, 1 - alpha).
    p_xt_given_x = StochasticMatrix(_gaussian_channel(1.0, 1.0, model.rho_x, levels))
    p_y_given_x = StochasticMatrix(_gaussian_channel(1.0, 1.0, model.rho_y, levels))
    p_z_given_x = StochasticMatrix(_gaussian_channel(1.0, 1.0, model.rho_z, levels))
    p_u_given_xt = StochasticMatrix(
        _gaussian_channel(1.0, math.sqrt(1.0 - a), 1.0 - a, levels)
    )
    discrete = SourceModel.from_channels(px, p_xt_given_x, p_y_given_x, p_z_given_x)
    return discrete, p_u_given_xt
