"""Channel-ordering tests that gate the no-key corollary region.

Stochastic degradedness of the decoder's channel with respect to the
eavesdropper's is decided exactly as a linear-programming feasibility
problem; the strictly weaker "less noisy" ordering has no finite decision
procedure here, so it is only ever *falsified* by randomized search for an
input variable L with I(L;Y) > I(L;Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .probability import DimensionError, Pmf, StochasticMatrix, entropy_bits

RESIDUAL_TOL = 1e-8
FALSIFY_TOL = 1e-9


@dataclass(frozen=True)
class DegradednessCertificate:
    """Outcome of the exact degradedness test.

    When ``feasible``, ``witness`` is a row-stochastic matrix T (Z -> Y) with
    P(y|x) = sum_z T(y|z) P(z|x) up to ``residual`` (at most 1e-8).  When
    infeasible, ``residual`` is the smallest achievable max-abs composition
    violation, strictly above the tolerance.
    """

    feasible: bool
    witness: Optional[StochasticMatrix]
    residual: float


@dataclass(frozen=True)
class LessNoisyVerdict:
    """Result of the randomized falsification of "Z is less noisy than Y".

    ``falsified`` means a witness input distribution and channel X -> L with
    I(L;Y) > I(L;Z) + 1e-9 was found; ``not_falsified`` is *not* a proof of
    the ordering.  ``certificate`` is the degradedness test run first;
    ``via_degradedness`` marks its sufficient-certificate short-circuit.
    """

    falsified: bool
    witness_px: Optional[Pmf]
    witness_channel: Optional[StochasticMatrix]
    i_l_y: float
    i_l_z: float
    trials_run: int
    certificate: DegradednessCertificate

    @property
    def via_degradedness(self) -> bool:
        return self.certificate.feasible

    @property
    def gap(self) -> float:
        return self.i_l_y - self.i_l_z


def check_stochastic_degraded(
    p_y_given_x: StochasticMatrix, p_z_given_x: StochasticMatrix
) -> DegradednessCertificate:
    """Decide whether Y is stochastically degraded with respect to Z.

    Solves min_T max_{x,y} |sum_z T(y|z) P(z|x) - P(y|x)| over row-stochastic
    T >= 0 as a linear program (HiGHS); feasibility holds iff the optimum is
    within 1e-8.
    """
    from scipy.optimize import linprog  # deferred: scipy.optimize is slow to import

    if p_y_given_x.input_size != p_z_given_x.input_size:
        raise DimensionError("channels must share the input alphabet")
    py = p_y_given_x.rows
    pz = p_z_given_x.rows
    nx, ny = py.shape
    nz = pz.shape[1]

    # Variables: T flattened row-major (nz * ny entries) plus the violation t.
    c = np.zeros(nz * ny + 1)
    c[-1] = 1.0

    # Composition constraints, interleaved per (x, y):
    # (Pz @ T - Py)[x, y] - t <= 0 and -(Pz @ T - Py)[x, y] - t <= 0.
    comp = np.kron(pz, np.eye(ny))                 # row (x, y), column (z, y')
    slack = -np.ones((nx * ny, 1))
    a_ub = np.stack([np.hstack([comp, slack]), np.hstack([-comp, slack])], axis=1)
    a_ub = a_ub.reshape(2 * nx * ny, -1)
    b_ub = np.stack([py.ravel(), -py.ravel()], axis=1).ravel()
    # Row-stochasticity of T.
    a_eq = np.hstack([np.kron(np.eye(nz), np.ones(ny)), np.zeros((nz, 1))])

    bounds = [(0.0, 1.0)] * (nz * ny) + [(0.0, None)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.ones(nz),
        bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - HiGHS solves this LP class reliably
        raise RuntimeError(f"degradedness LP failed: {res.message}")

    t_flat = np.clip(res.x[:-1], 0.0, None).reshape(nz, ny)
    t_flat = t_flat / t_flat.sum(axis=1, keepdims=True)
    residual = float(np.abs(pz @ t_flat - py).max())
    if residual <= RESIDUAL_TOL:
        return DegradednessCertificate(True, StochasticMatrix(t_flat), residual)
    return DegradednessCertificate(False, None, residual)


def _informations(px: np.ndarray, pl: np.ndarray, py: np.ndarray, pz: np.ndarray):
    """I(L;Y) and I(L;Z) for P(l|x) = pl, input law px."""
    j_lx = (pl * px[:, None]).T
    h_l = entropy_bits(j_lx.sum(axis=1))
    return tuple(
        max(0.0, h_l + entropy_bits(j.sum(axis=0)) - entropy_bits(j))
        for j in (j_lx @ py, j_lx @ pz)  # (L, Y) and (L, Z)
    )


def less_noisy_falsify(
    p_y_given_x: StochasticMatrix,
    p_z_given_x: StochasticMatrix,
    trials: int,
    l_size: Optional[int] = None,
    seed: int = 0,
) -> LessNoisyVerdict:
    """Search for a counterexample to "Z is less noisy than Y".

    ``trials`` and ``l_size`` are checked before anything is solved.  A
    degradedness certificate is checked next: it implies the ordering, so
    the search is skipped.  Otherwise the canonical candidate L = X under the
    uniform input law is tried, followed by ``trials`` random (P_X, P_L|X)
    pairs with Dirichlet(1, ..., 1) rows.  ``l_size`` defaults to |X| + 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    nx = p_y_given_x.input_size
    l_size = l_size if l_size is not None else nx + 1
    if l_size < 2:
        raise ValueError("l_size must be >= 2")

    cert = check_stochastic_degraded(p_y_given_x, p_z_given_x)
    if cert.feasible:
        return LessNoisyVerdict(False, None, None, 0.0, 0.0, 0, cert)

    py, pz = p_y_given_x.rows, p_z_given_x.rows
    rng = np.random.default_rng(seed)

    candidates = []
    if l_size >= nx:
        ident = np.zeros((nx, l_size))
        ident[np.arange(nx), np.arange(nx)] = 1.0
        candidates.append((np.full(nx, 1.0 / nx), ident))
    for _ in range(trials):
        candidates.append(
            (rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(l_size), size=nx))
        )

    run = 0
    for px, pl in candidates:
        run += 1
        i_ly, i_lz = _informations(px, pl, py, pz)
        if i_ly > i_lz + FALSIFY_TOL:
            return LessNoisyVerdict(
                True, Pmf(px), StochasticMatrix(pl), i_ly, i_lz, run, cert
            )
    return LessNoisyVerdict(False, None, None, 0.0, 0.0, run, cert)
