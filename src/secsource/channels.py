"""Channel-ordering tests that gate the no-key corollary region.

Stochastic degradedness of the decoder's channel with respect to the
eavesdropper's is decided as a linear program that certifies its own answer:
a primal witness bounds the optimum from above and a dual vector bounds it
from below.  The strictly weaker "less noisy" ordering has no finite decision
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
GAP_TOL = 1e-9  # residual - lower_bound that proves a non-degraded optimum
_PIVOT_TOL = 1e-12
# Reduced costs below this are rounding: at 1e-12, two nearly parallel
# columns of a sparse post-processing pair swapped in and out forever.
_COST_TOL = 1e-10
_MAX_PIVOTS_PER_DIM = 50


@dataclass(frozen=True)
class DegradednessCertificate:
    """Outcome of the degradedness test, with both bounds on its optimum.

    ``residual`` is the max-abs composition violation
    max_{x,y} |sum_z T(y|z) P(z|x) - P(y|x)| of the primal row-stochastic T,
    recomputed from the inputs.  ``lower_bound`` is the weak-duality bound
    sum_z min_y (P_Z^T L)[z, y] - <L, P_Y>, with L the solver's duals of the
    composition rows scaled to sum |L| = 1.  Weak duality holds for every
    such L, so the bound rests on the inputs alone, not on the solver.

    When ``feasible``, ``witness`` is T with ``residual`` at most 1e-8.
    Otherwise ``witness`` is None and ``residual`` is the optimum: it is above
    1e-8 and within 1e-9 of ``lower_bound``.
    """

    feasible: bool
    witness: Optional[StochasticMatrix]
    residual: float
    lower_bound: float


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


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray, basis: Optional[np.ndarray] = None):
    """Maximize c.x subject to a x <= b, x >= 0, for b >= 0.

    Revised simplex from ``basis``, a primal feasible basis given as indices
    into the columns of [a | I], or else from the slack basis, which b >= 0
    makes feasible.  Each pivot solves the basis systems afresh from ``a``,
    so no rounding carries over from one pivot to the next.  The entering
    column has the largest reduced cost (Dantzig) and the leaving row the
    largest pivot among ratio ties; after a degenerate pivot both follow
    Bland's smallest-index rule, which cannot cycle.  Returns the primal x,
    the row duals y and the final basis; a singular basis or the pivot cap
    raises RuntimeError.

    Two LPs use it: the degradedness test here and the storage LP of
    ``regions._StorageLP``.  The latter has equality rows sum_j x_j q_j = p;
    it adds one constant to every c_j, so that an optimum leaves no slack in
    those rows, checks that they came out tight, and solves again from its
    last basis after adding columns.
    """
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m) if basis is None else np.array(basis)
    bland = False
    try:
        for _ in range(_MAX_PIVOTS_PER_DIM * (m + n)):
            b_mat = full[:, basis]
            y = np.linalg.solve(b_mat.T, cost[basis])
            reduced = cost - y @ full
            reduced[basis] = 0.0
            entering = np.flatnonzero(reduced > _COST_TOL)
            if entering.size == 0:
                x = np.zeros(n + m)
                x[basis] = np.linalg.solve(b_mat, b)
                return x[:n], y, basis
            q = entering[0] if bland else entering[np.argmax(reduced[entering])]
            x_b, w = np.linalg.solve(b_mat, np.column_stack([b, full[:, q]])).T
            rows = np.flatnonzero(w > _PIVOT_TOL)
            if rows.size == 0:
                raise RuntimeError("LP found no pivot row")
            # Harris ratio test: the rows within a 1e-12 slack of the smallest
            # ratio tie, so a tiny pivot never wins by a rounding error.
            x_r, w_r = np.maximum(x_b[rows], 0.0), w[rows]
            ties = np.flatnonzero(x_r / w_r <= ((x_r + _PIVOT_TOL) / w_r).min())
            leave = ties[np.argmin(basis[rows[ties]])] if bland else ties[np.argmax(w_r[ties])]
            basis[rows[leave]] = q
            bland = x_r[leave] / w_r[leave] <= _PIVOT_TOL
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"LP hit a singular basis: {exc}") from exc
    raise RuntimeError("LP exceeded its pivot cap")


def check_stochastic_degraded(
    p_y_given_x: StochasticMatrix, p_z_given_x: StochasticMatrix
) -> DegradednessCertificate:
    """Decide whether Y is stochastically degraded with respect to Z.

    Minimizes t = max_{x,y} |sum_z T(y|z) P(z|x) - P(y|x)| over row-stochastic
    T >= 0.  T's last column is one minus the row sum of the free part
    W >= 0, and t = t0 - u, where t0 is the violation of the map that sends
    every z to the last y symbol.  Maximizing u then has a non-negative
    right-hand side, so one simplex phase from the slack basis solves it.

    Degraded iff the witness residual is within 1e-8.  A residual above that
    is returned only when the dual lower bound is within 1e-9 of it, which
    proves it optimal; otherwise, and on a singular basis or the pivot cap,
    RuntimeError is raised rather than an unproven answer.
    """
    if p_y_given_x.input_size != p_z_given_x.input_size:
        raise DimensionError("channels must share the input alphabet")
    py = p_y_given_x.rows
    pz = p_z_given_x.rows
    nx, ny = py.shape
    nz = pz.shape[1]

    # Composition rows (x, y) over the columns (z, y') of W, then u.
    to_t = np.vstack([np.eye(ny - 1), -np.ones(ny - 1)])  # W's columns -> T's
    comp = np.kron(pz, to_t)
    r0 = -py.copy()
    r0[:, -1] += pz.sum(axis=1)
    r0 = r0.ravel()
    t0 = float(np.abs(r0).max())
    u_col = np.ones((nx * ny, 1))
    a = np.vstack([
        np.hstack([comp, u_col]),                                     # R <= t
        np.hstack([-comp, u_col]),                                    # -R <= t
        np.hstack([np.kron(np.eye(nz), np.ones(ny - 1)), np.zeros((nz, 1))]),  # sum W <= 1
    ])
    b = np.concatenate([t0 - r0, t0 + r0, np.ones(nz)])
    c = np.zeros(a.shape[1])
    c[-1] = 1.0
    x, y, _ = _simplex(a, b, c)

    w = np.clip(x[:-1], 0.0, None).reshape(nz, ny - 1)
    t = np.clip(np.hstack([w, 1.0 - w.sum(axis=1, keepdims=True)]), 0.0, None)
    t = t / t.sum(axis=1, keepdims=True)
    residual = float(np.abs(pz @ t - py).max())

    lam = (y[: nx * ny] - y[nx * ny : 2 * nx * ny]).reshape(nx, ny)
    mass = np.abs(lam).sum()
    if mass > 0.0:
        lam = lam / mass
    # Rounding can lift the bound an ulp above a zero optimum; the witness
    # value is also at least the optimum, so the smaller of the two is a bound.
    lower = min(float((pz.T @ lam).min(axis=1).sum() - (lam * py).sum()), residual)

    if residual <= RESIDUAL_TOL:
        return DegradednessCertificate(True, StochasticMatrix(t), residual, lower)
    if residual - lower <= GAP_TOL:
        return DegradednessCertificate(False, None, residual, lower)
    raise RuntimeError(
        f"degradedness LP undecided: witness residual {residual:.3e} "
        f"but dual lower bound {lower:.3e}"
    )


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
