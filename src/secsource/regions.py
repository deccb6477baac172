"""Single-letter rate bounds for secure/private source coding and the search
over auxiliary schemes that traces achievable-region boundaries.

An auxiliary scheme is a layered test channel Xt -> U -> V -> Q together with
a reconstruction map (U, Y) -> Xhat.  ``lossy_point`` evaluates the storage,
secrecy-leakage and privacy-leakage bounds of the general lossy region for a
fixed scheme and private-key rate from the joint over all seven variables; it
is the reference, and every reported ``TracePoint`` comes from it.
``lossless_point`` is its U = Xt specialization; ``corollary_point`` is the
no-key form that is tight when the eavesdropper's channel is less noisy than
the decoder's.

The "for some scheme" existential in the region statement is resolved
numerically: ``trace_region`` minimizes one rate (storage, secrecy leakage or
privacy leakage) over the rows of the conditional-pmf matrices with
multi-restart projected coordinate descent.  The descent scores candidates
with ``_SchemeEvaluator``, which computes the same bounds as ``lossy_point``
from pairwise source marginals and the raw matrices without building the
joint.  An exhaustive simplex-grid oracle, ``grid_minimum_storage``, is
available for desk-scale certification of the storage search: it screens
the grid a fixed-size block of cells at a time with a vectorized form of the
evaluator, so its memory is bounded by the block, and re-scores every cell
the screen cannot rule out with the scalar evaluator, so its argmin is the
one a cell-by-cell scan returns, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Literal, Optional, Sequence

import numpy as np

from .probability import (
    AX_Q,
    AX_U,
    AX_V,
    AX_X,
    AX_XT,
    AX_Y,
    AX_Z,
    SOURCE_AXES,
    DimensionError,
    JointPmf,
    ModelError,
    SourceModel,
    StochasticMatrix,
    build_joint,
    compositions,
    entropy_bits,
)

FULL_AXES = (AX_Q, AX_V, AX_U) + SOURCE_AXES
VU_AXES = (AX_V, AX_U) + SOURCE_AXES

Regime = Literal["small_key", "middle_key", "large_key"]

# Largest number of P(U|Xt) row combinations the grid oracle enumerates
# (|U| = 3 at step 0.05 over a binary Xt is 231^2 = 53,361).
GRID_CELL_LIMIT = 5_000_000
# Cells the grid oracle screens per vectorized block, and the margin by which
# the screen's rounding error is covered before the exact re-check.
_GRID_BLOCK = 1024
_GRID_SCREEN_TOL = 1e-9


class InfeasibleTargetError(RuntimeError):
    """No scheme within the configured cardinalities meets the distortion target."""


@dataclass(frozen=True)
class RateTuple:
    """A point (storage, secrecy leakage, privacy leakage, distortion)."""

    rw: float
    rs: float
    rl: float
    d: float

    def __post_init__(self):
        for name, v in (("rw", self.rw), ("rs", self.rs), ("rl", self.rl), ("d", self.d)):
            if not math.isfinite(v) or v < 0.0:
                raise ModelError(f"rate component {name}={v!r} must be finite and >= 0")


@dataclass(frozen=True)
class DistortionMetric:
    """Per-letter distortion table d(xt, xhat) with bounded entries."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.array(self.table, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError("distortion table must be 2-D and non-empty")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ModelError("distortion entries must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @property
    def xtilde_size(self) -> int:
        return self.table.shape[0]

    @property
    def xhat_size(self) -> int:
        return self.table.shape[1]

    @staticmethod
    def hamming(n: int, m: Optional[int] = None) -> "DistortionMetric":
        m = n if m is None else m
        t = np.ones((n, m))
        np.fill_diagonal(t, 0.0)
        return DistortionMetric(t)


@dataclass(frozen=True)
class AuxScheme:
    """Layered auxiliary channels plus an optional reconstruction map.

    ``reconstruction``, when present, is an integer array of shape
    (|U|, |Y|) with values in the reconstruction alphabet; when absent the
    engine computes the distortion-optimal map.
    """

    p_u_given_xtilde: StochasticMatrix
    p_v_given_u: StochasticMatrix
    p_q_given_v: StochasticMatrix
    reconstruction: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.p_v_given_u.input_size != self.u_size:
            raise DimensionError("P(V|U) input size must equal |U|")
        if self.p_q_given_v.input_size != self.v_size:
            raise DimensionError("P(Q|V) input size must equal |V|")
        if self.reconstruction is not None:
            recon = np.array(self.reconstruction, dtype=int)
            if recon.ndim != 2 or recon.shape[0] != self.u_size:
                raise DimensionError("reconstruction map must be (|U|, |Y|)")
            recon.setflags(write=False)
            object.__setattr__(self, "reconstruction", recon)

    @property
    def u_size(self) -> int:
        return self.p_u_given_xtilde.output_size

    @property
    def v_size(self) -> int:
        return self.p_v_given_u.output_size

    @property
    def q_size(self) -> int:
        return self.p_q_given_v.output_size

    @staticmethod
    def from_channels(
        p_u_given_xtilde: StochasticMatrix,
        p_v_given_u: Optional[StochasticMatrix] = None,
        p_q_given_v: Optional[StochasticMatrix] = None,
        reconstruction: Optional[np.ndarray] = None,
    ) -> "AuxScheme":
        """Fill missing layers with constant (single-symbol) channels."""
        u = p_u_given_xtilde.output_size
        pv = p_v_given_u if p_v_given_u is not None else StochasticMatrix.constant(u, 1)
        pq = (
            p_q_given_v
            if p_q_given_v is not None
            else StochasticMatrix.constant(pv.output_size, 1)
        )
        return AuxScheme(p_u_given_xtilde, pv, pq, reconstruction)

    @staticmethod
    def identity(xtilde_size: int) -> "AuxScheme":
        """U = Xt with constant V and Q (the lossless choice)."""
        return AuxScheme.from_channels(StochasticMatrix.identity(xtilde_size))


def default_cardinalities(xtilde_size: int) -> tuple[int, int, int]:
    """Sufficient alphabet sizes (|U|, |V|, |Q|) for the lossy region."""
    return (xtilde_size + 3) ** 2, xtilde_size + 3, 2


@dataclass(frozen=True)
class RegimeReport:
    """Evaluated bounds for one scheme, with the key-rate regime that applied.

    ``threshold_low``  is I(U;Xt|Y,V) and ``threshold_high`` is I(U;Xt|Y);
    equality with a threshold selects the higher-key regime.  ``r_prime`` is
    the non-positive correction [I(U;Z|V,Q) - I(U;Y|V,Q)]^- that enters the
    small-key leakage bounds.
    """

    regime: Regime
    threshold_low: float
    threshold_high: float
    r_prime: float
    bounds: RateTuple

    def __post_init__(self):
        if self.regime not in ("small_key", "middle_key", "large_key"):
            raise ModelError(f"unknown regime {self.regime!r}")
        if self.r_prime > 0.0:
            raise ModelError("r_prime must be non-positive")


@dataclass(frozen=True)
class SearchConfig:
    """Controls for the auxiliary-scheme search.

    ``u_size``/``v_size``/``q_size`` default to the sufficient cardinality
    bounds of the region (they may be lowered for speed; raising them beyond
    the bounds buys nothing).  ``method`` selects projected coordinate
    descent or the exhaustive simplex-grid oracle (grid mode searches
    P(U|Xt) with constant V and Q, which is exact for the default storage
    objective).
    """

    restarts: int = 8
    grid_step: float = 0.05
    max_iters: int = 200
    convergence_tol: float = 1e-7
    seed: int = 0
    u_size: Optional[int] = None
    v_size: Optional[int] = None
    q_size: Optional[int] = None
    objective: Literal["rw", "rs", "rl"] = "rw"
    method: Literal["descent", "grid"] = "descent"

    def __post_init__(self):
        if self.restarts < 1:
            raise ModelError("restarts must be >= 1")
        if not 0.0 < self.grid_step <= 0.5:
            raise ModelError("grid_step must lie in (0, 0.5]")
        if self.max_iters < 1 or self.convergence_tol <= 0.0:
            raise ModelError("invalid optimizer controls")

    def resolved_sizes(self, xtilde_size: int) -> tuple[int, int, int]:
        du, dv, dq = default_cardinalities(xtilde_size)
        return (
            self.u_size if self.u_size is not None else du,
            self.v_size if self.v_size is not None else dv,
            self.q_size if self.q_size is not None else dq,
        )


@dataclass(frozen=True)
class TracePoint:
    """One traced boundary point: target distortion, bounds, and the argmin."""

    target_d: float
    rates: RateTuple
    scheme: AuxScheme
    report: RegimeReport


# ---------------------------------------------------------------------------
# Scheme evaluation
# ---------------------------------------------------------------------------


def _require_axes(joint: JointPmf, names: tuple[str, ...], what: str) -> None:
    if joint.names != names:
        raise DimensionError(f"{what} expects axes {names}, got {joint.names}")


def extend_with_auxiliaries(
    joint: JointPmf, aux: AuxScheme, enforce_cardinality: bool = True
) -> JointPmf:
    """Joint over (Q, V, U, Xt, X, Y, Z) factorizing as
    P(q|v)P(v|u)P(u|xt)P(xt,x,y,z); the chain (Q,V)-U-Xt-X-(Y,Z) holds by
    construction.

    By default the sufficient cardinality bounds |U| <= (|Xt|+3)^2,
    |V| <= |Xt|+3, |Q| <= 2 are enforced (larger alphabets buy nothing for
    the region); pass ``enforce_cardinality=False`` to lift them.
    """
    _require_axes(joint, SOURCE_AXES, "extend_with_auxiliaries")
    if aux.p_u_given_xtilde.input_size != joint.size_of(AX_XT):
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    if enforce_cardinality:
        nu, nv, nq = default_cardinalities(joint.size_of(AX_XT))
        if aux.u_size > nu or aux.v_size > nv or aux.q_size > nq:
            raise ModelError(
                f"auxiliary alphabets ({aux.u_size}, {aux.v_size}, {aux.q_size}) "
                f"exceed the sufficient bounds ({nu}, {nv}, {nq}); "
                "pass enforce_cardinality=False to override"
            )
    table = np.einsum(
        "vq,uv,au,axyz->qvuaxyz",
        aux.p_q_given_v.rows,
        aux.p_v_given_u.rows,
        aux.p_u_given_xtilde.rows,
        joint.table,
    )
    return JointPmf(FULL_AXES, table)


def extend_with_vu(joint: JointPmf, aux: AuxScheme) -> JointPmf:
    """Joint over (V, U, Xt, X, Y, Z) without the time-sharing variable."""
    _require_axes(joint, SOURCE_AXES, "extend_with_vu")
    if aux.p_u_given_xtilde.input_size != joint.size_of(AX_XT):
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    table = np.einsum(
        "uv,au,axyz->vuaxyz",
        aux.p_v_given_u.rows,
        aux.p_u_given_xtilde.rows,
        joint.table,
    )
    return JointPmf(VU_AXES, table)


def r_prime(full: JointPmf) -> float:
    """[I(U;Z|V,Q) - I(U;Y|V,Q)]^- from the fully extended joint."""
    _require_axes(full, FULL_AXES, "r_prime")
    diff = full.mutual_information((AX_U,), (AX_Z,), (AX_V, AX_Q)) - full.mutual_information(
        (AX_U,), (AX_Y,), (AX_V, AX_Q)
    )
    return min(diff, 0.0)


def _optimal_reconstruction_from_uxty(
    p_u_xt_y: np.ndarray, metric: DistortionMetric
) -> tuple[np.ndarray, float]:
    """Shared core: p_u_xt_y has axes (U, Xt, Y)."""
    if metric.xtilde_size != p_u_xt_y.shape[1]:
        raise DimensionError("distortion table rows must match |Xt|")
    # cost[u, y, xhat] = sum_xt P(u, xt, y) d(xt, xhat)
    cost = np.einsum("uay,ab->uyb", p_u_xt_y, metric.table)
    recon = np.argmin(cost, axis=2)  # ties -> smallest index
    expected = float(np.min(cost, axis=2).sum())
    recon.setflags(write=False)
    return recon, expected


def optimal_reconstruction(
    full: JointPmf, metric: DistortionMetric
) -> tuple[np.ndarray, float]:
    """Distortion-minimizing map (U, Y) -> Xhat and its expected distortion.

    For each (u, y) of positive probability the map picks the xhat minimizing
    E[d(Xt, xhat) | u, y]; ties and zero-probability cells resolve to the
    smallest alphabet index.
    """
    _require_axes(full, FULL_AXES, "optimal_reconstruction")
    p = full.marginal_table((AX_U, AX_XT, AX_Y))
    return _optimal_reconstruction_from_uxty(p, metric)


def reconstruction_distortion(
    full: JointPmf, metric: DistortionMetric, reconstruction: np.ndarray
) -> float:
    """Expected distortion of a user-supplied (U, Y) -> Xhat map."""
    _require_axes(full, FULL_AXES, "reconstruction_distortion")
    recon = np.asarray(reconstruction, dtype=int)
    p = full.marginal_table((AX_U, AX_XT, AX_Y))
    if recon.shape != (p.shape[0], p.shape[2]):
        raise DimensionError("reconstruction map must be (|U|, |Y|)")
    d = metric.table[:, recon]  # (Xt, U, Y)
    return float(np.einsum("uay,auy->", p, d))


def _clamp(v: float) -> float:
    return v if v > 0.0 else 0.0


def lossy_point(full: JointPmf, r0: float, metric: DistortionMetric) -> RegimeReport:
    """Minimal achievable bounds of the lossy region for one fixed scheme.

    The storage bound rw = I(U;Xt|Y) always applies.  The leakage bounds
    depend on where the key rate r0 falls relative to the thresholds
    I(U;Xt|Y,V) and I(U;Xt|Y): below both, rs = I(U;Xt|Z) + R' - r0 and
    rl = I(U;X|Z) + R' - r0 (clamped at zero); between them, rs = I(V;Xt|Z)
    and rl = I(V;X|Z); at or above I(U;Xt|Y) both leakages are exactly zero.
    """
    _require_axes(full, FULL_AXES, "lossy_point")
    if r0 < 0.0:
        raise ValueError("private-key rate r0 must be >= 0")
    t_high = _clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Y,)))
    t_low = _clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Y, AX_V)))
    rp = r_prime(full)
    _, dist = optimal_reconstruction(full, metric)

    if r0 >= t_high:
        regime: Regime = "large_key"
        rs = rl = 0.0
    elif r0 >= t_low:
        regime = "middle_key"
        rs = _clamp(full.mutual_information((AX_V,), (AX_XT,), (AX_Z,)))
        rl = _clamp(full.mutual_information((AX_V,), (AX_X,), (AX_Z,)))
    else:
        regime = "small_key"
        rs = _clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Z,)) + rp - r0)
        rl = _clamp(full.mutual_information((AX_U,), (AX_X,), (AX_Z,)) + rp - r0)

    bounds = RateTuple(rw=t_high, rs=rs, rl=rl, d=dist)
    return RegimeReport(
        regime=regime,
        threshold_low=t_low,
        threshold_high=t_high,
        r_prime=rp,
        bounds=bounds,
    )


def lossless_point(
    joint: JointPmf,
    aux_v: StochasticMatrix,
    aux_q: StochasticMatrix,
    r0: float,
    strict_cardinality: bool = True,
) -> RegimeReport:
    """Lossless region bounds: the U = Xt specialization of ``lossy_point``.

    rw = H(Xt|Y); regimes are keyed on H(Xt|Y,V) and H(Xt|Y); distortion is
    exactly zero under the Hamming metric.
    """
    _require_axes(joint, SOURCE_AXES, "lossless_point")
    nxt = joint.size_of(AX_XT)
    if aux_v.input_size != nxt:
        raise DimensionError("P(V|Xt) input size must equal |Xt|")
    if strict_cardinality and (
        aux_v.output_size > nxt + 2 or aux_q.output_size > 2
    ):
        raise ModelError(
            "lossless region defaults require |V| <= |Xt|+2 and |Q| <= 2 "
            "(pass strict_cardinality=False to override)"
        )
    aux = AuxScheme(StochasticMatrix.identity(nxt), aux_v, aux_q)
    return lossy_point(extend_with_auxiliaries(joint, aux), r0, DistortionMetric.hamming(nxt))


def corollary_point(
    joint: JointPmf, aux_u: StochasticMatrix, metric: DistortionMetric
) -> RateTuple:
    """No-key bounds when the eavesdropper is less noisy than the decoder:
    rw = I(U;Xt) - I(U;Y), rs = I(U;Xt) - I(U;Z), rl = I(U;X) - I(U;Z).

    The caller is responsible for the less-noisy ordering (see
    ``channels.check_stochastic_degraded`` for a sufficient certificate);
    under it this equals the small-key ``lossy_point`` with constant V, Q and
    r0 = 0.  Evaluated by the scheme evaluator, which never forms the joint
    with U, so it stays cheap on the finely quantized models of the Gaussian
    bridge.
    """
    _require_axes(joint, SOURCE_AXES, "corollary_point")
    if aux_u.input_size != joint.size_of(AX_XT):
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    nu = aux_u.output_size
    rep = _SchemeEvaluator(joint, metric).evaluate(
        aux_u.rows, np.ones((nu, 1)), np.ones((1, 1)), 0.0
    )
    # At r0 = 0 the small-key leakages are the corollary's plus R'.  In the
    # other regimes I(U;Xt|Y) = 0, the leakages are zero and the corollary's
    # equal -R'.  Either way subtracting R' recovers them.
    b = rep.bounds
    return RateTuple(
        rw=b.rw, rs=_clamp(b.rs - rep.r_prime), rl=_clamp(b.rl - rep.r_prime), d=b.d
    )


# ---------------------------------------------------------------------------
# Search over auxiliary schemes
# ---------------------------------------------------------------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    a = -np.sort(-v)
    cssv = (np.cumsum(a) - 1.0) / np.arange(1, v.size + 1)
    k = np.nonzero(a > cssv)[0][-1]
    return np.maximum(v - cssv[k], 0.0)


class _SchemeEvaluator:
    """The bounds of ``lossy_point`` straight from the raw rows of P(U|Xt),
    P(V|U) and P(Q|V), without forming the joint with the auxiliaries.

    Built once per (joint, metric) from P(Xt,Y), P(Xt,Z) and P(Xt,X,Z); every
    term is an entropy of a small table over the auxiliaries and one source
    variable, using the chain (Q,V) - U - Xt - X - (Y,Z).  ``rates`` gives the
    storage rate and distortion alone, which depend on P(U|Xt) only;
    ``rates_batch`` gives them for a stack of P(U|Xt) matrices at once.
    """

    def __init__(self, joint: JointPmf, metric: DistortionMetric):
        self.p_xt_y = joint.marginal_table((AX_XT, AX_Y))  # (Xt, Y)
        self.p_xt = self.p_xt_y.sum(axis=1)
        self.h_y = entropy_bits(self.p_xt_y.sum(axis=0))
        self.h_xt = entropy_bits(self.p_xt)
        # dist_core[xt, y, xhat] = P(xt, y) d(xt, xhat)
        self.dist_core = np.einsum("ay,ab->ayb", self.p_xt_y, metric.table)
        self.p_xt_z = joint.marginal_table((AX_XT, AX_Z))  # (Xt, Z)
        self.p_xt_xz = joint.marginal_table((AX_XT, AX_X, AX_Z)).reshape(self.p_xt.size, -1)
        self.h_z = entropy_bits(self.p_xt_z.sum(axis=0))
        self.h_xz = entropy_bits(self.p_xt_xz.sum(axis=0))

    def rates(self, t: np.ndarray) -> tuple[float, float]:
        # I(U;Xt|Y) = H(U|Y) - H(U|Xt) via the chain U - Xt - Y.
        p_u_y = t.T @ self.p_xt_y  # (U, Y)
        h_u_y = entropy_bits(p_u_y) - self.h_y
        p_u_xt = self.p_xt[:, None] * t
        h_u_xt = entropy_bits(p_u_xt) - self.h_xt
        rw = max(0.0, h_u_y - h_u_xt)
        cost = np.einsum("au,ayb->uyb", t, self.dist_core)
        dist = float(np.min(cost, axis=2).sum())
        return rw, dist

    def rates_batch(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``rates`` for a stack ``t`` of P(U|Xt) matrices, shape (B, |Xt|, |U|).

        Same formulas, summed in another order, so each value may differ from
        the scalar one in the last bits (about 1e-15 on desk-scale grids).
        """
        b, nxt, nu = t.shape
        t_u = t.transpose(0, 2, 1).reshape(b * nu, nxt)  # row (cell, u) is P(u | Xt)
        p_u_y = (t_u @ self.p_xt_y).reshape(b, -1)
        p_u_xt = (t_u * self.p_xt).reshape(b, -1)
        rw = (entropy_bits(p_u_y, axis=1) - self.h_y) - (entropy_bits(p_u_xt, axis=1) - self.h_xt)
        # Minimum over xhat of sum_xt P(u, xt, y) d(xt, xhat), one xhat at a
        # time (numpy reduces over a short trailing axis slowly).
        nxhat = self.dist_core.shape[2]
        cost = reduce(np.minimum, [t_u @ self.dist_core[:, :, c] for c in range(nxhat)])
        return np.maximum(rw, 0.0), cost.reshape(b, -1).sum(axis=1)

    def evaluate(
        self, pu: np.ndarray, pv: np.ndarray, pq: np.ndarray, r0: float
    ) -> RegimeReport:
        """``lossy_point`` for the scheme with these rows, at key rate r0."""
        t_high, dist = self.rates(pu)
        p_xt_u = self.p_xt[:, None] * pu
        p_u_y = pu.T @ self.p_xt_y
        p_u_z = pu.T @ self.p_xt_z
        p_u_xz = pu.T @ self.p_xt_xz
        h_u_xt = entropy_bits(p_xt_u) - self.h_xt
        h_u_z = entropy_bits(p_u_z) - self.h_z

        # I(U;Xt|Y,V) = H(U|Y,V) - H(U|Xt,V); V depends on U alone.
        p_xt_v = p_xt_u @ pv
        p_v_y = pv.T @ p_u_y
        t_low = _clamp(
            entropy_bits(p_u_y[:, None, :] * pv[:, :, None]) - entropy_bits(p_v_y)
            - entropy_bits(p_xt_u[:, :, None] * pv[None]) + entropy_bits(p_xt_v)
        )

        # R' = [I(U;Z|V,Q) - I(U;Y|V,Q)]^-; H(U,V,Q) cancels in the difference.
        p_vq_u = pv[:, :, None] * pq[None]  # P(v, q | u)
        p_uvqz = p_u_z[:, None, None, :] * p_vq_u[..., None]
        p_uvqy = p_u_y[:, None, None, :] * p_vq_u[..., None]
        rp = min(
            entropy_bits(p_uvqz.sum(axis=0)) - entropy_bits(p_uvqz)
            - entropy_bits(p_uvqy.sum(axis=0)) + entropy_bits(p_uvqy),
            0.0,
        )

        if r0 >= t_high:
            regime: Regime = "large_key"
            rs = rl = 0.0
        elif r0 >= t_low:
            regime = "middle_key"
            h_v_z = entropy_bits(pv.T @ p_u_z) - self.h_z
            rs = _clamp(h_v_z - entropy_bits(p_xt_v) + self.h_xt)
            rl = _clamp(h_v_z - entropy_bits(pv.T @ p_u_xz) + self.h_xz)
        else:
            regime = "small_key"
            rs = _clamp(h_u_z - h_u_xt + rp - r0)
            rl = _clamp(h_u_z - entropy_bits(p_u_xz) + self.h_xz + rp - r0)
        return RegimeReport(
            regime=regime,
            threshold_low=t_low,
            threshold_high=t_high,
            r_prime=rp,
            bounds=RateTuple(rw=t_high, rs=rs, rl=rl, d=dist),
        )


def _anchor_u_rows(nxt: int, nu: int) -> np.ndarray:
    """A U-channel with zero optimal distortion: symbol i maps to aux symbol
    i mod |U| only when |U| >= |Xt| keeps rows distinct; requires nu >= nxt
    to be distortion-free in general, otherwise the best deterministic map."""
    t = np.zeros((nxt, nu))
    for i in range(nxt):
        t[i, i % nu] = 1.0
    return t


def _descend(objective, mats: list[np.ndarray], target_d: float, cfg: SearchConfig,
             max_iters: int) -> list[np.ndarray]:
    """Projected coordinate descent on the rows of row-stochastic matrices.

    ``objective(mats)`` returns (rate, distortion).  Minimizes
    rate + penalty * max(0, distortion - D) with an escalating exact penalty;
    gradients are forward finite differences on one row at a time.
    """
    mats = [m.copy() for m in mats]
    fd = 1e-6
    penalty = 32.0

    def penalized(ms: list[np.ndarray]) -> float:
        rate, dist = objective(ms)
        return rate + penalty * max(0.0, dist - target_d)

    def with_row(mi: int, row: int, values: np.ndarray) -> list[np.ndarray]:
        trial = list(mats)
        trial[mi] = mats[mi].copy()
        trial[mi][row] = project_to_simplex(values)
        return trial

    for _ in range(6):  # penalty escalations
        for _ in range(max_iters):
            improvement = 0.0
            for mi in range(len(mats)):
                for row in range(mats[mi].shape[0]):
                    base = penalized(mats)
                    current = mats[mi][row]
                    grad = np.empty(current.size)
                    for j in range(current.size):
                        bumped = current.copy()
                        bumped[j] += fd
                        grad[j] = (penalized(with_row(mi, row, bumped)) - base) / fd
                    step = 0.25
                    while step > 1e-10:
                        trial = with_row(mi, row, current - step * grad)
                        v_try = penalized(trial)
                        if v_try < base - 1e-12:
                            mats = trial
                            improvement += base - v_try
                            break
                        step *= 0.5
            if improvement < cfg.convergence_tol:
                break
        _, dist = objective(mats)
        if dist <= target_d + 1e-9:
            break
        penalty *= 8.0
    return mats


def _repair_feasibility(
    obj: _SchemeEvaluator, t: np.ndarray, anchor: np.ndarray, target_d: float
) -> Optional[np.ndarray]:
    """Blend toward the zero-distortion anchor until the target is met."""
    _, dist = obj.rates(t)
    if dist <= target_d + 1e-9:
        return t
    _, anchor_dist = obj.rates(anchor)
    if anchor_dist > target_d + 1e-9:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        blend = (1.0 - mid) * t + mid * anchor
        _, dist = obj.rates(blend)
        if dist <= target_d + 1e-9:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * t + hi * anchor


def simplex_grid(size: int, step: float) -> np.ndarray:
    """All pmfs over ``size`` symbols whose entries are multiples of ``step``,
    in lexicographic order of their tick counts."""
    ticks = int(round(1.0 / step))
    if abs(ticks * step - 1.0) > 1e-9:
        raise ModelError("grid_step must divide 1")
    return compositions(ticks, size) * step


def grid_minimum_storage(
    joint: JointPmf,
    metric: DistortionMetric,
    target_d: float,
    u_size: int,
    step: float,
) -> tuple[float, np.ndarray]:
    """Exhaustive oracle: minimal I(U;Xt|Y) over all P(U|Xt) with rows on the
    ``step``-grid of the |U|-simplex, subject to optimal-map distortion <= D.

    Returns (min rw, argmin row matrix); among equal minima the first cell in
    odometer order (last Xt row fastest) wins.  Exponential in |Xt|; meant for
    desk-scale certification of ``trace_region``.  Grids of more than
    ``GRID_CELL_LIMIT`` row combinations are refused before enumeration.

    The cells are screened ``_GRID_BLOCK`` at a time by
    ``_SchemeEvaluator.rates_batch``, so memory is bounded by the block, not
    by the grid.  Every cell the screen cannot rule out by more than
    ``_GRID_SCREEN_TOL`` (far above its rounding error) is re-scored by the
    scalar ``_SchemeEvaluator.rates`` in enumeration order under the rule
    ``dist <= D + 1e-12 and rw < best``, so the result is the one a
    cell-by-cell scalar scan returns, bit for bit.
    """
    _require_axes(joint, SOURCE_AXES, "grid_minimum_storage")
    nxt = joint.size_of(AX_XT)
    cells = math.comb(int(round(1.0 / step)) + u_size - 1, u_size - 1) ** nxt
    if cells > GRID_CELL_LIMIT:
        raise ModelError(
            f"the grid at |U| = {u_size}, step {step} and |Xt| = {nxt} has {cells:.3g} "
            f"cells, above the limit of {GRID_CELL_LIMIT:.3g}; lower |U| or coarsen the step"
        )
    obj = _SchemeEvaluator(joint, metric)
    rows = simplex_grid(u_size, step)
    tol = _GRID_SCREEN_TOL
    best = math.inf
    best_t: Optional[np.ndarray] = None
    for start in range(0, cells, _GRID_BLOCK):
        idx = np.stack(
            np.unravel_index(np.arange(start, min(start + _GRID_BLOCK, cells)),
                             (rows.shape[0],) * nxt),
            axis=1,
        )
        rw, dist = obj.rates_batch(rows[idx])
        # Cells with dist <= D + 1e-12 - tol are feasible for the scalar rule
        # too, so none scoring above the smallest of them by tol can win.
        sure = rw[dist <= target_d + 1e-12 - tol]
        lo = min(best, float(sure.min())) if sure.size else best
        for i in np.flatnonzero((dist <= target_d + 1e-12 + tol) & (rw <= lo + tol)):
            t = rows[idx[i]]
            rw_i, dist_i = obj.rates(t)
            if dist_i <= target_d + 1e-12 and rw_i < best:
                best = rw_i
                best_t = t
    if best_t is None:
        raise InfeasibleTargetError(
            f"no grid scheme meets distortion target {target_d}"
        )
    return best, best_t


def convexify_trace(points: Sequence[TracePoint]) -> list[tuple[float, float, float, float]]:
    """Lower convex envelope of a traced boundary in the (D, rw) plane.

    Time sharing makes the region convex; points above the chord between two
    neighbours are replaced by the linear interpolation of all bound
    components at their target distortion.  Returns (d, rw, rs, rl) tuples
    sorted by d.
    """
    pts = sorted(points, key=lambda p: p.target_d)
    if len(pts) < 3:
        return [(p.target_d, p.rates.rw, p.rates.rs, p.rates.rl) for p in pts]
    coords = [
        np.array([p.target_d, p.rates.rw, p.rates.rs, p.rates.rl]) for p in pts
    ]
    hull: list[np.ndarray] = []
    for c in coords:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep b only if it lies below the a-c chord in the rw coordinate
            if c[0] == a[0]:
                break
            t = (b[0] - a[0]) / (c[0] - a[0])
            if b[1] <= a[1] + t * (c[1] - a[1]) + 1e-12:
                break
            hull.pop()
        hull.append(c)
    out = []
    hi = 0
    for c in coords:
        while hi + 1 < len(hull) and hull[hi + 1][0] <= c[0]:
            hi += 1
        if hi + 1 == len(hull) or hull[hi][0] == c[0]:
            env = hull[hi]
        else:
            a, b = hull[hi], hull[hi + 1]
            t = (c[0] - a[0]) / (b[0] - a[0])
            env = a + t * (b - a)
        out.append((float(c[0]), float(env[1]), float(env[2]), float(env[3])))
    return out


def trace_region(
    model: SourceModel,
    r0: float,
    metric: DistortionMetric,
    targets: Sequence[float],
    cfg: SearchConfig,
) -> list[TracePoint]:
    """Minimize the configured rate over auxiliary schemes for each target
    distortion and report the attendant bounds.

    Points are returned in ascending target order.  Each target is warm
    started from the previous argmin (feasible by monotonicity of the
    constraint set), so the minimized storage rate is non-increasing in D and
    the whole sweep is deterministic given ``cfg.seed``.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    joint = build_joint(model)
    nxt = joint.size_of(AX_XT)
    nu, nv, nq = cfg.resolved_sizes(nxt)
    obj = _SchemeEvaluator(joint, metric)
    anchor = _anchor_u_rows(nxt, nu)

    if cfg.objective != "rw":
        return _trace_region_generic(joint, obj, r0, metric, sorted(targets), cfg, (nu, nv, nq))

    points: list[TracePoint] = []
    carry: Optional[np.ndarray] = None
    rw_of = lambda ms: obj.rates(ms[0])
    for target in sorted(targets):
        candidates: list[np.ndarray] = []
        if cfg.method == "grid":
            _, best_t = grid_minimum_storage(joint, metric, target, nu, cfg.grid_step)
            candidates.append(best_t)
        else:
            starts: list[np.ndarray] = []
            if carry is not None:
                starts.append(carry)
            starts.append(anchor)
            for restart in range(cfg.restarts):
                rng = np.random.default_rng([cfg.seed, restart])
                starts.append(rng.dirichlet(np.ones(nu), size=nxt))
            for t0 in starts:
                [t] = _descend(rw_of, [np.asarray(t0, dtype=float)], target, cfg, cfg.max_iters)
                repaired = _repair_feasibility(obj, t, anchor, target)
                if repaired is not None:
                    candidates.append(repaired)
        if not candidates:
            raise InfeasibleTargetError(
                f"no feasible scheme found for distortion target {target} "
                f"with |U| = {nu}"
            )
        best_t = min(candidates, key=lambda t: obj.rates(t)[0])
        carry = best_t
        mats = [best_t, np.full((nu, nv), 1.0 / nv), np.full((nv, nq), 1.0 / nq)]
        points.append(_trace_point(joint, r0, metric, target, mats))
    return points


def _trace_point(
    joint: JointPmf, r0: float, metric: DistortionMetric, target: float,
    mats: list[np.ndarray],
) -> TracePoint:
    """The reported point of a search: ``lossy_point`` on the argmin scheme."""
    scheme = AuxScheme(*(StochasticMatrix(m) for m in mats))
    report = lossy_point(extend_with_auxiliaries(joint, scheme), r0, metric)
    return TracePoint(target, report.bounds, scheme, report)


def _trace_region_generic(
    joint: JointPmf,
    obj: _SchemeEvaluator,
    r0: float,
    metric: DistortionMetric,
    targets: Sequence[float],
    cfg: SearchConfig,
    sizes: tuple[int, int, int],
) -> list[TracePoint]:
    """Generic path for the leakage objectives: coordinate descent over the
    rows of all three conditional matrices, scored by the scheme evaluator."""
    nxt = joint.size_of(AX_XT)

    def objective(mats: list[np.ndarray]) -> tuple[float, float]:
        bounds = obj.evaluate(mats[0], mats[1], mats[2], r0).bounds
        return getattr(bounds, cfg.objective), bounds.d

    points: list[TracePoint] = []
    for target in sorted(targets):
        best_val = math.inf
        best_mats: Optional[list[np.ndarray]] = None
        for restart in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, restart])
            mats = [
                rng.dirichlet(np.ones(n_out), size=n_in)
                for n_in, n_out in zip((nxt,) + sizes[:2], sizes)
            ]
            if restart == 0:
                mats[0] = _anchor_u_rows(nxt, sizes[0])
            mats = _descend(objective, mats, target, cfg, min(cfg.max_iters, 60))
            val, dist = objective(mats)
            if dist <= target + 1e-9 and val < best_val:
                best_val, best_mats = val, mats
        if best_mats is None:
            raise InfeasibleTargetError(
                f"no feasible scheme found for distortion target {target}"
            )
        points.append(_trace_point(joint, r0, metric, target, best_mats))
    return points
