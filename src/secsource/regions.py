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
multi-start exponentiated-gradient (KL mirror) descent, one step rule for all
three objectives.  ``_SchemeEvaluator`` computes the same bounds as
``lossy_point`` from pairwise source marginals and the raw matrices without
building the joint, each term as the entropy of a table linear in each
matrix, and gives the descent their analytic gradient.  Its storage rate
and distortion take one P(U|Xt) matrix or a stack of them and give a matrix
the same bits alone as in any stack.  An exhaustive simplex-grid oracle,
``grid_minimum_storage``, is available for desk-scale certification of the
storage search: it scores the grid a fixed-size block of cells at a time, so
its memory is bounded by the block, and its first argmin is the one a
cell-by-cell scan returns, bit for bit.
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

Regime = Literal["small_key", "middle_key", "large_key"]

# Largest number of P(U|Xt) row combinations the grid oracle enumerates
# (|U| = 3 at step 0.05 over a binary Xt is 231^2 = 53,361).
GRID_CELL_LIMIT = 5_000_000
# Cells the grid oracle scores per block.
_GRID_BLOCK = 1024
# Every descent stops after _MAX_ITERS steps, or earlier once a step gains
# less than _CONVERGENCE_TOL, per penalty level.
_MAX_ITERS = 200
_CONVERGENCE_TOL = 1e-7


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

    @staticmethod
    def hamming(n: int) -> "DistortionMetric":
        t = np.ones((n, n))
        np.fill_diagonal(t, 0.0)
        return DistortionMetric(t)


@dataclass(frozen=True)
class AuxScheme:
    """Layered auxiliary channels plus an optional reconstruction map.

    ``reconstruction``, when present, is an integer array of shape
    (|U|, |Y|) with values in the reconstruction alphabet.  Only the codec
    reads it (``secsource simulate`` passes it to ``binning.design_code``,
    which computes the distortion-optimal map when it is absent); the region
    (``lossy_point`` and the searches) always uses the distortion-optimal
    map.
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
    bounds of the region (they may be lowered for speed; ``resolved_sizes``
    refuses sizes above the bounds, which would buy nothing).  ``method``
    selects exponentiated-gradient descent or the exhaustive simplex-grid
    oracle (grid mode searches P(U|Xt) with constant V and Q, which is exact
    for the default storage objective).  Alphabet sizes below 1 are refused.
    """

    restarts: int = 8
    grid_step: float = 0.05
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
        for name in ("u_size", "v_size", "q_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ModelError(f"{name} must be >= 1, got {size}")

    def resolved_sizes(self, xtilde_size: int) -> tuple[int, int, int]:
        bounds = default_cardinalities(xtilde_size)
        sizes = (self.u_size, self.v_size, self.q_size)
        for name, size, bound in zip(("u_size", "v_size", "q_size"), sizes, bounds):
            if size is not None and size > bound:
                raise ModelError(f"{name}={size} exceeds the sufficient bound {bound} "
                                 f"for |Xt| = {xtilde_size}")
        return tuple(bound if size is None else size for size, bound in zip(sizes, bounds))


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


def extend_with_auxiliaries(joint: JointPmf, aux: AuxScheme) -> JointPmf:
    """Joint over (Q, V, U, Xt, X, Y, Z) factorizing as
    P(q|v)P(v|u)P(u|xt)P(xt,x,y,z); the chain (Q,V)-U-Xt-X-(Y,Z) holds by
    construction.
    """
    _require_axes(joint, SOURCE_AXES, "extend_with_auxiliaries")
    if aux.p_u_given_xtilde.input_size != joint.size_of(AX_XT):
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    table = np.einsum(
        "vq,uv,au,axyz->qvuaxyz",
        aux.p_q_given_v.rows,
        aux.p_v_given_u.rows,
        aux.p_u_given_xtilde.rows,
        joint.table,
    )
    return JointPmf(FULL_AXES, table)


# ``bench/workloads.py`` calls this name; it goes with the benchmark change
# that deletes that call (ROADMAP item 5).
extend_with_vu = extend_with_auxiliaries


def r_prime(full: JointPmf) -> float:
    """[I(U;Z|V,Q) - I(U;Y|V,Q)]^- from the fully extended joint."""
    _require_axes(full, FULL_AXES, "r_prime")
    diff = full.mutual_information((AX_U,), (AX_Z,), (AX_V, AX_Q)) - full.mutual_information(
        (AX_U,), (AX_Y,), (AX_V, AX_Q)
    )
    return min(diff, 0.0)


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
    if metric.xtilde_size != p.shape[1]:
        raise DimensionError("distortion table rows must match |Xt|")
    # cost[u, y, xhat] = sum_xt P(u, xt, y) d(xt, xhat)
    cost = np.einsum("uay,ab->uyb", p, metric.table)
    recon = np.argmin(cost, axis=2)  # ties -> smallest index
    expected = float(np.min(cost, axis=2).sum())
    recon.setflags(write=False)
    return recon, expected


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


def _leakages(full: JointPmf, regime: Regime, rp: float, r0: float) -> tuple[float, float]:
    """The secrecy and privacy leakage bounds (rs, rl) of ``regime`` on the
    joint ``full``, with R' = ``rp`` and key rate ``r0``."""
    if regime == "large_key":
        return 0.0, 0.0
    if regime == "middle_key":
        return (_clamp(full.mutual_information((AX_V,), (AX_XT,), (AX_Z,))),
                _clamp(full.mutual_information((AX_V,), (AX_X,), (AX_Z,))))
    return (_clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Z,)) + rp - r0),
            _clamp(full.mutual_information((AX_U,), (AX_X,), (AX_Z,)) + rp - r0))


def lossy_point(full: JointPmf, r0: float, metric: DistortionMetric) -> RegimeReport:
    """Minimal achievable bounds of the lossy region for one fixed scheme.

    The storage bound rw = I(U;Xt|Y) always applies.  The leakage bounds
    depend on where the key rate r0 falls relative to the thresholds
    I(U;Xt|Y,V) and I(U;Xt|Y): below both, rs = I(U;Xt|Z) + R' - r0 and
    rl = I(U;X|Z) + R' - r0 (clamped at zero); between them, rs = I(V;Xt|Z)
    and rl = I(V;X|Z); at or above I(U;Xt|Y) both leakages are exactly zero.
    """
    _require_axes(full, FULL_AXES, "lossy_point")
    if not math.isfinite(r0) or r0 < 0.0:
        raise ModelError(f"private-key rate r0={r0!r} must be finite and >= 0")
    t_high = _clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Y,)))
    t_low = _clamp(full.mutual_information((AX_U,), (AX_XT,), (AX_Y, AX_V)))
    rp = r_prime(full)
    _, dist = optimal_reconstruction(full, metric)
    regime: Regime = "large_key" if r0 >= t_high else "middle_key" if r0 >= t_low else "small_key"
    rs, rl = _leakages(full, regime, rp, r0)
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
) -> RegimeReport:
    """Lossless region bounds: the U = Xt specialization of ``lossy_point``.

    rw = H(Xt|Y); regimes are keyed on H(Xt|Y,V) and H(Xt|Y); distortion is
    exactly zero under the Hamming metric.
    """
    _require_axes(joint, SOURCE_AXES, "lossless_point")
    nxt = joint.size_of(AX_XT)
    if aux_v.input_size != nxt:
        raise DimensionError("P(V|Xt) input size must equal |Xt|")
    if aux_v.output_size > nxt + 2 or aux_q.output_size > 2:
        raise ModelError(
            "the lossless region needs |V| <= |Xt|+2 and |Q| <= 2, got "
            f"|V| = {aux_v.output_size} and |Q| = {aux_q.output_size}"
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


# Every entropy the scheme evaluator takes, as the einsum that forms its table
# from the rows of P(U|Xt) (au), P(V|U) (uv) and P(Q|V) (vq), in that order,
# and one source table: P(Xt) (a), P(Xt,Y) (ay), P(Xt,Z) (az) or P(Xt,(X,Z))
# (ak).  The chain (Q,V) - U - Xt - X - (Y,Z) makes each table linear in each
# matrix, so the gradient of its entropy is the adjoint einsum applied to
# -(log2 T + 1/ln 2).  Terms are named by their output subscripts.
_TERM_SPECS = (
    "au,a->au", "au,ay->uy", "au,az->uz", "au,ak->uk", "au,uv,a->auv", "au,uv,a->av",
    "au,uv,ay->uvy", "au,uv,ay->vy", "au,uv,az->vz", "au,uv,ak->vk",
    "au,uv,vq,ay->uvqy", "au,uv,vq,ay->vqy", "au,uv,vq,az->uvqz", "au,uv,vq,az->vqz",
)


def _term(spec: str) -> tuple[str, tuple[str, int, str, list[str]]]:
    """name -> (spec, number of matrices, source subscripts, adjoint spec per matrix)."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    k = len(ins) - 1
    return out, (spec, k, ins[k], [
        ",".join([out, *ins[:i], *ins[i + 1:]]) + "->" + ins[i] for i in range(k)])


_TERMS = dict(_term(spec) for spec in _TERM_SPECS)
_LOG2E = 1.0 / math.log(2.0)
# The bounds as signed sums of the terms; source entropies are added apart.
_T_HIGH = {"uy": 1.0, "au": -1.0}                                 # I(U;Xt|Y) - H(Xt) + H(Y)
_T_LOW = {"uvy": 1.0, "vy": -1.0, "auv": -1.0, "av": 1.0}         # I(U;Xt|Y,V)
_R_DIFF = {"vqz": 1.0, "uvqz": -1.0, "vqy": -1.0, "uvqy": 1.0}    # I(U;Z|V,Q) - I(U;Y|V,Q)
_LEAKAGE = {  # each leakage by (regime, objective), less its source entropies
    ("small_key", "rs"): {"uz": 1.0, "au": -1.0},                 # I(U;Xt|Z)
    ("small_key", "rl"): {"uz": 1.0, "uk": -1.0},                 # I(U;X|Z)
    ("middle_key", "rs"): {"vz": 1.0, "av": -1.0},                # I(V;Xt|Z)
    ("middle_key", "rl"): {"vz": 1.0, "vk": -1.0},                # I(V;X|Z)
}


def _sum_over_xt(t: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_xt t[..., xt, u] table[xt, ...], of shape (..., |U|, *table.shape[1:]).

    Added up over xt in index order with elementwise operations only (no
    matmul or einsum, whose summation order may depend on the operands'
    shapes), so a matrix of a stack gets the bits it gets alone.
    """
    pad = (slice(None),) + (None,) * (table.ndim - 1)  # U, then the table's axes
    out = t[(..., 0, *pad)] * table[0]
    for a in range(1, len(table)):
        out += t[(..., a, *pad)] * table[a]
    return out


def _least_cost(cost: np.ndarray) -> np.ndarray:
    """Sum over (u, y) of the minimum over xhat of ``cost[..., u, y, xhat]``."""
    # One xhat at a time (numpy reduces over a short trailing axis slowly).
    best = reduce(np.minimum, [cost[..., c] for c in range(cost.shape[-1])])
    return best.reshape(*best.shape[:-2], -1).sum(axis=-1)


class _SchemeEvaluator:
    """The bounds of ``lossy_point`` straight from the raw rows of P(U|Xt),
    P(V|U) and P(Q|V), without forming the joint with the auxiliaries.

    Built once per (joint, metric) from P(Xt,Y), P(Xt,Z) and P(Xt,X,Z); every
    term is the entropy of a small table over the auxiliaries and one source
    variable (``_TERMS``).  ``evaluate`` and the descent's ``penalized`` share
    that term list, and ``penalized`` also gives the gradient.  ``storage``
    gives the storage rate and the optimal-map distortion, which depend on
    P(U|Xt) only, for one matrix or a stack of them, with the same bits for a
    matrix alone as in any stack (``_sum_over_xt``).
    """

    def __init__(self, joint: JointPmf, metric: DistortionMetric):
        self.p_xt_y = joint.marginal_table((AX_XT, AX_Y))  # (Xt, Y)
        self.p_xt = self.p_xt_y.sum(axis=1)
        self.h_y = entropy_bits(self.p_xt_y.sum(axis=0))
        self.h_xt = entropy_bits(self.p_xt)
        # storage_core[xt, y] = (P(xt, y) d(xt, xhat) for each xhat, P(xt, y)):
        # one pass over Xt gives the distortion costs and P(U, Y).
        self.storage_core = np.concatenate(
            [np.einsum("ay,ab->ayb", self.p_xt_y, metric.table), self.p_xt_y[:, :, None]], axis=2
        )
        self.p_xt_z = joint.marginal_table((AX_XT, AX_Z))  # (Xt, Z)
        self.p_xt_xz = joint.marginal_table((AX_XT, AX_X, AX_Z)).reshape(self.p_xt.size, -1)
        self.h_z = entropy_bits(self.p_xt_z.sum(axis=0))
        self.sources = {"a": self.p_xt, "ay": self.p_xt_y, "az": self.p_xt_z, "ak": self.p_xt_xz}
        # The source entropies of each leakage: H(Xt) - H(Z) and H(X,Z) - H(Z).
        self.leak_const = {"rs": self.h_xt - self.h_z,
                           "rl": entropy_bits(self.p_xt_xz.sum(axis=0)) - self.h_z}

    def storage(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I(U;Xt|Y) and the optimal-map distortion of P(U|Xt) = ``t``, or of
        each matrix of a stack ``t`` of shape (..., |Xt|, |U|)."""
        lead = t.shape[:-2]
        core = _sum_over_xt(t, self.storage_core)  # (..., U, Y, Xhat + 1)
        h_uy = entropy_bits(core[..., -1].reshape(*lead, -1), axis=-1)
        h_uxt = entropy_bits((t * self.p_xt[:, None]).reshape(*lead, -1), axis=-1)
        return np.maximum(h_uy - h_uxt + self.h_xt - self.h_y, 0.0), _least_cost(core[..., :-1])

    def _tables(self, mats: Sequence[np.ndarray], names) -> dict[str, np.ndarray]:
        tables = {}
        for name in names:
            spec, k, src, _ = _TERMS[name]
            tables[name] = np.einsum(spec, *mats[:k], self.sources[src])
        return tables

    def _gradient(self, mats: Sequence[np.ndarray], coefs: dict[str, float]) -> list[np.ndarray]:
        """Gradient of sum_T coefs[T] H(T) with respect to each matrix."""
        grads = [np.zeros_like(m) for m in mats]
        for name, t in self._tables(mats, coefs).items():
            _, k, src, adjoints = _TERMS[name]
            with np.errstate(divide="ignore"):
                g = np.where(t > 0.0, -coefs[name] * (np.log2(t) + _LOG2E), 0.0)
            ops = [*mats[:k], self.sources[src]]
            for i, adjoint in enumerate(adjoints):
                grads[i] += np.einsum(adjoint, g, *ops[:i], *ops[i + 1:])
        return grads

    def _distortion_gradient(self, pu: np.ndarray) -> np.ndarray:
        """Subgradient of the distortion at ``pu``: the cost part of
        ``storage_core`` read at the optimal map and summed over Y."""
        best = _sum_over_xt(pu, self.storage_core)[..., :-1].argmin(axis=2)
        return self.storage_core[:, np.arange(best.shape[1]), best].sum(axis=2)

    def evaluate(
        self, pu: np.ndarray, pv: np.ndarray, pq: np.ndarray, r0: float
    ) -> RegimeReport:
        """``lossy_point`` for the scheme with these rows, at key rate r0.
        Only the terms of the bounds it reports are taken."""
        h: dict[str, float] = {}

        def bound(coefs: dict[str, float]) -> float:
            new = self._tables((pu, pv, pq), [name for name in coefs if name not in h])
            h.update((name, entropy_bits(t)) for name, t in new.items())
            return sum(c * h[name] for name, c in coefs.items())

        t_high, dist = (float(v) for v in self.storage(pu))
        t_low = _clamp(bound(_T_LOW))
        rp = min(bound(_R_DIFF), 0.0)
        rs = rl = 0.0
        regime: Regime = "large_key"
        if r0 < t_high:
            regime = "middle_key" if r0 >= t_low else "small_key"
            shift = rp - r0 if regime == "small_key" else 0.0
            rs, rl = (_clamp(bound(_LEAKAGE[regime, o]) + self.leak_const[o] + shift)
                      for o in ("rs", "rl"))
        bounds = RateTuple(rw=t_high, rs=rs, rl=rl, d=dist)
        return RegimeReport(regime, t_low, t_high, rp, bounds)

    def penalized(self, mats: Sequence[np.ndarray], r0: float, objective: str,
                  target_d: float, penalty: float):
        """The descent's objective: the ``objective`` rate of the scheme
        ``mats`` (P(U|Xt) alone for rw) plus ``penalty * max(0, d - D)``.

        Returns its value, the distortion and a function that gives the
        gradient with respect to each matrix.  Only the active regime's terms
        enter; R' enters when it is negative and a clamped rate not at all.
        """
        if objective == "rw":
            rate, dist = self.storage(mats[0])
            coefs = _T_HIGH
        else:
            report = self.evaluate(*mats, r0)
            rate, dist = getattr(report.bounds, objective), report.bounds.d
            coefs = dict(_LEAKAGE.get((report.regime, objective), {}))
            if report.regime == "small_key" and report.r_prime < 0.0:
                coefs.update(_R_DIFF)

        def gradient() -> list[np.ndarray]:
            grads = self._gradient(mats, coefs if rate > 0.0 else {})
            if dist > target_d:
                grads[0] += penalty * self._distortion_gradient(mats[0])
            return grads

        return rate + penalty * max(0.0, dist - target_d), dist, gradient


def _anchor_u_rows(nxt: int, nu: int) -> np.ndarray:
    """The deterministic U-channel that sends source symbol i to auxiliary
    symbol i mod |U|.  With |U| >= |Xt| the symbols stay apart, so its
    optimal distortion is zero under any metric with a zero diagonal."""
    t = np.zeros((nxt, nu))
    t[np.arange(nxt), np.arange(nxt) % nu] = 1.0
    return t


def _exp_step(m: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """M * exp(-eta G) with rows renormalized; exact zeros stay zero."""
    z = np.where(m > 0.0, -eta * g, -np.inf)
    w = m * np.exp(z - z.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def _mirror_descent(
    obj: _SchemeEvaluator, mats: list[np.ndarray], r0: float, objective: str, target_d: float,
) -> list[np.ndarray]:
    """Exponentiated-gradient (KL mirror) descent of ``obj.penalized`` over
    row-stochastic matrices, all moved at once by ``_exp_step``.

    Each step tries twice the last accepted size and halves it until the
    Armijo condition holds.  A run stops after ``_MAX_ITERS`` steps or once
    a step gains less than ``_CONVERGENCE_TOL``; while the result misses
    the target, the penalty (from 32) grows eightfold, up to six times.
    """
    penalty, eta = 32.0, 1.0
    for _ in range(6):  # penalty escalations
        value, dist, gradient = obj.penalized(mats, r0, objective, target_d, penalty)
        for _ in range(_MAX_ITERS):
            grads = gradient()
            eta *= 2.0
            while eta > 1e-12:
                trial = [_exp_step(m, g, eta) for m, g in zip(mats, grads)]
                t_value, t_dist, t_gradient = obj.penalized(trial, r0, objective, target_d, penalty)
                slope = sum(float(np.sum(g * (m - t))) for g, m, t in zip(grads, mats, trial))
                if t_value <= value - 1e-4 * slope:
                    break
                eta *= 0.5
            else:
                break  # no step size decreases the objective
            gain = value - t_value
            mats, value, dist, gradient = trial, t_value, t_dist, t_gradient
            if gain < _CONVERGENCE_TOL:
                break
        if dist <= target_d + 1e-9:
            break
        penalty *= 8.0
    return mats


def _repair_feasibility(
    obj: _SchemeEvaluator, t: np.ndarray, anchor: np.ndarray, target_d: float
) -> Optional[np.ndarray]:
    """Blend toward the zero-distortion anchor until the target is met
    exactly, so that rounding in the reported distortion stays far inside
    the 1e-9 the searches allow.  Each step reads the distortion half of
    ``obj.storage`` alone: the rate's entropies would double its cost."""

    def dist(m: np.ndarray) -> float:
        return _least_cost(_sum_over_xt(m, obj.storage_core)[..., :-1])

    if dist(t) <= target_d:
        return t
    if dist(anchor) > target_d:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        blend = (1.0 - mid) * t + mid * anchor
        if dist(blend) <= target_d:
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

    The cells are scored ``_GRID_BLOCK`` at a time by
    ``_SchemeEvaluator.storage``, so memory is bounded by the block, not by
    the grid.  The evaluator gives a matrix the same bits alone as in any
    block, so the first cell of least rw among those with
    ``dist <= D + 1e-12`` is the one a cell-by-cell scan returns, bit for bit.
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
    best = math.inf
    best_t: Optional[np.ndarray] = None
    for start in range(0, cells, _GRID_BLOCK):
        idx = np.stack(
            np.unravel_index(np.arange(start, min(start + _GRID_BLOCK, cells)),
                             (rows.shape[0],) * nxt),
            axis=1,
        )
        rw, dist = obj.storage(rows[idx])
        rw = np.where(dist <= target_d + 1e-12, rw, np.inf)
        i = int(rw.argmin())
        if rw[i] < best:
            best, best_t = float(rw[i]), rows[idx[i]]
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

    Points are returned in ascending target order.  Each target descends
    from the previous argmin (feasible by monotonicity of the constraint set,
    and kept as a candidate, so the minimized rate is non-increasing in D),
    from the anchor mixed with uniform rows and from ``cfg.restarts``
    Dirichlet draws; the whole sweep is deterministic given ``cfg.seed``.
    The storage search moves P(U|Xt) and reports uniform V and Q rows.  A
    leakage search descends every start for both leakage objectives and keeps
    the least requested leakage, so it never returns a scheme worse than one
    the other leakage's search finds.  A result that misses the target is
    blended toward the anchor until it meets it.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if not math.isfinite(r0) or not all(math.isfinite(d) for d in targets):
        raise ModelError(f"r0 and the distortion targets must be finite, got r0={r0!r} "
                         f"and targets {list(targets)}")
    joint = build_joint(model)
    nxt = joint.size_of(AX_XT)
    nu, nv, nq = cfg.resolved_sizes(nxt)
    obj = _SchemeEvaluator(joint, metric)
    anchor = _anchor_u_rows(nxt, nu)
    uniform = [np.full((nu, nv), 1.0 / nv), np.full((nv, nq), 1.0 / nq)]
    # The storage search moves P(U|Xt) alone; a leakage search all three.
    if cfg.objective == "rw":
        objectives, mix, moving = ("rw",), 1e-3, 1
    else:
        objectives, mix, moving = (cfg.objective, "rl" if cfg.objective == "rs" else "rs"), 0.5, 3

    def rate(mats: list[np.ndarray]) -> float:
        return getattr(obj.evaluate(*mats, r0).bounds, cfg.objective)

    points: list[TracePoint] = []
    carry: Optional[list[np.ndarray]] = None
    for target in sorted(targets):
        if cfg.method == "grid":
            _, best_t = grid_minimum_storage(joint, metric, target, nu, cfg.grid_step)
            candidates = [[best_t, *uniform]]
        else:
            candidates = [carry] if carry is not None else []
            starts = list(candidates)
            for restart in range(cfg.restarts):
                rng = np.random.default_rng([cfg.seed, restart])
                mats = [rng.dirichlet(np.ones(n_out), size=n_in)
                        for n_in, n_out in ((nxt, nu), (nu, nv), (nv, nq))]
                if cfg.objective == "rw":
                    mats[1:] = uniform
                if restart == 0:
                    starts.append([(1.0 - mix) * anchor + mix / nu, *mats[1:]])
                starts.append(mats)
            for start in starts:
                for objective in objectives:
                    mats = _mirror_descent(obj, start[:moving], r0, objective, target)
                    mats += start[moving:]
                    repaired = _repair_feasibility(obj, mats[0], anchor, target)
                    if repaired is not None:
                        candidates.append([repaired, *mats[1:]])
        if not candidates:
            raise InfeasibleTargetError(
                f"no feasible scheme found for distortion target {target} "
                f"with |U| = {nu}"
            )
        carry = min(candidates, key=rate)
        scheme = AuxScheme(*(StochasticMatrix(m) for m in carry))
        report = lossy_point(extend_with_auxiliaries(joint, scheme), r0, metric)
        points.append(TracePoint(target, report.bounds, scheme, report))
    return points
