"""Single-letter rate bounds for secure/private source coding and the search
over auxiliary schemes that traces achievable-region boundaries.

An auxiliary scheme is a layered test channel Xt -> U -> V together with a
reconstruction map (U, Y) -> Xhat.  ``lossy_point`` evaluates the storage,
secrecy-leakage and privacy-leakage bounds of the general lossy region for a
fixed scheme and private-key rate from the joint over all six variables; it
is the reference that the scheme evaluator below is tested against.
``lossless_point`` is its U = Xt specialization; ``corollary_point`` is the
no-key form that is tight when the eavesdropper's channel is less noisy than
the decoder's.

A further layer Q drawn from P(Q|V) would change no bound: given V it is
independent of (U, Y, Z), so I(U;Z|V,Q) = I(U;Z|V) and I(U;Y|V,Q) =
I(U;Y|V), and the schemes here have no Q.  Read instead as a time-sharing
variable that U and V depend on, Q is the convexification that the storage
LP below already takes over its columns.

The "for some scheme" existential in the region statement is resolved
numerically by ``trace_region``.  The storage rate is minimized by a linear
program over posteriors P(Xt | U = u) (``_StorageLP``): under U - Xt - Y the
rate and the optimal-map distortion are linear in the posteriors' weights,
so time sharing and the |Xt|+1 cardinality bound come with the LP, and its
duals certify a lower bound on the least rate.  Columns enter by exact
pricing, a concave ascent per reconstruction map Y -> Xhat whose
Frank-Wolfe bound certifies the price, each re-solve starting from the last
basis.  Each leakage is minimized over the rows of the conditional-pmf
matrices with multi-start exponentiated-gradient (KL mirror) descent, each
start descending alone.  ``_SchemeEvaluator`` computes the same bounds as
``lossy_point`` from the raw matrices and the pairwise tables P(Xt,X), P(Xt,Y)
and P(Xt,Z), building no joint, each term as the entropy of a table linear
in each matrix, and gives the descent their analytic gradient.
Its storage form scores a stack of P(U|Xt) matrices and gives each the same
bits alone as in any stack; it scores distortion as the least one, P(Xt)
times the metric's row minima, plus the cost above those minima.  The no-key
form, the search and the exhaustive simplex-grid oracle,
``grid_minimum_storage``, take the model; the oracle is kept as a reference
for the storage search, scoring the grid a block of cells at a time, and its
first argmin is the one a cell-by-cell scan returns, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Literal, Optional, Sequence

import numpy as np

from .channels import _COST_TOL, _simplex
from .probability import (
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
    _frozen_array,
    compositions,
    entropy_bits,
)

FULL_AXES = (AX_V, AX_U) + SOURCE_AXES

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
# The storage LP (``_StorageLP``): the certified gap it prices to, the ascent
# steps it may take per target, the most reconstruction maps it prices over
# and its objective offset.
_LP_GAP = 1e-7
_LP_MAX_STEPS = 1_000
_LP_MAX_MAPS = 2**16
_LP_OFFSET = 1.0
# The LP aims this far below the target, so that rounding leaves the realized
# scheme's distortion at or below it.  The simplex may break its distortion
# row by about as much (its Harris slack), so where the realized scheme still
# misses, the LP is solved again with the margin 16 times as wide.  A scheme
# is never blended toward the anchor instead: the optimal-map distortion is
# concave along that segment, and at D_max undoing a 6e-17 overshoot that way
# cost up to 1.0 bit.
_LP_MARGIN = 1e-12


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


def _reconstruction_map(values) -> np.ndarray:
    """``values`` as a read-only integer array, refusing any entry that is not
    a non-negative integer (a cast would truncate or wrap it)."""
    arr = np.asarray(values, dtype=float)
    if not np.all((arr >= 0.0) & (arr < 2.0**63) & (arr == np.floor(arr))):  # NaN fails too
        raise ModelError("reconstruction entries must be non-negative integers")
    return _frozen_array(arr, dtype=int)


@dataclass(frozen=True)
class AuxScheme:
    """Layered auxiliary channels P(U|Xt) and P(V|U) plus an optional
    reconstruction map, which is keyword-only.

    ``reconstruction``, when present, is an integer array of shape
    (|U|, |Y|) with values in the reconstruction alphabet.  Only the codec
    reads it (``secsource simulate`` passes it to ``binning.design_code``,
    which computes the distortion-optimal map when it is absent); the region
    (``lossy_point`` and the searches) always uses the distortion-optimal
    map.
    """

    p_u_given_xtilde: StochasticMatrix
    p_v_given_u: StochasticMatrix
    reconstruction: Optional[np.ndarray] = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.p_v_given_u.input_size != self.u_size:
            raise DimensionError("P(V|U) input size must equal |U|")
        if self.reconstruction is not None:
            recon = _reconstruction_map(self.reconstruction)
            if recon.ndim != 2 or recon.shape[0] != self.u_size:
                raise DimensionError("reconstruction map must be (|U|, |Y|)")
            object.__setattr__(self, "reconstruction", recon)

    @property
    def u_size(self) -> int:
        return self.p_u_given_xtilde.output_size

    @property
    def v_size(self) -> int:
        return self.p_v_given_u.output_size

    # ``bench/workloads.py`` reads this name; it goes with the benchmark
    # change that deletes that read (ROADMAP item 1).
    @property
    def p_q_given_v(self) -> StochasticMatrix:
        return StochasticMatrix.constant(self.v_size, 1)

    @staticmethod
    def from_channels(
        p_u_given_xtilde: StochasticMatrix,
        p_v_given_u: Optional[StochasticMatrix] = None,
        *,
        reconstruction: Optional[np.ndarray] = None,
    ) -> "AuxScheme":
        """Fill a missing P(V|U) with the constant (single-symbol) channel."""
        u = p_u_given_xtilde.output_size
        pv = p_v_given_u if p_v_given_u is not None else StochasticMatrix.constant(u, 1)
        return AuxScheme(p_u_given_xtilde, pv, reconstruction=reconstruction)

    @staticmethod
    def identity(xtilde_size: int) -> "AuxScheme":
        """U = Xt with constant V (the lossless choice)."""
        return AuxScheme.from_channels(StochasticMatrix.identity(xtilde_size))


def default_cardinalities(xtilde_size: int) -> tuple[int, int]:
    """Sufficient alphabet sizes (|U|, |V|) for the lossy region."""
    return (xtilde_size + 3) ** 2, xtilde_size + 3


@dataclass(frozen=True)
class RegimeReport:
    """Evaluated bounds for one scheme, with the key-rate regime that applied.

    ``threshold_low``  is I(U;Xt|Y,V) and ``threshold_high`` is I(U;Xt|Y);
    equality with a threshold selects the higher-key regime.  ``r_prime`` is
    the non-positive correction [I(U;Z|V) - I(U;Y|V)]^- that enters the
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

    ``u_size``/``v_size`` default to the sufficient cardinality bounds of
    the region (they may be lowered for speed; ``resolved_sizes`` refuses
    sizes above the bounds, which would buy nothing).  Alphabet sizes below 1
    are refused.  With ``method="descent"`` the storage objective ("rw") is
    solved as a linear program: it needs ``u_size >= |Xt|+1``, and its
    schemes have |Xt|+1 U symbols and a constant (one-symbol) V whatever the
    sizes; the leakage objectives ("rs", "rl") descend.  ``restarts`` and
    ``seed`` drive only the leakage searches.  ``method="grid"`` runs the
    exhaustive simplex-grid oracle at ``grid_step`` instead, over P(U|Xt)
    with uniform V rows, as a reference for the storage objective; it is
    refused with a leakage objective, which the oracle does not minimize.
    ``q_size`` is refused below 1 and read by nothing else.
    """

    restarts: int = 8
    grid_step: float = 0.05
    seed: int = 0
    u_size: Optional[int] = None
    v_size: Optional[int] = None
    # ``bench/workloads.py`` passes this field; it goes with the benchmark
    # change that deletes that use (ROADMAP item 1).
    q_size: Optional[int] = None
    objective: Literal["rw", "rs", "rl"] = "rw"
    method: Literal["descent", "grid"] = "descent"

    def __post_init__(self):
        if self.restarts < 1:
            raise ModelError("restarts must be >= 1")
        if not 0.0 < self.grid_step <= 0.5:
            raise ModelError("grid_step must lie in (0, 0.5]")
        if self.method == "grid" and self.objective != "rw":
            raise ModelError(f"method='grid' minimizes the storage rate only, not "
                             f"objective={self.objective!r}")
        for name in ("u_size", "v_size", "q_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ModelError(f"{name} must be >= 1, got {size}")

    def resolved_sizes(self, xtilde_size: int) -> tuple[int, int]:
        bounds = default_cardinalities(xtilde_size)
        sizes = (self.u_size, self.v_size)
        for name, size, bound in zip(("u_size", "v_size"), sizes, bounds):
            if size is not None and size > bound:
                raise ModelError(f"{name}={size} exceeds the sufficient bound {bound} "
                                 f"for |Xt| = {xtilde_size}")
        return tuple(bound if size is None else size for size, bound in zip(sizes, bounds))


@dataclass(frozen=True)
class TracePoint:
    """One traced boundary point: target distortion, bounds, and the argmin.

    ``lower_bound`` is the storage LP's certified lower bound on the least
    storage rate at distortion at most ``target_d``, so rw - lower_bound is
    the certified gap of ``rates.rw``; None for the leakage searches and the
    grid oracle.
    """

    target_d: float
    rates: RateTuple
    scheme: AuxScheme
    report: RegimeReport
    lower_bound: Optional[float] = None


# ---------------------------------------------------------------------------
# Scheme evaluation
# ---------------------------------------------------------------------------


def _require_axes(joint: JointPmf, names: tuple[str, ...], what: str) -> None:
    if joint.names != names:
        raise DimensionError(f"{what} expects axes {names}, got {joint.names}")


def extend_with_auxiliaries(joint: JointPmf, aux: AuxScheme) -> JointPmf:
    """Joint over (V, U, Xt, X, Y, Z) factorizing as
    P(v|u)P(u|xt)P(xt,x,y,z); the chain V-U-Xt-X-(Y,Z) holds by construction.
    """
    _require_axes(joint, SOURCE_AXES, "extend_with_auxiliaries")
    if aux.p_u_given_xtilde.input_size != joint.size_of(AX_XT):
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    table = np.einsum(
        "uv,au,axyz->vuaxyz",
        aux.p_v_given_u.rows,
        aux.p_u_given_xtilde.rows,
        joint.table,
    )
    return JointPmf(FULL_AXES, table)


# ``bench/workloads.py`` calls this name; it goes with the benchmark change
# that deletes that call (ROADMAP item 1).
extend_with_vu = extend_with_auxiliaries


def r_prime(full: JointPmf) -> float:
    """[I(U;Z|V) - I(U;Y|V)]^- from the fully extended joint."""
    _require_axes(full, FULL_AXES, "r_prime")
    diff = full.mutual_information((AX_U,), (AX_Z,), (AX_V,)) - full.mutual_information(
        (AX_U,), (AX_Y,), (AX_V,)
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


def lossless_point(joint: JointPmf, aux_v: StochasticMatrix, r0: float) -> RegimeReport:
    """Lossless region bounds: the U = Xt specialization of ``lossy_point``.

    rw = H(Xt|Y); regimes are keyed on H(Xt|Y,V) and H(Xt|Y); distortion is
    exactly zero under the Hamming metric.
    """
    _require_axes(joint, SOURCE_AXES, "lossless_point")
    nxt = joint.size_of(AX_XT)
    if aux_v.input_size != nxt:
        raise DimensionError("P(V|Xt) input size must equal |Xt|")
    if aux_v.output_size > nxt + 2:
        raise ModelError(
            f"the lossless region needs |V| <= |Xt|+2, got |V| = {aux_v.output_size}")
    aux = AuxScheme(StochasticMatrix.identity(nxt), aux_v)
    return lossy_point(extend_with_auxiliaries(joint, aux), r0, DistortionMetric.hamming(nxt))


def corollary_point(
    model: SourceModel, aux_u: StochasticMatrix, metric: DistortionMetric
) -> RateTuple:
    """No-key bounds when the eavesdropper is less noisy than the decoder:
    rw = I(U;Xt) - I(U;Y), rs = I(U;Xt) - I(U;Z), rl = I(U;X) - I(U;Z).

    The caller is responsible for the less-noisy ordering (see
    ``channels.check_stochastic_degraded`` for a sufficient certificate);
    under it this equals the small-key ``lossy_point`` with constant V and
    r0 = 0.  Evaluated by the scheme evaluator, which builds no joint, so it
    stays cheap on the finely quantized models of the Gaussian bridge.
    """
    if aux_u.input_size != model.xtilde_size:
        raise DimensionError("P(U|Xt) input size must equal |Xt|")
    nu = aux_u.output_size
    rep = _SchemeEvaluator(model, metric).evaluate(aux_u.rows, np.ones((nu, 1)), 0.0)
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
# from the rows of P(U|Xt) (au) and P(V|U) (uv), in that order, and one
# source table: P(Xt) (a), P(Xt,X) (ax), P(Xt,Y) (ay) or P(Xt,Z) (az).
# The chain V - U - Xt - X - (Y,Z) makes each table linear in each matrix, so
# the gradient of its entropy is the adjoint einsum applied to
# -(log2 T + 1/ln 2).  Terms are named by their output subscripts.
_TERM_SPECS = (
    "au,a->au", "au,az->uz", "au,ax->ux", "au,uv,a->auv", "au,uv,a->av",
    "au,uv,ay->uvy", "au,uv,ay->vy", "au,uv,az->uvz", "au,uv,az->vz", "au,uv,ax->vx",
)


def _term(spec: str) -> tuple[str, tuple[str, int, str, list[str]]]:
    """name -> (spec, number of matrices, source subscripts, adjoint spec per
    matrix)."""
    ins, out = spec.split("->")
    *mats, src = ins.split(",")
    return out, (spec, len(mats), src, [
        ",".join([out, *mats[:i], *mats[i + 1:], src]) + "->" + mats[i]
        for i in range(len(mats))])


_TERMS = dict(_term(spec) for spec in _TERM_SPECS)
_LOG2E = 1.0 / math.log(2.0)
# The bounds as signed sums of the terms; source entropies are added apart.
_T_LOW = {"uvy": 1.0, "vy": -1.0, "auv": -1.0, "av": 1.0}         # I(U;Xt|Y,V)
_R_DIFF = {"vz": 1.0, "uvz": -1.0, "vy": -1.0, "uvy": 1.0}        # I(U;Z|V) - I(U;Y|V)
_LEAKAGE = {  # each leakage by (regime, objective), less its source entropies
    ("small_key", "rs"): {"uz": 1.0, "au": -1.0},                 # I(U;Xt|Z)
    ("small_key", "rl"): {"uz": 1.0, "ux": -1.0},                 # I(U;X|Z)
    ("middle_key", "rs"): {"vz": 1.0, "av": -1.0},                # I(V;Xt|Z)
    ("middle_key", "rl"): {"vz": 1.0, "vx": -1.0},                # I(V;X|Z)
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
    """The bounds of ``lossy_point`` straight from the raw rows of P(U|Xt)
    and P(V|U), without forming the joint with the auxiliaries.

    Built once per (model, metric) from ``SourceModel.pairwise_tables``: no
    bound conditions on Y and Z together, as I(U;X|Z) = H(U,Z) - H(U,X) +
    H(X) - H(Z) under U - X - Z, and likewise with V.  Every term is the
    entropy of a table over the auxiliaries and one source variable
    (``_TERMS``); ``evaluate`` and the leakage descent's ``penalized`` score
    one scheme from them, each taking only the terms of the bounds it
    reports, and ``penalized`` also gives the gradient.  ``storage`` gives
    the storage rate and the optimal-map distortion, which depend on P(U|Xt)
    only; it takes a stack of matrices and gives a matrix the same bits
    alone as in any stack, since its sums over Xt run in index order
    (``_sum_over_xt``).
    """

    def __init__(self, model: SourceModel, metric: DistortionMetric):
        if metric.xtilde_size != model.xtilde_size:
            raise DimensionError("distortion table rows must match |Xt|")
        self.p_xt_x, self.p_xt_y, self.p_xt_z = model.pairwise_tables()
        self.p_xt = self.p_xt_x.sum(axis=1)
        self.h_y, h_z = (entropy_bits(p.sum(axis=0)) for p in (self.p_xt_y, self.p_xt_z))
        self.h_xt = entropy_bits(self.p_xt)
        # The distortion is d_floor = P(Xt).m, m the row minima of the metric,
        # plus the cost under the metric less m, which is exactly 0 at U = Xt.
        # storage_core[xt, y] = (P(xt, y) (d(xt, xhat) - m(xt)) for each xhat,
        # P(xt, y)): one pass over Xt gives those costs and P(U, Y).
        floor = metric.table.min(axis=1)
        self.d_floor = float(self.p_xt @ floor)
        self.storage_core = np.concatenate(
            [np.einsum("ay,ab->ayb", self.p_xt_y, metric.table - floor[:, None]),
             self.p_xt_y[:, :, None]], axis=2
        )
        self.sources = {"a": self.p_xt, "ax": self.p_xt_x, "ay": self.p_xt_y, "az": self.p_xt_z}
        # The source entropies of each leakage: H(Xt) - H(Z) and H(X) - H(Z).
        self.leak_const = {"rs": self.h_xt - h_z, "rl": entropy_bits(model.px.probs) - h_z}

    def storage(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I(U;Xt|Y) and the optimal-map distortion of P(U|Xt) = ``t``, or of
        each matrix of a stack ``t`` of shape (..., |Xt|, |U|)."""
        lead = t.shape[:-2]
        core = _sum_over_xt(t, self.storage_core)  # (..., U, Y, Xhat + 1)
        h_uy = entropy_bits(core[..., -1].reshape(*lead, -1), axis=-1)
        h_uxt = entropy_bits((t * self.p_xt[:, None]).reshape(*lead, -1), axis=-1)
        return (np.maximum(h_uy - h_uxt + self.h_xt - self.h_y, 0.0),
                self.d_floor + _least_cost(core[..., :-1]))

    def _bound(self, mats: Sequence[np.ndarray], coefs: dict[str, float],
               tables: dict[str, tuple[np.ndarray, float]]) -> float:
        """sum_T coefs[T] H(T) for the scheme ``mats``, forming into ``tables``
        (name -> table and its entropy) each term not there yet."""
        for name in coefs:
            if name not in tables:
                spec, k, src, _ = _TERMS[name]
                table = np.einsum(spec, *mats[:k], self.sources[src])
                tables[name] = table, entropy_bits(table)
        return sum(c * tables[name][1] for name, c in coefs.items())

    def _regime(self, mats: Sequence[np.ndarray], r0: float, tables):
        """The regime at key rate r0 of the scheme ``mats`` (P(U|Xt) and
        P(V|U)), with I(U;Xt|Y,V), R', I(U;Xt|Y) and the distortion."""
        t_high, dist = (float(v) for v in self.storage(mats[0]))
        t_low = _clamp(self._bound(mats, _T_LOW, tables))
        rp = min(self._bound(mats, _R_DIFF, tables), 0.0)
        regime: Regime = ("large_key" if r0 >= t_high else
                          "middle_key" if r0 >= t_low else "small_key")
        return regime, t_low, rp, t_high, dist

    def _leakage(self, mats, r0: float, objective: str, regime: Regime, rp: float,
                 tables) -> float:
        """The leakage ``objective`` ("rs" or "rl") of ``regime``."""
        if regime == "large_key":
            return 0.0
        shift = rp - r0 if regime == "small_key" else 0.0
        return _clamp(self._bound(mats, _LEAKAGE[regime, objective], tables)
                      + self.leak_const[objective] + shift)

    def _distortion_gradient(self, pu: np.ndarray) -> np.ndarray:
        """Subgradient of the distortion at ``pu``: the cost part of
        ``storage_core`` read at the optimal map and summed over Y."""
        best = _sum_over_xt(pu, self.storage_core)[..., :-1].argmin(axis=-1)  # (U, Y)
        return self.storage_core[:, np.arange(best.shape[-1]), best].sum(axis=-1)

    def evaluate(self, pu: np.ndarray, pv: np.ndarray, r0: float) -> RegimeReport:
        """``lossy_point`` for the scheme with these rows, at key rate r0,
        taking only the terms of the bounds it reports."""
        mats, tables = (pu, pv), {}
        regime, t_low, rp, t_high, dist = self._regime(mats, r0, tables)
        rs, rl = (self._leakage(mats, r0, o, regime, rp, tables) for o in ("rs", "rl"))
        return RegimeReport(regime, t_low, t_high, rp, RateTuple(rw=t_high, rs=rs, rl=rl, d=dist))

    def penalized(self, mats: Sequence[np.ndarray], r0: float, objective: str,
                  target_d: float, penalty: float):
        """The leakage descent's objective for the scheme ``mats``: its
        leakage ``objective`` ("rs" or "rl") plus ``penalty * max(0, d - D)``.

        Returns the value, the distortion and a function that gives the
        gradient with respect to each matrix.  Only the active regime's terms
        of that leakage enter; R' enters when it is negative and a clamped
        rate not at all.
        """
        tables: dict[str, tuple[np.ndarray, float]] = {}
        regime, _, rp, _, dist = self._regime(mats, r0, tables)
        rate = self._leakage(mats, r0, objective, regime, rp, tables)
        coefs = dict(_LEAKAGE[regime, objective]) if rate > 0.0 else {}
        if coefs and regime == "small_key" and rp < 0.0:
            coefs.update(_R_DIFF)

        def gradient() -> list[np.ndarray]:
            grads = [np.zeros_like(m) for m in mats]
            for name, c in coefs.items():
                _, k, src, adjoints = _TERMS[name]
                t = tables[name][0]
                with np.errstate(divide="ignore"):
                    g = np.where(t > 0.0, -c * (np.log2(t) + _LOG2E), 0.0)
                ops = [*mats[:k], self.sources[src]]
                for i, adjoint in enumerate(adjoints):
                    grads[i] += np.einsum(adjoint, g, *ops[:i], *ops[i + 1:])
            if dist > target_d:
                grads[0] += penalty * self._distortion_gradient(mats[0])
            return grads

        return rate + penalty * max(0.0, dist - target_d), dist, gradient


def _anchor_u_rows(nxt: int, nu: int) -> np.ndarray:
    """The deterministic U-channel that sends source symbol i to auxiliary
    symbol i mod |U|.  With |U| >= |Xt| the symbols stay apart, so the
    evaluator scores its distortion as exactly the least one, ``d_floor``."""
    t = np.zeros((nxt, nu))
    t[np.arange(nxt), np.arange(nxt) % nu] = 1.0
    return t


def _exp_step(m: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """M * exp(-eta G) with rows renormalized, for one matrix of the scheme
    that a start, descending alone, has reached; exact zeros stay zero."""
    z = np.where(m > 0.0, -eta * g, -np.inf)
    w = m * np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _mirror_descent(
    obj: _SchemeEvaluator, mats: list[np.ndarray], r0: float, objective: str,
    target_d: float,
) -> list[np.ndarray]:
    """Exponentiated-gradient (KL mirror) descent of ``obj.penalized`` for
    the leakage ``objective`` over row-stochastic matrices, from the start
    ``mats`` (P(U|Xt), P(V|U)), both matrices moved at once by ``_exp_step``.

    Each step tries twice the last accepted size and halves it until the
    Armijo condition holds.  A penalty level stops after ``_MAX_ITERS`` steps,
    once a step gains less than ``_CONVERGENCE_TOL`` or once no step size
    above 1e-12 decreases the objective; while the result misses the target,
    the penalty (from 32) grows eightfold, up to six times.
    """
    penalty, eta = 32.0, 1.0
    for _ in range(6):  # penalty levels
        value, dist, gradient = obj.penalized(mats, r0, objective, target_d, penalty)
        for _ in range(_MAX_ITERS):
            grads = gradient()
            eta *= 2.0
            while eta > 1e-12:
                trial = [_exp_step(m, g, eta) for m, g in zip(mats, grads)]
                t_value, t_dist, t_gradient = obj.penalized(trial, r0, objective, target_d,
                                                            penalty)
                # The Armijo test of the trial point against the current one.
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
) -> list[Optional[np.ndarray]]:
    """Blend each P(U|Xt) matrix of the stack ``t`` that misses the target
    toward the anchor until it meets it exactly, so that rounding in the
    reported distortion stays far inside the 1e-9 the searches allow; None
    where even the anchor misses.  All the misses are bisected together, 60
    steps each, with the bits each gets alone.  Each step reads the
    distortion half of ``obj.storage`` alone: the rate's entropies would
    double its cost."""

    def dist(m: np.ndarray) -> np.ndarray:
        return obj.d_floor + _least_cost(_sum_over_xt(m, obj.storage_core)[..., :-1])

    out: list[Optional[np.ndarray]] = list(t)
    miss = np.flatnonzero(dist(t) > target_d) if out else []
    if not len(miss) or dist(anchor) > target_d:
        return [None if i in miss else m for i, m in enumerate(out)]
    ends = t[miss]
    lo, hi = np.zeros(len(miss)), np.ones(len(miss))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = dist((1.0 - mid)[:, None, None] * ends + mid[:, None, None] * anchor) <= target_d
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
    for i, m in zip(miss, (1.0 - hi)[:, None, None] * ends + hi[:, None, None] * anchor):
        out[i] = m
    return out


class _StorageLP:
    """The least storage rate at each distortion target as a linear program
    over posteriors q = P(Xt | U = u), with a certified lower bound.

    Under U - Xt - Y, I(U;Xt|Y) = H(Xt|Y) - sum_u P(u) psi(q_u), where psi(q)
    is H(Xt|Y) under q(xt) P(y|xt), and the optimal-map distortion is
    sum_u P(u) delta(q_u) with delta(q) = sum_y min_xhat sum_xt q(xt) P(y|xt)
    d(xt, xhat) - m(xt), m(xt) the least entry of row xt (the evaluator's
    costs, under which a vertex costs nothing).  So the least rw at d <= D is
    H(Xt|Y) minus max sum w psi(q) subject to sum w q = P(Xt),
    sum w delta(q) <= D - d_floor and w >= 0, over columns q on the simplex
    over the symbols of positive probability; d_floor = P(Xt).m is the
    distortion of U = Xt.  With ``_LP_OFFSET`` added to every psi, the
    optimum of ``channels._simplex`` (rows a x <= b) fills the mass rows.

    Certificate: for the duals (lambda, s) and eps >= max_q g(q),
    g(q) = psi(q) - lambda.q - s delta(q), every scheme with d <= D has
    rw >= H(Xt|Y) - (lambda.P(Xt) + s (D - d_floor)) - eps.  Pricing is
    exact (Dantzig-Wolfe column generation): delta(q) is the least c_k.q over
    reconstruction maps k: Y -> Xhat, c_k(xt) = sum_y P(y|xt) (d(xt, k(y)) -
    m(xt)), so with s >= 0, max g is the largest over maps of max g_k,
    g_k(q) = psi(q) - (lambda + s c_k).q, each concave.  Every map keeps an
    interior point, carried over from step to step and target to target,
    that the minorize-maximize step q <- normalize(2^(h - lambda - s c_k +
    W log2(qW))) raises, monotone as in Blahut-Arimoto; W = P(y|xt) over the
    Y that occur and h(xt) = H(Y | Xt = xt).  That exponent less log2 q is the
    gradient of g_k, and g_k(q) = q.grad, so the Frank-Wolfe bound
    g_k(q) + max grad - q.grad is max grad: at any interior q it caps max g_k
    (Jaggi 2013), and eps is its largest over maps.  Entries are kept at
    1e-300 or above, so that a step that underflows leaves q interior.
    After each step the (up to) three points of highest g above the simplex's
    reduced-cost tolerance become columns, which keeps the LP small, and the
    LP is solved again from its last basis.  A column has its entries below
    1e-12 set to 0 and its psi and delta taken there: left in, such entries
    broke the simplex's mass rows and left realized schemes above their
    targets.  This stops once eps is at most half of ``_LP_GAP``, or
    after ``_LP_MAX_STEPS`` steps per target with the wider bound, which is
    still valid.  Columns carry over from one target to the next.  The
    |Xhat|^|Y| maps over the Y that occur are enumerated; more than
    ``_LP_MAX_MAPS`` are refused with ``ModelError``.
    """

    def __init__(self, obj: _SchemeEvaluator):
        # No posterior puts mass on a symbol of probability zero, so the
        # columns live on the simplex over the others, ``live``.
        self.live = np.flatnonzero(obj.p_xt > 0.0)
        p_xt_y = obj.p_xt_y[self.live]
        occur = p_xt_y.sum(axis=0) > 0.0
        n, ny, nxh = len(self.live), int(occur.sum()), obj.storage_core.shape[2] - 1
        if nxh**ny > _LP_MAX_MAPS:
            raise ModelError(f"the storage LP prices over |Xhat|^|Y| = {nxh}^{ny} = {nxh**ny} "
                             f"reconstruction maps, above the limit of {_LP_MAX_MAPS}")
        self.p_xt, self.d_floor = obj.p_xt[self.live], obj.d_floor
        self.cond = p_xt_y[:, occur] / self.p_xt[:, None]  # P(y|xt)
        self.h_y_given_xt = entropy_bits(self.cond, axis=1)
        cost = obj.storage_core[self.live][:, occur, :-1] / self.p_xt[:, None, None]
        self.cost = cost.reshape(n, -1)
        self.h_xt_given_y = entropy_bits(p_xt_y) - obj.h_y
        # c_k of every map k, the maps in lexicographic order of (k(y))_y.
        self.map_cost = reduce(lambda c, k: (c[:, None] + k.T).reshape(-1, n),
                               cost.transpose(1, 0, 2), np.zeros((1, n)))
        self.points = np.tile(self.p_xt, (len(self.map_cost), 1))
        self.q = np.vstack([np.eye(n), self.p_xt])
        self.psi, self.delta = self._values(self.q)

    def _values(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi and delta of each row of ``q``."""
        psi = (q @ self.h_y_given_xt + entropy_bits(q, axis=1)
               - entropy_bits(np.einsum("na,ay->ny", q, self.cond), axis=1))
        cost = np.einsum("na,ak->nk", q, self.cost).reshape(len(q), 1, self.cond.shape[1], -1)
        return psi, _least_cost(cost)

    def solve(self, target_d: float, margin: float = _LP_MARGIN) -> tuple[np.ndarray, float]:
        """The optimal weights over the columns ``self.q`` at distortion
        target ``target_d`` less ``margin`` (at least ``d_floor``), and the
        certified lower bound on the least rw at ``target_d`` itself."""
        budget = target_d - self.d_floor
        if budget < 0.0:
            raise InfeasibleTargetError(
                f"no scheme meets distortion target {target_d}: the least distortion, "
                f"reached by U = Xt, is {self.d_floor}")
        b = np.append(self.p_xt, max(budget - margin, 0.0))
        basis, steps = None, 0
        while True:
            w, y, basis = _simplex(np.vstack([self.q.T, self.delta]), b, self.psi + _LP_OFFSET,
                                   basis)
            if abs(w.sum() - 1.0) > 1e-12:
                raise RuntimeError(f"storage LP left mass {w.sum()!r} instead of 1")
            lam, s = y[:-1] - _LP_OFFSET, max(float(y[-1]), 0.0)
            a = self.h_y_given_xt - lam - s * self.map_cost
            while True:
                # The MM step's exponent; less log2 q, it is the gradient of
                # g_k, and g_k(q) = q.grad.
                e = a + np.log2(self.points @ self.cond) @ self.cond.T
                grad = e - np.log2(self.points)
                g = (self.points * grad).sum(axis=1)
                eps = max(float(grad.max()), 0.0)
                if eps <= 0.5 * _LP_GAP or steps == _LP_MAX_STEPS:
                    bound = self.h_xt_given_y - (float(lam @ self.p_xt) + s * budget) - eps
                    return np.maximum(w, 0.0), max(bound, 0.0)
                priced = np.flatnonzero(g > _COST_TOL)
                new = self.points[priced[np.argsort(-g[priced], kind="stable")[:3]]]
                steps += 1
                step = np.exp2(e - e.max(axis=1, keepdims=True))
                self.points = np.maximum(step / step.sum(axis=1, keepdims=True), 1e-300)
                if len(new):
                    break
            new = np.where(new < 1e-12, 0.0, new)
            new /= new.sum(axis=1, keepdims=True)
            psi, delta = self._values(new)
            self.q = np.vstack([self.q, new])
            self.psi, self.delta = np.append(self.psi, psi), np.append(self.delta, delta)
            # The slack columns follow the structural ones, which grew.
            basis = np.where(basis >= len(w), basis + len(new), basis)


def simplex_grid(size: int, step: float) -> np.ndarray:
    """All pmfs over ``size`` symbols whose entries are multiples of ``step``,
    in lexicographic order of their tick counts."""
    ticks = int(round(1.0 / step))
    if abs(ticks * step - 1.0) > 1e-9:
        raise ModelError("grid_step must divide 1")
    return compositions(ticks, size) * step


def grid_minimum_storage(
    model: SourceModel,
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
    nxt = model.xtilde_size
    cells = math.comb(int(round(1.0 / step)) + u_size - 1, u_size - 1) ** nxt
    if cells > GRID_CELL_LIMIT:
        raise ModelError(
            f"the grid at |U| = {u_size}, step {step} and |Xt| = {nxt} has {cells:.3g} "
            f"cells, above the limit of {GRID_CELL_LIMIT:.3g}; lower |U| or coarsen the step"
        )
    obj = _SchemeEvaluator(model, metric)
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


def trace_region(
    model: SourceModel,
    r0: float,
    metric: DistortionMetric,
    targets: Sequence[float],
    cfg: SearchConfig,
) -> list[TracePoint]:
    """Minimize the configured rate over auxiliary schemes for each target
    distortion and report the attendant bounds.

    Points are returned in ascending target order.  Every candidate scheme
    of a target is scored once by ``_SchemeEvaluator.evaluate``; the first of
    least rate wins and its report is the one returned, so the reported
    distortion is the one that met the target (``lossy_point`` on the 6-axis
    joint is the reference it agrees with).  For the LP and the descent, the
    previous target's argmin (feasible by monotonicity of the constraint set)
    stays the first candidate, so the minimized rate is non-increasing in D.

    The storage search (objective "rw", method "descent") needs
    ``u_size >= |Xt|+1`` and reads neither ``cfg.restarts`` nor
    ``cfg.seed``: at each target it solves ``_StorageLP`` and reports
    P(u|xt) = w_u q_u(xt) / P(xt) over the LP's support, padded with unused
    symbols to |Xt|+1 U symbols, with a one-symbol V and the LP's
    certified ``lower_bound``.  Time sharing is inside the LP, so the traced
    points lie on the lower convex envelope up to that gap.  The grid method
    (storage only) reports instead the oracle's argmin at each target, with
    uniform V rows, and keeps no previous target's scheme.

    A leakage search descends, deterministically given ``cfg.seed``, from the
    previous argmin, the anchor mixed with uniform rows and ``cfg.restarts``
    Dirichlet draws, every start for both leakages, and keeps the least
    requested one, so it never returns a scheme worse than one the other
    leakage's search finds.  Each (start, objective) pair descends alone, in
    the order of start, then objective.  Every descended scheme that misses
    its target is blended toward the anchor until it meets it, all the misses
    together.  An LP scheme that rounding leaves above its target is solved
    for again with a wider margin (``_LP_MARGIN``); U = Xt, which meets every
    feasible target, is taken only if a row lowered to the least distortion
    still misses.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if not (math.isfinite(r0) and r0 >= 0.0) or not all(math.isfinite(d) for d in targets):
        raise ModelError(f"r0 must be finite and >= 0 and the distortion targets finite, "
                         f"got r0={r0!r} and targets {list(targets)}")
    nxt = model.xtilde_size
    nu, nv = cfg.resolved_sizes(nxt)
    lp_search = cfg.objective == "rw" and cfg.method == "descent"
    if lp_search and nu < nxt + 1:
        raise ModelError(f"the storage search needs u_size >= |Xt|+1 = {nxt + 1}, got {nu}: "
                         "its schemes use up to |Xt|+1 posteriors")
    obj = _SchemeEvaluator(model, metric)
    anchor = _anchor_u_rows(nxt, nxt + 1 if lp_search else nu)
    if lp_search:
        lp, constant = _StorageLP(obj), np.ones((nxt + 1, 1))
    else:
        uniform = np.full((nu, nv), 1.0 / nv)
        objectives = (cfg.objective, "rl" if cfg.objective == "rs" else "rs")

    points: list[TracePoint] = []
    carry: Optional[list[np.ndarray]] = None
    for target in sorted(targets):
        candidates = [carry] if carry is not None else []
        lower_bound = None
        if lp_search:
            margin = _LP_MARGIN
            while True:
                w, lower_bound = lp.solve(target, margin)
                support = np.flatnonzero(w)
                t = np.zeros((nxt, nxt + 1))
                t[lp.live, :len(support)] = lp.q[support].T * w[support]
                # A symbol of probability zero gets the anchor's row.
                t = np.where(t.sum(axis=1, keepdims=True) > 0.0, t, anchor)
                t /= t.sum(axis=1, keepdims=True)
                if obj.storage(t)[1] <= target:
                    break
                if margin >= target - obj.d_floor:  # the row was at d_floor already
                    t = anchor
                    break
                margin *= 16.0
            candidates.append([t, constant])
        elif cfg.method == "grid":
            _, best_t = grid_minimum_storage(model, metric, target, nu, cfg.grid_step)
            candidates = [[best_t, uniform]]
        else:
            starts = list(candidates)
            for restart in range(cfg.restarts):
                rng = np.random.default_rng([cfg.seed, restart])
                mats = [rng.dirichlet(np.ones(n_out), size=n_in)
                        for n_in, n_out in ((nxt, nu), (nu, nv))]
                if restart == 0:
                    starts.append([0.5 * anchor + 0.5 / nu, mats[1]])
                starts.append(mats)
            # Each (start, objective) pair descends alone.
            runs = [_mirror_descent(obj, start, r0, objective, target)
                    for start in starts for objective in objectives]
            repaired = _repair_feasibility(obj, np.stack([run[0] for run in runs]), anchor, target)
            candidates += [[pu, run[1]] for pu, run in zip(repaired, runs) if pu is not None]
        if not candidates:
            raise InfeasibleTargetError(
                f"no feasible scheme found for distortion target {target} "
                f"with |U| = {nu}"
            )
        reports = [obj.evaluate(*c, r0) for c in candidates]
        best = int(np.argmin([getattr(rep.bounds, cfg.objective) for rep in reports]))
        carry, report = candidates[best], reports[best]  # the first of least rate
        scheme = AuxScheme(*(StochasticMatrix(m) for m in carry))
        points.append(TracePoint(target, report.bounds, scheme, report, lower_bound))
    return points
