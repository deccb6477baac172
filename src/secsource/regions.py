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
numerically by ``trace_region``, each objective by a linear program over
posteriors P(Xt | U = u) (``_PosteriorLP``).  Under U - Xt - (X, Y, Z) the
storage rate I(U;Xt|Y) and the optimal-map distortion are linear in the
posteriors' weights, so time sharing and the |Xt|+1 cardinality bound come
with the LP, and its duals certify a lower bound on the least rate.  With a
one-symbol V the small-key leakages are rs = [min(I(U;Xt|Z), I(U;Xt|Y)) -
r0]^+ and rl = [min(I(U;X|Z), I(U;X|Y)) - r0]^+, with no middle-key regime,
and each of the four informations is the same LP with another concave
function of the posterior.  Columns enter by exact pricing, a concave ascent
per reconstruction map Y -> Xhat whose Frank-Wolfe bound certifies the
price, each re-solve starting from the last basis.  The leakage bounds are
certified over constant-V schemes only: a live V can go lower.
``_SchemeEvaluator`` computes the same bounds as ``lossy_point`` from the raw
matrices and the pairwise tables P(Xt,X), P(Xt,Y) and P(Xt,Z), building no
joint: each bound is a signed sum of the entropies of a few tables, each
linear in each matrix.  Its storage form scores a stack of P(U|Xt) matrices
by one stacked matrix product, which runs the same 2-D product on each
matrix, so each gets the same bits alone as in any stack; it scores
distortion as the least one, P(Xt) times the metric's row minima, plus the
cost above those minima.  The lossless and no-key forms, the search and the
exhaustive simplex-grid oracle, ``grid_minimum_storage``, take the model and
score with the evaluator; the oracle is kept as a reference for the storage
search, scoring the grid a block of cells at a time, and its first argmin is
the one a cell-by-cell scan returns, bit for bit.  Every search reports a
one-symbol V: a V independent of everything changes no bound.
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
    float_array,
)

FULL_AXES = (AX_V, AX_U) + SOURCE_AXES

Regime = Literal["small_key", "middle_key", "large_key"]

# Largest number of P(U|Xt) row combinations the grid oracle enumerates
# (|U| = 3 at step 0.05 over a binary Xt is 231^2 = 53,361).
GRID_CELL_LIMIT = 5_000_000
# Cells the grid oracle scores per block.
_GRID_BLOCK = 1024
# The posterior LP (``_PosteriorLP``): the certified gap it prices to, the
# ascent steps it may take per target, the most reconstruction maps it prices
# over and its objective offset.
_LP_GAP = 1e-7
_LP_MAX_STEPS = 1_000
_LP_MAX_MAPS = 2**16
_LP_OFFSET = 1.0
# Safeguarded Newton steps of the line search in the LP's pairwise pricing
# step (``_PosteriorLP._pairwise_step``).
_LP_LINE_STEPS = 20
# The LP aims this far below the target, so that rounding leaves the realized
# scheme's distortion at or below it.  The simplex may break its distortion
# row by about as much (its Harris slack), so where the realized scheme still
# misses, the LP is solved again with the margin 16 times as wide.  A scheme
# is never blended toward U = Xt instead: the optimal-map distortion is
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
    """``values`` as a read-only integer array, refusing booleans and any entry
    that is not a non-negative integer (a cast would truncate or wrap it)."""
    try:
        arr = float_array(values)
    except ModelError as exc:
        raise ModelError(f"reconstruction {exc}") from exc
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
    are refused.  With ``method="lp"`` every objective ("rw", "rs" or "rl")
    is solved by certified linear programs (``trace_region``): it needs
    ``u_size >= |Xt|+1``, and its schemes have |Xt|+1 U symbols and a
    constant (one-symbol) V whatever the sizes.  ``method="grid"`` runs the
    exhaustive simplex-grid oracle at ``grid_step`` instead, over P(U|Xt)
    with a one-symbol V, as a reference for the storage objective; it is
    refused with a leakage objective, which the oracle does not minimize.
    No search draws random numbers, so ``seed`` and ``restarts`` are read by
    nothing; nor is ``v_size`` beyond its checks, since every search reports
    a one-symbol V, nor ``q_size``, since no bound depends on Q.  The
    benchmark passes all four, so they stay, with their checks.
    """

    restarts: int = 8
    grid_step: float = 0.05
    seed: int = 0
    u_size: Optional[int] = None
    v_size: Optional[int] = None
    q_size: Optional[int] = None
    objective: Literal["rw", "rs", "rl"] = "rw"
    method: Literal["lp", "grid"] = "lp"

    def __post_init__(self):
        if self.restarts < 1:
            raise ModelError("restarts must be >= 1")
        if not 0.0 < self.grid_step <= 0.5:
            raise ModelError("grid_step must lie in (0, 0.5]")
        if self.method not in ("lp", "grid"):
            raise ModelError(f"method must be 'lp' or 'grid', got {self.method!r}")
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

    ``lower_bound`` is the LP search's certified lower bound on the least
    value of the searched rate (``SearchConfig.objective``) at distortion at
    most ``target_d``, so that rate less ``lower_bound`` is its certified gap;
    None for the grid oracle.  For the storage rate it bounds every scheme.
    For a leakage it is [min over A in {Y, Z} of the LP bound - r0]^+ and
    bounds the constant-V schemes only: a live V can leak less.
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


def lossless_point(model: SourceModel, aux_v: StochasticMatrix, r0: float) -> RegimeReport:
    """Lossless region bounds: the U = Xt specialization of ``lossy_point``,
    scored by the scheme evaluator, which builds no joint.

    rw = H(Xt|Y); regimes are keyed on H(Xt|Y,V) and H(Xt|Y); distortion is
    exactly zero under the Hamming metric.
    """
    nxt = model.xtilde_size
    if aux_v.input_size != nxt:
        raise DimensionError("P(V|Xt) input size must equal |Xt|")
    if aux_v.output_size > nxt + 2:
        raise ModelError(
            f"the lossless region needs |V| <= |Xt|+2, got |V| = {aux_v.output_size}")
    if not math.isfinite(r0) or r0 < 0.0:
        raise ModelError(f"private-key rate r0={r0!r} must be finite and >= 0")
    evaluator = _SchemeEvaluator(model, DistortionMetric.hamming(nxt))
    return evaluator.evaluate(np.eye(nxt), aux_v.rows, r0)


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
    H(X) - H(Z) under U - X - Z, and likewise with V.  ``evaluate`` writes
    each bound of the regime as a signed sum of entropies of tables over the
    auxiliaries and one source variable.  It scores every candidate of
    ``trace_region``, so each traced point reports the scoring that chose
    it.  ``storage`` gives the storage rate and the optimal-map distortion,
    which depend on P(U|Xt) only.  It takes a stack of matrices and sums
    over Xt by one stacked ``np.matmul``, which runs the same 2-D product on
    each matrix of the stack, so a matrix gets the same bits alone as in any
    stack.  (One product over all the stack's rows would not: the bits of a
    row would depend on where it falls among them, and a one-row matrix
    alone goes through a matrix-vector routine.)  The posterior LPs read its
    tables.
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
        # The source entropies of each leakage: H(Xt) - H(Z) and H(X) - H(Z).
        self.rs_const, self.rl_const = self.h_xt - h_z, entropy_bits(model.px.probs) - h_z

    def storage(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I(U;Xt|Y) and the optimal-map distortion of P(U|Xt) = ``t``, or of
        each matrix of a stack ``t`` of shape (..., |Xt|, |U|)."""
        lead = t.shape[:-2]
        nxt, ny, nk = self.storage_core.shape
        core = np.matmul(np.swapaxes(t, -1, -2), self.storage_core.reshape(nxt, -1))
        core = core.reshape(*core.shape[:-1], ny, nk)  # (..., U, Y, Xhat + 1)
        h_uy = entropy_bits(core[..., -1].reshape(*lead, -1), axis=-1)
        h_uxt = entropy_bits((t * self.p_xt[:, None]).reshape(*lead, -1), axis=-1)
        return (np.maximum(h_uy - h_uxt + self.h_xt - self.h_y, 0.0),
                self.d_floor + _least_cost(core[..., :-1]))

    def evaluate(self, pu: np.ndarray, pv: np.ndarray, r0: float) -> RegimeReport:
        """``lossy_point`` for the scheme with these rows, at key rate r0.

        Each bound is a signed sum of entropies of tables over the
        auxiliaries and one source variable, each table formed by one einsum
        of P(U|Xt) (au), P(V|U) (uv) and P(Xt) (a), P(Xt,X) (ax), P(Xt,Y)
        (ay) or P(Xt,Z) (az).  The leakage entropies are taken only in the
        regime that reports them."""
        def h(spec: str, *tables: np.ndarray) -> float:
            return entropy_bits(np.einsum(spec, *tables))

        t_high, dist = (float(v) for v in self.storage(pu))
        h_uvy = h("au,uv,ay->uvy", pu, pv, self.p_xt_y)
        h_vy = h("au,uv,ay->vy", pu, pv, self.p_xt_y)
        h_xtuv = h("au,uv,a->auv", pu, pv, self.p_xt)
        h_xtv = h("au,uv,a->av", pu, pv, self.p_xt)
        h_uvz = h("au,uv,az->uvz", pu, pv, self.p_xt_z)
        h_vz = h("au,uv,az->vz", pu, pv, self.p_xt_z)
        t_low = _clamp(h_uvy - h_vy - h_xtuv + h_xtv)  # I(U;Xt|Y,V)
        rp = min(h_vz - h_uvz - h_vy + h_uvy, 0.0)     # [I(U;Z|V) - I(U;Y|V)]^-
        regime: Regime = ("large_key" if r0 >= t_high else
                          "middle_key" if r0 >= t_low else "small_key")
        rs = rl = 0.0
        if regime == "small_key":  # I(U;Xt|Z) + R' - r0 and I(U;X|Z) + R' - r0
            h_uz = h("au,az->uz", pu, self.p_xt_z)
            rs = _clamp(h_uz - h("au,a->au", pu, self.p_xt) + self.rs_const + (rp - r0))
            rl = _clamp(h_uz - h("au,ax->ux", pu, self.p_xt_x) + self.rl_const + (rp - r0))
        elif regime == "middle_key":  # I(V;Xt|Z) and I(V;X|Z)
            rs = _clamp(h_vz - h_xtv + self.rs_const)
            rl = _clamp(h_vz - h("au,uv,ax->vx", pu, pv, self.p_xt_x) + self.rl_const)
        return RegimeReport(regime, t_low, t_high, rp, RateTuple(rw=t_high, rs=rs, rl=rl, d=dist))


class _PosteriorLP:
    """The least I(U;B|A) at each distortion target as a linear program over
    posteriors q = P(Xt | U = u), with a certified lower bound; B is Xt or X
    and A is Y or Z.  I(U;Xt|Y) is the storage rate, and at a one-symbol V
    the small-key leakages are [min over A of I(U;Xt|A) - r0]^+ (rs) and
    [min over A of I(U;X|A) - r0]^+ (rl).

    Under U - Xt - X - (Y, Z), I(U;B|A) = H(B|A) - sum_u P(u) psi(q_u),
    where psi(q) is H(B|A) with P(Xt) replaced by q: psi(q) = q.h + H(qM) -
    H(qW), with W = P(a|xt) over the A that occur, and M the identity and
    h(xt) = H(A | Xt = xt) for B = Xt, or M = P(x|xt) and h = M H(A|X=x) for
    B = X.  The optimal-map distortion is sum_u P(u) delta(q_u) with
    delta(q) = sum_y min_xhat sum_xt q(xt) P(y|xt) (d(xt, xhat) - m(xt)), m(xt)
    the least entry of row xt (the evaluator's costs, under which a vertex
    costs nothing).  So the least value at d <= D is H(B|A) minus max
    sum w psi(q) subject to sum w q = P(Xt), sum w delta(q) <= D - d_floor and
    w >= 0, over columns q on the simplex over the symbols of positive
    probability; d_floor = P(Xt).m is the distortion of U = Xt.  With
    ``_LP_OFFSET`` added to every psi, the optimum of ``channels._simplex``
    (rows a x <= b) fills the mass rows.

    Certificate: for the duals (lambda, s) and eps >= max_q g(q),
    g(q) = psi(q) - lambda.q - s delta(q), every scheme with d <= D has a
    value of at least H(B|A) - (lambda.P(Xt) + s (D - d_floor)) - eps.
    Pricing is exact (Dantzig-Wolfe column generation): delta(q) is the least
    c_k.q over reconstruction maps k: Y -> Xhat, c_k(xt) = sum_y P(y|xt)
    (d(xt, k(y)) - m(xt)), so with s >= 0, max g is the largest over maps of
    max g_k, g_k(q) = psi(q) - (lambda + s c_k).q, each concave.  psi is
    1-homogeneous, so g_k(q) = q.grad with grad = h - lambda - s c_k +
    W log2(qW) - M log2(qM), and the Frank-Wolfe bound g_k(q) + max grad -
    q.grad is max grad: at any interior q it caps max g_k (Jaggi 2013), and
    eps is its largest over maps.  Every map keeps an interior point, carried
    over from step to step and target to target, that an ascent step raises.
    For B = Xt it is the minorize-maximize step of Blahut-Arimoto, q <-
    normalize(2^(grad + log2 q)), monotone.  For B = X that step is monotone
    too but stalls: psi is flat along the posteriors that M maps alike, and
    the maximizers of g_k lie on faces of the simplex, which multiplicative
    steps reach only geometrically.  So there each step is a pairwise
    Frank-Wolfe step with a line search (``_pairwise_step``).  Entries are
    kept at 1e-300 or above, so that q stays interior.
    After each step the (up to) three points of highest g above the simplex's
    reduced-cost tolerance become columns, which keeps the LP small, and the
    LP is solved again from its last basis, or from the slack basis where
    the warm start cycles to the pivot cap.  A column has its entries below
    1e-12 set to 0 and its psi and delta taken there: left in, such entries
    broke the simplex's mass rows and left realized schemes above their
    targets.  This stops once eps is at most half of ``_LP_GAP``, or
    after ``_LP_MAX_STEPS`` steps per target with the wider bound, which is
    still valid.  Columns carry over from one target to the next.  The
    |Xhat|^|Y| maps over the Y that occur are enumerated; more than
    ``_LP_MAX_MAPS`` are refused with ``ModelError``.
    """

    def __init__(self, obj: _SchemeEvaluator, p_xt_a: np.ndarray,
                 p_a_given_x: Optional[np.ndarray] = None):
        """The LP of I(U;Xt|A), or of I(U;X|A) given the channel P(a|x), for
        the table P(Xt, A)."""
        # No posterior puts mass on a symbol of probability zero, so the
        # columns live on the simplex over the others, ``live``.
        self.live = np.flatnonzero(obj.p_xt > 0.0)
        p_xt_y = obj.p_xt_y[self.live]
        occur = p_xt_y.sum(axis=0) > 0.0
        n, self.ny, nxh = len(self.live), int(occur.sum()), obj.storage_core.shape[2] - 1
        if nxh**self.ny > _LP_MAX_MAPS:
            raise ModelError(f"the LP search prices over |Xhat|^|Y| = {nxh}^{self.ny} = "
                             f"{nxh**self.ny} reconstruction maps, above the limit of "
                             f"{_LP_MAX_MAPS}")
        self.p_xt, self.d_floor = obj.p_xt[self.live], obj.d_floor
        p_a = p_xt_a[self.live]
        self.cond = p_a[:, p_a.sum(axis=0) > 0.0] / self.p_xt[:, None]  # W = P(a|xt)
        h_a = entropy_bits(p_xt_a.sum(axis=0))
        if p_a_given_x is None:
            self.mix = None  # M is the identity
            self.h = entropy_bits(self.cond, axis=1)
            self.h_b_given_a = entropy_bits(p_a) - h_a
        else:
            p_xt_x = obj.p_xt_x[self.live]
            seen = p_xt_x.sum(axis=0) > 0.0
            self.mix = p_xt_x[:, seen] / self.p_xt[:, None]  # M = P(x|xt)
            self.h = self.mix @ entropy_bits(p_a_given_x[seen], axis=1)
            p_x = obj.p_xt_x.sum(axis=0)
            self.h_b_given_a = entropy_bits(p_x[:, None] * p_a_given_x) - h_a
        cost = obj.storage_core[self.live][:, occur, :-1] / self.p_xt[:, None, None]
        self.cost = cost.reshape(n, -1)
        # c_k of every map k, the maps in lexicographic order of (k(y))_y.
        self.map_cost = reduce(lambda c, k: (c[:, None] + k.T).reshape(-1, n),
                               cost.transpose(1, 0, 2), np.zeros((1, n)))
        self.points = np.tile(self.p_xt, (len(self.map_cost), 1))
        self.q = np.vstack([np.eye(n), self.p_xt])
        self.psi, self.delta = self._values(self.q)

    def _values(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi and delta of each row of ``q``."""
        psi = (q @ self.h + entropy_bits(q if self.mix is None else q @ self.mix, axis=1)
               - entropy_bits(np.einsum("na,ay->ny", q, self.cond), axis=1))
        cost = np.einsum("na,ak->nk", q, self.cost).reshape(len(q), 1, self.ny, -1)
        return psi, _least_cost(cost)

    def solve(self, target_d: float, margin: float = _LP_MARGIN) -> tuple[np.ndarray, float]:
        """The optimal weights over the columns ``self.q`` at distortion
        target ``target_d`` less ``margin`` (at least ``d_floor``), and the
        certified lower bound on the least value at ``target_d`` itself."""
        budget = target_d - self.d_floor
        if budget < 0.0:
            raise InfeasibleTargetError(
                f"no scheme meets distortion target {target_d}: the least distortion, "
                f"reached by U = Xt, is {self.d_floor}")
        b = np.append(self.p_xt, max(budget - margin, 0.0))
        basis, steps = None, 0
        while True:
            lhs, c = np.vstack([self.q.T, self.delta]), self.psi + _LP_OFFSET
            try:
                w, y, basis = _simplex(lhs, b, c, basis)
            except RuntimeError:
                if basis is None:
                    raise
                # Near-degenerate pivots just above the simplex's tolerance
                # can cycle from a warm basis; the slack basis escapes them.
                w, y, basis = _simplex(lhs, b, c)
            if abs(w.sum() - 1.0) > 1e-12:
                raise RuntimeError(f"posterior LP left mass {w.sum()!r} instead of 1")
            lam, s = y[:-1] - _LP_OFFSET, max(float(y[-1]), 0.0)
            a = self.h - lam - s * self.map_cost
            while True:
                # The Blahut-Arimoto exponent; less log2 q, it is the
                # gradient of g_k for B = Xt.
                e = a + np.log2(self.points @ self.cond) @ self.cond.T
                if self.mix is None:
                    grad = e - np.log2(self.points)
                else:
                    grad = e - np.log2(self.points @ self.mix) @ self.mix.T
                g = (self.points * grad).sum(axis=1)
                eps = max(float(grad.max()), 0.0)
                if eps <= 0.5 * _LP_GAP or steps == _LP_MAX_STEPS:
                    bound = self.h_b_given_a - (float(lam @ self.p_xt) + s * budget) - eps
                    return np.maximum(w, 0.0), max(bound, 0.0)
                priced = np.flatnonzero(g > _COST_TOL)
                new = self.points[priced[np.argsort(-g[priced], kind="stable")[:3]]]
                steps += 1
                if self.mix is None:
                    step = np.exp2(e - e.max(axis=1, keepdims=True))
                    self.points = np.maximum(step / step.sum(axis=1, keepdims=True), 1e-300)
                else:
                    self.points = self._pairwise_step(a, grad)
                if len(new):
                    break
            new = np.where(new < 1e-12, 0.0, new)
            new /= new.sum(axis=1, keepdims=True)
            psi, delta = self._values(new)
            self.q = np.vstack([self.q, new])
            self.psi, self.delta = np.append(self.psi, psi), np.append(self.delta, delta)
            # The slack columns follow the structural ones, which grew.
            basis = np.where(basis >= len(w), basis + len(new), basis)

    def _pairwise_step(self, a: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Each map's point after one pairwise Frank-Wolfe step of g_k, for
        B = X, where ``a`` = h - lambda - s c_k and ``grad`` is the gradient.

        Mass moves from the symbol of least gradient in the point's support,
        j, to the symbol of greatest gradient, i, by the amount in [0, q_j]
        that maximizes g_k along e_i - e_j.  The slope there is decreasing,
        as g_k is concave; up to ``_LP_LINE_STEPS`` Newton steps on it, kept
        inside a bracket that bisects where Newton would leave it, find the
        amount.  g_k rises up to the largest amount at which the slope was
        positive; the point takes that amount or the last iterate, whichever
        gives the higher g_k, so g_k never falls.
        """
        q, rows = self.points, np.arange(len(self.points))
        i = grad.argmax(axis=1)
        j = np.where(q > 1e-300, grad, np.inf).argmin(axis=1)
        d_a = a[rows, i] - a[rows, j]
        d_mix, d_cond = self.mix[i] - self.mix[j], self.cond[i] - self.cond[j]
        q_mix, q_cond = q @ self.mix, q @ self.cond

        def rise(amount: np.ndarray) -> np.ndarray:
            """g_k at each point moved by ``amount``, less g_k(q) - H(qM) + H(qW)."""
            return (amount * d_a + entropy_bits(q_mix + amount[:, None] * d_mix, axis=1)
                    - entropy_bits(q_cond + amount[:, None] * d_cond, axis=1))

        def slope(amount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The slope of g_k along e_i - e_j at each point moved by
            ``amount``, and its derivative times ln 2."""
            m_mix, m_cond = q_mix + amount[:, None] * d_mix, q_cond + amount[:, None] * d_cond
            with np.errstate(divide="ignore", invalid="ignore"):
                return (d_a + (d_cond * np.log2(m_cond)).sum(axis=1)
                        - (d_mix * np.log2(m_mix)).sum(axis=1),
                        (d_cond**2 / m_cond).sum(axis=1) - (d_mix**2 / m_mix).sum(axis=1))

        # Where g_k still rises with all of j's mass moved, all of it moves.
        hi = q[rows, j]
        lo = amount = np.where(slope(hi)[0] > 0.0, hi, 0.0)
        for _ in range(_LP_LINE_STEPS):
            value, curve = slope(amount)
            up = value > 0.0
            lo, hi = np.where(up, amount, lo), np.where(up, hi, amount)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = amount - value * math.log(2.0) / curve
            last, amount = amount, np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            # An amount off by 1e-12 of q_j costs g_k about 1e-24 q_j^2.
            if np.all(np.abs(amount - last) <= 1e-12 * q[rows, j]):
                break
        amount = np.where(rise(amount) >= rise(lo), amount, lo)
        t = q.copy()
        t[rows, i] += amount
        t[rows, j] -= amount
        return np.maximum(t, 1e-300)

    def scheme(self, obj: _SchemeEvaluator, target_d: float) -> tuple[np.ndarray, float]:
        """P(U|Xt) over |Xt|+1 U symbols from the LP's optimum at
        ``target_d``, with its certified lower bound.

        P(u|xt) = w_u q_u(xt) / P(xt) over the LP's support, padded with
        unused symbols; a symbol of probability zero gets its row of U = Xt.
        A scheme that rounding leaves above its target is solved for again
        with a wider margin (``_LP_MARGIN``); U = Xt, which meets every
        feasible target, is taken only if a row lowered to the least
        distortion still misses.
        """
        nxt = len(obj.p_xt)
        anchor = np.eye(nxt, nxt + 1)  # U = Xt
        margin = _LP_MARGIN
        while True:
            w, bound = self.solve(target_d, margin)
            support = np.flatnonzero(w)
            t = np.zeros((nxt, nxt + 1))
            t[self.live, :len(support)] = self.q[support].T * w[support]
            t = np.where(t.sum(axis=1, keepdims=True) > 0.0, t, anchor)
            t /= t.sum(axis=1, keepdims=True)
            if obj.storage(t)[1] <= target_d:
                return t, bound
            if margin >= target_d - obj.d_floor:  # the row was at d_floor already
                return anchor, bound
            margin *= 16.0


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
    the grid.  Its stacked matrix product runs the same 2-D product on each
    cell of a block as on that cell alone, so the first cell of least rw
    among those with ``dist <= D + 1e-12`` is the one a cell-by-cell scan
    returns, bit for bit.
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
    joint is the reference it agrees with).  For the LP searches, the
    previous target's argmin (feasible by monotonicity of the constraint set)
    stays the first candidate, so the minimized rate is non-increasing in D.

    The LP searches (method "lp") need ``u_size >= |Xt|+1``.  At each target
    they solve posterior LPs (``_PosteriorLP``), each carrying its columns
    from one target to the next, and report a scheme with |Xt|+1 U symbols
    and a one-symbol V, with a certified ``lower_bound``.  The storage search
    solves the LP of I(U;Xt|Y).  A leakage search solves four, of I(U;Xt|A)
    and I(U;X|A) for A in {Y, Z}, and scores all four schemes, so it is
    never worse than the other leakage's search; its ``lower_bound`` is
    [min over A of its leakage's LP bounds - r0]^+, a bound over the
    constant-V schemes only (a live V can go lower).  Time sharing is inside
    the LP, so the traced points lie on the lower convex envelope up to
    that gap.  The grid method (storage only) reports instead the oracle's
    argmin at each target, with a one-symbol V, and keeps no previous
    target's scheme.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if not (math.isfinite(r0) and r0 >= 0.0) or not all(math.isfinite(d) for d in targets):
        raise ModelError(f"r0 must be finite and >= 0 and the distortion targets finite, "
                         f"got r0={r0!r} and targets {list(targets)}")
    nxt = model.xtilde_size
    nu, _ = cfg.resolved_sizes(nxt)
    if cfg.method == "lp" and nu < nxt + 1:
        raise ModelError(f"the LP search needs u_size >= |Xt|+1 = {nxt + 1}, got {nu}: "
                         "its schemes use up to |Xt|+1 posteriors")
    obj = _SchemeEvaluator(model, metric)
    constant = np.ones((nu if cfg.method == "grid" else nxt + 1, 1))  # a one-symbol V
    if cfg.method == "lp" and cfg.objective == "rw":
        lps = [_PosteriorLP(obj, obj.p_xt_y)]
    elif cfg.method == "lp":
        # I(U;Xt|Y), I(U;Xt|Z), I(U;X|Y), I(U;X|Z): the first two bound rs.
        sides = ((obj.p_xt_y, model.p_y_given_x().rows), (obj.p_xt_z, model.p_z_given_x().rows))
        lps = [_PosteriorLP(obj, p_xt_a, channel if b_is_x else None)
               for b_is_x in (False, True) for p_xt_a, channel in sides]
        own = slice(0, 2) if cfg.objective == "rs" else slice(2, 4)

    points: list[TracePoint] = []
    carry: Optional[list[np.ndarray]] = None
    for target in sorted(targets):
        if cfg.method == "grid":
            _, best_t = grid_minimum_storage(model, metric, target, nu, cfg.grid_step)
            candidates, lower_bound = [[best_t, constant]], None
        else:
            schemes, bounds = zip(*(lp.scheme(obj, target) for lp in lps))
            candidates = ([carry] if carry is not None else []) + [[t, constant] for t in schemes]
            lower_bound = bounds[0] if cfg.objective == "rw" else _clamp(min(bounds[own]) - r0)
        reports = [obj.evaluate(*c, r0) for c in candidates]
        best = int(np.argmin([getattr(rep.bounds, cfg.objective) for rep in reports]))
        carry, report = candidates[best], reports[best]  # the first of least rate
        scheme = AuxScheme(*(StochasticMatrix(m) for m in carry))
        points.append(TracePoint(target, report.bounds, scheme, report, lower_bound))
    return points
