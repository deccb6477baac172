"""Desk-scale random-binning codec: layered bin assignments, one-time-pad key
mixing, successive Slepian-Wolf decoding, and empirical reliability /
distortion / leakage measurements.

Code construction
-----------------
Every v-sequence gets two i.i.d. uniform bin indices (F_v public, W_v
transmitted); every u-sequence gets three (F_u public, W_u transmitted, K_u
the key-slot bin).  Bin rates follow the standard output-statistics choices:

    rv_tilde = H(V|Xt) - eps            rv = I(V;Xt) - I(V;Y) + 2 eps
    ru_tilde = H(U|V,Xt) - eps          r0 + ru = I(U;Xt|V) - I(U;Y|V) + 2 eps

(all clamped at zero; index sets have 2^ceil(n * rate) elements).  The
transmitted message is (W_v, W_u, K + K_u) with the key added modulo the
key-slot size.  With key rate at least I(U;Xt|V) - I(U;Y|V) + 2 eps the K_u
slot is dropped and W_u itself is one-time padded; with key rate at least
I(U;Xt) - I(U;Y) + 4 eps both W_v and W_u are padded and the transmitted
message is exactly uniform and independent of everything.  Everywhere in
this module a message is the five integers (F_v, W_v, F_u, W_u, K_u) of
``_FIELDS``, the key added to the padded ones; a dropped K_u slot has 0 bits
and reads 0.

Decoding and the two simulation engines
---------------------------------------
Decoding is maximum likelihood within the received bin, layer by layer (V
from y, then U from (v, y)); ambiguity counts as failure.  A literal in-bin
search touches the whole sequence space, so it is only available when the
space is enumerable ("explicit" engine; bins are materialized arrays).
Above that size a code carries no bins at all, so ``encode``, ``decode`` and
the exact enumerations refuse it, and ``run_experiment`` switches to the
"collision" engine: it counts the sequences at least as likely as the truth
with an exact composition-type enumeration, and samples the event "some such
competitor shares the transmitted bin" from its exact Binomial law (bins are
i.i.d. uniform and independent of everything else).  That reproduces the
ML-in-bin error event exactly in distribution, with fresh bin randomness per
trial, i.e. the reported error rate estimates the expectation over random
bin assignments - the quantity the achievability analysis controls.  A
block of trials (``_log2_counts``) forms each distinct side-information
group's composition types once, and sorts a group merged last once; the
one-trial ``log2_competitor_count`` is a block of one trial.

Each trial of ``run_experiment`` owns its random stream: trial t draws from
``default_rng([seed, 7, t])``, in this order, 3n uniforms (X^n, Xt^n,
(Y, Z)^n), the key, and 2n + 2 uniforms (U^n, V^n, and the collision
engine's V-layer and U-layer decisions).  Trials are simulated in blocks
whose arrays stay within ``_BLOCK_CELLS`` cells: the draws fill rows of the
block buffers, and sampling, the pooled type, the in-bin search and the
distortion run once per block, and so do both engines' decisions, so a
report does not depend on the blocking.
``encode`` and ``decode`` run the same routines on a block of one.

Leakage reporting
-----------------
Each pad mode realizes one key-rate regime of the region: the key slot the
small-key regime, pad U the middle-key regime and pad all the large-key
regime (``_PADS``).  The report carries plug-in estimates: the region's
leakage bounds for that regime (``regions.lossy_point``'s), evaluated on the
pooled empirical type of the per-position tuples (v, u, xt, x, y, z) at the
key rate the key slot consumes.  In the fully padded regime they are exactly
zero, as the transmitted message is uniform and independent of the source
by construction.  They indicate the asymptotic targets and are not finite-n
proofs;
``exact_leakage`` computes the exact finite-n conditional mutual informations
for small blocklengths.  It enumerates P(message | xt^n) over every
(sequence, auxiliary path, key) triple (at most ``ENUMERATION_BUDGET`` of
them), tabulates the (xt^n, message) cells they reach with one stable sort
of the five field arrays, and applies the per-letter laws P(xt, z) and
P(xt, x) a few letters at a time, per message only over the positions where
the sequences reaching it disagree (the rest factor out, the source being
memoryless): at most O(n m^n C) arithmetic for C messages and
m = max(|Xt|, |Z|, |X|), with no |Xt|^n x |Z|^n or |Xt|^n x C table; its
working arrays are capped at ``LEAKAGE_CELL_LIMIT`` cells per message.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache
from typing import Literal, NamedTuple, Optional, Sequence

import numpy as np

from .probability import (
    AX_U,
    AX_V,
    AX_XT,
    AX_Y,
    DimensionError,
    JointPmf,
    ModelError,
    SourceModel,
    compositions,
    entropy_bits,
)
from .regions import (
    FULL_AXES,
    DistortionMetric,
    Regime,
    _leakages,
    _reconstruction_map,
    _require_axes,
    optimal_reconstruction,
    r_prime,
)

PadMode = Literal["key_slot", "pad_u", "pad_all"]

# The message fields in index order; ``IndexBits`` and ``BinningCode.tables``
# follow it.
_FIELDS = ("f_v", "w_v", "f_u", "w_u", "k_u")
# Per pad mode: the key-rate regime of the region it realizes and the fields
# the key pads, one per key component.
_PADS: dict[str, tuple[Regime, tuple[str, ...]]] = {
    "key_slot": ("small_key", ("k_u",)),
    "pad_u": ("middle_key", ("w_u",)),
    "pad_all": ("large_key", ("w_v", "w_u")),
}

MATERIALIZE_LIMIT = 1 << 14   # largest sequence space kept as explicit tables
ENUMERATION_BUDGET = 5_000_000  # cells in composition cross-products / exact sums
LEAKAGE_CELL_LIMIT = 64_000_000  # m^max|D_w|: cells per message in exact_leakage's widest block
# Cells per working block, 120 KiB per float64 array: exact_leakage's blocks of
# messages (about 20 arrays each), run_experiment's blocks of trials and the
# in-bin search's chunks of (candidate, position) cells.  Above glibc's default
# mmap threshold (128 KiB, raised only after a larger mapped chunk is freed)
# every block would map its arrays fresh and page-fault; smaller blocks pay
# more per-block overhead.
_BLOCK_CELLS = 15 << 10
_LETTER_POWER_SIZE = 16         # largest Kronecker power exact_leakage applies in one step
_LL_TIE_TOL = 1e-6            # log-likelihood slack treated as a tie


class BinningScaleError(RuntimeError):
    """The requested exact computation exceeds the desk-scale budget."""


class DecodeSearchError(RuntimeError):
    """In-bin ML search needs materialized bins (sequence space too large)."""


@dataclass(frozen=True)
class BinningRates:
    """Bin rates in bits/symbol (before index-size ceiling)."""

    rv_tilde: float
    rv: float
    ru_tilde: float
    ru: float
    r0: float


@dataclass(frozen=True)
class IndexBits:
    """Bit widths of the index sets, after ceil(n * rate)."""

    f_v: int
    w_v: int
    f_u: int
    w_u: int
    k_u: int

    def u_layer_total(self) -> int:
        return self.f_u + self.w_u + self.k_u


@dataclass(frozen=True)
class Message:
    """One transmitted message: the five index fields of ``_FIELDS``, in that
    order, with the key added to the fields the pad mode pads.

    ``key_slot`` is the K_u field: (K + K_u) mod 2^bits in the key-slot
    regime, and 0 in the padded regimes, where K_u has no bits and w_u (and
    w_v) carry the key instead.
    """

    f_v: int
    w_v: int
    f_u: int
    w_u: int
    key_slot: int


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated empirical outcomes of repeated encode/decode trials."""

    n: int
    trials: int
    error_rate: float
    distortion: float
    leak_secrecy: float
    leak_privacy: float
    key_rate_used: float
    engine: str


@dataclass(frozen=True)
class BinningCode:
    """A concrete layered binning code (alphabets, rates, bins, key handling).

    ``tables`` holds the materialized i.i.d. uniform bin assignments when the
    sequence spaces are enumerable (index order: sequence digits big-endian).
    Otherwise it is None: such a code has no explicit bins, so ``encode``,
    ``decode`` and the exact enumerations refuse it, and ``run_experiment``
    simulates it with the collision engine.
    """

    n: int
    v_size: int
    u_size: int
    rates: BinningRates
    bits: IndexBits
    mode: PadMode
    p_u_given_xtilde: np.ndarray   # (Xt, U)
    p_v_given_u: np.ndarray        # (U, V)
    reconstruction: np.ndarray     # (U, Y) -> xhat
    log_v_y: np.ndarray            # ln P(v | y), (V, Y)
    log_u_vy: np.ndarray           # ln P(u | v, y), (U, V, Y)
    sw_v_ok: bool
    sw_u_ok: bool
    tables: Optional[tuple[np.ndarray, ...]] = None  # (f_v, w_v, f_u, w_u, k_u)

    # -- index plumbing -----------------------------------------------------

    @property
    def materialized(self) -> bool:
        return self.tables is not None

    def key_bit_widths(self) -> tuple[int, ...]:
        return tuple(getattr(self.bits, f) for f in _PADS[self.mode][1])

    def key_rate_used(self) -> float:
        return sum(self.key_bit_widths()) / self.n

    def message_bits(self) -> int:
        """Transmitted payload width: W_v, W_u and the key slot (k_u is 0
        outside the key-slot regime)."""
        return self.bits.w_v + self.bits.w_u + self.bits.k_u

    def draw_key(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(_rand_bits(rng, b) for b in self.key_bit_widths())

    @cached_property
    def _bins(self) -> tuple[_BinIndex, _BinIndex]:
        """The in-bin search's index of the V layer (f_v, w_v) and of the U
        layer (f_u, w_u, k_u), built on first use (materialized codes)."""
        return _bin_index(self.tables[:2]), _bin_index(self.tables[2:])


def _rand_bits(rng: np.random.Generator, bits: int) -> int:
    if bits == 0:
        return 0
    value = 0
    remaining = bits
    while remaining > 0:
        take = min(remaining, 32)
        value = (value << take) | int(rng.integers(0, 1 << take))
        remaining -= take
    return value


@lru_cache(maxsize=16)
def _all_sequences(q: int, n: int) -> np.ndarray:
    """All q-ary length-n sequences, row index = big-endian digit value."""
    if q**n > MATERIALIZE_LIMIT:
        raise BinningScaleError(f"sequence space {q}^{n} exceeds the enumeration limit")
    grids = np.meshgrid(*([np.arange(q)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


def _ceil_bits(n: int, rate: float) -> int:
    if rate <= 0.0:
        return 0
    return max(0, math.ceil(n * rate - 1e-9))


# ---------------------------------------------------------------------------
# Code design
# ---------------------------------------------------------------------------


def design_code(
    full: JointPmf,
    n: int,
    epsilon: float,
    r0: float,
    seed: int = 0,
    metric: Optional[DistortionMetric] = None,
    reconstruction: Optional[np.ndarray] = None,
    rate_override: Optional[BinningRates] = None,
) -> BinningCode:
    """Design a layered binning code for the single-letter law ``full``.

    ``full`` is the 6-axis joint over (V, U, Xt, X, Y, Z) that
    ``regions.extend_with_auxiliaries`` builds, with the chain
    V - U - Xt - X - (Y, Z).  The reconstruction map is taken from
    ``reconstruction`` if given, computed distortion-optimally from ``metric``
    if given, and defaults to xhat = u when |U| matches |Xt| (the lossless
    choice).  ``rate_override`` substitutes explicit rates for the standard
    epsilon-slack choices (useful for deliberately violating the decodability
    conditions); the pad regime is still selected from r0 and epsilon.
    """
    _require_axes(full, FULL_AXES, "design_code")
    if n < 1:
        raise ValueError("blocklength n must be >= 1")
    if not 0.0 < epsilon < math.inf:
        raise ModelError(f"epsilon={epsilon!r} must be finite and > 0")
    if not math.isfinite(r0) or r0 < 0.0:
        raise ModelError(f"private-key rate r0={r0!r} must be finite and >= 0")

    v_size = full.size_of(AX_V)
    u_size = full.size_of(AX_U)
    if max(v_size, u_size, full.size_of(AX_Y)) > 255:
        raise BinningScaleError("alphabets beyond 255 symbols are not supported")

    h_v_given_xt = full.entropy((AX_V, AX_XT)) - full.entropy((AX_XT,))
    i_v_xt = full.mutual_information((AX_V,), (AX_XT,))
    i_v_y = full.mutual_information((AX_V,), (AX_Y,))
    h_u_given_vxt = full.entropy((AX_U, AX_V, AX_XT)) - full.entropy((AX_V, AX_XT))
    combined = full.mutual_information((AX_U,), (AX_XT,), (AX_V,)) - full.mutual_information(
        (AX_U,), (AX_Y,), (AX_V,)
    )
    i_u_xt = full.mutual_information((AX_U,), (AX_XT,))
    i_u_y = full.mutual_information((AX_U,), (AX_Y,))

    mode: PadMode = ("pad_all" if r0 >= i_u_xt - i_u_y + 4.0 * epsilon
                     else "pad_u" if r0 >= combined + 2.0 * epsilon else "key_slot")
    ru = max(0.0, combined + 2.0 * epsilon - (r0 if mode == "key_slot" else 0.0))

    # Degenerate layers collapse to a single bin: the epsilon slack only
    # matters for layers that carry anything at all.
    h_v = full.entropy((AX_V,))
    h_u_given_v = full.entropy((AX_U, AX_V)) - h_v
    v_degenerate = h_v <= 1e-12
    u_degenerate = h_u_given_v <= 1e-12

    rates = rate_override if rate_override is not None else BinningRates(
        rv_tilde=0.0 if v_degenerate else max(0.0, h_v_given_xt - epsilon),
        rv=0.0 if v_degenerate else max(0.0, i_v_xt - i_v_y + 2.0 * epsilon),
        ru_tilde=0.0 if u_degenerate else max(0.0, h_u_given_vxt - epsilon),
        ru=0.0 if u_degenerate else ru,
        r0=r0,
    )

    bits = IndexBits(
        f_v=_ceil_bits(n, rates.rv_tilde),
        w_v=_ceil_bits(n, rates.rv),
        f_u=_ceil_bits(n, rates.ru_tilde),
        w_u=_ceil_bits(n, rates.ru),
        k_u=_ceil_bits(n, rates.r0) if mode == "key_slot" else 0,
    )

    # Decodability conditions; a zero-entropy layer is trivially decodable.
    h_v_given_y = full.entropy((AX_V, AX_Y)) - full.entropy((AX_Y,))
    h_u_given_vy = full.entropy((AX_U, AX_V, AX_Y)) - full.entropy((AX_V, AX_Y))
    key_help = rates.r0 if mode == "key_slot" else 0.0
    sw_v_ok = h_v_given_y <= 1e-12 or rates.rv_tilde + rates.rv > h_v_given_y
    sw_u_ok = (
        h_u_given_vy <= 1e-12
        or rates.ru_tilde + rates.ru + key_help > h_u_given_vy
    )

    p_u_given_xt = _conditional(full.marginal_table((AX_XT, AX_U)))
    p_v_given_u = _conditional(full.marginal_table((AX_U, AX_V)))

    if reconstruction is not None:
        recon = _reconstruction_map(reconstruction)
        if recon.shape != (u_size, full.size_of(AX_Y)):
            raise DimensionError("reconstruction map must be (|U|, |Y|)")
    elif metric is not None:
        recon, _ = optimal_reconstruction(full, metric)
    elif u_size == full.size_of(AX_XT):
        recon = np.tile(np.arange(u_size)[:, None], (1, full.size_of(AX_Y)))
    else:
        raise ModelError(
            "no reconstruction map: pass `reconstruction` or `metric` when |U| != |Xt|"
        )

    # One i.i.d. uniform stream per field of ``_FIELDS``, tagged 1 to 5.  The
    # tables are read-only: the code's bin index is built from them once.
    tables = None
    widths = astuple(bits)
    if v_size**n <= MATERIALIZE_LIMIT and u_size**n <= MATERIALIZE_LIMIT and max(widths) <= 62:
        spaces = (v_size**n,) * 2 + (u_size**n,) * 3
        tables = tuple(
            np.random.default_rng([seed, tag]).integers(0, 1 << width, size=space, dtype=np.int64)
            if width > 0 else np.zeros(space, dtype=np.int64)
            for tag, width, space in zip(range(1, 6), widths, spaces)
        )
        for table in tables:
            table.setflags(write=False)

    return BinningCode(
        n=n,
        v_size=v_size,
        u_size=u_size,
        rates=rates,
        bits=bits,
        mode=mode,
        p_u_given_xtilde=p_u_given_xt,
        p_v_given_u=p_v_given_u,
        reconstruction=recon,
        log_v_y=_log_conditional(full.marginal_table((AX_V, AX_Y)), 1),
        log_u_vy=_log_conditional(full.marginal_table((AX_U, AX_V, AX_Y)), 2),
        sw_v_ok=sw_v_ok,
        sw_u_ok=sw_u_ok,
        tables=tables,
    )


def _conditional(joint_2d: np.ndarray) -> np.ndarray:
    """Rows P(col | row); zero-probability rows become uniform."""
    totals = joint_2d.sum(axis=1, keepdims=True)
    out = np.where(totals > 0.0, joint_2d / np.where(totals == 0.0, 1.0, totals), 1.0 / joint_2d.shape[1])
    return out


def _log_conditional(joint: np.ndarray, cond_axes_last: int) -> np.ndarray:
    """Natural-log P(first axes | trailing axes), -inf for impossible cells."""
    denom = joint.sum(axis=tuple(range(joint.ndim - cond_axes_last)), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.where(joint > 0.0, joint, 0.0)) - np.log(
            np.where(denom > 0.0, denom, 1.0)
        )
    out[joint <= 0.0] = -np.inf
    return out


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def _inverse_cdf(rows: np.ndarray, labels, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling from the rows of a stochastic matrix, elementwise:
    each cell takes the category of row ``labels`` (an index array shaped as
    ``draws``, or a scalar) that its uniform draw selects, i.e. the number of
    that row's cumulative sums, all but the last, at or below the draw.  One
    cumulative column is compared at a time, so no (cells, categories) array
    is built."""
    cum = np.cumsum(rows, axis=1)
    idx = np.zeros(draws.shape, dtype=np.intp)
    for k in range(rows.shape[1] - 1):
        idx += draws >= cum[:, k][labels]
    return idx


def _sample_source(model: SourceModel, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Xt, X, Y, Z) blocks, each (trials, n), from (trials, 3n) uniforms:
    the first n of a row draw X^n, the next n Xt^n and the last n (Y, Z)^n."""
    x, xt_draws, yz_draws = np.split(draws, 3, axis=1)
    x = _inverse_cdf(model.px.probs[None, :], 0, x)
    xt = _inverse_cdf(model.meas_enc.rows, x, xt_draws)
    y, z = np.divmod(_inverse_cdf(model.meas_dec_eve.rows, x, yz_draws), model.z_size)
    return xt, x, y, z


def _sample_layers(code: BinningCode, xt: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary layers (V, U), each shaped as ``xt`` (trials, n), by
    forward per-letter sampling: U^n from the first n uniforms of a row of
    ``draws``, then V^n from the next n."""
    n = xt.shape[1]
    u = _inverse_cdf(code.p_u_given_xtilde, xt, draws[:, :n])
    v = _inverse_cdf(code.p_v_given_u, u, draws[:, n:2 * n])
    return v, u


def _seq_indices(seqs: np.ndarray, q: int) -> np.ndarray:
    """Big-endian index of each row of ``seqs`` in the q-ary sequence space."""
    return seqs @ q ** np.arange(seqs.shape[1] - 1, -1, -1)


def _pad(code: BinningCode, fields, key, sign: int = 1) -> list:
    """``fields`` (f_v, w_v, f_u, w_u, k_u) with the key components added
    (``sign`` 1) or removed (``sign`` -1) modulo 2^bits in the fields the
    pad mode pads (a padded field of 0 bits reads 0); elementwise on numpy
    arrays."""
    out = list(fields)
    for name, k in zip(_PADS[code.mode][1], key):
        i, bits = _FIELDS.index(name), getattr(code.bits, name)
        out[i] = (out[i] + sign * k) & ((1 << bits) - 1)
    return out


def _message_fields(code: BinningCode, v_idx, u_idx, key) -> list:
    """Padded (f_v, w_v, f_u, w_u, k_u) for v/u sequence indices and a key,
    elementwise on numpy arrays of indices and key components."""
    idx = (v_idx, v_idx, u_idx, u_idx, u_idx)
    return _pad(code, [t[i] for t, i in zip(code.tables, idx)], key)


def encode(
    code: BinningCode, xtilde_seq: Sequence[int], key: tuple[int, ...], seed: int = 0
) -> Message:
    """Sample the auxiliary layers for one source block and emit the message.

    The layers (V^n, U^n) are drawn by forward per-letter sampling from the
    auxiliary channels, U^n from the first n uniforms of
    ``default_rng(seed).random(2n)`` and V^n from the rest (the public
    indices are then read off the sampled sequences), and the key is mixed
    into the slot dictated by the pad regime.  Requires materialized bins;
    refuses a sequence with a symbol outside the Xt alphabet.
    """
    if not code.materialized:
        raise BinningScaleError(
            "encoding needs materialized bin tables, which this code's sequence "
            "space is too large for; use run_experiment, whose collision engine "
            "simulates such codes"
        )
    xt = _symbols(code, xtilde_seq, code.p_u_given_xtilde.shape[0], "Xt")
    key = _check_key(code, key)
    draws = np.random.default_rng(seed).random((1, 2 * code.n))
    v, u = _sample_layers(code, xt.reshape(1, -1), draws)
    fields = _message_fields(code, _seq_indices(v, code.v_size), _seq_indices(u, code.u_size), key)
    return Message(*(int(f[0]) for f in fields))


def _symbols(code: BinningCode, seq: Sequence[int], size: int, name: str) -> np.ndarray:
    """``seq`` as a length-n integer array, refusing any entry that is not a
    symbol of the ``size``-letter alphabet of ``name`` (a cast would wrap a
    negative index or truncate a fraction)."""
    arr = np.asarray(seq, dtype=float)
    if arr.size != code.n:
        raise DimensionError(f"sequence length {arr.size} != blocklength {code.n}")
    if not np.all((arr >= 0.0) & (arr < size) & (arr == np.floor(arr))):  # NaN fails too
        raise ModelError(f"{name} symbols must be integers in [0, {size})")
    return arr.astype(int)


def _check_key(code: BinningCode, key: tuple[int, ...]) -> tuple[int, ...]:
    """``key`` as integers, refusing a fraction (numpy's bit operations fail
    on it) or a component outside its field's bit width."""
    widths = code.key_bit_widths()
    if len(key) != len(widths):
        raise ValueError(f"key must have {len(widths)} component(s)")
    arr = np.asarray(key, dtype=float)
    if not np.all(arr == np.floor(arr)):  # NaN fails too
        raise ModelError("key components must be integers")
    key = tuple(int(k) for k in key)
    for k, b in zip(key, widths):
        if not 0 <= k < (1 << b):
            raise ValueError("key component out of range")
    return key


def decode(
    code: BinningCode,
    y_seq: Sequence[int],
    key: tuple[int, ...],
    message: Message,
) -> tuple[np.ndarray, bool]:
    """Successive maximum-likelihood-in-bin decoding.

    Recovers the most likely v^n in the received V bin given y^n, then the
    most likely u^n in the received U bin given (v^n, y^n), and maps through
    the reconstruction.  ``success`` is False on an empty candidate set or a
    likelihood tie; the output is then best effort.  Requires materialized
    bins (the in-bin search enumerates the sequence space), and refuses a
    sequence with a symbol outside the Y alphabet.  This is the decoder of
    ``run_experiment``'s explicit engine, on a block of one.
    """
    if not code.materialized:
        raise DecodeSearchError(
            "in-bin ML search needs an enumerable sequence space; "
            "use run_experiment, whose collision engine reproduces the same "
            "decoder exactly in distribution at large blocklengths"
        )
    y = _symbols(code, y_seq, code.reconstruction.shape[1], "Y")
    key = _check_key(code, key)
    fields = (message.f_v, message.w_v, message.f_u, message.w_u, message.key_slot)
    received = _pad(code, [np.array([f]) for f in fields], key, -1)
    _, u_hat, unique = _decode_block(code, y.reshape(1, -1), received)
    return code.reconstruction[u_hat[0], y], bool(unique[0])


class _BinIndex(NamedTuple):
    """The bins of one layer's sequences: ``levels`` holds each field's
    distinct table values (ascending); a sequence's bin key is the
    mixed-radix number of its fields' ranks among them, which fits int64
    whatever the fields' bit widths; ``order`` lists the sequence indices in
    stable order of their keys, ``keys`` the sorted keys and ``largest`` the
    most sequences in one bin."""

    levels: list
    order: np.ndarray
    keys: np.ndarray
    largest: int


def _bin_index(tables: Sequence[np.ndarray]) -> _BinIndex:
    """``_BinIndex`` of the sequences of one layer, from its fields' tables."""
    levels, key = [], np.zeros(tables[0].size, dtype=np.int64)
    for table in tables:
        values, rank = np.unique(table, return_inverse=True)
        levels.append(values)
        key = key * values.size + rank
    order = np.argsort(key, kind="stable")
    keys = key[order]
    return _BinIndex(levels, order, keys, int(np.unique(keys, return_counts=True)[1].max()))


def _decode_block(
    code: BinningCode, y: np.ndarray, received: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Successive ML-in-bin decisions for a block of trials: V^n from y^n,
    then U^n from (v_hat^n, y^n).  ``y`` is (trials, n) and ``received`` the
    five fields per trial with the key removed.  Returns (v_hat, u_hat,
    unique)."""
    v_bins, u_bins = code._bins
    v_hat, ok_v = _ml_in_bin_block(v_bins, received[:2], _all_sequences(code.v_size, code.n),
                                   code.log_v_y, (y,))
    u_hat, ok_u = _ml_in_bin_block(u_bins, received[2:], _all_sequences(code.u_size, code.n),
                                   code.log_u_vy, (v_hat, y))
    return v_hat, u_hat, ok_v & ok_u


def _ml_in_bin_block(
    bins: _BinIndex, received: list, seqs: np.ndarray, log_p: np.ndarray,
    side: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the most likely sequence of ``seqs`` in its received bin.

    ``bins`` is the layer's ``_BinIndex`` and ``received`` its field values
    per trial; ``log_p[s, c...]`` is ln P(symbol s | side symbols c...) and
    ``side`` the (trials, n) side-information sequences.  A trial's
    candidates are one range of the stably sorted sequences, so they stay in
    sequence order and the first maximum wins.  Their log-likelihoods are
    row sums of one gather, taken over chunks of at most ``_BLOCK_CELLS``
    (candidate, position) cells.  A decision is unique when it is finite and
    no other candidate comes within ``_LL_TIE_TOL`` of it; an empty bin
    falls back to per-letter MAP, ignoring the bin, and is not unique.
    """
    levels, order, sorted_key, _ = bins
    trials, n = side[0].shape
    key = np.zeros(trials, dtype=np.int64)
    absent = np.zeros(trials, dtype=bool)
    for values, value in zip(levels, received):
        pos = np.searchsorted(values, value)
        absent |= values[np.minimum(pos, values.size - 1)] != value
        key = key * values.size + pos
    lo = np.searchsorted(sorted_key, key, side="left")
    count = np.where(absent, 0, np.searchsorted(sorted_key, key, side="right") - lo)

    hat = np.argmax(log_p, axis=0)[side]
    unique = np.zeros(trials, dtype=bool)
    found = np.flatnonzero(count)
    if found.size == 0:
        return hat, unique
    total = int(count.sum())
    offset = np.cumsum(count) - count  # each trial's first candidate in ``cand``
    trial = np.repeat(np.arange(trials), count)
    cand = order[np.repeat(lo - offset, count) + np.arange(total)]
    ll = np.empty(total)
    step = max(1, _BLOCK_CELLS // n)
    for a in range(0, total, step):
        t = trial[a:a + step]
        ll[a:a + step] = log_p[(seqs[cand[a:a + step]],) + tuple(s[t] for s in side)].sum(axis=1)
    starts = offset[found]
    best = np.maximum.reduceat(ll, starts)
    best_of = np.repeat(best, count[found])
    hits = np.flatnonzero(ll == best_of)
    ties = np.add.reduceat(ll >= best_of - _LL_TIE_TOL, starts, dtype=np.intp)
    hat[found] = seqs[cand[hits[np.searchsorted(hits, starts)]]]
    unique[found] = (ties == 1) & np.isfinite(best)
    return hat, unique


# ---------------------------------------------------------------------------
# Collision engine: exact-in-distribution ML-in-bin success sampling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _log_factorials(bits: int) -> np.ndarray:
    """ln k! = ``math.lgamma(k + 1)`` for k < 2**bits, read-only (cached)."""
    table = np.array([math.lgamma(k + 1) for k in range(1 << bits)])
    table.setflags(write=False)
    return table


def _type_tables(
    logp_rows: np.ndarray, sizes: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per group g of ``sizes[g]`` positions whose symbols have
    log-probabilities ``logp_rows[g]``: (ll, logcnt), the log-likelihood and
    the ln multiplicity of each composition type (``compositions`` order).
    Every group's types are formed together, one symbol at a time, so each
    type's sums run over the symbols in order.  A type using an impossible
    symbol has log-likelihood -inf."""
    comps = [compositions(int(s), logp_rows.shape[1]) for s in sizes]
    counts = [c.shape[0] for c in comps]
    log_fact = _log_factorials(int(sizes.max()).bit_length())
    ll = logcnt = 0.0
    for j, lp in enumerate(logp_rows.T):
        c = np.concatenate([t[:, j] for t in comps])
        with np.errstate(invalid="ignore"):  # 0 * -inf, for a symbol the type does not use
            ll = ll + np.where(c > 0, c * np.repeat(lp, counts), 0.0)
        logcnt = logcnt + log_fact[c]
    logcnt = np.repeat(log_fact[sizes], counts) - logcnt
    bounds = np.cumsum([0] + counts).tolist()
    return [(ll[a:b], logcnt[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _cross_types(types) -> tuple[np.ndarray, np.ndarray]:
    """(log-likelihoods, ln counts) of the cross product of the groups'
    ``types``, a sequence of (ll, logcnt) pairs in merge order; raises
    ``BinningScaleError`` beyond ``ENUMERATION_BUDGET`` cells.  Adding the
    first group to the empty product's 0 changes no bit: ``_type_tables``
    yields no -0."""
    lls = logcounts = np.zeros(1)
    for ll_g, logcnt_g in types:
        if lls.size * ll_g.size > ENUMERATION_BUDGET:
            raise BinningScaleError(
                "composition enumeration exceeds the desk-scale budget "
                "(too many side-information groups or too large an alphabet)"
            )
        lls = (lls[:, None] + ll_g[None, :]).ravel()
        logcounts = (logcounts[:, None] + logcnt_g[None, :]).ravel()
    return lls, logcounts


def _log2_counts(
    log_p: np.ndarray, true_seq: np.ndarray, side: tuple[np.ndarray, ...]
) -> list[float]:
    """log2 of the count of sequences at least as likely as the truth, the
    truth included, for each trial of a block of the collision engine.

    ``log_p[s, c...]`` is ln P(symbol s | side symbols c...), ``true_seq``
    and ``side`` the (trials, n) true and side-information sequences.  In
    each trial, positions with equal side symbols form one group, and the
    count enumerates each group's composition types (``_type_tables``),
    which is exact.  The block's groups are labelled at once (trial-offset
    labels give their sizes in one ``bincount``), the truths'
    log-likelihoods are one row sum, and each distinct (label, size) group
    has its types formed once.  Each trial merges its group with the most
    types (the first of the largest) last: that group's log-likelihoods are
    sorted, and the suffix log-sums of their counts formed, once per block.
    Each type of the cross product of the trial's other groups
    (``_cross_types``) finds the qualifying ones by binary search, so it
    costs |A| log |B| rather than |A| |B|.
    """
    trials, n = true_seq.shape
    flat = log_p.reshape(log_p.shape[0], -1)
    label = np.ravel_multi_index(side, log_p.shape[1:])
    true_ll = flat[true_seq, label].sum(axis=1)
    if not np.isfinite(true_ll).all():
        raise ValueError("the true sequence must have positive probability")
    sizes = np.bincount((label + flat.shape[1] * np.arange(trials)[:, None]).ravel(),
                        minlength=trials * flat.shape[1]).reshape(trials, -1)
    trial, group = np.nonzero(sizes)  # per trial, its groups in label order
    keys, key_of = np.unique(group * (n + 1) + sizes[trial, group], return_inverse=True)
    types = _type_tables(flat[:, keys // (n + 1)].T, keys % (n + 1))
    is_last = group == np.argmax(sizes, axis=1)[trial]
    others = np.split(key_of[~is_last], np.cumsum(np.count_nonzero(sizes, axis=1) - 1)[:-1])
    ranked: dict = {}  # last group -> (sorted log-likelihoods, suffix log-sums)
    counts = []
    for last, other, ll in zip(key_of[is_last].tolist(), others, true_ll.tolist()):
        if last not in ranked:
            ll_last, logcnt = types[last]
            order = np.argsort(ll_last, kind="stable")
            # ln of the summed counts from each rank on
            suffix = np.full(ll_last.size + 1, -np.inf)
            np.logaddexp.accumulate(logcnt[order[::-1]], out=suffix[-2::-1])
            ranked[last] = ll_last[order], suffix
        ll_sorted, suffix = ranked[last]
        lls, logcounts = _cross_types([types[k] for k in other.tolist()])
        first = np.searchsorted(ll_sorted, ll - _LL_TIE_TOL - lls, side="left")
        counts.append(_log2_sum_exp(logcounts + suffix[first]))
    return counts


def log2_competitor_count(
    per_pos_logp: np.ndarray, true_seq: np.ndarray, groups: np.ndarray
) -> float:
    """log2 of the number of sequences at least as likely as the truth.

    ``per_pos_logp[g]`` is the per-symbol log-probability vector of group g
    (positions sharing the same side-information symbol form a group);
    ``groups[i]`` labels position i.  Counts by enumerating composition types
    per group, which is exact; the count includes the true sequence itself.
    It is the one-trial block of ``_log2_counts``, the count that
    ``run_experiment``'s collision engine takes per trial.
    """
    return _log2_counts(per_pos_logp.T, true_seq[None], (groups[None],))[0]


def _log2_sum_exp(terms: np.ndarray) -> float:
    """log2(sum(exp(terms))) by a max-shifted sum; -inf when every term is."""
    peak = float(terms.max())
    if peak == -math.inf:
        return -math.inf
    return (peak + math.log(np.exp(terms - peak).sum())) / math.log(2.0)


def collision_free_probability(log2_count_including_truth: float, bits: int) -> float:
    """P(no competitor lands in the transmitted bin) for i.i.d. uniform bins.

    The competitor count N is the at-least-as-likely count minus the truth;
    the probability is (1 - 2^-bits)^N = exp(-2^e) with
    e = log2 N + log2(-ln(1 - 2^-bits)), each term taken in a form that keeps
    full precision: log2 N = L + log2(1 - 2^-L) from L = log2(N + 1), and
    -ln(1 - 2^-bits) = 2^-bits to double precision above 60 bits.
    """
    log2n = log2_count_including_truth
    if log2n <= 1e-12:
        return 1.0  # truth only
    if bits == 0:
        return 0.0
    log2_comp = log2n + math.log2(-math.expm1(-log2n * math.log(2.0)))
    log2_rate = -bits if bits > 60 else math.log2(-math.log1p(-(2.0**-bits)))
    return math.exp(-(2.0 ** min(log2_comp + log2_rate, 64.0)))


def _layer_success_block(
    log_p: np.ndarray, true_seq: np.ndarray, side: tuple[np.ndarray, ...], bits: int
) -> np.ndarray:
    """P(the layer decodes) for each trial of a block of the collision engine,
    ``collision_free_probability`` of its competitor count (``_log2_counts``,
    which takes the same arguments).  A one-symbol layer always decodes.
    """
    trials = true_seq.shape[0]
    if log_p.shape[0] == 1 or trials == 0:
        return np.ones(trials)
    return np.array([collision_free_probability(count, bits)
                     for count in _log2_counts(log_p, true_seq, side)])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_experiment(
    code: BinningCode,
    model: SourceModel,
    trials: int,
    seed: int = 0,
    metric: Optional[DistortionMetric] = None,
) -> SimulationReport:
    """Repeated encode/decode trials with empirical reliability and leakage.

    Per trial an i.i.d. source block and a fresh uniform key are drawn.  With
    materialized bins the explicit encoder/decoder runs; otherwise the
    collision engine samples the exact ML-in-bin success event (see module
    docstring).  ``error_rate`` is the fraction of trials whose layers did
    not decode to the true sequences; ``distortion`` averages the per-letter
    metric over the successfully decoded trials (NaN if none succeeded;
    Hamming on the Xt alphabet by default).

    Each trial keeps its own random stream: trial t owns
    ``np.random.default_rng([seed, 7, t])`` and draws ``random(3n)`` (X^n,
    then Xt^n, then (Y, Z)^n), then the key (``BinningCode.draw_key``), then
    ``random(2n + 2)`` (U^n, then V^n, then the collision engine's V-layer
    and U-layer uniforms).  Trials run in blocks: each trial's draws fill
    one row of the block buffers, and sampling, the pooled type, decoding
    and distortion run once per block.  A block holds as many trials as keep
    its (trial, position) cells, and for the explicit engine its (trial,
    candidate, position) cells at the largest bin, within ``_BLOCK_CELLS``
    (at least one trial).  The collision engine counts the competitors of
    a block at once, layer by layer, and the U layer only in the trials
    whose V layer decoded.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if model.xtilde_size != code.p_u_given_xtilde.shape[0]:
        raise DimensionError("model Xt alphabet does not match the code")
    metric = metric if metric is not None else DistortionMetric.hamming(model.xtilde_size)
    if metric.xtilde_size != model.xtilde_size:
        raise DimensionError("distortion table rows must match |Xt|")
    if code.reconstruction.max() >= metric.table.shape[1]:
        raise DimensionError(f"reconstruction map entry {code.reconstruction.max()} is outside "
                             f"the metric's {metric.table.shape[1]} reconstruction symbols")

    n = code.n
    explicit = code.materialized
    width = max(b.largest for b in code._bins) if explicit else 1  # candidates per trial
    block = min(trials, max(1, _BLOCK_CELLS // (n * width)))
    source = np.empty((block, 3 * n))
    layers = np.empty((block, 2 * n + 2))
    keys = np.zeros((block, len(code.key_bit_widths())), dtype=np.int64)
    # The pooled type of (v, u, xt, x, y, z).
    shape = (code.v_size, code.u_size, model.xtilde_size, model.x_size,
             model.y_size, model.z_size)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    errors = 0
    distortions = []

    for first in range(0, trials, block):
        rows = min(block, trials - first)
        for i in range(rows):
            rng = np.random.default_rng([seed, 7, first + i])
            rng.random(out=source[i])
            key = code.draw_key(rng)
            if explicit:
                keys[i] = key
            rng.random(out=layers[i])
        xt, x, y, z = _sample_source(model, source[:rows])
        v, u = _sample_layers(code, xt, layers[:rows])
        cells = np.ravel_multi_index((v, u, xt, x, y, z), shape)
        counts += np.bincount(cells.ravel(), minlength=counts.size)

        if explicit:
            block_keys = keys[:rows].T
            fields = _message_fields(code, _seq_indices(v, code.v_size),
                                     _seq_indices(u, code.u_size), block_keys)
            v_hat, u_hat, unique = _decode_block(code, y, _pad(code, fields, block_keys, -1))
            ok = unique & (v_hat == v).all(axis=1) & (u_hat == u).all(axis=1)
        else:
            ok = layers[:rows, 2 * n] < _layer_success_block(
                code.log_v_y, v, (y,), code.bits.f_v + code.bits.w_v)
            tried = np.flatnonzero(ok)  # the U layer is counted where V decoded
            ok[tried] = layers[tried, 2 * n + 1] < _layer_success_block(
                code.log_u_vy, u[tried], (v[tried], y[tried]), code.bits.u_layer_total())
        errors += rows - int(np.count_nonzero(ok))
        xhat = code.reconstruction[u[ok], y[ok]]
        distortions.append(metric.table[xt[ok], xhat].mean(axis=1))

    # The region's leakage bounds for the regime the pad mode realizes.
    emp = JointPmf(FULL_AXES, counts.reshape(shape) / counts.sum())
    leak_s, leak_p = _leakages(emp, _PADS[code.mode][0], r_prime(emp), code.bits.k_u / code.n)
    decoded = np.concatenate(distortions)
    return SimulationReport(
        n=code.n,
        trials=trials,
        error_rate=errors / trials,
        distortion=float(np.mean(decoded)) if decoded.size else float("nan"),
        leak_secrecy=leak_s,
        leak_privacy=leak_p,
        key_rate_used=code.key_rate_used(),
        engine="explicit" if explicit else "collision",
    )


# ---------------------------------------------------------------------------
# Exact small-blocklength analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactMessageTable:
    """P(message | xt-sequence) by full enumeration of a materialized code,
    as its cells of positive probability sorted by (column, row); column c
    is ``messages[c]``, five ``_FIELDS``, distinct and in lexicographic order.
    """

    p_sequence: np.ndarray  # P(xt^n), length |Xt|^n
    row: np.ndarray         # xt^n index of each cell
    column: np.ndarray      # message index of each cell
    prob: np.ndarray        # P(messages[column] | xt^n = row) of each cell
    messages: np.ndarray    # (C, 5) int64 message fields


def exact_message_table(code: BinningCode, model: SourceModel) -> ExactMessageTable:
    """Enumerate the exact conditional law of the transmitted message.

    Sums over the auxiliary sampling (support of P(V,U|Xt) per letter) and
    over all keys; feasible for deterministic auxiliaries or tiny
    blocklengths (budget-guarded).  Every (sequence, auxiliary path, key)
    triple is one entry of five numpy field arrays, in ascending order of
    its sequence.  One stable lexsort of the fields with bits orders the
    triples by (message, sequence): a change of message starts a column, a
    change of message or sequence a cell, and each cell sums its triples.
    """
    if not code.materialized:
        raise BinningScaleError("exact enumeration needs a materialized code")
    if model.xtilde_size != code.p_u_given_xtilde.shape[0]:
        raise DimensionError("model Xt alphabet does not match the code")
    q = model.xtilde_size
    n = code.n
    seqs = _all_sequences(q, n)
    p_xt_letter = model.px.probs @ model.meas_enc.rows
    p_seq = np.prod(p_xt_letter[seqs], axis=1)

    # Per-letter law of (v, u) given xt, flattened to v * |U| + u.
    p_vu_given_xt = np.einsum(
        "au,uv->avu", code.p_u_given_xtilde, code.p_v_given_u
    ).reshape(q, -1)
    support = p_vu_given_xt > 0.0

    key_widths = code.key_bit_widths()
    key_bits = sum(key_widths)
    n_keys = 1 << key_bits
    max_support = int(support.sum(axis=1).max())
    if p_seq.size * (max_support**n) * n_keys > ENUMERATION_BUDGET:
        raise BinningScaleError("exact message enumeration exceeds the budget")

    # Grow all (sequence, path) pairs one letter at a time; the v and u paths
    # are kept as big-endian sequence indices.  ``np.nonzero`` keeps the
    # parents in order, so the rows stay ascending.
    row = np.arange(p_seq.size)
    v_idx = np.zeros_like(row)
    u_idx = np.zeros_like(row)
    p_path = np.ones(p_seq.size)
    for i in range(n):
        letter = seqs[row, i]
        parent, vu = np.nonzero(support[letter])
        v, u = np.divmod(vu, code.u_size)
        p_path = p_path[parent] * p_vu_given_xt[letter[parent], vu]
        v_idx = v_idx[parent] * code.v_size + v
        u_idx = u_idx[parent] * code.u_size + u
        row = row[parent]

    # Triple (path, key) is entry path * n_keys + key of each field.  A field
    # of 0 bits is 0 in every message, so only the others are sorted and
    # scanned; with none, every triple sends the one all-zero message.
    keys = np.indices([1 << b for b in key_widths]).reshape(len(key_widths), 1, n_keys)
    live = [j for j, bits in enumerate(astuple(code.bits)) if bits > 0]
    fields = _message_fields(code, v_idx[:, None], u_idx[:, None], keys)
    fields = [np.broadcast_to(fields[j], (row.size, n_keys)).ravel() for j in live]
    # By message, then (stable) by row.
    order = np.lexsort(fields[::-1]) if fields else np.arange(row.size * n_keys)
    path = order >> key_bits
    new_column = np.zeros(order.size, dtype=bool)
    new_column[0] = True
    for f in fields:
        ordered = f[order]
        new_column[1:] |= ordered[1:] != ordered[:-1]
    sorted_row = row[path]
    new_cell = new_column.copy()
    new_cell[1:] |= sorted_row[1:] != sorted_row[:-1]
    # Each cell sums its triples in input order, as the stable sort keeps it.
    prob = np.bincount(np.cumsum(new_cell) - 1, weights=(p_path * (1.0 / n_keys))[path])
    column = np.cumsum(new_column) - 1
    messages = np.zeros((int(column[-1]) + 1, len(_FIELDS)), dtype=np.int64)
    for j, f in zip(live, fields):
        messages[:, j] = f[order[new_column]]
    return ExactMessageTable(p_seq, sorted_row[new_cell], column[new_cell], prob, messages)


def padded_indices_mutual_information(
    code: BinningCode, model: SourceModel
) -> tuple[float, np.ndarray]:
    """Exact I(Xt^n; padded message components) plus their joint marginal.

    The padded components are the key slot (key-slot regime), W_u (pad-u
    regime) or (W_v, W_u) (fully padded regime); the marginal is indexed by
    their value, the first component most significant.  One-time padding
    with a uniform key makes them uniform and independent of the source
    block for every bin realization, so the returned mutual information is
    zero to machine precision and the marginal is exactly flat.  It is taken
    as H(pad) + H(Xt^n) - H(Xt^n, pad) over the (pad value, xt^n) cells.
    """
    t = exact_message_table(code, model)
    padded = [_FIELDS.index(f) for f in _PADS[code.mode][1]]
    pad = np.zeros(len(t.messages), dtype=np.int64)
    for j, bits in zip(padded, code.key_bit_widths()):
        pad = (pad << bits) | t.messages[:, j]
    rows = t.p_sequence.size
    cells, inverse = np.unique(pad[t.column] * rows + t.row, return_inverse=True)
    joint = np.bincount(inverse, weights=t.prob) * t.p_sequence[cells % rows]  # P(pad, xt^n)
    p_pad = np.bincount(cells // rows, weights=joint, minlength=1 << sum(code.key_bit_widths()))
    return entropy_bits(p_pad) + entropy_bits(t.p_sequence) - entropy_bits(joint), p_pad


@dataclass(frozen=True)
class ExactLeakage:
    """Exact per-symbol conditional leakages of a concrete small-n code."""

    secrecy: float   # I(Xt^n; message | Z^n) / n
    privacy: float   # I(X^n; message | Z^n) / n


def exact_leakage(code: BinningCode, model: SourceModel) -> ExactLeakage:
    """Exact finite-n leakage of the full transmitted+public message tuple.

    Computes I(Xt^n; W | Z^n)/n and I(X^n; W | Z^n)/n exactly, using
    W - Xt^n - Z^n and W - X^n - Z^n (the message is a function of the
    source block and private randomness).  The public indices F are part of
    W here, matching what the eavesdropper observes.

    H(Xt^n, W) is the entropy of the cells of P(Xt^n, W) themselves.  For
    A = Z and A = X, the sequences that reach message w share a letter s_i
    at each position i outside the set D_w where they disagree, and the
    source is memoryless, so P(a^n, w) = prod_{i not in D_w} P(s_i, a_i)
    times B_w(a on D_w), the sum over xt on D_w of prod_{i in D_w}
    P(xt_i, a_i) P(w | xt^n).  Its entropy over a^n is H(c_w B_w) +
    P(w) sum_{i not in D_w} H(A | Xt = s_i), with c_w = prod_{i not in D_w}
    P(s_i).  c_w B_w comes from applying P(Xt, A) a few letters at a time
    to blocks of messages of equal |D_w|, each a zeroed (|Xt|^|D_w|, width)
    array; |D_w| = n is the unfactored sum.  The cost is about
    sum_w |D_w| m^|D_w| with m = max(|Xt|, |Z|, |X|), at most the
    O(n m^n C) of the unfactored sum over C messages; no |Xt|^n x |Z|^n or
    |Xt|^n x C table is built.  Each conditional entropy is a joint entropy
    minus n times a per-letter one.  The widest block has m^max|D_w| cells
    per message, at most ``LEAKAGE_CELL_LIMIT``; the message table is
    bounded by the enumeration budget of ``exact_message_table``.
    """
    t = exact_message_table(code, model)
    n = code.n
    q = model.xtilde_size
    m = max(q, model.z_size, model.x_size)
    p_xt_x, _, p_xt_z = model.pairwise_tables()
    p_xt = p_xt_x.sum(axis=1)
    joint_cells = t.p_sequence[t.row] * t.prob
    h_xt_w = entropy_bits(joint_cells)
    spread, firsts, rank, sub, value, count = _cells_by_spread(t, joint_cells, p_xt, n)
    if m ** int(spread[-1]) > LEAKAGE_CELL_LIMIT:
        raise BinningScaleError("exact leakage working arrays exceed the budget")

    # The factors outside D_w: sum_s count[s] H(A | Xt = s).
    h_z_w = float(count @ entropy_bits(_conditional(p_xt_z), axis=1))
    h_x_w = float(count @ entropy_bits(_conditional(p_xt_x), axis=1))
    to_z = _letter_powers(p_xt_z, n)
    to_x = _letter_powers(p_xt_x, n)
    widths, group_ends = np.unique(spread, return_index=True)
    for d, g0, g1 in zip(widths.tolist(), group_ends, np.append(group_ends[1:], spread.size)):
        step = max(1, _BLOCK_CELLS // m**d)
        for start in range(g0, g1, step):
            lo, hi = firsts[start], firsts[min(start + step, g1)]
            block = np.zeros((q**d, min(step, g1 - start)))
            block[sub[lo:hi], rank[lo:hi] - start] = value[lo:hi]
            # Transposed, the result is contiguous: entropy_bits reads it uncopied.
            h_z_w += entropy_bits(_apply_per_letter(block, to_z, d).T)
            h_x_w += entropy_bits(_apply_per_letter(block, to_x, d).T)
    h_w_given_xt = h_xt_w - n * entropy_bits(p_xt)
    h_w_given_z = h_z_w - n * entropy_bits(p_xt_z.sum(axis=0))
    h_w_given_x = h_x_w - n * entropy_bits(model.px.probs)
    secrecy = (h_w_given_z - h_w_given_xt) / n
    privacy = (h_w_given_z - h_w_given_x) / n
    return ExactLeakage(secrecy=max(0.0, secrecy), privacy=max(0.0, privacy))


def _cells_by_spread(
    t: ExactMessageTable, joint_cells: np.ndarray, p_xt: np.ndarray, n: int
) -> tuple[np.ndarray, ...]:
    """The cells of ``t`` in (|D_w|, column) order: |D_w| per column
    (ascending), each column's first cell and the cell count, and per cell
    its column's rank, its index over D_w and P(w | xt^n) prod_{i not in
    D_w} P(s_i); also count[s], the sum over w of P(w) (from
    ``joint_cells``) times the positions outside D_w that carry s."""
    q = p_xt.size
    n_cols = len(t.messages)
    starts = np.searchsorted(t.column, np.arange(n_cols))  # each column's first cell
    members = np.diff(np.append(starts, t.row.size))
    shared, sub = _shared_letters(t.row, starts, members, q, n)
    count = np.add.reduceat(joint_cells, starts) @ shared
    spread = n - shared.sum(axis=1)
    by_spread = np.argsort(spread, kind="stable")
    spread, sizes = spread[by_spread], members[by_spread]
    firsts = np.cumsum(sizes) - sizes
    rank, prob = t.column, t.prob
    # A table whose |D_w| never falls from one column to the next (a fully
    # padded code's) is in order already.
    if np.any(by_spread[1:] < by_spread[:-1]):
        order = np.repeat(starts[by_spread] - firsts, sizes) + np.arange(t.row.size)
        rank = np.repeat(np.arange(n_cols), sizes)
        sub, prob = sub[order], prob[order]
    firsts = np.append(firsts, t.row.size)
    value = prob * np.repeat(np.prod(p_xt ** shared[by_spread], axis=1), sizes)
    return spread, firsts, rank, sub, value, count


def _shared_letters(
    row: np.ndarray, starts: np.ndarray, members: np.ndarray, q: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per column (cells ``starts[c]`` on, ``members[c]`` of them, rows in
    ``row``): how many positions outside D_w carry each letter, (C, q); per
    cell: its index over its column's D_w, big-endian.  Positions are
    checked one at a time; a column of more than q^(n-1) members agrees
    nowhere and keeps its rows."""
    letters = np.full((starts.size, n), q, dtype=np.min_scalar_type(q))  # q: in D_w
    cols = np.flatnonzero(members <= q ** (n - 1))
    sub = row
    if cols.size:
        sizes = members[cols]
        heads = np.cumsum(sizes) - sizes                 # first cell of each checked column
        cells = np.repeat(starts[cols] - heads, sizes) + np.arange(sizes.sum())
        local = np.repeat(np.arange(cols.size), sizes)  # checked column of each cell
        lead = row[starts[cols]]
        index = np.zeros(cells.size, dtype=row.dtype)
        for i in range(n):
            weight = q ** (n - 1 - i)
            digit = row[cells] // weight % q
            shared = lead // weight % q
            apart = np.logical_or.reduceat(digit != shared[local], heads)
            letters[cols, i] = np.where(apart, q, shared)
            index = np.where(apart[local], index * q + digit, index)
        sub = row.copy()
        sub[cells] = index
    return np.stack([np.count_nonzero(letters == s, axis=1) for s in range(q)], axis=1), sub


def _letter_powers(joint: np.ndarray, n: int) -> list[np.ndarray]:
    """Kronecker powers 1, 2, ..., k of ``joint`` (Xt, A), transposed.

    k is the most letters, at most n, that keep a power within
    ``_LETTER_POWER_SIZE`` rows and columns: few wide steps beat many
    narrow ones, since each step is one pass over the working block.
    """
    width = max(joint.shape)
    powers = [joint]
    while len(powers) < n and width ** (len(powers) + 1) <= _LETTER_POWER_SIZE:
        last = powers[-1]  # np.kron(last, joint), without its overhead
        powers.append((last[:, None, :, None] * joint[None, :, None, :]).reshape(
            last.shape[0] * joint.shape[0], -1))
    return [p.T for p in powers]


def _apply_per_letter(block: np.ndarray, powers: list[np.ndarray], d: int) -> np.ndarray:
    """sum over xt^d of prod_i joint[xt_i, a_i] * block[xt^d, c].

    ``block`` rows are indexed by the big-endian digits of xt^d.  Each step
    applies the widest power from ``_letter_powers`` that the remaining
    letters allow: it contracts the leading digits and rotates the new ones
    to the back, so the result has axes (c, a_1, ..., a_d).
    """
    out = block
    k = len(powers)
    for done in range(0, d, k):
        power = powers[min(k, d - done) - 1]
        out = (power @ out.reshape(power.shape[1], -1)).T
    return out
