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
bin assignments - the quantity the achievability analysis controls.

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
P(xt, x) to blocks of that law a few letters at a time, in O(n m^n C)
arithmetic for C messages and m = max(|Xt|, |Z|, |X|), without building any
|Xt|^n x |Z|^n or |Xt|^n x C table; its working arrays are capped at
``LEAKAGE_CELL_LIMIT`` cells per message.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache, reduce
from typing import Literal, Optional, Sequence

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
LEAKAGE_CELL_LIMIT = 64_000_000  # cells per message column in exact_leakage's working arrays
# Working-block size of exact_leakage: 120 KiB per float64 array.  Each block
# allocates about 20 arrays of up to that size.  Above glibc's default mmap
# threshold (128 KiB, raised only after a larger mapped chunk is freed) every
# block would map them fresh and page-fault; smaller blocks pay more per-block
# overhead.
_LEAKAGE_BLOCK_CELLS = 15 << 10
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


def _seq_index(seq: np.ndarray, q: int) -> int:
    idx = 0
    for s in np.asarray(seq, dtype=int):
        idx = idx * q + int(s)
    return idx


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

    ``full`` is the 7-axis joint over (Q, V, U, Xt, X, Y, Z) that
    ``regions.extend_with_auxiliaries`` builds, with the chain
    (Q, V) - U - Xt - X - (Y, Z); the codec has no time-sharing layer, so Q
    is summed out.  The reconstruction map is taken from
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
        recon = np.array(reconstruction, dtype=int)
        if recon.shape != (u_size, full.size_of(AX_Y)):
            raise DimensionError("reconstruction map must be (|U|, |Y|)")
    elif metric is not None:
        recon, _ = optimal_reconstruction(full, metric)
        recon = np.array(recon, dtype=int)
    elif u_size == full.size_of(AX_XT):
        recon = np.tile(np.arange(u_size)[:, None], (1, full.size_of(AX_Y)))
    else:
        raise ModelError(
            "no reconstruction map: pass `reconstruction` or `metric` when |U| != |Xt|"
        )

    # One i.i.d. uniform stream per field of ``_FIELDS``, tagged 1 to 5.
    tables = None
    widths = astuple(bits)
    if v_size**n <= MATERIALIZE_LIMIT and u_size**n <= MATERIALIZE_LIMIT and max(widths) <= 62:
        spaces = (v_size**n,) * 2 + (u_size**n,) * 3
        tables = tuple(
            np.random.default_rng([seed, tag]).integers(0, 1 << width, size=space, dtype=np.int64)
            if width > 0 else np.zeros(space, dtype=np.int64)
            for tag, width, space in zip(range(1, 6), widths, spaces)
        )

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


def _sample_categorical(rows: np.ndarray, labels: np.ndarray, rng) -> np.ndarray:
    cum = np.cumsum(rows, axis=1)
    draws = rng.random(labels.size)
    idx = (draws[:, None] >= cum[labels]).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def _sample_aux(code: BinningCode, xtilde_seq: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    u = _sample_categorical(code.p_u_given_xtilde, xtilde_seq, rng)
    v = _sample_categorical(code.p_v_given_u, u, rng)
    return v, u


def _pad(code: BinningCode, fields, key, sign: int = 1) -> list:
    """``fields`` (f_v, w_v, f_u, w_u, k_u) with the key components added
    (``sign`` 1) or removed (``sign`` -1) modulo 2^bits in the fields the
    pad mode pads; elementwise on numpy arrays."""
    out = list(fields)
    for name, k in zip(_PADS[code.mode][1], key):
        i, bits = _FIELDS.index(name), getattr(code.bits, name)
        out[i] = (out[i] + sign * k) & ((1 << bits) - 1) if bits > 0 else 0
    return out


def _message_fields(code: BinningCode, v_idx, u_idx, key) -> list:
    """Padded (f_v, w_v, f_u, w_u, k_u) for v/u sequence indices and a key,
    elementwise on numpy arrays of indices and key components."""
    idx = (v_idx, v_idx, u_idx, u_idx, u_idx)
    return _pad(code, [t[i] for t, i in zip(code.tables, idx)], key)


def _assemble_message(code: BinningCode, v_seq, u_seq, key) -> Message:
    fields = _message_fields(
        code, _seq_index(v_seq, code.v_size), _seq_index(u_seq, code.u_size), key
    )
    return Message(*(int(f) for f in fields))


def encode(
    code: BinningCode, xtilde_seq: Sequence[int], key: tuple[int, ...], seed: int = 0
) -> Message:
    """Sample the auxiliary layers for one source block and emit the message.

    The layers (V^n, U^n) are drawn by forward per-letter sampling from the
    auxiliary channels (the public indices are then read off the sampled
    sequences), and the key is mixed into the slot dictated by the pad
    regime.  Requires materialized bins.
    """
    if not code.materialized:
        raise BinningScaleError(
            "encoding needs materialized bin tables, which this code's sequence "
            "space is too large for; use run_experiment, whose collision engine "
            "simulates such codes"
        )
    xt = np.asarray(xtilde_seq, dtype=int)
    if xt.size != code.n:
        raise DimensionError(f"sequence length {xt.size} != blocklength {code.n}")
    _check_key(code, key)
    rng = np.random.default_rng(seed)
    v_seq, u_seq = _sample_aux(code, xt, rng)
    return _assemble_message(code, v_seq, u_seq, key)


def _check_key(code: BinningCode, key: tuple[int, ...]) -> None:
    widths = code.key_bit_widths()
    if len(key) != len(widths):
        raise ValueError(f"key must have {len(widths)} component(s)")
    for k, b in zip(key, widths):
        if not 0 <= k < (1 << b):
            raise ValueError("key component out of range")


def _decode_layers(
    code: BinningCode, y: np.ndarray, key: tuple[int, ...], message: Message
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Successive ML-in-bin layer decisions; returns (v_hat, u_hat, unique)."""
    # Bin membership per field, the key removed from the padded ones.
    f_v, w_v, f_u, w_u, k_u = (
        t == b for t, b in zip(code.tables, _pad(code, astuple(message), key, -1))
    )
    v_hat, ok_v = _ml_in_bin(_all_sequences(code.v_size, code.n),
                             code.log_v_y[:, y].T, f_v & w_v)               # (n, V)
    u_hat, ok_u = _ml_in_bin(_all_sequences(code.u_size, code.n),
                             code.log_u_vy[:, v_hat, y].T, f_u & w_u & k_u)  # (n, U)
    return v_hat, u_hat, bool(ok_v and ok_u)


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
    bins (the in-bin search enumerates the sequence space).
    """
    if not code.materialized:
        raise DecodeSearchError(
            "in-bin ML search needs an enumerable sequence space; "
            "use run_experiment, whose collision engine reproduces the same "
            "decoder exactly in distribution at large blocklengths"
        )
    y = np.asarray(y_seq, dtype=int)
    if y.size != code.n:
        raise DimensionError(f"sequence length {y.size} != blocklength {code.n}")
    _check_key(code, key)
    v_hat, u_hat, unique = _decode_layers(code, y, key, message)
    return code.reconstruction[u_hat, y], unique


def _ml_in_bin(
    seqs: np.ndarray, per_pos_logp: np.ndarray, in_bin: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Pick the most likely sequence among those whose bins match."""
    n = seqs.shape[1]
    candidates = np.nonzero(in_bin)[0]
    if candidates.size == 0:
        # Best effort: per-letter MAP, ignoring the bin.
        return np.argmax(per_pos_logp, axis=1), False
    cols = np.arange(n)
    ll = per_pos_logp[cols[None, :], seqs[candidates]].sum(axis=1)
    order = np.argmax(ll)
    best = ll[order]
    unique = np.count_nonzero(ll >= best - _LL_TIE_TOL) == 1 and math.isfinite(best)
    return seqs[candidates[order]], bool(unique)


# ---------------------------------------------------------------------------
# Collision engine: exact-in-distribution ML-in-bin success sampling
# ---------------------------------------------------------------------------


def log2_competitor_count(
    per_pos_logp: np.ndarray, true_seq: np.ndarray, groups: np.ndarray
) -> float:
    """log2 of the number of sequences at least as likely as the truth.

    ``per_pos_logp[g]`` is the per-symbol log-probability vector of group g
    (positions sharing the same side-information symbol form a group);
    ``groups[i]`` labels position i.  Counts by enumerating composition types
    per group, which is exact; the count includes the true sequence itself.
    The group with the most types is merged last: its log-likelihoods are
    sorted once and each type of the cross product of the other groups
    (budget-guarded) finds the qualifying ones by binary search against
    suffix log-sums of their counts, so it costs |A| log |B| rather than
    |A| |B|.
    """
    q = per_pos_logp.shape[1]
    true_ll = float(per_pos_logp[groups, true_seq].sum())
    if not math.isfinite(true_ll):
        raise ValueError("the true sequence must have positive probability")

    sizes = np.bincount(groups, minlength=per_pos_logp.shape[0])
    types = []
    for g in np.flatnonzero(sizes):
        n_g = int(sizes[g])
        comps = compositions(n_g, q)
        lp = per_pos_logp[g]
        with np.errstate(invalid="ignore"):  # 0 * -inf; such types are set to -inf below
            ll_g = np.where(comps > 0, comps * lp[None, :], 0.0).sum(axis=1)
        ll_g[np.any((comps > 0) & np.isneginf(lp)[None, :], axis=1)] = -np.inf
        log_fact = np.array([math.lgamma(k + 1) for k in range(n_g + 1)])
        logcnt_g = log_fact[n_g] - log_fact[comps].sum(axis=1)
        types.append((ll_g, logcnt_g))

    ll_last, logcnt_last = types.pop(max(range(len(types)), key=lambda i: types[i][0].size))
    lls = np.zeros(1)
    logcounts = np.zeros(1)
    for ll_g, logcnt_g in types:
        if lls.size * ll_g.size > ENUMERATION_BUDGET:
            raise BinningScaleError(
                "composition enumeration exceeds the desk-scale budget "
                "(too many side-information groups or too large an alphabet)"
            )
        lls = (lls[:, None] + ll_g[None, :]).ravel()
        logcounts = (logcounts[:, None] + logcnt_g[None, :]).ravel()

    order = np.argsort(ll_last, kind="stable")
    suffix = np.append(np.logaddexp.accumulate(logcnt_last[order][::-1])[::-1], -np.inf)
    first = np.searchsorted(ll_last[order], true_ll - _LL_TIE_TOL - lls, side="left")
    return _log2_sum_exp(logcounts + suffix[first])


def _log2_sum_exp(terms: np.ndarray) -> float:
    """log2(sum(exp(terms))) by a max-shifted sum; -inf when every term is."""
    peak = float(terms.max())
    if peak == -math.inf:
        return -math.inf
    return (peak + math.log(np.exp(terms - peak).sum())) / math.log(2.0)


def collision_free_probability(log2_count_including_truth: float, bits: int) -> float:
    """P(no competitor lands in the transmitted bin) for i.i.d. uniform bins.

    The competitor count N is the at-least-as-likely count minus the truth;
    the probability is (1 - 2^-bits)^N.
    """
    log2n = log2_count_including_truth
    if log2n <= 1e-12:
        return 1.0  # truth only
    # log2(N - 1) from log2(N)
    if log2n < 50.0:
        n_comp = 2.0**log2n - 1.0
        if n_comp <= 0.0:
            return 1.0
        log2_comp = math.log2(n_comp)
    else:
        n_comp = math.inf
        log2_comp = log2n
    if bits == 0:
        return 0.0
    r = log2_comp - bits
    if r > 40.0:
        return 0.0
    if r < -40.0:
        return 1.0
    if math.isfinite(n_comp):
        base = math.log1p(-(2.0**-bits)) if bits < 1070 else -(2.0**-bits)
        return math.exp(n_comp * base)
    # N >= 2^50: (1 - 2^-bits)^N = exp(-N 2^-bits (1 + O(2^-bits))) = exp(-2^r)
    # to double precision wherever the result is not negligible.
    return math.exp(-(2.0**r))


def _layer_success_probability(
    log_p: np.ndarray, true_seq: np.ndarray, side: tuple[np.ndarray, ...], bits: int
) -> float:
    """P(the layer decodes) for one trial of the collision engine.

    ``log_p[s, c...]`` is ln P(symbol s | side symbols c...) and ``side`` the
    side-information sequences; positions with equal side symbols form one
    group of the competitor count.  A one-symbol layer always decodes.
    """
    if log_p.shape[0] == 1:
        return 1.0
    labels, groups = np.unique(np.ravel_multi_index(side, log_p.shape[1:]), return_inverse=True)
    table = log_p.reshape(log_p.shape[0], -1)[:, labels].T  # (groups, alphabet)
    return collision_free_probability(log2_competitor_count(table, true_seq, groups), bits)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _sample_source_block(model: SourceModel, n: int, rng):
    x = _sample_categorical(np.tile(model.px.probs, (1, 1)), np.zeros(n, dtype=int), rng)
    xt = _sample_categorical(model.meas_enc.rows, x, rng)
    yz = _sample_categorical(model.meas_dec_eve.rows, x, rng)
    y, z = np.divmod(yz, model.z_size)
    return xt, x, y, z


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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if model.xtilde_size != code.p_u_given_xtilde.shape[0]:
        raise DimensionError("model Xt alphabet does not match the code")
    metric = metric if metric is not None else DistortionMetric.hamming(model.xtilde_size)

    engine = "explicit" if code.materialized else "collision"
    # The pooled type of (q, v, u, xt, x, y, z) with a one-symbol Q.
    counts = np.zeros((1, code.v_size, code.u_size, model.xtilde_size,
                       model.x_size, model.y_size, model.z_size))
    errors = 0
    distortions: list[float] = []

    for t in range(trials):
        rng = np.random.default_rng([seed, 7, t])
        xt, x, y, z = _sample_source_block(model, code.n, rng)
        key = code.draw_key(rng)
        v_seq, u_seq = _sample_aux(code, xt, rng)
        np.add.at(counts, (0, v_seq, u_seq, xt, x, y, z), 1.0)

        if engine == "explicit":
            msg = _assemble_message(code, v_seq, u_seq, key)
            v_hat, u_hat, unique = _decode_layers(code, y, key, msg)
            ok = unique and np.array_equal(v_hat, v_seq) and np.array_equal(u_hat, u_seq)
        else:
            p_v = _layer_success_probability(code.log_v_y, v_seq, (y,),
                                             code.bits.f_v + code.bits.w_v)
            ok = bool(rng.random() < p_v)
            if ok:
                p_u = _layer_success_probability(code.log_u_vy, u_seq, (v_seq, y),
                                                 code.bits.u_layer_total())
                ok = bool(rng.random() < p_u)
        if ok:
            xhat = code.reconstruction[u_seq, y]
            distortions.append(float(metric.table[xt, xhat].mean()))
        else:
            errors += 1

    # The region's leakage bounds for the regime the pad mode realizes.
    emp = JointPmf(FULL_AXES, counts / counts.sum())
    leak_s, leak_p = _leakages(emp, _PADS[code.mode][0], r_prime(emp), code.bits.k_u / code.n)
    return SimulationReport(
        n=code.n,
        trials=trials,
        error_rate=errors / trials,
        distortion=float(np.mean(distortions)) if distortions else float("nan"),
        leak_secrecy=leak_s,
        leak_privacy=leak_p,
        key_rate_used=code.key_rate_used(),
        engine=engine,
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
    its sequence.  One stable lexsort of the fields orders the triples by
    (message, sequence): a change of message starts a column, a change of
    message or sequence a cell, and each cell sums its triples.
    """
    if not code.materialized:
        raise BinningScaleError("exact enumeration needs a materialized code")
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

    # Triple (path, key) is entry path * n_keys + key of each field.
    keys = np.indices([1 << b for b in key_widths]).reshape(len(key_widths), 1, n_keys)
    fields = [np.broadcast_to(f, (row.size, n_keys)).ravel()
              for f in _message_fields(code, v_idx[:, None], u_idx[:, None], keys)]
    order = np.lexsort(fields[::-1])  # by message, then (stable) by row
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
    messages = np.stack([f[order[new_column]] for f in fields], axis=1)
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

    H(Xt^n, W) is the entropy of the cells of P(Xt^n, W) themselves.
    P(Z^n, W) and P(X^n, W) come from the cells of P(W | Xt^n) by applying
    the per-letter joints P(Xt, Z) and P(Xt, X) a few letters at a time to
    blocks of message columns, each scattered into a zeroed (|Xt|^n, width)
    array, so no |Xt|^n x |Z|^n or |Xt|^n x C table is built and the cost
    is O(n m^n C) arithmetic with m = max(|Xt|, |Z|, |X|), against
    O(|Xt|^n |Z|^n C) for the Kronecker product.  Each conditional entropy
    is a joint entropy minus n times a per-letter one.  The widest working
    array has m^n cells per column; it must not exceed
    ``LEAKAGE_CELL_LIMIT``.  The message table itself is bounded by the
    enumeration budget of ``exact_message_table``.
    """
    t = exact_message_table(code, model)
    n = code.n
    widest = max(model.xtilde_size, model.z_size, model.x_size) ** n
    if widest > LEAKAGE_CELL_LIMIT:
        raise BinningScaleError("exact leakage working arrays exceed the budget")

    p_x_xt = model.px.probs[:, None] * model.meas_enc.rows        # (X, Xt)
    p_xt_z = p_x_xt.T @ model.p_z_given_x().rows                   # (Xt, Z)

    to_z = _letter_powers(p_xt_z, n)
    to_x = _letter_powers(p_x_xt.T, n)
    h_xt_w = entropy_bits(t.p_sequence[t.row] * t.prob)
    h_z_w = h_x_w = 0.0
    n_cols = len(t.messages)
    step = max(1, _LEAKAGE_BLOCK_CELLS // widest)
    ends = np.searchsorted(t.column, np.arange(0, n_cols + step, step))
    for start, lo, hi in zip(range(0, n_cols, step), ends, ends[1:]):
        block = np.zeros((t.p_sequence.size, min(step, n_cols - start)))
        block[t.row[lo:hi], t.column[lo:hi] - start] = t.prob[lo:hi]
        h_z_w += entropy_bits(_apply_per_letter(block, to_z))
        h_x_w += entropy_bits(_apply_per_letter(block, to_x))
    h_w_given_xt = h_xt_w - n * entropy_bits(p_x_xt.sum(axis=0))
    h_w_given_z = h_z_w - n * entropy_bits(p_xt_z.sum(axis=0))
    h_w_given_x = h_x_w - n * entropy_bits(model.px.probs)
    secrecy = (h_w_given_z - h_w_given_xt) / n
    privacy = (h_w_given_z - h_w_given_x) / n
    return ExactLeakage(secrecy=max(0.0, secrecy), privacy=max(0.0, privacy))


def _letter_powers(joint: np.ndarray, n: int) -> list[np.ndarray]:
    """Kronecker powers of ``joint`` (Xt, A) covering n letters, transposed.

    Each power spans as many letters as keeps it within
    ``_LETTER_POWER_SIZE`` rows and columns: few wide steps beat n narrow
    ones, since each step is one pass over the working block.
    """
    width = max(joint.shape)
    k = 1
    while k < n and width ** (k + 1) <= _LETTER_POWER_SIZE:
        k += 1
    return [reduce(np.kron, [joint] * min(k, n - done)).T for done in range(0, n, k)]


def _apply_per_letter(block: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """sum over xt^n of prod_i joint[xt_i, a_i] * block[xt^n, c].

    ``block`` rows are indexed by the big-endian digits of xt^n.  Each power
    from ``_letter_powers`` contracts the leading digits and rotates the new
    ones to the back, so the result has axes (c, a_1, ..., a_n).
    """
    out = block
    for power in powers:
        out = (power @ out.reshape(power.shape[1], -1)).T
    return out
