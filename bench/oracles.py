"""Closed forms and brute-force enumerations that the benchmark checks
secsource against.

Nothing here imports secsource.  Every value is computed from the raw JSON
model arrays with numpy and the standard library, so a fault in the package
cannot cancel out in a check.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Discrete information measures
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_bits(table: np.ndarray) -> float:
    """Shannon entropy in bits of a (possibly multi-axis) probability table."""
    p = np.asarray(table, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _marginal_entropy(joint: np.ndarray, keep: Sequence[int]) -> float:
    drop = tuple(i for i in range(joint.ndim) if i not in set(keep))
    return entropy_bits(joint.sum(axis=drop) if drop else joint)


def mutual_information(
    joint: np.ndarray, a: Sequence[int], b: Sequence[int], c: Sequence[int] = ()
) -> float:
    """I(A;B|C) in bits; ``a``, ``b``, ``c`` are disjoint lists of axes."""
    a, b, c = list(a), list(b), list(c)
    return (
        _marginal_entropy(joint, a + c)
        + _marginal_entropy(joint, b + c)
        - _marginal_entropy(joint, a + b + c)
        - _marginal_entropy(joint, c)
    )


# ---------------------------------------------------------------------------
# Source models, read straight from the JSON file
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawModel:
    px: np.ndarray        # (X,)
    p_xt_x: np.ndarray    # (X, Xt)
    p_yz_x: np.ndarray    # (X, Y, Z)

    @property
    def p_z_x(self) -> np.ndarray:
        return self.p_yz_x.sum(axis=1)

    @property
    def p_y_x(self) -> np.ndarray:
        return self.p_yz_x.sum(axis=2)

    def source_joint(self) -> np.ndarray:
        """P(xt, x, y, z) with axes (Xt, X, Y, Z)."""
        return np.einsum("x,xa,xyz->axyz", self.px, self.p_xt_x, self.p_yz_x)


def load_model(path: Path) -> RawModel:
    data = json.loads(Path(path).read_text())
    px = np.array(data["p_x"], dtype=float)
    yz = np.array(data["p_yz_given_x"], dtype=float)
    return RawModel(
        px=px,
        p_xt_x=np.array(data["p_xtilde_given_x"], dtype=float),
        p_yz_x=yz.reshape(px.size, int(data["y_size"]), int(data["z_size"])),
    )


def crossover(model: RawModel, other: str) -> float:
    """P(Xt != Y) or P(Xt != Z) (``other`` = "Y" or "Z") for binary alphabets."""
    j = model.source_joint()
    pair = j.sum(axis=(1, 3)) if other == "Y" else j.sum(axis=(1, 2))
    return float(pair[0, 1] + pair[1, 0])


def conditional_entropy_xt_given(model: RawModel, other: str) -> float:
    """H(Xt|Y) or H(Xt|Z) of the single-letter source."""
    j = model.source_joint()
    pair = j.sum(axis=(1, 3)) if other == "Y" else j.sum(axis=(1, 2))
    return entropy_bits(pair) - entropy_bits(pair.sum(axis=0))


# ---------------------------------------------------------------------------
# Region bounds of one auxiliary scheme (the paper's single-letter formulas)
# ---------------------------------------------------------------------------

_Q, _V, _U, _XT, _X, _Y, _Z = range(7)


@dataclass(frozen=True)
class SchemeBounds:
    regime: str
    t_low: float
    t_high: float
    r_prime: float
    rw: float
    rs: float
    rl: float
    d: float


def scheme_bounds(
    model: RawModel,
    p_u_xt: np.ndarray,
    p_v_u: np.ndarray,
    p_q_v: np.ndarray,
    r0: float,
    dist: np.ndarray,
) -> SchemeBounds:
    """Storage, leakage and distortion bounds of the lossy region for one
    scheme Xt -> U -> V -> Q at key rate ``r0``, with the optimal (U, Y)
    reconstruction under the distortion table ``dist[xt, xhat]``."""
    joint = np.einsum(
        "vq,uv,au,axyz->qvuaxyz", p_q_v, p_v_u, p_u_xt, model.source_joint()
    )
    t_high = max(0.0, mutual_information(joint, [_U], [_XT], [_Y]))
    t_low = max(0.0, mutual_information(joint, [_U], [_XT], [_Y, _V]))
    r_prime = min(
        0.0,
        mutual_information(joint, [_U], [_Z], [_V, _Q])
        - mutual_information(joint, [_U], [_Y], [_V, _Q]),
    )
    p_u_xt_y = joint.sum(axis=(_Q, _V, _X, _Z))  # axes (U, Xt, Y)
    cost = np.einsum("uay,ab->uyb", p_u_xt_y, dist)
    d = float(cost.min(axis=2).sum())
    if r0 >= t_high:
        regime, rs, rl = "large_key", 0.0, 0.0
    elif r0 >= t_low:
        regime = "middle_key"
        rs = max(0.0, mutual_information(joint, [_V], [_XT], [_Z]))
        rl = max(0.0, mutual_information(joint, [_V], [_X], [_Z]))
    else:
        regime = "small_key"
        rs = max(0.0, mutual_information(joint, [_U], [_XT], [_Z]) + r_prime - r0)
        rl = max(0.0, mutual_information(joint, [_U], [_X], [_Z]) + r_prime - r0)
    return SchemeBounds(regime, t_low, t_high, r_prime, t_high, rs, rl, d)


# ---------------------------------------------------------------------------
# Wyner-Ziv rate-distortion of a doubly symmetric binary source
# ---------------------------------------------------------------------------


def _wz_f(p0: float, d: float) -> float:
    return h2(p0 * (1.0 - d) + (1.0 - p0) * d) - h2(d)


def _wz_df(p0: float, d: float) -> float:
    s = p0 * (1.0 - d) + (1.0 - p0) * d
    return (1.0 - 2.0 * p0) * math.log2((1.0 - s) / s) - math.log2((1.0 - d) / d)


def wyner_ziv_dsbs(p0: float, d: float) -> float:
    """Wyner-Ziv minimum rate in bits at Hamming distortion ``d`` when the
    decoder's side information is the source through a BSC(p0): the lower
    convex envelope of h(p0*D) - h(D) on [0, p0] and the point (p0, 0).

    The envelope follows the curve up to the point d_c where its tangent
    passes through (p0, 0) and the tangent line from there on; d_c is found
    by bisection on f(d) + f'(d) (p0 - d), which is negative near 0 and
    positive at p0.
    """
    if not 0.0 < p0 < 0.5:
        raise ValueError("p0 must lie in (0, 1/2)")
    if d <= 0.0:
        return h2(p0)
    if d >= p0:
        return 0.0
    lo, hi = 1e-15, p0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _wz_f(p0, mid) + _wz_df(p0, mid) * (p0 - mid) < 0.0:
            lo = mid
        else:
            hi = mid
    d_c = 0.5 * (lo + hi)
    if d <= d_c:
        return _wz_f(p0, d)
    return _wz_f(p0, d_c) * (p0 - d) / (p0 - d_c)


# ---------------------------------------------------------------------------
# Code-averaged ML-in-bin error of a binary Slepian-Wolf layer
# ---------------------------------------------------------------------------


def ml_in_bin_error(n: int, bits: int, p0: float) -> float:
    """Error probability of maximum-likelihood decoding within a uniformly
    random bin of ``bits`` bits, averaged over the bin assignment, for a
    binary block seen through a BSC(p0), p0 < 1/2.

    A block at Hamming distance d from the side information fails when one
    of the other sum_{j<=d} C(n, j) - 1 sequences at least as likely shares
    its bin (ties count as failures):

        sum_d C(n,d) p0^d (1-p0)^(n-d) [1 - (1 - 2^-bits)^(S(d) - 1)].
    """
    if not 0.0 < p0 < 0.5:
        raise ValueError("p0 must lie in (0, 1/2)")
    total = 0.0
    at_least_as_likely = 0
    log_fail = math.log(-math.log1p(-(2.0**-bits))) if bits > 0 else math.inf
    for d in range(n + 1):
        at_least_as_likely += math.comb(n, d)
        competitors = at_least_as_likely - 1
        log_pmf = (
            math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(n - d + 1)
            + d * math.log(p0) + (n - d) * math.log1p(-p0)
        )
        if competitors == 0:
            continue
        exponent = math.log(competitors) + log_fail
        fail = 1.0 if exponent > 700.0 else -math.expm1(-math.exp(exponent))
        total += math.exp(log_pmf) * fail
    return total


def binomial_tolerance(p: float, trials: int, sigmas: float) -> float:
    """Allowed |errors - trials * p|: ``sigmas`` binomial standard deviations
    plus one count for the discreteness of the error count."""
    return sigmas * math.sqrt(trials * p * (1.0 - p)) + 1.0


# ---------------------------------------------------------------------------
# Exact small-n leakage by enumerating a deterministic encoder
# ---------------------------------------------------------------------------


def all_blocks(q: int, n: int) -> np.ndarray:
    """All q-ary length-n blocks; row i holds the big-endian digits of i."""
    idx = np.arange(q**n)
    powers = q ** np.arange(n - 1, -1, -1)
    return (idx[:, None] // powers[None, :]) % q


def _product_law(letter: np.ndarray, n: int) -> np.ndarray:
    """P(a^n, b^n) = prod_k letter[a_k, b_k] over all block pairs."""
    rows = all_blocks(letter.shape[0], n)
    cols = all_blocks(letter.shape[1], n)
    out = np.ones((rows.shape[0], cols.shape[0]))
    for k in range(n):
        out *= letter[rows[:, k][:, None], cols[:, k][None, :]]
    return out


def leakage_by_enumeration(
    model: RawModel,
    n: int,
    message_of: Callable[[np.ndarray, tuple], Hashable],
    keys: Sequence[tuple],
) -> tuple[float, float]:
    """(I(Xt^n; W | Z^n)/n, I(X^n; W | Z^n)/n) for a message W that is a
    deterministic function of the block and a uniform key from ``keys``.

    The message law P(w | xt^n) is tabulated by calling ``message_of`` on
    every block and key, so the result depends on the encoder only through
    the messages it emits.
    """
    blocks = all_blocks(model.p_xt_x.shape[1], n)
    columns: dict = {}
    entries = []
    for i, block in enumerate(blocks):
        for key in keys:
            col = columns.setdefault(message_of(block, key), len(columns))
            entries.append((i, col))
    p_w_xt = np.zeros((blocks.shape[0], len(columns)))
    for i, col in entries:
        p_w_xt[i, col] += 1.0 / len(keys)

    p_xt_z = np.einsum("x,xa,xz->az", model.px, model.p_xt_x, model.p_z_x)
    joint_xt_z = _product_law(p_xt_z, n)
    p_xt_n = joint_xt_z.sum(axis=1)
    h_w_given_z = entropy_bits(joint_xt_z.T @ p_w_xt) - entropy_bits(joint_xt_z.sum(axis=0))
    h_rows = np.array([entropy_bits(row) for row in p_w_xt])
    h_w_given_xt = float(p_xt_n @ h_rows)

    x_law = _product_law(model.px[:, None], n)[:, 0]
    p_w_x = _product_law(model.p_xt_x, n) @ p_w_xt
    h_w_given_x = float(x_law @ np.array([entropy_bits(row) for row in p_w_x]))
    return (h_w_given_z - h_w_given_xt) / n, (h_w_given_z - h_w_given_x) / n


# ---------------------------------------------------------------------------
# Scalar Gaussian model: rates from covariance log-determinants
# ---------------------------------------------------------------------------

_G_XT, _G_U, _G_X, _G_Y, _G_Z = range(5)


def gaussian_covariance(rx: float, ry: float, rz: float, alpha: float) -> np.ndarray:
    """Covariance of (Xt, U, X, Y, Z) for Xt = U + Theta with Var U = 1 - alpha,
    X = rx Xt + noise, Y = ry X + noise, Z = rz X + noise (unit variances)."""
    a = 1.0 - alpha
    # Loadings on the independent unit-variance sources (U', Theta', Nx, Ny, Nz).
    load = np.zeros((5, 5))
    load[_G_U, 0] = math.sqrt(a)
    load[_G_XT] = load[_G_U]
    load[_G_XT, 1] = math.sqrt(alpha)
    load[_G_X] = rx * load[_G_XT]
    load[_G_X, 2] = math.sqrt(1.0 - rx**2)
    load[_G_Y] = ry * load[_G_X]
    load[_G_Y, 3] = math.sqrt(1.0 - ry**2)
    load[_G_Z] = rz * load[_G_X]
    load[_G_Z, 4] = math.sqrt(1.0 - rz**2)
    return load @ load.T


def _logdet2(cov: np.ndarray, idx: Sequence[int]) -> float:
    if not idx:
        return 0.0
    sign, logdet = np.linalg.slogdet(cov[np.ix_(list(idx), list(idx))])
    if sign <= 0:
        raise ValueError("singular covariance block")
    return logdet / math.log(2.0)


def gaussian_mi(cov: np.ndarray, a: Sequence[int], b: Sequence[int], c: Sequence[int] = ()) -> float:
    """I(A;B|C) in bits for jointly Gaussian variables."""
    a, b, c = list(a), list(b), list(c)
    return 0.5 * (
        _logdet2(cov, a + c) + _logdet2(cov, b + c) - _logdet2(cov, a + b + c) - _logdet2(cov, c)
    )


def gaussian_bounds(rx: float, ry: float, rz: float, alpha: float) -> tuple[float, float, float, float]:
    """(rw, rs, rl, d) of the no-key Gaussian boundary at auxiliary ``alpha``:
    I(U;Xt|Y), I(U;Xt|Z), I(U;X|Z) and the MMSE Var(Xt | U, Y)."""
    cov = gaussian_covariance(rx, ry, rz, alpha)
    rw = gaussian_mi(cov, [_G_U], [_G_XT], [_G_Y])
    rs = gaussian_mi(cov, [_G_U], [_G_XT], [_G_Z])
    rl = gaussian_mi(cov, [_G_U], [_G_X], [_G_Z])
    d = 2.0 ** (_logdet2(cov, [_G_XT, _G_U, _G_Y]) - _logdet2(cov, [_G_U, _G_Y]))
    return rw, rs, rl, d
