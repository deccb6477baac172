"""Finite-alphabet probability tables and the information functionals built on them.

All distributions are dense float64 arrays over small alphabets (intended
scale is at most ~16 symbols per axis, ~32 for the Gaussian quantization
bridge).  Logarithms are base 2 everywhere, so every entropy or mutual
information is in bits.  The conventions 0*log(0) = 0 and "conditioning on
a zero-probability event contributes zero" are applied throughout; they are
what make deterministic channels behave continuously.  ``compositions``
enumerates the integer types that both the simplex-grid oracle and the
collision engine's competitor count walk through.

Tolerances
----------
PMF_ATOL      normalization required of user-supplied pmfs / matrix rows
JOINT_ATOL    normalization required of (derived) joint tables

Every object is immutable after construction (arrays are copied and marked
read-only), so all functions here are pure and safe to call from parallel
workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

PMF_ATOL = 1e-12
JOINT_ATOL = 1e-10

# Canonical axis names used by the region machinery.  "Xt" is the encoder's
# measurement of the remote source X; Y and Z are the decoder's and the
# eavesdropper's measurements.
AX_V = "V"
AX_U = "U"
AX_XT = "Xt"
AX_X = "X"
AX_Y = "Y"
AX_Z = "Z"
SOURCE_AXES = (AX_XT, AX_X, AX_Y, AX_Z)


class ModelError(ValueError):
    """A probability object violates its construction contract."""


class DimensionError(ModelError):
    """Shapes or axis names are inconsistent."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.probs)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError("a pmf must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ModelError("pmf entries must be finite")
        if np.any(arr < 0.0):
            raise ModelError("pmf entries must be non-negative")
        if abs(float(arr.sum()) - 1.0) > PMF_ATOL:
            raise ModelError(f"pmf sums to {arr.sum():.17g}, not 1 within {PMF_ATOL}")
        object.__setattr__(self, "probs", arr)

    @property
    def support_size(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(n: int) -> "Pmf":
        return Pmf(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix: one conditional pmf per input symbol."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.rows)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError("a stochastic matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ModelError("channel entries must be finite")
        if np.any(arr < 0.0):
            raise ModelError("channel entries must be non-negative")
        sums = arr.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > PMF_ATOL)[0]
        if bad.size:
            raise ModelError(
                f"row {bad[0]} sums to {sums[bad[0]]:.17g}, not 1 within {PMF_ATOL}"
            )
        object.__setattr__(self, "rows", arr)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def identity(n: int) -> "StochasticMatrix":
        return StochasticMatrix(np.eye(n))

    @staticmethod
    def constant(input_size: int, output_size: int = 1) -> "StochasticMatrix":
        """Channel whose output is independent of the input (uniform rows)."""
        return StochasticMatrix(np.full((input_size, output_size), 1.0 / output_size))


def bsc(crossover: float) -> StochasticMatrix:
    """Binary symmetric channel with the given crossover probability."""
    if not 0.0 <= crossover <= 1.0:
        raise ModelError("crossover must lie in [0, 1]")
    e = float(crossover)
    return StochasticMatrix(np.array([[1.0 - e, e], [e, 1.0 - e]]))


@dataclass(frozen=True)
class SourceModel:
    """Remote source plus its three measurement channels.

    ``px`` is the law of the remote source X, ``meas_enc`` the encoder
    measurement channel X -> Xt, and ``meas_dec_eve`` the joint channel
    X -> (Y, Z) over the product alphabet with Y-major column ordering
    (column index = y * z_size + z).
    """

    px: Pmf
    meas_enc: StochasticMatrix
    meas_dec_eve: StochasticMatrix
    y_size: int
    z_size: int

    def __post_init__(self):
        n = self.px.support_size
        if self.meas_enc.input_size != n or self.meas_dec_eve.input_size != n:
            raise DimensionError("channel input sizes must match |X|")
        if self.y_size < 1 or self.z_size < 1:
            raise DimensionError("y_size and z_size must be positive")
        if self.meas_dec_eve.output_size != self.y_size * self.z_size:
            raise DimensionError(
                "decoder/eavesdropper channel must have |Y|*|Z| output columns"
            )

    @property
    def x_size(self) -> int:
        return self.px.support_size

    @property
    def xtilde_size(self) -> int:
        return self.meas_enc.output_size

    def yz_table(self) -> np.ndarray:
        """meas_dec_eve reshaped to (|X|, |Y|, |Z|)."""
        return self.meas_dec_eve.rows.reshape(self.x_size, self.y_size, self.z_size)

    def p_y_given_x(self) -> StochasticMatrix:
        return StochasticMatrix(self.yz_table().sum(axis=2))

    def p_z_given_x(self) -> StochasticMatrix:
        return StochasticMatrix(self.yz_table().sum(axis=1))

    @staticmethod
    def from_channels(
        px: Pmf,
        p_xtilde_given_x: StochasticMatrix,
        p_y_given_x: StochasticMatrix,
        p_z_given_x: StochasticMatrix,
    ) -> "SourceModel":
        """Build a model where Y and Z are conditionally independent given X."""
        ny, nz = p_y_given_x.output_size, p_z_given_x.output_size
        prod = np.einsum("xy,xz->xyz", p_y_given_x.rows, p_z_given_x.rows)
        return SourceModel(
            px=px,
            meas_enc=p_xtilde_given_x,
            meas_dec_eve=StochasticMatrix(prod.reshape(px.support_size, ny * nz)),
            y_size=ny,
            z_size=nz,
        )


@dataclass(frozen=True)
class JointPmf:
    """Dense joint distribution over named finite random variables."""

    names: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        arr = _frozen_array(self.table)
        if len(set(names)) != len(names):
            raise DimensionError("axis names must be unique")
        if arr.ndim != len(names):
            raise DimensionError("table rank must equal the number of axes")
        if not np.all(np.isfinite(arr)):
            raise ModelError("joint table entries must be finite")
        if np.any(arr < -PMF_ATOL):
            raise ModelError("joint table has a negative entry")
        if abs(float(arr.sum()) - 1.0) > JOINT_ATOL:
            raise ModelError(
                f"joint table sums to {arr.sum():.17g}, not 1 within {JOINT_ATOL}"
            )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", arr)

    def size_of(self, name: str) -> int:
        return self.table.shape[self._axis(name)]

    def _axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DimensionError(f"unknown variable name {name!r}") from None

    def marginal_table(self, keep: Sequence[str]) -> np.ndarray:
        """Marginal on ``keep`` as a bare array, axes in the order of ``keep``.

        The axes not kept are summed out in this joint's order; the result is
        a transposed view of that sum when ``keep`` lists its names in
        another order.
        """
        axes = [self._axis(name) for name in keep]
        if len(set(axes)) != len(axes):
            raise DimensionError(f"repeated variable name in {tuple(keep)}")
        drop = tuple(i for i in range(len(self.names)) if i not in axes)
        m = self.table.sum(axis=drop) if drop else self.table
        return np.transpose(m, np.argsort(np.argsort(axes)))

    def entropy(self, variables: Optional[Iterable[str]] = None) -> float:
        """Shannon entropy in bits of the marginal on ``variables``."""
        # Summed in this joint's axis order whatever the order of the names.
        names = self.names if variables is None else sorted(variables, key=self._axis)
        return entropy_bits(self.marginal_table(names))

    def mutual_information(
        self,
        a: Iterable[str],
        b: Iterable[str],
        given: Iterable[str] = (),
    ) -> float:
        """I(A;B|C) in bits, clamped to 0 when within tolerance below zero."""
        a, b, c = tuple(a), tuple(b), tuple(given)
        groups = a + b + c
        if len(set(groups)) != len(groups):
            raise DimensionError("variable sets passed to I(A;B|C) must be disjoint")
        for name in groups:
            self._axis(name)
        value = (
            self.entropy(a + c)
            + self.entropy(b + c)
            - self.entropy(a + b + c)
            - self.entropy(c)
        )
        return 0.0 if -JOINT_ATOL < value < 0.0 else value


def entropy_bits(table: np.ndarray, axis: Optional[int] = None):
    """Shannon entropy in bits of a probability table.

    With ``axis`` given, the entropies of the slices along that axis are
    returned instead (for example one per row of a conditional table).
    """
    p = np.asarray(table, dtype=float)
    if axis is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(p > 0.0, p * np.log2(p), 0.0).sum(axis=axis)
    p = p.ravel()
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


@lru_cache(maxsize=512)
def compositions(total: int, parts: int) -> np.ndarray:
    """All ``parts``-tuples of non-negative integers summing to ``total``.

    Rows are in lexicographic order (stars and bars: bar positions from
    ``itertools.combinations``).  Cached, so the array is read-only.
    """
    width = parts - 1
    rows = math.comb(total + width, width)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(total + width), width)),
        dtype=np.int64,
        count=rows * width,
    ).reshape(rows, width)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), total + width)])
    comps = np.diff(edges, axis=1) - 1
    comps.flags.writeable = False
    return comps


def build_joint(model: SourceModel) -> JointPmf:
    """Joint law of (Xt, X, Y, Z): P(x)P(xt|x)P(y,z|x).

    The chain Xt - X - (Y, Z) holds by construction.
    """
    table = np.einsum(
        "x,xa,xyz->axyz", model.px.probs, model.meas_enc.rows, model.yz_table()
    )
    return JointPmf(SOURCE_AXES, table)

