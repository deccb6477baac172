"""Structured-text (JSON) schemas for source models, auxiliary schemes, and
channel pairs, shared by the command-line front end and the test fixtures.

Model file (schema version 1)::

    {
      "schema": 1,
      "p_x": [0.5, 0.5],
      "p_xtilde_given_x": [[0.9, 0.1], [0.1, 0.9]],      # row-major, X rows
      "p_yz_given_x": [[...], ...],                       # |Y|*|Z| columns,
      "y_size": 2, "z_size": 2,                           # Y-major: col = y*|Z|+z
    }

Auxiliary file: conditional matrices ``p_u_given_xtilde`` (required) and
``p_v_given_u`` (optional; default constant) and an optional integer
``reconstruction`` map of shape (|U|, |Y|).  A ``p_q_given_v`` key is
accepted only as the constant (|V|, 1) matrix, since no bound depends on Q.
Channel-pair file: ``p_y_given_x`` and ``p_z_given_x``.  JSON floats round-trip exactly, so an
emitted model re-parses to the identical object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .probability import ModelError, Pmf, SourceModel, StochasticMatrix
from .regions import AuxScheme

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def _load(path: PathLike, what: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ModelError(f"{what} file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed {what} file {p}: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError(f"{what} file {p} must hold a JSON object")
    # JSON true and 1.0 compare equal to 1; a version is an int, and a bool is not one.
    if type(data.get("schema")) is not int or data["schema"] != SCHEMA_VERSION:
        raise ModelError(
            f"{what} file {p} has schema {data.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    return data


def _matrix(data: dict, key: str, what: str) -> StochasticMatrix:
    if key not in data:
        raise ModelError(f"{what} file is missing {key!r}")
    try:
        return StochasticMatrix(np.array(data[key], dtype=float))
    except ModelError as exc:
        raise ModelError(f"{key}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{key}: not a numeric matrix ({exc})") from exc


def parse_model(path: PathLike) -> SourceModel:
    """Parse and validate a source-model file."""
    data = _load(path, "model")
    if "p_x" not in data:
        raise ModelError("model file is missing 'p_x'")
    try:
        px = Pmf(np.array(data["p_x"], dtype=float))
    except ModelError as exc:
        raise ModelError(f"p_x: {exc}") from exc
    enc = _matrix(data, "p_xtilde_given_x", "model")
    dec = _matrix(data, "p_yz_given_x", "model")
    y_size = data.get("y_size")
    z_size = data.get("z_size")
    for key, size in (("y_size", y_size), ("z_size", z_size)):
        if type(size) is not int:  # a JSON true is a bool, not an int
            raise ModelError(f"model file needs integer 'y_size' and 'z_size', "
                             f"got {key} = {size!r}")
    return SourceModel(px=px, meas_enc=enc, meas_dec_eve=dec, y_size=y_size, z_size=z_size)


def write_model(model: SourceModel, path: PathLike) -> None:
    """Emit the canonical model file; ``parse_model`` reproduces it exactly."""
    data = {
        "schema": SCHEMA_VERSION,
        "p_x": model.px.probs.tolist(),
        "p_xtilde_given_x": model.meas_enc.rows.tolist(),
        "p_yz_given_x": model.meas_dec_eve.rows.tolist(),
        "y_size": model.y_size,
        "z_size": model.z_size,
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def parse_aux(path: PathLike) -> AuxScheme:
    """Parse an auxiliary-scheme file (missing layers default to constants)."""
    data = _load(path, "aux")
    p_u = _matrix(data, "p_u_given_xtilde", "aux")
    p_v = _matrix(data, "p_v_given_u", "aux") if "p_v_given_u" in data else None
    scheme = AuxScheme.from_channels(p_u, p_v, reconstruction=data.get("reconstruction"))
    if ("p_q_given_v" in data
            and _matrix(data, "p_q_given_v", "aux").rows.shape != (scheme.v_size, 1)):
        raise ModelError("p_q_given_v: only the constant (|V|, 1) matrix is accepted; "
                         "no bound depends on Q")
    return scheme


def parse_channel_pair(path: PathLike) -> tuple[StochasticMatrix, StochasticMatrix]:
    """Parse a decoder/eavesdropper channel pair for the ordering checks."""
    data = _load(path, "channel")
    p_y = _matrix(data, "p_y_given_x", "channel")
    p_z = _matrix(data, "p_z_given_x", "channel")
    if p_y.input_size != p_z.input_size:
        raise ModelError("channel pair must share the input alphabet")
    return p_y, p_z
