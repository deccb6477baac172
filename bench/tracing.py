"""Span recording from outside the package.

``Tracer.patched`` replaces module attributes of secsource's public
functions with timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  Calls between functions inside a module go
through the same attributes, so internal calls are recorded too.  Spans are
kept in memory (name, start, end, parent) and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

# (module, attribute owner inside the module or None, attribute, span name)
LAYER_TARGETS = (
    ("secsource.regions", None, "trace_region", "regions.trace_region"),
    ("secsource.regions", None, "lossy_point", "regions.lossy_point"),
    ("secsource.regions", None, "extend_with_auxiliaries", "regions.extend_with_auxiliaries"),
    ("secsource.regions", None, "grid_minimum_storage", "regions.grid_minimum_storage"),
    ("secsource.probability", "JointPmf", "mutual_information", "probability.mutual_information"),
    ("secsource.binning", None, "design_code", "binning.design_code"),
    ("secsource.binning", None, "run_experiment", "binning.run_experiment"),
    ("secsource.binning", None, "log2_competitor_count", "binning.log2_competitor_count"),
    ("secsource.binning", None, "encode", "binning.encode"),
    ("secsource.binning", None, "decode", "binning.decode"),
    ("secsource.binning", None, "exact_message_table", "binning.exact_message_table"),
    ("secsource.binning", None, "exact_leakage", "binning.exact_leakage"),
    ("secsource.binning", None, "padded_indices_mutual_information",
     "binning.padded_indices_mutual_information"),
    ("secsource.gaussian", None, "gaussian_mmse_check", "gaussian.gaussian_mmse_check"),
    ("secsource.channels", None, "check_stochastic_degraded", "channels.check_stochastic_degraded"),
    ("secsource.channels", None, "less_noisy_falsify", "channels.less_noisy_falsify"),
    ("secsource.modelio", None, "parse_model", "modelio.parse_model"),
)


class Tracer:
    """In-memory span log.  ``recording`` is True only inside ``patched``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.recording = False

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span, or nothing when not recording."""
        return self._span(name) if self.recording else nullcontext()

    @contextmanager
    def _span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def patched(self):
        """Record spans for every function in ``LAYER_TARGETS`` inside the block.

        A function the package no longer has is skipped; its metrics read 0.
        """
        saved = []
        for module_name, owner_name, attr, span_name in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def extend(self, other: dict) -> None:
        """Append spans loaded from another process's dump."""
        offset = len(self.names)
        self.names.extend(other["names"])
        self.starts.extend(other["starts"])
        self.ends.extend(other["ends"])
        self.parents.extend(p + offset if p >= 0 else -1 for p in other["parents"])

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents}, fh)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) time and self time in
        seconds.  Self time is a span's duration minus that of its children."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += float(dur[i])
            entry["self_s"] += float(own[i])
        return out


def load(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
