"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs one round of a fixed list
of operations per call of ``round``, checks every output it collected against
``oracles`` (computed apart from secsource) and derives its per-layer
metrics from the spans of the traced rounds.  One operation is one call into
secsource's API, or one ``python -m secsource`` process for cli_readme.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import tracing
from secsource import binning, modelio, regions
from secsource.probability import build_joint
from tracing import Tracer

MODEL = "demos/models/binary_instance.json"
AUX = "demos/models/aux_identity.json"
TARGETS = (0.05, 0.10, 0.15)
# The README's compute-region seed.  The search's cost swings from 1.1 s to
# 9.7 s for the same sweep across search seeds (and as much under a 0.002
# shift of the targets), so the search inputs stay fixed and timings stay
# comparable between runs with different workload seeds.
SEARCH_SEED = 7
TOL = 1e-9       # agreement of bounds, distortion and rates with the oracles
SIGMAS = 5.0     # binomial tolerance of simulated error rates
HAMMING2 = np.ones((2, 2)) - np.eye(2)


class Workload:
    """Shared bookkeeping: operation counts, op timings and check failures."""

    name = ""
    # Code that ``python -c`` runs to time set-up; None means ``setup_code``.
    setup_snippet: str | None = None

    def __init__(self, root: Path, seed: int, out: Path, tracer: Tracer):
        self.root, self.seed, self.out, self.tracer = root, seed, out, tracer
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_seconds: dict[str, float] = {}

    def setup_code(self) -> str:
        return (
            "import sys; sys.path[:0] = ['src', 'bench']\n"
            "import workloads\n"
            f"workloads.WORKLOADS[{self.name!r}](workloads.Path('.'), {self.seed}, "
            "workloads.Path('bench/out'), workloads.Tracer()).setup()\n"
        )

    def op(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation; an exception counts it as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer.span("op." + label):
                return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.op_seconds[label] = self.op_seconds.get(label, 0.0) + time.perf_counter() - start

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, traced: bool) -> None:
        raise NotImplementedError

    def run_checks(self) -> None:
        raise NotImplementedError

    def info(self, rounds: int) -> dict[str, float]:
        """Throughputs of the workload's parts, printed beside the metrics."""
        raise NotImplementedError

    def layer_metrics(self, spans: dict, setup_spans: dict, traced_rounds: int) -> dict[str, float]:
        raise NotImplementedError


def _per_call(spans: dict, name: str, scale: float) -> float:
    s = spans.get(name)
    return s["total_s"] / s["calls"] * scale if s else 0.0


def _calls_per_round(spans: dict, name: str, rounds: int) -> float:
    s = spans.get(name)
    return s["calls"] / rounds if s else 0.0


def _total(spans: dict, name: str, key: str = "total_s") -> float:
    s = spans.get(name)
    return s[key] if s else 0.0


def _shared_layers(spans: dict, setup_spans: dict, rounds: int) -> dict[str, float]:
    """Layer metrics of the functions every in-process workload reaches."""
    return {
        "regions.lossy_point.calls": _calls_per_round(spans, "regions.lossy_point", rounds),
        "regions.lossy_point.us_per_call": _per_call(spans, "regions.lossy_point", 1e6),
        "regions.extend_with_auxiliaries.calls":
            _calls_per_round(spans, "regions.extend_with_auxiliaries", rounds),
        "regions.extend_with_auxiliaries.us_per_call":
            _per_call(spans, "regions.extend_with_auxiliaries", 1e6),
        "probability.mutual_information.calls":
            _calls_per_round(spans, "probability.mutual_information", rounds),
        "probability.mutual_information.us_per_call":
            _per_call(spans, "probability.mutual_information", 1e6),
        "modelio.parse_model.ms": _per_call(setup_spans, "modelio.parse_model", 1e3),
    }


def _check_point(w: Workload, raw, r0: float, target: float, point, label: str) -> None:
    """Distortion target met and every bound equal to the oracle's."""
    rates, report, scheme = point.rates, point.report, point.scheme
    w.check(rates.d <= target + TOL, f"{label}: d={rates.d} above target {target}")
    want = oracles.scheme_bounds(
        raw, scheme.p_u_given_xtilde.rows, scheme.p_v_given_u.rows,
        scheme.p_q_given_v.rows, r0, HAMMING2,
    )
    w.check(report.regime == want.regime, f"{label}: regime {report.regime} != {want.regime}")
    for field, got, exp in (
        ("rw", rates.rw, want.rw), ("rs", rates.rs, want.rs), ("rl", rates.rl, want.rl),
        ("d", rates.d, want.d), ("threshold_low", report.threshold_low, want.t_low),
        ("threshold_high", report.threshold_high, want.t_high),
        ("r_prime", report.r_prime, want.r_prime),
    ):
        w.check(abs(got - exp) <= TOL, f"{label}: {field}={got} but oracle gives {exp}")


class _Search(Workload):
    def setup(self) -> None:
        self.model = modelio.parse_model(self.root / MODEL)
        build_joint(self.model)  # part of the set-up that setup_s times
        self.metric = regions.DistortionMetric.hamming(self.model.xtilde_size)
        self.raw = oracles.load_model(self.root / MODEL)
        self.outputs: list[tuple[str, float, tuple, list | None]] = []


class RwBoundary(_Search):
    """Storage-objective search: |U|=3 and default-cardinality sweeps plus one
    grid-oracle target.  The seed draws the key rate r0, which the rw search
    does not see but which selects the regime of the reported leakages."""

    name = "rw_boundary"

    def setup(self) -> None:
        super().setup()
        self.r0 = float(self.rng.uniform(0.0, 0.6))
        self.p0 = oracles.crossover(self.raw, "Y")
        u3 = dict(u_size=3, v_size=1, q_size=1)
        self.sweeps = (
            ("rw.u3", regions.SearchConfig(restarts=8, seed=SEARCH_SEED, **u3), TARGETS),
            ("rw.udefault", regions.SearchConfig(restarts=8, seed=SEARCH_SEED), TARGETS),
            ("rw.grid", regions.SearchConfig(seed=SEARCH_SEED, method="grid", **u3), (0.15,)),
        )

    def round(self, index: int, traced: bool) -> None:
        for label, cfg, targets in self.sweeps:
            points = self.op(label, regions.trace_region, self.model, self.r0,
                             self.metric, list(targets), cfg)
            self.outputs.append((label, self.r0, targets, points))

    def rw_gaps(self) -> dict[str, float]:
        gaps: dict[str, float] = {}
        for label, _, targets, points in self.outputs:
            for target, p in zip(targets, points or ()):
                gap = p.rates.rw - oracles.wyner_ziv_dsbs(self.p0, target)
                gaps[label] = max(gaps.get(label, -math.inf), gap)
        return gaps

    def run_checks(self) -> None:
        first: dict[str, list[float]] = {}
        for label, r0, targets, points in self.outputs:
            if points is None:
                continue
            self.check(len(points) == len(targets), f"{label}: {len(points)} points")
            previous = math.inf
            for target, p in zip(targets, points):
                _check_point(self, self.raw, r0, target, p, f"{label} D={target}")
                wz = oracles.wyner_ziv_dsbs(self.p0, target)
                self.check(p.rates.rw >= wz - TOL,
                           f"{label} D={target}: rw={p.rates.rw} below Wyner-Ziv {wz}")
                self.check(p.rates.rw <= previous + 1e-12,
                           f"{label}: rw rises from {previous} to {p.rates.rw} at D={target}")
                previous = p.rates.rw
            rws = [p.rates.rw for p in points]
            self.check(first.setdefault(label, rws) == rws,
                       f"{label}: rounds disagree ({first[label]} vs {rws})")

    def info(self, rounds: int) -> dict[str, float]:
        busy = sum(self.op_seconds.values())
        points = rounds * sum(len(t) for _, _, t in self.sweeps)
        return {"boundary_points_per_s": points / busy if busy else 0.0, "r0": self.r0}

    def layer_metrics(self, spans, setup_spans, rounds):
        gaps = self.rw_gaps()
        return {
            "regions.trace_region.s_per_target.u3": _total(spans, "op.rw.u3") / (3 * rounds),
            "regions.trace_region.s_per_target.udefault":
                _total(spans, "op.rw.udefault") / (3 * rounds),
            "regions.grid_minimum_storage.s": _per_call(spans, "regions.grid_minimum_storage", 1.0),
            "regions.rw_gap_bits.u3": gaps.get("rw.u3", 0.0),
            "regions.rw_gap_bits.udefault": gaps.get("rw.udefault", 0.0),
            **_shared_layers(spans, setup_spans, rounds),
        }


class LeakageBoundary(_Search):
    """Generic-objective search at (|U|,|V|,|Q|) = (3,2,2), one restart:
    minimum secrecy leakage at r0 = 0 and minimum privacy leakage at
    r0 = 0.1, both at D = 0.10.  The seed only orders the two searches."""

    name = "leakage_boundary"
    TARGET = 0.10

    def setup(self) -> None:
        super().setup()
        searches = [
            ("generic.rs", 0.0, regions.SearchConfig(
                restarts=1, seed=SEARCH_SEED, u_size=3, v_size=2, q_size=2, objective="rs")),
            ("generic.rl", 0.1, regions.SearchConfig(
                restarts=1, seed=SEARCH_SEED, u_size=3, v_size=2, q_size=2, objective="rl")),
        ]
        self.searches = [searches[i] for i in self.rng.permutation(len(searches))]

    def round(self, index: int, traced: bool) -> None:
        for label, r0, cfg in self.searches:
            points = self.op(label, regions.trace_region, self.model, r0, self.metric,
                             [self.TARGET], cfg)
            self.outputs.append((label, r0, (self.TARGET,), points))

    def run_checks(self) -> None:
        for label, r0, targets, points in self.outputs:
            if points is None:
                continue
            self.check(len(points) == 1, f"{label}: {len(points)} points")
            for target, p in zip(targets, points):
                _check_point(self, self.raw, r0, target, p, f"{label} D={target}")

    def info(self, rounds: int) -> dict[str, float]:
        busy = sum(self.op_seconds.values())
        return {"boundary_points_per_s": rounds * len(self.searches) / busy if busy else 0.0}

    def layer_metrics(self, spans, setup_spans, rounds):
        generic = _total(spans, "op.generic.rs") + _total(spans, "op.generic.rl")
        return {
            "regions.trace_region.s_per_target.generic": generic / (len(self.searches) * rounds),
            **_shared_layers(spans, setup_spans, rounds),
        }


class Codec(Workload):
    """Random-binning codec on the binary instance with U = Xt.

    The U-layer bin rate is RATE bits/symbol, a little above H(Xt|Y) = 0.8267,
    so that the collision engine counts real competitors and errs at a
    measurable rate (about 19 % at n=400, 11 % at n=1000, 22 % at n=12).
    """

    name = "codec"
    RATE = 0.8475
    COLLISION = ((400, 100), (1000, 60))  # (n, trials per round)
    EXPLICIT = (12, 400)
    DECODE_SAMPLE = 20                     # blocks per round checked by brute force
    EXACT = ((10, 0.03), (12, 0.03))       # (n, epsilon) at key rate 0
    # Fully padded regime.  The budget admits n = 11 at epsilon = 0.01, but its
    # enumeration alone takes about 25 s; n = 8 keeps a round near 6 s.
    PADDED = (8, 0.01, 3.0)                # (n, epsilon, r0)

    def setup(self) -> None:
        self.model = modelio.parse_model(self.root / MODEL)
        aux = modelio.parse_aux(self.root / AUX)
        full = regions.extend_with_vu(build_joint(self.model), aux)
        self.raw = oracles.load_model(self.root / MODEL)
        self.code_seed = int(self.rng.integers(1 << 31))
        self.trial_seed = int(self.rng.integers(1 << 31))

        def sw_code(n):
            rates = binning.BinningRates(0.0, 0.0, 0.0, self.bits(n) / n, 0.0)
            return binning.design_code(full, n=n, epsilon=0.15, r0=0.0,
                                       seed=self.code_seed, rate_override=rates)

        self.collision = [(n, trials, sw_code(n)) for n, trials in self.COLLISION]
        self.explicit = sw_code(self.EXPLICIT[0])
        self.exact = [
            (n, binning.design_code(full, n=n, epsilon=eps, r0=0.0, seed=self.code_seed))
            for n, eps in self.EXACT
        ]
        n, eps, r0 = self.PADDED
        self.padded = binning.design_code(full, n=n, epsilon=eps, r0=r0, seed=self.code_seed)
        self.reports: list[tuple[int, int, object]] = []
        self.decodes: list[tuple] = []
        self.leakages: list[tuple[str, object, object]] = []

    def bits(self, n: int) -> int:
        return math.ceil(n * self.RATE - 1e-9)

    def _block(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raw = self.raw
        x = rng.choice(raw.px.size, size=n, p=raw.px)
        xt = np.array([rng.choice(raw.p_xt_x.shape[1], p=raw.p_xt_x[s]) for s in x])
        y = np.array([rng.choice(raw.p_y_x.shape[1], p=raw.p_y_x[s]) for s in x])
        return xt, y

    def round(self, index: int, traced: bool) -> None:
        for n, trials, code in self.collision:
            rep = self.op(f"collision.n{n}", binning.run_experiment, code, self.model, trials,
                          seed=self.trial_seed + index)
            self.reports.append((n, trials, rep))
        n, trials = self.EXPLICIT
        rep = self.op(f"explicit.n{n}", binning.run_experiment, self.explicit, self.model,
                      trials, seed=self.trial_seed + index)
        self.reports.append((n, trials, rep))

        rng = np.random.default_rng([self.seed, index])
        widths = self.explicit.key_bit_widths()
        for _ in range(self.DECODE_SAMPLE):
            xt, y = self._block(n, rng)
            key = tuple(int(rng.integers(1 << b)) for b in widths)
            msg = self.op("encode", binning.encode, self.explicit, xt, key,
                          seed=int(rng.integers(1 << 31)))
            if msg is not None:
                out = self.op("decode", binning.decode, self.explicit, y, key, msg)
                self.decodes.append((xt, y, key, msg, out))

        for n, code in self.exact:
            leak = self.op(f"exact.n{n}", binning.exact_leakage, code, self.model)
            self.leakages.append((f"exact.n{n}", code, leak))
        leak = self.op("padded.exact", binning.exact_leakage, self.padded, self.model)
        self.leakages.append(("padded.exact", self.padded, leak))
        mi = self.op("padded.indices", binning.padded_indices_mutual_information,
                     self.padded, self.model)
        self.leakages.append(("padded.indices", self.padded, mi))

    def error_z(self) -> dict[int, tuple[int, int, float]]:
        """Per collision blocklength: (errors, trials, z against the oracle)."""
        p0 = oracles.crossover(self.raw, "Y")
        pooled: dict[int, list[int]] = {}
        for n, trials, rep in self.reports:
            if rep is not None and rep.engine == "collision":
                errors, total = pooled.setdefault(n, [0, 0])
                pooled[n] = [errors + round(rep.error_rate * trials), total + trials]
        out = {}
        for n, (errors, total) in pooled.items():
            p = oracles.ml_in_bin_error(n, self.bits(n), p0)
            out[n] = (errors, total, (errors - total * p) / math.sqrt(total * p * (1 - p)))
        return out

    def run_checks(self) -> None:
        p0 = oracles.crossover(self.raw, "Y")
        collision_n = {n for n, _ in self.COLLISION}
        for n, trials, rep in self.reports:
            if rep is None:
                continue
            want = "collision" if n in collision_n else "explicit"
            self.check(rep.engine == want, f"n={n}: engine {rep.engine}, expected {want}")
            self.check(rep.distortion == 0.0 or (math.isnan(rep.distortion) and rep.error_rate == 1.0),
                       f"n={n}: identity scheme decoded with distortion {rep.distortion}")
        for n, _, code in self.collision:
            self.check(code.bits.u_layer_total() == self.bits(n),
                       f"n={n}: {code.bits.u_layer_total()} U-layer bits, expected {self.bits(n)}")
        for n, (errors, total, _) in self.error_z().items():
            p = oracles.ml_in_bin_error(n, self.bits(n), p0)
            tol = oracles.binomial_tolerance(p, total, SIGMAS)
            self.check(abs(errors - total * p) <= tol,
                       f"n={n}: {errors}/{total} errors, code-averaged ML-in-bin error {p:.4f}")
        self._check_decodes()
        self._check_leakages()

    def _check_decodes(self) -> None:
        code = self.explicit
        self.check(code.mode == "key_slot" and code.v_size == 1 and code.materialized,
                   "explicit code is not a materialized single-layer key-slot code")
        blocks = oracles.all_blocks(2, code.n)
        log_p = np.log(self.raw.source_joint().sum(axis=(1, 3)))  # P(xt, y)
        f_u, w_u, k_u = code.tables[2], code.tables[3], code.tables[4]
        for xt, y, key, msg, out in self.decodes:
            if out is None:
                continue
            xhat, unique = out
            slot = (msg.key_slot - key[0]) % (1 << code.bits.k_u) if code.bits.k_u else 0
            members = np.nonzero((f_u == msg.f_u) & (w_u == msg.w_u) & (k_u == slot))[0]
            ll = log_p[blocks[members], y[None, :]].sum(axis=1)
            best = ll.max()
            want_unique = int(np.count_nonzero(ll >= best - 1e-9)) == 1
            self.check(bool(unique) == want_unique,
                       f"decode uniqueness {unique}, brute force {want_unique}")
            if want_unique:
                self.check(np.array_equal(xhat, blocks[members[np.argmax(ll)]]),
                           "decode differs from the brute-force ML-in-bin sequence")

    def _check_leakages(self) -> None:
        h_xt_z = oracles.conditional_entropy_xt_given(self.raw, "Z")
        for label, code, result in self.leakages:
            if result is None:
                continue
            if label == "padded.indices":
                mi, p_pad = result
                self.check(code.mode == "pad_all", f"{label}: mode {code.mode}")
                size = 1 << (code.bits.w_v + code.bits.w_u)
                self.check(abs(mi) <= 1e-12, f"{label}: I(Xt^n; padded indices) = {mi}")
                self.check(p_pad.size == size and np.abs(p_pad - 1.0 / size).max() <= 1e-12,
                           f"{label}: padded-index marginal is not flat over {size} values")
                continue
            s, p = result.secrecy, result.privacy
            if label == "padded.exact":
                self.check(s <= 1e-12 and p <= 1e-12, f"{label}: leakage ({s}, {p}) is not 0")
                continue
            self.check(0.0 <= p <= s + TOL and s <= h_xt_z + TOL,
                       f"{label}: leakage ({s}, {p}) violates 0 <= privacy <= secrecy <= H(Xt|Z)")
        # One enumeration through encode per run: the exact law does not
        # change between rounds.
        n10 = [(code, leak) for label, code, leak in self.leakages
               if label == "exact.n10" and leak is not None]
        if not n10:
            return
        code, leak = n10[0]
        keys = [tuple(k) for k in np.ndindex(*[1 << b for b in code.key_bit_widths()])]
        want_s, want_p = oracles.leakage_by_enumeration(
            self.raw, code.n,
            lambda block, key: binning.encode(code, block, key, seed=0), keys)
        self.check(abs(leak.secrecy - want_s) <= TOL and abs(leak.privacy - want_p) <= TOL,
                   f"exact.n10: ({leak.secrecy}, {leak.privacy}) but enumeration through "
                   f"encode gives ({want_s}, {want_p})")

    def info(self, rounds: int) -> dict[str, float]:
        sec = self.op_seconds
        collision_s = sum(sec.get(f"collision.n{n}", 0.0) for n, _ in self.COLLISION)
        exact_s = sum(sec.get(f"exact.n{n}", 0.0) for n, _ in self.EXACT)
        exact_s += sec.get("padded.exact", 0.0)
        explicit_s = sec.get(f"explicit.n{self.EXPLICIT[0]}", 0.0)
        trials = sum(t for _, t in self.COLLISION)
        return {
            "collision_trials_per_s": rounds * trials / collision_s if collision_s else 0.0,
            "explicit_trials_per_s": rounds * self.EXPLICIT[1] / explicit_s if explicit_s else 0.0,
            "exact_leakage_s": exact_s / rounds,
        }

    def layer_metrics(self, spans, setup_spans, rounds):
        trials = sum(t for _, t in self.COLLISION)
        collision_s = sum(_total(spans, f"op.collision.n{n}") for n, _ in self.COLLISION)
        zs = [abs(z) for _, _, z in self.error_z().values()]
        return {
            "binning.log2_competitor_count.calls":
                _calls_per_round(spans, "binning.log2_competitor_count", rounds),
            "binning.log2_competitor_count.ms_per_call":
                _per_call(spans, "binning.log2_competitor_count", 1e3),
            "binning.collision.ms_per_trial": collision_s / (trials * rounds) * 1e3,
            "binning.explicit.ms_per_trial":
                _total(spans, f"op.explicit.n{self.EXPLICIT[0]}") / (self.EXPLICIT[1] * rounds) * 1e3,
            "binning.exact_message_table.s":
                _total(spans, "binning.exact_message_table") / rounds,
            "binning.exact_leakage.self_s":
                _total(spans, "binning.exact_leakage", "self_s") / rounds,
            "binning.exact_leakage.s.n10": _total(spans, "op.exact.n10") / rounds,
            "binning.exact_leakage.s.n12": _total(spans, "op.exact.n12") / rounds,
            "binning.design_code.ms": _per_call(setup_spans, "binning.design_code", 1e3),
            "binning.error_rate_z": max(zs) if zs else 0.0,
            **_shared_layers(spans, setup_spans, rounds),
        }


REGION_HEADER = ["d", "rw_bits", "rs_bits", "rl_bits", "regime"]
GAUSSIAN_HEADER = ["alpha", "rw_bits", "rs_bits", "rl_bits", "d"]
SIMULATE_HEADER = ["n", "error_rate", "distortion", "leak_secrecy_bits", "leak_privacy_bits"]
_MMSE = re.compile(r"alpha=([0-9.eE+-]+): empirical=([0-9.]+) analytic=([0-9.]+)")


class CliReadme(Workload):
    """The README commands at their README sizes, one fresh process each."""

    name = "cli_readme"
    setup_snippet = "import secsource"
    RHO = (0.9, 0.8, 0.95)
    ALPHAS = (0.25, 0.5, 0.75)
    SAMPLES = 100_000
    SIM_N, SIM_TRIALS, SIM_EPS = 400, 200, 0.15

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.raw = oracles.load_model(self.root / MODEL)
        # A degraded pair: Y is Z passed through a further BSC.
        a, b = self.rng.uniform(0.05, 0.2, size=2)
        self.p_z = np.array([[1 - a, a], [a, 1 - a]])
        self.p_y = self.p_z @ np.array([[1 - b, b], [b, 1 - b]])
        pair = self.out / "pair.json"
        pair.write_text(json.dumps(
            {"schema": 1, "p_y_given_x": self.p_y.tolist(), "p_z_given_x": self.p_z.tolist()}))
        gauss_seed, sim_seed, channel_seed = (str(s) for s in self.rng.integers(1 << 31, size=3))
        rel = self.out.relative_to(self.root) if self.out.is_absolute() else self.out
        self.csv = {k: rel / f"{k}.csv" for k in ("region", "lossless", "gaussian", "sim")}
        self.commands = (
            ("compute_region", ["compute-region", "--model", MODEL, "--targets", "0.05,0.1,0.15",
                                "--u-size", "3", "--v-size", "1", "--q-size", "1", "--r0", "0",
                                "--seed", str(SEARCH_SEED), "--output", str(self.csv["region"])]),
            ("lossless_region", ["lossless-region", "--model", MODEL, "--r0", "0",
                                 "--output", str(self.csv["lossless"])]),
            ("gaussian", ["gaussian", "--rho-x", str(self.RHO[0]), "--rho-y", str(self.RHO[1]),
                          "--rho-z", str(self.RHO[2]), "--alphas", ",".join(map(str, self.ALPHAS)),
                          "--samples", str(self.SAMPLES), "--seed", gauss_seed,
                          "--output", str(self.csv["gaussian"])]),
            ("simulate", ["simulate", "--model", MODEL, "--aux", AUX, "--n", str(self.SIM_N),
                          "--epsilon", str(self.SIM_EPS), "--r0", "0",
                          "--trials", str(self.SIM_TRIALS), "--seed", sim_seed,
                          "--output", str(self.csv["sim"])]),
            ("check_channel.model", ["check-channel", "--model", MODEL, "--seed", channel_seed]),
            ("check_channel.pair", ["check-channel", "--channels", str(rel / "pair.json"),
                                    "--seed", channel_seed]),
        )
        self.csv_of = {"compute_region": "region", "lossless_region": "lossless",
                       "gaussian": "gaussian", "simulate": "sim"}
        self.results: list[tuple[str, str, str | None]] = []  # (label, stdout, csv text)
        self.call_seconds: dict[str, list[float]] = {}

    def _run(self, label: str, argv: list[str], traced: bool) -> str:
        spans = self.out / "spans.json.gz"
        if traced:
            cmd = [sys.executable, "bench/cli_shim.py", str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "secsource", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True)
        if not traced:
            self.call_seconds.setdefault(label, []).append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:1])} exited {proc.returncode}: {proc.stderr}")
        if traced:
            self.tracer.extend(tracing.load(spans))
            spans.unlink()
        return proc.stdout

    def round(self, index: int, traced: bool) -> None:
        for label, argv in self.commands:
            stdout = self.op(label, self._run, label, argv, traced)
            if stdout is None:
                continue
            key = self.csv_of.get(label)
            text = (self.root / self.csv[key]).read_text() if key else None
            self.results.append((label, stdout, text))

    def _rows(self, text: str, header: list[str], label: str) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(text)))
        self.check(bool(rows) and rows[0] == header, f"{label}: CSV header {rows[:1]}")
        return rows[1:]

    def run_checks(self) -> None:
        p0 = oracles.crossover(self.raw, "Y")
        j = self.raw.source_joint()
        h_xt_given_x = oracles.entropy_bits(j.sum(axis=(2, 3))) - oracles.entropy_bits(self.raw.px)
        h_xt_given_y = oracles.conditional_entropy_xt_given(self.raw, "Y")
        for label, stdout, text in self.results:
            if label == "compute_region":
                rows = self._rows(text, REGION_HEADER, label)
                self.check(len(rows) == len(TARGETS), f"{label}: {len(rows)} rows")
                previous = math.inf
                for target, row in zip(TARGETS, rows):
                    d, rw, rs, rl = map(float, row[:4])
                    wz = oracles.wyner_ziv_dsbs(p0, target)
                    self.check(d <= target + TOL, f"{label}: d={d} above {target}")
                    self.check(rw >= wz - TOL, f"{label}: rw={rw} below Wyner-Ziv {wz}")
                    self.check(rw <= previous + 1e-12, f"{label}: rw rises at D={target}")
                    self.check(rs >= 0.0 and rl >= 0.0, f"{label}: negative leakage")
                    previous = rw
            elif label == "lossless_region":
                rows = self._rows(text, REGION_HEADER, label)
                want = (0.0, oracles.h2(p0), oracles.h2(p0), oracles.h2(p0) - h_xt_given_x)
                got = tuple(map(float, rows[0][:4])) if rows else ()
                self.check(len(rows) == 1 and np.allclose(got, want, rtol=0, atol=TOL)
                           and rows[0][4] == "small_key",
                           f"{label}: {rows} but h(p0) gives {want}")
            elif label == "gaussian":
                self._check_gaussian(stdout, text)
            elif label == "simulate":
                self._check_simulate(text, p0, h_xt_given_y, h_xt_given_x)
            elif label == "check_channel.model":
                self.check("degraded: no" in stdout and "less-noisy: falsified" in stdout,
                           f"{label}: BSC(0.2) vs BSC(0.3) not reported falsified: {stdout!r}")
            elif label == "check_channel.pair":
                self._check_witness(stdout)

    def _check_gaussian(self, stdout: str, text: str) -> None:
        rows = self._rows(text, GAUSSIAN_HEADER, "gaussian")
        self.check(len(rows) == len(self.ALPHAS), f"gaussian: {len(rows)} rows")
        for alpha, row in zip(self.ALPHAS, rows):
            want = (alpha, *oracles.gaussian_bounds(*self.RHO, alpha))
            self.check(np.allclose(list(map(float, row)), want, rtol=0, atol=TOL),
                       f"gaussian: row {row} but log-determinants give {want}")
        checks = _MMSE.findall(stdout)
        self.check(len(checks) == len(self.ALPHAS), f"gaussian: MMSE lines {checks}")
        for alpha_s, emp_s, ana_s in checks:
            d = oracles.gaussian_bounds(*self.RHO, float(alpha_s))[3]
            emp, ana = float(emp_s), float(ana_s)
            self.check(abs(ana - d) <= 1e-6, f"gaussian: analytic MMSE {ana}, oracle {d}")
            self.check(abs(emp - ana) <= 5 * d * math.sqrt(2 / self.SAMPLES) + 1e-6,
                       f"gaussian: empirical MMSE {emp} too far from {ana}")

    def _check_simulate(self, text: str, p0: float, h_xt_y: float, h_xt_x: float) -> None:
        rows = self._rows(text, SIMULATE_HEADER, "simulate")
        self.check(len(rows) == 1, f"simulate: {len(rows)} rows")
        if not rows:
            return
        n, error_rate, distortion, leak_s, leak_p = map(float, rows[0])
        bits = math.ceil(self.SIM_N * (h_xt_y + 2 * self.SIM_EPS) - 1e-9)
        p = oracles.ml_in_bin_error(self.SIM_N, bits, p0)
        errors = round(error_rate * self.SIM_TRIALS)
        self.check(n == self.SIM_N, f"simulate: n={n}")
        self.check(abs(errors - self.SIM_TRIALS * p)
                   <= oracles.binomial_tolerance(p, self.SIM_TRIALS, SIGMAS),
                   f"simulate: {errors} errors, code-averaged error probability {p:.3g}")
        self.check(distortion == 0.0, f"simulate: identity scheme distortion {distortion}")
        # Plug-in estimates of the single-letter targets H(Xt|Y) and
        # H(Xt|Y) - H(Xt|X) from 80000 letters.
        self.check(abs(leak_s - oracles.h2(p0)) <= 0.02 and abs(leak_p - (oracles.h2(p0) - h_xt_x)) <= 0.02,
                   f"simulate: plug-in leakages ({leak_s}, {leak_p}) far from their targets")

    def _check_witness(self, stdout: str) -> None:
        self.check("degraded: yes" in stdout, f"check_channel.pair: not degraded: {stdout!r}")
        rows = [list(map(float, line.split(":", 1)[1].split()))
                for line in stdout.splitlines() if line.startswith("witness[")]
        t = np.array(rows)
        ok = (t.shape == (2, 2) and np.all(t >= -1e-12)
              and np.abs(t.sum(axis=1) - 1.0).max() <= 1e-8
              and np.abs(self.p_z @ t - self.p_y).max() <= 1e-8)
        self.check(bool(ok), f"check_channel.pair: witness {rows} does not compose P(z|x) into P(y|x)")

    def info(self, rounds: int) -> dict[str, float]:
        busy = sum(self.op_seconds.values())
        return {"cli_calls_per_s": rounds * len(self.commands) / busy if busy else 0.0}

    def layer_metrics(self, s, setup_spans, rounds):
        med = {k: statistics.median(v) for k, v in self.call_seconds.items()}
        channel = [med[k] for k in ("check_channel.model", "check_channel.pair") if k in med]
        return {
            "gaussian.gaussian_mmse_check.ms": _per_call(s, "gaussian.gaussian_mmse_check", 1e3),
            "channels.check_stochastic_degraded.ms":
                _per_call(s, "channels.check_stochastic_degraded", 1e3),
            "channels.less_noisy_falsify.ms": _per_call(s, "channels.less_noisy_falsify", 1e3),
            "modelio.parse_model.ms": _per_call(s, "modelio.parse_model", 1e3),
            "cli.compute_region.s": med.get("compute_region", 0.0),
            "cli.lossless_region.s": med.get("lossless_region", 0.0),
            "cli.gaussian.s": med.get("gaussian", 0.0),
            "cli.simulate.s": med.get("simulate", 0.0),
            "cli.check_channel.s": statistics.mean(channel) if channel else 0.0,
        }


WORKLOADS = {w.name: w for w in (RwBoundary, LeakageBoundary, Codec, CliReadme)}
