"""Tests of the benchmark's oracles: limits, known values and agreement
between independent derivations.  Run with ``python -m pytest bench``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
P0 = 0.26  # P(Xt != Y) of demos/models/binary_instance.json


@pytest.fixture(scope="module")
def model():
    return oracles.load_model(ROOT / "demos" / "models" / "binary_instance.json")


def test_model_crossovers(model):
    assert oracles.crossover(model, "Y") == pytest.approx(P0, abs=1e-12)
    assert oracles.crossover(model, "Z") == pytest.approx(0.34, abs=1e-12)
    assert oracles.conditional_entropy_xt_given(model, "Y") == pytest.approx(oracles.h2(P0), abs=1e-12)


def test_mutual_information_limits():
    bit = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert oracles.mutual_information(bit, [0], [1]) == pytest.approx(1.0)
    assert oracles.mutual_information(np.full((2, 3), 1 / 6), [0], [1]) == pytest.approx(0.0, abs=1e-15)
    # X - Y - Z with Z = Y: I(X;Z|Y) = 0 and I(X;Z) = I(X;Y).
    xyz = np.einsum("xy,yz->xyz", np.array([[0.4, 0.1], [0.1, 0.4]]), np.eye(2))
    assert oracles.mutual_information(xyz, [0], [2], [1]) == pytest.approx(0.0, abs=1e-15)
    assert oracles.mutual_information(xyz, [0], [2]) == pytest.approx(1 - oracles.h2(0.2))


def test_wyner_ziv_limits_and_values():
    assert oracles.wyner_ziv_dsbs(P0, 0.0) == oracles.h2(P0)
    assert oracles.wyner_ziv_dsbs(P0, P0) == 0.0
    assert oracles.wyner_ziv_dsbs(P0, 0.4) == 0.0
    for d, want in ((0.05, 0.57445), (0.10, 0.42183), (0.15, 0.29001)):
        assert oracles.wyner_ziv_dsbs(P0, d) == pytest.approx(want, abs=5e-6)
    grid = np.linspace(0.0, P0, 200)
    values = np.array([oracles.wyner_ziv_dsbs(P0, d) for d in grid])
    assert np.all(np.diff(values) <= 1e-12)            # non-increasing
    assert np.all(np.diff(values, 2) >= -1e-9)         # convex
    f = np.array([oracles.h2(P0 * (1 - d) + (1 - P0) * d) - oracles.h2(d) for d in grid])
    assert np.all(values <= f + 1e-12)                 # below the curve it envelopes


def test_ml_in_bin_error_limits():
    assert oracles.ml_in_bin_error(400, 600, P0) < 1e-20   # b far above n h(p0) = 331
    assert oracles.ml_in_bin_error(400, 0, P0) == pytest.approx(1.0, abs=1e-12)
    assert oracles.ml_in_bin_error(400, 339, P0) == pytest.approx(0.188, abs=5e-4)
    rates = [oracles.ml_in_bin_error(100, b, P0) for b in range(60, 110, 5)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_ml_in_bin_error_matches_enumeration():
    # n = 6: count the competitors by enumerating the blocks instead of
    # summing binomial coefficients.
    n, bits = 6, 2
    blocks = oracles.all_blocks(2, n)
    want = 0.0
    for d_true in range(n + 1):
        p_d = math.comb(n, d_true) * P0**d_true * (1 - P0) ** (n - d_true)
        competitors = int((blocks.sum(axis=1) <= d_true).sum()) - 1
        want += p_d * (1 - (1 - 2.0**-bits) ** competitors)
    assert oracles.ml_in_bin_error(n, bits, P0) == pytest.approx(want, abs=1e-14)


def test_scheme_bounds_lossless_identity(model):
    ident, const = np.eye(2), np.ones((2, 1))
    b = oracles.scheme_bounds(model, ident, const, np.ones((1, 1)), 0.0, 1 - np.eye(2))
    assert b.regime == "small_key"
    assert (b.rw, b.rs) == pytest.approx((oracles.h2(P0), oracles.h2(P0)), abs=1e-12)
    assert b.rl == pytest.approx(oracles.h2(P0) - oracles.h2(0.1), abs=1e-12)
    assert b.d == pytest.approx(0.0, abs=1e-15)
    big_key = oracles.scheme_bounds(model, ident, const, np.ones((1, 1)), 1.0, 1 - np.eye(2))
    assert big_key.regime == "large_key" and big_key.rs == big_key.rl == 0.0


def test_gaussian_bounds_match_closed_form():
    rx, ry, rz = 0.9, 0.8, 0.95
    for a in (0.1, 0.25, 0.5, 0.75, 0.99):
        rw, rs, rl, d = oracles.gaussian_bounds(rx, ry, rz, a)
        ky = 1 - rx**2 * ry**2 * (1 - a)
        kz = 1 - rx**2 * rz**2 * (1 - a)
        kx = 1 - rx**2 * (1 - a)
        assert rw == pytest.approx(0.5 * math.log2(ky / a), abs=1e-12)
        assert rs == pytest.approx(0.5 * math.log2(kz / a), abs=1e-12)
        assert rl == pytest.approx(0.5 * math.log2(kz / kx), abs=1e-12)
        assert d == pytest.approx(a * (1 - rx**2 * ry**2) / ky, abs=1e-12)


def test_leakage_by_enumeration_limits(model):
    n = 3
    h_xt_z = oracles.conditional_entropy_xt_given(model, "Z")
    # The block itself: I(Xt^n; Xt^n | Z^n) / n = H(Xt|Z).
    s, p = oracles.leakage_by_enumeration(model, n, lambda b, k: tuple(b), [(0,)])
    assert s == pytest.approx(h_xt_z, abs=1e-12)
    assert 0.0 <= p <= s
    # A constant message leaks nothing; a one-time pad over every key neither.
    assert oracles.leakage_by_enumeration(model, n, lambda b, k: 0, [(0,)]) == pytest.approx((0, 0), abs=1e-12)
    pad = oracles.leakage_by_enumeration(
        model, n, lambda b, k: (int("".join(map(str, b)), 2) + k[0]) % 8, [(k,) for k in range(8)])
    assert pad == pytest.approx((0, 0), abs=1e-12)


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
