"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and the measured finite-blocklength leakage gaps.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import random_model
from secsource.binning import (
    BinningRates,
    design_code,
    exact_leakage,
    padded_indices_mutual_information,
    run_experiment,
)
from secsource.channels import check_stochastic_degraded, less_noisy_falsify
from secsource.gaussian import GaussianModel, gaussian_mmse_check, gaussian_point
from secsource.probability import (
    JointPmf,
    Pmf,
    SourceModel,
    StochasticMatrix,
    bsc,
    build_joint,
)
from secsource.regions import (
    AuxScheme,
    DistortionMetric,
    SearchConfig,
    corollary_point,
    extend_with_auxiliaries,
    grid_minimum_storage,
    lossless_point,
    lossy_point,
    trace_region,
)
from test_gaussian import covariance_oracle


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")


def _random_aux(rng, nxt, nu=None, nv=2) -> AuxScheme:
    nu = nu if nu is not None else nxt + 1
    return AuxScheme(
        StochasticMatrix(rng.dirichlet(np.ones(nu), size=nxt)),
        StochasticMatrix(rng.dirichlet(np.ones(nv), size=nu)),
    )


def test_criterion_1_gaussian_closed_form():
    model = GaussianModel(0.9, 0.8, 0.95)
    start = time.monotonic()
    max_err = 0.0
    for i, alpha in enumerate((0.25, 0.5, 0.75)):
        empirical, analytic = gaussian_mmse_check(model, alpha, samples=10**6, seed=i)
        max_err = max(max_err, abs(empirical - analytic))
    elapsed = time.monotonic() - start

    pt = gaussian_point(model, 0.5)
    rw, rs, rl, d = covariance_oracle(model, 0.5)
    analytic_err = max(
        abs(pt.rw - rw), abs(pt.rs - rs), abs(pt.rl - rl), abs(pt.d - d)
    )
    ok = max_err <= 0.01 and elapsed < 10.0 and analytic_err <= 1e-9
    _report(1, "gaussian closed form", ok,
            f"mmse err {max_err:.5f}, {elapsed:.1f}s, oracle err {analytic_err:.2e}")
    assert ok


def test_criterion_2_strong_secrecy_privacy(binary_joint):
    rng = np.random.default_rng(2)
    metric = DistortionMetric.hamming(2)
    ok = True
    for scheme in [AuxScheme.identity(2)] + [_random_aux(rng, 2) for _ in range(6)]:
        full = extend_with_auxiliaries(binary_joint, scheme)
        t_high = full.mutual_information(("U",), ("Xt",), ("Y",))
        t_low = full.mutual_information(("U",), ("Xt",), ("Y", "V"))
        for r0 in (t_high, t_high + 0.1, t_high * 2 + 0.05):
            rep = lossy_point(full, r0, metric)
            ok &= rep.regime == "large_key" and rep.bounds.rs == 0.0 and rep.bounds.rl == 0.0
        base = lossy_point(full, 0.0, metric)
        if base.regime == "small_key" and base.bounds.rs > 0.0 and base.bounds.rl > 0.0:
            stop = min(t_low, base.bounds.rs, base.bounds.rl) * 0.9
            for r0 in np.linspace(0.0, stop, 7):
                rep = lossy_point(full, float(r0), metric)
                ok &= abs(rep.bounds.rs - (base.bounds.rs - r0)) <= 1e-9
                ok &= abs(rep.bounds.rl - (base.bounds.rl - r0)) <= 1e-9
    _report(2, "strong secrecy/privacy regime", ok)
    assert ok


def test_criterion_3_cross_formula_consistency():
    rng = np.random.default_rng(3)
    ok = True

    for trial in range(20):
        nxt = 2 if trial % 2 == 0 else 3
        model = random_model(rng, nx=2, nxt=nxt, ny=2, nz=2)
        joint = build_joint(model)
        aux_v = StochasticMatrix(rng.dirichlet(np.ones(2), size=nxt))
        r0 = float(rng.uniform(0.0, 1.2))
        lossless = lossless_point(joint, aux_v, r0)
        full = extend_with_auxiliaries(joint, AuxScheme(StochasticMatrix.identity(nxt), aux_v))
        lossy = lossy_point(full, r0, DistortionMetric.hamming(nxt))
        for attr in ("rw", "rs", "rl", "d"):
            ok &= abs(getattr(lossless.bounds, attr) - getattr(lossy.bounds, attr)) <= 1e-9

    matched = 0
    metric = DistortionMetric.hamming(2)
    while matched < 10:
        p_z = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
        post = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
        p_y = StochasticMatrix(p_z.rows @ post.rows)
        if not check_stochastic_degraded(p_y, p_z).feasible:
            continue
        model = SourceModel.from_channels(
            Pmf(rng.dirichlet(np.ones(2))),
            StochasticMatrix(rng.dirichlet(np.ones(2), size=2)),
            p_y, p_z,
        )
        joint = build_joint(model)
        aux_u = StochasticMatrix(rng.dirichlet(np.ones(3), size=2))
        full = extend_with_auxiliaries(joint, AuxScheme.from_channels(aux_u))
        rep = lossy_point(full, 0.0, metric)
        if rep.r_prime != 0.0 or rep.regime != "small_key":
            continue
        pt = corollary_point(model, aux_u, metric)
        for attr in ("rw", "rs", "rl", "d"):
            ok &= abs(getattr(pt, attr) - getattr(rep.bounds, attr)) <= 1e-9
        matched += 1

    _report(3, "cross-formula consistency", ok)
    assert ok


def test_criterion_4_search_oracle_equivalence(binary_model):
    metric = DistortionMetric.hamming(2)
    targets = (0.05, 0.10, 0.15)
    start = time.monotonic()
    grid_values = {
        d: grid_minimum_storage(binary_model, metric, d, u_size=3, step=0.05)[0]
        for d in targets
    }
    cfg = SearchConfig(restarts=12, seed=2024, u_size=3, v_size=1)
    points = trace_region(binary_model, 0.0, metric, list(targets), cfg)
    elapsed = time.monotonic() - start

    worst = max(abs(p.rates.rw - grid_values[p.target_d]) for p in points)
    # The storage LP also never sits above the grid by more than its
    # certified gap.
    below = all(p.rates.rw <= grid_values[p.target_d] + (p.rates.rw - p.lower_bound)
                for p in points)
    ok = worst <= 0.01 and below and elapsed < 300.0
    _report(4, "search matches grid oracle", ok,
            f"max |rw diff| {worst:.4f} bits, {elapsed:.1f}s")
    assert ok


def test_criterion_5_simulator_reliability(binary_model, binary_joint):
    full6 = extend_with_auxiliaries(build_joint(binary_model), AuxScheme.identity(2))
    code = design_code(full6, n=400, epsilon=0.15, r0=0.0, seed=11)
    rep = run_experiment(code, binary_model, trials=500, seed=12)

    h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
    bad_rates = BinningRates(rv_tilde=0.0, rv=0.0, ru_tilde=0.0,
                             ru=h_xt_y - 0.1, r0=0.0)
    bad_code = design_code(full6, n=400, epsilon=0.15, r0=0.0, seed=11,
                           rate_override=bad_rates)
    bad_rep = run_experiment(bad_code, binary_model, trials=500, seed=12)

    ok = rep.error_rate <= 0.05 and bad_rep.error_rate >= 0.5
    _report(5, "simulator reliability", ok,
            f"error {rep.error_rate:.3f} (target <= 0.05), "
            f"violated-rate error {bad_rep.error_rate:.3f} (target >= 0.5)")
    assert ok


def test_criterion_6_simulator_security(binary_model, binary_joint):
    full6 = extend_with_auxiliaries(build_joint(binary_model), AuxScheme.identity(2))

    # Full-pad exactness at n = 6, several bin-randomness draws.
    pad_ok = True
    for seed in range(5):
        code = design_code(full6, n=6, epsilon=0.15, r0=2.0, seed=seed)
        assert code.mode == "pad_all"
        mi, p_pad = padded_indices_mutual_information(code, binary_model)
        pad_ok &= abs(mi) <= 1e-12
        pad_ok &= bool(np.allclose(p_pad, 1.0 / p_pad.size, atol=1e-12))

    # Exact small-n leakage vs the single-letter targets (measured gaps).
    h_xt_z = binary_joint.entropy(("Xt", "Z")) - binary_joint.entropy(("Z",))
    rpp = min(
        binary_joint.mutual_information(("Xt",), ("Z",))
        - binary_joint.mutual_information(("Xt",), ("Y",)),
        0.0,
    )
    target_s = h_xt_z + rpp
    target_p = binary_joint.mutual_information(("Xt",), ("X",), ("Z",)) + rpp
    gaps = []
    for n in (6, 8, 10):
        code = design_code(full6, n=n, epsilon=0.03, r0=0.0, seed=5)
        leak = exact_leakage(code, binary_model)
        gaps.append((n, leak.secrecy - target_s, leak.privacy - target_p))
    for n, gs, gp in gaps:
        print(f"  exact leakage gap at n={n}: secrecy {gs:+.4f}, privacy {gp:+.4f} bits/symbol")
    leak_ok = abs(gaps[-1][1]) <= 0.1 and abs(gaps[-1][2]) <= 0.1

    ok = pad_ok and leak_ok
    _report(6, "simulator security", ok,
            f"pad MI exact zero: {pad_ok}; n=10 gaps "
            f"{gaps[-1][1]:+.4f}/{gaps[-1][2]:+.4f} bits/symbol")
    assert ok


def test_criterion_7_channel_ordering():
    cert = check_stochastic_degraded(bsc(0.3), bsc(0.1))
    crossover = float(cert.witness.rows[0, 1]) if cert.feasible else float("nan")
    forward_ok = (
        cert.feasible
        and cert.residual <= 1e-8
        and abs(crossover - 0.25) <= 1e-6
    )
    reverse = check_stochastic_degraded(bsc(0.1), bsc(0.3))
    verdict = less_noisy_falsify(bsc(0.1), bsc(0.3), trials=20, seed=0)
    ident = np.zeros((2, 3))
    ident[0, 0] = ident[1, 1] = 1.0
    reverse_ok = (
        not reverse.feasible
        and verdict.falsified
        and np.array_equal(verdict.witness_channel.rows, ident)
    )
    ok = forward_ok and reverse_ok
    _report(7, "channel ordering", ok,
            f"witness crossover {crossover:.6f}, residual {cert.residual:.1e}")
    assert ok


def test_criterion_8_information_property_suite(binary_joint):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(3))
        table = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
        j = JointPmf(("A", "B", "C"), table)
        lhs = j.mutual_information(("A", "B"), ("C",))
        rhs = j.mutual_information(("A",), ("C",)) + j.mutual_information(
            ("B",), ("C",), ("A",)
        )
        ok &= abs(lhs - rhs) <= 1e-9
        ok &= lhs >= 0.0
        ok &= j.mutual_information(("A",), ("B",), ("C",)) >= 0.0
        ok &= j.entropy(("A",)) >= 0.0

    for _ in range(100):
        scheme = _random_aux(rng, 2, nu=3)
        full = extend_with_auxiliaries(binary_joint, scheme)
        ok &= full.mutual_information(("V",), ("X", "Y", "Z"), ("U", "Xt")) <= 1e-9
        ok &= full.mutual_information(("U",), ("X", "Y", "Z"), ("Xt",)) <= 1e-9
        i_uy = full.mutual_information(("U",), ("Y",))
        i_ux = full.mutual_information(("U",), ("X",))
        i_uxt = full.mutual_information(("U",), ("Xt",))
        ok &= i_uy <= i_ux + 1e-9 and i_ux <= i_uxt + 1e-9

    _report(8, "information-functional properties", ok)
    assert ok
