import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import h2, random_model
from secsource import modelio, regions
from secsource.probability import (
    DimensionError, JointPmf, ModelError, Pmf, SourceModel, StochasticMatrix, bsc, build_joint,
)
from secsource.regions import (
    AuxScheme,
    DistortionMetric,
    InfeasibleTargetError,
    SearchConfig,
    extend_with_auxiliaries,
    grid_minimum_storage,
    lossy_point,
    optimal_reconstruction,
    simplex_grid,
    trace_region,
)

METRIC = DistortionMetric.hamming(2)
CFG = SearchConfig(restarts=4, seed=13, u_size=3, v_size=1, q_size=1)


def _d_max(joint):
    aux = AuxScheme.from_channels(StochasticMatrix.constant(2, 1))
    full = extend_with_auxiliaries(joint, aux)
    return optimal_reconstruction(full, METRIC)[1]


def test_null_encoder_feasible_at_dmax(binary_model, binary_joint):
    dmax = _d_max(binary_joint)
    pts = trace_region(binary_model, 0.0, METRIC, [dmax + 1e-6], CFG)
    assert pts[0].rates.rw == pytest.approx(0.0, abs=1e-6)


def test_lossless_endpoint(binary_model, binary_joint):
    pts = trace_region(binary_model, 0.0, METRIC, [0.0], CFG)
    h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
    assert pts[0].rates.rw == pytest.approx(h_xt_y, abs=1e-6)
    assert pts[0].rates.d <= 1e-9


def test_monotone_and_feasible(binary_model):
    targets = [0.02, 0.06, 0.10, 0.20, 0.30]
    pts = trace_region(binary_model, 0.0, METRIC, targets, CFG)
    rws = [p.rates.rw for p in pts]
    assert all(rws[i] >= rws[i + 1] - 1e-12 for i in range(len(rws) - 1))
    for p in pts:
        assert p.rates.d <= p.target_d + 1e-9


def test_deterministic_given_seed(binary_model):
    leakage = SearchConfig(restarts=2, seed=13, u_size=3, v_size=2, q_size=2, objective="rs")
    for cfg in (CFG, leakage):
        a = trace_region(binary_model, 0.0, METRIC, [0.08], cfg)
        b = trace_region(binary_model, 0.0, METRIC, [0.08], cfg)
        assert a[0].rates == b[0].rates
        for name in ("p_u_given_xtilde", "p_v_given_u", "p_q_given_v"):
            np.testing.assert_array_equal(
                getattr(a[0].scheme, name).rows, getattr(b[0].scheme, name).rows
            )


def test_reported_point_matches_regime_report(binary_model):
    pts = trace_region(binary_model, 0.1, METRIC, [0.05], CFG)
    p = pts[0]
    full = extend_with_auxiliaries(build_joint(binary_model), p.scheme)
    rep = lossy_point(full, 0.1, METRIC)
    assert rep.bounds == p.rates


def test_grid_method_matches_oracle(binary_model):
    cfg = SearchConfig(restarts=1, seed=0, u_size=3, v_size=1, q_size=1,
                       method="grid", grid_step=0.1)
    pts = trace_region(binary_model, 0.0, METRIC, [0.1], cfg)
    best, _ = grid_minimum_storage(binary_model, METRIC, 0.1, u_size=3, step=0.1)
    assert pts[0].rates.rw == pytest.approx(best, abs=1e-12)


def test_infeasible_target_reported():
    # |U| = 1 cannot reach distortion below the no-encoder floor.
    model = SourceModel.from_channels(
        Pmf.uniform(2), bsc(0.1), StochasticMatrix.constant(2, 2),
        StochasticMatrix.constant(2, 2),
    )
    cfg = SearchConfig(restarts=2, seed=1, u_size=1, v_size=1, q_size=1)
    with pytest.raises(InfeasibleTargetError):
        trace_region(model, 0.0, METRIC, [0.05], cfg)


def test_simplex_grid_counts():
    g = simplex_grid(3, 0.5)
    assert g.shape == (6, 3)
    np.testing.assert_allclose(g.sum(axis=1), 1.0)
    g2 = simplex_grid(2, 0.05)
    assert g2.shape == (21, 2)
    # Lexicographic in the tick counts: the grid oracle's tie-break order.
    ticks = sorted(c for c in itertools.product(range(21), repeat=3) if sum(c) == 20)
    np.testing.assert_array_equal(simplex_grid(3, 0.05), np.array(ticks, dtype=float) * 0.05)


def _scalar_grid_scan(model, metric, targets, u_size, step):
    """Reference oracle: every grid cell scored alone by the evaluator in
    odometer order (last Xt row fastest); per target the first cell with the
    smallest storage rate among those meeting D wins, or None."""
    obj = regions._SchemeEvaluator(model, metric)
    rows = simplex_grid(u_size, step)
    nxt = model.xtilde_size
    best = dict.fromkeys(targets)
    idx = [0] * nxt
    while True:
        t = np.array([rows[i] for i in idx])
        rw, dist = obj.storage(t)
        for d in targets:
            if dist <= d + 1e-12 and (best[d] is None or rw < best[d][0]):
                best[d] = (rw, t)
        for pos in range(nxt - 1, -1, -1):
            idx[pos] += 1
            if idx[pos] < rows.shape[0]:
                break
            idx[pos] = 0
        else:
            return best


def _assert_grid_matches(model, metric, targets, u_size, step):
    """Check the oracle against the reference scan; returns the reference."""
    want = _scalar_grid_scan(model, metric, targets, u_size, step)
    for d in targets:
        if want[d] is None:
            with pytest.raises(InfeasibleTargetError):
                grid_minimum_storage(model, metric, d, u_size=u_size, step=step)
            continue
        best, best_t = grid_minimum_storage(model, metric, d, u_size=u_size, step=step)
        assert best == want[d][0]
        assert np.array_equal(best_t, want[d][1])
    return want


def test_grid_oracle_matches_scalar_enumeration(binary_model):
    # Binary model, |U| = 3, step 0.05: 53,361 cells over many screening
    # blocks.  At D = 0.30 the 231 cells with two equal rows score rw = 0
    # within 1e-9, and 210 of them exactly: the first of these must win.
    want = _assert_grid_matches(binary_model, METRIC, (0.05, 0.10, 0.15, 0.30), 3, 0.05)
    assert want[0.30][0] == 0.0

    # |Xt| = 3, |U| = 2, step 0.1: 11^3 cells, more than one block; D = 0.1
    # is out of reach of this grid.
    assert 11**3 > regions._GRID_BLOCK
    model = random_model(np.random.default_rng(7), nx=3, nxt=3)
    want = _assert_grid_matches(model, DistortionMetric.hamming(3), (0.1, 0.2, 0.3), 2, 0.1)
    assert want[0.1] is None

    # |U| = 1 cannot beat the no-encoder distortion.
    assert _assert_grid_matches(binary_model, METRIC, (0.05,), 1, 0.5)[0.05] is None


def test_scheme_scoring_builds_no_joint(binary_model, monkeypatch):
    # The no-key form and the grid oracle score from the source channels:
    # neither forms the (Xt, X, Y, Z) joint nor reads a marginal of one.
    def never(*args, **kwargs):
        raise AssertionError("a joint was built")

    monkeypatch.setattr(regions, "build_joint", never)
    monkeypatch.setattr(JointPmf, "marginal_table", never)
    monkeypatch.setattr(JointPmf, "__post_init__", never)
    pt = regions.corollary_point(binary_model, bsc(0.15), METRIC)
    best, _ = grid_minimum_storage(binary_model, METRIC, 0.1, u_size=3, step=0.1)
    assert pt.rw > 0.0 and best > 0.0


def test_metric_rows_must_match_xtilde(binary_model):
    # A metric over three reconstruction rows for a binary Xt once failed
    # with numpy's "operands could not be broadcast".
    metric = DistortionMetric.hamming(3)
    with pytest.raises(DimensionError, match="distortion table rows must match"):
        trace_region(binary_model, 0.0, metric, [0.1], CFG)
    with pytest.raises(DimensionError, match="distortion table rows must match"):
        regions.corollary_point(binary_model, bsc(0.15), metric)
    with pytest.raises(DimensionError, match="distortion table rows must match"):
        grid_minimum_storage(binary_model, metric, 0.1, u_size=3, step=0.1)


def test_search_config_validation():
    with pytest.raises(Exception):
        SearchConfig(restarts=0)
    with pytest.raises(Exception):
        SearchConfig(grid_step=0.7)
    # An empty alphabet once died as an IndexError (|U|) or a
    # ZeroDivisionError (|V|, |Q|) deep in the search.
    for name in ("u_size", "v_size", "q_size"):
        for size in (0, -1):
            with pytest.raises(ModelError, match=f"{name} must be >= 1, got {size}"):
                SearchConfig(**{name: size})


def test_sizes_above_sufficient_bounds_refused_before_search(binary_model, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(regions, "_mirror_descent", never)
    bounds = regions.default_cardinalities(binary_model.xtilde_size)
    assert SearchConfig().resolved_sizes(binary_model.xtilde_size) == bounds
    for name, bound in zip(("u_size", "v_size", "q_size"), bounds):
        cfg = SearchConfig(**{name: bound + 1})
        with pytest.raises(ModelError, match=f"{name}={bound + 1} exceeds the sufficient "
                                             f"bound {bound}"):
            trace_region(binary_model, 0.0, METRIC, [0.1], cfg)


def _starts(rng, sizes, count):
    """``count`` starts (Dirichlet rows of P(U|Xt), P(V|U), P(Q|V)) as stacks,
    the first nearly the anchor, as the search starts."""
    mats = [rng.dirichlet(np.ones(n_out), size=(count, n_in))
            for n_in, n_out in zip(sizes, sizes[1:])]
    mats[0][0] = 0.999 * regions._anchor_u_rows(sizes[0], sizes[1]) + 1e-3 / sizes[1]
    return mats


def _descend_alone(obj, mats, r0, objective, target_d):
    """One start's descent, step by step: the rule that the stacked
    ``_mirror_descent`` applies to every start of its stack."""
    def penalized(ms, penalty):
        value, dist, gradient = obj.penalized([m[None] for m in ms], r0, [objective], target_d,
                                              np.array([penalty]))
        return value[0], dist[0], lambda: [g[0] for g in gradient([0])]

    penalty, eta = 32.0, 1.0
    for _ in range(6):  # penalty levels
        value, dist, gradient = penalized(mats, penalty)
        for _ in range(regions._MAX_ITERS):
            grads = gradient()
            eta *= 2.0
            while eta > 1e-12:
                trial = [regions._exp_step(m, g, eta) for m, g in zip(mats, grads)]
                t_value, t_dist, t_gradient = penalized(trial, penalty)
                slope = sum(float(np.sum(g * (m - t))) for g, m, t in zip(grads, mats, trial))
                if t_value <= value - 1e-4 * slope:
                    break
                eta *= 0.5
            else:
                break  # no step size decreases the objective
            gain = value - t_value
            mats, value, dist, gradient = trial, t_value, t_dist, t_gradient
            if gain < regions._CONVERGENCE_TOL:
                break
        if dist <= target_d + 1e-9:
            break
        penalty *= 8.0
    return mats


@pytest.mark.parametrize("case", ["binary-u3", "binary-default", "ternary"])
def test_stacked_descent_matches_each_start_alone(binary_model, case):
    # All starts of a target move as one stack, and each must end on the
    # matrices it reaches descended alone, bit for bit: for the storage
    # objective, which moves P(U|Xt), and for both leakages, which move all
    # three matrices (the search stacks the two leakages together).  The
    # cases take a start through penalty levels and rejected steps, and let
    # the starts leave the stack at different ticks.
    rng = np.random.default_rng(61)
    model, (nu, nv, nq) = {
        "binary-u3": (binary_model, (3, 2, 2)),
        "binary-default": (binary_model, regions.default_cardinalities(2)),
        "ternary": (random_model(rng, nx=3, nxt=3, ny=3), (4, 2, 2)),
    }[case]
    nxt = model.xtilde_size
    obj = regions._SchemeEvaluator(model, DistortionMetric.hamming(nxt))
    mats = _starts(rng, (nxt, nu, nv, nq), 5)
    for r0, objectives, moving, target in ((0.3, ["rw"] * 5, 1, 0.05),
                                           (0.3, ["rw"] * 5, 1, 0.12),
                                           (0.0, ["rs", "rl", "rs", "rl", "rs"], 3, 0.05),
                                           (0.1, ["rl", "rs", "rl", "rs", "rl"], 3, 0.15)):
        stack = regions._mirror_descent(obj, mats[:moving], r0, objectives, target)
        for i, objective in enumerate(objectives):
            alone = _descend_alone(obj, [m[i] for m in mats[:moving]], r0, objective, target)
            for m, a in zip(stack, alone):
                np.testing.assert_array_equal(m[i], a)
        assert not np.array_equal(stack[0], mats[0])  # the starts moved


def _repair_alone(obj, t, anchor, target_d):
    """One matrix's feasibility repair, step by step: the bisection that the
    stacked ``_repair_feasibility`` applies to every miss of its stack."""
    def dist(m):
        return obj.storage(m)[1]

    if dist(t) <= target_d:
        return t
    if dist(anchor) > target_d:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist((1.0 - mid) * t + mid * anchor) <= target_d:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * t + hi * anchor


def test_stacked_repair_matches_each_alone(binary_model):
    obj = regions._SchemeEvaluator(binary_model, METRIC)
    rng = np.random.default_rng(67)
    t = rng.dirichlet(np.ones(3), size=(8, 2))
    anchor = regions._anchor_u_rows(2, 3)
    t[3] = anchor  # meets every target as it is
    dist = obj.storage(t)[1]
    # The last anchor misses 0.05, so only the matrices that meet it stay.
    for far, target in ((anchor, 0.0), (anchor, 0.05), (anchor, float(np.median(dist))),
                        (np.full((2, 3), 1.0 / 3), 0.05)):
        repaired = regions._repair_feasibility(obj, t, far, target)
        assert len(repaired) == len(t)
        for m, r in zip(t, repaired):
            alone = _repair_alone(obj, m, far, target)
            if alone is None:
                assert r is None
            else:
                np.testing.assert_array_equal(r, alone)
                assert obj.storage(r)[1] <= target
    assert sum(r is None for r in repaired) == np.count_nonzero(dist > 0.05) > 0


def test_empty_stack(binary_model):
    obj = regions._SchemeEvaluator(binary_model, METRIC)
    empty = [np.empty((0, 2, 3)), np.empty((0, 3, 2)), np.empty((0, 2, 2))]
    for objectives, moving in (([], 1), ([], 3)):
        out = regions._mirror_descent(obj, empty[:moving], 0.0, objectives, 0.1)
        assert [m.shape for m in out] == [m.shape for m in empty[:moving]]
    assert regions._repair_feasibility(obj, empty[0], regions._anchor_u_rows(2, 3), 0.1) == []


def test_generic_objective_path(binary_model):
    for objective, r0 in (("rs", 0.0), ("rl", 0.1)):
        cfg = SearchConfig(restarts=2, seed=5, u_size=2, v_size=1, q_size=1,
                           objective=objective)
        pts = trace_region(binary_model, r0, METRIC, [0.2], cfg)
        assert pts[0].rates.d <= 0.2 + 1e-9
        full = extend_with_auxiliaries(build_joint(binary_model), pts[0].scheme)
        assert lossy_point(full, r0, METRIC) == pts[0].report


def test_convexified_trace_is_convex_and_below(binary_model):
    from secsource.regions import convexify_trace

    targets = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
    pts = trace_region(binary_model, 0.0, METRIC, targets, CFG)
    env = convexify_trace(pts)
    assert [e[0] for e in env] == sorted(targets)
    for p, e in zip(sorted(pts, key=lambda p: p.target_d), env):
        assert e[1] <= p.rates.rw + 1e-9
    # Convexity of the envelope in the (d, rw) plane.
    for i in range(1, len(env) - 1):
        d0, r0_, _, _ = env[i - 1]
        d1, r1, _, _ = env[i]
        d2, r2, _, _ = env[i + 1]
        t = (d1 - d0) / (d2 - d0)
        assert r1 <= r0_ + t * (r2 - r0_) + 1e-9


def test_convexified_trace_replaces_point_above_chord():
    # The middle point lies above the chord of its neighbours in (d, rw):
    # the envelope there is the chord's interpolation in every component,
    # and the end points stay.  Dyadic values make the interpolation exact.
    from secsource.regions import RateTuple, RegimeReport, TracePoint, convexify_trace

    def point(d, rw, rs, rl):
        rates = RateTuple(rw=rw, rs=rs, rl=rl, d=d)
        report = RegimeReport("small_key", 0.0, rw, 0.0, rates)
        return TracePoint(d, rates, AuxScheme.identity(2), report)

    pts = [point(0.5, 0.5, 0.25, 0.125), point(0.0, 1.0, 0.5, 0.25),
           point(0.25, 0.875, 0.5, 0.25)]
    assert convexify_trace(pts) == [
        (0.0, 1.0, 0.5, 0.25), (0.25, 0.75, 0.375, 0.1875), (0.5, 0.5, 0.25, 0.125),
    ]


INSTANCE = Path(__file__).resolve().parents[1] / "demos" / "models" / "binary_instance.json"


def _wyner_ziv_dsbs(p0, d):
    """Wyner-Ziv rate of a doubly symmetric binary source with crossover p0
    at Hamming distortion d: time sharing between a point (b, h(p0*b) - h(b))
    with b <= d and the zero-rate point (p0, 0), minimized over b on a fine
    grid (Wyner & Ziv 1976)."""
    if d >= p0:
        return 0.0
    b = np.linspace(0.0, d, 200_001)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = [np.nan_to_num(-p * np.log2(p) - (1 - p) * np.log2(1 - p))
             for p in (p0 * (1.0 - b) + (1.0 - p0) * b, b)]
    return float(np.min((h[0] - h[1]) * (p0 - d) / (p0 - b)))


def test_wyner_ziv_closed_form():
    p0 = 0.26
    assert _wyner_ziv_dsbs(p0, 0.0) == pytest.approx(h2(p0), abs=1e-12)
    assert _wyner_ziv_dsbs(p0, p0) == 0.0
    rates = [_wyner_ziv_dsbs(p0, d) for d in np.linspace(0.0, p0, 9)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("size, bounds", [
    ({"u_size": 3, "v_size": 1, "q_size": 1}, (0.0012, 0.0028, 0.0037)),
    ({}, (0.0067, 0.0062, 0.0246)),
])
def test_storage_search_near_wyner_ziv(size, bounds):
    # The README sweep on the binary instance, whose (Xt, Y) pair is a doubly
    # symmetric binary source with crossover 0.26.  At |U| = 3 and at the
    # default cardinality the search must not sit further above the closed
    # form than the gaps the finite-difference descent left (0.1 mbit
    # resolution), and never below it.
    model = modelio.parse_model(INSTANCE)
    pair = build_joint(model).marginal_table(("Xt", "Y"))
    np.testing.assert_allclose(pair, pair.T, atol=1e-15)
    np.testing.assert_allclose(pair.sum(axis=1), 0.5, atol=1e-15)
    p0 = float(pair[0, 1] + pair[1, 0])
    cfg = SearchConfig(restarts=8, seed=7, **size)
    points = trace_region(model, 0.0, METRIC, [0.05, 0.10, 0.15], cfg)
    for p, bound in zip(points, bounds):
        gap = p.rates.rw - _wyner_ziv_dsbs(p0, p.target_d)
        assert -1e-9 <= gap <= bound


def test_leakage_searches_reach_the_lower_leakage():
    # Secrecy leakage at r0 = 0 and privacy leakage at r0 = 0.1, D = 0.10,
    # (|U|, |V|, |Q|) = (3, 2, 2), one restart.  The finite-difference
    # descent stopped at rs = 0.455343 although the rl search found a scheme
    # with rs = 0.4236; it reached rl = 0.111692.
    model = modelio.parse_model(INSTANCE)
    sizes = dict(restarts=1, seed=7, u_size=3, v_size=2, q_size=2)
    found = {}
    for objective, r0 in (("rs", 0.0), ("rl", 0.0), ("rl", 0.1)):
        cfg = SearchConfig(objective=objective, **sizes)
        [found[objective, r0]] = trace_region(model, r0, METRIC, [0.10], cfg)
        assert found[objective, r0].rates.d <= 0.10 + 1e-9
    assert found["rs", 0.0].rates.rs <= 0.4236
    assert found["rl", 0.1].rates.rl <= 0.111692
    # Each leakage search is no worse than the other's scheme at the same r0.
    assert found["rs", 0.0].rates.rs <= found["rl", 0.0].rates.rs
    assert found["rl", 0.0].rates.rl <= found["rs", 0.0].rates.rl
