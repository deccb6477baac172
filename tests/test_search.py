import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import h2, random_model
from secsource import channels, modelio, probability, regions
from secsource.probability import (
    DimensionError, JointPmf, ModelError, SourceModel, StochasticMatrix, bsc, build_joint,
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
CFG = SearchConfig(restarts=4, seed=13, u_size=3, v_size=1)
# One search of each kind: the storage LP, the grid oracle and a leakage descent.
SEARCHES = (
    CFG,
    SearchConfig(u_size=3, v_size=1, method="grid", grid_step=0.1),
    SearchConfig(restarts=1, seed=13, u_size=3, v_size=2, objective="rs"),
)


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
    # Time sharing is inside the storage LP, so a denser sweep is convex in D
    # (the Wyner-Ziv curve here is linear, time sharing, above D = 0.098).
    dense = np.linspace(0.0, 0.3, 31)
    rws = [p.rates.rw for p in trace_region(binary_model, 0.0, METRIC, list(dense), CFG)]
    for i in range(1, len(rws) - 1):
        assert rws[i] <= 0.5 * (rws[i - 1] + rws[i + 1]) + 1e-9


def test_deterministic_given_seed(binary_model):
    leakage = SearchConfig(restarts=2, seed=13, u_size=3, v_size=2, objective="rs")
    for cfg in (CFG, leakage):
        a = trace_region(binary_model, 0.0, METRIC, [0.08], cfg)
        b = trace_region(binary_model, 0.0, METRIC, [0.08], cfg)
        assert a[0].rates == b[0].rates
        for name in ("p_u_given_xtilde", "p_v_given_u"):
            np.testing.assert_array_equal(
                getattr(a[0].scheme, name).rows, getattr(b[0].scheme, name).rows
            )


def test_reported_point_matches_regime_report(binary_model):
    # A traced point reports the evaluator's scoring of the scheme it returns,
    # the one that chose it, and lossy_point on the 6-axis joint agrees.
    obj = regions._SchemeEvaluator(binary_model, METRIC)
    for cfg in SEARCHES:
        [p] = trace_region(binary_model, 0.1, METRIC, [0.05], cfg)
        s = p.scheme
        rep = obj.evaluate(s.p_u_given_xtilde.rows, s.p_v_given_u.rows, 0.1)
        assert p.report == rep and p.rates == rep.bounds
        ref = lossy_point(extend_with_auxiliaries(build_joint(binary_model), s), 0.1, METRIC)
        assert ref.regime == rep.regime
        for name in ("rw", "rs", "rl", "d"):
            assert getattr(rep.bounds, name) == pytest.approx(getattr(ref.bounds, name),
                                                              abs=1e-12)


def test_negative_key_rate_refused(binary_model):
    # The scheme evaluator scores any r0, so the search refuses it up front.
    for cfg in SEARCHES:
        with pytest.raises(ModelError, match="must be finite and >= 0"):
            trace_region(binary_model, -0.1, METRIC, [0.05], cfg)


def test_grid_method_matches_oracle(binary_model):
    cfg = SearchConfig(restarts=1, seed=0, u_size=3, v_size=1,
                       method="grid", grid_step=0.1)
    pts = trace_region(binary_model, 0.0, METRIC, [0.1], cfg)
    best, _ = grid_minimum_storage(binary_model, METRIC, 0.1, u_size=3, step=0.1)
    assert pts[0].rates.rw == pytest.approx(best, abs=1e-12)


def test_infeasible_target_reported(binary_model):
    # Every reconstruction costs at least 0.2, even with U = Xt.
    metric = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
    with pytest.raises(InfeasibleTargetError, match="least distortion"):
        trace_region(binary_model, 0.0, metric, [0.1], CFG)
    assert trace_region(binary_model, 0.0, metric, [0.2], CFG)[0].rates.d <= 0.2


def test_storage_search_at_the_least_distortion():
    # With no zero in a metric row, the least distortion P(Xt) . (row minima)
    # is reached by U = Xt alone.  A target on it, or an ulp above, is met;
    # the check once used a sum that rounded differently from the repair's,
    # which then found no feasible scheme and the search died in an
    # IndexError.
    for seed in range(12):
        rng = np.random.default_rng(seed)
        nxt = 2 + seed % 2
        model = random_model(rng, nx=3, nxt=nxt, ny=3)
        metric = DistortionMetric(rng.uniform(0.05, 1.0, size=(nxt, nxt)))
        obj = regions._SchemeEvaluator(model, metric)
        least = float(obj.p_xt @ metric.table.min(axis=1))
        for d in (least, np.nextafter(least, 1.0)):
            [p] = trace_region(model, 0.0, metric, [d],
                               SearchConfig(u_size=nxt + 1, v_size=1))
            assert obj.storage(p.scheme.p_u_given_xtilde.rows)[1] <= d
            assert p.rates.d <= d


@pytest.mark.parametrize("nxt", [2, 3])
def test_storage_search_where_every_scheme_has_the_least_distortion(nxt):
    # The metric's last column is every row's minimum, so guessing it alone
    # reaches the least distortion and D_max equals it: at that target a
    # constant U meets D, and the least storage rate is 0.  The floor was once
    # scored two ways whose roundings differed: the search raised
    # InfeasibleTargetError, or the LP's rw = 0 scheme missed D by an ulp and
    # the repair sent it back to U = Xt (rw up to 1.3 bits, lower bound 0).
    for seed in range(60):
        rng = np.random.default_rng(seed)
        model = random_model(rng, nx=3, nxt=nxt, ny=3)
        table = rng.uniform(0.05, 1.0, size=(nxt, nxt + 1))
        table[:, -1] = table.min(axis=1)
        metric = DistortionMetric(table)
        obj = regions._SchemeEvaluator(model, metric)
        least = float(obj.p_xt @ table.min(axis=1))
        [p] = trace_region(model, 0.0, metric, [least],
                           SearchConfig(u_size=nxt + 1, v_size=1))
        assert p.rates.rw == pytest.approx(0.0, abs=1e-12)
        assert p.lower_bound == 0.0
        assert obj.storage(p.scheme.p_u_given_xtilde.rows)[1] <= least
        assert p.rates.d <= least


def test_storage_search_refuses_fewer_than_xt_plus_one_symbols(binary_model):
    # A basic solution of the storage LP may use |Xt|+1 posteriors.
    cfg = SearchConfig(u_size=2, v_size=1)
    with pytest.raises(ModelError, match=r"u_size >= \|Xt\|\+1 = 3, got 2"):
        trace_region(binary_model, 0.0, METRIC, [0.1], cfg)
    model = random_model(np.random.default_rng(7), nx=3, nxt=3, ny=3)
    with pytest.raises(ModelError, match=r"u_size >= \|Xt\|\+1 = 4, got 3"):
        trace_region(model, 0.0, DistortionMetric.hamming(3), [0.1], SearchConfig(u_size=3))


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
    # The no-key form, the grid oracle and every search score from the source
    # channels: none forms the (Xt, X, Y, Z) joint nor reads a marginal of one.
    def never(*args, **kwargs):
        raise AssertionError("a joint was built")

    monkeypatch.setattr(probability, "build_joint", never)
    monkeypatch.setattr(JointPmf, "marginal_table", never)
    monkeypatch.setattr(JointPmf, "__post_init__", never)
    pt = regions.corollary_point(binary_model, bsc(0.15), METRIC)
    best, _ = grid_minimum_storage(binary_model, METRIC, 0.1, u_size=3, step=0.1)
    assert pt.rw > 0.0 and best > 0.0
    for cfg in SEARCHES:
        assert trace_region(binary_model, 0.0, METRIC, [0.1], cfg)[0].rates.rw > 0.0


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
    # The grid oracle minimizes the storage rate; a leakage search on it once
    # reported the storage argmin's leakage (binary instance, |U| = 3,
    # D = 0.15: rs 0.29920) as if it were a leakage minimum.
    for objective in ("rs", "rl"):
        with pytest.raises(ModelError, match="method='grid' minimizes the storage rate only"):
            SearchConfig(method="grid", objective=objective)


def test_sizes_above_sufficient_bounds_refused_before_search(binary_model, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(regions, "_mirror_descent", never)
    bounds = regions.default_cardinalities(binary_model.xtilde_size)
    assert SearchConfig().resolved_sizes(binary_model.xtilde_size) == bounds
    # No bound depends on Q, so q_size is bounded by nothing.
    assert SearchConfig(q_size=3).resolved_sizes(binary_model.xtilde_size) == bounds
    for name, bound in zip(("u_size", "v_size"), bounds):
        cfg = SearchConfig(**{name: bound + 1})
        with pytest.raises(ModelError, match=f"{name}={bound + 1} exceeds the sufficient "
                                             f"bound {bound}"):
            trace_region(binary_model, 0.0, METRIC, [0.1], cfg)


# trace_region's leakage searches as the stacked descent (every start of a
# target moved in lockstep) returned them: leakage_boundary's two searches on
# the binary instance and one ternary case.  Per case: (rw, rs, rl, d), the
# regime, threshold_low, threshold_high, r_prime, the rows of P(U|Xt) and
# P(V|U), and the constant (|V|, 1) P(Q|V) that the scheme reports.
_BINARY_SCHEME = (
    [[2.8303642385993398e-05, 0.10456876788364024, 0.8954029284739737],
     [2.6116411279836585e-05, 0.9045569079475142, 0.0954169756412059]],
    [[0.0034682116283697223, 0.9965317883716303], [0.6548929001813895, 0.3451070998186106],
     [0.6356241055470802, 0.3643758944529199]],
    [[1.0], [1.0]],
)
_PINNED_LEAKAGE_SEARCHES = {
    "binary-rs": (
        (0.4219527607114233, 0.4219767297406266, 0.210829213209638, 0.09999994636939963),
        "small_key", 0.4218086392593743, 0.4219527607114233, -0.061326064194025864,
        _BINARY_SCHEME),
    "binary-rl": (
        (0.4219527607114233, 0.32197672974062663, 0.11082921320963798, 0.09999994636939963),
        "small_key", 0.4218086392593743, 0.4219527607114233, -0.061326064194025864,
        _BINARY_SCHEME),
    "ternary": (
        (0.8924281903463689, 0.8425802693618261, 0.0, 0.14999998050021413),
        "small_key", 0.7781413530179546, 0.8924281903463689, -0.0032604888746239347,
        ([[0.9479717209655856, 0.014691085940291611, 0.02081189224138248,
           0.016525300852740333],
          [0.14044262613335368, 0.30639725379271077, 0.4283885651966431, 0.1247715548772924],
          [0.011193108562300913, 0.011896521844668134, 0.01633493414049242,
           0.9605754354525385]],
         [[0.0948125379509998, 0.9051874620490002], [0.4156879126609016, 0.5843120873390985],
          [0.862294965758558, 0.137705034241442], [0.4337044934218526, 0.5662955065781475]],
         [[1.0], [1.0]])),
}


@pytest.mark.parametrize("case", sorted(_PINNED_LEAKAGE_SEARCHES))
def test_leakage_search_matches_recorded_outputs(case):
    # Each (start, objective) pair descends alone; the searches must return
    # what they returned when all pairs of a target descended as one stack.
    # The ternary case takes two restarts and a key rate.
    model, r0, target, cfg = {
        "binary-rs": (modelio.parse_model(INSTANCE), 0.0, 0.1, SearchConfig(
            restarts=1, seed=7, u_size=3, v_size=2, objective="rs")),
        "binary-rl": (modelio.parse_model(INSTANCE), 0.1, 0.1, SearchConfig(
            restarts=1, seed=7, u_size=3, v_size=2, objective="rl")),
        "ternary": (random_model(np.random.default_rng(61), nx=3, nxt=3, ny=3), 0.05, 0.15,
                    SearchConfig(restarts=2, seed=5, u_size=4, v_size=2,
                                 objective="rs")),
    }[case]
    rates, regime, t_low, t_high, rp, scheme = _PINNED_LEAKAGE_SEARCHES[case]
    [p] = trace_region(model, r0, DistortionMetric.hamming(model.xtilde_size), [target], cfg)
    got = (p.rates.rw, p.rates.rs, p.rates.rl, p.rates.d)
    np.testing.assert_allclose(got, rates, rtol=0.0, atol=1e-12)
    assert p.report.regime == regime
    np.testing.assert_allclose((p.report.threshold_low, p.report.threshold_high,
                                p.report.r_prime), (t_low, t_high, rp), rtol=0.0, atol=1e-12)
    mats = (p.scheme.p_u_given_xtilde, p.scheme.p_v_given_u, p.scheme.p_q_given_v)
    for m, want in zip(mats, scheme):
        np.testing.assert_allclose(m.rows, want, rtol=0.0, atol=1e-12)


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
    empty = np.empty((0, 2, 3))
    assert regions._repair_feasibility(obj, empty, regions._anchor_u_rows(2, 3), 0.1) == []


def test_generic_objective_path(binary_model):
    for objective, r0 in (("rs", 0.0), ("rl", 0.1)):
        cfg = SearchConfig(restarts=2, seed=5, u_size=2, v_size=1,
                           objective=objective)
        pts = trace_region(binary_model, r0, METRIC, [0.2], cfg)
        assert pts[0].rates.d <= 0.2 + 1e-9
        full = extend_with_auxiliaries(build_joint(binary_model), pts[0].scheme)
        assert lossy_point(full, r0, METRIC) == pts[0].report


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
    ({"u_size": 3, "v_size": 1}, (-1e-9, 1e-7)),
    ({}, (-1e-9, 1e-7)),
])
def test_storage_search_near_wyner_ziv(size, bounds):
    # The README sweep on the binary instance, whose (Xt, Y) pair is a doubly
    # symmetric binary source with crossover 0.26.  At |U| = 3 and at the
    # default cardinality the storage LP must land within ``bounds`` of the
    # closed form at every target, its certified lower bound must not exceed
    # the closed form, and both sizes must return the same rates (the
    # mirror descent left 1.2-3.7 mbit at |U| = 3 and up to 24.6 mbit at the
    # default cardinality).
    model = modelio.parse_model(INSTANCE)
    pair = build_joint(model).marginal_table(("Xt", "Y"))
    np.testing.assert_allclose(pair, pair.T, atol=1e-15)
    np.testing.assert_allclose(pair.sum(axis=1), 0.5, atol=1e-15)
    p0 = float(pair[0, 1] + pair[1, 0])
    targets = [0.05, 0.10, 0.15]
    points = trace_region(model, 0.0, METRIC, targets, SearchConfig(restarts=8, seed=7, **size))
    for p in points:
        wz = _wyner_ziv_dsbs(p0, p.target_d)
        assert bounds[0] <= p.rates.rw - wz <= bounds[1]
        assert p.lower_bound <= wz + 1e-9
        assert p.rates.rw - p.lower_bound <= 1e-7
        assert p.rates.d <= p.target_d
    u3 = trace_region(model, 0.0, METRIC, targets, CFG)
    assert [p.rates for p in points] == [p.rates for p in u3]


# The ternary storage optima that an LP on a 1/100 posterior grid reached on
# these models (rw at D = 0.1 and 0.2); the mirror descent stopped at
# 0.8895 / 0.5157 (seed 7) and 0.0773 (seed 3, D = 0.2) at |U| = 4.
_TERNARY_LP = {7: (0.7974, 0.4585), 3: (None, 0.0620)}


def _random_storage_case(nxt, seed):
    model = random_model(np.random.default_rng(seed), nx=3, nxt=nxt, ny=3)
    return model, DistortionMetric.hamming(nxt)


@pytest.mark.parametrize("nxt, seed", [(2, 7), (2, 3), (3, 7), (3, 3), (4, 3), (4, 7), (5, 3),
                                       (5, 7)])
def test_storage_lp_certificate_on_random_models(nxt, seed):
    model, metric = _random_storage_case(nxt, seed)
    targets = (0.1, 0.2)
    points = trace_region(model, 0.0, metric, list(targets),
                          SearchConfig(u_size=nxt + 1, v_size=1))
    obj = regions._SchemeEvaluator(model, metric)
    anchor = regions._anchor_u_rows(nxt, nxt + 1)
    draws = np.random.default_rng(seed + 1).dirichlet(np.ones(nxt + 1), size=(500, nxt))
    for p in points:
        d = p.target_d
        # (a) the certified interval holds rw, within the LP's stated gap.
        assert 0.0 <= p.rates.rw - p.lower_bound <= regions._LP_GAP
        assert p.rates.d <= d and p.scheme.u_size == nxt + 1
        assert p.scheme.v_size == 1
        # (b) no feasible scheme scores below the lower bound: the draws that
        # meet D as they are, and every draw blended toward the anchor.
        feasible = np.stack(regions._repair_feasibility(obj, draws, anchor, d))
        for t in (draws, feasible):
            rw, dist = obj.storage(t)
            assert np.all(rw[dist <= d] >= p.lower_bound)
        # (c) no worse than the grid oracle, up to the certified gap.
        try:
            best, _ = grid_minimum_storage(model, metric, d, u_size=2, step=0.1)
        except InfeasibleTargetError:
            continue
        assert p.rates.rw <= best + (p.rates.rw - p.lower_bound)
    if nxt == 3:
        for p, want in zip(points, _TERNARY_LP[seed]):
            assert want is None or p.rates.rw <= want


@pytest.mark.parametrize("nxt", [4, 5])
def test_storage_lp_certified_on_metrics_with_zero_entries(nxt):
    # Random models with 1-5 Y symbols and 2-4 reconstruction symbols, under
    # metrics with about 40 % of their entries zero, at the least distortion,
    # 30 % of the way to D_max and at D_max.  Each point is certified to the
    # LP's gap and raises nothing; a certificate from tangent-plane bounds on
    # bisected cells left 13 and 16 of these 30 points above it, by up to
    # 0.011 and 0.30 bits.
    for seed in range(2000, 2030, 3):
        rng = np.random.default_rng(seed)
        ny, nxh = rng.integers(1, 6), rng.integers(2, 5)
        model = random_model(rng, nx=rng.integers(2, 5), nxt=nxt, ny=ny)
        table = rng.uniform(0.0, 1.0, size=(nxt, nxh)) * (rng.uniform(size=(nxt, nxh)) > 0.4)
        metric = DistortionMetric(table)
        obj = regions._SchemeEvaluator(model, metric)
        d_max = float(obj.storage(np.ones((nxt, 1)))[1])
        targets = [obj.d_floor + f * (d_max - obj.d_floor) for f in (0.0, 0.3, 1.0)]
        for p in trace_region(model, 0.0, metric, targets,
                              SearchConfig(u_size=nxt + 1, v_size=1)):
            assert 0.0 <= p.rates.rw - p.lower_bound <= regions._LP_GAP
            assert p.rates.d <= p.target_d


def test_storage_lp_refuses_more_reconstruction_maps_than_its_limit():
    # 17 Y symbols and a binary reconstruction give 2^17 maps to price over.
    model = random_model(np.random.default_rng(0), nxt=2, ny=17)
    with pytest.raises(ModelError, match=r"2\^17 = 131072 reconstruction maps, above the "
                                         r"limit of 65536"):
        trace_region(model, 0.0, METRIC, [0.1], CFG)


def test_storage_lp_ignores_symbols_of_probability_zero(binary_model):
    # A third Xt symbol that never occurs leaves the storage search's answer
    # and certificate as they are; its row of P(U|Xt) is the anchor's.
    enc = StochasticMatrix(np.hstack([binary_model.meas_enc.rows, np.zeros((2, 1))]))
    model = SourceModel.from_channels(binary_model.px, enc, bsc(0.2), bsc(0.3))
    targets = [0.0, 0.05, 0.2]
    want = trace_region(binary_model, 0.0, METRIC, targets, CFG)
    got = trace_region(model, 0.0, DistortionMetric.hamming(3), targets,
                       SearchConfig(u_size=4, v_size=1))
    for p, w in zip(got, want):
        assert p.rates.rw == pytest.approx(w.rates.rw, abs=1e-12)
        assert p.lower_bound == pytest.approx(w.lower_bound, abs=1e-12)
        assert p.rates.d <= p.target_d
        np.testing.assert_array_equal(p.scheme.p_u_given_xtilde.rows[2], [0.0, 0.0, 1.0, 0.0])


def test_storage_lp_resumes_from_its_basis():
    # The storage LP solves again from its last basis after adding columns,
    # the slack indices shifted past the new ones.  On the columns that
    # pricing adds over the README sweep of the binary instance, half of them
    # solved cold and then the rest appended, that warm solve reaches the
    # cold optimum over all of them with a primal feasible x.  At D = 0.1 it
    # pivots to new columns; at D = 0.3, above D_max, the distortion row's
    # slack is in the basis.
    lp = regions._StorageLP(regions._SchemeEvaluator(modelio.parse_model(INSTANCE), METRIC))
    for d in (0.05, 0.1, 0.15):
        lp.solve(d)
    a, c = np.vstack([lp.q.T, lp.delta]), lp.psi + regions._LP_OFFSET
    n, k = a.shape[1], a.shape[1] // 2
    assert n > 20
    for d in (0.1, 0.3):
        b = np.append(lp.p_xt, d - lp.d_floor)
        _, _, basis = channels._simplex(a[:, :k], b, c[:k])
        x, _, _ = channels._simplex(a, b, c, np.where(basis >= k, basis + n - k, basis))
        cold, _, _ = channels._simplex(a, b, c)
        assert c @ x == pytest.approx(c @ cold, abs=1e-12)
        assert x.min() >= -1e-15 and np.all(a @ x <= b + 1e-12)


@pytest.mark.parametrize("steps", [0, 3, 10])
def test_storage_lp_interval_holds_at_its_step_cap(monkeypatch, steps):
    # Stopped by its cap on ascent steps, the storage LP returns a wider
    # interval, which still holds the Wyner-Ziv rate of the binary instance.
    monkeypatch.setattr(regions, "_LP_MAX_STEPS", steps)
    model = modelio.parse_model(INSTANCE)
    pair = build_joint(model).marginal_table(("Xt", "Y"))
    p0 = float(pair[0, 1] + pair[1, 0])
    points = trace_region(model, 0.0, METRIC, [0.05, 0.10, 0.15], CFG)
    assert max(p.rates.rw - p.lower_bound for p in points) > regions._LP_GAP
    for p in points:
        wz = _wyner_ziv_dsbs(p0, p.target_d)
        assert p.lower_bound <= wz + 1e-9
        assert p.rates.rw >= wz - 1e-9


@pytest.mark.parametrize("nxt, seed", [(2, 7), (3, 3)])
def test_storage_lp_matches_highs(nxt, seed):
    # The numpy simplex and HiGHS agree on the storage LP over the same
    # columns (the equality rows as equalities for HiGHS).  HiGHS's default
    # feasibility tolerances (1e-7) once left it 1.8e-9 short of the optimum.
    linprog = pytest.importorskip("scipy.optimize").linprog
    model, metric = _random_storage_case(nxt, seed)
    lp = regions._StorageLP(regions._SchemeEvaluator(model, metric))
    for d in (0.1, 0.2):
        w, _ = lp.solve(d)
        res = linprog(-lp.psi, A_ub=lp.delta[None], b_ub=[d - lp.d_floor], A_eq=lp.q.T,
                      b_eq=lp.p_xt, bounds=(0.0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.success
        assert w @ lp.psi == pytest.approx(-res.fun, abs=1e-9)


def test_leakage_searches_reach_the_lower_leakage():
    # Secrecy leakage at r0 = 0 and privacy leakage at r0 = 0.1, D = 0.10,
    # (|U|, |V|, |Q|) = (3, 2, 2), one restart.  The finite-difference
    # descent stopped at rs = 0.455343 although the rl search found a scheme
    # with rs = 0.4236; it reached rl = 0.111692.
    model = modelio.parse_model(INSTANCE)
    sizes = dict(restarts=1, seed=7, u_size=3, v_size=2)
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
