import math

import numpy as np
import pytest

from conftest import h2, mi_oracle, random_model, star
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
    RateTuple,
    RegimeReport,
    SearchConfig,
    corollary_point,
    extend_with_auxiliaries,
    lossless_point,
    lossy_point,
    optimal_reconstruction,
    r_prime,
    simplex_grid,
    trace_region,
    _SchemeEvaluator,
)
from secsource.probability import DimensionError, ModelError


def _random_aux(rng, nxt, nu=None, nv=2) -> AuxScheme:
    nu = nu if nu is not None else nxt + 1
    return AuxScheme(
        StochasticMatrix(rng.dirichlet(np.ones(nu), size=nxt)),
        StochasticMatrix(rng.dirichlet(np.ones(nv), size=nu)),
    )


class TestExtension:
    def test_identity_auxiliary_recovers_source_entropy(self, binary_joint):
        full = extend_with_auxiliaries(binary_joint, AuxScheme.identity(2))
        h_xt = binary_joint.entropy(("Xt",))
        assert full.mutual_information(("U",), ("Xt",)) == pytest.approx(h_xt, abs=1e-12)

    def test_constant_row_independent(self, binary_joint):
        aux = AuxScheme.from_channels(StochasticMatrix(np.full((2, 3), 1 / 3)))
        full = extend_with_auxiliaries(binary_joint, aux)
        for var in ("Xt", "X", "Y", "Z"):
            assert full.mutual_information(("U",), (var,)) <= 1e-12

    def test_bsc_auxiliary(self, binary_joint):
        full = extend_with_auxiliaries(binary_joint, AuxScheme.from_channels(bsc(0.1)))
        want = 1.0 - h2(0.1)
        assert want == pytest.approx(0.531004, abs=5e-7)
        assert full.mutual_information(("U",), ("Xt",)) == pytest.approx(want, abs=1e-12)

    def test_factorization_markov_certificates(self, binary_joint):
        rng = np.random.default_rng(11)
        for _ in range(25):
            full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2))
            assert full.mutual_information(("V",), ("Xt", "X", "Y", "Z"), ("U",)) <= 1e-9
            assert full.mutual_information(("U",), ("X", "Y", "Z"), ("Xt",)) <= 1e-9

    def test_dimension_mismatch(self, binary_joint):
        with pytest.raises(Exception):
            extend_with_auxiliaries(binary_joint, AuxScheme.identity(3))


class TestRPrime:
    def test_positive_difference_clamps_to_zero(self, binary_joint):
        # Swapped channels: Z = BSC(0.1) is better than Y = BSC(0.3) for U.
        model = SourceModel.from_channels(Pmf.uniform(2), bsc(0.1), bsc(0.3), bsc(0.1))
        full = extend_with_auxiliaries(build_joint(model), AuxScheme.identity(2))
        assert r_prime(full) == 0.0

    def test_negative_branch_value(self, binary_joint):
        full = extend_with_auxiliaries(binary_joint, AuxScheme.identity(2))
        # Oracle: with V constant, R' = I(Xt;Z) - I(Xt;Y) < 0 here.
        i_xtz = binary_joint.mutual_information(("Xt",), ("Z",))
        i_xty = binary_joint.mutual_information(("Xt",), ("Y",))
        assert i_xtz < i_xty
        assert r_prime(full) == pytest.approx(i_xtz - i_xty, abs=1e-12)

    def test_never_positive(self, binary_joint):
        rng = np.random.default_rng(3)
        for _ in range(50):
            full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2))
            assert r_prime(full) <= 0.0

    def test_q_drawn_from_v_changes_no_bound(self):
        # A Q drawn from P(Q|V) is independent of (U, Y, Z) given V, so
        # conditioning on it moves neither R' nor I(U;Xt|Y,V): the reason
        # the schemes carry no Q.  The 7-axis joint is built here alone.
        rng = np.random.default_rng(73)
        negative = 0
        for trial in range(24):
            nxt, nq = 2 + trial % 2, 2 + (trial // 2) % 2
            model = random_model(rng, nx=3, nxt=nxt, ny=3, nz=3)
            aux = _random_aux(rng, nxt, nv=3)
            p_q = rng.dirichlet(np.ones(nq), size=3)
            seven = JointPmf(("Q", "V", "U", "Xt", "X", "Y", "Z"), np.einsum(
                "vq,uv,au,axyz->qvuaxyz", p_q, aux.p_v_given_u.rows,
                aux.p_u_given_xtilde.rows, build_joint(model).table))
            diff = (seven.mutual_information(("U",), ("Z",), ("V", "Q"))
                    - seven.mutual_information(("U",), ("Y",), ("V", "Q")))
            t_low = seven.mutual_information(("U",), ("Xt",), ("Y", "V", "Q"))
            full = extend_with_auxiliaries(build_joint(model), aux)
            assert r_prime(full) == pytest.approx(min(diff, 0.0), abs=1e-12)
            rep = lossy_point(full, 0.0, DistortionMetric.hamming(nxt))
            assert rep.threshold_low == pytest.approx(max(t_low, 0.0), abs=1e-12)
            negative += diff < -1e-6
        assert negative >= 5

    def test_less_noisy_degraded_gives_zero(self):
        # Z strictly better than Y (degraded), any aux: R' = 0.
        rng = np.random.default_rng(4)
        model = SourceModel.from_channels(Pmf.uniform(2), bsc(0.1), bsc(0.25), bsc(0.05))
        joint = build_joint(model)
        for _ in range(20):
            full = extend_with_auxiliaries(joint, _random_aux(rng, 2))
            assert r_prime(full) == 0.0


class TestOptimalReconstruction:
    def test_lossless_identity(self, binary_joint):
        full = extend_with_auxiliaries(binary_joint, AuxScheme.identity(2))
        recon, dist = optimal_reconstruction(full, DistortionMetric.hamming(2))
        assert dist == pytest.approx(0.0, abs=1e-15)
        # On positive-probability cells the map echoes u.
        for u in range(2):
            for y in range(2):
                assert recon[u, y] == u

    def test_side_information_suffices(self):
        model = SourceModel.from_channels(
            Pmf.uniform(2), StochasticMatrix.identity(2),
            StochasticMatrix.identity(2), StochasticMatrix.identity(2),
        )
        aux = AuxScheme.from_channels(StochasticMatrix.constant(2, 1))
        full = extend_with_auxiliaries(build_joint(model), aux)
        recon, dist = optimal_reconstruction(full, DistortionMetric.hamming(2))
        assert dist == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(recon[0], [0, 1])  # xhat(u, y) = y

    def test_constant_everything_prior_argmin(self):
        # Xt ~ (0.25, 0.75), U and Y carry nothing: xhat = 1, distortion 0.25.
        model = SourceModel.from_channels(
            Pmf(np.array([0.25, 0.75])), StochasticMatrix.identity(2),
            StochasticMatrix.constant(2, 2), StochasticMatrix.constant(2, 2),
        )
        aux = AuxScheme.from_channels(StochasticMatrix.constant(2, 1))
        full = extend_with_auxiliaries(build_joint(model), aux)
        recon, dist = optimal_reconstruction(full, DistortionMetric.hamming(2))
        assert np.all(recon == 1)
        assert dist == pytest.approx(0.25, abs=1e-12)

    def test_dominates_random_maps(self, binary_joint):
        rng = np.random.default_rng(17)
        full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2, nu=3))
        metric = DistortionMetric.hamming(2)
        _, best = optimal_reconstruction(full, metric)
        p = full.marginal_table(("U", "Xt", "Y"))
        for _ in range(100):
            user = rng.integers(0, 2, size=(3, 2))
            assert best <= np.einsum("uay,auy->", p, metric.table[:, user]) + 1e-12


class TestLossyPoint:
    def test_large_key_exact_zeros(self, binary_joint):
        rng = np.random.default_rng(23)
        metric = DistortionMetric.hamming(2)
        for _ in range(10):
            full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2))
            t_high = full.mutual_information(("U",), ("Xt",), ("Y",))
            rep = lossy_point(full, t_high, metric)  # equality -> higher regime
            assert rep.regime == "large_key"
            assert rep.bounds.rs == 0.0 and rep.bounds.rl == 0.0

    def test_scheme_evaluator_matches_reference(self, binary_model, binary_joint):
        # The searches score schemes with _SchemeEvaluator; it must reproduce
        # lossy_point on the 6-axis joint in every regime.
        rng = np.random.default_rng(41)
        metric = DistortionMetric.hamming(2)
        evaluator = _SchemeEvaluator(binary_model, metric)
        seen = set()
        for nu, nv in ((3, 2), (25, 5)):
            for _ in range(8):
                aux = _random_aux(rng, 2, nu=nu, nv=nv)
                mats = (aux.p_u_given_xtilde.rows, aux.p_v_given_u.rows)
                full = extend_with_auxiliaries(binary_joint, aux)
                ref = lossy_point(full, 0.0, metric)
                lo, hi = ref.threshold_low, ref.threshold_high
                assert lo > 1e-6 and hi - lo > 1e-6
                for r0 in (0.5 * lo, 0.5 * (lo + hi), hi + 0.1):
                    want = lossy_point(full, r0, metric)
                    got = evaluator.evaluate(*mats, r0)
                    assert got.regime == want.regime
                    seen.add(got.regime)
                    for attr in ("threshold_low", "threshold_high", "r_prime"):
                        assert getattr(got, attr) == pytest.approx(getattr(want, attr), abs=1e-12)
                    for attr in ("rw", "rs", "rl", "d"):
                        assert getattr(got.bounds, attr) == pytest.approx(
                            getattr(want.bounds, attr), abs=1e-12
                        )
                # Exactly at a threshold the higher regime applies.
                at_low = evaluator.evaluate(*mats, got.threshold_low)
                at_high = evaluator.evaluate(*mats, got.threshold_high)
                assert at_low.regime == "middle_key" and at_high.regime == "large_key"
        assert seen == {"small_key", "middle_key", "large_key"}

    def test_source_tables_match_the_joint_marginals(self, binary_model, binary_joint):
        # The evaluator's source tables are products of two channel tables,
        # not sums of build_joint's cells, so they agree with the joint's
        # marginals to rounding rather than bit for bit.
        evaluator = _SchemeEvaluator(binary_model, DistortionMetric.hamming(2))
        for table, axes in ((evaluator.p_xt_x, ("Xt", "X")), (evaluator.p_xt_y, ("Xt", "Y")),
                            (evaluator.p_xt_z, ("Xt", "Z"))):
            want = binary_joint.marginal_table(axes)
            np.testing.assert_allclose(table, want, rtol=0.0, atol=1e-15)

    def test_coupled_side_information_reads_only_its_marginals(self):
        # P(y,z|x) need not be a product: the decoder's and the eavesdropper's
        # measurements may be coupled given X.  No bound conditions on Y and Z
        # together, so the evaluator reads only P(y|x) and P(z|x).  Entries
        # are multiples of 1/64, so the product of the marginals has exactly
        # the coupled model's marginals, and the evaluator gives both models
        # the same bits.  On the coupled joint it agrees with lossy_point.
        rng = np.random.default_rng(71)
        metric = DistortionMetric.hamming(2)
        seen = set()
        for nx, ny, nz in ((2, 2, 2), (3, 2, 3), (3, 3, 2)):
            # Most of the mass where z = y mod |Z|.
            weight = np.where(np.arange(ny)[:, None] % nz == np.arange(nz), 4.0, 0.2)
            counts = rng.multinomial(64, rng.dirichlet(weight.ravel()), size=nx)
            coupled = SourceModel(Pmf(rng.dirichlet(np.ones(nx))),
                                  StochasticMatrix(rng.dirichlet(np.ones(2), size=nx)),
                                  StochasticMatrix(counts / 64.0), ny, nz)
            py, pz = coupled.p_y_given_x(), coupled.p_z_given_x()
            product = SourceModel.from_channels(coupled.px, coupled.meas_enc, py, pz)
            np.testing.assert_array_equal(product.p_y_given_x().rows, py.rows)
            np.testing.assert_array_equal(product.p_z_given_x().rows, pz.rows)
            assert np.abs(coupled.yz_table() - product.yz_table()).max() > 0.05
            on_coupled = _SchemeEvaluator(coupled, metric)
            on_product = _SchemeEvaluator(product, metric)
            joint = build_joint(coupled)
            for _ in range(6):
                aux = _random_aux(rng, 2, nu=3, nv=2)
                mats = (aux.p_u_given_xtilde.rows, aux.p_v_given_u.rows)
                full = extend_with_auxiliaries(joint, aux)
                lo, hi = (lambda r: (r.threshold_low, r.threshold_high))(
                    lossy_point(full, 0.0, metric))
                for r0 in (0.5 * lo, 0.5 * (lo + hi), hi + 0.1):
                    got = on_coupled.evaluate(*mats, r0)
                    assert got == on_product.evaluate(*mats, r0)
                    want = lossy_point(full, r0, metric)
                    assert got.regime == want.regime
                    seen.add(got.regime)
                    for attr in ("rs", "rl"):
                        assert getattr(got.bounds, attr) == pytest.approx(
                            getattr(want.bounds, attr), abs=1e-12)
        assert seen == {"small_key", "middle_key", "large_key"}

    def test_storage_same_bits_alone_and_in_a_stack(self):
        # The grid oracle scores blocks of cells at once; its argmin is the
        # one a cell-by-cell scan returns only if the evaluator gives each
        # P(U|Xt) the same bits alone as inside any stack.  One product over
        # all the stack's rows would not: under OpenBLAS it gives some of the
        # |Xt| = 16 matrices here other bits than alone, at |U| = 1 too.
        rng = np.random.default_rng(47)
        for nxt in (2, 3, 16):
            model = random_model(rng, nx=3, nxt=nxt, ny=3)
            evaluator = _SchemeEvaluator(model, DistortionMetric.hamming(nxt))
            for nu in (1, 2, 3, 9, 25):
                grid = simplex_grid(nu, 0.25)  # rows with exact zeros
                stack = np.concatenate([
                    rng.dirichlet(np.ones(nu), size=(30, nxt)),
                    grid[rng.integers(len(grid), size=(30, nxt))],
                ])
                rw, dist = evaluator.storage(stack)
                rw_4d, dist_4d = evaluator.storage(stack.reshape(6, 10, nxt, nu))
                np.testing.assert_array_equal(rw_4d.ravel(), rw)
                np.testing.assert_array_equal(dist_4d.ravel(), dist)
                for i, t in enumerate(stack):
                    alone = evaluator.storage(t.copy())
                    assert alone[0] == rw[i] and alone[1] == dist[i]

    def test_noiseless_y_gives_all_zero(self):
        model = SourceModel.from_channels(
            Pmf.uniform(2), StochasticMatrix.identity(2),
            StochasticMatrix.identity(2), bsc(0.3),
        )
        full = extend_with_auxiliaries(build_joint(model), AuxScheme.identity(2))
        rep = lossy_point(full, 0.0, DistortionMetric.hamming(2))
        assert rep.regime == "large_key"
        assert rep.bounds.rw == pytest.approx(0.0, abs=1e-12)
        assert rep.bounds.rs == 0.0 and rep.bounds.rl == 0.0

    def test_binary_instance_small_key_oracle(self, binary_model, binary_joint):
        # Brute-force oracle: all terms from the exact joint table.
        full = extend_with_auxiliaries(binary_joint, AuxScheme.identity(2))
        rep = lossy_point(full, 0.0, DistortionMetric.hamming(2))
        crossover_y = star(0.1, 0.2)
        crossover_z = star(0.1, 0.3)
        h_xt_y = h2(crossover_y)
        h_xt_z = h2(crossover_z)
        rpp = (1.0 - h_xt_z) - (1.0 - h_xt_y)  # I(Xt;Z) - I(Xt;Y) < 0
        assert rep.regime == "small_key"
        assert rep.bounds.rw == pytest.approx(h_xt_y, abs=1e-12)
        assert rep.bounds.rs == pytest.approx(h_xt_z + rpp, abs=1e-12)
        # privacy: I(Xt;X|Z) + R'' with I(Xt;X|Z) = H(Xt|Z) - H(Xt|X)
        want_rl = (h_xt_z - h2(0.1)) + rpp
        assert rep.bounds.rl == pytest.approx(want_rl, abs=1e-12)
        assert rep.bounds.d == 0.0

    def test_negative_r0_rejected(self, binary_joint):
        full = extend_with_auxiliaries(binary_joint, AuxScheme.identity(2))
        with pytest.raises(ValueError):
            lossy_point(full, -0.1, DistortionMetric.hamming(2))

    def test_small_key_slope_minus_one(self, binary_joint):
        rng = np.random.default_rng(29)
        metric = DistortionMetric.hamming(2)
        for _ in range(5):
            full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2))
            t_low = full.mutual_information(("U",), ("Xt",), ("Y", "V"))
            base = lossy_point(full, 0.0, metric)
            if base.regime != "small_key" or base.bounds.rs <= 0.0:
                continue
            stop = min(t_low, base.bounds.rs, base.bounds.rl) * 0.9
            grid = np.linspace(0.0, stop, 5)
            for r0 in grid:
                rep = lossy_point(full, float(r0), metric)
                assert rep.bounds.rs == pytest.approx(base.bounds.rs - r0, abs=1e-9)
                assert rep.bounds.rl == pytest.approx(base.bounds.rl - r0, abs=1e-9)

    def test_middle_key_bounds(self, binary_joint):
        rng = np.random.default_rng(31)
        metric = DistortionMetric.hamming(2)
        found = 0
        for _ in range(50):
            full = extend_with_auxiliaries(binary_joint, _random_aux(rng, 2))
            t_low = full.mutual_information(("U",), ("Xt",), ("Y", "V"))
            t_high = full.mutual_information(("U",), ("Xt",), ("Y",))
            if t_high - t_low < 1e-3:
                continue
            r0 = 0.5 * (t_low + t_high)
            rep = lossy_point(full, r0, metric)
            assert rep.regime == "middle_key"
            assert rep.bounds.rs == pytest.approx(
                full.mutual_information(("V",), ("Xt",), ("Z",)), abs=1e-12
            )
            assert rep.bounds.rl == pytest.approx(
                full.mutual_information(("V",), ("X",), ("Z",)), abs=1e-12
            )
            found += 1
        assert found >= 10


class TestLosslessPoint:
    def test_constant_v_specialization(self, binary_joint):
        rep = lossless_point(binary_joint, StochasticMatrix.constant(2, 1), 0.0)
        h_xt_z = binary_joint.entropy(("Xt", "Z")) - binary_joint.entropy(("Z",))
        i_xtz = binary_joint.mutual_information(("Xt",), ("Z",))
        i_xty = binary_joint.mutual_information(("Xt",), ("Y",))
        rpp = min(i_xtz - i_xty, 0.0)
        assert rep.bounds.rs == pytest.approx(h_xt_z + rpp, abs=1e-12)
        assert rep.bounds.d == 0.0

    def test_large_key_zeroes(self, binary_joint):
        h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
        rep = lossless_point(binary_joint, StochasticMatrix.constant(2, 1), h_xt_y + 0.01)
        assert rep.regime == "large_key"
        assert rep.bounds.rs == 0.0 and rep.bounds.rl == 0.0

    def test_equals_lossy_with_identity_u(self):
        rng = np.random.default_rng(101)
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
                assert getattr(lossless.bounds, attr) == pytest.approx(
                    getattr(lossy.bounds, attr), abs=1e-9
                )
            assert lossless.regime == lossy.regime

    def test_cardinality_default_enforced(self, binary_joint):
        with pytest.raises(ModelError):
            lossless_point(binary_joint, StochasticMatrix(np.full((2, 5), 0.2)), 0.0)


class TestCorollaryPoint:
    def test_null_auxiliary(self, binary_model, binary_joint):
        aux = StochasticMatrix.constant(2, 1)
        metric = DistortionMetric.hamming(2)
        pt = corollary_point(binary_model, aux, metric)
        assert pt.rw == 0.0 and pt.rs == 0.0 and pt.rl == 0.0
        # D_max: no-encoder distortion = best constant / side-info-only guess.
        full = extend_with_auxiliaries(binary_joint, AuxScheme.from_channels(aux))
        _, dmax = optimal_reconstruction(full, metric)
        assert pt.d == pytest.approx(dmax, abs=1e-12)

    def test_identity_auxiliary(self, binary_model, binary_joint):
        pt = corollary_point(binary_model, StochasticMatrix.identity(2),
                             DistortionMetric.hamming(2))
        h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
        assert pt.rw == pytest.approx(h_xt_y, abs=1e-12)
        assert pt.d == 0.0

    def test_bsc_auxiliary_direct_oracle(self, binary_model, binary_joint):
        aux = bsc(0.15)
        pt = corollary_point(binary_model, aux, DistortionMetric.hamming(2))
        # Oracle: loop-built pairwise joints + plain-loop MI.
        t = aux.rows
        p_xt = binary_joint.marginal_table(("Xt",))
        j_u_xt = (p_xt[:, None] * t).T
        pairs = {}
        for other in ("X", "Y", "Z"):
            m = binary_joint.marginal_table(("Xt", other))
            pairs[other] = t.T @ m
        want_rw = mi_oracle(j_u_xt) - mi_oracle(pairs["Y"])
        want_rs = mi_oracle(j_u_xt) - mi_oracle(pairs["Z"])
        want_rl = mi_oracle(pairs["X"]) - mi_oracle(pairs["Z"])
        assert pt.rw == pytest.approx(want_rw, abs=1e-12)
        assert pt.rs == pytest.approx(want_rs, abs=1e-12)
        assert pt.rl == pytest.approx(want_rl, abs=1e-12)

    def test_equals_small_key_lossy_when_r_prime_zero(self):
        # Degraded instances: Y = Z followed by extra noise.
        rng = np.random.default_rng(77)
        from secsource.channels import check_stochastic_degraded

        metric = DistortionMetric.hamming(2)
        checked = 0
        for _ in range(20):
            p_z = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
            post = StochasticMatrix(rng.dirichlet(np.ones(2), size=2))
            p_y = StochasticMatrix(p_z.rows @ post.rows)
            model = SourceModel.from_channels(
                Pmf(rng.dirichlet(np.ones(2))),
                StochasticMatrix(rng.dirichlet(np.ones(2), size=2)),
                p_y,
                p_z,
            )
            assert check_stochastic_degraded(p_y, p_z).feasible
            joint = build_joint(model)
            aux_u = StochasticMatrix(rng.dirichlet(np.ones(3), size=2))
            full = extend_with_auxiliaries(joint, AuxScheme.from_channels(aux_u))
            rep = lossy_point(full, 0.0, metric)
            if rep.r_prime != 0.0 or rep.regime != "small_key":
                continue
            pt = corollary_point(model, aux_u, metric)
            for attr in ("rw", "rs", "rl", "d"):
                assert getattr(pt, attr) == pytest.approx(
                    getattr(rep.bounds, attr), abs=1e-9
                )
            checked += 1
        assert checked >= 10


def test_rate_tuple_validation():
    with pytest.raises(ModelError):
        RateTuple(rw=-0.1, rs=0.0, rl=0.0, d=0.0)
    with pytest.raises(ModelError):
        RateTuple(rw=math.inf, rs=0.0, rl=0.0, d=0.0)


_ZERO_RATES = RateTuple(rw=0.0, rs=0.0, rl=0.0, d=0.0)
_HALVES = StochasticMatrix.constant(3, 2)  # three inputs, two outputs

# case: (error, message, call(model, joint))
_MALFORMED = {
    "no_targets": (
        ValueError, "targets must be non-empty",
        lambda m, j: trace_region(m, 0.0, DistortionMetric.hamming(2), [], SearchConfig())),
    "p_v_given_u_size": (
        DimensionError, r"P\(V\|U\) input size must equal \|U\|",
        lambda m, j: AuxScheme(bsc(0.1), _HALVES)),
    # A P(Q|V) passed third is refused: the reconstruction map is
    # keyword-only, so the matrix never reaches the map's integer check.
    "positional_p_q_given_v": (
        TypeError, "takes 3 positional arguments but 4 were given",
        lambda m, j: AuxScheme(bsc(0.1), bsc(0.1), StochasticMatrix.constant(2))),
    "reconstruction_rows": (
        DimensionError, r"reconstruction map must be \(\|U\|, \|Y\|\)",
        lambda m, j: AuxScheme.from_channels(bsc(0.1), reconstruction=np.zeros((3, 2)))),
    "reconstruction_not_2d": (
        DimensionError, r"reconstruction map must be \(\|U\|, \|Y\|\)",
        lambda m, j: AuxScheme.from_channels(bsc(0.1), reconstruction=np.zeros(2))),
    "metric_not_2d": (
        DimensionError, "distortion table must be 2-D and non-empty",
        lambda m, j: DistortionMetric(np.zeros(2))),
    "metric_negative": (
        ModelError, "distortion entries must be finite and non-negative",
        lambda m, j: DistortionMetric(np.array([[0.0, -1.0], [1.0, 0.0]]))),
    "unknown_regime": (
        ModelError, "unknown regime 'no_key'",
        lambda m, j: RegimeReport("no_key", 0.0, 0.0, 0.0, _ZERO_RATES)),
    "positive_r_prime": (
        ModelError, "r_prime must be non-positive",
        lambda m, j: RegimeReport("small_key", 0.0, 0.0, 0.1, _ZERO_RATES)),
    "lossy_point_of_a_4_axis_joint": (
        DimensionError, "lossy_point expects axes",
        lambda m, j: lossy_point(j, 0.0, DistortionMetric.hamming(2))),
    "reconstruction_metric_rows": (
        DimensionError, r"distortion table rows must match \|Xt\|",
        lambda m, j: optimal_reconstruction(extend_with_auxiliaries(j, AuxScheme.identity(2)),
                                            DistortionMetric.hamming(3))),
    "lossless_p_v_size": (
        DimensionError, r"P\(V\|Xt\) input size must equal \|Xt\|",
        lambda m, j: lossless_point(j, StochasticMatrix.constant(3), 0.0)),
    "corollary_p_u_size": (
        DimensionError, r"P\(U\|Xt\) input size must equal \|Xt\|",
        lambda m, j: corollary_point(m, _HALVES, DistortionMetric.hamming(2))),
    "grid_step": (
        ModelError, "grid_step must divide 1",
        lambda m, j: simplex_grid(3, 0.3)),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_inputs_refused(case, binary_model, binary_joint):
    error, message, call = _MALFORMED[case]
    with pytest.raises(error, match=message) as raised:
        call(binary_model, binary_joint)
    assert type(raised.value) is error
