import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import h2, random_model, star
from secsource.binning import (
    _log2_sum_exp,
    BinningRates,
    BinningScaleError,
    DecodeSearchError,
    collision_free_probability,
    decode,
    design_code,
    encode,
    exact_leakage,
    exact_message_table,
    log2_competitor_count,
    padded_indices_mutual_information,
    run_experiment,
)
from secsource.probability import (
    Pmf,
    SourceModel,
    StochasticMatrix,
    bsc,
    build_joint,
    compositions,
    entropy_bits,
)
from secsource.regions import AuxScheme, extend_with_auxiliaries


def _full6(model, aux=None):
    aux = aux if aux is not None else AuxScheme.identity(model.xtilde_size)
    return extend_with_auxiliaries(build_joint(model), aux)


@pytest.fixture(scope="module")
def binary_full6(binary_model):
    return _full6(binary_model)


class TestDesign:
    def test_constant_v_degenerate_layer(self, binary_full6):
        code = design_code(binary_full6, n=8, epsilon=0.1, r0=0.0, seed=1)
        assert code.rates.rv_tilde == 0.0 and code.rates.rv == 0.0
        assert code.bits.f_v == 0 and code.bits.w_v == 0

    def test_identity_u_rate_choice(self, binary_full6, binary_joint):
        # U = Xt, V constant, eps = 0.1: r_u = H(Xt|Y) + 0.2.
        code = design_code(binary_full6, n=8, epsilon=0.1, r0=0.0, seed=1)
        h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
        assert code.rates.ru == pytest.approx(h_xt_y + 0.2, abs=1e-12)
        assert code.rates.ru_tilde == 0.0  # H(U|V,Xt) = 0
        assert code.mode == "key_slot"

    def test_pad_regime_thresholds(self, binary_full6, binary_joint):
        h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
        eps = 0.1
        mid = design_code(binary_full6, n=8, epsilon=eps, r0=h_xt_y + 2 * eps, seed=1)
        assert mid.mode == "pad_u"
        big = design_code(binary_full6, n=8, epsilon=eps, r0=h_xt_y + 4 * eps, seed=1)
        assert big.mode == "pad_all"
        # In the pad_u regime W_u keeps its full rate and K_u disappears.
        assert mid.rates.ru == pytest.approx(h_xt_y + 2 * eps, abs=1e-12)
        assert mid.bits.k_u == 0

    def test_bin_assignment_determinism(self, binary_full6):
        a = design_code(binary_full6, n=10, epsilon=0.15, r0=0.0, seed=9)
        b = design_code(binary_full6, n=10, epsilon=0.15, r0=0.0, seed=9)
        for ta, tb in zip(a.tables, b.tables):
            np.testing.assert_array_equal(ta, tb)
        c = design_code(binary_full6, n=10, epsilon=0.15, r0=0.0, seed=10)
        assert any(not np.array_equal(ta, tc) for ta, tc in zip(a.tables, c.tables))

    def test_rate_bookkeeping(self, binary_full6, binary_joint):
        # Transmitted bits/symbol = r0 + r_v + r_u within ceil rounding.
        n, eps = 50, 0.1
        code = design_code(binary_full6, n=n, epsilon=eps, r0=0.05, seed=2)
        total = code.message_bits() / n
        want = code.rates.r0 + code.rates.rv + code.rates.ru
        assert total == pytest.approx(want, abs=3.0 / n + 1e-9)

    def test_storage_accounting_nondegenerate_v(self, binary_model, binary_joint):
        # With a live V layer, r0 + r_v + r_u telescopes to I(U;Xt|Y) + 4 eps.
        n, eps = 50, 0.1
        aux = AuxScheme(bsc(0.2), bsc(0.1), StochasticMatrix.constant(2, 1))
        full = _full6(binary_model, aux)
        code = design_code(full, n=n, epsilon=eps, r0=0.0, seed=2,
                           reconstruction=np.tile([0, 1], (2, 1)))
        i_u_xt_y = full.mutual_information(("U",), ("Xt",), ("Y",))
        total = code.message_bits() / n
        assert code.rates.rv + code.rates.ru == pytest.approx(
            i_u_xt_y + 4 * eps, abs=1e-9
        )
        assert total == pytest.approx(i_u_xt_y + 4 * eps, abs=3.0 / n + 1e-9)

    def test_validation(self, binary_full6):
        with pytest.raises(ValueError):
            design_code(binary_full6, n=0, epsilon=0.1, r0=0.0)
        with pytest.raises(ValueError):
            design_code(binary_full6, n=8, epsilon=0.0, r0=0.0)
        with pytest.raises(ValueError):
            design_code(binary_full6, n=8, epsilon=0.1, r0=-1.0)


class TestEncode:
    def test_deterministic_aux_deterministic_layers(self, binary_full6):
        code = design_code(binary_full6, n=6, epsilon=0.1, r0=0.0, seed=3)
        xt = np.array([0, 1, 1, 0, 1, 0])
        m1 = encode(code, xt, (0,), seed=4)
        m2 = encode(code, xt, (0,), seed=99)
        # U = Xt deterministically, so the message ignores the sampling seed.
        assert m1 == m2

    def test_key_changes_only_padded_coordinates(self, binary_model):
        aux = AuxScheme.from_channels(bsc(0.2))
        full = _full6(binary_model, aux)
        code = design_code(full, n=4, epsilon=0.1, r0=3.0, seed=5,
                           metric=None, reconstruction=np.tile([0, 1], (2, 1)))
        assert code.mode == "pad_all"
        xt = np.array([0, 1, 0, 1])
        seen_wv, seen_wu = set(), set()
        base = encode(code, xt, (0, 0), seed=6)
        for kv in range(1 << code.bits.w_v):
            for ku in range(1 << code.bits.w_u):
                m = encode(code, xt, (kv, ku), seed=6)
                assert (m.f_v, m.f_u) == (base.f_v, base.f_u)
                seen_wv.add(m.w_v)
                seen_wu.add(m.w_u)
        # Over all keys each padded coordinate sweeps its full range.
        assert len(seen_wv) == 1 << code.bits.w_v
        assert len(seen_wu) == 1 << code.bits.w_u

    def test_r0_zero_key_slot_trivial(self, binary_full6):
        code = design_code(binary_full6, n=6, epsilon=0.1, r0=0.0, seed=3)
        msg = encode(code, np.zeros(6, dtype=int), (0,), seed=1)
        assert msg.key_slot == 0  # K_u range is a single value at r0 = 0

    def test_length_and_key_validation(self, binary_full6):
        code = design_code(binary_full6, n=6, epsilon=0.1, r0=0.0, seed=3)
        with pytest.raises(Exception):
            encode(code, np.zeros(5, dtype=int), (0,), seed=1)
        with pytest.raises(ValueError):
            encode(code, np.zeros(6, dtype=int), (1,), seed=1)  # key out of range


class TestDecode:
    def test_noiseless_side_information(self):
        model = SourceModel.from_channels(
            Pmf.uniform(2), StochasticMatrix.identity(2),
            StochasticMatrix.identity(2), bsc(0.3),
        )
        full = _full6(model)
        # With y = xt only the true sequence has positive likelihood, so the
        # decoder succeeds exactly when it removes the key from the fields
        # the pad mode pads; random keys exercise each of them.
        for r0, mode in ((0.0, "key_slot"), (0.15, "key_slot"), (0.3, "pad_u"), (1.0, "pad_all")):
            code = design_code(full, n=10, epsilon=0.1, r0=r0, seed=7)
            assert code.mode == mode and (r0 == 0.0 or sum(code.key_bit_widths()) > 0)
            rng = np.random.default_rng(0)
            for _ in range(25):
                xt = rng.integers(0, 2, size=10)
                key = code.draw_key(rng)
                msg = encode(code, xt, key, seed=int(rng.integers(1 << 30)))
                xhat, ok = decode(code, xt, key, msg)  # y = xt here
                assert ok and np.array_equal(xhat, xt)

    def test_large_space_raises(self, binary_full6):
        code = design_code(binary_full6, n=100, epsilon=0.15, r0=0.0, seed=7)
        with pytest.raises(DecodeSearchError):
            decode(code, np.zeros(100, dtype=int), (0,),
                   dataclasses.replace(encode_dummy()))

    def test_encode_large_space_raises(self, binary_full6):
        code = design_code(binary_full6, n=100, epsilon=0.15, r0=0.0, seed=7)
        assert not code.materialized
        with pytest.raises(BinningScaleError, match="materialized bin tables"):
            encode(code, np.zeros(100, dtype=int), (0,))

    def test_roundtrip_through_pad_modes(self):
        # Y is Xt through a BSC(0.04), so H(Xt|Y) = 0.242 and, at epsilon
        # 0.02, r0 = 0.15, 0.3 and 1.0 give the key slot with key bits, pad U
        # and pad all.  decode must return what an ML search over the U bin
        # does, the bin found from ``code.tables`` with the key removed here
        # by hand; it is the only check of key removal with a noisy y.
        model = SourceModel.from_channels(
            Pmf.uniform(2), StochasticMatrix.identity(2), bsc(0.04), bsc(0.3),
        )
        full = _full6(model)
        p_xt_y = full.marginal_table(("Xt", "Y"))
        log_u_y = np.log(p_xt_y / p_xt_y.sum(axis=0))  # ln P(u | y), U = Xt
        n = 10
        seqs = np.array(list(itertools.product(range(2), repeat=n)))  # big-endian index
        rng = np.random.default_rng(31)
        for r0, mode in ((0.15, "key_slot"), (0.3, "pad_u"), (1.0, "pad_all")):
            code = design_code(full, n=n, epsilon=0.02, r0=r0, seed=8)
            assert code.mode == mode and sum(code.key_bit_widths()) > 0
            assert code.v_size == 1 and (code.bits.f_v, code.bits.w_v) == (0, 0)
            f_u, w_u, k_u = code.tables[2:]
            noisy = 0
            for _ in range(40):
                xt, _, y, _ = _sample_block(model, n, rng)
                noisy += not np.array_equal(xt, y)
                key = code.draw_key(rng)
                msg = encode(code, xt, key, seed=int(rng.integers(1 << 30)))
                xhat, unique = decode(code, y, key, msg)

                in_bin = f_u == msg.f_u
                if mode == "key_slot":
                    in_bin &= (w_u == msg.w_u) & (
                        k_u == (msg.key_slot - key[0]) % (1 << code.bits.k_u))
                else:  # the last key component pads W_u; K_u has no bits
                    assert code.bits.k_u == 0 and msg.key_slot == 0
                    in_bin &= w_u == (msg.w_u - key[-1]) % (1 << code.bits.w_u)
                assert in_bin[int("".join(map(str, xt)), 2)]  # the truth is in its bin
                cand = np.flatnonzero(in_bin)
                ll = log_u_y[seqs[cand], y].sum(axis=1)
                best = cand[ll >= ll.max() - 1e-6]
                assert unique == (best.size == 1)
                assert any(np.array_equal(xhat, seqs[i]) for i in best)
            assert noisy >= 5


def encode_dummy():
    from secsource.binning import Message

    return Message(0, 0, 0, 0, 0)


def _sample_block(model, n, rng):
    from secsource.binning import _sample_source_block

    return _sample_source_block(model, n, rng)


class TestCollisionMath:
    def test_competitor_count_binary_bruteforce(self):
        # Cross-check the composition DP against explicit enumeration.
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = 8
            logp = np.log(rng.dirichlet(np.ones(2), size=2))  # 2 groups, binary
            groups = rng.integers(0, 2, size=n)
            true_seq = rng.integers(0, 2, size=n)
            want = 0
            t = sum(logp[g, a] for g, a in zip(groups, true_seq))
            for idx in range(2**n):
                seq = [(idx >> k) & 1 for k in range(n)]
                ll = sum(logp[g, a] for g, a in zip(groups, seq))
                if ll >= t - 1e-6:
                    want += 1
            got = log2_competitor_count(logp, true_seq, groups)
            assert got == pytest.approx(math.log2(want), abs=1e-9)

    def test_competitor_count_ternary_cross_product(self):
        # Three ternary groups of about 16 positions: the sorted merge of the
        # largest group equals the explicit cross product of all three.
        rng = np.random.default_rng(15)
        for case in range(5):
            n = 48
            logp = np.log(rng.dirichlet(np.ones(3), size=3))
            groups = rng.integers(0, 3, size=n)
            true_seq = rng.integers(0, 3, size=n)
            if case == 0:  # an impossible symbol in one group
                logp[0, 2] = -np.inf
                true_seq[(groups == 0) & (true_seq == 2)] = 0
            t = sum(logp[g, a] for g, a in zip(groups, true_seq))
            lls, logcounts = np.zeros(1), np.zeros(1)
            for g in range(3):
                n_g = int(np.count_nonzero(groups == g))
                comps = np.array([c for c in itertools.product(range(n_g + 1), repeat=3)
                                  if sum(c) == n_g])
                with np.errstate(invalid="ignore"):
                    ll = np.where(comps > 0, comps * logp[g], 0.0).sum(axis=1)
                cnt = np.array([math.lgamma(n_g + 1) - sum(math.lgamma(c + 1) for c in row)
                                for row in comps])
                lls = (lls[:, None] + ll[None, :]).ravel()
                logcounts = (logcounts[:, None] + cnt[None, :]).ravel()
            want = logsumexp(logcounts[lls >= t - 1e-6]) / math.log(2.0)
            got = log2_competitor_count(logp, true_seq, groups)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_compositions_cached_read_only(self):
        comps = compositions(5, 3)
        assert not comps.flags.writeable
        assert compositions(5, 3) is comps
        assert comps.shape == (math.comb(7, 2), 3)
        np.testing.assert_array_equal(comps.sum(axis=1), 5)
        # Lexicographic order, as the competitor count's type enumeration uses.
        assert [tuple(r) for r in comps] == sorted(
            c for c in itertools.product(range(6), repeat=3) if sum(c) == 5)
        with pytest.raises(ValueError):
            comps[0, 0] = 1

    def test_log2_sum_exp_matches_scipy(self):
        rng = np.random.default_rng(4)
        for size in (1, 7, 200):
            terms = rng.normal(scale=300.0, size=size)
            terms[1:][rng.random(size - 1) < 0.3] = -np.inf
            want = logsumexp(terms) / math.log(2.0)
            assert _log2_sum_exp(terms) == pytest.approx(want, rel=1e-14, abs=1e-12)
        assert _log2_sum_exp(np.full(4, -np.inf)) == -math.inf

    def test_collision_free_probability_limits(self):
        assert collision_free_probability(0.0, 10) == 1.0
        assert collision_free_probability(5.0, 0) == 0.0
        assert collision_free_probability(500.0, 100) == 0.0
        assert collision_free_probability(3.0, 400) == 1.0
        # Exact small case: N = 3 competitors (count 4 incl. truth), 2 bits.
        want = (1.0 - 0.25) ** 3
        assert collision_free_probability(2.0, 2) == pytest.approx(want, rel=1e-9)

    def test_collision_free_probability_large_counts(self):
        # (1 - 2^-b)^N -> exp(-N 2^-b): N = 2^60 competitors in 2^60 bins.
        assert collision_free_probability(60.0, 60) == pytest.approx(math.exp(-1.0), rel=1e-12)
        # Continuous across the switch to the asymptotic form at N = 2^50,
        # and equal on both sides to the exact log1p form.
        for log2n in (50.0 - 1e-6, 50.0 - 1e-12, 50.0, 50.0 + 1e-12, 50.0 + 1e-6):
            for bits in (48, 50, 52):
                want = math.exp((2.0**log2n - 1.0) * math.log1p(-(2.0**-bits)))
                got = collision_free_probability(log2n, bits)
                assert got == pytest.approx(want, rel=1e-9), (log2n, bits)

    def test_engines_agree_statistically(self, binary_model, binary_full6):
        # Same code rates, explicit search vs collision sampling at n = 12.
        code = design_code(binary_full6, n=12, epsilon=0.05, r0=0.0, seed=21)
        lazy = dataclasses.replace(code, tables=None)
        trials = 600
        explicit = run_experiment(code, binary_model, trials, seed=50)
        collision = run_experiment(lazy, binary_model, trials, seed=51)
        assert explicit.engine == "explicit" and collision.engine == "collision"
        se = math.sqrt(0.25 / trials)
        assert abs(explicit.error_rate - collision.error_rate) <= 6 * se


class TestRunExperiment:
    def test_trials_validation(self, binary_model, binary_full6):
        code = design_code(binary_full6, n=8, epsilon=0.15, r0=0.0, seed=2)
        with pytest.raises(ValueError):
            run_experiment(code, binary_model, trials=0)
        rep = run_experiment(code, binary_model, trials=1, seed=3)
        assert rep.error_rate in (0.0, 1.0)

    def test_reliability_improves_with_n(self, binary_model, binary_full6):
        rates = None
        errs = []
        for n in (40, 120, 360):
            code = design_code(binary_full6, n=n, epsilon=0.08, r0=0.0, seed=4)
            rep = run_experiment(code, binary_model, trials=300, seed=5)
            errs.append(rep.error_rate)
        assert errs[0] >= errs[-1] - 0.05
        assert errs[-1] <= 0.2

    def test_lossy_distortion_close_to_single_letter(self, binary_model):
        # BSC(0.15) auxiliary with the optimal reconstruction map.
        from secsource.regions import DistortionMetric, optimal_reconstruction
        from secsource.regions import extend_with_auxiliaries

        aux_scheme = AuxScheme.from_channels(bsc(0.15))
        joint = build_joint(binary_model)
        metric = DistortionMetric.hamming(2)
        full7 = extend_with_auxiliaries(joint, aux_scheme)
        recon, expected = optimal_reconstruction(full7, metric)

        full = _full6(binary_model, aux_scheme)
        code = design_code(full, n=400, epsilon=0.15, r0=0.0, seed=6,
                           reconstruction=recon)
        rep = run_experiment(code, binary_model, trials=200, seed=7, metric=metric)
        assert rep.error_rate <= 0.05
        assert rep.distortion <= expected + 0.05

    def test_full_pad_leakage_reported_zero(self, binary_model, binary_full6):
        code = design_code(binary_full6, n=200, epsilon=0.15, r0=3.0, seed=8)
        assert code.mode == "pad_all"
        rep = run_experiment(code, binary_model, trials=50, seed=9)
        assert rep.leak_secrecy == 0.0 and rep.leak_privacy == 0.0
        assert rep.key_rate_used >= code.rates.rv + code.rates.ru - 2.0 / 200

    def test_plugin_leakage_tracks_single_letter_target(
        self, binary_model, binary_joint, binary_full6
    ):
        h_xt_z = binary_joint.entropy(("Xt", "Z")) - binary_joint.entropy(("Z",))
        i_xtz = binary_joint.mutual_information(("Xt",), ("Z",))
        i_xty = binary_joint.mutual_information(("Xt",), ("Y",))
        target = h_xt_z + min(i_xtz - i_xty, 0.0)
        gaps = []
        for n in (100, 200, 400):
            code = design_code(binary_full6, n=n, epsilon=0.15, r0=0.0, seed=10)
            rep = run_experiment(code, binary_model, trials=200, seed=11)
            gaps.append(abs(rep.leak_secrecy - target))
        assert gaps[-1] <= 0.05  # plug-in estimate concentrates on the target

        # The other regimes: the key slot at r0 > 0, where the key rate the
        # slot consumes comes off the target, and pad U with a stochastic
        # P(V|U), whose targets are I(V;Xt|Z) and I(V;X|Z) of the design joint.
        i_xt_x_z = binary_joint.mutual_information(("Xt",), ("X",), ("Z",))
        live_v = _full6(binary_model,
                        AuxScheme(bsc(0.2), bsc(0.1), StochasticMatrix.constant(2, 1)))
        cases = [
            (binary_full6, 0.2, "key_slot", 200,
             lambda k: (target - k, i_xt_x_z + min(i_xtz - i_xty, 0.0) - k)),
            (live_v, 0.45, "pad_u", 40,
             lambda k: (live_v.mutual_information(("V",), ("Xt",), ("Z",)),
                        live_v.mutual_information(("V",), ("X",), ("Z",)))),
        ]
        for full, r0, mode, trials, targets in cases:
            code = design_code(full, n=400, epsilon=0.15, r0=r0, seed=10)
            assert code.mode == mode and sum(code.key_bit_widths()) > 0
            rep = run_experiment(code, binary_model, trials=trials, seed=11)
            want_s, want_p = targets(code.bits.k_u / code.n)
            assert want_s > 0.05 and want_p > 0.05
            assert abs(rep.leak_secrecy - want_s) <= 0.02, mode
            assert abs(rep.leak_privacy - want_p) <= 0.02, mode

    def test_collision_engine_reaches_binary_n_1e4(self, binary_model, binary_full6):
        # Two side-information groups of about 5000 positions each: crossing
        # their composition lists would exceed the enumeration budget.
        code = design_code(binary_full6, n=10_000, epsilon=0.02, r0=0.0, seed=16)
        rep = run_experiment(code, binary_model, trials=2, seed=17)
        assert rep.engine == "collision" and rep.n == 10_000
        assert rep.error_rate == 0.0

    def test_determinism(self, binary_model, binary_full6):
        code = design_code(binary_full6, n=300, epsilon=0.15, r0=0.0, seed=12)
        a = run_experiment(code, binary_model, trials=60, seed=13)
        b = run_experiment(code, binary_model, trials=60, seed=13)
        assert a == b


class TestExactSmallN:
    def test_pad_uniformity_across_seeds(self, binary_model, binary_full6):
        for seed in range(5):
            code = design_code(binary_full6, n=6, epsilon=0.15, r0=2.0, seed=seed)
            assert code.mode == "pad_all"
            mi, p_pad = padded_indices_mutual_information(code, binary_model)
            assert abs(mi) <= 1e-12
            np.testing.assert_allclose(p_pad, 1.0 / p_pad.size, atol=1e-12)

    def test_key_slot_pad_uniform(self, binary_model, binary_full6):
        code = design_code(binary_full6, n=6, epsilon=0.1, r0=1.0, seed=3)
        assert code.mode == "key_slot" and code.bits.w_u == 1 and code.bits.k_u == 6
        mi, p_pad = padded_indices_mutual_information(code, binary_model)
        assert abs(mi) <= 1e-12
        assert p_pad.size == 1 << code.bits.k_u
        np.testing.assert_allclose(p_pad, 1.0 / p_pad.size, atol=1e-12)

    def test_padded_indices_two_components(self, binary_model):
        # Fully padded with a live V layer: the marginal over (W_v, W_u) is
        # indexed by w_v * 2^bits(w_u) + w_u, and flat.
        code, model = _leakage_case("stochastic_pad", binary_model, n=None)
        assert code.mode == "pad_all" and code.bits.w_v > 0 and code.bits.w_u > 0
        mi, p_pad = padded_indices_mutual_information(code, model)
        t = exact_message_table(code, model)
        want = np.zeros(1 << (code.bits.w_v + code.bits.w_u))
        for m, p in zip(t.messages, t.p_sequence @ _dense(t)):
            want[(m[1] << code.bits.w_u) + m[3]] += p
        np.testing.assert_allclose(p_pad, want, rtol=1e-12, atol=0.0)
        assert abs(mi) <= 1e-12
        np.testing.assert_allclose(p_pad, 1.0 / p_pad.size, atol=1e-12)

    def test_exact_leakage_near_single_letter_target(
        self, binary_model, binary_joint, binary_full6
    ):
        h_xt_z = binary_joint.entropy(("Xt", "Z")) - binary_joint.entropy(("Z",))
        i_xtz = binary_joint.mutual_information(("Xt",), ("Z",))
        i_xty = binary_joint.mutual_information(("Xt",), ("Y",))
        rpp = min(i_xtz - i_xty, 0.0)
        target_s = h_xt_z + rpp
        target_p = binary_joint.mutual_information(("Xt",), ("X",), ("Z",)) + rpp
        code = design_code(binary_full6, n=10, epsilon=0.03, r0=0.0, seed=5)
        leak = exact_leakage(code, binary_model)
        assert abs(leak.secrecy - target_s) <= 0.1
        assert abs(leak.privacy - target_p) <= 0.1

    @pytest.mark.parametrize("case", ["key_slot", "pad_u", "pad_all", "stochastic_v",
                                      "stochastic_pad", "ternary"])
    def test_exact_leakage_matches_kronecker_formula(self, case, binary_model):
        code, model = _leakage_case(case, binary_model, n=None)
        leak = exact_leakage(code, model)
        want_s, want_p = _kronecker_leakage(code, model)
        assert leak.secrecy == pytest.approx(max(0.0, want_s), abs=1e-12)
        assert leak.privacy == pytest.approx(max(0.0, want_p), abs=1e-12)

    @pytest.mark.parametrize("case", ["key_slot", "pad_u", "pad_all", "stochastic_v",
                                      "stochastic_pad", "ternary"])
    def test_message_table_matches_loop_enumeration(self, case, binary_model):
        code, model = _leakage_case(case, binary_model, n=3)
        t = exact_message_table(code, model)
        p_seq, law = _message_law_by_loops(code, model)
        np.testing.assert_allclose(t.p_sequence, p_seq, rtol=1e-14, atol=0.0)
        messages = [tuple(m) for m in t.messages.tolist()]
        assert len(set(messages)) == len(messages)
        assert set(messages) == set().union(*law)
        for row, probs in zip(_dense(t), law):
            want = np.array([probs.get(m, 0.0) for m in messages])
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=1e-17)

    @pytest.mark.parametrize("n", [None, 3])
    @pytest.mark.parametrize("case", ["key_slot", "pad_u", "pad_all", "stochastic_v",
                                      "stochastic_pad", "ternary"])
    def test_message_table_cells(self, case, n, binary_model):
        code, model = _leakage_case(case, binary_model, n=n)
        t = exact_message_table(code, model)
        rows = t.p_sequence.size
        # Unique cells sorted by (column, row), each of positive probability.
        assert np.all(np.diff(t.column * rows + t.row) > 0)
        assert np.all(t.prob > 0.0)
        row_sums = np.bincount(t.row, weights=t.prob, minlength=rows)
        np.testing.assert_allclose(row_sums, 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(np.unique(t.column), np.arange(len(t.messages)))
        # The messages: five int64 fields, rows strictly increasing in
        # lexicographic order.
        assert t.messages.dtype == np.int64 and t.messages.shape == (len(t.messages), 5)
        messages = [tuple(m) for m in t.messages.tolist()]
        assert all(a < b for a, b in zip(messages, messages[1:]))

    def test_exact_leakage_memory_stays_with_the_cells(self, binary_model, binary_full6):
        # The dense (|Xt|^n, C) law at binary n = 12 alone took about 57 MB
        # for its 4096 nonzero cells.
        code = design_code(binary_full6, n=12, epsilon=0.03, r0=0.0, seed=0)
        tracemalloc.start()
        try:
            exact_leakage(code, binary_model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_budget_guard(self, binary_full6, binary_model):
        code = design_code(binary_full6, n=100, epsilon=0.15, r0=0.0, seed=5)
        with pytest.raises(BinningScaleError):
            exact_message_table(code, binary_model)


def _leakage_case(case, binary_model, n):
    """A small materialized code and its model, one per exact-analysis case."""
    live_v = AuxScheme(bsc(0.2), bsc(0.1), StochasticMatrix.constant(2, 1))
    recon = np.tile([0, 1], (2, 1))
    if case == "ternary":
        model = random_model(np.random.default_rng(18), nx=2, nxt=3, ny=2, nz=2)
        full = _full6(model)
        return design_code(full, n=n or 5, epsilon=0.1, r0=0.4, seed=19), model
    if case in ("stochastic_v", "stochastic_pad"):
        # Four (v, u) pairs per letter: 4^n auxiliary paths per block.
        r0 = 0.0 if case == "stochastic_v" else 3.0
        code = design_code(_full6(binary_model, live_v), n=n or 4, epsilon=0.05, r0=r0,
                           seed=20, reconstruction=recon)
        assert code.v_size == 2 and code.bits.w_v > 0
        return code, binary_model
    r0 = {"key_slot": 0.3, "pad_u": 1.1, "pad_all": 3.0}[case]
    code = design_code(_full6(binary_model), n=n or 6, epsilon=0.1, r0=r0, seed=21)
    assert code.mode == case and sum(code.key_bit_widths()) > 0
    return code, binary_model


def _dense(t):
    """The (|Xt|^n, messages) table P(message | xt^n) rebuilt from its cells."""
    table = np.zeros((t.p_sequence.size, len(t.messages)))
    table[t.row, t.column] = t.prob
    return table


def _kronecker_leakage(code, model):
    """Reference leakage from dense |Xt|^n x |Z|^n and |X|^n x |Xt|^n tables."""
    t = exact_message_table(code, model)
    table = _dense(t)
    n = code.n
    p_xt_z = np.einsum("x,xa,xz->az", model.px.probs, model.meas_enc.rows,
                       model.p_z_given_x().rows)
    joint_xt_z = reduce(np.kron, [p_xt_z] * n)
    p_zw = joint_xt_z.T @ table
    h_w_given_z = entropy_bits(p_zw) - entropy_bits(joint_xt_z.sum(axis=0))
    h_w_given_xt = t.p_sequence @ entropy_bits(table, axis=1)
    enc_n = reduce(np.kron, [model.meas_enc.rows] * n)
    p_x_seq = reduce(np.kron, [model.px.probs] * n)
    h_w_given_x = p_x_seq @ entropy_bits(enc_n @ table, axis=1)
    return (h_w_given_z - h_w_given_xt) / n, (h_w_given_z - h_w_given_x) / n


def _message_law_by_loops(code, model):
    """P(xt^n) and {message tuple: P(message | xt^n)} per block, by plain loops."""
    joint = np.einsum("au,uv->avu", code.p_u_given_xtilde, code.p_v_given_u)
    p_xt = model.px.probs @ model.meas_enc.rows
    bits = code.bits
    keys = list(itertools.product(*(range(1 << b) for b in code.key_bit_widths())))
    p_seq, law = [], []
    for xt in itertools.product(range(model.xtilde_size), repeat=code.n):
        p_seq.append(math.prod(p_xt[a] for a in xt))
        probs = {}
        letters = [[(v, u, joint[a, v, u]) for v in range(code.v_size)
                    for u in range(code.u_size) if joint[a, v, u] > 0.0] for a in xt]
        for path in itertools.product(*letters):
            v_i = u_i = 0
            p_path = 1.0
            for v, u, p in path:
                v_i, u_i, p_path = v_i * code.v_size + v, u_i * code.u_size + u, p_path * p
            f_v, w_v = int(code.tables[0][v_i]), int(code.tables[1][v_i])
            f_u, w_u, k_u = (int(code.tables[j][u_i]) for j in (2, 3, 4))
            for key in keys:
                if code.mode == "key_slot":
                    m = (f_v, w_v, f_u, w_u, (k_u + key[0]) % (1 << bits.k_u))
                elif code.mode == "pad_u":
                    m = (f_v, w_v, f_u, (w_u + key[0]) % (1 << bits.w_u), 0)
                else:
                    m = (f_v, (w_v + key[0]) % (1 << bits.w_v), f_u,
                         (w_u + key[1]) % (1 << bits.w_u), 0)
                probs[m] = probs.get(m, 0.0) + p_path / len(keys)
        law.append(probs)
    return np.array(p_seq), law


class TestRateViolation:
    def test_below_conditional_entropy_fails(self, binary_model, binary_joint, binary_full6):
        h_xt_y = binary_joint.entropy(("Xt", "Y")) - binary_joint.entropy(("Y",))
        bad = BinningRates(rv_tilde=0.0, rv=0.0, ru_tilde=0.0, ru=h_xt_y - 0.1, r0=0.0)
        code = design_code(binary_full6, n=200, epsilon=0.15, r0=0.0, seed=6,
                           rate_override=bad)
        assert not code.sw_u_ok
        rep = run_experiment(code, binary_model, trials=200, seed=7)
        assert rep.error_rate >= 0.5
