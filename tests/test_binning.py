import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from conftest import h2, random_model, star
from secsource import binning
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
    DimensionError,
    JointPmf,
    ModelError,
    Pmf,
    SourceModel,
    StochasticMatrix,
    bsc,
    build_joint,
    compositions,
    entropy_bits,
)
from secsource.regions import (
    FULL_AXES,
    AuxScheme,
    DistortionMetric,
    _leakages,
    extend_with_auxiliaries,
    r_prime,
)


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

    @pytest.mark.parametrize("bad", [-1, 0.5, 2, np.nan])
    def test_symbols_outside_the_alphabet_refused(self, binary_full6, bad):
        # On a binary n = 12 code, -1 once wrapped to the last symbol and 0.5
        # was truncated to 0, and both gave a message or a decode; 2 died in
        # a bare IndexError.
        code = design_code(binary_full6, n=12, epsilon=0.15, r0=0.0, seed=3)
        seq = np.zeros(12)
        msg = encode(code, seq, (0,), seed=1)
        assert decode(code, seq.astype(int), (0,), msg)[0].shape == (12,)
        seq[5] = bad
        with pytest.raises(ModelError, match=r"Xt symbols must be integers in \[0, 2\)"):
            encode(code, seq, (0,), seed=1)
        with pytest.raises(ModelError, match=r"Y symbols must be integers in \[0, 2\)"):
            decode(code, seq, (0,), msg)

    @pytest.mark.parametrize("key", [(0.5, 0.5), (0, 1.5), (0, np.nan)])
    def test_fractional_key_refused(self, binary_full6, key):
        # The pad-all code at n = 8 has key widths (0, 9), so each of these
        # keys is in range; a fraction once died in a bare TypeError from
        # numpy's bitwise_and, in encode and in decode alike.
        code = design_code(binary_full6, n=8, epsilon=0.1, r0=3.0, seed=3)
        assert code.mode == "pad_all" and code.key_bit_widths() == (0, 9)
        seq = np.zeros(8, dtype=int)
        msg = encode(code, seq, (0, 1), seed=1)
        assert decode(code, seq, (0.0, 1.0), msg)[0].shape == (8,)
        with pytest.raises(ModelError, match="key components must be integers"):
            encode(code, seq, key, seed=1)
        with pytest.raises(ModelError, match="key components must be integers"):
            decode(code, seq, key, msg)


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
    """One source block (xt, x, y, z) from 3n uniforms of ``rng``."""
    return tuple(a[0] for a in binning._sample_source(model, rng.random((1, 3 * n))))


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
        # Blocks of several trials, binary and ternary, over two and four
        # side cells (an impossible symbol in the first): each trial's
        # probability is the one its enumerated count gives.
        decided = 0
        for q, shape, n in itertools.product((2, 3), ((2,), (2, 2)), (8, 10)):
            log_p, true, side = self._block(rng, q, shape, n, trials=int(rng.integers(3, 7)))
            seqs = np.array(list(itertools.product(range(q), repeat=n)))
            flat = log_p.reshape(q, -1)
            label = np.ravel_multi_index(side, shape)
            counts = []
            for t in range(true.shape[0]):
                t_ll = sum(flat[a, c] for a, c in zip(true[t], label[t]))
                lls = flat[seqs, label[t]].sum(axis=1)
                counts.append(int(np.count_nonzero(lls >= t_ll - 1e-6)))
            bits = round(math.log2(np.median(counts)))
            want = [collision_free_probability(math.log2(c), bits) for c in counts]
            got = binning._layer_success_block(log_p, true, side, bits).tolist()
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (q, shape, n)
            decided += sum(0.0 < p < 1.0 for p in got)
        assert decided >= 20

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
            want = _log_sum_exp(logcounts[lls >= t - 1e-6]) / math.log(2.0)
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

    def test_log_factorials_cached_read_only(self):
        from secsource.binning import _log_factorials

        table = _log_factorials(10)
        assert not table.flags.writeable
        assert _log_factorials(10) is table
        assert table.tolist() == [math.lgamma(k + 1) for k in range(1 << 10)]  # bit for bit
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_log2_sum_exp_matches_scipy(self):
        logsumexp = pytest.importorskip("scipy.special").logsumexp
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
        # Near N = 2^50 it equals the exact log1p form.
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


    @staticmethod
    def _block(rng, q, shape, n, trials, side=None):
        """A random layer: ln P(symbol | side symbols) over ``shape`` side
        symbols, its first side cell never emitting symbol 0, and a block of
        true and side sequences drawn from it (the side ones unless given)."""
        pmf = rng.dirichlet(np.ones(q), size=math.prod(shape))
        pmf[0, 0] = 0.0
        pmf[0] /= pmf[0].sum()
        with np.errstate(divide="ignore"):
            log_p = np.log(pmf).T.reshape((q,) + shape)
        if side is None:
            side = tuple(rng.integers(0, k, size=(trials, n)) for k in shape)
        cdf = np.cumsum(pmf, axis=1)[np.ravel_multi_index(side, shape)]
        true = np.minimum((rng.random((trials, n))[..., None] >= cdf).sum(axis=-1), q - 1)
        return log_p, true, side

    def test_block_probabilities_equal_one_trial_path(self):
        # Binary and ternary layers, constant and live V ahead of Y (one to
        # six groups), an impossible symbol, and bit counts around the
        # collision threshold: every trial's probability is the one-trial
        # path's, bit for bit.
        rng = np.random.default_rng(31)
        seen = set()
        for case in range(40):
            q = 2 + case % 2
            shape = ((1, 2), (2, 2), (1, 3), (2, 3))[case // 2 % 4]
            n = int(rng.choice([20, 60, 150]))
            log_p, true, side = self._block(rng, q, shape, n, trials=int(rng.integers(1, 9)))
            bits = int(n * math.log2(q) * rng.uniform(0.5, 1.0))
            try:
                got = binning._layer_success_block(log_p, true, side, bits).tolist()
            except BinningScaleError:
                with pytest.raises(BinningScaleError):
                    for t in range(true.shape[0]):
                        _layer_success_probability(log_p, true[t], tuple(s[t] for s in side), bits)
                seen.add("scale")
                continue
            want = [_layer_success_probability(log_p, true[t], tuple(s[t] for s in side), bits)
                    for t in range(true.shape[0])]
            assert got == want, case
            seen.update(("ternary" if q == 3 else "binary", f"{math.prod(shape)} cells"))
            seen.update("decides" for p in got if 0.0 < p < 1.0)
        assert seen >= {"binary", "ternary", "4 cells", "6 cells", "decides", "scale"}
        # Groups of equal size, the first of them merged last, at a bit count
        # near the first trial's count, where the probability keeps its bits.
        for q in (2, 3):
            side = (np.tile(np.arange(60) % 2, (30, 1)),)
            log_p, true, side = self._block(rng, q, (2,), 60, trials=30, side=side)
            bits = round(log2_competitor_count(log_p.T, true[0], side[0][0]))
            got = binning._layer_success_block(log_p, true, side, bits).tolist()
            assert got == [_layer_success_probability(log_p, true[t], (side[0][t],), bits)
                           for t in range(30)]
            assert 0.0 < got[0] < 1.0

    def test_type_tables_equal_per_group_row_sums(self):
        # The types' sums run over the symbols in order: the same bits as a
        # row sum per group, which one-trial counts took before.
        rng = np.random.default_rng(32)
        for q in (2, 3, 4):
            rows = np.log(rng.dirichlet(np.ones(q), size=4))
            rows[1, 0] = -np.inf
            sizes = np.array([1, 9, 40, 9])
            types = binning._type_tables(rows, sizes)
            for g, ((ll, logcnt), n_g) in enumerate(zip(types, sizes.tolist())):
                comps = compositions(n_g, q)
                with np.errstate(invalid="ignore"):
                    want = np.where(comps > 0, comps * rows[g], 0.0).sum(axis=1)
                log_fact = np.array([math.lgamma(k + 1) for k in range(n_g + 1)])
                assert ll.tolist() == want.tolist()
                want_cnt = log_fact[n_g] - log_fact[comps].sum(axis=1)
                assert logcnt.tolist() == want_cnt.tolist()

    def test_block_with_an_over_budget_trial_raises(self):
        # Trial 1 spreads over six ternary groups, beyond the budget; the
        # others count alone.
        rng = np.random.default_rng(33)
        side = (np.stack([np.zeros(120, dtype=int), np.arange(120) % 6, np.arange(120) % 2]),)
        log_p, true, side = self._block(rng, 3, (6,), 120, trials=3, side=side)
        alone = [_layer_success_probability(log_p, true[t], (side[0][t],), 150) for t in (0, 2)]
        with pytest.raises(BinningScaleError):
            _layer_success_probability(log_p, true[1], (side[0][1],), 150)
        with pytest.raises(BinningScaleError):
            binning._layer_success_block(log_p, true, side, 150)
        got = binning._layer_success_block(log_p, true[[0, 2]], (side[0][[0, 2]],), 150)
        assert got.tolist() == alone

    def test_over_budget_u_layer_counts_only_where_v_decoded(self, binary_model):
        # A live V ahead of binary Y puts the U layer in four groups, whose
        # cross product at n = 800 is beyond the budget.  With no V bits the
        # V layer never decodes, so the U layer is never counted.
        live_v = AuxScheme(bsc(0.2), bsc(0.1), StochasticMatrix.constant(2, 1))
        full = _full6(binary_model, live_v)
        recon = np.tile([0, 1], (2, 1))
        for rv, raises in ((0.0, False), (1.0, True)):
            code = design_code(full, n=800, epsilon=0.05, r0=0.0, seed=3, reconstruction=recon,
                               rate_override=BinningRates(rv, 0.0, 0.5, 0.5, 0.0))
            if raises:
                with pytest.raises(BinningScaleError):
                    run_experiment(code, binary_model, 3, seed=0)
            else:
                assert run_experiment(code, binary_model, 3, seed=0).error_rate == 1.0


class TestRunExperiment:
    def test_trials_validation(self, binary_model, binary_full6):
        code = design_code(binary_full6, n=8, epsilon=0.15, r0=0.0, seed=2)
        with pytest.raises(ValueError):
            run_experiment(code, binary_model, trials=0)
        rep = run_experiment(code, binary_model, trials=1, seed=3)
        assert rep.error_rate in (0.0, 1.0)

    def test_metric_rows_must_match_xtilde(self, binary_model, binary_full6):
        # A one-row metric once died in a bare IndexError, and a three-row
        # metric for a binary Xt was accepted.
        code = design_code(binary_full6, n=8, epsilon=0.15, r0=0.0, seed=2)
        for table in ([[0.0, 1.0]], np.ones((3, 2)) - np.eye(3, 2)):
            with pytest.raises(DimensionError, match="distortion table rows must match"):
                run_experiment(code, binary_model, trials=2, seed=3,
                               metric=DistortionMetric(np.array(table)))

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
                                      "stochastic_pad", "ternary", "ternary_z", "ternary_x"])
    def test_exact_leakage_matches_kronecker_formula(self, case, binary_model):
        code, model = _leakage_case(case, binary_model, n=None)
        leak = exact_leakage(code, model)
        want_s, want_p = _kronecker_leakage(code, model)
        assert leak.secrecy == pytest.approx(max(0.0, want_s), abs=1e-12)
        assert leak.privacy == pytest.approx(max(0.0, want_p), abs=1e-12)

    @pytest.mark.parametrize("first", ["full", "single"])
    def test_exact_leakage_single_member_and_full_columns(self, first, binary_model,
                                                          binary_full6, monkeypatch):
        # A hand-made law at n = 4: each block sends 0.5 to a message all 16
        # blocks share (|D_w| = 4), 0.3 to a message of its own (|D_w| = 0)
        # and 0.2 to one it shares with the block that differs in the last
        # letter (|D_w| = 1).  With the full column first the cells are
        # reordered by |D_w|; with it last they are in that order already.
        code = design_code(binary_full6, n=4, epsilon=0.1, r0=0.0, seed=1)
        t = exact_message_table(code, binary_model)
        rows = np.arange(16)
        full = np.zeros(16, dtype=int) if first == "full" else np.full(16, 24)
        shift = 1 if first == "full" else 0
        column = np.concatenate([full, rows + shift, rows // 2 + 16 + shift])
        row = np.tile(rows, 3)
        prob = np.repeat([0.5, 0.3, 0.2], 16)
        order = np.lexsort((row, column))
        law = dataclasses.replace(t, row=row[order], column=column[order], prob=prob[order],
                                  messages=np.arange(25 * 5).reshape(25, 5))
        monkeypatch.setattr(binning, "exact_message_table", lambda code, model: law)
        leak = exact_leakage(code, binary_model)
        want_s, want_p = _kronecker_leakage(code, binary_model, law)
        assert want_s > 0.1 and want_p > 0.1
        assert leak.secrecy == pytest.approx(want_s, abs=1e-12)
        assert leak.privacy == pytest.approx(want_p, abs=1e-12)

    def test_exact_leakage_pinned_at_n13_and_n14(self, binary_model, binary_full6):
        # Values of the unfactored sum, which took each column over all
        # |Xt|^n blocks; the whole call, message table included, stays
        # within a few MiB (the dense (|Xt|^n, C) law at n = 14 is ~0.9 GB).
        pins = {13: (0.8511473856437799, 0.3867526248930797),
                14: (0.8586565535865682, 0.39305432520837436)}
        for n, (secrecy, privacy) in pins.items():
            code = design_code(binary_full6, n=n, epsilon=0.03, r0=0.0, seed=0)
            tracemalloc.start()
            try:
                leak = exact_leakage(code, binary_model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert leak.secrecy == pytest.approx(secrecy, abs=1e-12)
            assert leak.privacy == pytest.approx(privacy, abs=1e-12)
            assert peak < 8 * 2**20

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
    if case in ("ternary_z", "ternary_x"):
        # |Z| = 3 or |X| = 3 over a binary Xt: the leakage's working blocks
        # are |Z|^d or |X|^d wide, not |Xt|^d.
        size = {"ternary_z": {"nz": 3}, "ternary_x": {"nx": 3}}[case]
        model = random_model(np.random.default_rng(30), **size)
        return design_code(_full6(model), n=n or 6, epsilon=0.1, r0=0.4, seed=19), model
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


def _log_sum_exp(values):
    """ln sum exp(values), shifted by the largest (as scipy's logsumexp)."""
    top = values.max()
    return top + math.log(np.exp(values - top).sum())


def _dense(t):
    """The (|Xt|^n, messages) table P(message | xt^n) rebuilt from its cells."""
    table = np.zeros((t.p_sequence.size, len(t.messages)))
    table[t.row, t.column] = t.prob
    return table


def _kronecker_leakage(code, model, t=None):
    """Reference leakage from dense |Xt|^n x |Z|^n and |X|^n x |Xt|^n tables,
    of the code's message table or of the given one."""
    t = exact_message_table(code, model) if t is None else t
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


def _uniform_u(model, u_size):
    """``model``'s 7-axis joint with U uniform over ``u_size`` symbols."""
    aux = AuxScheme.from_channels(StochasticMatrix.constant(model.xtilde_size, u_size))
    return _full6(model, aux)


def _ternary_xt_binary_u(n):
    """A code of blocklength ``n`` with binary U on a ternary-Xt model, and
    the model: its bins are materialized, its Xt^n space is 3^n."""
    model = random_model(np.random.default_rng(0), nxt=3)
    return design_code(_uniform_u(model, 2), n=n, epsilon=0.1, r0=0.0,
                       reconstruction=np.zeros((2, 2), int)), model


_NO_SYMBOL_1 = np.array([[0.0], [-np.inf]])  # ln P(symbol | one side cell)

# case: (error, message, (module constant, value) or None, call(model, full))
_REFUSALS = {
    "impossible_truth": (
        ValueError, "must have positive probability", None,
        lambda m, f: log2_competitor_count(_NO_SYMBOL_1.T, np.array([1, 0]), np.zeros(2, int))),
    "impossible_truth_in_a_block": (
        ValueError, "must have positive probability", None,
        lambda m, f: binning._layer_success_block(_NO_SYMBOL_1, np.array([[0, 0], [1, 0]]),
                                                  (np.zeros((2, 2), int),), 1)),
    "model_alphabet": (
        DimensionError, "model Xt alphabet does not match the code", None,
        lambda m, f: run_experiment(design_code(f, n=8, epsilon=0.1, r0=0.0),
                                    random_model(np.random.default_rng(0), nxt=3), 1)),
    "alphabet_above_255": (
        BinningScaleError, "alphabets beyond 255 symbols are not supported", None,
        lambda m, f: design_code(_uniform_u(m, 256), n=4, epsilon=0.1, r0=0.0)),
    "no_reconstruction_map": (
        ModelError, r"no reconstruction map: pass `reconstruction` or `metric` when \|U\| != \|Xt\|",
        None, lambda m, f: design_code(_uniform_u(m, 3), n=4, epsilon=0.1, r0=0.0)),
    "key_components": (
        ValueError, r"key must have 1 component\(s\)", None,
        lambda m, f: encode(design_code(f, n=6, epsilon=0.1, r0=0.0), np.zeros(6, int), (0, 0))),
    "xt_sequences_above_materialize_limit": (
        BinningScaleError, r"sequence space 3\^10 exceeds the enumeration limit", None,
        lambda m, f: exact_message_table(*_ternary_xt_binary_u(10))),
    "enumeration_budget": (
        BinningScaleError, "exact message enumeration exceeds the budget",
        ("ENUMERATION_BUDGET", 63),
        lambda m, f: exact_message_table(design_code(f, n=6, epsilon=0.1, r0=0.0), m)),
    "leakage_cell_limit": (
        BinningScaleError, "exact leakage working arrays exceed the budget",
        ("LEAKAGE_CELL_LIMIT", 1),
        lambda m, f: exact_leakage(design_code(f, n=6, epsilon=0.1, r0=0.3, seed=21), m)),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusals(case, binary_model, binary_full6, monkeypatch):
    error, message, patch, call = _REFUSALS[case]
    if patch is not None:
        monkeypatch.setattr(binning, *patch)
    with pytest.raises(error, match=message) as raised:
        call(binary_model, binary_full6)
    assert type(raised.value) is error


# ---------------------------------------------------------------------------
# Reference: the per-trial simulation loop that run_experiment batches, with
# its sampler, message assembly and ML-in-bin decoder, as they were before
# trials ran in blocks.
# ---------------------------------------------------------------------------


def _ref_sample_categorical(rows, labels, rng):
    cum = np.cumsum(rows, axis=1)
    draws = rng.random(labels.size)
    idx = (draws[:, None] >= cum[labels]).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def _ref_seq_index(seq, q):
    idx = 0
    for s in np.asarray(seq, dtype=int):
        idx = idx * q + int(s)
    return idx


def _ref_pad(code, fields, key, sign=1):
    out = list(fields)
    for name, k in zip(binning._PADS[code.mode][1], key):
        i, bits = binning._FIELDS.index(name), getattr(code.bits, name)
        out[i] = (out[i] + sign * k) & ((1 << bits) - 1) if bits > 0 else 0
    return out


def _ref_message(code, v_seq, u_seq, key):
    v_idx, u_idx = _ref_seq_index(v_seq, code.v_size), _ref_seq_index(u_seq, code.u_size)
    fields = [t[i] for t, i in zip(code.tables, (v_idx, v_idx, u_idx, u_idx, u_idx))]
    return binning.Message(*(int(f) for f in _ref_pad(code, fields, key)))


def _ref_ml_in_bin(seqs, per_pos_logp, in_bin, events):
    n = seqs.shape[1]
    candidates = np.nonzero(in_bin)[0]
    if candidates.size == 0:
        events.add("empty")
        return np.argmax(per_pos_logp, axis=1), False
    cols = np.arange(n)
    ll = per_pos_logp[cols[None, :], seqs[candidates]].sum(axis=1)
    order = np.argmax(ll)
    best = ll[order]
    ties = np.count_nonzero(ll >= best - binning._LL_TIE_TOL)
    if ties > 1:
        events.add("tie")
    return seqs[candidates[order]], bool(ties == 1 and math.isfinite(best))


def _ref_decode_layers(code, y, key, message, events):
    f_v, w_v, f_u, w_u, k_u = (
        t == b for t, b in zip(code.tables, _ref_pad(code, dataclasses.astuple(message), key, -1))
    )
    v_hat, ok_v = _ref_ml_in_bin(binning._all_sequences(code.v_size, code.n),
                                 code.log_v_y[:, y].T, f_v & w_v, events)
    u_hat, ok_u = _ref_ml_in_bin(binning._all_sequences(code.u_size, code.n),
                                 code.log_u_vy[:, v_hat, y].T, f_u & w_u & k_u, events)
    return v_hat, u_hat, bool(ok_v and ok_u)


def _ref_decode(code, y, key, message, events):
    _, u_hat, unique = _ref_decode_layers(code, y, key, message, events)
    return code.reconstruction[u_hat, y], unique


def _layer_success_probability(log_p, true_seq, side, bits):
    """P(the layer decodes) for one collision-engine trial, by the one-trial
    path: positions with equal side symbols form one group of
    ``log2_competitor_count``."""
    if log_p.shape[0] == 1:
        return 1.0
    labels, groups = np.unique(np.ravel_multi_index(side, log_p.shape[1:]), return_inverse=True)
    table = log_p.reshape(log_p.shape[0], -1)[:, labels].T  # (groups, alphabet)
    return collision_free_probability(log2_competitor_count(table, true_seq, groups), bits)


def _ref_run_experiment(code, model, trials, seed, metric=None):
    metric = metric if metric is not None else DistortionMetric.hamming(model.xtilde_size)
    engine = "explicit" if code.materialized else "collision"
    counts = np.zeros((1, code.v_size, code.u_size, model.xtilde_size,
                       model.x_size, model.y_size, model.z_size))
    errors = 0
    distortions = []
    events = set()
    for t in range(trials):
        rng = np.random.default_rng([seed, 7, t])
        n = code.n
        x = _ref_sample_categorical(np.tile(model.px.probs, (1, 1)), np.zeros(n, dtype=int), rng)
        xt = _ref_sample_categorical(model.meas_enc.rows, x, rng)
        y, z = np.divmod(_ref_sample_categorical(model.meas_dec_eve.rows, x, rng), model.z_size)
        key = code.draw_key(rng)
        u_seq = _ref_sample_categorical(code.p_u_given_xtilde, xt, rng)
        v_seq = _ref_sample_categorical(code.p_v_given_u, u_seq, rng)
        np.add.at(counts, (0, v_seq, u_seq, xt, x, y, z), 1.0)
        if engine == "explicit":
            msg = _ref_message(code, v_seq, u_seq, key)
            v_hat, u_hat, unique = _ref_decode_layers(code, y, key, msg, events)
            ok = unique and np.array_equal(v_hat, v_seq) and np.array_equal(u_hat, u_seq)
        else:
            p_v = _layer_success_probability(code.log_v_y, v_seq, (y,),
                                             code.bits.f_v + code.bits.w_v)
            ok = bool(rng.random() < p_v)
            if ok:
                p_u = _layer_success_probability(code.log_u_vy, u_seq, (v_seq, y),
                                                 code.bits.u_layer_total())
                ok = bool(rng.random() < p_u)
        if ok:
            xhat = code.reconstruction[u_seq, y]
            distortions.append(float(metric.table[xt, xhat].mean()))
        else:
            errors += 1
    emp = JointPmf(FULL_AXES, counts / counts.sum())
    leak_s, leak_p = _leakages(emp, binning._PADS[code.mode][0], r_prime(emp),
                               code.bits.k_u / code.n)
    return binning.SimulationReport(
        n=code.n, trials=trials, error_rate=errors / trials,
        distortion=float(np.mean(distortions)) if distortions else float("nan"),
        leak_secrecy=leak_s, leak_privacy=leak_p,
        key_rate_used=code.key_rate_used(), engine=engine,
    )


def _same_report(got, want):
    """== on every field, a NaN distortion (no trial decoded) matching NaN."""
    if math.isnan(want.distortion):
        return math.isnan(got.distortion) and dataclasses.replace(
            got, distortion=0.0) == dataclasses.replace(want, distortion=0.0)
    return got == want


def _stream_case(case, binary_model):
    """(code, model, trials, metric) per batching case; every case but the
    one-trial blocks crosses at least one block boundary."""
    full = _full6(binary_model)
    live_v = AuxScheme(bsc(0.2), bsc(0.1), StochasticMatrix.constant(2, 1))
    recon = np.tile([0, 1], (2, 1))
    if case == "explicit":
        return _sw_code(binary_model, 12, 0.8475), binary_model, 400, None
    if case == "collision":
        return _sw_code(binary_model, 400, 0.8475), binary_model, 100, None
    if case == "key_slot_explicit":
        return design_code(full, n=10, epsilon=0.05, r0=0.3, seed=3), binary_model, 400, None
    if case == "key_slot_collision":
        # Key slot and U layer together a little above H(Xt|Y) = 0.8267.
        rates = BinningRates(0.0, 0.0, 0.0, 0.5475, 0.3)
        code = design_code(full, n=600, epsilon=0.15, r0=0.3, seed=3, rate_override=rates)
        return code, binary_model, 40, None
    if case == "pad_u_stochastic":
        code = design_code(_full6(binary_model, live_v), n=5, epsilon=0.05, r0=0.3, seed=3,
                           reconstruction=recon)
        return code, binary_model, 500, None
    if case == "pad_all":
        return design_code(full, n=8, epsilon=0.1, r0=3.0, seed=3), binary_model, 700, None
    if case == "ternary_lossy":
        # A ternary Xt with a metric of non-integer entries: the distortion
        # average is taken in the same order.
        model = random_model(np.random.default_rng(18), nx=2, nxt=3, ny=2, nz=2)
        metric = DistortionMetric(np.random.default_rng(19).random((3, 3)))
        code = design_code(_full6(model), n=6, epsilon=0.1, r0=0.4, seed=19, metric=metric)
        return code, model, 700, metric
    if case == "live_v_collision":
        # The U layer's side information (v, y) forms four groups.
        code = design_code(_full6(binary_model, live_v), n=120, epsilon=0.05, r0=0.0, seed=3,
                           reconstruction=recon)
        return code, binary_model, 150, None
    if case == "ternary_collision":
        # H(Xt|Y) = 1.486 bits; the U layer's rate is 1.5.
        model = random_model(np.random.default_rng(18), nx=2, nxt=3, ny=2, nz=2)
        return _sw_code(model, 150, 1.5), model, 120, None
    if case == "one_trial_blocks_explicit":
        # A U layer of 0 bits: all 2^13 sequences share one bin.
        return _sw_code(binary_model, 13, 0.0), binary_model, 3, None
    if case == "one_trial_blocks_collision":
        return _sw_code(binary_model, binning._BLOCK_CELLS + 1000, 0.8475), binary_model, 3, None
    raise ValueError(case)


def _sw_code(model, n, rate):
    """A code of U = Xt with one U-layer field of ceil(n * rate) bits."""
    rates = BinningRates(0.0, 0.0, 0.0, math.ceil(n * rate - 1e-9) / n, 0.0)
    return design_code(_full6(model), n=n, epsilon=0.15, r0=0.0, seed=11, rate_override=rates)


def _block_trials(code):
    """Trials per block of run_experiment for ``code``, given enough trials."""
    width = max(b.largest for b in code._bins) if code.materialized else 1
    return max(1, binning._BLOCK_CELLS // (code.n * width))


class TestTrialStreams:
    CASES = ["explicit", "collision", "key_slot_explicit", "key_slot_collision",
             "pad_u_stochastic", "pad_all", "ternary_lossy", "live_v_collision",
             "ternary_collision", "one_trial_blocks_explicit", "one_trial_blocks_collision"]

    @pytest.mark.parametrize("case", CASES)
    def test_report_equals_per_trial_loop(self, case, binary_model):
        code, model, trials, metric = _stream_case(case, binary_model)
        block = _block_trials(code)
        if case.startswith("one_trial_blocks"):
            assert block == 1
        else:
            assert 1 < block < trials  # the trials cross a block boundary
        if case.startswith("key_slot"):
            assert code.mode == "key_slot" and code.bits.k_u > 0  # the key draws mid-stream
        if case == "pad_u_stochastic":  # both explicit layers decode
            assert code.mode == "pad_u" and code.v_size == 2 and code.bits.f_v + code.bits.w_v > 0
        if case == "pad_all":
            assert code.mode == "pad_all"
        if case == "live_v_collision":  # both collision layers count
            assert code.v_size == 2 and code.bits.f_v + code.bits.w_v > 0
        if case == "ternary_collision":
            assert code.u_size == 3
        assert code.materialized == ("collision" not in case)
        for seed in (0, 5):
            got = run_experiment(code, model, trials, seed=seed, metric=metric)
            want = _ref_run_experiment(code, model, trials, seed, metric)
            assert _same_report(got, want), (got, want)
            assert 0.0 < got.error_rate < 1.0 or case.startswith("one_trial_blocks")

    def test_decode_matches_per_trial_decoder(self, binary_model):
        # Right keys, wrong keys and a message with a field outside its
        # range, so that the empty-bin and the tie fallbacks both run.
        events = set()
        for case in ("key_slot_explicit", "pad_u_stochastic", "pad_all",
                     "one_trial_blocks_explicit"):
            code, model, _, _ = _stream_case(case, binary_model)
            rng = np.random.default_rng(23)
            for _ in range(30):
                xt, _, y, _ = _sample_block(model, code.n, rng)
                key = code.draw_key(rng)
                msg = encode(code, xt, key, seed=int(rng.integers(1 << 30)))
                stray = dataclasses.replace(msg, f_u=msg.f_u + (1 << code.bits.f_u))
                for k, m in ((key, msg), (code.draw_key(rng), msg), (key, stray)):
                    xhat, unique = decode(code, y, k, m)
                    want_xhat, want_unique = _ref_decode(code, y, k, m, events)
                    assert np.array_equal(xhat, want_xhat) and unique == want_unique
        assert events == {"empty", "tie"}

    def test_encode_matches_per_trial_encoder(self, binary_model):
        for case in ("key_slot_explicit", "pad_u_stochastic", "pad_all"):
            code, model, _, _ = _stream_case(case, binary_model)
            rng = np.random.default_rng(29)
            for _ in range(30):
                xt = rng.integers(0, model.xtilde_size, size=code.n)
                key, seed = code.draw_key(rng), int(rng.integers(1 << 30))
                ref = np.random.default_rng(seed)
                u_seq = _ref_sample_categorical(code.p_u_given_xtilde, xt, ref)
                v_seq = _ref_sample_categorical(code.p_v_given_u, u_seq, ref)
                assert encode(code, xt, key, seed=seed) == _ref_message(code, v_seq, u_seq, key)

    def test_block_memory_is_capped(self, binary_model):
        # Blocks hold at most _BLOCK_CELLS (trial, position) cells, and
        # (trial, candidate, position) cells at the largest bin.  Uncapped, all
        # 60 trials at n = 1000 in one block peaked at about 7 MiB, and the
        # 8192 candidates per trial of 6 trials at n = 13 in one gather at
        # about 21 MiB.
        for code, trials in ((_sw_code(binary_model, 1000, 0.8475), 60),
                             (_sw_code(binary_model, 13, 0.0), 6)):
            run_experiment(code, binary_model, 1, seed=0)  # fills the caches
            tracemalloc.start()
            try:
                run_experiment(code, binary_model, trials, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, code.n
