import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toomlab import engine
from toomlab.engine import (
    LatticeState,
    RngKey,
    biased_noise,
    check_assumptions,
    erosion_time,
    evolve,
    influence_radius,
    kernel_plus,
    symmetric_noise,
    table_noise,
)
from toomlab.errors import ConfigError
from toomlab.rules import builtin

from .oracles import TorusStepper, evolve_batch, random_monotone_table, step_uniforms


class TestLatticeState:
    def test_round_trip_bits(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 8, 64, 65, 100):
            bits = rng.integers(0, 2, size=n).astype(np.uint8)
            state = LatticeState.from_bits((n,), bits)
            assert np.array_equal(state.bits(), bits)

    def test_int_encoding_matches_bit_order(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
        state = LatticeState.from_bits((9,), bits)
        assert state.to_int() == 0b100001101
        assert LatticeState.from_int((9,), state.to_int()) == state

    def test_islands(self):
        state = LatticeState.plus_with_island((3, 3), [(1, 2), (0, 0)])
        grid = state.bits().reshape(3, 3)
        assert grid[1, 2] == 0 and grid[0, 0] == 0 and grid.sum() == 7

    def test_minus_fraction(self):
        assert LatticeState.all_minus((4, 4)).minus_fraction() == 1.0
        assert LatticeState.all_plus((16,)).minus_fraction() == 0.0

    def test_words_frozen(self):
        state = LatticeState.all_plus((8,))
        with pytest.raises(ValueError):
            state.words[0] = 0

    def test_word_packing(self):
        state = LatticeState.all_plus((70,))
        assert state.words.dtype == np.dtype("<u8")
        assert state.words.shape == (2,)  # 70 sites -> 2 words

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            LatticeState.all_plus((0,))


class TestDeterministicStep:
    @pytest.mark.parametrize("name,dims", [
        ("stavskaya", (8,)), ("nec", (5, 5)), ("majority1d", (9,)), ("identity", (4,)),
    ])
    def test_homogeneous_invariant(self, name, dims):
        rule = builtin(name)
        for make in (LatticeState.all_plus, LatticeState.all_minus):
            state = make(dims)
            assert evolve(state, rule, None, RngKey(0), 0, 1) == state

    def test_stavskaya_hand_example(self):
        # a site stays -1 iff it and its right neighbor are both -1
        rule = builtin("stavskaya")
        state = LatticeState.plus_with_island((8,), [2, 3, 4])
        out = evolve(state, rule, None, RngKey(0), 0, 1)
        assert sorted(np.flatnonzero(out.bits() == 0).tolist()) == [2, 3]

    def test_nec_single_minus_heals(self):
        rule = builtin("nec")
        state = LatticeState.plus_with_island((6, 6), [(0, 0)])
        assert evolve(state, rule, None, RngKey(0), 0, 1) == LatticeState.all_plus((6, 6))

    def test_input_unmodified(self):
        rule = builtin("stavskaya")
        state = LatticeState.plus_with_island((8,), [1])
        before = state.bits().copy()
        evolve(state, rule, None, RngKey(0), 0, 1)
        assert np.array_equal(state.bits(), before)

    def test_aliasing_dims_rejected(self):
        with pytest.raises(ConfigError):
            TorusStepper(builtin("nec"), (2, 5))

    @pytest.mark.parametrize("dims", [(2, 5), (5, 2)])
    def test_aliasing_dims_rejected_by_the_packed_step(self, dims):
        rule = builtin("nec")
        with pytest.raises(ConfigError, match="aliases"):
            evolve(LatticeState.all_plus(dims), rule, None, RngKey(0), 0, 1)
        with pytest.raises(ConfigError, match="aliases"):
            engine.evolve(LatticeState.all_plus(dims), rule, symmetric_noise(0.1), RngKey(1), 0, 3)

    def test_monotone_coupling(self):
        rule = builtin("nec")
        rng = np.random.default_rng(3)
        st_ = TorusStepper(rule, (6, 6))
        for _ in range(25):
            lo = rng.integers(0, 2, size=36).astype(np.uint8)
            hi = lo | rng.integers(0, 2, size=36).astype(np.uint8)
            out_lo = st_.table[st_.local_index(lo)]
            out_hi = st_.table[st_.local_index(hi)]
            assert np.all(out_lo <= out_hi)

    @pytest.mark.parametrize("name,dims", [
        ("nec", (6, 6)), ("stavskaya", (13,)), ("majority1d", (11,)),
    ])
    def test_monotone_coupling_through_the_packed_step(self, name, dims):
        # lo <= hi sitewise stays so after a deterministic step, and after a
        # noisy step that both states take with the same draws
        rule, noise = builtin(name), symmetric_noise(0.2)
        n = int(np.prod(dims))
        rng = np.random.default_rng(3)
        for t in range(25):
            lo = rng.integers(0, 2, size=n).astype(np.uint8)
            hi = lo | rng.integers(0, 2, size=n).astype(np.uint8)
            lo_s, hi_s = LatticeState.from_bits(dims, lo), LatticeState.from_bits(dims, hi)
            out_lo = evolve(lo_s, rule, None, RngKey(0), 0, 1).bits()
            out_hi = evolve(hi_s, rule, None, RngKey(0), 0, 1).bits()
            assert np.all(out_lo <= out_hi)
            out_lo = evolve(lo_s, rule, noise, RngKey(t), t, 1).bits()
            out_hi = evolve(hi_s, rule, noise, RngKey(t), t, 1).bits()
            assert np.all(out_lo <= out_hi)

    def test_translation_covariance(self):
        rule = builtin("nec")
        dims = (6, 6)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=36).astype(np.uint8)
        state = LatticeState.from_bits(dims, bits)
        shifted = LatticeState.from_bits(dims, np.roll(bits.reshape(dims), (1, 2), (0, 1)).ravel())
        a = evolve(shifted, rule, None, RngKey(0), 0, 1).bits().reshape(dims)
        b = evolve(state, rule, None, RngKey(0), 0, 1).bits().reshape(dims)
        b = np.roll(b, (1, 2), (0, 1))
        assert np.array_equal(a, b)


class TestNoisyStep:
    def test_zero_noise_equals_deterministic(self):
        rule = builtin("stavskaya")
        state = LatticeState.plus_with_island((12,), [3, 4])
        noisy = evolve(state, rule, symmetric_noise(0.0), RngKey(1), 0, 1)
        assert noisy == evolve(state, rule, None, RngKey(0), 0, 1)

    def test_half_noise_is_iid_uniform(self):
        # p = 1/2 everywhere: magnetization over 100 steps of a 64x64 torus
        # is a mean of 409600 fair +-1 draws
        rule = builtin("nec")
        dims = (64, 64)
        key = RngKey(99)
        noise = symmetric_noise(0.5)
        total = 0.0
        state = LatticeState.all_plus(dims)
        for t in range(100):
            state = evolve(state, rule, noise, key, t, 1)
            total += 2.0 * state.bits().mean() - 1.0
        n_draws = 64 * 64 * 100
        assert abs(total / 100) < 4.0 / math.sqrt(n_draws)

    def test_thread_count_invariance(self):
        rule = builtin("nec")
        state = LatticeState.plus_with_island((32, 32), [(3, 3)])
        noise = symmetric_noise(0.2)
        outs = [
            evolve(state, rule, noise, RngKey(17), 5, 1, threads=w)
            for w in (1, 2, 8)
        ]
        assert outs[0] == outs[1] == outs[2]

    def test_seed_and_step_keying(self):
        rule = builtin("stavskaya")
        state = LatticeState.all_plus((64,))
        noise = symmetric_noise(0.3)
        a = evolve(state, rule, noise, RngKey(1), 0, 1)
        assert a == evolve(state, rule, noise, RngKey(1), 0, 1)
        assert a != evolve(state, rule, noise, RngKey(2), 0, 1)
        assert a != evolve(state, rule, noise, RngKey(1), 1, 1)

    def test_noisy_translation_covariance_with_shifted_draws(self):
        # stepping a shifted state with correspondingly shifted uniforms
        # equals shifting the stepped state
        rule = builtin("stavskaya")
        dims = (16,)
        st_ = TorusStepper(rule, dims)
        kern = kernel_plus(symmetric_noise(0.25), rule)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        u = step_uniforms(RngKey(4), 0, 0, 16)
        out = (u < kern[st_.local_index(bits)]).astype(np.uint8)
        shift = 5
        bits_s = np.roll(bits, shift)
        u_s = np.roll(u, shift)
        out_s = (u_s < kern[st_.local_index(bits_s)]).astype(np.uint8)
        assert np.array_equal(out_s, np.roll(out, shift))


class TestStreams:
    def test_chunked_equals_single_pass(self):
        key = RngKey(123)
        full = step_uniforms(key, 9, 0, 64)
        parts = [step_uniforms(key, 9, a, 16) for a in (0, 16, 32, 48)]
        assert np.array_equal(full, np.concatenate(parts))

    def test_unaligned_start_rejected(self):
        with pytest.raises(ValueError):
            step_uniforms(RngKey(1), 0, 2, 8)

    def test_batch_replica_zero_matches_single(self):
        rule = builtin("stavskaya")
        noise = symmetric_noise(0.15)
        key = RngKey(42)
        batch = evolve_batch(
            np.ones((4, 8), dtype=np.uint8), rule, noise, (8,), key, 0, 7
        )
        single = engine.evolve(LatticeState.all_plus((8,)), rule, noise, key, 0, 7)
        assert np.array_equal(batch[0], single.bits())

    def test_batch_thread_invariance(self):
        rule = builtin("nec")
        noise = symmetric_noise(0.1)
        base = np.ones((10, 9), dtype=np.uint8)
        outs = [
            evolve_batch(base, rule, noise, (3, 3), RngKey(5), 0, 6, threads=w)
            for w in (1, 3, 8)
        ]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


class TestBlockedDraw:
    B = engine._DRAW_BLOCK

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("extra", [-64, 0, 64, None])
    def test_masks_equal_the_whole_span_reference(self, threads, extra):
        n = 2 * self.B + 8 if extra is None else self.B + extra
        p = [0.0, 0.1, 0.5, 1.0]
        rule = builtin("stavskaya")
        core = engine._PackedCore(rule, (n,), np.array(p), RngKey(17), threads)
        u = step_uniforms(RngKey(17), 5, 0, n)
        want = [engine._pack(u < q, core.n_words) for q in (0.1, 0.5)]
        assert np.array_equal(core._draw(5), np.stack(want))

    def test_scratch_of_one_draw_is_one_block(self):
        n = 16 * self.B
        rule = builtin("nec")
        kern = kernel_plus(symmetric_noise(0.1), rule)
        core = engine._PackedCore(rule, (n // 1024, 1024), kern, RngKey(3))
        tracemalloc.start()
        try:
            masks = core._draw(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.shape for m in masks] == [(n // 64,)] * 2
        assert peak < (1 << 20) + sum(m.nbytes for m in masks)


class TestAddressedDraw:
    """Words read by counter against the same words read in stream order."""

    B = engine._DRAW_BLOCK

    @pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**64 - 1])
    @pytest.mark.parametrize("t", [0, 5, 2**32 + 3])
    def test_philox_at_equals_random_raw(self, seed, t):
        key, b = RngKey(seed), self.B
        stream = engine._philox(key, t, 0).random_raw(b + 16)
        # runs across 4-word Philox blocks and the draw chunk edge, out of
        # order and repeated
        pos = np.r_[0:3, 3:12, b - 3 : b + 6, 13, 2, 2, 7]
        assert np.array_equal(engine._philox_at(key, t, pos), stream[pos])
        far = 3 * b + np.arange(9)
        want = engine._philox(key, t, 3 * b).random_raw(9)
        assert np.array_equal(engine._philox_at(key, t, far), want)
        assert engine._philox_at(key, t, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dims", [(5,), (8,), (3, 5)])
    def test_replicas_draw_their_own_slots(self, monkeypatch, threads, dims):
        # draw chunks of 64 sites end inside replicas, and replicas of 5 or
        # 15 sites start off the 4-word blocks
        monkeypatch.setattr(engine, "_DRAW_BLOCK", 64)
        rule = builtin("stavskaya" if len(dims) == 1 else "nec")
        kern = kernel_plus(symmetric_noise(0.2), rule)
        ids = np.array([0, 2, 3, 9, 10, 11, 31, 40, 41, 57, 58, 59, 60, 61, 62, 99])
        batch = engine._PackedCore(rule, dims, kern, RngKey(9), replicas=100)
        sub = engine._PackedCore(rule, dims, kern, RngKey(9), threads, ids=ids)
        n = math.prod(dims)
        assert sub.dims == (ids.size,) + dims
        for whole, part in zip(batch._draw(7), sub._draw(7)):
            want = engine._unpack(whole, 100 * n).reshape(100, n)[ids]
            assert np.array_equal(engine._unpack(part, ids.size * n).reshape(-1, n), want)

    def test_scratch_of_one_addressed_draw_is_bounded(self):
        # 3-site replicas two sites apart share the fewest Philox blocks
        rule = builtin("stavskaya")
        kern = kernel_plus(symmetric_noise(0.1), rule)
        ids = np.arange(0, 2 * self.B, 2)
        core = engine._PackedCore(rule, (3,), kern, RngKey(3), ids=ids)
        tracemalloc.start()
        try:
            masks = core._draw(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.B * engine._ADDRESSED_BYTES + sum(m.nbytes for m in masks)
        assert engine.working_bytes(rule, kern, (3,), replicas=ids.size, addressed=True) - \
            engine.working_bytes(rule, kern, (3,), replicas=ids.size) == \
            self.B * (engine._ADDRESSED_BYTES - 9)

    @pytest.mark.parametrize("m, n", [(37, 5), (9, 64), (20, 13), (6, 3)])
    def test_put_replicas(self, m, n):
        rng = np.random.default_rng(m * n)
        bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        src = rng.integers(0, 2, size=(4, n)).astype(np.uint8)
        ids, take = np.sort(rng.choice(m, 4, replace=False)), np.array([3, 0, 2, 2])
        words = engine._pack(bits.reshape(-1), -(-m * n // 64))
        engine._put_replicas(words, ids, engine._pack(src.reshape(-1), -(-4 * n // 64)), take, n)
        bits[ids] = src[take]
        assert np.array_equal(words, engine._pack(bits.reshape(-1), -(-m * n // 64)))


class TestPopcount:
    def test_random_words(self):
        words = np.random.default_rng(0).integers(0, 2**64, size=4000, dtype=np.uint64)
        want = [bin(int(w)).count("1") for w in words]
        assert engine._popcount(words).tolist() == want

    def test_all_ones_and_single_bits(self):
        words = np.array([2**64 - 1, 0] + [1 << k for k in range(64)], dtype=np.uint64)
        assert engine._popcount(words).tolist() == [64, 0] + [1] * 64

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_padded_tails(self, n):
        state = LatticeState.all_plus((n,))
        assert int(engine._plus_counts(state.words[None, :])[0]) == n
        bits = np.random.default_rng(n).integers(0, 2, size=(3, n)).astype(np.uint8)
        words = engine._pack(bits, -(-n // 64))
        assert engine._plus_counts(words).tolist() == bits.sum(axis=1).tolist()

    @pytest.mark.parametrize("m, n", [(1, 5), (7, 9), (13, 64), (5, 100), (40, 3)])
    def test_replica_counts_of_unaligned_runs(self, m, n):
        bits = np.random.default_rng(m * n).integers(0, 2, size=m * n).astype(np.uint8)
        words = engine._pack(bits, -(-m * n // 64))
        got = engine._replica_counts(words, m, n)
        assert got.tolist() == bits.reshape(m, n).sum(axis=1).tolist()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([1, 3, 8, 15, 16, 24, 64, 100]),
           st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_replica_counts_match_unpacked_row_sums(self, m, n, extra, seed):
        # whole-byte runs (n % 8 == 0) and the rest; every bit past the last
        # run is random, in the last word and in `extra` more words
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size=-(-m * n // 64) + extra, dtype=np.uint64)
        bits = engine._unpack(words, m * n).reshape(m, n)
        got = engine._replica_counts(words, m, n)
        assert got.dtype == np.int64
        assert got.tolist() == bits.sum(axis=1).tolist()

    def test_replica_counts_scratch(self):
        # the corr8 batch of the benchmark: 120,000 8-site replicas, 117 kB
        # packed; prefix sums gathered at every replica edge traced 6.7 MB
        m, n = 120_000, 8
        words = np.random.default_rng(5).integers(0, 2**64, size=m * n // 64, dtype=np.uint64)
        tracemalloc.start()
        try:
            engine._replica_counts(words, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-40, 40)] * d), min_size=1, max_size=30)
))
def test_manhattan_diameter_matches_pairwise_max(sites):
    want = max(
        sum(abs(a - b) for a, b in zip(s1, s2)) for s1, s2 in itertools.product(sites, sites)
    )
    assert engine._manhattan_diameter(sites) == want


def test_working_bytes_scale_with_the_packed_rows():
    rule = builtin("nec")
    kern = engine.kernel_plus(engine.symmetric_noise(0.1), rule)
    one = engine.working_bytes(rule, kern, (64, 64), replicas=100)
    two = engine.working_bytes(rule, kern, (64, 64), rows=2, replicas=100)
    block = engine._DRAW_BLOCK * 9
    # nec at its peak, the third of 4 Shannon nodes: the state, one shifted
    # plane, two node values and two temporaries per chain, one noise mask
    # still to be read, and 2 axis moves
    assert one - block == 8 * 6400 * (6 + 1 + 2)
    assert two - one == 8 * 6400 * 6


@pytest.mark.parametrize("name, dims", [("nec", (64, 64)), ("majority1d", (4096,))])
def test_a_step_stays_within_working_bytes(name, dims):
    # node values, planes and noise masks are freed after their last use,
    # so a step's traced peak, beside the state and the range masks that
    # exist before it, stays within the live-peak estimate
    rule = builtin(name)
    kern = kernel_plus(symmetric_noise(0.1), rule)
    core = engine._PackedCore(rule, dims, kern, RngKey(3), replicas=1000)
    words = np.full((1, core.n_words), engine._ONES)
    tracemalloc.start()
    try:
        core.step(words, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 8 * core.n_words
    held = row * (1 + sum(len(m) for m in core._moves.values()))
    assert peak + held <= engine.working_bytes(rule, kern, dims, replicas=1000)
    # keeping every node value and mask to the end of the step held 9 rows
    assert peak < 7 * row


class TestCheckAssumptions:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_symmetric_exact(self, eps):
        for name in ("stavskaya", "nec", "majority1d"):
            assert check_assumptions(symmetric_noise(eps), builtin(name)) == (eps, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_stavskaya_biased_exact(self, eps):
        assert check_assumptions(biased_noise(eps, 0.0), builtin("stavskaya")) == (eps, 0.0)

    def test_monotone_substitution_cannot_change_kernel(self):
        # setting one input to the prescribed output value never alters a
        # monotone rule's prescription, hence alpha = 0 for rule-driven noise
        rng = __import__("random").Random(5)
        for _ in range(10):
            table = random_monotone_table(3, rng)
            rule = engine.RuleSpec(
                dimension=1, neighborhood=((-1,), (0,), (1,)), table=table
            )
            _, alpha = check_assumptions(symmetric_noise(0.07), rule)
            assert alpha == 0.0

    def test_identity_substitution_is_vacuous(self):
        # for the identity rule the prescribed value equals the input spin,
        # so substitution never changes the configuration: alpha = 0 even
        # for a lopsided kernel
        rule = builtin("identity")
        eps, alpha = check_assumptions(table_noise([0.2, 0.9]), rule)
        assert eps == pytest.approx(0.2)
        assert alpha == 0.0

    def test_table_noise_alpha_positive(self):
        # stavskaya cfg (+,-) prescribes +1; rewriting the second spin to +1
        # moves the kernel from p=0.8 to p=0.9:
        #   xi=+1: 0.1/0.8,  xi=-1: 0.1/0.2 = 0.5  (the binding case)
        rule = builtin("stavskaya")
        eps, alpha = check_assumptions(table_noise([0.1, 0.8, 0.9, 0.9]), rule)
        assert eps == pytest.approx(0.2)
        assert alpha == pytest.approx(0.5)

    def test_zero_probability_unsatisfiable(self):
        rule = builtin("stavskaya")
        _, alpha = check_assumptions(table_noise([0.1, 1.0, 0.9, 0.9]), rule)
        assert alpha == math.inf

    def test_table_length_enforced(self):
        with pytest.raises(ConfigError):
            kernel_plus(table_noise([0.1, 0.9]), builtin("stavskaya"))


class TestErosion:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_stavskaya_linear_erosion(self, k):
        res = erosion_time(builtin("stavskaya"), [[i] for i in range(k)],
                           dims=(4 * k + 8,), cutoff=2 * k)
        assert res.erased and res.steps == k
        assert list(res.sizes) == list(range(k - 1, -1, -1))

    def test_default_cutoff_and_dims(self):
        res = erosion_time(builtin("stavskaya"), [[0], [1], [2]])
        assert res.erased and res.steps == 3

    def test_nec_single_site(self):
        res = erosion_time(builtin("nec"), [(0, 0)], dims=(12, 12), cutoff=4)
        assert res.erased and res.steps == 1

    def test_majority1d_pair_persists(self):
        res = erosion_time(builtin("majority1d"), [0, 1], dims=(60,), cutoff=25)
        assert not res.erased and res.steps == 25
        assert all(s == 2 for s in res.sizes)

    def test_identity_island_persists(self):
        res = erosion_time(builtin("identity"), [0], dims=(5,), cutoff=10)
        assert not res.erased

    def test_empty_island(self):
        res = erosion_time(builtin("nec"), [])
        assert res.erased and res.steps == 0

    def test_light_cone_dims_enforced(self):
        with pytest.raises(ConfigError):
            erosion_time(builtin("stavskaya"), [[0]], dims=(8,), cutoff=10)

    def test_influence_radius(self):
        assert influence_radius(builtin("nec")) == 1
        assert influence_radius(builtin("majority1d")) == 1
        assert influence_radius(builtin("identity")) == 0


class TestEroderCorpusConsistency:
    def test_eroders_erase_all_islands_to_diameter_eight(self):
        # ERODER verdict <=> erasure within the generous default cutoff,
        # exercised up to the diameter-8 islands the invariant promises
        corpus = {
            "stavskaya": [
                [[0]],
                [[0], [2]],
                [[i] for i in range(9)],  # diameter 8
            ],
            "nec": [
                [(0, 0)],
                [(0, 0), (1, 1), (2, 0)],
                [(i, j) for i in range(3) for j in range(3)],
                [(0, 0), (4, 4)],  # diameter 8
            ],
        }
        for name, islands in corpus.items():
            rule = builtin(name)
            for island in islands:
                res = erosion_time(rule, island)
                assert res.erased, (name, island)

    def test_non_eroders_have_persistent_islands(self):
        assert not erosion_time(builtin("majority1d"), [0, 1], dims=(50,), cutoff=20).erased
        assert not erosion_time(builtin("identity"), [0], dims=(5,), cutoff=20).erased

    def test_random_1d_eroders_erase(self):
        # verdict/behavior consistency beyond the builtins: every certified
        # eroder must erase a spread-out island within the default cutoff
        import random as _random

        from toomlab import certify
        from toomlab.rules import RuleSpec, minimal_plus_sets

        from .oracles import random_monotone_table, random_offsets_1d

        rng = _random.Random(77)
        found = 0
        while found < 8:
            R = rng.randint(2, 4)
            offsets = random_offsets_1d(R, rng, span=3)
            rule = RuleSpec(
                dimension=1,
                neighborhood=tuple((o,) for o in offsets),
                table=random_monotone_table(R, rng),
            )
            cert = certify.check_eroder(minimal_plus_sets(rule))
            if cert.verdict != certify.ERODER:
                continue
            found += 1
            res = erosion_time(rule, [[0], [1], [3]])
            assert res.erased, (offsets, rule.table.tolist())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50))
def test_trajectory_pure_function_of_seed(seed, t0):
    rule = builtin("stavskaya")
    noise = symmetric_noise(0.2)
    state = LatticeState.all_plus((24,))
    a = engine.evolve(state, rule, noise, RngKey(seed), t0, 5)
    b = engine.evolve(state, rule, noise, RngKey(seed), t0, 5, threads=4)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_noisy_coupling_monotone_in_state_and_noise(rng, seed):
    # shared uniforms couple trajectories: ordering is preserved sitewise,
    # both between ordered states and between noise levels below 1/2
    R = rng.randint(1, 3)
    table = random_monotone_table(R, rng)
    rule = engine.RuleSpec(
        dimension=1, neighborhood=tuple((i,) for i in range(R)), table=table
    )
    st_ = TorusStepper(rule, (12,))
    npr = np.random.default_rng(seed)
    lo = npr.integers(0, 2, size=12).astype(np.uint8)
    hi = lo | npr.integers(0, 2, size=12).astype(np.uint8)
    u = step_uniforms(RngKey(seed), 0, 0, 12)
    eps = rng.uniform(0.0, 0.5)
    k = kernel_plus(symmetric_noise(eps), rule)
    out_lo = (u < k[st_.local_index(lo)]).astype(np.uint8)
    out_hi = (u < k[st_.local_index(hi)]).astype(np.uint8)
    assert np.all(out_lo <= out_hi)
    # for the one-sided error family, stronger bias is also coupled
    # monotonically (the minus-phase kernel does not move with eps)
    eps_lo, eps_hi = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    k_lo = kernel_plus(engine.biased_noise(eps_lo, 0.0), rule)
    k_hi = kernel_plus(engine.biased_noise(eps_hi, 0.0), rule)
    out_eps = [
        (u < kk[st_.local_index(hi)]).astype(np.uint8) for kk in (k_lo, k_hi)
    ]
    assert np.all(out_eps[1] <= out_eps[0])
