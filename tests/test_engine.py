import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toomlab import engine
from toomlab.engine import (
    LatticeState,
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
from toomlab.rules import RuleSpec, load_rule

from .oracles import (
    TorusStepper,
    erosion_bound,
    evolve_batch,
    from_int,
    random_monotone_table,
    random_rule,
    step_uniforms,
    to_int,
)


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
        assert to_int(state) == 0b100001101
        assert from_int((9,), to_int(state)) == state

    def test_islands(self):
        state = LatticeState.plus_with_island((3, 3), [(1, 2), (0, 0)])
        grid = state.bits().reshape(3, 3)
        assert grid[1, 2] == 0 and grid[0, 0] == 0 and grid.sum() == 7

    @pytest.mark.parametrize("dims", [(13,), (5, 7), (3, 4, 6)])
    def test_islands_equal_a_per_site_embedding(self, dims):
        # coordinates run from -3L to 3L, so islands wrap both ways and
        # repeat sites; an empty island is all plus
        rng = np.random.default_rng(len(dims))
        for size in (0, 1, 5, 40):
            island = [tuple(int(rng.integers(-3 * L, 3 * L)) for L in dims) for _ in range(size)]
            grid = np.ones(dims, dtype=np.uint8)
            for site in island:
                grid[tuple(c % L for c, L in zip(site, dims))] = 0
            want = LatticeState.from_bits(dims, grid.reshape(-1))
            assert LatticeState.plus_with_island(dims, island) == want

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
        rule = load_rule(name)
        for make in (LatticeState.all_plus, LatticeState.all_minus):
            state = make(dims)
            assert evolve(state, rule, None, 0, 0, 1) == state

    def test_stavskaya_hand_example(self):
        # a site stays -1 iff it and its right neighbor are both -1
        rule = load_rule("stavskaya")
        state = LatticeState.plus_with_island((8,), [2, 3, 4])
        out = evolve(state, rule, None, 0, 0, 1)
        assert sorted(np.flatnonzero(out.bits() == 0).tolist()) == [2, 3]

    def test_nec_single_minus_heals(self):
        rule = load_rule("nec")
        state = LatticeState.plus_with_island((6, 6), [(0, 0)])
        assert evolve(state, rule, None, 0, 0, 1) == LatticeState.all_plus((6, 6))

    def test_input_unmodified(self):
        rule = load_rule("stavskaya")
        state = LatticeState.plus_with_island((8,), [1])
        before = state.bits().copy()
        evolve(state, rule, None, 0, 0, 1)
        assert np.array_equal(state.bits(), before)

    def test_aliasing_dims_rejected(self):
        with pytest.raises(ConfigError):
            TorusStepper(load_rule("nec"), (2, 5))

    @pytest.mark.parametrize("dims", [(2, 5), (5, 2)])
    def test_aliasing_dims_rejected_by_the_packed_step(self, dims):
        rule = load_rule("nec")
        with pytest.raises(ConfigError, match="aliases"):
            evolve(LatticeState.all_plus(dims), rule, None, 0, 0, 1)
        with pytest.raises(ConfigError, match="aliases"):
            engine.evolve(LatticeState.all_plus(dims), rule, symmetric_noise(0.1), 1, 0, 3)

    def test_monotone_coupling(self):
        rule = load_rule("nec")
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
        rule, noise = load_rule(name), symmetric_noise(0.2)
        n = int(np.prod(dims))
        rng = np.random.default_rng(3)
        for t in range(25):
            lo = rng.integers(0, 2, size=n).astype(np.uint8)
            hi = lo | rng.integers(0, 2, size=n).astype(np.uint8)
            lo_s, hi_s = LatticeState.from_bits(dims, lo), LatticeState.from_bits(dims, hi)
            out_lo = evolve(lo_s, rule, None, 0, 0, 1).bits()
            out_hi = evolve(hi_s, rule, None, 0, 0, 1).bits()
            assert np.all(out_lo <= out_hi)
            out_lo = evolve(lo_s, rule, noise, t, t, 1).bits()
            out_hi = evolve(hi_s, rule, noise, t, t, 1).bits()
            assert np.all(out_lo <= out_hi)

    def test_translation_covariance(self):
        rule = load_rule("nec")
        dims = (6, 6)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=36).astype(np.uint8)
        state = LatticeState.from_bits(dims, bits)
        shifted = LatticeState.from_bits(dims, np.roll(bits.reshape(dims), (1, 2), (0, 1)).ravel())
        a = evolve(shifted, rule, None, 0, 0, 1).bits().reshape(dims)
        b = evolve(state, rule, None, 0, 0, 1).bits().reshape(dims)
        b = np.roll(b, (1, 2), (0, 1))
        assert np.array_equal(a, b)


class TestNoisyStep:
    def test_zero_noise_equals_deterministic(self):
        rule = load_rule("stavskaya")
        state = LatticeState.plus_with_island((12,), [3, 4])
        noisy = evolve(state, rule, symmetric_noise(0.0), 1, 0, 1)
        assert noisy == evolve(state, rule, None, 0, 0, 1)

    def test_half_noise_is_iid_uniform(self):
        # p = 1/2 everywhere: magnetization over 100 steps of a 64x64 torus
        # is a mean of 409600 fair +-1 draws
        rule = load_rule("nec")
        dims = (64, 64)
        seed = 99
        noise = symmetric_noise(0.5)
        total = 0.0
        state = LatticeState.all_plus(dims)
        for t in range(100):
            state = evolve(state, rule, noise, seed, t, 1)
            total += 2.0 * state.bits().mean() - 1.0
        n_draws = 64 * 64 * 100
        assert abs(total / 100) < 4.0 / math.sqrt(n_draws)

    def test_thread_count_invariance(self):
        rule = load_rule("nec")
        state = LatticeState.plus_with_island((32, 32), [(3, 3)])
        noise = symmetric_noise(0.2)
        outs = [
            evolve(state, rule, noise, 17, 5, 1, threads=w)
            for w in (1, 2, 8)
        ]
        assert outs[0] == outs[1] == outs[2]

    def test_seed_and_step_keying(self):
        rule = load_rule("stavskaya")
        state = LatticeState.all_plus((64,))
        noise = symmetric_noise(0.3)
        a = evolve(state, rule, noise, 1, 0, 1)
        assert a == evolve(state, rule, noise, 1, 0, 1)
        assert a != evolve(state, rule, noise, 2, 0, 1)
        assert a != evolve(state, rule, noise, 1, 1, 1)

    def test_noisy_translation_covariance_with_shifted_draws(self):
        # stepping a shifted state with correspondingly shifted uniforms
        # equals shifting the stepped state
        rule = load_rule("stavskaya")
        dims = (16,)
        st_ = TorusStepper(rule, dims)
        kern = kernel_plus(symmetric_noise(0.25), rule)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=16).astype(np.uint8)
        u = step_uniforms(4, 0, 0, 16)
        out = (u < kern[st_.local_index(bits)]).astype(np.uint8)
        shift = 5
        bits_s = np.roll(bits, shift)
        u_s = np.roll(u, shift)
        out_s = (u_s < kern[st_.local_index(bits_s)]).astype(np.uint8)
        assert np.array_equal(out_s, np.roll(out, shift))


class TestStreams:
    def test_chunked_equals_single_pass(self):
        seed = 123
        full = step_uniforms(seed, 9, 0, 64)
        parts = [step_uniforms(seed, 9, a, 16) for a in (0, 16, 32, 48)]
        assert np.array_equal(full, np.concatenate(parts))

    def test_unaligned_start_rejected(self):
        with pytest.raises(ValueError):
            step_uniforms(1, 0, 2, 8)

    def test_batch_replica_zero_matches_single(self):
        rule = load_rule("stavskaya")
        noise = symmetric_noise(0.15)
        seed = 42
        batch = evolve_batch(
            np.ones((4, 8), dtype=np.uint8), rule, noise, (8,), seed, 0, 7
        )
        single = engine.evolve(LatticeState.all_plus((8,)), rule, noise, seed, 0, 7)
        assert np.array_equal(batch[0], single.bits())

    def test_batch_thread_invariance(self):
        rule = load_rule("nec")
        noise = symmetric_noise(0.1)
        base = np.ones((10, 9), dtype=np.uint8)
        outs = [
            evolve_batch(base, rule, noise, (3, 3), 5, 0, 6, threads=w)
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
        rule = load_rule("stavskaya")
        core = engine._PackedCore(rule, (n,), np.array(p), 17, threads)
        u = step_uniforms(17, 5, 0, n)
        want = [engine._pack(u < q, core.n_words) for q in (0.1, 0.5)]
        assert np.array_equal(core._draw(5), np.stack(want))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_thread_refused(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            engine._PackedCore(load_rule("stavskaya"), (64,), np.array([0.0, 0.1, 0.5, 1.0]),
                               17, threads)

    def test_scratch_of_one_draw_is_one_block(self):
        n = 16 * self.B
        rule = load_rule("nec")
        kern = kernel_plus(symmetric_noise(0.1), rule)
        core = engine._PackedCore(rule, (n // 1024, 1024), kern, 3)
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
        b = self.B
        stream = engine._philox(seed, t, 0).random_raw(b + 16)
        # runs across 4-word Philox blocks and the draw chunk edge, out of
        # order and repeated
        pos = np.r_[0:3, 3:12, b - 3 : b + 6, 13, 2, 2, 7]
        assert np.array_equal(engine._philox_at(seed, t, pos), stream[pos])
        far = 3 * b + np.arange(9)
        want = engine._philox(seed, t, 3 * b).random_raw(9)
        assert np.array_equal(engine._philox_at(seed, t, far), want)
        assert engine._philox_at(seed, t, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dims", [(5,), (8,), (3, 5)])
    def test_replicas_draw_their_own_slots(self, monkeypatch, threads, dims):
        # draw chunks of 64 sites end inside replicas, and replicas of 5 or
        # 15 sites start off the 4-word blocks
        monkeypatch.setattr(engine, "_DRAW_BLOCK", 64)
        rule = load_rule("stavskaya" if len(dims) == 1 else "nec")
        kern = kernel_plus(symmetric_noise(0.2), rule)
        ids = np.array([0, 2, 3, 9, 10, 11, 31, 40, 41, 57, 58, 59, 60, 61, 62, 99])
        batch = engine._PackedCore(rule, dims, kern, 9, replicas=100)
        sub = engine._PackedCore(rule, dims, kern, 9, threads, ids=ids)
        n = math.prod(dims)
        assert sub.dims == (ids.size,) + dims
        for whole, part in zip(batch._draw(7), sub._draw(7)):
            want = engine._unpack(whole, 100 * n).reshape(100, n)[ids]
            assert np.array_equal(engine._unpack(part, ids.size * n).reshape(-1, n), want)

    def test_scratch_of_one_addressed_draw_is_bounded(self):
        # 3-site replicas two sites apart share the fewest Philox blocks
        rule = load_rule("stavskaya")
        kern = kernel_plus(symmetric_noise(0.1), rule)
        ids = np.arange(0, 2 * self.B, 2)
        core = engine._PackedCore(rule, (3,), kern, 3, ids=ids)
        tracemalloc.start()
        try:
            masks = core._draw(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.B * engine._ADDRESSED_BYTES + sum(m.nbytes for m in masks)
        batch = engine._PackedCore(rule, (3,), kern, 3, replicas=ids.size)
        assert core.working_bytes - batch.working_bytes == \
            self.B * (engine._ADDRESSED_BYTES - engine._STREAM_BYTES)

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
        assert engine._plus_counts(words[:, None]).tolist() == want

    def test_all_ones_and_single_bits(self):
        words = np.array([2**64 - 1, 0] + [1 << k for k in range(64)], dtype=np.uint64)
        assert engine._plus_counts(words[:, None]).tolist() == [64, 0] + [1] * 64

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

    @pytest.mark.parametrize("n, bound", [(8, 1.5e6), (15, 2.5e6)], ids=["8", "15"])
    def test_replica_counts_scratch(self, n, bound):
        # 120,000 replicas: the corr8 batch of the benchmark (n = 8, 117 kB
        # packed), and 15 sites, which do not fill whole bytes; prefix sums
        # gathered at every replica edge traced 6.7 MB and 3.6 MB
        m = 120_000
        words = np.random.default_rng(5).integers(0, 2**64, size=-(-m * n // 64), dtype=np.uint64)
        tracemalloc.start()
        try:
            engine._replica_counts(words, m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


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
    rule = load_rule("nec")
    kern = engine.kernel_plus(engine.symmetric_noise(0.1), rule)
    one, two = (engine._PackedCore(rule, (64, 64), kern, replicas=100, rows=rows).working_bytes
                for rows in (1, 2))
    block = engine._DRAW_BLOCK * engine._STREAM_BYTES
    # nec at its peak, the east plane of the last of 4 Shannon nodes: the
    # state, two node values, the plane and its move's wrapped and carry
    # rows per chain, and 2 axis moves; the north move shifts by 64 sites,
    # whole words, so its plane takes no carry row.  A second chain adds
    # its own 6 of those rows
    assert one - block == 8 * 6400 * (6 + 2)
    assert two - one == 8 * 6400 * 6


def _traced_step(core: engine._PackedCore, words: np.ndarray, t: int) -> int:
    """Traced peak bytes of core.step(words, t)."""
    tracemalloc.start()
    try:
        core.step(words, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _held(core: engine._PackedCore, rows: int) -> int:
    """Bytes held before a step: the state, the range masks and the pool."""
    row = 8 * core.n_words
    return row * (rows + sum(len(m) for m in core._moves.values())) + sum(a.nbytes for a in core._free)


@pytest.mark.parametrize("name, dims, rows", [
    ("nec", (64, 64), 1), ("majority1d", (4096,), 1), ("nec", (64, 64), 2), ("majority1d", (4096,), 2),
], ids=["nec-dims0", "majority1d-dims1", "nec-two-chains", "majority1d-two-chains"])
def test_a_step_stays_within_working_bytes(name, dims, rows):
    # node values, planes and noise masks are given back at their last use,
    # so a first step's traced peak (the pool it fills and the output),
    # beside the state and the range masks that exist before it, stays
    # within the core's count; with two chains a mask is freed rather
    # than pooled, since no chain row can reuse it
    rule = load_rule(name)
    kern = kernel_plus(symmetric_noise(0.1), rule)
    core = engine._PackedCore(rule, dims, kern, 3, replicas=1000, rows=rows)
    held = _held(core, rows)
    peak = _traced_step(core, np.full((rows, core.n_words), engine._ONES), 0)
    assert peak + held <= core.working_bytes
    # keeping every node value and mask to the end of the step held 9 rows
    assert peak < 7 * rows * 8 * core.n_words


@pytest.mark.parametrize("name, dims", [("nec", (64, 64)), ("majority1d", (4096,))])
def test_a_later_two_chain_step_stays_within_working_bytes(name, dims):
    # a later two-chain step draws its masks beside the chain rows the first
    # step pooled; with eight masks, six of them freed before the chain
    # peak, that draw is the step's peak, two rows over the live peak
    rule = load_rule(name)
    kern = np.linspace(0.05, 0.95, 2 ** rule.size)
    core = engine._PackedCore(rule, dims, kern, 3, replicas=1000, rows=2)
    words = core.step(np.full((2, core.n_words), engine._ONES), 0)
    held = _held(core, 2)
    assert _traced_step(core, words, 1) + held <= core.working_bytes


@pytest.mark.parametrize("later", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("rows", [1, 2], ids=["one-chain", "two-chains"])
@pytest.mark.parametrize("kernel", ["symmetric", "spread"])
@pytest.mark.parametrize("name, dims, m", [
    ("nec", (64, 64), 1000), ("nec", (256, 256), None), ("majority1d", (4096,), 1000),
    ("stavskaya", (8,), 120_000), ("nec", (60, 60), 100),
], ids=["nec64x1000", "nec256", "majority1d-4096x1000", "stavskaya8x120000", "nec60x100"])
def test_the_count_covers_every_step(name, dims, m, kernel, rows, later):
    # a step's traced peak, beside the rows held before it, stays within
    # the core's count.  On one nec 256 x 256 lattice a row is 8 KiB, so
    # the draw block dominates: its raw words, comparison, packed bits and
    # small objects trace up to 9.39 bytes a site, which _STREAM_BYTES
    # covers.  A 60-wide plane shifts by part words and takes a carry row,
    # a 64-wide one does not
    rule = load_rule(name)
    kern = (kernel_plus(symmetric_noise(0.1), rule) if kernel == "symmetric"
            else np.linspace(0.05, 0.95, 2 ** rule.size))
    core = engine._PackedCore(rule, dims, kern, 3, replicas=m, rows=rows)
    words = np.full((rows, core.n_words), engine._ONES)
    if later:
        words = core.step(words, 0)
    held = _held(core, rows)
    assert _traced_step(core, words, int(later)) + held <= core.working_bytes


def test_the_pool_holds_the_rows_the_plan_counts():
    # a first one-chain step fills the pool to the plan's live peak, less
    # the state and the output; with two chains a (1, n_words) mask cannot
    # serve as chain scratch, so the core keeps none.  On the second torus
    # every axis but the last has a stride of whole words, so its moves
    # take no carry row
    rng = random.Random(3)
    for _ in range(200):
        rule = random_rule(rng, max_R=6, max_d=3)
        kern = kernel_plus(symmetric_noise(0.1), rule)
        for dims in ((7,) * rule.dimension, (7,) * (rule.dimension - 1) + (64,)):
            core = engine._PackedCore(rule, dims, kern, 3)
            core.step(np.zeros((1, core.n_words), dtype=np.uint64), 0)
            assert len(core._free) == max(chain + masks for chain, masks in core._plan.live) - 2
        core = engine._PackedCore(rule, dims, kern, 3, rows=2)
        core.step(np.zeros((2, core.n_words), dtype=np.uint64), 0)
        assert all(a.shape == (2, core.n_words) for a in core._free)


def test_redundant_shannon_nodes_are_dropped():
    # an offset the table ignores splits no sub-table, so it gets neither a
    # node nor a shifted plane, and the step is the rule's without it
    stav = load_rule("stavskaya")
    rule = RuleSpec(dimension=1, neighborhood=stav.neighborhood + ((2,),),
                    table=np.concatenate([stav.table, stav.table]))
    plan = engine._StepPlan(kernel_plus(symmetric_noise(0.1), rule), rule.neighborhood, (64,))
    assert all(hi != lo for _, hi, lo in plan.nodes)
    assert 2 not in plan.moves
    start = LatticeState.all_plus((64,))
    noise = symmetric_noise(0.2)
    assert evolve(start, rule, noise, 7, 0, 30) == evolve(start, stav, noise, 7, 0, 30)


@pytest.mark.parametrize("name, dims", [("nec", (64, 64)), ("majority1d", (4096,))])
def test_a_later_step_allocates_its_output_and_draw_scratch_only(name, dims):
    # the first step fills the core's pool; the next takes one new row for
    # the output, which leaves the pool, and draws through fixed blocks
    rule = load_rule(name)
    core = engine._PackedCore(rule, dims, kernel_plus(symmetric_noise(0.1), rule), 3,
                              replicas=1000)
    words = core.step(np.full((1, core.n_words), engine._ONES), 0)
    tracemalloc.start()
    try:
        core.step(words, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * core.n_words + (600 << 10)


@pytest.mark.parametrize("name, rows, replicas, ids, threads", [
    ("nec", 1, 50, None, 1), ("nec", 2, 50, None, 1), ("stavskaya", 2, 50, None, 1),
    ("nec", 2, None, [1, 4, 5, 30], 1), ("nec", 1, 50, None, 2),
], ids=["one-row", "two-rows", "two-rows-ring", "ids", "threads"])
def test_steps_return_new_arrays_with_the_bits_of_a_fresh_core(name, rows, replicas, ids, threads):
    # a step's scratch is the core's pool, yet every output is an array of
    # its own (a LatticeState, _window and the lags keep the rows they are
    # given) and equals what a core with an empty pool makes
    rule = load_rule(name)
    kern = kernel_plus(symmetric_noise(0.2), rule)
    dims = (9,) if name == "stavskaya" else (5, 7)
    args = (rule, dims, kern, 11, threads, replicas, rows, ids)
    core = engine._PackedCore(*args)
    words = np.stack([engine._ONES * np.ones(core.n_words, dtype=np.uint64),
                      np.zeros(core.n_words, dtype=np.uint64)])[:rows]
    words[:, -1] &= core._tail
    outs = [words]
    for t in range(4):
        outs.append(core.step(outs[-1], t))
        assert np.array_equal(outs[-1], engine._PackedCore(*args).step(outs[-2], t))
    pool = core._free
    assert pool
    for a, b in itertools.combinations(outs + pool, 2):
        assert not np.shares_memory(a, b)


def test_a_core_build_plans_its_step_once(monkeypatch):
    # the size check and the core share one step plan, so the Shannon tree
    # of the kernel is built once per core
    calls = []
    shannon = engine._shannon
    monkeypatch.setattr(engine, "_shannon", lambda leaf_of: calls.append(1) or shannon(leaf_of))
    rule = load_rule("nec")
    engine._PackedCore(rule, (16, 16), kernel_plus(symmetric_noise(0.1), rule), 0)
    assert len(calls) == 1


class TestCheckAssumptions:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_symmetric_exact(self, eps):
        for name in ("stavskaya", "nec", "majority1d"):
            assert check_assumptions(symmetric_noise(eps), load_rule(name)) == (eps, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_stavskaya_biased_exact(self, eps):
        assert check_assumptions(biased_noise(eps, 0.0), load_rule("stavskaya")) == (eps, 0.0)

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
        rule = load_rule("identity")
        eps, alpha = check_assumptions(table_noise([0.2, 0.9]), rule)
        assert eps == pytest.approx(0.2)
        assert alpha == 0.0

    def test_table_noise_alpha_positive(self):
        # stavskaya cfg (+,-) prescribes +1; rewriting the second spin to +1
        # moves the kernel from p=0.8 to p=0.9:
        #   xi=+1: 0.1/0.8,  xi=-1: 0.1/0.2 = 0.5  (the binding case)
        rule = load_rule("stavskaya")
        eps, alpha = check_assumptions(table_noise([0.1, 0.8, 0.9, 0.9]), rule)
        assert eps == pytest.approx(0.2)
        assert alpha == pytest.approx(0.5)

    def test_zero_probability_unsatisfiable(self):
        rule = load_rule("stavskaya")
        _, alpha = check_assumptions(table_noise([0.1, 1.0, 0.9, 0.9]), rule)
        assert alpha == math.inf

    def test_table_length_enforced(self):
        with pytest.raises(ConfigError):
            kernel_plus(table_noise([0.1, 0.9]), load_rule("stavskaya"))


class TestErosion:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_stavskaya_linear_erosion(self, k):
        res = erosion_time(load_rule("stavskaya"), [[i] for i in range(k)],
                           dims=(4 * k + 9,), cutoff=2 * k)
        assert res.erased and res.steps == k
        assert list(res.sizes) == list(range(k - 1, -1, -1))

    def test_torus_of_the_cone_size_refused(self, tmp_path):
        # -1 spreads both ways, so the 3-step cone of [0] spans need = 6
        # sites; on a ring of 6 its two fronts meet at the last step
        path = tmp_path / "spread.json"
        path.write_text('{"dimension": 1, "neighborhood": [[-1], [0], [1]], "plus_sets": [[0, 1, 2]]}')
        rule = load_rule(str(path))
        with pytest.raises(ConfigError, match=">= 7"):
            erosion_time(rule, [[0]], dims=(6,), cutoff=3)
        sizes = erosion_time(rule, [[0]], dims=(50,), cutoff=3).sizes
        assert erosion_time(rule, [[0]], dims=(7,), cutoff=3).sizes == sizes == (3, 5, 7)

    def test_default_cutoff_and_dims(self):
        res = erosion_time(load_rule("stavskaya"), [[0], [1], [2]])
        assert res.erased and res.steps == 3

    def test_nec_single_site(self):
        res = erosion_time(load_rule("nec"), [(0, 0)], dims=(12, 12), cutoff=4)
        assert res.erased and res.steps == 1

    def test_majority1d_pair_persists(self):
        res = erosion_time(load_rule("majority1d"), [0, 1], dims=(60,), cutoff=25)
        assert not res.erased and res.steps == 25
        assert all(s == 2 for s in res.sizes)

    def test_identity_island_persists(self):
        res = erosion_time(load_rule("identity"), [0], dims=(5,), cutoff=10)
        assert not res.erased

    def test_empty_island(self):
        res = erosion_time(load_rule("nec"), [])
        assert res.erased and res.steps == 0

    def test_light_cone_dims_enforced(self):
        with pytest.raises(ConfigError):
            erosion_time(load_rule("stavskaya"), [[0]], dims=(8,), cutoff=10)

    def test_influence_radius(self):
        assert influence_radius(load_rule("nec")) == 1
        assert influence_radius(load_rule("majority1d")) == 1
        assert influence_radius(load_rule("identity")) == 0


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
            rule = load_rule(name)
            for island in islands:
                res = erosion_time(rule, island)
                assert res.erased, (name, island)

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12])
    def test_squares_and_segments_erode_at_the_certificate_bound(self, k):
        # nec erases a k x k square in 2k - 1 steps and stavskaya a k-site
        # segment in k, exactly the bound that check's certificate gives
        for name, island, steps in (("nec", list(itertools.product(range(k), repeat=2)), 2 * k - 1),
                                    ("stavskaya", [(i,) for i in range(k)], k)):
            rule = load_rule(name)
            bound = erosion_bound(rule, island)
            res = erosion_time(rule, island, cutoff=bound)
            assert res.erased and res.steps == bound == steps

    def test_random_rules_keep_to_the_certificate(self):
        # 200 random rules in d <= 2 on the L1 ball of radius 2, the seed
        # fixed before the first run: every ERODER erases the ball within
        # its certificate's bound, a theorem (oracles.erosion_bound), and
        # every NON_ERODER keeps it to step 30, an observation on these
        # rules and not a theorem
        rng = random.Random(20)
        eroders = exact = 0
        for _ in range(200):
            rule = random_rule(rng, max_R=5, max_d=2)
            ball = [s for s in itertools.product(range(-2, 3), repeat=rule.dimension)
                    if sum(map(abs, s)) <= 2]
            bound = erosion_bound(rule, ball)
            if bound is None:
                assert not erosion_time(rule, ball, cutoff=30).erased, rule
                continue
            res = erosion_time(rule, ball, cutoff=bound)
            assert res.erased, rule
            eroders += 1
            exact += res.steps == bound
        assert (eroders, exact) == (46, 18)

    def test_non_eroders_have_persistent_islands(self):
        assert not erosion_time(load_rule("majority1d"), [0, 1], dims=(50,), cutoff=20).erased
        assert not erosion_time(load_rule("identity"), [0], dims=(5,), cutoff=20).erased

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
    rule = load_rule("stavskaya")
    noise = symmetric_noise(0.2)
    state = LatticeState.all_plus((24,))
    a = engine.evolve(state, rule, noise, seed, t0, 5)
    b = engine.evolve(state, rule, noise, seed, t0, 5, threads=4)
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
    u = step_uniforms(seed, 0, 0, 12)
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
