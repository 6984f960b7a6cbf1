import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toomlab import engine, oracle
from toomlab.engine import LatticeState, biased_noise, symmetric_noise, table_noise
from toomlab.errors import ConfigError, NumericalError, ResourceLimitError
from toomlab.oracle import (
    ExactKernel,
    StateDistribution,
    spin_duality,
    stationary_distribution,
    tv_curve,
    window_marginal,
    window_marginal_consistency,
)
from toomlab.rules import RuleSpec, load_rule

from .oracles import (
    brute_force_transfer,
    delta_minus,
    delta_plus,
    one_closed_class,
    point_mass,
    random_rule,
    to_int,
    transfer_apply,
    tv_distance,
    uniform_distribution,
)

STAV = load_rule("stavskaya")
NEC = load_rule("nec")

# (seed, max_R) draws of random_rule(max_d=2) for the site sweep, with a torus
DRAWN = [
    ((4, 4), (12,)),  # offsets -2, -1, 1: fronts wrap both ways, no center
    ((6, 4), (13,)),  # offsets -2, -1, 0, 2
    ((2, 1), (13,)),  # the lone offset -2: the sweep starts at target 2
    ((163, 3), (3, 4)),  # (-1, -1), (-1, 1), (0, -1)
    ((347, 3), (4, 3)),  # (-1, 0), (1, -1), (1, 0)
]


class TestTransferApply:
    def test_zero_noise_tracks_deterministic_map(self):
        state = LatticeState.plus_with_island((6,), [1, 4])
        dist = point_mass((6,), state)
        out = transfer_apply(dist, ExactKernel(STAV, symmetric_noise(0.0), (6,)))
        image = engine.evolve(state, STAV, None, 0, 0, 1)
        assert out.probs[to_int(image)] == 1.0

    def test_half_noise_gives_uniform(self):
        dist = point_mass((6,), LatticeState.plus_with_island((6,), [0]))
        out = transfer_apply(dist, ExactKernel(STAV, symmetric_noise(0.5), (6,)))
        assert np.allclose(out.probs, 1.0 / 64.0, atol=1e-15)

    def test_biased_absorbs_to_all_minus(self):
        # all-minus is exactly absorbing and soaks up all mass over time
        k = ExactKernel(STAV, biased_noise(0.2, 0.0), (6,))
        fixed = transfer_apply(delta_minus((6,)), k)
        assert fixed.probs[0] == 1.0
        dist = delta_plus((6,))
        masses = []
        for _ in range(3000):
            dist = transfer_apply(dist, k)
            masses.append(dist.probs[0])
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
        assert masses[-1] > 0.9

    def test_mass_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        probs = rng.random(2**6)
        probs /= probs.sum()
        dist = StateDistribution(dims=(6,), probs=probs)
        k = ExactKernel(STAV, symmetric_noise(0.13), (6,))
        raw = k.apply(dist.probs)
        assert raw.min() >= 0.0
        assert abs(raw.sum() - 1.0) <= 1e-12
        out = transfer_apply(dist, k)
        assert abs(out.probs.sum() - 1.0) <= 1e-12

    def test_small_ring_sweep_matches_brute_force(self):
        # the site sweep is the full-space apply at every size
        rng = np.random.default_rng(4)
        probs = rng.random(2**8)
        probs /= probs.sum()
        noise = symmetric_noise(0.1)
        want = brute_force_transfer(STAV, engine.kernel_plus(noise, STAV), (8,), probs)[0]
        assert np.allclose(ExactKernel(STAV, noise, (8,)).apply(probs), want, atol=1e-15)

    def test_orbit_route_builds_no_sweep_plan(self):
        # up to 11 sites, solving and tracing run on the orbit matrix alone
        noise = symmetric_noise(0.1)
        for rule, dims in [(STAV, (11,)), (NEC, (3, 3))]:
            pi = stationary_distribution(rule, noise, dims)
            tv_curve(pi.kernel, pi, n_max=20)
            assert pi.kernel._sweep_steps is None

    @pytest.mark.parametrize("loss, refused", [(1e-6, True), (1e-12, False)])
    def test_one_drift_rule_for_every_push_forward(self, loss, refused):
        # transfer_apply and the T^n delta_plus iterate behind tv_curve share
        # one rule: a drift over 1e-9 is refused, a smaller one divided out
        class Leaky:
            n_states = 64

            def apply(self, vec):
                return vec * (1.0 - loss)

        start = delta_plus((6,))
        if refused:
            with pytest.raises(NumericalError, match="lost mass"):
                transfer_apply(start, Leaky())
            with pytest.raises(NumericalError, match="lost mass"):
                tv_curve(Leaky(), start, n_max=3)
        else:
            assert transfer_apply(start, Leaky()).probs[-1] == 1.0
            assert tv_curve(Leaky(), start, n_max=3) == [0.0, 0.0]

    def test_large_system_mass_preserved(self):
        rng = np.random.default_rng(5)
        probs = rng.random(2**12)
        probs /= probs.sum()
        k = ExactKernel(STAV, symmetric_noise(0.1), (12,))
        out = k.apply(probs)
        assert abs(out.sum() - 1.0) < 1e-12 and out.min() >= 0.0

    @pytest.mark.parametrize(
        "rule, dims",
        [(STAV, (12,)), (NEC, (3, 4))]
        + [(random_rule(random.Random(seed), max_R, 2), dims) for (seed, max_R), dims in DRAWN],
    )
    def test_sweep_matches_brute_force(self, rule, dims):
        # signed vectors, one at a time; distinct kernel entries tell the
        # neighbor slots apart, and nec 3x4 has a two-dimensional
        # wrap-around front
        assert rule.dimension == len(dims)
        rng = np.random.default_rng(6)
        p_plus = rng.uniform(0.05, 0.95, size=1 << rule.size)
        assert len(set(p_plus)) == len(p_plus)
        k = ExactKernel(rule, table_noise(p_plus), dims)
        vecs = rng.normal(size=(3, k.n_states))
        vecs /= np.abs(vecs).sum(axis=1, keepdims=True)
        want = brute_force_transfer(rule, p_plus, dims, vecs)
        for vec, row in zip(vecs, want):
            got = k.apply(vec)
            assert got.shape == vec.shape
            assert np.abs(got - row).max() < 1e-15

    @pytest.mark.parametrize("rule, dims", [(STAV, (12,)), (NEC, (3, 3)), (NEC, (3, 4))])
    def test_apply_never_returns_a_buffer(self, rule, dims):
        # applies write through the plan's two buffers; each result is a
        # fresh array, bit-equal to a repeated apply of the same vector
        k = ExactKernel(rule, symmetric_noise(0.1), dims)
        vecs = np.random.default_rng(8).random((2, k.n_states))
        first = k.apply(vecs[0])
        kept = first.copy()
        second = k.apply(vecs[1])
        assert np.array_equal(first, kept)
        assert not any(np.shares_memory(out, buf) for out in (first, second) for buf in k._buffers)
        assert np.array_equal(first, k.apply(vecs[0]))
        assert np.array_equal(second, k.apply(vecs[1]))

    def test_site_cap(self):
        with pytest.raises(ResourceLimitError):
            ExactKernel(STAV, symmetric_noise(0.1), (25,))

    def test_site_cap_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                ExactKernel(NEC, symmetric_noise(0.1), (1000, 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sweep_byte_cap(self):
        # nec 4x6 has 24 sites, but its wrapped front makes the widest sweep
        # tensor 2^31 doubles (16 GiB): refused before anything that size
        # exists, as are 3x7 and 3x8; 4x5 needs exactly the cap and is kept
        for dims in [(4, 6), (3, 7), (3, 8)]:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="site sweep"):
                    ExactKernel(NEC, symmetric_noise(0.1), dims)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        assert ExactKernel(NEC, symmetric_noise(0.1), (4, 5))._sweep_bytes == oracle.MAX_SWEEP_BYTES

    @pytest.mark.parametrize("rule, dims", [(STAV, (14,)), (NEC, (3, 4))])
    def test_sweep_apply_peak(self, rule, dims):
        # a step holds its input and its output and nothing else of their size
        k = ExactKernel(rule, symmetric_noise(0.1), dims)
        vec = np.full(k.n_states, 1.0 / k.n_states)
        tracemalloc.start()
        try:
            k.apply(vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= k._sweep_bytes + (1 << 20)

    def test_second_apply_builds_no_step_matrices(self, monkeypatch):
        k = ExactKernel(NEC, symmetric_noise(0.1), (3, 4))
        vec = np.full(k.n_states, 1.0 / k.n_states)
        matrices = [st.matrix for st in k._sweep_steps]
        first = k.apply(vec)

        def rebuild(*args):
            raise AssertionError("step matrices rebuilt")

        monkeypatch.setattr(oracle, "_sweep_plan", rebuild)
        monkeypatch.setattr(oracle, "_sweep_step", rebuild)
        assert np.array_equal(k.apply(vec), first)
        assert all(a is st.matrix for a, st in zip(matrices, k._sweep_steps))

    def test_sweep_byte_cap_counts_the_input(self, monkeypatch):
        # a step's input is alive beside its output, so a cap that only the
        # widest output would fit under refuses the torus
        kern = engine.kernel_plus(symmetric_noise(0.1), STAV)
        steps, _ = oracle._sweep_plan(engine.neighbor_table(STAV, (12,)), kern)
        monkeypatch.setattr(oracle, "MAX_SWEEP_BYTES", 8 * max(st.out_size for st in steps))
        with pytest.raises(ResourceLimitError, match="site sweep"):
            ExactKernel(STAV, symmetric_noise(0.1), (12,))

    def test_aliasing_dims_rejected(self):
        with pytest.raises(ConfigError, match="aliases"):
            ExactKernel(NEC, symmetric_noise(0.1), (2, 5))

    def test_apply_takes_one_vector(self):
        k = ExactKernel(STAV, symmetric_noise(0.1), (12,))
        with pytest.raises(ValueError, match="one vector"):
            k.apply(np.full((2, k.n_states), 1.0 / k.n_states))


# (seed, max_R) draws of random_rule(max_d=2) for the orbit matrix, with a torus
ORBIT_DRAWN = [
    ((4, 4), (11,)),  # offsets -2, -1, 1
    ((6, 4), (7,)),  # offsets -2, -1, 0, 2
    ((2, 1), (10,)),  # the lone offset -2
    ((25, 4), (3, 3)),  # the lone offset (-1, 0)
    ((347, 4), (3, 3)),  # (-1, -1), (-1, 1), (0, 0), (0, 1)
]

CESARO_RULE = RuleSpec(dimension=1, neighborhood=((-1,), (1,)), table=[0, 0, 0, 1])


class TestOrbits:
    @pytest.mark.parametrize(
        "rule, dims",
        [(STAV, (6,)), (STAV, (11,)), (NEC, (3, 3))]
        + [(random_rule(random.Random(seed), max_R, 2), dims) for (seed, max_R), dims in ORBIT_DRAWN],
    )
    def test_orbit_matrix_matches_brute_force(self, rule, dims):
        # lift(xi) T, read at the representatives, is xi A; distinct kernel
        # entries tell the neighbor slots apart
        rng = np.random.default_rng(7)
        p_plus = rng.uniform(0.05, 0.95, size=1 << rule.size)
        k = ExactKernel(rule, table_noise(p_plus), dims)
        space = oracle._space(k)
        assert space.weights.sum() == k.n_states
        assert (space.reps[0], space.reps[-1]) == (0, k.n_states - 1)
        assert space.weights[0] == space.weights[-1] == 1.0
        xi = rng.random(space.size)
        xi /= space.total(xi)
        want = brute_force_transfer(rule, p_plus, dims, space.lift(xi))[0][space.reps]
        assert np.abs(xi @ space.matrix - want).max() < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_products_multiply_in_ascending_site_order(self, data):
        # the orbit matrix takes its product weights from this helper, which
        # keeps the bits of a per-entry product
        n = data.draw(st.integers(1, 6))
        rows = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        probs = np.array(data.draw(st.lists(rows, min_size=1, max_size=5)))
        targets = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                              max_size=8)))
        got = oracle._products(probs, targets)
        assert got.shape == (len(targets), len(probs))
        for k, target in enumerate(targets.tolist()):
            for b, row in enumerate(probs.tolist()):
                want = 1.0
                for x, p in enumerate(row):
                    want *= p if target >> x & 1 else 1.0 - p
                assert got[k, b] == want

    @pytest.mark.parametrize("rule, dims, orbits", [
        (STAV, (6,), 14), (STAV, (8,), 36), (NEC, (3, 3), 64), (STAV, (11,), 188),
    ])
    def test_orbit_counts(self, rule, dims, orbits):
        k = ExactKernel(rule, symmetric_noise(0.1), dims)
        assert oracle._space(k).size == orbits

    @pytest.mark.parametrize("rule, noise, dims, kwargs, solver, bound", [
        # the absorbing chain's spectral gap is 2e-5, so TV residuals at the
        # roundoff floor (1e-15) leave laws that differ by up to ~1e-15 / gap
        (STAV, biased_noise(0.12, 0.0), (6,), dict(tol=1e-10), "krylov",
         1e-11),
        (NEC, symmetric_noise(0.1), (3, 3), dict(tol=1e-11), "krylov", 1e-12),
    ])
    def test_orbit_route_matches_full_space(self, monkeypatch, rule, noise, dims, kwargs, solver,
                                            bound):
        pi = stationary_distribution(rule, noise, dims, **kwargs)
        curve = tv_curve(ExactKernel(rule, noise, dims), pi, n_max=30)
        monkeypatch.setattr(oracle, "MAX_ORBIT_SITES", 0)
        full = stationary_distribution(rule, noise, dims, **kwargs)
        assert pi.solver == full.solver == solver
        assert pi.iterations == full.iterations
        assert tv_distance(pi, full) < bound
        full_curve = tv_curve(ExactKernel(rule, noise, dims), pi, n_max=30)
        assert len(curve) == len(full_curve)
        assert np.abs(np.subtract(curve, full_curve)).max() < bound


class TestStationary:
    @pytest.mark.filterwarnings("error")
    def test_half_noise_uniform(self):
        # the uniform start is already invariant: one verifying application,
        # and no Krylov vector is formed from the zero residual
        pi = stationary_distribution(STAV, symmetric_noise(0.5), (6,), tol=1e-12)
        assert np.allclose(pi.probs, 1.0 / 64.0, atol=1e-12)
        assert (pi.solver, pi.iterations) == ("krylov", 1)

    @pytest.mark.filterwarnings("error")
    def test_krylov_happy_breakdown(self):
        # T sends every law to p in one step, so the first Arnoldi vector
        # (p - w) / |p - w| is exactly A-invariant: the next one vanishes,
        # and the one-vector basis already holds the law
        p = np.array([0.5, 0.5, 0.0, 0.0])

        class OneStep:
            dims, n_states = (2,), 4

            def apply(self, vec):
                return vec.sum() * p

        pi = oracle._krylov_solve(OneStep(), tol=1e-12, max_iter=100)
        assert np.array_equal(pi.probs, p) and pi.iterations == 3
        # pi is exact, yet a residual of 0 cannot pass tol 0
        with pytest.raises(NumericalError, match="above tol"):
            oracle._krylov_solve(OneStep(), tol=0.0, max_iter=100)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            stationary_distribution(STAV, symmetric_noise(0.1), (6,), tol=tol)

    def test_biased_reaches_all_minus_point_mass(self):
        # all-minus is reachable from every state, so the law is unique and
        # solved for by GMRES instead of by ~2M power iterations
        pi = stationary_distribution(
            STAV, biased_noise(0.1, 0.0), (6,), tol=1e-10,
            max_iter=6_000_000,
        )
        k = ExactKernel(STAV, biased_noise(0.1, 0.0), (6,))
        t_pi = k.apply(pi.probs)
        assert 0.5 * np.abs(t_pi / t_pi.sum() - pi.probs).sum() < 1e-10
        assert tv_distance(pi, delta_minus((6,))) < 1e-12
        assert pi.solver == "krylov" and pi.iterations < 50

    def test_krylov_matches_power_iteration(self):
        tol = 1e-12
        pi = stationary_distribution(STAV, symmetric_noise(0.07), (8,), tol=tol)
        assert pi.solver == "krylov" and pi.residual < tol
        p_plus = np.where(STAV.table == 1, 1.0 - 0.07, 0.07)
        matrix = brute_force_transfer(STAV, p_plus, (8,), np.eye(256))
        ref = np.full(256, 1.0 / 256)
        for _ in range(5000):
            nxt = ref @ matrix
            step = 0.5 * np.abs(nxt - ref).sum()
            ref = nxt
            if step < 1e-15:
                break
        assert 0.5 * np.abs(pi.probs - ref).sum() < tol

    def test_krylov_apply_count(self):
        # low noise mixes slowly: power iteration needs 488 applications here
        pi = stationary_distribution(NEC, symmetric_noise(0.02), (3, 4), tol=1e-10)
        assert pi.solver == "krylov" and pi.iterations <= 60 and pi.residual < 1e-10

    def test_reuses_the_given_kernel(self, monkeypatch):
        built = []
        build = oracle._orbit_space
        monkeypatch.setattr(oracle, "_orbit_space", lambda k: built.append(k) or build(k))
        pi = stationary_distribution(STAV, symmetric_noise(0.1), (8,), tol=1e-12)
        tv_curve(pi.kernel, pi, n_max=5)
        assert built == [pi.kernel]

    @pytest.mark.parametrize("dims", [(8,), (12,)])
    def test_step_is_the_full_space_update(self, dims):
        # the verifying apply: the orbit matrix up to 11 sites, the site sweep above
        pi = stationary_distribution(STAV, symmetric_noise(0.1), dims)
        assert np.allclose(pi.stepped, pi.kernel.apply(pi.probs), rtol=0.0, atol=1e-15)
        assert not pi.stepped.flags.writeable

    def test_absorbing_chain_needs_no_opt_in(self):
        # all-minus absorbs, and the uniqueness proof alone admits the chain
        pi = stationary_distribution(STAV, biased_noise(0.1, 0.0), (6,))
        assert pi.probs[0] > 1.0 - 1e-9

    def test_nec_flip_symmetry(self):
        pi = stationary_distribution(NEC, symmetric_noise(0.3), (3, 3), tol=1e-11)
        n = 9
        flip = ((~np.arange(1 << n, dtype=np.uint64)) & np.uint64((1 << n) - 1)).astype(np.int64)
        asym = 0.5 * np.abs(pi.probs - pi.probs[flip]).sum()
        assert asym < 1e-9

    def test_deterministic_cycle_average(self):
        # eps = 0 fixes both all-minus and all-plus, so the invariant law is
        # not unique: the cycle average of the uniform start would be 1/64
        # all-minus, 63/64 all-plus, a law of that start alone
        with pytest.raises(ConfigError, match="not proven unique"):
            stationary_distribution(STAV, symmetric_noise(0.0), (6,))

    @pytest.mark.parametrize("rule, noise, dims, unique", [
        pytest.param(STAV, symmetric_noise(0.1), (6,), True, id="noise0-True"),
        # all-minus reachable from everywhere
        pytest.param(STAV, biased_noise(0.1, 0.0), (6,), True, id="noise1-True"),
        # all-minus and all-plus both fixed
        pytest.param(STAV, symmetric_noise(0.0), (6,), False, id="noise2-False"),
        # both absorbing, noisy between
        pytest.param(STAV, table_noise([0.0, 0.3, 0.6, 1.0]), (6,), False, id="noise3-False"),
        # no configuration sure to give +1: proven past the orbit search's 11 sites
        pytest.param(STAV, biased_noise(0.12, 0.0), (12,), True, id="stavskaya12-biased"),
        pytest.param(STAV, biased_noise(0.3, 0.0), (16,), True, id="stavskaya16-biased"),
        # sure both ways (2 gives +1, 0 and 3 give -1): only the orbit
        # search shows all-minus reachable
        pytest.param(STAV, table_noise([0.0, 0.5, 1.0, 0.0]), (6,), True,
                     id="stavskaya6-non-monotone"),
        pytest.param(CESARO_RULE, table_noise([1.0, 0.0, 0.5, 0.0]), (4,), False,
                     id="cesaro-chain"),
    ])
    def test_unique_law_detection(self, rule, noise, dims, unique):
        k = ExactKernel(rule, noise, dims)
        assert oracle._unique_law_provable(k) == unique

    def test_unique_law_proof_is_sound(self):
        # random table noises with sure, impossible and uncertain outputs: a
        # chain the proof calls unique has exactly one closed class in the
        # support of the brute-force transfer matrix
        rng = random.Random(0)
        verdicts = []
        while len(verdicts) < 40:
            rule = random_rule(rng, 4, 2)
            side = 2 * max(max(abs(c) for c in u) for u in rule.neighborhood) + 1
            if side ** rule.dimension > 11:
                continue
            dims = (rng.randint(side, 11),) if rule.dimension == 1 else (3, 3)
            p_plus = [rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)])
                      for _ in range(1 << rule.size)]
            provable = oracle._unique_law_provable(ExactKernel(rule, table_noise(p_plus), dims))
            if provable:
                n_states = 1 << int(np.prod(dims))
                support = brute_force_transfer(rule, np.array(p_plus), dims, np.eye(n_states)) > 0
                assert one_closed_class(support), (rule, p_plus, dims)
            verdicts.append(provable)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_cesaro_route(self):
        # p(+1) is 1 when both neighbors are -1, 1/2 when only the right one
        # is +1, and 0 otherwise: the chain has three closed classes, so its
        # invariant law depends on the start
        with pytest.raises(ConfigError, match="not proven unique"):
            stationary_distribution(CESARO_RULE, table_noise([1.0, 0.0, 0.5, 0.0]), (4,))

    def test_biased_above_orbit_size_solves_by_krylov(self):
        # no configuration is sure to give +1, so the law is proven unique
        # at 12 sites, past the orbit search; the chain mixes slowly (10^6
        # power iterations stay above tol 1e-10)
        pi = stationary_distribution(STAV, biased_noise(0.12, 0.0), (12,))
        assert pi.solver == "krylov" and pi.iterations <= 30 and pi.residual < 1e-10

    def test_verified_residual(self):
        pi = stationary_distribution(STAV, symmetric_noise(0.07), (8,), tol=1e-11)
        k = ExactKernel(STAV, symmetric_noise(0.07), (8,))
        t_pi = k.apply(pi.probs)
        assert 0.5 * np.abs(t_pi / t_pi.sum() - pi.probs).sum() < 1e-11


class TestTvDistance:
    def test_extremes(self):
        assert tv_distance(delta_plus((4,)), delta_minus((4,))) == 1.0
        u = uniform_distribution((4,))
        assert tv_distance(u, u) == 0.0
        assert tv_distance(u, delta_plus((4,))) == pytest.approx(1.0 - 2.0**-4)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(delta_plus((4,)), delta_plus((5,)))


class TestSpinDuality:
    @pytest.mark.parametrize("rule, noise, dims", [
        (STAV, symmetric_noise(0.1), (8,)),
        (NEC, table_noise([0.05, 0.1, 0.2, 0.9, 0.15, 0.85, 0.7, 0.97]), (3, 3)),
    ], ids=["stavskaya-8", "nec-3x3-table"])
    def test_right_side_is_pi_times_t_sigma(self, rule, noise, dims):
        # E_pi[T sigma_0] against pi . (T sigma_0), T built one source state at a
        # time; pi T is formed first, as T sigma_0's 512-term rows of products
        # round to 4.6e-15 on the table noise
        pi = stationary_distribution(rule, noise, dims)
        n = pi.kernel.n_states
        matrix = brute_force_transfer(rule, pi.kernel.kern, dims, np.eye(n))
        want = (pi.probs @ matrix) @ np.where(np.arange(n) & 1, 1.0, -1.0)
        lhs, rhs = spin_duality(pi)
        assert abs(rhs - want) < 1e-15 and abs(lhs - want) < 1e-15


class TestWindowConsistency:
    def test_zero_steps_no_discrepancy(self):
        assert window_marginal_consistency(
            STAV, symmetric_noise(0.1), [(0,)], 0, (8,), (12,)
        ) == 0.0

    def test_stavskaya_rings(self):
        d = window_marginal_consistency(
            STAV, symmetric_noise(0.1), [(0,)], 2, (8,), (12,)
        )
        assert d < 1e-12

    def test_nec_tori(self):
        d = window_marginal_consistency(
            NEC, symmetric_noise(0.1), [(0, 0)], 1, (3, 3), (4, 4)
        )
        assert d < 1e-12

    @pytest.mark.parametrize("rule, window, n, small, large", [
        (STAV, [(0,), (1,)], 3, (9,), (11,)),
        (NEC, [(0, 0)], 1, (3, 3), (4, 4)),
    ])
    def test_orbit_route_matches_full_space(self, monkeypatch, rule, window, n, small, large):
        # up to 11 sites T^n delta_plus is iterated on orbits; the marginals
        # it gives are those of the full-space sweep
        marginals = {}
        marginal = oracle.window_marginal

        def kept(dist, sites):
            out = marginal(dist, sites)
            marginals.setdefault(route, []).append(out)
            return out

        monkeypatch.setattr(oracle, "window_marginal", kept)
        for route in ("orbit", "full"):
            if route == "full":
                monkeypatch.setattr(oracle, "MAX_ORBIT_SITES", 0)
            assert window_marginal_consistency(
                rule, symmetric_noise(0.1), window, n, small, large) < 1e-12
        for orbit, full in zip(marginals["orbit"], marginals["full"]):
            assert np.abs(orbit - full).max() < 1e-15

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            window_marginal_consistency(
                STAV, symmetric_noise(0.1), [(0,)], 6, (8,), (12,)
            )


class TestConvergenceAndDecaySurrogates:
    def test_tv_curve_monotone_tail(self):
        noise = symmetric_noise(0.08)
        pi = stationary_distribution(STAV, noise, (8,), tol=1e-12)
        curve = tv_curve(ExactKernel(STAV, noise, (8,)), pi, n_max=60, floor=1e-11)
        assert curve[0] > curve[5] > curve[-1]

    def test_stationary_spatial_covariance_decays_on_ring(self):
        noise = symmetric_noise(0.05)
        dims = (10,)
        pi = stationary_distribution(STAV, noise, dims, tol=1e-12)
        n = 10
        states = np.arange(1 << n, dtype=np.uint64)
        spins = [
            ((states >> np.uint64(j)) & 1).astype(np.float64) * 2.0 - 1.0
            for j in range(n)
        ]
        mean0 = float((pi.probs * spins[0]).sum())
        covs = []
        for dist in range(1, 6):
            moment = float((pi.probs * spins[0] * spins[dist]).sum())
            covs.append(abs(moment - mean0 * float((pi.probs * spins[dist]).sum())))
        assert all(a >= b - 1e-12 for a, b in zip(covs, covs[1:]))


class TestMarginals:
    def test_window_marginal_sums_to_one(self):
        pi = stationary_distribution(STAV, symmetric_noise(0.1), (8,), tol=1e-10)
        marg = window_marginal(pi, [(0,), (3,)])
        assert marg.shape == (4,)
        assert marg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_marginal(self):
        marg = window_marginal(delta_plus((6,)), [(2,)])
        assert np.allclose(marg, [0.0, 1.0])
