import tracemalloc

import numpy as np
import pytest

from toomlab import engine, oracle
from toomlab.engine import LatticeState, biased_noise, symmetric_noise, table_noise
from toomlab.errors import ConfigError, NumericalError, ResourceLimitError
from toomlab.oracle import (
    CylinderFunction,
    ExactKernel,
    ProductMeasureSpec,
    StateDistribution,
    basin_membership,
    cylinder_expectation,
    delta_minus,
    delta_plus,
    dual_apply,
    point_mass,
    seminorm,
    spin_observable,
    stationary_distribution,
    transfer_apply,
    tv_curve,
    tv_distance,
    uniform_distribution,
    window_marginal,
    window_marginal_consistency,
)
from toomlab.rules import RuleSpec, builtin

from .oracles import brute_force_transfer

STAV = builtin("stavskaya")
NEC = builtin("nec")


class TestTransferApply:
    def test_zero_noise_tracks_deterministic_map(self):
        state = LatticeState.plus_with_island((6,), [1, 4])
        dist = point_mass((6,), state)
        out = transfer_apply(dist, ExactKernel(STAV, symmetric_noise(0.0), (6,)))
        image = engine.step_deterministic(state, STAV)
        assert out.probs[image.to_int()] == 1.0

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

    def test_chunked_matches_dense(self):
        # force the big-system chunked path on a small system and compare
        # with the cached-dense-matrix path
        rng = np.random.default_rng(4)
        probs = rng.random(2**8)
        probs /= probs.sum()
        noise = symmetric_noise(0.1)
        dense_out = ExactKernel(STAV, noise, (8,)).apply(probs)
        forced = ExactKernel(STAV, noise, (8,))
        forced.dense_matrix = lambda: None
        chunked_out = forced.apply(probs)
        assert np.allclose(dense_out, chunked_out, atol=1e-15)

    def test_dense_route_builds_no_sweep_plan(self):
        k = ExactKernel(STAV, symmetric_noise(0.1), (8,))
        k.apply(np.full(k.n_states, 1.0 / k.n_states))
        assert k._sweep_steps is None

    def test_large_system_mass_preserved(self):
        rng = np.random.default_rng(5)
        probs = rng.random(2**12)
        probs /= probs.sum()
        k = ExactKernel(STAV, symmetric_noise(0.1), (12,))
        assert k.dense_matrix() is None
        out = k.apply(probs)
        assert abs(out.sum() - 1.0) < 1e-12 and out.min() >= 0.0

    @pytest.mark.parametrize("rule, dims", [(STAV, (12,)), (NEC, (3, 4))])
    def test_sweep_matches_brute_force(self, rule, dims):
        # signed vectors, one at a time and as a (B, 2^N) batch; distinct
        # kernel entries tell the neighbor slots apart, and nec 3x4 has a
        # two-dimensional wrap-around front
        rng = np.random.default_rng(6)
        p_plus = rng.uniform(0.05, 0.95, size=1 << rule.size)
        k = ExactKernel(rule, table_noise(p_plus), dims)
        assert k.dense_matrix() is None
        vecs = rng.normal(size=(3, k.n_states))
        vecs /= np.abs(vecs).sum(axis=1, keepdims=True)
        want = brute_force_transfer(rule, p_plus, dims, vecs)
        got = k.apply(vecs)
        assert got.shape == vecs.shape
        assert np.abs(got - want).max() < 1e-15
        assert np.abs(k.apply(vecs[1]) - want[1]).max() < 1e-15

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
        # tensor 2^31 doubles (16 GiB): refused before anything that size exists
        with pytest.raises(ResourceLimitError, match="site sweep"):
            ExactKernel(NEC, symmetric_noise(0.1), (4, 6))

    def test_sweep_byte_cap_counts_the_input(self, monkeypatch):
        # a step's einsum input is alive beside its output, so a cap that
        # only the widest output would fit under refuses the torus
        steps, _ = oracle._sweep_plan(engine.neighbor_table(STAV, (12,)))
        monkeypatch.setattr(oracle, "MAX_SWEEP_BYTES", 8 << max(len(out) - 1 for *_, out in steps))
        with pytest.raises(ResourceLimitError, match="site sweep"):
            ExactKernel(STAV, symmetric_noise(0.1), (12,))

    def test_aliasing_dims_rejected(self):
        with pytest.raises(ConfigError, match="aliases"):
            ExactKernel(NEC, symmetric_noise(0.1), (2, 5))

    def test_sweep_byte_cap_counts_the_batch(self, monkeypatch):
        k = ExactKernel(STAV, symmetric_noise(0.1), (12,))
        vecs = np.full((3, k.n_states), 1.0 / k.n_states)
        monkeypatch.setattr(oracle, "MAX_SWEEP_BYTES", 2 * k._sweep_bytes)
        assert k.apply(vecs[:2]).shape == (2, k.n_states)
        with pytest.raises(ResourceLimitError, match="site sweep"):
            k.apply(vecs)


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
            max_iter=6_000_000, allow_absorbing=True,
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

    def test_reuses_the_given_kernel(self):
        k = ExactKernel(STAV, symmetric_noise(0.1), (8,))
        dense = k.dense_matrix()
        pi = stationary_distribution(STAV, symmetric_noise(0.1), (8,), tol=1e-12, kernel=k)
        assert k.dense_matrix() is dense
        want = stationary_distribution(STAV, symmetric_noise(0.1), (8,), tol=1e-12)
        assert np.array_equal(pi.probs, want.probs)

    @pytest.mark.parametrize("rule, noise, dims", [
        (STAV, symmetric_noise(0.2), (8,)),
        (RuleSpec(dimension=1, neighborhood=((0,), (-1,)), table=STAV.table),
         symmetric_noise(0.1), (8,)),
        (STAV, symmetric_noise(0.1), (7,)),
    ])
    def test_rejects_a_foreign_kernel(self, rule, noise, dims):
        k = ExactKernel(STAV, symmetric_noise(0.1), (8,))
        with pytest.raises(ValueError, match="kernel was not built"):
            stationary_distribution(rule, noise, dims, kernel=k)

    def test_absorbing_needs_opt_in(self):
        with pytest.raises(ValueError):
            stationary_distribution(STAV, biased_noise(0.1, 0.0), (6,))

    def test_nec_flip_symmetry(self):
        pi = stationary_distribution(NEC, symmetric_noise(0.3), (3, 3), tol=1e-11)
        n = 9
        flip = ((~np.arange(1 << n, dtype=np.uint64)) & np.uint64((1 << n) - 1)).astype(np.int64)
        asym = 0.5 * np.abs(pi.probs - pi.probs[flip]).sum()
        assert asym < 1e-9

    def test_deterministic_cycle_average(self):
        # eps = 0 fixes both all-minus and all-plus, so no unique law is
        # established; the uniform start ends as 1/64 all-minus, 63/64 all-plus
        pi = stationary_distribution(
            STAV, symmetric_noise(0.0), (6,), allow_absorbing=True
        )
        k = ExactKernel(STAV, symmetric_noise(0.0), (6,))
        assert np.allclose(k.apply(pi.probs), pi.probs, atol=1e-14)
        want = np.zeros(64)
        want[0], want[63] = 1.0 / 64, 63.0 / 64
        assert np.array_equal(pi.probs, want)
        assert pi.solver == "cycle" and pi.iterations > 0 and pi.residual == 0.0

    @pytest.mark.parametrize("noise, unique", [
        (symmetric_noise(0.1), True),
        (biased_noise(0.1, 0.0), True),  # all-minus reachable from everywhere
        (symmetric_noise(0.0), False),  # all-minus and all-plus both fixed
        (table_noise([0.0, 0.3, 0.6, 1.0]), False),  # both absorbing, noisy between
    ])
    def test_unique_law_detection(self, noise, unique):
        k = ExactKernel(STAV, noise, (6,))
        assert oracle._unique_law_provable(k) == unique

    def test_cesaro_route(self):
        # p(+1) is 1 when both neighbors are -1, 1/2 when only the right one
        # is +1, and 0 otherwise: the power iterates fall into a period-2
        # cycle, and only their running average is invariant
        rule = RuleSpec(dimension=1, neighborhood=((-1,), (1,)), table=[0, 0, 0, 1])
        noise = table_noise([1.0, 0.0, 0.5, 0.0])
        tol = 1e-10
        pi = stationary_distribution(rule, noise, (4,), tol=tol, allow_absorbing=True)
        assert pi.solver == "cesaro" and pi.iterations > oracle.CESARO_AFTER
        t_pi = ExactKernel(rule, noise, (4,)).apply(pi.probs)
        assert 0.5 * np.abs(t_pi / t_pi.sum() - pi.probs).sum() < tol

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


class TestCylinderFunctions:
    def test_normalization_and_point_masses(self):
        one = CylinderFunction(window=((0,),), table=np.array([1.0, 1.0]))
        u = uniform_distribution((6,))
        assert cylinder_expectation(u, one) == pytest.approx(1.0)
        spin = spin_observable((0,), 1)
        assert cylinder_expectation(u, spin) == pytest.approx(0.0)
        assert cylinder_expectation(delta_plus((6,)), spin) == 1.0
        assert cylinder_expectation(delta_minus((6,)), spin) == -1.0

    def test_window_outside_torus(self):
        spin = spin_observable((7,), 1)
        with pytest.raises(ValueError):
            cylinder_expectation(uniform_distribution((6,)), spin)

    def test_seminorm_values(self):
        assert seminorm(spin_observable((0,), 1)) == 2.0
        const = CylinderFunction(window=((0,),), table=np.array([5.0, 5.0]))
        assert seminorm(const) == 0.0
        prod = CylinderFunction(
            window=((0,), (1,)), table=np.array([1.0, -1.0, -1.0, 1.0])
        )
        assert seminorm(prod) == 4.0

    def test_window_cap(self):
        with pytest.raises(ValueError):
            CylinderFunction(window=tuple((i,) for i in range(21)), table=np.zeros(2**21))

    def test_duality_exact(self):
        # <T mu, f> == <mu, T f> for the dual pairing, exactly
        rng = np.random.default_rng(11)
        for dims, rule, noise in [
            ((8,), STAV, symmetric_noise(0.12)),
            ((3, 3), NEC, symmetric_noise(0.22)),
        ]:
            probs = rng.random(1 << int(np.prod(dims)))
            probs /= probs.sum()
            dist = StateDistribution(dims=dims, probs=probs)
            window = ((0,) * len(dims), (1,) + (0,) * (len(dims) - 1))
            f = CylinderFunction(window=window, table=rng.normal(size=4))
            lhs = cylinder_expectation(transfer_apply(dist, ExactKernel(rule, noise, dims)), f)
            rhs = cylinder_expectation(dist, dual_apply(f, rule, noise, dims))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestBasins:
    def test_delta_plus_in_tightest_basin(self):
        assert basin_membership(ProductMeasureSpec(uniform=0.0), 1.0, 0.0)

    def test_uniform_examples(self):
        assert basin_membership(ProductMeasureSpec(uniform=0.05), 1.0, 0.1)
        assert not basin_membership(ProductMeasureSpec(uniform=0.2), 1.0, 0.1)

    def test_zero_eps_prime_with_minus_mass(self):
        assert not basin_membership(ProductMeasureSpec(uniform=0.01), 5.0, 0.0)

    def test_k_below_one_fails_empty_set(self):
        assert not basin_membership(ProductMeasureSpec(uniform=0.0), 0.5, 0.1)

    def test_finite_list(self):
        spec = ProductMeasureSpec(minus_probs=(0.2, 0.05, 0.0))
        assert basin_membership(spec, 2.0, 0.1)  # single factor 2 <= K
        assert not basin_membership(spec, 1.5, 0.1)
        spec2 = ProductMeasureSpec(minus_probs=(0.2, 0.2))
        assert not basin_membership(spec2, 3.9, 0.1)  # 2*2 = 4 > 3.9
        assert basin_membership(spec2, 4.0, 0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProductMeasureSpec(minus_probs=(0.1,), uniform=0.1)
        with pytest.raises(ValueError):
            ProductMeasureSpec(uniform=1.5)
        with pytest.raises(ValueError):
            basin_membership(ProductMeasureSpec(uniform=0.0), -1.0, 0.5)


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
