import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from toomlab import engine, oracle, stats
from . import oracles
from toomlab.engine import symmetric_noise
from toomlab.errors import ConfigError
from toomlab.rules import load_rule
from toomlab.stats import (
    FitResult,
    fit_log_decay,
    is_flip_symmetric,
    minus_density_run,
    density_vs_epsilon_scan,
    spatial_correlation,
    stationary_sample,
    temporal_autocorrelation,
    two_phase_divergence,
)

STAV = load_rule("stavskaya")
NEC = load_rule("nec")


def exact_spin_stats(rule, noise, dims, lag=0, distance=0):
    """Reference moments from the exact kernel: mean, and the requested
    two-point moment (spatial at `distance` along axis 0, or temporal at
    `lag`)."""
    pi = oracle.stationary_distribution(rule, noise, dims, tol=1e-12)
    n = int(np.prod(dims))
    states = np.arange(1 << n, dtype=np.uint64)

    def spin(flat):
        return ((states >> np.uint64(flat)) & 1).astype(np.float64) * 2.0 - 1.0

    mean = float((pi.probs * spin(0)).sum())
    if lag == 0:
        other = spin(int(np.ravel_multi_index(
            (distance,) + (0,) * (len(dims) - 1), dims)))
        moment = float((pi.probs * spin(0) * other).sum())
    else:
        k = oracle.ExactKernel(rule, noise, dims)
        vec = pi.probs * spin(0)
        for _ in range(lag):
            vec = k.apply(vec)
        moment = float((vec * spin(0)).sum())
    return mean, moment - mean * mean


class TestFit:
    def test_clean_exponential(self):
        xs = np.arange(10)
        ys = 3.0 * 0.5**xs
        fit = fit_log_decay(xs, ys)
        assert fit.valid and fit.rate == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_floor_filtering(self):
        xs = [0, 1, 2, 3]
        ys = [1.0, 0.5, 1e-6, 1e-7]
        errs = [1e-3, 1e-3, 1e-3, 1e-3]
        fit = fit_log_decay(xs, ys, errs)
        assert fit.rate is None and not fit.valid

    def test_growing_sequence_invalid(self):
        fit = fit_log_decay([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0])
        assert not fit.valid and fit.rate is None


class TestDensityRun:
    def test_zero_noise_identically_zero(self):
        run = minus_density_run(STAV, symmetric_noise(0.0), (16,), 20, 5, seed=1)
        assert np.all(run.density_series == 0.0)
        assert run.density_mean == 0.0

    def test_half_noise_half_density(self):
        run = minus_density_run(NEC, symmetric_noise(0.5), (32, 32), 200, 50, seed=2)
        n_draws = 32 * 32 * 150
        assert abs(run.density_mean - 0.5) < 4.0 / (2.0 * np.sqrt(n_draws))

    def test_agrees_with_exact_marginal(self):
        noise = symmetric_noise(0.1)
        mean, _ = exact_spin_stats(STAV, noise, (8,))
        exact_density = 0.5 * (1.0 - mean)
        sample = stationary_sample(STAV, noise, (8,), burn_in=150, replicas=30000, seed=3)
        dens = 1.0 - sample.bits().reshape(30000, 8).mean(axis=1)
        se = dens.std(ddof=1) / np.sqrt(len(dens))
        assert abs(dens.mean() - exact_density) < 3.0 * se

    def test_burn_in_bounds(self):
        with pytest.raises(ConfigError):
            minus_density_run(STAV, symmetric_noise(0.1), (8,), 10, 11, seed=1)

    def test_reproducible(self):
        a = minus_density_run(STAV, symmetric_noise(0.2), (32,), 50, 10, seed=9)
        b = minus_density_run(STAV, symmetric_noise(0.2), (32,), 50, 10, seed=9)
        assert np.array_equal(a.density_series, b.density_series)


class TestScan:
    def test_zero_grid(self):
        rows = density_vs_epsilon_scan(STAV, "symmetric", [0.0], (16,), 20, 5, seed=1)
        assert rows[0]["density"] == 0.0

    def test_monotone_in_eps(self):
        rows = density_vs_epsilon_scan(
            STAV, "symmetric", [0.02, 0.05, 0.1, 0.2], (128,), 300, 150, seed=4
        )
        dens = [r["density"] for r in rows]
        assert all(a <= b + 3.0 * (rows[i]["stderr"] + rows[i + 1]["stderr"])
                   for i, (a, b) in enumerate(zip(dens, dens[1:])))
        assert dens[-1] - dens[0] > 5.0 * (rows[0]["stderr"] + rows[-1]["stderr"])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigError):
            density_vs_epsilon_scan(STAV, "symmetric", [0.1, 0.05], (16,), 10, 0, seed=1)

    def test_nec_grid_regression(self):
        # frozen from the first run of this configuration; the ladder is
        # monotone and the endpoints differ by far more than 5 SE
        rows = density_vs_epsilon_scan(
            NEC, "symmetric", [0.005, 0.01, 0.02, 0.04], (256, 256),
            steps=400, burn_in=200, seed=31,
        )
        expected = [0.005085, 0.010318, 0.021410, 0.046584]
        for row, want in zip(rows, expected):
            assert row["density"] == pytest.approx(want, abs=5e-6)
        dens = [r["density"] for r in rows]
        assert all(a <= b for a, b in zip(dens, dens[1:]))
        assert dens[-1] - dens[0] > 5.0 * (rows[0]["stderr"] + rows[-1]["stderr"])

    @pytest.mark.parametrize("rule, dims", [(NEC, (32, 32)), (STAV, (64,))])
    def test_one_sided_bias_is_ordered_pathwise(self, rule, dims):
        # the grid shares one seed, and noise that only turns +1 into -1
        # keeps a monotone rule's trajectories ordered at every step, as the
        # scan docstring claims; symmetric noise orders only the means
        series = [
            minus_density_run(rule, engine.biased_noise(eps, 0.0), dims, 100, 0, seed=0).density_series
            for eps in [0.02, 0.05, 0.1, 0.3]
        ]
        assert all(np.all(a <= b) for a, b in zip(series, series[1:]))

    def test_biased_scan_low_vs_high(self):
        # low bias keeps the plus phase; strong bias floods the ring
        rows = density_vs_epsilon_scan(
            STAV, "biased", [0.02, 0.4], (256,), steps=600, burn_in=300, seed=32
        )
        assert rows[0]["density"] < 0.5
        assert rows[1]["density"] > 0.99


class TestSpatialCorrelation:
    def test_zero_noise_trivial(self):
        sample = stationary_sample(STAV, symmetric_noise(0.0), (16,), 5, 100, seed=1)
        summary, fit = spatial_correlation(sample, [1, 2])
        assert all(row[1] == 0.0 for row in summary.table)
        assert not fit.valid

    def test_half_noise_uncorrelated(self):
        sample = stationary_sample(NEC, symmetric_noise(0.5), (16, 16), 3, 2000, seed=2)
        summary, _ = spatial_correlation(sample, [1, 2, 3])
        for _, est, se, _ in summary.table:
            assert abs(est) < 4.0 * se

    def test_matches_exact_covariance(self):
        noise = symmetric_noise(0.1)
        _, exact_cov = exact_spin_stats(STAV, noise, (8,), distance=2)
        sample = stationary_sample(STAV, noise, (8,), 150, 40000, seed=6)
        summary, _ = spatial_correlation(sample, [2])
        _, est, se, _ = summary.table[0]
        assert abs(est - exact_cov) < 4.0 * se

    def test_distance_bound(self):
        sample = stationary_sample(STAV, symmetric_noise(0.1), (8,), 100, 10, seed=1)
        with pytest.raises(ConfigError):
            spatial_correlation(sample, [4])

    def test_negative_distance_rejected(self):
        # -5 on a ring of 8 would alias distance 3, past the bound
        sample = stationary_sample(STAV, symmetric_noise(0.1), (8,), 100, 10, seed=1)
        with pytest.raises(ConfigError, match="nonnegative"):
            spatial_correlation(sample, [-5, 1, 2])

    def test_no_distances_give_an_empty_table(self):
        sample = stationary_sample(STAV, symmetric_noise(0.1), (8,), 100, 10, seed=1)
        summary, fit = spatial_correlation(sample, [])
        assert summary.table == [] and not fit.valid
        assert fit == temporal_autocorrelation(sample, [])[1]


def int8_moments(bits, dims, dist=None, later=None):
    """Per-replica float64 means the estimators used on unpacked int8 spins:
    m_r, and v_r for a spatial distance or against a later batch."""
    spins = bits.astype(np.int8) * np.int8(2) - np.int8(1)
    if dist is not None:
        grid = spins.reshape((-1,) + tuple(dims))
        partner = np.roll(grid, -dist, axis=1).reshape(spins.shape)
    else:
        partner = later.astype(np.int8) * np.int8(2) - np.int8(1)
    return (spins * partner).mean(axis=1), spins.mean(axis=1), partner.mean(axis=1)


class TestPackedEstimators:
    @pytest.mark.parametrize("rule, dims, eps", [(STAV, (8,), 0.1), (NEC, (6, 6), 0.2)])
    def test_replica_moments_match_the_int8_means(self, monkeypatch, rule, dims, eps):
        seen = []
        delta_se = stats._delta_se

        def capture(values, means, grad):
            seen.append(values)
            return delta_se(values, means, grad)

        monkeypatch.setattr(stats, "_delta_se", capture)
        noise, m, n = symmetric_noise(eps), 500, int(np.prod(dims))
        sample = stationary_sample(rule, noise, dims, 20, m, seed=8)
        spatial_correlation(sample, [1, 2])
        temporal_autocorrelation(sample, [0, 3])
        bits = sample.bits().reshape(m, n)
        later = stationary_sample(rule, noise, dims, 23, m, seed=8).bits().reshape(m, n)
        want = []
        for dist in (1, 2):
            v_r, m_r, _ = int8_moments(bits, dims, dist=dist)
            want.append(np.column_stack([v_r, m_r]))
        for k in (bits, later):
            v_r, m_r, mk_r = int8_moments(bits, dims, later=k)
            want.append(np.column_stack([v_r, m_r, mk_r]))
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert got.dtype == np.float64 and np.array_equal(got, ref)


def test_replica_means_are_counted_once_per_sample(monkeypatch):
    sample = stationary_sample(STAV, symmetric_noise(0.1), (8,), 20, 500, seed=8)
    calls = []
    counts = engine._replica_counts

    def counted(words, m, n):
        calls.append(m)
        return counts(words, m, n)

    monkeypatch.setattr(engine, "_replica_counts", counted)
    spatial_correlation(sample, [1, 2, 3])
    temporal_autocorrelation(sample, [0, 1, 2])
    # the sample's means once, one product per distance, and a product and
    # the later means per nonzero lag
    assert calls == [500] * (1 + 3 + 2 * 2)


class TestTemporalAutocorrelation:
    def test_lag_zero_is_variance(self):
        noise = symmetric_noise(0.2)
        sample = stationary_sample(STAV, noise, (12,), 30, 2000, seed=3)
        summary, _ = temporal_autocorrelation(sample, [0])
        lag, est, se, n = summary.table[0]
        assert lag == 0 and est >= 0.0 and n == 2000

    def test_half_noise_decorrelates_in_one_step(self):
        noise = symmetric_noise(0.5)
        sample = stationary_sample(STAV, noise, (12,), 10, 4000, seed=4)
        summary, _ = temporal_autocorrelation(sample, [1, 2])
        for _, est, se, _ in summary.table:
            assert abs(est) < 4.0 * se

    def test_matches_exact_lag2(self):
        noise = symmetric_noise(0.1)
        _, exact_cov = exact_spin_stats(STAV, noise, (8,), lag=2)
        sample = stationary_sample(STAV, noise, (8,), 150, 40000, seed=7)
        summary, _ = temporal_autocorrelation(sample, [2])
        _, est, se, _ = summary.table[0]
        assert abs(est - exact_cov) < 4.0 * se

    def test_negative_lag_rejected(self):
        noise = symmetric_noise(0.1)
        sample = stationary_sample(STAV, noise, (8,), 100, 10, seed=1)
        with pytest.raises(ConfigError):
            temporal_autocorrelation(sample, [-1])

    def test_repeated_unsorted_lags(self):
        sample = stationary_sample(STAV, symmetric_noise(0.2), (8,), 40, 500, seed=3)
        table = temporal_autocorrelation(sample, [2, 0, 2])[0].table
        assert table == temporal_autocorrelation(sample, [0, 2, 2])[0].table
        assert [row[0] for row in table] == [0, 2, 2]
        for row in table:
            assert [row] == temporal_autocorrelation(sample, [row[0]])[0].table


class TestTwoPhase:
    def test_half_noise_merges_immediately(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.5), (16, 16), steps=10, seed=1)
        assert res.classification == stats.MERGED
        assert np.all(res.mag_plus[1:] == res.mag_minus[1:])

    def test_low_noise_separates(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.01), (32, 32), steps=300, seed=2)
        assert res.classification == stats.SEPARATED
        assert res.gap_mean > 1.5

    def test_asymmetric_rule_inapplicable(self):
        res = two_phase_divergence(STAV, symmetric_noise(0.1), (16,), steps=10, seed=1)
        assert res.classification == stats.INAPPLICABLE

    def test_flip_symmetry_detector(self):
        assert is_flip_symmetric(NEC)
        assert is_flip_symmetric(load_rule("majority1d"))
        assert is_flip_symmetric(load_rule("identity"))
        assert not is_flip_symmetric(STAV)

    def test_gap_nonnegative_under_coupling(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.05), (16, 16), steps=100, seed=3)
        assert np.all(res.mag_plus - res.mag_minus >= 0.0)

    @pytest.mark.parametrize("steps, burn_in", [(1, None), (2, None), (2, 2)])
    def test_one_gap_point_is_undecided(self, steps, burn_in):
        # one post-burn-in point has no standard error, and with burn_in =
        # steps there is no point to average; 200 steps merge here
        res = two_phase_divergence(
            NEC, symmetric_noise(0.45), (8, 8), steps=steps, seed=0, burn_in=burn_in
        )
        if burn_in == steps:
            assert res.gap_mean is None
        else:
            assert res.gap_mean != 0.0
        assert res.gap_se is None and res.coalescence_step is None
        assert res.classification == stats.UNDECIDED

    def test_one_zero_gap_point_is_merged(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.5), (8, 8), steps=1, seed=0)
        assert res.gap_mean == 0.0
        assert res.classification == stats.MERGED

    def test_reproducible(self):
        a = two_phase_divergence(NEC, symmetric_noise(0.1), (8, 8), steps=40, seed=11)
        b = two_phase_divergence(NEC, symmetric_noise(0.1), (8, 8), steps=40, seed=11)
        assert np.array_equal(a.mag_plus, b.mag_plus)
        assert a.classification == b.classification


class TestWindowMarginalAgreement:
    def test_mc_window_marginal_matches_exact(self):
        # empirical two-site window law over 1e5 replicas vs the exact
        # stationary marginal, each entry within 4 binomial standard errors
        noise = symmetric_noise(0.1)
        dims = (8,)
        pi = oracle.stationary_distribution(STAV, noise, dims, tol=1e-12)
        exact = oracle.window_marginal(pi, [(0,), (1,)])
        replicas = 100_000
        sample = stationary_sample(STAV, noise, dims, burn_in=150, replicas=replicas, seed=21)
        bits = sample.bits().reshape(replicas, 8)
        codes = bits[:, 0].astype(np.int64) | (bits[:, 1].astype(np.int64) << 1)
        counts = np.bincount(codes, minlength=4)
        for entry in range(4):
            p_hat = counts[entry] / replicas
            se = np.sqrt(max(exact[entry] * (1.0 - exact[entry]), 1e-12) / replicas)
            assert abs(p_hat - exact[entry]) < 4.0 * se


class TestShortTimeLaw:
    """E[sigma_0(t)] from all-plus, read off the exact T^t delta_plus.

    From all-plus the spin at (0, t) depends only on the noise in its
    backward light cone, so on a torus the cone does not wrap the value is
    the infinite lattice's: stavskaya's cone at t <= 10 spans 11 sites of
    the 11-ring, nec's at t <= 2 the 3 x 3 torus.  Monte Carlo on a large
    torus must hit it at every step, on any random stream.
    """

    @staticmethod
    def exact_magnetization(rule, noise, dims, steps):
        space = oracle._space(oracle.ExactKernel(rule, noise, dims))
        out = []
        for cur in oracle._plus_iterates(space, steps):
            law = oracle.StateDistribution(dims, space.lift(cur))
            minus, plus = oracle.window_marginal(law, [(0,) * len(dims)])
            out.append(plus - minus)
        return np.array(out)

    @staticmethod
    def sampled_magnetization(rule, noise, dims, steps, block, seed):
        """Per-step mean spin and its batch-means standard error, over
        blocks of block^d sites, wider than the light cone."""
        rows = []

        def on_step(t, state):
            spins = 2.0 * state.bits().reshape(dims) - 1.0
            shape = [n for side in dims for n in (side // block, block)]
            means = spins.reshape(shape).mean(axis=tuple(range(1, len(shape), 2))).ravel()
            rows.append((means.mean(), means.std(ddof=1) / np.sqrt(means.size)))

        minus_density_run(rule, noise, dims, steps, 0, seed, on_step=on_step)
        return np.array(rows).T

    @pytest.mark.parametrize("rule, small, larger, steps, dims, block", [
        (STAV, (11,), (12,), 10, (1 << 20,), 256),
        (NEC, (3, 3), (4, 4), 2, (1024, 1024), 16),
    ], ids=["stavskaya", "nec"])
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_monte_carlo_hits_the_exact_curve(self, rule, small, larger, steps, dims, block, eps):
        noise = symmetric_noise(eps)
        exact = self.exact_magnetization(rule, noise, small, steps)
        # the cone does not wrap: the next larger torus gives the same curve
        assert np.abs(exact - self.exact_magnetization(rule, noise, larger, steps)).max() < 1e-12
        mean, se = self.sampled_magnetization(rule, noise, dims, steps, block, seed=0)
        assert exact[0] == mean[0] == 1.0
        assert (np.abs(mean - exact) <= 4.0 * se).all(), (mean - exact) / np.maximum(se, 1e-300)

    def test_stavskaya_at_ten_steps(self):
        # the value the dual side reaches on longer windows, to six places
        exact = self.exact_magnetization(STAV, symmetric_noise(0.1), (11,), 10)
        assert exact[-1] == pytest.approx(0.778941, abs=5e-7)


def _tiny_law_cases():
    """Two built-in rules, then 8 random rules on rings of 5-8 sites, each
    with a random table noise, as (rule, noise, dims, seed)."""
    cases = [pytest.param(STAV, symmetric_noise(0.1), (8,), 31, id="stavskaya"),
             pytest.param(load_rule("majority1d"), symmetric_noise(0.2), (7,), 32, id="majority1d")]
    rng = random.Random(12)
    for i in range(8):
        rule = oracles.random_rule(rng, max_R=3, max_d=1)
        reach = max(abs(u[0]) for u in rule.neighborhood)
        dims = (rng.randint(max(5, 2 * reach + 1), 8),)
        noise = engine.table_noise([rng.uniform(0.05, 0.95) for _ in range(rule.table.size)])
        cases.append(pytest.param(rule, noise, dims, 40 + i, id=f"random{i}"))
    return cases


class TestTinyTorusLaw:
    """stationary_sample's replicas B steps from all-plus, decoded to whole
    configurations, against the exact law T^B delta_plus on all 2^N states
    by a chi-square test at the 1e-4 upper quantile.  Cells expected below
    5 times are pooled, smallest first, until the pool holds at least 5."""

    M = 50_000

    @classmethod
    def statistic(cls, rule, noise, dims, steps, seed, law_noise=None):
        """The chi-square statistic over its Wilson-Hilferty 1e-4 quantile."""
        space = oracle._space(oracle.ExactKernel(rule, law_noise or noise, dims))
        *_, law = oracle._plus_iterates(space, steps)
        expected = cls.M * space.lift(law)
        sample = stationary_sample(rule, noise, dims, steps, cls.M, seed)
        n = math.prod(dims)
        codes = sample.bits().reshape(cls.M, n).astype(np.int64) @ (1 << np.arange(n))
        counts = np.bincount(codes, minlength=1 << n)
        order = np.argsort(expected, kind="stable")
        pooled = int(np.searchsorted(expected[order], 5.0))
        while pooled and expected[order[:pooled]].sum() < 5.0:
            pooled += 1
        observed, wanted = counts[order[pooled:]], expected[order[pooled:]]
        if pooled:
            observed = np.append(observed, counts[order[:pooled]].sum())
            wanted = np.append(wanted, expected[order[:pooled]].sum())
        chi2 = float(((observed - wanted) ** 2 / wanted).sum())
        df = wanted.size - 1
        z = statistics.NormalDist().inv_cdf(1.0 - 1e-4)
        return chi2 / (df * (1.0 - 2.0 / (9 * df) + z * math.sqrt(2.0 / (9 * df))) ** 3)

    @pytest.mark.parametrize("steps", [1, 3, 10])
    @pytest.mark.parametrize("rule, noise, dims, seed", _tiny_law_cases())
    def test_sample_follows_the_exact_law(self, rule, noise, dims, seed, steps):
        ratio = self.statistic(rule, noise, dims, steps, seed)
        assert ratio <= 1.0, (steps, ratio)

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_a_nearby_noise_is_told_apart(self, steps):
        # the control: replicas drawn at eps 0.1 against the law at eps 0.11
        ratio = self.statistic(STAV, symmetric_noise(0.1), (8,), steps, 30, symmetric_noise(0.11))
        assert ratio > 1.0, (steps, ratio)


class TestCoalescence:
    def test_merged_run_stops_the_minus_chain(self, monkeypatch):
        rows = []
        step = engine._PackedCore.step

        def counting(self, words, t):
            rows.append(words.shape[0])
            return step(self, words, t)

        monkeypatch.setattr(engine._PackedCore, "step", counting)
        res = two_phase_divergence(NEC, symmetric_noise(0.5), (16, 16), steps=10, seed=1)
        assert res.classification == stats.MERGED
        # p = 1/2 everywhere: both chains equal the draw mask after one step
        assert res.coalescence_step == 1
        assert rows == [2] + [1] * 9
        assert np.array_equal(res.mag_plus[1:], res.mag_minus[1:])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_meeting_step_past_the_first(self, seed):
        # the reference steps the plus and minus rows as separate batches;
        # one replica draws the same stream slots as the plain torus
        noise = symmetric_noise(0.2)
        res = two_phase_divergence(NEC, noise, (8, 8), 60, seed)
        met = oracles.probe_meeting_step(NEC, noise, (8, 8), 1, seed, 60)
        assert met is not None and met > 1 and res.coalescence_step == met
        assert np.array_equal(res.mag_plus[met:], res.mag_minus[met:])
        assert np.all(res.mag_plus[:met] > res.mag_minus[:met])

    def test_separated_run_never_meets(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.01), (16, 16), steps=50, seed=2)
        assert res.coalescence_step is None

    def test_threads_do_not_change_the_result(self):
        runs = [
            two_phase_divergence(NEC, symmetric_noise(0.5), (24, 24), steps=8, seed=4, threads=w)
            for w in (1, 2, 5)
        ]
        for other in runs[1:]:
            assert np.array_equal(other.mag_plus, runs[0].mag_plus)
            assert np.array_equal(other.mag_minus, runs[0].mag_minus)
            assert other.coalescence_step == runs[0].coalescence_step == 1


def first_disorder(rule, noise, dims, seed, steps=200):
    """First step after which the coupled minus row holds +1 where the plus
    row holds -1, or None if that never happens while both rows remain."""
    kern = engine.kernel_plus(noise, rule)
    core = engine._PackedCore(rule, dims, kern, seed, rows=2)
    for t, rows in core.run(stats._plus_minus(dims), 0, steps):
        if len(rows) == 1:
            return None
        if np.any(rows[1] & ~rows[0]):
            return t
    return None


class TestCouplingOrder:
    # stationary_sample's sandwich rests on the plus row staying at or above
    # the minus row at every site, for every step both rows are stepped

    @pytest.mark.parametrize("rule, noise, dims, seed", [
        (NEC, symmetric_noise(0.05), (64, 64), 1),
        (STAV, symmetric_noise(0.1), (257,), 2),
        (NEC, engine.biased_noise(0.1, 0.02), (48, 40), 3),
        (load_rule("majority1d"), symmetric_noise(0.3), (101,), 4),
    ])
    def test_builtin_rules(self, rule, noise, dims, seed):
        assert first_disorder(rule, noise, dims, seed) is None

    def test_random_rules(self):
        rng = random.Random(12)
        for i in range(12):
            rule = oracles.random_rule(rng, max_R=5, max_d=2)
            eps = rng.uniform(0.01, 0.5)
            dims = (9, 9) if rule.dimension == 2 else (61,)
            got = first_disorder(rule, symmetric_noise(eps), dims, 100 + i)
            assert got is None, (i, rule, eps, got)

    def test_anti_monotone_kernel_breaks_the_order(self):
        # eps 0.7 makes raising a neighbor lower p(+1): the check can fail
        got = first_disorder(NEC, symmetric_noise(0.7), (64, 64), 7, steps=50)
        assert got is not None


class TestBurnInFromThePast:
    """stationary_sample against the burn-in stepped from step 0."""

    @staticmethod
    def same(rule, noise, dims, burn_in, m, seed, threads=1):
        got = stationary_sample(rule, noise, dims, burn_in, m, seed, threads)
        want = oracles.plain_stationary_sample(rule, noise, dims, burn_in, m, seed)
        assert got.dims == want.dims and np.array_equal(got.words, want.words)
        distances = [1, 2] if len(dims) == 1 else [1]
        assert spatial_correlation(got, distances)[0].table == \
            spatial_correlation(want, distances)[0].table
        assert temporal_autocorrelation(got, [0, 1, 3])[0].table == \
            temporal_autocorrelation(want, [0, 1, 3])[0].table
        return got

    @staticmethod
    def stages(monkeypatch):
        """Record each stage as (replicas stepped, window, replicas left apart)."""
        log = []
        window = stats._window

        def logged(core, w, burn_in):
            plus, ids = window(core, w, burn_in)
            log.append((core.dims[0], w, ids.size))
            return plus, ids

        monkeypatch.setattr(stats, "_window", logged)
        return log

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_route(self, monkeypatch, seed):
        # the first window minimizes t (1 + 2K f(t)) over the probe's 313
        # replicas; the batch leaves a few hundred of its 20k apart, and
        # those meet over twice the window, stepped on their own
        log = self.stages(monkeypatch)
        noise = symmetric_noise(0.1)
        got = self.same(STAV, noise, (8,), 120, 20000, seed)
        counts = oracles.probe_apart_counts(STAV, noise, (8,), 20000, seed, 20)
        costs = [t * (1 + 2 * stats._ADDRESSED_COST * u / 313) for t, u in enumerate(counts, 1)]
        w, k = got.burn_in_window, got.burn_in_stragglers
        assert w == 1 + int(np.argmin(costs)) < len(counts)
        assert log == [(20000, w, k), (k, 2 * w, 0)] and 0 < k * stats._ADDRESSED_COST < 20000

    def test_small_probe_takes_its_meeting_step(self):
        # 1984 replicas give a probe of 31, too few to read a share off
        noise = symmetric_noise(0.1)
        window = self.same(STAV, noise, (8,), 120, 1984, 4).burn_in_window
        assert window == oracles.probe_meeting_step(STAV, noise, (8,), 1984, 4, 20)

    def test_probe_that_does_not_meet(self):
        # low noise on nec 16x16: the plus and minus phases stay apart
        got = self.same(NEC, symmetric_noise(0.05), (16, 16), 60, 300, 4)
        assert (got.burn_in_window, got.burn_in_stragglers) == (60, 0)

    def test_anti_monotone_kernel(self):
        # eps > 1/2 makes raising a neighbor lower p(+1), so no sandwich holds
        assert self.same(STAV, symmetric_noise(0.7), (8,), 60, 1000, 5).burn_in_window == 60

    @pytest.mark.parametrize("rule, noise, dims, m", [
        # 5 sites: the replicas start off the 4-word Philox blocks
        (STAV, symmetric_noise(0.1), (5,), 20000),
        (NEC, symmetric_noise(0.3), (5, 7), 5000),
        (STAV, symmetric_noise(0.1), (8,), 4099),
        (STAV, engine.biased_noise(0.05, 0.15), (8,), 20000),
    ])
    def test_stragglers(self, monkeypatch, rule, noise, dims, m):
        log = self.stages(monkeypatch)
        got = self.same(rule, noise, dims, 120, m, 3)
        assert got.burn_in_stragglers > 0 and len(log) == 2

    @pytest.mark.parametrize("first", [1, 4, 8])
    def test_window_that_misses(self, monkeypatch, first):
        # windows of up to 8 steps leave thousands of the 20k pairs apart
        # (3275 after 8), which would cost more by counter than the batch
        # in stream order, so the batch steps again, doubling the window,
        # until the 10 pairs that 16 steps leave apart go alone
        monkeypatch.setattr(stats, "_first_window", lambda probe, stop: first)
        log = self.stages(monkeypatch)
        got = self.same(STAV, symmetric_noise(0.1), (8,), 30, 20000, 6)
        batch = [w for w in (1, 2, 4, 8, 16) if w >= first]
        assert [(m, w) for m, w, _ in log] == [(20000, w) for w in batch] + [(10, 30)]
        assert (got.burn_in_window, got.burn_in_stragglers) == (sum(batch), 10)

    def test_window_that_misses_once(self, monkeypatch):
        # a window of 10 leaves 898 of 20k pairs apart, and all of them
        # meet over the last 20 steps, stepped on their own
        monkeypatch.setattr(stats, "_first_window", lambda probe, stop: 10)
        log = self.stages(monkeypatch)
        got = self.same(STAV, symmetric_noise(0.1), (8,), 120, 20000, 6)
        assert log == [(20000, 10, 898), (898, 20, 0)]
        assert (got.burn_in_window, got.burn_in_stragglers) == (10, 898)

    def test_straggler_stage_reaching_burn_in(self, monkeypatch):
        # 10 steps leave 876 of 20k pairs apart and 20 leave one, which
        # then burns in from step 0 on its own
        monkeypatch.setattr(stats, "_first_window", lambda probe, stop: 10)
        log = self.stages(monkeypatch)
        got = self.same(STAV, symmetric_noise(0.1), (8,), 30, 20000, 6)
        assert log == [(20000, 10, 876), (876, 20, 1), (1, 30, 0)]
        assert (got.burn_in_window, got.burn_in_stragglers) == (10, 876)

    def test_stragglers_that_do_not_fit(self, monkeypatch):
        # a cap that admits the batch's two rows but not the stragglers'
        # counter draws sends the stragglers back to the whole batch
        noise, m = symmetric_noise(0.1), 20000
        kern = engine.kernel_plus(noise, STAV)
        monkeypatch.setattr(engine, "MAX_MC_BYTES", engine.working_bytes(STAV, kern, (8,), 2, m))
        log = self.stages(monkeypatch)
        got = self.same(STAV, noise, (8,), 120, m, 0)
        (first, w, apart), *rest = log
        assert first == m and 0 < apart * stats._ADDRESSED_COST < m and rest == [(m, 2 * w, 0)]
        assert (got.burn_in_window, got.burn_in_stragglers) == (3 * w, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_threads(self, threads):
        got = self.same(STAV, symmetric_noise(0.1), (8,), 120, 20000, 7, threads)
        assert got.burn_in_window < 120 and got.burn_in_stragglers > 0

    def test_batch_that_fits_one_row_only(self, monkeypatch):
        noise, m = symmetric_noise(0.1), 20000
        kern = engine.kernel_plus(noise, STAV)
        one, two = (engine.working_bytes(STAV, kern, (8,), rows, m) for rows in (1, 2))
        assert one < two
        monkeypatch.setattr(engine, "MAX_MC_BYTES", one)
        got = self.same(STAV, noise, (8,), 120, m, 8)
        assert (got.burn_in_window, got.burn_in_stragglers) == (120, 0)


class TestOneTrajectory:
    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            stationary_sample(STAV, symmetric_noise(0.1), (8,), 5, 0, seed=1)


def _seed_callers(dims, steps):
    """Each Monte Carlo entry point, as seed -> its trajectory's numbers;
    evolve's start state is built here, not in the call."""
    noise, start = symmetric_noise(0.1), engine.LatticeState.all_plus(dims)
    return {
        "evolve": lambda seed: engine.evolve(start, NEC, noise, seed, 0, steps).words,
        "minus_density_run": lambda seed: minus_density_run(
            NEC, noise, dims, steps, 0, seed).density_series,
        "density_vs_epsilon_scan": lambda seed: [row["density"] for row in density_vs_epsilon_scan(
            NEC, "symmetric", [0.1], dims, steps, 0, seed)],
        "stationary_sample": lambda seed: stationary_sample(NEC, noise, dims, steps, 1, seed).words,
        "two_phase_divergence": lambda seed: two_phase_divergence(
            NEC, noise, dims, steps, seed).mag_plus,
    }


class TestOneSeedCheck:
    """Every Monte Carlo entry point takes a seed as an int in [0, 2**64), one
    Philox key each, and refuses any other before anything is stepped."""

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5],
                             ids=["minus-one", "two-to-64", "true", "float"])
    @pytest.mark.parametrize("caller", sorted(_seed_callers((8, 8), 1)))
    def test_refused_before_the_lattice(self, caller, seed):
        # a packed nec row on 1024 x 1024 is 128 KiB
        call = _seed_callers((1024, 1024), 10)[caller]
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"a seed is an integer in \[0, 2\*\*64\)"):
                call(seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 10

    @pytest.mark.parametrize("caller", sorted(_seed_callers((8, 8), 1)))
    def test_ends_of_the_range_are_two_streams(self, caller):
        call = _seed_callers((8, 8), 10)[caller]
        assert not np.array_equal(call(0), call(2**64 - 1))

    def test_inapplicable_divergence_still_checks_its_seed(self):
        assert not is_flip_symmetric(STAV)
        with pytest.raises(ConfigError, match="seed"):
            two_phase_divergence(STAV, symmetric_noise(0.1), (8,), 4, -1)
