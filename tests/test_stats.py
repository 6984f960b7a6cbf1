import numpy as np
import pytest

from toomlab import engine, oracle, stats
from . import oracles
from toomlab.engine import symmetric_noise
from toomlab.errors import ConfigError
from toomlab.rules import builtin
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

STAV = builtin("stavskaya")
NEC = builtin("nec")


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
        assert fit.n_points == 2 and not fit.valid

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
        assert is_flip_symmetric(builtin("majority1d"))
        assert is_flip_symmetric(builtin("identity"))
        assert not is_flip_symmetric(STAV)

    def test_gap_nonnegative_under_coupling(self):
        res = two_phase_divergence(NEC, symmetric_noise(0.05), (16, 16), steps=100, seed=3)
        assert np.all(res.mag_plus - res.mag_minus >= 0.0)

    @pytest.mark.parametrize("steps, burn_in", [(1, None), (2, None), (2, 2)])
    def test_one_gap_point_is_undecided(self, steps, burn_in):
        # one post-burn-in point has no standard error; 200 steps merge here
        res = two_phase_divergence(
            NEC, symmetric_noise(0.45), (8, 8), steps=steps, seed=0, burn_in=burn_in
        )
        assert res.gap_mean != 0.0 and res.gap_se == 0.0
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
        return got.burn_in_window

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_route(self, seed):
        # a probe of 313 replicas fits its tail, and the batch burns in
        # over fewer steps than three times the probe's meeting step
        noise = symmetric_noise(0.1)
        window = self.same(STAV, noise, (8,), 120, 20000, seed)
        assert 0 < window < 3 * oracles.probe_meeting_step(STAV, noise, (8,), 20000, seed, 20)

    def test_small_probe_takes_three_meeting_steps(self):
        # 1984 replicas give a probe of 31, too few for a fit over 4..m/8
        noise = symmetric_noise(0.1)
        window = self.same(STAV, noise, (8,), 120, 1984, 4)
        assert window == 3 * oracles.probe_meeting_step(STAV, noise, (8,), 1984, 4, 20)

    def test_probe_that_does_not_meet(self):
        # low noise on nec 16x16: the plus and minus phases stay apart
        assert self.same(NEC, symmetric_noise(0.05), (16, 16), 60, 300, 4) == 60

    def test_anti_monotone_kernel(self):
        # eps > 1/2 makes raising a neighbor lower p(+1), so no sandwich holds
        assert self.same(STAV, symmetric_noise(0.7), (8,), 60, 1000, 5) == 60

    @pytest.mark.parametrize("first", [1, 4])
    def test_window_that_misses(self, monkeypatch, first):
        # windows of up to 8 steps leave some of the 20k pairs apart, and
        # 16 passes half the burn-in, so the burn-in runs again from step 0
        monkeypatch.setattr(stats, "_probe_window", lambda probe, stop, replicas: first)
        window = self.same(STAV, symmetric_noise(0.1), (8,), 30, 20000, 6)
        assert window == sum(w for w in (1, 2, 4, 8) if w >= first) + 30

    def test_window_that_misses_once(self, monkeypatch):
        # these 20k pairs all meet over the last 18 steps but not over 10,
        # so the doubled window of 20 closes
        monkeypatch.setattr(stats, "_probe_window", lambda probe, stop, replicas: 10)
        assert self.same(STAV, symmetric_noise(0.1), (8,), 120, 20000, 6) == 10 + 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_threads(self, threads):
        window = self.same(STAV, symmetric_noise(0.1), (8,), 120, 20000, 7, threads)
        assert window < 120

    def test_batch_that_fits_one_row_only(self, monkeypatch):
        noise, m = symmetric_noise(0.1), 20000
        kern = engine.kernel_plus(noise, STAV)
        one, two = (engine.working_bytes(STAV, kern, (8,), rows, m) for rows in (1, 2))
        assert one < two
        monkeypatch.setattr(engine, "MAX_MC_BYTES", one)
        assert self.same(STAV, noise, (8,), 120, m, 8) == 120


class TestOneTrajectory:
    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            stationary_sample(STAV, symmetric_noise(0.1), (8,), 5, 0, seed=1)
