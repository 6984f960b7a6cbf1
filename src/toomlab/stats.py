"""Monte Carlo estimators and decay-rate fits for the noisy dynamics.

Covariance-type quantities are estimated from independent replicas (fresh
counter streams per replica) rather than one long run, so the standard
errors need no autocorrelation correction; replicas are translation-averaged
over the torus before aggregating.  The estimators take the replica batch of
:func:`stationary_sample` as an argument, so one burn-in serves both.
Single-trajectory series (densities, magnetization gaps) report batch-means
standard errors instead.  Decay fits are unweighted least squares on
log-magnitudes, restricted to points above the noise floor (2 standard
errors); a raw rate above 1 is reported invalid rather than extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine
from .engine import LatticeState, NoiseModel, RngKey, RuleSpec
from .errors import ConfigError

NOISE_FLOOR_SE = 2.0


@dataclass(frozen=True)
class FitResult:
    """Exponential-decay fit on log-magnitudes of usable points."""

    rate: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    n_points: int
    valid: bool


@dataclass
class RunSummary:
    """Container for one estimation run: series and per-point table."""

    density_series: Optional[np.ndarray] = None
    density_mean: Optional[float] = None
    density_se: Optional[float] = None
    table: list = field(default_factory=list)  # rows: (x, estimate, stderr, n)


def fit_log_decay(
    xs: Sequence[float], ys: Sequence[float], errs: Optional[Sequence[float]] = None
) -> FitResult:
    """Fit |y| ~ A * rate^x on points above the noise floor."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if errs is None:
        errs = np.zeros_like(ys)
    errs = np.asarray(errs, dtype=np.float64)
    usable = (np.abs(ys) > NOISE_FLOOR_SE * errs) & (np.abs(ys) > 0.0)
    n = int(usable.sum())
    if n < 3:
        return FitResult(None, None, None, n, False)
    x = xs[usable]
    logy = np.log(np.abs(ys[usable]))
    slope, intercept = np.polyfit(x, logy, 1)
    pred = slope * x + intercept
    ss_res = float(((logy - pred) ** 2).sum())
    ss_tot = float(((logy - logy.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rate = math.exp(slope)
    if rate > 1.0:
        return FitResult(None, float(intercept), r2, n, False)
    return FitResult(rate, float(intercept), r2, n, True)


def batch_means_se(series: np.ndarray) -> float:
    """Standard error of the mean of a correlated series via 20 batch means."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        return 0.0
    nb = min(20, series.size)
    means = np.array([chunk.mean() for chunk in np.array_split(series, nb)])
    return float(means.std(ddof=1) / math.sqrt(nb))


def minus_density_run(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    steps: int,
    burn_in: int,
    seed: int,
    threads: int = 1,
    on_step: Optional[Callable[[int, np.ndarray], None]] = None,
) -> RunSummary:
    """Fraction of -1 sites per step along one trajectory from all-plus.

    on_step, if given, also sees (t, bits) after each step of that trajectory.
    """
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    key = RngKey(seed)
    state = LatticeState.all_plus(dims)
    densities = np.empty(steps + 1)
    densities[0] = 0.0

    def record(t: int, bits: np.ndarray) -> None:
        densities[t] = 1.0 - np.count_nonzero(bits) / bits.size
        if on_step is not None:
            on_step(t, bits)

    engine.evolve(state, rule, noise, key, 0, steps, threads=threads, on_step=record)
    tail = densities[burn_in + 1 :] if steps > burn_in else densities[burn_in:]
    return RunSummary(
        density_series=densities,
        density_mean=float(tail.mean()) if tail.size else None,
        density_se=batch_means_se(tail) if tail.size else None,
    )


def density_vs_epsilon_scan(
    rule: RuleSpec,
    noise_kind: str,
    eps_grid: Sequence[float],
    dims: Sequence[int],
    steps: int,
    burn_in: int,
    seed: int,
    threads: int = 1,
) -> list[dict]:
    """Stationary-density estimates on an ascending noise grid.

    All grid points share the seed, so the per-step uniforms are coupled
    across noise levels, which removes most of the seed-to-seed jitter from
    the shape of the ladder (for one-sided bias the coupling is even
    pathwise monotone; for symmetric noise monotonicity holds only
    statistically).
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ConfigError("eps grid must not be empty")
    if sorted(grid) != grid:
        raise ConfigError("eps grid must be sorted ascending")
    rows = []
    for eps in grid:
        if noise_kind == "symmetric":
            noise = engine.symmetric_noise(eps)
        elif noise_kind == "biased":
            noise = engine.biased_noise(eps, 0.0)
        else:
            raise ConfigError(f"scan supports symmetric/biased, not {noise_kind!r}")
        run = minus_density_run(rule, noise, dims, steps, burn_in, seed, threads)
        rows.append(
            {
                "eps": eps,
                "density": run.density_mean,
                "stderr": run.density_se,
                "n": steps - burn_in,
            }
        )
    return rows


def stationary_sample(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    burn_in: int,
    replicas: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Replica batch of near-stationary states from all-plus, shape (M, N)."""
    if replicas < 1:
        raise ConfigError(f"samples must be at least 1, got {replicas}")
    if burn_in < 0:
        raise ConfigError(f"burn_in must be nonnegative, got {burn_in}")
    bits = np.ones((replicas, int(np.prod(dims))), dtype=np.uint8)
    return engine.evolve_batch(bits, rule, noise, dims, RngKey(seed), 0, burn_in, threads=threads)


def _spins(bits: np.ndarray) -> np.ndarray:
    """0/1 sites as int8 spins -1/+1 (their products' means are exact)."""
    return bits.astype(np.int8) * np.int8(2) - np.int8(1)


def _delta_se(values: np.ndarray, means: np.ndarray, grad: np.ndarray) -> float:
    """SE of f(sample means) with gradient grad, via the sample covariance."""
    m = values.shape[0]
    if m < 2:
        return 0.0
    cov = np.cov(values, rowvar=False, ddof=1).reshape(len(means), len(means))
    var = float(grad @ cov @ grad) / m
    return math.sqrt(max(var, 0.0))


def spatial_correlation(
    sample: np.ndarray, dims: Sequence[int], distances: Sequence[int]
) -> tuple[RunSummary, FitResult]:
    """Two-point covariances cov(w_0, w_x) of a replica sample at given distances.

    x is taken along the first torus axis; each replica is averaged over all
    translations before aggregating, and the covariance standard error uses
    the delta method on the (moment, mean) replica pairs.
    """
    dims = tuple(int(L) for L in dims)
    if max(distances) >= min(dims) / 2:
        raise ConfigError("max distance must stay below min(dims)/2")
    spins = _spins(sample)
    grid = spins.reshape((-1,) + dims)
    m_r = spins.mean(axis=1)
    m_hat = float(m_r.mean())
    summary = RunSummary()
    for dist in distances:
        partner = np.roll(grid, -int(dist), axis=1).reshape(spins.shape)
        v_r = (spins * partner).mean(axis=1)
        g_hat = float(v_r.mean())
        cov_hat = g_hat - m_hat * m_hat
        se = _delta_se(
            np.column_stack([v_r, m_r]),
            np.array([g_hat, m_hat]),
            np.array([1.0, -2.0 * m_hat]),
        )
        summary.table.append((int(dist), cov_hat, se, len(sample)))
    xs = [row[0] for row in summary.table]
    ys = [row[1] for row in summary.table]
    errs = [row[2] for row in summary.table]
    return summary, fit_log_decay(xs, ys, errs)


def temporal_autocorrelation(
    sample: np.ndarray,
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    lags: Sequence[int],
    seed: int,
    burn_in: int,
    threads: int = 1,
) -> tuple[RunSummary, FitResult]:
    """Autocovariances cov(w_0(t), w_0(t+k)) at given lags.

    sample is the lag-0 batch, the :func:`stationary_sample` of the same
    rule, noise, dims, seed and burn_in; the lags continue its stream from
    step burn_in on.
    """
    lags = sorted(int(k) for k in lags)
    if lags and lags[0] < 0:
        raise ConfigError("lags must be nonnegative")
    dims = tuple(int(L) for L in dims)
    key = RngKey(seed)
    spins0 = _spins(sample)
    m0_r = spins0.mean(axis=1)
    m0 = float(m0_r.mean())
    summary = RunSummary()
    bits = sample
    t_now = burn_in
    for lag in lags:
        if lag > t_now - burn_in:
            bits = engine.evolve_batch(
                bits, rule, noise, dims, key, t_now, burn_in + lag - t_now, threads=threads
            )
            t_now = burn_in + lag
        spins_k = _spins(bits)
        v_r = (spins0 * spins_k).mean(axis=1)
        mk_r = spins_k.mean(axis=1)
        g_hat = float(v_r.mean())
        mk = float(mk_r.mean())
        cov_hat = g_hat - m0 * mk
        se = _delta_se(
            np.column_stack([v_r, m0_r, mk_r]),
            np.array([g_hat, m0, mk]),
            np.array([1.0, -mk, -m0]),
        )
        summary.table.append((lag, cov_hat, se, len(sample)))
    xs = [row[0] for row in summary.table]
    ys = [row[1] for row in summary.table]
    errs = [row[2] for row in summary.table]
    return summary, fit_log_decay(xs, ys, errs)


MERGED = "MERGED"
SEPARATED = "SEPARATED"
UNDECIDED = "UNDECIDED"
INAPPLICABLE = "INAPPLICABLE"


@dataclass
class DivergenceResult:
    """Coupled all-plus / all-minus trajectories and their magnetization gap."""

    classification: str
    mag_plus: np.ndarray
    mag_minus: np.ndarray
    gap_mean: Optional[float]
    gap_se: Optional[float]
    coalescence_step: Optional[int] = None  # first step with equal chains


def is_flip_symmetric(rule: RuleSpec) -> bool:
    """Whether the rule commutes with the global spin flip."""
    n = rule.table.shape[0]
    cfgs = np.arange(n, dtype=np.uint32)
    flipped = cfgs ^ np.uint32(n - 1)
    return bool(np.all(rule.table[flipped] == 1 - rule.table[cfgs]))


def two_phase_divergence(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    steps: int,
    seed: int,
    burn_in: Optional[int] = None,
    threads: int = 1,
) -> DivergenceResult:
    """Run coupled trajectories from all-plus and all-minus and classify.

    Both chains consume identical uniforms, so for flip-symmetric monotone
    rules the magnetization gap is nonnegative and coalescence is absorbing:
    once the chains are equal only one is stepped, and coalescence_step
    records when that happened.
    MERGED: post-burn-in gap within 3 SE of zero (or exact coalescence);
    SEPARATED: gap above 10 SE; otherwise UNDECIDED.  A single post-burn-in
    point has no standard error, so a nonzero gap there is UNDECIDED.  Rules
    that are not symmetric under the global flip are reported INAPPLICABLE,
    not an error.
    """
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if burn_in is None:
        burn_in = steps // 2
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    if not is_flip_symmetric(rule):
        return DivergenceResult(
            classification=INAPPLICABLE,
            mag_plus=np.empty(0),
            mag_minus=np.empty(0),
            gap_mean=None,
            gap_se=None,
        )
    core = engine._PackedCore(
        rule, dims, engine.kernel_plus(noise, rule), RngKey(seed), threads
    )
    n = core.n_sites
    words = np.stack([LatticeState.all_plus(dims).words, LatticeState.all_minus(dims).words])
    mag_p = np.empty(steps + 1)
    mag_m = np.empty(steps + 1)
    mag_p[0], mag_m[0] = 1.0, -1.0
    met = None
    for t in range(steps):
        words = core.step(words, t)
        plus = engine._plus_counts(words)
        mag_p[t + 1] = 2.0 * (plus[0] / n) - 1.0
        mag_m[t + 1] = 2.0 * (plus[-1] / n) - 1.0
        if met is None and np.array_equal(words[0], words[-1]):
            met, words = t + 1, words[:1]
    gap = mag_p[burn_in + 1 :] - mag_m[burn_in + 1 :]
    if gap.size == 0:
        gap = mag_p[-1:] - mag_m[-1:]
    gap_mean = float(gap.mean())
    gap_se = batch_means_se(gap)
    if np.all(gap == 0.0):
        cls = MERGED
    elif gap.size < 2:
        cls = UNDECIDED
    elif gap_mean < 3.0 * gap_se:
        cls = MERGED
    elif gap_mean > 10.0 * gap_se:
        cls = SEPARATED
    else:
        cls = UNDECIDED
    return DivergenceResult(
        classification=cls,
        mag_plus=mag_p,
        mag_minus=mag_m,
        gap_mean=gap_mean,
        gap_se=gap_se,
        coalescence_step=met,
    )
