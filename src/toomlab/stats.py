"""Monte Carlo estimators and decay-rate fits for the noisy dynamics.

Covariance-type quantities are estimated from independent replicas (fresh
counter streams per replica) rather than one long run, so the standard
errors need no autocorrelation correction; replicas are translation-averaged
over the torus before aggregating.  The estimators take the replica batch of
:func:`stationary_sample` as an argument, so one burn-in serves both.  That
sample stays packed: one LatticeState over dims (M, *dims), the stepping
core's own replica layout, and every per-replica average is a popcount of
its words (of w for the magnetization, of NOT(w XOR w') for a two-point
product), divided as np.mean divides the exact spin sum.
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

    on_step, if given, also sees (0, initial bits) once the run is accepted,
    then (t, bits) after each step of that trajectory.
    """
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    key = RngKey(seed)
    engine.working_bytes(rule, engine.kernel_plus(noise, rule), dims, threads=threads)
    state = LatticeState.all_plus(dims)
    if on_step is not None:
        on_step(0, state.bits())
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


def _batch_core(
    rule: RuleSpec, noise: NoiseModel, dims: Sequence[int], replicas: int, seed: int, threads: int
) -> engine._PackedCore:
    return engine._PackedCore(
        rule, dims, engine.kernel_plus(noise, rule), RngKey(seed), threads, replicas=replicas
    )


def stationary_sample(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    burn_in: int,
    replicas: int,
    seed: int,
    threads: int = 1,
) -> LatticeState:
    """Replica batch of near-stationary states from all-plus, as one packed
    lattice of dims (M, *dims): replica r is flat sites [r*N, (r+1)*N)."""
    if replicas < 1:
        raise ConfigError(f"samples must be at least 1, got {replicas}")
    if burn_in < 0:
        raise ConfigError(f"burn_in must be nonnegative, got {burn_in}")
    core = _batch_core(rule, noise, dims, replicas, seed, threads)
    words = LatticeState.all_plus(core.dims).words[None, :]
    for t in range(burn_in):
        words = core.step(words, t)
    return LatticeState(dims=core.dims, words=words[0])


def _replica_shape(sample: LatticeState, dims: Sequence[int]) -> tuple[int, int]:
    """(M, N) of a replica sample over dims."""
    if sample.dims[1:] != tuple(int(L) for L in dims):
        raise ConfigError(f"sample of dims {sample.dims} is not a replica batch over {dims}")
    return sample.dims[0], math.prod(sample.dims[1:])


def _replica_means(words: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each replica's spin average, (2 * plus - N) / N from popcounts.

    That is the exact float64 sum of the N spins divided by N, which is what
    np.mean gives on the unpacked spins, bit for bit.
    """
    return (2 * engine._replica_counts(words, m, n) - n).astype(np.float64) / n


def _delta_se(values: np.ndarray, means: np.ndarray, grad: np.ndarray) -> float:
    """SE of f(sample means) with gradient grad, via the sample covariance."""
    m = values.shape[0]
    if m < 2:
        return 0.0
    cov = np.cov(values, rowvar=False, ddof=1).reshape(len(means), len(means))
    var = float(grad @ cov @ grad) / m
    return math.sqrt(max(var, 0.0))


def spatial_correlation(
    sample: LatticeState, dims: Sequence[int], distances: Sequence[int]
) -> tuple[RunSummary, FitResult]:
    """Two-point covariances cov(w_0, w_x) of a replica sample at given distances.

    x is taken along the first torus axis; each replica is averaged over all
    translations before aggregating, and the covariance standard error uses
    the delta method on the (moment, mean) replica pairs.  A product of two
    spins is +1 where their bits agree, so a replica's moment is the mean of
    NOT(w XOR w shifted by x), counted on the packed words.
    """
    dims = tuple(int(L) for L in dims)
    if max(distances) >= min(dims) / 2:
        raise ConfigError("max distance must stay below min(dims)/2")
    m, n = _replica_shape(sample, dims)
    words = sample.words
    m_r = _replica_means(words, m, n)
    m_hat = float(m_r.mean())
    summary = RunSummary()
    for dist in distances:
        u = int(dist) % dims[0]
        partner = engine._moved(words, [engine._axis_move(sample.dims, 1, u)] if u else [])
        v_r = _replica_means(~(words ^ partner), m, n)
        g_hat = float(v_r.mean())
        cov_hat = g_hat - m_hat * m_hat
        se = _delta_se(
            np.column_stack([v_r, m_r]),
            np.array([g_hat, m_hat]),
            np.array([1.0, -2.0 * m_hat]),
        )
        summary.table.append((int(dist), cov_hat, se, m))
    xs = [row[0] for row in summary.table]
    ys = [row[1] for row in summary.table]
    errs = [row[2] for row in summary.table]
    return summary, fit_log_decay(xs, ys, errs)


def temporal_autocorrelation(
    sample: LatticeState,
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
    step burn_in on, on the packed words.
    """
    lags = sorted(int(k) for k in lags)
    if lags and lags[0] < 0:
        raise ConfigError("lags must be nonnegative")
    m, n = _replica_shape(sample, dims)
    words0 = sample.words
    m0_r = _replica_means(words0, m, n)
    m0 = float(m0_r.mean())
    summary = RunSummary()
    core = None
    words = words0[None, :]
    t_now = burn_in
    for lag in lags:
        if lag > t_now - burn_in:
            if core is None:
                core = _batch_core(rule, noise, dims, m, seed, threads)
            for t in range(t_now, burn_in + lag):
                words = core.step(words, t)
            t_now = burn_in + lag
        v_r = _replica_means(~(words0 ^ words[0]), m, n)
        mk_r = _replica_means(words[0], m, n)
        g_hat = float(v_r.mean())
        mk = float(mk_r.mean())
        cov_hat = g_hat - m0 * mk
        se = _delta_se(
            np.column_stack([v_r, m0_r, mk_r]),
            np.array([g_hat, m0, mk]),
            np.array([1.0, -mk, -m0]),
        )
        summary.table.append((lag, cov_hat, se, m))
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
        rule, dims, engine.kernel_plus(noise, rule), RngKey(seed), threads, rows=2
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
