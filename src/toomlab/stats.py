"""Monte Carlo estimators and decay-rate fits for the noisy dynamics.

Covariance-type quantities are estimated from independent replicas (fresh
counter streams per replica) rather than one long run, so the standard
errors need no autocorrelation correction; replicas are translation-averaged
over the torus before aggregating.  The estimators take the replica batch of
:func:`stationary_sample` alone, so one burn-in serves both.  The sample
carries its chain (the stepping core and its step count), which the lags
continue.  It stays packed: one LatticeState over dims (M, *dims), the
core's own replica layout, and every per-replica average is a popcount of
its words (of w for the magnetization, of NOT(w XOR w') for a two-point
product), divided as np.mean divides the exact spin sum.
Single-trajectory series (densities, magnetization gaps) report batch-means
standard errors instead.  Decay fits are unweighted least squares on
log-magnitudes, restricted to points above the noise floor (2 standard
errors); a raw rate above 1 is reported invalid rather than extrapolated.

The burn-in is coupled from the past where the kernel is monotone.  Rows
stepped on shared draws then stay ordered, so the run from all-plus lies
between an all-plus and an all-minus row started at any later step, and
once those two agree it is fixed whatever came before (a monotone
sandwich).  A probe on 1/64 of the replicas steps the two rows from step 0
until they meet, at step c.  With at least 32 probe replicas, the fitted
geometric tail of its replicas still apart gives the window W in [c, 3c]
that leaves about 1/50 of a batch replica apart; else W = 3c.  The batch
steps both rows over the last W, 2W, 4W, ... burn-in steps, up to half
the burn-in, and keeps the plus row of the first window in which every
replica has met, bit-identical to the plain burn-in.  When the probe does
not meet within a sixth of the burn-in, or no window closes, the burn-in
runs from step 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine
from .engine import LatticeState, NoiseModel, RngKey, RuleSpec
from .errors import ConfigError, ResourceLimitError

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


def _check_series(steps: int, count: int) -> None:
    """Refuse count float64 series of steps + 1 entries over MAX_MC_BYTES."""
    need = 8 * count * (steps + 1)
    if need > engine.MAX_MC_BYTES:
        raise ResourceLimitError(
            f"{count} series of {steps} steps need {need} bytes,"
            f" over the {engine.MAX_MC_BYTES}-byte cap"
        )


def minus_density_run(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    steps: int,
    burn_in: int,
    seed: int,
    threads: int = 1,
    on_step: Optional[Callable[[int, LatticeState], None]] = None,
) -> RunSummary:
    """Fraction of -1 sites per step along one trajectory from all-plus.

    on_step, if given, also sees (0, initial state) once the run is
    accepted, then (t, state) after each step of that trajectory; the
    states are packed, so a caller unpacks only what it keeps.
    """
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    _check_series(steps, 1)
    core = engine._PackedCore(rule, dims, engine.kernel_plus(noise, rule), RngKey(seed), threads)
    state = LatticeState.all_plus(core.dims)
    if on_step is not None:
        on_step(0, state)
    densities = np.empty(steps + 1)
    densities[0] = 0.0
    words = state.words[None, :]
    for t in range(steps):
        words = core.step(words, t)
        densities[t + 1] = 1.0 - engine._plus_counts(words)[0] / core.n_sites
        if on_step is not None:
            on_step(t + 1, LatticeState(dims=core.dims, words=words[0]))
    tail = densities[burn_in + 1 :]  # empty when steps == burn_in
    return RunSummary(
        density_series=densities,
        density_mean=float(tail.mean()) if tail.size else None,
        # one point has no standard error, not an error of 0
        density_se=batch_means_se(tail) if tail.size > 1 else None,
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


@dataclass(frozen=True, kw_only=True, eq=False)
class ReplicaSample(LatticeState):
    """A replica batch over dims (M, *torus dims), replica r at flat sites
    [r*N, (r+1)*N), with the core that stepped it `steps` times from
    all-plus.  burn_in_window counts its burn-in steps, over all windows.
    Equality and hash are the lattice state's."""

    core: engine._PackedCore
    steps: int
    burn_in_window: int


_PROBE_SHARE = 64  # the probe steps the first ceil(M / 64) replicas
_WINDOW_FACTOR = 3  # the first window spans at most 3 times the probe's meeting step
_MISS_TARGET = 50  # the fitted window expects 1/50 of a batch replica apart


def _monotone(kern: np.ndarray) -> bool:
    """Whether raising any one local spin never lowers kern."""
    cfgs = np.arange(kern.size)
    return all(np.all(kern[cfgs | (1 << i)] >= kern) for i in range(kern.size.bit_length() - 1))


def _plus_minus(dims: Sequence[int]) -> np.ndarray:
    return np.stack([LatticeState.all_plus(dims).words, LatticeState.all_minus(dims).words])


def _sandwich(core: engine._PackedCore, rows: np.ndarray, start: int, stop: int):
    """Yield (t + 1, rows) after stepping rows at each t in [start, stop).

    A second row is dropped from the step it equals the first: both consume
    the same draws, so they stay equal from then on.
    """
    for t in range(start, stop):
        rows = core.step(rows, t)
        if len(rows) > 1 and np.array_equal(rows[0], rows[1]):
            rows = rows[:1]
        yield t + 1, rows


def _probe_window(probe: engine._PackedCore, stop: int, replicas: int) -> Optional[int]:
    """The first burn-in window for a batch of `replicas`, from the step c
    at which probe's all-plus and all-minus rows meet (None if not by stop):
    3c, unless probe's m >= 32 replicas give 3 steps t with 4 <= u(t) <=
    m / 8, u the count still apart, and a least-squares fit ln u = a + b t
    with b < 0; then the least w with replicas / m * e^(a + b w) <= 1/50,
    clipped to [c, 3c]."""
    m, n = probe.dims[0], math.prod(probe.dims[1:])
    tail = []  # (t, ln u(t))
    for c, rows in _sandwich(probe, _plus_minus(probe.dims), 0, stop):
        if len(rows) == 1:
            break
        u = np.count_nonzero(engine._replica_counts(rows[0] ^ rows[1], m, n)) if m >= 32 else 0
        if 4 <= u <= m / 8:
            tail.append((c, math.log(u)))
    else:
        return None
    k, st, sy = len(tail), sum(t for t, _ in tail), sum(y for _, y in tail)
    stt, sty = sum(t * t for t, _ in tail), sum(t * y for t, y in tail)
    b = (k * sty - st * sy) / max(k * stt - st * st, 1)  # the max guards only k < 2
    if k < 3 or b >= 0:
        return _WINDOW_FACTOR * c
    w = (math.log(m / (replicas * _MISS_TARGET)) - (sy - b * st) / k) / b
    return min(max(math.ceil(w), c), _WINDOW_FACTOR * c)


def stationary_sample(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    burn_in: int,
    replicas: int,
    seed: int,
    threads: int = 1,
) -> ReplicaSample:
    """Replica batch of near-stationary states, burn_in steps from all-plus.

    The batch is, bit for bit, the state burn_in steps from all-plus reach;
    only steps that cannot change it are skipped.  When raising any local
    spin never lowers the probability of output +1, each site's output
    `raw < T(p)` grows with its neighborhood, so rows that share the draws
    stay ordered.  The run from all-plus at step 0 then lies, from any step
    s on, between an all-plus and an all-minus row started at s, and if
    those two agree at step burn_in, so does the run (a monotone sandwich;
    coupling from the past, Propp and Wilson 1996).

    s comes from a probe: the first ceil(M / 64) replicas, which draw a
    prefix of every step's stream, stepped as an all-plus and an all-minus
    row from step 0 for at most burn_in // 6 steps, give a first window W
    (_probe_window).  The full batch steps both rows over [burn_in - w,
    burn_in) for w = W, 2W, 4W, ... up to burn_in / 2, and the plus row of
    the first window in which every replica's rows agree is the sample.
    Otherwise, and when the probe does not meet, the burn-in runs from
    step 0.  burn_in_window sums the batch steps of these runs: W when the
    first window closes, 3W when the second does.  The worst case adds
    burn_in // 6 probe steps on 1/64 of the batch, plus under burn_in
    window steps.  A kernel that is not monotone, or a batch MAX_MC_BYTES
    refuses two rows, burns in from step 0; a batch it refuses one row is
    refused before anything runs.
    """
    if replicas < 1:
        raise ConfigError(f"samples must be at least 1, got {replicas}")
    if burn_in < 0:
        raise ConfigError(f"burn_in must be nonnegative, got {burn_in}")
    kern = engine.kernel_plus(noise, rule)

    def packed(m: int, rows: int) -> engine._PackedCore:
        return engine._PackedCore(rule, dims, kern, RngKey(seed), threads, replicas=m, rows=rows)

    core, w, window = None, None, 0
    probe_steps = burn_in // (2 * _WINDOW_FACTOR)  # so the first window is at most burn_in / 2
    if probe_steps and _monotone(kern):
        try:
            core = packed(replicas, 2)
        except ResourceLimitError:
            pass
    if core is None:
        core = packed(replicas, 1)
    else:
        w = _probe_window(packed(-(-replicas // _PROBE_SHARE), 2), probe_steps, replicas)
    while w is not None and w <= burn_in / 2:
        for _, rows in _sandwich(core, _plus_minus(core.dims), burn_in - w, burn_in):
            pass
        window, w = window + w, 2 * w
        if len(rows) == 1:
            break
    else:  # no window tried, or none closed
        rows = LatticeState.all_plus(core.dims).words[None, :]
        for _, rows in _sandwich(core, rows, 0, burn_in):
            pass
        window += burn_in
    return ReplicaSample(dims=core.dims, words=rows[0], core=core,
                         steps=burn_in, burn_in_window=window)


def _replica_means(words: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each replica's spin average, (2 * plus - N) / N from popcounts.

    That is the exact float64 sum of the N spins divided by N, which is what
    np.mean gives on the unpacked spins, bit for bit.
    """
    return (2 * engine._replica_counts(words, m, n) - n).astype(np.float64) / n


def _fit_rows(table: list) -> FitResult:
    """Decay fit of (x, estimate, stderr, n) rows; a None stderr reads as NaN, never usable."""
    return fit_log_decay(*([row[k] for row in table] for k in range(3)))


def _delta_se(values: np.ndarray, means: np.ndarray, grad: np.ndarray) -> Optional[float]:
    """SE of f(sample means) with gradient grad, via the sample covariance (None for m < 2)."""
    m = values.shape[0]
    if m < 2:
        return None
    cov = np.cov(values, rowvar=False, ddof=1).reshape(len(means), len(means))
    var = float(grad @ cov @ grad) / m
    return math.sqrt(max(var, 0.0))


def spatial_correlation(
    sample: ReplicaSample, distances: Sequence[int]
) -> tuple[RunSummary, FitResult]:
    """Two-point covariances cov(w_0, w_x) of a replica sample at given distances.

    x is taken along the first torus axis; each replica is averaged over all
    translations before aggregating, and the covariance standard error uses
    the delta method on the (moment, mean) replica pairs.  A product of two
    spins is +1 where their bits agree, so a replica's moment is the mean of
    NOT(w XOR w shifted by x), counted on the packed words.
    """
    m, dims = sample.dims[0], sample.dims[1:]
    n = math.prod(dims)
    if max(distances) >= min(dims) / 2:
        raise ConfigError("max distance must stay below min(dims)/2")
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
    return summary, _fit_rows(summary.table)


def temporal_autocorrelation(
    sample: ReplicaSample, lags: Sequence[int]
) -> tuple[RunSummary, FitResult]:
    """Autocovariances cov(w_0(t), w_0(t+k)) at given lags.

    sample is the lag-0 batch; the lags continue its chain, stepping
    sample.core on from step sample.steps, on the packed words.
    """
    lags = sorted(int(k) for k in lags)
    if lags and lags[0] < 0:
        raise ConfigError("lags must be nonnegative")
    m, n = sample.dims[0], math.prod(sample.dims[1:])
    words0 = sample.words
    m0_r = _replica_means(words0, m, n)
    m0 = float(m0_r.mean())
    summary = RunSummary()
    words = words0[None, :]
    t = sample.steps
    for lag in lags:
        while t < sample.steps + lag:
            words = sample.core.step(words, t)
            t += 1
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
    return summary, _fit_rows(summary.table)


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
    _check_series(steps, 2)
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
