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
product), summed from per-byte bit counts and divided as np.mean divides
the exact spin sum; the sample's own means are counted once for both
estimators.  Each table row divides its averages straight into the
columns of one (M, k) float64 matrix, the layout np.column_stack gives,
which np.cov then reads as it is; :func:`estimator_bytes` bounds what a
row holds, and `correlate` checks it before the burn-in.
Single-trajectory series (densities, magnetization gaps) report batch-means
standard errors instead.  Decay fits are unweighted least squares on
log-magnitudes, restricted to points above the noise floor (2 standard
errors); a raw rate above 1 is reported invalid rather than extrapolated.

The burn-in is coupled from the past where the kernel is monotone.  Rows
stepped on shared draws then stay ordered, so the run from all-plus lies
between an all-plus and an all-minus row started at any later step, and
once those two agree it is fixed whatever came before (a monotone
sandwich).  Replicas are independent, so each needs only as long a window
as its own two rows take to meet.  Every trajectory here steps through the
engine's one loop, `_PackedCore.run`.  A probe on 1/64 of the replicas runs
the two rows from step 0 until they meet, at step c, and gives the first
window W <= c that balances the batch's steps against the share of its
replicas it leaves apart.  The whole batch steps both rows over the last W
burn-in steps in stream order; the replicas still apart are stepped again,
on their own and over twice the window each time, reading their draws by
counter, and each one that meets is written into the batch, bit-identical
to the plain burn-in.  A window of the whole burn-in is the plain burn-in,
which non-monotone kernels and probes that do not meet take at once.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import engine
from .engine import LatticeState, NoiseModel, RuleSpec
from .errors import ConfigError, ResourceLimitError

NOISE_FLOOR_SE = 2.0


@dataclass(frozen=True)
class FitResult:
    """Exponential-decay fit on log-magnitudes of usable points."""

    rate: Optional[float]
    r_squared: Optional[float]
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
    if usable.sum() < 3:
        return FitResult(None, None, False)
    x = xs[usable]
    logy = np.log(np.abs(ys[usable]))
    slope, intercept = np.polyfit(x, logy, 1)
    pred = slope * x + intercept
    ss_res = float(((logy - pred) ** 2).sum())
    ss_tot = float(((logy - logy.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rate = math.exp(slope)
    if rate > 1.0:
        return FitResult(None, r2, False)
    return FitResult(rate, r2, True)


def batch_means_se(series: np.ndarray) -> Optional[float]:
    """Standard error of the mean of a correlated series via 20 batch means;
    None below two points, which have no standard error (not one of 0)."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        return None
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
    on_step: Optional[Callable[[int, LatticeState], None]] = None,
) -> RunSummary:
    """Fraction of -1 sites per step along one trajectory from all-plus.

    on_step, if given, also sees (0, initial state) once the run is
    accepted, then (t, state) after each step of that trajectory; the
    states are packed, so a caller unpacks only what it keeps.
    """
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    engine._within_cap(8 * (steps + 1), f"a series of {steps} steps")
    core = engine._PackedCore(rule, dims, engine.kernel_plus(noise, rule), seed, threads)
    state = LatticeState.all_plus(core.dims)
    if on_step is not None:
        on_step(0, state)
    densities = np.empty(steps + 1)
    densities[0] = 0.0
    for t, words in core.run(state.words[None, :], 0, steps):
        densities[t] = 1.0 - engine._plus_counts(words)[0] / core.n_sites
        if on_step is not None:
            on_step(t, LatticeState(dims=core.dims, words=words[0]))
    tail = densities[burn_in + 1 :]  # empty when steps == burn_in
    return RunSummary(
        density_series=densities,
        density_mean=float(tail.mean()) if tail.size else None,
        density_se=batch_means_se(tail),
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
    all-plus.  burn_in_window counts the burn-in steps made on the whole
    batch, and burn_in_stragglers the replicas then stepped on their own.
    Equality and hash are the lattice state's."""

    core: engine._PackedCore
    steps: int
    burn_in_window: int
    burn_in_stragglers: int

    @functools.cached_property
    def means(self) -> np.ndarray:
        """Each replica's spin average (see `_replica_means`), counted once."""
        return _replica_means(self.words, self.dims[0], math.prod(self.dims[1:]))


_PROBE_SHARE = 64  # the probe steps the first ceil(M / 64) replicas
_PROBE_STOP = 6  # for at most burn_in // 6 steps
_ADDRESSED_COST = 8  # a counter-addressed draw costs about 8 stream-order draws


def _monotone(kern: np.ndarray) -> bool:
    """Whether raising any one local spin never lowers kern."""
    cfgs = np.arange(kern.size)
    return all(np.all(kern[cfgs | (1 << i)] >= kern) for i in range(kern.size.bit_length() - 1))


def _plus_minus(dims: Sequence[int]) -> np.ndarray:
    return np.stack([LatticeState.all_plus(dims).words, LatticeState.all_minus(dims).words])


def _apart(core: engine._PackedCore, rows: np.ndarray) -> np.ndarray:
    """Indices of core's replicas whose two rows differ (none for one row)."""
    if len(rows) == 1:
        return np.zeros(0, dtype=np.int64)
    m, n = core.dims[0], math.prod(core.dims[1:])
    return np.flatnonzero(engine._replica_counts(rows[0] ^ rows[1], m, n))


def _first_window(probe: engine._PackedCore, stop: int) -> Optional[int]:
    """The first burn-in window read off a probe: the t <= c that minimizes
    t * (1 + 2K f(t)), where c is the step at which probe's all-plus and
    all-minus rows meet (None if not by stop), f(t) the share of its m
    replicas still apart after t steps and K = _ADDRESSED_COST.

    The batch pays t steps for the window and about 2t steps at K times the
    cost for the share f(t) it leaves apart.  With m < 32 the share says
    too little, and the window is c.
    """
    m = probe.dims[0]
    costs = []
    for t, rows in probe.run(_plus_minus(probe.dims), 0, stop):
        if len(rows) == 1:
            return 1 + int(np.argmin(costs + [t]))
        f = _apart(probe, rows).size / m if m >= 32 else math.inf
        costs.append(t * (1 + 2 * _ADDRESSED_COST * f))
    return None


def _window(core: engine._PackedCore, w: int, burn_in: int) -> tuple[np.ndarray, np.ndarray]:
    """core's plus row after the burn-in steps [burn_in - w, burn_in), from
    an all-plus and an all-minus row (all-plus alone when w = burn_in), and
    the indices of its replicas whose rows still differ there."""
    rows = _plus_minus(core.dims) if w < burn_in else LatticeState.all_plus(core.dims).words[None, :]
    for _, rows in core.run(rows, burn_in - w, burn_in):
        pass
    return rows[0].copy(), _apart(core, rows)  # a copy, so the minus row is freed


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
    coupling from the past, Propp and Wilson 1996).  Replicas are
    independent, so each needs only its own s.

    A probe, the first ceil(M / 64) replicas (a prefix of every step's
    stream), steps an all-plus and an all-minus row from step 0 for at most
    burn_in // 6 steps and gives the first window W (`_first_window`).  The
    whole batch steps both rows over the last W burn-in steps, in stream
    order.  The replicas whose rows still differ are stepped again over the
    last min(2w, burn_in) steps, w the previous window, as their own core
    that reads their draws by counter; each replica whose rows agree there
    is written into the batch, and the rest go on to the next window.  A
    window of the whole burn-in steps the plus row alone from step 0, which
    settles every replica.  A stage whose stragglers cost at least as much
    as the batch (K of them per batch replica, K = _ADDRESSED_COST), or
    whose counter draws MAX_MC_BYTES refuses, steps the whole batch again
    in stream order instead.  A kernel that is not monotone, a probe that
    does not meet and a batch MAX_MC_BYTES refuses two rows start at
    W = burn_in, the plain burn-in; a batch it refuses one row is refused
    before anything runs.
    """
    if replicas < 1:
        raise ConfigError(f"samples must be at least 1, got {replicas}")
    if burn_in < 0:
        raise ConfigError(f"burn_in must be nonnegative, got {burn_in}")
    kern = engine.kernel_plus(noise, rule)

    def packed(rows: int, m: Optional[int] = None, ids=None) -> engine._PackedCore:
        return engine._PackedCore(rule, dims, kern, seed, threads, m, rows, ids)

    core, w, stop = None, burn_in, burn_in // _PROBE_STOP
    if stop and _monotone(kern):
        with contextlib.suppress(ResourceLimitError):
            core = packed(2, replicas)
    if core is None:
        core = packed(1, replicas)
    else:
        w = _first_window(packed(2, -(-replicas // _PROBE_SHARE)), stop) or burn_in
    plus, ids = _window(core, w, burn_in)
    window, stragglers, n = w, 0, core.n_sites // replicas
    while ids.size:
        w = min(2 * w, burn_in)
        sub = None
        if ids.size * _ADDRESSED_COST < replicas:
            with contextlib.suppress(ResourceLimitError):  # counter draws need more scratch
                sub = packed(2, ids=ids)
        if sub is None:  # the whole batch again, in stream order
            plus, ids = _window(core, w, burn_in)
            window += w
            continue
        stragglers = stragglers or ids.size
        sub_plus, apart = _window(sub, w, burn_in)
        met = np.ones(ids.size, dtype=bool)
        met[apart] = False
        engine._put_replicas(plus, ids[met], sub_plus, np.flatnonzero(met), n)
        ids = ids[apart]
    return ReplicaSample(dims=core.dims, words=plus, core=core, steps=burn_in,
                         burn_in_window=window, burn_in_stragglers=stragglers)


def _replica_means(words: np.ndarray, m: int, n: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each replica's spin average, (2 * plus - N) / N from popcounts, into
    out if given (a column of an estimator's value matrix).

    That is the exact float64 sum of the N spins divided by N, which is what
    np.mean gives on the unpacked spins, bit for bit.
    """
    spins = engine._replica_counts(words, m, n)
    spins *= 2
    spins -= n
    return np.divide(spins, n, out=out, dtype=np.float64)


def estimator_bytes(replicas: int, columns: int) -> int:
    """Bytes the estimators hold for one table row of `columns` replica
    averages (2 spatial, 3 temporal); ResourceLimitError above MAX_MC_BYTES.

    8 M (2k + 3) for M replicas and k columns: the (M, k) value matrix and
    np.cov's centered copy, the sample's means, and the int64 counts, held
    twice while they are counted.  The packed rows are working_bytes's.
    Checked before the burn-in, so a batch the step admits is not refused
    only once it has been stepped.
    """
    need = 8 * replicas * (2 * columns + 3)
    return engine._within_cap(need, f"estimates over {replicas} replicas")


def _fit_rows(table: list) -> FitResult:
    """Decay fit of (x, estimate, stderr, n) rows; a None stderr reads as NaN, never usable."""
    return fit_log_decay(*([row[k] for row in table] for k in range(3)))


def _delta_se(values: np.ndarray, means: np.ndarray, grad: np.ndarray) -> Optional[float]:
    """SE of f(sample means) with gradient grad, via the sample covariance (None for m < 2).

    values is the (m, k) C-ordered matrix of the k replica averages, the
    layout np.column_stack gives: np.cov then sums each column's mean
    replica by replica, and those are the bits every artifact records.
    """
    m = values.shape[0]
    if m < 2:
        return None
    cov = np.cov(values, rowvar=False, ddof=1).reshape(len(means), len(means))
    var = float(grad @ cov @ grad) / m
    return math.sqrt(max(var, 0.0))


def _check_estimates(dims: Sequence[int], distances: Sequence[int] = (),
                     lags: Sequence[int] = ()) -> list[int]:
    """The lags sorted, refused with a distance outside [0, min(dims) / 2) on
    the torus dims or a negative lag; `correlate` checks before the burn-in."""
    if min(distances, default=0) < 0:
        raise ConfigError("distances must be nonnegative")
    if max(distances, default=0) >= min(dims) / 2:
        raise ConfigError("max distance must stay below min(dims)/2")
    lags = sorted(int(k) for k in lags)
    if lags and lags[0] < 0:
        raise ConfigError("lags must be nonnegative")
    return lags


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
    _check_estimates(dims, distances)
    words = sample.words
    m_hat = float(sample.means.mean())
    summary = RunSummary()
    for dist in distances:
        u = int(dist) % dims[0]
        partner = engine._moved(words, [engine._axis_move(sample.dims, 1, u)] if u else [])
        values = np.empty((m, 2))  # columns v_r, m_r
        values[:, 1] = sample.means
        g_hat = float(_replica_means(~(words ^ partner), m, n, out=values[:, 0]).mean())
        cov_hat = g_hat - m_hat * m_hat
        se = _delta_se(values, np.array([g_hat, m_hat]), np.array([1.0, -2.0 * m_hat]))
        summary.table.append((int(dist), cov_hat, se, m))
    return summary, _fit_rows(summary.table)


def temporal_autocorrelation(
    sample: ReplicaSample, lags: Sequence[int]
) -> tuple[RunSummary, FitResult]:
    """Autocovariances cov(w_0(t), w_0(t+k)) at given lags.

    sample is the lag-0 batch; the lags continue its chain, stepping
    sample.core on from step sample.steps, on the packed words.
    """
    lags = _check_estimates(sample.dims[1:], lags=lags)
    m, n = sample.dims[0], math.prod(sample.dims[1:])
    words0, m0_r = sample.words, sample.means
    m0 = float(m0_r.mean())
    t, rows = sample.steps, words0[None, :]
    trajectory = sample.core.run(rows, t, t + max(lags, default=0))
    summary = RunSummary()
    for lag in lags:
        while t < sample.steps + lag:
            t, rows = next(trajectory)
        values = np.empty((m, 3))  # columns v_r, m0_r, mk_r
        values[:, 1] = m0_r
        if lag:
            _replica_means(~(words0 ^ rows[0]), m, n, out=values[:, 0])
            _replica_means(rows[0], m, n, out=values[:, 2])
        else:  # every spin agrees with itself
            values[:, 0] = 1.0
            values[:, 2] = m0_r
        g_hat = float(values[:, 0].mean())
        mk = float(values[:, 2].mean())
        cov_hat = g_hat - m0 * mk
        se = _delta_se(values, np.array([g_hat, m0, mk]), np.array([1.0, -mk, -m0]))
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
    point has no standard error, so a nonzero gap there is UNDECIDED.  With
    no point after burn_in, gap_mean and gap_se are None, and the class is
    MERGED if the chains coalesced and UNDECIDED otherwise.  Rules
    that are not symmetric under the global flip are reported INAPPLICABLE,
    not an error.
    """
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if burn_in is None:
        burn_in = steps // 2
    if not 0 <= burn_in <= steps:
        raise ConfigError(f"burn_in {burn_in} must lie in [0, steps={steps}]")
    engine._seed(seed)  # refused even where nothing is stepped
    if not is_flip_symmetric(rule):
        return DivergenceResult(
            classification=INAPPLICABLE,
            mag_plus=np.empty(0),
            mag_minus=np.empty(0),
            gap_mean=None,
            gap_se=None,
        )
    engine._within_cap(16 * (steps + 1), f"two series of {steps} steps")
    core = engine._PackedCore(rule, dims, engine.kernel_plus(noise, rule), seed, threads, rows=2)
    n = core.n_sites
    mag_p = np.empty(steps + 1)
    mag_m = np.empty(steps + 1)
    mag_p[0], mag_m[0] = 1.0, -1.0
    met = None
    for t, rows in core.run(_plus_minus(core.dims), 0, steps):
        plus = engine._plus_counts(rows)
        mag_p[t] = 2.0 * (plus[0] / n) - 1.0
        mag_m[t] = 2.0 * (plus[-1] / n) - 1.0
        if met is None and len(rows) == 1:
            met = t
    gap = mag_p[burn_in + 1 :] - mag_m[burn_in + 1 :]  # empty when steps == burn_in
    gap_mean = float(gap.mean()) if gap.size else None
    gap_se = batch_means_se(gap)
    if gap.size == 0:
        cls = MERGED if met is not None else UNDECIDED
    elif np.all(gap == 0.0):
        cls = MERGED
    elif gap_se is None:
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
