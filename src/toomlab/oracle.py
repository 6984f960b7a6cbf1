"""Exact finite-state computations on tiny tori.

With N = prod(dims) sites (hard cap 24), a probability distribution over all
2^N spin configurations is a dense vector indexed by the same bit encoding
the lattice engine packs states with (bit i = spin +1 at flat site i).  One
noisy synchronous update maps such a vector through the product kernel

    out(xi) = sum_omega dist(omega) * prod_x p(xi_x | omega_{x+U}).

Up to 11 sites the full 2^N x 2^N matrix is built once and applied by a
matmul.  Beyond that the kernel is contracted one target site at a time,
summing out each source spin right after its last use (a moving front, as
in row transfer matrices): O(N * 2^(N+w)) work for a front of w wrapped
source spins, a few milliseconds per application at N = 12-14 on a ring.
A torus is refused when one sweep step's einsum input and output together
exceed MAX_SWEEP_BYTES.  The functions that push distributions forward
(`transfer_apply`, `tv_curve`, and `stationary_distribution` when given
one) take an `ExactKernel`, so a caller builds one kernel, with its matrix
or sweep plan, for all of them.

On top of the kernel: stationary distributions (restarted GMRES whenever
the invariant law is provably unique, otherwise exact cycle averaging for
deterministic kernels or verified power iteration with a Cesaro fallback,
each checked by its total-variation residual), total-variation distances,
expectations and the flip seminorm of cylinder functions, the dual action
on observables, product-measure basin membership, and the light-cone check
that window marginals on two torus sizes agree exactly until influence
wraps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .engine import LatticeState, NoiseModel, influence_radius, kernel_plus, neighbor_table
from .errors import NumericalError, ResourceLimitError
from .rules import RuleSpec

logger = logging.getLogger(__name__)

MAX_EXACT_SITES = 24
MAX_DENSE_SITES = 11  # largest torus whose transition matrix is built
MAX_SWEEP_BYTES = 1 << 30  # largest sweep-step input + output, per vector
MAX_WINDOW = 20
CESARO_AFTER = 10**4  # power iterations before Cesaro averages are tried
KRYLOV_RESTART = 40  # Arnoldi steps per GMRES cycle
MAX_BASIS_BYTES = 1 << 30  # largest Krylov basis; the cycle shortens to fit

Sitelike = Union[int, Sequence[int]]


def _site_tuple(site: Sitelike, dimension: int) -> tuple[int, ...]:
    if isinstance(site, int):
        site = (site,)
    site = tuple(int(c) for c in site)
    if len(site) != dimension:
        raise ValueError(f"site {site} does not match dimension {dimension}")
    return site


def _flat_index(site: tuple[int, ...], dims: tuple[int, ...]) -> int:
    return int(np.ravel_multi_index(tuple(c % L for c, L in zip(site, dims)), dims))


@dataclass(frozen=True)
class StateDistribution:
    """Probability vector over all 2^N configurations of a small torus."""

    dims: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(L) for L in self.dims)
        object.__setattr__(self, "dims", dims)
        n = int(np.prod(dims))
        if n > MAX_EXACT_SITES:
            raise ResourceLimitError(
                f"{n} sites exceeds the exact-computation cap {MAX_EXACT_SITES}"
            )
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (1 << n,):
            raise ValueError(f"need 2^{n} probabilities, got shape {probs.shape}")
        if probs.min() < -1e-12:
            raise ValueError("negative probability entry")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))


def point_mass(dims: Sequence[int], state: Union[LatticeState, int]) -> StateDistribution:
    dims = tuple(int(L) for L in dims)
    n = int(np.prod(dims))
    code = state.to_int() if isinstance(state, LatticeState) else int(state)
    probs = np.zeros(1 << n)
    probs[code] = 1.0
    return StateDistribution(dims=dims, probs=probs)


def delta_plus(dims: Sequence[int]) -> StateDistribution:
    return point_mass(dims, LatticeState.all_plus(dims))


def delta_minus(dims: Sequence[int]) -> StateDistribution:
    return point_mass(dims, 0)


def uniform_distribution(dims: Sequence[int]) -> StateDistribution:
    dims = tuple(int(L) for L in dims)
    n = int(np.prod(dims))
    return StateDistribution(dims=dims, probs=np.full(1 << n, 1.0 / (1 << n)))


class ExactKernel:
    """Dense action of one noisy synchronous update on state vectors."""

    def __init__(self, rule: RuleSpec, noise: NoiseModel, dims: Sequence[int]):
        self.dims = tuple(int(L) for L in dims)
        self.n_sites = math.prod(self.dims)
        if self.n_sites > MAX_EXACT_SITES:
            raise ResourceLimitError(
                f"{self.n_sites} sites exceeds the exact-computation cap {MAX_EXACT_SITES}"
            )
        self.nbr = neighbor_table(rule, self.dims)
        self.kern = kernel_plus(noise, rule)
        self.n_states = 1 << self.n_sites
        self._dense: Optional[np.ndarray] = None
        self._sweep_steps: Optional[list[tuple]] = None
        if self.n_sites > MAX_DENSE_SITES:
            self._sweep()  # refuses an oversize torus before anything is allocated

    def plus_probs(self, states: np.ndarray) -> np.ndarray:
        """(len(states), N) matrix of per-target-site +1 probabilities."""
        local = np.zeros((len(states), self.n_sites), dtype=np.uint64)
        for i, src in enumerate(self.nbr.astype(np.uint64)):
            local |= ((states[:, None] >> src) & np.uint64(1)) << np.uint64(i)
        return self.kern[local]

    def dense_matrix(self) -> Optional[np.ndarray]:
        """Full (source, target) transition matrix, cached for N <= 11 sites."""
        if self._dense is None and self.n_sites <= MAX_DENSE_SITES:
            states = np.arange(self.n_states, dtype=np.uint64)
            self._dense = _expand_products(self.plus_probs(states))
        return self._dense

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Linear kernel application to a signed vector or a (B, 2^N) batch.

        No normalization.  Above the dense-matrix size the product kernel is
        contracted site by site (see `_sweep_plan`).
        """
        vec = np.asarray(vec, dtype=np.float64)
        dense = self.dense_matrix()
        if dense is not None:
            return vec @ dense
        cur = vec.reshape((-1,) + (2,) * self.n_sites)
        steps = self._sweep()
        self._check_sweep(cur.shape[0])
        for labels, factor_labels, out in steps:
            cur = np.einsum(cur, labels, self._factor, factor_labels, out)
        return cur.transpose(self._sweep_order).reshape(vec.shape)

    def _sweep(self) -> list[tuple]:
        """The site-sweep plan, built on first use once its byte cap is checked."""
        if self._sweep_steps is None:
            steps, self._sweep_order = _sweep_plan(self.nbr)
            # bytes of the largest einsum input plus output for one vector
            # (label 0 of each list is the batch)
            self._sweep_bytes = max(
                (8 << (len(labels) - 1)) + (8 << (len(out) - 1)) for labels, _, out in steps
            )
            self._check_sweep(1)
            self._factor = np.stack([1.0 - self.kern, self.kern]).reshape(
                (2,) * (len(self.nbr) + 1)
            )
            self._sweep_steps = steps
        return self._sweep_steps

    def _check_sweep(self, batch: int) -> None:
        if batch * self._sweep_bytes > MAX_SWEEP_BYTES:
            raise ResourceLimitError(
                f"the site sweep of {batch} vector(s) needs {batch * self._sweep_bytes}"
                f" bytes of tensors, over the {MAX_SWEEP_BYTES}-byte cap"
            )


def _sweep_plan(nbr: np.ndarray) -> tuple[list[tuple], list[int]]:
    """Einsum sublists that contract the product kernel one target site at a time.

    nbr[i, x] is the source site feeding neighbor slot i of target x.  Axis
    labels: source spin s is s, target spin x is N + x, the batch is 2N.
    Step x multiplies in the factor p(xi_x | omega_{x+U}), stored with axes
    (xi, slot R-1, ..., slot 0), and sums out every source spin whose last
    use is at x, so a step touches only the targets done plus the sources
    still ahead.  Returns the (operand, factor, output) label lists per step
    and the axis order that puts the result back into (batch, bit N-1, ...,
    bit 0), the C order of a flat state index.
    """
    n = nbr.shape[1]
    last_use = {int(s): x for x in range(n) for s in nbr[:, x]}
    labels = [2 * n] + list(range(n - 1, -1, -1))
    steps = []
    for x in range(n):
        out = [a for a in labels if last_use.get(a) != x] + [n + x]
        steps.append((labels, [n + x] + [int(s) for s in nbr[::-1, x]], out))
        labels = out
    order = [labels.index(a) for a in [2 * n] + list(range(2 * n - 1, n - 1, -1))]
    return steps, order


def _expand_products(probs: np.ndarray) -> np.ndarray:
    """Rows (p_1..p_n) of per-bit probabilities -> rows of 2^n product weights.

    Output column j holds prod_i (p_i if bit i of j else 1-p_i): the product
    measure over n bits, little-endian.
    """
    b, n = probs.shape
    out = np.empty((b, 1 << n))
    out[:, 0] = 1.0
    for x in range(n):
        w = 1 << x
        p = probs[:, x : x + 1]
        np.multiply(out[:, :w], p, out=out[:, w : 2 * w])
        out[:, :w] *= 1.0 - p
    return out


def transfer_apply(dist: StateDistribution, kernel: ExactKernel) -> StateDistribution:
    """One exact noisy update of a distribution, renormalized (drift logged)."""
    out = kernel.apply(dist.probs)
    total = float(out.sum())
    drift = total - 1.0
    if abs(drift) > 1e-9:
        raise NumericalError(f"transfer application lost mass: drift {drift}")
    if drift != 0.0:
        logger.debug("transfer mass drift %.3e renormalized", drift)
        out /= total
    return StateDistribution(dims=dist.dims, probs=out)


def tv_distance(d1: StateDistribution, d2: StateDistribution) -> float:
    """Total variation distance, half the L1 difference."""
    if d1.dims != d2.dims:
        raise ValueError(f"dims mismatch: {d1.dims} vs {d2.dims}")
    return 0.5 * float(np.abs(d1.probs - d2.probs).sum())


def _strictly_positive(kernel: ExactKernel) -> bool:
    return bool((kernel.kern > 0.0).all() and (kernel.kern < 1.0).all())


@dataclass(frozen=True, kw_only=True)
class StationaryLaw(StateDistribution):
    """A verified invariant law, with the route that produced it.

    solver is "krylov", "power", "cesaro" or "cycle".  iterations counts the
    kernel applications of the route ("krylov" counts its verifying ones
    too).  residual is the total-variation residual that passed the `< tol`
    check: TV(T pi, pi), except on the power route, where it is TV(T x, x)
    for the iterate x with pi = T x, which bounds TV(T pi, pi) from above.
    """

    solver: str
    iterations: int
    residual: float


def _residual(kernel: ExactKernel, pi: np.ndarray) -> float:
    """TV(T pi, pi), with T pi renormalized."""
    t_pi = kernel.apply(pi)
    return 0.5 * float(np.abs(t_pi / t_pi.sum() - pi).sum())


def _unique_law_provable(kernel: ExactKernel) -> bool:
    """Whether the chain provably has exactly one invariant law.

    So it has when the kernel is strictly positive, and, up to
    MAX_DENSE_SITES, when all-minus or all-plus is reachable from every
    state: such a state lies in every closed class, so there is only one.
    Reachability is a backward search on the support of the transition
    matrix.
    """
    if _strictly_positive(kernel):
        return True
    dense = kernel.dense_matrix()
    if dense is None:
        return False
    support = dense > 0.0
    for target in (0, len(dense) - 1):
        reached = np.zeros(len(dense), dtype=bool)
        reached[target] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = support[:, frontier].any(axis=1) & ~reached
            reached |= frontier
        if reached.all():
            return True
    return False


def _krylov_solve(kernel: ExactKernel, tol: float, max_iter: int) -> StationaryLaw:
    """Invariant law of a chain with a unique one, by restarted GMRES.

    Solves A x = w with A x = x - x T + sum(x) w and w uniform (Saad and
    Schultz, 1986).  The invariant law solves it, and A is nonsingular
    exactly when that law is unique: A x = 0 forces sum(x) = 0 and x T = x.
    Each cycle starts from the current law pi, whose residual w - A pi =
    pi T - pi comes from the same application of T that verifies
    TV(T pi, pi).  Arnoldi runs with modified Gram-Schmidt and Givens
    rotations until the residual 2-norm has shrunk by the factor the
    verified TV residual still has to fall, with a margin of 2, or the
    basis is full; the triangular system is solved by back-substitution.
    """
    n = kernel.n_states
    w = 1.0 / n
    m = min(KRYLOV_RESTART, MAX_BASIS_BYTES // (8 * n) - 1)
    basis = np.empty((m + 1, n))
    hess = np.empty((m + 1, m))
    cos, sin = np.empty(m), np.empty(m)
    g = np.empty(m + 1)
    pi = np.full(n, w)
    applies = 0
    best = math.inf
    while True:
        t_pi = kernel.apply(pi)
        applies += 1
        resid = 0.5 * float(np.abs(t_pi / t_pi.sum() - pi).sum())
        if resid < tol:
            return StationaryLaw(
                dims=kernel.dims, probs=pi, solver="krylov", iterations=applies, residual=resid
            )
        r = t_pi - pi
        beta = math.sqrt(float(r @ r))
        # a cycle that does not lower the residual norm has reached the
        # roundoff floor, and beta = 0 leaves no direction to search
        if not 0.0 < beta < best or applies >= max_iter:
            raise NumericalError(
                f"GMRES stopped at TV residual {resid:.3e}, above tol {tol}, after"
                f" {applies} applications (max_iter {max_iter})"
            )
        best = beta
        target = 0.5 * beta * tol / resid
        basis[0] = r / beta
        g[0] = beta
        k = 0
        while k < m and applies < max_iter:
            v = basis[k]
            u = v - kernel.apply(v) + v.sum() * w
            applies += 1
            for i in range(k + 1):
                hess[i, k] = basis[i] @ u
                u -= hess[i, k] * basis[i]
            norm = math.sqrt(float(u @ u))
            for i in range(k):
                a, b = hess[i, k], hess[i + 1, k]
                hess[i, k], hess[i + 1, k] = cos[i] * a + sin[i] * b, cos[i] * b - sin[i] * a
            d = math.hypot(hess[k, k], norm)
            cos[k], sin[k] = hess[k, k] / d, norm / d
            hess[k, k] = d
            g[k + 1] = -sin[k] * g[k]
            g[k] *= cos[k]
            k += 1
            # norm = 0 is the happy breakdown: the basis spans the solution
            if norm == 0.0 or abs(g[k]) < target:
                break
            basis[k] = u / norm
        y = np.empty(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - hess[i, i + 1 : k] @ y[i + 1 :]) / hess[i, i]
        x = np.clip(pi + y @ basis[:k], 0.0, None)
        pi = x / x.sum()


def _cycle_average(kernel: ExactKernel, start: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
    """Exact invariant vector of a deterministic kernel by cycle detection.

    Pushforwards of a deterministic map repeat exactly in float arithmetic;
    the average over one full cycle is invariant, which is what a Cesaro
    limit would converge to only at rate 1/n.  Also returns the number of
    kernel applications made.
    """
    # keep the stored history within ~128 MB whatever the state-space size
    cap = min(max_iter, 10**5, max(64, (1 << 24) // max(1, len(start))))
    seen: dict[bytes, int] = {}
    trail: list[np.ndarray] = []
    cur = start
    for _ in range(cap):
        sig = cur.tobytes()
        if sig in seen:
            cycle = trail[seen[sig] :]
            avg = np.mean(cycle, axis=0)
            return avg / avg.sum(), len(trail)
        seen[sig] = len(trail)
        trail.append(cur)
        cur = kernel.apply(cur)
    raise NumericalError("deterministic pushforward did not cycle within the cap")


def stationary_distribution(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    tol: float = 1e-10,
    max_iter: int = 10**6,
    allow_absorbing: bool = False,
    kernel: Optional[ExactKernel] = None,
) -> StationaryLaw:
    """Fixed point pi of the transfer operator, verified by TV(T pi, pi) < tol.

    Requires a strictly positive kernel (every transition possible) unless
    the caller opts into absorbing/deterministic chains.  `kernel`, if
    given, is an ExactKernel of the same rule, noise and dims, used in place
    of building another.  The routes, tried in this order:

    * "krylov": when the invariant law is provably unique (see
      `_unique_law_provable`), restarted GMRES from the uniform law (see
      `_krylov_solve`).  A stall above tol raises NumericalError.
    * "cycle": a fully deterministic kernel (the eps = 0 edge case) is
      handled by exact cycle averaging of the pushforwards of the uniform law.
    * "power": power iteration from the uniform law.  When successive
      iterates stop making progress past CESARO_AFTER steps, running Cesaro
      averages of the iterates are tested as candidates alongside ("cesaro").

    `max_iter` caps the kernel applications of each route.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if kernel is None:
        kernel = ExactKernel(rule, noise, dims)
    elif not (
        kernel.dims == tuple(int(L) for L in dims)
        and np.array_equal(kernel.kern, kernel_plus(noise, rule))
        and np.array_equal(kernel.nbr, neighbor_table(rule, kernel.dims))
    ):
        raise ValueError("kernel was not built from this rule, noise and dims")
    if not allow_absorbing and not _strictly_positive(kernel):
        raise ValueError(
            "noise kernel has zero-probability transitions; pass "
            "allow_absorbing=True to iterate anyway"
        )
    if _unique_law_provable(kernel):
        return _krylov_solve(kernel, tol, max_iter)
    cur = uniform_distribution(kernel.dims).probs.copy()

    deterministic = bool(((kernel.kern == 0.0) | (kernel.kern == 1.0)).all())
    if deterministic:
        pi, steps = _cycle_average(kernel, cur, max_iter)
        resid = _residual(kernel, pi)
        if resid >= tol:
            raise NumericalError(f"cycle average residual {resid:.3e} above tol")
        return StationaryLaw(
            dims=kernel.dims, probs=pi, solver="cycle", iterations=steps, residual=resid
        )

    check_every = 8
    window = 500
    tv_at_window = math.inf
    stalled = False
    avg = None
    avg_count = 0
    last_tv = math.inf
    for it in range(1, max_iter + 1):
        nxt = kernel.apply(cur)
        nxt /= nxt.sum()
        if it % check_every == 0 or it < 64:
            last_tv = 0.5 * float(np.abs(nxt - cur).sum())
            if last_tv < tol:
                # TV(T x, x) only shrinks under further applications of T,
                # so the freshly advanced iterate inherits the certificate.
                return StationaryLaw(
                    dims=kernel.dims, probs=nxt, solver="power", iterations=it,
                    residual=last_tv,
                )
        if it % window == 0:
            stalled = stalled or last_tv > 0.999 * tv_at_window
            tv_at_window = last_tv
        if stalled and it >= CESARO_AFTER:
            avg_count += 1
            avg = nxt.copy() if avg is None else avg + (nxt - avg) / avg_count
            if avg_count % 100 == 0:
                cand = avg / avg.sum()
                resid = _residual(kernel, cand)
                if resid < tol:
                    return StationaryLaw(
                        dims=kernel.dims, probs=cand, solver="cesaro", iterations=it,
                        residual=resid,
                    )
        cur = nxt
    raise NumericalError(
        f"power iteration did not reach tol {tol} in {max_iter} steps "
        f"(last successive TV {last_tv:.3e})"
    )


def tv_curve(
    kernel: ExactKernel, reference: StateDistribution, n_max: int = 200, floor: float = 1e-13
) -> list[float]:
    """TV(T^n delta_plus, reference) for n = 0..n_max, stopping once below floor."""
    cur = delta_plus(kernel.dims).probs.copy()
    ref = reference.probs
    curve = [0.5 * float(np.abs(cur - ref).sum())]
    for _ in range(n_max):
        cur = kernel.apply(cur)
        cur /= cur.sum()
        curve.append(0.5 * float(np.abs(cur - ref).sum()))
        if curve[-1] < floor:
            break
    return curve


# --------------------------------------------------------------------------
# cylinder functions


@dataclass(frozen=True)
class CylinderFunction:
    """Observable depending on finitely many sites, as an explicit table."""

    window: tuple[tuple[int, ...], ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if not self.window:
            raise ValueError("window must contain at least one site")
        dim = len(self.window[0]) if not isinstance(self.window[0], int) else 1
        window = tuple(_site_tuple(s, dim) for s in self.window)
        if len(set(window)) != len(window):
            raise ValueError("window sites must be distinct")
        if len(window) > MAX_WINDOW:
            raise ValueError(f"window size {len(window)} exceeds cap {MAX_WINDOW}")
        object.__setattr__(self, "window", window)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (1 << len(window),):
            raise ValueError(
                f"table must have length 2^{len(window)}, got {table.shape}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def spin_observable(site: Sitelike, dimension: int = 1) -> CylinderFunction:
    """The single-site observable omega_x with values -1/+1."""
    s = _site_tuple(site, dimension)
    return CylinderFunction(window=(s,), table=np.array([-1.0, 1.0]))


def _window_codes(window: Iterable[tuple[int, ...]], dims: tuple[int, ...]) -> np.ndarray:
    """Window configuration code of every torus state, vectorized."""
    n = int(np.prod(dims))
    states = np.arange(1 << n, dtype=np.uint64)
    code = np.zeros(1 << n, dtype=np.uint32)
    for j, site in enumerate(window):
        flat = _flat_index(site, dims)
        code |= (((states >> np.uint64(flat)) & 1) << j).astype(np.uint32)
    return code


def cylinder_expectation(dist: StateDistribution, f: CylinderFunction) -> float:
    """Expectation of a cylinder observable under an exact distribution."""
    for site in f.window:
        if len(site) != len(dist.dims):
            raise ValueError(f"window site {site} does not match torus {dist.dims}")
        if any(not 0 <= c < L for c, L in zip(site, dist.dims)):
            raise ValueError(f"window site {site} lies outside torus {dist.dims}")
    codes = _window_codes(f.window, dist.dims)
    return float(np.dot(dist.probs, f.table[codes]))


def seminorm(f: CylinderFunction) -> float:
    """Sum over window sites of the sup flip-difference |f(w) - f(w^x)|."""
    total = 0.0
    codes = np.arange(f.table.shape[0], dtype=np.uint32)
    for j in range(len(f.window)):
        flipped = f.table[codes ^ np.uint32(1 << j)]
        total += float(np.abs(f.table - flipped).max())
    return total


def dual_apply(
    f: CylinderFunction, rule: RuleSpec, noise: NoiseModel, dims: Sequence[int]
) -> CylinderFunction:
    """The dual (observable-side) action: (T f)(omega) = E[f(next) | omega].

    The result is a cylinder function on the union of the window sites'
    neighborhoods (wrapped on the torus).
    """
    dims = tuple(int(L) for L in dims)
    kern = kernel_plus(noise, rule)
    src_sites: list[tuple[int, ...]] = []
    seen = {}
    for w in f.window:
        for u in rule.neighborhood:
            s = tuple((c + uc) % L for c, uc, L in zip(w, u, dims))
            if s not in seen:
                seen[s] = len(src_sites)
                src_sites.append(s)
    if len(src_sites) > MAX_WINDOW:
        raise ValueError(
            f"dual window needs {len(src_sites)} sites, exceeding cap {MAX_WINDOW}"
        )
    if len(src_sites) + len(f.window) > MAX_EXACT_SITES:
        raise ResourceLimitError("dual table would exceed the exact-computation cap")
    n_src = len(src_sites)
    src_cfgs = np.arange(1 << n_src, dtype=np.uint32)
    # per original-window site: its local rule-configuration under each source cfg
    probs = np.empty((1 << n_src, len(f.window)))
    for j, w in enumerate(f.window):
        local = np.zeros(1 << n_src, dtype=np.uint32)
        for i, u in enumerate(rule.neighborhood):
            s = tuple((c + uc) % L for c, uc, L in zip(w, u, dims))
            local |= ((src_cfgs >> np.uint32(seen[s])) & 1) << np.uint32(i)
        probs[:, j] = kern[local]
    table = _expand_products(probs) @ f.table
    return CylinderFunction(window=tuple(src_sites), table=table)


def window_marginal(dist: StateDistribution, window: Sequence[Sitelike]) -> np.ndarray:
    """Exact marginal law of the window bits, indexed little-endian."""
    sites = tuple(_site_tuple(s, len(dist.dims)) for s in window)
    codes = _window_codes(sites, dist.dims)
    out = np.zeros(1 << len(sites))
    np.add.at(out, codes, dist.probs)
    return out


def window_marginal_consistency(
    rule: RuleSpec,
    noise: NoiseModel,
    window: Sequence[Sitelike],
    n: int,
    dims_small: Sequence[int],
    dims_large: Sequence[int],
) -> float:
    """Max abs difference of the window marginal of T^n delta_plus on two tori.

    Valid (and then exact up to roundoff) only while the window's n-step
    influence cone fits in the smaller torus: window radius + n*v must stay
    below min(dims_small)/2.
    """
    sites = tuple(_site_tuple(s, rule.dimension) for s in window)
    radius = max(sum(abs(c) for c in s) for s in sites)
    v = influence_radius(rule)
    if not radius + n * v < min(int(L) for L in dims_small) / 2:
        raise ValueError(
            f"window radius {radius} + {n}*{v} influence steps does not fit "
            f"inside half of min(dims_small); the agreement guarantee does not apply"
        )
    marginals = []
    for dims in (dims_small, dims_large):
        kernel = ExactKernel(rule, noise, dims)
        cur = delta_plus(kernel.dims)
        for _ in range(n):
            cur = transfer_apply(cur, kernel)
        marginals.append(window_marginal(cur, sites))
    return float(np.abs(marginals[0] - marginals[1]).max())


# --------------------------------------------------------------------------
# basins of product measures


@dataclass(frozen=True)
class ProductMeasureSpec:
    """Product measure given by per-site minus probabilities.

    Either an explicit finite list (torus sites) or one uniform value
    interpreted over an unbounded site set.
    """

    minus_probs: Optional[tuple[float, ...]] = None
    uniform: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.minus_probs is None) == (self.uniform is None):
            raise ValueError("give exactly one of minus_probs or uniform")
        values = self.minus_probs if self.uniform is None else (self.uniform,)
        if any(not 0.0 <= m <= 1.0 for m in values):
            raise ValueError("minus probabilities must lie in [0, 1]")
        if self.minus_probs is not None:
            object.__setattr__(
                self, "minus_probs", tuple(float(m) for m in self.minus_probs)
            )


def basin_membership(spec: ProductMeasureSpec, K: float, eps_prime: float) -> bool:
    """Whether every all-minus pattern probability is within K * eps_prime^|set|.

    For a product measure that is  sup over finite site sets of
    prod (m_x / eps_prime) <= K;  the empty set forces K >= 1.  A positive
    uniform rate above eps_prime fails over large sets; eps_prime = 0 admits
    only measures with no minus mass at all.
    """
    if K < 0 or not 0.0 <= eps_prime <= 1.0:
        raise ValueError("need K >= 0 and eps_prime in [0, 1]")
    if K < 1.0:
        return False
    if spec.uniform is not None:
        m = spec.uniform
        return m == 0.0 or (eps_prime > 0.0 and m <= eps_prime)
    worst = 1.0
    for m in spec.minus_probs:
        if m == 0.0:
            continue
        if eps_prime == 0.0:
            return False
        factor = m / eps_prime
        if factor > 1.0:
            worst *= factor
    return worst <= K
