"""Exact finite-state computations on tiny tori.

With N = prod(dims) sites (hard cap 24), a probability distribution over all
2^N spin configurations is a dense vector indexed by the same bit encoding
the lattice engine packs states with (bit i = spin +1 at flat site i).  One
noisy synchronous update maps such a vector through the product kernel

    out(xi) = sum_omega dist(omega) * prod_x p(xi_x | omega_{x+U}).

The kernel is contracted one target site at a time, summing out each
source spin right after its last use (a moving front, as in row transfer
matrices): O(N * 2^(N+w)) work for a front of w wrapped source spins.  Each
step is one BLAS matmul of strided views of its input against a small
matrix built with the plan, the steps alternating between two buffers,
so no step makes a transposed copy: 0.15-0.21 ms per application at
N = 12 and 0.5-0.75 ms at N = 14 on a ring, 3.2-3.5 ms on a 3 x 4 nec
torus (2-core machine).  A torus is refused when one sweep step's input and
output together exceed MAX_SWEEP_BYTES.  `ExactKernel.apply` takes one
2^N vector.  `tv_curve` takes an `ExactKernel`; a stationary law carries
the one it was solved on, with its sweep plan.  Up to 11 sites the solver
and `_plus_iterates`, the one T^n delta_plus that `tv_curve` and
`window_marginal_consistency` step, run on translation orbits (see
`_Space`): 64 on a 3 x 3 torus, 188 on an 11-ring.  `_local_codes` reads
local configurations out of state codes, for the orbit matrix, window
marginals and the duality check, and `_products` multiplies per-site
probabilities into the orbit matrix's product weights.

On top of the kernel: the stationary distribution of a chain whose
invariant law is proven unique (restarted GMRES, checked by its
total-variation residual; any other chain is refused), the total-variation
curve of T^n delta_plus, the duality check E_{pi T}[sigma_0] = E_pi[T sigma_0]
for the spin at the origin, window marginals, and the light-cone check that
window marginals on two torus sizes agree exactly until influence wraps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .engine import NoiseModel, _as_sites, _flat_index, influence_radius, kernel_plus, neighbor_table
from .errors import ConfigError, NumericalError, ResourceLimitError
from .rules import RuleSpec

logger = logging.getLogger(__name__)

MAX_EXACT_SITES = 24
MAX_ORBIT_SITES = 11  # largest torus solved and traced on translation orbits
MAX_SWEEP_BYTES = 1 << 30  # largest sweep-step input + output, per vector
MAX_WINDOW = 20
KRYLOV_RESTART = 40  # Arnoldi steps per GMRES cycle
MAX_BASIS_BYTES = 1 << 30  # largest Krylov basis; the cycle shortens to fit

Sitelike = Union[int, Sequence[int]]


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


class ExactKernel:
    """Action of one noisy synchronous update on state vectors."""

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
        self._sweep_steps: Optional[list[_SweepStep]] = None
        self._orbits: Optional[_Space] = None
        if self.n_sites > MAX_ORBIT_SITES:
            self._sweep()  # refuses an oversize torus before anything is allocated

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Linear kernel application to one signed 2^N vector.

        No normalization; any other shape is refused with ValueError.  The
        product kernel is contracted site by site (see `_sweep_plan`): each
        step is one broadcast matmul of strided views of its input against
        the step's matrix, written with out= through the two buffers built
        with the plan.  The result is copied out, so it never aliases a
        buffer.
        """
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_states,):
            raise ValueError(f"apply takes one vector of {self.n_states} entries, got {vec.shape}")
        steps = self._sweep()
        np.copyto(self._buffers[1][: self.n_states], vec)
        for st, (src, dst) in zip(steps, self._views):
            np.matmul(src, st.matrix, out=dst)
        cur = self._buffers[(len(steps) - 1) % 2][: self.n_states]
        if self._sweep_order is not None:
            cur = cur.reshape((2,) * self.n_sites).transpose(self._sweep_order)
        return np.array(cur).reshape(-1)

    def _sweep(self) -> list[_SweepStep]:
        """The site-sweep plan with its two buffers and their views, built on
        first use once the byte cap admits it."""
        if self._sweep_steps is None:
            steps, order = _sweep_plan(self.nbr, self.kern)
            # bytes of the largest step input plus output
            self._sweep_bytes = max(8 * (st.in_size + st.out_size) for st in steps)
            if self._sweep_bytes > MAX_SWEEP_BYTES:
                raise ResourceLimitError(
                    f"the site sweep needs {self._sweep_bytes} bytes of tensors,"
                    f" over the {MAX_SWEEP_BYTES}-byte cap"
                )
            # step i reads buffer (i + 1) % 2 and writes buffer i % 2
            bufs = [np.empty(max(st.out_size for st in steps[0::2])),
                    np.empty(max([self.n_states] + [st.out_size for st in steps[1::2]]))]
            self._views = [(
                np.ndarray(st.in_shape, np.float64, bufs[(i + 1) % 2], 0, st.in_strides),
                np.ndarray(st.out_shape, np.float64, bufs[i % 2], 0, st.out_strides),
            ) for i, st in enumerate(steps)]
            self._buffers = bufs
            self._sweep_steps, self._sweep_order = steps, order
        return self._sweep_steps


@dataclass(frozen=True)
class _SweepStep:
    """One target site of the sweep: out = in @ matrix over strided views.

    Strides are in bytes; in_size and out_size count the elements of the
    step's input and output tensors.
    """

    in_size: int
    in_shape: tuple[int, ...]
    in_strides: tuple[int, ...]
    out_size: int
    out_shape: tuple[int, ...]
    out_strides: tuple[int, ...]
    matrix: np.ndarray


def _sweep_plan(nbr: np.ndarray, kern: np.ndarray) -> tuple[list[_SweepStep], Optional[tuple]]:
    """Matmul steps that contract the product kernel one target site at a time.

    nbr[i, x] is the source site feeding neighbor slot i of target x, and
    kern[c] the probability of +1 for local configuration c.  Tensors have
    one axis of size 2 per live spin, labelled s for source site s and N + x
    for target x, laid out as four runs: parked sources, targets (newest
    first), untouched sources (in C order, as the input vector has them) and
    the sources the next step reads.  Step x multiplies in p(xi_x | omega)
    and sums out every source whose last use is x:

    * its block is the trailing run of its sources, widened to the ones it
      drops and trimmed, down to one axis, of leading ones that neither drop
      nor feed the next step, so the matrix rows (2^m, one per block
      configuration) are the unit-stride last axis of the input;
    * a source outside the block (nec's north neighbor, a wrap) is looped
      over its two values as a batch axis of the views, as is a source the
      next step drops, so that it is moved into the trailing run in time;
    * the new target goes in front of the targets; block sources the next
      step reads stay in the trailing run as the matrix columns, and every
      other survivor goes to the parked run.

    The largest run of axes that keeps its place is the gemm row axis, and
    every other axis a batch axis of np.matmul, so no step copies its input.
    Returns the steps and the axis order that puts the result back into
    (bit N-1, ..., bit 0), the C order of a flat state index, or None
    when the sweep already ends there, as it does unless a one-site
    neighborhood starts it at another target.
    """
    r, n = nbr.shape
    # a one-site neighborhood drops its source at first use: start at the
    # target that reads site 0, the input's last axis
    x0 = 0 if r > 1 else int(np.flatnonzero(nbr[0] == 0)[0])
    order = [(x0 + i) % n for i in range(n)]
    sources = [{int(s) for s in nbr[:, x]} for x in order] + [set()]
    last = {s: i for i, srcs in enumerate(sources) for s in srcs}
    layout = list(range(n - 1, -1, -1))
    parked: set[int] = set()
    steps = []
    for i, x in enumerate(order):
        srcs, nxt = sources[i], sources[i + 1]
        drop = {s for s in srcs if last[s] == i}
        # the trailing run of sources holds all this step drops: the step
        # before moved them there (step 0 drops none, or site 0 if r = 1)
        j = len(layout)
        while j and layout[j - 1] in srcs:
            j -= 1
        while j < len(layout) - 1 and layout[j] not in drop and layout[j] not in nxt:
            j += 1
        block = layout[j:]
        looped = [a for a in layout[:j] if a in srcs or last.get(a) == i + 1]
        cols = [a for a in block if a not in drop and a in nxt]
        held = [a for a in block if a not in drop and a not in nxt]
        others = [a for a in layout[:j] if a not in looped]
        n_parked = sum(a in parked for a in others)
        to_park = held + [a for a in looped if a not in nxt]
        out = (
            others[:n_parked] + to_park + [n + x] + others[n_parked:]
            + [a for a in looped if a in nxt] + cols
        )
        parked = set(others[:n_parked]) | set(to_park)
        steps.append(_sweep_step(nbr[:, x], kern, layout, out, block, looped, held, cols, n + x))
        layout = out
    perm = [layout.index(n + x) for x in range(n - 1, -1, -1)]
    return steps, None if perm == list(range(n)) else tuple(perm)


def _sweep_step(
    slots: np.ndarray,
    kern: np.ndarray,
    layout: list[int],
    out: list[int],
    block: list[int],
    looped: list[int],
    held: list[int],
    cols: list[int],
    target: int,
) -> _SweepStep:
    """Views and matrix of one sweep step, from its input and output layouts.

    Every axis outside the block, the columns and the loops keeps its place
    relative to the others; maximal runs of such axes that are adjacent in
    both layouts become single view axes.  The longest run is the gemm rows,
    the other runs and every looped, held or target axis are batch axes.
    The matrix has a size-2 batch axis for the target, for each looped
    source and for each held block axis, whose value it pins; it broadcasts
    over the rest.
    """
    pos_in = {a: k for k, a in enumerate(layout)}
    pos_out = {a: k for k, a in enumerate(out)}
    fixed = set(looped) | set(held) | {target}
    runs: list[list[int]] = []
    for a in out:
        if a in fixed or a in cols:
            continue
        prev = runs[-1][-1] if runs else None
        if prev is not None and (pos_in[a], pos_out[a]) == (pos_in[prev] + 1, pos_out[prev] + 1):
            runs[-1].append(a)
        else:
            runs.append([a])
    rows = max(reversed(runs), key=len, default=[])
    batch = sorted([run for run in runs if run is not rows] + [[a] for a in fixed],
                   key=lambda run: pos_out[run[0]])
    outside = set(layout) - set(block)
    # the matrix depends on the target, the looped sources and the held axes
    pinned = {target, *held, *(int(s) for s in slots)}
    deps = [run[0] for run in batch if run[0] in fixed and run[0] in pinned]

    def merged(run: list[int], lay: list[int]) -> tuple[int, int]:
        """Size and element stride of a run of adjacent axes of lay, as one axis."""
        return 1 << len(run), 1 << (len(lay) - 1 - lay.index(run[-1]))

    m, kc = len(block), len(cols)
    dims_in = [merged(run, layout) if run[0] in outside else (1, 0) for run in batch]
    dims_in += [merged(rows, layout) if rows else (1, 0), (1 << m, 1)]
    dims_out = [merged(run, out) for run in batch]
    dims_out += [merged(rows, out) if rows else (1, 0), (1 << kc, 1)]

    full = (2,) * len(deps) + (1 << m, 1 << kc)
    grid = np.indices(full, sparse=True)
    row, col = grid[-2], grid[-1]

    def spin(a: int) -> np.ndarray:
        if a in block:
            return (row >> (m - 1 - block.index(a))) & 1
        return grid[deps.index(a)]

    p = kern[sum(spin(int(s)) << k for k, s in enumerate(slots))]
    w = np.where(grid[deps.index(target)] == 1, p, 1.0 - p)
    for k, a in enumerate(cols):
        w = w * (spin(a) == ((col >> (kc - 1 - k)) & 1))
    for a in held:
        w = w * (spin(a) == grid[deps.index(a)])
    shape = tuple(2 if run[0] in deps else 1 for run in batch) + (1 << m, 1 << kc)
    return _SweepStep(
        in_size=1 << len(layout),
        in_shape=tuple(size for size, _ in dims_in),
        in_strides=tuple(8 * stride for _, stride in dims_in),
        out_size=1 << len(out),
        out_shape=tuple(size for size, _ in dims_out),
        out_strides=tuple(8 * stride for _, stride in dims_out),
        matrix=np.ascontiguousarray(np.broadcast_to(w, full)).reshape(shape),
    )


def _local_codes(codes: np.ndarray, slots: Sequence) -> np.ndarray:
    """Local configurations: bit i of entry [c, ...] is bit slots[i, ...] of codes[c],
    so the (R, N) neighbor table gives each target's rule input, one row of sites their code."""
    slots = np.asarray(slots, dtype=np.int64)
    codes = codes.reshape((-1,) + (1,) * (slots.ndim - 1))
    return sum(((codes >> s) & 1) << i for i, s in enumerate(slots))


def _products(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Entry [k, b] is prod_x (probs[b, x] if bit x of targets[k] is set, else 1 - probs[b, x]),
    multiplied in ascending x: the weight of each target configuration given each source."""
    out = np.ones((len(targets), len(probs)))
    for x in range(probs.shape[1]):
        p = probs[:, x]
        out *= np.where((targets[:, None] >> x) & 1, p, 1.0 - p)
    return out


def _renormalized(out: np.ndarray, total: float) -> np.ndarray:
    """out / total, refused with NumericalError when T drifted the mass by over 1e-9."""
    drift = total - 1.0
    if abs(drift) > 1e-9:
        raise NumericalError(f"transfer application lost mass: drift {drift}")
    if drift != 0.0:
        logger.debug("transfer mass drift %.3e renormalized", drift)
        out /= total
    return out


@dataclass(frozen=True, kw_only=True)
class StationaryLaw(StateDistribution):
    """A verified invariant law, with the route that produced it.

    solver is "krylov", the one route.  iterations counts its kernel
    applications, the verifying ones included.  residual is TV(T pi, pi),
    the total-variation residual that passed the `< tol` check.  stepped is
    that verifying application's pi T, lifted to the 2^N space and clipped
    at 0 as probs is, not renormalized.  kernel is the ExactKernel the law
    was solved on.
    """

    solver: str
    iterations: int
    residual: float
    stepped: np.ndarray = field(compare=False, repr=False)
    kernel: ExactKernel = field(compare=False, repr=False)


class _Space:
    """Coordinates the stationary solver and `tv_curve` iterate in.

    Up to MAX_ORBIT_SITES the chain, as translation-invariant as every start
    it is given, is lumped onto torus-translation orbits (Kemeny and Snell,
    1960): a vector holds the common probability of each orbit's states,
    `apply` is the orbit matrix A[O, k] = sum over s in O of T(s, rep_k), and
    sums, inner products and TV distances are weighted by orbit size, so they
    equal their full-space values.  Otherwise it is the 2^N space, unweighted.
    """

    def __init__(self, kernel, orbits: Optional[tuple] = None):
        self.kernel = kernel
        # orbit matrix, orbit of every state, least state of every orbit, orbit sizes
        self.matrix, self.index, self.reps, self.weights = orbits or (None,) * 4
        self.size = kernel.n_states if orbits is None else len(self.reps)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.kernel.apply(x) if self.matrix is None else x @ self.matrix

    def total(self, x: np.ndarray) -> float:
        return float(x.sum() if self.weights is None else self.weights @ x)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b if self.weights is None else (a * self.weights) @ b)

    def tv(self, a: np.ndarray, b: np.ndarray) -> float:
        return 0.5 * self.total(np.abs(a - b))

    def lift(self, x: np.ndarray) -> np.ndarray:
        return x if self.index is None else x[self.index]


def _space(kernel) -> _Space:
    """The space kernel's chain is solved and traced in, built once per kernel."""
    if not isinstance(kernel, ExactKernel) or kernel.n_sites > MAX_ORBIT_SITES:
        return _Space(kernel)
    if kernel._orbits is None:
        kernel._orbits = _orbit_space(kernel)
    return kernel._orbits


def _orbit_space(kernel: ExactKernel) -> _Space:
    """The translation orbits of a small torus, each named by its least code."""
    dims, n = kernel.dims, kernel.n_sites
    codes = np.arange(kernel.n_states)
    least = codes
    for axis, size in enumerate(dims):
        # every code moved one site along the axis, a table composed size - 1 times
        moved = _local_codes(codes, np.roll(np.arange(n).reshape(dims), 1, axis=axis).ravel())
        image, best = codes, least
        for _ in range(size - 1):
            image = moved[image]
            best = np.minimum(best, least[image])
        least = best
    reps, index = np.unique(least, return_inverse=True)
    sizes = np.bincount(index)
    # sources sorted by orbit, so that each orbit is one run of columns
    sources = np.argsort(index, kind="stable")
    t = _products(kernel.kern[_local_codes(sources, kernel.nbr)], reps)  # T(s, rep_k) as row k
    matrix = np.add.reduceat(t, np.cumsum(sizes) - sizes, axis=1).T
    return _Space(kernel, (matrix, index, reps, sizes.astype(np.float64)))


def _unique_law_provable(kernel: ExactKernel) -> bool:
    """Whether the chain provably has exactly one invariant law.

    So it has when all-minus or all-plus is reachable from every state: such
    a state lies in every closed class, so there is only one.  At any size,
    with no matrix: when no local configuration gives +1 with probability 1,
    every site can turn -1 in the same step, so all-minus is one step from
    every state; likewise all-plus when none gives +1 with probability 0.
    Iterating the monotone-closure bound (the least state k steps reach lies
    below m^k(all-plus), where m puts +1 at the sites whose configuration is
    in the up-closure of the sure ones) proves no more, since a nonempty
    up-closure holds the all-plus configuration and m then fixes all-plus.
    A kernel monotone in the configuration and sure both ways fixes both
    all-minus and all-plus, so for it the test is exact.  For the others
    sure both ways, non-monotone tables, a backward search on the support
    of the orbit matrix decides reachability up to MAX_ORBIT_SITES; both
    states are singleton orbits, the first and the last.
    """
    if (kernel.kern < 1.0).all() or (kernel.kern > 0.0).all():
        return True
    matrix = _space(kernel).matrix
    if matrix is None:
        return False
    support = matrix > 0.0
    for target in (0, len(support) - 1):
        reached = np.zeros(len(support), dtype=bool)
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
    space = _space(kernel)
    n = space.size
    w = 1.0 / kernel.n_states
    m = min(KRYLOV_RESTART, MAX_BASIS_BYTES // (8 * n) - 1)
    basis = np.empty((m + 1, n))
    hess = np.empty((m + 1, m))
    cos, sin = np.empty(m), np.empty(m)
    g = np.empty(m + 1)
    pi = np.full(n, w)
    applies = 0
    best = math.inf
    while True:
        t_pi = space.apply(pi)
        applies += 1
        resid = space.tv(t_pi / space.total(t_pi), pi)
        if resid < tol:
            stepped = np.clip(space.lift(t_pi), 0.0, None)
            stepped.setflags(write=False)
            return StationaryLaw(dims=kernel.dims, probs=space.lift(pi), solver="krylov",
                                 iterations=applies, residual=resid, stepped=stepped,
                                 kernel=kernel)
        r = t_pi - pi
        beta = math.sqrt(space.dot(r, r))
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
            u = v - space.apply(v) + space.total(v) * w
            applies += 1
            for i in range(k + 1):
                hess[i, k] = space.dot(basis[i], u)
                u -= hess[i, k] * basis[i]
            norm = math.sqrt(space.dot(u, u))
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
        pi = x / space.total(x)


def stationary_distribution(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    tol: float = 1e-10,
    max_iter: int = 10**6,
) -> StationaryLaw:
    """The unique invariant law pi, verified by TV(T pi, pi) < tol.

    pi carries the ExactKernel it was solved on, for the functions that push
    it forward.  A chain whose law is not proven unique (see
    `_unique_law_provable`) is refused with ConfigError, since a chain with
    several invariant laws has no one answer; one that is, an absorbing one
    included, is solved by restarted GMRES from the uniform law (see
    `_krylov_solve`).  A stall above tol, or max_iter kernel
    applications first, raises NumericalError.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    kernel = ExactKernel(rule, noise, dims)
    if not _unique_law_provable(kernel):
        raise ConfigError(
            "no constant state is shown reachable from every state, so the chain's"
            " invariant law is not proven unique and is not computed"
        )
    return _krylov_solve(kernel, tol, max_iter)


def tv_curve(
    kernel: ExactKernel, reference: StateDistribution, n_max: int = 200, floor: float = 1e-13
) -> list[float]:
    """TV(T^n delta_plus, reference) for n = 0..n_max, stopping once below floor at n >= 1."""
    space = _space(kernel)
    curve: list[float] = []
    for cur in _plus_iterates(space, n_max):
        curve.append(0.5 * float(np.abs(space.lift(cur) - reference.probs).sum()))
        if len(curve) > 1 and curve[-1] < floor:
            break
    return curve


def _plus_iterates(space: _Space, n: int) -> Iterable[np.ndarray]:
    """T^k delta_plus for k = 0..n in space's coordinates, renormalized (see `_renormalized`)."""
    cur = np.zeros(space.size)
    cur[-1] = 1.0  # all-plus, the last state and the last (singleton) orbit
    yield cur
    for _ in range(n):
        cur = space.apply(cur)
        yield _renormalized(cur, space.total(cur))


def spin_duality(pi: StationaryLaw) -> tuple[float, float]:
    """E_{pi T}[sigma_0] and E_pi[T sigma_0], the two sides of the duality
    for the spin at flat site 0.

    The left side reads pi's verified step.  The right side weighs each state
    by (T sigma_0)(omega) = p - (1 - p), with p the +1 probability of site 0's
    local configuration in omega, read from the kernel table.
    """
    states = np.arange(pi.kernel.n_states)
    p = pi.kernel.kern[_local_codes(states, pi.kernel.nbr[:, 0])]
    lhs = np.dot(pi.stepped, np.where(states & 1, 1.0, -1.0))
    return float(lhs), float(np.dot(pi.probs, p - (1.0 - p)))


def window_sites(window: Sequence[Sitelike], dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The window's sites, refused when empty, over MAX_WINDOW or coinciding on the torus."""
    if len(window) == 0:
        raise ConfigError(f"window {list(window)} must name at least one site")
    if len(window) > MAX_WINDOW:
        raise ResourceLimitError(f"window of {len(window)} sites exceeds the cap {MAX_WINDOW}")
    sites = tuple(_as_sites(window, len(dims)))
    if len({_flat_index(s, dims) for s in sites}) != len(sites):
        raise ConfigError(f"window sites {list(sites)} are not distinct on torus {dims}")
    return sites


def window_marginal(dist: StateDistribution, window: Sequence[Sitelike]) -> np.ndarray:
    """Exact marginal law of the window bits, indexed little-endian."""
    sites = window_sites(window, dist.dims)
    codes = _local_codes(np.arange(len(dist.probs)), [_flat_index(s, dist.dims) for s in sites])
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
    sites = _as_sites(window, rule.dimension)
    radius = max(sum(abs(c) for c in s) for s in sites)
    v = influence_radius(rule)
    if not radius + n * v < min(int(L) for L in dims_small) / 2:
        raise ValueError(
            f"window radius {radius} + {n}*{v} influence steps does not fit "
            f"inside half of min(dims_small); the agreement guarantee does not apply"
        )
    marginals = []
    for dims in (dims_small, dims_large):
        space = _space(ExactKernel(rule, noise, dims))
        for cur in _plus_iterates(space, n):
            pass
        marginals.append(window_marginal(StateDistribution(dims, space.lift(cur)), sites))
    return float(np.abs(marginals[0] - marginals[1]).max())
