"""Independent reference computations used to freeze expected test values.

Everything here is deliberately brute force and shares no code path with the
implementations it checks: interval intersection over exact rationals for
one-dimensional hull emptiness, exhaustive monotone-table enumeration, a
direct double-loop subset scan for plus sets, the exact transfer operator
expanded one source configuration at a time, a reachability search for the
closed classes of its support, a phase-one simplex over
``Fraction`` that the integer simplex in ``toomlab.ratlp`` must match, and
the gather-table step (``TorusStepper`` tables indexed by ``step_uniforms``
draws) that the packed stepping core in ``toomlab.engine`` must match bit
for bit.  Only the torus-size check is shared, so that the reference
refuses the same aliasing dims as the engine.  ``evolve_batch`` is not a
reference but an adapter: it runs an unpacked (M, N) replica batch through
the packed core, for tests that compare batches site by site.
``plain_stationary_sample`` is the replica burn-in stepped from step 0 with
no sandwich, which ``toomlab.stats.stationary_sample`` must match bit for
bit, and ``probe_meeting_step`` finds the probe's meeting step from two
one-row batches, without the two-row sandwich.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from toomlab import engine
from toomlab.engine import NoiseModel, RngKey, _torus_dims
from toomlab.rules import RuleSpec, monotone_closure
from toomlab.stats import ReplicaSample


def interval_eroder_verdict(offsets: list[int], sets: list[tuple[int, ...]]) -> bool:
    """1-d oracle: hulls are intervals; empty intersection iff max(min) > min(max)."""
    los = [min(Fraction(offsets[i]) for i in z) for z in sets]
    his = [max(Fraction(offsets[i]) for i in z) for z in sets]
    return max(los) > min(his)


def fraction_feasibility(A, b) -> tuple[bool, list[Fraction]]:
    """Decide {v >= 0 : A v = b} by a phase-one simplex over ``Fraction``.

    The same Bland's rule, tie-break and Farkas read-out as
    ``toomlab.ratlp.solve_feasibility``, on a rational tableau that divides
    the pivot row by the pivot; the two must agree on every input.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    one, zero = Fraction(1), Fraction(0)
    signs = [one if bi >= 0 else -one for bi in b]
    tab = [
        [signs[i] * Fraction(x) for x in A[i]]
        + [one if k == i else zero for k in range(m)]
        + [signs[i] * Fraction(b[i])]
        for i in range(m)
    ]
    ncols = n + m
    basis = list(range(n, n + m))
    rc = [-sum(tab[i][j] for i in range(m)) for j in range(n)] + [zero] * m
    rc.append(-sum(tab[i][ncols] for i in range(m)))
    while True:
        enter = next((j for j in range(ncols) if rc[j] < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][ncols] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise ArithmeticError("phase-one objective cannot be unbounded")
        pivot = tab[leave][enter]
        tab[leave] = [x / pivot for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * p for x, p in zip(tab[i], tab[leave])]
        f = rc[enter]
        rc = [x - f * p for x, p in zip(rc, tab[leave])]
        basis[leave] = enter
    if rc[ncols] == 0:
        v = [zero] * n
        for i, bi in enumerate(basis):
            if bi < n:
                v[bi] = tab[i][ncols]
        return True, v
    return False, [signs[i] * (one - rc[n + i]) for i in range(m)]


def brute_force_plus_sets(rule: RuleSpec) -> list[tuple[int, ...]]:
    """All inclusion-minimal plus sets by scanning every subset twice."""
    R = rule.size
    is_plus = {}
    for mask in range(1 << R):
        # all-plus on the subset, -1 elsewhere: worst case by monotonicity,
        # but verify against *every* completion to stay implementation-free
        forced = True
        members = [i for i in range(R) if (mask >> i) & 1]
        for other in range(1 << R):
            cfg = mask | (other & ~mask)
            if not rule.table[cfg]:
                forced = False
                break
        is_plus[mask] = forced
    minimal = []
    for mask in range(1 << R):
        if not is_plus[mask]:
            continue
        if any(is_plus[mask & ~(1 << i)] for i in range(R) if (mask >> i) & 1):
            continue
        minimal.append(tuple(i for i in range(R) if (mask >> i) & 1))
    return sorted(minimal)


def all_monotone_tables(R: int) -> list[np.ndarray]:
    """Every monotone non-constant truth table on R inputs (feasible R <= 4)."""
    tables = []
    for value in range(1 << (1 << R)):
        table = np.array([(value >> i) & 1 for i in range(1 << R)], dtype=np.uint8)
        if table.min() == table.max():
            continue
        ok = True
        for cfg in range(1 << R):
            for i in range(R):
                if not (cfg >> i) & 1 and table[cfg] > table[cfg | (1 << i)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tables.append(table)
    return tables


def random_monotone_table(R: int, rng: random.Random) -> np.ndarray:
    """Random monotone non-constant table: upward closure of random seeds."""
    while True:
        n_seeds = rng.randint(1, max(2, (1 << R) // 4))
        seeds = [rng.randrange(1, 1 << R) for _ in range(n_seeds)]
        table = monotone_closure(R, seeds)
        if table.min() != table.max():
            return table


def random_offsets_1d(R: int, rng: random.Random, span: int = 6) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(-span, span + 1), R)))


def random_rule(rng: random.Random, max_R: int = 8, max_d: int = 3) -> RuleSpec:
    d = rng.randint(1, max_d)
    # offsets come from [-2, 2]^d, so at most 5^d of them are distinct; the
    # clamp follows the draw so that every rule drawn before it is unchanged
    R = min(rng.randint(1, max_R), 5**d)
    offsets = set()
    while len(offsets) < R:
        offsets.add(tuple(rng.randint(-2, 2) for _ in range(d)))
    return RuleSpec(
        dimension=d,
        neighborhood=tuple(sorted(offsets)),
        table=random_monotone_table(R, rng),
    )


def enumerate_1d_rules_exhaustive(R: int, offsets: tuple[int, ...]) -> list[RuleSpec]:
    return [
        RuleSpec(dimension=1, neighborhood=tuple((o,) for o in offsets), table=t)
        for t in all_monotone_tables(R)
    ]


def brute_force_transfer(
    rule: RuleSpec, p_plus: np.ndarray, dims: tuple[int, ...], vecs: np.ndarray
) -> np.ndarray:
    """Rows of vecs pushed through the noisy update, one source state at a time.

    p_plus[c] is the probability of output +1 for local configuration c
    (bit i = spin at the i-th neighbor).  Each source state contributes its
    weight times the product measure over target sites, built by doubling.
    """
    n = int(np.prod(dims))
    coords = list(itertools.product(*(range(L) for L in dims)))  # row-major
    flat = {c: i for i, c in enumerate(coords)}
    feeds = [
        [flat[tuple((c + u) % L for c, u, L in zip(site, off, dims))] for off in rule.neighborhood]
        for site in coords
    ]
    vecs = np.atleast_2d(np.asarray(vecs, dtype=np.float64))
    out = np.zeros_like(vecs)
    for src in range(1 << n):
        rows = np.flatnonzero(vecs[:, src])
        if not len(rows):
            continue
        measure = np.ones(1)
        for x in range(n):
            cfg = sum(((src >> s) & 1) << i for i, s in enumerate(feeds[x]))
            p = p_plus[cfg]
            measure = np.concatenate([measure * (1.0 - p), measure * p])
        # rows without weight on src would only add zeros
        out[rows] += np.outer(vecs[rows, src], measure)
    return out


def one_closed_class(support: np.ndarray) -> bool:
    """Whether the chain with boolean transition support[s, t] has one closed class.

    Walks down to a closed class C: the states reachable from u form one
    exactly when they all lead back to u, and otherwise a state that does
    not has a strictly smaller reachable set.  There is no other closed
    class exactly when every state leads to C.
    """

    def reach(start: np.ndarray, edges: np.ndarray) -> np.ndarray:
        seen, frontier = start.copy(), start.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        return seen

    u = np.zeros(len(support), dtype=bool)
    u[0] = True
    while True:
        ahead, behind = reach(u, support), reach(u, support.T)
        if not (ahead & ~behind).any():
            return bool(reach(ahead, support.T).all())
        u = np.zeros(len(support), dtype=bool)
        u[np.flatnonzero(ahead & ~behind)[0]] = True


class TorusStepper:
    """Precomputed gather tables for one (rule, dims) pair."""

    def __init__(self, rule: RuleSpec, dims: Sequence[int]):
        dims = _torus_dims(rule, dims)
        self.rule = rule
        self.dims = dims
        self.n_sites = int(np.prod(dims))
        coords = np.indices(dims).reshape(rule.dimension, self.n_sites)
        nbr = np.empty((rule.size, self.n_sites), dtype=np.intp)
        for i, u in enumerate(rule.neighborhood):
            shifted = tuple(
                (coords[k] + u[k]) % dims[k] for k in range(rule.dimension)
            )
            nbr[i] = np.ravel_multi_index(shifted, dims)
        self.nbr = nbr
        self.table = rule.table

    def local_index(self, bits: np.ndarray) -> np.ndarray:
        """Local configuration index per site; bits is (N,) or a batch (M, N)."""
        idx = bits[..., self.nbr[0]].astype(np.uint32)
        for i in range(1, self.rule.size):
            idx |= bits[..., self.nbr[i]].astype(np.uint32) << np.uint32(i)
        return idx


def step_uniforms(key: RngKey, t: int, start: int, count: int) -> np.ndarray:
    """Outputs [start, start+count) of the step-t uniform stream.

    start must be a multiple of 4 (the Philox block size) so that chunked
    generation reproduces single-pass generation exactly.
    """
    if start % 4:
        raise ValueError("stream start must be 4-aligned")
    bg = Philox(key=key.seed, counter=[0, 0, int(t), 0])
    bg.advance(start // 4)
    return Generator(bg).random(count)


def evolve_batch(
    bits: np.ndarray,
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    key: RngKey,
    t0: int,
    steps: int,
    threads: int = 1,
) -> np.ndarray:
    """Advance a uint8 replica batch (shape (M, N)) by the packed core; replica
    r owns stream slots [r*N, (r+1)*N) of each step."""
    bits = np.asarray(bits, dtype=np.uint8)
    m, n = bits.shape
    if n != int(np.prod(dims)):
        raise ValueError("batch width does not match dims")
    if m == 0:
        return bits.copy()
    kern = engine.kernel_plus(noise, rule)
    core = engine._PackedCore(rule, dims, kern, key, threads, replicas=m)
    words = engine._pack(bits.reshape(1, m * n), core.n_words)
    for t in range(t0, t0 + steps):
        words = core.step(words, t)
    return engine._unpack(words, m * n).reshape(m, n)


def plain_stationary_sample(
    rule: RuleSpec,
    noise: NoiseModel,
    dims: Sequence[int],
    burn_in: int,
    replicas: int,
    seed: int,
) -> ReplicaSample:
    """The replica batch after every burn-in step from all-plus at step 0."""
    kern = engine.kernel_plus(noise, rule)
    core = engine._PackedCore(rule, dims, kern, RngKey(seed), replicas=replicas)
    words = engine.LatticeState.all_plus(core.dims).words[None, :]
    for t in range(burn_in):
        words = core.step(words, t)
    return ReplicaSample(dims=core.dims, words=words[0], core=core, steps=burn_in,
                         burn_in_window=burn_in)


def probe_meeting_step(
    rule: RuleSpec, noise: NoiseModel, dims: Sequence[int], replicas: int, seed: int, stop: int
):
    """The first step at which an all-plus and an all-minus batch of the
    first ceil(replicas / 64) replicas, each stepped alone from step 0,
    agree; None if they do not within stop steps."""
    kern = engine.kernel_plus(noise, rule)
    core = engine._PackedCore(rule, dims, kern, RngKey(seed), replicas=-(-replicas // 64))
    plus = engine.LatticeState.all_plus(core.dims).words[None, :]
    minus = engine.LatticeState.all_minus(core.dims).words[None, :]
    for t in range(stop):
        plus, minus = core.step(plus, t), core.step(minus, t)
        if np.array_equal(plus, minus):
            return t + 1
    return None
