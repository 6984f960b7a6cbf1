"""Synchronous spin dynamics on finite periodic lattices.

States are bit-packed (bit 1 = spin +1, 64 sites per word, little-endian bit
order, row-major site indexing, padding bits past the last site zero), and
every update steps the packed words directly (multi-spin coding).  For each
neighborhood offset, a plane holding every site's neighbor spin is built
from two flat bit shifts with carry, one plain and one wrapped around the
torus, selected per axis by precomputed packed range masks.  The rule table
is evaluated by Shannon expansion over those planes, and its leaves are
words: all-zero and all-one for probabilities 0 and 1, and otherwise one
packed noise mask per distinct value p of the kernel.  A deterministic step
is the case without drawn leaves.  Every Monte Carlo path steps through one
loop, `_PackedCore.run`, whose rows share each step's draws; a second row
(the all-minus half of a coupled pair) is dropped from the step at which it
equals the first, since it stays equal from then on.

Randomness is counter-based: the draw consumed by site x at step t is output
number x of a Philox stream keyed by (seed) with counter (0, 0, t, 0), so a
trajectory is a pure function of (seed, initial state, rule, noise, steps).
Site x takes +1 when its draw u satisfies u < p; the mask tests the raw
64-bit draw against an integer bound that gives the same answer bit for bit.
Batches of replicas are one lattice with a leading replica axis, so replica
r owns outputs [r*N, (r+1)*N) of the shared stream.  A core over chosen
replicas of a batch reads those outputs by counter instead (`_philox_at`,
Philox4x64-10 computed per 4-word block), and gets the same words as stream
order, so its replicas step exactly as in the batch.  With threads > 1 the
draws are made in 64-site-aligned spans on one process-wide pool; each span
keeps one generator, moved every step to its own offset of that step's
stream, so results do not depend on the thread count.  Within its span a
thread draws blocks of 65,536 sites, each thresholded and packed into the
masks before the next is drawn.

Memory per step is a few packed rows of ceil(sites / 64) words (state in
and out, shifted planes, Shannon node values, noise masks, each dropped
after its last use; see :func:`working_bytes`) plus under 600 KiB of draw
scratch per span, or about 5 MiB when the draws are read by counter.  A
run whose estimate exceeds MAX_MC_BYTES is refused with ResourceLimitError
before anything of lattice size is allocated, by `_within_cap`, every cap's
one check.  `_seed` refuses a seed other than an int in [0, 2**64).

The exact oracle reads the same wrapped neighborhoods, as an index table,
from :func:`neighbor_table`.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.random import Philox

from .errors import ConfigError, ResourceLimitError
from .rules import RuleSpec

Site = tuple[int, ...]


def _as_sites(island: Iterable, dimension: int) -> list[Site]:
    sites = []
    for s in island:
        if isinstance(s, int):
            s = (s,)
        s = tuple(int(c) for c in s)
        if len(s) != dimension:
            raise ConfigError(f"site {s} does not match dimension {dimension}")
        sites.append(s)
    return sites


def _flat_index(site: Site, dims: tuple[int, ...]) -> int:
    """Flat index of a site, wrapped onto the torus."""
    return int(np.ravel_multi_index(tuple(c % L for c, L in zip(site, dims)), dims))


@dataclass(frozen=True)
class LatticeState:
    """Immutable bit-packed spin configuration on a torus."""

    dims: tuple[int, ...]
    words: np.ndarray  # dtype '<u8', packed little-endian, padded with zeros

    def __post_init__(self) -> None:
        dims = tuple(int(L) for L in self.dims)
        if any(L < 1 for L in dims):
            raise ConfigError(f"side lengths must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        words = np.ascontiguousarray(self.words, dtype="<u8")
        words.setflags(write=False)
        if words.shape != (-(-self.n_sites // 64),):
            raise ConfigError("packed word count does not match dims")
        object.__setattr__(self, "words", words)

    @property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    def bits(self) -> np.ndarray:
        """Unpacked spins as a flat uint8 0/1 array (1 = spin +1)."""
        return _unpack(self.words, self.n_sites)

    @classmethod
    def from_bits(cls, dims: Sequence[int], bits: np.ndarray) -> "LatticeState":
        dims = tuple(int(L) for L in dims)
        n = int(np.prod(dims))
        return cls(dims=dims, words=_pack(np.reshape(bits, n), -(-n // 64)))

    @classmethod
    def all_plus(cls, dims: Sequence[int]) -> "LatticeState":
        n = math.prod(int(L) for L in dims)
        words = np.full(-(-n // 64), _ONES)
        words[-1:] &= _ONES >> np.uint64(-n % 64)
        return cls(dims=dims, words=words)

    @classmethod
    def all_minus(cls, dims: Sequence[int]) -> "LatticeState":
        n = math.prod(int(L) for L in dims)
        return cls(dims=dims, words=np.zeros(-(-n // 64), dtype="<u8"))

    @classmethod
    def plus_with_island(cls, dims: Sequence[int], island: Iterable) -> "LatticeState":
        """All-plus configuration with the given sites set to -1."""
        dims = tuple(int(L) for L in dims)
        bits = np.ones(int(np.prod(dims)), dtype=np.uint8)
        for s in _as_sites(island, len(dims)):
            bits[_flat_index(s, dims)] = 0
        return cls.from_bits(dims, bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeState):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.dims, self.words.tobytes()))


# --------------------------------------------------------------------------
# noise kernels


@dataclass(frozen=True)
class NoiseModel:
    """Local error kernel around the deterministic prescription.

    kinds:
      symmetric — the prescribed spin flips with probability eps;
      biased    — a prescribed +1 flips with probability eps_plus, a
                  prescribed -1 with eps_minus;
      table     — explicit probability of outputting +1 per local
                  configuration (length 2^R, same encoding as rule tables).

    :func:`check_assumptions` finds the least (eps, alpha) a kernel satisfies.
    """

    kind: str
    eps: float = 0.0
    eps_plus: float = 0.0
    eps_minus: float = 0.0
    p_plus: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("symmetric", "biased", "table"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        for name in ("eps", "eps_plus", "eps_minus"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.kind == "table":
            if self.p_plus is None:
                raise ConfigError("table noise requires p_plus")
            arr = np.asarray(self.p_plus, dtype=np.float64)
            if arr.ndim != 1 or not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ConfigError("p_plus must be a 1-d array of probabilities")
            arr.setflags(write=False)
            object.__setattr__(self, "p_plus", arr)


def symmetric_noise(eps: float) -> NoiseModel:
    return NoiseModel(kind="symmetric", eps=eps)


def biased_noise(eps_plus: float, eps_minus: float) -> NoiseModel:
    return NoiseModel(kind="biased", eps_plus=eps_plus, eps_minus=eps_minus)


def table_noise(p_plus: Sequence[float]) -> NoiseModel:
    return NoiseModel(kind="table", p_plus=np.asarray(p_plus, dtype=np.float64))


def noise_to_json(noise: NoiseModel) -> dict:
    if noise.kind == "symmetric":
        return {"kind": "symmetric", "eps": noise.eps}
    if noise.kind == "biased":
        return {"kind": "biased", "eps_plus": noise.eps_plus, "eps_minus": noise.eps_minus}
    return {"kind": "table", "p_plus": [float(p) for p in noise.p_plus]}


def noise_from_json(data: dict) -> NoiseModel:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("noise spec must be an object with a 'kind'")
    kind = data["kind"]
    allowed = {
        "symmetric": {"kind", "eps"},
        "biased": {"kind", "eps_plus", "eps_minus"},
        "table": {"kind", "p_plus"},
    }
    if kind not in allowed:
        raise ConfigError(f"unknown noise kind {kind!r}")
    extra = set(data) - allowed[kind]
    if extra:
        raise ConfigError(f"unknown noise fields for kind {kind!r}: {sorted(extra)}")
    if kind == "symmetric":
        return symmetric_noise(_number(data.get("eps", 0.0), "eps"))
    if kind == "biased":
        return biased_noise(
            _number(data.get("eps_plus", 0.0), "eps_plus"),
            _number(data.get("eps_minus", 0.0), "eps_minus"),
        )
    p_plus = data.get("p_plus")
    if not isinstance(p_plus, list):
        raise ConfigError("table noise needs a list p_plus")
    return table_noise([_number(p, "p_plus") for p in p_plus])


def _number(value, name: str) -> float:
    """A JSON number as a float; strings and booleans are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"noise field {name!r} must be a number, got {value!r}")
    return float(value)


def kernel_plus(noise: NoiseModel, rule: RuleSpec) -> np.ndarray:
    """Probability of outputting spin +1, per local configuration."""
    phi = rule.table.astype(np.float64)
    if noise.kind == "symmetric":
        return phi * (1.0 - noise.eps) + (1.0 - phi) * noise.eps
    if noise.kind == "biased":
        return phi * (1.0 - noise.eps_plus) + (1.0 - phi) * noise.eps_minus
    if noise.p_plus.shape[0] != rule.table.shape[0]:
        raise ConfigError(
            f"table noise covers {noise.p_plus.shape[0]} configurations, "
            f"rule has {rule.table.shape[0]}"
        )
    return np.asarray(noise.p_plus, dtype=np.float64)


def kernel_error(noise: NoiseModel, rule: RuleSpec) -> np.ndarray:
    """Probability of deviating from the rule's prescription, per configuration."""
    phi = rule.table.astype(bool)
    if noise.kind == "symmetric":
        return np.full(phi.shape, float(noise.eps))
    if noise.kind == "biased":
        return np.where(phi, float(noise.eps_plus), float(noise.eps_minus))
    kplus = kernel_plus(noise, rule)
    return np.where(phi, 1.0 - kplus, kplus)


def check_assumptions(noise: NoiseModel, rule: RuleSpec) -> tuple[float, float]:
    """Least (eps, alpha) satisfied by the kernel, by exhaustive enumeration.

    eps: largest probability of deviating from the rule's prescription over
    all local configurations.  alpha: smallest constant such that rewriting
    any one neighborhood spin to the prescribed value a = phi(config) changes
    each transition probability by at most a relative factor alpha.  Sites
    outside the neighborhood never enter the kernel, so checking the R
    in-neighborhood substitutions is complete.  A zero probability that moves
    under substitution makes the bound unsatisfiable (alpha = inf).
    """
    kplus = kernel_plus(noise, rule)
    verified_eps = float(kernel_error(noise, rule).max())

    cfgs = np.arange(rule.table.shape[0], dtype=np.uint32)
    a_bits = rule.table.astype(np.uint32)
    verified_alpha = 0.0
    for i in range(rule.size):
        bit = np.uint32(1 << i)
        subst = np.where(a_bits == 1, cfgs | bit, cfgs & ~bit)
        for p, p2 in ((kplus, kplus[subst]), (1.0 - kplus, 1.0 - kplus[subst])):
            diff = np.abs(p - p2)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(diff == 0.0, 0.0, diff / p)
            verified_alpha = max(verified_alpha, float(ratio.max()))
    return verified_eps, verified_alpha


# --------------------------------------------------------------------------
# counter-based randomness


def _seed(seed) -> int:
    """seed, refused unless an int in [0, 2**64): one seed, one Philox key, one stream."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"a seed is an integer in [0, 2**64), got {seed!r}")
    return seed


def _torus_dims(rule: RuleSpec, dims: Sequence[int]) -> tuple[int, ...]:
    """dims as ints, checked to match the rule and not alias its neighborhood."""
    dims = tuple(int(L) for L in dims)
    if len(dims) != rule.dimension:
        raise ConfigError(
            f"dims {dims} do not match rule dimension {rule.dimension}"
        )
    reach = max(max(abs(c) for c in u) for u in rule.neighborhood)
    for L in dims:
        if L < 2 * reach + 1:
            raise ConfigError(
                f"side length {L} aliases the neighborhood (need >= {2 * reach + 1})"
            )
    return dims


def neighbor_table(rule: RuleSpec, dims: Sequence[int]) -> np.ndarray:
    """(R, N) array: entry (i, x) is the flat site of neighbor slot i of site x."""
    dims = _torus_dims(rule, dims)
    coords = np.indices(dims).reshape(len(dims), -1)
    return np.stack([
        np.ravel_multi_index(tuple(c + o for c, o in zip(coords, u)), dims, mode="wrap")
        for u in rule.neighborhood
    ])


def _philox(seed: int, t: int, start: int, bg: Optional[Philox] = None) -> Philox:
    """Bit generator positioned at output `start` (a multiple of 4) of stream t:
    bg moved there in place, or a new one.

    Moving a generator costs about half of building one, for which numpy
    also reads os.urandom, only for the key to replace that entropy.
    """
    seed = _seed(seed)
    if bg is None:
        bg = Philox(key=seed)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, t, 0], dtype=np.uint64),
                  "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if start:
        bg.advance(start // 4)
    return bg


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _32
    mid = a_hi * m_lo
    cross = (a_lo * m_lo >> _32) + (mid & _LOW32) + a_lo * m_hi  # below 2**64
    return a_hi * m_hi + (mid >> _32) + (cross >> _32), a * np.uint64(m)


def _philox_at(seed: int, t: int, positions: np.ndarray) -> np.ndarray:
    """Outputs `positions` of the step-t stream, as `_philox(seed, t, 0)`'s
    random_raw gives them, in any order.

    Philox4x64-10 (Salmon et al. 2011) vectorized over 4-word blocks: output
    j is word j % 4 of the block whose counter is (j // 4 + 1, 0, t, 0),
    numpy incrementing the counter before it computes a block, under the key
    (seed, 0).  Adjacent positions in one block share its computation.
    """
    positions = np.asarray(positions, dtype=np.uint64)
    block = positions >> np.uint64(2)
    new = np.empty(block.size, dtype=bool)
    new[:1] = True
    np.not_equal(block[1:], block[:-1], out=new[1:])
    c0 = block[new]
    c0 += np.uint64(1)  # below 2**62, so it never carries into word 1
    c1, c2, c3 = np.zeros_like(c0), np.full_like(c0, t), np.zeros_like(c0)
    k0, k1 = _seed(seed), 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= np.uint64(k1)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
    words = np.stack([c0, c1, c2, c3], axis=1)
    return words[np.cumsum(new) - 1, positions & np.uint64(3)]


def _threshold(p: float) -> np.uint64:
    """T with (raw < T) == (Generator.random() < p) for every raw draw, 0 < p < 1.

    random() is (raw >> 11) * 2**-53, so u < p iff raw >> 11 < ceil(p * 2**53)
    iff raw < ceil(p * 2**53) * 2**11; scaling by a power of two is exact,
    and for p < 1 the bound is at most 2**64 - 2**11.
    """
    return np.uint64(math.ceil(p * 2.0**53) << 11)


@functools.lru_cache(maxsize=1)
def _pool() -> ThreadPoolExecutor:
    """The process-wide worker pool, one thread per core, started on first use."""
    return ThreadPoolExecutor(max_workers=os.cpu_count() or 1)


# --------------------------------------------------------------------------
# packed words: bit x of row r is site x, 64 sites per little-endian word

_ONES = np.uint64(2**64 - 1)
_DRAW_BLOCK = 1 << 16  # sites per Philox block: 512 KiB of raw words
_ADDRESSED_BYTES = 80  # draw scratch per site of a counter-addressed block (74 measured at worst)
MAX_MC_BYTES = 1 << 32  # largest packed working set of one Monte Carlo run


def _pack(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Rows of 0/1 sites as rows of words, padding bits zero."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (n_words,), dtype="<u8")
    words.view(np.uint8)[..., : packed.shape[-1]] = packed
    return words


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")


def _plus_counts(words: np.ndarray) -> np.ndarray:
    """Set bits (spins +1) per row, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _replica_counts(words: np.ndarray, m: int, n: int) -> np.ndarray:
    """Set bits in each of the m runs [r*n, (r+1)*n) of a packed row of words,
    as int64; bits past the last run are never read.

    Counted from the bits per byte, the same way for every n.  Runs repeat
    their byte alignment every p = 8 / gcd(n, 8) runs, which fill n*p/8
    whole bytes, so the row is read as blocks of that many bytes (from a
    zero-padded copy when the last block runs past the row).  Run j of each
    block sums, in one call, the byte counts from the byte holding its start
    up to the one holding its end, less the first's bits below its start,
    plus the last's bits below its end.
    """
    p = 8 // math.gcd(n, 8)
    width = n * p // 8
    size = -(-m // p) * width
    raw = words.view(np.uint8)
    if size > raw.size:
        raw = np.pad(raw, (0, size - raw.size))
    raw = raw[:size].reshape(-1, width)
    per_byte = np.bitwise_count(raw)
    counts = np.empty((p, raw.shape[0]), dtype=np.int64)  # run j of each block
    for j, count in enumerate(counts):
        a, r = divmod(j * n, 8)
        b, s = divmod(j * n + n, 8)
        per_byte[:, a:b].sum(axis=1, dtype=np.int64, out=count)
        if r:
            count -= np.bitwise_count(raw[:, a] & np.uint8((1 << r) - 1))
        if s:
            count += np.bitwise_count(raw[:, b] & np.uint8((1 << s) - 1))
    return counts.T.reshape(-1)[:m]


def _put_replicas(words: np.ndarray, ids: np.ndarray, src: np.ndarray, take: np.ndarray,
                  n: int) -> None:
    """Write replica take[k] of packed row src over replica ids[k] of packed
    row words, in place, for ascending ids; runs of n sites need not start
    on a word.

    Only the bits of those replicas are read: each word of words flips the
    bits in which it differs from its new value, OR-ed per word.
    """
    j = np.arange(n, dtype=np.uint64)
    dst = (np.asarray(ids, dtype=np.uint64)[:, None] * np.uint64(n) + j).reshape(-1)
    at = (np.asarray(take, dtype=np.uint64)[:, None] * np.uint64(n) + j).reshape(-1)
    q, r = dst >> np.uint64(6), dst & np.uint64(63)
    flip = (words[q] >> r) ^ (src[at >> np.uint64(6)] >> (at & np.uint64(63)))
    flip &= np.uint64(1)
    flip <<= r
    first = np.flatnonzero(np.diff(q, prepend=q[:1] + np.uint64(1)))
    if first.size:
        words[q[first]] ^= np.bitwise_or.reduceat(flip, first)


def _shifted(words: np.ndarray, s: int) -> np.ndarray:
    """Rows whose bit x is bit x + s of words, zero where x + s leaves the row."""
    q, r = divmod(s, 64)
    n = words.shape[-1]
    out = np.zeros_like(words)
    lo, hi = max(0, -q), min(n, n - q)
    if lo < hi:
        out[..., lo:hi] = words[..., lo + q : hi + q] >> np.uint64(r)
    lo, hi = max(0, -q - 1), min(n, n - q - 1)
    if r and lo < hi:
        out[..., lo:hi] |= words[..., lo + q + 1 : hi + q + 1] << np.uint64(64 - r)
    return out


def _shannon(leaf_of: np.ndarray) -> tuple[list[tuple[int, int, int]], int]:
    """Shannon expansion of a table of leaf ids into shared two-way selections.

    References below n_leaves name leaves; reference n_leaves + i names node
    i = (var, hi, lo), which is hi where input var is set and lo elsewhere.
    A constant sub-table is its leaf, and equal sub-tables share one node.
    """
    n_leaves = int(leaf_of.max()) + 1
    nodes: list[tuple[int, int, int]] = []
    memo: dict[bytes, int] = {}

    def build(sub: np.ndarray) -> int:
        key = sub.tobytes()
        if key not in memo:
            if np.all(sub == sub[0]):
                memo[key] = int(sub[0])
            else:
                half = sub.size // 2
                nodes.append((half.bit_length() - 1, build(sub[half:]), build(sub[:half])))
                memo[key] = n_leaves + len(nodes) - 1
        return memo[key]

    return nodes, build(np.asarray(leaf_of, dtype=np.int64))


def _axis_move(dims: tuple[int, ...], k: int, u: int) -> tuple:
    """Flat shifts of a move by u along axis k of a dims lattice, plain and
    wrapped around the torus, and the packed mask of the sites that take the
    plain one.

    The mask repeats every L * stride sites, so its words repeat every
    lcm(L * stride, 64) sites: one repeat is packed and its words tiled.
    """
    L, stride, n = dims[k], math.prod(dims[k + 1 :]), math.prod(dims)
    coord = np.arange(L) + u
    period = np.repeat((coord >= 0) & (coord < L), stride)
    block = np.tile(period, min(math.lcm(period.size, 64), n) // period.size)
    block = _pack(block, -(-block.size // 64))
    inside = np.tile(block, -(-n // block.size // 64))[: -(-n // 64)]
    inside[-1] &= _ONES >> np.uint64(-n % 64)
    wrap = u - L if u > 0 else u + L
    return u * stride, wrap * stride, inside


def _moved(words: np.ndarray, moves: list[tuple]) -> np.ndarray:
    """Rows whose bit x is the spin at x plus the sum of the moves, on the torus.

    Each site reads a lattice site through the shift its mask selects;
    padding bits may pick up garbage and are the caller's to clear.
    """
    for s_in, s_wrap, inside in moves:
        wrapped = _shifted(words, s_wrap)
        words = _shifted(words, s_in)
        words ^= wrapped
        words &= inside
        words ^= wrapped
    return words


class _StepPlan:
    """A kernel's step on any lattice, and what it holds at each point.

    probs are kern's distinct values, one leaf each; nodes and root are
    `_shannon`'s over them; noisy lists the drawn leaves, n_moves[var] the
    axis moves (nonzero offset coordinates) that build slot var's plane.
    drops lists, per node, the value references and plane slots whose last
    use it is; live the (per-chain rows, shared mask rows) held at the draw,
    at each plane build (one plus two temporaries for one move, three for
    more), at each node evaluation (two temporaries) and at the output copy,
    the state in counting as one chain row.
    """

    def __init__(self, rule: RuleSpec, kern: np.ndarray):
        probs, leaf_of = np.unique(np.asarray(kern, dtype=np.float64), return_inverse=True)
        nodes, root = _shannon(leaf_of)
        noisy = [j for j, p in enumerate(probs) if 0.0 < p < 1.0]
        n_moves = {var: sum(1 for c in rule.neighborhood[var] if c) for var, _, _ in nodes}
        last_value: dict[int, int] = {}
        last_plane: dict[int, int] = {}
        for k, (var, hi, lo) in enumerate(nodes):
            last_value[hi] = last_value[lo] = last_plane[var] = k
        last_value.pop(root, None)
        drops = [
            ([r for r, j in last_value.items() if j == k], [v for v, j in last_plane.items() if j == k])
            for k in range(len(nodes))
        ]
        # node k is reference n_leaves + k, and the root is the last node built
        n_leaves = root - len(nodes) + 1
        planes = values = 0
        masks = len(noisy)
        built: set[int] = set()
        live = [(1, masks)]
        for (var, _, _), (drop_values, drop_planes) in zip(nodes, drops):
            if var not in built and n_moves[var]:
                live.append((1 + planes + values + (3 if n_moves[var] == 1 else 4), masks))
                planes += 1
            built.add(var)
            live.append((1 + planes + values + 2, masks))
            values += 1
            values -= sum(r >= n_leaves for r in drop_values)
            masks -= sum(r in noisy for r in drop_values)
            planes -= sum(1 for v in drop_planes if n_moves[v])
        live.append((1 + values + 1, masks))
        self.probs, self.nodes, self.root, self.noisy = probs, nodes, root, noisy
        self.n_moves, self.drops, self.live = n_moves, drops, live


def working_bytes(
    rule: RuleSpec,
    kern: np.ndarray,
    dims: Sequence[int],
    rows: int = 1,
    replicas: Optional[int] = None,
    threads: int = 1,
    addressed: bool = False,
    plan: Optional[_StepPlan] = None,
) -> int:
    """Peak bytes of one packed step of `rows` chains (each `replicas` tori of
    dims end to end); ResourceLimitError above MAX_MC_BYTES.

    Counted in packed rows of ceil(sites / 64) words: the live peak of the
    kernel's `_StepPlan` (passed as plan if the caller holds it), one range
    mask per axis move, and a draw block for each span the core may make
    (at most one per thread and one per word), of _ADDRESSED_BYTES per site
    when the draws are counter-addressed.  Every Monte Carlo path calls this
    before it allocates anything of lattice size.
    """
    dims = _torus_dims(rule, dims)
    row = 8 * -(-(replicas or 1) * math.prod(dims) // 64)
    plan = plan or _StepPlan(rule, kern)
    need = row * (sum(plan.n_moves.values()) + max(rows * chain + masks for chain, masks in plan.live))
    need += min(threads, row // 8) * _DRAW_BLOCK * (_ADDRESSED_BYTES if addressed else 9) if plan.noisy else 0
    return _within_cap(need, f"a Monte Carlo step on {rows} x {replicas or 1} x {dims} sites")


def _within_cap(need: int, what: str) -> int:
    """need, the bytes of what, refused above MAX_MC_BYTES: every Monte Carlo cap's one check."""
    if need > MAX_MC_BYTES:
        raise ResourceLimitError(f"{what}: about {need} bytes, over the {MAX_MC_BYTES}-byte cap")
    return need


class _PackedCore:
    """Synchronous updates of packed rows; every Monte Carlo path runs on it.

    kern[c] is the probability of output +1 for local configuration c (0/1
    for a deterministic step).  step() advances a (C, n_words) array whose
    rows all consume the same step-t draws, C at most `rows`.  With
    `replicas` set, a row holds that many tori end to end: replica r is flat
    bits [r*N, (r+1)*N), which is exactly its slot in the shared stream.
    With `ids` set instead, a row holds those replicas of a batch, in that
    order, and replica ids[r] draws its own slots [ids[r]*N, (ids[r]+1)*N)
    by counter (`_philox_at`), so it steps exactly as in the whole batch.
    run() is the one trajectory loop over step(): it drops a second row from
    the step at which it equals the first, since both consume the same
    draws and stay equal from then on.
    """

    def __init__(
        self,
        rule: RuleSpec,
        dims: Sequence[int],
        kern: np.ndarray,
        seed: Optional[int] = None,
        threads: int = 1,
        replicas: Optional[int] = None,
        rows: int = 1,
        ids: Optional[np.ndarray] = None,
    ):
        self.seed = None if seed is None else _seed(seed)
        if threads < 1:
            raise ConfigError(f"threads must be at least 1, got {threads}")
        self.threads = int(threads)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.uint64)
            replicas = ids.size
        self._ids = ids
        self._plan = plan = _StepPlan(rule, kern)
        working_bytes(rule, kern, dims, rows, replicas, self.threads, ids is not None, plan=plan)
        dims, offsets = _torus_dims(rule, dims), rule.neighborhood
        if replicas is not None:
            dims, offsets = (int(replicas),) + dims, tuple((0,) + u for u in offsets)
        self.dims = dims
        self.n_sites = math.prod(dims)
        self.n_words = -(-self.n_sites // 64)
        self._tail = _ONES >> np.uint64(-self.n_sites % 64)
        # p = 0 and p = 1 are constant words; each other value is a drawn mask
        self._leaves = [_ONES if p == 1.0 else np.uint64(0) for p in plan.probs]
        self._thresholds = [_threshold(plan.probs[j]) for j in plan.noisy]
        self._moves = {
            var: [_axis_move(dims, k, u) for k, u in enumerate(offsets[var]) if u]
            for var in plan.n_moves
        }
        size = -(-self.n_sites // (64 * self.threads)) * 64
        self._spans = [(a, min(a + size, self.n_sites)) for a in range(0, self.n_sites, size)]
        self._bgs: list[Optional[Philox]] = [None] * len(self._spans)  # each span's, reused

    def _draw(self, t: int) -> list[np.ndarray]:
        """One packed mask raw < T per drawn leaf, from the step-t stream.

        Each thread takes a 64-aligned span of sites and moves the span's
        own generator to its offset, so the thread count changes nothing.
        It draws the span in blocks of _DRAW_BLOCK sites, each thresholded
        and packed before the next is drawn, so its scratch stays fixed.
        With ids, a block's words are read by counter at the stream slots
        of its sites instead.
        Each mask is its own array, so a step can free it after its last use.
        """
        masks = [np.zeros(self.n_words, dtype="<u8") for _ in self._thresholds]
        out = [mask.view(np.uint8) for mask in masks]

        def work(i: int) -> None:
            a, b = self._spans[i]
            bg = None
            if self._ids is None:
                bg = self._bgs[i] = _philox(self.seed, t, a, self._bgs[i])
            for lo in range(a, b, _DRAW_BLOCK):
                if bg is not None:
                    raw = bg.random_raw(min(_DRAW_BLOCK, b - lo))
                else:  # site r*N + j reads stream slot ids[r]*N + j
                    n = np.uint64(self.n_sites // self._ids.size)
                    site = np.arange(lo, min(lo + _DRAW_BLOCK, b), dtype=np.uint64)
                    slot = self._ids[site // n]
                    slot *= n
                    slot += site % n
                    del site
                    raw = _philox_at(self.seed, t, slot)
                    del slot
                for j, thr in enumerate(self._thresholds):
                    packed = np.packbits(raw < thr, bitorder="little")
                    out[j][lo // 8 : lo // 8 + packed.size] = packed
                del raw  # so the next block replaces this one rather than joining it

        spans = range(len(self._spans))
        list((map if len(spans) == 1 else _pool().map)(work, spans))
        return masks

    def step(self, words: np.ndarray, t: int) -> np.ndarray:
        """Rows after the step-t update; the input is unmodified."""
        plan = self._plan
        values = list(self._leaves)
        if plan.noisy:
            masks = self._draw(t)
            for j in reversed(plan.noisy):  # values holds the only reference
                values[j] = masks.pop()
        planes = {}
        for (var, hi, lo), (drop_values, drop_planes) in zip(plan.nodes, plan.drops):
            if var not in planes:
                planes[var] = _moved(words, self._moves[var])
            h, l = values[hi], values[lo]
            values.append(l ^ (planes[var] & (h ^ l)))
            del h, l  # so a value dropped below is freed now
            for r in drop_values:
                values[r] = None
            for v in drop_planes:
                del planes[v]
        out = np.empty(words.shape, dtype="<u8")
        out[...] = values[plan.root]
        out[..., -1] &= self._tail
        return out

    def run(self, rows: np.ndarray, start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (t + 1, rows) after the step-t update, for t in [start, stop).

        A second row is dropped from the step at which it equals the first.
        """
        for t in range(start, stop):
            rows = self.step(rows, t)
            if len(rows) > 1 and np.array_equal(rows[0], rows[1]):
                rows = rows[:1]
            yield t + 1, rows


# --------------------------------------------------------------------------
# stepping


def evolve(
    state: LatticeState,
    rule: RuleSpec,
    noise: Optional[NoiseModel],
    seed: int,
    t0: int,
    steps: int,
    threads: int = 1,
) -> LatticeState:
    """Run steps t0 .. t0+steps-1 on seed's stream; noise None steps the rule deterministically."""
    kern = rule.table if noise is None else kernel_plus(noise, rule)
    core = _PackedCore(rule, state.dims, kern, seed, threads)
    words = state.words[None, :]
    for _, words in core.run(words, t0, t0 + steps):
        pass
    return LatticeState(dims=state.dims, words=words[0])


# --------------------------------------------------------------------------
# erosion


@dataclass(frozen=True)
class ErosionResult:
    """Outcome of iterating the deterministic rule on a finite island of -1."""

    erased: bool
    steps: int
    sizes: tuple[int, ...]  # minus-site count after each step

    def __repr__(self) -> str:
        tag = "ERASED" if self.erased else "PERSISTS"
        return f"{tag}({self.steps})"


def influence_radius(rule: RuleSpec) -> int:
    """One-step influence radius in the Manhattan norm."""
    return max(sum(abs(c) for c in u) for u in rule.neighborhood)


def _manhattan_diameter(sites: Sequence[Site]) -> int:
    """Largest Manhattan distance between two of the (nonempty) sites.

    |x - y|_1 is the largest s.(x - y) over sign vectors s in {-1, 1}^d, so
    the diameter is the widest spread of the sites' projections on them.
    """
    pts = np.array(sites, dtype=np.int64)
    signs = np.array(list(itertools.product((1, -1), repeat=pts.shape[1])), dtype=np.int64)
    proj = pts @ signs.T
    return int((proj.max(axis=0) - proj.min(axis=0)).max())


def erosion_torus(rule: RuleSpec, island: Iterable, dims: Optional[Sequence[int]] = None,
                  cutoff: Optional[int] = None) -> tuple[tuple[int, ...], int]:
    """The torus and step cutoff of an erosion run from a nonempty island.

    Every side must exceed 2 * cutoff * v + diam, the width the island's
    light cone reaches by the cutoff, else the cone wraps around and feeds
    back on itself, and the finite run does not witness the infinite-lattice
    behavior.  With dims omitted, the smallest such torus is built.
    """
    sites = _as_sites(island, rule.dimension)
    diam = _manhattan_diameter(sites)
    if cutoff is None:
        cutoff = 64 * (diam + 1)
    if cutoff < 1:
        raise ConfigError("cutoff must be at least 1")
    v = influence_radius(rule)
    need = 2 * cutoff * v + diam
    if dims is None:
        dims = tuple(max(need + 1, 3) for _ in range(rule.dimension))
    dims = tuple(int(L) for L in dims)
    if min(dims) <= need:
        raise ConfigError(
            f"dims {dims} too small: the {cutoff}-step light cone needs >= {need + 1}"
        )
    return dims, cutoff


def erosion_time(
    rule: RuleSpec,
    island: Iterable,
    dims: Optional[Sequence[int]] = None,
    cutoff: Optional[int] = None,
    on_step: Optional[Callable[[int, LatticeState], None]] = None,
) -> ErosionResult:
    """Steps until an all-plus-except-island state returns to all-plus.

    The torus and cutoff are `erosion_torus`'s.  on_step, if given, sees
    (0, initial state), for an empty island only on given dims, then (t,
    state) after each step, packed, so a caller unpacks only what it keeps.
    """
    sites = _as_sites(island, rule.dimension)
    if not sites:
        if on_step is not None and dims is not None:
            on_step(0, LatticeState.plus_with_island(dims, sites))
        return ErosionResult(erased=True, steps=0, sizes=())
    dims, cutoff = erosion_torus(rule, sites, dims, cutoff)
    core = _PackedCore(rule, dims, rule.table)
    state = LatticeState.plus_with_island(dims, sites)
    if on_step is not None:
        on_step(0, state)
    sizes = []
    for n, words in core.run(state.words[None, :], 0, cutoff):
        if on_step is not None:
            on_step(n, LatticeState(dims=dims, words=words[0]))
        remaining = core.n_sites - int(_plus_counts(words)[0])
        sizes.append(remaining)
        if remaining == 0:
            return ErosionResult(erased=True, steps=n, sizes=tuple(sizes))
    return ErosionResult(erased=False, steps=cutoff, sizes=tuple(sizes))
