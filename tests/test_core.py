"""The packed stepping core against the site-by-site gather reference.

The reference is the gather-table step the core replaced: each site's local
configuration index from ``TorusStepper.local_index``, looked up in the
kernel and compared with the uniform from ``step_uniforms`` (both in
``tests/oracles.py``).  Every case must agree bit for bit, for any rule
table (monotone, non-monotone, constant), lattice shape, replica batch,
noise kind and worker count.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox

from toomlab import engine
from toomlab.engine import LatticeState, kernel_plus
from toomlab.rules import RuleSpec, load_rule

from .oracles import TorusStepper, evolve_batch, random_rule, step_uniforms

# sides >= 5 cover every offset of random_rule ([-2, 2]^d); no site count
# below is a multiple of 64, so the padding bits of the last word are live
DIMS = {1: [(5,), (37,), (131,)], 2: [(5, 7), (9, 13)], 3: [(5, 5, 6), (6, 5, 7)]}


def reference_step(rule, dims, kern, bits, seed, t):
    """One noisy step of a site array (N,) or replica batch (M, N)."""
    idx = TorusStepper(rule, dims).local_index(bits)
    u = step_uniforms(seed, t, 0, bits.size).reshape(bits.shape)
    return (u < kern[idx]).astype(np.uint8)


def draw_rule(rng):
    rule = random_rule(rng, max_R=6)
    kind = rng.choice(("monotone", "non-monotone", "zero", "one"))
    if kind == "monotone":
        return rule
    n = rule.table.size
    table = {
        "non-monotone": [rng.randint(0, 1) for _ in range(n)],
        "zero": [0] * n,
        "one": [1] * n,
    }[kind]
    return RuleSpec(dimension=rule.dimension, neighborhood=rule.neighborhood, table=table)


def draw_noise(rng, rule):
    kind = rng.choice(("eps0", "eps1", "symmetric", "biased", "table"))
    if kind == "eps0":
        return engine.symmetric_noise(0.0)
    if kind == "eps1":
        return engine.symmetric_noise(1.0)
    if kind == "symmetric":
        return engine.symmetric_noise(rng.random())
    if kind == "biased":
        return engine.biased_noise(rng.random(), rng.random())
    # a few repeated values and exact 0/1 entries, as tables often have
    values = [0.0, 1.0] + [rng.random() for _ in range(3)]
    return engine.table_noise([rng.choice(values) for _ in range(rule.table.size)])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_noisy_step_matches_gather_reference(rng, seed):
    rule = draw_rule(rng)
    dims = rng.choice(DIMS[rule.dimension])
    noise = draw_noise(rng, rule)
    kern = kernel_plus(noise, rule)
    n = int(np.prod(dims))
    bits = np.random.default_rng(seed).integers(0, 2, size=n).astype(np.uint8)
    t = rng.randint(0, 1000)
    want = reference_step(rule, dims, kern, bits, seed, t)
    state = LatticeState.from_bits(dims, bits)
    for threads in (1, 3):
        got = engine.evolve(state, rule, noise, seed, t, 1, threads=threads)
        # equal words, so the padding past the last site is zero as well
        assert got == LatticeState.from_bits(dims, want), threads


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_deterministic_steps_match_gather_reference(rng, seed):
    rule = draw_rule(rng)
    dims = rng.choice(DIMS[rule.dimension])
    n = int(np.prod(dims))
    bits = np.random.default_rng(seed).integers(0, 2, size=n).astype(np.uint8)
    stepper = TorusStepper(rule, dims)
    state = LatticeState.from_bits(dims, bits)
    for _ in range(4):
        state = engine.evolve(state, rule, None, 0, 0, 1)
        bits = stepper.table[stepper.local_index(bits)]
        assert np.array_equal(state.bits(), bits)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_replica_batch_matches_gather_reference(rng, seed):
    rule = draw_rule(rng)
    dims = rng.choice(DIMS[rule.dimension])
    noise = draw_noise(rng, rule)
    kern = kernel_plus(noise, rule)
    m = rng.choice((1, 3, 9))
    bits = np.random.default_rng(seed).integers(0, 2, size=(m, int(np.prod(dims))))
    bits = bits.astype(np.uint8)
    t = rng.randint(0, 1000)
    want = reference_step(rule, dims, kern, bits, seed, t)
    got = evolve_batch(bits, rule, noise, dims, seed, t, 1, threads=rng.choice((1, 2)))
    assert np.array_equal(got, want)


# 2**-60 and 0.1 put p * 2**53 between integers, where only ceil is right
@pytest.mark.parametrize("p", [0.0, 2.0**-60, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0])
def test_integer_threshold_equals_float_comparison(p):
    # raw draws at and around every boundary the threshold could misplace
    edges = [0, 1, 2047, 2048, 2049, 2**63 - 1, 2**63, 2**64 - 2049, 2**64 - 2048, 2**64 - 1]
    if 0.0 < p < 1.0:
        t53 = math.ceil(p * 2.0**53)
        edges += [(t53 << 11) + d for d in (-2049, -2048, -1, 0, 1, 2047)]
    raw = np.array([r for r in edges if 0 <= r < 2**64], dtype=np.uint64)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    want = u < p
    if p == 0.0 or p == 1.0:
        # the core uses constant words here and draws nothing
        assert not want.any() if p == 0.0 else want.all()
    else:
        assert np.array_equal(raw < engine._threshold(p), want)
    # and on a real stream, through the generator the reference uses
    stream = Philox(key=9, counter=[0, 0, 4, 0]).random_raw(4096)
    uniforms = Generator(Philox(key=9, counter=[0, 0, 4, 0])).random(4096)
    if 0.0 < p < 1.0:
        assert np.array_equal(stream < engine._threshold(p), uniforms < p)


def test_threshold_extremes_through_a_step():
    rule = load_rule("nec")
    p = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 0.5, 0.0, 1.0]
    noise = engine.table_noise(p)
    dims = (13, 11)
    bits = np.random.default_rng(2).integers(0, 2, size=143).astype(np.uint8)
    want = reference_step(rule, dims, np.array(p), bits, 3, 8)
    got = engine.evolve(LatticeState.from_bits(dims, bits), rule, noise, 3, 8, 1)
    assert np.array_equal(got.bits(), want)


def test_empty_batch_stays_empty():
    got = evolve_batch(
        np.zeros((0, 8), dtype=np.uint8), load_rule("stavskaya"),
        engine.symmetric_noise(0.1), (8,), 1, 0, 3,
    )
    assert got.shape == (0, 8)
