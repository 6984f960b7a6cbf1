"""End-to-end acceptance suite.

One test per criterion, each asserting the stated tolerances and staying
inside the stated runtime budget; a PASS line with the elapsed time is
printed per criterion (visible with `pytest -s` or in captured output).
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from toomlab import bounds, certify, engine, oracle, stats
from toomlab.certify import ERODER, NON_ERODER
from toomlab.engine import LatticeState, biased_noise, symmetric_noise
from toomlab.rules import RuleSpec, load_rule, minimal_plus_sets

from .oracles import (
    enumerate_1d_rules_exhaustive,
    interval_eroder_verdict,
    random_monotone_table,
    random_offsets_1d,
)
from .test_bounds import summed_series


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"[{self.label}] FAIL ({elapsed:.2f}s): {exc}")
            return False
        assert elapsed < self.seconds, (
            f"{self.label} exceeded its {self.seconds:.0f}s budget: {elapsed:.1f}s"
        )
        print(f"[{self.label}] PASS ({elapsed:.2f}s)")
        return False


def test_c01_erosion_verdicts():
    with _Budget("criterion 1: erosion verdicts + certificates", 1.0):
        expected = {
            "stavskaya": ERODER,
            "nec": ERODER,
            "majority1d": NON_ERODER,
            "identity": NON_ERODER,
        }
        for name, verdict in expected.items():
            family = minimal_plus_sets(load_rule(name))
            cert = certify.check_eroder(family)
            assert cert.verdict == verdict, name
            assert certify.verify_certificate(family, cert), name
            if verdict == NON_ERODER and name == "majority1d":
                assert cert.witness == (Fraction(0),)


def test_c02_interval_oracle_agreement():
    with _Budget("criterion 2: 1-d LP vs interval oracle", 120.0):
        checked = 0
        for R in (1, 2, 3, 4):
            for offsets in ((tuple(range(R))), tuple(range(-(R // 2), R - R // 2))):
                for rule in enumerate_1d_rules_exhaustive(R, offsets):
                    family = minimal_plus_sets(rule)
                    cert = certify.check_eroder(family)
                    want = interval_eroder_verdict(
                        [o[0] for o in family.offsets], list(family.sets)
                    )
                    assert (cert.verdict == ERODER) == want
                    checked += 1
        rng = random.Random(20240601)
        for R in (5, 6):
            for _ in range(200):
                offsets = random_offsets_1d(R, rng)
                rule = RuleSpec(
                    dimension=1,
                    neighborhood=tuple((o,) for o in offsets),
                    table=random_monotone_table(R, rng),
                )
                family = minimal_plus_sets(rule)
                cert = certify.check_eroder(family)
                want = interval_eroder_verdict(
                    [o[0] for o in family.offsets], list(family.sets)
                )
                assert (cert.verdict == ERODER) == want
                checked += 1
        assert checked >= 400 + 349  # exhaustive count plus 400 sampled


def test_c03_bound_formulas():
    with _Budget("criterion 3: bound formulas", 10.0):
        assert bounds.alpha_star(2) == 0.5
        assert bounds.alpha_star(3) == 1.0 / 3.0

        grid = list(
            itertools.product(
                (1, 2, 3, 4, 5), (1, 2), (0.5, 1.0), (0.0, 0.25, 0.5, 0.75, 0.9)
            )
        )
        assert len(grid) == 100
        for R, q, r, frac in grid:
            alpha = frac / R
            e_star = bounds.epsilon_star(R, q, r, alpha)
            p = bounds.BoundParams(R=R, q=q, r=r, alpha=alpha, eps=e_star)
            assert abs(bounds.sigma(p) - 1.0) < 1e-12, (R, q, r, frac)

        rng = random.Random(99)
        for _ in range(20):
            R = rng.randint(1, 4)
            q = rng.randint(1, 3)
            r = rng.choice([0.5, 1.0, 2.0])
            B = bounds.edge_type_count(q, R)
            margin = rng.uniform(0.05, 0.8)
            eps = (margin / (B * B)) ** (1.0 + 2.0 * q / r)
            K = rng.uniform(0.5, 4.0)
            p = bounds.BoundParams(R=R, q=q, r=r, eps=eps, K=K)
            C, C_inv = bounds.constants_C(p)
            assert C == pytest.approx(2.0 * K * summed_series(p, 0), rel=1e-9)
            assert C_inv == pytest.approx(2.0 * summed_series(p, 0), rel=1e-9)


def test_c04_oracle_equivalence():
    with _Budget("criterion 4: Monte Carlo vs exact oracle", 300.0):
        rule = load_rule("stavskaya")
        noise = symmetric_noise(0.1)
        dims = (8,)
        replicas = 120_000
        burn_in = 200

        pi = oracle.stationary_distribution(rule, noise, dims, tol=1e-12)
        states = np.arange(1 << 8, dtype=np.uint64)
        spins = [
            ((states >> np.uint64(j)) & 1).astype(np.float64) * 2.0 - 1.0
            for j in range(8)
        ]
        mean = float((pi.probs * spins[0]).sum())
        exact_density = 0.5 * (1.0 - mean)
        exact_cov2 = float((pi.probs * spins[0] * spins[2]).sum()) - mean * mean
        kernel = oracle.ExactKernel(rule, noise, dims)
        vec = pi.probs * spins[0]
        for _ in range(2):
            vec = kernel.apply(vec)
        exact_lag2 = float((vec * spins[0]).sum()) - mean * mean

        sample = stats.stationary_sample(rule, noise, dims, burn_in, replicas, seed=101)
        dens = 1.0 - sample.bits().reshape(replicas, -1).mean(axis=1)
        se = dens.std(ddof=1) / np.sqrt(replicas)
        assert abs(float(dens.mean()) - exact_density) < 3.0 * se

        sample = stats.stationary_sample(rule, noise, dims, burn_in, replicas, seed=102)
        summary, _ = stats.spatial_correlation(sample, [2])
        _, est, se2, _ = summary.table[0]
        assert abs(est - exact_cov2) < 4.0 * se2

        sample = stats.stationary_sample(rule, noise, dims, burn_in, replicas, seed=103)
        summary, _ = stats.temporal_autocorrelation(sample, [2])
        _, est, se3, _ = summary.table[0]
        assert abs(est - exact_lag2) < 4.0 * se3


def test_c05_light_cone_consistency():
    with _Budget("criterion 5: window-marginal consistency", 120.0):
        d1 = oracle.window_marginal_consistency(
            load_rule("stavskaya"), symmetric_noise(0.1), [(0,)], 2, (8,), (12,)
        )
        assert d1 < 1e-12
        d2 = oracle.window_marginal_consistency(
            load_rule("nec"), symmetric_noise(0.1), [(0, 0)], 1, (3, 3), (4, 4)
        )
        assert d2 < 1e-12


def test_c06_erosion_time_table():
    with _Budget("criterion 6: erosion-time table", 10.0):
        rule = load_rule("stavskaya")
        for k in range(1, 33):
            res = engine.erosion_time(rule, [[i] for i in range(k)])
            assert res.erased and res.steps == k, k
        res = engine.erosion_time(load_rule("nec"), [(0, 0)])
        assert res.erased and res.steps == 1
        res = engine.erosion_time(load_rule("majority1d"), [0, 1], cutoff=1000)
        assert not res.erased and res.steps == 1000


def test_c07_noise_assumption_checker():
    with _Budget("criterion 7: noise-assumption checker", 1.0):
        for eps in (0.0, 0.05, 0.1):
            for name in ("stavskaya", "nec", "majority1d", "identity"):
                got = engine.check_assumptions(symmetric_noise(eps), load_rule(name))
                assert got == (eps, 0.0), (name, eps)
            got = engine.check_assumptions(biased_noise(eps, 0.0), load_rule("stavskaya"))
            assert got == (eps, 0.0), eps


def test_c08_threaded_determinism():
    with _Budget("criterion 8: thread/invocation determinism", 60.0):
        rule = load_rule("nec")
        noise = symmetric_noise(0.1)
        dims = (256, 256)
        start = LatticeState.all_plus(dims)
        runs = [
            engine.evolve(start, rule, noise, 2024, 0, 100, threads=w)
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]
        again = engine.evolve(start, rule, noise, 2024, 0, 100, threads=1)
        assert again == runs[0]


def test_c09_convergence_rate():
    with _Budget("criterion 9: exact TV convergence rate", 60.0):
        rule = load_rule("stavskaya")
        noise = symmetric_noise(0.05)
        dims = (10,)
        pi = oracle.stationary_distribution(rule, noise, dims, tol=1e-12)
        curve = oracle.tv_curve(oracle.ExactKernel(rule, noise, dims), pi, n_max=200, floor=1e-11)
        ns = np.arange(len(curve))
        mask = ns > 5
        fit = stats.fit_log_decay(ns[mask], np.asarray(curve)[mask])
        assert fit.valid
        assert 0.0 < fit.rate < 1.0
        assert fit.r_squared > 0.99


def test_c10_two_phase_stability():
    with _Budget("criterion 10: phase divergence classification", 600.0):
        rule = load_rule("nec")
        dims = (256, 256)
        for seed in (11, 22, 33):
            low = stats.two_phase_divergence(
                rule, symmetric_noise(0.01), dims, steps=10_000, seed=seed
            )
            assert low.classification == stats.SEPARATED, seed
            high = stats.two_phase_divergence(
                rule, symmetric_noise(0.5), dims, steps=10, seed=seed
            )
            assert high.classification == stats.MERGED, seed
            assert np.all(high.mag_plus[1:] == high.mag_minus[1:])
