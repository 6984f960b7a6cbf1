import math
import random

import numpy as np
import pytest

from toomlab import bounds
from toomlab.bounds import (
    BoundParams,
    alpha_star,
    constants_C,
    decay_constants,
    edge_type_count,
    epsilon_star,
    sigma,
)


def params(R=2, q=1, r=1.0, alpha=0.0, eps=0.0, eps_prime=0.0, K=1.0):
    return BoundParams(R=R, q=q, r=r, alpha=alpha, eps=eps, eps_prime=eps_prime, K=K)


def summed_series(p: BoundParams, gamma_minus: int, n_terms: int = 400) -> float:
    """Independent oracle: term-by-term summation of the double series.

    Each term is assembled in log space; the factored powers of B^2 overflow
    doubles long before the terms themselves stop being tiny.
    """
    assert p.eps_tilde > 0.0
    expo = 1.0 / (1.0 + 2.0 * p.q / p.r)
    log_B2 = 2.0 * math.log(edge_type_count(p.q, p.R))
    log_eps = math.log(p.eps_tilde)
    c = np.arange(n_terms, dtype=np.float64)[:, None]
    k = np.arange(n_terms, dtype=np.float64)[None, :]
    log_term = (
        gamma_minus * math.log(2.0)
        + (gamma_minus - c + k) * log_B2
        + (gamma_minus + 2.0 * p.q / p.r * c + k) * expo * log_eps
    )
    return float(np.exp(log_term[log_term > -700.0]).sum())


def admissible_params(rng: random.Random) -> BoundParams:
    R = rng.randint(1, 4)
    q = rng.randint(1, 3)
    r = rng.choice([0.5, 1.0, 2.0, 3.0])
    B = edge_type_count(q, R)
    margin = rng.uniform(0.05, 0.8)
    eps = (margin / (B * B)) ** (1.0 + 2.0 * q / r)
    return params(R=R, q=q, r=r, eps=eps, K=rng.uniform(0.5, 4.0))


class TestAlphaStar:
    def test_values(self):
        assert alpha_star(2) == 0.5
        assert alpha_star(3) == 1.0 / 3.0
        assert alpha_star(1) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            alpha_star(0)


class TestSigma:
    def test_zero_noise_collapses_to_R_alpha(self):
        assert sigma(params(R=2, q=1, r=1.0, alpha=0.1)) == pytest.approx(0.2, abs=1e-15)
        assert sigma(params(R=3, q=1, r=1.0)) == 0.0

    def test_unit_at_epsilon_star(self):
        e = epsilon_star(2, 1, 1.0, 0.0)
        assert abs(sigma(params(R=2, q=1, r=1.0, eps=e)) - 1.0) < 1e-12

    def test_monotone_in_each_argument(self):
        base = params(R=2, q=1, r=1.0, alpha=0.01, eps=1e-12, eps_prime=1e-13)
        s0 = sigma(base)
        for bump in (
            params(R=2, q=1, r=1.0, alpha=0.02, eps=1e-12, eps_prime=1e-13),
            params(R=2, q=1, r=1.0, alpha=0.01, eps=2e-12, eps_prime=1e-13),
            params(R=2, q=1, r=1.0, alpha=0.01, eps=1e-12, eps_prime=5e-12),
        ):
            assert sigma(bump) >= s0

    def test_below_one_under_epsilon_star(self):
        e = epsilon_star(2, 1, 1.0, 0.1)
        assert sigma(params(R=2, q=1, r=1.0, alpha=0.1, eps=0.5 * e)) < 1.0


class TestEpsilonStar:
    def test_closed_form_value(self):
        # (0.5 / 1024)^3 with B = 16
        expected = (0.5 / 1024.0) ** 3
        assert epsilon_star(2, 1, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1642e-10, rel=1e-4)

    def test_vanishes_at_alpha_star(self):
        vals = [epsilon_star(2, 1, 1.0, a) for a in np.linspace(0.0, 0.499999, 30)]
        assert all(v > 0 for v in vals)
        assert epsilon_star(2, 1, 1.0, 0.5 - 1e-12) < 1e-40

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 0.4, 25)
        vals = [epsilon_star(2, 1, 1.0, a) for a in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            epsilon_star(2, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            epsilon_star(2, 1, 1.0, -0.01)


class TestConstantsC:
    def test_zero_noise(self):
        assert constants_C(params(K=1.0)) == (2.0, 2.0)
        assert constants_C(params(K=3.0)).C == 6.0

    def test_inadmissible_raises(self):
        p = params(R=2, q=1, r=1.0, eps=1e-6)  # B^2 eps^(1/3) = 2.56 > 1
        assert not p.admissible
        with pytest.raises(ValueError):
            constants_C(p)

    def test_matches_summed_series(self):
        rng = random.Random(7)
        for _ in range(20):
            p = admissible_params(rng)
            C, C_inv = constants_C(p)
            oracle = 2.0 * p.K * summed_series(p, gamma_minus=0)
            assert C == pytest.approx(oracle, rel=1e-9)
            oracle_inv = 2.0 * summed_series(
                params(R=p.R, q=p.q, r=p.r, eps=p.eps), gamma_minus=0
            )
            assert C_inv == pytest.approx(oracle_inv, rel=1e-9)

    def test_lower_bounds_and_divergence(self):
        rng = random.Random(11)
        for _ in range(10):
            p = admissible_params(rng)
            C, C_inv = constants_C(p)
            assert C >= 2.0 * p.K and C_inv >= 2.0
        B = edge_type_count(1, 2)
        margins = [0.5, 0.9, 0.99, 0.999]
        cs = [
            constants_C(params(eps=(m / (B * B)) ** 3)).C
            for m in margins
        ]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_determinism(self):
        p = admissible_params(random.Random(3))
        assert constants_C(p) == constants_C(
            params(R=p.R, q=p.q, r=p.r, eps=p.eps, K=p.K)
        )


class TestDecayConstants:
    def test_nec_influence_radius(self):
        rep = bounds.bounds_report(q=2, r=1.0, neighborhood=((0, 0), (1, 0), (0, 1)), eps=1e-30)
        assert rep["v"] == 1

    def test_eta_and_prefactor(self):
        got = decay_constants(1.0, 0.25, 1)
        assert got.eta == pytest.approx(0.5, abs=1e-15)
        assert got.C_prime == pytest.approx(8.0, abs=1e-15)

    def test_origin_only_neighborhood(self):
        got = decay_constants(1.0, 0.5, 0)
        assert got.eta is None

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            decay_constants(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            decay_constants(1.0, 0.0, 1)


class TestBoundsReport:
    def test_report_fields(self):
        rep = bounds.bounds_report(
            q=2, r=1.0, neighborhood=((0,), (1,)), eps=1e-30, alpha=0.0
        )
        for key in ("q", "r", "alpha_star", "epsilon_star", "sigma", "C", "C_inv",
                    "C_prime", "eta", "v"):
            assert key in rep
        assert rep["admissible"] and rep["C"] is not None
        assert 0 < rep["eta"] < 1

    def test_report_inadmissible(self):
        rep = bounds.bounds_report(
            q=1, r=1.0, neighborhood=((0,), (1,)), eps=0.5
        )
        assert not rep["admissible"] and rep["C"] is None and rep["eta"] is None


class TestBoundParams:
    def test_eps_tilde(self):
        p = params(eps=1e-12, eps_prime=3e-12)
        assert p.eps_tilde == 3e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            params(eps=1.5)
        with pytest.raises(ValueError):
            params(R=0)
        with pytest.raises(ValueError):
            BoundParams(R=2, q=1, r=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "K"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            params(**{field: float("nan")})
