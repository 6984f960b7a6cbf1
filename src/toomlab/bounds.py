"""Closed-form constants of the low-noise regime.

Everything here is a pure function of a handful of scalars:

* R  — neighborhood size,
* (q, r) — constants read off an erosion certificate,
* alpha — pure-phase decoupling constant of the noise kernel,
* eps, eps_prime — noise level and initial-condition level; the formulas
  depend on them through  eps_tilde = max(eps, eps_prime).

The recurring building block is the per-vertex edge-type count
B = 2^q (R^2 + 2R) and the exponent  1/(1 + 2 q / r).  The contraction
factor per time step is

    sigma = R * (alpha + 4 B^2 eps_tilde^(1/(1+2q/r))),

which is < 1 exactly when alpha < alpha_star = 1/R and eps_tilde is below
the closed-form inverse  epsilon_star(alpha)  of sigma = 1.  The prefactors
C, C_inv are the closed forms of a convergent double geometric series over
graph classes.  All arithmetic is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

Real = Union[int, float, Fraction]


def edge_type_count(q: int, R: int) -> int:
    """Number of distinct edge types at a vertex: B = 2^q (R^2 + 2R)."""
    if q < 0 or R < 1:
        raise ValueError("need q >= 0 and R >= 1")
    return (1 << q) * (R * R + 2 * R)


def _exponent(q: int, r: Real) -> float:
    """The exponent 1/(1 + 2q/r) applied to eps_tilde."""
    return 1.0 / (1.0 + 2.0 * q / float(r))


@dataclass(frozen=True)
class BoundParams:
    """Scalar inputs of the bound formulas, with the admissibility flag baked in."""

    R: int
    q: int
    r: float
    alpha: float = 0.0
    eps: float = 0.0
    eps_prime: float = 0.0
    K: float = 1.0
    eps_tilde: float = field(init=False)
    B: int = field(init=False)
    admissible: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.R < 1 or self.q < 1 or not float(self.r) > 0:
            raise ValueError("need R >= 1, q >= 1, r > 0")
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")
        for name in ("eps", "eps_prime"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not self.K >= 0:
            raise ValueError("K must be nonnegative")
        tilde = max(self.eps, self.eps_prime)
        B = edge_type_count(self.q, self.R)
        object.__setattr__(self, "eps_tilde", tilde)
        object.__setattr__(self, "B", B)
        object.__setattr__(
            self, "admissible", B * B * tilde ** _exponent(self.q, self.r) < 1.0
        )


def alpha_star(R: int) -> float:
    """Largest admissible decoupling constant, 1/R."""
    if R < 1:
        raise ValueError("R must be >= 1")
    return 1.0 / R


def sigma(p: BoundParams) -> float:
    """Per-step contraction factor R*(alpha + 4 B^2 eps_tilde^(1/(1+2q/r)))."""
    B2 = float(p.B) ** 2
    return p.R * (p.alpha + 4.0 * B2 * p.eps_tilde ** _exponent(p.q, p.r))


def epsilon_star(R: int, q: int, r: Real, alpha: float = 0.0) -> float:
    """The unique eps_tilde where sigma reaches 1, by closed-form inversion.

    Strictly decreasing and positive on 0 <= alpha < 1/R; raises outside.
    """
    if not 0.0 <= alpha < alpha_star(R):
        raise ValueError(f"alpha must lie in [0, 1/R) = [0, {1.0 / R}), got {alpha}")
    B2 = float(edge_type_count(q, R)) ** 2
    base = (1.0 / R - alpha) / (4.0 * B2)
    return base ** (1.0 + 2.0 * q / float(r))


class Prefactors(NamedTuple):
    C: float
    C_inv: float


def _series_denominators(B: int, eps: float, expo: float) -> tuple[float, float]:
    B2 = float(B) ** 2
    beta = eps**expo
    return 1.0 - B2 * beta, 1.0 - (beta ** (1.0 / expo - 1.0)) / B2


def constants_C(p: BoundParams) -> Prefactors:
    """Convergence prefactors C (initial-condition part) and C_inv.

    C = 2K / ((1 - B^2 t)(1 - B^-2 t^(2q/r)))  with t = eps_tilde^(1/(1+2q/r));
    C_inv is the same expression with K -> 1 and eps_tilde -> eps.  Requires
    the admissibility flag (otherwise the underlying series diverges).
    """
    if not p.admissible:
        raise ValueError(
            "parameters are not admissible: B^2 * eps_tilde^(1/(1+2q/r)) >= 1"
        )
    expo = _exponent(p.q, p.r)
    d1, d2 = _series_denominators(p.B, p.eps_tilde, expo)
    C = 2.0 * p.K / (d1 * d2)
    e1, e2 = _series_denominators(p.B, p.eps, expo)
    C_inv = 2.0 / (e1 * e2)
    return Prefactors(C, C_inv)


class DecayConstants(NamedTuple):
    C_prime: float
    eta: float | None


def decay_constants(C: float, sigma_value: float, v: int) -> DecayConstants:
    """Spatial-decay constants from the temporal ones.

    v is the one-step influence radius max_u |u|_1; correlations at distance
    d decay like eta^d with eta = sigma^(1/(2v)) and prefactor C' = 2C/sigma.
    A neighborhood reduced to the origin has no spatial propagation: v = 0
    and eta is undefined (returned as None).
    """
    if not 0.0 < sigma_value < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma_value}")
    C_prime = 2.0 * C / sigma_value
    eta = sigma_value ** (1.0 / (2.0 * v)) if v > 0 else None
    return DecayConstants(C_prime, eta)


def bounds_report(
    q: int,
    r: Real,
    neighborhood: Sequence[Sequence[int]],
    eps: float,
    alpha: float = 0.0,
    eps_prime: float = 0.0,
    K: float = 1.0,
) -> dict:
    """All derived constants for one parameter point, as a JSON-ready dict.

    Fields that require admissibility (C, C_inv, C', eta) come out None when
    the noise is too large for the bounds to apply.
    """
    R = len(neighborhood)
    v = max(sum(abs(int(c)) for c in u) for u in neighborhood)
    p = BoundParams(R=R, q=q, r=float(r), alpha=alpha, eps=eps, eps_prime=eps_prime, K=K)
    a_star = alpha_star(R)
    e_star = epsilon_star(R, q, r, alpha) if alpha < a_star else None
    s = sigma(p)
    report = {
        "R": R,
        "q": q,
        "r": float(r),
        "alpha": alpha,
        "eps": eps,
        "eps_prime": eps_prime,
        "K": K,
        "B": p.B,
        "admissible": p.admissible,
        "alpha_star": a_star,
        "epsilon_star": e_star,
        "sigma": s,
        "C": None,
        "C_inv": None,
        "C_prime": None,
        "eta": None,
        "v": v,
    }
    if p.admissible:
        C, C_inv = constants_C(p)
        report["C"] = C
        report["C_inv"] = C_inv
        if 0.0 < s < 1.0:
            dc = decay_constants(C, s, v)
            report["C_prime"] = dc.C_prime
            report["eta"] = dc.eta
    return report
