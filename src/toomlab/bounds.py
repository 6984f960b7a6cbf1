"""Closed-form constants and counting bounds of the low-noise regime.

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
graph classes; ``series_check`` reproduces that series numerically.  All
real arithmetic is double precision; the graph-class counting bound uses
exact integers because it overflows 64 bits almost immediately.
"""

from __future__ import annotations

import math
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


class GraphCountBound(NamedTuple):
    binom_bound: int
    loose_bound: int


@dataclass(frozen=True)
class GraphClassParams:
    """Size parameters of a class of disconnected trace graphs."""

    gamma_minus_size: int
    c: int
    m: int

    def __post_init__(self) -> None:
        if min(self.gamma_minus_size, self.c, self.m) < 0:
            raise ValueError("graph class parameters must be nonnegative")


def graph_count_bound(g: GraphClassParams, q: int, R: int) -> GraphCountBound:
    """Upper bounds on the number of graphs with c parts and m edges.

    Exact integers: binom(n, c) * B^(2m) and the looser 2^n * B^(2m) with
    n the number of negative path points.  c > n gives the empty class (0).
    """
    B = edge_type_count(q, R)
    n = g.gamma_minus_size
    if g.c > n:
        return GraphCountBound(0, 0)
    power = B ** (2 * g.m)
    return GraphCountBound(math.comb(n, g.c) * power, (1 << n) * power)


def edge_error_inequality(edges: int, parts: int, q: int, r: Real) -> int:
    """Least error count consistent with  edges/(1+2q/r) + parts <= errors.

    Evaluated in exact rational arithmetic so the ceiling is unambiguous at
    integer boundaries.
    """
    if edges < 0 or parts < 0:
        raise ValueError("edges and parts must be nonnegative")
    denom = 1 + 2 * Fraction(q) / Fraction(r)
    return math.ceil(Fraction(edges) / denom + parts)


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


class SeriesCheck(NamedTuple):
    partial: float
    closed: float
    gap: float


def series_check(p: BoundParams, truncation: int, gamma_minus: int = 1) -> SeriesCheck:
    """Truncated double series over (parts c, extra edges k) vs its closed form.

    Term(c, k) = 2^g * B^(2(g - c + k)) * eps_tilde^((g + 2q/r * c + k)/(1 + 2q/r))
    for g = gamma_minus.  The partial sum runs over 0 <= c, k < truncation and
    is always bounded by the closed form

        (2 B^2 t)^g / ((1 - B^2 t)(1 - B^-2 t^(2q/r))),   t = eps_tilde^(1/(1+2q/r)),

    with a gap that vanishes as the truncation grows.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if gamma_minus < 0:
        raise ValueError("gamma_minus must be nonnegative")
    if not p.admissible:
        raise ValueError("series diverges: admissibility flag is false")
    expo = _exponent(p.q, p.r)
    B2 = float(p.B) ** 2
    beta = p.eps_tilde**expo
    # the double sum factorizes exactly into two geometric partial sums
    x = (beta ** (1.0 / expo - 1.0)) / B2  # ratio in c
    y = B2 * beta  # ratio in k
    lead = (2.0 * B2 * beta) ** gamma_minus
    partial = lead * _geometric_partial(x, truncation) * _geometric_partial(y, truncation)
    closed = lead / ((1.0 - y) * (1.0 - x))
    return SeriesCheck(partial, closed, closed - partial)


def _geometric_partial(ratio: float, n: int) -> float:
    total = 0.0
    term = 1.0
    for _ in range(n):
        total += term
        term *= ratio
    return total


class DecayConstants(NamedTuple):
    C_prime: float
    eta: float | None
    v: int


def decay_constants(C: float, sigma_value: float, neighborhood: Sequence[Sequence[int]]) -> DecayConstants:
    """Spatial-decay constants from the temporal ones.

    v is the one-step influence radius max_u |u|_1; correlations at distance
    d decay like eta^d with eta = sigma^(1/(2v)) and prefactor C' = 2C/sigma.
    A neighborhood reduced to the origin has no spatial propagation: v = 0
    and eta is undefined (returned as None).
    """
    if not 0.0 < sigma_value < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma_value}")
    v = max(sum(abs(int(c)) for c in u) for u in neighborhood)
    C_prime = 2.0 * C / sigma_value
    eta = sigma_value ** (1.0 / (2.0 * v)) if v > 0 else None
    return DecayConstants(C_prime, eta, v)


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
        "v": max(sum(abs(int(c)) for c in u) for u in neighborhood),
    }
    if p.admissible:
        C, C_inv = constants_C(p)
        report["C"] = C
        report["C_inv"] = C_inv
        if 0.0 < s < 1.0:
            dc = decay_constants(C, s, neighborhood)
            report["C_prime"] = dc.C_prime
            report["eta"] = dc.eta
    return report
