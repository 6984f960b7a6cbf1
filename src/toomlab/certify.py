"""Erosion verdicts with independently checkable exact-rational certificates.

A monotone rule erodes finite islands iff the convex hulls of its minimal
plus sets have empty intersection.  We decide this by exact LP feasibility:
one convex-weight vector per plus set, constrained to produce a common point.

* Feasible  -> NON_ERODER: the common point and the convex weights are the
  certificate.
* Infeasible -> ERODER: the Farkas dual converts into a family of linear
  functionals f_1..f_q and thresholds c_1..c_q with  sum f_i = 0,
  sum c_i > 0  and  f_i >= c_i on the i-th selected plus set.  Any point in
  all hulls would give 0 = sum f_i(x) >= sum c_i > 0, a contradiction, so
  the family proves emptiness.  By Helly's theorem it needs at most d+1
  sets; :func:`check_eroder` gives the order subfamilies are tried in, which
  skip the LP, and when the full system is solved.

Functionals are normalized so the largest absolute coefficient is 1, which
pins down the derived constants (q, r = sum c_i) uniquely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificateFormatError
from .ratlp import solve_feasibility
from .rules import PlusSetFamily

ERODER = "ERODER"
NON_ERODER = "NON_ERODER"

ZERO = Fraction(0)


@dataclass(frozen=True)
class ErosionCertificate:
    """Verdict plus the exact data needed to re-check it without an LP solve."""

    verdict: str
    dimension: int
    # ERODER fields
    selected: Optional[tuple[int, ...]] = None
    functionals: Optional[tuple[tuple[Fraction, ...], ...]] = None
    thresholds: Optional[tuple[Fraction, ...]] = None
    q: Optional[int] = None
    r: Optional[Fraction] = None
    # NON_ERODER fields
    witness: Optional[tuple[Fraction, ...]] = None
    weights: Optional[tuple[tuple[Fraction, ...], ...]] = None


def _hull_system(
    family: PlusSetFamily, subset: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """Integer equality system for a common point of the selected hulls.

    Variables: one convex weight per plus-set element, then the common point
    split into positive/negative parts.  Rows: one convexity row per set,
    then one row per (set, coordinate) tying the weighted sum to the point.
    """
    d = family.dimension
    sets = [family.sets[i] for i in subset]
    sizes = [len(z) for z in sets]
    nlam = sum(sizes)
    ncols = nlam + 2 * d
    starts = [sum(sizes[:i]) for i in range(len(sets))]
    rows: list[list[int]] = []
    b: list[int] = []
    for i in range(len(sets)):
        row = [0] * ncols
        for j in range(sizes[i]):
            row[starts[i] + j] = 1
        rows.append(row)
        b.append(1)
    for i, z in enumerate(sets):
        for k in range(d):
            row = [0] * ncols
            for j, idx in enumerate(z):
                row[starts[i] + j] = family.offsets[idx][k]
            row[nlam + 2 * k] = -1
            row[nlam + 2 * k + 1] = 1
            rows.append(row)
            b.append(0)
    return rows, b


def _farkas_to_functionals(
    family: PlusSetFamily, subset: Sequence[int], y: Sequence[Fraction]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Split the Farkas dual into per-set functionals and thresholds."""
    d = family.dimension
    nsets = len(subset)
    thresholds = tuple(y[i] for i in range(nsets))
    functionals = tuple(
        tuple(-y[nsets + i * d + k] for k in range(d)) for i in range(nsets)
    )
    return functionals, thresholds


def _normalize(
    functionals: tuple[tuple[Fraction, ...], ...], thresholds: tuple[Fraction, ...]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    scale = max(abs(c) for f in functionals for c in f)
    if scale == 0:
        raise ArithmeticError("separation functionals cannot all vanish")
    return (
        tuple(tuple(c / scale for c in f) for f in functionals),
        tuple(c / scale for c in thresholds),
    )


def check_eroder(family: PlusSetFamily) -> ErosionCertificate:
    """Decide emptiness of the intersection of the family's convex hulls.

    If the hulls do not meet, some d+1 of them do not (Helly), so subfamilies
    of 2 to d+1 sets go to the LP smallest first, then lexicographically; the
    first infeasible one gives the ERODER certificate.  A proper subfamily
    whose sets share an offset meets there and skips the LP.  The full system
    is solved last, as the size-k subfamily (k <= d+1) or for the NON_ERODER
    point and weights.
    """
    d = family.dimension
    if not family.sets:
        raise ValueError("plus-set family is empty")

    k = len(family.sets)
    for size in range(2, min(d + 1, k) + 1):
        for subset in itertools.combinations(range(k), size):
            first, *rest = (family.sets[i] for i in subset)
            if size < k and set(first).intersection(*rest):
                continue  # a shared offset is a common point
            feasible, sol = solve_feasibility(*_hull_system(family, subset))
            if not feasible:
                functionals, thresholds = _normalize(*_farkas_to_functionals(family, subset, sol))
                return ErosionCertificate(
                    verdict=ERODER, dimension=d, selected=subset, functionals=functionals,
                    thresholds=thresholds, q=size, r=sum(thresholds, ZERO),
                )
    if not 2 <= k <= d + 1:  # else the size-k subfamily above was the full system
        feasible, sol = solve_feasibility(*_hull_system(family, tuple(range(k))))
        if not feasible:
            raise AssertionError("infeasible family with no small infeasible subfamily")
    ends = list(itertools.accumulate(len(z) for z in family.sets))
    weights = tuple(tuple(sol[end - len(z):end]) for z, end in zip(family.sets, ends))
    terms = [(w, family.offsets[idx]) for w, idx in zip(weights[0], family.sets[0])]
    witness = tuple(sum((w * Fraction(z[kk]) for w, z in terms), ZERO) for kk in range(d))
    return ErosionCertificate(verdict=NON_ERODER, dimension=d, witness=witness, weights=weights)


def _check_shape(family: PlusSetFamily, cert: ErosionCertificate) -> None:
    d = family.dimension
    if cert.dimension != d:
        raise CertificateFormatError("certificate dimension does not match family")
    if cert.verdict == ERODER:
        if cert.selected is None or cert.functionals is None or cert.thresholds is None:
            raise CertificateFormatError("ERODER certificate missing fields")
        if len(cert.functionals) != len(cert.selected) or len(cert.thresholds) != len(
            cert.selected
        ):
            raise CertificateFormatError("functionals/thresholds/selected disagree")
        if cert.q is None or cert.r is None:
            raise CertificateFormatError("ERODER certificate missing (q, r)")
        for i in cert.selected:
            if not 0 <= i < len(family.sets):
                raise CertificateFormatError(f"selected set index {i} out of range")
        for f in cert.functionals:
            if len(f) != d:
                raise CertificateFormatError("functional has wrong arity")
    elif cert.verdict == NON_ERODER:
        if cert.witness is None or cert.weights is None:
            raise CertificateFormatError("NON_ERODER certificate missing fields")
        if len(cert.witness) != d:
            raise CertificateFormatError("witness has wrong arity")
        if len(cert.weights) != len(family.sets):
            raise CertificateFormatError("one weight vector per plus set required")
        for w, z in zip(cert.weights, family.sets):
            if len(w) != len(z):
                raise CertificateFormatError("weight vector length mismatch")
    else:
        raise CertificateFormatError(f"unknown verdict {cert.verdict!r}")


def verify_certificate(family: PlusSetFamily, cert: ErosionCertificate) -> bool:
    """Re-check every certificate invariant in exact arithmetic; no LP solve.

    Malformed certificates raise :class:`CertificateFormatError`; a
    well-formed but wrong certificate returns ``False``.
    """
    _check_shape(family, cert)
    d = family.dimension
    if cert.verdict == ERODER:
        for k in range(d):
            if sum((f[k] for f in cert.functionals), ZERO) != 0:
                return False
        total = sum(cert.thresholds, ZERO)
        if total <= 0:
            return False
        for f, c, i in zip(cert.functionals, cert.thresholds, cert.selected):
            for idx in family.sets[i]:
                z = family.offsets[idx]
                if sum((fk * zk for fk, zk in zip(f, z)), ZERO) < c:
                    return False
        if cert.q != len(cert.functionals) or cert.r != total:
            return False
        return True
    for w, z in zip(cert.weights, family.sets):
        if any(wj < 0 for wj in w):
            return False
        if sum(w, ZERO) != 1:
            return False
        for k in range(d):
            point = sum(
                (wj * Fraction(family.offsets[idx][k]) for wj, idx in zip(w, z)), ZERO
            )
            if point != cert.witness[k]:
                return False
    return True


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    try:
        num, den = str(s).split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateFormatError(f"bad rational {s!r}: {exc}") from exc


def certificate_to_json(cert: ErosionCertificate) -> dict:
    """Stable-field-order JSON dict; rationals as "num/den" strings."""
    if cert.verdict == ERODER:
        return {
            "verdict": cert.verdict,
            "dimension": cert.dimension,
            "selected": list(cert.selected),
            "functionals": [[_frac_str(c) for c in f] for f in cert.functionals],
            "thresholds": [_frac_str(c) for c in cert.thresholds],
            "q": cert.q,
            "r": _frac_str(cert.r),
        }
    return {
        "verdict": cert.verdict,
        "dimension": cert.dimension,
        "witness": [_frac_str(c) for c in cert.witness],
        "weights": [[_frac_str(w) for w in ws] for ws in cert.weights],
    }


def certificate_from_json(data: dict) -> ErosionCertificate:
    if not isinstance(data, dict) or "verdict" not in data:
        raise CertificateFormatError("certificate JSON must be an object with a verdict")
    verdict = data["verdict"]
    try:
        dimension = int(data["dimension"])
        if verdict == ERODER:
            return ErosionCertificate(
                verdict=ERODER,
                dimension=dimension,
                selected=tuple(int(i) for i in data["selected"]),
                functionals=tuple(
                    tuple(_parse_frac(c) for c in f) for f in data["functionals"]
                ),
                thresholds=tuple(_parse_frac(c) for c in data["thresholds"]),
                q=int(data["q"]),
                r=_parse_frac(data["r"]),
            )
        if verdict == NON_ERODER:
            return ErosionCertificate(
                verdict=NON_ERODER,
                dimension=dimension,
                witness=tuple(_parse_frac(c) for c in data["witness"]),
                weights=tuple(
                    tuple(_parse_frac(w) for w in ws) for ws in data["weights"]
                ),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate JSON: {exc}") from exc
    raise CertificateFormatError(f"unknown verdict {verdict!r}")
