"""Exact feasibility solver for small equality-form linear programs.

Solves "find v >= 0 with A v = b" for integer A and b by a phase-one simplex
with Bland's pivoting rule (guaranteed termination, no tolerance anywhere).
On infeasibility it returns the Farkas dual vector y with  y^T A <= 0
componentwise and  y^T b > 0,  which is the raw material for separation
certificates.  Problem sizes here are tiny (tens of rows), so a dense
tableau is perfectly adequate.

The tableau is fraction-free (Edmonds' integer-preserving elimination, the
simplex form of Bareiss' method).  It holds Python ints T and one common
denominator D; the rational tableau is T / D.  D starts at 1 and after each
pivot becomes the pivot entry p = T[r][e], and row i != r updates as

    T[i] <- (p * T[i] - T[i][e] * T[r]) // D.

The division is exact: with B the current basis of the (sign-normalized)
system [A | I | b], D = det(B) and T = adj(B) [A | I | b], whose entries are
minors of an integer matrix.  The pivot row itself is already adj(B') times
the system for the new basis B', so it stays as it is.  The phase-one cost
row is held as D times the rational reduced costs and updates by the same
rule.  The simplex only pivots on positive rational entries, so D stays
positive: the entering test (a negative reduced cost) reads the sign of an
int, and the ratio test compares T[i][-1] / T[i][e] by cross-multiplying.
Every int stands for the rational the Fraction tableau would hold, so the
pivot sequence, Bland tie-break included, and the returned vectors are
those of a Fraction simplex; Fractions are built only for the result.

Input entries must be integers: an int, or a Fraction with denominator 1.
Anything else raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _integer(x: object) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"solve_feasibility takes integer entries, not {x!r}")


def solve_feasibility(
    A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[bool, list[Fraction]]:
    """Decide {v >= 0 : A v = b} for integer A and b.

    Returns ``(True, v)`` with an exact feasible point, or ``(False, y)``
    with an exact Farkas certificate of infeasibility.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    ncols = n + m
    # sign-normalize so the artificial basis is feasible (b >= 0), then
    # append the artificial identity columns and the right-hand side
    rhs = [_integer(bi) for bi in b]
    signs = [1 if bi >= 0 else -1 for bi in rhs]
    tab: list[list[int]] = []
    for i in range(m):
        s = signs[i]
        row = [s * _integer(x) for x in A[i]]
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(s * rhs[i])
        tab.append(row)
    basis = list(range(n, n + m))

    # D times the reduced costs for min sum(artificials), with D = 1 here
    rc = [-sum(row[j] for row in tab) for j in range(n)]
    rc.extend([0] * m)
    rc.append(-sum(row[ncols] for row in tab))  # negative objective value
    D = 1

    while True:
        enter = -1
        for j in range(ncols):
            if rc[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # Bland's ratio test on T[i][-1] / T[i][enter], cross-multiplied
        leave = -1
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                here = tab[i][ncols] * tab[leave][enter]
                best = tab[leave][ncols] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-one objective cannot be unbounded")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _eliminate(tab[i], prow, p, D, enter)
        rc = _eliminate(rc, prow, p, D, enter)
        D = p
        basis[leave] = enter

    if rc[ncols] == 0:
        v = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                v[bi] = Fraction(tab[i][ncols], D)
        return True, v
    # Farkas dual from the artificial columns' reduced costs, undoing row signs
    return False, [Fraction(signs[i] * (D - rc[n + i]), D) for i in range(m)]


def _eliminate(row: list[int], prow: list[int], p: int, D: int, enter: int) -> list[int]:
    """One fraction-free row update: (p * row - row[enter] * prow) // D."""
    f = row[enter]
    if f == 0:  # the row only moves to the new denominator
        if p == D:
            return row
        return [p * x // D for x in row]
    if D == 1:
        return [p * x - f * y for x, y in zip(row, prow)]
    return [(p * x - f * y) // D for x, y in zip(row, prow)]
