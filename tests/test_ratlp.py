"""The integer simplex against its own guarantees and the Fraction reference."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toomlab import certify, rules
from toomlab.ratlp import solve_feasibility

from .oracles import fraction_feasibility, random_rule


@st.composite
def systems(draw):
    """Small integer systems; small entries and repeated rows force ties."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entry, min_size=m, max_size=m))
    # a multiple of an existing row ties with it in every ratio test
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(A) - 1))
        k = draw(st.sampled_from((-2, 1, 2)))
        A.append([k * x for x in A[i]])
        b.append(k * b[i])
    return A, b


def assert_certificate(A, b, feasible, sol):
    m, n = len(A), len(A[0])
    if feasible:
        assert len(sol) == n and all(v >= 0 for v in sol)
        assert all(sum(A[i][j] * sol[j] for j in range(n)) == b[i] for i in range(m))
    else:
        assert len(sol) == m
        assert all(sum(sol[i] * A[i][j] for i in range(m)) <= 0 for j in range(n))
        assert sum(y * bi for y, bi in zip(sol, b)) > 0
    assert all(isinstance(x, Fraction) for x in sol)


# two rows tie in the first ratio test (both 0/1), settled by Bland's rule
@example(([[1, 1], [1, -1]], [0, 0]))
# infeasible: v1 + v2 = 1 and v1 + v2 = 2
@example(([[1, 1], [1, 1]], [1, 2]))
@given(systems())
@settings(max_examples=300, deadline=None)
def test_answers_are_exact_certificates(system):
    A, b = system
    feasible, sol = solve_feasibility(A, b)
    assert_certificate(A, b, feasible, sol)


@example(([[1, 1], [1, -1]], [0, 0]))
@given(systems())
@settings(max_examples=300, deadline=None)
def test_matches_the_fraction_reference(system):
    A, b = system
    assert solve_feasibility(A, b) == fraction_feasibility(A, b)


def test_matches_the_reference_on_hull_systems():
    # every subfamily LP that check_eroder may solve, for a few random rules
    solved = 0
    for seed in range(12):
        family = rules.minimal_plus_sets(random_rule(random.Random(seed)))
        k = len(family.sets)
        for size in range(1, min(k, family.dimension + 1) + 1):
            for subset in itertools.combinations(range(k), size):
                A, b = certify._hull_system(family, subset)
                assert all(type(x) is int for row in A for x in row)
                assert solve_feasibility(A, b) == fraction_feasibility(A, b)
                solved += 1
    assert solved > 50


def test_integral_fractions_are_accepted():
    A = [[1, 2, 0], [0, 1, 3]]
    b = [3, 4]
    as_fractions = [[Fraction(x) for x in row] for row in A], [Fraction(x) for x in b]
    assert solve_feasibility(*as_fractions) == solve_feasibility(A, b)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 1.0, "1"])
def test_non_integral_input_raises(bad):
    with pytest.raises(ValueError, match="integer entries"):
        solve_feasibility([[1, bad]], [1])
    with pytest.raises(ValueError, match="integer entries"):
        solve_feasibility([[1, 1]], [bad])
