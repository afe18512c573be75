"""Completeness of S0 on a grid, checked in plain integers.

On small fixed-seed span problems, every integer point x of a box attains
the minimum Delta exactly when it lies in the column span of the solver's
S0.  The objective and the span membership are recomputed here on lists of
ints (None for the max-plus zero), without tropspan.linalg.  Both sides are
invariant under x -> x + c, so the box fixes x_1 = 0.
"""

import itertools
import random

from conftest import random_span_problem
from tropspan import ZERO, complete_solution

RADIUS = 8


def plain(entries):
    return [None if e is ZERO else e for e in entries]


def objective(A, p, q, x):
    """q^- x (A x)^- p at a finite x: max_j(x_j - q_j) + max_i(p_i - (Ax)_i)."""
    ax = [max(a + xj for a, xj in zip(row, x) if a is not None) for row in A]
    return (max(xj - qj for xj, qj in zip(x, q))
            + max(pi - ai for pi, ai in zip(p, ax) if pi is not None))


def in_span(S, x):
    """Whether the greatest coefficients c with S c <= x give S c = x."""
    coeffs = [min(xi - s for xi, s in zip(x, col) if s is not None)
              for col in zip(*S)]
    return all(
        max((s + c for s, c in zip(row, coeffs) if s is not None),
            default=None) == xi
        for row, xi in zip(S, x))


def test_minimizers_are_exactly_the_span_of_s0():
    rng = random.Random(7)
    minimizers = others = 0
    for _ in range(300):
        prob = random_span_problem(rng, max_dim=3)
        A = [plain(row) for row in prob.A.entries]
        p, q = plain(prob.p.entries), plain(prob.q.entries)
        S = [plain(row)
             for row in complete_solution(prob).generators.generators.entries]
        delta = prob.delta
        for tail in itertools.product(range(-RADIUS, RADIUS + 1),
                                      repeat=len(q) - 1):
            x = (0,) + tail
            optimal = objective(A, p, q, x) == delta
            assert optimal == in_span(S, x), (A, p, q, S, x)
            minimizers += optimal
            others += not optimal
    assert minimizers > 1000 and others > 1000, (minimizers, others)
