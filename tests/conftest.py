"""Shared builders: demo problems with known closed-form answers plus seeded
random instance generators used by the property suites."""

from __future__ import annotations

import random

from tropspan import (
    MAX_PLUS,
    ZERO,
    InfeasiblePrecedence,
    ScheduleInstance,
    SpanProblem,
    TropMatrix,
    TropVector,
)

Z = ZERO


def mat(rows, sf=MAX_PLUS) -> TropMatrix:
    return TropMatrix(sf, rows)


def vec(entries, sf=MAX_PLUS) -> TropVector:
    return TropVector(sf, entries)


# -- worked demo instances (answers known in closed form) ---------------------

def demo_span_problem() -> SpanProblem:
    """2x2 problem with minimum 2 and a two-column complete span."""
    return SpanProblem(mat([[2, 0], [4, 1]]), vec([5, 2]), vec([1, 2]))


def demo_schedule_instance() -> ScheduleInstance:
    """Three activities; minimum spread 3, latest schedule (1,5,3)/(4,7,7)."""
    return ScheduleInstance(
        mat([[3, -1, Z], [-2, 2, 0], [-1, Z, 4]]),
        mat([[Z, Z, -3], [2, Z, 0], [1, -2, Z]]),
        mat([[Z, Z, Z], [0, Z, -3], [-1, Z, Z]]),
        vec([7, 7, 7]),
    )


# -- random generators --------------------------------------------------------

def random_span_problem(rng: random.Random, max_dim: int = 4,
                        lo: int = -5, hi: int = 5) -> SpanProblem:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    rows = []
    for _ in range(m):
        row = [rng.randint(lo, hi) if rng.random() > 0.35 else Z
               for _ in range(n)]
        if all(e is Z for e in row):
            row[rng.randrange(n)] = rng.randint(lo, hi)
        rows.append(row)
    p = [rng.randint(lo, hi) if rng.random() > 0.25 else Z for _ in range(m)]
    if all(e is Z for e in p):
        p[rng.randrange(m)] = rng.randint(lo, hi)
    q = [rng.randint(lo, hi) for _ in range(n)]
    return SpanProblem(mat(rows), vec(p), vec(q))


def dense_probe_data(seed: int = 12, n: int = 12):
    """A, p and q of the dense n x n max-plus probe, as lists of ints drawn
    from Random(seed) in that order, A row by row, each in [-5, 5]."""
    rng = random.Random(seed)
    A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    p = [rng.randint(-5, 5) for _ in range(n)]
    q = [rng.randint(-5, 5) for _ in range(n)]
    return A, p, q


def random_regular_vector(rng: random.Random, n: int,
                          lo: int = -8, hi: int = 8) -> TropVector:
    return vec([rng.randint(lo, hi) for _ in range(n)])


def random_schedule_instance(rng: random.Random, n: int,
                             lo: int = -3, hi: int = 3,
                             f_lo: int = 0, f_hi: int = 10) -> ScheduleInstance:
    """Sample until the precedence constraints are acyclic-feasible."""
    while True:
        a_rows = [[rng.randint(lo, hi) if rng.random() > 0.3 else Z
                   for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if all(e is Z for e in a_rows[i]):
                a_rows[i][rng.randrange(n)] = rng.randint(lo, hi)
        for j in range(n):
            if all(row[j] is Z for row in a_rows):
                a_rows[rng.randrange(n)][j] = rng.randint(lo, hi)
        b_rows = [[rng.randint(lo, hi) if rng.random() > 0.6 else Z
                   for _ in range(n)] for _ in range(n)]
        c_rows = [[rng.randint(lo, hi) if rng.random() > 0.6 else Z
                   for _ in range(n)] for _ in range(n)]
        f = [rng.randint(f_lo, f_hi) for _ in range(n)]
        try:
            return ScheduleInstance(mat(a_rows), mat(b_rows), mat(c_rows),
                                    vec(f))
        except InfeasiblePrecedence:
            continue
