"""Reference computations in plain integers and fractions.

Nothing here imports tropspan: the benchmark checks the package's outputs
against these functions, so they share no code with it.  The max-plus zero
(-inf) is None; every finite scalar is an int or a Fraction.

Run `python3 benchmark/oracle.py` to reproduce the worked examples of the
README (the self-test also runs at the start of every benchmark run).
"""

from __future__ import annotations

import bisect
import itertools
import json
from fractions import Fraction

ZERO_TOKEN = "-inf"


# -- documents ----------------------------------------------------------------

def scalar(value):
    """A document scalar: an int, a "p/q" string, or "-inf" (None)."""
    if value == ZERO_TOKEN:
        return None
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        frac = Fraction(value)
        return frac.numerator if frac.denominator == 1 else frac
    raise ValueError(f"{value!r} is not a scalar")


def scalars(value):
    """scalar() applied through nested lists."""
    if isinstance(value, list):
        return [scalars(v) for v in value]
    return scalar(value)


def load(text: str) -> dict:
    """Matrices and vectors of a problem or solution document, by field name."""
    data = json.loads(text)
    return {k: scalars(v) for k, v in data.items()
            if k in ("A", "B", "C", "f", "p", "q", "generators", "delta")}


def to_json(value):
    """Inverse of scalars()."""
    if isinstance(value, list):
        return [to_json(v) for v in value]
    if value is None:
        return ZERO_TOKEN
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


# -- max-plus arithmetic ------------------------------------------------------

def dot(row, x):
    """max_j (row_j + x_j) over the finite pairs; None when there is none."""
    best = None
    for a, b in zip(row, x):
        if a is not None and b is not None and (best is None or a + b > best):
            best = a + b
    return best


def matvec(A, x):
    return [dot(row, x) for row in A]


def matmul(A, B):
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def leq(a, b) -> bool:
    return a is None or (b is not None and a <= b)


# -- span problems ------------------------------------------------------------

def span_delta(A, p, q):
    """Minimum of q^- x (A x)^- p: max over finite p_i of p_i - max_j(a_ij + q_j)."""
    return max(pi - dot(row, q) for row, pi in zip(A, p) if pi is not None)


def attains(A, p, q, delta, x) -> bool:
    """Optimality system A x >= (q^- x) Delta^-1 p, for a nonzero x."""
    alpha = max(xj - qj for xj, qj in zip(x, q) if xj is not None)
    return all(pi is None or leq(alpha - delta + pi, ax)
               for pi, ax in zip(p, matvec(A, x)))


def in_span(columns, x) -> bool:
    """Whether x is a max-plus combination of the columns (residuation test)."""
    coeffs = []
    for col in columns:
        v = None
        for ci, xi in zip(col, x):
            if ci is None:
                continue
            if xi is None:
                v = None
                break
            if v is None or xi - ci < v:
                v = xi - ci
        coeffs.append(v)
    image = [None] * len(x)
    for col, v in zip(columns, coeffs):
        if v is None:
            continue
        for i, ci in enumerate(col):
            if ci is not None and (image[i] is None or v + ci > image[i]):
                image[i] = v + ci
    return image == list(x)


def independent(columns) -> bool:
    """No column lies in the span of the others."""
    return not any(
        in_span(columns[:j] + columns[j + 1:], col)
        for j, col in enumerate(columns) if len(columns) > 1)


def sample_minimizer(A, p, q, delta, rng, width: int = 6):
    """A random regular x attaining Delta.

    Starts from x = q minus random offsets, then raises, row by row, one
    entry that can cover a violated row without raising alpha = q^- x.
    Such an entry exists because Delta >= p_i - (A q)_i for every row.
    """
    x = [qj - rng.randint(0, width) for qj in q]
    alpha = max(xj - qj for xj, qj in zip(x, q))
    for row, pi in zip(A, p):
        if pi is None or leq(alpha - delta + pi, dot(row, x)):
            continue
        cover = [j for j, a in enumerate(row)
                 if a is not None and a + q[j] >= pi - delta]
        j = rng.choice(cover)
        x[j] = alpha - delta + pi - row[j]
    return x


def sparsified(A, p, q, delta):
    """Entries below the threshold Delta^-1 p_i q_j^-1 replaced by None."""
    return [[a if a is not None and (pi is None or pi - delta - q[j] <= a)
             else None for j, a in enumerate(row)]
            for row, pi in zip(A, p)]


def selection_walk(sparse, p, max_copy_work=None):
    """Row selections emitted by the dominance-pruned walk, top row first.

    The paper's rule: after row i keeps entry j, a later row k keeps only
    column j whenever a_kj >= a_ij - p_i + p_k; rows with p_i = zero are
    pinned to their first entry and neither prune nor are pruned.  Written
    here independently so that corpus make-up never depends on the package,
    and without copying rows: row k's first dominating row is found by a
    binary search over each column's prefix minima of a_ij - p_i.

    Returns the emitted selections and the walk's copy work, the number of
    entries moved by a walk that copies rows i..m-1 each time it tries a
    candidate at row i; such a walk's cost follows it.  Returns None when
    the copy work exceeds max_copy_work.
    """
    m, n = len(sparse), len(sparse[0])
    weight = [[None if a is None or pi is None else a - pi for a in row]
              for row, pi in zip(sparse, p)]
    # per column: rows that kept it, and the negated prefix minima of weight
    kept_rows = [[] for _ in range(n)]
    neg_min = [[] for _ in range(n)]
    choice = [0] * m
    emitted = []
    copy_work = 0
    # entries: (row, candidates left, column to release before the next one)
    stack = [(0, None, None)]
    while stack:
        i, todo, release = stack.pop()
        if release is not None:
            kept_rows[release].pop()
            neg_min[release].pop()
        if i == m:
            emitted.append(tuple(choice))
            continue
        if todo is None:
            todo = _candidates(sparse[i], weight[i], p[i], kept_rows, neg_min)
        if not todo:
            continue
        j = todo.pop()
        copy_work += (m - i) * n
        if max_copy_work is not None and copy_work > max_copy_work:
            return None
        choice[i] = j
        if p[i] is None:
            stack.append((i, todo, None))
        else:
            w = weight[i][j]
            prev = neg_min[j][-1] if neg_min[j] else None
            kept_rows[j].append(i)
            neg_min[j].append(-w if prev is None else max(prev, -w))
            stack.append((i, todo, j))
        stack.append((i + 1, None, None))
    return emitted, copy_work


def _candidates(row, weight, pi, kept_rows, neg_min):
    """Columns row i may keep, in reverse order (the walk pops from the end)."""
    finite = [j for j, a in enumerate(row) if a is not None]
    if pi is None:
        return finite[:1]
    first, column = None, None
    for j in finite:
        t = bisect.bisect_left(neg_min[j], -weight[j])
        if t < len(neg_min[j]) and (first is None or kept_rows[j][t] < first):
            first, column = kept_rows[j][t], j
    if column is not None:
        return [column]
    finite.reverse()
    return finite


def selection_rays(sparse, p, q, delta, selections):
    """Pooled generator columns of the selections and their distinct rays."""
    n = len(q)
    pooled = 0
    rays = set()
    for sel in selections:
        g = [None] * n
        for i, j in enumerate(sel):
            if p[i] is None:
                continue
            v = p[i] - sparse[i][j] - delta
            if g[j] is None or v > g[j]:
                g[j] = v
        for col in range(n):
            entries = [join(0 if i == col else None,
                            None if g[i] is None else g[i] - q[col])
                       for i in range(n)]
            first = next(e for e in entries if e is not None)
            rays.add(tuple(None if e is None else e - first for e in entries))
            pooled += 1
    return pooled, len(rays)


# -- schedules ----------------------------------------------------------------

def closure(G):
    """Longest-path closure I (+) G (+) G^2 (+) ... by Floyd-Warshall.

    Valid when no cycle of G has positive total lag.
    """
    n = len(G)
    M = [[G[i][j] if i != j else (0 if G[i][i] is None else max(0, G[i][i]))
          for j in range(n)] for i in range(n)]
    for k in range(n):
        row_k = M[k]
        for i in range(n):
            mik = M[i][k]
            if mik is None:
                continue
            row_i = M[i]
            for j in range(n):
                mkj = row_k[j]
                if mkj is not None and (row_i[j] is None or mik + mkj > row_i[j]):
                    row_i[j] = mik + mkj
    return M


def schedule_delta(A, B, C):
    """Minimum finish-time spread, from D = A (B (+) C A)*.

    With q_j = -max_i d_ij, the spread is -min_i max_j (d_ij + q_j).
    """
    n = len(A)
    CA = matmul(C, A)
    G = [[join(B[i][j], CA[i][j]) for j in range(n)] for i in range(n)]
    D = matmul(A, closure(G))
    q = [-max(v for v in col if v is not None) for col in zip(*D)]
    return -min(dot(row, q) for row in D)


def join(a, b):
    """Max-plus sum of two scalars."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def schedule_violations(A, B, C, f, x, y) -> list[str]:
    """Every failed constraint of a schedule, checked from the raw data."""
    out = []
    for i in range(len(A)):
        if dot(A[i], x) != y[i]:
            out.append(f"start-finish row {i}")
        if not leq(dot(B[i], x), x[i]):
            out.append(f"start-start row {i}")
        if not leq(dot(C[i], y), x[i]):
            out.append(f"finish-start row {i}")
        if not leq(y[i], f[i]):
            out.append(f"late-finish row {i}")
    return out


def spread(y):
    return max(y) - min(y)


# -- self-test ----------------------------------------------------------------

DEMO_SPAN = {"A": [[2, 0], [4, 1]], "p": [5, 2], "q": [1, 2]}
DEMO_SCHEDULE = {
    "A": [[3, -1, None], [-2, 2, 0], [-1, None, 4]],
    "B": [[None, None, -3], [2, None, 0], [1, -2, None]],
    "C": [[None, None, None], [0, None, -3], [-1, None, None]],
    "f": [7, 7, 7],
}


def self_test() -> None:
    """Reproduce the README's worked examples; raise AssertionError if not."""
    A, p, q = DEMO_SPAN["A"], DEMO_SPAN["p"], DEMO_SPAN["q"]
    delta = span_delta(A, p, q)
    if delta != 2:
        raise AssertionError(f"2x2 demo: Delta {delta}, expected 2")
    grid = range(-8, 9)
    values = [max(xj - qj for xj, qj in zip(x, q))
              + max(pi - ax for pi, ax in zip(p, matvec(A, x)))
              for x in itertools.product(grid, repeat=2)]
    if min(values) != delta:
        raise AssertionError("2x2 demo: grid minimum differs from Delta")
    if not all(attains(A, p, q, delta, list(x)) == (v == delta)
               for x, v in zip(itertools.product(grid, repeat=2), values)):
        raise AssertionError("2x2 demo: optimality system disagrees with grid")

    A, B, C, f = (DEMO_SCHEDULE[k] for k in "ABCf")
    delta = schedule_delta(A, B, C)
    if delta != 3:
        raise AssertionError(f"schedule demo: Delta {delta}, expected 3")
    # The feasible schedules of least spread are closed under entry-wise max,
    # so the latest one is the entry-wise max of those on an integer grid.
    best, latest = None, None
    for x in itertools.product(range(-10, 11), repeat=3):
        y = matvec(A, x)
        if schedule_violations(A, B, C, f, x, y):
            continue
        s = spread(y)
        if best is None or s < best:
            best, latest = s, list(x)
        elif s == best:
            latest = [max(a, b) for a, b in zip(latest, x)]
    if best != 3 or latest != [1, 5, 3] or matvec(A, latest) != [4, 7, 7]:
        raise AssertionError(f"schedule demo: spread {best}, latest {latest}")


if __name__ == "__main__":
    self_test()
    print("oracle self-test: PASS (2x2 Delta = 2; schedule Delta = 3, "
          "latest (1, 5, 3) / (4, 7, 7))")
