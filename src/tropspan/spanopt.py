"""Minimization of q^- x (A x)^- p over regular vectors x.

The pipeline, for a row-regular A, nonzero p and regular q:

  1. The minimum value is Delta = (A q)^- p, attained at every x = alpha*q.
  2. Entries of A below the threshold Delta^-1 p_i q_j^-1 never decide the
     objective; zeroing them (sparsify) changes nothing.
  3. Fixing one nonzero entry per row of the sparsified matrix gives a
     selection A1; each selection contributes the solution cone
     alpha*Delta^-1 A1^- p <= x <= alpha*q, i.e. the span of
     S1 = I (+) Delta^-1 A1^- p q^-.
  4. The union over all selections is the full solution set; a backtracking
     enumeration with a dominance rule skips selections whose cones are
     contained in ones already produced.  Choosing column j in row i forces
     later rows to column j, so the walk's state is one forced column per row.
  5. Concatenating all S1 columns and dropping dependent ones yields a single
     generator matrix S0 whose span is exactly the solution set.  A column
     is dependent unless it is extremal, which the criterion of Butkovic,
     Schneider & Sergeev (LAA 421, 2007) decides by scalar comparisons with
     the other columns; S0 keeps the first column of each extremal ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

from .errors import (
    EnumerationBudgetExceeded,
    NotRegularMatrix,
    NotRegularVector,
    ShapeMismatch,
    ZeroVector,
)
from .linalg import TropMatrix, TropVector, ray_key, reduce_to_independent
from .semifield import ZERO, Scalar
from .solvers import GeneratorSet, IntervalSet, interval_to_generators

DEFAULT_ENUMERATION_BUDGET = 10 ** 6


class SpanProblem:
    """Problem data (A, p, q) plus lazily cached Delta and sparsified matrix."""

    def __init__(self, A: TropMatrix, p: TropVector, q: TropVector):
        if A.semifield is not p.semifield or A.semifield is not q.semifield:
            raise ShapeMismatch("A, p, q must share one semifield")
        if p.dim != A.rows:
            raise ShapeMismatch(f"p has dim {p.dim}, A has {A.rows} rows")
        if q.dim != A.cols:
            raise ShapeMismatch(f"q has dim {q.dim}, A has {A.cols} columns")
        if not A.is_row_regular():
            raise NotRegularMatrix("A must be row-regular (no zero rows)")
        if p.is_zero():
            raise ZeroVector("p must be nonzero")
        if not q.is_regular():
            raise NotRegularVector("q must be regular")
        self.A, self.p, self.q = A, p, q
        self.semifield = A.semifield

    @cached_property
    def delta(self) -> Scalar:
        """Minimum value (A q)^- p; always nonzero."""
        return (self.A @ self.q).conj() @ self.p

    @cached_property
    def sparsified(self) -> TropMatrix:
        sf = self.semifield
        inv_delta = sf.inv(self.delta)
        inv_q = [sf.inv(v) for v in self.q]
        rows = []
        for i, row in enumerate(self.A.entries):
            pi = self.p[i]
            scale = ZERO if pi is ZERO else sf.mul(inv_delta, pi)
            rows.append([a if sf.le(sf.mul(scale, inv_q[j]), a) else ZERO
                         for j, a in enumerate(row)])
        sparse = TropMatrix(sf, rows)
        assert sparse.is_row_regular()
        return sparse


def minimum_value(prob: SpanProblem) -> Scalar:
    return prob.delta


def sparsify(prob: SpanProblem) -> TropMatrix:
    """Threshold matrix of the problem; solution-preserving by construction."""
    return prob.sparsified


def objective(prob: SpanProblem, x: TropVector) -> Scalar:
    """Evaluate q^- x (A x)^- p at a regular x."""
    if x.dim != prob.A.cols:
        raise ShapeMismatch(f"x has dim {x.dim}, expected {prob.A.cols}")
    if not x.is_regular():
        raise NotRegularVector("the objective is defined for regular x")
    sf = prob.semifield
    return sf.mul(prob.q.conj() @ x, (prob.A @ x).conj() @ prob.p)


def attains_minimum(prob: SpanProblem, x: TropVector) -> bool:
    """System test for optimality, total on nonzero x.

    With alpha = q^- x, the vector attains the minimum iff
    A x >= alpha Delta^-1 p entry-wise.  Boundary generators with zero
    components satisfy the same system even though the objective itself is
    restricted to regular vectors.
    """
    if x.dim != prob.A.cols:
        raise ShapeMismatch(f"x has dim {x.dim}, expected {prob.A.cols}")
    if x.is_zero():
        raise ZeroVector("optimality of the zero vector is undefined")
    sf = prob.semifield
    alpha = prob.q.conj() @ x
    floor = prob.p.scale(sf.mul(alpha, sf.inv(prob.delta)))
    return floor.le(prob.A @ x)


def verify_optimal(prob: SpanProblem, x: TropVector) -> bool:
    """Whether a regular x attains the minimum (objective equals Delta)."""
    if not x.is_regular():
        raise NotRegularVector("verify_optimal expects a regular vector")
    return attains_minimum(prob, x)


def extended_interval(prob: SpanProblem) -> IntervalSet:
    """Bounds Delta^-1 Ahat^- p <= x <= q of the sparsification-extended set."""
    sf = prob.semifield
    lower = (prob.sparsified.conj() @ prob.p).scale(sf.inv(prob.delta))
    return IntervalSet(lower=lower, upper=prob.q)


def extended_solution(prob: SpanProblem) -> GeneratorSet:
    """Generator form I (+) Delta^-1 Ahat^- p q^- of the extended set."""
    return interval_to_generators(extended_interval(prob))


@dataclass(frozen=True)
class SelectionMatrix:
    """One nonzero entry kept per row of the sparsified matrix."""

    base_shape: tuple[int, int]
    chosen_col: tuple[int, ...]

    def materialize(self, sparse: TropMatrix) -> TropMatrix:
        if sparse.shape != self.base_shape:
            raise ShapeMismatch(f"selection for shape {self.base_shape}, "
                                f"matrix is {sparse.shape}")
        rows = []
        for i, j in enumerate(self.chosen_col):
            entry = sparse.entries[i][j]
            assert entry is not ZERO
            rows.append([entry if k == j else ZERO
                         for k in range(sparse.cols)])
        return TropMatrix(sparse.semifield, rows)


def selection_count(sparse: TropMatrix, p: TropVector) -> int:
    """Size of the full selection family; rows with p_i = zero never branch."""
    total = 1
    for i, row in enumerate(sparse.entries):
        if p[i] is ZERO:
            continue
        total *= sum(1 for e in row if e is not ZERO)
    return total


def enumerate_selections(sparse: TropMatrix, p: TropVector, *,
                         prune: bool = True,
                         budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                         ) -> Iterator[SelectionMatrix]:
    """Backtracking enumeration of row selections, top row first.

    After fixing entry (i, j), the dominance rule forces each later row k
    with a_kj >= a_ij p_i^-1 p_k to column j: the row-k constraint is then
    implied by the row-i one, so its alternatives cannot enlarge the solution
    set.  The walk's state is the forced column of each row plus the rows
    each depth forced, released when that depth moves on; an explicit stack
    of candidate iterators drives it.  Rows with p_i = zero constrain
    nothing; they keep their leftmost nonzero entry and are never branched
    or forced, which keeps the pruned and exhaustive listings comparable.
    """
    if not sparse.is_row_regular():
        raise NotRegularMatrix("selection enumeration needs a row-regular matrix")
    if p.dim != sparse.rows:
        raise ShapeMismatch(f"p has dim {p.dim}, matrix has {sparse.rows} rows")
    sf = sparse.semifield
    m, n = sparse.shape
    rows = sparse.entries
    forced: list[int | None] = [None] * m
    forced_by: list[list[int]] = [[] for _ in range(m)]

    def candidates(i: int) -> Iterator[int]:
        cols = [j for j, a in enumerate(rows[i])
                if a is not ZERO and forced[i] in (None, j)]
        return iter(cols[:1] if p[i] is ZERO else cols)

    def walk() -> Iterator[SelectionMatrix]:
        choice = [0] * m
        stack = [candidates(0)]
        emitted = 0
        while stack:
            i = len(stack) - 1
            while forced_by[i]:
                forced[forced_by[i].pop()] = None
            j = next(stack[i], None)
            if j is None:
                stack.pop()
                continue
            choice[i] = j
            if prune and p[i] is not ZERO:
                scale = sf.mul(rows[i][j], sf.inv(p[i]))
                for k in range(i + 1, m):
                    pk, a_kj = p[k], rows[k][j]
                    if (forced[k] is None and pk is not ZERO and a_kj is not ZERO
                            and sf.le(sf.mul(scale, pk), a_kj)):
                        forced[k] = j
                        forced_by[i].append(k)
            if i + 1 < m:
                stack.append(candidates(i + 1))
                continue
            if budget is not None and emitted >= budget:
                raise EnumerationBudgetExceeded(
                    f"more than {budget} selections", visited=emitted)
            emitted += 1
            yield SelectionMatrix((m, n), tuple(choice))

    return walk()


def selection_generators(sel: SelectionMatrix, prob: SpanProblem) -> GeneratorSet:
    """Span I (+) Delta^-1 A1^- p q^- contributed by one selection.

    Entry j of A1^- p sums a_ij^-1 p_i over the rows i that chose column j,
    so A1 itself is never built.
    """
    if sel.base_shape != prob.A.shape:
        raise ShapeMismatch(f"selection for shape {sel.base_shape}")
    sf, rows = prob.semifield, prob.sparsified.entries
    lower = [ZERO] * prob.A.cols
    for i, (j, pi) in enumerate(zip(sel.chosen_col, prob.p)):
        lower[j] = sf.add(lower[j], sf.mul(sf.inv(rows[i][j]), pi))
    lower = TropVector(sf, lower).scale(sf.inv(prob.delta))
    return interval_to_generators(IntervalSet(lower=lower, upper=prob.q))


@dataclass(frozen=True)
class CompleteSolution:
    """Minimum value plus a generator matrix spanning every solution."""

    delta: Scalar
    generators: GeneratorSet
    enumerated_count: int
    pruned_count: int


def _column_key(col: TropVector):
    sup = col.support()
    return (len(sup), sup, tuple(col[i] for i in sup))


def canonical_column_order(matrix: TropMatrix) -> TropMatrix:
    """Reorder columns by zero pattern, then values, for reproducible output."""
    cols = sorted(matrix.columns(), key=_column_key)
    return TropMatrix.from_columns(matrix.semifield, cols)


def complete_solution(prob: SpanProblem, *,
                      budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                      prune: bool = True) -> CompleteSolution:
    """Assemble S0: enumerate selections, pool their generators, reduce.

    The pooled columns are reduced left to right in enumeration order and the
    surviving basis is put into canonical column order, so repeated runs with
    the same flags print the identical matrix.  Selections are pooled as the
    walk emits them, skipping columns of rays already pooled, so memory
    follows the distinct rays; a budget overrun re-walks for exc.partial.
    """
    sf, sparse = prob.semifield, prob.sparsified
    rays = {}
    count = 0
    try:
        for count, sel in enumerate(enumerate_selections(
                sparse, prob.p, prune=prune, budget=budget), 1):
            for col in selection_generators(sel, prob).generators.columns():
                rays.setdefault(ray_key(sf, col.entries), col)
    except EnumerationBudgetExceeded as exc:
        exc.partial = list(islice(enumerate_selections(
            sparse, prob.p, prune=prune, budget=None), exc.visited))
        raise
    pooled = TropMatrix.from_columns(sf, list(rays.values()))
    ordered = canonical_column_order(reduce_to_independent(pooled)[0])
    pruned = selection_count(sparse, prob.p) - count
    return CompleteSolution(prob.delta, GeneratorSet(ordered), count, pruned)
