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
     contained in ones already produced.
  5. Concatenating all S1 columns and dropping dependent ones yields a single
     generator matrix S0 whose span is exactly the solution set.  A column
     is dependent unless it is extremal, which the criterion of Butkovic,
     Schneider & Sergeev (LAA 421, 2007) decides by scalar comparisons with
     the other columns; S0 keeps the first column of each extremal ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    EnumerationBudgetExceeded,
    NotRegularMatrix,
    NotRegularVector,
    ShapeMismatch,
    ZeroVector,
)
from .linalg import TropMatrix, TropVector, reduce_to_independent
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
        self.A = A
        self.p = p
        self.q = q
        self.semifield = A.semifield
        self._delta: Scalar | None = None
        self._sparse: TropMatrix | None = None

    @property
    def delta(self) -> Scalar:
        """Minimum value (A q)^- p; always nonzero."""
        if self._delta is None:
            self._delta = (self.A @ self.q).conj() @ self.p
        return self._delta

    @property
    def sparsified(self) -> TropMatrix:
        if self._sparse is None:
            self._sparse = self._sparsify()
        return self._sparse

    def _sparsify(self) -> TropMatrix:
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

    After fixing entry (i, j), the dominance rule zeroes every other entry of
    a later row k whenever a_kj >= a_ij p_i^-1 p_k: the row-k constraint is
    then implied by the row-i one, so its alternatives cannot enlarge the
    solution set.  Rows with p_i = zero constrain nothing; they are pinned to
    their leftmost nonzero entry and never branched or pruned, which keeps the
    pruned and exhaustive listings comparable row by row.
    """
    if not sparse.is_row_regular():
        raise NotRegularMatrix("selection enumeration needs a row-regular matrix")
    if p.dim != sparse.rows:
        raise ShapeMismatch(f"p has dim {p.dim}, matrix has {sparse.rows} rows")
    sf = sparse.semifield
    m, n = sparse.shape
    work = [list(row) for row in sparse.entries]
    choice = [0] * m
    emitted = 0

    def walk(i: int) -> Iterator[SelectionMatrix]:
        nonlocal emitted
        if i == m:
            if budget is not None and emitted >= budget:
                raise EnumerationBudgetExceeded(
                    f"more than {budget} selections", visited=emitted)
            emitted += 1
            yield SelectionMatrix((m, n), tuple(choice))
            return
        candidates = [j for j in range(n) if work[i][j] is not ZERO]
        pinned = p[i] is ZERO
        if pinned:
            candidates = candidates[:1]
        for j in candidates:
            choice[i] = j
            saved = [work[k][:] for k in range(i, m)]
            for l in range(n):
                if l != j:
                    work[i][l] = ZERO
            if prune and not pinned:
                a_ij = work[i][j]
                inv_pi = sf.inv(p[i])
                for k in range(i + 1, m):
                    pk = p[k]
                    if pk is ZERO:
                        continue
                    a_kj = work[k][j]
                    if a_kj is ZERO:
                        continue
                    if sf.le(sf.mul(a_ij, sf.mul(inv_pi, pk)), a_kj):
                        for l in range(n):
                            if l != j:
                                work[k][l] = ZERO
            yield from walk(i + 1)
            for k in range(i, m):
                work[k] = saved[k - i]
        choice[i] = 0

    return walk(0)


def selection_generators(sel: SelectionMatrix, prob: SpanProblem) -> GeneratorSet:
    """Span I (+) Delta^-1 A1^- p q^- contributed by one selection."""
    sf = prob.semifield
    a1 = sel.materialize(prob.sparsified)
    lower = (a1.conj() @ prob.p).scale(sf.inv(prob.delta))
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
    the same flags print the identical matrix.
    """
    sparse = prob.sparsified
    selections = []
    try:
        for sel in enumerate_selections(sparse, prob.p, prune=prune, budget=budget):
            selections.append(sel)
    except EnumerationBudgetExceeded as exc:
        exc.partial = selections
        raise
    columns = []
    for sel in selections:
        columns.extend(selection_generators(sel, prob).generators.columns())
    pooled = TropMatrix.from_columns(prob.semifield, columns)
    reduced, _ = reduce_to_independent(pooled)
    ordered = canonical_column_order(reduced)
    total = selection_count(sparse, prob.p)
    return CompleteSolution(
        delta=prob.delta,
        generators=GeneratorSet(ordered),
        enumerated_count=len(selections),
        pruned_count=total - len(selections),
    )
