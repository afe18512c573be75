"""Minimization of q^- x (A x)^- p over regular vectors x.

The pipeline, for a row-regular A, nonzero p and regular q:

  1. The minimum value is Delta = (A q)^- p, attained at every x = alpha*q.
  2. Entries a_ij below Delta^-1 p_i q_j^-1, i.e. with p_i a_ij^-1 above
     Delta q_j, never decide the objective; zeroing them changes nothing.
  3. Fixing one nonzero entry per row of the sparsified matrix gives a
     selection A1; each selection contributes the solution cone
     alpha*Delta^-1 A1^- p <= x <= alpha*q, i.e. the span of
     S1 = I (+) Delta^-1 A1^- p q^-.  Entry j of t = A1^- p sums the terms
     t_ij = p_i a_ij^-1 of the rows i that chose column j, and
     S1 = I (+) t (Delta q)^-, so one scale (Delta q_j)^-1 per column
     serves every selection.
  4. The union over all selections is the full solution set; a backtracking
     enumeration with a dominance rule skips selections whose cones are
     contained in ones already produced.  Choosing column j in row i forces
     each later row k with t_kj <= t_ij to column j, so the walk's state is
     one forced column per row.  A forced row needs no scan of its own, and
     its term no place in the sums, which the walk carries from row to row.
  5. If l <= l' entrywise, the cone of l' lies in that of l, so S1 is built
     once per sum that no earlier sum lies below.  Concatenating those
     columns and dropping dependent ones yields a single generator matrix S0
     whose span is exactly the solution set.  A column is dependent unless
     it is extremal, which the criterion of Butkovic, Schneider & Sergeev
     (LAA 421, 2007) decides by scalar comparisons with the other columns;
     S0 keeps the first column of each extremal ray, skip or not, as an
     extremal ray of the union that lies in a covered cone is extremal in
     the covering cone, whose columns were pooled before it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import (
    EnumerationBudgetExceeded,
    NotRegularMatrix,
    NotRegularVector,
    ShapeMismatch,
    ZeroVector,
)
from .linalg import (TropMatrix, TropVector, _check_operands, _trusted,
                     extremal_rays, ray_key)
from .semifield import ZERO, Scalar
from .solvers import GeneratorSet, IntervalSet, generator_columns

DEFAULT_ENUMERATION_BUDGET = 10 ** 6


class SpanProblem:
    """Problem data (A, p, q) plus lazily cached Delta and sparsified matrix."""

    def __init__(self, A: TropMatrix, p: TropVector, q: TropVector):
        self.check_data(A, p, q)
        self.A, self.p, self.q = A, p, q
        self.semifield = A.semifield

    @staticmethod
    def check_data(A: TropMatrix, p: TropVector, q: TropVector) -> None:
        """Refuse data that is not a span problem: A row-regular, p nonzero,
        q regular, shapes and semifield agreeing."""
        _check_operands(p, A, p.dim, A.rows, "p has dim {}, A has {} rows")
        _check_operands(q, A, q.dim, A.cols, "q has dim {}, A has {} columns")
        if not A.is_row_regular():
            raise NotRegularMatrix("A must be row-regular (no zero rows)")
        if p.is_zero():
            raise ZeroVector("p must be nonzero")
        if not q.is_regular():
            raise NotRegularVector("q must be regular")

    @cached_property
    def delta(self) -> Scalar:
        """Minimum value (A q)^- p; always nonzero."""
        return (self.A @ self.q).conj() @ self.p

    @cached_property
    def sparsified(self) -> TropMatrix:
        """Step 2: keeps a_ij iff p_i a_ij^-1 <= Delta q_j, rows with p_i = zero
        whole; row-regular, as the entry attaining (A q)_i is always kept."""
        sf = self.semifield
        ratio, le = sf.ratio, sf.order_le
        caps = [sf.mul(self.delta, v) for v in self.q]
        rows = [row if pi is ZERO else
                [a if a is not ZERO and le(ratio(pi, a), cap) else ZERO
                 for a, cap in zip(row, caps)]
                for row, pi in zip(self.A.entries, self.p.entries)]
        return _trusted(TropMatrix, sf, rows)


def objective(prob: SpanProblem, x: TropVector) -> Scalar:
    """Evaluate q^- x (A x)^- p at a regular x."""
    _check_operands(x, prob.A, x.dim, prob.A.cols, "x has dim {}, expected {}")
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
    _check_operands(x, prob.A, x.dim, prob.A.cols, "x has dim {}, expected {}")
    if x.is_zero():
        raise ZeroVector("optimality of the zero vector is undefined")
    sf = prob.semifield
    alpha = prob.q.conj() @ x
    floor = prob.p.scale(sf.mul(alpha, sf.inv(prob.delta)))
    return floor.le(prob.A @ x)


def extended_interval(prob: SpanProblem) -> IntervalSet:
    """Bounds Delta^-1 Ahat^- p <= x <= q of the sparsification-extended set."""
    sf = prob.semifield
    lower = (prob.sparsified.conj() @ prob.p).scale(sf.inv(prob.delta))
    return IntervalSet(lower=lower, upper=prob.q)


class SelectionMatrix(NamedTuple):
    """One nonzero entry kept per row of the sparsified matrix, with the
    terms its rows sum, as enumerate_selections yields it."""

    chosen_col: tuple[int, ...]
    terms: tuple

    def materialize(self, sparse: TropMatrix) -> TropMatrix:
        _check_shape(self, sparse.shape)
        rows = [[row[j] if k == j else ZERO for k in range(sparse.cols)]
                for row, j in zip(sparse.entries, self.chosen_col)]
        return _trusted(TropMatrix, sparse.semifield, rows)


def _check_shape(sel: SelectionMatrix, shape: tuple[int, int]) -> None:
    walked = (len(sel.chosen_col), len(sel.terms))
    if walked != shape:
        raise ShapeMismatch(f"selection for shape {walked}, matrix is {shape}")


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
    forced since each branching row's choice, released when that row moves
    on; only rows with a choice left get a stack frame, the others are
    stepped through in a loop.  Rows with p_i = zero constrain nothing; they
    keep their leftmost nonzero entry and are never branched or forced,
    which keeps the pruned and exhaustive listings comparable.

    A forced row skips the scan, because it cannot force anything.  Say row
    i chose j and forced row k to j.  A row l that k's scan could force has
    a_lj p_l^-1 >= a_kj p_k^-1 >= a_ij p_i^-1, so i's scan forced it or
    found it forced, and nothing has been released since: rows i..k-1 keep
    their choices while k is chosen.

    Each selection carries its terms: entry j sums the ratios
    t_ij = p_i a_ij^-1 of the rows i that chose j.  A row's term is taken
    when the walk picks it, and each frame keeps the sums from before its
    row's choice.  Row k is forced to j iff t_kj <= t_ij, the dominance rule
    divided through, so a forced row cannot change the sum and is not added.

    Past budget selections the walk raises EnumerationBudgetExceeded.
    """
    if not sparse.is_row_regular():
        raise NotRegularMatrix("selection enumeration needs a row-regular matrix")
    _check_operands(p, sparse, p.dim, sparse.rows, "p has dim {}, matrix has {} rows")
    return _selections(sparse, p, prune, budget)


def check_budget(count: int, budget: int | None) -> None:
    """Refuse count selections over the budget, with visited = budget.  The
    walk checks each selection before yielding it.  A walk with prune=False
    yields exactly selection_count selections, so a caller checks that count
    before walking and refuses as the walk would, without walking."""
    if budget is not None and count > budget:
        raise EnumerationBudgetExceeded(f"more than {budget} selections",
                                        visited=budget)


def _selections(sparse: TropMatrix, p: TropVector, prune: bool,
                budget: int | None) -> Iterator[SelectionMatrix]:
    """The walk of enumerate_selections, unchecked."""
    sf = sparse.semifield
    add, ratio, le = sf.add, sf.ratio, sf.order_le
    m, n = sparse.shape
    rows, pe = sparse.entries, p.entries
    forced: list[int | None] = [None] * m

    def pick(i: int, j: int, terms: list, released: list[int]) -> None:
        # row i takes column j: add its term, then run the dominance scan
        term = ratio(pe[i], rows[i][j])
        terms[j] = add(terms[j], term)
        if not prune:
            return
        for k in range(i + 1, m):
            if forced[k] is None:
                pk, a_kj = pe[k], rows[k][j]
                if pk is not ZERO and a_kj is not ZERO and le(ratio(pk, a_kj), term):
                    forced[k] = j
                    released.append(k)

    choice, terms = [0] * m, [ZERO] * n
    # (row, its remaining candidates, rows forced since its choice, terms
    # before its choice) of each row that branches; the root's forced rows
    # are never released
    frames: list[tuple[int, Iterator[int], list[int], list]] = []
    released: list[int] = []
    emitted = i = 0
    while True:
        while i < m:
            j = forced[i]
            if j is None:
                cols = [c for c, a in enumerate(rows[i]) if a is not ZERO]
                j = cols[0]
                if pe[i] is not ZERO:
                    if len(cols) > 1:
                        released = []
                        frames.append((i, iter(cols[1:]), released, terms[:]))
                    pick(i, j, terms, released)
            choice[i] = j
            i += 1
        emitted += 1
        check_budget(emitted, budget)
        yield SelectionMatrix(tuple(choice), tuple(terms))
        while frames:
            i, rest, released, saved = frames[-1]
            while released:
                forced[released.pop()] = None
            j = next(rest, None)
            if j is not None:
                break
            frames.pop()
        else:
            return
        choice[i], terms = j, saved[:]
        pick(i, j, terms, released)
        i += 1


def _s1_scales(prob: SpanProblem) -> list:
    """The scales (Delta q_j)^-1 by which a selection's terms t give S1.

    S1 = I (+) Delta^-1 A1^- p q^- is I (+) t (Delta q)^-, as entry j of
    A1^- p is entry j of the terms that the walk sums, so A1 itself is never
    built: generator_columns(sf, terms, scales) gives column j as t (Delta
    q_j)^-1 with one added at row j, and each product normalizes a ratio in
    the terms to a valid scalar.  Delta^-1 t <= q holds unchecked, as the
    sparsified matrix keeps a_ij only if p_i a_ij^-1 <= Delta q_j.
    """
    sf = prob.semifield
    return [sf.inv(sf.mul(prob.delta, v)) for v in prob.q]


def selection_generators(sel: SelectionMatrix, prob: SpanProblem) -> GeneratorSet:
    """Span I (+) Delta^-1 A1^- p q^- of one selection, built from its terms
    by the column builder that complete_solution pools from."""
    _check_shape(sel, prob.A.shape)
    cols = generator_columns(prob.semifield, sel.terms, _s1_scales(prob))
    return GeneratorSet(_trusted(TropMatrix, prob.semifield, zip(*cols)))


class CompleteSolution(NamedTuple):
    """Minimum value plus a generator matrix spanning every solution."""

    delta: Scalar
    generators: GeneratorSet
    enumerated_count: int
    pruned_count: int


def _column_key(col: tuple):
    sup = tuple([i for i, e in enumerate(col) if e is not ZERO])
    return (len(sup), sup, tuple([col[i] for i in sup]))


def canonical_column_order(matrix: TropMatrix) -> TropMatrix:
    """Reorder columns by zero pattern, then values, for reproducible output."""
    cols = sorted(zip(*matrix.entries), key=_column_key)
    return _trusted(TropMatrix, matrix.semifield, zip(*cols))


def complete_solution(prob: SpanProblem, *,
                      budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                      prune: bool = True) -> CompleteSolution:
    """Assemble S0: enumerate selections, pool their generators, reduce.

    Selections are pooled as the walk emits them, with the terms each
    carries.  One is skipped when the terms of an earlier one lie below its
    own, as its cone lies inside that one's.  Terms seen before are skipped
    by a set lookup, since a long walk repeats few distinct terms; new terms
    are compared only with those that no later terms lie below, and the
    columns of the others stay pooled, so each extremal ray keeps its first
    column.  The S1 columns, plain tuples from the builder that
    selection_generators also uses, are keyed by ray_key, and a column of a
    ray already pooled is skipped, so memory follows the distinct rays.
    extremal_rays keeps the extremal ones, and the surviving basis is put
    into canonical column order, so repeated runs with the same flags print
    the identical matrix.  A budget overrun ends the one walk: the
    EnumerationBudgetExceeded of _selections propagates as raised.  With
    prune=False, a family larger than the budget is refused before it.
    """
    sf, sparse = prob.semifield, prob.sparsified
    total = selection_count(sparse, prob.p)
    if not prune:
        check_budget(total, budget)
    scales, le = _s1_scales(prob), sf.le
    rays, bounds, seen = {}, [], set()
    count = 0
    for count, (_, terms) in enumerate(_selections(
            sparse, prob.p, prune, budget), 1):
        if terms in seen:
            continue
        seen.add(terms)
        if any(all(map(le, u, terms)) for u in bounds):
            continue
        bounds = [u for u in bounds if not all(map(le, terms, u))]
        bounds.append(terms)
        for col in generator_columns(sf, terms, scales):
            rays.setdefault(ray_key(sf, col), col)
    del seen, bounds
    pool = list(rays.values())
    kept = [pool[k] for k in extremal_rays(sf, pool)]
    ordered = canonical_column_order(_trusted(TropMatrix, sf, zip(*kept)))
    pruned = total - count
    return CompleteSolution(prob.delta, GeneratorSet(ordered), count, pruned)
