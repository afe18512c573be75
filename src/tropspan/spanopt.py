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
     once per sum that no earlier sum lies below.  S0 keeps the first column
     of each ray that is extremal in the solution set S and is a column of
     a built S1.  These are all the extremal rays of S, so S0 spans S: each
     lies in some S1 cone, and an extremal ray of S in a cone inside S is
     extremal there, so it is a column of that S1 and of the S1 of any cone
     that covers it.

     Each column is tested alone.  Let r_ik = p_i a_ik^-1 (top where a_ik is
     zero), c_k = Delta q_k, and t the terms of a selection sigma; t <= c.
     Column j of its S1 is u (Delta q_j)^-1 with u = t but u_j = c_j, and
     q^- u = Delta.  S is {x : A x >= (q^- x) Delta^-1 p}; rows with p_i
     zero hold for every x.  At u, row i holds with equality iff u <= r_i.
     Its tail J_i = {k : r_ik = u_k} attains (A u)_i, and the head
     K = {k : u_k = c_k}, which holds j, attains q^- u for every row.  A
     tight row attains its chosen term, as r_is <= t_s <= u_s <= r_is for
     s = sigma(i), so one ratio per row finds the rows worth a look.

     Lowering u on a set D of indices by a small common factor stays in S
     iff every tight row with J_i within D has K within D too; call such a
     D closed.  u is extremal iff, for some s in supp(u), no nonempty closed
     D misses s, as u is then the only y <= u of S with y_s = u_s
     (Butkovic, Schneider & Sergeev, LAA 421, 2007).  Let T be the union of
     the tails of one index.  {k} is closed for k outside T, and a nonempty
     D within T holds a tail, so it is closed iff it holds K.  So u is
     extremal iff supp(u) - T is empty (take s in K) or is one index s of
     K.  Otherwise a closed set misses each s: {k} for an index k outside T
     other than s, or, when s is the one index outside T and lies outside
     K, supp(u) less s, which holds K.  This is the tangent hypergraph of
     Allamigeon, Gaubert & Goubault (DCG 49, 2013), whose hyperedges here
     all share the head K.
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
from .linalg import TropMatrix, TropVector, _check_operands, _trusted, ray_key
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
    def caps(self) -> list:
        """Delta q_j of each column j, where sparsification caps p_i a_ij^-1."""
        return [self.semifield.mul(self.delta, v) for v in self.q]

    @cached_property
    def sparsified(self) -> TropMatrix:
        """Step 2: keeps a_ij iff p_i a_ij^-1 <= Delta q_j, rows with p_i = zero
        whole; row-regular, as the entry attaining (A q)_i is always kept."""
        sf = self.semifield
        ratio, le = sf.ratio, sf.order_le
        rows = [row if pi is ZERO else
                [a if a is not ZERO and le(ratio(pi, a), cap) else ZERO
                 for a, cap in zip(row, self.caps)]
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
    return [prob.semifield.inv(c) for c in prob.caps]


def selection_generators(sel: SelectionMatrix, prob: SpanProblem) -> GeneratorSet:
    """Span I (+) Delta^-1 A1^- p q^- of one selection, built from its terms
    by the column builder whose columns complete_solution tests."""
    _check_shape(sel, prob.A.shape)
    cols = generator_columns(prob.semifield, sel.terms, _s1_scales(prob))
    return GeneratorSet(_trusted(TropMatrix, prob.semifield, zip(*cols)))


def _extremal_columns(prob: SpanProblem, chosen: tuple, terms: tuple) -> list[int]:
    """The j whose S1 column is extremal in the solution set, by the test of
    step 5 of the module docstring; chosen and terms are one selection as
    the walk yields it.  Bit k of a mask stands for index k."""
    ratio, le, caps = prob.semifield.ratio, prob.semifield.order_le, prob.caps
    # each row that t lies below: {k : r_ik = t_k}, the columns j at which
    # the row is tight (r_ij >= c_j) and those at which j joins its tail
    # (r_ij = c_j); a kept entry has r_ij <= c_j, a zero one r_ij = top
    rows = set()
    for s, pi, row in zip(chosen, prob.p.entries, prob.sparsified.entries):
        if pi is ZERO or ratio(pi, row[s]) != terms[s]:
            continue
        equal = top = at_cap = 0
        for k, (a, t, c) in enumerate(zip(row, terms, caps)):
            if a is ZERO:
                top |= 1 << k
                continue
            r = ratio(pi, a)
            if t is not ZERO:
                if r == t:
                    equal |= 1 << k
                elif le(r, t):
                    break  # r_ik below t_k: the row is tight at no column
            if r == c:
                at_cap |= 1 << k
        else:
            rows.add((equal, top | at_cap, at_cap))
    support = head = 0
    for k, (t, c) in enumerate(zip(terms, caps)):
        if t is not ZERO:
            support |= 1 << k
            if t == c:
                head |= 1 << k
    kept = []
    for j in range(len(terms)):
        b = 1 << j
        covered = 0  # T, the union of the one-index tails
        for equal, tight, at_cap in rows:
            if tight & b:
                tail = equal | at_cap & b
                if not tail & (tail - 1):
                    covered |= tail
        rest = (support | b) & ~covered
        # extremal iff supp(u) - T is empty or one index of K
        if not rest & (rest - 1) and not rest & ~(head | b):
            kept.append(j)
    return kept


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
    """Assemble S0: enumerate selections, build their S1, keep the columns
    that are extremal in the solution set.

    Selections are taken as the walk emits them, with the terms each
    carries.  One is skipped when the terms of an earlier one lie below its
    own, as its cone lies inside that one's.  Terms seen before are skipped
    by a set lookup, since a long walk repeats few distinct terms; new terms
    are compared only with those that no later terms lie below.  Each column
    of a built S1, a plain tuple from the builder that selection_generators
    also uses, is tested alone by _extremal_columns, which reads only the
    rows that its selection can make tight (step 5 of the module
    docstring); nothing is pooled and no two columns are compared.  An
    extremal column is keyed by ray_key, and the first column of each ray
    is kept, so memory follows the extremal rays.  The basis is put into
    canonical column order, so repeated runs with the same flags print the
    identical matrix.  A budget overrun ends the one walk: the
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
    for count, (chosen, terms) in enumerate(_selections(
            sparse, prob.p, prune, budget), 1):
        if terms in seen:
            continue
        seen.add(terms)
        if any(all(map(le, u, terms)) for u in bounds):
            continue
        bounds = [u for u in bounds if not all(map(le, terms, u))]
        bounds.append(terms)
        cols = generator_columns(sf, terms, scales)
        for j in _extremal_columns(prob, chosen, terms):
            rays.setdefault(ray_key(sf, cols[j]), cols[j])
    del seen, bounds
    ordered = canonical_column_order(
        _trusted(TropMatrix, sf, zip(*rays.values())))
    pruned = total - count
    return CompleteSolution(prob.delta, GeneratorSet(ordered), count, pruned)
