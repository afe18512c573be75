import hashlib
import random
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest

from conftest import (
    Z,
    demo_span_problem,
    dense_probe_data,
    mat,
    random_regular_vector,
    random_span_problem,
    vec,
)
from tropspan import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    EnumerationBudgetExceeded,
    IntervalSet,
    NotRegularMatrix,
    NotRegularVector,
    ShapeMismatch,
    SpanProblem,
    TropMatrix,
    TropVector,
    ZERO,
    attains_minimum,
    complete_solution,
    enumerate_selections,
    depends_on,
    extended_interval,
    interval_to_generators,
    objective,
    selection_generators,
)
from tropspan import spanopt
from tropspan.linalg import extremal_rays, ray_key, reduce_to_independent
from tropspan.solvers import generator_columns
from tropspan.spanopt import (
    _s1_scales,
    _selections,
    canonical_column_order,
    selection_count,
)


def test_objective_golden():
    prob = demo_span_problem()
    assert objective(prob, vec([1, 2])) == 2
    assert objective(prob, vec([1, -1])) == 2
    x = vec([3, 0])
    assert objective(prob, x.scale(10)) == objective(prob, x)
    with pytest.raises(NotRegularVector):
        objective(prob, vec([1, Z]))


def test_minimum_value():
    prob = demo_span_problem()
    assert prob.delta == 2
    # reduced problem carried by the three-activity schedule
    d = mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    reduced = SpanProblem(d, vec([0, 0, 0]), vec([-6, -2, -4]))
    assert reduced.delta == 3
    eye = TropMatrix.identity(MAX_PLUS, 3)
    trivial = SpanProblem(eye, vec([0, 0, 0]), vec([0, 0, 0]))
    assert trivial.delta == MAX_PLUS.one


def test_span_problem_refuses_mixed_semifields_by_the_operand_rule():
    # p, then q, against A, as every operation on two operands refuses
    A = mat([[0, 1], [2, 3]])
    for p, q, message in (
            (TropVector(MIN_PLUS, [0, 1]), vec([0, 0]), "min-plus vs max-plus"),
            (vec([0, 1]), TropVector(MAX_TIMES, [1, 2]), "max-times vs max-plus")):
        with pytest.raises(ShapeMismatch) as caught:
            SpanProblem(A, p, q)
        assert str(caught.value) == f"mixed semifields: {message}"


def test_sparsify_golden():
    prob = demo_span_problem()
    assert prob.sparsified == mat([[2, Z], [4, 1]])
    d = mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    reduced = SpanProblem(d, vec([0, 0, 0]), vec([-6, -2, -4]))
    assert reduced.sparsified == mat([[3, -1, Z], [5, 2, 3], [6, 2, 4]])
    # already above every threshold: unchanged
    flat = SpanProblem(mat([[5, 5], [5, 5]]), vec([0, 0]), vec([0, 0]))
    assert flat.sparsified == flat.A


def test_sparsify_keeps_minimum():
    rng = random.Random(61)
    for _ in range(80):
        prob = random_span_problem(rng)
        resparsed = SpanProblem(prob.sparsified, prob.p, prob.q)
        assert resparsed.delta == prob.delta


def test_extended_solution_golden():
    prob = demo_span_problem()
    interval = extended_interval(prob)
    assert interval.lower == vec([1, -1])
    assert interval.upper == vec([1, 2])
    assert interval_to_generators(interval).generators == mat([[0, -1], [-2, 0]])


def test_extended_solution_one_by_one():
    prob = SpanProblem(mat([[4]]), vec([7]), vec([2]))
    gens = interval_to_generators(extended_interval(prob)).generators
    assert gens == mat([[MAX_PLUS.one]])


def test_enumerate_pruning_golden():
    prob = demo_span_problem()
    pruned = list(enumerate_selections(prob.sparsified, prob.p))
    assert [s.chosen_col for s in pruned] == [(0, 0)]
    every = list(enumerate_selections(prob.sparsified, prob.p, prune=False))
    assert [s.chosen_col for s in every] == [(0, 0), (0, 1)]
    a1 = every[0].materialize(prob.sparsified)
    a2 = every[1].materialize(prob.sparsified)
    assert a1 == mat([[2, Z], [4, Z]])
    assert a2 == mat([[2, Z], [Z, 1]])


def test_enumerate_three_activity_reduction():
    d = mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    prob = SpanProblem(d, vec([0, 0, 0]), vec([-6, -2, -4]))
    selections = list(enumerate_selections(prob.sparsified, prob.p))
    assert [s.chosen_col for s in selections] == [(0, 0, 0), (1, 1, 1)]
    d1 = selections[0].materialize(prob.sparsified)
    d2 = selections[1].materialize(prob.sparsified)
    assert d1 == mat([[3, Z, Z], [5, Z, Z], [6, Z, Z]])
    assert d2 == mat([[Z, -1, Z], [Z, 2, Z], [Z, 2, Z]])
    s1 = selection_generators(selections[0], prob).generators
    s2 = selection_generators(selections[1], prob).generators
    assert s1 == mat([[0, -4, -2], [Z, 0, Z], [Z, Z, 0]])
    assert s2 == mat([[0, Z, Z], [4, 0, 2], [Z, Z, 0]])


def test_enumerate_single_column():
    prob = SpanProblem(mat([[3], [1]]), vec([0, 0]), vec([0]))
    selections = list(enumerate_selections(prob.sparsified, prob.p))
    assert [s.chosen_col for s in selections] == [(0, 0)]


def test_enumerate_budget():
    d = mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    prob = SpanProblem(d, vec([0, 0, 0]), vec([-6, -2, -4]))
    with pytest.raises(EnumerationBudgetExceeded) as info:
        list(enumerate_selections(prob.sparsified, prob.p, prune=False,
                                  budget=3))
    assert info.value.visited == 3
    with pytest.raises(EnumerationBudgetExceeded) as info:
        complete_solution(prob, budget=1)
    assert info.value.visited == 1


def test_enumerate_checks_arguments_at_call_time():
    # no next(): a generator body would defer the check to the first item
    with pytest.raises(NotRegularMatrix):
        enumerate_selections(mat([[1, 2], [Z, Z]]), vec([0, 0]))
    with pytest.raises(ShapeMismatch):
        enumerate_selections(mat([[1, 2], [3, Z]]), vec([0, 0, 0]))


def _reference_selections(sparse, p, prune, budget):
    # the recursive walk over a copied work matrix that the forced-column
    # walk replaced; zeroing a row's other entries is what forcing it means
    sf = sparse.semifield
    m, n = sparse.shape
    work = [list(row) for row in sparse.entries]
    choice = [0] * m
    emitted = 0

    def walk(i):
        nonlocal emitted
        if i == m:
            if budget is not None and emitted >= budget:
                raise EnumerationBudgetExceeded(
                    f"more than {budget} selections", visited=emitted)
            emitted += 1
            yield tuple(choice)
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


def _listing(selections):
    # every emitted selection, then the visited count of a budget overrun
    out = []
    try:
        for sel in selections:
            out.append(getattr(sel, "chosen_col", sel))
    except EnumerationBudgetExceeded as exc:
        out.append(("visited", exc.visited))
    return out


def test_enumerate_matches_recursive_reference():
    rng = random.Random(73)
    overruns = 0
    for _ in range(400):
        prob = random_span_problem(rng, max_dim=8)
        if prob.A.cols > 5:
            continue
        for sparse in (prob.sparsified, prob.A):
            for prune in (True, False):
                budget = rng.choice((None, 1, 7, 40))
                expected = _listing(_reference_selections(sparse, prob.p,
                                                          prune, budget))
                overruns += isinstance(expected[-1][0], str)
                assert _listing(enumerate_selections(
                    sparse, prob.p, prune=prune, budget=budget)) == expected
    assert overruns > 50


def test_enumerate_taller_than_recursion_limit():
    m = sys.getrecursionlimit() + 200
    prob = SpanProblem(mat([[0, 0, 0]] * m), vec([0] * m), vec([0, 0, 0]))
    start = time.perf_counter()
    selections = list(enumerate_selections(prob.sparsified, prob.p))
    assert [s.chosen_col for s in selections] == [(j,) * m for j in range(3)]
    sol = complete_solution(prob)
    assert time.perf_counter() - start < 2.0
    assert sol.enumerated_count == 3
    # every x is optimal: S0 spans the whole space
    assert sol.generators.generators == TropMatrix.identity(MAX_PLUS, 3)


def test_tall_dense_walk_follows_branching():
    # 1200 x 3 and dense, yet 51 selections; the recursive reference walk of
    # test_enumerate_matches_recursive_reference, run once on this problem
    # (about 40 s, the recursion limit raised), also emits 51
    rng = random.Random(5)
    m = 1200
    prob = SpanProblem(mat([[rng.randint(-5, 5) for _ in range(3)]
                            for _ in range(m)]), vec([0] * m), vec([0] * 3))
    start = time.perf_counter()
    sol = complete_solution(prob)
    assert time.perf_counter() - start < 1.5
    assert sol.enumerated_count == 51


def test_selection_generators_golden():
    prob = demo_span_problem()
    every = list(enumerate_selections(prob.sparsified, prob.p, prune=False))
    s1 = selection_generators(every[0], prob).generators
    s2 = selection_generators(every[1], prob).generators
    assert s1 == mat([[0, -1], [Z, 0]])
    assert s2 == mat([[0, -1], [-2, 0]])


def test_selection_generators_match_materialized_selection():
    rng = random.Random(79)
    for _ in range(200):
        prob = random_span_problem(rng, max_dim=6)
        inv_delta = MAX_PLUS.inv(prob.delta)
        for sel in islice(enumerate_selections(prob.sparsified, prob.p,
                                               prune=False), 30):
            a1 = sel.materialize(prob.sparsified)
            lower = (a1.conj() @ prob.p).scale(inv_delta)
            assert selection_generators(sel, prob) == interval_to_generators(
                IntervalSet(lower=lower, upper=prob.q))


def test_selection_of_another_shape_is_refused():
    # a selection carries its shape as (len(chosen_col), len(terms))
    prob = demo_span_problem()
    for other in (mat([[3, -1, 0], [5, 2, 3]]), mat([[3, -1], [5, 2], [6, 2]])):
        sel = next(enumerate_selections(other, vec([0] * other.rows)))
        with pytest.raises(ShapeMismatch, match="^selection for shape "):
            sel.materialize(prob.sparsified)
        with pytest.raises(ShapeMismatch, match="^selection for shape "):
            selection_generators(sel, prob)


def _reference_s1(sel, prob):
    # the interval formula selection_generators used before the column
    # builder: validated identity, outer product and sum, then a GeneratorSet
    sf, rows = prob.semifield, prob.sparsified.entries
    lower = [ZERO] * prob.A.cols
    for i, (j, pi) in enumerate(zip(sel.chosen_col, prob.p)):
        lower[j] = sf.add(lower[j], sf.mul(sf.inv(rows[i][j]), pi))
    lower = TropVector(sf, lower).scale(sf.inv(prob.delta))
    return interval_to_generators(IntervalSet(lower=lower, upper=prob.q))


def _half_unit_problem(rng, sf):
    # entries k/2, so sums and products of entries are often integral
    def value():
        k = rng.randint(1, 8) if sf in (MAX_TIMES, MIN_TIMES) else rng.randint(-8, 8)
        return Fraction(k, 2)

    m, n = rng.randint(1, 5), rng.randint(1, 4)
    rows = [[value() if rng.random() > 0.3 else Z for _ in range(n)]
            for _ in range(m)]
    for row in rows:
        if all(e is Z for e in row):
            row[rng.randrange(n)] = value()
    p = [value() if rng.random() > 0.25 else Z for _ in range(m)]
    p[rng.randrange(m)] = value()
    return SpanProblem(TropMatrix(sf, rows), TropVector(sf, p),
                       TropVector(sf, [value() for _ in range(n)]))


def _fold_terms(prob, chosen_col):
    # entry j sums p_i a_ij^-1 over every row i that chose j, in row order
    sf, rows = prob.semifield, prob.sparsified.entries
    terms = [ZERO] * prob.A.cols
    for i, (j, pi) in enumerate(zip(chosen_col, prob.p)):
        if pi is not ZERO:
            terms[j] = sf.add(terms[j], sf.ratio(pi, rows[i][j]))
    return tuple(terms)


def _typed(entries):
    # 1 == Fraction(1), so == alone would hide an unnormalized Fraction
    return [(type(e), e) for e in entries]


def test_s1_columns_are_type_exact():
    rng = random.Random(89)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for _ in range(60):
            prob = _half_unit_problem(rng, sf)
            scales = _s1_scales(prob)
            for sel in islice(enumerate_selections(prob.sparsified, prob.p,
                                                   prune=False), 20):
                reference = _reference_s1(sel, prob)
                pooled = generator_columns(
                    sf, _fold_terms(prob, sel.chosen_col), scales)
                assert [_typed(c) for c in pooled] == [
                    _typed(c) for c in reference.generators.columns()]
                viewed = selection_generators(sel, prob)
                assert viewed == reference
                assert [_typed(row) for row in viewed.generators.entries] == [
                    _typed(row) for row in reference.generators.entries]


def test_complete_solution_is_valid_as_built():
    # S0 is built without check_value; a validating rebuild must keep every
    # value and type, integral sums of half units included
    rng = random.Random(91)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for _ in range(60):
            prob = _half_unit_problem(rng, sf)
            sol = complete_solution(prob)
            s0 = sol.generators.generators
            rebuilt = TropMatrix(sf, s0.entries)
            assert [_typed(row) for row in s0.entries] == [
                _typed(row) for row in rebuilt.entries]
            assert _typed([sol.delta]) == _typed([sf.check_value(sol.delta)])


def _counted_solution(monkeypatch, prob, **kwargs):
    # complete_solution, and the lower bound l of each S1 it builds
    built = []

    def counting(sf, terms, scales):
        inv_delta = sf.inv(prob.delta)
        built.append(tuple(sf.mul(inv_delta, t) for t in terms))
        return generator_columns(sf, terms, scales)

    monkeypatch.setattr(spanopt, "generator_columns", counting)
    sol = complete_solution(prob, **kwargs)
    monkeypatch.undo()
    return sol, built


def test_complete_solution_is_the_reduction_of_all_s1_columns(monkeypatch):
    # complete_solution skips the S1 of a bound that an earlier bound lies
    # below, pools distinct rays and calls the extremality kernel directly;
    # reducing every S1 column of the walk at once must give the same S0,
    # types and counts included.  ZERO entries of A and p give ZERO terms,
    # which le must take for the bottom in every semifield
    rng = random.Random(93)
    repeated, skipped = 0, {}
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for _ in range(60):
            prob = _half_unit_problem(rng, sf)
            for prune in (True, False):
                selections = list(enumerate_selections(
                    prob.sparsified, prob.p, prune=prune))
                pooled = [col for sel in selections
                          for col in selection_generators(
                              sel, prob).generators.columns()]
                repeated += len(pooled) - len({ray_key(sf, c) for c in pooled})
                whole, _ = reduce_to_independent(
                    TropMatrix.from_columns(sf, pooled))
                sol, built = _counted_solution(monkeypatch, prob, prune=prune)
                s0 = sol.generators.generators
                assert s0 == canonical_column_order(whole)
                assert [_typed(row) for row in s0.entries] == [
                    _typed(row) for row in canonical_column_order(whole).entries]
                assert sol.enumerated_count == len(selections)
                assert sol.pruned_count == selection_count(
                    prob.sparsified, prob.p) - len(selections)
                distinct = len({sel.terms for sel in selections})
                skipped[sf, prune] = skipped.get((sf, prune), 0) \
                    + distinct - len(built)
    assert repeated > 0 and min(skipped.values()) > 0, skipped


def test_s1_not_built_for_a_bound_an_earlier_bound_lies_below(monkeypatch):
    # the walk emits terms (2, Z), (0, 3), (2, 0), (Z, 3); (2, Z) lies below
    # (2, 0), so the third cone is inside the first and its S1, of lower
    # bound l = (0, -2), is never built.  (Z, 3) lies below the earlier
    # (0, 3), which does not cover it, so its S1 is built
    prob = SpanProblem(mat([[0, 0], [-2, -3]]), vec([0, 0]), vec([0, 1]))
    assert prob.delta == 2 and prob.sparsified == prob.A
    assert [sel.terms for sel in enumerate_selections(
        prob.sparsified, prob.p)] == [(2, Z), (0, 3), (2, 0), (Z, 3)]
    sol, built = _counted_solution(monkeypatch, prob)
    assert built == [(0, Z), (-2, 1), (Z, 1)]
    assert sol.enumerated_count == 4
    assert sol.generators.generators == TropMatrix.identity(MAX_PLUS, 2)


def test_bound_below_an_earlier_one_keeps_the_earlier_column(monkeypatch):
    # the later terms (1, Z, 1) lie below the earlier (1, -1, 1): both S1 are
    # built.  The earlier l equals q, so each of its columns lies on the ray
    # of q, (0, -2, 0) first; the later S1 reaches that ray only through its
    # column (2, 0, 2).  S0 keeps the column pooled first, the earlier one;
    # unpooling the columns of a bound that a later bound lies below would
    # keep (2, 0, 2)
    prob = SpanProblem(mat([[-1, 3, 3], [-3, -2, 0], [0, 0, -2]]),
                       vec([2, 1, 1]), vec([0, -2, 0]))
    assert prob.delta == 1
    selections = list(enumerate_selections(prob.sparsified, prob.p))
    assert [sel.terms for sel in selections] == [(1, -1, 1), (1, Z, 1)]
    sol, built = _counted_solution(monkeypatch, prob)
    assert built == [(0, -2, 0), (0, Z, 0)]
    earlier, later = (selection_generators(sel, prob).generators.entries
                      for sel in selections)
    assert list(zip(*earlier))[0] == (0, -2, 0)
    assert (0, -2, 0) not in zip(*later) and (2, 0, 2) in zip(*later)
    assert sol.generators.generators == mat([[0, 0], [Z, -2], [0, 0]])


def test_dense_12_by_12_probe_skips_covered_cones(monkeypatch):
    # without the skip this walk of 20450 selections built 8148 S1 and
    # pooled 65815 distinct rays, and the reduction took about a minute;
    # the digest is of S0 as it was then, types included
    A, p, q = dense_probe_data()
    prob = SpanProblem(mat(A), vec(p), vec(q))
    pooled = []

    def counting(sf, rays):
        pooled.append(len(rays))
        return extremal_rays(sf, rays)

    monkeypatch.setattr(spanopt, "extremal_rays", counting)
    sol, built = _counted_solution(monkeypatch, prob)
    assert (len(built), pooled, sol.enumerated_count) == (370, [3503], 20450)
    s0 = sol.generators.generators
    typed = [[(type(e).__name__, e) for e in row] for row in s0.entries]
    assert hashlib.sha256(repr(typed).encode()).hexdigest() == (
        "a86c5f904de9a3d5ea84e9fd368bfc7caa18503cb1b7f20b903ceaea2e5d16fa")


def test_enumerate_matches_recursive_reference_on_every_semifield():
    # the walk compares ratios p_k a_kj^-1 in the semifield order; the
    # reference multiplies and compares with le, so Fraction ratios and the
    # reversed order of the min-* semifields are checked against it
    rng = random.Random(101)
    overruns = pruned = 0
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for _ in range(40):
            prob = _half_unit_problem(rng, sf)
            for sparse in (prob.sparsified, prob.A):
                lengths = {}
                for prune in (True, False):
                    for budget in (None, 1, 7, 40):
                        expected = _listing(_reference_selections(
                            sparse, prob.p, prune, budget))
                        overruns += isinstance(expected[-1][0], str)
                        assert _listing(enumerate_selections(
                            sparse, prob.p, prune=prune,
                            budget=budget)) == expected
                    lengths[prune] = len(expected)
                pruned += lengths[True] < lengths[False]
    assert overruns > 50 and pruned > 20


def test_carried_terms_equal_the_fold():
    # the walk adds no term of a forced row: forcing means its term is at
    # most that of the row that forced it, so the fold over every row of
    # chosen_col gives the same sums, types included
    rng = random.Random(103)
    zero_weights = 0
    problems = [_half_unit_problem(rng, sf)
                for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
                for _ in range(50)]
    problems += [random_span_problem(rng, max_dim=8) for _ in range(100)]
    for prob in problems:
        zero_weights += any(pi is ZERO for pi in prob.p)
        for prune in (True, False):
            for chosen, terms in islice(_selections(
                    prob.sparsified, prob.p, prune, None), 300):
                assert _typed(terms) == _typed(_fold_terms(prob, chosen))
    assert zero_weights > 50


def test_every_carried_bound_lies_below_q():
    # the S1 builder checks no l <= q: sparsification keeps a_ij only if
    # p_i a_ij^-1 <= Delta q_j, so each carried sum t_j has Delta^-1 t_j <= q_j
    rng = random.Random(105)
    tight = 0
    problems = [_half_unit_problem(rng, sf)
                for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
                for _ in range(50)]
    problems += [random_span_problem(rng, max_dim=8) for _ in range(100)]
    for prob in problems:
        sf = prob.semifield
        inv_delta = sf.inv(prob.delta)
        for prune in (True, False):
            for _, terms in islice(_selections(
                    prob.sparsified, prob.p, prune, None), 300):
                lower = [sf.mul(inv_delta, t) for t in terms]
                assert all(sf.le(l, qj) for l, qj in zip(lower, prob.q))
                tight += any(l == qj for l, qj in zip(lower, prob.q))
    assert tight > 100


def _reference_sparsified(prob):
    # the paper's threshold a_ij >= Delta^-1 p_i q_j^-1, with mul and le
    sf = prob.semifield
    inv_delta = sf.inv(prob.delta)
    return [[a if sf.le(sf.mul(sf.mul(inv_delta, pi), sf.inv(qj)), a) else ZERO
             for a, qj in zip(row, prob.q)]
            for row, pi in zip(prob.A.entries, prob.p)]


def test_sparsified_is_the_threshold_of_the_paper():
    # sparsified compares p_i a_ij^-1 with Delta q_j, Fraction ratios and
    # the reversed order of the min-* semifields included; it must keep the
    # same entries with the same types, and stay row-regular unchecked
    rng = random.Random(107)
    zero_weights = dropped = 0
    problems = [_half_unit_problem(rng, sf)
                for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
                for _ in range(150)]
    problems += [random_span_problem(rng, max_dim=6) for _ in range(300)]
    for prob in problems:
        zero_weights += any(pi is ZERO for pi in prob.p)
        sparse = prob.sparsified
        expected = _reference_sparsified(prob)
        assert [_typed(row) for row in sparse.entries] == [
            _typed(row) for row in expected]
        assert sparse.is_row_regular()
        dropped += sum(a is not b for ra, rb in zip(prob.A.entries, expected)
                       for a, b in zip(ra, rb))
    assert zero_weights > 100 and dropped > 300


def test_complete_solution_checks_no_row_regularity(monkeypatch):
    # SpanProblem checked A, and its sparsified matrix is row-regular by
    # construction, so complete_solution checks neither again, not even
    # when a budget overrun lists the emitted selections
    rng = random.Random(109)
    problems = [random_span_problem(rng) for _ in range(40)]
    problems.append(SpanProblem(mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]]),
                                vec([0, 0, 0]), vec([-6, -2, -4])))
    checked = []
    is_row_regular = TropMatrix.is_row_regular

    def counting(matrix):
        checked.append(matrix)
        return is_row_regular(matrix)

    monkeypatch.setattr(TropMatrix, "is_row_regular", counting)
    for prob in problems:
        complete_solution(prob, prune=False)
        complete_solution(prob)
    with pytest.raises(EnumerationBudgetExceeded):
        complete_solution(problems[-1], budget=1)
    assert checked == []
    enumerate_selections(problems[-1].sparsified, problems[-1].p)
    assert checked == [problems[-1].sparsified]


def test_s1_built_once_per_distinct_bound(monkeypatch):
    # the 1200 x 3 problem of test_tall_dense_walk_follows_branching: its 51
    # selections share fewer lower bounds l, and S1 is built once per bound
    # no earlier bound covers; none of these bounds lies below another
    rng = random.Random(5)
    m = 1200
    prob = SpanProblem(mat([[rng.randint(-5, 5) for _ in range(3)]
                            for _ in range(m)]), vec([0] * m), vec([0] * 3))
    built = []

    def counting(*args):
        built.append(args)
        return generator_columns(*args)

    monkeypatch.setattr(spanopt, "generator_columns", counting)
    sol = complete_solution(prob)
    monkeypatch.undo()
    inv_delta = MAX_PLUS.inv(prob.delta)
    selections = list(enumerate_selections(prob.sparsified, prob.p))
    bounds = {(sel.materialize(prob.sparsified).conj() @ prob.p)
              .scale(inv_delta).entries for sel in selections}
    assert len(built) == len(bounds) < sol.enumerated_count == 51
    pooled = [col for sel in selections
              for col in selection_generators(sel, prob).generators.columns()]
    whole, _ = reduce_to_independent(TropMatrix.from_columns(MAX_PLUS, pooled))
    assert sol.generators.generators == canonical_column_order(whole)


def test_budget_overrun_counts_the_emitted_selections():
    rng = random.Random(83)
    for _ in range(100):
        prob = random_span_problem(rng, max_dim=6)
        walk = [s.chosen_col for s in enumerate_selections(
            prob.sparsified, prob.p, budget=None)]
        if len(walk) < 3:
            continue
        with pytest.raises(EnumerationBudgetExceeded) as info:
            complete_solution(prob, budget=len(walk) - 1)
        assert info.value.visited == len(walk) - 1


def test_budget_overrun_walks_once(monkeypatch):
    # the overrun ends the one walk that complete_solution pools from; an
    # exhaustive family over the budget is refused before any walk
    rng = random.Random(5)
    m = 1200
    prob = SpanProblem(mat([[rng.randint(-5, 5) for _ in range(3)]
                            for _ in range(m)]), vec([0] * m), vec([0] * 3))
    walks = []

    def counting(*args):
        walks.append(args)
        return _selections(*args)

    monkeypatch.setattr(spanopt, "_selections", counting)
    for prune, walked in ((True, 1), (False, 0)):
        walks.clear()
        with pytest.raises(EnumerationBudgetExceeded) as info:
            complete_solution(prob, budget=20, prune=prune)
        assert len(walks) == walked
        assert info.value.visited == 20
    with pytest.raises(TypeError):
        EnumerationBudgetExceeded("more than 1 selections", visited=1, partial=[])


def test_complete_solution_golden():
    prob = demo_span_problem()
    sol = complete_solution(prob)
    assert sol.delta == 2
    assert sol.generators.generators == mat([[0, -1], [Z, 0]])
    assert sol.enumerated_count == 1
    assert sol.pruned_count == 1

    d = mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    reduced = SpanProblem(d, vec([0, 0, 0]), vec([-6, -2, -4]))
    sol3 = complete_solution(reduced)
    assert sol3.generators.generators == mat([[0, Z, -2, Z],
                                              [Z, 0, Z, 2],
                                              [Z, Z, 0, 0]])
    assert (sol3.enumerated_count, sol3.pruned_count) == (2, 16)

    one_by_one = SpanProblem(mat([[4]]), vec([7]), vec([2]))
    assert complete_solution(one_by_one).generators.generators \
        == mat([[MAX_PLUS.one]])


def test_verify_optimal():
    prob = demo_span_problem()
    assert attains_minimum(prob, vec([1, 2]))
    assert not attains_minimum(prob, vec([0, 5]))
    assert objective(prob, vec([0, 5])) == 3
    sol = complete_solution(prob)
    for col in sol.generators.generators.columns():
        assert attains_minimum(prob, col)


def test_zero_weight_rows_do_not_branch():
    # row 2 carries no weight: its alternatives must not multiply selections
    prob = SpanProblem(mat([[1, 1], [3, 4]]), vec([5, Z]), vec([0, 0]))
    assert prob.sparsified == prob.A
    every = list(enumerate_selections(prob.sparsified, prob.p, prune=False))
    assert [s.chosen_col for s in every] == [(0, 0), (1, 0)]


def _objective_via_plain_ops(prob, x):
    # convention evaluation usable on columns with zero components
    sf = prob.semifield
    image = prob.A @ x
    return sf.mul(prob.q.conj() @ x, image.conj() @ prob.p)


def test_property_batch():
    rng = random.Random(97)
    for _ in range(60):
        prob = random_span_problem(rng)
        delta = prob.delta
        sf = prob.semifield
        sol = complete_solution(prob)
        s0 = sol.generators.generators

        # lower bound: no regular vector beats delta
        for _ in range(20):
            x = random_regular_vector(rng, prob.A.cols)
            assert sf.le(delta, objective(prob, x))

        # every generator column attains the minimum
        for col in s0.columns():
            assert attains_minimum(prob, col)
            assert _objective_via_plain_ops(prob, col) == delta

        # q is inside the complete span
        assert depends_on(s0, prob.q)

        # extended generators sit inside the complete span
        extended = interval_to_generators(extended_interval(prob))
        for col in extended.generators.columns():
            assert depends_on(s0, col)

        # closure under addition and scaling of optimal vectors
        x = prob.q.scale(rng.randint(-4, 4))
        y = prob.q.scale(rng.randint(-4, 4))
        assert attains_minimum(prob, x + y)
        assert attains_minimum(prob, x.scale(7))

        # pruned and exhaustive enumerations span the same set
        seen = set()
        for sel in enumerate_selections(prob.sparsified, prob.p, prune=False):
            for col in selection_generators(sel, prob).generators.columns():
                if col.entries in seen:
                    continue
                seen.add(col.entries)
                assert depends_on(s0, col)
