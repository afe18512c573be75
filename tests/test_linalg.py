import random
import re
import time
from fractions import Fraction

import pytest

from conftest import (
    Z,
    demo_schedule_instance,
    demo_span_problem,
    mat,
    random_span_problem,
    vec,
)
from tropspan import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    AllZeroMatrix,
    IntervalSet,
    NotSquare,
    ScheduleInstance,
    ShapeMismatch,
    SpanProblem,
    SpectralConditionViolated,
    TropMatrix,
    TropVector,
    ZeroColumn,
    attains_minimum,
    complete_solution,
    delta,
    depends_on,
    instantiate,
    kleene_star,
    objective,
    reduce_to_independent,
    residuation_coefficients,
    solve_schedule,
    solve_upper_bound,
    trace_closure,
)
from tropspan.spanopt import (
    canonical_column_order,
    enumerate_selections,
    selection_generators,
)

# recurring three-activity precedence matrices with known closures
B_DEMO = mat([[Z, Z, -3], [2, Z, 0], [1, -2, Z]])
CA_DEMO = mat([[Z, Z, Z], [3, -1, 1], [2, -2, Z]])
STAR_DEMO = mat([[0, -5, -3], [3, 0, 1], [2, -2, 0]])


def test_mat_add():
    a = mat([[2, Z], [4, 1]])
    b = mat([[Z, Z], [3, -3]])
    assert a + b == a
    assert a + a == a
    assert B_DEMO + CA_DEMO == mat([[Z, Z, -3], [3, -1, 1], [2, -2, Z]])


def test_mat_add_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mat([[1, 2]]) + mat([[1], [2]])


_ROW, _COL3 = mat([[1, 2]]), mat([[1], [2], [3]])
_V2, _V3 = vec([1, 2]), vec([1, 2, 3])


@pytest.mark.parametrize("refused, message", [
    (lambda: _V2 + _V3, "vector dims 2 vs 3"),
    (lambda: _V3 @ _ROW, "row vector dim 3 vs 1 rows"),
    (lambda: _V2 @ _V3, "vector dims 2 vs 3"),
    (lambda: _V3.le(_V2), "vector dims 3 vs 2"),
    (lambda: _ROW + _COL3, "shapes (1, 2) vs (3, 1)"),
    (lambda: _ROW @ _COL3, "inner dims 2 vs 3"),
    (lambda: _COL3 @ _V2, "matrix cols 1 vs vector dim 2"),
    (lambda: _COL3.le(_ROW), "shapes (3, 1) vs (1, 2)"),
    (lambda: delta(_COL3, _V2), "matrix rows 3 vs vector dim 2"),
    (lambda: residuation_coefficients(_ROW, _V2), "matrix rows 1 vs vector dim 2"),
    (lambda: solve_upper_bound(_COL3, _V2), "matrix rows 3 vs vector dim 2"),
    (lambda: depends_on(_COL3, _V2), "matrix rows 3 vs vector dim 2"),
    (lambda: list(enumerate_selections(_COL3, _V2)), "p has dim 2, matrix has 3 rows"),
    (lambda: SpanProblem(_COL3, _V2, vec([0])), "p has dim 2, A has 3 rows"),
    (lambda: SpanProblem(_COL3, _V3, _V2), "q has dim 2, A has 1 columns"),
    (lambda: objective(demo_span_problem(), _V3), "x has dim 3, expected 2"),
    (lambda: attains_minimum(demo_span_problem(), _V3), "x has dim 3, expected 2"),
    (lambda: IntervalSet(_V2, _V3), "interval dims 2 vs 3"),
    (lambda: ScheduleInstance(_COL3, _COL3, _COL3, _V3), "A must be 3x3, got (3, 1)"),
    (lambda: ScheduleInstance(mat([[0]]), _ROW, _ROW, vec([0])),
     "B must be 1x1, got (1, 2)"),
    (lambda: ScheduleInstance(mat([[0]]), mat([[0]]), _COL3, vec([0])),
     "C must be 1x1, got (3, 1)"),
    (lambda: ScheduleInstance(mat([[0]]), mat([[0]]), mat([[0]]), _V2),
     "f must have 1 components, got 2"),
    (lambda: instantiate(solve_schedule(demo_schedule_instance()), _V3),
     "v has dim 3, expected 4"),
], ids=["vector-add", "vector-matrix", "vector-dot", "vector-le", "matrix-add",
        "matrix-matrix", "matrix-vector", "matrix-le", "delta", "residuation",
        "solve_upper_bound", "depends_on", "enumerate_selections", "span-p",
        "span-q", "objective",
        "attains_minimum", "interval", "schedule-A", "schedule-B", "schedule-C",
        "schedule-f", "instantiate"])
def test_operand_size_refusals_keep_their_texts(refused, message):
    # every size refusal of two operands, text for text
    with pytest.raises(ShapeMismatch) as caught:
        refused()
    assert str(caught.value) == message


def test_sum_and_order_of_a_vector_and_another_type_raise_type_error():
    # each used to read .dim or .shape of the other operand: AttributeError
    square = mat([[0, 1], [2, 3]])
    for refused, message in (
            (lambda: _V2 + square, "unsupported operand type"),
            (lambda: square + _V2, "unsupported operand type"),
            (lambda: _V2 + 1, "unsupported operand type"),
            (lambda: square + 1, "unsupported operand type"),
            (lambda: _V2.le(square), "TropVector against TropMatrix"),
            (lambda: square.le(_V2), "TropMatrix against TropVector"),
            (lambda: _V2.le(1), "TropVector against int")):
        with pytest.raises(TypeError, match=message):
            refused()


@pytest.mark.parametrize("refused", [
    lambda: residuation_coefficients(mat([[1, 2], [3, 4]]), vec([0, 1], MIN_PLUS)),
    lambda: solve_upper_bound(mat([[1, 2], [3, 4]]), vec([0, 1], MIN_PLUS)),
    lambda: depends_on(mat([[1, 2], [3, 4]]), vec([0, 1], MIN_PLUS)),
    lambda: depends_on(mat([[1, 2], [3, 4]]), vec([Z, Z], MIN_PLUS)),
    lambda: list(enumerate_selections(mat([[1, 2], [3, 4]]), vec([0, 1], MIN_PLUS))),
], ids=["residuation_coefficients", "solve_upper_bound", "depends_on",
        "depends_on_zero_vector", "enumerate_selections"])
def test_right_hand_side_over_another_semifield_is_refused(refused):
    # each used to compute in A's semifield: the residuation read (-2, -3)
    with pytest.raises(ShapeMismatch, match="^mixed semifields: "):
        refused()


def test_from_columns_refuses_columns_over_another_semifield():
    # a min-plus column used to come back as a max-plus matrix entry
    for columns, message in (
            ([vec([5, 1], MIN_PLUS)], "mixed semifields: min-plus vs max-plus"),
            ([vec([5, 1]), vec([0, 2], MIN_PLUS)],
             "mixed semifields: min-plus vs max-plus"),
            ([vec([5, 1]), vec([0, 2, 3])], "columns of unequal length"),
            ([], "at least one column required")):
        with pytest.raises(ShapeMismatch) as caught:
            TropMatrix.from_columns(MAX_PLUS, columns)
        assert str(caught.value) == message
    assert TropMatrix.from_columns(MIN_PLUS, [vec([5, 1], MIN_PLUS)]) == \
        mat([[5], [1]], MIN_PLUS)


def test_mat_mul():
    a = mat([[2, 0], [4, 1]])
    assert a @ vec([1, 2]) == vec([3, 5])
    eye = TropMatrix.identity(MAX_PLUS, 2)
    assert eye @ a == a
    c = mat([[Z, Z, Z], [0, Z, -3], [-1, Z, Z]])
    a3 = mat([[3, -1, Z], [-2, 2, 0], [-1, Z, 4]])
    assert c @ a3 == CA_DEMO


# -- the product and residuation kernels against naive references -----------

SEMIFIELDS_ALL = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)


def _kernel_entries(rng, sf, count, zeros):
    # ints and Fractions in the domain of sf, each ZERO with chance zeros
    lo = 1 if sf in (MAX_TIMES, MIN_TIMES) else -9
    return [Z if rng.random() < zeros else
            sf.check_value(Fraction(rng.randint(lo, 9), rng.choice((1, 1, 2, 3))))
            for _ in range(count)]


def _kernel_shapes(rng):
    # 1 x n, n x 1 and 1 x 1 as often as larger operands
    return [rng.choice((1, 1, rng.randint(2, 5))) for _ in range(3)]


def _typed(entries):
    return [(type(e), e) for e in entries]


def _dot(sf, xs, ys):
    # one product per entry, zeros included: the definition, not the kernel
    acc = Z
    for a, b in zip(xs, ys):
        acc = sf.add(acc, sf.mul(a, b))
    return acc


def test_products_match_dot_reference_type_exact():
    rng = random.Random(59)
    for sf in SEMIFIELDS_ALL:
        for zeros in (0.0, 0.5, 0.9):
            for _ in range(40):
                m, k, n = _kernel_shapes(rng)
                a = TropMatrix(sf, [_kernel_entries(rng, sf, k, zeros)
                                    for _ in range(m)])
                b = TropMatrix(sf, [_kernel_entries(rng, sf, n, zeros)
                                    for _ in range(k)])
                x = TropVector(sf, _kernel_entries(rng, sf, k, zeros))
                y = TropVector(sf, _kernel_entries(rng, sf, k, zeros))
                cols_b = list(zip(*b.entries))
                for got, row in zip((a @ b).entries, a.entries):
                    assert _typed(got) == _typed([_dot(sf, row, c) for c in cols_b])
                assert _typed(a @ x) == _typed([_dot(sf, row, x) for row in a.entries])
                assert _typed(x @ b) == _typed([_dot(sf, x, c) for c in cols_b])
                assert _typed([x @ y]) == _typed([_dot(sf, x, y)])


def _order_min_residuation(a, b):
    # coefficient j is the order-least b_i a_ij^-1 over the column's support,
    # zero when that support meets a zero b_i or is empty
    sf = a.semifield
    out = []
    for col in zip(*a.entries):
        best = None
        for a_ij, b_i in zip(col, b):
            if a_ij is Z:
                continue
            if b_i is Z:
                best = Z
                break
            c = sf.mul(b_i, sf.inv(a_ij))
            if best is None or sf.le(c, best):
                best = c
        out.append(Z if best is None else best)
    return out


def test_residuation_matches_order_min_reference_type_exact():
    rng = random.Random(61)
    for sf in SEMIFIELDS_ALL:
        for zeros in (0.0, 0.4, 0.8):
            for _ in range(60):
                m, n, _ = _kernel_shapes(rng)
                a = TropMatrix(sf, [_kernel_entries(rng, sf, n, zeros)
                                    for _ in range(m)])
                b = TropVector(sf, _kernel_entries(rng, sf, m, zeros))
                expected = _typed(_order_min_residuation(a, b))
                assert _typed(residuation_coefficients(a, b)) == expected
                if a.is_column_regular() and b.is_regular():
                    assert _typed(solve_upper_bound(a, b)) == expected


def test_conj_transpose():
    d1 = mat([[3, Z, Z], [5, Z, Z], [6, Z, Z]])
    assert d1.conj() == mat([[-3, -5, -6], [Z, Z, Z], [Z, Z, Z]])
    eye = TropMatrix.identity(MAX_PLUS, 3)
    assert eye.conj() == eye
    assert vec([1, 2]).conj() == vec([-1, -2])
    with pytest.raises(AllZeroMatrix):
        TropMatrix.zeros(MAX_PLUS, 2, 2).conj()


def test_trace_closure():
    assert trace_closure(B_DEMO + CA_DEMO) == -1
    assert trace_closure(TropMatrix.zeros(MAX_PLUS, 3, 3)) is Z
    assert trace_closure(TropMatrix.identity(MAX_PLUS, 3)) == 0
    with pytest.raises(NotSquare):
        trace_closure(mat([[1, 2]]))


def test_kleene_star():
    assert kleene_star(B_DEMO + CA_DEMO) == STAR_DEMO
    assert kleene_star(TropMatrix.zeros(MAX_PLUS, 3, 3)) \
        == TropMatrix.identity(MAX_PLUS, 3)
    assert kleene_star(mat([[Z, -1], [-1, Z]])) == mat([[0, -1], [-1, 0]])
    with pytest.raises(SpectralConditionViolated):
        kleene_star(mat([[1]]))


def _plain_power_sum(rows, terms):
    # independent oracle: plain max/+ matrix powers summed up to `terms`
    n = len(rows)
    ninf = float("-inf")
    def tofloat(m):
        return [[ninf if e is Z else float(e) for e in row] for row in m]
    def mul(x, y):
        return [[max(x[i][k] + y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    base = tofloat(rows)
    acc = [[0.0 if i == j else ninf for j in range(n)] for i in range(n)]
    power = [row[:] for row in acc]
    for _ in range(terms):
        power = mul(power, base)
        acc = [[max(a, b) for a, b in zip(ra, rb)]
               for ra, rb in zip(acc, power)]
    return acc


def test_kleene_star_matches_long_power_sum():
    rng = random.Random(11)
    found = 0
    while found < 40:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 0) if rng.random() > 0.4 else Z
                 for _ in range(n)] for _ in range(n)]
        m = mat(rows)
        sf = m.semifield
        if not sf.le(trace_closure(m), sf.one):
            continue
        found += 1
        star = kleene_star(m)
        oracle = _plain_power_sum(rows, 2 * n)
        got = [[float("-inf") if e is Z else float(e) for e in row]
               for row in star.entries]
        assert got == oracle
        # geometric stability: A* A* = A* and A A* <= A*
        assert star @ star == star
        assert (m @ star).le(star)


class _TraceAboveOne(Exception):
    # the reference star's refusal, carrying Tr(A)
    def __init__(self, tr):
        super().__init__(f"Tr = {tr} exceeds the identity")
        self.tr = tr


def _power_series_star(matrix):
    # the star as the power series I (+) A (+) ... (+) A^(n-1), on plain
    # lists, refused when Tr(A), the trace of A A*, lies above one; the
    # reference for the elimination in kleene_star
    sf = matrix.semifield
    a = [list(row) for row in matrix.entries]
    n = len(a)

    def product(x, y):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Z
                for k in range(n):
                    acc = sf.add(acc, sf.mul(x[i][k], y[k][j]))
                row.append(acc)
            out.append(row)
        return out

    star = [[sf.one if i == j else Z for j in range(n)] for i in range(n)]
    power = star
    for _ in range(n - 1):
        power = product(power, a)
        star = [[sf.add(s, t) for s, t in zip(rs, rt)]
                for rs, rt in zip(star, power)]
    closed = product(a, star)
    tr = Z
    for i in range(n):
        tr = sf.add(tr, closed[i][i])
    if not sf.le(tr, sf.one):
        raise _TraceAboveOne(tr)
    return TropMatrix(sf, star)


def _random_star_scalar(rng, sf):
    # mostly at or below one, so that cycles above one are not certain
    if sf in (MAX_TIMES, MIN_TIMES):
        value = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        return value if sf is MAX_TIMES else 1 / value
    value = Fraction(rng.randint(-8, 2), rng.randint(1, 2))
    return value if sf is MAX_PLUS else -value


def test_kleene_star_matches_power_series():
    rng = random.Random(59)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        feasible = refused = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            density = rng.random()
            m = TropMatrix(sf, [[_random_star_scalar(rng, sf)
                                 if rng.random() < density else Z
                                 for _ in range(n)] for _ in range(n)])
            try:
                expected = _power_series_star(m)
            except _TraceAboveOne as exc:
                # the refusal names a pivot k and its simple-cycle weight
                # c_kk, so one < c_kk <= Tr
                refused += 1
                with pytest.raises(SpectralConditionViolated) as info:
                    kleene_star(m)
                found = re.fullmatch(
                    r"a cycle through vertex (\d+) weighs (\S+), above the "
                    r"identity; A x <= x has no regular solution",
                    str(info.value))
                assert int(found[1]) < n
                weight = Fraction(found[2])
                assert not sf.le(weight, sf.one) and sf.le(weight, exc.tr)
                continue
            feasible += 1
            star = kleene_star(m)
            # by type too: == alone lets 2 equal Fraction(2, 1)
            assert (list(map(_typed, star.entries))
                    == list(map(_typed, expected.entries)))
            assert star @ star == star
        assert feasible >= 20 and refused >= 20, (sf, feasible, refused)


def test_kleene_star_refuses_before_eliminating():
    # every cycle is above one; checking only after the elimination would
    # square the entries at every pivot, up to 2^(2^24)
    m = TropMatrix(MAX_TIMES, [[2] * 24 for _ in range(24)])
    start = time.perf_counter()
    with pytest.raises(SpectralConditionViolated,
                       match=r"^a cycle through vertex 0 weighs 2, "):
        kleene_star(m)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("sf, rows, vertex, weight", [
    (MAX_PLUS, [[1]], 0, 1),
    (MIN_PLUS, [[-1]], 0, -1),
    (MAX_TIMES, [[2]], 0, 2),
    (MIN_TIMES, [[Fraction(1, 2)]], 0, Fraction(1, 2)),
    (MAX_PLUS, [[Z, Fraction(1, 4)], [Fraction(1, 4), Z]], 1, Fraction(1, 2)),
    (MIN_PLUS, [[Z, Fraction(-1, 3)], [-1, Z]], 1, Fraction(-4, 3)),
    (MAX_TIMES, [[Z, Fraction(3, 2)], [Fraction(3, 2), Z]], 1, Fraction(9, 4)),
    (MIN_TIMES, [[Z, Fraction(2, 3)], [Fraction(1, 2), Z]], 1, Fraction(1, 3)),
])
def test_kleene_star_refusal_carries_vertex_and_weight(sf, rows, vertex, weight):
    with pytest.raises(SpectralConditionViolated) as caught:
        kleene_star(mat(rows, sf))
    exc = caught.value
    assert (exc.vertex, type(exc.weight), exc.weight) == (
        vertex, type(weight), weight)
    assert str(exc) == (f"a cycle through vertex {vertex} weighs "
                        f"{sf.format_scalar(weight)}, above the identity; "
                        "A x <= x has no regular solution")


def test_kleene_star_refusal_computes_no_trace():
    # the refusing pivot already holds a cycle weight above one, so the
    # refusal runs no O(n^4) power series for Tr
    m = TropMatrix(MAX_PLUS, [[1] * 60 for _ in range(60)])
    start = time.perf_counter()
    with pytest.raises(SpectralConditionViolated,
                       match=r"^a cycle through vertex 0 weighs 1, "):
        kleene_star(m)
    assert time.perf_counter() - start < 1.0


def test_aa_conj_dominates_identity():
    rng = random.Random(3)
    for _ in range(60):
        prob = random_span_problem(rng)
        a = prob.A
        eye = TropMatrix.identity(MAX_PLUS, a.rows)
        prod = a @ a.conj()
        assert eye.le(prod)


def test_single_entry_rows_give_subidentity():
    # one nonzero entry per row: A^- A <= I
    a = mat([[2, Z, Z], [Z, Z, -1], [4, Z, Z]])
    eye = TropMatrix.identity(MAX_PLUS, 3)
    assert (a.conj() @ a).le(eye)


def test_conjugate_outer_product_identity():
    def outer(u, w):
        # u w^T as the product of an n x 1 and a 1 x n matrix
        return mat([[a] for a in u.entries]) @ mat([w.entries])

    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        x = vec([rng.randint(-6, 6) for _ in range(n)])
        y = vec([rng.randint(-6, 6) for _ in range(n)])
        assert outer(x, y.conj()).conj() == outer(y, x.conj())
        assert x.conj() @ x == MAX_PLUS.one
        eye = TropMatrix.identity(MAX_PLUS, n)
        assert eye.le(outer(x, x.conj()))


def test_delta_golden_values():
    s1 = mat([[0, -1], [Z, 0]])
    assert delta(s1, vec([0, -2])) == MAX_PLUS.one
    s0 = mat([[0, Z, -2, Z], [Z, 0, Z, 2], [Z, Z, 0, 0]])
    assert delta(s0, vec([-4, 0, Z])) == MAX_PLUS.one
    single = mat([[1], [4]])
    assert delta(single, vec([1, 4])) == MAX_PLUS.one


def test_delta_detects_independence():
    s1 = mat([[0, -1], [Z, 0]])
    assert delta(s1, vec([0, 5])) == 4  # residual gap of the best combination


def test_delta_is_zero_exactly_when_the_residual_is():
    # delta tests only b^- A for zero: a finite entry j of it needs finite
    # a_ij and b_i, and then entry i of A (b^- A)^- is finite
    rng = random.Random(67)
    zero = finite = 0
    for sf in SEMIFIELDS_ALL:
        for zeros in (0.3, 0.6, 0.85):
            for _ in range(60):
                m, n, _ = _kernel_shapes(rng)
                a = TropMatrix(sf, [_kernel_entries(rng, sf, n, zeros)
                                    for _ in range(m)])
                b = TropVector(sf, _kernel_entries(rng, sf, m, zeros))
                if a.is_zero() or b.is_zero():
                    continue
                residual_is_zero = (b.conj() @ a).is_zero()
                assert (delta(a, b) is Z) == residual_is_zero
                zero += residual_is_zero
                finite += not residual_is_zero
    assert zero > 20 and finite > 100


def test_reduce_drops_dependent_column():
    s = mat([[0, -1, 0], [Z, 0, -2]])
    reduced, kept = reduce_to_independent(s)
    assert kept == [0, 1]
    assert reduced == mat([[0, -1], [Z, 0]])


def test_reduce_three_activity_pool():
    s = mat([[0, Z, -2, Z, -4, 0],
             [Z, 0, Z, 2, 0, 4],
             [Z, Z, 0, 0, Z, Z]])
    reduced, kept = reduce_to_independent(s)
    assert kept == [0, 1, 2, 3]
    assert reduced == mat([[0, Z, -2, Z], [Z, 0, Z, 2], [Z, Z, 0, 0]])


def test_reduce_merges_duplicates():
    s = mat([[1, 1], [2, 2]])
    reduced, kept = reduce_to_independent(s)
    assert kept == [0]
    assert reduced == mat([[1], [2]])
    with pytest.raises(ZeroColumn):
        reduce_to_independent(mat([[1, Z], [1, Z]]))


def test_reduce_preserves_span():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 4)
        k = rng.randint(1, 6)
        cols = []
        for _ in range(k):
            col = [rng.randint(-5, 5) if rng.random() > 0.3 else Z
                   for _ in range(m)]
            if all(e is Z for e in col):
                col[rng.randrange(m)] = rng.randint(-5, 5)
            cols.append(col)
            if rng.random() < 0.3:
                # seed a scaled duplicate so collinearity is exercised
                shift = rng.randint(-3, 3)
                cols.append([Z if e is Z else e + shift for e in col])
        s = TropMatrix.from_columns(MAX_PLUS, [vec(c) for c in cols])
        reduced, kept = reduce_to_independent(s)
        assert reduced.cols == len(kept)
        for j in range(s.cols):
            assert depends_on(reduced, s.col(j))
        # kept columns are verbatim input columns, in input order
        assert kept == sorted(kept)
        for pos, j in enumerate(kept):
            assert reduced.col(pos) == s.col(j)


def test_reduce_no_kept_column_depends_on_the_rest():
    rng = random.Random(31)
    for _ in range(40):
        prob = random_span_problem(rng)
        cols = [prob.A.col(j) for j in range(prob.A.cols)
                if not prob.A.col(j).is_zero()]
        if not cols:
            continue
        s = TropMatrix.from_columns(MAX_PLUS, cols)
        reduced, kept = reduce_to_independent(s)
        for pos in range(reduced.cols):
            others = [reduced.col(i) for i in range(reduced.cols) if i != pos]
            if not others:
                continue
            rest = TropMatrix.from_columns(MAX_PLUS, others)
            assert not depends_on(rest, reduced.col(pos))


def _reference_reduce(matrix):
    # the survivor loop the reduction replaced: keep the first column of each
    # ray, then drop each survivor that depends on all the other survivors
    sf = matrix.semifield
    cols = matrix.columns()

    def collinear(u, v):
        sup = u.support()
        if sup != v.support():
            return False
        ratio = sf.mul(u[sup[0]], sf.inv(v[sup[0]]))
        return all(u[i] == sf.mul(ratio, v[i]) for i in sup)

    kept = []
    for j in range(len(cols)):
        if not any(collinear(cols[j], cols[i]) for i in kept):
            kept.append(j)
    current = list(kept)
    for j in list(current):
        others = [i for i in current if i != j]
        if others and depends_on(
                TropMatrix.from_columns(sf, [cols[i] for i in others]), cols[j]):
            current.remove(j)
    return TropMatrix.from_columns(sf, [cols[i] for i in current]), current


def _random_scalar(rng, sf):
    if sf is MAX_TIMES:
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return Fraction(rng.randint(-12, 12), rng.randint(1, 3))


def _random_pool(rng, sf):
    m = rng.randint(1, 5)
    cols = []
    for _ in range(rng.randint(1, 10)):
        col = [_random_scalar(rng, sf) if rng.random() > 0.3 else Z
               for _ in range(m)]
        if all(e is Z for e in col):
            col[rng.randrange(m)] = _random_scalar(rng, sf)
        cols.append(col)
        if rng.random() < 0.3:
            # a scaled duplicate of an earlier column
            c = _random_scalar(rng, sf)
            cols.append([sf.mul(c, e) for e in rng.choice(cols)])
        if len(cols) > 1 and rng.random() < 0.3:
            # a combination of two earlier columns
            u, v = rng.sample(cols, 2)
            cu, cv = _random_scalar(rng, sf), _random_scalar(rng, sf)
            cols.append([sf.add(sf.mul(cu, a), sf.mul(cv, b))
                         for a, b in zip(u, v)])
    rng.shuffle(cols)
    return TropMatrix(sf, [list(row) for row in zip(*cols)])


def test_reduce_matches_reference_loop():
    rng = random.Random(41)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES):
        for _ in range(150):
            pool = _random_pool(rng, sf)
            assert reduce_to_independent(pool) == _reference_reduce(pool)


def test_complete_solution_matches_reference_reduction():
    rng = random.Random(43)
    for n in (4, 4, 5, 5, 6, 6):
        rows = [[rng.randint(-5, 5) if rng.random() < 0.8 else Z
                 for _ in range(n)] for _ in range(n)]
        for row in rows:
            if all(e is Z for e in row):
                row[rng.randrange(n)] = rng.randint(-5, 5)
        prob = SpanProblem(mat(rows), vec([rng.randint(-5, 5) for _ in range(n)]),
                           vec([rng.randint(-5, 5) for _ in range(n)]))
        pooled = TropMatrix.from_columns(MAX_PLUS, [
            col for sel in enumerate_selections(prob.sparsified, prob.p)
            for col in selection_generators(sel, prob).generators.columns()])
        reference, _ = _reference_reduce(pooled)
        assert complete_solution(prob).generators.generators \
            == canonical_column_order(reference)
