import random

import pytest

from conftest import Z, mat, vec
from tropspan import (
    MAX_PLUS,
    GeneratorSet,
    IntervalSet,
    NotRegularVector,
    ShapeMismatch,
    ValidationError,
    SpectralConditionViolated,
    TropMatrix,
    ZeroColumn,
    depends_on,
    interval_to_generators,
    kleene_star,
    reduce_to_independent,
    solve_upper_bound,
)


def test_solve_upper_bound_golden():
    y_gens = mat([[3, -1, 1, 1], [5, 2, 3, 4], [6, 2, 4, 4]])
    assert solve_upper_bound(y_gens, vec([7, 7, 7])) == vec([1, 5, 3, 3])
    eye = TropMatrix.identity(MAX_PLUS, 2)
    assert solve_upper_bound(eye, vec([2, 3])) == vec([2, 3])


def test_solve_upper_bound_preconditions():
    with pytest.raises(ZeroColumn, match="A must have no zero columns"):
        solve_upper_bound(mat([[1, Z], [1, Z]]), vec([0, 0]))
    with pytest.raises(NotRegularVector):
        solve_upper_bound(mat([[1], [1]]), vec([0, Z]))


def test_solve_upper_bound_maximality():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) if rng.random() > 0.3 else Z
                 for _ in range(n)] for _ in range(m)]
        for j in range(n):
            if all(row[j] is Z for row in rows):
                rows[rng.randrange(m)][j] = rng.randint(-5, 5)
        a = mat(rows)
        d = vec([rng.randint(-5, 5) for _ in range(m)])
        x = solve_upper_bound(a, d)
        assert (a @ x).le(d)
        # bumping any coordinate breaks some row: plain-arithmetic probe
        for j in range(n):
            bumped = list(x.entries)
            bumped[j] = bumped[j] + 1
            violated = False
            for i in range(m):
                terms = [rows[i][k] + bumped[k] for k in range(n)
                         if rows[i][k] is not Z]
                if terms and max(terms) > d[i]:
                    violated = True
                    break
            assert violated, f"coordinate {j} was not maximal"


def test_solve_subinvariant():
    closed = mat([[Z, Z, -3], [3, -1, 1], [2, -2, Z]])
    assert kleene_star(closed) == mat([[0, -5, -3], [3, 0, 1], [2, -2, 0]])
    zeros = TropMatrix.zeros(MAX_PLUS, 2, 2)
    assert kleene_star(zeros) == TropMatrix.identity(MAX_PLUS, 2)
    with pytest.raises(SpectralConditionViolated):
        kleene_star(mat([[1]]))


def test_solve_subinvariant_soundness():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 0) if rng.random() > 0.4 else Z
                 for _ in range(n)] for _ in range(n)]
        a = mat(rows)
        star = kleene_star(a)
        for _ in range(5):
            u = vec([rng.randint(-6, 6) for _ in range(n)])
            x = star @ u
            assert (a @ x).le(x)


def test_interval_validation():
    with pytest.raises(NotRegularVector):
        IntervalSet(lower=vec([0, 0]), upper=vec([1, Z]))
    with pytest.raises(ValidationError):
        IntervalSet(lower=vec([5, 5]), upper=vec([1, 1]))
    with pytest.raises(ShapeMismatch):
        IntervalSet(lower=vec([0]), upper=vec([1, 1]))


def test_interval_to_generators_golden():
    s = interval_to_generators(IntervalSet(lower=vec([1, -1]),
                                           upper=vec([1, 2])))
    assert s.generators == mat([[0, -1], [-2, 0]])

    s1 = interval_to_generators(IntervalSet(lower=vec([-6, Z, Z]),
                                            upper=vec([-6, -2, -4])))
    assert s1.generators == mat([[0, -4, -2], [Z, 0, Z], [Z, Z, 0]])


def test_interval_degenerate_ray():
    g = vec([2, -1])
    s = interval_to_generators(IntervalSet(lower=g, upper=g))
    reduced, _ = reduce_to_independent(s.generators)
    assert reduced.cols == 1
    col = reduced.col(0)
    # single ray collinear with g
    offset = MAX_PLUS.mul(col[0], MAX_PLUS.inv(g[0]))
    assert col == g.scale(offset)


def test_interval_round_trip():
    rng = random.Random(41)
    sf = MAX_PLUS
    for _ in range(60):
        n = rng.randint(1, 4)
        h = vec([rng.randint(-4, 4) for _ in range(n)])
        g = vec([sf.mul(h[i], -rng.randint(0, 5)) if rng.random() > 0.25 else Z
                 for i in range(n)])
        interval = IntervalSet(lower=g, upper=h)
        gens = interval_to_generators(interval)
        # every generated x fits the interval with alpha = h^- u
        for _ in range(6):
            u = vec([rng.randint(-5, 5) for _ in range(n)])
            x = gens.generators @ u
            alpha = h.conj() @ u
            assert g.scale(alpha).le(x) and x.le(h.scale(alpha))
        # every point sampled inside the interval is generated
        for _ in range(6):
            alpha = rng.randint(-3, 3)
            entries = []
            for i in range(n):
                top = alpha + h[i]
                if g[i] is Z:
                    entries.append(top - rng.randint(0, 4))
                else:
                    bottom = alpha + g[i]
                    entries.append(rng.randint(0, top - bottom) + bottom)
            assert depends_on(gens.generators, vec(entries))


def test_membership_golden():
    gens = GeneratorSet(mat([[0, -1], [-2, 0]]))
    assert depends_on(gens.generators, vec([1, 2]))
    assert not depends_on(gens.generators, vec([0, 5]))
    assert depends_on(gens.generators, gens.generators.col(0))
    assert depends_on(gens.generators, gens.generators.col(1))
    assert not depends_on(gens.generators, vec([Z, Z]))


def test_membership_rejection_agrees_with_interval_scan():
    # independent oracle: x sits in the strip iff the alpha-interval
    # [max_i(x_i - upper_i), min_i(x_i - lower_i)] is nonempty
    lower, upper = vec([1, -1]), vec([1, 2])
    gens = interval_to_generators(IntervalSet(lower=lower, upper=upper))
    rng = random.Random(53)
    for _ in range(200):
        x = vec([rng.randint(-6, 6) for _ in range(2)])
        alpha_hi = min(x[i] - lower[i] for i in range(2))
        alpha_lo = max(x[i] - upper[i] for i in range(2))
        assert depends_on(gens.generators, x) == (alpha_lo <= alpha_hi)


def test_generator_set_refuses_zero_column():
    with pytest.raises(ZeroColumn):
        GeneratorSet(mat([[0, Z], [1, Z]]))
