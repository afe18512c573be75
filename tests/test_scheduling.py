import random

import pytest

from conftest import (
    Z,
    demo_schedule_instance,
    mat,
    random_schedule_instance,
    vec,
)
from tropspan import (
    MAX_PLUS,
    MIN_PLUS,
    CoefficientOutOfBound,
    InfeasiblePrecedence,
    NotRegularMatrix,
    NotRegularVector,
    ScheduleInstance,
    ShapeMismatch,
    TropMatrix,
    check_schedule,
    compact_generators,
    instantiate,
    latest_schedule,
    reduced_span_problem,
    solve_schedule,
    span_seminorm,
    trace_closure,
)


def test_build_instance_golden():
    inst = demo_schedule_instance()
    assert trace_closure(inst.precedence) == -1
    assert inst.n == 3


def test_build_instance_rejects_positive_self_lag():
    a = TropMatrix.identity(MAX_PLUS, 2)
    b = mat([[1, Z], [Z, Z]])
    c = TropMatrix.zeros(MAX_PLUS, 2, 2)
    with pytest.raises(InfeasiblePrecedence):
        ScheduleInstance(a, b, c, vec([5, 5]))


def test_build_instance_accepts_uncoupled():
    a = mat([[0, -1], [-1, 0]])
    zeros = TropMatrix.zeros(MAX_PLUS, 2, 2)
    inst = ScheduleInstance(a, zeros, zeros, vec([5, 5]))
    assert trace_closure(inst.precedence) is Z


def test_build_instance_validation():
    zeros3 = TropMatrix.zeros(MAX_PLUS, 3, 3)
    a = mat([[3, -1, Z], [-2, 2, 0], [-1, Z, 4]])
    with pytest.raises(NotRegularMatrix):
        ScheduleInstance(mat([[1, Z], [2, Z]]), TropMatrix.zeros(MAX_PLUS, 2, 2),
                         TropMatrix.zeros(MAX_PLUS, 2, 2), vec([1, 1]))
    with pytest.raises(NotRegularVector):
        ScheduleInstance(a, zeros3, zeros3, vec([7, Z, 7]))
    with pytest.raises(ShapeMismatch):
        ScheduleInstance(a, TropMatrix.zeros(MAX_PLUS, 2, 2), zeros3,
                         vec([7, 7, 7]))


def test_build_instance_refuses_data_over_another_semifield():
    # a min-plus f used to be read as max-plus: coeff_bound (3), no failures
    a, zeros = mat([[0, -1], [-1, 0]]), TropMatrix.zeros(MAX_PLUS, 2, 2)
    other = TropMatrix.zeros(MIN_PLUS, 2, 2)
    for data in ((a, zeros, zeros, vec([5, 5], MIN_PLUS)),
                 (a, other, zeros, vec([5, 5])),
                 (a, zeros, other, vec([5, 5]))):
        with pytest.raises(ShapeMismatch,
                           match="^mixed semifields: max-plus vs min-plus$"):
            ScheduleInstance(*data)


def test_reduced_span_problem():
    inst = demo_schedule_instance()
    prob = reduced_span_problem(inst)
    assert prob.A == mat([[3, -1, 0], [5, 2, 3], [6, 2, 4]])
    assert prob.p == vec([0, 0, 0])
    assert prob.q == vec([-6, -2, -4])
    assert prob.delta == 3


def test_solve_schedule_golden():
    sol = solve_schedule(demo_schedule_instance())
    assert sol.delta == 3
    assert sol.span_generators == mat([[0, Z, -2, Z],
                                       [Z, 0, Z, 2],
                                       [Z, Z, 0, 0]])
    assert sol.x_generators == mat([[0, -5, -2, -3],
                                    [3, 0, 1, 2],
                                    [2, -2, 0, 0]])
    assert sol.y_generators == mat([[3, -1, 1, 1],
                                    [5, 2, 3, 4],
                                    [6, 2, 4, 4]])
    assert sol.coeff_bound == vec([1, 5, 3, 3])
    assert sol.y_generators == demo_schedule_instance().A @ sol.x_generators


def test_solve_schedule_single_activity():
    inst = ScheduleInstance(mat([[0]]), TropMatrix.zeros(MAX_PLUS, 1, 1),
                            TropMatrix.zeros(MAX_PLUS, 1, 1), vec([5]))
    sol = solve_schedule(inst)
    assert sol.delta == MAX_PLUS.one
    x, y = latest_schedule(sol)
    assert x == vec([5]) and y == vec([5])


def test_latest_schedule_golden():
    sol = solve_schedule(demo_schedule_instance())
    x, y = latest_schedule(sol)
    assert x == vec([1, 5, 3])
    assert y == vec([4, 7, 7])
    assert y.le(vec([7, 7, 7]))


def test_instantiate():
    inst = demo_schedule_instance()
    sol = solve_schedule(inst)
    assert instantiate(sol, sol.coeff_bound) == latest_schedule(sol)
    x, y = instantiate(sol, sol.coeff_bound.scale(-1))
    latest_x, latest_y = latest_schedule(sol)
    assert x == latest_x.scale(-1) and y == latest_y.scale(-1)
    assert span_seminorm(y) == sol.delta
    with pytest.raises(CoefficientOutOfBound):
        instantiate(sol, vec([2, 5, 3, 3]))
    with pytest.raises(NotRegularVector):
        instantiate(sol, vec([1, Z, 3, 3]))


def test_instantiate_compacted_two_coefficients():
    sol = compact_generators(solve_schedule(demo_schedule_instance()))
    assert sol.x_generators == mat([[0, -5], [3, 0], [2, -2]])
    assert sol.y_generators == mat([[3, -1], [5, 2], [6, 2]])
    assert sol.coeff_bound == vec([1, 5])
    x, y = instantiate(sol, vec([1, 5]))
    assert x == vec([1, 5, 3])
    assert y == vec([4, 7, 7])
    assert latest_schedule(sol) == (x, y)


def test_span_seminorm():
    assert span_seminorm(vec([4, 7, 7])) == 3
    assert span_seminorm(vec([6, 6, 6])) == MAX_PLUS.one
    assert span_seminorm(vec([0, 5])) == 5
    with pytest.raises(NotRegularVector):
        span_seminorm(vec([1, Z]))


def test_check_schedule():
    inst = demo_schedule_instance()
    sol = solve_schedule(inst)
    x, y = latest_schedule(sol)
    report = check_schedule(inst, x, y)
    assert report.ok
    assert report.span == 3
    assert report.failures == ()

    lowered = vec([3, 7, 7])
    report = check_schedule(inst, x, lowered)
    assert not report.ok
    assert report.failures == ("start-finish row 1",)


def test_check_schedule_unconstrained():
    eye = TropMatrix.identity(MAX_PLUS, 2)
    zeros = TropMatrix.zeros(MAX_PLUS, 2, 2)
    inst = ScheduleInstance(eye, zeros, zeros, vec([100, 100]))
    x = vec([4, -2])
    assert check_schedule(inst, x, x).ok


def _plain_grid_min_span(inst, lo=-10, hi=10):
    # independent oracle: exhaustive integer grid over start times
    n = inst.n
    a = inst.A.entries
    b = inst.B.entries
    c = inst.C.entries
    f = [float(v) for v in inst.f]
    ninf = float("-inf")

    def rowmax(rows, xs, i):
        best = ninf
        for j in range(n):
            e = rows[i][j]
            if e is Z:
                continue
            val = float(e) + xs[j]
            if val > best:
                best = val
        return best

    best_span = None
    from itertools import product
    for xs in product(range(lo, hi + 1), repeat=n):
        ys = [rowmax(a, xs, i) for i in range(n)]
        ok = True
        for i in range(n):
            if ys[i] > f[i] or rowmax(b, xs, i) > xs[i] or rowmax(c, ys, i) > xs[i]:
                ok = False
                break
        if not ok:
            continue
        span = max(ys) - min(ys)
        if best_span is None or span < best_span:
            best_span = span
    return best_span


def test_solve_matches_grid_oracle():
    rng = random.Random(71)
    checked = 0
    while checked < 12:
        inst = random_schedule_instance(rng, rng.randint(2, 3))
        sol = solve_schedule(inst)
        x, y = latest_schedule(sol)
        shift = min(0, -max(int(v) for v in x))
        x0 = x.scale(shift)
        if min(int(v) for v in x0) < -10:
            continue
        checked += 1
        report = check_schedule(inst, x0, y.scale(shift))
        assert report.ok and report.span == sol.delta
        assert _plain_grid_min_span(inst) == float(sol.delta)


def test_random_instances_round_trip():
    rng = random.Random(73)
    for _ in range(15):
        inst = random_schedule_instance(rng, rng.randint(1, 3))
        sol = solve_schedule(inst)
        for steps in (0, -1, -4):
            v = sol.coeff_bound.scale(steps)
            x, y = instantiate(sol, v)
            report = check_schedule(inst, x, y)
            assert report.ok
            assert report.span == sol.delta


def test_deadlines_always_admit_a_latest_schedule():
    # the bound (f^- D S0)^- is regular for any finite f, however early
    rng = random.Random(83)
    for _ in range(100):
        inst = random_schedule_instance(rng, rng.randint(1, 4),
                                        f_lo=-10 ** 6, f_hi=10)
        sol = solve_schedule(inst)
        assert sol.coeff_bound.is_regular()
        x, y = latest_schedule(sol)
        report = check_schedule(inst, x, y)
        assert report.ok and report.span == sol.delta
    broken = sol._replace(coeff_bound=vec([Z] * sol.coeff_bound.dim))
    with pytest.raises(NotRegularVector):
        latest_schedule(broken)


def test_generators_and_bound_agree_in_shape():
    # one x column and one y column per coefficient, with or without merging
    rng = random.Random(89)
    merged = 0
    for _ in range(60):
        sol = solve_schedule(random_schedule_instance(rng, rng.randint(1, 4)))
        compact = compact_generators(sol)
        merged += compact is not sol
        for record in (sol, compact):
            assert (record.x_generators.cols == record.y_generators.cols
                    == record.coeff_bound.dim)
    assert merged


def test_latest_schedule_is_maximal():
    rng = random.Random(79)
    for _ in range(15):
        inst = random_schedule_instance(rng, rng.randint(1, 3))
        sol = solve_schedule(inst)
        _, y = latest_schedule(sol)
        # some deadline is met exactly, so no uniform shift up is possible
        assert any(y[i] == inst.f[i] for i in range(inst.n))
        # raising any single coefficient leaves the admissible set
        bound = sol.coeff_bound
        for j in range(bound.dim):
            bumped = list(bound.entries)
            bumped[j] = bumped[j] + 1
            assert not vec(bumped).le(bound)
