"""The integer lift of schedules with Fraction lags against the unlifted
pipeline.

ScheduleInstance scales max-plus and min-plus data by the lcm L of its
denominators and solve_schedule divides the results back.  The reference
here recomposes the unlifted pipeline from public functions, so every field
must come out equal with its Python type: an integral value as an int, the
rest as Fractions.  test_cli pins the refusal text of a lifted max-plus
schedule, and the min-plus one is pinned here.
"""

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Z, mat, vec
from tropspan import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    EnumerationBudgetExceeded,
    InfeasiblePrecedence,
    SpectralConditionViolated,
    ScheduleInstance,
    SpanProblem,
    TropMatrix,
    TropVector,
    compact_generators,
    complete_solution,
    instantiate,
    kleene_star,
    latest_schedule,
    solve_schedule,
    solve_upper_bound,
)
from tropspan.documents import parse_problem
from tropspan.linalg import ray_key
from tropspan.scheduling import LIFT_CAP, _lift_scale

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 5000


def typed(value):
    """Nested tuples of (type name, value) for scalars, matrices, vectors."""
    if isinstance(value, (TropMatrix, TropVector)):
        return (value.semifield.name, typed(value.entries))
    if isinstance(value, (tuple, list)):
        return tuple(typed(v) for v in value)
    return (type(value).__name__, value)


def reference(inst: ScheduleInstance, prune: bool):
    """closure, precedence and every ScheduleSolution field, unlifted."""
    precedence = inst.B + inst.C @ inst.A
    closure = kleene_star(precedence)
    D = inst.A @ closure
    ones = TropVector.ones(inst.semifield, inst.n)
    found = complete_solution(SpanProblem(D, ones, (ones @ D).conj()),
                              prune=prune, budget=BUDGET)
    s0 = found.generators.generators
    y_gens = D @ s0
    return (closure, precedence, found.delta, closure @ s0, y_gens,
            solve_upper_bound(y_gens, inst.f), s0, D, found.enumerated_count,
            found.pruned_count)


def assert_same_as_unlifted(inst: ScheduleInstance):
    for prune in (True, False):
        try:
            want = reference(inst, prune)
        except EnumerationBudgetExceeded as exc:
            with pytest.raises(EnumerationBudgetExceeded) as got:
                solve_schedule(inst, prune=prune, budget=BUDGET)
            assert got.value.visited == exc.visited
            continue
        sol = solve_schedule(inst, prune=prune, budget=BUDGET)
        assert typed((inst.closure, inst.precedence, *sol)) == typed(want)
        x_gens, y_gens, bound = want[3:6]
        assert typed(latest_schedule(sol)) == typed((x_gens @ bound,
                                                     y_gens @ bound))


def assert_keeps_no_lifted_copy(inst: ScheduleInstance):
    scale, A, closure, f = inst._lifted
    assert scale == 1
    assert A is inst.A and closure is inst.closure and f is inst.f


@pytest.fixture(scope="module")
def half_unit_corpus():
    """The n = 22 and 24 schedules, in half units, of the schedule-jit seed 1
    corpus of benchmark/corpus.py, read and never written."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        texts, _ = importlib.import_module("corpus").schedule_jit(1)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(ROOT / "benchmark"))
        for name in ("corpus", "oracle"):
            sys.modules.pop(name, None)
    out = []
    for text in texts:
        entries = parse_problem(text).entries
        if entries["A"].rows in (22, 24):
            out.append(ScheduleInstance(*(entries[k] for k in "ABCf")))
    return out


def test_half_unit_corpus_schedules_match_the_unlifted_pipeline(
        half_unit_corpus):
    assert len(half_unit_corpus) == 18
    for inst in half_unit_corpus:
        assert inst._lifted[0] == 2
        assert_same_as_unlifted(inst)


def random_fraction_schedule(rng: random.Random, sf, n: int,
                             fractional_f: bool) -> ScheduleInstance:
    """Lags with denominators drawn from 1, 2, 3, 4 and 10, sampled until
    the precedence is feasible; the lags of B and C lean towards the
    semifield's lighter side, so most draws are."""
    dens = rng.sample((1, 2, 3, 4, 10), rng.randint(1, 3))
    light = (-12, 2) if sf is MAX_PLUS else (-2, 12)

    def lag(density, lo=-12, hi=12):
        if rng.random() > density:
            return Z
        return Fraction(rng.randint(lo, hi), rng.choice(dens))

    while True:
        A = [[lag(0.7) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if A[i][i] is Z:
                A[i][i] = lag(1.0)
        B, C = ([[lag(0.3, *light) for _ in range(n)] for _ in range(n)]
                for _ in "BC")
        f = [Fraction(rng.randint(0, 40), rng.choice(dens)) if fractional_f
             else rng.randint(0, 10) for _ in range(n)]
        try:
            return ScheduleInstance(mat(A, sf), mat(B, sf), mat(C, sf),
                                    vec(f, sf))
        except InfeasiblePrecedence:
            continue


def test_random_fraction_schedules_match_the_unlifted_pipeline():
    rng = random.Random(20)
    lifts = set()
    for index in range(200):
        sf = MIN_PLUS if index % 4 == 3 else MAX_PLUS
        inst = random_fraction_schedule(rng, sf, rng.randint(1, 5),
                                        index % 2 == 1)
        lifts.add(inst._lifted[0])
        assert_same_as_unlifted(inst)
    # integral draws, denominators 2, 3, 4 and 10, and lcms up to 60
    assert {1, 2, 3, 4, 10, 12, 60}.issubset(lifts)


def reference_compact(sol):
    """compact_generators as it merged through TropVector columns, before it
    worked on row tables: every field must keep its value and its type."""
    sf = sol.x_generators.semifield
    x_cols = sol.x_generators.columns()
    y_cols = sol.y_generators.columns()
    reps, merged_bound, slots = [], [], {}
    for j, col in enumerate(x_cols):
        key = ray_key(sf, col.entries)
        slot = slots.get(key)
        if slot is None:
            slots[key] = len(reps)
            reps.append(j)
            merged_bound.append(sol.coeff_bound[j])
            continue
        r = reps[slot]
        sup = col.support()[0]
        kappa = sf.mul(col[sup], sf.inv(x_cols[r][sup]))
        merged_bound[slot] = sf.add(merged_bound[slot],
                                    sf.mul(kappa, sol.coeff_bound[j]))
    if len(reps) == len(x_cols):
        return sol
    return sol._replace(
        x_generators=TropMatrix.from_columns(sf, [x_cols[r] for r in reps]),
        y_generators=TropMatrix.from_columns(sf, [y_cols[r] for r in reps]),
        coeff_bound=TropVector(sf, merged_bound),
    )


def count_same_compaction(instances) -> int:
    """How many of the solutions compact_generators merges, after checking
    each against reference_compact, type for type."""
    merged = 0
    for inst in instances:
        sol = solve_schedule(inst)
        compact = compact_generators(sol)
        assert typed(compact) == typed(reference_compact(sol))
        merged += compact is not sol
    return merged


def random_max_times_schedule(rng: random.Random, n: int) -> ScheduleInstance:
    """Positive int and Fraction data.  A is at most 12, B at most 1 and C at
    most 1/12, so every entry of B (+) C A, and every cycle, weighs at most
    1: the precedence is always feasible."""
    def lag(density, value):
        return value() if rng.random() < density else Z

    def duration():
        return Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))

    A = [[lag(0.7, duration) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        A[i][i] = duration()
    B = [[lag(0.3, lambda: Fraction(rng.randint(1, 4), 4)) for _ in range(n)]
         for _ in range(n)]
    C = [[lag(0.3, lambda: Fraction(1, rng.randint(12, 36))) for _ in range(n)]
         for _ in range(n)]
    f = [duration() * 4 for _ in range(n)]
    return ScheduleInstance(mat(A, MAX_TIMES), mat(B, MAX_TIMES),
                            mat(C, MAX_TIMES), vec(f, MAX_TIMES))


def test_compact_generators_keeps_values_and_types(half_unit_corpus):
    rng = random.Random(5)
    min_plus = [random_fraction_schedule(rng, MIN_PLUS, rng.randint(1, 5), True)
                for _ in range(40)]
    max_times = [random_max_times_schedule(rng, rng.randint(1, 5))
                 for _ in range(40)]
    assert count_same_compaction(half_unit_corpus) == 18
    assert count_same_compaction(min_plus) > 0
    assert count_same_compaction(max_times) > 0


def test_times_semifield_is_not_lifted():
    inst = ScheduleInstance(mat([[Fraction(1, 2)]], MAX_TIMES),
                            mat([[Z]], MAX_TIMES), mat([[Z]], MAX_TIMES),
                            vec([Fraction(3, 2)], MAX_TIMES))
    assert_keeps_no_lifted_copy(inst)
    assert_same_as_unlifted(inst)


def primes(count: int) -> list[int]:
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def test_lcm_above_the_cap_takes_the_unlifted_path():
    # 20 distinct prime denominators: their lcm is about 5.6e26 > 2**62
    dens = iter(primes(20))
    n = 4
    A = [[Fraction(i - j, next(dens)) if i >= j else Z for j in range(n)]
         for i in range(n)]
    B = [[Fraction(1, next(dens)) if i > j else Z for j in range(n)]
         for i in range(n)]
    f = [Fraction(7, next(dens)) for _ in range(n)]
    inst = ScheduleInstance(mat(A), mat(B), mat([[Z] * n] * n), vec(f))
    assert_keeps_no_lifted_copy(inst)
    assert_same_as_unlifted(inst)


def test_lcm_at_the_cap_is_lifted_and_one_past_it_is_not():
    def instance(*dens):
        return ScheduleInstance(mat([[Fraction(1, d) for d in dens]] * 2),
                                mat([[Z, Z], [Z, Z]]), mat([[Z, Z], [Z, Z]]),
                                vec([1, 2]))

    at_cap = instance(LIFT_CAP, 2)
    assert at_cap._lifted[0] == LIFT_CAP
    assert_same_as_unlifted(at_cap)
    past_cap = instance(LIFT_CAP, 3)
    assert_keeps_no_lifted_copy(past_cap)
    assert_same_as_unlifted(past_cap)



def test_min_plus_lifted_refusal_names_the_cycle_weight_in_data_units():
    # the star runs on the lags times 4, where this cycle weighs -2
    quarter = Fraction(-1, 4)
    with pytest.raises(InfeasiblePrecedence) as refused:
        ScheduleInstance(mat([[0, 0], [0, 0]], MIN_PLUS),
                         mat([[Z, quarter], [quarter, Z]], MIN_PLUS),
                         mat([[Z, Z], [Z, Z]], MIN_PLUS),
                         vec([5, 5], MIN_PLUS))
    assert "a cycle through vertex 1 weighs -1/2" in str(refused.value)


def test_lifted_refusals_read_as_the_unlifted_star_refuses():
    # the lifted star refuses at the unlifted star's pivot with L times its
    # weight, and the refusal divides that weight back by L
    rng = random.Random(31)
    refused = 0
    for _ in range(600):
        sf = rng.choice((MAX_PLUS, MIN_PLUS))
        sign, d = (1 if sf is MAX_PLUS else -1), rng.choice((2, 3, 4))

        def lags(lo, hi, density):
            return mat([[Fraction(sign * rng.randint(lo, hi), d)
                         if rng.random() < density else Z for _ in range(n)]
                        for _ in range(n)], sf)

        n = rng.randint(2, 5)
        A, B, C = lags(-4, 4, 1.0), lags(-9, 2, 0.5), lags(-9, 1, 0.15)
        f = vec([Fraction(rng.randint(0, 20), d) for _ in range(n)], sf)
        try:
            kleene_star(B + C @ A)
        except SpectralConditionViolated as exc:
            expected = f"cyclic precedence with positive total lag: {exc}"
        else:
            continue
        assert _lift_scale(A, B, C, f) > 1
        with pytest.raises(InfeasiblePrecedence) as caught:
            ScheduleInstance(A, B, C, f)
        assert str(caught.value) == expected
        refused += 1
    assert refused >= 100, refused


def reference_product(gens: TropMatrix, v: TropVector) -> tuple:
    """gens v by Semifield.add and mul, entry by entry, in the data's own
    units: the unlifted reference for instantiate."""
    sf = gens.semifield
    out = []
    for row in gens.entries:
        acc = Z
        for g, c in zip(row, v.entries):
            acc = sf.add(acc, sf.mul(g, c))
        out.append(acc)
    return tuple(out)


def below_bound(rng: random.Random, bound: TropVector) -> TropVector:
    """A regular v <= bound whose entries add denominators 3, 5 and 7."""
    sf = bound.semifield
    out = []
    for b in bound.entries:
        c = Fraction(rng.randint(1, 20), rng.choice((3, 5, 7)))
        step = {MAX_PLUS: -c, MIN_PLUS: c, MAX_TIMES: 1 / (1 + c)}[sf]
        out.append(sf.mul(b, step))
    return TropVector(sf, out)


def assert_instantiate_matches_unlifted(sol, v: TropVector) -> int:
    """instantiate(sol, v) against reference_product, type for type; the
    lift scale it runs at."""
    got = instantiate(sol, v)
    assert typed(tuple(w.entries for w in got)) == typed((
        reference_product(sol.x_generators, v),
        reference_product(sol.y_generators, v)))
    return _lift_scale(sol.x_generators, sol.y_generators, v)


def test_instantiate_matches_the_unlifted_product(half_unit_corpus):
    rng = random.Random(41)
    dens = iter(primes(20))
    n = 4
    past_cap = ScheduleInstance(
        mat([[Fraction(i - j, next(dens)) if i >= j else Z for j in range(n)]
             for i in range(n)]),
        mat([[Z] * n] * n), mat([[Z] * n] * n),
        vec([Fraction(7, next(dens)) for _ in range(n)]))
    instances = (half_unit_corpus[:6] + [past_cap]
                 + [random_fraction_schedule(rng, sf, rng.randint(1, 5), True)
                    for sf in (MAX_PLUS, MIN_PLUS) for _ in range(20)]
                 + [random_max_times_schedule(rng, rng.randint(1, 5))
                    for _ in range(20)])
    scales = {}
    for inst in instances:
        sol = solve_schedule(inst)
        for v in (sol.coeff_bound, below_bound(rng, sol.coeff_bound)):
            scale = assert_instantiate_matches_unlifted(sol, v)
            scales.setdefault(inst.semifield.name, set()).add(scale)
    # the corpus at its bound lifts by 2; a lowered v adds 3, 5 and 7
    assert 2 in scales["max-plus"]
    assert any(scale % 105 == 0 for scale in scales["max-plus"])
    assert any(scale % 105 == 0 for scale in scales["min-plus"])
    assert scales["max-times"] == {1}
    # v over four primes above 2**16 takes the lcm above the cap, and
    # instantiate the unlifted path
    sol = solve_schedule(past_cap)
    big = [k for k in range(2 ** 16, 2 ** 16 + 100)
           if all(k % p for p in primes(60))][:n]
    v = TropVector(MAX_PLUS, [b - Fraction(1, p)
                              for b, p in zip(sol.coeff_bound, big)])
    assert assert_instantiate_matches_unlifted(sol, v) == 1


def test_closure_and_precedence_are_divided_back_when_first_read(
        half_unit_corpus):
    inst = ScheduleInstance(*(getattr(half_unit_corpus[0], k) for k in "ABCf"))
    solve_schedule(inst)
    assert "closure" not in vars(inst) and "precedence" not in vars(inst)
    closure = inst.closure
    assert inst.closure is closure
    assert typed(inst.precedence) == typed(inst.B + inst.C @ inst.A)
    assert typed(closure) == typed(kleene_star(inst.precedence))
