"""Just-in-time project scheduling with minimal finish-time spread.

A project of n parallel activities has start times x and finish times y tied
together by four constraint families (all lags in the same time unit, an
absent lag being the semifield zero):

    start-finish   max_j(a_ij + x_j)  =  y_i    (finish as soon as allowed)
    start-start    max_j(b_ij + x_j) <=  x_i
    finish-start   max_j(c_ij + y_j) <=  x_i
    late finish             y_i      <=  f_i

The objective is the span seminorm max(y) - min(y), the largest deviation
between finish times.  Substituting y = A x turns the precedence constraints
into (B (+) C A) x <= x, solvable by the Kleene star when the closed trace is
at most the identity.  ScheduleInstance builds that star once, by Kleene's
elimination in O(n^3), which refuses as soon as a pivot closes a cycle of
positive total lag; with D = A (B (+) C A)* the remaining problem is a span
problem over D whose complete solution S0, cut back by the deadline bound
v <= (f^- D S0)^-, parametrizes every optimal schedule.  That bound is always
regular: f is finite, and D S0 has no zero column because A is regular and
the star's diagonal is at least one.  So deadlines never make a schedule
infeasible; they only shift the latest one.

Lags given in half or quarter units would run all of this in Fraction
arithmetic.  For L > 0, x -> L x is an automorphism of max-plus and of
min-plus: it commutes with (+), (x), inversion and the order, so it keeps
every comparison, ray and column order.  ScheduleInstance therefore takes L,
the lcm of the denominators of A, B, C and f, and builds B (+) C A and its
star on the data times L, in plain ints; solve_schedule runs D, the complete
solution, the generators and the deadline bound on that lifted copy and
divides each result by L, an integral value coming back as an int.
instantiate, and so latest_schedule, takes the same path: L over the
generators and v, the product in ints, and the division back.  The lift
multiplies each numerator by L over its denominator, so it builds and
hashes no Fraction; the division is taken once per distinct value.  The
public A, B, C, f, closure and precedence keep the data's own units, and so
does a refusal's cycle weight: x -> L x maps every elimination step of the
star, so the lifted star refuses at the same pivot as the unlifted one, with
L times its cycle weight, which is divided back.  closure and precedence are
divided back when first read, as solve_schedule needs neither.
reduced_span_problem is not lifted.  The *-times semifields have no such
scaling, and an L above LIFT_CAP costs more in big ints than it saves, so
for both L is 1 and every rescale returns its input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import eq
from typing import NamedTuple

from .errors import (
    CoefficientOutOfBound,
    InfeasiblePrecedence,
    NotRegularMatrix,
    NotRegularVector,
    ShapeMismatch,
    SpectralConditionViolated,
)
from .linalg import (TropMatrix, TropVector, _check_operands, _trusted,
                     kleene_star, ray_key)
from .semifield import MAX_PLUS, MIN_PLUS, ZERO, Scalar, _norm
from .solvers import solve_upper_bound
from .spanopt import DEFAULT_ENUMERATION_BUDGET, SpanProblem, complete_solution

# Largest lift scale L: past it the products of big ints cost more than the
# Fraction arithmetic they replace
LIFT_CAP = 2 ** 62


class ScheduleInstance:
    """Validated scheduling data (A, B, C, f) for n activities.

    precedence is B (+) C A and closure its star, divided back from the
    lifted copy when first read.  _lifted is the (L, A, closure, f) that
    solve_schedule runs on: the lifted copy, or with L = 1 the public objects
    themselves.
    """

    def __init__(self, A: TropMatrix, B: TropMatrix, C: TropMatrix,
                 f: TropVector):
        self.check_data(A, B, C, f)
        self.n = A.rows
        self.A = A
        self.B = B
        self.C = C
        self.f = f
        self.semifield = A.semifield
        scale = _lift_scale(A, B, C, f)
        lifted_A = _lift(A, scale)
        self._closed = _lift(B, scale) + (_lift(C, scale) @ lifted_A)
        try:
            closure = kleene_star(self._closed)
        except SpectralConditionViolated as exc:
            # the unlifted star refuses at the same pivot, weight / L
            exc = SpectralConditionViolated(exc.vertex,
                                            _divided_scalar(exc.weight, scale))
            raise InfeasiblePrecedence("cyclic precedence with positive "
                                       f"total lag: {exc}") from None
        self._lifted = (scale, lifted_A, closure, _lift(f, scale))

    @cached_property
    def precedence(self) -> TropMatrix:
        return _divided(self._closed, self._lifted[0])

    @cached_property
    def closure(self) -> TropMatrix:
        return _divided(self._lifted[2], self._lifted[0])

    @staticmethod
    def check_data(A: TropMatrix, B: TropMatrix, C: TropMatrix,
                   f: TropVector) -> None:
        """Refuse data that is not a schedule: A, B, C square of one size n
        and f of n components, all over A's semifield, A regular and f
        finite.  Feasibility is the Kleene star's to decide."""
        n = A.rows
        for name, mat in (("A", A), ("B", B), ("C", C)):
            _check_operands(A, mat, mat.shape, (n, n),
                            f"{name} must be {n}x{n}, got {{}}")
        _check_operands(A, f, f.dim, n, f"f must have {n} components, got {{}}")
        if not A.is_regular():
            raise NotRegularMatrix("A must be regular (no zero rows or columns)")
        if not f.is_regular():
            raise NotRegularVector("late finish times f must all be finite")


def _rows(x) -> tuple:
    """The rows of a TropMatrix, or a TropVector as a single row."""
    return (x.entries,) if isinstance(x, TropVector) else x.entries


def _like(x, rows: list):
    """A TropMatrix or TropVector like x, over the rows that _rows gives."""
    return _trusted(type(x), x.semifield,
                    rows[0] if isinstance(x, TropVector) else rows)


def _lift_scale(*arrays) -> int:
    """The lcm L of the denominators of max-plus or min-plus matrices and
    vectors, or 1 when it is above LIFT_CAP.  The *-times semifields have no
    such scaling: 1.  The lcm stops at the cap, as one of thousands of
    digits is slow to take."""
    if arrays[0].semifield not in (MAX_PLUS, MIN_PLUS):
        return 1
    scale = 1
    for x in arrays:
        for row in _rows(x):
            for e in row:
                if type(e) is Fraction and scale % e.denominator:
                    scale = lcm(scale, e.denominator)
                    if scale > LIFT_CAP:
                        return 1
    return scale


def _lift(x, scale: int):
    """The TropMatrix or TropVector x with each finite entry times scale, a
    multiple of its denominator, so every entry is an int and no Fraction is
    built or hashed; x itself when scale is 1."""
    if scale == 1:
        return x
    return _like(x, [[e if e is ZERO else e * scale if type(e) is int
                      else e.numerator * (scale // e.denominator) for e in row]
                     for row in _rows(x)])


def _divided(x, scale: int):
    """The lifted TropMatrix or TropVector x, all ints, with each finite
    entry divided by scale, an integral value as an int; x itself when scale
    is 1.  Each distinct value is divided once, as values repeat."""
    if scale == 1:
        return x
    rows = _rows(x)
    back = {e: _divided_scalar(e, scale) for e in set().union(*rows)}
    return _like(x, [[back[e] for e in row] for row in rows])


def _divided_scalar(e, scale: int):
    """The lifted int e divided by scale, an integral value as an int."""
    return e if e is ZERO else _norm(Fraction(e, scale))


class ScheduleSolution(NamedTuple):
    """All optimal schedules: (x, y) = (x_generators v, y_generators v) for
    regular v up to coeff_bound."""

    delta: Scalar
    x_generators: TropMatrix
    y_generators: TropMatrix
    coeff_bound: TropVector
    span_generators: TropMatrix
    D: TropMatrix
    enumerated_count: int
    pruned_count: int


def precedence_closure(inst: ScheduleInstance) -> TropMatrix:
    """Kleene star of B (+) CA, built once when the instance is validated."""
    return inst.closure


def reduced_span_problem(inst: ScheduleInstance,
                         closure: TropMatrix | None = None) -> SpanProblem:
    """Span problem over D = A (B (+) CA)* with p all-one and q^- the column
    maxima of D."""
    return _span_problem(inst.A, inst.closure if closure is None else closure)


def _span_problem(A: TropMatrix, closure: TropMatrix) -> SpanProblem:
    D = A @ closure
    ones = TropVector.ones(A.semifield, A.rows)
    return SpanProblem(D, ones, (ones @ D).conj())


def solve_schedule(inst: ScheduleInstance, *,
                   budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                   prune: bool = True) -> ScheduleSolution:
    """Solve on the instance's lifted data, then divide the results back."""
    scale, A, closure, f = inst._lifted
    prob = _span_problem(A, closure)
    found = complete_solution(prob, budget=budget, prune=prune)
    s0 = found.generators.generators
    y_gens = prob.A @ s0
    return ScheduleSolution(
        delta=_divided_scalar(found.delta, scale),
        x_generators=_divided(closure @ s0, scale),
        y_generators=_divided(y_gens, scale),
        coeff_bound=_divided(solve_upper_bound(y_gens, f), scale),
        span_generators=_divided(s0, scale),
        D=_divided(prob.A, scale),
        enumerated_count=found.enumerated_count,
        pruned_count=found.pruned_count,
    )


def instantiate(sol: ScheduleSolution, v: TropVector) -> tuple[TropVector, TropVector]:
    """Concrete schedule for an admissible coefficient vector, computed as
    ScheduleInstance computes: lifted by the lcm L of the denominators of
    the generators and v, then divided back."""
    _check_operands(v, sol.coeff_bound, v.dim, sol.coeff_bound.dim,
                    "v has dim {}, expected {}")
    if not v.is_regular():
        raise NotRegularVector("coefficient vector must be regular")
    if not v.le(sol.coeff_bound):
        raise CoefficientOutOfBound("coefficient vector exceeds the deadline bound")
    scale = _lift_scale(sol.x_generators, sol.y_generators, v)
    lifted_v = _lift(v, scale)
    return (_divided(_lift(sol.x_generators, scale) @ lifted_v, scale),
            _divided(_lift(sol.y_generators, scale) @ lifted_v, scale))


def latest_schedule(sol: ScheduleSolution) -> tuple[TropVector, TropVector]:
    """Componentwise-latest optimal schedule, at v = coeff_bound."""
    return instantiate(sol, sol.coeff_bound)


def span_seminorm(y: TropVector) -> Scalar:
    """Largest deviation between components: 1^T y (x) y^- 1."""
    if not y.is_regular():
        raise NotRegularVector("span seminorm needs a regular vector")
    sf = y.semifield
    ones = TropVector.ones(sf, y.dim)
    return sf.mul(ones @ y, y.conj() @ ones)


class ScheduleReport(NamedTuple):
    """Each violated constraint as "<family> row <i>", by family in the order
    of the module docstring and rows ascending, plus the achieved span."""

    failures: tuple[str, ...]
    span: Scalar

    @property
    def ok(self) -> bool:
        return not self.failures


def check_schedule(inst: ScheduleInstance, x: TropVector,
                   y: TropVector) -> ScheduleReport:
    """Re-derive every constraint directly from the instance data."""
    if not x.is_regular() or not y.is_regular():
        raise NotRegularVector("schedules under check must be regular")
    if x.dim != inst.n or y.dim != inst.n:
        raise ShapeMismatch("schedule length does not match the activity count")
    le = inst.semifield.le
    families = (("start-finish", inst.A @ x, y, eq),
                ("start-start", inst.B @ x, x, le),
                ("finish-start", inst.C @ y, x, le),
                ("late-finish", y, inst.f, le))
    return ScheduleReport(
        failures=tuple(f"{name} row {i + 1}"
                       for name, lhs, rhs, holds in families
                       for i in range(inst.n) if not holds(lhs[i], rhs[i])),
        span=span_seminorm(y),
    )


def compact_generators(sol: ScheduleSolution) -> ScheduleSolution:
    """Merge collinear x-generator columns, folding the bound accordingly.

    If column j equals kappa (x) column r, any admissible v_j acts exactly as
    the coefficient kappa v_j on column r, so the merged bound entry is the
    tropical sum of kappa_j v_bound_j over the class.  The y generators are
    collinear in the same pattern because y columns are A times x columns.
    """
    sf = sol.x_generators.semifield
    bound = sol.coeff_bound.entries
    cols = list(zip(*sol.x_generators.entries))
    reps: list[int] = []
    merged: list[Scalar] = []
    slots: dict[tuple, int] = {}
    for j, col in enumerate(cols):
        slot = slots.setdefault(ray_key(sf, col), len(reps))
        if slot == len(reps):
            reps.append(j)
            merged.append(bound[j])
            continue
        # kappa at the first finite index, the one ray_key divides by
        i = next(i for i, e in enumerate(col) if e is not ZERO)
        kappa = sf.ratio(col[i], cols[reps[slot]][i])
        merged[slot] = sf.add(merged[slot], sf.mul(kappa, bound[j]))
    if len(reps) == len(cols):
        return sol
    x_gens, y_gens = (
        _trusted(TropMatrix, sf, [[row[r] for r in reps] for row in gens.entries])
        for gens in (sol.x_generators, sol.y_generators))
    return sol._replace(x_generators=x_gens, y_generators=y_gens,
                        coeff_bound=_trusted(TropVector, sf, merged))
