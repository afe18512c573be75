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
"""

from __future__ import annotations

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
from .linalg import TropMatrix, TropVector, kleene_star, ray_key
from .semifield import Scalar
from .solvers import solve_upper_bound
from .spanopt import DEFAULT_ENUMERATION_BUDGET, SpanProblem, complete_solution


class ScheduleInstance:
    """Validated scheduling data (A, B, C, f) for n activities."""

    def __init__(self, A: TropMatrix, B: TropMatrix, C: TropMatrix,
                 f: TropVector):
        self.check_data(A, B, C, f)
        closed = B + (C @ A)
        try:
            self.closure = kleene_star(closed)
        except SpectralConditionViolated as exc:
            raise InfeasiblePrecedence(
                f"cyclic precedence with positive total lag: {exc}") from None
        self.n = A.rows
        self.A = A
        self.B = B
        self.C = C
        self.f = f
        self.semifield = A.semifield
        self.precedence = closed

    @staticmethod
    def check_data(A: TropMatrix, B: TropMatrix, C: TropMatrix,
                   f: TropVector) -> None:
        """Refuse data that is not a schedule: A, B, C square of one size n,
        A regular and f finite.  Feasibility is the Kleene star's to decide."""
        n = A.rows
        for name, mat in (("A", A), ("B", B), ("C", C)):
            if mat.shape != (n, n):
                raise ShapeMismatch(f"{name} must be {n}x{n}, got {mat.shape}")
        if f.dim != n:
            raise ShapeMismatch(f"f must have {n} components, got {f.dim}")
        if not A.is_regular():
            raise NotRegularMatrix("A must be regular (no zero rows or columns)")
        if not f.is_regular():
            raise NotRegularVector("late finish times f must all be finite")


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
    if closure is None:
        closure = precedence_closure(inst)
    D = inst.A @ closure
    ones = TropVector.ones(inst.semifield, inst.n)
    col_max = ones @ D
    return SpanProblem(D, ones, col_max.conj())


def solve_schedule(inst: ScheduleInstance, *,
                   budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                   prune: bool = True) -> ScheduleSolution:
    closure = precedence_closure(inst)
    prob = reduced_span_problem(inst, closure)
    sol = complete_solution(prob, budget=budget, prune=prune)
    s0 = sol.generators.generators
    x_gens = closure @ s0
    y_gens = prob.A @ s0
    return ScheduleSolution(
        delta=sol.delta,
        x_generators=x_gens,
        y_generators=y_gens,
        coeff_bound=solve_upper_bound(y_gens, inst.f),
        span_generators=s0,
        D=prob.A,
        enumerated_count=sol.enumerated_count,
        pruned_count=sol.pruned_count,
    )


def instantiate(sol: ScheduleSolution, v: TropVector) -> tuple[TropVector, TropVector]:
    """Concrete schedule for an admissible coefficient vector."""
    if v.dim != sol.coeff_bound.dim:
        raise ShapeMismatch(f"v has dim {v.dim}, expected {sol.coeff_bound.dim}")
    if not v.is_regular():
        raise NotRegularVector("coefficient vector must be regular")
    if not v.le(sol.coeff_bound):
        raise CoefficientOutOfBound("coefficient vector exceeds the deadline bound")
    return sol.x_generators @ v, sol.y_generators @ v


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
    x_cols = sol.x_generators.columns()
    y_cols = sol.y_generators.columns()
    reps: list[int] = []
    merged_bound: list[Scalar] = []
    slots: dict[tuple, int] = {}
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
