"""Exact tropical (max-plus) optimization.

The package minimizes q^- x (A x)^- p over an idempotent semifield, returns
the complete solution as a generator span, and applies the machinery to
just-in-time scheduling under precedence and deadline constraints.  All
arithmetic is exact (ints and rationals); see the README for the file format
and the command-line interface.
"""

from .errors import (
    AllZeroMatrix,
    CoefficientOutOfBound,
    EnumerationBudgetExceeded,
    InfeasiblePrecedence,
    InversionOfZero,
    NotRegularMatrix,
    NotRegularVector,
    NotSquare,
    ParseError,
    ShapeMismatch,
    SpectralConditionViolated,
    TropicalError,
    UnsupportedDimension,
    ValidationError,
    ZeroColumn,
    ZeroVector,
)
from .linalg import (
    TropMatrix,
    TropVector,
    delta,
    depends_on,
    kleene_star,
    reduce_to_independent,
    residuation_coefficients,
    trace_closure,
)
from .scheduling import (
    ScheduleInstance,
    ScheduleReport,
    ScheduleSolution,
    check_schedule,
    compact_generators,
    instantiate,
    latest_schedule,
    reduced_span_problem,
    solve_schedule,
    span_seminorm,
)
from .semifield import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    SEMIFIELDS,
    ZERO,
    Scalar,
    Semifield,
)
from .solvers import (
    GeneratorSet,
    IntervalSet,
    interval_to_generators,
    solve_upper_bound,
)
from .spanopt import (
    CompleteSolution,
    SelectionMatrix,
    SpanProblem,
    attains_minimum,
    complete_solution,
    enumerate_selections,
    extended_interval,
    objective,
    selection_generators,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
