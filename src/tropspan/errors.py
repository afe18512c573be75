"""Exception hierarchy for the tropspan package.

Everything derives from TropicalError so callers can catch broadly; the CLI
maps subfamilies to distinct exit codes (see cli.py).
"""

from __future__ import annotations

import copyreg


class TropicalError(Exception):
    """Base class for all tropspan errors."""

    def __reduce__(self):
        # rebuilt by __new__ and the instance dict, not by an __init__ that
        # takes other arguments than args, so pickle and copy keep subclasses
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__)


class ShapeMismatch(TropicalError):
    """Operands have incompatible dimensions."""


class InversionOfZero(TropicalError):
    """Multiplicative inverse of the semifield zero was requested."""


class AllZeroMatrix(TropicalError):
    """Operation requires a matrix with at least one finite entry."""


class ZeroVector(TropicalError):
    """Operation requires a vector with at least one finite entry."""


class ZeroColumn(TropicalError):
    """Matrix has an all-zero column where nonzero columns are required."""


class NotSquare(TropicalError):
    """Operation is defined for square matrices only."""


class SpectralConditionViolated(TropicalError):
    """Tr(A) > 1: the inequality A x <= x has no regular solution.

    ``vertex`` is the pivot at which the Kleene star refused and ``weight``
    the finite weight, above one, of the cycle it closes there.
    """

    def __init__(self, vertex: int, weight):
        super().__init__(f"a cycle through vertex {vertex} weighs {weight}, "
                         "above the identity; A x <= x has no regular solution")
        self.vertex, self.weight = vertex, weight


class NotRegularMatrix(TropicalError):
    """Matrix has an all-zero row or column where regularity is required."""


class NotRegularVector(TropicalError):
    """Vector has a zero component where a regular vector is required."""


class InfeasiblePrecedence(TropicalError):
    """Cyclic precedence constraints with positive total lag; no schedule exists."""


class CoefficientOutOfBound(TropicalError):
    """Supplied coefficient vector exceeds the admissible upper bound."""


class UnsupportedDimension(TropicalError):
    """Plotting supports two-dimensional problems only."""


class ParseError(TropicalError):
    """Problem or solution text is malformed; message carries the location."""


class ValidationError(TropicalError):
    """Well-formed document violates a structural invariant."""


class EnumerationBudgetExceeded(TropicalError):
    """Selection enumeration hit the configured cap.

    ``visited`` is the number of selections emitted before the cap, which
    equals the budget.  An exhaustive family larger than the budget is
    refused before any walk; ``visited`` is then still the budget, the count
    the walk would have reached.
    """

    def __init__(self, message: str, *, visited: int):
        super().__init__(message)
        self.visited = visited
