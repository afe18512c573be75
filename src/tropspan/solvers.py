"""Closed-form solvers for the two basic vector inequalities.

Two facts carry the whole package:

  * A x <= d with column-regular A and regular d has the greatest solution
    x_max = (d^- A)^-, and every x <= x_max solves it (solve_upper_bound,
    through linalg.residuation_coefficients).
  * A x <= x has regular solutions iff Tr(A) <= one, in which case they are
    exactly {A* u : u regular} (linalg.kleene_star).

interval_to_generators converts the parametric box  alpha*g <= x <= alpha*h
into the equivalent generator form x = (I (+) g h^-) u, which is how partial
solutions get folded into a single column span; generator_columns builds
the columns of I (+) g h^-, for it and for the per-selection spans.
"""

from __future__ import annotations

from .errors import (
    NotRegularVector,
    ValidationError,
    ZeroColumn,
)
from .linalg import (TropMatrix, TropVector, _check_operands, _trusted,
                     residuation_coefficients)
from .semifield import Semifield


class IntervalSet:
    """Vectors x with alpha*lower <= x <= alpha*upper for some alpha > zero."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: TropVector, upper: TropVector):
        _check_operands(lower, upper, lower.dim, upper.dim, "interval dims {} vs {}")
        if not upper.is_regular():
            raise NotRegularVector("interval upper bound must be regular")
        if not lower.le(upper):
            raise ValidationError("interval lower bound exceeds the upper bound")
        self.lower, self.upper = lower, upper


class GeneratorSet:
    """A column span {S v : v > 0}; linalg.depends_on tests membership."""

    __slots__ = ("generators",)

    def __init__(self, generators: TropMatrix):
        if not generators.is_column_regular():
            raise ZeroColumn("a generator column is all-zero")
        self.generators = generators

    def __eq__(self, other):
        return (isinstance(other, GeneratorSet)
                and self.generators == other.generators)


def solve_upper_bound(matrix: TropMatrix, d: TropVector) -> TropVector:
    """Greatest x with A x <= d, namely (d^- A)^-."""
    if not matrix.is_column_regular():
        raise ZeroColumn("A must have no zero columns")
    if not d.is_regular():
        raise NotRegularVector("right-hand side d must be regular")
    return residuation_coefficients(matrix, d)


def generator_columns(sf: Semifield, g, h_inv) -> list[tuple]:
    """The columns of I (+) g h^- as tuples: column j is g h_j^-1 with one
    added at row j.  h^- holds valid scalars and g valid scalars or ratios;
    every entry is one or a product, which mul normalizes, so the results
    need no check.
    """
    add, mul, one = sf.add, sf.mul, sf.one
    out = []
    for j, w in enumerate(h_inv):
        col = [mul(gi, w) for gi in g]
        col[j] = add(one, col[j])
        out.append(tuple(col))
    return out


def interval_to_generators(interval: IntervalSet) -> GeneratorSet:
    """Generator form I (+) g h^- of the interval's solution set."""
    sf = interval.upper.semifield
    cols = generator_columns(sf, interval.lower.entries,
                             interval.upper.conj().entries)
    return GeneratorSet(_trusted(TropMatrix, sf, zip(*cols)))

