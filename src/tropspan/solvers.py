"""Closed-form solvers for the two basic vector inequalities.

Two facts carry the whole package:

  * A x <= d with column-regular A and regular d has the greatest solution
    x_max = (d^- A)^-, and every x <= x_max solves it (solve_upper_bound).
  * A x <= x has regular solutions iff Tr(A) <= one, in which case they are
    exactly {A* u : u regular} (solve_subinvariant).

interval_to_generators converts the parametric box  alpha*g <= x <= alpha*h
into the equivalent generator form x = (I (+) g h^-) u, which is how partial
solutions get folded into a single column span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotColumnRegular,
    NotRegularVector,
    ShapeMismatch,
    ValidationError,
    ZeroColumn,
    ZeroVector,
)
from .linalg import (
    TropMatrix,
    TropVector,
    kleene_star,
    outer,
    residuation_coefficients,
)
from .semifield import ZERO


@dataclass(frozen=True)
class IntervalSet:
    """Vectors x with alpha*lower <= x <= alpha*upper for some alpha > zero."""

    lower: TropVector
    upper: TropVector

    def __post_init__(self):
        if self.lower.dim != self.upper.dim:
            raise ShapeMismatch(
                f"interval dims {self.lower.dim} vs {self.upper.dim}")
        if not self.upper.is_regular():
            raise NotRegularVector("interval upper bound must be regular")
        if not self.lower.le(self.upper):
            raise ValidationError("interval lower bound exceeds the upper bound")


@dataclass(frozen=True)
class GeneratorSet:
    """A column span {S v : v > 0}, optionally with an upper bound on v."""

    generators: TropMatrix
    coeff_upper_bound: TropVector | None = None

    def __post_init__(self):
        for j in range(self.generators.cols):
            if self.generators.col(j).is_zero():
                raise ZeroColumn(f"generator column {j} is all-zero")
        if self.coeff_upper_bound is not None:
            if self.coeff_upper_bound.dim != self.generators.cols:
                raise ShapeMismatch("coefficient bound length does not match "
                                    "the generator count")
            if not self.coeff_upper_bound.is_regular():
                raise NotRegularVector("coefficient bound must be regular")


def solve_upper_bound(matrix: TropMatrix, d: TropVector) -> TropVector:
    """Greatest x with A x <= d, namely (d^- A)^-."""
    if not matrix.is_column_regular():
        raise NotColumnRegular("A must have no zero columns")
    if not d.is_regular():
        raise NotRegularVector("right-hand side d must be regular")
    if matrix.rows != d.dim:
        raise ShapeMismatch(f"matrix rows {matrix.rows} vs vector dim {d.dim}")
    return (d.conj() @ matrix).conj()


def solve_subinvariant(matrix: TropMatrix) -> TropMatrix:
    """Generator matrix A* for A x <= x; raises when Tr(A) > one."""
    return kleene_star(matrix)


def interval_to_generators(interval: IntervalSet) -> GeneratorSet:
    """Generator form I (+) g h^- of the interval's solution set."""
    sf = interval.upper.semifield
    span = TropMatrix.identity(sf, interval.upper.dim)
    if not interval.lower.is_zero():
        span = span + outer(interval.lower, interval.upper.conj())
    return GeneratorSet(span)


def greatest_coefficients(gens: GeneratorSet, x: TropVector) -> TropVector:
    """Greatest v with S v <= x; equals (x^- S)^- whenever x is regular."""
    return residuation_coefficients(gens.generators, x)


def membership(gens: GeneratorSet, x: TropVector) -> bool:
    """Whether x = S v for some v > 0 within the coefficient bound.

    Decided through the canonical coefficients of the residuation: they are
    the greatest solution v of S v <= x, so every admissible coefficient
    vector lies below v and below the bound, and x lies in the bounded span
    exactly when S (v meet bound) = x, the meet taken entry-wise.
    """
    if x.is_zero():
        raise ZeroVector("membership of the zero vector is undefined")
    if x.dim != gens.generators.rows:
        raise ShapeMismatch(f"vector dim {x.dim} vs generator rows "
                            f"{gens.generators.rows}")
    v = greatest_coefficients(gens, x)
    if gens.coeff_upper_bound is not None:
        le = v.semifield.le
        v = TropVector(v.semifield, [a if le(a, b) else b for a, b in
                                     zip(v, gens.coeff_upper_bound)])
    return gens.generators @ v == x
