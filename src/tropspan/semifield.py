"""Idempotent semifield scalars over exact numbers.

A scalar is either the additive zero ZERO (a distinct tag, never a sentinel
number) or an exact finite value: a Python int, or a fractions.Fraction when
the value is not integral.  Keeping integers as plain ints makes the common
all-integer case fast and the golden tests bit-exact.

Four instances ship, differing in which numeric operation plays tropical
multiplication and whether the induced order follows or reverses the numeric
order:

    max-plus    a (+) b = max(a, b)   a (x) b = a + b   one = 0
    min-plus    a (+) b = min(a, b)   a (x) b = a + b   one = 0
    max-times   a (+) b = max(a, b)   a (x) b = a * b   one = 1   (values > 0)
    min-times   a (+) b = min(a, b)   a (x) b = a * b   one = 1   (values > 0)

In every instance ZERO is neutral for (+), absorbing for (x), and the least
element of the total order (for the min-* instances the semifield order is
the reverse of the numeric one, so "+inf" sits at the bottom).  Only max-plus
is exposed through file formats and the CLI; the others keep the abstraction
honest and are exercised by the axiom tests.

check_value validates a scalar from outside: the parser and the public
TropVector and TropMatrix constructors call it.  The operations keep valid
scalars valid, and mul and inv return integral values as int, so results
computed from valid scalars need no second check.  Each instance also binds
five kernels on finite values, plain operator functions with no ZERO test
and no normalization: ratio (v (x) u^-1), order_le (the semifield order),
order_min (the least of several values in that order), times ((x)) and
better (strictly above in the semifield order, so a (+) b is b exactly when
better(b, a)).  A ratio is compared or multiplied, never stored as a
scalar, save as inv, which normalizes ratio(one, a); a caller that stores
what times returns normalizes it, as mul does.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

from .errors import InversionOfZero, ValidationError


class _Zero:
    """The semifield zero; a unique tag so -inf never leaks into arithmetic."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"

    def __reduce__(self):
        return (_Zero, ())


ZERO = _Zero()

Scalar = Union[_Zero, int, Fraction]


def _norm(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


class Semifield:
    """One concrete idempotent semifield instance.

    All scalar operations live here because finite values are plain numbers
    and carry no tag of their own.  Instances are stateless singletons; use
    the module-level MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES.
    """

    __slots__ = ("name", "one", "zero_token", "_reversed", "_multiplicative",
                 "ratio", "order_le", "order_min", "times", "better")

    def __init__(self, name: str, one, *, reversed_order: bool, multiplicative: bool,
                 zero_token: str):
        self.name = name
        self.one = one
        self.zero_token = zero_token
        self._reversed = reversed_order
        self._multiplicative = multiplicative
        # Fraction(v, u) is the exact v / u, and may be an integral Fraction
        self.ratio = Fraction if multiplicative else operator.sub
        self.order_le = operator.ge if reversed_order else operator.le
        self.order_min = max if reversed_order else min
        self.times = operator.mul if multiplicative else operator.add
        self.better = operator.lt if reversed_order else operator.gt

    def __repr__(self):
        return f"Semifield({self.name!r})"

    # -- predicates ---------------------------------------------------------

    def check_value(self, a: Scalar) -> Scalar:
        """Validate that a is ZERO or a finite value in this instance's domain."""
        if a is ZERO:
            return a
        if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
            raise ValidationError(f"{a!r} is not an exact scalar for {self.name}")
        if self._multiplicative and a <= 0:
            raise ValidationError(f"{self.name} values must be positive, got {a!r}")
        return _norm(a)

    # -- order --------------------------------------------------------------

    def le(self, a: Scalar, b: Scalar) -> bool:
        """Semifield order: a <= b iff a (+) b = b.  ZERO is the bottom."""
        if a is ZERO:
            return True
        if b is ZERO:
            return False
        return a >= b if self._reversed else a <= b

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if a is ZERO:
            return b
        if b is ZERO:
            return a
        if self._reversed:
            return a if a <= b else b
        return a if a >= b else b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if a is ZERO or b is ZERO:
            return ZERO
        c = a * b if self._multiplicative else a + b
        return c.numerator if type(c) is Fraction and c.denominator == 1 else c

    def inv(self, a: Scalar) -> Scalar:
        if a is ZERO:
            raise InversionOfZero("the semifield zero has no multiplicative inverse")
        return _norm(self.ratio(self.one, a))

    # -- text ----------------------------------------------------------------

    def format_scalar(self, a: Scalar) -> str:
        return self.zero_token if a is ZERO else str(a)


MAX_PLUS = Semifield("max-plus", 0, reversed_order=False, multiplicative=False,
                     zero_token="-inf")
MIN_PLUS = Semifield("min-plus", 0, reversed_order=True, multiplicative=False,
                     zero_token="+inf")
MAX_TIMES = Semifield("max-times", 1, reversed_order=False, multiplicative=True,
                      zero_token="0")
MIN_TIMES = Semifield("min-times", 1, reversed_order=True, multiplicative=True,
                      zero_token="+inf")

SEMIFIELDS = {sf.name: sf for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)}
