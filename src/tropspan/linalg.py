"""Dense matrix and vector algebra over an idempotent semifield.

Matrices and vectors are immutable value objects holding exact scalars
(see semifield.py).  The operator conventions follow numpy's treatment of
1-D arrays:

    A + B        entry-wise tropical addition
    A @ B        tropical matrix product, max_k(a_ik + b_kj) in max-plus
    A @ x        matrix times column vector -> vector
    x @ A        row vector times matrix   -> vector
    x @ y        tropical dot product      -> scalar
    A.conj()     multiplicative conjugate transpose A^-
    x.conj()     entry-wise conjugate x^- (orientation by usage)

Sparsity is semantic (ZERO entries), not representational; problem sizes in
this domain are tiny, so everything is dense.

Each of the paper's three operations has one kernel here:

    _product                  the one product loop, over row tables: A @ B
                              is A's rows through B's, x @ A the single row
                              x through A's, A @ x the row x through the
                              columns of A (x^T A^T), x @ y a 1 x 1 product
    residuation_coefficients  the greatest subsolution (b^- A)^- of A x <= b,
                              which solvers.solve_upper_bound returns too
    depends_on                the span-membership test: x is in the span
                              of S iff the greatest subsolution v of
                              S v <= x has S v == x

Operands are checked by one rule, _check_operands, which every operation
on two of them runs, here and in the modules built on this one: operands
over two semifields are refused as "mixed semifields", and then sizes that
do not fit, with the operation's own message.  So no operand is ever read in
another semifield's arithmetic.  A sum or an order of a vector and a matrix
or a number is a TypeError, as Python raises for any other unsupported
operands.

Scalars are validated once, where they enter: the public TropVector(...) and
TropMatrix(...) constructors run Semifield.check_value on every entry, and
from_columns and scale check what they are handed.  Results that the
kernels here compute from valid scalars (sums, products, conjugates, stars,
rows and columns, reductions) are built by _trusted, which checks shapes
only: the semifield operations keep valid scalars valid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AllZeroMatrix,
    InversionOfZero,
    NotSquare,
    ShapeMismatch,
    SpectralConditionViolated,
    ZeroColumn,
    ZeroVector,
)
from .semifield import ZERO, Scalar, Semifield, _norm


def _check_operands(a, b, size_a, size_b, message: str) -> None:
    """Refuse operands a and b over two semifields, then sizes that differ,
    with message formatted by (size_a, size_b)."""
    if a.semifield is not b.semifield:
        raise ShapeMismatch(
            f"mixed semifields: {a.semifield.name} vs {b.semifield.name}")
    if size_a != size_b:
        raise ShapeMismatch(message.format(size_a, size_b))


def _check_same_type(a, b) -> None:
    """Refuse to order a vector against a matrix or a scalar."""
    if type(b) is not type(a):
        raise TypeError(f"cannot order {type(a).__name__} "
                        f"against {type(b).__name__}")


def _trusted(cls, semifield: Semifield, entries):
    """A TropVector or TropMatrix over entries that are valid scalars already:
    shapes are checked, scalars are not."""
    obj = cls.__new__(cls)
    obj._fill(semifield, entries)
    return obj


def _product(sf: Semifield, rows, other_rows, width: int) -> list[list]:
    """Rows of the product A B of two row tables: row i sums a_ik (x) row k
    of B over k.  width is B's column count, passed because B's rows may be
    an iterator.  A zero a_ik skips row k of B and a zero b_kj its term, so
    sparse operands cost only their nonzero pairs.

    Each pair costs one times and at most one better, the semifield's
    finite kernels, with no method call: a term replaces the running sum
    only when it is strictly better, so a tie keeps the earlier term, as add
    does.  Terms are stored as times returns them, and each output entry is
    normalized once, an integral Fraction becoming an int.  One loop serves
    all four semifields and both number types.
    """
    times, better = sf.times, sf.better
    out = []
    for row_i in rows:
        out_row = [ZERO] * width
        for a, row_k in zip(row_i, other_rows):
            if a is ZERO:
                continue
            for j, b in enumerate(row_k):
                if b is not ZERO:
                    c = times(a, b)
                    cur = out_row[j]
                    if cur is ZERO or better(c, cur):
                        out_row[j] = c
        out.append([_norm(e) if type(e) is Fraction else e for e in out_row])
    return out


class _Array:
    """What TropVector and TropMatrix share: a semifield, a tuple of entries,
    and equality of both, between objects of one type: a vector never equals
    a matrix."""

    __slots__ = ("semifield", "entries")

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.semifield is other.semifield
                and self.entries == other.entries)

    def __hash__(self):
        return hash((id(self.semifield), self.entries))


class TropVector(_Array):
    __slots__ = ()

    def __init__(self, semifield: Semifield, entries: Iterable[Scalar]):
        check = semifield.check_value
        self._fill(semifield, [check(e) for e in entries])

    def _fill(self, semifield: Semifield, entries: Iterable[Scalar]) -> None:
        self.semifield = semifield
        self.entries = tuple(entries)
        if not self.entries:
            raise ShapeMismatch("vectors must have at least one component")

    @classmethod
    def ones(cls, semifield: Semifield, n: int) -> "TropVector":
        return cls(semifield, (semifield.one,) * n)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        sf = self.semifield
        return "(" + ", ".join(sf.format_scalar(e) for e in self.entries) + ")"

    def is_zero(self) -> bool:
        return all(e is ZERO for e in self.entries)

    def is_regular(self) -> bool:
        """No zero components."""
        return all(e is not ZERO for e in self.entries)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e is not ZERO)

    def __add__(self, other: "TropVector") -> "TropVector":
        if type(other) is not type(self):
            return NotImplemented
        _check_operands(self, other, self.dim, other.dim, "vector dims {} vs {}")
        add = self.semifield.add
        return _trusted(TropVector, self.semifield,
                        [add(a, b) for a, b in zip(self.entries, other.entries)])

    def scale(self, c: Scalar) -> "TropVector":
        sf = self.semifield
        c, mul = sf.check_value(c), sf.mul
        return _trusted(TropVector, sf, [mul(c, e) for e in self.entries])

    def conj(self) -> "TropVector":
        """Entry-wise multiplicative conjugate; zero entries stay zero."""
        if self.is_zero():
            raise ZeroVector("conjugate of the zero vector is undefined")
        inv = self.semifield.inv
        return _trusted(TropVector, self.semifield,
                        [ZERO if e is ZERO else inv(e) for e in self.entries])

    def __matmul__(self, other):
        # x @ A: row vector through a matrix; x @ y: dot product, 1 x 1
        if isinstance(other, TropMatrix):
            _check_operands(self, other, self.dim, other.rows,
                            "row vector dim {} vs {} rows")
            return _trusted(TropVector, self.semifield, _product(
                self.semifield, (self.entries,), other.entries, other.cols)[0])
        if isinstance(other, TropVector):
            _check_operands(self, other, self.dim, other.dim, "vector dims {} vs {}")
            return _product(self.semifield, (self.entries,),
                            zip(other.entries), 1)[0][0]
        return NotImplemented

    def le(self, other: "TropVector") -> bool:
        """Entry-wise semifield order."""
        _check_same_type(self, other)
        _check_operands(self, other, self.dim, other.dim, "vector dims {} vs {}")
        le = self.semifield.le
        return all(le(a, b) for a, b in zip(self.entries, other.entries))


class TropMatrix(_Array):
    __slots__ = ("rows", "cols")

    def __init__(self, semifield: Semifield, rows: Iterable[Iterable[Scalar]]):
        check = semifield.check_value
        self._fill(semifield, [[check(e) for e in row] for row in rows])

    def _fill(self, semifield: Semifield,
              rows: Iterable[Iterable[Scalar]]) -> None:
        self.semifield = semifield
        self.entries = tuple(map(tuple, rows))
        if not self.entries or not self.entries[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])
        if any(len(row) != self.cols for row in self.entries):
            raise ShapeMismatch("ragged rows")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, semifield: Semifield, n: int) -> "TropMatrix":
        one = semifield.one
        return cls(semifield, [[one if i == j else ZERO for j in range(n)]
                               for i in range(n)])

    @classmethod
    def zeros(cls, semifield: Semifield, rows: int, cols: int) -> "TropMatrix":
        return cls(semifield, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, semifield: Semifield,
                     columns: Sequence[TropVector]) -> "TropMatrix":
        if not columns:
            raise ShapeMismatch("at least one column required")
        dim = columns[0].dim
        for c in columns:
            if c.semifield is not semifield:
                raise ShapeMismatch(
                    f"mixed semifields: {c.semifield.name} vs {semifield.name}")
            if c.dim != dim:
                raise ShapeMismatch("columns of unequal length")
        return cls(semifield, [[c[i] for c in columns] for i in range(dim)])

    # -- accessors -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def col(self, j: int) -> TropVector:
        return _trusted(TropVector, self.semifield,
                        [row[j] for row in self.entries])

    def columns(self) -> list[TropVector]:
        return [self.col(j) for j in range(self.cols)]

    def __repr__(self):
        sf = self.semifield
        body = "\n".join(
            "[" + ", ".join(sf.format_scalar(e) for e in row) + "]"
            for row in self.entries)
        return body

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(e is ZERO for row in self.entries for e in row)

    def is_row_regular(self) -> bool:
        """Every row has at least one finite entry."""
        return all(any(e is not ZERO for e in row) for row in self.entries)

    def is_column_regular(self) -> bool:
        return all(any(row[j] is not ZERO for row in self.entries)
                   for j in range(self.cols))

    def is_regular(self) -> bool:
        return self.is_row_regular() and self.is_column_regular()

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "TropMatrix") -> "TropMatrix":
        if type(other) is not type(self):
            return NotImplemented
        _check_operands(self, other, self.shape, other.shape, "shapes {} vs {}")
        add = self.semifield.add
        return _trusted(TropMatrix, self.semifield,
                        [[add(a, b) for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        if isinstance(other, TropMatrix):
            _check_operands(self, other, self.cols, other.rows, "inner dims {} vs {}")
            return _trusted(TropMatrix, self.semifield, _product(
                self.semifield, self.entries, other.entries, other.cols))
        if isinstance(other, TropVector):
            # A x as x^T A^T: one row through the columns of A
            _check_operands(self, other, self.cols, other.dim,
                            "matrix cols {} vs vector dim {}")
            return _trusted(TropVector, self.semifield, _product(
                self.semifield, (other.entries,), zip(*self.entries), self.rows)[0])
        return NotImplemented

    def conj(self) -> "TropMatrix":
        """Multiplicative conjugate transpose: (A^-)_ij = inv(a_ji), zeros kept."""
        if self.is_zero():
            raise AllZeroMatrix("conjugate transpose of an all-zero matrix")
        inv = self.semifield.inv
        return _trusted(TropMatrix, self.semifield,
                        [[ZERO if e is ZERO else inv(e) for e in col]
                         for col in zip(*self.entries)])

    def le(self, other: "TropMatrix") -> bool:
        _check_same_type(self, other)
        _check_operands(self, other, self.shape, other.shape, "shapes {} vs {}")
        le = self.semifield.le
        return all(le(a, b) for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))


def trace_closure(matrix: TropMatrix) -> Scalar:
    """Tr(A): tropical sum of the traces of A^1 .. A^n."""
    if not matrix.is_square():
        raise NotSquare(f"Tr of a {matrix.rows}x{matrix.cols} matrix")
    sf, rows, n = matrix.semifield, matrix.entries, matrix.rows
    acc, power = ZERO, rows
    for k in range(n):
        for i, row in enumerate(power):
            acc = sf.add(acc, row[i])
        if k + 1 < n:
            power = _product(sf, power, rows, n)
    return acc


def kleene_star(matrix: TropMatrix) -> TropMatrix:
    """A* = I (+) A (+) ... (+) A^(n-1); requires Tr(A) <= one.

    Built by Kleene's elimination (Floyd-Warshall over the semifield) in
    O(n^3) instead of the power series: after pivots 0..k-1, c_ij is the
    heaviest walk i -> j with intermediate vertices below k, so c_kk is the
    heaviest cycle through k over vertices 0..k.  A cycle above one exists iff
    Tr(A) > one, and then some pivot sees one, so each pivot is checked
    before it is eliminated and a refusal names it; that also keeps every
    entry a simple-path weight.  With no such cycle the heaviest walk is the
    heaviest path of at most n - 1 edges, which is exactly the power series.
    Each pair takes _product's step, and each stored value is normalized
    once, as later pivots read it.
    """
    if not matrix.is_square():
        raise NotSquare(f"star of a {matrix.rows}x{matrix.cols} matrix")
    sf = matrix.semifield
    times, better, one = sf.times, sf.better, sf.one
    c = [list(row) for row in matrix.entries]
    for k, row_k in enumerate(c):
        if not sf.le(row_k[k], one):
            raise SpectralConditionViolated(k, row_k[k])
        for i, row_i in enumerate(c):
            a = row_i[k]
            if i == k or a is ZERO:
                continue
            for j, b in enumerate(row_k):
                if b is not ZERO:
                    v = times(a, b)
                    cur = row_i[j]
                    if cur is ZERO or better(v, cur):
                        row_i[j] = _norm(v) if type(v) is Fraction else v
    for i, row in enumerate(c):
        row[i] = sf.add(one, row[i])
    return _trusted(TropMatrix, sf, c)


def delta(matrix: TropMatrix, b: TropVector) -> Scalar:
    """Linear-dependence indicator (A (b^- A)^-)^- b.

    Equals the semifield one exactly when b is a tropical linear combination
    of the columns of A.  Degenerate case: when no column of A shares support
    with b the indicator is the semifield zero (b is certainly outside the
    column span).
    """
    if matrix.is_zero():
        raise AllZeroMatrix("delta requires a nonzero matrix")
    if b.is_zero():
        raise ZeroVector("delta requires a nonzero vector")
    _check_operands(matrix, b, matrix.rows, b.dim, "matrix rows {} vs vector dim {}")
    residual = b.conj() @ matrix
    if residual.is_zero():
        return ZERO
    # the image is nonzero: a finite residual_j needs finite a_ij and b_i
    image = matrix @ residual.conj()
    return image.conj() @ b


def ray_key(semifield: Semifield, entries: Sequence[Scalar]) -> tuple:
    """Hashable key shared exactly by the nonzero vectors of one ray.

    The entries divided by the first finite one, by the compare-only ratio;
    zero entries stay zero, so the key also carries the support.  Two
    vectors have equal keys iff one is a scalar multiple of the other.  The
    zero vector spans no ray and raises InversionOfZero.
    """
    for first in entries:
        if first is not ZERO:
            break
    else:
        raise InversionOfZero("the zero vector spans no ray")
    ratio = semifield.ratio
    return tuple([e if e is ZERO else ratio(e, first) for e in entries])


def residuation_coefficients(matrix: TropMatrix, b: TropVector) -> TropVector:
    """Greatest x with A x <= b, for any nonzero b: the conjugate form (b^- A)^-.

    Entry j inverts the sum over i of inv(b_i) (x) a_ij, the order-minimum of
    b_i (x) inv(a_ij) over the column's support.  When b has zero components,
    a column whose support pokes outside the support of b is forced to the
    zero coefficient, a constraint the conjugate form is blind to because it
    drops exactly those rows.  An all-zero column gets the zero coefficient
    too.
    """
    _check_operands(matrix, b, matrix.rows, b.dim, "matrix rows {} vs vector dim {}")
    sf = matrix.semifield
    inv = sf.inv
    b_conj = [ZERO if e is ZERO else inv(e) for e in b.entries]
    sums = _product(sf, (b_conj,), matrix.entries, matrix.cols)[0]
    for row, e in zip(matrix.entries, b.entries):
        if e is ZERO:
            for j, a in enumerate(row):
                if a is not ZERO:
                    sums[j] = ZERO
    return _trusted(TropVector, sf, [ZERO if c is ZERO else inv(c) for c in sums])


def depends_on(matrix: TropMatrix, b: TropVector) -> bool:
    """Whether b is a tropical combination of the columns of A.

    Checks that the greatest subsolution of A x <= b reproduces b exactly;
    for a zero A or b that subsolution is zero, and the answer False.
    Dependence here implies delta(A, b) = one; the converse can fail when b
    has zero components, in the blind spots of the conjugate form.
    """
    greatest = residuation_coefficients(matrix, b)
    if greatest.is_zero():
        return False
    return matrix @ greatest == b


def extremal_rays(semifield: Semifield, rays: Sequence[tuple]) -> list[int]:
    """Positions of the extremal rays among distinct nonzero rays.

    rays are plain tuples of valid scalars, no two on one ray.  A ray v is a
    combination of the others exactly when every index i of its support is
    covered, that is c u_i = v_i for some other ray u with supp(u) within
    supp(v), where c is the greatest scalar with c u <= v (the order-minimum
    of v_k u_k^-1 over the support of u): the extremality criterion of
    Butkovic, Schneider & Sergeev, "Generators, extremals and bases of max
    cones", LAA 421 (2007).  The support, its bit mask and the values on it
    are taken once per ray, so a pair costs its ratios and one order-minimum.
    """
    ratio, order_min = semifield.ratio, semifield.order_min
    prepared = []  # (mask, support, bit of each support index, values there)
    for v in rays:
        sup = [i for i, e in enumerate(v) if e is not ZERO]
        bits = [1 << i for i in sup]
        prepared.append((sum(bits), sup, bits, [v[i] for i in sup]))
    kept = []
    for j, (v, (mask_v, _, _, _)) in enumerate(zip(rays, prepared)):
        uncovered, outside, at = mask_v, ~mask_v, v.__getitem__
        for l, (mask_u, sup_u, bits_u, vals_u) in enumerate(prepared):
            if mask_u & outside or not mask_u & uncovered or l == j:
                continue
            ratios = list(map(ratio, map(at, sup_u), vals_u))
            least = order_min(ratios)
            for r, bit in zip(ratios, bits_u):
                if r == least:
                    uncovered &= ~bit
            if not uncovered:
                break
        if uncovered:
            kept.append(j)
    return kept


def reduce_to_independent(matrix: TropMatrix) -> tuple[TropMatrix, list[int]]:
    """Drop columns that are tropical combinations of the others.

    Keeps the first column of every extremal ray of the column cone, in input
    order, which spans the same set as the input: repeated rays are dropped
    by a lookup on ray_key, and extremal_rays tests the rest.  Returns the
    reduced matrix and the kept column indices.
    """
    sf = matrix.semifield
    cols = list(zip(*matrix.entries))
    first = {}  # ray_key -> index of the first column on the ray
    for j, col in enumerate(cols):
        if all(e is ZERO for e in col):
            raise ZeroColumn(f"column {j} is all-zero")
        first.setdefault(ray_key(sf, col), j)
    index = list(first.values())
    kept = [index[k] for k in extremal_rays(sf, [cols[j] for j in index])]
    reduced = [[row[j] for j in kept] for row in matrix.entries]
    return _trusted(TropMatrix, sf, reduced), kept
