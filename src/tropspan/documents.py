"""Problem and solution documents: one canonical JSON text format.

Scalars are written as JSON integers, "p/q" strings for non-integral
rationals, and the token "-inf" for the max-plus zero.  Decimal literals in
input are read exactly (0.5 becomes the rational 1/2), unless they could
need more than MAX_LITERAL_DIGITS digits.  Serialization is
canonical (sorted keys, fixed indentation), so identical inputs always yield
byte-identical outputs.

Problem files carry a "kind" of "span" (fields A, p, q) or "schedule"
(fields A, B, C, f); solution documents echo a SHA-256 of the input text so
a result can always be matched to the problem that produced it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ValidationError
from .linalg import TropMatrix, TropVector, _trusted
from .scheduling import ScheduleInstance
from .semifield import MAX_PLUS, SEMIFIELDS, ZERO, Scalar, Semifield, _norm
from .spanopt import SpanProblem

KIND_SPAN = "span"
KIND_SCHEDULE = "schedule"
KIND_SPAN_SOLUTION = "span-solution"
KIND_SCHEDULE_SOLUTION = "schedule-solution"

_SPAN_FIELDS = {"A": "matrix", "p": "vector", "q": "vector"}
_SCHEDULE_FIELDS = {"A": "matrix", "B": "matrix", "C": "matrix", "f": "vector"}

# Below the 4300 digits that int <-> str conversion accepts by default, with
# room for the sums of entries a solution holds.
MAX_LITERAL_DIGITS = 4000
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- scalar <-> JSON ----------------------------------------------------------

def _decimal(text: str) -> Fraction:
    """Fraction(text), refused first when it could need more than
    MAX_LITERAL_DIGITS digits: the length of the literal plus its decimal
    exponent bound the digits of its numerator and denominator."""
    size = len(text)
    _, e, exponent = text.lower().partition("e")
    if e and size <= MAX_LITERAL_DIGITS:
        size += abs(int(exponent))
    if size > MAX_LITERAL_DIGITS:
        raise _oversized(text)
    return Fraction(text)


def _oversized(literal: str) -> ParseError:
    shown = literal if len(literal) <= 12 else literal[:12] + "..."
    return ParseError(f"numeric literal {shown} needs more than "
                      f"{MAX_LITERAL_DIGITS} digits")


def _locate_oversized(text: str) -> ParseError:
    """The refusal of the first JSON number json.loads cannot read, located.

    Its hooks get no position, so only this error path scans the numbers
    outside strings, in the order json.loads reads them."""
    strings_and_numbers = r'"[^"\\]*(?:\\.[^"\\]*)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?'
    for match in re.finditer(strings_and_numbers, text):
        literal, start = match.group(), match.start()
        try:
            if literal[0] != '"':
                (int if literal.lstrip("-").isdigit() else _decimal)(literal)
        except (ParseError, ValueError):
            line = text.count("\n", 0, start) + 1
            column = start - text.rfind("\n", 0, start)
            return ParseError(f"line {line}, column {column}: {_oversized(literal)}")
    return ParseError(f"numeric literal needs more than {MAX_LITERAL_DIGITS} digits")


def _scalar(value, semifield: Semifield) -> Scalar:
    """scalar_from_json without the location, which only an error needs.

    Plain ints are tested first and strings before Fraction, whose
    isinstance test goes through the abstract base classes of numbers.
    """
    if type(value) is int or (isinstance(value, int)
                              and not isinstance(value, bool)):
        if abs(value) < _LITERAL_BOUND:
            return value
        raise ParseError(f"integer needs more than {MAX_LITERAL_DIGITS} digits")
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, str):
        if value == semifield.zero_token:
            return ZERO
        try:
            return _norm(_decimal(value))
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"{value!r} is not an integer, a p/q rational, "
                f"or the token {semifield.zero_token!r}") from None
    if isinstance(value, Fraction):
        return _norm(value)
    raise ParseError(f"{value!r} is not a scalar")


def scalar_from_json(value, where: str, semifield: Semifield) -> Scalar:
    try:
        return _scalar(value, semifield)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _scalars(values: list, where: str, sf: Semifield) -> list:
    """scalar_from_json of each value, located as where[i] on error only."""
    out = []
    try:
        for value in values:
            out.append(_scalar(value, sf))
    except ParseError as exc:
        raise ParseError(f"{where}[{len(out)}]: {exc}") from None
    return out


def _built(cls, sf: Semifield, entries):
    # _scalar admits exactly the max-plus scalars; the other semifields
    # restrict the domain further, so their constructors check again
    return _trusted(cls, sf, entries) if sf is MAX_PLUS else cls(sf, entries)


def scalar_to_json(value: Scalar, semifield: Semifield):
    if value is ZERO:
        return semifield.zero_token
    if isinstance(value, int):
        return value
    return str(value)


def _vector_from_json(value, where: str, sf: Semifield) -> TropVector:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty array of scalars")
    return _built(TropVector, sf, _scalars(value, where, sf))


def _matrix_from_json(value, where: str, sf: Semifield) -> TropMatrix:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}: ragged rows "
                             f"(row {i} has {len(row)} entries, expected {width})")
        rows.append(_scalars(row, f"{where}[{i}]", sf))
    return _built(TropMatrix, sf, rows)


def _vector_to_json(v: TropVector):
    return [scalar_to_json(e, v.semifield) for e in v.entries]


def _matrix_to_json(m: TropMatrix):
    return [[scalar_to_json(e, m.semifield) for e in row] for row in m.entries]


# -- problem documents --------------------------------------------------------

@dataclass(frozen=True, eq=True)
class ProblemDocument:
    kind: str
    semifield: Semifield
    entries: dict  # name -> TropMatrix | TropVector
    metadata: dict  # str -> str

    def to_span_problem(self) -> SpanProblem:
        if self.kind != KIND_SPAN:
            raise ValidationError(f"expected a {KIND_SPAN} problem, got {self.kind}")
        return SpanProblem(self.entries["A"], self.entries["p"], self.entries["q"])

    def to_schedule_instance(self) -> ScheduleInstance:
        if self.kind != KIND_SCHEDULE:
            raise ValidationError(
                f"expected a {KIND_SCHEDULE} problem, got {self.kind}")
        return ScheduleInstance(self.entries["A"], self.entries["B"],
                                self.entries["C"], self.entries["f"])


def _load_json(text: str):
    try:
        return json.loads(text, parse_float=_decimal, parse_int=int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    except (ParseError, ValueError):  # past the cap or the int <-> str limit
        raise _locate_oversized(text) from None


def parse_problem(text: str) -> ProblemDocument:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in (KIND_SPAN, KIND_SCHEDULE):
        raise ParseError(f"kind must be {KIND_SPAN!r} or {KIND_SCHEDULE!r}, "
                         f"got {kind!r}")
    sf_name = data.get("semifield", MAX_PLUS.name)
    if sf_name not in SEMIFIELDS:
        raise ParseError(f"unknown semifield {sf_name!r}")
    if sf_name != MAX_PLUS.name:
        raise ValidationError(
            f"only the {MAX_PLUS.name} semifield is supported in problem files")
    sf = SEMIFIELDS[sf_name]

    fields = _SPAN_FIELDS if kind == KIND_SPAN else _SCHEDULE_FIELDS
    allowed = set(fields) | {"kind", "semifield", "metadata"}
    unexpected = sorted(set(data) - allowed)
    if unexpected:
        raise ParseError(f"unexpected fields: {', '.join(unexpected)}")

    entries = {}
    for name, shape in fields.items():
        if name not in data:
            raise ParseError(f"missing field {name!r} for kind {kind!r}")
        loader = _matrix_from_json if shape == "matrix" else _vector_from_json
        entries[name] = loader(data[name], name, sf)

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict) or any(
            not isinstance(k, str) or not isinstance(v, str)
            for k, v in metadata.items()):
        raise ParseError("metadata must map strings to strings")

    _validate_shapes(kind, entries)
    return ProblemDocument(kind=kind, semifield=sf, entries=entries,
                           metadata=dict(metadata))


def _validate_shapes(kind: str, entries: dict) -> None:
    if kind == KIND_SPAN:
        A, p, q = entries["A"], entries["p"], entries["q"]
        if p.dim != A.rows:
            raise ValidationError(f"p has {p.dim} components, A has {A.rows} rows")
        if q.dim != A.cols:
            raise ValidationError(f"q has {q.dim} components, A has {A.cols} columns")
        if not A.is_row_regular():
            raise ValidationError("A not row-regular")
        if p.is_zero():
            raise ValidationError("p is the zero vector")
        if not q.is_regular():
            raise ValidationError("q not regular")
    else:
        A = entries["A"]
        n = A.rows
        for name in ("B", "C"):
            if entries[name].shape != (n, n):
                raise ValidationError(f"{name} must be {n}x{n}, "
                                      f"got {entries[name].shape}")
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        if entries["f"].dim != n:
            raise ValidationError(f"f must have {n} components, "
                                  f"got {entries['f'].dim}")
        if not A.is_regular():
            raise ValidationError("A not regular")
        if not entries["f"].is_regular():
            raise ValidationError("f not regular")


def serialize_problem(doc: ProblemDocument) -> str:
    payload = {"kind": doc.kind, "semifield": doc.semifield.name}
    for name, value in doc.entries.items():
        if isinstance(value, TropMatrix):
            payload[name] = _matrix_to_json(value)
        else:
            payload[name] = _vector_to_json(value)
    if doc.metadata:
        payload["metadata"] = dict(sorted(doc.metadata.items()))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- solution documents -------------------------------------------------------

@dataclass(frozen=True, eq=True)
class SolutionDocument:
    kind: str
    semifield: Semifield
    input_sha256: str
    delta: Scalar
    enumeration_visited: int
    enumeration_pruned: int
    compact: bool
    generators: TropMatrix | None = None          # span: S0
    extended_lower: TropVector | None = None      # span: interval bounds
    extended_upper: TropVector | None = None
    extended_generators: TropMatrix | None = None
    span_generators: TropMatrix | None = None     # schedule: S0
    x_generators: TropMatrix | None = None
    y_generators: TropMatrix | None = None
    coefficient_bound: TropVector | None = None
    latest_x: TropVector | None = None
    latest_y: TropVector | None = None


def serialize_solution(doc: SolutionDocument) -> str:
    sf = doc.semifield
    payload = {
        "kind": doc.kind,
        "semifield": sf.name,
        "input_sha256": doc.input_sha256,
        "delta": scalar_to_json(doc.delta, sf),
        "enumeration": {"visited": doc.enumeration_visited,
                        "pruned": doc.enumeration_pruned},
        "compact": doc.compact,
    }
    if doc.kind == KIND_SPAN_SOLUTION:
        payload["generators"] = _matrix_to_json(doc.generators)
        payload["extended"] = {
            "lower": _vector_to_json(doc.extended_lower),
            "upper": _vector_to_json(doc.extended_upper),
            "generators": _matrix_to_json(doc.extended_generators),
        }
    else:
        payload["span_generators"] = _matrix_to_json(doc.span_generators)
        payload["x_generators"] = _matrix_to_json(doc.x_generators)
        payload["y_generators"] = _matrix_to_json(doc.y_generators)
        payload["coefficient_bound"] = _vector_to_json(doc.coefficient_bound)
        payload["latest"] = {"x": _vector_to_json(doc.latest_x),
                             "y": _vector_to_json(doc.latest_y)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_solution(text: str) -> SolutionDocument:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in (KIND_SPAN_SOLUTION, KIND_SCHEDULE_SOLUTION):
        raise ParseError(f"kind must be {KIND_SPAN_SOLUTION!r} or "
                         f"{KIND_SCHEDULE_SOLUTION!r}, got {kind!r}")
    sf_name = data.get("semifield", MAX_PLUS.name)
    if sf_name not in SEMIFIELDS:
        raise ParseError(f"unknown semifield {sf_name!r}")
    sf = SEMIFIELDS[sf_name]
    try:
        enumeration = data.get("enumeration", {})
        common = dict(
            kind=kind,
            semifield=sf,
            input_sha256=str(data["input_sha256"]),
            delta=scalar_from_json(data["delta"], "delta", sf),
            enumeration_visited=int(enumeration["visited"]),
            enumeration_pruned=int(enumeration["pruned"]),
            compact=bool(data.get("compact", False)),
        )
        if kind == KIND_SPAN_SOLUTION:
            extended = data["extended"]
            return SolutionDocument(
                **common,
                generators=_matrix_from_json(data["generators"], "generators", sf),
                extended_lower=_vector_from_json(extended["lower"],
                                                 "extended.lower", sf),
                extended_upper=_vector_from_json(extended["upper"],
                                                 "extended.upper", sf),
                extended_generators=_matrix_from_json(extended["generators"],
                                                      "extended.generators", sf),
            )
        latest = data["latest"]
        return SolutionDocument(
            **common,
            span_generators=_matrix_from_json(data["span_generators"],
                                              "span_generators", sf),
            x_generators=_matrix_from_json(data["x_generators"],
                                           "x_generators", sf),
            y_generators=_matrix_from_json(data["y_generators"],
                                           "y_generators", sf),
            coefficient_bound=_vector_from_json(data["coefficient_bound"],
                                                "coefficient_bound", sf),
            latest_x=_vector_from_json(latest["x"], "latest.x", sf),
            latest_y=_vector_from_json(latest["y"], "latest.y", sf),
        )
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
