"""Problem and solution documents: one canonical JSON text format.

Documents are max-plus only.  Scalars are written as JSON integers, "p/q"
strings for non-integral rationals, and the token "-inf" for the zero.
Decimal literals in input are read exactly (0.5 becomes the rational 1/2),
unless they could need more than MAX_LITERAL_DIGITS digits.  Serialization is
canonical (sorted keys, fixed indentation), so identical inputs always yield
byte-identical outputs.

Problem files carry a "kind" of "span" (fields A, p, q) or "schedule"
(fields A, B, C, f); solution documents echo a SHA-256 of the input text so
a result can always be matched to the problem that produced it.  The
matrices and vectors of every kind are listed in _FIELDS by dotted JSON
path, and one reader and one writer serve all four kinds.  _PROBLEMS names
the class that checks and holds each kind of problem.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, TropicalError, ValidationError
from .linalg import TropMatrix, TropVector, _trusted
from .scheduling import ScheduleInstance
from .semifield import MAX_PLUS, SEMIFIELDS, ZERO, Scalar, _norm
from .spanopt import SpanProblem

KIND_SPAN = "span"
KIND_SCHEDULE = "schedule"
KIND_SPAN_SOLUTION = "span-solution"
KIND_SCHEDULE_SOLUTION = "schedule-solution"

# The matrices and vectors of each kind of document, by dotted JSON path.
# A problem's entries come in the argument order of its class in _PROBLEMS.
_FIELDS = {
    KIND_SPAN: {"A": "matrix", "p": "vector", "q": "vector"},
    KIND_SCHEDULE: {"A": "matrix", "B": "matrix", "C": "matrix", "f": "vector"},
    KIND_SPAN_SOLUTION: {"generators": "matrix", "extended.lower": "vector",
                         "extended.upper": "vector", "extended.generators": "matrix"},
    KIND_SCHEDULE_SOLUTION: {"span_generators": "matrix", "x_generators": "matrix",
                             "y_generators": "matrix", "coefficient_bound": "vector",
                             "latest.x": "vector", "latest.y": "vector"},
}

# The class that checks and holds the data of each kind of problem
_PROBLEMS = {KIND_SPAN: SpanProblem, KIND_SCHEDULE: ScheduleInstance}

# Below the 4300 digits that int <-> str conversion accepts by default, with
# room for the sums of entries a solution holds.
MAX_LITERAL_DIGITS = 4000
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS
_ZERO_TOKEN = MAX_PLUS.zero_token


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


def _scalar(value) -> Scalar:
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
        if value == _ZERO_TOKEN:
            return ZERO
        try:
            return _norm(_decimal(value))
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"{value!r} is not an integer, a p/q rational, "
                f"or the token {_ZERO_TOKEN!r}") from None
    if isinstance(value, Fraction):
        return _norm(value)
    raise ParseError(f"{value!r} is not a scalar")


def scalar_from_json(value, where: str) -> Scalar:
    try:
        return _scalar(value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _scalars(values: list, where: str) -> list:
    """scalar_from_json of each value, located as where[i] on error only."""
    out = []
    try:
        for value in values:
            out.append(_scalar(value))
    except ParseError as exc:
        raise ParseError(f"{where}[{len(out)}]: {exc}") from None
    return out


def scalar_to_json(value: Scalar):
    """The JSON form of a scalar: json.dumps calls it for ZERO and Fractions."""
    if value is ZERO:
        return _ZERO_TOKEN
    if isinstance(value, int):
        return value
    return str(value)


def _vector_from_json(value, where: str) -> TropVector:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{where}: expected a non-empty array of scalars")
    return _trusted(TropVector, MAX_PLUS, _scalars(value, where))


def _matrix_from_json(value, where: str) -> TropMatrix:
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
        rows.append(_scalars(row, f"{where}[{i}]"))
    return _trusted(TropMatrix, MAX_PLUS, rows)


# -- one reader and one writer for every kind ---------------------------------

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


def _header(data, kinds: tuple[str, str]) -> str:
    """The kind, one of kinds, of a loaded document, whose semifield must be
    max-plus: _scalar admits exactly its scalars, so the readers build
    entries with _trusted."""
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in kinds:
        raise ParseError(f"kind must be {kinds[0]!r} or {kinds[1]!r}, "
                         f"got {kind!r}")
    sf_name = data.get("semifield", MAX_PLUS.name)
    if not isinstance(sf_name, str) or sf_name not in SEMIFIELDS:
        raise ParseError(f"unknown semifield {sf_name!r}")
    if sf_name != MAX_PLUS.name:
        raise ValidationError(
            f"only the {MAX_PLUS.name} semifield is supported in document files")
    return kind


def _field(data: dict, path: str, kind: str):
    """The value at a dotted path of a document, or a refusal naming the path."""
    value = data
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ParseError(f"missing field {path!r} for kind {kind!r}")
        value = value[key]
    return value


def _read_entries(data: dict, kind: str) -> dict:
    """Every matrix and vector _FIELDS lists for kind, keyed by its path."""
    entries = {}
    for path, shape in _FIELDS[kind].items():
        loader = _matrix_from_json if shape == "matrix" else _vector_from_json
        entries[path] = loader(_field(data, path, kind), path)
    return entries


def _write_entries(payload: dict, entries: dict) -> str:
    """Canonical text of a header payload, entries nested at their paths."""
    for path, value in entries.items():
        *parents, name = path.split(".")
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[name] = value.entries
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=scalar_to_json) + "\n"


# -- problem documents --------------------------------------------------------

class ProblemDocument(NamedTuple):
    kind: str
    entries: dict  # name -> TropMatrix | TropVector
    metadata: dict  # str -> str

    def problem(self) -> SpanProblem | ScheduleInstance:
        """The SpanProblem or ScheduleInstance the document describes."""
        return _PROBLEMS[self.kind](*self.entries.values())

    def to_span_problem(self) -> SpanProblem:
        if self.kind != KIND_SPAN:
            raise ValidationError(f"expected a {KIND_SPAN} problem, got {self.kind}")
        return self.problem()


def parse_problem(text: str) -> ProblemDocument:
    """A problem document whose data its problem class accepts; a schedule's
    Kleene star is left to the instance, which refuses infeasible precedence."""
    data = _load_json(text)
    kind = _header(data, (KIND_SPAN, KIND_SCHEDULE))
    allowed = set(_FIELDS[kind]) | {"kind", "semifield", "metadata"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(unknown)}")
    entries = _read_entries(data, kind)

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict) or any(
            not isinstance(k, str) or not isinstance(v, str)
            for k, v in metadata.items()):
        raise ParseError("metadata must map strings to strings")

    try:
        _PROBLEMS[kind].check_data(*entries.values())
    except TropicalError as exc:
        raise ValidationError(str(exc)) from None
    return ProblemDocument(kind=kind, entries=entries, metadata=dict(metadata))


def serialize_problem(doc: ProblemDocument) -> str:
    payload = {"kind": doc.kind, "semifield": MAX_PLUS.name}
    if doc.metadata:
        payload["metadata"] = dict(sorted(doc.metadata.items()))
    return _write_entries(payload, doc.entries)


# -- solution documents -------------------------------------------------------

class SolutionDocument(NamedTuple):
    kind: str
    input_sha256: str
    delta: Scalar
    enumeration_visited: int
    enumeration_pruned: int
    compact: bool
    entries: dict  # path of _FIELDS[kind] -> TropMatrix | TropVector


def serialize_solution(doc: SolutionDocument) -> str:
    return _write_entries({
        "kind": doc.kind,
        "semifield": MAX_PLUS.name,
        "input_sha256": doc.input_sha256,
        "delta": doc.delta,
        "enumeration": {"visited": doc.enumeration_visited,
                        "pruned": doc.enumeration_pruned},
        "compact": doc.compact,
    }, doc.entries)


def _solution(data) -> SolutionDocument:
    kind = _header(data, (KIND_SPAN_SOLUTION, KIND_SCHEDULE_SOLUTION))

    def header(path, valid, expected):
        value = _field(data, path, kind)
        if not valid(value):
            raise ParseError(f"{path}: expected {expected}")
        return value

    count = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
    return SolutionDocument(
        kind=kind,
        input_sha256=header("input_sha256", lambda v: isinstance(v, str),
                            "a string"),
        delta=scalar_from_json(_field(data, "delta", kind), "delta"),
        enumeration_visited=header("enumeration.visited", *count),
        enumeration_pruned=header("enumeration.pruned", *count),
        compact="compact" in data and header(
            "compact", lambda v: isinstance(v, bool), "true or false"),
        entries=_read_entries(data, kind),
    )


def parse_solution(text: str) -> SolutionDocument:
    return _solution(_load_json(text))


# -- candidates ---------------------------------------------------------------

def parse_candidates(text: str, doc: ProblemDocument) -> tuple[str, object]:
    """What verify checks against the problem doc, loaded from JSON once:
    ("solution", a SolutionDocument), ("vectors", [x, ...]) for a span
    problem, or ("pairs", [(x, y), ...]) for a schedule."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("candidates: top level must be an object")
    kind = data.get("kind")
    if kind in (KIND_SPAN_SOLUTION, KIND_SCHEDULE_SOLUTION):
        return ("solution", _solution(data))
    if kind != "candidates":
        raise ParseError("candidates file must have kind 'candidates' or be "
                         "a solution document")
    field = "vectors" if doc.kind == KIND_SPAN else "schedules"
    raw = data.get(field)
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"candidates: expected a non-empty {field!r} array")
    if doc.kind == KIND_SPAN:
        vectors = [_vector_from_json(v, f"vectors[{i}]")
                   for i, v in enumerate(raw)]
        return ("vectors", vectors)
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "x" not in item or "y" not in item:
            raise ParseError(f"schedules[{i}]: expected an object with x and y")
        pairs.append((_vector_from_json(item["x"], f"schedules[{i}].x"),
                      _vector_from_json(item["y"], f"schedules[{i}].y")))
    return ("pairs", pairs)
