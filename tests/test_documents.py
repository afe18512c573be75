import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Z, mat, vec
from tropspan import ParseError, ValidationError
from tropspan.documents import (
    _FIELDS,
    _PROBLEMS,
    input_digest,
    parse_candidates,
    parse_problem,
    parse_solution,
    scalar_from_json,
    scalar_to_json,
    serialize_problem,
    serialize_solution,
)

DATA = Path(__file__).parent / "data"


def test_parse_span_problem_file():
    doc = parse_problem((DATA / "span_demo.json").read_text())
    assert doc.kind == "span"
    assert doc.entries["A"] == mat([[2, 0], [4, 1]])
    assert doc.entries["p"] == vec([5, 2])
    assert doc.entries["q"] == vec([1, 2])
    prob = doc.to_span_problem()
    assert prob.delta == 2


def test_parse_schedule_problem_file():
    doc = parse_problem((DATA / "schedule_demo.json").read_text())
    inst = doc.problem()
    assert inst.n == 3
    assert inst.A.entries[0][2] is Z


@pytest.mark.parametrize("kind", ["span", "schedule"])
def test_fields_list_the_problem_parameters_in_order(kind):
    # problem() and check_data take a document's entries by position
    parameters = list(inspect.signature(_PROBLEMS[kind].__init__).parameters)
    assert list(_FIELDS[kind]) == parameters[1:]


def test_zero_token_and_rationals():
    text = '{"kind": "span", "A": [["1/2", "-inf"], [1, 0.25]], "p": [1, "-inf"], "q": [0, "2/3"]}'
    doc = parse_problem(text)
    assert doc.entries["A"].entries[0][0] == Fraction(1, 2)
    assert doc.entries["A"].entries[0][1] is Z
    assert doc.entries["A"].entries[1][1] == Fraction(1, 4)
    assert doc.entries["q"].entries[1] == Fraction(2, 3)


def test_scalar_json_round_trip():
    for value in (0, -7, Fraction(3, 4), Z):
        encoded = scalar_to_json(value)
        assert scalar_from_json(encoded, "x") == value
    with pytest.raises(ParseError):
        scalar_from_json(True, "x")
    with pytest.raises(ParseError):
        scalar_from_json("wat", "x")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_problem("")
    with pytest.raises(ParseError):
        parse_problem("[1, 2]")
    with pytest.raises(ParseError):
        parse_problem('{"kind": "nope"}')
    # ragged rows
    with pytest.raises(ParseError) as info:
        parse_problem('{"kind": "span", "A": [[1, 2], [3]], "p": [0, 0], "q": [0, 0]}')
    assert "ragged" in str(info.value)
    # unexpected field: not worded like the command line's catch-all refusal,
    # "error: unexpected <TypeName>: ..."
    with pytest.raises(ParseError, match="^unknown fields: x$"):
        parse_problem('{"kind": "span", "A": [[1]], "p": [0], "q": [0], "x": 1}')
    # missing field
    with pytest.raises(ParseError):
        parse_problem('{"kind": "span", "A": [[1]], "p": [0]}')


def test_validation_errors():
    with pytest.raises(ValidationError) as info:
        parse_problem('{"kind": "span", "A": [["-inf", "-inf"], [1, 1]], '
                      '"p": [0, 0], "q": [0, 0]}')
    assert "row-regular" in str(info.value)
    with pytest.raises(ValidationError):
        parse_problem('{"kind": "span", "A": [[1, 1]], "p": ["-inf"], "q": [0, 0]}')
    with pytest.raises(ValidationError):
        parse_problem('{"kind": "span", "A": [[1, 1]], "p": [0], "q": [0, "-inf"]}')
    with pytest.raises(ValidationError):
        parse_problem('{"kind": "span", "semifield": "min-plus", "A": [[1]], '
                      '"p": [0], "q": [0]}')
    # the data checks of SpanProblem and ScheduleInstance, as ValidationError
    schedule = ('{"kind": "schedule", "A": %s, "B": %s, '
                '"C": [[0, 0], [0, 0]], "f": %s}')
    for text in (
            '{"kind": "span", "A": [[1, 1]], "p": [0, 0], "q": [0, 0]}',
            '{"kind": "span", "A": [[1, 1]], "p": [0], "q": [0]}',
            schedule % ("[[0, 0], [0, 0]]", "[[0, 0, 0]]", "[5, 5]"),
            schedule % ("[[0, 0, 0], [0, 0, 0]]", "[[0, 0], [0, 0]]", "[5, 5]"),
            schedule % ("[[0, 0], [0, 0]]", "[[0, 0], [0, 0]]", '[5, "-inf"]')):
        with pytest.raises(ValidationError):
            parse_problem(text)


def test_unhashable_semifield_is_refused():
    with pytest.raises(ParseError, match="unknown semifield"):
        parse_problem('{"kind": "span", "semifield": [], "A": [[1]], '
                      '"p": [0], "q": [0]}')
    with pytest.raises(ParseError, match="unknown semifield"):
        parse_solution('{"kind": "span-solution", "semifield": {}}')


def test_problem_round_trip_is_identity():
    for name in ("span_demo.json", "schedule_demo.json", "span_reduced_demo.json"):
        doc = parse_problem((DATA / name).read_text())
        text = serialize_problem(doc)
        again = parse_problem(text)
        assert again == doc
        assert serialize_problem(again) == text


def test_solution_round_trip():
    from tropspan.documents import SolutionDocument

    doc = SolutionDocument(
        kind="span-solution",
        input_sha256="00" * 32,
        delta=2,
        enumeration_visited=1,
        enumeration_pruned=1,
        compact=False,
        entries={"generators": mat([[0, -1], [Z, 0]]),
                 "extended.lower": vec([1, -1]),
                 "extended.upper": vec([1, 2]),
                 "extended.generators": mat([[0, -1], [-2, 0]])},
    )
    text = serialize_solution(doc)
    assert parse_solution(text) == doc
    assert serialize_solution(parse_solution(text)) == text


def test_min_plus_solution_is_refused():
    # documents are max-plus only, whatever their kind: a min-plus solution
    # would otherwise parse and only fail against a max-plus problem
    text = json.dumps({
        "kind": "span-solution", "semifield": "min-plus", "input_sha256": "00" * 32,
        "delta": 2, "enumeration": {"visited": 1, "pruned": 0}, "compact": False,
        "generators": [[0, -1], ["+inf", 0]],
        "extended": {"lower": [1, -1], "upper": [1, 2],
                     "generators": [[0, -1], [-2, 0]]}})
    with pytest.raises(ValidationError, match="max-plus"):
        parse_solution(text)
    with pytest.raises(ValidationError, match="max-plus"):
        parse_solution(text.replace("span-solution", "schedule-solution"))


def test_input_digest_stability():
    text = (DATA / "span_demo.json").read_text()
    assert input_digest(text) == input_digest(text)
    assert input_digest(text) != input_digest(text + " ")


@pytest.mark.parametrize("literal, shown", [
    ("1e999999", "1e999999"), ("9" * 5000, "999999999999..."),
    ("[1, -0.5e-99999]", "-0.5e-99999")], ids=["exponent", "digits", "nested"])
def test_refused_literal_is_located(literal, shown):
    # the string before it holds the same digits and is not a number
    text = ('{"kind": "span", "note": "1e999999", "A": [[2, 0], [4, 1]],\n'
            f' "p": [5, 2], "q": [{literal}, 2]}}')
    column = 25 if literal.startswith("[") else 21
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == (f"line 2, column {column}: numeric literal "
                               f"{shown} needs more than 4000 digits")


def _span_text(**fields):
    data = json.loads((DATA / "span_demo.json").read_text())
    data.update(fields)
    return json.dumps(data)


def _candidates(text, problem="span_demo.json"):
    return parse_candidates(text, parse_problem((DATA / problem).read_text()))


@pytest.mark.parametrize("read, error, start", [
    (lambda: parse_problem(_span_text(A=[[2, None], [4, 1]])), ParseError,
     "A[0][1]: None is not a scalar"),
    (lambda: parse_problem(_span_text(p=5)), ParseError,
     "p: expected a non-empty array of scalars"),
    (lambda: parse_problem(_span_text(q=[])), ParseError,
     "q: expected a non-empty array of scalars"),
    (lambda: parse_problem(_span_text(A={"0": [2, 0]})), ParseError,
     "A: expected a non-empty array of rows"),
    (lambda: parse_problem(_span_text(A=[])), ParseError,
     "A: expected a non-empty array of rows"),
    (lambda: parse_problem(_span_text(A=[[2, 0], 4])), ParseError,
     "A[1]: expected a non-empty row"),
    (lambda: parse_problem(_span_text(A=[[], [4, 1]])), ParseError,
     "A[0]: expected a non-empty row"),
    (lambda: parse_problem(_span_text(metadata={"name": 1})), ParseError,
     "metadata must map strings to strings"),
    (lambda: parse_problem(_span_text(metadata=["name"])), ParseError,
     "metadata must map strings to strings"),
    (lambda: parse_problem((DATA / "schedule_demo.json").read_text()).to_span_problem(),
     ValidationError, "expected a span problem, got schedule"),
    (lambda: _candidates("[]"), ParseError,
     "candidates: top level must be an object"),
    (lambda: _candidates('{"kind": "vectors"}'), ParseError,
     "candidates file must have kind 'candidates'"),
    (lambda: _candidates('{"kind": "candidates", "vectors": {}}'), ParseError,
     "candidates: expected a non-empty 'vectors' array"),
    (lambda: _candidates('{"kind": "candidates", "schedules": [{"x": [0]}]}',
                         "schedule_demo.json"), ParseError,
     "schedules[0]: expected an object with x and y"),
], ids=["scalar-null", "vector-not-a-list", "vector-empty", "matrix-not-a-list",
        "matrix-empty", "row-not-a-list", "row-empty", "metadata-value",
        "metadata-not-an-object", "schedule-as-span", "candidates-top-level",
        "candidates-kind", "candidates-vectors", "candidates-pair"])
def test_document_refusals(read, error, start):
    # each refusal is a TropicalError, which the command line exits 2 on
    with pytest.raises(error) as info:
        read()
    assert str(info.value).startswith(start)
