import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Z, mat, vec
from tropspan import MAX_PLUS, ParseError, ValidationError
from tropspan.documents import (
    input_digest,
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
    inst = doc.to_schedule_instance()
    assert inst.n == 3
    assert inst.A.entries[0][2] is Z


def test_zero_token_and_rationals():
    text = '{"kind": "span", "A": [["1/2", "-inf"], [1, 0.25]], "p": [1, "-inf"], "q": [0, "2/3"]}'
    doc = parse_problem(text)
    assert doc.entries["A"].entries[0][0] == Fraction(1, 2)
    assert doc.entries["A"].entries[0][1] is Z
    assert doc.entries["A"].entries[1][1] == Fraction(1, 4)
    assert doc.entries["q"].entries[1] == Fraction(2, 3)


def test_scalar_json_round_trip():
    for value in (0, -7, Fraction(3, 4), Z):
        encoded = scalar_to_json(value, MAX_PLUS)
        assert scalar_from_json(encoded, "x", MAX_PLUS) == value
    with pytest.raises(ParseError):
        scalar_from_json(True, "x", MAX_PLUS)
    with pytest.raises(ParseError):
        scalar_from_json("wat", "x", MAX_PLUS)


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
    # unexpected field
    with pytest.raises(ParseError):
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
        semifield=MAX_PLUS,
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
