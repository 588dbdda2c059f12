"""Problem documents: parsing, validation findings, serialization round-trip."""

import json

import pytest

from proscons import (
    Polarity,
    ProblemFormatError,
    fixture_path,
    load_fixture,
    load_problem,
    parse_problem,
    serialize_problem,
    validate_document,
)

GOOD_DOC = {
    "scale": ["zero", "beta", "lambda"],
    "arguments": [
        {"name": "pool", "polarity": "pro", "level": "beta"},
        {"name": "price", "polarity": "con", "level": "lambda"},
        {"name": "chocolate", "polarity": "both", "level": "beta"},
    ],
    "options": {"a": ["pool", "price"], "b": []},
}


def test_parse_expands_both_declarations():
    problem = parse_problem(GOOD_DOC)
    names = {a.name for a in problem.universe.arguments}
    assert len(names) == 4  # chocolate split into a pro and a con
    split = sorted(n for n in names if n.startswith("chocolate"))
    assert len(split) == 2
    polarities = {problem.universe.by_name[n].polarity for n in split}
    assert polarities == {Polarity.PRO, Polarity.CON}


def test_roundtrip_identity():
    problem = parse_problem(GOOD_DOC)
    again = parse_problem(serialize_problem(problem))
    assert again.universe == problem.universe
    assert {n: p.members for n, p in again.options.items()} == {
        n: p.members for n, p in problem.options.items()
    }


@pytest.mark.parametrize("name", ["luc", "lucy", "luka"])
def test_fixture_roundtrip(name):
    problem = load_fixture(name)
    again = parse_problem(serialize_problem(problem))
    assert again.universe == problem.universe
    assert {n: p.members for n, p in again.options.items()} == {
        n: p.members for n, p in problem.options.items()
    }


def test_unknown_level_label_is_positioned_error():
    doc = dict(GOOD_DOC, arguments=[{"name": "x", "polarity": "pro", "level": "gamma"}])
    with pytest.raises(ProblemFormatError, match=r"arguments\[0\].level"):
        parse_problem(doc)


def test_unknown_option_member():
    doc = dict(GOOD_DOC, options={"a": ["helipad"]})
    with pytest.raises(ProblemFormatError, match="options.a"):
        parse_problem(doc)


def test_repeated_member_rejected():
    doc = dict(GOOD_DOC, options={"a": ["pool", "pool"]})
    with pytest.raises(ProblemFormatError, match="at most once"):
        parse_problem(doc)


def test_validate_document_reports_duplicates_and_triviality():
    doc = {
        "scale": ["zero", "one"],
        "arguments": [
            {"name": "pool", "polarity": "pro", "level": "zero"},
            {"name": "pool", "polarity": "con", "level": "zero"},
        ],
        "options": {},
    }
    report = validate_document(doc)
    assert set(report.codes()) == {"DuplicateName", "TrivialUniverse"}


def test_validate_document_flags_parse_errors():
    report = validate_document({"scale": "nope"})
    assert report.codes() == ("ParseError",)


def test_validate_document_collects_what_parse_problem_stops_at():
    doc = {
        "scale": ["zero", "one"],
        "arguments": [
            {"name": "pool", "polarity": "pro", "level": "one"},
            {"name": "pool", "polarity": "con", "level": "one"},
        ],
        "options": {"a": ["helipad"], "b": "pool"},
    }
    report = validate_document(doc)
    assert report.codes() == ("DuplicateName", "ParseError", "ParseError")
    with pytest.raises(ProblemFormatError) as caught:
        parse_problem(doc)
    assert str(caught.value) == report.violations[0].message


def test_load_problem_not_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ProblemFormatError, match="not UTF-8"):
        load_problem(path)


def test_load_problem_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        load_problem(path)


def test_fixture_paths_exist():
    for name in ("luc", "lucy", "luka"):
        data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        assert set(data) == {"scale", "arguments", "options"}
    with pytest.raises(ProblemFormatError):
        fixture_path("nessie")


class _CountedLabel(str):
    """A label that counts its equality tests."""

    calls = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        _CountedLabel.calls += 1
        return str.__eq__(self, other)


def test_level_labels_resolve_without_scanning_the_scale(monkeypatch):
    # 200 pros near the top of a 3,000-level scale; each level label is a new
    # object, so no lookup is settled by identity.  A scan of the scale per
    # label would test equality about 200 × 3,000 times.
    monkeypatch.setattr(_CountedLabel, "calls", 0)
    scale = [_CountedLabel(f"l{i}") for i in range(3000)]
    doc = {
        "scale": scale,
        "arguments": [{"name": f"x{i}", "polarity": "pro", "level": _CountedLabel(f"l{2999 - i}")}
                      for i in range(200)],
        "options": {},
    }
    problem = parse_problem(doc)
    assert problem.universe.level_of("x0") == 2999
    assert _CountedLabel.calls <= 2 * (len(scale) + len(doc["arguments"]))
