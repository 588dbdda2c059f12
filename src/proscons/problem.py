"""Problem documents: the JSON format the CLI consumes and the fixtures ship in.

A document carries an ordered scale (bottom to top), argument declarations
referencing levels by label, and named options listing their arguments::

    {
      "scale": ["zero", "beta", "lambda"],
      "arguments": [{"name": "pool", "polarity": "pro", "level": "beta"}, ...],
      "options": {"a": ["pool", ...], ...}
    }

Two-sided declarations (``"polarity": "both"``) are split into a pro and a
con of equal importance before the universe is built.  Parsing then
serializing a problem and parsing again yields identical values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

from .core import (
    Argument,
    ArgumentDecl,
    BOTH,
    DecisionUniverse,
    ImportanceScale,
    OptionProfile,
    Polarity,
    ProblemError,
    ValidationReport,
    Violation,
    duplicate_both_polarity,
)

FIXTURES = ("luc", "lucy", "luka")

_POLARITIES = (Polarity.PRO.value, Polarity.CON.value, BOTH)
_TRIVIAL = "TrivialUniverse"  # the one violation that still yields a problem


class ProblemFormatError(ProblemError):
    """The document does not parse into a valid problem; message says where."""


@dataclass(frozen=True)
class Problem:
    universe: DecisionUniverse
    options: Mapping[str, OptionProfile]

    def option(self, name: str) -> OptionProfile:
        try:
            return self.options[name]
        except KeyError:
            raise ProblemFormatError(f"unknown option {name!r}") from None


def _argument_error(entry, scale: ImportanceScale) -> tuple[str, str] | None:
    """Field suffix and message of an argument declaration's first defect."""
    if not isinstance(entry, dict):
        return "", "expected an object"
    for key in ("name", "polarity", "level"):
        if key not in entry:
            return "", f"missing field {key!r}"
    name, polarity, level = entry["name"], entry["polarity"], entry["level"]
    if not isinstance(name, str) or not name:
        return ".name", "expected a non-empty string"
    if polarity not in _POLARITIES:
        return ".polarity", f"expected one of {_POLARITIES}, got {polarity!r}"
    if not isinstance(level, str):
        return ".level", "levels are referenced by label"
    if level not in scale.positions:
        return ".level", f"unknown level label {level!r}"
    return None


def _read(data, source: str) -> tuple[Problem | None, ValidationReport]:
    """Parse a document in one pass, collecting every violation in document order.

    A defect of the scale, of the argument list or of the option table as
    a whole ends the pass, and so do defective argument declarations once
    all are collected; defects of single options are collected and the
    pass goes on.  The problem is ``None`` when any violation other than
    triviality was found.
    """
    found: list[Violation] = []

    def violation(where: str, message: str, code: str = "ParseError"):
        found.append(Violation(code, f"{where}: {message}"))
        return None, ValidationReport(tuple(found))

    if not isinstance(data, dict):
        return violation(source, "expected a JSON object at the top level")
    levels = data.get("scale")
    if not isinstance(levels, list) or not all(isinstance(s, str) for s in levels):
        return violation("scale", "expected a list of level labels, bottom first")
    try:
        scale = ImportanceScale(tuple(levels))
    except ProblemError as error:
        return violation("scale", str(error))

    raw_args = data.get("arguments")
    if not isinstance(raw_args, list):
        return violation("arguments", "expected a list of argument declarations")
    expanded: list[Argument] = []
    for i, entry in enumerate(raw_args):
        error = _argument_error(entry, scale)
        if error:
            violation(f"arguments[{i}]{error[0]}", error[1])
        else:
            decl = ArgumentDecl(entry["name"], entry["polarity"], scale.index(entry["level"]))
            expanded.extend(duplicate_both_polarity(decl))
    if found:
        return None, ValidationReport(tuple(found))
    seen: set[str] = set()
    for arg in expanded:
        if arg.name in seen:
            violation("arguments", f"duplicate argument name {arg.name!r}", "DuplicateName")
        seen.add(arg.name)
    if all(arg.is_null for arg in expanded):
        found.append(Violation(_TRIVIAL, "every argument has null importance"))

    raw_options = data.get("options", {})
    if not isinstance(raw_options, dict):
        return violation(
            "options", "expected an object mapping option names to member lists"
        )
    for name, members in raw_options.items():
        where = f"options.{name}"
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            violation(where, "expected a list of argument names")
        elif len(set(members)) != len(members):
            violation(where, "an option lists each argument at most once")
        elif not seen.issuperset(members):
            violation(where, f"unknown arguments: {sorted(set(members) - seen)}")
    report = ValidationReport(tuple(found))
    if any(v.code != _TRIVIAL for v in found):
        return None, report
    universe = DecisionUniverse(scale, tuple(expanded))
    options = {name: universe.option(members) for name, members in raw_options.items()}
    return Problem(universe, options), report


def _problem_or_raise(problem: Problem | None, report: ValidationReport) -> Problem:
    if problem is None:
        errors = (v.message for v in report.violations if v.code != _TRIVIAL)
        raise ProblemFormatError(next(errors))
    return problem


def parse_problem(data: dict, source: str = "<data>") -> Problem:
    """Build a problem from a parsed JSON document.

    Raises :class:`ProblemFormatError` with a positioned message on the
    first structural defect.  Triviality is *not* an error here: loading a
    trivial problem is allowed, auditing it is not.
    """
    return _problem_or_raise(*_read(data, source))


def validate_document(data: dict) -> ValidationReport:
    """Every violation in a raw document, found in the pass ``parse_problem`` makes.

    Structural defects are ``ParseError``; repeated argument names are
    ``DuplicateName`` and an all-null universe is ``TrivialUniverse``.
    """
    return _read(data, "<data>")[1]


def read_problem(path: str | Path) -> tuple[Problem | None, ValidationReport]:
    """Parse a problem file in one pass: the problem, if any, and every violation.

    A file that cannot be read, is not UTF-8, is not JSON or is JSON that
    the parser cannot take (nested too deeply, or a number with more digits
    than Python's int-to-str limit) yields one ``ParseError`` and no problem.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    except RecursionError:
        message = f"{path}: invalid JSON (nested too deeply)"
    except ValueError as exc:  # a JSONDecodeError, or a number past the int-to-str limit
        message = f"{path}: invalid JSON ({exc})"
    except OSError as exc:
        message = f"{path}: {exc}"
    else:
        return _read(data, str(path))
    return None, ValidationReport((Violation("ParseError", message),))


def load_problem(path: str | Path) -> Problem:
    return _problem_or_raise(*read_problem(path))


def serialize_problem(problem: Problem) -> dict:
    """Document form of a problem; ``parse_problem`` inverts it exactly."""
    universe = problem.universe
    return {
        "scale": list(universe.scale.levels),
        "arguments": [
            {
                "name": a.name,
                "polarity": a.polarity.value,
                "level": universe.scale.label(a.level),
            }
            for a in universe.arguments
        ],
        "options": {
            name: sorted(profile.members)
            for name, profile in problem.options.items()
        },
    }


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example problem (``luc``, ``lucy``, ``luka``)."""
    stem = name.removesuffix(".json")
    if stem not in FIXTURES:
        raise ProblemFormatError(f"no bundled fixture named {name!r}")
    return Path(str(resources.files("proscons") / "fixtures" / f"{stem}.json"))


def load_fixture(name: str) -> Problem:
    return load_problem(fixture_path(name))
