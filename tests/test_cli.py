"""Command-line behaviour: commands, exit codes, JSON mode."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proscons import (
    Argument,
    DecisionUniverse,
    ImportanceScale,
    Outcome,
    Polarity,
    Rule,
    fixture_path,
    load_fixture,
    parse_problem,
    serialize_problem,
)
from proscons import rules
from proscons.audit import (
    BUNDLES, CHECKS, Axiom, Witness, check_axiom, sweep_bundle, theorem1_bundle,
)
from proscons.audit import reports
from proscons.audit.space import LEVEL_BOUND
from proscons.cli import _verdict_json as verdict_json
from proscons.cli import build_parser, main
from proscons.encodings import BigSteppedCapacity

GOLDEN = json.loads((Path(__file__).parent / "audit_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_doc(tmp_path, num_args, num_levels, options=None):
    """Problem file of alternating con/pro arguments cycling over the positive levels."""
    scale = [f"l{i}" for i in range(num_levels)]
    arguments = [
        {"name": f"x{i}", "polarity": "pro" if i % 2 else "con",
         "level": scale[1 + i % (num_levels - 1)]}
        for i in range(num_args)
    ]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        {"scale": scale, "arguments": arguments, "options": options or {"a": ["x0"]}}
    ))
    return str(path)


def universe_of(entry):
    """The universe a JSON audit entry names, rebuilt from the entry alone."""
    return DecisionUniverse(
        ImportanceScale(tuple(entry["scale"])),
        tuple(Argument(a["name"], Polarity(a["polarity"]), a["level"]) for a in entry["universe"]),
    )


def assert_one_line_error(code, out, err, fragment):
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert fragment in err


class TestValidate:
    def test_fixture_is_valid(self, capsys):
        code, payload, _ = run_json(capsys, "validate", "luc")
        assert code == 0
        assert payload["valid"] and payload["arguments"] == 7
        assert payload["options"] == ["a", "b"]

    def test_malformed_json_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, payload, _ = run_json(capsys, "validate", str(bad))
        assert code == 1
        assert payload["violations"][0]["code"] == "ParseError"

    @pytest.mark.parametrize("text, reason", [
        pytest.param("[" * 100_000, "nested too deeply", id="nested"),
        # Past the interpreter's int-to-str limit, 4,300 digits by default.
        pytest.param("1" * 5000, "integer string conversion", id="long-number"),
    ])
    def test_json_past_the_parser_limits_is_a_parse_error(self, capsys, tmp_path, text, reason):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (1, "")
        assert out.startswith(f"ParseError: {path}: invalid JSON (") and reason in out
        assert len(out.splitlines()) == 1
        assert_one_line_error(*run(capsys, "compare", str(path), "a", "b"), reason)

    def test_all_null_file_reports_trivial(self, capsys, tmp_path):
        doc = {
            "scale": ["zero", "one"],
            "arguments": [{"name": "x", "polarity": "pro", "level": "zero"}],
            "options": {},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run_json(capsys, "validate", str(path))
        assert code == 1
        assert {v["code"] for v in payload["violations"]} == {"TrivialUniverse"}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "nowhere.json")
        assert code == 1
        assert "no such file" in err

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out.splitlines() == [f"ParseError: {path}: not UTF-8 text "
                                    "(invalid start byte at byte 0)"]
        code, out, err = run(capsys, "compare", str(path), "a", "b")
        assert code == 1
        assert out == "" and len(err.splitlines()) == 1 and "not UTF-8" in err


class TestCompare:
    def test_all_rules_row_on_luc(self, capsys):
        code, payload, _ = run_json(capsys, "compare", "luc", "a", "b")
        assert code == 0
        assert payload["outcomes"] == {
            "pareto": "PreferFirst",
            "biposs": "Indifferent",
            "impl": "PreferFirst",
            "discri": "Indifferent",
            "bilexi": "Incomparable",
            "lexi": "PreferSecond",
        }

    def test_single_rule_on_lucy(self, capsys):
        code, out, _ = run(capsys, "compare", "lucy", "a", "home", "--rule", "biposs")
        assert code == 0
        assert "PreferFirst" in out

    def test_self_comparison(self, capsys):
        code, out, _ = run(capsys, "compare", "luc", "a", "a", "--rule", "lexi")
        assert code == 0
        assert "Indifferent" in out

    def test_unknown_option(self, capsys):
        code, _, err = run(capsys, "compare", "luc", "a", "z")
        assert code == 1
        assert "unknown option" in err

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "luc", "a", "b", "--rule", "vibes")
        assert code == 1

    def test_trivial_universe_warns_but_compares(self, capsys, tmp_path):
        doc = {
            "scale": ["zero", "one"],
            "arguments": [{"name": "x", "polarity": "pro", "level": "zero"}],
            "options": {"a": ["x"], "b": []},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compare", str(path), "a", "b", "--rule", "lexi")
        assert code == 0
        assert "Indifferent" in out
        assert "null importance" in err
        code, _, err = run(
            capsys, "compare", str(path), "a", "b", "--rule", "lexi", "--quiet"
        )
        assert code == 0 and err == ""


class TestRank:
    def test_luka_discri_maximal(self, capsys):
        code, payload, _ = run_json(capsys, "rank", "luka", "--rule", "discri")
        assert code == 0
        assert payload["maximal"] == ["b"]
        assert payload["strict_cycles"] == []

    def test_luc_bilexi_mutually_incomparable(self, capsys):
        code, payload, _ = run_json(capsys, "rank", "luc", "--rule", "bilexi")
        assert code == 0
        assert payload["maximal"] == ["a", "b"]
        assert payload["matrix"]["a"]["b"] == "Incomparable"

    def test_single_option(self, capsys, tmp_path):
        doc = {
            "scale": ["zero", "one"],
            "arguments": [{"name": "x", "polarity": "pro", "level": "one"}],
            "options": {"only": ["x"]},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run_json(capsys, "rank", str(path), "--rule", "lexi")
        assert code == 0
        assert payload["maximal"] == ["only"]


AUDIT_SOURCES = (["luc"], ["--generate", "|X|=2,|L|=3"])


class TestAudit:
    def test_axiom_on_file_reports_grid(self, capsys):
        code, payload, _ = run_json(
            capsys, "audit", "luc", "--axiom", "prefindependence", "--rule", "biposs"
        )
        assert code == 0
        verdicts = payload["checks"]
        assert len(verdicts) == 1
        assert not verdicts[0]["holds"]
        assert verdicts[0]["witness"]["profiles"]
        luc = load_fixture("luc").universe
        assert payload["scale"] == list(luc.scale.levels)
        assert [a["level"] for a in payload["universe"]] == [a.level for a in luc.arguments]

    def test_expect_flag_drives_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "audit", "luc", "--axiom", "prefindependence",
            "--rule", "biposs", "--expect", "holds",
        )
        assert code == 2
        code, _, _ = run(
            capsys, "audit", "luc", "--axiom", "prefindependence",
            "--rule", "biposs", "--expect", "fails",
        )
        assert code == 0

    # A flag that a bundle audit would ignore is refused; ids are "<value>-source<i>-<bundle>".
    @pytest.mark.parametrize("bundle, source, flag, message", [
        *(pytest.param(bundle, source, ["--expect", expect],
                       "--expect applies to --axiom audits only", id=f"{expect}-source{i}-{bundle}")
          for bundle in ("propositions", "theorem1")
          for i, source in enumerate(AUDIT_SOURCES)
          for expect in ("holds", "fails")),
        *(pytest.param("propositions", source, ["--rule", "lexi"],
                       "--rule does not apply to --bundle propositions",
                       id=f"lexi-source{i}-propositions")
          for i, source in enumerate(AUDIT_SOURCES)),
    ])
    def test_expect_with_bundle_is_refused(self, capsys, bundle, source, flag, message):
        code, out, err = run(capsys, "audit", *source, "--bundle", bundle, *flag)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_generated_bundle_theorem1(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--bundle", "theorem1", "--rule", "biposs",
        )
        assert code == 0
        assert "ok" in out

    def test_generated_bundle_differential(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--bundle", "theorem2", "--rule", "bilexi",
        )
        assert code == 0
        assert "fails as expected" in out

    def test_generated_propositions(self, capsys):
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=3,|L|=3", "--bundle", "propositions"
        )
        assert code == 0
        assert all(entry["ok"] for entry in payload["results"])

    def test_generated_axiom_sweep(self, capsys):
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--axiom", "gneg", "--rule", "biposs", "--expect", "holds",
        )
        assert code == 0
        assert payload["results"][0]["holds"]
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--axiom", "prefindependence", "--rule", "biposs", "--expect", "fails",
        )
        assert code == 0
        assert not payload["results"][0]["holds"]
        assert payload["results"][0]["witness"] is not None

    def test_axiom_sweep_text_prints_each_verdict_once(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--axiom", "prefindependence", "--rule", "biposs",
        )
        assert code == 0
        assert out == "prefindependence   biposs   FAIL  witness: {}, {p1b}, {p1a}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("|X|=3,|L|=1", "--bundle", "theorem1", "--rule", "biposs"),
            ("|X|=7,|L|=2", "--bundle", "theorem1", "--rule", "pareto"),
            ("|X|=0,|L|=3", "--bundle", "theorem1", "--rule", "biposs"),
            ("|X|=-2,|L|=3", "--axiom", "ca", "--expect", "holds"),
            ("|X|=0,|L|=3", "--bundle", "propositions"),
            (f"|X|=2,|L|={LEVEL_BOUND + 1}", "--axiom", "ca", "--rule", "lexi"),
            (f"|X|=2,|L|={LEVEL_BOUND + 1}", "--bundle", "theorem1"),
            (f"|X|=2,|L|={LEVEL_BOUND + 1}", "--bundle", "propositions"),
        ],
    )
    def test_sweep_refuses_empty_or_over_bound_range(self, capsys, monkeypatch, argv):
        # Refused before the sweep builds anything, the scale's labels included.
        def unreachable(*_):
            raise AssertionError("universes built for a refused range")

        monkeypatch.setattr(reports, "iter_universes", unreachable)
        code, out, err = run(capsys, "audit", "--generate", *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_trivial_universe_hard_error(self, capsys, tmp_path):
        doc = {
            "scale": ["zero", "one"],
            "arguments": [{"name": "x", "polarity": "pro", "level": "zero"}],
            "options": {},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", str(path), "--axiom", "ca")
        assert code == 1
        assert "null importance" in err

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (("--axiom", "ca"), 12),
            (("--bundle", "theorem1"), 6),
            (("--bundle", "propositions"), 6),
        ],
    )
    def test_over_bound_file_refused_before_enumeration(
        self, capsys, tmp_path, monkeypatch, argv, bound
    ):
        def no_enumeration(universe):
            raise AssertionError("a profile space was built")

        monkeypatch.setattr("proscons.audit.matrices.ProfileSpace", no_enumeration)
        code, out, err = run(capsys, "audit", write_doc(tmp_path, 13, 3), *argv)
        assert_one_line_error(code, out, err, f"enumeration bound is {bound}")

    def test_capacity_weights_past_int64_are_audited(self, capsys, tmp_path):
        # Base 13 weights reach 13**18 on 6 arguments and 19 levels.
        path = write_doc(tmp_path, 6, 19)
        code, out, err = run(capsys, "audit", path, "--bundle", "propositions")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 14 and lines[-1] == "(1 universes checked)"
        assert all(line.split() == [line.split()[0], "ok"] for line in lines[:-1])

    def test_propositions_json_carries_witnesses(self, capsys, monkeypatch):
        code, payload, _ = run_json(capsys, "audit", "luka", "--bundle", "propositions")
        assert code == 0
        assert all(entry["witness"] is None for entry in payload["results"])

        def forced(ctx, rule):
            return Witness(profiles=(frozenset(), frozenset()), note="forced")

        check = CHECKS["np_equals_lexi"]
        monkeypatch.setitem(CHECKS, check.name, replace(check, sweep=forced))
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=2,|L|=3", "--bundle", "propositions"
        )
        assert code == 2
        failed = [entry for entry in payload["results"] if not entry["ok"]]
        assert failed == [{
            "check": "np_equals_lexi",
            "ok": False,
            "witness": {"profiles": [[], []], "args": [], "note": "forced"},
            "universe": [{"name": "p1a", "polarity": "pro", "level": 1}],
            "scale": ["l0", "l1", "l2"],
        }]

    def test_generated_axiom_failure_json_names_its_universe(self, capsys):
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=3,|L|=3",
            "--axiom", "prefindependence", "--rule", "all",
        )
        assert code == 0
        failed = [entry for entry in payload["results"] if not entry["holds"]]
        assert len(failed) == 3
        for entry in payload["results"]:
            assert ("universe" in entry) != entry["holds"]
        for entry in failed:
            verdict = check_axiom(
                Axiom.PREF_INDEPENDENCE, Rule(entry["rule"]), universe_of(entry)
            )
            assert verdict_json(verdict)["witness"] == entry["witness"]

    def test_generated_bundle_json_names_the_failing_universe(self, capsys):
        code, payload, _ = run_json(
            capsys, "audit", "--generate", "|X|=2,|L|=3", "--bundle", "theorem1",
        )
        assert code == 0
        for entry in payload["results"]:
            rule = Rule(entry["rule"])
            if rule is theorem1_bundle.designated:
                assert "universe" not in entry
                continue
            report = theorem1_bundle(rule, universe_of(entry))
            assert report.failures[0].check in entry["detail"]

    def test_audit_needs_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "audit", "luc")
        assert code == 1

    def test_bad_generate_spec(self, capsys):
        code, _, err = run(
            capsys, "audit", "--generate", "bогus", "--axiom", "ca"
        )
        assert code == 1


def _declaration(**changes):
    return {"name": "x", "polarity": "pro", "level": "one", **changes}


def _document(**changes):
    return {"scale": ["zero", "one"], "arguments": [_declaration()], "options": {"a": ["x"]},
            **changes}


class TestInputErrors:
    """Each refused input ends with exit 1 and one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            (_document(arguments=["x"]), "arguments[0]: expected an object"),
            (_document(arguments=[{"name": "x", "polarity": "pro"}]), "missing field 'level'"),
            (_document(arguments=[_declaration(name="")]), "arguments[0].name: expected a non-empty"),
            (_document(arguments=[_declaration(polarity="neutral")]), "arguments[0].polarity:"),
            (_document(arguments=[_declaration(level=1)]), "levels are referenced by label"),
            (_document(arguments=[_declaration(level="two")]), "unknown level label 'two'"),
            (_document(scale=["zero", "zero"]), "level labels must be distinct"),
            (_document(arguments={"x": "pro"}), "expected a list of argument declarations"),
            (_document(options=[["x"]]), "expected an object mapping option names"),
        ],
    )
    def test_defective_document(self, capsys, tmp_path, doc, fragment):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert_one_line_error(*run(capsys, "compare", str(path), "a", "a"), fragment)

    def test_unreadable_path(self, capsys, tmp_path):
        # A directory exists but cannot be read as a file: an OSError.
        assert_one_line_error(*run(capsys, "compare", str(tmp_path), "a", "a"), str(tmp_path))

    @pytest.mark.parametrize(
        "bounds, fragment",
        [
            ("|X|=3,|Y|=3", "unknown bound 'y'"),
            ("|X|=3", "needs both bounds"),
            (",", "needs both bounds"),  # empty tokens are skipped, not bad bounds
            ("|X|=2,|L|=2,|X|=1", "bound 'x' given twice"),
        ],
    )
    def test_bad_generate_bounds(self, capsys, bounds, fragment):
        code, out, err = run(capsys, "audit", "--generate", bounds, "--axiom", "ca")
        assert_one_line_error(code, out, err, fragment)

    def test_scale_past_the_level_bound(self, capsys, tmp_path):
        # A longer scale is refused before its L²-bit capacity weight table is built.
        scale = [f"l{i}" for i in range(LEVEL_BOUND + 1)]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_document(scale=scale, arguments=[_declaration(level=scale[-1])])))
        code, out, err = run(capsys, "audit", str(path), "--axiom", "ca", "--rule", "lexi")
        assert_one_line_error(code, out, err, f"scale has {LEVEL_BOUND + 1} levels")

    def test_rank_without_options(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_document(options={})))
        assert_one_line_error(
            *run(capsys, "rank", str(path), "--rule", "lexi"), "ranking needs at least one option"
        )

    def test_designated_rule_failure_exits_2(self, capsys, monkeypatch):
        def forced(ctx, rule):
            return Witness(args=("p1a",))

        check = CHECKS["ca"]
        monkeypatch.setitem(CHECKS, check.name, replace(check, sweep=forced))
        code, out, err = run(
            capsys, "audit", "--generate", "|X|=2,|L|=3", "--bundle", "theorem1", "--rule", "biposs"
        )
        assert (code, err) == (2, "")
        assert out.split() == ["theorem1", "biposs", "FAIL", "FAILS:", "ca", "biposs", "FAIL",
                               "witness:", "p1a"]

    def test_differential_failure_needs_a_witness_that_replays(self, capsys, monkeypatch):
        # lexi is reflexive, so a forced reflexive witness for it does not replay:
        # the library and the CLI both refuse it as the bundle's differential failure.
        check = CHECKS["reflexive"]

        def forced(ctx, rule):
            return Witness((frozenset(),)) if rule is Rule.LEXI else check.sweep(ctx, rule)

        monkeypatch.setitem(CHECKS, check.name, replace(check, sweep=forced))
        ok, finding = sweep_bundle(theorem1_bundle, Rule.LEXI, max_args=2, levels=3,
                                   expect_all_hold=False)
        assert not ok and finding.verdict.check == "reflexive"
        code, out, err = run(
            capsys, "audit", "--generate", "|X|=2,|L|=3", "--bundle", "theorem1", "--rule", "lexi"
        )
        assert (code, err) == (2, "")
        assert out == "theorem1   lexi     FAIL  fails as expected (reflexive; witness DOES NOT replay)\n"


class TestAuditGolden:
    """Exact text of the six audit modes: a problem file or ``--generate``,
    each with ``--axiom``, ``--bundle theorem1|theorem2`` and ``propositions``."""

    @staticmethod
    def case_id(case):
        argv = case["argv"]
        source = "generated" if "--generate" in argv else argv[1]
        mode = "axiom" if "--axiom" in argv else "bundle"
        return f"{source}-{argv[argv.index('--' + mode) + 1]}"

    @pytest.mark.parametrize("case", GOLDEN, ids=case_id.__func__)
    def test_text_output_is_pinned(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, err) == (case["exit"], "")
        assert out == "".join(line + "\n" for line in case["lines"])


class TestTtb:
    def test_rejects_tied_levels(self, capsys):
        code, _, err = run(capsys, "ttb", "luc", "a", "b")
        assert code == 1
        assert "distinct importance" in err

    @staticmethod
    def cue_doc(tmp_path):
        doc = {
            "scale": ["zero", "one", "two", "three"],
            "arguments": [
                {"name": "c1", "polarity": "pro", "level": "three"},
                {"name": "c2", "polarity": "pro", "level": "two"},
                {"name": "c3", "polarity": "pro", "level": "one"},
            ],
            "options": {"one": ["c1", "c3"], "two": ["c2"]},
        }
        path = tmp_path / "cues.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_injective_instance_coincides(self, capsys, tmp_path):
        code, payload, _ = run_json(capsys, "ttb", self.cue_doc(tmp_path), "one", "two")
        assert code == 0
        assert payload["outcome"] == "PreferFirst"
        assert payload["coincide"]
        assert set(payload["agreement"].values()) == {"PreferFirst"}

    def test_quiet_prints_only_the_outcome(self, capsys, tmp_path):
        assert run(capsys, "ttb", self.cue_doc(tmp_path), "one", "two", "--quiet") == (
            0, "PreferFirst\n", "")

    @pytest.mark.parametrize(
        "options, fragment",
        [
            ({"a": ["x0"], "b": ["x1"]}, "never appears as a pro"),
            ({"a": [], "b": []}, "at least one featured argument"),
        ],
    )
    def test_uncompletable_options_are_an_error(self, capsys, tmp_path, options, fragment):
        path = write_doc(tmp_path, 2, 3, options)
        code, out, err = run(capsys, "ttb", path, "a", "b")
        assert_one_line_error(code, out, err, fragment)


class TestCapacities:
    def test_luc_table(self, capsys):
        code, payload, _ = run_json(capsys, "capacities", "luc")
        assert code == 0
        assert payload["base"] == 15
        assert payload["options"]["a"] == {
            "sigma_pos": 225, "sigma_neg": 450, "np": -225
        }
        assert payload["options"]["b"]["np"] == -180

    def test_custom_base(self, capsys):
        code, payload, _ = run_json(capsys, "capacities", "luc", "--base", "3")
        assert code == 0
        assert payload["base"] == 3

    @pytest.mark.parametrize("base", ["1", "0", "-3"])
    def test_base_below_two_is_an_error(self, capsys, base):
        code, out, err = run(capsys, "capacities", "luc", "--base", base)
        assert_one_line_error(code, out, err, "capacity base must be at least 2")

    def test_wide_values_keep_their_columns_apart(self, capsys, tmp_path):
        # 6 arguments on level 18 of 19 get base 13 and 21-digit capacities.
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({
            "scale": [f"l{i}" for i in range(19)],
            "arguments": [{"name": f"x{i}", "polarity": "pro" if i % 2 else "con",
                           "level": "l18"} for i in range(6)],
            "options": {"a": ["x0", "x2", "x4"], "b": ["x1", "x3"], "c": []},
        }))
        for argv in ([str(deep)], ["luc", "--base", "99999999999999999999"]):
            code, out, _ = run(capsys, "capacities", *argv)
            _, payload, _ = run_json(capsys, "capacities", *argv)
            assert code == 0
            rows = out.splitlines()[2:]
            assert len(rows) == len(payload["options"])
            for name, *values in map(str.split, rows):
                entry = payload["options"][name]
                assert [int(v) for v in values] == [
                    entry["sigma_pos"], entry["sigma_neg"], entry["np"]
                ]

    def test_capacity_past_the_int_to_str_limit_is_refused(self, capsys, tmp_path):
        # One pro on the top of 10,000 levels: its sigma+ is 3**9999, 4,771 digits.
        scale = [f"l{i}" for i in range(10_000)]
        tall = tmp_path / "tall.json"
        tall.write_text(json.dumps({
            "scale": scale,
            "arguments": [{"name": "top", "polarity": "pro", "level": scale[-1]}],
            "options": {"a": ["top"], "b": []},
        }))
        limit = sys.get_int_max_str_digits()
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "capacities", str(tall), *flags)
            assert_one_line_error(code, out, err, f"option 'a': a capacity has more than {limit}")

    @staticmethod
    def one_pro(tmp_path, num_levels, level):
        scale = [f"l{i}" for i in range(num_levels)]
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "scale": scale,
            "arguments": [{"name": "x", "polarity": "pro", "level": scale[level]}],
            "options": {"a": ["x"], "b": []},
        }))
        return str(path)

    def test_a_low_argument_on_a_long_scale_prints_the_base(self, capsys, tmp_path):
        base = 10**1000
        code, payload, _ = run_json(capsys, "capacities", self.one_pro(tmp_path, 600, 1),
                                    "--base", str(base))
        assert code == 0
        assert payload["options"]["a"] == {"sigma_pos": base, "sigma_neg": 0, "np": base}

    def test_a_top_level_past_the_limit_is_refused_before_any_power(
        self, capsys, tmp_path, monkeypatch
    ):
        # One pro on level 2,999 with a 4,000-digit base: its capacity has
        # about 12 million digits, which the top level alone tells.
        path = self.one_pro(tmp_path, 3000, 2999)
        monkeypatch.setattr(BigSteppedCapacity, "of",
                            lambda cap, names: pytest.fail("a capacity was computed"))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "capacities", path, "--base", "9" * 4000)
        assert_one_line_error(code, out, err, f"option 'a': a capacity has more than {limit}")

    def test_problem_without_arguments_gets_base_three(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"scale": ["z", "a"], "arguments": [], "options": {"x": []}}))
        code, out, err = run(capsys, "capacities", str(path))
        assert code == 0 and "null importance" in err
        assert out.splitlines()[0] == "base: 3"
        assert out.splitlines()[2].split() == ["x", "0", "0", "0"]
        code, out, err = run(capsys, "capacities", str(path), "--base", "1", "--quiet")
        assert_one_line_error(code, out, err, "capacity base must be at least 2")


class TestRankReport:
    def test_matrix_mirror_consistent_and_maximal_nonempty(self):
        from proscons.cli import rank_options
        from proscons import Rule

        for name in ("luc", "lucy", "luka"):
            problem = load_fixture(name)
            for rule in Rule:
                report = rank_options(problem, rule)
                for x in report.options:
                    for y in report.options:
                        assert report.outcomes[x][y] is report.outcomes[y][x].mirror()
                assert report.maximal
                assert not report.strict_cycles

    def test_strict_cycles_walk_a_chain_past_the_recursion_limit(self):
        from proscons.cli import _strict_cycles

        names = tuple(f"o{i}" for i in range(sys.getrecursionlimit() + 100))
        # o0 > o1 > ... along the chain, nothing else compared; then the last closes it.
        outcomes = {x: dict.fromkeys(names, Outcome.INCOMPARABLE) for x in names}
        for x, y in zip(names, names[1:]):
            outcomes[x][y], outcomes[y][x] = Outcome.PREFER_FIRST, Outcome.PREFER_SECOND
        assert _strict_cycles(names, outcomes) == ()
        outcomes[names[-1]][names[0]] = Outcome.PREFER_FIRST
        assert _strict_cycles(names, outcomes) == ((*names, names[0]),)

    @pytest.mark.parametrize("spread", [1, 2_999])
    def test_a_long_scale_ranks_as_its_occupied_levels(self, spread):
        # Ten arguments on levels 1-10 and forty options, on 11 levels and
        # again on 30,000 with level l moved to spread * l: the rules read only
        # the order of the occupied levels.
        from proscons.cli import rank_options

        rng = random.Random(10)
        specs = [(rng.choice(("pro", "con")), rng.randint(1, 10)) for _ in range(10)]
        options = {f"o{k}": [f"x{i}" for i in range(10) if rng.random() < 0.5] for k in range(40)}

        def problem(num_levels, place):
            scale = [f"l{i}" for i in range(num_levels)]
            arguments = [{"name": f"x{i}", "polarity": polarity, "level": scale[place(level)]}
                         for i, (polarity, level) in enumerate(specs)]
            return parse_problem({"scale": scale, "arguments": arguments, "options": options})

        short, long = problem(11, lambda level: level), problem(30_000, lambda level: spread * level)
        for rule in (Rule.LEXI, Rule.BILEXI, Rule.DISCRI):
            expected, report = rank_options(short, rule), rank_options(long, rule)
            assert report.outcomes == expected.outcomes
            assert report.maximal == expected.maximal
            assert any(Outcome.PREFER_FIRST in row.values() for row in report.outcomes.values())

    def test_rank_of_a_strict_chain_past_the_recursion_limit(self, capsys, tmp_path):
        # Nine pros, one per level, and 300 options best first: a strict lexi chain.
        scale = [f"l{i}" for i in range(10)]
        arguments = [{"name": f"p{i}", "polarity": "pro", "level": scale[i]} for i in range(1, 10)]
        masks = range(511, 211, -1)
        options = {f"o{m}": [f"p{i}" for i in range(1, 10) if m >> (i - 1) & 1] for m in masks}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"scale": scale, "arguments": arguments, "options": options}))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            code, payload, err = run_json(capsys, "rank", str(path), "--rule", "lexi")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0 and err == ""
        assert payload["maximal"] == ["o511"] and payload["strict_cycles"] == []


class TestParser:
    @staticmethod
    def audit_choices(option):
        audit = build_parser()._subparsers._group_actions[0].choices["audit"]
        return next(a.choices for a in audit._actions if option in a.option_strings)

    def test_axiom_choices_are_the_axioms(self):
        assert Axiom is rules.Axiom  # the audit re-exports the class the CLI reads
        assert self.audit_choices("--axiom") == [a.value for a in Axiom]

    def test_bundle_choices_are_the_bundles(self):
        # The CLI lists the bundle names without loading the audit harness.
        assert self.audit_choices("--bundle") == [*BUNDLES, "propositions"]


class TestImportBoundary:
    """Only ``audit`` loads numpy: the scalar commands stay pure Python."""

    @staticmethod
    def after(*commands):
        """Exit codes of the commands run in one fresh interpreter, and whether numpy loaded."""
        code = (
            "import sys\n"
            "from proscons.cli import main\n"
            f"print(*[main(argv) for argv in {list(commands)!r}], 'numpy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        *codes, loaded = done.stdout.splitlines()[-1].split()
        return [int(c) for c in codes], loaded == "True"

    def test_scalar_commands_leave_numpy_unloaded(self, tmp_path):
        cues = tmp_path / "cues.json"
        cues.write_text(json.dumps({
            "scale": ["zero", "one", "two"],
            "arguments": [{"name": "c1", "polarity": "pro", "level": "two"},
                          {"name": "c2", "polarity": "pro", "level": "one"}],
            "options": {"one": ["c1"], "two": ["c2"]},
        }))
        codes, loaded = self.after(
            ["validate", "luc"],
            ["compare", "luc", "a", "b"],
            ["rank", "lucy", "--rule", "bilexi"],
            ["ttb", str(cues), "one", "two"],
            ["capacities", "luka"],
        )
        assert codes == [0] * 5
        assert not loaded

    def test_audit_loads_numpy(self):
        # The same probe sees numpy once the audit harness runs.
        codes, loaded = self.after(["audit", "luc", "--axiom", "ca", "--rule", "biposs"])
        assert codes == [0]
        assert loaded


class TestProcessBoundary:
    """Exit codes and streams as a shell sees them, from ``python -m proscons.cli``."""

    @staticmethod
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "proscons.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )

    def test_usage_error_exits_1_with_the_usage_and_one_error_line(self):
        done = self.cli("compare", "luc", "a")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("usage: proscons compare ")
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert errors == ["proscons compare: error: the following arguments are required: second"]
        assert done.stderr.endswith(errors[0] + "\n")

    def test_help_exits_0(self):
        done = self.cli("--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: proscons ")

    def test_data_error_exits_1_with_one_error_line(self):
        done = self.cli("compare", "luc", "a", "zz")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: unknown option 'zz'\n")


class TestRoundTrip:
    def test_serialized_fixture_compares_identically(self, capsys, tmp_path):
        problem = load_fixture("luc")
        path = tmp_path / "again.json"
        path.write_text(json.dumps(serialize_problem(problem)))
        code, payload, _ = run_json(capsys, "compare", str(path), "a", "b")
        assert code == 0
        assert payload["outcomes"]["lexi"] == "PreferSecond"

    def test_fixture_path_resolution_matches_direct_load(self):
        direct = load_fixture("lucy")
        via_path = parse_problem(
            json.loads(fixture_path("lucy").read_text(encoding="utf-8"))
        )
        assert direct.universe == via_path.universe


# ---------------------------------------------------------------------------
# Fuzzing: random documents and argument vectors
# ---------------------------------------------------------------------------

NAMES = st.sampled_from(["a", "b", "p", "q", "x0", "q\u207b", "", "both"])
SCALE = ["zero", "one", "two"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def problems(draw):
    """A well-formed document of up to four declarations on a three-level scale."""
    arguments, members = [], []
    for name in draw(st.lists(st.sampled_from("pqrs"), unique=True, max_size=4)):
        polarity = draw(st.sampled_from(["pro", "con", "both"]))
        level = draw(st.sampled_from(SCALE[::-1]))  # null level last: Hypothesis leans first
        arguments.append({"name": name, "polarity": polarity, "level": level})
        members += [name + "\u207a", name + "\u207b"] if polarity == "both" else [name]
    subset = st.lists(st.sampled_from(members), unique=True) if members else st.just([])
    options = {"a": draw(subset), "b": draw(subset)}
    return {"scale": SCALE, "arguments": arguments, "options": options}


MALFORMED = st.fixed_dictionaries({}, optional={
    "scale": st.lists(st.sampled_from([*SCALE, "ten", 1, None]), max_size=4) | JSON,
    "arguments": st.lists(JSON, max_size=3),
    "options": JSON,
})
JUNK = (MALFORMED | JSON).map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=12)
# Mostly well-formed documents, so that most runs get past parsing.
DOCUMENTS = st.integers(0, 3).flatmap(
    lambda k: JUNK if k == 3 else problems().map(lambda doc: json.dumps(doc).encode())
)

RULES = st.sampled_from(["pareto", "biposs", "impl", "discri", "bilexi", "lexi", "all", "x"])
GENERATE = st.builds("|X|={},|L|={}".format, st.integers(-1, 3), st.integers(0, 3))
FLAGS = {  # each subcommand's flags, with a strategy for the value each takes
    "validate": {},
    "compare": {"--rule": RULES, "--all": None},
    "rank": {"--rule": RULES},
    "audit": {
        "--rule": RULES,
        "--axiom": st.sampled_from([a.value for a in Axiom] + ["x"]),
        "--bundle": st.sampled_from(["theorem1", "theorem2", "propositions", "x"]),
        "--expect": st.sampled_from(["holds", "fails"]),
    },
    "ttb": {},
    "capacities": {"--base": st.integers(-3, 20).map(str)},
}
REQUIRED = {"rank": ["--rule"], "audit": ["--axiom", "--bundle"]}  # one of these, mostly


@st.composite
def argvs(draw, command, path):
    """An argument vector for one subcommand, mostly well formed."""
    argv = [command]
    if command == "audit" and draw(st.booleans()):
        argv += ["--generate", draw(GENERATE)]
    elif draw(st.integers(0, 9)) < 9:
        argv.append(draw(st.sampled_from([path, path, "luka", "missing.json"])))  # path 1 in 2
    if command in ("compare", "ttb"):
        argv += draw(st.lists(st.sampled_from(["a", "b", "z"]), min_size=2, max_size=2))
    options = FLAGS[command]
    flags = draw(st.lists(st.sampled_from([*options, "--json", "--quiet"]), unique=True))
    if command in REQUIRED and draw(st.integers(0, 9)) < 9:
        required = REQUIRED[command]
        flags = [draw(st.sampled_from(required))] + [f for f in flags if f not in required]
    for flag in flags:
        argv.append(flag)
        if options.get(flag) is not None:
            argv.append(draw(options[flag]))
    return argv


class TestFuzz:
    @pytest.mark.parametrize("command", list(FLAGS))
    @settings(
        derandomize=True, deadline=None, max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(document=DOCUMENTS, data=st.data())
    def test_every_input_exits_0_1_or_2(self, tmp_path, command, document, data):
        path = tmp_path / "doc.json"
        path.write_bytes(document)
        argv = data.draw(argvs(command, str(path)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
