"""Command-line behaviour: commands, exit codes, JSON mode."""

import json

import pytest

from proscons import fixture_path, load_fixture, parse_problem, serialize_problem
from proscons.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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
        ],
    )
    def test_sweep_refuses_empty_or_over_bound_range(self, capsys, argv):
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

    def test_audit_needs_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "audit", "luc")
        assert code == 1

    def test_bad_generate_spec(self, capsys):
        code, _, err = run(
            capsys, "audit", "--generate", "bогus", "--axiom", "ca"
        )
        assert code == 1


class TestTtb:
    def test_rejects_tied_levels(self, capsys):
        code, _, err = run(capsys, "ttb", "luc", "a", "b")
        assert code == 1
        assert "distinct importance" in err

    def test_injective_instance_coincides(self, capsys, tmp_path):
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
        code, payload, _ = run_json(capsys, "ttb", str(path), "one", "two")
        assert code == 0
        assert payload["outcome"] == "PreferFirst"
        assert payload["coincide"]
        assert set(payload["agreement"].values()) == {"PreferFirst"}


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
