"""Command-line behaviour: commands, exit codes, JSON mode."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proscons import fixture_path, load_fixture, parse_problem, serialize_problem
from proscons.audit import Axiom
from proscons.cli import main


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

    def test_capacity_overflow_refused(self, capsys, tmp_path):
        path = write_doc(tmp_path, 6, 19)
        code, out, err = run(capsys, "audit", path, "--bundle", "propositions")
        assert_one_line_error(code, out, err, "overflow the int64 matrix route")

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
