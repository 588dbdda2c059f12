"""Audit harness: enumeration, axiom checks, witnesses, bundles, searches."""

import ast
import itertools
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proscons.audit
from proscons import (
    DecisionUniverse,
    ImportanceScale,
    Outcome,
    Rule,
    TrivialUniverseError,
    UniverseMismatchError,
    compare,
)
from proscons.audit import (
    CHECKS,
    PROPOSITIONS,
    TUPLE_BOUND,
    Axiom,
    AuditContext,
    AuditVerdict,
    NoWitnessFoundError,
    ProfileSpace,
    UniverseTooLargeError,
    Witness,
    check_axiom,
    encoding_equivalence,
    enumerate_profiles,
    find_biposs_indifference_intransitivity,
    find_strictness_witness,
    independence_corollaries,
    iter_universes,
    proposition_checks,
    refinement_check,
    relation_properties,
    replay_witness,
    sweep,
    sweep_range,
    theorem1_bundle,
    theorem2_bundle,
    weak_matrix,
)
from proscons.audit.axioms import (
    _XMONOTONY_BREAKS,
    _combination_scan,
    _monotony_scan,
    _subset_matrices,
    _union_closed,
)
from proscons.audit.matrices import RelationSet, capacity_values
from proscons.audit.reports import THEOREM2_PREMISES
from proscons.audit.space import LEVEL_BOUND
from conftest import make_universe
from registry_golden import GOLDEN_PATH, registry_record, registry_universes

TUPLE_GOLDEN = json.loads(
    (Path(__file__).parent / "tuple_witness_golden.json").read_text(encoding="utf-8")
)
REGISTRY_GOLDEN = {
    record["universe"]: record for record in json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
}
TUPLE_CHECKS = (
    "gclo", "gneg", "posmonotony", "negmonotony",
    "sqc", "xmonotony", "prefindependence", "anonymity", "add_indifferent_set",
    "swap_indifferent_sets", "swap_indifferent_singletons", "simplegrounding",
    "unbiased_ground", "transitivity", "quasitransitivity", "sym_transitive",
    "ca", "weakunanimity", "neg", "clo", "posefficiency", "negefficiency",
)


class TestEnumeration:
    def test_powerset_count(self):
        u = make_universe(2, [("a", "pro", 1), ("b", "con", 1), ("c", "pro", 0)])
        profiles = enumerate_profiles(u)
        assert len(profiles) == 8
        assert len({p.members for p in profiles}) == 8
        assert profiles[0].members == frozenset()

    def test_empty_universe_has_only_the_empty_profile(self):
        u = make_universe(2, [])
        profiles = enumerate_profiles(u)
        assert len(profiles) == 1 and profiles[0].members == frozenset()

    def test_bound_enforced(self):
        u = make_universe(2, [(f"x{i}", "pro", 1) for i in range(13)])
        with pytest.raises(UniverseTooLargeError):
            enumerate_profiles(u)

    def test_sweep_needs_a_level_past_the_null_one(self):
        with pytest.raises(ValueError, match=r"^need at least two levels \(null plus one\)$"):
            next(iter_universes(3, 1))

    def test_sweep_is_canonical_and_valid(self):
        seen = set()
        for u in iter_universes(3, 3):
            key = tuple(sorted((a.polarity.value, a.level) for a in u.arguments))
            assert key not in seen
            seen.add(key)
            assert not u.is_trivial
        assert len(seen) == 52

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_matrices_agree_with_scalar_rules(self, levels):
        # Both builders: weak_matrix, and the pair code the audits read.
        for u in iter_universes(3, levels):
            space, ctx = ProfileSpace(u), AuditContext(u)
            profiles = enumerate_profiles(u)
            for rule in Rule:
                weak, code = weak_matrix(space, rule), ctx.rel(rule).code
                for i, a in enumerate(profiles):
                    for j, b in enumerate(profiles):
                        outcome = compare(rule, a, b)
                        assert bool(weak[i, j]) == outcome.first_weak
                        assert code[i, j] & 1 == outcome.first_weak, (rule, u, i, j)
                        assert code[i, j] >> 1 == outcome.mirror().first_weak, (rule, u, i, j)

    def test_twelve_argument_codes_agree_with_scalar_rules(self):
        # At 12 arguments a 256-row block spans four high-half values of the
        # discri half tables, and each of the 16 blocks is built on its own.
        u = make_universe(5, [
            ("p0", "pro", 4), ("n1", "con", 3), ("p2", "pro", 1), ("z3", "pro", 0),
            ("n4", "con", 4), ("p5", "pro", 2), ("n6", "con", 1), ("p7", "pro", 3),
            ("n8", "con", 2), ("p9", "pro", 4), ("n10", "con", 4), ("p11", "pro", 1),
        ])
        ctx = AuditContext(u)
        rng = np.random.default_rng(12)
        for rule in Rule:
            code = ctx.rel(rule).code
            for i, j in rng.integers(ctx.space.size, size=(2000, 2)).tolist():
                a, b = ctx.space.profile(i), ctx.space.profile(j)
                assert code[i, j] & 1 == compare(rule, a, b).first_weak, (rule, i, j)
                assert code[i, j] >> 1 == compare(rule, b, a).first_weak, (rule, i, j)


class TestRelationSet:
    @pytest.mark.parametrize("n", range(13))
    def test_code_and_parts_match_the_transpose(self, n):
        # Sides 1 to 4096: one partial 256-square tile up to 16 × 16 full ones.
        w = np.random.default_rng(n).integers(2, size=(1 << n, 1 << n), dtype=bool)
        t = np.ascontiguousarray(w.T)
        rel = RelationSet(w)
        assert rel.code.dtype == np.uint8 and rel.code.flags.c_contiguous
        assert np.array_equal(rel.code, w | t.astype(np.uint8) << 1)
        assert np.array_equal(rel.weak, w)
        assert np.array_equal(rel.strict, w & ~t)
        assert np.array_equal(rel.sym, w & t)
        assert np.array_equal(rel.incomp, ~(w | t))

    def test_keeps_one_byte_per_pair(self):
        side = 4096
        w = np.random.default_rng(0).integers(2, size=(side, side), dtype=bool)
        kept = vars(RelationSet(w)).values()
        assert sum(v.nbytes for v in kept if isinstance(v, np.ndarray)) <= side * side

    def test_pair_codes_are_built_in_row_blocks(self):
        # A code is N² bytes; its build may hold at most half that again.
        u = make_universe(5, [(f"x{i}", "pro" if i % 3 else "con", 1 + i % 4)
                              for i in range(12)])
        limit = 1.5 * (1 << 12) ** 2
        for rule in Rule:
            tracemalloc.start()
            try:
                AuditContext(u).rel(rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, (rule, peak / limit)


SPREAD_LEVELS = (0, 1500, 4095)  # where the levels of a 3-level universe move on 4,096


def spread_out(u: DecisionUniverse) -> DecisionUniverse:
    """``u`` with its levels moved apart, in the same order, on a 4,096-level scale."""
    scale = ImportanceScale(tuple(f"l{i}" for i in range(4096)))
    return DecisionUniverse(
        scale, tuple(replace(a, level=SPREAD_LEVELS[a.level]) for a in u.arguments)
    )


def gap_free(u: DecisionUniverse) -> bool:
    """Are the occupied levels 0..k, with none skipped?"""
    return u.occupied[-1] == len(u.occupied) - 1


def closed_gaps(u: DecisionUniverse) -> DecisionUniverse:
    """``u`` with each argument moved to its rank, names kept: the gap-free one of its class."""
    return DecisionUniverse(
        u.scale, tuple(replace(a, level=u.ranks[a.name]) for a in u.arguments)
    )


class TestScaleLength:
    """Only the order of the occupied levels reaches the profile space and its matrices."""

    @pytest.mark.parametrize("u", [
        pytest.param(u, id=" ".join(a.name for a in u.arguments)) for u in iter_universes(3, 3)
    ])
    def test_every_verdict_is_the_same_on_a_spread_scale(self, u):
        label = " ".join(a.name for a in u.arguments)
        assert registry_record(label, spread_out(u)) == REGISTRY_GOLDEN[label]

    @pytest.mark.parametrize("u", [
        pytest.param(u, id=f"L{levels} " + " ".join(a.name for a in u.arguments))
        for levels in (3, 4) for u in iter_universes(3, levels) if not gap_free(u)
    ])
    def test_every_verdict_is_the_same_with_the_gaps_closed(self, u):
        # What lets a sweep check only the gap-free universe of each class.
        label = " ".join(a.name for a in u.arguments)
        assert registry_record(label, closed_gaps(u)) == registry_record(label, u)

    def test_relation_build_memory_does_not_follow_the_scale(self):
        # Ten arguments on the longest admitted scale: the bound admits the
        # N²-byte code (N = 1,024) and a few row blocks, but no array with a
        # column per scale level (2^15 × N int16 counts are 64 MiB).
        u = make_universe(LEVEL_BOUND, [(f"x{i}", "pro" if i % 3 else "con", 1 + i * 3271)
                                        for i in range(10)])
        tracemalloc.start()
        try:
            AuditContext(u).rel(Rule.BILEXI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (1 << 10) ** 2


class TestCheckAxiom:
    def test_gneg_holds_for_biposs_at_four_arguments(self):
        for u in iter_universes(4, 3):
            assert check_axiom(Axiom.GNEG, Rule.BIPOSS, u).holds

    def test_pareto_incomplete_on_lucy(self, lucy):
        verdict = check_axiom(Axiom.COMPLETENESS, Rule.PARETO, lucy.universe)
        assert not verdict.holds
        pair = set(verdict.witness.profiles)
        assert pair == {frozenset(), frozenset(lucy.options["a"].members)}
        assert replay_witness(verdict, lucy.universe)

    def test_drowning_breaks_positive_efficiency_for_biposs(self):
        u = make_universe(3, [("x", "pro", 2), ("y", "pro", 1)])
        verdict = check_axiom(Axiom.POS_EFFICIENCY, Rule.BIPOSS, u)
        assert not verdict.holds
        assert verdict.witness.profiles == (frozenset({"x", "y"}), frozenset({"x"}))
        assert replay_witness(verdict, u)

    def test_prefindependence_selects_one_free_set_per_argument(self, monkeypatch):
        # Where the axiom holds, the scan visits every shift it makes: a shift per
        # nonempty C selects 2^6 - 1 = 63 free sets, a shift per argument 6.
        u = make_universe(4, [("p1", "pro", 1), ("p2", "pro", 2), ("p3", "pro", 3),
                              ("n1", "con", 1), ("n2", "con", 2), ("z", "pro", 0)])
        ctx = AuditContext(u)
        selected = []
        submasks = ctx.space.submasks
        monkeypatch.setattr(ctx.space, "submasks",
                            lambda mask: selected.append(mask) or submasks(mask))
        assert check_axiom(Axiom.PREF_INDEPENDENCE, Rule.LEXI, u, context=ctx).holds
        assert 0 < len(selected) <= len(u.arguments)

    def test_six_core_axioms_hold_for_every_rule(self):
        core = (
            Axiom.CA,
            Axiom.SQC,
            Axiom.POS_MONOTONY,
            Axiom.NEG_MONOTONY,
            Axiom.WEAK_UNANIMITY,
            Axiom.NON_TRIVIALITY,
        )
        for u in iter_universes(4, 3):
            ctx = AuditContext(u)
            for rule in Rule:
                for axiom in core:
                    verdict = check_axiom(axiom, rule, u, context=ctx)
                    assert verdict.holds, (rule, axiom, u)

    def test_trivial_universe_refused(self):
        u = make_universe(2, [("z", "pro", 0)])
        with pytest.raises(TrivialUniverseError):
            check_axiom(Axiom.CA, Rule.BIPOSS, u)

    @pytest.mark.parametrize(
        "specs, error",
        [
            ([("z", "pro", 0)], TrivialUniverseError),
            ([(f"x{i}", "pro", 1) for i in range(13)], UniverseTooLargeError),
        ],
    )
    def test_context_refuses_before_enumeration(self, monkeypatch, specs, error):
        def no_enumeration(universe):
            raise AssertionError("a profile space was built")

        monkeypatch.setattr("proscons.audit.matrices.ProfileSpace", no_enumeration)
        with pytest.raises(error):
            AuditContext(make_universe(2, specs))

    def test_tuple_axioms_have_tighter_bound(self):
        u = make_universe(2, [(f"x{i}", "pro", 1) for i in range(7)])
        with pytest.raises(UniverseTooLargeError):
            check_axiom(Axiom.GNEG, Rule.BIPOSS, u)
        assert check_axiom(Axiom.COMPLETENESS, Rule.BIPOSS, u).holds

    def test_context_for_another_universe_refused(self, luc, lucy, luka):
        # A verdict on luc with a luka witness would not replay on luc.
        ctx = AuditContext(luka.universe)
        with pytest.raises(UniverseMismatchError):
            check_axiom(Axiom.POS_EFFICIENCY, Rule.BIPOSS, luc.universe, context=ctx)
        with pytest.raises(UniverseMismatchError):
            find_strictness_witness(Rule.BIPOSS, Rule.LEXI, luc.universe, context=ctx)
        with pytest.raises(UniverseMismatchError):
            theorem2_bundle(Rule.LEXI, lucy.universe, context=ctx)
        twin = DecisionUniverse(luka.universe.scale, luka.universe.arguments)
        assert check_axiom(Axiom.POS_EFFICIENCY, Rule.BIPOSS, twin, context=ctx) == (
            check_axiom(Axiom.POS_EFFICIENCY, Rule.BIPOSS, luka.universe)
        )

    @pytest.mark.parametrize("holds, witness", [(True, Witness()), (False, None)])
    def test_verdict_fails_exactly_with_a_witness(self, holds, witness):
        with pytest.raises(ValueError, match="^a verdict fails exactly when it carries a witness$"):
            AuditVerdict("ca", Rule.LEXI, holds, witness)

    def test_a_verdict_that_holds_has_nothing_to_replay(self, luc):
        verdict = check_axiom(Axiom.CA, Rule.BIPOSS, luc.universe)
        assert verdict.holds
        with pytest.raises(ValueError, match="^only failed verdicts carry a witness to replay$"):
            replay_witness(verdict, luc.universe)

    def test_deterministic_witness(self, lucy):
        first = check_axiom(Axiom.COMPLETENESS, Rule.PARETO, lucy.universe)
        second = check_axiom(Axiom.COMPLETENESS, Rule.PARETO, lucy.universe)
        assert first == second


class TestRelationProperties:
    def test_biposs_complete_quasitransitive(self):
        for u in iter_universes(4, 3):
            props = relation_properties(Rule.BIPOSS, u)
            assert props["complete"].holds
            assert props["quasitransitive"].holds
            assert props["reflexive"].holds

    def test_impl_transitive(self):
        for u in iter_universes(4, 3):
            assert relation_properties(Rule.IMPL, u)["transitive"].holds

    def test_lexi_complete_and_transitive(self):
        for u in iter_universes(4, 3):
            props = relation_properties(Rule.LEXI, u)
            assert props["complete"].holds
            assert props["transitive"].holds

    def test_biposs_indifference_not_transitive_somewhere(self):
        u = make_universe(3, [("x", "pro", 2), ("y", "con", 2), ("u", "pro", 1)])
        props = relation_properties(Rule.BIPOSS, u)
        assert not props["sym_transitive"].holds
        assert replay_witness(props["sym_transitive"], u)


class TestIntransitivitySearch:
    def test_finds_the_conflicted_middle(self):
        u = make_universe(3, [("x", "pro", 2), ("y", "con", 2), ("u", "pro", 1)])
        witness = find_biposs_indifference_intransitivity(u)
        a, b, c = (u.option(p) for p in witness.profiles)
        assert b.members == {"x", "y"}
        assert compare(Rule.BIPOSS, a, b) is Outcome.INDIFFERENT
        assert compare(Rule.BIPOSS, b, c) is Outcome.INDIFFERENT
        assert compare(Rule.BIPOSS, a, c) is not Outcome.INDIFFERENT

    def test_degenerate_universe_has_no_witness(self):
        u = make_universe(2, [("x", "pro", 1), ("y", "pro", 1)])
        with pytest.raises(NoWitnessFoundError):
            find_biposs_indifference_intransitivity(u)


class TestRefinement:
    @pytest.mark.parametrize(
        "coarse,fine",
        [
            (Rule.BIPOSS, Rule.IMPL),
            (Rule.BIPOSS, Rule.DISCRI),
            (Rule.DISCRI, Rule.BILEXI),
            (Rule.BILEXI, Rule.LEXI),
        ],
    )
    def test_chain_holds(self, coarse, fine):
        for u in iter_universes(4, 3):
            assert refinement_check(coarse, fine, u).holds

    def test_reverse_direction_fails(self, luc):
        verdict = refinement_check(Rule.LEXI, Rule.BIPOSS, luc.universe)
        assert not verdict.holds
        assert replay_witness(verdict, luc.universe)

    def test_reversed_refinement_witness_replays_only_in_order(self):
        u = make_universe(3, [("x", "pro", 2), ("y", "pro", 1)])
        verdict = refinement_check(Rule.LEXI, Rule.BIPOSS, u)
        assert not verdict.holds
        assert verdict.witness.profiles == (frozenset({"x", "y"}), frozenset({"x"}))
        assert verdict.witness.note == "refines:lexi->biposs"
        assert replay_witness(verdict, u)
        swapped = Witness(profiles=verdict.witness.profiles[::-1])
        reversed_verdict = AuditVerdict(verdict.check, Rule.BIPOSS, False, swapped)
        assert not replay_witness(reversed_verdict, u)

    def test_strictness_witness_found(self, luka):
        # the coarse rule ties the Luka options, the fine one decides
        witness = find_strictness_witness(Rule.BIPOSS, Rule.DISCRI, luka.universe)
        assert witness is not None
        a, b = (luka.universe.option(p) for p in witness.profiles)
        assert compare(Rule.BIPOSS, a, b) is not Outcome.PREFER_FIRST
        assert compare(Rule.DISCRI, a, b) is Outcome.PREFER_FIRST


class TestBundles:
    def test_biposs_passes_theorem1_small(self):
        for u in iter_universes(4, 3):
            report = theorem1_bundle(Rule.BIPOSS, u)
            assert report.all_hold, (u, report.failures)

    def test_lexi_passes_theorem2_small(self):
        for u in iter_universes(4, 3):
            report = theorem2_bundle(Rule.LEXI, u)
            assert report.all_hold, (u, report.failures)

    @pytest.mark.parametrize("rule", [r for r in Rule if r is not Rule.BIPOSS])
    def test_other_rules_fail_theorem1_with_replayable_witness(self, rule):
        for u in iter_universes(4, 3):
            report = theorem1_bundle(rule, u)
            if not report.all_hold:
                verdict = report.failures[0]
                assert verdict.witness is not None
                assert replay_witness(verdict, u)
                return
        pytest.fail(f"{rule} unexpectedly satisfies the whole bundle")

    def test_theorem2_premises_admit_an_additive_relation_that_is_no_lexi(self):
        # The premises do not single out lexi: on {p1a, p1b, n1a}, all at
        # level 1, ranking profiles by the additive weights (1, 1, -1.5)
        # passes every premise, yet a pro and a con of equal importance do
        # not cancel, and no level assignment makes lexi rank so.
        u = next(u for u in iter_universes(3, 3)
                 if [a.name for a in u.arguments] == ["p1a", "p1b", "n1a"])
        assert {a.level for a in u.arguments} == {1}
        ctx = AuditContext(u)
        score = (ctx.space.masks[:, None] >> np.arange(3) & 1) @ np.array([1, 1, -1.5])
        weak = score[:, None] >= score[None, :]
        ctx._relations[Rule.LEXI] = RelationSet(weak)
        for name in THEOREM2_PREMISES:
            assert CHECKS[name].verdict(Rule.LEXI, u, context=ctx).holds, name
        scale = ImportanceScale(("l0", "l1", "l2", "l3"))
        for levels in itertools.product(range(4), repeat=3):
            if any(levels):
                args = tuple(replace(a, level=k) for a, k in zip(u.arguments, levels))
                assert not np.array_equal(
                    weak, weak_matrix(ProfileSpace(DecisionUniverse(scale, args)), Rule.LEXI)
                ), levels
        strict = weak & ~weak.T
        empty, p1a_n1a, everything = 0, 0b101, 0b111
        assert strict[empty, p1a_n1a] and strict[everything, empty]

    @pytest.mark.parametrize("rule", [r for r in Rule if r is not Rule.LEXI])
    def test_other_rules_fail_theorem2_with_replayable_witness(self, rule):
        for u in iter_universes(4, 3):
            report = theorem2_bundle(rule, u)
            if not report.all_hold:
                verdict = report.failures[0]
                if verdict.witness is not None:
                    assert replay_witness(verdict, u)
                return
        pytest.fail(f"{rule} unexpectedly satisfies the whole bundle")


class TestEncodingEquivalence:
    def test_holds_on_small_sweep(self):
        for u in iter_universes(4, 3):
            assert all(v.holds for v in encoding_equivalence(u).values())

    def test_weights_past_int64_hold(self):
        # Base 13 weights reach 13**18, far past int64, on 6 arguments and 19 levels;
        # the matrix route sums them exactly.
        u = make_universe(19, [(f"x{i}", "pro", 18) for i in range(6)])
        assert capacity_values(ProfileSpace(u))[0][-1] == 6 * 13**18
        assert all(v.holds for v in encoding_equivalence(u).values())

    @pytest.mark.parametrize("fixture", ["lucy", "luka"])
    def test_witness_on_another_rule_replays_against_that_rule(self, fixture, request):
        # The net-predisposition route differs from the Pareto rule somewhere;
        # the replay compares it with the verdict's rule, as the sweep does.
        u = request.getfixturevalue(fixture).universe
        verdict = CHECKS["np_equals_lexi"].verdict(Rule.PARETO, u)
        assert not verdict.holds
        assert replay_witness(verdict, u)


class TestCorollaries:
    def test_lexi_exchange_principles_small(self):
        for u in iter_universes(4, 3):
            for name, verdict in independence_corollaries(Rule.LEXI, u).items():
                assert verdict.holds, (u, name, verdict.witness)

    def test_biposs_breaks_them_and_witness_replays(self):
        found = False
        for u in iter_universes(3, 3):
            for verdict in independence_corollaries(Rule.BIPOSS, u).values():
                if not verdict.holds:
                    assert replay_witness(verdict, u)
                    found = True
        assert found


class TestWitnessReplayGallery:
    # Every failing verdict produced across a small sweep re-checks through
    # the scalar comparison functions.
    def test_all_failures_replay(self):
        axioms = list(Axiom)
        count = 0
        for u in iter_universes(3, 3):
            ctx = AuditContext(u)
            for rule in Rule:
                for axiom in axioms:
                    verdict = check_axiom(axiom, rule, u, context=ctx)
                    if not verdict.holds and verdict.witness is not None:
                        assert replay_witness(verdict, u), (rule, axiom, u)
                        count += 1
        assert count > 50  # the sweep genuinely exercises failures


P1A_P1B = [("p1a", "pro", 1), ("p1b", "pro", 1)]
P1A_N1A = [("p1a", "pro", 1), ("n1a", "con", 1)]


class TestReplayGuards:
    # A replay refuses a witness with one precondition broken, though the rest
    # of it still shows the violation: each case edits one slot of the sweep's
    # first witness (a profile by index, or "args") and the replay must say no.
    @pytest.mark.parametrize(
        "check, rule, specs, slot, value",
        [
            ("xmonotony", "discri", [("p1a", "pro", 1), ("n1a", "con", 1), ("n1b", "con", 1)],
             0, {"n1a"}),  # x in A
            ("xmonotony", "discri", [*P1A_P1B, ("p1c", "pro", 1)], 0, {"p1b"}),  # x′ in A
            ("xmonotony", "discri", [*P1A_P1B, ("n1a", "con", 1)], "args", ("p1a", "n1a")),
            ("prefindependence", "pareto", P1A_P1B, 2, {"p1a", "p1b"}),  # C meets B
            ("anonymity", "discri", [*P1A_P1B, ("p1c", "pro", 1)], 0, {"p1a"}),  # A meets C
            ("anonymity", "biposs", P1A_N1A, 0, {"n1a"}),  # A meets D
            ("anonymity", "biposs", P1A_N1A, 3, {"p1a"}),  # C ≁ D
            ("add_indifferent_set", "biposs", P1A_N1A, 0, {"n1a"}),  # A meets C
            ("add_indifferent_set", "biposs", P1A_N1A, 2, {"p1a"}),  # C ≁ ∅
            ("swap_indifferent_sets", "pareto", [("z0a", "pro", 0), *P1A_P1B], 0, {"z0a"}),
            ("swap_indifferent_sets", "pareto", [("z0a", "pro", 0), *P1A_P1B], 1,
             {"p1a", "p1b"}),  # B meets C
            ("swap_indifferent_sets", "pareto", [("z0a", "pro", 0), *P1A_P1B], 3, set()),
            ("swap_indifferent_singletons", "biposs", [("p1a", "pro", 1), ("n2a", "con", 2)],
             0, {"n2a"}),  # x in A
            ("swap_indifferent_singletons", "pareto", P1A_P1B, 1, {"p1a", "p1b"}),  # y in B
            ("swap_indifferent_singletons", "biposs", P1A_N1A, "args", ("p1a", "n1a")),
        ],
    )
    def test_sweep_witness_with_one_precondition_broken_is_refused(
        self, check, rule, specs, slot, value
    ):
        u, rule = make_universe(3, specs), Rule(rule)
        witness = CHECKS[check].verdict(rule, u).witness
        assert CHECKS[check].replay(rule, u, witness)
        if slot == "args":
            broken = Witness(witness.profiles, value, witness.note)
        else:
            profiles = list(witness.profiles)
            assert profiles[slot] != value
            profiles[slot] = frozenset(value)
            broken = Witness(tuple(profiles), witness.args, witness.note)
        assert not CHECKS[check].replay(rule, u, broken)

    # No rule fails sqc or monotony in range, so these witnesses are built by hand:
    # each would show a violation but for the one precondition it breaks.
    @pytest.mark.parametrize(
        "check, specs, witness",
        [
            ("sqc", P1A_P1B, Witness((frozenset(), frozenset({"p1b"})), ("p1a",))),  # x ≁ ∅
            ("posmonotony", P1A_N1A, Witness((frozenset(),) * 2 + (frozenset({"n1a"}),
                                                                   frozenset()))),
            ("negmonotony", P1A_N1A, Witness((frozenset(),) * 3 + (frozenset({"p1a"}),))),
        ],
    )
    def test_hand_built_witness_with_one_precondition_broken_is_refused(
        self, check, specs, witness
    ):
        u = make_universe(3, specs)
        for rule in Rule:
            assert CHECKS[check].verdict(rule, u).holds
            assert not CHECKS[check].replay(rule, u, witness)


# The checks whose sweeps run float64 products (``_union_closed``, the monotony
# spread, ``_reach``), exact only within TUPLE_BOUND, and ``xmonotony``, which
# ``simplegrounding`` runs beside ``_reach``.
FLOAT_KERNEL_CHECKS = (
    "gclo", "gneg", "posmonotony", "negmonotony", "xmonotony", "simplegrounding",
    "quasitransitivity", "transitivity", "sym_transitive",
)


def _subset_transform(values, op, bits):
    """Zeta (``np.add``) or Möbius (``np.subtract``) transform, in place, over
    ``bits`` of the index of a C-contiguous vector: one pass per bit."""
    for bit in bits:
        view = values.reshape(-1, 2, 1 << bit)
        op(view[:, 1], view[:, 0], out=view[:, 1])


def _self_convolution(base):
    """The OR-convolution of ``base`` with itself, over pairs read as ``a << n | b``, in int64."""
    counts = base.astype(np.int64).reshape(-1)
    bits = range(counts.size.bit_length() - 1)
    _subset_transform(counts, np.add, bits)
    counts *= counts
    _subset_transform(counts, np.subtract, bits)
    return counts.reshape(base.shape)


def _near_closed(rng, size, count=8):
    """Union-closed bases over ``size`` profiles, each also with one cell flipped:
    the union of all its generators dropped, or one random cell toggled."""
    for _ in range(count):
        flat = np.zeros(size * size, bool)
        for g in rng.integers(0, size * size, 6) & rng.integers(0, size * size, 6):
            flat[np.flatnonzero(flat) | g] = True
            flat[g] = True
        yield flat.reshape(size, size)
        for cell in (np.flatnonzero(flat)[-1], rng.integers(size * size)):
            near = flat.copy()
            near[cell] = not near[cell]
            yield near.reshape(size, size)


def _xmonotony_by_shift(ctx, rule):
    # The per-shift scan the stacked grid replaced: (x, x') by argument index,
    # x ≠ x' and x' ≽ x; then A ascending over the profiles without x or x';
    # then the first B that breaks, over every profile.
    code, space = ctx.rel(rule).code, ctx.space
    for i, x in enumerate(space.names):
        for j, xp in enumerate(space.names):
            if i == j or not code[1 << j, 1 << i] & 1:
                continue
            for a in range(space.size):
                if a & (1 << i | 1 << j):
                    continue
                breaks = _XMONOTONY_BREAKS[code[a | 1 << i], code[a | 1 << j]]
                if breaks.any():
                    b = int(np.argmax(breaks))
                    return Witness((space.members(a), space.members(b)), (x, xp))
    return None


class TestClosureKernels:
    # The union kernel decides gclo and gneg, and its scanner names the
    # witness; the monotony scan decides and names in one pass.  Each must
    # agree with its definition on every universe of the range.
    def test_kernels_agree_with_scanners(self):
        failures = 0
        for u in iter_universes(4, 3):
            ctx = AuditContext(u)
            space = ctx.space
            for rule in Rule:
                rel = ctx.rel(rule)
                for axiom, base in ((Axiom.GCLO, rel.weak), (Axiom.GNEG, rel.strict)):
                    found = _combination_scan(ctx, base)
                    assert _union_closed(base) == (found is None), (axiom, rule, u)
                    assert check_axiom(axiom, rule, u, context=ctx).witness == found
                    failures += found is not None
                for axiom, side, positive in (
                    (Axiom.POS_MONOTONY, space.pos_mask, True),
                    (Axiom.NEG_MONOTONY, space.neg_mask, False),
                ):
                    found = _monotony_scan(ctx, rel.weak, side, positive=positive)
                    m = np.arange(space.size)
                    subs = m[(m & ~side) == 0]
                    a, b, c, cp = np.ix_(m, m, subs, subs)
                    rows, cols = (a | c, b & ~cp) if positive else (a & ~c, b | cp)
                    broken = rel.weak[a, b] & ~rel.weak[rows, cols]
                    assert (found is None) == (not broken.any())
                    assert check_axiom(axiom, rule, u, context=ctx).witness == found
                    failures += found is not None
        assert failures == 726

    @pytest.mark.parametrize("drop", [(32, 48), (48, 1)])
    def test_combination_scan_names_the_first_violation_past_pair_512(self, drop):
        # Every pair of nonempty profiles is a union-closed base; without the
        # cell ``drop`` its first violating row lies past pair 512, several
        # row blocks in, and that row's first partner lies after it.
        u = make_universe(2, [(f"x{i}", "pro", 1) for i in range(6)])
        ctx = AuditContext(u)
        base = np.ones((64, 64), bool)
        base[0] = base[:, 0] = False
        base[drop] = False
        pairs = np.argwhere(base)
        for row, (a, b) in enumerate(pairs):  # the definition: rows, then partners, in order
            bad = ~base[a | pairs[:, 0], b | pairs[:, 1]]
            if bad.any():
                break
        c, d = pairs[bad.argmax()]
        assert row > 512 and bad.argmax() > row
        assert _combination_scan(ctx, base) == Witness(
            tuple(ctx.space.members(int(m)) for m in (a, b, c, d))
        )

    @staticmethod
    def _assert_union_kernel_exact(size):
        # The float64 subset-matrix products equal the int64 per-bit transforms
        # on all-ones, all-zeros and near-closed bases, closed and not.
        zeta, mobius = _subset_matrices(size)
        closed_seen = set()
        bases = (np.ones((size, size), bool), np.zeros((size, size), bool),
                 *_near_closed(np.random.default_rng(6), size))
        for base in bases:
            exact = _self_convolution(base)
            counts = zeta @ base @ zeta.T
            counts *= counts
            assert np.array_equal(mobius @ counts @ mobius.T, exact)
            closed = not (exact.astype(bool) & ~base).any()
            assert _union_closed(base) == closed
            closed_seen.add(closed)
        assert closed_seen == {True, False}

    def test_union_kernel_is_exact_at_the_tuple_bound(self):
        # 64-square bases, the largest any float-kernel check may see.
        self._assert_union_kernel_exact(1 << TUPLE_BOUND)

    def test_union_kernel_is_exact_on_256_square_bases(self):
        # 8 arguments: the all-ones count peaks at 3^16, and every partial sum
        # stays below 2^48 < 2^53, so a bound of 8 would keep the kernel exact.
        self._assert_union_kernel_exact(1 << 8)

    def test_float_kernel_checks_stay_within_the_exact_bound(self):
        # Raising a bound past TUPLE_BOUND would take the float products past
        # the size the exactness test above covers.
        assert [name for name in FLOAT_KERNEL_CHECKS if CHECKS[name].bound > TUPLE_BOUND] == []

    def test_xmonotony_grid_names_the_per_shift_witness(self):
        failures = 0
        for u in (*iter_universes(4, 3), *iter_universes(3, 4)):
            ctx = AuditContext(u)
            for rule in Rule:
                found = _xmonotony_by_shift(ctx, rule)
                assert CHECKS["xmonotony"].sweep(ctx, rule) == found, (rule, u)
                failures += found is not None
        assert failures == 80

    @pytest.mark.parametrize("case", TUPLE_GOLDEN, ids=lambda case: case["universe"])
    def test_witnesses_are_pinned(self, case):
        # Recorded by independent code: the closure checks by their scanners
        # alone, with no kernel deciding; the exchange-type and ground checks
        # by one loop per check and the scalar ground relation; the six checks
        # listed last by row-by-row sweeps over the walked submasks.
        u = next(u for u in iter_universes(3, 3)
                 if " ".join(a.name for a in u.arguments) == case["universe"])
        ctx = AuditContext(u)
        lines = [CHECKS[check].verdict(rule, u, context=ctx).describe()
                 for check in TUPLE_CHECKS for rule in Rule]
        assert lines == case["lines"]


class TestCheckRegistry:
    @pytest.mark.parametrize(
        "label, u", [pytest.param(label, u, id=label) for label, u in registry_universes()]
    )
    def test_every_verdict_matches_the_registry_golden(self, label, u):
        # Every entry × six rules within its bound, failures replayed: see registry_golden.py.
        assert registry_record(label, u) == REGISTRY_GOLDEN[label]

    def test_every_emitted_check_has_one_entry_and_replays(self):
        u = make_universe(3, [("x", "pro", 2), ("y", "con", 2), ("u", "pro", 1)])
        ctx = AuditContext(u)
        verdicts = list(proposition_checks(u, context=ctx).values())
        verdicts += encoding_equivalence(u, context=ctx).values()
        for rule in Rule:
            verdicts += theorem1_bundle(rule, u, context=ctx).checks
            verdicts += theorem2_bundle(rule, u, context=ctx).checks
            verdicts += relation_properties(rule, u, context=ctx).values()
            verdicts += independence_corollaries(rule, u, context=ctx).values()
        registered = [check.name for check in CHECKS.values()]
        failures = 0
        for verdict in verdicts:
            assert registered.count(verdict.check) == 1, verdict.check
            if not verdict.holds:
                assert replay_witness(verdict, u), verdict
                failures += 1
        assert failures > 10
        assert {v.check for v in verdicts} >= {"reflexive", "sym_transitive",
                                               "refines_biposs", "unbiased_ground"}

    def test_no_audit_module_imports_a_private_name_from_a_sibling(self):
        # Every check lives beside the one registry, so no module needs another's helpers.
        package = Path(proscons.audit.__file__).parent
        siblings = {path.stem for path in package.glob("*.py")}
        private = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = node.module or ""
                if node.level == 1 or module.rpartition(".")[0] == "proscons.audit":
                    if module.rpartition(".")[2] in siblings:
                        private += [(path.name, alias.name) for alias in node.names
                                    if alias.name.startswith("_")]
        assert private == []

    def test_every_key_names_its_record_and_every_axiom_is_registered(self):
        assert all(key == check.name for key, check in CHECKS.items())
        assert {axiom.value for axiom in Axiom} <= CHECKS.keys()


class TestSweep:
    # Keys first fail on different universes of the |X|<=3, |L|=3 range; "c" never does.
    PLAN = (
        ("a", "completeness", Rule.PARETO),
        ("b", "prefindependence", Rule.BIPOSS),
        ("c", "completeness", Rule.LEXI),
    )

    def first_failures(self, universes):
        firsts = {}
        for key, check, rule in self.PLAN:
            firsts[key] = next(
                (i for i, u in enumerate(universes)
                 if not check_axiom(Axiom(check), rule, u).holds),
                None,
            )
        return firsts

    def test_stop_ends_the_count_at_the_first_failing_universe(self):
        universes = list(iter_universes(3, 3))
        firsts = self.first_failures(universes)
        first = min(i for i in firsts.values() if i is not None)
        count, findings = sweep(self.PLAN, universes, stop=True)
        assert count == first + 1 < len(universes)
        assert [key for key, f in findings.items() if f is not None] == ["b"]
        assert findings["b"].universe == universes[first]
        assert findings["b"].verdict == check_axiom(
            Axiom.PREF_INDEPENDENCE, Rule.BIPOSS, universes[first]
        )

    def test_each_key_keeps_its_first_failure_in_canonical_order(self):
        universes = list(iter_universes(3, 3))
        firsts = self.first_failures(universes)
        assert firsts["a"] != firsts["b"] and firsts["c"] is None
        count, findings = sweep(self.PLAN, iter_universes(3, 3))
        assert count == len(universes)
        assert list(findings) == ["a", "b", "c"]
        for key, index in firsts.items():
            found = findings[key]
            assert (found.universe if found else None) == (
                None if index is None else universes[index]
            )

    def test_one_universe_is_the_file_audit(self, luka):
        u = luka.universe
        for rule in Rule:
            count, findings = sweep(theorem1_bundle.plan(rule), [u])
            assert count == 1
            report = theorem1_bundle(rule, u)
            assert list(findings) == [v.check for v in report.checks]
            for verdict in report.checks:
                found = findings[verdict.check]
                assert (found is None) == verdict.holds
                assert found is None or (found.universe, found.verdict) == (u, verdict)
        count, findings = sweep(PROPOSITIONS, [u])
        assert count == 1
        assert findings == dict.fromkeys(proposition_checks(u))


class TestSweepRange:
    """A sweep checks one universe per class up to relabelling the levels in order."""

    RANGES = ((3, 3), (4, 4), (6, 3), (2, 40))

    @staticmethod
    def kind(u: DecisionUniverse) -> tuple:
        return tuple(sorted((a.polarity.value, a.level) for a in u.arguments))

    @pytest.mark.parametrize("max_args, levels", RANGES)
    def test_sweeps_the_gap_free_universes_in_canonical_order(self, max_args, levels):
        universes = list(iter_universes(max_args, levels))
        swept = list(sweep_range(PROPOSITIONS, max_args, levels))
        assert swept == [u for u in universes if gap_free(u)]
        # Each class's gap-free universe comes first, so each first failure stays.
        order = {self.kind(u): i for i, u in enumerate(universes)}
        for i, u in enumerate(universes):
            assert order[self.kind(closed_gaps(u))] <= i

    def test_enumerates_no_level_past_the_arguments(self, monkeypatch):
        calls = []

        def spy(max_args, levels):
            calls.append((max_args, levels))
            assert levels <= max_args + 1, "no more levels than the arguments can occupy"
            return iter_universes(max_args, levels)

        monkeypatch.setattr(proscons.audit.reports, "iter_universes", spy)
        for max_args, levels in (*self.RANGES, (3, LEVEL_BOUND)):
            assert all(len(u.scale) == levels for u in sweep_range(PROPOSITIONS, max_args, levels))
        assert calls == [(3, 3), (4, 4), (6, 3), (2, 3), (3, 4)]
