"""Audit harness: enumeration, axiom checks, witnesses, bundles, searches."""

import pytest

from proscons import Outcome, Rule, TrivialUniverseError, compare
from proscons.audit import (
    CHECKS,
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
    theorem1_bundle,
    theorem2_bundle,
    weak_matrix,
)
from conftest import make_universe


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
        assert len(enumerate_profiles(u, bound=13)) == 2**13

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
        for u in iter_universes(3, levels):
            space = ProfileSpace(u)
            profiles = enumerate_profiles(u)
            for rule in Rule:
                weak = weak_matrix(space, rule)
                for i, a in enumerate(profiles):
                    for j, b in enumerate(profiles):
                        assert bool(weak[i, j]) == compare(rule, a, b).first_weak


class TestCheckAxiom:
    def test_gneg_holds_for_biposs_at_four_arguments(self):
        for u in iter_universes(4, 3, min_args=4):
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
            report = theorem1_bundle(rule, u, stop_at_first_failure=True)
            if not report.all_hold:
                verdict = report.failures[0]
                assert verdict.witness is not None
                assert replay_witness(verdict, u)
                return
        pytest.fail(f"{rule} unexpectedly satisfies the whole bundle")

    @pytest.mark.parametrize("rule", [r for r in Rule if r is not Rule.LEXI])
    def test_other_rules_fail_theorem2_with_replayable_witness(self, rule):
        for u in iter_universes(4, 3):
            report = theorem2_bundle(rule, u, stop_at_first_failure=True)
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

    def test_int64_overflow_refused(self):
        # Base 13 weights reach 13**18, far past int64, on 6 arguments and 19 levels.
        u = make_universe(19, [(f"x{i}", "pro", 18) for i in range(6)])
        with pytest.raises(UniverseTooLargeError, match="int64"):
            encoding_equivalence(u)


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


class TestCheckRegistry:
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
