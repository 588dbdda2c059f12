"""Capacity encodings, net predisposition, and the cue-scanning bridge."""

import tracemalloc

import pytest

from proscons import (
    CueCompletionError,
    MixedPolarityError,
    NonInjectiveImportanceError,
    Outcome,
    Rule,
    UnknownArgumentError,
    compare,
    compare_bilexi_np,
    compare_np,
    complete_polar_opposites,
    net_predisposition,
    sigma,
    ttb_compare,
)
from proscons.encodings import (
    BigSteppedCapacity,
    default_base,
    iter_completed_pairs,
    opposite_name,
)
from proscons.audit import enumerate_profiles, iter_universes
from conftest import make_universe


class TestSigma:
    def test_empty_is_zero(self, luc):
        assert sigma((), luc.universe) == 0

    def test_luc_values_with_default_base(self, luc):
        # seven arguments -> base 15; three weak pros, two strong cons
        assert default_base(luc.universe) == 15
        assert sigma(luc.options["b"].pos, luc.universe) == 3 * 15
        assert sigma(luc.options["a"].neg, luc.universe) == 2 * 15**2

    def test_mixed_polarity_rejected(self, luc):
        with pytest.raises(MixedPolarityError):
            sigma(luc.options["a"].members, luc.universe)

    def test_null_members_weigh_nothing(self):
        u = make_universe(2, [("z", "pro", 0), ("x", "pro", 1)])
        assert sigma({"z"}, u) == 0
        assert sigma({"z", "x"}, u) == sigma({"x"}, u)

    def test_capacity_is_monotone_and_zero_at_empty(self):
        u = make_universe(3, [("a", "pro", 2), ("b", "pro", 1), ("c", "pro", 1)])
        cap = BigSteppedCapacity.for_universe(u)
        assert cap.of(()) == 0
        profiles = enumerate_profiles(u)
        for p in profiles:
            for q in profiles:
                if p.members <= q.members:
                    assert cap.of(p.members) <= cap.of(q.members)

    def test_leading_level_dominates_lower_budget(self):
        # worst-case signed budget per level is twice the universe size
        for n in range(1, 9):
            base = 2 * n + 1
            for lead in range(1, 5):
                assert base**lead > sum(2 * n * base**j for j in range(1, lead))


class TestNetPredisposition:
    def test_luc_scores(self, luc):
        assert net_predisposition(luc.options["a"]) == 225 - 450
        assert net_predisposition(luc.options["b"]) == 45 - 225

    def test_empty_scores_zero(self, luc):
        assert net_predisposition(luc.universe.empty) == 0

    def test_luc_comparison_matches_lexi(self, luc):
        a, b = luc.options["a"], luc.options["b"]
        assert compare_np(a, b) is Outcome.PREFER_SECOND
        assert compare_np(a, b) is compare(Rule.LEXI, a, b)

    def test_self_comparison_indifferent(self, luc):
        a = luc.options["a"]
        assert compare_np(a, a) is Outcome.INDIFFERENT


class TestEncodingEquivalences:
    def test_np_equals_lexi_exhaustively(self):
        for universe in iter_universes(4, 3):
            for a in enumerate_profiles(universe):
                for b in enumerate_profiles(universe):
                    assert compare_np(a, b) is compare(Rule.LEXI, a, b)

    def test_capacity_route_equals_bilexi_exhaustively(self):
        for universe in iter_universes(4, 3):
            for a in enumerate_profiles(universe):
                for b in enumerate_profiles(universe):
                    assert compare_bilexi_np(a, b) is compare(Rule.BILEXI, a, b)

    def test_luc_capacity_route_reports_the_conflict(self, luc):
        a, b = luc.options["a"], luc.options["b"]
        assert compare_bilexi_np(a, b) is Outcome.INCOMPARABLE

    def test_componentwise_capacity_totals_would_get_lucy_wrong(self, lucy):
        # The two ledgers first differ at different levels here; comparing
        # the raw totals componentwise reports a conflict, yet the rule
        # (and the levelwise capacity reading) strictly prefers the trip.
        a, home = lucy.options["a"], lucy.options["home"]
        cap = BigSteppedCapacity.for_universe(lucy.universe)
        assert cap.of(a.pos) > cap.of(home.pos)
        assert cap.of(a.neg) > cap.of(home.neg)
        assert compare(Rule.BILEXI, a, home) is Outcome.PREFER_FIRST
        assert compare_bilexi_np(a, home) is Outcome.PREFER_FIRST


class TestWeightTable:
    def test_default_base_reads_the_universe_table(self, luc):
        u = luc.universe
        assert u.weights == (0, 15, 15**2)
        for base in (15, 3):
            cap = BigSteppedCapacity(u, base)
            for option in luc.options.values():
                for side in (option.pos, option.neg):
                    assert cap.of(side) == sum(base ** u.level_of(n) for n in side)

    def test_table_stops_at_the_top_occupied_level(self):
        u = make_universe(600, [("x", "pro", 1), ("z", "con", 0)])
        assert len(u.weights) == 2
        # One power per occupied level, read by rank: base 5 for two arguments.
        assert make_universe(600, [("x", "pro", 1), ("y", "con", 7)]).weights == (0, 5, 5**7)
        assert make_universe(600, [("z", "pro", 0)]).weights == (0,)

    def test_table_holds_one_power_per_occupied_level(self):
        # One argument at level 4,000: a power per level up to it would hold
        # about 1.6 MB; the table is the null weight and 3**4000.
        u = make_universe(4_001, [("x", "pro", 4_000)])
        tracemalloc.start()
        try:
            weights = u.weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert weights == (0, 3**4_000)

    def test_capacity_takes_only_its_members_powers(self):
        # One argument at level 1 of 600: a table of 600 powers of 10**1000
        # would hold about 75 MB; the capacity is the base itself.
        u = make_universe(600, [("x", "pro", 1)])
        base = 10**1000
        tracemalloc.start()
        try:
            value = BigSteppedCapacity(u, base).of(["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == base
        assert peak < 1 << 20

    def test_weights_are_read_by_name_only(self, luc):
        # No per-level ``weight()``: a level outside the scale would index the
        # table silently (-1) or fail bare (past the top).
        assert not hasattr(BigSteppedCapacity, "weight")
        with pytest.raises(UnknownArgumentError):
            BigSteppedCapacity(luc.universe, 3).of(["nowhere"])


class TestUndersizedBase:
    def test_three_low_weights_tie_one_high_weight_at_base_three(self):
        # Three level-1 arguments against one level-2 argument: with base 3
        # the weights tie (3*3 == 9) and the encoding breaks; the levelwise
        # rule still decides.  Any base above a level's worst-case count
        # restores the equivalence; the default keeps a 2x margin.
        u = make_universe(
            3, [("a", "pro", 1), ("b", "pro", 1), ("c", "pro", 1), ("d", "pro", 2)]
        )
        low = u.option({"a", "b", "c"})
        high = u.option({"d"})
        assert sigma(low.members, u, base=3) == sigma(high.members, u, base=3) == 9
        assert compare(Rule.LEXI, low, high) is Outcome.PREFER_SECOND
        assert compare_np(low, high, base=3) is Outcome.INDIFFERENT
        assert compare_np(low, high) is Outcome.PREFER_SECOND


class TestCompletion:
    def test_three_cue_completion(self):
        u = make_universe(
            4, [("c1", "pro", 3), ("c2", "pro", 2), ("c3", "pro", 1)]
        )
        instance = complete_polar_opposites(
            u, {"one": {"c1", "c3"}, "two": {"c2"}}
        )
        assert instance.cues == ("c1", "c2", "c3")
        assert instance.options["one"].members == {"c1", "c3", opposite_name("c2")}
        assert instance.options["two"].members == {
            "c2", opposite_name("c1"), opposite_name("c3")
        }
        for profile in instance.options.values():
            for cue in instance.cues:
                assert (cue in profile.members) != (opposite_name(cue) in profile.members)

    def test_shared_cues_complete_symmetrically(self):
        u = make_universe(3, [("c1", "pro", 2), ("c2", "pro", 1)])
        instance = complete_polar_opposites(
            u, {"one": {"c1", "c2"}, "two": {"c1", "c2"}}
        )
        assert instance.options["one"].members == instance.options["two"].members
        assert ttb_compare(instance, "one", "two") is Outcome.INDIFFERENT

    def test_duplicate_levels_rejected(self, luc):
        with pytest.raises(NonInjectiveImportanceError):
            complete_polar_opposites(
                luc.universe,
                {name: p.members for name, p in luc.options.items()},
            )

    def test_unknown_cue_rejected(self):
        u = make_universe(3, [("c1", "pro", 2), ("c2", "pro", 1)])
        with pytest.raises(CueCompletionError,
                           match="^option references unknown argument 'ghost'$"):
            complete_polar_opposites(u, {"one": {"c1"}, "two": {"ghost"}})

    def test_con_cues_rejected(self, lucy):
        with pytest.raises(ValueError):
            complete_polar_opposites(
                lucy.universe,
                {name: p.members for name, p in lucy.options.items()},
            )


class TestTtbScan:
    def test_top_cue_decides(self):
        u = make_universe(
            4, [("c1", "pro", 3), ("c2", "pro", 2), ("c3", "pro", 1)]
        )
        instance = complete_polar_opposites(
            u, {"one": {"c1", "c3"}, "two": {"c2"}}
        )
        assert ttb_compare(instance, "one", "two") is Outcome.PREFER_FIRST
        assert ttb_compare(instance, "two", "one") is Outcome.PREFER_SECOND

    def test_coincides_with_cancellation_rules(self):
        for instance in iter_completed_pairs(4):
            a, b = instance.options["a"], instance.options["b"]
            expected = ttb_compare(instance, "a", "b")
            for rule in (Rule.DISCRI, Rule.BILEXI, Rule.LEXI):
                assert compare(rule, a, b) is expected

    def test_null_level_cue_never_discriminates(self):
        # a cue the decision-maker is indifferent to is skipped by the
        # scan, keeping it aligned with the cancellation rules
        u = make_universe(2, [("c1", "pro", 1), ("c0", "pro", 0)])
        instance = complete_polar_opposites(
            u, {"one": {"c1", "c0"}, "two": {"c1"}}
        )
        assert ttb_compare(instance, "one", "two") is Outcome.INDIFFERENT
        for rule in (Rule.DISCRI, Rule.BILEXI, Rule.LEXI):
            assert (
                compare(rule, instance.options["one"], instance.options["two"])
                is Outcome.INDIFFERENT
            )
