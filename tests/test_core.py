"""Domain-model behaviour: scale, arguments, universe, profiles, sections."""

import itertools
import tracemalloc

import pytest

from proscons import (
    Argument,
    ArgumentDecl,
    DecisionUniverse,
    DuplicateNameError,
    ImportanceScale,
    Outcome,
    Polarity,
    UniverseMismatchError,
    UnknownArgumentError,
    UnknownLevelError,
    ascii_name,
    duplicate_both_polarity,
    om,
    validate_universe,
)
from conftest import make_universe


class TestScale:
    def test_orders_by_index(self):
        scale = ImportanceScale(("zero", "beta", "lambda"))
        assert scale.index("zero") == 0
        assert scale.index("lambda") == scale.top == 2

    def test_needs_two_levels(self):
        with pytest.raises(UnknownLevelError):
            ImportanceScale(("only",))

    def test_labels_distinct(self):
        with pytest.raises(UnknownLevelError):
            ImportanceScale(("a", "a"))

    def test_unknown_label(self):
        scale = ImportanceScale(("zero", "one"))
        with pytest.raises(UnknownLevelError):
            scale.index("two")

    @pytest.mark.parametrize("index", [-1, 2])
    def test_label_outside_the_scale(self, index):
        scale = ImportanceScale(("zero", "one"))
        with pytest.raises(UnknownLevelError, match=f"^level index {index} outside the scale$"):
            scale.label(index)


class TestUniverse:
    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateNameError):
            make_universe(2, [("pool", "pro", 1), ("pool", "con", 1)])

    def test_level_must_fit_scale(self):
        with pytest.raises(UnknownLevelError):
            make_universe(2, [("x", "pro", 5)])

    def test_negative_level_refused(self):
        with pytest.raises(UnknownLevelError, match="^negative level for argument 'x'$"):
            Argument("x", Polarity.PRO, -1)

    def test_null_argument_ignores_declared_polarity(self):
        u = make_universe(2, [("x", "pro", 0), ("y", "con", 0), ("z", "pro", 1)])
        assert u.nulls == {"x", "y"}
        assert u.pros == {"z"}
        assert u.cons == frozenset()

    def test_validate_luc_universe(self, luc):
        report = validate_universe(luc.universe)
        assert report.ok
        assert len(luc.universe.arguments) == 7

    def test_validate_trivial(self):
        u = make_universe(2, [("x", "pro", 0), ("y", "con", 0)])
        report = validate_universe(u)
        assert not report.ok
        assert report.codes() == ("TrivialUniverse",)


class TestDuplication:
    def test_both_splits_into_pro_and_con(self):
        pro, con = duplicate_both_polarity(ArgumentDecl("chocolate", "both", 2))
        assert pro.polarity is Polarity.PRO and con.polarity is Polarity.CON
        assert pro.level == con.level == 2
        assert pro.name != con.name
        assert pro.name.startswith("chocolate") and con.name.startswith("chocolate")

    def test_single_sided_passes_through(self):
        (arg,) = duplicate_both_polarity(ArgumentDecl("x", "pro", 1))
        assert arg == Argument("x", Polarity.PRO, 1)

    def test_null_both_yields_two_null_arguments(self):
        pro, con = duplicate_both_polarity(ArgumentDecl("y", "both", 0))
        u = make_universe(2, [("keep", "pro", 1)])
        u2 = DecisionUniverse(u.scale, u.arguments + (pro, con))
        assert {pro.name, con.name} <= u2.nulls


class TestAsciiNames:
    def test_superscripts_become_suffix_run(self):
        assert ascii_name("landscape⁺⁺") == "landscape_pp"
        assert ascii_name("price⁻⁻⁻") == "price_nnn"

    def test_plain_names_untouched(self):
        assert ascii_name("pool") == "pool"


class TestOrderOfMagnitude:
    def test_empty_is_bottom(self, luc):
        assert om(luc.universe, ()) == 0

    def test_luc_option_sides(self, luc):
        # strong cons of the first option, weak pros of the second
        assert om(luc.universe, luc.options["a"].neg) == 2
        assert om(luc.universe, luc.options["b"].pos) == 1

    def test_maxitive_and_monotone(self):
        u = make_universe(
            3, [("a", "pro", 2), ("b", "con", 1), ("c", "pro", 0), ("d", "con", 2)]
        )
        names = [arg.name for arg in u.arguments]
        subsets = [
            frozenset(c)
            for r in range(len(names) + 1)
            for c in itertools.combinations(names, r)
        ]
        for s, t in itertools.product(subsets, repeat=2):
            assert om(u, s | t) == max(om(u, s), om(u, t))
            if s <= t:
                assert om(u, s) <= om(u, t)


class TestSections:
    def test_luc_top_level_section(self, luc):
        full, pos, neg = luc.options["a"].section(2)
        assert full == {"landscape⁺⁺", "airline⁻⁻", "price⁻⁻"}
        assert pos == {"landscape⁺⁺"}
        assert neg == {"airline⁻⁻", "price⁻⁻"}

    def test_luc_option_a_has_no_weak_section(self, luc):
        assert luc.options["a"].section(1) == (frozenset(), frozenset(), frozenset())

    def test_null_section_holds_only_nulls(self):
        u = make_universe(2, [("x", "pro", 0), ("y", "pro", 1)])
        p = u.option({"x", "y"})
        full, pos, neg = p.section(0)
        assert full == {"x"} and pos == frozenset() and neg == frozenset()

    def test_sections_partition_non_null_members(self, luc):
        for profile in luc.options.values():
            seen = set()
            for level in range(1, len(luc.universe.scale)):
                full, _, _ = profile.section(level)
                assert not (seen & full)
                seen |= full
            assert seen == profile.members - luc.universe.nulls

    def test_level_outside_scale(self, luc):
        with pytest.raises(UnknownLevelError):
            luc.options["a"].section(9)


class TestProfiles:
    def test_unknown_member_rejected(self, luc):
        with pytest.raises(UnknownArgumentError):
            luc.universe.option({"helipad"})

    def test_polarity_split(self, luc):
        a = luc.options["a"]
        assert a.pos == {"landscape⁺⁺"}
        assert a.neg == {"airline⁻⁻", "price⁻⁻"}

    def test_mismatched_universes(self, luc, lucy):
        with pytest.raises(UniverseMismatchError):
            luc.options["a"].union(lucy.options["a"])

    def test_level_counts_stop_at_the_top_occupied_level(self):
        # One argument at level 1 or 29,990 of 30,000: a count per scale
        # level would hold about 240 KB per tuple; counts are by rank, so
        # only the null level and the argument's level count.
        for level in (1, 29_990):
            p = make_universe(30_000, [("x", "pro", level)]).option({"x"})
            tracemalloc.start()
            try:
                counts = p.pos_level_counts, p.neg_level_counts
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10
            assert counts == ((0, 1), (0, 0))

    def test_bits_follow_the_levels(self):
        u = make_universe(9, [("a", "pro", 8), ("z", "con", 0), ("b", "con", 3), ("c", "pro", 3)])
        assert u.occupied == (0, 3, 8)
        assert u.bits == {"z": 1, "b": 2, "c": 4, "a": 8}
        assert u.bit_levels == (0, 0, 3, 3, 8)
        assert u.option({"a", "b", "c", "z"}).masks == (12, 2)


class TestOutcome:
    def test_from_weak_covers_all_four(self):
        assert Outcome.from_weak(True, True) is Outcome.INDIFFERENT
        assert Outcome.from_weak(True, False) is Outcome.PREFER_FIRST
        assert Outcome.from_weak(False, True) is Outcome.PREFER_SECOND
        assert Outcome.from_weak(False, False) is Outcome.INCOMPARABLE

    def test_mirror(self):
        assert Outcome.PREFER_FIRST.mirror() is Outcome.PREFER_SECOND
        assert Outcome.INDIFFERENT.mirror() is Outcome.INDIFFERENT
        assert Outcome.INCOMPARABLE.mirror() is Outcome.INCOMPARABLE
