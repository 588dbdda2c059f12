"""Property tests on random universes past the exhaustive bounds.

The audit harness enumerates every profile only up to 12 arguments; these
tests draw universes of up to 60 arguments on up to 30 levels and check,
through the scalar functions, the claims the sweeps certify on small ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from proscons import (
    Argument,
    DecisionUniverse,
    ImportanceScale,
    Outcome,
    Polarity,
    Rule,
    compare,
    compare_bilexi_np,
    compare_impl,
    compare_impl_cases,
    compare_np,
    complete_polar_opposites,
    ttb_compare,
)
from proscons.audit.reports import REFINEMENT_CHAIN

MAX_ARGS = 60
MAX_LEVELS = 30

deterministic = settings(derandomize=True, deadline=None, max_examples=100)


def subsets(names):
    """A subset of ``names``: each member kept by a coin flip, or all, or none.

    All-or-none options give the largest per-level count differences, the
    ones that stress the capacity encodings' carries.
    """
    flags = st.lists(st.booleans(), min_size=len(names), max_size=len(names))
    coins = flags.map(lambda keep: {name for name, k in zip(names, keep) if k})
    return coins | st.just(set(names)) | st.just(set())


@st.composite
def profile_pairs(draw):
    """Two options over one random universe; arguments may sit on the null level."""
    num_levels = draw(st.integers(2, MAX_LEVELS))
    num_args = draw(st.integers(1, MAX_ARGS))
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from(list(Polarity)), st.integers(0, num_levels - 1)),
            min_size=num_args,
            max_size=num_args,
        )
    )
    scale = ImportanceScale(tuple(f"l{i}" for i in range(num_levels)))
    universe = DecisionUniverse(
        scale, tuple(Argument(f"x{i}", pol, lvl) for i, (pol, lvl) in enumerate(specs))
    )
    names = [a.name for a in universe.arguments]
    return universe.option(draw(subsets(names))), universe.option(draw(subsets(names)))


@deterministic
@given(profile_pairs())
def test_every_rule_is_reflexive_and_mirror_symmetric(pair):
    a, b = pair
    for rule in Rule:
        assert compare(rule, a, a) is Outcome.INDIFFERENT
        assert compare(rule, b, a) is compare(rule, a, b).mirror()


@deterministic
@given(profile_pairs())
def test_refinement_chain_keeps_strict_preferences(pair):
    a, b = pair
    for coarse, fine in REFINEMENT_CHAIN:
        if compare(coarse, a, b) is Outcome.PREFER_FIRST:
            assert compare(fine, a, b) is Outcome.PREFER_FIRST, (coarse, fine)


@deterministic
@given(profile_pairs())
def test_numeric_and_case_split_routes_agree(pair):
    a, b = pair
    assert compare_np(a, b) is compare(Rule.LEXI, a, b)
    assert compare_bilexi_np(a, b) is compare(Rule.BILEXI, a, b)
    assert compare_impl(a, b) is compare_impl_cases(a, b)


@st.composite
def cue_problems(draw):
    """Pro cues on pairwise distinct levels, and two options holding some of them."""
    num_levels = draw(st.integers(2, MAX_LEVELS))
    levels = draw(st.permutations(range(1, num_levels)))
    levels = levels[: draw(st.integers(1, len(levels)))]
    scale = ImportanceScale(tuple(f"l{i}" for i in range(num_levels)))
    universe = DecisionUniverse(
        scale, tuple(Argument(f"c{i}", Polarity.PRO, lvl) for i, lvl in enumerate(levels))
    )
    names = [a.name for a in universe.arguments]
    first, second = draw(subsets(names)), draw(subsets(names))
    if not first | second:
        first = {names[0]}  # cue completion needs one featured cue
    return universe, {"one": first, "two": second}


@deterministic
@given(cue_problems())
def test_cue_scan_coincides_with_cancellation_rules(problem):
    universe, options = problem
    instance = complete_polar_opposites(universe, options)
    outcome = ttb_compare(instance, "one", "two")
    a, b = instance.options["one"], instance.options["two"]
    for rule in (Rule.DISCRI, Rule.BILEXI, Rule.LEXI):
        assert compare(rule, a, b) is outcome, rule
