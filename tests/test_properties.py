"""Property tests on random universes past the exhaustive bounds.

The audit harness enumerates every profile only up to 12 arguments; these
tests draw universes of up to 60 arguments on up to 30 levels, 61 to 150
arguments for the argument masks, and profile spaces and masks also on
scales of 200 to 400 levels, and check, through the scalar functions, the
claims the sweeps certify on small ones.
The closure kernels, the shift-scan, ground, cancellation, union and
pairwise checks are held to their definitions on random relations, which
break the axioms far more often than the rules do, and every check's replay
to its sweep's witnesses; the profile space is held to the scalar profiles,
and every rule's weak matrix to its scalar rule.  The two theorem bundles
are sampled through their replays on seeded universes of 13 to 40 arguments.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proscons import (
    Argument,
    DecisionUniverse,
    ImportanceScale,
    Outcome,
    Polarity,
    Rule,
    UnknownArgumentError,
    compare,
    compare_bilexi_np,
    compare_biposs,
    compare_impl,
    compare_impl_cases,
    compare_np,
    complete_polar_opposites,
    net_predisposition,
    om,
    sigma,
    ttb_compare,
)
from proscons.encodings import default_base, leading_level
from proscons.audit import (
    CHECKS,
    PAIRWISE_BOUND,
    AuditContext,
    ProfileSpace,
    Witness,
    replay_witness,
)
from proscons.audit.axioms import (
    COROLLARIES,
    _combination_scan,
    _monotony_scan,
    _union_closed,
    _witness,
)
from proscons.audit.matrices import RelationSet, weak_matrix
from proscons.audit.reports import REFINEMENT_CHAIN, theorem1_bundle, theorem2_bundle
from proscons.rules import EMPTY_LABEL

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
def profile_pairs(draw, num_levels=st.integers(2, MAX_LEVELS), num_args=st.integers(1, MAX_ARGS)):
    """Two options over one random universe; arguments may sit on the null level."""
    num_levels = draw(num_levels)
    num_args = draw(num_args)
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


@deterministic
@given(profile_pairs())
def test_cached_capacities_are_the_weight_sums(pair):
    for option in pair:
        u = option.universe
        base = default_base(u)
        # Pros and cons hold no null argument, so every member weighs base**level.
        brute = [sum(base ** u.by_name[n].level for n in side) for side in (option.pos, option.neg)]
        assert option.capacities == tuple(brute)
        assert net_predisposition(option) == net_predisposition(option, base=base)


@st.composite
def level_differences(draw):
    """A universe and per-level count differences in [-|X|, |X|] above the null level.

    Extremes (±1, ±|X|) are drawn often: a leading ±1 over lower levels at
    ∓|X| and a leading ±|X| over lower levels at ±|X| sit at the two edges
    of the leading level's range.
    """
    n = draw(st.integers(1, MAX_ARGS))
    num_levels = draw(st.integers(2, MAX_LEVELS))
    universe = DecisionUniverse(
        ImportanceScale(tuple(f"l{i}" for i in range(num_levels))),
        tuple(Argument(f"x{i}", Polarity.PRO, 1) for i in range(n)),
    )
    digit = st.integers(-n, n) | st.sampled_from([-n, -1, 0, 1, n])
    diffs = draw(st.lists(digit, min_size=num_levels - 1, max_size=num_levels - 1))
    return universe, (0, *diffs)


@deterministic
@given(level_differences())
def test_leading_level_is_the_top_differing_level(drawn):
    universe, diffs = drawn
    base = default_base(universe)
    weights = (0, *(base**k for k in range(1, len(universe.scale))))
    value = sum(d * w for d, w in zip(diffs, weights))
    top = max((k for k, d in enumerate(diffs) if d), default=0)
    assert leading_level(value, weights) == top
    assert (value > 0) - (value < 0) == (diffs[top] > 0) - (diffs[top] < 0)
    assert leading_level(0, weights) == 0


@deterministic
@given(profile_pairs())
def test_discri_is_biposs_after_cancelling_shared_arguments(pair):
    a, b = pair
    assert compare(Rule.DISCRI, a, b) is compare_biposs(a.difference(b), b.difference(a))


def _discri_by_differences(a, b):
    """``discri`` as four frozenset differences and their ``om``: the reference for the masks."""
    u = a.universe
    ap, an = om(u, a.pos - b.pos), om(u, a.neg - b.neg)
    bp, bn = om(u, b.pos - a.pos), om(u, b.neg - a.neg)
    return Outcome.from_weak(max(ap, bn) >= max(bp, an), max(bp, an) >= max(ap, bn))


# Masks of 61-150 bits span several machine digits, and on 200-400 levels
# the arguments' levels lie far apart.
wide_profile_pairs = profile_pairs(st.integers(200, 400), st.integers(61, 150))


@deterministic
@given(profile_pairs() | wide_profile_pairs, st.data())
def test_masks_read_the_order_of_magnitude(pair, data):
    a, b = pair
    u = a.universe
    bit = u.bits.__getitem__
    assert sorted(u.bits.values()) == [1 << k for k in range(len(u.arguments))]
    assert a.masks == (sum(map(bit, a.pos)), sum(map(bit, a.neg)))
    names = data.draw(subsets(sorted(u.by_name)))
    for side in (names, a.pos - b.pos, b.neg - a.neg, a.members, b.members):
        mask = sum(map(bit, side))
        assert u.bit_levels[mask.bit_length()] == om(u, side)
    assert compare(Rule.DISCRI, a, b) is _discri_by_differences(a, b)


@deterministic
@given(wide_profile_pairs, st.data())
def test_leading_level_reads_the_rank_table(pair, data):
    # On a sparse scale the universe's table holds one power per occupied
    # level, and the leading index is the top rank whose digit is nonzero.
    u = pair[0].universe
    n, base = len(u.arguments), default_base(u)
    digit = st.integers(-n, n) | st.sampled_from([-n, -1, 0, 1, n])
    ranked = len(u.occupied) - 1
    diffs = (0, *data.draw(st.lists(digit, min_size=ranked, max_size=ranked)))
    value = sum(d * base**level for d, level in zip(diffs, u.occupied))
    assert value == sum(d * w for d, w in zip(diffs, u.weights))
    top = max((r for r, d in enumerate(diffs) if d), default=0)
    assert leading_level(value, u.weights) == top
    assert (value > 0) - (value < 0) == (diffs[top] > 0) - (diffs[top] < 0)


@deterministic
@given(profile_pairs(), st.text(max_size=3))
def test_unknown_names_are_refused(pair, name):
    option = pair[0]
    u = option.universe
    assume(name not in u.by_name)
    for probe in (
        lambda: u.level_of(name),
        lambda: om(u, [*option.pos, name]),
        lambda: sigma([*option.pos, name], u),
    ):
        with pytest.raises(UnknownArgumentError, match="unknown argument"):
            probe()


@st.composite
def spaces(draw, max_args=PAIRWISE_BOUND):
    """A universe of up to ``max_args`` arguments and a few of its profile masks;
    on a scale of a few hundred levels the occupied ones lie far apart."""
    num_levels = draw(st.integers(2, MAX_LEVELS) | st.integers(200, 400))
    num_args = draw(st.integers(0, max_args))
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
    masks = draw(st.lists(st.integers(0, (1 << num_args) - 1), min_size=1, max_size=8))
    return universe, masks


@deterministic
@given(spaces())
def test_profile_space_rows_are_the_scalar_profiles(case):
    universe, masks = case
    space = ProfileSpace(universe)
    names = [a.name for a in universe.arguments]
    occupied = universe.occupied
    assert occupied == tuple(sorted({0, *(a.level for a in universe.arguments)}))
    for m in masks:
        p = universe.option(name for i, name in enumerate(names) if m >> i & 1)
        # Both routes count by the rank of the occupied level.
        assert tuple(space.pos_counts[m]) == p.pos_level_counts
        assert tuple(space.neg_counts[m]) == p.neg_level_counts
        for side, counts in ((p.pos, p.pos_level_counts), (p.neg, p.neg_level_counts)):
            assert counts == tuple(sum(universe.level_of(n) == lv for n in side) for lv in occupied)
        assert occupied[space.omp[m]] == p.om_pos
        assert occupied[space.omn[m]] == p.om_neg
        assert space.submasks(m).tolist() == [s for s in range(1 << len(names)) if not s & ~m]


@deterministic
@given(spaces(max_args=8))
def test_weak_matrices_are_the_scalar_rules(case):
    # Many levels between few arguments: the levelwise keys interleave far
    # more levels than the exhaustive bridge at |L| <= 4 reaches.
    universe, masks = case
    space = ProfileSpace(universe)
    for rule in Rule:
        weak = weak_matrix(space, rule)
        for i in masks:
            for j in masks:
                expected = compare(rule, space.profile(i), space.profile(j)).first_weak
                assert bool(weak[i, j]) == expected, (rule, i, j)


@st.composite
def coded_universes(draw):
    """1 to 9 arguments, null ones allowed, of mixed polarity or all pros or all cons;
    odd counts split the discri half tables unequally (n = 1: an empty low half)."""
    n = draw(st.integers(1, 9))
    num_levels = draw(st.integers(2, 6))
    polarity = draw(st.sampled_from([None, Polarity.PRO, Polarity.CON]))
    specs = [(polarity or draw(st.sampled_from(list(Polarity))),
              draw(st.integers(0, num_levels - 1))) for _ in range(n)]
    if all(level == 0 for _, level in specs):
        specs[draw(st.integers(0, n - 1))] = (specs[0][0], num_levels - 1)
    scale = ImportanceScale(tuple(f"l{i}" for i in range(num_levels)))
    return DecisionUniverse(
        scale, tuple(Argument(f"x{i}", pol, lvl) for i, (pol, lvl) in enumerate(specs))
    )


@deterministic
@given(coded_universes())
def test_built_codes_are_the_coded_weak_matrices(universe):
    # Bit 1 of a built code comes from the rule's terms with the sides swapped;
    # it must be bit 0 transposed, as the tiled transpose of a given matrix makes it.
    ctx = AuditContext(universe)
    for rule in Rule:
        expected = RelationSet(weak_matrix(ctx.space, rule)).code
        assert np.array_equal(ctx.rel(rule).code, expected), rule


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


MAX_KERNEL_ARGS = 4


def _close(rel, force):
    """Smallest superset of ``rel`` holding every pair ``force`` derives from its pairs."""
    while True:
        grown = rel.copy()
        for rows, cols in force(*np.nonzero(rel)):
            grown[rows, cols] = True
        if (grown == rel).all():
            return rel
        rel = grown


def _union_steps(a, b):
    yield a[:, None] | a[None, :], b[:, None] | b[None, :]


def _monotony_steps(side, positive):
    def force(a, b):
        for bit in (1 << i for i in range(side.bit_length()) if side >> i & 1):
            yield (a | bit, b) if positive else (a & ~bit, b)
            yield (a, b & ~bit) if positive else (a, b | bit)
    return force


@st.composite
def relations(draw):
    """``(rel, side, positive)``: a bool relation over the 2^n subsets of n <= 4
    arguments, a side mask and a monotony direction.

    The relation is random cells, or the closure of a few random pairs under
    union or under one-argument monotony steps on ``side``, so both verdicts
    of each kernel occur; one cell may then flip, for near misses.
    """
    size = 1 << draw(st.integers(0, MAX_KERNEL_ARGS))
    side = draw(st.integers(0, size - 1))
    positive = draw(st.booleans())
    index = st.integers(0, size - 1)
    kind = draw(st.sampled_from(["cells", "union", "monotony"]))
    if kind == "cells":
        cells = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
        rel = np.array(cells, dtype=bool).reshape(size, size)
    else:
        rel = np.zeros((size, size), dtype=bool)
        for a, b in draw(st.lists(st.tuples(index, index), max_size=3)):
            rel[a, b] = True
        force = _union_steps if kind == "union" else _monotony_steps(side, positive)
        rel = _close(rel, force)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=1)):
        rel[a, b] = not rel[a, b]
    return rel, side, positive


def _context(size, cons=0):
    """Audit context over ``log2(size)`` arguments, to name scanner witnesses;
    argument i is a con if bit i of ``cons`` is set, else a pro."""
    scale = ImportanceScale(("l0", "l1"))
    args = tuple(Argument(f"x{i}", Polarity.CON if cons >> i & 1 else Polarity.PRO, 1)
                 for i in range(size.bit_length() - 1))
    return AuditContext(DecisionUniverse(scale, args))


@deterministic
@given(relations())
def test_union_closure_kernel_matches_its_definition(case):
    rel, _, _ = case
    m = np.arange(len(rel))
    a, b, c, d = np.ix_(m, m, m, m)
    viol = rel[a, b] & rel[c, d] & ~rel[a | c, b | d]
    assert _union_closed(rel) == (not viol.any())
    if viol.any():  # the scanner names the lexicographically first (A, B, C, D)
        ctx = _context(len(rel))
        assert _combination_scan(ctx, rel) == _witness(ctx, *np.argwhere(viol)[0])


@deterministic
@given(relations())
def test_monotony_kernel_matches_its_definition(case):
    rel, side, positive = case
    m = np.arange(len(rel))
    subs = m[(m & ~side) == 0]
    a, b, c, cp = np.ix_(m, m, subs, subs)
    rows, cols = (a | c, b & ~cp) if positive else (a & ~c, b | cp)
    viol = rel[a, b] & ~rel[rows, cols]
    if len(rel) == 1:  # the n = 0 draw has no argument and no step
        assert not viol.any()
        return
    ctx = _context(len(rel))
    found = _monotony_scan(ctx, rel, side, positive=positive)
    assert (found is None) == (not viol.any())
    if viol.any():  # the scan names the lexicographically first (A, B, C, C')
        k, l, i, j = np.argwhere(viol)[0]
        assert found == _witness(ctx, k, l, subs[i], subs[j])


def _random_relation(draw, n):
    """Random cells, made complete or not, or the order of an additive score,
    which passes every exchange-type check and has a weak-order ground; one
    cell may then flip."""
    size = 1 << n
    kind = draw(st.sampled_from(["cells", "complete", "additive"]))
    if kind != "additive":
        cells = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
        rel = np.array(cells, dtype=bool).reshape(size, size)
        if kind == "complete":
            rel |= ~rel.T
    else:
        weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        score = (np.arange(size)[:, None] >> np.arange(n) & 1) @ np.array(weights)
        rel = score[:, None] >= score[None, :]
    index = st.integers(0, size - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=1)):
        rel[a, b] = not rel[a, b]
    return rel


@st.composite
def relation_contexts(draw, rules=(Rule.LEXI, Rule.BIPOSS)):
    """Audit context over 1 <= n <= 4 pro and con arguments whose relations for
    ``rules`` are drawn at random in place of the rules' own matrices."""
    n = draw(st.integers(1, MAX_KERNEL_ARGS))
    ctx = _context(1 << n, draw(st.just(0) | st.integers(0, (1 << n) - 1)))
    for rule in rules:
        ctx._relations[rule] = RelationSet(_random_relation(draw, n))
    return ctx


def _first_witness(viol, build):
    hits = np.argwhere(viol)
    return build(*hits[0]) if len(hits) else None


def _defined_witnesses(ctx, w, other):
    """Each check's first witness from its definition: ``np.argwhere`` over its
    quantified variables, in its order (the shift's variables, then A, B; the
    union checks' A, B, C over the sets of pros; the efficiency checks' A,
    then B within it)."""
    strict, sym = w & ~w.T, w & w.T
    m = np.arange(len(w))
    bits = 1 << np.arange(ctx.space.n)
    names = ctx.space.names
    pos = sum(int(bit) for bit, name in zip(bits, names) if name in ctx.universe.pros)
    neg = sum(int(bit) for bit, name in zip(bits, names) if name in ctx.universe.cons)
    # Grids: (A, B, C) and (B, C) over the sets of pros; (A, B) over every set.
    subs = m[(m & ~pos) == 0]
    a3, b3, c3 = np.ix_(subs, subs, subs)
    bs, cs = np.ix_(subs, subs)
    a2, b2 = np.ix_(m, m)
    within = (b2 & ~a2) == 0
    # Grids: one argument or set, then (A, B); two arguments or sets, then (A, B).
    x1, a1, b1 = np.ix_(bits, m, m)
    c1 = m[:, None, None]
    x, xp, a, b = np.ix_(bits, bits, m, m)
    c, d = m[:, None, None, None], m[None, :, None, None]
    ax, axp = a | x, a | xp
    broken_swap = (
        (strict[ax, b] & ~strict[axp, b]) | (sym[ax, b] & ~w[axp, b])
        | (strict[b, axp] & ~strict[b, ax]) | (sym[b, axp] & ~w[b, ax])
    )
    items = [*bits, 0]
    g, h = w[np.ix_(items, items)], other[np.ix_(items, items)]
    labels = (*names, "0")
    union = _first_witness(
        sym[a3, b3] & sym[a3, c3] & ~sym[a3, b3 | c3],
        lambda i, j, k: _witness(ctx, subs[i], subs[j], subs[k], note="union"))
    absorb = _first_witness(
        w[bs, cs] & ~sym[bs, bs | cs],
        lambda i, j: _witness(ctx, subs[i], subs[j], note="absorb"))
    return {
        "ca": _first_witness(~w[bits, 0] & ~w[0, bits], lambda i: Witness(args=(names[i],))),
        "sqc": _first_witness(
            sym[x1, 0] & ((w[a1, b1] != w[a1 | x1, b1]) | (w[a1, b1] != w[a1, b1 | x1])),
            lambda i, a, b: _witness(ctx, a, b, args=(names[i],))),
        "xmonotony": _first_witness(
            (x != xp) & w[xp, x] & ((a & (x | xp)) == 0) & broken_swap,
            lambda i, j, a, b: _witness(ctx, a, b, args=(names[i], names[j]))),
        "prefindependence": _first_witness(
            (c1 > 0) & (((a1 | b1) & c1) == 0) & (w[a1, b1] != w[a1 | c1, b1 | c1]),
            lambda c, a, b: _witness(ctx, a, b, c)),
        "anonymity": _first_witness(
            sym[c, d] & (c != d) & ((a & (c | d)) == 0)
            & ((w[a | c, b] != w[a | d, b]) | (w[b, a | c] != w[b, a | d])),
            lambda c, d, a, b: _witness(ctx, a, b, c, d)),
        "add_indifferent_set": _first_witness(
            (c1 > 0) & sym[c1, 0] & ((a1 & c1) == 0)
            & ((w[a1, b1] != w[a1 | c1, b1]) | (w[b1, a1] != w[b1, a1 | c1])),
            lambda c, a, b: _witness(ctx, a, b, c)),
        "swap_indifferent_sets": _first_witness(
            sym[c, d] & (c != d) & (((a | b) & (c | d)) == 0) & (w[a, b] != w[a | c, b | d]),
            lambda c, d, a, b: _witness(ctx, a, b, c, d)),
        "swap_indifferent_singletons": _first_witness(
            sym[x, xp] & ((a & x) == 0) & ((b & xp) == 0) & (w[a, b] != w[a | x, b | xp]),
            lambda i, j, a, b: _witness(ctx, a, b, args=(names[i], names[j]))),
        "unbiased_ground": _first_witness(
            g + 2 * g.T != h + 2 * h.T,
            lambda i, j: Witness(args=(labels[i], labels[j]), note="unbiased_ground")),
        "neg": _first_witness(
            strict[a3, b3] & strict[a3, c3] & ~strict[a3, b3 | c3],
            lambda i, j, k: _witness(ctx, subs[i], subs[j], subs[k])),
        "clo": union if union is not None else absorb,
        "weakunanimity": _first_witness(
            w[a2 & pos, b2 & pos] & w[a2 & neg, b2 & neg] & ~w[a2, b2],
            lambda a, b: _witness(ctx, a, b)),
        "posefficiency": _first_witness(
            within & strict[a2 ^ b2, 0] & ~strict[a2, b2], lambda a, b: _witness(ctx, a, b)),
        "negefficiency": _first_witness(
            within & strict[0, a2 ^ b2] & ~strict[b2, a2], lambda a, b: _witness(ctx, a, b)),
    }


@deterministic
@given(relation_contexts())
def test_shift_and_ground_checks_match_their_definitions(ctx):
    w, other = ctx.rel(Rule.LEXI).weak, ctx.rel(Rule.BIPOSS).weak
    for name, witness in _defined_witnesses(ctx, w, other).items():
        assert CHECKS[name].verdict(Rule.LEXI, ctx.universe, context=ctx).witness == witness, name
    # The ground is a weak order: complete and transitive on singletons and the empty set.
    items = [*(1 << np.arange(ctx.space.n)), 0]
    g = w[np.ix_(items, items)]
    broken = np.argwhere(~g & ~g.T).size + np.argwhere(g[:, :, None] & g & ~g[:, None, :]).size
    found = CHECKS["simplegrounding"].verdict(Rule.LEXI, ctx.universe, context=ctx).witness
    assert (found == Witness(note="ground")) == bool(broken)


@st.composite
def cancellation_contexts(draw):
    """Audit context over 2 to 5 arguments, at least one pro and one con, whose
    ``lexi`` relation is installed at random: cells dense enough that
    arguments often cancel, or the order of an additive score with weights
    in -1..1, which cancellation never breaks; one cell may then flip."""
    n = draw(st.integers(2, 5))
    ctx = _context(1 << n, draw(st.integers(1, (1 << n) - 2)))
    size = ctx.space.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        score = (np.arange(size)[:, None] >> np.arange(n) & 1) @ rng.integers(-1, 2, size=n)
        w = score[:, None] >= score[None, :]
    else:
        w = rng.random((size, size)) < draw(st.sampled_from([0.6, 0.8, 0.95]))
    index = st.integers(0, size - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=1)):
        w[a, b] = not w[a, b]
    ctx._relations[Rule.LEXI] = RelationSet(w)
    return ctx


@deterministic
@given(cancellation_contexts())
def test_cancellation_checks_match_their_definitions(ctx):
    # Arguments x and z on one side that each cancel y on the other, x ∪ y ~ ∅
    # and z ∪ y ~ ∅, must be indifferent; the first (y, x, z) by index breaks it.
    sym, names, u = ctx.rel(Rule.LEXI).sym, ctx.space.names, ctx.universe
    for name, same, other in (("posc", u.pros, u.cons), ("negc", u.cons, u.pros)):
        xs, ys = ([i for i, arg in enumerate(names) if arg in side] for side in (same, other))
        hits = [(x, z, y) for y in ys for x in xs for z in xs
                if sym[1 << x | 1 << y, 0] and sym[1 << z | 1 << y, 0] and not sym[1 << x, 1 << z]]
        expected = Witness(args=tuple(names[i] for i in hits[0])) if hits else None
        assert CHECKS[name].verdict(Rule.LEXI, u, context=ctx).witness == expected, name


@st.composite
def unanimity_contexts(draw):
    """Audit context over 2 to 9 arguments: pros and cons interleaved, or only
    pros (N = ∅), or only cons (P = ∅), with one null argument among them;
    its ``lexi`` relation is installed at random.  The relation is random
    cells, or ties every A in the first 256 rows to every B (so no
    violation lies in the first row block), or an additive score's order,
    which weak unanimity never breaks."""
    n = draw(st.integers(2, 9))
    layout = draw(st.sampled_from(["interleaved", "pros", "cons"]))
    null = draw(st.integers(0, n - 1))
    args = []
    for i in range(n):
        con = layout == "cons" or (layout == "interleaved" and i % 2 == 1)
        polarity = Polarity.CON if con else Polarity.PRO
        args.append(Argument(f"x{i}", polarity, 0 if i == null else 1 + i % 3))
    ctx = AuditContext(DecisionUniverse(ImportanceScale(("l0", "l1", "l2", "l3")), tuple(args)))
    size = ctx.space.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cells", "late", "additive"]))
    if kind == "additive":
        score = (np.arange(size)[:, None] >> np.arange(n) & 1) @ rng.integers(-2, 3, size=n)
        w = score[:, None] >= score[None, :]
    else:
        w = rng.random((size, size)) < draw(st.sampled_from([0.5, 0.9]))
        if kind == "late":
            w[:256] = True
    ctx._relations[Rule.LEXI] = RelationSet(w)
    return ctx, w


@deterministic
@given(unanimity_contexts())
def test_weakunanimity_names_the_first_cell_of_its_grid(case):
    ctx, w = case
    names, u = ctx.space.names, ctx.universe
    pos = sum(1 << i for i, name in enumerate(names) if name in u.pros)
    neg = sum(1 << i for i, name in enumerate(names) if name in u.cons)
    a, b = np.ix_(ctx.space.masks, ctx.space.masks)
    hits = np.argwhere(w[a & pos, b & pos] & w[a & neg, b & neg] & ~w[a, b])
    expected = _witness(ctx, *hits[0]) if len(hits) else None
    assert CHECKS["weakunanimity"].verdict(Rule.LEXI, u, context=ctx).witness == expected


def _oracle(ctx):
    """A ``compare`` that reads the relations installed in ``ctx``."""
    def compare(rule, a, b):
        i, j = (sum(1 << ctx.space.names.index(name) for name in p.members) for p in (a, b))
        code = int(ctx.rel(rule).code[i, j])
        return Outcome.from_weak(code & 1, code >> 1)
    return compare


def _swap_compare(monkeypatch, oracle):
    # Every module whose replays call ``compare`` by name, ``ground_relation``'s included.
    for module in ("proscons.rules", "proscons.audit.axioms"):
        monkeypatch.setattr(f"{module}.compare", oracle)


def test_every_witness_replays_under_an_oracle_of_its_relation():
    # Each check's sweep reads random relations for all six rules; its replay
    # reads the same cells through ``compare``, swapped for an oracle.  Every
    # witness must replay.  Under the relation where every pair is indifferent,
    # a witness of a check that holds there must not.
    reached = set()

    @deterministic
    @given(relation_contexts(tuple(Rule)))
    def replays(ctx):
        u = ctx.universe
        indifferent = AuditContext(u)
        for rule in Rule:
            indifferent._relations[rule] = RelationSet(np.ones((ctx.space.size,) * 2, bool))
        failures = [(check, verdict) for check in CHECKS.values() for rule in Rule
                    if not (verdict := check.verdict(rule, u, context=ctx)).holds]
        with pytest.MonkeyPatch.context() as monkeypatch:
            _swap_compare(monkeypatch, _oracle(ctx))
            for check, verdict in failures:
                assert replay_witness(verdict, u), verdict
                reached.add(check.replay)
            _swap_compare(monkeypatch, _oracle(indifferent))
            for check, verdict in failures:
                if check.verdict(verdict.rule, u, context=indifferent).holds:
                    assert not replay_witness(verdict, u), verdict

    replays()
    assert reached == {check.replay for check in CHECKS.values()}


def test_cancellation_replays_refuse_a_witness_of_the_other_side():
    # No rule breaks posc or negc, so random relations supply their witnesses.
    # A posc witness names pros x and z and a con y; negc's replay, whose
    # sides are swapped, must refuse it, and posc's must refuse a negc witness.
    reached = set()

    @deterministic
    @given(relation_contexts())
    def sides(ctx):
        u = ctx.universe
        with pytest.MonkeyPatch.context() as monkeypatch:
            _swap_compare(monkeypatch, _oracle(ctx))
            for name, other in (("posc", "negc"), ("negc", "posc")):
                witness = CHECKS[name].verdict(Rule.LEXI, u, context=ctx).witness
                if witness is not None:
                    assert CHECKS[name].replay(Rule.LEXI, u, witness), name
                    assert not CHECKS[other].replay(Rule.LEXI, u, witness), name
                    reached.add(name)

    sides()
    assert reached == {"posc", "negc"}


@pytest.mark.parametrize("name, args, replays", [
    ("posc", ("x0", "x1", "x3"), True),
    ("posc", ("x4", "x1", "x3"), False),  # x a con
    ("posc", ("x0", "x4", "x3"), False),  # z a con
    ("posc", ("x0", "x1", "x2"), False),  # y a pro
    ("negc", ("x3", "x4", "x0"), True),
    ("negc", ("x1", "x4", "x0"), False),  # x a pro
    ("negc", ("x3", "x1", "x0"), False),  # z a pro
    ("negc", ("x3", "x4", "x5"), False),  # y a con
])
def test_cancellation_replay_reads_each_side(monkeypatch, name, args, replays):
    # Pros x0-x2, cons x3-x5.  Every pair is indifferent but distinct singletons,
    # ranked by index, so every (x, z, y) with x ≠ z breaks cancellation as far
    # as the relation goes, and only the sides of its arguments decide.
    ctx = _context(64, 0b111000)
    w = np.ones((64, 64), dtype=bool)
    singles = 1 << np.arange(6)
    w[np.ix_(singles, singles)] = np.triu(np.ones((6, 6), dtype=bool))
    ctx._relations[Rule.LEXI] = RelationSet(w)
    _swap_compare(monkeypatch, _oracle(ctx))
    assert CHECKS[name].replay(Rule.LEXI, ctx.universe, Witness(args=args)) == replays


@st.composite
def exchange_instances(draw):
    """A context from ``relation_contexts`` and one random instance of the
    exchange checks: profiles A, B, C, D and arguments x, y by index.  Half
    the draws keep A and B off the shifts, and half take D and y indifferent
    to C and x where the relation has such, so that the guards often pass."""
    ctx = draw(relation_contexts())
    mask = st.integers(0, ctx.space.size - 1)
    sym = ctx.rel(Rule.LEXI).sym
    a, b, c = draw(mask), draw(mask), draw(mask)
    i = draw(st.integers(0, ctx.space.n - 1))
    partners = np.flatnonzero(sym[c]).tolist()
    d = draw(st.sampled_from(partners) if partners and draw(st.booleans()) else mask)
    singles = [j for j in range(ctx.space.n) if sym[1 << i, 1 << j]]
    j = draw(st.sampled_from(singles) if singles and draw(st.booleans())
             else st.integers(0, ctx.space.n - 1))
    if draw(st.booleans()):
        shifts = c | d | 1 << i | 1 << j
        a, b = a & ~shifts, b & ~shifts
    return ctx, a, b, c, d, i, j


def test_exchange_replays_match_their_definitions():
    # Each exchange replay, through an oracle of a random relation, must answer
    # as the axiom's definition over the same cells, guards included, at any
    # instance and not only at the sweep's witnesses; both answers occur.
    reached = set()

    @deterministic
    @given(exchange_instances())
    def replays(instance):
        ctx, a, b, c, d, i, j = instance
        w = ctx.rel(Rule.LEXI).weak
        sym = w & w.T
        x, y, names = 1 << i, 1 << j, ctx.space.names
        defined = {
            "sqc": (_witness(ctx, a, b, args=(names[i],)),
                    sym[x, 0] and (w[a, b] != w[a | x, b] or w[a, b] != w[a, b | x])),
            "prefindependence": (_witness(ctx, a, b, c),
                                 not (a | b) & c and w[a, b] != w[a | c, b | c]),
            "anonymity": (_witness(ctx, a, b, c, d),
                          sym[c, d] and not a & (c | d)
                          and (w[a | c, b] != w[a | d, b] or w[b, a | c] != w[b, a | d])),
            "add_indifferent_set": (_witness(ctx, a, b, c),
                                    sym[c, 0] and not a & c
                                    and (w[a, b] != w[a | c, b] or w[b, a] != w[b, a | c])),
            "swap_indifferent_sets": (_witness(ctx, a, b, c, d),
                                      sym[c, d] and not (a | b) & (c | d)
                                      and w[a, b] != w[a | c, b | d]),
            "swap_indifferent_singletons": (_witness(ctx, a, b, args=(names[i], names[j])),
                                            sym[x, y] and not a & x and not b & y
                                            and w[a, b] != w[a | x, b | y]),
        }
        with pytest.MonkeyPatch.context() as monkeypatch:
            _swap_compare(monkeypatch, _oracle(ctx))
            for name, (witness, expected) in defined.items():
                assert CHECKS[name].replay(Rule.LEXI, ctx.universe, witness) == expected, name
                reached.add((name, bool(expected)))

    replays()
    assert reached == {(name, answer) for name in COROLLARIES + (
        "sqc", "prefindependence", "anonymity") for answer in (True, False)}


@pytest.mark.parametrize("u, v", [(u, v) for u in range(4) for v in range(4)])
def test_xmonotony_reads_every_pair_code(u, v):
    # Two arguments x, x'; every pair is indifferent (code 3) except ({x}, ∅)
    # and ({x'}, ∅), whose codes are u and v (bit 0: A ≽ B, bit 1: B ≽ A).
    # Only those two pairs can break xmonotony, so each table cell is read.
    ctx = _context(4)
    w = np.ones((4, 4), dtype=bool)
    for a, code in ((1, u), (2, v)):
        w[a, 0], w[0, a] = code & 1, code >> 1
    ctx._relations[Rule.LEXI] = RelationSet(w)
    expected = _defined_witnesses(ctx, w, w)["xmonotony"]
    assert CHECKS["xmonotony"].verdict(Rule.LEXI, ctx.universe, context=ctx).witness == expected


@pytest.mark.parametrize("seed", range(4))
def test_pairwise_checks_find_their_witness_past_the_first_row_block(seed):
    # 9 arguments give 512 profiles, two 256-row blocks.  Every profile below
    # 256 is indifferent to the empty one and comparable to every profile, so
    # each check's first violation lies in the second block; argument 8 is a
    # pro, so nontriviality reads a cell in that block too.
    rng = np.random.default_rng(seed)
    size, low = 512, slice(0, 256)
    ctx = _context(size, int(rng.integers(1, 256)))
    pos, neg = ctx.space.pos_mask, ctx.space.neg_mask
    assert pos >= 256
    w = rng.integers(2, size=(size, size), dtype=bool)
    w[low, 0] = w[0, low] = True
    w[low] |= ~w[:, low].T
    w[pos, neg], w[neg, pos] = True, bool(seed % 2)
    ctx._relations[Rule.LEXI] = RelationSet(w)
    strict = w & ~w.T
    a, b = np.ix_(np.arange(size), np.arange(size))
    within = (b & ~a) == 0
    grids = {
        "posefficiency": within & strict[a ^ b, 0] & ~strict[a, b],
        "negefficiency": within & strict[0, a ^ b] & ~strict[b, a],
        "completeness": ~w & ~w.T,
    }
    for name, grid in grids.items():
        first = np.argwhere(grid)[0]
        assert first[0] >= 256, name
        found = CHECKS[name].verdict(Rule.LEXI, ctx.universe, context=ctx).witness
        assert found == _witness(ctx, *first), name
    found = CHECKS["nontriviality"].verdict(Rule.LEXI, ctx.universe, context=ctx).witness
    assert found == (None if strict[pos, neg] else _witness(ctx, pos, neg))


@pytest.mark.parametrize("positive", [True, False])
def test_efficiency_witness_in_a_later_column_tile(positive):
    # 10 arguments.  {x0} ≻ ∅ and A ≻ A ∖ {x0} for every odd A below 513,
    # all else tied (transposed for the negative check).  So the 256 pairs
    # with surplus {x0} below A = 513 all hold, and the first witness is
    # (513, 512): the top argument lies in B, and B is the last proper
    # submask of A.  A check that reads B only low in A's submasks, or that
    # names a later failing pair, misses it.
    size = 1024
    ctx = _context(size)
    w = np.ones((size, size), dtype=bool)
    odd = np.arange(1, 513, 2)
    w[0, 1] = False
    w[odd - 1, odd] = False
    if not positive:
        w = np.ascontiguousarray(w.T)
    ctx._relations[Rule.LEXI] = RelationSet(w)
    strict = w & ~w.T
    a, b = np.ix_(np.arange(size), np.arange(size))
    grid = ((b & ~a) == 0) & (
        strict[a ^ b, 0] & ~strict[a, b] if positive else strict[0, a ^ b] & ~strict[b, a]
    )
    assert np.argwhere(grid)[0].tolist() == [513, 512]
    name = "posefficiency" if positive else "negefficiency"
    found = CHECKS[name].verdict(Rule.LEXI, ctx.universe, context=ctx).witness
    assert found == _witness(ctx, 513, 512)


# ---------------------------------------------------------------------------
# The bundles past the exhaustive bounds, sampled through the replays
# ---------------------------------------------------------------------------
# A replay returns True exactly on a violating instance, at any instance (the
# definition tests above hold it to that), so a drawn instance shaped like a
# check's witness tests the check's axiom at any size.  The draws come from a
# seeded ``random.Random``, not from Hypothesis, so that which rules are
# caught cannot change with Hypothesis's example stream.

def _sampled_universe(rng):
    """13 to 40 arguments on 3 to 12 levels, about one in ten on the null level."""
    levels = rng.randint(3, 12)
    scale = ImportanceScale(tuple(f"l{i}" for i in range(levels)))
    args = tuple(
        Argument(f"x{k}", rng.choice((Polarity.PRO, Polarity.CON)),
                 0 if rng.random() < 0.1 else rng.randint(1, levels - 1))
        for k in range(rng.randint(13, 40))
    )
    return DecisionUniverse(scale, args)


def _sampled_sets(rng, k, names):
    """``k`` random subsets of ``names``, each of density 0.05, 0.15 or 0.5."""
    out = []
    for _ in range(k):
        density = rng.choice((0.05, 0.15, 0.5))
        out.append(frozenset(name for name in names if rng.random() < density))
    return out


def _sampled_instance(rng, u, check):
    """An instance shaped like ``check``'s witness, drawn to meet its replay's
    guards (sides, disjointness, distinct arguments), or None if ``u`` has none."""
    names = [a.name for a in u.arguments]
    if check in ("posmonotony", "negmonotony"):
        side = sorted(u.pros if check == "posmonotony" else u.cons)
        return Witness((*_sampled_sets(rng, 2, names), *_sampled_sets(rng, 2, side)))
    if check in ("gneg", "gclo"):
        a, b, c, d = _sampled_sets(rng, 4, names)
        # Half the draws take a shape the exhaustive sweeps' witnesses take,
        # C = B and D = B ∖ A; fully random quadruples seldom break a rule.
        return Witness((a, b, b, b - a) if rng.random() < 0.5 else (a, b, c, d))
    if check == "simplegrounding":
        note = rng.choice(("ground", "xmonotony", "posc", "negc"))
        inner = Witness() if note == "ground" else _sampled_instance(rng, u, note)
        return None if inner is None else Witness(inner.profiles, inner.args, note)
    if check == "xmonotony":
        x, xp = rng.sample(names, 2)
        a, b = _sampled_sets(rng, 2, names)
        return Witness((a - {x, xp}, b), (x, xp))
    if check in ("posc", "negc"):
        same, other = (u.pros, u.cons) if check == "posc" else (u.cons, u.pros)
        if len(same) < 2 or not other:
            return None
        return Witness(args=(*rng.sample(sorted(same), 2), rng.choice(sorted(other))))
    if check == "ca":
        return Witness(args=(rng.choice(names),))
    if check == "sqc":
        return Witness(tuple(_sampled_sets(rng, 2, names)), (rng.choice(names),))
    if check == "unbiased_ground":
        return Witness(args=tuple(rng.sample([*names, EMPTY_LABEL], 2)))
    if check == "swap_indifferent_singletons":
        x, y = rng.sample(names, 2)
        a, b = _sampled_sets(rng, 2, names)
        return Witness((a - {x}, b - {y}), (x, y))
    if check in ("prefindependence", "add_indifferent_set", "swap_indifferent_sets"):
        shift = _sampled_sets(rng, 2 if check == "swap_indifferent_sets" else 1, names)
        out = frozenset().union(*shift)
        a, b = _sampled_sets(rng, 2, [n for n in names if n not in out])
        if check == "add_indifferent_set":
            b |= _sampled_sets(rng, 1, sorted(out))[0]  # only A must avoid C
        return Witness((a, b, *shift))
    # reflexive, the transitivity family and the plain pairwise checks: sets only.
    k = {"reflexive": 1, "quasitransitivity": 3, "transitivity": 3}.get(check, 2)
    return Witness(tuple(_sampled_sets(rng, k, names)))


@pytest.mark.parametrize("bundle, extra", [(theorem1_bundle, ()), (theorem2_bundle, COROLLARIES)],
                         ids=["theorem1", "theorem2+corollaries"])
def test_sampled_bundles_single_out_their_rule_past_the_bounds(bundle, extra):
    # The designated rule replays no violation, of its bundle or of ``extra``
    # (the exchange corollaries, for lexi); every other rule replays a violation
    # of the bundle somewhere, as ``sweep_bundle`` judges the exhaustive case.
    rng = random.Random(1)
    uncaught = set(Rule) - {bundle.designated}
    violations = []
    for _ in range(60):
        u = _sampled_universe(rng)
        for check in bundle.checks + extra:
            rules = [rule for rule in Rule if rule is bundle.designated
                     or (rule in uncaught and check in bundle.checks)]
            for _ in range(12):
                witness = _sampled_instance(rng, u, check)
                if witness is None:
                    continue
                for rule in rules:
                    if CHECKS[check].replay(rule, u, witness):
                        if rule is bundle.designated:
                            violations.append((check, u, witness))
                        uncaught.discard(rule)
    assert violations == []
    assert uncaught == set()
