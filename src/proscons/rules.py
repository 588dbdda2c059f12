"""The six pairwise comparison rules over pro/con option profiles.

Every rule evaluates a weak-preference test in both directions and folds
the two booleans into a four-valued :class:`~proscons.core.Outcome`.  The
rules split into two families:

* order-of-magnitude rules (``pareto``, ``biposs``, ``impl``) look only at
  the top importance level on each side, so a shared strong argument
  drowns every weaker difference;
* cardinality rules (``discri``, ``bilexi``, ``lexi``) cancel matching
  material first (common arguments, then equally important arguments of
  the same polarity across options, then equally important opposites
  inside an option) and decide at the highest level where a difference
  survives.

``biposs``, ``discri`` and ``lexi`` are complete; ``impl`` is complete
except when one option is internally conflicted at the top level;
``pareto`` and ``bilexi`` admit genuine incomparability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    DecisionUniverse,
    OptionProfile,
    Outcome,
    require_same_universe,
)


class Rule(Enum):
    """Identifier of one comparison rule; every audit and CLI path is keyed by it."""

    PARETO = "pareto"
    BIPOSS = "biposs"
    IMPL = "impl"
    DISCRI = "discri"
    BILEXI = "bilexi"
    LEXI = "lexi"

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    Rule.PARETO: "Pareto",
    Rule.BIPOSS: "BiPoss",
    Rule.IMPL: "Impl",
    Rule.DISCRI: "Discri",
    Rule.BILEXI: "BiLexi",
    Rule.LEXI: "Lexi",
}


# ---------------------------------------------------------------------------
# Order-of-magnitude rules
# ---------------------------------------------------------------------------

def compare_pareto(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Componentwise dominance of the (top pro, top con) pair.

    The first option is weakly preferred when its best pro is at least as
    important as the other's best pro and its worst con no more important
    than the other's worst con.  Pros and cons never trade off against
    each other, so conflicts surface as incomparability.
    """
    require_same_universe(a, b)
    first = a.om_pos >= b.om_pos and a.om_neg <= b.om_neg
    second = b.om_pos >= a.om_pos and b.om_neg <= a.om_neg
    return Outcome.from_weak(first, second)


def _biposs_weak(ap: int, an: int, bp: int, bn: int) -> bool:
    # a's pros and b's cons both argue for a; the most important argument wins.
    return max(ap, bn) >= max(bp, an)


def compare_biposs(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Single-scale possibilistic comparison.

    Every con of one option counts as a reason for the other; the side
    holding the most important argument overall wins.  Complete, and its
    strict part is transitive, but indifference is not: a shared top-level
    argument drowns all lower levels.
    """
    require_same_universe(a, b)
    return Outcome.from_weak(
        _biposs_weak(a.om_pos, a.om_neg, b.om_pos, b.om_neg),
        _biposs_weak(b.om_pos, b.om_neg, a.om_pos, a.om_neg),
    )


def _impl_weak(ap: int, an: int, bp: int, bn: int) -> bool:
    # At the top level of the joint argument pool, pros for the second
    # option must be answered by pros for the first, and cons against the
    # first by cons against the second.
    top = max(ap, an, bp, bn)
    return (bp != top or ap == top) and (an != top or bn == top)


def compare_impl(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Existential counterbalancing at the joint top level.

    When both profiles carry no argument of positive importance the two
    conditions hold vacuously in both directions, so empty (or all-null)
    options are mutually indifferent.
    """
    require_same_universe(a, b)
    return Outcome.from_weak(
        _impl_weak(a.om_pos, a.om_neg, b.om_pos, b.om_neg),
        _impl_weak(b.om_pos, b.om_neg, a.om_pos, a.om_neg),
    )


def compare_impl_cases(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Case-split route to the same outcome as :func:`compare_impl`.

    Decides by explicit disjoint cases on the four orders of magnitude:
    indifference when both sides tie on the polarity that owns the top
    level, incomparability exactly when one option is internally
    conflicted at the top while the other's arguments are all weaker,
    strictness otherwise.  Kept as an independent route; the audit suite
    asserts it agrees with the definitional route everywhere.
    """
    require_same_universe(a, b)
    ap, an = a.om_pos, a.om_neg
    bp, bn = b.om_pos, b.om_neg
    if (
        ap == bp == an == bn
        or (ap == bp and ap > max(an, bn))
        or (an == bn and an > max(ap, bp))
    ):
        return Outcome.INDIFFERENT
    if max(ap, bn) > max(an, bp) or (ap == an == bn and bn > bp) or (bp == bn == ap and ap > an):
        return Outcome.PREFER_FIRST
    if max(bp, an) > max(bn, ap) or (bp == bn == an and an > ap) or (ap == an == bp and bp > bn):
        return Outcome.PREFER_SECOND
    return Outcome.INCOMPARABLE


# ---------------------------------------------------------------------------
# Cardinality rules
# ---------------------------------------------------------------------------

def compare_discri(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Possibilistic comparison after cancelling shared arguments.

    Arguments present in both options cannot make a difference, so they
    are removed before the single-scale comparison runs.  Complete and
    quasi-transitive.
    """
    require_same_universe(a, b)
    return compare_biposs(a.difference(b), b.difference(a))


def compare_bilexi(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Levelwise tallying of pros and cons, kept on separate ledgers.

    Scan levels from the top down to the first level where the pro counts
    or the con counts differ; there, the option with at least as many pros
    and at most as many cons wins.  If each option wins one ledger the
    conflict is reported as incomparability; if no level differs the
    options are indifferent.
    """
    require_same_universe(a, b)
    apos, aneg = a.pos_level_counts, a.neg_level_counts
    bpos, bneg = b.pos_level_counts, b.neg_level_counts
    for level in range(len(a.universe.scale) - 1, 0, -1):
        if apos[level] != bpos[level] or aneg[level] != bneg[level]:
            first = apos[level] >= bpos[level] and aneg[level] <= bneg[level]
            second = bpos[level] >= apos[level] and bneg[level] <= aneg[level]
            return Outcome.from_weak(first, second)
    return Outcome.INDIFFERENT


def compare_lexi(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Levelwise tallying with pros cancelling cons of equal importance.

    Each level contributes a single signed count (pros minus cons); the
    first level from the top where the signed counts differ decides
    strictly.  Complete and transitive: ties require identical signed
    counts at every level above the null one.
    """
    require_same_universe(a, b)
    apos, aneg = a.pos_level_counts, a.neg_level_counts
    bpos, bneg = b.pos_level_counts, b.neg_level_counts
    for level in range(len(a.universe.scale) - 1, 0, -1):
        da = apos[level] - aneg[level]
        db = bpos[level] - bneg[level]
        if da != db:
            return Outcome.PREFER_FIRST if da > db else Outcome.PREFER_SECOND
    return Outcome.INDIFFERENT


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

COMPARATORS = {
    Rule.PARETO: compare_pareto,
    Rule.BIPOSS: compare_biposs,
    Rule.IMPL: compare_impl,
    Rule.DISCRI: compare_discri,
    Rule.BILEXI: compare_bilexi,
    Rule.LEXI: compare_lexi,
}


def compare(rule: Rule, a: OptionProfile, b: OptionProfile) -> Outcome:
    """Compare two profiles under the given rule."""
    return COMPARATORS[rule](a, b)


# ---------------------------------------------------------------------------
# Ground relation
# ---------------------------------------------------------------------------

EMPTY_LABEL = "0"


@dataclass(frozen=True)
class GroundReport:
    """How a rule ranks individual arguments against each other and the empty set.

    ``items`` lists the argument names plus the ``0`` placeholder for the
    empty set; ``outcomes[i][j]`` compares the singleton (or empty) profile
    of item ``i`` against item ``j``.  ``classes`` groups the items into
    indifference classes, best first, when the relation is a weak order.
    """

    rule: Rule
    items: tuple[str, ...]
    outcomes: tuple[tuple[Outcome, ...], ...]
    is_weak_order: bool
    classes: tuple[tuple[str, ...], ...] | None

    def outcome(self, first: str, second: str) -> Outcome:
        return self.outcomes[self.items.index(first)][self.items.index(second)]


def ground_relation(rule: Rule, universe: DecisionUniverse) -> GroundReport:
    """Restrict a rule to singletons and the empty set and report the ordering."""
    items = tuple(a.name for a in universe.arguments) + (EMPTY_LABEL,)
    profiles = [universe.option({a.name}) for a in universe.arguments]
    profiles.append(universe.empty)

    n = len(items)
    outcomes = tuple(
        tuple(compare(rule, profiles[i], profiles[j]) for j in range(n))
        for i in range(n)
    )

    complete = all(
        outcomes[i][j] is not Outcome.INCOMPARABLE
        for i in range(n)
        for j in range(n)
    )
    weak = [[outcomes[i][j].first_weak for j in range(n)] for i in range(n)]
    transitive = all(
        not (weak[i][j] and weak[j][k]) or weak[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    is_weak_order = complete and transitive

    classes = None
    if is_weak_order:
        # In a weak order, items sort by how many others they strictly beat.
        score = {
            i: sum(
                1 for j in range(n)
                if outcomes[i][j] is Outcome.PREFER_FIRST
            )
            for i in range(n)
        }
        grouped: dict[int, list[str]] = {}
        for i in range(n):
            grouped.setdefault(score[i], []).append(items[i])
        classes = tuple(
            tuple(grouped[s]) for s in sorted(grouped, reverse=True)
        )
    return GroundReport(rule, items, outcomes, is_weak_order, classes)
