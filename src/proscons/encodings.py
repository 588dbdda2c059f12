"""Numeric encodings of the cardinality rules, and the cue-scanning bridge.

The two levelwise tallying rules admit an exact sum encoding: give every
argument at level ``i`` the integer weight ``B**i`` with a base so large
that the count at one level can never be outweighed by anything happening
below it.  Summing weights per polarity yields two capacities; their
difference is a signed score (the *net predisposition*) whose comparison
reproduces the signed-count rule exactly, while reading each capacity
difference at its leading level (:func:`leading_level`) reproduces the
two-ledger rule.  Under the default base each option sums its capacities
once (``OptionProfile.capacities``) from ``DecisionUniverse.weights``.

The module also hosts the cue-scanning procedure for linearly ranked
binary cues ("take the best"): complete every option with the polar
opposite of each cue it lacks, then scan cues from the most important
down and stop at the first one that separates the options.  On such
instances the three cancellation-based rules all coincide with the scan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .core import (
    Argument,
    DecisionUniverse,
    ImportanceScale,
    OptionProfile,
    Outcome,
    Polarity,
    ProblemError,
    SUPERSCRIPT_CON,
    default_base,
    require_same_universe,
)


class MixedPolarityError(ProblemError):
    """A capacity was evaluated on a subset mixing pros and cons."""


class NonInjectiveImportanceError(ProblemError):
    """Cue scanning needs pairwise distinct importance levels."""


class CapacityBaseError(ProblemError, ValueError):
    """A capacity base below 2, which cannot separate the levels."""


class CueCompletionError(ProblemError, ValueError):
    """Options that cue completion cannot turn into a cue-scanning instance."""


# ---------------------------------------------------------------------------
# Big-stepped capacities and net predisposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BigSteppedCapacity:
    """Integer capacity with geometrically exploding per-level weights.

    An argument at level ``i`` weighs ``base**i`` (a null one weighs
    nothing), so the value of a set is a base-``base`` numeral whose
    digits are the per-level cardinalities.  Zero on the empty set and
    monotone under inclusion, as a capacity must be.  Values are exact
    Python integers, one power per member, whatever the scale's length.
    """

    universe: DecisionUniverse
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise CapacityBaseError("capacity base must be at least 2")

    @classmethod
    def for_universe(cls, universe: DecisionUniverse, base: int | None = None):
        return cls(universe, default_base(universe) if base is None else base)

    def of(self, names: Iterable[str]) -> int:
        levels = map(self.universe.levels.__getitem__, names)
        return sum(self.base**level for level in levels if level)


def sigma(names: Iterable[str], universe: DecisionUniverse, base: int | None = None) -> int:
    """Capacity value of a pure-polarity subset of arguments.

    Null arguments may tag along (they weigh nothing), but mixing pros and
    cons of positive importance is rejected: the two polarities are
    measured by separate capacities.
    """
    names = frozenset(names)
    if names & universe.pros and names & universe.cons:
        raise MixedPolarityError("subset mixes pros and cons of positive importance")
    return BigSteppedCapacity.for_universe(universe, base).of(names)


def net_predisposition(option: OptionProfile, base: int | None = None) -> int:
    """Signed score of an option: capacity of its pros minus capacity of its cons."""
    if base is None:
        return option.capacities[0] - option.capacities[1]
    cap = BigSteppedCapacity(option.universe, base)
    return cap.of(option.pos) - cap.of(option.neg)


def compare_np(a: OptionProfile, b: OptionProfile, base: int | None = None) -> Outcome:
    """Compare two options by net predisposition.

    With the default base this is an exact numeric encoding of the
    signed-count levelwise rule: the outcomes agree on every pair.
    """
    require_same_universe(a, b)
    npa = net_predisposition(a, base)
    npb = net_predisposition(b, base)
    return Outcome.from_weak(npa >= npb, npb >= npa)


def leading_level(diff: int, weights: tuple[int, ...]) -> int:
    """Index in ``weights`` at which a difference of big-stepped capacities is decided.

    ``weights`` is an ascending table ``(0, B^l1, B^l2, …)``, one power per
    occupied level as :attr:`DecisionUniverse.weights` is, with ``B`` above
    twice every count difference.  If ``D = Σ d_k·weights[k]`` has its top
    nonzero ``d_k`` at index ``k``, then ``weights[k] < 2|D| < B·weights[k]``
    and ``D`` has the sign of ``d_k``: ``k`` is the number of weights above
    the null one below ``2|D|``, zero reads as 0, and ranks compare as levels do.

    Both capacity routes read the two-ledger rule so: a ledger (pro, con)
    speaks when its leading level is at least the other's, and the first
    option is weakly preferred when the speaking pro difference is ``>= 0``
    and the speaking con difference ``<= 0``.
    """
    return bisect_left(weights, 2 * abs(diff), 1) - 1


def compare_bilexi_np(a: OptionProfile, b: OptionProfile) -> Outcome:
    """Capacity route to the two-ledger levelwise comparison.

    Reads the positive and negative capacity differences of the two options
    by the leading-level rule of :func:`leading_level`.  Agrees with
    :func:`proscons.rules.compare_bilexi` on every pair.

    A plain componentwise comparison of the two capacity totals would be
    wrong: the pro ledger and the con ledger may first differ at different
    levels, and only the higher of the two may speak.
    """
    require_same_universe(a, b)
    (apos, aneg), (bpos, bneg) = a.capacities, b.capacities
    dpos, dneg = apos - bpos, aneg - bneg
    lead_pos, lead_neg = (leading_level(d, a.universe.weights) for d in (dpos, dneg))
    first = (lead_pos < lead_neg or dpos >= 0) and (lead_neg < lead_pos or dneg <= 0)
    second = (lead_pos < lead_neg or dpos <= 0) and (lead_neg < lead_pos or dneg >= 0)
    return Outcome.from_weak(first, second)


# ---------------------------------------------------------------------------
# Cue scanning on linearly ranked arguments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TtbInstance:
    """A completed cue-comparison instance.

    ``cues`` are the base argument names ordered by strictly decreasing
    importance; the universe holds, for every cue, the pro and its polar
    opposite con at the same level, and every option features each cue
    exactly once: as the pro if it has the cue, as the con otherwise.
    """

    universe: DecisionUniverse
    options: Mapping[str, OptionProfile]
    cues: tuple[str, ...]

    @cached_property
    def cue_levels(self) -> tuple[int, ...]:
        return tuple(self.universe.level_of(c) for c in self.cues)


def opposite_name(cue: str) -> str:
    return cue + SUPERSCRIPT_CON


def complete_polar_opposites(
    universe: DecisionUniverse,
    options: Mapping[str, Iterable[str]],
) -> TtbInstance:
    """Attach to every option the polar opposite of each cue it lacks.

    The cues are the arguments featured by at least one of the given
    options; they must all be pros with pairwise distinct importance.
    The returned instance lives in a fresh universe holding only the cues
    and their generated opposites.
    """
    named = {name: frozenset(members) for name, members in options.items()}
    involved = sorted(frozenset().union(*named.values()) if named else frozenset())
    if not involved:
        raise CueCompletionError("cue completion needs at least one featured argument")

    for cue in involved:
        if cue not in universe.by_name:
            raise CueCompletionError(f"option references unknown argument {cue!r}")

    levels = [universe.level_of(c) for c in involved]
    if len(set(levels)) != len(levels):
        raise NonInjectiveImportanceError(
            "cue scanning needs pairwise distinct importance levels"
        )

    for cue in involved:
        if universe.by_name[cue].polarity is not Polarity.PRO:
            raise CueCompletionError(
                f"argument {cue!r} never appears as a pro; cue completion "
                "expects options to list the cues they possess"
            )

    cues = tuple(sorted(involved, key=universe.level_of, reverse=True))
    args: list[Argument] = []
    for cue in cues:
        level = universe.level_of(cue)
        args.append(Argument(cue, Polarity.PRO, level))
        args.append(Argument(opposite_name(cue), Polarity.CON, level))
    completed = DecisionUniverse(universe.scale, tuple(args))

    profiles = {}
    for name, members in named.items():
        full = set(members) | {
            opposite_name(cue) for cue in cues if cue not in members
        }
        profiles[name] = completed.option(full)
    return TtbInstance(completed, profiles, cues)


def ttb_compare(instance: TtbInstance, first: str, second: str) -> Outcome:
    """Scan cues from the most important down; the first separating cue decides.

    Cues at the null level are skipped (they are inert under every rule),
    and skipping them keeps the scan aligned with the cancellation rules.
    Never incomparable; identical cue profiles are indifferent.
    """
    a = instance.options[first]
    b = instance.options[second]
    require_same_universe(a, b)
    for cue, level in zip(instance.cues, instance.cue_levels):
        if level == 0:
            continue
        a_has = cue in a.members
        b_has = cue in b.members
        if a_has != b_has:
            return Outcome.PREFER_FIRST if a_has else Outcome.PREFER_SECOND
    return Outcome.INDIFFERENT


def iter_completed_pairs(max_cues: int) -> Iterator[TtbInstance]:
    """Every completed two-option instance with up to ``max_cues`` cues.

    Instances are canonical up to renaming: cue ``c1`` is the most
    important, every importance assignment being order-isomorphic to
    levels ``k..1``.  Options ``a`` and ``b`` range over all subsets of
    the cues, including cues possessed by neither.
    """
    for k in range(1, max_cues + 1):
        scale = ImportanceScale(tuple(f"l{i}" for i in range(k + 1)))
        cues = tuple(f"c{j + 1}" for j in range(k))
        args: list[Argument] = []
        for j, cue in enumerate(cues):
            level = k - j
            args.append(Argument(cue, Polarity.PRO, level))
            args.append(Argument(opposite_name(cue), Polarity.CON, level))
        universe = DecisionUniverse(scale, tuple(args))

        def completed(universe: DecisionUniverse, featured: int) -> OptionProfile:
            members = {
                cues[j] if featured >> j & 1 else opposite_name(cues[j])
                for j in range(k)
            }
            return universe.option(members)

        for sa in range(1 << k):
            for sb in range(1 << k):
                yield TtbInstance(
                    universe,
                    {"a": completed(universe, sa), "b": completed(universe, sb)},
                    cues,
                )
