"""Numeric encodings of the cardinality rules, and the cue-scanning bridge.

The two levelwise tallying rules admit an exact sum encoding: give every
argument at level ``i`` the integer weight ``B**i`` with a base so large
that the count at one level can never be outweighed by anything happening
below it.  Summing weights per polarity yields two capacities; their
difference is a signed score (the *net predisposition*) whose comparison
reproduces the signed-count rule exactly, while a levelwise reading of the
same capacities reproduces the two-ledger rule.

The module also hosts the cue-scanning procedure for linearly ranked
binary cues ("take the best"): complete every option with the polar
opposite of each cue it lacks, then scan cues from the most important
down and stop at the first one that separates the options.  On such
instances the three cancellation-based rules all coincide with the scan.
"""

from __future__ import annotations

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

def default_base(universe: DecisionUniverse) -> int:
    """Weight base guaranteeing that the top differing level always decides.

    Signed per-level count differences between two options are bounded by
    twice the universe size, so ``2*|X| + 1`` leaves the leading digit of
    any weight sum untouched by all lower digits combined.
    """
    return 2 * len(universe.arguments) + 1


@dataclass(frozen=True)
class BigSteppedCapacity:
    """Integer capacity with geometrically exploding per-level weights.

    Level ``i`` of the scale weighs ``base**i`` (the null level weighs
    nothing), so the value of a set is a base-``base`` numeral whose
    digits are the per-level cardinalities.  Zero on the empty set and
    monotone under inclusion, as a capacity must be.  Values are plain
    Python integers: no overflow, whatever the scale.
    """

    universe: DecisionUniverse
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise CapacityBaseError("capacity base must be at least 2")

    @classmethod
    def for_universe(cls, universe: DecisionUniverse, base: int | None = None):
        return cls(universe, default_base(universe) if base is None else base)

    def weight(self, level: int) -> int:
        return 0 if level == 0 else self.base ** level

    def of(self, names: Iterable[str]) -> int:
        return sum(self.weight(self.universe.level_of(n)) for n in names)


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
    cap = BigSteppedCapacity.for_universe(option.universe, base)
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


def balanced_digits(value: int, base: int) -> list[int]:
    """Balanced base-``base`` digits of an integer, least significant first.

    Digits lie in ``[-(base//2), base//2]``; the expansion is unique, so a
    difference of capacity values decodes exactly into the per-level count
    differences it was built from.
    """
    digits: list[int] = []
    v = value
    while v:
        r = v % base
        if r > base // 2:
            r -= base
        digits.append(r)
        v = (v - r) // base
    return digits


def _leading(value: int, base: int) -> tuple[int, int]:
    """(level, sign) of the most significant balanced digit; (0, 0) for zero."""
    digits = balanced_digits(value, base)
    if not digits:
        return 0, 0
    level = len(digits) - 1
    return level, (1 if digits[-1] > 0 else -1)


def _capacity_bilexi_weak(dpos: int, dneg: int, base: int) -> tuple[bool, bool]:
    """Both weak directions of the two-ledger comparison, from capacity differences.

    ``dpos``/``dneg`` are the positive- and negative-capacity differences
    between the two options.  Their leading balanced digits sit exactly at
    the highest level where the corresponding section cardinalities
    differ, so the levelwise verdict can be reconstructed from the two
    integers alone.
    """
    lp, sp = _leading(dpos, base)
    ln, sn = _leading(dneg, base)
    top = max(lp, ln)
    sp = sp if lp == top else 0
    sn = sn if ln == top else 0
    return (sp >= 0 and sn <= 0), (sp <= 0 and sn >= 0)


def compare_bilexi_np(a: OptionProfile, b: OptionProfile, base: int | None = None) -> Outcome:
    """Capacity route to the two-ledger levelwise comparison.

    Evaluates the positive and negative capacities of both options and
    compares them level-lexicographically: the leading differing level is
    recovered from the capacity differences, and the pro/con verdicts at
    that level are paired off componentwise.  Agrees with
    :func:`proscons.rules.compare_bilexi` on every pair.

    A plain componentwise comparison of the two capacity totals would be
    wrong: the pro ledger and the con ledger may first differ at different
    levels, and only the higher of the two may speak.
    """
    require_same_universe(a, b)
    cap = BigSteppedCapacity.for_universe(a.universe, base)
    dpos = cap.of(a.pos) - cap.of(b.pos)
    dneg = cap.of(a.neg) - cap.of(b.neg)
    first, second = _capacity_bilexi_weak(dpos, dneg, cap.base)
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
