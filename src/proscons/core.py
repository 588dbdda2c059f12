"""Core domain model for ordinal pro/con decision problems.

An option is described by the set of arguments that apply to it.  Every
argument carries a polarity (a reason for, or a reason against) and an
importance level on a finite, totally ordered scale whose bottom element
means "no importance at all".  The comparison rules consult nothing else;
in particular they use no numeric utilities.

All values here are immutable after construction and every operation is a
pure function of its inputs, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ProblemError(Exception):
    """Base class for every error raised by this package."""


class DuplicateNameError(ProblemError):
    """Two arguments share a name inside one universe."""


class TrivialUniverseError(ProblemError):
    """Every argument sits at the null importance level."""


class UnknownLevelError(ProblemError):
    """A level index or label that is not part of the scale."""


class UnknownArgumentError(ProblemError):
    """An option references an argument the universe does not declare."""


class UniverseMismatchError(ProblemError):
    """Two profiles from different universes were compared."""


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

SUPERSCRIPT_PRO = "⁺"   # ⁺
SUPERSCRIPT_CON = "⁻"   # ⁻

_SUPERSCRIPTS = {SUPERSCRIPT_PRO: "p", SUPERSCRIPT_CON: "n"}


def ascii_name(name: str) -> str:
    """ASCII rendering of a decorated argument name.

    Superscript polarity marks are stripped and re-appended as a single
    ``_p``/``_n`` run, e.g. ``landscape⁺⁺`` becomes ``landscape_pp``.
    Undecorated names pass through unchanged.
    """
    marks = [c for c in name if c in _SUPERSCRIPTS]
    if not marks:
        return name
    base = "".join(c for c in name if c not in _SUPERSCRIPTS)
    return base + "_" + "".join(_SUPERSCRIPTS[c] for c in marks)


# ---------------------------------------------------------------------------
# Outcome of a pairwise comparison
# ---------------------------------------------------------------------------

class Outcome(Enum):
    """Four-valued result of comparing two options.

    Indifference means both options are weakly preferred to each other;
    incomparability means neither is.  The two are deliberately distinct:
    a coin flip settles indifference, while incomparability signals a
    conflict no coin flip resolves.
    """

    PREFER_FIRST = "PreferFirst"
    PREFER_SECOND = "PreferSecond"
    INDIFFERENT = "Indifferent"
    INCOMPARABLE = "Incomparable"

    @staticmethod
    def from_weak(first_weak: bool, second_weak: bool) -> "Outcome":
        """Combine the two directions of a weak-preference test."""
        if first_weak and second_weak:
            return Outcome.INDIFFERENT
        if first_weak:
            return Outcome.PREFER_FIRST
        if second_weak:
            return Outcome.PREFER_SECOND
        return Outcome.INCOMPARABLE

    def mirror(self) -> "Outcome":
        """The outcome of the same comparison with the operands swapped."""
        if self is Outcome.PREFER_FIRST:
            return Outcome.PREFER_SECOND
        if self is Outcome.PREFER_SECOND:
            return Outcome.PREFER_FIRST
        return self

    @property
    def first_weak(self) -> bool:
        return self in (Outcome.PREFER_FIRST, Outcome.INDIFFERENT)


# ---------------------------------------------------------------------------
# Scale, arguments, universe
# ---------------------------------------------------------------------------

class Polarity(Enum):
    PRO = "pro"
    CON = "con"


@dataclass(frozen=True)
class ImportanceScale:
    """Finite, totally ordered importance scale.

    ``levels[0]`` is the null level (no importance at all) and the last
    entry is the top of the scale.  Labels are opaque; only the index
    order carries meaning.
    """

    levels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise UnknownLevelError("need at least two levels (the null level plus one)")
        if len(self.positions) != len(self.levels):
            raise UnknownLevelError("level labels must be distinct")

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Index of every label, so a lookup costs the same on any scale length."""
        return {label: i for i, label in enumerate(self.levels)}

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise UnknownLevelError(f"unknown level label {label!r}") from None

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.levels):
            raise UnknownLevelError(f"level index {index} outside the scale")
        return self.levels[index]


@dataclass(frozen=True)
class Argument:
    """A named criterion with a polarity and an importance level index.

    An argument at the null level is inert no matter which polarity it
    declares: it belongs to the null class of the universe.
    """

    name: str
    polarity: Polarity
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise UnknownLevelError(f"negative level for argument {self.name!r}")

    @property
    def is_null(self) -> bool:
        return self.level == 0


BOTH = "both"


@dataclass(frozen=True)
class ArgumentDecl:
    """Raw argument declaration as found in a problem document.

    ``polarity`` is one of ``"pro"``, ``"con"`` or ``"both"``; two-sided
    declarations are split before a universe is built.
    """

    name: str
    polarity: str
    level: int


def duplicate_both_polarity(decl: ArgumentDecl) -> tuple[Argument, ...]:
    """Expand a declaration into concrete arguments.

    A two-sided declaration splits into a pro and a con of equal importance,
    with the polarity mark appended to the name; one-sided declarations pass
    through untouched.
    """
    if decl.polarity == BOTH:
        return (
            Argument(decl.name + SUPERSCRIPT_PRO, Polarity.PRO, decl.level),
            Argument(decl.name + SUPERSCRIPT_CON, Polarity.CON, decl.level),
        )
    return (Argument(decl.name, Polarity(decl.polarity), decl.level),)


class _Levels(dict):
    def __missing__(self, name):
        raise UnknownArgumentError(f"unknown argument {name!r}")


@dataclass(frozen=True)
class DecisionUniverse:
    """The full argument set with its scale.

    Splits into pros, cons and null arguments; names are unique.  A
    universe whose arguments are all null is *trivial*: single
    comparisons on it remain well defined, but audits refuse it.
    """

    scale: ImportanceScale
    arguments: tuple[Argument, ...]

    def __post_init__(self):
        object.__setattr__(self, "arguments", tuple(self.arguments))
        seen = set()
        for arg in self.arguments:
            if arg.name in seen:
                raise DuplicateNameError(f"duplicate argument name {arg.name!r}")
            seen.add(arg.name)
            if arg.level > self.scale.top:
                raise UnknownLevelError(
                    f"argument {arg.name!r} has level {arg.level}, "
                    f"scale tops out at {self.scale.top}"
                )

    @cached_property
    def by_name(self) -> Mapping[str, Argument]:
        return {a.name: a for a in self.arguments}

    @cached_property
    def levels(self) -> Mapping[str, int]:
        """Importance level of every argument, by name; unknown names raise."""
        return _Levels((a.name, a.level) for a in self.arguments)

    @cached_property
    def occupied(self) -> tuple[int, ...]:
        """The levels some argument occupies, ascending, with the null level 0 always first."""
        return tuple(sorted({0, *(a.level for a in self.arguments)}))

    @cached_property
    def ranks(self) -> Mapping[str, int]:
        """Every argument's index in ``occupied``, by name: rules read levels by order only."""
        rank = {level: r for r, level in enumerate(self.occupied)}
        return {a.name: rank[a.level] for a in self.arguments}

    @cached_property
    def bits(self) -> Mapping[str, int]:
        """One bit per argument, in ascending level order: a mask's top bit holds its top level."""
        ranked = sorted(self.arguments, key=lambda a: a.level)
        return {a.name: 1 << k for k, a in enumerate(ranked)}

    @cached_property
    def bit_levels(self) -> tuple[int, ...]:
        """Entry k is bit k - 1's level, entry 0 is 0: ``bit_levels[m.bit_length()]`` is m's top."""
        return (0, *sorted(a.level for a in self.arguments))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Default-base weights by rank: 0 for null, then ``B**level`` per occupied level."""
        return (0, *map(default_base(self).__pow__, self.occupied[1:]))

    @cached_property
    def pros(self) -> frozenset[str]:
        """Names of arguments that count as reasons for (positive level)."""
        return frozenset(
            a.name for a in self.arguments
            if a.polarity is Polarity.PRO and not a.is_null
        )

    @cached_property
    def cons(self) -> frozenset[str]:
        """Names of arguments that count as reasons against (positive level)."""
        return frozenset(
            a.name for a in self.arguments
            if a.polarity is Polarity.CON and not a.is_null
        )

    @cached_property
    def nulls(self) -> frozenset[str]:
        """Names of null-importance arguments, whatever their declared polarity."""
        return frozenset(a.name for a in self.arguments if a.is_null)

    @property
    def is_trivial(self) -> bool:
        return not self.pros and not self.cons

    def level_of(self, name: str) -> int:
        return self.levels[name]

    def option(self, members: Iterable[str]) -> "OptionProfile":
        return OptionProfile(self, frozenset(members))

    @property
    def empty(self) -> "OptionProfile":
        return OptionProfile(self, frozenset())


def om(universe: DecisionUniverse, names: Iterable[str]) -> int:
    """Order of magnitude of a set of arguments.

    The top importance level present in the set; the null level for the
    empty set.  This is a possibility measure: maxitive over unions and
    monotone under inclusion.
    """
    return max(map(universe.levels.__getitem__, names), default=0)


def default_base(universe: DecisionUniverse) -> int:
    """Weight base guaranteeing that the top differing level always decides.

    Per-level count differences between two options are at most |X| (floored
    at 1: no arguments gives base 3), so ``2*|X| + 1`` keeps the leading level
    of any difference of weight sums clear of all lower levels combined.
    """
    return 2 * max(len(universe.arguments), 1) + 1


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


def validate_universe(universe: DecisionUniverse) -> ValidationReport:
    """Check that at least one argument is not null.

    Names need no check: a ``DecisionUniverse`` refuses duplicates when it
    is built.
    """
    violations: list[Violation] = []
    if universe.is_trivial:
        violations.append(
            Violation(
                "TrivialUniverse",
                "every argument has null importance; comparisons degenerate",
            )
        )
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# Option profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptionProfile:
    """A subset of the universe's arguments describing one option."""

    universe: DecisionUniverse
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        unknown = self.members - self.universe.by_name.keys()
        if unknown:
            raise UnknownArgumentError(
                f"option references unknown arguments: {sorted(unknown)}"
            )

    # -- polarity split ------------------------------------------------

    @cached_property
    def pos(self) -> frozenset[str]:
        return self.members & self.universe.pros

    @cached_property
    def neg(self) -> frozenset[str]:
        return self.members & self.universe.cons

    # -- orders of magnitude --------------------------------------------

    @cached_property
    def om_pos(self) -> int:
        return om(self.universe, self.pos)

    @cached_property
    def om_neg(self) -> int:
        return om(self.universe, self.neg)

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(pro mask, con mask): the ``universe.bits`` of the pros and of the cons."""
        bit = self.universe.bits.__getitem__
        return sum(map(bit, self.pos)), sum(map(bit, self.neg))

    @cached_property
    def capacities(self) -> tuple[int, int]:
        """(σ+, σ−): the capacities of the pros and of the cons under the default base."""
        weigh, ranks = self.universe.weights.__getitem__, self.universe.ranks.__getitem__
        return sum(map(weigh, map(ranks, self.pos))), sum(map(weigh, map(ranks, self.neg)))

    # -- per-level sections ----------------------------------------------

    @cached_property
    def pos_level_counts(self) -> tuple[int, ...]:
        """Pros per occupied level, indexed by rank (``universe.ranks``)."""
        counts = [0] * len(self.universe.occupied)
        for name in self.pos:
            counts[self.universe.ranks[name]] += 1
        return tuple(counts)

    @cached_property
    def neg_level_counts(self) -> tuple[int, ...]:
        """Cons per occupied level, indexed by rank (``universe.ranks``)."""
        counts = [0] * len(self.universe.occupied)
        for name in self.neg:
            counts[self.universe.ranks[name]] += 1
        return tuple(counts)

    def section(self, level: int) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """Members sitting exactly at ``level``, then their pro and con parts.

        Sections over the levels above the null one partition the option's
        non-null members; the null-level section holds only inert arguments.
        """
        if not 0 <= level < len(self.universe.scale):
            raise UnknownLevelError(f"level index {level} outside the scale")
        at = frozenset(
            n for n in self.members if self.universe.level_of(n) == level
        )
        return at, at & self.universe.pros, at & self.universe.cons

    # -- set algebra -----------------------------------------------------

    def difference(self, other: "OptionProfile") -> "OptionProfile":
        require_same_universe(self, other)
        return OptionProfile(self.universe, self.members - other.members)

    def union(self, other: "OptionProfile") -> "OptionProfile":
        require_same_universe(self, other)
        return OptionProfile(self.universe, self.members | other.members)


def require_same_universe(a: OptionProfile, b: OptionProfile) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError("profiles belong to different universes")
