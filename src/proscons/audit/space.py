"""Exhaustive enumeration machinery: profiles as bitmasks, universe sweeps.

Subset ``m`` of a universe (``0 <= m < 2**n``) contains argument ``i``
iff bit ``i`` of ``m`` is set, with arguments in declaration order.  That
makes the subset index double as the array index, so per-profile
statistics and whole relation matrices stay vectorised.  A space keeps its
masks in one table: the statistics come from its bit table, and submasks
are selected from it, not walked.  Levels count only by their order: a space
reads each argument's index among the occupied levels (``DecisionUniverse.ranks``),
its count columns and ``omp``/``omn`` hold ranks, and no array follows the
scale's length.  Only a ``--generate`` scale, built eagerly, does: ``LEVEL_BOUND``
= 2^15 bounds it, and a file's scale too, as a check on outside input.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from ..core import (
    Argument,
    DecisionUniverse,
    ImportanceScale,
    OptionProfile,
    Polarity,
    ProblemError,
)

PAIRWISE_BOUND = 12   # profile enumeration guard for checks over pairs
TUPLE_BOUND = 6       # guard for checks quantifying over three or four subsets
LEVEL_BOUND = 1 << 15  # scale length guard: each --generate scale is built eagerly


class UniverseTooLargeError(ProblemError):
    """The universe exceeds the enumeration bound for the requested check."""


def guard_size(universe: DecisionUniverse, bound: int) -> None:
    n = len(universe.arguments)
    if n > bound:
        raise UniverseTooLargeError(
            f"universe has {n} arguments, enumeration bound is {bound}"
        )
    if len(universe.scale) > LEVEL_BOUND:
        raise UniverseTooLargeError(f"scale has {len(universe.scale)} levels, "
                                    f"level bound is {LEVEL_BOUND}")


class ProfileSpace:
    """Bitmask-indexed view of every option profile over one universe."""

    def __init__(self, universe: DecisionUniverse):
        self.universe = universe
        args = universe.arguments
        self.names = tuple(a.name for a in args)
        self.n = len(args)
        self.size = 1 << self.n
        rank = np.array([universe.ranks[a.name] for a in args], dtype=np.int8)
        is_pro = np.array([a.name in universe.pros for a in args], dtype=bool)
        is_con = np.array([a.name in universe.cons for a in args], dtype=bool)

        bits = 1 << np.arange(self.n, dtype=np.int64)
        self.pos_mask = int(bits[is_pro].sum())
        self.neg_mask = int(bits[is_con].sum())
        self.full_mask = self.size - 1
        self.masks = np.arange(self.size, dtype=np.int64)

        # Per-subset stats from the bit table: held[m, i] is bit i of mask m.
        held = (self.masks[:, None] >> np.arange(self.n) & 1).astype(bool)
        at_rank = (rank[:, None] == np.arange(len(universe.occupied))).astype(np.int16)
        self.pos_counts = (held & is_pro).astype(np.int16) @ at_rank
        self.neg_counts = (held & is_con).astype(np.int16) @ at_rank
        self.omp = np.where(held & is_pro, rank, 0).max(axis=1, initial=0)
        self.omn = np.where(held & is_con, rank, 0).max(axis=1, initial=0)

    # -- conversions -----------------------------------------------------

    def members(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.names[i] for i in range(self.n) if mask >> i & 1
        )

    def profile(self, mask: int) -> OptionProfile:
        return self.universe.option(self.members(mask))

    # -- submask helpers ---------------------------------------------------

    def submasks(self, mask: int) -> np.ndarray:
        """All submasks of ``mask`` in increasing numeric order."""
        return self.masks[(self.masks & ~mask) == 0]


def enumerate_profiles(universe: DecisionUniverse) -> list[OptionProfile]:
    """Every subset of the universe as a profile, in deterministic bitmask order,
    for a universe within ``PAIRWISE_BOUND`` arguments."""
    guard_size(universe, PAIRWISE_BOUND)
    space = ProfileSpace(universe)
    return [space.profile(m) for m in range(space.size)]


# ---------------------------------------------------------------------------
# Universe sweeps
# ---------------------------------------------------------------------------

def generated_scale(num_levels: int) -> ImportanceScale:
    """The scale ``l0, l1, ...`` that every generated universe sits on."""
    return ImportanceScale(tuple(f"l{i}" for i in range(num_levels)))


def iter_universes(max_args: int, num_levels: int) -> Iterator[DecisionUniverse]:
    """All valid universes up to the given size, deduplicated up to renaming.

    A universe is determined, up to renaming its arguments, by how many
    arguments sit in each (polarity, level) class; null-level arguments
    form a single class since their declared polarity is ignored.
    Universes whose arguments are all null are skipped (they are trivial
    and rejected by validation).  A sweep (``reports.sweep_range``) takes
    only the gap-free subsequence, whose occupied levels are 0..k.
    """
    if num_levels < 2:
        raise ValueError("need at least two levels (null plus one)")
    scale = generated_scale(num_levels)

    classes: list[tuple[str, Polarity, int]] = [("z0", Polarity.PRO, 0)]
    for level in range(1, num_levels):
        classes.append((f"p{level}", Polarity.PRO, level))
    for level in range(1, num_levels):
        classes.append((f"n{level}", Polarity.CON, level))

    for n in range(1, max_args + 1):
        for combo in combinations_with_replacement(range(len(classes)), n):
            if all(classes[idx][2] == 0 for idx in combo):
                continue  # trivial universe
            counts = [0] * len(classes)
            for idx in combo:
                counts[idx] += 1
            args = []
            for idx, count in enumerate(counts):
                prefix, polarity, level = classes[idx]
                for k in range(count):
                    args.append(Argument(f"{prefix}{chr(97 + k)}", polarity, level))
            yield DecisionUniverse(scale, tuple(args))
