"""Exhaustive enumeration machinery: profiles as bitmasks, universe sweeps.

Subset ``m`` of a universe (``0 <= m < 2**n``) contains argument ``i``
iff bit ``i`` of ``m`` is set, with arguments in declaration order.  That
makes the subset index double as the array index, so per-profile
statistics and whole relation matrices stay vectorised.
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


class UniverseTooLargeError(ProblemError):
    """The universe exceeds the enumeration bound for the requested check."""


def guard_size(universe: DecisionUniverse, bound: int) -> None:
    n = len(universe.arguments)
    if n > bound:
        raise UniverseTooLargeError(
            f"universe has {n} arguments, enumeration bound is {bound}"
        )


class ProfileSpace:
    """Bitmask-indexed view of every option profile over one universe."""

    def __init__(self, universe: DecisionUniverse):
        self.universe = universe
        args = universe.arguments
        self.names = tuple(a.name for a in args)
        self.n = len(args)
        self.size = 1 << self.n
        num_levels = len(universe.scale)

        level = np.array([a.level for a in args], dtype=np.int16)
        is_pro = np.array(
            [a.polarity is Polarity.PRO and not a.is_null for a in args], dtype=bool
        )
        is_con = np.array(
            [a.polarity is Polarity.CON and not a.is_null for a in args], dtype=bool
        )

        self.pos_mask = _mask_of_flags(is_pro)
        self.neg_mask = _mask_of_flags(is_con)
        self.full_mask = self.size - 1

        # Per-subset stats, filled by peeling off the lowest set bit.
        self.pos_counts = np.zeros((self.size, num_levels), dtype=np.int16)
        self.neg_counts = np.zeros((self.size, num_levels), dtype=np.int16)
        self.omp = np.zeros(self.size, dtype=np.int16)
        self.omn = np.zeros(self.size, dtype=np.int16)
        for m in range(1, self.size):
            low = m & (m - 1)
            i = (m ^ low).bit_length() - 1
            self.pos_counts[m] = self.pos_counts[low]
            self.neg_counts[m] = self.neg_counts[low]
            self.omp[m] = self.omp[low]
            self.omn[m] = self.omn[low]
            if is_pro[i]:
                self.pos_counts[m, level[i]] += 1
                self.omp[m] = max(self.omp[low], level[i])
            elif is_con[i]:
                self.neg_counts[m, level[i]] += 1
                self.omn[m] = max(self.omn[low], level[i])

    # -- conversions -----------------------------------------------------

    def members(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.names[i] for i in range(self.n) if mask >> i & 1
        )

    def profile(self, mask: int) -> OptionProfile:
        return self.universe.option(self.members(mask))

    def arg_bit(self, name: str) -> int:
        return 1 << self.names.index(name)

    # -- submask helpers ---------------------------------------------------

    def submasks(self, mask: int) -> np.ndarray:
        """All submasks of ``mask`` in increasing numeric order."""
        subs = []
        s = 0
        while True:
            subs.append(s)
            if s == mask:
                break
            s = (s - mask) & mask
        return np.array(subs, dtype=np.int64)

    def disjoint_from(self, mask: int) -> np.ndarray:
        """All profiles sharing no argument with ``mask``, increasing order."""
        return self.submasks(self.full_mask & ~mask)


def _mask_of_flags(flags) -> int:
    mask = 0
    for i, f in enumerate(flags):
        if f:
            mask |= 1 << i
    return mask


def enumerate_profiles(
    universe: DecisionUniverse, bound: int = PAIRWISE_BOUND
) -> list[OptionProfile]:
    """Every subset of the universe as a profile, in deterministic bitmask order."""
    guard_size(universe, bound)
    space = ProfileSpace(universe)
    return [space.profile(m) for m in range(space.size)]


# ---------------------------------------------------------------------------
# Universe sweeps
# ---------------------------------------------------------------------------

def iter_universes(
    max_args: int,
    num_levels: int,
    *,
    min_args: int = 1,
) -> Iterator[DecisionUniverse]:
    """All valid universes up to the given size, deduplicated up to renaming.

    A universe is determined, up to renaming its arguments, by how many
    arguments sit in each (polarity, level) class; null-level arguments
    form a single class since their declared polarity is ignored.
    Universes whose arguments are all null are skipped (they are trivial
    and rejected by validation).
    """
    if num_levels < 2:
        raise ValueError("need at least two levels (null plus one)")
    scale = ImportanceScale(tuple(f"l{i}" for i in range(num_levels)))

    classes: list[tuple[str, Polarity, int]] = [("z0", Polarity.PRO, 0)]
    for level in range(1, num_levels):
        classes.append((f"p{level}", Polarity.PRO, level))
    for level in range(1, num_levels):
        classes.append((f"n{level}", Polarity.CON, level))

    for n in range(max(min_args, 1), max_args + 1):
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
