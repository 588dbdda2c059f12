"""Vectorised weak-preference matrices, one per rule, over a profile space.

``weak[i, j]`` says profile ``i`` is weakly preferred to profile ``j``.
These matrices are the workhorses of the exhaustive audits; a bridge test
asserts they agree with the scalar comparison functions pair by pair.
"""

from __future__ import annotations

import numpy as np

from ..core import DecisionUniverse, TrivialUniverseError, UniverseMismatchError
from ..rules import Rule
from .space import PAIRWISE_BOUND, ProfileSpace, guard_size

_ROW_BLOCK = 1024  # keeps intermediate index arrays small on larger spaces


class RelationSet:
    """Weak matrix plus its derived strict, symmetric and incomparable parts."""

    def __init__(self, weak: np.ndarray):
        transposed = np.ascontiguousarray(weak.T)  # one copy beats three strided reads
        self.weak = weak
        self.strict = weak & ~transposed
        self.sym = weak & transposed
        self.incomp = ~(weak | transposed)


def _pareto_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn = space.omp, space.omn
    return (omp[:, None] >= omp[None, :]) & (omn[:, None] <= omn[None, :])


def _biposs_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn = space.omp, space.omn
    return np.maximum(omp[:, None], omn[None, :]) >= np.maximum(
        omp[None, :], omn[:, None]
    )


def _impl_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn = space.omp, space.omn
    top = np.maximum(
        np.maximum(omp[:, None], omn[:, None]),
        np.maximum(omp[None, :], omn[None, :]),
    )
    first = (omp[None, :] != top) | (omp[:, None] == top)
    second = (omn[:, None] != top) | (omn[None, :] == top)
    return first & second


def _discri_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn, masks = space.omp, space.omn, space.masks
    weak = np.empty((space.size, space.size), dtype=bool)
    for start in range(0, space.size, _ROW_BLOCK):
        rows = masks[start : start + _ROW_BLOCK]
        a_not_b = rows[:, None] & ~masks[None, :]
        b_not_a = masks[None, :] & ~rows[:, None]
        weak[start : start + _ROW_BLOCK] = np.maximum(
            omp[a_not_b], omn[b_not_a]
        ) >= np.maximum(omp[b_not_a], omn[a_not_b])
    return weak


def _bilexi_weak(space: ProfileSpace) -> np.ndarray:
    weak = np.ones((space.size, space.size), dtype=bool)
    decided = np.zeros((space.size, space.size), dtype=bool)
    for level in range(space.pos_counts.shape[1] - 1, 0, -1):
        dp = space.pos_counts[:, None, level] - space.pos_counts[None, :, level]
        dn = space.neg_counts[:, None, level] - space.neg_counts[None, :, level]
        newly = ((dp != 0) | (dn != 0)) & ~decided
        weak[newly] = (dp >= 0)[newly] & (dn <= 0)[newly]
        decided |= newly
    return weak


def _lexi_weak(space: ProfileSpace) -> np.ndarray:
    signed = space.pos_counts - space.neg_counts
    weak = np.ones((space.size, space.size), dtype=bool)
    decided = np.zeros((space.size, space.size), dtype=bool)
    for level in range(signed.shape[1] - 1, 0, -1):
        d = signed[:, None, level] - signed[None, :, level]
        newly = (d != 0) & ~decided
        weak[newly] = (d > 0)[newly]
        decided |= newly
    return weak


def impl_cases_weak(space: ProfileSpace) -> np.ndarray:
    """Weak matrix of the implicative rule via its disjoint case split.

    Indifference when the polarity owning the joint top level ties,
    strictness from single-scale dominance or a one-sided answer at the
    top; everything else is the internal-conflict incomparability.  Kept
    separate from the definitional builder so the two can be compared.
    """
    ap, an = space.omp[:, None], space.omn[:, None]
    bp, bn = space.omp[None, :], space.omn[None, :]
    sim = (
        ((ap == bp) & (ap == an) & (an == bn))
        | ((ap == bp) & (ap > np.maximum(an, bn)))
        | ((an == bn) & (an > np.maximum(ap, bp)))
    )
    strict_first = (
        (np.maximum(ap, bn) > np.maximum(an, bp))
        | ((ap == an) & (an == bn) & (bn > bp))
        | ((bp == bn) & (bn == ap) & (ap > an))
    )
    return sim | strict_first


_BUILDERS = {
    Rule.PARETO: _pareto_weak,
    Rule.BIPOSS: _biposs_weak,
    Rule.IMPL: _impl_weak,
    Rule.DISCRI: _discri_weak,
    Rule.BILEXI: _bilexi_weak,
    Rule.LEXI: _lexi_weak,
}


def weak_matrix(space: ProfileSpace, rule: Rule) -> np.ndarray:
    return _BUILDERS[rule](space)


# ---------------------------------------------------------------------------
# Capacity-route matrices (independent of the count-scanning builders)
# ---------------------------------------------------------------------------

def capacity_values(space: ProfileSpace) -> tuple[np.ndarray, np.ndarray]:
    """Per-profile positive and negative capacities under the universe's weight table.

    Both are exact Python integers (``dtype=object``): weights pass int64 on
    small universes, e.g. ``13**18`` over 6 arguments on 19 levels.
    """
    weights = np.array(space.universe.weights, dtype=object)
    return space.pos_counts.astype(object) @ weights, space.neg_counts.astype(object) @ weights


def np_weak_matrix(space: ProfileSpace) -> np.ndarray:
    """Weak matrix of the net-predisposition comparison."""
    spos, sneg = capacity_values(space)
    np_values = spos - sneg
    return np_values[:, None] >= np_values[None, :]


def capacity_bilexi_weak_matrix(space: ProfileSpace) -> np.ndarray:
    """Weak matrix of the capacity route to the two-ledger levelwise rule.

    Applies the leading-level rule of :func:`proscons.encodings.leading_level`
    to every pair's capacity differences, by one search per ledger in the
    weight table above the null level.
    """
    above_null = np.array(space.universe.weights[1:], dtype=object)
    dpos, dneg = (values[:, None] - values[None, :] for values in capacity_values(space))
    lead_pos, lead_neg = (np.searchsorted(above_null, 2 * np.abs(d)) for d in (dpos, dneg))
    return ((lead_pos < lead_neg) | (dpos >= 0)) & ((lead_neg < lead_pos) | (dneg <= 0))


# ---------------------------------------------------------------------------
# Shared per-universe cache
# ---------------------------------------------------------------------------

def admit(universe: DecisionUniverse, bound: int) -> None:
    """Refuse a universe the audits may not enumerate: trivial, or over ``bound``."""
    if universe.is_trivial:
        raise TrivialUniverseError(
            "every argument has null importance; comparisons degenerate"
        )
    guard_size(universe, bound)


class AuditContext:
    """Profile space plus lazily built relation matrices for one universe.

    A trivial universe, or one over ``PAIRWISE_BOUND``, is refused before
    its profile space is built; checks with a tighter bound ``admit`` the
    universe at that bound first.
    """

    def __init__(self, universe: DecisionUniverse):
        admit(universe, PAIRWISE_BOUND)
        self.universe = universe
        self.space = ProfileSpace(universe)
        self._relations: dict[Rule, RelationSet] = {}

    def rel(self, rule: Rule) -> RelationSet:
        if rule not in self._relations:
            self._relations[rule] = RelationSet(weak_matrix(self.space, rule))
        return self._relations[rule]


def context_for(universe: DecisionUniverse, context: AuditContext | None) -> AuditContext:
    """``context``, refused unless it was built for ``universe``; else a new one."""
    if context is None:
        return AuditContext(universe)
    if context.universe is not universe and context.universe != universe:
        raise UniverseMismatchError("the audit context was built for another universe")
    return context
