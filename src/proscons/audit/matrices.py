"""Vectorised weak-preference matrices, one per rule, over a profile space.

``weak[i, j]`` says profile ``i`` is weakly preferred to profile ``j``.
``pareto``, ``bilexi`` and ``lexi`` are dominance over per-profile keys.
A :class:`RelationSet` keeps only a rule's uint8 pair code,
``code[i, j] = weak[i, j] | weak[j, i] << 1`` (bit 0: i ≽ j; bit 1: j ≽ i), so
the weak part is bit 0 and the strict (1), symmetric (3) and incomparable (0)
parts are one compare each.
A bridge test checks every builder against the scalar rules pair by pair;
the capacity-route builders and ``impl_cases_weak`` stay apart from these,
so the bridge and encoding checks compare independent routes to one rule.
"""

from __future__ import annotations

import numpy as np

from ..core import DecisionUniverse, TrivialUniverseError, UniverseMismatchError
from ..rules import Rule
from .space import PAIRWISE_BOUND, ProfileSpace, guard_size

_ROW_BLOCK = 1024  # keeps intermediate index arrays small on larger spaces
_CODE_BLOCK = 256  # side of the square tiles the pair code is transposed in


class RelationSet:
    """The 2-bit code of each pair of a weak matrix, with every part read off the code.

    ``code[i, j]`` has bit 0 set when ``weak[i, j]`` and bit 1 when
    ``weak[j, i]``: 1 is strict preference of ``i``, 2 of ``j``, 3 is
    indifference and 0 incomparability.  ``weak``, ``strict``, ``sym`` and
    ``incomp`` build a new matrix on every access, so a loop reads cells of
    ``code``.
    """

    def __init__(self, weak: np.ndarray):
        code = np.empty(weak.shape, dtype=np.uint8)
        for i in range(0, len(weak), _CODE_BLOCK):  # tiles, not one strided transpose
            for j in range(0, len(weak), _CODE_BLOCK):
                code[i : i + _CODE_BLOCK, j : j + _CODE_BLOCK] = (
                    weak[j : j + _CODE_BLOCK, i : i + _CODE_BLOCK].T
                )
        code <<= 1
        code |= weak
        self.code = code

    @property
    def weak(self) -> np.ndarray:
        return (self.code & 1).view(bool)

    @property
    def strict(self) -> np.ndarray:
        return self.code == 1

    @property
    def sym(self) -> np.ndarray:
        return self.code == 3

    @property
    def incomp(self) -> np.ndarray:
        return self.code == 0


def _dominance(*keys: np.ndarray) -> np.ndarray:
    """``weak[i, j]``: profile ``i``'s value is at least ``j``'s on every key."""
    weak = keys[0][:, None] >= keys[0][None, :]
    for key in keys[1:]:
        weak &= key[:, None] >= key[None, :]
    return weak


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each profile's row, flattened, in the lexicographic order of the rows."""
    return np.unique(rows.reshape(len(rows), -1), axis=0, return_inverse=True)[1]


def _pareto_weak(space: ProfileSpace) -> np.ndarray:
    return _dominance(space.omp, -space.omn)


def _biposs_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn = space.omp, space.omn
    return np.maximum(omp[:, None], omn[None, :]) >= np.maximum(
        omp[None, :], omn[:, None]
    )


def _impl_weak(space: ProfileSpace) -> np.ndarray:
    omp, omn = space.omp, space.omn
    peak = np.maximum(omp, omn)
    top = np.maximum.outer(peak, peak)
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
    # Both keys are decided at the first level from the top where either tally differs, and
    # both favour A there exactly when A has at least as many pros and at most as many cons.
    pros, cons = space.pos_counts[:, :0:-1], -space.neg_counts[:, :0:-1]
    return _dominance(_lex_rank(np.dstack((pros, cons))), _lex_rank(np.dstack((cons, pros))))


def _lexi_weak(space: ProfileSpace) -> np.ndarray:
    return _dominance(_lex_rank((space.pos_counts - space.neg_counts)[:, :0:-1]))


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
