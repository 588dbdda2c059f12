"""Vectorised weak-preference matrices, one per rule, over a profile space.

``weak[i, j]`` says profile ``i`` is weakly preferred to profile ``j``.
Each rule reads ``weak`` as a conjunction of terms ``left >= right`` over
per-profile keys, all read off the space's ranks of the occupied levels, so
none grows with the scale: ``pareto``, ``bilexi`` and ``lexi`` are dominance
over keys, ``biposs`` and ``discri`` compare two orders of magnitude, and
``impl`` asks which polarity reaches the joint top level.  Swapping the
sides of every term gives ``weak[j, i]``, so a rule's uint8 pair code,
``code[i, j] = weak[i, j] | weak[j, i] << 1`` (bit 0: i ≽ j; bit 1: j ≽ i),
is built directly, block of rows by block of rows, with no transpose.
A :class:`RelationSet` keeps only that code; the weak part is bit 0 and the
strict (1), symmetric (3) and incomparable (0) parts are one compare each.
A given weak matrix is coded by a transpose in square tiles.
A bridge test checks every builder against the scalar rules pair by pair;
the capacity-route builders and ``impl_cases_weak`` stay apart from these,
so the bridge and encoding checks compare independent routes to one rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core import DecisionUniverse, TrivialUniverseError, UniverseMismatchError
from ..rules import Rule
from .space import PAIRWISE_BOUND, ProfileSpace, guard_size

_BLOCK = 256  # rows per block of row_blocks: it bounds every blocked pass


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
        for i in row_blocks(len(weak)):  # square tiles, not one strided transpose
            for j in row_blocks(len(weak)):
                code[i, j] = weak[j, i].T
        code <<= 1
        code |= weak
        self.code = code

    @classmethod
    def from_code(cls, code: np.ndarray) -> RelationSet:
        """The relation whose pair code is ``code``, kept as it is."""
        relation = cls.__new__(cls)
        relation.code = code
        return relation

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


# A rule's terms for a block of rows: (left, right) pairs that broadcast to
# (rows, profiles), with ``weak`` the conjunction of ``left >= right``.
Terms = Callable[[slice], list[tuple[np.ndarray, np.ndarray]]]


def _dominance(*keys: np.ndarray) -> Terms:
    """``weak[i, j]``: profile ``i``'s value is at least ``j``'s on every key."""
    return lambda rows: [(key[rows, None], key[None, :]) for key in keys]


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each profile's row, flattened, in the lexicographic order of the rows."""
    rank = np.unique(rows.reshape(len(rows), -1), axis=0, return_inverse=True)[1]
    return rank.astype(np.min_scalar_type(len(rows)))


def _pareto_terms(space: ProfileSpace) -> Terms:
    return _dominance(space.omp, -space.omn)


def _biposs_terms(space: ProfileSpace) -> Terms:
    omp, omn = space.omp, space.omn
    return lambda rows: [(
        np.maximum(omp[rows, None], omn[None, :]), np.maximum(omp[None, :], omn[rows, None])
    )]


def _impl_terms(space: ProfileSpace) -> Terms:
    # A reaches the joint top with a pro if B does, and B with a con if A does.
    omp, omn = space.omp, space.omn
    peak = np.maximum(omp, omn)

    def terms(rows):
        top = np.maximum.outer(peak[rows], peak)
        return [(omp[rows, None] == top, omp[None, :] == top),
                (omn[None, :] == top, omn[rows, None] == top)]

    return terms


def _half_table(omp, omn, width: int, shift: int) -> np.ndarray:
    """``table[a, b] = max(omp[a ∖ b], omn[b ∖ a])`` over the ``width`` argument bits
    from ``shift`` up, with ``a`` and ``b`` masks of those bits."""
    sub = np.arange(1 << width)
    a_not_b = (sub[:, None] & ~sub[None, :]) << shift
    return np.maximum(omp[a_not_b], omn[a_not_b.T])


def _discri_terms(space: ProfileSpace) -> Terms:
    # biposs of (A ∖ B, B ∖ A): the top pro of A ∖ B is the larger of its tops
    # over the low and the high argument bits, so max(omp[A ∖ B], omn[B ∖ A])
    # is the larger of one half table's cells; B ∖ A reads the transposes.
    omp, omn = space.omp, space.omn
    low = space.n // 2
    upper, lower = _half_table(omp, omn, space.n - low, low), _half_table(omp, omn, low, 0)

    def side(high_table, low_table, masks):
        # Columns B run over the high bits, then the low bits: (rows, high, low), flattened.
        high, lows = high_table[masks >> low], low_table[masks & (1 << low) - 1]
        return np.maximum(high[:, :, None], lows[:, None, :]).reshape(len(masks), -1)

    def terms(rows):
        masks = space.masks[rows]
        return [(side(upper, lower, masks), side(upper.T, lower.T, masks))]

    return terms


def _bilexi_terms(space: ProfileSpace) -> Terms:
    # Both keys are decided at the first level from the top where either tally differs, and
    # both favour A there exactly when A has at least as many pros and at most as many cons.
    pros, cons = space.pos_counts[:, :0:-1], -space.neg_counts[:, :0:-1]
    return _dominance(_lex_rank(np.dstack((pros, cons))), _lex_rank(np.dstack((cons, pros))))


def _lexi_terms(space: ProfileSpace) -> Terms:
    return _dominance(_lex_rank((space.pos_counts - space.neg_counts)[:, :0:-1]))


_TERMS = {
    Rule.PARETO: _pareto_terms,
    Rule.BIPOSS: _biposs_terms,
    Rule.IMPL: _impl_terms,
    Rule.DISCRI: _discri_terms,
    Rule.BILEXI: _bilexi_terms,
    Rule.LEXI: _lexi_terms,
}


def row_blocks(size: int):
    return (slice(start, start + _BLOCK) for start in range(0, size, _BLOCK))


def _holds(terms, out: np.ndarray, *, swapped: bool = False) -> None:
    """``out`` = every ``left >= right`` (``right >= left`` when ``swapped``)."""
    for k, pair in enumerate(terms):
        left, right = pair[::-1] if swapped else pair
        if k == 0:
            np.greater_equal(left, right, out=out)
        else:
            out &= left >= right


def weak_matrix(space: ProfileSpace, rule: Rule) -> np.ndarray:
    weak = np.empty((space.size, space.size), dtype=bool)
    terms = _TERMS[rule](space)
    for rows in row_blocks(space.size):
        _holds(terms(rows), weak[rows])
    return weak


def _code_block(terms, block: np.ndarray) -> None:
    _holds(terms, block.view(bool), swapped=True)
    block <<= 1
    weak = np.empty(block.shape, dtype=bool)
    _holds(terms, weak)
    block |= weak


def pair_code(space: ProfileSpace, rule: Rule) -> np.ndarray:
    """The rule's pair code, bit 1 from its terms with the sides swapped.

    Only one block's terms are alive at a time, besides the code.
    """
    code = np.empty((space.size, space.size), dtype=np.uint8)
    terms = _TERMS[rule](space)
    for rows in row_blocks(space.size):
        _code_block(terms(rows), code[rows])
    return code


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


# ---------------------------------------------------------------------------
# Capacity-route matrices (independent of the count-scanning builders)
# ---------------------------------------------------------------------------

def capacity_values(space: ProfileSpace) -> tuple[np.ndarray, np.ndarray]:
    """Per-profile positive and negative capacities: counts by rank times ``universe.weights``.

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
    weights above the null level: the search gives the leading rank.
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
            self._relations[rule] = RelationSet.from_code(pair_code(self.space, rule))
        return self._relations[rule]


def context_for(universe: DecisionUniverse, context: AuditContext | None) -> AuditContext:
    """``context``, refused unless it was built for ``universe``; else a new one."""
    if context is None:
        return AuditContext(universe)
    if context.universe is not universe and context.universe != universe:
        raise UniverseMismatchError("the audit context was built for another universe")
    return context
