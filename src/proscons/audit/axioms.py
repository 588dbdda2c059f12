"""Every audit check, declared once, in the one registry ``CHECKS``.

A check is one :class:`Check` record, looked up by the name its verdicts
carry.  ``CHECKS`` holds the paper's axioms (one per :class:`Axiom`
value), the relation properties ``reflexive`` and ``sym_transitive``, the
refinement checks (``refinement_name(coarse, fine)`` and
``refines_biposs``), the ground premise ``unbiased_ground``, the exchange
corollaries named in ``COROLLARIES`` and the encoding agreements named in
``ENCODINGS``.  Every check is implemented twice, on purpose:

* a vectorised sweep over the bitmask profile space; it returns the first
  violating instance in a documented deterministic order, or ``None``;
* a scalar replay that re-evaluates one witness through the public
  comparison functions and confirms the violation is genuine.

The replay route never touches the matrices, so a witness that replays is
evidence against the rule, not against the sweep machinery.  A check
family has one replay, parametrised as its sweep is (``positive`` or the
relation part it tests) and bound with ``partial``.

Some sweeps first decide with a cheaper exact kernel and scan for the
witness only when it finds a violation: transitivity with a matrix product,
``gclo``/``gneg`` with a subset convolution (``_union_closed``), both float64
products of whole matrices, exact within ``TUPLE_BOUND``.  The scanner alone
names the witness, so the kernel changes no witness or its order.  The
monotony checks decide and name in one pass: a product with the zeta matrix
over the side's bits marks the weak pairs that break, and the first one's
block of (C, C′) names the rest.  ``neg`` and the union part of ``clo``
read one (A, B, C) gather (``_row_unions``).  Every rectangular gather is
one ``take`` pass per axis (``_gather``).

The exchange-type checks compare a relation on free profile pairs with the
same relation on shifted ones.  ``xmonotony`` reads all its shifts in one
grid.  The others (``sqc``, ``prefindependence``, ``anonymity`` and the
three corollaries) state a shift in the axiom's own terms, on both sides:
its views (R, C) and the sets that A and B must avoid, read by one question,
whether some view reads (A ∪ R, B ∪ C) unlike the first.  A sweep lists its
shifts as plain data ``(row_out, col_out, views, masks, args)`` for one
``_shift_scan``, which asks it over every A that avoids ``row_out`` and B that
avoids ``col_out``; the witness is (A, B, *masks) with ``args``.  A replay,
after its ``_sym`` guard, asks it once through ``_shifted``, with the same
sets as ``avoid``, through ``compare`` alone.  ``prefindependence`` shifts by
single arguments and ``anonymity`` reads each indifferent pair once; their
comments say why no witness changes.
Single-argument facts (the ground relation, x ~ ∅, x′ ≽ x, x ~ y) have one
reader, ``_ground``: the pair code at the singletons and the empty profile.

A relation is stored only as its 2-bit pair code (``RelationSet.code``):
single cells, the efficiency and weak-unanimity checks and the scans that
compare both directions of a pair read the code, and a check that needs a
whole weak, strict, symmetric or incomparable part builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Callable

import numpy as np

from ..core import DecisionUniverse, Outcome
from ..encodings import compare_bilexi_np, compare_np
from ..rules import EMPTY_LABEL, Axiom, Rule, compare, compare_impl_cases, ground_relation
from .matrices import (
    AuditContext,
    admit,
    capacity_bilexi_weak_matrix,
    context_for,
    impl_cases_weak,
    np_weak_matrix,
    row_blocks,
)
from .space import PAIRWISE_BOUND, TUPLE_BOUND


@dataclass(frozen=True)
class Witness:
    """One violating instantiation of an axiom's quantifiers.

    ``profiles`` holds the quantified argument sets (as member-name sets)
    in the order the axiom's schema introduces them; ``args`` holds any
    individual-argument substitutions; ``note`` disambiguates multi-part
    schemas.
    """

    profiles: tuple[frozenset[str], ...] = ()
    args: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class AuditVerdict:
    check: str
    rule: Rule
    holds: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("a verdict fails exactly when it carries a witness")

    def describe(self) -> str:
        status = "ok" if self.holds else "FAIL"
        extra = ""
        if self.witness is not None:
            sets = ", ".join(
                "{" + ", ".join(sorted(p)) + "}" for p in self.witness.profiles
            )
            parts = [p for p in (sets, ", ".join(self.witness.args), self.witness.note) if p]
            extra = "  witness: " + "; ".join(parts)
        return f"{self.check:<18} {self.rule.value:<8} {status}{extra}"


@dataclass(frozen=True)
class Check:
    """One named audit check, declared once in ``CHECKS``.

    ``sweep(context, rule)`` quantifies over the universe's profiles with
    the relation matrices and returns the first witness in the check's
    documented order, or ``None``.  ``replay(rule, universe, witness)``
    re-checks a witness through the scalar comparison functions only.
    ``bound`` is the largest universe the sweep may enumerate: checks over
    pairs get ``PAIRWISE_BOUND``, those over three or four subsets
    ``TUPLE_BOUND``.
    """

    name: str
    bound: int
    sweep: Callable[[AuditContext, Rule], Witness | None]
    replay: Callable[[Rule, DecisionUniverse, Witness], bool]

    def verdict(
        self,
        rule: Rule,
        universe: DecisionUniverse,
        *,
        context: AuditContext | None = None,
    ) -> AuditVerdict:
        """Run the sweep on one universe; trivial or over-bound ones are refused,
        and so is a ``context`` built for another universe."""
        admit(universe, self.bound)
        witness = self.sweep(context_for(universe, context), rule)
        return AuditVerdict(self.name, rule, witness is None, witness)


# ---------------------------------------------------------------------------
# Vectorised checks
# ---------------------------------------------------------------------------

def _first(viol: np.ndarray):
    if not viol.any():
        return None
    return tuple(int(v) for v in np.unravel_index(viol.argmax(), viol.shape))


def _witness(ctx: AuditContext, *masks, args: tuple[str, ...] = (), note: str = "") -> Witness:
    """Witness naming each profile mask, in order, by its member names."""
    return Witness(tuple(ctx.space.members(int(m)) for m in masks), args, note)


def _pair_witness(ctx: AuditContext, viol: np.ndarray, note: str = "") -> Witness | None:
    """Witness of the first violating (A, B) pair of a profile-pair matrix."""
    hit = _first(viol)
    return None if hit is None else _witness(ctx, *hit, note=note)


def _gather(values: np.ndarray, rows, cols) -> np.ndarray:
    """``values[rows[i], cols[j]]`` at (i, j): one ``take`` pass per axis."""
    return values.take(rows, axis=0).take(cols, axis=1)


def _shift_scan(ctx: AuditContext, values: np.ndarray, shifts) -> Witness | None:
    """Witness at the first shift, then the first (A, B) row-major, where some
    view reads unlike the first: ``_shifted``'s question, over the whole grid.

    ``values`` is a relation matrix.  A shift is ``(row_out, col_out, views,
    masks, args)``: A ranges over the profiles that avoid ``row_out`` and B
    over those that avoid ``col_out``, both ascending, and each view ``(r, c)``
    gathers the pair (A | r, B | c).  The witness is (A, B, *masks) with
    ``args``.  Each set is selected once per scan, however many shifts avoid it.
    """
    space = ctx.space
    select = cache(lambda out: space.submasks(space.full_mask & ~out))
    for row_out, col_out, views, masks, args in shifts:
        rows, cols = select(row_out), select(col_out)
        first, *rest = (_gather(values, rows | r, cols | c) for r, c in views)
        hit = _first(reduce(np.logical_or, (view != first for view in rest)))
        if hit:
            return _witness(ctx, rows[hit[0]], cols[hit[1]], *masks, args=args)
    return None


def _indifferent_pairs(rel) -> list[list[int]]:
    """(C, D) with C ~ D and C ≠ D, row-major."""
    pairs = np.argwhere(rel.code == 3)
    return pairs[pairs[:, 0] != pairs[:, 1]].tolist()


def _ground(ctx: AuditContext, rule: Rule) -> np.ndarray:
    """The pair code on the singletons, in argument order, then the empty profile."""
    items = [1 << i for i in range(ctx.space.n)] + [0]
    return _gather(ctx.rel(rule).code, items, items)


def _reach(base: np.ndarray) -> np.ndarray:
    """Pairs joined by a two-step path in ``base``; float counts, exact up to 2^53 paths."""
    return (base.astype(float) @ base.astype(float)) > 0


def _check_ca(ctx: AuditContext, rule: Rule):
    hit = _first(_ground(ctx, rule)[:-1, -1] == 0)
    return None if hit is None else Witness(args=(ctx.space.names[hit[0]],))


def _check_sqc(ctx: AuditContext, rule: Rule):
    # Shifts: the arguments the rule itself deems worthless, by index.
    names = ctx.space.names
    shifts = ((0, 0, ((0, 0), (1 << i, 0), (0, 1 << i)), (), (names[i],))
              for i in np.flatnonzero(_ground(ctx, rule)[:-1, -1] == 3).tolist())
    return _shift_scan(ctx, ctx.rel(rule).weak, shifts)


def _monotony_scan(ctx, weak, side, *, positive: bool):
    """First (A, B, C, C′), C and C′ within ``side``, with A ≽ B but not
    A ∪ C ≽ B ∖ C′ (``positive``) or not A ∖ C ≽ B ∪ C′.

    ¬weak, spread over the side's bits from supersets to subsets on one
    axis and from subsets to supersets on the other, marks each (A, B) that
    some (C, C′) breaks: one product per axis with the zeta matrix masked to
    the pairs that differ only in side bits.  The first weak one is (A, B);
    (C, C′) is the first of its block in row-major order.
    """
    masks = ctx.space.masks
    spread = _subset_matrices(ctx.space.size)[0] * (((masks[:, None] ^ masks) & ~side) == 0)
    spread = spread.T if positive else spread
    hit = _first(weak & ((spread @ ~weak @ spread) > 0))
    if hit is None:
        return None
    a, b = hit
    subs = ctx.space.submasks(side)
    rows, cols = (a | subs, b & ~subs) if positive else (a & ~subs, b | subs)
    c, cp = _first(~_gather(weak, rows, cols))
    return _witness(ctx, a, b, subs[c], subs[cp])


def _monotony(ctx, rule, *, positive: bool):
    side = ctx.space.pos_mask if positive else ctx.space.neg_mask
    return _monotony_scan(ctx, ctx.rel(rule).weak, side, positive=positive)


def _check_weakunanimity(ctx, rule):
    # weak[A ∩ P, B ∩ P] has one distinct row per submask S of P: gather the
    # rows weak[S, B ∩ P] once, then read row A ∩ P of them; the same for the cons.
    code, space = ctx.rel(rule).code, ctx.space
    sides = []
    for side in (space.pos_mask, space.neg_mask):
        subs, proj = space.submasks(side), space.masks & side
        rows = (_gather(code, subs, proj) & 1).view(bool)
        sides.append((rows, np.searchsorted(subs, proj)))
    for block in row_blocks(space.size):
        viol = (code[block] & 1) == 0
        for rows, at in sides:
            viol &= rows.take(at[block], axis=0)
        hit = _first(viol)
        if hit:
            return _witness(ctx, block.start + hit[0], hit[1])
    return None


def _check_nontriviality(ctx, rule):
    rel = ctx.rel(rule)
    space = ctx.space
    if rel.code[space.pos_mask, space.neg_mask] != 1:
        return _witness(ctx, space.pos_mask, space.neg_mask)
    return None


# Whether x' in place of x breaks xmonotony, by the pair codes of (A ∪ {x}, B)
# (row) and (A ∪ {x'}, B) (column): a strict or tied win of A, or a strict or
# tied loss seen from B, that the swap turns into something worse.
_XMONOTONY_BREAKS = np.array([[0, 0, 1, 1], [1, 0, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]], bool)


def _check_xmonotony(ctx, rule):
    # One grid: row k is the k-th (shift, A), column B.  Shifts: (x, x') by argument
    # index, x ≠ x' and x' ≽ x; A ascending over the profiles without x or x'.
    code, space = ctx.rel(rule).code, ctx.space
    bits = 1 << np.arange(space.n)
    x, xp = np.nonzero((_ground(ctx, rule)[:-1, :-1] & 2 > 0) & ~np.eye(space.n, dtype=bool))
    shift, a = np.nonzero((space.masks & (bits[x] | bits[xp])[:, None]) == 0)
    x, xp = x[shift], xp[shift]
    grid = _XMONOTONY_BREAKS[code.take(a | bits[x], axis=0), code.take(a | bits[xp], axis=0)]
    hit = _first(grid)
    if hit is None:
        return None
    k, b = hit
    return _witness(ctx, a[k], b, args=(space.names[x[k]], space.names[xp[k]]))


def _cancellation(ctx, rule, *, positive: bool):
    code, space, ground = ctx.rel(rule).code, ctx.space, _ground(ctx, rule)
    sides = (space.pos_mask, space.neg_mask) if positive else (space.neg_mask, space.pos_mask)
    same, other = ([i for i in range(space.n) if side >> i & 1] for side in sides)
    for y in other:
        blocked = [x for x in same if code[1 << x | 1 << y, 0] == 3]
        for x in blocked:
            for z in blocked:
                if ground[x, z] != 3:
                    return Witness(args=(space.names[x], space.names[z], space.names[y]))
    return None


def _row_unions(values: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """(A, B, C) over ``subs`` with ``values`` at (A, B) and (A, C) but not (A, B ∪ C)."""
    rows = values.take(subs, axis=0)
    pairs = rows.take(subs, axis=1)
    union = rows.take(subs[:, None] | subs[None, :], axis=1)
    return pairs[:, :, None] & pairs[:, None, :] & ~union


def _check_neg(ctx, rule):
    subs = ctx.space.submasks(ctx.space.pos_mask)
    hit = _first(_row_unions(ctx.rel(rule).strict, subs))
    return None if hit is None else _witness(ctx, *subs[list(hit)])


def _check_clo(ctx, rule):
    rel = ctx.rel(rule)
    sym = rel.sym
    subs = ctx.space.submasks(ctx.space.pos_mask)
    union = np.take_along_axis(sym.take(subs, axis=0), subs[:, None] | subs[None, :], axis=1)
    for note, viol in (("union", _row_unions(sym, subs)),
                       ("absorb", _gather(rel.weak, subs, subs) & ~union)):
        hit = _first(viol)
        if hit:
            return _witness(ctx, *subs[list(hit)], note=note)
    return None


@cache
def _subset_matrices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeta matrix Z over ``size`` subsets (Z[s, t] = 1 iff t ⊆ s) and its
    Möbius inverse, in float64; read-only, as every caller shares them."""
    zeta = mobius = np.ones((1, 1))
    for _ in range(size.bit_length() - 1):
        zeta, mobius = np.kron(zeta, [[1, 0], [1, 1]]), np.kron(mobius, [[1, 0], [-1, 1]])
    zeta.flags.writeable = mobius.flags.writeable = False
    return zeta, mobius


def _union_closed(base: np.ndarray) -> bool:
    """Whether ``base[a|c, b|d]`` holds whenever ``base[a, b]`` and ``base[c, d]`` do.

    Read the pair (a, b) as one subset of 2n bits, ``a << n | b``; then
    (a|c, b|d) is the union of two pairs.  So ``base`` is union-closed iff
    its OR-convolution with itself, computed as a fast subset convolution
    (zeta transform, square, Möbius transform; Björklund, Husfeldt, Kaski
    and Koivisto, STOC 2007), is zero off ``base``.  Products with the subset
    matrices; exact, as within ``TUPLE_BOUND`` no partial sum reaches 2^36 < 2^53.
    """
    zeta, mobius = _subset_matrices(len(base))
    counts = zeta @ base @ zeta.T
    counts *= counts
    return not ((mobius @ counts @ mobius.T).astype(bool) & ~base).any()


def _combination_scan(ctx, base):
    # Enumeration order: pair-of-pairs ((A, B), (C, D)) row-major over the
    # base pairs.  Each block starts its columns at its first row: the union
    # commutes, so a violation (i, j) with j < i makes row j violate too, and
    # the first violating row's first partner never lies before it.
    pairs = np.argwhere(base).astype(np.int32)
    a, b = pairs[:, 0], pairs[:, 1]
    for rows in row_blocks(len(pairs)):
        au = a[rows, None] | a[None, rows.start :]
        bu = b[rows, None] | b[None, rows.start :]
        hit = _first(~base[au, bu])
        if hit:
            i, j = hit[0] + rows.start, hit[1] + rows.start
            return _witness(ctx, a[i], b[i], a[j], b[j])
    return None


def _combination(ctx, rule, *, part: str):
    base = getattr(ctx.rel(rule), part)
    return None if _union_closed(base) else _combination_scan(ctx, base)


def _efficiency(ctx, rule, *, positive: bool):
    # B ⊆ A: each argument lies outside A, in A ∖ B or in B, so the 3^n pairs
    # grow by one concatenation per argument.  A ∖ B ≻ ∅ must give A ≻ B,
    # code 1 at (A, B); ∅ ≻ A ∖ B must give B ≻ A, code 2.
    code = ctx.rel(rule).code
    a = b = np.zeros(1, dtype=np.int32)
    for bit in (1 << i for i in range(ctx.space.n)):
        a, b = np.concatenate((a, a | bit, a | bit)), np.concatenate((b, b, b | bit))
    surplus = code[a ^ b, 0] if positive else code[0, a ^ b]
    viol = (surplus == 1) & (code[a, b] != (1 if positive else 2))
    a, b = a[viol], b[viol]
    # The witness is the least A, then its least B: two minima, not the least
    # key A << n | B, so no bound on n keeps such a key within int32.
    return _witness(ctx, a.min(), b[a == a.min()].min()) if a.size else None


def _check_prefindependence(ctx, rule):
    # Shifts: C = {x}, x by index; A and B are disjoint from C.  If any C breaks
    # (A, B), add its arguments one at a time: some step x changes ``weak``, so
    # {x} breaks too and 1 << x <= C.  So the first C that breaks is a single x.
    shifts = ((c, c, ((0, 0), (c, c)), (c,), ()) for c in (1 << i for i in range(ctx.space.n)))
    return _shift_scan(ctx, ctx.rel(rule).weak, shifts)


def _check_completeness(ctx, rule):
    return _pair_witness(ctx, ctx.rel(rule).incomp)


def _transitive_violation(ctx, rule, *, part: str):
    # ``part`` names the relation tested: "weak", "strict" or "sym".
    # Lexicographically first (A, B, C) with base[A,B], base[B,C], not base[A,C]:
    # A is the first row the product flags.
    base = getattr(ctx.rel(rule), part)
    rows = (_reach(base) & ~base).any(axis=1)
    if not rows.any():
        return None
    a = np.argmax(rows)
    bad = base & ~base[a]  # bad[B, C]: base[B, C] and not base[A, C]
    b = np.argmax(base[a] & bad.any(axis=1))
    return _witness(ctx, a, b, np.argmax(bad[b]))


def _check_simplegrounding(ctx, rule):
    code = _ground(ctx, rule)
    ground = (code & 1).view(bool)
    if not code.all() or (_reach(ground) & ~ground).any():
        return Witness(note="ground")
    for sub in ("xmonotony", "posc", "negc"):
        witness = CHECKS[sub].sweep(ctx, rule)
        if witness is not None:
            return Witness(profiles=witness.profiles, args=witness.args, note=sub)
    return None


def _check_anonymity(ctx, rule):
    # Shifts: (C, D) row-major over indifferent pairs with C < D; A is disjoint
    # from both.  (D, C) comes later and gives the same grid, its views swapped.
    rel = ctx.rel(rule)
    shifts = ((c | d, 0, ((c, 0), (d, 0)), (c, d), ())
              for c, d in _indifferent_pairs(rel) if c < d)
    return _shift_scan(ctx, rel.code, shifts)


def _check_reflexive(ctx, rule):
    diagonal = ctx.rel(rule).code.diagonal() & 1
    if diagonal.all():
        return None
    return _witness(ctx, np.argmin(diagonal))


def refinement_name(coarse: Rule, fine: Rule) -> str:
    return f"refines:{coarse.value}->{fine.value}"


def _refinement_witness(coarse, ctx, fine):
    viol = ctx.rel(coarse).strict & ~ctx.rel(fine).strict
    return _pair_witness(ctx, viol, refinement_name(coarse, fine))


def _check_unbiased_ground(ctx, rule):
    hit = _first(_ground(ctx, rule) != _ground(ctx, Rule.BIPOSS))
    if hit is None:
        return None
    items = ctx.space.names + (EMPTY_LABEL,)
    return Witness(args=tuple(items[i] for i in hit), note="unbiased_ground")


# The exchange principles that follow from transitivity plus independence.
COROLLARIES = (
    "add_indifferent_set",
    "swap_indifferent_sets",
    "swap_indifferent_singletons",
)


def _check_add_indifferent_set(ctx, rule):
    # Adding C with C ~ empty, C disjoint from A, must not disturb A's comparisons.
    # Shifts: C ascending.
    rel = ctx.rel(rule)
    shifts = ((c, 0, ((0, 0), (c, 0)), (c,), ())
              for c in range(1, ctx.space.size) if rel.code[c, 0] == 3)
    return _shift_scan(ctx, rel.code, shifts)


def _check_swap_indifferent_sets(ctx, rule):
    # Swapping C ~ D across the two sides, both disjoint from A and B.
    # Shifts: (C, D) row-major over indifferent pairs.
    rel = ctx.rel(rule)
    shifts = ((c | d, c | d, ((0, 0), (c, d)), (c, d), ()) for c, d in _indifferent_pairs(rel))
    return _shift_scan(ctx, rel.weak, shifts)


def _check_swap_indifferent_singletons(ctx, rule):
    # Swapping single arguments x ~ y; x may already sit in B, y in A.
    # Shifts: (x, y) by argument index.
    ground = _ground(ctx, rule)
    names = ctx.space.names
    shifts = ((1 << i, 1 << j, ((0, 0), (1 << i, 1 << j)), (), (x, y))
              for i, x in enumerate(names) for j, y in enumerate(names) if ground[i, j] == 3)
    return _shift_scan(ctx, ctx.rel(rule).weak, shifts)


def _agreement(build, note, ctx, rule):
    return _pair_witness(ctx, build(ctx.space) != ctx.rel(rule).weak, note)


# ---------------------------------------------------------------------------
# Scalar replays
# ---------------------------------------------------------------------------

def _weak(rule, a, b) -> bool:
    return compare(rule, a, b).first_weak


def _strict(rule, a, b) -> bool:
    return compare(rule, a, b) is Outcome.PREFER_FIRST


def _sym(rule, a, b) -> bool:
    return compare(rule, a, b) is Outcome.INDIFFERENT


# The relation parts a replay family tests, by the names its sweep reads off a RelationSet.
_PARTS = {"weak": _weak, "strict": _strict, "sym": _sym}


def _shifted(rule, a, b, views, avoid=((), ()), read=_weak) -> bool:
    """Whether A avoids the names ``avoid[0]``, B avoids ``avoid[1]``, and some
    view (R, C) reads (A ∪ R, B ∪ C) unlike the first view does."""
    if not (a.members.isdisjoint(avoid[0]) and b.members.isdisjoint(avoid[1])):
        return False
    first, *rest = (read(rule, a.union(r), b.union(c)) for r, c in views)
    return any(value != first for value in rest)


def _replay_ca(rule, u, w):
    x = u.option({w.args[0]})
    return not _weak(rule, x, u.empty) and not _weak(rule, u.empty, x)


def _replay_sqc(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    x, e = u.option({w.args[0]}), u.empty
    return _sym(rule, x, e) and _shifted(rule, a, b, ((e, e), (x, e), (e, x)))


def _replay_monotony(rule, u, w, *, positive: bool):
    a, b, c, cp = (u.option(p) for p in w.profiles)
    side = u.pros if positive else u.cons
    if not (c.members <= side and cp.members <= side):
        return False
    moved = (a.union(c), b.difference(cp)) if positive else (a.difference(c), b.union(cp))
    return _weak(rule, a, b) and not _weak(rule, *moved)


def _replay_weakunanimity(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return (
        _weak(rule, u.option(a.pos), u.option(b.pos))
        and _weak(rule, u.option(a.neg), u.option(b.neg))
        and not _weak(rule, a, b)
    )


def _replay_nontriviality(rule, u, w):
    return not _strict(rule, u.option(u.pros), u.option(u.cons))


def _replay_xmonotony(rule, u, w):
    x_name, xp_name = w.args
    a, b = (u.option(p) for p in w.profiles)
    if a.members & {x_name, xp_name}:
        return False
    x = u.option({x_name})
    if not _weak(rule, u.option({xp_name}), x):
        return False
    ax, axp = a.union(x), a.union(u.option({xp_name}))
    return (
        (_strict(rule, ax, b) and not _strict(rule, axp, b))
        or (_sym(rule, ax, b) and not _weak(rule, axp, b))
        or (_strict(rule, b, axp) and not _strict(rule, b, ax))
        or (_sym(rule, b, axp) and not _weak(rule, b, ax))
    )


def _replay_cancellation(rule, u, w, *, positive: bool):
    # x and z on the check's side, y on the other.
    same, other = (u.pros, u.cons) if positive else (u.cons, u.pros)
    if not ({w.args[0], w.args[1]} <= same and w.args[2] in other):
        return False
    x, z, y = (u.option({name}) for name in w.args)
    return (
        _sym(rule, x.union(y), u.empty)
        and _sym(rule, z.union(y), u.empty)
        and not _sym(rule, x, z)
    )


def _replay_row_union(rule, u, w, *, part: str):
    holds = _PARTS[part]
    a, b, c = (u.option(p) for p in w.profiles)
    return holds(rule, a, b) and holds(rule, a, c) and not holds(rule, a, b.union(c))


def _replay_clo(rule, u, w):
    if w.note == "absorb":
        b, c = (u.option(p) for p in w.profiles)
        return _weak(rule, b, c) and not _sym(rule, b, b.union(c))
    return _replay_row_union(rule, u, w, part="sym")


def _replay_combination(rule, u, w, *, part: str):
    holds = _PARTS[part]
    a, b, c, d = (u.option(p) for p in w.profiles)
    return holds(rule, a, b) and holds(rule, c, d) and not holds(rule, a.union(c), b.union(d))


def _replay_efficiency(rule, u, w, *, positive: bool):
    # A ∖ B ≻ ∅ must give A ≻ B (``positive``); ∅ ≻ A ∖ B must give B ≻ A.
    a, b = (u.option(p) for p in w.profiles)
    surplus = (a.difference(b), u.empty) if positive else (u.empty, a.difference(b))
    kept = (a, b) if positive else (b, a)
    return b.members <= a.members and _strict(rule, *surplus) and not _strict(rule, *kept)


def _replay_prefindependence(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    return _shifted(rule, a, b, ((u.empty, u.empty), (c, c)), (c.members, c.members))


def _replay_completeness(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return compare(rule, a, b) is Outcome.INCOMPARABLE


def _replay_transitive(rule, u, w, *, part: str):
    holds = _PARTS[part]
    a, b, c = (u.option(p) for p in w.profiles)
    return holds(rule, a, b) and holds(rule, b, c) and not holds(rule, a, c)


def _replay_simplegrounding(rule, u, w):
    if w.note == "ground":
        return not ground_relation(rule, u).is_weak_order
    inner = Witness(profiles=w.profiles, args=w.args)
    return CHECKS[w.note].replay(rule, u, inner)


def _replay_anonymity(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    # The sweep reads pair codes: one outcome holds both directions.
    return _sym(rule, c, d) and _shifted(rule, a, b, ((c, u.empty), (d, u.empty)),
                                         (c.members | d.members, ()), read=compare)


def _replay_reflexive(rule, u, w):
    a = u.option(w.profiles[0])
    return not compare(rule, a, a).first_weak


def _replay_refinement(coarse, rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return _strict(coarse, a, b) and not _strict(rule, a, b)


def _replay_unbiased_ground(rule, u, w):
    def profile(item):
        return u.empty if item == EMPTY_LABEL else u.option({item})

    a, b = (profile(item) for item in w.args)
    return compare(rule, a, b) != compare(Rule.BIPOSS, a, b)


def _replay_swap_indifferent_sets(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    both = c.members | d.members
    return _sym(rule, c, d) and _shifted(rule, a, b, ((u.empty, u.empty), (c, d)), (both, both))


def _replay_swap_indifferent_singletons(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    x, y = (u.option({name}) for name in w.args)
    return _sym(rule, x, y) and _shifted(rule, a, b, ((u.empty, u.empty), (x, y)),
                                         (x.members, y.members))


def _replay_agreement(route, rule, u, w):
    # Against the verdict's rule, as the sweep reads ``ctx.rel(rule)``; ``compare``
    # is looked up per call, never bound in a ``partial``, so it can be swapped.
    a, b = (u.option(p) for p in w.profiles)
    return route(a, b) is not compare(rule, a, b)


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

# Each encoding check compares an independent route, as a matrix builder and as
# a scalar comparison, with one rule: the rule named here, which the route must equal.
ENCODINGS = (
    ("np_equals_lexi", Rule.LEXI, np_weak_matrix, compare_np),
    ("capacity_bilexi_equals_bilexi", Rule.BILEXI, capacity_bilexi_weak_matrix,
     compare_bilexi_np),
    ("impl_cases_agree", Rule.IMPL, impl_cases_weak, compare_impl_cases),
)

CHECKS: dict[str, Check] = {
    name: Check(name, bound, sweep, replay)
    for name, bound, sweep, replay in (
        ("ca", PAIRWISE_BOUND, _check_ca, _replay_ca),
        ("sqc", PAIRWISE_BOUND, _check_sqc, _replay_sqc),
        ("posmonotony", TUPLE_BOUND, partial(_monotony, positive=True),
         partial(_replay_monotony, positive=True)),
        ("negmonotony", TUPLE_BOUND, partial(_monotony, positive=False),
         partial(_replay_monotony, positive=False)),
        ("weakunanimity", PAIRWISE_BOUND, _check_weakunanimity, _replay_weakunanimity),
        ("nontriviality", PAIRWISE_BOUND, _check_nontriviality, _replay_nontriviality),
        ("xmonotony", TUPLE_BOUND, _check_xmonotony, _replay_xmonotony),
        ("posc", PAIRWISE_BOUND, partial(_cancellation, positive=True),
         partial(_replay_cancellation, positive=True)),
        ("negc", PAIRWISE_BOUND, partial(_cancellation, positive=False),
         partial(_replay_cancellation, positive=False)),
        ("neg", TUPLE_BOUND, _check_neg, partial(_replay_row_union, part="strict")),
        ("clo", TUPLE_BOUND, _check_clo, _replay_clo),
        ("gneg", TUPLE_BOUND, partial(_combination, part="strict"),
         partial(_replay_combination, part="strict")),
        ("gclo", TUPLE_BOUND, partial(_combination, part="weak"),
         partial(_replay_combination, part="weak")),
        ("posefficiency", PAIRWISE_BOUND, partial(_efficiency, positive=True),
         partial(_replay_efficiency, positive=True)),
        ("negefficiency", PAIRWISE_BOUND, partial(_efficiency, positive=False),
         partial(_replay_efficiency, positive=False)),
        ("prefindependence", PAIRWISE_BOUND, _check_prefindependence,
         _replay_prefindependence),
        ("completeness", PAIRWISE_BOUND, _check_completeness, _replay_completeness),
        ("quasitransitivity", TUPLE_BOUND, partial(_transitive_violation, part="strict"),
         partial(_replay_transitive, part="strict")),
        ("transitivity", TUPLE_BOUND, partial(_transitive_violation, part="weak"),
         partial(_replay_transitive, part="weak")),
        ("simplegrounding", TUPLE_BOUND, _check_simplegrounding, _replay_simplegrounding),
        ("anonymity", TUPLE_BOUND, _check_anonymity, _replay_anonymity),
        ("reflexive", PAIRWISE_BOUND, _check_reflexive, _replay_reflexive),
        ("sym_transitive", TUPLE_BOUND, partial(_transitive_violation, part="sym"),
         partial(_replay_transitive, part="sym")),
        *(
            (refinement_name(coarse, fine), PAIRWISE_BOUND,
             partial(_refinement_witness, coarse), partial(_replay_refinement, coarse))
            for coarse in Rule
            for fine in Rule
        ),
        ("refines_biposs", PAIRWISE_BOUND, partial(_refinement_witness, Rule.BIPOSS),
         partial(_replay_refinement, Rule.BIPOSS)),
        ("unbiased_ground", PAIRWISE_BOUND, _check_unbiased_ground, _replay_unbiased_ground),
        # Adding C is anonymity with D = ∅; its guards become C disjoint from A and C ~ ∅.
        ("add_indifferent_set", TUPLE_BOUND, _check_add_indifferent_set,
         lambda rule, u, w: _replay_anonymity(rule, u, Witness((*w.profiles, frozenset())))),
        ("swap_indifferent_sets", TUPLE_BOUND, _check_swap_indifferent_sets,
         _replay_swap_indifferent_sets),
        ("swap_indifferent_singletons", TUPLE_BOUND, _check_swap_indifferent_singletons,
         _replay_swap_indifferent_singletons),
        *(
            (name, TUPLE_BOUND, partial(_agreement, build, name),
             partial(_replay_agreement, route))
            for name, _, build, route in ENCODINGS
        ),
    )
}


def check_axiom(
    axiom: Axiom,
    rule: Rule,
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> AuditVerdict:
    """Quantify one axiom exhaustively over a universe's profiles.

    Returns the verdict with the first violating instance in the check's
    documented deterministic order, if any.  Trivial universes are
    rejected: the axioms presuppose at least one argument that matters.
    """
    return CHECKS[axiom.value].verdict(rule, universe, context=context)
