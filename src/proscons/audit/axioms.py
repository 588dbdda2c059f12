"""Axiom checks: exhaustive quantifier sweeps with counterexample extraction.

Every axiom is implemented twice, on purpose:

* a vectorised sweep over the bitmask profile space; it returns the first
  violating instance in a documented deterministic order, or ``None``;
* a scalar replay that re-evaluates one witness through the public
  comparison functions and confirms the violation is genuine.

Both, with the enumeration bound, make up the axiom's :class:`Check`
record in ``AXIOMS``.  The replay route never touches the matrices,
so a witness that replays is evidence against the rule, not against the
sweep machinery.

Some sweeps first decide with a cheaper exact kernel and scan for the
witness only when it finds a violation: transitivity with a matrix product,
``gclo``/``gneg`` with a subset convolution (``_union_closed``) and the two
monotony checks with one-argument steps (``_monotone``).  The scanner
alone names the witness, so the kernel changes no witness or its order.

The exchange-type checks (``sqc``, ``xmonotony``, ``prefindependence``,
``anonymity`` and the three independence corollaries) compare a relation on
free profile pairs with the same relation on shifted ones.  They share one
``_shift_scan``, whose witness is the first shift in the check's order, then
the first (A, B) in row-major order.  The ground checks read the ground
relation from the weak matrix, at the singletons and the empty profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from ..core import DecisionUniverse, Outcome
from ..rules import Rule, compare, ground_relation
from .matrices import AuditContext, admit
from .space import PAIRWISE_BOUND, TUPLE_BOUND

_PAIR_BLOCK = 512


class Axiom(Enum):
    """Named properties a comparison rule may or may not satisfy."""

    CA = "ca"                              # every argument comparable to nothing
    SQC = "sqc"                            # null arguments never matter
    POS_MONOTONY = "posmonotony"           # extra pros never hurt the winner
    NEG_MONOTONY = "negmonotony"           # extra cons never help the loser
    WEAK_UNANIMITY = "weakunanimity"       # winning both ledgers wins overall
    NON_TRIVIALITY = "nontriviality"       # all pros beat all cons
    X_MONOTONY = "xmonotony"               # swapping in a stronger argument keeps wins
    POSC = "posc"                          # pros blocked by the same con are equal
    NEGC = "negc"                          # cons blocked by the same pro are equal
    NEG = "neg"                            # beating two positive sets beats their union
    CLO = "clo"                            # indifference to two positive sets survives union
    GNEG = "gneg"                          # strict preferences combine across unions
    GCLO = "gclo"                          # weak preferences combine across unions
    POS_EFFICIENCY = "posefficiency"       # strictly good surplus forces strict preference
    NEG_EFFICIENCY = "negefficiency"       # strictly bad surplus forces strict dispreference
    PREF_INDEPENDENCE = "prefindependence"  # shared arguments never matter
    COMPLETENESS = "completeness"
    QUASI_TRANSITIVITY = "quasitransitivity"
    TRANSITIVITY = "transitivity"
    SIMPLE_GROUNDING = "simplegrounding"   # weak-order ground + xmonotony + posc + negc
    ANONYMITY = "anonymity"                # indifferent disjoint sets are interchangeable


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
    """One named audit check, declared once.

    ``sweep(context, rule)`` quantifies over the universe's profiles with
    the relation matrices and returns the first witness, or ``None``;
    sweeps name a witness's profile masks through ``_witness``.  For
    ``gclo``, ``gneg``, ``posmonotony`` and ``negmonotony`` (and the
    transitivity checks) the sweep decides with a closure kernel, and only
    on a violation does its scanner run and name the first witness in the
    documented order.
    The exchange-type sweeps list their shifts for ``_shift_scan``, which
    names the first shift, then the first (A, B) row-major, that breaks.
    ``replay(rule, universe, witness)`` re-checks a witness through the
    scalar comparison functions only.  ``bound`` is the largest universe
    the sweep may enumerate.
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
        """Run the sweep on one universe; trivial or over-bound ones are refused."""
        admit(universe, self.bound)
        ctx = context if context is not None else AuditContext(universe)
        witness = self.sweep(ctx, rule)
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


def _shift_scan(ctx: AuditContext, values: np.ndarray, shifts, differ) -> Witness | None:
    """Witness at the first shift, then the first (A, B) row-major, that ``differ`` flags.

    ``values`` is a relation matrix, read flat with pair (A, B) at
    ``A << n | B``.  A shift is ``(rows, cols, views, tail)``: A ranges over
    ``rows`` and B over ``cols``, both ascending; each view ``(r, c)`` reads
    the pair (A | r, B | c), and ``differ`` maps the views to a (rows, cols)
    mask.  ``tail(A, B)`` builds the witness; it is called before the next
    shift is drawn, so ``shifts`` may be a generator.
    """
    flat = values.reshape(-1)
    n = ctx.space.n
    for rows, cols, views, tail in shifts:
        hit = _first(differ(*(
            flat[(rows | r)[:, None] << n | (cols | c)[None, :]] for r, c in views
        )))
        if hit:
            return tail(rows[hit[0]], cols[hit[1]])
    return None


def _pair_codes(weak: np.ndarray) -> np.ndarray:
    """Each pair's 2-bit code: bit 0 is A ≽ B, bit 1 is B ≽ A."""
    return weak | weak.T.astype(np.uint8) << 1


def _indifferent_pairs(rel) -> list[list[int]]:
    """(C, D) with C ~ D and C ≠ D, row-major."""
    return np.argwhere(rel.sym & ~np.eye(len(rel.sym), dtype=bool)).tolist()


def _ground(ctx: AuditContext, rule: Rule) -> np.ndarray:
    """The weak relation on the singletons, in argument order, then the empty profile."""
    items = [1 << i for i in range(ctx.space.n)] + [0]
    return ctx.rel(rule).weak[np.ix_(items, items)]


def _reach(base: np.ndarray) -> np.ndarray:
    """Pairs joined by a two-step path in ``base``."""
    return (base.astype(np.uint8) @ base.astype(np.uint8)) > 0


def _check_ca(ctx: AuditContext, rule: Rule):
    ground = _ground(ctx, rule)
    hit = _first(~ground[:-1, -1] & ~ground[-1, :-1])
    return None if hit is None else Witness(args=(ctx.space.names[hit[0]],))


def _check_sqc(ctx: AuditContext, rule: Rule):
    # Shifts: the arguments the rule itself deems worthless, by index.
    rel = ctx.rel(rule)
    masks = np.arange(ctx.space.size)
    shifts = ((masks, masks, ((0, 0), (1 << i, 0), (0, 1 << i)),
               lambda a, b: _witness(ctx, a, b, args=(name,)))
              for i, name in enumerate(ctx.space.names) if rel.sym[1 << i, 0])
    return _shift_scan(ctx, rel.weak, shifts, lambda v, r, c: (v != r) | (v != c))


def _monotone(weak: np.ndarray, side: int, *, positive: bool) -> bool:
    """Whether ``weak`` keeps every pair under one-argument steps on ``side``.

    The steps are adding one ``side`` argument to the row profile, and
    separately removing one from the column profile (the reverse for
    ``positive=False``).  Both are instances of the monotony axiom, and
    chains of them reach every (A ∪ C, B ∖ C′), so this decides it.
    """
    masks = np.arange(len(weak))
    while side:
        bit = side & -side
        side ^= bit
        grow, shrink = masks | bit, masks & ~bit
        rows, cols = (grow, shrink) if positive else (shrink, grow)
        if (weak & ~weak[rows, :]).any() or (weak & ~weak[:, cols]).any():
            return False
    return True


def _monotony_scan(ctx, weak, side, *, positive: bool):
    # Enumeration order: (A, B) row-major over weak pairs, then (C, C') row-major.
    subs = ctx.space.submasks(side)
    pairs = np.argwhere(weak)
    for start in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[start : start + _PAIR_BLOCK]
        a, b = block[:, 0], block[:, 1]
        if positive:
            rows = a[:, None] | subs[None, :]
            cols = b[:, None] & ~subs[None, :]
        else:
            rows = a[:, None] & ~subs[None, :]
            cols = b[:, None] | subs[None, :]
        ok = weak[rows[:, :, None], cols[:, None, :]]
        hit = _first(~ok)
        if hit:
            k, ci, cj = hit
            return _witness(ctx, a[k], b[k], subs[ci], subs[cj])
    return None


def _monotony(ctx, rule, *, positive: bool):
    weak = ctx.rel(rule).weak
    side = ctx.space.pos_mask if positive else ctx.space.neg_mask
    if _monotone(weak, side, positive=positive):
        return None
    return _monotony_scan(ctx, weak, side, positive=positive)


def _check_weakunanimity(ctx, rule):
    rel = ctx.rel(rule)
    space = ctx.space
    masks = np.arange(space.size, dtype=np.int64)
    pos = masks & space.pos_mask
    neg = masks & space.neg_mask
    cond = rel.weak[pos[:, None], pos[None, :]] & rel.weak[neg[:, None], neg[None, :]]
    return _pair_witness(ctx, cond & ~rel.weak)


def _check_nontriviality(ctx, rule):
    rel = ctx.rel(rule)
    space = ctx.space
    if not rel.strict[space.pos_mask, space.neg_mask]:
        return _witness(ctx, space.pos_mask, space.neg_mask)
    return None


# Whether x' in place of x breaks xmonotony, by the pair codes of (A ∪ {x}, B)
# (row) and (A ∪ {x'}, B) (column): a strict or tied win of A, or a strict or
# tied loss seen from B, that the swap turns into something worse.
_XMONOTONY_BREAKS = np.array([[0, 0, 1, 1], [1, 0, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]], bool)


def _check_xmonotony(ctx, rule):
    # Shifts: (x, x') by argument index, x ≠ x' and x' ≽ x.
    rel = ctx.rel(rule)
    space = ctx.space
    shifts = ((space.disjoint_from(1 << i | 1 << j), np.arange(space.size),
               ((1 << i, 0), (1 << j, 0)), lambda a, b: _witness(ctx, a, b, args=(x, xp)))
              for i, x in enumerate(space.names) for j, xp in enumerate(space.names)
              if i != j and rel.weak[1 << j, 1 << i])
    return _shift_scan(ctx, _pair_codes(rel.weak), shifts, lambda u, v: _XMONOTONY_BREAKS[u, v])


def _cancellation(ctx, rule, *, positive: bool):
    rel = ctx.rel(rule)
    space = ctx.space
    u = ctx.universe
    same = sorted(u.pros if positive else u.cons, key=space.names.index)
    other = sorted(u.cons if positive else u.pros, key=space.names.index)
    for y in other:
        yb = space.arg_bit(y)
        blocked = [x for x in same if rel.sym[space.arg_bit(x) | yb, 0]]
        for x in blocked:
            for z in blocked:
                if not rel.sym[space.arg_bit(x), space.arg_bit(z)]:
                    return Witness(args=(x, z, y))
    return None


def _check_neg(ctx, rule):
    rel = ctx.rel(rule)
    space = ctx.space
    subs = space.submasks(space.pos_mask)
    union = subs[:, None] | subs[None, :]
    for a in subs:
        row = rel.strict[a]
        sa = row[subs]
        if not sa.any():
            continue
        hit = _first(sa[:, None] & sa[None, :] & ~row[union])
        if hit:
            bi, cj = hit
            return _witness(ctx, a, subs[bi], subs[cj])
    return None


def _check_clo(ctx, rule):
    rel = ctx.rel(rule)
    space = ctx.space
    subs = space.submasks(space.pos_mask)
    union = subs[:, None] | subs[None, :]
    for a in subs:
        sym_row = rel.sym[a]
        ya = sym_row[subs]
        if ya.any():
            hit = _first(ya[:, None] & ya[None, :] & ~sym_row[union])
            if hit:
                bi, cj = hit
                return _witness(ctx, a, subs[bi], subs[cj], note="union")
    absorb = rel.weak[np.ix_(subs, subs)] & ~rel.sym[subs[:, None], union]
    hit = _first(absorb)
    if hit:
        bi, cj = hit
        return _witness(ctx, subs[bi], subs[cj], note="absorb")
    return None


def _subset_transform(values: np.ndarray, op) -> None:
    """Zeta (``np.add``) or Möbius (``np.subtract``) transform, in place,
    over the subsets indexing a C-contiguous vector."""
    size = len(values)
    for i in range(size.bit_length() - 1):
        view = values.reshape(-1, 2, 1 << i)
        op(view[:, 1], view[:, 0], out=view[:, 1])


def _union_closed(base: np.ndarray) -> bool:
    """Whether ``base[a|c, b|d]`` holds whenever ``base[a, b]`` and ``base[c, d]`` do.

    Read the pair (a, b) as one subset of 2n bits, ``a << n | b``; then
    (a|c, b|d) is the union of two pairs.  So ``base`` is union-closed iff
    its OR-convolution with itself, computed as a fast subset convolution
    (zeta transform, square, Möbius transform; Björklund, Husfeldt, Kaski
    and Koivisto, STOC 2007), is zero off ``base``.  O(n·4^n) in about 4n
    numpy calls; the counts stay below 2^(4n) in int64.
    """
    counts = base.astype(np.int64).reshape(-1)
    _subset_transform(counts, np.add)
    counts *= counts
    _subset_transform(counts, np.subtract)
    return not (counts.reshape(base.shape).astype(bool) & ~base).any()


def _combination_scan(ctx, base):
    # Enumeration order: pair-of-pairs ((A, B), (C, D)) row-major over the
    # base pairs.  Each block starts its columns at its first row: the union
    # commutes, so a violation (i, j) with j < i makes row j violate too, and
    # the first violating row's first partner never lies before it.
    pairs = np.argwhere(base).astype(np.int32)
    a, b = pairs[:, 0], pairs[:, 1]
    for start in range(0, len(pairs), _PAIR_BLOCK):
        au = a[start : start + _PAIR_BLOCK, None] | a[None, start:]
        bu = b[start : start + _PAIR_BLOCK, None] | b[None, start:]
        hit = _first(~base[au, bu])
        if hit:
            i, j = hit[0] + start, hit[1] + start
            return _witness(ctx, a[i], b[i], a[j], b[j])
    return None


def _combination(ctx, rule, *, strict_parts: bool):
    rel = ctx.rel(rule)
    base = rel.strict if strict_parts else rel.weak
    return None if _union_closed(base) else _combination_scan(ctx, base)


def _efficiency(ctx, rule, *, positive: bool):
    rel = ctx.rel(rule)
    space = ctx.space
    for a in range(space.size):
        subs = space.submasks(a)
        surplus = a ^ subs  # A minus B for B below A
        if positive:
            viol = rel.strict[surplus, 0] & ~rel.strict[a, subs]
        else:
            viol = rel.strict[0, surplus] & ~rel.strict[subs, a]
        hit = _first(viol)
        if hit:
            (bi,) = hit
            return _witness(ctx, a, subs[bi])
    return None


def _check_prefindependence(ctx, rule):
    # Shifts: C ascending; A and B range over the profiles disjoint from C.
    def shifts():
        for c in range(1, ctx.space.size):
            rest = ctx.space.disjoint_from(c)
            yield rest, rest, ((0, 0), (c, c)), lambda a, b: _witness(ctx, a, b, c)

    return _shift_scan(ctx, ctx.rel(rule).weak, shifts(), np.not_equal)


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
    ground = _ground(ctx, rule)
    if not (ground | ground.T).all() or (_reach(ground) & ~ground).any():
        return Witness(note="ground")
    for sub in (Axiom.X_MONOTONY, Axiom.POSC, Axiom.NEGC):
        witness = AXIOMS[sub].sweep(ctx, rule)
        if witness is not None:
            return Witness(
                profiles=witness.profiles, args=witness.args, note=sub.value
            )
    return None


def _check_anonymity(ctx, rule):
    # Shifts: (C, D) row-major over indifferent pairs; A is disjoint from both.
    rel = ctx.rel(rule)
    shifts = ((ctx.space.disjoint_from(c | d), np.arange(ctx.space.size), ((c, 0), (d, 0)),
               lambda a, b: _witness(ctx, a, b, c, d))
              for c, d in _indifferent_pairs(rel))
    return _shift_scan(ctx, _pair_codes(rel.weak), shifts, np.not_equal)


# ---------------------------------------------------------------------------
# Scalar replays
# ---------------------------------------------------------------------------

def _weak(rule, a, b) -> bool:
    return compare(rule, a, b).first_weak


def _strict(rule, a, b) -> bool:
    return compare(rule, a, b) is Outcome.PREFER_FIRST


def _sym(rule, a, b) -> bool:
    return compare(rule, a, b) is Outcome.INDIFFERENT


def _replay_ca(rule, u, w):
    x = u.option({w.args[0]})
    return not _weak(rule, x, u.empty) and not _weak(rule, u.empty, x)


def _replay_sqc(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    x = u.option({w.args[0]})
    if not _sym(rule, x, u.empty):
        return False
    results = {
        _weak(rule, a, b),
        _weak(rule, a.union(x), b),
        _weak(rule, a, b.union(x)),
    }
    return len(results) > 1


def _replay_posmonotony(rule, u, w):
    a, b, c, cp = (u.option(p) for p in w.profiles)
    if not (c.members <= u.pros and cp.members <= u.pros):
        return False
    return _weak(rule, a, b) and not _weak(rule, c.union(a), b.difference(cp))


def _replay_negmonotony(rule, u, w):
    a, b, c, cp = (u.option(p) for p in w.profiles)
    if not (c.members <= u.cons and cp.members <= u.cons):
        return False
    return _weak(rule, a, b) and not _weak(rule, a.difference(c), b.union(cp))


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


def _replay_cancellation(rule, u, w):
    x, z, y = (u.option({name}) for name in w.args)
    return (
        _sym(rule, x.union(y), u.empty)
        and _sym(rule, z.union(y), u.empty)
        and not _sym(rule, x, z)
    )


def _replay_neg(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    return _strict(rule, a, b) and _strict(rule, a, c) and not _strict(rule, a, b.union(c))


def _replay_clo(rule, u, w):
    if w.note == "absorb":
        b, c = (u.option(p) for p in w.profiles)
        return _weak(rule, b, c) and not _sym(rule, b, b.union(c))
    a, b, c = (u.option(p) for p in w.profiles)
    return _sym(rule, a, b) and _sym(rule, a, c) and not _sym(rule, a, b.union(c))


def _replay_gneg(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    return (
        _strict(rule, a, b)
        and _strict(rule, c, d)
        and not _strict(rule, a.union(c), b.union(d))
    )


def _replay_gclo(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    return (
        _weak(rule, a, b)
        and _weak(rule, c, d)
        and not _weak(rule, a.union(c), b.union(d))
    )


def _replay_posefficiency(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return (
        b.members <= a.members
        and _strict(rule, a.difference(b), u.empty)
        and not _strict(rule, a, b)
    )


def _replay_negefficiency(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return (
        b.members <= a.members
        and _strict(rule, u.empty, a.difference(b))
        and not _strict(rule, b, a)
    )


def _replay_prefindependence(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    if (a.members | b.members) & c.members:
        return False
    return _weak(rule, a, b) != _weak(rule, a.union(c), b.union(c))


def _replay_completeness(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return compare(rule, a, b) is Outcome.INCOMPARABLE


def _replay_quasitransitivity(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    return _strict(rule, a, b) and _strict(rule, b, c) and not _strict(rule, a, c)


def _replay_transitivity(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    return _weak(rule, a, b) and _weak(rule, b, c) and not _weak(rule, a, c)


def _replay_simplegrounding(rule, u, w):
    if w.note == "ground":
        return not ground_relation(rule, u).is_weak_order
    inner = Witness(profiles=w.profiles, args=w.args)
    return AXIOMS[Axiom(w.note)].replay(rule, u, inner)


def _replay_anonymity(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    if a.members & (c.members | d.members):
        return False
    if not _sym(rule, c, d):
        return False
    return (
        _weak(rule, a.union(c), b) != _weak(rule, a.union(d), b)
        or _weak(rule, b, a.union(c)) != _weak(rule, b, a.union(d))
    )


# Axioms quantifying over three or four subsets get the tighter bound.
AXIOMS: dict[Axiom, Check] = {
    Axiom(name): Check(name, bound, sweep, replay)
    for name, bound, sweep, replay in (
        ("ca", PAIRWISE_BOUND, _check_ca, _replay_ca),
        ("sqc", PAIRWISE_BOUND, _check_sqc, _replay_sqc),
        ("posmonotony", TUPLE_BOUND, partial(_monotony, positive=True),
         _replay_posmonotony),
        ("negmonotony", TUPLE_BOUND, partial(_monotony, positive=False),
         _replay_negmonotony),
        ("weakunanimity", PAIRWISE_BOUND, _check_weakunanimity, _replay_weakunanimity),
        ("nontriviality", PAIRWISE_BOUND, _check_nontriviality, _replay_nontriviality),
        ("xmonotony", TUPLE_BOUND, _check_xmonotony, _replay_xmonotony),
        ("posc", PAIRWISE_BOUND, partial(_cancellation, positive=True),
         _replay_cancellation),
        ("negc", PAIRWISE_BOUND, partial(_cancellation, positive=False),
         _replay_cancellation),
        ("neg", TUPLE_BOUND, _check_neg, _replay_neg),
        ("clo", TUPLE_BOUND, _check_clo, _replay_clo),
        ("gneg", TUPLE_BOUND, partial(_combination, strict_parts=True), _replay_gneg),
        ("gclo", TUPLE_BOUND, partial(_combination, strict_parts=False), _replay_gclo),
        ("posefficiency", PAIRWISE_BOUND, partial(_efficiency, positive=True),
         _replay_posefficiency),
        ("negefficiency", PAIRWISE_BOUND, partial(_efficiency, positive=False),
         _replay_negefficiency),
        ("prefindependence", PAIRWISE_BOUND, _check_prefindependence,
         _replay_prefindependence),
        ("completeness", PAIRWISE_BOUND, _check_completeness, _replay_completeness),
        ("quasitransitivity", TUPLE_BOUND, partial(_transitive_violation, part="strict"),
         _replay_quasitransitivity),
        ("transitivity", TUPLE_BOUND, partial(_transitive_violation, part="weak"),
         _replay_transitivity),
        ("simplegrounding", TUPLE_BOUND, _check_simplegrounding, _replay_simplegrounding),
        ("anonymity", TUPLE_BOUND, _check_anonymity, _replay_anonymity),
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
    return AXIOMS[axiom].verdict(rule, universe, context=context)
