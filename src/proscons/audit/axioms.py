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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from ..core import (
    DecisionUniverse,
    Outcome,
    TrivialUniverseError,
)
from ..rules import Rule, compare, ground_relation
from .matrices import AuditContext
from .space import PAIRWISE_BOUND, TUPLE_BOUND, guard_size

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


def audit_context(
    universe: DecisionUniverse, context: AuditContext | None, bound: int
) -> AuditContext:
    """The shared context for a universe, after refusing trivial or over-bound ones."""
    if universe.is_trivial:
        raise TrivialUniverseError("audits require a non-trivial universe")
    guard_size(universe, bound)
    return context if context is not None else AuditContext(universe)


@dataclass(frozen=True)
class Check:
    """One named audit check, declared once.

    ``sweep(context, rule)`` quantifies over the universe's profiles with
    the relation matrices and returns the first witness, or ``None``;
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
        witness = self.sweep(audit_context(universe, context, self.bound), rule)
        return AuditVerdict(self.name, rule, witness is None, witness)


# ---------------------------------------------------------------------------
# Vectorised checks
# ---------------------------------------------------------------------------

def _first(viol: np.ndarray):
    idx = np.argwhere(viol)
    return tuple(int(v) for v in idx[0]) if idx.size else None


def _pair_witness(ctx: AuditContext, viol: np.ndarray, note: str = "") -> Witness | None:
    """Witness of the first violating (A, B) pair of a profile-pair matrix."""
    hit = _first(viol)
    if hit is None:
        return None
    a, b = hit
    return Witness(profiles=(ctx.space.members(a), ctx.space.members(b)), note=note)


def _check_ca(ctx: AuditContext, rule: Rule):
    w = ctx.rel(rule).weak
    for i, name in enumerate(ctx.space.names):
        m = 1 << i
        if not (w[m, 0] or w[0, m]):
            return Witness(args=(name,))
    return None


def _check_sqc(ctx: AuditContext, rule: Rule):
    # Quantifies over the arguments the rule itself deems worthless.
    rel = ctx.rel(rule)
    space = ctx.space
    masks = np.arange(space.size, dtype=np.int64)
    for i, name in enumerate(space.names):
        m = 1 << i
        if not rel.sym[m, 0]:
            continue
        with_rows = rel.weak[masks | m, :]
        with_cols = rel.weak[:, masks | m]
        viol = (rel.weak != with_rows) | (rel.weak != with_cols)
        hit = _first(viol)
        if hit:
            a, b = hit
            return Witness(
                profiles=(space.members(a), space.members(b)), args=(name,)
            )
    return None


def _monotony(ctx, rule, *, positive: bool):
    rel = ctx.rel(rule)
    space = ctx.space
    side = space.pos_mask if positive else space.neg_mask
    subs = space.submasks(side)
    pairs = np.argwhere(rel.weak)
    for start in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[start : start + _PAIR_BLOCK]
        a, b = block[:, 0], block[:, 1]
        if positive:
            rows = a[:, None] | subs[None, :]
            cols = b[:, None] & ~subs[None, :]
        else:
            rows = a[:, None] & ~subs[None, :]
            cols = b[:, None] | subs[None, :]
        ok = rel.weak[rows[:, :, None], cols[:, None, :]]
        hit = _first(~ok)
        if hit:
            k, ci, cj = hit
            return Witness(
                profiles=(
                    space.members(int(a[k])),
                    space.members(int(b[k])),
                    space.members(int(subs[ci])),
                    space.members(int(subs[cj])),
                )
            )
    return None


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
        return Witness(
            profiles=(space.members(space.pos_mask), space.members(space.neg_mask))
        )
    return None


def _check_xmonotony(ctx, rule):
    # Enumeration order: (x, x') by argument index, then (A, B) row-major.
    rel = ctx.rel(rule)
    space = ctx.space
    weak, strict, sym = rel.weak, rel.strict, rel.sym
    for i, x_name in enumerate(space.names):
        xb = 1 << i
        for j, xp_name in enumerate(space.names):
            if i == j:
                continue
            xpb = 1 << j
            if not weak[xpb, xb]:
                continue  # need x' at least as strong as x
            free = space.disjoint_from(xb | xpb)
            with_x = free | xb
            with_xp = free | xpb
            v1 = strict[with_x, :] & ~strict[with_xp, :]
            v2 = sym[with_x, :] & ~weak[with_xp, :]
            v3 = (strict[:, with_xp] & ~strict[:, with_x]).T
            v4 = (sym[:, with_xp] & ~weak[:, with_x]).T
            hit = _first(v1 | v2 | v3 | v4)
            if hit:
                ai, b = hit
                return Witness(
                    profiles=(space.members(int(free[ai])), space.members(b)),
                    args=(x_name, xp_name),
                )
    return None


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
            return Witness(
                profiles=(
                    space.members(int(a)),
                    space.members(int(subs[bi])),
                    space.members(int(subs[cj])),
                )
            )
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
                return Witness(
                    profiles=(
                        space.members(int(a)),
                        space.members(int(subs[bi])),
                        space.members(int(subs[cj])),
                    ),
                    note="union",
                )
    absorb = rel.weak[np.ix_(subs, subs)] & ~rel.sym[subs[:, None], union]
    hit = _first(absorb)
    if hit:
        bi, cj = hit
        return Witness(
            profiles=(space.members(int(subs[bi])), space.members(int(subs[cj]))),
            note="absorb",
        )
    return None


def _combination(ctx, rule, *, strict_parts: bool):
    # The two union operands commute, so only ordered pair-of-pairs (i <= j)
    # need checking; the row-major-first violation always lies there.
    rel = ctx.rel(rule)
    space = ctx.space
    base = rel.strict if strict_parts else rel.weak
    pairs = np.argwhere(base).astype(np.int32)
    a, b = pairs[:, 0], pairs[:, 1]
    for start in range(0, len(pairs), _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, len(pairs))
        au = a[start:stop, None] | a[None, start:]
        bu = b[start:stop, None] | b[None, start:]
        ok = base[au, bu]
        ok[np.tril_indices(stop - start, k=-1, m=len(pairs) - start)] = True
        hit = _first(~ok)
        if hit:
            i, j = hit
            i += start
            j += start
            return Witness(
                profiles=(
                    space.members(int(a[i])),
                    space.members(int(b[i])),
                    space.members(int(a[j])),
                    space.members(int(b[j])),
                )
            )
    return None


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
            return Witness(profiles=(space.members(a), space.members(int(subs[bi]))))
    return None


def _check_prefindependence(ctx, rule):
    # Enumeration order: C ascending, then (A, B) row-major.
    rel = ctx.rel(rule)
    space = ctx.space
    for c in range(1, space.size):
        rest = space.disjoint_from(c)
        plain = rel.weak[np.ix_(rest, rest)]
        shifted = rel.weak[np.ix_(rest | c, rest | c)]
        hit = _first(plain != shifted)
        if hit:
            ai, bj = hit
            return Witness(
                profiles=(
                    space.members(int(rest[ai])),
                    space.members(int(rest[bj])),
                    space.members(c),
                )
            )
    return None


def _check_completeness(ctx, rule):
    return _pair_witness(ctx, ctx.rel(rule).incomp)


def _transitive_violation(ctx, rule, *, part: str):
    # ``part`` names the relation tested: "weak", "strict" or "sym".
    space = ctx.space
    base = getattr(ctx.rel(rule), part)
    reach = (base.astype(np.uint8) @ base.astype(np.uint8)) > 0
    if not (reach & ~base).any():
        return None
    # Lexicographically first (A, B, C) with base[A,B], base[B,C], not base[A,C].
    for a in range(space.size):
        row = base[a]
        for b in np.nonzero(row)[0]:
            bad = base[b] & ~row
            if bad.any():
                c = int(np.argmax(bad))
                return Witness(
                    profiles=(
                        space.members(a),
                        space.members(int(b)),
                        space.members(c),
                    )
                )
    return None


def _check_simplegrounding(ctx, rule):
    ground = ground_relation(rule, ctx.universe)
    if not ground.is_weak_order:
        return Witness(note="ground")
    for sub in (Axiom.X_MONOTONY, Axiom.POSC, Axiom.NEGC):
        witness = AXIOMS[sub].sweep(ctx, rule)
        if witness is not None:
            return Witness(
                profiles=witness.profiles, args=witness.args, note=sub.value
            )
    return None


def _check_anonymity(ctx, rule):
    # Enumeration order: (C, D) row-major over indifferent pairs, then (A, B).
    rel = ctx.rel(rule)
    space = ctx.space
    pairs = np.argwhere(rel.sym)
    for c, d in pairs:
        if c == d:
            continue
        free = space.disjoint_from(int(c) | int(d))
        left = rel.weak[free | int(c), :] != rel.weak[free | int(d), :]
        right = (rel.weak[:, free | int(c)] != rel.weak[:, free | int(d)]).T
        hit = _first(left | right)
        if hit:
            ai, b = hit
            return Witness(
                profiles=(
                    space.members(int(free[ai])),
                    space.members(b),
                    space.members(int(c)),
                    space.members(int(d)),
                )
            )
    return None


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
