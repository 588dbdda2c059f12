"""Report-level audits: relation properties, refinement chains, theorem bundles.

These compose the axiom checks into the larger claims the engine is meant
to certify mechanically: which rules are complete or transitive, which
rule refines which, and the two characterization bundles: the axiom set
that singles out the order-of-magnitude rule, and the premise set that
singles out the signed-count levelwise rule.

Every check a report runs is one :class:`Check` record in ``CHECKS``,
looked up by the name its verdicts carry; the sweeps over generated
universes share one driver that refuses empty or over-bound ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from ..core import DecisionUniverse, ProblemError
from ..encodings import compare_bilexi_np, compare_np
from ..rules import Rule, compare, compare_impl, compare_impl_cases, ground_relation
from .axioms import (
    AXIOMS,
    Axiom,
    AuditVerdict,
    Check,
    Witness,
    _first,
    _pair_witness,
    _strict,
    _sym,
    _transitive_violation,
    _weak,
    _witness,
)
from .matrices import (
    AuditContext,
    admit,
    capacity_bilexi_weak_matrix,
    impl_cases_weak,
    np_weak_matrix,
)
from .space import PAIRWISE_BOUND, TUPLE_BOUND, UniverseTooLargeError, iter_universes


class NoWitnessFoundError(ProblemError):
    """A witness search exhausted its space without finding one."""


class EmptySweepError(ProblemError):
    """A sweep range that holds no universe to check."""


# ---------------------------------------------------------------------------
# Relation properties
# ---------------------------------------------------------------------------

def _check_reflexive(ctx, rule):
    diagonal = ctx.rel(rule).weak.diagonal()
    if diagonal.all():
        return None
    return _witness(ctx, np.argmin(diagonal))


def _replay_reflexive(rule, u, w):
    a = u.option(w.profiles[0])
    return not compare(rule, a, a).first_weak


def _replay_sym_transitive(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    return _sym(rule, a, b) and _sym(rule, b, c) and not _sym(rule, a, c)


_PROPERTIES = (
    ("complete", "completeness"),
    ("reflexive", "reflexive"),
    ("transitive", "transitivity"),
    ("quasitransitive", "quasitransitivity"),
    ("sym_transitive", "sym_transitive"),
)


def relation_properties(
    rule: Rule,
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> dict[str, AuditVerdict]:
    """Completeness, reflexivity and the transitivity family for one rule."""
    return _run(tuple((key, check, rule) for key, check in _PROPERTIES), universe, context)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def refinement_name(coarse: Rule, fine: Rule) -> str:
    return f"refines:{coarse.value}->{fine.value}"


def _refinement_witness(coarse, ctx, fine):
    viol = ctx.rel(coarse).strict & ~ctx.rel(fine).strict
    return _pair_witness(ctx, viol, refinement_name(coarse, fine))


def _replay_refinement(coarse, rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return _strict(coarse, a, b) and not _strict(rule, a, b)


def refinement_check(
    coarse: Rule,
    fine: Rule,
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> AuditVerdict:
    """Does the fine rule preserve every strict preference of the coarse one?"""
    return CHECKS[refinement_name(coarse, fine)].verdict(fine, universe, context=context)


def find_strictness_witness(
    coarse: Rule,
    fine: Rule,
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> Witness | None:
    """First pair the coarse rule leaves unresolved but the fine rule decides."""
    ctx = context if context is not None else AuditContext(universe)
    return _pair_witness(ctx, ctx.rel(fine).strict & ~ctx.rel(coarse).strict)


# ---------------------------------------------------------------------------
# Indifference intransitivity of the order-of-magnitude rule
# ---------------------------------------------------------------------------

def find_biposs_indifference_intransitivity(
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> Witness:
    """First profile triple showing the single-scale rule's indifference is not transitive.

    The classic shape has the middle profile internally conflicted at the
    top of the scale, which ties it to everything.  Searches all triples
    in lexicographic order and raises ``NoWitnessFoundError`` when the
    universe is too degenerate to contain one.
    """
    verdict = CHECKS["sym_transitive"].verdict(Rule.BIPOSS, universe, context=context)
    if verdict.holds:
        raise NoWitnessFoundError(
            "indifference is transitive on this universe; "
            "need two positive levels and both polarities"
        )
    return Witness(profiles=verdict.witness.profiles, note="biposs_sym_intransitive")


# ---------------------------------------------------------------------------
# Independence consequences (used by the levelwise rule's audit)
# ---------------------------------------------------------------------------

COROLLARIES = (
    "add_indifferent_set",
    "swap_indifferent_sets",
    "swap_indifferent_singletons",
)


def _check_add_indifferent_set(ctx, rule):
    # Adding C with C ~ empty, C disjoint from A, must not disturb A's comparisons.
    rel = ctx.rel(rule)
    space = ctx.space
    for c in range(1, space.size):
        if not rel.sym[c, 0]:
            continue
        free = space.disjoint_from(c)
        left = rel.weak[free, :] != rel.weak[free | c, :]
        right = (rel.weak[:, free] != rel.weak[:, free | c]).T
        hit = _first(left | right)
        if hit:
            ai, b = hit
            return _witness(ctx, free[ai], b, c)
    return None


def _check_swap_indifferent_sets(ctx, rule):
    # Swapping C ~ D across the two sides, both disjoint from A and B.
    rel = ctx.rel(rule)
    space = ctx.space
    for c, d in np.argwhere(rel.sym):
        if c == d:
            continue
        free = space.disjoint_from(int(c) | int(d))
        plain = rel.weak[np.ix_(free, free)]
        swapped = rel.weak[np.ix_(free | int(c), free | int(d))]
        hit = _first(plain != swapped)
        if hit:
            ai, bj = hit
            return _witness(ctx, free[ai], free[bj], c, d)
    return None


def _check_swap_indifferent_singletons(ctx, rule):
    # Swapping single arguments x ~ y; x may already sit in B, y in A.
    rel = ctx.rel(rule)
    space = ctx.space
    masks = np.arange(space.size, dtype=np.int64)
    for i, x_name in enumerate(space.names):
        xb = 1 << i
        for j, y_name in enumerate(space.names):
            yb = 1 << j
            if not rel.sym[xb, yb]:
                continue
            rows = masks[(masks & xb) == 0]
            cols = masks[(masks & yb) == 0]
            plain = rel.weak[np.ix_(rows, cols)]
            swapped = rel.weak[np.ix_(rows | xb, cols | yb)]
            hit = _first(plain != swapped)
            if hit:
                ai, bj = hit
                return _witness(ctx, rows[ai], cols[bj], args=(x_name, y_name))
    return None


def _replay_add_indifferent_set(rule, u, w):
    a, b, c = (u.option(p) for p in w.profiles)
    if a.members & c.members or not _sym(rule, c, u.empty):
        return False
    return (
        _weak(rule, a, b) != _weak(rule, a.union(c), b)
        or _weak(rule, b, a) != _weak(rule, b, a.union(c))
    )


def _replay_swap_indifferent_sets(rule, u, w):
    a, b, c, d = (u.option(p) for p in w.profiles)
    if (a.members | b.members) & (c.members | d.members):
        return False
    if not _sym(rule, c, d):
        return False
    return _weak(rule, a, b) != _weak(rule, a.union(c), b.union(d))


def _replay_swap_indifferent_singletons(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    x, y = (u.option({name}) for name in w.args)
    if w.args[0] in a.members or w.args[1] in b.members or not _sym(rule, x, y):
        return False
    return _weak(rule, a, b) != _weak(rule, a.union(x), b.union(y))


def independence_corollaries(
    rule: Rule,
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> dict[str, AuditVerdict]:
    """Exchange principles that follow from transitivity plus independence.

    * adding a set indifferent to nothing, disjoint from one side;
    * swapping two mutually indifferent sets disjoint from both sides;
    * swapping two mutually indifferent single arguments.
    """
    return _run(tuple((name, name, rule) for name in COROLLARIES), universe, context)


# ---------------------------------------------------------------------------
# Encoding equivalences
# ---------------------------------------------------------------------------

def _agreement(build, note, ctx, rule):
    return _pair_witness(ctx, build(ctx.space) != ctx.rel(rule).weak, note)


def _replay_np_equals_lexi(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return compare_np(a, b) is not compare(Rule.LEXI, a, b)


def _replay_capacity_bilexi(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return compare_bilexi_np(a, b) is not compare(Rule.BILEXI, a, b)


def _replay_impl_cases(rule, u, w):
    a, b = (u.option(p) for p in w.profiles)
    return compare_impl(a, b) is not compare_impl_cases(a, b)


# Each check compares an independent matrix route with one rule's matrix.
_ENCODINGS = (
    ("np_equals_lexi", Rule.LEXI, np_weak_matrix, _replay_np_equals_lexi),
    ("capacity_bilexi_equals_bilexi", Rule.BILEXI, capacity_bilexi_weak_matrix,
     _replay_capacity_bilexi),
    ("impl_cases_agree", Rule.IMPL, impl_cases_weak, _replay_impl_cases),
)


def encoding_equivalence(
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> dict[str, AuditVerdict]:
    """Do the numeric and case-split routes agree with the defining routes?

    Checks, over every profile pair: net predisposition against the
    signed-count levelwise rule, the capacity route against the two-ledger
    levelwise rule, and the case-split route against the definitional
    implicative rule.  Witnesses replay through the scalar functions.
    """
    plan = tuple((name, name, rule) for name, rule, _, _ in _ENCODINGS)
    return _run(plan, universe, context)


# ---------------------------------------------------------------------------
# Ground ranking of single arguments (a theorem 2 premise)
# ---------------------------------------------------------------------------

def _check_unbiased_ground(ctx, rule):
    mine = ground_relation(rule, ctx.universe)
    base = ground_relation(Rule.BIPOSS, ctx.universe)
    n = len(mine.items)
    for i in range(n):
        for j in range(n):
            if mine.outcomes[i][j] != base.outcomes[i][j]:
                return Witness(args=(mine.items[i], mine.items[j]), note="unbiased_ground")
    return None


def _replay_unbiased_ground(rule, u, w):
    def profile(item):
        return u.empty if item == "0" else u.option({item})

    a, b = (profile(item) for item in w.args)
    return compare(rule, a, b) != compare(Rule.BIPOSS, a, b)


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

CHECKS: dict[str, Check] = {
    **{check.name: check for check in AXIOMS.values()},
    **{
        name: Check(name, bound, sweep, replay)
        for name, bound, sweep, replay in (
            ("reflexive", PAIRWISE_BOUND, _check_reflexive, _replay_reflexive),
            ("sym_transitive", TUPLE_BOUND, partial(_transitive_violation, part="sym"),
             _replay_sym_transitive),
            *(
                (refinement_name(coarse, fine), PAIRWISE_BOUND,
                 partial(_refinement_witness, coarse),
                 partial(_replay_refinement, coarse))
                for coarse in Rule
                for fine in Rule
            ),
            ("refines_biposs", PAIRWISE_BOUND, partial(_refinement_witness, Rule.BIPOSS),
             partial(_replay_refinement, Rule.BIPOSS)),
            ("unbiased_ground", PAIRWISE_BOUND, _check_unbiased_ground,
             _replay_unbiased_ground),
            ("add_indifferent_set", TUPLE_BOUND, _check_add_indifferent_set,
             _replay_add_indifferent_set),
            ("swap_indifferent_sets", TUPLE_BOUND, _check_swap_indifferent_sets,
             _replay_swap_indifferent_sets),
            ("swap_indifferent_singletons", TUPLE_BOUND,
             _check_swap_indifferent_singletons, _replay_swap_indifferent_singletons),
            *(
                (name, TUPLE_BOUND, partial(_agreement, build, name), replay)
                for name, _, build, replay in _ENCODINGS
            ),
        )
    },
}


def _tightest(checks: Iterable[str]) -> int:
    return min(CHECKS[name].bound for name in checks)


def _run(
    plan: tuple[tuple[str, str, Rule], ...],
    universe: DecisionUniverse,
    context: AuditContext | None,
    *,
    stop: bool = False,
) -> dict[str, AuditVerdict]:
    """Verdicts of ``(key, check, rule)`` entries in order, on one shared context.

    The universe is held to the tightest bound among the planned checks
    before any of them runs; ``stop`` ends the run at the first failure.
    """
    admit(universe, _tightest(check for _, check, _ in plan))
    ctx = context if context is not None else AuditContext(universe)
    out: dict[str, AuditVerdict] = {}
    for key, check, rule in plan:
        out[key] = verdict = CHECKS[check].verdict(rule, universe, context=ctx)
        if stop and not verdict.holds:
            break
    return out


def replay_witness(verdict: AuditVerdict, universe: DecisionUniverse) -> bool:
    """Re-evaluate a failed verdict's witness through the scalar rule functions.

    True means the witness genuinely violates the check.  Verdicts that
    hold have nothing to replay.
    """
    if verdict.holds or verdict.witness is None:
        raise ValueError("only failed verdicts carry a witness to replay")
    return CHECKS[verdict.check].replay(verdict.rule, universe, verdict.witness)


# ---------------------------------------------------------------------------
# Characterization bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleReport:
    name: str
    rule: Rule
    checks: tuple[AuditVerdict, ...]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.checks)

    @property
    def failures(self) -> tuple[AuditVerdict, ...]:
        return tuple(v for v in self.checks if not v.holds)


@dataclass(frozen=True)
class Bundle:
    """A premise set that exactly one rule, the designated one, satisfies.

    The designated rule passes every check on every universe; each of the
    other rules fails some check somewhere, with a witness.  Calling the
    bundle runs its checks in order on one universe.
    """

    name: str
    checks: tuple[str, ...]
    designated: Rule

    def __call__(
        self,
        rule: Rule,
        universe: DecisionUniverse,
        *,
        context: AuditContext | None = None,
        stop_at_first_failure: bool = False,
    ) -> BundleReport:
        plan = tuple((check, check, rule) for check in self.checks)
        verdicts = _run(plan, universe, context, stop=stop_at_first_failure)
        return BundleReport(self.name, rule, tuple(verdicts.values()))


THEOREM1_AXIOMS = (
    Axiom.CA,
    Axiom.SQC,
    Axiom.NON_TRIVIALITY,
    Axiom.WEAK_UNANIMITY,
    Axiom.POS_MONOTONY,
    Axiom.NEG_MONOTONY,
    Axiom.SIMPLE_GROUNDING,
    Axiom.COMPLETENESS,
    Axiom.GNEG,
    Axiom.GCLO,
)

# The full premise set whose joint satisfaction pins down the single-scale
# rule: reflexivity and quasi-transitivity first, then the bipolar axioms.
theorem1_bundle = Bundle(
    "theorem1",
    ("reflexive", "quasitransitivity", *(axiom.value for axiom in THEOREM1_AXIOMS)),
    Rule.BIPOSS,
)

THEOREM2_PREMISES = ("completeness", "transitivity", "prefindependence",
                     "refines_biposs", "unbiased_ground")

# Premises singling out the signed-count levelwise rule among refinements:
# complete, transitive, independent of shared arguments, refines the
# single-scale rule's strict part, and ranks individual arguments exactly
# as the single-scale rule does.
theorem2_bundle = Bundle("theorem2", THEOREM2_PREMISES, Rule.LEXI)

BUNDLES = {bundle.name: bundle for bundle in (theorem1_bundle, theorem2_bundle)}


REFINEMENT_CHAIN = (
    (Rule.BIPOSS, Rule.IMPL),
    (Rule.BIPOSS, Rule.DISCRI),
    (Rule.DISCRI, Rule.BILEXI),
    (Rule.BILEXI, Rule.LEXI),
)

_PROPOSITIONS = (
    ("biposs_complete", "completeness", Rule.BIPOSS),
    ("biposs_quasitransitive", "quasitransitivity", Rule.BIPOSS),
    ("impl_transitive", "transitivity", Rule.IMPL),
    *(
        (refinement_name(coarse, fine), refinement_name(coarse, fine), fine)
        for coarse, fine in REFINEMENT_CHAIN
    ),
    *((name, name, rule) for name, rule, _, _ in _ENCODINGS),
    *((f"lexi_{name}", name, Rule.LEXI) for name in COROLLARIES),
)


def proposition_checks(
    universe: DecisionUniverse,
    *,
    context: AuditContext | None = None,
) -> dict[str, AuditVerdict]:
    """The expected-to-hold structural claims, bundled for sweeps and the CLI.

    Completeness and quasi-transitivity of the single-scale rule,
    transitivity of the implicative rule, the strict-refinement chain,
    the encoding equivalences, and the exchange corollaries for the
    signed-count rule.
    """
    return _run(_PROPOSITIONS, universe, context)


# ---------------------------------------------------------------------------
# Sweep drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepFinding:
    universe: DecisionUniverse
    verdict: AuditVerdict


def _universes(bound: int, max_args: int, levels: int) -> Iterator[DecisionUniverse]:
    """The sweep's universes, after refusing a range that is empty or over ``bound``.

    A refused range must not pass for a sweep that found nothing.
    """
    if levels < 2:
        raise EmptySweepError(
            f"a sweep needs at least two levels (the null level plus one), got {levels}"
        )
    if max_args < 1:
        raise EmptySweepError(f"a sweep up to {max_args} arguments holds no universe")
    if max_args > bound:
        raise UniverseTooLargeError(
            f"sweep reaches {max_args} arguments, enumeration bound is {bound}"
        )
    return iter_universes(max_args, levels)


def sweep_axiom(
    axiom: Axiom,
    rule: Rule,
    *,
    max_args: int,
    levels: int,
) -> SweepFinding | None:
    """First universe (in canonical sweep order) where the axiom fails, if any."""
    check = AXIOMS[axiom]
    for universe in _universes(check.bound, max_args, levels):
        verdict = check.verdict(rule, universe)
        if not verdict.holds:
            return SweepFinding(universe, verdict)
    return None


def sweep_bundle(
    bundle: Bundle,
    rule: Rule,
    *,
    max_args: int,
    levels: int,
    expect_all_hold: bool,
) -> tuple[bool, SweepFinding | None]:
    """Run a bundle over every universe in the sweep.

    With ``expect_all_hold`` the sweep succeeds iff no check ever fails
    (returning the first failure otherwise).  Without it, the sweep plays
    the differential role: it succeeds iff some check fails somewhere,
    returning that finding as the witness.
    """
    for universe in _universes(_tightest(bundle.checks), max_args, levels):
        report = bundle(rule, universe, stop_at_first_failure=not expect_all_hold)
        if not report.all_hold:
            finding = SweepFinding(universe, report.failures[0])
            return (not expect_all_hold, finding)
    return (expect_all_hold, None)


def sweep_propositions(
    *, max_args: int, levels: int
) -> tuple[int, dict[str, SweepFinding | None]]:
    """Every proposition check over the sweep.

    Returns the number of universes examined and, per check, its first
    failure or ``None`` when it held everywhere.
    """
    count = 0
    findings: dict[str, SweepFinding | None] = {}
    bound = _tightest(check for _, check, _ in _PROPOSITIONS)
    for universe in _universes(bound, max_args, levels):
        count += 1
        for name, verdict in proposition_checks(universe).items():
            if findings.get(name) is None and not verdict.holds:
                findings[name] = SweepFinding(universe, verdict)
            findings.setdefault(name, None)
    return count, findings
