"""Plans of checks, the theorem bundles, the public runners and the sweep driver.

Every check lives in ``axioms.CHECKS``; this module only decides which
checks run, on which rules, and in what order.  A plan is a tuple of
``(key, check, rule)`` entries: the key names the verdict, the check is a
``CHECKS`` name.  ``_run`` runs a plan on one universe and one shared
context; ``sweep`` runs it over many universes and keeps each key's first
failure.  The runners (``relation_properties``, ``refinement_check``,
``independence_corollaries``, ``encoding_equivalence``,
``proposition_checks``) are fixed plans, and a :class:`Bundle` is the plan
of one characterisation theorem: the axiom set that singles out the
order-of-magnitude rule, or the premise set that singles out the
signed-count levelwise rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core import DecisionUniverse, ProblemError
from ..rules import Rule
from .axioms import CHECKS, COROLLARIES, ENCODINGS, Axiom, AuditVerdict, Witness, refinement_name
from .matrices import AuditContext, admit, context_for
from .space import LEVEL_BOUND, UniverseTooLargeError, iter_universes


class NoWitnessFoundError(ProblemError):
    """A witness search exhausted its space without finding one."""


class EmptySweepError(ProblemError):
    """A sweep range that holds no universe to check."""


# ---------------------------------------------------------------------------
# Relation properties
# ---------------------------------------------------------------------------

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
    witness = CHECKS[refinement_name(fine, coarse)].sweep(context_for(universe, context), coarse)
    return None if witness is None else Witness(witness.profiles)


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
    plan = tuple((name, name, rule) for name, rule, _, _ in ENCODINGS)
    return _run(plan, universe, context)


# ---------------------------------------------------------------------------
# Running a plan
# ---------------------------------------------------------------------------

Plan = tuple[tuple[str, str, Rule], ...]  # (key, check, rule); the key names the verdict


def _tightest(plan: Plan) -> int:
    return min(CHECKS[check].bound for _, check, _ in plan)


def _run(
    plan: Plan,
    universe: DecisionUniverse,
    context: AuditContext | None,
    *,
    stop: bool = False,
) -> dict[str, AuditVerdict]:
    """Verdicts of ``(key, check, rule)`` entries in order, on one shared context.

    The universe is held to the tightest bound among the planned checks
    before any of them runs; ``stop`` ends the run at the first failure.
    """
    admit(universe, _tightest(plan))
    ctx = context_for(universe, context)
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
    other rules fails some check somewhere, with a witness that replays
    (``sweep_bundle`` judges both).  Calling the bundle runs all its checks
    in order on one universe.
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
    ) -> BundleReport:
        verdicts = _run(self.plan(rule), universe, context)
        return BundleReport(self.name, rule, tuple(verdicts.values()))

    def plan(self, rule: Rule) -> Plan:
        """The bundle's checks on one rule, each keyed by its own name."""
        return tuple((check, check, rule) for check in self.checks)


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

PROPOSITIONS = (
    ("biposs_complete", "completeness", Rule.BIPOSS),
    ("biposs_quasitransitive", "quasitransitivity", Rule.BIPOSS),
    ("impl_transitive", "transitivity", Rule.IMPL),
    *(
        (refinement_name(coarse, fine), refinement_name(coarse, fine), fine)
        for coarse, fine in REFINEMENT_CHAIN
    ),
    *((name, name, rule) for name, rule, _, _ in ENCODINGS),
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
    return _run(PROPOSITIONS, universe, context)


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepFinding:
    universe: DecisionUniverse
    verdict: AuditVerdict


def sweep_range(plan: Plan, max_args: int, levels: int) -> Iterator[DecisionUniverse]:
    """The range's universes, after refusing one that is empty or over a bound.

    A refused range must not pass for a sweep that found nothing.
    """
    if levels < 2:
        raise EmptySweepError(
            f"a sweep needs at least two levels (the null level plus one), got {levels}"
        )
    if max_args < 1:
        raise EmptySweepError(f"a sweep up to {max_args} arguments holds no universe")
    if levels > LEVEL_BOUND:
        raise UniverseTooLargeError(f"sweep reaches {levels} levels, level bound is {LEVEL_BOUND}")
    bound = _tightest(plan)
    if max_args > bound:
        raise UniverseTooLargeError(
            f"sweep reaches {max_args} arguments, enumeration bound is {bound}"
        )
    return iter_universes(max_args, levels)


def sweep(
    plan: Plan,
    universes: Iterable[DecisionUniverse],
    *,
    stop: bool = False,
) -> tuple[int, dict[str, SweepFinding | None]]:
    """Run a plan on each universe in turn; keep each key's first failure.

    Returns the number of universes examined and, per key in plan order,
    its first failure in the order of ``universes`` or ``None``.  ``stop``
    ends the run at the first failure.  A file audit sweeps one universe.
    """
    count = 0
    findings: dict[str, SweepFinding | None] = dict.fromkeys(key for key, _, _ in plan)
    for count, universe in enumerate(universes, 1):
        for key, verdict in _run(plan, universe, None, stop=stop).items():
            if not verdict.holds and findings[key] is None:
                findings[key] = SweepFinding(universe, verdict)
        if stop and any(findings.values()):
            break
    return count, findings


def sweep_bundle(
    bundle: Bundle,
    rule: Rule,
    *,
    max_args: int,
    levels: int,
    expect_all_hold: bool,
) -> tuple[bool, SweepFinding | None]:
    """Run a bundle over every universe in the sweep, up to its first failure.

    With ``expect_all_hold`` the sweep succeeds iff no check ever fails;
    without it, iff some check fails somewhere with a witness that replays
    through the scalar rules (the differential role).  The first failure,
    if any, comes back as the finding.
    """
    plan = bundle.plan(rule)
    _, findings = sweep(plan, sweep_range(plan, max_args, levels), stop=True)
    finding = next((f for f in findings.values() if f is not None), None)
    if expect_all_hold or finding is None:
        return (finding is None) == expect_all_hold, finding
    return replay_witness(finding.verdict, finding.universe), finding
