"""Command-line front end: validate, compare, rank, audit, ttb, capacities.

Exit codes: 0 on success, 1 on usage, parse or data errors, 2 when an
audit check that was expected to hold fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .core import Outcome, ProblemError, ascii_name
from .encodings import (
    BigSteppedCapacity,
    complete_polar_opposites,
    ttb_compare,
)
from .problem import (
    FIXTURES,
    Problem,
    ProblemFormatError,
    fixture_path,
    load_problem,
    read_problem,
)
from .rules import Rule, compare
from .audit import (
    BUNDLES,
    Axiom,
    AuditVerdict,
    check_axiom,
    proposition_checks,
    replay_witness,
    sweep_axiom,
    sweep_bundle,
    sweep_propositions,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    stem = path.removesuffix(".json")
    if stem in FIXTURES:
        return fixture_path(stem)
    raise ProblemFormatError(f"no such file: {path}")


def _load(path: str) -> Problem:
    return load_problem(_resolve(path))


def _warn_if_trivial(problem: Problem, quiet: bool):
    if problem.universe.is_trivial and not quiet:
        print(
            "warning: every argument has null importance; "
            "all comparisons are indifferent",
            file=sys.stderr,
        )


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "profiles": [sorted(ascii_name(n) for n in p) for p in witness.profiles],
        "args": [ascii_name(a) for a in witness.args],
        "note": witness.note,
    }


def _verdict_json(v):
    return {
        "check": v.check,
        "rule": v.rule.value,
        "holds": v.holds,
        "witness": _witness_json(v.witness),
    }


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    problem, report = read_problem(_resolve(args.path))
    if not report.ok:
        _emit(
            args,
            {
                "valid": False,
                "violations": [
                    {"code": v.code, "message": v.message} for v in report.violations
                ],
            },
            [f"{v.code}: {v.message}" for v in report.violations],
        )
        return EXIT_USAGE
    payload = {
        "valid": True,
        "arguments": len(problem.universe.arguments),
        "options": sorted(problem.options),
        "scale": list(problem.universe.scale.levels),
    }
    _emit(
        args,
        payload,
        [
            f"valid: {len(problem.universe.arguments)} arguments, "
            f"{len(problem.options)} options, "
            f"scale {'<'.join(problem.universe.scale.levels)}"
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    problem = _load(args.path)
    _warn_if_trivial(problem, args.quiet)
    a = problem.option(args.first)
    b = problem.option(args.second)
    rules = list(Rule) if args.rule is None else [Rule(args.rule)]
    outcomes = {rule: compare(rule, a, b) for rule in rules}
    payload = {
        "first": args.first,
        "second": args.second,
        "outcomes": {rule.value: out.value for rule, out in outcomes.items()},
    }
    lines = [
        f"{rule.display:<8} {out.value}" for rule, out in outcomes.items()
    ]
    if args.quiet and len(rules) == 1:
        lines = [outcomes[rules[0]].value]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankReport:
    """Pairwise outcome matrix over named options plus the undominated set.

    An option is maximal when no other option is strictly preferred to it;
    with an acyclic strict part the maximal set is never empty.  None of
    the shipped rules can produce a strict cycle, but the reporter checks
    anyway and surfaces any it finds.
    """

    rule: Rule
    options: tuple[str, ...]
    outcomes: Mapping[str, Mapping[str, Outcome]]
    maximal: tuple[str, ...]
    strict_cycles: tuple[tuple[str, ...], ...]


def _strict_cycles(names, outcomes) -> tuple[tuple[str, ...], ...]:
    # Depth-first search for a cycle in the strict-preference digraph.
    succ = {
        x: [y for y in names if outcomes[x][y] is Outcome.PREFER_FIRST] for x in names
    }
    color = {x: 0 for x in names}
    stack: list[str] = []
    cycles: list[tuple[str, ...]] = []

    def visit(x):
        color[x] = 1
        stack.append(x)
        for y in succ[x]:
            if color[y] == 1:
                cycles.append(tuple(stack[stack.index(y):] + [y]))
            elif color[y] == 0:
                visit(y)
        stack.pop()
        color[x] = 2

    for x in names:
        if color[x] == 0:
            visit(x)
    return tuple(cycles)


def rank_options(problem: Problem, rule: Rule) -> RankReport:
    """Compare every pair of the problem's options under one rule."""
    names = tuple(problem.options)
    if not names:
        raise ProblemFormatError("ranking needs at least one option")
    outcomes = {
        x: {y: compare(rule, problem.options[x], problem.options[y]) for y in names}
        for x in names
    }
    maximal = tuple(
        x
        for x in names
        if not any(outcomes[y][x] is Outcome.PREFER_FIRST for y in names if y != x)
    )
    return RankReport(rule, names, outcomes, maximal, _strict_cycles(names, outcomes))


def cmd_rank(args) -> int:
    problem = _load(args.path)
    _warn_if_trivial(problem, args.quiet)
    report = rank_options(problem, Rule(args.rule))
    names = report.options
    payload = {
        "rule": report.rule.value,
        "options": list(names),
        "matrix": {
            x: {y: report.outcomes[x][y].value for y in names} for x in names
        },
        "maximal": list(report.maximal),
        "strict_cycles": [list(c) for c in report.strict_cycles],
    }
    width = max(len(x) for x in names) + 2
    lines = [f"rule: {report.rule.display}"]
    header = " " * width + "".join(f"{y:<14}" for y in names)
    lines.append(header)
    for x in names:
        row = "".join(f"{report.outcomes[x][y].value:<14}" for y in names)
        lines.append(f"{x:<{width}}{row}")
    lines.append("maximal set: {" + ", ".join(report.maximal) + "}")
    if report.strict_cycles:
        lines.append(f"strict cycles: {[list(c) for c in report.strict_cycles]}")
    if args.quiet:
        lines = ["maximal set: {" + ", ".join(report.maximal) + "}"]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _parse_generate(bounds: str) -> tuple[int, int]:
    max_args = levels = None
    for token in bounds.split(","):
        token = token.strip()
        if not token:
            continue
        key, _, value = token.partition("=")
        key = key.strip().strip("|").lower()
        try:
            number = int(value.strip())
        except ValueError:
            raise ProblemFormatError(f"--generate: bad bound {token!r}") from None
        if key in ("x", "args"):
            max_args = number
        elif key in ("l", "levels"):
            levels = number
        else:
            raise ProblemFormatError(f"--generate: unknown bound {key!r}")
    if max_args is None or levels is None:
        raise ProblemFormatError('--generate needs both bounds, e.g. "|X|=5,|L|=3"')
    return max_args, levels


def _print_verdicts(args, verdicts, universe=None) -> None:
    payload = {"checks": [_verdict_json(v) for v in verdicts]}
    if universe is not None:
        payload["universe"] = [
            {"name": ascii_name(a.name), "polarity": a.polarity.value, "level": a.level}
            for a in universe.arguments
        ]
    lines = [v.describe() for v in verdicts]
    _emit(args, payload, lines)


def _audit_bundle_on_universe(args, bundle, rules, universe) -> int:
    failed_expected = False
    verdicts = []
    for rule in rules:
        report = bundle(rule, universe)
        verdicts.extend(report.checks)
        if rule is bundle.designated and not report.all_hold:
            failed_expected = True
    _print_verdicts(args, verdicts, universe)
    return EXIT_AUDIT if failed_expected else EXIT_OK


def _bundle_sweep_result(bundle, rule, max_args, levels) -> tuple[bool, str]:
    expect_all = rule is bundle.designated
    ok, finding = sweep_bundle(
        bundle, rule, max_args=max_args, levels=levels, expect_all_hold=expect_all
    )
    if expect_all:
        if ok:
            return ok, "holds on every universe in range"
        return ok, f"FAILS: {finding.verdict.describe()}"
    if finding is None:
        return ok, "UNEXPECTEDLY passes the whole bundle in range"
    verdict = finding.verdict
    replayed = replay_witness(verdict, finding.universe)
    return replayed, (
        f"fails as expected ({verdict.check}; witness "
        f"{'replays' if replayed else 'DOES NOT replay'})"
    )


def _print_propositions(args, count, failures) -> int:
    # ``failures`` maps each check to its first failed verdict, or None.
    lines = []
    payload = []
    for name, verdict in failures.items():
        if verdict is None:
            lines.append(f"{name:<34} ok")
        else:
            lines.append(f"{name:<34} FAIL  {verdict.describe()}")
        payload.append({"check": name, "ok": verdict is None})
    lines.append(f"({count} universes checked)")
    _emit(args, {"results": payload, "universes": count}, lines)
    return EXIT_OK if all(v is None for v in failures.values()) else EXIT_AUDIT


def _audit_sweep(args, rules) -> int:
    max_args, levels = _parse_generate(args.generate)
    if args.bundle == "propositions":
        count, findings = sweep_propositions(max_args=max_args, levels=levels)
        failures = {name: f and f.verdict for name, f in findings.items()}
        return _print_propositions(args, count, failures)
    if args.bundle is not None:
        bundle = BUNDLES[args.bundle]
        lines = []
        payload = []
        for rule in rules:
            ok, detail = _bundle_sweep_result(bundle, rule, max_args, levels)
            status = "ok" if ok else "FAIL"
            lines.append(f"{bundle.name:<10} {rule.value:<8} {status}  {detail}")
            payload.append(
                {"bundle": bundle.name, "rule": rule.value, "ok": ok, "detail": detail}
            )
        _emit(args, {"results": payload}, lines)
        return EXIT_OK if all(entry["ok"] for entry in payload) else EXIT_AUDIT

    axiom = Axiom(args.axiom)
    verdicts = []
    for rule in rules:
        finding = sweep_axiom(axiom, rule, max_args=max_args, levels=levels)
        holds = AuditVerdict(axiom.value, rule, True)
        verdicts.append(finding.verdict if finding else holds)
    payload = [
        {
            "axiom": axiom.value,
            "rule": v.rule.value,
            "holds": v.holds,
            "witness": _witness_json(v.witness),
        }
        for v in verdicts
    ]
    _emit(args, {"results": payload}, [v.describe() for v in verdicts])
    return _expectation_exit(args, verdicts)


def _expectation_exit(args, verdicts) -> int:
    expected = args.expect
    if expected is not None and any((expected == "holds") != v.holds for v in verdicts):
        return EXIT_AUDIT
    return EXIT_OK


def cmd_audit(args) -> int:
    if (args.path is None) == (args.generate is None):
        raise ProblemFormatError("audit needs a problem file or --generate, not both")
    if (args.axiom is None) == (args.bundle is None):
        raise ProblemFormatError("audit needs exactly one of --axiom or --bundle")

    rules = list(Rule) if args.rule in (None, "all") else [Rule(args.rule)]
    if args.generate is not None:
        return _audit_sweep(args, rules)

    universe = _load(args.path).universe
    if args.bundle == "propositions":
        checks = proposition_checks(universe)
        return _print_propositions(
            args, 1, {name: None if v.holds else v for name, v in checks.items()}
        )
    if args.bundle is not None:
        return _audit_bundle_on_universe(args, BUNDLES[args.bundle], rules, universe)

    axiom = Axiom(args.axiom)
    verdicts = [check_axiom(axiom, rule, universe) for rule in rules]
    _print_verdicts(args, verdicts, universe)
    return _expectation_exit(args, verdicts)


# ---------------------------------------------------------------------------
# ttb
# ---------------------------------------------------------------------------

def cmd_ttb(args) -> int:
    problem = _load(args.path)
    members = {
        args.first: problem.option(args.first).members,
        args.second: problem.option(args.second).members,
    }
    instance = complete_polar_opposites(problem.universe, members)
    outcome = ttb_compare(instance, args.first, args.second)
    a = instance.options[args.first]
    b = instance.options[args.second]
    agreement = {
        rule.value: compare(rule, a, b).value
        for rule in (Rule.DISCRI, Rule.BILEXI, Rule.LEXI)
    }
    coincide = all(v == outcome.value for v in agreement.values())
    payload = {
        "first": args.first,
        "second": args.second,
        "outcome": outcome.value,
        "cues": [ascii_name(c) for c in instance.cues],
        "agreement": agreement,
        "coincide": coincide,
    }
    lines = [
        f"ttb      {outcome.value}",
        "cues (most important first): " + ", ".join(instance.cues),
    ]
    for rule_name, value in agreement.items():
        lines.append(f"{rule_name:<8} {value}")
    lines.append(f"coincidence: {'ok' if coincide else 'FAIL'}")
    if args.quiet:
        lines = [outcome.value]
    _emit(args, payload, lines)
    return EXIT_OK if coincide else EXIT_AUDIT


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------

def cmd_capacities(args) -> int:
    problem = _load(args.path)
    _warn_if_trivial(problem, args.quiet)
    cap = BigSteppedCapacity.for_universe(problem.universe, args.base)
    rows = []
    for name, profile in problem.options.items():
        spos = cap.of(profile.pos)
        sneg = cap.of(profile.neg)
        rows.append((name, spos, sneg, spos - sneg))
    payload = {
        "base": cap.base,
        "options": {
            name: {"sigma_pos": sp, "sigma_neg": sn, "np": np_}
            for name, sp, sn, np_ in rows
        },
    }
    width = max(max((len(r[0]) for r in rows), default=0), len("option")) + 2
    lines = [f"base: {cap.base}"]
    lines.append(f"{'option':<{width}}{'sigma+':>12}{'sigma-':>12}{'np':>12}")
    for name, sp, sn, np_ in rows:
        lines.append(f"{name:<{width}}{sp:>12}{sn:>12}{np_:>12}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="essential output only")

    parser = _Parser(
        prog="proscons",
        description="Compare options by ordinal pros and cons; audit the rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a problem file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", parents=[common], help="compare two options")
    p.add_argument("path")
    p.add_argument("first")
    p.add_argument("second")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--rule", choices=[r.value for r in Rule])
    group.add_argument(
        "--all", action="store_const", const=None, dest="rule",
        help="all six rules (default)",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rank", parents=[common], help="pairwise matrix and maximal set")
    p.add_argument("path")
    p.add_argument("--rule", required=True, choices=[r.value for r in Rule])
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("audit", parents=[common], help="check axioms and bundles")
    p.add_argument("path", nargs="?")
    p.add_argument(
        "--generate", metavar="BOUNDS",
        help='sweep generated universes, e.g. "|X|=5,|L|=3"',
    )
    p.add_argument("--rule", choices=[r.value for r in Rule] + ["all"], default="all")
    p.add_argument("--axiom", choices=[a.value for a in Axiom])
    p.add_argument("--bundle", choices=[*BUNDLES, "propositions"])
    p.add_argument(
        "--expect", choices=["holds", "fails"],
        help="exit 2 unless the axiom verdict matches",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ttb", parents=[common], help="cue scan on two options")
    p.add_argument("path")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_ttb)

    p = sub.add_parser("capacities", parents=[common], help="capacity table per option")
    p.add_argument("path")
    p.add_argument("--base", type=int, default=None)
    p.set_defaults(func=cmd_capacities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
