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
from .rules import Axiom, Rule, compare

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2

# The names of ``proscons.audit.BUNDLES``: only ``audit`` loads the harness and numpy.
BUNDLE_NAMES = ("theorem1", "theorem2")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    # Depth-first search for a cycle in the strict-preference digraph, on its own
    # stack so that a strict chain past the recursion limit is walked like a short
    # one. pending[0] runs over the roots, pending[k] over the successors of stack[k-1].
    succ = {
        x: [y for y in names if outcomes[x][y] is Outcome.PREFER_FIRST] for x in names
    }
    color = {x: 0 for x in names}
    stack: list[str] = []
    pending = [iter(names)]
    cycles: list[tuple[str, ...]] = []
    while pending:
        for y in pending[-1]:
            if color[y] == 1:
                cycles.append(tuple(stack[stack.index(y):] + [y]))
            elif color[y] == 0:
                color[y] = 1
                stack.append(y)
                pending.append(iter(succ[y]))
                break
        else:
            pending.pop()
            if stack:
                color[stack.pop()] = 2
    return tuple(cycles)


def rank_options(problem: Problem, rule: Rule) -> RankReport:
    """Compare each unordered pair of the problem's options once under one rule."""
    names = tuple(problem.options)
    if not names:
        raise ProblemFormatError("ranking needs at least one option")
    outcomes: dict[str, dict[str, Outcome]] = {x: {} for x in names}
    for i, x in enumerate(names):
        for y in names[i:]:
            out = compare(rule, problem.options[x], problem.options[y])
            outcomes[y][x], outcomes[x][y] = out.mirror(), out
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
            seen, max_args = max_args, number
        elif key in ("l", "levels"):
            seen, levels = levels, number
        else:
            raise ProblemFormatError(f"--generate: unknown bound {key!r}")
        if seen is not None:
            raise ProblemFormatError(f"--generate: bound {key!r} given twice")
    if max_args is None or levels is None:
        raise ProblemFormatError('--generate needs both bounds, e.g. "|X|=5,|L|=3"')
    return max_args, levels


def _universe_json(universe):
    # The arguments and the scale: enough to rebuild the universe.
    arguments = [{"name": ascii_name(a.name), "polarity": a.polarity.value, "level": a.level}
                 for a in universe.arguments]
    return {"universe": arguments, "scale": list(universe.scale.levels)}


def _found_in(finding):
    # A failure found by a sweep names the universe it holds in.
    return {} if finding is None else _universe_json(finding.universe)


def _bundle_sweep_result(designated, ok, finding) -> str:
    if designated:
        if finding is None:
            return "holds on every universe in range"
        return f"FAILS: {finding.verdict.describe()}"
    if finding is None:
        return "UNEXPECTEDLY passes the whole bundle in range"
    return (f"fails as expected ({finding.verdict.check}; witness "
            f"{'replays' if ok else 'DOES NOT replay'})")


def _print_propositions(args, count, findings) -> int:
    lines, payload = [], []
    for name, finding in findings.items():
        status = "ok" if finding is None else f"FAIL  {finding.verdict.describe()}"
        lines.append(f"{name:<34} {status}")
        witness = _witness_json(finding and finding.verdict.witness)
        payload.append(
            {"check": name, "ok": finding is None, "witness": witness, **_found_in(finding)}
        )
    lines.append(f"({count} universes checked)")
    _emit(args, {"results": payload, "universes": count}, lines)
    return EXIT_OK if all(f is None for f in findings.values()) else EXIT_AUDIT


def cmd_audit(args) -> int:
    from .audit import BUNDLES, PROPOSITIONS, AuditVerdict, sweep, sweep_bundle, sweep_range
    if (args.path is None) == (args.generate is None):
        raise ProblemFormatError("audit needs a problem file or --generate, not both")
    if (args.axiom is None) == (args.bundle is None):
        raise ProblemFormatError("audit needs exactly one of --axiom or --bundle")
    if args.bundle is not None and args.expect is not None:
        raise ProblemFormatError("--expect applies to --axiom audits only")
    if args.bundle == "propositions" and args.rule != "all":
        raise ProblemFormatError("--rule does not apply to --bundle propositions")

    rules = list(Rule) if args.rule == "all" else [Rule(args.rule)]
    generated = args.generate is not None
    if generated:
        max_args, levels = _parse_generate(args.generate)
    else:
        universe = _load(args.path).universe

    def run(plan, *, stop):
        # A file audit sweeps its one universe and reports every verdict.
        if generated:
            return sweep(plan, sweep_range(plan, max_args, levels), stop=stop)
        return sweep(plan, [universe])

    if args.bundle == "propositions":
        return _print_propositions(args, *run(PROPOSITIONS, stop=False))

    bundle = BUNDLES.get(args.bundle)
    if bundle and generated:
        payload, lines = [], []
        for rule in rules:
            designated = rule is bundle.designated
            ok, finding = sweep_bundle(bundle, rule, max_args=max_args, levels=levels,
                                       expect_all_hold=designated)
            detail = _bundle_sweep_result(designated, ok, finding)
            lines.append(f"{bundle.name:<10} {rule.value:<8} {'ok' if ok else 'FAIL'}  {detail}")
            payload.append({"bundle": bundle.name, "rule": rule.value, "ok": ok,
                            "detail": detail, **_found_in(finding)})
        _emit(args, {"results": payload}, lines)
        return EXIT_OK if all(entry["ok"] for entry in payload) else EXIT_AUDIT

    plans = [bundle.plan(rule) if bundle else ((args.axiom, args.axiom, rule),)
             for rule in rules]
    found = [run(plan, stop=True)[1] for plan in plans]
    # Each entry's verdict is its first failure, else that it holds.
    verdicts = [
        findings[key].verdict if findings[key] else AuditVerdict(check, rule, True)
        for plan, findings in zip(plans, found)
        for key, check, rule in plan
    ]
    if generated:  # an axiom sweep: one single-entry plan per rule
        payload = {"results": [
            {"axiom": v.check, "rule": v.rule.value, "holds": v.holds,
             "witness": _witness_json(v.witness), **_found_in(findings[v.check])}
            for v, findings in zip(verdicts, found)
        ]}
    else:
        payload = {"checks": [_verdict_json(v) for v in verdicts], **_universe_json(universe)}
    _emit(args, payload, [v.describe() for v in verdicts])
    if bundle:
        failed = any(not v.holds for v in verdicts if v.rule is bundle.designated)
    else:
        expect = args.expect
        failed = expect is not None and any((expect == "holds") != v.holds for v in verdicts)
    return EXIT_AUDIT if failed else EXIT_OK


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
    limit = sys.get_int_max_str_digits()  # |np| is at most the larger capacity
    rows = []
    for name, p in problem.options.items():
        # Some capacity is at least base**top >= 2**(k*top), k = bit_length - 1, and 2**10 > 10**3.
        past = limit and 3 * (cap.base.bit_length() - 1) * max(p.om_pos, p.om_neg) >= 10 * limit
        sp, sn = (0, 0) if past else (cap.of(p.pos), cap.of(p.neg))
        if past or (limit and max(sp, sn) >= 10**limit):
            raise ProblemFormatError(f"option {name!r}: a capacity has more than {limit} "
                                     "digits, past Python's int-to-str limit")
        rows.append((name, sp, sn))
    payload = {
        "base": cap.base,
        "options": {
            name: {"sigma_pos": sp, "sigma_neg": sn, "np": sp - sn}
            for name, sp, sn in rows
        },
    }
    table = [("option", "sigma+", "sigma-", "np")]
    table += [(name, str(sp), str(sn), str(sp - sn)) for name, sp, sn in rows]
    # Two spaces between columns however wide the values grow; numbers take at least 12.
    widths = [max(len(row[i]) + 2 for row in table) for i in range(4)]
    numbers = [max(12, w) for w in widths[1:]]
    lines = [f"base: {cap.base}"]
    lines += [row[0].ljust(widths[0]) + "".join(map(str.rjust, row[1:], numbers)) for row in table]
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
    p.add_argument("--bundle", choices=[*BUNDLE_NAMES, "propositions"])
    p.add_argument(
        "--expect", choices=["holds", "fails"],
        help="exit 2 unless the axiom verdict matches (axiom audits only)",
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    try:
        return args.func(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
