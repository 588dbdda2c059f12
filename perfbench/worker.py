"""One measured pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, one at a time, so every pass
pays its own imports and reports its own peak RSS.  It can also be run by
hand from the repository root:

    python3 perfbench/worker.py --workload wide --seed 3 [--traced] [--corrupt] [--setup-only]

It prints one JSON object: set-up seconds (imports plus input generation),
pass seconds, peak RSS, work counts, the output digest and the tallies of
the output checks.  With ``--traced`` the pass records spans around every
call into the package and adds the per-layer figures; the spans are also
written to ``.perfbench_out/``.  ``--corrupt`` damages one verdict or
outcome inside the pass, to show that the checks catch it.  ``--setup-only``
stops after set-up and prints only its time.

Workloads (the seed only chooses inputs; ``seed % POOL`` picks one of the
input sets whose output digests are recorded in ``expected.json``):

* ``theorem1``: the theorem-1 bundle swept over every universe with up to
  5 arguments on 4 levels, for all six rules.  Seed-independent.
* ``wide``: every pairwise axiom check, every replay and the refinement
  chain on one 12-argument universe on 5 levels.
* ``decide``: problem documents parsed, ranked under all six rules and
  compared through both capacity encodings; cue problems are also
  completed and cue-scanned.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
POOL = 32
EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import proscons  # noqa: E402
from proscons import (  # noqa: E402
    Argument,
    DecisionUniverse,
    ImportanceScale,
    Outcome,
    Polarity,
    Problem,
    Rule,
    compare_bilexi_np,
    compare_impl_cases,
    compare_np,
    complete_polar_opposites,
    parse_problem,
    ttb_compare,
)
from proscons.audit import (  # noqa: E402
    AuditContext,
    AuditVerdict,
    Axiom,
    RelationSet,
    SweepFinding,
    Witness,
    check_axiom,
    iter_universes,
    refinement_check,
    replay_witness,
    sweep_bundle,
    theorem1_bundle,
    weak_matrix,
)
from proscons.audit.reports import REFINEMENT_CHAIN, THEOREM1_AXIOMS  # noqa: E402
from proscons.cli import rank_options  # noqa: E402
from proscons.core import SUPERSCRIPT_CON, SUPERSCRIPT_PRO  # noqa: E402
from run import WIDE_AXIOM_NAMES  # noqa: E402

THEOREM1_BOUNDS = (5, 4)  # max arguments, levels
WIDE_ARGS, WIDE_LEVELS = 12, 5
WIDE_AXIOMS = tuple(Axiom(name) for name in WIDE_AXIOM_NAMES)
DECIDE_DOCS = 40      # documents per pass
DECIDE_CUE_EVERY = 4  # every fourth document is a cue problem

_OUTCOME_CODE = {
    Outcome.PREFER_FIRST: ">",
    Outcome.PREFER_SECOND: "<",
    Outcome.INDIFFERENT: "=",
    Outcome.INCOMPARABLE: "?",
}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent), counters and gauges kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter_ns(), parent)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0.0), value)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - covered[i]) / 1e9
        return out

    def total_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


class NullTracer:
    """Tracing off: spans and counters cost one method call each."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass


class TracedContext(AuditContext):
    """AuditContext that builds each rule's relations under their own spans.

    Untraced passes use ``AuditContext`` as it is; this subclass builds the
    same matrices through the public ``weak_matrix`` and ``RelationSet`` so
    the weak-matrix build and the derived parts can be timed apart.
    """

    def __init__(self, universe, tracer: Tracer, measure_peak: bool):
        super().__init__(universe)
        self._tracer = tracer
        self._measure_peak = measure_peak

    def rel(self, rule: Rule) -> RelationSet:
        relation = self._relations.get(rule)
        if relation is None:
            if self._measure_peak:
                tracemalloc.start()
            with self._tracer.span(f"audit.matrices.weak.{rule.value}"):
                weak = weak_matrix(self.space, rule)
            with self._tracer.span("audit.matrices.derive"):
                relation = RelationSet(weak)
            if self._measure_peak:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self._tracer.gauge_max(f"audit.matrices.peak_mb.{rule.value}", peak / 2**20)
            self._relations[rule] = relation
        return relation


# ---------------------------------------------------------------------------
# Check tallies and digests
# ---------------------------------------------------------------------------

class Tally:
    """Output checks made after a pass: attempted, failed, first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _witness_record(witness):
    if witness is None:
        return None
    return [[sorted(p) for p in witness.profiles], list(witness.args), witness.note]


def _verdict_record(verdict):
    return [verdict.check, verdict.rule.value, verdict.holds, _witness_record(verdict.witness)]


def _universe_record(universe):
    return [[a.name, a.polarity.value, a.level] for a in universe.arguments]


def _tampered(verdict: AuditVerdict) -> AuditVerdict:
    """The same failed verdict with every witness profile emptied."""
    witness = Witness(
        profiles=tuple(frozenset() for _ in verdict.witness.profiles),
        args=verdict.witness.args,
        note=verdict.witness.note,
    )
    return AuditVerdict(verdict.check, verdict.rule, False, witness)


def _expected_digest(workload: str, pool_seed: int):
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    return table.get("digests", {}).get(workload, {}).get(str(pool_seed))


# ---------------------------------------------------------------------------
# theorem1
# ---------------------------------------------------------------------------

def theorem1_pass(tracer, corrupt: bool):
    """Sweep the bundle for every rule; replay each refuting rule's witness."""
    records = []
    for rule in Rule:
        expect_all = rule is Rule.BIPOSS
        if isinstance(tracer, Tracer):
            ok, finding = _theorem1_sweep_traced(tracer, rule, expect_all)
        else:
            ok, finding = sweep_bundle(
                theorem1_bundle, rule,
                max_args=THEOREM1_BOUNDS[0], levels=THEOREM1_BOUNDS[1],
                expect_all_hold=expect_all,
            )
        universe = verdict = replayed = None
        if finding is not None:
            universe, verdict = finding.universe, finding.verdict
            if corrupt:
                verdict, corrupt = _tampered(verdict), False
            with tracer.span("audit.axioms.replay"):
                replayed = replay_witness(verdict, universe)
            tracer.count("replay.attempted")
            tracer.count("replay.ok", int(replayed))
        records.append((rule, expect_all, ok, universe, verdict, replayed))
    return records


def _theorem1_sweep_traced(tracer: Tracer, rule: Rule, expect_all: bool):
    """``sweep_bundle(theorem1_bundle, ...)`` rebuilt from public calls, with spans."""
    universes = iter_universes(*THEOREM1_BOUNDS)
    while True:
        with tracer.span("audit.space.iter"):
            universe = next(universes, None)
        if universe is None:
            return expect_all, None
        tracer.count("audit.space.universes")
        with tracer.span("audit.reports.bundle"):
            failure = _theorem1_bundle_traced(tracer, rule, universe, stop=not expect_all)
        if failure is not None:
            return not expect_all, SweepFinding(universe, failure)


def _theorem1_bundle_traced(tracer: Tracer, rule, universe, *, stop: bool):
    """``theorem1_bundle``'s check order; returns its first failure, if any."""
    with tracer.span("audit.space.build"):
        ctx = TracedContext(universe, tracer, measure_peak=False)
    failures = []
    diagonal = ctx.rel(rule).weak.diagonal().tolist()
    if not all(diagonal):
        witness = Witness(profiles=(ctx.space.members(diagonal.index(False)),))
        failures.append(AuditVerdict("reflexive", rule, False, witness))
    for axiom in (Axiom.QUASI_TRANSITIVITY,) + tuple(THEOREM1_AXIOMS):
        if stop and failures:
            break
        with tracer.span(f"audit.axioms.check.{axiom.value}"):
            verdict = check_axiom(axiom, rule, universe, context=ctx)
        tracer.count("audit.axioms.verdicts")
        if not verdict.holds:
            failures.append(verdict)
    return failures[0] if failures else None


def theorem1_check(records, tally: Tally):
    """Expectations, replays, the digest, and the profile pairs the sweep covered."""
    payload = []
    pairs = 0
    for rule, expect_all, ok, universe, verdict, replayed in records:
        tally.check(ok, f"theorem1 {rule.value}: sweep verdict not as expected")
        if verdict is not None:
            tally.check(bool(replayed), f"theorem1 {rule.value}: witness does not replay")
        for u in iter_universes(*THEOREM1_BOUNDS):
            pairs += 4 ** len(u.arguments)
            if universe is not None and u == universe:
                break
        payload.append([
            rule.value, expect_all, ok,
            _universe_record(universe) if universe is not None else None,
            _verdict_record(verdict) if verdict is not None else None,
            replayed,
        ])
    return payload, pairs


# ---------------------------------------------------------------------------
# wide
# ---------------------------------------------------------------------------

def wide_universe(pool_seed: int) -> DecisionUniverse:
    """12 arguments on levels 1..4 of a 5-level scale, 3 to 9 of them pros."""
    rng = random.Random(f"wide-{pool_seed}")
    scale = ImportanceScale(tuple(f"l{i}" for i in range(WIDE_LEVELS)))
    pros = rng.randint(3, WIDE_ARGS - 3)
    args = []
    for k in range(WIDE_ARGS):
        polarity = Polarity.PRO if k < pros else Polarity.CON
        args.append(Argument(f"{polarity.value}{k}", polarity, rng.randint(1, WIDE_LEVELS - 1)))
    return DecisionUniverse(scale, tuple(args))


def wide_pass(universe, tracer, corrupt: bool):
    traced = isinstance(tracer, Tracer)
    with tracer.span("audit.space.build"):
        if traced:
            ctx = TracedContext(universe, tracer, measure_peak=True)
        else:
            ctx = AuditContext(universe)
    if traced:
        for rule in Rule:
            ctx.rel(rule)
    records = []
    for axiom in WIDE_AXIOMS:
        for rule in Rule:
            with tracer.span(f"audit.axioms.check.{axiom.value}"):
                verdict = check_axiom(axiom, rule, universe, context=ctx)
            tracer.count("audit.axioms.verdicts")
            records.append(_replayed(tracer, verdict, universe, corrupt, must_hold=False))
            corrupt = corrupt and verdict.holds
    for coarse, fine in REFINEMENT_CHAIN:
        with tracer.span("audit.reports.refinement"):
            verdict = refinement_check(coarse, fine, universe, context=ctx)
        records.append(_replayed(tracer, verdict, universe, False, must_hold=True))
    return records


def _replayed(tracer, verdict, universe, corrupt: bool, *, must_hold: bool):
    replayed = None
    if not verdict.holds:
        if corrupt:
            verdict = _tampered(verdict)
        with tracer.span("audit.axioms.replay"):
            replayed = replay_witness(verdict, universe)
        tracer.count("replay.attempted")
        tracer.count("replay.ok", int(replayed))
    return verdict, replayed, must_hold


def wide_check(universe, records, tally: Tally):
    payload = [_universe_record(universe)]
    for verdict, replayed, must_hold in records:
        if must_hold:
            tally.check(verdict.holds, f"wide: {verdict.check} fails")
        if not verdict.holds:
            tally.check(bool(replayed), f"wide: {verdict.check}/{verdict.rule.value} does not replay")
        payload.append([_verdict_record(verdict), replayed])
    pairs = len(Rule) * 4 ** len(universe.arguments)
    return payload, pairs


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def decide_documents(pool_seed: int) -> list[tuple[bool, dict]]:
    """(is_cue_problem, document) pairs for one pass.

    Document sizes step through their ranges in a fixed order, so every
    pass holds the same mix of sizes; the seed draws names, polarities,
    levels and option members.
    """
    rng = random.Random(f"decide-{pool_seed}")
    docs = []
    for i in range(DECIDE_DOCS):
        j = i // DECIDE_CUE_EVERY
        if i % DECIDE_CUE_EVERY == DECIDE_CUE_EVERY - 1:
            docs.append((True, _cue_document(rng, j)))
        else:
            docs.append((False, _mixed_document(rng, i - j)))
    return docs


def _step(j: int, low: int, high: int, stride: int) -> int:
    """The j-th value of a fixed walk through ``low..high``."""
    return low + (j * stride) % (high - low + 1)


def _mixed_document(rng: random.Random, j: int) -> dict:
    """40-60 pro/con/both declarations on 10-30 levels, 20-40 options.

    Where those ranges leave a choice, the bundled fixtures decide: they
    hold as many pros as cons, no argument on the null level, and options
    of anything from none to all of the arguments.  So levels are drawn
    from the non-null ones, option sizes uniformly from 0 to all, and
    ``both``, which the fixtures lack, as often as ``pro`` and ``con``.
    Large options weigh the work whose cost grows with the members: the
    capacity sums of the encodings and the difference profiles of ``discri``.
    """
    levels = _step(j, 10, 30, 8)
    scale = [f"s{i}" for i in range(levels)]
    declarations, names = [], []
    for k in range(_step(j, 40, 60, 13)):
        polarity = rng.choice(("pro", "con", "both"))
        level = rng.randint(1, levels - 1)
        declarations.append({"name": f"a{k}", "polarity": polarity, "level": scale[level]})
        if polarity == "both":
            names += [f"a{k}{SUPERSCRIPT_PRO}", f"a{k}{SUPERSCRIPT_CON}"]
        else:
            names.append(f"a{k}")
    options = {
        f"o{k}": sorted(rng.sample(names, rng.randint(0, len(names))))
        for k in range(_step(j, 20, 40, 17))
    }
    return {"scale": scale, "arguments": declarations, "options": options}


def _cue_document(rng: random.Random, j: int) -> dict:
    """8-29 pros on pairwise distinct levels of 10-30 (a cue problem), 20-40 options."""
    levels = _step(j, 10, 30, 8)
    scale = [f"s{i}" for i in range(levels)]
    cue_levels = rng.sample(range(1, levels), _step(j, 8, levels - 1, 13))
    declarations = [
        {"name": f"c{k}", "polarity": "pro", "level": scale[level]}
        for k, level in enumerate(cue_levels)
    ]
    names = [d["name"] for d in declarations]
    options = {
        f"o{k}": sorted(rng.sample(names, rng.randint(1, len(names))))
        for k in range(_step(j, 20, 40, 17))
    }
    return {"scale": scale, "arguments": declarations, "options": options}


def decide_pass(docs, tracer, corrupt: bool):
    """Parse, rank under every rule, compare through both encodings, cue-scan.

    Returns the per-document results, the comparison count and the seconds
    spent in comparison calls (the pass minus parsing and cue completion).
    """
    results = []
    comparisons = 0
    compare_s = 0.0
    clock = time.perf_counter
    for cue, doc in docs:
        with tracer.span("problem.parse"):
            problem = parse_problem(doc)
        options = problem.options
        names = tuple(options)
        pairs = [(x, y) for x in names for y in names if x != y]
        start = clock()
        ranks = {}
        for rule in Rule:
            with tracer.span(f"cli.rank.{rule.value}"):
                ranks[rule] = rank_options(problem, rule)
            tracer.count(f"rules.comparisons.{rule.value}", len(names) ** 2)
        with tracer.span("encodings.np"):
            np_out = [compare_np(options[x], options[y]) for x, y in pairs]
        with tracer.span("encodings.bilexi_np"):
            bilexi_np_out = [compare_bilexi_np(options[x], options[y]) for x, y in pairs]
        compare_s += clock() - start
        comparisons += len(Rule) * len(names) ** 2 + 2 * len(pairs)
        tracer.count("encodings.np", len(pairs))
        tracer.count("encodings.bilexi_np", len(pairs))
        instance = ttb_out = None
        if cue:
            with tracer.span("encodings.complete"):
                instance = complete_polar_opposites(
                    problem.universe, {x: p.members for x, p in options.items()}
                )
            tracer.count("encodings.complete")
            start = clock()
            with tracer.span("encodings.ttb"):
                ttb_out = [ttb_compare(instance, x, y) for x, y in pairs]
            compare_s += clock() - start
            comparisons += len(pairs)
            tracer.count("encodings.ttb", len(pairs))
        if corrupt:
            x, y = pairs[0]
            wrong = Outcome.INCOMPARABLE
            if ranks[Rule.LEXI].outcomes[x][y] is wrong:
                wrong = Outcome.INDIFFERENT
            ranks[Rule.LEXI].outcomes[x][y] = wrong
            corrupt = False
        results.append((problem, pairs, ranks, np_out, bilexi_np_out, instance, ttb_out))
    return results, comparisons, compare_s


def decide_check(results, tally: Tally):
    """Cross-route agreement on every pair, and the outcome digest."""
    payload = []
    for i, (problem, pairs, ranks, np_out, bilexi_np_out, instance, ttb_out) in enumerate(results):
        options = problem.options
        lexi = ranks[Rule.LEXI].outcomes
        bilexi = ranks[Rule.BILEXI].outcomes
        impl = ranks[Rule.IMPL].outcomes
        for k, (x, y) in enumerate(pairs):
            tally.check(np_out[k] is lexi[x][y], f"doc {i}: compare_np != lexi on {x},{y}")
            tally.check(
                bilexi_np_out[k] is bilexi[x][y], f"doc {i}: compare_bilexi_np != bilexi on {x},{y}"
            )
            tally.check(
                compare_impl_cases(options[x], options[y]) is impl[x][y],
                f"doc {i}: compare_impl_cases != impl on {x},{y}",
            )
        record = {
            rule.value: [
                ["".join(_OUTCOME_CODE[report.outcomes[x][y]] for y in report.options)
                 for x in report.options],
                list(report.maximal),
            ]
            for rule, report in ranks.items()
        }
        record["np"] = "".join(_OUTCOME_CODE[o] for o in np_out)
        record["bilexi_np"] = "".join(_OUTCOME_CODE[o] for o in bilexi_np_out)
        if instance is not None:
            completed = Problem(instance.universe, instance.options)
            for rule in (Rule.DISCRI, Rule.BILEXI, Rule.LEXI):
                scan = rank_options(completed, rule).outcomes
                for k, (x, y) in enumerate(pairs):
                    tally.check(
                        ttb_out[k] is scan[x][y], f"doc {i}: ttb != {rule.value} on {x},{y}"
                    )
            record["ttb"] = "".join(_OUTCOME_CODE[o] for o in ttb_out)
        payload.append(record)
    return payload


# ---------------------------------------------------------------------------
# Per-layer figures of a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    own = tracer.self_seconds()
    total = tracer.total_seconds()
    counts = tracer.counts
    out: dict[str, float] = {}

    def per_call_us(span: str, count: str) -> float:
        return 1e6 * total.get(span, 0.0) / counts[count] if counts[count] else 0.0

    for axiom in Axiom:
        out[f"audit.axioms.check_s.{axiom.value}"] = own.get(f"audit.axioms.check.{axiom.value}", 0.0)
    out["audit.axioms.replay_s"] = own.get("audit.axioms.replay", 0.0)
    out["audit.axioms.verdicts"] = counts["audit.axioms.verdicts"]
    out["audit.axioms.replayed_ratio"] = (
        counts["replay.ok"] / counts["replay.attempted"] if counts["replay.attempted"] else 0.0
    )
    for rule in Rule:
        out[f"audit.matrices.weak_s.{rule.value}"] = own.get(f"audit.matrices.weak.{rule.value}", 0.0)
        out[f"audit.matrices.peak_mb.{rule.value}"] = tracer.gauges.get(
            f"audit.matrices.peak_mb.{rule.value}", 0.0
        )
        out[f"rules.compare_us.{rule.value}"] = per_call_us(
            f"cli.rank.{rule.value}", f"rules.comparisons.{rule.value}"
        )
    out["audit.matrices.derive_s"] = own.get("audit.matrices.derive", 0.0)
    out["audit.space.build_s"] = own.get("audit.space.build", 0.0)
    out["audit.space.iter_s"] = own.get("audit.space.iter", 0.0)
    out["audit.space.universes"] = counts["audit.space.universes"]
    out["audit.reports.refinement_s"] = own.get("audit.reports.refinement", 0.0)
    out["audit.reports.bundle_self_s"] = own.get("audit.reports.bundle", 0.0)
    out["rules.comparisons"] = sum(counts[f"rules.comparisons.{r.value}"] for r in Rule) + sum(
        counts[k] for k in ("encodings.np", "encodings.bilexi_np", "encodings.ttb")
    )
    out["encodings.np_us"] = per_call_us("encodings.np", "encodings.np")
    out["encodings.bilexi_np_us"] = per_call_us("encodings.bilexi_np", "encodings.bilexi_np")
    out["encodings.ttb_us"] = per_call_us("encodings.ttb", "encodings.ttb")
    out["encodings.complete_us"] = per_call_us("encodings.complete", "encodings.complete")
    out["problem.parse_s"] = own.get("problem.parse", 0.0)
    out["cli.rank_s"] = sum(total.get(f"cli.rank.{r.value}", 0.0) for r in Rule)
    out["bench.pass_self_s"] = own.get("bench.pass", 0.0)
    return out


def decide_mix(tracer: Tracer) -> dict[str, float]:
    """Shares of the traced decide pass spent in the encodings and in ``discri``."""
    total = tracer.total_seconds()
    encodings = sum(v for k, v in total.items() if k.startswith("encodings."))
    return {
        "encodings": encodings / total["bench.pass"],
        "discri": total[f"cli.rank.{Rule.DISCRI.value}"] / total["bench.pass"],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("theorem1", "wide", "decide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)

    if Path(proscons.__file__).resolve().parent != ROOT / "src" / "proscons":
        raise SystemExit(f"proscons imported from {proscons.__file__}, not from this checkout")
    pool_seed = args.seed % POOL
    workload = args.workload
    if workload == "wide":
        inputs = wide_universe(pool_seed)
    elif workload == "decide":
        inputs = decide_documents(pool_seed)
    else:
        inputs = None
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"workload": workload, "seed": args.seed, "setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.traced else NullTracer()
    extra = {}
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        if workload == "theorem1":
            records = theorem1_pass(tracer, args.corrupt)
        elif workload == "wide":
            records = wide_pass(inputs, tracer, args.corrupt)
        else:
            records, comparisons, compare_s = decide_pass(inputs, tracer, args.corrupt)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = Tally()
    if workload == "theorem1":
        payload, pairs = theorem1_check(records, tally)
        extra["compare_per_s"] = pairs / wall_s
    elif workload == "wide":
        payload, pairs = wide_check(inputs, records, tally)
        extra["compare_per_s"] = pairs / wall_s
    else:
        payload = decide_check(records, tally)
        extra["compare_per_s"] = comparisons / compare_s
    digest = _digest(payload)
    expected = _expected_digest(workload, 0 if workload == "theorem1" else pool_seed)
    tally.check(digest == expected, f"{workload}: output digest {digest[:12]} != recorded")

    result = {
        "workload": workload,
        "seed": args.seed,
        "pool_seed": pool_seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "digest": digest,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **extra,
    }
    if args.traced:
        result["layers"] = layer_metrics(tracer)
        if workload == "decide":
            result["mix"] = decide_mix(tracer)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
