"""Benchmark of the proscons package: end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload, both modes
    python3 perfbench/run.py --self-test                            # show the checks catch damage

Workloads, metric names, units and bounds are listed in ``BENCHMARK.json``
at the repository root.  A run starts one child process at a time:

* passes: fresh ``worker.py`` interpreters, one per pass, until the time
  budget is spent (at least two passes).  Each pass times its own set-up
  and work, reports its peak RSS, and checks its outputs;
* gap runs, spread over the gaps between passes: a fixed number (40) of
  fresh ``python -m proscons.cli`` runs of the workload's commands, each
  checked for exit code 0 and the recorded output, and a fixed number (16)
  of set-up-only worker starts, so ``setup_s`` is a median of many fresh
  set-ups and not only of the few passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
runs a cold-start probe, then alternates untraced and traced passes and
reports the per-layer self times of the traced ones plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics with their units, the seed, the Python and numpy
versions, ``nproc`` and why the workload was chosen.  The full record is
also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("theorem1", "wide", "decide")
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
PROBE_SAMPLES = 10
SETUP_SAMPLES = 16  # set-up-only worker starts per end-to-end run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

WIDE_AXIOM_NAMES = (  # the axioms checked on the wide workload, in passes and cold runs
    "ca", "nontriviality", "posc", "negc",
    "completeness", "weakunanimity", "posefficiency", "negefficiency",
)

# The CLI commands of each workload's cold phase, and how often each runs.
COLD_COMMANDS = {
    "theorem1": (
        [
            ["audit", "luka", "--bundle", "theorem1", "--rule", "all"],
            ["audit", "lucy", "--bundle", "theorem1", "--rule", "all"],
            ["audit", "--generate", "|X|=2,|L|=3", "--bundle", "theorem1", "--rule", "all"],
            ["audit", "--generate", "|X|=2,|L|=3", "--bundle", "theorem1", "--rule", "biposs"],
        ],
        10,
    ),
    "wide": (
        [["audit", "luc", "--axiom", axiom, "--rule", "all"] for axiom in WIDE_AXIOM_NAMES],
        5,
    ),
    "decide": (
        [
            ["compare", "luc", "a", "b"],
            ["compare", "lucy", "a", "home", "--rule", "biposs"],
            ["compare", "luka", "a", "b", "--rule", "discri"],
            ["rank", "luc", "--rule", "lexi"],
            ["rank", "luka", "--rule", "discri"],
            ["rank", "lucy", "--rule", "bilexi"],
            ["capacities", "luc"],
            ["capacities", "luka"],
            ["validate", "luc"],
            ["validate", "lucy"],
        ],
        4,
    ),
}


class BenchError(Exception):
    """The benchmark could not measure: missing sources or a crashed child."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _env(hash_seed: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def _run(argv: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - start, done


def run_worker(workload: str, seed: int, *, traced=False, corrupt=False, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--traced")
    if corrupt:
        argv.append("--corrupt")
    if setup_only:
        argv.append("--setup-only")
    elapsed, done = _run(argv, _env(hash_seed="0"))
    if done.returncode != 0:
        raise BenchError(f"worker {workload} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def cli_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def cold_sample(command: list[str], expected: str | None) -> tuple[float, bool, str]:
    """Wall milliseconds of one fresh CLI run, and whether its output is right."""
    elapsed, done = _run([sys.executable, "-m", "proscons.cli", *command], _env())
    ok = done.returncode == 0 and cli_digest(done.stdout) == expected
    note = "" if ok else f"`{' '.join(command)}` exited {done.returncode} or printed unexpected output"
    return elapsed * 1e3, ok, note


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise BenchError(f"{n} samples are too few for a tail")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class Run:
    """Tallies and raw samples of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.notes: dict[str, str] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(note)

    def absorb(self, result: dict) -> dict:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(result["failures"][: max(0, 10 - len(self.failures))])
        return result


def warm_up() -> None:
    """Compile the package's bytecode once, so no timed child pays for it."""
    _, done = _run([sys.executable, "-c", "import proscons.cli"], _env())
    if done.returncode != 0:
        raise BenchError(f"cannot import proscons.cli: {done.stderr.strip()[-800:]}")


class GapQueue:
    """Gap runs still to make, in a seeded order, and the samples of those made.

    A gap run is a cold CLI command, or ``None`` for a set-up-only worker start.
    """

    def __init__(self, run: Run, expected: dict):
        self.run = run
        self.expected = expected
        commands, repeats = COLD_COMMANDS[run.workload]
        self.pending = [c for c in commands for _ in range(repeats)] + [None] * SETUP_SAMPLES
        random.Random(f"gaps-{run.workload}-{run.seed}").shuffle(self.pending)
        self.cli_ms: list[float] = []
        self.setup_s: list[float] = []
        self.spent_s: list[float] = []

    def remaining_s(self) -> float:
        per_run_s = statistics.mean(self.spent_s) if self.spent_s else 0.3
        return per_run_s * len(self.pending)

    def take(self, k: int) -> None:
        for job in self.pending[:k]:
            start = time.perf_counter()
            if job is None:
                self.setup_s.append(
                    run_worker(self.run.workload, self.run.seed, setup_only=True)["setup_s"]
                )
            else:
                ms, ok, note = cold_sample(job, self.expected["cli"].get(" ".join(job)))
                self.run.check(ok, note)
                self.cli_ms.append(ms)
            self.spent_s.append(time.perf_counter() - start)
        del self.pending[:k]


def run_passes(run: Run, *, traced: bool, gaps: GapQueue | None = None) -> None:
    """Passes until the budget would be overrun; traced runs alternate modes.

    Gap runs, if given, are spread over the gaps between passes, so every
    kind of sample sees the same stretch of time; all of them run, even
    past the budget.
    """
    longest = 0.0
    while True:
        round_start = run.elapsed()
        run.passes.append(run.absorb(run_worker(run.workload, run.seed)))
        if traced:
            run.traced.append(run.absorb(run_worker(run.workload, run.seed, traced=True)))
        longest = max(longest, run.elapsed() - round_start)
        enough = len(run.passes) >= (1 if traced else MIN_PASSES)
        if gaps is not None and gaps.pending:
            left_s = run.seconds - run.elapsed() - gaps.remaining_s()
            more_passes = max(0, int(left_s // longest)) if enough else MIN_PASSES - len(run.passes)
            gaps.take(math.ceil(len(gaps.pending) / (more_passes + 1)))
        if enough and run.elapsed() + longest > run.seconds:
            if gaps is not None:
                gaps.take(len(gaps.pending))
            return


def end_to_end(run: Run, expected: dict) -> dict[str, float]:
    gaps = GapQueue(run, expected)
    run_passes(run, traced=False, gaps=gaps)
    percentile, tail_ms = tail(gaps.cli_ms)
    setups = [p["setup_s"] for p in run.passes] + gaps.setup_s
    run.notes["cli_cold_tail_ms"] = f"p{percentile:g} of {len(gaps.cli_ms)} cold CLI runs"
    run.notes["setup_s"] = f"median of {len(setups)} fresh set-ups"
    run.notes["passes"] = f"{len(run.passes)} passes"

    def median(key):
        return statistics.median(p[key] for p in run.passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median("wall_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "compare_per_s": median("compare_per_s"),
        "cli_cold_p50_ms": statistics.median(gaps.cli_ms),
        "cli_cold_tail_ms": tail_ms,
    }


def cold_start_probe(run: Run) -> dict[str, float]:
    """Bare interpreter, ``import proscons.cli``, and whether numpy came along."""
    code = "import sys, proscons.cli; print(int('numpy' in sys.modules))"
    bare, imported, numpy_flags = [], [], set()
    for _ in range(PROBE_SAMPLES):
        elapsed, done = _run([sys.executable, "-c", "pass"], _env())
        run.check(done.returncode == 0, "bare interpreter failed")
        bare.append(elapsed * 1e3)
        elapsed, done = _run([sys.executable, "-c", code], _env())
        run.check(done.returncode == 0, "import proscons.cli failed")
        imported.append(elapsed * 1e3)
        numpy_flags.add(done.stdout.strip())
    run.check(len(numpy_flags) == 1, f"numpy_loaded varies between runs: {numpy_flags}")
    interp_ms = statistics.median(bare)
    return {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": statistics.median(imported) - interp_ms,
        "cli.numpy_loaded": max(int(flag or 0) for flag in numpy_flags),
    }


def per_layer(run: Run) -> dict[str, float]:
    probe = cold_start_probe(run)
    run_passes(run, traced=True)
    layers = {
        key: statistics.median(t["layers"][key] for t in run.traced)
        for key in run.traced[0]["layers"]
    }
    untraced = statistics.median(p["wall_s"] for p in run.passes)
    traced = statistics.median(t["wall_s"] for t in run.traced)
    run.notes["passes"] = f"{len(run.traced)} traced and {len(run.passes)} untraced passes"
    if "mix" in run.traced[0]:
        run.notes["decide mix"] = ", ".join(
            f"{part} {100 * statistics.median(t['mix'][part] for t in run.traced):.0f}%"
            for part in run.traced[0]["mix"]
        ) + " of the traced pass"
    layers.update(probe)
    layers["bench.trace_overhead_pct"] = 100 * (traced / untraced - 1)
    layers["bench.fail_ratio"] = run.failed / run.attempted
    return layers


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def measure(spec: dict, expected: dict, workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; print its report; return the result line's object."""
    run = Run(workload, seed, seconds)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(run) if trace else end_to_end(run, expected)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    first = run.passes[0]
    meta = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "run_s": run.elapsed(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": nproc(),
        "notes": run.notes,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {**meta, **result, "passes": run.passes, "traced": [
        {k: v for k, v in t.items() if k != "layers"} for t in run.traced
    ]}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# workload {workload} (seed {seed}, trace {trace}, {seconds:g} s budget, "
          f"ran {run.elapsed():.1f} s): {why}")
    print(f"# python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}; "
          + "; ".join(f"{k}: {v}" for k, v in run.notes.items()))
    print(f"# fail_ratio {run.failed}/{run.attempted} = {meta['fail_ratio']:.3g}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    return result


def self_test(expected: dict) -> int:
    """Damage one verdict or outcome per workload; the checks must report it."""
    bites = []
    for workload in WORKLOADS:
        result = run_worker(workload, 0, corrupt=True)
        bites.append(result["failed"] > 0)
        print(f"{workload:<9} corrupted pass: failed {result['failed']}/{result['attempted']} "
              f"{'(caught)' if bites[-1] else '(MISSED)'}")
    command = COLD_COMMANDS["decide"][0][0]
    _, ok, _ = cold_sample(command, "0" * 64)
    bites.append(not ok)
    print(f"cli       wrong recorded output: {'caught' if bites[-1] else 'MISSED'}")
    _, ok, _ = cold_sample(["compare", "luc", "a", "missing"], expected["cli"].get(" ".join(command)))
    bites.append(not ok)
    print(f"cli       non-zero exit: {'caught' if bites[-1] else 'MISSED'}")
    print(json.dumps({"self_test": all(bites)}))
    return 0 if all(bites) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("give --workload or --self-test")

    try:
        if not (ROOT / "src" / "proscons" / "__init__.py").is_file():
            raise BenchError(f"no package sources under {ROOT / 'src' / 'proscons'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads((HERE / "expected.json").read_text())
        warm_up()
        if args.self_test:
            return self_test(expected)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            result = measure(spec, expected, args.workload, args.seed, seconds, args.trace)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = measure(spec, expected, workload, args.seed, seconds, trace)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
