"""Record the output digests the benchmark checks every run against.

    python3 perfbench/record.py

Runs one pass of each workload input set (``theorem1`` once, ``wide`` and
``decide`` for every seed of the pool) and every cold-phase CLI command
once, then rewrites ``perfbench/expected.json``.  Re-record only for a
change that is meant to alter verdicts, witnesses, outcomes or CLI output,
and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import COLD_COMMANDS, HERE, ROOT, WORKLOADS, _env, cli_digest, run_worker
from worker import POOL


def main() -> int:
    digests = {
        workload: {
            str(seed): run_worker(workload, seed)["digest"]
            for seed in ([0] if workload == "theorem1" else range(POOL))
        }
        for workload in WORKLOADS
    }
    cli = {
        " ".join(command): cli_digest(subprocess.run(
            [sys.executable, "-m", "proscons.cli", *command],
            cwd=ROOT, env=_env(), capture_output=True, text=True, check=True,
        ).stdout)
        for commands, _ in COLD_COMMANDS.values()
        for command in commands
    }
    (HERE / "expected.json").write_text(
        json.dumps({"digests": digests, "cli": cli}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
