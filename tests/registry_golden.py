"""Every ``CHECKS`` entry × six rules on a fixed universe set, failures replayed.

The universe set is ``iter_universes(3, 3)`` plus the shipped fixtures, each
check run only where its bound admits the universe.  ``registry_dump()``
gives one record per universe: its label, its number of verdicts and
the ``describe()`` line of each failure, with ``  replays`` or
``  DOES NOT REPLAY`` after it.  Every other verdict holds.
``tests/registry_golden.json`` pins the dump; run

    PYTHONPATH=src python tests/registry_golden.py

to write it again after a deliberate change of a verdict or a witness.
"""

import json
from pathlib import Path

from proscons import Rule, load_fixture
from proscons.audit import CHECKS, AuditContext, iter_universes, replay_witness

GOLDEN_PATH = Path(__file__).parent / "registry_golden.json"
FIXTURES = ("luc", "lucy", "luka")


def registry_universes():
    """(label, universe) for every universe of the dump, in its order."""
    for u in iter_universes(3, 3):
        yield " ".join(a.name for a in u.arguments), u
    for name in FIXTURES:
        yield name, load_fixture(name).universe


def registry_record(label: str, u) -> dict:
    ctx = AuditContext(u)
    verdicts = [check.verdict(rule, u, context=ctx)
                for check in CHECKS.values() if len(u.arguments) <= check.bound
                for rule in Rule]
    failures = [
        verdict.describe() + ("  replays" if replay_witness(verdict, u) else "  DOES NOT REPLAY")
        for verdict in verdicts if not verdict.holds
    ]
    return {"universe": label, "verdicts": len(verdicts), "failures": failures}


def registry_dump() -> list[dict]:
    return [registry_record(label, u) for label, u in registry_universes()]


if __name__ == "__main__":
    records = registry_dump()
    GOLDEN_PATH.write_text(json.dumps(records, ensure_ascii=False, indent=1) + "\n",
                           encoding="utf-8")
    print(f"{sum(r['verdicts'] for r in records)} verdicts over {len(records)} universes")
