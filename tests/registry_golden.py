"""Every ``CHECKS`` entry × six rules on a fixed universe set, failures replayed.

The universe set is ``iter_universes(3, 3)`` plus the shipped fixtures, each
check run only where its bound admits the universe.  ``registry_dump()``
gives one record per universe: its label, its number of verdicts and
the ``describe()`` line of each failure, with ``  replays`` or
``  DOES NOT REPLAY`` after it.  Every other verdict holds.
``tests/registry_golden.json`` pins the dump; run

    PYTHONPATH=src python tests/registry_golden.py

to write it again after a deliberate change of a verdict or a witness.
To check that a change keeps every verdict and witness on larger sets, run

    PYTHONPATH=src python tests/registry_golden.py --hash 4,3 3,5 4,4

It writes nothing; it prints the universe, verdict and failure counts of
the records over ``iter_universes(X, L)`` for each ``X,L`` in turn, and
the sha256 of their ``json.dumps(records, ensure_ascii=False, indent=1)``.
Equal hashes before and after a change mean equal dumps.
"""

import hashlib
import json
import sys
from pathlib import Path

from proscons import Rule, load_fixture
from proscons.audit import CHECKS, AuditContext, iter_universes, replay_witness

GOLDEN_PATH = Path(__file__).parent / "registry_golden.json"
FIXTURES = ("luc", "lucy", "luka")


def _label(u) -> str:
    return " ".join(a.name for a in u.arguments)


def registry_universes():
    """(label, universe) for every universe of the dump, in its order."""
    for u in iter_universes(3, 3):
        yield _label(u), u
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


def hash_record(ranges) -> str:
    """Counts and sha256 of the records over ``iter_universes(x, levels)`` per range."""
    records = [registry_record(_label(u), u)
               for x, levels in ranges for u in iter_universes(x, levels)]
    text = json.dumps(records, ensure_ascii=False, indent=1)
    verdicts = sum(r["verdicts"] for r in records)
    failures = sum(len(r["failures"]) for r in records)
    return (f"{len(records):,} universes, {verdicts:,} verdicts, {failures:,} failures\n"
            f"sha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--hash"]:
        print(hash_record(tuple(map(int, spec.split(","))) for spec in sys.argv[2:]))
    else:
        records = registry_dump()
        GOLDEN_PATH.write_text(json.dumps(records, ensure_ascii=False, indent=1) + "\n",
                               encoding="utf-8")
        print(f"{sum(r['verdicts'] for r in records)} verdicts over {len(records)} universes")
