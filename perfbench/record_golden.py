"""Record golden.json: one digest per operation the benchmark can run.

Run only at the commit whose behaviour defines the replay:

    PYTHONPATH=src python3 -m perfbench.record_golden

It records every size, workload and slot in one run and overwrites
perfbench/golden.json. Every operation goes through the user-facing path
(`step`). For `remote` the run with local components must give the same
digest, or recording stops.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from . import inputs
from .workloads import make

ROOT = Path(__file__).resolve().parent.parent


def record(workload: str, size: str, slot: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make(workload, size, slot, workdir, ROOT / "src")
    try:
        wl.setup()
        indices = list(range(wl.distinct))
        table = {}
        for i in indices:
            outcome = wl.step(i)
            if outcome.errors:
                raise SystemExit(f"{workload}/{size}/{slot}: step {i} failed")
            table.update((key, d) for key, d, _w in outcome.checks)
        for key, d, _w in wl.post_checks(indices).checks:
            if table[key] != d:
                raise SystemExit(f"{workload}/{size}/{slot}: local run differs at {key}")
        return table
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    golden = {"slots": inputs.SLOTS, "digests": {}}
    for size in sorted(inputs.SIZES):
        for workload in inputs.WORKLOADS:
            for slot in range(inputs.SLOTS):
                workdir = ROOT / "perfbench" / ".work" / f"record-{workload}-{size}-{slot}"
                table = record(workload, size, slot, workdir)
                golden["digests"].setdefault(size, {}).setdefault(workload, {})[str(slot)] = table
                print(f"{size} {workload} slot {slot}: {len(table)} operations", flush=True)
    out = ROOT / "perfbench" / "golden.json"
    out.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
