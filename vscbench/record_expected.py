"""Regenerate expected.json: the output fingerprints of every operation of
every workload at full size for the recorded seed.

    PYTHONPATH=src python3 vscbench/record_expected.py

Only rerun it when the program's outputs change on purpose, and say why
in the change that commits the new file.  Each op is run twice and must
reproduce itself before its fingerprint is stored.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    recorded = {}
    scratch = workloads.BENCH_DIR.parent / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, workloads.RECORDED_SEED, "full", Path(tmp))
            check = workloads.OutputCheck(None)
            for op in wl.ops:
                for _ in range(2):
                    errors = check(op, op.run())
                    if errors:
                        print("\n".join(errors), file=sys.stderr)
                        return 1
            recorded[name] = check.seen
            print(f"{name}: {len(check.seen)} ops")
    doc = {"recorded_seed": workloads.RECORDED_SEED, "size": "full", "workloads": recorded}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
