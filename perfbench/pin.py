"""Write reference.json: the outputs every benchmark operation is checked
against, for both input sizes.

    python3 perfbench/pin.py

The references were pinned once, at the commit that added the
benchmark, and are the benchmark's correctness gate: rerunning this
script on a later commit would make the gate accept whatever that
commit computes.  It stays so the pinning is reproducible and
reviewable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

PIN_SEED = 20230731  # the library's default Config.seed


def main() -> int:
    pinned = {}
    for size in workloads.SIZES:
        per_size = {}
        for name in ("grid", "deep", "bundle"):
            workload = workloads.make(name, PIN_SEED, size)
            outputs = {}
            for label, op in workload.ops():
                workload.before_op()
                outputs[label] = workload.output(label, op())
            per_size[workload.reference_key] = outputs
        pinned[size] = per_size
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
