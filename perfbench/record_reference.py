"""Record the reference statistics that repetitions at seed 0 are checked against.

    python3 perfbench/record_reference.py

Runs every workload once, in this process, at the reference seed and
writes ``perfbench/reference.json``.  Run it only at a commit whose output
is known to be right: the file pins that commit's random streams.
"""

from __future__ import annotations

import json

from rep import OUT_DIR, REFERENCE, REFERENCE_SEED, ROOT
from workloads import WORKLOADS


def main():
    OUT_DIR.mkdir(exist_ok=True)
    ref = {}
    for name, workload in WORKLOADS.items():
        failures, summary = workload.verify(
            workload.run(REFERENCE_SEED, ROOT, OUT_DIR))
        if failures:
            raise SystemExit(f"{name}: {'; '.join(failures)}")
        ref[name] = summary
        print(f"{name}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
