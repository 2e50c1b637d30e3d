"""One repetition of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/rep.py --workload NAME --seed N --mode call|setup \
        [--trace 0|1] --result FILE

``call`` times one workload call, checks its output and, when traced,
records spans around the layer boundaries.  ``setup`` times one cold
``RunConfig.filters()`` call (kernel table plus filters) for the
workload's config: the first one in the process.  The result is a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import slnoise  # noqa: E402

if Path(slnoise.__file__).resolve().parent != ROOT / "src" / "slnoise":
    raise SystemExit(f"slnoise imported from {slnoise.__file__}, not from {ROOT / 'src'}")

import check  # noqa: E402
import spans  # noqa: E402
from run import OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 0
REFERENCE = HERE / "reference.json"


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_call(workload, seed: int, traced: bool) -> dict:
    tracer = spans.Tracer(f"{workload.name}-{seed}-{os.getpid()}") if traced else None
    uninstall = tracer.install() if traced else None
    try:
        start = time.perf_counter()
        out = workload.run(seed, ROOT, OUT_DIR)
        wall = time.perf_counter() - start
    finally:
        if uninstall:
            uninstall()
    failures, summary = workload.verify(out)
    if seed == REFERENCE_SEED:
        ref = json.loads(REFERENCE.read_text())[workload.name]
        failures += check.compare_reference(summary, ref)
    result = {"wall_s": wall, "realizations": workload.realizations(seed, ROOT, out),
              "failures": failures, "summary": summary}
    if traced:
        result["layers"] = spans.layer_metrics(tracer.spans, wall)
        trace_file = OUT_DIR / f"trace_{workload.name}_{seed}.json"
        trace_file.write_text(json.dumps(tracer.to_json()))
    return result


def run_setup(workload, seed: int) -> dict:
    cfg = workload.config(seed, ROOT)
    start = time.perf_counter()
    cfg.filters()
    return {"setup_s": time.perf_counter() - start}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("call", "setup"))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.mode == "call":
        result = run_call(workload, args.seed, bool(args.trace))
    else:
        result = run_setup(workload, args.seed)
    result["versions"] = versions()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
