"""slnoise benchmark: one workload in a closed loop, one fresh process per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload call is repeated, each time in a fresh
process, until S seconds have passed (at least once); then fresh
processes, each timing one cold set-up, are started until S more seconds
have passed (at least one).  It prints the end-to-end metrics: the
median realizations per second, the median set-up time and the peak
resident memory of a repetition.
With ``--trace 1`` one untraced and one traced repetition give the
per-layer metrics.  Every repetition's output is checked.  The last line
of standard output is the JSON result; the line before it is the machine
stamp.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED = ("BENCHMARK.json", "src/slnoise/__init__.py",
            "configs/scheme_comparison.cfg")
TIME_LIMIT_S = 170.0  # every process of a run has ended by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class TreeRss(threading.Thread):
    """Samples the summed resident memory of a process and its descendants,
    so that worker processes count towards the peak."""

    PERIOD_S = 0.05

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._halt = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _tree(self, pid):
        pids = [pid]
        for task in Path(f"/proc/{pid}/task").iterdir():
            for child in (task / "children").read_text().split():
                pids += self._tree(int(child))
        return pids

    def _rss(self):
        total = 0
        for pid in self._tree(self.pid):
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        return total * self._page

    def run(self):
        while not self._halt.is_set():
            try:
                self.peak = max(self.peak, self._rss())
            except (OSError, ValueError):
                pass  # a process of the tree ended while it was read
            self._halt.wait(self.PERIOD_S)

    def stop(self):
        self._halt.set()
        self.join()


def run_child(workload, seed, mode, trace, deadline):
    """One repetition in a fresh process.

    Returns (result or None, exit code, peak resident bytes).  The child is
    killed at the deadline.
    """
    result_file = OUT_DIR / f"rep_{workload}_{seed}_{mode}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--result", str(result_file)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    sampler = TreeRss(proc.pid)
    sampler.start()
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        sampler.stop()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak = max(usage.ru_maxrss * 1024, sampler.peak)
    if code != 0 or not result_file.exists():
        return None, code, peak
    result = json.loads(result_file.read_text())
    result_file.unlink()
    return result, code, peak


def _git_sha():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256():
    """Hash of the package sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_stamp(versions: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure(workload, seed, seconds, deadline):
    """Closed loop of repetitions, then the cold set-up timings."""
    def loop(mode, budget):
        out = []
        start = time.monotonic()
        while not out or (time.monotonic() - start < budget
                          and time.monotonic() < deadline):
            out.append(run_child(workload, seed, mode, 0, deadline))
        return out

    reps = loop("call", seconds)
    setups = loop("setup", seconds)
    bad = [code for r, code, _ in setups if r is None]
    if bad:
        raise RuntimeError(f"set-up timing exited {bad[0]}")
    setup_s = [r["setup_s"] for r, _, _ in setups]
    done = [(r, peak) for r, _, peak in reps if r is not None]
    if not done:
        raise RuntimeError("no repetition completed")
    metrics = {
        "realizations_per_s": statistics.median(
            r["realizations"] / r["wall_s"] for r, _ in done),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(peak for _, peak in done) / 1e6,
    }
    return reps, metrics, {"setup_s": setup_s}


def measure_traced(workload, seed, seconds, deadline):
    """One untraced and one traced repetition; per-layer metrics."""
    reps = [run_child(workload, seed, "call", t, deadline) for t in (0, 1)]
    plain, traced = reps[0][0], reps[1][0]
    if plain is None or traced is None:
        raise RuntimeError("a repetition did not complete")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return reps, metrics, {}


def main(argv=None) -> int:
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: not a full checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    run = measure_traced if args.trace else measure
    try:
        reps, values, extra = run(args.workload, args.seed, args.seconds, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    failed = 0
    for r, code, _ in reps:
        problems = r["failures"] if r is not None else [f"exit code {code}"]
        if problems:
            failed += 1
            print(f"perfbench: {args.workload}: " + "; ".join(problems), file=sys.stderr)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    done = [r for r, _, _ in reps if r is not None]
    stamp = machine_stamp(done[0]["versions"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp, "metrics": metrics, **extra,
        "repetitions": [{"exit_code": code, "peak_rss_bytes": peak,
                         **{k: r[k] for k in ("wall_s", "realizations", "failures")
                            if r is not None}}
                        for r, code, peak in reps],
    }
    (OUT_DIR / f"result_{args.workload}_{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_fraction = {failed}/{len(reps)} = "
          f"{failed / len(reps):.3g}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
