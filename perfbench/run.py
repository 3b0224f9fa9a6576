"""cshd benchmark entry point.

    python3 perfbench/run.py --workload {grid-studies,highdim,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts and sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-studies", "highdim", "cli")
SETUP_PROBES = 3    # set-up-only processes before and again after the timed
                    # worker; setup_s is the median of all of them
TIME_LIMIT_S = 170  # the whole run, set-up probes included
# The environment of every process the benchmark starts.  One BLAS thread:
# OpenBLAS's default (one per core) runs highdim slower on a 2-core machine
# while keeping both cores busy, so its timings followed whatever else ran on
# the host.  A fixed hash seed, so that processes do not differ by their
# string hashes.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def loadavg() -> float | None:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def start_worker(args, mode: str, workdir: Path, deadline: float):
    """Run one worker process; return (seconds until its inputs were ready, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result.pop("ready_at") - spawned, result


def measure(args, workdir: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "git_commit": git_commit(), "loadavg_start": loadavg(),
    }
    if args.trace:
        _, result = start_worker(args, "trace", workdir / "trace", deadline)
    else:
        # Probes on both sides of the timed run, so that setup_s samples the
        # host over the whole run rather than over its first seconds.
        def probe_setups():
            return [start_worker(args, "setup", workdir / f"setup{i}", deadline)[0]
                    for i in range(SETUP_PROBES)]

        setups = probe_setups()
        ready, result = start_worker(args, "timed", workdir / "timed", deadline)
        setups += probe_setups()
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        result["info"].update(setup_samples_s=setups, worker_setup_s=ready)
    facts["loadavg_end"] = loadavg()
    info = result.pop("info")
    facts.update(numpy=info.pop("numpy"), blas=info.pop("blas"),
                 blas_threads=info.pop("blas_threads"))
    print("# facts " + json.dumps(facts))
    print("# info " + json.dumps(info))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result["metrics"].items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cshd benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cshd" / "__init__.py").is_file():
        print(f"error: {SRC} holds no cshd package; run from a full checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never made
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
