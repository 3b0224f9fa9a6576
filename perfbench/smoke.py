"""Smoke test of the benchmark: every workload at a tiny length.

    python3 perfbench/smoke.py [--seconds 1]

For each workload it runs ``run.py`` with ``--trace 0`` and ``--trace 1``
and checks that

* the run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``;
* every metric BENCHMARK.json names for that mode is emitted with its unit,
  and no other;
* no op failed: ``correct`` is true, ``failed`` is 0, ``pass_frac`` is 1 and
  ``fail_frac`` is 0;
* in the traced run, the layer self times plus the unattributed residual add
  up to the traced wall time.

It also checks that ``run.py`` exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = [f"{layer}.self_ms_per_op" for layer in LAYERS] + ["linalg.svd_ms_per_op"]


class SmokeFailure(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def run(root: Path, workload: str, seconds: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, seconds: int, expected: dict) -> dict:
    label = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, seconds, trace)
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{label}: failed ops\n{proc.stderr}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    require(units == expected, f"{label}: metrics/units {units} != {expected}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    require(all(math.isfinite(v) for v in values.values()), f"{label}: non-finite metric")
    return values


def check_sum(workload: str, values: dict) -> None:
    wall = values["trace.wall_ms_per_op"]
    parts = sum(values[name] for name in SELF_TIMES)
    residual = values["trace.unattributed_frac"] * wall
    require(all(values[name] >= 0 for name in SELF_TIMES), f"{workload}: negative self time")
    require(math.isclose(parts + residual, wall, rel_tol=1e-9),
            f"{workload}: self times {parts} + residual {residual} != wall {wall}")


def check_bare_directory() -> None:
    """Without src/ the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "grid-studies", 1, 0)
        require(proc.returncode != 0, "bare directory: run.py exited 0")
        require(proc.stdout.strip() == "", f"bare directory: printed {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        check_bare_directory()
        for workload in (w["name"] for w in spec["workloads"]):
            values = check_run(workload, 0, args.seconds, end_to_end)
            require(values["pass_frac"] == 1.0, f"{workload}: pass_frac {values['pass_frac']}")
            values = check_run(workload, 1, args.seconds, per_layer)
            require(values["fail_frac"] == 0.0, f"{workload}: fail_frac {values['fail_frac']}")
            check_sum(workload, values)
            print(f"ok {workload}")
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
