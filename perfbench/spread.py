"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads grid-studies highdim cli --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out FILE]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, that spread as a share
of the metric's bound in BENCHMARK.json.  ``--out`` writes the summary and
every run's result, with its machine facts, as JSON; that is the form used
to record a baseline (perfbench/baseline.json).  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# "):
            tag, _, payload = line[2:].partition(" ")
            result[tag] = json.loads(payload)
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, runs = {}, {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            results.append(result)
        runs[workload] = results
        names = results[0]["metrics"]
        summary[workload] = {
            name: {**summarise([r["metrics"][name]["value"] for r in results]),
                   "unit": names[name]["unit"]}
            for name in names
        }
        print(f"== {workload} ({len(results)} seeds, {args.seconds} s, trace {args.trace})")
        for name, s in summary[workload].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            share = (f"  {s['spread'] / bounds[name]:.2f} of bound"
                     if name in bounds and s["spread"] is not None else "")
            print(f"{name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {spread}{share}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": args.seeds, "summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
