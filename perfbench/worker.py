"""One workload process: set up, then run the timed loop or the traced run.

``run.py`` starts it as::

    python worker.py --workload W --seed N --seconds S --mode setup|timed|trace --workdir DIR

It imports ``cshd`` from the checkout's ``src``, generates the inputs from
the seed, and notes that instant, ``ready_at``, which ends ``setup_s``.  It
prints one JSON line: ``ready_at`` and, in ``timed`` and ``trace`` mode,
``attempted``, ``failed``, ``metrics`` (name -> [value, unit]) and ``info``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Reference processes for the start-up split, as ``python -c CODE``.
REFERENCES = (("bare", "pass"), ("numpy", "import numpy"), ("cshd", "import cshd.cli"))
REFERENCE_REPEATS = 9
MAX_REPORTED_ERRORS = 5
MIN_TIMED_OPS = 100  # so that at least 10 latencies lie beyond p90
WARMUP_S = 2.0       # untimed rounds before the timed phase


def import_library():
    """Import cshd from this checkout's src and nowhere else."""
    if not (SRC / "cshd" / "__init__.py").is_file():
        raise SystemExit(f"error: no cshd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cshd

    if Path(cshd.__file__).resolve().parent != (SRC / "cshd").resolve():
        raise SystemExit(f"error: cshd imported from {cshd.__file__}, not from {SRC}")


def clocked(call):
    t0 = perf_counter()
    out = call()
    return out, perf_counter() - t0


class Tally:
    """Outcomes of the ops of one pass; ``seen`` is shared between passes so
    that an input's output must repeat across them too."""

    def __init__(self, seen: dict, errors: list):
        self.seen = seen
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.busy = 0.0
        self.evals = 0
        self.evals_ops = 0

    def record(self, op, call, timed: bool = True) -> None:
        """Run one op through ``call`` (a clock), check it, count it.

        Any exception fails the op; it is counted and reported and the run
        goes on.  An op that returned counts towards the latencies even when
        its check fails.
        """
        from workloads import OpFailure

        self.attempted += 1
        try:
            out, wall = call(op.run)
        except Exception as exc:
            self._fail(op, exc)
            return
        if timed:
            self.busy += wall
            self.latencies.append(wall)
        try:
            evals, text = op.check(out)
            if op.key is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.seen.setdefault(op.key, digest) != digest:
                    raise OpFailure(f"{op.label}: output differs from an earlier run of the same input")
        except Exception as exc:
            self._fail(op, exc)
            return
        if timed and evals is not None:
            self.evals += evals
            self.evals_ops += 1

    def _fail(self, op, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{op.label}: {exc!r}")
            traceback.print_exception(exc, file=sys.stderr)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_facts() -> dict:
    """BLAS name from numpy's build info and the thread count OpenBLAS uses."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def timed_run(workload, first, seconds: float) -> dict:
    errors: list[str] = []
    tally = Tally({}, errors)
    # Warm-up: whole rounds, checked but untimed, for at least WARMUP_S.
    warm_until = perf_counter() + WARMUP_S
    ops = first
    while True:
        for op in ops:
            tally.record(op, clocked, timed=False)
        ops = workload.round()
        if perf_counter() >= warm_until:
            break
    start = perf_counter()
    while True:
        for op in ops:
            tally.record(op, clocked)
        if perf_counter() - start >= seconds and len(tally.latencies) >= MIN_TIMED_OPS:
            break
        ops = workload.round()
    for op in workload.gate():
        tally.record(op, clocked, timed=False)

    if not tally.latencies or not tally.evals_ops:
        raise SystemExit(f"error: no op completed; first errors: {errors}")
    lat = sorted(tally.latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[-1]
    completed = len(lat)
    metrics = {
        "ops_per_s": [completed / tally.busy, "ops/s"],
        "op_p50_ms": [statistics.median(lat) * 1e3, "ms"],
        "op_p90_ms": [p90 * 1e3, "ms"],
        "evals_per_op": [tally.evals / tally.evals_ops, "count"],
        "pass_frac": [1.0 - tally.failed / tally.attempted, "ratio"],
        "peak_rss_mb": [peak_rss_mb(), "MB"],
    }
    info = {
        "samples": completed,
        "beyond_p90": sum(1 for v in lat if v > p90),
        "timed_phase_s": perf_counter() - start,
        "errors": errors,
    }
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "info": info}


def reference_processes() -> dict:
    """Median wall time of bare ``python``, ``import numpy`` and
    ``import cshd.cli`` processes, interleaved."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = {name: [] for name, _ in REFERENCES}
    for _ in range(REFERENCE_REPEATS):
        for name, code in REFERENCES:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            times[name].append(perf_counter() - t0)
    return {name: statistics.median(v) * 1e3 for name, v in times.items()}


def trace_run(workload, first, seconds: float) -> dict:
    import spans

    refs = reference_processes()
    tracer = spans.Tracer()
    seen: dict = {}
    errors: list[str] = []
    plain, traced = Tally(seen, errors), Tally(seen, errors)

    def run_pass(ops, on: bool):
        with tracer.installed(workload.functions) if on else nullcontext():
            for op in ops:
                if on:
                    traced.record(op, tracer.run)
                else:
                    plain.record(op, clocked)

    # Each round runs untraced and traced on the same inputs, alternating
    # which goes first so that warm-up effects cancel in overhead_frac.
    start = perf_counter()
    ops, rounds = first, 0
    while True:
        for on in ((False, True) if rounds % 2 == 0 else (True, False)):
            run_pass(ops, on)
        rounds += 1
        if perf_counter() - start >= seconds:
            break
        ops = workload.round()
    gate = workload.gate()
    for on in (False, True):
        run_pass(gate, on)

    n = len(traced.latencies)
    if not n or not plain.latencies:
        raise SystemExit(f"error: no op completed; first errors: {errors}")
    wall = traced.busy
    ms = 1e3 / n
    self_ms = {layer: tracer.self_s[layer] * ms for layer in (*spans.LAYERS, spans.SVD)}
    evals = tracer.name_calls[spans.FN_NAME]
    metrics = {
        "sets.calls_per_op": [tracer.calls["sets"] / n, "count"],
        "sets.ms_per_op": [tracer.outer_s["sets"] * ms, "ms"],
        "linalg.svd_calls_per_op": [tracer.name_calls[spans.SVD_NAME] / n, "count"],
        "linalg.svd_ms_per_op": [self_ms[spans.SVD], "ms"],
        "calculus.calls_per_op": [tracer.calls["calculus"] / n, "count"],
        "calculus.overhead_us_per_eval": [tracer.self_s["calculus"] * 1e6 / max(evals, 1), "us"],
        "registry.evals_per_op": [evals / n, "count"],
        "registry.fn_ms_per_op": [tracer.name_s[spans.FN_NAME] * ms, "ms"],
        "analysis.bound_calls_per_op": [tracer.name_calls[spans.BOUND_NAME] / n, "count"],
        "report.render_ms_per_op": [tracer.render_s * ms, "ms"],
        "report.bytes_per_op": [tracer.render_chars / n, "bytes"],
        "cli.python_start_ms": [refs["bare"], "ms"],
        "cli.numpy_import_ms": [refs["numpy"] - refs["bare"], "ms"],
        "cli.cshd_import_ms": [refs["cshd"] - refs["numpy"], "ms"],
        "cli.command_ms_per_op": [tracer.outer_s["cli"] * ms, "ms"],
        "trace.wall_ms_per_op": [wall * ms, "ms"],
        "trace.overhead_frac": [wall / plain.busy - 1.0, "ratio"],
        "trace.unattributed_frac": [(wall - tracer.attributed_s()) / wall, "ratio"],
        "fail_frac": [(plain.failed + traced.failed) / (plain.attempted + traced.attempted), "ratio"],
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = [self_ms[layer], "ms"]
    info = {"traced_ops": n, "untraced_ops": len(plain.latencies), "rounds": rounds,
            "errors": errors}
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli":
        workload = workloads.Cli(args.seed, args.workdir, in_process=args.mode == "trace")
    else:
        workload = workloads.IN_PROCESS[args.workload](args.seed)
    first = workload.round()
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # its spawn time from this.
    ready_at = time.monotonic()
    result = {}
    if args.mode != "setup":
        run = timed_run if args.mode == "timed" else trace_run
        result = run(workload, first, args.seconds)
        result["info"].update(blas_facts())
    result["ready_at"] = ready_at
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
