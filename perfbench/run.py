"""hybridctl benchmark.

    python3 perfbench/run.py --workload train-pendulum --seed 1 --seconds 20 --trace 0

``--trace 0`` times set-up (median of fresh-interpreter set-ups) and then
repeats the workload's pass: at least MIN_PASSES times, and more while the
next pass is expected to end within ``--seconds``.  Each end-to-end time is
the median over passes.
``--trace 1`` makes a traced set-up plus pass between two untraced ones,
reports per-layer self times, call counts and the tracing overhead, then
runs the fixed-shape microbenchmarks.  Both modes check the outputs afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Figures are
user-space wall-clock timings on whatever machine runs this; no system-wide
tracing, CPU pinning or cache dropping is done.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

SETUP_REPEATS = 5
MIN_PASSES = 2
NOTE = ("user-space wall-clock timings in one process with one BLAS thread; "
        "no system-wide tracing, CPU pinning or cache dropping; the host may "
        "be shared")


def unit_of(name: str) -> str:
    if name in spec.END_TO_END_UNITS:
        return spec.END_TO_END_UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


def timed_run(wl, seed: int, seconds: float, work: Path):
    clock = time.perf_counter
    setup_dir = work / "setup"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, str(spec.HERE / "setup_once.py"), str(seed), str(setup_dir),
             json.dumps(wl.config)], capture_output=True, text=True, timeout=170)
        setup_times.append(clock() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")

    import workloads

    tally = workloads.Tally()
    steps = workloads.count_steps(wl, setup_dir)
    passes = []
    start = clock()
    # after MIN_PASSES, start another pass only if it should end within --seconds
    while (len(passes) < MIN_PASSES
           or (clock() - start) * (len(passes) + 1) / len(passes) <= seconds):
        pass_dir = work / f"pass{len(passes)}"
        passes.append(workloads.run_pass(wl, seed, setup_dir, pass_dir, tally))
    workloads.check_outputs(wl, seed, setup_dir,
                            [work / f"pass{i}" for i in range(len(passes))], tally)

    total_steps = sum(steps.values())
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in ("train_s", "sweep_s", "respond_s"):
        metrics[key] = statistics.median(p[key] for p in passes)
    metrics["sim_steps_per_s"] = statistics.median(
        total_steps / (p["train_s"] + p["sweep_s"] + p["respond_s"]) for p in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"passes": passes, "steps_per_pass": steps, "setup_samples_s": setup_times}
    return tally, metrics, info


def traced_run(wl, seed: int, work: Path):
    import micro
    import tracing
    import workloads

    clock = time.perf_counter
    tally = workloads.Tally()

    def setup_and_pass(root: Path) -> float:
        t0 = clock()
        workloads.setup(wl.config, seed, root / "setup", tally)
        workloads.run_pass(wl, seed, root / "setup", root / "pass0", tally)
        return clock() - t0

    # untraced passes before and after the traced one, so that a drift in
    # machine speed and first-call costs do not land in the overhead
    before = setup_and_pass(work / "before")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = setup_and_pass(work / "traced")
    finally:
        tracer.uninstall()
    after = setup_and_pass(work / "after")
    workloads.check_outputs(wl, seed, work / "before" / "setup",
                            [work / name / "pass0" for name in ("before", "traced", "after")],
                            tally)

    metrics = tracer.summary()
    metrics["trace.overhead_s"] = traced - (before + after) / 2.0
    micro_values, micro_absent = micro.run(seed)
    metrics.update(micro_values)
    info = {"untraced_s": [before, after], "traced_s": traced,
            "spans": len(tracer.span_name), "absent": tracer.absent + micro_absent}
    return tally, metrics, info


def _git_sha() -> str:
    git = spec.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _l2_size() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL2_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    return out or "unknown"


def environment_stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "l2_cache_bytes": _l2_size(),
        "note": NOTE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hybridctl benchmark")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec.pin_single_thread()
    spec.use_checkout_source()
    wl = spec.WORKLOADS[args.workload]
    work = spec.ROOT / ".perfbench_work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics, info = traced_run(wl, args.seed, work)
        else:
            tally, metrics, info = timed_run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"environment": environment_stamp()}))
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "operations": tally.kinds, **info}))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
