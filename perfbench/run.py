"""Benchmark of the hegcn simulator's host time and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref-ama-8192 --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: the next iteration starts when the
previous one returns, until ``--seconds`` have passed and at least two
iterations have run.  Every iteration's outputs are checked outside its
timing (scores against the plaintext reference, counts against the analytic
mirror).  Iteration times are reported in units of a fixed calibration
workload (``cal``, see calibrate.py) timed just before and just after each
iteration, so that the host's drifting speed cancels out; set-up time is
scaled the same way to seconds on a reference host.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and reports per-module metrics.  The last line of stdout is the
result JSON; the line before it records the machine, versions, models and
seeds, and the raw wall times and calibrations.
DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("ref-ama-8192", "accept-cli-1024", "analytic-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is repeated until both hold, and its median reported
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
# a median needs two samples, and a traced run needs one untraced and one traced
MIN_ITERATIONS = 2
# Each calibration runs for CAL_SHARE of the iteration before it (CAL_FIRST_S
# before the first), so a long iteration is matched by a long sample of the
# host's speed.  calibrate.py says why iterations are timed in its units.
CAL_SHARE = 0.1
CAL_FIRST_S = 1.0


def import_hegcn():
    """Import hegcn from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import hegcn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hegcn from {src}: {exc}")
    if src not in Path(hegcn.__file__).resolve().parents:
        raise SystemExit(f"perfbench: hegcn resolved to {hegcn.__file__}, outside {src}")


def declared_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[kind]}


def tail(times: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; max below 11."""
    ordered = sorted(times)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def environment(wl, state, seed) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name,
        "input_seed": seed,
        **wl.describe(state),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from calibrate import REF_UNIT_S, calibrate
    from spans import Tracer, median_of
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None

    setup_cal = calibrate(CAL_FIRST_S)  # with cal[0] below, brackets the set-ups
    setup_times, setup_tags = [], []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS:
        tag = ("setup", len(setup_times))
        t0 = time.perf_counter()
        if tracer:
            with tracer.installed(tag):
                state = wl.setup(seed, workdir)
            setup_tags.append(tag)
        else:
            state = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    plain, traced, failed, work, diffs = [], [], 0, 0.0, []
    start = time.perf_counter()
    cal = [calibrate(CAL_FIRST_S)]  # cal[i] and cal[i + 1] bracket iteration i
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        is_traced = tracer is not None and i % 2 == 1
        try:
            t0 = time.perf_counter()
            if is_traced:
                with tracer.installed(("iteration", i)):
                    output = wl.iterate(state, i)
            else:
                output = wl.iterate(state, i)
            elapsed = time.perf_counter() - t0
            cal.append(calibrate(CAL_SHARE * elapsed))
            verdict = wl.check(state, output)
        except Exception:
            traceback.print_exc()
            failed += 1
            if len(cal) == i + 1:  # iterate raised before the closing calibration
                cal.append(calibrate(CAL_SHARE * (time.perf_counter() - t0)))
        else:
            unit_s = (cal[i] + cal[i + 1]) / 2
            (traced if is_traced else plain).append((i, elapsed, elapsed / unit_s))
            work += verdict.work
            diffs.append(verdict.max_abs_diff)
            if verdict.problems:
                print(f"iteration {i}: " + "; ".join(verdict.problems), file=sys.stderr)
                failed += 1
        i += 1
    attempted = i

    times = [t for _, _, t in plain]
    info = environment(wl, state, seed)
    info.update(
        iter_n=len(times),
        iter_s=[t for _, t, _ in plain],
        iter_cal=times,
        cal_s=cal,
        setup_n=len(setup_times),
        setup_raw_s=statistics.median(setup_times),
        setup_cal_s=setup_cal,
        reconcile_max_abs_diff=max(diffs, default=None),
    )
    if not times:
        raise SystemExit("perfbench: no iteration completed")
    if tracer:
        iter_tags = [("iteration", idx) for idx, _, _ in traced]
        if not iter_tags:
            raise SystemExit("perfbench: no traced iteration completed")
        metrics = {
            **median_of([tracer.iteration_metrics(tag) for tag in iter_tags]),
            **median_of([tracer.setup_metrics(tag) for tag in setup_tags]),
            "costmodel.reconcile_max_abs_diff": max(diffs),
            "trace_overhead_frac": statistics.median(t for _, _, t in traced) / statistics.median(times) - 1,
        }
        info["trace_self_sum_error"] = max(tracer.self_sum_error(tag) for tag in iter_tags)
        if info["trace_self_sum_error"] > 0.05:
            print("module self times do not add up to the root span", file=sys.stderr)
            failed += 1
        trace_path = WORK / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "iter_p50_cal": statistics.median(times),
            "iter_tail_cal": tail(times),
            "throughput_per_cal": work / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) / ((setup_cal + cal[0]) / 2) * REF_UNIT_S,
        }
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy loads: one process, no BLAS or OpenMP worker threads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_hegcn()
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
