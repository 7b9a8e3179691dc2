"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload web-count --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the per-layer sweep (``perfbench/layers.py``) and
writes its spans to ``.perfbench_out/``.  The metric names and units are
those of ``BENCHMARK.json``.  The exit code is 0 only when every answer
was checked and correct; the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _steal_cpu_s() -> float | None:
    """CPU time the hypervisor gave to others (``/proc/stat`` steal), in s.

    Reported beside each result: on a shared machine it explains runs
    that are slow for reasons outside the program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The program's shared-memory segments start this helper process; it
    is not a child that ``active_children`` lists, and left alone it
    outlives the run until it notices the closed pipe.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _quantile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values), q))


def end_to_end(tally, setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    A run in which no op succeeded reports 0 for the latency and rate
    metrics; its ``failed`` count already marks it.
    """
    latencies = tally.latencies or [0.0]
    return {
        "setup_s": statistics.median(setup_times),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "slo_ok_ratio": tally.slo_ok / tally.timed,
        "op_p50_ms": 1e3 * _quantile(latencies, 0.5),
        "op_p95_ms": 1e3 * _quantile(latencies, 0.95),
        "edges_per_s": tally.edges / tally.busy_s if tally.busy_s else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if src not in sys.path:
        sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)

    from perfbench.loops import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    steal_start = _steal_cpu_s()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir, args.seconds)
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            from perfbench.layers import Sweep
            from perfbench.spans import Recorder

            recorder = Recorder()
            values, tally = Sweep(workload, workdir, recorder).run(args.seconds)
            recorder.write(os.path.join(
                outdir, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            tally = workload.run(args.seconds)
            values = end_to_end(tally, setup_times)
    finally:
        workload.close()
        for child in multiprocessing.active_children():
            child.join()
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    tally.problems[:0] = workload.problems
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not tally.problems
    samples = {"ops": tally.attempted, "timed_ops": tally.timed,
               "latency_samples": len(tally.latencies)}
    steal_end = _steal_cpu_s()
    if steal_start is not None and steal_end is not None:
        samples["steal_cpu_s"] = steal_end - steal_start
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"samples={samples} setup_s={setup_times}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    with open(os.path.join(
            outdir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({**result, "samples": samples}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
