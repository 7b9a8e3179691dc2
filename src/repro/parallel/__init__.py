"""Parallel execution substrate.

The paper parallelises with pthreads + work stealing (Section 5.1.3) and
evaluates load balance as thread idle time (Table 9).  Python threads
cannot reproduce hardware scheduling, so this package provides:

* :mod:`repro.parallel.partition` — global edge-balanced partitioning
  (the Table 9 comparator policy) alongside the per-vertex tilings of
  :mod:`repro.core.tiling`;
* :mod:`repro.parallel.scheduler` — the scheduling layer: a deterministic
  simulator (per-thread busy/idle time from exact per-tile work), the
  chunk autotuner, and the flat-array work-stealing deques;
* :mod:`repro.parallel.executor` — a real thread-pool backend running
  the phase-1 tiles concurrently (NumPy kernels release the GIL in their
  inner loops);
* :mod:`repro.parallel.procpool` — a process-pool backend sharing the
  Lotus structure and scheduler state via ``multiprocessing.shared_memory``;
* :mod:`repro.parallel.workers` — the one worker-process runtime (spawn,
  one pipe per worker, crash detection, telemetry stitching) under both
  the process backend and :mod:`repro.dist.runtime`;
* :mod:`repro.parallel.backend` — selection layer mapping
  ``auto | sequential | threads | processes`` onto the above.
"""

from repro.parallel.backend import BACKENDS, BackendDecision, resolve_backend, run_phase1
from repro.parallel.executor import count_hhh_hhn_parallel, count_hhh_hhn_parallel_split
from repro.parallel.partition import edge_balanced_global_tiles
from repro.parallel.procpool import count_hhh_hhn_processes
from repro.parallel.scheduler import (
    ScheduleResult,
    TileScheduler,
    chunk_tiles,
    idle_time_pct,
    plan_assignment,
    simulate_schedule,
)
from repro.parallel.workers import WorkerCrashError

__all__ = [
    "BACKENDS",
    "BackendDecision",
    "ScheduleResult",
    "TileScheduler",
    "WorkerCrashError",
    "chunk_tiles",
    "count_hhh_hhn_parallel",
    "count_hhh_hhn_parallel_split",
    "count_hhh_hhn_processes",
    "edge_balanced_global_tiles",
    "idle_time_pct",
    "plan_assignment",
    "resolve_backend",
    "run_phase1",
    "simulate_schedule",
]
