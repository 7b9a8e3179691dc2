"""Process-pool execution of phase 1 over shared memory.

The thread backend is bounded by the GIL whenever a kernel spends time
in Python bytecode; this backend sidesteps it entirely.  The Lotus
structure is copied once into a ``multiprocessing.shared_memory``
segment (:meth:`repro.core.structure.LotusGraph.to_shared`) and worker
processes rebuild zero-copy views, so per-worker memory overhead is a
few pages regardless of graph size.

Scheduling state — the work-stealing deques of
:class:`repro.parallel.scheduler.TileScheduler` plus the flattened tile
table — lives in a second shared segment, so steals are visible across
processes through ordinary array writes guarded by per-worker locks.

Workers run on the shared process runtime,
:class:`repro.parallel.workers.WorkerPool`: one pipe per worker carries
its partial counts and, when the parent runs with an enabled registry,
its ``worker`` span tree (true worker-side timestamps, one ``chunk``
child per executed chunk), stitched under the parent's
``phase1-processes`` span.  A crashed worker raises
:class:`~repro.parallel.workers.WorkerCrashError` after the survivors'
partial trees are stitched.

Counts are bit-identical to the sequential phase for any worker count:
every tile is executed exactly once and integer addition is associative.
Both segments are unlinked in a ``finally`` block, including when a
worker crashes (exercised by the fault-injection tests via
``fault_worker``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.core.structure import LotusGraph
from repro.core.tiling import Tile, tiles_for_phase1
from repro.obs import get_registry
from repro.parallel.scheduler import TileScheduler, chunk_tiles, plan_assignment
from repro.parallel.workers import FAULT_EXIT_CODE, WorkerCrashError, WorkerPool
from repro.util.shm import share_arrays

__all__ = ["WorkerCrashError", "count_hhh_hhn_processes", "FAULT_EXIT_CODE"]


def _phase1_worker(payload, channel, registry, root_span) -> dict:
    """Worker target: attach, drain the work-stealing deques (one
    ``chunk`` span per chunk), return partial counts."""
    from repro.parallel.executor import run_tile_batch
    # late import keeps the spawn pickle payload to plain manifests
    from repro.util.shm import attach_arrays

    worker_id, graph_manifest, sched_manifest, locks = payload
    started = time.perf_counter()
    lotus, graph_handle = LotusGraph.from_shared(graph_manifest)
    sched_handle = attach_arrays(sched_manifest)
    arrs = sched_handle.arrays
    sched = TileScheduler(arrs["queue"], arrs["bounds"], arrs["region"], locks)
    chunk_indptr = arrs["chunk_indptr"]
    tv, ts, te, tw = (
        arrs["tile_vertex"], arrs["tile_start"], arrs["tile_stop"], arrs["tile_work"],
    )
    hhh = hhn = executed = stolen = 0
    while True:
        chunk, was_stolen = sched.next_chunk(worker_id)
        if chunk is None:
            break
        lo, hi = int(chunk_indptr[chunk]), int(chunk_indptr[chunk + 1])
        batch = [
            Tile(int(tv[i]), int(ts[i]), int(te[i]), int(tw[i]))
            for i in range(lo, hi)
        ]
        with registry.span(
            "chunk", parent=root_span, chunk=int(chunk), stolen=bool(was_stolen)
        ) as cspan:
            a, b = run_tile_batch(lotus, batch)
            cspan.set("tiles", hi - lo)
            cspan.set("hits", a + b)
        hhh += a
        hhn += b
        executed += 1
        stolen += bool(was_stolen)
    wall_s = time.perf_counter() - started
    root_span.set("executed", executed)
    root_span.set("stolen", stolen)
    root_span.set("hits", hhh + hhn)
    root_span.set("wall_s", wall_s)
    del lotus, sched, arrs, chunk_indptr, tv, ts, te, tw
    graph_handle.close()
    sched_handle.close()
    return {"hhh": hhh, "hhn": hhn, "executed": executed, "stolen": stolen,
            "wall_s": wall_s}


def count_hhh_hhn_processes(
    lotus: LotusGraph,
    workers: int = 4,
    policy: str = "squared",
    degree_threshold: int = 512,
    chunks_per_worker: int = 8,
    start_method: str | None = None,
    fault_worker: int | None = None,
    graph_manifest: dict | None = None,
) -> tuple[int, int]:
    """Phase 1 on a pool of processes sharing the Lotus structure.

    Returns the ``(hhh, hhn)`` split, bit-identical to the sequential
    :func:`repro.core.count.count_hhh_hhn` for any ``workers``.
    ``fault_worker`` (tests only) makes that worker die with
    ``FAULT_EXIT_CODE`` before touching shared memory; the call then
    raises :class:`WorkerCrashError` after unlinking both segments.
    ``graph_manifest`` lends an existing shared segment already holding
    ``lotus`` (e.g. the serving cache's) — the per-call ``to_shared``
    copy is skipped and the borrowed segment is *not* unlinked here; the
    lender keeps ownership.

    With an enabled registry, each worker runs its own in-process
    registry under the propagated trace context and the resulting
    ``worker`` span trees (real worker-side timestamps, one ``chunk``
    child per chunk, distinct pids) are stitched under the
    ``phase1-processes`` span — including partial trees from the
    survivors of an injected crash.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    registry = get_registry()
    with registry.span(
        "phase1-processes", workers=workers, policy=policy
    ) as phase_span:
        tiles = tiles_for_phase1(
            lotus.he,
            partitions=2 * workers,
            policy=policy,
            degree_threshold=degree_threshold,
        )
        phase_span.set("tiles", len(tiles))
        if not tiles:
            phase_span.set("hits", 0)
            return 0, 0

        bounds = chunk_tiles(tiles, workers, chunks_per_worker)
        num_chunks = int(bounds.size - 1)
        tile_work = np.array([t.work for t in tiles], dtype=np.int64)
        chunk_costs = np.add.reduceat(tile_work.astype(np.float64), bounds[:-1])
        deques = plan_assignment(chunk_costs, workers)
        local_sched = TileScheduler.build(
            deques, locks=[nullcontext()] * workers
        )

        if graph_manifest is not None:
            graph_handle = None
            worker_graph_manifest = graph_manifest
        else:
            graph_handle = lotus.to_shared()
            worker_graph_manifest = graph_handle.manifest
        sched_handle = share_arrays(
            {
                "queue": local_sched.queue,
                "bounds": local_sched.bounds,
                "region": local_sched.region,
                "chunk_indptr": bounds,
                "tile_vertex": np.array([t.vertex for t in tiles], dtype=np.int64),
                "tile_start": np.array([t.start for t in tiles], dtype=np.int64),
                "tile_stop": np.array([t.stop for t in tiles], dtype=np.int64),
                "tile_work": tile_work,
            },
            meta={"kind": "tile-scheduler", "workers": workers},
        )
        shm_bytes = (
            graph_handle.nbytes if graph_handle is not None else 0
        ) + sched_handle.nbytes
        registry.counter("parallel.sched.tiles").add(len(tiles))
        registry.counter("parallel.sched.chunks").add(num_chunks)
        registry.gauge("parallel.sched.shm_bytes").set(shm_bytes)
        phase_span.set("chunks", num_chunks)
        phase_span.set("shm_bytes", shm_bytes)

        try:
            with WorkerPool(
                "worker", phase_span, start_method=start_method,
                fault=fault_worker,
            ) as pool:
                locks = [pool.ctx.Lock() for _ in range(workers)]
                pool.start(
                    _phase1_worker,
                    [
                        (w, worker_graph_manifest, sched_handle.manifest, locks)
                        for w in range(workers)
                    ],
                )
                results = pool.gather()
        finally:
            if graph_handle is not None:
                graph_handle.unlink()
            sched_handle.unlink()

        hhh = sum(r["hhh"] for r in results.values())
        hhn = sum(r["hhn"] for r in results.values())
        total_stolen = sum(r["stolen"] for r in results.values())
        registry.counter("parallel.sched.tasks_executed").add(
            sum(r["executed"] for r in results.values())
        )
        registry.counter("parallel.sched.tasks_stolen").add(total_stolen)
        wall_hist = registry.histogram("parallel.sched.worker_wall_s")
        for w in sorted(results):
            wall_hist.observe(results[w]["wall_s"])
        phase_span.set("hits", hhh + hhn)
        phase_span.set("tasks_stolen", total_stolen)
        return hhh, hhn
