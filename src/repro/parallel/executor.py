"""Real thread-pool execution of the phase-1 workload.

The vectorised kernels spend their time inside NumPy ufuncs, which
release the GIL, so a :class:`~concurrent.futures.ThreadPoolExecutor`
yields genuine concurrency for the tile-level parallelism of Section 4.6.
Results are bit-identical to the sequential phase because triangle
counting is a pure reduction.

Scheduling-dependent metrics (tile/batch counts, queue waits) are
namespaced ``parallel.sched.*`` — the run ledger classifies that prefix
as the never-gated ``timing`` tolerance class, so runs with different
worker counts or backends still produce identical *deterministic*
metric snapshots (see ``docs/testing.md``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.count import phase1_counts
from repro.core.structure import LotusGraph
from repro.core.tiling import Tile, tiles_for_phase1
from repro.obs import get_registry
from repro.parallel.scheduler import chunk_tiles
from repro.util.arrays import concat_ranges

__all__ = [
    "count_hhh_hhn_parallel",
    "count_hhh_hhn_parallel_split",
    "run_tile_batch",
]


def run_tile_batch(lotus: LotusGraph, batch: list[Tile]) -> tuple[int, int]:
    """Execute a batch of tiles, returning the ``(hhh, hhn)`` split.

    A tile is the arc range ``[start, stop)`` of its vertex's HE row, so
    a batch is one :func:`repro.core.count.phase1_counts` call over the
    concatenated ranges.  Used by both the thread backend (below) and
    the process backend (:mod:`repro.parallel.procpool`).
    """
    vertex, start, stop = np.array(
        [(t.vertex, t.start, t.stop) for t in batch], dtype=np.int64
    ).reshape(-1, 3).T
    arcs = concat_ranges(lotus.he.indptr[vertex] + start, stop - start)
    return phase1_counts(lotus, arcs)


def _run_traced_tile(lotus: LotusGraph, tile: Tile, parent) -> int:
    """One tile under a span (only called while observability is enabled)."""
    registry = get_registry()
    with registry.span("tile", parent=parent) as span:
        hits = sum(run_tile_batch(lotus, [tile]))
        span.set("vertex", tile.vertex)
        span.set("start", tile.start)
        span.set("stop", tile.stop)
        span.set("pair_work", tile.work)
        span.set("hits", hits)
    registry.histogram("parallel.sched.tile_work").observe(tile.work)
    return hits


def count_hhh_hhn_parallel(
    lotus: LotusGraph,
    threads: int = 4,
    policy: str = "squared",
    degree_threshold: int = 512,
) -> int:
    """Phase 1 executed on a thread pool over squared-edge tiles.

    ``p = 2 * threads`` partitions per heavy vertex, as in Section 5.8.
    Returns the HHH+HHN total (identical to the sequential count).
    """
    return sum(
        count_hhh_hhn_parallel_split(
            lotus, threads=threads, policy=policy,
            degree_threshold=degree_threshold,
        )
    )


def count_hhh_hhn_parallel_split(
    lotus: LotusGraph,
    threads: int = 4,
    policy: str = "squared",
    degree_threshold: int = 512,
) -> tuple[int, int]:
    """Like :func:`count_hhh_hhn_parallel` but returns ``(hhh, hhn)``."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    registry = get_registry()
    with registry.span(
        "phase1-parallel", threads=threads, policy=policy
    ) as phase_span:
        tiles = tiles_for_phase1(
            lotus.he,
            partitions=2 * threads,
            policy=policy,
            degree_threshold=degree_threshold,
        )
        phase_span.set("tiles", len(tiles))
        if not tiles:
            phase_span.set("hits", 0)
            return 0, 0
        registry.counter("parallel.sched.tiles").add(len(tiles))
        if threads == 1:
            if registry.enabled:
                hc = lotus.hub_count
                hhh = hhn = 0
                for t in tiles:
                    hits = _run_traced_tile(lotus, t, phase_span)
                    if t.vertex < hc:
                        hhh += hits
                    else:
                        hhn += hits
            else:
                hhh, hhn = run_tile_batch(lotus, tiles)
            phase_span.set("hits", hhh + hhn)
            return hhh, hhn
        # a few contiguous, work-balanced batches per worker; one Python
        # task per batch keeps dispatch overhead negligible
        bounds = chunk_tiles(tiles, threads, chunks_per_worker=4)
        batches = [tiles[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        registry.counter("parallel.sched.batches").add(len(batches))

        def run_batch_traced(batch: list[Tile], submitted: float) -> tuple[int, int]:
            # spans cross the thread boundary: the phase span is handed over
            # as the explicit parent (worker threads have no span stack)
            started = time.perf_counter()
            hc = lotus.hub_count
            with registry.span("batch", parent=phase_span) as span:
                hhh = hhn = 0
                for t in batch:
                    hits = _run_traced_tile(lotus, t, span)
                    if t.vertex < hc:
                        hhh += hits
                    else:
                        hhn += hits
                span.set("tiles", len(batch))
                span.set("queue_wait_s", started - submitted)
                span.set("hits", hhh + hhn)
            registry.histogram("parallel.sched.queue_wait_s", _WAIT_BUCKETS).observe(
                started - submitted
            )
            return hhh, hhn

        with ThreadPoolExecutor(max_workers=threads) as pool:
            if registry.enabled:
                submitted = time.perf_counter()
                futures = [
                    pool.submit(run_batch_traced, batch, submitted)
                    for batch in batches
                ]
                parts = [f.result() for f in futures]
            else:
                parts = list(
                    pool.map(lambda batch: run_tile_batch(lotus, batch), batches)
                )
        hhh = sum(p[0] for p in parts)
        hhn = sum(p[1] for p in parts)
        phase_span.set("hits", hhh + hhn)
        return hhh, hhn


# sub-millisecond to ~1 s: thread-pool queue waits on tile batches
_WAIT_BUCKETS = tuple(1e-6 * (4 ** i) for i in range(11))
