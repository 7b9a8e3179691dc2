"""Counting triangles in Lotus (Algorithm 3, Section 4.4).

Three phases, each with a bespoke data structure for its random accesses
(Table 2):

1. **HHH & HHN** — stream each vertex's hub-neighbour list from HE and
   test all pairs against the H2H bit array (random accesses confined to
   <= 256 MB of bits);
2. **HNN** — for each non-hub vertex ``v`` and non-hub neighbour ``u``,
   intersect the (16-bit) HE rows of ``u`` and ``v``;
3. **NNN** — Forward-style merge intersections inside NHE only, never
   touching hub edges (the Section 3.3 pruning).

Each phase is exposed separately so the benchmarks can time the Figure 6
breakdown; :func:`count_triangles_lotus` is the end-to-end entry point
(preprocessing included, as the paper reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.structure import LotusConfig, LotusGraph, build_lotus_graph
from repro.graph.csr import CSRGraph
from repro.obs import root_span, timed_phase
from repro.tc.intersect import batch_intersect_counts, batch_pairwise_counts
from repro.tc.result import TCResult
from repro.util.arrays import PAIR_CHUNK, pair_runs
from repro.util.timer import PhaseTimer

__all__ = [
    "LotusCounts",
    "count_hhh_hhn",
    "phase1_counts",
    "phase1_keys",
    "count_hnn",
    "count_nnn",
    "lotus_count_from_structure",
    "count_triangles_lotus",
]

@dataclass(frozen=True)
class LotusCounts:
    """Per-type triangle counts (the Figure 7 decomposition)."""

    hhh: int
    hhn: int
    hnn: int
    nnn: int

    @property
    def hub(self) -> int:
        """Triangles containing at least one hub (HHH + HHN + HNN)."""
        return self.hhh + self.hhn + self.hnn

    @property
    def total(self) -> int:
        return self.hub + self.nnn

    def hub_fraction(self) -> float:
        return self.hub / self.total if self.total else 0.0


def phase1_keys(
    lotus: LotusGraph, arcs: np.ndarray, chunk: int = PAIR_CHUNK
) -> Iterator[np.ndarray]:
    """H2H bit index of every phase-1 pair whose later hub is one of ``arcs``.

    ``arcs`` are HE arc positions; each pairs with every earlier arc of
    its row (:func:`~repro.util.arrays.pair_runs`), and a pair's key is
    ``tri[later] + h[earlier]`` with ``tri = h(h-1)/2`` computed once
    per arc.  The rows involved are checked once per arc before any key
    is made: hub IDs below the hub count (``IndexError``) and strictly
    ascending rows (``ValueError``), which together give every pair
    ``hub_count > h1 > h2 >= 0``.  Yields int64 key blocks of at most
    ``chunk`` pairs, h1-major within each row.
    """
    arcs = np.asarray(arcs, dtype=np.int64)
    if arcs.size == 0:
        return
    # the rows the pairs read, as a local CSR over HE arcs [lo, hi): from
    # the first arc's row start through the last arc
    indptr = lotus.he.indptr
    first_row = int(indptr.searchsorted(arcs.min(), side="right")) - 1
    last = int(arcs.max())
    end_row = int(indptr.searchsorted(last, side="right"))
    lo, hi = int(indptr[first_row]), last + 1
    rows = indptr[first_row : end_row + 1] - lo
    h = lotus.he.indices[lo:hi]
    if int(h.max()) >= lotus.h2h.n or int(h.min()) < 0:
        raise IndexError("hub ID out of range")
    descent = h[1:] <= h[:-1]
    # a row's first arc is not compared with the previous row's last
    descent[rows[1:-1] - 1] = False
    if descent.any():
        raise ValueError("HE rows must ascend strictly: pairs must satisfy h1 > h2")
    h64 = h.astype(np.int64)
    tri = h64 * (h64 - 1) // 2
    for later, earlier in pair_runs(rows, arcs - lo, chunk):
        yield tri[later] + h[earlier]


def phase1_counts(lotus: LotusGraph, arcs: np.ndarray) -> tuple[int, int]:
    """``(hhh, hhn)`` H2H hits of the pairs whose later hub is in ``arcs``.

    An arc in the row of a hub vertex (below ``he.indptr[hub_count]``)
    is HHH work, any other HHN: the split falls out of cutting the
    vertex loop at ``hub_count``.
    """
    arcs = np.asarray(arcs, dtype=np.int64)
    indptr = lotus.he.indptr
    in_hub_rows = arcs < indptr[min(lotus.hub_count, indptr.size - 1)]
    hhh, hhn = (
        sum(int(np.count_nonzero(lotus.h2h.test_keys(keys)))
            for keys in phase1_keys(lotus, part))
        for part in (arcs[in_hub_rows], arcs[~in_hub_rows])
    )
    return hhh, hhn


def count_hhh_hhn(lotus: LotusGraph) -> tuple[int, int]:
    """Phase 1: triangles with >= 2 hubs.  Returns ``(hhh, hhn)``.

    A pair (h1, h2) of hub neighbours of ``v`` forms a triangle iff
    ``H2H.isSet(h1, h2)``; it is HHH when ``v`` itself is a hub, HHN
    otherwise (Algorithm 3 lines 3-5, every HE arc as the later hub).
    """
    return phase1_counts(lotus, np.arange(lotus.he.indices.size, dtype=np.int64))


def count_hnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 2: triangles with exactly one hub (Algorithm 3 lines 7-9).

    For each vertex ``v`` and non-hub neighbour ``u`` (from NHE), count
    common *hub* neighbours via the 16-bit HE rows.
    """
    he_indptr = lotus.he.indptr
    he_indices = lotus.he.indices
    nhe_indptr = lotus.nhe.indptr
    nhe_indices = lotus.nhe.indices
    if fused:
        src = np.repeat(
            np.arange(lotus.num_vertices, dtype=np.int64), np.diff(nhe_indptr)
        )
        dst = nhe_indices.astype(np.int64, copy=False)
        return batch_pairwise_counts(
            he_indptr, he_indices, he_indptr, he_indices, src, dst
        )
    total = 0
    nhe_deg = np.diff(nhe_indptr)
    he_deg = np.diff(he_indptr)
    for v in np.flatnonzero((nhe_deg > 0) & (he_deg > 0)):
        us = nhe_indices[nhe_indptr[v] : nhe_indptr[v + 1]]
        query = he_indices[he_indptr[v] : he_indptr[v + 1]]
        counts = batch_intersect_counts(
            he_indptr, he_indices, query, us.astype(np.int64)
        )
        total += int(counts.sum())
    return total


def count_nnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 3: triangles between three non-hubs (Algorithm 3 lines 10-12).

    Forward-style counting restricted to the NHE sub-graph; hub edges are
    never loaded (the fruitless-search pruning of Section 3.3).
    """
    indptr = lotus.nhe.indptr
    indices = lotus.nhe.indices
    if fused:
        src = np.repeat(
            np.arange(lotus.num_vertices, dtype=np.int64), np.diff(indptr)
        )
        dst = indices.astype(np.int64, copy=False)
        return batch_pairwise_counts(indptr, indices, indptr, indices, src, dst)
    total = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2):
        row = indices[indptr[v] : indptr[v + 1]]
        counts = batch_intersect_counts(indptr, indices, row, row.astype(np.int64))
        total += int(counts.sum())
    return total


def lotus_count_from_structure(
    lotus: LotusGraph,
    timer: PhaseTimer | None = None,
    backend: str | None = None,
    workers: int | None = None,
    graph_manifest: dict | None = None,
) -> LotusCounts:
    """Run the three counting phases on a prebuilt structure.

    ``backend`` selects the phase-1 execution backend
    (``auto | sequential | threads | processes``; ``None`` means
    sequential — phases 2 and 3 are fully vectorised single passes and
    always run in-process).  ``workers`` sizes the thread/process pool.
    ``graph_manifest`` optionally hands the process backend an existing
    shared-memory manifest of ``lotus`` (the serving cache's segment) so
    repeated dispatches skip the per-call structure copy.  All backends
    are bit-identical.
    """
    timer = timer or PhaseTimer()
    with timed_phase(timer, "hhh+hhn") as span:
        if backend is None or backend == "sequential":
            hhh, hhn = count_hhh_hhn(lotus)
        else:
            # local import: repro.parallel.executor imports this module
            from repro.parallel.backend import run_phase1

            hhh, hhn = run_phase1(
                lotus,
                backend=backend,
                workers=workers or 4,
                graph_manifest=graph_manifest,
            )
        if span.enabled:
            deg = lotus.he.degrees()
            span.set("pairs_tested", int((deg * (deg - 1) // 2).sum()))
            span.set("bytes_touched", int(lotus.h2h.nbytes + lotus.he.indices.nbytes))
            span.set("hhh", hhh)
            span.set("hhn", hhn)
    with timed_phase(timer, "hnn") as span:
        hnn = count_hnn(lotus)
        if span.enabled:
            span.set("wedges_probed", int(lotus.nhe.num_edges))
            span.set("bytes_touched", int(lotus.he.indices.nbytes + lotus.nhe.indices.nbytes))
            span.set("hnn", hnn)
    with timed_phase(timer, "nnn") as span:
        nnn = count_nnn(lotus)
        if span.enabled:
            span.set("wedges_probed", int(lotus.nhe.num_edges))
            span.set("bytes_touched", int(lotus.nhe.indices.nbytes))
            span.set("nnn", nnn)
    return LotusCounts(hhh=hhh, hhn=hhn, hnn=hnn, nnn=nnn)


def count_triangles_lotus(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    backend: str | None = None,
    workers: int | None = None,
    partitioner: str = "hash",
) -> TCResult:
    """End-to-end LOTUS triangle counting: Algorithm 2 + Algorithm 3.

    The returned :class:`~repro.tc.result.TCResult` carries the phase
    breakdown (Figure 6) in ``phases`` and the per-type counts (Figure 7)
    plus the HE/NHE edge split (Figure 8) in ``extra``.  ``backend`` /
    ``workers`` select the phase-1 execution backend (see
    :func:`lotus_count_from_structure`).  ``backend="distributed"``
    instead shards the whole count across ``workers`` real processes
    (:mod:`repro.dist.runtime`) partitioned by ``partitioner``; the
    per-type counts are identical to every other backend.
    """
    if backend == "distributed":
        return _count_triangles_distributed(
            graph, config, shards=workers or 2, partitioner=partitioner
        )
    timer = PhaseTimer()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        lotus = build_lotus_graph(graph, config, timer=timer)
        counts = lotus_count_from_structure(
            lotus, timer=timer, backend=backend, workers=workers
        )
        span.set("triangles", counts.total)
        span.set("hub_count", lotus.hub_count)
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": backend or "sequential",
            "hub_count": lotus.hub_count,
            "hub_edges": lotus.hub_edges,
            "non_hub_edges": lotus.non_hub_edges,
            "hub_edge_fraction": lotus.hub_edge_fraction(),
        },
    )


def _count_triangles_distributed(
    graph: CSRGraph,
    config: LotusConfig | None,
    shards: int,
    partitioner: str,
) -> TCResult:
    """The ``backend="distributed"`` path of :func:`count_triangles_lotus`.

    The sharded runtime rebuilds the LOTUS orientation per shard, so
    there is no separate preprocess phase here; the whole run is one
    ``distributed`` phase whose worker-side spans carry the breakdown.
    """
    # local import: repro.dist.runtime imports LotusCounts from here
    from repro.dist.runtime import run_distributed_count

    timer = PhaseTimer()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        with timed_phase(timer, "distributed"):
            run = run_distributed_count(
                graph, config=config, shards=shards, partitioner=partitioner
            )
        counts = run.counts
        span.set("triangles", counts.total)
        span.set("hub_count", run.hub_count)
    total_edges = run.hub_edges + run.non_hub_edges
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": "distributed",
            "shards": run.shards,
            "partitioner": run.partitioner,
            "hub_count": run.hub_count,
            "hub_edges": run.hub_edges,
            "non_hub_edges": run.non_hub_edges,
            "hub_edge_fraction": run.hub_edges / total_edges if total_edges else 0.0,
            "boundary_edge_ratio": run.boundary_edge_ratio,
            "bytes_exchanged": run.bytes_exchanged,
        },
    )
