"""Real sharded execution of LOTUS triangle counting.

``N`` worker processes each own one partition of the vertex set (any of
the :data:`~repro.dist.partition.PARTITIONERS`).  A worker holds only
its shard's sub-CSR — the rank-oriented rows of its owned apexes — plus
replicated O(n) metadata (the shard map and ``hub_count``); remote rows
are never copied.  The vertices a shard references but does not own are
its ghost (halo) set: it knows their rank and hub bit, and resolves
adjacency questions about them over the wire.

The protocol is two coordinator-routed barrier rounds over
``multiprocessing`` pipes (deadlock-free because every shard sends every
stage message, even when empty):

1. each shard enumerates the wedges of its owned apexes, answers the
   checks whose middle vertex it also owns, and sends one batch of
   8-byte arc keys per remote target shard to the coordinator;
2. the coordinator routes the batches; targets answer membership with
   one vectorised ``searchsorted`` and the boolean vectors flow back the
   same way.  The requesting shard classifies its hits (HHH/HHN/HNN/NNN
   from replicated metadata alone) and reports per-phase counts.

The orientation is the exact LOTUS relabeling (``ra`` + ``hub_count``
from :class:`~repro.core.structure.LotusConfig`), so the merged
per-phase counts are identical to the sequential
:class:`~repro.core.count.LotusCounts` decomposition — not just the
total.

Shards run on the same process runtime as the process backend,
:class:`repro.parallel.workers.WorkerPool`; this module only routes.
``fault_shard`` injects a hard crash (``os._exit(FAULT_EXIT_CODE)``),
surfaced as :class:`~repro.parallel.workers.WorkerCrashError`
(``"shard N died with exit code C"``) after the surviving shards are
aborted and their partial span trees stitched; ``deadline_s`` bounds the
run and raises ``TimeoutError``.  With an enabled registry each shard
records real worker-side spans (``shard`` with
``enumerate``/``exchange``/``tally`` children) that are stitched under
the coordinator's ``distributed`` span, and the run emits the ``dist.*``
metric family (shard edge counts, boundary-edge ratio, local/remote
checks, bytes exchanged).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.count import LotusCounts
from repro.core.structure import LotusConfig
from repro.dist.partition import PARTITIONERS
from repro.dist.plan import (
    build_plan,
    count_hubs,
    lotus_rank,
    wedge_chunks,
)
from repro.graph.csr import CSRGraph
from repro.obs import get_registry
from repro.parallel.workers import WorkerPool
from repro.util.arrays import encode_keys, match_keys

__all__ = [
    "DistributedRunResult",
    "run_distributed_count",
    "resolve_partitioner",
]

# CLI-friendly aliases for PARTITIONERS keys
_PARTITIONER_ALIASES = {"degree": "degree_balanced"}


@dataclass(frozen=True)
class DistributedRunResult:
    """Merged outcome of one distributed count."""

    counts: LotusCounts
    shards: int
    partitioner: str
    hub_count: int
    hub_edges: int
    non_hub_edges: int
    per_shard_triangles: np.ndarray
    per_shard_arcs: np.ndarray
    boundary_edges: int
    boundary_edge_ratio: float
    local_checks: int
    remote_checks: int
    bytes_exchanged: int


def resolve_partitioner(name: str) -> str:
    """Map a CLI spelling (``degree``) onto a ``PARTITIONERS`` key."""
    name = _PARTITIONER_ALIASES.get(name, name)
    if name not in PARTITIONERS:
        known = ", ".join(sorted(PARTITIONERS) + sorted(_PARTITIONER_ALIASES))
        raise ValueError(f"unknown partitioner {name!r} (expected one of {known})")
    return name


def _enumerate_shard(payload: dict, registry, root_span):
    """Stage 1: wedge enumeration + local membership checks.

    Returns ``(tally, stats, pending)`` where ``tally`` is the 4-slot
    per-class hit vector (index = hubs among the wedge), ``stats`` the
    check/byte counters, and ``pending`` the per-target query keys and
    their precomputed classes awaiting remote answers.
    """
    shard = payload["shard"]
    workers = payload["workers"]
    n = payload["num_vertices"]
    hub_count = payload["hub_count"]
    owner = payload["owner"]
    apexes = payload["apexes"]
    row_indptr = payload["row_indptr"]
    row_indices = payload["row_indices"].astype(np.int64, copy=False)

    own_keys = encode_keys(apexes.repeat(np.diff(row_indptr)), row_indices, n)
    tally = np.zeros(4, dtype=np.int64)
    local_checks = 0
    query_parts: list[list[np.ndarray]] = [[] for _ in range(workers)]
    class_parts: list[list[np.ndarray]] = [[] for _ in range(workers)]

    with registry.span("enumerate", parent=root_span, shard=shard) as span:
        wedges = 0
        for a, b, c in wedge_chunks(row_indptr, row_indices, apexes):
            wedges += a.size
            target = owner[b]
            cls = count_hubs(a, b, c, hub_count)
            local = target == shard
            if local.any():
                qk = encode_keys(b[local], c[local], n)
                local_checks += qk.size
                hit = match_keys(own_keys, qk)
                if hit.any():
                    tally += np.bincount(cls[local][hit], minlength=4)
            if not local.all():
                rem = ~local
                rk = encode_keys(b[rem], c[rem], n)
                rcls = cls[rem]
                rtgt = target[rem]
                for t in np.unique(rtgt):
                    sel = rtgt == t
                    query_parts[t].append(rk[sel])
                    class_parts[t].append(rcls[sel])
        span.set("wedges", wedges)
        span.set("local_checks", local_checks)

    queries = {
        t: np.concatenate(parts)
        for t, parts in enumerate(query_parts)
        if parts
    }
    classes = {
        t: np.concatenate(parts)
        for t, parts in enumerate(class_parts)
        if parts
    }
    remote_checks = sum(q.size for q in queries.values())
    stats = {
        "local_checks": local_checks,
        "remote_checks": remote_checks,
        "bytes_exchanged": sum(q.nbytes for q in queries.values()),
    }
    return tally, stats, (own_keys, queries, classes)


def _run_shard(payload: dict, channel, registry, root_span) -> dict:
    """Worker target: the full shard-side protocol; returns the shard's
    result dict."""
    shard = payload["shard"]
    started = time.perf_counter()
    tally, stats, (own_keys, queries, classes) = _enumerate_shard(
        payload, registry, root_span
    )

    with registry.span("exchange", parent=root_span, shard=shard) as span:
        channel.send(queries)
        inbound = channel.recv()
        answers = {
            src: match_keys(own_keys, qk) for src, qk in inbound.items()
        }
        channel.send(answers)
        mine = channel.recv()
        span.set("queries_sent", stats["remote_checks"])
        span.set("queries_answered", sum(a.size for a in answers.values()))

    with registry.span("tally", parent=root_span, shard=shard) as span:
        for target, hit in mine.items():
            stats["bytes_exchanged"] += hit.nbytes
            if hit.any():
                tally += np.bincount(classes[target][hit], minlength=4)
        triangles = int(tally.sum())
        span.set("triangles", triangles)

    root_span.set("triangles", triangles)
    root_span.set("arcs", int(payload["row_indices"].size))
    return {
        "nnn": int(tally[0]),
        "hnn": int(tally[1]),
        "hhn": int(tally[2]),
        "hhh": int(tally[3]),
        "triangles": triangles,
        "local_checks": stats["local_checks"],
        "remote_checks": stats["remote_checks"],
        "bytes_exchanged": stats["bytes_exchanged"],
        "wall_s": time.perf_counter() - started,
    }


def _empty_result(shards: int, partitioner: str,
                  hub_count: int) -> DistributedRunResult:
    zeros = np.zeros(shards, dtype=np.int64)
    return DistributedRunResult(
        counts=LotusCounts(0, 0, 0, 0),
        shards=shards,
        partitioner=partitioner,
        hub_count=hub_count,
        hub_edges=0,
        non_hub_edges=0,
        per_shard_triangles=zeros,
        per_shard_arcs=zeros.copy(),
        boundary_edges=0,
        boundary_edge_ratio=0.0,
        local_checks=0,
        remote_checks=0,
        bytes_exchanged=0,
    )


def run_distributed_count(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    shards: int = 2,
    partitioner: str = "hash",
    fault_shard: int | None = None,
    deadline_s: float | None = None,
    start_method: str | None = None,
) -> DistributedRunResult:
    """Count triangles across ``shards`` real worker processes.

    Exact for any partitioner and shard count, with per-phase counts
    identical to the sequential LOTUS decomposition.  ``fault_shard``
    (tests only) makes that shard die with ``FAULT_EXIT_CODE`` before
    doing any work; the call then raises
    :class:`~repro.parallel.workers.WorkerCrashError` naming ``shard N``.
    ``deadline_s`` bounds the whole run: past it the shards are aborted
    and ``TimeoutError`` is raised.  Graphs without edges are answered
    inline — no processes are spawned.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    pname = resolve_partitioner(partitioner)
    config = config or LotusConfig()
    registry = get_registry()
    with registry.span(
        "distributed",
        shards=shards,
        partitioner=pname,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as dspan:
        ra, hub_count = lotus_rank(graph, config)
        if graph.num_edges == 0:
            dspan.set("triangles", 0)
            return _empty_result(shards, pname, hub_count)
        owner = PARTITIONERS[pname](graph, shards)
        plan = build_plan(graph, owner, shards, rank=ra, hub_count=hub_count)
        per_shard_arcs = plan.shard_arc_counts()
        hub_edges = int(np.count_nonzero(plan.indices < hub_count))
        boundary_ratio = plan.boundary_edges / graph.num_edges

        registry.gauge("dist.shards").set(shards)
        registry.gauge("dist.boundary_edge_ratio").set(boundary_ratio)
        edges_hist = registry.histogram("dist.shard_edges")
        for count in per_shard_arcs:
            edges_hist.observe(int(count))
        dspan.set("hub_count", hub_count)
        dspan.set("boundary_edges", plan.boundary_edges)

        with WorkerPool(
            "shard", dspan, start_method=start_method, fault=fault_shard,
            deadline_s=deadline_s,
        ) as pool:
            pool.start(
                _run_shard, [plan.shard_payload(s) for s in range(shards)]
            )
            # two routed rounds (queries, then answers): regroup each
            # ``{source: {target: data}}`` by target; every shard gets a
            # bundle, empty or not, so no shard waits forever
            for _round in range(2):
                per_source = pool.gather()
                pool.scatter({
                    target: {
                        src: data[target]
                        for src, data in per_source.items()
                        if target in data
                    }
                    for target in range(shards)
                })
            results = pool.gather()

        counts = LotusCounts(
            hhh=sum(r["hhh"] for r in results.values()),
            hhn=sum(r["hhn"] for r in results.values()),
            hnn=sum(r["hnn"] for r in results.values()),
            nnn=sum(r["nnn"] for r in results.values()),
        )
        per_shard_triangles = np.array(
            [results[s]["triangles"] for s in range(shards)], dtype=np.int64
        )
        local_checks = sum(r["local_checks"] for r in results.values())
        remote_checks = sum(r["remote_checks"] for r in results.values())
        bytes_exchanged = sum(r["bytes_exchanged"] for r in results.values())

        registry.counter("dist.local_checks").add(local_checks)
        registry.counter("dist.remote_checks").add(remote_checks)
        registry.counter("dist.bytes_exchanged").add(bytes_exchanged)
        wall_hist = registry.histogram("dist.shard_wall_s")
        for s in sorted(results):
            wall_hist.observe(results[s]["wall_s"])
        dspan.set("triangles", counts.total)
        dspan.set("bytes_exchanged", bytes_exchanged)

        return DistributedRunResult(
            counts=counts,
            shards=shards,
            partitioner=pname,
            hub_count=hub_count,
            hub_edges=hub_edges,
            non_hub_edges=int(plan.indices.size - hub_edges),
            per_shard_triangles=per_shard_triangles,
            per_shard_arcs=per_shard_arcs,
            boundary_edges=plan.boundary_edges,
            boundary_edge_ratio=boundary_ratio,
            local_checks=local_checks,
            remote_checks=remote_checks,
            bytes_exchanged=bytes_exchanged,
        )
