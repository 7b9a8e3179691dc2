"""The traced run: drive a workload's inputs through every layer's public calls.

One *pass* takes the workload's largest graph through

* ``repro.graph``: ``load_npz`` and ``load_edgelist``;
* ``repro.core``: ``build_lotus_graph``, ``count_hhh_hhn``, ``count_hnn``,
  ``count_nnn``, with ``repro.tc.intersect.batch_pairwise_counts`` (the
  kernel HNN and NNN call) wrapped in a span during the traced count;
* ``repro.parallel``: ``run_phase1`` and ``count_triangles_lotus`` on the
  processes backend;
* ``repro.dist``: ``lotus_rank`` + ``partition_hash`` + ``build_plan``,
  then ``run_distributed_count``;
* ``repro.serve``: ``structure_key``, ``StructureCache.get_or_build``, an
  admission-control burst and a short open loop of ``QueryEngine``
  queries over all of the workload's files;
* ``repro.dynamic``: ``DynamicGraph.insert_edges``/``delete_edges``,
  ``snapshot`` and ``compact``.

Every layer runs on every workload, so every per-layer metric has a
measured value on every workload; the untraced run of a workload only
touches the layers its README row names.  Spans come from the
benchmark's own ``Recorder``; work counts come from public return values
and structures and must repeat exactly from pass to pass.  Passes repeat
until ``seconds`` have elapsed; timings are medians over all samples.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import repro.core.count as core_count
from perfbench import gen
from perfbench.loops import WORKERS, Tally
from perfbench.spans import Recorder
from repro.core.count import (
    count_hhh_hhn, count_hnn, count_nnn, count_triangles_lotus,
)
from repro.core.structure import LotusConfig, build_lotus_graph
from repro.dist import (
    build_plan, lotus_rank, partition_hash, run_distributed_count,
    simulate_distributed_tc,
)
from repro.dynamic import DynamicGraph
from repro.graph import load_edgelist, load_npz, save_edgelist, save_npz
from repro.parallel.backend import run_phase1
from repro.serve import QueryEngine, QueryRequest, StructureCache, structure_key
from repro.serve.request import QueueFullError
from repro.tc import count_triangles_matrix

COUNT_PAIRS = 2            # untraced + traced counts per pass (tracing overhead)
SERVE_LOAD = 0.8           # offered load of the serve step, share of capacity
SERVE_MAX_RATE = 15.0      # queries per second, seeded Poisson arrivals
SERVE_STEP_S = 6.0         # target length of the serve step's open loop
SERVE_MIN_REQUESTS = 6
SERVE_MAX_REQUESTS = 120
BURST_QUEUE = 4            # admission-control burst: queue size ...
BURST_EXTRA = 2            # ... and requests sent beyond it (all refused)
REQUEST_TIMEOUT_S = 2.0    # service-side deadline of every query
DRAIN_S = 30.0             # how long results are awaited after the loop
# a run whose generator sent its p95 request later than this is invalid
GEN_LATE_LIMIT_S = 0.05
DYNAMIC_ROUNDS = 8         # stream rounds applied by the dynamic step
DYNAMIC_COMPACT_EVERY = 8      # update batches between snapshot + compact

# work counts: must repeat exactly across passes and across runs of a seed
EXACT = (
    "graph.bytes", "core.bytes_built", "core.hub_count", "core.he_edges",
    "core.nhe_edges", "core.phase1.pairs", "core.phase1.hit_ratio",
    "core.hnn.probes", "core.nnn.probes", "core.hnn.hit_ratio",
    "core.nnn.hit_ratio", "dist.bytes_exchanged", "dist.remote_share",
    "dist.boundary_edge_ratio", "dist.shard_imbalance",
    "dynamic.applied_ratio", "dynamic.compactions", "serve.rejected",
)


def _probes(indptr_a: np.ndarray, indptr_b: np.ndarray,
            src: np.ndarray, dst: np.ndarray) -> int:
    """Σ min(row degree) over intersected row pairs: the gathered volume."""
    da = np.diff(indptr_a)[src]
    db = np.diff(indptr_b)[dst]
    return int(np.minimum(da, db).sum())


def work_counts(graph, lotus, hhh: int, hhn: int, hnn: int, nnn: int) -> dict:
    """Exact per-layer work, computed from the public ``LotusGraph`` arrays."""
    he_deg = np.diff(lotus.he.indptr).astype(np.int64)
    pairs = int((he_deg * (he_deg - 1) // 2).sum())
    nhe_src = np.repeat(np.arange(lotus.num_vertices, dtype=np.int64),
                        np.diff(lotus.nhe.indptr))
    nhe_dst = lotus.nhe.indices.astype(np.int64)
    hnn_probes = _probes(lotus.he.indptr, lotus.he.indptr, nhe_src, nhe_dst)
    nnn_probes = _probes(lotus.nhe.indptr, lotus.nhe.indptr, nhe_src, nhe_dst)
    return {
        "graph.bytes": int(graph.indptr.nbytes + graph.indices.nbytes),
        "core.bytes_built": int(
            lotus.h2h.nbytes + lotus.he.indptr.nbytes + lotus.he.indices.nbytes
            + lotus.nhe.indptr.nbytes + lotus.nhe.indices.nbytes),
        "core.hub_count": int(lotus.hub_count),
        "core.he_edges": int(lotus.hub_edges),
        "core.nhe_edges": int(lotus.non_hub_edges),
        "core.phase1.pairs": pairs,
        "core.phase1.hit_ratio": (hhh + hhn) / pairs if pairs else 0.0,
        "core.hnn.probes": hnn_probes,
        "core.nnn.probes": nnn_probes,
        "core.hnn.hit_ratio": hnn / hnn_probes if hnn_probes else 0.0,
        "core.nnn.hit_ratio": nnn / nnn_probes if nnn_probes else 0.0,
    }


def open_loop(engine: QueryEngine, paths: list[str], references: list[int],
              due: np.ndarray, targets: np.ndarray,
              tally: Tally) -> tuple[list, list[float]]:
    """Send one count query per ``due`` time (seconds from now) and wait.

    Latency is timed from each request's due time, so a stall also
    counts against the requests queued behind it.  Refusals and
    timeouts are failures and miss the latency limit.  Returns the
    ``QueryResult`` of every answered request and how late (s) the
    generator sent each request.
    """
    start = time.perf_counter() + 0.01
    sent = []
    late = []
    for i, (offset, gi) in enumerate(zip(due.tolist(), targets.tolist())):
        due_at = start + offset
        pause = due_at - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        submitted = time.perf_counter()
        late.append(submitted - due_at)
        request = QueryRequest(file=paths[gi], id=str(i),
                               timeout=REQUEST_TIMEOUT_S)
        try:
            sent.append((engine.submit(request), submitted - due_at, gi))
        except QueueFullError:
            tally.op(None, False)
    results = []
    wait_until = time.perf_counter() + DRAIN_S
    for ticket, lateness, gi in sent:
        try:
            result = ticket.result(max(0.0, wait_until - time.perf_counter()))
        except TimeoutError:
            tally.op(None, False)
            continue
        results.append(result)
        ok = result.ok and result.triangles == references[gi]
        if result.ok and not ok:
            tally.wrong(f"query {result.id} on {paths[gi]} answered "
                        f"{result.triangles}, reference {references[gi]}")
        tally.op(lateness + result.elapsed_ms / 1e3, ok)
    if late and float(np.quantile(late, 0.95)) > GEN_LATE_LIMIT_S:
        tally.wrong("invalid run: the request generator fell behind its "
                    f"schedule (p95 lateness {np.quantile(late, 0.95):.3f} s)")
    return results, late


class Sweep:
    """One traced run over a set-up workload."""

    def __init__(self, workload, workdir: str, recorder: Recorder) -> None:
        self.wl = workload
        self.rec = recorder
        # the workload's largest graph
        self.graph, path, self.reference = max(
            workload.graphs(), key=lambda item: item[0].num_edges)
        # both file formats of the first graph, so both loaders are timed
        self.npz = os.path.join(workdir, "layers.npz")
        self.txt = os.path.join(workdir, "layers.txt")
        save_npz(self.npz, self.graph)
        save_edgelist(self.txt, self.graph)
        self.native = path  # the format the workload itself reads
        rank, _ = lotus_rank(self.graph, LotusConfig())
        owner = partition_hash(self.graph, WORKERS)
        self.predicted = simulate_distributed_tc(
            self.graph, owner, WORKERS, rank=rank)
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.layer_sums: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.counts: dict | None = None
        self.tally = Tally(limit_s=float("inf"))

    # -- helpers -----------------------------------------------------------
    def _note(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _check(self, label: str, got: int, want: int) -> None:
        ok = got == want
        if not ok:
            self.tally.wrong(f"{label}: got {got}, reference {want}")
        self.tally.op(None, ok, timed=False)

    def _load(self, path: str):
        return load_npz(path) if path.endswith(".npz") else load_edgelist(path)

    # -- one pass ----------------------------------------------------------
    def run_pass(self, p: int) -> dict:
        op = f"pass{p}"
        rec = self.rec
        with rec.span("graph.load_npz", op) as s:
            load_npz(self.npz)
        self._note("graph.load_npz_s", s.duration)
        with rec.span("graph.load_edgelist", op) as s:
            load_edgelist(self.txt)
        self._note("graph.load_edgelist_s", s.duration)

        # the same file -> count op, untraced and then traced layer by layer
        for _ in range(COUNT_PAIRS):
            t0 = time.perf_counter()
            result = count_triangles_lotus(self._load(self.native))
            self.untraced.append(time.perf_counter() - t0)
            self._check("untraced count", result.triangles, self.reference)
            counts, lotus = self._traced_count(op)

        with rec.span("parallel.phase1", op) as s:
            split = run_phase1(lotus, backend="processes", workers=WORKERS)
        self._note("parallel.phase1_s", s.duration)
        self._check("run_phase1 hhh+hhn", sum(split), counts["hhh+hhn"])
        with rec.span("parallel.count", op) as s:
            result = count_triangles_lotus(self.graph, backend="processes",
                                           workers=WORKERS)
        self._note("parallel.count_s", s.duration)
        self._check("processes count", result.triangles, self.reference)

        self._dist(op, counts)
        self._serve(op, p, counts)
        self._dynamic(op, counts)
        return counts

    def _traced_count(self, op: str):
        rec = self.rec
        original = core_count.batch_pairwise_counts

        def traced_kernel(*args, **kwargs):
            with rec.span("tc.intersect", op):
                return original(*args, **kwargs)

        core_count.batch_pairwise_counts = traced_kernel
        try:
            with rec.span("count", op) as whole:
                with rec.span("graph.load", op):
                    graph = self._load(self.native)
                with rec.span("core.preprocess", op) as s:
                    lotus = build_lotus_graph(graph)
                self._note("core.preprocess_s", s.duration)
                with rec.span("core.phase1", op) as s:
                    hhh, hhn = count_hhh_hhn(lotus)
                self._note("core.phase1_s", s.duration)
                with rec.span("core.hnn", op) as s:
                    hnn = count_hnn(lotus)
                self._note("core.hnn_s", s.duration)
                with rec.span("core.nnn", op) as s:
                    nnn = count_nnn(lotus)
                self._note("core.nnn_s", s.duration)
        finally:
            core_count.batch_pairwise_counts = original
        self.traced.append(whole.duration)
        self.layer_sums.append(rec.descendant_self_time(whole))
        kernel = [rec.self_time(s) for s in rec.spans[whole.index:]
                  if s.name == "tc.intersect"]
        self._note("tc.intersect_s", sum(kernel))
        self._check("traced count", hhh + hhn + hnn + nnn, self.reference)
        counts = work_counts(graph, lotus, hhh, hhn, hnn, nnn)
        counts["hhh+hhn"] = hhh + hhn
        return counts, lotus

    def _dist(self, op: str, counts: dict) -> None:
        rec = self.rec
        with rec.span("dist.plan", op) as s:
            rank, hub_count = lotus_rank(self.graph, LotusConfig())
            owner = partition_hash(self.graph, WORKERS)
            build_plan(self.graph, owner, WORKERS, rank=rank, hub_count=hub_count)
        self._note("dist.plan_s", s.duration)
        with rec.span("dist.run", op) as s:
            run = run_distributed_count(self.graph, shards=WORKERS,
                                        partitioner="hash")
        self._note("dist.run_s", s.duration)
        self._check("distributed count", run.counts.total, self.reference)
        self._check("distributed bytes_exchanged", run.bytes_exchanged,
                    self.predicted.bytes_exchanged)
        checks = run.local_checks + run.remote_checks
        arcs = run.per_shard_arcs
        counts.update({
            "dist.bytes_exchanged": int(run.bytes_exchanged),
            "dist.remote_share": run.remote_checks / checks if checks else 0.0,
            "dist.boundary_edge_ratio": float(run.boundary_edge_ratio),
            "dist.shard_imbalance": float(arcs.max() / arcs.mean()),
        })

    def _serve(self, op: str, p: int, counts: dict) -> None:
        rec = self.rec
        with rec.span("serve.fingerprint", op) as s:
            key = structure_key(self.graph)
        self._note("serve.fingerprint_s", s.duration)
        cache = StructureCache(max_entries=1)
        for outcome_wanted in ("miss", "hit"):
            with rec.span("serve.cache.get_or_build", op):
                _, outcome = cache.get_or_build(self.graph, key=key)
            if outcome != outcome_wanted:
                self.tally.wrong(f"cache returned {outcome}, "
                                 f"expected {outcome_wanted}")
        cache.clear()

        # admission control: a queue of BURST_QUEUE refuses the rest
        engine = QueryEngine(max_queue=BURST_QUEUE)
        tickets, rejected = [], 0
        for _ in range(BURST_QUEUE + BURST_EXTRA):
            try:
                tickets.append(engine.submit(QueryRequest(graph=self.graph)))
            except QueueFullError:
                rejected += 1
        engine.start()
        try:
            for t in tickets:
                self._check("burst query", t.result(60.0).triangles,
                            self.reference)
        finally:
            engine.stop()
        counts["serve.rejected"] = rejected

        files = self.wl.graphs()
        service = statistics.median(self.untraced)
        rate = min(SERVE_MAX_RATE, SERVE_LOAD / service)
        due, targets = gen.poisson_schedule(
            self.wl.seed, f"layers-serve-{p}", rate,
            max(SERVE_STEP_S, 3 * SERVE_MIN_REQUESTS / rate), len(files))
        n = int(np.count_nonzero(due < SERVE_STEP_S))
        n = min(SERVE_MAX_REQUESTS, max(SERVE_MIN_REQUESTS, n))
        due, targets = due[:n], targets[:n]
        cache = StructureCache(max_entries=max(1, len(files) // 3))
        engine = QueryEngine(cache).start()
        tally = Tally(limit_s=float("inf"))
        try:
            with rec.span("serve.open_loop", op):
                results, late = open_loop(
                    engine, [f for _, f, _ in files], [r for _, _, r in files],
                    due, targets, tally)
            stats = cache.stats()
        finally:
            engine.stop()
        self.tally.attempted += tally.attempted
        self.tally.failed += tally.failed
        self.tally.problems += tally.problems
        ok = [r for r in results if r.ok]
        lookups = stats["hits"] + stats["misses"] + stats["evicting_misses"]
        self._note("serve.requests", len(results))
        self._note("serve.queue_wait_p50_ms",
                   statistics.median(r.queued_ms for r in ok))
        self._note("serve.service_p50_ms",
                   statistics.median(r.elapsed_ms - r.queued_ms for r in ok))
        self._note("serve.cache.hit_ratio", stats["hits"] / lookups)
        self._note("serve.cache.evictions", stats["evicted_entries"])
        self._note("serve.coalesced_ratio",
                   sum((r.batched - 1) / r.batched for r in ok) / len(ok))
        self._note("serve.batch_size_mean",
                   len(ok) / sum(1.0 / r.batched for r in ok))
        self._note("serve.gen_late_p95_ms",
                   1e3 * float(np.quantile(late, 0.95)))

    def _dynamic(self, op: str, counts: dict) -> None:
        rec = self.rec
        ops = [o for o in gen.stream_ops(self.wl.seed, [self.graph],
                                         DYNAMIC_ROUNDS)
               if o[0] in ("insert", "delete")]
        dg = DynamicGraph(self.graph, triangles=self.reference,
                          auto_compact_fraction=None)
        requested = applied = 0
        for i, (kind, _, batch) in enumerate(ops, 1):
            with rec.span("dynamic.update", op) as s:
                outcome = (dg.insert_edges(batch) if kind == "insert"
                           else dg.delete_edges(batch))
            self._note("dynamic.update_s", s.duration)
            requested += outcome.requested
            applied += outcome.applied
            if i % DYNAMIC_COMPACT_EVERY == 0:
                with rec.span("dynamic.snapshot", op) as s:
                    snap = dg.snapshot()
                self._note("dynamic.snapshot_s", s.duration)
                self._check("maintained count after updates", snap.triangles,
                            count_triangles_matrix(snap.graph))
                with rec.span("dynamic.compact", op) as s:
                    dg.compact()
                self._note("dynamic.compact_s", s.duration)
        counts["dynamic.applied_ratio"] = applied / requested
        counts["dynamic.compactions"] = int(dg.compactions)

    # -- the whole traced run ---------------------------------------------
    def run(self, seconds: float) -> tuple[dict, Tally]:
        end = time.perf_counter() + seconds
        p = 0
        while True:
            counts = self.run_pass(p)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                changed = sorted(k for k in counts if counts[k] != self.counts[k])
                self.tally.wrong(f"work counts changed between passes: {changed}")
            p += 1
            if time.perf_counter() >= end:
                break
        return self.metrics(), self.tally

    def metrics(self) -> dict[str, float]:
        """Medians over samples, the exact counts and the rates built on them."""
        out = {name: statistics.median(v) for name, v in self.samples.items()}
        out.update({k: v for k, v in self.counts.items() if k in EXACT})
        out["core.phase1.pairs_per_s"] = (
            out["core.phase1.pairs"] / out["core.phase1_s"])
        out["core.hnn.probes_per_s"] = out["core.hnn.probes"] / out["core.hnn_s"]
        out["core.nnn.probes_per_s"] = out["core.nnn.probes"] / out["core.nnn_s"]
        out["parallel.phase1_speedup"] = (
            out["core.phase1_s"] / out["parallel.phase1_s"])
        untraced = statistics.median(self.untraced)
        out["trace.overhead_ratio"] = statistics.median(self.traced) / untraced
        out["trace.self_sum_ratio"] = statistics.median(self.layer_sums) / untraced
        out["trace.count_s"] = untraced
        return out
