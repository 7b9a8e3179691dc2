"""The workloads: seeded set-up and the untraced, timed loop.

Each workload's ``setup`` generates its inputs from the seed, writes the
files the program reads, computes every reference answer with an
independent algorithm (``count_triangles_matrix``, scipy SpGEMM, which
shares no kernel with LOTUS) and warms the program up.  ``run`` then
drives the program for the given number of seconds and checks every
answer.  The program only ever sees the generated files, edge batches
and requests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import gen
from repro.core.count import count_triangles_lotus
from repro.core.structure import LotusConfig
from repro.dist import lotus_rank, partition_hash, simulate_distributed_tc
from repro.graph import (
    CSRGraph, from_edges, load_npz, rmat, save_edgelist, save_npz,
)
from repro.serve import QueryEngine, QueryRequest, StructureCache
from repro.tc import count_triangles_matrix

# latency limits, fixed once; a later change must not retune them
WEB_COUNT_LIMIT_S = 4.0      # one file -> exact count
WEB_SHARDED_LIMIT_S = 8.0    # one processes count + one distributed count
STREAM_LIMIT_S = 0.25        # one round of three update batches

STREAM_BLOCK_ROUNDS = 32     # rounds per block, replayed from fresh sessions
WORKERS = 2                  # nproc on the reference machine


@dataclass
class Tally:
    """Outcome of one run.  ``latencies`` and ``slo_ok`` cover the timed
    ops; ``attempted``/``failed`` cover every op, reads included."""

    limit_s: float
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    slo_ok: int = 0
    timed: int = 0
    edges: int = 0
    busy_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    def op(self, seconds: float | None, ok: bool, edges: int = 0,
           timed: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if not timed:
            return
        self.timed += 1
        if seconds is not None:
            self.latencies.append(seconds)
        if ok and seconds is not None and seconds <= self.limit_s:
            self.slo_ok += 1
        if ok:
            self.edges += edges
            self.busy_s += seconds

    def wrong(self, message: str) -> None:
        self.problems.append(message)


def _warm_graph() -> CSRGraph:
    return rmat(9, edge_factor=8, seed=1)


class WebCount:
    """Sequential LOTUS from an ``.npz`` file: load -> count -> check."""

    name = "web-count"
    limit_s = WEB_COUNT_LIMIT_S

    def setup(self, seed: int, workdir: str, seconds: float) -> None:
        self.problems: list[str] = []
        self.seed = seed
        self.graph = gen.web_graph(seed)
        self.path = os.path.join(workdir, "web.npz")
        save_npz(self.path, self.graph)
        self.reference = count_triangles_matrix(self.graph)
        self._warm(workdir)

    def _warm(self, workdir: str) -> None:
        warm = os.path.join(workdir, "warm.npz")
        save_npz(warm, _warm_graph())
        count_triangles_lotus(load_npz(warm))

    def graphs(self) -> list[tuple[CSRGraph, str, int]]:
        return [(self.graph, self.path, self.reference)]

    def run(self, seconds: float) -> Tally:
        tally = Tally(self.limit_s)
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            graph = load_npz(self.path)
            result = count_triangles_lotus(graph)
            dt = time.perf_counter() - t0
            ok = result.triangles == self.reference
            if not ok:
                tally.wrong(f"lotus counted {result.triangles}, "
                            f"reference {self.reference}")
            tally.op(dt, ok, edges=graph.num_edges)
            if time.perf_counter() >= end:
                return tally

    def close(self) -> None:
        pass


class WebSharded(WebCount):
    """The ``web-count`` inputs counted by the processes backend and the
    distributed backend; ``bytes_exchanged`` must match the simulator."""

    name = "web-sharded"
    limit_s = WEB_SHARDED_LIMIT_S

    def setup(self, seed: int, workdir: str, seconds: float) -> None:
        super().setup(seed, workdir, seconds)
        rank, _ = lotus_rank(self.graph, LotusConfig())
        owner = partition_hash(self.graph, WORKERS)
        self.predicted_bytes = simulate_distributed_tc(
            self.graph, owner, WORKERS, rank=rank
        ).bytes_exchanged

    def _warm(self, workdir: str) -> None:
        warm = os.path.join(workdir, "warm.npz")
        save_npz(warm, _warm_graph())
        graph = load_npz(warm)
        count_triangles_lotus(graph, backend="processes", workers=WORKERS)
        count_triangles_lotus(graph, backend="distributed", workers=WORKERS)

    def run(self, seconds: float) -> Tally:
        tally = Tally(self.limit_s)
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            graph = load_npz(self.path)
            proc = count_triangles_lotus(graph, backend="processes",
                                         workers=WORKERS)
            dist = count_triangles_lotus(graph, backend="distributed",
                                         workers=WORKERS)
            dt = time.perf_counter() - t0
            ok = True
            for label, got in (("processes", proc.triangles),
                               ("distributed", dist.triangles)):
                if got != self.reference:
                    ok = False
                    tally.wrong(f"{label} counted {got}, "
                                f"reference {self.reference}")
            sent = dist.extra["bytes_exchanged"]
            if sent != self.predicted_bytes:
                ok = False
                tally.wrong(f"distributed run exchanged {sent} bytes, "
                            f"simulator predicted {self.predicted_bytes}")
            tally.op(dt, ok, edges=2 * graph.num_edges)
            if time.perf_counter() >= end:
                return tally


def _write_edgelists(graphs: list[CSRGraph], workdir: str, tag: str) -> list[str]:
    paths = []
    for i, g in enumerate(graphs):
        path = os.path.join(workdir, f"{tag}-{i}.txt")
        save_edgelist(path, g)
        paths.append(path)
    return paths


class EdgeMirror:
    """The benchmark's own model of a dynamic graph: a set of edges with
    the program's update rules (self-loops, within-batch duplicates,
    duplicate inserts and absent deletes are rejected)."""

    def __init__(self, graph: CSRGraph) -> None:
        self.n = graph.num_vertices
        self.edges = {tuple(e) for e in graph.edges().tolist()}

    def apply(self, op: str, batch: list) -> int:
        applied = 0
        seen = set()
        for u, v in batch:
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            seen.add(key)
            if op == "insert" and key not in self.edges:
                self.edges.add(key)
                applied += 1
            elif op == "delete" and key in self.edges:
                self.edges.remove(key)
                applied += 1
        return applied

    def recount(self) -> int:
        arr = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return count_triangles_matrix(from_edges(arr, num_vertices=self.n))


class StreamUpdate:
    """Closed loop, one client: update batches, reads and compactions
    against engine sessions; maintained counts are checked against
    recounts.

    The seeded op sequence is one *block*.  Each block replays from
    fresh sessions on the base graphs, and a run measures whole blocks,
    so every run times the same mix of batches however fast it goes.
    """

    name = "stream-update"
    limit_s = STREAM_LIMIT_S

    def __init__(self) -> None:
        self.engine: QueryEngine | None = None

    def setup(self, seed: int, workdir: str, seconds: float) -> None:
        self.problems: list[str] = []
        self.seed = seed
        self.graph_list = gen.stream_graphs(seed)
        self.paths = _write_edgelists(self.graph_list, workdir, "stream")
        self.references = [count_triangles_matrix(g) for g in self.graph_list]
        self.ops = gen.stream_ops(seed, self.graph_list, STREAM_BLOCK_ROUNDS)
        self._open_sessions()

    def _open_sessions(self) -> None:
        """A fresh engine whose dynamic sessions start at the base graphs."""
        self.close()
        self.mirrors = [EdgeMirror(g) for g in self.graph_list]
        self.engine = QueryEngine(StructureCache(max_entries=4)).start()
        for path, ref in zip(self.paths, self.references):
            # parse the file and open the dynamic session (its base
            # recount) with a batch holding only a rejected self-loop
            self.engine.query(QueryRequest(file=path, op="insert", edges=[[0, 0]]))
            result = self.engine.query(
                QueryRequest(file=path, algorithm="maintained"))
            if result.triangles != ref:
                self.problems.append(f"warm-up maintained count "
                                     f"{result.triangles} on {path}, "
                                     f"reference {ref}")

    def graphs(self) -> list[tuple[CSRGraph, str, int]]:
        return list(zip(self.graph_list, self.paths, self.references))

    def run(self, seconds: float) -> Tally:
        tally = Tally(self.limit_s)
        end = time.perf_counter() + seconds
        while True:
            self._run_block(tally)
            if time.perf_counter() >= end:
                return tally
            self._open_sessions()

    def _run_block(self, tally: Tally) -> None:
        expected = list(self.references)
        # one timed op is a round: its two insert and one delete batches
        round_s, round_ok, round_edges = 0.0, True, 0
        for i, (kind, gi, batch) in enumerate(self.ops):
            path = self.paths[gi]
            if kind in ("insert", "delete"):
                request = QueryRequest(file=path, op=kind, edges=batch, id=str(i))
            elif kind == "compact":
                request = QueryRequest(file=path, op=kind, id=str(i))
            else:
                request = QueryRequest(file=path, algorithm=kind, id=str(i))
            t0 = time.perf_counter()
            result = self.engine.query(request)
            dt = time.perf_counter() - t0
            if kind in ("insert", "delete"):
                want = self.mirrors[gi].apply(kind, batch)
                ok = result.ok and result.applied == want
                if result.ok and not ok:
                    tally.wrong(f"batch {i} applied {result.applied}, "
                                f"expected {want}")
                round_s += dt
                round_ok = round_ok and ok
                round_edges += result.applied or 0
                if kind == "delete":  # the round's last batch
                    tally.op(round_s, round_ok, edges=round_edges)
                    round_s, round_ok, round_edges = 0.0, True, 0
                continue
            if kind == "maintained":
                # checkpoint: recount the benchmark's own edge set
                expected[gi] = self.mirrors[gi].recount()
            ok = result.ok and (kind == "compact"
                                or result.triangles == expected[gi])
            if result.ok and not ok:
                tally.wrong(f"{kind} read {i} gave {result.triangles}, "
                            f"recount {expected[gi]}")
            tally.op(None, ok, timed=False)
        for path, mirror in zip(self.paths, self.mirrors):
            result = self.engine.query(
                QueryRequest(file=path, algorithm="maintained"))
            want = mirror.recount()
            ok = result.ok and result.triangles == want
            if not ok:
                tally.wrong(f"final maintained count {result.triangles} on "
                            f"{path}, recount {want}")
            tally.op(None, ok, timed=False)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.stop()
            self.engine = None


WORKLOADS = {w.name: w for w in (WebCount, WebSharded, StreamUpdate)}
