"""The shared-memory substrate, the work-stealing scheduler, and the
process backend.

The load-bearing guarantees, each pinned here:

* shared-memory round-trips are exact and zero-copy (mutations through
  one mapping are visible through the other);
* the chunk autotuner and LPT planner partition all tiles exactly once;
* the deque scheduler hands out every chunk exactly once, whether
  drained by owners or by thieves;
* the process backend is **bit-identical** to the sequential phase for
  every registered dataset at workers 1, 2 and 4;
* both segments are unlinked after normal exit *and* after an injected
  worker crash (no `/dev/shm` residue).
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.core import build_lotus_graph
from repro.core.count import count_hhh_hhn
from repro.core.structure import LotusConfig, LotusGraph
from repro.core.tiling import tiles_for_phase1
from repro.graph import DATASETS, load_dataset, powerlaw_chung_lu, rmat
from repro.graph.csr import CSRGraph
from repro.obs import use_registry
from repro.parallel.procpool import (
    FAULT_EXIT_CODE,
    WorkerCrashError,
    count_hhh_hhn_processes,
)
from repro.parallel.scheduler import TileScheduler, chunk_tiles, plan_assignment
from repro.util.shm import attach_arrays, share_arrays


def _live_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-*"))


# --------------------------------------------------------------------------
# shared-memory substrate
# --------------------------------------------------------------------------
class TestSharedArrays:
    def test_round_trip_exact(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 7),
            "c": np.array([], dtype=np.uint16),
            "d": (np.arange(12, dtype=np.uint8) % 3).reshape(3, 4),
        }
        with share_arrays(arrays, meta={"tag": 42}) as handle:
            attached = attach_arrays(handle.manifest)
            assert attached.meta["tag"] == 42
            for key, expected in arrays.items():
                got = attached.arrays[key]
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                np.testing.assert_array_equal(got, expected)
            attached.close()

    def test_mutation_visible_across_mappings(self):
        with share_arrays({"x": np.zeros(8, dtype=np.int64)}) as handle:
            attached = attach_arrays(handle.manifest)
            attached.arrays["x"][3] = 99
            assert handle.arrays["x"][3] == 99
            attached.close()

    def test_alignment(self):
        arrays = {
            "small": np.arange(3, dtype=np.uint8),
            "wide": np.arange(5, dtype=np.float64),
        }
        handle = share_arrays(arrays)
        try:
            offsets = {s["key"]: s["offset"] for s in handle.manifest["arrays"]}
            assert all(off % 64 == 0 for off in offsets.values())
        finally:
            handle.close()
            handle.unlink()

    def test_unlink_is_idempotent_and_removes_segment(self):
        handle = share_arrays({"x": np.ones(4)})
        name = handle.name
        assert any(name in p for p in _live_segments())
        handle.close()
        handle.unlink()
        handle.unlink()  # second call is a no-op
        assert not any(name in p for p in _live_segments())

    def test_forked_attachers_leave_the_tracker_entry_alone(self):
        """Two forked attachers share the creator's resource tracker.  Held
        at a barrier around ``_untrack`` they interleave as register,
        register, then both untrack; an unregister there would hit the
        tracker twice for one entry and it would log ``KeyError``."""
        script = textwrap.dedent(
            """
            import multiprocessing as mp
            import numpy as np
            import repro.util.shm as shm

            ctx = mp.get_context("fork")
            barrier = ctx.Barrier(2)
            untrack = shm._untrack

            def held(*args):
                barrier.wait(timeout=20)
                untrack(*args)

            def attach(manifest):
                shm.attach_arrays(manifest).close()

            shm._untrack = held
            handle = shm.share_arrays({"x": np.arange(8)})
            procs = [ctx.Process(target=attach, args=(handle.manifest,))
                     for _ in range(2)]
            for p in procs:
                p.start()
            for p in procs:
                p.join(30)
            handle.unlink()
            print("exitcodes", [p.exitcode for p in procs])
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert "exitcodes [0, 0]" in done.stdout, done.stderr
        assert "KeyError" not in done.stderr, done.stderr
        assert "leaked" not in done.stderr, done.stderr

    def test_csr_graph_round_trip(self):
        graph = rmat(scale=8, edge_factor=6, seed=3)
        handle = graph.to_shared()
        try:
            rebuilt, attached = CSRGraph.from_shared(handle.manifest)
            assert rebuilt == graph
            attached.close()
        finally:
            handle.close()
            handle.unlink()

    def test_lotus_graph_round_trip(self):
        graph = powerlaw_chung_lu(2000, 8.0, exponent=2.1, seed=11)
        lotus = build_lotus_graph(graph, LotusConfig(hub_count=128))
        handle = lotus.to_shared()
        try:
            rebuilt, attached = LotusGraph.from_shared(handle.manifest)
            assert rebuilt.hub_count == lotus.hub_count
            assert rebuilt.num_vertices == lotus.num_vertices
            assert rebuilt.num_edges == lotus.num_edges
            assert rebuilt.config == lotus.config
            np.testing.assert_array_equal(rebuilt.h2h.data, lotus.h2h.data)
            np.testing.assert_array_equal(rebuilt.he.indices, lotus.he.indices)
            np.testing.assert_array_equal(rebuilt.nhe.indptr, lotus.nhe.indptr)
            # the rebuilt structure must count identically
            assert count_hhh_hhn(rebuilt) == count_hhh_hhn(lotus)
            attached.close()
        finally:
            handle.close()
            handle.unlink()


# --------------------------------------------------------------------------
# chunk autotuner + work-stealing deques
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sample_tiles():
    graph = powerlaw_chung_lu(3000, 9.0, exponent=2.0, seed=5)
    lotus = build_lotus_graph(graph, LotusConfig(hub_count=256))
    tiles = tiles_for_phase1(lotus.he, partitions=8, degree_threshold=32)
    assert len(tiles) > 20
    return tiles


class TestChunking:
    def test_bounds_partition_all_tiles(self, sample_tiles):
        bounds = chunk_tiles(sample_tiles, workers=4)
        assert bounds[0] == 0 and bounds[-1] == len(sample_tiles)
        assert np.all(np.diff(bounds) > 0)

    def test_chunk_costs_near_target(self, sample_tiles):
        workers, cpw = 4, 8
        bounds = chunk_tiles(sample_tiles, workers, chunks_per_worker=cpw)
        costs = np.add.reduceat(
            np.array([t.work for t in sample_tiles], dtype=np.float64),
            bounds[:-1],
        )
        total = sum(t.work for t in sample_tiles)
        target = total / (workers * cpw)
        # every chunk but the trailing remainder reaches the target, and no
        # chunk exceeds target + one tile (tiles are never split)
        max_tile = max(t.work for t in sample_tiles)
        assert np.all(costs[:-1] >= target)
        assert np.all(costs <= target + max_tile)

    def test_empty_tiles(self):
        bounds = chunk_tiles([], workers=4)
        assert bounds.tolist() == [0]

    def test_plan_assignment_covers_all_chunks(self):
        costs = [5.0, 1.0, 9.0, 2.0, 2.0, 7.0, 3.0]
        deques = plan_assignment(costs, workers=3)
        flat = sorted(c for dq in deques for c in dq)
        assert flat == list(range(len(costs)))
        # LPT keeps the max load within 4/3 of optimum for these costs
        loads = [sum(costs[c] for c in dq) for dq in deques]
        assert max(loads) <= (sum(costs) / 3) * (4 / 3) + max(costs) / 3

    def test_plan_assignment_deterministic(self):
        costs = np.arange(20, dtype=np.float64) % 7
        assert plan_assignment(costs, 4) == plan_assignment(costs, 4)


class TestTileScheduler:
    def _build(self, deques):
        locks = [threading.Lock() for _ in deques]
        return TileScheduler.build(deques, locks)

    def test_owner_drains_in_order(self):
        sched = self._build([[3, 1, 4], [2, 0]])
        assert [sched.pop_local(0) for _ in range(4)] == [3, 1, 4, None]

    def test_thief_steals_from_back(self):
        sched = self._build([[], [10, 11, 12]])
        assert sched.steal(0) == (12, 1)
        assert sched.pop_local(1) == 10

    def test_every_chunk_handed_out_exactly_once(self):
        deques = [[0, 1, 2], [3], [], [4, 5, 6, 7]]
        sched = self._build(deques)
        seen = []
        # worker 2 (empty deque) drains everything by stealing
        while True:
            chunk, was_stolen = sched.next_chunk(2)
            if chunk is None:
                break
            assert was_stolen
            seen.append(chunk)
        assert sorted(seen) == list(range(8))
        assert sched.remaining() == 0

    def test_concurrent_drain_no_loss_no_duplication(self):
        chunks = list(range(200))
        deques = plan_assignment(np.ones(len(chunks)), workers=4)
        sched = self._build(deques)
        taken: list[list[int]] = [[] for _ in range(4)]

        def drain(w: int) -> None:
            while True:
                chunk, _ = sched.next_chunk(w)
                if chunk is None:
                    return
                taken[w].append(chunk)

        threads = [threading.Thread(target=drain, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = sorted(c for per in taken for c in per)
        assert flat == chunks


# --------------------------------------------------------------------------
# process backend: correctness, lifecycle, crash injection
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset_lotus():
    """Prebuilt Lotus structures for every registered dataset (cached)."""
    structures = {}
    for name in DATASETS:
        structures[name] = build_lotus_graph(load_dataset(name))
    return structures


class TestProcessBackend:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_bit_identical_all_datasets(self, dataset_lotus, name):
        lotus = dataset_lotus[name]
        expected = count_hhh_hhn(lotus)
        for workers in (1, 2, 4):
            assert count_hhh_hhn_processes(lotus, workers=workers) == expected

    def test_empty_phase1_short_circuits(self):
        graph = powerlaw_chung_lu(200, 1.2, exponent=2.5, seed=9)
        lotus = build_lotus_graph(graph, LotusConfig(hub_count=1))
        before = _live_segments()
        assert count_hhh_hhn_processes(lotus, workers=4) == count_hhh_hhn(lotus)
        assert _live_segments() == before

    def test_segments_unlinked_after_normal_exit(self, dataset_lotus):
        before = _live_segments()
        count_hhh_hhn_processes(dataset_lotus["LJGrp"], workers=2)
        assert _live_segments() == before

    @pytest.mark.parametrize("fault_worker", [0, 2])
    def test_worker_crash_raises_and_unlinks(self, dataset_lotus, fault_worker):
        before = _live_segments()
        with pytest.raises(WorkerCrashError) as excinfo:
            count_hhh_hhn_processes(
                dataset_lotus["LJGrp"], workers=3, fault_worker=fault_worker
            )
        assert excinfo.value.exitcodes[fault_worker] == FAULT_EXIT_CODE
        assert _live_segments() == before

    def test_worker_stats_exported(self, dataset_lotus):
        lotus = dataset_lotus["Twtr10"]
        with use_registry() as reg:
            count_hhh_hhn_processes(lotus, workers=3)
        snap = reg.snapshot()
        chunks = snap["counters"]["parallel.sched.chunks"]
        assert chunks > 0
        assert snap["counters"]["parallel.sched.tasks_executed"] == chunks
        assert snap["histograms"]["parallel.sched.worker_wall_s"]["count"] == 3
        assert snap["gauges"]["parallel.sched.shm_bytes"] > 0
        phase = reg.find_span("phase1-processes")
        assert phase is not None
        workers = phase.find_all("worker")
        assert len(workers) == 3
        expected = count_hhh_hhn(lotus)
        assert sum(w.attrs["hits"] for w in workers) == sum(expected)
        assert sum(w.attrs["executed"] for w in workers) == chunks

    def test_invalid_workers_rejected(self, dataset_lotus):
        with pytest.raises(ValueError):
            count_hhh_hhn_processes(dataset_lotus["LJGrp"], workers=0)


class TestWorkerTelemetry:
    """Cross-process trace propagation: worker spans are recorded inside
    the worker processes and stitched under the parent ``phase1`` span."""

    def test_worker_spans_recorded_in_worker_processes(self, dataset_lotus):
        import os

        with use_registry() as reg:
            count_hhh_hhn_processes(dataset_lotus["Twtr10"], workers=3)
        phase = reg.find_span("phase1-processes")
        workers = phase.find_all("worker")
        assert len(workers) == 3
        # captured inside the workers: three distinct pids, none ours
        pids = {w.attrs["pid"] for w in workers}
        assert len(pids) == 3 and os.getpid() not in pids
        for w in workers:
            assert w.trace_id == phase.trace_id
            assert w.parent_id == phase.span_id
            # real worker-side timestamps, contained in the parent span
            assert phase.start > 0 and w.start > 0
            assert w.start >= phase.start - 1e-3
            assert w.start + w.elapsed <= phase.start + phase.elapsed + 1e-3
            chunks = w.find_all("chunk")
            assert len(chunks) == w.attrs["executed"] > 0
            for c in chunks:
                assert c.start >= w.start - 1e-3
                assert c.trace_id == phase.trace_id

    def test_worker_wall_sums_within_phase_budget(self, dataset_lotus):
        workers = 3
        with use_registry() as reg:
            count_hhh_hhn_processes(dataset_lotus["Twtr10"], workers=workers)
        phase = reg.find_span("phase1-processes")
        total = sum(w.elapsed for w in phase.find_all("worker"))
        assert total > 0
        # each worker's wall clock fits inside the phase: the sum cannot
        # exceed workers x the phase wall time (plus stitch tolerance)
        assert total <= workers * phase.elapsed * 1.05
