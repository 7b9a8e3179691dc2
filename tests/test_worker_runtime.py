"""The one worker runtime (:mod:`repro.parallel.workers`) under both
process backends.

The crash contract is the same for ``processes`` and ``distributed``:
an injected fault raises :class:`WorkerCrashError` naming the dead
worker, with its ``FAULT_EXIT_CODE``; no shared-memory segment and no
child process outlives the raise; and with tracing on, the survivors'
partial span trees are stitched under the parent span before the raise,
which comes promptly (the survivors are aborted, not waited out).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time

import pytest

from repro.core import build_lotus_graph
from repro.core.structure import LotusConfig
from repro.dist import run_distributed_count
from repro.graph import load_dataset, powerlaw_chung_lu
from repro.obs import use_registry
from repro.parallel.procpool import count_hhh_hhn_processes
from repro.parallel.workers import FAULT_EXIT_CODE, WorkerCrashError, WorkerPool

# (backend, fault): processes faults first and last worker of 3, dist
# faults a middle shard of 3
CASES = [("processes", 0), ("processes", 2), ("distributed", 1)]

# backend -> (worker label, parent span name)
SPANS = {
    "processes": ("worker", "phase1-processes"),
    "distributed": ("shard", "distributed"),
}


def _live_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(scope="module")
def inputs():
    return {
        "processes": build_lotus_graph(load_dataset("LJGrp")),
        "distributed": powerlaw_chung_lu(900, 8.0, exponent=2.1, seed=13),
    }


def _run_with_fault(backend: str, data, fault: int) -> None:
    if backend == "processes":
        count_hhh_hhn_processes(data, workers=3, fault_worker=fault)
    else:
        run_distributed_count(
            data, config=LotusConfig(hub_count=48), shards=3, fault_shard=fault
        )


class TestCrashContract:
    @pytest.mark.parametrize("backend, fault", CASES)
    def test_crash_raises_and_cleans_up(self, inputs, backend, fault):
        label, _ = SPANS[backend]
        before = _live_segments()
        with pytest.raises(WorkerCrashError) as excinfo:
            _run_with_fault(backend, inputs[backend], fault)
        assert excinfo.value.exitcodes[fault] == FAULT_EXIT_CODE
        assert f"{label} {fault} died" in str(excinfo.value)
        assert _live_segments() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("backend, fault", CASES)
    def test_crash_flushes_partial_telemetry(self, inputs, backend, fault):
        label, parent_name = SPANS[backend]
        before = _live_segments()
        with use_registry() as reg:
            started = time.perf_counter()
            with pytest.raises(WorkerCrashError) as excinfo:
                _run_with_fault(backend, inputs[backend], fault)
            elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        assert excinfo.value.exitcodes[fault] == FAULT_EXIT_CODE
        assert _live_segments() == before
        assert multiprocessing.active_children() == []
        # the survivors' telemetry must have been stitched before the raise
        parent = reg.find_span(parent_name)
        assert parent is not None
        survivors = parent.find_all(label)
        assert len(survivors) == 2
        assert {w.attrs[label] for w in survivors} == {0, 1, 2} - {fault}
        for w in survivors:
            assert w.trace_id == parent.trace_id
            assert w.parent_id == parent.span_id
        if backend == "processes":
            # pool survivors steal the dead worker's chunks and finish
            assert all(w.attrs["executed"] > 0 for w in survivors)


def _exit_cleanly(payload, channel, registry, span):
    os._exit(0)


def _wait_for_parent(payload, channel, registry, span):
    with registry.span("waiting", parent=span):
        return channel.recv()


class TestWorkerPool:
    def test_exit_without_result_is_a_crash(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            with WorkerPool("worker", None) as pool:
                pool.start(_exit_cleanly, [None])
                pool.gather()
        assert excinfo.value.exitcodes == {0: 0}
        assert "worker 0 died with exit code 0" in str(excinfo.value)
        assert multiprocessing.active_children() == []

    def test_deadline_aborts_blocked_workers_and_stitches(self):
        with use_registry() as reg:
            with reg.span("parent") as parent:
                started = time.perf_counter()
                with pytest.raises(TimeoutError, match="shards \\[0, 1\\]"):
                    with WorkerPool("shard", parent, deadline_s=0.2) as pool:
                        pool.start(_wait_for_parent, [None, None])
                        pool.gather()
                elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        assert multiprocessing.active_children() == []
        shards = parent.find_all("shard")
        assert sorted(s.attrs["shard"] for s in shards) == [0, 1]
        for s in shards:
            assert s.trace_id == parent.trace_id
            assert [c.name for c in s.children] == ["waiting"]

    def test_scatter_gather_round_trip(self):
        with WorkerPool("worker", None) as pool:
            pool.start(_wait_for_parent, [None, None, None])
            pool.scatter({w: w * 10 for w in range(3)})
            assert pool.gather() == {0: 0, 1: 10, 2: 20}
        assert multiprocessing.active_children() == []
