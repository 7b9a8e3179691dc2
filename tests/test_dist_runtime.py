"""Tests for the sharded multi-process distributed runtime.

Covers exactness (per-phase parity with the sequential counter and the
dense-matrix oracle), the simulator-vs-runtime differential contract
(``simulate_distributed_tc`` predicts the measured ``dist.*`` traffic),
failure semantics (shard crash, deadline), telemetry stitching, and the
serve-engine integration.
"""

import numpy as np
import pytest

from repro.core.count import count_triangles_lotus, lotus_count_from_structure
from repro.core.structure import LotusConfig, build_lotus_graph
from repro.dist import (
    PARTITIONERS,
    lotus_rank,
    resolve_partitioner,
    run_distributed_count,
    simulate_distributed_tc,
)
from repro.graph import erdos_renyi, powerlaw_chung_lu
from repro.obs import use_registry
from repro.parallel.backend import run_phase1
from repro.parallel.workers import FAULT_EXIT_CODE, WorkerCrashError
from repro.tc import count_triangles_matrix

CONFIG = LotusConfig(hub_count=48)


@pytest.fixture(scope="module")
def skew_graph():
    return powerlaw_chung_lu(900, 8.0, exponent=2.1, seed=13)


@pytest.fixture(scope="module")
def skew_counts(skew_graph):
    lotus = build_lotus_graph(skew_graph, CONFIG)
    return lotus_count_from_structure(lotus, backend="sequential")


class TestExactness:
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_per_phase_parity(self, partitioner, skew_graph, skew_counts):
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=3, partitioner=partitioner
        )
        assert run.counts == skew_counts
        assert run.counts.total == count_triangles_matrix(skew_graph)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_shard_count_invariance(self, shards, skew_graph, skew_counts):
        run = run_distributed_count(skew_graph, config=CONFIG, shards=shards)
        assert run.counts == skew_counts
        assert run.shards == shards
        assert run.per_shard_triangles.size == shards
        assert run.per_shard_triangles.sum() == run.counts.total

    def test_empty_graph_inline(self):
        g = erdos_renyi(12, 0.0, seed=1)
        run = run_distributed_count(g, config=CONFIG, shards=3)
        assert run.counts.total == 0
        assert run.bytes_exchanged == 0
        assert run.per_shard_triangles.sum() == 0

    def test_count_triangles_lotus_entrypoint(self, skew_graph, skew_counts):
        result = count_triangles_lotus(
            skew_graph, config=CONFIG, backend="distributed", workers=2
        )
        assert result.triangles == skew_counts.total
        assert result.extra["backend"] == "distributed"
        assert result.extra["shards"] == 2
        assert result.extra["counts"] == skew_counts
        assert "distributed" in result.phases


class TestSimulatorDifferential:
    """The simulator and the runtime share ``repro.dist.plan``, so the
    simulator's predicted traffic must match the measured ``dist.*``
    metrics (ISSUE tolerance: exact, since both count the same arcs)."""

    @pytest.mark.parametrize("partitioner", ["hash", "block"])
    def test_predicted_traffic_matches_measured(self, partitioner, skew_graph):
        rank, _hub = lotus_rank(skew_graph, CONFIG)
        owner = PARTITIONERS[partitioner](skew_graph, 3)
        sim = simulate_distributed_tc(skew_graph, owner, 3, rank=rank)
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=3, partitioner=partitioner
        )
        assert run.bytes_exchanged == sim.bytes_exchanged
        assert run.remote_checks == sim.remote_wedge_checks
        assert run.local_checks == sim.local_wedge_checks
        assert run.boundary_edges == sim.total_comm_edges
        assert run.counts.total == sim.triangles

    def test_single_shard_no_traffic(self, skew_graph):
        run = run_distributed_count(skew_graph, config=CONFIG, shards=1)
        assert run.remote_checks == 0
        assert run.bytes_exchanged == 0
        assert run.boundary_edge_ratio == 0.0


class TestFailureSemantics:
    def test_fault_injection_raises_worker_crash(self, skew_graph):
        with pytest.raises(WorkerCrashError) as exc:
            run_distributed_count(
                skew_graph, config=CONFIG, shards=3, fault_shard=1
            )
        assert exc.value.exitcodes[1] == FAULT_EXIT_CODE
        assert "shard 1" in str(exc.value)

    def test_deadline_raises_timeout(self, skew_graph):
        with pytest.raises(TimeoutError):
            run_distributed_count(
                skew_graph, config=CONFIG, shards=2, deadline_s=0.0
            )

    def test_generous_deadline_completes(self, skew_graph, skew_counts):
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=2, deadline_s=120.0
        )
        assert run.counts == skew_counts

    def test_bad_partitioner_rejected(self, skew_graph):
        with pytest.raises(ValueError):
            run_distributed_count(skew_graph, partitioner="nope")

    def test_bad_shards_rejected(self, skew_graph):
        with pytest.raises(ValueError):
            run_distributed_count(skew_graph, shards=0)


class TestPartitionerResolution:
    def test_degree_alias(self):
        assert resolve_partitioner("degree") == "degree_balanced"

    def test_canonical_names(self):
        for name in PARTITIONERS:
            assert resolve_partitioner(name) == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_partitioner("round_robin")


class TestTelemetry:
    def test_shard_spans_and_metrics(self, skew_graph):
        with use_registry() as reg:
            run = run_distributed_count(
                skew_graph, config=CONFIG, shards=3, partitioner="hash"
            )
            dspan = reg.find_span("distributed")
            assert dspan is not None
            shard_spans = [s for s in reg.iter_spans() if s.name == "shard"]
            assert len(shard_spans) == 3
            for span in shard_spans:
                children = {c.name for c in span.children}
                assert {"enumerate", "exchange", "tally"} <= children
            assert reg.counter("dist.bytes_exchanged").value == (
                run.bytes_exchanged
            )
            assert reg.counter("dist.remote_checks").value == run.remote_checks
            assert reg.counter("dist.local_checks").value == run.local_checks
            assert reg.gauge("dist.shards").value == 3
            assert reg.gauge("dist.boundary_edge_ratio").value == (
                pytest.approx(run.boundary_edge_ratio)
            )


class TestBackendWiring:
    def test_run_phase1_rejects_distributed(self, skew_graph):
        lotus = build_lotus_graph(skew_graph, CONFIG)
        with pytest.raises(ValueError, match="distributed"):
            run_phase1(lotus, backend="distributed")


class TestServeIntegration:
    @pytest.fixture
    def serve_graph(self):
        return erdos_renyi(200, 0.06, seed=31)

    def test_distributed_query_matches_sequential(self, serve_graph):
        from repro.serve import QueryEngine, QueryRequest, StructureCache

        with QueryEngine(StructureCache(), max_batch=8) as engine:
            seq = engine.query(
                QueryRequest(graph=serve_graph, backend="sequential"),
                wait_timeout=60,
            )
            dist = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=120,
            )
        assert seq.ok and dist.ok
        assert dist.triangles == seq.triangles

    def test_shard_failure_isolated_to_its_computation(self, serve_graph):
        """A WorkerCrashError fails only the affected computation; other
        queries — and retries of the same graph — still succeed."""
        from repro.serve import QueryEngine, QueryRequest, StructureCache
        from repro.serve.engine import _default_executor

        armed = {"fault": True}

        def faulting_executor(entry, request, backend, workers):
            if backend == "distributed" and armed["fault"]:
                armed["fault"] = False
                raise WorkerCrashError(
                    f"shard 1 died with exit code {FAULT_EXIT_CODE}",
                    {0: None, 1: FAULT_EXIT_CODE},
                )
            return _default_executor(entry, request, backend, workers)

        other = erdos_renyi(150, 0.08, seed=77)
        with QueryEngine(
            StructureCache(), executor=faulting_executor, max_batch=8
        ) as engine:
            crashed = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=60,
            )
            assert crashed.status == "error"
            assert "shard 1" in crashed.error
            ok_other = engine.query(
                QueryRequest(graph=other), wait_timeout=60
            )
            assert ok_other.ok
            retried = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=120,
            )
            assert retried.ok
