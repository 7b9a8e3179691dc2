"""Cross-backend determinism, pinned with the run-ledger machinery.

Two properties:

1. every backend × worker-count combination produces the **same
   triangle counts** and — after dropping the never-gated ``timing``
   tolerance class (which owns all ``parallel.sched.*`` scheduling
   metrics) — the **same flattened metric snapshot**;
2. the backend/workers choice is an input: records from different
   configurations carry **distinct config hashes**, while reruns of the
   same configuration reproduce the same hash.
"""

from __future__ import annotations

import pytest

from repro.core import build_lotus_graph
from repro.core.count import lotus_count_from_structure
from repro.graph import load_dataset
from repro.obs import use_registry
from repro.obs.ledger import (
    build_run_record,
    config_hash,
    flatten_record_metrics,
)
from repro.obs.regress import metric_kind

CONFIGS = [
    ("sequential", 1),
    ("threads", 2),
    ("threads", 4),
    ("processes", 1),
    ("processes", 2),
    ("processes", 4),
]


@pytest.fixture(scope="module")
def graph():
    return load_dataset("LJGrp")


@pytest.fixture(scope="module")
def snapshots(graph):
    """One traced run per backend config -> (counts, flattened metrics)."""
    lotus = build_lotus_graph(graph)
    out = {}
    for backend, workers in CONFIGS:
        with use_registry() as registry:
            counts = lotus_count_from_structure(
                lotus, backend=backend, workers=workers
            )
        record = build_run_record(
            registry,
            command="test-backend-determinism",
            config={"backend": backend, "workers": workers},
            graph=graph,
            dataset_name="LJGrp",
            meta={
                "triangles": counts.total,
                "hhh": counts.hhh,
                "hhn": counts.hhn,
                "hnn": counts.hnn,
                "nnn": counts.nnn,
            },
        )
        out[(backend, workers)] = (counts, flatten_record_metrics(record))
    return out


def _deterministic(flat: dict) -> dict:
    return {
        k: v for k, v in flat.items() if metric_kind(k) != "timing"
    }


def test_counts_identical_across_configs(snapshots):
    reference = snapshots[("sequential", 1)][0]
    for key, (counts, _) in snapshots.items():
        assert counts == reference, f"{key} diverged: {counts} != {reference}"


def test_deterministic_metrics_identical_across_configs(snapshots):
    reference = _deterministic(snapshots[("sequential", 1)][1])
    assert reference  # the filter must keep the counting metrics
    for key, (_, flat) in snapshots.items():
        assert _deterministic(flat) == reference, (
            f"non-timing metric snapshot of {key} diverged"
        )


def test_scheduler_metrics_are_timing_class():
    for key in (
        "counter.parallel.sched.tiles",
        "counter.parallel.sched.chunks",
        "counter.parallel.sched.tasks_stolen",
        "gauge.parallel.sched.shm_bytes",
        "histogram.parallel.sched.worker_wall_s.count",
    ):
        assert metric_kind(key) == "timing"
    # non-scheduler counters stay gated
    assert metric_kind("counter.parallel.tiles") == "count"


def test_speedup_metrics_are_floor_class():
    assert metric_kind("EU15.phase1.workers4_sim_speedup") == "floor"
    assert metric_kind("EU15.phase1.hits") == "count"


def test_config_hashes_distinguish_backends():
    hashes = {
        config_hash({"backend": b, "workers": w}) for b, w in CONFIGS
    }
    assert len(hashes) == len(CONFIGS)
    assert config_hash({"backend": "threads", "workers": 2}) == config_hash(
        {"workers": 2, "backend": "threads"}
    )


def test_worker_metrics_differ_between_worker_counts(snapshots):
    """Sanity: the timing-class filter is actually load-bearing — raw
    snapshots of different worker counts DO differ on scheduler metrics."""
    flat2 = snapshots[("processes", 2)][1]
    flat4 = snapshots[("processes", 4)][1]
    key = "counter.parallel.sched.chunks"
    assert key in flat2 and key in flat4
    assert flat2[key] != flat4[key]
