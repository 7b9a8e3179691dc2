"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They shrink the inputs through the generator constants so that every
workload finishes in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import gen, layers, loops, run  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from repro.graph import complete_graph, save_edgelist  # noqa: E402
from repro.serve import QueryEngine  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's inputs."""
    monkeypatch.setattr(gen, "WEB_SCALE", 10)
    monkeypatch.setattr(gen, "STREAM_SIZES", (300, 400))
    monkeypatch.setattr(loops, "STREAM_BLOCK_ROUNDS", 8)
    monkeypatch.setattr(layers, "SERVE_STEP_S", 0.5)
    monkeypatch.setattr(layers, "DYNAMIC_ROUNDS", 4)
    monkeypatch.setattr(layers, "DYNAMIC_COMPACT_EVERY", 4)


def _run(capsys, workload: str, seed: int = 3, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.2", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


# -- seeded inputs -----------------------------------------------------------

def _inputs(seed: int) -> str:
    stream = gen.stream_graphs(seed)
    due, targets = gen.poisson_schedule(seed, "serve", 20.0, 5.0, len(stream))
    ops = gen.stream_ops(seed, stream, 8)
    return gen.fingerprint([gen.web_graph(seed), *stream], due, targets, ops)


def test_same_seed_gives_identical_inputs(small):
    assert _inputs(7) == _inputs(7)


def test_other_seed_gives_other_inputs_of_the_same_shape(small):
    assert _inputs(7) != _inputs(8)
    for a, b in zip(gen.stream_graphs(7), gen.stream_graphs(8)):
        assert a.num_vertices == b.num_vertices
    assert gen.web_graph(7).num_vertices == gen.web_graph(8).num_vertices


def test_schedule_gives_every_graph_its_zipf_share(small):
    _, t1 = gen.poisson_schedule(1, "serve", 40.0, 10.0, 4)
    _, t2 = gen.poisson_schedule(2, "serve", 40.0, 10.0, 4)
    c1, c2 = np.bincount(t1, minlength=4), np.bincount(t2, minlength=4)
    assert abs(c1 / c1.sum() - c2 / c2.sum()).max() < 0.02
    assert list(np.argsort(-c1)) == [0, 1, 2, 3]


# -- the correctness gate can fail ---------------------------------------------

@pytest.mark.parametrize("workload", sorted(loops.WORKLOADS))
def test_every_workload_is_correct_at_head(small, capsys, workload):
    code, result = _run(capsys, workload)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(loops.WORKLOADS))
def test_injected_wrong_count_fails_the_run(small, capsys, monkeypatch, workload):
    import repro.core.count as core_count

    real = core_count.count_nnn
    monkeypatch.setattr(core_count, "count_nnn", lambda *a, **k: real(*a, **k) + 1)
    code, result = _run(capsys, workload)
    assert code == 1 and result["correct"] is False


def test_a_run_leaves_no_process_behind(small, capsys):
    import multiprocessing
    from multiprocessing import resource_tracker

    code, _ = _run(capsys, "web-sharded")
    assert code == 0
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_web_sharded_checks_bytes_against_the_simulator(small, capsys, monkeypatch):
    import repro.dist.simulate as simulate

    real = simulate.simulate_distributed_tc

    def off_by_one(*args, **kwargs):
        report = real(*args, **kwargs)
        return report.__class__(**{**report.__dict__,
                                   "bytes_exchanged": report.bytes_exchanged + 1})

    monkeypatch.setattr(loops, "simulate_distributed_tc", off_by_one)
    code, result = _run(capsys, "web-sharded")
    assert code == 1 and result["correct"] is False


def test_stream_checkpoint_recount_catches_a_drifting_count(small, capsys, monkeypatch):
    from repro.dynamic.graph import DynamicGraph

    real = DynamicGraph.common_neighbor_count
    monkeypatch.setattr(DynamicGraph, "common_neighbor_count",
                        lambda self, u, v: real(self, u, v) + 1)
    code, result = _run(capsys, "stream-update")
    assert code == 1 and result["correct"] is False


# -- exact work counts -----------------------------------------------------------

def test_work_counts_repeat_exactly_across_runs_of_one_seed(small, tmp_path):
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        wl = loops.WebCount()
        wl.setup(5, str(workdir), 0.1)
        sweep = layers.Sweep(wl, str(workdir), Recorder())
        metrics, tally = sweep.run(0.01)
        assert not tally.problems
        counts.append({k: metrics[k] for k in layers.EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["core.phase1.pairs"] > 0
    assert counts[0]["dynamic.compactions"] > 0


def test_layer_self_times_add_up_to_the_count(small, capsys):
    code, result = _run(capsys, "web-count", trace=1)
    assert code == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.self_sum_ratio"] <= metrics["trace.overhead_ratio"] + 1e-9
    assert metrics["trace.self_sum_ratio"] > 0.5


# -- open-loop hygiene --------------------------------------------------------------

def test_refusals_and_timeouts_are_failures_that_miss_the_limit(small, monkeypatch, tmp_path):
    monkeypatch.setattr(layers, "DRAIN_S", 0.05)
    engine = QueryEngine(max_queue=1)  # never started: nothing is answered
    tally = loops.Tally(limit_s=10.0)
    due = np.array([0.0, 0.0, 0.0])
    layers.open_loop(engine, [str(tmp_path / "g.txt")], [0], due,
                     np.zeros(3, dtype=np.int64), tally)
    assert (tally.attempted, tally.failed, tally.slo_ok) == (3, 3, 0)
    assert tally.timed == 3


def test_a_late_generator_marks_the_run_invalid(small, monkeypatch, tmp_path):
    path = str(tmp_path / "g.txt")
    save_edgelist(path, complete_graph(4))
    monkeypatch.setattr(layers, "GEN_LATE_LIMIT_S", 1.0)
    due = np.array([0.0, 0.01, 0.02])
    with QueryEngine() as engine:
        on_time = loops.Tally(limit_s=10.0)
        layers.open_loop(engine, [path], [4], due, np.zeros(3, dtype=np.int64),
                         on_time)
        monkeypatch.setattr(layers, "GEN_LATE_LIMIT_S", -1.0)
        late = loops.Tally(limit_s=10.0)
        layers.open_loop(engine, [path], [4], due, np.zeros(3, dtype=np.int64),
                         late)
    assert on_time.problems == [] and on_time.slo_ok == 3
    assert any("invalid run" in p for p in late.problems)


# -- the checkout without the program -----------------------------------------------

def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web-count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
