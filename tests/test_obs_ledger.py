"""Run-ledger tests: hashing determinism, append/index/resolve, diffing.

The determinism contract (ISSUE 3 satellite): two runs with identical
config + seed must produce identical config hashes and dataset
fingerprints, and byte-identical metric snapshots on the dense-oracle
datasets.
"""

from __future__ import annotations

import json

import pytest

from repro.core import count_triangles_lotus
from repro.graph import complete_graph, erdos_renyi, powerlaw_chung_lu
from repro.obs import use_registry
from repro.obs.ledger import (
    Ledger,
    LedgerError,
    build_run_record,
    canonical_json,
    collect_provenance,
    config_hash,
    dataset_fingerprint,
    diff_runs,
    flatten_record_metrics,
    format_run_diff,
    run_span_deltas,
)
from repro.obs.regress import metric_kind, regressions


def _record(tmp_path=None, command="test", config=None, graph=None, **kw):
    return build_run_record(None, command=command, config=config, graph=graph, **kw)


class TestConfigHash:
    def test_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_nested_and_none(self):
        assert config_hash(None) == config_hash({})
        assert config_hash({"x": {"b": 1, "a": 2}}) == config_hash(
            {"x": {"a": 2, "b": 1}}
        )

    def test_numpy_scalars_coerced(self):
        import numpy as np

        assert config_hash({"n": np.int64(5)}) == config_hash({"n": 5})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestDatasetFingerprint:
    def test_same_graph_same_hash(self):
        a = erdos_renyi(100, 0.1, seed=3)
        b = erdos_renyi(100, 0.1, seed=3)
        fa, fb = dataset_fingerprint(a), dataset_fingerprint(b)
        assert fa["edge_hash"] == fb["edge_hash"]
        assert fa["num_vertices"] == 100
        assert fa["num_edges"] == a.num_edges

    def test_different_graph_different_hash(self):
        a = erdos_renyi(100, 0.1, seed=3)
        b = erdos_renyi(100, 0.1, seed=4)
        assert dataset_fingerprint(a)["edge_hash"] != dataset_fingerprint(b)["edge_hash"]

    def test_registry_params_for_known_dataset(self):
        from repro.graph import load_dataset

        fp = dataset_fingerprint(load_dataset("LJGrp"), name="LJGrp")
        assert fp["name"] == "LJGrp"
        assert fp["registry"]["paper_name"] == "LiveJournal"
        assert fp["registry"]["kind"] == "SN"

    def test_unknown_name_has_no_registry_block(self):
        fp = dataset_fingerprint(complete_graph(4), name="nope")
        assert "registry" not in fp

    def test_graphless_fingerprint(self):
        assert dataset_fingerprint(None) == {"name": None}


class TestProvenance:
    def test_stamp_has_environment_fields(self):
        prov = collect_provenance()
        assert prov["python"].count(".") >= 1
        assert prov["numpy"]
        assert prov["hostname"]
        # inside this repo, git data should resolve
        assert prov["git_sha"] is None or len(prov["git_sha"]) == 40

    def test_machine_model_recorded_when_given(self):
        assert collect_provenance("SkyLakeX")["machine_model"] == "SkyLakeX"


class TestRunRecord:
    def test_record_shape_and_run_id(self):
        g = complete_graph(5)
        with use_registry() as reg:
            count_triangles_lotus(g)
        record = build_run_record(
            reg, command="count", config={"algorithm": "lotus"}, graph=g,
            seed=7, meta={"triangles": 10},
        )
        assert record["schema"] == 1
        assert record["kind"] == "run-record"
        assert record["run_id"].startswith("r")
        assert "-" in record["run_id"]
        assert record["config_hash"] == config_hash({"algorithm": "lotus"})
        assert record["seed"] == 7
        assert record["metrics"]["counters"] is not None
        assert record["spans"], "observed run must carry its span trees"

    def test_registry_none_gives_empty_metrics(self):
        record = _record()
        assert record["metrics"] == {}
        assert record["spans"] == []


class TestDeterminism:
    """Identical config + seed => identical hashes and byte-identical metrics."""

    @pytest.mark.parametrize("make", [
        lambda: erdos_renyi(200, 0.08, seed=42),
        lambda: powerlaw_chung_lu(500, 8.0, exponent=2.1, seed=5),
        lambda: complete_graph(32),
    ])
    def test_two_identical_runs_snapshot_identically(self, make):
        snapshots, hashes, fingerprints = [], [], []
        for _ in range(2):
            graph = make()
            with use_registry() as reg:
                count_triangles_lotus(graph)
            config = {"algorithm": "lotus", "seed": 42}
            snapshots.append(canonical_json(reg.snapshot()).encode())
            hashes.append(config_hash(config))
            fingerprints.append(dataset_fingerprint(graph))
        assert hashes[0] == hashes[1]
        assert fingerprints[0]["edge_hash"] == fingerprints[1]["edge_hash"]
        assert snapshots[0] == snapshots[1], "metric snapshots must be byte-identical"

    def test_flattened_metrics_identical_across_reruns(self):
        flats = []
        for _ in range(2):
            graph = erdos_renyi(150, 0.1, seed=9)
            with use_registry() as reg:
                result = count_triangles_lotus(graph)
            record = build_run_record(
                reg, command="count", config={"seed": 9}, graph=graph,
                meta={"triangles": int(result.triangles)},
            )
            flat = flatten_record_metrics(record)
            flats.append({k: v for k, v in flat.items()
                          if metric_kind(k) != "timing"})
        assert flats[0] == flats[1]


class TestLedger:
    def _seed_ledger(self, tmp_path, n=3):
        ledger = Ledger(tmp_path / "runs")
        ids = []
        for i in range(n):
            record = _record(config={"i": i}, meta={"triangles": i * 10})
            record["run_id"] = f"r2026010{i}T000000Z-{i:08x}"  # stable ids
            ids.append(ledger.append(record))
        return ledger, ids

    def test_append_and_list(self, tmp_path):
        ledger, ids = self._seed_ledger(tmp_path)
        entries = ledger.entries()
        assert [e["run_id"] for e in entries] == ids
        assert [r["run_id"] for r in ledger.records()] == ids

    def test_get_by_id_prefix_latest(self, tmp_path):
        ledger, ids = self._seed_ledger(tmp_path)
        assert ledger.get(ids[1])["run_id"] == ids[1]
        assert ledger.get(ids[1][:12])["run_id"] == ids[1]
        assert ledger.get("latest")["run_id"] == ids[-1]
        assert ledger.get("latest~2")["run_id"] == ids[0]

    def test_ambiguous_prefix_rejected(self, tmp_path):
        ledger, ids = self._seed_ledger(tmp_path)
        with pytest.raises(LedgerError, match="ambiguous"):
            ledger.get("r2026010")

    def test_unknown_ref_and_out_of_range(self, tmp_path):
        ledger, _ = self._seed_ledger(tmp_path)
        with pytest.raises(LedgerError, match="no run matching"):
            ledger.get("zzz")
        with pytest.raises(LedgerError, match="out of range"):
            ledger.get("latest~99")

    def test_empty_ledger(self, tmp_path):
        with pytest.raises(LedgerError, match="empty"):
            Ledger(tmp_path / "runs").get("latest")

    def test_index_rebuilt_when_missing_or_stale(self, tmp_path):
        ledger, ids = self._seed_ledger(tmp_path)
        ledger.index_path.unlink()
        assert [e["run_id"] for e in ledger.entries()] == ids
        # corrupt the index: entries() must fall back to the JSONL
        ledger.index_path.write_text("{not json")
        assert ledger.get(ids[0])["run_id"] == ids[0]

    def test_malformed_jsonl_raises_ledger_error(self, tmp_path):
        ledger, _ = self._seed_ledger(tmp_path, n=1)
        with open(ledger.path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(LedgerError, match="malformed"):
            list(ledger.records())

    def test_non_record_append_rejected(self, tmp_path):
        with pytest.raises(LedgerError):
            Ledger(tmp_path / "runs").append({"kind": "other"})

    def test_jsonl_is_append_only_json_lines(self, tmp_path):
        ledger, ids = self._seed_ledger(tmp_path)
        lines = ledger.path.read_text().strip().splitlines()
        assert len(lines) == len(ids)
        for line in lines:
            json.loads(line)


class TestDiffRuns:
    def _observed_record(self, seed=3, tweak=None):
        graph = erdos_renyi(150, 0.1, seed=seed)
        with use_registry() as reg:
            result = count_triangles_lotus(graph)
            reg.counter("work.pairs").add(1000)
        record = build_run_record(
            reg, command="count", config={"algorithm": "lotus", "seed": seed},
            graph=graph,
            meta={"triangles": int(result.triangles),
                  "elapsed": float(result.elapsed)},
        )
        if tweak:
            tweak(record)
        return record

    def test_identical_runs_have_no_regressions(self):
        a = self._observed_record()
        b = self._observed_record()
        diff = diff_runs(a, b)
        assert diff["same_config"] and diff["same_dataset"]
        assert regressions(diff["metrics"]) == []

    def test_triangle_change_is_exact_regression(self):
        a = self._observed_record()
        b = self._observed_record(tweak=lambda r: r["meta"].update(triangles=1))
        bad = regressions(diff_runs(a, b)["metrics"])
        assert any(d.key == "meta.triangles" and d.kind == "exact" for d in bad)

    def test_counter_growth_beyond_tolerance_regresses(self):
        a = self._observed_record()
        b = self._observed_record()
        counters = b["metrics"]["counters"]
        key = next(iter(counters))
        counters[key] = counters[key] * 2 + 10
        bad = regressions(diff_runs(a, b)["metrics"])
        assert any(d.key == f"counter.{key}" and d.kind == "count" for d in bad)

    def test_elapsed_is_timing_and_never_gates(self):
        a = self._observed_record()
        b = self._observed_record(tweak=lambda r: r["meta"].update(elapsed=999.0))
        deltas = diff_runs(a, b)["metrics"]
        timing = [d for d in deltas if d.key == "meta.elapsed"]
        assert timing and timing[0].kind == "timing" and not timing[0].regressed

    def test_different_config_and_dataset_flagged(self):
        a = self._observed_record(seed=3)
        b = self._observed_record(seed=4)
        b["config"]["seed"] = 4
        from repro.obs.ledger import config_hash as ch

        b["config_hash"] = ch(b["config"])
        diff = diff_runs(a, b)
        assert not diff["same_config"]
        assert not diff["same_dataset"]

    def test_span_deltas_align_by_path(self):
        a = self._observed_record()
        b = self._observed_record()
        deltas = {d.path: d for d in run_span_deltas(a, b)}
        assert "lotus" in deltas
        assert "lotus/preprocess" in deltas
        d = deltas["lotus/preprocess"]
        assert d.a_elapsed is not None and d.b_elapsed is not None
        assert d.delta == pytest.approx(d.b_elapsed - d.a_elapsed)

    def test_span_only_in_one_run(self):
        a = self._observed_record()
        b = self._observed_record()
        b["spans"].append({"name": "extra", "elapsed": 0.5})
        deltas = {d.path: d for d in run_span_deltas(a, b)}
        assert deltas["extra"].a_elapsed is None
        assert deltas["extra"].b_elapsed == pytest.approx(0.5)
        assert deltas["extra"].delta is None

    def test_format_run_diff_renders(self):
        a = self._observed_record()
        b = self._observed_record()
        text = format_run_diff(diff_runs(a, b), verbose=True)
        assert "config:  identical" in text
        assert "dataset: identical" in text
        assert "span timings" in text
        assert "lotus/preprocess" in text


class TestFlatten:
    def test_artifact_metrics_pass_through_unprefixed(self):
        record = _record(
            artifact={"kind": "bench-trajectory", "schema": 1,
                      "metrics": {"LJGrp.triangles": 7}},
        )
        flat = flatten_record_metrics(record)
        assert flat["LJGrp.triangles"] == 7

    def test_kind_map(self):
        assert metric_kind("meta.triangles") == "exact"
        assert metric_kind("LJGrp.triangles") == "exact"
        assert metric_kind("gauge.memsim.lotus.l1.hit_rate") == "share"
        assert metric_kind("x.region.he.llc_share") == "share"
        assert metric_kind("meta.elapsed") == "timing"
        assert metric_kind("info.LJGrp.lotus_seconds") == "timing"
        assert metric_kind("counter.parallel.tiles") == "count"
