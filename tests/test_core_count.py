"""Tests for the 3-phase Lotus counting (Algorithm 3)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LotusConfig,
    build_lotus_graph,
    count_hhh_hhn,
    count_hnn,
    count_nnn,
    count_triangles_lotus,
    lotus_count_from_structure,
)
from repro.graph import (
    complete_graph,
    erdos_renyi,
    from_edges,
    powerlaw_chung_lu,
)
from repro.core.tiling import tiles_for_phase1
from repro.graph.csr import OrientedGraph
from repro.graph.degree import hub_mask_top_k
from repro.memsim.trace import _phase1_pairs
from repro.parallel.executor import count_hhh_hhn_parallel_split, run_tile_batch
from repro.tc import count_triangles_matrix


def classify_triangles_brute_force(graph, lotus):
    """Independent per-type classification: enumerate all triangles via the
    matrix oracle decomposition using hub membership in *new* labels."""
    hubs_old = np.flatnonzero(lotus.ra < lotus.hub_count)
    hub_set = set(hubs_old.tolist())
    counts = {"hhh": 0, "hhn": 0, "hnn": 0, "nnn": 0}
    # brute force triangle enumeration (small graphs only)
    n = graph.num_vertices
    for v in range(n):
        nv = set(graph.neighbors(v).tolist())
        for u in graph.neighbors(v):
            if u >= v:
                continue
            for w in graph.neighbors(int(u)):
                if w >= u or int(w) not in nv:
                    continue
                k = sum(int(x) in hub_set for x in (v, u, w))
                counts[["nnn", "hnn", "hhn", "hhh"][k]] += 1
    return counts


class TestPhaseDecomposition:
    def test_types_sum_to_total(self, powerlaw_small):
        r = count_triangles_lotus(powerlaw_small)
        c = r.extra["counts"]
        assert c.hhh + c.hhn + c.hnn + c.nnn == r.triangles
        assert c.total == count_triangles_matrix(powerlaw_small)

    @pytest.mark.parametrize("hub_count", [1, 3, 8, 25])
    def test_per_type_counts_match_brute_force(self, hub_count):
        g = erdos_renyi(60, 0.15, seed=31)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=hub_count))
        counts = lotus_count_from_structure(lotus)
        expected = classify_triangles_brute_force(g, lotus)
        assert counts.hhh == expected["hhh"]
        assert counts.hhn == expected["hhn"]
        assert counts.hnn == expected["hnn"]
        assert counts.nnn == expected["nnn"]

    def test_k4_all_hubs(self):
        g = complete_graph(4)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=4))
        counts = lotus_count_from_structure(lotus)
        assert counts.hhh == 4 and counts.total == 4

    def test_k4_no_real_hubs(self):
        # hub_count=1: a single hub -> no HHH/HHN possible (needs 2 hubs)
        g = complete_graph(4)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=1))
        counts = lotus_count_from_structure(lotus)
        assert counts.hhh == 0 and counts.hhn == 0
        assert counts.hnn == 3  # triangles through the hub
        assert counts.nnn == 1

    def test_hub_fraction_dominates_on_powerlaw(self, powerlaw_medium):
        """~93% of triangles include a hub on skewed graphs (Table 1)."""
        r = count_triangles_lotus(powerlaw_medium)
        assert r.extra["counts"].hub_fraction() > 0.8

    def test_phases_individually(self, er_medium):
        lotus = build_lotus_graph(er_medium, LotusConfig(hub_count=16))
        hhh, hhn = count_hhh_hhn(lotus)
        hnn = count_hnn(lotus)
        nnn = count_nnn(lotus)
        assert hhh + hhn + hnn + nnn == count_triangles_matrix(er_medium)

    def test_fused_and_unfused_agree(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        assert count_hnn(lotus, fused=True) == count_hnn(lotus, fused=False)
        assert count_nnn(lotus, fused=True) == count_nnn(lotus, fused=False)


class TestEndToEnd:
    def test_breakdown_phases_present(self, powerlaw_small):
        r = count_triangles_lotus(powerlaw_small)
        for phase in ("preprocess", "hhh+hhn", "hnn", "nnn"):
            assert phase in r.phases

    def test_total_time_is_sum(self, powerlaw_small):
        r = count_triangles_lotus(powerlaw_small)
        assert r.elapsed == pytest.approx(sum(r.phases.values()))

    def test_empty_graph(self):
        from repro.graph import empty_graph

        r = count_triangles_lotus(empty_graph(10))
        assert r.triangles == 0

    def test_single_edge(self):
        g = from_edges(np.array([[0, 1]]))
        assert count_triangles_lotus(g).triangles == 0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_hub_count_invariance(self, seed, hub_count):
        """The total is independent of the hub count — only the type split
        changes (the partition property of the 4 triangle types)."""
        g = powerlaw_chung_lu(150, 5.0, exponent=2.2, seed=seed)
        ref = count_triangles_matrix(g)
        r = count_triangles_lotus(g, LotusConfig(hub_count=hub_count))
        assert r.triangles == ref


class TestHubCountSensitivity:
    def test_more_hubs_more_hub_triangles(self, powerlaw_small):
        g = powerlaw_small
        few = count_triangles_lotus(g, LotusConfig(hub_count=4)).extra["counts"]
        many = count_triangles_lotus(g, LotusConfig(hub_count=200)).extra["counts"]
        assert many.hub >= few.hub
        assert many.nnn <= few.nnn

    def test_all_vertices_hubs(self, er_small):
        g = er_small
        r = count_triangles_lotus(g, LotusConfig(hub_count=g.num_vertices))
        c = r.extra["counts"]
        assert c.hhn == c.hnn == c.nnn == 0
        assert c.hhh == count_triangles_matrix(g)


class TestPhase1RowCheck:
    """Phase 1 checks each HE arc once instead of each pair; a corrupted
    row must still be rejected by every phase-1 path, never counted."""

    @pytest.fixture
    def lotus(self, powerlaw_small):
        return build_lotus_graph(powerlaw_small, LotusConfig(hub_count=40))

    @staticmethod
    def _corrupt(lotus, kind, hub_row):
        he = lotus.he
        deg = he.degrees()
        rows = np.flatnonzero(deg >= 3)
        rows = rows[rows < lotus.hub_count] if hub_row else rows[rows >= lotus.hub_count]
        v = int(rows[0])
        lo, hi = int(he.indptr[v]), int(he.indptr[v + 1])
        indices = he.indices.copy()
        if kind == "descending":
            indices[lo], indices[hi - 1] = indices[hi - 1], indices[lo]
        else:
            indices[hi - 1] = lotus.hub_count
        return replace(lotus, he=OrientedGraph(he.indptr, indices))

    @pytest.mark.parametrize("hub_row", [True, False])
    @pytest.mark.parametrize(
        "kind, error, message",
        [("descending", ValueError, "ascend"),
         ("out_of_range", IndexError, "hub ID out of range")],
    )
    def test_every_phase1_path_raises(self, lotus, kind, error, message, hub_row):
        bad = self._corrupt(lotus, kind, hub_row)
        tiles = tiles_for_phase1(bad.he, partitions=4, degree_threshold=4)
        calls = [
            lambda: count_hhh_hhn(bad),
            lambda: run_tile_batch(bad, tiles),
            lambda: count_hhh_hhn_parallel_split(bad, threads=2, degree_threshold=4),
            lambda: _phase1_pairs(bad),
        ]
        for call in calls:
            with pytest.raises(error, match=message):
                call()

    def test_intact_structure_passes(self, lotus):
        tiles = tiles_for_phase1(lotus.he, partitions=4, degree_threshold=4)
        assert run_tile_batch(lotus, tiles) == count_hhh_hhn(lotus)
