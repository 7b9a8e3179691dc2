"""Seeded inputs for every workload.

The shapes follow ``repro.graph.datasets`` (R-MAT for web graphs,
power-law Chung-Lu for social graphs) but every generator seed is derived
from the benchmark's ``--seed``, so one seed always gives byte-identical
inputs and another seed gives different inputs of the same shape.  Only
the random draws depend on the seed: sizes, skews and popularity shares
are constants, which keeps run-to-run spread across seeds small.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

from repro.graph import CSRGraph, powerlaw_chung_lu, rmat
from repro.obs.ledger import dataset_fingerprint

# web graphs: the SK-Domain stand-in's shape (datasets.py: _wg(15, 14, 0.62))
WEB_SCALE = 15
WEB_EDGE_FACTOR = 14
WEB_A = 0.62

ZIPF_S = 1.0                 # popularity skew of the serve step's requests

# stream-update base graphs
STREAM_SIZES = (4000, 5000, 6000)
STREAM_GAMMA = 2.1
STREAM_AVG_DEGREE = 10.0
STREAM_BATCH = 64


def sub_seed(seed: int, tag: str, index: int = 0) -> int:
    """A generator seed derived from the run seed, a tag and an index."""
    seq = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode()), index])
    return int(seq.generate_state(1)[0])


def web_graph(seed: int) -> CSRGraph:
    b = (1.0 - WEB_A) / 3.0
    return rmat(WEB_SCALE, edge_factor=WEB_EDGE_FACTOR, a=WEB_A, b=b, c=b,
                seed=sub_seed(seed, "web"))


def stream_graphs(seed: int) -> list[CSRGraph]:
    return [
        powerlaw_chung_lu(n, STREAM_AVG_DEGREE, exponent=STREAM_GAMMA,
                          seed=sub_seed(seed, "stream", i))
        for i, n in enumerate(STREAM_SIZES)
    ]


def poisson_schedule(seed: int, tag: str, rate: float, seconds: float,
                     n_graphs: int) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrival times in ``[0, seconds)`` and Zipf-popular targets.

    Graph ``i`` has popularity rank ``i`` and receives its Zipf share of
    the requests exactly (largest remainder), in seeded random order: the
    seed changes which request goes where, not how many each graph gets.
    """
    rng = np.random.default_rng(sub_seed(seed, tag))
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    weights = 1.0 / (np.arange(n_graphs) + 1.0) ** ZIPF_S
    share = due.size * weights / weights.sum()
    per_rank = np.floor(share).astype(np.int64)
    short = due.size - int(per_rank.sum())
    per_rank[np.argsort(per_rank - share, kind="stable")[:short]] += 1
    return due, rng.permutation(np.repeat(np.arange(n_graphs), per_rank))


def stream_ops(seed: int, graphs: list[CSRGraph], rounds: int) -> list[tuple]:
    """The update/read sequence of ``stream-update``.

    Each round targets one base graph (round-robin) with two ``insert``
    batches (half uniform random pairs, half friend-of-friend pairs) and
    one ``delete`` batch (half uniform existing edges, half edges at the
    graph's hubs); every fourth round ends with a ``maintained`` and a
    ``lotus`` read, and the sequence ends with a ``compact`` of every
    graph.  Ops are ``(kind, graph_index, edges)``.
    """
    rng = np.random.default_rng(sub_seed(seed, "stream-ops"))
    half = STREAM_BATCH // 2
    prepared = []
    for g in graphs:
        edges = g.edges().astype(np.int64)
        deg = g.degrees()
        hubs = np.flatnonzero(deg >= np.quantile(deg, 0.99))
        hub_edges = edges[np.isin(edges[:, 0], hubs) | np.isin(edges[:, 1], hubs)]
        prepared.append((g, edges, hub_edges))
    ops: list[tuple] = []
    for r in range(rounds):
        gi = r % len(graphs)
        g, edges, hub_edges = prepared[gi]
        n = g.num_vertices
        for _ in range(2):
            rand = rng.integers(0, n, size=(half, 2))
            arcs = rng.integers(0, g.num_arcs, size=half)
            src = np.searchsorted(g.indptr, arcs, side="right") - 1
            mid = g.indices[arcs].astype(np.int64)
            lo, hi = g.indptr[mid], g.indptr[mid + 1]
            far = g.indices[lo + (rng.random(half) * (hi - lo)).astype(np.int64)]
            fof = np.column_stack([src, far.astype(np.int64)])
            ops.append(("insert", gi, np.concatenate([rand, fof]).tolist()))
        dele = np.concatenate([
            edges[rng.integers(0, edges.shape[0], size=half)],
            hub_edges[rng.integers(0, hub_edges.shape[0], size=half)],
        ])
        ops.append(("delete", gi, dele.tolist()))
        if r % 4 == 3:
            ops.append(("maintained", gi, None))
            ops.append(("lotus", gi, None))
    ops += [("compact", gi, None) for gi in range(len(graphs))]
    return ops


def fingerprint(graphs: list[CSRGraph], *extra) -> str:
    """SHA-256 over the graphs' CSR bytes and any extra arrays or lists."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(dataset_fingerprint(g)["edge_hash"].encode())
    for item in extra:
        h.update(repr(item).encode() if not isinstance(item, np.ndarray)
                 else item.tobytes())
    return h.hexdigest()
