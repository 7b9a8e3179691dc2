"""Neighbour-list intersection kernels.

The intersection of two sorted neighbour lists is the inner loop of every
TC algorithm (Section 2.2).  The paper discusses four families: merge
join, bitmap lookup, hashing, and binary search (Sections 2.2 and 6.3);
all four are implemented here with identical semantics so they can be
swapped in the ablation benches.

Scalar kernels (``intersect_count_*``) operate on one pair of sorted
arrays.  :func:`batch_pairwise_counts` is the vectorised work-horse of
the fused Forward and LOTUS HNN/NNN paths — it intersects many row pairs
in one sorted-arc-key membership pass; :func:`batch_intersect_counts`
intersects one query row against many CSR rows (the per-vertex loops).
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import (
    arc_keys,
    concat_ranges,
    encode_keys,
    key_width,
    match_keys,
    segment_sums,
)

__all__ = [
    "intersect_count_merge",
    "intersect_count_binary",
    "intersect_count_hash",
    "intersect_count_bitmap",
    "intersect_count_galloping",
    "intersect_count_adaptive",
    "merge_join_cost",
    "merge_join_touched",
    "batch_intersect_counts",
    "batch_pairwise_counts",
    "INTERSECT_KERNELS",
]

# gathered elements per membership pass of batch_pairwise_counts
_GATHER_CHUNK = 1 << 18


def intersect_count_merge(a: np.ndarray, b: np.ndarray) -> int:
    """Two-pointer merge-join count of common elements of sorted ``a``, ``b``.

    This is the reference implementation (kept deliberately literal — it
    mirrors the C code's control flow and is what the op-count model in
    :mod:`repro.memsim.opcounts` describes).  Use
    :func:`batch_intersect_counts` in hot paths.
    """
    i = j = count = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        av, bv = a[i], b[j]
        if av == bv:
            count += 1
            i += 1
            j += 1
        elif av < bv:
            i += 1
        else:
            j += 1
    return count


def intersect_count_binary(a: np.ndarray, b: np.ndarray) -> int:
    """Binary-search intersection: probe each element of the smaller list
    into the larger one (the GPU-style kernel of [31])."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size > b.size:
        a, b = b, a
    return int(np.count_nonzero(match_keys(b, a)))


def intersect_count_hash(a: np.ndarray, b: np.ndarray) -> int:
    """Hash-container intersection (Forward-hashed / GBBS style)."""
    if len(a) > len(b):
        a, b = b, a
    small = set(int(x) for x in a)
    return sum(1 for y in b if int(y) in small)


def intersect_count_bitmap(a: np.ndarray, b: np.ndarray, universe: int | None = None) -> int:
    """Bitmap intersection (Latapy's new-vertex-listing style [48]).

    Marks ``a`` in a dense boolean array over the ID universe, then tests
    ``b``.  Cost is O(|a| + |b|) plus the (amortisable) bitmap clear.

    An explicit ``universe`` is a promise about the marked set: every
    element of ``a`` must fit (``ValueError`` otherwise — silently
    dropping marks would undercount).  Elements of ``b`` outside the
    universe cannot have been marked and simply contribute zero.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0
    if universe is None:
        universe = int(max(a.max(), b.max())) + 1
    elif a.max() >= universe:
        raise ValueError(
            f"universe={universe} cannot hold element {int(a.max())} of a"
        )
    bitmap = np.zeros(universe, dtype=bool)
    bitmap[a] = True
    b = b[b < universe]
    return int(np.count_nonzero(bitmap[b])) if b.size else 0


def intersect_count_galloping(a: np.ndarray, b: np.ndarray) -> int:
    """Galloping (exponential) search intersection.

    For each element of the smaller list, gallop through the larger list
    with doubling steps before a bounded binary search — the strategy of
    the branch-free GPU kernels [33, 40].  Asymptotically
    O(|a| log(|b|/|a|)), best when the size ratio is extreme (a hub list
    probed by a short list).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return 0
    count = 0
    lo = 0
    nb = b.size
    for x in a.tolist():
        # gallop from the current frontier
        step = 1
        hi = lo
        while hi < nb and b[hi] < x:
            lo = hi
            hi += step
            step <<= 1
        hi = min(hi, nb)
        pos = lo + int(np.searchsorted(b[lo:hi + 1 if hi < nb else nb], x))
        if pos < nb and b[pos] == x:
            count += 1
        lo = pos
    return count


def intersect_count_adaptive(a: np.ndarray, b: np.ndarray, ratio: int = 32) -> int:
    """Degree-adaptive intersection ([34]): merge join for similar sizes,
    binary probing when one list is >= ``ratio`` times longer."""
    a = np.asarray(a)
    b = np.asarray(b)
    small, big = (a, b) if a.size <= b.size else (b, a)
    if small.size == 0:
        return 0
    if big.size >= ratio * small.size:
        return intersect_count_binary(small, big)
    return intersect_count_merge(a, b)


INTERSECT_KERNELS = {
    "merge": intersect_count_merge,
    "binary": intersect_count_binary,
    "hash": intersect_count_hash,
    "bitmap": intersect_count_bitmap,
    "galloping": intersect_count_galloping,
    "adaptive": intersect_count_adaptive,
}


def merge_join_cost(a: np.ndarray, b: np.ndarray) -> int:
    """Exact number of loop iterations a two-pointer merge join performs.

    The merge advances one (or both) pointers per iteration and stops when
    either list is exhausted, so the iteration count equals
    ``|{x in a : x <= b[-1]}| + |{y in b : y <= a[-1]}| - |a ∩ b|``.
    Used by the op-count model; verified against the literal loop in the
    test suite.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0
    touched_a = int(np.searchsorted(a, b[-1], side="right"))
    touched_b = int(np.searchsorted(b, a[-1], side="right"))
    return touched_a + touched_b - intersect_count_binary(a, b)


def merge_join_touched(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Number of elements of ``a`` and of ``b`` a merge join reads.

    An element is read iff it is <= the last element of the other list,
    except that the element that terminates the loop is also read; we use
    the simpler <=-rule, exact up to one element per list, which is what
    the locality traces need.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0, 0
    return (
        min(int(np.searchsorted(a, b[-1], side="right")) + 1, int(a.size)),
        min(int(np.searchsorted(b, a[-1], side="right")) + 1, int(b.size)),
    )


def batch_intersect_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    query: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """``out[i] = |query ∩ row(rows[i])|`` over a CSR structure, vectorised.

    ``query`` must be sorted ascending.  Gathers the neighbour lists of
    all ``rows`` in one shot and resolves membership with a single
    ``searchsorted`` — the Python interpreter never loops over edges.

    The per-vertex (``fused=False``) Forward, HNN and NNN loops and the
    node iterator reduce to calls of this function; their fused paths
    use :func:`batch_pairwise_counts`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    gathered = indices[concat_ranges(starts, lengths)]
    hits = match_keys(np.asarray(query), gathered).astype(np.int64)
    return segment_sums(hits, lengths)


def batch_pairwise_counts(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    pairs_left: np.ndarray,
    pairs_right: np.ndarray,
) -> int:
    """Sum of ``|A.row(l) ∩ B.row(r)|`` over paired rows, fully vectorised.

    Both structures must have sorted rows.  This is the kernel of the
    LOTUS HNN and NNN phases, Forward and the edge iterator.  The smaller
    row of each pair is gathered and its elements ``x`` are looked up as
    the keys ``probe_row * W + x`` among the sorted :func:`arc_keys` of
    the other structure, one ``searchsorted`` per chunk of gathered
    elements.  ``W`` spans the columns of *both* structures, so a
    gathered ID beyond the probed structure's largest column cannot alias
    into the next row.
    """
    pairs_left = np.asarray(pairs_left, dtype=np.int64)
    pairs_right = np.asarray(pairs_right, dtype=np.int64)
    if pairs_left.size == 0:
        return 0
    width = key_width(indices_a, indices_b)
    keys_a = arc_keys(indptr_a, indices_a, width)
    same = indptr_a is indptr_b and indices_a is indices_b
    keys_b = keys_a if same else arc_keys(indptr_b, indices_b, width)
    # gather the smaller row of each pair, so the gathered volume is
    # sum(min(deg_l, deg_r)) — pairs with a hub row would dominate it
    deg_l = indptr_a[pairs_left + 1] - indptr_a[pairs_left]
    deg_r = indptr_b[pairs_right + 1] - indptr_b[pairs_right]
    swap = deg_l < deg_r
    total = 0
    for sel, ip_g, ix_g, g_lens, gather_rows, probe_keys, probe_rows in (
        (~swap, indptr_b, indices_b, deg_r, pairs_right, keys_a, pairs_left),
        (swap, indptr_a, indices_a, deg_l, pairs_left, keys_b, pairs_right),
    ):
        g_lens = g_lens[sel]
        g_starts = ip_g[gather_rows[sel]]
        probe_rows = probe_rows[sel]
        cum = np.cumsum(g_lens)
        s = 0
        while s < cum.size:
            # pairs [s, e) gather at most _GATHER_CHUNK elements, or one
            # pair's row when that row alone is bigger
            done = int(cum[s - 1]) if s else 0
            e = max(int(np.searchsorted(cum, done + _GATHER_CHUNK, side="right")), s + 1)
            lens = g_lens[s:e]
            gathered = ix_g[concat_ranges(g_starts[s:e], lens)]
            query = encode_keys(np.repeat(probe_rows[s:e], lens), gathered, width)
            total += int(np.count_nonzero(match_keys(probe_keys, query)))
            s = e
    return total
