"""Vectorised multi-range array helpers.

These implement the "gather many CSR rows at once" idiom that keeps the
per-vertex kernels of the TC algorithms inside NumPy: a Python loop runs
only over vertices, while all per-edge work is batched.  Membership in
CSR rows is one ``searchsorted`` over sorted arc keys ``row * W + col``;
every in-row pair (phase 1, the distributed wedges) comes out of
:func:`pair_runs`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "concat_ranges", "group_ids", "segment_sums", "pair_runs", "PAIR_CHUNK",
    "key_width", "arc_keys", "encode_keys", "match_keys", "rows_searchsorted",
]

# pairs per pair_runs chunk: small enough that the per-pair temporaries
# of one chunk stay cache-resident (and bound peak memory)
PAIR_CHUNK = 1 << 16


def key_width(*indices: np.ndarray) -> int:
    """Row stride ``W`` of the arc keys: one more than the largest column
    ID of all the given index arrays.  Structures whose keys meet must
    share one ``W``, or a column ``>= W`` aliases into the next row."""
    return 1 + max((int(ix.max()) for ix in indices if ix.size), default=0)


def encode_keys(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """The int64 key ``rows * width + cols`` of each ``(row, col)`` arc."""
    cols = np.asarray(cols).astype(np.int64, copy=False)
    return np.asarray(rows, dtype=np.int64) * width + cols


def arc_keys(indptr: np.ndarray, indices: np.ndarray, width: int) -> np.ndarray:
    """Every arc of a CSR with sorted rows as its key; the keys come out
    globally sorted.  ``ValueError`` if ``num_rows * width`` overflows int64."""
    num_rows = indptr.size - 1
    if num_rows * width > np.iinfo(np.int64).max:
        raise ValueError(f"arc keys overflow int64: {num_rows} rows x width {width}")
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), np.diff(indptr))
    return encode_keys(rows, indices, width)


def match_keys(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Vectorised membership: is each query key present in ``sorted_keys``?"""
    if sorted_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, query_keys)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == query_keys


def rows_searchsorted(
    keys: np.ndarray, indptr: np.ndarray, width: int, rows: np.ndarray,
    needle: np.ndarray | int,
) -> np.ndarray:
    """Per-row lower bound over whole CSR rows: the count of elements of
    row ``rows[i]`` below ``needle[i]`` (or a scalar needle).  ``keys`` is
    :func:`arc_keys` of the CSR; needles are clamped to ``[0, width]`` so
    a query key never reaches into the next row."""
    rows = np.asarray(rows, dtype=np.int64)
    query = encode_keys(rows, np.clip(needle, 0, width), width)
    return np.searchsorted(keys, query) - indptr[rows]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i]+lengths[i])`` for all i.

    Equivalent to ``np.concatenate([np.arange(s, s+l) ...])`` without the
    per-range Python overhead.  Returns an empty int64 array when the
    total length is zero.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # position of each output element within its own range
    group_start = np.cumsum(lengths) - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(group_start, lengths)
    return np.repeat(starts, lengths) + within


def pair_runs(
    indptr: np.ndarray, arcs: np.ndarray, chunk: int = PAIR_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every in-row pair whose later element is one of ``arcs``, in chunks.

    ``arcs`` are positions into the CSR's neighbour array.  An arc at row
    offset ``i`` owns a run of ``i`` pairs: itself (the later element)
    with each earlier arc of its row, ascending.  Runs follow the order
    of ``arcs`` and are laid out flat with one ``arange`` and two
    ``repeat``s per chunk; a run longer than the room left in a chunk
    continues in the next.  Yields ``(later, earlier)`` int64 position
    arrays of at most ``chunk`` pairs.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    arcs = np.asarray(arcs, dtype=np.int64)
    row_start = indptr[indptr.searchsorted(arcs, side="right") - 1]
    lens = arcs - row_start
    ends = lens.cumsum()
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        # the runs overlapping pair ordinals [lo, hi), clipped to them
        a = int(ends.searchsorted(lo, side="right"))
        b = int(ends.searchsorted(hi, side="left")) + 1
        run_lo = ends[a:b] - lens[a:b]
        first = np.maximum(run_lo, lo)
        counts = np.minimum(ends[a:b], hi) - first
        earlier = np.arange(lo, hi, dtype=np.int64)
        earlier += (row_start[a:b] - run_lo).repeat(counts)
        yield arcs[a:b].repeat(counts), earlier


def group_ids(lengths: np.ndarray) -> np.ndarray:
    """Group index of each element of the concatenation of ranges.

    ``group_ids([2, 0, 3]) == [0, 0, 2, 2, 2]`` — pairs with
    :func:`concat_ranges` to label which source range each gathered
    element came from.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum ``values`` within consecutive segments of the given lengths.

    ``segment_sums([1,2,3,4,5], [2,3]) == [3, 12]``.  Zero-length
    segments yield 0.
    """
    values = np.asarray(values)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.size != int(lengths.sum()):
        raise ValueError("values length must equal sum(lengths)")
    out = np.zeros(lengths.size, dtype=np.int64 if values.dtype.kind in "bui" else values.dtype)
    if values.size == 0:
        return out
    nonzero = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonzero]
    sums = np.add.reduceat(values, starts)
    out[nonzero] = sums
    return out
