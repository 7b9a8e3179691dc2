"""Vectorised multi-range array helpers.

These implement the "gather many CSR rows at once" idiom that keeps the
per-vertex kernels of the TC algorithms inside NumPy: a Python loop runs
only over vertices, while all per-edge work is batched.  Membership in
CSR rows is one ``searchsorted`` over sorted arc keys ``row * W + col``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges", "group_ids", "segment_sums",
    "key_width", "arc_keys", "encode_keys", "match_keys", "rows_searchsorted",
]


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
