"""Shared array utilities for the array kernels.

Centralizes the float64 coercion of externally-sourced numbers (tech
tables, geometry files, user config) so integer-typed inputs can never
smuggle integer dtypes — and their overflow/truncation semantics —
into a vectorized kernel, and provides the empty-safe concatenation
and ragged-range idioms the kernels build their index arrays with.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def as_f64(values, copy: bool = False) -> np.ndarray:
    """``values`` as a float64 ndarray (scalars become 0-d arrays).

    The single choke point for coercing tech-table and geometry inputs:
    integer lists, int32/float32 arrays, and Python ints all come out
    as float64, so downstream arithmetic never truncates or overflows
    at machine-integer width.
    """
    arr = np.array(values, dtype=np.float64, copy=True) if copy \
        else np.asarray(values, dtype=np.float64)
    return arr


def f64(value) -> float:
    """A single value coerced through float64 (NaN-preserving)."""
    return float(np.float64(value))


def as_index(values) -> np.ndarray:
    """``values`` as an intp index array."""
    return np.asarray(values, dtype=np.intp)


def concat_f64(parts: Iterable) -> np.ndarray:
    """Concatenate float64 arrays; an empty part list yields shape (0,)."""
    parts = [as_f64(p) for p in parts]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)


def concat_index(parts: Iterable) -> np.ndarray:
    """Concatenate index arrays; an empty part list yields shape (0,)."""
    parts = [as_index(p) for p in parts]
    if not parts:
        return np.zeros(0, dtype=np.intp)
    return np.concatenate(parts)


def ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for a vector of segment lengths.

    The standard ragged-range idiom: one ``arange`` over the total
    minus each segment's start offset, repeated per element.
    """
    counts = as_index(counts)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.intp) - np.repeat(starts, counts)


def group_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integers below ``bound``.

    An LSD radix sort on 16-bit digits: numpy radix-sorts 16-bit keys,
    several times faster than its stable sort of wider ones.
    """
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = np.argsort((keys[low] >> 16).astype(np.uint16), kind="stable")
    return low[high]


def padded_rows(values: Sequence[Sequence], fill) -> np.ndarray:
    """Ragged rows packed into a dense (n, max_len) array with ``fill``.

    Returns a float64 or intp matrix depending on ``fill``'s type; rows
    shorter than the widest are padded on the right.
    """
    n = len(values)
    width = max((len(row) for row in values), default=0)
    dtype = np.intp if isinstance(fill, (int, np.integer)) \
        and not isinstance(fill, bool) else np.float64
    out = np.full((n, max(width, 1) if n else 1), fill, dtype=dtype)
    for i, row in enumerate(values):
        if row:
            out[i, :len(row)] = row
    return out


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """``total = 0.0; total += t`` along the last axis, in order.

    ``np.sum`` may add pairwise, which rounds differently; accumulate
    never reorders.  The trailing ``+ 0.0`` stands in for the start
    value: it turns an all-``-0.0`` total into ``+0.0`` and changes
    nothing else, so skipping zero terms, as a scalar loop may, gives
    the same total as adding them.
    """
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
