"""The benchmark's own exactness oracle.

Distances are computed in direct form, ``sum_j (q_j - t_j)^2``
accumulated one dimension at a time, over the rows the benchmark
itself tracks as live — never from the program's state.  An answer
row passes when

* every returned id is live and appears once,
* each reported distance matches the direct-form distance of its id,
* the sorted reported distances match the oracle's k smallest,

all within ``|got - want| <= ATOL + RTOL * want``.  The tolerance is
fixed from float64 rounding: a GEMM-form distance of points with
coordinates of order 10..100 can be off by ~1e-7 near zero.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-6
#: Query rows per direct-form block; bounds the oracle's own memory.
CHUNK_ROWS = 32


def sq_distances(queries, points):
    """Direct-form squared distances, (len(queries), len(points))."""
    out = np.zeros((len(queries), len(points)))
    for j in range(queries.shape[1]):
        diff = queries[:, j, None] - points[None, :, j]
        out += diff * diff
    return out


def knn_distances(queries, points, k, live=None):
    """Sorted k smallest direct-form distances of each query row."""
    queries = np.atleast_2d(queries)
    rows = []
    for start in range(0, len(queries), CHUNK_ROWS):
        d2 = sq_distances(queries[start:start + CHUNK_ROWS], points)
        if live is not None:
            d2[:, ~live] = np.inf
        part = np.partition(d2, k - 1, axis=1)[:, :k]
        rows.append(np.sqrt(np.sort(part, axis=1)))
    return np.concatenate(rows)


def _close(got, want):
    return np.abs(got - want) <= ATOL + RTOL * np.abs(want)


def bad_rows(queries, points, distances, indices, expected, live=None):
    """Boolean mask of answer rows that fail the oracle."""
    queries = np.atleast_2d(queries)
    distances = np.atleast_2d(np.asarray(distances, dtype=np.float64))
    indices = np.atleast_2d(np.asarray(indices))
    bad = np.zeros(len(queries), dtype=bool)
    in_range = (indices >= 0) & (indices < len(points))
    bad |= ~in_range.all(axis=1)
    safe = np.where(in_range, indices, 0)
    if live is not None:
        bad |= ~live[safe].all(axis=1)
    ordered = np.sort(safe, axis=1)
    bad |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    diff = points[safe] - queries[:, None, :]
    recomputed = np.sqrt(np.einsum("ikj,ikj->ik", diff, diff))
    bad |= ~_close(distances, recomputed).all(axis=1)
    bad |= ~_close(np.sort(distances, axis=1), expected).all(axis=1)
    return bad
