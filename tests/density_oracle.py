"""The copying block build of the DensityIndex, kept as the oracle for the lean one.

perception.DensityIndex shifts each block row's other columns into place for
its mean and takes argpartition's k columns unless a row ties at its k-th
distance. These are the forms it replaced: `mean_over_others` means a flat
np.delete copy of each block's other columns, and `nearest` lexsorts every
column at or below each row's partitioned k-th distance. `density_arrays`
builds `avg` and `knn` from them block by block, as the package did, and the
package's arrays must equal them byte for byte.
"""

import numpy as np


def mean_over_others(dist, rows):
    """Each row's mean over a flat np.delete copy of its other columns (0 with none)."""
    n = dist.shape[1]
    if n == 1:
        return np.zeros(len(rows))
    own = np.arange(len(rows)) * n + rows  # flat positions, in row order
    return np.delete(dist, own).reshape(-1, n - 1).mean(axis=1)


def nearest(dist, k, rank):
    """Each row's k columns at or below its partitioned k-th distance, by (distance, rank)."""
    n_rows = dist.shape[0]
    if k <= 0:
        return np.empty((n_rows, 0), dtype=np.intp)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
    row, col = np.nonzero(dist <= kth)
    order = np.lexsort((rank[col], dist[row, col], row))
    start = np.searchsorted(row, np.arange(n_rows))
    return col[order][start[:, None] + np.arange(k)]


def density_arrays(X, rows, k, block):
    """(avg, knn) of the copying build over X in its order, scattered to rows."""
    n = X.shape[0]
    rows = np.asarray(rows, dtype=np.intp)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1e-12
    unit = X / norms
    k = min(k, n - 1)
    avg = np.zeros(n)
    knn = np.zeros((n, max(k, 0)), dtype=np.intp)
    for a in range(0, n, block):
        b = min(a + block, n)
        own = np.arange(a, b)
        dist = unit[a:b] @ unit.T
        np.subtract(1.0, dist, out=dist)
        avg[rows[a:b]] = mean_over_others(dist, own)
        dist[own - a, own] = np.inf
        knn[rows[a:b]] = rows[nearest(dist, k, rows)]
    return avg, knn
