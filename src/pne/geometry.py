"""Point-cloud container, cell-average subsampling, KD-tree neighborhood
queries (kNN and ball query) and receptive-field statistics.

Cell averaging ranks the integer cell coordinates with one `np.lexsort`
(x major, then y, then z) and numbers the cells where a sorted row differs
from the one before it.

In both searches scipy's cKDTree proposes and an exact norm decides. kNN
selects through one window: `_window` takes each row's nearest points from
the tree, re-measures them and keeps the k first by (distance, index). A
row whose k-th distance may tie a point past its window is selected again
through a window twice as wide, until no row is in doubt; on clouds without
ties that is none, so one window of k+1 serves every row. Ball query builds
no Python object per query: it takes every pair within a slightly widened
radius from one sweep of a query tree against the support tree. A call
builds the trees it needs, unless its caller passes `_trees`, a dict that
keeps each cloud's tree for the calls that follow: `Encoder.prepare` builds
one tree per pyramid level that way, and drops them all when it returns.

Conventions that tests rely on:
  * neighbor indices are stored sorted ascending within each query range;
  * kNN ties at the k-th distance break toward the smallest support index;
  * ball query includes the boundary (distance <= radius);
  * a query point contained in the support cloud is its own neighbor.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInputError, ShapeError, StatisticsError


@dataclass
class PointCloud:
    """Positions with optional per-point features and labels."""

    positions: np.ndarray
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ShapeError(f"positions must be (N, 3), got {self.positions.shape}")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        n = len(self.positions)
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2 or self.features.shape[0] != n:
                raise ShapeError("features row count must match positions")
            if not np.all(np.isfinite(self.features)):
                raise ValueError("features must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ShapeError("labels length must match positions")
            if n and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")

    def __len__(self):
        return len(self.positions)


@dataclass
class NeighborList:
    """Ragged query->support index structure.

    Neighbors of query i are indices[offsets[i]:offsets[i+1]], stored
    sorted ascending by support index.
    """

    offsets: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.offsets.ndim != 1 or len(self.offsets) == 0 or self.offsets[0] != 0:
            raise ShapeError("offsets must be 1-d, non-empty and start at 0, "
                             f"got shape {self.offsets.shape}")
        if np.any(np.diff(self.offsets) < 0):
            raise ShapeError("offsets must be non-decreasing")
        if self.offsets[-1] != len(self.indices):
            raise ShapeError("offsets end must equal indices length")

    @property
    def num_queries(self):
        return len(self.offsets) - 1

    @property
    def counts(self):
        return np.diff(self.offsets)

    def neighbors(self, i):
        return self.indices[self.offsets[i]:self.offsets[i + 1]]

    def query_ids(self):
        """Flat query id per stored pair (parallel to `indices`)."""
        return np.repeat(np.arange(self.num_queries), self.counts)


def cell_average_subsample(cloud, cell_size):
    """Replace the points of each non-empty cell by their centroid.

    Features are averaged, labels take the majority vote (ties -> smallest
    class id). Cells are numbered in ascending (x, y, z) order of their
    integer coordinates. Returns the subsampled cloud.
    """
    _check_positive("cell_size", cell_size)
    scaled = cloud.positions / cell_size
    largest = np.abs(scaled).max(initial=0.0)
    if not largest < 2.0**63:
        raise DegenerateInputError(f"cell_size {cell_size!r} is too small for this cloud: "
                                   f"the largest |position|/cell_size, {largest:.6g}, "
                                   "overflows int64 cell coordinates")
    coords = np.floor(scaled).astype(np.int64)
    order = np.lexsort(coords.T[::-1])
    ranked = coords[order]
    first = np.ones(len(order), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    counts = np.diff(np.append(np.flatnonzero(first), len(order)))

    def cell_mean(values):
        # np.add.at accumulates in input order, so each centroid sums its
        # members in ascending index order, as a per-cell mean would
        sums = np.zeros((len(counts), values.shape[1]))
        np.add.at(sums, inverse, values)
        return sums / counts[:, None]

    positions = cell_mean(cloud.positions)
    features = cell_mean(cloud.features) if cloud.features is not None else None
    labels = None
    if cloud.labels is not None:
        num_classes = int(cloud.labels.max(initial=0)) + 1
        votes = np.bincount(inverse * num_classes + cloud.labels,
                            minlength=len(counts) * num_classes)
        labels = votes.reshape(len(counts), num_classes).argmax(axis=1)
    return PointCloud(positions, features=features, labels=labels)


# Relative slack between the tree's distances and the norm below, which
# makes every final decision. The tree sums squared coordinate differences
# in its own order, so its distance can sit a few ulp away from the norm.
# Both round the same coordinate differences, so the gap is relative to the
# distance, not to the coordinates, and stays so for clouds far from the
# origin. Every radius handed to the tree is widened by this factor, and the
# kNN window check by its square.
_SLACK = 1e-9


def _check_positive(name, value):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _distances(a, b):
    """Row-wise Euclidean distances of broadcast (..., 3) arrays: the values
    of np.linalg.norm(a - b, axis=-1) bit for bit (the same squares, summed
    in the same order), without its generic reduction."""
    d = a - b
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


def _tree(cloud, trees):
    """The KD-tree over `cloud`: the one `trees` holds for it, else built and
    stored there. `trees` is keyed by id(cloud), so its owner keeps every
    cloud it names alive for as long as the dict lives."""
    tree = trees.get(id(cloud))
    if tree is None:
        tree = trees[id(cloud)] = cKDTree(cloud.positions)
    return tree


def _pair_distances(query, support, qid, idx):
    return _distances(np.take(support.positions, idx, axis=0),
                      np.take(query.positions, qid, axis=0))


def _neighbor_list(num_queries, qid, idx):
    offsets = np.zeros(num_queries + 1, dtype=np.int64)
    np.cumsum(np.bincount(qid, minlength=num_queries), out=offsets[1:])
    return NeighborList(offsets, idx)


def _window(tree, positions, support, take, width):
    """The `take` nearest support points of each row of `positions`, sorted
    ascending, selected from the `width` nearest the tree proposes, and the
    rows whose selection is in doubt.

    Re-measured with the exact norm and ordered by (distance, index), the
    first `take` of the window are the answer unless a point outside it may
    tie the take-th. Every point outside has tree distance >= the window's
    last, tree_d[:, -1], and norm >= tree distance / (1 + _SLACK). Where
    tree_d[:, -1] > kth * (1 + _SLACK)**2, each of them has norm
    > kth * (1 + _SLACK) > kth, the take-th norm in the window, so the window
    holds the answer. A window of the whole support leaves no row in doubt.
    """
    tree_d, idx = tree.query(positions, k=list(range(1, width + 1)))
    d = _distances(np.take(support.positions, idx, axis=0), positions[:, None, :])
    # ties at the k-th distance break toward the smallest support index
    order = np.lexsort((idx, d))
    nearest = np.sort(np.take_along_axis(idx, order[:, :take], axis=1), axis=1)
    if width == len(support):
        return nearest, np.empty(0, dtype=np.int64)
    kth = np.take_along_axis(d, order[:, take - 1:take], axis=1)[:, 0]
    return nearest, np.flatnonzero(tree_d[:, -1] <= kth * (1.0 + _SLACK) ** 2)


def knn(query, support, k, *, _trees=None):
    """k nearest support points per query (all of them if support has
    fewer than k points).

    Every row is selected through a window of its k+1 nearest tree points;
    the rows in doubt there (a tie at the k-th distance may reach past the
    window: lattices, duplicates) are selected again through a window twice
    as wide, and so on, up to the whole support cloud. A row leaves once its
    window reaches past the points tied at its k-th distance, so its last
    window is at most twice as wide as it needs.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if len(support) == 0:
        raise ValueError("support cloud must be non-empty")
    take = min(k, len(support))
    width = min(take + 1, len(support))
    tree = _tree(support, {} if _trees is None else _trees)
    nearest, rows = _window(tree, query.positions, support, take, width)
    while len(rows):
        width = min(2 * width, len(support))
        nearest[rows], doubt = _window(tree, query.positions[rows], support, take, width)
        rows = rows[doubt]
    offsets = np.arange(len(query) + 1, dtype=np.int64) * take
    return NeighborList(offsets, nearest.reshape(-1))


def ball_query(query, support, radius, *, _trees=None):
    """All support points within `radius` (inclusive) of each query point.

    One sweep of a query tree against the support tree (a single tree when
    `query is support`) lists the pairs within the widened radius; sorted by
    (query, index) and re-measured, the pairs with exact distance <= radius
    are kept. Queries with no point in range get an empty range.
    """
    _check_positive("radius", radius)
    if len(support) == 0:
        raise ValueError("support cloud must be non-empty")
    trees = {} if _trees is None else _trees
    pairs = _tree(query, trees).sparse_distance_matrix(
        _tree(support, trees), radius * (1.0 + _SLACK), output_type="ndarray")
    qid, idx = np.divmod(np.sort(pairs["i"] * len(support) + pairs["j"]), len(support))
    inside = _pair_distances(query, support, qid, idx) <= radius
    return _neighbor_list(len(query), qid[inside], idx[inside])


def farthest_distances(neighbors, query, support):
    """Distance from each query to its farthest neighbor, for every query
    with at least one neighbor."""
    d = _pair_distances(query, support, neighbors.query_ids(), neighbors.indices)
    starts = neighbors.offsets[:-1][neighbors.counts > 0]
    return np.maximum.reduceat(d, starts) if len(starts) else np.empty(0)


def farthest_distance_stats(neighbors, query, support, cell_size):
    """Mean and population variance of (max neighbor distance / cell_size)
    over all queries with at least one neighbor."""
    _check_positive("cell_size", cell_size)
    vals = farthest_distances(neighbors, query, support) / cell_size
    if not len(vals):
        raise StatisticsError("all neighborhoods are empty")
    return float(vals.mean()), float(vals.var())
