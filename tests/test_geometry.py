import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pne import geometry
from pne.errors import ShapeError, StatisticsError
from pne.geometry import (
    NeighborList,
    PointCloud,
    ball_query,
    cell_average_subsample,
    farthest_distance_stats,
    knn,
)


def brute_knn(query, support, k):
    """O(N^2) oracle with the documented tie rule (smallest index wins)."""
    out = []
    for q in query.positions:
        d = np.linalg.norm(support.positions - q, axis=1)
        order = np.lexsort((np.arange(len(d)), d))
        out.append(np.sort(order[: min(k, len(d))]))
    return out


def brute_ball(query, support, radius):
    out = []
    for q in query.positions:
        d = np.linalg.norm(support.positions - q, axis=1)
        out.append(np.flatnonzero(d <= radius))
    return out


def as_lists(nl):
    return [nl.neighbors(i).tolist() for i in range(nl.num_queries)]


def test_pointcloud_validation():
    with pytest.raises(ShapeError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0, 0]]))
    with pytest.raises(ValueError, match="features must be finite"):
        PointCloud(np.zeros((2, 3)), features=np.array([[1.0], [np.nan]]))
    with pytest.raises(ShapeError):
        PointCloud(np.zeros((2, 3)), labels=np.array([0]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), labels=np.array([-1]))


def test_neighborlist_validation():
    with pytest.raises(ShapeError):
        NeighborList(np.array([1, 2]), np.array([0, 1]))
    with pytest.raises(ShapeError):
        NeighborList(np.array([0, 2, 1]), np.array([0, 1]))
    with pytest.raises(ShapeError):
        NeighborList(np.array([0, 3]), np.array([0, 1]))
    with pytest.raises(ShapeError):
        NeighborList(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def test_subsample_centroid():
    cloud = PointCloud(np.array([[0.2, 0.2, 0.0], [0.4, 0.6, 0.0]]))
    out = cell_average_subsample(cloud, 1.0)
    assert len(out) == 1
    assert np.allclose(out.positions[0], [0.3, 0.4, 0.0])


def test_subsample_majority_label_tie():
    cloud = PointCloud(np.zeros((3, 3)) + 0.1, labels=np.array([0, 0, 1]))
    out = cell_average_subsample(cloud, 1.0)
    assert out.labels[0] == 0
    # tie between 1 and 2 -> smallest class id
    cloud = PointCloud(np.zeros((2, 3)) + 0.1, labels=np.array([2, 1]))
    out = cell_average_subsample(cloud, 1.0)
    assert out.labels[0] == 1


def test_subsample_counts_match_bruteforce_cells():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-2, 2, size=(300, 3)))
    for cell in (0.3, 0.7, 1.5):
        out = cell_average_subsample(cloud, cell)
        brute = {tuple(c) for c in np.floor(cloud.positions / cell).astype(int)}
        assert len(out) == len(brute)
        # one centroid inside each occupied cell
        assert {tuple(c) for c in np.floor(out.positions / cell).astype(int)} == brute


@pytest.mark.parametrize("cell", [0.0, -1.0, np.nan, np.inf])
def test_subsample_rejects_bad_cell_size(cell):
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="cell_size must be finite and > 0"):
        cell_average_subsample(cloud, cell)


def test_subsample_rejects_cell_coordinates_beyond_int64():
    # 1e12 / 1e-7 = 1e19 > 2**63: cast to int64, both points would land in
    # one cell and average to the origin
    cloud = PointCloud(np.array([[1e12, 0.0, 0.0], [-1e12, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"cell_size 1e-07 .* 1e\+19"):
        cell_average_subsample(cloud, 1e-7)


def test_subsample_rejects_an_overflowing_division_without_a_warning():
    # 1e308 / 0.1 overflows float64 before it could reach int64
    cloud = PointCloud(np.array([[1e308, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"cell_size 0.1 .*, inf,"):
            cell_average_subsample(cloud, 0.1)


def unique_subsample(cloud, cell_size):
    """The cell averaging of `cell_average_subsample`, with its cells found
    by np.unique(axis=0): positions, features and labels."""
    coords = np.floor(cloud.positions / cell_size).astype(np.int64)
    _, inverse, counts = np.unique(coords, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)

    def cell_mean(values):
        sums = np.zeros((len(counts), values.shape[1]))
        np.add.at(sums, inverse, values)
        return sums / counts[:, None]

    num_classes = int(cloud.labels.max(initial=0)) + 1
    votes = np.bincount(inverse * num_classes + cloud.labels, minlength=len(counts) * num_classes)
    return (cell_mean(cloud.positions), cell_mean(cloud.features),
            votes.reshape(len(counts), num_classes).argmax(axis=1))


def subsample_cases(rng):
    """Seeded (positions, cell size) pairs on the margins of cell averaging."""
    # coordinates on cell boundaries, negative ones included
    yield rng.integers(-4, 4, size=(200, 3)) * 0.25, 0.25
    yield rng.integers(-4, 4, size=(200, 3)) * 0.5, 0.25
    yield rng.uniform(-3, -1, size=(300, 3)), 0.4
    yield rng.uniform(-1, 1, size=(300, 3)) + 1e6, 0.3
    yield rng.uniform(-1, 1, size=(1, 3)), 0.3
    yield rng.uniform(0.01, 0.09, size=(50, 3)), 0.1
    base = rng.uniform(-1, 1, size=(40, 3))
    yield np.concatenate([base, base, base[:10]])[rng.permutation(90)], 0.3


def test_subsample_matches_unique_reference():
    rng = np.random.default_rng(9)
    for positions, cell in subsample_cases(rng):
        n = len(positions)
        # two classes drawn evenly, so many cells tie in the vote
        cloud = PointCloud(positions, features=rng.normal(size=(n, 2)),
                           labels=rng.integers(0, 2, size=n))
        out = cell_average_subsample(cloud, cell)
        for got, want in zip((out.positions, out.features, out.labels),
                             unique_subsample(cloud, cell)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_subsample_feature_average():
    cloud = PointCloud(np.zeros((2, 3)) + 0.2, features=np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = cell_average_subsample(cloud, 1.0)
    assert np.allclose(out.features[0], [2.0, 3.0])


def test_knn_simple():
    support = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = knn(query, support, 2)
    assert nl.neighbors(0).tolist() == [0, 1]


def test_knn_self_neighbor():
    cloud = PointCloud(np.array([[0.0, 0, 0], [5.0, 0, 0]]))
    nl = knn(cloud, cloud, 1)
    assert nl.neighbors(0).tolist() == [0]
    assert nl.neighbors(1).tolist() == [1]


def test_knn_ragged_when_support_small():
    support = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = knn(query, support, 5)
    assert nl.neighbors(0).tolist() == [0, 1]


def test_knn_tie_break_smallest_index():
    support = PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = knn(query, support, 2)
    # all three at distance 1; ties break toward smallest support index
    assert nl.neighbors(0).tolist() == [0, 1]


def test_knn_errors():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        knn(cloud, cloud, 0)
    with pytest.raises(ValueError):
        knn(cloud, PointCloud(np.zeros((0, 3))), 1)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", True])
def test_knn_rejects_non_integer_k(k):
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k!r}"):
        knn(cloud, cloud, k)


@pytest.mark.parametrize("radius", [0.0, -0.5, np.nan, np.inf])
def test_ball_query_rejects_bad_radius(radius):
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        ball_query(cloud, cloud, radius)


def test_empty_query_cloud():
    support = PointCloud(np.random.default_rng(5).uniform(-1, 1, size=(20, 3)))
    empty = PointCloud(np.zeros((0, 3)))
    for nl in (knn(empty, support, 4), ball_query(empty, support, 0.5)):
        assert nl.num_queries == 0
        assert nl.offsets.tolist() == [0] and len(nl.indices) == 0


def test_ball_query_simple():
    support = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = ball_query(query, support, 1.5)
    assert nl.neighbors(0).tolist() == [0, 1]


def test_ball_query_inclusive_boundary():
    support = PointCloud(np.array([[1.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    assert ball_query(query, support, 1.0).neighbors(0).tolist() == [0]


def test_ball_query_empty_range():
    support = PointCloud(np.array([[10.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = ball_query(query, support, 0.5)
    assert nl.counts.tolist() == [0]


def lattice(n, spacing):
    """n^3 grid points: many pairs at exactly equal distances."""
    axis = np.arange(n) * spacing
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


ADVERSARIAL = ["lattice", "duplicates", "k_over_n", "offset_1e6", "empty_ball", "tie_mix"]


def clouds(case, rng):
    """Seeded (query, support) pairs: random clouds (case False: self query,
    True: cross query) or inputs on the margins of a neighbor search."""
    if case == "lattice":
        # the radii and k in the tests below fall exactly on lattice shells
        support = PointCloud(lattice(5, 0.25))
        yield support, support
        yield PointCloud(lattice(3, 0.25) + 0.125), support
    elif case == "duplicates":
        base = rng.uniform(-1, 1, size=(30, 3))
        support = PointCloud(np.concatenate([base, base[:10], base[:10]])[rng.permutation(50)])
        yield support, support
        yield PointCloud(base[:7]), support
    elif case == "k_over_n":
        support = PointCloud(rng.uniform(-1, 1, size=(4, 3)))
        yield support, support
        yield PointCloud(rng.uniform(-1, 1, size=(6, 3))), support
    elif case == "offset_1e6":
        jitter = rng.normal(scale=1e-3, size=(64, 3)) * (rng.random((64, 1)) < 0.5)
        support = PointCloud(lattice(4, 0.1) + jitter + 1e6)
        yield support, support
        yield PointCloud(rng.uniform(0, 0.3, size=(20, 3)) + 1e6), support
    elif case == "empty_ball":
        support = PointCloud(rng.uniform(-1, 1, size=(40, 3)))
        yield PointCloud(np.concatenate([rng.uniform(-1, 1, size=(5, 3)),
                                         rng.uniform(-1, 1, size=(5, 3)) + [50.0, 0, 0]])), support
    elif case == "tie_mix":
        # one shuffled query cloud whose rows tie at the k-th distance for
        # most k (lattice sites, cell centres) or never (jittered sites)
        grid = lattice(5, 0.25)
        picks = rng.permutation(len(grid))[:24]
        query = np.concatenate([grid[picks[:12]], lattice(2, 0.25) + 0.375,
                                grid[picks[12:]] + rng.normal(scale=0.02, size=(12, 3))])
        yield PointCloud(query[rng.permutation(len(query))]), PointCloud(grid)
    else:
        for trial in range(20):
            n = int(rng.integers(5, 200))
            support = PointCloud(rng.uniform(-1, 1, size=(n, 3)))
            query = PointCloud(rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 50)), 3))) if case else support
            yield query, support


@pytest.mark.parametrize("case", [False, True, *ADVERSARIAL])
def test_knn_matches_bruteforce(case):
    rng = np.random.default_rng(3)
    for query, support in clouds(case, rng):
        for k in (int(rng.integers(1, 12)), 7, 19, 27, len(support) + 1):
            nl = knn(query, support, k)
            expected = brute_knn(query, support, k)
            assert as_lists(nl) == [e.tolist() for e in expected]


@pytest.mark.parametrize("case", [False, True, *ADVERSARIAL])
def test_ball_query_matches_bruteforce(case):
    rng = np.random.default_rng(4)
    shells = (0.1, 0.2, 0.25, float(np.linalg.norm([0.25, 0.25, 0])), 0.5)
    for query, support in clouds(case, rng):
        for r in (float(rng.uniform(0.1, 1.0)), *shells):
            nl = ball_query(query, support, r)
            expected = brute_ball(query, support, r)
            assert as_lists(nl) == [e.tolist() for e in expected]


def spy_windows(monkeypatch):
    """Record (rows, width) of every `_window` call: the positions it
    selects for and the window width."""
    calls = []
    window = geometry._window

    def spy(tree, positions, support, take, width):
        calls.append((positions.copy(), width))
        return window(tree, positions, support, take, width)

    monkeypatch.setattr(geometry, "_window", spy)
    return calls


def test_knn_reselects_only_the_tied_rows(monkeypatch):
    """The first window covers every row at width k+1; each later one
    covers only the rows still tied at the k-th distance, twice as wide."""
    query, support = next(clouds("tie_mix", np.random.default_rng(3)))
    calls = spy_windows(monkeypatch)
    for k in (1, 7, 19):
        calls.clear()
        assert as_lists(knn(query, support, k)) == [e.tolist() for e in brute_knn(query, support, k)]
        d = np.sort(np.linalg.norm(query.positions[:, None] - support.positions, axis=2), axis=1)
        tied = d[:, k] <= d[:, k - 1] * (1.0 + 1e-6)
        assert 0 < tied.sum() < len(query)
        assert calls[0][0].tobytes() == query.positions.tobytes() and calls[0][1] == k + 1
        assert calls[1][0].tobytes() == query.positions[tied].tobytes()
        for (rows, width), (later, wider) in zip(calls, calls[1:]):
            assert 0 < len(later) <= len(rows) and wider == min(2 * width, len(support))


@pytest.mark.parametrize("scattered, widths", [(200, [17, 34, 68]), (20, [17, 34, 60])])
def test_knn_widens_until_no_row_is_tied(monkeypatch, scattered, widths):
    """40 copies of one point, and the points whose 16th nearest is one of
    them, tie at the 16th distance through windows of 17 and 34; the third
    window, 68 wide or the whole support, settles them."""
    rng = np.random.default_rng(9)
    points = np.concatenate([np.full((40, 3), 0.5), rng.uniform(-1, 1, size=(scattered, 3))])
    support = PointCloud(points[rng.permutation(len(points))])
    calls = spy_windows(monkeypatch)
    nl = knn(support, support, 16)
    assert as_lists(nl) == [e.tolist() for e in brute_knn(support, support, 16)]
    assert [width for _, width in calls] == widths
    d = np.sort(np.linalg.norm(support.positions[:, None] - support.positions, axis=2), axis=1)
    tied = d[:, 16] <= d[:, 15] * (1.0 + 1e-6)
    assert np.all(tied[np.all(support.positions == 0.5, axis=1)])
    assert calls[1][0].tobytes() == support.positions[tied].tobytes()


class SkewedTree(cKDTree):
    """A KD-tree whose distances sit a relative 1e-12 off the norm, above or
    below it as `skew` says, as a tree summing squares in another order
    could place them: it reports kNN distances and swept pair distances v
    at norm * skew, and keeps a pair within radius r only where its own
    distance, norm * skew, is <= r."""

    skew = 1.0

    def query(self, x, *args, **kwargs):
        d, i = super().query(x, *args, **kwargs)
        return d * self.skew, i

    def sparse_distance_matrix(self, other, max_distance, *args, **kwargs):
        pairs = super().sparse_distance_matrix(other, max_distance / self.skew, *args, **kwargs)
        pairs["v"] *= self.skew
        return pairs


@pytest.mark.parametrize("skew", [1.0 + 1e-12, 1.0 - 1e-12], ids=["above", "below"])
def test_neighbors_exact_when_tree_distances_differ_from_the_norm(monkeypatch, skew):
    """The tree decides only what it clears by more than the slack, and the
    radii handed to it carry the slack, for a tree whose distances sit
    above or below the norm's."""
    monkeypatch.setattr(SkewedTree, "skew", skew)
    monkeypatch.setattr(geometry, "cKDTree", SkewedTree)
    rng = np.random.default_rng(6)
    for case in ("lattice", "duplicates", "tie_mix", "offset_1e6"):
        for query, support in clouds(case, rng):
            for k in (1, 2, 7, 19, 27):
                nl = knn(query, support, k)
                assert as_lists(nl) == [e.tolist() for e in brute_knn(query, support, k)]
            for r in (0.1, 0.25, 0.5):
                nl = ball_query(query, support, r)
                assert as_lists(nl) == [e.tolist() for e in brute_ball(query, support, r)]


@pytest.mark.parametrize("case", [False, *ADVERSARIAL])
def test_query_is_support_matches_equal_copy(case):
    """The self-query paths (one tree for ball query) give the lists an
    equal but distinct support cloud gives."""
    rng = np.random.default_rng(7)
    for _, support in clouds(case, rng):
        copy = PointCloud(support.positions.copy())
        for k in (1, 7, 19):
            assert as_lists(knn(support, support, k)) == as_lists(knn(support, copy, k))
        for r in (0.25, 0.5):
            assert as_lists(ball_query(support, support, r)) == as_lists(ball_query(support, copy, r))


def test_pair_distances_match_linalg_norm():
    rng = np.random.default_rng(8)
    for offset in (0.0, 1e3, 1e6):
        a = rng.uniform(-1, 1, size=(500, 3)) + offset
        b = rng.uniform(-1, 1, size=(500, 3)) * rng.choice([1e-3, 1.0, 10.0], size=(500, 1)) + offset
        assert geometry._distances(a, b).tobytes() == np.linalg.norm(a - b, axis=1).tobytes()


def test_knn_far_outside_grid():
    support = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0.1], [0.2, 0.1, 0]]))
    query = PointCloud(np.array([[25.0, 25.0, 25.0]]))
    nl = knn(query, support, 2)
    assert as_lists(nl) == [e.tolist() for e in brute_knn(query, support, 2)]


def test_farthest_distance_stats():
    support = PointCloud(np.array([[1.0, 0, 0], [3.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0], [0.0, 0, 0]]))
    nl = NeighborList(np.array([0, 1, 2]), np.array([0, 1]))
    mean, var = farthest_distance_stats(nl, query, support, 1.0)
    assert mean == pytest.approx(2.0)
    assert var == pytest.approx(1.0)


def test_farthest_distance_stats_all_empty():
    support = PointCloud(np.array([[1.0, 0, 0]]))
    query = PointCloud(np.array([[0.0, 0, 0]]))
    nl = NeighborList(np.array([0, 0]), np.empty(0, dtype=np.int64))
    with pytest.raises(StatisticsError):
        farthest_distance_stats(nl, query, support, 1.0)
