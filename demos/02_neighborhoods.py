"""KD-tree neighborhood queries and cell-average subsampling.

Both query styles return the same ragged structure: ball query gives all
points within a radius, kNN gives a fixed count. A KD-tree makes them
fast; results match a brute-force scan exactly.
"""

import numpy as np

from pne import PointCloud, ball_query, cell_average_subsample, farthest_distance_stats, knn

rng = np.random.default_rng(0)
cloud = PointCloud(rng.uniform(-1, 1, size=(400, 3)))

# subsample: replace the points of each 0.25-cell by their centroid
sub = cell_average_subsample(cloud, 0.25)
print(f"{len(cloud)} points -> {len(sub)} cell centroids")

# ball query: every centroid collects raw points within 2 cells
nl = ball_query(sub, cloud, radius=0.5)
print(f"ball query: {nl.counts.mean():.1f} neighbors on average, "
      f"min {nl.counts.min()}, max {nl.counts.max()}")

# kNN: exactly 16 each (support is large enough here)
nl16 = knn(sub, cloud, 16)
assert np.all(nl16.counts == 16)

# exact agreement with an O(N^2) scan
q = sub.positions[7]
d = np.linalg.norm(cloud.positions - q, axis=1)
brute = np.sort(np.lexsort((np.arange(len(cloud)), d))[:16])
assert np.array_equal(nl16.neighbors(7), brute)
print("kNN matches brute force on a spot check")

# the receptive-field statistic behind the kNN-vs-ball comparison:
# normalized distance to the farthest neighbor, mean and variance
for name, neighbors in (("knn", nl16), ("ball", nl)):
    mean, var = farthest_distance_stats(neighbors, sub, cloud, cell_size=0.25)
    print(f"{name:5s} farthest-distance / cell: mean {mean:.2f}, variance {var:.4f}")
