"""Why ball query: receptive-field size stability across the pyramid.

For each pyramid level, measure the distance to the farthest neighbor,
normalized by the level's cell size. kNN's receptive field floats with
local density (high variance, growing with depth); ball query pins it to
the radius (low variance).
"""

from pne import NeighborhoodSpec
from pne.bench import pyramid_neighbor_stats
from pne.datagen import sample_shape

clouds = [sample_shape(kind, 4096, noise_sigma=0.01, seed=s)
          for s in range(2) for kind in ("sphere", "torus")]

print(f"{len(clouds)} single-object clouds, 5 pyramid levels\n")
print("level   knn mean / var      ball mean / var")
knn_stats = pyramid_neighbor_stats(clouds, 0.05, 5, NeighborhoodSpec("knn", k=16))
bq_stats = pyramid_neighbor_stats(clouds, 0.05, 5, NeighborhoodSpec("ball_query", scale=2.0))
for (lvl, km, kv), (_, bm, bv) in zip(knn_stats, bq_stats):
    print(f"  {lvl}    {km:5.2f} / {kv:.4f}      {bm:5.2f} / {bv:.4f}")
