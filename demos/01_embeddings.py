"""Neighborhood embeddings: turn a relative offset y - x into a descriptor.

Three families are interchangeable behind the same interface:
  * kernel-point embeddings (box / triangular / gaussian correlation),
  * small MLPs (relu / gelu / sin activation),
  * the identity (raw coordinates).
"""

import numpy as np

from pne import (
    IdentityEmbedding,
    KernelPointEmbedding,
    default_kernel_layout,
    icosahedron_kernel_points,
    init_mlp_embedding,
)

rng = np.random.default_rng(0)

# receptive field of radius r: the ball radius, or twice the estimated
# average kNN neighbor distance (NeighborhoodSpec.receptive_radius). Kernel
# points sit on an icosahedron shell at 0.6 r plus one at the center; sigma
# defaults to the shell spacing.
radius = 0.5
shell, sigma = default_kernel_layout(radius)
points = icosahedron_kernel_points(shell)
print(f"13 kernel points, shell {shell:.3f}, sigma {sigma:.3f}")

offsets = rng.uniform(-radius, radius, size=(5000, 3))

for corr in ("box", "triangular", "gaussian"):
    emb = KernelPointEmbedding(points, sigma, corr)
    e = emb.embed(offsets)
    print(f"kp:{corr:10s} shape {e.shape} range [{e.min():.3f}, {e.max():.3f}] "
          f"mean nonzero dims {(e != 0).sum(axis=1).mean():.2f}")

# box is a one-hot on the nearest kernel point: rows always sum to 1
box = KernelPointEmbedding(points, sigma, "box").embed(offsets)
assert np.all(box.sum(axis=1) == 1.0)

for act in ("relu", "gelu", "sin"):
    emb = init_mlp_embedding(16, radius, act, seed=1)
    e = emb.embed(offsets)
    print(f"mlp:{act:9s} shape {e.shape} range [{e.min():.3f}, {e.max():.3f}]")

e = IdentityEmbedding().embed(offsets)
print(f"identity     shape {e.shape} (the offsets themselves)")

# every embedding ships an analytic Jacobian; spot-check gaussian vs a
# central finite difference at one offset
emb = KernelPointEmbedding(points, sigma, "gaussian")
p = offsets[:1]
jac = emb.jacobian_offsets(p)[0]
h = 1e-6
fd = np.stack([
    (emb.embed(p + h * np.eye(3)[c]) - emb.embed(p - h * np.eye(3)[c]))[0] / (2 * h)
    for c in range(3)
], axis=1)
print(f"gaussian jacobian vs finite difference: max abs diff {np.abs(jac - fd).max():.2e}")
