"""Synthetic desk-scale datasets.

Shape classes are chosen so local geometry matters: sphere and torus share
a bounding box, cube has corners, plane is flat.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateInputError
from .geometry import PointCloud

SPHERE = "sphere"
CUBE = "cube"
TORUS = "torus"
PLANE = "plane"

SHAPE_KINDS = (SPHERE, CUBE, TORUS, PLANE)

TORUS_MAJOR = 1.0
TORUS_MINOR = 0.3


def _sample_sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_cube(rng, n):
    # surface of [-1, 1]^3: six equal-area faces
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        sel = axis == a
        others = [i for i in range(3) if i != a]
        pts[sel, a] = sign[sel]
        pts[np.ix_(sel, others)] = uv[sel]
    return pts


def _sample_torus(rng, n):
    # area-uniform: rejection on the tube angle with weight (R + r cos t)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        need = n - filled
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2 * need)
        keep = rng.uniform(0.0, 1.0, size=2 * need) < (
            (TORUS_MAJOR + TORUS_MINOR * np.cos(theta)) / (TORUS_MAJOR + TORUS_MINOR)
        )
        theta = theta[keep][:need]
        phi = rng.uniform(0.0, 2.0 * np.pi, size=len(theta))
        ring = TORUS_MAJOR + TORUS_MINOR * np.cos(theta)
        pts = np.stack(
            [ring * np.cos(phi), ring * np.sin(phi), TORUS_MINOR * np.sin(theta)], axis=1
        )
        out[filled:filled + len(pts)] = pts
        filled += len(pts)
    return out


def _sample_plane(rng, n):
    pts = np.zeros((n, 3))
    pts[:, :2] = rng.uniform(-1.0, 1.0, size=(n, 2))
    return pts


_SAMPLERS = {SPHERE: _sample_sphere, CUBE: _sample_cube, TORUS: _sample_torus, PLANE: _sample_plane}


def sample_shape(kind, n, noise_sigma=0.0, seed=0):
    """n points sampled area-uniformly on the unit-scale surface of the
    shape, plus isotropic Gaussian noise."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind: {kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = _SAMPLERS[kind](rng, n)
    if noise_sigma > 0:
        pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
        if not np.all(np.isfinite(pts)):
            raise DegenerateInputError(f"noise_sigma {noise_sigma!r} overflows the positions")
    return PointCloud(pts)


def random_rotation(rng):
    """Uniform random rotation matrix over SO(3), via a unit quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass
class ShapePlacement:
    kind: str
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: float = 1.0
    rotation: Optional[np.ndarray] = None


@dataclass
class SceneSpec:
    shapes: list

    def __post_init__(self):
        if not self.shapes:
            raise ValueError("scene needs at least one shape")


def compose_scene(spec, n_per_shape, noise_sigma=0.0, seed=0):
    """Union of posed shapes; labels name the generating shape index."""
    rng = np.random.default_rng(seed)
    clouds = []
    labels = []
    for i, placement in enumerate(spec.shapes):
        cloud = sample_shape(placement.kind, n_per_shape, noise_sigma, seed=rng.integers(2**31))
        pts = cloud.positions * placement.scale
        if placement.rotation is not None:
            pts = pts @ np.asarray(placement.rotation).T
        pts = pts + np.asarray(placement.position)
        clouds.append(pts)
        labels.append(np.full(n_per_shape, i, dtype=np.int64))
    return PointCloud(np.vstack(clouds), labels=np.concatenate(labels))


def make_classification_dataset(n_per_class_train=200, n_per_class_test=50,
                                n_points=256, noise_sigma=0.01, seed=0):
    """Class-balanced 4-shape dataset: each instance gets its own random
    rotation and a scale in [0.8, 1.2]. Returns (train, test) lists of
    (cloud, class_id)."""
    rng = np.random.default_rng(seed)

    def build(count):
        out = []
        for class_id, kind in enumerate(SHAPE_KINDS):
            for _ in range(count):
                cloud = sample_shape(kind, n_points, noise_sigma, seed=rng.integers(2**31))
                pts = cloud.positions @ random_rotation(rng).T
                pts = pts * rng.uniform(0.8, 1.2)
                out.append((PointCloud(pts), class_id))
        return out

    return build(n_per_class_train), build(n_per_class_test)


def make_segmentation_dataset(n_scenes=20, n_per_shape=128, noise_sigma=0.01, seed=0):
    """Scenes of 2-4 well-separated shapes; per-point labels are the shape
    class (shared across scenes so the label space is the 4 shape kinds)."""
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n_scenes):
        k = int(rng.integers(2, 5))
        kinds = [SHAPE_KINDS[i] for i in rng.integers(0, len(SHAPE_KINDS), size=k)]
        placements = []
        for j, kind in enumerate(kinds):
            placements.append(ShapePlacement(
                kind=kind,
                position=np.array([3.0 * j, 0.0, 0.0]) + rng.uniform(-0.3, 0.3, size=3),
                scale=float(rng.uniform(0.8, 1.2)),
                rotation=random_rotation(rng),
            ))
        scene = compose_scene(SceneSpec(placements), n_per_shape, noise_sigma,
                              seed=rng.integers(2**31))
        # relabel per-shape indices to shape-kind class ids
        class_ids = np.array([SHAPE_KINDS.index(k) for k in kinds], dtype=np.int64)
        scenes.append(PointCloud(scene.positions, labels=class_ids[scene.labels]))
    return scenes
