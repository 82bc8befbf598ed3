import numpy as np
import pytest

from pne.datagen import (
    SHAPE_KINDS,
    SceneSpec,
    ShapePlacement,
    compose_scene,
    make_classification_dataset,
    make_segmentation_dataset,
    random_rotation,
    sample_shape,
)


def test_sphere_on_surface():
    cloud = sample_shape("sphere", 500, noise_sigma=0.0, seed=0)
    assert np.allclose(np.linalg.norm(cloud.positions, axis=1), 1.0, atol=1e-12)


def test_cube_on_surface():
    cloud = sample_shape("cube", 500, noise_sigma=0.0, seed=1)
    assert np.allclose(np.abs(cloud.positions).max(axis=1), 1.0, atol=1e-12)
    assert np.abs(cloud.positions).max() <= 1.0 + 1e-12


def test_plane_flat():
    cloud = sample_shape("plane", 200, noise_sigma=0.0, seed=2)
    assert np.all(cloud.positions[:, 2] == 0.0)


def test_torus_implicit_equation():
    cloud = sample_shape("torus", 500, noise_sigma=0.0, seed=3)
    x, y, z = cloud.positions.T
    val = (np.sqrt(x**2 + y**2) - 1.0) ** 2 + z**2
    assert np.allclose(val, 0.09, atol=1e-10)


def test_sample_shape_validation():
    with pytest.raises(ValueError):
        sample_shape("pyramid", 10)
    with pytest.raises(ValueError):
        sample_shape("sphere", 0)


def test_sample_shape_deterministic():
    a = sample_shape("torus", 50, 0.01, seed=4)
    b = sample_shape("torus", 50, 0.01, seed=4)
    assert np.array_equal(a.positions, b.positions)


def test_random_rotation_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = random_rotation(rng)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_compose_scene_labels():
    spec = SceneSpec([ShapePlacement("sphere")])
    scene = compose_scene(spec, 50, seed=6)
    assert np.all(scene.labels == 0)
    assert len(scene) == 50

    spec = SceneSpec([
        ShapePlacement("sphere", position=np.array([-5.0, 0, 0])),
        ShapePlacement("sphere", position=np.array([5.0, 0, 0])),
    ])
    scene = compose_scene(spec, 50, seed=7)
    assert len(scene) == 100
    near_left = np.linalg.norm(scene.positions - [-5, 0, 0], axis=1) < np.linalg.norm(
        scene.positions - [5, 0, 0], axis=1)
    assert np.array_equal(scene.labels, np.where(near_left, 0, 1))


def test_scene_needs_shapes():
    with pytest.raises(ValueError):
        SceneSpec([])


def test_classification_dataset_shapes():
    train, test = make_classification_dataset(
        n_per_class_train=3, n_per_class_test=2, n_points=32, seed=14)
    assert len(train) == 3 * len(SHAPE_KINDS)
    assert len(test) == 2 * len(SHAPE_KINDS)
    labels = sorted({label for _, label in train})
    assert labels == [0, 1, 2, 3]
    assert all(len(cloud) == 32 for cloud, _ in train)


def test_segmentation_dataset():
    scenes = make_segmentation_dataset(n_scenes=5, n_per_shape=16, seed=15)
    assert len(scenes) == 5
    for scene in scenes:
        assert scene.labels is not None
        assert scene.labels.max() < len(SHAPE_KINDS)
        assert len(scene) % 16 == 0
