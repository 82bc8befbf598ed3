import itertools

import numpy as np
import pytest

from pne import numerics
from pne.embeddings import (
    SIN_FREQUENCY,
    IdentityEmbedding,
    KernelPointEmbedding,
    MlpEmbedding,
    default_kernel_layout,
    icosahedron_kernel_points,
    icosahedron_shell_spacing,
    init_mlp_embedding,
)
from pne.errors import ShapeError


def test_icosahedron_points():
    pts = icosahedron_kernel_points(2.0)
    assert pts.shape == (13, 3)
    norms = np.linalg.norm(pts[:12], axis=1)
    assert np.all(np.abs(norms - 2.0) < 1e-12)
    assert np.array_equal(pts[12], np.zeros(3))


def test_icosahedron_min_pairwise_angle():
    pts = icosahedron_kernel_points(1.0)[:12]
    cos = pts @ pts.T
    np.fill_diagonal(cos, -1.0)
    min_angle = np.degrees(np.arccos(cos.max()))
    assert min_angle == pytest.approx(np.degrees(np.arccos(1 / np.sqrt(5))), abs=1e-9)
    assert min_angle == pytest.approx(63.4349, abs=1e-3)


def test_icosahedron_bad_radius():
    with pytest.raises(ValueError):
        icosahedron_kernel_points(0.0)


def test_default_kernel_layout():
    shell, sigma = default_kernel_layout(1.0)
    assert shell == pytest.approx(0.6)
    assert sigma == pytest.approx(icosahedron_shell_spacing(0.6))
    shell, sigma = default_kernel_layout(0.5, sigma_factor=2.0)
    assert shell == pytest.approx(0.3)
    assert sigma == pytest.approx(2.0 * icosahedron_shell_spacing(0.3))
    with pytest.raises(ValueError):
        default_kernel_layout(0.0)


def _kp(correlation, sigma=1.0, radius=1.0):
    return KernelPointEmbedding(icosahedron_kernel_points(radius), sigma, correlation)


def test_gaussian_values():
    emb = _kp("gaussian", sigma=1.0)
    at_kp = emb.embed(emb.kernel_points[3][None])
    assert at_kp[0, 3] == pytest.approx(1.0)
    # distance exactly 1 from the center point
    e = emb.embed(np.array([[1.0, 0.0, 0.0]]))
    assert e[0, 12] == pytest.approx(0.606531, abs=1e-6)


def test_triangular_values():
    emb = _kp("triangular", sigma=2.0)
    e = emb.embed(np.array([[1.0, 0.0, 0.0]]))
    assert e[0, 12] == pytest.approx(0.5)
    far = emb.embed(np.array([[15.0, 0.0, 0.0]]))
    assert np.all(far == 0.0)


def test_triangular_support_boundary():
    emb = _kp("triangular", sigma=0.5)
    rng = np.random.default_rng(0)
    offs = rng.uniform(-2, 2, size=(2000, 3))
    d = np.linalg.norm(offs[:, None, :] - emb.kernel_points[None], axis=2)
    e = emb.embed(offs)
    assert np.all(e[d >= emb.sigma] == 0.0)


def test_box_one_hot():
    emb = _kp("box")
    e = emb.embed(np.array([[0.0, 0.0, 0.0]]))
    assert e[0, 12] == 1.0 and e.sum() == 1.0
    rng = np.random.default_rng(1)
    e = emb.embed(rng.uniform(-2, 2, size=(500, 3)))
    assert np.all(np.isin(e, (0.0, 1.0)))
    assert np.all(e.sum(axis=1) == 1.0)


def test_embedding_ranges():
    rng = np.random.default_rng(2)
    offs = rng.uniform(-2, 2, size=(100000, 3))
    tri = _kp("triangular").embed(offs)
    assert np.all((tri >= 0.0) & (tri <= 1.0))
    gau = _kp("gaussian").embed(offs)
    assert np.all((gau > 0.0) & (gau <= 1.0))
    sin = init_mlp_embedding(8, 1.0, numerics.SIN, seed=0).embed(offs)
    assert np.all((sin >= -1.0) & (sin <= 1.0))
    gelu = init_mlp_embedding(8, 1.0, numerics.GELU, seed=0).embed(offs)
    assert np.all(gelu > -0.17)


def test_mlp_sin_value():
    emb = MlpEmbedding(np.array([[1.0, 0.0, 0.0]]), np.zeros(1), numerics.SIN)
    e = emb.embed(np.array([[0.5, 0.0, 0.0]]))
    assert e[0, 0] == pytest.approx(1.0)  # sin(pi * 0.5)


def test_identity_embedding():
    emb = IdentityEmbedding()
    off = np.array([[0.1, -0.2, 0.3]])
    assert np.array_equal(emb.embed(off), off)
    assert emb.raw_dim == 3
    jac = emb.jacobian_offsets(off)
    assert np.array_equal(jac[0], np.eye(3))
    assert emb.gradient_params(off, off, None) == {}


def test_translation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(20, 3))
    q = rng.uniform(-1, 1, size=3)
    shift = np.array([100.0, -5.0, 7.0])
    offs = pts - q
    offs_shifted = (pts + shift) - (q + shift)
    for emb in (_kp("gaussian"), init_mlp_embedding(6, 1.0, numerics.GELU, 0)):
        assert np.allclose(emb.embed(offs), emb.embed(offs_shifted), atol=1e-12)


def test_box_jacobian_zero():
    rng = np.random.default_rng(4)
    jac = _kp("box").jacobian_offsets(rng.uniform(-2, 2, size=(100, 3)))
    assert np.all(jac == 0.0)


def test_gaussian_jacobian_zero_at_kernel_point():
    emb = _kp("gaussian")
    jac = emb.jacobian_offsets(emb.kernel_points[5][None])
    assert np.allclose(jac[0, 5], 0.0)


def test_relu_dead_region_jacobian():
    emb = MlpEmbedding(np.array([[1.0, 0.0, 0.0]]), np.array([-10.0]), numerics.RELU)
    jac = emb.jacobian_offsets(np.array([[0.5, 0.0, 0.0]]))
    assert np.all(jac == 0.0)


@pytest.mark.parametrize("corr", ["triangular", "gaussian"])
def test_kp_jacobian_matches_finite_diff(corr):
    emb = _kp(corr)
    rng = np.random.default_rng(5)
    offs = rng.uniform(-1.5, 1.5, size=(200, 3))
    if corr == "triangular":
        d = np.linalg.norm(offs[:, None, :] - emb.kernel_points[None], axis=2)
        keep = (np.abs(d - emb.sigma).min(axis=1) > 1e-3) & (d.min(axis=1) > 1e-3)
        offs = offs[keep]
    jac = emb.jacobian_offsets(offs)
    for t in (0, len(offs) // 2, len(offs) - 1):
        fd = numerics.finite_diff_jacobian(lambda p: emb.embed(p[None])[0], offs[t], h=1e-5)
        assert np.abs(jac[t] - fd).max() < 1e-4


@pytest.mark.parametrize("act", [numerics.RELU, numerics.GELU, numerics.SIN])
def test_mlp_jacobian_matches_finite_diff(act):
    emb = init_mlp_embedding(6, 1.0, act, seed=6)
    rng = np.random.default_rng(7)
    offs = rng.uniform(-1, 1, size=(50, 3))
    if act == numerics.RELU:
        offs = offs[np.abs(emb._pre(offs)).min(axis=1) > 1e-3]
    jac = emb.jacobian_offsets(offs)
    fd = numerics.finite_diff_jacobian(lambda p: emb.embed(p[None])[0], offs[0], h=1e-5)
    assert np.abs(jac[0] - fd).max() < 1e-4


def test_mlp_gradient_params_zero_upstream():
    emb = init_mlp_embedding(4, 1.0, numerics.GELU, seed=8)
    offs = np.random.default_rng(9).uniform(-1, 1, size=(10, 3))
    _, dact = emb.embed(offs, with_derivative=True)
    g = emb.gradient_params(offs, np.zeros((10, 4)), dact)
    assert np.all(g["weights"] == 0.0) and np.all(g["biases"] == 0.0)


def test_mlp_gradient_params_linear_limit():
    # Sin near 0 behaves linearly: dL/dW ~ omega_0 upstream p^T
    emb = MlpEmbedding(np.zeros((2, 3)), np.zeros(2), numerics.SIN)
    p = np.array([[1e-4, 2e-4, -1e-4]])
    up = np.array([[1.0, -2.0]])
    g = emb.gradient_params(p, up, emb.embed(p, with_derivative=True)[1])
    assert np.allclose(g["weights"], SIN_FREQUENCY * up.T @ p, atol=1e-7)


@pytest.mark.parametrize("act", numerics.ACTIVATION_KINDS)
def test_mlp_embed_with_derivative_feeds_gradient_params(act):
    """The derivative `embed` returns with e is the one formed from the
    offsets alone: values and gradients are bit for bit."""
    emb = init_mlp_embedding(5, 1.0, act, seed=12)
    rng = np.random.default_rng(13)
    offs = rng.uniform(-1, 1, size=(40, 3))
    e, dact = emb.embed(offs, with_derivative=True)
    assert e.tobytes() == emb.embed(offs).tobytes()
    assert dact.tobytes() == numerics.activation_with_derivative(act, emb._pre(offs))[1].tobytes()
    up = rng.standard_normal((40, 5))
    kept = emb.gradient_params(offs, up, dact)
    fresh = emb.gradient_params(offs, up, numerics.activation_with_derivative(act, emb._pre(offs))[1])
    for k in ("weights", "biases"):
        assert kept[k].tobytes() == fresh[k].tobytes()
    with pytest.raises(ShapeError):
        emb.gradient_params(offs, up, dact[:1])


@pytest.mark.parametrize("act", numerics.ACTIVATION_KINDS)
def test_mlp_backward_equals_written_out_formula(act):
    """gradient_params and jacobian_offsets equal, byte for byte, the formula
    written out: omega_0 scales sin only, as (omega_0 * upstream) * act'(pre)
    and omega_0 * act'(pre); relu and gelu take no scaling pass."""
    emb = init_mlp_embedding(5, 1.0, act, seed=14)
    emb.biases[:] = np.random.default_rng(15).uniform(-0.3, 0.3, size=5)
    rng = np.random.default_rng(16)
    offs = rng.uniform(-1, 1, size=(40, 3))
    up = rng.standard_normal((40, 5))
    sin = act == numerics.SIN
    pre = offs @ emb.weights.T + emb.biases
    if sin:
        pre = pre * SIN_FREQUENCY
    dact = numerics.activation_with_derivative(act, pre)[1]
    dpre = (SIN_FREQUENCY * up) * dact if sin else up * dact
    jac = (SIN_FREQUENCY * dact if sin else dact)[..., None] * emb.weights[None, :, :]
    g = emb.gradient_params(offs, up, emb.embed(offs, with_derivative=True)[1])
    assert g["weights"].tobytes() == (dpre.T @ offs).tobytes()
    assert g["biases"].tobytes() == dpre.sum(axis=0).tobytes()
    assert emb.jacobian_offsets(offs).tobytes() == jac.tobytes()


def test_continuity_and_box_jumps():
    rng = np.random.default_rng(10)
    offs = rng.uniform(-1, 1, size=(500, 3))
    delta = 1e-6
    probe = offs + delta
    for emb in (_kp("triangular"), _kp("gaussian"),
                init_mlp_embedding(6, 1.0, numerics.GELU, 11),
                init_mlp_embedding(6, 1.0, numerics.SIN, 11)):
        step = np.abs(emb.embed(probe) - emb.embed(offs)).max()
        assert step < 1e-3  # Lipschitz in delta
    # Box jumps across argmin boundaries
    box = _kp("box")
    a = box.embed(np.array([[0.0, 0.0, 0.0]]))
    k = box.kernel_points[0]
    b = box.embed((0.51 * k)[None])
    assert np.abs(a - b).max() == 1.0


def test_embedding_validation():
    with pytest.raises(ShapeError):
        KernelPointEmbedding(np.zeros((3, 2)), 1.0, "gaussian")
    with pytest.raises(ValueError):
        KernelPointEmbedding(np.zeros((3, 3)), -1.0, "gaussian")
    with pytest.raises(ValueError):
        KernelPointEmbedding(np.zeros((3, 3)), 1.0, "cauchy")
    with pytest.raises(ShapeError):
        _kp("gaussian").embed(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        _kp("gaussian").embed(np.array([[np.nan, 0, 0]]))


def test_init_mlp_embedding_bounds():
    emb = init_mlp_embedding(16, 2.0, numerics.GELU, seed=12)
    assert np.all(np.abs(emb.weights) <= 0.5)
    assert np.all(emb.biases == 0.0)
    rng = np.random.default_rng(13)
    v = rng.standard_normal((100, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True) * 2.0
    assert np.all(np.abs(v @ emb.weights.T) <= np.sqrt(3) + 1e-12)
    sin_emb = init_mlp_embedding(4, 1.0, numerics.SIN, seed=12)
    offs = rng.uniform(-1, 1, size=(10, 3))
    assert np.array_equal(sin_emb.embed(offs), np.sin(np.pi * (offs @ sin_emb.weights.T)))


def _kp_reference(emb, offsets):
    """The (T, K, 3) difference-tensor formula the kp embedding is pinned to."""
    diff = offsets[:, None, :] - emb.kernel_points[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    if emb.correlation == "box":
        e = np.zeros_like(d)
        e[np.arange(len(d)), d.argmin(axis=1)] = 1.0
        return e, np.zeros(diff.shape)
    if emb.correlation == "triangular":
        inside = (d > 0.0) & (d < emb.sigma)
        safe = np.where(d > 0.0, d, 1.0)
        jac = np.where(inside[..., None], -diff / (emb.sigma * safe[..., None]), 0.0)
        return np.maximum(1.0 - d / emb.sigma, 0.0), jac
    e = np.exp(-np.square(d) / (2.0 * emb.sigma**2))
    return e, e[..., None] * (-diff) / emb.sigma**2


@pytest.mark.parametrize("placement", ["icosahedron", "grid3"])
@pytest.mark.parametrize("corr", ["box", "triangular", "gaussian"])
def test_kp_matches_difference_tensor_reference(corr, placement):
    if placement == "icosahedron":
        kps = icosahedron_kernel_points(1.0)
        sigma, center = icosahedron_shell_spacing(1.0), 12
    else:
        kps = np.array(list(itertools.product((-2.0 / 3.0, 0.0, 2.0 / 3.0), repeat=3)))
        sigma, center = 2.0 / 3.0, 13
    assert np.array_equal(kps[center], np.zeros(3))
    emb = KernelPointEmbedding(kps, sigma, corr)
    rng = np.random.default_rng(14)
    offsets = np.vstack([
        kps[4], np.zeros(3),               # on a kernel point, at the origin
        [sigma, 0.0, 0.0],                 # exactly sigma from the center point
        [1e3, -1e3, 1e3], [-1.2e3, 0.9e3, 1.1e3],
        rng.uniform(-1.5, 1.5, size=(300, 3)),
    ])
    e, jac = emb.embed(offsets), emb.jacobian_offsets(offsets)
    ref_e, ref_jac = _kp_reference(emb, offsets)
    if corr == "gaussian":
        np.testing.assert_allclose(e, ref_e, rtol=0, atol=1e-15)
    else:
        assert np.array_equal(e, ref_e)
    np.testing.assert_allclose(jac, ref_jac, rtol=0, atol=1e-15)
    if corr == "triangular":
        assert e[2, center] == 0.0
    if corr != "box":
        assert np.all(e[3:5] == 0.0)


def test_kp_box_exact_tie_goes_to_smallest_index():
    emb = KernelPointEmbedding(np.array(list(itertools.product((-0.5, 0.5), repeat=3))), 1.0, "box")
    origin = np.zeros((1, 3))
    d2 = np.square(emb.kernel_points).sum(axis=1)
    assert np.all(d2 == 0.75)  # all 8 corners tie
    assert np.array_equal(emb.embed(origin), _kp_reference(emb, origin)[0])
    assert emb.embed(origin)[0, 0] == 1.0


def _pair_major(emb, offsets):
    """The kernel-point correlation from the (N, K) pair-major formula: per-axis
    differences from np.subtract.outer, squares summed x, y, z."""
    dx, dy, dz = (np.subtract.outer(offsets[:, c], emb.kernel_points[:, c]) for c in range(3))
    d2 = np.square(dx) + np.square(dy) + np.square(dz)
    if emb.correlation == "box":
        return np.eye(emb.raw_dim)[d2.argmin(axis=1)]
    if emb.correlation == "triangular":
        return np.maximum(1.0 - np.sqrt(d2) / emb.sigma, 0.0)
    return np.exp(-d2 / (2.0 * emb.sigma**2))


def _pinned_offsets():
    """(name, offsets): random sets of 0, 1, 13 and 5000 pairs, a cloud 1e6
    from the origin, zero offsets, and offsets exactly on kernel points."""
    rng = np.random.default_rng(21)
    kps = icosahedron_kernel_points(0.6)
    sets = [(f"n{n}", rng.uniform(-1.0, 1.0, (n, 3))) for n in (0, 1, 13, 5000)]
    sets.append(("far", rng.uniform(-1.0, 1.0, (300, 3)) + 1e6))
    sets.append(("zero", np.zeros((7, 3))))
    sets.append(("on_kernel_points", np.concatenate([kps, kps[::-1]])))
    return sets


@pytest.mark.parametrize("name, offs", _pinned_offsets())
@pytest.mark.parametrize("correlation", ["box", "triangular", "gaussian"])
def test_kernel_point_embedding_equals_pair_major_formula(correlation, name, offs):
    emb = KernelPointEmbedding(icosahedron_kernel_points(0.6), 0.55, correlation)
    e = emb.embed(offs)
    assert e.shape == (len(offs), 13)
    assert e.tobytes() == _pair_major(emb, offs).tobytes()


def test_box_tie_picks_the_smallest_kernel_index():
    # the origin is exactly as far from +x as from -x, and a point on a
    # repeated kernel point is exactly on both copies
    emb = KernelPointEmbedding(np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                         [0.0, 0.0, 2.0]]), 1.0, "box")
    offs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 1.9]])
    e = emb.embed(offs)
    assert e.argmax(axis=1).tolist() == [1, 0, 0]
    assert e.tobytes() == _pair_major(emb, offs).tobytes()


@pytest.mark.parametrize("name, offs", _pinned_offsets())
@pytest.mark.parametrize("act", numerics.ACTIVATION_KINDS)
def test_mlp_embedding_equals_activation_of_affine_offsets(act, name, offs):
    """Value and derivative are the activation's, bit for bit, at
    omega_0 * (offsets @ W^T + b), with biases off zero so that the order of
    the bias and the frequency shows."""
    emb = init_mlp_embedding(16, 1.0, act, seed=22)
    emb.biases[:] = np.random.default_rng(23).uniform(-0.5, 0.5, 16)
    omega = SIN_FREQUENCY if act == numerics.SIN else 1.0
    pre = omega * (offs @ emb.weights.T + emb.biases)
    y, dy = numerics.activation_with_derivative(act, pre)
    e, dact = emb.embed(offs, with_derivative=True)
    assert e.tobytes() == y.tobytes() == emb.embed(offs).tobytes()
    assert dact.tobytes() == dy.tobytes()
