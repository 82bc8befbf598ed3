import numpy as np
import pytest
from scipy.special import erf

from pne import numerics

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def test_relu_forward():
    assert numerics.activation_forward(numerics.RELU, -2.0) == 0.0
    assert numerics.activation_forward(numerics.RELU, 3.0) == 3.0


def test_gelu_forward_values():
    assert numerics.activation_forward(numerics.GELU, 0.0) == 0.0
    # 1 * Phi(1), high-precision normal CDF
    assert numerics.activation_forward(numerics.GELU, 1.0) == pytest.approx(0.841345, abs=1e-6)


def test_sin_forward():
    assert numerics.activation_forward(numerics.SIN, np.pi / 2) == pytest.approx(1.0)


def test_sin_range_bound():
    rng = np.random.default_rng(0)
    x = rng.uniform(-50, 50, size=10000)
    y = numerics.activation_forward(numerics.SIN, x)
    assert np.all(y >= -1.0) and np.all(y <= 1.0)


def derivative(kind, x):
    return numerics.activation_with_derivative(kind, x)[1]


def test_activation_derivatives():
    assert derivative(numerics.RELU, 3.0) == 1.0
    assert derivative(numerics.RELU, -1.0) == 0.0
    assert derivative(numerics.RELU, 0.0) == 0.0
    assert derivative(numerics.SIN, 0.0) == 1.0
    assert derivative(numerics.GELU, 0.0) == pytest.approx(0.5)


def test_gelu_derivative_matches_finite_diff():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, size=50)
    fd = numerics.finite_diff_jacobian(
        lambda v: numerics.activation_forward(numerics.GELU, v), x, h=1e-5
    )
    assert np.allclose(np.diag(fd), derivative(numerics.GELU, x), atol=1e-8)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        numerics.activation_forward(numerics.RELU, np.nan)
    with pytest.raises(ValueError):
        numerics.activation_with_derivative(numerics.GELU, np.inf)
    with pytest.raises(ValueError):
        numerics.activation_with_derivative(numerics.SIN, np.nan)


# each value and derivative written out on its own, in the operation order
# the package evaluates it in, as the reference for the in-place and fused ones
VALUES = {
    numerics.RELU: lambda x: np.maximum(x, 0.0),
    numerics.GELU: lambda x: x * (0.5 * (1.0 + erf(x * _INV_SQRT2))),
    numerics.SIN: np.sin,
}
DERIVATIVES = {
    numerics.RELU: lambda x: (x > 0.0).astype(np.float64),
    numerics.GELU: lambda x: (0.5 * (1.0 + erf(x * _INV_SQRT2))
                              + x * (_INV_SQRT2PI * np.exp(-0.5 * np.square(x)))),
    numerics.SIN: np.cos,
}
SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]


@pytest.mark.parametrize("kind", numerics.ACTIVATION_KINDS)
def test_activation_with_derivative_is_bit_identical(kind):
    x = np.concatenate([np.random.default_rng(5).uniform(-6.0, 6.0, 2000), SPECIAL])
    y, dy = numerics.activation_with_derivative(kind, x)
    assert y.tobytes() == numerics.activation_forward(kind, x).tobytes()
    assert y.tobytes() == VALUES[kind](x).tobytes()
    assert dy.tobytes() == DERIVATIVES[kind](x).tobytes()


@pytest.mark.parametrize("kind", numerics.ACTIVATION_KINDS)
def test_activation_of_a_scalar_is_a_scalar(kind):
    """Scalars and 0-d arrays go in, and 0-d values come out, with the bits
    of the written-out formula."""
    for v in SPECIAL + [1.0, -2.5]:
        x = np.float64(v)
        for arg in (v, np.array(v)):
            y = numerics.activation_forward(kind, arg)
            y2, dy = numerics.activation_with_derivative(kind, arg)
            assert np.ndim(y) == np.ndim(y2) == np.ndim(dy) == 0
            assert np.float64(y).tobytes() == np.float64(y2).tobytes() == VALUES[kind](x).tobytes()
            assert np.float64(dy).tobytes() == DERIVATIVES[kind](x).tobytes()


def test_activation_does_not_write_its_input():
    x = np.random.default_rng(6).uniform(-3.0, 3.0, (40, 5))
    saved = x.copy()
    for kind in numerics.ACTIVATION_KINDS:
        numerics.activation_forward(kind, x)
        numerics.activation_with_derivative(kind, x)
    assert x.tobytes() == saved.tobytes()


def test_finite_diff_identity():
    jac = numerics.finite_diff_jacobian(lambda x: x, np.array([1.0, 2.0, 3.0]), h=1e-4)
    assert np.allclose(jac, np.eye(3), atol=1e-9)


def test_finite_diff_square():
    jac = numerics.finite_diff_jacobian(lambda x: x**2, np.array([2.0]), h=1e-4)
    assert jac[0, 0] == pytest.approx(4.0, abs=1e-7)


def test_finite_diff_constant():
    jac = numerics.finite_diff_jacobian(lambda x: np.array([5.0]), np.zeros(4), h=1e-4)
    assert np.all(jac == 0.0)


def test_finite_diff_bad_step():
    with pytest.raises(ValueError):
        numerics.finite_diff_jacobian(lambda x: x, np.zeros(2), h=0.0)


def test_finite_diff_nonfinite_propagates():
    with pytest.raises(FloatingPointError):
        numerics.finite_diff_jacobian(lambda x: np.array([np.nan]), np.zeros(1), h=1e-4)
