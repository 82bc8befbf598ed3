"""The in-place finite-difference helper behind the gradcheck rows."""

import numpy as np
import pytest

from pne import numerics
from pne.gradcheck import H, _fd_gradient


def _nonlinear(a):
    return float(np.sum(np.sin(a) * a**2) + np.prod(np.cos(a[:, :2])))


def _array():
    a = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 4))
    a[0, 0] = -0.0                              # restored with its sign bit
    return a


def test_fd_gradient_equals_flat_vector_oracle():
    a = _array()
    flat = numerics.finite_diff_jacobian(
        lambda x: np.array([_nonlinear(x.reshape(a.shape))]), a.ravel(), h=H)
    got = _fd_gradient(lambda: _nonlinear(a), a)
    assert got.shape == a.shape
    assert got.tobytes() == flat.reshape(a.shape).tobytes()


def test_fd_gradient_restores_its_array_bit_for_bit():
    a = _array()
    before = a.tobytes()
    _fd_gradient(lambda: _nonlinear(a), a)
    assert a.tobytes() == before


def test_fd_gradient_restores_its_array_when_loss_raises():
    a = _array()
    before = a.tobytes()
    calls = []

    def loss():
        calls.append(a.copy())
        if len(calls) == 5:
            raise RuntimeError("probe failed")
        return _nonlinear(a)

    with pytest.raises(RuntimeError, match="probe failed"):
        _fd_gradient(loss, a)
    assert calls[-1].tobytes() != before        # raised while perturbed
    assert a.tobytes() == before
