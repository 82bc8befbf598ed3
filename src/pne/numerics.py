"""Activation functions with derivatives and the central finite-difference
oracle used to verify every analytic gradient in the package.

All checks run in float64 regardless of what precision a model stores its
parameters in.
"""

import numpy as np
from scipy.special import erf

from .errors import NonFiniteError

RELU = "relu"
GELU = "gelu"
SIN = "sin"

ACTIVATION_KINDS = (RELU, GELU, SIN)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _check_finite(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("activation input must be finite")
    return x


def _gelu_cdf(x):
    """Phi(x) = 0.5 (1 + erf(x * (1 / sqrt(2)))), the normal CDF through the
    error function (no tanh approximation), formed in one new array."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def activation_forward(kind, x):
    """Evaluate an activation elementwise. `x` may be a scalar or array."""
    x = _check_finite(x)
    if kind == RELU:
        return np.maximum(x, 0.0)
    if kind == GELU:
        y = _gelu_cdf(x)
        y *= x
        return y[()]
    if kind == SIN:
        return np.sin(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_with_derivative(kind, x):
    """(activation_forward(kind, x), its elementwise derivative), the value
    bit for bit, in one pass: GELU evaluates the normal CDF once for both,
    x Phi(x) and Phi(x) + x phi(x), each in its own output array.
    ReLU's derivative at exactly 0 is defined as 0."""
    x = _check_finite(x)
    if kind == RELU:
        return np.maximum(x, 0.0), (x > 0.0).astype(np.float64)
    if kind == GELU:
        y = _gelu_cdf(x)
        dy = np.square(x, out=np.empty_like(x))                # x phi(x), then + Phi(x)
        dy *= -0.5
        np.exp(dy, out=dy)
        dy *= _INV_SQRT2PI
        dy *= x
        dy += y
        y *= x
        return y[()], dy[()]
    if kind == SIN:
        return np.sin(x), np.cos(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def finite_diff_jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of a vector->vector callable.

    Returns an array of shape (len(f(x)), len(x)). Raises if `f` produces
    non-finite values at any probe point.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = np.asarray(f(xp), dtype=np.float64).ravel()
        fm = np.asarray(f(xm), dtype=np.float64).ravel()
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise FloatingPointError("function returned non-finite values during finite differencing")
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=1)

