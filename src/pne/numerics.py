"""Activation functions with derivatives and the central finite-difference
oracle used to verify every analytic gradient in the package.

All checks run in float64 regardless of what precision a model stores its
parameters in.
"""

import numpy as np
from scipy.special import erf

RELU = "relu"
GELU = "gelu"
SIN = "sin"

ACTIVATION_KINDS = (RELU, GELU, SIN)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def normal_cdf(x):
    """Standard normal CDF via the error function (no tanh approximation)."""
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64) * _INV_SQRT2))


def normal_pdf(x):
    return _INV_SQRT2PI * np.exp(-0.5 * np.square(np.asarray(x, dtype=np.float64)))


def _check_finite(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("activation input must be finite")
    return x


def activation_forward(kind, x):
    """Evaluate an activation elementwise. `x` may be a scalar or array."""
    x = _check_finite(x)
    if kind == RELU:
        return np.maximum(x, 0.0)
    if kind == GELU:
        return x * normal_cdf(x)
    if kind == SIN:
        return np.sin(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_with_derivative(kind, x):
    """(activation_forward(kind, x), its elementwise derivative), the value
    bit for bit, in one pass: GELU evaluates the normal CDF once for both.
    ReLU's derivative at exactly 0 is defined as 0."""
    x = _check_finite(x)
    if kind == RELU:
        return np.maximum(x, 0.0), (x > 0.0).astype(np.float64)
    if kind == GELU:
        cdf = normal_cdf(x)
        return x * cdf, cdf + x * normal_pdf(x)
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

