"""Neighborhood embedding functions: kernel-point embeddings with Box,
Triangular and Gaussian correlation, single-layer MLP embeddings with
ReLU/GELU/Sin activations, and the identity embedding.

Every embedding maps relative offsets (y - x, shape N x 3) to N x E_raw
descriptors and provides the analytic Jacobian w.r.t. the offsets plus
gradients w.r.t. its learnable parameters (MLP weights and biases; kernel
points and sigma are fixed). Kernel-point correlations are evaluated in a
(K, N) layout, the pairs on the contiguous axis: squared distances summed
one axis at a time into one array, with no (N, K, 3) difference tensor, the
correlation formed in place on it, and its (N, K) transposed view returned.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ShapeError

BOX = "box"
TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"

CORRELATION_KINDS = (BOX, TRIANGULAR, GAUSSIAN)

# first-layer frequency omega_0 of the sin embedding (SIREN): one
# half-period across the receptive field
SIN_FREQUENCY = np.pi


def _check_offsets(offsets):
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.ndim != 2 or offsets.shape[1] != 3:
        raise ShapeError(f"offsets must be (N, 3), got {offsets.shape}")
    if not np.all(np.isfinite(offsets)):
        raise ValueError("offsets must be finite")
    return offsets


def icosahedron_kernel_points(shell_radius):
    """12 unit-icosahedron vertices scaled to `shell_radius`, plus the origin.

    Vertex order: cyclic permutations of (0, +-1, +-phi) with sign pairs
    (+,+), (+,-), (-,+), (-,-) per permutation, normalized to unit length;
    the center point comes last (index 12).
    """
    if shell_radius <= 0:
        raise ValueError("shell_radius must be positive")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a, b in [(1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)]:
        verts.append((0.0, a, b))
    for a, b in [(1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)]:
        verts.append((a, b, 0.0))
    for a, b in [(1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)]:
        verts.append((b, 0.0, a))
    verts = np.asarray(verts)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True) * shell_radius
    return np.vstack([verts, np.zeros((1, 3))])


def icosahedron_shell_spacing(shell_radius):
    """Nearest-neighbor distance among the 12 shell vertices."""
    pts = icosahedron_kernel_points(shell_radius)[:12]
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d[np.diag_indices(len(pts))] = np.inf
    return float(d.min())


def default_kernel_layout(radius, sigma_factor=1.0):
    """Shell radius and sigma for the icosahedral kernel-point layout of a
    receptive field of radius `radius` (`NeighborhoodSpec.receptive_radius`).

    The shell sits at 0.6 * radius. Sigma defaults to the shell-point
    nearest-neighbor spacing, scaled by `sigma_factor`.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    shell_radius = 0.6 * radius
    return shell_radius, sigma_factor * icosahedron_shell_spacing(shell_radius)


class Embedding:
    """Interface shared by all embedding variants."""

    raw_dim = None

    def embed(self, offsets):
        raise NotImplementedError

    def jacobian_offsets(self, offsets):
        raise NotImplementedError

    def gradient_params(self, offsets, upstream, derivative):
        """Gradients w.r.t. learnable parameters; empty for fixed embeddings.
        `derivative` is what `embed(offsets, with_derivative=True)` returned
        with the values, where the embedding has parameters."""
        return {}

    def params(self):
        return {}


@dataclass
class KernelPointEmbedding(Embedding):
    """Correlation to a fixed set of kernel points."""

    kernel_points: np.ndarray
    sigma: float
    correlation: str

    def __post_init__(self):
        self.kernel_points = np.asarray(self.kernel_points, dtype=np.float64)
        if self.kernel_points.ndim != 2 or self.kernel_points.shape[1] != 3:
            raise ShapeError("kernel_points must be (K, 3)")
        if len(self.kernel_points) < 1:
            raise ValueError("need at least one kernel point")
        if self.correlation not in CORRELATION_KINDS:
            raise ValueError(f"unknown correlation: {self.correlation!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")

    @property
    def raw_dim(self):
        return len(self.kernel_points)

    def _sq_dists(self, offsets):
        """(K, N) squared distances, the pairs on the contiguous axis, summed
        in x, y, z order, as np.linalg.norm sums them, so sqrt(d2) equals the
        norm of the difference bit for bit. The y and z squares are formed in
        one scratch array and added into the x one."""
        cols = np.ascontiguousarray(offsets.T)                 # (3, N)
        kp = self.kernel_points[:, :, None]                    # (K, 3, 1)
        d2 = np.subtract(cols[0], kp[:, 0])
        np.square(d2, out=d2)
        scratch = np.empty_like(d2)
        for c in (1, 2):
            np.subtract(cols[c], kp[:, c], out=scratch)
            d2 += np.square(scratch, out=scratch)
        return d2

    def embed(self, offsets):
        """(N, K) correlations, the transposed view of a (K, N) array."""
        offsets = _check_offsets(offsets)
        d2 = self._sq_dists(offsets)
        if self.correlation == BOX:
            # one-hot on the nearest kernel point; argmin ties -> smallest j
            return np.eye(self.raw_dim)[d2.argmin(axis=0)]
        # in place, in the operation order of max(1 - sqrt(d2) / sigma, 0)
        # and exp(-d2 / (2 sigma^2))
        if self.correlation == TRIANGULAR:
            np.sqrt(d2, out=d2)
            d2 /= self.sigma
            np.subtract(1.0, d2, out=d2)
            np.maximum(d2, 0.0, out=d2)
        else:
            np.negative(d2, out=d2)
            d2 /= 2.0 * self.sigma**2
            np.exp(d2, out=d2)
        return d2.T

    def jacobian_offsets(self, offsets):
        offsets = _check_offsets(offsets)
        if self.correlation == BOX:
            return np.zeros((len(offsets), self.raw_dim, 3))
        d2 = self._sq_dists(offsets)
        diffs = offsets.T[:, None, :] - self.kernel_points.T[:, :, None]   # (3, K, N)
        if self.correlation == TRIANGULAR:
            # zero at the cone apex (d=0) and outside the support (d>=sigma)
            d = np.sqrt(d2)
            denom = np.where((d > 0.0) & (d < self.sigma), self.sigma * d, np.inf)
            jac = -diffs / denom
        else:
            e = np.exp(-d2 / (2.0 * self.sigma**2))
            jac = e * -diffs / self.sigma**2
        return jac.transpose(2, 1, 0)                          # (N, K, 3)


@dataclass
class MlpEmbedding(Embedding):
    """Single linear layer plus activation: e(p) = act(W p + b).

    For the sin activation the pre-activation is scaled by the first-layer
    frequency omega_0 = `SIN_FREQUENCY`: e(p) = sin(omega_0 (W p + b)).
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] != 3:
            raise ShapeError("weights must be (E, 3)")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError("biases must be (E,)")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("weights and biases must be finite")
        if self.activation not in numerics.ACTIVATION_KINDS:
            raise ValueError(f"unknown activation: {self.activation!r}")

    @property
    def raw_dim(self):
        return self.weights.shape[0]

    def _pre(self, offsets):
        """omega_0 (W p + b), (N, E), formed in place on the matmul's output."""
        pre = offsets @ self.weights.T
        pre += self.biases
        if self.activation == numerics.SIN:
            pre *= SIN_FREQUENCY
        return pre

    def embed(self, offsets, with_derivative=False):
        """e (N, E), or (e, act'(pre)) when `with_derivative`: the pair that
        `gradient_params` takes back instead of forming `pre` again."""
        offsets = _check_offsets(offsets)
        if with_derivative:
            return numerics.activation_with_derivative(self.activation, self._pre(offsets))
        return numerics.activation_forward(self.activation, self._pre(offsets))

    def jacobian_offsets(self, offsets):
        offsets = _check_offsets(offsets)
        dact = numerics.activation_with_derivative(self.activation, self._pre(offsets))[1]
        if self.activation == numerics.SIN:
            dact = SIN_FREQUENCY * dact
        return dact[..., None] * self.weights[None, :, :]

    def gradient_params(self, offsets, upstream, derivative):
        offsets = _check_offsets(offsets)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (len(offsets), self.raw_dim):
            raise ShapeError("upstream must be (N, E)")
        if np.shape(derivative) != upstream.shape:
            raise ShapeError("derivative must be (N, E)")
        if self.activation == numerics.SIN:
            upstream = SIN_FREQUENCY * upstream                # order pinned: (omega * upstream) * derivative
        dpre = upstream * derivative
        return {"weights": dpre.T @ offsets, "biases": dpre.sum(axis=0)}

    def params(self):
        return {"weights": self.weights, "biases": self.biases}


@dataclass
class IdentityEmbedding(Embedding):
    """Uses the raw offset coordinates as the embedding."""

    raw_dim: int = field(default=3, init=False)

    def embed(self, offsets):
        return _check_offsets(offsets).copy()

    def jacobian_offsets(self, offsets):
        offsets = _check_offsets(offsets)
        return np.broadcast_to(np.eye(3), (len(offsets), 3, 3)).copy()


def init_mlp_embedding(dim, neighborhood_radius, activation, seed):
    """MLP embedding with weights uniform in [-1/r, 1/r] so pre-activations
    over the receptive field land roughly in [-1, 1]; biases start at 0.
    Sin scales its pre-activation by `SIN_FREQUENCY` (pi).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if neighborhood_radius <= 0:
        raise ValueError("neighborhood_radius must be positive")
    rng = np.random.default_rng(seed)
    bound = 1.0 / neighborhood_radius
    weights = rng.uniform(-bound, bound, size=(dim, 3))
    biases = np.zeros(dim)
    return MlpEmbedding(weights, biases, activation)
