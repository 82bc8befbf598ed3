"""Generalized point convolution.

Per query point x with neighbors N(x):

    out_o(x) = norm * sum_{y in N(x)} sum_c f_c(y) <kappa[c, o, :], P^T e(y - x)> + bias_o

with norm = 1/|N(x)|, where e is the neighborhood embedding, P projects the
embedding's native dimension E_raw to a common dimension E_c (equalizing
parameter counts across embedding kinds) and kappa is the learnable kernel
tensor (I x O x E_c). Queries with empty neighborhoods output the bias.

Evaluation order. `make_site` lays the T stored pairs out once per site in
a padded (M, Kmax) table of support indices, Kmax the largest neighbor count.
Row m lists the neighbors of query m and its empty slots hold N, the index of
a zero shadow row appended to the features; `slot` is each pair's flat
position in that table. Then

    epad  = e scattered to the slots   (M, Kmax, E_raw), zero in empty slots
    fpad  = [f; 0][table]              (M, Kmax, I)
    zq    = epad^T @ fpad              (M, E_raw, I), one batched matmul, as (M, E_raw * I)
    K_eff = P @ kappa^T                (E_raw * I, O), one matrix product
    out   = norm * (zq @ K_eff) + bias

so no per-pair (T, I * E) tensor is formed. Backward runs the same chain:
d_K_eff = zq^T @ (norm * upstream) splits into d_kernel and d_projection
through P and kappa, dz = (norm * upstream) @ K_eff^T, and d_features sums
(epad @ dz) at the pair slots onto the support points with one sparse product
of T nonzeros, `ConvSite.from_pairs`. The per-pair embedding gradient
d_e = (fpad @ dz^T) at the pair slots is formed only when the embedding has
learnable parameters or offset gradients are requested.

What backward reuses. A forward that keeps its cache (`keep=True`) returns
epad, fpad, zq, the norm weights, K_eff and, for an embedding with learnable
parameters, the activation derivative act'(pre) that `embed` formed with e,
which `gradient_params` takes instead of forming pre again. An inference
forward (`keep=False`) keeps none of them and forms no derivative.
`from_pairs` depends only on the site: it is built on the first backward
through a site and stays with the site, so neither `make_site` nor an
inference forward pays for it.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np
import scipy.sparse as sparse

from .errors import ShapeError

MEAN = "mean"


@dataclass
class ConvSite:
    """Geometry binding of a convolution: the neighbor structure between a
    query and a support cloud, with precomputed relative offsets and the
    padded per-query neighbor table."""

    neighbors: object
    offsets: np.ndarray          # (T, 3) support - query per stored pair
    counts: np.ndarray           # (M,)
    num_support: int
    table: np.ndarray            # (M, Kmax) support index per slot; num_support if empty
    slot: np.ndarray             # (T,) flat position of each pair in table

    @cached_property
    def from_pairs(self):
        """(num_support, T) operator that sums per-pair rows onto their
        support points: column t holds a single 1, in the row of pair t's
        support."""
        t = len(self.slot)
        return sparse.csc_matrix((np.ones(t), self.neighbors.indices, np.arange(t + 1)),
                                 shape=(self.num_support, t))


def make_site(query, support, neighbors):
    """Build a ConvSite from a neighbor list between `query` and `support`."""
    qid = neighbors.query_ids()
    # np.take gathers rows several times faster than fancy indexing
    offsets = (np.take(support.positions, neighbors.indices, axis=0)
               - np.take(query.positions, qid, axis=0))
    counts = neighbors.counts
    kmax = counts.max(initial=0)
    slot = np.arange(len(qid)) + (qid * kmax - neighbors.offsets[qid])
    table = np.full(len(counts) * kmax, len(support), dtype=np.int64)
    table[slot] = neighbors.indices
    return ConvSite(
        neighbors=neighbors,
        offsets=offsets,
        counts=counts,
        num_support=len(support),
        table=table.reshape(len(counts), kmax),
        slot=slot,
    )


@dataclass
class ConvLayer:
    embedding: object
    projection: np.ndarray       # (E_raw, E_c)
    kernel: np.ndarray           # (I, O, E_c)
    bias: np.ndarray             # (O,)
    # the sum over N(x) is divided by |N(x)|; read by the benchmark's dense oracle
    normalize: ClassVar[str] = MEAN

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        if self.projection.ndim != 2:
            raise ShapeError("projection must be 2-d")
        if self.projection.shape[0] != self.embedding.raw_dim:
            raise ShapeError("projection input dim must equal embedding raw_dim")
        if self.kernel.ndim != 3 or self.kernel.shape[2] != self.projection.shape[1]:
            raise ShapeError("kernel must be (I, O, E_c) with E_c matching projection")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.kernel.shape[1],):
            raise ShapeError("bias must be (O,)")
        for arr in (self.projection, self.kernel, self.bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("layer parameters must be finite")

    @property
    def in_features(self):
        return self.kernel.shape[0]

    @property
    def out_features(self):
        return self.kernel.shape[1]


@dataclass
class ConvGradients:
    d_features: np.ndarray
    d_kernel: np.ndarray
    d_projection: np.ndarray
    d_embedding_params: dict
    d_bias: np.ndarray
    d_offsets: Optional[np.ndarray] = None


def _norm_weights(counts):
    """Per-query output scale 1/|N(x)|; an empty query has no pairs, so its
    weight meets only zeros."""
    return 1.0 / np.maximum(counts, 1)


def _padded_features(site, features):
    """fpad[m, j] = f[table[m, j]], zero in empty slots (the shadow row)."""
    shadow = np.zeros((1, features.shape[1]))
    return np.take(np.concatenate((features, shadow)), site.table, axis=0)  # (M, Kmax, I)


def _at_pairs(site, padded):
    """The (T, X) rows of an (M, Kmax, X) padded array at the pair slots."""
    return np.take(padded.reshape(-1, padded.shape[2]), site.slot, axis=0)


def _effective_kernel(layer):
    """K_eff[r * I + c, o] = sum_e P[r, e] kappa[c, o, e]."""
    i, o, ec = layer.kernel.shape
    k = layer.kernel.reshape(i * o, ec).T                      # (E_c, I*O)
    return (layer.projection @ k).reshape(-1, o)               # (E_raw*I, O)


def _forward_site(layer, site, features, keep=True):
    """(out, cache). The cache is what `_backward_site` reads; with
    `keep=False` it is None and no embedding derivative is formed."""
    if features.shape != (site.num_support, layer.in_features):
        raise ShapeError(
            f"features must be ({site.num_support}, {layer.in_features}), got {features.shape}"
        )
    dact = None
    if keep and layer.embedding.params():
        e, dact = layer.embedding.embed(site.offsets, with_derivative=True)
    else:
        e = layer.embedding.embed(site.offsets)                # (T, E_raw)
    m, kmax = site.table.shape
    r, i = e.shape[1], layer.in_features
    epad = np.zeros((m * kmax, r))
    epad[site.slot] = e
    epad = epad.reshape(m, kmax, r)
    fpad = _padded_features(site, features)
    zq = np.matmul(epad.transpose(0, 2, 1), fpad).reshape(m, r * i)
    w = _norm_weights(site.counts)
    k_eff = _effective_kernel(layer)
    out = (zq @ k_eff) * w[:, None] + layer.bias
    if not keep:
        return out, None
    return out, (epad, fpad, dact, zq, w, k_eff)


def _backward_site(layer, site, upstream, cache, with_offsets=False):
    """Gradients from the cache of `_forward_site(layer, site, features)`,
    which holds the padded features backward reads."""
    epad, fpad, dact, zq, w, k_eff = cache
    m = len(site.counts)
    if upstream.shape != (m, layer.out_features):
        raise ShapeError(f"upstream must be ({m}, {layer.out_features})")
    i, o, ec = layer.kernel.shape
    r = layer.projection.shape[0]
    uq = upstream * w[:, None]                                 # (M, O)
    d_keff = (zq.T @ uq).reshape(r, i * o)                     # (E_raw, I*O)
    k = layer.kernel.reshape(i * o, ec)
    d_kernel = (layer.projection.T @ d_keff).T.reshape(i, o, ec)
    d_projection = d_keff @ k
    dz = (uq @ k_eff.T).reshape(m, r, i)                       # (M, E_raw, I)
    d_pairs = _at_pairs(site, np.matmul(epad, dz))            # (T, I)
    d_features = site.from_pairs @ d_pairs
    d_bias = upstream.sum(axis=0)
    d_emb = {}
    d_offsets = None
    if layer.embedding.params() or with_offsets:
        d_e = _at_pairs(site, np.matmul(fpad, dz.transpose(0, 2, 1)))   # (T, E_raw)
        d_emb = layer.embedding.gradient_params(site.offsets, d_e, dact)
        if with_offsets:
            jac = layer.embedding.jacobian_offsets(site.offsets)   # (T, E_raw, 3)
            d_offsets = np.einsum("te,tec->tc", d_e, jac)
    return ConvGradients(
        d_features=d_features,
        d_kernel=d_kernel,
        d_projection=d_projection,
        d_embedding_params=d_emb,
        d_bias=d_bias,
        d_offsets=d_offsets,
    )


def conv_forward(layer, query, support, neighbors, features):
    """Forward evaluation; query and support may be different clouds."""
    features = np.asarray(features, dtype=np.float64)
    site = make_site(query, support, neighbors)
    out, _ = _forward_site(layer, site, features, keep=False)
    return out


def conv_backward(layer, query, support, neighbors, features, upstream, with_offsets=False):
    """Exact gradients of conv_forward w.r.t. features, kernel, projection,
    embedding parameters and bias. Offset gradients (through e(y - x)) are
    computed on request; they are not consumed by the optimizer."""
    features = np.asarray(features, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    site = make_site(query, support, neighbors)
    _, cache = _forward_site(layer, site, features)
    return _backward_site(layer, site, upstream, cache, with_offsets=with_offsets)


def _truncated_normal(rng, std, size, clip=2.0):
    out = rng.standard_normal(size) * std
    bad = np.abs(out) > clip * std
    while bad.any():
        out[bad] = rng.standard_normal(bad.sum()) * std
        bad = np.abs(out) > clip * std
    return out


def init_conv_layer(embedding, in_features, out_features, embed_dim=16, seed=0):
    """Kernel ~ N(0, 1/(E_c * I)) truncated at 2 std; projection ~ N(0, 1/E_raw);
    bias zero. Deterministic per seed."""
    if min(in_features, out_features, embed_dim) < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    kernel = _truncated_normal(
        rng, np.sqrt(1.0 / (embed_dim * in_features)), (in_features, out_features, embed_dim)
    )
    projection = rng.standard_normal((embedding.raw_dim, embed_dim)) * np.sqrt(
        1.0 / embedding.raw_dim
    )
    return ConvLayer(embedding, projection, kernel, bias=np.zeros(out_features))
