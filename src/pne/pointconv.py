"""Generalized point convolution.

Per query point x with neighbors N(x):

    out_o(x) = norm * sum_{y in N(x)} sum_c f_c(y) <kappa[c, o, :], P^T e(y - x)> + bias_o

with norm = 1/|N(x)|, where e is the neighborhood embedding, P projects the
embedding's native dimension E_raw to a common dimension E_c (equalizing
parameter counts across embedding kinds) and kappa is the learnable kernel
tensor (I x O x E_c). Queries with empty neighborhoods output the bias.

Evaluation order. The sum over pairs is taken from whichever side of the
site has fewer points, decided from the site's shape alone: from the support
side when the support cloud is the smaller one (num_support < M, the
decoder's `up{l}` and `direct{l}` sites), else from the query side (self and
down sites). Both use K_eff = P @ kappa^T, (E_raw * I, O), one matrix
product, and neither forms a per-pair (T, I * E) tensor.

Query side. The T stored pairs are laid out in a padded (M, Kmax) table of
support indices, Kmax the largest neighbor count. Row m lists the neighbors
of query m and its empty slots hold 0, so they read support row 0; `slot`
is each pair's flat position in that table. The site keeps both as
`by_query = (table, slot)`. No output or gradient reads an empty slot
unmasked: epad is zero there, `from_pairs` holds nothing in its column and
only pair slots are gathered back into d_e. This needs finite conv
features: a non-finite row 0 would reach every query with an empty slot as
0 * inf. When every query has the same count k > 0 (every kNN site, and
any ball query that happens to), the stored pairs already are that table in
order: `table` is the indices as (M, k), `slot` is None, epad is e reshaped
and a per-pair row is a reshape of the padded array. Then

    epad  = e scattered to the slots   (M, Kmax, E_raw), zero in empty slots
    fpad  = f[table]                   (M, Kmax, I)
    zq    = epad^T @ fpad              (M, E_raw, I), one batched matmul, as (M, E_raw * I)
    out   = norm * (zq @ K_eff) + bias

Backward runs the same chain: d_K_eff = zq^T @ (norm * upstream),
dz = (norm * upstream) @ K_eff^T, and d_features sums the padded rows of
(epad @ dz), taken as (M * Kmax, I), onto the support points with one sparse
product of T nonzeros, `ConvSite.from_pairs`: an (N, M * Kmax) operator with
a 1 in the column of each pair's slot, in its support's row, and nothing in
the column of an empty slot, so no pair rows are gathered first. Slots rise
with the pair index, so each support point sums the same terms in the same
order as it would over the pairs.

Support side. Every support point is projected through the kernel first,
and one sparse operator sums the pairs:

    K_t   = K_eff as (I, E_raw * O)
    H     = f @ K_t                    (N, E_raw * O), as (N * E_raw, O)
    S     = e at (q_t, y_t * E_raw + r) (M, N * E_raw) CSR, T * E_raw nonzeros
    out   = norm * (S @ H) + bias

Its work is N * I * E_raw * O for H and T * E_raw * O for S @ H, where the
query side does M * Kmax * E_raw * I for zq and M * E_raw * I * O for the
product; no padded table is built. Backward: dH = S^T @ (norm * upstream),
d_features = dH @ K_t^T and d_K_eff from f^T @ dH.

`embed` may return a transposed view rather than a C-contiguous (T, E_raw)
array (the kernel-point embeddings do): the scatter into epad, the C-order
copy that makes a dense epad and the `e.ravel()` that fills S read it
through its strides.

The backward returns d_K_eff (E_raw, I * O) and stops there: `_split_keff`
turns it into d_kernel and d_projection through P and kappa, two GEMMs that
read only parameters. `conv_backward` splits each call's d_K_eff; a network
conv sums the d_K_eff of every backward of an optimizer step and splits the
sum once, when its gradients are next read (see `network`). The forward
forms K_eff unless its caller hands one in. A network conv hands in the one
its first training forward after a walk formed, until the next walk, so a
training step forms it once per conv; an inference forward forms its own.
That is sound only because no parameter is written between a step's first
training forward and the walk. A memo that outlived the step would not be:
the optimizer, `pne eval`, the gradient check and the benchmark's reset all
write the parameters in place through the `params()` arrays, and nothing
sees those writes. A memo keyed by value must compare every entry of P and
kappa on every forward, which costs about a third of forming K_eff (see
ROADMAP, "Not planned").

The per-pair embedding gradient d_e (T, E_raw) is formed only when the
embedding has learnable parameters or offset gradients are requested:
(fpad @ dz^T) at the pair slots on the query side. On the support side
d_e[t, r] = H[y_t, r] . (norm * upstream)[q_t] is one batched matmul over
the support points, on the (N, Ks) table that lists the queries of each
support point's pairs (`by_support`, again a (table, slot) pair; its empty
slots read upstream row 0, and only pair slots are kept), so no
(T, E_raw, O) gather of H is formed.

What backward reuses. A forward that keeps its cache (`keep=True`) returns
the embedded pairs (epad or S), the norm weights, what its side's backward
reads (fpad, zq and K_eff, or f, H and K_t) and, for an embedding with
learnable parameters, the activation derivative act'(pre) that `embed`
formed with e, which `gradient_params` takes instead of forming pre again.
An inference forward (`keep=False`) keeps none of them and forms no
derivative. The padded tables and `from_pairs` depend only on the site:
each is built the first time a forward or backward needs it and stays with
the site, so `make_site` pays for none of them and a site builds only the
ones its side reads. Convs that share a site and an embedding object (the
decoder's `up0` and `direct1` under a fixed embedding) embed the site once
per forward, through a memo their owner hands them for that forward only.
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
    query and a support cloud, with precomputed relative offsets. The padded
    tables of each query's and each support point's pairs are built on first
    use."""

    neighbors: object
    offsets: np.ndarray          # (T, 3) support - query per stored pair
    counts: np.ndarray           # (M,)
    num_support: int

    @cached_property
    def by_query(self):
        """(table, slot): the (M, Kmax) support index of each slot, 0 if
        empty, and the (T,) flat position of each pair in that table. When
        every query has the same count k > 0 the pairs are the table in
        order: the table is a view of the indices as (M, k) and slot is
        None."""
        m, counts = len(self.counts), self.counts
        if m and counts.min() == counts.max() > 0:
            return self.neighbors.indices.reshape(m, -1), None
        return _grouped(self.neighbors.query_ids(), m, self.neighbors.indices)

    @cached_property
    def by_support(self):
        """(table, slot): the (N, Ks) query index of each slot, Ks the most
        pairs on one support point, 0 if empty, and the (T,) flat position of
        each pair in that table. Row n lists, in pair order, the queries of
        the pairs on support point n."""
        return _grouped(self.neighbors.indices, self.num_support, self.neighbors.query_ids())

    @cached_property
    def from_pairs(self):
        """(num_support, M * Kmax) operator that sums the rows of a padded
        (M, Kmax, X) array, flattened to (M * Kmax, X), onto the support
        points: the column of pair t's slot holds a single 1, in the row of
        pair t's support, and the columns of empty slots hold nothing."""
        table, slot = self.by_query
        t, width = len(self.neighbors.indices), table.size
        # slots rise with the pair index: column s starts after the pairs in slots < s
        indptr = np.arange(t + 1) if slot is None else np.searchsorted(slot, np.arange(width + 1))
        return sparse.csc_matrix((np.ones(t), self.neighbors.indices, indptr),
                                 shape=(self.num_support, width))


def _grouped(keys, num_groups, values):
    """The padded table of pairs grouped by `keys` and each pair's flat
    position (slot) in it. Row g lists, in pair order, the `values` of the
    pairs whose key is g, and 0 in its empty slots."""
    counts = np.bincount(keys, minlength=num_groups)
    width = counts.max(initial=0)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[np.argsort(keys, kind="stable")] = np.arange(len(keys))
    slot = rank + (keys * width - (np.cumsum(counts) - counts)[keys])
    table = np.zeros(num_groups * width, dtype=np.int64)
    table[slot] = values
    return table.reshape(num_groups, width), slot


def make_site(query, support, neighbors):
    """Build a ConvSite from a neighbor list between `query` and `support`."""
    if neighbors.num_queries != len(query):
        raise ShapeError(f"neighbor list is for {neighbors.num_queries} queries, "
                         f"query cloud has {len(query)} points")
    idx = neighbors.indices
    if len(idx) and not 0 <= idx.min() <= idx.max() < len(support):
        raise ShapeError(f"neighbor indices must lie in [0, {len(support)}), "
                         f"found [{idx.min()}, {idx.max()}]")
    # np.take gathers rows several times faster than fancy indexing
    offsets = (np.take(support.positions, idx, axis=0)
               - np.take(query.positions, neighbors.query_ids(), axis=0))
    return ConvSite(
        neighbors=neighbors,
        offsets=offsets,
        counts=neighbors.counts,
        num_support=len(support),
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
    d_keff: np.ndarray           # (E_raw, I*O); `_split_keff` gives d_kernel, d_projection
    d_embedding_params: dict
    d_bias: np.ndarray
    d_offsets: Optional[np.ndarray] = None
    d_kernel: Optional[np.ndarray] = None       # filled in by conv_backward
    d_projection: Optional[np.ndarray] = None


def _norm_weights(counts):
    """Per-query output scale 1/|N(x)|; an empty query has no pairs, so its
    weight meets only zeros."""
    return 1.0 / np.maximum(counts, 1)


def _at_pairs(padded, slot):
    """The (T, X) rows of an (R, K, X) padded array at the pair slots; every
    row, in order, when slot is None."""
    rows = padded.reshape(-1, padded.shape[2])
    return rows if slot is None else np.take(rows, slot, axis=0)


def _support_side(site):
    """True when the sum over pairs is taken from the support side: the
    support cloud has fewer points than the query cloud."""
    return site.num_support < len(site.counts)


def _effective_kernel(layer):
    """K_eff[r * I + c, o] = sum_e P[r, e] kappa[c, o, e]."""
    i, o, ec = layer.kernel.shape
    k = layer.kernel.reshape(i * o, ec).T                      # (E_c, I*O)
    return (layer.projection @ k).reshape(-1, o)               # (E_raw*I, O)


def _split_keff(layer, d_keff):
    """(d_kernel, d_projection) from d_K_eff (E_raw, I*O), through P and
    kappa: d_kernel = (P^T d_K_eff)^T, d_projection = d_K_eff kappa."""
    i, o, ec = layer.kernel.shape
    d_kernel = (layer.projection.T @ d_keff).T.reshape(i, o, ec)
    return d_kernel, d_keff @ layer.kernel.reshape(i * o, ec)


def _embedded_pairs(layer, site, keep):
    """(pairs, dact): the site's embedding values laid out for its side's
    contraction, S or epad, and act'(pre) when a kept forward needs it."""
    dact = None
    if keep and layer.embedding.params():
        e, dact = layer.embedding.embed(site.offsets, with_derivative=True)
    else:
        e = layer.embedding.embed(site.offsets)                # (T, E_raw)
    m, r = len(site.counts), e.shape[1]
    if _support_side(site):
        # scipy keeps int32 indices as given; int64 ones it scans and copies
        fits = max(site.num_support, len(site.offsets)) * r < 2**31
        itype = np.int32 if fits else np.int64
        cols = (site.neighbors.indices.astype(itype)[:, None] * r
                + np.arange(r, dtype=itype)).ravel()
        pairs = sparse.csr_matrix((e.ravel(), cols, site.neighbors.offsets.astype(itype) * r),
                                  shape=(m, site.num_support * r))
    else:
        table, slot = site.by_query
        if slot is None:
            # C order as the scatter leaves it; a strided view of a transposed
            # e would take another matmul kernel, with other rounding
            pairs = np.ascontiguousarray(e).reshape(m, table.shape[1], r)
        else:
            pairs = np.zeros((m * table.shape[1], r))
            pairs[slot] = e
            pairs = pairs.reshape(m, table.shape[1], r)
    return pairs, dact


def _padded_forward(site, features, epad, k_eff):
    """The unnormalized sums (M, O) from the query side, and what its
    backward reads."""
    m, _, r = epad.shape
    i = features.shape[1]
    fpad = np.take(features, site.by_query[0], axis=0)
    zq = np.matmul(epad.transpose(0, 2, 1), fpad).reshape(m, r * i)   # (M, E_raw*I)
    return zq @ k_eff, (epad, fpad, zq, k_eff)


def _support_forward(site, features, s_op, k_eff):
    """The unnormalized sums (M, O) from the support side, and what its
    backward reads."""
    i, o = features.shape[1], k_eff.shape[1]
    r = k_eff.shape[0] // i
    k_t = k_eff.reshape(r, i, o).transpose(1, 0, 2).reshape(i, r * o)
    h = (features @ k_t).reshape(-1, o)                        # (N*E_raw, O)
    return s_op @ h, (s_op, features, h, k_t)


def _forward_site(layer, site, features, keep=True, memo=None, k_eff=None):
    """(out, cache). The cache is what `_backward_site` reads; with
    `keep=False` it is None and no embedding derivative is formed. `memo`,
    a dict shared for one forward, lets convs that share a site and an
    embedding object embed the site's pairs once. `k_eff`, when given, is
    `_effective_kernel(layer)` formed by the caller; else it is formed here."""
    if features.shape != (site.num_support, layer.in_features):
        raise ShapeError(
            f"features must be ({site.num_support}, {layer.in_features}), got {features.shape}"
        )
    key = (id(site), id(layer.embedding))
    if memo is not None and key in memo:
        pairs, dact = memo[key]
    else:
        pairs, dact = _embedded_pairs(layer, site, keep)
        if memo is not None:
            memo[key] = (pairs, dact)
    contract = _support_forward if _support_side(site) else _padded_forward
    if k_eff is None:
        k_eff = _effective_kernel(layer)
    sums, kept = contract(site, features, pairs, k_eff)
    w = _norm_weights(site.counts)
    out = sums * w[:, None] + layer.bias
    if not keep:
        return out, None
    return out, (dact, w, kept)


def _padded_backward(site, uq, kept, with_pairs):
    """(d_features, d_K_eff as (E_raw, I*O), d_e or None) from the query side."""
    epad, fpad, zq, k_eff = kept
    m, _, r = epad.shape
    i = fpad.shape[2]
    slot = site.by_query[1]
    d_keff = (zq.T @ uq).reshape(r, i * uq.shape[1])           # (E_raw, I*O)
    dz = (uq @ k_eff.T).reshape(m, r, i)                       # (M, E_raw, I)
    d_features = site.from_pairs @ np.matmul(epad, dz).reshape(-1, i)
    d_e = None
    if with_pairs:
        d_e = _at_pairs(np.matmul(fpad, dz.transpose(0, 2, 1)), slot)   # (T, E_raw)
    return d_features, d_keff, d_e


def _support_backward(site, uq, kept, with_pairs):
    """(d_features, d_K_eff as (E_raw, I*O), d_e or None) from the support side."""
    s_op, features, h, k_t = kept
    n, i = features.shape
    o = uq.shape[1]
    r = k_t.shape[1] // o
    dh = (s_op.T @ uq).reshape(n, r * o)                       # (N, E_raw*O)
    d_features = dh @ k_t.T
    d_keff = (features.T @ dh).reshape(i, r, o).transpose(1, 0, 2).reshape(r, i * o)
    d_e = None
    if with_pairs:
        # d_e[t, r] = H[y_t, r] . uq[q_t], one batched matmul over support points
        table, slot = site.by_support
        uqpad = np.take(uq, table, axis=0)
        g = np.matmul(uqpad, h.reshape(n, r, o).transpose(0, 2, 1))      # (N, Ks, E_raw)
        d_e = _at_pairs(g, slot)
    return d_features, d_keff, d_e


def _backward_site(layer, site, upstream, cache, with_offsets=False):
    """Gradients from the cache of `_forward_site(layer, site, features)`,
    those of kernel and projection as d_K_eff, unsplit."""
    dact, w, kept = cache
    m = len(site.counts)
    if upstream.shape != (m, layer.out_features):
        raise ShapeError(f"upstream must be ({m}, {layer.out_features})")
    uq = upstream * w[:, None]                                 # (M, O)
    with_pairs = bool(layer.embedding.params()) or with_offsets
    contract = _support_backward if _support_side(site) else _padded_backward
    d_features, d_keff, d_e = contract(site, uq, kept, with_pairs)
    d_bias = upstream.sum(axis=0)
    d_emb = {}
    d_offsets = None
    if with_pairs:
        d_emb = layer.embedding.gradient_params(site.offsets, d_e, dact)
        if with_offsets:
            jac = layer.embedding.jacobian_offsets(site.offsets)   # (T, E_raw, 3)
            d_offsets = np.einsum("te,tec->tc", d_e, jac)
    return ConvGradients(
        d_features=d_features,
        d_keff=d_keff,
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
    g = _backward_site(layer, site, upstream, cache, with_offsets=with_offsets)
    g.d_kernel, g.d_projection = _split_keff(layer, g.d_keff)
    return g


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
