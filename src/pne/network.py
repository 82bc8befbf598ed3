"""Metaformer blocks with point-convolution token mixers, the multi-level
encoder over cell-average pyramids, the classification head, and the
sum-based skip-connection decoder.

Forward/backward for one network instance is single-threaded. A module
keeps a forward cache only from `forward(..., training=True)` to the
`backward` that follows it: backward takes the cache and releases it, and an
inference forward (`training=False`, the default) keeps nothing, so a model
that only serves requests holds no per-request arrays. A backward with no
cache raises `MissingCacheError`. Parameters live in numpy arrays that the
optimizer updates in place.

The parameter tree is declared, not restated: a leaf module lists its own
`(name, param, grad)` triples in `tensors()`, a composite lists its ordered
`(name, submodule)` pairs in `children()`, and `Module` derives `params()`,
`grads()` and `zero_grads()` from one depth-first walk that joins names
with dots. The dotted names are the `model.bin` format, and the walk order
is part of it too: `save_params` writes tensors in that order,
`clip_grad_norm` sums squared norms in it and `gradcheck` flattens
parameters in it. That is why `children()` lists submodules explicitly
rather than in the order the constructor builds them.

The geometry is declared the same way: each conv states its site name and
its (query, support, search) pyramid levels in its construction call, and
`Network.prepare` builds the sites from those declarations alone.

Conv gradients settle at the walk. A conv's backward adds its K_eff-space
gradient d_K_eff into a pending sum, one array add per cloud. The walk
splits each pending sum through P and kappa into the kernel and projection
gradients (`pointconv._split_keff`), once per optimizer step rather than
once per cloud, before it yields that conv's tensors: `params()` and
`grads()` settle, and `zero_grads()` drops a pending sum without splitting
it. A second walk finds nothing pending, and a backward after a walk goes
into the next one. The arrays `params()` and `grads()` return are the same
live objects throughout.

A conv also keeps the K_eff (P kappa^T) that its first training forward
after a walk formed, reads it in every training forward up to the next walk
and drops it there; an inference forward forms its own and leaves the kept
one alone. So a step of B clouds forms each conv's K_eff once, not B times.
Because the kept K_eff, and P and kappa when the sum settles, stand for the
parameters of the whole step, no parameter may be written from a step's
first training forward to the walk that settles it: the training loop, the
gradient check and the benchmark call `grads()` before they write, and the
benchmark's reset comes before the `zero_grads()` that starts each step.
"""

import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .config import EMBEDDING_NAMES, NEIGHBORHOOD_NAMES, NetworkSettings
from .embeddings import (
    IdentityEmbedding,
    KernelPointEmbedding,
    default_kernel_layout,
    icosahedron_kernel_points,
    init_mlp_embedding,
)
from .errors import DegenerateInputError, MissingCacheError, ParamFileError, ShapeError
from .geometry import PointCloud, ball_query, cell_average_subsample, knn
from .pointconv import (_backward_site, _effective_kernel, _forward_site, _split_keff,
                        init_conv_layer, make_site)


class Module:
    _cache = None

    def _take_cache(self):
        """The cache of the last training forward, released as it is read."""
        cache = self._cache
        if cache is None:
            site = getattr(self, "site_name", None)
            who = type(self).__name__ + (f" at site {site!r}" if site else "")
            raise MissingCacheError(f"{who}: backward needs a forward(training=True) "
                                    "before it, and each such forward serves one backward")
        self._cache = None
        return cache

    def tensors(self):
        """This module's own (name, param, grad) triples, in file order."""
        return ()

    def children(self):
        """This module's (name, submodule) pairs, in file order."""
        return ()

    def _settle(self, keep):
        """Fold gradients a backward left pending into this module's grad
        arrays (`keep`), or drop them."""

    def _walk(self, prefix="", keep=True):
        self._settle(keep)
        for name, param, grad in self.tensors():
            yield prefix + name, param, grad
        for name, child in self.children():
            yield from child._walk(f"{prefix}{name}.", keep)

    def params(self):
        return {name: p for name, p, _ in self._walk()}

    def grads(self):
        return {name: g for name, _, g in self._walk()}

    def zero_grads(self):
        for _, _, g in self._walk(keep=False):
            g[...] = 0.0


class Linear(Module):
    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("linear layer shapes disagree")
        self.g_weights = np.zeros_like(self.weights)
        self.g_bias = np.zeros_like(self.bias)

    @classmethod
    def init(cls, d_in, d_out, rng):
        w = rng.standard_normal((d_in, d_out)) * np.sqrt(1.0 / d_in)
        return cls(w, np.zeros(d_out))

    def forward(self, x, training=False):
        self._cache = x if training else None
        return x @ self.weights + self.bias

    def backward(self, up):
        x = self._take_cache()
        self.g_weights += x.T @ up
        self.g_bias += up.sum(axis=0)
        return up @ self.weights.T

    def tensors(self):
        yield "weights", self.weights, self.g_weights
        yield "bias", self.bias, self.g_bias


class LayerNorm(Module):
    """Per-point normalization over the feature vector, learnable scale+shift.

    Chosen over batch statistics to avoid coupling across variable-size
    clouds."""

    EPS = 1e-5

    def __init__(self, dim):
        self.scale = np.ones(dim)
        self.shift = np.zeros(dim)
        self.g_scale = np.zeros(dim)
        self.g_shift = np.zeros(dim)

    def forward(self, x, training=False):
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = np.square(xc).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.EPS)
        xhat = xc * inv
        self._cache = (xhat, inv) if training else None
        return xhat * self.scale + self.shift

    def backward(self, up):
        xhat, inv = self._take_cache()
        d = xhat.shape[1]
        self.g_scale += (up * xhat).sum(axis=0)
        self.g_shift += up.sum(axis=0)
        dxhat = up * self.scale
        return (inv / d) * (
            d * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )

    def tensors(self):
        yield "scale", self.scale, self.g_scale
        yield "shift", self.shift, self.g_shift


class ConvModule(Module):
    """A ConvLayer bound to the site `site_name` of the prepared sample,
    which `Network.prepare` builds from `levels` (see `_conv_module`).
    `memo`, which an owner sets for the span of its own forward, is the
    dict through which convs sharing a site and an embedding object embed
    the site's pairs once. `_pending` is the summed d_K_eff of the backwards
    since the last walk, None when there were none, and `_keff` the K_eff
    that training forwards since the last walk read, None before the first."""

    memo = None
    _pending = None
    _keff = None

    def __init__(self, layer, site_name, levels):
        self.layer = layer
        self.site_name = site_name
        self.levels = levels
        self.g_kernel = np.zeros_like(layer.kernel)
        self.g_projection = np.zeros_like(layer.projection)
        self.g_bias = np.zeros_like(layer.bias)
        self.g_embedding = {k: np.zeros_like(v) for k, v in layer.embedding.params().items()}

    def forward(self, prep, features, training=False):
        site = prep.sites[self.site_name]
        if training and self._keff is None:
            self._keff = _effective_kernel(self.layer)
        out, cache = _forward_site(self.layer, site, features, keep=training, memo=self.memo,
                                   k_eff=self._keff if training else None)
        self._cache = (site, cache) if training else None
        return out

    def backward(self, up):
        site, cache = self._take_cache()
        g = _backward_site(self.layer, site, up, cache)
        if self._pending is None:
            self._pending = g.d_keff           # a fresh array, owned from here
        else:
            self._pending += g.d_keff
        self.g_bias += g.d_bias
        for k, v in g.d_embedding_params.items():
            self.g_embedding[k] += v
        return g.d_features

    def _settle(self, keep):
        self._keff = None
        pending, self._pending = self._pending, None
        if keep and pending is not None:
            d_kernel, d_projection = _split_keff(self.layer, pending)
            self.g_kernel += d_kernel
            self.g_projection += d_projection

    def tensors(self):
        yield "kernel", self.layer.kernel, self.g_kernel
        yield "projection", self.layer.projection, self.g_projection
        yield "bias", self.layer.bias, self.g_bias
        for k, p in self.layer.embedding.params().items():
            yield f"emb.{k}", p, self.g_embedding[k]


def _conv_forward(conv, prep, features, training):
    """`conv.forward`, called as `forward(prep, features)` for inference: the
    signature that wrappers of `ConvModule.forward` (the benchmark's
    perturbed-output check) are written for."""
    if training:
        return conv.forward(prep, features, training=True)
    return conv.forward(prep, features)


class MetaformerBlock(Module):
    """Two pre-norm residual sub-blocks: point-conv mixer, then a point-wise
    MLP whose hidden layer doubles the width. Drop path zeroes a residual
    branch per sample during training (scaled by 1/(1-rate) when kept)."""

    def __init__(self, mixer, width, rng, drop_path_rate=0.0):
        self.norm1 = LayerNorm(width)
        self.norm2 = LayerNorm(width)
        self.mixer = mixer
        self.fc1 = Linear.init(width, 2 * width, rng)
        self.fc2 = Linear.init(2 * width, width, rng)
        if not 0.0 <= drop_path_rate < 1.0:
            raise ValueError("drop_path_rate must be in [0, 1)")
        self.drop_path_rate = drop_path_rate

    def _draw_keep(self, training, rng):
        if not training or self.drop_path_rate == 0.0:
            return 1.0
        if rng is None:
            raise ValueError(f"block at site {self.mixer.site_name!r}: drop path "
                             f"(rate {self.drop_path_rate:g}) needs rng in a training forward")
        if rng.random() < self.drop_path_rate:
            return 0.0
        return 1.0 / (1.0 - self.drop_path_rate)

    def forward(self, prep, x, training=False, rng=None):
        k1 = self._draw_keep(training, rng)
        k2 = self._draw_keep(training, rng)
        h = self.norm1.forward(x, training=training)
        m = _conv_forward(self.mixer, prep, h, training)
        x1 = x + k1 * m
        h2 = self.norm2.forward(x1, training=training)
        z = self.fc1.forward(h2, training=training)
        if training:
            a, dadz = numerics.activation_with_derivative(numerics.GELU, z)
            self._cache = (k1, k2, dadz)
        else:
            a = numerics.activation_forward(numerics.GELU, z)
            self._cache = None
        u = self.fc2.forward(a, training=training)
        return x1 + k2 * u

    def backward(self, up):
        k1, k2, dadz = self._take_cache()
        da = self.fc2.backward(k2 * up)
        dz = da * dadz
        dh2 = self.fc1.backward(dz)
        dx1 = up + self.norm2.backward(dh2)
        dh = self.mixer.backward(k1 * dx1)
        return dx1 + self.norm1.backward(dh)

    def children(self):
        return [("norm1", self.norm1), ("mixer", self.mixer), ("norm2", self.norm2),
                ("fc1", self.fc1), ("fc2", self.fc2)]


@dataclass
class EmbeddingSpec:
    """The embedding of every convolution, by its config name: "kp:<correlation>",
    "mlp:<activation>" or "none"."""

    name: str
    mlp_dim: int = 16
    sigma_factor: float = 1.0

    def __post_init__(self):
        if self.name not in EMBEDDING_NAMES:
            raise ValueError(f"unknown embedding {self.name!r}, expected {EMBEDDING_NAMES}")

    def label(self):
        """(family, variant): ("kp", "box"), ("mlp", "gelu") or ("none", "")."""
        family, _, variant = self.name.partition(":")
        return family, variant


def build_embedding(spec, radius, seed):
    """Instantiate an embedding for one convolution site whose receptive
    field has radius `radius` (`NeighborhoodSpec.receptive_radius`): the
    kernel-point shell sits at 0.6 * radius and MLP weights are drawn in
    [-1/radius, 1/radius]."""
    family, variant = spec.label()
    if family == "kp":
        with np.errstate(over="ignore", under="ignore"):    # far from unit scale: inf or 0
            shell_radius, sigma = default_kernel_layout(radius, spec.sigma_factor)
            two_var = 2.0 * np.square(np.float64(sigma))
        if not 0.0 < two_var < np.inf:
            raise DegenerateInputError(f"receptive radius {radius:.6g}: kernel sigma {sigma:.6g} "
                                       f"gives 2 sigma^2 = {two_var:.6g}, not positive and finite")
        return KernelPointEmbedding(icosahedron_kernel_points(shell_radius), sigma, variant)
    if family == "mlp":
        return init_mlp_embedding(spec.mlp_dim, radius, variant, seed)
    return IdentityEmbedding()


# estimated average kNN neighbor distance r', in cell sizes; a kNN site's
# receptive radius is 2 r'
KNN_AVG_FACTOR = 1.5


@dataclass
class NeighborhoodSpec:
    """The neighbor search of every site, and the only code that tells a
    ball query from kNN: ball query reads only `scale`, kNN only `k`."""

    kind: str            # one of NEIGHBORHOOD_NAMES
    k: int = 16
    scale: float = 2.0   # ball radius = scale * cell size

    def __post_init__(self):
        if self.kind not in NEIGHBORHOOD_NAMES:
            raise ValueError(f"unknown neighborhood {self.kind!r}, expected {NEIGHBORHOOD_NAMES}")

    def search(self, query, support, cell, trees=None):
        """Neighbors in `support` of each point of `query` at cell size `cell`."""
        if self.kind == "ball_query":
            return ball_query(query, support, self.scale * cell, _trees=trees)
        return knn(query, support, self.k, _trees=trees)

    def receptive_radius(self, cell):
        """The radius the embeddings of a site at cell size `cell` are sized
        for: the ball radius, or twice the estimated average kNN distance."""
        if self.kind == "ball_query":
            return self.scale * cell
        return 2.0 * (KNN_AVG_FACTOR * cell)


@dataclass
class EncoderConfig(NetworkSettings):
    """The network's shape, the settings an `ExperimentConfig` holds too, and
    the neighborhood and embedding of every conv."""

    neighborhood: NeighborhoodSpec
    embedding: EmbeddingSpec

    @property
    def num_levels(self):
        return len(self.widths)

    def level_cell(self, level):
        return self.initial_cell * 2.0**level


@dataclass
class PreparedSample:
    """Geometry precomputed once per cloud: pyramid and neighbor sites,
    reusable across epochs and across models with the same neighborhood.
    Two names that denote the same search map to one site object."""

    clouds: list
    sites: dict
    label: Optional[int] = None


# the width of default_input_features
IN_FEATURES = 2


def default_input_features(cloud):
    """Constant 1 plus height above the cloud minimum."""
    z = cloud.positions[:, 2]
    return np.stack([np.ones(len(cloud)), z - z.min()], axis=1)


def _conv_module(config, rng, site_name, levels, d_in, d_out):
    """A point conv on site `site_name` over pyramid `levels`, (query,
    support, search): the search level's cell sizes both the search and the
    embedding. Draws the embedding seed, then the layer seed, from `rng`."""
    radius = config.neighborhood.receptive_radius(config.level_cell(levels[2]))
    emb = build_embedding(config.embedding, radius, seed=rng.integers(2**31))
    layer = init_conv_layer(emb, d_in, d_out, config.embed_dim, seed=rng.integers(2**31))
    return ConvModule(layer, site_name, levels)


def _convs(module):
    """The ConvModules under `module`, in `children()` order."""
    if isinstance(module, ConvModule):
        yield module
    for _, child in module.children():
        yield from _convs(child)


class Network(Module):
    """A module that prepares the clouds its `forward` reads."""

    def prepare(self, cloud):
        """Build the pyramid and the sites the convs below declare: one site
        per distinct `levels`, filed under the `site_name` of each conv that
        declares them, so `direct1`, declared as `up0` is, is `up0`'s site.

        Each level's KD-tree is built once, on its first search, and serves
        every search on that level; the trees are dropped when this returns,
        so the prepared sample holds none. A cloud whose extent overflows
        float64 raises DegenerateInputError before its features are formed."""
        if len(cloud) == 0:
            raise DegenerateInputError("input cloud is empty")
        lo, hi = cloud.positions.min(axis=0), cloud.positions.max(axis=0)
        with np.errstate(over="ignore"):
            extent = hi - lo
        if not np.all(extent < np.inf):
            axis = int(np.argmax(extent))
            raise DegenerateInputError(
                f"the cloud's extent on axis {'xyz'[axis]}, from {lo[axis]:.6g} to "
                f"{hi[axis]:.6g}, overflows float64")
        cfg = self.config
        cur = PointCloud(cloud.positions, features=default_input_features(cloud),
                         labels=cloud.labels)
        clouds = []
        for lvl in range(cfg.num_levels):
            cur = cell_average_subsample(cur, cfg.level_cell(lvl))
            if len(cur) == 0:
                raise DegenerateInputError(f"pyramid level {lvl} is empty")
            clouds.append(cur)
        trees, by_levels, sites = {}, {}, {}
        for conv in _convs(self):
            if conv.levels not in by_levels:
                query, support, search = conv.levels
                nl = cfg.neighborhood.search(clouds[query], clouds[support],
                                             cfg.level_cell(search), trees)
                by_levels[conv.levels] = make_site(clouds[query], clouds[support], nl)
            sites[conv.site_name] = by_levels[conv.levels]
        return PreparedSample(clouds=clouds, sites=sites)


class Encoder(Network):
    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.init_linear = Linear.init(IN_FEATURES, config.widths[0], rng)
        self.levels = []
        self.transitions = []
        total_blocks = sum(config.blocks)
        depth = 0
        for lvl in range(config.num_levels):
            width = config.widths[lvl]
            blocks = []
            for _ in range(config.blocks[lvl]):
                rate = 0.0
                if total_blocks > 1:
                    rate = config.drop_path_max * depth / (total_blocks - 1)
                mixer = _conv_module(config, rng, f"self{lvl}", (lvl, lvl, lvl), width, width)
                blocks.append(MetaformerBlock(mixer, width, rng, drop_path_rate=rate))
                depth += 1
            self.levels.append(blocks)
            if lvl + 1 < config.num_levels:
                self.transitions.append(_conv_module(
                    config, rng, f"down{lvl}", (lvl + 1, lvl, lvl + 1), width, config.widths[lvl + 1]))

    def forward(self, prep, training=False, rng=None):
        """Returns the post-block feature map of every level."""
        feats = self.init_linear.forward(prep.clouds[0].features, training=training)
        per_level = []
        for lvl, blocks in enumerate(self.levels):
            for block in blocks:
                feats = block.forward(prep, feats, training=training, rng=rng)
            per_level.append(feats)
            if lvl + 1 < self.config.num_levels:
                feats = _conv_forward(self.transitions[lvl], prep, feats, training)
        return per_level

    def backward(self, d_per_level):
        """`d_per_level[l]` is the upstream gradient into level l's post-block
        features (zeros where unused)."""
        num = self.config.num_levels
        d_post = d_per_level[num - 1]
        for lvl in range(num - 1, -1, -1):
            d = d_post
            for block in reversed(self.levels[lvl]):
                d = block.backward(d)
            if lvl > 0:
                d_post = d_per_level[lvl - 1] + self.transitions[lvl - 1].backward(d)
            else:
                self.init_linear.backward(d)

    def children(self):
        # every block before the first transition, unlike construction order
        out = [("init", self.init_linear)]
        for lvl, blocks in enumerate(self.levels):
            out += [(f"l{lvl}.b{bi}", block) for bi, block in enumerate(blocks)]
        out += [(f"down{lvl}", tr) for lvl, tr in enumerate(self.transitions)]
        return out


def classify(per_level_feats, head, training=False):
    """Global mean pooling over the last level's point features, then a
    linear head producing class logits (shape (1, num_classes))."""
    last = per_level_feats[-1]
    if len(last) == 0:
        raise DegenerateInputError("last pyramid level is empty")
    pooled = last.mean(axis=0, keepdims=True)
    return head.forward(pooled, training=training)


class ClassificationNetwork(Network):
    def __init__(self, config, num_classes, seed=0):
        self.num_classes = num_classes
        self.encoder = Encoder(config, seed=seed)
        rng = np.random.default_rng(np.random.default_rng(seed).integers(2**31) + 1)
        self.head = Linear.init(config.widths[-1], num_classes, rng)
        self.config = config

    def targets(self, prep):
        """The class of each row of `forward(prep)`: the cloud's label."""
        return [prep.label]

    def forward(self, prep, training=False, rng=None):
        per_level = self.encoder.forward(prep, training=training, rng=rng)
        self._cache = per_level if training else None
        return classify(per_level, self.head, training=training)

    def backward(self, d_logits):
        per_level = self._take_cache()
        d_pooled = self.head.backward(d_logits)
        last = per_level[-1]
        d_last = np.repeat(d_pooled, len(last), axis=0) / len(last)
        d_per_level = [np.zeros_like(f) for f in per_level[:-1]] + [d_last]
        self.encoder.backward(d_per_level)

    def children(self):
        return [("enc", self.encoder), ("head", self.head)]


class Decoder(Module):
    """Progressive upsampling with additive skip connections, plus a direct
    upsample of every level to level 0; the summed map feeds a point-wise
    linear that produces per-point logits on the first down-scaled cloud."""

    def __init__(self, config, num_classes, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        num = config.num_levels
        final_width = config.widths[0]
        self.skips = [Linear.init(config.widths[l], config.widths[l], rng) for l in range(num)]
        self.upconvs = [
            _conv_module(config, rng, f"up{lvl}", (lvl, lvl + 1, lvl + 1),
                         config.widths[lvl + 1], config.widths[lvl])
            for lvl in range(num - 1)
        ]
        self.direct0 = Linear.init(config.widths[0], final_width, rng)
        self.directs = [
            _conv_module(config, rng, f"direct{lvl}", (0, lvl, lvl),
                         config.widths[lvl], final_width)
            for lvl in range(1, num)
        ]
        self.final = Linear.init(final_width, num_classes, rng)
        # up0 and direct1 convolve the same site with embeddings sized for
        # level 1; a fixed embedding is then the same function in both, so
        # they hold one embedding object and embed the site once per forward
        self._sharing = ()
        if num > 1 and not self.upconvs[0].layer.embedding.params():
            self.directs[0].layer.embedding = self.upconvs[0].layer.embedding
            self._sharing = (self.upconvs[0], self.directs[0])

    def forward(self, prep, enc_feats, training=False):
        num = self.config.num_levels
        ys = [None] * num
        ys[num - 1] = self.skips[num - 1].forward(enc_feats[num - 1], training=training)
        memo = {}
        for conv in self._sharing:
            conv.memo = memo
        try:
            for lvl in range(num - 2, -1, -1):
                up = _conv_forward(self.upconvs[lvl], prep, ys[lvl + 1], training)
                ys[lvl] = up + self.skips[lvl].forward(enc_feats[lvl], training=training)
            z = self.direct0.forward(ys[0], training=training)
            for lvl in range(1, num):
                z = z + _conv_forward(self.directs[lvl - 1], prep, ys[lvl], training)
        finally:
            for conv in self._sharing:
                conv.memo = None
        return self.final.forward(z, training=training)

    def backward(self, d_logits):
        num = self.config.num_levels
        dz = self.final.backward(d_logits)
        d_ys = [None] * num
        d_ys[0] = self.direct0.backward(dz)
        for lvl in range(1, num):
            d_ys[lvl] = self.directs[lvl - 1].backward(dz)
        d_enc = [None] * num
        for lvl in range(num - 1):
            d_enc[lvl] = self.skips[lvl].backward(d_ys[lvl])
            d_ys[lvl + 1] = d_ys[lvl + 1] + self.upconvs[lvl].backward(d_ys[lvl])
        d_enc[num - 1] = self.skips[num - 1].backward(d_ys[num - 1])
        return d_enc

    def children(self):
        return (
            [(f"skip{lvl}", s) for lvl, s in enumerate(self.skips)]
            + [(f"up{lvl}", c) for lvl, c in enumerate(self.upconvs)]
            + [("direct0", self.direct0)]
            + [(f"direct{lvl + 1}", c) for lvl, c in enumerate(self.directs)]
            + [("final", self.final)]
        )


class SegmentationNetwork(Network):
    """Encoder + skip-connection decoder; logits live on the first
    down-scaled cloud (its majority labels are the training targets)."""

    def __init__(self, config, num_classes, seed=0):
        self.num_classes = num_classes
        self.encoder = Encoder(config, seed=seed)
        self.decoder = Decoder(config, num_classes, seed=np.random.default_rng(seed).integers(2**31) + 7)
        self.config = config

    def targets(self, prep):
        """The class of each row of `forward(prep)`: the level-0 labels."""
        return prep.clouds[0].labels

    def forward(self, prep, training=False, rng=None):
        enc_feats = self.encoder.forward(prep, training=training, rng=rng)
        return self.decoder.forward(prep, enc_feats, training=training)

    def backward(self, d_logits):
        d_enc = self.decoder.backward(d_logits)
        self.encoder.backward(d_enc)

    def children(self):
        return [("enc", self.encoder), ("dec", self.decoder)]


_MAGIC = b"PNEW"
_VERSION = 1


def save_params(path, params):
    """Flat binary parameter file: magic, version, tensor table (name,
    shape), then all values as float64 little-endian in table order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(params)))
        for name, arr in params.items():
            arr = np.asarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        for arr in params.values():
            fh.write(np.asarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, size, what, tensor=None):
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParamFileError(f"file truncated in {what}: {left} of {size} bytes", tensor)
    return fh.read(size)


def load_params(path):
    """Read a file written by `save_params`. A truncated file, trailing bytes,
    non-finite values or a shape numpy cannot allocate raise ParamFileError
    naming the tensor at fault; a name that is not UTF-8, its position in
    the tensor table."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ParamFileError("not a parameter file")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != _VERSION:
            raise ParamFileError(f"unsupported version {version}")
        table = []
        for pos in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "tensor table"))
            raw = _read_exact(fh, nlen, "tensor table")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParamFileError(f"tensor table entry {pos}: name is not UTF-8 "
                                     f"({exc.reason} at byte {exc.start})") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "tensor table", name))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "tensor table", name))
            table.append((name, shape))
        out = {}
        for name, shape in table:
            size = math.prod(shape)
            data = np.frombuffer(_read_exact(fh, 8 * size, "values", name), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise ParamFileError("non-finite values", tensor=name)
            try:
                values = data.reshape(shape)
            except ValueError as exc:     # e.g. (0, 2**62): no bytes, yet too big for numpy
                raise ParamFileError(f"shape {shape} cannot be allocated: {exc}", name) from None
            out[name] = values.astype(np.float64)
        trailing = len(fh.read())
        if trailing:
            raise ParamFileError(f"{trailing} trailing bytes after the last tensor")
        return out
