"""Aggregated gradient verification: every analytic gradient in the package
against the central finite-difference oracle.

Each check is one report row: component name, number of probes, the maximum
relative error and whether it passed its tolerance. Non-differentiable loci
(Triangular kinks, ReLU hyperplanes) are excluded per the documented
convention; Box offset gradients are asserted exactly zero instead.

Probing convention. Each row but the embedding Jacobians (batched in
`_batched_fd_jacobian`) probes a live array in place through `_fd_gradient`:
a parameter, the conv features or offsets, the logits. Its `loss()` reads
the array where the model does, and the array is restored bit for bit, also
when a probe raises. Network rows concatenate parameters in `params()` order.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .embeddings import (
    IdentityEmbedding,
    KernelPointEmbedding,
    MlpEmbedding,
    default_kernel_layout,
    icosahedron_kernel_points,
)
from .geometry import PointCloud, ball_query
from .network import ClassificationNetwork, EmbeddingSpec, EncoderConfig, NeighborhoodSpec, SegmentationNetwork
from .pointconv import _backward_site, _forward_site, _split_keff, init_conv_layer, make_site
from .training import cross_entropy

H = 1e-5
TOL_LOCAL = 1e-4      # embeddings and conv layer
TOL_NETWORK = 1e-3    # whole-network parameter gradients
TOL_LOSS = 1e-6       # cross entropy
KINK_MARGIN = 1e-3    # exclusion distance around non-differentiable loci


@dataclass
class CheckRow:
    component: str
    probes: int
    max_rel_error: float
    tolerance: float
    passed: bool


def _rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _fd_gradient(loss, array):
    """Central-difference gradient, shaped like `array`, of the scalar
    `loss()`, perturbing `array` in place and restoring it in a `finally`."""
    saved = array.copy()

    def probe(flat):
        array[...] = flat.reshape(array.shape)
        return np.array([loss()])

    try:
        return numerics.finite_diff_jacobian(probe, saved.ravel(), h=H).reshape(array.shape)
    finally:
        array[...] = saved


def _batched_fd_jacobian(embed_fn, offsets, h=H):
    """(N, E, 3) finite-difference Jacobian; one coordinate of every probe
    is perturbed at once, so six evaluations cover the whole batch."""
    cols = []
    for c in range(3):
        dp = np.zeros_like(offsets)
        dp[:, c] = h
        cols.append((embed_fn(offsets + dp) - embed_fn(offsets - dp)) / (2.0 * h))
    return np.stack(cols, axis=2)


def _make_embeddings(seed):
    shell, sigma = default_kernel_layout(1.0, 1.0)
    kps = icosahedron_kernel_points(shell)
    rng = np.random.default_rng(seed)

    def mlp(act):
        w = rng.uniform(-1.5, 1.5, size=(8, 3))
        b = rng.uniform(-0.3, 0.3, size=8)
        return MlpEmbedding(w, b, act)

    return {
        "box": KernelPointEmbedding(kps, sigma, "box"),
        "triangular": KernelPointEmbedding(kps, sigma, "triangular"),
        "gaussian": KernelPointEmbedding(kps, sigma, "gaussian"),
        "mlp_relu": mlp(numerics.RELU),
        "mlp_gelu": mlp(numerics.GELU),
        "mlp_sin": mlp(numerics.SIN),
        "identity": IdentityEmbedding(),
    }


def _kink_mask(emb, offsets):
    """True for probe rows safely away from non-differentiable loci."""
    if isinstance(emb, KernelPointEmbedding) and emb.correlation == "triangular":
        d = np.sqrt(emb._sq_dists(offsets))                    # (K, N)
        return (np.abs(d - emb.sigma).min(axis=0) > KINK_MARGIN) & (d.min(axis=0) > KINK_MARGIN)
    if isinstance(emb, MlpEmbedding) and emb.activation == numerics.RELU:
        pre = emb._pre(offsets)
        return np.abs(pre).min(axis=1) > KINK_MARGIN
    return np.ones(len(offsets), dtype=bool)


def check_embedding_jacobians(n_probes=1000, seed=0):
    rows = []
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=(n_probes, 3))
    for name, emb in _make_embeddings(seed + 1).items():
        if name == "box":
            jac = emb.jacobian_offsets(offsets)
            err = float(np.abs(jac).max())
            rows.append(CheckRow(f"embedding[{name}].offsets_zero", n_probes, err,
                                 0.0, err == 0.0))
            continue
        mask = _kink_mask(emb, offsets)
        jac = emb.jacobian_offsets(offsets)[mask]
        fd = _batched_fd_jacobian(emb.embed, offsets)[mask]
        err = _rel_error(jac, fd)
        rows.append(CheckRow(f"embedding[{name}].offsets", int(mask.sum()), err,
                             TOL_LOCAL, err < TOL_LOCAL))
    return rows


def check_embedding_params(n_probes=200, seed=1):
    """MLP weight/bias gradients of a random linear functional of embed."""
    rows = []
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=(n_probes, 3))
    embs = _make_embeddings(seed + 1)
    for name in ("mlp_relu", "mlp_gelu", "mlp_sin"):
        emb = embs[name]
        mask = _kink_mask(emb, offsets)
        probes = offsets[mask]
        v = rng.standard_normal((len(probes), emb.raw_dim))
        grads = emb.gradient_params(probes, v, emb.embed(probes, with_derivative=True)[1])
        for pname, param in emb.params().items():
            err = _rel_error(grads[pname],
                             _fd_gradient(lambda: float(np.sum(v * emb.embed(probes))), param))
            rows.append(CheckRow(f"embedding[{name}].{pname}", len(probes), err,
                                 TOL_LOCAL, err < TOL_LOCAL))
    return rows


def _conv_instance(seed, num_support=12, num_query=6):
    """Small cross-cloud geometry shared by the conv checks."""
    rng = np.random.default_rng(seed)
    support = PointCloud(rng.uniform(-1.0, 1.0, size=(num_support, 3)))
    query = PointCloud(rng.uniform(-1.0, 1.0, size=(num_query, 3)))
    nl = ball_query(query, support, 1.2)
    return query, support, nl, rng


# (row prefix, support size, query size): the conv sums its pairs from the
# query side on the first instance and from the support side on the second
CONV_INSTANCES = (("conv", 12, 6), ("conv_support", 6, 12))


def check_conv_gradients(seed=2):
    rows = []
    for (prefix, num_support, num_query), (name, emb) in itertools.product(
            CONV_INSTANCES, _make_embeddings(seed).items()):
        query, support, nl, rng = _conv_instance(seed + 3, num_support, num_query)
        layer = init_conv_layer(emb, 3, 2, embed_dim=4, seed=seed + 5)
        features = rng.standard_normal((len(support), 3))
        site = make_site(query, support, nl)
        out, cache = _forward_site(layer, site, features)
        v = rng.standard_normal(out.shape)
        g = _backward_site(layer, site, v, cache, with_offsets=True)

        def loss():
            return float(np.sum(v * _forward_site(layer, site, features, keep=False)[0]))

        d_kernel, d_projection = _split_keff(layer, g.d_keff)
        checks = [("kernel", layer.kernel, d_kernel),
                  ("projection", layer.projection, d_projection),
                  ("bias", layer.bias, g.d_bias)]
        for pname, param in layer.embedding.params().items():
            checks.append((f"emb.{pname}", param, g.d_embedding_params[pname]))
        checks.append(("features", features, g.d_features))
        for pname, param, analytic in checks:
            err = _rel_error(analytic, _fd_gradient(loss, param))
            rows.append(CheckRow(f"{prefix}[{name}].{pname}", param.size, err,
                                 TOL_LOCAL, err < TOL_LOCAL))

        if name == "box":
            err = float(np.abs(g.d_offsets).max())
            rows.append(CheckRow(f"{prefix}[{name}].offsets_zero", site.offsets.size, err,
                                 0.0, err == 0.0))
        else:
            fd = _fd_gradient(loss, site.offsets)
            mask = _kink_mask(layer.embedding, site.offsets)
            err = _rel_error(g.d_offsets[mask], fd[mask])
            rows.append(CheckRow(f"{prefix}[{name}].offsets", int(mask.sum()), err,
                                 TOL_LOCAL, err < TOL_LOCAL))
    return rows


def check_cross_entropy(seed=3):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((8, 5))
    labels = rng.integers(0, 5, size=8)
    _, d_logits = cross_entropy(logits, labels)
    err = _rel_error(d_logits, _fd_gradient(lambda: cross_entropy(logits, labels)[0], logits))
    return [CheckRow("loss.cross_entropy", logits.size, err, TOL_LOSS, err < TOL_LOSS)]


def _toy_config():
    return EncoderConfig(
        initial_cell=0.3,
        widths=[4, 6],
        blocks_per_level=[1, 1],
        neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
        embedding=EmbeddingSpec("kp:gaussian"),
        embed_dim=4,
    )


def _network_param_check(model, batch, name):
    """Parameter gradients of the mean loss over `batch`, a list of (prep,
    labels), accumulated over one backward per cloud as a training step
    does, against central differences of that mean."""
    model.zero_grads()
    for prep, labels in batch:
        d_logits = cross_entropy(model.forward(prep, training=True), labels)[1]
        model.backward(d_logits / len(batch))
    params, grads = model.params(), model.grads()

    def loss():
        return sum(cross_entropy(model.forward(prep, training=False), labels)[0] / len(batch)
                   for prep, labels in batch)

    fd = np.concatenate([_fd_gradient(loss, p).ravel() for p in params.values()])
    analytic = np.concatenate([grads[k].ravel() for k in params])
    err = _rel_error(analytic, fd)
    return CheckRow(name, fd.size, err, TOL_NETWORK, err < TOL_NETWORK)


def check_network_gradients(seed=4):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(40, 3)),
                       labels=rng.integers(0, 3, size=40))
    cls = ClassificationNetwork(_toy_config(), num_classes=3, seed=seed)
    rows = [_network_param_check(cls, [(cls.prepare(cloud), [1])],
                                 "network[classification].params")]
    seg = SegmentationNetwork(_toy_config(), num_classes=3, seed=seed + 1)
    prep = seg.prepare(cloud)
    rows.append(_network_param_check(seg, [(prep, seg.targets(prep))],
                                     "network[segmentation].params"))
    # two clouds of different sizes: the conv gradients settle from a sum
    # over two backwards, as in a training step
    rng = np.random.default_rng(seed + 1)
    batch = [(cls.prepare(PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))), [n % 3])
             for n in (20, 32)]
    rows.append(_network_param_check(cls, batch, "network[classification,batch].params"))
    return rows


def gradient_check_report(seed=0, n_probes=1000):
    """Every finite-difference suite in one report (list of CheckRow)."""
    rows = []
    rows += check_embedding_jacobians(n_probes=n_probes, seed=seed)
    rows += check_embedding_params(seed=seed + 1)
    rows += check_conv_gradients(seed=seed + 2)
    rows += check_cross_entropy(seed=seed + 3)
    rows += check_network_gradients(seed=seed + 4)
    return rows


def format_report(rows):
    lines = []
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        lines.append(f"{status}  {row.component:40s} probes={row.probes:6d} "
                     f"max_rel_error={row.max_rel_error:.3e} tol={row.tolerance:g}")
    failed = [r.component for r in rows if not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append(f"all {len(rows)} components passed")
    return "\n".join(lines)
