import itertools

import numpy as np
import pytest
import scipy.sparse as sparse

from pne import numerics, pointconv
from pne.embeddings import IdentityEmbedding, KernelPointEmbedding, icosahedron_kernel_points, init_mlp_embedding
from pne.errors import ShapeError
from pne.geometry import NeighborList, PointCloud, ball_query, knn
from pne.gradcheck import H, TOL_LOCAL, _kink_mask, _rel_error
from pne.network import EmbeddingSpec, build_embedding
from pne.pointconv import (
    ConvLayer,
    _backward_site,
    _forward_site,
    _split_keff,
    _support_side,
    conv_backward,
    conv_forward,
    init_conv_layer,
    make_site,
)


def single_neighbor_setup():
    """Identity embedding, E_c=3, P=I, I=O=1, one neighbor at offset (1,0,0),
    feature 2, kappa=[0.5,0,0], zero bias."""
    layer = ConvLayer(
        embedding=IdentityEmbedding(),
        projection=np.eye(3),
        kernel=np.array([[[0.5, 0.0, 0.0]]]),
        bias=np.zeros(1),
    )
    query = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    support = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    nl = NeighborList(np.array([0, 1]), np.array([0]))
    features = np.array([[2.0]])
    return layer, query, support, nl, features


def test_forward_single_neighbor_hand_value():
    layer, query, support, nl, features = single_neighbor_setup()
    out = conv_forward(layer, query, support, nl, features)
    # f * <kappa, P e> = 2 * 0.5 = 1.0
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0)


def test_duplicate_neighbor_under_mean_unchanged():
    """Listing the one neighbor twice in a query's row of the padded table
    leaves the mean and the feature and kernel gradients unchanged, and
    halves each pair's offset gradient."""
    layer, query, support, nl, features = single_neighbor_setup()
    out1 = conv_forward(layer, query, support, nl, features)
    nl2 = NeighborList(np.array([0, 2]), np.array([0, 0]))
    assert np.array_equal(make_site(query, support, nl2).by_query[0], [[0, 0]])
    out2 = conv_forward(layer, query, support, nl2, features)
    assert np.allclose(out1, out2)
    up = np.array([[3.0]])
    g1 = conv_backward(layer, query, support, nl, features, up, with_offsets=True)
    g2 = conv_backward(layer, query, support, nl2, features, up, with_offsets=True)
    assert np.allclose(g2.d_features, g1.d_features, rtol=1e-14, atol=0.0)
    assert np.allclose(g2.d_kernel, g1.d_kernel, rtol=1e-14, atol=0.0)
    assert np.allclose(g2.d_offsets, np.vstack([g1.d_offsets] * 2) / 2, rtol=1e-14, atol=0.0)


def test_empty_neighborhood_outputs_bias():
    layer, _, support, _, features = single_neighbor_setup()
    layer = ConvLayer(layer.embedding, layer.projection, layer.kernel, bias=np.array([7.0]))
    query = PointCloud(np.array([[50.0, 0.0, 0.0]]))
    nl = NeighborList(np.array([0, 0]), np.empty(0, dtype=np.int64))
    out = conv_forward(layer, query, support, nl, features)
    assert out[0, 0] == pytest.approx(7.0)
    # every query empty: the padded table has no columns (Kmax = 0)
    assert make_site(query, support, nl).by_query[0].shape == (1, 0)
    up = np.array([[3.0]])
    g = conv_backward(layer, query, support, nl, features, up, with_offsets=True)
    assert np.array_equal(g.d_features, np.zeros_like(features))
    assert np.array_equal(g.d_kernel, np.zeros_like(layer.kernel))
    assert np.array_equal(g.d_projection, np.zeros_like(layer.projection))
    assert np.array_equal(g.d_bias, up.sum(axis=0))
    assert g.d_offsets.shape == (0, 3)


def random_instance(seed, emb=None, i=3, o=2):
    rng = np.random.default_rng(seed)
    support = PointCloud(rng.uniform(-1, 1, size=(16, 3)))
    query = PointCloud(rng.uniform(-1, 1, size=(7, 3)))
    nl = ball_query(query, support, 1.0)
    if emb is None:
        emb = KernelPointEmbedding(icosahedron_kernel_points(0.6), 0.7, "gaussian")
    layer = init_conv_layer(emb, i, o, embed_dim=4, seed=seed)
    features = rng.standard_normal((16, i))
    return layer, query, support, nl, features


def test_neighbor_permutation_invariance():
    layer, query, support, nl, features = random_instance(0)
    out1 = conv_forward(layer, query, support, nl, features)
    # permute neighbors within each query range
    rng = np.random.default_rng(1)
    idx = nl.indices.copy()
    for q in range(nl.num_queries):
        s, e = nl.offsets[q], nl.offsets[q + 1]
        idx[s:e] = rng.permutation(idx[s:e])
    out2 = conv_forward(layer, query, support, NeighborList(nl.offsets, idx), features)
    assert np.abs(out1 - out2).max() < 1e-10


def test_feature_linearity():
    layer, query, support, nl, _ = random_instance(2)
    rng = np.random.default_rng(3)
    f1 = rng.standard_normal((16, 3))
    f2 = rng.standard_normal((16, 3))
    a, b = 1.7, -0.4
    layer = ConvLayer(layer.embedding, layer.projection, layer.kernel, bias=np.zeros(2))
    lhs = conv_forward(layer, query, support, nl, a * f1 + b * f2)
    rhs = a * conv_forward(layer, query, support, nl, f1) + b * conv_forward(
        layer, query, support, nl, f2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_cross_cloud_forward_and_backward():
    layer, query, support, nl, features = random_instance(4)
    out = conv_forward(layer, query, support, nl, features)
    assert out.shape == (len(query), 2)
    up = np.random.default_rng(5).standard_normal(out.shape)
    g = conv_backward(layer, query, support, nl, features, up)
    assert g.d_features.shape == features.shape
    assert g.d_kernel.shape == layer.kernel.shape


def test_backward_zero_upstream():
    layer, query, support, nl, features = random_instance(6)
    g = conv_backward(layer, query, support, nl, features, np.zeros((len(query), 2)))
    assert np.all(g.d_kernel == 0.0)
    assert np.all(g.d_projection == 0.0)
    assert np.all(g.d_features == 0.0)
    assert np.all(g.d_bias == 0.0)


def test_backward_single_neighbor_hand_kernel_gradient():
    layer, query, support, nl, features = single_neighbor_setup()
    up = np.array([[3.0]])
    g = conv_backward(layer, query, support, nl, features, up)
    e = np.array([1.0, 0.0, 0.0])  # identity embedding of the offset
    expected = up[0, 0] * features[0, 0] * (np.eye(3) @ e)
    assert np.allclose(g.d_kernel[0, 0], expected)


def test_shape_errors():
    layer, query, support, nl, features = random_instance(7)
    with pytest.raises(ShapeError):
        conv_forward(layer, query, support, nl, features[:, :2])
    with pytest.raises(ShapeError):
        conv_backward(layer, query, support, nl, features, np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        ConvLayer(IdentityEmbedding(), np.eye(4), np.zeros((1, 1, 4)), bias=np.zeros(1))
    with pytest.raises(ShapeError):
        ConvLayer(IdentityEmbedding(), np.eye(3), np.zeros((1, 1, 4)), bias=np.zeros(1))
    with pytest.raises(ShapeError):
        ConvLayer(IdentityEmbedding(), np.eye(3), np.zeros((1, 2, 3)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        ConvLayer(IdentityEmbedding(), np.eye(3), np.zeros((1, 1, 3)), bias=np.array([np.nan]))


def test_init_deterministic_and_bias_zero():
    emb = IdentityEmbedding()
    a = init_conv_layer(emb, 3, 4, embed_dim=8, seed=11)
    b = init_conv_layer(emb, 3, 4, embed_dim=8, seed=11)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.projection, b.projection)
    assert np.all(a.bias == 0.0)


def test_init_truncation():
    emb = IdentityEmbedding()
    layer = init_conv_layer(emb, 8, 8, embed_dim=16, seed=12)
    std = np.sqrt(1.0 / (16 * 8))
    assert np.abs(layer.kernel).max() <= 2.0 * std + 1e-12


def test_init_variance_preserving():
    """One neighbor at a norm-sqrt(3) offset (unit variance per embedding
    coordinate), identity embedding: output variance within a factor of 4 of
    the input variance."""
    rng = np.random.default_rng(13)
    i = o = 16
    in_var = []
    out_var = []
    for trial in range(100):
        layer = init_conv_layer(IdentityEmbedding(), i, o, embed_dim=16, seed=trial)
        v = rng.standard_normal(3)
        v *= np.sqrt(3.0) / np.linalg.norm(v)
        query = PointCloud(np.zeros((1, 3)))
        support = PointCloud(v[None])
        nl = NeighborList(np.array([0, 1]), np.array([0]))
        f = rng.standard_normal((1, i))
        out = conv_forward(layer, query, support, nl, f)
        in_var.append(f.var())
        out_var.append(out.var())
    ratio = np.mean(out_var) / np.mean(in_var)
    assert 0.25 < ratio < 4.0


def test_parameter_count_equalization():
    """Total parameters differ across embedding kinds only by E_raw x E_c."""
    kinds = {
        "kp": KernelPointEmbedding(icosahedron_kernel_points(0.6), 0.7, "gaussian"),
        "mlp": init_mlp_embedding(16, 1.0, "gelu", 0),
        "identity": IdentityEmbedding(),
    }
    counts = {}
    for name, emb in kinds.items():
        layer = init_conv_layer(emb, 4, 5, embed_dim=16, seed=0)
        n = layer.kernel.size + layer.bias.size
        proj = layer.projection.size
        assert proj == emb.raw_dim * 16
        counts[name] = n
    assert len(set(counts.values())) == 1


def test_sum_vs_mean():
    """The conv takes the mean over N(x), not the paper's literal sum:
    listing every support point twice doubles each |N(x)| and the sum, and
    leaves the output unchanged."""
    layer, query, support, nl, features = random_instance(15)
    layer.bias = np.array([0.5, -2.0])
    out = conv_forward(layer, query, support, nl, features)
    doubled = PointCloud(np.vstack([support.positions] * 2))
    nl2 = ball_query(query, doubled, 1.0)
    assert np.array_equal(nl2.counts, 2 * nl.counts) and nl.counts.max() > 1
    out2 = conv_forward(layer, query, doubled, nl2, np.vstack([features] * 2))
    assert np.allclose(out2, out, rtol=1e-12, atol=1e-12)


def test_make_site_padded_table():
    """Row m of the table starts with the neighbors of query m, in order, and
    every other slot holds 0; slot puts each pair at its entry. Row n of the
    support table starts with the queries of the pairs on support point n,
    in pair order, and every other slot holds 0."""
    rng = np.random.default_rng(21)
    support = PointCloud(rng.uniform(-1, 1, size=(20, 3)))
    query = PointCloud(np.vstack([rng.uniform(-1, 1, size=(9, 3)), [[9.0, 9.0, 9.0]]]))
    nl = ball_query(query, support, 0.8)
    counts = nl.counts
    assert counts.min() == 0 and len(np.unique(counts)) >= 4
    site = make_site(query, support, nl)
    table, slot = site.by_query
    assert table.shape == (len(query), counts.max())
    for m in range(len(query)):
        assert np.array_equal(table[m, :counts[m]], nl.neighbors(m))
        assert np.all(table[m, counts[m]:] == 0)
    assert np.array_equal(table.ravel()[slot], nl.indices)
    qid = nl.query_ids()
    on_support = np.bincount(nl.indices, minlength=len(support))
    assert on_support.min() == 0 and len(np.unique(on_support)) >= 4
    table, slot = site.by_support
    assert table.shape == (len(support), on_support.max())
    for n in range(len(support)):
        assert np.array_equal(table[n, :on_support[n]], qid[nl.indices == n])
        assert np.all(table[n, on_support[n]:] == 0)
    assert np.array_equal(table.ravel()[slot], qid)


@pytest.mark.parametrize("offsets, indices, message", [
    ([0, 1, 2, 3], [0, 1, 4], r"must lie in \[0, 4\), found \[0, 4\]"),
    ([0, 1, 2, 3], [0, -1, 2], r"must lie in \[0, 4\), found \[-1, 2\]"),
    ([0, 1, 2, 3, 4], [0, 1, 2, 3], "is for 4 queries, query cloud has 3 points"),
    ([0, 1, 2], [0, 1], "is for 2 queries, query cloud has 3 points"),
], ids=["index_past_support", "negative_index", "too_many_queries", "too_few_queries"])
def test_make_site_rejects_lists_that_do_not_fit(offsets, indices, message):
    """A neighbor list for another query count, or with an index outside
    the support cloud, is a ShapeError in make_site and so in conv_forward
    and conv_backward."""
    rng = np.random.default_rng(22)
    layer = init_conv_layer(IdentityEmbedding(), 1, 2, 4)
    query, support = PointCloud(rng.uniform(size=(3, 3))), PointCloud(rng.uniform(size=(4, 3)))
    nl = NeighborList(np.array(offsets), np.array(indices))
    features = np.ones((4, 1))
    with pytest.raises(ShapeError, match=message):
        make_site(query, support, nl)
    with pytest.raises(ShapeError, match=message):
        conv_forward(layer, query, support, nl, features)
    with pytest.raises(ShapeError, match=message):
        conv_backward(layer, query, support, nl, features, np.ones((3, 2)))


def dense_conv_all(layer, nl, offsets, features, formula):
    """The paper's formula query by query: every (pair, channel) term formed
    and summed directly, as the benchmark's dense conv oracle does. The
    "sum" formula is the literal sum over N(x); "mean" divides it by |N(x)|."""
    rows = []
    for q in range(nl.num_queries):
        lo, hi = nl.offsets[q], nl.offsets[q + 1]
        out = np.zeros(layer.out_features)
        if hi > lo:
            g = layer.embedding.embed(offsets[lo:hi]) @ layer.projection   # (T, E_c)
            out = np.einsum("tc,coe,te->o", features[nl.indices[lo:hi]], layer.kernel, g)
            if formula == "mean":
                out = out / (hi - lo)
        rows.append(out + layer.bias)
    return np.array(rows)


DENSE_SPECS = {
    "kp_box": EmbeddingSpec("kp:box"),
    "kp_triangular": EmbeddingSpec("kp:triangular"),
    "kp_gaussian": EmbeddingSpec("kp:gaussian"),
    "mlp_relu": EmbeddingSpec("mlp:relu"),
    "mlp_gelu": EmbeddingSpec("mlp:gelu"),
    "mlp_sin": EmbeddingSpec("mlp:sin"),
    "identity": EmbeddingSpec("none"),
}
# 27 kernel points on the 3 x 3 x 3 lattice of cell centers over [-0.6, 0.6]^3
LATTICE3 = np.array(list(itertools.product((-0.4, 0.0, 0.4), repeat=3)))


def dense_embedding(name):
    if name == "kp_gaussian_grid3":
        return KernelPointEmbedding(LATTICE3, 0.4, "gaussian")
    return build_embedding(DENSE_SPECS[name], 1.0, seed=3)


@pytest.mark.parametrize("formula", ["sum", "mean"])
@pytest.mark.parametrize("name", sorted([*DENSE_SPECS, "kp_gaussian_grid3"]))
def test_conv_matches_dense_formula(name, formula):
    """Forward output equals the dense per-pair formula, and every analytic
    gradient matches finite differences of it. Under "sum" the reference is
    the paper's literal sum over N(x): the conv's mean output, less the bias,
    and its upstream gradient are scaled by |N(x)|. The bias enters once per
    query either way, so its gradient is checked under "mean". E_raw runs
    from 3 (identity) to 27 (3x3x3 lattice) against E_c = 16; two queries
    have empty balls."""
    rng = np.random.default_rng(0)
    support = PointCloud(rng.uniform(-1.0, 1.0, size=(14, 3)))
    query = PointCloud(np.vstack([rng.uniform(-0.5, 0.5, size=(5, 3)),
                                  rng.uniform(4.0, 5.0, size=(2, 3))]))
    nl = ball_query(query, support, 1.0)
    empty = nl.counts == 0
    assert empty.sum() == 2 and nl.counts[~empty].min() > 0
    emb = dense_embedding(name)
    layer = init_conv_layer(emb, 2, 3, embed_dim=16, seed=4)
    layer.bias = rng.standard_normal(3)
    features = rng.standard_normal((len(support), 2))
    site = make_site(query, support, nl)
    out, cache = _forward_site(layer, site, features)
    assert np.array_equal(out[empty], np.broadcast_to(layer.bias, (2, 3)))
    scale = np.maximum(nl.counts, 1)[:, None] if formula == "sum" else 1.0
    want = dense_conv_all(layer, nl, site.offsets, features, formula)
    assert np.abs((out - layer.bias) * scale - (want - layer.bias)).max() <= (
        1e-12 * np.abs(want).max())

    v = rng.standard_normal(out.shape)
    g = _backward_site(layer, site, v * scale, cache, with_offsets=True)
    assert set(g.d_embedding_params) == set(emb.params())

    def loss(offsets=site.offsets, f=features):
        return np.array([np.sum(v * dense_conv_all(layer, nl, offsets, f, formula))])

    def fd_param(param):
        saved = param.copy()

        def at(flat):
            param[...] = flat.reshape(param.shape)
            return loss()

        fd = numerics.finite_diff_jacobian(at, saved.ravel(), h=H).reshape(saved.shape)
        param[...] = saved
        return fd

    d_kernel, d_projection = _split_keff(layer, g.d_keff)
    checks = [("kernel", d_kernel, fd_param(layer.kernel)),
              ("projection", d_projection, fd_param(layer.projection))]
    if formula == "mean":
        checks.append(("bias", g.d_bias, fd_param(layer.bias)))
    checks += [(f"emb.{k}", g.d_embedding_params[k], fd_param(p)) for k, p in emb.params().items()]
    fd = numerics.finite_diff_jacobian(lambda flat: loss(f=flat.reshape(features.shape)),
                                       features.ravel(), h=H)
    checks.append(("features", g.d_features, fd.reshape(features.shape)))
    if name == "kp_box":
        assert np.all(g.d_offsets == 0.0)
    else:
        fd = numerics.finite_diff_jacobian(lambda flat: loss(offsets=flat.reshape(-1, 3)),
                                           site.offsets.ravel(), h=H).reshape(-1, 3)
        mask = _kink_mask(emb, site.offsets)
        checks.append(("offsets", g.d_offsets[mask], fd[mask]))
    for pname, analytic, numeric in checks:
        assert _rel_error(analytic, numeric) < TOL_LOCAL, pname


@pytest.mark.parametrize("name", ["kp_gaussian", "mlp_gelu"])
def test_unreferenced_support_gets_zero_feature_gradient(name):
    """A support point no pair references, stored last where a shadow slot
    read off by one would land, gets an exactly zero d_features row."""
    layer, query, support, nl, features = random_instance(16, emb=dense_embedding(name))
    support = PointCloud(np.vstack([support.positions, [[30.0, 0.0, 0.0]]]))
    features = np.vstack([features, np.full((1, features.shape[1]), 5.0)])
    site = make_site(query, support, nl)
    assert site.by_query[0].size > len(nl.indices)             # padded slots exist
    out, cache = _forward_site(layer, site, features)
    up = np.random.default_rng(17).standard_normal(out.shape)
    g = _backward_site(layer, site, up, cache, with_offsets=True)
    assert np.all(g.d_features[-1] == 0.0)
    assert np.any(g.d_features[:-1] != 0.0)


@pytest.mark.parametrize("act", ["relu", "gelu", "sin"])
def test_backward_uses_the_derivative_the_forward_kept(act, monkeypatch):
    """A kept forward hands `gradient_params` the activation derivative it
    formed with e; the embedding gradients equal those recomputed from the
    offsets bit for bit. An inference forward forms no derivative."""
    emb = build_embedding(EmbeddingSpec(f"mlp:{act}", mlp_dim=5), 1.0, seed=3)
    layer, query, support, nl, features = random_instance(18, emb=emb)
    site = make_site(query, support, nl)
    embed_kwargs = []
    original_embed = emb.embed

    def embed_spy(offsets, **kwargs):
        embed_kwargs.append(kwargs)
        return original_embed(offsets, **kwargs)

    monkeypatch.setattr(emb, "embed", embed_spy)
    out, cache = _forward_site(layer, site, features, keep=False)
    assert cache is None and embed_kwargs == [{}]
    kept_out, cache = _forward_site(layer, site, features)
    assert embed_kwargs[1] == {"with_derivative": True}
    assert kept_out.tobytes() == out.tobytes()

    seen = []
    original = emb.gradient_params

    def spy(offsets, upstream, derivative):
        seen.append((upstream, derivative))
        return original(offsets, upstream, derivative)

    monkeypatch.setattr(emb, "gradient_params", spy)
    up = np.random.default_rng(19).standard_normal(out.shape)
    g = _backward_site(layer, site, up, cache)
    ((d_e, derivative),) = seen
    assert derivative is not None
    fresh = original(site.offsets, d_e, numerics.activation_with_derivative(act, emb._pre(site.offsets))[1])
    assert set(g.d_embedding_params) == {"weights", "biases"}
    for k, v in fresh.items():
        assert g.d_embedding_params[k].tobytes() == v.tobytes()


def test_from_pairs_built_once_on_first_backward():
    """`site.from_pairs` sums pair rows onto support points: entry (n, t) is
    1 exactly where pair t's support is n. Neither `make_site` nor a forward
    builds it; the first backward does, and later ones reuse it."""
    layer, query, support, nl, features = random_instance(20)
    site = make_site(query, support, nl)
    assert "from_pairs" not in vars(site)
    out, _ = _forward_site(layer, site, features, keep=False)
    _, cache = _forward_site(layer, site, features)
    assert "from_pairs" not in vars(site)
    up = np.random.default_rng(21).standard_normal(out.shape)
    first = _backward_site(layer, site, up, cache)
    op = vars(site)["from_pairs"]
    assert sparse.issparse(op)
    t = len(nl.indices)
    want = np.zeros((len(support), t))
    want[nl.indices, np.arange(t)] = 1.0
    assert np.array_equal(op.toarray(), want)
    _, cache = _forward_site(layer, site, features)
    again = _backward_site(layer, site, up, cache)
    assert site.from_pairs is op
    assert again.d_features.tobytes() == first.d_features.tobytes()


def support_side_site(neighborhood):
    """A site whose support cloud (8 points) is smaller than its query cloud
    (20 points). Ball query leaves one far query empty and one support point
    unreferenced; "duplicates" lists every pair of the kNN site twice."""
    rng = np.random.default_rng(22)
    support = PointCloud(np.vstack([rng.uniform(-1, 1, size=(7, 3)), [[-9.0, 0.0, 0.0]]]))
    query = PointCloud(np.vstack([rng.uniform(-1, 1, size=(19, 3)), [[9.0, 9.0, 9.0]]]))
    if neighborhood == "ball_query":
        nl = ball_query(query, support, 0.9)
        assert nl.counts[-1] == 0 and len(support) - 1 not in nl.indices
    else:
        nl = knn(query, support, 3)
        if neighborhood == "duplicates":
            nl = NeighborList(2 * nl.offsets, np.repeat(nl.indices, 2))
    site = make_site(query, support, nl)
    assert _support_side(site)
    return site


@pytest.mark.parametrize("neighborhood", ["ball_query", "knn", "duplicates"])
@pytest.mark.parametrize("name", sorted(DENSE_SPECS))
def test_support_side_matches_padded_path(name, neighborhood, monkeypatch):
    """On a site with fewer support than query points the conv sums its pairs
    from the support side; output and every gradient equal those of the
    padded query-side path, run on the same site, to 1e-12 relative."""
    site = support_side_site(neighborhood)
    emb = dense_embedding(name)
    layer = init_conv_layer(emb, 3, 4, embed_dim=16, seed=23)
    layer.bias = np.array([0.5, -1.0, 0.0, 2.0])
    rng = np.random.default_rng(24)
    features = rng.standard_normal((site.num_support, 3))
    up = rng.standard_normal((len(site.counts), 4))

    def run():
        out, cache = _forward_site(layer, site, features)
        return out, _backward_site(layer, site, up, cache, with_offsets=True)

    out, g = run()
    assert "by_query" not in vars(site)
    monkeypatch.setattr(pointconv, "_support_side", lambda s: False)
    ref_out, ref = run()
    assert "by_query" in vars(site)

    def close(a, b):
        return np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)

    assert close(out, ref_out)
    assert set(g.d_embedding_params) == set(ref.d_embedding_params) == set(emb.params())
    for field in ("d_features", "d_keff", "d_bias", "d_offsets"):
        assert close(getattr(g, field), getattr(ref, field)), field
    for k, v in ref.d_embedding_params.items():
        assert close(g.d_embedding_params[k], v), k


def equal_count_site(neighborhood):
    """A query-side site on which every query has the same count: kNN with
    k = 16, or a ball query around 40 far-apart queries with 16 support
    points in each ball."""
    rng = np.random.default_rng(25)
    if neighborhood == "knn":
        support = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        query = PointCloud(rng.uniform(-1, 1, size=(60, 3)))
        nl = knn(query, support, 16)
    else:
        centers = np.arange(40.0)[:, None] * np.array([[10.0, 0.0, 0.0]])
        query = PointCloud(centers)
        support = PointCloud(np.repeat(centers, 16, axis=0) + rng.uniform(-0.5, 0.5, size=(640, 3)))
        nl = ball_query(query, support, 1.0)
    site = make_site(query, support, nl)
    assert not _support_side(site) and nl.counts.min() == nl.counts.max() > 0
    return site


@pytest.mark.parametrize("neighborhood", ["knn", "ball_query"])
@pytest.mark.parametrize("name", sorted(DENSE_SPECS))
def test_equal_count_site_is_its_own_table(name, neighborhood):
    """When every query has the same count the stored pairs are the padded
    table in order: `by_query` is a view of the indices with no slot array,
    and output and every gradient equal, byte for byte, those of the padded
    table and slots `_grouped` builds for the same site."""
    site = equal_count_site(neighborhood)
    table, slot = site.by_query
    assert slot is None and np.shares_memory(table, site.neighbors.indices)
    emb = dense_embedding(name)
    layer = init_conv_layer(emb, 3, 4, embed_dim=16, seed=26)
    layer.bias = np.array([0.5, -1.0, 0.0, 2.0])
    rng = np.random.default_rng(27)
    features = rng.standard_normal((site.num_support, 3))
    up = rng.standard_normal((len(site.counts), 4))

    def run():
        out, cache = _forward_site(layer, site, features)
        return out, _backward_site(layer, site, up, cache, with_offsets=True)

    out, g = run()
    padded = pointconv._grouped(site.neighbors.query_ids(), len(site.counts),
                                site.neighbors.indices)
    assert np.array_equal(padded[0], table)
    assert np.array_equal(padded[1], np.arange(len(site.offsets)))
    vars(site)["by_query"] = padded
    ref_out, ref = run()
    assert out.tobytes() == ref_out.tobytes()
    for field in ("d_features", "d_keff", "d_bias", "d_offsets"):
        assert getattr(g, field).tobytes() == getattr(ref, field).tobytes(), field
    assert set(g.d_embedding_params) == set(ref.d_embedding_params) == set(emb.params())
    for k, v in ref.d_embedding_params.items():
        assert g.d_embedding_params[k].tobytes() == v.tobytes(), k


def _probe_row_zero(array):
    """A copy of `array` whose row 0 is moved far from its value."""
    out = array.copy()
    out[0] = 1e3 * (1.0 + np.arange(array.shape[1]))
    return out


@pytest.mark.parametrize("name", ["kp:gaussian", "mlp:gelu"])
def test_empty_query_slots_read_nothing(name):
    """On a ball-query site with unequal counts the empty slots of the padded
    table read features row 0. Changing that row leaves every value that
    does not depend on it array_equal: the output of each query that does
    not have support point 0 as a neighbor, the offset gradient of that
    query's pairs, d_features and d_bias."""
    rng = np.random.default_rng(28)
    query = PointCloud(np.vstack([rng.uniform(-1, 1, size=(11, 3)), [[9.0, 9.0, 9.0]]]))
    support = PointCloud(np.vstack([query.positions[:1], rng.uniform(-1, 1, size=(29, 3))]))
    nl = ball_query(query, support, 0.7)
    site = make_site(query, support, nl)
    assert not _support_side(site) and site.by_query[1] is not None
    free = np.array([0 not in nl.neighbors(m) for m in range(len(query))])
    assert (free & (nl.counts < nl.counts.max())).sum() >= 3 and not free.all()
    layer = init_conv_layer(build_embedding(EmbeddingSpec(name, mlp_dim=4), 0.7, seed=29),
                            3, 4, embed_dim=8, seed=30)
    features = rng.standard_normal((len(support), 3))
    up = rng.standard_normal((len(query), 4))

    def run(f):
        out, cache = _forward_site(layer, site, f)
        return out, _backward_site(layer, site, up, cache, with_offsets=True)

    out, g = run(features)
    moved_out, moved = run(_probe_row_zero(features))
    assert not np.array_equal(out, moved_out)
    assert np.array_equal(out[free], moved_out[free])
    pairs = free[nl.query_ids()]
    assert np.array_equal(g.d_offsets[pairs], moved.d_offsets[pairs])
    assert np.array_equal(g.d_features, moved.d_features)
    assert np.array_equal(g.d_bias, moved.d_bias)


def test_empty_support_slots_read_nothing():
    """On a support-side site the empty slots of `by_support` read upstream
    row 0. Under an mlp:gelu embedding, changing that row leaves every
    value that does not depend on it array_equal: the output, the offset
    gradient of every pair of another query, and the feature gradient of
    each support point that is not a neighbor of query 0."""
    rng = np.random.default_rng(33)
    support = PointCloud(np.vstack([rng.uniform(-1, 1, size=(7, 3)), [[-9.0, 0.0, 0.0]]]))
    query = PointCloud(np.vstack([support.positions[:1], rng.uniform(-1, 1, size=(19, 3))]))
    nl = ball_query(query, support, 0.9)
    site = make_site(query, support, nl)
    on_support = np.bincount(nl.indices, minlength=len(support))
    assert _support_side(site) and on_support.min() < on_support.max()
    layer = init_conv_layer(build_embedding(EmbeddingSpec("mlp:gelu", mlp_dim=4), 0.9, seed=31),
                            3, 4, embed_dim=8, seed=32)
    features = rng.standard_normal((site.num_support, 3))
    up = rng.standard_normal((len(site.counts), 4))

    def run(upstream):
        out, cache = _forward_site(layer, site, features)
        return out, _backward_site(layer, site, upstream, cache, with_offsets=True)

    out, g = run(up)
    moved_out, moved = run(_probe_row_zero(up))
    assert np.array_equal(out, moved_out)
    pairs = nl.query_ids() != 0
    assert not np.array_equal(g.d_offsets, moved.d_offsets)
    assert np.array_equal(g.d_offsets[pairs], moved.d_offsets[pairs])
    rows = np.setdiff1d(np.arange(site.num_support), nl.neighbors(0))
    assert len(rows) and np.array_equal(g.d_features[rows], moved.d_features[rows])
