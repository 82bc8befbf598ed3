import dataclasses
import gc
import struct
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pne.network as pne_network
from pne import geometry, numerics, pointconv
from pne.embeddings import icosahedron_kernel_points, icosahedron_shell_spacing
from pne.config import ExperimentConfig, NetworkSettings, resolve_experiment
from pne.errors import ConfigError, DegenerateInputError, MissingCacheError, ParamFileError
from pne.geometry import PointCloud, ball_query, cell_average_subsample, knn
from pne.network import (
    ClassificationNetwork,
    EmbeddingSpec,
    Encoder,
    EncoderConfig,
    ConvModule,
    LayerNorm,
    Linear,
    MetaformerBlock,
    NeighborhoodSpec,
    SegmentationNetwork,
    default_input_features,
    load_params,
    save_params,
)


def make_config(**overrides):
    base = dict(
        initial_cell=0.3,
        widths=[4, 6],
        blocks=[1, 1],
        neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
        embedding=EmbeddingSpec("kp:gaussian"),
        embed_dim=4,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def random_cloud(n=60, seed=0, labeled=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n) if labeled else None
    return PointCloud(rng.uniform(-1, 1, size=(n, 3)), labels=labels)


def test_layernorm_statistics():
    rng = np.random.default_rng(1)
    ln = LayerNorm(8)
    x = rng.standard_normal((10, 8)) * 3 + 5
    y = ln.forward(x)
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)


def test_linear_forward():
    lin = Linear(np.array([[2.0], [0.0]]), np.array([1.0]))
    out = lin.forward(np.array([[3.0, 5.0]]))
    assert out[0, 0] == pytest.approx(7.0)


def test_drop_path_zero_is_identity():
    rng = np.random.default_rng(2)
    cfg = make_config()
    enc = Encoder(cfg, seed=0)
    block = enc.levels[0][0]
    assert block.drop_path_rate == 0.0
    cloud = random_cloud()
    prep = enc.prepare(cloud)
    x = rng.standard_normal((len(prep.clouds[0]), 4))
    out_eval = block.forward(prep, x, training=False)
    out_train = block.forward(prep, x, training=True, rng=rng)
    assert np.array_equal(out_eval, out_train)


def test_drop_path_branch_unbiased():
    """The per-branch keep factor is 0 or 1/(1-rate) with unit expectation,
    and a surviving branch reproduces the eval residual scaled accordingly."""
    cfg = make_config(drop_path_max=0.5, widths=[4], blocks=[2])
    enc = Encoder(cfg, seed=3)
    block = enc.levels[0][1]  # deepest block gets the max rate
    assert block.drop_path_rate == pytest.approx(0.5)

    rng = np.random.default_rng(5)
    draws = np.array([block._draw_keep(True, rng) for _ in range(10000)])
    assert set(np.unique(draws)) == {0.0, 2.0}
    se = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean() - 1.0) < 3 * se
    assert block._draw_keep(False, rng) == 1.0

    # a draw that keeps both branches matches eval with residuals doubled
    cloud = random_cloud(40, seed=4)
    prep = enc.prepare(cloud)
    x = rng.standard_normal((len(prep.clouds[0]), 4))
    for seed in range(50):
        r = np.random.default_rng(seed)
        out = block.forward(prep, x, training=True, rng=r)
        k1, k2, _ = block._cache
        if k1 == 2.0 and k2 == 0.0:
            mixed = x + 2.0 * block.mixer.forward(prep, block.norm1.forward(x))
            assert np.allclose(out, mixed)
            break
    else:
        pytest.fail("never drew keep-mixer/drop-mlp in 50 tries")


def test_drop_path_without_rng_names_the_site():
    """A training forward that draws drop path but has no rng raises a
    ValueError naming the block's site; inference draws nothing."""
    cfg = make_config(drop_path_max=0.5, widths=[4], blocks=[2])
    net = ClassificationNetwork(cfg, num_classes=3, seed=3)
    prep = net.prepare(random_cloud(40, seed=4))
    with pytest.raises(ValueError, match="site 'self0'.*needs rng"):
        net.forward(prep, training=True)
    assert np.all(np.isfinite(net.forward(prep)))


def test_encoder_level_counts_match_bruteforce():
    cloud = random_cloud(200, seed=6)
    cfg = make_config(widths=[4, 6, 8], blocks=[1, 1, 1], initial_cell=0.25)
    enc = Encoder(cfg, seed=0)
    prep = enc.prepare(cloud)
    cur = cloud.positions
    for lvl in range(3):
        cell = 0.25 * 2.0**lvl
        cells = {tuple(c) for c in np.floor(cur / cell).astype(int)}
        assert len(prep.clouds[lvl]) == len(cells)
        cur = prep.clouds[lvl].positions


class CountedTree(cKDTree):
    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        CountedTree.built += 1


def reachable(root):
    """Every object reachable from `root` through gc referents, not
    descending into types and modules."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, type(gc))):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


@pytest.mark.parametrize("kind", ["ball_query", "knn"])
@pytest.mark.parametrize("network", [ClassificationNetwork, SegmentationNetwork])
def test_prepare_builds_one_tree_per_level(monkeypatch, site_clouds, kind, network):
    monkeypatch.setattr(geometry, "cKDTree", CountedTree)
    monkeypatch.setattr(CountedTree, "built", 0)
    cfg = make_config(widths=[4, 6, 8], blocks=[1, 1, 1], initial_cell=0.2,
                      neighborhood=NeighborhoodSpec(kind, k=5, scale=2.0))
    net = network(cfg, num_classes=3, seed=0)
    prep = net.prepare(random_cloud(300, seed=8))
    assert CountedTree.built == 3
    assert not [o for o in reachable(prep) if isinstance(o, cKDTree)]
    if network is SegmentationNetwork:
        assert prep.sites["direct1"] is prep.sites["up0"]
        assert prep.sites["direct2"] is not prep.sites["up1"]
    # every site holds the lists a search with trees of its own gives
    for name, site in prep.sites.items():
        query, support, level = site_clouds(name, prep.clouds)
        want = (ball_query(query, support, 2.0 * cfg.level_cell(level)) if kind == "ball_query"
                else knn(query, support, 5))
        assert np.array_equal(site.neighbors.offsets, want.offsets)
        assert np.array_equal(site.neighbors.indices, want.indices)


@pytest.mark.parametrize("blocks", [[1, 1, 1], [0, 1, 2]], ids=["blocks111", "blocks012"])
@pytest.mark.parametrize("kind", ["ball_query", "knn"])
@pytest.mark.parametrize("network", [ClassificationNetwork, SegmentationNetwork])
def test_prepare_builds_the_sites_its_convs_declare(monkeypatch, network, kind, blocks):
    """`prepare` files a site under every site name a conv of the network
    declares and under no other, so a level without blocks has no self
    site, and it still builds one KD-tree per level."""
    monkeypatch.setattr(geometry, "cKDTree", CountedTree)
    monkeypatch.setattr(CountedTree, "built", 0)
    cfg = make_config(widths=[4, 6, 8], blocks=blocks, initial_cell=0.2,
                      neighborhood=NeighborhoodSpec(kind, k=5, scale=2.0))
    net = network(cfg, num_classes=3, seed=0)
    prep = net.prepare(random_cloud(300, seed=8))
    declared = {m.site_name for m in _modules(net) if isinstance(m, ConvModule)}
    assert set(prep.sites) == declared
    assert ("self0" in prep.sites) == (blocks[0] > 0)
    assert CountedTree.built == 3


def test_default_input_features():
    cloud = random_cloud(30, seed=7)
    f = default_input_features(cloud)
    assert f.shape == (30, 2)
    assert np.all(f[:, 0] == 1.0)
    assert f[:, 1].min() == 0.0


def test_empty_cloud_rejected():
    enc = Encoder(make_config(), seed=0)
    with pytest.raises(DegenerateInputError):
        enc.prepare(PointCloud(np.zeros((0, 3))))


def test_cloud_whose_extent_overflows_is_rejected_without_a_warning():
    """Heights from -1e308 to 1e308 would overflow the height feature:
    prepare raises first, naming the axis and its range."""
    positions = np.array([[0.0, 0.0, -1e308], [0.0, 0.0, 1e308], [1e308, 0.0, 0.0]])
    enc = Encoder(make_config(), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match=r"axis z, from -1e\+308 to 1e\+308"):
            enc.prepare(PointCloud(positions))


def test_classification_logits_shape_and_determinism():
    cloud = random_cloud(80, seed=8)
    net = ClassificationNetwork(make_config(), num_classes=5, seed=9)
    prep = net.prepare(cloud)
    a = net.forward(prep, training=False)
    b = net.forward(prep, training=False)
    assert a.shape == (1, 5)
    assert np.array_equal(a, b)


def test_translation_invariance_with_aligned_cells():
    """Shifting the cloud by an exact multiple of every pyramid cell leaves
    the logits unchanged within 1e-8 (embeddings see only offsets)."""
    cloud = random_cloud(80, seed=10)
    cfg = make_config(initial_cell=0.25)
    net = ClassificationNetwork(cfg, num_classes=3, seed=11)
    base = net.forward(net.prepare(cloud), training=False)
    # shift by the coarsest cell (a multiple of every finer cell)
    shift = np.array([0.5, -1.0, 2.0])  # multiples of 0.25 and 0.5
    moved = PointCloud(cloud.positions + shift)
    out = net.forward(net.prepare(moved), training=False)
    assert np.abs(base - out).max() < 1e-8


def test_single_point_pooling_identity():
    cloud = PointCloud(np.array([[0.1, 0.1, 0.1]]))
    net = ClassificationNetwork(make_config(widths=[4], blocks=[1]),
                                num_classes=2, seed=12)
    prep = net.prepare(cloud)
    logits = net.forward(prep, training=True)
    feats = net._cache[-1]
    manual = net.head.forward(feats)
    assert np.allclose(logits, manual)


def test_zero_head_weights():
    cloud = random_cloud(40, seed=13)
    net = ClassificationNetwork(make_config(), num_classes=3, seed=14)
    net.head.weights[...] = 0.0
    net.head.bias[...] = np.array([1.0, 2.0, 3.0])
    logits = net.forward(net.prepare(cloud), training=False)
    assert np.allclose(logits, [[1.0, 2.0, 3.0]])


def test_segmentation_logits_per_level0_point():
    cloud = random_cloud(100, seed=15, labeled=True)
    net = SegmentationNetwork(make_config(), num_classes=4, seed=16)
    prep = net.prepare(cloud)
    logits = net.forward(prep, training=False)
    assert logits.shape == (len(prep.clouds[0]), 4)
    # targets: majority labels on the first down-scaled cloud
    assert prep.clouds[0].labels is not None


def test_segmentation_level0_labels_majority():
    cloud = random_cloud(100, seed=17, labeled=True)
    sub = cell_average_subsample(
        PointCloud(cloud.positions, labels=cloud.labels), 0.3)
    net = SegmentationNetwork(make_config(), num_classes=4, seed=18)
    prep = net.prepare(cloud)
    assert np.array_equal(prep.clouds[0].labels, sub.labels)


LINEAR = ["weights", "bias"]
NORM = ["scale", "shift"]
CONV = ["kernel", "projection", "bias", "emb.weights", "emb.biases"]
BLOCK = ([f"norm1.{n}" for n in NORM] + [f"mixer.{n}" for n in CONV] + [f"norm2.{n}" for n in NORM]
         + [f"fc1.{n}" for n in LINEAR] + [f"fc2.{n}" for n in LINEAR])


def _under(prefix, names):
    return [f"{prefix}.{n}" for n in names]


# the model.bin tensor order of a 3-level net with blocks [2, 1, 2]:
# every encoder block comes before the first down transition
ENCODER_NAMES = (
    _under("init", LINEAR)
    + [n for b in ("l0.b0", "l0.b1", "l1.b0", "l2.b0", "l2.b1") for n in _under(b, BLOCK)]
    + _under("down0", CONV) + _under("down1", CONV)
)
DECODER_NAMES = (
    _under("skip0", LINEAR) + _under("skip1", LINEAR) + _under("skip2", LINEAR)
    + _under("up0", CONV) + _under("up1", CONV)
    + _under("direct0", LINEAR) + _under("direct1", CONV) + _under("direct2", CONV)
    + _under("final", LINEAR)
)
NETWORKS = [
    (ClassificationNetwork, _under("enc", ENCODER_NAMES) + _under("head", LINEAR)),
    (SegmentationNetwork, _under("enc", ENCODER_NAMES) + _under("dec", DECODER_NAMES)),
]


def tree_config():
    return make_config(widths=[4, 6, 8], blocks=[2, 1, 2],
                       embedding=EmbeddingSpec("mlp:gelu", mlp_dim=4))


def test_params_and_grads_aligned():
    cloud = random_cloud(100, seed=19, labeled=True)
    for network, names in NETWORKS:
        net = network(tree_config(), num_classes=3, seed=19)
        params = net.params()
        grads = net.grads()
        assert list(params) == names
        assert list(grads) == names
        for k in params:
            assert params[k].shape == grads[k].shape
        # live arrays: the optimizer and the loaders write through these
        assert params["enc.init.weights"] is net.encoder.init_linear.weights
        mixer = net.encoder.levels[2][1].mixer
        assert params["enc.l2.b1.mixer.emb.biases"] is mixer.layer.embedding.biases
        assert grads["enc.l2.b1.mixer.emb.biases"] is mixer.g_embedding["biases"]
        assert all(a is b for a, b in zip(net.params().values(), params.values()))
        prep = net.prepare(cloud)
        net.backward(np.ones_like(net.forward(prep, training=True)))
        # conv gradients settle at the walk, so read them through one
        assert all(np.any(g != 0.0) for g in net.grads().values())
        net.zero_grads()
        assert all(np.all(g == 0.0) for g in grads.values())


def _modules(module):
    yield module
    for _, child in module.children():
        yield from _modules(child)


SETTLE_CASES = [(network, emb) for network, _ in NETWORKS for emb in ("kp:gaussian", "mlp:gelu")]


def settle_setup(network, embedding, monkeypatch):
    """A small network, three prepared clouds of different sizes, its convs,
    and the d_K_eff each conv's backward returned, by id of the conv's
    layer, copied as it was returned."""
    net = network(make_config(embedding=EmbeddingSpec(embedding, mlp_dim=4)), num_classes=3, seed=31)
    preps = [net.prepare(random_cloud(40 + 10 * i, seed=32 + i)) for i in range(3)]
    seen = {}
    original = pne_network._backward_site

    def spy(layer, site, upstream, cache, **kwargs):
        g = original(layer, site, upstream, cache, **kwargs)
        seen.setdefault(id(layer), []).append(g.d_keff.copy())
        return g

    monkeypatch.setattr(pne_network, "_backward_site", spy)
    convs = [m for m in _modules(net) if isinstance(m, ConvModule)]
    return net, preps, convs, seen


def backward_on(net, prep, seed, scale=1.0):
    logits = net.forward(prep, training=True)
    net.backward(np.random.default_rng(seed).standard_normal(logits.shape) * scale)


def snapshot(arrays):
    return {k: v.tobytes() for k, v in arrays.items()}


@pytest.mark.parametrize("network,embedding", SETTLE_CASES)
def test_one_backward_settles_at_the_next_walk(network, embedding, monkeypatch):
    """After one backward, the first walk, even one through `params()`,
    splits each conv's d_K_eff: its kernel and projection gradients are
    `_split_keff` of what that conv's `_backward_site` returned, byte for
    byte. A second walk changes nothing, and the walks return the same live
    arrays as before the backward."""
    net, preps, convs, seen = settle_setup(network, embedding, monkeypatch)
    params, grads = net.params(), net.grads()
    backward_on(net, preps[0], seed=33)
    assert all(conv._pending is not None for conv in convs)
    assert all(a is b for a, b in zip(net.params().values(), params.values()))
    for conv in convs:
        (d_keff,) = seen[id(conv.layer)]
        d_kernel, d_projection = pointconv._split_keff(conv.layer, d_keff)
        assert conv._pending is None
        assert conv.g_kernel.tobytes() == d_kernel.tobytes()
        assert conv.g_projection.tobytes() == d_projection.tobytes()
    before = snapshot(grads)
    assert all(a is b for a, b in zip(net.grads().values(), grads.values()))
    assert snapshot(grads) == before


@pytest.mark.parametrize("network,embedding", SETTLE_CASES)
def test_a_step_splits_the_summed_keff_gradient_once(network, embedding, monkeypatch):
    """Over three backwards, as in a training step, each conv's kernel and
    projection gradients are the split of the summed d_K_eff, byte for
    byte, and lie within 1e-13 relative of the sum of per-cloud splits. A
    second `grads()` leaves every byte as it was."""
    net, preps, convs, seen = settle_setup(network, embedding, monkeypatch)
    net.zero_grads()
    params, grads = net.params(), net.grads()
    for i, prep in enumerate(preps):
        backward_on(net, prep, seed=34 + i, scale=1.0 / len(preps))
    assert all(a is b for a, b in zip(net.grads().values(), grads.values()))
    assert all(a is b for a, b in zip(net.params().values(), params.values()))
    for conv in convs:
        d_keffs = seen[id(conv.layer)]
        assert len(d_keffs) == 3
        d_kernel, d_projection = pointconv._split_keff(conv.layer, d_keffs[0] + d_keffs[1] + d_keffs[2])
        assert conv.g_kernel.tobytes() == d_kernel.tobytes()
        assert conv.g_projection.tobytes() == d_projection.tobytes()
        splits = [pointconv._split_keff(conv.layer, d) for d in d_keffs]
        for got, part in ((conv.g_kernel, 0), (conv.g_projection, 1)):
            ref = splits[0][part] + splits[1][part] + splits[2][part]
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    before = snapshot(grads)
    net.grads()
    assert snapshot(grads) == before


@pytest.mark.parametrize("network,embedding", SETTLE_CASES)
def test_zero_grads_drops_a_pending_sum(network, embedding, monkeypatch):
    """`zero_grads()` drops a pending d_K_eff without splitting it: every
    gradient reads zero, and the next step's gradients equal, byte for
    byte, those of a fresh model taking the same step."""
    net, preps, convs, _ = settle_setup(network, embedding, monkeypatch)
    backward_on(net, preps[1], seed=37)
    splits = []
    original = pne_network._split_keff
    monkeypatch.setattr(pne_network, "_split_keff", lambda *a: splits.append(a) or original(*a))
    net.zero_grads()
    assert splits == []
    assert all(conv._pending is None for conv in convs)
    assert all(np.all(g == 0.0) for g in net.grads().values())
    backward_on(net, preps[0], seed=38)
    fresh = network(make_config(embedding=EmbeddingSpec(embedding, mlp_dim=4)), num_classes=3, seed=31)
    backward_on(fresh, preps[0], seed=38)
    assert snapshot(net.grads()) == snapshot(fresh.grads())


def keff_counter(monkeypatch):
    """Calls of `_effective_kernel`, by id of the layer, through network
    and pointconv alike."""
    counts = {}
    original = pointconv._effective_kernel

    def spy(layer):
        counts[id(layer)] = counts.get(id(layer), 0) + 1
        return original(layer)

    monkeypatch.setattr(pointconv, "_effective_kernel", spy)
    monkeypatch.setattr(pne_network, "_effective_kernel", spy)
    return counts


@pytest.mark.parametrize("network,embedding", SETTLE_CASES)
@pytest.mark.parametrize("walk", ["params", "grads", "zero_grads"])
def test_a_step_forms_each_keff_once(network, embedding, walk, monkeypatch):
    """The 16 training forwards and backwards of a step between two walks
    form each conv's K_eff once, and every walk drops it, so the next step
    forms it again. An inference forward forms it on every call, in a step
    too, and leaves the kept one as it was."""
    net, preps, convs, _ = settle_setup(network, embedding, monkeypatch)
    counts = keff_counter(monkeypatch)
    net.zero_grads()
    for i in range(16):
        backward_on(net, preps[i % len(preps)], seed=40 + i)
    assert [counts[id(c.layer)] for c in convs] == [1] * len(convs)
    kept = [c._keff for c in convs]
    net.forward(preps[0])
    net.forward(preps[1])
    assert [counts[id(c.layer)] for c in convs] == [3] * len(convs)
    assert all(c._keff is k for c, k in zip(convs, kept))
    getattr(net, walk)()
    assert all(c._keff is None for c in convs)
    backward_on(net, preps[2], seed=60)
    assert [counts[id(c.layer)] for c in convs] == [4] * len(convs)


@pytest.mark.parametrize("network,embedding", SETTLE_CASES)
def test_a_parameter_written_after_the_walk_reaches_the_next_forward(network, embedding,
                                                                      monkeypatch):
    """A step writes every parameter through the `params()` arrays after
    `grads()`, as the optimizer does. The next training forward reads the
    written values: its logits equal, byte for byte, those of a fresh model
    loaded with the same parameters."""
    net, preps, _, _ = settle_setup(network, embedding, monkeypatch)
    params = net.params()
    net.zero_grads()
    backward_on(net, preps[0], seed=61)
    for p, g in zip(params.values(), net.grads().values()):
        p -= 0.5 * g + 0.01
    logits = net.forward(preps[1], training=True)
    fresh = network(make_config(embedding=EmbeddingSpec(embedding, mlp_dim=4)), num_classes=3, seed=5)
    for name, p in fresh.params().items():
        p[...] = params[name]
    assert logits.tobytes() == fresh.forward(preps[1], training=True).tobytes()


# the module kinds whose backward reads a forward cache
CACHING = (Linear, LayerNorm, ConvModule, MetaformerBlock, ClassificationNetwork)


def test_caches_live_from_training_forward_to_backward():
    """An inference forward leaves no module holding a cache, not even one
    left by an earlier training forward; a training forward fills every
    cache backward reads, and backward releases all of them. Only a
    backward builds the sites' `from_pairs` operators, and only on the
    query-side sites, the ones that read it."""
    cloud = random_cloud(100, seed=21, labeled=True)
    for network, _ in NETWORKS:
        net = network(tree_config(), num_classes=3, seed=21)
        prep = net.prepare(cloud)
        modules = list(_modules(net))
        assert sum(isinstance(m, ConvModule) for m in modules) >= 7
        net.forward(prep)
        assert all(m._cache is None for m in modules)
        net.forward(prep, training=True)
        assert all(m._cache is not None for m in modules if isinstance(m, CACHING))
        net.forward(prep, training=False)
        assert all(m._cache is None for m in modules)
        assert not any("from_pairs" in vars(site) for site in prep.sites.values())
        net.backward(np.ones_like(net.forward(prep, training=True)))
        assert all(m._cache is None for m in modules)
        assert all(("from_pairs" in vars(site)) != pointconv._support_side(site)
                   for site in prep.sites.values())


def test_block_backward_uses_the_gelu_derivative_the_forward_kept(monkeypatch):
    """A training forward keeps the block MLP's GELU derivative; backward
    from it gives the same gradients, byte for byte, as a backward whose
    derivative is recomputed from the hidden pre-activation. An inference
    forward forms no derivative and keeps nothing."""
    cloud = random_cloud(80, seed=23)
    runs = []
    for recompute in (False, True):
        net = ClassificationNetwork(tree_config(), num_classes=3, seed=23)
        prep = net.prepare(cloud)
        block = net.encoder.levels[0][0]
        x = np.random.default_rng(23).standard_normal((len(prep.clouds[0]), 4))
        out = block.forward(prep, x, training=True)
        if recompute:
            k1, k2, _ = block._cache
            z = block.fc1._cache @ block.fc1.weights + block.fc1.bias
            block._cache = (k1, k2, numerics.activation_with_derivative(numerics.GELU, z)[1])
        dx = block.backward(np.cos(out))
        runs.append([dx.tobytes()] + [g.tobytes() for g in block.grads().values()])
    assert runs[0] == runs[1]

    def forbidden(*args):
        raise AssertionError("inference formed an activation derivative")

    monkeypatch.setattr(numerics, "activation_with_derivative", forbidden)
    block.forward(prep, x)
    assert all(m._cache is None for m in _modules(block))


def test_backward_without_cache_raises_typed_error():
    cloud = random_cloud(60, seed=22)
    net = ClassificationNetwork(tree_config(), num_classes=3, seed=22)
    prep = net.prepare(cloud)
    d_logits = np.ones((1, 3))
    net.forward(prep)
    with pytest.raises(MissingCacheError, match=r"ClassificationNetwork.*forward\(training=True\)"):
        net.backward(d_logits)
    net.forward(prep, training=True)
    net.backward(d_logits)
    with pytest.raises(MissingCacheError, match=r"ClassificationNetwork.*forward\(training=True\)"):
        net.backward(d_logits)
    conv = net.encoder.transitions[0]
    with pytest.raises(MissingCacheError, match=r"ConvModule at site 'down0'"):
        conv.backward(np.ones((len(prep.clouds[1]), 6)))


def test_save_load_roundtrip(tmp_path):
    for network, names in NETWORKS:
        params = network(tree_config(), num_classes=3, seed=20).params()
        path = tmp_path / f"{network.__name__}.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert list(loaded) == names
        for k in params:
            assert np.array_equal(loaded[k], params[k])


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope")
    with pytest.raises(ValueError):
        load_params(path)


def _saved_file(tmp_path, params):
    path = tmp_path / "model.bin"
    save_params(path, params)
    return path


def test_load_rejects_truncated_file(tmp_path):
    path = _saved_file(tmp_path, {"a": np.ones((2, 3)), "b": np.zeros(4)})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParamFileError, match="tensor 'b': file truncated") as info:
        load_params(path)
    assert info.value.tensor == "b"


def test_load_rejects_trailing_bytes(tmp_path):
    path = _saved_file(tmp_path, {"a": np.ones((2, 3))})
    path.write_bytes(path.read_bytes() + b"\0" * 3)
    with pytest.raises(ParamFileError, match="3 trailing bytes"):
        load_params(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_values(tmp_path, bad):
    path = _saved_file(tmp_path, {"a": np.ones(2), "b": np.array([1.0, bad])})
    with pytest.raises(ParamFileError, match="tensor 'b': non-finite") as info:
        load_params(path)
    assert info.value.tensor == "b"


@pytest.mark.parametrize("shape", [(0, 2**62), (0, 2**64 - 1), (2**32, 2**32, 0)])
def test_load_rejects_a_shape_numpy_cannot_allocate(tmp_path, shape):
    """A shape with a zero dimension holds no bytes and passes the size
    check; numpy still cannot make an array of it."""
    path = _saved_file(tmp_path, {"a": np.ones(2), "b": np.zeros((0, 1, 0))})
    data = path.read_bytes()
    table_end = data.index(b"b") + 1
    shape_bytes = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
    path.write_bytes(data[:table_end] + shape_bytes + data[table_end + 1 + 24:])
    with pytest.raises(ParamFileError, match=r"tensor 'b': shape \(.*\) cannot be allocated") as info:
        load_params(path)
    assert info.value.tensor == "b"


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(widths=[4], blocks=[1, 1])
    with pytest.raises(ValueError):
        make_config(initial_cell=0.0)
    with pytest.raises(ValueError):
        MetaformerBlock(None, 4, np.random.default_rng(0), drop_path_rate=1.0)


@pytest.mark.parametrize("cell", [float("nan"), float("inf")])
def test_config_rejects_a_non_finite_initial_cell(cell):
    """A NaN or infinite initial cell fails at construction, before any
    kernel layout is computed from it, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^network.initial_cell: "):
            make_config(initial_cell=cell)


@pytest.mark.parametrize("widths, blocks, field", [
    ([], [], "widths"),
    ([0, 4], [1, 1], "widths"),
    ([4, 6], [-1, 1], "blocks"),
])
def test_config_rejects_degenerate_pyramid(widths, blocks, field):
    with pytest.raises(ValueError, match=f"^network.{field}:"):
        make_config(widths=widths, blocks=blocks)


@pytest.mark.parametrize("key, value, why", [
    ("drop_path_max", 7.0, r"must be in \[0, 1\), got 7.0"),
    ("drop_path_max", float("nan"), r"must be in \[0, 1\), got nan"),
    ("drop_path_max", 1.0, r"must be in \[0, 1\), got 1.0"),
    ("embed_dim", 0, "must be >= 1, got 0"),
])
def test_config_checks_each_setting_as_a_config_file_does(key, value, why):
    """A one-block network built with a setting its config key would reject
    fails at construction with the config file's error, naming the key."""
    with pytest.raises(ConfigError, match=f"^network.{key}: {why}$"):
        make_config(widths=[8], blocks=[1], **{key: value})
    with pytest.raises(ConfigError, match=f"^network.{key}: {why}$"):
        resolve_experiment({"network": {"widths": "8", "blocks": "1", key: str(value)}})


def test_config_takes_the_experiment_defaults():
    """An encoder config built with only its embedding and neighborhood has
    the network shape of the default experiment."""
    cfg = EncoderConfig(neighborhood=NeighborhoodSpec("knn"), embedding=EmbeddingSpec("none"))
    defaults = ExperimentConfig()
    for f in dataclasses.fields(NetworkSettings):
        assert getattr(cfg, f.name) == getattr(defaults, f.name)


@pytest.mark.parametrize("spec, name", [
    (NeighborhoodSpec, "ball"),
    (NeighborhoodSpec, "cube"),
    (EmbeddingSpec, "kp:boxx"),
    (EmbeddingSpec, "identity"),
    (EmbeddingSpec, "kp"),
])
def test_specs_reject_unknown_names(spec, name):
    with pytest.raises(ValueError, match=f"unknown .*{name!r}"):
        spec(name)


def test_embedding_spec_label():
    assert EmbeddingSpec("kp:box").label() == ("kp", "box")
    assert EmbeddingSpec("mlp:sin").label() == ("mlp", "sin")
    assert EmbeddingSpec("none").label() == ("none", "")


def test_search_reads_only_its_own_parameter():
    """kNN ignores `scale` and ball query ignores `k`, in the search and in
    the receptive radius."""
    cloud = random_cloud(80, seed=25)
    for scale in (0.5, 9.0):
        spec = NeighborhoodSpec("knn", k=4, scale=scale)
        assert np.array_equal(spec.search(cloud, cloud, 0.3).indices, knn(cloud, cloud, 4).indices)
        assert spec.receptive_radius(0.3) == 2.0 * (1.5 * 0.3)
    for k in (1, 50):
        spec = NeighborhoodSpec("ball_query", k=k, scale=2.0)
        got, want = spec.search(cloud, cloud, 0.3), ball_query(cloud, cloud, 2.0 * 0.3)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.indices, want.indices)
        assert spec.receptive_radius(0.3) == 2.0 * 0.3


@pytest.mark.parametrize("neighborhood, shell_at", [
    (NeighborhoodSpec("knn", k=5), lambda cell: 1.2 * (1.5 * cell)),
    (NeighborhoodSpec("ball_query", scale=2.5), lambda cell: 0.6 * (2.5 * cell)),
], ids=["knn", "ball_query"])
def test_kernel_layout_per_conv(neighborhood, shell_at):
    """Each conv's kernel points and sigma, bit for bit: the shell sits at
    1.2 r' for kNN, with r' = 1.5 cells the estimated average neighbor
    distance, and at 0.6 r for ball query, with r = scale cells, where the
    cell is that of the level that sets the site's radius."""
    cfg = make_config(widths=[4, 6, 8], blocks=[1, 1, 1], initial_cell=0.2,
                      neighborhood=neighborhood,
                      embedding=EmbeddingSpec("kp:triangular", sigma_factor=0.7))
    net = SegmentationNetwork(cfg, num_classes=3, seed=0)
    convs = [m for m in _modules(net) if isinstance(m, ConvModule)]
    assert sorted(c.site_name for c in convs) == [
        "direct1", "direct2", "down0", "down1", "self0", "self1", "self2", "up0", "up1"]
    for conv in convs:
        kind, lvl = conv.site_name[:-1], int(conv.site_name[-1])
        shell = shell_at(cfg.level_cell(lvl + 1 if kind in ("down", "up") else lvl))
        emb = conv.layer.embedding
        assert np.array_equal(emb.kernel_points, icosahedron_kernel_points(shell))
        assert emb.sigma == 0.7 * icosahedron_shell_spacing(shell)


def test_knn_neighborhood_variant():
    cloud = random_cloud(60, seed=21)
    cfg = make_config(neighborhood=NeighborhoodSpec("knn", k=4))
    net = ClassificationNetwork(cfg, num_classes=3, seed=22)
    logits = net.forward(net.prepare(cloud), training=False)
    assert logits.shape == (1, 3)


@pytest.mark.parametrize("spec", [
    EmbeddingSpec("kp:box"),
    EmbeddingSpec("kp:triangular"),
    EmbeddingSpec("kp:gaussian", sigma_factor=0.5),
    EmbeddingSpec("mlp:relu", mlp_dim=5),
    EmbeddingSpec("mlp:sin", mlp_dim=5),
    EmbeddingSpec("none"),
])
def test_all_embedding_specs_run(spec):
    cloud = random_cloud(50, seed=23)
    net = ClassificationNetwork(make_config(embedding=spec), num_classes=2, seed=24)
    logits = net.forward(net.prepare(cloud), training=False)
    assert np.all(np.isfinite(logits))


@pytest.mark.parametrize("neighborhood", [NeighborhoodSpec("ball_query", scale=2.0),
                                          NeighborhoodSpec("knn", k=5)], ids=["ball_query", "knn"])
def test_decoder_sites_contract_from_the_support_side(neighborhood, monkeypatch):
    """In a 3-level segmentation network the convs sum their pairs from the
    support side on exactly the up and direct sites, whose support is a
    coarser level than their query, and from the query side on the rest. A
    training forward and backward build no padded table, slot map or
    `from_pairs` on a support-side site."""
    cfg = make_config(widths=[4, 6, 8], blocks=[1, 1, 1], neighborhood=neighborhood,
                      embedding=EmbeddingSpec("mlp:gelu", mlp_dim=4))
    net = SegmentationNetwork(cfg, num_classes=3, seed=25)
    prep = net.prepare(random_cloud(120, seed=25, labeled=True))
    assert len(prep.clouds[0]) > len(prep.clouds[1]) > len(prep.clouds[2])
    seen = {}
    for side in ("_support_forward", "_padded_forward", "_support_backward", "_padded_backward"):
        def spy(site, *args, original=getattr(pointconv, side), side=side):
            seen.setdefault(side, set()).add(id(site))
            return original(site, *args)
        monkeypatch.setattr(pointconv, side, spy)
    net.backward(np.cos(net.forward(prep, training=True)))

    def names(side):
        return {name for name, site in prep.sites.items() if id(site) in seen[side]}

    support = {"up0", "up1", "direct1", "direct2"}
    assert names("_support_forward") == names("_support_backward") == support
    assert names("_padded_forward") == names("_padded_backward") == set(prep.sites) - support
    for name in support:
        assert not {"by_query", "from_pairs"} & set(vars(prep.sites[name])), name


@pytest.mark.parametrize("embedding", ["kp:gaussian", "none", "mlp:gelu"])
def test_up0_and_direct1_embed_their_site_once(embedding, monkeypatch):
    """up0 and direct1 convolve one site with embeddings sized for level 1.
    A fixed embedding is one object in both, and a forward embeds the site
    once; no memo is left when the forward returns, and logits and
    gradients equal, byte for byte, those of a decoder that embeds the site
    twice. A learnable embedding is not shared."""
    cfg = make_config(widths=[4, 6, 8], blocks=[1, 1, 1],
                      embedding=EmbeddingSpec(embedding, mlp_dim=4))
    net = SegmentationNetwork(cfg, num_classes=3, seed=26)
    prep = net.prepare(random_cloud(120, seed=26, labeled=True))
    dec = net.decoder
    up0, direct1 = dec.upconvs[0], dec.directs[0]
    shared = embedding != "mlp:gelu"
    assert (up0.layer.embedding is direct1.layer.embedding) == shared
    assert prep.sites["up0"] is prep.sites["direct1"]
    calls = []
    cls = type(up0.layer.embedding)
    original = cls.embed

    def counting_embed(self, offsets, **kwargs):
        calls.append(len(offsets))
        return original(self, offsets, **kwargs)

    monkeypatch.setattr(cls, "embed", counting_embed)

    def run():
        calls.clear()
        logits = net.forward(prep)
        inference_calls = len(calls)
        net.zero_grads()
        kept = net.forward(prep, training=True)
        assert up0.memo is None and direct1.memo is None
        net.backward(np.cos(kept))
        grads = b"".join(g.tobytes() for g in net.grads().values())
        return logits.tobytes() + kept.tobytes(), grads, inference_calls

    out, grads, calls_shared = run()
    assert dec._sharing == ((up0, direct1) if shared else ())
    dec._sharing = ()
    out_twice, grads_twice, calls_twice = run()
    assert calls_twice - calls_shared == int(shared)
    assert out == out_twice and grads == grads_twice


def test_load_rejects_a_name_that_is_not_utf8(tmp_path):
    path = _saved_file(tmp_path, {"a": np.ones(2), "bb": np.zeros(3)})
    data = bytearray(path.read_bytes())
    data[data.index(b"bb")] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ParamFileError, match="tensor table entry 1: name is not UTF-8"):
        load_params(path)
