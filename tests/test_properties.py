"""Seeded property tests. Every test draws its examples with
`derandomize=True` and no example database, so a run draws the same
examples as every other run."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pne import bench
from pne.config import EMBEDDING_NAMES, parse_config, resolve_experiment
from pne.errors import ConfigError, DegenerateInputError, ParamFileError, ParseError
from pne.geometry import NeighborList, PointCloud, ball_query, knn
from pne.network import (
    ClassificationNetwork,
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
    build_embedding,
    load_params,
    save_params,
)
from pne.pointconv import _support_side, conv_forward, init_conv_layer, make_site

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _model(network, embedding):
    config = EncoderConfig(initial_cell=0.3, widths=[4, 6], blocks=[1, 1],
                           neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
                           embedding=EmbeddingSpec(embedding, mlp_dim=4), embed_dim=4)
    return network(config, num_classes=3, seed=41)


def _backward(model, prep, upstream_seed, scale):
    logits = model.forward(prep, training=True)
    model.backward(np.random.default_rng(upstream_seed).standard_normal(logits.shape) * scale)


@SEEDED
@given(network=st.sampled_from([ClassificationNetwork, SegmentationNetwork]),
       embedding=st.sampled_from(["kp:gaussian", "mlp:gelu"]),
       sizes=st.lists(st.integers(20, 60), min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
def test_settled_grads_equal_the_per_cloud_sum(network, embedding, sizes, seed):
    """A step over a batch of 1-4 seeded clouds settles each conv's kernel
    and projection gradients from the summed d_K_eff. They lie within
    1e-13 relative of the sum of per-cloud gradients, each settled from one
    backward, and every other gradient equals that sum bit for bit."""
    model = _model(network, embedding)
    rng = np.random.default_rng(seed)
    preps = [model.prepare(PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))) for n in sizes]
    ref = {k: np.zeros_like(g) for k, g in model.grads().items()}
    for i, prep in enumerate(preps):
        model.zero_grads()
        _backward(model, prep, seed + i, 1.0 / len(preps))
        for k, g in model.grads().items():
            ref[k] += g
    model.zero_grads()
    for i, prep in enumerate(preps):
        _backward(model, prep, seed + i, 1.0 / len(preps))
    for k, g in model.grads().items():
        if k.rsplit(".", 1)[1] in ("kernel", "projection"):     # only convs have these
            assert np.abs(g - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max(), k
        else:
            assert g.tobytes() == ref[k].tobytes(), k


def _lattice(n, spacing):
    axis = np.arange(n) * spacing
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


# hostile clouds of n points (some ignore n), each drawn from rng
HOSTILE_CLOUDS = {
    "duplicate": lambda rng, n: np.repeat(rng.uniform(-1.0, 1.0, size=(1, 3)), n, axis=0),
    "collinear": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 1)) * rng.standard_normal(3),
    "coplanar": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 2)) @ rng.standard_normal((2, 3)),
    "single point": lambda rng, n: rng.uniform(-1.0, 1.0, size=(1, 3)),
    "lattice": lambda rng, n: _lattice(int(np.cbrt(n)) + 1, rng.choice([0.1, 0.3, 0.6])),
    "two points 50 apart": lambda rng, n: rng.uniform(-1.0, 1.0, size=3) + [[0.0, 0.0, 0.0],
                                                                           [50.0, 0.0, 0.0]],
    "1e6 offset": lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 3)) + 1e6,
}


@pytest.mark.parametrize("cloud", sorted(HOSTILE_CLOUDS))
@pytest.mark.parametrize("kind", ["ball_query", "knn"])
@pytest.mark.parametrize("network", [ClassificationNetwork, SegmentationNetwork])
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_networks_on_hostile_clouds_give_finite_logits(site_clouds, network, kind, cloud, n, seed):
    """`prepare` and `forward` of a 3-level network on duplicate, collinear,
    coplanar, single-point, lattice, two-points-50-apart and 1e6-offset
    clouds give finite logits or DegenerateInputError, and every site holds
    the lists a search of its clouds by name gives. Coordinate scales below
    about 1e-150 or above 1e150 are left out: the scale property below
    covers the searches there."""
    config = EncoderConfig(initial_cell=0.3, widths=[4, 6, 8], blocks=[1, 1, 1],
                           neighborhood=NeighborhoodSpec(kind, k=5, scale=2.0),
                           embedding=EmbeddingSpec("kp:gaussian"), embed_dim=4)
    model = network(config, num_classes=3, seed=seed)
    try:
        prep = model.prepare(PointCloud(HOSTILE_CLOUDS[cloud](np.random.default_rng(seed), n)))
        logits = model.forward(prep)
    except DegenerateInputError:
        return
    assert np.all(np.isfinite(logits))
    for name, site in prep.sites.items():
        query, support, level = site_clouds(name, prep.clouds)
        want = (ball_query(query, support, 2.0 * config.level_cell(level)) if kind == "ball_query"
                else knn(query, support, 5))
        assert site.neighbors.offsets.tolist() == want.offsets.tolist(), name
        assert site.neighbors.indices.tolist() == want.indices.tolist(), name


# sums of three squares: the squared radii of the shells of a unit lattice
SHELLS = (1, 2, 3, 4, 5, 6, 8, 9)


@st.composite
def lattice_clouds(draw):
    """(query, support): an n^3 lattice at one of several spacings, with
    some points duplicated, shuffled and offset by up to 1e6; the query is
    the support itself or the lattice's cell centres."""
    n = draw(st.integers(2, 4))
    spacing = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0, 0.7, 2.0]))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    grid = _lattice(n, spacing)
    copies = draw(st.lists(st.integers(0, len(grid) - 1), max_size=len(grid)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    points = np.concatenate([grid, grid[copies]])
    support = PointCloud(points[rng.permutation(len(points))] + offset)
    if draw(st.booleans()):
        return support, support, spacing
    centres = grid[np.all(grid < (n - 1) * spacing, axis=1)] + spacing / 2
    return PointCloud(centres + offset), support, spacing


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(clouds=lattice_clouds(), data=st.data())
def test_neighbor_search_equals_brute_force(clouds, data):
    """kNN and ball query on lattices, where most distances tie, list the
    neighbors the exact norm lists: kNN ties break toward the smallest
    index, and ball query includes its boundary, for every k from 1 to N+1
    and for radii on the lattice's shells."""
    query, support, spacing = clouds
    k = data.draw(st.integers(1, len(support) + 1), label="k")
    radius = spacing * float(np.sqrt(data.draw(st.sampled_from(SHELLS), label="shell")))
    got_knn, got_ball = knn(query, support, k), ball_query(query, support, radius)
    for i, q in enumerate(query.positions):
        d = np.linalg.norm(support.positions - q, axis=1)
        nearest = np.sort(np.lexsort((np.arange(len(d)), d))[:k])
        assert got_knn.neighbors(i).tolist() == nearest.tolist()
        assert got_ball.neighbors(i).tolist() == np.flatnonzero(d <= radius).tolist()


@st.composite
def dyadic_clouds(draw):
    """(query, support, radius): up to 30 points on the 1/64 lattice of the
    unit cube, duplicates likely, and a radius in 1/16 steps; the query is
    the support itself or a cloud of its own. Every distance is then exact,
    and stays so under scaling by 2^s while its squares stay normal."""
    def cloud():
        coords = draw(st.lists(st.tuples(*[st.integers(0, 64)] * 3), min_size=1, max_size=30))
        return PointCloud(np.array(coords, dtype=np.float64) / 64.0)

    support = cloud()
    query = support if draw(st.booleans()) else cloud()
    return query, support, draw(st.integers(1, 16)) / 16.0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(clouds=dyadic_clouds(), k=st.integers(1, 8), s=st.integers(-1000, 1000))
def test_neighbor_search_is_scale_free_or_raises(clouds, k, s):
    """kNN and ball query on the clouds scaled by 2^s, the radius with them,
    list the neighbors of the unscaled clouds or raise DegenerateInputError,
    and list them for every |s| <= 490."""
    query, support, radius = clouds
    scaled = [PointCloud(c.positions * 2.0**s) for c in (query, support)]
    if query is support:
        scaled[0] = scaled[1]
    for search, arg, scaled_arg in ((knn, k, k), (ball_query, radius, radius * 2.0**s)):
        want = search(query, support, arg)
        try:
            got = search(*scaled, scaled_arg)
        except DegenerateInputError:
            assert abs(s) > 490, search.__name__
            continue
        assert got.offsets.tolist() == want.offsets.tolist(), search.__name__
        assert got.indices.tolist() == want.indices.tolist(), search.__name__


@st.composite
def hostile_sites(draw, side):
    """(query, support, neighbors) for a conv contracted on `side`: the
    support side needs fewer support points than queries. One query has no
    pair, one holds a pair twice, and the last support point is in none."""
    m = draw(st.integers(3 if side == "support" else 2, 12))
    n = draw(st.integers(2, m - 1) if side == "support" else st.integers(m, m + 6))
    lists = draw(st.lists(st.lists(st.integers(0, n - 2), max_size=5),
                          min_size=m - 2, max_size=m - 2))
    twice = draw(st.integers(0, n - 2))
    lists.insert(draw(st.integers(0, m - 2)), [twice, twice])
    lists.insert(draw(st.integers(0, m - 1)), [])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    offsets = np.cumsum([0] + [len(row) for row in lists])
    indices = np.array([i for row in lists for i in row], dtype=np.int64)
    return (PointCloud(rng.uniform(-0.5, 0.5, size=(m, 3))),
            PointCloud(rng.uniform(-0.5, 0.5, size=(n, 3))), NeighborList(offsets, indices))


@pytest.mark.parametrize("side", ["query", "support"])
@pytest.mark.parametrize("embedding", EMBEDDING_NAMES)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_conv_equals_the_dense_sum_on_hostile_sites(dense_conv_all, embedding, side, data, seed):
    """`conv_forward` on drawn sites with an empty query, an unreferenced
    support point and repeated pairs equals the dense per-pair mean within
    1e-12 of the largest reference value, from either contraction side."""
    query, support, nl = data.draw(hostile_sites(side), label="site")
    rng = np.random.default_rng(seed)
    emb = build_embedding(EmbeddingSpec(embedding, mlp_dim=8), 1.0, seed=seed)
    layer = init_conv_layer(emb, 2, 3, embed_dim=8, seed=seed)
    layer.bias = rng.standard_normal(3)
    features = rng.standard_normal((len(support), 2))
    assert _support_side(make_site(query, support, nl)) == (side == "support")
    out = conv_forward(layer, query, support, nl, features)
    offsets = support.positions[nl.indices] - query.positions[nl.query_ids()]
    want = dense_conv_all(layer, nl, offsets, features, "mean")
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def _valid_param_file():
    """The bytes `save_params` writes for three tensors, one of them empty."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_params(path, {"w": np.arange(2.0).reshape(1, 2), "é": np.zeros((0, 4)),
                           "b": np.ones(1)})
        with open(path, "rb") as fh:
            return fh.read()


VALID = _valid_param_file()
EDITS = st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)),
                 min_size=1, max_size=3)


@pytest.fixture(scope="module")
def param_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("params") / "model.bin")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutation=st.one_of(
    st.tuples(st.just("edit"), EDITS),
    st.tuples(st.just("truncate"), st.integers(0, len(VALID) - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16))))
def test_load_params_returns_tensors_or_raises_param_file_error(param_path, mutation):
    """Byte edits, truncations and appended bytes of a valid parameter file:
    `load_params` returns a dict of arrays or raises ParamFileError, never
    anything else. Edits of the empty tensor's second dimension reach
    shapes such as (0, 2**62) that hold no bytes yet that numpy cannot
    allocate; edits of a name reach bytes that are not UTF-8."""
    kind, arg = mutation
    if kind == "edit":
        data = bytearray(VALID)
        for pos, value in arg:
            data[pos] = value
    else:
        data = VALID[:arg] if kind == "truncate" else VALID + arg
    with open(param_path, "wb") as fh:
        fh.write(bytes(data))
    try:
        loaded = load_params(param_path)
    except ParamFileError:
        return
    assert all(isinstance(v, np.ndarray) for v in loaded.values())


# the keys `resolve_experiment` reads, by section
CONFIG_KEYS = {
    "experiment": ["task", "seeds", "embeddings", "neighborhoods"],
    "network": ["widths", "blocks", "initial_cell", "embed_dim", "mlp_dim", "sigma_factor",
                "ball_scale", "knn_k", "drop_path_max"],
    "training": ["epochs", "batch_size", "max_lr", "warmup_fraction", "weight_decay",
                 "clip_norm", "early_stop_oa"],
    "data": ["train_per_class", "test_per_class", "points", "noise_sigma", "seed",
             "num_scenes"],
    "sigma_sweep": ["factors", "correlations"],
}
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["", " ", "nan", "-nan", "inf", "-inf", "-0", "0", "1", "2", "-1", "0.5",
                     "1e-3", "x", "é", "１", "٣", "0, 1", "1, 1", "4, x", ",", "0,,1",
                     "kp:gaussian", "mlp:relu, none", "knn", "ball_query, knn", "gaussian",
                     "triangular, gaussian", "box", "segmentation", "classification"]),
    # no decimal digits, so no text names a size large enough to build slowly
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6))


@st.composite
def config_texts(draw):
    """Config text over known and unknown sections and keys, with hostile
    values; in half the texts a section or a key may repeat."""
    names = st.sampled_from(list(CONFIG_KEYS) + ["extra", "Network", "dáta"])
    unique = draw(st.booleans())
    lines = []
    for section in draw(st.lists(names, max_size=3, unique=unique)):
        lines.append(f"[{section}]")
        keys = CONFIG_KEYS.get(section, []) + ["epoch", "drop_path_max", "ké"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=unique)):
            lines.append(f"{key} = {draw(HOSTILE_VALUES)}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=config_texts())
def test_config_text_resolves_or_raises_a_config_error(text):
    """Every config text gives an ExperimentConfig or a ConfigError or
    ParseError, never another exception. A resolved config has a value in
    every list setting and builds the model of its first grid cell."""
    try:
        cfg = resolve_experiment(parse_config(text))
    except (ConfigError, ParseError):
        return
    assert all(value for value in cfg.to_dict().values() if isinstance(value, list))
    bench.build_model(cfg, cfg.embeddings[0], cfg.neighborhoods[0], cfg.seeds[0])
