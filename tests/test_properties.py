"""Seeded property tests. Every test draws its examples with
`derandomize=True` and no example database, so a run draws the same
examples as every other run."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pne.errors import ParamFileError
from pne.geometry import PointCloud
from pne.network import (
    ClassificationNetwork,
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
    load_params,
    save_params,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _model(network, embedding):
    config = EncoderConfig(initial_cell=0.3, widths=[4, 6], blocks_per_level=[1, 1],
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
