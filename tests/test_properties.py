"""Seeded property tests. Every test draws its examples with
`derandomize=True` and no example database, so a run draws the same
examples as every other run."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pne.geometry import PointCloud
from pne.network import (
    ClassificationNetwork,
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
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
