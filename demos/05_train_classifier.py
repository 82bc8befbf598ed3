"""Train a small point-cloud classifier end to end.

Synthetic 4-class data (sphere / cube / plane / torus), an encoder pyramid
of Metaformer blocks with point convolutions as the token mixer, AdamW with
a one-cycle schedule. Shrunk from the benchmark defaults to run in about
two minutes.
"""

import numpy as np

from pne import (
    ClassificationNetwork,
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    TrainConfig,
    train_loop,
)
from pne.datagen import make_classification_dataset

cfg = EncoderConfig(
    initial_cell=0.2,
    widths=[16, 32],
    blocks_per_level=[1, 1],
    neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
    embedding=EmbeddingSpec("kp:gaussian"),
    embed_dim=16,
)
model = ClassificationNetwork(cfg, num_classes=4, seed=0)

train_raw, test_raw = make_classification_dataset(
    n_per_class_train=40, n_per_class_test=10, n_points=256, seed=0)

# geometry (pyramid + neighbor lists) is precomputed once per cloud and
# reused every epoch
def prepare(samples):
    preps = []
    for cloud, label in samples:
        p = model.prepare(cloud)
        p.label = label
        preps.append(p)
    return preps

train, test = prepare(train_raw), prepare(test_raw)

tc = TrainConfig(epochs=20, batch_size=16, max_lr=0.005)
params, log = train_loop(model, train, test, tc, seed=0)

for row in log[::3] + [log[-1]]:
    print(f"epoch {row['epoch']:2d}  loss {row['train_loss']:.3f}  "
          f"test OA {row['eval_oa']:.3f}")
print(f"final: OA {log[-1]['eval_oa']:.3f}, mAcc {log[-1]['eval_macc']:.3f}")
