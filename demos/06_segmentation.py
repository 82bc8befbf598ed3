"""Point-wise semantic segmentation on composed scenes.

Scenes hold several shapes; the network labels every point with its shape
class through an encoder-decoder with skip connections. Targets live on the
first pyramid level (majority vote per cell). Shapes are randomly rotated,
so the network has to read local geometry; expect roughly 0.7 OA after the
40 epochs here (about three minutes).
"""

from pne import (
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
    TrainConfig,
    train_loop,
)
from pne.datagen import make_segmentation_dataset

cfg = EncoderConfig(
    initial_cell=0.25,
    widths=[16, 32, 64],
    blocks_per_level=[1, 1, 1],
    neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
    embedding=EmbeddingSpec("kp:gaussian"),
    embed_dim=16,
)
model = SegmentationNetwork(cfg, num_classes=4, seed=0)

scenes = make_segmentation_dataset(n_scenes=20, n_per_shape=192, seed=0)
preps = [model.prepare(s) for s in scenes]
train, test = preps[:16], preps[16:]

tc = TrainConfig(epochs=40, batch_size=4, max_lr=0.005)
params, log = train_loop(model, train, test, tc, seed=0)

for row in log[::8] + [log[-1]]:
    print(f"epoch {row['epoch']:2d}  loss {row['train_loss']:.3f}  "
          f"OA {row['eval_oa']:.3f}  mIoU {row['eval_miou']:.3f}")
