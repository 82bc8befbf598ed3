"""Point-cloud convolutions with interchangeable neighborhood embeddings,
plus the desk-scale benchmark harness around them."""

from .embeddings import (
    BOX,
    GAUSSIAN,
    TRIANGULAR,
    IdentityEmbedding,
    KernelPointEmbedding,
    MlpEmbedding,
    default_kernel_layout,
    icosahedron_kernel_points,
    init_mlp_embedding,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    MissingCacheError,
    ParamFileError,
    ParseError,
    ShapeError,
    StatisticsError,
    TrainingFault,
)
from .geometry import (
    NeighborList,
    PointCloud,
    ball_query,
    cell_average_subsample,
    farthest_distance_stats,
    knn,
)
from .network import (
    ClassificationNetwork,
    EmbeddingSpec,
    Encoder,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
    load_params,
    save_params,
)
from .pointconv import ConvLayer, conv_backward, conv_forward, init_conv_layer
from .training import (
    AdamWState,
    Metrics,
    OneCycleSchedule,
    TrainConfig,
    adamw_step,
    clip_grad_norm,
    cross_entropy,
    metrics_compute,
    onecycle_lr,
    train_loop,
)

__version__ = "0.1.0"
