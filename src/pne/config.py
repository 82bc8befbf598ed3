"""Line-oriented experiment configuration.

Grammar:
  * sections in brackets: ``[section]``
  * assignments: ``key = value`` (one per line)
  * comments start with ``#``; blank lines ignored
  * list values are comma-separated

Parse errors carry line numbers; value errors carry the ``section.key``
path.
"""

import math
from dataclasses import dataclass, field

from .embeddings import CORRELATION_KINDS
from .errors import ConfigError, ParseError
from .numerics import ACTIVATION_KINDS


def parse_config(text):
    """Parse config text into {section: {key: value-string}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(f"malformed section header {raw.strip()!r}", line=lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
        elif "=" in line:
            if current is None:
                raise ParseError("assignment before any section header", line=lineno)
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ParseError("empty key", line=lineno)
            if key in sections[current]:
                raise ParseError(f"duplicate key {key!r} in [{current}]", line=lineno)
            sections[current][key] = value.strip()
        else:
            raise ParseError(f"expected 'key = value' or '[section]', got {raw.strip()!r}",
                             line=lineno)
    return sections


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


class ConfigView:
    """Typed access with key-path errors and defaults. Remembers every key
    asked for, so that `unread_keys` names the ones nothing reads."""

    def __init__(self, sections):
        self.sections = sections
        self.read = set()

    def unread_keys(self):
        return [f"{section}.{key}" for section, entries in self.sections.items()
                for key in entries if (section, key) not in self.read]

    def _raw(self, section, key, default):
        self.read.add((section, key))
        value = self.sections.get(section, {}).get(key)
        return default if value is None else value

    def get_str(self, section, key, default=None, choices=None):
        value = self._raw(section, key, default)
        if choices is not None and value not in choices:
            raise ConfigError(f"expected one of {sorted(choices)}, got {value!r}",
                              key=f"{section}.{key}")
        return value

    def get_float(self, section, key, default=None, positive=False):
        value = self._raw(section, key, default)
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"not a number: {value!r}", key=f"{section}.{key}") from None
        if positive and not 0 < value < math.inf:
            raise ConfigError(f"must be finite and > 0, got {value}", key=f"{section}.{key}")
        return value

    def get_int(self, section, key, default=None, minimum=None):
        value = self._raw(section, key, default)
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"not an integer: {value!r}", key=f"{section}.{key}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value}", key=f"{section}.{key}")
        return value

    def get_list(self, section, key, default=None, convert=str):
        value = self._raw(section, key, default)
        if isinstance(value, str):
            items = [v.strip() for v in value.split(",") if v.strip()]
            try:
                return [convert(v) for v in items]
            except ValueError:
                raise ConfigError(f"malformed list: {value!r}", key=f"{section}.{key}") from None
        return value


EMBEDDING_NAMES = (tuple(f"kp:{c}" for c in CORRELATION_KINDS)
                   + tuple(f"mlp:{a}" for a in ACTIVATION_KINDS) + ("none",))
NEIGHBORHOOD_NAMES = ("ball_query", "knn")


@dataclass
class ExperimentConfig:
    """Fully resolved benchmark configuration (defaults are desk scale)."""

    task: str = "classification"
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    embeddings: list = field(default_factory=lambda: list(EMBEDDING_NAMES))
    neighborhoods: list = field(default_factory=lambda: list(NEIGHBORHOOD_NAMES))
    # network
    widths: list = field(default_factory=lambda: [16, 32, 64])
    blocks: list = field(default_factory=lambda: [1, 1, 1])
    initial_cell: float = 0.2
    embed_dim: int = 16
    mlp_dim: int = 16
    sigma_factor: float = 1.0
    ball_scale: float = 2.0
    knn_k: int = 16
    drop_path_max: float = 0.0
    # training
    epochs: int = 50
    batch_size: int = 16
    max_lr: float = 0.005
    weight_decay: float = 1e-4
    clip_norm: float = 100.0
    warmup_fraction: float = 0.3
    early_stop_oa: float = None
    # data
    train_per_class: int = 200
    test_per_class: int = 50
    points: int = 256
    noise_sigma: float = 0.01
    data_seed: int = 0
    num_scenes: int = 20
    # sigma sweep
    sweep_factors: list = field(default_factory=lambda: [0.25, 0.5, 1.0, 2.0, 4.0])
    sweep_correlations: list = field(default_factory=lambda: ["triangular", "gaussian"])

    def to_dict(self):
        out = dict(self.__dict__)
        return out


def resolve_experiment(sections):
    """Build an ExperimentConfig from parsed sections, validating values."""
    v = ConfigView(sections)
    cfg = ExperimentConfig()
    cfg.task = v.get_str("experiment", "task", cfg.task,
                         choices={"classification", "segmentation"})
    cfg.seeds = v.get_list("experiment", "seeds", cfg.seeds, convert=int)
    if not cfg.seeds:
        raise ConfigError("need at least one seed", key="experiment.seeds")
    if min(cfg.seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(cfg.seeds)}", key="experiment.seeds")
    cfg.embeddings = v.get_list("experiment", "embeddings", cfg.embeddings)
    for e in cfg.embeddings:
        if e not in EMBEDDING_NAMES:
            raise ConfigError(f"unknown embedding {e!r}", key="experiment.embeddings")
    cfg.neighborhoods = v.get_list("experiment", "neighborhoods", cfg.neighborhoods)
    for n in cfg.neighborhoods:
        if n not in NEIGHBORHOOD_NAMES:
            raise ConfigError(f"unknown neighborhood {n!r}", key="experiment.neighborhoods")

    cfg.widths = v.get_list("network", "widths", cfg.widths, convert=int)
    if not cfg.widths or min(cfg.widths) < 1:
        raise ConfigError("need at least one level, every width >= 1", key="network.widths")
    cfg.blocks = v.get_list("network", "blocks", cfg.blocks, convert=int)
    if len(cfg.widths) != len(cfg.blocks):
        raise ConfigError("widths and blocks must have equal length", key="network.blocks")
    if min(cfg.blocks) < 0:
        raise ConfigError("block counts must be >= 0", key="network.blocks")
    cfg.initial_cell = v.get_float("network", "initial_cell", cfg.initial_cell, positive=True)
    cfg.embed_dim = v.get_int("network", "embed_dim", cfg.embed_dim, minimum=1)
    cfg.mlp_dim = v.get_int("network", "mlp_dim", cfg.mlp_dim, minimum=1)
    cfg.sigma_factor = v.get_float("network", "sigma_factor", cfg.sigma_factor, positive=True)
    cfg.ball_scale = v.get_float("network", "ball_scale", cfg.ball_scale, positive=True)
    cfg.knn_k = v.get_int("network", "knn_k", cfg.knn_k, minimum=1)
    cfg.drop_path_max = v.get_float("network", "drop_path_max", cfg.drop_path_max)
    if not 0.0 <= cfg.drop_path_max < 1.0:
        raise ConfigError("must be in [0, 1)", key="network.drop_path_max")

    cfg.epochs = v.get_int("training", "epochs", cfg.epochs, minimum=1)
    cfg.batch_size = v.get_int("training", "batch_size", cfg.batch_size, minimum=1)
    cfg.max_lr = v.get_float("training", "max_lr", cfg.max_lr, positive=True)
    cfg.weight_decay = v.get_float("training", "weight_decay", cfg.weight_decay)
    if not 0.0 <= cfg.weight_decay < math.inf:
        raise ConfigError("must be finite and >= 0", key="training.weight_decay")
    cfg.clip_norm = v.get_float("training", "clip_norm", cfg.clip_norm, positive=True)
    cfg.warmup_fraction = v.get_float("training", "warmup_fraction", cfg.warmup_fraction)
    if not 0.0 < cfg.warmup_fraction < 1.0:
        raise ConfigError("must be in (0, 1)", key="training.warmup_fraction")
    cfg.early_stop_oa = v.get_float("training", "early_stop_oa", cfg.early_stop_oa)
    if cfg.early_stop_oa is not None and not 0.0 <= cfg.early_stop_oa <= 1.0:
        raise ConfigError("must be in [0, 1]", key="training.early_stop_oa")

    cfg.train_per_class = v.get_int("data", "train_per_class", cfg.train_per_class, minimum=1)
    cfg.test_per_class = v.get_int("data", "test_per_class", cfg.test_per_class, minimum=1)
    cfg.points = v.get_int("data", "points", cfg.points, minimum=1)
    cfg.noise_sigma = v.get_float("data", "noise_sigma", cfg.noise_sigma)
    if not 0.0 <= cfg.noise_sigma < math.inf:
        raise ConfigError("must be finite and >= 0", key="data.noise_sigma")
    cfg.data_seed = v.get_int("data", "seed", cfg.data_seed, minimum=0)
    cfg.num_scenes = v.get_int("data", "num_scenes", cfg.num_scenes, minimum=1)
    if cfg.task == "segmentation" and cfg.num_scenes < 2:
        # the 80/20 scene split needs one scene on each side
        raise ConfigError(f"segmentation needs >= 2 scenes, got {cfg.num_scenes}",
                          key="data.num_scenes")

    cfg.sweep_factors = v.get_list("sigma_sweep", "factors", cfg.sweep_factors, convert=float)
    if not all(0 < f < math.inf for f in cfg.sweep_factors):
        raise ConfigError("every factor must be finite and > 0", key="sigma_sweep.factors")
    cfg.sweep_correlations = v.get_list("sigma_sweep", "correlations", cfg.sweep_correlations)
    for c in cfg.sweep_correlations:
        if c not in ("triangular", "gaussian"):
            raise ConfigError(f"sigma sweep needs an RBF correlation, got {c!r}",
                              key="sigma_sweep.correlations")

    known = {"experiment", "network", "training", "data", "sigma_sweep"}
    for section in sections:
        if section not in known:
            raise ConfigError("unknown section", key=section)
    unknown = v.unread_keys()
    if unknown:
        raise ConfigError("unknown key", key=unknown[0])
    return cfg
