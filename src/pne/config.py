"""Line-oriented experiment configuration.

Grammar:
  * sections in brackets: ``[section]``
  * assignments: ``key = value`` (one per line)
  * comments start with ``#``; blank lines ignored
  * list values are comma-separated, at least one of them

Each setting and its bound are declared once, on its field of
`ExperimentConfig` or of the `TrainConfig` it extends: `training.setting`
names the section, the key when it is not the field's name, and the bound,
and the annotation gives the type of the value or of each list element.
`resolve_experiment` reads every field through its declaration, so a
section or key that no field declares is an error too. Parse errors carry
line numbers; value errors carry the ``section.key`` path.
"""

import dataclasses
import typing

from .embeddings import CORRELATION_KINDS
from .errors import ConfigError, ParseError
from .numerics import ACTIVATION_KINDS
from .training import TrainConfig, setting


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
    """Parse the config file at `path`: UTF-8, with or without a byte-order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted as parse_config counts lines,
        # in exc.object: the bytes after any byte-order mark
        line = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8: byte {exc.object[exc.start]:#04x}", line=line) from None
    return parse_config(text)


EMBEDDING_NAMES = (tuple(f"kp:{c}" for c in CORRELATION_KINDS)
                   + tuple(f"mlp:{a}" for a in ACTIVATION_KINDS) + ("none",))
NEIGHBORHOOD_NAMES = ("ball_query", "knn")
SWEEP_CORRELATIONS = ("triangular", "gaussian")  # the RBF correlations


@dataclasses.dataclass
class ExperimentConfig(TrainConfig):
    """Fully resolved benchmark configuration (defaults are desk scale). The
    [training] settings are the inherited `TrainConfig` fields."""

    task: str = setting("classification", "experiment", ("classification", "segmentation"))
    seeds: list[int] = setting([0, 1, 2], "experiment", 0)
    embeddings: list[str] = setting(list(EMBEDDING_NAMES), "experiment", EMBEDDING_NAMES)
    neighborhoods: list[str] = setting(list(NEIGHBORHOOD_NAMES), "experiment",
                                       NEIGHBORHOOD_NAMES)
    widths: list[int] = setting([16, 32, 64], "network", 1)
    blocks: list[int] = setting([1, 1, 1], "network", 0)
    initial_cell: float = setting(0.2, "network", "(0, inf)")
    embed_dim: int = setting(16, "network", 1)
    mlp_dim: int = setting(16, "network", 1)
    sigma_factor: float = setting(1.0, "network", "(0, inf)")
    ball_scale: float = setting(2.0, "network", "(0, inf)")
    knn_k: int = setting(16, "network", 1)
    drop_path_max: float = setting(0.0, "network", "[0, 1)")
    train_per_class: int = setting(200, "data", 1)
    test_per_class: int = setting(50, "data", 1)
    points: int = setting(256, "data", 1)
    noise_sigma: float = setting(0.01, "data", "[0, inf)")
    data_seed: int = setting(0, "data", 0, key="seed")
    num_scenes: int = setting(20, "data", 1)
    sweep_factors: list[float] = setting([0.25, 0.5, 1.0, 2.0, 4.0], "sigma_sweep", "(0, inf)",
                                         key="factors")
    sweep_correlations: list[str] = setting(list(SWEEP_CORRELATIONS), "sigma_sweep",
                                            SWEEP_CORRELATIONS, key="correlations")

    def to_dict(self):
        return dict(self.__dict__)


def _within(value, interval):
    """Whether `value` lies in `interval`, written like "[0, 1)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < value or interval[0] == "[" and value == lo)
            and (value < hi or interval[-1] == "]" and value == hi))


def _value(kind, bound, text, path):
    """`text` as a `kind`, checked against the field's `bound`."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"not {noun}: {text!r}", key=path) from None
    if kind is int and not value >= bound:
        raise ConfigError(f"must be >= {bound}, got {value}", key=path)
    if kind is float and not _within(value, bound):
        raise ConfigError(f"must be in {bound}, got {value}", key=path)
    if kind is str and value not in bound:
        raise ConfigError(f"expected one of {list(bound)}, got {value!r}", key=path)
    return value


def resolve_experiment(sections):
    """Build an ExperimentConfig from parsed sections: every field reads
    and checks its value as its `setting` declares, then the two rules
    that span fields apply, then any undeclared section or key is an
    error."""
    cfg = ExperimentConfig()
    declared = set()
    for f in dataclasses.fields(cfg):
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        declared.add((section, key))
        text = sections.get(section, {}).get(key)
        if text is None:
            continue
        path, bound = f"{section}.{key}", f.metadata["bound"]
        if typing.get_origin(f.type) is list:
            (kind,) = typing.get_args(f.type)
            value = [_value(kind, bound, item.strip(), path)
                     for item in text.split(",") if item.strip()]
            if not value:
                raise ConfigError("need at least one value", key=path)
        else:
            value = _value(f.type, bound, text, path)
        setattr(cfg, f.name, value)

    if len(cfg.widths) != len(cfg.blocks):
        raise ConfigError("widths and blocks must have equal length", key="network.blocks")
    if cfg.task == "segmentation" and cfg.num_scenes < 2:
        # the 80/20 scene split needs one scene on each side
        raise ConfigError(f"segmentation needs >= 2 scenes, got {cfg.num_scenes}",
                          key="data.num_scenes")
    known = {section for section, _ in declared}
    for section, entries in sections.items():
        if section not in known:
            raise ConfigError("unknown section", key=section)
        for key in entries:
            if (section, key) not in declared:
                raise ConfigError("unknown key", key=f"{section}.{key}")
    return cfg
