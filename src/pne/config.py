"""Line-oriented experiment configuration.

Grammar:
  * sections in brackets: ``[section]``
  * assignments: ``key = value`` (one per line)
  * comments start with ``#``; blank lines ignored
  * list values are comma-separated, at least one of them

Each setting and its bound are declared once, on its field of
`ExperimentConfig` or of the `TrainConfig` and `NetworkSettings` it
extends: `training.setting` names the section, the key when it is not the
field's name, and the bound, and the annotation gives the type of the value
or of each list element. `read_setting` reads a field's text through its
declaration, and `resolve_experiment` reads every field so, so a section or
key that no field declares is an error too. Constructing a
`NetworkSettings`, which an `ExperimentConfig` and a network's
`EncoderConfig` both are, checks every declared field against its bound.
Parse errors carry line numbers; value errors carry the ``section.key``
path.
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


@dataclasses.dataclass(kw_only=True)
class NetworkSettings:
    """The network's shape, declared once: the [network] settings an
    `ExperimentConfig` reads and a network's `EncoderConfig` is built from.
    Construction checks every declared field, of a subclass too, against
    its bound, then widths against blocks."""

    widths: list[int] = setting([16, 32, 64], "network", 1)
    blocks: list[int] = setting([1, 1, 1], "network", 0)
    initial_cell: float = setting(0.2, "network", "(0, inf)")
    embed_dim: int = setting(16, "network", 1)
    drop_path_max: float = setting(0.0, "network", "[0, 1)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "bound" in f.metadata:
                _check_setting(f, getattr(self, f.name))
        if len(self.widths) != len(self.blocks):
            raise ConfigError("widths and blocks must have equal length", key="network.blocks")


@dataclasses.dataclass
class ExperimentConfig(TrainConfig, NetworkSettings):
    """Fully resolved benchmark configuration (defaults are desk scale). The
    [training] settings are the inherited `TrainConfig` fields, and the
    network's shape the inherited `NetworkSettings` fields."""

    task: str = setting("classification", "experiment", ("classification", "segmentation"))
    seeds: list[int] = setting([0, 1, 2], "experiment", 0)
    embeddings: list[str] = setting(list(EMBEDDING_NAMES), "experiment", EMBEDDING_NAMES)
    neighborhoods: list[str] = setting(list(NEIGHBORHOOD_NAMES), "experiment",
                                       NEIGHBORHOOD_NAMES)
    mlp_dim: int = setting(16, "network", 1)
    sigma_factor: float = setting(1.0, "network", "(0, inf)")
    ball_scale: float = setting(2.0, "network", "(0, inf)")
    knn_k: int = setting(16, "network", 1)
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


def _path(f):
    return f"{f.metadata['section']}.{f.metadata['key'] or f.name}"


def _item_type(f):
    """The type of `f`'s value, or of each item when it is a list, and
    whether it is a list."""
    if typing.get_origin(f.type) is list:
        return typing.get_args(f.type)[0], True
    return f.type, False


def _check_setting(f, value):
    """`value`, a typed value of the `setting` field `f`, checked against the
    field's bound: every item of a list, which needs at least one. A field
    whose default is None may be None."""
    kind, is_list = _item_type(f)
    path, bound = _path(f), f.metadata["bound"]
    if is_list and not value:
        raise ConfigError("need at least one value", key=path)
    for item in value if is_list else [value]:
        if item is None and f.default is None:
            continue
        if kind is int and not item >= bound:
            raise ConfigError(f"must be >= {bound}, got {item}", key=path)
        if kind is float and not _within(item, bound):
            raise ConfigError(f"must be in {bound}, got {item}", key=path)
        if kind is str and item not in bound:
            raise ConfigError(f"expected one of {list(bound)}, got {item!r}", key=path)
    return value


def read_setting(f, text):
    """The checked value the text `text` gives the `setting` field `f`: a
    list's comma-separated items, or one value, parsed by the field's type."""
    kind, is_list = _item_type(f)
    items = [t.strip() for t in text.split(",") if t.strip()] if is_list else [text]
    values = []
    for item in items:
        try:
            values.append(kind(item))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"not {noun}: {item!r}", key=_path(f)) from None
    return _check_setting(f, values if is_list else values[0])


def resolve_experiment(sections):
    """Build an ExperimentConfig from parsed sections: every field reads
    and checks its value as its `setting` declares, in declaration order,
    then construction applies the rule across widths and blocks, then
    segmentation's rule on scenes, then any undeclared section or key is an
    error."""
    values, declared = {}, set()
    for f in dataclasses.fields(ExperimentConfig):
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        declared.add((section, key))
        text = sections.get(section, {}).get(key)
        if text is not None:
            values[f.name] = read_setting(f, text)
    cfg = ExperimentConfig(**values)
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
