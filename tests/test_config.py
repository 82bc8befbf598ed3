import pytest

from pne.config import (
    EMBEDDING_NAMES,
    ConfigView,
    ExperimentConfig,
    load_config,
    parse_config,
    resolve_experiment,
)
from pne.errors import ConfigError, ParseError
from pne.training import TrainConfig


SAMPLE = """
# a comment
[experiment]
task = classification
seeds = 0, 1, 2

[network]
widths = 8, 16  # trailing comment
initial_cell = 0.25
"""


def test_parse_sections_and_values():
    sections = parse_config(SAMPLE)
    assert set(sections) == {"experiment", "network"}
    assert sections["experiment"]["task"] == "classification"
    assert sections["experiment"]["seeds"] == "0, 1, 2"
    assert sections["network"]["widths"] == "8, 16"


def test_parse_empty_text():
    assert parse_config("") == {}
    assert parse_config("# only comments\n\n") == {}


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("[experiment]\nnot an assignment\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_config("key = 1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_config("[experiment]\n[experiment]\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_config("[bad\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_config("[s]\nx = 1\nx = 2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_config("[s]\n= 1\n")
    assert err.value.line == 2


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SAMPLE)
    assert load_config(path) == parse_config(SAMPLE)


def test_view_typed_access_and_key_paths():
    v = ConfigView(parse_config("[a]\nx = 1.5\nn = 7\nwords = p, q\n"))
    assert v.get_float("a", "x") == 1.5
    assert v.get_int("a", "n") == 7
    assert v.get_list("a", "words") == ["p", "q"]
    assert v.get_str("a", "missing", default="d") == "d"
    with pytest.raises(ConfigError) as err:
        v.get_int("a", "x")
    assert err.value.key == "a.x"
    with pytest.raises(ConfigError) as err:
        v.get_float("a", "words")
    assert err.value.key == "a.words"
    with pytest.raises(ConfigError) as err:
        v.get_list("a", "words", convert=int)
    assert err.value.key == "a.words"
    with pytest.raises(ConfigError) as err:
        v.get_str("a", "x", choices={"p"})
    assert err.value.key == "a.x"


def test_resolve_defaults():
    cfg = resolve_experiment({})
    base = ExperimentConfig()
    assert cfg.to_dict() == base.to_dict()
    assert cfg.embeddings == list(EMBEDDING_NAMES)
    assert cfg.epochs == 50
    assert cfg.sweep_factors == [0.25, 0.5, 1.0, 2.0, 4.0]


def test_experiment_config_keeps_every_setting_and_default():
    """The [training] settings are inherited from TrainConfig; the 28
    settable values keep their names and defaults."""
    assert issubclass(ExperimentConfig, TrainConfig)
    assert ExperimentConfig().to_dict() == {
        "task": "classification", "seeds": [0, 1, 2], "embeddings": list(EMBEDDING_NAMES),
        "neighborhoods": ["ball_query", "knn"], "widths": [16, 32, 64], "blocks": [1, 1, 1],
        "initial_cell": 0.2, "embed_dim": 16, "mlp_dim": 16, "sigma_factor": 1.0,
        "ball_scale": 2.0, "knn_k": 16, "drop_path_max": 0.0, "epochs": 50,
        "batch_size": 16, "max_lr": 0.005, "weight_decay": 1e-4, "clip_norm": 100.0,
        "warmup_fraction": 0.3, "early_stop_oa": None, "train_per_class": 200,
        "test_per_class": 50, "points": 256, "noise_sigma": 0.01, "data_seed": 0,
        "num_scenes": 20, "sweep_factors": [0.25, 0.5, 1.0, 2.0, 4.0],
        "sweep_correlations": ["triangular", "gaussian"]}


def test_resolve_overrides():
    sections = parse_config(
        "[experiment]\nseeds = 5\nembeddings = kp:gaussian, none\n"
        "[network]\nwidths = 4, 8\nblocks = 1, 1\ninitial_cell = 0.5\n"
        "[training]\nepochs = 3\n"
        "[data]\npoints = 64\n")
    cfg = resolve_experiment(sections)
    assert cfg.seeds == [5]
    assert cfg.embeddings == ["kp:gaussian", "none"]
    assert cfg.widths == [4, 8]
    assert cfg.initial_cell == 0.5
    assert cfg.epochs == 3
    assert cfg.points == 64
    # untouched keys keep defaults
    assert cfg.batch_size == 16


@pytest.mark.parametrize("text,key", [
    ("[experiment]\ntask = regression\n", "experiment.task"),
    ("[experiment]\nseeds =\n", "experiment.seeds"),
    ("[experiment]\nseeds = 0, -1\n", "experiment.seeds"),
    ("[experiment]\nembeddings = kp:cubic\n", "experiment.embeddings"),
    ("[experiment]\nneighborhoods = radius\n", "experiment.neighborhoods"),
    ("[network]\nwidths = 4\nblocks = 1, 1\n", "network.blocks"),
    ("[network]\ninitial_cell = 0\n", "network.initial_cell"),
    ("[network]\ninitial_cell = big\n", "network.initial_cell"),
    ("[network]\nwidths =\nblocks =\n", "network.widths"),
    ("[network]\nwidths = 0, 4\nblocks = 1, 1\n", "network.widths"),
    ("[network]\nblocks = -1, 1, 1\n", "network.blocks"),
    ("[network]\nembed_dim = 0\n", "network.embed_dim"),
    ("[network]\nmlp_dim = 0\n", "network.mlp_dim"),
    ("[network]\nknn_k = 0\n", "network.knn_k"),
    ("[network]\ndrop_path_max = 1.5\n", "network.drop_path_max"),
    ("[network]\nsigma_factor = 0\n", "network.sigma_factor"),
    ("[network]\nball_scale = -1\n", "network.ball_scale"),
    ("[training]\nepochs = 0\n", "training.epochs"),
    ("[training]\nbatch_size = 0\n", "training.batch_size"),
    ("[training]\nmax_lr = -1\n", "training.max_lr"),
    ("[training]\nclip_norm = 0\n", "training.clip_norm"),
    ("[training]\nwarmup_fraction = 1.5\n", "training.warmup_fraction"),
    ("[training]\nweight_decay = -1\n", "training.weight_decay"),
    ("[training]\nweight_decay = nan\n", "training.weight_decay"),
    ("[training]\nweight_decay = inf\n", "training.weight_decay"),
    ("[training]\nearly_stop_oa = 2\n", "training.early_stop_oa"),
    ("[training]\nearly_stop_oa = -0.5\n", "training.early_stop_oa"),
    ("[training]\nearly_stop_oa = nan\n", "training.early_stop_oa"),
    ("[data]\npoints = 0\n", "data.points"),
    ("[data]\ntrain_per_class = 0\n", "data.train_per_class"),
    ("[data]\ntest_per_class = 0\n", "data.test_per_class"),
    ("[data]\nnum_scenes = 0\n", "data.num_scenes"),
    ("[data]\nseed = -1\n", "data.seed"),
    ("[experiment]\ntask = segmentation\n[data]\nnum_scenes = 1\n", "data.num_scenes"),
    ("[data]\nnoise_sigma = -1\n", "data.noise_sigma"),
    ("[data]\nnoise_sigma = nan\n", "data.noise_sigma"),
    ("[data]\nnoise_sigma = inf\n", "data.noise_sigma"),
    ("[training]\nepochs = few\n", "training.epochs"),
    ("[sigma_sweep]\ncorrelations = box\n", "sigma_sweep.correlations"),
    ("[sigma_sweep]\nfactors = 1, 0\n", "sigma_sweep.factors"),
    ("[extra]\nx = 1\n", "extra"),
    ("[network]\ninitial_cell = inf\n", "network.initial_cell"),
    ("[network]\nsigma_factor = inf\n", "network.sigma_factor"),
    ("[network]\nball_scale = inf\n", "network.ball_scale"),
    ("[training]\nmax_lr = inf\n", "training.max_lr"),
    ("[training]\nclip_norm = inf\n", "training.clip_norm"),
    ("[sigma_sweep]\nfactors = 1, inf\n", "sigma_sweep.factors"),
    ("[training]\nepoch = 3\n", "training.epoch"),
    ("[training]\ndrop_path_max = nan\n", "training.drop_path_max"),
    ("[network]\nwidths = 4\nblocks = 1\nwidth = 8\n", "network.width"),
])
def test_resolve_validation_errors(text, key):
    with pytest.raises(ConfigError) as err:
        resolve_experiment(parse_config(text))
    assert err.value.key == key
