import csv
import json
import warnings

import numpy as np
import pytest

from pne import bench, cli
from pne.config import ExperimentConfig
from pne.network import save_params


def tiny_cfg(**overrides):
    cfg = ExperimentConfig()
    cfg.seeds = [0]
    cfg.embeddings = ["kp:gaussian", "none"]
    cfg.neighborhoods = ["ball_query"]
    cfg.widths = [4]
    cfg.blocks = [1]
    cfg.initial_cell = 0.3
    cfg.embed_dim = 4
    cfg.mlp_dim = 4
    cfg.epochs = 1
    cfg.batch_size = 4
    cfg.train_per_class = 2
    cfg.test_per_class = 1
    cfg.points = 32
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


TINY_CFG_TEXT = """\
[experiment]
seeds = 0
embeddings = kp:gaussian
neighborhoods = ball_query
[network]
widths = 4
blocks = 1
initial_cell = 0.3
embed_dim = 4
mlp_dim = 4
[training]
epochs = 1
batch_size = 4
[data]
train_per_class = 2
test_per_class = 1
points = 32
"""


def test_grid_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg = tiny_cfg()
    path1, rows1 = bench.cmd_grid(cfg, str(tmp_path / "a"))
    path2, rows2 = bench.cmd_grid(tiny_cfg(), str(tmp_path / "b"))
    assert open(path1, "rb").read() == open(path2, "rb").read()
    lines = open(path1).read().splitlines()
    assert lines[0] == "neighborhood,embedding,variant,seed,oa,macc,miou,wall_seconds"
    assert len(lines) == 1 + 2  # two embeddings x one neighborhood x one seed
    # rows sorted by column tuple
    assert lines[1:] == sorted(lines[1:])
    # deterministic mode zeroes the wall clock
    assert all(line.endswith(",0.000000") for line in lines[1:])


def test_grid_sidecar_json(tmp_path, monkeypatch):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    path, rows = bench.cmd_grid(tiny_cfg(), str(tmp_path))
    side = json.load(open(path[:-4] + ".json"))
    assert side["config"]["points"] == 32
    assert side["failures"] == []
    agg = side["aggregate"]
    assert len(agg) == 2
    for entry in agg:
        assert entry["oa_std"] is None  # single seed
        assert 0.0 <= entry["oa_mean"] <= 1.0


def test_grid_failed_cell_becomes_row(tmp_path, monkeypatch):
    real = bench.run_cell

    def flaky(cfg, emb, neigh, seed, **kw):
        if emb == "none":
            raise RuntimeError("boom")
        return real(cfg, emb, neigh, seed, **kw)

    monkeypatch.setattr(bench, "run_cell", flaky)
    path, rows = bench.cmd_grid(tiny_cfg(), str(tmp_path))
    failed = [r for r in rows if r.get("failed")]
    assert len(failed) == 1
    assert failed[0]["error"] == "boom"
    assert np.isnan(failed[0]["oa"])
    side = json.load(open(path[:-4] + ".json"))
    assert len(side["failures"]) == 1
    # aggregate skips the failed cell
    assert len(side["aggregate"]) == 1


def test_sigma_sweep_rows_and_support(tmp_path, monkeypatch):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg = tiny_cfg(sweep_factors=[0.25, 1.0], sweep_correlations=["triangular"])
    path, rows = bench.cmd_sigma_sweep(cfg, str(tmp_path))
    assert len(rows) == 2  # factors x correlations x seeds
    by_factor = {r["sigma_factor"]: r for r in rows}
    assert by_factor[0.25]["triangular_zero_support_fraction"] > 0.0
    assert (by_factor[0.25]["triangular_zero_support_fraction"]
            > by_factor[1.0]["triangular_zero_support_fraction"])
    header = open(path).readline().strip()
    assert header == ("correlation,sigma_factor,seed,oa,"
                      "triangular_zero_support_fraction,wall_seconds")


def test_sigma_sweep_prepares_each_cloud_once(tmp_path, monkeypatch):
    from pne.network import Network

    calls = []
    real = Network.prepare

    def counting(self, cloud, **kw):
        calls.append(cloud)
        return real(self, cloud, **kw)

    monkeypatch.setattr(Network, "prepare", counting)
    cfg = tiny_cfg(seeds=[0, 1], sweep_factors=[0.25, 1.0], sweep_correlations=["triangular"])
    _, rows = bench.cmd_sigma_sweep(cfg, str(tmp_path))
    assert len(rows) == 4  # 2 factors x 2 seeds
    # 4 shape classes x (train_per_class + test_per_class) clouds
    assert len(calls) == 4 * (cfg.train_per_class + cfg.test_per_class)


def test_sigma_sweep_rejects_segmentation(tmp_path):
    from pne.errors import ConfigError

    with pytest.raises(ConfigError):
        bench.cmd_sigma_sweep(tiny_cfg(task="segmentation"), str(tmp_path))


def test_zero_support_fraction_bounds():
    wide = bench.triangular_zero_support_fraction(0.6, 4.0, n_samples=2000)
    narrow = bench.triangular_zero_support_fraction(0.6, 0.25, n_samples=2000)
    assert wide == 0.0
    assert 0.0 < narrow < 1.0


def test_neigh_stats_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg = tiny_cfg(points=64)
    path, rows = bench.cmd_neighborhood_stats(cfg, str(tmp_path), num_levels=3)
    assert len(rows) == 2 * 2 * 3  # datasets x methods x levels
    for r in rows:
        assert r["var_norm_farthest"] >= 0.0
        assert r["mean_norm_farthest"] > 0.0
    methods = {r["method"] for r in rows}
    assert methods == {"knn", "ball_query"}


def test_cli_grid_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    out = tmp_path / "out"
    rc = cli.main(["grid", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("grid.csv")
    assert (out / "grid.csv").exists()
    assert (out / "grid.json").exists()


def test_cli_seeds_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    out = tmp_path / "out"
    rc = cli.main(["grid", "--config", str(cfg_path), "--out", str(out),
                   "--seeds", "0,1"])
    assert rc == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # one embedding x one neighborhood x two seeds


def test_cli_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[experiment]\ntask = regression\n")
    rc = cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    cfg_path.write_text("no header\n")
    rc = cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_train_rejects_one_segmentation_scene(tmp_path, monkeypatch, capsys):
    """One scene leaves the 80/20 split's test side empty: a config error
    (exit 2) before any data is built or trained on."""
    def no_data(cfg):
        raise AssertionError("datasets built")

    monkeypatch.setattr(bench, "build_datasets", no_data)
    cfg_path = tmp_path / "seg.cfg"
    cfg_path.write_text("[experiment]\ntask = segmentation\n[data]\nnum_scenes = 1\n")
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "data.num_scenes" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, text, key", [
    ("train", "[data]\nseed = -1\n", "data.seed"),
    ("neigh-stats", "[data]\nseed = -1\n", "data.seed"),
    ("train", "[experiment]\nseeds = -1\n", "experiment.seeds"),
    ("grid", "[experiment]\nseeds = 0, -2\n", "experiment.seeds"),
])
def test_cli_rejects_negative_seeds_in_config(command, text, key, tmp_path, monkeypatch, capsys):
    """A negative seed is a config error (exit 2) naming its key, before any
    dataset is built."""
    def no_data(*args, **kwargs):
        raise AssertionError("datasets built")

    monkeypatch.setattr(bench, "build_datasets", no_data)
    monkeypatch.setattr(bench, "make_classification_dataset", no_data)
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(text)
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, section, key", [
    ("train", "experiment", "embeddings"),
    ("grid", "experiment", "neighborhoods"),
    ("sigma-sweep", "sigma_sweep", "factors"),
    ("sigma-sweep", "sigma_sweep", "correlations"),
])
def test_cli_rejects_an_empty_list_setting(command, section, key, tmp_path, capsys):
    """A list setting with no value is a config error (exit 2) in one line
    naming its key, not an IndexError or an empty CSV."""
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(f"[{section}]\n{key} =\n")
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {section}.{key}: need at least one value"]
    assert not (tmp_path / "run").exists()


def with_setting(section, key, value):
    """TINY_CFG_TEXT with `key = value` in [section], replacing any `key`."""
    lines = [line for line in TINY_CFG_TEXT.splitlines() if not line.startswith(f"{key} =")]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, section, key, value, fault", [
    ("train", "network", "initial_cell", "1e-300", "kernel sigma 0 "),
    ("train", "network", "initial_cell", "1e300", "kernel sigma inf "),
    ("train", "network", "ball_scale", "1e300", "kernel sigma inf "),
    ("train", "network", "ball_scale", "1e-300", "kernel sigma 0 "),
    ("train", "network", "sigma_factor", "1e300", "2 sigma^2 = inf"),
    ("train", "network", "sigma_factor", "1e-300", "2 sigma^2 = 0"),
    ("train", "data", "noise_sigma", "1e300", "cell_size 0.3 "),
    ("train", "data", "noise_sigma", "1e308", "noise_sigma 1e+308 "),
    ("train", "data", "noise_sigma", "2e307", "cell_size 0.3 "),
    ("train", "data", "noise_sigma", "3e307", "overflows float64"),
    ("neigh-stats", "network", "initial_cell", "1e-300", "cell_size 1e-300 "),
])
def test_cli_degenerate_geometry_exits_2(command, section, key, value, fault, tmp_path, capsys):
    """A geometry setting the config accepts, but under which a cell size
    overflows int64 cell coordinates or a kernel's 2 sigma^2 is 0 or inf,
    ends in one `error:` line naming the value at fault and exit 2, with no
    traceback and no warning."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(with_setting(section, key, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fault in err[0]


@pytest.mark.parametrize("key", ["max_lr", "weight_decay"])
def test_cli_diverged_training_exits_2(key, tmp_path, capsys):
    """A first update scaled by 1e300 overflows the next forward: one
    `error:` line naming the step and exit 2, with no traceback and no
    warning."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(with_setting("training", key, "1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: diverged: ") and "(step 1)" in err[0]


def test_grid_records_a_degenerate_kernel_as_a_failed_row(tmp_path, capsys):
    """Under sigma_factor = 1e300 the kp:gaussian cell fails and the grid
    records it; the cell without a kernel still trains."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(with_setting("network", "sigma_factor", "1e300").replace(
        "embeddings = kp:gaussian", "embeddings = kp:gaussian, none"))
    assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    failures = json.load(open(tmp_path / "run" / "grid.json"))["failures"]
    assert [(r["embedding"], r["variant"]) for r in failures] == [("kp", "gaussian")]
    assert "2 sigma^2 = inf" in failures[0]["error"]


def test_cli_gradcheck_exit_codes(monkeypatch, capsys):
    from pne.gradcheck import CheckRow

    ok = [CheckRow("a.b", 10, 1e-6, 1e-4, True)]
    monkeypatch.setattr(cli, "gradient_check_report", lambda: ok)
    assert cli.main(["gradcheck"]) == 0
    assert "pass" in capsys.readouterr().out
    bad = ok + [CheckRow("c.d", 10, 1.0, 1e-4, False)]
    monkeypatch.setattr(cli, "gradient_check_report", lambda: bad)
    assert cli.main(["gradcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_detects_corrupted_jacobian(monkeypatch):
    """Mutation test: a wrong analytic Jacobian must be flagged."""
    from pne.embeddings import KernelPointEmbedding
    from pne.gradcheck import check_embedding_jacobians

    real = KernelPointEmbedding.jacobian_offsets

    def corrupted(self, offsets):
        return 1.01 * real(self, offsets)

    monkeypatch.setattr(KernelPointEmbedding, "jacobian_offsets", corrupted)
    rows = check_embedding_jacobians(n_probes=100, seed=0)
    gaussian = [r for r in rows if "gaussian" in r.component and "offsets" in r.component]
    assert gaussian and not any(r.passed for r in gaussian)


def test_cli_train_eval_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    train_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert (out / "model.bin").exists()
    assert (out / "log.csv").exists()
    rc = cli.main(["eval", "--config", str(cfg_path),
                   "--params", str(out / "model.bin")])
    assert rc == 0
    eval_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert eval_line == train_line  # same params, same test split


SEG_CFG_TEXT = """\
[experiment]
task = segmentation
seeds = 0
embeddings = kp:gaussian
neighborhoods = ball_query
[network]
widths = 4, 6
blocks = 1, 1
initial_cell = 0.3
embed_dim = 4
[training]
epochs = 1
batch_size = 2
[data]
num_scenes = 3
points = 32
"""


def test_cli_segmentation_grid_train_and_eval(tmp_path, monkeypatch, capsys):
    """Segmentation through the CLI: `pne grid` reruns byte-identical, CSV
    and sidecar, with a finite mIoU; `pne eval` of the `model.bin` that
    `pne train` wrote prints the final eval row of its `log.csv`."""
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg_path = tmp_path / "seg.cfg"
    cfg_path.write_text(SEG_CFG_TEXT)
    runs = []
    for run in ("a", "b"):
        assert cli.main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / run)]) == 0
        runs.append([(tmp_path / run / name).read_bytes() for name in ("grid.csv", "grid.json")])
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["config"]["task"] == "segmentation"
    header, row = runs[0][0].decode().splitlines()
    assert np.isfinite(float(dict(zip(header.split(","), row.split(",")))["miou"]))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    train_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert cli.main(["eval", "--config", str(cfg_path), "--params", str(out / "model.bin")]) == 0
    eval_line = capsys.readouterr().out.strip().splitlines()[-1]
    *_, last = csv.DictReader((out / "log.csv").read_text().splitlines())
    logged = " ".join(f"{k}={float(last[f'eval_{k}']):.6f}" for k in ("oa", "macc", "miou"))
    assert eval_line == train_line == logged


def test_cli_eval_rejects_mismatched_params(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PNE_DETERMINISTIC", "1")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    out = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_CFG_TEXT.replace("widths = 4", "widths = 8"))
    capsys.readouterr()
    rc = cli.main(["eval", "--config", str(wide),
                   "--params", str(out / "model.bin")])
    assert rc == 2
    assert "saved shape" in capsys.readouterr().err
    model = out / "model.bin"
    model.write_bytes(model.read_bytes()[:-5])
    rc = cli.main(["eval", "--config", str(cfg_path),
                   "--params", str(model)])
    assert rc == 2
    assert "file truncated" in capsys.readouterr().err


def test_cli_eval_rejects_a_name_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    model = tmp_path / "model.bin"
    save_params(model, {"enc.init.weights": np.ones((2, 4))})
    data = bytearray(model.read_bytes())
    data[data.index(b"init")] = 0xFF
    model.write_bytes(bytes(data))
    rc = cli.main(["eval", "--config", str(cfg_path), "--params", str(model)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tensor table entry 0: name is not UTF-8")
    assert "Traceback" not in err


def test_cli_missing_params_or_config_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY_CFG_TEXT)
    missing_params = tmp_path / "missing.bin"
    rc = cli.main(["eval", "--config", str(cfg_path),
                   "--params", str(missing_params)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing_params) in err
    missing_cfg = tmp_path / "missing.cfg"
    rc = cli.main(["eval", "--config", str(missing_cfg),
                   "--params", str(missing_params)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing_cfg) in err


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--config", "x.cfg"],
    ["gradcheck", "--out", "x"],
    ["gradcheck", "--seeds", "1"],
    ["eval", "--params", "m.bin", "--out", "x"],
    ["eval", "--params", "m.bin", "--seeds", "1"],
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--embedding", "kp:boxx"), ("--neighborhood", "ball")])
def test_cli_rejects_unknown_model_names(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["train", flag, value])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, why", [
    (["grid", "--seeds", "x"], "experiment.seeds: not an integer: 'x'"),
    (["train", "--seeds", ","], "experiment.seeds: need at least one value"),
    (["grid", "--seeds", ","], "experiment.seeds: need at least one value"),
    (["grid", "--seeds=-2"], "experiment.seeds: must be >= 0, got -2"),
    (["train", "--seeds", "0,-1"], "experiment.seeds: must be >= 0, got -1"),
    (["sigma-sweep", "--seeds=3,-4"], "experiment.seeds: must be >= 0, got -4"),
])
def test_cli_rejects_bad_seed_lists(argv, why, tmp_path, monkeypatch, capsys):
    """A --seeds value that experiment.seeds would reject is a usage error
    naming the flag, before anything runs or is written."""
    def no_data(cfg):
        raise AssertionError("datasets built")

    monkeypatch.setattr(bench, "build_datasets", no_data)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument --seeds: {why}" in capsys.readouterr().err
    assert not out.exists()

