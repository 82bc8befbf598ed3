"""Benchmark command-line interface.

grid, sigma-sweep and neigh-stats write a CSV plus a JSON sidecar to --out;
train writes model.bin and log.csv there and prints the final test metrics;
eval prints the test metrics of a saved model.bin; gradcheck prints the
finite-difference report. Each subcommand takes only the flags it reads
(`pne <command> -h`). PNE_DETERMINISTIC=1 makes every CSV byte-identical
across reruns.
"""

import argparse
import os
import sys

from . import bench
from .config import (EMBEDDING_NAMES, NEIGHBORHOOD_NAMES, ExperimentConfig, load_config,
                     resolve_experiment)
from .errors import ConfigError, DegenerateInputError, ParamFileError, ParseError
from .gradcheck import format_report, gradient_check_report
from .network import load_params, save_params
from .training import evaluate, train_loop


def _config(args):
    if args.config is None:
        return ExperimentConfig()
    return resolve_experiment(load_config(args.config))


def _load_experiment(args):
    cfg = _config(args)
    if args.seeds is not None:
        cfg.seeds = args.seeds
    return cfg


def _seed_list(text):
    """--seeds: comma-separated integers >= 0, at least one, as experiment.seeds."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def _csv_command(run):
    """Handler of a command that writes a CSV and its JSON sidecar to --out
    through `run(cfg, out)` and prints the CSV path."""
    def handler(args):
        csv_path, _ = run(_load_experiment(args), args.out)
        print(csv_path)
        return 0
    return handler


def cmd_gradcheck(args):
    rows = gradient_check_report()
    print(format_report(rows))
    return 0 if all(r.passed for r in rows) else 1


def cmd_train(args):
    cfg = _load_experiment(args)
    emb = args.embedding or cfg.embeddings[0]
    neigh = args.neighborhood or cfg.neighborhoods[0]
    seed = cfg.seeds[0]
    os.makedirs(args.out, exist_ok=True)
    segmentation = cfg.task == "segmentation"
    model = bench._build_model(cfg, emb, neigh, seed)
    train_raw, test_raw = bench.build_datasets(cfg)
    train = bench.prepare_dataset(model, train_raw, segmentation)
    test = bench.prepare_dataset(model, test_raw, segmentation)
    params, log = train_loop(model, train, test, cfg, seed=seed,
                             log_path=os.path.join(args.out, "log.csv"))
    save_params(os.path.join(args.out, "model.bin"), params)
    final = log[-1]
    print(f"oa={final['eval_oa']:.6f} macc={final['eval_macc']:.6f} "
          f"miou={final['eval_miou']:.6f}")
    return 0


def cmd_eval(args):
    cfg = _config(args)
    emb = args.embedding or cfg.embeddings[0]
    neigh = args.neighborhood or cfg.neighborhoods[0]
    # the seed does not matter: every parameter is overwritten from the file
    model = bench._build_model(cfg, emb, neigh, seed=0)
    saved = load_params(args.params)
    params = model.params()
    missing = sorted(set(params) ^ set(saved))
    if missing:
        raise ParamFileError("in only one of file and model", tensor=missing[0])
    for name, p in params.items():
        if saved[name].shape != p.shape:
            raise ParamFileError(f"saved shape {saved[name].shape}, model {p.shape}",
                                 tensor=name)
        p[...] = saved[name]
    _, test_raw = bench.build_datasets(cfg)
    test = bench.prepare_dataset(model, test_raw, cfg.task == "segmentation")
    oa, macc, miou = evaluate(model, test)
    print(f"oa={oa:.6f} macc={macc:.6f} miou={miou:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pne", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(default=None, help="experiment config file"),
        "--out": dict(default="out", help="output directory"),
        "--seeds": dict(default=None, type=_seed_list, help="comma-separated seed list"),
        "--embedding": dict(default=None, choices=EMBEDDING_NAMES),
        "--neighborhood": dict(default=None, choices=NEIGHBORHOOD_NAMES),
        "--params": dict(required=True, help="model.bin path"),
    }
    run = ("--config", "--out", "--seeds")
    model = ("--embedding", "--neighborhood")
    handlers = {
        "grid": (_csv_command(bench.cmd_grid),
                 "run the embedding x neighborhood benchmark grid", run),
        "sigma-sweep": (_csv_command(bench.cmd_sigma_sweep),
                        "accuracy across kernel-width factors", run),
        "neigh-stats": (_csv_command(bench.cmd_neighborhood_stats),
                        "receptive-field variance per pyramid level", run),
        "gradcheck": (cmd_gradcheck, "verify all analytic gradients", ()),
        "train": (cmd_train, "train one model, save parameters and log", run + model),
        "eval": (cmd_eval, "evaluate saved parameters on the test set",
                 ("--config",) + model + ("--params",)),
    }
    for name, (fn, help_text, names) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DegenerateInputError, OSError, ParamFileError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
