"""Benchmark harness: the embedding x neighborhood grid, the sigma sweep
and the receptive-field variance study. Each emits a CSV plus a JSON
sidecar with the fully resolved configuration.

Reruns with identical config and seeds are byte-identical: rows are sorted
before writing, floats use fixed formatting, and when PNE_DETERMINISTIC=1
the wall-clock column is forced to zero (it is the only nondeterministic
column).
"""

import csv
import dataclasses
import json
import os
import time

import numpy as np

from .config import NEIGHBORHOOD_NAMES
from .datagen import SHAPE_KINDS, make_classification_dataset, make_segmentation_dataset
from .embeddings import KernelPointEmbedding, default_kernel_layout, icosahedron_kernel_points
from .errors import ConfigError
from .geometry import cell_average_subsample, farthest_distances
from .network import (
    ClassificationNetwork,
    EmbeddingSpec,
    EncoderConfig,
    NeighborhoodSpec,
    SegmentationNetwork,
)
from .training import train_loop


def deterministic_mode():
    return os.environ.get("PNE_DETERMINISTIC", "") == "1"


def _wall(seconds):
    return 0.0 if deterministic_mode() else seconds


def embedding_spec_from_name(name, cfg):
    return EmbeddingSpec(name, mlp_dim=cfg.mlp_dim, sigma_factor=cfg.sigma_factor)


def neighborhood_spec_from_name(name, cfg):
    return NeighborhoodSpec(name, k=cfg.knn_k, scale=cfg.ball_scale)


def encoder_config(cfg, embedding_spec, neighborhood_spec):
    return EncoderConfig(
        initial_cell=cfg.initial_cell,
        widths=list(cfg.widths),
        blocks_per_level=list(cfg.blocks),
        neighborhood=neighborhood_spec,
        embedding=embedding_spec,
        embed_dim=cfg.embed_dim,
        drop_path_max=cfg.drop_path_max,
    )


def build_datasets(cfg):
    """Synthetic datasets per the experiment config; deterministic."""
    if cfg.task == "classification":
        return make_classification_dataset(
            n_per_class_train=cfg.train_per_class,
            n_per_class_test=cfg.test_per_class,
            n_points=cfg.points,
            noise_sigma=cfg.noise_sigma,
            seed=cfg.data_seed,
        )
    scenes = make_segmentation_dataset(
        n_scenes=cfg.num_scenes, n_per_shape=max(32, cfg.points // 4),
        noise_sigma=cfg.noise_sigma, seed=cfg.data_seed,
    )
    split = max(1, int(0.8 * len(scenes)))
    return scenes[:split], scenes[split:]


def prepare_dataset(model, samples, segmentation):
    """Precompute pyramid + neighbor sites per cloud (no augmentation in
    the desk-scale benchmark, so geometry is reusable across epochs)."""
    preps = []
    for item in samples:
        cloud, label = (item, None) if segmentation else item
        prep = model.prepare(cloud)
        prep.label = label
        preps.append(prep)
    return preps


def _build_model(cfg, emb_name, neigh_name, seed):
    """Both synthetic datasets label points and clouds by SHAPE_KINDS index."""
    spec = embedding_spec_from_name(emb_name, cfg)
    nspec = neighborhood_spec_from_name(neigh_name, cfg)
    enc_cfg = encoder_config(cfg, spec, nspec)
    if cfg.task == "segmentation":
        return SegmentationNetwork(enc_cfg, len(SHAPE_KINDS), seed=seed)
    return ClassificationNetwork(enc_cfg, len(SHAPE_KINDS), seed=seed)


def prepare_splits(cfg, neigh_name, datasets):
    """The (train, test) prepared samples of `datasets` for one neighborhood.
    Sites do not depend on the embedding or the seed, so one preparation
    serves every cell of that neighborhood."""
    ref = _build_model(cfg, "none", neigh_name, seed=0)
    segmentation = cfg.task == "segmentation"
    return tuple(prepare_dataset(ref, split, segmentation) for split in datasets)


def run_cell(cfg, emb_name, neigh_name, seed, preps):
    """Train and evaluate one grid cell on `preps`, its (train, test)
    prepared samples. Returns a result-row dict."""
    start = time.perf_counter()
    model = _build_model(cfg, emb_name, neigh_name, seed)
    train, test = preps
    _, log = train_loop(model, train, test, cfg, seed=seed)
    final = log[-1]
    emb_label, variant = embedding_spec_from_name(emb_name, cfg).label()
    return {
        "neighborhood": neigh_name,
        "embedding": emb_label,
        "variant": variant,
        "seed": seed,
        "oa": final["eval_oa"],
        "macc": final["eval_macc"],
        "miou": final["eval_miou"],
        "wall_seconds": _wall(time.perf_counter() - start),
        "epochs_run": final["epoch"] + 1,
    }


_GRID_COLUMNS = ["neighborhood", "embedding", "variant", "seed",
                 "oa", "macc", "miou", "wall_seconds"]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(path, columns, rows):
    rows = sorted(rows, key=lambda r: tuple(str(r[c]) for c in columns))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_sidecar(csv_path, cfg, extra=None):
    """JSON audit trail next to every CSV."""
    payload = {"config": cfg.to_dict()}
    if extra:
        payload.update(extra)
    side = os.path.splitext(csv_path)[0] + ".json"
    with open(side, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _aggregate(rows):
    """Per-cell mean/std over seeds (std absent with < 2 seeds)."""
    cells = {}
    for row in rows:
        if row.get("failed"):
            continue
        key = (row["neighborhood"], row["embedding"], row["variant"])
        cells.setdefault(key, []).append(row)
    out = []
    for (neigh, emb, variant), items in sorted(cells.items()):
        entry = {"neighborhood": neigh, "embedding": emb, "variant": variant,
                 "seeds": [r["seed"] for r in items]}
        for metric in ("oa", "macc", "miou"):
            vals = np.array([r[metric] for r in items])
            entry[f"{metric}_mean"] = float(vals.mean())
            entry[f"{metric}_std"] = float(vals.std(ddof=1)) if len(vals) >= 2 else None
        out.append(entry)
    return out


def cmd_grid(cfg, out_dir):
    """The embedding x neighborhood grid. Failed cells become explicit rows
    instead of aborting the run."""
    os.makedirs(out_dir, exist_ok=True)
    datasets = build_datasets(cfg)
    preps = {neigh: prepare_splits(cfg, neigh, datasets) for neigh in cfg.neighborhoods}

    def run(emb, neigh, seed):
        try:
            return run_cell(cfg, emb, neigh, seed, preps=preps[neigh])
        except Exception as exc:  # keep the rest of the grid alive
            label, variant = embedding_spec_from_name(emb, cfg).label()
            return {"neighborhood": neigh, "embedding": label, "variant": variant,
                    "seed": seed, "oa": float("nan"), "macc": float("nan"),
                    "miou": float("nan"), "wall_seconds": 0.0,
                    "failed": True, "error": str(exc)}

    rows = [run(emb, neigh, seed)
            for neigh in cfg.neighborhoods
            for emb in cfg.embeddings
            for seed in cfg.seeds]
    csv_path = os.path.join(out_dir, "grid.csv")
    write_csv(csv_path, _GRID_COLUMNS, rows)
    write_sidecar(csv_path, cfg, extra={
        "aggregate": _aggregate(rows),
        "failures": [r for r in rows if r.get("failed")],
    })
    return csv_path, rows


def triangular_zero_support_fraction(radius, sigma_factor, n_samples=20000, seed=0):
    """Fraction of receptive-field offsets whose Triangular embedding is
    all-zero (support smaller than the receptive field)."""
    shell, sigma = default_kernel_layout(radius, sigma_factor)
    emb = KernelPointEmbedding(icosahedron_kernel_points(shell), sigma, "triangular")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    offs = v * radius * np.cbrt(rng.uniform(size=(n_samples, 1)))
    e = emb.embed(offs)
    return float(np.mean(np.all(e == 0.0, axis=1)))


def cmd_sigma_sweep(cfg, out_dir):
    """Classification accuracy across sigma factors for the RBF
    correlations, plus the support-coverage measurement."""
    if cfg.task != "classification":
        raise ConfigError("sigma sweep requires the classification task",
                          key="experiment.task")
    os.makedirs(out_dir, exist_ok=True)
    preps = prepare_splits(cfg, "ball_query", build_datasets(cfg))
    radius = cfg.ball_scale * cfg.initial_cell
    rows = []
    for correlation in cfg.sweep_correlations:
        for factor in cfg.sweep_factors:
            coverage = triangular_zero_support_fraction(radius, factor)
            sweep_cfg = dataclasses.replace(cfg, sigma_factor=factor)
            for seed in cfg.seeds:
                row = run_cell(sweep_cfg, f"kp:{correlation}", "ball_query", seed, preps)
                rows.append({
                    "correlation": correlation,
                    "sigma_factor": factor,
                    "seed": seed,
                    "oa": row["oa"],
                    "triangular_zero_support_fraction": coverage,
                    "wall_seconds": row["wall_seconds"],
                })
    csv_path = os.path.join(out_dir, "sigma_sweep.csv")
    write_csv(csv_path, ["correlation", "sigma_factor", "seed", "oa",
                         "triangular_zero_support_fraction", "wall_seconds"], rows)
    write_sidecar(csv_path, cfg)
    return csv_path, rows


def pyramid_neighbor_stats(clouds, initial_cell, num_levels, neighborhood):
    """Farthest-distance statistics per pyramid level under the
    `NeighborhoodSpec` `neighborhood`, aggregated over all clouds (per-query
    normalized distances pooled before the variance)."""
    per_level = [[] for _ in range(num_levels)]
    for cloud in clouds:
        cur = cloud
        for lvl in range(num_levels):
            cell = initial_cell * 2.0**lvl
            cur = cell_average_subsample(cur, cell)
            nl = neighborhood.search(cur, cur, cell)
            per_level[lvl].append(farthest_distances(nl, cur, cur) / cell)
    stats = []
    for lvl, vals in enumerate(per_level):
        vals = np.concatenate(vals)
        stats.append((lvl, float(vals.mean()), float(vals.var())))
    return stats


def cmd_neighborhood_stats(cfg, out_dir, num_levels=5):
    """Receptive-field variance study on both synthetic datasets."""
    os.makedirs(out_dir, exist_ok=True)
    cls_train, _ = make_classification_dataset(
        n_per_class_train=10, n_per_class_test=1, n_points=cfg.points,
        noise_sigma=cfg.noise_sigma, seed=cfg.data_seed,
    )
    datasets = {
        "classification": [c for c, _ in cls_train],
        "segmentation": make_segmentation_dataset(
            n_scenes=8, n_per_shape=max(32, cfg.points // 2),
            noise_sigma=cfg.noise_sigma, seed=cfg.data_seed,
        ),
    }
    rows = []
    for name, clouds in datasets.items():
        for method in NEIGHBORHOOD_NAMES:
            stats = pyramid_neighbor_stats(clouds, cfg.initial_cell, num_levels,
                                           neighborhood_spec_from_name(method, cfg))
            for lvl, mean, var in stats:
                rows.append({"dataset": name, "method": method, "level": lvl,
                             "mean_norm_farthest": mean, "var_norm_farthest": var})
    csv_path = os.path.join(out_dir, "neighborhood_stats.csv")
    write_csv(csv_path, ["dataset", "method", "level",
                         "mean_norm_farthest", "var_norm_farthest"], rows)
    write_sidecar(csv_path, cfg)
    return csv_path, rows
