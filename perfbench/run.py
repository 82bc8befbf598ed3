#!/usr/bin/env python3
"""Performance benchmark of pne: training throughput for fixed and
learnable neighborhood embeddings, and dense-scene segmentation latency.

    python3 perfbench/run.py --workload train_fixed --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Workloads (closed loop, one process, one client):

  train_fixed  classification optimizer steps with kp:box, kp:triangular,
               kp:gaussian and none, on ball_query and knn; geometry is
               prepared in set-up
  train_mlp    the same loop with mlp:relu, mlp:gelu and mlp:sin
  infer_seg    raw dense scene -> pyramid, sites, forward -> per-point
               logits, alternating ball_query and knn, kp:gaussian and
               mlp:gelu; geometry is on the request path

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. The last stdout line is the result
object; the line before it holds provenance and input properties.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 0
# the network is part of the benchmark's configuration, not of its input:
# every seed trains and runs the same initial models on other clouds
MODEL_SEED = 0
# never used while writing the benchmark or a change; re-check claims on it
HELD_OUT_SEED = 7919

WORKLOADS = ("train_fixed", "train_mlp", "infer_seg")
FIXED_EMBEDDINGS = ("kp:box", "kp:triangular", "kp:gaussian", "none")
MLP_EMBEDDINGS = ("mlp:relu", "mlp:gelu", "mlp:sin")
INFER_EMBEDDINGS = ("kp:gaussian", "mlp:gelu")
NEIGHBORHOODS = ("ball_query", "knn")
GOLDEN = (5 ** 0.5 - 1) / 2

# run sizes: "full" is the benchmark; "tiny" exists for the benchmark's own
# tests and finishes in a few seconds
SIZES = {
    "full": dict(train_per_class=4, points=256, trajectory_steps=2, setup_reps=5,
                 infer_setup_reps=9, scene_pool=60, scene_shape_points=1000,
                 neighbor_clouds=4, neighbor_queries=8, conv_queries=4),
    "tiny": dict(train_per_class=1, points=96, trajectory_steps=2, setup_reps=2,
                 infer_setup_reps=2, scene_pool=12, scene_shape_points=96,
                 neighbor_clouds=2, neighbor_queries=4, conv_queries=2),
}
# infer_seg cycles through twelve request kinds: each shape count (2, 3, 4)
# on both neighborhoods and both embeddings
REQUEST_CYCLE = 12


def _import_program():
    if not os.path.isfile(os.path.join(ROOT, "src", "pne", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {os.path.join('src', 'pne')} "
                         "under the checkout root")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pne

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(pne.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported pne from {pne.__file__}, not from the checkout")


# one BLAS thread: on a few shared cores, a second BLAS thread that spins
# while it waits for work measures the scheduler rather than the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_import_program()

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from pne import network, training  # noqa: E402
from pne.bench import (  # noqa: E402
    embedding_spec_from_name,
    encoder_config,
    neighborhood_spec_from_name,
    prepare_dataset,
)
from pne.config import ExperimentConfig  # noqa: E402
from pne.datagen import (  # noqa: E402
    SHAPE_KINDS,
    SceneSpec,
    ShapePlacement,
    compose_scene,
    random_rotation,
    sample_shape,
)
from pne.geometry import PointCloud  # noqa: E402

import oracles  # noqa: E402
from clock import Clock  # noqa: E402
from tracer import END, NAME, OP, START, TAG, NullTracer, Tracer  # noqa: E402

NULL = NullTracer()
CLOCK = Clock()


def site_names(num_levels):
    names = [f"self{l}" for l in range(num_levels)]
    names += [f"down{l}" for l in range(num_levels - 1)]
    names += [f"up{l}" for l in range(num_levels - 1)]
    names += [f"direct{l}" for l in range(1, num_levels)]
    return names


class Run:
    """Failure bookkeeping shared by every phase of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, errors, step, cloud):
        """Count one oracle check; print each mismatch with its context."""
        self.attempted += 1
        if errors:
            self.failed += 1
            for msg in errors:
                print(f"perfbench FAIL workload={self.workload} step={step} cloud={cloud}: {msg}",
                      file=sys.stderr)

    def operation(self, ok, step, cloud, msg=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench FAIL workload={self.workload} step={step} cloud={cloud}: {msg}",
                  file=sys.stderr)


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _pctl(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def harrell_davis(values, q):
    """The q-th percentile as the Harrell-Davis estimator gives it: a
    Beta-weighted mean of all order statistics. It varies less from run to
    run than one or two order statistics do on a few dozen samples."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        return float("nan")
    p = q / 100.0
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


# ---------------------------------------------------------------- timing


def timed_setup(build, tracer):
    """Build once; returns the state and the (start, end) interval, with
    reference calibrations on both sides of it."""
    CLOCK.calibrate()
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        state = build(tracer or NULL)
    finally:
        if tracer:
            tracer.uninstall()
    t1 = time.perf_counter()
    CLOCK.calibrate()
    return state, (t0, t1)


def seconds(phases):
    return sum(t1 - t0 for t0, t1 in phases)


def latency_metrics(ops, work, normalize=True):
    """Percentiles of one operation's normalized time, and work per
    normalized second, over every timed operation of the run. `ops[i]`
    lists the (start, end) intervals of operation i's timed phases, and
    `work[i]` is the number of raw input points it processed."""
    times = [sum(CLOCK.normalize(op)) if normalize else seconds(op) for op in ops]
    return {
        "latency_ms_p50": harrell_davis(times, 50) * 1e3,
        "latency_ms_p90": harrell_davis(times, 90) * 1e3,
        "points_per_s": sum(work) / sum(times) if times else float("nan"),
    }


# ---------------------------------------------------------------- training


class Cell:
    """One embedding x neighborhood model with a fixed, repeatable
    trajectory: parameters and optimizer state are reset before every
    trajectory, so every trajectory does the same arithmetic."""

    def __init__(self, index, emb, nb, model, preps, cfg, seed, steps):
        self.label = f"{emb}/{nb}"
        self.nb = nb
        self.model = model
        self.preps = preps
        self.cfg = cfg
        self.params = model.params()
        self.init = {k: v.copy() for k, v in self.params.items()}
        self.batch = min(cfg.batch_size, len(preps))
        rng = np.random.default_rng([seed, index])
        self.batches = [rng.permutation(len(preps))[:self.batch] for _ in range(steps)]
        schedule = training.OneCycleSchedule(max_lr=cfg.max_lr, warmup_fraction=cfg.warmup_fraction,
                                             total_steps=steps)
        self.lrs = [training.onecycle_lr(schedule, s) for s in range(steps)]
        self.seed = (seed, index)
        self.warmup = None           # loss of the untimed first step
        self.reference = None        # losses of the first full trajectory

    def reset(self):
        for name, p in self.params.items():
            p[...] = self.init[name]
        self.state = training.AdamWState(weight_decay=self.cfg.weight_decay)
        self.rng = np.random.default_rng(self.seed)

    def step(self, s, tr):
        """One optimizer step; returns ([(start, end)], batch loss, logits)."""
        model = self.model
        batch = self.batches[s]
        seen = []
        loss_sum = 0.0
        t0 = time.perf_counter()
        with tr.span("op", self.label):
            with tr.span("network.params_grads"):
                model.zero_grads()
            for si in batch:
                prep = self.preps[si]
                logits = model.forward(prep, training=True, rng=self.rng)
                loss, d_logits = training.cross_entropy(logits, [prep.label])
                model.backward(d_logits / len(batch))
                loss_sum += loss / len(batch)
                seen.append(logits)
            with tr.span("network.params_grads"):
                grads = model.grads()
            training.clip_grad_norm(grads, self.cfg.clip_norm)
            training.adamw_step(self.state, self.params, grads, self.lrs[s])
        return [(t0, time.perf_counter())], loss_sum, seen

    def trajectory(self, run, tr, op_base, steps=None):
        """Reset and run the trajectory. Returns (step intervals, losses);
        losses is None when a step failed, which ends the trajectory."""
        self.reset()
        times, losses = [], []
        for s in range(steps or len(self.batches)):
            CLOCK.calibrate()
            tr.op = op_base + s
            try:
                span, loss, seen = self.step(s, tr)
            except Exception:
                run.operation(False, op_base + s, self.label, traceback.format_exc(limit=3))
                return times, None
            finally:
                tr.op = None
            ok = bool(np.isfinite(loss)) and _finite(*seen)
            run.operation(ok, op_base + s, self.label, "non-finite loss or logits")
            if not ok:
                return times, None
            times.append(span)
            losses.append(loss)
        return times, losses

    def check_repeat(self, run, losses, op, traced):
        """A repeated trajectory must redo the same arithmetic: catches
        state leaking across resets, and tracing that changes results."""
        if self.reference is None:
            self.reference = losses
            if self.warmup is not None:
                run.check([] if self.warmup == losses[0] else
                          [f"first-step loss {losses[0]!r} != warm-up {self.warmup!r}"],
                          op, self.label)
            return
        run.check([] if losses == self.reference else
                  [f"{'traced' if traced else 'untraced'} trajectory losses {losses} "
                   f"!= first {self.reference}"], op, self.label)


def training_clouds(seed, per_class, n_points, noise):
    """The training set: `per_class` clouds of each shape kind, made as
    make_classification_dataset makes them (points sampled on the surface,
    randomly rotated, scaled within 0.8-1.2).

    Step cost follows the clouds' surface area, so the scales are planned
    instead of drawn: the clouds of a class take evenly spaced scales from
    a seeded offset, which keeps the per-run figures independent of the
    sizes a seed happens to draw. Rotations and point samples come from
    the seed."""
    offsets = np.random.default_rng([seed, 404]).uniform(size=len(SHAPE_KINDS))
    out = []
    for class_id, kind in enumerate(SHAPE_KINDS):
        for j in range(per_class):
            rng = np.random.default_rng([seed, class_id, j])
            cloud = sample_shape(kind, n_points, noise, seed=rng.integers(2**31))
            pts = cloud.positions @ random_rotation(rng).T
            pts = pts * (0.8 + 0.4 * (j + offsets[class_id]) / per_class)
            out.append((PointCloud(pts), class_id))
    return out


def setup_train(embeddings, seed, size, tr):
    cfg = ExperimentConfig()
    with tr.span("datagen.build"):
        train_raw = training_clouds(seed, size["train_per_class"], size["points"], cfg.noise_sigma)
    models = {}
    for nb in NEIGHBORHOODS:
        for emb in embeddings:
            enc = encoder_config(cfg, embedding_spec_from_name(emb, cfg),
                                 neighborhood_spec_from_name(nb, cfg))
            models[(emb, nb)] = network.ClassificationNetwork(enc, len(SHAPE_KINDS), seed=MODEL_SEED)
    # sites do not depend on the embedding: one preparation per neighborhood
    preps = {}
    for nb in NEIGHBORHOODS:
        with tr.span("network.prepare"):
            preps[nb] = prepare_dataset(models[(embeddings[0], nb)], train_raw, segmentation=False)
    return cfg, models, preps


def measure_train(run, state, embeddings, args, size, tracer):
    cfg, models, preps = state
    crng = np.random.default_rng([args.seed, 101])
    for nb in NEIGHBORHOODS:
        model = models[(embeddings[0], nb)]
        picks = crng.choice(len(preps[nb]), size=min(size["neighbor_clouds"], len(preps[nb])),
                            replace=False)
        for ci in picks:
            errors = oracles.check_neighbors(preps[nb][ci], model.config, crng, size["neighbor_queries"])
            run.check(errors, "setup", f"{nb}#{ci}")

    cells = [Cell(i, emb, nb, models[(emb, nb)], preps[nb], cfg, args.seed, size["trajectory_steps"])
             for i, (emb, nb) in enumerate((e, n) for n in NEIGHBORHOODS for e in embeddings)]

    # warm-up: the first step of every cell, untimed
    for cell in cells:
        _, losses = cell.trajectory(run, NULL, -1, steps=1)
        cell.warmup = losses[0] if losses else None

    times = []
    overhead = []
    traced_ops = set()
    op = 0
    rounds = 0
    measured = 0.0
    # whole rounds: the number that comes nearest to --seconds, at least one
    while rounds == 0 or measured + 0.5 * measured / rounds < args.seconds:
        for cell in cells:
            order = ((False, True) if rounds % 2 == 0 else (True, False)) if tracer else (False,)
            pair = {}
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    step_times, losses = cell.trajectory(run, tracer if traced else NULL, op)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    traced_ops.update(range(op, op + len(step_times)))
                else:
                    times.extend(step_times)
                pair[traced] = sum(seconds(phases) for phases in step_times)
                op += len(cell.batches)
                measured += pair[traced]
                if losses is not None:
                    cell.check_repeat(run, losses, op, traced)
            if len(pair) == 2 and pair[False] > 0:
                overhead.append(pair[True] / pair[False] - 1.0)
        rounds += 1
    CLOCK.calibrate()

    for ci, cell in enumerate(cells):
        prep = cell.preps[int(cell.batches[0][0])]
        with oracles.ConvRecorder(network.ConvModule) as rec:
            cell.model.forward(prep, training=False)
        errors = oracles.check_conv(rec.calls, np.random.default_rng([args.seed, 202, ci]),
                                    size["conv_queries"])
        run.check(errors, "final", cell.label)

    e2e = latency_metrics(times, [cells[0].batch * size["points"]] * len(times))
    wall = latency_metrics(times, [cells[0].batch * size["points"]] * len(times), normalize=False)
    finals = [c.reference[-1] for c in cells if c.reference]
    e2e["loss_final"] = float(np.mean(finals)) if finals else float("nan")
    learnable = sum(1 for e in embeddings if e.startswith("mlp:"))
    all_preps = [p for nb in NEIGHBORHOODS for p in preps[nb]]
    inputs = input_properties([summarize(p) for p in all_preps], len(cfg.widths))
    inputs["fixed_embedding_pair_share"] = 1.0 - learnable / len(embeddings)
    inputs["knn_op_share"] = sum(c.nb == "knn" for c in cells) / len(cells)
    inputs["ball_query_op_share"] = sum(c.nb == "ball_query" for c in cells) / len(cells)
    report = {
        "aliases": {
            "train_samples_per_s": e2e["points_per_s"] / size["points"],
            "step_ms_p50": e2e["latency_ms_p50"],
            "step_ms_p90": e2e["latency_ms_p90"],
            "train_loss_final": e2e["loss_final"],
        },
        "timing": {"timed_steps": len(times), "rounds": rounds, "batch_size": cells[0].batch,
                   "wall": wall},
        "inputs": inputs,
    }
    return e2e, report, traced_ops, overhead, cfg


def run_train(run, embeddings, args, size):
    tracer = Tracer() if args.trace else None

    def build(tr):
        return setup_train(embeddings, args.seed, size, tr)

    state, first = timed_setup(build, tracer)
    clouds_per_setup = sum(len(v) for v in state[2].values())
    e2e, report, traced_ops, overhead, cfg = measure_train(run, state, embeddings, args, size, tracer)
    del state
    return finish(size["setup_reps"], tracer, build, first, e2e, report, traced_ops, overhead,
                  cfg, clouds_per_setup)


def finish(setup_reps, tracer, build, first_setup, e2e, report, traced_ops, overhead, cfg,
           clouds_per_setup):
    """Repeat the set-up (spread over the run, so the median does not sit
    in one machine state), then assemble the metrics."""
    setup_spans = [first_setup] + [timed_setup(build, tracer)[1]
                                   for _ in range(setup_reps - 1)]
    setup_times = CLOCK.normalize(setup_spans)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb()
    report["timing"]["setup_s_all"] = setup_times
    report["timing"]["wall"]["setup_s_all"] = [t1 - t0 for t0, t1 in setup_spans]
    report["timing"]["reference_ms"] = [1e3 * d for d in CLOCK.durations]
    layers = None
    if tracer:
        clouds = clouds_per_setup * len(setup_times) if clouds_per_setup else len(traced_ops)
        layers = layer_metrics(tracer, traced_ops, clouds, len(setup_times), cfg, overhead)
        report["shares"] = layer_shares(tracer, traced_ops)
    return e2e, layers, report, tracer


# --------------------------------------------------------------- inference


def scene_for(index, seed, shape_points, noise):
    """Scene `index` of a run: 2-4 shapes placed as make_segmentation_dataset
    places them (3 apart along x, jittered, scaled within 0.8-1.2, randomly
    rotated).

    Request cost follows the scene's surface area, so the mix is planned
    instead of drawn: scene i has 2 + (i // 2) % 3 shapes with kinds
    rotating through the four classes, and scales follow a golden-ratio
    sequence from a seeded offset, which covers 0.8-1.2 evenly. Positions,
    rotations and point samples come from the seed."""
    rng = np.random.default_rng([seed, index])
    k = 2 + (index // 2) % 3
    kinds = [SHAPE_KINDS[(index + j) % len(SHAPE_KINDS)] for j in range(k)]
    offset = np.random.default_rng(seed).uniform()
    placements = []
    for j, kind in enumerate(kinds):
        u = (offset + (4 * index + j) * GOLDEN) % 1.0
        placements.append(ShapePlacement(
            kind=kind,
            position=np.array([3.0 * j, 0.0, 0.0]) + rng.uniform(-0.3, 0.3, size=3),
            scale=0.8 + 0.4 * u,
            rotation=random_rotation(rng),
        ))
    scene = compose_scene(SceneSpec(placements), shape_points, noise, seed=rng.integers(2**31))
    class_ids = np.array([SHAPE_KINDS.index(kind) for kind in kinds], dtype=np.int64)
    return PointCloud(scene.positions, labels=class_ids[scene.labels])


def request_model(index):
    """(embedding, neighborhood) of request `index`: neighborhoods alternate
    every request, embeddings every sixth, so in every cycle of twelve
    each shape count meets every (embedding, neighborhood) pair once."""
    return INFER_EMBEDDINGS[(index // 6) % 2], NEIGHBORHOODS[index % 2]


def request_scene(scenes, index, cfg):
    """The scene of request `index`. Past the end of the pool the scenes
    come back moved along x by a multiple of the coarsest pyramid cell, so
    no two requests receive the same input but the cost stays the same."""
    base = scenes[index % len(scenes)]
    lap = index // len(scenes)
    if lap == 0:
        return base
    step = cfg.initial_cell * 2.0 ** (len(cfg.widths) - 1)
    return PointCloud(base.positions + np.array([lap * 4 * step, 0.0, 0.0]),
                      labels=base.labels.copy())


def setup_infer(seed, size, tr):
    cfg = ExperimentConfig()
    cfg.task = "segmentation"
    with tr.span("datagen.build"):
        scenes = [scene_for(i, seed, size["scene_shape_points"], cfg.noise_sigma)
                  for i in range(size["scene_pool"])]
    models = {}
    for emb in INFER_EMBEDDINGS:
        for nb in NEIGHBORHOODS:
            enc = encoder_config(cfg, embedding_spec_from_name(emb, cfg),
                                 neighborhood_spec_from_name(nb, cfg))
            models[(emb, nb)] = network.SegmentationNetwork(enc, len(SHAPE_KINDS), seed=MODEL_SEED)
    return cfg, scenes, models


def infer_request(model, scene, tr, label):
    """One request; returns the (start, end) intervals of its two phases,
    prepare and forward, the prepared scene and the logits. Untraced, a
    reference calibration runs between the phases, outside both: the
    nearer the calibrations, the closer the speed they give."""
    with tr.span("op", label):
        t0 = time.perf_counter()
        with tr.span("network.prepare"):
            prep = model.prepare(scene)
        t1 = time.perf_counter()
        if tr is NULL:
            CLOCK.calibrate()
        t2 = time.perf_counter()
        with tr.span("network.forward"):
            logits = model.forward(prep)
        t3 = time.perf_counter()
    return [(t0, t1), (t2, t3)], prep, logits


def mean_cross_entropy(logits, labels):
    shifted_logits = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted_logits).sum(axis=1))
    return float(np.mean(logz - shifted_logits[np.arange(len(labels)), labels]))


def measure_infer(run, state, args, size, tracer):
    cfg, scenes, models = state
    emb, nb = request_model(0)
    infer_request(models[(emb, nb)], scenes[0], NULL, "warmup")

    times, points, overhead, losses, summaries = [], [], [], [], []
    traced_ops, conv_checked = set(), set()
    fixed_pairs = total_pairs = 0
    measured = 0.0
    r = 0
    # whole cycles only, so loss_final and the mix never depend on speed
    while r == 0 or r % REQUEST_CYCLE or measured < args.seconds:
        emb, nb = request_model(r)
        model = models[(emb, nb)]
        scene = request_scene(scenes, r, cfg)
        cloud_id = f"scene#{r}"
        order = ((False, True) if r % 2 == 0 else (True, False)) if tracer else (False,)
        out = {}
        for traced in order:
            CLOCK.calibrate()
            if traced:
                tracer.op = r
                tracer.install()
            try:
                out[traced] = infer_request(model, scene, tracer if traced else NULL, f"{emb}/{nb}")
            except Exception:
                out[traced] = None
                run.operation(False, r, cloud_id, traceback.format_exc(limit=3))
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.op = None
        r += 1
        CLOCK.calibrate()
        if any(v is None for v in out.values()):
            continue
        phases, prep, logits = out[False]
        dt = seconds(phases)
        measured += dt
        ok = _finite(logits) and logits.shape == (len(prep.clouds[0]), len(SHAPE_KINDS))
        run.operation(ok, r - 1, cloud_id, f"non-finite or misshaped logits {logits.shape}")
        times.append(phases)
        points.append(len(scene))
        if tracer:
            traced_ops.add(r - 1)
            traced_dt = seconds(out[True][0])
            measured += traced_dt
            overhead.append(traced_dt / dt - 1.0)
            run.check([] if np.array_equal(out[True][2], logits) else
                      ["traced logits differ from untraced logits"], r - 1, cloud_id)
        summaries.append(summarize(prep))
        total_pairs += summaries[-1]["pairs"]
        fixed_pairs += 0 if emb.startswith("mlp:") else summaries[-1]["pairs"]
        if r <= REQUEST_CYCLE:
            losses.append(mean_cross_entropy(logits, prep.clouds[0].labels))
        crng = np.random.default_rng([args.seed, 303, r])
        run.check(oracles.check_neighbors(prep, model.config, crng, size["neighbor_queries"]),
                  r - 1, cloud_id)
        if (emb, nb) not in conv_checked:
            conv_checked.add((emb, nb))
            with oracles.ConvRecorder(network.ConvModule) as rec:
                again = model.forward(prep)
            errors = oracles.check_conv(rec.calls, crng, size["conv_queries"])
            if not np.array_equal(again, logits):
                errors.append("repeated forward on the same prepared scene gave other logits")
            run.check(errors, r - 1, cloud_id)
        del prep, logits, out

    e2e = latency_metrics(times, points)
    wall = latency_metrics(times, points, normalize=False)
    e2e["loss_final"] = float(np.mean(losses)) if losses else float("nan")
    inputs = input_properties(summaries, len(cfg.widths))
    inputs["raw_points_p50"] = _pctl(points, 50)
    inputs["raw_points_max"] = max(points) if points else 0
    inputs["fixed_embedding_pair_share"] = fixed_pairs / total_pairs if total_pairs else float("nan")
    inputs["knn_op_share"] = sum(request_model(i)[1] == "knn" for i in range(r)) / max(1, r)
    inputs["ball_query_op_share"] = 1.0 - inputs["knn_op_share"]
    report = {
        "aliases": {
            "infer_ms_p50": e2e["latency_ms_p50"],
            "infer_ms_p90": e2e["latency_ms_p90"],
            "infer_points_per_s": e2e["points_per_s"],
        },
        "timing": {"timed_requests": len(times), "wall": wall},
        "inputs": inputs,
    }
    return e2e, report, traced_ops, overhead, cfg


def run_infer(run, args, size):
    tracer = Tracer() if args.trace else None

    def build(tr):
        return setup_infer(args.seed, size, tr)

    state, first = timed_setup(build, tracer)
    e2e, report, traced_ops, overhead, cfg = measure_infer(run, state, args, size, tracer)
    del state
    return finish(size["infer_setup_reps"], tracer, build, first, e2e, report, traced_ops,
                  overhead, cfg, 0)


# ------------------------------------------------------------------ output


def summarize(prep):
    """Sizes of one prepared cloud: points per level and pairs per site."""
    sites = {name: len(site.neighbors.indices) for name, site in prep.sites.items()}
    return {"levels": [len(c) for c in prep.clouds], "sites": sites, "pairs": sum(sites.values())}


def input_properties(summaries, num_levels):
    out = {"clouds": len(summaries),
           "pairs_per_cloud": float(np.mean([s["pairs"] for s in summaries])) if summaries else 0.0}
    for lvl in range(num_levels):
        sizes = [s["levels"][lvl] for s in summaries]
        out[f"level{lvl}_points_p50"] = _pctl(sizes, 50)
        out[f"level{lvl}_points_max"] = max(sizes) if sizes else 0
    for name in site_names(num_levels):
        counts = [s["sites"][name] for s in summaries if name in s["sites"]]
        if counts:
            out[f"{name}_pairs_mean"] = float(np.mean(counts))
    return out


def layer_metrics(tracer, ops, clouds, setup_reps, cfg, overhead):
    """Per-layer metrics from the spans: layer self time per op (step or
    request), geometry per prepared cloud, data generation per set-up."""
    n_ops = max(1, len(ops))
    on_ops = tracer.totals(ops)
    everywhere = tracer.totals()
    per_cloud = max(1, clouds)

    def self_ms(totals, name, tag=Ellipsis, per=n_ops):
        return 1e3 * sum(v[1] for (n, t), v in totals.items()
                         if n == name and (tag is Ellipsis or t == tag)) / per

    def count(totals, name):
        return sum(v[0] for (n, _), v in totals.items() if n == name)

    m = {
        "datagen.build_ms": self_ms(everywhere, "datagen.build", per=max(1, setup_reps)),
        "geometry.subsample_ms": self_ms(everywhere, "geometry.subsample", per=per_cloud),
        "geometry.knn_ms": self_ms(everywhere, "geometry.knn", per=per_cloud),
        "geometry.ball_query_ms": self_ms(everywhere, "geometry.ball_query", per=per_cloud),
        "pointconv.make_site_ms": self_ms(everywhere, "pointconv.make_site", per=per_cloud),
        "pointconv.fwd_self_ms": self_ms(on_ops, "pointconv.fwd"),
        "pointconv.bwd_self_ms": self_ms(on_ops, "pointconv.bwd"),
    }
    for name in site_names(len(cfg.widths)):
        m[f"pointconv.fwd_self_ms.{name}"] = self_ms(on_ops, "pointconv.fwd", name)
        m[f"pointconv.bwd_self_ms.{name}"] = self_ms(on_ops, "pointconv.bwd", name)
    m.update({
        "embeddings.embed_ms": self_ms(on_ops, "embeddings.embed"),
        "embeddings.embed_calls": count(on_ops, "embeddings.embed") / n_ops,
        "embeddings.grad_params_ms": self_ms(on_ops, "embeddings.grad_params"),
        "network.linear_ms": self_ms(on_ops, "network.linear"),
        "network.layernorm_ms": self_ms(on_ops, "network.layernorm"),
        "network.params_grads_ms": self_ms(on_ops, "network.params_grads"),
        "training.cross_entropy_ms": self_ms(on_ops, "training.cross_entropy"),
        "training.clip_ms": self_ms(on_ops, "training.clip"),
        "training.adamw_ms": self_ms(on_ops, "training.adamw"),
        # traced vs untraced time of the same operation, run back to back
        "trace.overhead_frac": statistics.median(overhead) if overhead else float("nan"),
    })
    return m


def layer_shares(tracer, ops):
    """Inclusive share of each op's time spent in conv, embedding and
    neighbor search, per op label (embedding/neighborhood)."""
    by_op = {}
    for rec in tracer.spans:
        if rec[OP] in ops:
            by_op.setdefault(rec[OP], []).append(rec)
    acc = {}
    for recs in by_op.values():
        root = [r for r in recs if r[NAME] == "op"]
        if not root:
            continue
        label = root[0][TAG]
        total = root[0][END] - root[0][START]
        a = acc.setdefault(label, {"op_ms": 0.0, "conv": 0.0, "embed": 0.0, "knn": 0.0,
                                   "ball_query": 0.0, "ops": 0})
        a["ops"] += 1
        a["op_ms"] += total * 1e3
        for r in recs:
            d = r[END] - r[START]
            if r[NAME] in ("pointconv.fwd", "pointconv.bwd"):
                a["conv"] += d / total
            elif r[NAME] == "embeddings.embed":
                a["embed"] += d / total
            elif r[NAME] == "geometry.knn":
                a["knn"] += d / total
            elif r[NAME] == "geometry.ball_query":
                a["ball_query"] += d / total
    return {label: {k: (v / a["ops"] if k != "ops" else v) for k, v in a.items()}
            for label, a in sorted(acc.items())}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # provenance must not fail a run
        return {"error": repr(exc)}


def git_info():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"revision": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=10,
                                check=True).stdout
        return {"revision": rev, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}


def provenance(args, argv):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git": git_info(),
        "argv": list(argv),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def _clean(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


UNITS = {
    "setup_s": "s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
    "points_per_s": "points/s", "loss_final": "nats", "peak_rss_mb": "MB",
    "failed_frac": "ratio", "trace.overhead_frac": "ratio",
    "embeddings.embed_calls": "count", "geometry.pairs": "count",
}


def unit_of(name):
    return UNITS.get(name) or ("ms" if "_ms" in name else "count")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'tiny' is for the benchmark's own tests")
    ap.add_argument("--spans", help="write the traced run's spans to this JSONL file")
    return ap.parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    size = SIZES[args.size]
    run = Run(args.workload)
    if args.workload == "train_fixed":
        e2e, layers, report, tracer = run_train(run, FIXED_EMBEDDINGS, args, size)
    elif args.workload == "train_mlp":
        e2e, layers, report, tracer = run_train(run, MLP_EMBEDDINGS, args, size)
    else:
        e2e, layers, report, tracer = run_infer(run, args, size)
    if tracer is not None and args.spans:
        tracer.write_jsonl(args.spans)

    report["workload"] = args.workload
    report["provenance"] = provenance(args, [sys.argv[0]] + list(argv))
    failed_frac = run.failed / max(1, run.attempted)
    if args.trace:
        layers["geometry.pairs"] = report["inputs"].get("pairs_per_cloud", float("nan"))
        layers["failed_frac"] = failed_frac
        metrics = layers
    else:
        report["failed_frac"] = failed_frac
        metrics = e2e
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": _clean(float(v)), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps({"report": _clean(report)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
