"""Optimization recipe: AdamW with decoupled weight decay, one-cycle
learning-rate schedule, global gradient-norm clipping, cross-entropy loss,
and confusion-matrix metrics (overall accuracy, mean class accuracy, mean
IoU). Plus the deterministic training loop used by the benchmark harness
and `evaluate`, which read the task from the network: its `num_classes`
and `targets(prep)`, the labels its logits are scored against."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, StatisticsError, TrainingFault

# one-cycle lr: the start divides max_lr, the end divides the start
ONECYCLE_DIV = 10.0
ONECYCLE_FINAL_DIV = 1000.0

# AdamW moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OneCycleSchedule:
    """Cosine ramp from max_lr/ONECYCLE_DIV to max_lr over the warmup
    fraction, then cosine decay to (max_lr/ONECYCLE_DIV)/ONECYCLE_FINAL_DIV.
    The final divisor divides the *initial* lr, the common convention."""

    max_lr: float = 0.005
    warmup_fraction: float = 0.3
    total_steps: int = 1000

    def __post_init__(self):
        if self.max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0, 1)")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def onecycle_lr(schedule, step):
    if step > schedule.total_steps:
        raise ValueError(f"step {step} beyond total_steps {schedule.total_steps}")
    initial = schedule.max_lr / ONECYCLE_DIV
    final = initial / ONECYCLE_FINAL_DIV
    warmup_steps = schedule.warmup_fraction * schedule.total_steps
    # convex-combination form so the endpoints are hit exactly
    if step <= warmup_steps:
        w = 0.5 * (1.0 - np.cos(np.pi * step / warmup_steps))
        return float(initial * (1.0 - w) + schedule.max_lr * w)
    w = 0.5 * (1.0 - np.cos(np.pi * (step - warmup_steps) / (schedule.total_steps - warmup_steps)))
    return float(schedule.max_lr * (1.0 - w) + final * w)


def clip_grad_norm(grads, max_norm):
    """Scale all gradients in the dict so the global L2 norm is at most
    max_norm. Returns (grads, total_norm). Raises on non-finite values."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingFault("non-finite gradient", tensor=name)
        total += float(np.sum(np.square(g)))
    total_norm = float(np.sqrt(total))
    if total_norm > max_norm:
        scale = max_norm / total_norm
        for g in grads.values():
            g *= scale
    return grads, total_norm


@dataclass
class AdamWState:
    weight_decay: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(state, params, grads, lr):
    """One AdamW update, in place. Weight decay is decoupled from the
    adaptive step (p -= lr * wd * p)."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingFault("non-finite gradient", step=t, tensor=name)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        if state.weight_decay:
            p -= lr * state.weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise TrainingFault("non-finite parameter", step=t, tensor=name)
    return params


def cross_entropy(logits, labels):
    """Mean negative log softmax likelihood with max-subtraction
    stabilization. Returns (loss, d_logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels length must match logits rows")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    soft = np.exp(shifted - logz[:, None])
    soft[np.arange(n), labels] -= 1.0
    return loss, soft / n


class Metrics:
    """Point/sample-wise confusion matrix; rows = ground truth."""

    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.confusion = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, predictions, labels):
        predictions = np.asarray(predictions, dtype=np.int64).ravel()
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if predictions.shape != labels.shape:
            raise ShapeError(f"{len(predictions)} predictions for {len(labels)} labels")
        for name, values in (("label", labels), ("prediction", predictions)):
            bad = (values < 0) | (values >= self.num_classes)
            if bad.any():
                raise ValueError(f"{name} {values[bad][0]} outside [0, {self.num_classes})")
        flat = labels * self.num_classes + predictions
        self.confusion += np.bincount(flat, minlength=self.num_classes**2).reshape(
            self.num_classes, self.num_classes
        )


def metrics_compute(metrics):
    """(overall accuracy, mean class accuracy, mean IoU).

    mAcc averages over classes with at least one ground-truth sample; mIoU
    averages over classes present in ground truth or predictions (0/0
    classes excluded)."""
    conf = metrics.confusion
    total = conf.sum()
    if total == 0:
        raise StatisticsError("empty confusion matrix")
    tp = np.diag(conf).astype(np.float64)
    gt = conf.sum(axis=1).astype(np.float64)
    pred = conf.sum(axis=0).astype(np.float64)
    oa = float(tp.sum() / total)
    present_gt = gt > 0
    macc = float(np.mean(tp[present_gt] / gt[present_gt]))
    union = gt + pred - tp
    present = union > 0
    miou = float(np.mean(tp[present] / union[present]))
    return oa, macc, miou


@dataclass
class TrainConfig:
    """The recipe's settings, declared once: `ExperimentConfig` extends it."""

    epochs: int = 50
    batch_size: int = 16
    max_lr: float = 0.005
    warmup_fraction: float = 0.3
    weight_decay: float = 1e-4
    clip_norm: float = 100.0
    early_stop_oa: float = None  # stop once eval OA reaches this


def evaluate(model, samples):
    """(overall accuracy, mean class accuracy, mean IoU) of `model` on the
    prepared `samples`, against `model.targets`."""
    metrics = Metrics(model.num_classes)
    for prep in samples:
        logits = model.forward(prep, training=False)
        metrics.update(logits.argmax(axis=1), model.targets(prep))
    return metrics_compute(metrics)


def train_loop(model, train_set, test_set, config, seed=0, log_path=None):
    """Deterministic training loop over prepared samples.

    The model owns its task: `model.targets(prep)` gives the labels of its
    logits and `model.num_classes` sizes the metrics, so one loop trains a
    classification or a segmentation network. `config` is a TrainConfig (an
    ExperimentConfig is one). Logs one CSV line per epoch:
    epoch,step,lr,train_loss,eval_oa,eval_macc,eval_miou.
    Returns (params, per-epoch log rows)."""
    rng = np.random.default_rng(seed)
    params = model.params()
    state = AdamWState(weight_decay=config.weight_decay)
    steps_per_epoch = max(1, int(np.ceil(len(train_set) / config.batch_size)))
    schedule = OneCycleSchedule(
        max_lr=config.max_lr,
        warmup_fraction=config.warmup_fraction,
        total_steps=config.epochs * steps_per_epoch,
    )
    log = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            model.zero_grads()
            batch_loss = 0.0
            for si in batch:
                prep = train_set[si]
                logits = model.forward(prep, training=True, rng=rng)
                loss, d_logits = cross_entropy(logits, model.targets(prep))
                model.backward(d_logits / len(batch))
                batch_loss += loss / len(batch)
            grads = model.grads()
            clip_grad_norm(grads, config.clip_norm)
            lr = onecycle_lr(schedule, step)
            adamw_step(state, params, grads, lr)
            losses.append(batch_loss)
            step += 1
        oa, macc, miou = evaluate(model, test_set)
        log.append({
            "epoch": epoch,
            "step": step,
            "lr": onecycle_lr(schedule, min(step, schedule.total_steps)),
            "train_loss": float(np.mean(losses)),
            "eval_oa": oa,
            "eval_macc": macc,
            "eval_miou": miou,
        })
        if config.early_stop_oa is not None and oa >= config.early_stop_oa:
            break
    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(log[0].keys()))
            writer.writeheader()
            writer.writerows(log)
    return params, log
