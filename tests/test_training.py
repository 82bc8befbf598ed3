import warnings

import numpy as np
import pytest

from pne import numerics
from pne.errors import ShapeError, StatisticsError, TrainingFault
from pne.training import (
    ONECYCLE_DIV,
    AdamWState,
    Metrics,
    OneCycleSchedule,
    TrainConfig,
    adamw_step,
    clip_grad_norm,
    cross_entropy,
    evaluate,
    metrics_compute,
    onecycle_lr,
    train_loop,
)


def test_onecycle_endpoints():
    s = OneCycleSchedule(max_lr=0.005, warmup_fraction=0.3, total_steps=1000)
    assert onecycle_lr(s, 0) == pytest.approx(5e-4, rel=0, abs=0)
    assert onecycle_lr(s, 300) == pytest.approx(0.005, rel=0, abs=0)
    assert onecycle_lr(s, 1000) == pytest.approx(5e-7, rel=0, abs=0)


def test_onecycle_continuity():
    s = OneCycleSchedule(total_steps=200)
    lrs = [onecycle_lr(s, t) for t in range(201)]
    # bounded by the analytic cosine slope bound on each phase
    warm = int(0.3 * 200)
    bound_w = (s.max_lr - s.max_lr / ONECYCLE_DIV) * np.pi / (2 * warm)
    bound_d = s.max_lr * np.pi / (2 * (200 - warm))
    diffs = np.abs(np.diff(lrs))
    assert diffs.max() <= max(bound_w, bound_d) + 1e-12
    assert max(lrs) == pytest.approx(s.max_lr)


def test_onecycle_validation():
    with pytest.raises(ValueError):
        OneCycleSchedule(max_lr=0.0)
    with pytest.raises(ValueError, match="total_steps"):
        OneCycleSchedule(total_steps=0)
    with pytest.raises(ValueError):
        OneCycleSchedule(warmup_fraction=1.0)
    with pytest.raises(ValueError):
        onecycle_lr(OneCycleSchedule(total_steps=10), 11)


def test_clip_grad_norm():
    grads = {"a": np.array([120.0, 160.0])}  # norm 200
    _, norm = clip_grad_norm(grads, 100.0)
    assert norm == pytest.approx(200.0)
    assert np.allclose(grads["a"], [60.0, 80.0])
    grads = {"a": np.array([30.0, 40.0])}  # norm 50
    _, norm = clip_grad_norm(grads, 100.0)
    assert norm == pytest.approx(50.0)
    assert np.allclose(grads["a"], [30.0, 40.0])
    grads = {"a": np.zeros(3)}
    _, norm = clip_grad_norm(grads, 100.0)
    assert norm == 0.0
    with pytest.raises(TrainingFault):
        clip_grad_norm({"bad": np.array([np.nan])}, 100.0)
    with pytest.raises(ValueError):
        clip_grad_norm({}, 0.0)


def test_adamw_zero_grad_zero_decay():
    state = AdamWState(weight_decay=0.0)
    params = {"p": np.array([1.0, -2.0])}
    adamw_step(state, params, {"p": np.zeros(2)}, lr=0.1)
    assert np.array_equal(params["p"], [1.0, -2.0])


def test_adamw_first_step_magnitude():
    state = AdamWState(weight_decay=0.0)
    params = {"p": np.array([0.0])}
    adamw_step(state, params, {"p": np.array([1.0])}, lr=0.1)
    assert params["p"][0] == pytest.approx(-0.1, abs=1e-6)


def test_adamw_weight_decay_geometric():
    state = AdamWState(weight_decay=0.01)
    params = {"p": np.array([1.0])}
    lr = 0.5
    for t in range(5):
        adamw_step(state, params, {"p": np.zeros(1)}, lr=lr)
    assert params["p"][0] == pytest.approx((1 - lr * 0.01) ** 5)


def test_adamw_quadratic_monotone():
    # start far enough from the optimum that 100 steps of size <= lr never
    # cross it (Adam oscillates once it reaches the minimum)
    state = AdamWState(weight_decay=0.0)
    params = {"x": np.array([15.0])}
    losses = []
    for _ in range(100):
        g = 2.0 * params["x"]
        losses.append(float(params["x"][0] ** 2))
        adamw_step(state, params, {"x": g}, lr=0.1)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_adamw_nonfinite_fault():
    state = AdamWState()
    with pytest.raises(TrainingFault) as err:
        adamw_step(state, {"w": np.zeros(1)}, {"w": np.array([np.inf])}, lr=0.1)
    assert err.value.tensor == "w"


def test_cross_entropy_uniform():
    loss, d = cross_entropy(np.zeros((3, 4)), [0, 1, 2])
    assert loss == pytest.approx(np.log(4))
    assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_confident():
    loss, _ = cross_entropy(np.array([[10.0, -10.0]]), [0])
    assert loss == pytest.approx(2e-9, abs=1e-9)


def test_cross_entropy_errors():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [0])
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 3)), [3])


def test_metrics_perfect():
    m = Metrics(3)
    m.update([0, 1, 2], [0, 1, 2])
    oa, macc, miou = metrics_compute(m)
    assert oa == macc == miou == 1.0


def test_metrics_hand_values():
    m = Metrics(2)
    m.confusion = np.array([[3, 1], [1, 3]])
    oa, macc, miou = metrics_compute(m)
    assert oa == pytest.approx(0.75)
    assert macc == pytest.approx(0.75)
    assert miou == pytest.approx(0.6)


def test_metrics_absent_class_excluded():
    m = Metrics(3)
    m.update([0, 1], [0, 1])  # class 2 never appears
    oa, macc, miou = metrics_compute(m)
    assert oa == macc == miou == 1.0


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 4, size=100)
    gt = rng.integers(0, 4, size=100)
    m1 = Metrics(4)
    m1.update(pred, gt)
    perm = rng.permutation(100)
    m2 = Metrics(4)
    m2.update(pred[perm], gt[perm])
    assert np.array_equal(m1.confusion, m2.confusion)


def test_metrics_update_rejects_out_of_range():
    m = Metrics(4)
    with pytest.raises(ValueError, match="prediction 5 outside"):
        m.update([5], [0])
    with pytest.raises(ValueError, match="label -1 outside"):
        m.update([0], [-1])
    with pytest.raises(ShapeError):
        m.update([0, 1, 2], [0])
    assert not m.confusion.any()


def test_metrics_empty_raises():
    with pytest.raises(StatisticsError):
        metrics_compute(Metrics(2))


def _toy_setup(n_samples=10, seed=0):
    from pne.datagen import make_classification_dataset
    from pne.network import ClassificationNetwork, EmbeddingSpec, EncoderConfig, NeighborhoodSpec

    cfg = EncoderConfig(
        initial_cell=0.3, widths=[8, 8], blocks=[1, 1],
        neighborhood=NeighborhoodSpec("ball_query", scale=2.0),
        embedding=EmbeddingSpec("kp:gaussian"),
        embed_dim=8,
    )
    train, test = make_classification_dataset(
        n_per_class_train=max(1, n_samples // 4), n_per_class_test=1,
        n_points=64, seed=seed)
    model = ClassificationNetwork(cfg, num_classes=4, seed=seed)
    preps = []
    for cloud, label in train:
        p = model.prepare(cloud)
        p.label = label
        preps.append(p)
    test_preps = []
    for cloud, label in test:
        p = model.prepare(cloud)
        p.label = label
        test_preps.append(p)
    return model, preps, test_preps


def test_train_loop_deterministic():
    tc = TrainConfig(epochs=2, batch_size=4)
    model1, train, test = _toy_setup()
    p1, log1 = train_loop(model1, train, test, tc, seed=7)
    model2, train2, test2 = _toy_setup()
    p2, log2 = train_loop(model2, train2, test2, tc, seed=7)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert log1 == log2


def test_train_loop_lr_starts_at_schedule_start():
    tc = TrainConfig(epochs=2, batch_size=4)
    model, train, test = _toy_setup(seed=1)
    sched = OneCycleSchedule(max_lr=tc.max_lr, warmup_fraction=tc.warmup_fraction,
                             total_steps=2 * 3)
    assert onecycle_lr(sched, 0) == pytest.approx(5e-4)


def test_memorization_overfit():
    """Loss on a 10-sample task falls below 0.01 within 200 steps."""
    model, train, _ = _toy_setup(n_samples=10, seed=2)
    tc = TrainConfig(epochs=200, batch_size=10, max_lr=0.005, weight_decay=0.0)
    _, log = train_loop(model, train, train[:2], tc, seed=3)
    assert min(row["train_loss"] for row in log) < 0.01
    # and it got there within 200 optimizer steps (1 step per epoch here)
    assert any(row["train_loss"] < 0.01 for row in log if row["step"] <= 200)


def test_train_loop_csv_log(tmp_path):
    tc = TrainConfig(epochs=2, batch_size=4)
    model, train, test = _toy_setup(seed=4)
    path = tmp_path / "log.csv"
    train_loop(model, train, test, tc, seed=5, log_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,step,lr,train_loss,eval_oa,eval_macc,eval_miou"
    assert len(lines) == 3


def test_early_stop():
    model, train, test = _toy_setup(seed=6)
    tc = TrainConfig(epochs=50, batch_size=4, early_stop_oa=0.0)
    _, log = train_loop(model, train, test, tc, seed=6)
    assert len(log) == 1  # any OA >= 0 stops after the first epoch


def test_train_loop_reads_the_task_from_the_model():
    """A segmentation network trains and is evaluated through the same calls
    as a classifier: its per-point logits are scored against
    `model.targets(prep)`, the level-0 labels, in metrics sized by
    `model.num_classes`."""
    from pne.datagen import make_segmentation_dataset
    from pne.network import EmbeddingSpec, EncoderConfig, NeighborhoodSpec, SegmentationNetwork

    cfg = EncoderConfig(initial_cell=0.3, widths=[4, 4], blocks=[1, 1],
                        neighborhood=NeighborhoodSpec("knn", k=4),
                        embedding=EmbeddingSpec("kp:gaussian"), embed_dim=4)
    model = SegmentationNetwork(cfg, num_classes=4, seed=0)
    preps = [model.prepare(s) for s in make_segmentation_dataset(n_scenes=3, n_per_shape=32)]
    assert model.num_classes == 4 and model.targets(preps[0]) is preps[0].clouds[0].labels
    _, log = train_loop(model, preps[:2], preps[2:], TrainConfig(epochs=1, batch_size=2))
    metrics = Metrics(4)
    metrics.update(model.forward(preps[2]).argmax(axis=1), preps[2].clouds[0].labels)
    final = tuple(log[-1][k] for k in ("eval_oa", "eval_macc", "eval_miou"))
    assert evaluate(model, preps[2:]) == metrics_compute(metrics) == final


@pytest.mark.parametrize("setting", [dict(max_lr=1e300), dict(weight_decay=1e300)])
def test_train_loop_faults_when_a_run_diverges(setting):
    """An update scaled by 1e300 overflows the next forward: the run ends in
    a TrainingFault naming the steps taken, with no warning."""
    model, train, test = _toy_setup(seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingFault, match=r"^diverged: overflow") as err:
            train_loop(model, train, test, TrainConfig(epochs=2, batch_size=4, **setting))
    assert err.value.step == 1


def test_train_loop_faults_on_an_inf_no_operation_flagged(monkeypatch):
    """An inf that reaches an activation without a numpy overflow, as a
    scipy sparse product can leave one, ends the run in a TrainingFault too."""
    model, train, test = _toy_setup(seed=8)
    forward, calls = model.forward, []

    def forward_then_inf(prep, **kwargs):
        calls.append(prep)
        if len(calls) > 4:      # the second step's first cloud
            numerics.activation_forward(numerics.GELU, np.array([np.inf]))
        return forward(prep, **kwargs)

    monkeypatch.setattr(model, "forward", forward_then_inf)
    with pytest.raises(TrainingFault, match="activation input must be finite") as err:
        train_loop(model, train, test, TrainConfig(epochs=1, batch_size=4))
    assert err.value.step == 1
