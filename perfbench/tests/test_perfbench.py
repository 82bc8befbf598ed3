"""Tests of the benchmark itself, on tiny runs:

    python3 -m pytest perfbench/tests
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import clock  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from pne import network  # noqa: E402
from pne.geometry import NeighborList  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(workload, trace=0):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], err.getvalue()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result, report, err = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    prov = report["provenance"]
    for key in ("nproc", "threads_env", "blas", "numpy", "scipy", "python", "git", "argv", "seed"):
        assert key in prov
    assert report["inputs"]["level0_points_max"] > 0


def test_traced_and_untraced_loss_agree():
    untraced, _, _ = tiny("train_mlp", 0)
    traced, report, _ = tiny("train_mlp", 1)
    # inside the traced run every trajectory also runs untraced, and the
    # losses must be bit-identical; across runs the loss repeats exactly
    assert traced["failed"] == 0
    assert report["aliases"]["train_loss_final"] == untraced["metrics"]["loss_final"]["value"]
    assert report["shares"]


def _shifted(fn):
    def wrong(query, support, *args, **kwargs):
        nl = fn(query, support, *args, **kwargs)
        return NeighborList(nl.offsets, (nl.indices + 1) % len(support))
    return wrong


@pytest.mark.parametrize("workload", ["train_fixed", "infer_seg"])
def test_wrong_neighbor_set_is_counted(monkeypatch, workload):
    monkeypatch.setattr(network, "knn", _shifted(network.knn))
    monkeypatch.setattr(network, "ball_query", _shifted(network.ball_query))
    result, report, err = tiny(workload)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert f"workload={workload}" in err and "neighbors, oracle" in err


def test_perturbed_conv_output_is_counted(monkeypatch):
    forward = network.ConvModule.forward

    def perturbed(self, prep, features):
        return forward(self, prep, features) + 1e-3

    monkeypatch.setattr(network.ConvModule, "forward", perturbed)
    result, report, err = tiny("infer_seg")
    assert result["failed"] > 0 and report["failed_frac"] > 0
    assert "max |out - dense|" in err


def test_spans_are_nested_and_grouped_by_operation(tmp_path):
    path = tmp_path / "spans.jsonl"
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "train_fixed", "--seed", "3", "--seconds", "0.3",
                  "--trace", "1", "--size", "tiny", "--spans", str(path)])
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"op", "pointconv.fwd", "pointconv.bwd", "embeddings.embed", "geometry.knn",
            "training.adamw", "datagen.build"} <= {s["name"] for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["op"] == s["op"]
    assert all(s["tag"].startswith(("self", "down")) for s in spans if s["name"] == "pointconv.fwd")


def test_clock_scales_by_the_nearest_calibrations():
    c = clock.Clock()
    c.stamps, c.durations = [0.0, 1.0, 2.0, 3.0], [0.010, 0.010, 0.040, 0.040]
    ref = clock.REFERENCE_MS * 1e-3
    # an interval between the calibrations at 1 s and 2 s ran at their mean speed
    assert c.normalize([(1.2, 1.8)]) == pytest.approx([0.6 * ref / 0.025])
    assert c.normalize([(2.2, 2.8)]) == pytest.approx([0.6 * ref / 0.040])
    # before the first and after the last calibration, the nearest one counts
    assert c.normalize([(-0.5, -0.1), (3.5, 4.0)]) == pytest.approx(
        [0.4 * ref / 0.010, 0.5 * ref / 0.040])
    assert isinstance(c.reference(), float)


def test_harrell_davis_percentiles():
    x = np.random.default_rng(0).standard_normal(4000)
    assert run.harrell_davis(x, 50) == pytest.approx(np.median(x), abs=0.02)
    assert run.harrell_davis(x, 90) == pytest.approx(np.percentile(x, 90), abs=0.03)
    assert run.harrell_davis([2.5], 90) == 2.5
    assert run.harrell_davis(list(range(1, 10)), 50) == pytest.approx(5.0)


def test_tracer_restores_program():
    targets = (network.knn, network.make_site, network.ConvModule.forward, network.Linear.backward)
    tiny("infer_seg", 1)
    assert (network.knn, network.make_site, network.ConvModule.forward,
            network.Linear.backward) == targets


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_fixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("base,head,better,bound,want", [
    ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [13] * 10, "higher", 0.2, "improved"),
    ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [7] * 10, "higher", 0.2, "worse"),
    ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [11, 10, 11, 10, 11, 11, 10, 11, 12, 10],
     "higher", 0.2, "unchanged"),
    ([5, 15, 6, 14, 5, 15, 6, 14, 5, 15], [9] * 10, "lower", 0.2, "unresolved"),
    ([5, 15, 6, 14, 5, 15, 6, 14, 5, 15], [20] * 10, "lower", 0.2, "worse"),
    ([10.0] * 10, [9.0] * 9 + [10.0], "lower", None, "improved"),
    ([10.0] * 10, [9.0] * 8 + [10.0, 11.0], "lower", None, "unchanged"),
])
def test_compare_verdicts(base, head, better, bound, want):
    assert compare.verdict(base, head, better, bound)[0] == want


def test_compare_diff_reads_run_files(tmp_path):
    def write(path, value):
        with open(path, "w") as fh:
            for i in range(10):
                metrics = {"points_per_s": {"value": value + 0.01 * i, "unit": "points/s"}}
                fh.write(json.dumps({"workload": "infer_seg", "pair": i, "seed": i,
                                     "result": {"failed": 0, "metrics": metrics}}) + "\n")
    write(tmp_path / "base.jsonl", 100.0)
    write(tmp_path / "head.jsonl", 150.0)
    rows = compare.diff(tmp_path / "base.jsonl", tmp_path / "head.jsonl",
                        os.path.join(ROOT, "BENCHMARK.json"), out=io.StringIO())
    assert [(r[0], r[1], r[-1]) for r in rows] == [("infer_seg", "points_per_s", "improved")]
