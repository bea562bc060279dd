"""Self-tests of the benchmark: reference computations, tracer, tiny runs.

Run from the checkout root with ``python -m pytest perfbench``.  Every
workload runs at tiny size, untraced and traced, in a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from harmalign import align, evaluation, graph  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_reference_vote_matches_knn_classify():
    gen = np.random.default_rng(0)
    train = gen.standard_normal((300, 6))
    labels = gen.integers(0, 4, 300)
    test = gen.standard_normal((200, 6))
    for k in (1, 4, 5):  # even k makes count ties common
        expected, _ = evaluation.knn_classify(train, labels, test, k)
        np.testing.assert_array_equal(reference.knn_predict(train, labels, test, k), expected)


def test_reference_affinity_matches_program_graph():
    X = np.random.default_rng(1).standard_normal((120, 5))
    g = graph.gauss_kernel_graph(X, graph.BandwidthSpec.adaptive(7))
    A, degrees = reference.normalized_affinity(X, 7)
    np.testing.assert_allclose(degrees, g.degrees, rtol=1e-12)
    np.testing.assert_allclose(A, np.eye(120) - g.L, atol=1e-12)


def test_tracer_self_times_add_up_and_absent_layers_are_reported(monkeypatch):
    layers = tracing.LAYERS + (("align.gone", "align", "no_such_function"),)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    original = align.prepare_dataset
    gen = np.random.default_rng(2)
    X, Y = gen.standard_normal((80, 4)), gen.standard_normal((80, 4))
    t = tracing.Tracer()
    t.install()
    try:
        align.harmonic_alignment(X, Y, align.AlignmentParams(knn=5))
    finally:
        t.uninstall()
    assert align.prepare_dataset is original
    assert t.absent == ["align.no_such_function"]
    (top,) = [s for s in t.spans if s[3] is None]
    wall = top[2] - top[1]
    metrics = tracing.layer_metrics(t.spans, t.counts, wall)
    layer_sum = sum(v for k, v in metrics.items()
                    if k.endswith("_s") and k != "trace.unaccounted_s")
    assert layer_sum == pytest.approx(wall, rel=1e-9)
    assert metrics["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["align.prepare_calls"] == 2 and metrics["align.prepared_points"] == 160
    assert metrics["spectral.eigenpairs"] == 160
    assert metrics["graph.peak_mb"] > 0 and metrics["align.peak_mb"] >= metrics["graph.peak_mb"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_passes_its_checks(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] == (3 if trace == "1" else 1)
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert not os.path.exists(os.path.join(HERE, "_work"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = _run(str(tmp_path), "--workload", "transfer-500", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
