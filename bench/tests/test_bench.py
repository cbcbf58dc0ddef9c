"""Self-tests of the benchmark: generator, workloads at a tiny size, tracing
mechanics, failure accounting and the metric names in BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gen
import report
import run
import tracer as tr
import workloads
from leda import checkpoint, datasets, evaluate
from leda.linalg import CsrMatrix, truncated_svd

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("name", ["cora-like", "edge-heavy"])
def test_generator_is_deterministic_and_hits_target_degree(name):
    shape = replace(gen.SHAPES[name], n=3000) if name == "edge-heavy" else gen.SHAPES[name]
    a, b = gen.generate(shape, 7), gen.generate(shape, 7)
    for part in ("labels", "edges", "features"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert not np.array_equal(a.edges, gen.generate(shape, 8).edges)

    i, j = a.edges[:, 0], a.edges[:, 1]
    assert np.all(i < j) and j.max() < shape.n
    assert len(np.unique(i * shape.n + j)) == len(i)
    assert len(i) == round(shape.n * shape.mean_degree / 2)
    assert abs(2 * len(i) / shape.n - shape.mean_degree) < 1e-3
    same = np.mean(a.labels[i] == a.labels[j])
    assert abs(same - shape.homophily) < 0.05
    assert np.bincount(a.labels).min() >= shape.n // shape.classes


def test_generated_classes_are_learnable_through_a_rank_64_basis():
    shape = gen.SHAPES["cora-like"]
    g = gen.generate(shape, 3)
    assert set(np.unique(g.features)) == {0.0, 1.0}
    v = truncated_svd(g.features, 64, seed=0).V
    z = g.features @ v
    train = np.arange(shape.n) % 2 == 0
    means = np.stack([z[train & (g.labels == c)].mean(axis=0) for c in range(shape.classes)])
    pred = np.argmin(((z[~train, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    accuracy = np.mean(pred == g.labels[~train])
    assert accuracy > 2.0 / shape.classes


def test_cached_manifest_loads_bit_exact_and_is_reused(tmp_path):
    shapes = (workloads.tiny_plan().shapes["cora-like"],)
    manifest = gen.cached_manifest(tmp_path, shapes, 5)
    stamp = manifest.stat().st_mtime_ns
    assert gen.cached_manifest(tmp_path, shapes, 5) == manifest
    assert manifest.stat().st_mtime_ns == stamp
    graph = datasets.load_dataset(manifest).graphs[0]
    g = gen.generate(shapes[0], 5)
    assert graph.features.tobytes() == g.features.tobytes()
    assert np.array_equal(graph.labels, g.labels)
    assert graph.adjacency.nnz == 2 * len(g.edges)


def test_cache_keeps_only_the_newest_entries(tmp_path):
    shapes = (replace(workloads.tiny_plan().shapes["cora-like"], n=40),)
    for seed in range(gen.CACHE_KEEP + 2):
        gen.cached_manifest(tmp_path, shapes, seed)
    assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == gen.CACHE_KEEP


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_completes_at_a_tiny_size(name, tmp_path):
    ledger = workloads.run_workload(name, workloads.tiny_plan(), 0, 1, tmp_path)
    assert ledger.problems == [] and ledger.failed == 0
    metrics = report.end_to_end(ledger)
    assert set(metrics) == {n for n, _ in report.END_TO_END}
    assert all(v is not None and v > 0 for v in metrics.values())
    assert len(ledger.samples["setup_s"]) == workloads.tiny_plan().setup_min


def _corrupt_saved_features(monkeypatch):
    original = datasets.save_dataset

    def save_then_flip(collection, out_dir):
        manifest = original(collection, out_dir)
        path = next(Path(out_dir).glob("*.features.tsv"))
        first, rest = path.read_text().split("\t", 1)
        path.write_text(repr(float(first) + 1.0) + "\t" + rest)
        return manifest

    monkeypatch.setattr(datasets, "save_dataset", save_then_flip)
    return "dataset-io"


def _corrupt_checkpoint_on_load(monkeypatch):
    original = checkpoint.load_checkpoint

    def load_then_perturb(path):
        ckpt = original(path)
        ckpt.params["lda.W_mu"][0, 0] += 1e-12
        return ckpt

    monkeypatch.setattr(checkpoint, "load_checkpoint", load_then_perturb)
    return "pretrain"


def _checkpoint_unreadable(monkeypatch):
    def unreadable(path):
        raise checkpoint.CheckpointFormatError(f"{path}: bad magic bytes")

    monkeypatch.setattr(checkpoint, "load_checkpoint", unreadable)
    return "pretrain"


def _fewshot_at_chance(monkeypatch):
    original = evaluate.fewshot_eval

    def at_chance(*args, **kwargs):
        got = original(*args, **kwargs)
        return replace(got, mean_accuracy=10.0)

    monkeypatch.setattr(evaluate, "fewshot_eval", at_chance)
    return "transfer"


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_saved_features, _corrupt_checkpoint_on_load, _checkpoint_unreadable, _fewshot_at_chance],
)
def test_a_corrupted_output_counts_as_a_failed_operation(corrupt, monkeypatch, tmp_path):
    name = corrupt(monkeypatch)
    ledger = workloads.run_workload(name, workloads.tiny_plan(), 0, 1, tmp_path)
    assert ledger.failed == 1 and ledger.attempted > 1, ledger.problems
    assert len(ledger.problems) >= 1


def test_a_raising_operation_aborts_the_round_and_counts_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evaluate, "linear_probe", broken)
    ledger = workloads.run_workload("transfer", workloads.tiny_plan(), 0, 1, tmp_path)
    assert ledger.failed == 1
    assert "mi_s" not in ledger.samples
    assert report.end_to_end(ledger)["run_s"] is None


# ---------------------------------------------------------------------------
# tracing


def _lookups():
    found = {}
    for module_name, attr, _ in tr.TARGETS:
        found[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    found[("CsrMatrix", "from_edges")] = CsrMatrix.__dict__["from_edges"]
    return found


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = _lookups()
    with tr.Tracer() as tracer:
        assert _lookups()[("leda.autodiff", "matmul")] is not before[("leda.autodiff", "matmul")]
        workloads.run_workload("pretrain", workloads.tiny_plan(), 0, 1, tmp_path, tracer=tracer)
    after = _lookups()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans

    with pytest.raises(RuntimeError):
        with tr.Tracer():
            raise RuntimeError("inside")
    after = _lookups()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1, 1, 0],
        ["mid", 1.0, 5.0, 0, 1, 0],
        ["leaf", 2.0, 3.0, 1, 1, 8],
        ["mid", 6.0, 7.0, 0, 1, 0],
    ]
    totals = tr.layer_totals(spans)
    assert totals["outer"] == {"busy_s": 10.0, "calls": 1, "self_s": 5.0}
    assert totals["mid"] == {"busy_s": 5.0, "calls": 2, "self_s": 4.0}
    assert totals["leaf"] == {"busy_s": 1.0, "calls": 1, "self_s": 1.0}


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    plan = workloads.tiny_plan()
    base = workloads.run_workload("pretrain", plan, 0, 1, tmp_path)
    with tr.Tracer() as tracer:
        traced = workloads.run_workload("pretrain", plan, 0, 1, tmp_path, tracer=tracer)
    metrics = report.per_layer(base, traced, tracer, plan.fewshot_repeats)
    assert list(metrics) == [n for n, _ in report.PER_LAYER]
    for v in ("full", "no-dpu", "no-lda", "dpu-cl"):
        assert metrics[f"autodiff.nodes_per_epoch.{v}"] > 0
        assert metrics[f"trainer.epoch_s.{v}"] > 0
    # fewer layers train in no-lda than in full, so its tape is smaller
    assert metrics["autodiff.nodes_per_epoch.no-lda"] < metrics["autodiff.nodes_per_epoch.full"]
    assert metrics["trainer.pretrain.calls"] == 4
    assert metrics["evaluate.embed.calls"] == 0
    # steps are covered by wrapped calls except for benchmark glue
    assert metrics["tracing.unwrapped_s"] < 0.2 * metrics["tracing.wall_s"]


def test_per_epoch_counts_repeat_exactly(tmp_path):
    plan = workloads.tiny_plan()
    counts = []
    for _ in range(2):
        with tr.Tracer() as tracer:
            workloads.run_workload("pretrain", plan, 1, 1, tmp_path, tracer=tracer)
        epochs = report._epochs(tracer.spans, "full")
        counts.append([(e["nodes"], e["bytes"]) for e in epochs])
    assert len(counts[0]) == plan.epochs and len(set(counts[0])) == 1
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the entry point


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]


def test_entry_point_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pretrain", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
