"""Metric definitions, their computation from a run, and the environment block.

Every workload reports every metric: BENCHMARK.json asks for the full
end-to-end set on each untraced run and the full per-layer set on each
traced run. A per-layer metric of a layer the workload never calls is
0, which is the measured value and the prediction for that workload.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import tracer as tr
from leda.trainer import VARIANTS

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-step wall times of the untraced pass; each is 0 outside its workload.
STAGES = tuple(f"train_s.{v}" for v in VARIANTS) + (
    "embed_s",
    "fewshot_s",
    "linear_s",
    "mi_s",
    "write_s",
    "read_s",
    "normalize_s",
)

# (span label, report self time): self time where the children are wrapped too.
FUNCTIONS = (
    ("linalg.truncated_svd", False),
    ("linalg.normalize_adjacency", False),
    ("linalg.CsrMatrix.from_edges", False),
    ("datasets.load_dataset", True),
    ("datasets.save_dataset", False),
    ("autodiff.backward", False),
    ("optim.adamw_step", False),
    ("dpu.init_basis", True),
    ("dpu.trans", True),
    ("dpu.align", True),
    ("dpu.alignment_penalties", True),
    ("lda.encode", True),
    ("lda.decode", True),
    ("lda.kl_to_prior", True),
    ("lda.loss_total_domain", True),
    ("trainer.prepare_domains", True),
    ("trainer.build_epoch_loss", True),
    ("trainer.infonce_loss", True),
    ("trainer.pretrain", False),
    ("checkpoint.save_checkpoint", False),
    ("checkpoint.load_checkpoint", False),
    ("evaluate.embed", True),
    ("evaluate.fewshot_eval", False),
    ("evaluate.linear_probe", True),
    ("evaluate.mi_diagnostic", False),
)


def _per_layer_spec() -> tuple[tuple[str, str], ...]:
    spec = [(name, "s") for name in STAGES]
    for label, with_self in FUNCTIONS:
        spec += [(f"{label}.busy_s", "s"), (f"{label}.calls", "count")]
        if with_self:
            spec.append((f"{label}.self_s", "s"))
    for p in tr.PRIMITIVES:
        spec += [(f"autodiff.{p}.fwd_s", "s"), (f"autodiff.{p}.calls", "count")]
    for v in VARIANTS:
        spec += [
            (f"autodiff.nodes_per_epoch.{v}", "count"),
            (f"autodiff.tape_mb_per_epoch.{v}", "MB"),
            (f"trainer.epoch_s.{v}", "s"),
        ]
    spec += [
        ("checkpoint.bytes", "bytes"),
        ("evaluate.fewshot_eval.per_repeat_ms", "ms"),
        ("evaluate.mi_diagnostic.peak_mb", "MB"),
        ("tracing_overhead_s", "s"),
        ("tracing.wall_s", "s"),
        ("tracing.unwrapped_s", "s"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()
MB = 1024.0 * 1024.0


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(ledger) -> dict[str, float | None]:
    """run_s sums the per-step medians, so a slow spell in one round's step
    is outvoted by the other rounds."""
    steps = [median(ledger.samples.get(step, [])) for step in ledger.steps]
    return {
        "setup_s": median(ledger.samples.get("setup_s", [])),
        "run_s": None if None in steps else sum(steps),
        "peak_rss_mb": peak_rss_mb(),
    }


def stage_times(ledger) -> dict[str, float]:
    return {name: median(ledger.samples.get(name, [])) or 0.0 for name in STAGES}


def _epochs(spans: list[list], variant: str) -> list[dict[str, float]]:
    """Per training epoch of the variant's pretrain step: wall, nodes, bytes."""
    outer = [r for r in spans if r[tr.PARENT] < 0 and r[tr.LABEL] == f"step.train_s.{variant}"]
    if not outer:
        return []
    inner = tr.within(spans, outer[-1])
    epoch_steps = {r[tr.STEP] for r in inner if r[tr.LABEL] == "trainer.build_epoch_loss"}
    steps = tr.per_step([r for r in inner if r[tr.STEP] in epoch_steps])
    return [steps[s] for s in sorted(steps)]


def per_layer(base, traced, tracer, repeats: int) -> dict[str, float]:
    """Per-layer metrics from an untraced pass and a traced pass of the same
    steps in one process."""
    spans = tracer.spans
    totals = tr.layer_totals(spans)
    out: dict[str, float] = dict(stage_times(base))
    for label, with_self in FUNCTIONS:
        entry = totals.get(label, {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
        out[f"{label}.busy_s"] = entry["busy_s"]
        out[f"{label}.calls"] = entry["calls"]
        if with_self:
            out[f"{label}.self_s"] = entry["self_s"]
    for p in tr.PRIMITIVES:
        entry = totals.get(f"autodiff.{p}", {"busy_s": 0.0, "calls": 0})
        out[f"autodiff.{p}.fwd_s"] = entry["busy_s"]
        out[f"autodiff.{p}.calls"] = entry["calls"]
    for v in VARIANTS:
        epochs = _epochs(spans, v)
        out[f"autodiff.nodes_per_epoch.{v}"] = median(e["nodes"] for e in epochs) or 0
        out[f"autodiff.tape_mb_per_epoch.{v}"] = (median(e["bytes"] for e in epochs) or 0) / MB
        out[f"trainer.epoch_s.{v}"] = median(e["end"] - e["start"] for e in epochs) or 0.0
    fewshot = totals.get("evaluate.fewshot_eval")
    out["checkpoint.bytes"] = traced.fingerprint.get("checkpoint_bytes", 0)
    out["evaluate.fewshot_eval.per_repeat_ms"] = (
        1000.0 * fewshot["busy_s"] / (fewshot["calls"] * repeats) if fewshot else 0.0
    )
    out["evaluate.mi_diagnostic.peak_mb"] = tracer.mi_peak_bytes / MB
    base_wall = sum(sum(v) for v in base.samples.values())
    traced_wall = sum(sum(v) for v in traced.samples.values())
    out["tracing_overhead_s"] = traced_wall - base_wall
    out["tracing.wall_s"] = base_wall
    out["tracing.unwrapped_s"] = sum(
        entry["self_s"] for label, entry in totals.items() if label.startswith("step.")
    )
    return out


# ---------------------------------------------------------------------------
# environment


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_version() -> str | None:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {
            v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(root),
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )
