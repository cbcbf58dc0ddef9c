"""Outside-in tracing of leda's public functions.

Each function is wrapped where callers look it up: `trainer` and `evaluate`
import several functions by name, so those module attributes are patched
too; autodiff primitives are looked up as `ad.<name>` at call time, so
patching `leda.autodiff` reaches every caller. Every call records a span
(label, start, end, parent span, step id) in memory; `restore` puts every
original back. Per-layer numbers are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PRIMITIVES = (
    "matmul",
    "sparse_matmul",
    "relu",
    "add_row_bias",
    "add",
    "sub",
    "mul",
    "div",
    "exp",
    "log",
    "sqrt",
    "square",
    "scale",
    "clip",
    "reduce_sum",
    "reduce_mean",
    "frobenius_sq",
)
# reduce_mean returns the node its inner `scale` created; counting it again
# would double the tape.
COMPOSITE_PRIMITIVES = frozenset({"reduce_mean"})

# (module, attribute, label): one label may be patched in several modules.
TARGETS = (
    ("leda.dpu", "truncated_svd", "linalg.truncated_svd"),
    ("leda.linalg", "normalize_adjacency", "linalg.normalize_adjacency"),
    ("leda.trainer", "normalize_adjacency", "linalg.normalize_adjacency"),
    ("leda.evaluate", "normalize_adjacency", "linalg.normalize_adjacency"),
    ("leda.datasets", "load_dataset", "datasets.load_dataset"),
    ("leda.datasets", "save_dataset", "datasets.save_dataset"),
    ("leda.autodiff", "backward", "autodiff.backward"),
    ("leda.trainer", "adamw_step", "optim.adamw_step"),
    ("leda.evaluate", "adamw_step", "optim.adamw_step"),
    ("leda.trainer", "init_basis", "dpu.init_basis"),
    ("leda.evaluate", "init_basis", "dpu.init_basis"),
    ("leda.trainer", "trans", "dpu.trans"),
    ("leda.evaluate", "trans", "dpu.trans"),
    ("leda.trainer", "align", "dpu.align"),
    ("leda.evaluate", "align", "dpu.align"),
    ("leda.trainer", "alignment_penalties", "dpu.alignment_penalties"),
    ("leda.lda", "encode", "lda.encode"),
    ("leda.evaluate", "encode", "lda.encode"),
    ("leda.lda", "decode", "lda.decode"),
    ("leda.lda", "kl_to_prior", "lda.kl_to_prior"),
    ("leda.trainer", "loss_total_domain", "lda.loss_total_domain"),
    ("leda.trainer", "prepare_domains", "trainer.prepare_domains"),
    ("leda.trainer", "build_epoch_loss", "trainer.build_epoch_loss"),
    ("leda.trainer", "infonce_loss", "trainer.infonce_loss"),
    ("leda.trainer", "pretrain", "trainer.pretrain"),
    ("leda.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("leda.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("leda.evaluate", "embed", "evaluate.embed"),
    ("leda.evaluate", "fewshot_eval", "evaluate.fewshot_eval"),
    ("leda.evaluate", "linear_probe", "evaluate.linear_probe"),
    ("leda.evaluate", "mi_diagnostic", "evaluate.mi_diagnostic"),
) + tuple(("leda.autodiff", p, f"autodiff.{p}") for p in PRIMITIVES)

# A span with one of these labels starts a new step (one training epoch);
# otherwise a step is one top-level call.
STEP_ROOTS = frozenset({"trainer.build_epoch_loss"})
MEMORY_PEAK_LABEL = "evaluate.mi_diagnostic"

LABEL, START, END, PARENT, STEP, NBYTES = range(6)


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.mi_peak_bytes = 0  # tracemalloc peak inside MEMORY_PEAK_LABEL calls
        self._stack: list[int] = []
        self._step = 0
        self._paused = False
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from leda.linalg import CsrMatrix

        try:
            for module_name, attr, label in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                primitive = module_name == "leda.autodiff" and attr in PRIMITIVES
                self._patch(module, attr, original, self._wrap(label, original, primitive))
            original = CsrMatrix.__dict__["from_edges"]
            wrapped = self._wrap("linalg.CsrMatrix.from_edges", original.__func__, False)
            self._patch(CsrMatrix, "from_edges", original, staticmethod(wrapped))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside run unwrapped in effect and record no span."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    @contextmanager
    def span(self, label: str):
        """A span around the benchmark's own step, parent of the calls in it."""
        if self._paused:
            yield
            return
        record = self._open(label)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, label: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or label in STEP_ROOTS:
            self._step += 1
        record = [label, 0.0, 0.0, parent, self._step, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn, primitive: bool):
        count_bytes = primitive and label.split(".", 1)[1] not in COMPOSITE_PRIMITIVES
        track_memory = label == MEMORY_PEAK_LABEL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            started_memory = track_memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            record = self._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
                if started_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.mi_peak_bytes = max(self.mi_peak_bytes, peak)
            if count_bytes:
                record[NBYTES] = out.value.nbytes
            return out

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as JSON lines, in the order their calls started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("label", "start", "end", "parent", "step", "nbytes")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per label: busy (sum of span durations), calls, and self time (busy
    minus the time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "self_s": 0.0})
    for i, record in enumerate(spans):
        entry = out[record[LABEL]]
        duration = record[END] - record[START]
        entry["busy_s"] += duration
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
    return dict(out)


def within(spans: list[list], outer: list) -> list[list]:
    """Spans that started and ended inside the outer span's interval (one
    thread, so this is exactly its descendants)."""
    return [r for r in spans if r is not outer and outer[START] <= r[START] and r[END] <= outer[END]]


def per_step(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per step id: wall time, primitive node count and forward bytes."""
    out: dict[int, dict[str, float]] = {}
    for r in spans:
        entry = out.setdefault(r[STEP], {"start": r[START], "end": r[END], "nodes": 0, "bytes": 0})
        entry["start"] = min(entry["start"], r[START])
        entry["end"] = max(entry["end"], r[END])
        if r[NBYTES]:
            entry["nodes"] += 1
            entry["bytes"] += r[NBYTES]
    return out
