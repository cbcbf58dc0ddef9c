"""The three benchmark workloads and their output checks.

Each workload is a closed loop of one caller: a round of timed calls into
leda's public functions, repeated a fixed number of times. Every
timed call is one attempted operation; it fails when it raises or when its
output check finds a problem. Checks run with tracing paused and outside
the timed region.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import gen
from leda import checkpoint, datasets, evaluate, linalg, trainer
from leda.datasets import DomainGraph, GraphCollection
from leda.linalg import CsrMatrix

WORKLOADS = ("pretrain", "transfer", "dataset-io")

PRETRAIN_DOMAINS = ("cora-like", "photo-like")
TRANSFER_TARGET, TRANSFER_SOURCE = "citeseer-like", "cora-like"
IO_DOMAIN = "edge-heavy"
FEWSHOT_K, PROBE_FRAC, MI_TAU = 1, 0.1, 0.5


@dataclass(frozen=True)
class Plan:
    """Sizes of one benchmark run; the defaults are the benchmark's."""

    shapes: dict = field(default_factory=lambda: dict(gen.SHAPES))
    dims: dict = field(default_factory=dict)  # TrainConfig overrides; empty = paper dims
    epochs: int = 2
    ckpt_epochs: int = 5
    fewshot_repeats: int = 500
    probe_runs: int = 20
    setup_min: int = 3

    def train_config(self, variant: str, epochs: int, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(epochs=epochs, variant=variant, seed=seed, **self.dims)


class RoundAborted(Exception):
    """An operation raised; the rest of the round depends on its output."""


class Ledger:
    """Timings, attempted/failed counts, problems and output fingerprint."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.fingerprint: dict[str, object] = {}
        self.steps: tuple[str, ...] = ()  # the timed steps of one round

    def quiet(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def call(self, metric: str, fn, *args, check=None, **kwargs):
        """Time one operation, then check its output untimed."""
        self.attempted += 1
        span = self.tracer.span(f"step.{metric}") if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"{metric}: {type(exc).__name__}: {exc}")
            raise RoundAborted(metric) from exc
        self.samples[metric].append(time.perf_counter() - start)
        if check is not None:
            with self.quiet():
                try:
                    problems = check(out)
                except Exception as exc:  # an output the check cannot read fails it
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(f"{metric}: {p}" for p in problems)
        return out


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is good


def check_training(ckpt: checkpoint.Checkpoint, epochs: int) -> list[str]:
    trace = ckpt.loss_trace
    problems = []
    if len(trace) != epochs:
        problems.append(f"loss trace has {len(trace)} epochs, expected {epochs}")
    for epoch, components in enumerate(trace):
        bad = [k for k, v in components.items() if not np.isfinite(v)]
        if bad:
            problems.append(f"epoch {epoch}: non-finite loss components {bad}")
    if len(trace) >= 2 and not trace[-1]["total"] < trace[0]["total"]:
        problems.append(f"total loss did not fall: {trace[0]['total']} -> {trace[-1]['total']}")
    for name, arr in ckpt.params.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"non-finite parameter {name}")
    return problems


def check_checkpoint_roundtrip(ckpt: checkpoint.Checkpoint, path: Path) -> list[str]:
    loaded = checkpoint.load_checkpoint(path)
    problems = []
    for name, arr in ckpt.params.items():
        if loaded.params[name].tobytes() != np.ascontiguousarray(arr).tobytes():
            problems.append(f"parameter {name} changed in the round trip")
    for a, b in zip(ckpt.bases, loaded.bases, strict=True):
        if a.domain_id != b.domain_id or a.V.tobytes() != b.V.tobytes():
            problems.append(f"basis {a.domain_id} changed in the round trip")
    return problems


def check_embedding(emb: evaluate.EmbeddingSet, graph: DomainGraph, z: int) -> list[str]:
    if emb.E.shape != (graph.num_nodes, z):
        return [f"embedding shape {emb.E.shape}, expected {(graph.num_nodes, z)}"]
    return [] if np.all(np.isfinite(emb.E)) else ["non-finite embedding"]


def check_above_chance(report: evaluate.EvalReport, classes: int) -> list[str]:
    chance = 100.0 / classes
    if report.mean_accuracy > chance:
        return []
    return [f"{report.task} accuracy {report.mean_accuracy:.2f}% not above chance {chance:.2f}%"]


def check_mi(record: dict) -> list[str]:
    bad = [k for k in ("expected_s", "log_Z", "mi_proxy") if not np.isfinite(record[k])]
    return [f"non-finite MI values {bad}"] if bad else []


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def check_same_collection(expected: GraphCollection, got: GraphCollection) -> list[str]:
    problems = []
    if len(expected.graphs) != len(got.graphs):
        return [f"{len(got.graphs)} graphs read back, {len(expected.graphs)} written"]
    for a, b in zip(expected.graphs, got.graphs):
        if a.domain_id != b.domain_id or a.num_classes != b.num_classes:
            problems.append(f"domain {a.domain_id}: metadata differs")
        if _bits(a.features) != _bits(b.features) or _bits(a.labels) != _bits(b.labels):
            problems.append(f"domain {a.domain_id}: features or labels not bit-exact")
        for part in ("row_offsets", "col_indices", "values"):
            if _bits(getattr(a.adjacency, part)) != _bits(getattr(b.adjacency, part)):
                problems.append(f"domain {a.domain_id}: adjacency {part} not bit-exact")
    return problems


def check_normalized(s: CsrMatrix, adj: CsrMatrix) -> list[str]:
    problems = []
    if s.nnz != adj.nnz + adj.rows:
        problems.append(f"normalized nnz {s.nnz}, expected {adj.nnz + adj.rows}")
    if not (np.all(np.isfinite(s.values)) and np.all(s.values > 0)):
        problems.append("normalized values not finite and positive")
    if not s.is_symmetric():
        problems.append("normalized adjacency not symmetric")
    return problems


# ---------------------------------------------------------------------------
# inputs


def symmetric_coo(g: gen.Generated) -> sp.coo_matrix:
    """Both directions of every generated edge, as the benchmark's own input."""
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    return sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.shape.n, g.shape.n))


def build_graph(g: gen.Generated, coo: sp.coo_matrix) -> DomainGraph:
    """Program objects from generated arrays; the constructors validate."""
    return DomainGraph(
        domain_id=g.shape.name,
        features=g.features,
        adjacency=CsrMatrix.from_scipy(coo),
        labels=g.labels,
        num_classes=g.shape.classes,
    )


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads: `prepare` runs untimed once; `setup` and `round` are timed


class Workload:
    steps: tuple[str, ...] = ()  # timed steps of one round, after the set-up

    def __init__(self, plan: Plan, seed: int, work: Path):
        self.plan, self.seed, self.work = plan, seed, work


class Pretrain(Workload):
    """Load a wide-sparse and a narrow-dense domain, train every variant,
    save the full checkpoint."""

    steps = tuple(f"train_s.{v}" for v in trainer.VARIANTS) + ("save_s",)

    def prepare(self, ledger: Ledger) -> None:
        shapes = tuple(self.plan.shapes[name] for name in PRETRAIN_DOMAINS)
        self.manifest = gen.cached_manifest(self.work / "cache", shapes, self.seed)

    def setup(self, ledger: Ledger):
        return ledger.call("setup_s", datasets.load_dataset, self.manifest)

    def round(self, ledger: Ledger, collection: GraphCollection) -> None:
        plan, full = self.plan, None
        for variant in trainer.VARIANTS:
            config = plan.train_config(variant, plan.epochs, self.seed)
            ckpt = ledger.call(
                f"train_s.{variant}",
                trainer.pretrain,
                collection,
                config,
                check=lambda c: check_training(c, plan.epochs),
            )
            ledger.fingerprint[f"final_total.{variant}"] = ckpt.final_loss.get("total")
            if variant == "full":
                full = ckpt
        path = self.work / "pretrain-full.ckpt"
        ledger.call(
            "save_s",
            checkpoint.save_checkpoint,
            full,
            path,
            check=lambda _: check_checkpoint_roundtrip(full, path),
        )
        ledger.fingerprint["checkpoint_sha256"] = digest(path)
        ledger.fingerprint["checkpoint_bytes"] = path.stat().st_size


class Transfer(Workload):
    """Embed an unseen wide domain with a checkpoint trained on another, then
    run the few-shot, linear-probe and MI protocols."""

    steps = ("embed_s", "fewshot_s", "linear_s", "mi_s")

    def prepare(self, ledger: Ledger) -> None:
        plan = self.plan
        target, source = plan.shapes[TRANSFER_TARGET], plan.shapes[TRANSFER_SOURCE]
        self.manifest = gen.cached_manifest(self.work / "cache", (target, source), self.seed)
        # The checkpoint is an input here: train it untimed, on the source only.
        with ledger.quiet():
            generated = gen.generate(source, self.seed)
            graph = build_graph(generated, symmetric_coo(generated))
            ckpt = trainer.pretrain(
                GraphCollection((graph,), datasets.NODE_LEVEL),
                plan.train_config("full", plan.ckpt_epochs, self.seed),
            )
            self.ckpt_path = self.work / "transfer-full.ckpt"
            checkpoint.save_checkpoint(ckpt, self.ckpt_path)
        ledger.fingerprint["checkpoint_sha256"] = digest(self.ckpt_path)
        ledger.fingerprint["checkpoint_bytes"] = self.ckpt_path.stat().st_size

    def setup(self, ledger: Ledger):
        return ledger.call(
            "setup_s",
            lambda: (checkpoint.load_checkpoint(self.ckpt_path), datasets.load_dataset(self.manifest)),
        )

    def round(self, ledger: Ledger, loaded) -> None:
        plan, seed = self.plan, self.seed
        ckpt, collection = loaded
        target = collection.by_domain(TRANSFER_TARGET)[0]
        source = collection.by_domain(TRANSFER_SOURCE)[0]
        classes = target.num_classes
        z = ckpt.config.z
        emb = ledger.call(
            "embed_s", evaluate.embed, target, ckpt, 0, check=lambda e: check_embedding(e, target, z)
        )
        fewshot = ledger.call(
            "fewshot_s",
            evaluate.fewshot_eval,
            emb,
            k=FEWSHOT_K,
            repeats=plan.fewshot_repeats,
            seed=seed,
            check=lambda r: check_above_chance(r, classes),
        )
        probe = ledger.call(
            "linear_s",
            evaluate.linear_probe,
            emb,
            train_frac=PROBE_FRAC,
            runs=plan.probe_runs,
            seed=seed,
            check=lambda r: check_above_chance(r, classes),
        )
        mi = ledger.call(
            "mi_s",
            lambda: evaluate.mi_diagnostic(
                emb, evaluate.embed(source, ckpt, 0), tau=MI_TAU, seed=seed
            ),
            check=check_mi,
        )
        ledger.fingerprint.update(
            fewshot_accuracy=fewshot.mean_accuracy,
            probe_accuracy=probe.mean_accuracy,
            mi_proxy=mi["mi_proxy"],
        )


class DatasetIO(Workload):
    """Write and read back one edge-heavy graph, then normalize it."""

    steps = ("write_s", "read_s", "normalize_s")

    def prepare(self, ledger: Ledger) -> None:
        shape = self.plan.shapes[IO_DOMAIN]
        self.generated = gen.generate(shape, self.seed)
        self.coo = symmetric_coo(self.generated)
        self.out_dir = self.work / "dataset-io"

    def setup(self, ledger: Ledger):
        return ledger.call(
            "setup_s",
            lambda: GraphCollection((build_graph(self.generated, self.coo),), datasets.NODE_LEVEL),
        )

    def round(self, ledger: Ledger, collection: GraphCollection) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            manifest = ledger.call("write_s", datasets.save_dataset, collection, self.out_dir)
            loaded = ledger.call(
                "read_s",
                datasets.load_dataset,
                manifest,
                check=lambda c: check_same_collection(collection, c),
            )
            adjacency = loaded.graphs[0].adjacency
            ledger.call(
                "normalize_s",
                linalg.normalize_adjacency,
                adjacency,
                check=lambda s: check_normalized(s, adjacency),
            )
            ledger.fingerprint["dataset_sha256"] = {
                p.name: digest(p) for p in sorted(self.out_dir.iterdir())
            }
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


CLASSES = {"pretrain": Pretrain, "transfer": Transfer, "dataset-io": DatasetIO}
# One set-up plus one round, in seconds, measured on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 pinned to one thread).
NOMINAL_ROUND_S = {"pretrain": 16.0, "transfer": 12.0, "dataset-io": 10.0}


def rounds_for(name: str, seconds: float) -> int:
    """Rounds that take about `seconds` on the reference machine. The count
    is fixed by the benchmark, not by how fast the program runs, so both
    sides of a comparison do the same work and take the same samples."""
    return max(1, round(seconds / NOMINAL_ROUND_S[name]))


def run_workload(name: str, plan: Plan, seed: int, rounds: int, work: Path, tracer=None) -> Ledger:
    """Prepare untimed, then `rounds` times set-up + round, then extra
    set-ups up to plan.setup_min."""
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(tracer)
    workload = CLASSES[name](plan, seed, work)
    workload.prepare(ledger)
    for _ in range(rounds):
        try:
            workload.round(ledger, workload.setup(ledger))
        except RoundAborted:
            pass
    for _ in range(plan.setup_min - rounds):
        try:
            workload.setup(ledger)
        except RoundAborted:
            pass
    ledger.steps = workload.steps
    return ledger


def tiny_plan() -> Plan:
    """Small shapes and dims: every workload finishes in a few seconds."""
    shapes = {
        "cora-like": gen.Shape("cora-like", 120, 40, 3, 4.0, "bow"),
        "photo-like": gen.Shape("photo-like", 150, 30, 4, 10.0, "bow"),
        "citeseer-like": gen.Shape("citeseer-like", 130, 50, 3, 3.0, "bow"),
        "edge-heavy": gen.Shape("edge-heavy", 2000, 16, 10, 20.0, "gauss"),
    }
    return replace(
        Plan(),
        shapes=shapes,
        dims={"k": 8, "h": 16, "m": 8, "h_e": 16, "z": 8},
        epochs=3,
        ckpt_epochs=3,
        fewshot_repeats=20,
        probe_runs=2,
        setup_min=2,
    )
