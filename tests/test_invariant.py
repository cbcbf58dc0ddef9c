"""The bit-identity invariant over drawn shapes: whatever the CPU count and
the size of `linalg.row_blocks`'s blocks, a run gives the same bytes.

Hypothesis draws a collection and a config: 1-3 domains, node-level or
graph-level with 1-5 member graphs; 1-44 nodes a graph at an edge density
of 1 % to 1, and 1-13 features a domain, Gaussian scaled by 1e-3 to 1e3 or
binary (20 % set, held dense, or 3 %, held as CSR); every variant, k, m and
z 1-5 (m = k for no-dpu, which requires it), h and h_e 1-8, and 1-3 epochs.
Each draw runs at every one of SETTINGS and must give what the first gave:
the bytes of every file `save_dataset` writes, the checkpoint's bytes, and
the `embed` rows of each domain (by the CLI's path) or the pooled rows of
each graph; or, for a draw that is refused, the error's type and text. A
second property runs `fewshot_eval`, `linear_probe`, `mi_diagnostic` and
`graph_eval` on drawn embedding sets and graph-level collections at the
same settings, since their repeats are split across CPUs too.

Every setting patches the row split's thresholds low (SPLIT_MIN_ROWS 4,
SPLIT_MIN_WORK 1), so at 2 or 3 CPUs the products over these few dozen rows
run in blocks on threads, and the second property patches REPEAT_MIN_WORK
to 1 too, so that the protocols' repeats run in forked shares. The first
leaves the writers' shares unforked: a fork per file would double its time,
and `test_data_path` checks those shares against the writers' oracles at
1-3 CPUs. A _BLOCK_BYTES of 1 makes every `row_blocks` block one row: the
fused primitives', `from_dense`'s and the writers'. One of 96 bytes gives
the fused primitives' narrow tables blocks of a few rows, so that a pass
whose blocks are wrong only when they hold two or more rows, and there are
two or more of them, differs there. A draw is built anew at
each setting, so no collection memo carries an operand from one setting to
the next.
"""

import hashlib
import json
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leda import linalg
from leda.checkpoint import save_checkpoint
from leda.cli import _embed_domains
from leda.config import VARIANTS, TrainConfig
from leda.datasets import GRAPH_LEVEL, NODE_LEVEL, DomainGraph, GraphCollection, save_dataset
from leda.errors import LedaError
from leda.evaluate import (EmbeddingSet, fewshot_eval, graph_eval, linear_probe, mi_diagnostic,
                           pooled_graph_embeddings)
from leda.linalg import CsrMatrix
from leda.trainer import pretrain

# (CPU count, _BLOCK_BYTES); None keeps the default, 1 byte holds one row of
# any width, and 96 bytes (12 float64 values) 2-4 rows of a table 3-6 wide,
# 6 or 12 rows of a narrower one, and one row of a wider one
SETTINGS = [(1, None), (3, None), (1, 1), (2, 1), (3, 96)]
FEATURES = ("gaussian", "dense binary", "sparse binary")


@contextmanager
def at_setting(cpus, block_bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_cpus", lambda: cpus)
        patch.setattr(linalg, "SPLIT_MIN_ROWS", 4)
        patch.setattr(linalg, "SPLIT_MIN_WORK", 1)
        if block_bytes is not None:
            patch.setattr(linalg, "_BLOCK_BYTES", block_bytes)
        yield


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(fn) -> dict:
    """fn()'s artifacts as digests, those made before any refusal, the
    refusal's error type and text, and the texts of the warnings it gave."""
    out = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # a padded basis warns
        try:
            for name, data in fn():
                out[name] = digest(data)
        except LedaError as exc:
            out["refused"] = f"{type(exc).__name__}: {exc}"
    out["warnings"] = [str(w.message) for w in caught]
    return out


def at_every_setting(fn) -> None:
    """Asserts that outcome(fn(work)) is one at each of SETTINGS, each run
    in a fresh directory `work`."""
    outcomes = []
    for cpus, block_bytes in SETTINGS:
        with at_setting(cpus, block_bytes), tempfile.TemporaryDirectory() as tmp:
            outcomes.append(outcome(lambda: fn(Path(tmp))))
    for setting, other in zip(SETTINGS[1:], outcomes[1:]):
        assert other == outcomes[0], f"(CPUs, _BLOCK_BYTES) = {setting} against {SETTINGS[0]}"


def features(rng, n: int, d: int, kind: str, scale: float) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal((n, d)) * scale
    return (rng.random((n, d)) < (0.2 if kind == "dense binary" else 0.03)) * 1.0


def adjacency(rng, n: int) -> np.ndarray:
    # an edge density drawn log-uniform from 1 % to 1
    upper = np.triu(rng.random((n, n)) < 10.0 ** rng.uniform(-2, 0), k=1)
    return (upper | upper.T) * 1.0


@st.composite
def collections(draw, graph_level=None, domains=(1, 3), members=(1, 5), nodes=(1, 44), dims=(1, 13)):
    """(task kind, one (domain id, features, adjacency, node labels or
    None, graph label or None) per graph, as plain arrays)."""
    if graph_level is None:
        graph_level = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    for i in range(draw(st.integers(*domains))):
        d, kind = draw(st.integers(*dims)), draw(st.sampled_from(FEATURES))
        scale = 10.0 ** draw(st.floats(-3, 3))
        classes = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(*members)) if graph_level else 1):
            n = draw(st.integers(*nodes))
            labels = None if graph_level else rng.integers(0, classes, n)
            graph_label = int(rng.integers(0, classes)) if graph_level else None
            graphs.append((f"d{i}", features(rng, n, d, kind, scale), adjacency(rng, n), labels, graph_label))
    return (GRAPH_LEVEL if graph_level else NODE_LEVEL), graphs


def collection_of(drawn) -> GraphCollection:
    """A new collection of the drawn arrays: its graphs' checks, their
    `feature_operand` and `from_dense` run at the caller's setting."""
    task_kind, graphs = drawn
    return GraphCollection(tuple(
        DomainGraph(domain_id, x, CsrMatrix.from_dense(a), labels,
                    None if labels is None else int(labels.max()) + 1, graph_label=graph_label)
        for domain_id, x, a, labels, graph_label in graphs), task_kind)


@st.composite
def configs(draw) -> dict:
    variant = draw(st.sampled_from(VARIANTS))
    k = draw(st.integers(1, 5))
    return dict(variant=variant, k=k, m=k if variant == "no-dpu" else draw(st.integers(1, 5)),
                z=draw(st.integers(1, 5)), h=draw(st.integers(1, 8)), h_e=draw(st.integers(1, 8)),
                epochs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))


def trained_run(drawn, config: dict, work: Path):
    """save_dataset's files, the checkpoint and the embedded or pooled rows,
    one (name, bytes) at a time."""
    collection = collection_of(drawn)
    save_dataset(collection, work / "data")
    for path in sorted((work / "data").iterdir()):
        yield f"files/{path.name}", path.read_bytes()
    ckpt = pretrain(collection, TrainConfig(**config))
    save_checkpoint(ckpt, work / "run.ckpt")
    yield "checkpoint", (work / "run.ckpt").read_bytes()
    if collection.task_kind == GRAPH_LEVEL:
        yield "pooled_rows", pooled_graph_embeddings(collection, ckpt).tobytes()
    else:
        steps = [(domain_id, 0) for domain_id in sorted(collection.domain_ids())]
        for graph, embeddings in _embed_domains(ckpt, collection, steps):
            yield f"embed/{graph.domain_id}", embeddings.E.tobytes()


def gaussian_domain(n: int, d: int):
    rng = np.random.default_rng(n)
    return NODE_LEVEL, [("d0", rng.standard_normal((n, d)), adjacency(rng, n), rng.integers(0, 2, n), None)]


@settings(max_examples=80, deadline=None)
@given(drawn=collections(), config=configs())
# products one column wide, which rows split across CPUs would round
# otherwise at this shape and seed; in dpu-cl a one-row cosine operand of one
# column, whose gradient numpy sums pairwise over the 30 rows (at this seed a
# sum row by row rounds otherwise; at some seeds it rounds alike)
@example(drawn=gaussian_domain(30, 6), config=dict(variant="dpu-cl", k=1, m=1, z=1, h=4, h_e=1, epochs=2, seed=1))
@example(drawn=gaussian_domain(30, 13), config=dict(variant="full", k=1, m=1, z=1, h=1, h_e=1, epochs=2, seed=1))
# in dpu-cl a cosine operand 4 wide, whose gradient's rows the 96-byte
# setting sums in 10 blocks of 3 rows under a running sum
@example(drawn=gaussian_domain(30, 6), config=dict(variant="dpu-cl", k=2, m=2, z=2, h=4, h_e=4, epochs=2, seed=0))
def test_a_drawn_run_gives_one_set_of_bytes_at_every_setting(drawn, config):
    at_every_setting(lambda work: trained_run(drawn, config, work))


@st.composite
def embedding_pairs(draw):
    """Two (rows, labels) sets of one width, scaled by 1e-3 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 9))
    pair = []
    for _ in range(2):
        n = draw(st.integers(1, 60))
        pair.append((rng.standard_normal((n, width)) * 10.0 ** draw(st.floats(-3, 3)),
                     rng.integers(0, draw(st.integers(1, 4)), n)))
    return pair


def report(value) -> bytes:
    return json.dumps(value.to_dict() if hasattr(value, "to_dict") else value, sort_keys=True).encode()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=embedding_pairs(),
       graphs=collections(graph_level=True, domains=(1, 2), members=(2, 8), nodes=(1, 10), dims=(1, 6)),
       variant=st.sampled_from(VARIANTS),
       args=st.fixed_dictionaries({
           "shots": st.integers(1, 3), "repeats": st.integers(1, 12), "runs": st.integers(1, 2),
           "train_frac": st.sampled_from([0.1, 0.3, 0.6]), "tau": st.sampled_from([0.05, 0.5, 1.0]),
           "seed": st.integers(0, 2**16)}))
def test_the_protocols_give_one_report_at_every_setting(monkeypatch, pair, graphs, variant, args):
    monkeypatch.setattr(linalg, "REPEAT_MIN_WORK", 1)
    e_i, e_j = (EmbeddingSet(name, e, labels) for name, (e, labels) in zip(("ei", "ej"), pair))
    shots, repeats, seed = args["shots"], args["repeats"], args["seed"]
    protocols = {
        "fewshot": lambda: fewshot_eval(e_i, shots, repeats, seed),
        "linear": lambda: linear_probe(e_i, args["train_frac"], args["runs"], seed),
        "mi": lambda: mi_diagnostic(e_i, e_j, args["tau"], seed),
    }
    # one checkpoint for every setting, trained before the settings are run
    config = TrainConfig(variant=variant, k=1, m=1, h=2, h_e=2, z=2, epochs=1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a padded basis
            ckpt = pretrain(collection_of(graphs), config)
        protocols["graph"] = lambda: graph_eval(collection_of(graphs), ckpt, shots, repeats, seed)
    except LedaError:  # a refused training leaves graph_eval nothing to run
        pass
    for name, protocol in protocols.items():
        at_every_setting(lambda work: [(name, report(protocol()))])
