"""The whole-array evaluation protocols against the per-repeat loops they
replaced (kept in `oracles`): every report, record and file must be
byte-identical, and the closed-form probe gradient bitwise the engine's."""

import contextlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from leda import autodiff as ad
from leda import evaluate
from leda.config import EvalConfig
from leda.datasets import GraphCollection, generate_sbm, write_float_tsv
from leda.errors import ConfigError
from leda.evaluate import (
    MI_BLOCK_PAIRS,
    EmbeddingSet,
    embed,
    fewshot_eval,
    graph_eval,
    linear_probe,
    mi_diagnostic,
)
from leda.trainer import pretrain

from synthetic import node_collection, tiny_config, zero_grads

SEEDS = st.integers(0, 2**31 - 1)


def as_bytes(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def random_rows(seed: int, n: int, dim: int) -> np.ndarray:
    """Rows over six orders of magnitude, with some zero and repeated rows."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    rows[rng.random(n) < 0.1] = 0.0
    repeated = rng.random(n) < 0.1
    rows[repeated] = rows[0]
    return rows


@st.composite
def labeled_rows(draw, max_class_size=12):
    values = draw(st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True))
    sizes = [draw(st.integers(1, max_class_size)) for _ in values]
    shots = draw(st.integers(1, min(sizes)))
    if all(size == shots for size in sizes):
        sizes[0] += 1
    seed = draw(SEEDS)
    labels = np.random.default_rng(seed).permutation(np.repeat(values, sizes))
    rows = random_rows(seed, len(labels), draw(st.integers(1, 8)))
    return rows, labels, shots


BLOCK_REPEATS = (None, 0, 1, 2, 3)


def scored_in_blocks(labels, repeats_per_block):
    """PROTOTYPE_BLOCK_SCORES bounded to hold `repeats_per_block` repeats'
    scores (0 and 1 both give blocks of one repeat). None keeps the default,
    which puts every test-sized repeat in one block."""
    if repeats_per_block is None:
        return contextlib.nullcontext()
    per_repeat = len(labels) * len(np.unique(labels))
    return mock.patch.object(evaluate, "PROTOTYPE_BLOCK_SCORES", repeats_per_block * per_repeat)


def graph_level(labels) -> GraphCollection:
    """A collection with one graph per label; its pooled rows are patched in."""
    graph = generate_sbm(1, 2, 1.0, 0.0, d=3, cluster_sep=1.0, seed=0, domain_id="g")
    return GraphCollection(graphs=(graph,) * len(labels), task_kind="graph-level",
                           graph_labels=tuple(labels))


def bench_shaped_rows(seed: int, n: int, dim: int, classes: int):
    """Rows around one center per class, about 1% of them zero."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    rows = rng.standard_normal((classes, dim))[labels] + 2.0 * rng.standard_normal((n, dim))
    rows[rng.random(n) < 0.01] = 0.0
    return rows, labels


class TestPrototypeLoop:
    @settings(max_examples=60, deadline=None)
    @given(data=labeled_rows(), repeats=st.integers(1, 30), seed=SEEDS)
    def test_fewshot_report_is_byte_identical(self, data, repeats, seed):
        rows, labels, k = data
        e = EmbeddingSet("r", rows, labels)
        old = as_bytes(oracles.fewshot_eval(e, k=k, repeats=repeats, seed=seed).to_dict())
        for count in BLOCK_REPEATS:
            with scored_in_blocks(labels, count):
                new = fewshot_eval(e, k=k, repeats=repeats, seed=seed)
            assert as_bytes(new.to_dict()) == old, count

    @settings(max_examples=40, deadline=None)
    @given(data=labeled_rows(max_class_size=6), repeats=st.integers(1, 30), seed=SEEDS)
    def test_graph_report_is_byte_identical(self, data, repeats, seed):
        pooled, labels, support = data
        collection = graph_level(labels)
        with mock.patch.object(evaluate, "pooled_graph_embeddings", return_value=pooled):
            old = as_bytes(oracles.graph_eval(collection, None, support_per_class=support,
                                              repeats=repeats, seed=seed).to_dict())
            for count in BLOCK_REPEATS:
                with scored_in_blocks(labels, count):
                    new = graph_eval(collection, None, support_per_class=support, repeats=repeats,
                                     seed=seed)
                assert as_bytes(new.to_dict()) == old, count

    @pytest.mark.parametrize("k", [1, 5])
    def test_fewshot_report_at_bench_shape_is_byte_identical(self, k):
        # the bench transfer target's shape, where the products take BLAS's
        # blocked kernels; 120 repeats cross two block boundaries at the
        # default bound and end on a partial block
        rows, labels = bench_shaped_rows(17, 3327, 128, 6)
        repeats = 120
        assert repeats > 2 * (evaluate.PROTOTYPE_BLOCK_SCORES // (3327 * 6))
        e = EmbeddingSet("citeseer-like", rows, labels)
        new = fewshot_eval(e, k=k, repeats=repeats, seed=66666)
        old = oracles.fewshot_eval(e, k=k, repeats=repeats, seed=66666)
        assert as_bytes(new.to_dict()) == as_bytes(old.to_dict())

    def test_graph_report_at_bench_shape_is_byte_identical(self):
        pooled, labels = bench_shaped_rows(18, 400, 128, 3)
        collection = graph_level(labels)
        with mock.patch.object(evaluate, "pooled_graph_embeddings", return_value=pooled):
            old = as_bytes(oracles.graph_eval(collection, None, support_per_class=3, repeats=120,
                                              seed=7).to_dict())
            for count in (None, 50):
                with scored_in_blocks(labels, count):
                    new = graph_eval(collection, None, support_per_class=3, repeats=120, seed=7)
                assert as_bytes(new.to_dict()) == old, count


class TestClosedFormProbe:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 40), dim=st.integers(1, 6), classes=st.integers(2, 5),
           steps=st.sampled_from([0, 1, 7, 60]))
    def test_gradient_is_bitwise_the_engines(self, seed, n, dim, classes, steps):
        rng = np.random.default_rng(seed)
        x = random_rows(seed, n, dim)
        onehot = np.eye(classes)[rng.integers(0, classes, size=n)]
        # iterates along the fit itself, plus one far from it
        w = ad.parameter(rng.standard_normal((dim, classes)) * (steps == 60) * 5.0, "probe.W")
        b = ad.parameter(np.zeros((1, classes)), "probe.b")
        params = {"probe.W": w, "probe.b": b}
        state = evaluate.AdamWState.for_params(params, lr=evaluate.PROBE_LR, weight_decay=0.0)
        for _ in range(steps + 1):
            zero_grads(params)
            loss = oracles.probe_loss(ad.constant(x), w, b, onehot)
            ad.backward(loss)
            value, grad_w, grad_b = evaluate._probe_loss_and_grads(x, w.value, b.value, onehot)
            assert value == loss.value[0, 0]
            assert np.array_equal(grad_w, w.grad)
            assert np.array_equal(grad_b, b.grad)
            evaluate.adamw_step(params, state)

    @settings(max_examples=8, deadline=None)
    @given(data=labeled_rows(max_class_size=10), runs=st.integers(1, 2),
           train_frac=st.floats(0.05, 0.7), seed=SEEDS)
    def test_linear_probe_report_is_byte_identical(self, data, runs, train_frac, seed):
        rows, labels, _ = data
        e = EmbeddingSet("r", rows, labels)
        try:
            old = oracles.linear_probe(e, train_frac=train_frac, runs=runs, seed=seed)
        except evaluate.DataError as exc:
            with pytest.raises(evaluate.DataError, match=re.escape(str(exc))):
                linear_probe(e, train_frac=train_frac, runs=runs, seed=seed)
            return
        new = linear_probe(e, train_frac=train_frac, runs=runs, seed=seed)
        assert as_bytes(new.to_dict()) == as_bytes(old.to_dict())


class TestBlockedMi:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n_i=st.integers(1, 40),
        n_j=st.integers(1, 40),
        dim=st.integers(1, 6),
        max_pairs=st.sampled_from([1, 100, MI_BLOCK_PAIRS - 1, MI_BLOCK_PAIRS,
                                   MI_BLOCK_PAIRS + 1, 3 * MI_BLOCK_PAIRS, 1000]),
        tau=st.floats(0.05, 5.0),
    )
    def test_record_is_byte_identical(self, seed, n_i, n_j, dim, max_pairs, tau):
        e_i = EmbeddingSet("a", random_rows(seed, n_i, dim))
        e_j = EmbeddingSet("b", random_rows(seed + 1, n_j, dim))
        new = mi_diagnostic(e_i, e_j, tau=tau, seed=seed, max_pairs=max_pairs)
        old = oracles.mi_diagnostic(e_i, e_j, tau=tau, seed=seed, max_pairs=max_pairs)
        assert as_bytes(new) == as_bytes(old)

    def test_sampled_path_runs_in_blocks(self):
        # 41 x 41 pairs exceed max_pairs, so the scores are sampled; more than
        # one block must be scored and the partial last block kept
        rng = np.random.default_rng(3)
        e_i = EmbeddingSet("a", rng.standard_normal((41, 3)))
        e_j = EmbeddingSet("b", rng.standard_normal((41, 3)))
        max_pairs = 2 * MI_BLOCK_PAIRS + 5
        record = mi_diagnostic(e_i, e_j, tau=0.5, seed=1, max_pairs=max_pairs)
        assert record["pair_count"] == max_pairs
        assert as_bytes(record) == as_bytes(
            oracles.mi_diagnostic(e_i, e_j, tau=0.5, seed=1, max_pairs=max_pairs)
        )


class TestEmbeddingFiles:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 30), dim=st.integers(0, 5))
    def test_tsv_bytes_match_the_per_value_writer(self, tmp_path_factory, seed, n, dim):
        rows = random_rows(seed, n, dim) if n and dim else np.zeros((n, dim))
        rows[rows.shape[0] // 2:, :1] = -0.0
        e = EmbeddingSet("r", rows)
        root = tmp_path_factory.mktemp("tsv")
        write_float_tsv(root / "new.tsv", e.E, index=True)
        oracles.write_embeddings_tsv(e, root / "old.tsv")
        assert (root / "new.tsv").read_bytes() == (root / "old.tsv").read_bytes()


@pytest.fixture(scope="module", params=["full", "no-dpu", "no-lda", "dpu-cl"])
def variant_ckpt(request):
    return pretrain(node_collection(), tiny_config(epochs=3, variant=request.param))


class TestEmbedFromOneParamSet:
    @pytest.mark.parametrize("t", [0, 2])
    def test_embeddings_are_byte_identical(self, variant_ckpt, t):
        seen = node_collection().graphs[0]
        unseen = generate_sbm(3, 6, 0.5, 0.1, d=25, cluster_sep=3.0, seed=77, domain_id="new")
        for domain in (seen, unseen):
            got = embed(domain, variant_ckpt, t=t).E
            assert got.tobytes() == oracles.embed_with_constants(domain, variant_ckpt, t).tobytes()


class TestArgumentRules:
    labeled = EmbeddingSet("x", np.eye(6), np.array([0, 0, 0, 1, 1, 1]))

    @pytest.mark.parametrize("kwargs", [dict(k=0), dict(k=-1), dict(repeats=0), dict(k=1.5),
                                        dict(k=True)])
    def test_fewshot(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            fewshot_eval(self.labeled, **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(runs=0), dict(train_frac=0.0), dict(train_frac=1.0),
                                        dict(train_frac=float("nan")), dict(train_frac=-0.5)])
    def test_linear_probe(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            linear_probe(self.labeled, **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(support_per_class=0), dict(repeats=0)])
    def test_graph_eval(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            graph_eval(None, None, **kwargs)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_mi_tau(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            mi_diagnostic(self.labeled, self.labeled, tau=tau)

    @pytest.mark.parametrize("key", ["k_shot", "repeats"])
    def test_eval_config_shares_the_count_rule(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be an integer >= 1, got 0"):
            EvalConfig(**{key: 0})
