"""The whole-array evaluation protocols against the per-repeat loops they
replaced (kept in `oracles`): every report, record and file must be
byte-identical, and the closed-form probe gradient bitwise the engine's.
At the bench shapes, each protocol's repeats are also split into forked
shares for 1, 2 and 3 CPUs, and every split must keep the bytes."""

import contextlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from leda import autodiff as ad
from leda import evaluate, linalg
from leda.config import EvalConfig
from leda.datasets import GraphCollection, generate_sbm, write_float_tsv
from leda.errors import ConfigError
from leda.evaluate import (
    EmbeddingSet,
    embed,
    fewshot_eval,
    graph_eval,
    linear_probe,
    mi_diagnostic,
)
from leda.trainer import pretrain

from synthetic import labelled, node_collection, tiny_config, zero_grads

SEEDS = st.integers(0, 2**31 - 1)
CPU_COUNTS = (1, 2, 3)


@pytest.fixture
def at_cpus(monkeypatch):
    """at_cpus(n): split repeats for n CPUs from now on; returns the list of
    the (lo, hi) shares forked since, which the call's children ran."""
    forked = []
    fork_share = linalg._fork_share

    def counted(run, lo, hi):
        forked.append((lo, hi))
        return fork_share(run, lo, hi)

    monkeypatch.setattr(linalg, "_fork_share", counted)

    def use(n):
        monkeypatch.setattr(linalg, "_cpus", lambda: n)
        forked.clear()
        return forked

    return use


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
    """BLOCK_SCORES bounded to hold `repeats_per_block` repeats' scores (0
    and 1 both give blocks of one repeat). None keeps the default, which
    puts every test-sized repeat in one block."""
    if repeats_per_block is None:
        return contextlib.nullcontext()
    per_repeat = len(labels) * len(np.unique(labels))
    return mock.patch.object(evaluate, "BLOCK_SCORES", repeats_per_block * per_repeat)


def graph_level(labels) -> GraphCollection:
    """A collection with one graph per label; its pooled rows are patched in."""
    graph = generate_sbm(1, 2, 1.0, 0.0, d=3, cluster_sep=1.0, seed=0, domain_id="g")
    return labelled((graph,) * len(labels), labels)


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
    def test_fewshot_report_at_bench_shape_is_byte_identical(self, at_cpus, k):
        # the bench transfer target's shape, where the products take BLAS's
        # blocked kernels; 120 repeats cross two block boundaries at the
        # default bound and end on a partial block, and each share of them
        # passes the fork break-even
        rows, labels = bench_shaped_rows(17, 3327, 128, 6)
        repeats = 120
        assert repeats > 2 * (evaluate.BLOCK_SCORES // (3327 * 6))
        e = EmbeddingSet("citeseer-like", rows, labels)
        old = as_bytes(oracles.fewshot_eval(e, k=k, repeats=repeats, seed=66666).to_dict())
        for cpus in CPU_COUNTS:
            forked = at_cpus(cpus)
            new = fewshot_eval(e, k=k, repeats=repeats, seed=66666)
            assert as_bytes(new.to_dict()) == old, cpus
            assert len(forked) == cpus - 1

    def test_graph_report_at_bench_shape_is_byte_identical(self, at_cpus):
        pooled, labels = bench_shaped_rows(18, 400, 128, 3)
        collection = graph_level(labels)
        with mock.patch.object(evaluate, "pooled_graph_embeddings", return_value=pooled):
            old = as_bytes(oracles.graph_eval(collection, None, support_per_class=3, repeats=120,
                                              seed=7).to_dict())
            for count in (None, 50):
                for cpus in CPU_COUNTS:
                    forked = at_cpus(cpus)
                    with scored_in_blocks(labels, count):
                        new = graph_eval(collection, None, support_per_class=3, repeats=120, seed=7)
                    assert as_bytes(new.to_dict()) == old, (count, cpus)
                    assert bool(forked) == (cpus > 1)

    @pytest.mark.parametrize("width", [1, 2, 7, 128])
    @pytest.mark.parametrize("shots", range(1, 17))
    def test_prototypes_are_bitwise_one_mean_per_repeat_and_class(self, monkeypatch, shots, width):
        """Each block's prototypes are one gather, against one `mean` per
        repeat and class. The reports see only accuracies, which a mean one
        ulp off could leave unchanged, so the means themselves are compared."""
        seed, repeats = 100 * shots + width, 5
        labels = np.random.default_rng(seed).permutation(np.repeat([0, 3, 4], [shots + 1, shots + 4, shots + 2]))
        vectors = random_rows(seed, len(labels), width)
        normalized = []
        unit_rows = evaluate._unit_rows
        monkeypatch.setattr(evaluate, "_unit_rows", lambda x: normalized.append(x) or unit_rows(x))
        fewshot_eval(EmbeddingSet("r", vectors, labels), k=shots, repeats=repeats, seed=seed)
        members = [np.flatnonzero(labels == c) for c in np.unique(labels)]
        expected = []
        for repeat in range(repeats):
            rng = np.random.default_rng(seed + repeat)
            expected += [vectors[rng.choice(rows, size=shots, replace=False)].mean(axis=0) for rows in members]
        _, prototypes = normalized  # every row, then the one block's prototypes
        assert prototypes.shape == (repeats * 3, width)
        assert prototypes.tobytes() == np.stack(expected).tobytes()


class TestClosedFormProbe:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 40), dim=st.integers(1, 6), classes=st.integers(2, 12),
           steps=st.sampled_from([0, 1, 7, 60]))
    def test_gradient_is_bitwise_the_engines(self, seed, n, dim, classes, steps):
        # past 8 classes, numpy's row sums take their 8-wide pairwise unroll
        rng = np.random.default_rng(seed)
        x = random_rows(seed, n, dim)
        onehot = np.eye(classes)[rng.integers(0, classes, size=n)]
        # iterates along the fit itself, plus one far from it
        w = ad.parameter(rng.standard_normal((dim, classes)) * (steps == 60) * 5.0, "probe.W")
        b = ad.parameter(np.zeros((1, classes)), "probe.b")
        params = {"probe.W": w, "probe.b": b}
        state = evaluate.AdamWState.for_params(params, lr=evaluate.PROBE_LR, weight_decay=0.0)
        # the probe's one-block operands; its scratch starts as garbage
        grad = np.full((dim + 1, classes), np.nan)
        scratch = np.full((n, classes), np.nan), np.full((n, 1), np.nan), np.full((dim, classes), np.nan)
        for _ in range(steps + 1):
            zero_grads(params)
            loss = oracles.probe_loss(ad.constant(x), w, b, onehot)
            ad.backward(loss)
            theta = np.concatenate([w.value, b.value])
            evaluate._probe_grads(x, theta, grad, (-(1.0 / n)) * onehot, *scratch)
            assert np.array_equal(grad[:-1], w.grad)
            assert np.array_equal(grad[-1:], b.grad)
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

    @pytest.mark.parametrize("classes", [6, 10])
    def test_linear_probe_report_at_bench_shape_is_byte_identical(self, at_cpus, classes):
        # the bench transfer probe's shape: about 333 training rows of 128 and
        # 6 classes, where the products take BLAS's blocked kernels; 3 runs
        # give each CPU a share. At 10 classes the row sums take numpy's
        # 8-wide pairwise unroll, and the column-by-column row max runs 9 steps
        rows, labels = bench_shaped_rows(19, 3327, 128, classes)
        e = EmbeddingSet("citeseer-like", rows, labels)
        old = as_bytes(oracles.linear_probe(e, train_frac=0.1, runs=3, seed=66666).to_dict())
        for cpus in CPU_COUNTS:
            forked = at_cpus(cpus)
            new = linear_probe(e, train_frac=0.1, runs=3, seed=66666)
            assert as_bytes(new.to_dict()) == old, cpus
            assert len(forked) == cpus - 1


MI_VALUES = ("expected_s", "log_Z", "mi_proxy")


def assert_record_close(new: dict, old: dict) -> None:
    """Streamed blocks sum in another order than one array does. Scores lie
    in [-1/tau, 1/tau], so expected_s may move by 1e-12 / tau, and log_Z and
    mi_proxy by 1e-12 of max(1, |value|); 1,000 random multi-block inputs
    and the bench shape moved them by at most 2.0e-16 / tau and 2.7e-16.
    Every other entry is equal."""
    assert {k: v for k, v in new.items() if k not in MI_VALUES} == {
        k: v for k, v in old.items() if k not in MI_VALUES
    }
    assert new["expected_s"] == pytest.approx(old["expected_s"], rel=0, abs=1e-12 / old["tau"])
    for key in ("log_Z", "mi_proxy"):
        assert new[key] == pytest.approx(old[key], rel=1e-12, abs=1e-12), key


class TestBlockedMi:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n_i=st.integers(1, 40),
        n_j=st.integers(1, 40),
        dim=st.integers(1, 6),
        tau=st.floats(0.05, 5.0),
    )
    @example(seed=7, n_i=1000, n_j=1000, dim=6, tau=0.5)  # 10^6 pairs: still one block
    def test_record_is_byte_identical(self, seed, n_i, n_j, dim, tau):
        # up to 10^6 pairs every score lies in one block, reduced as the
        # oracle reduces its one array
        e_i = EmbeddingSet("a", random_rows(seed, n_i, dim))
        e_j = EmbeddingSet("b", random_rows(seed + 1, n_j, dim))
        new = mi_diagnostic(e_i, e_j, tau=tau, seed=seed)
        assert as_bytes(new) == as_bytes(oracles.mi_diagnostic(e_i, e_j, tau=tau))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n_i=st.integers(2, 40),
        n_j=st.integers(1, 40),
        dim=st.integers(1, 6),
        tau=st.floats(0.05, 5.0),
        rows_per_block=st.integers(0, 39),
    )
    def test_multi_block_record_matches_one_product(self, seed, n_i, n_j, dim, tau, rows_per_block):
        # BLOCK_SCORES bounded to fewer rows than e_i has (0 and 1 both give
        # blocks of one row), so the last block may be partial
        e_i = EmbeddingSet("a", random_rows(seed, n_i, dim))
        e_j = EmbeddingSet("b", random_rows(seed + 1, n_j, dim))
        with mock.patch.object(evaluate, "BLOCK_SCORES", min(rows_per_block, n_i - 1) * n_j):
            new = mi_diagnostic(e_i, e_j, tau=tau, seed=seed)
        assert_record_close(new, oracles.mi_diagnostic(e_i, e_j, tau=tau))

    def test_record_at_bench_shape(self, at_cpus):
        # the bench transfer pair's shape, 3,327 x 2,708 rows of 128: 9.0M
        # pairs, every one scored, in 9 blocks of at most BLOCK_SCORES; no
        # share is forked, so the bytes are the same at any CPU count
        rows_i, _ = bench_shaped_rows(20, 3327, 128, 6)
        rows_j, _ = bench_shaped_rows(21, 2708, 128, 7)
        e_i, e_j = EmbeddingSet("citeseer-like", rows_i), EmbeddingSet("cora-like", rows_j)
        assert -(-3327 // (evaluate.BLOCK_SCORES // 2708)) == 9
        records = []
        for cpus in CPU_COUNTS:
            forked = at_cpus(cpus)
            records.append(as_bytes(mi_diagnostic(e_i, e_j, tau=0.5, seed=3)))
            assert forked == [], cpus
        assert records == [records[0]] * len(CPU_COUNTS)
        record = json.loads(records[0])
        assert record["pair_count"] == 3327 * 2708
        assert_record_close(record, oracles.mi_diagnostic(e_i, e_j, tau=0.5))


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed(self, seed):
        # a negative seed reached np.random.default_rng, which raised ValueError
        calls = [
            lambda: fewshot_eval(self.labeled, seed=seed),
            lambda: linear_probe(self.labeled, seed=seed),
            lambda: graph_eval(None, None, seed=seed),
            lambda: mi_diagnostic(self.labeled, self.labeled, tau=0.5, seed=seed),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match=f"seed must be an integer >= 0, got {seed!r}"):
                call()

    @pytest.mark.parametrize("key", ["k_shot", "repeats"])
    def test_eval_config_shares_the_count_rule(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be an integer >= 1, got 0"):
            EvalConfig(**{key: 0})
