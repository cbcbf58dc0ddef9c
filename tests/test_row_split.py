"""The row split of the large products: every routed product is bitwise
the single call at any CPU count, and so is every checkpoint.

The CPU count is patched to 1, 2 and 3, and the split thresholds are
patched low where the inputs are small, so that these inputs split into
blocks of a few rows, some of them unequal.
"""

import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from leda import autodiff as ad
from leda import linalg
from leda.checkpoint import save_checkpoint
from leda.config import VARIANTS
from leda.datasets import GraphCollection, generate_sbm
from leda.linalg import CsrMatrix, matmul_rows, normalize_adjacency
from leda.trainer import pretrain

from synthetic import bag_of_words, bow_collection, graph_level_collection, tiny_config
from test_acceptance import ablation_suite, suite_train_config

CPU_COUNTS = (1, 2, 3)
LOW_MIN_ROWS = 4


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n): from now on split for n CPUs."""
    return lambda n: monkeypatch.setattr(linalg, "_cpus", lambda: n)


@pytest.fixture
def low_thresholds(monkeypatch):
    monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", LOW_MIN_ROWS)
    monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 1)


@pytest.fixture
def blocks(monkeypatch):
    """The sorted (lo, hi) blocks of each split product, in call order."""
    seen = []
    split_rows = linalg.split_rows

    def spy(rows, work, kernel):
        calls = []

        def recorded(lo, hi):
            calls.append((lo, hi))
            kernel(lo, hi)

        split_rows(rows, work, recorded)
        seen.append(sorted(calls))

    monkeypatch.setattr(linalg, "split_rows", spy)
    return seen


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    return got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestSplitRows:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 13, 29])
    def test_blocks_cover_the_rows_in_order(self, use_cpus, low_thresholds, cpus, rows):
        use_cpus(cpus)
        calls = []
        linalg.split_rows(rows, 1, lambda lo, hi: calls.append((lo, hi)))
        calls.sort()
        want = max(1, min(cpus, rows // LOW_MIN_ROWS))
        assert len(calls) == want
        assert calls[0][0] == 0 and calls[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        if want > 1:
            assert min(hi - lo for lo, hi in calls) >= LOW_MIN_ROWS

    def test_too_little_work_is_one_block(self, use_cpus, monkeypatch):
        use_cpus(2)
        monkeypatch.setattr(linalg, "SPLIT_MIN_ROWS", LOW_MIN_ROWS)
        calls = []
        linalg.split_rows(100, linalg.SPLIT_MIN_WORK - 1, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 100)]

    def test_blocks_keep_the_callers_error_state(self, use_cpus, low_thresholds, blocks):
        """An overflow the caller ignores stays silent in the pool's blocks too."""
        use_cpus(2)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            got = matmul_rows(np.full((8, 1), 1e200), np.full((1, 2), 1e200))
        assert blocks == [[(0, 4), (4, 8)]]
        assert np.all(np.isinf(got))

    def test_the_lowest_failing_block_is_raised_once_every_block_has_ended(self, use_cpus, low_thresholds):
        """Blocks 0 and 1 fail, each with its own error, while block 2 is
        still running: block 0's error is what one call over every row
        raises first, and the output is not used before block 2 ends."""
        use_cpus(3)
        ended = []

        def kernel(lo, hi):
            if lo == 0:
                raise ValueError("block 0 failed")
            if lo == 4:
                raise KeyError("block 1 failed")
            time.sleep(0.2)
            ended.append((lo, hi))

        with pytest.raises(ValueError, match="^block 0 failed$"):
            linalg.split_rows(12, 1, kernel)
        assert ended == [(8, 12)]

    def test_no_thread_outlives_a_split_product(self, use_cpus, low_thresholds, blocks):
        baseline = threading.active_count()
        use_cpus(3)
        a, b = np.ones((12, 3)), np.ones((3, 2))
        assert same_bits(matmul_rows(a, b), a @ b)
        assert blocks == [[(0, 4), (4, 8), (8, 12)]]
        assert threading.active_count() == baseline

    def test_no_thread_outlives_a_two_cpu_pretrain(self, use_cpus, low_thresholds, blocks):
        baseline = threading.active_count()
        use_cpus(2)
        pretrain(bow_collection(seed=4), tiny_config(epochs=2))
        assert max(len(b) for b in blocks) == 2
        assert threading.active_count() == baseline


def symmetric_s(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.2, k=1)
    return normalize_adjacency(CsrMatrix.from_dense((upper | upper.T) * 1.0))


def csr_features(n, d, seed):
    return CsrMatrix.from_dense(bag_of_words(np.random.default_rng(seed), n, d, 0.3))


def operand(rows, cols, form, seed):
    """A rows x cols float64 operand, C-ordered or a transposed view."""
    rng = np.random.default_rng(seed)
    if form == "c-order":
        return rng.standard_normal((rows, cols))
    return rng.standard_normal((cols, rows)).T


SPARSE = {"symmetric S": lambda: symmetric_s(29, 1), "csr features": lambda: csr_features(29, 23, 2)}


class TestSparseProducts:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("matrix", list(SPARSE))
    @pytest.mark.parametrize("form", ["c-order", "transposed view"])
    @pytest.mark.parametrize("width", [1, 5])
    def test_bitwise_scipys_product(self, use_cpus, low_thresholds, blocks, cpus, matrix, form, width):
        use_cpus(cpus)
        m = SPARSE[matrix]()
        x = operand(m.cols, width, form, 3)
        assert same_bits(m.matmul_dense(x), m._scipy @ x)
        assert len(blocks[-1]) == cpus  # 29 rows: unequal blocks at 2 and 3 CPUs
        g = operand(m.rows, width, form, 4)
        assert same_bits(m.t_matmul_dense(g), m._scipy.T @ g)

    def test_transpose_is_built_once_with_sorted_indices(self):
        m = csr_features(29, 23, 2)
        first = m._transpose
        m.t_matmul_dense(np.ones((29, 2)))
        assert m._transpose is first
        want = sp.csr_matrix(m._scipy.T)
        want.sort_indices()
        assert np.array_equal(first.row_offsets, want.indptr)
        assert np.array_equal(first.col_indices, want.indices)
        assert same_bits(first.values, want.data)


class TestDenseProducts:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("a_form", ["c-order", "transposed view"])
    @pytest.mark.parametrize("b_form", ["c-order", "transposed view"])
    @pytest.mark.parametrize("shape", [(29, 7, 5), (29, 16, 1), (13, 3, 33)])
    def test_bitwise_numpys_product(self, use_cpus, low_thresholds, blocks, cpus, a_form, b_form, shape):
        use_cpus(cpus)
        rows, inner, cols = shape
        a, b = operand(rows, inner, a_form, 5), operand(inner, cols, b_form, 6)
        assert same_bits(matmul_rows(a, b), a @ b)
        # one column is a GEMV, which stays one call
        assert len(blocks[-1]) == (1 if cols == 1 else min(cpus, rows // LOW_MIN_ROWS))

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("shape", [(40, 6), (200, 33)])
    def test_one_array_with_its_transpose_stays_one_call(self, use_cpus, low_thresholds, blocks,
                                                         cpus, shape):
        # numpy forms x.T @ x by SYRK; a row block of it would be a GEMM
        use_cpus(cpus)
        x = np.random.default_rng(7).standard_normal(shape)
        assert same_bits(matmul_rows(x.T, x), x.T @ x)
        assert same_bits(matmul_rows(x, x.T), x @ x.T)
        assert blocks == [[(0, shape[1])], [(0, shape[0])]]


class TestEngineMatmul:
    """ad.matmul's forward and a's gradient go through the split; each is
    bitwise the plain numpy product."""

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("transpose_a", [False, True])
    def test_forward_and_gradients(self, use_cpus, low_thresholds, cpus, transpose_a):
        use_cpus(cpus)
        rng = np.random.default_rng(8)
        a = ad.parameter(rng.standard_normal((29, 6)), "a")
        b = ad.parameter(rng.standard_normal((29 if transpose_a else 6, 5)), "b")
        out = ad.matmul(a, b, transpose_a=transpose_a)
        upstream = rng.standard_normal(out.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(upstream))))
        av = a.value.T if transpose_a else a.value
        assert same_bits(out.value, av @ b.value)
        want_a = b.value @ upstream.T if transpose_a else upstream @ b.value.T
        assert same_bits(a.grad, want_a)
        assert same_bits(b.grad, av.T @ upstream)

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_same_operand_gram(self, use_cpus, low_thresholds, cpus):
        use_cpus(cpus)
        x = ad.parameter(np.random.default_rng(9).standard_normal((40, 6)), "x")
        gram = ad.matmul(x, x, transpose_a=True)
        assert same_bits(gram.value, x.value.T @ x.value)


def checkpoint_bytes(collection, config, path):
    save_checkpoint(pretrain(collection, config), path)
    return path.read_bytes()


TRAINING_DATA = {
    "acceptance SBM": (lambda: ablation_suite(seed=1), suite_train_config),
    "bag-of-words": (lambda: bow_collection(seed=4), tiny_config),
    "graph-level": (graph_level_collection, tiny_config),
}
RUNS = [(variant, False) for variant in VARIANTS] + [("full", True)]


class TestCheckpointsAtAnyCpuCount:
    @pytest.mark.parametrize("data", list(TRAINING_DATA))
    @pytest.mark.parametrize("variant, two_phase", RUNS,
                             ids=[v + ("-two-phase" if t else "") for v, t in RUNS])
    def test_one_and_two_cpus_write_the_same_bytes(self, use_cpus, low_thresholds, blocks, tmp_path,
                                                   data, variant, two_phase):
        make_collection, make_config = TRAINING_DATA[data]
        config = replace(make_config(variant=variant, epochs=4), two_phase=two_phase, two_phase_epochs=2)
        written = []
        for cpus in (1, 2):
            use_cpus(cpus)
            blocks.clear()
            written.append(checkpoint_bytes(make_collection(), config, tmp_path / f"{cpus}.ckpt"))
            assert max(len(b) for b in blocks) == cpus
        assert written[0] == written[1]

    def test_at_the_real_thresholds(self, use_cpus, blocks, tmp_path):
        # 2 x 1,100 nodes: the propagations at h_e = 128 pass both
        # thresholds and split in two
        graph = generate_sbm(2, 1100, p_in=0.02, p_out=0.002, d=16, cluster_sep=3.0, seed=5,
                             domain_id="big")
        collection = GraphCollection(graphs=(graph,), task_kind="node-level")
        config = tiny_config(epochs=2, k=8, h=16, m=16, h_e=128, z=32)
        written = []
        for cpus in (1, 2):
            use_cpus(cpus)
            blocks.clear()
            written.append(checkpoint_bytes(collection, config, tmp_path / f"{cpus}.ckpt"))
            split = [b for b in blocks if len(b) > 1]
            assert (len(split) > 0) == (cpus == 2)
            assert all(hi - lo >= linalg.SPLIT_MIN_ROWS for b in split for lo, hi in b)
        assert written[0] == written[1]
