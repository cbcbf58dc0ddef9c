import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leda import linalg
from leda.datasets import DomainGraph, GraphCollection, degree_features
from leda.errors import DataError, NumericError
from leda.evaluate import embed, fewshot_eval
from leda.linalg import (
    SPARSE_FEATURE_DENSITY,
    CsrMatrix,
    SvdResult,
    basis_signs,
    feature_operand,
    gaussian_entropy,
    normalize_adjacency,
    truncated_svd,
)
from leda.trainer import domain_operands, prepare_domains, pretrain

from oracles import (
    assert_same_operand,
    best_rank_k_error,
    fix_signs_loop,
    scipy_csr,
    scipy_from_dense,
    scipy_normalized_adjacency,
    scipy_truncated_svd,
    svd_product,
    to_dense,
)
from synthetic import bag_of_words, bow_collection, tiny_config


def adjacency_from_edges(n, edges):
    return CsrMatrix.from_edges(n, edges)


def assert_own_transpose(s):
    """S has the symmetric type, whose transpose product is its own product,
    and its three arrays, with their dtypes, are bitwise its transpose's."""
    assert type(s) is linalg._SymmetricCsr
    t = CsrMatrix.from_scipy(scipy_csr(s).T)
    for part in ("row_offsets", "col_indices", "values"):
        want, have = getattr(t, part), getattr(s, part)
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), part


class TestNormalizeAdjacency:
    def test_single_node(self):
        a = adjacency_from_edges(1, [])
        s = normalize_adjacency(a)
        assert np.allclose(to_dense(s), [[1.0]])

    def test_two_node_edge(self):
        # degrees with self-loops are (2, 2), so every entry is 1/2
        s = normalize_adjacency(adjacency_from_edges(2, [(0, 1)]))
        assert np.allclose(to_dense(s), [[0.5, 0.5], [0.5, 0.5]])

    def test_three_node_path(self):
        s = to_dense(normalize_adjacency(adjacency_from_edges(3, [(0, 1), (1, 2)])))
        assert s[0][0] == pytest.approx(0.5)
        assert s[0][1] == pytest.approx(1.0 / math.sqrt(6.0))
        assert s[1][1] == pytest.approx(1.0 / 3.0)

    def test_output_symmetric_and_pattern_matches_self_looped_input(self):
        rng = np.random.default_rng(7)
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        a = adjacency_from_edges(n, edges)
        s = normalize_adjacency(a)
        dense = to_dense(s)
        assert np.allclose(dense, dense.T)
        expected_pattern = (to_dense(a) != 0) | np.eye(n, dtype=bool)
        assert np.array_equal(dense != 0, expected_pattern)

    def test_row_sums_bounded_by_node_count(self):
        s = normalize_adjacency(adjacency_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert np.all(to_dense(s).sum(axis=1) <= 5.0)

    # the node counts and mean degrees of the benchmark's paper-like graphs
    @pytest.mark.parametrize("n, mean_degree", [(2708, 3.9), (7650, 31.0), (3327, 2.7)])
    def test_is_its_own_transpose(self, n, mean_degree):
        """S[i, j] and S[j, i] are computed alike, so S's transpose has
        bitwise S's arrays, and the product with it is S's own."""
        rng = np.random.default_rng(n)
        edges = rng.integers(0, n, size=(round(n * mean_degree / 2), 2))
        s = normalize_adjacency(adjacency_from_edges(n, edges[edges[:, 0] != edges[:, 1]]))
        assert_own_transpose(s)
        g = rng.standard_normal((n, 3))
        assert s.t_matmul_dense(g).tobytes() == (scipy_csr(s).T @ g).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), edges=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
    def test_is_bitwise_scipys_d_a_plus_i_d(self, n, edges, seed):
        # the edges fall among a random subset of the nodes, so the others
        # are isolated: rows of the diagonal alone, anywhere in the matrix
        rng = np.random.default_rng(seed)
        touched = rng.choice(n, rng.integers(0, n + 1), replace=False)
        pairs = rng.choice(touched, (edges, 2)) if len(touched) else np.zeros((0, 2), np.int64)
        adj = adjacency_from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        s = normalize_adjacency(adj)
        assert_same_operand(scipy_normalized_adjacency(adj), s)
        assert_own_transpose(s)

    def test_a_block_diagonal_stack_is_bitwise_scipys_and_its_blocks(self):
        rng = np.random.default_rng(11)
        blocks = [adjacency_from_edges(1, [])]
        for n, m in ((30, 40), (2, 1), (25, 0), (60, 300)):
            pairs = rng.integers(0, n, (m, 2))
            blocks.append(adjacency_from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]]))
        stack = CsrMatrix.block_diag(blocks)
        s = normalize_adjacency(stack)
        assert_same_operand(scipy_normalized_adjacency(stack), s)
        assert_same_operand(CsrMatrix.block_diag([normalize_adjacency(b) for b in blocks]), s)
        assert_own_transpose(s)

    @pytest.mark.parametrize("shape", [(60, 40), (50, 50)])
    def test_a_feature_csrs_transpose_product_reads_its_own_arrays(self, monkeypatch, shape):
        """The product is one CSC kernel call on the CSR's own three arrays,
        bitwise scipy's, and leaves nothing cached on the matrix."""
        rng = np.random.default_rng(3)
        x = CsrMatrix.from_dense(bag_of_words(rng, *shape, 0.1))
        assert type(x) is CsrMatrix and not x.is_symmetric()
        g = rng.standard_normal((shape[0], 3))
        want = (scipy_csr(x).T @ g).tobytes()
        before = dict(vars(x))
        read = []
        kernel = linalg._sparsetools.csc_matvecs

        def spy(n_row, n_col, width, offsets, indices, values, *vectors):
            read.append((n_row, n_col, width, offsets, indices, values))
            return kernel(n_row, n_col, width, offsets, indices, values, *vectors)

        monkeypatch.setattr(linalg._sparsetools, "csc_matvecs", spy)
        assert x.t_matmul_dense(g).tobytes() == want
        [(n_row, n_col, width, offsets, indices, values)] = read
        assert (n_row, n_col, width) == (shape[1], shape[0], 3)
        assert offsets is x.row_offsets and indices is x.col_indices and values is x.values
        assert vars(x) == before


def dense_tables():
    """Tables of the four dtypes feature tables come in, mostly zeros; the
    float ones hold both 0.0 and -0.0."""
    def table(dtype):
        if dtype == np.float64:
            value = st.floats(allow_nan=False, allow_infinity=False)
            zero = st.sampled_from([0.0, -0.0])
        else:
            value = st.integers(0, int(np.iinfo(dtype).max))
            zero = st.just(0)
        shape = st.tuples(st.integers(0, 6), st.integers(1, 6))
        return hnp.arrays(dtype, shape, elements=st.one_of(zero, zero, value))
    return st.sampled_from([np.uint8, np.uint16, np.uint64, np.float64]).flatmap(table)


class TestFromDense:
    @settings(max_examples=300, deadline=None)
    @given(x=dense_tables(), divisor=st.sampled_from([None, 1.0, 10.0, 1000.0, 1e15]),
           block_rows=st.sampled_from([None, 1, 2]))
    def test_is_bitwise_scipys_csr_of_the_table(self, x, divisor, block_rows):
        # the nonzeros are found a block of rows at a time, here also of 1 or 2 rows
        with pytest.MonkeyPatch.context() as patch:
            if block_rows:
                patch.setattr(linalg, "_BLOCK_BYTES", block_rows * x.shape[1] * x.itemsize)
            got = CsrMatrix.from_dense(x, divisor)
        assert_same_operand(scipy_from_dense(x, divisor), got)
        # the positions are the table's nonzeros; a subnormal over a divisor
        # may underflow to 0.0, so the check is on the undivided values
        assert not np.any(CsrMatrix.from_dense(x).values == 0)
        assert len(got.values) == np.count_nonzero(x)

    def test_keeps_a_nan_as_a_nonzero(self):
        x = np.zeros((3, 4))
        x[1, 2] = math.nan
        with pytest.raises(NumericError, match="^sparse values contain non-finite entries$"):
            CsrMatrix.from_dense(x)


class TestCsrInvariants:
    def test_rejects_bad_offsets(self):
        with pytest.raises(DataError):
            CsrMatrix(rows=2, cols=2, row_offsets=[0, 2], col_indices=[0, 1], values=[1.0, 1.0])

    def test_rejects_unsorted_columns(self):
        with pytest.raises(DataError, match="strictly increasing"):
            CsrMatrix(
                rows=1, cols=3, row_offsets=[0, 2], col_indices=[2, 0], values=[1.0, 1.0]
            )

    def test_rejects_column_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            CsrMatrix(rows=1, cols=2, row_offsets=[0, 1], col_indices=[5], values=[1.0])

    @pytest.mark.parametrize("offsets, indices, values, message", [
        ([1, 1], [0], [1.0], "start at 0 and end at nnz"),
        ([0, 1], [0, 1], [1.0, 1.0], "start at 0 and end at nnz"),
        ([0, 2, 1], [0], [1.0], "nondecreasing"),
        ([0, 2], [0, 1], [1.0], "equal length"),
    ], ids=["nonzero-start", "short-end", "decreasing", "unequal-lengths"])
    def test_rejects_malformed_arrays(self, offsets, indices, values, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                CsrMatrix(len(offsets) - 1, 2, offsets, indices, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^sparse values contain non-finite entries$"):
                CsrMatrix(1, 2, [0, 2], [0, 1], [1.0, bad])

    @pytest.mark.parametrize("method, inner, outer", [("matmul_dense", 40, 60), ("t_matmul_dense", 60, 40)])
    def test_a_product_with_a_wrong_shaped_operand_is_refused(self, method, inner, outer):
        x = CsrMatrix.from_dense(bag_of_words(np.random.default_rng(2), 60, 40, 0.1))
        assert getattr(x, method)(np.ones((inner, 2))).shape == (outer, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"@ dense \(59, 2\): inner dims differ$"):
                getattr(x, method)(np.ones((59, 2)))

    def test_is_symmetric(self):
        x = CsrMatrix.from_dense(bag_of_words(np.random.default_rng(2), 60, 40, 0.1))
        assert not x.is_symmetric()
        assert CsrMatrix.from_edges(4, [(0, 1), (2, 3)]).is_symmetric()
        assert not CsrMatrix(2, 2, [0, 1, 1], [1], [1.0]).is_symmetric()

    # rows [0, 3], [], [1, 2], [0, 3]: columns fall across every row boundary
    ROWS = [[0, 3], [], [1, 2], [0, 3]]

    @staticmethod
    def from_rows(rows, cols=4):
        offsets = np.cumsum([0] + [len(r) for r in rows])
        indices = [c for r in rows for c in r]
        return CsrMatrix(len(rows), cols, offsets, indices, np.ones(len(indices)))

    def test_accepts_decreasing_columns_across_row_boundaries(self):
        assert self.from_rows(self.ROWS).nnz == 6

    @pytest.mark.parametrize("row", [0, 2, 3])
    @pytest.mark.parametrize("bad", ["unsorted", "duplicate"])
    def test_names_the_offending_row(self, row, bad):
        rows = [list(r) for r in self.ROWS]
        rows[row] = rows[row][::-1] if bad == "unsorted" else [rows[row][1]] * 2
        with pytest.raises(DataError, match=rf"strictly increasing in row {row}$"):
            self.from_rows(rows)

    def test_empty_rows_at_both_ends(self):
        assert self.from_rows([[], [], [1, 3], [], []]).nnz == 2
        with pytest.raises(DataError, match="in row 2$"):
            self.from_rows([[], [], [3, 1], [], []])

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_no_entries(self, rows):
        m = CsrMatrix(rows, 3, np.zeros(rows + 1, dtype=np.int64), [], [])
        assert m.nnz == 0
        assert to_dense(m).shape == (rows, 3)

    def test_scipy_matrix_shares_every_array(self):
        mats = [
            CsrMatrix(2, 3, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
            CsrMatrix.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
            CsrMatrix.from_dense(np.eye(3)),
            CsrMatrix.from_scipy(sp.random(20, 30, density=0.2, random_state=0)),
            normalize_adjacency(adjacency_from_edges(4, [(0, 1), (2, 3)])),
            # a dimension past int32 needs int64 indices
            CsrMatrix(1, 2**31 + 1, [0, 1], [2**31], [1.0]),
        ]
        for m in mats:
            want = np.int64 if m.cols > 2**31 else np.int32
            assert m.row_offsets.dtype == m.col_indices.dtype == want
            scipy_view = scipy_csr(m)
            assert np.shares_memory(scipy_view.indptr, m.row_offsets)
            assert np.shares_memory(scipy_view.indices, m.col_indices)
            assert np.shares_memory(scipy_view.data, m.values)

    def test_from_scipy_leaves_the_callers_matrix_alone(self):
        mat = sp.csr_matrix(([2.0, 1.0], [1, 0], [0, 2]), shape=(1, 2))
        CsrMatrix.from_scipy(mat)
        assert mat.indices.tolist() == [1, 0]
        assert mat.data.flags.writeable and mat.indices.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=6))
    def test_matches_per_row_check(self, rows):
        expected = None
        for r, row in enumerate(rows):
            if np.any(np.diff(row) <= 0):
                expected = f"column indices not strictly increasing in row {r}"
                break
        if expected is None:
            assert self.from_rows(rows, cols=5).nnz == sum(map(len, rows))
        else:
            with pytest.raises(DataError) as info:
                self.from_rows(rows, cols=5)
            assert str(info.value) == expected


def random_table(rng, rows, cols, density):
    """A rows x cols table with about `density` of its entries set, each 1.0
    or 2.0."""
    return (rng.random((rows, cols)) < density) * rng.choice([1.0, 2.0], (rows, cols))


class TestKernelsOnItsArrays:
    """`is_symmetric` and `block_diag` run on the matrix's own arrays, and
    agree with scipy's operations on its `scipy_csr` matrix."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 30), density=st.floats(0.0, 0.6),
           kind=st.sampled_from(["random", "symmetric", "one value off"]), seed=st.integers(0, 2**32 - 1))
    def test_is_symmetric_is_scipys_comparison_with_the_transpose(self, n, density, kind, seed):
        rng = np.random.default_rng(seed)
        dense = random_table(rng, n, n, density)
        if kind != "random":
            dense = np.triu(dense) + np.triu(dense, 1).T
        above = np.flatnonzero(np.triu(dense, 1))
        if kind == "one value off" and len(above):
            dense.flat[rng.choice(above)] *= 3.0
        m = CsrMatrix.from_dense(dense)
        held = scipy_csr(m)
        assert m.is_symmetric() == ((held != held.T).nnz == 0)

    @settings(max_examples=150, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=6),
           density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_block_diag_is_scipys(self, shapes, density, seed):
        rng = np.random.default_rng(seed)
        blocks = [CsrMatrix.from_dense(random_table(rng, rows, cols, density)) for rows, cols in shapes]
        want = CsrMatrix.from_scipy(sp.block_diag([scipy_csr(b) for b in blocks], format="csr"))
        assert_same_operand(want, CsrMatrix.block_diag(blocks))


class TestNoScipyMatrixObject:
    def test_graphs_training_and_evaluation_build_none(self, monkeypatch):
        """With scipy's sparse base class refusing to be built, graphs are
        made, a collection with a multi-member CSR-featured domain is
        prepared and trained, and an unseen CSR domain embedded and
        evaluated."""

        def refuse(*args, **kwargs):
            raise AssertionError("a scipy sparse matrix object was built")

        monkeypatch.setattr(sp._base._spbase, "__init__", refuse)
        with pytest.raises(AssertionError, match="scipy sparse matrix object"):
            sp.csr_matrix(np.eye(2))
        rng = np.random.default_rng(21)
        graphs = []
        for domain_id, n, width in [("words", 20, 60)] * 3 + [("gauss", 7, 6)] * 2:
            upper = np.triu(rng.random((n, n)) < 0.3, k=1)
            x = bag_of_words(rng, n, width, 0.03) if domain_id == "words" else rng.standard_normal((n, width))
            graphs.append(DomainGraph(domain_id, x, CsrMatrix.from_dense((upper | upper.T) * 1.0),
                                      graph_label=len(graphs) % 2))
        collection = GraphCollection(tuple(graphs), "graph-level")
        config = tiny_config(epochs=2)
        prepare_domains(collection, config)
        assert type(domain_operands(collection, "words").x) is CsrMatrix
        ckpt = pretrain(collection, config)
        unseen = bow_collection(seed=6).graphs[0]
        assert type(unseen.features) is CsrMatrix
        report = fewshot_eval(embed(unseen, ckpt), repeats=5)
        assert report.repeats == 5


class TestFromEdges:
    def test_array_and_pair_list_agree_and_collapse_duplicates(self):
        pairs = [(0, 2), (2, 0), (0, 2), (3, 1)]
        a = CsrMatrix.from_edges(4, pairs)
        b = CsrMatrix.from_edges(4, np.array(pairs))
        expected = np.zeros((4, 4))
        for i, j in pairs:
            expected[i, j] = expected[j, i] = 1.0
        for m in (a, b):
            assert np.array_equal(to_dense(m), expected)
            assert m.row_offsets.tolist() == [0, 1, 2, 3, 4]
            assert m.col_indices.tolist() == [2, 3, 0, 1]

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 1)])
    def test_rejects_index_outside_node_range(self, pair):
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            CsrMatrix.from_edges(3, [pair])

    def test_no_edges(self):
        for n in (0, 3):
            m = CsrMatrix.from_edges(n, [])
            assert m.nnz == 0 and m.row_offsets.tolist() == [0] * (n + 1)


class TestTruncatedSvd:
    def test_diagonal_rank_one(self):
        res = truncated_svd(np.diag([3.0, 2.0]), k=1, seed=0)
        assert res.singular_values[0] == pytest.approx(3.0)
        assert np.abs(res.V[:, 0]) == pytest.approx([1.0, 0.0], abs=1e-12)
        # sign convention: leading entry nonnegative
        assert res.V[0, 0] > 0

    def test_identity_all_ones(self):
        res = truncated_svd(np.eye(4), k=4, seed=1)
        assert np.allclose(res.singular_values, 1.0)

    def test_matches_oracle_on_random_matrix(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((20, 10))
        res = truncated_svd(x, k=5, seed=3)
        err = np.linalg.norm(x - svd_product(res))
        assert err == pytest.approx(best_rank_k_error(x, 5), rel=1e-6)

    def test_monotone_error_in_rank(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((15, 12))
        errs = []
        for k in (2, 4, 6, 8):
            res = truncated_svd(x, k=k, seed=11)
            errs.append(np.linalg.norm(x - svd_product(res)))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_v_columns_orthonormal(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            x = rng.standard_normal((18, 9))
            res = truncated_svd(x, k=4, seed=trial)
            gram = res.V.T @ res.V
            assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 8))
        a = truncated_svd(x, k=3, seed=77)
        b = truncated_svd(x, k=3, seed=77)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.singular_values, b.singular_values)

    # dense tables at the bench's paper-like shapes (Cora-like, Photo-like)
    # and weighted words at Cora's density (1.3 %), at k=64; two small shapes
    @pytest.mark.parametrize("rows, cols, density, k", [
        (2708, 1433, None, 64), (7650, 745, None, 64), (2708, 1433, 0.013, 64),
        (30, 20, None, 5), (90, 150, 0.05, 8),
    ])
    def test_bitwise_the_scipy_product_oracle(self, rows, cols, density, k):
        """A CsrMatrix's products by its own kernels, and a dense table's
        as numpy forms them, give V, U and s bitwise the oracle's, whose
        CSR products are scipy's `@`."""
        rng = np.random.default_rng(rows * cols)
        if density is None:
            x = rng.standard_normal((rows, cols))
        else:
            x = CsrMatrix.from_dense(bag_of_words(rng, rows, cols, density) * rng.uniform(0.1, 3.0, (rows, cols)))
        got, want = truncated_svd(x, k, seed=5), scipy_truncated_svd(x, k, seed=5)
        for part in ("V", "U", "singular_values"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part

    def test_rank_out_of_range(self):
        with pytest.raises(DataError):
            truncated_svd(np.eye(3), k=4, seed=0)
        with pytest.raises(DataError):
            truncated_svd(np.eye(3), k=0, seed=0)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_finite_features_whose_sketch_overflows_are_a_numeric_error(self, kind):
        # every entry is finite, but x^T (x z) is not
        x = np.random.default_rng(4).standard_normal((8, 6)) * 1e200
        x = CsrMatrix.from_dense(x) if kind == "csr" else x
        with warnings.catch_warnings():  # and no raw RuntimeWarning before it
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^svd sketch overflowed"):
                truncated_svd(x, k=2, seed=0)

    @pytest.mark.parametrize("x, error, message", [
        (np.ones(4), DataError, "^svd input must be 2-D, got ndim=1$"),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), NumericError, "^svd input contains non-finite entries$"),
        (np.array([[1.0, 0.0], [math.inf, 1.0]]), NumericError, "^svd input contains non-finite entries$"),
    ], ids=["one-dim", "nan", "inf"])
    def test_refuses_what_is_not_a_finite_table(self, x, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                truncated_svd(x, k=1, seed=0)


class TestSvdResult:
    """The post-conditions checked on LAPACK's output."""

    V = np.eye(3)[:, :2]

    @pytest.mark.parametrize("singular_values, message", [
        ([1.0, 2.0], "^singular values must be nonincreasing$"),
        ([1.0, -0.5], "^singular values must be nonnegative$"),
    ], ids=["increasing", "negative"])
    def test_refuses_bad_singular_values(self, singular_values, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=message):
                SvdResult(U=np.eye(2), singular_values=np.array(singular_values), V=self.V)

    def test_refuses_v_columns_that_are_not_orthonormal(self):
        v = self.V.copy()
        v[0, 1] = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^V columns are not orthonormal$"):
                SvdResult(U=np.eye(2), singular_values=np.array([2.0, 1.0]), V=v)
        assert SvdResult(U=np.eye(2), singular_values=np.array([2.0, 2.0]), V=self.V).V is self.V


class TestSparseFeatures:
    """Features held as CSR (`feature_operand`) against the dense path."""

    def test_gaussian_and_degree_features_stay_dense(self):
        gaussian = np.random.default_rng(0).standard_normal((30, 8))
        ring = CsrMatrix.from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
        degree = degree_features(ring)
        for x in (gaussian, degree):
            assert feature_operand(x) is x

    def test_bag_of_words_goes_to_csr(self):
        x = bag_of_words(np.random.default_rng(1), 200, 300, 0.02)
        held = feature_operand(x)
        assert isinstance(held, CsrMatrix)
        assert np.array_equal(to_dense(held), x)

    def test_density_at_the_constant_goes_to_csr(self):
        x = np.zeros((20, 50))
        at = round(SPARSE_FEATURE_DENSITY * x.size)
        assert at == SPARSE_FEATURE_DENSITY * x.size
        x.flat[:at] = 1.0
        assert isinstance(feature_operand(x), CsrMatrix)
        x.flat[at] = 1.0
        assert feature_operand(x) is x

    @pytest.mark.parametrize("density", [0.02, 0.3])
    def test_an_integer_table_over_a_divisor_is_ruled_on_as_its_float_table(self, density):
        rng = np.random.default_rng(6)
        ints = rng.integers(1, 1000, (40, 30)) * (rng.random((40, 30)) < density)
        for dtype in (np.uint16, np.int64):
            for divisor in (1.0, 10.0, 1000.0):
                table = ints.astype(dtype)
                assert_same_operand(feature_operand(np.divide(table, divisor)),
                                    feature_operand(table, divisor))

    def test_a_csr_operand_is_kept_or_ruled_on_as_its_dense_table(self):
        sparse = bag_of_words(np.random.default_rng(2), 40, 50, 0.02)
        held = feature_operand(sparse)
        assert feature_operand(held) is held
        denser = bag_of_words(np.random.default_rng(2), 40, 50, 0.2)
        assert_same_operand(denser, feature_operand(CsrMatrix.from_dense(denser)))
        # stored zeros, of either sign, are dropped as the dense table's rule drops them
        stored = sp.csr_matrix(sparse)
        stored.data[:3] = [0.0, -0.0, 0.0]
        kept = sparse.copy()
        kept.flat[np.flatnonzero(sparse)[:3]] = 0.0
        assert_same_operand(feature_operand(kept), feature_operand(CsrMatrix.from_scipy(stored)))

    def test_to_dense_gives_a_span_of_rows(self):
        x = bag_of_words(np.random.default_rng(3), 30, 20, 0.1)
        held = CsrMatrix.from_dense(x)
        assert_same_operand(x, held.to_dense())
        for lo, hi in ((0, 0), (0, 7), (7, 30), (29, 30)):
            assert_same_operand(x[lo:hi], held.to_dense(lo, hi))

    def test_from_dense_equals_the_scipy_conversion(self):
        rng = np.random.default_rng(4)
        sparse_gauss = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.3)
        for x in (sparse_gauss, np.zeros((3, 4)), np.zeros((0, 3)), [[-0.0, 1.0], [2.0, -0.0]]):
            got = CsrMatrix.from_dense(x)
            want = CsrMatrix.from_scipy(sp.csr_matrix(np.asarray(x, dtype=float)))
            for part in ("row_offsets", "col_indices", "values"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    def test_svd_of_csr_matches_dense(self):
        # same sketch and steps; only the summation order of the x products
        # differs, so V and the singular values agree to rounding (measured:
        # 1.2e-13 and 2.9e-15). Weighted words, so that the orders do round.
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = bag_of_words(rng, 150, 90, 0.05) * rng.uniform(0.1, 3.0, (150, 90))
            dense = truncated_svd(x, 8, seed=trial)
            sparse = truncated_svd(CsrMatrix.from_dense(x), 8, seed=trial)
            assert np.max(np.abs(sparse.V - dense.V)) <= 1e-10
            s, s_dense = sparse.singular_values, dense.singular_values
            assert np.max(np.abs(s - s_dense) / s_dense) <= 1e-12
            # sign convention: the largest-magnitude entry of each V column is >= 0
            lead = np.argmax(np.abs(sparse.V), axis=0)
            assert np.all(sparse.V[lead, np.arange(8)] >= 0)
            assert np.max(np.abs(sparse.U - dense.U)) <= 1e-10


class TestBasisSigns:
    def test_bitwise_the_per_column_loop(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((7, 9))
        v[:, 1] = [-1.0, 1.0, 0.5, 0, 0, 0, 0]  # a tie goes to the first row: flipped
        v[:, 2] = [1.0, -1.0, 0.5, 0, 0, 0, 0]  # kept
        v[:, 3] = 0.0
        v[:, 4] = -0.0
        v[[0, 3], 5] = [-0.0, -4.0]  # a signed zero is negated with its column
        u = rng.standard_normal((5, 9))
        signs = basis_signs(v)
        ref_u, ref_v = fix_signs_loop(u.copy(), v.copy())
        assert (v * signs).tobytes() == ref_v.tobytes()
        assert (u * signs).tobytes() == ref_u.tobytes()
        assert signs[1] == -1.0 and signs[2] == 1.0


class TestGaussianEntropy:
    def test_one_dim_unit_variance(self):
        # rows (1, 0, -1) have sample variance exactly 1 (ddof=1)
        res = gaussian_entropy(np.array([[1.0], [0.0], [-1.0]]))
        assert not res.degenerate
        assert res.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-6)

    def test_identity_covariance(self):
        # scaled +-1 design: sample covariance is exactly diag(1, 1)
        a = math.sqrt(0.75)
        rows = np.array([[a, a], [-a, a], [a, -a], [-a, -a]])
        res = gaussian_entropy(rows)
        assert not res.degenerate
        assert res.value == pytest.approx(math.log(2 * math.pi * math.e), abs=1e-6)

    def test_identical_rows_degenerate(self):
        res = gaussian_entropy(np.ones((6, 2)))
        assert res.degenerate
        assert res.value == -math.inf

    def test_too_few_rows_degenerate(self):
        res = gaussian_entropy(np.random.default_rng(0).standard_normal((3, 3)))
        assert res.degenerate

    def test_refuses_a_non_finite_table(self):
        vhat = np.random.default_rng(0).standard_normal((6, 2))
        vhat[3, 1] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^entropy input contains non-finite entries$"):
                gaussian_entropy(vhat)

    def test_scaling_raises_entropy_by_m_log_c(self):
        rng = np.random.default_rng(4)
        vhat = rng.standard_normal((40, 5))
        base = gaussian_entropy(vhat)
        for c in (2.0, 3.5):
            scaled = gaussian_entropy(c * vhat)
            assert scaled.value - base.value == pytest.approx(5 * math.log(c), abs=1e-6)
