"""The edge path against the forms it replaced, and the memory each step
holds.

The edges writer in `save_dataset`, `CsrMatrix.from_edges`,
`normalize_adjacency` and `CsrMatrix`'s checks must give the bytes or arrays
of their oracles in `oracles` (the forms that built whole-graph
temporaries), and refuse what those refused with the same text, whatever
the dtype of the index arrays. At a fixed shape of 20,000 nodes and about
200,000 edges each of them, `write_float_tsv`, the labels writer and the
edges reader `_read_edges` (listed once or both ways, in either `symmetrize`
mode) hold under tracemalloc at most a stated multiple of the bytes they
output; the forms they replaced held 2 to 33 times those bytes, or the
reader the file's bytes too, and fail these bounds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leda import datasets, linalg
from leda.datasets import DomainGraph, GraphCollection, degree_features, save_dataset, write_float_tsv
from leda.errors import DataError, NumericError
from leda.linalg import CsrMatrix, _SymmetricCsr, feature_operand, normalize_adjacency

from oracles import (
    assert_same_operand,
    divmod_from_edges,
    int64_csr_check,
    int64_rows_normalized_adjacency,
    one_list_edge_text,
)

N, M = 20_000, 200_000

# named graphs: (n, pairs)
GRAPHS = {
    "empty": (3, []),
    "one node": (1, []),
    "single edge": (2, [(0, 1)]),
    "duplicate pairs": (4, [(0, 2), (2, 0), (0, 2), (3, 1), (1, 3), (3, 1)]),
    "isolated nodes": (6, [(4, 1), (1, 2)]),
    "star": (5, [(0, j) for j in range(1, 5)]),
}


@st.composite
def loop_free_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    return n, [(i, j) for i, j in pairs if i != j]


def traced_peak(fn):
    """fn()'s result, and the most it held above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def csr_bytes(m: CsrMatrix) -> int:
    return m.row_offsets.nbytes + m.col_indices.nbytes + m.values.nbytes


def outcome(fn):
    """None, or the type and text of the data or numeric error fn raised."""
    try:
        fn()
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)
    return None


def written_edges(tmp_path, n, pairs):
    adj = CsrMatrix.from_edges(n, pairs)
    graph = DomainGraph("g", degree_features(adj), adj, degree_featurized=True)
    save_dataset(GraphCollection((graph,), datasets.NODE_LEVEL), tmp_path)
    return adj, (tmp_path / "g000-g.edges.tsv").read_bytes()


@pytest.fixture(scope="module")
def big_pairs():
    pairs = np.random.default_rng(45).integers(0, N, size=(M, 2))
    return pairs[pairs[:, 0] != pairs[:, 1]]


class TestEdgeWriter:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_named_graphs_write_the_one_list_bytes(self, tmp_path, monkeypatch, name, chunk):
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", chunk * datasets._FORMAT_VALUE_BYTES)
        adj, written = written_edges(tmp_path, *GRAPHS[name])
        assert written == one_list_edge_text(adj).encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(graph=loop_free_graphs(), chunk=st.integers(1, 9))
    def test_random_graphs_write_the_one_list_bytes(self, tmp_path_factory, graph, chunk):
        tmp_path = tmp_path_factory.mktemp("edges")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_BLOCK_BYTES", chunk * datasets._FORMAT_VALUE_BYTES)
            adj, written = written_edges(tmp_path, *graph)
        assert written == one_list_edge_text(adj).encode("ascii")


class TestFromEdges:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_named_graphs_match_the_divmod_form(self, name):
        n, pairs = GRAPHS[name]
        for form in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                     np.array(pairs, dtype=np.int32).reshape(-1, 2)):
            assert_same_operand(divmod_from_edges(n, form), CsrMatrix.from_edges(n, form))

    @pytest.mark.parametrize("n, pairs", [(0, []), (1, [(0, 0)]), (3, [(1, 1), (1, 2), (1, 1)])])
    def test_no_nodes_and_self_loops_match_the_divmod_form(self, n, pairs):
        # from_edges takes self-loops; DomainGraph refuses them
        assert_same_operand(divmod_from_edges(n, pairs), CsrMatrix.from_edges(n, pairs))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_random_pairs_match_the_divmod_form(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50))
        adj = CsrMatrix.from_edges(n, pairs)
        assert_same_operand(divmod_from_edges(n, pairs), adj)
        # the type `DomainGraph` takes as symmetric unchecked is so
        assert type(adj) is _SymmetricCsr and adj.is_symmetric()

    @pytest.mark.parametrize("n, pairs", [(3, [(0, 3)]), (3, [(-1, 1)]), (0, [(0, 0)]), (5, [(0, 1), (2, 7)])])
    def test_refusals_keep_their_text(self, n, pairs):
        expected = outcome(lambda: divmod_from_edges(n, pairs))
        assert expected == (DataError, f"edge node index outside [0, {n})")
        assert outcome(lambda: CsrMatrix.from_edges(n, pairs)) == expected

    def test_a_large_graph_matches_the_divmod_form(self, big_pairs):
        assert_same_operand(divmod_from_edges(N, big_pairs), CsrMatrix.from_edges(N, big_pairs))


class TestNormalizeAdjacency:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_named_graphs_match_the_int64_rows_form(self, name):
        adj = CsrMatrix.from_edges(*GRAPHS[name])
        assert_same_operand(int64_rows_normalized_adjacency(adj), normalize_adjacency(adj))

    @settings(max_examples=200, deadline=None)
    @given(graph=loop_free_graphs())
    def test_random_graphs_match_the_int64_rows_form(self, graph):
        adj = CsrMatrix.from_edges(*graph)
        assert_same_operand(int64_rows_normalized_adjacency(adj), normalize_adjacency(adj))

    def test_a_large_graph_matches_the_int64_rows_form(self, big_pairs):
        adj = CsrMatrix.from_edges(N, big_pairs)
        assert_same_operand(int64_rows_normalized_adjacency(adj), normalize_adjacency(adj))


# index dtypes, as a numpy dtype or a Python list
INDEX_FORMS = ["list", "float64", "bool", "int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"]


def as_form(values, form):
    return list(values) if form == "list" else np.array(values).astype(form)


class TestCsrRefusals:
    # (rows, cols, offsets, indices, values)
    CASES = {
        "valid": (2, 3, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
        "no entries": (2, 3, [0, 0, 0], [], []),
        "offsets length": (2, 3, [0, 2], [0, 1], [1.0, 1.0]),
        "nonzero start": (1, 2, [1, 1], [0], [1.0]),
        "short end": (1, 2, [0, 1], [0, 1], [1.0, 1.0]),
        "decreasing": (2, 2, [0, 2, 1], [0], [1.0]),
        "unequal lengths": (1, 2, [0, 2], [0, 1], [1.0]),
        "column too large": (1, 2, [0, 1], [5], [1.0]),
        "negative column": (1, 2, [0, 1], [-1], [1.0]),
        "unsorted row": (2, 3, [0, 1, 3], [1, 2, 0], [1.0, 1.0, 1.0]),
        "duplicate column": (2, 3, [0, 2, 3], [1, 1, 0], [1.0, 1.0, 1.0]),
        "decreases across a row": (3, 3, [0, 2, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0]),
        "non-finite value": (1, 2, [0, 2], [0, 1], [1.0, np.inf]),
    }

    ACCEPTED = ("valid", "no entries", "decreases across a row")

    @pytest.mark.parametrize("case, form", [
        (case, form) for case in sorted(CASES) for form in INDEX_FORMS
        if not (form.startswith("uint") and case == "negative column")
    ])
    def test_each_refusal_keeps_its_text(self, case, form):
        rows, cols, offsets, indices, values = self.CASES[case]
        offsets, indices = as_form(offsets, form), as_form(indices, form)
        expected = outcome(lambda: int64_csr_check(rows, cols, offsets, indices, values))
        assert outcome(lambda: CsrMatrix(rows, cols, offsets, indices, values)) == expected
        if form == "int32":  # the case names the outcome
            assert (expected is None) == (case in self.ACCEPTED)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), form=st.sampled_from(INDEX_FORMS))
    def test_random_arrays_are_refused_as_the_int64_checks_refuse_them(self, data, form):
        signed = not form.startswith("uint") and form != "bool"
        top = 1 if form == "bool" else 6
        small = st.integers(-2 if signed else 0, top)
        rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 5))
        offsets = data.draw(st.lists(small, min_size=rows + data.draw(st.sampled_from([1, 1, 1, 0, 2])),
                                     max_size=rows + 2).map(sorted))
        if offsets and data.draw(st.booleans()):
            offsets[0] = 0
        nnz = data.draw(st.sampled_from([offsets[-1] if offsets else 0, data.draw(st.integers(0, 6))]))
        indices = data.draw(st.lists(small, min_size=max(nnz, 0), max_size=max(nnz, 0)))
        values = data.draw(st.lists(st.sampled_from([1.0, -2.5, np.nan]), min_size=len(indices),
                                    max_size=len(indices) + 1))
        offsets, indices = as_form(offsets, form), as_form(indices, form)
        expected = outcome(lambda: int64_csr_check(rows, cols, offsets, indices, values))
        assert outcome(lambda: CsrMatrix(rows, cols, offsets, indices, values)) == expected
        if expected is None:
            m = CsrMatrix(rows, cols, offsets, indices, values)
            assert m.row_offsets.dtype == m.col_indices.dtype == np.int32
            assert m.row_offsets.tolist() == np.asarray(offsets).astype(np.int64).tolist()
            assert m.col_indices.tolist() == np.asarray(indices).astype(np.int64).tolist()

    @pytest.mark.parametrize("case", ["column", "offset"])
    def test_a_uint64_index_past_int64_keeps_its_text(self, case):
        # upcast to int64 such an index wrapped to a negative one
        huge = np.uint64(2 ** 63 + 1)
        offsets = np.array([0, huge if case == "offset" else 1, 1], dtype=np.uint64)
        indices = np.array([huge if case == "column" else 0], dtype=np.uint64)
        expected = outcome(lambda: int64_csr_check(2, 3, offsets, indices, [1.0]))
        assert expected == (DataError, "column index out of range" if case == "column"
                            else "row_offsets must be nondecreasing")
        assert outcome(lambda: CsrMatrix(2, 3, offsets, indices, [1.0])) == expected

    def test_an_int32_input_is_kept_uncopied_and_frozen(self):
        offsets, indices = np.array([0, 2, 3], dtype=np.int32), np.array([0, 2, 1], dtype=np.int32)
        m = CsrMatrix(2, 3, offsets, indices, np.ones(3))
        assert m.row_offsets is offsets and m.col_indices is indices
        assert not m.col_indices.flags.writeable


class TestTracedPeaks:
    """At 20,000 nodes and about 200,000 edges (about 400,000 entries), each
    step holds at most a stated multiple of its output's bytes: what a
    step needs besides its output, in one working array at a time, or in
    one chunk. The forms they replaced held the multiple in each comment."""

    def test_from_edges(self, big_pairs):
        adj, peak = traced_peak(lambda: CsrMatrix.from_edges(N, big_pairs))
        # the 2m int64 keys, their mask and the unique keys; was 5.0 times
        assert peak < 1.6 * csr_bytes(adj), (peak, csr_bytes(adj))

    def test_normalize_adjacency(self, big_pairs):
        adj = CsrMatrix.from_edges(N, big_pairs)
        s, peak = traced_peak(lambda: normalize_adjacency(adj))
        # the output and one gather of the column scales; was 3.4 times
        assert peak < 2.0 * csr_bytes(s), (peak, csr_bytes(s))

    @pytest.mark.parametrize("listed, symmetrize, bound", [
        # the parsed pairs and `from_edges`'s working arrays; the file's
        # bytes, held until `from_edges` returned, made it 2.5 times
        ("once", True, 2.3),
        # twice the pairs: the default mode reads 3.44 times
        ("both ways", True, 3.5),
        # and so must the strict mode, which counts the distinct listed keys
        # in one sorted int64 array; reversed keys and np.isin made it 9.1 times
        ("both ways", False, 3.5),
    ])
    def test_read_edges(self, tmp_path, monkeypatch, big_pairs, listed, symmetrize, bound):
        # at 1 CPU, which parses in this process
        monkeypatch.setattr(linalg, "_cpus", lambda: 1)
        adj = CsrMatrix.from_edges(N, big_pairs)
        path = tmp_path / "g.edges.tsv"
        if listed == "once":
            path.write_text(one_list_edge_text(adj), encoding="ascii")
        else:  # every entry of the adjacency, so each pair and its reverse
            rows = np.repeat(np.arange(N), np.diff(adj.row_offsets))
            pairs = np.stack([rows, adj.col_indices], axis=1).ravel().tolist()
            path.write_text(("%d\t%d\n" * adj.nnz) % tuple(pairs), encoding="ascii")
        got, peak = traced_peak(lambda: datasets._read_edges(path, N, symmetrize))
        assert_same_operand(adj, got)
        assert peak < bound * csr_bytes(adj), (peak, csr_bytes(adj))

    def test_domain_graph_checks(self, big_pairs):
        adj = CsrMatrix.from_edges(N, big_pairs)
        features = np.zeros((N, 1))
        _, peak = traced_peak(lambda: DomainGraph("g", features, adj))
        # each entry's row in the index dtype, and one mask; a transposed
        # copy for the symmetry check and int64 rows held 1.08 times
        assert peak < 0.5 * csr_bytes(adj), (peak, csr_bytes(adj))

    def test_save_dataset_edge_write(self, tmp_path, big_pairs):
        adj = CsrMatrix.from_edges(N, big_pairs)
        graph = DomainGraph("g", degree_features(adj), adj, degree_featurized=True)
        collection = GraphCollection((graph,), datasets.NODE_LEVEL)
        _, peak = traced_peak(lambda: save_dataset(collection, tmp_path))
        size = (tmp_path / "g000-g.edges.tsv").stat().st_size
        # one chunk of entries at a time, whatever the graph; was 12 times
        assert peak < 0.5 * size, (peak, size)

    def test_save_dataset_label_write(self, tmp_path):
        n = 200_000
        adj = CsrMatrix.from_edges(n, [])
        labels = np.random.default_rng(48).integers(0, 10, n)
        graph = DomainGraph("g", degree_features(adj), adj, labels, degree_featurized=True)
        collection = GraphCollection((graph,), datasets.NODE_LEVEL)
        _, peak = traced_peak(lambda: save_dataset(collection, tmp_path))
        size = (tmp_path / "g000-g.labels.tsv").stat().st_size
        # one chunk of labels at a time; one join of every label's text was 33 times
        assert peak < 0.5 * size, (peak, size)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_float_tsv(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
        x = np.random.default_rng(46).standard_normal((N, 16))
        path = tmp_path / "x.tsv"
        _, peak = traced_peak(lambda: write_float_tsv(path, x))
        # every chunk's text once, and one chunk's rows as Python objects;
        # was 2.0 (2 CPUs) to 2.2 (1 CPU) times
        assert peak < 1.8 * path.stat().st_size, (peak, path.stat().st_size)

    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_write_float_tsv_on_a_wide_table(self, tmp_path, monkeypatch, form):
        """At 1 CPU, which formats in this process: a table whose rows are
        wider than one chunk's values is written a row at a time. A chunk of
        4,096 rows was the whole table: 3.0 (dense Gaussian) to 10.0 (CSR at
        0.85 %, mostly "0.0") times its file."""
        monkeypatch.setattr(linalg, "_cpus", lambda: 1)
        rng = np.random.default_rng(47)
        if form == "dense":
            x = rng.standard_normal((32, 4096))
        else:
            x = feature_operand((rng.random((120, 3703)) < 0.0085) * 1.0)
            assert isinstance(x, CsrMatrix)
        path = tmp_path / "x.tsv"
        _, peak = traced_peak(lambda: write_float_tsv(path, x))
        # every chunk's text once, and one row as Python objects
        assert peak < 1.5 * path.stat().st_size, (peak, path.stat().st_size)
