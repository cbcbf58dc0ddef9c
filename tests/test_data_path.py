"""The dataset readers and writer against the line-by-line code they
replaced.

The `ref_*` functions below are the readers and the writer as they stood
before the array readers, kept verbatim apart from their return values (the
edge reader returns its sorted symmetric pair list instead of building a
CsrMatrix). The features reader decodes a byte grid of fixed-width decimal
tokens a block of lines at a time, as the column-by-column decoder in
`oracles` did; a reader parses any other plain file with np.loadtxt
and any other file in one pass over its lines that follows its oracle. For
every generated file the reader must return a bit-identical array or raise a
DataError with the same message, whether the plain text is parsed in one
share or in forked shares: the CPU count is patched to 1, 2 and 3 and the
work of a byte or a float to a whole share's, so that these small files fork.
"""

import gc
import json
import mmap
import os
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leda import datasets, linalg
from leda.datasets import (
    _FLOAT_CHARS,
    _INT_CHARS,
    DomainGraph,
    GraphCollection,
    _load_fixed_width,
    _load_plain,
    _read_edges,
    _read_features,
    _read_labels,
    load_dataset,
    save_dataset,
    write_float_tsv,
)
from leda.errors import DataError
from leda.linalg import CsrMatrix, feature_operand

from oracles import assert_same_operand, column_fixed_width, to_dense, write_embeddings_tsv
from synthetic import bag_of_words, bow_collection

CPU_COUNTS = (1, 2, 3)

# ---------------------------------------------------------------------------
# reference oracle: the line-by-line readers and writer


def ref_read_edges(path, n, symmetrize):
    pairs = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected two tab-separated indices")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer node index") from exc
        if i == j:
            raise DataError(f"{path}:{lineno}: self-loop edge {i}-{j} not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"{path}:{lineno}: node index beyond node count {n}")
        pairs.append((i, j))
    unique = set(pairs)
    if not symmetrize:
        for i, j in unique:
            if (j, i) not in unique:
                raise DataError(f"{path}: edge {i}-{j} has no reverse and symmetrize is false")
    return sorted(unique | {(j, i) for i, j in unique})


def ref_read_features(path):
    rows = []
    width = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = raw.split("\t")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{path}:{lineno}: ragged feature row ({len(row)} vs {width})")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty features file")
    return np.array(rows, dtype=np.float64)


def ref_read_labels(path):
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer label") from exc
    return np.array(values, dtype=np.int64)


def ref_write_graph(graph):
    """(edges, features, labels) file texts as the per-element writer made them."""
    lines = []
    adj = graph.adjacency
    for r in range(adj.rows):
        for c in adj.col_indices[adj.row_offsets[r]:adj.row_offsets[r + 1]]:
            if r < c:
                lines.append(f"{r}\t{int(c)}")
    edges = "\n".join(lines) + ("\n" if lines else "")
    rows = ["\t".join(repr(float(v)) for v in row) for row in graph.features]
    features = "\n".join(rows) + "\n"
    labels = "\n".join(str(int(v)) for v in graph.labels) + "\n"
    return edges, features, labels


# ---------------------------------------------------------------------------
# generated file text

INT_TOKENS = [
    "0", "1", "2", "3", "7", "12", "+3", "-1", "3_0", "07", "1e0", "inf", "x", "",
    " 2", "2 ", "4 # c", "٣", "99999999999999999999", "1.0",
]
FLOAT_TOKENS = [
    "0.0", "1.0", "-2.5", "0.1", "1e0", "1E-3", ".5", "5.", "+3", "-0.0", "3_0", "inf",
    "-Infinity", "nan", "1e500", "", " 1.5", "1.5 ", "x", "1.2.3", "e5", "-", "٣",
    "0.30000000000000004", "4.9e-324",
]
TABLE_INTS = ["0", "1", "2", "30", "12", "07", "1", "2", "3_0", "+3", " 2", "٣", "9" * 20]
TABLE_FLOATS = ["0.0", "1.0", "-2.5", "1e-3", "5.", "0.1", "0.0", "3_0", "1_0.5", " 1.5", "inf"]
PADDING = st.sampled_from(["", "", "", " ", "\t", "  "])


def text_strategy(tokens, max_width):
    line = st.one_of(
        st.tuples(
            PADDING,
            st.lists(st.sampled_from(tokens), min_size=1, max_size=max_width).map("\t".join),
            PADDING,
        ).map("".join),
        st.sampled_from(["", "# note", "  # indented note", "   ", "\t"]),
    )
    return st.tuples(
        st.lists(line, max_size=12), st.sampled_from(["\n", "\n", "\r\n"]), st.booleans()
    ).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


def table_strategy(tokens, width):
    """Rectangular files, mostly in the alphabet np.loadtxt is trusted with,
    so both parser branches and the border between them are exercised."""
    rows = st.lists(
        st.lists(st.sampled_from(tokens), min_size=width, max_size=width), min_size=1, max_size=12
    )
    return rows.map(lambda rs: "".join("\t".join(r) + "\n" for r in rs))


NEAR_MISSES = ["one token wider", "dot moved in one row", "dot replaced by a digit", "two dots",
               "sign", "exponent", "separator replaced", "crlf", "no final newline",
               "blank last line"]


@st.composite
def fixed_width_strategy(draw):
    """Byte grids of equal-width digit tokens with the dot, if any, in one
    column (leading zeros, `5.` and `.5`, 1-15 digits), which the fixed-width
    route reads, and their near misses, which it must hand on. 0 digits and a
    dot make lone `.` tokens, 16 digits a token one digit too long."""
    digits = draw(st.integers(0, 16))
    point = draw(st.one_of(st.none(), st.integers(0, digits)))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    digit_text = st.lists(st.sampled_from("000000123456789"), min_size=digits, max_size=digits)
    table = [[draw(digit_text) for _ in range(cols)] for _ in range(rows)]
    if point is not None:
        for cell in (cell for row in table for cell in row):
            cell.insert(point, ".")
    miss = draw(st.sampled_from([None] * 4 + NEAR_MISSES))
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    token = table[r][c]
    at = draw(st.integers(0, max(0, len(token) - 1)))
    if miss == "one token wider":
        token.insert(at, draw(st.sampled_from("0123456789")))
    elif miss == "dot moved in one row" and point is not None:
        moved = draw(st.integers(0, digits))
        for cell in table[r]:
            cell.remove(".")
            cell.insert(moved, ".")
    elif miss == "dot replaced by a digit" and point is not None:
        token[point] = draw(st.sampled_from("0123456789"))
    elif miss in ("two dots", "sign", "exponent") and token:
        token[at] = draw(st.sampled_from({"two dots": ".", "sign": "+-", "exponent": "eE"}[miss]))
    text = "".join("\t".join(map("".join, row)) + "\n" for row in table)
    if miss == "separator replaced":
        at = draw(st.sampled_from([i for i, char in enumerate(text) if char in "\t\n"]))
        text = text[:at] + draw(st.sampled_from("\t\n 0.")) + text[at + 1:]
    if miss == "crlf":
        return text.replace("\n", "\r\n")
    if miss == "no final newline":
        return text[:-1]
    return text + "\n" * (miss == "blank last line")


def same_outcome(ref, new):
    """Run both readers; equal arrays (bit for bit) or equal DataError messages."""
    try:
        expected = ref()
    except (DataError, OverflowError) as exc:
        with pytest.raises(DataError) as info:
            new()
        if isinstance(exc, DataError):
            assert str(info.value) == str(exc)
        return
    assert_same_operand(expected, new())


def held(read):
    """read() for a features table as a DomainGraph holds it: refused unless
    finite, then in the form `feature_operand` picks."""
    def run():
        table = read()
        return DomainGraph("g", table, CsrMatrix.from_edges(table.shape[0], [])).features
    return run


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("data-path")


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n): from now on parse and write in n shares where the file
    has n bytes or the table n floats."""

    def use(n):
        monkeypatch.setattr(linalg, "_cpus", lambda: n)
        monkeypatch.setattr(datasets, "_LOAD_BYTE_COST", linalg.REPEAT_MIN_WORK)
        monkeypatch.setattr(datasets, "_WRITE_TOKEN_COST", linalg.REPEAT_MIN_WORK)

    return use


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderEquivalence:
    @FUZZ
    @given(text=st.one_of(text_strategy(INT_TOKENS, 3), table_strategy(TABLE_INTS, 2)),
           n=st.integers(0, 35), symmetrize=st.booleans(), cpus=st.sampled_from(CPU_COUNTS))
    def test_edges(self, scratch, use_cpus, text, n, symmetrize, cpus):
        use_cpus(cpus)
        path = scratch / "g.edges.tsv"
        path.write_text(text, encoding="utf-8")

        def new():
            adj = _read_edges(path, n, symmetrize)
            rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_offsets))
            return np.stack([rows, adj.col_indices], axis=1)

        def ref():
            return np.array(ref_read_edges(path, n, symmetrize), dtype=np.int64).reshape(-1, 2)

        same_outcome(ref, new)

    @FUZZ
    @given(text=st.one_of(text_strategy(FLOAT_TOKENS, 3), table_strategy(TABLE_FLOATS, 3)),
           cpus=st.sampled_from(CPU_COUNTS))
    def test_features(self, scratch, use_cpus, text, cpus):
        use_cpus(cpus)
        path = scratch / "g.features.tsv"
        path.write_text(text, encoding="utf-8")
        same_outcome(held(lambda: ref_read_features(path)), held(lambda: _read_features(path)))

    @FUZZ
    @given(text=fixed_width_strategy(), cpus=st.sampled_from(CPU_COUNTS))
    # 16 digits: the integer passes 2^53 and one division no longer gives float()'s bits
    @example(text="944.0947333760973\n", cpus=1)
    def test_fixed_width_features(self, scratch, use_cpus, text, cpus):
        use_cpus(cpus)
        path = scratch / "g.features.tsv"
        path.write_text(text, encoding="utf-8")
        same_outcome(held(lambda: ref_read_features(path)), held(lambda: _read_features(path)))
        # a byte grid is decoded straight to the form the rule keeps
        grid = _load_fixed_width(path.read_bytes())
        assert grid is None or feature_operand(grid) is grid

    @FUZZ
    @given(text=st.one_of(text_strategy(INT_TOKENS, 2), table_strategy(TABLE_INTS, 1)),
           cpus=st.sampled_from(CPU_COUNTS))
    def test_labels(self, scratch, use_cpus, text, cpus):
        use_cpus(cpus)
        path = scratch / "g.labels.tsv"
        path.write_text(text, encoding="utf-8")
        same_outcome(lambda: ref_read_labels(path), lambda: _read_labels(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\t1\n1\t2 # c\n", ":2: non-integer node index"),
            ("0\t1\n\n1\t1\n", ":3: self-loop edge 1-1 not allowed"),
            ("0\t1\n1\t9\n", ":2: node index beyond node count 3"),
            ("0\t1\t2\n", ":1: expected two tab-separated indices"),
        ],
    )
    def test_edge_messages_keep_their_line(self, scratch, text, message):
        path = scratch / "m.edges.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            _read_edges(path, 3, True)
        assert str(info.value) == f"{path}{message}"

    def test_the_unpaired_edge_named_is_the_oracles(self, scratch):
        # several edges lack a reverse; the one named depends on set order
        path = scratch / "m.edges.tsv"
        path.write_text("".join(f"{i}\t{(7 * i + 3) % 40}\n" for i in range(40)), encoding="utf-8")
        with pytest.raises(DataError) as expected:
            ref_read_edges(path, 40, False)
        with pytest.raises(DataError) as got:
            _read_edges(path, 40, False)
        assert str(got.value) == str(expected.value)

    def test_blank_feature_line_is_an_error(self, scratch):
        path = scratch / "m.features.tsv"
        path.write_text("1.0\t2.0\n\n3.0\t4.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: non-numeric feature value"):
            _read_features(path)

    def test_int_syntax_follows_python_int(self, scratch):
        path = scratch / "m.edges.tsv"
        path.write_text("+1\t3_0\n 2 \t٣\n", encoding="utf-8")
        adj = _read_edges(path, 31, True)
        assert sorted(zip(*np.nonzero(to_dense(adj)))) == [(1, 30), (2, 3), (3, 2), (30, 1)]

    @pytest.mark.parametrize("label", ["9223372036854775808", "-9223372036854775809", "9" * 20])
    def test_a_label_outside_int64_is_a_data_error(self, scratch, label):
        path = scratch / "m.labels.tsv"
        path.write_text(f"1\n{label}\n0\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            _read_labels(path)
        assert str(info.value) == f"{path}: label outside the 64-bit integer range"

    def test_non_utf8_file_is_a_data_error(self, scratch):
        path = scratch / "m.labels.tsv"
        path.write_bytes(b"1\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            _read_labels(path)


def edge_pairs(adj):
    rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_offsets))
    return np.stack([rows, adj.col_indices], axis=1)


# reader name -> (reader, oracle, the plain lines of a file, a plain defect
# only the line pass places, and the message it gets on line 20)
READERS = {
    "edges": (
        lambda path: edge_pairs(_read_edges(path, 40, True)),
        lambda path: np.array(ref_read_edges(path, 40, True), dtype=np.int64).reshape(-1, 2),
        [f"{i}\t{(7 * i + 3) % 40}" for i in range(1, 30)],
        "1\t2\t3",
        ":20: expected two tab-separated indices",
    ),
    "features": (
        _read_features,
        ref_read_features,
        [f"{i}.5\t-0.{i}\t1e{i % 5}" for i in range(10, 40)],
        "1.0\t2.0",
        ":20: ragged feature row (2 vs 3)",
    ),
    "labels": (
        _read_labels,
        ref_read_labels,
        [str(i % 7) for i in range(30)],
        "1\t2",
        ":20: non-integer label",
    ),
}


# each reader as `load_dataset` calls it, on the READERS files
LOADED = {
    "edges": lambda path: _read_edges(path, 40, True),
    "features": _read_features,
    "labels": _read_labels,
}


def in_a_mapping(table):
    """Whether an array, or an array of a CsrMatrix, is backed by a mapping."""
    arrays = [table.row_offsets, table.col_indices, table.values] if isinstance(table, CsrMatrix) else [table]
    for base in arrays:
        while base is not None:
            if isinstance(base, mmap.mmap):
                return True
            base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
    return False


class TestShares:
    """Plain text parsed in forked shares of its lines, cut by bytes."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_defect_in_the_last_share_names_the_line_a_one_cpu_run_names(
            self, tmp_path, use_cpus, reader, cpus):
        read, ref, lines, defect, message = READERS[reader]
        path = tmp_path / f"x.{reader}.tsv"
        path.write_text("".join(line + "\n" for line in lines[:19] + [defect]), encoding="utf-8")
        raised = []
        for n in (1, cpus):
            use_cpus(n)
            with pytest.raises(DataError) as info:
                read(path)
            raised.append(str(info.value))
        assert raised == [f"{path}{message}"] * 2
        same_outcome(lambda: ref(path), lambda: read(path))

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_blank_line_right_at_a_cut(self, tmp_path, use_cpus, reader, cpus):
        # equal lines, a of them before the blank one and b after: find a
        # layout where a share's byte range starts at the blank line
        read, ref, lines, _, _ = READERS[reader]
        size = len(lines[0]) + 1
        a, b = next((a, b) for a in range(1, 20) for b in range(1, 20)
                    if any((size * (a + b) + 1) * i // cpus == size * a for i in range(1, cpus)))
        raw = (lines[0] + "\n") * a + "\n" + (lines[0] + "\n") * b
        path = tmp_path / f"x.{reader}.tsv"
        path.write_text(raw, encoding="utf-8")
        use_cpus(cpus)
        assert linalg.repeat_shares(len(raw), datasets._LOAD_BYTE_COST * len(raw)) == cpus
        cuts = {len(raw) * i // cpus for i in range(1, cpus)}
        assert size * a in cuts and raw[size * a - 1:size * a + 1] == "\n\n"
        same_outcome(lambda: ref(path), lambda: read(path))
        if reader == "features":
            with pytest.raises(DataError, match=f":{a + 1}: non-numeric feature value$"):
                read(path)
        else:
            assert not in_a_mapping(LOADED[reader](path))

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_no_loaded_table_is_held_in_a_mapping(self, tmp_path, monkeypatch, use_cpus, reader, cpus):
        # the shares write into one `shared_empty` mapping, which a table
        # handed back in it would keep for as long as its graph lives
        path = tmp_path / f"x.{reader}.tsv"
        if reader == "features":
            write_float_tsv(path, np.random.default_rng(cpus).standard_normal((30, 3)))
        else:
            path.write_text("".join(line + "\n" for line in READERS[reader][2]), encoding="utf-8")
        forks = []
        fork_share = linalg._fork_share
        monkeypatch.setattr(linalg, "_fork_share", lambda *args: forks.append(args[1:]) or fork_share(*args))
        use_cpus(cpus)
        table = LOADED[reader](path)
        assert len(forks) == cpus - 1
        assert not in_a_mapping(table)

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("layout", ["no trailing newline", "one line", "one line, no newline",
                                        "crlf", "vt before each newline", "fs before each newline"])
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_layouts_match_the_oracle(self, tmp_path, use_cpus, reader, layout, cpus):
        # np.loadtxt reads \v and \x1c as blanks inside a line, where
        # str.splitlines ends the line: such a file is not plain
        read, ref, lines, _, _ = READERS[reader]
        text = {
            "no trailing newline": "\n".join(lines),
            "one line": lines[0] + "\n",
            "one line, no newline": lines[0],
            "crlf": "".join(line + "\r\n" for line in lines),
            "vt before each newline": "".join(line + "\v\n" for line in lines),
            "fs before each newline": "".join(line + "\x1c\n" for line in lines),
        }[layout]
        path = tmp_path / f"x.{reader}.tsv"
        path.write_bytes(text.encode("ascii"))
        use_cpus(cpus)
        same_outcome(lambda: ref(path), lambda: read(path))

    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 50])
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
    def test_writer_matches_the_oracle_byte_for_byte(self, tmp_path, monkeypatch, use_cpus, rows, cpus, chunk):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        expected = tmp_path / "expected.tsv"
        write_embeddings_tsv(SimpleNamespace(E=x), expected)
        use_cpus(cpus)
        monkeypatch.setattr(datasets, "_WRITE_CHUNK", chunk)
        write_float_tsv(tmp_path / "indexed.tsv", x, index=True)
        assert (tmp_path / "indexed.tsv").read_bytes() == expected.read_bytes()
        write_float_tsv(tmp_path / "plain.tsv", x)
        plain = "\n".join("\t".join(repr(float(v)) for v in row) for row in x) + "\n"
        assert (tmp_path / "plain.tsv").read_bytes() == plain.encode("ascii")

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_a_crlf_table_of_300k_tokens_reads_as_its_plain_twin(self, tmp_path, use_cpus, cpus):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((300, 1000)) * 10.0 ** rng.integers(-8, 8, (300, 1000))
        lines = ["\t".join(map(repr, row)) for row in x.tolist()]
        plain, crlf = tmp_path / "plain.features.tsv", tmp_path / "crlf.features.tsv"
        plain.write_bytes("".join(line + "\n" for line in lines).encode("ascii"))
        crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("ascii"))
        use_cpus(cpus)
        expected = ref_read_features(crlf)
        assert expected.tobytes() == x.tobytes()
        for path in (plain, crlf):
            table = _read_features(path)
            assert table.shape == x.shape and table.tobytes() == expected.tobytes()

    def test_a_citeseer_sized_binary_table_loads_bitwise_equal_at_1_and_2_cpus(
            self, tmp_path, monkeypatch):
        # without its final newline the table is no byte grid, so it reaches
        # np.loadtxt, in forked shares at 2 CPUs
        ones, raw = citeseer_sized_binary_table()
        path = tmp_path / "citeseer.features.tsv"
        path.write_bytes(raw[:-1])
        del raw
        forks = []
        fork_share = linalg._fork_share
        monkeypatch.setattr(linalg, "_fork_share",
                            lambda *args: forks.append(args[1:]) or fork_share(*args))
        for cpus in (1, 2):
            monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
            size = path.stat().st_size
            assert linalg.repeat_shares(size, datasets._LOAD_BYTE_COST * size) == cpus
            forks.clear()
            table = _read_features(path)
            assert len(forks) == cpus - 1
            assert table.shape == ones.shape
            assert np.array_equal(table, ones) and not np.signbit(table).any()
            del table

    def test_a_citeseer_sized_binary_grid_reads_as_one_cpu_loadtxt(self, tmp_path, monkeypatch):
        ones, raw = citeseer_sized_binary_table()
        path = tmp_path / "citeseer.features.tsv"
        path.write_bytes(raw)
        monkeypatch.setattr(linalg, "_cpus", lambda: 1)
        expected = _load_plain(raw, _FLOAT_CHARS, None, np.float64, blank_lines=False)
        del raw
        monkeypatch.setattr(datasets, "_load_plain", None)  # the byte grid never reaches it
        table = _read_features(path)
        assert isinstance(table, CsrMatrix) and table.shape == ones.shape
        assert_same_operand(feature_operand(expected), table)

    def test_a_citeseer_sized_binary_grid_never_builds_its_dense_table(self, tmp_path):
        ones, raw = citeseer_sized_binary_table()
        path = tmp_path / "citeseer.features.tsv"
        path.write_bytes(raw)
        table_bytes = ones.size  # the uint8 integer table
        dense_bytes = ones.size * 8
        del ones, raw
        tracemalloc.start()
        try:
            table = _read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(table, CsrMatrix)
        # the integer grid and one block's buffers, but no float64 table, and
        # no bytes copy of the file either: it is decoded from its mapping
        assert peak < min(dense_bytes, path.stat().st_size), (peak, dense_bytes)
        # nor a digit column beside them while the nonzeros are found
        assert peak < 2.25 * table_bytes, (peak, table_bytes)


def binary_grid(rows, cols, density, seed):
    """(the 0/1 table, its "0.0"/"1.0" TSV bytes)."""
    ones = np.random.default_rng(seed).random((rows, cols)) < density
    tokens = np.where(ones, np.bytes_(b"1.0\t"), np.bytes_(b"0.0\t"))
    raw = np.frombuffer(tokens.tobytes(), dtype=np.uint8).reshape(rows, -1).copy()
    raw[:, -1] = ord("\n")
    return ones, raw.tobytes()


def decode_in_blocks_of(lines, raw):
    """`_load_fixed_width(raw)` with blocks of `lines` lines of `raw`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BLOCK_BYTES", lines * (raw.find(b"\n") + 1))
        return _load_fixed_width(raw)


class TestBlockDecode:
    """A byte grid is decoded a block of lines at a time. With blocks of 1
    and 3 lines, each grid decodes to the column-by-column decoder's table
    (`oracles.column_fixed_width`), and each near miss to None as there."""

    @FUZZ
    @given(text=fixed_width_strategy(), lines=st.sampled_from([1, 3]))
    def test_grids_and_near_misses_decode_as_the_column_decoder(self, text, lines):
        raw = text.encode("ascii")
        want, got = column_fixed_width(raw), decode_in_blocks_of(lines, raw)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_operand(want, got)

    # (offset, byte) in the last line's second token "d.dd\t": '/' and ':'
    # are the bytes just outside '0'-'9', and '/' the byte just past '.'
    DEFECTS = {"digit below '0'": (0, "/"), "digit above '9'": (2, ":"), "letter": (3, "x"),
               "dot off by one": (1, "/"), "dot as a digit": (1, "5"), "tab as a newline": (4, "\n"),
               "tab as a space": (4, " ")}

    @pytest.mark.parametrize("lines", [1, 3])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_a_defect_in_the_last_line_of_a_later_block_alone_is_refused(self, lines, defect):
        rng = np.random.default_rng(49)
        rows = [[f"{v // 100}.{v % 100:02d}" for v in rng.integers(0, 1000, 4)] for _ in range(10)]
        clean = "".join("\t".join(row) + "\n" for row in rows).encode("ascii")
        at, byte = self.DEFECTS[defect]
        line = len(clean) // 10
        bad = bytearray(clean)
        bad[9 * line + 5 + at] = ord(byte)  # the 10th line: block 4 of 3 lines, or 10 of 1
        assert_same_operand(column_fixed_width(clean), decode_in_blocks_of(lines, clean))
        assert column_fixed_width(bytes(bad)) is None
        assert decode_in_blocks_of(lines, bytes(bad)) is None

    def test_a_sparse_grid_holds_little_beside_its_integer_table_and_result(self, tmp_path, monkeypatch):
        """600 x 3,703 at 0.85 %, read at 1 CPU: besides the uint8 integer
        table and the CSR it becomes, one block's buffers at a time. The
        whole-table decode, with a digit column or a mask as large as the
        table beside it, held 1.88 times."""
        monkeypatch.setattr(linalg, "_cpus", lambda: 1)
        ones, raw = binary_grid(600, 3703, 0.0085, 50)
        path = tmp_path / "x.features.tsv"
        path.write_bytes(raw)
        del raw
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = _read_features(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert isinstance(table, CsrMatrix) and np.array_equal(to_dense(table), ones)
        held = ones.size + table.row_offsets.nbytes + table.col_indices.nbytes + table.values.nbytes
        assert peak < 1.3 * held, (peak, held)


class TestTooShortToBeRectangular:
    """A plain table of `lines` rows and `width` tokens takes at least
    2 * lines * width - 1 bytes; a features file shorter than that for its
    first line's width has a ragged row, and gets no table."""

    @staticmethod
    def spy_on_routes(monkeypatch):
        """The calls of each route: the plain route's `shared_empty` table
        and its `split_repeats` parse, and the line pass's decode."""
        calls = {"shared_empty": [], "split_repeats": 0, "line pass": 0}
        shared_empty, split_repeats, decode = datasets.shared_empty, datasets.split_repeats, datasets._decode

        def table(shape, dtype):
            calls["shared_empty"].append(shape)
            assert shape[0] * shape[1] <= 10 ** 6, shape  # never ask for what the test refutes
            return shared_empty(shape, dtype)

        def parse(*args):
            calls["split_repeats"] += 1
            return split_repeats(*args)

        def line_pass(*args):
            calls["line pass"] += 1
            return decode(*args)

        monkeypatch.setattr(datasets, "shared_empty", table)
        monkeypatch.setattr(datasets, "split_repeats", parse)
        monkeypatch.setattr(datasets, "_decode", line_pass)
        return calls

    def test_a_wide_first_line_over_short_ones_is_refused_without_its_table(self, tmp_path, monkeypatch):
        # 1.2 MB, whose table at the first line's width would take 640 GB
        path = tmp_path / "x.features.tsv"
        path.write_bytes(b"\t".join([b"1"] * 200_001) + b"\n" + b"1\n" * 400_000)
        calls = self.spy_on_routes(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as info:
                _read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}:2: ragged feature row (1 vs 200001)"
        assert calls == {"shared_empty": [], "split_repeats": 0, "line pass": 1}
        # the text, its lines and the first row: in proportion to the file
        assert peak < 10 * path.stat().st_size, peak

    @pytest.mark.parametrize("text", [
        "1\t2\n3\t4",  # exactly 2 * lines * width - 1 bytes
        "1\t23\n4\t5",  # one more; with equal lines and a final newline, it is a byte grid
        "0.5\t-1e3\t7\n",
        "".join(f"{i}.25\t-{i}e-3\n" for i in range(50)),
    ])
    def test_a_rectangular_file_keeps_the_plain_route(self, tmp_path, monkeypatch, text):
        path = tmp_path / "x.features.tsv"
        path.write_text(text, encoding="ascii")
        calls = self.spy_on_routes(monkeypatch)
        table = _read_features(path)
        assert calls["split_repeats"] == 1 and calls["line pass"] == 0
        expected = ref_read_features(path)
        assert table.shape == expected.shape and table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_a_trailing_blank_line_keeps_its_route(self, tmp_path, monkeypatch, reader):
        # the plain route parses it; a features file, where a blank line is
        # an error, then goes to the line pass, which names it
        read, ref, lines, _, _ = READERS[reader]
        path = tmp_path / f"x.{reader}.tsv"
        path.write_text("".join(line + "\n" for line in lines) + "\n", encoding="ascii")
        calls = self.spy_on_routes(monkeypatch)
        same_outcome(lambda: ref(path), lambda: read(path))
        assert calls["split_repeats"] == 1 and calls["line pass"] == (reader == "features")
        if reader == "features":
            with pytest.raises(DataError, match=f":{len(lines) + 1}: non-numeric feature value$"):
                read(path)


def open_in_this_process(path):
    """The lines of /proc/self/maps and the open descriptors that name `path`."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    fds = []
    for fd in Path("/proc/self/fd").iterdir():
        try:
            fds.append(os.readlink(fd))
        except OSError:  # the descriptor iterdir itself held, now closed
            pass
    return [line for line in maps + fds if line.endswith(str(path))]


@pytest.fixture
def unraisable(monkeypatch):
    """The errors raised where no caller can see them, as in a __del__: an
    unclosed file's ResourceWarning, with that warning made an error."""
    seen = []
    monkeypatch.setattr(sys, "unraisablehook", lambda info: seen.append(info.exc_value))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield seen


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self")
class TestMappedRead:
    """A features file is mapped read-only; a byte grid is decoded from the
    mapping, and any other file is read once into bytes."""

    @staticmethod
    def files(root):
        """A byte grid, a Gaussian table the grid route declines, and a grid
        with one token out of place, which the line pass refuses."""
        rng = np.random.default_rng(4)
        grid, gaussian, bad = root / "grid.tsv", root / "gaussian.tsv", root / "bad.tsv"
        write_float_tsv(grid, bag_of_words(rng, 40, 30, 0.03))
        write_float_tsv(gaussian, rng.standard_normal((40, 3)))
        bad.write_bytes(grid.read_bytes().replace(b"0.0", b"0.x", 1))
        return grid, gaussian, bad

    def test_a_load_leaves_no_file_or_mapping_open(self, tmp_path, unraisable):
        grid, gaussian, bad = self.files(tmp_path)
        assert isinstance(_read_features(grid), CsrMatrix)
        assert isinstance(_read_features(gaussian), np.ndarray)
        with pytest.raises(DataError, match=":1: non-numeric feature value$"):
            _read_features(bad)
        gc.collect()
        assert unraisable == []
        for path in (grid, gaussian, bad):
            assert open_in_this_process(path) == []

    def test_an_error_in_the_grid_decode_is_raised_as_itself(self, tmp_path, monkeypatch, unraisable):
        # the decode's views of the mapping must be gone when the mapping
        # closes, or closing it raises BufferError over this error
        grid = self.files(tmp_path)[0]

        def fail(table, divisor):
            raise MemoryError("no room for the table")

        monkeypatch.setattr(datasets, "feature_operand", fail)
        with pytest.raises(MemoryError, match="^no room for the table$"):
            _read_features(grid)
        gc.collect()
        assert unraisable == [] and open_in_this_process(grid) == []

    def test_overwriting_the_file_after_a_load_leaves_the_graph_unchanged(self, tmp_path):
        manifest = save_dataset(bow_collection(seed=4), tmp_path)
        loaded = load_dataset(manifest)
        expected = load_dataset(manifest)
        paths = sorted(tmp_path.glob("*.features.tsv"))
        assert len(paths) == len(loaded.graphs)
        for path in paths[:1]:  # in place, at the same size
            with path.open("r+b") as file:
                file.write(path.read_bytes().replace(b"0.0", b"1.0"))
        for path in paths[1:]:  # truncated, then rewritten
            path.write_bytes(b"")
            path.write_bytes(b"2.0\n")
        for graph, want in zip(loaded.graphs, expected.graphs):
            assert isinstance(graph.features, CsrMatrix)
            assert_same_operand(want.features, graph.features)

    def test_a_file_the_grid_declines_is_read_once_and_a_grid_never(self, tmp_path, monkeypatch):
        grid, gaussian, _ = self.files(tmp_path)
        expected = {path: held(lambda: ref_read_features(path))() for path in (grid, gaussian)}
        opened, reads = [], []
        real_open = Path.open

        class Counted:
            def __init__(self, file):
                self.file = file

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def fileno(self):
                return self.file.fileno()

            def read(self, *args):
                data = self.file.read(*args)
                reads.append(len(data))
                return data

        monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs:
                            opened.append(path) or Counted(real_open(path, *args, **kwargs)))
        for path, read in ((grid, []), (gaussian, [gaussian.stat().st_size])):
            opened.clear()
            reads.clear()
            table = _read_features(path)
            assert opened == [path] and reads == read
            assert_same_operand(expected[path], held(lambda: table)())

    def test_an_empty_file_is_refused_before_it_is_mapped(self, tmp_path, unraisable):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match=r"empty\.tsv: empty features file$"):
            _read_features(path)
        gc.collect()
        assert unraisable == [] and open_in_this_process(path) == []


def citeseer_sized_binary_table():
    """(the 0/1 table, its "0.0"/"1.0" TSV bytes) at 3,327 x 3,703."""
    return binary_grid(3327, 3703, 0.01, 7)


def assert_same_table(lines, width, dtype):
    """The np.loadtxt route may only accept rows of `width` tokens (the first
    row's if None) that the oracles' int()/float() accept, and must give the
    same bits."""
    raw = "".join(line + "\n" for line in lines).encode("ascii")
    chars = _FLOAT_CHARS if dtype == np.float64 else _INT_CHARS
    fast = _load_plain(raw, chars, width, dtype, blank_lines=False)
    convert = float if dtype == np.float64 else int
    rows = [line.split("\t") for line in lines]
    try:
        if {len(row) for row in rows} != {width or len(rows[0])}:
            raise ValueError("ragged rows")
        exact = np.array([list(map(convert, row)) for row in rows], dtype=dtype)
    except (ValueError, OverflowError):
        assert fast is None
        return
    if fast is not None:
        assert fast.dtype == exact.dtype and fast.shape == exact.shape
        assert fast.tobytes() == exact.tobytes()


def plain_lines(token, max_width):
    row = st.lists(token, min_size=1, max_size=max_width).map("\t".join)
    return st.lists(row, min_size=1, max_size=8)


class TestLoadtxtRoute:
    """Files spelled only with digits, `.eE+-` and tabs go to np.loadtxt
    first; on them it must agree with int()/float() or defer to the line
    pass."""

    @FUZZ
    @given(lines=plain_lines(
        st.one_of(
            st.text("0123456789.eE+-", max_size=7),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
        ),
        3,
    ))
    def test_floats(self, lines):
        assert_same_table(lines, None, np.float64)

    @FUZZ
    @given(lines=plain_lines(st.text("0123456789", max_size=21), 2), width=st.sampled_from([1, 2]))
    def test_ints(self, lines, width):
        assert_same_table(lines, width, np.int64)


# ---------------------------------------------------------------------------
# writer


def random_graph(n, d, classes, mean_degree, seed):
    rng = np.random.default_rng(seed)
    m = n * mean_degree // 2
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = i != j
    return DomainGraph(
        domain_id="big",
        features=rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, (n, d)),
        adjacency=CsrMatrix.from_edges(n, np.stack([i[keep], j[keep]], axis=1)),
        labels=rng.integers(0, classes, n),
        num_classes=classes,
    )


class TestSaveLoadRoundTrip:
    def test_2000_node_graph_files_and_arrays(self, tmp_path):
        graph = random_graph(2000, 12, 5, 8, seed=3)
        manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path / "a")
        entry = json.loads(manifest.read_text())["domains"][0]
        expected = ref_write_graph(graph)
        for key, text in zip(("edges_path", "features_path", "labels_path"), expected):
            assert (tmp_path / "a" / entry[key]).read_text(encoding="utf-8") == text

        loaded = load_dataset(manifest).graphs[0]
        assert loaded.features.tobytes() == graph.features.tobytes()
        assert loaded.labels.tobytes() == graph.labels.tobytes()
        for name in ("row_offsets", "col_indices", "values"):
            expected_bytes = getattr(graph.adjacency, name).tobytes()
            assert getattr(loaded.adjacency, name).tobytes() == expected_bytes

        again = save_dataset(load_dataset(manifest), tmp_path / "b")
        for path in sorted((tmp_path / "a").iterdir()):
            assert (again.parent / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_features_read_back_as_a_byte_grid_and_gaussian_ones_never_do(
            self, tmp_path, monkeypatch, seed):
        fixed_width = datasets._load_fixed_width
        routes = []

        def spy(raw):
            routes.append("grid" if (table := fixed_width(raw)) is not None else "declined")
            return table

        monkeypatch.setattr(datasets, "_load_fixed_width", spy)
        rng = np.random.default_rng(seed)
        binary = DomainGraph("bow", (rng.random((300, 40)) < 0.1) * 1.0,
                             CsrMatrix.from_edges(300, []), rng.integers(0, 3, 300))
        # as dataset-io draws its features: Gaussian block means, width 16
        labels = rng.integers(0, 10, 500)
        means = np.zeros((10, 16))
        means[np.arange(10), np.arange(10)] = 3.0 / np.sqrt(2.0)
        gaussian = DomainGraph("gauss", means[labels] + rng.standard_normal((500, 16)),
                               CsrMatrix.from_edges(500, []), labels)
        for graph, route in ((binary, "grid"), (gaussian, "declined")):
            routes.clear()
            manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path / route)
            loaded = load_dataset(manifest).graphs[0]
            assert routes == [route]
            assert loaded.features.tobytes() == graph.features.tobytes()

    def test_a_loaded_bag_of_words_collection_saves_as_its_dense_tables_did(self, tmp_path, monkeypatch):
        # with the rule off every graph holds its dense table, as before graphs held CSR
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "feature_operand", lambda x: x)
            dense = bow_collection(seed=3)
        manifest = save_dataset(bow_collection(seed=3), tmp_path / "csr")
        loaded = load_dataset(manifest)
        assert all(isinstance(g.features, CsrMatrix) for g in loaded.graphs)
        save_dataset(dense, tmp_path / "dense")
        save_dataset(loaded, tmp_path / "again")
        names = sorted(path.name for path in (tmp_path / "dense").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "csr").iterdir())
        for name in names:
            expected = (tmp_path / "dense" / name).read_bytes()
            assert (tmp_path / "csr" / name).read_bytes() == expected, name
            assert (tmp_path / "again" / name).read_bytes() == expected, name

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_a_csr_table_writes_its_dense_tables_bytes_a_chunk_at_a_time(
            self, tmp_path, monkeypatch, use_cpus, cpus):
        x = bag_of_words(np.random.default_rng(5), 50, 40, 0.03)
        held = feature_operand(x)
        assert isinstance(held, CsrMatrix)
        spans, densify = [], CsrMatrix.to_dense
        monkeypatch.setattr(CsrMatrix, "to_dense",
                            lambda self, lo, hi: spans.append(hi - lo) or densify(self, lo, hi))
        monkeypatch.setattr(datasets, "_WRITE_CHUNK", 7 * 40 + 39)  # 7 rows of 40 values
        use_cpus(cpus)
        write_float_tsv(tmp_path / "dense.tsv", x)
        write_float_tsv(tmp_path / "csr.tsv", held)
        assert (tmp_path / "csr.tsv").read_bytes() == (tmp_path / "dense.tsv").read_bytes()
        assert spans and max(spans) <= 7  # the spans of this process's share

    def test_a_sparse_tables_negative_zeros_save_as_zeros(self, tmp_path):
        # a CsrMatrix holds the nonzeros alone; a table kept dense keeps its -0.0
        sparse = np.zeros((20, 30))
        sparse[0, :5], sparse[1, :3] = 1.0, -0.0
        dense = sparse.copy()
        dense[2:, 10:14] = 1.0
        for x, form in ((sparse, CsrMatrix), (dense, np.ndarray)):
            graph = DomainGraph("z", x.copy(), CsrMatrix.from_edges(20, []))
            assert isinstance(graph.features, form)
            manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path / form.__name__)
            text = (tmp_path / form.__name__ / "g000-z.features.tsv").read_text()
            kept = x if form is np.ndarray else x + 0.0  # -0.0 + 0.0 is 0.0
            assert text == "".join("\t".join(map(repr, row)) + "\n" for row in kept.tolist())
            assert ("-0.0" in text) == (form is np.ndarray)
            assert_same_operand(graph.features, load_dataset(manifest).graphs[0].features)

    def test_edgeless_graph(self, tmp_path):
        graph = DomainGraph("empty", np.ones((3, 2)), CsrMatrix.from_edges(3, []), np.zeros(3))
        manifest = save_dataset(GraphCollection((graph,), "node-level"), tmp_path)
        assert (tmp_path / "g000-empty.edges.tsv").read_bytes() == b""
        assert load_dataset(manifest).graphs[0].adjacency.nnz == 0
