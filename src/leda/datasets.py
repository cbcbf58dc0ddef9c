"""Dataset model, on-disk formats, and synthetic multi-domain generation.

On disk a dataset is a JSON manifest plus plain TSV files per graph:
edges (two tab-separated node indices per line, '#' comments allowed),
features (one row of tab-separated floats per node), labels (one integer
per line). Loaded collections are immutable and validated up front.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import check_object, check_type, check_values, has_json_type, parse_json, write_file
from .errors import ConfigError, DataError
from .linalg import (CsrMatrix, _SymmetricCsr, feature_operand, physical_memory, row_blocks, shared_empty,
                     split_repeats)

MANIFEST_VERSION = 1
NODE_LEVEL = "node-level"
GRAPH_LEVEL = "graph-level"

DEGREE_FEATURE_DIM = 16
# feature values (at least one row), or adjacency entries, made Python numbers at a time when writing
_WRITE_CHUNK = 4096

_MANIFEST_KEYS = {"version", "task_kind", "symmetrize", "domains"}
# the JSON type of each key of a domain entry
_DOMAIN_KINDS = {
    "domain_id": str,
    "edges_path": str,
    "features_path": str,
    "labels_path": str,
    "num_classes": int,
    "num_nodes": int,
    "graph_label": int,
}


@dataclass(frozen=True)
class DomainGraph:
    """One graph: features (n x d), adjacency, optional node labels, and a
    graph-level label if it is a member of a graph-level corpus. The one
    place the graph rules are checked: the features are finite, the
    adjacency is square, symmetric, binary and has no self-loops, the labels
    give one per node, and the graph label is a 64-bit integer. The features
    are then held in the form `feature_operand` picks, a CsrMatrix or a
    frozen dense array, which training and `embed` read as they are."""

    domain_id: str
    features: np.ndarray | CsrMatrix
    adjacency: CsrMatrix
    labels: np.ndarray | None = None
    num_classes: int | None = None
    degree_featurized: bool = False
    graph_label: int | None = None

    def __post_init__(self):
        feats = self.features
        if not isinstance(feats, CsrMatrix):  # a CsrMatrix holds only finite values
            feats = np.ascontiguousarray(feats, dtype=np.float64)
            if feats.ndim != 2:
                raise DataError(f"domain '{self.domain_id}': features must be 2-D")
            if not np.all(np.isfinite(feats)):
                raise DataError(f"domain '{self.domain_id}': non-finite feature entries")
            feats.setflags(write=False)
        if self.adjacency.rows != self.adjacency.cols:
            raise DataError(f"domain '{self.domain_id}': adjacency must be square")
        if feats.shape[0] != self.adjacency.rows:
            raise DataError(
                f"domain '{self.domain_id}': {feats.shape[0]} feature rows vs "
                f"{self.adjacency.rows} adjacency rows"
            )
        # a `_SymmetricCsr` (as `from_edges` builds) is its own transpose by
        # construction, so only another adjacency pays for a transposed copy
        if not isinstance(self.adjacency, _SymmetricCsr) and not self.adjacency.is_symmetric():
            raise DataError(f"domain '{self.domain_id}': adjacency must be symmetric")
        if self.adjacency.nnz and not np.all(self.adjacency.values == 1.0):
            raise DataError(f"domain '{self.domain_id}': adjacency must be binary")
        entry_rows = np.repeat(np.arange(self.adjacency.rows, dtype=self.adjacency.col_indices.dtype),
                               np.diff(self.adjacency.row_offsets))
        if np.any(self.adjacency.col_indices == entry_rows):
            raise DataError(f"domain '{self.domain_id}': adjacency must not carry self-loops")
        object.__setattr__(self, "features", feature_operand(feats))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataError(f"domain '{self.domain_id}': {labels.size} labels for {feats.shape[0]} nodes")
            n_classes = self.num_classes
            if n_classes is None:
                n_classes = int(labels.max()) + 1 if len(labels) else 0
                object.__setattr__(self, "num_classes", n_classes)
            if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
                raise DataError(
                    f"domain '{self.domain_id}': label out of range [0, {n_classes})"
                )
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
        if self.graph_label is not None:
            object.__setattr__(self, "graph_label", int(self.graph_label))
            if not -2 ** 63 <= self.graph_label < 2 ** 63:
                raise DataError("graph label outside the 64-bit integer range")

    @property
    def num_nodes(self) -> int:
        return self.adjacency.rows

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GraphCollection:
    """All graphs of a dataset. Node-level: one graph per domain, none with
    a graph label. Graph-level: many small graphs that may share a
    domain_id, each with its graph label. The one place these rules are
    checked."""

    graphs: tuple[DomainGraph, ...]
    task_kind: str

    def __post_init__(self):
        if self.task_kind not in (NODE_LEVEL, GRAPH_LEVEL):
            raise DataError(f"unknown task_kind '{self.task_kind}'")
        object.__setattr__(self, "graphs", tuple(self.graphs))
        graph_level = self.task_kind == GRAPH_LEVEL
        for g in self.graphs:
            if graph_level and g.graph_label is None:
                raise DataError(f"domain '{g.domain_id}': graph-level entry needs graph_label")
            if not graph_level and g.graph_label is not None:
                raise DataError(f"domain '{g.domain_id}': graph_label is read only in a graph-level manifest")
        if not graph_level:
            ids = [g.domain_id for g in self.graphs]
            if len(set(ids)) != len(ids):
                raise DataError("node-level collection requires unique domain_ids")
        for pos, g in enumerate(self.graphs):
            if g.num_nodes == 0:
                raise DataError(f"domain '{g.domain_id}': {self.task_kind} entry #{pos} has no nodes")

    @cached_property
    def _prepared(self) -> dict:
        """Operands derived from these graphs (`trainer.domain_operands` and
        `trainer.prepare_domains` fill it): built once, dropped with the
        collection."""
        return {}

    def domain_ids(self) -> list[str]:
        return list(dict.fromkeys(g.domain_id for g in self.graphs))

    def by_domain(self, domain_id: str) -> list[DomainGraph]:
        found = [g for g in self.graphs if g.domain_id == domain_id]
        if not found:
            raise DataError(f"domain '{domain_id}' not in collection")
        return found


# ---------------------------------------------------------------------------
# file parsing
#
# Each reader reads its file once and has two routes; the features reader
# tries a third one first. It maps its file read-only, and a byte grid of
# fixed-width decimal tokens, as the "0.0"/"1.0" bag-of-words tables
# `save_dataset` writes are, is decoded in `_load_fixed_width` from the page
# cache, with no copy and no text parser, to float()'s bits: a block of
# whole lines (`linalg.row_blocks`, about 256 KB) at a time goes through one
# reused buffer, where one comparison with the line's template checks it and
# its digits are combined into the integer table, so no pass builds a
# temporary as large as the table. Any other file returns None there at its
# first failed block and is read into bytes, as edges and labels files are,
# for the two routes below. The mapping is closed before the reader returns;
# a file that shrinks while it is mapped ends the process (SIGBUS). The
# grid's integer table gets `feature_operand`'s rule, so a sparse one becomes
# a CsrMatrix from its nonzeros alone, found a block of rows at a time, and
# its float table is never built; the two routes below parse a dense table,
# which `DomainGraph` rules on once it is found finite.
#
# A file spelled only with the characters below is "plain": ASCII, so valid
# UTF-8. Its bytes go to np.loadtxt, which on one CPU parses bag-of-words
# features 2.4 times and edges 5 times as fast as int()/float() do. On such text
# np.loadtxt accepts a subset of what int()/float() accept and gives the same
# values (tests/test_data_path.py pins this). It skips blank lines, so a
# features file, where a blank line is an error, must give one row per line:
# its newline count, plus 1 when the last line has no newline.
#
# A plain file is parsed in the shares `split_repeats` cuts, one per CPU for
# a large file and one for a small one. A share owns the lines that start in
# its byte range, so every cut falls on a line start; it tests that its lines
# are plain, writes its rows in place into one `shared_empty` output, at the
# row its first line starts, and sends back only that row and its count. The
# reader returns a heap copy of the written rows, so no loaded table is held
# in a mapping.
#
# Any other file, one whose plain parse fails in any share, and plain edges
# with a self-loop or an index out of range are decoded and read in one pass
# over their lines, with int()/float() per token. That pass builds the array
# (features row by row into one preallocated table) and raises the first
# defect as `path:line: ...`, checking each line as the line-by-line readers
# it replaced did. The unpaired-edge test alone is one whole-array test, on
# either route's pairs.
_INT_CHARS = b"0123456789\t\n"
_FLOAT_CHARS = b"0123456789.eE+-\t\n"
# The work `split_repeats` weighs against REPEAT_MIN_WORK, in its units of
# multiply-adds: a byte parsed by np.loadtxt counts as _LOAD_BYTE_COST, and a
# float formatted by repr as _WRITE_TOKEN_COST. On a 2-core VM, in a 250 MB
# process, 2 shares of a parse broke even near 0.5 MB of edges and 1 MB of
# Gaussian features (medians of 21 alternated runs; per byte the two cost
# within 1.6x of each other); at 8 a share gets at least 1 MB. A binary
# table reaches np.loadtxt only when it is no byte grid (no final newline,
# tokens of unequal width). 2 shares of a write broke even near 12k floats;
# at 512 a share gets at least 16k.
_LOAD_BYTE_COST = 8
_WRITE_TOKEN_COST = 512


def _decode(path: Path, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _line_start(raw: bytes, pos: int) -> int:
    """The first line start at or after byte `pos` (len(raw) if none)."""
    if pos == 0:
        return 0
    newline = raw.find(b"\n", pos - 1)
    return len(raw) if newline < 0 else newline + 1


def _loadtxt(raw: bytes, dtype) -> np.ndarray:
    with warnings.catch_warnings():  # "no data" on text of blank lines
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(io.BytesIO(raw), dtype=dtype, delimiter="\t", comments=None, ndmin=2)


def _fewest_bytes(lines: int, width: int) -> int:
    """The bytes of the shortest text of `lines` rows of `width` tokens: one
    character per token, a tab between tokens, a line end between rows. A
    shorter file with a first row of `width` tokens has a ragged row."""
    return 2 * lines * width - 1


def _load_plain(
    raw: bytes, chars: bytes, width: int | None, dtype, blank_lines: bool
) -> np.ndarray | None:
    """np.loadtxt's (rows, width) table of `raw`, or None when `raw` holds a
    character outside `chars`, a share fails, a row has another width, or,
    unless `blank_lines`, a line is blank. `width` None is the first line's,
    and then `raw` too short for `lines` rows of it is None unallocated."""
    lines = raw.count(b"\n") + (raw[-1:] not in (b"", b"\n"))
    if width is None:
        first = raw.find(b"\n")
        width = raw.count(b"\t", 0, len(raw) if first < 0 else first) + 1
        if len(raw) < _fewest_bytes(lines, width):
            return None
    table = shared_empty((lines, width), dtype)

    def run(lo, hi):
        """Write the rows of the lines that start in bytes [lo, hi) in place."""
        start = _line_start(raw, lo)
        text = raw[start:_line_start(raw, hi)]
        if text.translate(None, chars):
            raise ValueError("not plain")
        share = _loadtxt(text, dtype)
        if len(share) and share.shape[1] != width:
            raise ValueError("ragged rows")
        row = raw.count(b"\n", 0, start)
        table[row:row + len(share)] = share
        return [(row, len(share))]

    try:
        shares = split_repeats(len(raw), _LOAD_BYTE_COST * len(raw), run)
    except (ValueError, OverflowError):
        return None
    if sum(n for _, n in shares) != lines and not blank_lines:
        return None
    # a heap copy, so no table outlives its call in a mapping; it also closes
    # the gap a blank line leaves at the end of its share's rows
    return np.concatenate([table[row:row + n] for row, n in shares])


def _read_edges(path: Path, n: int, symmetrize: bool) -> CsrMatrix:
    raw = path.read_bytes()
    pairs = _load_plain(raw, _INT_CHARS, 2, np.int64, blank_lines=True)
    if pairs is None or np.any(pairs[:, 0] == pairs[:, 1]) or np.any((pairs < 0) | (pairs >= n)):
        found = array("q")  # i, j, i, j, ... as int64, with no Python object kept per edge
        for lineno, line in enumerate(map(str.strip, _decode(path, raw).splitlines()), start=1):
            try:  # a blank or comment line fails here too, off the common path
                first, second = line.split("\t")
                i, j = int(first), int(second)
            except ValueError as exc:
                if not line or line[0] == "#":
                    continue
                if line.count("\t") != 1:
                    raise DataError(f"{path}:{lineno}: expected two tab-separated indices") from None
                raise DataError(f"{path}:{lineno}: non-integer node index") from exc
            if i == j:
                raise DataError(f"{path}:{lineno}: self-loop edge {i}-{j} not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"{path}:{lineno}: node index beyond node count {n}")
            found.append(i)
            found.append(j)
        pairs = np.frombuffer(found, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    if not symmetrize and not np.all(np.isin(j * n + i, i * n + j)):
        # the edge named is the first one a set of the file's edges yields
        unique = set(map(tuple, pairs.tolist()))
        i, j = next((i, j) for i, j in unique if (j, i) not in unique)
        raise DataError(f"{path}: edge {i}-{j} has no reverse and symmetrize is false")
    return CsrMatrix.from_edges(n, pairs)


def _load_fixed_width(raw: bytes | mmap.mmap) -> np.ndarray | CsrMatrix | None:
    """The (rows, tokens) table of a byte grid, in the form `feature_operand`
    picks, or None when `raw` is not one: every line ends in a newline and has
    the first line's length, every token the first token's width, and each
    byte column of the tokens is all digits or all `.`, with at most one `.`
    column and 15 digits. A value is then an integer below 10^15 < 2^53 over
    10^f, so one division gives float()'s bits; a sparse table divides its
    nonzeros alone, and never exists as floats.

    The lines are decoded a `row_blocks` block at a time into one reused
    buffer: a line minus its template ('0' at each digit byte, every other
    byte as it must be) leaves at most 9 at a digit byte and 0 at the others,
    and a byte below its template wraps past both, so one comparison checks
    every rule; the digits are then combined from that buffer while it is in
    cache. `raw` is bytes or a read-only mapping; no array made from it
    outlives the call, even one that raises, so the mapping can be closed as
    soon as it ends."""
    line = raw.find(b"\n") + 1
    tab = raw.find(b"\t", 0, line)
    step = line if tab < 0 else tab + 1  # a token and the byte after it
    if not line or len(raw) % line or line % step:
        return None
    token = raw[:step - 1]
    point = token.find(b".")  # a second dot fails as a digit column
    digits = len(token) - (point >= 0)
    if not 0 < digits <= 15:
        return None
    rows, cols = len(raw) // line, line // step
    cell = np.full(step, ord("0"), np.uint8)
    cell[-1] = ord("\t")
    if point >= 0:
        cell[point] = ord(".")
    template = np.tile(cell, cols)
    template[-1] = ord("\n")
    limits = np.where(template == ord("0"), np.uint8(9), np.uint8(0))
    first, *others = (k for k in range(step - 1) if k != point)
    # the integers, in the narrowest unsigned type that holds them
    table = np.empty((rows, cols), np.min_scalar_type(10 ** digits - 1))
    blocks = row_blocks(rows, line)
    buffer = np.empty((blocks[0][1], line), np.uint8)
    bad = np.empty(buffer.shape, bool)
    grid = np.frombuffer(raw, np.uint8).reshape(rows, line)
    try:
        for lo, hi in blocks:
            np.subtract(grid[lo:hi], template, out=buffer[:hi - lo])
            if np.greater(buffer[:hi - lo], limits, out=bad[:hi - lo]).any():
                return None
            cells, out = buffer[:hi - lo].reshape(hi - lo, cols, step), table[lo:hi]
            out[...] = cells[:, :, first]
            for k in others:
                out *= 10
                out += cells[:, :, k]
    finally:
        # a raised error's traceback keeps this frame; a view left in it would
        # make closing the mapping raise BufferError in place of that error
        del grid
    del buffer, bad, cells  # before feature_operand makes its own blocks
    return feature_operand(table, float(10 ** (digits - point if point >= 0 else 0)))


def _read_features(path: Path) -> np.ndarray | CsrMatrix:
    with path.open("rb") as file:
        if not os.fstat(file.fileno()).st_size:  # mmap maps no empty file
            raise DataError(f"{path}: empty features file")
        with mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            table = _load_fixed_width(mapped)
        if table is not None:
            return table
        raw = file.read()
    table = _load_plain(raw, _FLOAT_CHARS, None, np.float64, blank_lines=False)
    if table is not None:
        return table
    lines = _decode(path, raw).splitlines()
    width = lines[0].count("\t") + 1
    # a file too short for rows of the first line's width raises below, at
    # its first ragged row, so it gets no table to fill
    table = np.empty((len(lines), width)) if len(raw) >= _fewest_bytes(len(lines), width) else None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        try:
            row = np.fromiter(map(float, parts), np.float64, len(parts))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from exc
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: ragged feature row ({len(row)} vs {width})")
        if table is not None:
            table[lineno - 1] = row
    return table


def _read_labels(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    labels = _load_plain(raw, _INT_CHARS, 1, np.int64, blank_lines=True)
    if labels is not None:
        return labels.ravel()
    found = []
    for lineno, line in enumerate(map(str.strip, _decode(path, raw).splitlines()), start=1):
        if not line:
            continue
        try:
            found.append(int(line))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer label") from exc
    try:
        return np.array(found, dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"{path}: label outside the 64-bit integer range") from exc


def degree_features(adjacency: CsrMatrix) -> np.ndarray:
    """Structural features for attribute-free graphs, DEGREE_FEATURE_DIM wide.

    Column 0: degree / max degree, column 1: constant 1, columns 2..: one-hot
    of the degree capped at DEGREE_FEATURE_DIM-3.
    """
    degrees = np.diff(adjacency.row_offsets).astype(np.float64)
    n = adjacency.rows
    out = np.zeros((n, DEGREE_FEATURE_DIM))
    max_deg = degrees.max() if n else 0.0
    if max_deg > 0:
        out[:, 0] = degrees / max_deg
    out[:, 1] = 1.0
    capped = np.minimum(degrees.astype(np.int64), DEGREE_FEATURE_DIM - 3)
    out[np.arange(n), 2 + capped] = 1.0
    return out


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise DataError(f"{what} file not found: {path}")
    return path


def load_dataset(manifest_path: str | Path) -> GraphCollection:
    """Load and fully validate a manifest plus its referenced files."""
    manifest_path = Path(manifest_path)
    where = f"manifest {manifest_path}"
    doc = parse_json(_require_file(manifest_path, "manifest").read_bytes(), where, DataError)
    version = check_object(doc, _MANIFEST_KEYS, where, DataError).get("version")
    if not has_json_type(version, int) or version != MANIFEST_VERSION:
        raise DataError(f"{where}: unsupported version {version!r}")
    task_kind = doc.get("task_kind", NODE_LEVEL)
    if task_kind not in (NODE_LEVEL, GRAPH_LEVEL):
        raise DataError(f"{where}: unknown task_kind {task_kind!r}")
    symmetrize = check_type(doc.get("symmetrize", True), bool, f"{where}: symmetrize", DataError)
    entries = check_type(doc.get("domains"), list, f"{where}: domains", DataError)
    if not entries:
        raise DataError(f"{where}: domains is empty")

    base = manifest_path.parent
    graphs: list[DomainGraph] = []
    for pos, entry in enumerate(entries):
        check_object(entry, _DOMAIN_KINDS, f"manifest domain #{pos}", DataError)
        domain_id = check_type(entry.get("domain_id"), str, f"manifest domain #{pos}: domain_id", DataError)
        if not domain_id:
            raise DataError(f"manifest domain #{pos}: domain_id is empty")
        for key, kind in _DOMAIN_KINDS.items():  # every key but domain_id may be left out
            if entry.get(key) is not None:
                check_type(entry[key], kind, f"domain '{domain_id}': {key}", DataError)
        if (entry.get("num_nodes") or 0) < 0:
            raise DataError(f"domain '{domain_id}': num_nodes must be >= 0")
        edges_path = entry.get("edges_path")
        if not edges_path:
            raise DataError(f"domain '{domain_id}': missing edges_path")

        features = None
        if entry.get("features_path"):
            features = _read_features(_require_file(base / entry["features_path"], "features"))
        labels = None
        if entry.get("labels_path"):
            labels = _read_labels(_require_file(base / entry["labels_path"], "labels"))

        stated = entry.get("num_nodes")
        if features is not None:
            n = features.shape[0]
        elif labels is not None:
            n = len(labels)
        elif stated is not None:
            n = stated
        else:
            raise DataError(
                f"domain '{domain_id}': node count unknown; provide features_path, "
                "labels_path, or num_nodes"
            )
        if stated not in (None, n):
            rows = "feature" if features is not None else "label"
            raise DataError(f"domain '{domain_id}': num_nodes is {stated}, but it has {n} {rows} rows")
        degree_featurized = features is None
        try:  # a num_nodes too large to hold fails its first allocation at once
            if n * n >= 2 ** 63:  # or its edge keys i * n + j overflow int64
                raise MemoryError
            # or its degree features need more than the machine's memory, before any edge is read
            if degree_featurized and 8 * DEGREE_FEATURE_DIM * n > physical_memory():
                raise MemoryError
            adjacency = _read_edges(_require_file(base / edges_path, "edges"), n, symmetrize)
            if degree_featurized:
                features = degree_features(adjacency)
        except MemoryError as exc:
            raise DataError(f"domain '{domain_id}': no memory for a graph of {n} nodes") from exc
        graphs.append(
            DomainGraph(
                domain_id=domain_id,
                features=features,
                adjacency=adjacency,
                labels=labels,
                num_classes=entry.get("num_classes"),
                degree_featurized=degree_featurized,
                graph_label=entry.get("graph_label"),
            )
        )
    return GraphCollection(graphs=tuple(graphs), task_kind=task_kind)


def write_float_tsv(path: str | Path, x: np.ndarray | CsrMatrix, index: bool = False) -> None:
    """One tab-separated line per row of x, led by the row number if `index`.

    repr of a Python float round-trips bit-exactly; rows are converted with
    `tolist`, not element by element, _WRITE_CHUNK values (at least one row)
    at a time, and a CsrMatrix is made dense a chunk at a time, never whole.
    Large tables are formatted in contiguous row shares by `split_repeats`,
    and each chunk's text goes to `write_file` in order, never joined.
    """
    rows, cols = x.shape
    chunk = x.to_dense if isinstance(x, CsrMatrix) else lambda lo, hi: x[lo:hi]
    step = max(1, _WRITE_CHUNK // max(1, cols))

    def run(lo, hi):
        texts = []
        for start in range(lo, hi, step):
            lines = ["\t".join(map(repr, row)) for row in chunk(start, min(start + step, hi)).tolist()]
            if index:
                lines = [f"{i}\t{line}" for i, line in enumerate(lines, start)]
            texts.append("\n".join(lines) + "\n")
        return texts

    # a table of no rows is written as one empty line
    write_file(path, split_repeats(rows, _WRITE_TOKEN_COST * rows * cols, run) or ["\n"])


def _edge_lines(adj: CsrMatrix):
    """One "i\tj" line per upper-triangle entry (i, j) of adj, in CSR order,
    formatted _WRITE_CHUNK entries at a time."""
    for lo in range(0, adj.nnz, _WRITE_CHUNK):
        cols = adj.col_indices[lo:lo + _WRITE_CHUNK]
        rows = np.searchsorted(adj.row_offsets, np.arange(lo, lo + len(cols)), side="right") - 1
        upper = rows < cols
        # one `%` over the interleaved pairs formats twice as fast as a string per edge
        pairs = np.stack([rows[upper], cols[upper]], axis=1).ravel().tolist()
        yield ("%d\t%d\n" * (len(pairs) // 2)) % tuple(pairs)


def _plain_file_names(doc) -> set[str]:
    """The file names a manifest document's domain entries give that are
    plain names in the manifest's own directory: no directory part, and not
    absolute. Any JSON value is taken; one that is no manifest gives none."""
    domains = doc.get("domains") if isinstance(doc, dict) else None
    if not isinstance(domains, list):
        return set()
    names = {entry.get(key) for entry in domains if isinstance(entry, dict)
             for key in ("edges_path", "features_path", "labels_path")}
    return {name for name in names
            if isinstance(name, str) and name not in ("", "..") and Path(name).name == name}


def save_dataset(collection: GraphCollection, out_dir: str | Path) -> Path:
    """Write a collection as manifest + TSV files; returns the manifest path.

    Floats are written with full round-trip precision, so save followed by
    load reproduces every matrix bit-exactly. An old manifest is removed
    first and the new one written last, so a failed save leaves none. The
    files an old manifest that parses names by a plain name, and this save
    does not write, are removed with it, so no earlier dataset's files are
    left beside this one's.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    entries = []
    for pos, graph in enumerate(collection.graphs):
        stem = f"g{pos:03d}-{graph.domain_id}"
        entry: dict = {"domain_id": graph.domain_id, "edges_path": f"{stem}.edges.tsv"}
        if graph.degree_featurized:
            entry["num_nodes"] = graph.num_nodes
        else:
            entry["features_path"] = f"{stem}.features.tsv"
        if graph.labels is not None:
            entry["labels_path"] = f"{stem}.labels.tsv"
            entry["num_classes"] = graph.num_classes
        if graph.graph_label is not None:
            entry["graph_label"] = graph.graph_label
        entries.append(entry)
    manifest = {
        "version": MANIFEST_VERSION,
        "task_kind": collection.task_kind,
        "symmetrize": True,
        "domains": entries,
    }

    try:
        old = parse_json(manifest_path.read_bytes(), f"manifest {manifest_path}", DataError)
    except (OSError, DataError):  # no manifest, or none that parses
        old = None
    manifest_path.unlink(missing_ok=True)
    for name in _plain_file_names(old) - _plain_file_names(manifest):
        if (out_dir / name).is_file():
            (out_dir / name).unlink()

    for graph, entry in zip(collection.graphs, entries):
        write_file(out_dir / entry["edges_path"], _edge_lines(graph.adjacency))
        if "features_path" in entry:
            write_float_tsv(out_dir / entry["features_path"], graph.features)
        if "labels_path" in entry:
            write_file(out_dir / entry["labels_path"], ["\n".join(map(str, graph.labels.tolist())) + "\n"])
    write_file(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return manifest_path


def generate_sbm(
    blocks: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    d: int,
    cluster_sep: float,
    seed: int,
    domain_id: str | None = None,
) -> DomainGraph:
    """Stochastic-block-model graph with Gaussian block features.

    Block means are scaled canonical basis vectors, mutually separated by
    exactly cluster_sep in Euclidean norm (hence d >= blocks); features add
    unit-variance noise. Labels are block ids. Deterministic per seed.
    """
    check_values(blocks=blocks, nodes_per_block=nodes_per_block, cluster_sep=cluster_sep, seed=seed)
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if d < blocks:
        raise ConfigError(f"feature dim d={d} must be >= blocks={blocks}")
    n = blocks * nodes_per_block
    try:  # a size too large to hold fails its first allocation at once
        # or what the draw holds at once exceeds memory: n x n float64 randoms and
        # three boolean tables (11 bytes an entry), then two float64 n x d tables
        if max(11 * n, 16 * d) * n > physical_memory():
            raise MemoryError
        labels = np.repeat(np.arange(blocks), nodes_per_block)
        rng = np.random.default_rng(seed)

        draw = rng.random((n, n))
        # below p_in within a block, below p_out < p_in across blocks
        edge = draw < p_in
        edge &= labels[:, None] == labels[None, :]
        edge |= draw < p_out
        del draw
        upper = np.triu(edge, k=1)
        del edge
        adjacency = CsrMatrix.from_dense(upper | upper.T)
        del upper

        means = np.zeros((blocks, d))
        means[np.arange(blocks), np.arange(blocks)] = cluster_sep / np.sqrt(2.0)
        features = rng.standard_normal((n, d))
        features += means[labels]
    except MemoryError as exc:
        raise ConfigError(f"no memory for a block-model graph of n={n} nodes and d={d} features") from exc

    return DomainGraph(
        domain_id=domain_id or f"sbm-{seed}",
        features=features,
        adjacency=adjacency,
        labels=labels,
        num_classes=blocks,
    )
