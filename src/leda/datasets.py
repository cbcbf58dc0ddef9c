"""Dataset model, on-disk formats, and synthetic multi-domain generation.

On disk a dataset is a JSON manifest plus plain TSV files per graph:
edges (two tab-separated node indices per line, '#' comments allowed),
features (one row of tab-separated floats per node), labels (one integer
per line). Loaded collections are immutable and validated up front.
"""

from __future__ import annotations

import io
import json
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import check_object, check_type, check_values, has_json_type, parse_json
from .errors import ConfigError, DataError
from .linalg import CsrMatrix, repeat_shares, shared_empty, split_repeats

MANIFEST_VERSION = 1
NODE_LEVEL = "node-level"
GRAPH_LEVEL = "graph-level"

DEGREE_FEATURE_DIM = 16
# feature rows turned into Python floats at a time when writing
_WRITE_CHUNK_ROWS = 4096

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
    """One graph: features (n x d), adjacency, optional labels. The one place
    the graph rules are checked: the adjacency is square, symmetric, binary
    and has no self-loops, and the labels give one per node."""

    domain_id: str
    features: np.ndarray
    adjacency: CsrMatrix
    labels: np.ndarray | None = None
    num_classes: int | None = None
    degree_featurized: bool = False

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError(f"domain '{self.domain_id}': features must be 2-D")
        if not np.all(np.isfinite(feats)):
            raise DataError(f"domain '{self.domain_id}': non-finite feature entries")
        if self.adjacency.rows != self.adjacency.cols:
            raise DataError(f"domain '{self.domain_id}': adjacency must be square")
        if feats.shape[0] != self.adjacency.rows:
            raise DataError(
                f"domain '{self.domain_id}': {feats.shape[0]} feature rows vs "
                f"{self.adjacency.rows} adjacency rows"
            )
        if not self.adjacency.is_symmetric():
            raise DataError(f"domain '{self.domain_id}': adjacency must be symmetric")
        if self.adjacency.nnz and not np.all(self.adjacency.values == 1.0):
            raise DataError(f"domain '{self.domain_id}': adjacency must be binary")
        if np.any(self.adjacency.diagonal()):
            raise DataError(f"domain '{self.domain_id}': adjacency must not carry self-loops")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataError(f"domain '{self.domain_id}': {labels.size} labels for {len(feats)} nodes")
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

    @property
    def num_nodes(self) -> int:
        return self.adjacency.rows

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GraphCollection:
    """All graphs of a dataset. Node-level: one graph per domain. Graph-level:
    many small graphs that may share a domain_id, with one label per graph."""

    graphs: tuple[DomainGraph, ...]
    task_kind: str
    graph_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.task_kind not in (NODE_LEVEL, GRAPH_LEVEL):
            raise DataError(f"unknown task_kind '{self.task_kind}'")
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if self.task_kind == GRAPH_LEVEL:
            if self.graph_labels is None:
                raise DataError("graph-level collection requires graph_labels")
            labels = tuple(int(v) for v in self.graph_labels)
            if len(labels) != len(self.graphs):
                raise DataError("graph_labels length must match graph count")
            if not all(-2 ** 63 <= label < 2 ** 63 for label in labels):
                raise DataError("graph label outside the 64-bit integer range")
            object.__setattr__(self, "graph_labels", labels)
        else:
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
# Each reader reads its file once, as bytes, and has two routes. A file
# spelled only with the characters below is "plain": ASCII, so valid UTF-8.
# Its bytes go to np.loadtxt, which on one CPU parses bag-of-words features
# 2.4 times and edges 5 times as fast as int()/float() do. On such text
# np.loadtxt accepts a subset of what int()/float() accept and gives the same
# values (tests/test_data_path.py pins this). It skips blank lines, so a
# features file, where a blank line is an error, must give one row per line:
# its newline count, plus 1 when the last line has no newline.
#
# A large plain file is parsed in one share per CPU by `split_repeats`. A
# share owns the lines that start in its byte range, so every cut falls on a
# line start; it tests that its lines are plain, writes its rows in place
# into one `shared_empty` output, at the row its first line starts, and sends
# back only that row and its count.
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
# process, 2 shares of a parse broke even near 0.5 MB of edges, 1 MB of
# Gaussian features and 1.3 MB of binary features (medians of 21 alternated
# runs; per byte the three cost within 1.6x of each other, per token 6x);
# at 8 a share gets at least 1 MB. 2 shares of a write broke even near 12k
# floats; at 512 a share gets at least 16k.
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


def _load_plain(
    raw: bytes, chars: bytes, width: int | None, dtype, blank_lines: bool
) -> np.ndarray | None:
    """np.loadtxt's (rows, width) table of `raw`, or None when `raw` holds a
    character outside `chars`, a share fails, a row has another width, or,
    unless `blank_lines`, a line is blank. `width` None is the first line's."""
    lines = raw.count(b"\n") + (raw[-1:] not in (b"", b"\n"))
    first = raw.find(b"\n")
    width = width or raw.count(b"\t", 0, len(raw) if first < 0 else first) + 1
    if not lines:
        return np.empty((0, width), dtype=dtype)
    work = _LOAD_BYTE_COST * len(raw)

    def parse(lo, hi):
        """(first byte, table) of the lines that start in bytes [lo, hi)."""
        start = _line_start(raw, lo)
        text = raw[start:_line_start(raw, hi)]
        if text.translate(None, chars):
            raise ValueError("not plain")
        share = _loadtxt(text, dtype)
        if len(share) and share.shape[1] != width:
            raise ValueError("ragged rows")
        return start, share

    def run(lo, hi):
        start, share = parse(lo, hi)
        row = raw.count(b"\n", 0, start)
        table[row:row + len(share)] = share
        return [(row, len(share))]

    try:
        if repeat_shares(len(raw), work) == 1:
            table = parse(0, len(raw))[1]
            pieces = [table]
        else:
            table = shared_empty((lines, width), dtype)
            pieces = [table[row:row + n] for row, n in split_repeats(len(raw), work, run)]
    except (ValueError, OverflowError):
        return None
    rows = sum(map(len, pieces))
    if rows != lines and not blank_lines:
        return None
    # a blank line leaves its share's rows short, and a gap at their end
    return table if rows == lines else np.concatenate(pieces).reshape(-1, width)


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


def _read_features(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if not raw:
        raise DataError(f"{path}: empty features file")
    table = _load_plain(raw, _FLOAT_CHARS, None, np.float64, blank_lines=False)
    if table is not None:
        return table
    lines = _decode(path, raw).splitlines()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        try:
            row = np.fromiter(map(float, parts), np.float64, len(parts))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from exc
        if lineno == 1:
            table = np.empty((len(lines), len(row)))
        elif len(row) != table.shape[1]:
            raise DataError(f"{path}:{lineno}: ragged feature row ({len(row)} vs {table.shape[1]})")
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


def degree_features(adjacency: CsrMatrix, d: int) -> np.ndarray:
    """Structural features for attribute-free graphs.

    Column 0: degree / max degree, column 1: constant 1, columns 2..d-1:
    one-hot of the degree capped at d-3.
    """
    if d < 2:
        raise ConfigError(f"degree feature dimension must be >= 2, got {d}")
    degrees = np.diff(adjacency.row_offsets).astype(np.float64)
    n = adjacency.rows
    out = np.zeros((n, d))
    max_deg = degrees.max() if n else 0.0
    if max_deg > 0:
        out[:, 0] = degrees / max_deg
    out[:, 1] = 1.0
    if d >= 3:
        capped = np.minimum(degrees.astype(np.int64), d - 3)
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
    graph_labels: list[int] = []
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
        try:  # a num_nodes too large to hold fails its first allocation at once
            if n * n >= 2 ** 63:  # or its edge keys i * n + j overflow int64
                raise MemoryError
            adjacency = _read_edges(_require_file(base / edges_path, "edges"), n, symmetrize)
            degree_featurized = features is None
            if degree_featurized:
                features = degree_features(adjacency, DEGREE_FEATURE_DIM)
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
            )
        )
        if task_kind == GRAPH_LEVEL:
            if entry.get("graph_label") is None:
                raise DataError(f"domain '{domain_id}': graph-level entry needs graph_label")
            graph_labels.append(entry["graph_label"])

    return GraphCollection(
        graphs=tuple(graphs),
        task_kind=task_kind,
        graph_labels=tuple(graph_labels) if task_kind == GRAPH_LEVEL else None,
    )


def write_float_tsv(path: str | Path, x: np.ndarray, index: bool = False) -> None:
    """One tab-separated line per row of x, led by the row number if `index`.

    repr of a Python float round-trips bit-exactly; rows are converted a
    chunk at a time with `tolist`, not element by element. Large tables are
    formatted in contiguous row shares by `split_repeats`, joined in order.
    """

    def run(lo, hi):
        lines = (
            "\t".join(map(repr, row))
            for start in range(lo, hi, _WRITE_CHUNK_ROWS)
            for row in x[start:min(start + _WRITE_CHUNK_ROWS, hi)].tolist()
        )
        if index:
            lines = (f"{i}\t{line}" for i, line in enumerate(lines, lo))
        return ["\n".join(lines) + "\n"]

    text = "".join(split_repeats(len(x), _WRITE_TOKEN_COST * x.size, run))
    Path(path).write_text(text, encoding="utf-8")


def save_dataset(collection: GraphCollection, out_dir: str | Path) -> Path:
    """Write a collection as manifest + TSV files; returns the manifest path.

    Floats are written with full round-trip precision, so save followed by
    load reproduces every matrix bit-exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for pos, graph in enumerate(collection.graphs):
        stem = f"g{pos:03d}-{graph.domain_id}"
        edges_name = f"{stem}.edges.tsv"
        adj = graph.adjacency
        rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_offsets))
        upper = rows < adj.col_indices
        # one `%` over the interleaved pairs formats twice as fast as a string per edge
        pairs = np.stack([rows[upper], adj.col_indices[upper]], axis=1).ravel().tolist()
        (out_dir / edges_name).write_text(
            ("%d\t%d\n" * (len(pairs) // 2)) % tuple(pairs), encoding="utf-8"
        )
        entry: dict = {"domain_id": graph.domain_id, "edges_path": edges_name}

        if graph.degree_featurized:
            entry["num_nodes"] = graph.num_nodes
        else:
            features_name = f"{stem}.features.tsv"
            write_float_tsv(out_dir / features_name, graph.features)
            entry["features_path"] = features_name
        if graph.labels is not None:
            labels_name = f"{stem}.labels.tsv"
            (out_dir / labels_name).write_text(
                "\n".join(map(str, graph.labels.tolist())) + "\n", encoding="utf-8"
            )
            entry["labels_path"] = labels_name
            entry["num_classes"] = graph.num_classes
        if collection.task_kind == GRAPH_LEVEL:
            entry["graph_label"] = collection.graph_labels[pos]
        entries.append(entry)

    manifest = {
        "version": MANIFEST_VERSION,
        "task_kind": collection.task_kind,
        "symmetrize": True,
        "domains": entries,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    labels = np.repeat(np.arange(blocks), nodes_per_block)
    rng = np.random.default_rng(seed)

    same_block = labels[:, None] == labels[None, :]
    prob = np.where(same_block, p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    dense = (upper | upper.T).astype(np.float64)

    means = np.zeros((blocks, d))
    means[np.arange(blocks), np.arange(blocks)] = cluster_sep / np.sqrt(2.0)
    features = means[labels] + rng.standard_normal((n, d))

    return DomainGraph(
        domain_id=domain_id or f"sbm-{seed}",
        features=features,
        adjacency=CsrMatrix.from_dense(dense),
        labels=labels,
        num_classes=blocks,
    )
