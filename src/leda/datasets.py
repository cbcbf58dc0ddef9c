"""Dataset model, on-disk formats, and synthetic multi-domain generation.

On disk a dataset is a JSON manifest plus plain TSV files per graph:
edges (two tab-separated node indices per line, '#' comments allowed),
features (one row of tab-separated floats per node), labels (one integer
per line). Loaded collections are immutable and validated up front.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import methodcaller
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .linalg import CsrMatrix

MANIFEST_VERSION = 1
NODE_LEVEL = "node-level"
GRAPH_LEVEL = "graph-level"

DEGREE_FEATURE_DIM = 16
# feature rows turned into Python floats at a time when writing
_WRITE_CHUNK_ROWS = 4096

_MANIFEST_KEYS = {"version", "task_kind", "symmetrize", "domains"}
_DOMAIN_KEYS = {
    "domain_id",
    "edges_path",
    "features_path",
    "labels_path",
    "num_classes",
    "num_nodes",
    "graph_label",
}


@dataclass(frozen=True)
class DomainGraph:
    """One graph: features (n x d), binary symmetric adjacency, optional labels."""

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
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataError(f"domain '{self.domain_id}': labels length must equal node count")
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
        """Training operands derived from these graphs (`trainer.prepare_domains`
        fills it): built once, dropped with the collection."""
        return {}

    def domain_ids(self) -> list[str]:
        return list(dict.fromkeys(g.domain_id for g in self.graphs))

    def by_domain(self, domain_id: str) -> list[DomainGraph]:
        found = [g for g in self.graphs if g.domain_id == domain_id]
        if not found:
            raise DataError(f"domain '{domain_id}' not in collection")
        return found


def disjoint_union(graphs: list[DomainGraph]) -> DomainGraph:
    """One domain's graphs as one: features stacked in list order, adjacencies
    on the diagonal of one block-diagonal matrix, whose normalization is
    exactly theirs on the diagonal. A lone graph is returned uncopied."""
    if len(graphs) == 1:
        return graphs[0]
    domain_id = graphs[0].domain_id
    widths = sorted({g.feature_dim for g in graphs})
    if len(widths) != 1:
        raise DataError(f"domain '{domain_id}': members disagree on feature dim {widths}")
    return DomainGraph(
        domain_id=domain_id,
        features=np.concatenate([g.features for g in graphs]),
        adjacency=CsrMatrix.block_diag([g.adjacency for g in graphs]),
    )


# ---------------------------------------------------------------------------
# file parsing
#
# Each reader parses a whole file into one array, mapping int()/float() over
# its tokens block by block, and checks it with whole-array tests. Only a file
# that fails is read again line by line, by a `_locate_*` function whose one
# job is to raise the first defect as `path:line: ...`; both passes accept the
# same grammar, so a locator that finds no defect returns and the caller
# re-raises the array pass's own error.
#
# A file spelled only with the characters below is first handed to
# np.loadtxt, which is two to three times faster. On such text np.loadtxt
# accepts a subset of what int()/float() accept and gives the same values
# (tests/test_data_path.py pins this); whatever it refuses, or reads with a
# different row count (it skips blank lines), goes to the int()/float() pass.
_INT_CHARS = b"0123456789\t\n"
_FLOAT_CHARS = b"0123456789.eE+-\t\n"
_count_tabs = methodcaller("count", "\t")
# tokens converted per block by _parse_table
_PARSE_BLOCK_TOKENS = 1 << 18


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _is_plain(text: str, chars: bytes) -> bool:
    return text.isascii() and not text.encode("ascii").translate(None, chars)


def _parse_table(lines: list[str], width: int | None, dtype, plain: bool) -> np.ndarray:
    """Tab-separated rows as a (len(lines), width) array. Raises ValueError or
    OverflowError on a token int()/float() rejects or on a row of the wrong
    width."""
    if not lines:
        return np.empty((0, width or 0), dtype=dtype)
    if plain:
        try:
            with warnings.catch_warnings():  # "no data" on a file of blank lines
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=None, ndmin=2)
        except (ValueError, OverflowError):
            table = None
        if table is not None and table.shape[0] == len(lines) and width in (None, table.shape[1]):
            return table
    tabs = np.fromiter(map(_count_tabs, lines), np.int64, len(lines))
    if np.any(tabs != tabs[0]) or width not in (None, tabs[0] + 1):
        raise ValueError("ragged rows")
    table = np.empty((len(lines), int(tabs[0]) + 1), dtype=dtype)
    convert = float if dtype == np.float64 else int
    # a block of rows at a time, so the token strings never all exist at once
    step = max(1, _PARSE_BLOCK_TOKENS // table.shape[1])
    for lo in range(0, len(lines), step):
        tokens = "\t".join(lines[lo:lo + step]).split("\t")
        block = np.fromiter(map(convert, tokens), dtype, len(tokens))
        table[lo:lo + step] = block.reshape(-1, table.shape[1])
    return table


def _read_edges(path: Path, n: int, symmetrize: bool) -> CsrMatrix:
    text = _read_text(path)
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    try:
        pairs = _parse_table(lines, 2, np.int64, _is_plain(text, _INT_CHARS))
        i, j = pairs[:, 0], pairs[:, 1]
        if (
            np.any(i == j)
            or np.any((pairs < 0) | (pairs >= n))
            or (not symmetrize and not np.all(np.isin(j * n + i, i * n + j)))
        ):
            raise ValueError("self-loop, index out of range or unpaired edge")
    except (ValueError, OverflowError):
        _locate_edge_error(path, text, n, symmetrize)
        raise
    return CsrMatrix.from_edges(n, pairs)


def _read_features(path: Path) -> np.ndarray:
    text = _read_text(path)
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty features file")
    try:
        return _parse_table(lines, None, np.float64, _is_plain(text, _FLOAT_CHARS))
    except ValueError:
        _locate_feature_error(path, text)
        raise


def _read_labels(path: Path) -> np.ndarray:
    text = _read_text(path)
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    try:
        return _parse_table(lines, 1, np.int64, _is_plain(text, _INT_CHARS)).ravel()
    except (ValueError, OverflowError) as exc:
        _locate_label_error(path, text)
        # every label is an integer, so one of them does not fit in int64
        raise DataError(f"{path}: label outside the 64-bit integer range") from exc


def _locate_edge_error(path: Path, text: str, n: int, symmetrize: bool) -> None:
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _locate_feature_error(path: Path, text: str) -> None:
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("\t")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{path}:{lineno}: ragged feature row ({len(row)} vs {width})")


def _locate_label_error(path: Path, text: str) -> None:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            int(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer label") from exc


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
    _require_file(manifest_path, "manifest")
    try:
        doc = json.loads(_read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"manifest {manifest_path}: top level must be an object")
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise DataError(f"manifest {manifest_path}: unknown keys {sorted(unknown)}")
    version = doc.get("version")
    if version != MANIFEST_VERSION:
        raise DataError(f"manifest {manifest_path}: unsupported version {version!r}")
    task_kind = doc.get("task_kind", NODE_LEVEL)
    if task_kind not in (NODE_LEVEL, GRAPH_LEVEL):
        raise DataError(f"manifest {manifest_path}: unknown task_kind {task_kind!r}")
    symmetrize = doc.get("symmetrize", True)
    if not isinstance(symmetrize, bool):
        raise DataError(f"manifest {manifest_path}: symmetrize must be a boolean")
    entries = doc.get("domains")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"manifest {manifest_path}: 'domains' must be a non-empty list")

    base = manifest_path.parent
    graphs: list[DomainGraph] = []
    graph_labels: list[int] = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"manifest domain #{pos}: must be an object")
        bad = set(entry) - _DOMAIN_KEYS
        if bad:
            raise DataError(f"manifest domain #{pos}: unknown keys {sorted(bad)}")
        domain_id = entry.get("domain_id")
        if not isinstance(domain_id, str) or not domain_id:
            raise DataError(f"manifest domain #{pos}: missing domain_id")
        for key in ("edges_path", "features_path", "labels_path"):
            if entry.get(key) is not None and not isinstance(entry[key], str):
                raise DataError(f"domain '{domain_id}': {key} must be a string")
        for key in ("num_nodes", "num_classes", "graph_label"):
            value = entry.get(key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise DataError(f"domain '{domain_id}': {key} must be an integer, got {value!r}")
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
        adjacency = _read_edges(_require_file(base / edges_path, "edges"), n, symmetrize)

        degree_featurized = False
        if features is None:
            features = degree_features(adjacency, DEGREE_FEATURE_DIM)
            degree_featurized = True
        if labels is not None and len(labels) != n:
            raise DataError(f"domain '{domain_id}': {len(labels)} labels for {n} nodes")

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
    chunk at a time with `tolist`, not element by element.
    """
    lines = (
        "\t".join(map(repr, row))
        for lo in range(0, len(x), _WRITE_CHUNK_ROWS)
        for row in x[lo:lo + _WRITE_CHUNK_ROWS].tolist()
    )
    if index:
        lines = (f"{i}\t{line}" for i, line in enumerate(lines))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if d < blocks:
        raise ConfigError(f"feature dim {d} must be >= number of blocks {blocks}")
    if blocks < 1 or nodes_per_block < 1:
        raise ConfigError("blocks and nodes_per_block must be positive")
    if not np.isfinite(cluster_sep):
        raise ConfigError(f"cluster_sep must be finite, got {cluster_sep!r}")
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
