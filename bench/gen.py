"""Seeded block-model inputs for the benchmark, built in O(edges).

`leda.datasets.generate_sbm` draws a dense n x n matrix, which is about
1.5 GB at the photo-like shape; this generator samples each undirected edge
directly instead. Labels are a seeded balanced shuffle; a fraction
`homophily` of edges join two nodes of one class; features carry the class
signal in their mean (bag-of-words topic words, or a Gaussian block mean).

Generated manifests are cached on disk by shape and seed, so a repeated
seed skips generation. Only the benchmark's own writer touches the cache:
the files are inputs, not outputs of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bump when the generated bytes change, so stale cache entries are not reused.
GEN_VERSION = 1
CACHE_KEEP = 6

BOW_BACKGROUND_WORDS = 8.0
BOW_TOPIC_WORDS = 10.0
GAUSS_SEPARATION = 3.0


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    d: int
    classes: int
    mean_degree: float
    features: str  # "bow": binary bag-of-words; "gauss": Gaussian block means
    homophily: float = 0.8


SHAPES = {
    s.name: s
    for s in (
        Shape("cora-like", 2708, 1433, 7, 3.9, "bow"),
        Shape("photo-like", 7650, 745, 8, 31.0, "bow"),
        Shape("citeseer-like", 3327, 3703, 6, 2.7, "bow"),
        Shape("edge-heavy", 50_000, 16, 10, 20.0, "gauss"),
    )
}


@dataclass(frozen=True)
class Generated:
    shape: Shape
    labels: np.ndarray  # (n,) int64
    edges: np.ndarray  # (m, 2) int64, i < j, no duplicates
    features: np.ndarray  # (n, d) float64


def _rng(shape: Shape, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(shape.name.encode()), stream])


def _edges(shape: Shape, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, target = shape.n, int(round(shape.n * shape.mean_degree / 2))
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=shape.classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < target:
        batch = int((target - len(keys)) * 1.1) + 64
        src = rng.integers(0, n, batch)
        c = labels[src]
        same = rng.random(batch) < shape.homophily
        u = rng.random(batch)
        # same class: a uniform member of c; otherwise a uniform node outside c,
        # found by skipping c's block in the class-sorted order
        pos_in = starts[c] + (u * counts[c]).astype(np.int64)
        pos_out = (u * (n - counts[c])).astype(np.int64)
        pos_out += np.where(pos_out >= starts[c], counts[c], 0)
        dst = order[np.where(same, pos_in, pos_out)]
        i, j = np.minimum(src, dst), np.maximum(src, dst)
        new = (i * n + j)[i != j]
        merged = np.concatenate([keys, new])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:target]
    return np.stack([keys // n, keys % n], axis=1)


def _features(shape: Shape, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, d, c = shape.n, shape.d, shape.classes
    if shape.features == "gauss":
        means = np.zeros((c, d))
        means[np.arange(c), np.arange(c)] = GAUSS_SEPARATION / np.sqrt(2.0)
        return means[labels] + rng.standard_normal((n, d))
    # each class owns a disjoint block of topic words drawn more often
    topic = rng.permutation(d) % c
    prob = np.full((c, d), BOW_BACKGROUND_WORDS / d)
    prob[topic[None, :] == np.arange(c)[:, None]] += BOW_TOPIC_WORDS / (d / c)
    out = np.empty((n, d))
    for lo in range(0, n, 1024):
        hi = min(n, lo + 1024)
        out[lo:hi] = rng.random((hi - lo, d)) < prob[labels[lo:hi]]
    return out


def generate(shape: Shape, seed: int) -> Generated:
    """Deterministic in (shape, seed)."""
    labels = _rng(shape, seed, 0).permutation(np.arange(shape.n) % shape.classes)
    edges = _edges(shape, labels, _rng(shape, seed, 1))
    features = _features(shape, labels, _rng(shape, seed, 2))
    return Generated(shape, labels.astype(np.int64), edges, features)


# ---------------------------------------------------------------------------
# manifest + TSV writer and cache


def _write_binary_features(path: Path, x: np.ndarray) -> None:
    # "0.0"/"1.0" are the round-trip reprs; every token is 4 bytes wide
    tokens = np.where(x != 0.0, np.bytes_(b"1.0\t"), np.bytes_(b"0.0\t"))
    raw = np.frombuffer(tokens.tobytes(), dtype=np.uint8).reshape(x.shape[0], -1).copy()
    raw[:, -1] = ord("\n")
    path.write_bytes(raw.tobytes())


def write_domain(out_dir: Path, domain_id: str, g: Generated) -> dict:
    """Write one domain's TSV files; return its manifest entry."""
    if g.shape.features != "bow":
        raise ValueError("the on-disk cache holds bag-of-words domains only")
    edges = "".join(f"{i}\t{j}\n" for i, j in g.edges.tolist())
    (out_dir / f"{domain_id}.edges.tsv").write_text(edges, encoding="utf-8")
    _write_binary_features(out_dir / f"{domain_id}.features.tsv", g.features)
    labels = "".join(f"{v}\n" for v in g.labels.tolist())
    (out_dir / f"{domain_id}.labels.tsv").write_text(labels, encoding="utf-8")
    return {
        "domain_id": domain_id,
        "edges_path": f"{domain_id}.edges.tsv",
        "features_path": f"{domain_id}.features.tsv",
        "labels_path": f"{domain_id}.labels.tsv",
        "num_classes": g.shape.classes,
    }


def cached_manifest(cache_root: Path, shapes: tuple[Shape, ...], seed: int) -> Path:
    """Manifest of the given shapes (domain_id = shape name) for a seed,
    generating it on a cache miss. The newest CACHE_KEEP entries are kept."""
    shape_key = hashlib.sha256(repr(shapes).encode()).hexdigest()[:12]
    key = f"{'+'.join(s.name for s in shapes)}-s{seed}-{shape_key}-v{GEN_VERSION}"
    entry = cache_root / key
    manifest = entry / "manifest.json"
    if manifest.is_file():
        os.utime(entry)
        return manifest
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = cache_root / f".{key}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    domains = [write_domain(tmp, s.name, generate(s, seed)) for s in shapes]
    doc = {"version": 1, "task_kind": "node-level", "symmetrize": True, "domains": domains}
    (tmp / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    shutil.rmtree(entry, ignore_errors=True)
    os.replace(tmp, entry)
    _evict(cache_root)
    return manifest


def _evict(cache_root: Path) -> None:
    entries = sorted(
        (p for p in cache_root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)
