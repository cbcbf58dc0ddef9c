import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from leda.datasets import (
    DEGREE_FEATURE_DIM,
    GRAPH_LEVEL,
    NODE_LEVEL,
    DomainGraph,
    GraphCollection,
    degree_features,
    generate_sbm,
    load_dataset,
    save_dataset,
)
from leda.errors import ConfigError, DataError
from leda.linalg import CsrMatrix

from oracles import edge_lines, to_dense


def write_domain(tmp_path, domain_id, features, edges, labels=None, num_classes=None):
    feat_file = f"{domain_id}.feat.tsv"
    edge_file = f"{domain_id}.edges.tsv"
    (tmp_path / feat_file).write_text(
        "\n".join("\t".join(repr(float(v)) for v in row) for row in features) + "\n"
    )
    (tmp_path / edge_file).write_text("\n".join(f"{i}\t{j}" for i, j in edges) + "\n")
    entry = {"domain_id": domain_id, "edges_path": edge_file, "features_path": feat_file}
    if labels is not None:
        label_file = f"{domain_id}.labels.tsv"
        (tmp_path / label_file).write_text("\n".join(str(v) for v in labels) + "\n")
        entry["labels_path"] = label_file
        if num_classes is not None:
            entry["num_classes"] = num_classes
    return entry


def write_manifest(tmp_path, entries, **overrides):
    doc = {"version": 1, "task_kind": "node-level", "symmetrize": True, "domains": entries}
    doc.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def entry(**changes):
    """A valid manifest entry with `changes` applied; a change to None drops the key."""
    fields = {"domain_id": "a", "edges_path": "e.tsv", "num_nodes": 2, **changes}
    return {key: value for key, value in fields.items() if value is not None}


def manifest_doc(entries=None, **top):
    return {"version": 1, "domains": [entry()] if entries is None else entries, **top}


# (manifest text or document, the DataError it raises, which names the manifest or the domain)
MANIFEST_REFUSALS = {
    "invalid-json": ("{", r"^manifest .+manifest\.json: invalid JSON: "),
    "top-level-list": ([], r"^manifest .+manifest\.json must be an object, got \[\]$"),
    "version": (manifest_doc(version=2), r"^manifest .+: unsupported version 2$"),
    # the checkpoint header's rule: a boolean or a float is never an integer
    "version-true": (manifest_doc(version=True), r"^manifest .+: unsupported version True$"),
    "version-float": (manifest_doc(version=1.0), r"^manifest .+: unsupported version 1\.0$"),
    "task-kind": (manifest_doc(task_kind="edge-level"),
                  r"^manifest .+: unknown task_kind 'edge-level'$"),
    "symmetrize": (manifest_doc(symmetrize="yes"), r"^manifest .+: symmetrize must be a boolean, got 'yes'$"),
    "domains-empty": (manifest_doc([]), r"^manifest .+: domains is empty$"),
    "domains-object": (manifest_doc({}), r"^manifest .+: domains must be a list, got \{\}$"),
    "entry-string": (manifest_doc(["a"]), r"^manifest domain #0 must be an object, got 'a'$"),
    "entry-key": (manifest_doc([entry(colour=1)]),
                  r"^manifest domain #0: unknown keys \['colour'\]$"),
    "domain-id-missing": (manifest_doc([entry(domain_id=None)]),
                          r"^manifest domain #0: domain_id must be a string, got None$"),
    "domain-id-empty": (manifest_doc([entry(domain_id="")]),
                        r"^manifest domain #0: domain_id is empty$"),
    "num-nodes-negative": (manifest_doc([entry(num_nodes=-1)]),
                           r"^domain 'a': num_nodes must be >= 0$"),
    "edges-path-missing": (manifest_doc([entry(edges_path=None)]),
                           r"^domain 'a': missing edges_path$"),
    "node-count-unknown": (manifest_doc([entry(num_nodes=None)]),
                           r"^domain 'a': node count unknown; "),
    "graph-label-missing": (manifest_doc(task_kind=GRAPH_LEVEL),
                            r"^domain 'a': graph-level entry needs graph_label$"),
    "graph-label-node-level": (manifest_doc([entry(graph_label=1)]),
                               r"^domain 'a': graph_label is read only in a graph-level manifest$"),
    "graph-label-second-missing": (manifest_doc([entry(graph_label=0), entry(domain_id="b")],
                                                task_kind=GRAPH_LEVEL),
                                   r"^domain 'b': graph-level entry needs graph_label$"),
    "graph-label-huge": (manifest_doc([entry(graph_label=2 ** 63)], task_kind=GRAPH_LEVEL),
                         r"^graph label outside the 64-bit integer range$"),
    "graph-label-huge-negative": (manifest_doc([entry(graph_label=-2 ** 63 - 1)], task_kind=GRAPH_LEVEL),
                                  r"^graph label outside the 64-bit integer range$"),
}


@pytest.mark.parametrize("doc, message", MANIFEST_REFUSALS.values(), ids=MANIFEST_REFUSALS.keys())
def test_manifest_refusal_names_the_manifest_or_the_domain(tmp_path, doc, message):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    path = tmp_path / "manifest.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(DataError, match=message):
        load_dataset(path)


class TestLoadDataset:
    def test_two_domain_smoke(self, tmp_path):
        entries = [
            write_domain(tmp_path, "a", np.eye(3), [(0, 1), (1, 2)]),
            write_domain(tmp_path, "b", np.ones((3, 2)), [(0, 2)]),
        ]
        collection = load_dataset(write_manifest(tmp_path, entries))
        assert len(collection.graphs) == 2
        assert collection.domain_ids() == ["a", "b"]
        assert collection.graphs[0].feature_dim == 3
        assert collection.graphs[1].feature_dim == 2

    def test_edge_index_out_of_range(self, tmp_path):
        entries = [write_domain(tmp_path, "a", np.eye(3), [(5, 0)])]
        with pytest.raises(DataError, match="beyond node count"):
            load_dataset(write_manifest(tmp_path, entries))

    def test_duplicate_edges_stay_binary(self, tmp_path):
        entries = [write_domain(tmp_path, "a", np.eye(3), [(0, 1), (0, 1), (1, 0)])]
        graph = load_dataset(write_manifest(tmp_path, entries)).graphs[0]
        assert graph.adjacency.nnz == 2
        assert np.all(graph.adjacency.values == 1.0)

    def test_missing_file(self, tmp_path):
        entries = [{"domain_id": "a", "edges_path": "nope.tsv", "features_path": "missing.tsv"}]
        with pytest.raises(DataError, match="not found"):
            load_dataset(write_manifest(tmp_path, entries))

    @pytest.mark.parametrize("rows", ["feature", "label"])
    def test_num_nodes_that_disagrees_with_the_rows_is_refused(self, tmp_path, rows):
        entry = write_domain(tmp_path, "a", np.eye(3), [(0, 1)], labels=[0, 1, 0])
        if rows == "label":
            del entry["features_path"]
        entry["num_nodes"] = 4
        with pytest.raises(DataError, match=f"^domain 'a': num_nodes is 4, but it has 3 {rows} rows$"):
            load_dataset(write_manifest(tmp_path, [entry]))

    def test_ragged_features(self, tmp_path):
        (tmp_path / "f.tsv").write_text("1.0\t2.0\n3.0\n")
        (tmp_path / "e.tsv").write_text("0\t1\n")
        entries = [{"domain_id": "a", "edges_path": "e.tsv", "features_path": "f.tsv"}]
        with pytest.raises(DataError, match="ragged"):
            load_dataset(write_manifest(tmp_path, entries))

    def test_label_out_of_range(self, tmp_path):
        entries = [
            write_domain(tmp_path, "a", np.eye(3), [(0, 1)], labels=[0, 1, 5], num_classes=2)
        ]
        with pytest.raises(DataError, match="label out of range"):
            load_dataset(write_manifest(tmp_path, entries))

    def test_asymmetric_edges_without_symmetrize(self, tmp_path):
        entries = [write_domain(tmp_path, "a", np.eye(3), [(0, 1)])]
        path = write_manifest(tmp_path, entries, symmetrize=False)
        with pytest.raises(DataError, match="no reverse"):
            load_dataset(path)

    def test_self_loop_rejected(self, tmp_path):
        entries = [write_domain(tmp_path, "a", np.eye(3), [(1, 1)])]
        with pytest.raises(DataError, match="elf-loop"):
            load_dataset(write_manifest(tmp_path, entries))

    def test_unknown_manifest_key_rejected(self, tmp_path):
        entries = [write_domain(tmp_path, "a", np.eye(3), [(0, 1)])]
        path = write_manifest(tmp_path, entries, bogus=1)
        with pytest.raises(DataError, match="unknown keys"):
            load_dataset(path)

    def test_comment_lines_ignored(self, tmp_path):
        (tmp_path / "e.tsv").write_text("# header\n0\t1\n")
        (tmp_path / "f.tsv").write_text("1.0\n2.0\n")
        entries = [{"domain_id": "a", "edges_path": "e.tsv", "features_path": "f.tsv"}]
        graph = load_dataset(write_manifest(tmp_path, entries)).graphs[0]
        assert graph.adjacency.nnz == 2

    def test_attribute_free_domain_gets_degree_features(self, tmp_path):
        (tmp_path / "e.tsv").write_text("0\t1\n1\t2\n")
        entries = [{"domain_id": "a", "edges_path": "e.tsv", "num_nodes": 4}]
        graph = load_dataset(write_manifest(tmp_path, entries)).graphs[0]
        assert graph.degree_featurized
        assert graph.features.shape == (4, 16)

    def test_duplicate_node_level_domain_ids_rejected(self, tmp_path):
        first = write_domain(tmp_path, "a", np.eye(3), [(0, 1)])
        entries = [first, dict(first)]
        with pytest.raises(DataError, match="unique"):
            load_dataset(write_manifest(tmp_path, entries))


class TestRoundTrip:
    def test_node_level_round_trip_bit_exact(self, tmp_path):
        domains = [
            generate_sbm(2, 4, 0.9, 0.1, d=5, cluster_sep=2.0, seed=3, domain_id="x"),
            generate_sbm(3, 3, 0.8, 0.0, d=4, cluster_sep=1.0, seed=4, domain_id="y"),
        ]
        original = GraphCollection(graphs=tuple(domains), task_kind="node-level")
        manifest = save_dataset(original, tmp_path / "out")
        loaded = load_dataset(manifest)
        for a, b in zip(original.graphs, loaded.graphs):
            assert a.domain_id == b.domain_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(to_dense(a.adjacency), to_dense(b.adjacency))
            assert np.array_equal(a.labels, b.labels)
            assert a.num_classes == b.num_classes

    def test_edge_file_bytes_are_one_string_per_edge(self, tmp_path):
        # node ids past 10^5, so that ids take five and six digits
        n = 120_000
        pairs = np.random.default_rng(17).integers(0, n, size=(5000, 2))
        adj = CsrMatrix.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        graph = DomainGraph("big", degree_features(adj), adj, degree_featurized=True)
        save_dataset(GraphCollection(graphs=(graph,), task_kind="node-level"), tmp_path)
        written = (tmp_path / "g000-big.edges.tsv").read_bytes()
        assert written == edge_lines(adj).encode("utf-8")
        assert max(int(v) for v in written.split()) >= 100_000

    def test_graph_level_round_trip(self, tmp_path):
        """Every graph keeps its own label, the 64-bit extremes included."""
        labels = (0, 1, 2 ** 63 - 1, -2 ** 63, 1)
        graphs = [
            replace(generate_sbm(2, 3, 1.0, 0.0, d=3, cluster_sep=1.0, seed=s, domain_id="dom"),
                    graph_label=label)
            for s, label in enumerate(labels)
        ]
        original = GraphCollection(graphs=tuple(graphs), task_kind=GRAPH_LEVEL)
        loaded = load_dataset(save_dataset(original, tmp_path / "g"))
        assert loaded.task_kind == GRAPH_LEVEL
        assert [g.graph_label for g in loaded.graphs] == list(labels)
        assert [g.domain_id for g in loaded.graphs] == ["dom"] * 5
        for a, b in zip(original.graphs, loaded.graphs):
            assert np.array_equal(a.features, b.features)


class TestGenerateSbm:
    def test_full_within_empty_between(self):
        graph = generate_sbm(2, 3, 1.0, 0.0, d=4, cluster_sep=1.0, seed=0)
        dense = to_dense(graph.adjacency)
        block = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(dense[:3, :3], block)
        assert np.array_equal(dense[3:, 3:], block)
        assert np.all(dense[:3, 3:] == 0)

    def test_same_seed_bit_identical(self):
        a = generate_sbm(3, 5, 0.7, 0.2, d=6, cluster_sep=3.0, seed=11)
        b = generate_sbm(3, 5, 0.7, 0.2, d=6, cluster_sep=3.0, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(to_dense(a.adjacency), to_dense(b.adjacency))

    def test_high_separation_nearest_centroid_is_perfect(self):
        graph = generate_sbm(2, 3, 1.0, 0.0, d=8, cluster_sep=10.0, seed=5)
        # brute-force nearest centroid on raw features
        feats, labels = graph.features, graph.labels
        centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(2)])
        pred = np.argmin(
            ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(pred, labels)

    def test_block_means_separated_by_cluster_sep(self):
        graph = generate_sbm(3, 200, 0.5, 0.1, d=5, cluster_sep=6.0, seed=9)
        feats, labels = graph.features, graph.labels
        means = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(means[a] - means[b]) == pytest.approx(6.0, abs=0.5)

    def test_zero_between_probability_components_stay_in_blocks(self):
        graph = generate_sbm(3, 4, 0.9, 0.0, d=4, cluster_sep=1.0, seed=2)
        dense = to_dense(graph.adjacency)
        labels = graph.labels
        # BFS over the adjacency: every reachable pair must share a block
        n = len(labels)
        for start in range(n):
            stack, seen = [start], {start}
            while stack:
                u = stack.pop()
                for v in np.nonzero(dense[u])[0]:
                    if v not in seen:
                        seen.add(int(v))
                        stack.append(int(v))
            assert all(labels[v] == labels[start] for v in seen)

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigError):
            generate_sbm(2, 3, 0.2, 0.5, d=4, cluster_sep=1.0, seed=0)
        with pytest.raises(ConfigError):
            generate_sbm(2, 3, 1.1, 0.0, d=4, cluster_sep=1.0, seed=0)

    def test_feature_dim_must_cover_blocks(self):
        with pytest.raises(ConfigError):
            generate_sbm(5, 2, 0.9, 0.1, d=3, cluster_sep=1.0, seed=0)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0, got -1$"):
            generate_sbm(2, 3, 0.9, 0.1, d=4, cluster_sep=1.0, seed=-1)

    @pytest.mark.parametrize("blocks, nodes, d", [(65536, 65536, 65536), (2, 4, 10 ** 18)])
    def test_a_table_numpy_cannot_size_is_refused_unallocated(self, blocks, nodes, d):
        # the n x n draw of the first, the n x d features of the second
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^no memory for a block-model graph of "
                                                  f"n={blocks * nodes} nodes and d={d} features$"):
                generate_sbm(blocks, nodes, 0.9, 0.1, d=d, cluster_sep=1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_a_table_beyond_the_machine_memory_is_refused_undrawn(self, monkeypatch):
        """max(11 n, 16 d) n bytes, what the draw holds at once, are weighed
        against the machine's memory, patched to one page of exactly that
        many bytes, and then one byte less; the draw is never reached when
        they exceed it. At d = 4 the n x n draw weighs most, at d = 12 the
        n x d features."""
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or default_rng(seed))
        for d, held in ((4, 11 * 6 * 6), (12, 16 * 6 * 12)):
            for page, refused in ((held, False), (held - 1, True)):
                monkeypatch.setattr(os, "sysconf", lambda name, page=page: 1 if name == "SC_PHYS_PAGES" else page)
                if refused:
                    with pytest.raises(ConfigError, match=f"^no memory for a block-model graph of n=6 nodes and d={d} features$"):
                        generate_sbm(2, 3, 0.9, 0.1, d=d, cluster_sep=1.0, seed=0)
                else:
                    assert generate_sbm(2, 3, 0.9, 0.1, d=d, cluster_sep=1.0, seed=0).num_nodes == 6
        assert draws == [0, 0]

    @pytest.mark.parametrize("nodes, d", [(600, 16), (50, 1000)])
    def test_the_draw_holds_no_more_than_the_guard_weighs(self, nodes, d):
        n = 2 * nodes
        tracemalloc.start()
        try:
            graph = generate_sbm(2, nodes, 0.05, 0.01, d=d, cluster_sep=1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_nodes == n
        # the labels, block means and adjacency held beside the tables come on top
        assert peak <= 1.05 * max(11 * n, 16 * d) * n, (peak, max(11 * n, 16 * d) * n)

    def test_a_draw_out_of_memory_is_a_config_error(self, monkeypatch):
        class Rng:
            def random(self, shape):
                raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Rng())
        with pytest.raises(ConfigError, match="^no memory for a block-model graph of n=6 nodes and d=4 features$"):
            generate_sbm(2, 3, 0.9, 0.1, d=4, cluster_sep=1.0, seed=0)


class TestDegreeFeatures:
    def star(self, leaves):
        edges = [(0, i) for i in range(1, leaves + 1)]
        return CsrMatrix.from_edges(leaves + 1, edges)

    def test_star_center_normalized_degree(self):
        feats = degree_features(self.star(4))
        assert feats[0, 0] == 1.0  # center has max degree
        assert np.all(feats[1:, 0] == 0.25)

    def test_isolated_node(self):
        adj = CsrMatrix.from_edges(3, [(0, 1)])
        feats = degree_features(adj)
        assert feats[2, 0] == 0.0
        assert feats[2, 1] == 1.0
        assert feats[2, 2] == 1.0  # one-hot slot for degree 0

    def test_regular_graph_rows_identical(self):
        # 4-cycle: every node has degree 2
        adj = CsrMatrix.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        feats = degree_features(adj)
        assert np.all(feats == feats[0])

    def test_degree_capped_by_width(self):
        feats = degree_features(self.star(20))
        assert feats.shape == (21, DEGREE_FEATURE_DIM)
        # cap = 16-3 = 13: the center (degree 20) lands in the last one-hot slot
        assert feats[0, DEGREE_FEATURE_DIM - 1] == 1.0
        assert np.all(feats[1:, 2 + 1] == 1.0)  # each leaf in degree 1's slot


class TestDomainGraphValidation:
    def test_feature_row_mismatch(self):
        with pytest.raises(DataError, match="feature rows"):
            DomainGraph(
                domain_id="bad",
                features=np.zeros((2, 2)),
                adjacency=CsrMatrix.from_dense(np.zeros((3, 3))),
            )

    @pytest.mark.parametrize("dense, labels, message", [
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], None, "adjacency must be square"),
        ([[0.0, 1.0], [0.0, 0.0]], None, "adjacency must be symmetric"),
        ([[0.0, 2.0], [2.0, 0.0]], None, "adjacency must be binary"),
        ([[1.0, 1.0], [1.0, 0.0]], None, "adjacency must not carry self-loops"),
        ([[0.0, 1.0], [1.0, 0.0]], [0, 1, 1], "3 labels for 2 nodes"),
    ], ids=["square", "symmetric", "binary", "self-loop", "labels"])
    def test_each_graph_rule_is_refused(self, dense, labels, message):
        with pytest.raises(DataError, match=rf"^domain 'bad': {message}$"):
            DomainGraph("bad", np.zeros((2, 2)), CsrMatrix.from_dense(dense), labels)

    def test_features_must_be_2d(self):
        with pytest.raises(DataError, match="^domain 'bad': features must be 2-D$"):
            DomainGraph("bad", np.zeros(2), CsrMatrix.from_dense(np.zeros((2, 2))))

    def test_graph_label_is_held_as_a_python_int(self):
        g = generate_sbm(2, 2, 0.9, 0.1, d=2, cluster_sep=1.0, seed=0)
        label = replace(g, graph_label=np.int64(-3)).graph_label
        assert type(label) is int and label == -3

    @pytest.mark.parametrize("task_kind, labels, message", [
        ("edge-level", (None, None), "unknown task_kind 'edge-level'"),
        (NODE_LEVEL, (None, 1), "domain 'second': graph_label is read only in a graph-level manifest"),
    ], ids=["task-kind", "label-node-level"])
    def test_each_collection_rule_is_refused(self, task_kind, labels, message):
        g = generate_sbm(2, 2, 0.9, 0.1, d=2, cluster_sep=1.0, seed=0)
        graphs = [replace(g, domain_id=name, graph_label=label)
                  for name, label in zip(("first", "second"), labels)]
        with pytest.raises(DataError, match=f"^{message}$"):
            GraphCollection(graphs=graphs, task_kind=task_kind)

    def test_graph_level_requires_labels(self):
        """Every graph carries its label; the first one without is named."""
        g = generate_sbm(2, 2, 0.9, 0.1, d=2, cluster_sep=1.0, seed=0)
        graphs = (replace(g, graph_label=0), replace(g, domain_id="bare"), g)
        with pytest.raises(DataError, match="^domain 'bare': graph-level entry needs graph_label$"):
            GraphCollection(graphs=graphs, task_kind=GRAPH_LEVEL)

    def test_graph_level_zero_node_graph_names_domain_and_position(self):
        g = generate_sbm(2, 2, 0.9, 0.1, d=2, cluster_sep=1.0, seed=0, domain_id="full")
        empty = DomainGraph("empty", np.zeros((0, 2)), CsrMatrix.from_dense(np.zeros((0, 0))), graph_label=1)
        with pytest.raises(DataError, match=r"^domain 'empty': graph-level entry #1 has no nodes$"):
            GraphCollection(graphs=(replace(g, graph_label=0), empty, replace(g, graph_label=0)),
                            task_kind=GRAPH_LEVEL)

    def test_node_level_zero_node_graph_names_domain_and_position(self):
        g = generate_sbm(2, 2, 0.9, 0.1, d=2, cluster_sep=1.0, seed=0, domain_id="full")
        empty = DomainGraph("empty", np.zeros((0, 2)), CsrMatrix.from_dense(np.zeros((0, 0))))
        with pytest.raises(DataError, match=r"^domain 'empty': node-level entry #1 has no nodes$"):
            GraphCollection(graphs=(g, empty), task_kind="node-level")
