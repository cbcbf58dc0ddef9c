import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from leda import datasets, evaluate
from leda.datasets import DomainGraph, GraphCollection, generate_sbm, write_float_tsv
from leda.errors import DataError, NumericError
from leda.evaluate import (
    EmbeddingSet,
    diagnostics_entropy,
    embed,
    fewshot_eval,
    graph_eval,
    linear_probe,
    macro_f1,
    mi_diagnostic,
    mi_from_scores,
    pooled_graph_embeddings,
)
from leda.dpu import trans
from leda.linalg import CsrMatrix, gaussian_entropy
from leda.trainer import prepare_domains, pretrain

from oracles import to_dense
from synthetic import bow_collection, node_collection, overflow_probe_set, parameters, tiny_config


@pytest.fixture(scope="module")
def trained():
    return pretrain(node_collection(), tiny_config(epochs=20))


def clustered_embeddings(num_classes=2, per_class=30, dim=6, sep=8.0, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.zeros((num_classes, dim))
    centers[np.arange(num_classes), np.arange(num_classes)] = sep
    labels = np.repeat(np.arange(num_classes), per_class)
    e = centers[labels] + noise * rng.standard_normal((len(labels), dim))
    return EmbeddingSet(domain_id="synthetic", E=e, labels=labels)


class TestEmbed:
    def test_deterministic(self, trained):
        domain = node_collection().graphs[0]
        a = embed(domain, trained, t=0)
        b = embed(domain, trained, t=0)
        assert np.array_equal(a.E, b.E)

    def test_unseen_domain_with_new_feature_dim(self, trained):
        unseen = generate_sbm(3, 6, 0.5, 0.1, d=25, cluster_sep=3.0, seed=77, domain_id="new")
        out = embed(unseen, trained, t=1)
        assert out.E.shape == (18, trained.config.z)

    def test_zero_features_embed_to_zero(self, trained):
        domain = node_collection().graphs[0]
        zeroed = DomainGraph(
            domain_id=domain.domain_id,
            features=np.zeros_like(domain.features),
            adjacency=domain.adjacency,
            labels=domain.labels,
            num_classes=domain.num_classes,
        )
        assert np.all(embed(zeroed, trained, t=0).E == 0.0)

    def test_rank_too_high_for_unseen_domain(self, trained):
        tiny = generate_sbm(2, 1, 0.9, 0.1, d=2, cluster_sep=1.0, seed=5, domain_id="tiny")
        with pytest.raises(DataError, match=r"^domain 'tiny': svd rank k=4 out of range for 2x2 input$"):
            embed(tiny, trained)

    def test_unseen_sparse_domain_converts_its_features_once(self, trained, monkeypatch):
        # as the graph is made; embed factors the CsrMatrix the graph holds
        source = bow_collection(seed=6).graphs[0]
        held, factored = [], []
        convert, derive = datasets.feature_operand, evaluate.init_basis
        monkeypatch.setattr(datasets, "feature_operand", lambda x: held.append(convert(x)) or held[-1])
        monkeypatch.setattr(evaluate, "init_basis",
                            lambda x, *args, **kwargs: factored.append(x) or derive(x, *args, **kwargs))
        unseen = DomainGraph("unseen", to_dense(source.features), source.adjacency, source.labels)
        assert embed(unseen, trained).E.shape == (unseen.num_nodes, trained.config.z)
        assert len(held) == 1 and isinstance(held[0], CsrMatrix)
        assert len(factored) == 1 and factored[0] is unseen.features is held[0]

    @pytest.mark.parametrize("features", ["dense", "csr"])
    def test_unseen_domain_gets_the_basis_training_would_give_it(self, trained, monkeypatch, features):
        derived = []
        derive = evaluate.init_basis

        def kept(*args, **kwargs):
            derived.append(derive(*args, **kwargs))
            return derived[-1]

        monkeypatch.setattr(evaluate, "init_basis", kept)
        source = node_collection(seed=9) if features == "dense" else bow_collection(seed=6)
        unseen = replace(source.graphs[0], domain_id="unseen")
        embed(unseen, trained)
        (domain,) = prepare_domains(GraphCollection((unseen,), "node-level"), trained.config)
        assert isinstance(domain.x, CsrMatrix) == (features == "csr")
        assert len(derived) == 1 and derived[0].V.tobytes() == domain.basis.V.tobytes()

    def test_tsv_export_round_trips(self, trained, tmp_path):
        out = embed(node_collection().graphs[0], trained, t=0)
        path = tmp_path / "emb.tsv"
        write_float_tsv(path, out.E, index=True)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(out.E.shape[0]))
        parsed = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(parsed, out.E)


class TestEmbeddingSet:
    def test_negative_label_is_refused(self):
        # np.eye(C)[-1] is the one-hot row of class C - 1, so the probe would
        # train label -1 as class 1 here: it scored 66.67% on these separable
        # clusters, and 100% with the labels shifted to 0..2
        e = clustered_embeddings(num_classes=3, per_class=100, dim=8)
        with pytest.raises(DataError, match="^domain 'shifted': labels must be >= 0, got -1$"):
            EmbeddingSet("shifted", e.E, e.labels - 1)
        assert linear_probe(e, runs=2, seed=1).mean_accuracy == 100.0

    def test_label_count_must_match_the_rows(self):
        e = clustered_embeddings(num_classes=3, per_class=4, dim=8)
        with pytest.raises(DataError, match="^labels length must match embedding rows$"):
            EmbeddingSet("short", e.E, e.labels[:-1])


class TestLinearProbe:
    def test_separable_clusters_are_perfect(self):
        report = linear_probe(clustered_embeddings(sep=10.0, noise=0.1), runs=5, seed=1)
        assert report.mean_accuracy == 100.0
        assert report.std == 0.0

    def test_shuffled_labels_are_chance_level(self):
        rng = np.random.default_rng(2)
        e = clustered_embeddings(per_class=500, sep=6.0, noise=0.5, seed=3)
        shuffled = EmbeddingSet("s", e.E, rng.permutation(e.labels))
        report = linear_probe(shuffled, runs=5, seed=4)
        assert abs(report.mean_accuracy - 50.0) <= 5.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_second_moment_overflow_raises(self):
        # finite weights, a stalled fit: only the second moments show it
        assert linear_probe(overflow_probe_set(1.0), runs=3, seed=1).mean_accuracy > 50.0
        with pytest.raises(NumericError, match="^linear probe: AdamW second moment of 'probe.W'"):
            linear_probe(overflow_probe_set(1e160), runs=3, seed=1)

    def test_constant_embeddings_predict_majority(self):
        labels = np.array([0] * 30 + [1] * 10)
        e = EmbeddingSet("c", np.ones((40, 4)), labels)
        report = linear_probe(e, runs=5, seed=5)
        # degenerate classifier collapses to one class; majority is 75%
        assert abs(report.mean_accuracy - 75.0) <= 8.0

    def test_exactly_runs_accuracies(self):
        report = linear_probe(clustered_embeddings(per_class=20), runs=20, seed=6)
        assert report.repeats == 20

    def test_single_class_rejected(self):
        e = EmbeddingSet("x", np.ones((10, 3)), np.zeros(10, dtype=int))
        with pytest.raises(DataError, match="two classes"):
            linear_probe(e)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("at_step", [0, 150, evaluate.PROBE_STEPS - 1])
    @pytest.mark.parametrize("target", ["W", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_at_one_step_raises(self, monkeypatch, at_step, target, bad):
        # the fitted weights are checked once, after the last step; a bad
        # gradient at any step must still reach them
        grads = evaluate._probe_grads
        calls = []

        def poisoned(x, theta, grad, *scratch):
            # the gradient block is [dW; db]: W's rows, then b's one row
            grads(x, theta, grad, *scratch)
            if len(calls) == at_step:
                grad[0 if target == "W" else -1, 0] = bad
            calls.append(None)

        monkeypatch.setattr(evaluate, "_probe_grads", poisoned)
        with pytest.raises(NumericError, match="linear probe: fitted weights are non-finite"):
            linear_probe(clustered_embeddings(), runs=1, seed=1)
        assert len(calls) == evaluate.PROBE_STEPS

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("rows, named", [((0,), "W"), ((-2,), "W"), ((-1,), "b"), ((-1, 0), "W")],
                             ids=["first-W-row", "last-W-row", "b", "W-and-b"])
    def test_a_one_block_moment_names_the_tensor_of_its_rows(self, monkeypatch, rows, named):
        # a 1e200 gradient entry squares to inf: its step is 0, so the weights
        # stay finite and only the second moment shows it, under the name of
        # the tensor whose rows hold it; W is checked before b
        grads = evaluate._probe_grads

        def huge(x, theta, grad, *scratch):
            grads(x, theta, grad, *scratch)
            grad[rows, 0] = 1e200

        monkeypatch.setattr(evaluate, "_probe_grads", huge)
        with pytest.raises(NumericError, match=rf"^linear probe: AdamW second moment of 'probe.{named}' "
                                               r"is non-finite \(a gradient entry was non-finite or "
                                               r"overflowed when squared\)$"):
            linear_probe(clustered_embeddings(), runs=1, seed=1)


class TestFewshot:
    def test_identical_within_class_is_perfect(self):
        e = np.repeat(np.eye(3), 10, axis=0)
        labels = np.repeat(np.arange(3), 10)
        report = fewshot_eval(EmbeddingSet("p", e, labels), k=2, repeats=50, seed=0)
        assert report.mean_accuracy == 100.0
        assert report.std == 0.0

    def test_antipodal_classes_one_shot(self):
        rng = np.random.default_rng(7)
        base = np.array([1.0, 0.0, 0.0, 0.0])
        e = np.concatenate(
            [base + 0.01 * rng.standard_normal((40, 4)), -base + 0.01 * rng.standard_normal((40, 4))]
        )
        labels = np.repeat([0, 1], 40)
        report = fewshot_eval(EmbeddingSet("a", e, labels), k=1, repeats=200, seed=8)
        assert report.mean_accuracy > 99.0

    def test_chance_level_with_independent_labels(self):
        rng = np.random.default_rng(9)
        e = rng.standard_normal((240, 8))
        labels = np.repeat(np.arange(6), 40)
        report = fewshot_eval(EmbeddingSet("c", e, labels), k=1, repeats=500, seed=10)
        assert abs(report.mean_accuracy - 100.0 / 6.0) <= 3.0

    def test_scale_and_rotation_invariance(self):
        e = clustered_embeddings(num_classes=3, per_class=8, dim=5, seed=11)
        report_base = fewshot_eval(e, k=1, repeats=40, seed=12)
        rot, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((5, 5)))
        transformed = EmbeddingSet("t", 3.7 * (e.E @ rot), e.labels)
        report_t = fewshot_eval(transformed, k=1, repeats=40, seed=12)
        assert report_t.mean_accuracy == report_base.mean_accuracy
        assert report_t.std == report_base.std

    def test_class_smaller_than_k_rejected(self):
        e = EmbeddingSet("x", np.ones((5, 2)), np.array([0, 0, 0, 1, 1]))
        with pytest.raises(DataError, match="fewer than"):
            fewshot_eval(e, k=3)


class TestGraphEval:
    @staticmethod
    def graph_level_collection(seed=0):
        # two classes of small attribute-free graphs with distinct density
        graphs = []
        labels = []
        rng = np.random.default_rng(seed)
        for i in range(8):
            dense = i % 2 == 0
            g = generate_sbm(
                2,
                4,
                p_in=0.95 if dense else 0.3,
                p_out=0.6 if dense else 0.05,
                d=4,
                cluster_sep=1.0,
                seed=int(rng.integers(1 << 30)),
                domain_id="glv",
            )
            stripped = DomainGraph(
                domain_id="glv",
                features=g.features,
                adjacency=g.adjacency,
            )
            graphs.append(stripped)
            labels.append(0 if dense else 1)
        return GraphCollection(graphs=tuple(graphs), task_kind="graph-level", graph_labels=tuple(labels))

    def test_support_covering_everything_rejected(self, trained):
        collection = self.graph_level_collection()
        with pytest.raises(DataError, match="query set is empty"):
            graph_eval(collection, trained, support_per_class=4, repeats=2, seed=0)

    def test_balanced_symmetric_macro_f1_equals_accuracy(self):
        y_true = np.array([0] * 10 + [1] * 10)
        y_pred = y_true.copy()
        y_pred[[0, 1, 10, 11]] = 1 - y_pred[[0, 1, 10, 11]]  # symmetric confusion
        acc = np.mean(y_pred == y_true)
        assert macro_f1(y_true, y_pred) == pytest.approx(acc)

    def test_density_separated_classes_beat_chance(self):
        collection = self.graph_level_collection(seed=1)
        config = tiny_config(epochs=10, k=3, m=3)
        ckpt = pretrain(collection, config)
        report = graph_eval(collection, ckpt, support_per_class=1, repeats=100, seed=3)

        # nearest-centroid brute force on raw pooled embeddings must also
        # separate the classes, confirming the signal is real
        pooled = pooled_graph_embeddings(collection, ckpt, t=0)
        labels = np.array(collection.graph_labels)
        centroids = np.stack([pooled[labels == c].mean(axis=0) for c in (0, 1)])
        brute = np.argmin(
            ((pooled[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.mean(brute == labels) > 0.5
        assert report.mean_accuracy > 50.0
        assert "prototype-from-support" in report.flags

    def test_report_includes_macro_f1(self, trained):
        collection = self.graph_level_collection(seed=2)
        config = tiny_config(epochs=5, k=3, m=3)
        ckpt = pretrain(collection, config)
        report = graph_eval(collection, ckpt, support_per_class=2, repeats=10, seed=4)
        assert "mean_macro_f1" in report.extras
        assert 0.0 <= report.extras["mean_macro_f1"] <= 100.0

    def test_chance_level_with_label_independent_graphs(self):
        # identically distributed graphs with alternating labels carry no
        # class signal, so prototype accuracy sits at chance
        rng = np.random.default_rng(21)
        graphs = tuple(
            generate_sbm(2, 5, 0.5, 0.2, d=4, cluster_sep=1.0,
                         seed=int(rng.integers(1 << 30)), domain_id="noise")
            for _ in range(12)
        )
        collection = GraphCollection(
            graphs=graphs, task_kind="graph-level", graph_labels=tuple([0, 1] * 6)
        )
        ckpt = pretrain(collection, tiny_config(epochs=5, k=3, m=3))
        report = graph_eval(collection, ckpt, support_per_class=1, repeats=200, seed=22)
        assert abs(report.mean_accuracy - 50.0) <= 10.0


class TestMiDiagnostic:
    def test_uniform_similarities(self):
        e_i = EmbeddingSet("a", np.tile([1.0, 0.0], (4, 1)))
        e_j = EmbeddingSet("b", np.tile([0.0, 1.0], (5, 1)))
        record = mi_diagnostic(e_i, e_j, tau=0.7)
        assert record["mi_proxy"] == pytest.approx(-np.log(20.0), abs=1e-9)
        assert record["pair_count"] == 20

    def test_single_pair_is_zero(self):
        record = mi_diagnostic(
            EmbeddingSet("a", np.array([[1.0, 2.0]])),
            EmbeddingSet("b", np.array([[0.5, -1.0]])),
            tau=1.0,
        )
        assert record["mi_proxy"] == pytest.approx(0.0, abs=1e-12)

    def test_identical_sets_score_higher_than_rotated_orthogonal(self):
        # unit vectors at 0 and 45 degrees; the counterpart set rotates each
        # row by 90 degrees, zeroing the matched-pair similarities while the
        # spread of the rest stays comparable
        angles = np.array([0.0, np.pi / 4])
        base = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rot90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        same = mi_diagnostic(EmbeddingSet("a", base), EmbeddingSet("b", base), tau=1.0)
        cross = mi_diagnostic(EmbeddingSet("a", base), EmbeddingSet("b", base @ rot90), tau=1.0)
        assert same["mi_proxy"] > cross["mi_proxy"]

    def test_shift_invariance_of_scores(self):
        rng = np.random.default_rng(15)
        scores = rng.standard_normal(50)
        a = mi_from_scores(scores)
        b = mi_from_scores(scores + 3.25)
        assert a["mi_proxy"] == pytest.approx(b["mi_proxy"], abs=1e-9)

    def test_no_scores_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^no similarity scores$"):
                mi_from_scores([])

    def test_lowering_non_max_scores_lowers_proxy(self):
        scores = np.array([2.0, 1.0, 0.5, 0.0])
        lowered = scores.copy()
        lowered[1:] -= 1.0  # max stays fixed
        assert mi_from_scores(lowered)["mi_proxy"] < mi_from_scores(scores)["mi_proxy"]

    @pytest.mark.parametrize(
        "n_i, n_j, max_pairs",
        [(1100, 1000, None), (1100, 1000, 50_000), (1, 300, 7), (300, 1, 7)],
        ids=["all-pairs", "subsampled", "one-row-left", "one-row-right"],
    )
    def test_uniform_similarities_count_every_pair(self, n_i, n_j, max_pairs):
        # above 10^6 pairs every pair is scored, and above MI_MAX_PAIRS the
        # log correction stands in for the pairs left out: -log(n_i * n_j)
        e_i = EmbeddingSet("a", np.tile([1.0, 0.0], (n_i, 1)))
        e_j = EmbeddingSet("b", np.tile([0.0, 1.0], (n_j, 1)))
        with mock.patch.object(evaluate, "MI_MAX_PAIRS", max_pairs or evaluate.MI_MAX_PAIRS):
            record = mi_diagnostic(e_i, e_j, tau=0.7, seed=3)
        assert record["mi_proxy"] == pytest.approx(-np.log(n_i * n_j), abs=1e-9)
        assert record["pair_count"] <= (max_pairs or n_i * n_j)
        if max_pairs is None:
            assert record["pair_count"] == n_i * n_j

    def test_subsample_is_seeded(self):
        rng = np.random.default_rng(16)
        e_i = EmbeddingSet("a", rng.standard_normal((40, 3)))
        e_j = EmbeddingSet("b", rng.standard_normal((40, 3)))
        with mock.patch.object(evaluate, "MI_MAX_PAIRS", 100):
            a, b, other = (mi_diagnostic(e_i, e_j, tau=1.0, seed=seed) for seed in (5, 5, 6))
        assert a == b
        assert a["mi_proxy"] != other["mi_proxy"]
        assert a["pair_count"] == 100  # 10 rows of each side

    def test_subsampled_estimate_is_near_the_exact_value(self):
        # 300 x 200 pairs cut to 6,000 (5,922 scored): over seeds 0-19 the
        # estimates' sd was 0.0036, and each lay within 2.3 sd of the exact
        # value
        rng = np.random.default_rng(17)
        e_i = EmbeddingSet("a", rng.standard_normal((300, 8)))
        e_j = EmbeddingSet("b", rng.standard_normal((200, 8)))
        exact = mi_diagnostic(e_i, e_j, tau=0.5)["mi_proxy"]
        with mock.patch.object(evaluate, "MI_MAX_PAIRS", 6000):
            estimates = np.array([mi_diagnostic(e_i, e_j, tau=0.5, seed=seed)["mi_proxy"] for seed in range(20)])
        sd = estimates.std(ddof=1)
        assert 0 < sd < 0.01
        assert np.all(np.abs(estimates - exact) <= 4 * sd)

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_an_empty_set_is_a_data_error(self, empty_side):
        sets = [EmbeddingSet("a", np.ones((3, 2))), EmbeddingSet("b", np.ones((2, 2)))]
        sets[empty_side] = EmbeddingSet("empty", np.zeros((0, 2)))
        with pytest.raises(DataError, match="^embedding sets must be non-empty$"):
            mi_diagnostic(*sets, tau=0.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_scores_raise(self, sign):
        # a tiny tau overflows s / tau; the record would hold inf and nan
        e_i = EmbeddingSet("a", np.array([[1.0, 0.0], [0.0, 1.0]]))
        e_j = EmbeddingSet("b", np.array([[sign, 0.0]]))
        with warnings.catch_warnings():  # and no raw RuntimeWarning before it
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                mi_diagnostic(e_i, e_j, tau=1e-310)


class TestEntropyDiagnostic:
    def test_trained_checkpoint_reports_finite_or_flagged(self, trained):
        report = diagnostics_entropy(trained, "doma")
        assert np.isfinite(report.value) or report.degenerate

    def test_matches_closed_form_for_column_scaled_basis(self):
        # zero-mean orthonormal columns (discrete cosine family) scaled per
        # column: the row covariance is exactly diag(c_j^2 / (d-1))
        d, m = 24, 3
        rows = np.arange(d) + 0.5
        cols = np.stack(
            [np.cos(np.pi * j * rows / d) for j in range(1, m + 1)], axis=1
        )
        cols /= np.linalg.norm(cols, axis=0)
        assert np.max(np.abs(cols.T @ cols - np.eye(m))) < 1e-12
        assert np.max(np.abs(cols.mean(axis=0))) < 1e-12
        scales = np.array([0.5, 1.0, 2.0])

        # identity-through-relu projection: shift into the positive orthant,
        # scale per column, shift back
        lift = 10.0
        config = tiny_config(epochs=0, k=m, h=m, m=m)
        params = {
            "dpu.W1": np.eye(m),
            "dpu.b1": np.full((1, m), lift),
            "dpu.W2": np.diag(scales),
            "dpu.b2": (-lift * scales)[None, :],
            "lda.W_base": np.zeros((m, config.h_e)),
            "lda.W_mu": np.zeros((config.h_e, config.z)),
            "lda.W_sigma": np.zeros((config.h_e, config.z)),
            "lda.W_dec": np.zeros((config.z, m)),
        }
        from leda.checkpoint import Checkpoint
        from leda.dpu import DomainBasis

        ckpt = Checkpoint(
            config=config,
            params=params,
            bases=[DomainBasis(domain_id="dct", V=cols)],
            epoch=0,
            final_loss={},
        )
        report = diagnostics_entropy(ckpt, "dct")
        expected = 0.5 * sum(
            np.log(2 * np.pi * np.e * (c * c / (d - 1) + 1e-9)) for c in scales
        )
        assert not report.degenerate
        assert report.value == pytest.approx(expected, abs=1e-9)

    def test_equals_the_entropy_through_trainable_parameters(self, trained):
        params = parameters(trained.params)
        vhat = trans(trained.basis_for("doma").V, params, trained.config.variant).value
        assert diagnostics_entropy(trained, "doma") == gaussian_entropy(vhat)

    def test_missing_domain(self, trained):
        with pytest.raises(DataError, match="no basis"):
            diagnostics_entropy(trained, "nope")

    def test_rank_deficient_refined_basis_flagged(self):
        # checkpoint whose projection collapses everything onto one direction
        collection = node_collection()
        config = tiny_config(epochs=0)
        ckpt = pretrain(collection, config)
        ckpt.params["dpu.W1"][:] = 0.0
        ckpt.params["dpu.W2"][:] = 0.0
        ckpt.params["dpu.b2"][:] = 1.0
        report = diagnostics_entropy(ckpt, "doma")
        assert report.degenerate
