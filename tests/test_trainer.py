import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leda import autodiff as ad
from leda import datasets, evaluate, linalg, trainer
from leda.checkpoint import save_checkpoint
from leda.config import VARIANTS
from leda.datasets import DomainGraph, GraphCollection, generate_sbm, load_dataset, save_dataset
from leda.dpu import init_basis
from leda.evaluate import embed, pooled_graph_embeddings
from leda.errors import ConfigError, DataError, NumericError
from leda.linalg import CsrMatrix, normalize_adjacency
from leda.trainer import (
    TrainConfig,
    build_epoch_loss,
    infonce_loss,
    init_paramset,
    prepare_domains,
    pretrain,
)

from oracles import (assert_same_operand, composed_infonce_from_scores, gradient_check, member_loop_epoch_loss,
                     registered_paramset, to_dense)
from synthetic import (bow_collection, graph_level_collection, labelled, node_collection, parameters,
                       tiny_config, zero_grads)
from test_autodiff import tape_entries


def arrays_of(params):
    return {name: node.value for name, node in params.items()}


def checkpoints_equal(a, b):
    if sorted(a.params) != sorted(b.params):
        return False
    for name in a.params:
        if not np.array_equal(a.params[name], b.params[name]):
            return False
    if len(a.bases) != len(b.bases):
        return False
    for x, y in zip(a.bases, b.bases):
        if x.domain_id != y.domain_id or not np.array_equal(x.V, y.V):
            return False
    return True


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.seed == 66666
        assert config.variant == "full"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"epochs": 3, "bogus": 1})

    def test_round_trip(self):
        config = tiny_config(variant="no-lda")
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            TrainConfig(variant="nope")

    def test_no_dpu_requires_m_equals_k(self):
        with pytest.raises(ConfigError, match="m == k"):
            TrainConfig(variant="no-dpu", k=4, m=8)


class TestInitParamset:
    @pytest.mark.parametrize(
        "dims",
        [
            {},
            dict(k=3, h=5, m=7, h_e=2, z=6),
            dict(k=1, h=1, m=1, h_e=1, z=1),
            dict(k=1, h=4, m=3, h_e=5, z=2),
            dict(k=6, h=2, m=1, h_e=3, z=1),
        ],
        ids=["tiny", "mixed", "all-1", "k-1", "m-1"],
    )
    def test_matches_register_draws_bitwise(self, dims):
        """Walking param_shapes draws what the per-group register functions
        drew, also where k=1 or m=1 makes a weight 1 x n like a bias."""
        config = tiny_config(seed=4242, **dims)
        made = arrays_of(init_paramset(config))
        oracle = arrays_of(registered_paramset(config))
        assert list(made) == list(oracle)
        for name in oracle:
            assert made[name].shape == oracle[name].shape
            assert made[name].tobytes() == oracle[name].tobytes(), name


class TestPretrain:
    def test_zero_epochs_returns_seeded_checkpoint(self):
        collection = node_collection()
        config = tiny_config(epochs=0)
        ckpt = pretrain(collection, config)
        assert ckpt.loss_trace == []
        assert ckpt.epoch == 0
        seeded = arrays_of(init_paramset(config))
        for name, arr in seeded.items():
            assert np.array_equal(ckpt.params[name], arr)

    def test_same_seed_bit_identical(self):
        """Twice on one collection (the second call reuses its prepared
        domains) and once on a freshly built, equal collection."""
        collection = node_collection()
        config = tiny_config(epochs=15)
        first = pretrain(collection, config)
        assert checkpoints_equal(first, pretrain(collection, config))
        assert checkpoints_equal(first, pretrain(node_collection(), config))

    def test_copy_on_first_accumulate_keeps_checkpoint_bytes(self, tmp_path, monkeypatch):
        collection, config = node_collection(), tiny_config(epochs=5)
        save_checkpoint(pretrain(collection, config), tmp_path / "copy.ckpt")

        def zero_then_add(entry, delta, made=False):
            if entry.grad is None:
                entry.grad = np.zeros(delta.shape)
            entry.grad += delta

        monkeypatch.setattr(ad.Entry, "accumulate", zero_then_add)
        save_checkpoint(pretrain(collection, config), tmp_path / "add.ckpt")
        assert (tmp_path / "copy.ckpt").read_bytes() == (tmp_path / "add.ckpt").read_bytes()

    @pytest.mark.parametrize("variant", ["full", "no-dpu", "no-lda", "dpu-cl"])
    def test_one_tape_alive(self, monkeypatch, variant):
        """The previous epoch's loss node, and with it its tape, is gone
        when the next epoch's graph is built."""
        losses = []

        def build_spy(*args, **kwargs):
            assert all(ref() is None for ref in losses), "an earlier epoch's loss is alive"
            loss, components = build_epoch_loss(*args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss, components

        monkeypatch.setattr(trainer, "build_epoch_loss", build_spy)
        two_phase = variant != "no-dpu"
        pretrain(node_collection(), tiny_config(variant=variant, epochs=3, two_phase=two_phase,
                                                two_phase_epochs=2))
        assert len(losses) == (5 if two_phase else 3)

    def test_domain_order_invariance(self):
        collection = node_collection()
        reversed_collection = GraphCollection(
            graphs=tuple(reversed(collection.graphs)), task_kind="node-level"
        )
        config = tiny_config(epochs=15)
        assert checkpoints_equal(pretrain(collection, config), pretrain(reversed_collection, config))

    def test_loss_descends_on_synthetic_domains(self):
        ckpt = pretrain(node_collection(), tiny_config(epochs=300))
        assert ckpt.loss_trace[-1]["total"] < ckpt.loss_trace[0]["total"]

    def test_two_phase_prepends_alignment_epochs(self):
        ckpt = pretrain(
            node_collection(), tiny_config(epochs=5, two_phase=True, two_phase_epochs=7)
        )
        assert len(ckpt.loss_trace) == 12
        assert "lda_recon" not in ckpt.loss_trace[0]
        assert "lda_recon" in ckpt.loss_trace[-1]

    def test_domain_members_of_different_widths_are_a_data_error(self):
        graphs = tuple(
            generate_sbm(1, 6, 0.9, 0.0, d=d, cluster_sep=1.0, seed=d, domain_id="mixed")
            for d in (5, 7)
        )
        collection = labelled(graphs, (0, 1))
        with pytest.raises(DataError, match=r"'mixed': members disagree on feature dim \[5, 7\]"):
            pretrain(collection, tiny_config(k=2, m=2))

    def test_an_empty_collection_is_a_data_error(self):
        with pytest.raises(DataError, match="^collection has no domains$"):
            pretrain(GraphCollection(graphs=(), task_kind="node-level"), tiny_config(epochs=1))

    def test_non_finite_loss_aborts_with_context(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="epoch"):
                pretrain(node_collection(), tiny_config(epochs=6, lr=1e15))


class TestSecondMomentOverflow:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_moment_raises_after_the_last_epoch(self, monkeypatch):
        step = trainer.adamw_step
        steps = []

        def huge_gradient_once(params, state):
            if state.step == 1:
                params["dpu.W1"].grad[0, 0] = 1e160
            steps.append(state.step)
            step(params, state)

        monkeypatch.setattr(trainer, "adamw_step", huge_gradient_once)
        with pytest.raises(NumericError, match=r"^training \(full\): AdamW second moment of 'dpu.W1'"):
            pretrain(node_collection(), tiny_config(epochs=4))
        assert steps == [0, 1, 2, 3]


class TestVariants:
    def test_trace_components_per_variant(self):
        collection = node_collection()
        traces = {
            variant: pretrain(collection, tiny_config(epochs=3, variant=variant)).loss_trace[-1]
            for variant in ("full", "no-dpu", "no-lda", "dpu-cl")
        }
        assert set(traces["full"]) == {"total", "dpu_recon", "dpu_ortho", "lda_recon", "kl"}
        assert set(traces["no-dpu"]) == {"total", "lda_recon", "kl"}
        assert set(traces["no-lda"]) == {"total", "dpu_recon", "dpu_ortho"}
        assert set(traces["dpu-cl"]) == {"total", "dpu_recon", "dpu_ortho", "infonce"}

    def test_no_lda_leaves_lda_parameters_at_init(self):
        collection = node_collection()
        config = tiny_config(epochs=10, variant="no-lda")
        ckpt = pretrain(collection, config)
        seeded = arrays_of(init_paramset(config))
        for name in ("lda.W_base", "lda.W_mu", "lda.W_sigma", "lda.W_dec"):
            assert np.array_equal(ckpt.params[name], seeded[name])
        assert not np.array_equal(ckpt.params["dpu.W1"], seeded["dpu.W1"])

    def test_no_dpu_leaves_dpu_parameters_at_init(self):
        collection = node_collection()
        config = tiny_config(epochs=10, variant="no-dpu")
        ckpt = pretrain(collection, config)
        seeded = arrays_of(init_paramset(config))
        for name in ("dpu.W1", "dpu.b1", "dpu.W2", "dpu.b2"):
            assert np.array_equal(ckpt.params[name], seeded[name])

    def test_one_epoch_changes_exactly_the_trained_tensors(self):
        dpu = {"dpu.W1", "dpu.b1", "dpu.W2", "dpu.b2"}
        lda = {"lda.W_base", "lda.W_mu", "lda.W_sigma", "lda.W_dec"}
        trained = {
            "full": dpu | lda, "no-dpu": lda, "no-lda": dpu, "dpu-cl": dpu | {"lda.W_base"},
        }
        collection = node_collection()
        for variant, names in trained.items():
            config = tiny_config(epochs=1, variant=variant)
            seeded = arrays_of(init_paramset(config))
            ckpt = pretrain(collection, config)
            changed = {n for n in seeded if not np.array_equal(ckpt.params[n], seeded[n])}
            assert changed == names, variant

    @pytest.mark.parametrize("variant", ["full", "dpu-cl"])
    def test_first_two_phase_phase_trains_as_no_lda(self, variant):
        collection = node_collection()
        phased = pretrain(
            collection,
            tiny_config(epochs=0, variant=variant, mu_align=0.5, two_phase=True, two_phase_epochs=6),
        )
        no_lda_config = tiny_config(epochs=6, variant="no-lda", mu_align=0.5)
        # on the same collection (its prepared domains reused) and on a fresh one
        for no_lda in (pretrain(collection, no_lda_config), pretrain(node_collection(), no_lda_config)):
            for name in ("dpu.W1", "dpu.b1", "dpu.W2", "dpu.b2"):
                assert phased.params[name].tobytes() == no_lda.params[name].tobytes()
            assert phased.loss_trace == no_lda.loss_trace


class TestInfoNCE:
    def test_equal_similarities_give_log_two(self):
        # identical anchors, positives, and mean: every similarity is 1
        anchor = ad.constant(np.ones((5, 3)))
        positive = ad.constant(np.ones((5, 3)))
        loss = infonce_loss([(anchor, positive)], tau=1.0)
        assert loss.value[0, 0] == pytest.approx(np.log(2.0), abs=1e-9)

    def test_saturated_scores_drive_loss_to_zero(self):
        s_pos = ad.constant(np.full((4, 1), 1.0))
        s_neg = ad.constant(np.full((4, 1), -1.0))
        per_anchor = ad.softplus(ad.scale(ad.sub(s_neg, s_pos), 1.0 / 0.1))
        assert np.all(per_anchor.value < 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8),
           tau=st.sampled_from([0.05, 0.5, 1.0]))
    @example(scores=[(1.0, -1.0)], tau=0.05)
    def test_one_softplus_node_is_the_loss_against_one_negative(self, scores, tau):
        """The per-anchor column is within 1 ulp of log1p(exp(u)) at
        u = (s- - s+)/tau, and within 1e-14 of the composed max-shift chain,
        which loses the tail to cancellation: at s+ = 1, s- = -1 and tau 0.05
        it gives 0, where the loss is 4.2e-18."""
        s_pos, s_neg = (ad.constant(np.array(column)[:, None]) for column in zip(*scores))
        got = ad.softplus(ad.scale(ad.sub(s_neg, s_pos), 1.0 / tau)).value
        u = (s_neg.value - s_pos.value) * (1.0 / tau)
        exact = np.array([[v + math.log1p(math.exp(-v)) if v > 0 else math.log1p(math.exp(v))]
                          for v in u[:, 0]])
        assert np.all(np.abs(got - exact) <= np.spacing(exact))
        assert np.max(np.abs(got - composed_infonce_from_scores(s_pos, s_neg, tau).value)) <= 1e-14

    def test_zero_temperature_rejected(self):
        with pytest.raises(ConfigError):
            infonce_loss([(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 2))))], tau=0.0)

    def test_no_views_rejected(self):
        with pytest.raises(ConfigError, match="^infonce_loss needs at least one domain$"):
            infonce_loss([], tau=0.5)

    def test_gradient_flows_into_anchor_parameters(self):
        anchor = ad.parameter(np.random.default_rng(0).standard_normal((6, 4)), "emb")
        positive = ad.constant(np.random.default_rng(1).standard_normal((6, 4)))
        loss = infonce_loss([(anchor, positive)], tau=0.5)
        ad.backward(loss)
        assert np.any(anchor.grad != 0)


def joint_loss_gradient_error(collection):
    config = tiny_config(epochs=1, k=4, h=4, m=4, h_e=4, z=3)
    prepared = prepare_domains(collection, config)
    paramset = init_paramset(config)

    def loss_fn(ps):
        # the noise draw is fixed by (seed, epoch, domain, member)
        loss, _ = build_epoch_loss(prepared, ps, config, epoch=0)
        return loss

    return prepared, gradient_check(loss_fn, paramset, eps=1e-5)


class TestJointLossGradient:
    def test_full_joint_loss_matches_finite_differences(self):
        collection = node_collection(seed=3, dims=(6, 7), blocks=2, nodes_per_block=4)
        _, worst = joint_loss_gradient_error(collection)
        assert worst < 1e-4

    def test_full_joint_loss_with_sparse_features_matches_finite_differences(self):
        # one connected word-node whole (see bow_collection): a zero basis row
        # would put its hidden units on the ReLU kink (zero biases at init),
        # where central differences fail on the dense path alike
        collection = bow_collection(seed=3, dims=(50, 60))
        prepared, worst = joint_loss_gradient_error(collection)
        assert all(isinstance(d.x, CsrMatrix) for d in prepared)
        assert worst < 1e-4


class TestSparseFeatures:
    def test_bag_of_words_domain_holds_csr_features_and_their_squared_norm(self):
        collection = bow_collection(seed=4)
        for graph, domain in zip(collection.graphs, prepare_domains(collection, tiny_config())):
            assert domain.sizes == (graph.num_nodes,)
            assert isinstance(domain.x, CsrMatrix)
            assert domain.x is graph.features
            # binary features: every partial sum is an exact integer
            assert domain.x_sq == np.sum(to_dense(graph.features) ** 2)

    def test_final_losses_match_the_dense_path(self, monkeypatch):
        import leda.datasets

        for variant in ("full", "no-dpu", "no-lda", "dpu-cl"):
            config = tiny_config(epochs=5, variant=variant)
            sparse = pretrain(bow_collection(seed=5), config).final_loss
            # graphs made while the rule keeps every table dense hold dense features
            with monkeypatch.context() as patch:
                patch.setattr(leda.datasets, "feature_operand", lambda x: x)
                collection = bow_collection(seed=5)
            assert not any(isinstance(g.features, CsrMatrix) for g in collection.graphs)
            dense = pretrain(collection, config).final_loss
            for key, want in dense.items():
                assert abs(sparse[key] - want) <= 1e-12 * abs(want), (variant, key)


GRAPH_LEVEL_RTOL = 1e-12


def assert_close(got, want, what):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= GRAPH_LEVEL_RTOL * scale, what


class TestBlockDiagonalDomain:
    """A graph-level domain trains and embeds as one block-diagonal graph;
    the member-by-member loop is the reference, to 1e-12 relative."""

    def test_domain_is_one_graph_over_its_members(self):
        collection = graph_level_collection()
        ga, gb = prepare_domains(collection, tiny_config())
        assert (ga.domain_id, ga.sizes) == ("ga", (5, 1, 9, 3, 2, 7))
        assert (gb.domain_id, gb.sizes) == ("gb", (4, 11, 2, 6, 3))
        members = [g for g in collection.graphs if g.domain_id == "gb"]
        assert np.array_equal(gb.x, np.concatenate([g.features for g in members]))
        assert gb.s.shape == (26, 26)

    def test_lone_graph_features_pass_through_uncopied(self):
        collection = node_collection()
        for graph, domain in zip(collection.graphs, prepare_domains(collection, tiny_config())):
            assert domain.sizes == (graph.num_nodes,)
            assert domain.x is graph.features

    @pytest.mark.parametrize("epochs", [0, 50], ids=["init", "trained"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_epoch_loss_matches_the_member_loop(self, variant, epochs):
        """Loss, every component and every parameter gradient, at
        initialization and after 50 epochs, with that epoch's noise."""
        collection = graph_level_collection()
        config = tiny_config(variant=variant, epochs=epochs)
        arrays = pretrain(collection, config).params
        prepared = prepare_domains(collection, config)
        results = []
        for build in (build_epoch_loss, lambda *args: member_loop_epoch_loss(collection, *args)):
            params = parameters({name: value.copy() for name, value in arrays.items()})
            loss, components = build(prepared, params, config, epochs)
            ad.backward(loss)
            results.append((components, {name: node.grad for name, node in params.items()}))
        (got, got_grads), (want, want_grads) = results
        assert got.keys() == want.keys()
        for key in want:
            assert_close(got[key], want[key], key)
        for name in want_grads:
            assert_close(got_grads[name], want_grads[name], name)
        assert any(np.any(grad != 0) for grad in want_grads.values())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pooled_embeddings_match_per_graph_embed(self, variant):
        collection = graph_level_collection()
        ckpt = pretrain(collection, tiny_config(variant=variant, epochs=5))
        want = np.stack([embed(g, ckpt, t=1).E.mean(axis=0) for g in collection.graphs])
        assert_close(pooled_graph_embeddings(collection, ckpt, t=1), want, variant)

    def test_unseen_domain_pools_under_one_basis_from_its_stacked_features(self):
        collection = graph_level_collection()
        ckpt = pretrain(node_collection(), tiny_config(epochs=5))
        bases = [
            init_basis(np.concatenate([g.features for g in collection.by_domain(d)]),
                       ckpt.config.k, seed=ckpt.config.seed, domain_id=d)
            for d in ("ga", "gb")
        ]
        covered = replace(ckpt, bases=ckpt.bases + bases)
        want = np.stack([embed(g, covered, t=1).E.mean(axis=0) for g in collection.graphs])
        assert_close(pooled_graph_embeddings(collection, ckpt, t=1), want, "unseen")


COLLECTIONS = {
    "dense": node_collection,
    "bag-of-words": lambda: bow_collection(seed=4),
    "graph-level": graph_level_collection,
}
# a valid value other than tiny_config's for every TrainConfig field but k and seed
OTHER_FIELD_VALUES = {
    "epochs": 7, "lr": 0.5, "beta1": 0.5, "beta2": 0.5, "adam_eps": 1e-3, "weight_decay": 0.5,
    "h": 9, "m": 3, "lam": 0.5, "h_e": 9, "z": 5, "beta_kl": 0.5, "mu_align": 0.5,
    "variant": "no-lda", "tau": 0.1, "two_phase": True, "two_phase_epochs": 3,
}


def count_calls(monkeypatch, owner, name, counts):
    """Count the calls of owner.<name> in counts[name], passing them through."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    counts[name] = 0
    monkeypatch.setattr(owner, name, spy)


def is_read_only(operand):
    arrays = ((operand.row_offsets, operand.col_indices, operand.values)
              if isinstance(operand, CsrMatrix) else (operand,))
    return not any(a.flags.writeable for a in arrays)


class TestPreparedOnce:
    """A collection prepares each domain's operands once, and each domain's
    basis once per (k, seed)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}
        for name in ("normalize_adjacency", "init_basis", "feature_operand"):
            count_calls(monkeypatch, trainer, name, counts)
        return counts

    @pytest.mark.parametrize("kind", COLLECTIONS)
    def test_each_domain_is_prepared_once_across_variants_and_two_phase(self, counts, kind):
        collection = COLLECTIONS[kind]()
        domains = len(collection.domain_ids())
        for variant in VARIANTS:
            pretrain(collection, tiny_config(variant=variant, epochs=1))
        pretrain(collection, tiny_config(epochs=1, two_phase=True, two_phase_epochs=1))
        # a lone graph's features are its operand; a graph-level stack is ruled on once
        stacks = domains if kind == "graph-level" else 0
        assert counts == {"normalize_adjacency": domains, "init_basis": domains,
                          "feature_operand": stacks}

    @pytest.mark.parametrize("change", [{"k": 3}, {"seed": 7}, {"k": 3, "seed": 7}])
    @pytest.mark.parametrize("kind", COLLECTIONS)
    def test_new_k_or_seed_recomputes_only_the_basis(self, counts, kind, change):
        collection = COLLECTIONS[kind]()
        first = prepare_domains(collection, tiny_config())
        before = dict(counts)
        again = prepare_domains(collection, tiny_config(**change))
        assert counts["init_basis"] - before["init_basis"] == len(first)
        assert {name: counts[name] - before[name] for name in counts if name != "init_basis"} == {
            "normalize_adjacency": 0, "feature_operand": 0}
        for old, new in zip(first, again):
            assert new.s is old.s and new.x is old.x and new.x_sq == old.x_sq
            assert new.sizes == old.sizes and new.basis is not old.basis

    def test_every_other_config_field_hits_the_memo(self, counts):
        assert set(OTHER_FIELD_VALUES) | {"k", "seed"} == {f.name for f in fields(TrainConfig)}
        collection = node_collection()
        first = prepare_domains(collection, tiny_config())
        before = dict(counts)
        for name, value in OTHER_FIELD_VALUES.items():
            again = prepare_domains(collection, tiny_config(**{name: value}))
            assert len(again) == len(first) and all(a is b for a, b in zip(again, first)), name
        assert counts == before

    @pytest.mark.parametrize("kind", COLLECTIONS)
    def test_cached_arrays_are_read_only(self, kind):
        collection = COLLECTIONS[kind]()
        prepare_domains(collection, tiny_config())
        for domain in prepare_domains(collection, tiny_config()):
            for operand in (domain.x, domain.s, domain.basis.V):
                assert is_read_only(operand), domain.domain_id
            with pytest.raises(ValueError, match="read-only"):
                domain.basis.V[0, 0] = 1.0

    def test_graph_level_norm_and_basis_are_those_of_the_stacked_features(self):
        collection = graph_level_collection()
        ga, _ = prepare_domains(collection, tiny_config())
        x = np.concatenate([g.features for g in collection.by_domain("ga")])
        assert ga.sizes == tuple(g.num_nodes for g in collection.by_domain("ga"))
        assert ga.x_sq == np.sum(x * x)
        want = init_basis(x, 4, seed=tiny_config().seed, domain_id="ga")
        assert ga.basis.V.tobytes() == want.V.tobytes()

    @pytest.mark.parametrize("kind", COLLECTIONS)
    def test_k_too_large_raises_on_every_call_before_any_svd(self, monkeypatch, kind):
        counts = {}
        count_calls(monkeypatch, trainer, "init_basis", counts)
        collection = COLLECTIONS[kind]()
        too_large = tiny_config(k=500, m=500)
        for _ in range(2):
            with pytest.raises(ConfigError, match="k=500 exceeds min"):
                prepare_domains(collection, too_large)
        assert counts["init_basis"] == 0
        prepare_domains(collection, tiny_config())
        with pytest.raises(ConfigError, match="k=500 exceeds min"):
            pretrain(collection, too_large)
        assert counts["init_basis"] == len(collection.domain_ids())

    @pytest.mark.parametrize("kind", COLLECTIONS)
    def test_checkpoints_after_a_memo_hit_match_a_cold_run(self, tmp_path, kind):
        warm = COLLECTIONS[kind]()
        prepare_domains(warm, tiny_config())
        configs = [tiny_config(variant=v, epochs=3) for v in VARIANTS]
        configs.append(tiny_config(epochs=2, two_phase=True, two_phase_epochs=2))
        for i, config in enumerate(configs):
            save_checkpoint(pretrain(warm, config), tmp_path / f"warm{i}.ckpt")
            save_checkpoint(pretrain(COLLECTIONS[kind](), config), tmp_path / f"cold{i}.ckpt")
            assert (tmp_path / f"warm{i}.ckpt").read_bytes() == (tmp_path / f"cold{i}.ckpt").read_bytes()

    def test_pooling_after_pretrain_reads_the_prepared_operands(self, counts, monkeypatch):
        collection = graph_level_collection()
        ckpt = pretrain(collection, tiny_config(epochs=1))
        before, in_evaluate = dict(counts), {}
        count_calls(monkeypatch, evaluate, "normalize_adjacency", in_evaluate)
        pooled = pooled_graph_embeddings(collection, ckpt)
        assert counts == before and in_evaluate == {"normalize_adjacency": 0}
        fresh = pooled_graph_embeddings(graph_level_collection(), ckpt)
        assert pooled.tobytes() == fresh.tobytes()

    def test_each_graph_is_checked_once_through_pretrain_and_pooling(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, CsrMatrix, "is_symmetric", counts)
        collection = graph_level_collection()
        assert counts["is_symmetric"] == len(collection.graphs)
        pooled_graph_embeddings(collection, pretrain(collection, tiny_config(epochs=1)))
        assert counts["is_symmetric"] == len(collection.graphs)


class TestDomainOperands:
    @staticmethod
    def collection(sizes, widths=None):
        graphs = [generate_sbm(1, n, 0.6, 0.0, d=d, cluster_sep=1.0, seed=n, domain_id="u")
                  for n, d in zip(sizes, widths or [3] * len(sizes))]
        return labelled(graphs, (0,) * len(graphs))

    def test_lone_graph_features_are_used_uncopied(self):
        collection = self.collection([5])
        domain = trainer.domain_operands(collection, "u")
        assert domain.x is collection.graphs[0].features and domain.basis is None
        assert trainer.domain_operands(collection, "u") is domain

    def test_normalized_union_is_the_members_normalized_on_the_diagonal(self):
        collection = self.collection([6, 1, 9, 2, 4])
        graphs = collection.graphs
        domain = trainer.domain_operands(collection, "u")
        assert domain.sizes == (6, 1, 9, 2, 4)
        assert np.array_equal(domain.x, np.concatenate([g.features for g in graphs]))
        got = domain.s
        parts = [normalize_adjacency(g.adjacency) for g in graphs]
        starts = np.cumsum([0] + [g.num_nodes for g in graphs])
        nnz = np.cumsum([0] + [part.nnz for part in parts])
        assert got.shape == (starts[-1], starts[-1])
        assert got.values.tobytes() == np.concatenate([part.values for part in parts]).tobytes()
        assert np.array_equal(got.col_indices,
                              np.concatenate([p.col_indices + lo for p, lo in zip(parts, starts)]))
        assert np.array_equal(got.row_offsets, np.concatenate(
            [[0]] + [p.row_offsets[1:] + lo for p, lo in zip(parts, nnz)]))

    @staticmethod
    def straddling(densities, n=20, d=30) -> GraphCollection:
        """One graph-level domain of path graphs whose binary features hold
        exactly `densities` of their entries, one member each."""
        rng = np.random.default_rng(8)
        graphs = []
        for density in densities:
            x = np.zeros(n * d)
            x[rng.choice(n * d, round(density * n * d), replace=False)] = 1.0
            path = CsrMatrix.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            graphs.append(DomainGraph("bow", x.reshape(n, d), path, graph_label=len(graphs) % 2))
        return GraphCollection(tuple(graphs), "graph-level")

    @pytest.mark.parametrize("densities, stacked", [((0.02, 0.10), np.ndarray), ((0.02, 0.06), CsrMatrix)])
    def test_a_stack_straddling_the_sparse_rule_trains_as_its_dense_members_did(
            self, monkeypatch, tmp_path, densities, stacked):
        collection = self.straddling(densities)
        assert [isinstance(g.features, CsrMatrix) for g in collection.graphs] == [True, False]
        # with the rule off every member holds its dense table, as every graph
        # did when only training ruled, on the stack
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "feature_operand", lambda x: x)
            dense = self.straddling(densities)
        domain = trainer.domain_operands(collection, "bow")
        assert isinstance(domain.x, stacked)
        assert_same_operand(trainer.domain_operands(dense, "bow").x, domain.x)
        reloaded = load_dataset(save_dataset(collection, tmp_path / "saved"))
        written = []
        for source in (dense, collection, reloaded):
            save_checkpoint(pretrain(source, tiny_config(epochs=2)), tmp_path / "m.ckpt")
            written.append((tmp_path / "m.ckpt").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_members_of_different_widths_are_a_data_error(self):
        collection = self.collection([3, 4], widths=[3, 5])
        with pytest.raises(DataError, match=r"^domain 'u': members disagree on feature dim \[3, 5\]$"):
            trainer.domain_operands(collection, "u")


class TestEpochTape:
    """What one epoch's tape holds: the arrays its locals read, until
    `backward` has walked it."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_backward_leaves_no_share_and_no_intermediate_gradient(self, variant):
        config = tiny_config(variant=variant)
        params = init_paramset(config)
        zero_grads(params)
        loss, _ = build_epoch_loss(prepare_domains(bow_collection(), config), params, config, 0)
        entries = tape_entries(loss.entry)
        ad.backward(loss)
        assert all(not entry.shares for entry in entries)
        leaves = {id(node.entry) for node in params.values()} | {id(loss.entry)}
        assert all(entry.grad is None for entry in entries if id(entry) not in leaves)

    def test_a_dpu_cl_epoch_scores_each_domain_with_one_softplus_node(self):
        config = tiny_config(variant="dpu-cl")
        prepared = prepare_domains(node_collection(), config)
        loss, _ = build_epoch_loss(prepared, init_paramset(config), config, 0)
        names = [entry.name for entry in tape_entries(loss.entry)]
        assert len(prepared) > 1 and names.count("softplus") == len(prepared)
        assert not {"exp", "log", "lse_shift"} & set(names)

    def test_a_full_epoch_holds_only_what_its_locals_read(self):
        """Traced by tracemalloc on one dense domain, the loss of one `full`
        epoch holds the arrays its local gradients read, and at most 1 KiB
        per tape entry for the entries, their shares and closures."""
        n, d = 400, 50
        k, h, m, h_e, z = 8, 16, 16, 64, 32
        graph = generate_sbm(4, 100, p_in=0.05, p_out=0.005, d=d, cluster_sep=3.0, seed=3, domain_id="one")
        config = tiny_config(k=k, h=h, m=m, h_e=h_e, z=z)
        prepared = prepare_domains(GraphCollection((graph,), "node-level"), config)
        assert isinstance(prepared[0].x, np.ndarray) and config.mu_align == 1.0
        params = init_paramset(config)
        zero_grads(params)
        build_epoch_loss(prepared, params, config, 0)  # first calls fill numpy's own caches
        read = {  # bytes; the parameters, X, V and S are held outside the tape
            "dpu relu mask": d * h,
            "dpu hidden layer, read by W2's local": 8 * d * h,
            "Vhat, read by Vhat^T Vhat": 8 * d * m,
            "Xhat, read by P^T P and ||Xhat||^2": 8 * n * m,
            "P^T P and Vhat^T Vhat, read by their product; Vhat^T Vhat - I": 8 * 3 * m * m,
            "S Xhat, read by W_base's local": 8 * n * m,
            "lda relu mask": n * h_e,
            "propagated base, read by W_mu's and W_sigma's locals": 8 * n * h_e,
            "mu, log_sigma, the noise and the sample z": 8 * 4 * n * z,
            "Xhat - decoded, read by the reconstruction": 8 * n * m,
        }
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, _ = build_epoch_loss(prepared, params, config, 1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= sum(read.values()) + 1024 * len(tape_entries(loss.entry))

    @pytest.mark.parametrize("variant", ["full", "no-dpu", "dpu-cl"])
    def test_an_epochs_transient_bytes_stay_within_its_largest_step(self, variant, monkeypatch):
        """Traced by tracemalloc on the dense domain above (n=400, h_e=64,
        z=32, here with k = m = 8), the bytes one epoch's loss needs at its
        peak beyond those it holds after forward. Blocks are 16 KiB here, so
        that the fused primitives work 7 blocks of an n x z array and 13 of
        an n x h_e one; at the default size this domain is one block.

        - `full` and `no-dpu`: forward peaks in `gaussian_kl`, whose one
          n x z buffer (the sum) and one block of 2c come on top of what the
          domain's frame still holds and the finished loss does not: nothing
          under full, and the constant X̂ under no-dpu, which the caller's
          frame holds too. The decoder's n x m output is not bound, so it is
          gone by then. The transient stays under 8 * nz + 16 KiB + 8 KiB =
          126,976 bytes under full and 8 * (nz + nm) + 16 KiB + 8 KiB =
          152,576 under no-dpu; a second n x z buffer, as the whole-array
          2c was, would break both.
        - `dpu-cl`: backward peaks in the anchor-positive `rowwise_cosine`,
          whose locals build the anchor's and the positive's n x h_e
          gradients, each subtracting its second term a block of rows at a
          time, while the first stays as the anchor's gradient: two arrays
          and a block. Its n x 1 columns take less than half an n x h_e
          array more, so the peak stays under the held bytes plus
          2.5 * 8 * n * h_e + 16 KiB = 528,384 bytes. An n x h_e temporary
          for a second term, as the whole-array locals built, or a delta
          left alive beside the next local would add a full one."""
        block = 1 << 14
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", block)
        n, d = 400, 50
        k, h, m, h_e, z = 8, 16, 8, 64, 32
        graph = generate_sbm(4, 100, p_in=0.05, p_out=0.005, d=d, cluster_sep=3.0, seed=3, domain_id="one")
        config = tiny_config(k=k, h=h, m=m, h_e=h_e, z=z, variant=variant)
        prepared = prepare_domains(GraphCollection((graph,), "node-level"), config)
        assert isinstance(prepared[0].x, np.ndarray)
        params = init_paramset(config)
        zero_grads(params)
        ad.backward(build_epoch_loss(prepared, params, config, 0)[0])  # first calls fill numpy's own caches
        zero_grads(params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, _ = build_epoch_loss(prepared, params, config, 1)
            held, forward_peak = (traced - before for traced in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            ad.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        if variant == "dpu-cl":
            assert backward_peak - held < 2.5 * 8 * n * h_e + block, (backward_peak, held)
        else:
            frame_arrays = 1 if variant == "no-dpu" else 0  # n x m arrays that only a frame holds
            assert forward_peak - held < 8 * (n * z + frame_arrays * n * m) + block + 8192, (forward_peak, held)
