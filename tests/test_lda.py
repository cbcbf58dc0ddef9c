import numpy as np
import pytest

from leda import autodiff as ad
from leda import lda, trainer
from leda.dpu import align, trans
from leda.errors import ConfigError
from leda.lda import (
    base_layer,
    decode,
    encode,
    kl_to_prior,
    loss_total_domain,
    propagate_extra,
)
from leda.linalg import CsrMatrix, _SymmetricCsr, normalize_adjacency
from leda.optim import AdamWState, adamw_step
from leda.trainer import (
    DROPOUT_RATE,
    build_epoch_loss,
    infonce_loss,
    prepare_domains,
    pretrain,
)

from oracles import composed_forms, gcn_direct_order, gradient_check, to_dense
from synthetic import draw_lda_params, node_collection, parameters, tiny_config, zero_grads


def random_lda(m, h_e, z, seed=0):
    return draw_lda_params({}, np.random.default_rng(seed), m=m, h_e=h_e, z=z)


def ring_propagation(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return normalize_adjacency(CsrMatrix.from_edges(n, edges))


class TestEncode:
    def test_zero_features_give_zero_posterior(self):
        params = random_lda(m=3, h_e=4, z=2)
        mu, log_sigma = encode(ad.constant(np.zeros((5, 3))), ring_propagation(5), params)
        assert np.all(mu.value == 0)
        assert np.all(log_sigma.value == 0)

    def test_single_node_reduces_to_stacked_linear_maps(self):
        params = random_lda(m=3, h_e=4, z=2, seed=1)
        s = CsrMatrix.from_dense([[1.0]])
        x = np.random.default_rng(2).standard_normal((1, 3))
        mu, log_sigma = encode(ad.constant(x), s, params)
        hidden = np.maximum(x @ params["lda.W_base"].value, 0.0)
        assert np.allclose(mu.value, hidden @ params["lda.W_mu"].value)
        assert np.allclose(log_sigma.value, hidden @ params["lda.W_sigma"].value)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n = 5
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        adj = CsrMatrix.from_edges(n, edges)
        s = normalize_adjacency(adj)
        x = rng.standard_normal((n, 3))
        params = random_lda(m=3, h_e=6, z=4, seed=4)

        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        adj_p = CsrMatrix.from_dense(p @ to_dense(adj) @ p.T)
        s_p = normalize_adjacency(adj_p)

        mu, log_sigma = encode(ad.constant(x), s, params)
        mu_p, log_sigma_p = encode(ad.constant(p @ x), s_p, params)
        # permuted float sums reassociate, so exactness is up to roundoff
        assert np.allclose(mu_p.value, p @ mu.value, atol=1e-12)
        assert np.allclose(log_sigma_p.value, p @ log_sigma.value, atol=1e-12)

    def test_shared_parameters_bit_identical_across_domains(self):
        params = random_lda(m=2, h_e=3, z=2, seed=5)
        s = ring_propagation(4)
        x = np.random.default_rng(6).standard_normal((4, 2))
        mu_a, log_sigma_a = encode(ad.constant(x), s, params)
        mu_b, log_sigma_b = encode(ad.constant(x.copy()), s, params)
        assert np.array_equal(mu_a.value, mu_b.value)
        assert np.array_equal(log_sigma_a.value, log_sigma_b.value)


class TestReparameterize:
    def test_vanishing_noise_returns_mu(self):
        mu_val = np.random.default_rng(0).standard_normal((4, 3))
        mu = ad.constant(mu_val)
        log_sigma = ad.constant(np.full((4, 3), -30.0))
        eps = np.random.default_rng(1).standard_normal((4, 3))
        z = ad.reparameterize(mu, log_sigma, eps)
        assert np.max(np.abs(z.value - mu_val)) < 1e-12

    def test_same_seed_identical(self):
        mu = ad.constant(np.zeros((3, 2)))
        ls = ad.constant(np.zeros((3, 2)))
        a = ad.reparameterize(mu, ls, np.random.default_rng(9).standard_normal((3, 2)))
        b = ad.reparameterize(mu, ls, np.random.default_rng(9).standard_normal((3, 2)))
        assert np.array_equal(a.value, b.value)

    def test_standard_normal_statistics(self):
        mu = ad.constant(np.zeros((10_000, 1)))
        ls = ad.constant(np.zeros((10_000, 1)))
        eps = np.random.default_rng(3).standard_normal((10_000, 1))
        z = ad.reparameterize(mu, ls, eps).value
        assert abs(z.mean()) < 0.05
        assert abs(z.var() - 1.0) < 0.05

    def test_gradient_flows_through_mu_and_log_sigma(self):
        mu = ad.parameter(np.zeros((2, 2)), "mu")
        ls = ad.parameter(np.zeros((2, 2)), "ls")
        eps = np.random.default_rng(4).standard_normal((2, 2))
        z = ad.reparameterize(mu, ls, eps)
        ad.backward(ad.frobenius_sq(z))
        assert mu.grad is not None and np.any(mu.grad != 0) is not None
        assert ls.grad is not None


class TestDecode:
    def test_zero_latent_decodes_to_zero(self):
        params = random_lda(m=3, h_e=4, z=2, seed=7)
        out = decode(ad.constant(np.zeros((5, 2))), ring_propagation(5), params)
        assert np.all(out.value == 0)

    def test_single_node_identity_decoder(self):
        lda_params = {"lda.W_dec": ad.constant(np.eye(2))}  # decode reads W_dec alone
        z = np.array([[0.3, -1.2]])
        out = decode(ad.constant(z), CsrMatrix.from_dense([[1.0]]), lda_params)
        assert np.array_equal(out.value, z)

    def test_linear_in_latent(self):
        params = random_lda(m=3, h_e=4, z=3, seed=8)
        s = ring_propagation(6)
        z = np.random.default_rng(9).standard_normal((6, 3))
        once = decode(ad.constant(z), s, params).value
        doubled = decode(ad.constant(2.0 * z), s, params).value
        assert np.array_equal(doubled, 2.0 * once)  # power-of-two scaling is exact


class TestKl:
    def test_zero_at_prior(self):
        kl = kl_to_prior(ad.constant(np.zeros((4, 3))), ad.constant(np.zeros((4, 3))), (4,))
        assert kl.value[0, 0] == 0.0

    def test_scalar_closed_form(self):
        kl = kl_to_prior(ad.constant([[1.0]]), ad.constant([[0.0]]), (1,))
        assert kl.value[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_over_random_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            mu = ad.constant(rng.standard_normal((1, 2)) * 3)
            ls = ad.constant(rng.standard_normal((1, 2)) * 2)
            assert kl_to_prior(mu, ls, (1,)).value[0, 0] >= 0.0

    def test_zero_iff_prior(self):
        kl = kl_to_prior(ad.constant([[1e-4, 0.0]]), ad.constant([[0.0, 0.0]]), (1,))
        assert kl.value[0, 0] > 1e-10

    def test_extreme_log_sigma_is_clamped(self):
        kl = kl_to_prior(ad.constant([[0.0]]), ad.constant([[1000.0]]), (1,))
        assert np.isfinite(kl.value[0, 0])


class TestLossTotalDomain:
    def test_perfect_reconstruction_and_prior_posterior(self):
        params = parameters({"lda.W_base": np.zeros((3, 4)), "lda.W_mu": np.zeros((4, 2)),
                             "lda.W_sigma": np.zeros((4, 2)), "lda.W_dec": np.zeros((2, 3))})
        eps = np.random.default_rng(0).standard_normal((5, 2))
        loss, recon, kl = loss_total_domain(
            ad.constant(np.zeros((5, 3))), ring_propagation(5), params, beta_kl=1.0, eps=eps, sizes=(5,)
        )
        assert loss.value[0, 0] == 0.0
        assert recon.value[0, 0] == 0.0
        assert kl.value[0, 0] == 0.0

    def test_beta_zero_loss_equals_recon(self):
        params = random_lda(m=3, h_e=4, z=2, seed=11)
        x = ad.constant(np.random.default_rng(12).standard_normal((6, 3)))
        eps = np.random.default_rng(1).standard_normal((6, 2))
        loss, recon, _ = loss_total_domain(
            x, ring_propagation(6), params, beta_kl=0.0, eps=eps, sizes=(6,)
        )
        assert loss.value[0, 0] == recon.value[0, 0]

    def test_gradient_matches_finite_differences(self):
        paramset = random_lda(m=3, h_e=4, z=3, seed=13)
        x = ad.constant(np.random.default_rng(14).standard_normal((8, 3)))
        s = ring_propagation(8)
        eps = np.random.default_rng(15).standard_normal((8, 3))

        def loss_fn(ps):
            loss, _, _ = loss_total_domain(x, s, ps, beta_kl=1.0, eps=eps, sizes=(8,))
            return loss

        assert gradient_check(loss_fn, paramset, eps=1e-5) < 1e-4

    def test_training_reduces_reconstruction(self):
        params = random_lda(m=4, h_e=8, z=4, seed=16)
        x = ad.constant(np.random.default_rng(17).standard_normal((10, 4)))
        s = ring_propagation(10)
        state = AdamWState.for_params(params, lr=0.01, weight_decay=0.0)
        first = None
        for epoch in range(200):
            zero_grads(params)
            eps = np.random.default_rng([18, epoch]).standard_normal((10, 4))
            loss, recon, _ = loss_total_domain(x, s, params, beta_kl=1.0, eps=eps, sizes=(10,))
            if first is None:
                first = recon.value[0, 0]
            ad.backward(loss)
            adamw_step(params, state)
        eps = np.random.default_rng(999).standard_normal((10, 4))
        final_recon = loss_total_domain(x, s, params, beta_kl=1.0, eps=eps, sizes=(10,))[1]
        assert final_recon.value[0, 0] < first


class TestPropagateExtra:
    def test_zero_steps_identity(self):
        z = np.random.default_rng(18).standard_normal((4, 2))
        assert propagate_extra(z, ring_propagation(4), 0) is z

    def test_two_node_averaging(self):
        s = CsrMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
        z = np.array([[2.0], [4.0]])
        out = propagate_extra(z, s, 1)
        assert np.allclose(out, [[3.0], [3.0]])

    def test_rows_contract_on_connected_non_bipartite_graph(self):
        # triangle plus pendant: connected, odd cycle
        adj = CsrMatrix.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        s = normalize_adjacency(adj)
        z = np.random.default_rng(19).standard_normal((4, 3))

        def spread(mat):
            diffs = mat[:, None, :] - mat[None, :, :]
            return np.max(np.linalg.norm(diffs, axis=2))

        spreads = [spread(propagate_extra(z, s, t)) for t in (0, 4, 8, 16)]
        assert spreads[1] < spreads[0]
        assert spreads[2] < spreads[1]
        assert spreads[3] < spreads[2]

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigError):
            propagate_extra(np.zeros((2, 2)), ring_propagation(2), -1)


# m < z < h_e, so every width the graph operator multiplies names its operand
ORDER_DIMS = dict(m=4, z=6, h_e=8)
ORDER_RTOL = 1e-12


def order_collection():
    return node_collection(seed=1, blocks=3, nodes_per_block=20)


@pytest.fixture(scope="module", params=["init", "trained"])
def order_state(request):
    """(prepared, parameter arrays, config) per variant: at initialization,
    or after 300 epochs, when the total loss moves by under 1% over the last
    30 of them (near convergence). The no-dpu total is the sampled bound
    alone and scatters by about 3% from epoch to epoch, so there the means
    of the last two 30-epoch windows must agree to 3%."""
    states = {}
    for variant in ("full", "no-dpu", "no-lda", "dpu-cl"):
        epochs = 0 if request.param == "init" else 300
        config = tiny_config(variant=variant, epochs=epochs, **ORDER_DIMS)
        ckpt = pretrain(order_collection(), config)
        if epochs:
            trace = np.array([step["total"] for step in ckpt.loss_trace])
            if variant == "no-dpu":
                last = trace[-30:].mean()
                assert abs(last - trace[-60:-30].mean()) < 0.03 * abs(last)
            else:
                assert abs(trace[-1] - trace[-30]) < 0.01 * abs(trace[-1])
        states[variant] = (prepare_domains(order_collection(), config), ckpt.params, config)
    return states


def paramset_of(arrays) -> dict[str, ad.Node]:
    return parameters({name: value.copy() for name, value in arrays.items()})


def values_and_grads(fn, arrays):
    """fn(params) -> {name: node} with a scalar under "loss"; returns the
    values of every node and the gradient of every parameter."""
    params = paramset_of(arrays)
    nodes = fn(params)
    ad.backward(nodes["loss"])
    values = {name: node.value.copy() for name, node in nodes.items()}
    return values, {name: node.grad.copy() for name, node in params.items()}


def assert_matches_oracle(fn, arrays, oracle=gcn_direct_order, rtol=ORDER_RTOL):
    """Values and gradients of fn agree with those computed inside the
    `oracle` context, to rtol relative to each array's largest entry;
    rtol=0 asks for bitwise equality, signed zeros included."""
    got_values, got_grads = values_and_grads(fn, arrays)
    with oracle():
        want_values, want_grads = values_and_grads(fn, arrays)
    for kind, got, want in (("value", got_values, want_values), ("gradient", got_grads, want_grads)):
        assert got.keys() == want.keys()
        for name in want:
            if rtol == 0:
                assert got[name].shape == want[name].shape, (kind, name)
                assert got[name].tobytes() == want[name].tobytes(), (kind, name)
                continue
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(got[name] - want[name])) <= rtol * scale, (kind, name)


def aligned(prepared, params, variant):
    """(domain, Xhat array) for every domain; the tests add Xhat to the
    parameters, so its gradient is checked too."""
    out = []
    for domain in prepared:
        vhat = trans(domain.basis.V, paramset_of(params), variant)
        out.append((domain, align(domain.x, vhat).value))
    return out


def epoch_loss_with_xhat(prepared, config, monkeypatch):
    """(fn, Xhat arrays) for `build_epoch_loss` at epoch 7: fn adds a zero
    parameter to each X̂ the trainer aligns, in call order, so that the
    gradient reaching X̂ is returned with the parameters'. Every variant
    aligns each domain once per epoch, so every probe is read."""
    probes = {f"xhat{i}": np.zeros((domain.x.shape[0], config.m))
              for i, domain in enumerate(prepared)}
    current = {}

    def align_spy(x, vhat):
        name = f"xhat{current['calls']}"
        current["calls"] += 1
        return ad.add(align(x, vhat), current["params"][name])

    monkeypatch.setattr(trainer, "align", align_spy)

    def fn(ps):
        current.update(params=ps, calls=0)
        loss, components = build_epoch_loss(prepared, ps, config, epoch=7)
        return {"loss": loss, **{k: ad.constant([[v]]) for k, v in components.items()}}

    return fn, probes


class TestGraphOperatorOrder:
    """The LDA layers apply S at width m; the old wide-side order is the
    oracle, to 1e-12 relative in values and gradients."""

    def test_loss_total_domain(self, order_state):
        prepared, params, config = order_state["full"]
        for i, (domain, xhat) in enumerate(aligned(prepared, params, "full")):
            eps = np.random.default_rng([2, i]).standard_normal((xhat.shape[0], config.z))

            def fn(ps, domain=domain, eps=eps):
                loss, recon, kl = loss_total_domain(ps["xhat"], domain.s, ps, config.beta_kl, eps, domain.sizes)
                return {"loss": loss, "recon": recon, "kl": kl}

            assert_matches_oracle(fn, {**params, "xhat": xhat})

    def test_dpu_cl_views(self, order_state):
        prepared, params, config = order_state["dpu-cl"]
        for i, (domain, xhat) in enumerate(aligned(prepared, params, "dpu-cl")):
            mask = (np.random.default_rng([3, i]).random(xhat.shape) >= DROPOUT_RATE) * 1.0

            def fn(ps, domain=domain, mask=mask):
                anchor = base_layer(ps["xhat"], domain.s, ps)
                positive = base_layer(ad.mul(ps["xhat"], ad.constant(mask)), domain.s, ps)
                loss = infonce_loss([(anchor, positive)], config.tau)
                return {"loss": loss, "anchor": anchor, "positive": positive}

            assert_matches_oracle(fn, {**params, "xhat": xhat})

    @pytest.mark.parametrize("variant", ["full", "dpu-cl"])
    def test_epoch_loss(self, order_state, variant):
        prepared, params, config = order_state[variant]

        def fn(ps):
            loss, components = build_epoch_loss(prepared, ps, config, epoch=7)
            return {"loss": loss, **{k: ad.constant([[v]]) for k, v in components.items()}}

        assert_matches_oracle(fn, params)

    @pytest.mark.parametrize("variant, widths", [("full", ("m", "h_e", "m")), ("dpu-cl", ("m", "m"))])
    def test_graph_operator_widths(self, monkeypatch, variant, widths):
        """The widths S multiplies per domain in one epoch of `pretrain`,
        forward and backward; the features are dense, so every square
        operand is a graph operator."""
        seen = {"matmul_dense": [], "t_matmul_dense": []}
        # S's type takes its transpose product from `matmul_dense` as it was
        # defined, so its own `t_matmul_dense` is spied on as well
        for cls, method in ((CsrMatrix, "matmul_dense"), (CsrMatrix, "t_matmul_dense"),
                            (_SymmetricCsr, "t_matmul_dense")):
            original, calls = getattr(cls, method), seen[method]

            def spy(self, x, original=original, calls=calls):
                if self.rows == self.cols:
                    calls.append(x.shape[1])
                return original(self, x)

            monkeypatch.setattr(cls, method, spy)
        collection = order_collection()
        pretrain(collection, tiny_config(variant=variant, epochs=1, **ORDER_DIMS))
        want = sorted([ORDER_DIMS[w] for w in widths] * len(collection.graphs))
        assert sorted(seen["matmul_dense"]) == want
        assert sorted(seen["t_matmul_dense"]) == want


class TestFusedPrimitives:
    """`ad.reparameterize` and `ad.gaussian_kl` are bitwise the compositions
    they replace, and `ad.rowwise_cosine` agrees with its composition to
    1e-12 relative, in values and gradients, on the graph-operator-order
    SBM pair at initialization and near convergence."""

    def posteriors(self, order_state):
        """(mu, log_sigma) arrays of every domain under `full`, and once more
        with log_sigma stretched past the clamp, so that the mask cuts."""
        prepared, params, config = order_state["full"]
        out = []
        for domain, xhat in aligned(prepared, params, "full"):
            posterior = encode(ad.constant(xhat), domain.s, paramset_of(params))
            mu, log_sigma = (node.value for node in posterior)
            out.append((mu, log_sigma))
            out.append((mu, log_sigma * (1.5 * lda.LOG_SIGMA_CLAMP / np.max(np.abs(log_sigma)))))
        assert np.any(np.abs(out[-1][1]) > lda.LOG_SIGMA_CLAMP)
        return out

    def test_reparameterize_is_bitwise_the_composition(self, order_state):
        for i, (mu, log_sigma) in enumerate(self.posteriors(order_state)):
            rng = np.random.default_rng([4, i])
            eps, probe = rng.standard_normal(mu.shape), rng.standard_normal(mu.shape)

            def fn(ps, eps=eps, probe=probe):
                z = ad.reparameterize(ps["mu"], ps["log_sigma"], eps)
                return {"loss": ad.reduce_sum(ad.mul(z, ad.constant(probe))), "z": z}

            assert_matches_oracle(fn, {"mu": mu, "log_sigma": log_sigma}, composed_forms, rtol=0)

    def test_gaussian_kl_is_bitwise_the_composition(self, order_state):
        for mu, log_sigma in self.posteriors(order_state):

            def fn(ps):
                return {"loss": ad.scale(lda.kl_to_prior(ps["mu"], ps["log_sigma"], ps["mu"].shape[:1]), 0.7)}

            assert_matches_oracle(fn, {"mu": mu, "log_sigma": log_sigma}, composed_forms, rtol=0)

    @pytest.mark.parametrize("sizes", [(6,), (2, 4), (1, 2, 3)])
    def test_gaussian_kl_at_the_clamp_and_at_signed_zeros_is_bitwise_the_composition(self, sizes):
        """log_sigma exactly at +-clamp (the gradient still passes), one ulp
        and far beyond it (it does not), and at +-0.0; several member graphs
        weight each row by a column, as a graph-level domain does."""
        clamp = lda.LOG_SIGMA_CLAMP
        edges = [clamp, -clamp, np.nextafter(clamp, np.inf), np.nextafter(-clamp, -np.inf),
                 1.5 * clamp, -1e3, 0.0, -0.0]
        rng = np.random.default_rng(len(sizes))
        log_sigma = rng.standard_normal((6, 4))
        log_sigma.flat[rng.permutation(log_sigma.size)[:2 * len(edges)]] = edges * 2
        mu = rng.standard_normal((6, 4))
        mu[0, :2], mu[1, :2] = 0.0, -0.0
        assert np.sum(np.signbit(log_sigma) & (log_sigma == 0.0)) == 2

        def fn(ps):
            return {"loss": ad.scale(lda.kl_to_prior(ps["mu"], ps["log_sigma"], sizes), 0.7)}

        assert_matches_oracle(fn, {"mu": mu, "log_sigma": log_sigma}, composed_forms, rtol=0)

    def test_loss_total_domain_is_bitwise_the_composition(self, order_state):
        prepared, params, config = order_state["full"]
        for i, (domain, xhat) in enumerate(aligned(prepared, params, "full")):
            eps = np.random.default_rng([2, i]).standard_normal((xhat.shape[0], config.z))

            def fn(ps, domain=domain, eps=eps):
                loss, recon, kl = loss_total_domain(ps["xhat"], domain.s, ps, config.beta_kl, eps, domain.sizes)
                return {"loss": loss, "recon": recon, "kl": kl}

            assert_matches_oracle(fn, {**params, "xhat": xhat}, composed_forms, rtol=0)

    def test_rowwise_cosine_under_infonce(self, order_state):
        """Both cosines of InfoNCE: against the positive view (same shape)
        and against the mean embedding (one broadcast row)."""
        prepared, params, config = order_state["dpu-cl"]
        arrays = {}
        for i, (domain, xhat) in enumerate(aligned(prepared, params, "dpu-cl")):
            mask = (np.random.default_rng([3, i]).random(xhat.shape) >= DROPOUT_RATE) * 1.0
            ps = paramset_of(params)
            arrays[f"anchor{i}"] = base_layer(ad.constant(xhat), domain.s, ps).value
            arrays[f"positive{i}"] = base_layer(ad.constant(xhat * mask), domain.s, ps).value
        count = len(arrays) // 2

        def fn(ps):
            views = [(ps[f"anchor{i}"], ps[f"positive{i}"]) for i in range(count)]
            mean = ad.constant(np.vstack([a.value for a, _ in views]).mean(axis=0, keepdims=True))
            out = {"loss": infonce_loss(views, config.tau)}
            for i, (anchor, positive) in enumerate(views):
                out[f"cos_pos{i}"] = ad.rowwise_cosine(anchor, positive, trainer.COSINE_EPS)
                out[f"cos_mean{i}"] = ad.rowwise_cosine(anchor, mean, trainer.COSINE_EPS)
            return out

        assert_matches_oracle(fn, arrays, composed_forms)

    @pytest.mark.parametrize("variant", ["full", "no-dpu", "no-lda", "dpu-cl"])
    def test_epoch_loss(self, order_state, variant, monkeypatch):
        """Every parameter and every X̂; bitwise except under dpu-cl, whose
        cosine gradients reach X̂ summed in another order."""
        prepared, params, config = order_state[variant]
        fn, probes = epoch_loss_with_xhat(prepared, config, monkeypatch)
        rtol = ORDER_RTOL if variant == "dpu-cl" else 0
        assert_matches_oracle(fn, {**params, **probes}, composed_forms, rtol=rtol)
