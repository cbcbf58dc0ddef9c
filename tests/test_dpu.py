import numpy as np
import pytest

from leda import autodiff as ad
from leda.datasets import generate_sbm
from leda.dpu import align, alignment_penalties, init_basis, trans
from leda.errors import ConfigError
from leda.linalg import CsrMatrix
from leda.trainer import prepare_domains, pretrain

from oracles import central_difference_grad, direct_reconstruction, gradient_check, to_dense
from synthetic import (
    alignment_loss, bag_of_words, bow_collection, draw_dpu_params, draw_lda_params, labelled, parameters,
    tiny_config,
)


def manual_params(w1, b1, w2, b2):
    return parameters({"dpu.W1": w1, "dpu.b1": b1, "dpu.W2": w2, "dpu.b2": b2})


def random_params(k, h, m, seed=0):
    return draw_dpu_params({}, np.random.default_rng(seed), k=k, h=h, m=m)


def with_lda(params):
    """Add LDA tensors, which build_epoch_loss reads for every variant."""
    m = params["dpu.W2"].shape[1]
    draw_lda_params(params, np.random.default_rng(0), m=m, h_e=2, z=2)
    return params


def penalties(x, vhat):
    """The trainer's alignment penalties of one graph's dense features x."""
    return alignment_penalties(align(x, vhat), vhat, float(np.sum(x * x)), 1)


def random_paramset(k, h, m, seed=0):
    """The DPU tensors of random_params(k, h, m, seed), plus LDA tensors."""
    return with_lda(random_params(k, h, m, seed))


class TestInitBasis:
    def test_diagonal_matrix_gives_identity_basis(self):
        basis = init_basis(np.diag([3.0, 2.0]), k=2, seed=0, domain_id="a")
        assert np.allclose(np.abs(basis.V), np.eye(2), atol=1e-10)
        assert np.all(np.diag(basis.V) > 0)  # sign convention
        assert not basis.padded

    def test_duplicate_rows_rank_one_direction(self):
        row = np.array([3.0, 4.0])
        x = np.tile(row, (5, 1))
        basis = init_basis(x, k=1, seed=1, domain_id="a")
        assert np.allclose(basis.V[:, 0], row / 5.0, atol=1e-10)

    def test_bases_match_requested_rank_across_dims(self):
        rng = np.random.default_rng(2)
        for d in (6, 9):
            basis = init_basis(rng.standard_normal((12, d)), k=4, seed=3, domain_id="a")
            assert basis.V.shape == (d, 4)

    def test_rank_deficiency_pads_with_orthonormal_completion(self):
        rank_one = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0, 0.5, -1.0]))
        rank_zero = np.zeros((6, 4))  # every column comes from the completion
        for x in (rank_one, rank_zero):
            with pytest.warns(UserWarning, match="padding"):
                basis = init_basis(x, k=3, seed=4, domain_id="a")
            assert basis.padded
            gram = basis.V.T @ basis.V
            assert np.max(np.abs(gram - np.eye(3))) < 1e-8
            # the sign convention holds for padded columns too
            lead = basis.V[np.argmax(np.abs(basis.V), axis=0), np.arange(3)]
            assert np.all(lead >= 0)


class TestTrans:
    def test_identity_mlp_on_nonnegative_basis(self):
        k = 3
        params = manual_params(np.eye(k), np.zeros(k), np.eye(k), np.zeros(k))
        v = np.array([[0.2, 0.0, 1.0], [0.5, 0.3, 0.1]])
        assert np.array_equal(trans(v, params, "full").value, v)

    def test_constant_head(self):
        params = manual_params(np.eye(2), np.zeros(2), np.zeros((2, 4)), np.full(4, 2.5))
        out = trans(np.random.default_rng(0).standard_normal((6, 2)), params, "full")
        assert np.all(out.value == 2.5)

    def test_no_dpu_passes_the_raw_basis_through(self):
        v = np.random.default_rng(6).standard_normal((5, 3))
        assert np.array_equal(trans(v, {}, "no-dpu").value, v)

    def test_rows_transform_independently(self):
        params = random_params(k=4, h=8, m=5, seed=7)
        rng = np.random.default_rng(8)
        v = rng.standard_normal((6, 4))
        base = trans(v, params, "full").value.copy()
        perturbed = v.copy()
        perturbed[3] += rng.standard_normal(4)
        out = trans(perturbed, params, "full").value
        mask = np.ones(6, dtype=bool)
        mask[3] = False
        assert np.array_equal(out[mask], base[mask])
        assert not np.array_equal(out[3], base[3])


class TestAlign:
    def test_identity_projection(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        vhat = ad.constant(np.eye(3))
        assert np.array_equal(align(x, vhat).value, x)

    def test_zero_features(self):
        vhat = ad.constant(np.ones((3, 2)))
        assert np.all(align(np.zeros((5, 3)), vhat).value == 0)

    def test_hand_product(self):
        out = align(np.array([[1.0, 2.0]]), ad.constant(np.array([[1.0], [2.0]])))
        assert out.value[0, 0] == pytest.approx(5.0)


class TestLossAlign:
    """The alignment loss, summed over domains, as the trainer computes it."""

    def test_exact_projector_zeroes_both_terms(self):
        k = 3
        perm = np.eye(k)[:, [2, 0, 1]]  # orthonormal and nonnegative
        params = manual_params(np.eye(k), np.zeros(k), np.eye(k), np.zeros(k))
        b = np.random.default_rng(3).standard_normal((7, k))
        x = b @ perm.T  # features lie in the basis column space
        _, components = alignment_loss([(x, perm)], with_lda(params), lam=1.0)
        assert components["dpu_recon"] < 1e-20
        assert components["dpu_ortho"] < 1e-20

    def test_zero_vhat_closed_forms(self):
        m = 4
        params = manual_params(np.eye(2), np.zeros(2), np.zeros((2, m)), np.zeros(m))
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal((5, 2)) for _ in range(2)]
        vs = [rng.standard_normal((2, 2)) for _ in range(2)]
        _, components = alignment_loss(list(zip(xs, vs)), with_lda(params), lam=1.0)
        assert components["dpu_recon"] == pytest.approx(sum(np.sum(x * x) for x in xs))
        assert components["dpu_ortho"] == pytest.approx(m * 2)  # ||-I||_F^2 per domain

    def test_lambda_zero_total_equals_recon(self):
        params = random_paramset(3, 6, 3, seed=9)
        rng = np.random.default_rng(10)
        domains = [(rng.standard_normal((6, 4)), rng.standard_normal((4, 3)))]
        _, components = alignment_loss(domains, params, lam=0.0)
        assert components["total"] == components["dpu_recon"]

    def test_empty_domain_list_rejected(self):
        with pytest.raises(ConfigError):
            alignment_loss([], random_paramset(2, 2, 2), lam=1.0)


class TestInvariants:
    def test_ortho_zero_iff_orthonormal(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((9, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        _, ortho_good = penalties(x, ad.constant(q))
        assert ortho_good.value[0, 0] < 1e-20
        gram_dev = np.max(np.abs(q.T @ q - np.eye(4)))
        assert gram_dev < 1e-10

        not_ortho = q * 1.01
        _, ortho_bad = penalties(x, ad.constant(not_ortho))
        assert ortho_bad.value[0, 0] > 1e-10
        assert np.max(np.abs(not_ortho.T @ not_ortho - np.eye(4))) > 1e-10

    def test_recon_invariant_under_right_rotation(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 5))
        vhat = rng.standard_normal((5, 3))
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        recon_a, _ = penalties(x, ad.constant(vhat))
        recon_b, _ = penalties(x, ad.constant(vhat @ rot))
        assert recon_a.value[0, 0] == pytest.approx(recon_b.value[0, 0], abs=1e-8)

    def test_shared_parameters_give_bit_identical_output(self):
        params = random_params(4, 8, 4, seed=13)
        v = np.random.default_rng(14).standard_normal((7, 4))
        a = trans(v, params, "full").value
        b = trans(v.copy(), params, "full").value
        assert np.array_equal(a, b)

    def test_alignment_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        paramset = draw_dpu_params({}, rng, k=3, h=4, m=3)
        domains = [
            (rng.standard_normal((5, 4)), rng.standard_normal((4, 3))),
            (rng.standard_normal((6, 6)), rng.standard_normal((6, 3))),
        ]
        with_lda(paramset)

        def loss_fn(_):
            # dpu_only shares its nodes with paramset
            total, _ = alignment_loss(domains, paramset, lam=0.7)
            return total

        dpu_only = {name: paramset[name] for name in ("dpu.W1", "dpu.b1", "dpu.W2", "dpu.b2")}
        assert gradient_check(loss_fn, dpu_only, eps=1e-5) < 1e-6


class TestSparseAlign:
    def test_matches_dense_in_value_and_dpu_gradient(self):
        rng = np.random.default_rng(16)
        x = bag_of_words(rng, 80, 40, 0.05) * rng.uniform(0.1, 3.0, (80, 40))
        v = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        upstream = ad.constant(rng.standard_normal((80, 4)))
        results = []
        for features in (x, CsrMatrix.from_dense(x)):
            params = random_params(4, 8, 4, seed=17)
            xhat = align(features, trans(v, params, "full"))
            ad.backward(ad.reduce_sum(ad.mul(xhat, upstream)))
            results.append((xhat.value, [node.grad for _, node in params.items()]))
        (dense, dense_grads), (sparse, sparse_grads) = results
        # only the summation order of X Vhat and X^T G differs
        assert np.max(np.abs(sparse - dense)) <= 1e-13 * np.max(np.abs(dense))
        for got, want in zip(sparse_grads, dense_grads):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def recon_and_grad(x, vhat):
    """The reconstruction penalty from P = X Vhat and its tape gradient in vhat."""
    node = ad.Node(vhat, "vhat", requires_grad=True)
    recon, _ = penalties(x, node)
    ad.backward(recon)
    return recon.value[0, 0], node.grad


def rank_deficient_case(rng, n=30, d=10, rank=3, k=5):
    """Features of rank < k and an orthonormal d x k basis containing their
    row space: the reconstruction is exactly zero, all of it cancellation."""
    c = rng.standard_normal((d, rank))
    x = rng.standard_normal((n, rank)) @ c.T
    q, _ = np.linalg.qr(np.hstack([c, rng.standard_normal((d, k - rank))]))
    return x, q


def graph_level_sbm():
    """One graph-level domain of three SBM graphs, 10, 12 and 14 nodes, with
    Gaussian features of width 6."""
    graphs = tuple(
        generate_sbm(2, 5 + i, 0.7, 0.2, d=6, cluster_sep=2.0, seed=30 + i, domain_id="glv")
        for i in range(3)
    )
    return labelled(graphs, (0, 1, 0))


class TestGramForm:
    """The penalty in its Gram expansion, evaluated through P = X Vhat
    (tr(Vhat^T G Vhat) = ||P||^2 and Vhat^T G Vhat = P^T P), against the
    direct ||X - X Vhat Vhat^T||^2; bounds relative to G = X^T X."""

    @pytest.mark.parametrize("case", ["random", "near-orthonormal", "rank-deficient"])
    def test_matches_direct_form(self, case):
        rng = np.random.default_rng({"random": 21, "near-orthonormal": 22, "rank-deficient": 23}[case])
        for _ in range(5):
            if case == "rank-deficient":
                x, vhat = rank_deficient_case(rng)
            else:
                x = rng.standard_normal((40, 12)) * rng.uniform(0.1, 10.0, size=12)
                vhat = rng.standard_normal((12, 5)) / np.sqrt(12)  # unit-scale columns
                if case == "near-orthonormal":
                    vhat = np.linalg.qr(vhat)[0] + 1e-6 * rng.standard_normal((12, 5))
            gram = x.T @ x
            value, grad = recon_and_grad(x, vhat)
            want_value, want_grad = direct_reconstruction(x, vhat)
            assert abs(value - want_value) <= 1e-12 * np.trace(gram)
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.linalg.norm(gram, 2)

    def test_rank_deficient_case_is_at_convergence(self):
        x, vhat = rank_deficient_case(np.random.default_rng(24))
        value, _ = direct_reconstruction(x, vhat)
        assert value <= 1e-20 * np.trace(x.T @ x)

    def test_direct_oracle_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        x, vhat = rng.standard_normal((7, 4)), rng.standard_normal((4, 3))
        fd = central_difference_grad(lambda v: direct_reconstruction(x, v)[0], vhat)
        assert np.allclose(direct_reconstruction(x, vhat)[1], fd, rtol=1e-6, atol=1e-6)

    def test_graph_level_domain_equals_mean_of_member_penalties(self):
        collection = graph_level_sbm()
        graphs = collection.graphs
        (domain,) = prepare_domains(collection, tiny_config())
        assert domain.sizes == (10, 12, 14)
        vhat = trans(domain.basis.V, random_params(4, 8, 4, seed=31), "full")
        recon, ortho = alignment_penalties(align(domain.x, vhat), vhat, domain.x_sq, len(domain.sizes))
        bounds = np.cumsum((0,) + domain.sizes)
        direct = [direct_reconstruction(domain.x[lo:hi], vhat.value)[0]
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(domain.x, np.concatenate([g.features for g in graphs]))
        mean_gram_trace = domain.x_sq / len(domain.sizes)
        assert abs(recon.value[0, 0] - np.mean(direct)) <= 1e-12 * mean_gram_trace
        vtv = vhat.value.T @ vhat.value
        assert ortho.value[0, 0] == pytest.approx(np.sum((vtv - np.eye(4)) ** 2), rel=1e-12)

    @pytest.mark.parametrize("kind, width", [("bag-of-words", 32), ("graph-level", 5)])
    def test_matches_direct_form_near_convergence(self, kind, width):
        """After 300 no-lda epochs at k = m = width, the penalty is within 10%
        of the rank-m optimum and a small share of tr(G) (0.15-0.18 and
        0.076), so most of the P form's terms cancel; the bounds are those
        at initialization, relative to the members' mean G."""
        collection = bow_collection(seed=8) if kind == "bag-of-words" else graph_level_sbm()
        config = tiny_config(variant="no-lda", epochs=300, k=width, m=width, h=2 * width)
        params = parameters(pretrain(collection, config).params)
        for domain in prepare_domains(collection, config):
            vhat = ad.Node(trans(domain.basis.V, params, "no-lda").value, "vhat", requires_grad=True)
            members = len(domain.sizes)
            recon, _ = alignment_penalties(align(domain.x, vhat), vhat, domain.x_sq, members)
            ad.backward(recon)
            x = to_dense(domain.x) if isinstance(domain.x, CsrMatrix) else domain.x
            bounds = np.cumsum((0,) + domain.sizes)
            direct = [direct_reconstruction(x[lo:hi], vhat.value) for lo, hi in zip(bounds[:-1], bounds[1:])]
            want_value = np.mean([value for value, _ in direct])
            want_grad = np.mean([grad for _, grad in direct], axis=0)
            gram = x.T @ x / members
            optimum = np.sum(np.linalg.svd(x, compute_uv=False)[width:] ** 2) / members
            assert want_value <= 1.1 * optimum and want_value <= 0.2 * np.trace(gram)
            assert abs(recon.value[0, 0] - want_value) <= 1e-12 * np.trace(gram)
            assert np.max(np.abs(vhat.grad - want_grad)) <= 1e-12 * np.linalg.norm(gram, 2)
