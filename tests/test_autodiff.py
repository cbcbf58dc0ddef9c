import tracemalloc
import warnings
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leda import autodiff as ad
from leda import lda, linalg
from leda.errors import NumericError, ShapeError
from leda.linalg import CsrMatrix, normalize_adjacency
from leda.trainer import COSINE_EPS

from oracles import (
    central_difference_grad,
    composed_kl_to_prior,
    composed_reparameterize,
    composed_rowwise_cosine,
    gradient_check,
    whole_array_gaussian_kl,
    whole_array_reparameterize,
    whole_array_rowwise_cosine,
)


def make_params(**arrays):
    return {name: ad.parameter(value, name) for name, value in arrays.items()}


def scalar_probe(node, rng):
    """Random linear functional of a node's output, as a 1x1 loss."""
    weights = ad.constant(rng.standard_normal(node.shape), "probe")
    return ad.reduce_sum(ad.mul(node, weights))


class TestForward:
    def test_relu_values_and_gradient(self):
        nodes = make_params(x=np.array([[-1.0, 2.0]]))
        out = ad.relu(nodes["x"])
        assert np.array_equal(out.value, [[0.0, 2.0]])
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(nodes["x"].grad, [[0.0, 1.0]])

    def test_frobenius_sq(self):
        out = ad.frobenius_sq(ad.constant([[3.0, 4.0]]))
        assert out.value[0, 0] == 25.0

    def test_row_weights_scale_each_row(self):
        x = ad.constant([[3.0, 4.0], [1.0, 0.0]])
        assert ad.frobenius_sq(x, 0.5).value[0, 0] == 13.0
        assert ad.frobenius_sq(x, np.array([[0.5], [2.0]])).value[0, 0] == 14.5
        mu, zero = ad.constant([[2.0], [1.0]]), ad.constant(np.zeros((2, 1)))
        # KL of N(mu, 1) to N(0, 1) is mu^2 / 2 per entry
        assert ad.gaussian_kl(mu, zero, 10.0, 0.5).value[0, 0] == 1.25
        assert ad.gaussian_kl(mu, zero, 10.0, np.array([[1.0], [3.0]])).value[0, 0] == 3.5

    def test_shape_mismatch_names_operands(self):
        a = ad.constant(np.zeros((2, 3)), "lhs")
        b = ad.constant(np.zeros((2, 3)), "rhs")
        with pytest.raises(ShapeError, match="lhs.*rhs"):
            ad.matmul(a, b)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("other", [(4, 1), (1, 3), (1, 1)])
    def test_elementwise_ops_refuse_operands_of_two_shapes(self, op, other):
        a = ad.parameter(np.ones((4, 3)), "lhs")
        b = ad.parameter(np.ones(other), "rhs")
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError) as refused:
                getattr(ad, op)(x, y)
            described = f"'{x.name}' {x.shape}, '{y.name}' {y.shape}"
            assert str(refused.value) == f"{op}: operands differ in shape, {described}"

    def test_fused_primitives_check_shapes(self):
        a = ad.constant(np.zeros((4, 3)), "a")
        with pytest.raises(ShapeError, match="noise"):
            ad.reparameterize(a, a, np.zeros((4, 2)))
        with pytest.raises(ShapeError, match="'b'"):
            ad.gaussian_kl(a, ad.constant(np.zeros((3, 4)), "b"), 10.0, 0.25)
        with pytest.raises(ShapeError, match="one row"):
            ad.rowwise_cosine(a, ad.constant(np.zeros((4, 1)), "b"), 1e-12)

    def test_sparse_matmul_and_reduce_sum_check_shapes(self):
        x = ad.constant(np.zeros((4, 3)), "x")
        with pytest.raises(ShapeError, match=r"^sparse_matmul: sparse 3x3 vs 'x' \(4, 3\)$"):
            ad.sparse_matmul(CsrMatrix.from_dense(np.eye(3)), x)
        with pytest.raises(ShapeError, match="^reduce_sum: axis must be None, 0 or 1, got 2$"):
            ad.reduce_sum(x, axis=2)

    def test_a_value_of_three_dimensions_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="^node 'const' must hold a 2-D value, got ndim=3$"):
                ad.constant(np.zeros((2, 2, 2)))

    def test_add_row_bias_shape_check(self):
        x = ad.constant(np.zeros((4, 3)), "x")
        b = ad.constant(np.zeros((1, 2)), "b")
        with pytest.raises(ShapeError, match="b"):
            ad.add_row_bias(x, b)


class TestParameter:
    def test_a_trainable_2d_leaf_with_a_zero_gradient(self):
        for value, shape in ((3.0, (1, 1)), ([1, 2], (1, 2)), (np.ones((3, 2)), (3, 2))):
            node = ad.parameter(value, "p")
            assert node.shape == shape and node.value.dtype == np.float64
            assert node.requires_grad and node.name == "p"
            assert np.array_equal(node.grad, np.zeros(shape))

    def test_backward_adds_into_the_gradient(self):
        w = ad.parameter(np.array([[1.0, -2.0], [3.0, 0.5]]), "W")
        ad.backward(ad.frobenius_sq(w))
        assert np.array_equal(w.grad, 2.0 * w.value)
        ad.backward(ad.reduce_sum(w))
        assert np.array_equal(w.grad, 2.0 * w.value + 1.0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        nodes = make_params(W=np.arange(4.0).reshape(2, 2))
        ad.backward(ad.reduce_sum(nodes["W"]))
        assert np.array_equal(nodes["W"].grad, np.ones((2, 2)))

    def test_frobenius_gradient_is_2w(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        nodes = make_params(W=w)
        ad.backward(ad.frobenius_sq(nodes["W"]))
        assert np.allclose(nodes["W"].grad, 2 * w)

    def test_unused_parameter_gets_zero_gradient(self):
        nodes = make_params(used=np.ones((2, 2)), unused=np.ones((3, 3)))
        for node in nodes.values():
            node.grad = np.zeros_like(node.value)
        ad.backward(ad.reduce_sum(nodes["used"]))
        assert np.array_equal(nodes["unused"].grad, np.zeros((3, 3)))

    def test_backward_twice_rejected(self):
        nodes = make_params(W=np.ones((2, 2)))
        loss = ad.reduce_sum(nodes["W"])
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_loss_rejected_by_name(self, value):
        w = ad.parameter(np.array([[1.0, value]]), "W")
        loss = ad.reduce_sum(w)
        with pytest.raises(NumericError, match="^backward: loss 'reduce_sum' is non-finite$"):
            ad.backward(loss)
        assert loss.grad is None and np.array_equal(w.grad, np.zeros((1, 2)))

    def test_a_loss_needing_no_gradient_sets_none_and_runs_once(self):
        loss = ad.reduce_sum(ad.constant(np.ones((2, 2))))
        assert not loss.requires_grad
        ad.backward(loss)
        assert loss.grad is None
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)

    def test_non_scalar_loss_rejected(self):
        nodes = make_params(W=np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(nodes["W"])

    def test_first_accumulate_copies_a_broadcast_view(self):
        source = np.array([[1.0, 2.0]])
        view = np.broadcast_to(source, (3, 2))  # read-only, as reduce_sum passes it
        node = ad.Node(np.zeros((3, 2)), "n", requires_grad=True)
        node.entry.accumulate(view)
        assert not np.shares_memory(node.grad, source)
        node.entry.accumulate(view)
        assert np.array_equal(node.grad, np.tile([[2.0, 4.0]], (3, 1)))
        assert np.array_equal(source, [[1.0, 2.0]])

    def test_first_gradient_is_c_ordered(self):
        # a transposed delta, and x as both operands of x^T x, whose two
        # products downstream would otherwise round as another layout does
        node = ad.Node(np.zeros((3, 2)), "n", requires_grad=True)
        node.entry.accumulate(np.arange(6.0).reshape(2, 3).T)
        assert node.grad.flags.c_contiguous
        x = ad.Node(np.random.default_rng(1).standard_normal((5, 3)), "x", requires_grad=True)
        ad.backward(ad.reduce_sum(ad.matmul(x, x, transpose_a=True)))
        assert x.grad.flags.c_contiguous
        assert np.allclose(x.grad, 2.0 * x.value.sum(axis=1, keepdims=True) * np.ones((1, 3)))

    def test_a_first_delta_made_by_a_local_is_kept(self):
        made = np.ones((2, 2))
        entry = ad.Entry("n", requires_grad=True)
        entry.accumulate(made, made=True)
        assert entry.grad is made
        fortran = np.asfortranarray(np.ones((3, 2)))
        entry = ad.Entry("n", requires_grad=True)
        entry.accumulate(fortran, made=True)
        assert entry.grad.flags.c_contiguous and not np.shares_memory(entry.grad, fortran)

    def test_a_passed_or_broadcast_gradient_is_copied_before_it_is_added_to(self):
        """add hands its own gradient to both operands, and reduce_sum a view
        of its own; a and b each get a second share too, which is added in
        place, so neither may keep what it was handed."""
        x = ad.parameter([[1.0]], "x")
        a, b = ad.scale(x, 2.0), ad.scale(x, 3.0)
        loss = ad.add(ad.add(ad.reduce_sum(a), ad.add(a, b)), ad.add(ad.reduce_sum(b), ad.mul(b, b)))
        ad.backward(loss)
        # loss = 2x + (2x + 3x) + 3x + 9x^2
        assert x.grad[0, 0] == 28.0

    def test_a_delta_shared_by_two_nodes_stays_untouched(self):
        delta = np.ones((2, 2))
        a = ad.Node(np.zeros((2, 2)), "a", requires_grad=True)
        b = ad.Node(np.zeros((2, 2)), "b", requires_grad=True)
        a.entry.accumulate(delta)
        b.entry.accumulate(delta)
        a.entry.accumulate(delta)
        assert np.array_equal(delta, np.ones((2, 2)))
        assert np.array_equal(b.grad, np.ones((2, 2)))
        assert np.array_equal(a.grad, np.full((2, 2), 2.0))

    def test_repeat_run_is_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        w_val = rng.standard_normal((3, 2))

        def run():
            nodes = make_params(W=w_val)
            s = CsrMatrix.from_dense(np.eye(4))
            out = ad.relu(ad.sparse_matmul(s, ad.matmul(ad.constant(x), nodes["W"])))
            ad.backward(ad.frobenius_sq(out))
            return nodes["W"].grad.copy()

        assert np.array_equal(run(), run())

    def test_matmul_gradient_vs_central_differences(self):
        rng = np.random.default_rng(12)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal((4, 2))
        probe = rng.standard_normal((3, 2))

        nodes = make_params(A=a_val, B=b_val)
        loss = ad.reduce_sum(ad.mul(ad.matmul(nodes["A"], nodes["B"]), ad.constant(probe)))
        ad.backward(loss)

        for name, val in (("A", a_val), ("B", b_val)):
            other = b_val if name == "A" else a_val

            def loss_of(theta, _name=name):
                m = theta @ other if _name == "A" else other @ theta
                return float(np.sum(m * probe))

            fd = central_difference_grad(loss_of, val)
            rel = np.abs(nodes[name].grad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-6


def _random_case(rng, case):
    """Build (loss builder over flattened inputs, initial values) for one primitive."""
    n, m, k = rng.integers(2, 5, size=3)
    if case == "matmul":
        shapes = [(n, k), (k, m)]
        build = lambda xs: ad.matmul(xs[0], xs[1])
    elif case == "matmul_ta":
        shapes = [(k, n), (k, m)]
        build = lambda xs: ad.matmul(xs[0], xs[1], transpose_a=True)
    elif case == "sparse":
        dense = (rng.random((n, n)) < 0.5) * rng.standard_normal((n, n))
        s = CsrMatrix.from_dense(dense)
        shapes = [(n, m)]
        build = lambda xs: ad.sparse_matmul(s, xs[0])
    elif case == "relu":
        shapes = [(n, m)]
        build = lambda xs: ad.relu(xs[0])
    elif case == "add_row_bias":
        shapes = [(n, m), (1, m)]
        build = lambda xs: ad.add_row_bias(xs[0], xs[1])
    elif case == "add":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.add(xs[0], xs[1])
    elif case == "sub":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.sub(xs[0], xs[1])
    elif case == "mul":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.mul(xs[0], xs[1])
    elif case == "div":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.div(xs[0], xs[1])
    elif case == "exp":
        shapes = [(n, m)]
        build = lambda xs: ad.exp(xs[0])
    elif case == "log":
        shapes = [(n, m)]
        build = lambda xs: ad.log(xs[0])
    elif case == "sqrt":
        shapes = [(n, m)]
        build = lambda xs: ad.sqrt(xs[0])
    elif case == "square":
        shapes = [(n, m)]
        build = lambda xs: ad.square(xs[0])
    elif case == "scale":
        shapes = [(n, m)]
        build = lambda xs: ad.scale(xs[0], 1.7)
    elif case == "clip":
        shapes = [(n, m)]
        build = lambda xs: ad.clip(xs[0], -2.0, 2.0)
    elif case == "reduce_sum_rows":
        shapes = [(n, m)]
        build = lambda xs: ad.reduce_sum(xs[0], axis=1)
    elif case == "reduce_mean_cols":
        shapes = [(n, m)]
        build = lambda xs: ad.reduce_mean(xs[0], axis=0)
    elif case == "frobenius_sq":
        shapes = [(n, m)]
        build = lambda xs: ad.frobenius_sq(xs[0])
    elif case == "frobenius_sq_weighted":
        shapes = [(n, m)]
        weight = rng.random((n, 1)) + 0.1
        build = lambda xs: ad.frobenius_sq(xs[0], weight)
    elif case == "reparameterize":
        shapes = [(n, m), (n, m)]
        eps = rng.standard_normal((n, m))
        build = lambda xs: ad.reparameterize(xs[0], xs[1], eps)
    elif case == "gaussian_kl":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.gaussian_kl(xs[0], xs[1], KL_CASE_CLAMP, 1.0 / n)
    elif case == "gaussian_kl_weighted":
        shapes = [(n, m), (n, m)]
        weight = rng.random((n, 1)) + 0.1
        build = lambda xs: ad.gaussian_kl(xs[0], xs[1], KL_CASE_CLAMP, weight)
    elif case == "rowwise_cosine":
        shapes = [(n, m), (n, m)]
        build = lambda xs: ad.rowwise_cosine(xs[0], xs[1], 1e-12)
    elif case == "rowwise_cosine_broadcast":
        shapes = [(n, m), (1, m)]
        build = lambda xs: ad.rowwise_cosine(xs[0], xs[1], 1e-12)
    elif case == "softplus":
        shapes = [(n, m)]
        build = lambda xs: ad.softplus(xs[0])
    else:
        raise AssertionError(case)

    values = []
    for shape in shapes:
        v = rng.standard_normal(shape)
        if case in ("relu", "clip"):
            v += 0.25 * np.sign(v) + 0.05  # keep away from the kink
        if case in ("log", "sqrt"):
            v = np.abs(v) + 0.5
        if case == "softplus":
            v *= 4.0  # into both tails
        if case == "div":
            pass
        values.append(v)
    if case == "div":
        values[1] = np.sign(values[1]) * (np.abs(values[1]) + 0.5)
    if case.startswith("gaussian_kl"):
        # log_sigma lies inside the clamp or beyond it, away from the kinks;
        # one entry beyond each side, so the mask always cuts gradients
        u = values[1]
        u = np.where(np.abs(u) < 1.0, 0.8 * u, u + 0.5 * np.sign(u))
        u[0, 0], u[-1, -1] = 1.7, -1.6
        values[1] = u * KL_CASE_CLAMP
    return build, values


KL_CASE_CLAMP = 0.6


ALL_CASES = [
    "matmul", "matmul_ta", "sparse", "relu", "add_row_bias",
    "add", "sub", "mul", "div", "exp", "log", "sqrt",
    "square", "scale", "clip", "reduce_sum_rows", "reduce_mean_cols",
    "frobenius_sq", "frobenius_sq_weighted", "reparameterize", "gaussian_kl",
    "gaussian_kl_weighted", "rowwise_cosine", "rowwise_cosine_broadcast", "softplus",
]


def test_every_primitive_matches_finite_differences_over_many_cases():
    # 6 seeded draws per case: 150 random cases in total.
    total = 0
    for case in ALL_CASES:
        for trial in range(6):
            rng = np.random.default_rng(1000 * trial + hash(case) % 997)
            build, values = _random_case(rng, case)
            probe_rng = np.random.default_rng(trial + 5)

            nodes = [ad.parameter(v, f"x{i}") for i, v in enumerate(values)]
            out = build(nodes)
            probe = probe_rng.standard_normal(out.shape)
            loss = ad.reduce_sum(ad.mul(out, ad.constant(probe)))
            for node in nodes:
                node.grad = np.zeros_like(node.value)
            ad.backward(loss)

            for i, base in enumerate(values):
                def loss_of(theta, _i=i):
                    trial_nodes = [
                        ad.parameter(theta if j == _i else v, f"x{j}") for j, v in enumerate(values)
                    ]
                    o = build(trial_nodes)
                    return float(np.sum(o.value * probe))

                fd = central_difference_grad(loss_of, base)
                rel = np.abs(nodes[i].grad - fd) / np.maximum(1.0, np.abs(fd))
                assert rel.max() < 1e-6, f"{case} input {i}: max rel err {rel.max():.2e}"
            total += 1
    assert total >= 100


class TestGradientCheckHarness:
    def test_zero_parameter_model(self):
        params = {}
        assert gradient_check(lambda p: ad.constant([[1.0]]), params) == 0.0

    def test_quadratic_model(self):
        params = make_params(W=np.array([[0.3, -0.7], [1.1, 0.4]]))
        err = gradient_check(lambda p: ad.frobenius_sq(p["W"]), params)
        assert err < 1e-9


def _upstream_loss(out, probe):
    """reduce_sum(out * probe): out's upstream gradient is exactly probe."""
    return ad.reduce_sum(ad.mul(out, ad.constant(probe)))


class TestOneNodeAsBothOperands:
    """Each operand position is its own share, so a node given twice gets
    both shares added in."""

    def test_add_gives_exactly_twice_the_upstream_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.parameter(rng.standard_normal((4, 3)), "x")
        g = rng.standard_normal((4, 3))
        ad.backward(_upstream_loss(ad.add(x, x), g))
        assert np.array_equal(x.grad, 2.0 * g)

    def test_mul_gives_exactly_2x_times_the_upstream_gradient(self):
        rng = np.random.default_rng(4)
        x = ad.parameter(rng.standard_normal((4, 3)), "x")
        g = rng.standard_normal((4, 3))
        ad.backward(_upstream_loss(ad.mul(x, x), g))
        assert np.array_equal(x.grad, 2.0 * (g * x.value))

    @pytest.mark.parametrize("op", [
        lambda a, b: ad.matmul(a, b, transpose_a=True),
        lambda a, b: ad.rowwise_cosine(a, b, 1e-12),
    ], ids=["matmul_ta", "rowwise_cosine"])
    def test_matches_central_differences(self, op):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((5, 3))
        probe = rng.standard_normal(op(ad.constant(base), ad.constant(base)).shape)
        x = ad.parameter(base, "x")
        ad.backward(_upstream_loss(op(x, x), probe))

        def loss_of(theta):
            return float(np.sum(op(ad.constant(theta), ad.constant(theta)).value * probe))

        fd = central_difference_grad(loss_of, base)
        assert (np.abs(x.grad - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6


TWO_PARENT_CASES = [
    "matmul", "matmul_ta", "add_row_bias", "add", "sub", "mul", "div", "reparameterize",
    "gaussian_kl", "gaussian_kl_weighted", "rowwise_cosine", "rowwise_cosine_broadcast",
]


@pytest.mark.parametrize("held", [0, 1])
@pytest.mark.parametrize("case", TWO_PARENT_CASES)
def test_a_constant_parent_gets_no_gradient_and_its_sibling_the_full_one(case, held):
    """The `held` operand is a constant: its grad stays None, and the other,
    a parameter, gets bitwise the gradient it gets beside a parameter."""
    rng = np.random.default_rng(7)
    build, values = _random_case(rng, case)
    assert len(values) == 2
    probe = rng.standard_normal(build([ad.constant(v) for v in values]).shape)

    def run(constant_at):
        nodes = [ad.constant(v, f"x{i}") if i == constant_at else ad.parameter(v, f"x{i}")
                 for i, v in enumerate(values)]
        ad.backward(_upstream_loss(build(nodes), probe))
        return nodes

    mixed, both = run(held), run(None)
    assert mixed[held].grad is None
    assert np.array_equal(mixed[1 - held].grad, both[1 - held].grad)
    assert np.any(mixed[1 - held].grad != 0.0)


class TestSoftplus:
    """log(1 + exp(u)) as one node, whose local is g * sigmoid(u)."""

    @staticmethod
    def value_and_local(u):
        x = ad.parameter(np.array([[u]]), "u")
        out = ad.softplus(x)
        value = out.value[0, 0]
        ad.backward(ad.reduce_sum(out))
        return value, x.grad[0, 0]

    @pytest.mark.parametrize("u, value, local", [
        (745.0, 745.0, 1.0), (800.0, 800.0, 1.0), (-745.0, 0.0, 0.0), (-800.0, 0.0, 0.0), (0.0, np.log(2.0), 0.5),
    ])
    def test_value_and_local(self, u, value, local):
        """Finite, with no warning, in both far tails, where exp(u) overflows
        or underflows; log 2 and 1/2 at 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.value_and_local(u)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx((value, local), rel=1e-15, abs=1e-300)


def tape_entries(root):
    """Every entry reachable from root through the shares, root first."""
    seen, stack = {}, [root]
    while stack:
        entry = stack.pop()
        if id(entry) not in seen:
            seen[id(entry)] = entry
            stack.extend(parent for parent, _ in entry.shares)
    return list(seen.values())


class TestValuesLeaveTheTape:
    """The tape holds gradients and shares; a value lives only as long as
    forward code or a local gradient reads it."""

    def test_a_value_lives_while_forward_code_or_a_local_reads_it(self):
        rng = np.random.default_rng(21)
        x_value = rng.standard_normal((6, 4))
        s = normalize_adjacency(CsrMatrix.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        w = ad.parameter(rng.standard_normal((4, 3)), "W")

        def build():
            x = ad.constant(x_value.copy(), "x")
            pre = ad.matmul(x, w)
            out = ad.relu(pre)
            refs = {"x": weakref.ref(x.value), "pre": weakref.ref(pre.value), "relu": weakref.ref(out.value)}
            return ad.reduce_sum(ad.sparse_matmul(s, out)), refs

        loss, refs = build()
        # relu keeps its mask, and sparse_matmul's local reads S alone
        assert refs["pre"]() is None and refs["relu"]() is None
        assert refs["x"]() is not None  # W's local in matmul reads x
        ad.backward(loss)
        assert refs["x"]() is None  # backward dropped the share that read it
        upstream = (x_value @ w.value > 0.0) * s.t_matmul_dense(np.ones((6, 3)))
        assert np.allclose(w.grad, x_value.T @ upstream)

    def test_no_local_closes_over_a_node(self):
        rng = np.random.default_rng(22)
        for case in ALL_CASES:
            build, values = _random_case(rng, case)
            out = build([ad.parameter(v, f"x{i}") for i, v in enumerate(values)])
            for _, local in out.entry.shares:
                cells = [cell.cell_contents for cell in getattr(local, "__closure__", None) or ()]
                assert not any(isinstance(c, (ad.Node, ad.Entry)) for c in cells), case

    def test_a_constant_operand_gets_no_share(self):
        x, c = ad.parameter(np.ones((2, 2)), "x"), ad.constant(np.ones((2, 2)), "c")
        assert [parent for parent, _ in ad.mul(c, x).entry.shares] == [x.entry]
        assert ad.mul(c, c).entry.shares == () and not ad.mul(c, c).requires_grad

    def test_backward_drops_every_share_and_intermediate_gradient(self):
        rng = np.random.default_rng(23)
        build, values = _random_case(rng, "rowwise_cosine")
        nodes = [ad.parameter(v, f"x{i}") for i, v in enumerate(values)]
        loss = ad.reduce_sum(ad.relu(build(nodes)))
        entries = tape_entries(loss.entry)
        ad.backward(loss)
        assert all(not e.shares for e in entries)
        leaves = {id(n.entry) for n in nodes} | {id(loss.entry)}
        assert all(e.grad is None for e in entries if id(e) not in leaves)
        assert all(n.grad is not None for n in nodes)

    @pytest.mark.parametrize("first_gradient", [False, True])
    def test_a_delta_is_dropped_once_it_is_added(self, first_gradient):
        # a parameter already holds a gradient, so the first local's fresh
        # delta is added to it with += and must be gone before the second
        # local builds its own; a parent with no gradient yet keeps it as
        # its gradient instead
        w = ad.parameter(np.ones((3, 2)), "w")
        y = ad.parameter(np.ones((3, 2)), "y")
        x = ad.scale(w, 1.0) if first_gradient else w
        made, seen = [], []

        def first(g):
            delta = g * 2.0
            made.append(weakref.ref(delta))
            return delta

        def second(g):
            seen.append((made[0](), x.entry.grad))
            return g * 3.0

        ad.backward(ad.reduce_sum(ad._result(x.value + y.value, "pair", (x, first), (y, second))))
        [(delta, gradient)] = seen
        if first_gradient:
            assert delta is not None and delta is gradient
        else:
            assert delta is None
        assert np.array_equal(w.grad, np.full((3, 2), 2.0)) and np.array_equal(y.grad, np.full((3, 2), 3.0))

    def test_gaussian_kl_builds_its_value_in_two_arrays(self):
        # the sum and 2c, with a scalar weight, and a slack of 80 KiB: less
        # than a third n x z array; the composed chain held four at once
        n, z = 400, 32
        rng = np.random.default_rng(24)
        mu, log_sigma = (ad.constant(rng.standard_normal((n, z))) for _ in range(2))
        weight = 1.0 / n
        ad.gaussian_kl(mu, log_sigma, 10.0, weight)  # first calls fill numpy's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.gaussian_kl(mu, log_sigma, 10.0, weight)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * z + 80 * 1024, peak


CLAMP = lda.LOG_SIGMA_CLAMP
# log_sigma at the clamp (a gradient passes), one ulp and far beyond it (none
# does), and at signed zeros
LOG_SIGMA_EDGES = [CLAMP, -CLAMP, np.nextafter(CLAMP, np.inf), np.nextafter(-CLAMP, -np.inf),
                   1.5 * CLAMP, -1e3, 0.0, -0.0]


@st.composite
def fused_operands(draw):
    """Operand arrays of one shape, rows 1-40 and width 1-9, with some rows
    of signed zeros in a and mu; log_sigma with some of LOG_SIGMA_EDGES; the
    rows split into 1-3 member graphs."""
    rows, width = draw(st.integers(1, 40)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b, mu, eps = (rng.standard_normal((rows, width)) for _ in range(4))
    a[rows // 2::draw(st.integers(2, 41))] = -0.0
    mu[::draw(st.integers(2, 41))] = 0.0
    log_sigma = rng.standard_normal((rows, width)) * draw(st.sampled_from([0.5, 4.0]))
    placed = draw(st.lists(st.sampled_from(LOG_SIGMA_EDGES), max_size=2 * len(LOG_SIGMA_EDGES)))
    log_sigma.flat[rng.permutation(rows * width)[:len(placed)]] = placed[:rows * width]
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=2))) if rows > 1 else []
    sizes = tuple(np.diff([0, *cuts, rows]))
    return {"a": a, "b": b, "b_row": b[:1], "mu": mu, "log_sigma": log_sigma, "eps": eps, "sizes": sizes}


def value_and_locals(build, arrays, upstream):
    """The node `build` makes of parameters on copies of arrays, its value,
    and each of its locals applied to `upstream`, in operand order."""
    node = build(*(ad.parameter(x.copy(), f"p{i}") for i, x in enumerate(arrays)))
    return [node.value] + [local(upstream) for _, local in node.entry.shares]


def value_and_grads(build, arrays, upstream):
    """The node `build` makes of parameters on arrays, its value, and the
    parameters' gradients when `upstream` is its gradient."""
    params = [ad.parameter(x.copy(), f"p{i}") for i, x in enumerate(arrays)]
    node = build(*params)
    ad.backward(ad.reduce_sum(ad.mul(node, ad.constant(upstream))))
    return [node.value] + [p.grad for p in params]


@contextmanager
def blocks_of(rows, arrays):
    """Within the block, `linalg.row_blocks` gives blocks of `rows` rows of
    the arrays' width (None: the default size)."""
    with pytest.MonkeyPatch.context() as patch:
        if rows:
            patch.setattr(linalg, "_BLOCK_BYTES", rows * arrays["mu"].shape[1] * 8)
        yield


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestBlockedFusedPrimitives:
    """`reparameterize`, `gaussian_kl` and `rowwise_cosine` work a block of
    rows at a time; with blocks of 1 and 3 rows, and of the default size,
    each value and each local is bitwise the whole-array primitive's in
    `oracles`. The first two stay bitwise their chains of elementary
    primitives, and the cosine's value stays its chain's; the chain adds the
    cosine's gradient terms in another order, and near a cosine of +-1 they
    cancel to no relative bound, so `test_lda.TestFusedPrimitives` compares
    those on the SBM pair. A width of 1 is drawn too: there numpy sums one
    column pairwise, so the one-row operand's first term is summed whole,
    not block by block."""

    @settings(max_examples=150, deadline=None)
    @given(arrays=fused_operands(), block_rows=st.sampled_from([None, 1, 3]))
    def test_reparameterize(self, arrays, block_rows):
        mu, log_sigma, eps = arrays["mu"], arrays["log_sigma"], arrays["eps"]
        upstream = np.random.default_rng(mu.size).standard_normal(mu.shape)
        with blocks_of(block_rows, arrays):
            got = value_and_locals(lambda m, s: ad.reparameterize(m, s, eps), (mu, log_sigma), upstream)
            chain = value_and_grads(lambda m, s: ad.reparameterize(m, s, eps), (mu, log_sigma), upstream)
        assert_bitwise(got, value_and_locals(lambda m, s: whole_array_reparameterize(m, s, eps),
                                             (mu, log_sigma), upstream))
        assert_bitwise(chain, value_and_grads(lambda m, s: composed_reparameterize(m, s, eps),
                                              (mu, log_sigma), upstream))

    @settings(max_examples=150, deadline=None)
    @given(arrays=fused_operands(), block_rows=st.sampled_from([None, 1, 3]))
    def test_gaussian_kl(self, arrays, block_rows):
        mu, log_sigma, sizes = arrays["mu"], arrays["log_sigma"], arrays["sizes"]
        weight = lda._member_weights(sizes)
        upstream = np.array([[0.7]])
        with blocks_of(block_rows, arrays):
            got = value_and_locals(lambda m, s: ad.gaussian_kl(m, s, CLAMP, weight), (mu, log_sigma), upstream)
            chain = value_and_grads(lambda m, s: lda.kl_to_prior(m, s, sizes), (mu, log_sigma), upstream)
        assert_bitwise(got, value_and_locals(lambda m, s: whole_array_gaussian_kl(m, s, CLAMP, weight),
                                             (mu, log_sigma), upstream))
        assert_bitwise(chain, value_and_grads(lambda m, s: composed_kl_to_prior(m, s, sizes),
                                              (mu, log_sigma), upstream))

    @settings(max_examples=150, deadline=None)
    @given(arrays=fused_operands(), block_rows=st.sampled_from([None, 1, 3]), one_row=st.booleans())
    def test_rowwise_cosine(self, arrays, block_rows, one_row):
        a, b = arrays["a"], arrays["b_row" if one_row else "b"]
        upstream = np.random.default_rng(a.size).standard_normal((len(a), 1))
        with blocks_of(block_rows, arrays):
            got = value_and_locals(lambda x, y: ad.rowwise_cosine(x, y, COSINE_EPS), (a, b), upstream)
        assert_bitwise(got, value_and_locals(lambda x, y: whole_array_rowwise_cosine(x, y, COSINE_EPS),
                                             (a, b), upstream))
        assert_bitwise(got[:1], value_and_grads(composed_rowwise_cosine, (a, b), upstream)[:1])
