import numpy as np
import pytest

from leda import autodiff as ad
from leda.errors import ShapeError
from leda.linalg import CsrMatrix

from oracles import central_difference_grad, gradient_check


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

    def test_non_scalar_loss_rejected(self):
        nodes = make_params(W=np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(nodes["W"])

    def test_first_accumulate_copies_a_broadcast_view(self):
        source = np.array([[1.0, 2.0]])
        view = np.broadcast_to(source, (3, 2))  # read-only, as reduce_sum passes it
        node = ad.Node(np.zeros((3, 2)), "n", requires_grad=True)
        node.accumulate(view)
        assert not np.shares_memory(node.grad, source)
        node.accumulate(view)
        assert np.array_equal(node.grad, np.tile([[2.0, 4.0]], (3, 1)))
        assert np.array_equal(source, [[1.0, 2.0]])

    def test_first_gradient_is_c_ordered(self):
        # a transposed delta, and x as both operands of x^T x, whose two
        # products downstream would otherwise round as another layout does
        node = ad.Node(np.zeros((3, 2)), "n", requires_grad=True)
        node.accumulate(np.arange(6.0).reshape(2, 3).T)
        assert node.grad.flags.c_contiguous
        x = ad.Node(np.random.default_rng(1).standard_normal((5, 3)), "x", requires_grad=True)
        ad.backward(ad.reduce_sum(ad.matmul(x, x, transpose_a=True)))
        assert x.grad.flags.c_contiguous
        assert np.allclose(x.grad, 2.0 * x.value.sum(axis=1, keepdims=True) * np.ones((1, 3)))

    def test_a_delta_shared_by_two_nodes_stays_untouched(self):
        delta = np.ones((2, 2))
        a = ad.Node(np.zeros((2, 2)), "a", requires_grad=True)
        b = ad.Node(np.zeros((2, 2)), "b", requires_grad=True)
        a.accumulate(delta)
        b.accumulate(delta)
        a.accumulate(delta)
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
    else:
        raise AssertionError(case)

    values = []
    for shape in shapes:
        v = rng.standard_normal(shape)
        if case in ("relu", "clip"):
            v += 0.25 * np.sign(v) + 0.05  # keep away from the kink
        if case in ("log", "sqrt"):
            v = np.abs(v) + 0.5
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
    "gaussian_kl_weighted", "rowwise_cosine", "rowwise_cosine_broadcast",
]


def test_every_primitive_matches_finite_differences_over_many_cases():
    # 6 seeded draws per case: 144 random cases in total.
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
