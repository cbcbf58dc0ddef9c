import numpy as np
import pytest

from leda import autodiff as ad
from leda.errors import NumericError
from leda.optim import AdamWState, adamw_step, check_second_moments

from synthetic import parameters, zero_grads


def single_param(value):
    node = ad.parameter(value, "theta")
    return {"theta": node}, node


class TestAdamW:
    def test_zero_gradient_no_decay_is_fixed_point(self):
        params, node = single_param(np.array([[2.0, -3.0]]))
        state = AdamWState.for_params(params, lr=0.1, weight_decay=0.0)
        before = node.value.copy()
        for _ in range(5):
            zero_grads(params)
            adamw_step(params, state)
        assert np.array_equal(node.value, before)
        assert state.step == 5

    def test_first_step_size_with_unit_gradient(self):
        params, node = single_param(np.array([[0.0]]))
        state = AdamWState.for_params(
            params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0
        )
        node.grad = np.array([[1.0]])
        adamw_step(params, state)
        # bias correction makes m_hat = v_hat = 1 at t=1, so the step is ~lr
        assert node.value[0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_decoupled_decay_with_zero_gradient(self):
        params, node = single_param(np.array([[4.0]]))
        state = AdamWState.for_params(params, lr=0.1, weight_decay=0.1)
        zero_grads(params)
        adamw_step(params, state)
        assert node.value[0, 0] == pytest.approx(4.0 * (1.0 - 0.01), abs=1e-12)

    def test_moment_shapes_match_parameters(self):
        params = parameters({"a": np.zeros((2, 3)), "b": np.zeros((1, 4))})
        state = AdamWState.for_params(params)
        assert state.m["a"].shape == (2, 3)
        assert state.v["b"].shape == (1, 4)

    def test_descends_a_quadratic(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal((3, 3))
        node = ad.parameter(np.zeros((3, 3)), "W")
        params = {"W": node}
        state = AdamWState.for_params(params, lr=0.05, weight_decay=0.0)
        losses = []
        for _ in range(200):
            zero_grads(params)
            diff = ad.sub(node, ad.constant(target))
            loss = ad.frobenius_sq(diff)
            losses.append(loss.value[0, 0])
            ad.backward(loss)
            adamw_step(params, state)
        assert losses[-1] < 0.01 * losses[0]


class TestSecondMomentCheck:
    def test_finite_moments_pass(self):
        params, node = single_param(np.array([[1.0, 2.0]]))
        state = AdamWState.for_params(params, weight_decay=0.0)
        node.grad = np.array([[1e150, -3.0]])
        adamw_step(params, state)
        check_second_moments(state, "fit")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [1e160, np.inf, np.nan])
    def test_overflowed_or_non_finite_moment_raises(self, bad):
        params, node = single_param(np.array([[1.0, 2.0]]))
        state = AdamWState.for_params(params, weight_decay=0.0)
        node.grad = np.array([[0.5, bad]])
        adamw_step(params, state)
        if bad == 1e160:
            # the step of the overflowed coordinate is 0: only the moment shows it
            assert node.value[0, 1] == 2.0
        with pytest.raises(NumericError, match="^fit: AdamW second moment of 'theta' is non-finite"):
            check_second_moments(state, "fit")
