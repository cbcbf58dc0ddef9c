"""Reverse-mode differentiation over dense matrices.

Every value on the tape is a 2-D float64 array; scalars are 1x1. Sparse
matrices enter only as constant left factors (adjacency is data, gradients
flow through dense operands only). Each operation computes its forward value
eagerly and registers a closure that routes the upstream gradient to the
parents, so a graph is built once per step and discarded.

The elementwise `add`, `sub`, `mul` and `div` take operands of one shape;
`add_row_bias` and `rowwise_cosine`'s one-row form are the only broadcasts.

Three primitives are fused: `reparameterize`, `gaussian_kl` and
`rowwise_cosine` each stand for a chain of elementary ones as one node and
keep only what their backward reads (the noise draw; nothing; three n x 1
columns), recomputing the rest from their parents' values. The first two
give bitwise the values and gradients of the chains they replace.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError
from .linalg import CsrMatrix, matmul_rows


class Node:
    """One value in the computation graph."""

    __slots__ = (
        "value", "grad", "name", "requires_grad", "_parents", "_backward", "_backward_ran", "__weakref__"
    )

    def __init__(
        self,
        value: np.ndarray,
        name: str,
        requires_grad: bool,
        parents: tuple[Node, ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ShapeError(f"node '{name}' must hold a 2-D value, got ndim={self.value.ndim}")
        self.grad: np.ndarray | None = None
        self.name = name
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def accumulate(self, delta: np.ndarray) -> None:
        # the first write copies, C-ordered: delta may be shared with another
        # node, a read-only broadcast view or a transposed product, and grad is
        # added to in place later
        if self.grad is None:
            self.grad = np.array(delta, dtype=np.float64, order="C")
        else:
            self.grad += delta

    def __repr__(self) -> str:
        return f"Node({self.name}, shape={self.shape}, requires_grad={self.requires_grad})"


def constant(value, name: str = "const") -> Node:
    value = np.atleast_2d(np.asarray(value, dtype=np.float64))
    return Node(value, name=name, requires_grad=False)


def parameter(value, name: str) -> Node:
    """A trainable leaf whose gradient starts at zero, so `backward` adds
    into it; parameters are held as a plain name -> node dict."""
    node = Node(np.atleast_2d(np.asarray(value, dtype=np.float64)), name=name, requires_grad=True)
    node.grad = np.zeros_like(node.value)
    return node


def _describe(*nodes: Node) -> str:
    return ", ".join(f"'{n.name}' {n.shape}" for n in nodes)


def _result(value, parents: tuple[Node, ...], name: str, backward: Callable[[np.ndarray], None]) -> Node:
    needs = any(p.requires_grad for p in parents)
    return Node(value, name=name, requires_grad=needs, parents=parents, backward=backward)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operands differ in shape, {_describe(a, b)}")


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Node, b: Node, transpose_a: bool = False) -> Node:
    av = a.value.T if transpose_a else a.value
    if av.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ for {_describe(a, b)} (transpose_a={transpose_a})"
        )
    out_value = matmul_rows(av, b.value)

    def backward(grad):
        if a.requires_grad:
            a.accumulate(matmul_rows(b.value, grad.T) if transpose_a else matmul_rows(grad, b.value.T))
        if b.requires_grad:
            b.accumulate(av.T @ grad)

    return _result(out_value, (a, b), "matmul", backward)


def sparse_matmul(s: CsrMatrix, x: Node) -> Node:
    """Product S @ x with a constant sparse left factor."""
    if s.cols != x.shape[0]:
        raise ShapeError(f"sparse_matmul: sparse {s.rows}x{s.cols} vs {_describe(x)}")
    out_value = s.matmul_dense(x.value)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(s.t_matmul_dense(grad))

    return _result(out_value, (x,), "sparse_matmul", backward)


def relu(x: Node) -> Node:
    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * (x.value > 0.0))

    return _result(np.maximum(x.value, 0.0), (x,), "relu", backward)


def add_row_bias(x: Node, bias: Node) -> Node:
    """Add a 1 x m bias row to every row of x."""
    if bias.shape != (1, x.shape[1]):
        raise ShapeError(f"add_row_bias: bias must be 1x{x.shape[1]}, got {_describe(bias)}")

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad)
        if bias.requires_grad:
            bias.accumulate(grad.sum(axis=0, keepdims=True))

    return _result(x.value + bias.value, (x, bias), "add_row_bias", backward)


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")

    def backward(grad):
        if a.requires_grad:
            a.accumulate(grad)
        if b.requires_grad:
            b.accumulate(grad)

    return _result(a.value + b.value, (a, b), "add", backward)


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b, "sub")

    def backward(grad):
        if a.requires_grad:
            a.accumulate(grad)
        if b.requires_grad:
            b.accumulate(-grad)

    return _result(a.value - b.value, (a, b), "sub", backward)


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")

    def backward(grad):
        if a.requires_grad:
            a.accumulate(grad * b.value)
        if b.requires_grad:
            b.accumulate(grad * a.value)

    return _result(a.value * b.value, (a, b), "mul", backward)


def div(a: Node, b: Node) -> Node:
    _same_shape(a, b, "div")
    out_value = a.value / b.value

    def backward(grad):
        if a.requires_grad:
            a.accumulate(grad / b.value)
        if b.requires_grad:
            b.accumulate(-grad * out_value / b.value)

    return _result(out_value, (a, b), "div", backward)


def exp(x: Node) -> Node:
    out_value = np.exp(x.value)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * out_value)

    return _result(out_value, (x,), "exp", backward)


def log(x: Node) -> Node:
    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad / x.value)

    return _result(np.log(x.value), (x,), "log", backward)


def sqrt(x: Node) -> Node:
    out_value = np.sqrt(x.value)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * 0.5 / out_value)

    return _result(out_value, (x,), "sqrt", backward)


def square(x: Node) -> Node:
    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * 2.0 * x.value)

    return _result(x.value * x.value, (x,), "square", backward)


def scale(x: Node, c: float) -> Node:
    c = float(c)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * c)

    return _result(x.value * c, (x,), "scale", backward)


def clip(x: Node, lo: float, hi: float) -> Node:
    # Gradient passes wherever the input lies inside [lo, hi].
    mask = (x.value >= lo) & (x.value <= hi)

    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * mask)

    return _result(np.clip(x.value, lo, hi), (x,), "clip", backward)


def reduce_sum(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        out_value = np.array([[x.value.sum()]])
    elif axis in (0, 1):
        out_value = x.value.sum(axis=axis, keepdims=True)
    else:
        raise ShapeError(f"reduce_sum: axis must be None, 0 or 1, got {axis}")

    def backward(grad):
        if x.requires_grad:
            x.accumulate(np.broadcast_to(grad, x.shape))

    return _result(out_value, (x,), "reduce_sum", backward)


def reduce_mean(x: Node, axis: int | None = None) -> Node:
    count = x.value.size if axis is None else x.shape[axis]
    return scale(reduce_sum(x, axis=axis), 1.0 / count)


def _weighted_sum(x: np.ndarray, weight) -> np.ndarray:
    # a scalar weight scales the plain sum; an n x 1 column weights row by row
    if np.ndim(weight) == 0:
        return np.array([[x.sum()]]) * weight
    return np.array([[np.sum(x * weight)]])


def frobenius_sq(x: Node, weight: float | np.ndarray = 1.0) -> Node:
    """Sum of the squared entries of x, each row's weighted by `weight`: one
    float for every row, or an n x 1 column."""
    def backward(grad):
        if x.requires_grad:
            x.accumulate(grad * weight * 2.0 * x.value)

    return _result(_weighted_sum(x.value * x.value, weight), (x,), "frobenius_sq", backward)


# ---------------------------------------------------------------------------
# fused primitives: one node where a composition would keep every
# intermediate on the tape; backward recomputes what it needs from the
# parents' values


def reparameterize(mu: Node, log_sigma: Node, eps: np.ndarray) -> Node:
    """mu + exp(log_sigma) * eps for a constant noise draw eps.

    Keeps only eps. The gradients are computed in the composition's
    float-op order, d_log_sigma = (g * eps) * exp(log_sigma), so they are
    bitwise those of add(mu, mul(exp(log_sigma), constant(eps)))."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    if not mu.shape == log_sigma.shape == eps.shape:
        raise ShapeError(f"reparameterize: {_describe(mu, log_sigma)} and noise {eps.shape} differ")

    def backward(grad):
        if mu.requires_grad:
            mu.accumulate(grad)
        if log_sigma.requires_grad:
            log_sigma.accumulate(grad * eps * np.exp(log_sigma.value))

    out_value = mu.value + np.exp(log_sigma.value) * eps
    return _result(out_value, (mu, log_sigma), "reparameterize", backward)


def gaussian_kl(mu: Node, log_sigma: Node, clamp: float, weight) -> Node:
    """KL(N(mu, exp(log_sigma)^2) || N(0, I)) summed over columns, with rows
    weighted as `frobenius_sq` weights them (1/n gives a mean), as a 1x1
    node; log_sigma is clipped to +-clamp, and no gradient passes outside.

    With c = clip(log_sigma) and weight 1/n the value is
    (sum(((mu^2 + exp(2c)) - 1) - 2c) * (1/n)) * 0.5, and the gradients
    follow the composed clip/scale/square/exp/sub/reduce_sum chain
    operation by operation, so both are bitwise equal to it (the factor 0.5
    is exact wherever it is applied). Nothing is kept but the parents."""
    if mu.shape != log_sigma.shape:
        raise ShapeError(f"gaussian_kl: {_describe(mu, log_sigma)} differ")
    clamp = float(clamp)

    def backward(grad):
        c0 = grad * weight * 0.5
        if mu.requires_grad:
            mu.accumulate(c0 * 2.0 * mu.value)
        if log_sigma.requires_grad:
            ls = log_sigma.value
            inside = (ls >= -clamp) & (ls <= clamp)
            log_sigma.accumulate((c0 * np.exp(np.clip(ls, -clamp, clamp) * 2.0) - c0) * 2.0 * inside)

    two_c = np.clip(log_sigma.value, -clamp, clamp) * 2.0
    per_entry = ((mu.value * mu.value + np.exp(two_c)) - 1.0) - two_c
    out_value = _weighted_sum(per_entry, weight) * 0.5
    return _result(out_value, (mu, log_sigma), "gaussian_kl", backward)


def rowwise_cosine(a: Node, b: Node, eps: float) -> Node:
    """n x 1 cosine similarity of each row of a with the matching row of b,
    or with b itself when b is a single 1 x d row; eps is added under each
    square root, sqrt(sum(a_i^2) + eps).

    Keeps three n x 1 columns (the cosines and both norms); backward reads
    a and b from the parents."""
    if b.shape != a.shape and b.shape != (1, a.shape[1]):
        raise ShapeError(f"rowwise_cosine: b must match a or be one row, got {_describe(a, b)}")
    norm_a = np.sqrt((a.value * a.value).sum(axis=1, keepdims=True) + eps)
    norm_b = np.sqrt((b.value * b.value).sum(axis=1, keepdims=True) + eps)
    out_value = (a.value * b.value).sum(axis=1, keepdims=True) / (norm_a * norm_b)

    def backward(grad):
        # d cos / d a = b / (|a||b|) - cos * a / |a|^2, and symmetrically for b
        g_dot = grad / (norm_a * norm_b)
        g_cos = grad * out_value
        if a.requires_grad:
            a.accumulate(g_dot * b.value - g_cos / (norm_a * norm_a) * a.value)
        if b.requires_grad:
            b_coef, b_dot = g_cos / (norm_b * norm_b), g_dot * a.value
            if b.shape != a.shape:  # a one-row b: each term is summed over the rows by itself
                b_coef, b_dot = b_coef.sum(axis=0, keepdims=True), b_dot.sum(axis=0, keepdims=True)
            b.accumulate(b_dot - b_coef * b.value)

    return _result(out_value, (a, b), "rowwise_cosine", backward)


# ---------------------------------------------------------------------------
# graph traversal


def _topological_order(loss: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Populate gradients of every trainable leaf reachable from the loss.

    The loss must be 1x1. Each node is visited exactly once, in reverse
    topological order; a second call on the same loss node is rejected.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: loss '{loss.name}' must be 1x1, got {loss.shape}")
    if loss._backward_ran:
        raise RuntimeError("backward already ran for this graph; rebuild it before calling again")
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError(f"backward: loss '{loss.name}' is non-finite")
    loss._backward_ran = True
    if not loss.requires_grad:
        return
    loss.grad = np.ones((1, 1))
    for node in reversed(_topological_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if node is not loss:
                node.grad = None  # free intermediate gradients promptly


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))
