"""Reverse-mode differentiation over dense matrices.

Every value on the tape is a 2-D float64 array; scalars are 1x1. Sparse
matrices enter only as constant left factors (adjacency is data, gradients
flow through dense operands only). A graph is built once per step and
discarded.

There is one chain rule, `_result`. Each primitive checks its shapes,
computes its forward value eagerly and hands `_result` one share per
operand: the parent and its local gradient, a map from the node's upstream
gradient to that parent's. The node's backward adds each share's local
gradient into its parent, in operand order, wherever the parent needs a
gradient; a node given as both operands gets both shares.

The elementwise `add`, `sub`, `mul` and `div` take operands of one shape;
`add_row_bias` and `rowwise_cosine`'s one-row form are the only broadcasts.

Three primitives are fused: `reparameterize`, `gaussian_kl` and
`rowwise_cosine` each stand for a chain of elementary ones as one node and
keep only what their local gradients read (the noise draw; nothing; three
n x 1 columns), recomputing the rest from their parents' values. The first
two give bitwise the values and gradients of the chains they replace.
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


def _result(value, name: str, *shares: tuple[Node, Callable[[np.ndarray], np.ndarray]]) -> Node:
    """The engine's one chain rule; each share is a (parent, local gradient) pair."""
    parents = tuple(parent for parent, _ in shares)

    def backward(grad):
        for parent, local in shares:
            if parent.requires_grad:
                parent.accumulate(local(grad))

    needs = any(p.requires_grad for p in parents)
    return Node(value, name=name, requires_grad=needs, parents=parents, backward=backward)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operands differ in shape, {_describe(a, b)}")


def _passed(grad: np.ndarray) -> np.ndarray:
    return grad


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Node, b: Node, transpose_a: bool = False) -> Node:
    av = a.value.T if transpose_a else a.value
    if av.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ for {_describe(a, b)} (transpose_a={transpose_a})"
        )
    return _result(
        matmul_rows(av, b.value), "matmul",
        (a, lambda g: matmul_rows(b.value, g.T) if transpose_a else matmul_rows(g, b.value.T)),
        (b, lambda g: av.T @ g),
    )


def sparse_matmul(s: CsrMatrix, x: Node) -> Node:
    """Product S @ x with a constant sparse left factor."""
    if s.cols != x.shape[0]:
        raise ShapeError(f"sparse_matmul: sparse {s.rows}x{s.cols} vs {_describe(x)}")
    return _result(s.matmul_dense(x.value), "sparse_matmul", (x, s.t_matmul_dense))


def relu(x: Node) -> Node:
    return _result(np.maximum(x.value, 0.0), "relu", (x, lambda g: g * (x.value > 0.0)))


def add_row_bias(x: Node, bias: Node) -> Node:
    """Add a 1 x m bias row to every row of x."""
    if bias.shape != (1, x.shape[1]):
        raise ShapeError(f"add_row_bias: bias must be 1x{x.shape[1]}, got {_describe(bias)}")
    return _result(
        x.value + bias.value, "add_row_bias", (x, _passed), (bias, lambda g: g.sum(axis=0, keepdims=True))
    )


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b, "add")
    return _result(a.value + b.value, "add", (a, _passed), (b, _passed))


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b, "sub")
    return _result(a.value - b.value, "sub", (a, _passed), (b, np.negative))


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")
    return _result(a.value * b.value, "mul", (a, lambda g: g * b.value), (b, lambda g: g * a.value))


def div(a: Node, b: Node) -> Node:
    _same_shape(a, b, "div")
    out = a.value / b.value
    return _result(out, "div", (a, lambda g: g / b.value), (b, lambda g: -g * out / b.value))


def exp(x: Node) -> Node:
    out = np.exp(x.value)
    return _result(out, "exp", (x, lambda g: g * out))


def log(x: Node) -> Node:
    return _result(np.log(x.value), "log", (x, lambda g: g / x.value))


def sqrt(x: Node) -> Node:
    out = np.sqrt(x.value)
    return _result(out, "sqrt", (x, lambda g: g * 0.5 / out))


def square(x: Node) -> Node:
    return _result(x.value * x.value, "square", (x, lambda g: g * 2.0 * x.value))


def scale(x: Node, c: float) -> Node:
    c = float(c)
    return _result(x.value * c, "scale", (x, lambda g: g * c))


def clip(x: Node, lo: float, hi: float) -> Node:
    # Gradient passes wherever the input lies inside [lo, hi].
    mask = (x.value >= lo) & (x.value <= hi)
    return _result(np.clip(x.value, lo, hi), "clip", (x, lambda g: g * mask))


def reduce_sum(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        out = np.array([[x.value.sum()]])
    elif axis in (0, 1):
        out = x.value.sum(axis=axis, keepdims=True)
    else:
        raise ShapeError(f"reduce_sum: axis must be None, 0 or 1, got {axis}")
    return _result(out, "reduce_sum", (x, lambda g: np.broadcast_to(g, x.shape)))


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
    return _result(
        _weighted_sum(x.value * x.value, weight), "frobenius_sq", (x, lambda g: g * weight * 2.0 * x.value)
    )


# ---------------------------------------------------------------------------
# fused primitives: one node where a composition would keep every
# intermediate on the tape; the local gradients recompute what they need
# from the parents' values


def reparameterize(mu: Node, log_sigma: Node, eps: np.ndarray) -> Node:
    """mu + exp(log_sigma) * eps for a constant noise draw eps.

    Keeps only eps. The gradients are computed in the composition's
    float-op order, d_log_sigma = (g * eps) * exp(log_sigma), so they are
    bitwise those of add(mu, mul(exp(log_sigma), constant(eps)))."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    if not mu.shape == log_sigma.shape == eps.shape:
        raise ShapeError(f"reparameterize: {_describe(mu, log_sigma)} and noise {eps.shape} differ")
    return _result(
        mu.value + np.exp(log_sigma.value) * eps, "reparameterize",
        (mu, _passed),
        (log_sigma, lambda g: g * eps * np.exp(log_sigma.value)),
    )


def _kl_log_sigma_grad(c0: np.ndarray, log_sigma: np.ndarray, clamp: float) -> np.ndarray:
    inside = (log_sigma >= -clamp) & (log_sigma <= clamp)
    return (c0 * np.exp(np.clip(log_sigma, -clamp, clamp) * 2.0) - c0) * 2.0 * inside


def gaussian_kl(mu: Node, log_sigma: Node, clamp: float, weight) -> Node:
    """KL(N(mu, exp(log_sigma)^2) || N(0, I)) summed over columns, with rows
    weighted as `frobenius_sq` weights them (1/n gives a mean), as a 1x1
    node; log_sigma is clipped to +-clamp, and no gradient passes outside.

    With c = clip(log_sigma) and weight 1/n the value is
    (sum(((mu^2 + exp(2c)) - 1) - 2c) * (1/n)) * 0.5, and the gradients
    follow the composed clip/scale/square/exp/sub/reduce_sum chain
    operation by operation, so both are bitwise equal to it (the factor 0.5
    is exact wherever it is applied). Nothing is kept but the parents; each
    local gradient recomputes c0 = g * weight * 0.5, 1x1 or one column."""
    if mu.shape != log_sigma.shape:
        raise ShapeError(f"gaussian_kl: {_describe(mu, log_sigma)} differ")
    clamp = float(clamp)
    two_c = np.clip(log_sigma.value, -clamp, clamp) * 2.0
    per_entry = ((mu.value * mu.value + np.exp(two_c)) - 1.0) - two_c
    return _result(
        _weighted_sum(per_entry, weight) * 0.5, "gaussian_kl",
        (mu, lambda g: g * weight * 0.5 * 2.0 * mu.value),
        (log_sigma, lambda g: _kl_log_sigma_grad(g * weight * 0.5, log_sigma.value, clamp)),
    )


def rowwise_cosine(a: Node, b: Node, eps: float) -> Node:
    """n x 1 cosine similarity of each row of a with the matching row of b,
    or with b itself when b is a single 1 x d row; eps is added under each
    square root, sqrt(sum(a_i^2) + eps).

    Keeps three n x 1 columns (the cosines and both norms); the local
    gradients read a and b from the parents, d cos / d a =
    b / (|a||b|) - cos * a / |a|^2, and symmetrically for b."""
    if b.shape != a.shape and b.shape != (1, a.shape[1]):
        raise ShapeError(f"rowwise_cosine: b must match a or be one row, got {_describe(a, b)}")
    norm_a = np.sqrt((a.value * a.value).sum(axis=1, keepdims=True) + eps)
    norm_b = np.sqrt((b.value * b.value).sum(axis=1, keepdims=True) + eps)
    out = (a.value * b.value).sum(axis=1, keepdims=True) / (norm_a * norm_b)
    # a one-row b: each of its two terms is summed over the rows by itself
    to_b = _passed if b.shape == a.shape else (lambda t: t.sum(axis=0, keepdims=True))
    return _result(
        out, "rowwise_cosine",
        (a, lambda g: g / (norm_a * norm_b) * b.value - g * out / (norm_a * norm_a) * a.value),
        (b, lambda g: to_b(g / (norm_a * norm_b) * a.value) - to_b(g * out / (norm_b * norm_b)) * b.value),
    )


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
