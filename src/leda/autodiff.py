"""Reverse-mode differentiation over dense matrices.

Every node's value is a 2-D float64 array; scalars are 1x1. Sparse
matrices enter only as constant left factors (adjacency is data, gradients
flow through dense operands only). A graph is built once per step and
discarded.

The tape is data, and it holds gradients and shares, not values. A node is
its value and its tape entry, which holds what `backward` needs of it: its
gradient, whether it needs one, its name and its shares. Each primitive
checks its shapes, computes its forward value eagerly and hands `_result`
one share per operand that needs a gradient: the parent's entry and its
local gradient, a map from the node's upstream gradient to that parent's.
A local closes over the arrays it reads (an operand's value, a mask, a
shape), never over a node, so a value lives only as long as forward code
or a local reads it: `relu`'s output, for one, goes as soon as the forward
code drops it.

`backward` is the one chain rule: in reverse topological order it pops
each entry, adds each share's local gradient into its parent, in operand
order, and drops the shares, so the tape and the arrays that only its
locals read shrink as the walk goes. A share's delta goes as soon as it is
added, before the next share's local runs, unless it became the parent's
gradient. A node given as both operands gets both shares.

The elementwise `add`, `sub`, `mul` and `div` take operands of one shape;
`add_row_bias` and `rowwise_cosine`'s one-row form are the only broadcasts.

Four primitives are fused: `reparameterize`, `gaussian_kl`, `rowwise_cosine`
and `softplus` each stand for a chain of elementary ones as one node, and
their locals read only the operands and a few small arrays (the noise draw;
nothing; three n x 1 columns; the output, as softplus's local is
g * sigmoid(x) = g * exp(x - out)). The first two give bitwise the values and
gradients of the chains they replace. The first three work a `row_blocks`
block of rows at a time, so none builds an n x d temporary beside its output
but `gaussian_kl`'s one table to sum; `softplus` works whole, on n x 1 columns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError
from .linalg import CsrMatrix, matmul_rows, row_blocks

Local = Callable[[np.ndarray], np.ndarray]
Share = tuple["Entry", Local]


class Entry:
    """A node's place on the tape: its gradient, whether it needs one, its
    name, and its shares, one (parent entry, local gradient) pair per
    operand that needs a gradient."""

    __slots__ = ("grad", "name", "requires_grad", "shares")

    def __init__(self, name: str, requires_grad: bool, shares: tuple[Share, ...] = ()):
        self.grad: np.ndarray | None = None
        self.name = name
        self.requires_grad = requires_grad
        self.shares = shares

    def accumulate(self, delta: np.ndarray, made: bool = False) -> None:
        """Add delta into the gradient. The first write keeps a delta that a
        local has just made (`made`) and copies any other, C-ordered: it may
        be another node's gradient, a read-only broadcast view or a
        transposed product, and grad is added to in place later."""
        if self.grad is None:
            self.grad = (np.asarray if made else np.array)(delta, dtype=np.float64, order="C")
        else:
            self.grad += delta


class Node:
    """One value in the computation graph, and its tape entry."""

    __slots__ = ("value", "entry", "_backward_ran", "__weakref__")

    def __init__(self, value: np.ndarray, name: str, requires_grad: bool, shares: tuple[Share, ...] = ()):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ShapeError(f"node '{name}' must hold a 2-D value, got ndim={self.value.ndim}")
        self.entry = Entry(name, requires_grad, shares)
        self._backward_ran = False

    # what backward needs is read, and the gradient set, through the entry
    name = property(lambda self: self.entry.name)
    requires_grad = property(lambda self: self.entry.requires_grad)
    grad = property(lambda self: self.entry.grad, lambda self, grad: setattr(self.entry, "grad", grad))

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

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


def _result(value, name: str, *shares: tuple[Node, Local]) -> Node:
    """A node whose entry holds the shares, one (parent, local gradient)
    pair per operand, of the parents that need a gradient; the others'
    locals, and what they read, go now."""
    kept = tuple((parent.entry, local) for parent, local in shares if parent.requires_grad)
    return Node(value, name, bool(kept), kept)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operands differ in shape, {_describe(a, b)}")


def _passed(grad: np.ndarray) -> np.ndarray:
    return grad


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Node, b: Node, transpose_a: bool = False) -> Node:
    av = a.value.T if transpose_a else a.value
    bv = b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ for {_describe(a, b)} (transpose_a={transpose_a})"
        )
    return _result(
        matmul_rows(av, bv), "matmul",
        (a, lambda g: matmul_rows(bv, g.T) if transpose_a else matmul_rows(g, bv.T)),
        (b, lambda g: av.T @ g),
    )


def sparse_matmul(s: CsrMatrix, x: Node) -> Node:
    """Product S @ x with a constant sparse left factor."""
    if s.cols != x.shape[0]:
        raise ShapeError(f"sparse_matmul: sparse {s.rows}x{s.cols} vs {_describe(x)}")
    return _result(s.matmul_dense(x.value), "sparse_matmul", (x, s.t_matmul_dense))


def relu(x: Node) -> Node:
    mask = x.value > 0.0
    return _result(np.maximum(x.value, 0.0), "relu", (x, lambda g: g * mask))


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
    av, bv = a.value, b.value
    return _result(av * bv, "mul", (a, lambda g: g * bv), (b, lambda g: g * av))


def div(a: Node, b: Node) -> Node:
    _same_shape(a, b, "div")
    bv = b.value
    out = a.value / bv
    return _result(out, "div", (a, lambda g: g / bv), (b, lambda g: -g * out / bv))


def exp(x: Node) -> Node:
    out = np.exp(x.value)
    return _result(out, "exp", (x, lambda g: g * out))


def log(x: Node) -> Node:
    xv = x.value
    return _result(np.log(xv), "log", (x, lambda g: g / xv))


def sqrt(x: Node) -> Node:
    out = np.sqrt(x.value)
    return _result(out, "sqrt", (x, lambda g: g * 0.5 / out))


def square(x: Node) -> Node:
    xv = x.value
    return _result(xv * xv, "square", (x, lambda g: g * 2.0 * xv))


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
    shape = x.shape
    return _result(out, "reduce_sum", (x, lambda g: np.broadcast_to(g, shape)))


def reduce_mean(x: Node, axis: int | None = None) -> Node:
    count = x.value.size if axis is None else x.shape[axis]
    return scale(reduce_sum(x, axis=axis), 1.0 / count)


def _weighted_sum(x: np.ndarray, weight) -> np.ndarray:
    # a scalar weight scales the plain sum; an n x 1 column weights row by
    # row, in place, as each caller hands over a fresh array
    if np.ndim(weight) == 0:
        return np.array([[x.sum()]]) * weight
    x *= weight
    return np.array([[x.sum()]])


def frobenius_sq(x: Node, weight: float | np.ndarray = 1.0) -> Node:
    """Sum of the squared entries of x, each row's weighted by `weight`: one
    float for every row, or an n x 1 column."""
    xv = x.value
    return _result(_weighted_sum(xv * xv, weight), "frobenius_sq", (x, lambda g: g * weight * 2.0 * xv))


# ---------------------------------------------------------------------------
# fused primitives: one node where a composition would keep every
# intermediate's gradient on the tape and every intermediate its locals read;
# the fused locals recompute what they need from the operands' values (and
# softplus's from its output). The other three build no n x d temporary
# beside their outputs and `gaussian_kl`'s one table: each works a
# `linalg.row_blocks` block of rows at a time, in the whole-array form's
# float-op order, so each value and gradient is bitwise the whole-array one.


def _row_blocks(x: np.ndarray) -> list[tuple[int, int]]:
    return row_blocks(x.shape[0], x.shape[1] * x.itemsize)


def reparameterize(mu: Node, log_sigma: Node, eps: np.ndarray) -> Node:
    """mu + exp(log_sigma) * eps for a constant noise draw eps.

    Its locals read eps and log_sigma. The gradients are computed in the
    composition's float-op order, d_log_sigma = (g * eps) * exp(log_sigma),
    so they are bitwise those of add(mu, mul(exp(log_sigma), constant(eps))).
    The value, and the exponential in the local, are formed a block of rows
    at a time in the output."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    if not mu.shape == log_sigma.shape == eps.shape:
        raise ShapeError(f"reparameterize: {_describe(mu, log_sigma)} and noise {eps.shape} differ")
    muv, lsv = mu.value, log_sigma.value
    blocks = _row_blocks(lsv)
    out = np.empty_like(muv)
    for lo, hi in blocks:
        rows = np.exp(lsv[lo:hi], out=out[lo:hi])
        rows *= eps[lo:hi]
        rows += muv[lo:hi]

    def to_log_sigma_grad(g):
        grad = g * eps
        for lo, hi in blocks:
            grad[lo:hi] *= np.exp(lsv[lo:hi])
        return grad

    return _result(out, "reparameterize", (mu, _passed), (log_sigma, to_log_sigma_grad))


def _kl_log_sigma_grad(c0: np.ndarray, log_sigma: np.ndarray, clamp: float) -> np.ndarray:
    grad = np.empty_like(log_sigma)
    for lo, hi in _row_blocks(log_sigma):
        ls, c, rows = log_sigma[lo:hi], c0 if len(c0) == 1 else c0[lo:hi], grad[lo:hi]
        np.clip(ls, -clamp, clamp, out=rows)
        rows *= 2.0
        np.exp(rows, out=rows)
        rows *= c
        rows -= c
        rows *= 2.0
        rows *= (ls >= -clamp) & (ls <= clamp)
    return grad


def gaussian_kl(mu: Node, log_sigma: Node, clamp: float, weight) -> Node:
    """KL(N(mu, exp(log_sigma)^2) || N(0, I)) summed over columns, with rows
    weighted as `frobenius_sq` weights them (1/n gives a mean), as a 1x1
    node; log_sigma is clipped to +-clamp, and no gradient passes outside.

    With c = clip(log_sigma) and weight 1/n the value is
    (sum(((mu^2 + exp(2c)) - 1) - 2c) * (1/n)) * 0.5, and the gradients
    follow the composed clip/scale/square/exp/sub/reduce_sum chain
    operation by operation, so both are bitwise equal to it (the factor 0.5
    is exact wherever it is applied). The forward holds one n x z array, the
    entries to be summed, which stays whole, as one reduction over it gives
    the sum's bits; a column weight scales it in place. A block of rows at a
    time fills it, with one block of 2c, which is exponentiated in place and
    then made again, exactly, as clip and doubling are. The locals read mu
    and log_sigma alone; each recomputes c0 = g * weight * 0.5, 1x1 or one
    column, and the log_sigma local works a block of rows at a time in its
    output."""
    if mu.shape != log_sigma.shape:
        raise ShapeError(f"gaussian_kl: {_describe(mu, log_sigma)} differ")
    clamp = float(clamp)
    muv, lsv = mu.value, log_sigma.value
    blocks = _row_blocks(lsv)
    per_entry, buffer = np.empty_like(muv), np.empty_like(lsv[:blocks[0][1] if blocks else 0])
    for lo, hi in blocks:
        entry, two_c = per_entry[lo:hi], np.clip(lsv[lo:hi], -clamp, clamp, out=buffer[:hi - lo])
        two_c *= 2.0
        np.multiply(muv[lo:hi], muv[lo:hi], out=entry)
        entry += np.exp(two_c, out=two_c)
        entry -= 1.0
        np.clip(lsv[lo:hi], -clamp, clamp, out=two_c)
        two_c *= 2.0
        entry -= two_c
    return _result(
        _weighted_sum(per_entry, weight) * 0.5, "gaussian_kl",
        (mu, lambda g: g * weight * 0.5 * 2.0 * muv),
        (log_sigma, lambda g: _kl_log_sigma_grad(g * weight * 0.5, lsv, clamp)),
    )


def _column_times_rows_sum(column: np.ndarray, x: np.ndarray, blocks) -> np.ndarray:
    """(column * x).sum(axis=0, keepdims=True) for an n x 1 column, bitwise,
    with no n x d product. numpy sums a C-ordered table of two or more
    columns over its rows one row after another in each column, so each
    block's products are written below the running sum, which is the first
    row of one block's scratch, and that block is summed. One column is
    summed pairwise down its contiguous rows instead, so there the product,
    n x 1 like the column, is summed whole."""
    if x.shape[1] == 1 or len(blocks) < 2:
        return (column * x).sum(axis=0, keepdims=True)
    scratch = np.empty((blocks[0][1] + 1, x.shape[1]))
    top = 0
    for lo, hi in blocks:
        part = scratch[:top + hi - lo]
        np.multiply(column[lo:hi], x[lo:hi], out=part[top:])
        scratch[:1] = total = part.sum(axis=0, keepdims=True)
        top = 1
    return total


def rowwise_cosine(a: Node, b: Node, eps: float) -> Node:
    """n x 1 cosine similarity of each row of a with the matching row of b,
    or with b itself when b is a single 1 x d row; eps is added under each
    square root, sqrt(sum(a_i^2) + eps).

    The locals read a, b and three n x 1 columns (the cosines and both
    norms): d cos / d a = b / (|a||b|) - cos * a / |a|^2, and symmetrically
    for b. Each makes its first term as its output and subtracts its second
    term from it a block of rows at a time; a one-row b sums its first term
    over the rows a block at a time too. The row sums of the forward are
    formed a block of rows at a time."""
    if b.shape != a.shape and b.shape != (1, a.shape[1]):
        raise ShapeError(f"rowwise_cosine: b must match a or be one row, got {_describe(a, b)}")
    av, bv = a.value, b.value
    one_row = b.shape != a.shape
    blocks = _row_blocks(av)
    norm_a, dot = np.empty((len(av), 1)), np.empty((len(av), 1))
    norm_b = np.sqrt((bv * bv).sum(axis=1, keepdims=True) + eps) if one_row else np.empty((len(av), 1))
    for lo, hi in blocks:
        a_rows, b_rows = av[lo:hi], bv if one_row else bv[lo:hi]
        np.sqrt((a_rows * a_rows).sum(axis=1, keepdims=True) + eps, out=norm_a[lo:hi])
        if not one_row:
            np.sqrt((b_rows * b_rows).sum(axis=1, keepdims=True) + eps, out=norm_b[lo:hi])
        (a_rows * b_rows).sum(axis=1, keepdims=True, out=dot[lo:hi])
    out = dot / (norm_a * norm_b)

    def minus_rows(grad, column, x):
        for lo, hi in blocks:
            grad[lo:hi] -= column[lo:hi] * x[lo:hi]
        return grad

    def to_a_grad(g):
        return minus_rows(g / (norm_a * norm_b) * bv, g * out / (norm_a * norm_a), av)

    def to_b_grad(g):
        if one_row:
            grad = _column_times_rows_sum(g / (norm_a * norm_b), av, blocks)
            grad -= (g * out / (norm_b * norm_b)).sum(axis=0, keepdims=True) * bv
            return grad
        return minus_rows(g / (norm_a * norm_b) * av, g * out / (norm_b * norm_b), bv)

    return _result(out, "rowwise_cosine", (a, to_a_grad), (b, to_b_grad))


def softplus(x: Node) -> Node:
    """log(1 + exp(x)), elementwise, as `np.logaddexp(0, x)`, which never
    overflows; the local reads x and the output, as sigmoid(x) = exp(x - out)."""
    xv, out = x.value, np.logaddexp(0.0, x.value)
    return _result(out, "softplus", (x, lambda g: g * np.exp(xv - out)))


# ---------------------------------------------------------------------------
# graph traversal


def _topological_order(root: Entry) -> list[Entry]:
    order: list[Entry] = []
    visited: set[int] = set()
    stack: list[tuple[Entry, bool]] = [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            order.append(entry)
            continue
        if id(entry) in visited:
            continue
        visited.add(id(entry))
        stack.append((entry, True))
        for parent, _ in entry.shares:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Populate gradients of every trainable leaf reachable from the loss:
    the engine's one chain-rule loop.

    The loss must be 1x1. Each entry is popped exactly once, in reverse
    topological order; it hands each share its parent's part, dropping each
    delta once the parent has added it (a delta kept as the parent's first
    gradient stays, as that gradient), and then drops its shares and, unless
    it is the loss's, its gradient. A second call on the same loss node is
    rejected.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: loss '{loss.name}' must be 1x1, got {loss.shape}")
    if loss._backward_ran:
        raise RuntimeError("backward already ran for this graph; rebuild it before calling again")
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError(f"backward: loss '{loss.name}' is non-finite")
    loss._backward_ran = True
    root = loss.entry
    if not root.requires_grad:
        return
    root.grad = np.ones((1, 1))
    order = _topological_order(root)
    while order:
        entry = order.pop()
        if not entry.shares:
            continue  # a leaf keeps its gradient
        for parent, local in entry.shares:
            delta = local(entry.grad)
            # a delta that owns its memory and is not the node's own gradient was made by the local
            parent.accumulate(delta, made=delta is not entry.grad and delta.base is None)
            del delta  # added, or kept as the parent's gradient: not alive beside the next local's
        # the locals, and the arrays only they read, go now, as does the gradient
        del parent, local
        entry.shares = ()
        if entry is not root:
            entry.grad = None


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))
