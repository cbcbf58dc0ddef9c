"""Independent brute-force oracles used by the test suite.

The linear-algebra oracles import nothing from the code paths they check:
the Jacobi eigendecomposition below is a from-scratch cyclic-rotation
solver, the rank-k error formula goes through the Gram spectrum only, and a
CSR matrix is densified from its three arrays. `gradient_check` compares the
engine's gradients with central differences, and `registered_paramset` is the
parameter initialization as it was before `init_paramset` walked
`checkpoint.param_shapes`.

The reference protocols further down are the per-repeat evaluation loops
the whole-array ones in `leda.evaluate` replaced, kept verbatim (the probe
still differentiates through the engine), the MI diagnostic as one product
of all pairs in place of streamed blocks, an embedding that wraps every
checkpoint tensor as an engine constant, and an unchecked checkpoint writer
for files that `save_checkpoint` refuses to write. `gcn_direct_order` puts
back the LDA layers as they were before the graph operator moved to the
narrow side of their weight products, and `composed_forms` the KL,
reparameterization and row-wise cosine as they were built from elementary
primitives before each became one fused primitive;
`whole_array_reparameterize`, `whole_array_gaussian_kl` and
`whole_array_rowwise_cosine` are those fused primitives as they were before
they worked a block of rows at a time. `member_loop_epoch_loss` is the epoch
loss as it was before a graph-level domain became one block-diagonal graph:
a loop over the member graphs. `fix_signs_loop` is the
basis sign convention as a per-column loop, as it was before `basis_signs`.
`scipy_normalized_adjacency` is the normalization as scipy's D (A + I) D,
and `scipy_from_dense` a table's nonzeros as scipy's `csr_matrix`, the
routes `normalize_adjacency` and `CsrMatrix.from_dense` replaced.
`scipy_truncated_svd` is the truncated SVD as it was when a CsrMatrix's
products were scipy's `@`. Each scipy matrix here comes from `scipy_csr`,
scipy's CSR matrix on a CsrMatrix's own three arrays. The edge path as it
was before it stopped building whole-graph temporaries is kept too:
`one_list_edge_text`, the edges writer with every pair in one list;
`divmod_from_edges`, `CsrMatrix.from_edges` from i, j and divmod;
`int64_rows_normalized_adjacency`, the normalization with int64 rows; and
`int64_csr_check`, `CsrMatrix`'s checks on its index arrays upcast to int64.
`column_fixed_width` is the byte-grid decoder as it was before it decoded a
block of lines at a time: one whole-table pass per byte column.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from leda import autodiff as ad
from leda import evaluate, lda, trainer
from leda.checkpoint import basis_tensor_name
from leda.dpu import align, alignment_penalties, init_basis, trans
from leda.errors import ConfigError, DataError, NumericError
from leda.evaluate import (
    COSINE_EPS,
    PROBE_L2,
    PROBE_LR,
    PROBE_STEPS,
    EvalReport,
    macro_f1,
    mi_from_scores,
)
from leda.lda import base_layer, encode, loss_total_domain, propagate_extra
from leda.linalg import (
    SVD_OVERSAMPLE,
    SVD_POWER_ITERS,
    SPARSE_FEATURE_DENSITY,
    CsrMatrix,
    SvdResult,
    _finite_sketch,
    as_dense,
    basis_signs,
    normalize_adjacency,
)
from leda.optim import AdamWState, adamw_step


def jacobi_eigh(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.allclose(a, a.T, atol=1e-12)
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, np.sqrt(np.sum(np.diag(a) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def best_rank_k_error(x: np.ndarray, k: int) -> float:
    """Frobenius error of the optimal rank-k approximation of x.

    Computed from the Jacobi spectrum of x^T x:
    err^2 = ||x||_F^2 - sum of the k largest eigenvalues.
    """
    x = np.asarray(x, dtype=np.float64)
    w, _ = jacobi_eigh(x.T @ x)
    w = np.clip(w, 0.0, None)
    err_sq = float(np.sum(x * x) - np.sum(w[:k]))
    return float(np.sqrt(max(0.0, err_sq)))


def central_difference_grad(loss_fn, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Entrywise central finite-difference gradient of a scalar loss."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = theta.copy()
        bumped[idx] += eps
        up = loss_fn(bumped)
        bumped[idx] -= 2 * eps
        down = loss_fn(bumped)
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def gradient_check(loss_fn, params: dict, eps: float = 1e-5) -> float:
    """Max relative gap between analytic and central-difference gradients.

    The loss builder must be deterministic (any sampling frozen outside).
    Relative error per entry is |analytic - fd| / max(1, |fd|).
    """
    if len(params) == 0:
        return 0.0
    for node in params.values():
        node.grad = np.zeros_like(node.value)
    loss = loss_fn(params)
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError("gradient_check: loss is non-finite")
    ad.backward(loss)
    analytic = {name: node.grad.copy() for name, node in params.items()}

    worst = 0.0
    for name, node in params.items():
        base = node.value.copy()
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            node.value[idx] = base[idx] + eps
            up = loss_fn(params).value[0, 0]
            node.value[idx] = base[idx] - eps
            down = loss_fn(params).value[0, 0]
            node.value[idx] = base[idx]
            fd = (up - down) / (2.0 * eps)
            rel = abs(analytic[name][idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            it.iternext()
        node.value[...] = base
    return worst


def to_dense(m) -> np.ndarray:
    """A CsrMatrix as a dense array, built from its row offsets, column
    indices and values."""
    out = np.zeros((m.rows, m.cols))
    out[np.repeat(np.arange(m.rows), np.diff(m.row_offsets)), m.col_indices] = m.values
    return out


def assert_same_operand(expected, got) -> None:
    """One form (dense array or CsrMatrix, of whichever CsrMatrix type) and
    shape, and each array of it of the same dtype, bit for bit."""
    form = lambda x: CsrMatrix if isinstance(x, CsrMatrix) else type(x)
    assert form(got) is form(expected) and got.shape == expected.shape
    parts = lambda x: (x.row_offsets, x.col_indices, x.values) if isinstance(x, CsrMatrix) else (x,)
    for want, have in zip(parts(expected), parts(got)):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()


def scipy_csr(m: CsrMatrix) -> sp.csr_matrix:
    """scipy's CSR matrix on m's three arrays, which it shares when their
    index dtype is the one scipy picks."""
    return sp.csr_matrix((m.values, m.col_indices, m.row_offsets), shape=m.shape)


def scipy_normalized_adjacency(adj: CsrMatrix) -> CsrMatrix:
    """D (A + I) D with D = diag(1 / sqrt(deg)), by scipy's sparse sum and
    products, the degrees counting the self-loop."""
    a_tilde = (scipy_csr(adj) + sp.identity(adj.rows, format="csr")).tocsr()
    scale = sp.diags(1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel()))
    s = (scale @ a_tilde @ scale).tocsr()
    s.sort_indices()
    return CsrMatrix.from_scipy(s)


def scipy_truncated_svd(x: np.ndarray | CsrMatrix, k: int, seed: int) -> SvdResult:
    """`linalg.truncated_svd` as it was when a CsrMatrix's products were
    scipy's `@` and `.T` on its `scipy_csr` matrix, kept verbatim."""
    # scipy's CSR matrix and a dense array take the same `@` and `.T` below
    x = scipy_csr(x) if isinstance(x, CsrMatrix) else as_dense(x, "svd input")
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise DataError(f"svd rank k={k} out of range for {n}x{d} input")
    ell = min(k + SVD_OVERSAMPLE, min(n, d))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, ell))
    # a sketch product that overflows is named by _finite_sketch; qr and svd
    # set their own error state
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SVD_POWER_ITERS):
            z, _ = np.linalg.qr(_finite_sketch(x.T @ (x @ z)))
        q, _ = np.linalg.qr(_finite_sketch(x @ z))
        u_small, s, vt = np.linalg.svd(_finite_sketch(q.T @ x), full_matrices=False)
    v = vt[:k].T.copy()
    signs = basis_signs(v)
    v *= signs
    return SvdResult(U=(q @ u_small[:, :k]) * signs, singular_values=s[:k].copy(), V=v)


def scipy_from_dense(x: np.ndarray, divisor: float | None = None) -> CsrMatrix:
    """The nonzeros of a table as scipy's `csr_matrix` finds them, with
    explicit zeros (-0.0) eliminated, as float64 over `divisor` if given."""
    m = sp.csr_matrix(x)
    m.eliminate_zeros()
    values = m.data.astype(np.float64)
    return CsrMatrix(m.shape[0], m.shape[1], m.indptr, m.indices,
                     values if divisor is None else values / divisor)


def svd_product(result) -> np.ndarray:
    """U diag(s) V^T of a truncated SVD."""
    return (result.U * result.singular_values) @ result.V.T


def registered_paramset(config) -> dict[str, ad.Node]:
    """The parameters of `init_paramset(config)`, drawn as the DPU and LDA
    `register` functions drew them, verbatim: both groups share the
    [seed, 101] stream, W1 b1 W2 b2 then W_base W_mu W_sigma W_dec."""
    rng = np.random.default_rng([config.seed, 101])
    arrays = {
        "dpu.W1": ad.glorot_uniform(rng, config.k, config.h),
        "dpu.b1": np.zeros((1, config.h)),
        "dpu.W2": ad.glorot_uniform(rng, config.h, config.m),
        "dpu.b2": np.zeros((1, config.m)),
        "lda.W_base": ad.glorot_uniform(rng, config.m, config.h_e),
        "lda.W_mu": ad.glorot_uniform(rng, config.h_e, config.z),
        "lda.W_sigma": ad.glorot_uniform(rng, config.h_e, config.z),
        "lda.W_dec": ad.glorot_uniform(rng, config.z, config.m),
    }
    return {name: ad.parameter(value, name) for name, value in arrays.items()}


def direct_reconstruction(x: np.ndarray, vhat: np.ndarray) -> tuple[float, np.ndarray]:
    """||x - x vhat vhat^T||_F^2 and its gradient in vhat, in the direct form.

    With R = x - x vhat vhat^T the gradient is -2 (x^T R vhat + R^T x vhat).
    """
    x = np.asarray(x, dtype=np.float64)
    vhat = np.asarray(vhat, dtype=np.float64)
    xv = x @ vhat
    r = x - xv @ vhat.T
    grad = -2.0 * (x.T @ (r @ vhat) + r.T @ xv)
    return float(np.sum(r * r)), grad


# ---------------------------------------------------------------------------
# reference evaluation protocols: one repeat, one autodiff graph at a time


def softmax_cross_entropy(logits, onehot):
    # the row max enters twice: as an n x c constant under the exp, since
    # the elementwise ops take operands of one shape, and as an n x 1 one
    row_max = logits.value.max(axis=1, keepdims=True)
    shift = ad.constant(np.broadcast_to(row_max, logits.shape), "row_max")
    summed = ad.reduce_sum(ad.exp(ad.sub(logits, shift)), axis=1)
    lse = ad.add(ad.constant(row_max, "row_max"), ad.log(summed))
    picked = ad.reduce_sum(ad.mul(logits, ad.constant(onehot, "onehot")), axis=1)
    return ad.reduce_mean(ad.sub(lse, picked))


def probe_loss(x_const, w, b, onehot):
    """The probe objective built from engine primitives."""
    logits = ad.add_row_bias(ad.matmul(x_const, w), b)
    return ad.add(
        softmax_cross_entropy(logits, onehot),
        ad.scale(ad.frobenius_sq(w), PROBE_L2),
    )


def fit_logistic(train_x, train_y, num_classes):
    w = ad.parameter(np.zeros((train_x.shape[1], num_classes)), "probe.W")
    b = ad.parameter(np.zeros((1, num_classes)), "probe.b")
    params = {"probe.W": w, "probe.b": b}
    onehot = np.eye(num_classes)[train_y]
    x_const = ad.constant(train_x, "probe_features")
    state = AdamWState.for_params(params, lr=PROBE_LR, weight_decay=0.0)
    for _ in range(PROBE_STEPS):
        w.grad = np.zeros_like(w.value)
        b.grad = np.zeros_like(b.value)
        loss = probe_loss(x_const, w, b, onehot)
        ad.backward(loss)
        adamw_step(params, state)
    return w.value.copy(), b.value.copy()


def stratified_split(labels, train_frac, rng):
    train_idx = []
    test_idx = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        shuffled = rng.permutation(members)
        take = max(1, int(round(train_frac * len(members))))
        train_idx.extend(shuffled[:take].tolist())
        test_idx.extend(shuffled[take:].tolist())
    if not test_idx:
        raise DataError("split left no test nodes; lower train_frac")
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def linear_probe(embeddings, train_frac=0.1, runs=20, seed=66666):
    if embeddings.labels is None:
        raise DataError("linear probe needs labels")
    labels = embeddings.labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DataError("linear probe needs at least two classes")
    num_classes = int(labels.max()) + 1
    accuracies = []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        train_idx, test_idx = stratified_split(labels, train_frac, rng)
        w, b = fit_logistic(embeddings.E[train_idx], labels[train_idx], num_classes)
        pred = np.argmax(embeddings.E[test_idx] @ w + b, axis=1)
        accuracies.append(100.0 * float(np.mean(pred == labels[test_idx])))
    acc = np.array(accuracies)
    return EvalReport(
        task="linear-probe",
        mean_accuracy=float(acc.mean()),
        std=float(acc.std()),
        repeats=runs,
        seed=seed,
    )


def cosine_to_prototypes(queries, prototypes):
    qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), COSINE_EPS)
    pn = prototypes / np.maximum(np.linalg.norm(prototypes, axis=1, keepdims=True), COSINE_EPS)
    return qn @ pn.T


def fewshot_eval(embeddings, k=1, repeats=500, seed=66666):
    if embeddings.labels is None:
        raise DataError("few-shot evaluation needs labels")
    labels = embeddings.labels
    classes = np.unique(labels)
    counts = {int(c): int(np.sum(labels == c)) for c in classes}
    short = [c for c, n in counts.items() if n < k]
    if short:
        raise DataError(f"classes {short} have fewer than k={k} samples")
    if all(n == k for n in counts.values()):
        raise DataError("support would cover every node; no queries left")
    accuracies = []
    for repeat in range(repeats):
        rng = np.random.default_rng(seed + repeat)
        support = []
        prototypes = []
        for c in classes:
            members = np.flatnonzero(labels == c)
            chosen = rng.choice(members, size=k, replace=False)
            support.extend(chosen.tolist())
            prototypes.append(embeddings.E[chosen].mean(axis=0))
        query = np.setdiff1d(np.arange(len(labels)), np.array(support))
        sims = cosine_to_prototypes(embeddings.E[query], np.stack(prototypes))
        pred = classes[np.argmax(sims, axis=1)]
        accuracies.append(100.0 * float(np.mean(pred == labels[query])))
    acc = np.array(accuracies)
    return EvalReport(
        task="fewshot",
        mean_accuracy=float(acc.mean()),
        std=float(acc.std()),
        repeats=repeats,
        seed=seed,
    )


def graph_eval(collection, ckpt, support_per_class=1, repeats=500, seed=66666, t=0):
    if collection.task_kind != "graph-level":
        raise DataError("graph_eval needs a graph-level collection")
    labels = np.array([g.graph_label for g in collection.graphs], dtype=np.int64)
    classes = np.unique(labels)
    counts = {int(c): int(np.sum(labels == c)) for c in classes}
    short = [c for c, n in counts.items() if n < support_per_class]
    if short:
        raise DataError(f"classes {short} have fewer than {support_per_class} graphs")
    if all(n == support_per_class for n in counts.values()):
        raise DataError("support would cover every graph; query set is empty")

    pooled = evaluate.pooled_graph_embeddings(collection, ckpt, t)
    accuracies = []
    f1s = []
    for repeat in range(repeats):
        rng = np.random.default_rng(seed + repeat)
        support = []
        prototypes = []
        for c in classes:
            members = np.flatnonzero(labels == c)
            chosen = rng.choice(members, size=support_per_class, replace=False)
            support.extend(chosen.tolist())
            prototypes.append(pooled[chosen].mean(axis=0))
        query = np.setdiff1d(np.arange(len(labels)), np.array(support))
        sims = cosine_to_prototypes(pooled[query], np.stack(prototypes))
        pred = classes[np.argmax(sims, axis=1)]
        accuracies.append(100.0 * float(np.mean(pred == labels[query])))
        f1s.append(100.0 * macro_f1(labels[query], pred))
    acc = np.array(accuracies)
    f1 = np.array(f1s)
    flags = ["prototype-from-support"]
    if any(g.degree_featurized for g in collection.graphs):
        flags.append("degree-featurized")
    return EvalReport(
        task="graph-fewshot",
        mean_accuracy=float(acc.mean()),
        std=float(acc.std()),
        repeats=repeats,
        seed=seed,
        flags=flags,
        extras={"mean_macro_f1": float(f1.mean()), "std_macro_f1": float(f1.std())},
    )


def mi_diagnostic(e_i, e_j, tau):
    """Every pair's score from one (n_i x dim) by (dim x n_j) product, then
    `mi_from_scores` over the whole array."""
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    if e_i.E.shape[0] == 0 or e_j.E.shape[0] == 0:
        raise DataError("embedding sets must be non-empty")
    a = e_i.E / np.maximum(np.linalg.norm(e_i.E, axis=1, keepdims=True), COSINE_EPS)
    b = e_j.E / np.maximum(np.linalg.norm(e_j.E, axis=1, keepdims=True), COSINE_EPS)
    record = mi_from_scores((a @ b.T) / tau)
    record["domains"] = [e_i.domain_id, e_j.domain_id]
    record["tau"] = tau
    return record


def write_embeddings_tsv(embeddings, path):
    lines = [
        str(i) + "\t" + "\t".join(repr(float(v)) for v in row)
        for i, row in enumerate(embeddings.E)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# dataset files


def edge_lines(adj):
    """An edges file's text formatted one string per edge: each upper
    triangle entry (i, j) of the adjacency as "i\tj\n", in CSR order."""
    rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_offsets))
    upper = rows < adj.col_indices
    return "".join(f"{r}\t{c}\n" for r, c in zip(rows[upper].tolist(), adj.col_indices[upper].tolist()))


def one_list_edge_text(adj):
    """An edges file's text as `save_dataset` made it before it wrote a chunk
    at a time: every upper-triangle pair in one list, one `%` over all."""
    rows = np.repeat(np.arange(adj.rows), np.diff(adj.row_offsets))
    upper = rows < adj.col_indices
    pairs = np.stack([rows[upper], adj.col_indices[upper]], axis=1).ravel().tolist()
    return ("%d\t%d\n" * (len(pairs) // 2)) % tuple(pairs)


# ---------------------------------------------------------------------------
# the CSR edge path as it was: int64 index arrays throughout


def divmod_from_edges(n, edges) -> CsrMatrix:
    """`CsrMatrix.from_edges` as it was: i and j concatenated, a sorted copy
    of their keys, a diff mask, and rows and columns by divmod."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise DataError(f"edge node index outside [0, {n})")
    i = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j = np.concatenate([pairs[:, 1], pairs[:, 0]])
    keys = np.sort(i * n + j)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return CsrMatrix(rows=n, cols=n, row_offsets=offsets, col_indices=cols, values=np.ones(len(keys)))


def int64_rows_normalized_adjacency(adj: CsrMatrix) -> CsrMatrix:
    """`normalize_adjacency` as it was: int64 rows per entry, the diagonal
    inserted into both rows and columns, each value inv_sqrt[row] *
    inv_sqrt[col]."""
    n, offsets, cols = adj.rows, adj.row_offsets, adj.col_indices
    lengths = np.diff(offsets)
    rows = np.repeat(np.arange(n), lengths)
    below = np.bincount(rows[cols < rows], minlength=n)
    at = offsets[:-1] + below
    rows, cols = np.insert(rows, at, np.arange(n)), np.insert(cols, at, np.arange(n))
    inv_sqrt = 1.0 / np.sqrt(lengths + 1.0)
    return CsrMatrix(n, n, offsets + np.arange(n + 1), cols, inv_sqrt[rows] * inv_sqrt[cols])


def int64_csr_check(rows, cols, row_offsets, col_indices, values) -> None:
    """`CsrMatrix`'s checks as they were, on its index arrays upcast to
    int64: raises what they raised, in their order."""
    offsets = np.asarray(row_offsets, dtype=np.int64)
    indices = np.asarray(col_indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if offsets.shape != (rows + 1,):
        raise DataError("row_offsets must have length rows+1")
    if offsets[0] != 0 or offsets[-1] != len(indices):
        raise DataError("row_offsets must start at 0 and end at nnz")
    if np.any(np.diff(offsets) < 0):
        raise DataError("row_offsets must be nondecreasing")
    if len(indices) != len(values):
        raise DataError("col_indices and values must have equal length")
    if len(indices) and (indices.min() < 0 or indices.max() >= cols):
        raise DataError("column index out of range")
    if len(indices) > 1:
        steps = np.diff(indices)
        starts = offsets[1:-1]
        steps[starts[(starts > 0) & (starts < len(indices))] - 1] = 1
        bad = np.flatnonzero(steps <= 0)
        if len(bad):
            r = int(np.searchsorted(offsets, bad[0] + 1, side="right")) - 1
            raise DataError(f"column indices not strictly increasing in row {r}")
    if not np.all(np.isfinite(values)):
        raise NumericError("sparse values contain non-finite entries")


def column_fixed_width(raw: bytes) -> np.ndarray | CsrMatrix | None:
    """`datasets._load_fixed_width` as it was before it decoded a block of
    lines at a time: one stride pass over the whole grid per byte column,
    each building a whole-table temporary, then `feature_operand`'s rule with
    the nonzeros found as scipy finds them (`scipy_from_dense`)."""
    line = raw.find(b"\n") + 1
    tab = raw.find(b"\t", 0, line)
    step = line if tab < 0 else tab + 1
    if not line or len(raw) % line or line % step:
        return None
    token = raw[:step - 1]
    point = token.find(b".")
    digits = len(token) - (point >= 0)
    if not 0 < digits <= 15:
        return None
    grid = np.frombuffer(raw, np.uint8).reshape(len(raw) // line, line // step, step)
    ends = np.full(grid.shape[1], ord("\t"), np.uint8)
    ends[-1] = ord("\n")
    if np.any(grid[:, :, -1] != ends):
        return None
    table = None
    for k in range(step - 1):
        if k == point:
            if np.any(grid[:, :, k] != ord(".")):
                return None
            continue
        digit = grid[:, :, k] - np.uint8(ord("0"))
        if digit.max() > 9:
            return None
        if table is None:
            table = digit.astype(np.min_scalar_type(10 ** digits - 1), copy=False)
        else:
            table *= 10
            table += digit
    divisor = float(10 ** (digits - point if point >= 0 else 0))
    if np.count_nonzero(table) > SPARSE_FEATURE_DENSITY * table.size:
        return np.divide(table, divisor)
    return scipy_from_dense(table, divisor)


# ---------------------------------------------------------------------------
# raw checkpoint files


def split_checkpoint(blob):
    (header_len,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12:12 + header_len]), blob[12 + header_len:]


def join_checkpoint(header, payload):
    header_bytes = json.dumps(header).encode("utf-8")
    return b"LEDACKPT" + struct.pack("<I", len(header_bytes)) + header_bytes + payload


def write_unchecked_checkpoint(ckpt, path):
    """The checkpoint format without any shape check, for files that only
    `load_checkpoint` must refuse."""
    tensors = dict(ckpt.params)
    for basis in ckpt.bases:
        tensors[basis_tensor_name(basis.domain_id)] = basis.V
    entries = []
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append(
            {"name": name, "rows": arr.shape[0], "cols": arr.shape[1], "offset": len(payload)}
        )
        payload.extend(arr.tobytes(order="C"))
    header = {
        "version": 1,
        "config": ckpt.config.to_dict(),
        "tensors": entries,
        "bases": [
            {"domain_id": b.domain_id, "padded": b.padded, "tensor": basis_tensor_name(b.domain_id)}
            for b in ckpt.bases
        ],
        "epoch": ckpt.epoch,
        "final_loss": ckpt.final_loss,
    }
    Path(path).write_bytes(join_checkpoint(header, bytes(payload)))


def embed_with_constants(domain, ckpt, t=0):
    """Node embeddings with every checkpoint tensor wrapped as an engine
    constant, in a plain dict keyed by tensor name."""
    p = {name: ad.constant(value, name) for name, value in ckpt.params.items()}
    basis = ckpt.basis_for(domain.domain_id)
    if basis is None:
        basis = init_basis(domain.features, ckpt.config.k, seed=ckpt.config.seed,
                           domain_id=domain.domain_id)
    no_dpu = ckpt.config.variant == "no-dpu"
    vhat = ad.constant(basis.V, "basis") if no_dpu else trans(basis.V, p, "full")
    xhat = align(domain.features, vhat)
    s = normalize_adjacency(domain.adjacency)
    variant = ckpt.config.variant
    if variant in ("full", "no-dpu"):
        base = encode(xhat, s, p)[0].value
    elif variant == "no-lda":
        base = s.matmul_dense(xhat.value)
    else:
        base = base_layer(xhat, s, p).value
    return propagate_extra(base, s, t)


def _direct_base_layer(xhat, s, params):
    return ad.relu(ad.sparse_matmul(s, ad.matmul(xhat, params["lda.W_base"])))


def _direct_decode(z, s, params):
    return ad.matmul(ad.sparse_matmul(s, z), params["lda.W_dec"])


@contextmanager
def gcn_direct_order():
    """Within the block the LDA layers apply S on the wide side of their
    weight products, verbatim as before the reassociation: `base_layer` is
    relu(S (Xhat W_base)) at width h_e and `decode` is (S z) W_dec at width z.
    `encode`, `loss_total_domain` and the trainer's dpu-cl views follow,
    since they look both layers up at call time."""
    saved = lda.base_layer, lda.decode, trainer.base_layer
    lda.base_layer = trainer.base_layer = _direct_base_layer
    lda.decode = _direct_decode
    try:
        yield
    finally:
        lda.base_layer, lda.decode, trainer.base_layer = saved


def composed_kl_to_prior(mu, log_sigma, sizes):
    """`lda.kl_to_prior` as a chain of elementary primitives: of one graph
    verbatim; of M member graphs, each entry of member i is multiplied by a
    constant 1 / (n_i * M) before the sum."""
    assert sum(sizes) == mu.shape[0], sizes
    if mu.shape != log_sigma.shape:
        raise ConfigError(f"mu {mu.shape} and log_sigma {log_sigma.shape} must match")
    ls = ad.clip(log_sigma, -lda.LOG_SIGMA_CLAMP, lda.LOG_SIGMA_CLAMP)
    two_ls = ad.scale(ls, 2.0)
    ones = ad.constant(np.ones(mu.shape), "ones")
    per_entry = ad.sub(ad.sub(ad.add(ad.square(mu), ad.exp(two_ls)), ones), two_ls)
    if len(sizes) > 1:
        weights = np.repeat(1.0 / (np.asarray(sizes) * len(sizes)), sizes)[:, None]
        per_entry = ad.mul(per_entry, ad.constant(np.broadcast_to(weights, mu.shape), "member_weights"))
        return ad.scale(ad.reduce_sum(per_entry), 0.5)
    total = ad.scale(ad.reduce_sum(per_entry), 0.5)
    return ad.scale(total, 1.0 / mu.shape[0])


def composed_reparameterize(mu, log_sigma, eps):
    """The reparameterization as `lda.reparameterize_with_noise` built it
    from add/mul/exp/constant, verbatim."""
    if eps.shape != mu.shape:
        raise ConfigError(f"noise shape {eps.shape} must match mu shape {mu.shape}")
    return ad.add(mu, ad.mul(ad.exp(log_sigma), ad.constant(eps, "eps")))


def composed_rowwise_cosine(a, b):
    """The trainer's row-wise cosine as nine elementary nodes, verbatim, but
    for the elementwise ops' one-shape rule: a one-row b is tiled to a's rows
    by a product with a ones column, and eps is a column."""
    if b.shape != a.shape:
        b = ad.matmul(ad.constant(np.ones((a.shape[0], 1))), b)
    eps = ad.constant(np.full((a.shape[0], 1), trainer.COSINE_EPS), "cos_eps")
    num = ad.reduce_sum(ad.mul(a, b), axis=1)
    norm_a = ad.sqrt(ad.add(ad.reduce_sum(ad.square(a), axis=1), eps))
    norm_b = ad.sqrt(ad.add(ad.reduce_sum(ad.square(b), axis=1), eps))
    return ad.div(num, ad.mul(norm_a, norm_b))


def _composed_cosine_primitive(a, b, eps):
    assert eps == trainer.COSINE_EPS, eps
    return composed_rowwise_cosine(a, b)


@contextmanager
def composed_forms():
    """Within the block `lda.kl_to_prior`, `ad.reparameterize` and
    `ad.rowwise_cosine` are the elementary-primitive compositions above:
    `loss_total_domain` and the trainer's InfoNCE follow, since they look
    all three up at call time."""
    saved = lda.kl_to_prior, ad.reparameterize, ad.rowwise_cosine
    lda.kl_to_prior = composed_kl_to_prior
    ad.reparameterize = composed_reparameterize
    ad.rowwise_cosine = _composed_cosine_primitive
    try:
        yield
    finally:
        lda.kl_to_prior, ad.reparameterize, ad.rowwise_cosine = saved



# the fused primitives as they were before they worked a block of rows at a
# time: each forward value and local as one whole-array expression, verbatim


def _whole_array_weighted_sum(x, weight):
    if np.ndim(weight) == 0:
        return np.array([[x.sum()]]) * weight
    return np.array([[np.sum(x * weight)]])


def whole_array_reparameterize(mu, log_sigma, eps):
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    assert mu.shape == log_sigma.shape == eps.shape
    lsv = log_sigma.value
    return ad._result(
        mu.value + np.exp(lsv) * eps, "reparameterize",
        (mu, ad._passed),
        (log_sigma, lambda g: g * eps * np.exp(lsv)),
    )


def _whole_array_kl_log_sigma_grad(c0, log_sigma, clamp):
    inside = (log_sigma >= -clamp) & (log_sigma <= clamp)
    return (c0 * np.exp(np.clip(log_sigma, -clamp, clamp) * 2.0) - c0) * 2.0 * inside


def whole_array_gaussian_kl(mu, log_sigma, clamp, weight):
    assert mu.shape == log_sigma.shape
    clamp = float(clamp)
    muv, lsv = mu.value, log_sigma.value
    per_entry = muv * muv
    two_c = np.clip(lsv, -clamp, clamp)
    two_c *= 2.0
    per_entry += np.exp(two_c, out=two_c)
    per_entry -= 1.0
    np.clip(lsv, -clamp, clamp, out=two_c)
    two_c *= 2.0
    per_entry -= two_c
    return ad._result(
        _whole_array_weighted_sum(per_entry, weight) * 0.5, "gaussian_kl",
        (mu, lambda g: g * weight * 0.5 * 2.0 * muv),
        (log_sigma, lambda g: _whole_array_kl_log_sigma_grad(g * weight * 0.5, lsv, clamp)),
    )


def whole_array_rowwise_cosine(a, b, eps):
    assert b.shape == a.shape or b.shape == (1, a.shape[1])
    av, bv = a.value, b.value
    norm_a = np.sqrt((av * av).sum(axis=1, keepdims=True) + eps)
    norm_b = np.sqrt((bv * bv).sum(axis=1, keepdims=True) + eps)
    out = (av * bv).sum(axis=1, keepdims=True) / (norm_a * norm_b)
    # a one-row b: each of its two terms is summed over the rows by itself
    to_b = ad._passed if b.shape == a.shape else (lambda t: t.sum(axis=0, keepdims=True))

    def to_a_grad(g):
        grad = g / (norm_a * norm_b) * bv
        grad -= g * out / (norm_a * norm_a) * av
        return grad

    def to_b_grad(g):
        grad = to_b(g / (norm_a * norm_b) * av)
        grad -= to_b(g * out / (norm_b * norm_b)) * bv
        return grad

    return ad._result(out, "rowwise_cosine", (a, to_a_grad), (b, to_b_grad))

def _mean_nodes(nodes):
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return total if len(nodes) == 1 else ad.scale(total, 1.0 / len(nodes))


def member_loop_epoch_loss(collection, prepared, params, config, epoch):
    """`trainer.build_epoch_loss` as a loop over each domain's member graphs,
    in collection order: each takes its own alignment penalty, goes through
    `loss_total_domain` or makes its own dpu-cl view, alone, with its own
    features, its own normalized adjacency and the noise of its own stream;
    a domain's member terms are averaged. Returns (total node, components)."""
    variant = config.variant
    components, terms, views = {}, [], []

    def note(key, node):
        components[key] = components.get(key, 0.0) + float(node.value[0, 0])

    for domain in prepared:
        graphs = [g for g in collection.graphs if g.domain_id == domain.domain_id]
        streams = [lambda stream, i=i: np.random.default_rng(
            [config.seed, epoch, domain.key, i, stream]) for i in range(len(graphs))]
        vhat = trans(domain.basis.V, params, variant)
        if variant != "no-dpu":
            penalties = [alignment_penalties(align(g.features, vhat), vhat, np.sum(g.features ** 2), 1)
                         for g in graphs]
            recon, ortho = _mean_nodes([recon for recon, _ in penalties]), penalties[0][1]
            note("dpu_recon", recon)
            note("dpu_ortho", ortho)
            weight = config.mu_align if variant == "full" else 1.0
            terms.append(ad.scale(ad.add(recon, ad.scale(ortho, config.lam)), weight))
        if variant in ("full", "no-dpu"):
            member_terms = [
                loss_total_domain(
                    align(g.features, vhat), normalize_adjacency(g.adjacency), params, config.beta_kl,
                    rng(trainer._EPS_STREAM).standard_normal((g.num_nodes, config.z)), (g.num_nodes,),
                )
                for g, rng in zip(graphs, streams)
            ]
            loss, recon, kl = (_mean_nodes(list(column)) for column in zip(*member_terms))
            terms.append(loss)
            note("lda_recon", recon)
            note("kl", kl)
        if variant == "dpu-cl":
            for g, rng in zip(graphs, streams):
                xhat = align(g.features, vhat)
                mask = (rng(trainer._DROPOUT_STREAM).random(xhat.shape) >= trainer.DROPOUT_RATE) * 1.0
                s = normalize_adjacency(g.adjacency)
                views.append((base_layer(xhat, s, params),
                              base_layer(ad.mul(xhat, ad.constant(mask)), s, params)))
    if variant == "dpu-cl":
        nce = trainer.infonce_loss(views, config.tau)
        note("infonce", nce)
        terms.append(nce)
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    components["total"] = float(total.value[0, 0])
    return total, components


# ---------------------------------------------------------------------------
# basis sign convention


def fix_signs_loop(u, v):
    """Negate each column of v (and of u alongside) whose largest-magnitude
    entry, the first one on ties, is negative; both arrays in place."""
    for j in range(v.shape[1]):
        col = v[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            v[:, j] = -col
            u[:, j] = -u[:, j]
    return u, v
