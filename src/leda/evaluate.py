"""Downstream evaluation: linear probe, few-shot prototypes, graph-level
prototypes, and the cross-domain mutual-information diagnostic.

Embeddings are deterministic (posterior means, no sampling). Every protocol
repeats with derived seeds (base seed + repeat index) and reports accuracy
as mean +- population standard deviation in percent. Each is a whole-array
pass: one prototype loop serves nodes and graphs and scores a block of
repeats with one product, in at most PROTOTYPE_BLOCK_SCORES scores; a
probe step forms only its two closed-form gradients (bitwise the engine's),
and weights or AdamW second moments that end non-finite raise
NumericError; and sampled MI pairs are scored MI_BLOCK_PAIRS at a time, in
O(block * dim) memory. Graph pooling embeds each domain once, as the
block-diagonal union of its graphs.

The probe's runs, the prototype repeats and the sampled MI blocks are
independent, so each protocol hands them to `linalg.split_repeats`, which
runs contiguous shares of them in forked children, one per CPU, once a
share's multiply-adds pass REPEAT_MIN_WORK. Results come back in repeat
order and every repeat keeps its seed, so the reports do not depend on the
CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import Checkpoint
from .config import check_protocol_args
from .datasets import DomainGraph, GraphCollection, disjoint_union
from .dpu import align, init_basis, trans
from .errors import DataError, NumericError
from .lda import base_layer, encode, propagate_extra
from .linalg import EntropyResult, feature_operand, gaussian_entropy, normalize_adjacency, split_repeats
from .optim import AdamWState, adamw_step, check_second_moments

PROBE_STEPS = 300
PROBE_LR = 0.01
PROBE_L2 = 1e-4
COSINE_EPS = 1e-12
MI_MAX_PAIRS = 1_000_000
MI_BLOCK_PAIRS = 256
PROTOTYPE_BLOCK_SCORES = 1 << 20

MI_NOTE = "bias term (expected marginal correction) is not estimable from data; omitted"


@dataclass(frozen=True)
class EmbeddingSet:
    domain_id: str
    E: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        e = np.ascontiguousarray(self.E, dtype=np.float64)
        if not np.all(np.isfinite(e)):
            raise DataError(f"domain '{self.domain_id}': non-finite embeddings")
        object.__setattr__(self, "E", e)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if len(labels) != e.shape[0]:
                raise DataError("labels length must match embedding rows")
            if len(labels) and labels.min() < 0:  # a one-hot row would wrap onto another class
                raise DataError(f"domain '{self.domain_id}': labels must be >= 0, got {labels.min()}")
            object.__setattr__(self, "labels", labels)


@dataclass
class EvalReport:
    task: str
    mean_accuracy: float
    std: float
    repeats: int
    seed: int
    flags: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.mean_accuracy <= 100.0) or self.std < 0:
            raise DataError("accuracy must be in [0, 100] and std >= 0")

    def to_dict(self) -> dict:
        doc = {
            "task": self.task,
            "mean_accuracy": self.mean_accuracy,
            "std": self.std,
            "repeats": self.repeats,
            "seed": self.seed,
            "flags": sorted(self.flags),
        }
        doc.update(self.extras)
        return doc


def _checkpoint_params(ckpt: Checkpoint) -> dict[str, Node]:
    """The checkpoint's tensors as engine constants: nothing backpropagates here."""
    return {name: ad.constant(value, name) for name, value in ckpt.params.items()}


def embed(domain: DomainGraph, ckpt: Checkpoint, t: int = 0) -> EmbeddingSet:
    """Node embeddings for one graph under the checkpoint's variant, with its
    domain's checkpoint basis or one derived from its features as in training.

    full / no-dpu: posterior mean; no-lda: one parameter-free propagation of
    the aligned features; dpu-cl: the trained base-encoder output. Followed
    by t extra propagation steps. Deterministic (no sampling).
    """
    x = feature_operand(domain.features)
    basis = ckpt.basis_for(domain.domain_id)
    if basis is None:
        k = ckpt.config.k
        if k > min(x.shape):
            raise DataError(
                f"domain '{domain.domain_id}': cannot derive a rank-{k} basis "
                f"from a {x.shape[0]}x{x.shape[1]} feature matrix"
            )
        basis = init_basis(x, k, seed=ckpt.config.seed, domain_id=domain.domain_id)
    if basis.V.shape[0] != domain.feature_dim:
        raise DataError(
            f"domain '{domain.domain_id}': checkpoint basis expects feature dim "
            f"{basis.V.shape[0]}, graph has {domain.feature_dim}"
        )
    s = normalize_adjacency(domain.adjacency)
    params = _checkpoint_params(ckpt)
    variant = ckpt.config.variant
    xhat = align(x, trans(basis.V, params, variant))
    if variant in ("full", "no-dpu"):
        base = encode(xhat, s, params)[0].value
    elif variant == "no-lda":
        base = s.matmul_dense(xhat.value)
    else:  # dpu-cl
        base = base_layer(xhat, s, params).value
    out = propagate_extra(base, s, t)
    return EmbeddingSet(domain_id=domain.domain_id, E=out, labels=domain.labels)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), COSINE_EPS)


def _accuracy(true: np.ndarray, pred: np.ndarray) -> float:
    return 100.0 * float(np.mean(pred == true))


# ---------------------------------------------------------------------------
# linear probe


def _probe_grads(x: np.ndarray, w: np.ndarray, b: np.ndarray, onehot: np.ndarray):
    """Gradients in w and b of the mean softmax cross-entropy of x @ w + b
    plus PROBE_L2 * ||w||^2, without the loss. G = softmax / n - onehot / n
    and the rest are formed in the order `autodiff.backward` forms them on
    the engine-built loss, so both are bitwise the engine's."""
    inv_n = 1.0 / x.shape[0]
    logits = x @ w + b
    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1, keepdims=True)
    g = (inv_n / total) * e + (-inv_n) * onehot
    return x.T @ g + (PROBE_L2 * 2.0) * w, g.sum(axis=0, keepdims=True)


def _fit_logistic(train_x: np.ndarray, train_y: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    w = ad.parameter(np.zeros((train_x.shape[1], num_classes)), "probe.W")
    b = ad.parameter(np.zeros((1, num_classes)), "probe.b")
    params = {"probe.W": w, "probe.b": b}
    onehot = np.eye(num_classes)[train_y]
    state = AdamWState.for_params(params, lr=PROBE_LR, weight_decay=0.0)
    for _ in range(PROBE_STEPS):
        w.grad, b.grad = _probe_grads(train_x, w.value, b.value, onehot)
        adamw_step(params, state)
    # a non-finite gradient at any step leaves AdamW's moments, so the weights, non-finite
    if not (np.all(np.isfinite(w.value)) and np.all(np.isfinite(b.value))):
        raise NumericError("linear probe: fitted weights are non-finite")
    check_second_moments(state, "linear probe")
    return w.value.copy(), b.value.copy()


def _stratified_split(labels: np.ndarray, train_frac: float, rng) -> tuple[np.ndarray, np.ndarray]:
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        shuffled = rng.permutation(members)
        take = max(1, int(round(train_frac * len(members))))
        train_idx.extend(shuffled[:take].tolist())
        test_idx.extend(shuffled[take:].tolist())
    if not test_idx:
        raise DataError("split left no test nodes; lower train_frac")
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def linear_probe(
    embeddings: EmbeddingSet,
    train_frac: float = 0.1,
    runs: int = 20,
    seed: int = 66666,
) -> EvalReport:
    """Multinomial logistic regression on a stratified train_frac split,
    accuracy on the rest; mean +- std over the runs."""
    check_protocol_args(train_frac=train_frac, runs=runs)
    if embeddings.labels is None:
        raise DataError("linear probe needs labels")
    labels = embeddings.labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DataError("linear probe needs at least two classes")
    num_classes = int(labels.max()) + 1

    def accuracies(lo, hi):
        out = []
        for run in range(lo, hi):
            rng = np.random.default_rng(seed + run)
            train_idx, test_idx = _stratified_split(labels, train_frac, rng)
            w, b = _fit_logistic(embeddings.E[train_idx], labels[train_idx], num_classes)
            pred = np.argmax(embeddings.E[test_idx] @ w + b, axis=1)
            out.append(_accuracy(labels[test_idx], pred))
        return out

    # a step's two products, X W and X^T G, on about train_frac of the rows
    step_work = 2 * round(train_frac * len(labels)) * embeddings.E.shape[1] * num_classes
    acc = np.array(split_repeats(runs, runs * PROBE_STEPS * step_work, accuracies))
    return EvalReport(
        task="linear-probe",
        mean_accuracy=float(acc.mean()),
        std=float(acc.std()),
        repeats=runs,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# prototype protocols


def _prototype_scores(vectors, labels, shots: int, repeats: int, seed: int, score) -> list:
    """score(true, predicted) over the query rows of each repeat. Repeat r
    draws `shots` support rows per class, in class order, with rng(seed + r);
    their means are the prototypes, and every other row goes to the most
    cosine-similar one. Rows are normalized once, as gathering normalized
    rows equals normalizing gathered rows. A block of repeats is scored by
    one product of all rows with the block's prototypes, at most
    PROTOTYPE_BLOCK_SCORES entries (8 MB); each repeat takes the argmax over
    its own columns, and its query rows are picked afterwards. An entry is
    one dot product either way; tests pin that it keeps the per-repeat bits."""
    classes = np.unique(labels)
    members = [np.flatnonzero(labels == c) for c in classes]
    short = [int(c) for c, rows in zip(classes, members) if len(rows) < shots]
    if short:
        raise DataError(f"classes {short} have fewer than {shots} members")
    if all(len(rows) == shots for rows in members):
        raise DataError("support would cover every member; query set is empty")
    unit = _unit_rows(vectors)
    n, num_classes = len(labels), len(classes)
    step = max(1, PROTOTYPE_BLOCK_SCORES // (n * num_classes))

    def scored(first, end):
        scores = []
        for lo in range(first, end, step):
            drawn = []
            for repeat in range(lo, min(lo + step, end)):
                rng = np.random.default_rng(seed + repeat)
                drawn.append([rng.choice(rows, size=shots, replace=False) for rows in members])
            prototypes = _unit_rows(np.stack([vectors[rows].mean(axis=0) for chosen in drawn for rows in chosen]))
            winners = np.argmax((unit @ prototypes.T).reshape(n, len(drawn), num_classes), axis=2)
            for chosen, column in zip(drawn, winners.T):
                query = np.ones(n, dtype=bool)
                query[np.concatenate(chosen)] = False
                scores.append(score(labels[query], classes[column[query]]))
        return scores

    return split_repeats(repeats, repeats * unit.size * num_classes, scored)


def fewshot_eval(
    embeddings: EmbeddingSet,
    k: int = 1,
    repeats: int = 500,
    seed: int = 66666,
) -> EvalReport:
    """k-shot prototype classification: class prototypes are means of k
    sampled nodes; every remaining node is assigned by cosine similarity."""
    check_protocol_args(k=k, repeats=repeats)
    if embeddings.labels is None:
        raise DataError("few-shot evaluation needs labels")
    scores = _prototype_scores(embeddings.E, embeddings.labels, k, repeats, seed, _accuracy)
    acc = np.array(scores)
    return EvalReport(
        task="fewshot",
        mean_accuracy=float(acc.mean()),
        std=float(acc.std()),
        repeats=repeats,
        seed=seed,
    )


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over the classes present in y_true."""
    scores = []
    for c in np.unique(y_true):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def pooled_graph_embeddings(collection: GraphCollection, ckpt: Checkpoint, t: int = 0) -> np.ndarray:
    """Mean-pooled node embeddings, one row per graph of the collection. Each
    domain is embedded once, as the `disjoint_union` of its graphs (so a
    domain the checkpoint does not cover gets one basis from all their
    features), and a graph's row is the mean of its slice of the rows."""
    slices = {}  # per domain, its graphs' row slices in collection order
    for domain_id in collection.domain_ids():
        graphs = collection.by_domain(domain_id)
        e = embed(disjoint_union(graphs), ckpt, t).E
        slices[domain_id] = iter(np.split(e, np.cumsum([g.num_nodes for g in graphs])[:-1]))
    return np.stack([next(slices[g.domain_id]).mean(axis=0) for g in collection.graphs])


def graph_eval(
    collection: GraphCollection,
    ckpt: Checkpoint,
    support_per_class: int = 1,
    repeats: int = 500,
    seed: int = 66666,
    t: int = 0,
) -> EvalReport:
    """Prototype classification of whole graphs from a disjoint labeled
    support split (prototype-from-support protocol)."""
    check_protocol_args(support_per_class=support_per_class, repeats=repeats)
    if collection.task_kind != "graph-level":
        raise DataError("graph_eval needs a graph-level collection")
    scores = _prototype_scores(
        pooled_graph_embeddings(collection, ckpt, t),
        np.asarray(collection.graph_labels, dtype=np.int64),
        support_per_class, repeats, seed,
        lambda true, pred: (_accuracy(true, pred), 100.0 * macro_f1(true, pred)),
    )
    acc, f1 = (np.array(column) for column in zip(*scores))
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


# ---------------------------------------------------------------------------
# diagnostics


def mi_from_scores(scores: np.ndarray) -> dict:
    """Mutual-information proxy from temperature-scaled similarity scores:
    mean(s) - log-sum-exp(s). Invariant to a uniform additive shift."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise DataError("no similarity scores")
    shift = scores.max()
    log_z = shift + np.log(np.sum(np.exp(scores - shift)))
    expected = float(scores.mean())
    return {
        "expected_s": expected,
        "log_Z": float(log_z),
        "mi_proxy": float(expected - log_z),
        "pair_count": int(scores.size),
        "note": MI_NOTE,
    }


def mi_diagnostic(
    e_i: EmbeddingSet,
    e_j: EmbeddingSet,
    tau: float,
    seed: int = 0,
) -> dict:
    """Cross-domain similarity diagnostic over all pairs, or over
    MI_MAX_PAIRS seeded samples scored MI_BLOCK_PAIRS at a time."""
    check_protocol_args(tau=tau)
    if e_i.E.shape[0] == 0 or e_j.E.shape[0] == 0:
        raise DataError("embedding sets must be non-empty")
    a = _unit_rows(e_i.E)
    b = _unit_rows(e_j.E)
    if a.shape[0] * b.shape[0] <= MI_MAX_PAIRS:
        scores = (a @ b.T) / tau
    else:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, a.shape[0], size=MI_MAX_PAIRS)
        cols = rng.integers(0, b.shape[0], size=MI_MAX_PAIRS)

        def scored(first, end):  # blocks [first, end) of MI_BLOCK_PAIRS pairs
            blocks = []
            for lo in range(first * MI_BLOCK_PAIRS, end * MI_BLOCK_PAIRS, MI_BLOCK_PAIRS):
                block = slice(lo, lo + MI_BLOCK_PAIRS)
                blocks.append(np.sum(a[rows[block]] * b[cols[block]], axis=1))
            return blocks

        count = -(-MI_MAX_PAIRS // MI_BLOCK_PAIRS)
        scores = np.concatenate(split_repeats(count, MI_MAX_PAIRS * a.shape[1], scored))
        scores /= tau
    record = mi_from_scores(scores)
    record["domains"] = [e_i.domain_id, e_j.domain_id]
    record["tau"] = tau
    return record


def diagnostics_entropy(ckpt: Checkpoint, domain_id: str) -> EntropyResult:
    """Gaussian entropy of the refined basis for one training domain."""
    basis = ckpt.basis_for(domain_id)
    if basis is None:
        raise DataError(f"checkpoint has no basis for domain '{domain_id}'")
    return gaussian_entropy(trans(basis.V, _checkpoint_params(ckpt), ckpt.config.variant).value)
