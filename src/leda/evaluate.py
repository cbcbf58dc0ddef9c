"""Downstream evaluation: linear probe, few-shot prototypes, graph-level
prototypes, and the cross-domain mutual-information diagnostic.

Embeddings are deterministic (posterior means, no sampling). Every protocol
repeats with derived seeds (base seed + repeat index) and reports accuracy
as mean +- population standard deviation in percent. Each is a whole-array
pass: one prototype loop serves nodes and graphs and scores a block of
repeats with one product, in at most BLOCK_SCORES scores; a probe step
forms only its two closed-form gradients (bitwise the engine's), in place
in buffers made once per fit, and AdamW updates W and b as one block;
weights or AdamW second moments that end non-finite raise NumericError;
MI streams every pair in blocks of as many scores. Graph pooling embeds
each domain once, from `trainer.domain_operands`: the block-diagonal union
of its graphs, built once per collection for training and pooling alike.

The probe's runs and the prototype repeats are independent, so both go to
`linalg.split_repeats`, which forks shares of them across the CPUs. Every
repeat keeps its seed, so the reports do not depend on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import Checkpoint
from .config import check_values
from .datasets import DomainGraph, GraphCollection
from .dpu import align, init_basis, trans
from .errors import DataError, NumericError
from .lda import base_layer, encode, propagate_extra
from .linalg import EntropyResult, gaussian_entropy, normalize_adjacency, split_repeats
from .optim import AdamWState, adamw_step, check_second_moments
from .trainer import COSINE_EPS, domain_operands

PROBE_STEPS = 300
PROBE_LR = 0.01
PROBE_L2 = 1e-4
# Most scores one product holds (8 MB), and most pairs MI scores before it
# subsamples rows. On a 2-core VM with one BLAS thread, MI took 0.92 s over
# 2^26 pairs of 128-wide rows; at the bench transfer shape (3,327 x 2,708 x
# 128), blocks of 2^18, 2^20 and 2^22 scores took 0.133, 0.112 and 0.127 s.
BLOCK_SCORES = 1 << 20
MI_MAX_PAIRS = 1 << 26

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

    @classmethod
    def from_accuracies(cls, task: str, acc: np.ndarray, seed: int, **labels) -> EvalReport:
        """The report of one accuracy per repeat: their mean, std and count,
        with the protocol's `flags` and `extras` if it has any."""
        return cls(task, float(acc.mean()), float(acc.std()), len(acc), seed, **labels)

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
    s = normalize_adjacency(domain.adjacency)
    return _embed(domain.domain_id, domain.features, s, ckpt, t, domain.labels)


def _embed(domain_id: str, x, s, ckpt: Checkpoint, t: int, labels=None) -> EmbeddingSet:
    """`embed` of a domain's feature operand x and normalized adjacency s."""
    basis = ckpt.basis_for(domain_id)
    if basis is None:
        basis = init_basis(x, ckpt.config.k, seed=ckpt.config.seed, domain_id=domain_id)
    if basis.V.shape[0] != x.shape[1]:
        raise DataError(
            f"domain '{domain_id}': checkpoint basis expects feature dim "
            f"{basis.V.shape[0]}, graph has {x.shape[1]}"
        )
    params = _checkpoint_params(ckpt)
    variant = ckpt.config.variant
    # a huge parameter is refused at its first overflow, before a ReLU zeroes
    # the -inf it makes; an inf one's NaNs reach EmbeddingSet, which refuses them
    try:
        with np.errstate(over="raise", invalid="ignore"):
            xhat = align(x, trans(basis.V, params, variant))
            if variant in ("full", "no-dpu"):
                base = encode(xhat, s, params)[0].value
            elif variant == "no-lda":
                base = s.matmul_dense(xhat.value)
            else:  # dpu-cl
                base = base_layer(xhat, s, params).value
            e = propagate_extra(base, s, t)
    except FloatingPointError as exc:
        raise NumericError(f"domain '{domain_id}': embedding beyond the float range ({exc})") from exc
    return EmbeddingSet(domain_id=domain_id, E=e, labels=labels)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of x at unit norm, a zero row left zero. A finite row whose
    norm overflows is refused, where dividing by it would zero the row."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.isinf(norms).any():
        raise NumericError(f"norm beyond the float range in {np.isinf(norms).sum()} of {len(x)} embedding rows")
    return x / np.maximum(norms, COSINE_EPS)


def _accuracy(true: np.ndarray, pred: np.ndarray) -> float:
    return 100.0 * float(np.mean(pred == true))


# ---------------------------------------------------------------------------
# linear probe


def _probe_grads(x, theta, grad, neg_onehot, logits, rows, decay) -> None:
    """Writes into grad = [dW; db] the gradients at theta = [W; b] of the
    mean softmax cross-entropy of x W + b plus PROBE_L2 * ||W||^2, without
    the loss; neg_onehot is onehot * (-1/n), and logits (n x C), rows (n x
    1) and decay (W's shape) are scratch. G = softmax / n - onehot / n and
    the rest are formed in place, in the order `autodiff.backward` forms
    them on the engine-built loss, so both are bitwise the engine's. The row
    max goes column by column: max is exact, and np.maximum propagates NaN
    as np.max does."""
    inv_n = 1.0 / x.shape[0]
    w = theta[:-1]
    np.matmul(x, w, out=logits)
    logits += theta[-1]
    rows[:] = logits[:, :1]
    for column in range(1, logits.shape[1]):
        np.maximum(rows, logits[:, column:column + 1], out=rows)
    logits -= rows
    np.exp(logits, out=logits)
    np.sum(logits, axis=1, keepdims=True, out=rows)
    np.divide(inv_n, rows, out=rows)
    logits *= rows
    logits += neg_onehot
    np.matmul(x.T, logits, out=grad[:-1])
    np.multiply(w, PROBE_L2 * 2.0, out=decay)
    grad[:-1] += decay
    np.sum(logits, axis=0, keepdims=True, out=grad[-1:])


def _fit_logistic(train_x: np.ndarray, train_y: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """W and b after PROBE_STEPS AdamW steps from zero. They are the rows of
    one (z + 1) x C parameter, [W; b], whose gradient is a second block, so
    `adamw_step` updates both in one elementwise pass, bitwise as it would
    update them apart. Every buffer of a step is made once per fit."""
    n, dim = train_x.shape
    theta = ad.parameter(np.zeros((dim + 1, num_classes)), "probe")
    params = {"probe": theta}
    state = AdamWState.for_params(params, lr=PROBE_LR, weight_decay=0.0)
    neg_onehot = (-(1.0 / n)) * np.eye(num_classes)[train_y]
    scratch = np.empty((n, num_classes)), np.empty((n, 1)), np.empty((dim, num_classes))
    # an overflow reaches the weights or a second moment, refused by name below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(PROBE_STEPS):
            _probe_grads(train_x, theta.value, theta.grad, neg_onehot, *scratch)
            adamw_step(params, state)
    # a non-finite gradient at any step leaves AdamW's moments, so the weights, non-finite
    if not np.all(np.isfinite(theta.value)):
        raise NumericError("linear probe: fitted weights are non-finite")
    v = state.v["probe"]  # checked by the tensor its rows hold, W before b
    check_second_moments(AdamWState(v={"probe.W": v[:-1], "probe.b": v[-1:]}), "linear probe")
    return theta.value[:-1], theta.value[-1:]


def _stratified_split(labels: np.ndarray, train_frac: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test rows: of each class's m rows, the first
    max(1, round(train_frac * m)) of one rng permutation, in class order."""
    train = np.zeros(len(labels), dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        train[rng.permutation(members)[:max(1, int(round(train_frac * len(members))))]] = True
    if train.all():
        raise DataError("split left no test nodes; lower train_frac")
    return np.flatnonzero(train), np.flatnonzero(~train)


def linear_probe(
    embeddings: EmbeddingSet,
    train_frac: float = 0.1,
    runs: int = 20,
    seed: int = 66666,
) -> EvalReport:
    """Multinomial logistic regression on a stratified train_frac split,
    accuracy on the rest; mean +- std over the runs."""
    check_values(train_frac=train_frac, runs=runs, seed=seed)
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
    return EvalReport.from_accuracies("linear-probe", acc, seed)


# ---------------------------------------------------------------------------
# prototype protocols


def _prototype_scores(vectors, labels, shots: int, repeats: int, seed: int, score) -> list:
    """score(true, predicted) over the query rows of each repeat. Repeat r
    draws `shots` support rows per class, in class order, with rng(seed + r);
    their means are the prototypes, a block's taken from one gather, and
    every other row goes to the most cosine-similar one. Rows are normalized once, as gathering normalized
    rows equals normalizing gathered rows. A block of repeats is scored by
    one product of all rows with the block's prototypes, at most
    BLOCK_SCORES entries; each repeat takes the argmax over its own
    columns, and its query rows are picked afterwards. An entry is one dot
    product either way; tests pin that it keeps the per-repeat bits."""
    classes = np.unique(labels)
    members = [np.flatnonzero(labels == c) for c in classes]
    short = [int(c) for c, rows in zip(classes, members) if len(rows) < shots]
    if short:
        raise DataError(f"classes {short} have fewer than {shots} members")
    if all(len(rows) == shots for rows in members):
        raise DataError("support would cover every member; query set is empty")
    unit = _unit_rows(vectors)
    n, num_classes = len(labels), len(classes)
    step = max(1, BLOCK_SCORES // (n * num_classes))

    def scored(first, end):
        scores = []
        for lo in range(first, end, step):
            rngs = (np.random.default_rng(seed + repeat) for repeat in range(lo, min(lo + step, end)))
            picked = np.stack([np.concatenate([rng.choice(rows, size=shots, replace=False) for rows in members])
                               for rng in rngs])
            prototypes = _unit_rows(vectors[picked].reshape(-1, shots, vectors.shape[1]).mean(axis=1))
            winners = np.argmax((unit @ prototypes.T).reshape(n, len(picked), num_classes), axis=2)
            for support, column in zip(picked, winners.T):
                query = np.ones(n, dtype=bool)
                query[support] = False
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
    check_values(k=k, repeats=repeats, seed=seed)
    if embeddings.labels is None:
        raise DataError("few-shot evaluation needs labels")
    scores = _prototype_scores(embeddings.E, embeddings.labels, k, repeats, seed, _accuracy)
    return EvalReport.from_accuracies("fewshot", np.array(scores), seed)


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
    domain is embedded once, from its `domain_operands`, the collection's
    memo that training reads too (so a domain the checkpoint does not cover
    gets one basis from all its graphs' features), and a graph's row is the
    mean of its slice of the rows."""
    slices = {}  # per domain, its graphs' row slices in collection order
    for domain_id in collection.domain_ids():
        domain = domain_operands(collection, domain_id)
        e = _embed(domain_id, domain.x, domain.s, ckpt, t).E
        slices[domain_id] = iter(np.split(e, np.cumsum(domain.sizes)[:-1]))
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
    check_values(support_per_class=support_per_class, repeats=repeats, seed=seed)
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
    return EvalReport.from_accuracies(
        "graph-fewshot", acc, seed, flags=flags,
        extras={"mean_macro_f1": float(f1.mean()), "std_macro_f1": float(f1.std())},
    )


# ---------------------------------------------------------------------------
# diagnostics


def _mi_record(blocks, all_pairs: int) -> dict:
    """mean(s) - log-sum-exp(s) over score blocks, each read once and then
    overwritten: a running sum, and an online log-sum-exp whose sum of
    exp(s - max) is rescaled as the running max rises (Milakov & Gimelshein,
    2018). If the blocks hold a sample of `all_pairs` pairs, log_Z adds
    log(all_pairs / scored) to estimate the all-pairs value."""
    total, shift, mass, count = 0.0, -np.inf, 0.0, 0
    # a score or a sum that overflows, and the inf - inf after it, end in the
    # non-finite record refused below; the blocks' s / tau is formed here too
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            block = block.ravel()
            top = max(shift, block.max())
            mass *= np.exp(shift - top)  # exactly 1 while the max holds
            shift = top
            total += block.sum()
            block -= shift
            mass += np.exp(block, out=block).sum()
            count += block.size
        expected = float(total / count)
        log_z = shift + np.log(mass) + np.log(all_pairs / count)  # + 0.0 when every pair is scored
        if not np.isfinite(expected - log_z):  # as either term is non-finite, e.g. s / tau overflowed
            raise NumericError(f"similarity diagnostic is non-finite: expected_s {expected}, log_Z {log_z}")
    return {"expected_s": expected, "log_Z": float(log_z), "mi_proxy": float(expected - log_z),
            "pair_count": count, "note": MI_NOTE}


def mi_from_scores(scores: np.ndarray) -> dict:
    """Mutual-information proxy mean(s) - log-sum-exp(s) of temperature-scaled
    similarity scores, as one block of `_mi_record`; shift-invariant."""
    scores = np.array(scores, dtype=np.float64)  # a copy: _mi_record overwrites it
    if scores.size == 0:
        raise DataError("no similarity scores")
    return _mi_record([scores], scores.size)


def mi_diagnostic(e_i: EmbeddingSet, e_j: EmbeddingSet, tau: float, seed: int = 0) -> dict:
    """Cross-domain similarity diagnostic over every pair of rows: blocks of
    e_i's rows, at most BLOCK_SCORES scores each, against all of e_j. Beyond
    MI_MAX_PAIRS pairs, each side keeps a sorted rng(seed) subsample of its
    rows, at most MI_MAX_PAIRS pairs in all; a non-finite record raises."""
    check_values(tau=tau, seed=seed)
    if e_i.E.shape[0] == 0 or e_j.E.shape[0] == 0:
        raise DataError("embedding sets must be non-empty")
    a, b = _unit_rows(e_i.E), _unit_rows(e_j.E)
    all_pairs = len(a) * len(b)
    if all_pairs > MI_MAX_PAIRS:  # about the same share of each side's rows
        rng = np.random.default_rng(seed)
        keep = min(len(a), MI_MAX_PAIRS, max(1, int(len(a) * np.sqrt(MI_MAX_PAIRS / all_pairs))))
        a = a[np.sort(rng.choice(len(a), keep, replace=False))]
        b = b[np.sort(rng.choice(len(b), min(len(b), MI_MAX_PAIRS // keep), replace=False))]
    step = max(1, BLOCK_SCORES // len(b))
    blocks = ((a[lo:lo + step] @ b.T) / tau for lo in range(0, len(a), step))
    return {**_mi_record(blocks, all_pairs), "domains": [e_i.domain_id, e_j.domain_id], "tau": tau}


def diagnostics_entropy(ckpt: Checkpoint, domain_id: str) -> EntropyResult:
    """Gaussian entropy of the refined basis for one training domain."""
    basis = ckpt.basis_for(domain_id)
    if basis is None:
        raise DataError(f"checkpoint has no basis for domain '{domain_id}'")
    return gaussian_entropy(trans(basis.V, _checkpoint_params(ckpt), ckpt.config.variant).value)
