"""Joint optimization of the projection unit and the variational aligner
across domains, with the ablation variants.

Training is full-batch: every epoch accumulates gradients over all domains
(in ascending domain_id order, so manifest order never matters) and applies
one AdamW step. All randomness is derived from the run seed plus stable
per-domain keys, which makes checkpoints bit-reproducible.

A domain of many small graphs trains as one: their block-diagonal union, one
InfoNCE view. The objective is a loop's over its graphs: each graph's LDA
reconstruction and KL are node means with its own noise, averaged over them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import Checkpoint, param_shapes
from .config import VARIANTS, TrainConfig, check_values  # noqa: F401  (VARIANTS is read from here too)
from .datasets import GraphCollection
from .dpu import DomainBasis, align, alignment_penalties, init_basis, trans
from .errors import ConfigError, DataError, NumericError
from .lda import base_layer, loss_total_domain
from .linalg import CsrMatrix, feature_operand, normalize_adjacency
from .optim import AdamWState, adamw_step, check_second_moments

DROPOUT_RATE = 0.2
COSINE_EPS = 1e-12

_INIT_STREAM = 101
_EPS_STREAM = 0
_DROPOUT_STREAM = 1

# the parameter-name prefixes each variant trains; the rest stay at init
TRAINED_PREFIXES = {
    "full": ("dpu.", "lda."),
    "no-dpu": ("lda.",),
    "no-lda": ("dpu.",),
    "dpu-cl": ("dpu.", "lda.W_base"),
}


@dataclass(frozen=True)
class PreparedDomain:
    """One domain as one graph: a graph-level domain's graphs are merged into
    their disjoint union, whose i-th slice of `sizes` rows is member graph i.
    `basis` is None in `domain_operands`, and set in `prepare_domains`."""

    domain_id: str
    key: int
    basis: DomainBasis | None
    x: np.ndarray | CsrMatrix  # features in the form `feature_operand` picks
    s: CsrMatrix  # normalized adjacency, block-diagonal over the members
    sizes: tuple[int, ...]  # node count of each member graph, in collection order
    x_sq: float  # ||x||_F^2, summed over the members


def _domain_key(domain_id: str) -> int:
    digest = hashlib.blake2s(domain_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _member_draws(config: TrainConfig, epoch: int, domain: PreparedDomain, stream: int, draw):
    """draw(rng, rows) for each member graph, stacked (a lone member's as drawn);
    a member's rng is seeded by (seed, epoch, domain key, member, stream) alone."""
    draws = [draw(np.random.default_rng([config.seed, epoch, domain.key, member, stream]), rows)
             for member, rows in enumerate(domain.sizes)]
    return draws[0] if len(draws) == 1 else np.concatenate(draws)


def domain_operands(collection: GraphCollection, domain_id: str) -> PreparedDomain:
    """One domain's operands, with no basis: what no config field changes,
    built on the first call and kept, read-only, as long as the collection.

    A domain's graphs become one, in collection order: stacked features and
    adjacencies on the diagonal of one block-diagonal matrix, whose
    normalization is exactly theirs on the diagonal. A lone graph's operands
    are used uncopied; a stack of dense tables gets `feature_operand` once,
    whatever form each member's features take.
    """
    operands = collection._prepared.setdefault("operands", {})  # domain_id -> PreparedDomain
    if domain_id not in operands:
        graphs = collection.by_domain(domain_id)
        x, adjacency = graphs[0].features, graphs[0].adjacency
        if len(graphs) > 1:
            widths = sorted({g.feature_dim for g in graphs})
            if len(widths) != 1:
                raise DataError(f"domain '{domain_id}': members disagree on feature dim {widths}")
            stack = np.concatenate([g.features.to_dense() if isinstance(g.features, CsrMatrix)
                                    else g.features for g in graphs])
            stack.setflags(write=False)
            x = feature_operand(stack)
            adjacency = CsrMatrix.block_diag([g.adjacency for g in graphs])
        s = normalize_adjacency(adjacency)
        with np.errstate(over="ignore"):  # an infinite x_sq fails the loss's finiteness check
            x_sq = float(np.sum(np.square(x.values if isinstance(x, CsrMatrix) else x)))
        sizes = tuple(g.num_nodes for g in graphs)
        operands[domain_id] = PreparedDomain(domain_id, _domain_key(domain_id), None, x, s, sizes, x_sq)
    return operands[domain_id]


def prepare_domains(collection: GraphCollection, config: TrainConfig) -> list[PreparedDomain]:
    """Every domain's `domain_operands`, sorted by domain_id, with a frozen
    basis.

    The collection keeps the domains with their bases once per (k, seed),
    the only config fields read here. Every call checks each domain's
    operands and then k against it, in domain order, before any SVD runs.
    """
    domains = []
    for domain_id in sorted(collection.domain_ids()):
        domains.append(domain_operands(collection, domain_id))
        rank_bound = min(domains[-1].x.shape)
        if config.k > rank_bound:
            raise ConfigError(f"k={config.k} exceeds min(n, d)={rank_bound} for domain '{domain_id}'")
    by_key = collection._prepared.setdefault("domains", {})  # (k, seed) -> tuple[PreparedDomain, ...]
    key = (config.k, config.seed)
    if key not in by_key:
        by_key[key] = tuple(
            replace(d, basis=init_basis(d.x, config.k, seed=config.seed, domain_id=d.domain_id))
            for d in domains
        )
    return list(by_key[key])


def init_paramset(config: TrainConfig) -> dict[str, Node]:
    """All trainable tensors by name, in `param_shapes` order, from the run
    seed: biases are zero, and weights are Glorot draws from one stream."""
    rng = np.random.default_rng([config.seed, _INIT_STREAM])
    params = {}
    for name, (rows, cols) in param_shapes(config).items():
        bias = name.split(".")[1].startswith("b")
        value = np.zeros((rows, cols)) if bias else ad.glorot_uniform(rng, rows, cols)
        params[name] = ad.parameter(value, name)
    return params


def infonce_from_scores(s_pos: Node, s_neg: Node, tau: float) -> Node:
    """Per-anchor contrastive loss column: log(exp(s+/tau) + exp(s-/tau)) - s+/tau,
    computed with a constant max shift for stability."""
    check_values(tau=tau)
    a = ad.scale(s_pos, 1.0 / tau)
    b = ad.scale(s_neg, 1.0 / tau)
    shift = ad.constant(np.maximum(a.value, b.value), "lse_shift")
    summed = ad.add(ad.exp(ad.sub(a, shift)), ad.exp(ad.sub(b, shift)))
    return ad.sub(ad.add(shift, ad.log(summed)), a)


def infonce_loss(views: list[tuple[Node, Node]], tau: float) -> Node:
    """Contrastive objective over per-domain (anchor, positive) embedding
    pairs; the single negative is the mean embedding over all anchors of all
    domains. Returns the mean per-anchor loss."""
    if not views:
        raise ConfigError("infonce_loss needs at least one domain")
    total_nodes = sum(anchor.shape[0] for anchor, _ in views)
    mean_sum: Node | None = None
    for anchor, _ in views:
        colsum = ad.reduce_sum(anchor, axis=0)
        mean_sum = colsum if mean_sum is None else ad.add(mean_sum, colsum)
    mean_embedding = ad.scale(mean_sum, 1.0 / total_nodes)

    loss_sum: Node | None = None
    for anchor, positive in views:
        s_pos = ad.rowwise_cosine(anchor, positive, COSINE_EPS)
        s_neg = ad.rowwise_cosine(anchor, mean_embedding, COSINE_EPS)
        per_anchor = infonce_from_scores(s_pos, s_neg, tau)
        domain_sum = ad.reduce_sum(per_anchor)
        loss_sum = domain_sum if loss_sum is None else ad.add(loss_sum, domain_sum)
    return ad.scale(loss_sum, 1.0 / total_nodes)


def _scalar(node: Node) -> float:
    return float(node.value[0, 0])


def build_epoch_loss(
    prepared: list[PreparedDomain],
    params: dict[str, Node],
    config: TrainConfig,
    epoch: int,
) -> tuple[Node, dict[str, float]]:
    """One full-batch loss over all domains for the configured variant.

    The reparameterization noise and the dpu-cl dropout mask of each member
    graph are a pure function of (seed, epoch, domain, member), so a fixed
    epoch is a fixed, differentiable function of the parameters.
    """
    variant = config.variant
    total: Node | None = None
    components: dict[str, float] = {}
    views: list[tuple[Node, Node]] = []

    def accumulate(key: str, node: Node) -> None:
        components[key] = components.get(key, 0.0) + _scalar(node)

    for domain in prepared:
        vhat = trans(domain.basis.V, params, variant)
        xhat = align(domain.x, vhat)
        domain_terms: list[Node] = []

        if variant in ("full", "no-lda", "dpu-cl"):
            recon_d, ortho_d = alignment_penalties(xhat, vhat, domain.x_sq, len(domain.sizes))
            align_d = ad.add(recon_d, ad.scale(ortho_d, config.lam))
            accumulate("dpu_recon", recon_d)
            accumulate("dpu_ortho", ortho_d)
            weight = config.mu_align if variant == "full" else 1.0
            domain_terms.append(ad.scale(align_d, weight) if weight != 1.0 else align_d)

        if variant in ("full", "no-dpu"):
            eps = _member_draws(config, epoch, domain, _EPS_STREAM,
                                lambda rng, rows: rng.standard_normal((rows, config.z)))
            loss, recon, kl = loss_total_domain(xhat, domain.s, params, config.beta_kl, eps, domain.sizes)
            domain_terms.append(loss)
            accumulate("lda_recon", recon)
            accumulate("kl", kl)

        if variant == "dpu-cl":
            mask = _member_draws(config, epoch, domain, _DROPOUT_STREAM,
                                 lambda rng, rows: rng.random((rows, xhat.shape[1])) >= DROPOUT_RATE)
            xhat_view = ad.mul(xhat, ad.constant(mask.astype(np.float64), "dropout_mask"))
            views.append((base_layer(xhat, domain.s, params), base_layer(xhat_view, domain.s, params)))

        for term in domain_terms:
            if not np.isfinite(_scalar(term)):
                raise NumericError(f"non-finite loss at epoch {epoch}, domain '{domain.domain_id}'")
            total = term if total is None else ad.add(total, term)

    if variant == "dpu-cl":
        nce = infonce_loss(views, config.tau)
        accumulate("infonce", nce)
        total = nce if total is None else ad.add(total, nce)

    if total is None:
        raise ConfigError("loss has no terms; nothing to train")
    total_value = _scalar(total)
    if not np.isfinite(total_value):
        raise NumericError(f"non-finite total loss at epoch {epoch}")
    components["total"] = total_value
    return total, components


def _run_phase(
    prepared: list[PreparedDomain],
    params: dict[str, Node],
    config: TrainConfig,
    epochs: int,
    trace: list[dict[str, float]],
) -> None:
    """Train `config.variant`'s tensors for `epochs` epochs from fresh AdamW moments."""
    prefixes = TRAINED_PREFIXES[config.variant]
    trainable = {name: node for name, node in params.items() if name.startswith(prefixes)}
    state = AdamWState.for_params(
        trainable,
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )
    # an overflow reaches the epoch's loss, which build_epoch_loss refuses by
    # name, or a second moment, which check_second_moments refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for node in params.values():
                node.grad = np.zeros_like(node.value)
            loss, components = build_epoch_loss(prepared, params, config, epoch)
            ad.backward(loss)
            del loss  # the tape goes now, not when the next epoch's graph is built
            adamw_step(trainable, state)
            trace.append(components)
    check_second_moments(state, f"training ({config.variant})")


def pretrain(collection: GraphCollection, config: TrainConfig) -> Checkpoint:
    """Train the configured variant on every domain of the collection."""
    prepared = prepare_domains(collection, config)
    if not prepared:
        raise DataError("collection has no domains")
    params = init_paramset(config)
    trace: list[dict[str, float]] = []
    if config.two_phase:
        # the first phase trains the projection alone, as variant no-lda does
        first = replace(config, variant="no-lda")
        _run_phase(prepared, params, first, config.two_phase_epochs, trace)
    _run_phase(prepared, params, config, config.epochs, trace)

    return Checkpoint(
        config=config,
        params={name: node.value.copy() for name, node in params.items()},
        bases=[domain.basis for domain in prepared],
        epoch=len(trace),
        final_loss=dict(trace[-1]) if trace else {},
        loss_trace=trace,
    )
