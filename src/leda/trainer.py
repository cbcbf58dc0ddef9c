"""Joint optimization of the projection unit and the variational aligner
across domains, with the ablation variants.

Training is full-batch: every epoch accumulates gradients over all domains
(in ascending domain_id order, so manifest order never matters) and applies
one AdamW step. All randomness is derived from the run seed plus stable
per-domain keys, which makes checkpoints bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ParamSet
from .checkpoint import Checkpoint, param_shapes
from .config import VARIANTS, TrainConfig  # noqa: F401  (VARIANTS is read from here too)
from .datasets import DomainGraph, GraphCollection
from .dpu import DomainBasis, align, alignment_penalties, init_basis, stack_features, trans
from .errors import ConfigError, DataError, NumericError
from .lda import base_layer, loss_total_domain
from .linalg import CsrMatrix, feature_operand, normalize_adjacency
from .optim import AdamWState, adamw_step

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
class PreparedGraph:
    index: int
    x: np.ndarray | CsrMatrix  # features in the form `feature_operand` picks
    s: CsrMatrix


@dataclass(frozen=True)
class PreparedDomain:
    domain_id: str
    key: int
    basis: DomainBasis
    members: tuple[PreparedGraph, ...]
    gram: np.ndarray  # mean of the members' feature Grams X^T X (d x d)


def _domain_key(domain_id: str) -> int:
    digest = hashlib.blake2s(domain_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _stream_rng(config_seed: int, epoch: int, key: int, member: int, stream: int):
    return np.random.default_rng([config_seed, epoch, key, member, stream])


def prepare_domains(collection: GraphCollection, config: TrainConfig) -> list[PreparedDomain]:
    """Group graphs by domain, build frozen bases, normalize adjacencies.

    Domains come back sorted by domain_id; graph-level members keep their
    collection order within a domain. The basis of a multi-graph domain is
    computed from the vertically stacked member features, whose Gram is
    formed once and serves both the basis SVD and the alignment penalties.
    """
    grouped: dict[str, list[DomainGraph]] = {}
    for graph in collection.graphs:
        grouped.setdefault(graph.domain_id, []).append(graph)
    prepared = []
    for domain_id in sorted(grouped):
        graphs = grouped[domain_id]
        # index = position within the domain, so noise streams are invariant
        # to how domains are ordered in the manifest
        members = [PreparedGraph(i, feature_operand(g.features), normalize_adjacency(g.adjacency))
                   for i, g in enumerate(graphs)]
        stacked = members[0].x
        if len(graphs) > 1:
            stacked = feature_operand(stack_features(domain_id, [g.features for g in graphs]))
        if config.k > min(stacked.shape):
            raise ConfigError(
                f"k={config.k} exceeds min(n, d)={min(stacked.shape)} for domain '{domain_id}'"
            )
        gram = stacked.gram() if isinstance(stacked, CsrMatrix) else stacked.T @ stacked
        basis = init_basis(stacked, config.k, seed=config.seed, domain_id=domain_id, gram=gram)
        gram /= len(members)
        prepared.append(
            PreparedDomain(
                domain_id=domain_id,
                key=_domain_key(domain_id),
                basis=basis,
                members=tuple(members),
                gram=gram,
            )
        )
    return prepared


def init_paramset(config: TrainConfig) -> ParamSet:
    """All trainable tensors in `param_shapes` order, from the run seed:
    biases are zero, and weights are Glorot draws from one stream."""
    rng = np.random.default_rng([config.seed, _INIT_STREAM])
    params = ParamSet()
    for name, (rows, cols) in param_shapes(config).items():
        bias = name.split(".")[1].startswith("b")
        params.add(name, np.zeros((rows, cols)) if bias else ad.glorot_uniform(rng, rows, cols))
    return params


def infonce_from_scores(s_pos: Node, s_neg: Node, tau: float) -> Node:
    """Per-anchor contrastive loss column: log(exp(s+/tau) + exp(s-/tau)) - s+/tau,
    computed with a constant max shift for stability."""
    if tau <= 0:
        raise ConfigError(f"InfoNCE temperature must be > 0, got {tau}")
    a = ad.scale(s_pos, 1.0 / tau)
    b = ad.scale(s_neg, 1.0 / tau)
    shift = ad.constant(np.maximum(a.value, b.value), "lse_shift")
    summed = ad.add(ad.exp(ad.sub(a, shift)), ad.exp(ad.sub(b, shift)))
    return ad.sub(ad.add(shift, ad.log(summed)), a)


def infonce_loss(views: list[tuple[Node, Node]], tau: float) -> Node:
    """Contrastive objective over per-domain (anchor, positive) embedding
    pairs; the single negative is the mean embedding over all anchors of all
    domains. Returns the mean per-anchor loss."""
    if tau <= 0:
        raise ConfigError(f"InfoNCE temperature must be > 0, got {tau}")
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


def _mean_nodes(nodes: list[Node]) -> Node:
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return total if len(nodes) == 1 else ad.scale(total, 1.0 / len(nodes))


def build_epoch_loss(
    prepared: list[PreparedDomain],
    params: ParamSet,
    config: TrainConfig,
    epoch: int,
) -> tuple[Node, dict[str, float]]:
    """One full-batch loss over all domains for the configured variant.

    The reparameterization noise is a pure function of (seed, epoch, domain,
    member), so a fixed epoch is a fixed, differentiable function of the
    parameters.
    """
    variant = config.variant
    total: Node | None = None
    components: dict[str, float] = {}
    views: list[tuple[Node, Node]] = []

    def accumulate(key: str, node: Node) -> None:
        components[key] = components.get(key, 0.0) + _scalar(node)

    for domain in prepared:
        vhat = trans(domain.basis.V, params, variant)
        domain_terms: list[Node] = []

        if variant in ("full", "no-lda", "dpu-cl"):
            recon_d, ortho_d = alignment_penalties(domain.gram, vhat)
            align_d = ad.add(recon_d, ad.scale(ortho_d, config.lam))
            accumulate("dpu_recon", recon_d)
            accumulate("dpu_ortho", ortho_d)
            weight = config.mu_align if variant == "full" else 1.0
            domain_terms.append(ad.scale(align_d, weight) if weight != 1.0 else align_d)

        if variant in ("full", "no-dpu"):
            member_losses = []
            member_recons = []
            member_kls = []
            for member in domain.members:
                xhat = align(member.x, vhat)
                rng = _stream_rng(config.seed, epoch, domain.key, member.index, _EPS_STREAM)
                eps = rng.standard_normal((member.x.shape[0], config.z))
                loss, recon, kl = loss_total_domain(
                    xhat, member.s, params, beta_kl=config.beta_kl, eps=eps
                )
                member_losses.append(loss)
                member_recons.append(recon)
                member_kls.append(kl)
            domain_terms.append(_mean_nodes(member_losses))
            accumulate("lda_recon", _mean_nodes(member_recons))
            accumulate("kl", _mean_nodes(member_kls))

        if variant == "dpu-cl":
            for member in domain.members:
                xhat = align(member.x, vhat)
                rng = _stream_rng(config.seed, epoch, domain.key, member.index, _DROPOUT_STREAM)
                mask = (rng.random(xhat.shape) >= DROPOUT_RATE).astype(np.float64)
                xhat_view = ad.mul(xhat, ad.constant(mask, "dropout_mask"))
                anchor = base_layer(xhat, member.s, params)
                views.append((anchor, base_layer(xhat_view, member.s, params)))

        for term in domain_terms:
            value = _scalar(term)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, domain '{domain.domain_id}'"
                )
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
    params: ParamSet,
    config: TrainConfig,
    epochs: int,
    trace: list[dict[str, float]],
) -> None:
    """Train `config.variant`'s tensors for `epochs` epochs from fresh AdamW moments."""
    trainable = params.subset(
        name for name, _ in params.items() if name.startswith(TRAINED_PREFIXES[config.variant])
    )
    state = AdamWState.for_params(
        trainable,
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )
    for epoch in range(epochs):
        params.zero_grad()
        loss, components = build_epoch_loss(prepared, params, config, epoch)
        ad.backward(loss)
        del loss  # the tape goes now, not when the next epoch's graph is built
        adamw_step(trainable, state)
        trace.append(components)


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
        params=params.state_arrays(),
        bases=[domain.basis for domain in prepared],
        epoch=len(trace),
        final_loss=dict(trace[-1]) if trace else {},
        loss_trace=trace,
    )
