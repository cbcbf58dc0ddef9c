"""Small seeded collections shared across test modules."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from leda import autodiff as ad
from leda.datasets import DomainGraph, GraphCollection, generate_sbm
from leda.dpu import DomainBasis
from leda.evaluate import EmbeddingSet
from leda.linalg import CsrMatrix, normalize_adjacency
from leda.trainer import PreparedDomain, TrainConfig, build_epoch_loss


def node_collection(seed: int = 0, dims=(9, 12), blocks: int = 3, nodes_per_block: int = 6,
                    cluster_sep: float = 4.0) -> GraphCollection:
    graphs = tuple(
        generate_sbm(
            blocks,
            nodes_per_block,
            p_in=0.6,
            p_out=0.1,
            d=d,
            cluster_sep=cluster_sep,
            seed=seed * 100 + i,
            domain_id=f"dom{chr(ord('a') + i)}",
        )
        for i, d in enumerate(dims)
    )
    return GraphCollection(graphs=graphs, task_kind="node-level")


def bag_of_words(rng: np.random.Generator, n: int, d: int, density: float) -> np.ndarray:
    """Binary n x d features with about `density` of their entries set."""
    return (rng.random((n, d)) < density).astype(np.float64)


def bow_collection(seed: int = 0, dims=(100, 120), density: float = 0.01, blocks: int = 3,
                   nodes_per_block: int = 20) -> GraphCollection:
    """The graphs of `node_collection` with sparse binary features in place
    of the Gaussian ones: random words plus word j in nodes j and j + 1
    (mod n), so that, as in a real corpus, words and nodes form one
    connected whole. Otherwise a component outside the top-k subspace gets
    zero basis rows."""
    rng = np.random.default_rng([seed, 7])
    graphs = []
    for g in node_collection(seed, dims, blocks, nodes_per_block).graphs:
        n, d = g.num_nodes, g.feature_dim
        x = bag_of_words(rng, n, d, density)
        x[np.arange(d) % n, np.arange(d)] = x[(np.arange(d) + 1) % n, np.arange(d)] = 1.0
        graphs.append(DomainGraph(g.domain_id, x, g.adjacency, g.labels, g.num_classes))
    return GraphCollection(graphs=tuple(graphs), task_kind="node-level")


def labelled(graphs, labels) -> GraphCollection:
    """The graph-level collection of `graphs`, each given its graph label
    from `labels`, in order."""
    return GraphCollection(
        tuple(replace(g, graph_label=label) for g, label in zip(graphs, labels, strict=True)), "graph-level")


def graph_level_collection() -> GraphCollection:
    """Two domains, interleaved in collection order, of random graphs with
    Gaussian features of width 6: unequal sizes, one 1-node graph, and five
    graphs smaller than tiny_config's k=4."""
    rng = np.random.default_rng(12)
    graphs = []
    for domain_id, n in (("ga", 5), ("gb", 4), ("ga", 1), ("ga", 9), ("gb", 11), ("ga", 3),
                         ("gb", 2), ("ga", 2), ("gb", 6), ("ga", 7), ("gb", 3)):
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        adjacency = CsrMatrix.from_dense((upper | upper.T) * 1.0)
        graphs.append(DomainGraph(domain_id, rng.standard_normal((n, 6)), adjacency,
                                  graph_label=(len(graphs) + 1) % 2))
    return GraphCollection(tuple(graphs), "graph-level")


def overflow_probe_set(scale: float) -> EmbeddingSet:
    """A seeded 600 x 16, 4-class embedding set times `scale`. At 1e160 the
    probe's W gradient passes 1e154, so squaring it overflows."""
    rng = np.random.default_rng(19)
    labels = np.repeat(np.arange(4), 150)
    centers = 2.0 * rng.standard_normal((4, 16))
    e = centers[labels] + rng.standard_normal((600, 16))
    return EmbeddingSet("overflow", e * scale, labels)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=40,
        seed=66666,
        lr=5e-3,
        k=4,
        h=8,
        m=4,
        lam=1.0,
        h_e=8,
        z=4,
        beta_kl=1.0,
        mu_align=1.0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def alignment_loss(pairs, params, lam: float):
    """The alignment loss through the trainer: `build_epoch_loss` with
    variant no-lda over one hand-built domain per (features, basis) pair, in
    list order (an edgeless graph). `params` must hold the DPU and LDA
    tensors. Returns (total node, components)."""
    prepared = [
        PreparedDomain(
            domain_id=f"hand{i}", key=i, basis=DomainBasis(f"hand{i}", v), x=x,
            s=normalize_adjacency(CsrMatrix.from_edges(len(x), [])), sizes=(len(x),),
            x_sq=float(np.sum(x * x)),
        )
        for i, (x, v) in enumerate(pairs)
    ]
    return build_epoch_loss(prepared, params, TrainConfig(variant="no-lda", lam=lam), epoch=0)


def parameters(arrays: dict) -> dict[str, ad.Node]:
    """Trainable leaves named by the keys of `arrays`, in its order."""
    return {name: ad.parameter(value, name) for name, value in arrays.items()}


def zero_grads(params: dict) -> None:
    """Give every parameter a fresh zero gradient, as each training epoch does."""
    for node in params.values():
        node.grad = np.zeros_like(node.value)


def draw_dpu_params(params: dict, rng: np.random.Generator, k: int, h: int, m: int) -> dict:
    """Add the DPU tensors to `params`, drawn from `rng` as the trainer's
    initialization draws them (zero biases, Glorot weights in name order).
    Returns `params`."""
    params.update(parameters({
        "dpu.W1": ad.glorot_uniform(rng, k, h),
        "dpu.b1": np.zeros((1, h)),
        "dpu.W2": ad.glorot_uniform(rng, h, m),
        "dpu.b2": np.zeros((1, m)),
    }))
    return params


def draw_lda_params(params: dict, rng: np.random.Generator, m: int, h_e: int, z: int) -> dict:
    """Add the LDA tensors to `params`, drawn from `rng` as the trainer's
    initialization draws them. Returns `params`."""
    params.update(parameters({
        "lda.W_base": ad.glorot_uniform(rng, m, h_e),
        "lda.W_mu": ad.glorot_uniform(rng, h_e, z),
        "lda.W_sigma": ad.glorot_uniform(rng, h_e, z),
        "lda.W_dec": ad.glorot_uniform(rng, z, m),
    }))
    return params
