"""Latent distribution alignment: a shared variational GCN over aligned
features of every domain.

A single-layer GCN produces a semantic base, two linear GCN heads read off
the posterior mean and log-variance, a sample is drawn by reparameterization,
and a linear GCN decoder reconstructs the aligned features. The per-domain
objective is squared reconstruction error plus a KL pull of the posterior
toward the shared standard-normal prior; both are averaged over nodes (of
each graph, then over a domain's graphs) so the loss scale does not grow
with graph size or count. The sample and the KL are one
fused engine node each (`ad.reparameterize`, `ad.gaussian_kl`): beyond mu
and log_sigma, which are on the tape anyway, they keep only the noise draw.

The tensors are read by their `checkpoint.param_shapes` names; there are no
biases. `base_layer` is the semantic base alone, which the dpu-cl variant
trains and embeds with.

A product with the normalized adjacency S costs O(nnz(S) * width), forward
and backward alike, so `base_layer` and `decode` apply S at the aligned width
m: (S Xhat) W_base and S (z W_dec). The order is fixed, not chosen by shape
at run time: at the paper's dims m <= h_e and m <= z. `encode` propagates
the base once, at width h_e, and reads both posterior heads off that product.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .config import check_values
from .linalg import CsrMatrix

LOG_SIGMA_CLAMP = 10.0


def base_layer(xhat: Node, s: CsrMatrix, params: Mapping[str, Node]) -> Node:
    """The semantic base: one GCN layer with ReLU, relu((S Xhat) W_base);
    S multiplies width m rather than h_e, the width of Xhat W_base."""
    return ad.relu(ad.matmul(ad.sparse_matmul(s, xhat), params["lda.W_base"]))


def encode(xhat: Node, s: CsrMatrix, params: Mapping[str, Node]) -> tuple[Node, Node]:
    """Posterior parameters (mu, log_sigma): base GCN with ReLU, then linear
    mean and log-variance heads over one more propagation."""
    propagated = ad.sparse_matmul(s, base_layer(xhat, s, params))
    return ad.matmul(propagated, params["lda.W_mu"]), ad.matmul(propagated, params["lda.W_sigma"])


def decode(z: Node, s: CsrMatrix, params: Mapping[str, Node]) -> Node:
    """Linear GCN decoder back to the aligned feature space, S (z W_dec);
    S multiplies width m rather than the latent width z."""
    return ad.sparse_matmul(s, ad.matmul(z, params["lda.W_dec"]))


def _member_weights(sizes: Sequence[int]) -> float | np.ndarray:
    """Row weights that make a sum over a block-diagonal graph's rows the mean
    over its M member graphs of their node means: 1/n for a lone member, else
    1/(n_i * M) on the n_i rows of member i."""
    if len(sizes) == 1:
        return 1.0 / sizes[0]
    sizes = np.asarray(sizes)
    return np.repeat(1.0 / (sizes * len(sizes)), sizes)[:, None]


def kl_to_prior(mu: Node, log_sigma: Node, sizes: Sequence[int]) -> Node:
    """KL(N(mu, exp(log_sigma)^2) || N(0, I)), summed over latent dims and
    averaged over nodes (per member graph of `sizes` rows, then over members).
    log_sigma is clamped to +-10 before exponentiation."""
    return ad.gaussian_kl(mu, log_sigma, LOG_SIGMA_CLAMP, _member_weights(sizes))


def loss_total_domain(
    xhat: Node,
    s: CsrMatrix,
    params: Mapping[str, Node],
    beta_kl: float,
    eps: np.ndarray,
    sizes: Sequence[int],
) -> tuple[Node, Node, Node]:
    """Negated per-domain evidence bound: squared reconstruction of the
    aligned features plus beta_kl times the KL alignment term, with the
    sampling noise eps (n x z standard normal) drawn by the caller; the
    sample is z = mu + exp(log_sigma) * eps, with eps a constant.

    A domain of several graphs is one block-diagonal graph, member i its
    i-th slice of `sizes` rows; both terms are then node means per member,
    averaged over the members.

    Returns (loss, recon, kl).
    """
    mu, log_sigma = encode(xhat, s, params)
    z = ad.reparameterize(mu, log_sigma, eps)
    reconstructed = decode(z, s, params)
    diff = ad.sub(xhat, reconstructed)
    recon = ad.frobenius_sq(diff, _member_weights(sizes))
    kl = kl_to_prior(mu, log_sigma, sizes)
    loss = ad.add(recon, ad.scale(kl, beta_kl))
    return loss, recon, kl


def propagate_extra(z: np.ndarray, s: CsrMatrix, t: int) -> np.ndarray:
    """Apply t parameter-free propagation steps z <- S z (inference only)."""
    check_values(t=t)
    out = z
    for _ in range(t):
        out = s.matmul_dense(out)
    return out
