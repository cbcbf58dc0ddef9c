"""Domain projection unit: per-domain SVD bases refined by one shared MLP.

Each domain keeps a frozen orthonormal basis V (d_i x k, from truncated SVD
of its features); a single two-layer MLP shared by every domain maps V to a
refined basis Vhat (d_i x m), rows transformed independently:

    Vhat = relu(V @ W1 + b1) @ W2 + b2

Features are aligned into the common m-dimensional space as Xhat = X @ Vhat,
a sparse product when the features are held as a CsrMatrix.
The alignment objective combines a self-reconstruction term
||X - X Vhat Vhat^T||_F^2 with an orthogonality penalty
||Vhat^T Vhat - I||_F^2 weighted by lambda. The reconstruction reads the
aligned features P = Xhat and ||X||_F^2 alone:

    recon = ||X||_F^2 - 2 ||P||_F^2 + sum((P^T P) * (Vhat^T Vhat))

so an epoch costs O(nnz m + n m^2) and nothing d x d is ever formed.

The MLP's tensors are read by their `checkpoint.param_shapes` names; the
no-dpu variant has no MLP, and `trans` then passes the raw basis through.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import DataError, NumericError
from .linalg import CsrMatrix, basis_signs, truncated_svd

RANK_DEFICIENCY_RTOL = 1e-10


@dataclass(frozen=True)
class DomainBasis:
    """Frozen projection basis for one domain; padded marks columns filled by
    orthonormal completion because the features had rank below k."""

    domain_id: str
    V: np.ndarray
    padded: bool = False

    def __post_init__(self):
        v = np.ascontiguousarray(self.V, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "V", v)


def init_basis(x: np.ndarray | CsrMatrix, k: int, seed: int, domain_id: str) -> DomainBasis:
    """Right singular vectors of x as a d x k orthonormal basis.

    When x has rank below k the trailing columns are replaced by a seeded
    orthonormal completion and the padded flag is set. The SVD's errors
    are raised named for the domain.
    """
    try:
        result = truncated_svd(x, k, seed)
    except (DataError, NumericError) as exc:
        raise type(exc)(f"domain '{domain_id}': {exc}") from exc
    s = result.singular_values
    v = np.array(result.V)
    threshold = RANK_DEFICIENCY_RTOL * max(s[0], 1e-300)
    good = int(np.sum(s > threshold))
    padded = good < k
    if padded:
        warnings.warn(
            f"domain '{domain_id}': feature rank {good} below requested k={k}; "
            "padding basis with orthonormal completion"
        )
        d = v.shape[0]
        rng = np.random.default_rng([seed, 1])
        base = v[:, :good]
        candidates = rng.standard_normal((d, k - good))
        if good:
            candidates -= base @ (base.T @ candidates)
        q, _ = np.linalg.qr(candidates)
        v = np.concatenate([base, q[:, : k - good]], axis=1)
        v *= basis_signs(v)
    return DomainBasis(domain_id=domain_id, V=v, padded=padded)


def trans(v: np.ndarray, params: Mapping[str, Node], variant: str) -> Node:
    """Refine a basis through the shared MLP, whose tensors `params` holds
    under their `param_shapes` names; rows map independently. Variant no-dpu
    has no MLP: the basis passes through unrefined."""
    basis = ad.constant(v, "basis")
    if variant == "no-dpu":
        return basis
    hidden = ad.relu(ad.add_row_bias(ad.matmul(basis, params["dpu.W1"]), params["dpu.b1"]))
    return ad.add_row_bias(ad.matmul(hidden, params["dpu.W2"]), params["dpu.b2"])


def align(x: np.ndarray | CsrMatrix, vhat: Node) -> Node:
    """Project features, a constant dense or CSR matrix, into the common
    space: Xhat = X @ Vhat."""
    if isinstance(x, CsrMatrix):
        return ad.sparse_matmul(x, vhat)
    return ad.matmul(ad.constant(x, "features"), vhat)


def alignment_penalties(xhat: Node, vhat: Node, x_sq: float, members: int) -> tuple[Node, Node]:
    """Reconstruction and orthogonality penalties for one domain of `members`
    stacked graphs, from its aligned features Xhat = X Vhat and x_sq =
    ||X||_F^2; the reconstruction is the mean of the members' penalties."""
    vtv = ad.matmul(vhat, vhat, transpose_a=True)
    quad = ad.reduce_sum(ad.mul(ad.matmul(xhat, xhat, transpose_a=True), vtv))
    recon = ad.add(ad.sub(ad.constant(x_sq, "feature_sq_norm"), ad.frobenius_sq(xhat, 2.0)), quad)
    ortho = ad.frobenius_sq(ad.sub(vtv, ad.constant(np.eye(vhat.shape[1]), "identity")))
    return ad.scale(recon, 1.0 / members), ortho
