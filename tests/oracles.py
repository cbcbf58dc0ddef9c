"""Independent brute-force oracles used by the test suite.

Nothing here may import from the code paths it checks: the Jacobi
eigendecomposition below is a from-scratch cyclic-rotation solver, and the
rank-k error formula goes through the Gram spectrum only.
"""

from __future__ import annotations

import numpy as np


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
