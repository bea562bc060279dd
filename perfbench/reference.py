"""Computations the benchmark checks the program against, written apart from it.

Nothing here calls harmalign: the kernel follows the paper's formula, the
k-NN vote follows the tie rule documented in ``harmalign.evaluation``, and
the self-match rate follows the CLI report's documented definition.
Distances come from scipy's ``cdist``, as in the program, so that exact
equality of accuracies is a fair test of neighbour selection and voting.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

CHUNK = 512  # query rows per distance block, to keep check memory small


def knn_predict(train, train_labels, test, k: int) -> np.ndarray:
    """k-NN labels: the k nearest by (distance, index); majority vote, ties
    broken by the smaller summed distance, then by the lower label."""
    classes, codes = np.unique(np.asarray(train_labels), return_inverse=True)
    onehot = np.eye(classes.size)[codes]  # (n_train, n_classes)
    pred = np.empty(len(test), dtype=classes.dtype)
    for lo in range(0, len(test), CHUNK):
        dist = cdist(test[lo : lo + CHUNK], train)
        idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
        near = np.take_along_axis(dist, idx, axis=1)
        member = onehot[idx]  # (rows, k, n_classes)
        counts = member.sum(axis=1)
        totals = (member * near[:, :, None]).sum(axis=1)
        best = counts == counts.max(axis=1, keepdims=True)
        totals = np.where(best, totals, np.inf)
        winners = best & (totals == totals.min(axis=1, keepdims=True))
        pred[lo : lo + CHUNK] = classes[winners.argmax(axis=1)]
    return pred


def knn_accuracy(train, train_labels, test, test_labels, k: int = 5) -> float:
    return float((knn_predict(train, train_labels, test, k) == test_labels).mean())


def normalized_affinity(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``A = D^{-1/2} W D^{-1/2}`` of the symmetric adaptive Gaussian kernel
    ``W_ij = (exp(-d_ij^2 / 2 s_i^2) + exp(-d_ij^2 / 2 s_j^2)) / 2``, with
    ``s_i`` the distance from point i to its k-th neighbour, and the degrees."""
    d2 = cdist(X, X, metric="sqeuclidean")
    s2 = np.partition(d2, k, axis=1)[:, k]  # column 0 is the point itself
    W = np.exp(-d2 / (2.0 * s2[:, None]))
    np.exp(-d2 / (2.0 * s2[None, :]), out=d2)
    W += d2
    del d2
    W *= 0.5
    np.fill_diagonal(W, 1.0)
    degrees = W.sum(axis=1)
    inv = 1.0 / np.sqrt(degrees)
    W *= inv[:, None]
    W *= inv[None, :]
    return W, degrees


def basis_errors(A: np.ndarray, degrees, psi, lam, basis_degrees) -> dict:
    """How far a returned non-trivial basis is from being eigenpairs of A."""
    r = psi.shape[1]
    trivial = np.sqrt(degrees) / np.linalg.norm(np.sqrt(degrees))
    return {
        "orthonormality": float(np.abs(psi.T @ psi - np.eye(r)).max()),
        "eigen_residual": float(np.linalg.norm(A @ psi - psi * lam, axis=0).max()),
        "trivial_overlap": float(np.abs(trivial @ psi).max()),
        "degree_error": float(np.abs(basis_degrees / degrees - 1.0).max()),
        "lam_in_unit_interval_descending": bool(
            np.all((lam >= 0) & (lam <= 1)) and np.all(np.diff(lam) <= 0)
        ),
    }


def self_match_rate(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of rows of ``a`` whose nearest row of ``b`` has the same index."""
    hits = 0
    for lo in range(0, len(a), CHUNK):
        nearest = cdist(a[lo : lo + CHUNK], b).argmin(axis=1)
        hits += int((nearest == np.arange(lo, lo + len(nearest))).sum())
    return hits / len(a)
