"""Kernel graph construction and nearest-neighbour queries.

Given a dataset this module builds the symmetric kernel matrix ``W`` and
keeps what later stages read: the degree vector ``D = diag(sum_j W(i, j))``
and the normalized affinity ``A = D^{-1/2} W D^{-1/2}``, whose eigenvectors
form the graph Fourier basis.  ``W`` itself is normalized in place into ``A``
and not kept.

Two kernel families are provided.  The default is the symmetric adaptive
Gaussian

    W(i, j) = 1/2 [ exp(-||xi-xj||^2 / (2 eps_i)) + exp(-||xi-xj||^2 / (2 eps_j)) ]

with per-point scale ``eps_i = sigma_i^2`` where ``sigma_i`` is the distance
from point i to its k-th nearest neighbor (or a single fixed ``sigma`` for
all points).  The alternative is the anisotropic kernel

    W(i, j) = G(i, j) / (||G(i, .)||_1 ||G(j, .)||_1),   G = exp(-||xi-xj||^2 / sigma),

which divides out sampling density before any further normalization.

Each graph is built with one squared-distance pass and one N x N array:
the ``cdist`` output is the only one, the adaptive bandwidths are read from
it, and it is rewritten in place, a row block at a time, into ``W`` and then
``A``.  The other temporaries are row blocks of ``_BLOCK_ROWS`` rows.  With
one BLAS thread, preparing one 10000-point, 100-feature dataset at rank 100
took 27 s at a peak RSS of 880 MB, of which the graph is 800 MB.

This module is also the one place that picks neighbours: every query
outside the kernel (k-NN evaluation, the MNN baseline, the CLI's self-match
rate) calls :func:`nearest`, which orders them by (distance, index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import as_values


@dataclass(frozen=True)
class BandwidthSpec:
    """Kernel bandwidth: a single fixed sigma or per-point adaptive k-NN scale."""

    mode: str  # "fixed" | "adaptive"
    sigma: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("fixed bandwidth requires sigma > 0")
        elif self.mode == "adaptive":
            if self.k is None or self.k < 1:
                raise ValueError("adaptive bandwidth requires k >= 1")
        else:
            raise ValueError(f"unknown bandwidth mode {self.mode!r}")

    @classmethod
    def fixed(cls, sigma: float) -> "BandwidthSpec":
        return cls(mode="fixed", sigma=float(sigma))

    @classmethod
    def adaptive(cls, k: int) -> "BandwidthSpec":
        return cls(mode="adaptive", k=int(k))


@dataclass(frozen=True)
class KernelGraph:
    """Normalized affinity ``A = D^{-1/2} W D^{-1/2}`` and degrees of one dataset.

    Invariants: A is exactly symmetric, ``degrees[i] = sum_j W[i, j]`` is
    strictly positive, and the eigenvalues of A lie in [-1, 1].
    """

    A: np.ndarray
    degrees: np.ndarray

    @property
    def n_points(self) -> int:
        return self.A.shape[0]

    @property
    def L(self) -> np.ndarray:
        """Symmetric normalized Laplacian ``I - A`` (a new array on each access)."""
        return np.eye(self.n_points) - self.A


#: rows per block of the blocked passes over the N x N buffer; a block's
#: temporaries take _BLOCK_ROWS * N * 8 bytes (2 MB at N = 1000)
_BLOCK_ROWS = 256


def _row_blocks(n: int):
    """``(start, stop)`` row ranges of at most ``_BLOCK_ROWS`` rows covering n."""
    return ((lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _kth_neighbor_distance(sq: np.ndarray, k: int) -> np.ndarray:
    """Distance to the k-th nearest neighbor from the N x N squared distances.

    The rows are partitioned a block at a time, so no second N x N array is
    made.  Euclidean ``cdist`` is the square root of the squared one bit for
    bit and the root is monotone, so the root of the k-th smallest squared
    distance is the k-th smallest distance exactly.
    """
    n = sq.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"adaptive bandwidth needs 1 <= k < N; got k={k}, N={n}")
    # column 0 in sorted order is the self-distance 0; column k is the k-th
    # neighbor.  The copy frees each block's partitioned rows at once.
    blocks = (np.partition(sq[lo:hi], k, axis=1)[:, k].copy() for lo, hi in _row_blocks(n))
    sigma = np.concatenate(list(blocks))
    np.sqrt(sigma, out=sigma)
    if np.any(sigma <= 0):
        i = int(np.flatnonzero(sigma <= 0)[0])
        raise ValueError(
            f"zero adaptive bandwidth at point {i} (duplicate points within {k} "
            "neighbors); use a fixed bandwidth instead"
        )
    return sigma


def adaptive_bandwidth(X, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (self excluded);
    unused by the package, kept while ``perfbench/tracer.py`` names it."""
    values = as_values(X)
    return _kth_neighbor_distance(cdist(values, values, metric="sqeuclidean"), k)


def _finish_graph(W: np.ndarray) -> KernelGraph:
    """Normalize a symmetric kernel matrix in place into the graph's affinity."""
    degrees = W.sum(axis=1)
    if np.any(degrees <= 0):
        i = int(np.flatnonzero(degrees <= 0)[0])
        raise ValueError(f"zero degree at point {i} (kernel underflowed)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # one factor inv_i * inv_j per entry keeps A exactly symmetric
    for lo, hi in _row_blocks(W.shape[0]):
        W[lo:hi] *= np.multiply.outer(inv_sqrt[lo:hi], inv_sqrt)
    return KernelGraph(A=W, degrees=degrees)


def gauss_kernel_graph(X, bw: BandwidthSpec) -> KernelGraph:
    """Symmetric (adaptive) Gaussian kernel graph.

    With per-point scales ``eps_i = sigma_i^2`` the kernel is the symmetrized
    Gaussian ``W(i,j) = 1/2 [exp(-d_ij^2 / (2 eps_i)) + exp(-d_ij^2 / (2 eps_j))]``;
    a fixed bandwidth uses the same formula with all ``sigma_i`` equal, which
    reduces to the plain Gaussian ``exp(-d^2 / (2 sigma^2))``.

    The squared distances are the only N x N array: the adaptive bandwidths
    are read from them, and they are rewritten in place, a row block at a
    time, into ``W`` and then ``A``.
    """
    values = as_values(X)
    n = values.shape[0]
    # the squared distances are exactly symmetric, so W is too
    W = cdist(values, values, metric="sqeuclidean")
    if bw.mode == "adaptive":
        sigma = _kth_neighbor_distance(W, bw.k)
    else:
        sigma = np.full(n, bw.sigma, dtype=np.float64)
    scale = -2.0 * sigma**2
    for lo, hi in _row_blocks(n):
        d2 = W[lo:hi]
        row_term = d2 / scale[lo:hi, None]
        np.exp(row_term, out=row_term)
        d2 /= scale[None, :]
        np.add(row_term, np.exp(d2, out=d2), out=d2)
        d2 *= 0.5
        del row_term  # before the next block's is allocated
    np.fill_diagonal(W, 1.0)
    return _finish_graph(W)


def anisotropic_kernel_graph(X, sigma: float) -> KernelGraph:
    """Density-normalized Gaussian kernel graph.

    ``W(i,j) = G(i,j) / (r_i r_j)`` where ``G = exp(-d^2 / sigma)`` and ``r_i``
    is the i-th row sum of G.  The normalization is symmetric in i and j, so
    W stays exactly symmetric; unlike the Gaussian graphs, its diagonal is
    not 1.
    """
    if sigma <= 0:
        raise ValueError(f"anisotropic kernel requires sigma > 0, got {sigma}")
    values = as_values(X)
    G = cdist(values, values, metric="sqeuclidean")
    G /= -sigma
    np.exp(G, out=G)
    r = G.sum(axis=1)
    for lo, hi in _row_blocks(G.shape[0]):
        G[lo:hi] /= np.multiply.outer(r[lo:hi], r)
    return _finish_graph(G)


#: query rows per distance block: bounds each block at _CHUNK x N_train
_CHUNK = 512


def nearest(test, train, k: int):
    """The k nearest training rows of each test row by (``cdist`` distance,
    index), and those distances, equal bit for bit to a full ``cdist`` and a
    stable sort.

    Each block of _CHUNK test rows is screened with one GEMM,
    ``g = |q|^2 + |t|^2 - 2 q t^T``, which is within
    ``(4d + 7) u (|q|^2 + max |t|^2)`` of every ``cdist`` value squared, for
    any summation order (u the unit roundoff, d the width), plus a few
    smallest subnormals per term where products underflow.  A row keeps each
    j whose ``g`` is at most its k-th smallest ``g`` plus the margin
    ``8 (d + 8) (u (|q|^2 + max |t|^2) + s)``, s the smallest subnormal:
    twice that error, with room for ties the square root makes and for the
    margin's own rounding.  So no true neighbour is dropped.  The candidates
    are re-scored with ``cdist``, which computes each pair on its own, and
    sorted by (distance, index).  On tie-heavy data a row keeps many
    candidates, up to all of them, and costs at most its full ``cdist`` row.

    Raises ValueError unless every value is finite and the squared norms are
    far from overflow, where the margin holds.

    Returns ``(idx, dist)``, both (N_test, k).
    """
    d = train.shape[1]
    idx = np.empty((test.shape[0], k), dtype=np.intp)
    dist = np.empty((test.shape[0], k))
    t_sq = np.einsum("ij,ij->i", train, train)
    test_sq = np.einsum("ij,ij->i", test, test)
    t_max = t_sq.max()
    if not np.isfinite(4 * (t_max + test_sq.max())):  # NaN and inf propagate
        raise ValueError(
            "nearest neighbours need finite values whose squared norms do not overflow"
        )
    f64 = np.finfo(np.float64)
    rel, tiny = 8 * (d + 8) * f64.eps / 2, 8 * (d + 8) * f64.smallest_subnormal
    for lo in range(0, test.shape[0], _CHUNK):
        q, q_sq = test[lo : lo + _CHUNK], test_sq[lo : lo + _CHUNK]
        g = q @ train.T
        g *= -2.0
        g += q_sq[:, None]
        g += t_sq
        bound = np.partition(g, k - 1, axis=1)[:, k - 1] + (rel * (q_sq + t_max) + tiny)
        for r, row in enumerate(g <= bound[:, None]):
            cand = np.flatnonzero(row)
            near = cdist(q[r : r + 1], train[cand])[0]
            order = np.lexsort((cand, near))[:k]
            idx[lo + r], dist[lo + r] = cand[order], near[order]
    return idx, dist
