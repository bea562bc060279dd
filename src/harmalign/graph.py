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

Each graph is one N x N array.  The adaptive bandwidths come first, exactly,
from :func:`nearest`, the only caller of ``cdist``.  One GEMM of the centered
rows fills the array; one blocked pass over its upper triangle turns it into
kernel values and mirrors them below the diagonal; the degrees and ``A`` take
two more passes (four for the anisotropic kernel).  The other temporaries are
row blocks of ``_BLOCK_ROWS`` rows, the one block size of every blocked pass
here and in the evaluation, and the N x d centered copy.  With one BLAS
thread, a 10000-point, 100-feature dataset prepares at rank 100 in 13 s at a
peak RSS of 881 MB, of which the graph is 800 MB.

Each squared distance is within ``e_ij = (4d + 7) u (|c_i|^2 + |c_j|^2)`` of
``cdist``'s (the bound :func:`nearest` states; ``c`` the centered rows, so a
common offset costs nothing).  A Gaussian term then moves by a relative
``rho = max e_ij / (2 min eps_i)`` at most and an entry of ``A``, through the
degrees, by ``2 rho`` (the anisotropic kernel: ``6 max e_ij / sigma``), to
first order: under 1.1e-13 of ``max |A|`` on the tests' data, checked at 1e-12.

This module is also the one place that picks neighbours: every query (the
bandwidths, k-NN evaluation, MNN, the CLI's self-match rate) calls
:func:`nearest`, which orders them by (distance, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import as_values, check_count


@dataclass(frozen=True)
class BandwidthSpec:
    """Kernel bandwidth: a single fixed sigma or per-point adaptive k-NN scale."""

    mode: str  # "fixed" | "adaptive"
    sigma: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.sigma is None or not self.sigma > 0:  # NaN fails it too
                raise ValueError("fixed bandwidth requires sigma > 0")
            square = float(self.sigma) * float(self.sigma)  # numpy's product would warn
            if not square > 0:  # the kernel divides by sigma**2
                raise ValueError(f"fixed bandwidth sigma={self.sigma!r} is too small: "
                                 "its square underflows to 0")
            if square == math.inf:  # the kernel would be 1 everywhere
                raise ValueError(f"fixed bandwidth sigma={self.sigma!r} is too large: "
                                 "its square overflows to inf")
        elif self.mode == "adaptive":
            check_count("k", self.k)
        else:
            raise ValueError(f"unknown bandwidth mode {self.mode!r}")

    @classmethod
    def fixed(cls, sigma: float) -> "BandwidthSpec":
        return cls(mode="fixed", sigma=float(sigma))

    @classmethod
    def adaptive(cls, k: int) -> "BandwidthSpec":
        return cls(mode="adaptive", k=k)


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
        """Symmetric normalized Laplacian ``I - A``, a new array on each access;
        documented API, read nowhere in the package."""
        return np.eye(self.n_points) - self.A


#: rows per block of every blocked pass: the kernel passes over the N x N
#: buffer and the nearest-neighbour queries (:func:`nearest`, k-NN voting,
#: neighbourhood overlap); a block's temporaries take _BLOCK_ROWS * N * 8
#: bytes (2 MB at N = 1000), N the row count or the training set's size
_BLOCK_ROWS = 256


def _row_blocks(n: int):
    """``(start, stop)`` row ranges of at most ``_BLOCK_ROWS`` rows covering n."""
    return ((lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """Squared row norms; raises ValueError unless they are finite and far
    from overflow, so that no sum of four of them overflows."""
    sq = np.einsum("ij,ij->i", a, a)
    if not np.isfinite(8 * sq.max()):  # NaN and inf propagate
        raise ValueError("distances need finite values whose squared norms do not overflow")
    return sq


def _kernel_matrix(values: np.ndarray, kernel) -> np.ndarray:
    """``kernel`` of the squared distances of the centered rows, N x N, in one
    blocked pass after one GEMM: each row block computes and clamps its part
    right of the diagonal, zeroes the diagonal, calls ``kernel(d2, lo)`` on it
    in place (``lo`` its first row) and copies its left part from above."""
    c = values - values.mean(axis=0)
    sq = _squared_norms(c)
    W = c @ c.T
    del c  # before the blocks' temporaries
    for lo, hi in _row_blocks(len(W)):
        d2 = W[lo:hi, lo:]
        d2 *= -2.0
        d2 += sq[lo:hi, None]
        d2 += sq[lo:]
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        kernel(d2, lo)
        W[lo:hi, :lo] = W[:lo, lo:hi].T
        W[lo:hi, lo:hi] = np.triu(W[lo:hi, lo:hi]) + np.triu(W[lo:hi, lo:hi], 1).T
    return W


def adaptive_bandwidth(X, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (self excluded),
    the adaptive kernel's bandwidth: exact, as :func:`nearest` selects it."""
    values = as_values(X)
    if not 1 <= k < len(values):
        raise ValueError(f"adaptive bandwidth needs 1 <= k < N; got k={k}, N={len(values)}")
    # column 0 is the point itself; the copy frees the N x (k + 1) distances
    sigma = nearest(values, values, k + 1)[1][:, k].copy()
    if np.any(sigma <= 0):
        i = int(np.flatnonzero(sigma <= 0)[0])
        raise ValueError(f"zero adaptive bandwidth at point {i} (duplicate points within "
                         f"{k} neighbors); use a fixed bandwidth instead, e.g. the "
                         "anisotropic kernel with a sigma (CLI: --kernel eq1 --sigma S)")
    return sigma


def _finish_graph(W: np.ndarray) -> KernelGraph:
    """Normalize a symmetric kernel matrix in place into the graph's affinity."""
    degrees = W.sum(axis=1)
    if not np.all(degrees > 0):  # NaN fails it too
        i = int(np.flatnonzero(~(degrees > 0))[0])
        raise ValueError(f"degree {degrees[i]} at point {i}: the kernel is zero or not finite")
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
    """
    values = as_values(X)
    # the bandwidths first: nearest's block temporaries never meet W
    if bw.mode == "adaptive":
        sigma = adaptive_bandwidth(values, bw.k)
    else:
        sigma = np.full(len(values), bw.sigma, dtype=np.float64)
    scale = -2.0 * sigma**2

    def kernel(d2, lo):
        row_term = d2 / scale[lo : lo + len(d2), None]
        np.exp(row_term, out=row_term)
        d2 /= scale[lo:]
        np.add(row_term, np.exp(d2, out=d2), out=d2)
        d2 *= 0.5

    return _finish_graph(_kernel_matrix(values, kernel))


def _check_anisotropic_sigma(sigma) -> None:
    """Refuse an anisotropic bandwidth that is not positive or whose square
    overflows; :class:`~harmalign.align.AlignmentParams` applies it too."""
    if not sigma > 0:  # NaN fails it too
        raise ValueError(f"anisotropic kernel requires sigma > 0, got {sigma}")
    if float(sigma) * float(sigma) == math.inf:  # numpy's product would warn
        raise ValueError(f"anisotropic kernel sigma={sigma!r} is too large: "
                         "its square overflows to inf")


def anisotropic_kernel_graph(X, sigma: float) -> KernelGraph:
    """Density-normalized Gaussian kernel graph.

    ``W(i,j) = G(i,j) / (r_i r_j)`` where ``G = exp(-d^2 / sigma)`` and ``r_i``
    is the i-th row sum of G.  The normalization is symmetric in i and j, so
    W stays exactly symmetric; unlike the Gaussian graphs, its diagonal is
    not 1.

    Raises ValueError, before any kernel is built, for a sigma that is not
    positive (zero, negative or NaN) or whose square overflows to inf (inf,
    1e200: the kernel would be constant).
    """
    _check_anisotropic_sigma(sigma)

    def kernel(d2, lo):
        d2 /= -sigma
        np.exp(d2, out=d2)

    G = _kernel_matrix(as_values(X), kernel)
    r = G.sum(axis=1)
    for lo, hi in _row_blocks(G.shape[0]):
        G[lo:hi] /= np.multiply.outer(r[lo:hi], r)
    return _finish_graph(G)


def nearest(test, train, k: int):
    """The k nearest training rows of each test row by (``cdist`` distance,
    index), and those distances, equal bit for bit to a full ``cdist`` and a
    stable sort.

    Each block of ``_BLOCK_ROWS`` test rows is screened with one GEMM,
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
    t_sq, test_sq = _squared_norms(train), _squared_norms(test)
    t_max = t_sq.max()
    f64 = np.finfo(np.float64)
    rel, tiny = 8 * (d + 8) * f64.eps / 2, 8 * (d + 8) * f64.smallest_subnormal
    for lo, hi in _row_blocks(test.shape[0]):
        q, q_sq = test[lo:hi], test_sq[lo:hi]
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
