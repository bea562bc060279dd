"""Kernel graph construction: adaptive/fixed Gaussian and anisotropic kernels.

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


def adaptive_bandwidth(X, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbor (self excluded).

    Parameters
    ----------
    X : DataMatrix or (N, d) array
    k : int
        Neighbor index, 1 <= k < N.

    Returns
    -------
    (N,) ndarray of strictly positive bandwidths.
    """
    values = as_values(X)
    n = values.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"adaptive bandwidth needs 1 <= k < N; got k={k}, N={n}")
    dist = cdist(values, values)
    # column 0 in sorted order is the self-distance 0; column k is the k-th
    # neighbor.  The copy frees the N x N partitioned array on return.
    sigma = np.partition(dist, k, axis=1)[:, k].copy()
    if np.any(sigma <= 0):
        i = int(np.flatnonzero(sigma <= 0)[0])
        raise ValueError(
            f"zero adaptive bandwidth at point {i} (duplicate points within {k} "
            "neighbors); use a fixed bandwidth instead"
        )
    return sigma


def _finish_graph(W: np.ndarray) -> KernelGraph:
    """Normalize a symmetric kernel matrix in place into the graph's affinity."""
    degrees = W.sum(axis=1)
    if np.any(degrees <= 0):
        i = int(np.flatnonzero(degrees <= 0)[0])
        raise ValueError(f"zero degree at point {i} (kernel underflowed)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # one factor inv_i * inv_j per entry keeps A exactly symmetric
    W *= np.multiply.outer(inv_sqrt, inv_sqrt)
    return KernelGraph(A=W, degrees=degrees)


def gauss_kernel_graph(X, bw: BandwidthSpec) -> KernelGraph:
    """Symmetric (adaptive) Gaussian kernel graph.

    With per-point scales ``eps_i = sigma_i^2`` the kernel is the symmetrized
    Gaussian ``W(i,j) = 1/2 [exp(-d_ij^2 / (2 eps_i)) + exp(-d_ij^2 / (2 eps_j))]``;
    a fixed bandwidth uses the same formula with all ``sigma_i`` equal, which
    reduces to the plain Gaussian ``exp(-d^2 / (2 sigma^2))``.
    """
    values = as_values(X)
    if bw.mode == "adaptive":
        sigma = adaptive_bandwidth(values, bw.k)
    else:
        sigma = np.full(values.shape[0], bw.sigma, dtype=np.float64)
    scale = -2.0 * sigma**2
    # the squared distances are exactly symmetric, so W is too
    d2 = cdist(values, values, metric="sqeuclidean")
    W = d2 / scale[:, None]
    np.exp(W, out=W)
    d2 /= scale[None, :]
    W += np.exp(d2, out=d2)
    del d2
    W *= 0.5
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
    G /= np.multiply.outer(r, r)
    return _finish_graph(G)

