"""Mutual-nearest-neighbors batch correction baseline.

Two points across datasets form a mutual pair when each is among the other's
k nearest neighbors.  Every point of the second dataset receives a raw
correction vector (the mean difference to its mutual partners, zero without
partners), and the corrections are smoothed by a row-normalized Gaussian
kernel over the second dataset before being added.

This is a compact reimplementation of the textbook method for benchmarking
purposes only: no cosine normalization and no per-feature scaling are
applied, and the smoothing bandwidth defaults to the median pairwise
distance within the dataset being corrected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import as_values


@dataclass(frozen=True)
class MnnParams:
    """Neighbor count and Gaussian smoothing bandwidth of the MNN correction.

    ``sigma=None`` selects the median pairwise distance within the corrected
    dataset at call time.
    """

    k: int = 20
    sigma: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def _knn_sets(dist: np.ndarray, k: int) -> np.ndarray:
    """Boolean (rows, cols) membership mask: col j among row i's k nearest."""
    idx = np.argpartition(dist, k - 1, axis=1)[:, :k]
    mask = np.zeros(dist.shape, dtype=bool)
    mask[np.arange(dist.shape[0])[:, None], idx] = True
    return mask


def mnn_correct(X, Y, params: MnnParams | None = None) -> np.ndarray:
    """Correct Y toward X using smoothed mutual-nearest-neighbor shifts.

    Parameters
    ----------
    X : DataMatrix or (N1, d) array
        Reference dataset.
    Y : DataMatrix or (N2, d) array
        Dataset to correct.
    params : MnnParams, optional

    Returns
    -------
    (N2, d) ndarray
        ``Y + S V`` where V stacks per-point raw corrections (mean of x - y
        over mutual neighbors, zero without any) and S is the row-normalized
        Gaussian smoothing matrix over Y.  If no mutual pair exists anywhere,
        a warning is raised and Y is returned unchanged.
    """
    params = params or MnnParams()
    xv, yv = as_values(X), as_values(Y)
    if xv.shape[1] != yv.shape[1]:
        raise ValueError(
            f"datasets must share a feature space: d={xv.shape[1]} vs d={yv.shape[1]}"
        )
    n1, n2 = xv.shape[0], yv.shape[0]
    if params.k >= min(n1, n2):
        raise ValueError(f"k={params.k} must be < min(N1, N2)={min(n1, n2)}")
    cross = cdist(yv, xv)  # (N2, N1)
    y_to_x = _knn_sets(cross, params.k)  # x among y's k nearest
    x_to_y = _knn_sets(cross.T, params.k)  # y among x's k nearest
    mutual = y_to_x & x_to_y.T  # (N2, N1)
    if not mutual.any():
        warnings.warn("no mutual nearest-neighbor pairs found; returning Y unchanged")
        return yv.copy()
    counts = mutual.sum(axis=1)
    V = np.zeros_like(yv)
    has = counts > 0
    V[has] = (mutual[has].astype(np.float64) @ xv) / counts[has, None] - yv[has]
    dyy = cdist(yv, yv)
    sigma = params.sigma
    if sigma is None:
        off_diag = dyy[~np.eye(n2, dtype=bool)]
        sigma = float(np.median(off_diag))
        if sigma <= 0:
            sigma = 1.0
    S = np.exp(-(dyy**2) / (2.0 * sigma**2))
    S /= S.sum(axis=1, keepdims=True)
    return yv + S @ V
