"""Mutual-nearest-neighbors batch correction baseline.

Two points across datasets form a mutual pair when each is among the other's
k nearest neighbors.  Every point of the second dataset receives a raw
correction vector (the mean difference to its mutual partners, zero without
partners), and the corrections are smoothed by a row-normalized Gaussian
kernel over the second dataset before being added.

Neighbours come from :func:`harmalign.graph.nearest`: an exact tie goes to
the lower row index, so a mutual pair always exists (the lowest (y, x) pair
at the smallest cross distance is each other's first neighbour), and
non-finite values raise ``ValueError``.

This is a compact reimplementation of the textbook method for benchmarking
purposes only: no cosine normalization and no per-feature scaling are
applied, and the smoothing bandwidth defaults to the median of the
n2 (n2 - 1) / 2 pairwise distances within the n2 rows being corrected, which
``pdist`` computes once each (1.0 when that median is 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core import as_values, check_count
from .graph import nearest


@dataclass(frozen=True)
class MnnParams:
    """Neighbor count and Gaussian smoothing bandwidth of the MNN correction.

    ``sigma=None`` selects the median pairwise distance within the corrected
    dataset at call time.
    """

    k: int = 20
    sigma: float | None = None

    def __post_init__(self):
        check_count("k", self.k)
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


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
        Gaussian smoothing matrix over Y.

    Raises ValueError on non-finite values, mismatched widths or k >= min(N1, N2).
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
    x_of_y, _ = nearest(yv, xv, params.k)  # (N2, k): each y's nearest x
    y_of_x, _ = nearest(xv, yv, params.k)  # (N1, k): each x's nearest y
    rows = np.arange(n2)[:, None]
    mutual = np.zeros((n2, n1), dtype=bool)
    # y_i and its neighbour x_j pair up when y_i is among x_j's neighbours
    mutual[rows, x_of_y] = (y_of_x[x_of_y] == rows[:, :, None]).any(axis=2)
    counts = mutual.sum(axis=1)
    V = np.zeros_like(yv)
    has = counts > 0
    V[has] = (mutual[has].astype(np.float64) @ xv) / counts[has, None] - yv[has]
    d = pdist(yv)
    sigma = params.sigma or float(np.median(d)) or 1.0
    S = squareform(d)  # rewritten in place into the smoothing matrix
    del d
    # exp(-(d**2) / (2 sigma^2)) in place: the same operations in the same order
    np.square(S, out=S)
    np.negative(S, out=S)
    S /= 2.0 * sigma**2
    np.exp(S, out=S)
    S /= S.sum(axis=1, keepdims=True)
    return yv + S @ V
