"""Itersine spectral windows and joint bandlimiting weights.

A bank of ``n_bands + 1`` translated itersine windows

    w_xi(lam) = sin( (pi/2) * cos^2( (pi/2) * (n_bands * lam - xi) ) )

for xi = 0..n_bands tiles the spectrum [0, 1]: the squares of the windows sum
to exactly 1 at every lam.  Each window is supported on
[(xi-1)/n_bands, (xi+1)/n_bands] and vanishes identically outside it.

The joint bandlimiting weight between two eigenvalue vectors is

    w[i, j] = sum_xi  w_xi(lam_x[i]) * w_xi(lam_y[j]),

a soft indicator that the two eigenvalues occupy overlapping frequency
bands: it equals 1 when the eigenvalues coincide and is exactly 0 once they
differ by 2/n_bands or more.  The sum includes the xi = 0 band, which the
w = 1 property needs at small eigenvalues.  The weights are one product of two
window banks, ``B_x B_y^T`` with ``B[i, xi] = w_xi(lam[i])``, summed in band
order; at most two windows are nonzero at any eigenvalue.
"""

from __future__ import annotations

import numpy as np


def itersine_window(lam, xi: int, n_bands: int):
    """Evaluate the xi-th itersine window at lam (scalar or array; an array
    of band indices xi broadcasts against lam).

    Returns values in [0, 1]; exactly 0 outside the support interval
    [(xi-1)/n_bands, (xi+1)/n_bands].
    """
    if n_bands < 1:
        raise ValueError(f"band count must be >= 1, got {n_bands}")
    lam = np.asarray(lam, dtype=np.float64)
    x = n_bands * lam - xi
    # the window is identically 0 for |x| >= 1; evaluating the formula there
    # would leave rounding residue from cos(pi/2), so mask it out exactly
    inside = np.abs(x) < 1.0
    xv = np.where(inside, x, 0.0)
    out = np.where(
        inside, np.sin(0.5 * np.pi * np.cos(0.5 * np.pi * xv) ** 2), 0.0
    )
    if out.ndim == 0:
        return float(out)
    return out


def bandlimiting_weights(lam_x: np.ndarray, lam_y: np.ndarray, n_bands: int) -> np.ndarray:
    """Joint bandlimiting weight matrix between two eigenvalue vectors.

    Parameters
    ----------
    lam_x, lam_y : 1-D arrays of eigenvalues in [0, 1].
    n_bands : int
        Number of itersine bands; the sum runs over xi = 0..n_bands.

    Returns
    -------
    (len(lam_x), len(lam_y)) ndarray with entries in [0, 1].
    """
    bank_x, bank_y = (itersine_window(np.reshape(lam, (-1, 1)), np.arange(n_bands + 1), n_bands)
                      for lam in (lam_x, lam_y))
    return np.einsum("ik,jk->ij", bank_x, bank_y)
