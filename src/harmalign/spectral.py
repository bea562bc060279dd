"""Graph Fourier basis.

The graph Fourier basis is the symmetric eigendecomposition of the
normalized affinity ``A = I - L = D^{-1/2} W D^{-1/2}`` with eigenvalues
sorted descending.  A symmetric solver (not an SVD) is used deliberately:
slightly negative eigenvalues of A must keep their sign so the clamp into
[0, 1] is principled.  Each eigenvector is sign-normalized so that its
largest-magnitude entry is positive, making the basis deterministic away
from eigenvalue ties.

The basis carries the graph's degrees so that diffusion coordinates
``Phi_t = D^{-1/2} Psi Lambda^t`` can be formed from it; the alignment module
assembles them (:func:`harmalign.align.unified_diffusion_map`).

This module alone plans each eigensolve: the rank ``rank=None`` means, the
route (a dense divide-and-conquer ``eigh`` or Lanczos) and the N x N arrays
that route holds, which :func:`check_memory` compares with the memory
available.  Both solvers return pairs ascending, and one tail turns either
route's pairs into the basis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from .core import _available_memory, check_count
from .graph import KernelGraph

_log = logging.getLogger("harmalign")
#: graphs larger than this keep RANK_AUTO eigenpairs when no rank is given
FULL_DECOMPOSITION_LIMIT = 2000
RANK_AUTO = 100
#: N x N arrays at the dense route's peak when the solve may consume A: A,
#: overwritten by the eigenvectors, and dsyevd's 2 N^2 workspace
_DENSE_NXN_ARRAYS = 3


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal eigenvectors Psi and eigenvalues of I - L, sorted descending.

    Eigenvalues are clamped into [0, 1] after decomposition; the degree vector
    of the originating graph is carried along for diffusion-coordinate scaling.
    """

    psi: np.ndarray  # (N, r)
    lam: np.ndarray  # (r,)
    degrees: np.ndarray  # (N,)

    @property
    def rank(self) -> int:
        return self.psi.shape[1]


def canonical_signs(psi: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so each column's largest-magnitude entry is positive.

    Idempotent; applied on construction and again inside the alignment
    pipeline so externally sign-flipped bases align identically.  Signs come
    from column extremes: ``psi`` itself when none flips, else one C-ordered product.
    """
    hi, lo = psi.max(axis=0), -psi.min(axis=0)
    signs = np.where(lo > hi, -1.0, 1.0)  # a zero column keeps +
    for j in np.flatnonzero((hi == lo) & (hi > 0)):  # +m and -m: the first decides
        signs[j] = np.sign(psi[np.abs(psi[:, j]).argmax(), j])
    return psi if np.all(signs > 0) else np.multiply(psi, signs, order="C")


def _plan(n: int, rank: int | None) -> tuple[int | None, bool]:
    """The rank :func:`fourier_basis` keeps of an n-point graph (None: all n)
    and whether a full ``eigh`` computes it; ValueError unless ``rank`` is
    None or a positive integer of at most n."""
    if rank is not None:
        check_count("rank", rank)
        if rank > n:
            raise ValueError(f"rank {rank} exceeds the {n} points of the graph")
    elif n > FULL_DECOMPOSITION_LIMIT:
        rank = RANK_AUTO
    # Lanczos time grows faster than linearly in rank: with one BLAS thread and
    # dsymv products it matched the divide-and-conquer dense solve at ranks of
    # about N/6 (N = 1000), N/7.5 (N = 2000) and N/8.5 (N = 4000), and took 9x
    # longer at rank 667 than at 600 (N = 4000); N/8 sits at or below each
    # break-even and clear of that rise
    return rank, rank is None or 8 * rank >= n


def _require(need: int, what: str, detail: str, cause: Exception | None = None) -> None:
    """Raise MemoryError when ``need`` bytes exceed the available memory;
    skipped when that cannot be read."""
    available = _available_memory()
    if available is not None and need > available:
        raise MemoryError(
            f"{what} needs about {need / 2**20:.0f} MiB {detail}, "
            f"but only {available / 2**20:.0f} MiB is available"
        ) from cause


def nxn_bytes(n: int, rank: int | None = None) -> int:
    """Bytes of an n-point graph's N x N arrays at ``rank``: the graph, and on
    the dense route ``dsyevd``'s workspace of two more, as when
    :func:`fourier_basis` may overwrite the graph (``overwrite_a``)."""
    return 8 * n * n * (_DENSE_NXN_ARRAYS if _plan(n, rank)[1] else 1)


def check_memory(n: int, rank: int | None = None) -> None:
    """Refuse an n-point graph whose :func:`nxn_bytes` would not fit."""
    _require(nxn_bytes(n, rank), f"preparing {n} points at rank {_plan(n, rank)[0] or 'full'}",
             "for its N x N arrays")


def _dense_solve(A: np.ndarray, *, overwrite_a: bool = False):
    """All eigenpairs of the symmetric A, ascending, by LAPACK ``dsyevd``,
    beside its 2 N^2 workspace: in A's own buffer when ``overwrite_a`` (``A.T``
    is the C-ordered A in F order), else in the F-ordered copy ``eigh`` makes."""
    return scipy.linalg.eigh(A.T, driver="evd", overwrite_a=overwrite_a)


def fourier_basis(g: KernelGraph, rank: int | None = None, *,
                  overwrite_a: bool = False) -> FourierBasis:
    """Eigendecomposition of A = I - L, optionally truncated to the top ``rank`` pairs.

    Parameters
    ----------
    g : KernelGraph
    rank : int, optional
        Leading eigenpairs to keep, a positive integer of at most N (else
        ValueError), all N at ``rank=N``; ``None`` keeps all N up to
        ``FULL_DECOMPOSITION_LIMIT`` points, else ``RANK_AUTO``.  Ranks of
        at least N/8 slice the full dense decomposition, a divide-and-conquer
        ``eigh``; smaller ranks use an iterative Lanczos solver with a fixed
        starting vector for determinism, whose products (``dsymv``) read one
        triangle of A in place.  Both return pairs ascending, and one tail
        keeps the top ``rank`` of either.  If Lanczos does not converge, the
        dense decomposition is sliced instead and the fallback
        is logged to the ``harmalign`` logger; when the dense route's further
        N x N arrays would exceed available memory, a MemoryError naming the
        Lanczos failure is raised instead.
    overwrite_a : bool, keyword-only
        Let a dense decomposition, the Lanczos fallback's included, write its
        eigenvectors over ``g.A``, for a caller that drops the graph.  It then
        peaks at three N x N arrays: A and the solver's 2 N^2 workspace.  By
        default ``eigh`` solves on the one copy of A it makes, peaks at four
        and leaves ``g.A`` unchanged.  Lanczos itself only reads A.

    Returns
    -------
    FourierBasis
        Eigenvalues sorted descending and clamped into [0, 1]; eigenvectors
        written once, reversed and signed, into one C-contiguous array.
    """
    n = g.n_points
    rank, dense = _plan(n, rank)
    if not dense:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        # A.T is the symmetric, C-ordered A in F order: dsymv reads it in place
        op = scipy.sparse.linalg.LinearOperator((n, n), lambda v: dsymv(1.0, g.A.T, v),
                                                dtype=float)
        try:
            lam, psi = scipy.sparse.linalg.eigsh(op, k=rank, which="LA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            found = (f"Lanczos found {len(exc.eigenvalues)} of {rank} eigenpairs "
                     f"of a {n}-point graph")
            # A exists already; the copy of it comes on top unless A is consumed
            further = _DENSE_NXN_ARRAYS - 1 if overwrite_a else _DENSE_NXN_ARRAYS
            _require(further * g.A.nbytes, f"{found}, and the dense solver", "more", exc)
            _log.warning("%s; falling back to the dense solver", found)
            dense = True
    if dense:
        lam, psi = _dense_solve(g.A, overwrite_a=overwrite_a)
    # the top rank of the ascending pairs, descending: signed as a view, written once
    psi = np.ascontiguousarray(canonical_signs(psi[:, ::-1][:, :rank]))
    lam = np.clip(lam[::-1][:rank], 0.0, 1.0)
    return FourierBasis(psi=psi, lam=lam, degrees=g.degrees)


def drop_trivial(b: FourierBasis) -> FourierBasis:
    """Remove the leading (trivial, eigenvalue-1) eigenpair."""
    if b.rank < 2:
        raise ValueError(f"cannot drop the trivial component of a rank-{b.rank} basis")
    return FourierBasis(psi=b.psi[:, 1:], lam=b.lam[1:], degrees=b.degrees)


def degenerate_gaps(lam: np.ndarray) -> list[int]:
    """Indices i where lam[i] - lam[i+1] < 1e-10 (basis defined only up to rotation)."""
    return [int(i) for i in np.flatnonzero(-np.diff(lam) < 1e-10)]

