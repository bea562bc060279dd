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
that route keeps resident, which :func:`check_memory` compares with the
memory available.  Both solvers read the graph's upper triangle in place and
return pairs ascending, and one tail turns either route's pairs into the
basis: a full dense basis is ordered inside the buffer the solver wrote, and a
truncated one is written once into its own array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from .core import _available_memory, check_count
from .graph import KernelGraph, _resident_bytes, _row_blocks

_log = logging.getLogger("harmalign")
#: graphs larger than this keep RANK_AUTO eigenpairs when no rank is given
FULL_DECOMPOSITION_LIMIT = 2000
RANK_AUTO = 100
#: N x N arrays at the dense route's peak when the solve may consume A: A,
#: overwritten whole by the eigenvectors, and dsyevd's 2 N^2 workspace
_DENSE_NXN_ARRAYS = 3


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal eigenvectors Psi and eigenvalues of I - L, sorted descending.

    Eigenvalues are clamped into [0, 1] after decomposition; the degree vector
    of the originating graph is carried along for diffusion-coordinate scaling.
    :func:`fourier_basis` returns ``psi`` F-contiguous with all N pairs (the
    dense solver's own buffer) and C-contiguous with fewer.
    """

    psi: np.ndarray  # (N, r)
    lam: np.ndarray  # (r,)
    degrees: np.ndarray  # (N,)

    @property
    def rank(self) -> int:
        return self.psi.shape[1]


def _signs(psi: np.ndarray) -> np.ndarray:
    """The canonical sign of each column of ``psi``: that of its
    largest-magnitude entry, of the first one when +m and -m tie, + for a
    zero column.  Read from column extremes, with nothing the size of ``psi``."""
    hi, lo = psi.max(axis=0), -psi.min(axis=0)
    signs = np.where(lo > hi, -1.0, 1.0)  # a zero column keeps +
    for j in np.flatnonzero((hi == lo) & (hi > 0)):  # +m and -m: the first decides
        signs[j] = np.sign(psi[np.abs(psi[:, j]).argmax(), j])
    return signs


def canonical_signs(psi: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so each column's largest-magnitude entry is positive.

    Idempotent; applied on construction and again inside the alignment
    pipeline so externally sign-flipped bases align identically.  Signs come
    from column extremes: ``psi`` itself when none flips, else one C-ordered product.
    """
    signs = _signs(psi)
    return psi if np.all(signs > 0) else np.multiply(psi, signs, order="C")


def _full_basis_in_place(psi: np.ndarray) -> np.ndarray:
    """The basis of all N ascending eigenvectors in the F-ordered N x N
    ``psi``, made in ``psi``'s own buffer: its columns (the rows of the
    C-ordered ``psi.T``) reversed by swapping ``_BLOCK_ROWS``-row blocks from
    both ends through one block's copy, then signed by :func:`_signs`.
    Returns ``psi``, F-contiguous and equal to ``canonical_signs(psi[:, ::-1])``."""
    rows, n = psi.T, len(psi)
    for lo, hi in _row_blocks(n // 2):
        top = rows[lo:hi].copy()
        rows[lo:hi] = rows[n - hi:n - lo][::-1]
        rows[n - hi:n - lo] = top[::-1]
    psi *= _signs(psi)
    return psi


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
    """Bytes an n-point graph's N x N arrays keep resident at ``rank``.  On the
    dense route: the graph, written whole by the eigenvectors when
    :func:`fourier_basis` may overwrite it (``overwrite_a``), and ``dsyevd``'s
    workspace of two more.  On the Lanczos route: the graph as its triangle
    leaves it, one N x N array, or in its own mapping the triangle and a page
    per row (``graph._resident_bytes``, from the rule that allocates it)."""
    if _plan(n, rank)[1]:
        return _DENSE_NXN_ARRAYS * 8 * n * n
    return _resident_bytes(n)


def check_memory(n: int, rank: int | None = None) -> None:
    """Refuse an n-point graph whose :func:`nxn_bytes` would not fit; the
    Lanczos fallback checks the dense route's further bytes when it happens."""
    _require(nxn_bytes(n, rank), f"preparing {n} points at rank {_plan(n, rank)[0] or 'full'}",
             "for its N x N arrays")


def _dense_solve(upper: np.ndarray, *, overwrite_a: bool = False):
    """All eigenpairs of the symmetric matrix whose upper triangle ``upper``
    holds, ascending, by LAPACK ``dsyevd``, beside its 2 N^2 workspace: in
    ``upper``'s own buffer when ``overwrite_a`` (``upper.T`` is it in F order,
    whose lower triangle ``dsyevd`` reads), else in the F-ordered copy ``eigh``
    makes.  The other triangle is not read, so it is not checked for finite
    values either."""
    return scipy.linalg.eigh(upper.T, lower=True, driver="evd", overwrite_a=overwrite_a,
                             check_finite=False)


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
        starting vector for determinism, whose products (``dsymv``) read
        ``g.upper``'s triangle in place.  Both return pairs ascending, and
        one tail keeps the top ``rank`` of either.  If Lanczos does not converge, the
        dense decomposition is sliced instead and the fallback
        is logged to the ``harmalign`` logger; when the dense route's further
        N x N arrays would exceed available memory, a MemoryError naming the
        Lanczos failure is raised instead.
    overwrite_a : bool, keyword-only
        Let a dense decomposition, the Lanczos fallback's included, write its
        eigenvectors over ``g.upper``, for a caller that drops the graph.  It
        then peaks at three N x N arrays: the graph and the solver's 2 N^2
        workspace, and a basis of all N pairs is ``g.upper``'s buffer.  By
        default ``eigh`` solves on the one copy of the graph it makes, peaks
        at four and leaves ``g.upper`` unchanged.  Lanczos
        itself only reads the triangle.  No solver reads ``g.upper``'s strict
        lower part.

    Returns
    -------
    FourierBasis
        Eigenvalues sorted descending and clamped into [0, 1]; eigenvectors
        reversed and signed into one contiguous array: with all N pairs the
        solver's own F-ordered N x N buffer, its columns reversed in place,
        else the kept columns, written once into their own C-ordered array,
        so that the solver's buffer is freed.
    """
    n = g.n_points
    rank, dense = _plan(n, rank)
    if not dense:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        # upper.T is the graph in F order: dsymv reads its lower triangle in place
        op = scipy.sparse.linalg.LinearOperator(
            (n, n), lambda v: dsymv(1.0, g.upper.T, v, lower=1), dtype=float)
        try:
            lam, psi = scipy.sparse.linalg.eigsh(op, k=rank, which="LA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            found = (f"Lanczos found {len(exc.eigenvalues)} of {rank} eigenpairs "
                     f"of a {n}-point graph")
            # the dense route's arrays, less the graph's resident part when it
            # is consumed: its other half becomes resident, a copy comes on top
            further = _DENSE_NXN_ARRAYS * g.upper.nbytes
            if overwrite_a:
                further -= _resident_bytes(n)
            _require(further, f"{found}, and the dense solver", "more", exc)
            _log.warning("%s; falling back to the dense solver", found)
            dense = True
    if dense:
        lam, psi = _dense_solve(g.upper, overwrite_a=overwrite_a)
    # the top rank of the ascending pairs, descending: all n ordered in the
    # solver's own buffer, fewer signed as a view and written once
    if rank in (None, n):
        psi = _full_basis_in_place(psi)
    else:
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

