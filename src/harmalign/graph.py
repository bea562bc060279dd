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

Each graph is one N x N array, of which only the upper triangle is written
and read.  The adaptive bandwidths come first, exactly, from :func:`nearest`,
the only caller of ``cdist``.  One ``dsyrk`` of the centered rows fills the
triangle; one blocked pass over it turns it into kernel values; the degrees
and ``A`` take two more passes (four for the anisotropic kernel), each row sum
over a row block mirrored from the triangle.  A pass that writes takes each
row block as the rectangle right of its diagonal square, in place, and that
square, in a copy of which only the upper triangle is written back, so
nothing below the diagonal is ever written.  The other temporaries are row
blocks of ``_BLOCK_ROWS`` rows, the one block size of every blocked pass here
and in the evaluation, and the N x d centered copy.  A graph of at least
``_OWN_MAPPING_BYTES`` lives in its own anonymous mapping, where the pages only
the lower triangle covers are never touched, so never resident.  With one BLAS
thread, a 10000-point, 100-feature dataset prepares at rank 100 in 8–11 s
at a peak RSS of about 538 MB, of which the graph's 800 MB mapping keeps about
half.

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
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
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

    ``upper`` holds A's upper triangle, diagonal included; its strict lower
    part is unspecified (the builder never writes it) and nothing reads it.
    Invariants: ``degrees[i] = sum_j W[i, j]`` is strictly positive, and the
    eigenvalues of A lie in [-1, 1].
    """

    upper: np.ndarray
    degrees: np.ndarray

    @property
    def n_points(self) -> int:
        return self.upper.shape[0]

    @property
    def A(self) -> np.ndarray:
        """The exactly symmetric A mirrored from ``upper``, a new array on each
        access; documented API, read nowhere in the package."""
        return np.triu(self.upper) + np.triu(self.upper, 1).T

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


#: a graph of at least this many bytes (N >= 2048) gets its own anonymous
#: mapping, in which the pages only its unwritten lower triangle covers never
#: become resident.  Smaller ones come from malloc, which can reuse the heap
#: pages it keeps (a mapping for the 2000-point graphs raised a transfer
#: experiment's peak RSS by about 26 MB); 32 MiB is glibc's largest mmap
#: threshold, at and above which malloc maps fresh pages anyway
_OWN_MAPPING_BYTES = 32 << 20


def _own_mapping(n: int) -> bool:
    """Whether an n-point graph lives in its own mapping: POSIX only."""
    return 8 * n * n >= _OWN_MAPPING_BYTES and hasattr(mmap, "MAP_PRIVATE")


def _resident_bytes(n: int) -> int:
    """Bytes an n-point graph keeps resident while only its upper triangle is
    written: in its own mapping, an upper bound, the triangle and a page per
    row (``TestResidentGraph`` reads the mapping's pages against it), else all."""
    if _own_mapping(n):
        return 4 * n * (n + 1) + n * mmap.PAGESIZE
    return 8 * n * n


def _graph_buffer(n: int) -> np.ndarray:
    """An uninitialized n x n float64 array, in its own mapping when
    :func:`_own_mapping` says so."""
    if not _own_mapping(n):
        return np.empty((n, n))
    try:
        buffer = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    except OSError as error:  # ENOMEM: refused, as np.empty refuses with MemoryError
        raise MemoryError(f"cannot map the {8 * n * n / 2**20:.0f} MiB of "
                          f"a {n}-point graph") from error
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a huge page would make the lower triangle's pages resident too
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer).reshape(n, n)


def _triangle_pass(W: np.ndarray, update) -> None:
    """Apply ``update(block, rows, cols)`` in place to the upper triangle of
    W, one row block at a time, ``rows`` and ``cols`` the slices of W the
    block covers: first the rectangle right of the block's diagonal square,
    in W itself, then that square, in a copy whose strict lower part is zero
    and of which only the upper triangle is written back.  No write falls
    below the diagonal, and ``update`` never sees the unwritten values there."""
    n = W.shape[0]
    for lo, hi in _row_blocks(n):
        rows = slice(lo, hi)
        update(W[lo:hi, hi:], rows, slice(hi, n))
        square = W[lo:hi, lo:hi]
        tile = np.triu(square)
        update(tile, rows, rows)
        np.copyto(square, tile, where=np.tri(hi - lo, dtype=bool).T)


def _kernel_matrix(values: np.ndarray, kernel) -> np.ndarray:
    """``kernel`` of the squared distances of the centered rows, the upper
    triangle of an N x N array, in one :func:`_triangle_pass` after one
    ``dsyrk``: each block computes and clamps its squared distances, zeroes
    those on the diagonal and calls ``kernel(d2, rows, cols)`` on them in
    place.  The strict lower triangle is unspecified."""
    c = values - values.mean(axis=0)
    sq = _squared_norms(c)
    W = _graph_buffer(len(c))
    # W.T is W in F order, whose lower triangle is W's upper: c c^T written there
    dsyrk(1.0, c.T, trans=1, lower=1, c=W.T, overwrite_c=1)
    del c  # before the blocks' temporaries

    def distances_then_kernel(d2, rows, cols):
        d2 *= -2.0
        d2 += sq[rows, None]
        d2 += sq[cols]
        np.maximum(d2, 0.0, out=d2)
        if cols == rows:
            np.fill_diagonal(d2, 0.0)
        kernel(d2, rows, cols)

    _triangle_pass(W, distances_then_kernel)
    return W


def _row_sums(upper: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric matrix whose upper triangle ``upper`` holds,
    over full rows mirrored from it a row block at a time, the strip above
    the block a tile at a time: the full matrix's ``sum(axis=1)``, bit for bit."""
    n = upper.shape[0]
    sums = np.empty(n)
    for lo, hi in _row_blocks(n):
        rows = np.empty((hi - lo, n))
        for top, bottom in _row_blocks(lo):
            rows[:, top:bottom] = upper[top:bottom, lo:hi].T
        rows[:, lo:] = upper[lo:hi, lo:]
        lower = np.tril_indices(hi - lo, -1)
        rows[:, lo:hi][lower] = upper[lo:hi, lo:hi].T[lower]
        sums[lo:hi] = rows.sum(axis=1)
        del rows  # before the next block's
    return sums


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
    """Normalize the symmetric kernel matrix whose upper triangle W holds, in
    place, into the graph's affinity."""
    degrees = _row_sums(W)
    if not np.all(degrees > 0):  # NaN fails it too
        i = int(np.flatnonzero(~(degrees > 0))[0])
        raise ValueError(f"degree {degrees[i]} at point {i}: the kernel is zero or not finite")
    inv_sqrt = 1.0 / np.sqrt(degrees)

    def normalize(block, rows, cols):
        # one factor inv_i * inv_j per entry, as for a full, exactly symmetric A
        block *= np.multiply.outer(inv_sqrt[rows], inv_sqrt[cols])

    _triangle_pass(W, normalize)
    return KernelGraph(upper=W, degrees=degrees)


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

    def kernel(d2, rows, cols):
        row_term = d2 / scale[rows, None]
        np.exp(row_term, out=row_term)
        d2 /= scale[cols]
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

    def kernel(d2, rows, cols):
        d2 /= -sigma
        np.exp(d2, out=d2)

    G = _kernel_matrix(as_values(X), kernel)
    r = _row_sums(G)

    def divide(block, rows, cols):
        block /= np.multiply.outer(r[rows], r[cols])

    _triangle_pass(G, divide)
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
