"""Isometric alignment of diffusion geometries via bandlimited correlation.

Pipeline for a pair of datasets sharing a feature space:

1. build a kernel graph and graph Fourier basis per dataset;
2. drop the trivial (eigenvalue-1) harmonic;
3. transform the features into each basis (``Xh = Psi^T X``);
4. correlate harmonics across datasets, masked by bandlimiting weights so
   only harmonics of similar frequency may match
   (``C = w * (Xh Yh^T)`` elementwise);
5. orthogonalize C by SVD (``C = U S V^T``, ``T = U V^T``), the nearest
   isometry between the two diffusion coordinate systems;
6. assemble the unified diffusion map placing both datasets in shared
   coordinates, then scale each dataset's rows to unit mean norm:

       Phi_t = [[Phi0_x,        Phi0_x T ],    * blockdiag(Lam_x, Lam_y)^t
                [Phi0_y T^T,    Phi0_y   ]]

With n datasets a map ``T(i->j)`` is computed for every pair i < j (its
transpose serving ``T(j->i)``) and the analogous n-by-n block matrix is
assembled.  Pairwise alignment is this with n = 2: :func:`harmonic_alignment`
calls :func:`multi_alignment` on ``[X, Y]``, and every entry point returns one
:class:`AlignmentResult`, whose ``T`` is the map from dataset 0 to dataset 1.
A prepared dataset keeps only its data and Fourier basis; the N x N kernel
graph is dropped once its eigendecomposition is done.  Steps 1-2 touch one
dataset each, so the datasets of an alignment are prepared on
:func:`harmalign.core.pool_map`'s forked workers when they are large enough to
pay for a fork; the maps of steps 4-5 are computed in the calling process.  The
output is bit-identical to a serial run's.
"""

from __future__ import annotations

import functools
import itertools
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .core import DataMatrix, as_values, check_count, pool_map
from .filters import bandlimiting_weights
from .graph import (
    BandwidthSpec,
    KernelGraph,
    _check_anisotropic_sigma,
    _row_blocks,
    anisotropic_kernel_graph,
    gauss_kernel_graph,
)
from .spectral import (
    FourierBasis,
    canonical_signs,
    check_memory,
    degenerate_gaps,
    drop_trivial,
    fourier_basis,
    nxn_bytes,
)

#: the smallest neighborhood fraction the adaptive bandwidth takes from ``knn``
MIN_KNN_FRACTION = 0.02
#: the smallest N x N footprint (:func:`~harmalign.spectral.nxn_bytes`) of
#: datasets prepared on forked workers.  Full-rank pairs at one BLAS thread on
#: two CPUs, forked against serial, won 3, 12, 21 and 37 of 41 alternating
#: calls at 150, 200, 250 and 300 points: the break-even is at 250
_POOL_MIN_BYTES = nxn_bytes(250)


@dataclass(frozen=True)
class AlignmentParams:
    """Knobs of the alignment pipeline.

    Attributes
    ----------
    n_bands : int
        Itersine band count for the bandlimiting weights.
    t : int
        Diffusion time of the output embedding.
    kernel : {"adaptive", "fixed", "anisotropic"}
        Graph construction: symmetric adaptive Gaussian (default),
        fixed-bandwidth Gaussian, or density-normalized anisotropic kernel.
    knn : int
        Adaptive bandwidth: the neighbor index for the smallest of the
        datasets aligned together; see :func:`neighborhood_fraction`.
    sigma : float, optional
        Bandwidth for the fixed and anisotropic kernels.  One number means
        two widths: the fixed kernel is ``exp(-d^2 / (2 sigma^2))``, the
        anisotropic one ``exp(-d^2 / sigma)``.
    knn_fraction : float, optional
        When set, the neighborhood fraction shared by every dataset in place
        of the one ``knn`` gives.
    rank : int, optional
        Eigenpairs computed per dataset, the trivial one included, so at
        least 2; ``None`` is :func:`~harmalign.spectral.fourier_basis`'s
        default, all N up to ``FULL_DECOMPOSITION_LIMIT`` points and
        ``RANK_AUTO`` beyond.
    """

    n_bands: int = 8
    t: int = 1
    kernel: str = "adaptive"
    knn: int = 20
    knn_fraction: float | None = None
    sigma: float | None = None
    rank: int | None = None

    def __post_init__(self):
        check_count("n_bands", self.n_bands)
        _check_time(self.t)
        if self.kernel not in ("adaptive", "fixed", "anisotropic"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        check_count("knn", self.knn)
        if self.knn_fraction is not None and not 0 < self.knn_fraction < 1:
            raise ValueError(f"knn_fraction must lie in (0, 1), got {self.knn_fraction}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma is None and self.kernel != "adaptive":
            raise ValueError(f"{self.kernel} kernel requires sigma")
        if self.kernel == "fixed":
            BandwidthSpec.fixed(self.sigma)  # refuses a sigma whose square under- or overflows
        if self.kernel == "anisotropic":
            _check_anisotropic_sigma(self.sigma)
        if self.rank is not None:  # the trivial pair is dropped: keep one more
            check_count("rank", self.rank, 2)


@dataclass(frozen=True)
class PreparedDataset:
    """Per-dataset intermediates: the data and its non-trivial Fourier basis
    (which carries the graph's degrees)."""

    data: DataMatrix
    basis: FourierBasis


@dataclass(frozen=True)
class AlignmentResult:
    """Output of the alignment of n >= 2 datasets.

    ``maps[(i, j)]`` carries the harmonic map from dataset i to dataset j;
    ``maps[(j, i)]`` is exactly its transpose.  ``phi`` is the n-by-n block
    embedding with ``row_ranges[i]`` / ``col_ranges[i]`` delimiting dataset
    i's rows and coordinate columns.
    """

    maps: dict
    phi: np.ndarray
    row_ranges: tuple
    col_ranges: tuple
    diagnostics: dict = field(default_factory=dict)

    @property
    def T(self) -> np.ndarray:
        """The harmonic map from dataset 0 to dataset 1."""
        return self.maps[(0, 1)]


def gft_features(psi: np.ndarray, X) -> np.ndarray:
    """Graph Fourier transform of the feature columns: ``Xh = Psi^T X``."""
    values = as_values(X)
    if psi.shape[0] != values.shape[0]:
        raise ValueError(
            f"basis has {psi.shape[0]} rows but data has {values.shape[0]} points"
        )
    return psi.T @ values


def bandlimited_correlation(Xh: np.ndarray, Yh: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross-dataset harmonic correlation ``C = w * (Xh Yh^T)`` (elementwise mask)."""
    if Xh.shape[1] != Yh.shape[1]:
        raise ValueError(
            f"feature counts differ: {Xh.shape[1]} vs {Yh.shape[1]}"
        )
    if w.shape != (Xh.shape[0], Yh.shape[0]):
        raise ValueError(
            f"weight shape {w.shape} does not match ({Xh.shape[0]}, {Yh.shape[0]})"
        )
    C = Xh @ Yh.T
    return np.multiply(C, w, out=C)


def orthogonalize(C: np.ndarray) -> np.ndarray:
    """Nearest orthogonal map to C: ``T = U V^T`` from the SVD ``C = U S V^T``.

    For rectangular C the result has orthonormal rows or columns on the
    smaller side; it maximizes ``trace(T^T C)`` over all such maps.  When C
    is rank-deficient (at full rank with fewer features than points, C has
    rank at most the feature count) only T's action on C's range is
    determined: on C's null directions T is an arbitrary orthogonal
    completion chosen by the SVD, which rounding-level changes in C can move.
    """
    if not np.all(np.isfinite(C)):
        raise ValueError("correlation matrix contains non-finite entries")
    U, _, Vt = scipy.linalg.svd(C, full_matrices=False, check_finite=False)
    return U @ Vt


def unified_diffusion_map(bases, maps, t: int) -> np.ndarray:
    """Assemble the shared-coordinate block embedding of n datasets.

    Block (i, j) is ``Phi0_i T(i->j) Lam_j^t`` with ``Phi0_i = D_i^{-1/2}
    Psi_i``; diagonal blocks use the identity map.  Dataset i's rows come
    i-th and the columns in dataset j's spectrum j-th.  ``Phi0_i`` is formed
    in place, in its diagonal block, and once every product is done each
    column block j is scaled by ``Lam_j^t`` in one pass.

    Parameters
    ----------
    bases : sequence of FourierBasis
        One non-trivial basis per dataset, used with the signs it carries.
    maps : dict
        ``maps[(i, j)]`` for every i != j, the harmonic map from dataset i to
        dataset j expressed in those bases.
    t : int
        Non-negative diffusion time.
    """
    _check_time(t)
    rows = [slice(*r) for r in _ranges(b.psi.shape[0] for b in bases)]
    cols = [slice(*c) for c in _ranges(b.rank for b in bases)]
    phi = np.empty((rows[-1].stop, cols[-1].stop))
    for b, r, c in zip(bases, rows, cols):
        np.multiply(b.degrees[:, None] ** -0.5, b.psi, out=phi[r, c])
    for i, j in itertools.permutations(range(len(bases)), 2):
        np.matmul(phi[rows[i], cols[i]], maps[(i, j)], out=phi[rows[i], cols[j]])
    for b, c in zip(bases, cols):
        phi[:, c] *= b.lam ** t
    return phi


def _check_time(t) -> None:
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise ValueError(f"diffusion time must be a non-negative integer, got {t}")


def _ranges(sizes) -> tuple:
    """Consecutive ``(start, stop)`` index ranges of the given sizes."""
    offsets = np.cumsum([0, *sizes])
    return tuple((int(lo), int(hi)) for lo, hi in zip(offsets[:-1], offsets[1:]))


def _neighbors(fraction: float, n: int) -> int:
    return max(1, int(np.rint(fraction * n)))


def neighborhood_fraction(sizes, params: AlignmentParams) -> float:
    """The neighborhood fraction f shared by datasets of the given sizes
    aligned together: dataset i's adaptive bandwidth is the distance to its
    ``max(1, rint(f N_i))``-th neighbor, so the spectra cover comparable
    frequency ranges.  f is ``knn_fraction`` when set, else ``knn / min_i
    N_i`` but at least ``MIN_KNN_FRACTION``, as a fixed k narrows the kernel
    as N grows.  Raises ValueError when a dataset has too few points.
    """
    n = min(sizes)  # rint(f N) >= N holds first for the smallest N
    f = params.knn_fraction or max(params.knn / n, MIN_KNN_FRACTION)
    if params.kernel == "adaptive" and _neighbors(f, n) >= n:
        raise ValueError(
            f"knn={params.knn} (knn_fraction={params.knn_fraction}) asks for "
            f"{_neighbors(f, n)} neighbors in the smallest dataset, dataset "
            f"{list(sizes).index(n)} of {n} points; it must have more points"
        )
    return f


def _build_graph(values: np.ndarray, params: AlignmentParams, fraction: float) -> KernelGraph:
    if params.kernel == "adaptive":
        k = _neighbors(fraction, values.shape[0])
        return gauss_kernel_graph(values, BandwidthSpec.adaptive(k))
    if params.kernel == "fixed":
        return gauss_kernel_graph(values, BandwidthSpec.fixed(params.sigma))
    return anisotropic_kernel_graph(values, params.sigma)


def prepare_dataset(X, params: AlignmentParams, fraction: float | None = None) -> PreparedDataset:
    """Run the per-dataset pipeline: graph, Fourier basis, trivial removal.

    ``fraction`` is the :func:`neighborhood_fraction` of the datasets X is
    aligned with; by default X's own.  Raises MemoryError before building
    anything when the dataset's N x N arrays would exceed available memory.
    The kernel graph is not kept: the dense eigensolve writes over it, and the
    basis carries its degrees.
    """
    if not isinstance(X, DataMatrix):
        X = DataMatrix(values=X)
    if fraction is None:
        fraction = neighborhood_fraction([X.n_points], params)
    check_memory(X.n_points, params.rank)
    graph = _build_graph(X.values, params, fraction)
    basis = fourier_basis(graph, rank=params.rank, overwrite_a=True)
    return PreparedDataset(data=X, basis=drop_trivial(basis))


def _diagnostics(bases, t: int) -> dict:
    diag = {}
    for i, basis in enumerate(bases):
        lam = basis.lam
        diag[f"spectrum_{i}"] = lam.tolist()
        # only ties among eigenvalues the embedding weights make the basis
        # ambiguous where it matters: ties among clamped zeros are artifacts
        # of the clamp, and lam**t scales columns below 1e-6 to nothing
        ties = degenerate_gaps(lam[(lam > 0) & (lam ** t >= 1e-6)])
        if ties:
            diag[f"degenerate_gaps_{i}"] = ties
            warnings.warn(
                f"dataset {i}: {len(ties)} near-degenerate eigenvalue gaps; "
                "the Fourier basis (hence the alignment) is only defined up to "
                "rotation within those eigenspaces",
                stacklevel=_caller_stacklevel(),
            )
    return diag


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning raised by this function's
    caller to the first frame outside the harmalign package."""
    frame, level = sys._getframe(1), 1
    while frame is not None:
        package = frame.f_globals.get("__package__") or ""
        if package.partition(".")[0] != __package__:
            break
        frame, level = frame.f_back, level + 1
    return level


def _normalize_block_scale(phi: np.ndarray, ranges) -> np.ndarray:
    """Scale each dataset's rows to unit mean norm (in place): diffusion
    coordinates shrink like N^(-1/2), and sizes may differ."""
    for lo, hi in ranges:
        rows = phi[lo:hi]  # norms a row block at a time: no copy of the rows
        scale = np.concatenate([np.linalg.norm(rows[a:b], axis=1)
                                for a, b in _row_blocks(hi - lo)]).mean()
        if scale > 0:
            rows /= scale
    return phi


def _align(preps, params: AlignmentParams) -> AlignmentResult:
    """The alignment of n >= 2 prepared datasets, shared by every entry point.

    Basis signs are canonicalized once per dataset here, so alignment is
    invariant to any sign flips applied to eigenvector columns upstream.
    For every pair i < j the bandlimited correlation ``C`` is orthogonalized
    into ``T(i->j)`` and dropped; its transpose serves as ``T(j->i)``.
    """
    bases = [replace(p.basis, psi=canonical_signs(p.basis.psi)) for p in preps]
    features = [gft_features(b.psi, p.data) for b, p in zip(bases, preps)]
    maps = {}
    for i, j in itertools.combinations(range(len(preps)), 2):
        T = orthogonalize(bandlimited_correlation(  # the weights are dropped before the SVD
            features[i], features[j],
            bandlimiting_weights(bases[i].lam, bases[j].lam, params.n_bands)))
        maps[(i, j)], maps[(j, i)] = T, T.T
    phi = unified_diffusion_map(bases, maps, params.t)
    row_ranges = _ranges(p.data.n_points for p in preps)
    return AlignmentResult(
        maps=maps,
        phi=_normalize_block_scale(phi, row_ranges),
        row_ranges=row_ranges,
        col_ranges=_ranges(b.rank for b in bases),
        diagnostics=_diagnostics(bases, params.t),
    )


def align_prepared(
    px: PreparedDataset, py: PreparedDataset, params: AlignmentParams
) -> AlignmentResult:
    """Align two prepared datasets, as :func:`multi_alignment` aligns n."""
    return _align([px, py], params)


def harmonic_alignment(X, Y, params: AlignmentParams | None = None) -> AlignmentResult:
    """End-to-end pairwise alignment: :func:`multi_alignment` of ``[X, Y]``,
    two datasets (DataMatrix or (N, d) arrays) with the same ``d``.  X's rows
    come first in the embedding, and ``T`` maps X's harmonics onto Y's.
    """
    return multi_alignment([X, Y], params)


def multi_alignment(datasets, params: AlignmentParams | None = None) -> AlignmentResult:
    """Align n >= 2 datasets into one block embedding.

    For every pair i < j the pairwise orthogonal map ``T(i->j)`` is computed
    once; its transpose serves as ``T(j->i)``.  Block (i, j) of the output is
    ``Phi0_i T(i->j) Lam_j^t`` (diagonal blocks use the identity map), each
    dataset's rows scaled to unit mean norm.  One :func:`neighborhood_fraction`
    serves every dataset.  Every input's values, the fraction, and each
    dataset's rank and memory are checked before any graph is built.

    The datasets are prepared on :func:`harmalign.core.pool_map`'s workers:
    in contiguous slices, this process preparing the first and a forked worker
    each other one, as many at once as the usable CPUs over the BLAS threads
    and the available memory at the largest dataset's N x N arrays allow.
    Datasets smaller than a full-rank 250-point graph's arrays, where a fork
    costs more than it saves, are prepared here.  The maps of the pairs are
    then computed here, one pair after another.  The output does not depend
    on the worker count, and a worker's log records and errors reach the
    caller as in a serial run.
    """
    params = params or AlignmentParams()
    if len(datasets) < 2:
        raise ValueError(f"need at least 2 datasets, got {len(datasets)}")
    datasets = [X if isinstance(X, DataMatrix) else DataMatrix(values=X, name=f"dataset {i}")
                for i, X in enumerate(datasets)]
    dims = [X.n_features for X in datasets]
    if len(set(dims)) != 1:
        raise ValueError(f"datasets must share a feature space: d={dims}")
    sizes = [X.n_points for X in datasets]
    f = neighborhood_fraction(sizes, params)
    for n in sizes:
        check_memory(n, params.rank)
    prepare = functools.partial(prepare_dataset, params=params, fraction=f)
    item_bytes = max(nxn_bytes(n, params.rank) for n in sizes)
    return _align(pool_map(prepare, datasets, item_bytes, _POOL_MIN_BYTES), params)
