import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.spatial.distance import cdist

from harmalign import align, core, graph, spectral
from harmalign.align import (
    AlignmentParams,
    PreparedDataset,
    align_prepared,
    bandlimited_correlation,
    gft_features,
    harmonic_alignment,
    multi_alignment,
    orthogonalize,
    prepare_dataset,
    unified_diffusion_map,
)
from harmalign.baselines import MnnParams
from harmalign.core import DataMatrix, Rng
from harmalign.evaluation import ExperimentConfig, ManifoldSampler
from harmalign.graph import BandwidthSpec, gauss_kernel_graph
from harmalign.spectral import FourierBasis, degenerate_gaps, fourier_basis

PARAMS = AlignmentParams(knn=10)


def sample_data(seed=0, n=100, d=60):
    return Rng(seed).generator.standard_normal((n, d))


class TestGftFeatures:
    def test_basis_features_give_identity(self):
        psi = np.linalg.qr(sample_data(1, 20, 20))[0][:, :5]
        assert np.abs(gft_features(psi, psi) - np.eye(5)).max() <= 1e-12

    def test_zero_features(self):
        psi = np.linalg.qr(sample_data(2, 20, 20))[0][:, :5]
        assert np.all(gft_features(psi, np.zeros((20, 3))) == 0.0)

    def test_parseval_on_full_basis(self):
        psi = np.linalg.qr(sample_data(3, 20, 20))[0]
        X = sample_data(4, 20, 7)
        assert np.linalg.norm(gft_features(psi, X)) == pytest.approx(
            np.linalg.norm(X), abs=1e-10
        )

    def test_dimension_mismatch(self):
        psi = np.eye(5)
        with pytest.raises(ValueError, match="rows"):
            gft_features(psi, np.zeros((6, 2)))


class TestBandlimitedCorrelation:
    def test_gram_matrix_when_unmasked(self):
        Xh = sample_data(5, 8, 4)
        C = bandlimited_correlation(Xh, Xh, np.ones((8, 8)))
        assert np.allclose(C, Xh @ Xh.T)
        assert np.all(np.linalg.eigvalsh(C) >= -1e-10)

    def test_zero_weights_zero_entries(self):
        Xh, Yh = sample_data(6, 5, 3), sample_data(7, 4, 3)
        w = np.ones((5, 4))
        w[2, 1] = 0.0
        C = bandlimited_correlation(Xh, Yh, w)
        assert C[2, 1] == 0.0

    def test_hand_example(self):
        Xh = np.array([[1.0, 0.0], [0.0, 1.0]])
        Yh = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        C = bandlimited_correlation(Xh, Yh, w)
        assert np.array_equal(C, [[0.0, 0.5], [0.5, 0.0]])

    def test_inputs_left_unchanged(self):
        Xh, Yh = sample_data(8, 6, 3), sample_data(9, 5, 3)
        w = Rng(10).generator.uniform(0, 1, (6, 5))
        copies = [a.copy() for a in (Xh, Yh, w)]
        C = bandlimited_correlation(Xh, Yh, w)
        assert all(np.array_equal(a, b) for a, b in zip((Xh, Yh, w), copies))
        assert np.array_equal(C, w * (Xh @ Yh.T))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="weight shape"):
            bandlimited_correlation(np.zeros((3, 2)), np.zeros((4, 2)), np.eye(3))


class TestOrthogonalize:
    def test_identity(self):
        assert np.allclose(orthogonalize(np.eye(4)), np.eye(4), atol=1e-12)

    def test_positive_diagonal(self):
        assert np.allclose(orthogonalize(np.diag([3.0, 2.0])), np.eye(2), atol=1e-12)

    def test_recovers_orthogonal_factor(self):
        rng = Rng(8).generator
        for trial in range(5):
            A = rng.standard_normal((30, 30))
            R = np.linalg.qr(rng.standard_normal((30, 30)))[0]
            S = A.T @ A + np.eye(30)  # symmetric positive definite
            T = orthogonalize(R @ S)
            assert np.abs(T - R).max() <= 1e-8
            # cross-check against an independent SVD-based polar factor
            U, _, Vt = scipy.linalg.svd(R @ S)
            assert np.abs(T - U @ Vt).max() <= 1e-10

    def test_rectangular_orthonormal_columns(self):
        C = Rng(9).generator.standard_normal((10, 6))
        T = orthogonalize(C)
        assert np.abs(T.T @ T - np.eye(6)).max() <= 1e-10

    def test_maximizes_trace(self):
        rng = Rng(10).generator
        C = rng.standard_normal((6, 6))
        T = orthogonalize(C)
        best = np.trace(T.T @ C)
        for _ in range(50):
            Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            assert np.trace(Q.T @ C) <= best + 1e-10

    def test_non_finite_rejected(self):
        C = np.eye(3)
        C[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            orthogonalize(C)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def reference_unified_map(bases, maps, t):
    """The embedding assembled block by block from a separate Phi0 per dataset."""
    blocks = []
    for i, bi in enumerate(bases):
        phi0 = bi.degrees[:, None] ** -0.5 * bi.psi
        row = [phi0.copy() if i == j else phi0 @ maps[(i, j)] for j in range(len(bases))]
        blocks.append([block * bj.lam ** t for block, bj in zip(row, bases)])
    return np.block(blocks)


def random_bases(seed, sizes, ranks):
    """Bases with random eigenvectors, spectra and degrees, and maps between them."""
    gen = Rng(seed).generator
    bases = [
        FourierBasis(psi=gen.standard_normal((n, r)), lam=gen.uniform(0.0, 1.0, r),
                     degrees=gen.uniform(0.5, 4.0, n))
        for n, r in zip(sizes, ranks)
    ]
    maps = {
        (i, j): gen.standard_normal((ranks[i], ranks[j]))
        for i in range(len(sizes)) for j in range(len(sizes)) if i != j
    }
    return bases, maps


def basis(phi0, lam, degrees=None):
    """A FourierBasis whose diffusion coordinates at t = 0 are ``phi0``."""
    degrees = np.ones(phi0.shape[0]) if degrees is None else degrees
    return FourierBasis(psi=phi0 * np.sqrt(degrees)[:, None], lam=lam, degrees=degrees)


class TestUnifiedDiffusionMap:
    def test_identity_map_identical_blocks(self):
        phi0 = sample_data(11, 10, 4)
        lam = np.linspace(0.9, 0.2, 4)
        b = basis(phi0, lam)
        maps = {(0, 1): np.eye(4), (1, 0): np.eye(4)}
        phi = unified_diffusion_map([b, b], maps, t=1)
        assert np.array_equal(phi[:10], phi[10:])

    def test_t_zero_is_raw_blocks(self):
        phi_x = sample_data(12, 6, 3)
        phi_y = sample_data(13, 5, 3)
        T = orthogonalize(sample_data(14, 3, 3))
        lam = np.array([0.5, 0.4, 0.3])
        degrees = Rng(15).generator.uniform(1.0, 4.0, 6)
        bases = [basis(phi_x, lam, degrees), basis(phi_y, lam)]
        phi = unified_diffusion_map(bases, {(0, 1): T, (1, 0): T.T}, t=0)
        assert np.allclose(phi[:6], np.hstack([phi_x, phi_x @ T]), rtol=1e-14, atol=0)
        assert np.allclose(phi[6:], np.hstack([phi_y @ T.T, phi_y]), rtol=1e-14, atol=0)

    def test_zero_eigenvalue_zero_column(self):
        phi_x = sample_data(15, 6, 3)
        phi_y = sample_data(16, 6, 3)
        lam = np.array([0.5, 0.0, 0.3])
        maps = {(0, 1): np.eye(3), (1, 0): np.eye(3)}
        phi = unified_diffusion_map([basis(phi_x, lam), basis(phi_y, lam)], maps, t=1)
        assert np.all(phi[:, 1] == 0.0)
        assert np.all(phi[:, 4] == 0.0)

    def test_three_datasets_block_layout(self):
        sizes, ranks = (4, 5, 6), (2, 3, 2)
        gen = Rng(42).generator
        phi0 = [gen.standard_normal((n, r)) for n, r in zip(sizes, ranks)]
        lam = [gen.uniform(0.1, 0.9, r) for r in ranks]
        maps = {
            (i, j): gen.standard_normal((ranks[i], ranks[j]))
            for i in range(3) for j in range(3) if i != j
        }
        bases = [basis(p, spectrum) for p, spectrum in zip(phi0, lam)]
        phi = unified_diffusion_map(bases, maps, t=2)
        assert phi.shape == (sum(sizes), sum(ranks))
        rows, cols = np.cumsum((0,) + sizes), np.cumsum((0,) + ranks)
        for i in range(3):
            for j in range(3):
                T = np.eye(ranks[i]) if i == j else maps[(i, j)]
                block = phi[rows[i] : rows[i + 1], cols[j] : cols[j + 1]]
                assert np.allclose(block, phi0[i] @ T * lam[j] ** 2, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_equals_the_blockwise_assembly(self, t):
        bases, maps = random_bases(43, (40, 70, 25), (30, 69, 25))
        phi = unified_diffusion_map(bases, maps, t)
        assert np.array_equal(phi, reference_unified_map(bases, maps, t))

    def test_holds_no_array_beside_the_embedding(self):
        # Phi0 is formed in the diagonal blocks: a separate 1200 x 1000 Phi0
        # for the second dataset alone would be half the embedding's size
        bases, maps = random_bases(44, (200, 1200, 300), (150, 1000, 250))
        phi, peak = traced_peak(unified_diffusion_map, bases, maps, 1)
        assert peak <= 1.1 * phi.nbytes


class TestHarmonicAlignment:
    def test_self_alignment_coincides(self):
        X = sample_data(17, 120, 100)
        result = harmonic_alignment(X, X.copy(), PARAMS)
        assert np.abs(result.phi[:120] - result.phi[120:]).max() <= 1e-6

    def test_self_alignment_nearest_neighbor_match(self):
        X = sample_data(18, 80, 100)
        result = harmonic_alignment(X, X.copy(), PARAMS)
        dist = cdist(result.phi[:80], result.phi[80:])
        match = (dist.argmin(axis=1) == np.arange(80)).mean()
        assert match >= 0.95

    def test_blocks_and_orthogonality(self):
        X, Y = sample_data(19, 50, 40), sample_data(20, 60, 40)
        result = harmonic_alignment(X, Y, PARAMS)
        assert result.row_ranges == ((0, 50), (50, 110))
        assert result.phi.shape == (110, 49 + 59)
        T = result.T
        small = min(T.shape)
        gram = T.T @ T if T.shape[1] == small else T @ T.T
        assert np.abs(gram - np.eye(small)).max() <= 1e-8

    def test_isometry_of_square_map(self):
        X, Y = sample_data(21, 60, 100), sample_data(22, 60, 100)
        result = harmonic_alignment(X, Y, PARAMS)
        u, v = result.phi[3, :59], result.phi[7, :59]
        # rows of the left block land in the right block through T isometrically
        T = result.T
        assert np.linalg.norm((u - v) @ T) == pytest.approx(
            np.linalg.norm(u - v), abs=1e-8
        )

    def test_unequal_feature_count_rejected(self):
        with pytest.raises(ValueError, match="feature space"):
            harmonic_alignment(sample_data(23, 30, 5), sample_data(24, 30, 6), PARAMS)

    def test_determinism(self):
        X, Y = sample_data(25, 40, 30), sample_data(26, 40, 30)
        r1 = harmonic_alignment(X, Y, PARAMS)
        r2 = harmonic_alignment(X, Y, PARAMS)
        assert np.array_equal(r1.phi, r2.phi)
        assert np.array_equal(r1.T, r2.T)

    def test_sign_flip_equivariance(self):
        X = sample_data(27, 90, 100)
        Y = X + 0.1 * sample_data(28, 90, 100)
        px, py = prepare_dataset(X, PARAMS), prepare_dataset(Y, PARAMS)
        base = align_prepared(px, py, PARAMS)
        flip = np.ones(px.basis.rank)
        flip[[2, 11, 30, 55, 80]] = -1.0
        flipped = PreparedDataset(
            data=px.data,
            basis=FourierBasis(
                psi=px.basis.psi * flip, lam=px.basis.lam, degrees=px.basis.degrees
            ),
        )
        alt = align_prepared(flipped, py, PARAMS)
        assert np.abs(base.phi - alt.phi).max() <= 1e-8

    def test_t_is_the_map_from_dataset_0_to_1(self):
        X, Y = sample_data(30, 40, 30), sample_data(31, 50, 30)
        result = harmonic_alignment(X, Y, PARAMS)
        assert result.T is result.maps[(0, 1)]
        assert np.array_equal(result.maps[(1, 0)], result.T.T)
        with pytest.raises(AttributeError):
            result.T = np.eye(2)

    def test_prepared_dataset_keeps_no_graph(self):
        # the basis (1000 x 49 floats, 0.4 MB) and the data are all that is
        # left; a kept kernel graph would hold an 8 MB N x N affinity
        X = sample_data(42, 1000, 10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prepared = prepare_dataset(X, AlignmentParams(rank=50))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert prepared.basis.rank == 49
        assert held < 1_000_000

    @pytest.mark.parametrize("rank", [None, 10])  # the dense and the Lanczos route
    def test_nan_kernel_fails_before_the_eigensolve(self, rank, monkeypatch):
        # no valid bandwidth makes a NaN kernel, so one is poisoned here
        def poisoned(values, kernel):
            W = kernel_matrix(values, kernel)
            W[0, 0] = np.nan
            return W

        kernel_matrix = graph._kernel_matrix
        monkeypatch.setattr(graph, "_kernel_matrix", poisoned)
        X = sample_data(43, 200, 5)
        params = AlignmentParams(kernel="fixed", sigma=1.0, rank=rank)
        with pytest.raises(
                ValueError, match="^degree nan at point 0: the kernel is zero or not finite$"):
            harmonic_alignment(X, X.copy(), params)

    def test_zero_weight_harmonic_removal(self):
        # a harmonic whose weight row is all zero contributes a zero row to C;
        # deleting it must not change T's action on the remaining harmonics
        rng = Rng(29).generator
        Xh = rng.standard_normal((8, 12))
        Yh = rng.standard_normal((6, 12))
        w = rng.uniform(0.1, 1.0, (8, 6))
        w[3, :] = 0.0
        C = bandlimited_correlation(Xh, Yh, w)
        T = orthogonalize(C)
        keep = np.arange(8) != 3
        T_reduced = orthogonalize(C[keep])
        assert np.abs(T[keep] - T_reduced).max() <= 1e-8


class TestOneCopyFlow:
    """Each basis array exists once between the eigensolver and the embedding."""

    def test_full_rank_preparation_peaks_at_the_counted_arrays(self):
        # the memory pre-check counts the dense route's N x N arrays: the
        # graph, which the eigenvectors overwrite, and dsyevd's 2 N^2
        # workspace; the kept eigenvectors' copy, made once the workspace is
        # freed, may not come on top
        n = 1500
        prepared, peak = traced_peak(prepare_dataset, sample_data(60, n, 10), AlignmentParams())
        assert prepared.basis.rank == n - 1
        assert spectral._DENSE_NXN_ARRAYS == 3
        assert peak <= (spectral._DENSE_NXN_ARRAYS + 0.1) * 8 * n * n

    def test_alignment_holds_the_embedding_and_little_else(self):
        # the prepared bases are canonical already, so none is re-signed into
        # a copy, and the scale normalization copies no rows
        p = AlignmentParams()
        px = prepare_dataset(sample_data(61, 500, 30), p)
        py = prepare_dataset(sample_data(62, 1000, 30), p)
        result, peak = traced_peak(align_prepared, px, py, p)
        assert result.phi.shape == (1500, 1498)
        assert peak <= 1.8 * result.phi.nbytes


class TestAlignmentParams:
    @pytest.mark.parametrize("fields, message", [
        ({"knn": 0}, "knn must be >= 1, got 0"),
        ({"knn_fraction": 0.0}, r"knn_fraction must lie in \(0, 1\), got 0.0"),
        ({"knn_fraction": -0.3}, r"knn_fraction must lie in \(0, 1\), got -0.3"),
        ({"knn_fraction": 1.0}, r"knn_fraction must lie in \(0, 1\), got 1.0"),
        ({"sigma": -1.0}, "sigma must be positive, got -1.0"),
        ({"sigma": 0.0}, "sigma must be positive, got 0.0"),
        ({"kernel": "fixed"}, "fixed kernel requires sigma"),
        ({"kernel": "anisotropic"}, "anisotropic kernel requires sigma"),
        ({"rank": 0}, "rank must be >= 2, got 0"),
        ({"t": -1}, "diffusion time must be a non-negative integer, got -1"),
        ({"t": 2.0}, "diffusion time must be a non-negative integer, got 2.0"),
        ({"t": 1.5}, "diffusion time must be a non-negative integer, got 1.5"),
        ({"kernel": "fixed", "sigma": 1e-200},
         "fixed bandwidth sigma=1e-200 is too small: its square underflows to 0"),
        ({"kernel": "fixed", "sigma": 1e200},
         r"fixed bandwidth sigma=1e\+200 is too large: its square overflows to inf"),
        ({"kernel": "fixed", "sigma": np.inf},
         "fixed bandwidth sigma=inf is too large: its square overflows to inf"),
        ({"kernel": "anisotropic", "sigma": 1e200},
         r"anisotropic kernel sigma=1e\+200 is too large: its square overflows to inf"),
        ({"kernel": "anisotropic", "sigma": np.inf},
         "anisotropic kernel sigma=inf is too large: its square overflows to inf"),
    ], ids=["knn-0", "knn_fraction-0", "knn_fraction-negative", "knn_fraction-1",
            "sigma-negative", "sigma-0", "fixed-without-sigma", "anisotropic-without-sigma",
            "rank-0", "t-negative", "t-2.0", "t-1.5", "fixed-sigma-square-underflows",
            "fixed-sigma-square-overflows", "fixed-sigma-inf",
            "anisotropic-sigma-square-overflows", "anisotropic-sigma-inf"])
    def test_rejected_at_construction(self, fields, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                AlignmentParams(**fields)

    @pytest.mark.parametrize("fields", [
        {"knn": 1}, {"knn_fraction": 0.5}, {"sigma": 0.1},
        {"kernel": "fixed", "sigma": 2.0}, {"kernel": "anisotropic", "sigma": 2.0},
        {"kernel": "anisotropic", "sigma": 1e-200}, {"rank": 2},
    ])
    def test_valid_values_accepted(self, fields):
        params = AlignmentParams(**fields)
        assert {name: getattr(params, name) for name in fields} == fields


class TestCountFields:
    """A count is refused on construction, naming its field, unless it is an
    integer in range."""

    @pytest.mark.parametrize("make, fields, message", [
        (AlignmentParams, {"rank": 1}, "rank must be >= 2, got 1"),
        (AlignmentParams, {"rank": 2.5}, "rank must be an integer, got 2.5"),
        (AlignmentParams, {"rank": 100.5}, "rank must be an integer, got 100.5"),
        (AlignmentParams, {"n_bands": 2.5}, "n_bands must be an integer, got 2.5"),
        (AlignmentParams, {"knn": 2.5}, "knn must be an integer, got 2.5"),
        (MnnParams, {"k": 2.5}, "k must be an integer, got 2.5"),
        (BandwidthSpec.adaptive, {"k": 2.5}, "k must be an integer, got 2.5"),
        *[(ExperimentConfig, {name: 1.5}, f"{name} must be an integer, got 1.5")
          for name in ("n1", "n2", "trials", "classes", "dim", "knn_k")],
    ], ids=["rank-1", "rank-2.5", "rank-100.5", "n_bands", "knn", "mnn-k", "bandwidth-k",
            "n1", "n2", "trials", "classes", "dim", "knn_k"])
    def test_rejected_at_construction(self, make, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(**fields)

    def test_numpy_integers_accepted(self):
        params = AlignmentParams(rank=np.int64(10), n_bands=np.int32(4), knn=np.int64(7),
                                 t=np.int64(2))
        assert (params.rank, params.n_bands, params.knn, params.t) == (10, 4, 7, 2)
        assert BandwidthSpec.adaptive(np.int64(3)).k == 3


class TestNeighborhoodRule:
    @pytest.fixture
    def recorded_k(self, monkeypatch):
        calls = []
        build = align.gauss_kernel_graph

        def record(values, bw):
            calls.append((values.shape[0], bw.k))
            return build(values, bw)

        monkeypatch.setattr(align, "gauss_kernel_graph", record)
        return calls

    @pytest.mark.parametrize("sizes", [(60, 150), (150, 60), (60, 150, 90)])
    @pytest.mark.parametrize("fields, fraction", [
        ({}, lambda n: 20 / n),  # knn of the smallest dataset
        ({"knn": 1}, lambda n: 0.02),  # the floor
        ({"knn_fraction": 0.1}, lambda n: 0.1),  # as given
    ], ids=["knn", "floor", "knn_fraction"])
    def test_each_graph_takes_the_shared_fraction(self, recorded_k, sizes, fields, fraction):
        datasets = [sample_data(70 + i, n, 8) for i, n in enumerate(sizes)]
        multi_alignment(datasets, AlignmentParams(**fields))
        f = fraction(min(sizes))
        assert recorded_k == [(n, max(1, int(np.rint(f * n)))) for n in sizes]

    def test_prepared_alone_takes_its_own_size(self, recorded_k):
        prepare_dataset(sample_data(73, 30, 8), AlignmentParams(knn=6))
        prepare_dataset(sample_data(74, 1500, 2), AlignmentParams(rank=10))
        assert recorded_k == [(30, 6), (1500, 30)]

    @pytest.mark.parametrize("fields, sizes, k", [
        ({}, (4000, 15), 20), ({"knn": 15}, (15, 4000), 15),
        ({"knn_fraction": 0.96}, (4000, 12), 12),
    ])
    def test_too_few_points_fail_before_any_graph(self, monkeypatch, fields, sizes, k):
        def never(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(align, "gauss_kernel_graph", never)
        params = AlignmentParams(**fields)
        small = sizes.index(min(sizes))
        with pytest.raises(ValueError) as exc:
            multi_alignment([sample_data(75 + i, n, 3) for i, n in enumerate(sizes)], params)
        assert str(exc.value) == (
            f"knn={params.knn} (knn_fraction={params.knn_fraction}) asks for {k} neighbors "
            f"in the smallest dataset, dataset {small} of {min(sizes)} points; "
            "it must have more points"
        )

    @pytest.fixture
    def no_graph(self, monkeypatch):
        def never(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(align, "gauss_kernel_graph", never)

    def test_non_finite_input_refused_before_any_graph(self, no_graph):
        datasets = [sample_data(81 + i, n, 3) for i, n in enumerate((100, 90, 80))]
        datasets[2][7, 1] = np.nan
        with pytest.raises(ValueError, match="^dataset 2: non-finite entry at row 7, column 1$"):
            multi_alignment(datasets)

    def test_rank_above_a_later_input_refused_before_any_graph(self, no_graph):
        datasets = [sample_data(84, 120, 3), sample_data(85, 100, 3)]
        with pytest.raises(ValueError, match="^rank 110 exceeds the 100 points of the graph$"):
            multi_alignment(datasets, AlignmentParams(rank=110))

    def test_fixed_kernel_has_no_neighbor_count(self):
        result = multi_alignment([sample_data(77, 10, 3), sample_data(78, 12, 3)],
                                 AlignmentParams(kernel="fixed", sigma=3.0))
        assert result.phi.shape == (22, 20)

    def test_every_block_has_unit_mean_row_norm(self):
        result = multi_alignment([sample_data(79, 40, 8), sample_data(80, 90, 8)])
        for lo, hi in result.row_ranges:
            norm = np.linalg.norm(result.phi[lo:hi], axis=1).mean()
            assert norm == pytest.approx(1.0, abs=1e-12)


class TestMultiAlignment:
    def test_two_datasets_match_pairwise(self):
        X, Y = sample_data(32, 60, 50), sample_data(33, 70, 50)
        pair = harmonic_alignment(X, Y, PARAMS)
        multi = multi_alignment([X, Y], PARAMS)
        assert np.abs(multi.phi - pair.phi).max() <= 1e-10

    def test_adjoint_maps_exact(self):
        data = [sample_data(s, 50, 40) for s in (34, 35, 36)]
        multi = multi_alignment(data, PARAMS)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.array_equal(multi.maps[(j, i)], multi.maps[(i, j)].T)

    def test_identical_datasets_blocks_match(self):
        X = sample_data(37, 80, 100)
        multi = multi_alignment([X, X.copy(), X.copy()], PARAMS)
        (r0, r1), (c0, c1) = multi.row_ranges[0], multi.col_ranges[0]
        diag = multi.phi[r0:r1, c0:c1]
        for j in (1, 2):
            lo, hi = multi.row_ranges[j]
            block = multi.phi[lo:hi, c0:c1]
            assert np.abs(block - diag).max() <= 1e-6

    def test_ranges_partition(self):
        data = [sample_data(s, n, 30) for s, n in ((38, 40), (39, 50), (40, 60))]
        multi = multi_alignment(data, PARAMS)
        assert multi.row_ranges == ((0, 40), (40, 90), (90, 150))
        assert multi.phi.shape[0] == 150

    def test_single_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            multi_alignment([sample_data(41, 30, 10)], PARAMS)


def hand_prepared(seed, lam, n=20, d=30):
    """A prepared dataset whose basis has the given spectrum."""
    gen = Rng(seed).generator
    psi = np.linalg.qr(gen.standard_normal((n, len(lam))))[0]
    basis = FourierBasis(psi=psi, lam=np.asarray(lam, dtype=float), degrees=np.ones(n))
    return PreparedDataset(data=DataMatrix(values=gen.standard_normal((n, d))), basis=basis)


class TestDegenerateGapWarning:
    def test_ties_the_embedding_does_not_weight_are_quiet(self):
        rng = Rng(1)
        sampler = ManifoldSampler(rng.spawn("src"))
        X, _ = sampler.draw(1000, rng.spawn("x"))
        Y, _ = sampler.draw(1000, rng.spawn("y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = harmonic_alignment(X, Y, AlignmentParams(knn=20))
        for i in range(2):
            # each spectrum holds one tie among positive eigenvalues, at
            # lam ~ 1.2e-10, which lam**t scales to nothing
            lam = np.array(result.diagnostics[f"spectrum_{i}"])
            ties = degenerate_gaps(lam[lam > 0])
            assert len(ties) == 1 and lam[ties[0]] < 1e-9
            assert f"degenerate_gaps_{i}" not in result.diagnostics

    @pytest.mark.parametrize("tie, t, warns", [
        (0.5, 1, True),
        (1e-4, 0, True),
        (1e-4, 1, True),
        (1e-4, 2, False),
    ])
    def test_ties_the_embedding_weights_warn(self, tie, t, warns):
        px = hand_prepared(43, [0.9, tie, tie * (1 - 1e-12), tie / 2, 0.0, 0.0])
        py = hand_prepared(44, [0.8, 0.6, 0.4, 0.2, 0.1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = align_prepared(px, py, AlignmentParams(t=t))
        messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        if warns:
            assert messages == [
                "dataset 0: 1 near-degenerate eigenvalue gaps; the Fourier basis "
                "(hence the alignment) is only defined up to rotation within those "
                "eigenspaces"
            ]
            assert result.diagnostics["degenerate_gaps_0"] == [1]
        else:
            assert messages == []
            assert "degenerate_gaps_0" not in result.diagnostics

    @pytest.mark.parametrize("entry", ["harmonic_alignment", "multi_alignment", "align_prepared"])
    def test_warning_points_at_the_caller(self, entry):
        # evenly spaced points on a circle have exactly paired eigenvalues
        theta = 2 * np.pi * np.arange(24) / 24
        X = np.column_stack([np.cos(theta), np.sin(theta)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "harmonic_alignment":
                harmonic_alignment(X, X)
            elif entry == "multi_alignment":
                multi_alignment([X, X, X])
            else:
                p = AlignmentParams()
                align_prepared(prepare_dataset(X, p), prepare_dataset(X, p), p)
        files = {w.filename for w in caught if issubclass(w.category, UserWarning)}
        assert files == {__file__}


class TestDefaultRank:
    """``rank=None`` is one default, applied by the spectral module for every caller."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(spectral, "FULL_DECOMPOSITION_LIMIT", 150)
        monkeypatch.setattr(spectral, "RANK_AUTO", 20)

    def test_fourier_basis_and_prepare_dataset_keep_the_same_rank(self):
        X = sample_data(70, 200, 10)
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(20))
        assert fourier_basis(g).rank == 20
        assert fourier_basis(g, rank=200).rank == 200  # full rank at any size
        assert prepare_dataset(X, AlignmentParams()).basis.rank == 19

    def test_memory_check_counts_the_lanczos_route(self, monkeypatch):
        need = 8 * 200 * 200  # the graph alone: 8 * 20 < 200 takes Lanczos
        monkeypatch.setattr(spectral, "_available_memory", lambda: need)
        spectral.check_memory(200)
        monkeypatch.setattr(spectral, "_available_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match="^preparing 200 points at rank 20 needs"):
            spectral.check_memory(200)


class TestMemoryPreCheck:
    @pytest.mark.parametrize("rank, arrays", [(40000, 3), (5000, 3), (4999, 1)])
    def test_refuses_before_building_the_graph(self, monkeypatch, rank, arrays):
        n = 40000  # 8 * 5000 >= n takes the dense route, 8 * 4999 < n Lanczos
        need = 8 * n * n * arrays
        monkeypatch.setattr(spectral, "_available_memory", lambda: need // 2)
        monkeypatch.setattr(align, "gauss_kernel_graph", None)  # never reached
        with pytest.raises(MemoryError) as exc:
            prepare_dataset(sample_data(50, n, 2), AlignmentParams(rank=rank))
        assert str(exc.value) == (
            f"preparing {n} points at rank {rank or 'full'} needs about "
            f"{need / 2**20:.0f} MiB for its N x N arrays, but only "
            f"{need / 2**21:.0f} MiB is available"
        )

    @pytest.mark.parametrize("available", [8 * 90 * 90 * 3, None])
    def test_runs_when_memory_suffices_or_is_unknown(self, monkeypatch, available):
        monkeypatch.setattr(spectral, "_available_memory", lambda: available)
        prep = prepare_dataset(sample_data(50, 90, 5), AlignmentParams())
        assert prep.basis.rank == 89

    def test_probe_reads_available_memory(self):
        available = core._available_memory()
        assert available is None or available > 0

    @pytest.mark.parametrize("limit, current, inactive, meminfo, expected", [
        ("4096", "1024", 0, 8, 3072),  # the cgroup's headroom is the smaller
        ("104857600", "1024", 0, 8, 8192),  # MemAvailable is the smaller
        ("max", "1024", 0, 8, 8192),  # no cgroup limit
        ("1024", "4096", 0, 8, 0),  # usage above the limit
        ("4096", None, 0, 8, 8192),  # memory.current unreadable
        ("4096", "1024", 0, None, 3072),  # no MemAvailable
        (None, None, 0, None, None),  # neither figure readable
        # near the limit, but mostly page cache the kernel can reclaim
        ("1048576", "1044480", 1040384, 2048, 1044480),
        ("1048576", "1044480", None, None, 4096),  # memory.stat unreadable
        ("4096", "1024", 8192, None, 4096),  # inactive_file counted up to usage
    ])
    def test_probe_takes_the_smaller_of_meminfo_and_cgroup(
        self, monkeypatch, tmp_path, limit, current, inactive, meminfo, expected
    ):
        cgroup = tmp_path / "cgroup"
        cgroup.mkdir()
        for name, value in (("memory.max", limit), ("memory.current", current)):
            if value is not None:
                (cgroup / name).write_text(value + "\n")
        if inactive is not None:
            (cgroup / "memory.stat").write_text(
                f"anon 4096\nfile 9999999\nactive_file 12\ninactive_file {inactive}\n"
            )
        info = tmp_path / "meminfo"
        if meminfo is not None:
            info.write_text(f"MemTotal: 64 kB\nMemAvailable: {meminfo} kB\n")
        monkeypatch.setattr(core, "_MEMINFO", str(info))
        monkeypatch.setattr(core, "_CGROUP", str(cgroup))
        assert core._available_memory() == expected

    @pytest.mark.parametrize("own, expected", [
        ("0::/a/b\n", 3072),  # the parent's limit is the tighter one
        ("0::/a/c\n", 1024),  # the process's own group is the tighter one
        ("0::/\n", 64512),  # the root group alone
        ("0::/gone\n", 64512),  # the group is not visible: the root group
        ("4:memory:/a/c\n0::/\n", 64512),  # cgroup v1 lines are not read
        (None, 64512),  # /proc/self/cgroup unreadable
    ])
    def test_probe_takes_the_tightest_of_the_group_and_its_ancestors(
        self, monkeypatch, tmp_path, own, expected
    ):
        cgroup = tmp_path / "cgroup"
        # (limit, usage) per group: b is looser than its parent a, c tighter
        for group, limit, used in (("", 65536, 1024), ("a", 4096, 1024),
                                   ("a/b", 1048576, 1024), ("a/c", 2048, 1024)):
            (cgroup / group).mkdir(parents=True, exist_ok=True)
            (cgroup / group / "memory.max").write_text(f"{limit}\n")
            (cgroup / group / "memory.current").write_text(f"{used}\n")
        own_file = tmp_path / "self-cgroup"
        if own is not None:
            own_file.write_text(own)
        monkeypatch.setattr(core, "_MEMINFO", str(tmp_path / "no-meminfo"))
        monkeypatch.setattr(core, "_SELF_CGROUP", str(own_file))
        monkeypatch.setattr(core, "_CGROUP", str(cgroup))
        assert core._available_memory() == expected


class TestPooledPrepare:
    """The datasets of an alignment are prepared on ``core.pool_map``'s
    workers, with the output of a serial run."""

    def datasets(self, sizes):
        sampler = ManifoldSampler(Rng(0).spawn("source"), dim=20)
        return [sampler.draw(n, Rng(n).spawn("draw"))[0] for n in sizes]

    def aligned(self, monkeypatch, cpus, datasets, params):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        return multi_alignment(datasets, params)

    @pytest.mark.parametrize("sizes, rank", [  # the dense and the Lanczos route
        ((300, 300), None), ((300, 280, 260), None), ((500, 500), 30), ((500, 480, 460), 30),
    ])
    def test_output_equal_to_a_serial_run(self, monkeypatch, forks, sizes, rank):
        datasets, params = self.datasets(sizes), AlignmentParams(rank=rank)
        assert spectral._plan(min(sizes), rank)[1] is (rank is None)
        serial = self.aligned(monkeypatch, 1, datasets, params)
        assert forks == []
        pooled = self.aligned(monkeypatch, 2, datasets, params)
        assert len(forks) == 1
        assert np.array_equal(pooled.phi, serial.phi)
        assert pooled.maps.keys() == serial.maps.keys()
        for key, T in serial.maps.items():
            assert np.array_equal(pooled.maps[key], T)
        assert pooled.diagnostics == serial.diagnostics

    @pytest.mark.parametrize("n, forked", [(249, 0), (250, 1)])
    def test_datasets_under_the_floor_prepared_here(self, monkeypatch, forks, n, forked):
        self.aligned(monkeypatch, 2, self.datasets((n, n)), AlignmentParams())
        assert len(forks) == forked

    def test_nan_kernel_in_a_worker(self, monkeypatch, forks):
        def poisoned(values, kernel):  # dataset 1's, in the worker
            W = kernel_matrix(values, kernel)
            if len(values) == 280:
                W[0, 0] = np.nan
            return W

        kernel_matrix = graph._kernel_matrix
        monkeypatch.setattr(graph, "_kernel_matrix", poisoned)
        with pytest.raises(ValueError,
                           match="^degree nan at point 0: the kernel is zero or not finite$"):
            self.aligned(monkeypatch, 2, self.datasets((300, 280)),
                         AlignmentParams(kernel="fixed", sigma=1.0))
        assert len(forks) == 1

    def test_memory_error_in_a_worker(self, monkeypatch, forks):
        parent = os.getpid()
        monkeypatch.setattr(spectral, "_available_memory",
                            lambda: None if os.getpid() == parent else 2**20)
        with pytest.raises(MemoryError) as raised:
            self.aligned(monkeypatch, 2, self.datasets((300, 280)), AlignmentParams())
        assert type(raised.value) is MemoryError
        assert str(raised.value) == ("preparing 280 points at rank full needs about 2 MiB "
                                     "for its N x N arrays, but only 1 MiB is available")
        assert len(forks) == 1

    def test_lanczos_fallback_logged_from_a_worker(self, monkeypatch, forks, caplog):
        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(3), np.zeros((A.shape[0], 3)))

        datasets, params = self.datasets((500, 480)), AlignmentParams(rank=30)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with caplog.at_level("WARNING", logger="harmalign"):
            pooled = self.aligned(monkeypatch, 2, datasets, params)
        assert len(forks) == 1
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("harmalign", "WARNING", f"Lanczos found 3 of 30 eigenpairs of a {n}-point graph; "
                                     "falling back to the dense solver") for n in (500, 480)]
        serial = self.aligned(monkeypatch, 1, datasets, params)
        assert np.array_equal(pooled.phi, serial.phi)
