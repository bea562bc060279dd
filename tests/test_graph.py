import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from harmalign import graph
from harmalign.core import Rng
from harmalign.graph import (
    _BLOCK_ROWS,
    BandwidthSpec,
    adaptive_bandwidth,
    anisotropic_kernel_graph,
    gauss_kernel_graph,
)


def line_points(*xs):
    return np.array(xs, dtype=float)[:, None]


def kernel(g):
    """The kernel matrix W = D^{1/2} A D^{1/2} the graph was normalized from."""
    s = np.sqrt(g.degrees)
    return s[:, None] * g.A * s[None, :]


def diffusion_operator(g):
    """Row-stochastic diffusion operator P = D^{-1} W."""
    return kernel(g) / g.degrees[:, None]


def adaptive_kernel(X, sigma):
    """W from its formula, with per-point bandwidths sigma."""
    eps = np.square(np.asarray(sigma, dtype=float))
    d2 = cdist(X, X, metric="sqeuclidean")
    return 0.5 * (np.exp(-d2 / (2 * eps[:, None])) + np.exp(-d2 / (2 * eps[None, :])))


class TestAdaptiveBandwidth:
    """The adaptive bandwidth of a point is its distance to its k-th neighbor."""

    def test_three_point_line_k1(self):
        g = gauss_kernel_graph(line_points(0, 1, 3), BandwidthSpec.adaptive(1))
        assert np.abs(kernel(g) - adaptive_kernel(line_points(0, 1, 3), [1, 1, 2])).max() <= 1e-15

    def test_three_point_line_k2(self):
        g = gauss_kernel_graph(line_points(0, 1, 3), BandwidthSpec.adaptive(2))
        assert np.abs(kernel(g) - adaptive_kernel(line_points(0, 1, 3), [3, 2, 3])).max() <= 1e-15

    def test_duplicate_points_error(self):
        with pytest.raises(ValueError, match="fixed bandwidth"):
            gauss_kernel_graph(line_points(0, 0, 1), BandwidthSpec.adaptive(1))

    def test_k_duplicate_neighbors_make_a_zero_bandwidth(self):
        X = Rng(3).generator.standard_normal((30, 4))
        X[10:13] = X[4]  # point 4 and three copies: its third neighbor is at 0
        gauss_kernel_graph(X, BandwidthSpec.adaptive(4))
        with pytest.raises(ValueError, match="zero adaptive bandwidth at point 4 .*fixed bandwidth"):
            gauss_kernel_graph(X, BandwidthSpec.adaptive(3))

    @pytest.mark.parametrize("bw", [BandwidthSpec.adaptive(1), BandwidthSpec.fixed(1.0), None])
    def test_overflowing_squared_norms_raise(self, bw):
        X = line_points(0, 1, 3) * np.array([[1.0, 1e160]])  # |x|^2 near 1e320
        with pytest.raises(ValueError, match="finite values whose squared norms do not overflow"):
            gauss_kernel_graph(X, bw) if bw else anisotropic_kernel_graph(X, 1.0)

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k < N"):
            gauss_kernel_graph(line_points(0, 1, 3), BandwidthSpec.adaptive(3))


class TestGaussKernelGraph:
    def test_fixed_bandwidth_closed_form(self):
        # two points at squared distance 2*eps: W(1,2) = exp(-1)
        sigma = 1.5
        dist = np.sqrt(2.0) * sigma
        g = gauss_kernel_graph(line_points(0, dist), BandwidthSpec.fixed(sigma))
        assert kernel(g)[0, 1] == pytest.approx(np.exp(-1), abs=1e-12)

    def test_all_ones_kernel_laplacian(self):
        # distance-0 limit: W = [[1,1],[1,1]] gives L = [[.5,-.5],[-.5,.5]]
        g = gauss_kernel_graph(line_points(0, 1e-9), BandwidthSpec.fixed(1e3))
        assert np.allclose(kernel(g), np.ones((2, 2)), atol=1e-12)
        assert np.allclose(g.L, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)
        eigs = np.sort(scipy.linalg.eigvalsh(g.L))
        assert np.allclose(eigs, [0.0, 1.0], atol=1e-9)

    def test_invariants(self):
        X = Rng(0).generator.standard_normal((40, 5))
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(5))
        assert np.array_equal(g.A, g.A.T)
        W = kernel(g)
        assert np.allclose(np.diag(W), 1.0)
        assert np.allclose(g.degrees, W.sum(axis=1), rtol=1e-10)
        # W entries from the formula, with each point's 5th-neighbor distance
        W_ref = adaptive_kernel(X, np.partition(cdist(X, X), 5, axis=1)[:, 5])
        assert np.abs(W - W_ref).max() <= 1e-12
        assert np.abs(g.L - (np.eye(40) - g.A)).max() == 0.0
        eigs = scipy.linalg.eigvalsh(g.L)
        assert eigs.min() >= -1e-10 and eigs.max() <= 2 + 1e-10

    def test_permutation_equivariance(self):
        rng = Rng(1).generator
        X = rng.standard_normal((20, 3))
        perm = rng.permutation(20)
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(4))
        gp = gauss_kernel_graph(X[perm], BandwidthSpec.adaptive(4))
        # degrees sum the permuted rows in another order: equal up to rounding
        np.testing.assert_allclose(gp.degrees, g.degrees[perm], rtol=1e-14)
        np.testing.assert_allclose(gp.A, g.A[np.ix_(perm, perm)], rtol=1e-14, atol=0)

    def test_nan_kernel_names_the_point(self):
        # no valid bandwidth makes such a kernel: the degree check is the last guard
        W = np.ones((5, 5))
        W[2, 3] = W[3, 2] = np.nan
        with pytest.raises(
                ValueError, match="^degree nan at point 2: the kernel is zero or not finite$"):
            graph._finish_graph(W)
        with pytest.raises(
                ValueError, match="^degree 0.0 at point 1: the kernel is zero or not finite$"):
            graph._finish_graph(np.diag([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("sigma, message", [
        (1e-200, "fixed bandwidth sigma=1e-200 is too small: its square underflows to 0"),
        (1e200, "fixed bandwidth sigma=1e+200 is too large: its square overflows to inf"),
        (np.inf, "fixed bandwidth sigma=inf is too large: its square overflows to inf"),
        (np.nan, "fixed bandwidth requires sigma > 0"),
        (0.0, "fixed bandwidth requires sigma > 0"),
    ])
    def test_unusable_fixed_sigma_refused_at_construction(self, sigma, message):
        # sigma**2 == 0 would make the kernel's diagonal 0/0, and an infinite
        # sigma**2 every entry 1: refused before any array is built, without a
        # numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BandwidthSpec.fixed(sigma)

    def test_bandwidth_scaling_keeps_structure(self):
        X = Rng(2).generator.standard_normal((15, 3))
        for scale in (0.5, 2.0):
            g = gauss_kernel_graph(X, BandwidthSpec.fixed(scale))
            assert np.array_equal(g.A, g.A.T)
            np.testing.assert_allclose(kernel(g).sum(axis=1), g.degrees, rtol=1e-12)


def full_matrix_gauss(X, sigma):
    """Reference: the Gaussian graph built with whole N x N temporaries."""
    scale = -2.0 * sigma**2
    d2 = cdist(X, X, metric="sqeuclidean")
    W = d2 / scale[:, None]
    np.exp(W, out=W)
    d2 /= scale[None, :]
    W += np.exp(d2, out=d2)
    W *= 0.5
    np.fill_diagonal(W, 1.0)
    return full_matrix_finish(W)


def full_matrix_anisotropic(X, sigma):
    G = cdist(X, X, metric="sqeuclidean")
    G /= -sigma
    np.exp(G, out=G)
    r = G.sum(axis=1)
    G /= np.multiply.outer(r, r)
    return full_matrix_finish(G)


def full_matrix_finish(W):
    degrees = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return W * np.multiply.outer(inv_sqrt, inv_sqrt), degrees


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def graph_and_reference(X, kind, k, scale=1.0):
    """A graph of X and the full-matrix ``cdist`` reference (A, degrees);
    ``scale`` is the scale of X, which the fixed and anisotropic bandwidths follow."""
    if kind == "adaptive":
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(k))
        return g, full_matrix_gauss(X, np.partition(cdist(X, X), k, axis=1)[:, k])
    if kind == "fixed":
        g = gauss_kernel_graph(X, BandwidthSpec.fixed(2.5 * scale))
        return g, full_matrix_gauss(X, np.full(len(X), 2.5 * scale))
    g = anisotropic_kernel_graph(X, 20.0 * scale**2)
    return g, full_matrix_anisotropic(X, 20.0 * scale**2)


class TestBlockedBuild:
    """The row-block passes match the full-matrix ``cdist`` reference within
    the bound the ``graph`` module states, and A is exactly symmetric."""

    N = 2 * _BLOCK_ROWS + 89  # three blocks, the last one partial
    K = 7

    @pytest.fixture(scope="class")
    def X(self):
        return Rng(6).generator.standard_normal((self.N, 12))

    def test_adaptive_bandwidth_is_the_kth_distance(self, X):
        expected = np.partition(cdist(X, X), self.K, axis=1)[:, self.K]
        assert np.array_equal(adaptive_bandwidth(X, self.K), expected)

    @pytest.mark.parametrize("data", ["offset", "grid"])
    def test_adaptive_bandwidth_is_bit_equal_to_cdist(self, X, data):
        # a common offset of 1e6 and the ties of integer points change nothing
        Y = {"offset": X + 1e6, "grid": np.round(2 * X)}[data]
        expected = np.partition(cdist(Y, Y), self.K, axis=1)[:, self.K]
        assert np.array_equal(adaptive_bandwidth(Y, self.K), expected)

    @pytest.mark.parametrize("kind", ["adaptive", "fixed", "anisotropic"])
    def test_graph_matches_full_matrix_reference(self, X, kind):
        g, (A, degrees) = graph_and_reference(X, kind, self.K)
        assert np.array_equal(g.A, g.A.T)
        # the GEMM distances round differently from cdist's: the bound is the
        # graph module's, and the gap measured here is below 1e-15
        assert relative_gap(g.A, A) <= 1e-12
        assert relative_gap(g.degrees, degrees) <= 1e-12

    @pytest.mark.parametrize("kind", ["adaptive", "fixed", "anisotropic"])
    @pytest.mark.parametrize("offset, scale", [(1e6, 1.0), (0.0, 1e-150)])
    def test_graph_matches_reference_after_offset_or_scale(self, X, kind, offset, scale):
        # without centering, the offset's squared norms (1e13) swamp the
        # squared distances (about 20) in the GEMM and the kernel is lost
        g, (A, degrees) = graph_and_reference(X * scale + offset, kind, self.K, scale)
        assert np.array_equal(g.A, g.A.T)
        assert relative_gap(g.A, A) <= 1e-12
        assert relative_gap(g.degrees, degrees) <= 1e-12

    def test_duplicate_in_a_later_block_is_reported_by_index(self, X):
        Y = X.copy()
        Y[2 * _BLOCK_ROWS + 5] = Y[_BLOCK_ROWS + 3]
        with pytest.raises(ValueError, match=f"point {_BLOCK_ROWS + 3} "):
            gauss_kernel_graph(Y, BandwidthSpec.adaptive(1))

    def test_one_n_by_n_array(self):
        n = 2000
        X = Rng(7).generator.standard_normal((n, 10))
        tracemalloc.start()
        try:
            g = gauss_kernel_graph(X, BandwidthSpec.adaptive(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_points == n
        # A itself is 8 N^2 bytes; whole-matrix temporaries would double it
        assert peak < 1.25 * 8 * n * n


class TestBlockSize:
    """Every entry is computed by the same operations whatever the row block
    it falls in, so the block size cannot change a graph."""

    @pytest.mark.parametrize("kind", ["adaptive", "fixed", "anisotropic"])
    def test_ragged_blocks_match_the_default_block(self, kind, monkeypatch):
        X = Rng(8).generator.standard_normal((300, 12))
        default, _ = graph_and_reference(X, kind, 7)
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 7)  # 300 = 42 * 7 + 6
        ragged, _ = graph_and_reference(X, kind, 7)
        assert np.array_equal(ragged.A, default.A)
        assert np.array_equal(ragged.degrees, default.degrees)


class TestAnisotropicKernelGraph:
    def test_three_point_line_matches_direct_evaluation(self):
        X = line_points(0, 1, 2)
        sigma = 1.0
        # independent scalar evaluation of the density-normalized kernel
        G = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                G[i, j] = np.exp(-((X[i, 0] - X[j, 0]) ** 2) / sigma)
        r = G.sum(axis=1)
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = G[i, j] / (r[i] * r[j])
        g = anisotropic_kernel_graph(X, sigma)
        assert np.allclose(kernel(g), expected, atol=1e-14)

    def test_pair_formula(self):
        X = line_points(0, 2)
        g = anisotropic_kernel_graph(X, 3.0)
        G01 = np.exp(-4 / 3.0)
        r = 1 + G01
        assert kernel(g)[0, 1] == pytest.approx(G01 / r**2, abs=1e-14)

    def test_equidistant_points_constant_kernel(self):
        # vertices of a regular simplex: all pairwise distances equal
        X = np.eye(4)
        g = anisotropic_kernel_graph(X, 1.0)
        assert np.array_equal(g.A, g.A.T)
        off = kernel(g)[~np.eye(4, dtype=bool)]
        assert np.ptp(off) <= 1e-14

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma > 0"):
            anisotropic_kernel_graph(line_points(0, 1), -1.0)


class TestDiffusionOperator:
    def test_all_ones_kernel(self):
        g = gauss_kernel_graph(line_points(0, 1e-9), BandwidthSpec.fixed(1e3))
        P = diffusion_operator(g)
        assert np.allclose(P, 0.5, atol=1e-9)

    def test_spectrum_matches_symmetric_form(self):
        # eigenvalues of P equal those of D^{-1/2} W D^{-1/2}
        X = Rng(5).generator.standard_normal((18, 3))
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(4))
        P = diffusion_operator(g)
        ev_p = np.sort(np.linalg.eigvals(P).real)
        ev_s = np.sort(scipy.linalg.eigvalsh(g.A))
        assert np.abs(ev_p - ev_s).max() <= 1e-8
