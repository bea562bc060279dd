import mmap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from harmalign import graph, spectral
from harmalign.align import orthogonalize, unified_diffusion_map
from harmalign.core import Rng
from harmalign.graph import BandwidthSpec, KernelGraph, gauss_kernel_graph
from harmalign.spectral import (
    canonical_signs,
    degenerate_gaps,
    drop_trivial,
    fourier_basis,
)


def reference_signs(psi):
    """Columns re-signed so the first of their largest magnitudes is positive."""
    idx = np.abs(psi).argmax(axis=0)
    signs = np.sign(psi[idx, np.arange(psi.shape[1])])
    signs[signs == 0] = 1.0
    return psi * signs


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def random_graph(n=30, d=4, seed=0, k=5):
    X = Rng(seed).generator.standard_normal((n, d))
    return gauss_kernel_graph(X, BandwidthSpec.adaptive(k))


def copied(g):
    """A graph of its own with ``g``'s values, for a solve that ``g`` must outlive."""
    return KernelGraph(upper=g.upper.copy(), degrees=g.degrees)


class TestFourierBasis:
    def test_two_point_spectrum(self):
        g = gauss_kernel_graph(
            np.array([[0.0], [1e-9]]), BandwidthSpec.fixed(1e3)
        )
        b = fourier_basis(g)
        assert np.allclose(b.lam, [1.0, 0.0], atol=1e-9)

    def test_leading_eigenvector_is_sqrt_degrees(self):
        g = random_graph(seed=1)
        b = fourier_basis(g)
        assert b.lam[0] == pytest.approx(1.0, abs=1e-10)
        expected = np.sqrt(g.degrees)
        expected /= np.linalg.norm(expected)
        assert np.abs(b.psi[:, 0] - expected).max() <= 1e-8

    def test_orthonormal_and_sorted(self):
        b = fourier_basis(random_graph(seed=2))
        assert np.abs(b.psi.T @ b.psi - np.eye(b.rank)).max() <= 1e-10
        assert np.all(np.diff(b.lam) <= 1e-12)
        assert b.lam.min() >= 0.0 and b.lam.max() <= 1.0

    def test_eigen_residual(self):
        g = random_graph(n=60, seed=3)
        b = fourier_basis(copied(g))
        # residual check only where the clamp did not move eigenvalues
        raw = np.sort(np.linalg.eigvalsh(g.A))[::-1]
        live = (raw >= 0) & (raw <= 1)
        resid = np.abs(g.A @ b.psi[:, live] - b.psi[:, live] * b.lam[live][None, :])
        assert resid.max() <= 1e-8

    def test_sign_convention(self):
        b = fourier_basis(random_graph(seed=4))
        idx = np.abs(b.psi).argmax(axis=0)
        assert np.all(b.psi[idx, np.arange(b.rank)] > 0)

    def test_canonical_signs_idempotent(self):
        b = fourier_basis(random_graph(seed=5))
        assert np.array_equal(canonical_signs(b.psi), b.psi)

    def test_canonical_basis_is_returned_itself(self):
        psi = fourier_basis(random_graph(seed=5)).psi
        assert canonical_signs(psi) is psi
        view = psi[:, 1:]  # as the trivial component's removal leaves it
        assert canonical_signs(view) is view
        flipped = psi * np.where(np.arange(psi.shape[1]) % 2, -1.0, 1.0)
        resigned = canonical_signs(flipped)
        assert resigned is not flipped and np.array_equal(resigned, psi)

    def test_canonical_signs_match_the_columnwise_rule(self):
        # small integers tie often: equal and opposite largest magnitudes in
        # one column, and all-zero columns
        gen = Rng(7).generator
        for _ in range(500):
            n, r = gen.integers(1, 12), gen.integers(1, 8)
            psi = gen.integers(-2, 3, (n, r)).astype(float)
            psi[:, gen.integers(0, r)] = 0.0
            if n > 1:
                psi[gen.permutation(n)[:2], gen.integers(0, r)] = gen.permutation([2.0, -2.0])
            expected = reference_signs(psi)
            assert np.array_equal(canonical_signs(psi), expected)
            assert np.array_equal(canonical_signs(psi[:, ::-1]), expected[:, ::-1])

    def test_canonical_signs_allocate_nothing_the_size_of_the_basis(self):
        # the signs come from column reductions; a canonical full-rank view,
        # as the trivial component's removal leaves it, is returned itself
        psi = fourier_basis(random_graph(n=1500, d=4, seed=15, k=20)).psi
        view = psi[:, 1:]
        out, peak = traced_peak(canonical_signs, view)
        assert out is view
        assert peak < 0.01 * view.nbytes
        # a flip of a reversed F-ordered view writes one C-ordered array
        flipped = np.asfortranarray(psi * np.where(np.arange(1500) % 2, -1.0, 1.0))[:, ::-1]
        out, peak = traced_peak(canonical_signs, flipped)
        assert out.flags.c_contiguous and np.array_equal(out, psi[:, ::-1])
        assert peak < 1.01 * psi.nbytes

    def test_determinism(self):
        g = random_graph(seed=6)
        b1 = fourier_basis(copied(g))
        b2 = fourier_basis(copied(g))
        assert np.array_equal(b1.psi, b2.psi)
        assert np.array_equal(b1.lam, b2.lam)

    def test_rank_n_matches_full(self):
        g = random_graph(n=25, seed=7)
        full = fourier_basis(copied(g))
        ranked = fourier_basis(g, rank=25)
        assert np.abs(full.psi - ranked.psi).max() <= 1e-8
        assert np.abs(full.lam - ranked.lam).max() <= 1e-8

    def test_truncated_matches_top_of_full(self):
        g = random_graph(n=50, seed=8)
        full = fourier_basis(copied(g))
        trunc = fourier_basis(g, rank=10)
        assert np.abs(trunc.lam - full.lam[:10]).max() <= 1e-8
        assert np.abs(trunc.psi - full.psi[:, :10]).max() <= 1e-6

    def test_lanczos_below_an_eighth_of_n(self, monkeypatch):
        g = random_graph(n=200, seed=13, k=10)
        full = fourier_basis(copied(g))
        calls = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **kw: calls.append(kw["k"]) or eigsh(*a, **kw))
        trunc = fourier_basis(g, rank=24)  # 8 * 24 < 200
        assert calls == [24]
        assert np.abs(trunc.lam - full.lam[:24]).max() <= 1e-8
        assert np.abs(trunc.psi - full.psi[:, :24]).max() <= 1e-6

    def test_dense_slice_from_an_eighth_of_n(self, monkeypatch):
        g = random_graph(n=200, seed=13, k=10)
        full = fourier_basis(copied(g))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", None)
        trunc = fourier_basis(g, rank=25)  # 8 * 25 == 200
        assert np.array_equal(trunc.lam, full.lam[:25])
        assert np.array_equal(trunc.psi, full.psi[:, :25])

    def test_lanczos_non_convergence_falls_back_to_dense(self, monkeypatch, caplog):
        g = random_graph(n=200, seed=13, k=10)
        full = fourier_basis(copied(g))

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(3), np.zeros((200, 3))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with caplog.at_level("WARNING", logger="harmalign"):
            trunc = fourier_basis(g, rank=10)  # 8 * 10 < 200: Lanczos first
        assert np.array_equal(trunc.lam, full.lam[:10])
        assert np.array_equal(trunc.psi, full.psi[:, :10])
        [record] = caplog.records
        assert record.name == "harmalign" and record.levelname == "WARNING"
        assert record.getMessage() == (
            "Lanczos found 3 of 10 eigenpairs of a 200-point graph; "
            "falling back to the dense solver"
        )

    @pytest.mark.parametrize("spare", [None, 2 * 8 * 200 * 200])
    def test_lanczos_fallback_runs_when_memory_suffices_or_is_unknown(self, monkeypatch, spare):
        g = random_graph(n=200, seed=13, k=10)
        full = fourier_basis(copied(g))

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        monkeypatch.setattr(spectral, "_available_memory", lambda: spare)
        # writing over A, the fallback adds only dsyevd's 2 N^2 workspace
        b = fourier_basis(g, rank=10)
        assert np.array_equal(b.psi, full.psi[:, :10])

    def test_lanczos_fallback_refuses_when_dense_route_does_not_fit(self, monkeypatch):
        g = random_graph(n=200, seed=13, k=10)
        need = 2 * 8 * 200 * 200  # dsyevd's 2 N^2 workspace; A is written over

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(3), np.zeros((200, 3))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        monkeypatch.setattr(spectral, "_available_memory", lambda: need - 1)
        monkeypatch.setattr(spectral, "_dense_solve", None)  # never reached
        with pytest.raises(MemoryError) as exc:
            fourier_basis(g, rank=10)
        assert str(exc.value) == (
            "Lanczos found 3 of 10 eigenpairs of a 200-point graph, and the dense "
            f"solver needs about {need / 2**20:.0f} MiB more, but only "
            f"{(need - 1) / 2**20:.0f} MiB is available"
        )
        assert isinstance(exc.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)

    def test_lanczos_fallback_counts_the_workspace_it_adds(self, monkeypatch):
        full = fourier_basis(random_graph(n=200, seed=13, k=10))

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        need = 2 * 8 * 200 * 200
        monkeypatch.setattr(spectral, "_available_memory", lambda: need - 1)
        with pytest.raises(MemoryError):
            fourier_basis(random_graph(n=200, seed=13, k=10), rank=10)
        monkeypatch.setattr(spectral, "_available_memory", lambda: need)
        b = fourier_basis(random_graph(n=200, seed=13, k=10), rank=10)
        assert np.array_equal(b.psi, full.psi[:, :10])

    def test_lanczos_fallback_counts_the_unwritten_half_of_a_mapped_graph(self, monkeypatch):
        n = 2048  # in its own mapping, whose triangle and a page per row are resident
        need = 3 * 8 * n * n - (4 * n * (n + 1) + n * mmap.PAGESIZE)

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        monkeypatch.setattr(spectral, "_available_memory", lambda: need - 1)
        monkeypatch.setattr(spectral, "_dense_solve", None)  # never reached
        g = KernelGraph(upper=np.zeros((n, n)), degrees=np.ones(n))
        with pytest.raises(MemoryError, match=f"needs about {need / 2**20:.0f} MiB more"):
            fourier_basis(g, rank=10)

    def test_parseval(self):
        g = random_graph(seed=9)
        b = fourier_basis(g)
        f = Rng(10).generator.standard_normal(30)
        assert np.linalg.norm(b.psi.T @ f) == pytest.approx(
            np.linalg.norm(f), abs=1e-10
        )


class TestGraphOwnership:
    """The dense solve writes its eigenvectors over the graph it is given; a
    caller that needs the graph afterwards solves a copy."""

    @pytest.mark.parametrize("rank", [None, 10])
    def test_overwriting_gives_the_same_eigenvalues(self, rank):
        g = random_graph(n=200, seed=13, k=10)
        kept = fourier_basis(copied(g), rank)
        owned = fourier_basis(g, rank)
        assert np.array_equal(owned.psi, kept.psi)
        assert np.array_equal(owned.lam, kept.lam)
        # all N pairs are the graph's own buffer, so the graph reads them
        assert np.shares_memory(owned.psi, g.upper) is (rank is None)

    def test_full_rank_solve_peaks_at_the_workspace(self):
        # beyond the graph, dsyevd's 2 N^2 workspace and no copy of the graph
        g = random_graph(n=1500, d=4, seed=15, k=20)
        b, peak = traced_peak(fourier_basis, g)
        assert b.rank == 1500
        assert peak <= 2.1 * g.upper.nbytes


class TestDenseSolve:
    """The divide-and-conquer solve: orthonormal, accurate, and orthonormal
    inside a degenerate eigenspace too."""

    @staticmethod
    def assert_accurate(g, b):
        assert b.rank == g.n_points
        raw = scipy.linalg.eigvalsh(g.A)[::-1]
        assert np.abs(b.lam - np.clip(raw, 0.0, 1.0)).max() <= 1e-12
        assert np.abs(b.psi.T @ b.psi - np.eye(b.rank)).max() <= 1e-10
        live = (raw >= 0) & (raw <= 1)  # where the clamp did not move eigenvalues
        resid = g.A @ b.psi[:, live] - b.psi[:, live] * b.lam[live]
        assert np.abs(resid).max() <= 1e-10

    def test_full_rank_basis_of_1000_points(self):
        g = random_graph(n=1000, d=6, seed=16, k=20)
        self.assert_accurate(g, fourier_basis(copied(g)))

    def test_repeated_eigenvalue_of_two_components(self):
        X = Rng(17).generator.standard_normal((300, 4))
        X[150:, 0] += 1e3  # no kernel weight survives between the halves
        g = gauss_kernel_graph(X, BandwidthSpec.adaptive(10))
        b = fourier_basis(copied(g))
        assert b.lam[1] >= 1.0 - 1e-12 > b.lam[2]  # eigenvalue 1, twice
        self.assert_accurate(g, b)


class TestLanczosMatvec:
    def test_lanczos_reads_a_in_place_and_matches_the_dense_slice(self):
        g = random_graph(n=1000, d=6, seed=14, k=20)
        assert not spectral._plan(1000, 20)[1]  # rank 20 takes the Lanczos route
        tracemalloc.start()
        try:
            b = fourier_basis(g, rank=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * g.A.nbytes  # no copy of A, not even of a triangle
        lam, _ = spectral._dense_solve(g.A)
        assert np.abs(b.lam - lam[::-1][:20]).max() <= 1e-12
        assert np.abs(g.A @ b.psi - b.psi * b.lam).max() <= 1e-10


class TestUnwrittenTriangle:
    """No solver reads the strict lower part of ``upper``, which the graph
    builder never writes; ``A`` and ``L`` mirror the upper triangle."""

    N = 200

    @staticmethod
    def poisoned(g):
        """``g`` with NaN and +inf in the strict lower part of a copy of ``upper``."""
        upper = g.upper.copy()
        rows, cols = np.tril_indices(len(upper), -1)
        upper[rows, cols] = np.where(cols % 2 == 0, np.nan, np.inf)
        return KernelGraph(upper=upper, degrees=g.degrees)

    @pytest.mark.parametrize("poisoned_first", [False, True])
    @pytest.mark.parametrize("rank, converges", [(None, True), (10, True), (10, False)],
                             ids=["dense", "lanczos", "fallback"])
    def test_every_route_reads_the_upper_triangle(self, monkeypatch, rank, converges,
                                                  poisoned_first):
        g = random_graph(n=self.N, seed=13, k=10)
        if not converges:
            def no_convergence(A, k, **kw):
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        poisoned = self.poisoned(g)  # before g's solve writes over it
        # either order: neither solve sees what the other left in its buffers
        if poisoned_first:
            b = fourier_basis(poisoned, rank)
            clean = fourier_basis(g, rank)
        else:
            clean = fourier_basis(g, rank)
            b = fourier_basis(poisoned, rank)
        assert np.all(np.isfinite(b.psi))
        assert np.array_equal(b.psi, clean.psi)
        assert np.array_equal(b.lam, clean.lam)

    def test_a_and_l_are_the_exact_mirror(self):
        g = random_graph(n=self.N, seed=13, k=10)
        A = self.poisoned(g).A
        assert np.array_equal(A, A.T)
        assert np.array_equal(np.triu(A), np.triu(g.upper))
        assert np.array_equal(A, g.A)
        assert np.array_equal(self.poisoned(g).L, np.eye(self.N) - A)


class TestSolverTail:
    """One tail turns the ascending pairs of either solver into the top
    ``rank`` pairs, descending, in one contiguous array (F-ordered with all N
    pairs, else C-ordered); ``rank`` is None or a positive integer."""

    N = 200

    @pytest.fixture(scope="class")
    def graph_and_full(self):
        g = random_graph(n=self.N, seed=13, k=10)
        full = fourier_basis(copied(g))
        assert np.diff(full.lam[full.lam > 0]).max() < -1e-10  # a distinct spectrum
        return g, full

    @staticmethod
    def assert_descending_and_contiguous(b):
        assert np.all(np.diff(b.lam) <= 0)
        full = b.rank == len(b.psi)
        assert b.psi.flags.f_contiguous if full else b.psi.flags.c_contiguous

    @pytest.mark.parametrize("rank", [None, N // 8, 100, N - 1])
    def test_dense_route_keeps_the_leading_columns(self, graph_and_full, rank):
        g, full = graph_and_full
        assert spectral._plan(self.N, rank)[1]  # the dense route
        b = fourier_basis(copied(g), rank)
        self.assert_descending_and_contiguous(b)
        assert np.array_equal(b.psi, full.psi[:, :rank])
        assert np.array_equal(b.lam, full.lam[:rank])

    @pytest.mark.parametrize("rank", [10, N // 8 - 1])
    def test_lanczos_route_matches_the_dense_slice(self, graph_and_full, rank):
        g, full = graph_and_full
        assert not spectral._plan(self.N, rank)[1]  # the Lanczos route
        b = fourier_basis(g, rank)
        self.assert_descending_and_contiguous(b)
        assert np.abs(b.lam - full.lam[:rank]).max() <= 1e-8
        assert np.abs(b.psi - full.psi[:, :rank]).max() <= 1e-8

    def test_lanczos_fallback_is_the_dense_slice(self, graph_and_full, monkeypatch):
        g, full = graph_and_full

        def no_convergence(A, k, **kw):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        b = fourier_basis(copied(g), rank=10)
        self.assert_descending_and_contiguous(b)
        assert np.array_equal(b.psi, full.psi[:, :10])
        assert np.array_equal(b.lam, full.lam[:10])

    @pytest.mark.parametrize("converges", [True, False])
    def test_lanczos_and_fallback_write_a_signed_contiguous_basis(self, graph_and_full,
                                                                  monkeypatch, converges):
        g, _ = graph_and_full
        if not converges:
            def no_convergence(A, k, **kw):
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        b = fourier_basis(copied(g), rank=10)
        assert b.psi.flags.c_contiguous
        assert np.array_equal(b.psi, reference_signs(b.psi))

    @pytest.mark.parametrize("n", [N, N + 1, 300])  # an odd N, and two tiles
    def test_full_rank_basis_is_the_solvers_buffer(self, n):
        g = random_graph(n=n, seed=13, k=10)
        kept = fourier_basis(copied(g))
        lam, psi = spectral._dense_solve(g.upper.copy())
        b = fourier_basis(g)
        assert b.psi.flags.f_contiguous and np.shares_memory(b.psi, g.upper)
        assert np.array_equal(b.psi, kept.psi)
        assert np.array_equal(b.lam, kept.lam)
        assert np.array_equal(b.psi, reference_signs(psi[:, ::-1]))

    @pytest.mark.parametrize("rank, converges", [(N - 1, True), (N // 8, True), (10, False)],
                             ids=["dense-n-1", "dense-n/8", "fallback"])
    def test_truncated_bases_are_their_own_arrays(self, graph_and_full, monkeypatch, rank,
                                                  converges):
        g, full = graph_and_full
        owned = copied(g)
        if not converges:
            def no_convergence(A, k, **kw):
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        b = fourier_basis(owned, rank)
        self.assert_descending_and_contiguous(b)
        assert not np.shares_memory(b.psi, owned.upper)
        assert np.array_equal(b.psi, full.psi[:, :rank])

    @pytest.mark.parametrize("block_rows", [256, 2, 1])
    def test_full_basis_in_place_reverses_signs_and_transposes(self, monkeypatch, block_rows):
        # the columns are reversed in psi's F-ordered buffer: swapped in row
        # blocks of psi.T, so that psi comes back as psi, not transposed
        monkeypatch.setattr(graph, "_BLOCK_ROWS", block_rows)  # ragged blocks too
        # eigenvectors ascending, as dsyevd returns them; the middle one's
        # extremes are -2 and +2, and the first of them flips it
        psi = np.asfortranarray([[1.0, -2.0, 0.5],
                                 [-3.0, 2.0, 0.0],
                                 [0.0, 1.0, -0.5]])
        expected = np.array([[0.5, 2.0, -1.0],
                             [0.0, -2.0, 3.0],
                             [-0.5, -1.0, 0.0]])
        assert np.array_equal(reference_signs(psi[:, ::-1]), expected)
        out = spectral._full_basis_in_place(psi)
        assert out.flags.f_contiguous and np.shares_memory(out, psi)
        assert np.array_equal(out, expected)
        # an odd N over several blocks, the middle column left in place
        psi = np.asfortranarray(Rng(16).generator.standard_normal((7, 7)))
        expected = reference_signs(psi[:, ::-1])
        assert np.array_equal(spectral._full_basis_in_place(psi), expected)

    @pytest.mark.parametrize("rank, message", [
        (2.5, "rank must be an integer, got 2.5"),  # the Lanczos route's size
        (100.5, "rank must be an integer, got 100.5"),  # the dense route's size
        (0, "rank must be >= 1, got 0"),
        (N + 1, f"rank {N + 1} exceeds the {N} points of the graph"),
    ])
    def test_rank_is_a_positive_integer(self, graph_and_full, rank, message):
        g, _ = graph_and_full
        with pytest.raises(ValueError, match=f"^{message}$"):
            fourier_basis(g, rank)
        with pytest.raises(ValueError, match=f"^{message}$"):
            spectral.check_memory(self.N, rank)


class TestDropTrivial:
    def test_removes_first_pair(self):
        b = fourier_basis(random_graph(seed=11))
        reduced = drop_trivial(b)
        assert reduced.rank == b.rank - 1
        assert np.array_equal(reduced.lam, b.lam[1:])
        assert np.array_equal(reduced.psi, b.psi[:, 1:])

    def test_error_below_rank_two(self):
        b = fourier_basis(random_graph(seed=12), rank=2)
        once = drop_trivial(b)
        with pytest.raises(ValueError, match="rank-1"):
            drop_trivial(once)


def aligned_pair(seed, t, n=30, k=5):
    """Two graphs, their bases and their unified embedding under a random map."""
    graphs = [random_graph(n=n, seed=seed, k=k), random_graph(n=n + 5, seed=seed + 100, k=k)]
    bases = [fourier_basis(copied(g)) for g in graphs]
    T = orthogonalize(Rng(seed).generator.standard_normal((bases[0].rank, bases[1].rank)))
    return graphs, bases, unified_diffusion_map(bases, {(0, 1): T, (1, 0): T.T}, t)


def diagonal_blocks(graphs, bases, phi):
    """Each dataset's graph and basis with its own block of the embedding."""
    n, r = graphs[0].n_points, bases[0].rank
    yield graphs[0], bases[0], phi[:n, :r]
    yield graphs[1], bases[1], phi[n:, r:]


class TestDiffusionCoordinates:
    """Each dataset's diagonal block of the unified embedding holds its
    diffusion coordinates ``Phi_t = D^{-1/2} Psi Lambda^t``."""

    def test_t_zero_is_scaled_basis(self):
        for g, b, phi0 in diagonal_blocks(*aligned_pair(13, t=0)):
            expected = b.psi / np.sqrt(g.degrees)[:, None]
            assert np.allclose(phi0, expected, rtol=1e-15, atol=0)

    def test_zero_eigenvalue_column_vanishes(self):
        _, bases, phi = aligned_pair(14, t=1)
        zero_cols = np.concatenate([b.lam == 0.0 for b in bases])
        if zero_cols.any():
            assert np.abs(phi[:, zero_cols]).max() == 0.0

    def test_columns_are_right_eigenvectors_of_p(self):
        for g, b, phi0 in diagonal_blocks(*aligned_pair(15, t=0, n=15, k=4)):
            s = np.sqrt(g.degrees)
            P = (s[:, None] * g.A * s[None, :]) / g.degrees[:, None]  # D^-1 W
            raw = np.sort(np.linalg.eigvalsh(g.A))[::-1]
            live = (raw >= 0) & (raw <= 1)
            resid = np.abs(P @ phi0[:, live] - phi0[:, live] * b.lam[live][None, :])
            assert resid.max() <= 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            aligned_pair(17, t=-1)

    @pytest.mark.parametrize("t", [2.0, 1.5])
    def test_non_integer_time_rejected(self, t):
        with pytest.raises(ValueError, match=f"^diffusion time must be a non-negative "
                                             f"integer, got {t}$"):
            aligned_pair(17, t=t)


class TestDegenerateGaps:
    def test_flags_ties(self):
        assert degenerate_gaps(np.array([1.0, 0.5, 0.5, 0.1])) == [1]

    def test_clean_spectrum(self):
        assert degenerate_gaps(np.array([1.0, 0.5, 0.1])) == []
