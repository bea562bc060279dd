import tracemalloc

import numpy as np
import pytest

from harmalign.filters import bandlimiting_weights, itersine_window


class TestItersineWindow:
    @pytest.mark.parametrize("n_bands", [1, 2, 8])
    @pytest.mark.parametrize("xi", [0, 1])
    def test_peak_at_center(self, n_bands, xi):
        assert itersine_window(xi / n_bands, xi, n_bands) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n_bands", [2, 8])
    def test_zero_at_support_edges(self, n_bands):
        for xi in range(n_bands + 1):
            assert itersine_window((xi - 1) / n_bands, xi, n_bands) == 0.0
            assert itersine_window((xi + 1) / n_bands, xi, n_bands) == 0.0

    def test_half_band_value(self):
        # half a band off center the window equals sin(pi/4)
        assert itersine_window(0.5 / 8 + 1 / 8, 1, 8) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12
        )

    def test_zero_outside_support(self):
        lam = np.linspace(-2, 2, 1001)
        vals = itersine_window(lam, 3, 8)
        outside = np.abs(8 * lam - 3) >= 1
        assert np.all(vals[outside] == 0.0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_vectorized_matches_scalar(self):
        lam = np.linspace(0, 1, 17)
        vec = itersine_window(lam, 2, 4)
        scalars = [itersine_window(v, 2, 4) for v in lam]
        assert np.allclose(vec, scalars, atol=0)

    def test_invalid_band_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            itersine_window(0.5, 0, 0)


class TestWindowBank:
    @pytest.mark.parametrize("n_bands", [1, 2, 8, 64])
    def test_squared_partition_of_unity(self, n_bands):
        lam = np.linspace(0.0, 1.0, 10_000)
        total = sum(itersine_window(lam, xi, n_bands) ** 2 for xi in range(n_bands + 1))
        assert np.abs(total - 1.0).max() <= 1e-12


def looped_weights(lam_x, lam_y, n_bands):
    """The weights summed band by band, one outer product per band."""
    w = np.zeros((lam_x.size, lam_y.size))
    for xi in range(n_bands + 1):
        w += np.outer(itersine_window(lam_x, xi, n_bands), itersine_window(lam_y, xi, n_bands))
    return w


class TestBandlimitingWeights:
    @pytest.mark.parametrize("n_bands", [1, 4, 8, 16])
    def test_equals_the_band_by_band_sum(self, n_bands):
        # 0, 1 and every band edge xi/n_bands, where one window peaks and its
        # neighbours vanish, beside draws between them
        rng = np.random.default_rng(n_bands)
        edges = np.arange(n_bands + 1) / n_bands
        lam_x = np.concatenate([edges, rng.uniform(0, 1, 50)])
        lam_y = np.concatenate([rng.uniform(0, 1, 31), edges[::-1]])
        w = bandlimiting_weights(lam_x, lam_y, n_bands)
        assert np.array_equal(w, looped_weights(lam_x, lam_y, n_bands))

    def test_holds_only_the_weight_matrix(self):
        rng = np.random.default_rng(3)
        lam_x, lam_y = rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000)
        tracemalloc.start()
        try:
            w = bandlimiting_weights(lam_x, lam_y, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * w.nbytes

    def test_unit_diagonal(self):
        lam = np.linspace(0, 1, 200)
        w = bandlimiting_weights(lam, lam, 8)
        assert np.abs(np.diag(w) - 1.0).max() <= 1e-12

    def test_exact_zero_beyond_two_bands(self):
        rng = np.random.default_rng(0)
        lam_x = rng.uniform(0, 1, 100)
        lam_y = rng.uniform(0, 1, 100)
        for n_bands in (2, 8):
            w = bandlimiting_weights(lam_x, lam_y, n_bands)
            far = np.abs(lam_x[:, None] - lam_y[None, :]) >= 2 / n_bands
            assert np.all(w[far] == 0.0)

    def test_range(self):
        rng = np.random.default_rng(1)
        w = bandlimiting_weights(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), 8)
        assert w.min() >= 0.0 and w.max() <= 1.0 + 1e-12

    def test_hand_value_two_bands(self):
        # lam_i at a band center, lam_j half a band away
        w = bandlimiting_weights(np.array([0.5]), np.array([0.75]), 2)
        assert w[0, 0] == pytest.approx(np.sin(np.pi / 4), abs=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        lam_x = rng.uniform(0, 1, 30)
        lam_y = rng.uniform(0, 1, 40)
        w = bandlimiting_weights(lam_x, lam_y, 8)
        wt = bandlimiting_weights(lam_y, lam_x, 8)
        assert np.array_equal(w, wt.T)

    def test_support_shrinks_with_more_bands(self):
        delta = 0.2
        w_coarse = bandlimiting_weights(np.array([0.4]), np.array([0.4 + delta]), 4)
        w_fine = bandlimiting_weights(np.array([0.4]), np.array([0.4 + delta]), 16)
        assert w_coarse[0, 0] > 0.0
        assert w_fine[0, 0] == 0.0
