import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import harmalign.baselines as bl
from harmalign.baselines import MnnParams, mnn_correct
from harmalign.core import Rng
from harmalign.graph import nearest


def two_clusters(n_per=30, d=5, seed=0, separation=20.0, scale=1.0):
    gen = Rng(seed).generator
    a = scale * gen.standard_normal((n_per, d))
    b = scale * gen.standard_normal((n_per, d))
    b[:, 0] += separation
    return np.vstack([a, b])


def reference_mnn(X, Y, k):
    """MNN from a full cdist, neighbours by a stable (distance, index) sort."""
    cross = cdist(Y, X)
    y_to_x = np.zeros(cross.shape, dtype=bool)
    np.put_along_axis(y_to_x, np.argsort(cross, axis=1, kind="stable")[:, :k], True, axis=1)
    x_to_y = np.zeros(cross.shape, dtype=bool)
    np.put_along_axis(x_to_y, np.argsort(cross, axis=0, kind="stable")[:k], True, axis=0)
    mutual = y_to_x & x_to_y
    counts = mutual.sum(axis=1)
    V = np.zeros_like(Y)
    has = counts > 0
    V[has] = (mutual[has].astype(np.float64) @ X) / counts[has, None] - Y[has]
    dyy = cdist(Y, Y)
    sigma = float(np.median(dyy[~np.eye(Y.shape[0], dtype=bool)])) or 1.0
    S = np.exp(-(dyy**2) / (2.0 * sigma**2))
    S /= S.sum(axis=1, keepdims=True)
    return Y + S @ V


def neighbour_sets(X, Y, k):
    """The (N2, k) and (N1, k) neighbour indices mnn_correct selects."""
    found = []

    def recording(test, train, k):
        idx, dist = nearest(test, train, k)
        found.append(idx)
        return idx, dist

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bl, "nearest", recording)
        mnn_correct(X, Y, MnnParams(k=k))
    return found


def grids_or_floats(shape):
    integers = arrays(np.float64, shape, elements=st.integers(-2, 2).map(float))
    floats = arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
    return st.one_of(integers, floats)


@st.composite
def mnn_inputs(draw):
    n1, n2, d = draw(st.integers(2, 12)), draw(st.integers(2, 12)), draw(st.integers(1, 3))
    k = draw(st.integers(1, min(n1, n2) - 1))
    return draw(grids_or_floats((n1, d))), draw(grids_or_floats((n2, d))), k


class TestMnnCorrect:
    def test_identical_datasets_zero_correction(self):
        X = Rng(1).generator.standard_normal((40, 6))
        corrected = mnn_correct(X, X.copy(), MnnParams(k=1))
        norms = np.linalg.norm(corrected - X, axis=1)
        assert norms.mean() <= 1e-8

    def test_constant_shift_recovery(self):
        X = two_clusters(seed=2, separation=40.0, scale=0.3)
        # shift orthogonal to the cluster-separation axis, large relative to
        # the within-cluster spread (the recovery error is O(cluster spread));
        # k close to the cluster size so nearly every point has mutual pairs
        c = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
        Y = X + c
        corrected = mnn_correct(X, Y, MnnParams(k=29))
        errors = np.linalg.norm(corrected - X, axis=1)
        assert np.all(errors <= 0.1 * np.linalg.norm(c))

    def test_translation_equivariance(self):
        gen = Rng(4).generator
        X = gen.standard_normal((30, 4))
        Y = gen.standard_normal((25, 4))
        c = gen.standard_normal(4)
        base = mnn_correct(X, Y, MnnParams(k=5))
        shifted = mnn_correct(X + c, Y + c, MnnParams(k=5))
        assert np.abs(shifted - (base + c)).max() <= 1e-8

    def test_output_shape_and_finiteness(self):
        gen = Rng(5).generator
        X = gen.standard_normal((30, 4))
        Y = gen.standard_normal((25, 4)) + 2
        corrected = mnn_correct(X, Y, MnnParams(k=5))
        assert corrected.shape == Y.shape
        assert np.all(np.isfinite(corrected))

    def test_k_too_large(self):
        gen = Rng(6).generator
        with pytest.raises(ValueError, match="k="):
            mnn_correct(
                gen.standard_normal((10, 3)),
                gen.standard_normal((12, 3)),
                MnnParams(k=10),
            )

    def test_feature_mismatch(self):
        gen = Rng(7).generator
        with pytest.raises(ValueError, match="feature space"):
            mnn_correct(gen.standard_normal((10, 3)), gen.standard_normal((10, 4)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MnnParams(k=0)
        with pytest.raises(ValueError):
            MnnParams(sigma=-1.0)
        with pytest.raises(ValueError, match="sigma must be positive, got nan"):
            MnnParams(sigma=float("nan"))  # would correct every row to NaN

    def test_ties_go_to_the_lower_index(self):
        # integer points: most distances tie, many at the k-th place
        gen = Rng(8).generator
        X = gen.integers(0, 4, (200, 3)).astype(float)
        Y = gen.integers(0, 4, (300, 3)).astype(float) + 0.5
        assert np.array_equal(mnn_correct(X, Y, MnnParams(k=5)), reference_mnn(X, Y, 5))

    def test_one_n2_by_n2_array_and_the_distances(self):
        # S (8 N2^2 bytes) and pdist's half of it; a full-matrix copy for the
        # median would make it 2
        gen = Rng(10).generator
        n2 = 1500
        X, Y = gen.standard_normal((300, 10)), gen.standard_normal((n2, 10))
        tracemalloc.start()
        try:
            mnn_correct(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 8 * n2 * n2

    @settings(deadline=None, max_examples=200)
    @given(inputs=mnn_inputs())
    def test_a_mutual_pair_always_exists(self, inputs):
        X, Y, k = inputs
        x_of_y, y_of_x = neighbour_sets(X, Y, k)
        mutual = y_of_x[x_of_y] == np.arange(Y.shape[0])[:, None, None]
        assert mutual.any()
        assert np.array_equal(mnn_correct(X, Y, MnnParams(k=k)), reference_mnn(X, Y, k))

    @pytest.mark.parametrize("where", ["X", "Y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_raise(self, where, bad):
        gen = Rng(9).generator
        data = {"X": gen.standard_normal((10, 3)), "Y": gen.standard_normal((12, 3))}
        data[where][4, 1] = bad
        with pytest.raises(ValueError, match="finite values"):
            mnn_correct(data["X"], data["Y"], MnnParams(k=3))
