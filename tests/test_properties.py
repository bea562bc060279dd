"""Invariances of the alignment under dataset swap, row permutation and a
rotation of the feature space common to every dataset.

Inputs are drawn from a seed and sizes, with more features than points so
that every correlation matrix has full rank and the orthogonal maps are
unique; with fewer features than points a map is arbitrary in the
correlation's null directions and only its action on the rest is defined.
One seeded example checks row permutation with fewer features than points,
at a truncated rank on the Lanczos route.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmalign import graph, spectral
from harmalign.align import AlignmentParams, harmonic_alignment, multi_alignment
from harmalign.core import Rng
from harmalign.evaluation import ManifoldSampler, partial_corruption, random_orthogonal

PARAMS = AlignmentParams(knn=5)
D = 60
TOL = 1e-8

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(20, 50)
cases = settings(deadline=None, max_examples=15)


def draw(seed, ns):
    gen = Rng(seed).generator
    return [gen.standard_normal((n, D)) for n in ns]


def blocks(phi, row_ranges, col_ranges):
    return [[phi[r0:r1, c0:c1] for c0, c1 in col_ranges] for r0, r1 in row_ranges]


def quiet(fn, *args):
    # near-degenerate spectra warn; the checks below do not depend on them
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fn(*args)


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=0, atol=TOL)


@cases
@given(seed=seeds, n1=sizes, n2=sizes)
def test_pair_swap(seed, n1, n2):
    X, Y = draw(seed, (n1, n2))
    xy = quiet(harmonic_alignment, X, Y, PARAMS)
    yx = quiet(harmonic_alignment, Y, X, PARAMS)
    assert_close(yx.T, xy.T.T)
    r1, r2 = n1 - 1, n2 - 1  # non-trivial harmonics per dataset
    b_xy = blocks(xy.phi, xy.row_ranges, ((0, r1), (r1, r1 + r2)))
    b_yx = blocks(yx.phi, yx.row_ranges, ((0, r2), (r2, r1 + r2)))
    for i in range(2):
        for j in range(2):
            assert_close(b_yx[1 - i][1 - j], b_xy[i][j])


@cases
@given(seed=seeds, n1=sizes, n2=sizes, which=st.integers(0, 1))
def test_pair_row_permutation(seed, n1, n2, which):
    data = draw(seed, (n1, n2))
    perm = Rng(seed).spawn("perm").generator.permutation(data[which].shape[0])
    permuted = list(data)
    permuted[which] = data[which][perm]
    base = quiet(harmonic_alignment, *data, PARAMS)
    alt = quiet(harmonic_alignment, *permuted, PARAMS)
    assert_close(alt.T, base.T)
    lo, hi = base.row_ranges[which]
    expected = base.phi.copy()
    expected[lo:hi] = base.phi[lo:hi][perm]
    assert_close(alt.phi, expected)


@cases
@given(seed=seeds, ns=st.tuples(sizes, sizes, sizes), order=st.permutations(range(3)))
def test_multi_dataset_order(seed, ns, order):
    data = draw(seed, ns)
    base = quiet(multi_alignment, data, PARAMS)
    alt = quiet(multi_alignment, [data[k] for k in order], PARAMS)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert_close(alt.maps[(i, j)], base.maps[(order[i], order[j])])
    b_base = blocks(base.phi, base.row_ranges, base.col_ranges)
    b_alt = blocks(alt.phi, alt.row_ranges, alt.col_ranges)
    for i in range(3):
        for j in range(3):
            assert_close(b_alt[i][j], b_base[order[i]][order[j]])


@cases
@given(seed=seeds, ns=st.tuples(sizes, sizes, sizes), which=st.integers(0, 2))
def test_multi_row_permutation(seed, ns, which):
    data = draw(seed, ns)
    perm = Rng(seed).spawn("perm").generator.permutation(ns[which])
    permuted = list(data)
    permuted[which] = data[which][perm]
    base = quiet(multi_alignment, data, PARAMS)
    alt = quiet(multi_alignment, permuted, PARAMS)
    for key, T in base.maps.items():
        assert_close(alt.maps[key], T)
    lo, hi = base.row_ranges[which]
    expected = base.phi.copy()
    expected[lo:hi] = base.phi[lo:hi][perm]
    assert_close(alt.phi, expected)


@pytest.mark.parametrize("count", [2, 3])
@cases
@given(seed=seeds, ns=st.tuples(sizes, sizes, sizes))
def test_common_feature_rotation(count, seed, ns):
    # Q keeps every distance, hence each graph, and (X Q)(Y Q)^T = X Y^T
    data = draw(seed, ns[:count])
    Q = random_orthogonal(D, Rng(seed).spawn("rotation"))
    base = quiet(multi_alignment, data, PARAMS)
    alt = quiet(multi_alignment, [X @ Q for X in data], PARAMS)
    for key, T in base.maps.items():
        assert_close(alt.maps[key], T)
    assert_close(alt.phi, base.phi)


def test_row_permutation_on_the_lanczos_route_of_an_own_mapping():
    # N > d at a truncated rank, where the maps are unique: rank 100 of 2100
    # points takes the Lanczos route (8 * rank < N), on a graph of at least
    # 32 MiB that lives in its own mapping (the sweep protocol's draw 11)
    n, params = 2100, AlignmentParams(rank=100)
    assert graph._own_mapping(n) and not spectral._plan(n, params.rank)[1]
    rng = Rng(11)
    sampler = ManifoldSampler(rng.spawn("src"))
    X, _ = sampler.draw(n, rng.spawn("x"))
    Y, _ = sampler.draw(n, rng.spawn("y"))
    Y = Y @ partial_corruption(random_orthogonal(100, rng.spawn("o")), 35.0, rng.spawn("c"))
    perm = rng.spawn("perm").generator.permutation(n)
    base = quiet(harmonic_alignment, X, Y, params).phi
    alt = quiet(harmonic_alignment, X[perm], Y, params).phi
    expected = np.vstack([base[:n][perm], base[n:]])
    assert np.abs(alt - expected).max() <= TOL * np.abs(base).max()
