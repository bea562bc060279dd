"""End-to-end acceptance checks for the alignment pipeline.

Each test pins a behavioral guarantee at a fixed tolerance: window-weight
analytics, orthogonalization accuracy, multi/pairwise agreement, sign
equivariance, corruption recovery, baseline sanity, transfer under size
imbalance, neighborhood recovery from noisy views, truncation speed, and the
default bandwidth at large size.
Experiment-level checks run at fixed seeds so they are exactly reproducible.
"""

from time import perf_counter

import numpy as np
import pytest

from harmalign.align import (
    AlignmentParams,
    PreparedDataset,
    align_prepared,
    harmonic_alignment,
    multi_alignment,
    orthogonalize,
    prepare_dataset,
)
from harmalign.baselines import MnnParams, mnn_correct
from harmalign.core import Rng
from harmalign.evaluation import (
    ExperimentConfig,
    ManifoldSampler,
    corruption_experiment,
    knn_classify,
    neighborhood_overlap,
    partial_corruption,
    random_orthogonal,
    transfer_experiment,
)
from harmalign.filters import itersine_window
from harmalign.spectral import FourierBasis


def _pair_weights(n_bands: int, lam_a: np.ndarray, lam_b: np.ndarray) -> np.ndarray:
    """Elementwise band weight sum_xi w_xi(lam_a) * w_xi(lam_b)."""
    total = np.zeros_like(lam_a)
    for xi in range(n_bands + 1):
        total += itersine_window(lam_a, xi, n_bands) * itersine_window(lam_b, xi, n_bands)
    return total


class TestBandWeightGuarantees:
    """Analytic properties of the bandlimiting weights, all window counts."""

    def test_weight_analytics(self):
        start = perf_counter()
        for n_bands in (2, 4, 8, 64):
            gen = Rng(1000 + n_bands).generator
            lam_a = gen.uniform(0.0, 1.0, 10_000)
            lam_b = gen.uniform(0.0, 1.0, 10_000)

            # equal eigenvalues always get weight one
            equal = _pair_weights(n_bands, lam_a, lam_a)
            assert np.abs(equal - 1.0).max() <= 1e-12

            # eigenvalues at least two band widths apart get exactly zero
            w = _pair_weights(n_bands, lam_a, lam_b)
            far = np.abs(lam_a - lam_b) >= 2.0 / n_bands
            assert np.all(w[far] == 0.0)
            slack = 1.0 - 2.0 / n_bands
            a_far = gen.uniform(0.0, 1.0, 10_000) * slack
            b_far = a_far + 2.0 / n_bands + gen.uniform(0.0, 1.0, 10_000) * (
                slack - a_far
            )
            assert np.all(_pair_weights(n_bands, a_far, b_far) == 0.0)

            # the weight is Lipschitz with slope at most pi^2 * n_bands / 2
            h = 1e-5
            deriv = (
                _pair_weights(n_bands, lam_a + h, lam_b)
                - _pair_weights(n_bands, lam_a - h, lam_b)
            ) / (2 * h)
            assert np.abs(deriv).max() <= np.pi**2 * n_bands / 2 + 1e-3

            # squared windows tile the unit interval
            grid = np.linspace(0.0, 1.0, 10_000)
            total = np.zeros_like(grid)
            for xi in range(n_bands + 1):
                total += itersine_window(grid, xi, n_bands) ** 2
            assert np.abs(total - 1.0).max() <= 1e-12
        assert perf_counter() - start < 10.0


class TestOrthogonalizationGuarantees:
    def test_output_is_orthogonal(self):
        start = perf_counter()
        gen = Rng(2000).generator
        for _ in range(100):
            n = int(gen.integers(2, 501))
            T = orthogonalize(gen.standard_normal((n, n)))
            assert np.abs(T.T @ T - np.eye(n)).max() <= 1e-8
        assert perf_counter() - start < 60.0

    def test_recovers_rotation_from_rotation_times_spd(self):
        start = perf_counter()
        rng = Rng(2001)
        gen = rng.generator
        for trial in range(100):
            n = int(gen.integers(2, 501))
            R = random_orthogonal(n, rng.spawn("rotation", trial))
            Q = random_orthogonal(n, rng.spawn("spd-basis", trial))
            S = (Q * gen.uniform(0.5, 2.0, n)) @ Q.T
            T = orthogonalize(R @ S)
            assert np.abs(T - R).max() <= 1e-8
        assert perf_counter() - start < 60.0


class TestMultiPairwiseAgreement:
    def test_two_dataset_multi_matches_pairwise(self):
        params = AlignmentParams(knn=10)
        for seed in range(10):
            gen = Rng(3000 + seed).generator
            X = gen.standard_normal((300, 100))
            Y = X + 0.2 * gen.standard_normal((300, 100))
            pair = harmonic_alignment(X, Y, params)
            multi = multi_alignment([X, Y], params)
            assert multi.phi.shape == pair.phi.shape
            assert np.abs(multi.phi - pair.phi).max() <= 1e-10


class TestSignEquivariance:
    def test_flipped_harmonics_leave_embedding_unchanged(self):
        params = AlignmentParams(knn=10)
        gen = Rng(4000).generator
        X = gen.standard_normal((300, 100))
        Y = X + 0.2 * gen.standard_normal((300, 100))
        px, py = prepare_dataset(X, params), prepare_dataset(Y, params)
        base = align_prepared(px, py, params)
        cols = Rng(4001).generator.choice(px.basis.psi.shape[1], 5, replace=False)
        flip = np.ones(px.basis.psi.shape[1])
        flip[cols] = -1.0
        flipped = PreparedDataset(
            data=px.data,
            basis=FourierBasis(
                psi=px.basis.psi * flip, lam=px.basis.lam, degrees=px.basis.degrees
            ),
        )
        alt = align_prepared(flipped, py, params)
        assert np.abs(base.phi - alt.phi).max() <= 1e-8


class TestCorruptionRecovery:
    def test_recovery_across_preservation_levels(self):
        start = perf_counter()
        cfg = ExperimentConfig(
            n1=1000,
            n2=1000,
            dim=100,
            trials=3,
            seed=42,
            methods=("none", "harmonic"),
            preserved_sweep=(0, 35, 100),
        )
        report = corruption_experiment(cfg)
        agg = report.aggregates

        # strong recovery at partial feature preservation
        assert agg["harmonic@p35"] - agg["none@p35"] >= 0.20
        # chance-level accuracy with no preserved features
        assert 0.05 <= agg["harmonic@p0"] <= 0.15
        # no damage when nothing is corrupted
        assert abs(agg["harmonic@p100"] - agg["none@p100"]) <= 0.10
        assert perf_counter() - start < 600.0


class TestMnnBaselineSanity:
    def test_identical_datasets_zero_correction(self):
        X = Rng(5000).generator.standard_normal((40, 6))
        corrected = mnn_correct(X, X.copy(), MnnParams(k=1))
        assert np.linalg.norm(corrected - X, axis=1).mean() <= 1e-8

    def test_constant_shift_recovery(self):
        gen = Rng(2).generator
        a = 0.3 * gen.standard_normal((30, 5))
        b = 0.3 * gen.standard_normal((30, 5))
        b[:, 0] += 40.0
        X = np.vstack([a, b])
        c = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
        corrected = mnn_correct(X, X + c, MnnParams(k=29))
        errors = np.linalg.norm(corrected - X, axis=1)
        assert np.all(errors <= 0.1 * np.linalg.norm(c))


class TestTransferUnderSizeImbalance:
    def test_accuracy_holds_as_test_set_grows(self):
        start = perf_counter()
        cfg = ExperimentConfig(
            n1=500,
            n2=500,
            trials=3,
            seed=42,
            methods=("none", "harmonic"),
            ratios=(1, 2, 4),
            preserved_pct=35.0,
        )
        report = transfer_experiment(cfg)
        agg = report.aggregates
        assert agg["harmonic@ratio4"] >= agg["harmonic@ratio1"] - 0.05
        for ratio in (2, 4):
            assert abs(agg[f"none@ratio{ratio}"] - agg["none@ratio1"]) <= 0.05
        assert perf_counter() - start < 900.0


class TestDefaultsAtLargeSize:
    def test_default_bandwidth_holds_at_3500_points(self):
        # a fixed knn = 20 narrows the kernel as N grows (0.651 here before
        # the neighborhood fraction's floor of 0.02)
        N, accs = 3500, []
        for s in (11, 12):
            rng = Rng(s)
            sampler = ManifoldSampler(rng.spawn("src"))
            X, xl = sampler.draw(N, rng.spawn("x"))
            Y, yl = sampler.draw(N, rng.spawn("y"))
            Op = partial_corruption(random_orthogonal(100, rng.spawn("o")), 35.0, rng.spawn("c"))
            start = perf_counter()
            phi = harmonic_alignment(X, Y @ Op).phi
            _, acc = knn_classify(phi[:N], xl, phi[N:], 5, yl)
            assert perf_counter() - start < 20.0
            accs.append(acc)
        assert np.mean(accs) >= 0.85


class TestNeighborhoodRecovery:
    def test_alignment_recovers_neighbors_of_noisy_views(self):
        # two views of the same points: each view is rotated and hit with
        # independent sparse spike noise, which scrambles raw neighborhoods
        # but leaves the smooth low-frequency structure recoverable
        N, d, k = 1000, 100, 10
        rng = Rng(42)
        sampler = ManifoldSampler(rng.spawn("src"))
        Z, _ = sampler.draw(N, rng.spawn("draw"))

        def spikes(gen, mag=11.0, per_point=2):
            E = np.zeros((N, d))
            for i in range(N):
                idx = gen.choice(d, per_point, replace=False)
                E[i, idx] = mag * gen.choice([-1.0, 1.0], per_point)
            return E

        gen = rng.spawn("noise").generator
        X = Z @ random_orthogonal(d, rng.spawn("o1")) + spikes(gen)
        Y = Z @ random_orthogonal(d, rng.spawn("o2")) + spikes(gen)

        baseline = k / (N - 1)
        before = neighborhood_overlap(X, Y, k)
        assert before <= 3 * baseline

        result = harmonic_alignment(X, Y, AlignmentParams(knn=20, rank=20))
        after = neighborhood_overlap(result.phi[:N], result.phi[N:], k)
        assert after >= 10 * baseline


class TestTruncationPerformance:
    def test_truncated_pipeline_is_fast_and_accurate(self):
        N, d = 2000, 100
        rng = Rng(42)
        sampler = ManifoldSampler(rng.spawn("src"))
        X, xl = sampler.draw(N, rng.spawn("x"))
        Y, yl = sampler.draw(N, rng.spawn("y"))
        Op = partial_corruption(
            random_orthogonal(d, rng.spawn("o")), 35.0, rng.spawn("cols")
        )
        Yc = Y @ Op

        results = {}
        for label, rank in (("truncated", 100), ("full", N - 1)):
            t0 = perf_counter()
            res = harmonic_alignment(X, Yc, AlignmentParams(rank=rank))
            seconds = perf_counter() - t0
            _, acc = knn_classify(res.phi[:N], xl, res.phi[N:], 5, yl)
            results[label] = (seconds, acc)

        assert results["truncated"][0] < 0.5 * results["full"][0]
        assert abs(results["truncated"][1] - results["full"][1]) <= 0.05
