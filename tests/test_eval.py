from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from harmalign import graph
from harmalign.align import AlignmentParams, harmonic_alignment
from harmalign.core import Rng
from harmalign.evaluation import (
    ClusterSampler,
    ExperimentConfig,
    ManifoldSampler,
    class_average_reconstruction,
    corruption_experiment,
    knn_classify,
    neighborhood_overlap,
    partial_corruption,
    random_orthogonal,
    sweep_csv,
    transfer_experiment,
)
from harmalign.graph import _CHUNK, nearest


class TestRandomOrthogonal:
    def test_orthonormal(self):
        for d in (1, 5, 50):
            Q = random_orthogonal(d, Rng(0))
            assert np.abs(Q.T @ Q - np.eye(d)).max() <= 1e-10

    def test_unit_determinant(self):
        Q = random_orthogonal(20, Rng(1))
        assert abs(np.linalg.det(Q)) == pytest.approx(1.0, abs=1e-8)

    def test_deterministic(self):
        assert np.array_equal(random_orthogonal(10, Rng(2)), random_orthogonal(10, Rng(2)))


class TestPartialCorruption:
    def test_full_preservation_is_identity(self):
        O0 = random_orthogonal(10, Rng(3))
        assert np.array_equal(partial_corruption(O0, 100, Rng(4)), np.eye(10))

    def test_zero_preservation_unchanged(self):
        O0 = random_orthogonal(10, Rng(5))
        assert np.array_equal(partial_corruption(O0, 0, Rng(6)), O0)

    def test_column_count(self):
        O0 = random_orthogonal(4, Rng(7))
        Op = partial_corruption(O0, 50, Rng(8))
        identity_cols = sum(
            np.array_equal(Op[:, j], np.eye(4)[:, j]) for j in range(4)
        )
        assert identity_cols == 2

    def test_preserved_columns_pass_through(self):
        O0 = random_orthogonal(20, Rng(9))
        Op = partial_corruption(O0, 35, Rng(10))
        Y = Rng(11).generator.standard_normal((15, 20))
        out = Y @ Op
        preserved = [j for j in range(20) if np.array_equal(Op[:, j], np.eye(20)[:, j])]
        assert len(preserved) == 7
        for j in preserved:
            assert np.array_equal(out[:, j], Y[:, j])


class TestKnnClassify:
    def test_self_classification_k1(self):
        X = Rng(16).generator.standard_normal((30, 4))
        labels = np.arange(30) % 3
        pred, acc = knn_classify(X, labels, X, 1, labels)
        assert acc == 1.0

    def test_random_labels_chance_level(self):
        gen = Rng(17).generator
        train = gen.standard_normal((2000, 5))
        labels = gen.integers(0, 10, 2000)
        test = gen.standard_normal((2000, 5))
        test_labels = gen.integers(0, 10, 2000)
        _, acc = knn_classify(train, labels, test, 5, test_labels)
        assert abs(acc - 0.10) <= 0.03

    def test_k_equals_n_gives_majority(self):
        gen = Rng(18).generator
        train = gen.standard_normal((20, 3))
        labels = np.array([1] * 12 + [2] * 8)
        pred, _ = knn_classify(train, labels, gen.standard_normal((5, 3)), 20)
        assert np.all(pred == 1)

    def test_tie_broken_by_nearer_distance(self):
        train = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        pred, _ = knn_classify(train, labels, np.array([[2.0]]), 4)
        assert pred[0] == 0  # 2-2 vote, class 0 nearer in total

    def test_tie_broken_by_lower_label(self):
        train = np.array([[-1.0], [1.0]])
        labels = np.array([5, 3])
        pred, _ = knn_classify(train, labels, np.array([[0.0]]), 2)
        assert pred[0] == 3

    def test_orthogonal_invariance(self):
        gen = Rng(19).generator
        train = gen.standard_normal((50, 6))
        labels = gen.integers(0, 3, 50)
        test = gen.standard_normal((20, 6))
        Q = random_orthogonal(6, Rng(20))
        p1, _ = knn_classify(train, labels, test, 5)
        p2, _ = knn_classify(train @ Q, labels, test @ Q, 5)
        assert np.array_equal(p1, p2)

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="N_train"):
            knn_classify(np.zeros((3, 2)), [0, 1, 2], np.zeros((1, 2)), 4)


def _point_sets(name, seed):
    """(train, test) of 300 and 1100 rows: 1100 is not a multiple of _CHUNK."""
    gen = Rng(seed).generator
    if name == "gaussian":
        return gen.standard_normal((300, 7)), gen.standard_normal((1100, 7))
    if name == "grid":  # integer points: most distances tie
        return (gen.integers(0, 4, (300, 2)).astype(float),
                gen.integers(0, 4, (1100, 2)).astype(float))
    if name == "duplicates":  # every reference row twice: ties the screen keeps
        train = gen.standard_normal((150, 5))
        return np.repeat(train, 2, axis=0)[gen.permutation(300)], gen.standard_normal((1100, 5))
    if name == "tiny":  # products underflow: the margin's subnormal term
        return 1e-160 * gen.standard_normal((300, 6)), 1e-160 * gen.standard_normal((1100, 6))
    # a 1e4 offset: the screen's margin grows with the squared norms
    offset = np.full(4, 1e4)
    return offset + gen.standard_normal((300, 4)), offset + gen.standard_normal((1100, 4))


class TestNearest:
    @pytest.mark.parametrize("name", ["gaussian", "grid", "duplicates", "tiny", "offset"])
    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_equals_full_cdist_sorted_by_distance_then_index(self, name, k):
        train, test = _point_sets(name, 50 + k)
        assert test.shape[0] % _CHUNK != 0
        full = cdist(test, train)
        want = np.argsort(full, axis=1, kind="stable")[:, :k]
        idx, dist = nearest(test, train, k)
        assert np.array_equal(idx, want)
        assert np.array_equal(dist, np.take_along_axis(full, want, axis=1))

    def test_screen_scores_only_candidates_on_separable_data(self, monkeypatch):
        train, test = _point_sets("gaussian", 56)
        rows = []

        def counting_cdist(a, b):
            rows.append(a.shape[0])
            return cdist(a, b)

        monkeypatch.setattr(graph, "cdist", counting_cdist)
        nearest(test, train, 5)
        assert rows == [1] * test.shape[0]  # one query row per call, never a full block

    @pytest.mark.parametrize("where", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_rejects_non_finite_or_overflowing_values(self, where, bad):
        train, test = _point_sets("gaussian", 58)
        (train if where == "train" else test)[7, 1] = bad
        labels = np.arange(300) % 3
        for call in (
            lambda: nearest(test, train, 5),
            lambda: knn_classify(train, labels, test, 5),
            lambda: neighborhood_overlap(train if where == "train" else test[:300],
                                         np.zeros((300, 7)), 5),
        ):
            with pytest.raises(ValueError, match="finite values"):
                call()

    def test_cdist_scores_each_pair_apart_from_the_other_rows(self):
        # the re-scoring relies on it: one row against a subset of columns
        # gives the full cdist's values bit for bit
        gen = Rng(57).generator
        for width in (1, 2, 3, 7, 100, 2497):
            a = gen.standard_normal((9, width))
            b = gen.standard_normal((40, width)) + 3.0
            full = cdist(a, b)
            for r in range(a.shape[0]):
                cols = gen.permutation(40)[: gen.integers(1, 41)]
                assert np.array_equal(cdist(a[r : r + 1], b[cols])[0], full[r, cols])


def _loop_knn(train, labels, test, k):
    """Per-row reference: the k nearest by (distance, index); majority vote,
    ties broken by the smaller summed distance, then by the lower label."""
    dist = cdist(test, train)
    neighbors, pred = [], []
    for row in dist:
        idx = np.lexsort((np.arange(row.size), row))[:k]
        labels_k, dist_k = labels[idx], row[idx]
        candidates = np.unique(labels_k)
        counts = np.array([(labels_k == c).sum() for c in candidates])
        winners = candidates[counts == counts.max()]
        totals = np.array([dist_k[labels_k == c].sum() for c in winners])
        neighbors.append(idx)
        pred.append(int(winners[totals == totals.min()].min()))
    return np.array(neighbors), np.array(pred)


class TestVectorizedVote:
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 7])
    def test_matches_per_row_loop_on_tied_grid(self, k):
        # integer grid points: many equal distances, count ties and total ties
        gen = Rng(40 + k).generator
        train = gen.integers(0, 4, (700, 2)).astype(float)
        test = gen.integers(0, 4, (1100, 2)).astype(float)
        labels = gen.choice([11, 3, 7], 700)
        idx, expected = _loop_knn(train, labels, test, k)
        pred, _ = knn_classify(train, labels, test, k)
        assert np.array_equal(pred, expected)
        data = gen.standard_normal((700, 3))
        recon = class_average_reconstruction(test, train, data, labels, k)
        member = labels[idx] == expected[:, None]
        want = np.array([data[i[m]].mean(axis=0) for i, m in zip(idx, member)])
        np.testing.assert_allclose(recon, want, rtol=1e-13, atol=1e-15)

    def test_overlap_matches_per_row_intersection(self):
        gen = Rng(47).generator
        a = gen.integers(0, 5, (600, 2)).astype(float)
        b = a + gen.standard_normal(a.shape)
        da, db = cdist(a, a), cdist(b, b)
        np.fill_diagonal(da, np.inf)
        np.fill_diagonal(db, np.inf)
        na = np.argsort(da, axis=1, kind="stable")[:, :6]  # by (distance, index)
        nb = np.argsort(db, axis=1, kind="stable")[:, :6]
        expected = sum(np.intersect1d(x, y).size for x, y in zip(na, nb)) / (600 * 6)
        assert neighborhood_overlap(a, b, 6) == expected


class TestNeighborhoodOverlap:
    def test_identical_embeddings(self):
        X = Rng(21).generator.standard_normal((50, 4))
        assert neighborhood_overlap(X, X, 5) == 1.0

    def test_random_embeddings_near_baseline(self):
        gen = Rng(22).generator
        a = gen.standard_normal((200, 10))
        b = gen.standard_normal((200, 10))
        overlap = neighborhood_overlap(a, b, 10)
        baseline = 10 / 199
        assert abs(overlap - baseline) <= 3 * baseline

    def test_joint_permutation_invariance(self):
        gen = Rng(23).generator
        a = gen.standard_normal((40, 3))
        b = gen.standard_normal((40, 3))
        perm = gen.permutation(40)
        assert neighborhood_overlap(a[perm], b[perm], 5) == pytest.approx(
            neighborhood_overlap(a, b, 5), abs=1e-12
        )

    def test_k_too_large(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="k < N"):
            neighborhood_overlap(X, X, 5)


class TestClassAverageReconstruction:
    def test_k1_returns_nearest_row(self):
        gen = Rng(24).generator
        train = gen.standard_normal((20, 6))
        labels = gen.integers(0, 3, 20)
        recon = class_average_reconstruction(train, train, train, labels, 1)
        assert np.array_equal(recon, train)

    def test_single_class_neighborhood_plain_mean(self):
        train_aligned = np.arange(10, dtype=float)[:, None]
        train_data = np.arange(10, dtype=float)[:, None] * 2
        labels = np.zeros(10, dtype=int)
        recon = class_average_reconstruction(
            np.array([[0.5]]), train_aligned, train_data, labels, 4
        )
        # neighbors of 0.5 are rows 0..3 -> mean of their raw features
        assert recon[0, 0] == pytest.approx(np.mean([0, 2, 4, 6]))

    def test_aligned_reconstruction_beats_unaligned(self):
        # corrupted pair at 25% preserved columns: reconstructions from the
        # aligned embedding must correlate with ground truth far better than
        # reconstructions from raw corrupted coordinates
        rng = Rng(25)
        sampler = ManifoldSampler(rng.spawn("source"))
        X, xl = sampler.draw(600, rng.spawn("x"))
        Y, yl = sampler.draw(600, rng.spawn("y"))
        O0 = random_orthogonal(100, rng.spawn("o"))
        Op = partial_corruption(O0, 25, rng.spawn("p"))
        Yc = Y @ Op
        result = harmonic_alignment(X, Yc, AlignmentParams())
        recon_aligned = class_average_reconstruction(
            result.phi[600:], result.phi[:600], X, xl, 10
        )
        recon_raw = class_average_reconstruction(Yc, X, X, xl, 10)

        # correlate the informative part: the constant offset shared by every
        # row would otherwise inflate both correlations equally
        off = sampler.offset

        def mean_row_corr(recon):
            corrs = [
                np.corrcoef(recon[i] - off, Y[i] - off)[0, 1]
                for i in range(recon.shape[0])
            ]
            return float(np.mean(corrs))

        assert mean_row_corr(recon_aligned) >= mean_row_corr(recon_raw) + 0.2


class TestExperiments:
    def small_config(self, **kw):
        defaults = dict(
            source="synthetic-manifold",
            n1=120,
            n2=120,
            dim=30,
            trials=2,
            methods=("none",),
            preserved_sweep=(100,),
            align_params=AlignmentParams(knn=10),
            seed=5,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_none_at_full_preservation_matches_direct_knn(self):
        cfg = self.small_config(trials=1)
        report = corruption_experiment(cfg)
        acc = report.aggregates["none@p100"]
        # replay the experiment's own draws
        root = Rng(cfg.seed)
        rng = root.spawn("corruption", 100.0, 0)
        sampler = ManifoldSampler(rng.spawn("source"), classes=10, dim=30)
        X, xl = sampler.draw(120, rng.spawn("draw-x"))
        Y, yl = sampler.draw(120, rng.spawn("draw-y"))
        _, direct = knn_classify(X, xl, Y, 5, yl)
        assert acc == pytest.approx(direct, abs=1e-12)

    def test_trial_rows_present(self):
        cfg = self.small_config(trials=3, methods=("none", "mnn"))
        report = corruption_experiment(cfg)
        for method in ("none", "mnn"):
            rows = [r for r in report.trials if r["method"] == method]
            assert len(rows) == 3

    def test_reproducible(self):
        cfg = self.small_config()
        r1 = corruption_experiment(cfg)
        r2 = corruption_experiment(cfg)
        a1 = [row["accuracy"] for row in r1.trials]
        a2 = [row["accuracy"] for row in r2.trials]
        assert a1 == a2
        assert sweep_csv(r1).splitlines()[0] == "p,method,trial,accuracy"

    def test_transfer_ratio_one_matches_corruption_protocol(self):
        cfg = self.small_config(ratios=(1, 2), trials=1, preserved_pct=100.0)
        report = transfer_experiment(cfg)
        rows = [r for r in report.trials if r["ratio"] == 1]
        assert len(rows) == 1
        assert 0.0 <= rows[0]["accuracy"] <= 1.0
        assert "none@ratio2" in report.aggregates

    def test_transfer_prepared_reference_matches_pairwise_alignment(self):
        # the reference is prepared once per trial; every ratio must still
        # give exactly what a fresh harmonic_alignment of the pair gives
        cfg = self.small_config(n1=60, ratios=(1, 2), methods=("harmonic",),
                                align_params=AlignmentParams(), preserved_pct=35.0)
        report = transfer_experiment(cfg)
        params = replace(cfg.align_params, knn_fraction=20 / 60, normalize_scale=True)
        for trial in range(cfg.trials):
            rng = Rng(cfg.seed).spawn("transfer", trial)
            sampler = ManifoldSampler(rng.spawn("source"), classes=10, dim=30)
            X, xl = sampler.draw(60, rng.spawn("draw-x"))
            O0 = random_orthogonal(30, rng.spawn("orthogonal"))
            Op = partial_corruption(O0, 35.0, rng.spawn("columns"))
            for ratio in cfg.ratios:
                Y, yl = sampler.draw(60 * ratio, rng.spawn("draw-y", ratio))
                phi = harmonic_alignment(X, Y @ Op, params).phi
                _, acc = knn_classify(phi[:60], xl, phi[60:], 5, yl)
                [row] = [r for r in report.trials if (r["trial"], r["ratio"]) == (trial, ratio)]
                assert row["accuracy"] == acc
        for ratio in cfg.ratios:
            accs = [r["accuracy"] for r in report.trials if r["ratio"] == ratio]
            assert report.aggregates[f"harmonic@ratio{ratio}"] == float(np.mean(accs))

    def test_cluster_source(self):
        cfg = self.small_config(source="synthetic-clusters", trials=1)
        report = corruption_experiment(cfg)
        assert report.aggregates["none@p100"] >= 0.9

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            self.small_config(methods=("magic",))


class TestSamplers:
    def test_manifold_labels_cover_classes(self):
        sampler = ManifoldSampler(Rng(26), classes=10, dim=50)
        X, labels = sampler.draw(500, Rng(27))
        assert X.shape == (500, 50)
        assert len(np.unique(labels)) >= 8

    def test_manifold_internal_geometry_survives_corruption(self):
        # corrupting the feature basis must not disturb within-dataset distances
        sampler = ManifoldSampler(Rng(28))
        X, _ = sampler.draw(100, Rng(29))
        O = random_orthogonal(100, Rng(30))
        before = cdist(X, X)
        after = cdist(X @ O, X @ O)
        assert np.abs(before - after).max() <= 1e-8

    def test_cluster_sampler_shared_means(self):
        sampler = ClusterSampler(Rng(31), classes=5, dim=20, spread=0.1)
        X1, l1 = sampler.draw(100, Rng(32))
        X2, l2 = sampler.draw(100, Rng(33))
        _, acc = knn_classify(X1, l1, X2, 5, l2)
        assert acc >= 0.95
