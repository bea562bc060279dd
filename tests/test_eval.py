import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from harmalign import core, evaluation, graph
from harmalign.align import AlignmentParams, harmonic_alignment
from harmalign.baselines import MnnParams
from harmalign.core import Rng, load_matrix
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
from harmalign.graph import _BLOCK_ROWS, nearest
from harmalign.spectral import nxn_bytes


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

    @pytest.mark.parametrize("train_labels, test_labels, message", [
        (100, 1, "test_labels has length 1, but test has 20 rows"),  # broadcast
        (100, 25, "test_labels has length 25, but test has 20 rows"),
        (100, 15, "test_labels has length 15, but test has 20 rows"),
        (150, 20, "train_labels has length 150, but train has 100 rows"),
        (60, 20, "train_labels has length 60, but train has 100 rows"),
    ])
    def test_label_lengths_must_match_the_rows(self, train_labels, test_labels, message):
        gen = Rng(21).generator
        train, test = gen.standard_normal((100, 3)), gen.standard_normal((20, 3))
        with pytest.raises(ValueError, match=f"^{message}$"):
            knn_classify(train, gen.integers(0, 3, train_labels), test, 5,
                         gen.integers(0, 3, test_labels))


def _point_sets(name, seed):
    """(train, test) of 300 and 1100 rows: 1100 is not a multiple of _BLOCK_ROWS."""
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
        assert test.shape[0] % _BLOCK_ROWS != 0
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

    @pytest.mark.parametrize("n_test, n_train", [(300, 300), (100, 300), (300, 80)])
    def test_nearest_bytes_bound_a_query(self, n_test, n_train):
        gen = Rng(59).generator
        train = gen.standard_normal((n_train, 100))
        test = train[gen.integers(0, n_train, n_test)] + 0.01 * gen.standard_normal((n_test, 100))
        tracemalloc.start()
        try:
            nearest(test, train, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's temporaries are the screening GEMM's block, its partitioned
        # copy and the candidate mask; the norms, the result and a row's
        # candidates take a few kB beside them
        block = min(_BLOCK_ROWS, n_test) * n_train * 17
        assert 0.9 * block <= peak <= block + 2**14

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


class TestBlockSize:
    def test_ragged_blocks_match_the_default_block(self, monkeypatch):
        # every blocked pass is exact per row: 7-row blocks, the last one
        # partial, give what one default block per 256 rows gives
        gen = Rng(48).generator
        train = gen.integers(0, 4, (300, 2)).astype(float)  # ties in every row
        test = gen.standard_normal((1100, 2)) * 2.0
        labels = gen.choice([11, 3, 7], 300)
        b = train + gen.standard_normal(train.shape)

        def results():
            return (nearest(test, train, 5), knn_classify(train, labels, test, 5),
                    neighborhood_overlap(train, b, 6))

        (idx, dist), (pred, _), overlap = results()
        monkeypatch.setattr(graph, "_BLOCK_ROWS", 7)
        assert test.shape[0] % 7 != 0 and train.shape[0] % 7 != 0
        (idx7, dist7), (pred7, _), overlap7 = results()
        assert np.array_equal(idx7, idx) and np.array_equal(dist7, dist)
        assert np.array_equal(pred7, pred)
        assert overlap7 == overlap


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

    @pytest.mark.parametrize("labels", [5, 15])
    def test_label_length_must_match_the_rows(self, labels):
        train = np.arange(10, dtype=float)[:, None]
        message = f"^train_labels has length {labels}, but train_aligned has 10 rows$"
        with pytest.raises(ValueError, match=message):
            class_average_reconstruction(train[:3], train, train, np.zeros(labels, int), 4)

    @pytest.mark.parametrize("rows", [5, 20])
    def test_data_rows_must_match_the_aligned_rows(self, rows):
        train = np.arange(10, dtype=float)[:, None]
        data = np.arange(rows, dtype=float)[:, None]
        message = f"^train_data has {rows} rows, but train_aligned has 10 rows$"
        with pytest.raises(ValueError, match=message):
            class_average_reconstruction(train[:3], train, data, np.zeros(10, int), 4)

    def test_embedding_widths_must_match(self):
        train = np.arange(20, dtype=float).reshape(10, 2)
        with pytest.raises(ValueError, match="^embedding widths differ: 2 vs 1$"):
            class_average_reconstruction(train[:3, :1], train, train, np.zeros(10, int), 4)

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
        # give exactly what a fresh harmonic_alignment of the pair gives,
        # with the parameters as given
        cfg = self.small_config(n1=60, ratios=(1, 2), methods=("harmonic",),
                                align_params=AlignmentParams(), preserved_pct=35.0)
        report = transfer_experiment(cfg)
        for trial in range(cfg.trials):
            rng = Rng(cfg.seed).spawn("transfer", trial)
            sampler = ManifoldSampler(rng.spawn("source"), classes=10, dim=30)
            X, xl = sampler.draw(60, rng.spawn("draw-x"))
            O0 = random_orthogonal(30, rng.spawn("orthogonal"))
            Op = partial_corruption(O0, 35.0, rng.spawn("columns"))
            for ratio in cfg.ratios:
                Y, yl = sampler.draw(60 * ratio, rng.spawn("draw-y", ratio))
                phi = harmonic_alignment(X, Y @ Op, cfg.align_params).phi
                _, acc = knn_classify(phi[:60], xl, phi[60:], 5, yl)
                [row] = [r for r in report.trials if (r["trial"], r["ratio"]) == (trial, ratio)]
                assert row["accuracy"] == acc
        for ratio in cfg.ratios:
            accs = [r["accuracy"] for r in report.trials if r["ratio"] == ratio]
            assert report.aggregates[f"harmonic@ratio{ratio}"] == float(np.mean(accs))

    @pytest.mark.parametrize("n1, n2", [(60, 90), (90, 60)])
    def test_corruption_arm_matches_pairwise_alignment(self, n1, n2):
        # unequal sizes: the driver aligns each pair as harmonic_alignment does
        cfg = self.small_config(n1=n1, n2=n2, trials=1, methods=("harmonic",),
                                align_params=AlignmentParams(), preserved_sweep=(35,))
        [row] = corruption_experiment(cfg).trials
        rng = Rng(cfg.seed).spawn("corruption", 35.0, 0)
        sampler = ManifoldSampler(rng.spawn("source"), classes=10, dim=30)
        X, xl = sampler.draw(n1, rng.spawn("draw-x"))
        Y, yl = sampler.draw(n2, rng.spawn("draw-y"))
        Op = partial_corruption(random_orthogonal(30, rng.spawn("orthogonal")), 35.0,
                                rng.spawn("columns"))
        phi = harmonic_alignment(X, Y @ Op, cfg.align_params).phi
        _, acc = knn_classify(phi[:n1], xl, phi[n1:], 5, yl)
        assert row["accuracy"] == acc

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least the reference's size"):
            self.small_config(ratios=(1, 0))

    def test_cluster_source(self):
        cfg = self.small_config(source="synthetic-clusters", trials=1)
        report = corruption_experiment(cfg)
        assert report.aggregates["none@p100"] >= 0.9

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            self.small_config(methods=("magic",))

    def test_knn_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="knn_k must be >= 1"):
            self.small_config(knn_k=0)

    @pytest.mark.parametrize("pct", [-5.0, 100.5])
    def test_preserved_pct_outside_percent_range_rejected(self, pct):
        with pytest.raises(ValueError, match=r"preserved_pct must be in \[0, 100\]"):
            self.small_config(preserved_pct=pct)

    @pytest.mark.parametrize("sweep", [(0, 50, 101), (-1, 50)])
    def test_preserved_sweep_outside_percent_range_rejected(self, sweep):
        with pytest.raises(ValueError, match=r"preserved_sweep values must be in \[0, 100\]"):
            self.small_config(preserved_sweep=sweep)

    @pytest.mark.parametrize("name, value, message", [
        ("preserved_sweep", (), "preserved_sweep must be non-empty"),
        ("ratios", (), "ratios must be non-empty"),
        ("knn_k", 121, "knn_k must be >= 1 and at most n1=120, got 121"),
        ("n2", 0, "n2 must be >= 1, got 0"),
        ("classes", 0, "classes must be >= 1, got 0"),
        ("dim", 0, "dim must be >= 1, got 0"),
    ], ids=["preserved_sweep", "ratios", "knn_k", "n2", "classes", "dim"])
    def test_protocol_that_cannot_run_rejected(self, name, value, message):
        # each would otherwise run no arm or fail inside the first one
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.small_config(**{name: value})


def _write_csv(path, n, labeled=True, seed=40):
    gen = Rng(seed).generator
    values = gen.standard_normal((n, 5)) + 3.0 * (np.arange(n) % 2)[:, None]
    header = ",".join([f"f{j}" for j in range(5)] + (["label"] if labeled else []))
    rows = [",".join([f"{v:.17g}" for v in row] + ([str(i % 2)] if labeled else []))
            for i, row in enumerate(values)]
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


class TestFileSource:
    def config(self, path):
        return ExperimentConfig(source=path, n1=20, n2=20, trials=2, methods=("none",),
                                preserved_sweep=(50, 100), ratios=(1, 2), seed=7)

    def test_both_drivers_load_the_file_once(self, tmp_path, monkeypatch):
        path = _write_csv(tmp_path / "labeled.csv", 80)
        loads = []
        monkeypatch.setattr(evaluation, "load_matrix",
                            lambda source: loads.append(source) or load_matrix(source))
        cfg = self.config(path)
        corruption = corruption_experiment(cfg)
        assert loads == [path] and len(corruption.trials) == 4
        transfer = transfer_experiment(cfg)
        assert loads == [path, path] and len(transfer.trials) == 4
        # each arm still draws from its own permutation of the rows
        data = load_matrix(path)
        rng = Rng(cfg.seed).spawn("corruption", 100.0, 1)
        order = rng.spawn("source").generator.permutation(80)
        x, y = order[:20], order[20:40]
        _, acc = knn_classify(data.values[x], data.labels[x], data.values[y], 5,
                              data.labels[y])
        [row] = [r for r in corruption.trials if (r["p"], r["trial"]) == (100.0, 1)]
        assert row["accuracy"] == acc

    def test_unlabeled_file_rejected(self, tmp_path):
        cfg = self.config(_write_csv(tmp_path / "unlabeled.csv", 80, labeled=False))
        for run in (corruption_experiment, transfer_experiment):
            with pytest.raises(ValueError, match="experiment data needs a label column"):
                run(cfg)

    def test_exhausted_pool_rejected(self, tmp_path, monkeypatch):
        path = _write_csv(tmp_path / "small.csv", 70)
        arms = []
        monkeypatch.setattr(evaluation, "knn_classify", lambda *a: arms.append(a) or (None, 1.0))
        cfg = self.config(path)  # transfer draws 20 + 20 + 40 rows per trial
        with pytest.raises(ValueError, match="data pool exhausted: each arm draws 80 rows, .*small.csv has 70"):
            transfer_experiment(cfg)
        cfg = dataclasses.replace(cfg, n2=51)  # the sweep draws 20 + 51 per arm
        with pytest.raises(ValueError, match="data pool exhausted: each arm draws 71 rows, .*small.csv has 70"):
            corruption_experiment(cfg)
        assert arms == []  # refused before any arm ran
        assert len(transfer_experiment(dataclasses.replace(cfg, ratios=(1, 1.5))).trials) == 4


def _without_seconds(report):
    """What a report must keep at any worker count: its rows less their
    ``seconds``, its aggregates and its sweep CSV."""
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in report.trials]
    return rows, report.aggregates, sweep_csv(report)


class TestArmWorkers:
    """Arms run in contiguous slices, one per usable CPU, each slice after
    the first in a forked worker; the report does not depend on the count."""

    def config(self, source, **kw):
        defaults = dict(source=source, n1=30, n2=30, dim=10, trials=2,
                        methods=("none", "mnn", "harmonic"), preserved_sweep=(50, 100),
                        ratios=(1, 2), mnn_params=MnnParams(k=5),
                        align_params=AlignmentParams(knn=5), seed=11)
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    @pytest.mark.parametrize("cpus", [2, 3])  # 3: more CPUs than transfer's 2 arms
    @pytest.mark.parametrize("driver", [corruption_experiment, transfer_experiment])
    @pytest.mark.parametrize("source", ["synthetic-manifold", "file"])
    def test_report_equal_at_any_cpu_count(self, tmp_path, monkeypatch, forks, cpus, driver,
                                           source):
        if source == "file":
            source = _write_csv(tmp_path / "labeled.csv", 150)
        cfg = self.config(source)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        serial = driver(cfg)
        assert forks == []
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        forked = driver(cfg)
        arms = 2 * len(cfg.preserved_sweep) if driver is corruption_experiment else 2
        assert len(forks) == min(cpus, arms) - 1
        assert _without_seconds(forked) == _without_seconds(serial)
        assert [row["seconds"] > 0 for row in forked.trials] == [True] * len(serial.trials)

    @pytest.mark.parametrize("fits, trials, forked", [
        (1, 2, 0),     # memory for one arm only
        (2, 2, 1),     # for both
        (None, 2, 1),  # memory unknown: one worker per CPU
        (4, 1, 0),     # one arm
    ])
    def test_workers_limited_by_memory_and_arms(self, monkeypatch, forks, fits, trials, forked):
        cfg = self.config("synthetic-manifold", trials=trials)
        arm = nxn_bytes(cfg.n1 * max(cfg.ratios))  # the largest test set's graph
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(core, "_available_memory",
                            lambda: None if fits is None else (fits + 1) * arm - 1)
        report = transfer_experiment(cfg)
        assert len(forks) == forked
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        assert _without_seconds(report) == _without_seconds(transfer_experiment(cfg))

    @pytest.mark.parametrize("driver", [corruption_experiment, transfer_experiment])
    def test_rank_above_n1_refused_before_any_fork(self, monkeypatch, forks, driver):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        params = AlignmentParams(knn=5, rank=40)
        with pytest.raises(ValueError, match="^rank 40 exceeds the 30 points of the graph$"):
            driver(self.config("synthetic-manifold", align_params=params))
        assert forks == []
        # no graph is built without harmonic, so the rank does not matter
        cfg = self.config("synthetic-manifold", methods=("none",), align_params=params)
        assert len(driver(cfg).trials) == 4

    def sweep(self, monkeypatch, act):
        """A sweep of three one-arm slices whose arm at ``pct`` calls ``act(pct)``."""
        real = evaluation.partial_corruption

        def corrupt(O0, pct, rng):
            act(pct)
            return real(O0, pct, rng)

        monkeypatch.setattr(evaluation, "partial_corruption", corrupt)
        return self.config("synthetic-manifold", trials=1, methods=("none",),
                           preserved_sweep=(0, 50, 100))

    @pytest.mark.parametrize("failing, raised", [
        ((50,), "arm 50.0 failed"),
        ((50, 100), "arm 50.0 failed"),  # the earliest slice's error wins
        ((0, 100), "arm 0.0 failed"),    # this process's slice is the earliest
        ((0, 50, 100), "arm 0.0 failed"),
    ])
    def test_earliest_error_raised_with_its_type(self, monkeypatch, forks, failing, raised):
        def fail(pct):
            if pct in failing:
                raise KeyError(f"arm {pct} failed")

        cfg = self.sweep(monkeypatch, fail)
        for cpus, forked in ((1, 0), (3, 2)):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            with pytest.raises(KeyError, match=raised):
                corruption_experiment(cfg)
            assert len(forks) == forked

    def test_warnings_reissued_in_arm_order(self, monkeypatch, forks):
        cfg = self.sweep(monkeypatch, lambda pct: warnings.warn(f"arm {pct}", UserWarning))
        seen = {}
        for cpus in (1, 3):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                corruption_experiment(cfg)
            seen[cpus] = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        assert [message for message, *_ in seen[3]] == ["arm 0.0", "arm 50.0", "arm 100.0"]
        assert seen[3] == seen[1]
        assert len(forks) == 2
        with pytest.warns(UserWarning) as recorded:
            corruption_experiment(cfg)
        assert [str(w.message) for w in recorded] == ["arm 0.0", "arm 50.0", "arm 100.0"]


class TestBlasThreadBudget:
    """Workers times BLAS threads stay within the usable CPUs: at two BLAS
    threads on two CPUs nothing forks, and the output is a serial run's."""

    SCRIPT = """
import os
from harmalign import core, evaluation
from harmalign.align import AlignmentParams, multi_alignment
from harmalign.core import Rng

def fork():
    forks.append(1)
    return real_fork()

forks, real_fork = [], os.fork
os.fork = fork

def run(cpus):
    core._usable_cpus = lambda: cpus
    cfg = evaluation.ExperimentConfig(n1=30, dim=10, trials=2, methods=("none", "harmonic"),
                                      ratios=(1, 2), align_params=AlignmentParams(knn=5))
    report = evaluation.transfer_experiment(cfg)
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in report.trials]
    sampler = evaluation.ManifoldSampler(Rng(0).spawn("source"), dim=20)
    phi = multi_alignment([sampler.draw(300, Rng(s).spawn("draw"))[0] for s in (1, 2)]).phi
    return rows, report.aggregates, phi

pooled = run(2)
assert forks == [], forks
serial = run(1)
assert pooled[:2] == serial[:2]
assert (pooled[2] == serial[2]).all()
print("equal, no fork")
"""

    def test_two_threads_on_two_cpus_fork_nothing(self):
        src = os.path.dirname(os.path.dirname(core.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "equal, no fork\n"


class TestMethodSizeLimits:
    """A method that cannot run at the protocol's smallest set is refused
    before any arm runs, by the field that sets its limit."""

    def refused(self, monkeypatch, cfg, message):
        calls = []
        monkeypatch.setattr(evaluation, "knn_classify", lambda *a: calls.append(a) or (None, 1.0))
        for run in (corruption_experiment, transfer_experiment):
            with pytest.raises(ValueError, match=message):
                run(cfg)
        assert calls == []

    def config(self, *methods, **kw):
        return ExperimentConfig(n1=20, n2=40, dim=10, trials=1, methods=("none", *methods),
                                preserved_sweep=(50,), ratios=(1, 2), **kw)

    def test_mnn_k_at_least_the_reference_size(self, monkeypatch):
        self.refused(monkeypatch, self.config("mnn"),
                     re.escape("mnn_params.k=20 must be < min(n1, smallest test size)=20"))

    def test_harmonic_knn_at_least_the_reference_size(self, monkeypatch):
        self.refused(monkeypatch, self.config("harmonic"),
                     re.escape("knn=20 (knn_fraction=None) asks for 20 neighbors"))

    def test_smaller_neighbourhoods_run(self):
        cfg = self.config("mnn", "harmonic", mnn_params=MnnParams(k=19),
                          align_params=AlignmentParams(knn=19))
        assert len(corruption_experiment(cfg).trials) == 3


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
