"""Experiment harness: corruption matrices, synthetic data, metrics, drivers.

The feature-corruption protocol draws two samples X, Y from a common source,
right-multiplies Y by a partially corrupted random orthogonal matrix (a
fraction ``p`` percent of whose columns are identity columns, i.e. preserved
features), and measures how well labels transfer from X to the corrupted Y
under each method (raw, mutual-nearest-neighbor corrected, or harmonically
aligned) via lazy k-nearest-neighbor classification.

Two synthetic sources are provided:

* ``synthetic-clusters`` — isotropic Gaussian blobs around orthonormal mean
  directions; the simplest sanity source.
* ``synthetic-manifold`` (default) — points on a smooth low-dimensional
  manifold embedded in ``d`` dimensions by random sinusoidal features, with
  class labels given by nearest-center regions of the latent space and a
  common constant offset.  Corruption rotates the offset into every
  coordinate, destroying raw cross-dataset distances while leaving each
  dataset's internal geometry intact — the regime harmonic alignment
  targets, and a desk-scale stand-in for image data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

import numpy as np

from .align import AlignmentParams, PreparedDataset, align_prepared, prepare_dataset
from .baselines import MnnParams, mnn_correct
from .core import Report, Rng, load_matrix
from .graph import _CHUNK, nearest


# ---------------------------------------------------------------------------
# corruption matrices


def random_orthogonal(d: int, rng: Rng) -> np.ndarray:
    """Haar-random d-by-d orthogonal matrix (QR with R-diagonal sign fix)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    gauss = rng.generator.standard_normal((d, d))
    Q, R = np.linalg.qr(gauss)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]


def partial_corruption(O0: np.ndarray, preserved_pct: float, rng: Rng) -> np.ndarray:
    """Replace round(p*d/100) uniformly chosen columns of O0 by identity columns."""
    if O0.ndim != 2 or O0.shape[0] != O0.shape[1]:
        raise ValueError(f"corruption base must be square, got shape {O0.shape}")
    if not 0 <= preserved_pct <= 100:
        raise ValueError(f"preserved_pct must be in [0, 100], got {preserved_pct}")
    d = O0.shape[0]
    m = int(np.rint(preserved_pct * d / 100.0))
    cols = rng.generator.choice(d, size=m, replace=False)
    Op = O0.copy()
    Op[:, cols] = np.eye(d)[:, cols]
    return Op


# ---------------------------------------------------------------------------
# synthetic data


class ClusterSampler:
    """Repeatable draws of Gaussian-blob data around one fixed set of means."""

    def __init__(self, rng: Rng, classes: int = 10, dim: int = 100, spread: float = 0.3):
        if dim < classes:
            raise ValueError(f"need dim >= classes, got dim={dim}, classes={classes}")
        self.classes = classes
        self.dim = dim
        self.spread = spread
        means, _ = np.linalg.qr(rng.generator.standard_normal((dim, classes)))
        self.means = means.T

    def draw(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        gen = rng.generator
        labels = gen.integers(0, self.classes, size=n)
        noise = gen.standard_normal((n, self.dim)) * (self.spread / np.sqrt(self.dim))
        return self.means[labels] + noise, labels


class ManifoldSampler:
    """Smooth 2-D latent manifold lifted to ``dim`` ambient coordinates.

    Latent points are standard Gaussian; class labels are nearest-center
    (Voronoi) regions of ``classes`` fixed latent centers.  The lift uses
    random sinusoidal features ``sqrt(2) cos(z A + b)`` plus a constant
    offset of norm ``offset`` shared by all points.  The offset carries most
    of the signal energy into a single direction, so corrupting the feature
    basis misplaces datasets relative to each other without perturbing
    either one's internal neighborhood structure.
    """

    def __init__(
        self,
        rng: Rng,
        classes: int = 10,
        dim: int = 100,
        latent_dim: int = 2,
        freq: float = 1.5,
        offset: float = 12.0,
    ):
        gen = rng.generator
        self.classes = classes
        self.dim = dim
        self.latent_dim = latent_dim
        self.centers = gen.standard_normal((classes, latent_dim))
        self.proj = freq * gen.standard_normal((latent_dim, dim))
        self.phase = gen.uniform(0.0, 2.0 * np.pi, size=dim)
        direction = gen.standard_normal(dim)
        self.offset = offset * direction / np.linalg.norm(direction)

    def draw(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        gen = rng.generator
        z = gen.standard_normal((n, self.latent_dim))
        d2 = ((z[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        labels = d2.argmin(axis=1)
        values = np.sqrt(2.0) * np.cos(z @ self.proj + self.phase) + self.offset
        return values, labels


class FileSampler:
    """Draws disjoint random subsets of a labeled matrix loaded from disk."""

    def __init__(self, path, rng: Rng):
        data = load_matrix(path)
        if data.labels is None:
            raise ValueError(f"{path}: experiment data needs a label column")
        self.values = data.values
        self.labels = data.labels
        self.dim = data.n_features
        self._order = rng.generator.permutation(data.n_points)
        self._cursor = 0

    def draw(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + n > self._order.size:
            raise ValueError(
                f"data pool exhausted: need {n} more rows, "
                f"{self._order.size - self._cursor} left"
            )
        idx = self._order[self._cursor : self._cursor + n]
        self._cursor += n
        return self.values[idx], self.labels[idx]


# ---------------------------------------------------------------------------
# metrics


def _knn_vote(train, train_labels, test, k: int):
    """The k nearest training rows of each test row, ordered by (distance,
    index), and their vote: the majority label, ties broken by the smaller
    summed distance, then by the lower label.

    Returns ``(idx, pred)``: (N_test, k) neighbor indices and (N_test,) labels.
    """
    classes, codes = np.unique(train_labels, return_inverse=True)
    idx, dist = nearest(test, train, k)
    pred = np.empty(test.shape[0], dtype=np.int64)
    for lo in range(0, test.shape[0], _CHUNK):
        near_idx, near = idx[lo : lo + _CHUNK], dist[lo : lo + _CHUNK]
        member = codes[near_idx][:, :, None] == np.arange(classes.size)
        counts = member.sum(axis=1)
        # summed over neighbors in (distance, index) order, as a per-class sum would
        totals = np.where(member, near[:, :, None], 0.0).sum(axis=1)
        best = counts == counts.max(axis=1, keepdims=True)
        totals[~best] = np.inf
        winners = totals == totals.min(axis=1, keepdims=True)
        pred[lo : lo + _CHUNK] = classes[winners.argmax(axis=1)]  # lowest label
    return idx, pred


def knn_classify(
    train: np.ndarray,
    train_labels: np.ndarray,
    test: np.ndarray,
    k: int,
    test_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, float | None]:
    """Lazy k-NN classification of test rows against labeled training rows.

    Returns
    -------
    predictions : (N_test,) int array
    accuracy : float or None
        Fraction correct when ``test_labels`` is given, else None.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if train.shape[1] != test.shape[1]:
        raise ValueError(
            f"embedding widths differ: {train.shape[1]} vs {test.shape[1]}"
        )
    if not 1 <= k <= train.shape[0]:
        raise ValueError(f"need 1 <= k <= N_train, got k={k}, N_train={train.shape[0]}")
    _, pred = _knn_vote(train, train_labels, test, k)
    accuracy = None
    if test_labels is not None:
        accuracy = float((pred == np.asarray(test_labels)).mean())
    return pred, accuracy


def neighborhood_overlap(a_embed: np.ndarray, b_embed: np.ndarray, k: int) -> float:
    """Mean fractional overlap of within-embedding k-NN sets under row bijection.

    Row i of the two embeddings is assumed to describe the same entity; the
    k nearest other rows of i by (distance, index), duplicates of i included,
    are found separately inside each embedding and the average
    |intersection| / k is returned.
    """
    a = np.asarray(a_embed, dtype=np.float64)
    b = np.asarray(b_embed, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < N, got k={k}, N={n}")
    sets = []
    for embed in (a, b):
        idx, _ = nearest(embed, embed, k + 1)
        other = idx != np.arange(n)[:, None]
        other[other.all(axis=1), k] = False  # i not among them: keep the first k
        sets.append(idx[other].reshape(n, k))
    overlap = 0
    for lo in range(0, n, _CHUNK):
        local = np.arange(min(_CHUNK, n - lo))[:, None]
        in_a = np.zeros((local.size, n), dtype=bool)
        in_a[local, sets[0][lo : lo + _CHUNK]] = True
        overlap += int(in_a[local, sets[1][lo : lo + _CHUNK]].sum())
    return overlap / (n * k)


def class_average_reconstruction(
    test_aligned: np.ndarray,
    train_aligned: np.ndarray,
    train_data: np.ndarray,
    train_labels: np.ndarray,
    k: int,
) -> np.ndarray:
    """Reconstruct each test row as the dominant-class mean of its neighbors.

    For every test row the k nearest training rows (in the aligned space)
    vote on a class; the reconstruction is the mean of the *raw* training
    feature rows among those k that carry the winning class.
    """
    test_aligned = np.asarray(test_aligned, dtype=np.float64)
    train_aligned = np.asarray(train_aligned, dtype=np.float64)
    train_data = np.asarray(train_data, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if not 1 <= k <= train_aligned.shape[0]:
        raise ValueError(f"need 1 <= k <= N_train, got k={k}")
    idx, pred = _knn_vote(train_aligned, train_labels, test_aligned, k)
    member = train_labels[idx] == pred[:, None]
    total = np.where(member[:, :, None], train_data[idx], 0.0).sum(axis=1)
    return total / member.sum(axis=1)[:, None]


# ---------------------------------------------------------------------------
# experiment drivers


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol for the corruption and transfer experiments.

    ``source`` is ``synthetic-manifold``, ``synthetic-clusters``, or a path
    to a labeled CSV.  ``preserved_sweep`` drives the corruption experiment;
    ``preserved_pct`` and ``ratios`` drive the transfer experiment (test sets
    of size ``n1 * ratio``).  Corruption strength is always parameterized by
    the percentage of *preserved* feature columns.
    """

    source: str = "synthetic-manifold"
    n1: int = 1000
    n2: int = 1000
    classes: int = 10
    dim: int = 100
    spread: float = 0.3
    methods: tuple[str, ...] = ("none", "harmonic")
    align_params: AlignmentParams = field(default_factory=AlignmentParams)
    mnn_params: MnnParams = field(default_factory=MnnParams)
    trials: int = 3
    knn_k: int = 5
    seed: int = 42
    preserved_sweep: tuple[float, ...] = tuple(range(0, 101, 5))
    preserved_pct: float = 35.0
    ratios: tuple[int, ...] = (1, 2, 4)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for m in self.methods:
            if m not in ("none", "harmonic", "mnn"):
                raise ValueError(f"unknown method {m!r}")


def _make_sampler(cfg: ExperimentConfig, rng: Rng):
    if cfg.source == "synthetic-manifold":
        return ManifoldSampler(rng, classes=cfg.classes, dim=cfg.dim)
    if cfg.source == "synthetic-clusters":
        return ClusterSampler(rng, classes=cfg.classes, dim=cfg.dim, spread=cfg.spread)
    return FileSampler(cfg.source, rng)


def _run_methods(report, cfg, row: dict, x_values, x_labels, y_values, y_labels,
                 params: AlignmentParams, x_prep: PreparedDataset | None = None):
    """Append to ``report.trials`` one copy of ``row`` per method, with the
    method's accuracy of label transfer from (x, labels) to corrupted y.

    ``x_prep``, if given, is x already prepared with ``params``.  Returns x
    prepared, if a method needed it, for the next call with the same x.
    """
    for method in cfg.methods:
        start = perf_counter()
        if method == "none":
            _, acc = knn_classify(x_values, x_labels, y_values, cfg.knn_k, y_labels)
        elif method == "mnn":
            corrected = mnn_correct(x_values, y_values, cfg.mnn_params)
            _, acc = knn_classify(x_values, x_labels, corrected, cfg.knn_k, y_labels)
            del corrected  # freed before the next method runs
        else:
            if x_prep is None:
                x_prep = prepare_dataset(x_values, params)
            phi = align_prepared(x_prep, prepare_dataset(y_values, params), params).phi
            n1 = x_values.shape[0]
            _, acc = knn_classify(phi[:n1], x_labels, phi[n1:], cfg.knn_k, y_labels)
            del phi  # freed before the next method runs
        report.trials.append(
            dict(row, method=method, accuracy=acc, seconds=perf_counter() - start)
        )
    return x_prep


def _aggregate(report, key: str, name: str) -> None:
    """Mean accuracy per (``key`` level, method), stored under ``name``."""
    groups = {}
    for row in report.trials:
        groups.setdefault((row[key], row["method"]), []).append(row["accuracy"])
    for (level, method), accs in groups.items():
        report.aggregates[name.format(method=method, level=level)] = float(np.mean(accs))


def _effective_params(cfg: ExperimentConfig) -> dict:
    params = asdict(cfg)
    params["align_params"] = asdict(cfg.align_params)
    params["mnn_params"] = asdict(cfg.mnn_params)
    params["mnn_note"] = (
        "approximate reimplementation: no cosine normalization, no per-feature "
        "scaling; smoothing bandwidth defaults to median pairwise distance"
    )
    return params


def corruption_experiment(cfg: ExperimentConfig) -> Report:
    """Sweep corruption levels and record per-method label-transfer accuracy.

    For each preserved percentage ``p`` and each trial: draw X and Y from a
    common source, corrupt Y's feature basis keeping p percent of columns,
    run every method, and record 5-NN (by default) transfer accuracy.
    Deterministic given (config, seed): every arm owns an RNG stream derived
    from (seed, p, trial).
    """
    root = Rng(cfg.seed)
    report = Report(params=_effective_params(cfg))
    report.params["mode"] = "corruption"
    for p in cfg.preserved_sweep:
        for trial in range(cfg.trials):
            rng = root.spawn("corruption", float(p), trial)
            sampler = _make_sampler(cfg, rng.spawn("source"))
            x_values, x_labels = sampler.draw(cfg.n1, rng.spawn("draw-x"))
            y_values, y_labels = sampler.draw(cfg.n2, rng.spawn("draw-y"))
            O0 = random_orthogonal(sampler.dim, rng.spawn("orthogonal"))
            Op = partial_corruption(O0, float(p), rng.spawn("columns"))
            row = {"p": float(p), "trial": trial}
            _run_methods(report, cfg, row, x_values, x_labels, y_values @ Op, y_labels,
                         cfg.align_params)
    _aggregate(report, "p", "{method}@p{level:g}")
    return report


def transfer_experiment(cfg: ExperimentConfig) -> Report:
    """Label transfer from a fixed labeled set to growing corrupted test sets.

    The labeled reference has ``cfg.n1`` points; test sets have
    ``cfg.n1 * ratio`` points for each ratio, corrupted at
    ``cfg.preserved_pct`` percent preserved columns.
    """
    root = Rng(cfg.seed)
    # with unequal sizes the alignment needs (a) a neighborhood size that
    # scales with N so the two spectra cover the same frequency range, and
    # (b) per-dataset scale equalization of the joint embedding; apply both
    # unless the caller already fixed a neighborhood fraction
    align_params = cfg.align_params
    if align_params.knn_fraction is None:
        align_params = replace(
            align_params,
            knn_fraction=align_params.knn / cfg.n1,
            normalize_scale=True,
        )
    report = Report(params=_effective_params(cfg))
    report.params["mode"] = "transfer"
    report.params["align_params"] = asdict(align_params)
    for trial in range(cfg.trials):
        rng = root.spawn("transfer", trial)
        sampler = _make_sampler(cfg, rng.spawn("source"))
        x_values, x_labels = sampler.draw(cfg.n1, rng.spawn("draw-x"))
        dim = x_values.shape[1]
        O0 = random_orthogonal(dim, rng.spawn("orthogonal"))
        Op = partial_corruption(O0, cfg.preserved_pct, rng.spawn("columns"))
        x_prep = None  # the reference is fixed per trial: prepared once for every ratio
        for ratio in cfg.ratios:
            y_values, y_labels = sampler.draw(
                int(cfg.n1 * ratio), rng.spawn("draw-y", ratio)
            )
            row = {"ratio": ratio, "trial": trial}
            x_prep = _run_methods(report, cfg, row, x_values, x_labels, y_values @ Op,
                                  y_labels, align_params, x_prep)
    _aggregate(report, "ratio", "{method}@ratio{level}")
    return report


def sweep_csv(report: Report) -> str:
    """Plot-ready CSV of per-trial rows ('p' or 'ratio' first column)."""
    key = "p" if report.params.get("mode") == "corruption" else "ratio"
    lines = [f"{key},method,trial,accuracy"]
    for row in report.trials:
        lines.append(
            f"{row[key]},{row['method']},{row['trial']},{row['accuracy']!r}"
        )
    return "\n".join(lines) + "\n"
