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

The ``harmonic`` method aligns each pair as :func:`harmonic_alignment` does,
with ``align_params`` as given: both drivers share the neighborhood rule
(:func:`neighborhood_fraction`) and the block scale of ``align``.

Both drivers run independent seeded arms, one RNG stream per (p, trial) or
per trial, on :func:`harmalign.core.pool_map`'s workers: in contiguous slices,
one per worker, as many workers as the usable CPUs over the BLAS threads
allow, at most one per arm, and no more than the available memory holds at
one arm's N x N arrays (those of its largest test set's graph) each.  This
process runs the first slice and a forked worker each other one; the rows
come back in arm order, so a report does not depend on the worker count,
apart from each row's ``seconds``, measured in the worker that ran it.  A
single arm, or a single worker, runs here with no fork.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from . import core
from .align import AlignmentParams, align_prepared, neighborhood_fraction, prepare_dataset
from .baselines import MnnParams, mnn_correct
from .core import DataMatrix, Report, Rng, check_count, load_matrix
from .graph import _row_blocks, nearest
from .spectral import check_memory, nxn_bytes


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
    random sinusoidal features ``sqrt(2) cos(z A + b)``, with A's entries of
    standard deviation ``FREQ``, plus a constant offset of norm ``OFFSET``
    shared by all points.  The offset carries most of the signal energy into
    a single direction, so corrupting the feature basis misplaces datasets
    relative to each other without perturbing either one's internal
    neighborhood structure.
    """

    LATENT_DIM, FREQ, OFFSET = 2, 1.5, 12.0

    def __init__(self, rng: Rng, classes: int = 10, dim: int = 100):
        gen = rng.generator
        self.classes = classes
        self.dim = dim
        self.centers = gen.standard_normal((classes, self.LATENT_DIM))
        self.proj = self.FREQ * gen.standard_normal((self.LATENT_DIM, dim))
        self.phase = gen.uniform(0.0, 2.0 * np.pi, size=dim)
        direction = gen.standard_normal(dim)
        self.offset = self.OFFSET * direction / np.linalg.norm(direction)

    def draw(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        gen = rng.generator
        z = gen.standard_normal((n, self.LATENT_DIM))
        d2 = ((z[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        labels = d2.argmin(axis=1)
        values = np.sqrt(2.0) * np.cos(z @ self.proj + self.phase) + self.offset
        return values, labels


class FileSampler:
    """Draws disjoint subsets of a labeled matrix, in one order drawn from ``rng``."""

    def __init__(self, data: DataMatrix, rng: Rng):
        self.values = data.values
        self.labels = data.labels
        self.dim = data.n_features
        self._order = rng.generator.permutation(data.n_points)
        self._cursor = 0

    def draw(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
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
    for lo, hi in _row_blocks(test.shape[0]):
        near_idx, near = idx[lo:hi], dist[lo:hi]
        member = codes[near_idx][:, :, None] == np.arange(classes.size)
        counts = member.sum(axis=1)
        # summed over neighbors in (distance, index) order, as a per-class sum would
        totals = np.where(member, near[:, :, None], 0.0).sum(axis=1)
        best = counts == counts.max(axis=1, keepdims=True)
        totals[~best] = np.inf
        winners = totals == totals.min(axis=1, keepdims=True)
        pred[lo:hi] = classes[winners.argmax(axis=1)]  # lowest label
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
    _check_widths(train, test)
    if not 1 <= k <= train.shape[0]:
        raise ValueError(f"need 1 <= k <= N_train, got k={k}, N_train={train.shape[0]}")
    _check_labels("train_labels", train_labels, "train", train)
    if test_labels is not None:
        test_labels = np.asarray(test_labels)
        _check_labels("test_labels", test_labels, "test", test)
    _, pred = _knn_vote(train, train_labels, test, k)
    accuracy = None
    if test_labels is not None:
        accuracy = float((pred == test_labels).mean())
    return pred, accuracy


def _check_widths(train: np.ndarray, test: np.ndarray) -> None:
    """Raise ValueError, giving both widths, unless the training and test
    embeddings have the same number of columns."""
    if train.shape[1] != test.shape[1]:
        raise ValueError(f"embedding widths differ: {train.shape[1]} vs {test.shape[1]}")


def _check_labels(name: str, labels: np.ndarray, rows_name: str, rows: np.ndarray) -> None:
    """Raise ValueError, giving both lengths, unless ``labels`` holds one
    label per row of ``rows``."""
    if labels.shape != (len(rows),):
        raise ValueError(f"{name} has length {labels.size}, but {rows_name} has {len(rows)} rows")


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
    for lo, hi in _row_blocks(n):
        # a row's k indices are distinct in each set, so equal neighbours in
        # the row's sorted union are exactly its intersection
        both = np.sort(np.hstack([sets[0][lo:hi], sets[1][lo:hi]]), axis=1)
        overlap += int((both[:, 1:] == both[:, :-1]).sum())
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
    _check_widths(train_aligned, test_aligned)
    if not 1 <= k <= train_aligned.shape[0]:
        raise ValueError(f"need 1 <= k <= N_train, got k={k}")
    _check_labels("train_labels", train_labels, "train_aligned", train_aligned)
    if len(train_data) != len(train_aligned):
        raise ValueError(f"train_data has {len(train_data)} rows, "
                         f"but train_aligned has {len(train_aligned)} rows")
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
        for name in ("n1", "n2", "trials", "classes", "dim", "knn_k"):
            check_count(name, getattr(self, name))
        for name in ("methods", "preserved_sweep", "ratios"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for m in self.methods:
            if m not in ("none", "harmonic", "mnn"):
                raise ValueError(f"unknown method {m!r}")
        if any(r < 1 for r in self.ratios):
            raise ValueError(f"test sets are at least the reference's size: ratios {self.ratios}")
        if self.knn_k > self.n1:  # the reference is the k-NN training set
            raise ValueError(f"knn_k must be >= 1 and at most n1={self.n1}, got {self.knn_k}")
        if not 0 <= self.preserved_pct <= 100:
            raise ValueError(f"preserved_pct must be in [0, 100], got {self.preserved_pct}")
        if not all(0 <= p <= 100 for p in self.preserved_sweep):
            raise ValueError(
                f"preserved_sweep values must be in [0, 100], got {self.preserved_sweep}"
            )


def _sampler_factory(cfg: ExperimentConfig, rows: int):
    """The sampler of an arm, as a function of the arm's ``source`` RNG.
    A file source is loaded once, here, and refused before any arm runs
    unless it holds the ``rows`` each arm draws."""
    if cfg.source == "synthetic-manifold":
        return lambda rng: ManifoldSampler(rng, classes=cfg.classes, dim=cfg.dim)
    if cfg.source == "synthetic-clusters":
        return lambda rng: ClusterSampler(rng, classes=cfg.classes, dim=cfg.dim,
                                          spread=cfg.spread)
    data = load_matrix(cfg.source)
    if data.labels is None:
        raise ValueError(f"{cfg.source}: experiment data needs a label column")
    if data.n_points < rows:
        raise ValueError(f"data pool exhausted: each arm draws {rows} rows, "
                         f"{cfg.source} has {data.n_points}")
    return lambda rng: FileSampler(data, rng)


#: each driver's report ``mode``: the key a trial row stores its level under,
#: and the name of a mean accuracy per (level, method)
_MODES = {"corruption": ("p", "{method}@p{level:g}"),
          "transfer": ("ratio", "{method}@ratio{level}")}


def _run_arms(cfg: ExperimentConfig, mode: str, arms) -> Report:
    """Run every arm and report each trial row and each mean accuracy.

    An arm is ``(tags, trial, pct, tests)``: its RNG is
    ``Rng(cfg.seed).spawn(*tags)``, which draws the sampler, the labeled
    reference x of ``cfg.n1`` points and the corruption keeping ``pct``
    percent of columns; each test set ``(level, y_tags, size)`` draws y from
    ``spawn(*y_tags)``.  A row stores ``level`` under ``mode``'s key, and the
    mean accuracy per (level, method) is stored under ``mode``'s name
    (``_MODES``).  The reference is prepared for alignment once per arm,
    before its test sets, at the one neighborhood fraction of ``cfg.n1`` and
    the smallest test size: every arm has the same test sizes, each at least
    the reference's.  Raises ValueError before any arm runs when a method
    cannot run at the smallest test size, and with ``harmonic`` refuses a
    rank above ``cfg.n1`` or a graph too large for memory as the first arm
    would (:func:`~harmalign.spectral.check_memory`), before any worker forks.

    The arms run on :func:`core.pool_map`'s workers, and their rows are
    reported in arm order, so the report does not depend on the worker
    count: only each row's ``seconds``, measured in the worker that ran it.
    A worker's warnings are issued again here, in arm order, and the
    earliest arm's error is raised, as a serial run would raise it.
    """
    key, name = _MODES[mode]
    sizes = [size for *_, tests in arms for *_, size in tests]
    m = min(sizes)
    if "mnn" in cfg.methods and cfg.mnn_params.k >= min(cfg.n1, m):
        raise ValueError(f"mnn_params.k={cfg.mnn_params.k} must be < min(n1, smallest test "
                         f"size)={min(cfg.n1, m)}")
    f = None
    if "harmonic" in cfg.methods:
        f = neighborhood_fraction([cfg.n1, m], cfg.align_params)  # raises, naming knn
    report = Report(params=dict(
        asdict(cfg),  # the parameter dataclasses as dicts too
        mnn_note="approximate reimplementation: no cosine normalization, no per-feature "
                 "scaling; smoothing bandwidth defaults to median pairwise distance",
        mode=mode))
    drawn = cfg.n1 + max(sum(size for *_, size in tests) for *_, tests in arms)
    run = functools.partial(_arm_rows, cfg, key, f, _sampler_factory(cfg, drawn))
    rank = cfg.align_params.rank
    if "harmonic" in cfg.methods:  # each size in the order the first arm prepares it
        for n in dict.fromkeys([cfg.n1, *sizes]):
            check_memory(n, rank)
    elif rank is not None:  # no graph is built, so any rank passes
        rank = min(rank, max(sizes))
    per_arm = core.pool_map(run, arms, nxn_bytes(max(sizes), rank))
    report.trials = [row for rows in per_arm for row in rows]
    groups = {}
    for row in report.trials:
        groups.setdefault((row[key], row["method"]), []).append(row["accuracy"])
    report.aggregates = {name.format(method=method, level=level): float(np.mean(accs))
                         for (level, method), accs in groups.items()}
    return report


def _arm_rows(cfg: ExperimentConfig, key: str, f: float | None, make_sampler, arm) -> list:
    """The trial rows of one arm (see :func:`_run_arms`): per test set, one
    per method, with the method's accuracy of label transfer from x to the
    corrupted y.  With ``harmonic``, x is prepared once, at the fraction
    ``f``."""
    tags, trial, pct, tests = arm
    params = cfg.align_params
    rows = []
    rng = Rng(cfg.seed).spawn(*tags)
    sampler = make_sampler(rng.spawn("source"))
    x_values, x_labels = sampler.draw(cfg.n1, rng.spawn("draw-x"))
    O0 = random_orthogonal(sampler.dim, rng.spawn("orthogonal"))
    Op = partial_corruption(O0, pct, rng.spawn("columns"))
    x_prep = None if f is None else prepare_dataset(x_values, params, f)
    for level, y_tags, size in tests:
        y_values, y_labels = sampler.draw(size, rng.spawn(*y_tags))
        y_values = y_values @ Op
        for method in cfg.methods:
            start = perf_counter()
            if method == "none":
                _, acc = knn_classify(x_values, x_labels, y_values, cfg.knn_k, y_labels)
            elif method == "mnn":
                corrected = mnn_correct(x_values, y_values, cfg.mnn_params)
                _, acc = knn_classify(x_values, x_labels, corrected, cfg.knn_k, y_labels)
                del corrected  # freed before the next method runs
            else:
                phi = align_prepared(x_prep, prepare_dataset(y_values, params, f), params).phi
                _, acc = knn_classify(phi[:cfg.n1], x_labels, phi[cfg.n1:], cfg.knn_k, y_labels)
                del phi  # freed before the next method runs
            rows.append({key: level, "trial": trial, "method": method, "accuracy": acc,
                         "seconds": perf_counter() - start})
    return rows


def corruption_experiment(cfg: ExperimentConfig) -> Report:
    """Sweep corruption levels and record per-method label-transfer accuracy.

    For each preserved percentage ``p`` and each trial: draw X and Y from a
    common source, corrupt Y's feature basis keeping p percent of columns,
    run every method, and record 5-NN (by default) transfer accuracy.
    Deterministic given (config, seed): every arm owns an RNG stream derived
    from (seed, p, trial).
    """
    arms = [(("corruption", p, trial), trial, p, [(p, ("draw-y",), cfg.n2)])
            for p in map(float, cfg.preserved_sweep) for trial in range(cfg.trials)]
    return _run_arms(cfg, "corruption", arms)


def transfer_experiment(cfg: ExperimentConfig) -> Report:
    """Label transfer from a fixed labeled set to growing corrupted test sets.

    The labeled reference has ``cfg.n1`` points; test sets have
    ``cfg.n1 * ratio`` points for each ratio, corrupted at
    ``cfg.preserved_pct`` percent preserved columns.  A numpy ratio is stored
    as the equal Python number.
    """
    ratios = [r.item() if isinstance(r, np.generic) else r for r in cfg.ratios]
    tests = [(ratio, ("draw-y", ratio), int(cfg.n1 * ratio)) for ratio in ratios]
    arms = [(("transfer", trial), trial, cfg.preserved_pct, tests) for trial in range(cfg.trials)]
    return _run_arms(cfg, "transfer", arms)


def sweep_csv(report: Report) -> str:
    """Plot-ready CSV of per-trial rows, the mode's key first ('ratio' in a
    report without a known mode)."""
    key = _MODES.get(report.params.get("mode"), _MODES["transfer"])[0]
    lines = [f"{key},method,trial,accuracy"]
    for row in report.trials:
        lines.append(
            f"{row[key]},{row['method']},{row['trial']},{row['accuracy']!r}"
        )
    return "\n".join(lines) + "\n"
