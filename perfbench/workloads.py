"""The three workloads: inputs, warm-up, one operation, and its checks.

Every workload generates its inputs from the run's seed, runs one operation
per ``op()`` call and checks the result against computations in
``reference.py`` or properties the method must have, never against stored
output.  ``tiny=True`` shrinks every input so the self-tests run in seconds.

Import this module only after ``run.py`` has fixed the BLAS thread count and
put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from dataclasses import replace
from time import perf_counter

import numpy as np

# the program is called through its modules, so the tracer's wrappers are seen
from harmalign import align, evaluation
from harmalign.align import AlignmentParams
from harmalign.core import Rng
from harmalign.evaluation import (
    ExperimentConfig,
    ManifoldSampler,
    partial_corruption,
    random_orthogonal,
)

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

KNN_K = 5
PRESERVED_PCT = 35.0
#: the manifold (class centres, lift, offset) and the corruption matrices are
#: part of the workload definition, drawn from this seed; the run's seed draws
#: the points.  Letting the run's seed pick them as well moved transfer_acc by
#: about 10 % between seeds, and raw-space accuracy from 0.39 to 0.64.
SOURCE_SEED = 0
#: aligned 5-NN transfer accuracy must beat raw-space accuracy by this much:
#: the acceptance tests' margin for the pair; less for the CLI's views, whose
#: margin was 0.19 on seed 5 with corruptions drawn from the run's seed
ACC_MARGIN = 0.20
CLI_ACC_MARGIN = 0.10
#: the CLI's self-match rate between the uncorrupted view and a corrupted one
#: must be at least this many times chance.  Between the two corrupted views
#: it is only compared with the recomputation: with corruptions drawn from the
#: run's seed it fell under this floor on 4 of seeds 0-19 (0.010 on seed 12).
SELF_MATCH_FACTOR = 20.0
CHILD_TIMEOUT_S = 170.0


def peak_rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _source() -> ManifoldSampler:
    return ManifoldSampler(Rng(SOURCE_SEED).spawn("source"))


def _corruption(*tag) -> np.ndarray:
    rng = Rng(SOURCE_SEED)
    O0 = random_orthogonal(100, rng.spawn("orthogonal", *tag))
    return partial_corruption(O0, PRESERVED_PCT, rng.spawn("columns", *tag))


class Op:
    """Outcome of one operation: wall time, accuracy and failed checks."""

    def __init__(self, wall, acc, failures, peak_mb=None, trace=None, detail=None):
        self.wall = wall
        self.acc = acc
        self.failures = failures
        self.peak_mb = peak_mb
        self.trace = trace  # (spans, counts, time outside spans) of a traced CLI child
        self.detail = detail or {}


class InProcess:
    """A workload whose operations run in the benchmark's own process."""

    in_process = True

    def peak_mb(self, ops) -> float:
        return peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF))


class PairWorkload(InProcess):
    """pair-4000-trunc: library ``harmonic_alignment`` + 5-NN label transfer."""

    name = "pair-4000-trunc"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.n = 500 if tiny else 4000
        # tiny sets an explicit rank so it still takes the Lanczos path
        self.params = AlignmentParams(knn_fraction=0.04 if tiny else 0.01,
                                      rank=40 if tiny else None)
        self.raw_acc = self.basis_errors = None

    def setup(self):
        rng = Rng(self.seed)
        src = _source()
        self.x, self.xl = src.draw(self.n, rng.spawn("draw-x"))
        y, self.yl = src.draw(self.n, rng.spawn("draw-y"))
        self.y = y @ _corruption()
        # a seconds-long warm-up: import time alone drifted by 40 % between
        # sets of runs on a busy machine, computation by about 10 %
        m = self.n * 3 // 8
        result = align.harmonic_alignment(self.x[:m], self.y[:m],
                                          replace(self.params, rank=self.params.rank or 100))
        evaluation.knn_classify(result.phi[:m], self.xl[:m], result.phi[m:], KNN_K, self.yl[:m])

    def op(self, traced=False) -> Op:
        start = perf_counter()
        result = align.harmonic_alignment(self.x, self.y, self.params)
        phi = result.phi
        _, acc = evaluation.knn_classify(phi[: self.n], self.xl, phi[self.n :], KNN_K, self.yl)
        wall = perf_counter() - start
        failures = []
        # auto rank keeps 100 eigenpairs above N = 2000, less the trivial one
        shape = (2 * self.n, 2 * ((self.params.rank or 100) - 1))
        if phi.shape != shape or not np.all(np.isfinite(phi)):
            failures.append(f"embedding shape {phi.shape} or non-finite entries")
        T = result.T
        err = float(np.abs(T.T @ T - np.eye(T.shape[1])).max())
        if err > 1e-8:
            failures.append(f"T not orthogonal: max |T'T - I| = {err:.2e}")
        own = reference.knn_accuracy(phi[: self.n], self.xl, phi[self.n :], self.yl, KNN_K)
        if own != acc:
            failures.append(f"knn_classify accuracy {acc} != reference vote {own}")
        return Op(wall, acc, failures)

    def run_checks(self, ops) -> list:
        """Raw-space margin for every op, then one basis check per run."""
        failures = []
        raw = reference.knn_accuracy(self.x, self.xl, self.y, self.yl, KNN_K)
        self.raw_acc = raw
        for op in ops:
            if op.acc < raw + ACC_MARGIN:
                op.failures.append(f"transfer_acc {op.acc:.4f} < raw {raw:.4f} + {ACC_MARGIN}")
        prep = align.prepare_dataset(self.x, self.params)
        basis = prep.basis
        del prep
        k = max(1, int(np.rint(self.params.knn_fraction * self.n)))
        A, degrees = reference.normalized_affinity(self.x, k)
        errors = reference.basis_errors(A, degrees, basis.psi, basis.lam, basis.degrees)
        self.basis_errors = errors
        limits = {"orthonormality": 1e-8, "eigen_residual": 1e-8,
                  "trivial_overlap": 1e-6, "degree_error": 1e-10}
        for name, limit in limits.items():
            if not errors[name] <= limit:
                failures.append(f"basis {name} {errors[name]:.2e} > {limit}")
        if not errors["lam_in_unit_interval_descending"]:
            failures.append("basis eigenvalues not descending in [0, 1]")
        return failures

    def notes(self) -> dict:
        return {"raw_acc": self.raw_acc, "basis_errors": self.basis_errors}


class TransferWorkload(InProcess):
    """transfer-500: one ``transfer_experiment`` call (ratios 1, 2, 4)."""

    name = "transfer-500"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.cfg = ExperimentConfig(
            n1=80 if tiny else 500,
            # two draws of manifold, reference and test sets halve the spread
            # of transfer_acc between seeds, which the manifold dominates
            trials=2,
            methods=("none", "mnn", "harmonic"),
            ratios=(1, 2, 4),
            preserved_pct=PRESERVED_PCT,
            seed=seed,
        )
        self.last = self.none_ref = {}

    def setup(self):
        warm_n1 = self.cfg.n1 * 3 // 5  # seconds long, as for the pair
        evaluation.transfer_experiment(replace(self.cfg, n1=warm_n1, trials=1))

    def op(self, traced=False) -> Op:
        start = perf_counter()
        report = evaluation.transfer_experiment(self.cfg)
        wall = perf_counter() - start
        agg = report.aggregates
        self.last = agg
        failures = []
        ratios = self.cfg.ratios
        for r in ratios:
            if not agg[f"harmonic@ratio{r}"] > agg[f"none@ratio{r}"]:
                failures.append(f"harmonic does not beat none at ratio {r}")
        acc = float(np.mean([agg[f"harmonic@ratio{r}"] for r in ratios]))
        return Op(wall, acc, failures, detail={r: agg[f"none@ratio{r}"] for r in ratios})

    def run_checks(self, ops) -> list:
        """Every ``none`` arm equals the reference vote on the same draws.

        The draws repeat ``transfer_experiment``'s documented streams, one
        ``Rng(seed).spawn("transfer", trial)`` per trial; the aggregate is
        the mean over trials.
        """
        cfg = self.cfg
        per_trial = {r: [] for r in cfg.ratios}
        for trial in range(cfg.trials):
            rng = Rng(cfg.seed).spawn("transfer", trial)
            sampler = ManifoldSampler(rng.spawn("source"), classes=cfg.classes, dim=cfg.dim)
            x, xl = sampler.draw(cfg.n1, rng.spawn("draw-x"))
            corrupt = partial_corruption(random_orthogonal(cfg.dim, rng.spawn("orthogonal")),
                                         cfg.preserved_pct, rng.spawn("columns"))
            for r in cfg.ratios:
                y, yl = sampler.draw(int(cfg.n1 * r), rng.spawn("draw-y", r))
                per_trial[r].append(reference.knn_accuracy(x, xl, y @ corrupt, yl, cfg.knn_k))
        self.none_ref = {r: float(np.mean(accs)) for r, accs in per_trial.items()}
        for op in ops:
            for r, ref in self.none_ref.items():
                if op.detail and op.detail[r] != ref:
                    op.failures.append(f"none@ratio{r} {op.detail[r]} != reference vote {ref}")
        return []

    def notes(self) -> dict:
        # reported, not checked: on some seeds harmonic accuracy drops by more
        # than 0.05 from ratio 1 to ratio 4 (seed 8, one trial: 0.848 -> 0.787)
        ratios = self.cfg.ratios
        first = self.last.get(f"harmonic@ratio{ratios[0]}", 0.0)
        last = self.last.get(f"harmonic@ratio{ratios[-1]}", 0.0)
        return {"aggregates": self.last, "none_reference": self.none_ref,
                "harmonic_drop_ratio1_to_4": first - last}


def spawn_and_wait(argv, env, log_path, timeout=CHILD_TIMEOUT_S):
    """Run ``argv`` as a child; return (exit code, wall seconds, peak RSS MB).

    ``os.wait4`` gives the child's own resource usage, which ``subprocess``
    discards.  The child is killed and reaped if it outlives ``timeout``.
    """
    with open(log_path, "wb") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if perf_counter() > start + timeout:
                    raise TimeoutError(f"{argv[:4]} ran longer than {timeout} s")
                time.sleep(0.002)
        except BaseException:  # timeout or interrupt: stop the child, then re-raise
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        wall = perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, peak_rss_mb(usage)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class CliWorkload:
    """cli-multi3-out: ``harmalign multi-align`` on three CSVs, as a fresh process."""

    name = "cli-multi3-out"
    in_process = False

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.n = 500 if tiny else 1000
        self.workdir = workdir
        self.inputs = [os.path.join(workdir, f"view{i}.csv") for i in range(3)]
        self.out = os.path.join(workdir, "embedding.csv")
        self.report = os.path.join(workdir, "report.json")
        self.log = os.path.join(workdir, "cli.log")
        self.raw_acc = None
        self.absent = []

    def _write_views(self, n, paths):
        rng = Rng(self.seed)
        x, labels = _source().draw(n, rng.spawn("draw"))
        views = [x, x @ _corruption(1), x @ _corruption(2)]
        header = ",".join([f"f{j + 1}" for j in range(x.shape[1])] + ["label"])
        for values, path in zip(views, paths):
            table = np.column_stack([values, labels])
            fmt = ["%.17g"] * values.shape[1] + ["%d"]
            np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")
        return views, labels

    def _argv(self, inputs, out, report, trace_out=None):
        if trace_out is None:
            head = [sys.executable, "-m", "harmalign.cli"]
        else:
            head = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_out]
        return head + ["multi-align", "--inputs", *inputs, "--out", out, "--report", report]

    def setup(self):
        self.views, self.labels = self._write_views(self.n, self.inputs)
        warm = [os.path.join(self.workdir, f"warm{i}.csv") for i in range(3)]
        self._write_views(self.n * 3 // 10, warm)
        out = os.path.join(self.workdir, "warm-embedding.csv")
        code, _, _ = spawn_and_wait(self._argv(warm, out, self.report), child_env(), self.log)
        if code != 0:
            with open(self.log) as handle:
                raise RuntimeError(f"warm-up CLI run exited {code}: {handle.read()}")

    def op(self, traced=False) -> Op:
        trace_out = os.path.join(self.workdir, "trace.json") if traced else None
        for path in (self.out, self.report):
            if os.path.exists(path):
                os.unlink(path)
        code, wall, peak = spawn_and_wait(
            self._argv(self.inputs, self.out, self.report, trace_out), child_env(), self.log
        )
        if code != 0:
            with open(self.log) as handle:
                return Op(wall, float("nan"), [f"CLI exited {code}: {handle.read()[-2000:]}"], peak)
        failures = []
        table = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        n, k = self.n, len(self.inputs)
        width = k * (n - 1)
        if table.shape != (k * n, 2 + width) or not np.all(np.isfinite(table)):
            failures.append(f"embedding shape {table.shape} or non-finite entries")
            return Op(wall, float("nan"), failures, peak)
        dataset, row = table[:, 0], table[:, 1]
        ids = dataset.astype(np.int64) * n + row.astype(np.int64)
        in_range = (dataset >= 0) & (dataset < k) & (row >= 0) & (row < n)
        if not in_range.all() or not np.array_equal(np.sort(ids), np.arange(k * n)):
            failures.append("embedding does not hold every (dataset, row) pair exactly once")
            return Op(wall, float("nan"), failures, peak)
        phi = np.empty((k * n, width))
        phi[ids] = table[:, 2:]
        del table
        blocks = [phi[i * n : (i + 1) * n] for i in range(k)]
        test = np.vstack(blocks[1:])
        acc = reference.knn_accuracy(blocks[0], self.labels, test,
                                     np.tile(self.labels, k - 1), KNN_K)
        with open(self.report) as handle:
            agg = json.load(handle)["aggregates"]
        floor = SELF_MATCH_FACTOR / n
        for i in range(k):
            for j in range(i + 1, k):
                name = f"self_match_rate_{i}_{j}"
                own = reference.self_match_rate(blocks[i], blocks[j])
                if agg.get(name) != own:
                    failures.append(f"{name} {agg.get(name)} != recomputed {own}")
                if i == 0 and own < floor:
                    failures.append(f"{name} {own} below {SELF_MATCH_FACTOR:g}x chance")
        trace = None
        if trace_out:
            with open(trace_out) as handle:
                dumped = json.load(handle)
            trace = (dumped["spans"], dumped["counts"], dumped["import_s"])
            self.absent = dumped["absent"]
        return Op(wall, acc, failures, peak, trace)

    def run_checks(self, ops) -> list:
        x, labels = self.views[0], self.labels
        raw = [reference.knn_accuracy(x, labels, v, labels, KNN_K) for v in self.views[1:]]
        self.raw_acc = float(np.mean(raw))
        for op in ops:
            if op.acc == op.acc and op.acc < self.raw_acc + CLI_ACC_MARGIN:
                op.failures.append(
                    f"transfer_acc {op.acc:.4f} < raw {self.raw_acc:.4f} + {CLI_ACC_MARGIN}")
        return []

    def peak_mb(self, ops) -> float:
        return float(np.median([op.peak_mb for op in ops]))

    def notes(self) -> dict:
        return {"raw_acc": self.raw_acc}


WORKLOADS = {w.name: w for w in (PairWorkload, TransferWorkload, CliWorkload)}
