"""Command-line front end: pairwise/multi alignment and the experiment harness.

Subcommands
-----------
align        Align two CSV datasets and write the unified embedding + report.
multi-align  Align n >= 2 datasets into one block embedding.
experiment   Run the corruption sweep or transfer protocol from a config file.

Exit codes: 0 success, 1 runtime error, 2 usage error.  Config files are
flat ``key=value`` text mirroring the flag names; command-line flags
override file values.  Every report embeds the complete effective
configuration and the library version.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from time import perf_counter

import numpy as np

from . import __version__
from .align import AlignmentParams, harmonic_alignment, multi_alignment
from .baselines import MnnParams
from .core import Report, atomic_write_text, load_matrix
from .evaluation import (
    ExperimentConfig,
    corruption_experiment,
    sweep_csv,
    transfer_experiment,
)

_KERNEL_NAMES = {"alg2": "adaptive", "eq1": "anisotropic"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _add_align_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bands", type=_positive_int, default=8,
                        help="itersine band count (default 8)")
    parser.add_argument("--t", type=_non_negative_int, default=1,
                        help="diffusion time (default 1)")
    parser.add_argument("--knn-bandwidth", type=_positive_int, default=20,
                        help="adaptive kernel: k-th neighbor distance (default 20)")
    parser.add_argument("--sigma", type=float, default=None,
                        help="bandwidth for fixed/anisotropic kernels")
    parser.add_argument("--rank", type=_positive_int, default=None,
                        help="spectral truncation (default: full up to N=2000, else 100)")
    parser.add_argument("--kernel", choices=sorted(_KERNEL_NAMES), default="alg2",
                        help="kernel: alg2 = symmetric adaptive Gaussian, "
                             "eq1 = anisotropic (default alg2)")
    parser.add_argument("--out", default=None, help="embedding CSV output path")
    parser.add_argument("--report", default=None, help="report JSON output path")


def _params_from_args(args) -> AlignmentParams:
    return AlignmentParams(
        n_bands=args.bands,
        t=args.t,
        kernel=_KERNEL_NAMES[args.kernel],
        knn=args.knn_bandwidth,
        sigma=args.sigma,
        rank=args.rank,
    )


def _embedding_csv(phi: np.ndarray, ranges) -> str:
    """Embedding rows tagged with dataset id and original row index."""
    width = phi.shape[1]
    header = ["dataset", "row"] + [f"c{j + 1}" for j in range(width)]
    lines = [",".join(header)]
    for ds, (lo, hi) in enumerate(ranges):
        for i in range(lo, hi):
            cells = [str(ds), str(i - lo)] + [format(v, ".17g") for v in phi[i]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _self_match_rate(phi: np.ndarray, lo1, hi1, lo2, hi2) -> float | None:
    """Fraction of first-block rows whose nearest second-block row is row-matched."""
    if hi1 - lo1 != hi2 - lo2:
        return None
    from scipy.spatial.distance import cdist

    dist = cdist(phi[lo1:hi1], phi[lo2:hi2])
    return float((dist.argmin(axis=1) == np.arange(hi1 - lo1)).mean())


def _cmd_align(args) -> int:
    params = _params_from_args(args)
    x = load_matrix(args.x)
    y = load_matrix(args.y)
    start = perf_counter()
    result = harmonic_alignment(x, y, params)
    elapsed = perf_counter() - start
    (lo1, hi1), (lo2, hi2) = result.blocks
    report = Report(
        params={
            "command": "align",
            "version": __version__,
            "x": args.x,
            "y": args.y,
            "align_params": asdict(params),
        },
        aggregates={
            "seconds": elapsed,
            "orthogonality_residual": result.diagnostics["orthogonality_residual"],
            "spectrum_0": result.diagnostics["spectrum_0"],
            "spectrum_1": result.diagnostics["spectrum_1"],
        },
    )
    rate = _self_match_rate(result.phi, lo1, hi1, lo2, hi2)
    if rate is not None:
        report.aggregates["self_match_rate"] = rate
    if args.out:
        atomic_write_text(args.out, _embedding_csv(result.phi, result.blocks))
    if args.report:
        atomic_write_text(args.report, report.to_json() + "\n")
    print(f"aligned {x.n_points}+{y.n_points} points in {elapsed:.2f}s; "
          f"orthogonality residual {report.aggregates['orthogonality_residual']:.2e}")
    return 0


def _cmd_multi_align(args) -> int:
    params = _params_from_args(args)
    datasets = [load_matrix(path) for path in args.inputs]
    start = perf_counter()
    result = multi_alignment(datasets, params)
    elapsed = perf_counter() - start
    report = Report(
        params={
            "command": "multi-align",
            "version": __version__,
            "inputs": list(args.inputs),
            "align_params": asdict(params),
        },
        aggregates={"seconds": elapsed},
    )
    for i, (lo1, hi1) in enumerate(result.row_ranges):
        for j, (lo2, hi2) in enumerate(result.row_ranges):
            if i < j:
                rate = _self_match_rate(result.phi, lo1, hi1, lo2, hi2)
                if rate is not None:
                    report.aggregates[f"self_match_rate_{i}_{j}"] = rate
    if args.out:
        atomic_write_text(args.out, _embedding_csv(result.phi, result.row_ranges))
    if args.report:
        atomic_write_text(args.report, report.to_json() + "\n")
    print(f"aligned {len(datasets)} datasets in {elapsed:.2f}s")
    return 0


def _read_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_INT_KEYS = {"n1", "n2", "classes", "dim", "trials", "knn-k", "seed",
             "bands", "t", "knn-bandwidth", "rank", "mnn-k"}
_FLOAT_KEYS = {"spread", "preserved-pct", "sigma", "mnn-sigma"}


def _experiment_config(file_values: dict, args) -> ExperimentConfig:
    merged = dict(file_values)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "n1": args.n1,
        "n2": args.n2,
        "preserved-pct": args.preserved_pct,
        "methods": args.methods,
        "knn-k": args.knn_k,
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    def get(key, default=None):
        value = merged.get(key, default)
        if value is None or value == "":
            return default
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        return value

    align_params = AlignmentParams(
        n_bands=get("bands", 8),
        t=get("t", 1),
        kernel=_KERNEL_NAMES.get(get("kernel", "alg2"), get("kernel", "adaptive")),
        knn=get("knn-bandwidth", 20),
        sigma=get("sigma"),
        rank=get("rank"),
    )
    mnn_params = MnnParams(k=get("mnn-k", 20), sigma=get("mnn-sigma"))
    methods = get("methods", "none,harmonic")
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    sweep = merged.get("preserved-sweep")
    if sweep:
        sweep = tuple(float(p) for p in str(sweep).split(","))
    else:
        sweep = tuple(range(0, 101, 5))
    ratios = merged.get("ratios")
    if ratios:
        ratios = tuple(int(r) for r in str(ratios).split(","))
    else:
        ratios = (1, 2, 4)
    return ExperimentConfig(
        source=get("source", "synthetic-manifold"),
        n1=get("n1", 1000),
        n2=get("n2", 1000),
        classes=get("classes", 10),
        dim=get("dim", 100),
        spread=get("spread", 0.3),
        methods=methods,
        align_params=align_params,
        mnn_params=mnn_params,
        trials=get("trials", 3),
        knn_k=get("knn-k", 5),
        seed=get("seed", 42),
        preserved_sweep=sweep,
        preserved_pct=get("preserved-pct", 35.0),
        ratios=ratios,
    )


def _cmd_experiment(args, parser) -> int:
    try:
        file_values = _read_config(args.config)
    except FileNotFoundError:
        parser.error(f"config file not found: {args.config}")
    cfg = _experiment_config(file_values, args)
    run = corruption_experiment if args.mode == "corruption" else transfer_experiment
    report = run(cfg)
    report.params["version"] = __version__
    if args.report:
        atomic_write_text(args.report, report.to_json() + "\n")
    if args.csv:
        atomic_write_text(args.csv, sweep_csv(report))
    for key in sorted(report.aggregates):
        print(f"{key}: {report.aggregates[key]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmalign",
        description="Isometric alignment of diffusion geometries via "
                    "bandlimited correlation of graph harmonics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two datasets")
    p_align.add_argument("--x", required=True, help="first dataset CSV")
    p_align.add_argument("--y", required=True, help="second dataset CSV")
    _add_align_flags(p_align)

    p_multi = sub.add_parser("multi-align", help="align n >= 2 datasets")
    p_multi.add_argument("--inputs", nargs="+", required=True, help="dataset CSVs")
    _add_align_flags(p_multi)

    p_exp = sub.add_parser("experiment", help="run an experiment protocol")
    p_exp.add_argument("--mode", choices=("corruption", "transfer"), required=True)
    p_exp.add_argument("--config", required=True, help="key=value config file")
    p_exp.add_argument("--report", default=None, help="report JSON output path")
    p_exp.add_argument("--csv", default=None, help="plot-ready CSV output path")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--trials", type=_positive_int, default=None)
    p_exp.add_argument("--n1", type=_positive_int, default=None)
    p_exp.add_argument("--n2", type=_positive_int, default=None)
    p_exp.add_argument("--preserved-pct", type=float, default=None,
                       help="percent of feature columns preserved (transfer mode)")
    p_exp.add_argument("--methods", default=None, help="comma-separated method list")
    p_exp.add_argument("--knn-k", type=_positive_int, default=None,
                       help="k of the lazy k-NN classifier")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "align":
            return _cmd_align(args)
        if args.command == "multi-align":
            if len(args.inputs) < 2:
                parser.error("multi-align needs at least 2 inputs")
            return _cmd_multi_align(args)
        return _cmd_experiment(args, parser)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
