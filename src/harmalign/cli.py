"""Command-line front end: alignment and the experiment harness.

Subcommands
-----------
align        Align two CSV datasets (``--x``, ``--y``); the n = 2 case of
             multi-align, writing the same embedding and report.
multi-align  Align n >= 2 datasets into one block embedding.
experiment   Run the corruption sweep or transfer protocol from a config file.

Exit codes: 0 success, 1 runtime error, 2 usage error.  Config files are
flat ``key=value`` text mirroring the flag names; an unknown key is an
error, a key left out takes its dataclass default, and command-line flags
override file values.  Every report embeds the complete effective
configuration and the library version.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import typing
from dataclasses import asdict, fields
from time import perf_counter

import numpy as np

from . import __version__
from .align import AlignmentParams, multi_alignment
from .baselines import MnnParams
from .core import Report, atomic_write_text, csv_parts, load_matrix, write_output
from .evaluation import (
    ExperimentConfig,
    corruption_experiment,
    sweep_csv,
    transfer_experiment,
)
from .graph import nearest
from .spectral import FULL_DECOMPOSITION_LIMIT, RANK_AUTO

_KERNEL_NAMES = {"alg2": "adaptive", "eq1": "anisotropic"}
_ALIGN_DEFAULTS = AlignmentParams()

#: config key -> (dataclass, field).  The field's type converts the value, a
#: key left out takes the field's default, and a command-line flag is named
#: like its key (``--knn-bandwidth`` sets ``knn-bandwidth``).
_CONFIG_KEYS = {
    **{f.name.replace("_", "-"): (ExperimentConfig, f.name)
       for f in fields(ExperimentConfig) if f.name not in ("align_params", "mnn_params")},
    "bands": (AlignmentParams, "n_bands"),
    "t": (AlignmentParams, "t"),
    "kernel": (AlignmentParams, "kernel"),
    "knn-bandwidth": (AlignmentParams, "knn"),
    "sigma": (AlignmentParams, "sigma"),
    "rank": (AlignmentParams, "rank"),
    "mnn-k": (MnnParams, "k"),
    "mnn-sigma": (MnnParams, "sigma"),
}


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
    # every default is None so that only the flags given reach AlignmentParams
    kernel = {name: flag for flag, name in _KERNEL_NAMES.items()}[_ALIGN_DEFAULTS.kernel]
    parser.add_argument("--bands", type=_positive_int,
                        help=f"itersine band count (default {_ALIGN_DEFAULTS.n_bands})")
    parser.add_argument("--t", type=_non_negative_int,
                        help=f"diffusion time (default {_ALIGN_DEFAULTS.t})")
    parser.add_argument("--knn-bandwidth", type=_positive_int,
                        help="adaptive kernel: neighbor count of the smallest input; the others "
                             f"scale with size, 2%% at least (default {_ALIGN_DEFAULTS.knn})")
    parser.add_argument("--sigma", type=float,
                        help="bandwidth for fixed/anisotropic kernels")
    parser.add_argument("--rank", type=_positive_int,
                        help=f"spectral truncation, 2 to the smallest input's N (default: "
                             f"full up to N={FULL_DECOMPOSITION_LIMIT}, else {RANK_AUTO})")
    parser.add_argument("--kernel", choices=sorted(_KERNEL_NAMES),
                        help="kernel: alg2 = symmetric adaptive Gaussian, "
                             f"eq1 = anisotropic (default {kernel})")
    parser.add_argument("--out", default=None, help="embedding CSV output path")
    parser.add_argument("--report", default=None, help="report JSON output path")


def _convert(hint, value):
    """A config value (text, or an already parsed flag) as field type ``hint``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] from "a,b,c"
        return tuple(args[0](v.strip()) for v in str(value).split(",") if v.strip())
    return (args[0] if args else hint)(value)  # X | None converts as X


def _field_values(file_values: dict, args) -> dict:
    """Keyword arguments, one dict per dataclass, from the config file's
    values overridden by the flags given.  A key given nowhere, or with an
    empty value, is left out and so takes its field's default."""
    values = {key: value for key, value in file_values.items() if value != ""}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            values[key] = flag
    given = {ExperimentConfig: {}, AlignmentParams: {}, MnnParams: {}}
    for key, value in values.items():
        cls, name = _CONFIG_KEYS[key]
        try:
            given[cls][name] = _convert(typing.get_type_hints(cls)[name], value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    kernel = given[AlignmentParams].get("kernel")
    if kernel is not None:
        given[AlignmentParams]["kernel"] = _KERNEL_NAMES.get(kernel, kernel)
    return given


def _write_embedding(path, phi: np.ndarray, ranges) -> None:
    """Embedding rows tagged with dataset id and original row index."""
    sizes = [hi - lo for lo, hi in ranges]
    ids = np.column_stack([np.repeat(np.arange(len(sizes)), sizes),
                           np.concatenate([np.arange(size) for size in sizes])])
    header = ["dataset", "row"] + [f"c{j + 1}" for j in range(phi.shape[1])]
    atomic_write_text(path, *csv_parts(phi, header, ids=ids))


def _self_match_rates(phi: np.ndarray, ranges) -> dict:
    """``self_match_rate_i_j`` for every pair i < j of equal-sized datasets:
    the fraction of dataset i's rows whose nearest dataset-j row, by
    (distance, index), is row-matched.  The pairs run in this process, in
    order: on three 1000-row views, forked workers did not beat that."""
    rates = {}
    for (i, (lo1, hi1)), (j, (lo2, hi2)) in itertools.combinations(enumerate(ranges), 2):
        if hi1 - lo1 == hi2 - lo2:
            idx, _ = nearest(phi[lo1:hi1], phi[lo2:hi2], 1)
            rates[f"self_match_rate_{i}_{j}"] = float((idx[:, 0] == np.arange(hi1 - lo1)).mean())
    return rates


def _cmd_align(args, paths) -> int:
    """``align`` (``paths = [x, y]``) and ``multi-align`` (``paths = inputs``).

    The report's ``seconds`` times the alignment alone; the self-match rates
    (:func:`_self_match_rates`) are computed after it, and the embedding is
    written last."""
    params = AlignmentParams(**_field_values({}, args)[AlignmentParams])
    datasets = [load_matrix(path) for path in paths]
    start = perf_counter()
    result = multi_alignment(datasets, params)
    elapsed = perf_counter() - start
    report = Report(
        params={
            "command": args.command,
            "version": __version__,
            "inputs": list(paths),
            "align_params": asdict(params),
        },
        aggregates={"seconds": elapsed, **result.diagnostics,
                    **_self_match_rates(result.phi, result.row_ranges)},
    )
    if args.out:
        _write_embedding(args.out, result.phi, result.row_ranges)
    if args.report:
        write_output(report, args.report)
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
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _cmd_experiment(args, parser) -> int:
    try:
        file_values = _read_config(args.config)
    except FileNotFoundError:
        parser.error(f"config file not found: {args.config}")
    given = _field_values(file_values, args)
    cfg = ExperimentConfig(
        align_params=AlignmentParams(**given[AlignmentParams]),
        mnn_params=MnnParams(**given[MnnParams]),
        **given[ExperimentConfig],
    )
    run = corruption_experiment if args.mode == "corruption" else transfer_experiment
    report = run(cfg)
    report.params["version"] = __version__
    if args.report:
        write_output(report, args.report)
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
            return _cmd_align(args, [args.x, args.y])
        if args.command == "multi-align":
            if len(args.inputs) < 2:
                parser.error("multi-align needs at least 2 inputs")
            return _cmd_align(args, args.inputs)
        return _cmd_experiment(args, parser)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
