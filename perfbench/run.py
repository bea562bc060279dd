"""Benchmark of harmalign, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``BENCHMARK.json`` and README.md.  A run sets up
(and times more set-ups in fresh processes), repeats one operation until
``--seconds`` have passed (at least once), checks every output, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs traced operations between two untraced ones and reports the per-layer
metrics.  The line before it holds the run's details and machine facts.

The BLAS thread count of this process and of every process it starts is
fixed at ``BLAS_THREADS`` before numpy loads: on two cores, a dense N = 1000
eigensolve took 0.21-0.98 s with two threads and 0.28-0.32 s with one.
"""

from time import perf_counter

START = perf_counter()  # set-up is timed from here: interpreter start-up is excluded

import os  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-ups timed in fresh processes before and again after the operations;
#: with the run's own, three samples spread over the run, as set-up time
#: varies by 20 % within seconds on a busy machine
SETUP_CHILDREN = 1
IMPORT_REPEATS = 3

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (how set-up time is measured)")
    return parser.parse_args(argv)


def import_program():
    """Import harmalign from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "harmalign")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: {package} not found; run from the root of a harmalign checkout")
    sys.path.insert(0, SRC)
    import harmalign

    if os.path.dirname(os.path.abspath(harmalign.__file__)) != package:
        sys.exit(f"error: imported harmalign from {harmalign.__file__}, not {package}")


def child_setup_seconds(args) -> list:
    """Set-up times of fresh processes, each timed as the run's own."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(argv, check=True, timeout=150, capture_output=True, text=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def import_seconds(env) -> float:
    """Median time to import ``harmalign.cli`` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import harmalign.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              timeout=120, capture_output=True, text=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_op(workload, traced=False):
    from workloads import Op

    start = perf_counter()
    try:
        return workload.op(traced=traced)
    except Exception:  # a failing operation is counted, not fatal
        return Op(perf_counter() - start, float("nan"), [traceback.format_exc()])


def repeat(op, seconds) -> list:
    """Whole operations until ``seconds`` have passed, at least one."""
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(op())
    return ops


def median_of(ops, attr) -> float:
    values = [getattr(op, attr) for op in ops if getattr(op, attr) == getattr(op, attr)]
    return statistics.median(values) if values else 0.0


def traced_metrics(workload, seconds, env):
    """Traced operations between two untraced ones; per-layer medians.

    The first untraced operation takes any extra cost of the first full-size
    operation in a process; the second is the baseline of the tracing
    overhead.
    """
    from tracer import Tracer, layer_metrics

    first = run_op(workload)
    tracer = Tracer()
    per_op = []

    def traced_op():
        tracer.reset()
        op = run_op(workload, traced=True)
        if op.trace is None:
            metrics = layer_metrics(tracer.spans, tracer.counts, op.wall)
        else:
            spans, counts, import_s = op.trace
            metrics = layer_metrics(spans, counts, op.wall, outside=import_s)
            metrics["cli.import_s"] = import_s
        per_op.append(metrics)
        return op

    if workload.in_process:
        tracer.install()
    try:
        ops = repeat(traced_op, seconds)
    finally:
        tracer.uninstall()
    baseline = run_op(workload)
    layers = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    if workload.in_process:
        layers["cli.import_s"] = import_seconds(env)
    layers["trace.op_wall_s"] = median_of(ops, "wall")
    layers["trace.overhead_s"] = layers["trace.op_wall_s"] - baseline.wall
    absent = tracer.absent or getattr(workload, "absent", [])
    return [first, *ops, baseline], layers, absent


def main(argv=None) -> int:
    # on SIGTERM unwind normally, so children are stopped and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        workload.setup()
        setups = [perf_counter() - START]
        if args.setup_only:
            print(setups[0])
            return 0
        absent = []
        if args.trace:
            ops, metrics, absent = traced_metrics(workload, args.seconds, child_env())
            units = {name: unit_of(name) for name in metrics}
        else:
            setups += child_setup_seconds(args)
            ops = repeat(lambda: run_op(workload), args.seconds)
            setups += child_setup_seconds(args)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": median_of(ops, "wall"),
                "peak_rss_mb": workload.peak_mb(ops),
                "transfer_acc": median_of(ops, "acc"),
            }
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                     "transfer_acc": "fraction"}
        try:
            run_failures = workload.run_checks(ops)
        except Exception:  # the program failed inside a check: report, do not crash
            run_failures = [traceback.format_exc()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    failed = [op for op in ops if op.failures]
    for problem in run_failures + [f for op in failed for f in op.failures]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_facts(),
        "op_walls_s": [op.wall for op in ops],
        "setup_samples_s": setups,
        "absent_layers": absent,
        "checks": workload.notes(),
        "run_check_failures": run_failures,
    }
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({
        "correct": not run_failures,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
