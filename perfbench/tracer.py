"""Spans and counts recorded at harmalign's public functions, from outside.

``Tracer.install()`` replaces each function listed in ``LAYERS`` by a wrapper
at every name a harmalign module binds it to (``align`` calls
``gauss_kernel_graph`` through its own module globals, ``evaluation`` calls
``harmonic_alignment`` through its own, and so on), so calls made inside the
package are traced too.  No file of the package changes.  A function that no
longer exists is reported as absent and its metrics read 0.

Each span records (key, start, end, parent index, peak bytes).  A layer's
time is the self time of its spans: duration minus the time its direct child
spans cover, so the self times of one operation add up to the duration of
its top-level spans.  Peak allocation is measured with ``tracemalloc``, which
is switched on only inside the spans listed in ``PEAK_KEYS`` (graph
building, eigensolve, alignment) because it slows pure-Python code such as
CSV formatting several-fold.

This module imports nothing outside the standard library, so a fresh process
can import it before numpy and still time ``import harmalign.cli`` alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

PACKAGE = "harmalign"

#: (span key, module, function); several functions may share one key
LAYERS = (
    ("core.load", "core", "load_matrix"),
    ("core.write", "core", "atomic_write_text"),
    ("cli.self", "cli", "main"),
    ("graph.bandwidth", "graph", "adaptive_bandwidth"),
    ("graph.kernel", "graph", "gauss_kernel_graph"),
    ("graph.kernel", "graph", "anisotropic_kernel_graph"),
    ("spectral.eig", "spectral", "fourier_basis"),
    ("filters.weights", "filters", "bandlimiting_weights"),
    ("align.gft", "align", "gft_features"),
    ("align.correlation", "align", "bandlimited_correlation"),
    ("align.orthogonalize", "align", "orthogonalize"),
    ("align.prepare", "align", "prepare_dataset"),
    ("align.assembly", "align", "harmonic_alignment"),
    ("align.assembly", "align", "multi_alignment"),
    ("align.assembly", "align", "align_prepared"),
    ("align.assembly", "align", "unified_diffusion_map"),
    ("baselines.mnn", "baselines", "mnn_correct"),
    ("evaluation.knn", "evaluation", "knn_classify"),
    ("evaluation.driver", "evaluation", "transfer_experiment"),
    ("evaluation.driver", "evaluation", "corruption_experiment"),
)

#: span key -> per-layer metric holding the largest allocation peak of its spans
PEAK_KEYS = {
    "graph.kernel": "graph.peak_mb",
    "spectral.eig": "spectral.peak_mb",
    "align.assembly": "align.peak_mb",
}

MB = float(1 << 20)


def _rows(x) -> int:
    n = getattr(x, "n_points", None)
    return int(n) if n is not None else len(x)


#: span key -> (count name, function of (bound arguments, result) -> increment)
COUNTS = {
    "align.prepare": (
        ("align.prepare_calls", lambda a, r: 1),
        ("align.prepared_points", lambda a, r: _rows(a["X"])),
    ),
    "spectral.eig": (("spectral.eigenpairs", lambda a, r: int(r.psi.shape[1])),),
    "evaluation.knn": (("evaluation.knn_queries", lambda a, r: len(r[0])),),
    "core.write": (("core.bytes_written", lambda a, r: os.path.getsize(a["path"])),),
}

SPAN_KEYS = tuple(dict.fromkeys(key for key, _, _ in LAYERS))
COUNT_NAMES = tuple(name for key in COUNTS for name, _ in COUNTS[key])


class Tracer:
    """Records spans and counts of the wrapped functions of one process."""

    def __init__(self):
        self.spans = []  # [key, start, end, parent, peak bytes or None]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []  # indices of open spans
        self._peaks = []  # [span index, base bytes, running peak bytes]
        self._patches = []  # (module, attribute, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every function of ``LAYERS`` at every name bound to it."""
        for mod in dict.fromkeys(mod for _, mod, _ in LAYERS):
            try:
                importlib.import_module(f"{PACKAGE}.{mod}")
            except ModuleNotFoundError:
                pass  # its functions are reported absent below
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for key, mod, func in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(module, func, None)
            if not callable(original):
                self.absent.append(f"{mod}.{func}")
                continue
            wrapper = self._wrap(key, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, key, fn):
        counters = COUNTS.get(key, ())
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counters:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    for name, increment in counters:
                        self.counts[name] += increment(bound, result)
                except (KeyError, AttributeError, TypeError):  # signature changed
                    if key not in self.absent:
                        self.absent.append(key)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def _enter(self, key):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([key, 0.0, 0.0, parent, None])
        if key in PEAK_KEYS:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                base = 0
            else:
                base, peak = tracemalloc.get_traced_memory()
                for frame in self._peaks:
                    frame[2] = max(frame[2], peak)
                tracemalloc.reset_peak()
            self._peaks.append([index, base, base])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()

    def _exit(self):
        end = perf_counter()
        index = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        if self._peaks and self._peaks[-1][0] == index:
            _, base, running = self._peaks.pop()
            peak = max(running, tracemalloc.get_traced_memory()[1])
            span[4] = peak - base
            if self._peaks:
                self._peaks[-1][2] = max(self._peaks[-1][2], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


def layer_metrics(spans, counts, op_wall: float, outside: float = 0.0) -> dict:
    """Per-layer metrics of one traced operation.

    ``outside`` is time of the operation known to lie outside every span
    (for a CLI child, the import of ``harmalign.cli``); the rest of
    ``op_wall`` not covered by a top-level span is ``trace.unaccounted_s``.
    """
    covered = [0.0] * len(spans)
    top = 0.0
    for key, start, end, parent, _ in spans:
        if parent is None:
            top += end - start
        else:
            covered[parent] += end - start
    metrics = {f"{key}_s": 0.0 for key in SPAN_KEYS}
    metrics.update({name: 0.0 for name in PEAK_KEYS.values()})
    for i, (key, start, end, _, peak) in enumerate(spans):
        metrics[f"{key}_s"] += end - start - covered[i]
        if peak is not None:
            name = PEAK_KEYS[key]
            metrics[name] = max(metrics[name], peak / MB)
    for name in COUNT_NAMES:
        metrics[name] = float(counts.get(name, 0))
    metrics["trace.unaccounted_s"] = op_wall - top - outside
    return metrics
