"""Shared containers, matrix file I/O, seeded randomness, report handling,
the probe of memory available for new allocations, and the routines that run
work in forked children.

All numeric data is dense 64-bit real.  CSV is the only matrix file format
(optional single header line, optional trailing ``label`` column), and this
module alone reads and writes it.  A matrix is written in row slices, one per
usable CPU: the first is formatted by this process into a temp file, each
other one by a forked child into a sibling temp file, and the slices are then
concatenated in order and renamed into place.  Each slice streams in blocks
of 16384 cells that numpy formats, so no output is ever held whole in
memory, and the bytes do not depend on the slice count.  Every cell reads as
Python's ``format(v, ".17g")``: a cell's 17 digits come from a double-double
product whose fraction is within 4e-15 of the exact one, and a cell within
1e-9 of a rounding tie is left to Python (:func:`csv_lines`).

:func:`forked` is the only place a child is forked and reaped; each child
sends back what its task returned or raised through a pipe, and creates no
file.  The matrix writer runs through it, and so does :func:`pool_map`,
the one worker pool: it maps a function over items on as many workers as the
usable CPUs, the BLAS threads and the memory allow, and returns results,
warnings, log records and errors as a serial run gives them.  The experiment
drivers' arms (``evaluation``) and the datasets of an alignment (``align``)
run on it.  Nothing is forked off Linux.
Randomness is counter-based (Philox) so a seed fully determines every
experiment on every platform.  All containers are immutable by convention
after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import pickle
import re
import shutil
import signal
import sys
import types
import warnings
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

_U64 = (1 << 64) - 1
_COPY_BYTES = 1 << 20  # chunk of a part file appended at a time


class Rng:
    """Seeded counter-based random stream.

    Wraps numpy's Philox bit generator, which is counter-based and emits an
    identical stream for an identical seed on every platform.  Independent
    child streams for experiment arms are derived with :meth:`spawn`, which
    hashes the supplied tags into the second Philox key word so arms never
    overlap.

    Parameters
    ----------
    seed : int
        64-bit unsigned seed.
    """

    def __init__(self, seed: int, _stream: int = 0):
        self.seed = int(seed) & _U64
        self._stream = int(_stream) & _U64
        bitgen = np.random.Philox(key=[self.seed, self._stream])
        self.generator = np.random.Generator(bitgen)

    def spawn(self, *tags) -> "Rng":
        """Derive an independent stream keyed by ``tags`` (ints or strings).

        The parent's own stream id is folded into the hash so chained spawns
        (``rng.spawn(a).spawn(b)``) stay distinct across parents.
        """
        h = np.uint64(self._stream ^ 0xCBF29CE484222325)
        for byte in repr(tags).encode("utf-8"):
            h = np.uint64((int(h) ^ byte) * 0x100000001B3 & _U64)
        return Rng(self.seed, int(h))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Rng(seed={self.seed}, stream={self._stream})"


@dataclass(frozen=True)
class DataMatrix:
    """Points-by-features matrix with optional integer class labels.

    Attributes
    ----------
    values : (N, d) ndarray of float64
        One row per point, one column per feature.  Every entry finite.
    labels : (N,) ndarray of int or None
        Optional class labels, integers from 0 to 2**53, the range
        :func:`load_matrix` reads.  Float labels must be whole numbers; they
        are refused, not truncated.
    name : str
        Identifier used in reports and error messages.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    name: str = "data"

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2:
            raise ValueError(f"{self.name}: values must be 2-D, got {values.ndim}-D")
        n, d = values.shape
        if n < 2 or d < 1:
            raise ValueError(f"{self.name}: need N >= 2 and d >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"{self.name}: non-finite entry at row {i}, column {j}")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            # strings, objects and complex numbers are no integers (the cast
            # drops an imaginary part); it truncates, so a float label must
            # be a finite whole number
            kind = labels.dtype.kind
            if kind not in "biuf" or kind == "f" and not np.all(
                    np.isfinite(labels) & (np.rint(labels) == labels)):
                raise ValueError(f"{self.name}: labels must be integers")
            if labels.shape != (n,):
                raise ValueError(
                    f"{self.name}: labels length {labels.shape} does not match N={n}"
                )
            # before the cast, which wraps or warns past int64; 2**53 is the
            # largest label load_matrix reads back
            if np.any(labels < 0):
                raise ValueError(f"{self.name}: labels must be non-negative")
            if np.any(labels > 2**53):
                raise ValueError(f"{self.name}: labels must be at most 2**53")
            object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def as_values(X) -> np.ndarray:
    """The float64 point-by-feature array of a DataMatrix or array-like."""
    return X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=np.float64)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError, naming the field, unless ``value`` is an integer of
    at least ``minimum``."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class Report:
    """Key-value experiment record: parameters, per-trial rows, aggregates.

    Serializes to JSON and round-trips losslessly (floats survive via the
    shortest-repr encoding used by the ``json`` module).
    """

    params: dict = field(default_factory=dict)
    trials: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "params": self.params,
            "trials": self.trials,
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        payload = json.loads(text)
        return cls(
            params=payload.get("params", {}),
            trials=payload.get("trials", []),
            aggregates=payload.get("aggregates", {}),
        )


def load_matrix(path, name: str | None = None) -> DataMatrix:
    """Load a DataMatrix from a CSV file.

    Parameters
    ----------
    path : path-like
        Comma separated, '.' decimal, optional single header line with one
        field per column; a final header field named ``label``
        (case-insensitive) marks a label column, each of whose cells must
        spell, exactly, an integer from 0 to 2**53.  Blank lines are skipped.
    name : str, optional
        Name for the resulting matrix; defaults to the file stem.

    Returns
    -------
    DataMatrix
        Rows in file order.  Errors name the row (counting non-blank lines
        from 0, header included) and column of the first bad cell.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError(f"{path}: no rows")
    first = [tok.strip() for tok in lines[0].split(",")]
    has_labels = False
    start = 0
    try:
        # numpy parses str cells with Python's float(), whitespace included
        np.array(first, dtype=np.float64)
    except ValueError:  # a header
        start = 1
        has_labels = first[-1].lower() == "label"
    rows = lines[start:]
    if not rows:
        raise ValueError(f"{path}: no rows")
    # 2048-row blocks bound the cells held as Python strings at a time
    blocks = [rows[lo : lo + 2048] for lo in range(0, len(rows), 2048)]
    try:
        values = np.concatenate(
            [np.array([row.split(",") for row in block], dtype=np.float64) for block in blocks]
        )
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise _first_bad_cell(rows, start, path)
    if start and len(first) != values.shape[1]:
        raise ValueError(
            f"{path}: header has {len(first)} fields but rows have {values.shape[1]}"
        )
    labels = None
    if has_labels:
        # each label cell is judged as the exact decimal it spells, since float64
        # rounds some bad ones onto integers (1.0000000000000001, 2**53 + 1)
        for i, row in enumerate(rows, start):
            label = Decimal(row.rsplit(",", 1)[1])
            problem = ("non-integer label" if label != label.to_integral_value()
                       else "negative label" if label < 0
                       else "label above 2**53" if label > 2**53 else None)
            if problem:
                raise ValueError(f"{path}: {problem} at row {i}")
        # float64 holds every integer up to 2**53 exactly
        labels = values[:, -1].astype(np.int64)
        values = values[:, :-1]
    return DataMatrix(values=values, labels=labels, name=name)


def _first_bad_cell(rows, start: int, path) -> ValueError:
    """The error for the first ragged row, non-numeric cell or non-finite
    entry of ``rows`` (CSV lines), which must hold one."""
    width = len(rows[0].split(","))
    for i, cells in enumerate((row.split(",") for row in rows), start):
        if len(cells) != width:
            return ValueError(f"{path}: ragged row {i}: expected {width} cells, got {len(cells)}")
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                return ValueError(
                    f"{path}: non-numeric cell {cell.strip()!r} at row {i}, column {j}"
                )
            if not np.isfinite(value):
                return ValueError(f"{path}: non-finite entry at row {i}, column {j}")
    raise AssertionError(f"{path}: no bad cell among the rows")


def atomic_write_text(path, *parts) -> None:
    """Write ``parts`` in order to ``path`` atomically: into a temp file, then
    renamed.  Each part is a string or an iterable of strings, written as they
    come.  A new file gets the mode ``open()`` would give it, 0o666 less the
    umask.

    The first part is written by this process; every later one by a
    :func:`forked` child into a sibling temp file, whose bytes are then
    appended, so iterating the parts (say, formatting a matrix's row slices)
    runs on as many CPUs as there are parts.  A part that fails raises its
    own exception, the earliest part's first, as a serial write would.  Then
    neither ``path`` nor any temp file is left behind, and every child has
    been reaped."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OSError(f"cannot write {path}: directory does not exist")
    parts = [(part,) if isinstance(part, str) else part for part in parts or ("",)]
    fd, tmp = _new_temp(directory)
    temps = [tmp]
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for _ in parts[1:]:
                part_fd, part_tmp = _new_temp(directory)
                os.close(part_fd)
                temps.append(part_tmp)
            forked(lambda: handle.writelines(parts[0]),
                   [functools.partial(_write_part, *task) for task in zip(parts[1:], temps[1:])])
            handle.flush()
            for part_tmp in temps[1:]:
                with open(part_tmp, "rb") as part_file:
                    shutil.copyfileobj(part_file, handle.buffer, _COPY_BYTES)
        os.replace(tmp, path)
    finally:
        for name in temps:
            if os.path.exists(name):
                os.unlink(name)


def _new_temp(directory: str) -> tuple[int, str]:
    """A new ``.tmp`` file in ``directory``, open for writing, created as
    ``open()`` creates a file (mode 0o666 less the umask), unlike
    ``tempfile.mkstemp`` (0o600): it becomes the output when renamed."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)  # as mkstemp
    while True:
        name = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            return os.open(name, flags, 0o666), name
        except FileExistsError:
            continue


def _write_part(part, name: str) -> None:
    """Write a part of :func:`atomic_write_text`, an iterable of strings, to
    the file ``name``."""
    with open(name, "w", encoding="utf-8") as handle:
        handle.writelines(part)


def forked(here, tasks) -> tuple:
    """``(here(), [task() for task in tasks])``, with ``here()`` called in this
    process while each task runs in its own ``os.fork`` child.

    A child sends back what its task returned or raised through a pipe
    (:func:`_run_and_exit`), read here in task order once ``here()`` has
    returned.  Every child is reaped before this returns or raises, and
    killed first when ``here()``, a fork or a read raised, since its result
    is then unused.  The first exception is raised as it was raised:
    ``here()``'s, then each task's in task order; a child that sent nothing
    whole back raises ``ChildProcessError`` naming its exit status.  With no
    tasks nothing is forked."""
    reads, pids, sent = [], [], []
    try:
        try:
            for task in tasks:
                read, write = os.pipe()
                reads.append(read)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _run_and_exit(reads, write, task)
                finally:
                    os.close(write)
                pids.append(pid)
            result = here()
            for read in reads:
                with os.fdopen(read, "rb", closefd=False) as pipe:
                    try:
                        sent.append(pickle.load(pipe))
                    except (EOFError, pickle.UnpicklingError):  # cut off, or nothing sent
                        sent.append(None)
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
    finally:
        for read in reads:
            os.close(read)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, outcome in zip(codes, sent):
        if outcome is None:
            raise ChildProcessError(f"a forked child exited with status {code}")
        if outcome[1] is not None:
            raise outcome[1]
    return result, [value for value, _ in sent]


def _run_and_exit(reads, write: int, task) -> None:
    """A forked child's whole life: close the pipes' read ends ``reads`` it
    inherited, call ``task()``, pickle ``(value, None)`` or ``(None,
    exception)`` into the pipe ``write``, and exit with status 0, or 1 if it
    could not send.

    It never returns into the parent's code, so no ``except``, ``finally`` or
    ``atexit`` handler of the parent runs twice and no buffer the parent left
    unflushed is written twice.  A task may compute with numpy and BLAS, warn
    and log: the program starts no thread of its own; OpenBLAS's fork handler
    stops its thread pool before the fork, so the child starts with one
    thread and builds its own pool; and Python holds its import lock across
    the fork, as ``logging`` does its locks."""
    status = 1
    try:
        for read in reads:
            os.close(read)
        try:
            outcome = task(), None
        except Exception as error:
            outcome = None, error
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


#: the variables OpenBLAS reads its thread count from, in the order it reads them
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def pool_map(func, items, item_bytes: int, min_bytes: int = 0) -> list:
    """``[func(item) for item in items]``, run on as many workers as the
    machine can give: the items in contiguous slices, one per worker, the
    first run by this process and each other one by a :func:`forked` child.

    The workers are the fewest of the items, the usable CPUs divided by the
    BLAS threads each worker runs (:func:`_blas_threads`), and the items the
    available memory holds at ``item_bytes`` (the largest item's footprint)
    each.  Nothing is forked for one worker or for items under ``min_bytes``
    (too small to pay for a fork).

    Results come back in item order.  A worker's warnings and ``logging``
    records are issued again here, in item order, and the earliest item's
    error is raised with its type and message, as a serial run raises it.
    A worker that cannot send its results back (say, one of them cannot be
    pickled) or dies raises ``ChildProcessError`` (:func:`forked`).
    """
    items = list(items)
    count = 1
    if len(items) > 1 and item_bytes >= min_bytes:
        count = min(len(items), _usable_cpus() // _blas_threads())
        available = _available_memory()
        if available is not None:
            count = min(count, available // item_bytes)
    if count <= 1:
        return [func(item) for item in items]
    slices = [items[part] for part in _slices(len(items), count)]
    tasks = [functools.partial(_run_slice, func, part) for part in slices[1:]]
    results, sent = forked(lambda: [func(item) for item in slices[0]], tasks)
    for outcome in sent:
        results += _slice_results(outcome)
    return results


def _slices(n: int, count: int) -> list:
    """``count`` contiguous slices of ``range(n)``, in order, whose lengths
    differ by at most one."""
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _blas_threads() -> int:
    """The threads each BLAS call runs on, read as OpenBLAS reads them: the
    first of ``_THREAD_VARIABLES`` whose leading integer (C's ``atoi``) is
    positive, else the usable CPUs."""
    for name in _THREAD_VARIABLES:
        match = re.match(r"\s*[+-]?\d+", os.environ.get(name, ""))
        if match and int(match.group()) > 0:
            return int(match.group())
    return _usable_cpus()


def _run_slice(func, items) -> tuple:
    """A pool worker's task: ``(results, error, issued)``, the results of
    ``func`` over ``items`` up to the first exception, that exception (or
    None), and the warnings and ``logging`` records issued on the way, in
    the order issued.

    This child's own warning display and log handlers are replaced by the
    record, so each is handled once, by this process's parent."""
    issued, results, error = [], [], None
    warnings.showwarning = lambda message, category, filename, lineno, *_: issued.append(
        (message, category, filename, lineno))
    logging.Logger.callHandlers = lambda logger, record: issued.append(record)
    try:
        for item in items:
            results.append(func(item))
    except Exception as raised:  # raised again by _slice_results
        error = raised
    return results, error, issued


def _slice_results(outcome: tuple) -> list:
    """The results of a :func:`_run_slice` worker's ``(results, error,
    issued)``, after issuing its warnings and log records here; the
    exception it raised, if it raised one."""
    results, error, issued = outcome
    for event in issued:
        if isinstance(event, logging.LogRecord):
            logging.getLogger(event.name).handle(event)
        else:
            warnings.warn_explicit(*event)
    if error is not None:
        raise error
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where nothing is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


#: cells :func:`csv_lines` formats at a time; a block's numpy temporaries
#: peak at about 180 bytes a cell (``tracemalloc``)
_BLOCK_CELLS = 1 << 14
#: a cell whose scaled value's fraction lies this close to 1/2 is left to
#: Python (:func:`_decimal`): far above the fraction's error, under 4e-15
_TIE_TOLERANCE = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a float64 into 26-bit halves
#: the decimal exponents of finite non-zero float64 (-324 to 308), widened by
#: one either side for a first guess off by one
_E_MIN, _E_MAX = -325, 309
#: cell layouts, each with 17 rows of :func:`_csv_tables`' masks (one per
#: count of significant digits): 0-20 are fixed notation at exponents -4 to
#: 16, then exponent notation with two and three exponent digits, zero, and
#: cells Python formats
_EXP2, _EXP3, _ZERO, _PYTHON = 21, 22, 23, 24


def csv_lines(values, header=None, ids=None, labels=None):
    """Yield a matrix as CSV text: ``header`` (a list of names) if given,
    then one line per row of ``values``, in blocks of at most
    ``_BLOCK_CELLS`` cells (whole lines, or part of a line wider than that).

    Each row is preceded by its row of integer ``ids`` and followed by its
    integer ``label``, when these are given; every id and label must lie
    within [-2**53, 2**53], where float64 holds each integer exactly
    (:func:`csv_parts` refuses any other).  Every cell, id and label
    included, is turned into float64 and reads as Python's
    ``format(v, ".17g")``: 17 significant digits, so a write/load round trip
    preserves every float64, and an integer prints as ``"%d"`` prints it.
    numpy formats the cells (:func:`_format_cells`); the few whose rounding
    it cannot decide within ``_TIE_TOLERANCE``, NaN and ±inf fall back to
    Python.  Each line depends only on its own row, so row slices written
    one after another give the same bytes as the whole (see
    :func:`csv_parts`).
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = len(values)
    lead = np.empty((n, 0), np.int64) if ids is None else np.asarray(ids)
    tail = np.empty((n, 0), np.int64) if labels is None else np.asarray(labels)[:, None]
    if header is not None:
        yield ",".join(header) + "\n"
    columns = (lead, values, tail)
    width = sum(column.shape[1] for column in columns)
    if width == 0:
        yield "\n" * n
        return
    rows = max(1, _BLOCK_CELLS // width)
    for lo in range(0, n, rows):
        # float64 holds every id and label (within 2**53 of 0) exactly
        cells = np.hstack([column[lo:lo + rows] for column in columns], dtype=np.float64).ravel()
        for start in range(0, len(cells), _BLOCK_CELLS):
            yield _format_cells(cells[start:start + _BLOCK_CELLS], width, start)


def _format_cells(x, width: int, start: int) -> str:
    """CSV text of the cells ``x`` of a row-major matrix ``width`` cells
    wide, the first at flat index ``start``: each cell as
    ``format(v, ".17g")``, then "," or, after a row's last cell, a newline.
    Where :func:`_decimal` leaves a cell ``x[i]`` undecided, or it is NaN or
    ±inf, Python prints it, as ``"%.17g" % x[i]``.

    Each cell is laid out in 32 bytes, eight little-endian words::

        sign "0.0" | "00" d0 "." | d1-d4 | d5-d8 | d9-d12 | d13-d16 | "e" sign h t | o sep

    (the 17 digits d0-d16 and the exponent's h, t and o digits).  A mask per
    layout and digit count keeps the bytes the cell prints, as printf's
    ``%.17g`` does: fixed notation for exponents -4 to 16, no trailing
    zeros, and a point only before a digit.  The others become NUL and are
    deleted.  A zero is ``0`` or ``-0`` and takes no digit arithmetic.
    """
    t = _csv_tables()
    a = np.abs(x)
    finite = np.isfinite(a)
    nonzero = np.flatnonzero(finite & (a != 0))
    key = np.where(finite, _ZERO * 17, _PYTHON * 17)
    cells = np.empty((len(x), 8), "<u4")
    cells[:, 0] = np.take(t.sign, np.signbit(x).view(np.uint8))
    last = np.zeros(len(x), np.uint8)
    last[(width - 1 - start) % width::width] = 1
    cells[:, 7] = np.take(t.sep, last)
    if len(nonzero):
        d, e, undecided = _decimal(a[nonzero], t)
        d0 = d // 10**16
        rest = d - d0 * 10**16
        hi8 = rest // 10**8
        lo8 = rest - hi8 * 10**8
        groups = np.empty((len(d), 4), np.intp)  # d1-d4, d5-d8, d9-d12, d13-d16
        groups[:, 0] = hi8 // 10**4
        groups[:, 1] = hi8 - groups[:, 0] * 10**4
        groups[:, 2] = lo8 // 10**4
        groups[:, 3] = lo8 - groups[:, 2] * 10**4
        zeros = np.take(t.trailing, groups)
        trailing = zeros[:, 3] + (zeros[:, 3] == 4) * (
            zeros[:, 2] + (zeros[:, 2] == 4) * (zeros[:, 1] + (zeros[:, 1] == 4) * zeros[:, 0]))
        fixed = (e >= -4) & (e <= 16)
        layout = np.where(fixed, e + 4, np.where(np.abs(e) < 100, _EXP2, _EXP3))
        key[nonzero] = np.where(undecided, _PYTHON * 17, layout * 17 + 16 - trailing)
        words = np.empty((len(d), 7), "<u4")
        words[:, 0] = np.take(t.lead, d0)
        words[:, 1:5] = np.take(t.quad, groups)
        words[:, 5] = np.take(t.exp, e - _E_MIN)
        words[:, 6] = np.take(t.ones, e - _E_MIN) | np.take(cells[:, 7], nonzero)
        cells[nonzero, 1:] = words
        # fixed notation with digits after the point: d0 "." d1 ... becomes
        # d0 ... d(e) "." d(e+1) ...
        inner = np.flatnonzero(fixed & (e >= 0) & (16 - trailing > e))
        if len(inner):
            rows = cells.view(np.uint8)
            at = nonzero[inner]
            rows[at, 6:24] = np.take_along_axis(rows[at, 6:24], t.point[e[inner]], axis=1)
    np.bitwise_and(cells, np.take(t.mask, key, axis=0), out=cells)
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    left = np.flatnonzero(key == _PYTHON * 17)
    if not len(left):
        return text
    # each such cell printed its separator only: insert its text before it
    ends = np.cumsum(np.count_nonzero(cells.view(np.uint8), axis=1))
    pieces, done = [], 0
    for i in left.tolist():
        pieces += [text[done:ends[i] - 1], "%.17g" % x[i]]
        done = ends[i] - 1
    pieces.append(text[done:])
    return "".join(pieces)


def _decimal(a, t):
    """``(d, e, undecided)`` for finite non-zero magnitudes ``a``: the 17
    significant digits ``d`` (an integer in [10**16, 10**17)) and decimal
    exponent ``e`` of ``a`` correctly rounded, ``a ≈ d * 10**(e - 16)``.

    The scaled value ``y = a * 10**(16 - e)`` is a double-double (Dekker's
    exact product, no FMA needed), and its fraction is within 4e-15 of the
    exact one: rounding is decided unless it lies within ``_TIE_TOLERANCE``
    of 1/2, where ``undecided`` is set (exact ties included).  ``e`` starts
    as ``floor(log10(a))`` and is corrected where ``floor(y)`` has 16 or 18
    digits; a carry to 10**17 moves to the next exponent."""
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e, t)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if len(off):
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], frac[off] = _scaled(a[off], e[off], t)
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e[carry] += 1
    undecided = (np.abs(frac - 0.5) < _TIE_TOLERANCE) | (d < 10**16) | (d >= 10**17)
    return d, e, undecided


def _scaled(a, e, t):
    """``floor(y)`` and ``y - floor(y)`` for ``y = a * 10**(16 - e)``.

    With ``10**p = 2**s * (hi + lo)`` from the table, ``a * 2**s`` is exact
    (subnormals included) and lies near 10**16, so its product with ``hi``
    splits into 26-bit halves without overflow, and ``x + err`` is that
    product exactly.  The fraction's error is the rounding of
    ``err + a * 2**s * lo`` and of ``lo``: under 4e-15 for ``y`` below
    2**57."""
    i = _E_MAX - e  # the row of 10**(16 - e)
    a = np.ldexp(a, np.take(t.shift, i))
    hi, lo, hi1, hi2 = (np.take(column, i) for column in t.power)
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    x = a * hi
    err = a2 * hi2 - (((x - a1 * hi1) - a2 * hi1) - a1 * hi2)
    tail = err + a * lo
    whole = np.floor(tail)
    return x.astype(np.int64) + whole.astype(np.int64), tail - whole


@functools.cache
def _csv_tables():
    """The look-up tables of :func:`_format_cells`, built from exact integers
    on the first write (not at import, which the CLI pays for)."""
    shift, hi, lo = [], [], []
    for p in range(16 - _E_MAX, 17 - _E_MIN):  # 10**p = 2**s * (hi + lo), hi in [1, 2)
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length()
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        if num < den:
            num, s = num << 1, s - 1
        h = num / den  # correctly rounded, as is the remainder below
        hn, hd = h.as_integer_ratio()
        shift.append(s)
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi1 = c - (c - hi)

    def words(texts):
        return np.array([int.from_bytes(w.encode().ljust(4, b"\0"), "little") for w in texts],
                        dtype="<u4")

    group = np.arange(10**4)  # four digits, and their trailing zeros (four for 0)
    exponents = [f"{e:+04d}" for e in range(_E_MIN, _E_MAX + 1)]
    digit = [6] + list(range(8, 24))  # byte of each of d0-d16
    mask = np.zeros((25 * 17, 32), np.uint8)
    for layout in range(25):
        for n in range(1, 18):
            e = layout - 4
            if 0 <= e <= 16:
                keep = list(range(6, 7 + n)) if n > e + 1 else digit[:e + 1]
            elif e < 0:
                keep = list(range(1, 2 - e)) + digit[:n]  # "0." and -e-1 zeros
            elif layout in (_EXP2, _EXP3):
                keep = digit[:1] + [7] * (n > 1) + digit[1:n] + [24, 25, 27, 28]
                keep += [26] * (layout == _EXP3)
            else:
                keep = [1] * (layout == _ZERO)
            mask[layout * 17 + n - 1, keep + [0, 29] if layout != _PYTHON else [29]] = 0xFF
    point = np.tile(np.arange(18), (17, 1))
    for e in range(16):  # d0 "." d1 ... d16 -> d0 ... d(e) "." d(e+1) ... d16
        point[e] = [0, *range(2, e + 2), 1, *range(e + 2, 18)]
    return types.SimpleNamespace(
        shift=np.array(shift, np.int32),
        power=(hi, np.array(lo), hi1, hi - hi1),
        sign=words(["\0" + "0.0", "-0.0"]),
        sep=words(["\0,", "\0\n"]),
        lead=words([f"00{d}." for d in range(10)]),
        quad=sum((48 + group // 10**(3 - k) % 10) << 8 * k for k in range(4)).astype("<u4"),
        trailing=sum((group % 10**k == 0).astype(np.int8) for k in range(1, 5)),
        exp=words(["e" + x[:3] for x in exponents]),
        ones=words([x[3] for x in exponents]),
        mask=mask.view("<u4"),
        point=point,
    )


def csv_parts(values, header=None, ids=None, labels=None) -> list:
    """:func:`csv_lines` of ``values`` as row slices, one per usable CPU but
    at most one per row, for :func:`atomic_write_text`; the header goes with
    the first slice.

    ``ValueError`` if an id or label lies outside [-2**53, 2**53], where
    float64 no longer holds every integer: raised here, before any temp file
    is made or child forked, since the slices are formatted lazily."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    columns = [None if a is None else np.asarray(a) for a in (ids, labels)]
    # compared, not np.abs'ed: abs wraps at int64's minimum
    if any(a is not None and (np.any(a < -2**53) or np.any(a > 2**53)) for a in columns):
        raise ValueError("ids and labels must lie within [-2**53, 2**53]")
    n = len(values)
    return [
        csv_lines(values[rows], header if rows.start == 0 else None,
                  *(None if a is None else a[rows] for a in columns))
        for rows in _slices(n, max(1, min(_usable_cpus(), n)))
    ]


def write_output(obj, path) -> None:
    """Write a Report (JSON) or matrix (CSV, see :func:`csv_parts`) to
    ``path`` atomically.

    A DataMatrix with labels gets a ``f1,...,fd,label`` header; a matrix
    without labels is written without a header.
    """
    if isinstance(obj, Report):
        atomic_write_text(path, obj.to_json() + "\n")
    elif isinstance(obj, DataMatrix):
        header = None
        if obj.labels is not None:
            header = [f"f{j + 1}" for j in range(obj.n_features)] + ["label"]
        atomic_write_text(path, *csv_parts(obj.values, header, labels=obj.labels))
    elif isinstance(obj, np.ndarray):
        atomic_write_text(path, *csv_parts(obj))
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")


#: where :func:`_available_memory` reads the kernel's and the cgroup's figures
_MEMINFO = "/proc/meminfo"
_SELF_CGROUP = "/proc/self/cgroup"
_CGROUP = "/sys/fs/cgroup"


def _read_first(path, prefix: str = "") -> str:
    """The first line of ``path`` starting with ``prefix``, less the prefix, stripped."""
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(prefix):
                return line[len(prefix) :].strip()
    raise ValueError(f"{path}: no line starts with {prefix!r}")


def _cgroup_groups() -> list[str]:
    """The process's cgroup v2 group (the ``0::`` line of ``/proc/self/cgroup``)
    under ``_CGROUP``, then each ancestor up to ``_CGROUP`` itself; only
    ``_CGROUP`` when that line is ``0::/``, unreadable or not visible here."""
    try:
        parts = [part for part in _read_first(_SELF_CGROUP, "0::").split("/") if part]
    except (OSError, ValueError):
        parts = []
    if not os.path.isdir(os.path.join(_CGROUP, *parts)):
        parts = []
    return [os.path.join(_CGROUP, *parts[:i]) for i in range(len(parts), -1, -1)]


def _available_memory() -> int | None:
    """Bytes available for new allocations, or None when unknown.

    The smallest of the kernel's ``MemAvailable`` and, for each group of
    :func:`_cgroup_groups` under a memory limit, ``memory.max`` minus the
    working set: ``memory.current`` less the reclaimable ``inactive_file``
    page cache of ``memory.stat`` (none counted when that file cannot be
    read).  A figure is left out when it cannot be read or the limit is ``max``.
    """
    found = []
    try:  # reported in kB
        found.append(int(_read_first(_MEMINFO, "MemAvailable:").split()[0]) * 1024)
    except (OSError, ValueError):
        pass
    for group in _cgroup_groups():
        try:
            limit = _read_first(os.path.join(group, "memory.max"))
            if limit != "max":
                used = int(_read_first(os.path.join(group, "memory.current")))
                found.append(max(int(limit) - used + _inactive_file(group, used), 0))
        except (OSError, ValueError):
            pass
    return min(found) if found else None


def _inactive_file(group: str, used: int) -> int:
    """The group's ``inactive_file`` bytes, at most ``used``; 0 if unreadable."""
    try:
        return min(int(_read_first(os.path.join(group, "memory.stat"), "inactive_file ")), used)
    except (OSError, ValueError):
        return 0
