"""Shared containers, matrix file I/O, seeded randomness, report handling,
and the probe of memory available for new allocations.

All numeric data is dense 64-bit real.  CSV is the only matrix file format
(optional single header line, optional trailing ``label`` column), and this
module alone reads and writes it.  Writes stream line by line into a temp
file that is renamed into place, so no output is ever held whole in memory.
Randomness is counter-based (Philox) so a seed fully determines every
experiment on every platform.  All containers are immutable by convention
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

_U64 = (1 << 64) - 1


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
        Optional non-negative class labels.
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
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(
                    f"{self.name}: labels length {labels.shape} does not match N={n}"
                )
            if np.any(labels < 0):
                raise ValueError(f"{self.name}: labels must be non-negative")
            object.__setattr__(self, "labels", labels)

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
        (case-insensitive) marks a label column.  Blank lines are skipped.
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
        labels = values[:, -1]
        if np.any(labels != np.rint(labels)):
            bad = np.flatnonzero(labels != np.rint(labels))[0]
            raise ValueError(f"{path}: non-integer label at row {bad + start}")
        labels = labels.astype(np.int64)
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


def atomic_write_text(path, text) -> None:
    """Write ``text`` (a string or an iterable of strings, written as they
    come) to ``path`` atomically: into a temp file, then renamed.  If writing
    fails, neither the temp file nor ``path`` is left behind."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OSError(f"cannot write {path}: directory does not exist")
    if isinstance(text, str):
        text = (text,)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_lines(values, header=None, ids=None, labels=None):
    """Yield a matrix as CSV lines: ``header`` (a list of names) if given,
    then one line per row of ``values``.

    Each row is preceded by its row of integer ``ids`` and followed by its
    integer ``label``, when these are given.  Values are written with 17
    significant digits, so a write/load round trip preserves every float64.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    ids = np.empty((len(values), 0), int) if ids is None else np.asarray(ids)
    tail = np.empty((len(values), 0), int) if labels is None else np.asarray(labels)[:, None]
    fmt = ["%d"] * ids.shape[1] + ["%.17g"] * values.shape[1] + ["%d"] * tail.shape[1]
    fmt = ",".join(fmt) + "\n"
    if header is not None:
        yield ",".join(header) + "\n"
    for lead, row, label in zip(ids.tolist(), values, tail.tolist()):
        yield fmt % (*lead, *row.tolist(), *label)


def write_output(obj, path) -> None:
    """Write a Report (JSON) or matrix (CSV, see :func:`csv_lines`) to
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
        atomic_write_text(path, csv_lines(obj.values, header, labels=obj.labels))
    elif isinstance(obj, np.ndarray):
        atomic_write_text(path, csv_lines(obj))
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
