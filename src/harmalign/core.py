"""Shared containers, matrix file I/O, seeded randomness, and report handling.

All numeric data is dense 64-bit real.  CSV is the interchange format
(optional single header line, optional trailing ``label`` column); a packed
little-endian binary format (``raw-f64``) is offered for large matrices.
Randomness is counter-based (Philox) so a seed fully determines every
experiment on every platform.  All containers are immutable by convention
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import os
import struct
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


def _parse_cell(token: str, row: int, col: int, path) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: non-numeric cell {token!r} at row {row}, column {col}"
        ) from None
    if not np.isfinite(value):
        raise ValueError(f"{path}: non-finite entry at row {row}, column {col}")
    return value


def _is_header(tokens) -> bool:
    for token in tokens:
        try:
            float(token)
        except ValueError:
            return True
    return False


def load_matrix(path, fmt: str = "csv", name: str | None = None) -> DataMatrix:
    """Load a DataMatrix from disk.

    Parameters
    ----------
    path : path-like
        Input file.
    fmt : {"csv", "raw-f64"}
        ``csv``: comma separated, '.' decimal, optional single header line;
        a final header field named ``label`` (case-insensitive) marks a label
        column.  ``raw-f64``: 16-byte header of two little-endian uint64
        (N, d) followed by N*d little-endian float64, row-major.
    name : str, optional
        Name for the resulting matrix; defaults to the file stem.

    Returns
    -------
    DataMatrix
        Rows in file order.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    if fmt == "csv":
        return _load_csv(path, name)
    if fmt == "raw-f64":
        return _load_raw(path, name)
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'raw-f64')")


def _load_csv(path, name) -> DataMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError(f"{path}: no rows")
    first = [tok.strip() for tok in lines[0].split(",")]
    has_labels = False
    start = 0
    if _is_header(first):
        start = 1
        has_labels = first[-1].lower() == "label"
    rows = lines[start:]
    if not rows:
        raise ValueError(f"{path}: no rows")
    width = len(rows[0].split(","))
    values = np.empty((len(rows), width), dtype=np.float64)
    for i, line in enumerate(rows):
        tokens = [tok.strip() for tok in line.split(",")]
        if len(tokens) != width:
            raise ValueError(
                f"{path}: ragged row {i + start}: expected {width} cells, got {len(tokens)}"
            )
        for j, token in enumerate(tokens):
            values[i, j] = _parse_cell(token, i + start, j, path)
    labels = None
    if has_labels:
        labels = values[:, -1]
        if np.any(labels != np.rint(labels)):
            bad = int(np.argwhere(labels != np.rint(labels))[0])
            raise ValueError(f"{path}: non-integer label at row {bad + start}")
        labels = labels.astype(np.int64)
        values = values[:, :-1]
    return DataMatrix(values=values, labels=labels, name=name)


def _load_raw(path, name) -> DataMatrix:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 16:
        raise ValueError(f"{path}: no rows")
    n, d = struct.unpack("<QQ", blob[:16])
    expected = 16 + 8 * n * d
    if len(blob) != expected:
        raise ValueError(
            f"{path}: size mismatch: header says {n}x{d} ({expected} bytes), file has {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=16).reshape(n, d).copy()
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: non-finite entry at row {i}, column {j}")
    return DataMatrix(values=values, name=name)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OSError(f"cannot write {path}: directory does not exist")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_csv(values: np.ndarray, labels=None) -> str:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    lines = []
    if labels is not None:
        header = [f"f{j + 1}" for j in range(values.shape[1])] + ["label"]
        lines.append(",".join(header))
    for i in range(values.shape[0]):
        cells = [format(v, ".17g") for v in values[i]]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_output(obj, path) -> None:
    """Write a Report (JSON) or matrix (CSV) to ``path`` atomically.

    Matrices are written with 17 significant digits so that a write/load
    round trip preserves every float64 exactly.
    """
    if isinstance(obj, Report):
        atomic_write_text(path, obj.to_json() + "\n")
    elif isinstance(obj, DataMatrix):
        atomic_write_text(path, _matrix_csv(obj.values, obj.labels))
    elif isinstance(obj, np.ndarray):
        atomic_write_text(path, _matrix_csv(obj))
    else:
        raise TypeError(f"cannot write object of type {type(obj).__name__}")
