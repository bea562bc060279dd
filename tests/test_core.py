import errno
import json
import logging
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harmalign import align, cli, core
from harmalign.align import AlignmentParams
from harmalign.baselines import MnnParams
from harmalign.core import (
    DataMatrix,
    Report,
    Rng,
    atomic_write_text,
    load_matrix,
    write_output,
)
from harmalign.evaluation import ExperimentConfig, corruption_experiment, transfer_experiment


class TestDataMatrix:
    def test_basic_construction(self):
        m = DataMatrix(values=[[0.0, 1.0], [2.0, 3.0]])
        assert m.n_points == 2
        assert m.n_features == 2
        assert m.labels is None

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="N >= 2"):
            DataMatrix(values=[[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="row 1, column 0"):
            DataMatrix(values=[[0.0, 1.0], [np.nan, 3.0]])

    def test_rejects_wrong_label_length(self):
        with pytest.raises(ValueError, match="labels length"):
            DataMatrix(values=[[0.0], [1.0]], labels=[0, 1, 2])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            DataMatrix(values=[[0.0], [1.0]], labels=[0, -1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [
        [0.5, 1.7], [0.0, np.nan], [0.0, np.inf], [-np.inf, 1.0],
        ["a", "b"], [None, 1], [1 + 2j, 2],
    ])
    def test_rejects_non_integer_labels(self, labels):
        # refused, not truncated by the cast to int64 (nor, for a complex
        # label, stripped of its imaginary part)
        with pytest.raises(ValueError, match="^data: labels must be integers$"):
            DataMatrix(values=[[0.0], [1.0]], labels=labels)

    @pytest.mark.parametrize("labels", [[1, 2], [1.0, 2.0], np.array([1, 2], dtype=np.uint8)])
    def test_integer_labels_kept(self, labels):
        m = DataMatrix(values=[[0.0], [1.0]], labels=labels)
        assert m.labels.dtype == np.int64
        assert m.labels.tolist() == [1, 2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [
        [1e20, 1.0], [2.0**63, 0.0], np.array([2**60, 0]), [2**53 + 1, 0],
        np.array([2**64 - 1, 0], dtype=np.uint64),
    ])
    def test_rejects_labels_above_2_53(self, labels):
        # refused by name before the cast to int64, which would warn or wrap
        with pytest.raises(ValueError, match=r"^data: labels must be at most 2\*\*53$"):
            DataMatrix(values=[[0.0], [1.0]], labels=labels)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[2**53, 0], [2.0**53, 0.0]])
    def test_labels_up_to_2_53_kept(self, labels):
        # the largest label load_matrix reads back (test_written_integer_labels_reload_equal)
        assert DataMatrix(values=[[0.0], [1.0]], labels=labels).labels.tolist() == [2**53, 0]


class TestLoadMatrix:
    def test_plain_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n2,3\n4,5\n")
        m = load_matrix(path)
        assert np.array_equal(m.values, [[0, 1], [2, 3], [4, 5]])
        assert m.labels is None

    def test_header_with_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f1,f2,label\n0,1,7\n2,3,8\n")
        m = load_matrix(path)
        assert np.array_equal(m.values, [[0, 1], [2, 3]])
        assert np.array_equal(m.labels, [7, 8])

    def test_header_without_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n0,1\n2,3\n")
        m = load_matrix(path)
        assert m.labels is None
        assert m.values.shape == (2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no rows"):
            load_matrix(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f1,f2\n")
        with pytest.raises(ValueError, match="no rows"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_matrix(tmp_path / "nope.csv")

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n2\n")
        with pytest.raises(ValueError, match="ragged row 1"):
            load_matrix(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n2,oops\n")
        with pytest.raises(ValueError, match="row 1, column 1"):
            load_matrix(path)

    def test_inf_entry_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n2,inf\n")
        with pytest.raises(ValueError, match="row 1, column 1"):
            load_matrix(path)

    @pytest.mark.parametrize("bad_rows, message", [
        ("4,5\n6,7,0", "ragged row 3: expected 3 cells, got 2"),
        ("4, oops ,1\n6,7", "non-numeric cell 'oops' at row 3, column 1"),
        ("4,-inf,1\n6,7", "non-finite entry at row 3, column 1"),
        ("4,5,1.5\n6,7,0", "non-integer label at row 3"),
    ])
    def test_error_row_counts_header_and_skips_blank_lines(self, tmp_path, bad_rows, message):
        # rows count non-blank lines from 0, the header being row 0; a bad
        # cell is reported before a ragged row that follows it
        path = tmp_path / "m.csv"
        path.write_text(f"f1,f2,label\n\n0,1,0\n  \n2,3,1\n\n{bad_rows}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_matrix(path)

    @pytest.mark.filterwarnings("error")  # a float-to-int cast warns above int64
    @pytest.mark.parametrize("label, message", [
        ("-2", "negative label at row 2"),
        ("1e20", "label above 2**53 at row 2"),
        ("9007199254740994", "label above 2**53 at row 2"),  # 2**53 + 2
        # float64 rounds these two onto 2**53
        ("9007199254740993", "label above 2**53 at row 2"),
        ("9007199254740992.5", "non-integer label at row 2"),
        # and these onto 1 and 0
        ("1.0000000000000001", "non-integer label at row 2"),
        ("1e-400", "non-integer label at row 2"),
    ])
    def test_label_out_of_range_names_path_and_row(self, tmp_path, label, message):
        # the first bad row is named, whatever a later one holds
        path = tmp_path / "m.csv"
        path.write_text(f"f1,label\n0,1\n2,{label}\n4,-1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_matrix(path)

    def test_labels_up_to_two_to_the_53(self, tmp_path):
        # any spelling Python's float() takes, if its exact value is an integer
        path = tmp_path / "m.csv"
        path.write_text(f"f1,label\n0,0\n2,{2**53}\n4, 2 \n6,1_0\n8,-0\n10,3.0\n")
        labels = load_matrix(path).labels
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 2**53, 2, 10, 0, 3]

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 2**53), min_size=2, max_size=6))
    def test_written_integer_labels_reload_equal(self, tmp_path, labels):
        path = tmp_path / "m.csv"
        write_output(DataMatrix(values=np.zeros((len(labels), 1)), labels=labels), path)
        assert load_matrix(path).labels.tolist() == labels

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**53), st.integers(0, 30))
    @example(1, 16)  # float64 rounds 1.00000000000000001 onto 1
    def test_a_fraction_after_an_integer_is_refused(self, tmp_path, n, p):
        path = tmp_path / "m.csv"
        path.write_text(f"f1,label\n0,1\n2,{n}.{'0' * p}1\n")
        message = f"{path}: non-integer label at row 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_matrix(path)

    @pytest.mark.parametrize("header, fields", [("f1,label", 2), ("f1,f2,f3,label", 4)])
    def test_header_width_must_match_rows(self, tmp_path, header, fields):
        # a short header would silently make the last feature the label
        path = tmp_path / "m.csv"
        path.write_text(f"{header}\n1,2,3\n4,5,6\n")
        message = f"{path}: header has {fields} fields but rows have 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_matrix(path)

    def test_rows_narrower_from_a_later_block_are_ragged(self, tmp_path):
        # rows are parsed in blocks of 2048; each block here is rectangular
        # on its own, so the width must also be checked across blocks
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n" * 2048 + "3,4\n" * 1000)
        with pytest.raises(ValueError, match="ragged row 2048: expected 3 cells, got 2"):
            load_matrix(path)
        path.write_text("0,1,2\n" * 2048 + "3,4,5\n" * 1000)
        assert load_matrix(path).values.shape == (3048, 3)

    def test_whitespace_and_python_float_syntax(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(" 1.5 ,\t+2\n1_0,-3e-2\n")
        m = load_matrix(path)
        assert np.array_equal(m.values, [[1.5, 2.0], [10.0, -0.03]])


class TestWriteOutput:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = Rng(7).generator
        m = DataMatrix(values=rng.standard_normal((4, 3)) * 1e3)
        path = tmp_path / "m.csv"
        write_output(m, path)
        back = load_matrix(path)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(back.values, m.values)

    def test_matrix_with_labels_round_trip(self, tmp_path):
        m = DataMatrix(values=[[0.5, 1.5], [2.5, 3.5]], labels=[1, 2])
        path = tmp_path / "m.csv"
        write_output(m, path)
        back = load_matrix(path)
        assert np.array_equal(back.values, m.values)
        assert np.array_equal(back.labels, m.labels)

    def test_report_contains_values(self, tmp_path):
        report = Report(params={"k": 5}, aggregates={"accuracy": 0.5})
        path = tmp_path / "r.json"
        write_output(report, path)
        text = path.read_text()
        assert '"accuracy": 0.5' in text

    def test_report_round_trip_lossless(self):
        report = Report(
            params={"sigma": 0.1 + 0.2},
            trials=[{"accuracy": 1 / 3}],
            aggregates={"mean": np.pi},
        )
        back = Report.from_json(report.to_json())
        assert back.params == report.params
        assert back.trials == report.trials
        assert back.aggregates == report.aggregates

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "missing_dir" / "f.txt", "x")

    def test_matrix_bytes_match_per_cell_format(self, tmp_path):
        values = Rng(8).generator.standard_normal((6, 3)) * [1e-300, 1.0, 1e300]
        values[0, 0] = -0.0
        labels = np.array([3, 0, 12, 1, 1, 5])
        write_output(DataMatrix(values=values, labels=labels), tmp_path / "l.csv")
        write_output(values, tmp_path / "a.csv")
        rows = [",".join(format(v, ".17g") for v in row) for row in values]
        plain = "".join(row + "\n" for row in rows)
        labelled = "f1,f2,f3,label\n" + "".join(
            f"{row},{label}\n" for row, label in zip(rows, labels)
        )
        assert (tmp_path / "a.csv").read_bytes() == plain.encode()
        assert (tmp_path / "l.csv").read_bytes() == labelled.encode()

    def test_failing_line_source_leaves_nothing(self, tmp_path):
        def lines():
            yield "a,b\n"
            raise RuntimeError("source failed")

        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_text(path, lines())
        assert os.listdir(tmp_path) == []

    def test_atomic_no_partial_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_output(np.eye(2), path)
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestParts:
    """Writes in row slices, one per usable CPU, every slice after the first
    formatted by a forked child."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7])  # 1 and 2 rows: fewer than the CPUs
    @pytest.mark.parametrize("header, ids, labels", [
        (False, False, False), (True, False, False), (True, True, False),
        (False, True, True), (True, True, True),
    ])
    def test_bytes_equal_one_pass(self, tmp_path, monkeypatch, cpus, n, header, ids, labels):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        values = Rng(9).generator.standard_normal((n, 3)) * [1e-300, 1.0, 1e300]
        args = (values, ["a", "b", "c", "d", "e", "f"] if header else None,
                np.arange(2 * n).reshape(n, 2) if ids else None,
                np.arange(n) % 4 if labels else None)
        parts = core.csv_parts(*args)
        assert len(parts) == min(cpus, n)
        path = tmp_path / "out.csv"
        atomic_write_text(path, *parts)
        assert path.read_bytes() == "".join(core.csv_lines(*args)).encode()
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_write_output_bytes_equal_one_pass(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        m = DataMatrix(values=Rng(10).generator.standard_normal((5, 2)), labels=[0, 1, 2, 3, 4])
        write_output(m, tmp_path / "m.csv")
        write_output(m.values, tmp_path / "a.csv")
        header = ["f1", "f2", "label"]
        labelled = "".join(core.csv_lines(m.values, header, labels=m.labels))
        assert (tmp_path / "m.csv").read_text() == labelled
        assert (tmp_path / "a.csv").read_text() == "".join(core.csv_lines(m.values))

    def test_strings_and_iterables_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "a\n", iter(["b\n", "c\n"]), "", ["d\n"])
        assert path.read_text() == "a\nb\nc\nd\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_parts_appended_without_sendfile(self, tmp_path, monkeypatch):
        # os.sendfile copies between regular files on Linux only
        monkeypatch.delattr(os, "sendfile", raising=False)
        path = tmp_path / "out.txt"
        atomic_write_text(path, "a\n", ["b\n"] * 100_000, iter(["c\n"]))
        assert path.read_text() == "a\n" + "b\n" * 100_000 + "c\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("failing, cause, error, message, code", [
        # in this process: its own exception
        pytest.param(0, RuntimeError("source failed"), RuntimeError, "source failed", None,
                     id="parent"),
        pytest.param(1, RuntimeError("source failed"), OSError, "1 of 3 parts failed", None,
                     id="child1"),
        pytest.param(2, RuntimeError("source failed"), OSError, "1 of 3 parts failed", None,
                     id="child2"),
        # in a child: its errno survives
        pytest.param(0, OSError(errno.ENOSPC, "disk full"), OSError, "disk full", errno.ENOSPC,
                     id="parent-enospc"),
        pytest.param(2, OSError(errno.ENOSPC, "disk full"), OSError,
                     "1 of 3 parts failed: " + os.strerror(errno.ENOSPC), errno.ENOSPC,
                     id="child2-enospc"),
    ])
    def test_failing_part_leaves_nothing(self, tmp_path, monkeypatch, failing, cause, error,
                                         message, code):
        def lines():
            yield "x\n"
            raise cause

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        pids, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", fork)
        parts = ["a\n", ["b\n"], ["c\n"]]
        parts[failing] = lines()
        path = tmp_path / "out.csv"
        with pytest.raises(error, match=re.escape(message)) as raised:
            atomic_write_text(path, *parts)
        assert getattr(raised.value, "errno", None) == code
        assert str(path) in str(raised.value) or failing == 0
        assert os.listdir(tmp_path) == []
        assert len(pids) == 2
        for pid in pids:  # every child was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("ids, labels", [
        ([[2**53 + 1], [0]], None),
        ([[0], [-(2**53) - 1]], None),
        ([[np.iinfo(np.int64).min], [0]], None),  # where np.abs wraps to itself
        (None, [0, 2**53 + 1]),
    ])
    def test_ids_and_labels_beyond_2_53_refused_here(self, tmp_path, monkeypatch, forks,
                                                     ids, labels):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        ids = None if ids is None else np.array(ids)
        with pytest.raises(ValueError, match=re.escape(OUT_OF_RANGE)):
            atomic_write_text(tmp_path / "out.csv", *core.csv_parts(np.eye(2), None, ids, labels))
        assert os.listdir(tmp_path) == []
        assert forks == []

    def test_write_output_refuses_a_label_beyond_2_53(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        m = DataMatrix(values=np.eye(2), labels=[0, 1])
        m.labels[1] = 2**53 + 1  # DataMatrix refuses it, but its array is writable
        with pytest.raises(ValueError, match=re.escape(OUT_OF_RANGE)):
            write_output(m, tmp_path / "m.csv")
        assert os.listdir(tmp_path) == []
        assert forks == []

    def test_ids_and_labels_at_2_53_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        ids = np.array([[2**53, -(2**53)], [2**53 - 1, 0]])
        labels = np.array([-(2**53), 2**53])
        path = tmp_path / "out.csv"
        atomic_write_text(path, *core.csv_parts(np.eye(2), None, ids, labels))
        assert path.read_text() == per_cell(np.eye(2), ids, labels)


OUT_OF_RANGE = "ids and labels must lie within [-2**53, 2**53]"


def per_cell(values, ids=None, labels=None):
    """The CSV text of ``csv_lines``, one Python ``format`` call per cell."""
    lines = []
    for i, row in enumerate(np.atleast_2d(values).tolist()):
        cells = [format(v, ".17g") for v in row]
        if ids is not None:
            cells = ["%d" % j for j in ids[i].tolist()] + cells
        if labels is not None:
            cells.append("%d" % labels[i])
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


POWERS = [float(f"1e{k}") for k in range(-320, 309)]
EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.nan, np.inf,
    1e-05, 0.0001, 1e16, 1e17,  # fixed and exponent notation either side of the switch
    9.99999999999999999e16, 99999999999999999.0,  # carries to the next exponent
    1e15 + 0.25, 1e15 + 0.75,  # exact ties at the 17th digit, to even below and above
    0.5, 12345.0, 1e-100, 1.5e-99,
    *POWERS, *np.nextafter(POWERS, 0.0), *np.nextafter(POWERS, np.inf),
]


class TestCellFormat:
    """``csv_lines`` formats cells in numpy blocks; every byte must be that of
    Python's ``format(v, ".17g")``, which prints an id or label within 2**53
    of 0 as ``"%d"`` does."""

    @settings(deadline=None, max_examples=300)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 3)),
                  elements=st.floats(width=64)))
    def test_any_float64(self, values):
        assert "".join(core.csv_lines(values)) == per_cell(values)

    def test_random_bit_patterns_over_many_blocks(self):
        bits = Rng(23).generator.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).reshape(-1, 4)
        assert values.size > 40 * core._BLOCK_CELLS
        assert "".join(core.csv_lines(values)) == per_cell(values)

    @pytest.mark.parametrize("width", [1, 3])
    def test_edge_values(self, width):
        edges = np.array(EDGES + [-v for v in EDGES])
        values = np.resize(edges, (-(-len(edges) // width), width))
        assert "".join(core.csv_lines(values)) == per_cell(values)

    def test_fallback_cells_keep_their_place(self):
        tie = 1e15 + 0.75  # 1000000000000000.75, printed ...0.8
        assert core._decimal(np.array([tie, 0.75]), core._csv_tables())[2].tolist() == [True, False]
        values = Rng(24).generator.standard_normal((4000, 3))
        values[::7, 0] = np.nan
        values[3::11, 1] = -tie
        values[5::13, 2] = np.inf
        ids = np.arange(8000).reshape(4000, 2)
        # 0 and the edges of what float64 holds exactly, which csv_parts allows
        ids[::17, 1] = 2**53
        ids[2::23, 0] = -(2**53)
        labels = np.arange(4000) % 5
        labels[::19] = 2**53 - 1
        labels[4::29] = -(2**53)
        rows = core._BLOCK_CELLS // 6
        assert 0 < rows < 4000  # several blocks, each mixing both kinds of cell
        assert "".join(core.csv_lines(values, None, ids, labels)) == per_cell(values, ids, labels)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(123).generator.standard_normal(10**6)
        b = Rng(123).generator.standard_normal(10**6)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).generator.standard_normal(100)
        b = Rng(2).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_spawn_is_deterministic(self):
        a = Rng(9).spawn("trial", 3).generator.standard_normal(100)
        b = Rng(9).spawn("trial", 3).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_spawn_streams_independent(self):
        a = Rng(9).spawn("trial", 0).generator.standard_normal(100)
        b = Rng(9).spawn("trial", 1).generator.standard_normal(100)
        assert not np.array_equal(a, b)


class TestPool:
    """``pool_map`` runs contiguous slices of its items, the first in this
    process and each other one in a forked worker, within the CPUs, the BLAS
    threads and the memory; results, warnings, log records and errors come
    back as a serial run gives them."""

    ITEM = 1000  # bytes per item

    @pytest.mark.parametrize("cpus, threads, fits, items, workers", [
        (2, {}, None, 4, 1),  # threads unset: as many as CPUs, one worker
        (2, {"OPENBLAS_NUM_THREADS": "1"}, None, 4, 2),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, None, 4, 2),
        (4, {"OPENBLAS_NUM_THREADS": "3"}, None, 4, 1),
        (4, {"OPENBLAS_NUM_THREADS": "8"}, None, 4, 1),
        (4, {"GOTO_NUM_THREADS": "1"}, None, 4, 4),
        (4, {"OMP_NUM_THREADS": "2"}, None, 4, 2),
        (4, {"OMP_NUM_THREADS": "2,1"}, None, 4, 2),  # atoi reads the leading integer
        (4, {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"},
         None, 4, 4),  # OPENBLAS first
        (4, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, None, 4, 4),  # then GOTO
        (4, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, None, 4, 2),  # 0 is unset
        (4, {"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "4"}, None, 4, 1),
        (4, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, None, 4, 4),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 2, 4, 2),  # memory for two items
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 0, 4, 1),  # for none: one worker still
        (4, {"OPENBLAS_NUM_THREADS": "1"}, None, 3, 3),  # at most one per item
        (4, {"OPENBLAS_NUM_THREADS": "1"}, None, 1, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, None, 4, 1),
    ])
    def test_worker_count(self, monkeypatch, forks, cpus, threads, fits, items, workers):
        for name in core._THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in threads.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(core, "_available_memory",
                            lambda: None if fits is None else (fits + 1) * self.ITEM - 1)
        assert core.pool_map(lambda i: i * i, range(items), self.ITEM) == [
            i * i for i in range(items)]
        assert len(forks) == workers - 1

    @pytest.mark.parametrize("item_bytes, forked", [(999, 0), (1000, 2)])
    def test_items_under_the_floor_run_here(self, monkeypatch, forks, item_bytes, forked):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(core, "_available_memory", lambda: 10**10)
        assert core.pool_map(str, range(5), item_bytes, min_bytes=1000) == list("01234")
        assert len(forks) == forked

    def test_nothing_forks_off_linux(self, monkeypatch, forks):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert core._usable_cpus() == 1
        assert core.pool_map(abs, range(-2, 2), self.ITEM) == [2, 1, 0, 1]
        assert len(core.csv_parts(np.eye(4))) == 1
        assert forks == []

    def test_no_pooled_item_opens_a_pool(self, monkeypatch, tmp_path):
        # at one usable CPU every item runs in this process, where the wrapper
        # sees each pool an item opens
        def pool_map(func, items, *args):
            def run(item):
                running.append(item)
                try:
                    return func(item)
                finally:
                    running.pop()

            items = list(items)
            if running:
                nested.append(len(items))
            return real(run, items, *args)

        real, running, nested = core.pool_map, [], []
        for module in (core, align):  # evaluation calls core.pool_map
            monkeypatch.setattr(module, "pool_map", pool_map)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        cfg = ExperimentConfig(n1=30, n2=30, dim=10, trials=2, preserved_sweep=(50, 100),
                               methods=("none", "mnn", "harmonic"), ratios=(1, 2),
                               mnn_params=MnnParams(k=5), align_params=AlignmentParams(knn=5))
        corruption_experiment(cfg)
        transfer_experiment(cfg)
        gen = Rng(12).generator
        views = [gen.standard_normal((40, 5)) for _ in range(3)]
        align.multi_alignment(views, AlignmentParams(knn=5))
        paths = [str(tmp_path / f"v{i}.csv") for i in range(3)]
        for view, path in zip(views, paths):
            write_output(view, path)
        config = tmp_path / "exp.cfg"
        config.write_text("n1=30\nn2=30\ndim=10\ntrials=2\nmethods=none,mnn,harmonic\n"
                          "ratios=1,2\nmnn-k=5\nknn-bandwidth=5\n")
        for argv in (["align", "--x", paths[0], "--y", paths[1], "--knn-bandwidth", "5"],
                     ["multi-align", "--inputs", *paths, "--knn-bandwidth", "5"],
                     ["experiment", "--mode", "transfer", "--config", str(config)]):
            assert cli.main(argv) == 0
        assert nested and max(nested) == 1  # an arm's one pair

    @pytest.mark.parametrize("failing, raised", [
        ({3}, "item 3"), ({3, 5}, "item 3"), ({1, 5}, "item 1"), ({4, 0}, "item 0"),
    ])
    def test_earliest_error_raised_with_its_type(self, monkeypatch, forks, failing, raised):
        def run(i):
            if i in failing:
                raise KeyError(f"item {i}")
            return i

        monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
        with pytest.raises(KeyError, match=raised):
            core.pool_map(run, range(6), self.ITEM)
        assert len(forks) == 2
        assert core.pool_map(abs, range(3), self.ITEM) == [0, 1, 2]  # not left nested
        assert len(forks) == 4

    def test_worker_out_of_space_keeps_its_errno(self, monkeypatch, forks):
        def dump(*args):  # called by the worker alone
            raise OSError(errno.ENOSPC, "disk full")

        monkeypatch.setattr(core.pickle, "dump", dump)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        message = f"a pool worker exited with status {errno.ENOSPC}: {os.strerror(errno.ENOSPC)}"
        with pytest.raises(ChildProcessError, match=re.escape(message)) as raised:
            core.pool_map(abs, range(2), self.ITEM)
        assert raised.value.errno == errno.ENOSPC
        assert len(forks) == 1

    def test_worker_that_dies_is_reported(self, monkeypatch, forks):
        parent = os.getpid()
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        with pytest.raises(ChildProcessError, match="a pool worker exited with status 3"):
            core.pool_map(lambda i: os.getpid() == parent or os._exit(3), range(2), self.ITEM)

    def test_warnings_and_log_records_issued_once_in_item_order(self, monkeypatch, forks,
                                                               tmp_path):
        def run(i):
            warnings.warn(f"warning {i}", UserWarning)
            logger.warning("record %d", i)
            return i

        logger = logging.getLogger("harmalign.test_pool")
        handler = logging.FileHandler(tmp_path / "log.txt")  # a worker's copy writes too
        logger.addHandler(handler)
        seen = {}
        try:
            for cpus in (1, 3):
                monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
                seen[cpus] = []
                with warnings.catch_warnings():
                    warnings.simplefilter("always")
                    warnings.showwarning = lambda message, *_: seen[cpus].append(str(message))
                    logger.addFilter(lambda record: seen[cpus].append(record.getMessage()) or True)
                    assert core.pool_map(run, range(6), self.ITEM) == list(range(6))
                    logger.filters.clear()
        finally:
            logger.removeHandler(handler)
            handler.close()
        assert seen[3] == seen[1] == [f"{kind} {i}" for i in range(6)
                                      for kind in ("warning", "record")]
        assert len(forks) == 2
        assert (tmp_path / "log.txt").read_text() == "".join(
            f"record {i}\n" for i in range(6)) * 2
