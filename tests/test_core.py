import json
import os
import re

import numpy as np
import pytest

from harmalign.core import (
    DataMatrix,
    Report,
    Rng,
    atomic_write_text,
    load_matrix,
    write_output,
)


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
