import argparse
import ast
import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from actidist import cli, datagen, io
from actidist.cli import main
from actidist.datagen import (
    StratifiedDesign,
    draw_sample,
    simulate_population,
    spread_response_spec,
    two_cluster_spec,
)
from actidist.distribution import MAX_GRID_SIZE, ActivitySeries, QuantileGrid, build_mixed
from actidist.regression import (
    SurveySample,
    krr_fit,
    krr_predict_batch,
    load_model,
    save_model,
)
from oracles import (
    median_heuristic_sigma,
    read_subject_readings_csv,
    write_csv_rows,
    write_frechet_rows,
    write_readings_rows,
)

ROOT = Path(__file__).resolve().parents[1]


def write_toy_inputs(tmp_path, rows, subjects_rows):
    readings = tmp_path / "readings.csv"
    readings.write_text("subject_id,timestamp_min,count\n"
                        + "\n".join(rows) + "\n")
    subjects = tmp_path / "subjects.csv"
    subjects.write_text("subject_id,survey_weight,age,mortality\n"
                        + "\n".join(subjects_rows) + "\n")
    return readings, subjects


def default_toy(tmp_path):
    return write_toy_inputs(
        tmp_path,
        rows=[f"a,{t},{c}" for t, c in enumerate([0, 0, 2, 4])]
             + [f"b,{t},0" for t in range(4)],
        subjects_rows=["a,2.0,70,0", "b,1.0,80,1"],
    )


class TestReaders:
    def test_roundtrip_series(self, tmp_path):
        readings, subjects = default_toy(tmp_path)
        series = io.load_series(readings, subjects)
        assert [s.subject_id for s in series] == ["a", "b"]
        assert series[0].survey_weight == 2.0
        assert series[0].covariates == {"age": 70, "mortality": 0}
        assert series[1].readings.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("chunk_rows", [1 << 14, 3])
    def test_in_order_series_share_the_readers_arrays(self, tmp_path, monkeypatch,
                                                      chunk_rows):
        monkeypatch.setattr(io, "_READ_CHUNK_ROWS", chunk_rows)
        readings, subjects = default_toy(tmp_path)
        read = io.read_readings_csv(readings)
        monkeypatch.setattr(io, "read_readings_csv", lambda path: read)
        series = io.load_series(readings, subjects)
        for s in series:
            t, counts = read[s.subject_id]
            assert np.shares_memory(s.timestamps, t)
            assert np.shares_memory(s.readings, counts)

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        readings, subjects = write_toy_inputs(
            tmp_path,
            rows=["a,2,5", "b,1,7", "a,0,1", "b,0,6", "a,1,3", "b,2,8"],
            subjects_rows=["a,2.0,70,0", "b,1.0,80,1"])
        read = io.read_readings_csv(readings)
        series = io.load_series(readings, subjects)
        assert [s.timestamps.tolist() for s in series] == [[0, 1, 2]] * 2
        assert [s.readings.tolist() for s in series] == [[1, 3, 5], [6, 7, 8]]
        # the reader's arrays stay in file order
        assert read["a"][0].tolist() == [2, 0, 1]

    @pytest.mark.parametrize("rows", [
        ["a,0,1", "a,1,2", "a,1,3"],
        ["a,1,1", "a,0,2", "a,1,3"],
    ], ids=["in order", "out of order"])
    def test_duplicate_timestamps_rejected(self, tmp_path, rows):
        readings, subjects = write_toy_inputs(
            tmp_path, rows=rows, subjects_rows=["a,1.0,70,0"])
        with pytest.raises(ValueError, match="strictly increasing"):
            io.load_series(readings, subjects)

    def test_negative_count_reports_line(self, tmp_path):
        readings, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1", "a,1,-5", "a,2,2"], subjects_rows=["a,1.0,70,0"])
        with pytest.raises(io.InputValidationError, match="line 3"):
            io.read_readings_csv(readings)

    def test_malformed_rows_all_reported(self, tmp_path):
        readings, _ = write_toy_inputs(
            tmp_path, rows=["a,0,1", "a,zzz,1", "a,2,-1"], subjects_rows=["a,1,70,0"])
        with pytest.raises(io.InputValidationError, match="line 3.*line 4"):
            io.read_readings_csv(readings)

    def test_missing_subject_metadata(self, tmp_path):
        readings, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1", "zz,0,1"], subjects_rows=["a,1.0,70,0"])
        with pytest.raises(io.InputValidationError, match="zz"):
            io.load_series(readings, subjects)

    def test_single_subject_reader(self, tmp_path):
        path = tmp_path / "s1.csv"
        path.write_text("timestamp_min,count\n0,1\n1,3\n")
        data = read_subject_readings_csv(path)
        assert data == {"s1": ([0.0, 1.0], [1.0, 3.0])}

    def test_duplicate_quantile_ids_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("subject_id,t_1,t_2\na,0,1\nb,1,2\na,2,3\n")
        with pytest.raises(io.InputValidationError,
                           match=r"q\.csv: line 4: duplicate subject_id 'a'"):
            io.read_quantile_csv(path)

    def test_duplicate_subject_ids_rejected(self, tmp_path):
        _, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1"], subjects_rows=["a,1.0,70,0", "a,2.0,71,1"])
        with pytest.raises(io.InputValidationError,
                           match=r"subjects\.csv: line 3: duplicate subject_id 'a'"):
            io.read_subjects_csv(subjects)

    def test_non_finite_weight_reports_line(self, tmp_path):
        _, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1"], subjects_rows=["a,1.0,70,0", "b,inf,71,1"])
        with pytest.raises(io.InputValidationError, match="line 3: survey_weight"):
            io.read_subjects_csv(subjects)

    @pytest.mark.parametrize("row", ["a,nan,1", "a,2,inf", "a,-inf,0", "a,3,nan"])
    def test_non_finite_reading_reports_line(self, tmp_path, row):
        readings, _ = write_toy_inputs(
            tmp_path, rows=["a,0,1", row], subjects_rows=["a,1.0,70,0"])
        with pytest.raises(io.InputValidationError,
                           match=r"readings\.csv: line 3: non-finite value"):
            io.read_readings_csv(readings)

    def test_extra_subject_field_reports_line(self, tmp_path):
        _, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1"], subjects_rows=["a,1.0,70,0", "b,1.0,71,1,9"])
        with pytest.raises(io.InputValidationError,
                           match=r"subjects\.csv: line 3: more fields than the header"):
            io.read_subjects_csv(subjects)

    @pytest.mark.parametrize("row, message", [
        ("a,0.1,50.0", "duplicate subject_id 'a'"),
        ("c,nan,50.0", "non-finite value"),
        ("c,0.1,inf", "non-finite value"),
        ("c,0.1,x", "missing or non-numeric value"),
    ])
    def test_bad_summary_row_reports_line(self, tmp_path, row, message):
        path = tmp_path / "summary.csv"
        path.write_text("subject_id,p_inactive,tac_per_day\n"
                        f"a,0.5,100.0\nb,0.2,300.0\n{row}\n")
        with pytest.raises(io.InputValidationError,
                           match=rf"summary\.csv: line 4: {message}"):
            io.read_summary_csv(path)

    @pytest.mark.parametrize("reader, header, row, column", [
        (io.read_subjects_csv, "subject_id,survey_weight,age,survey_weight",
         "a,1.0,70,5.0", "survey_weight"),
        (io.read_summary_csv, "subject_id,p_inactive,tac_per_day,tac_per_day",
         "a,0.5,100.0,200.0", "tac_per_day"),
    ])
    def test_repeated_column_rejected(self, tmp_path, reader, header, row, column):
        # read by name, the last of the two columns would win
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(io.InputValidationError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: repeated column {column!r}"

    def test_unnamed_trailing_columns_are_no_repeat(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("subject_id,survey_weight,age,,\na,2.0,70,,\n")
        assert io.read_subjects_csv(path) == {"a": (2.0, {"age": 70})}

    def test_subjects_written_with_a_survey_weight_covariate_are_refused(self, tmp_path):
        # as a column, the covariate would repeat a fixed one, which the reader refuses
        path = tmp_path / "subjects.csv"
        for name in ("survey_weight", "subject_id"):
            subjects = [ActivitySeries("a", [0.0, 1.0], [0.0, 2.0], 1.0, {"age": 70}),
                        ActivitySeries("b", [0.0, 1.0], [0.0, 2.0], 1.0, {name: 5.0})]
            with pytest.raises(ValueError, match=f"covariate '{name}' would repeat"):
                io.write_subjects_csv(path, subjects)
            assert not path.exists()

    def test_quantile_roundtrip(self, tmp_path):
        grids = [QuantileGrid(np.array([0.0, 1.5, 2.0])),
                 QuantileGrid(np.array([1.0, 1.0, 9.25]))]
        path = tmp_path / "q.csv"
        io.write_quantile_csv(path, ["a", "b"], grids)
        ids, loaded = io.read_quantile_csv(path)
        assert ids == ["a", "b"]
        for g, l in zip(grids, loaded):
            np.testing.assert_array_equal(g.values, l)

    def test_quantile_table_reads_as_read_only_matrix(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("subject_id,t_1,t_2,t_3\na,0,1.5,2\nb,1,1,9.25\n")
        ids, x = io.read_quantile_csv(path)
        assert ids == ["a", "b"]
        assert (x.dtype, x.shape, x.flags.writeable) == (np.float64, (2, 3), False)
        np.testing.assert_array_equal(x, [[0.0, 1.5, 2.0], [1.0, 1.0, 9.25]])

    def test_quantile_writer_same_bytes_from_matrix_and_grids(self, tmp_path):
        rng = np.random.default_rng(41)
        x = np.sort(rng.gamma(2.0, 30.0, size=(5, 7)), axis=1)
        x[0, :3] = 0.0
        ids = ["a", "b,c", 'd"e', "f", "g"]
        io.write_quantile_csv(tmp_path / "m.csv", ids, x)
        io.write_quantile_csv(tmp_path / "g.csv", ids, [QuantileGrid(row) for row in x])
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
        read_ids, read_x = io.read_quantile_csv(tmp_path / "m.csv")
        assert read_ids == ids
        np.testing.assert_array_equal(read_x, x)

    @pytest.mark.parametrize("row, message", [
        ("b,2,1", "quantile values must be nondecreasing"),
        ("b,-1,0", "quantile values must be nonnegative"),
        ("b,0,inf", "quantile values must be finite"),
    ])
    def test_bad_quantile_row_reports_line(self, tmp_path, row, message):
        path = tmp_path / "q.csv"
        path.write_text(f"subject_id,t_1,t_2\na,0,1\n{row}\nc,5,4\n")
        with pytest.raises(io.InputValidationError, match=rf"q\.csv: line 3: {message}"):
            io.read_quantile_csv(path)

    @pytest.mark.parametrize("reader, header, tail", [
        (io.read_subjects_csv, "subject_id,survey_weight", "1.0"),
        (io.read_summary_csv, "subject_id,p_inactive,tac_per_day", "0.5,1.0"),
        (io.read_quantile_csv, "subject_id,t_1,t_2", "0,1"),
        # 1_0 sends the file from numpy's parser to the csv row loop
        (io.read_readings_csv, "subject_id,timestamp_min,count", "0,1_0"),
    ])
    def test_over_long_field_reports_line(self, tmp_path, reader, header, tail):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\na,{tail}\n{'x' * 140000},{tail}\n")
        with pytest.raises(io.InputValidationError,
                           match=r"t\.csv: line 3: field larger than field limit"):
            reader(path)

    @pytest.mark.parametrize("reader, header, tail", [
        (io.read_subjects_csv, "subject_id,survey_weight", "1.0"),
        (io.read_summary_csv, "subject_id,p_inactive,tac_per_day", "0.5,1.0"),
        (io.read_quantile_csv, "subject_id,t_1,t_2", "0,1"),
        (io.read_readings_csv, "subject_id,timestamp_min,count", "0,1"),
    ])
    def test_ids_stripped_and_empty_id_reports_line(self, tmp_path, reader, header, tail):
        path = tmp_path / "t.csv"
        path.write_text(f'{header}\n a\t,{tail}\n"b ",{tail}\n')
        table = reader(path)
        assert list(table[0] if isinstance(table, tuple) else table) == ["a", "b"]
        for empty in ("", " ", '" \t"'):
            path.write_text(f"{header}\na,{tail}\n{empty},{tail}\n")
            with pytest.raises(io.InputValidationError,
                               match=r"t\.csv: line 3: empty subject_id"):
                reader(path)

    def test_subject_id_rule_has_the_field_size_limit(self):
        # the one id rule of the csv and numpy paths alike
        limit = csv.field_size_limit()
        assert io._subject_id(" a ") == "a"
        assert io._subject_id("x" * limit) == "x" * limit
        with pytest.raises(ValueError, match=rf"field larger than field limit \({limit}\)"):
            io._subject_id("x" * (limit + 1))
        for field in ("", "  ", None):
            with pytest.raises(ValueError, match="empty subject_id"):
                io._subject_id(field)

    @pytest.mark.parametrize("reader, header, rows, first", [
        (io.read_readings_csv, "subject_id,timestamp_min,count",
         ["a,0,-1", "{long},0,1", "a,1,nan"], "line 2: negative count"),
        (io.read_subjects_csv, "subject_id,survey_weight",
         ["a,-1", "{long},1.0", "b,nan"],
         "line 2: survey_weight must be positive and finite"),
        (io.read_summary_csv, "subject_id,p_inactive,tac_per_day",
         ["a,nan,1", "{long},0.5,1", "b,0.5,inf"], "line 2: non-finite value"),
        (io.read_quantile_csv, "subject_id,t_1,t_2",
         ["a,2,1", "{long},0,1", "b,0,inf"],
         "line 2: quantile values must be nondecreasing"),
    ])
    def test_csv_error_keeps_earlier_lines(self, tmp_path, reader, header, rows, first):
        path = tmp_path / "t.csv"
        body = "\n".join(rows).replace("{long}", "x" * 140000)
        path.write_text(f"{header}\n{body}\n")
        with pytest.raises(io.InputValidationError) as caught:
            reader(path)
        assert str(caught.value).startswith(
            f"{path}: {first}; line 3: field larger than field limit")

    def test_header_only_quantile_table_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("subject_id,t_1,t_2\n\n")
        with pytest.raises(io.InputValidationError) as caught:
            io.read_quantile_csv(path)
        assert str(caught.value) == f"{path}: no data rows"

    def test_every_bad_quantile_row_reported(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("subject_id,t_1,t_2\na,2,1\nb,0\nc,0,1\nc,1,2\nd,0,x\n")
        with pytest.raises(io.InputValidationError) as caught:
            io.read_quantile_csv(path)
        assert str(caught.value) == (
            f"{path}: line 2: quantile values must be nondecreasing; "
            "line 3: wrong field count; line 5: duplicate subject_id 'c'; "
            "line 6: could not convert string to float: 'x'")

    # a quoted id over lines 2-3 and a blank line 5 before the bad row on line 6
    @pytest.mark.parametrize("readers, header, good, bad, message", [
        ((io.read_readings_csv, io._read_readings_rows), "subject_id,timestamp_min,count",
         "0,1", "b,1,-1", "negative count"),
        ((io.read_readings_csv, io._read_readings_rows), "subject_id,timestamp_min,count",
         "0,1", "b,1,x", "non-numeric value"),
        ((io.read_quantile_csv, io._read_quantile_rows), "subject_id,t_1,t_2",
         "0,1", "c,2,1", "quantile values must be nondecreasing"),
        ((io.read_quantile_csv, io._read_quantile_rows), "subject_id,t_1,t_2",
         "0,1", "c,0,x", "could not convert string to float: 'x'"),
        ((io.read_subjects_csv,), "subject_id,survey_weight",
         "1.0", "c,-1", "survey_weight must be positive and finite"),
        ((io.read_summary_csv,), "subject_id,p_inactive,tac_per_day",
         "0.5,1", "c,nan,1", "non-finite value"),
    ], ids=["readings_checked", "readings_unparsed", "quantile_checked",
            "quantile_unparsed", "subjects", "summary"])
    def test_bad_row_reports_file_line(self, tmp_path, readers, header, good, bad, message):
        path = tmp_path / "t.csv"
        path.write_text(f'{header}\n"two\nlines",{good}\nb,{good}\n\n{bad}\n')
        for reader in readers:
            with pytest.raises(io.InputValidationError) as caught:
                reader(path)
            assert str(caught.value) == f"{path}: line 6: {message}"

    def test_frechet_summary_writer_matches_csv_writer(self, tmp_path):
        from actidist.geometry import FrechetSummary, summarize

        grids = [QuantileGrid(np.linspace(0.0, 3.0, 5)), QuantileGrid(np.full(5, 4.0))]
        signed = FrechetSummary(mean=QuantileGrid(np.array([-0.0, 0.0, 0.1, 2.5, 1e22])),
                                variance=0.0,
                                pointwise_sd=np.array([-0.0, 1e-300, 0.3, np.nan, 7.0]))
        summaries = {'comma, and "quote"': summarize(grids, [1.0, 3.0]),
                     "": signed, "plain/68-75": signed}
        path, expected = tmp_path / "frechet.csv", tmp_path / "rows.csv"
        io.write_frechet_summary_csv(path, summaries)
        write_frechet_rows(expected, summaries)
        assert path.read_bytes() == expected.read_bytes()
        assert b'"comma, and ""quote""",0.1,' in path.read_bytes()
        assert b"plain/68-75,0.1,-0.0,-0.0\r\n" in path.read_bytes()

    @pytest.mark.parametrize("write, n_ids, message", [
        (lambda path, ids: io.write_quantile_csv(path, ids, np.zeros((2, 3))), 1,
         "1 subject ids but 2 quantile rows"),
        (lambda path, ids: io.write_quantile_csv(path, ids, np.zeros((2, 3))), 3,
         "3 subject ids but 2 quantile rows"),
        (lambda path, ids: io.write_summary_csv(
            path, ids, [build_mixed(ActivitySeries("x", [0.0, 1.0], [0.0, 2.0]))] * 2, [1.0]),
         3, "3 subject ids but 2 distributions and 1 tac values"),
        (lambda path, ids: io.write_ground_truth_csv(
            path, {"age": 70.0}, [ActivitySeries(i, [0.0, 1.0], [0.0, 2.0]) for i in ids],
            np.array([0.5])), 2, "2 subject ids but 1 pi values"),
    ], ids=["quantile_short", "quantile_long", "summary", "ground_truth"])
    def test_ids_and_rows_of_other_lengths_write_nothing(self, tmp_path, write, n_ids,
                                                         message):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write(path, [f"s{i}" for i in range(n_ids)])
        assert not path.exists()

    def test_frechet_summary_emitter(self, tmp_path):
        from actidist.geometry import summarize

        grids = [QuantileGrid(np.full(3, 0.0)), QuantileGrid(np.full(3, 4.0))]
        path = tmp_path / "frechet.csv"
        io.write_frechet_summary_csv(path, {"g": summarize(grids, [1.0, 1.0])})
        lines = path.read_text().splitlines()
        assert lines[0] == "group,t,mean,sd"
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "2.0"


# cells that csv.writer quotes, a repeated quoted id, the float reprs that
# differ most, numpy scalars, and the other kinds of value a table holds
MIXED_ROWS = [
    ["a,b", 'say "hi"', "cr\rhere", "two\nlines", " lead", "", "naïve 日本", "a,b"],
    [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e22, 0.1, 1e-05],
    [np.float32(0.1), np.float64(-0.0), np.float64(np.nan), np.int64(-7), True, False,
     None, 3],
    ["", ""],
    [],
    ["a,b"],
]


class TestRowWriter:
    """io.write_rows, the writer of every table but the readings, against the
    csv.writer reference."""

    def test_mixed_cells_match_csv_writer(self, tmp_path):
        header = ["subject_id", "t,1", 'q"', ""]
        io.write_rows(tmp_path / "rows.csv", header, MIXED_ROWS)
        write_csv_rows(tmp_path / "csv.csv", header, MIXED_ROWS)
        data = (tmp_path / "rows.csv").read_bytes()
        assert data == (tmp_path / "csv.csv").read_bytes()
        assert data.decode("utf-8").split("\r\n")[:2] == [
            'subject_id,"t,1","q""",',
            '"a,b","say ""hi""","cr\rhere","two\nlines", lead,,naïve 日本,"a,b"']
        assert b"\r\n-0.0,nan,inf,-inf,5e-324,1e+22,0.1,1e-05\r\n" in data
        assert b"\r\n0.10000000149011612,-0.0,nan,-7,True,False,None,3\r\n" in data

    def test_a_row_of_one_empty_field_is_quoted(self, tmp_path):
        # unquoted, the row would be a blank line, which readers skip
        io.write_rows(tmp_path / "rows.csv", ["h"], [[""], ["x"], [None]])
        write_csv_rows(tmp_path / "csv.csv", ["h"], [[""], ["x"], [None]])
        data = (tmp_path / "rows.csv").read_bytes()
        assert data == b'h\r\n""\r\nx\r\nNone\r\n'
        assert data == (tmp_path / "csv.csv").read_bytes()


class TestBuildDist:
    def test_writes_quantiles_and_summary(self, tmp_path):
        readings, subjects = default_toy(tmp_path)
        out = tmp_path / "out"
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(out), "--m", "4"])
        assert rc == 0
        ids, grids = io.read_quantile_csv(out / "quantiles.csv")
        assert ids == ["a", "b"]
        assert grids.shape[1] == 4
        assert grids[0].tolist() == [0, 0, 2, 4]
        summary = io.read_summary_csv(out / "summary.csv")
        assert summary["b"][0] == 1.0  # all-zero subject

    def test_negative_count_exits_2(self, tmp_path, capsys):
        readings, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1", "a,1,-5"], subjects_rows=["a,1.0,70,0"])
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_over_long_id_exits_2(self, tmp_path, capsys):
        long_id = "x" * 140000
        # the readings file is read first: its long id is the error named
        for rows, name in ((["a,0,1", "a,1,2"], "subjects.csv"),
                           (["a,0,1", f"{long_id},0,2"], "readings.csv")):
            readings, subjects = write_toy_inputs(
                tmp_path, rows=rows, subjects_rows=["a,1.0,70,0", f"{long_id},1.0,71,1"])
            rc = main(["build-dist", "--input", str(readings), "--subjects",
                       str(subjects), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert f"{name}: line 3: field larger than field limit" in capsys.readouterr().err

    def test_with_summary_is_an_unknown_config_key(self, tmp_path, capsys):
        readings, subjects = default_toy(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"with_summary": False}))
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(tmp_path / "out"), "--config", str(config)])
        assert rc == 2
        assert "unknown build-dist config keys: with_summary" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("rows, message", [
        (["a,0,1", "a,1,2", "b,0,1", "b,0,3"],
         "subject 'b': timestamps must be strictly increasing"),
        (["a,0,1", "a,1,2", "b,5,1"], "subject 'b': span undefined for a single reading"),
    ], ids=["repeated_timestamp", "one_reading"])
    def test_bad_series_names_file_and_subject(self, tmp_path, capsys, rows, message):
        readings, subjects = write_toy_inputs(
            tmp_path, rows=rows, subjects_rows=["a,1.0,70,0", "b,1.0,80,1"])
        for out in (tmp_path / "new" / "out", tmp_path):
            rc = main(["build-dist", "--input", str(readings), "--subjects",
                       str(subjects), "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {readings}: {message}\n"
        assert not (tmp_path / "new").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["readings.csv", "subjects.csv"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--censor-lower", "nan", "lower nan, upper None"),
        ("--censor-lower", "inf", "lower inf, upper None"),
        ("--censor-upper", "nan", "lower None, upper nan"),
        ("--censor-upper", "inf", "lower None, upper inf"),
    ], ids=["lower_nan", "lower_inf", "upper_nan", "upper_inf"])
    def test_non_finite_censor_bound_exits_2(self, tmp_path, capsys, flag, value, message):
        readings, subjects = default_toy(tmp_path)
        out = tmp_path / "out"
        rc = main(["build-dist", "--input", str(readings), "--subjects", str(subjects),
                   "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: invalid censor bounds: {message}\n"
        assert not out.exists()

    def test_unreadable_input_exits_1(self, tmp_path):
        rc = main(["build-dist", "--input", str(tmp_path / "nope.csv"),
                   "--subjects", str(tmp_path / "nope2.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_rerun_byte_identical(self, tmp_path):
        readings, subjects = default_toy(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["build-dist", "--input", str(readings), "--subjects",
                         str(subjects), "--out", str(out), "--m", "6"]) == 0
        assert (out1 / "quantiles.csv").read_bytes() == (out2 / "quantiles.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


    def test_blank_lines_exit_0_quietly(self, tmp_path):
        # a separate process, so that a warning would reach its stderr
        readings, subjects = default_toy(tmp_path)
        lines = readings.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n\n".join(lines[:3]) + "\n\n\n" + "\n".join(lines[3:]) + "\n\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for name, path in (("plain", readings), ("spaced", spaced)):
            proc = subprocess.run(
                [sys.executable, "-m", "actidist.cli", "build-dist", "--input", str(path),
                 "--subjects", str(subjects), "--out", str(tmp_path / name), "--m", "6"],
                env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
        assert ((tmp_path / "spaced" / "quantiles.csv").read_bytes()
                == (tmp_path / "plain" / "quantiles.csv").read_bytes())


def write_cohort_inputs(tmp_path, subjects, m=80, response_names=("response",)):
    from actidist.distribution import build_mixed, tac_per_day

    ids = [s.subject_id for s in subjects]
    grids = [build_mixed(s, m=m).quantiles for s in subjects]
    qpath = tmp_path / "quantiles.csv"
    io.write_quantile_csv(qpath, ids, grids)
    spath = tmp_path / "subjects.csv"
    names = sorted({name for s in subjects for name in s.covariates
                    if isinstance(s.covariates[name], (int, float))})
    header = "subject_id,survey_weight," + ",".join(names)
    lines = [header]
    for s in subjects:
        vals = ",".join(repr(float(s.covariates[n])) for n in names)
        lines.append(f"{s.subject_id},{float(s.survey_weight)!r},{vals}")
    spath.write_text("\n".join(lines) + "\n")
    return qpath, spath


def write_toy_cohort(tmp_path, columns, rows):
    """Three-subject quantile table plus a subjects file with `columns` after
    survey_weight, one row of values per subject a, b, c."""
    qpath = tmp_path / "q.csv"
    qpath.write_text("subject_id,t_1,t_2,t_3\na,0,1,2\nb,1,2,4\nc,0,3,5\n")
    spath = tmp_path / "s.csv"
    spath.write_text(f"subject_id,survey_weight,{columns}\n"
                     + "".join(f"{sid},1.0,{row}\n" for sid, row in zip("abc", rows)))
    return qpath, spath


@pytest.fixture(scope="module")
def regress_cohort(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("regress")
    pop, _ = simulate_population(spread_response_spec(60, seed=21, minutes=400))
    subjects = draw_sample(pop, StratifiedDesign({"all": 0.9}), seed=22)
    return (tmp_path, *write_cohort_inputs(tmp_path, subjects))


@pytest.fixture(scope="module")
def classify_cohort(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("classify")
    pop, _ = simulate_population(two_cluster_spec(80, seed=23, minutes=300))
    subjects = draw_sample(pop, StratifiedDesign({"frail": 0.9, "active": 0.7}),
                           seed=24)
    return (tmp_path, *write_cohort_inputs(tmp_path, subjects))


class TestRegress:
    def test_report_prefers_distribution(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        out = tmp_path / "out"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "response"])
        assert rc == 0
        text = (out / "report.csv").read_text().splitlines()
        assert text[0].startswith("response,r2_distribution,r2_tac")
        fields = text[1].split(",")
        assert fields[0] == "response"
        assert float(fields[1]) > float(fields[2])

    def test_missing_response_column_exits_2(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out2"), "--responses", "ghost"])
        assert rc == 2

    def test_empty_lambda_grid_exits_2(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lambda_grid": []}))
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out3"), "--responses", "response",
                   "--config", str(config)])
        assert rc == 2

    def test_non_finite_lambda_grid_exits_2(self, regress_cohort, capsys):
        tmp_path, qpath, spath = regress_cohort
        config = tmp_path / "nan_grid.json"
        # Python's json reads NaN
        config.write_text('{"lambda_grid": [NaN, 0.1]}')
        out = tmp_path / "out_nan_grid"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "response",
                   "--config", str(config)])
        assert rc == 2
        assert "lambda grid entries must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_heuristic_once_per_side(self, regress_cohort, monkeypatch):
        from actidist import regression

        tmp_path, qpath, spath = regress_cohort
        calls = []
        real = regression.median_heuristic_sigma_from_matrix

        def counting(dist, weights=None):
            calls.append(dist.shape)
            return real(dist, weights)

        monkeypatch.setattr(regression, "median_heuristic_sigma_from_matrix", counting)
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out_sigma"), "--responses", "response,age",
                   "--save-models"])
        assert rc == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_no_response_named_exits_2(self, regress_cohort, capsys, given):
        tmp_path, qpath, spath = regress_cohort
        config = tmp_path / "no_responses.json"
        config.write_text(json.dumps({"responses": []}))
        option = ["--responses", ","] if given == "flag" else ["--config", str(config)]
        out = tmp_path / "out_no_responses"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), *option])
        assert rc == 2
        assert capsys.readouterr().err == "error: no response columns requested\n"
        assert not out.exists()

    def test_summary_gives_the_exact_daily_totals(self, tmp_path):
        pop, _ = simulate_population(spread_response_spec(20, seed=25, minutes=300))
        # weights that differ, so that the heuristic's pair weights matter
        subjects = [dataclasses.replace(s, survey_weight=1.0 + k % 3)
                    for k, s in enumerate(pop)]
        readings, spath = tmp_path / "readings.csv", tmp_path / "subjects.csv"
        io.write_readings_csv(readings, subjects)
        io.write_subjects_csv(spath, subjects)
        dist = tmp_path / "dist"
        assert main(["build-dist", "--input", str(readings), "--subjects", str(spath),
                     "--out", str(dist), "--m", "40", "--censor-lower", "5"]) == 0
        sigmas = []
        for name, summary in (("exact", ["--summary", str(dist / "summary.csv")]),
                              ("recovered", [])):
            out = tmp_path / name
            assert main(["regress", "--input", str(dist / "quantiles.csv"),
                         "--subjects", str(spath), "--out", str(out), *summary]) == 0
            with open(out / "report.csv", newline="") as fh:
                sigmas.append(float(next(csv.DictReader(fh))["sigma_tac"]))
        with open(dist / "summary.csv", newline="") as fh:
            tac = {row["subject_id"]: float(row["tac_per_day"]) for row in csv.DictReader(fh)}
        with open(dist / "quantiles.csv", newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        weights = {s.subject_id: s.survey_weight for s in subjects}
        assert sigmas[0] == median_heuristic_sigma([tac[sid] for sid in ids],
                                                   [weights[sid] for sid in ids])
        assert sigmas[1] != sigmas[0]

    def test_misspelled_config_key_exits_2(self, regress_cohort, capsys):
        tmp_path, qpath, spath = regress_cohort
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"lamda_grid": [0.1, 1.0]}))
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out_typo"), "--config", str(config)])
        assert rc == 2
        assert "unknown regress config keys: lamda_grid" in capsys.readouterr().err

    def test_non_finite_response_names_column_and_subject(self, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        qpath.write_text("subject_id,t_1,t_2,t_3\na,0,1,2\nb,1,2,4\nc,0,3,5\n")
        spath = tmp_path / "s.csv"
        spath.write_text("subject_id,survey_weight,response\n"
                         "a,1.0,0.5\nb,1.0,nan\nc,1.0,2.0\n")
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "non-finite response column 'response' for: b" in capsys.readouterr().err

    def test_text_response_names_column_and_subject(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "response", ["0.5", "abc", "2.0"])
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("missing, non-numeric or non-finite response column 'response' for: b"
                in capsys.readouterr().err)

    def test_constant_response_names_its_column(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "response,y",
                                        ["0.5,1.0", "1.5,1.0", "2.0,1.0"])
        out = tmp_path / "out"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "response,y", "--save-models"])
        assert rc == 2
        assert capsys.readouterr().err == "error: response 'y': zero variance response\n"
        assert not out.exists()

    def test_bad_summary_exits_2(self, tmp_path, capsys):
        qpath = tmp_path / "q.csv"
        qpath.write_text("subject_id,t_1,t_2,t_3\na,0,1,2\nb,1,2,4\nc,0,3,5\n")
        spath = tmp_path / "s.csv"
        spath.write_text("subject_id,survey_weight,response\n"
                         "a,1.0,0.5\nb,1.0,1.5\nc,1.0,2.0\n")
        summary = tmp_path / "summary.csv"
        summary.write_text("subject_id,p_inactive,tac_per_day\n"
                           "a,0.5,10.0\nb,0.5,nan\nc,0.5,30.0\n")
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--summary", str(summary), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "summary.csv: line 3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_repeated_response_exits_2_without_output(self, regress_cohort, capsys, given):
        tmp_path, qpath, spath = regress_cohort
        config = tmp_path / "repeated.json"
        config.write_text(json.dumps({"responses": ["response", "age", "response"]}))
        option = (["--responses", "response,age,response"] if given == "flag"
                  else ["--config", str(config)])
        out = tmp_path / "out_repeated"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--save-models", *option])
        assert rc == 2
        assert capsys.readouterr().err == "error: repeated response 'response'\n"
        assert not out.exists()

    def test_single_named_response_one_row(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        out = tmp_path / "out4"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "age"])
        assert rc == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("age,")

    def test_rerun_byte_identical(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        outs = []
        for name in ("rep1", "rep2"):
            out = tmp_path / name
            assert main(["regress", "--input", str(qpath), "--subjects",
                         str(spath), "--out", str(out),
                         "--responses", "response"]) == 0
            outs.append(out)
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()

    def test_saved_model_scores_via_predict(self, regress_cohort):
        tmp_path, qpath, spath = regress_cohort
        out = tmp_path / "out5"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "response", "--save-models"])
        assert rc == 0
        model_path = out / "model_response.json"
        assert model_path.exists()
        pred_out = tmp_path / "pred"
        rc = main(["predict", "--model", str(model_path), "--input", str(qpath),
                   "--out", str(pred_out)])
        assert rc == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        ids, grids = io.read_quantile_csv(qpath)
        expected = krr_predict_batch(load_model(model_path), grids)
        assert len(lines) == len(ids) + 1
        got = np.array([float(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_shared_training_matrix_encoded_once(self, regress_cohort, monkeypatch):
        from actidist import regression
        encoded = []

        def counting(value):
            if isinstance(value, list):  # the training matrix's rows
                encoded.append(len(value))
            return json.dumps(value)

        tmp_path, qpath, spath = regress_cohort
        out = tmp_path / "out_encoded"
        # a CLI process starts with an empty memo
        regression._matrix_json.cache_clear()
        monkeypatch.setattr(regression, "json", SimpleNamespace(dumps=counting))
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--responses", "response,age", "--save-models"])
        assert rc == 0
        assert encoded == [len(io.read_quantile_csv(qpath)[0])]
        models = [json.loads((out / f"model_{name}.json").read_text(encoding="utf-8"))
                  for name in ("response", "age")]
        assert models[0]["training_matrix"] == models[1]["training_matrix"]

    def test_predict_over_long_id_exits_2(self, tmp_path, capsys):
        x = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
        model_path = tmp_path / "model.json"
        save_model(krr_fit(SurveySample(x, [1.0, 2.0, 0.5]), lam=0.5), model_path)
        qpath = tmp_path / "q.csv"
        qpath.write_text(f"subject_id,t_1,t_2\na,0,1\n{'x' * 140000},1,2\n")
        rc = main(["predict", "--model", str(model_path), "--input", str(qpath),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "q.csv: line 3: field larger than field limit" in capsys.readouterr().err


def bad_model(path, key, value):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] = value
    bad = path.with_name("bad_model.json")
    bad.write_text(json.dumps(payload), encoding="utf-8")
    return bad


class TestPredictModelChecks:
    @pytest.mark.parametrize("key, value, message", [
        ("alpha", [float("nan")] * 3, "alpha must hold one finite value per training row"),
        ("alpha", [1.0, 2.0], "alpha must hold one finite value per training row"),
        ("training_matrix", [[0.0, 1.0], [3.0, 1.0], [2.0, 2.5]],
         "quantile values must be nondecreasing"),
        ("training_matrix", [[0.0, 1.0], [1.0, float("nan")], [2.0, 2.5]],
         "quantile values must be finite"),
        ("kind", "banana", "unknown model kind 'banana'"),
        ("sigma", -1.0, "sigma must be positive and finite"),
        ("lambda", float("nan"), "lambda must be nonnegative and finite"),
        ("sigma", True, "sigma must be positive and finite"),
        ("lambda", False, "lambda must be nonnegative and finite"),
    ])
    def test_bad_model_exits_2_without_output(self, tmp_path, capsys, key, value, message):
        x = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
        model_path = tmp_path / "model.json"
        save_model(krr_fit(SurveySample(x, [1.0, 2.0, 0.5]), lam=0.5), model_path)
        bad = bad_model(model_path, key, value)
        qpath = tmp_path / "q.csv"
        qpath.write_text("subject_id,t_1,t_2\na,0,1\nb,1,2\n")
        out = tmp_path / "out"
        rc = main(["predict", "--model", str(bad), "--input", str(qpath),
                   "--out", str(out)])
        assert rc == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


    def test_width_mismatch_names_both_files(self, tmp_path, capsys):
        x = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
        model_path = tmp_path / "model.json"
        save_model(krr_fit(SurveySample(x, [1.0, 2.0, 0.5]), lam=0.5), model_path)
        qpath = tmp_path / "q.csv"
        qpath.write_text("subject_id,t_1,t_2,t_3\na,0,1,2\nb,1,2,4\n")
        out = tmp_path / "out"
        rc = main(["predict", "--model", str(model_path), "--input", str(qpath),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {qpath}: 3 quantile columns, but model {model_path} was fitted on 2\n")
        assert not out.exists()


class TestClassify:
    def test_separable_cohort_perfect_confusion(self, classify_cohort):
        tmp_path, qpath, spath = classify_cohort
        out = tmp_path / "out"
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--response", "mortality"])
        assert rc == 0
        header, row = (out / "confusion.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["fp"]) == 0.0 and float(vals["fn"]) == 0.0
        assert float(vals["weighted_accuracy"]) == 1.0
        groups = (out / "risk_groups.csv").read_text()
        assert "B_nonrisk" in groups
        assert (out / "group_profiles.csv").exists()
        assert (out / "predictions.csv").exists()

    def test_threshold_zero_no_false_negatives(self, classify_cohort):
        tmp_path, qpath, spath = classify_cohort
        out = tmp_path / "out_t0"
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--response", "mortality", "--threshold", "0"])
        assert rc == 0
        header, row = (out / "confusion.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["fn"]) == 0.0

    def test_all_survivor_cohort_only_b_and_unassigned(self, tmp_path):
        pop, _ = simulate_population(two_cluster_spec(40, seed=25, minutes=200))
        for s in pop:
            s.covariates["mortality"] = 0
        qpath, spath = write_cohort_inputs(tmp_path, pop)
        out = tmp_path / "out"
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out), "--response", "mortality"])
        assert rc == 0
        labels = {line.split(",")[1]
                  for line in (out / "risk_groups.csv").read_text().splitlines()[1:]}
        assert labels <= {"B_nonrisk", "A_risk", "unassigned"}
        assert "B_nonrisk" in labels

    def test_nonbinary_response_exits_2(self, classify_cohort):
        tmp_path, qpath, spath = classify_cohort
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "outbad"), "--response", "age"])
        assert rc == 2

    def test_text_response_names_column_and_subject(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "mortality", ["0", "abc", "1"])
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("missing, non-numeric or non-finite response column 'mortality' for: b"
                in capsys.readouterr().err)

    def test_stratify_age_without_age_column_names_subjects(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "mortality", ["0", "1", "1"])
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out"), "--stratify-age"])
        assert rc == 2
        assert ("missing, non-numeric or non-finite covariate column 'age' for: a, b, c"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_stratify_age_text_age_names_subject(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "mortality,age",
                                        ["0,70", "1,old", "1,80"])
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out"), "--stratify-age"])
        assert rc == 2
        assert ("missing, non-numeric or non-finite covariate column 'age' for: b"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_nw_loo_once_per_candidate_bandwidth(self, classify_cohort, monkeypatch):
        from actidist import evaluation, regression

        tmp_path, qpath, spath = classify_cohort
        grids, bandwidths = [], []
        real_grid, real_loo = regression.distance_quantile_grid, regression.nw_loo

        def recording_grid(sample):
            grids.append(real_grid(sample))
            return grids[-1]

        def counting_loo(sample, bandwidth):
            bandwidths.append(bandwidth)
            return real_loo(sample, bandwidth)

        monkeypatch.setattr(evaluation, "distance_quantile_grid", recording_grid)
        for module in (evaluation, regression):
            monkeypatch.setattr(module, "nw_loo", counting_loo)
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(tmp_path / "out_count"), "--stratify-age"])
        assert rc == 0
        assert len(grids) == 1 and grids[0].size > 1
        assert bandwidths == grids[0].tolist()

    def test_cold_classify_loads_no_numpy_ma(self, classify_cohort):
        tmp_path, qpath, spath = classify_cohort
        # a fresh process: this one may have imported numpy.ma already
        code = ("import sys; from actidist.cli import main; "
                f"rc = main(['classify', '--input', {str(qpath)!r}, '--subjects', "
                f"{str(spath)!r}, '--out', {str(tmp_path / 'out_cold')!r}, "
                "'--stratify-age']); "
                "print(rc, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == ["0", "False"]

    def test_rerun_byte_identical(self, classify_cohort):
        tmp_path, qpath, spath = classify_cohort
        outs = []
        for name in ("rep1", "rep2"):
            out = tmp_path / name
            assert main(["classify", "--input", str(qpath), "--subjects",
                         str(spath), "--out", str(out),
                         "--response", "mortality"]) == 0
            outs.append(out)
        for fname in ("predictions.csv", "confusion.csv", "risk_groups.csv",
                      "group_profiles.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestJoinChecks:
    """A quantile-table id that the subjects or summary file lacks is named on
    stderr, exits 2, and leaves no output directory."""

    @pytest.mark.parametrize("command, column, rows", [
        ("regress", "response", ["0.5", "1.5"]),
        ("classify", "mortality", ["0", "1"]),
    ])
    def test_id_missing_from_subjects(self, tmp_path, capsys, command, column, rows):
        # the subjects file holds a and b; the quantile table also has c
        qpath, spath = write_toy_cohort(tmp_path, column, rows)
        out = tmp_path / "out"
        rc = main([command, "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out)])
        assert rc == 2
        assert "error: subjects file lacks entries for: c" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-dist", "regress", "classify"])
    def test_repeated_subjects_column(self, tmp_path, capsys, command):
        readings, _ = default_toy(tmp_path)
        qpath, spath = write_toy_cohort(tmp_path, "mortality,response,survey_weight",
                                        ["0,0.5,5.0", "1,1.5,5.0", "1,2.0,5.0"])
        out = tmp_path / "out"
        rc = main([command, "--input", str(readings if command == "build-dist" else qpath),
                   "--subjects", str(spath), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {spath}: repeated column 'survey_weight'\n"
        assert not out.exists()

    def test_repeated_summary_column(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "response", ["0.5", "1.5", "2.0"])
        summary = tmp_path / "summary.csv"
        summary.write_text("subject_id,p_inactive,tac_per_day,tac_per_day\n"
                           "a,0.5,10.0,1.0\nb,0.5,20.0,2.0\nc,0.5,30.0,3.0\n")
        out = tmp_path / "out"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--summary", str(summary), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {summary}: repeated column 'tac_per_day'\n"
        assert not out.exists()

    def test_padded_ids_join(self, tmp_path):
        qpath, spath = write_toy_cohort(tmp_path, "mortality", ["0", "1", "1"])
        qpath.write_text("subject_id,t_1,t_2,t_3\n a ,0,1,2\nb ,1,2,4\n c,0,3,5\n")
        out = tmp_path / "out"
        assert main(["classify", "--input", str(qpath), "--subjects", str(spath),
                     "--out", str(out)]) == 0
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a", "b", "c"]

    def test_id_missing_from_summary(self, tmp_path, capsys):
        qpath, spath = write_toy_cohort(tmp_path, "response", ["0.5", "1.5", "2.0"])
        summary = tmp_path / "summary.csv"
        summary.write_text("subject_id,p_inactive,tac_per_day\n"
                           "a,0.5,10.0\nc,0.5,30.0\n")
        out = tmp_path / "out"
        rc = main(["regress", "--input", str(qpath), "--subjects", str(spath),
                   "--summary", str(summary), "--out", str(out)])
        assert rc == 2
        assert "error: summary file lacks entries for: b" in capsys.readouterr().err
        assert not out.exists()


class TestOneSubjectTable:
    """regress and classify need two subjects, and refuse a table of one
    where they read it; predict scores one."""

    @pytest.mark.parametrize("command, column", [("regress", "response"),
                                                 ("classify", "mortality")])
    def test_refused_with_file_and_count(self, tmp_path, capsys, command, column):
        qpath, spath = write_toy_cohort(tmp_path, column, ["1", "0", "1"])
        qpath.write_text("subject_id,t_1,t_2,t_3\na,0,1,2\n")
        out = tmp_path / "out"
        rc = main([command, "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {qpath}: 1 subject; need at least 2\n"
        assert not out.exists()

    def test_predict_scores_one_row(self, tmp_path):
        x = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
        model = krr_fit(SurveySample(x, [1.0, 2.0, 0.5]), lam=0.5)
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        qpath = tmp_path / "q.csv"
        qpath.write_text("subject_id,t_1,t_2\na,0.5,2\n")
        out = tmp_path / "out"
        assert main(["predict", "--model", str(model_path), "--input", str(qpath),
                     "--out", str(out)]) == 0
        expected = float(krr_predict_batch(model, [[0.5, 2.0]])[0])
        assert (out / "predictions.csv").read_text().splitlines() == [
            "subject_id,prediction", f"a,{expected!r}"]


SIM_CONFIG = {
    "population": {
        "size": 60,
        "minutes": 30,
        "strata": [
            {"name": "a", "proportion": 0.5, "inactivity_range": [0.3, 0.5],
             "intensity": {"kind": "gamma", "params": [2.0, 50.0]}},
            {"name": "b", "proportion": 0.5, "inactivity_range": [0.5, 0.7],
             "intensity": {"kind": "lognormal", "params": [3.0, 0.7]}},
        ],
    },
    "design": {"kind": "stratified", "fractions": {"a": 1.0, "b": 1.0}},
    "seed": 3,
    "sample_seed": 4,
}


def _add_response(cfg):
    stratum = cfg["population"]["strata"][0]
    stratum["response"] = {"kind": "tac", "scale": 0.01}
    return stratum["response"]


def _poisson_design(cfg):
    cfg["design"] = {"kind": "poisson", "expected_n": 20}
    return cfg["design"]


# every object of a simulate config: how to reach it in a copy of
# SIM_CONFIG, where an error places it, and one key it requires
SIM_CONFIG_OBJECTS = {
    "population": (lambda c: c["population"], "population", "size"),
    "stratum": (lambda c: c["population"]["strata"][1], "population.strata[1]", "name"),
    "intensity": (lambda c: c["population"]["strata"][0]["intensity"],
                  "population.strata[0].intensity", "kind"),
    "response": (_add_response, "population.strata[0].response", "kind"),
    "stratified_design": (lambda c: c["design"], "stratified design", "fractions"),
    "poisson_design": (_poisson_design, "poisson design", "expected_n"),
}


def assert_writes_rows(tmp_path, subjects):
    """write_readings_csv writes subjects with the bytes of the
    row-at-a-time oracle."""
    io.write_readings_csv(tmp_path / "readings.csv", subjects)
    write_readings_rows(tmp_path / "rows.csv", subjects)
    assert (tmp_path / "readings.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestReadingsWriterGrids:
    def test_shared_equal_and_signed_grids(self, tmp_path):
        """A grid byte-equal to the previous subject's, shared or copied,
        takes its time strings; -0.0 differs by bytes, so it prints apart."""
        grid = np.arange(3.0)
        grid.setflags(write=False)
        signed = grid.copy()
        signed[0] = -0.0
        subjects = [ActivitySeries(sid, t, [1.0, 0.0, 2.5])
                    for sid, t in [("a", grid), ("b", grid), ("c", grid.copy()),
                                   ("d", signed), ("e", signed), ("f", grid)]]
        assert subjects[1].timestamps is subjects[0].timestamps
        io.write_readings_csv(tmp_path / "block.csv", subjects)
        write_readings_rows(tmp_path / "rows.csv", subjects)
        data = (tmp_path / "block.csv").read_bytes()
        assert data == (tmp_path / "rows.csv").read_bytes()
        text = data.decode("utf-8")
        firsts = [line for line in text.splitlines() if line.split(",")[1] in ("0.0", "-0.0")]
        assert firsts == ["a,0.0,1.0", "b,0.0,1.0", "c,0.0,1.0",
                          "d,-0.0,1.0", "e,-0.0,1.0", "f,0.0,1.0"]

    def test_simulated_population_and_sample(self, tmp_path, monkeypatch):
        """Subjects that share one grid, written in whole slices and in
        slices of 2 rows, which cut each subject's 50 minutes."""
        population, _ = simulate_population(two_cluster_spec(8, seed=3, minutes=50))
        sample = draw_sample(population, StratifiedDesign({"frail": 0.5, "active": 0.5}),
                             seed=4)
        for slice_rows in (io._WRITE_CHUNK_ROWS, 2):
            monkeypatch.setattr(io, "_WRITE_CHUNK_ROWS", slice_rows)
            assert_writes_rows(tmp_path, population)
            assert_writes_rows(tmp_path, sample)


def mixed_readings(n):
    """n readings: +0.0 at every third minute, distinct non-zero floats
    elsewhere."""
    return np.where(np.arange(n) % 3 == 0, 0.0, np.arange(n) * 1.25 + 0.1)


class TestReadingsWriterSlices:
    """Edge cases of the sliced writer, each against write_readings_rows."""

    @pytest.mark.parametrize("slice_rows", [io._WRITE_CHUNK_ROWS, 3])
    def test_one_slice_and_a_slice_plus_one_row(self, tmp_path, monkeypatch, slice_rows):
        monkeypatch.setattr(io, "_WRITE_CHUNK_ROWS", slice_rows)
        subjects = [ActivitySeries(sid, np.arange(float(n)), mixed_readings(n))
                    for sid, n in [("a", slice_rows), ("b", slice_rows + 1),
                                   ("c", 2 * slice_rows)]]
        assert_writes_rows(tmp_path, subjects)
        lines = (tmp_path / "readings.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 4 * slice_rows + 1

    def test_grids_of_other_lengths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_WRITE_CHUNK_ROWS", 2)
        long, short = np.arange(5.0), np.arange(3.0) + 0.5
        subjects = [ActivitySeries(sid, t, mixed_readings(len(t)) + 1.0)
                    for sid, t in [("a", long), ("b", short), ("c", long),
                                   ("d", long), ("e", short[:1])]]
        assert_writes_rows(tmp_path, subjects)

    def test_all_zero_no_zero_and_one_reading(self, tmp_path):
        subjects = [ActivitySeries("zeros", np.arange(6.0), np.zeros(6)),
                    ActivitySeries("positive", np.arange(6.0), np.arange(6.0) + 0.5),
                    ActivitySeries("one", [7.0], [3.5]),
                    ActivitySeries("one_zero", [7.0], [0.0])]
        assert_writes_rows(tmp_path, subjects)

    def test_signed_zero_subnormal_and_exponent_reprs(self, tmp_path):
        values = [-0.0, 5e-324, 1e-05, 1e16, 0.0, 0.1]
        subjects = [ActivitySeries("a", np.arange(6.0), values)]
        assert_writes_rows(tmp_path, subjects)
        counts = [line.split(",")[2] for line in
                  (tmp_path / "readings.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert counts == ["-0.0", "5e-324", "1e-05", "1e+16", "0.0", "0.1"]

    def test_ids_with_format_and_csv_characters(self, tmp_path):
        ids = ["50%", "a{0}", '"q,x"']
        subjects = [ActivitySeries(sid, np.arange(4.0), mixed_readings(4)) for sid in ids]
        assert_writes_rows(tmp_path, subjects)
        assert io.read_readings_csv(tmp_path / "readings.csv").keys() == set(ids)


class TestReadingsReaderMemory:
    """Subjects of 1500 and 200 readings read in chunks of 1024 rows, so
    that most subjects cross a chunk boundary and some sit inside one."""

    CHUNK_ROWS = 1024

    @pytest.fixture
    def read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_READ_CHUNK_ROWS", self.CHUNK_ROWS)
        rng = np.random.default_rng(0)
        subjects = [ActivitySeries(f"s{k}", np.arange(float(n)), rng.random(n))
                    for k, n in enumerate([1500, 200] * 20)]
        path = tmp_path / "readings.csv"
        io.write_readings_csv(path, subjects)
        io.read_readings_csv(path)  # loads what the parser loads once per process
        tracemalloc.start()
        try:
            read = io.read_readings_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return read, peak

    def test_every_array_owns_its_data(self, read):
        arrays = [a for pair in read[0].values() for a in pair]
        assert len(arrays) == 80
        assert all(a.flags.owndata and a.base is None for a in arrays)

    def test_no_two_subjects_share_memory(self, read):
        arrays = [a for pair in read[0].values() for a in pair]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    def test_peak_is_the_result_plus_a_few_chunks(self, read):
        result, peak = read
        nbytes = sum(t.nbytes + c.nbytes for t, c in result.values())
        # a chunk: the parser's rows and the two float64 columns taken from them
        chunk_bytes = self.CHUNK_ROWS * (io._READINGS_ROW.itemsize + 16)
        assert peak <= nbytes + 8 * chunk_bytes


class TestQuantileReaderMemory:
    """A 600 x 200 quantile table, which one np.loadtxt call reads."""

    @pytest.fixture
    def read(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.sort(rng.random((600, 200)) * 1000, axis=1)
        path = tmp_path / "quantiles.csv"
        io.write_quantile_csv(path, [f"s{k}" for k in range(len(x))], x)
        io.read_quantile_csv(path)  # loads what the parser loads once per process
        tracemalloc.start()
        try:
            read = io.read_quantile_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return path, read, peak

    def test_same_table_as_the_row_loop(self, read):
        path, (ids, x), _ = read
        row_ids, row_x = io._read_quantile_rows(path)
        assert ids == row_ids
        assert x.dtype == np.float64 and x.shape == (600, 200) and not x.flags.writeable
        assert x.tobytes() == row_x.tobytes()

    def test_peak_holds_the_matrix_once(self, read):
        _, (_, x), peak = read
        # the parser's rows: the matrix, an id pointer per row and the ids
        assert peak <= 1.6 * x.nbytes


class TestTimeMajorReadings:
    """A readings file sorted by (timestamp, id), whose id changes every row,
    read in chunks of 1024 rows."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_READ_CHUNK_ROWS", 1024)
        rng = np.random.default_rng(1)
        subjects = [ActivitySeries(f"s{k:02d}", np.arange(1000.0), rng.random(1000))
                    for k in range(24)]
        file_order = tmp_path / "file_order.csv"
        io.write_readings_csv(file_order, subjects)
        with open(file_order, "r", encoding="utf-8", newline="") as fh:
            header, *rows = fh.readlines()
        rows.sort(key=lambda row: (float(row.split(",")[1]), row))
        time_major = tmp_path / "time_major.csv"
        time_major.write_text(header + "".join(rows), encoding="utf-8", newline="")
        return file_order, time_major

    @staticmethod
    def read_with_peak(path):
        io.read_readings_csv(path)  # loads what the parser loads once per process
        tracemalloc.start()
        try:
            read = io.read_readings_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return read, peak

    def test_same_arrays_at_the_file_order_peak(self, files):
        (expected, file_order_peak), (read, peak) = map(self.read_with_peak, files)
        assert list(read) == list(expected)
        for sid, (t, count) in expected.items():
            assert read[sid][0].tobytes() == t.tobytes()
            assert read[sid][1].tobytes() == count.tobytes()
        assert peak <= 1.5 * file_order_peak


class TestSimulate:
    # the files README lists as simulate's output
    OUTPUTS = ["ground_truth.csv", "population_subjects.csv", "sample_readings.csv",
               "sample_subjects.csv"]

    def test_writes_only_its_outputs(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == self.OUTPUTS

    def test_byte_identical_reruns(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for fname in self.OUTPUTS:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_census_design_samples_everyone(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        pop_rows = (out / "population_subjects.csv").read_text().splitlines()
        sample_rows = (out / "sample_subjects.csv").read_text().splitlines()
        assert len(pop_rows) == len(sample_rows) == 61

    def test_even_split_allocation(self, tmp_path):
        config = tmp_path / "sim.json"
        cfg = json.loads(json.dumps(SIM_CONFIG))
        cfg["population"]["size"] = 1000
        cfg["population"]["minutes"] = 4
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "population_subjects.csv").read_text().splitlines()[1:]
        strata = [r.split(",")[2] for r in rows]
        assert strata.count("a") == 500 and strata.count("b") == 500

    def test_fraction_for_a_stratum_with_no_subjects_accepted(self, tmp_path):
        # the config defines stratum b, though its share rounds to no subject
        cfg = json.loads(json.dumps(SIM_CONFIG))
        cfg["population"]["strata"][0]["proportion"] = 1.0
        cfg["population"]["strata"][1]["proportion"] = 0.0
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert len((out / "sample_subjects.csv").read_text().splitlines()) == 61

    def test_invalid_spec_exits_2(self, tmp_path):
        config = tmp_path / "sim.json"
        bad = json.loads(json.dumps(SIM_CONFIG))
        bad["population"]["strata"][0]["proportion"] = 0.9
        config.write_text(json.dumps(bad))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["population"].update(minuts=10080),
         "unknown config keys in population: minuts"),
        (lambda c: c["population"]["strata"][1].update(mortality_rte=0.9),
         "unknown config keys in population.strata[1]: mortality_rte"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(parms=[1.0]),
         "unknown config keys in population.strata[0].intensity: parms"),
        (lambda c: c.update(design={"kind": "poisson", "expected_n": 20,
                                    "size_covarite": "age"}),
         "unknown config keys in poisson design: size_covarite"),
        (lambda c: c["design"].update(expected_n=20),
         "unknown config keys in stratified design: expected_n"),
        (lambda c: c["population"]["strata"].append("c"),
         "population.strata[2] must be a JSON object"),
    ], ids=["population", "stratum", "intensity", "poisson_design",
            "stratified_design", "non_object_stratum"])
    def test_misspelled_nested_key_exits_2(self, tmp_path, capsys, edit, message):
        cfg = json.loads(json.dumps(SIM_CONFIG))
        edit(cfg)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["unknown", "missing"])
    @pytest.mark.parametrize("obj", SIM_CONFIG_OBJECTS)
    def test_key_error_names_key_and_place(self, tmp_path, capsys, obj, problem):
        locate, where, required = SIM_CONFIG_OBJECTS[obj]
        cfg = json.loads(json.dumps(SIM_CONFIG))
        section = locate(cfg)
        if problem == "unknown":
            key = "extra"
            section[key] = 1
        else:
            key = required
            del section[key]
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {problem} config keys in {where}: {key}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["population"].update(size="abc"),
         "population.size: invalid literal for int() with base 10: 'abc'"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(params=[2.0]),
         "population.strata[0].intensity: gamma takes 2 params, got 1"),
        (lambda c: c["design"].update(kind=["stratified"]),
         "unknown design kind ['stratified']"),
        (lambda c: c["population"]["strata"][1].update(inactivity_range=[0.1, 0.2, 0.3]),
         "population.strata[1]: inactivity_range must be 2 values, got 3"),
        (lambda c: c["population"].update(size=30.7),
         "population.size: expected an integer, got 30.7"),
        (lambda c: c["population"]["strata"][0].update(age_range="ab"),
         'population.strata[0].age_range: expected an array, got "ab"'),
        (lambda c: c["population"]["strata"][1].update(name="a"),
         "population: stratum names repeat: a"),
        (lambda c: c["population"]["strata"][0].update(name=1),
         "population.strata[0]: stratum name must be a non-empty string, got 1"),
        (lambda c: c["population"]["strata"][1].update(name=""),
         "population.strata[1]: stratum name must be a non-empty string, got ''"),
        (lambda c: c["population"]["strata"][1].update(inactivity_range=[0.6, 0.4]),
         "population.strata[1]: inactivity_range must satisfy 0 <= lo <= hi <= 1"),
        (lambda c: _add_response(c).update(kind="noise"),
         "population.strata[0].response: unknown response model 'noise'"),
        (lambda c: _add_response(c).update(kind="constant", value=1),
         "unknown config keys in population.strata[0].response: value"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(params=["a", 1]),
         "population.strata[0].intensity: gamma params must be finite numbers with shape > 0 "
         "and scale > 0"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(params=[-2.0, 1]),
         "population.strata[0].intensity: gamma params must be finite numbers with shape > 0 "
         "and scale > 0"),
        (lambda c: c["population"]["strata"][1]["intensity"].update(params=[3.0, -1]),
         "population.strata[1].intensity: lognormal params must be finite numbers with "
         "sigma >= 0"),
        (lambda c: c["population"]["strata"][1]["intensity"].update(params=[True, 0.5]),
         "population.strata[1].intensity: lognormal params must be finite numbers with "
         "sigma >= 0"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(
            kind="lognormal_fixed_mean", params=[80.0, 1.5, 0.3]),
         "population.strata[0].intensity: lognormal_fixed_mean params must be finite "
         "numbers with mean_level > 0 and 0 <= s_lo <= s_hi"),
        (lambda c: c["population"]["strata"][0].update(age_range=[85, 68]),
         "population.strata[0]: age_range must be whole numbers lo <= hi, got [85, 68]"),
        (lambda c: c["population"]["strata"][0].update(age_range=[68.5, 85]),
         "population.strata[0]: age_range must be whole numbers lo <= hi, got [68.5, 85]"),
        (lambda c: c["population"]["strata"][1].update(mortality_rate=2),
         "population.strata[1]: mortality_rate must lie in [0, 1]"),
        (lambda c: c["population"]["strata"][0].update(inactivity_range=[True, True]),
         "population.strata[0]: inactivity_range must satisfy 0 <= lo <= hi <= 1"),
        (lambda c: _add_response(c).update(scale="nan"),
         "population.strata[0].response: scale must be a finite number, got nan"),
        (lambda c: _add_response(c).update(noise_sd=-1),
         "population.strata[0].response: noise_sd must be a finite number >= 0, got -1.0"),
        (lambda c: _add_response(c).update(noise_sd="nan"),
         "population.strata[0].response: noise_sd must be a finite number >= 0, got nan"),
        (lambda c: c["design"]["fractions"].update(a=True),
         "stratified design: fraction for stratum 'a' must be a number in (0, 1], got True"),
        (lambda c: c["design"]["fractions"].update(a="0.5"),
         "stratified design: fraction for stratum 'a' must be a number in (0, 1], got '0.5'"),
        (lambda c: _poisson_design(c).update(size_covariate=3),
         "poisson design: size_covariate must be None or a non-empty string, got 3"),
        (lambda c: _poisson_design(c).update(size_covariate=""),
         "poisson design: size_covariate must be None or a non-empty string, got ''"),
        (lambda c: _poisson_design(c).update(size_covariate="nope"),
         "size covariate 'nope' must be a positive number, got None for subject S00000"),
        (lambda c: _poisson_design(c).update(size_covariate="stratum"),
         "size covariate 'stratum' must be a positive number, got 'a' for subject S00000"),
        (lambda c: _poisson_design(c).update(size_covariate="mortality"),
         "size covariate 'mortality' must be a positive number, got 0 for subject S00000"),
        (lambda c: c["design"]["fractions"].update(actve=0.1),
         "stratified design: fraction for stratum 'actve', which population.strata "
         "does not name"),
        (lambda c: c["population"].update(size=1e20),
         "population: size must fit in int64, got 100000000000000000000"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(params=[10 ** 400, 1]),
         "population.strata[0].intensity: gamma params must be finite numbers with shape > 0 "
         "and scale > 0"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(kind="beta"),
         "population.strata[0].intensity: unknown intensity law 'beta'"),
        (lambda c: c["population"]["strata"][1]["intensity"].update(params=[1000, 0.6]),
         "stratum 'b', lognormal intensity: readings must be finite and nonnegative"),
        (lambda c: c["population"]["strata"][0]["intensity"].update(params=[2.0, 1e308]),
         "stratum 'a', gamma intensity: readings must be finite and nonnegative"),
        (lambda c: c["population"].pop("strata"), "config must define population.strata"),
        (lambda c: c["design"].pop("kind"), "config must define design.kind"),
        (lambda c: c["design"].update(fractions={}),
         "stratified design: fractions must name at least one stratum"),
    ], ids=["size_type", "params_length", "design_kind_type", "range_length",
            "size_float", "age_range_string", "repeated_name", "number_name", "empty_name",
            "inactivity_order", "noise_response", "constant_response", "params_text",
            "gamma_shape", "lognormal_sigma", "params_bool", "fixed_mean_spread",
            "age_order", "age_fraction", "mortality_above_1", "inactivity_bool",
            "response_scale_nan", "noise_sd_negative", "noise_sd_nan", "fraction_bool",
            "fraction_text", "size_covariate_number", "size_covariate_empty",
            "size_covariate_missing", "size_covariate_text", "size_covariate_zero",
            "fraction_unknown_stratum", "size_beyond_int64", "param_beyond_float",
            "unknown_law", "lognormal_draws_overflow", "gamma_draws_overflow", "no_strata",
            "no_design_kind", "no_fractions"])
    def test_bad_value_names_key_and_place(self, tmp_path, capsys, edit, message):
        cfg = json.loads(json.dumps(SIM_CONFIG))
        edit(cfg)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.9, "expected an integer, got 1.9"),
        ("sample_seed", True, "expected an integer, got true"),
        ("seed", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("sample_seed", [1], "expected an integer, got [1]"),
    ], ids=["seed_float", "sample_seed_bool", "seed_text", "sample_seed_array"])
    def test_bad_seed_exits_before_simulating(self, tmp_path, capsys, monkeypatch,
                                              key, value, message):
        def never(spec):
            raise AssertionError("simulate_population called")

        monkeypatch.setattr(datagen, "simulate_population", never)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**SIM_CONFIG, key: value}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {config}: {key}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_left_out_keys_take_the_spec_defaults(self, tmp_path, monkeypatch):
        specs = []
        simulate = datagen.simulate_population
        monkeypatch.setattr(datagen, "simulate_population",
                            lambda spec: specs.append(spec) or simulate(spec))
        cfg = json.loads(json.dumps(SIM_CONFIG))
        cfg["population"]["size"] = 4
        del cfg["population"]["minutes"]
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        (spec,) = specs
        # seed is the config's top-level key, not a population key
        given = [(spec, {*cfg["population"], "seed"})]
        given += [(s, set(entry)) for s, entry in zip(spec.strata, cfg["population"]["strata"])]
        defaulted = 0
        for obj, keys in given:
            for f in dataclasses.fields(obj):
                if f.name not in keys:
                    assert getattr(obj, f.name) == f.default
                    defaulted += 1
        assert defaulted == 7  # minutes, and each stratum's age range, mortality, response

    def test_ground_truth_contents(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "ground_truth.csv").read_text().splitlines()
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"population_mean", "stratum", "pi"}


class TestCliMisc:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "build-dist" in printed and "regress" in printed

    def test_print_config_lists_every_config_key(self, capsys):
        assert main(["--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "seed" not in printed["regress"] and "seed" not in printed["classify"]
        assert {"population", "design", "seed", "sample_seed"} == set(printed["simulate"])

    def test_default_lambda_grid_is_compare_r2s(self):
        from actidist.cli import DEFAULTS
        from actidist.evaluation import DEFAULT_LAMBDA_GRID

        assert DEFAULTS["regress"]["lambda_grid"] == DEFAULT_LAMBDA_GRID.tolist()

    def test_cli_import_loads_no_estimator(self):
        # a fresh process: this one has imported every module already
        code = ("import sys, actidist.cli, actidist; "
                "print(sorted(m for m in sys.modules if m.startswith('actidist.'))); "
                "print(actidist.__all__)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        loaded, exported = map(ast.literal_eval, proc.stdout.splitlines())
        assert loaded == ["actidist.cli", "actidist.distribution", "actidist.io"]
        assert exported == EXPORTED

    def test_cli_keeps_its_former_names(self):
        from actidist import cli, datagen, evaluation, regression

        assert cli.krr_fit is regression.krr_fit
        assert cli.compare_r2 is evaluation.compare_r2
        assert cli.datagen is datagen
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            cli.nope

    def test_exports_resolve(self):
        import actidist

        for name in EXPORTED:
            assert getattr(actidist, name) is not None
        assert actidist.krr_fit is krr_fit
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            actidist.nope

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("text", ["[1]", "null", "3", '"ab"', "[]", '""'])
    @pytest.mark.parametrize("command", ["build-dist", "regress", "classify", "simulate"])
    def test_config_that_is_no_json_object_exits_2(self, tmp_path, capsys, command, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        inputs = [] if command == "simulate" else [
            "--input", str(tmp_path / "in.csv"), "--subjects", str(tmp_path / "s.csv")]
        assert main([command, *inputs, "--out", str(out), "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: a config file must hold one JSON object\n")
        assert not out.exists()

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path):
        readings, subjects = default_toy(tmp_path)
        out = tmp_path / "out"
        # m=1 is rejected after the output directory is created
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(out), "--m", "1"])
        assert rc == 2
        assert not list(out.glob("*.csv"))

    def test_failure_after_writes_deletes_written_files(self, classify_cohort,
                                                        monkeypatch, capsys):
        tmp_path, qpath, spath = classify_cohort
        out = tmp_path / "out_partial"

        def full_disk(path, summaries):
            raise OSError("disk full")

        # classify has written three tables when it reaches the profiles
        monkeypatch.setattr(io, "write_frechet_summary_csv", full_disk)
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out)])
        assert rc == 1
        assert "error: disk full" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out_dir(self, classify_cohort,
                                                  monkeypatch, capsys):
        tmp_path, qpath, spath = classify_cohort
        out = tmp_path / "existing"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")

        def full_disk(path, summaries):
            raise OSError("disk full")

        monkeypatch.setattr(io, "write_frechet_summary_csv", full_disk)
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out)])
        assert rc == 1
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_failed_run_removes_the_parents_it_made(self, classify_cohort,
                                                    monkeypatch, capsys):
        tmp_path, qpath, spath = classify_cohort
        top = tmp_path / "new_parent"
        out = top / "deeper" / "out"

        def full_disk(path, summaries):
            raise OSError("disk full")

        monkeypatch.setattr(io, "write_frechet_summary_csv", full_disk)
        rc = main(["classify", "--input", str(qpath), "--subjects", str(spath),
                   "--out", str(out)])
        assert rc == 1
        assert not top.exists() and tmp_path.is_dir()


# the parent tree's --print-config output, byte for byte
PRINTED_DEFAULTS = """{
  "build-dist": {
    "m": 500,
    "censor_lower": null,
    "censor_upper": null
  },
  "regress": {
    "responses": [
      "response"
    ],
    "lambda_grid": [
      0.0001,
      0.00031622776601683794,
      0.001,
      0.0031622776601683794,
      0.01,
      0.03162277660168379,
      0.1,
      0.31622776601683794,
      1.0,
      3.1622776601683795,
      10.0,
      31.622776601683793,
      100.0
    ],
    "save_models": false
  },
  "classify": {
    "response": "mortality",
    "threshold": 0.5,
    "stratify_age": false
  },
  "simulate": {
    "seed": 0,
    "sample_seed": 1,
    "population": null,
    "design": null
  },
  "predict": {}
}
"""


# a flag value of each option kind that io.FROM_JSON reads, and one it
# refuses; a bool flag takes no value
FLAG_VALUES = {"int": ("7", "2.5"), "float": ("0.25", "low"), "name": ("died", None),
               "names": ("a, b", None), "bool": (None, None)}


def parsed(command: str, config: Path, *flags: str) -> argparse.Namespace:
    """The parsed command line of `command`, whose file arguments need not exist."""
    files = ["--out", "o"] if command == "simulate" else [
        "--input", "i", "--subjects", "s", "--out", "o"]
    return cli._build_parser().parse_args([command, *files, "--config", str(config), *flags])


class TestOptionTable:
    """The parser's flags, the DEFAULTS table and the config values' types."""

    def test_print_config_bytes(self, capsysbinary):
        assert main(["--print-config"]) == 0
        assert capsysbinary.readouterr().out == PRINTED_DEFAULTS.encode()

    def test_flags_and_defaults_agree(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(cli.DEFAULTS) == set(cli._COMMANDS)
        files = {"input", "subjects", "summary", "model", "out", "config"}
        for command, subparser in sub.choices.items():
            dests = {a.dest for a in subparser._actions} - {"help"}
            keys = set(cli.DEFAULTS[command])
            assert dests - files <= keys, command
            assert keys - {"lambda_grid", "population", "design"} <= dests, command

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, options in cli._OPTIONS.items()
        for key, (_, _, text) in options.items() if text is not None])
    def test_flag_and_config_values_convert_alike(self, tmp_path, command, key):
        valid, invalid = FLAG_VALUES[cli._OPTIONS[command][key][0]]
        flag = "--" + key.replace("_", "-")
        empty, config = tmp_path / "empty.json", tmp_path / "cfg.json"
        empty.write_text("{}")
        by_flag = parsed(command, empty, flag, *[valid] * (valid is not None))
        merged = cli._merged(by_flag, command)
        assert repr(merged[key]) != repr(cli.DEFAULTS[command][key])
        # the config file gives the value that the parser stored for the flag
        config.write_text(json.dumps({key: getattr(by_flag, key)}))
        assert repr(cli._merged(parsed(command, config), command)) == repr(merged)
        if invalid is None:
            return
        config.write_text(json.dumps({key: invalid}))
        messages = []
        for args, place in ((parsed(command, config), f"{config}: {key}: "),
                            (parsed(command, empty, flag, invalid), f"{flag}: ")):
            with pytest.raises(ValueError) as exc:
                cli._merged(args, command)
            assert str(exc.value).startswith(place)
            messages.append(str(exc.value)[len(place):])
        assert messages[0] == messages[1]

    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys):
        readings, subjects = default_toy(tmp_path)
        out = tmp_path / "out"
        rc = main(["build-dist", "--input", str(readings), "--subjects", str(subjects),
                   "--out", str(out), "--m", "2.5"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: --m: invalid literal for int() with base 10: '2.5'\n"
        assert not out.exists()

    # 10**11 and 2**63 are values that failed with a traceback (a 745 GiB
    # rank array; an int64 overflow) before m had an upper bound
    @pytest.mark.parametrize("m", [MAX_GRID_SIZE + 1, 10**11, 2**63])
    def test_grid_size_above_the_bound_exits_2(self, tmp_path, capsys, m):
        readings, subjects = default_toy(tmp_path)
        out = tmp_path / "out"
        rc = main(["build-dist", "--input", str(readings), "--subjects", str(subjects),
                   "--out", str(out), "--m", str(m)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: grid size m must be at least 2 and at most {MAX_GRID_SIZE}, got {m}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("build-dist", "m", 2.9, "expected an integer, got 2.9"),
        ("regress", "save_models", "no", 'expected true or false, got "no"'),
        ("classify", "stratify_age", "false", 'expected true or false, got "false"'),
        ("regress", "lambda_grid", [[0.1, 1.0]], "expected a number, got [0.1, 1.0]"),
        ("regress", "lambda_grid", [True, 1], "expected a number, got true"),
        ("regress", "responses", [["a"]], 'expected a string, got ["a"]'),
        ("classify", "response", ["a"], 'expected a string, got ["a"]'),
        ("build-dist", "censor_lower", 10 ** 400, "int too large to convert to float"),
    ], ids=["m_float", "save_models_string", "stratify_age_string", "lambda_grid_nested",
            "lambda_grid_bool", "responses_nested", "response_array", "float_beyond_range"])
    def test_wrong_type_names_key_and_file(self, request, tmp_path, capsys,
                                           command, key, value, message):
        if command == "build-dist":
            inputs = default_toy(tmp_path)
        else:
            _, *inputs = request.getfixturevalue(f"{command}_cohort")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        rc = main([command, "--input", str(inputs[0]), "--subjects", str(inputs[1]),
                   "--out", str(out), "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {config}: {key}: {message}\n"
        assert not out.exists()

    def test_whole_float_is_an_integer(self, tmp_path):
        readings, subjects = default_toy(tmp_path)
        config = tmp_path / "cfg.json"
        for m, name in ((500.0, "float"), (500, "int")):
            config.write_text(json.dumps({"m": m}))
            assert main(["build-dist", "--input", str(readings), "--subjects", str(subjects),
                         "--out", str(tmp_path / name), "--config", str(config)]) == 0
        for name in ("quantiles.csv", "summary.csv"):
            assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


# actidist.__all__ as it was when the package imported every module eagerly,
# less the removed NwConfig; censor_series, empirical_quantiles,
# gaussian_kernel and wasserstein2, which live in tests/oracles.py; and
# kde_active, silverman_bandwidth and DensityCurve, whose result demo 01 now
# computes itself
EXPORTED = [
    "ActivitySeries", "CensorSpec", "ClassificationOutcome",
    "FrechetSummary", "IntensityLaw", "KrrModel", "MixedDistribution", "NO_CENSOR",
    "PoissonDesign", "PopulationSpec", "QuantileGrid", "R2Comparison",
    "RISK_GROUP_A", "RISK_GROUP_B", "ResponseModel", "StratifiedDesign", "StratumSpec",
    "SurveySample", "UNASSIGNED", "assign_risk_groups", "build_mixed",
    "classify_mortality", "compare_r2", "datagen", "distance_quantile_grid",
    "distribution", "draw_sample", "evaluation", "frechet_mean",
    "frechet_variance", "geometry", "group_profiles", "ht_mean",
    "inactive_proportion", "inclusion_probabilities", "krr_fit", "krr_loo",
    "krr_predict", "krr_predict_batch", "krr_select_lambda", "laplacian_kernel",
    "load_model", "median_heuristic_sigma_from_matrix", "nw_loo", "nw_predict",
    "nw_select_bandwidth", "pairwise_wasserstein", "pointwise_sd_curve",
    "quantiles_from_values", "regression", "save_model",
    "simulate_population", "stratify_age", "summarize", "survey",
    "survey_sample_from_subjects", "tac_per_day", "weighted_auc",
    "weighted_median", "weighted_r2",
]
