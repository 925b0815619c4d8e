import ast
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from actidist import io
from actidist.cli import main
from actidist.datagen import (
    StratifiedDesign,
    draw_sample,
    simulate_population,
    spread_response_spec,
    two_cluster_spec,
)
from actidist.distribution import ActivitySeries, QuantileGrid
from actidist.regression import (
    SurveySample,
    krr_fit,
    krr_predict_batch,
    load_model,
    save_model,
)
from oracles import read_subject_readings_csv, write_frechet_rows, write_readings_rows

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

    @pytest.mark.parametrize("reader, header, rows, first", [
        (io.read_readings_csv, "subject_id,timestamp_min,count",
         ["a,0,-1", "{long},0,1", "a,1,nan"], "line 2: negative count"),
        (io.read_subjects_csv, "subject_id,survey_weight",
         ["a,-1", "{long},1.0", "b,nan"],
         "line 2: survey_weight must be positive and finite"),
        (io.read_summary_csv, "subject_id,p_inactive,tac_per_day",
         ["a,nan,1", "{long},0.5,1", "b,0.5,inf"], "line 2: non-finite value"),
    ])
    def test_csv_error_keeps_earlier_lines(self, tmp_path, reader, header, rows, first):
        path = tmp_path / "t.csv"
        body = "\n".join(rows).replace("{long}", "x" * 140000)
        path.write_text(f"{header}\n{body}\n")
        with pytest.raises(io.InputValidationError) as caught:
            reader(path)
        assert str(caught.value).startswith(
            f"{path}: {first}; line 3: field larger than field limit")

    def test_distance_matrix_emitter(self, tmp_path):
        from actidist.geometry import pairwise_wasserstein

        grids = [QuantileGrid(np.full(4, 0.0)), QuantileGrid(np.full(4, 3.0))]
        path = tmp_path / "dist.csv"
        io.write_distance_matrix_csv(path, ["a", "b"], pairwise_wasserstein(grids))
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,a,b"
        assert lines[1].split(",") == ["a", "0.0", "3.0"]

    def test_frechet_summary_writer_matches_write_rows(self, tmp_path):
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

    def test_frechet_summary_emitter(self, tmp_path):
        from actidist.geometry import summarize

        grids = [QuantileGrid(np.full(3, 0.0)), QuantileGrid(np.full(3, 4.0))]
        path = tmp_path / "frechet.csv"
        io.write_frechet_summary_csv(path, {"g": summarize(grids, [1.0, 1.0])})
        lines = path.read_text().splitlines()
        assert lines[0] == "group,t,mean,sd"
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "2.0"


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
        readings, subjects = write_toy_inputs(
            tmp_path, rows=["a,0,1", f"{long_id},0,2"],
            subjects_rows=["a,1.0,70,0", f"{long_id},1.0,71,1"])
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "subjects.csv: line 3: field larger than field limit" in capsys.readouterr().err

    def test_with_summary_is_an_unknown_config_key(self, tmp_path, capsys):
        readings, subjects = default_toy(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"with_summary": False}))
        rc = main(["build-dist", "--input", str(readings), "--subjects",
                   str(subjects), "--out", str(tmp_path / "out"), "--config", str(config)])
        assert rc == 2
        assert "unknown build-dist config keys: with_summary" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

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


def assert_writes_rows(tmp_path, population, sample_ids=()):
    """write_readings_csv writes population (and the subjects with the
    sample ids) with the bytes of the row-at-a-time oracle."""
    io.write_readings_csv(tmp_path / "population.csv", population,
                          tmp_path / "sample.csv", sample_ids)
    write_readings_rows(tmp_path / "population_rows.csv", population)
    write_readings_rows(tmp_path / "sample_rows.csv",
                        [s for s in population if s.subject_id in sample_ids])
    for name in ("population", "sample"):
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_rows.csv").read_bytes())


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

    def test_simulated_population_and_sample(self, tmp_path):
        population, _ = simulate_population(two_cluster_spec(8, seed=3, minutes=50))
        sample = draw_sample(population, StratifiedDesign({"frail": 0.5, "active": 0.5}),
                             seed=4)
        assert_writes_rows(tmp_path, population, [s.subject_id for s in sample])


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
        lines = (tmp_path / "population.csv").read_text(encoding="utf-8").splitlines()
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
                  (tmp_path / "population.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert counts == ["-0.0", "5e-324", "1e-05", "1e+16", "0.0", "0.1"]

    def test_ids_with_format_and_csv_characters(self, tmp_path):
        ids = ["50%", "a{0}", '"q,x"']
        subjects = [ActivitySeries(sid, np.arange(4.0), mixed_readings(4)) for sid in ids]
        assert_writes_rows(tmp_path, subjects)
        assert io.read_readings_csv(tmp_path / "population.csv").keys() == set(ids)

    @pytest.mark.parametrize("slice_rows", [io._WRITE_CHUNK_ROWS, 2])
    def test_sample_ids_take_the_population_slices(self, tmp_path, monkeypatch,
                                                   slice_rows):
        monkeypatch.setattr(io, "_WRITE_CHUNK_ROWS", slice_rows)
        grid = np.arange(5.0)
        population = [ActivitySeries(sid, grid, mixed_readings(5) + k)
                      for k, sid in enumerate("abcde")]
        # ids in any order and repeated: the sample file follows the population
        assert_writes_rows(tmp_path, population, ["d", "a", "d", "b"])
        text = (tmp_path / "sample.csv").read_text(encoding="utf-8")
        assert [line[0] for line in text.splitlines()[1::5]] == ["a", "b", "d"]


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


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("population_readings.csv", "population_subjects.csv",
                      "sample_readings.csv", "sample_subjects.csv",
                      "ground_truth.csv"):
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


# actidist.__all__ as it was when the package imported every module eagerly,
# less the removed NwConfig
EXPORTED = [
    "ActivitySeries", "CensorSpec", "ClassificationOutcome", "DensityCurve",
    "FrechetSummary", "IntensityLaw", "KrrModel", "MixedDistribution", "NO_CENSOR",
    "PoissonDesign", "PopulationSpec", "QuantileGrid", "R2Comparison",
    "RISK_GROUP_A", "RISK_GROUP_B", "ResponseModel", "StratifiedDesign", "StratumSpec",
    "SurveySample", "UNASSIGNED", "assign_risk_groups", "build_mixed", "censor_series",
    "classify_mortality", "compare_r2", "datagen", "distance_quantile_grid",
    "distribution", "draw_sample", "empirical_quantiles", "evaluation", "frechet_mean",
    "frechet_variance", "gaussian_kernel", "geometry", "group_profiles", "ht_mean",
    "inactive_proportion", "inclusion_probabilities", "kde_active", "krr_fit", "krr_loo",
    "krr_predict", "krr_predict_batch", "krr_select_lambda", "laplacian_kernel",
    "load_model", "median_heuristic_sigma_from_matrix", "nw_loo", "nw_predict",
    "nw_select_bandwidth", "pairwise_wasserstein", "pointwise_sd_curve",
    "quantiles_from_values", "regression", "save_model", "silverman_bandwidth",
    "simulate_population", "stratify_age", "summarize", "survey",
    "survey_sample_from_subjects", "tac_per_day", "wasserstein2", "weighted_auc",
    "weighted_median", "weighted_r2",
]
