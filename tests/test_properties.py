"""Randomized invariance checks across the estimator stack, and fuzzing of
the CSV readers."""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from actidist import io
from actidist.distribution import (
    ActivitySeries,
    CensorSpec,
    build_mixed,
    censor_series,
    inactive_proportion,
    quantiles_from_values,
)
from actidist.geometry import (
    frechet_mean,
    frechet_variance,
    pointwise_sd_curve,
    wasserstein2,
)
from actidist.regression import (
    SurveySample,
    krr_fit,
    krr_predict_batch,
    nw_loo,
    nw_predict,
)
from actidist.survey import ht_mean, weighted_r2
from oracles import median_heuristic_sigma, write_quantile_rows, write_readings_rows

finite = st.floats(-50.0, 50.0, allow_nan=False)
positive = st.floats(0.1, 20.0, allow_nan=False)
scale_factor = st.floats(0.01, 1000.0, allow_nan=False)


def arrays(elements, n):
    return hnp.arrays(np.float64, n, elements=elements)


@st.composite
def weighted_sample(draw, min_size=2, max_size=10, elements=finite):
    n = draw(st.integers(min_size, max_size))
    values = draw(arrays(elements, n))
    weights = draw(arrays(positive, n))
    return values, weights


@st.composite
def regression_instance(draw, min_size=2, max_size=10):
    n = draw(st.integers(min_size, max_size))
    x = draw(arrays(finite, n))
    y = draw(arrays(finite, n))
    w = draw(arrays(positive, n))
    return x, y, w


@st.composite
def grid_cohort(draw, min_n=2, max_n=6, m=8):
    n = draw(st.integers(min_n, max_n))
    raw = draw(arrays(st.floats(0.0, 100.0), (n, m)))
    return [quantiles_from_values(row, m) for row in raw]


common = settings(max_examples=150, deadline=None, derandomize=True)


class TestNwProperties:
    @common
    @given(regression_instance(), finite, positive)
    def test_convexity_bounds(self, instance, query, bandwidth):
        x, y, w = instance
        sample = SurveySample(x, y, w)
        try:
            pred = nw_predict(sample, bandwidth, query)
        except ValueError:
            return  # numerically empty neighborhood
        assert y.min() <= pred <= y.max()

    @common
    @given(regression_instance(), finite, scale_factor)
    def test_weight_rescaling(self, instance, query, c):
        x, y, w = instance
        bandwidth = 1.0
        try:
            base = nw_predict(SurveySample(x, y, w), bandwidth, query)
        except ValueError:
            return
        scaled = nw_predict(SurveySample(x, y, c * w), bandwidth, query)
        assert scaled == pytest.approx(base, abs=1e-12)

    @common
    @given(regression_instance(min_size=3), st.integers(0, 2))
    def test_duplicate_split(self, instance, idx):
        x, y, w = instance
        bandwidth = 1.0
        base = nw_loo(SurveySample(x, y, w), bandwidth)
        x2 = np.concatenate([x, [x[idx]]])
        y2 = np.concatenate([y, [y[idx]]])
        w2 = np.concatenate([w, [w[idx] / 2]])
        w2[idx] = w[idx] / 2
        split = nw_loo(SurveySample(x2, y2, w2), bandwidth)
        others = np.delete(np.arange(x.size), idx)
        finite_mask = np.isfinite(base[others])
        np.testing.assert_allclose(split[others][finite_mask],
                                   base[others][finite_mask], atol=1e-12)


class TestSurveyProperties:
    @common
    @given(weighted_sample(), scale_factor)
    def test_ht_mean_rescaling(self, sample, c):
        values, weights = sample
        assert ht_mean(values, c * weights) == pytest.approx(
            ht_mean(values, weights), abs=1e-12)

    @common
    @given(weighted_sample(min_size=3), scale_factor)
    def test_r2_rescaling(self, sample, c):
        y, weights = sample
        rng = np.random.default_rng(0)
        yhat = y + rng.normal(size=y.size)
        try:
            base = weighted_r2(y, yhat, weights)
            scaled = weighted_r2(y, yhat, c * weights)
        except ValueError as exc:
            # constant responses, or a weighted variance that underflows to 0
            assert str(exc) == "zero variance response"
            return
        # near-constant responses give a large |R^2|, which rounding moves
        # by up to about 1e-15 * |R^2|: past an absolute 1e-12 bound
        bound = {"rel": 1e-12} if abs(base) > 1e3 else {"abs": 1e-12}
        assert scaled == pytest.approx(base, **bound)

    @common
    @given(weighted_sample(min_size=2, max_size=8), scale_factor)
    def test_sigma_rescaling(self, sample, c):
        x, weights = sample
        try:
            base = median_heuristic_sigma(x, weights)
        except ValueError:
            return  # all predictors identical
        assert median_heuristic_sigma(x, c * weights) == pytest.approx(
            base, rel=1e-12)


class TestGeometryProperties:
    @common
    @given(grid_cohort(), arrays(positive, 6), scale_factor)
    def test_frechet_rescaling(self, grids, raw_w, c):
        w = raw_w[: len(grids)]
        mean_a = frechet_mean(grids, w)
        mean_b = frechet_mean(grids, c * w)
        np.testing.assert_allclose(mean_a.values, mean_b.values, atol=1e-12)
        var_a = frechet_variance(grids, mean_a, w)
        var_b = frechet_variance(grids, mean_b, c * w)
        assert var_b == pytest.approx(var_a, abs=1e-12, rel=1e-9)
        np.testing.assert_allclose(pointwise_sd_curve(grids, mean_a, w),
                                   pointwise_sd_curve(grids, mean_b, c * w),
                                   atol=1e-12)

    @common
    @given(grid_cohort(min_n=3, max_n=3))
    def test_metric_axioms(self, grids):
        a, b, c = grids
        assert wasserstein2(a, a) == 0.0
        assert wasserstein2(a, b) == wasserstein2(b, a)
        assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-12


class TestKrrProperties:
    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(regression_instance(min_size=3, max_size=8), scale_factor,
           st.floats(0.1, 5.0))
    def test_scaled_weights_and_penalty(self, instance, c, lam):
        x, y, w = instance
        queries = np.linspace(-5, 5, 4)
        base = krr_fit(SurveySample(x, y, w), lam=lam, sigma=1.0)
        scaled = krr_fit(SurveySample(x, y, c * w), lam=c * lam, sigma=1.0)
        np.testing.assert_allclose(krr_predict_batch(base, queries),
                                   krr_predict_batch(scaled, queries), atol=1e-8)

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(regression_instance(min_size=3, max_size=7), st.floats(0.1, 5.0))
    def test_duplicate_split(self, instance, lam):
        x, y, w = instance
        queries = np.linspace(-5, 5, 4)
        base = krr_fit(SurveySample(x, y, w), lam=lam, sigma=1.0)
        x2 = np.concatenate([x, [x[0]]])
        y2 = np.concatenate([y, [y[0]]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] = w[0] / 2
        split = krr_fit(SurveySample(x2, y2, w2), lam=lam, sigma=1.0)
        np.testing.assert_allclose(krr_predict_batch(base, queries),
                                   krr_predict_batch(split, queries), atol=1e-8)


class TestDistributionProperties:
    @common
    @given(arrays(st.floats(0.0, 4000.0), 12),
           st.floats(0.0, 150.0), st.floats(500.0, 4000.0))
    def test_censoring_idempotent_and_monotone(self, readings, lower, upper):
        series = ActivitySeries("s", np.arange(12.0), readings)
        censor = CensorSpec(lower=lower, upper=upper)
        once = censor_series(series, censor)
        twice = censor_series(once, censor)
        np.testing.assert_array_equal(once.readings, twice.readings)
        mixed = build_mixed(once, censor=censor, m=9)
        assert np.all(np.diff(mixed.quantiles.values) >= 0)

    @common
    @given(arrays(st.floats(0.0, 100.0), 10), st.permutations(list(range(10))))
    def test_permutation_invariance(self, readings, perm):
        base = ActivitySeries("s", np.arange(10.0), readings)
        shuffled = ActivitySeries("s", np.arange(10.0), readings[np.array(perm)])
        assert inactive_proportion(base) == inactive_proportion(shuffled)
        np.testing.assert_array_equal(
            build_mixed(base, m=7).quantiles.values,
            build_mixed(shuffled, m=7).quantiles.values)


# CSV fields: numbers in every spelling float() takes, including nan and inf,
# mixed with arbitrary text that may hold commas, quotes and line breaks
csv_field = st.one_of(
    st.sampled_from(["0", "1", "2.5", "-3", "", " 1 ", "nan", "inf", "-inf",
                     "1e400", "1_0", "a"]),
    st.floats().map(repr),
    st.text(max_size=6),
)
csv_row = st.lists(csv_field, min_size=1, max_size=4).map(",".join)


@st.composite
def csv_text(draw, header):
    """A header line, either the reader's own or arbitrary, and data lines,
    most with as many fields as the header."""
    first = draw(st.one_of(st.just(header), csv_row))
    width = header.count(",") + 1
    row = st.one_of(st.lists(csv_field, min_size=width, max_size=width).map(",".join),
                    csv_row)
    return "\n".join([first, *draw(st.lists(row, max_size=4))]) + "\n"


fuzz = settings(max_examples=100, deadline=None, derandomize=True)


def read_fuzzed(reader, directory, text):
    """Run a reader on the text; None when it rejects the input as invalid,
    which is the only failure allowed."""
    path = directory / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    try:
        return reader(path)
    except io.InputValidationError:
        return None


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestCsvReaderFuzz:
    @fuzz
    @given(csv_text("subject_id,timestamp_min,count"))
    def test_readings(self, fuzz_dir, text):
        out = read_fuzzed(io.read_readings_csv, fuzz_dir, text)
        for times, counts in (out or {}).values():
            assert all_finite(times) and all_finite(counts)
            assert min(counts) >= 0

    @fuzz
    @given(csv_text("subject_id,survey_weight,age"))
    def test_subjects(self, fuzz_dir, text):
        out = read_fuzzed(io.read_subjects_csv, fuzz_dir, text)
        for weight, covariates in (out or {}).values():
            assert math.isfinite(weight) and weight > 0
            numbers = [v for v in covariates.values() if not isinstance(v, str)]
            assert all_finite(numbers)

    @fuzz
    @given(csv_text("subject_id,p_inactive,tac_per_day"))
    def test_summary(self, fuzz_dir, text):
        out = read_fuzzed(io.read_summary_csv, fuzz_dir, text)
        for values in (out or {}).values():
            assert all_finite(values)

    @fuzz
    @given(csv_text("subject_id,t_1,t_2"))
    def test_quantiles(self, fuzz_dir, text):
        out = read_fuzzed(io.read_quantile_csv, fuzz_dir, text)
        if out is not None:
            ids, grids = out
            assert len(ids) == len(grids) == len(set(ids))
            assert np.all(np.isfinite(grids))


def readings_by_both_paths(directory, text, chunks):
    """(bulk, rows, public): the chunked parser's result at several chunk
    sizes, the row loop's, and read_readings_csv's. bulk holds one entry per
    size in chunks, None where the parser refused the file; it is None itself
    when the header is not the readings header. rows and public are dicts or
    the error message."""
    path = directory / "readings.csv"
    path.write_text(text, encoding="utf-8", newline="")
    bulk = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_ok = io._is_readings_header(next(csv.reader(fh), None))
    if header_ok:
        bulk = []
        for chunk in chunks:
            with mock.patch.object(io, "_READ_CHUNK_ROWS", chunk), \
                    open(path, "r", encoding="utf-8", newline="") as fh:
                next(csv.reader(fh))
                bulk.append(io._read_readings_chunks(fh))
    results = []
    for reader in (io._read_readings_rows, io.read_readings_csv):
        try:
            results.append(reader(path))
        except io.InputValidationError as exc:
            results.append(str(exc))
    return bulk, *results


def assert_same_readings(a, b):
    """Equal keys in equal order and byte-equal float64 arrays, or the same
    error message."""
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert list(a) == list(b)
    for sid in a:
        for x, y in zip(a[sid], b[sid]):
            assert x.dtype == y.dtype == np.float64
            assert x.tobytes() == y.tobytes()


def assert_paths_agree(directory, text, chunks=(io._READ_CHUNK_ROWS, 1, 2, 3)):
    """The bulk path, where it accepts the file, returns what the row loop
    returns, and read_readings_csv matches the row loop either way. Returns
    whether the bulk path accepted the file at every chunk size."""
    bulk, rows, public = readings_by_both_paths(directory, text, chunks)
    assert_same_readings(public, rows)
    for result in bulk or ():
        if result:
            assert_same_readings(result, rows)
    return bulk is not None and all(bulk)


line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# subject b starts in the first chunk and ends in the second
LONG_FILE = "subject_id,timestamp_min,count\r\n" + "".join(
    f"{'a' if i < 100 else 'b' if i < io._READ_CHUNK_ROWS + 10 else 'c'},{i},{i % 7}\r\n"
    for i in range(io._READ_CHUNK_ROWS + 50))
HEADER = "subject_id,timestamp_min,count\n"


class TestReadingsReaderPaths:
    """numpy's chunked parser against the csv row loop, called directly."""

    @fuzz
    @given(csv_text("subject_id,timestamp_min,count"), line_ends)
    def test_fuzzed_files_agree(self, fuzz_dir, text, end):
        assert_paths_agree(fuzz_dir, text.replace("\n", end))

    @pytest.mark.parametrize("text, bulk", [
        ('"a,b",1,2\n"say ""hi""",1,2\n"two\nlines",1,2\n', True),
        (" a ,1,2\na,2,3\n a,3,4\n", True),
        ("a,1,2\rb,1,2\ra,2,3\r", True),
        ("a,1,2\r\n\r\n\nb,1,2\n\n", True),
        ("a,1,2\n  \nb,1,2\n", False),
        ("a,1,2\n\t\n", False),
        ("a,1_0,2\n", False),
        ("a,\u0661,2\n", False),
        ("a, 1 , 2 \n", True),
        ("a,1,-0.0\nb,-0.0,0.0\n", True),
        ("a,0,1\nb,0,1\na,1,2\nb,1,3\n", True),
        ("a,0,nan\nb,inf,1\nc,0,-1\nd,x,1\ne,0\n", False),
        ("", False),
    ], ids=["quoted_ids", "strip_merges", "lone_cr", "blank_lines", "space_line",
            "tab_line", "underscore", "arabic_digit", "padded", "negative_zero",
            "interleaved", "bad_rows", "no_rows"])
    def test_explicit_files_agree(self, tmp_path, text, bulk):
        assert assert_paths_agree(tmp_path, HEADER + text) is bulk

    def test_subject_spanning_chunks(self, tmp_path):
        assert assert_paths_agree(tmp_path, LONG_FILE, chunks=(io._READ_CHUNK_ROWS,))
        t, count = io.read_readings_csv(tmp_path / "readings.csv")["b"]
        assert t.tolist() == list(range(100, io._READ_CHUNK_ROWS + 10))
        assert count.tolist() == [i % 7 for i in range(100, io._READ_CHUNK_ROWS + 10)]


special_ids = st.sampled_from(
    ["a,b", 'say "hi"', "a{0}", "{}", "50%", "%s%%", "two\nlines", "cr\rlf",
     "naïve", "日本", "", " pad "])
subject_ids = st.one_of(special_ids, st.text(st.characters(blacklist_categories=("Cs",)),
                                             max_size=6))
special_values = [0.0, -0.0, 5e-324, 1e-5, 1.0, 7.0, 1e16, 1.5e300,
                  1.7976931348623157e308]
counts = st.one_of(st.sampled_from(special_values),
                   st.floats(0.0, allow_nan=False, allow_infinity=False))
times = st.one_of(st.sampled_from(special_values + [-1e16, -2.5]),
                  st.floats(allow_nan=False, allow_infinity=False))
# unique=True never puts both 0.0 and -0.0 in a grid, so every grid strictly increases
time_grids = st.lists(times, min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def readings_subjects(draw, ids=subject_ids):
    """Subjects on a few shared grids, so consecutive subjects both share a
    grid and switch to another one."""
    grids = draw(st.lists(time_grids, min_size=1, max_size=3))
    subjects = []
    for sid in draw(st.lists(ids, min_size=1, max_size=6)):
        grid = draw(st.sampled_from(grids))
        values = draw(st.lists(counts, min_size=len(grid), max_size=len(grid)))
        subjects.append(ActivitySeries(sid, grid, values))
    return subjects


def equal_grid_subjects():
    """Equal timestamp values in different bytes: 0.0 == -0.0."""
    return [ActivitySeries("a", [0.0, 1.0], [1.0, -0.0]),
            ActivitySeries("b", [-0.0, 1.0], [0.0, 2.0]),
            ActivitySeries("c", [0.0, 1.0], [3.0, 4.0])]


def population_and_picks():
    """Subjects, and for each whether the sample draws its id."""
    return readings_subjects().flatmap(lambda population: st.tuples(
        st.just(population),
        st.lists(st.booleans(), min_size=len(population), max_size=len(population))))


class TestReadingsWriter:
    @fuzz
    @given(readings_subjects())
    @example(equal_grid_subjects())
    def test_matches_row_at_a_time_writer(self, fuzz_dir, subjects):
        io.write_readings_csv(fuzz_dir / "block.csv", subjects)
        write_readings_rows(fuzz_dir / "rows.csv", subjects)
        assert (fuzz_dir / "block.csv").read_bytes() == (fuzz_dir / "rows.csv").read_bytes()

    @fuzz
    @given(readings_subjects(st.text(min_size=1, max_size=6).filter(
        lambda sid: sid == sid.strip())))
    @example(equal_grid_subjects())
    def test_round_trip_is_exact(self, fuzz_dir, subjects):
        subjects = list({s.subject_id: s for s in subjects}.values())
        path = fuzz_dir / "readings.csv"
        io.write_readings_csv(path, subjects)
        back = io.read_readings_csv(path)
        assert list(back) == [s.subject_id for s in subjects]
        for s in subjects:
            t, c = back[s.subject_id]
            # bytes, so that -0.0 must come back as -0.0
            assert np.asarray(t).tobytes() == s.timestamps.tobytes()
            assert np.asarray(c).tobytes() == s.readings.tobytes()

    @fuzz
    @given(population_and_picks())
    @example((equal_grid_subjects(), [True, False, True]))
    def test_population_and_sample_in_one_pass(self, fuzz_dir, drawn):
        population, picks = drawn
        ids = {s.subject_id for s, pick in zip(population, picks) if pick}
        io.write_readings_csv(fuzz_dir / "population.csv", population,
                              fuzz_dir / "sample.csv", ids)
        write_readings_rows(fuzz_dir / "population_rows.csv", population)
        # a drawn id stands for every subject with that id
        write_readings_rows(fuzz_dir / "sample_rows.csv",
                            [s for s in population if s.subject_id in ids])
        for name in ("population", "sample"):
            assert ((fuzz_dir / f"{name}.csv").read_bytes()
                    == (fuzz_dir / f"{name}_rows.csv").read_bytes())

    def test_zero_constant_only_for_positive_zero(self, tmp_path):
        subjects = [ActivitySeries("a", [0.0, 1.0, 2.0, 3.0], [0.0, -0.0, 5e-324, 2.0])]
        io.write_readings_csv(tmp_path / "r.csv", subjects)
        assert (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "a,0.0,0.0", "a,1.0,-0.0", "a,2.0,5e-324", "a,3.0,2.0"]

    def test_unknown_sample_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sample subject 'x' is not in the population"):
            io.write_readings_csv(tmp_path / "population.csv", equal_grid_subjects(),
                                  tmp_path / "sample.csv", ["c", "x", "a"])
        assert not (tmp_path / "population.csv").exists()


def quantiles_by_both_paths(directory, text, chunks):
    """As readings_by_both_paths, for the quantile table: (bulk, rows,
    public), where the results are (ids, matrix) pairs or the error message."""
    path = directory / "quantiles.csv"
    path.write_text(text, encoding="utf-8", newline="")
    bulk = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error:
            header = None
    if io._is_quantile_header(header):
        bulk = []
        for chunk in chunks:
            with mock.patch.object(io, "_READ_CHUNK_ROWS", chunk), \
                    open(path, "r", encoding="utf-8", newline="") as fh:
                next(csv.reader(fh))
                bulk.append(io._read_quantile_chunks(fh, len(header) - 1))
    results = []
    for reader in (io._read_quantile_rows, io.read_quantile_csv):
        try:
            results.append(reader(path))
        except io.InputValidationError as exc:
            results.append(str(exc))
    return bulk, *results


def assert_same_table(a, b):
    """Equal ids and byte-equal read-only float64 matrices, or the same
    error message."""
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    (ids_a, x_a), (ids_b, x_b) = a, b
    assert ids_a == ids_b
    for x in (x_a, x_b):
        assert x.dtype == np.float64 and not x.flags.writeable
    assert x_a.shape == x_b.shape and x_a.tobytes() == x_b.tobytes()


def assert_quantile_paths_agree(directory, text, chunks=(io._READ_CHUNK_ROWS, 1, 2, 3)):
    """The bulk path, where it accepts the file, returns what the row loop
    returns, and read_quantile_csv matches the row loop either way. Returns
    whether the bulk path accepted the file at every chunk size."""
    bulk, rows, public = quantiles_by_both_paths(directory, text, chunks)
    assert_same_table(public, rows)
    for result in bulk or ():
        if result is not None:
            assert_same_table(result, rows)
    return bulk is not None and all(r is not None for r in bulk)


# ids that need quoting or keep surrounding whitespace, non-ASCII ids, and a
# few plain ones so that ids repeat
quantile_ids = st.one_of(
    st.sampled_from(["a", "b", "a,b", 'say "hi"', "two\nlines", "cr\rlf", " pad ",
                     "\t", "naïve", "日本", ""]),
    st.text(max_size=6))
quantile_values = st.one_of(
    st.sampled_from(["0", "1", "2.5", "-1", "-0.0", " 3 ", "1_0", "nan", "inf",
                     "1e400", "١", ""]),
    st.floats(0.0, 1e6).map(repr))


@st.composite
def quantile_text(draw):
    """A quantile header and rows whose ids are quoted as the writer quotes
    them or written raw, with sorted, arbitrary (so decreasing, negative or
    non-numeric) or ragged values, blank lines, and one kind of line end."""
    m = draw(st.integers(2, 3))
    lines = [",".join(["subject_id"] + [f"t_{k}" for k in range(1, m + 1)])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["sorted"] * 6 + ["arbitrary", "ragged", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "", " "])))
            continue
        sid = draw(quantile_ids)
        field = io._csv_field(sid) if draw(st.booleans()) else sid
        width = m if kind != "ragged" else draw(st.sampled_from([m - 1, m + 1]))
        if kind == "sorted":
            values = [repr(v) for v in sorted(draw(
                st.lists(st.floats(0.0, 1e6), min_size=width, max_size=width)))]
        else:
            values = draw(st.lists(quantile_values, min_size=width, max_size=width))
        lines.append(",".join([field, *values]))
    end = draw(line_ends)
    return end.join(lines) + end


Q_HEADER = "subject_id,t_1,t_2\n"
# rows 100 .. _READ_CHUNK_ROWS + 50, two values each: longer than one chunk
LONG_QUANTILES = Q_HEADER.replace("\n", "\r\n") + "".join(
    f"s{i},{i},{i + 0.5}\r\n" for i in range(100, io._READ_CHUNK_ROWS + 150))


class TestQuantileReaderPaths:
    """numpy's chunked parser against the csv row loop for the quantile table."""

    @fuzz
    @given(quantile_text())
    def test_fuzzed_files_agree(self, fuzz_dir, text):
        assert_quantile_paths_agree(fuzz_dir, text)

    @pytest.mark.parametrize("text, bulk", [
        ('"a,b",0,1\n"say ""hi""",1,2\n"two\nlines",1,2\n', True),
        (" a ,0,1\na,1,2\n", True),
        ('naïve,0,1\n日本,1,2\n"",2,3\n', True),
        ("a,0,1\rb,1,2\r", True),
        ("a,0,1\r\n\r\n\nb,0,1\n\n", True),
        ("a,0,1\n  \nb,0,1\n", False),
        ("a,1_0,20\n", False),
        ("a,0,١\n", False),
        ("a, 1 , 2 \n", True),
        ("a,-0.0,0.0\n", True),
        ("a,0,nan\n", False),
        ("a,0,inf\n", False),
        ("a,2,1\n", False),
        ("a,-1,0\n", False),
        ("a,0,1,2\n", False),
        ("a,0\n", False),
        ("a,0,1\nb,0,1\na,1,2\n", False),
        ("", True),
        (f"{'x' * 131072},0,1\n", True),
        (f"{'x' * 131073},0,1\n", False),
        (f"a,0,1\n{'x' * 140000},1,2\n", False),
    ], ids=["quoted_ids", "padded_ids", "non_ascii", "lone_cr", "blank_lines",
            "space_line", "underscore", "arabic_digit", "padded_values",
            "negative_zero", "nan", "inf", "decreasing", "negative", "long_row",
            "short_row", "duplicate_id", "no_rows", "id_at_field_limit",
            "id_over_field_limit", "over_long_id"])
    def test_explicit_files_agree(self, tmp_path, text, bulk):
        assert assert_quantile_paths_agree(tmp_path, Q_HEADER + text) is bulk

    def test_table_longer_than_one_chunk(self, tmp_path):
        assert assert_quantile_paths_agree(tmp_path, LONG_QUANTILES,
                                           chunks=(io._READ_CHUNK_ROWS,))
        ids, x = io.read_quantile_csv(tmp_path / "quantiles.csv")
        assert ids[-1] == f"s{io._READ_CHUNK_ROWS + 149}"
        assert x.shape == (io._READ_CHUNK_ROWS + 50, 2)
        np.testing.assert_array_equal(x[:, 1] - x[:, 0], 0.5)


class TestQuantileWriter:
    @fuzz
    @given(st.lists(quantile_ids, min_size=1, max_size=5).flatmap(lambda ids: st.tuples(
        st.just(ids),
        arrays(st.one_of(st.sampled_from(special_values), st.floats(0.0, 1e300)),
               (len(ids), 3)))))
    def test_matches_row_at_a_time_writer(self, fuzz_dir, table):
        ids, x = table
        x = np.sort(x, axis=1)
        io.write_quantile_csv(fuzz_dir / "block.csv", ids, x)
        write_quantile_rows(fuzz_dir / "rows.csv", ids, x)
        assert (fuzz_dir / "block.csv").read_bytes() == (fuzz_dir / "rows.csv").read_bytes()
