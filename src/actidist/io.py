"""CSV input and output for the batch pipeline.

All files are comma-separated UTF-8 with a mandatory header row and '.' as
the decimal separator. Floats are written with repr-style shortest
round-trip formatting so reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import itertools
import json
import warnings
from io import StringIO

import numpy as np

from .distribution import ActivitySeries, _cohort_matrix, _real, _whole, check_quantile_rows


class InputValidationError(ValueError):
    """Malformed input rows; the message carries the offending line numbers."""


def _json_value(types: tuple, expected: str, convert=lambda v: v):
    """A converter that passes a JSON value of one of the Python `types` to
    `convert` and raises TypeError naming what it `expected` for any other;
    a boolean is not an int unless bool is listed, though int() reads it."""
    def from_json(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise TypeError(f"expected {expected}, got {json.dumps(value)}")
        try:
            return convert(value)
        except OverflowError as exc:  # float() of an int beyond a float's range
            raise ValueError(exc) from None
    return from_json


def _integer(value):
    """int(value), but a float only when it is whole: 500.0 is 500, 2.9 fails."""
    if isinstance(value, float) and not _whole(value):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


_number = _json_value((int, float, str), "a number", float)
_name = _json_value((str,), "a string")

# the converter that makes a JSON config value one of each kind: a datagen
# spec field by its annotation, or a CLI option. int() or float() still reads
# a numeric string, but a fractional float is no int, a boolean no number, a
# string no array, and an array of numbers or names holds no other value.
FROM_JSON = {
    "int": _json_value((int, float, str), "an integer", _integer),
    "float": _number,
    "bool": _json_value((bool,), "true or false"),
    "tuple": _json_value((list,), "an array", tuple),
    "dict": _json_value((dict,), "an object"),
    "floats": _json_value((list,), "an array", lambda v: np.array([_number(x) for x in v])),
    "name": _name,
    "names": _json_value((list, str), "an array or a comma-separated string", lambda v: (
        [name.strip() for name in v.split(",") if name.strip()] if isinstance(v, str)
        else [_name(name) for name in v])),
}


def _subject_id(field) -> str:
    """Every reader's subject id: the field stripped, not empty, and within
    csv.field_size_limit(), which numpy's parser does not enforce."""
    field, limit = field or "", csv.field_size_limit()
    if len(field) > limit:
        raise ValueError(f"field larger than field limit ({limit})")
    sid = field.strip()
    if not sid:
        raise ValueError("empty subject_id")
    return sid


def _read_rows(path, header_ok, header_error: str, parse_row, unique=True) -> dict:
    """The csv row loop of every reader: {id: value} from parse_row(header,
    row) -> (id, value) on each non-blank row after a header that passes
    header_ok, or with unique=False {id: [the items of each row's value, in
    file order]}.

    parse_row raises ValueError(message) on a bad row; with unique, an id
    seen before is bad too. Each problem is recorded with the file line the
    row ends on, a csv.Error (say, a field over csv.field_size_limit()) after
    them, and all are raised as one InputValidationError that names the file.
    """
    out: dict = {}
    bad: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header_ok(header):
                raise InputValidationError(f"{path}: {header_error}")
            for row in reader:
                if not row:
                    continue
                try:
                    sid, value = parse_row(header, row)
                    if unique and sid in out:
                        raise ValueError(f"duplicate subject_id {sid!r}")
                except ValueError as exc:
                    bad.append(f"line {reader.line_num}: {exc}")
                    continue
                if unique:
                    out[sid] = value
                else:
                    out.setdefault(sid, []).extend(value)
        except csv.Error as exc:
            bad.append(f"line {reader.line_num}: {exc}")
    if bad:
        raise InputValidationError(f"{path}: " + "; ".join(bad))
    return out


def _read_table(path, header_ok, read_bulk, read_rows):
    """A table numpy reads: read_bulk(fh, header) runs numpy's C parser on
    the rows after a header that passes header_ok and returns None where it
    cannot vouch for the result. Then, or after another header, the csv row
    loop read_rows(path) reads the file again: it accepts the same files and
    more, and reports every bad row."""
    with open(path, "r", encoding="utf-8", newline="") as fh, \
            contextlib.suppress(csv.Error):  # the row loop reports it
        header = next(csv.reader(fh), None)
        if header_ok(header):
            table = read_bulk(fh, header)
            if table is not None:
                return table
    return read_rows(path)


def write_rows(path, header, rows) -> None:
    """The one CSV row writer: header and rows, each one fh.write of its cells
    joined by "," and ended by "\\r\\n". A float, numpy's too, is repr(float(v)),
    any other value str(v) quoted as csv.writer quotes it (_csv_field, once per
    text), and a row of one empty field '""', as csv.writer writes it."""
    quote = functools.cache(_csv_field)

    def cell(v) -> str:
        return repr(float(v)) if isinstance(v, (float, np.floating)) else quote(str(v))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in itertools.chain([header], rows):
            # Python floats and text, the common cells, take no call to cell
            cells = [repr(v) if type(v) is float else quote(v) if type(v) is str else cell(v)
                     for v in row]
            fh.write((",".join(cells) or ('""' if cells else "")) + "\r\n")


# readings per np.loadtxt call: bounds the parser's per-row id strings held
# beyond the 16 B a reading takes in the result
_READ_CHUNK_ROWS = 1 << 14
# the id is an object field: a fixed-width string field would truncate it
_READINGS_ROW = np.dtype([("subject_id", object), ("t", "f8"), ("count", "f8")])


def read_readings_csv(path) -> dict:
    """Long-format readings (subject_id, timestamp_min, count) grouped by subject.

    Returns {subject_id: (timestamps, counts)} as float64 arrays in file
    order, subjects in order of first appearance, ids stripped; each array
    owns its data, so no subject keeps a parser chunk alive. numpy's C parser
    reads the rows in chunks; when it refuses a row or a value or id fails its
    check, the csv row loop reads the file again and reports every bad row.
    """
    return _read_table(path, _is_readings_header,
                       lambda fh, header: _read_readings_chunks(fh), _read_readings_rows)


def _is_readings_header(header) -> bool:
    return header is not None and [h.strip() for h in header[:3]] == [
        "subject_id", "timestamp_min", "count"]


def _loadtxt(fh, dtype, max_rows=None):
    """The next max_rows rows left in fh, or all of them, through np.loadtxt as
    a 1-d array of `dtype`; raises ValueError where the parser refuses a row."""
    with warnings.catch_warnings():
        # loadtxt warns on every blank line, and on a read with no rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, max_rows=max_rows, ndmin=1)


def _read_readings_chunks(fh):
    """The rows after the header through np.loadtxt, or None when it refuses
    a row, there is none, a value is non-finite, a count negative or an id
    fails _subject_id. Each subject's rows in a chunk are copied out of it
    as one piece, so the chunk and its id strings go at once and each
    subject's arrays are joined from copies into arrays that own their data."""
    pieces: dict = {}
    try:
        while len(rows := _loadtxt(fh, _READINGS_ROW, _READ_CHUNK_ROWS)):
            ids, t, count = rows["subject_id"], rows["t"], rows["count"]
            if not (np.isfinite(t).all() and np.isfinite(count).all()
                    and (count >= 0).all()):
                return None
            starts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()]
            # the rows grouped by subject id, numbered per run in order of
            # first appearance, by a stable argsort that is near-linear on a
            # sorted, file-order chunk: one piece per subject and chunk, also
            # where the id changes every row, as in a time-major file
            codes: dict = {}
            run_codes = [codes.setdefault(_subject_id(sid), len(codes))
                         for sid in ids[starts].tolist()]
            subject = np.repeat(run_codes, np.diff([*starts, len(ids)]))
            order = np.argsort(subject, kind="stable")
            ends = np.cumsum(np.bincount(subject)).tolist()
            for sid, start, end in zip(codes, [0, *ends[:-1]], ends):
                ts, counts = pieces.setdefault(sid, ([], []))
                ts.append(t[order[start:end]])
                counts.append(count[order[start:end]])
            if len(rows) < _READ_CHUNK_ROWS:
                break
    except ValueError:
        return None
    # in file order, each subject's pieces dropped as they are joined, so
    # the pieces and the joined arrays overlap by one subject at most
    return {sid: tuple(map(np.concatenate, pieces.pop(sid))) for sid in list(pieces)} or None


def _read_readings_rows(path) -> dict:
    """read_readings_csv one csv row and two float() calls at a time."""
    per_subject = _read_rows(path, _is_readings_header,
                             "expected header subject_id,timestamp_min,count",
                             _readings_row, unique=False)
    if not per_subject:
        raise InputValidationError(f"{path}: no data rows")
    return {sid: (np.array(values[0::2]), np.array(values[1::2]))
            for sid, values in per_subject.items()}


def _readings_row(header, row):
    if len(row) != 3:
        raise ValueError("expected 3 fields")
    sid, t, count = row
    try:
        t, count = float(t), float(count)
    except ValueError:
        raise ValueError("non-numeric value") from None
    if not (_real(t) and _real(count)):
        raise ValueError("non-finite value")
    if count < 0:
        raise ValueError("negative count")
    return _subject_id(sid), (t, count)


def _parse_covariate(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    if not _real(value):
        return text
    return int(value) if _whole(value) and "." not in text else value


def check_unique(names, what: str) -> None:
    """Raise InputValidationError "<what> 'name', ..." naming each repeated
    name; empty names, such as a spreadsheet's trailing columns, name nothing."""
    repeated = sorted(n for n, count in collections.Counter(names).items() if n and count > 1)
    if repeated:
        raise InputValidationError(f"{what} {', '.join(map(repr, repeated))}")


def _read_named_columns(path, needed: tuple, parse_row) -> dict:
    """_read_rows of a table whose fields parse_row looks up by column name:
    the header names each of `needed`, and none twice, as the last would win."""
    def header_ok(header) -> bool:
        check_unique(header or [], f"{path}: repeated column")
        return header is not None and set(needed) <= set(header)
    return _read_rows(path, header_ok, f"expected columns {', '.join(needed)}", parse_row)


# the subjects table's fixed columns; every other column is a covariate
_SUBJECT_COLUMNS = ("subject_id", "survey_weight")


def read_subjects_csv(path) -> dict:
    """Subject metadata keyed by id: (survey_weight, covariates)."""
    return _read_named_columns(path, _SUBJECT_COLUMNS, _subject_row)


def _subject_row(header, row):
    if len(row) > len(header):
        raise ValueError("more fields than the header")
    fields = dict(itertools.zip_longest(header, row))
    sid = _subject_id(fields["subject_id"])
    try:
        weight = float(fields["survey_weight"])
    except (TypeError, ValueError):
        raise ValueError("bad survey_weight") from None
    if not (_real(weight) and weight > 0):
        raise ValueError("survey_weight must be positive and finite")
    covariates = {
        key: _parse_covariate(val)
        for key, val in fields.items()
        if key not in _SUBJECT_COLUMNS and val not in (None, "")
    }
    return sid, (weight, covariates)


def check_entries(ids, table: dict, what: str) -> None:
    """Raise InputValidationError naming the ids with no entry in `table`."""
    missing = sorted(set(ids) - set(table))
    if missing:
        raise InputValidationError(
            f"{what} file lacks entries for: {', '.join(missing)}")


def load_series(readings_path, subjects_path) -> list:
    """Join readings and subject metadata into ActivitySeries; a bad series names its file."""
    readings = read_readings_csv(readings_path)
    subjects = read_subjects_csv(subjects_path)
    check_entries(readings, subjects, "subjects")
    series = []
    for sid in sorted(readings):
        t, counts = readings[sid]
        # the reader's arrays as they are, unless the file is out of time order
        if np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            t, counts = t[order], counts[order]
        weight, covariates = subjects[sid]
        try:
            series.append(ActivitySeries(sid, t, counts, weight, covariates))
        except ValueError as exc:
            raise InputValidationError(f"{readings_path}: subject {sid!r}: {exc}") from None
    return series


def read_summary_csv(path) -> dict:
    """Read a distribution summary back as {subject_id: (p_inactive, tac)}."""
    return _read_named_columns(path, ("subject_id", "p_inactive", "tac_per_day"), _summary_row)


def _summary_row(header, row):
    fields = dict(itertools.zip_longest(header, row))
    try:
        p_inactive, tac = float(fields["p_inactive"]), float(fields["tac_per_day"])
    except (TypeError, ValueError):
        raise ValueError("missing or non-numeric value") from None
    if not (_real(p_inactive) and _real(tac)):
        raise ValueError("non-finite value")
    return _subject_id(fields["subject_id"]), (p_inactive, tac)


def _checked_ids(subject_ids, columns: dict) -> list:
    """`subject_ids` (ids or subjects) as a list; ValueError names the lengths
    if a {what: column} differs."""
    ids = list(subject_ids)
    if any(len(values) != len(ids) for values in columns.values()):
        counts = " and ".join(f"{len(values)} {what}" for what, values in columns.items())
        raise ValueError(f"{len(ids)} subject ids but {counts}")
    return ids


def write_quantile_csv(path, subject_ids, quantiles) -> None:
    """Quantile-grid table: one row per subject, columns t_1..t_m, from a
    cohort that _cohort_matrix accepts: an (n, m) matrix or QuantileGrid
    list. Each row becomes Python floats only as it is written: the whole
    table as Python floats would take 4x the matrix."""
    matrix = _cohort_matrix(quantiles, scalars=False)
    ids = _checked_ids(subject_ids, {"quantile rows": matrix})
    header = ["subject_id"] + [f"t_{k}" for k in range(1, matrix.shape[1] + 1)]
    write_rows(path, header, ([sid, *row.tolist()] for sid, row in zip(ids, matrix)))


def read_quantile_csv(path):
    """Read back a quantile table as (subject_ids, read-only float64 (n, m)
    matrix); each row is checked as a QuantileGrid is, ids are stripped,
    non-empty and unique, and a table with no rows is rejected.

    One np.loadtxt call parses the whole table, and the matrix is a view of
    its float field, which holds no copy but is not C-contiguous: each row
    sits beside its id. When the parser refuses a row, a row or id fails its
    check or an id repeats, the csv row loop reads the file again and
    reports every bad row with its line.
    """
    return _read_table(path, _is_quantile_header, _read_quantile_bulk, _read_quantile_rows)


def _is_quantile_header(header) -> bool:
    return bool(header) and header[0] == "subject_id" and len(header) >= 3


def _read_quantile_bulk(fh, header):
    """The rows after the header through np.loadtxt as read_quantile_csv
    returns them, or None when the row loop must read the file."""
    dtype = np.dtype([("subject_id", object), ("q", "f8", (len(header) - 1,))])
    try:
        rows = _loadtxt(fh, dtype)
        matrix = rows["q"]
        check_quantile_rows(matrix)
        ids = list(map(_subject_id, rows["subject_id"].tolist()))
    except ValueError:
        return None
    if not ids or len(set(ids)) < len(ids):
        return None
    matrix.setflags(write=False)
    return ids, matrix


def _read_quantile_rows(path):
    """read_quantile_csv one csv row at a time."""
    table = _read_rows(path, _is_quantile_header, "not a quantile table", _quantile_row)
    if not table:
        raise InputValidationError(f"{path}: no data rows")
    matrix = np.array(list(table.values()))
    matrix.setflags(write=False)
    return list(table), matrix


def _quantile_row(header, row):
    if len(row) != len(header):
        raise ValueError("wrong field count")
    sid = _subject_id(row[0])
    values = np.asarray(row[1:], dtype=float)
    check_quantile_rows(values)
    return sid, values


def write_summary_csv(path, subject_ids, mixed: list, tacs) -> None:
    """Per-subject distribution summary (p_inactive, tac_per_day)."""
    ids = _checked_ids(subject_ids, {"distributions": mixed, "tac values": tacs})
    rows = ([sid, mix.p_inactive, tac] for sid, mix, tac in zip(ids, mixed, tacs))
    write_rows(path, ["subject_id", "p_inactive", "tac_per_day"], rows)


def write_frechet_summary_csv(path, summaries: dict) -> None:
    """Per-group Frechet curves: (group, t, mean, sd) rows."""
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(group), s.mean.levels.tolist(), s.mean.values.tolist(),
            s.pointwise_sd.tolist())
        for group, s in summaries.items())
    write_rows(path, ["group", "t", "mean", "sd"], rows)


def write_subjects_csv(path, subjects) -> None:
    """Subject metadata table; covariate columns follow the common schema.
    Refuses, before it opens the file, a covariate named as a fixed column."""
    names: list = []
    for s in subjects:
        for key in s.covariates:
            if key not in names:
                if key in _SUBJECT_COLUMNS:
                    raise ValueError(f"covariate {key!r} would repeat a subjects table column")
                names.append(key)
    header = [*_SUBJECT_COLUMNS, *names]
    rows = (
        [s.subject_id, s.survey_weight] + [s.covariates.get(k, "") for k in names]
        for s in subjects
    )
    write_rows(path, header, rows)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row, quoted if it needs it."""
    buf = StringIO()
    # two fields, because csv.writer quotes a row that is one empty field
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


# rows per text slice of a subject in write_readings_csv: bounds the row
# strings held at once
_WRITE_CHUNK_ROWS = 1 << 12


def write_readings_csv(path, subjects) -> None:
    """Long-format readings for a list of ActivitySeries.

    The one table that write_rows does not write, though it has its bytes:
    _WRITE_CHUNK_ROWS rows of a subject at a time, with no Python step per
    row: the "t," strings of a timestamp grid are formatted once and kept
    while consecutive subjects share the grid, and only the readings that
    are not +0.0 go through repr (see _row_slices).
    """
    grid, times = None, None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject_id,timestamp_min,count\r\n")
        for s in subjects:
            # bytes, not values: 0.0 == -0.0, but they print differently
            if s.timestamps.tobytes() != grid:
                grid = s.timestamps.tobytes()
                times = np.array(list(map(repr, s.timestamps.tolist())), dtype=object) + ","
            fh.writelines(_row_slices(s, times))


def _row_slices(s, times: np.ndarray):
    """The text of s's rows, _WRITE_CHUNK_ROWS rows a slice, given the
    object array of its "t," strings.

    Only the readings whose bits are not those of +0.0 go through repr; they
    are placed over a "0.0" fill by object-array indexing, added to the time
    strings as object arrays, and the rows joined with the quoted id. So
    -0.0, whose sign bit is set, still prints as "-0.0".
    """
    head = _csv_field(s.subject_id) + ","
    sep = "\r\n" + head
    for start in range(0, len(s.readings), _WRITE_CHUNK_ROWS):
        values = s.readings[start:start + _WRITE_CHUNK_ROWS]
        nonzero = values.view(np.uint64) != 0
        cells = np.empty(len(values), dtype=object)
        cells[:] = "0.0"  # np.full fills an object array 10x slower
        cells[nonzero] = list(map(repr, values[nonzero].tolist()))
        rows = times[start:start + len(values)] + cells
        yield head + sep.join(rows.tolist()) + "\r\n"


def write_ground_truth_csv(path, true_means: dict, subjects, pi: np.ndarray) -> None:
    """Long-format ground truth: population means plus per-subject stratum and pi."""
    subjects = _checked_ids(subjects, {"pi values": pi})

    def rows():
        for name in sorted(true_means):
            yield ["population_mean", name, true_means[name]]
        for s in subjects:
            yield ["stratum", s.subject_id, s.covariates.get("stratum", "all")]
        for s, p in zip(subjects, pi):
            yield ["pi", s.subject_id, p]
    write_rows(path, ["record", "name", "value"], rows())
