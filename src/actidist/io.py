"""CSV input and output for the batch pipeline.

All files are comma-separated UTF-8 with a mandatory header row and '.' as
the decimal separator. Floats are written with repr-style shortest
round-trip formatting so reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from io import StringIO

import numpy as np

from .distribution import ActivitySeries, check_quantile_rows


class InputValidationError(ValueError):
    """Malformed input rows; the message carries the offending line numbers."""


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@contextlib.contextmanager
def _csv_reader(path, reader_type=csv.reader, bad=()):
    """A csv reader on path. When the block ends, the problems the caller
    has collected in `bad` are raised as one InputValidationError that names
    the file; a csv.Error (say, a field over csv.field_size_limit()) is
    reported after them with its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = reader_type(fh)
        try:
            yield reader
        except csv.Error as exc:
            # a DictReader's own line_num moves only after a good row
            line = getattr(reader, "reader", reader).line_num
            problems = [*bad, f"line {line}: {exc}"]
            raise InputValidationError(f"{path}: " + "; ".join(problems)) from exc
    if bad:
        raise InputValidationError(f"{path}: " + "; ".join(bad))


def write_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# readings per np.loadtxt call: bounds the reader's memory beyond the 16 B a
# reading takes in the result; a chunk of quantile rows takes as many bytes
_READ_CHUNK_ROWS = 1 << 14
# the id is an object field: a fixed-width string field would truncate it
_READINGS_ROW = np.dtype([("subject_id", object), ("t", "f8"), ("count", "f8")])


def read_readings_csv(path) -> dict:
    """Long-format readings (subject_id, timestamp_min, count) grouped by subject.

    Returns {subject_id: (timestamps, counts)} as float64 arrays in file
    order, subjects in order of first appearance, ids stripped; each array
    owns its data, so no subject keeps a parser chunk alive. numpy's C
    parser reads the rows in chunks; when it refuses a row or a value fails
    a check, the csv row loop reads the whole file again. That loop accepts
    the same files as the parser and more, and reports every malformed row
    with its line number, so a dirty file surfaces all problems in one pass.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh, \
            contextlib.suppress(csv.Error):  # the row loop reports it
        if _is_readings_header(next(csv.reader(fh), None)):
            per_subject = _read_readings_chunks(fh)
            if per_subject:
                return per_subject
    return _read_readings_rows(path)


def _is_readings_header(header) -> bool:
    return header is not None and [h.strip() for h in header[:3]] == [
        "subject_id", "timestamp_min", "count"]


def _loadtxt_chunks(fh, dtype):
    """The rows left in fh through np.loadtxt, one array of `dtype` per
    chunk of at most as many bytes as _READ_CHUNK_ROWS readings take; raises
    ValueError where the parser refuses a row."""
    max_rows = max(1, _READ_CHUNK_ROWS * _READINGS_ROW.itemsize // dtype.itemsize)
    while True:
        with warnings.catch_warnings():
            # loadtxt warns on every blank line, and on a last chunk with no rows
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, max_rows=max_rows, ndmin=1)
        yield rows
        if len(rows) < max_rows:
            return


def _read_readings_chunks(fh):
    """The rows after the header through np.loadtxt, or None when it refuses
    a row or a value is non-finite or a count negative."""
    pieces: dict = {}
    try:
        for rows in _loadtxt_chunks(fh, _READINGS_ROW):
            t, count = rows["t"], rows["count"]
            if not (np.isfinite(t).all() and np.isfinite(count).all()
                    and (count >= 0).all()):
                return None
            if len(rows):
                _append_chunk(pieces, rows)
    except ValueError:
        return None
    # in file order, each subject's pieces dropped as they are copied: a
    # chunk is freed once the last subject in it is joined
    return {sid: _joined(pieces.pop(sid)) for sid in list(pieces)}


def _append_chunk(pieces: dict, rows) -> None:
    """Append each subject's (timestamps, counts) in this chunk, in file
    order, as one piece to pieces[stripped id]."""
    ids = rows["subject_id"]
    starts = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    codes: dict = {}
    run_codes = [codes.setdefault(ids[i].strip(), len(codes)) for i in starts]
    row_codes = np.repeat(run_codes, np.diff(starts, append=len(ids)))
    order = np.argsort(row_codes, kind="stable")
    bounds = np.cumsum(np.bincount(row_codes))[:-1]
    t = np.split(rows["t"][order], bounds)
    count = np.split(rows["count"][order], bounds)
    for sid, piece in zip(codes, zip(t, count)):
        pieces.setdefault(sid, []).append(piece)


def _joined(parts: list):
    """One (timestamps, counts) from a subject's pieces, as arrays that own
    their data (a piece is a view of its whole chunk)."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _read_readings_rows(path) -> dict:
    """read_readings_csv one csv row and two float() calls at a time."""
    per_subject: dict = {}
    bad: list[str] = []
    with _csv_reader(path, bad=bad) as reader:
        if not _is_readings_header(next(reader, None)):
            raise InputValidationError(
                f"{path}: expected header subject_id,timestamp_min,count")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                bad.append(f"line {lineno}: expected 3 fields")
                continue
            sid, t, count = row
            sid = sid.strip()
            try:
                t = float(t)
                count = float(count)
            except ValueError:
                bad.append(f"line {lineno}: non-numeric value")
                continue
            if not (math.isfinite(t) and math.isfinite(count)):
                bad.append(f"line {lineno}: non-finite value")
                continue
            if count < 0:
                bad.append(f"line {lineno}: negative count")
                continue
            entry = per_subject.get(sid)
            if entry is None:
                entry = per_subject[sid] = ([], [])
            entry[0].append(t)
            entry[1].append(count)
    if not per_subject:
        raise InputValidationError(f"{path}: no data rows")
    return {sid: (np.array(t), np.array(count))
            for sid, (t, count) in per_subject.items()}


def _parse_covariate(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        return text
    return int(value) if value.is_integer() and "." not in text else value


def read_subjects_csv(path) -> dict:
    """Subject metadata keyed by id: (survey_weight, covariates)."""
    out: dict = {}
    bad: list[str] = []
    with _csv_reader(path, csv.DictReader, bad) as reader:
        if reader.fieldnames is None or "subject_id" not in reader.fieldnames \
                or "survey_weight" not in reader.fieldnames:
            raise InputValidationError(
                f"{path}: expected columns subject_id and survey_weight")
        for row in reader:
            lineno = reader.line_num
            if None in row:
                bad.append(f"line {lineno}: more fields than the header")
                continue
            sid = (row.get("subject_id") or "").strip()
            try:
                weight = float(row["survey_weight"])
            except (TypeError, ValueError):
                bad.append(f"line {lineno}: bad survey_weight")
                continue
            if not sid:
                bad.append(f"line {lineno}: bad subject row")
                continue
            if not (math.isfinite(weight) and weight > 0):
                bad.append(f"line {lineno}: survey_weight must be positive and finite")
                continue
            if sid in out:
                bad.append(f"line {lineno}: duplicate subject_id {sid!r}")
                continue
            covariates = {
                key: _parse_covariate(val)
                for key, val in row.items()
                if key not in ("subject_id", "survey_weight") and val not in (None, "")
            }
            out[sid] = (weight, covariates)
    return out


def load_series(readings_path, subjects_path) -> list:
    """Join readings and subject metadata into ActivitySeries objects."""
    readings = read_readings_csv(readings_path)
    subjects = read_subjects_csv(subjects_path)
    missing = sorted(set(readings) - set(subjects))
    if missing:
        raise InputValidationError(
            f"subjects file lacks entries for: {', '.join(missing)}")
    series = []
    for sid in sorted(readings):
        t, counts = readings[sid]
        # the reader's arrays as they are, unless the file is out of time order
        if np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            t, counts = t[order], counts[order]
        weight, covariates = subjects[sid]
        series.append(ActivitySeries(
            subject_id=sid,
            timestamps=t,
            readings=counts,
            survey_weight=weight,
            covariates=covariates,
        ))
    return series


def read_summary_csv(path) -> dict:
    """Read a distribution summary back as {subject_id: (p_inactive, tac)}."""
    out: dict = {}
    bad: list[str] = []
    with _csv_reader(path, csv.DictReader, bad) as reader:
        needed = {"subject_id", "p_inactive", "tac_per_day"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise InputValidationError(f"{path}: not a summary table")
        for row in reader:
            lineno = reader.line_num
            sid = row["subject_id"]
            try:
                p_inactive, tac = float(row["p_inactive"]), float(row["tac_per_day"])
            except (TypeError, ValueError):
                bad.append(f"line {lineno}: missing or non-numeric value")
                continue
            if not (math.isfinite(p_inactive) and math.isfinite(tac)):
                bad.append(f"line {lineno}: non-finite value")
                continue
            if sid in out:
                bad.append(f"line {lineno}: duplicate subject_id {sid!r}")
                continue
            out[sid] = (p_inactive, tac)
    return out


def write_quantile_csv(path, subject_ids, quantiles) -> None:
    """Quantile-grid table: one row per subject, columns t_1..t_m, from an
    (n, m) matrix or a list of QuantileGrid.

    Writes the bytes that write_rows would, one formatted line per subject:
    the table as Python floats would take 4x the matrix.
    """
    matrix = np.asarray(quantiles, dtype=float)
    header = ["subject_id"] + [f"t_{k}" for k in range(1, matrix.shape[1] + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for sid, row in zip(subject_ids, matrix):
            fh.write(_csv_field(sid) + "," + ",".join(map(repr, row.tolist())) + "\r\n")


def read_quantile_csv(path):
    """Read back a quantile table as (subject_ids, read-only float64 (n, m)
    matrix); each row is checked as a QuantileGrid is, and ids are unique.

    numpy's C parser reads the rows in chunks, as in read_readings_csv; when
    it refuses a row, a row fails the check, an id repeats or is longer than
    csv.field_size_limit(), the csv row loop reads the file again and reports
    the first bad row with its line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh, \
            contextlib.suppress(csv.Error):  # the row loop reports it
        header = next(csv.reader(fh), None)
        if _is_quantile_header(header):
            table = _read_quantile_chunks(fh, len(header) - 1)
            if table is not None:
                return table
    return _read_quantile_rows(path)


def _is_quantile_header(header) -> bool:
    return bool(header) and header[0] == "subject_id" and len(header) >= 3


def _read_quantile_chunks(fh, m: int):
    """The rows after the header through np.loadtxt as read_quantile_csv
    returns them, or None when the row loop must read the file."""
    dtype = np.dtype([("subject_id", object), ("q", "f8", (m,))])
    limit = csv.field_size_limit()
    ids, blocks, seen = [], [], set()
    try:
        for rows in _loadtxt_chunks(fh, dtype):
            chunk_ids = rows["subject_id"].tolist()
            check_quantile_rows(rows["q"])
            seen.update(chunk_ids)
            ids += chunk_ids
            if len(seen) < len(ids) or any(len(sid) > limit for sid in chunk_ids):
                return None
            blocks.append(rows["q"])
    except ValueError:
        return None
    matrix = np.concatenate(blocks)
    matrix.setflags(write=False)
    return ids, matrix


def _read_quantile_rows(path):
    """read_quantile_csv one csv row at a time; stops at the first bad row."""
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if not _is_quantile_header(header):
            raise InputValidationError(f"{path}: not a quantile table")
        ids, rows, seen = [], [], set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputValidationError(f"{path}: line {lineno}: wrong field count")
            if row[0] in seen:
                raise InputValidationError(
                    f"{path}: line {lineno}: duplicate subject_id {row[0]!r}")
            seen.add(row[0])
            ids.append(row[0])
            try:
                rows.append(np.asarray(row[1:], dtype=float))
                check_quantile_rows(rows[-1])
            except ValueError as exc:
                raise InputValidationError(f"{path}: line {lineno}: {exc}") from exc
    matrix = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    matrix.setflags(write=False)
    return ids, matrix


def write_summary_csv(path, subject_ids, mixed: list, tacs) -> None:
    """Per-subject distribution summary (p_inactive, tac_per_day)."""
    rows = (
        [sid, mix.p_inactive, tac]
        for sid, mix, tac in zip(subject_ids, mixed, tacs)
    )
    write_rows(path, ["subject_id", "p_inactive", "tac_per_day"], rows)


def write_distance_matrix_csv(path, subject_ids, matrix: np.ndarray) -> None:
    """Square subject-by-subject distance matrix."""
    header = ["subject_id"] + list(subject_ids)
    rows = ([sid, *matrix[i]] for i, sid in enumerate(subject_ids))
    write_rows(path, header, rows)


def write_frechet_summary_csv(path, summaries: dict) -> None:
    """Per-group Frechet curves: (group, t, mean, sd) rows.

    Writes the bytes that write_rows would, one formatted line per row: the
    group label is quoted once per group and every value is repr-formatted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["group", "t", "mean", "sd"])
        for group, summary in summaries.items():
            head = _csv_field(group) + ","
            columns = (summary.mean.levels, summary.mean.values, summary.pointwise_sd)
            for t, mu, sd in zip(*(map(repr, c.tolist()) for c in columns)):
                fh.write(f"{head}{t},{mu},{sd}\r\n")


def write_subjects_csv(path, subjects) -> None:
    """Subject metadata table; covariate columns follow the common schema."""
    names: list = []
    for s in subjects:
        for key in s.covariates:
            if key not in names:
                names.append(key)
    header = ["subject_id", "survey_weight"] + names
    rows = (
        [s.subject_id, s.survey_weight] + [s.covariates.get(k, "") for k in names]
        for s in subjects
    )
    write_rows(path, header, rows)


def _csv_field(value) -> str:
    """`value` as csv.writer writes it inside a row, quoted if it needs it."""
    buf = StringIO()
    # two fields, because csv.writer quotes a row that is one empty field
    csv.writer(buf).writerow([_fmt(value), ""])
    return buf.getvalue()[:-len(",\r\n")]


# rows per text slice of a subject in write_readings_csv: bounds the row
# strings held at once
_WRITE_CHUNK_ROWS = 1 << 12


def write_readings_csv(path, subjects, sample_path=None, sample_ids=()) -> None:
    """Long-format readings for a list of ActivitySeries.

    Writes the bytes that write_rows would, _WRITE_CHUNK_ROWS rows of a
    subject at a time, with no Python step per row: the "t," strings of a
    timestamp grid are formatted once and kept while consecutive subjects
    share the grid, and only the readings that are not +0.0 go through repr
    (see _row_slices).

    With sample_path, each subject whose id is in `sample_ids` is written to
    that file too, in the same pass and from the same slices. An id that no
    subject has raises ValueError.
    """
    sample_ids = set(sample_ids)
    if sample_ids and sample_path is None:
        raise TypeError("sample_ids needs sample_path")
    unknown = sample_ids - {s.subject_id for s in subjects}
    if unknown:
        raise ValueError(f"sample subject {min(unknown)!r} is not in the population")
    grid, times = None, None
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline=""))
                 for p in (path, sample_path) if p is not None]
        for fh in files:
            csv.writer(fh).writerow(["subject_id", "timestamp_min", "count"])
        for s in subjects:
            # bytes, not values: 0.0 == -0.0, but they print differently
            if s.timestamps.tobytes() != grid:
                grid = s.timestamps.tobytes()
                times = np.array(list(map(repr, s.timestamps.tolist())), dtype=object) + ","
            targets = files if s.subject_id in sample_ids else files[:1]
            for text in _row_slices(s, times):
                for fh in targets:
                    fh.write(text)


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
    def rows():
        for name in sorted(true_means):
            yield ["population_mean", name, true_means[name]]
        for s in subjects:
            yield ["stratum", s.subject_id, s.covariates.get("stratum", "all")]
        for s, p in zip(subjects, pi):
            yield ["pi", s.subject_id, p]
    write_rows(path, ["record", "name", "value"], rows())
