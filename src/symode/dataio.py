"""CSV reading/writing and series normalization.

Two file layouts are supported, both UTF-8 (a leading byte-order mark is
skipped) with LF endings and ``.`` decimals:

* trajectory files: header ``trajectory_id,step,<var1>,...,<vard>``, one
  row per (trajectory, step), steps consecutive integers in any row order;
* observed series: header ``date,<var1>,...`` with strictly increasing,
  evenly spaced ISO-8601 dates (the first two set the spacing, so a
  skipped date is an error) and one trajectory in date order. Beyond
  that check dates are metadata only; the step index drives the time
  step.

Every value must be finite; a DataError names the row that breaks a rule.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from pathlib import Path

import numpy as np

from .datasets import TrajectoryDataset
from .errors import (DataError, EmptyFileError, MissingColumnError,
                     NonNumericCellError)


def read_text(path, error, what):
    """The text of the UTF-8 file at ``path``, line ends as they are and a
    leading byte-order mark dropped. A missing file raises ``error`` saying
    there is no such ``what``; a directory, any other file that cannot be
    read and bytes that are not UTF-8 raise ``error`` naming the path and
    the cause."""
    path = Path(path)
    if not path.exists():
        raise error(f"{path}: no such {what}")
    try:
        # plain UTF-8, so a decode error counts its offset from the first
        # byte, a byte-order mark included
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc.strerror}") from None


def _read_rows(path):
    text = read_text(path, DataError, "file")
    rows = csv.reader(io.StringIO(text, newline=""))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise EmptyFileError(path)
    return rows


def _parse_cell(path, row_idx, column, text):
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCellError(path, row_idx, column, text) from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {row_idx}, column {column!r}: "
                        f"{text!r} is not finite")
    return value


def _column_order(path, var_names, expected_columns):
    """Indices into the file's ``var_names`` of the columns to keep: every
    column in file order, or ``expected_columns`` in their order. A name
    that heads two columns is an error: no one can tell which is meant."""
    repeated = sorted({name for name in var_names if var_names.count(name) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column names {repeated}")
    if expected_columns is None:
        return list(range(len(var_names)))
    for col in expected_columns:
        if col not in var_names:
            raise MissingColumnError(path, col)
    return [var_names.index(col) for col in expected_columns]


def _dataset(trajectories, dt, var_names, order):
    return TrajectoryDataset([t[:, order] for t in trajectories], dt,
                             [var_names[j] for j in order])


def load_csv(path, dt=1.0, expected_columns=None):
    """Load either file layout, dispatching on the first header column.
    With ``expected_columns`` the data holds exactly those variables, in
    that order, whatever the order of the file's columns."""
    rows = _read_rows(path)
    first = rows[0][0].strip().lower()
    if first == "trajectory_id":
        return _trajectories(path, rows, dt, expected_columns)
    if first == "date":
        return _series(path, rows, dt, expected_columns)
    raise MissingColumnError(path, "trajectory_id or date")


def _trajectories(path, rows, dt, expected_columns):
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "trajectory_id" or header[1] != "step":
        raise MissingColumnError(path, "trajectory_id,step,<vars>")
    var_names = tuple(header[2:])
    order = _column_order(path, var_names, expected_columns)
    groups = {}
    for idx, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {idx}: expected {len(header)} cells, "
                            f"got {len(row)}")
        tid = row[0].strip()
        step = _parse_cell(path, idx, "step", row[1])
        if step != int(step):
            raise DataError(f"{path}: row {idx}: step {row[1]!r} is not an "
                            f"integer")
        values = [_parse_cell(path, idx, var_names[j], row[2 + j])
                  for j in range(len(var_names))]
        groups.setdefault(tid, []).append((int(step), idx, values))
    if not groups:
        raise EmptyFileError(path)
    trajectories = []
    for tid in groups:
        ordered = sorted(groups[tid], key=lambda entry: entry[:2])
        for (prev, _, _), (step, idx, _) in zip(ordered, ordered[1:]):
            if step != prev + 1:
                raise DataError(f"{path}: row {idx}: trajectory {tid!r}: "
                                f"step {step} follows step {prev}")
        arr = np.array([v for _, _, v in ordered], dtype=float)
        if arr.shape[0] < 2:
            raise DataError(f"{path}: trajectory {tid!r} has fewer than 2 rows")
        trajectories.append(arr)
    return _dataset(trajectories, dt, var_names, order)


def _series(path, rows, dt, expected_columns):
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[0] != "date":
        raise MissingColumnError(path, "date")
    var_names = tuple(header[1:])
    order = _column_order(path, var_names, expected_columns)
    values = []
    prev = spacing = None
    for idx, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {idx}: expected {len(header)} cells, "
                            f"got {len(row)}")
        try:
            date = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{path}: row {idx}: {row[0]!r} is not an "
                            f"ISO-8601 date") from None
        if prev is not None:
            if date <= prev:
                raise DataError(f"{path}: row {idx}: date {date} is not "
                                f"after {prev}")
            if spacing is not None and date - prev != spacing:
                raise DataError(f"{path}: row {idx}: date {date} is "
                                f"{(date - prev).days} days after {prev}, not "
                                f"{spacing.days} as between the first two "
                                f"dates")
            spacing = date - prev
        prev = date
        values.append([_parse_cell(path, idx, var_names[j], row[1 + j])
                       for j in range(len(var_names))])
    if not values:
        raise EmptyFileError(path)
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    return _dataset([np.array(values, dtype=float)], dt, var_names, order)


def write_csv(path, header, rows):
    """Write the one CSV layout symode writes, into an existing directory:
    UTF-8, LF line ends, and per row ``(*keys, values)`` its int keys, then
    its values with repr, so that reading the file back reproduces them."""
    path = Path(path)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for *keys, values in rows:
            writer.writerow([*keys, *(repr(float(v)) for v in values)])
    return path


def save_trajectories_csv(path, data):
    """Write a dataset as a trajectory file; a round trip is exact."""
    return write_csv(path, ["trajectory_id", "step", *data.var_names],
                     ((tid, step, row)
                      for tid, traj in enumerate(data.trajectories)
                      for step, row in enumerate(traj)))


# ---------------------------------------------------------------------------
# normalization

NORMALIZATION_MODES = ("none", "by_constant", "by_max_total")


def normalize_series(data, mode, constant=None):
    """Scale all values by a common positive factor: ``(dataset, scale)``,
    the float that multiplies a scaled value back into the original units.

    ``by_constant`` divides by the given constant; ``by_max_total`` divides
    by the largest row total observed, which maps the series into O(1).
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        scale = 1.0
    elif mode == "by_constant":
        if constant is None:
            raise ValueError("by_constant normalization needs a constant")
        scale = float(constant)
    else:
        with np.errstate(over="ignore"):   # an infinite total fails below
            scale = max(float(t.sum(axis=1).max()) for t in data.trajectories)
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"normalization scale must be positive, got {scale}")
    scaled = [t / scale for t in data.trajectories]
    return (TrajectoryDataset(scaled, data.dt, data.var_names, data.split),
            scale)
