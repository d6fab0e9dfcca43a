import numpy as np
import pytest

from symode import dataio
from symode.dataio import load_csv, normalize_series, save_trajectories_csv
from symode.datasets import TrajectoryDataset
from symode.errors import (DataError, EmptyFileError, MissingColumnError,
                           NonNumericCellError)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SERIES_CSV = """date,Q,D,R
2020-01-22,500,17,28
2020-01-23,640,18,30
2020-01-24,900,26,36
"""


class TestLoadSeries:
    def test_loads_single_trajectory(self, tmp_path):
        path = write(tmp_path, "series.csv", SERIES_CSV)
        data = load_csv(path, dt=1.0)
        assert data.n_trajectories == 1
        assert data.var_names == ("Q", "D", "R")
        assert data.trajectories[0].shape == (3, 3)
        assert data.trajectories[0][1, 0] == 640

    def test_expected_columns_enforced(self, tmp_path):
        path = write(tmp_path, "series.csv", SERIES_CSV)
        with pytest.raises(MissingColumnError) as err:
            load_csv(path, expected_columns=("Q", "D", "R", "X"))
        assert err.value.column == "X"

    @pytest.mark.parametrize("text", [
        "date,Q,D, Q\n2020-01-22,1,2,3\n2020-01-23,4,5,6\n",
        "trajectory_id,step,S,S\n0,0,1,2\n0,1,3,4\n",
    ], ids=["series", "trajectories"])
    def test_repeated_column_name_rejected(self, tmp_path, text):
        # a results document with repeated var_names cannot be read back
        path = write(tmp_path, "repeated.csv", text)
        with pytest.raises(DataError, match=r"repeated column names \['"):
            load_csv(path)

    def test_non_numeric_cell_location(self, tmp_path):
        bad = SERIES_CSV.replace("900", "n/a")
        path = write(tmp_path, "series.csv", bad)
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path)
        assert err.value.row == 3
        assert err.value.column == "Q"
        assert err.value.value == "n/a"

    def test_bad_date_rejected(self, tmp_path):
        bad = SERIES_CSV.replace("2020-01-23", "23/01/2020")
        path = write(tmp_path, "series.csv", bad)
        with pytest.raises(DataError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(EmptyFileError):
            load_csv(path)

    def test_single_data_row_rejected(self, tmp_path):
        path = write(tmp_path, "short.csv",
                     "date,Q\n2020-01-22,500\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = write(tmp_path, "series.csv", SERIES_CSV.replace("26", cell))
        with pytest.raises(DataError, match=r"row 3, column 'D': .* not finite"):
            load_csv(path)

    @pytest.mark.parametrize("date", ["2020-01-22", "2020-01-21"])
    def test_dates_must_increase(self, tmp_path, date):
        path = write(tmp_path, "series.csv",
                     SERIES_CSV.replace("2020-01-24", date))
        with pytest.raises(DataError, match="row 3: date .* not after"):
            load_csv(path)

    def test_skipped_date_rejected(self, tmp_path):
        path = write(tmp_path, "series.csv",
                     SERIES_CSV.replace("2020-01-24", "2020-01-25"))
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == (f"{path}: row 3: date 2020-01-25 is 2 days "
                                  f"after 2020-01-23, not 1 as between the "
                                  f"first two dates")

    def test_evenly_spaced_weekly_dates_load(self, tmp_path):
        weekly = (SERIES_CSV.replace("2020-01-23", "2020-01-29")
                  .replace("2020-01-24", "2020-02-05"))
        data = load_csv(write(tmp_path, "series.csv", weekly))
        assert data.trajectories[0].shape == (3, 3)

    def test_bundled_sample_loads(self, data_dir):
        data = load_csv(data_dir / "covid_qdr_sample.csv")
        assert data.var_names == ("Q", "D", "R")
        assert data.trajectories[0].shape == (100, 3)
        assert data.trajectories[0][0].tolist() == [420.0, 12.0, 24.0]


class TestTrajectoryRoundTrip:
    def test_round_trip_full_precision(self, tmp_path, sir_dataset):
        path = tmp_path / "traj.csv"
        save_trajectories_csv(path, sir_dataset)
        loaded = load_csv(path, dt=sir_dataset.dt)
        assert loaded.var_names == sir_dataset.var_names
        assert loaded.n_trajectories == sir_dataset.n_trajectories
        for a, b in zip(loaded.trajectories, sir_dataset.trajectories):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("layout", ["trajectories", "series"])
    def test_file_is_read_once(self, tmp_path, sir_dataset, monkeypatch,
                               layout):
        if layout == "series":
            path = write(tmp_path, "series.csv", SERIES_CSV)
        else:
            path = save_trajectories_csv(tmp_path / "traj.csv", sir_dataset)
        reads, read_rows = [], dataio._read_rows

        def counting(path):
            reads.append(path)
            return read_rows(path)

        monkeypatch.setattr(dataio, "_read_rows", counting)
        load_csv(path)
        assert reads == [path]

    @pytest.mark.parametrize("ends", ["\r\n", "\r"])
    def test_line_ends_read_as_lf(self, tmp_path, ends):
        lf = load_csv(write(tmp_path, "lf.csv", SERIES_CSV))
        other = tmp_path / "other.csv"
        other.write_bytes(SERIES_CSV.replace("\n", ends).encode("utf-8"))
        loaded = load_csv(other)
        assert loaded.var_names == lf.var_names
        assert np.array_equal(loaded.trajectories[0], lf.trajectories[0])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = load_csv(write(tmp_path, "plain.csv", SERIES_CSV))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + SERIES_CSV.encode("utf-8"))
        loaded = load_csv(marked)
        assert loaded.var_names == plain.var_names
        assert np.array_equal(loaded.trajectories[0], plain.trajectories[0])

    def test_bad_byte_after_a_byte_order_mark_is_named_at_its_offset(
            self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(DataError, match="byte 0xff in position 5:"):
            load_csv(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "odd.csv", "foo,bar\n1,2\n")
        with pytest.raises(MissingColumnError):
            load_csv(path)

    def test_short_trajectory_rejected(self, tmp_path):
        path = write(tmp_path, "short.csv",
                     "trajectory_id,step,x\n0,0,1.0\n")
        with pytest.raises(DataError):
            load_csv(path)

    @pytest.mark.parametrize("steps,match", [
        ((0, 0, 5), r"row 2: trajectory '0': step 0 follows step 0"),
        ((0, 1, 3), r"row 3: trajectory '0': step 3 follows step 1"),
        ((2, 0, 0), r"row 3: trajectory '0': step 0 follows step 0"),
    ], ids=["duplicate", "gap", "duplicate-unordered"])
    def test_steps_must_be_consecutive(self, tmp_path, steps, match):
        rows = "".join(f"0,{s},{k}.0\n" for k, s in enumerate(steps))
        path = write(tmp_path, "t.csv", "trajectory_id,step,x\n" + rows)
        with pytest.raises(DataError, match=match):
            load_csv(path)

    def test_trajectories_of_different_lengths_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "trajectory_id,step,x\n"
                     "a,0,1.0\na,1,2.0\nb,0,1.0\nb,1,2.0\nb,2,3.0\n")
        with pytest.raises(DataError, match=r"t\.csv: trajectory 'b' has 3 "
                                            r"rows, not 2 as the first$"):
            load_csv(path)

    def test_non_integer_step_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "trajectory_id,step,x\n0,0,1.0\n0,1.5,2.0\n")
        with pytest.raises(DataError, match="row 2: step '1.5' is not an integer"):
            load_csv(path)

    def test_unordered_rows_load_in_step_order(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "trajectory_id,step,x\n0,1,2.0\n0,0,1.0\n0,2,3.0\n")
        assert load_csv(path).trajectories[0][:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_non_finite_trajectory_cell_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "trajectory_id,step,x\n0,0,1.0\n0,1,nan\n")
        with pytest.raises(DataError, match=r"row 2, column 'x'"):
            load_csv(path)


class TestNormalization:
    def make_data(self):
        rows = np.array([[100.0, 50.0], [200.0, 100.0], [400.0, 100.0]])
        return TrajectoryDataset([rows], 1.0, ("a", "b"))

    def test_none_is_identity(self):
        data = self.make_data()
        out, scale = normalize_series(data, "none")
        assert scale == 1.0 and isinstance(scale, float)
        assert np.array_equal(out.trajectories[0], data.trajectories[0])

    def test_by_constant(self):
        out, scale = normalize_series(self.make_data(), "by_constant",
                                      constant=1000.0)
        assert scale == 1000.0
        assert out.trajectories[0][0, 0] == pytest.approx(0.1)

    def test_by_constant_requires_value(self):
        with pytest.raises(ValueError):
            normalize_series(self.make_data(), "by_constant")

    def test_by_max_total(self):
        out, scale = normalize_series(self.make_data(), "by_max_total")
        assert scale == 500.0
        totals = out.trajectories[0].sum(axis=1)
        assert totals.max() == pytest.approx(1.0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            normalize_series(self.make_data(), "standardize")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            normalize_series(self.make_data(), "by_constant", constant=0.0)
