"""TrajectoryDataset holds a trajectory set as one C-ordered (n, M+1, d)
array, checked once."""

import numpy as np
import pytest

from symode.datasets import TrajectoryDataset

NAMES = ("a", "b")


def states(n=3, rows=4, width=2):
    return np.arange(n * rows * width, dtype=float).reshape(n, rows, width)


def test_arrays_of_one_shape_are_stacked_into_one_c_ordered_array():
    arrays = list(states())
    data = TrajectoryDataset(arrays, 0.5, NAMES)
    assert data.trajectories.shape == (3, 4, 2)
    assert data.trajectories.flags.c_contiguous
    assert data.n_trajectories == len(data.trajectories) == 3
    for held, given in zip(data.trajectories, arrays):
        assert np.array_equal(held, given)


def test_a_c_ordered_float_array_is_held_as_it_is():
    arr = states()
    assert TrajectoryDataset(arr, 0.5, NAMES).trajectories is arr


def test_pairs_are_pooled_in_trajectory_order():
    data = TrajectoryDataset(states(), 0.5, NAMES)
    current, nxt = data.stacked_pairs()
    assert np.array_equal(current,
                          np.vstack([t[:-1] for t in data.trajectories]))
    assert np.array_equal(nxt, np.vstack([t[1:] for t in data.trajectories]))


@pytest.mark.parametrize("trajectories,dt,message", [
    ([], 0.5, "dataset needs at least one trajectory"),
    (states(), 0.0, "dt must be positive"),
    (states(), -0.5, "dt must be positive"),
    (states(width=3), 0.5, "trajectory 0: expected shape (M+1, 2)"),
    (states()[0], 0.5, "trajectory 0: expected shape (M+1, 2)"),
    (states(rows=1), 0.5, "trajectory 0: needs at least 2 rows"),
], ids=["empty", "zero-dt", "negative-dt", "wide", "one-trajectory-unstacked",
        "one-row"])
def test_a_set_that_breaks_a_rule_is_a_value_error(trajectories, dt,
                                                   message):
    with pytest.raises(ValueError) as err:
        TrajectoryDataset(trajectories, dt, NAMES)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
def test_a_value_that_is_not_finite_names_its_trajectory(value):
    arrays = states()
    arrays[1, 2, 0] = value
    arrays[2, 0, 1] = value
    with pytest.raises(ValueError) as err:
        TrajectoryDataset(arrays, 0.5, NAMES)
    assert str(err.value) == "trajectory 1: contains non-finite values"


def test_arrays_of_different_lengths_are_a_value_error():
    with pytest.raises(ValueError):
        TrajectoryDataset([np.zeros((3, 2)), np.zeros((4, 2))], 0.5, NAMES)
