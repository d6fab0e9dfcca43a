"""Trajectory containers shared by the generators, losses, and file IO."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TrajectoryDataset:
    """States of n trajectories of one length, sampled every ``dt`` time
    units: one C-ordered float array (n, M+1, d), trajectory k at
    ``trajectories[k]``. A sequence of (M+1, d) arrays of one shape is
    stacked into it; arrays of different shapes are a ValueError."""

    trajectories: np.ndarray
    dt: float
    var_names: tuple
    split: str = "full"

    def __post_init__(self):
        if len(self.trajectories) == 0:
            raise ValueError("dataset needs at least one trajectory")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.var_names = tuple(self.var_names)
        # one shape for all, so trajectory 0 is the first to break a shape rule
        arr = np.ascontiguousarray(self.trajectories, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != self.dim:
            raise ValueError(f"trajectory 0: expected shape (M+1, {self.dim})")
        if arr.shape[1] < 2:
            raise ValueError("trajectory 0: needs at least 2 rows")
        finite = np.isfinite(arr).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"trajectory {np.argmin(finite)}: contains "
                             "non-finite values")
        self.trajectories = arr

    @property
    def dim(self):
        return len(self.var_names)

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    def stacked_pairs(self):
        """All consecutive (state, next state) pairs pooled across
        trajectories, in trajectory order: two (n_pairs, d) arrays."""
        return (self.trajectories[:, :-1].reshape(-1, self.dim),
                self.trajectories[:, 1:].reshape(-1, self.dim))
