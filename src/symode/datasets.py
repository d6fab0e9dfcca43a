"""Trajectory containers shared by the generators, losses, and file IO."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TrajectoryDataset:
    """Time-indexed state arrays with a common step size.

    Each trajectory is an (M+1, d) array of states sampled every ``dt``
    time units; all trajectories share the same dimension and step size.
    """

    trajectories: list
    dt: float
    var_names: tuple
    split: str = "full"

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("dataset needs at least one trajectory")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.var_names = tuple(self.var_names)
        arrays = []
        d = len(self.var_names)
        for k, traj in enumerate(self.trajectories):
            arr = np.asarray(traj, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != d:
                raise ValueError(f"trajectory {k}: expected shape (M+1, {d})")
            if arr.shape[0] < 2:
                raise ValueError(f"trajectory {k}: needs at least 2 rows")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"trajectory {k}: contains non-finite values")
            arrays.append(arr)
        self.trajectories = arrays

    @property
    def dim(self):
        return len(self.var_names)

    @property
    def n_trajectories(self):
        return len(self.trajectories)

    def stacked_pairs(self):
        """All consecutive (state, next state) pairs pooled across
        trajectories, in trajectory order: two (n_pairs, d) arrays."""
        current = np.vstack([t[:-1] for t in self.trajectories])
        nxt = np.vstack([t[1:] for t in self.trajectories])
        return current, nxt
