"""Forward rollouts of a learned system and per-step error metrics."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class RolloutMode(enum.Enum):
    # next step computed from the ground-truth current state
    TEACHER_FORCED = "teacher_forced"
    # next step computed from the model's own previous prediction
    AUTONOMOUS = "autonomous"


@dataclass
class RolloutResult:
    states: np.ndarray          # (k+1, d); k == steps unless truncated
    completed: bool
    failure_step: Optional[int] = None


def rollout(model, init, steps, dt, mode=RolloutMode.AUTONOMOUS, truth=None):
    """Propagate ``steps`` explicit-Euler steps from ``init``.

    ``model`` maps a state vector to its time derivative. In teacher-forced
    mode each step starts from the ground-truth state, so ``truth`` must
    cover at least ``steps`` rows. A non-finite prediction truncates the
    rollout and reports the failing step index.
    """
    init = np.asarray(init, dtype=float)
    truth_arr = None if truth is None else np.asarray(truth, dtype=float)
    if mode is RolloutMode.TEACHER_FORCED:
        if truth_arr is None or truth_arr.shape[0] < steps:
            raise ValueError("teacher forcing requires truth covering all steps")
    states = np.empty((steps + 1, init.size))
    states[0] = init
    # overflow here is reported through truncation, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            current = (truth_arr[s] if mode is RolloutMode.TEACHER_FORCED
                       else states[s])
            nxt = current + dt * np.asarray(model(current), dtype=float)
            if not np.all(np.isfinite(nxt)):
                return RolloutResult(states[: s + 1].copy(), False, s + 1)
            states[s + 1] = nxt
    return RolloutResult(states, True, None)


def _stack(trajectory_set):
    arrays = [np.asarray(t, dtype=float) for t in trajectory_set]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("trajectories must share one shape")
    return np.stack(arrays)


def per_step_mse(predicted_set, truth_set):
    """Mean squared error at each step, averaged over trajectories and
    state components. Returns one value per trajectory row."""
    pred = _stack(predicted_set)
    truth = _stack(truth_set)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return np.mean((pred - truth) ** 2, axis=(0, 2))


def per_step_component_mse(predicted_set, truth_set):
    """Like :func:`per_step_mse` but keeps components separate: (T, d)."""
    pred = _stack(predicted_set)
    truth = _stack(truth_set)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return np.mean((pred - truth) ** 2, axis=0)


def persistence_baseline(truth_set):
    """Per-step MSE of the constant predictor that repeats each
    trajectory's first row (the last known observation) forever."""
    truth = [np.asarray(t, dtype=float) for t in truth_set]
    constant = [np.repeat(t[:1], t.shape[0], axis=0) for t in truth]
    return per_step_mse(constant, truth)
