"""Batched Euler forecasts of a learned system and per-step error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import allocate


@dataclass
class RolloutResult:
    states: np.ndarray          # (k+1, *init.shape); k == steps unless truncated
    completed: bool
    failure_step: Optional[int] = None


def rollout(model, init, steps, dt):
    """Propagate ``steps`` explicit-Euler steps from a state (d,) or from
    each row of a batch of states (n, d).

    ``model`` maps a state, or a batch of them, to its time derivative. The
    first step at which any state is not finite truncates the rollout for
    the whole batch and is reported as ``failure_step``.
    """
    init = np.asarray(init, dtype=float)
    # trajectory-major, so a batch's states.swapaxes(0, 1) is C-ordered
    states = np.moveaxis(allocate(np.empty, shape=(
        *init.shape[:-1], steps + 1, init.shape[-1])), -2, 0)
    states[0] = init
    # overflow here is reported through truncation, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            nxt = states[s] + dt * np.asarray(model(states[s]), dtype=float)
            if not np.all(np.isfinite(nxt)):
                return RolloutResult(states[: s + 1].copy(), False, s + 1)
            states[s + 1] = nxt
    return RolloutResult(states, True, None)


def cut_forecast(result, *per_step):
    """Where every forecast ends: ``(result, *per_step)``, each cut before
    the first step at which a state, or a row of one of the ``per_step``
    arrays (its values in original units, its errors against the truth), is
    not finite, with ``result`` reported as diverged there. Nothing is cut,
    and the same objects come back, when every row is finite. JSON and CSV
    have no number for a forecast that left the float range."""
    finite = np.logical_and.reduce(
        [np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
         for a in (result.states, *per_step)])
    if finite.all():
        return (result, *per_step)
    step = int(np.argmin(finite))
    return (RolloutResult(result.states[:step], False, step),
            *(a[:step] for a in per_step))


def replay(model, truth, dt):
    """Teacher-forced replay of a series ``truth`` (T, d): row 0 is the first
    observation and row k + 1 the Euler step from observation k, all from
    one batched evaluation of ``model``. Non-finite rows are returned as
    they are."""
    truth = np.asarray(truth, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vstack([truth[:1], truth[:-1] + dt * model(truth[:-1])])


def _mean_squared_error(predicted, truth, axis):
    pred = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    # an error, or a sum of errors, beyond the float range is inf; the
    # difference is squared in place, the same bits as ``** 2``
    with np.errstate(over="ignore"):
        error = pred - truth
        return np.mean(np.square(error, out=error), axis=axis)


def per_step_mse(predicted, truth):
    """Mean squared error at each step of stacked trajectories (n, T, d),
    averaged over trajectories and state components: shape (T,)."""
    return _mean_squared_error(predicted, truth, (0, 2))


def per_step_component_mse(predicted, truth):
    """Like :func:`per_step_mse` but keeps components separate: (T, d)."""
    return _mean_squared_error(predicted, truth, 0)


def persistence_baseline(truth):
    """Per-step MSE of the constant predictor that repeats each stacked
    trajectory's first row (the last known observation) forever."""
    truth = np.asarray(truth, dtype=float)
    return per_step_mse(np.broadcast_to(truth[:, :1], truth.shape), truth)
