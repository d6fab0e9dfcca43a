"""Compartmental ground-truth models and the synthetic data generator.

Three classical models are provided. With state fractions normalized so
the compartments sum to one (N = 1):

SIR:    dS = mu (N - S) - beta S I / N
        dI = beta S I / N - (mu + gamma) I
        dR = gamma I - mu R

SEIR:   adds an exposed compartment with progression rate sigma and a
        vaccination flow nu_rate * S from S directly to R.

SEIRD:  adds disease-induced deaths at rate delta; no vital dynamics, so
        the five derivatives sum to zero identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .datasets import TrajectoryDataset
from .errors import NumericalError, allocate
from .forecast import rollout


class ModelKind(str, enum.Enum):
    SIR = "sir"
    SEIR = "seir"
    SEIRD = "seird"

    @property
    def var_names(self):
        return {
            ModelKind.SIR: ("S", "I", "R"),
            ModelKind.SEIR: ("S", "E", "I", "R"),
            ModelKind.SEIRD: ("S", "E", "I", "R", "D"),
        }[self]

    @property
    def dim(self):
        return len(self.var_names)


@dataclass(frozen=True)
class EpiParams:
    """Rate constants; every rate must be nonnegative and n_pop positive."""

    beta: float = 0.9
    gamma: float = 0.2
    mu: float = 0.3
    sigma: float = 0.6
    nu_rate: float = 0.2
    delta: float = 0.05
    n_pop: float = 1.0

    def __post_init__(self):
        rates = (self.beta, self.gamma, self.mu, self.sigma, self.nu_rate,
                 self.delta)
        if any(r < 0 for r in rates):
            raise ValueError("rates must be nonnegative")
        if self.n_pop <= 0:
            raise ValueError("n_pop must be positive")


def benchmark_params(kind):
    """Rate constants used throughout the synthetic experiments: the
    defaults of EpiParams, except sigma 0.5 for SEIRD."""
    if ModelKind(kind) is ModelKind.SEIRD:
        return EpiParams(sigma=0.5)
    return EpiParams()


# The EpiParams fields that each model's vector_field reads.
MODEL_RATES = {
    ModelKind.SIR: ("beta", "gamma", "mu", "n_pop"),
    ModelKind.SEIR: ("beta", "gamma", "mu", "sigma", "nu_rate", "n_pop"),
    ModelKind.SEIRD: ("beta", "gamma", "sigma", "delta", "n_pop"),
}


def vector_field(kind, params, x):
    """Right-hand side of the chosen model. ``x`` may be a single state
    vector or an array whose last axis indexes compartments."""
    kind = ModelKind(kind)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != kind.dim:
        raise ValueError(f"{kind.value} expects {kind.dim} compartments, "
                         f"got {x.shape[-1]}")
    N = params.n_pop
    if kind is ModelKind.SIR:
        S, I, R = x[..., 0], x[..., 1], x[..., 2]
        infection = params.beta * S * I / N
        return np.stack([
            params.mu * (N - S) - infection,
            infection - (params.mu + params.gamma) * I,
            params.gamma * I - params.mu * R,
        ], axis=-1)
    if kind is ModelKind.SEIR:
        S, E, I, R = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        infection = params.beta * S * I / N
        return np.stack([
            params.mu * (N - S) - infection - params.nu_rate * S,
            infection - (params.mu + params.sigma) * E,
            params.sigma * E - (params.mu + params.gamma) * I,
            params.gamma * I - params.mu * R + params.nu_rate * S,
        ], axis=-1)
    S, E, I, R, D = (x[..., 0], x[..., 1], x[..., 2], x[..., 3], x[..., 4])
    infection = params.beta * S * I / N
    return np.stack([
        -infection,
        infection - params.sigma * E,
        params.sigma * E - (params.gamma + params.delta) * I,
        params.gamma * I,
        params.delta * I,
    ], axis=-1)


def generate_trajectories(kind, params, n_traj, steps, dt, rng,
                          normalize_init=True):
    """The :func:`~symode.forecast.rollout` of the true field over ``steps``
    explicit-Euler steps from each of ``n_traj`` initial states; a state
    beyond the float range raises a NumericalError naming its step.

    Initial compartments are drawn i.i.d. uniform on (0, 1); by default
    each initial state is rescaled to sum to one, which the Euler map then
    preserves exactly. No clamping or projection is applied mid-run.
    """
    kind = ModelKind(kind)
    if n_traj < 1 or steps < 1:
        raise ValueError("n_traj and steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    init = allocate(rng.uniform, size=(n_traj, kind.dim))
    if normalize_init:
        init = init / init.sum(axis=1, keepdims=True)
    result = rollout(lambda x: vector_field(kind, params, x), init, steps, dt)
    if not result.completed:
        raise NumericalError(f"{kind.value} simulation at dt={dt}: a state "
                             f"is not finite at step {result.failure_step}")
    return TrajectoryDataset(result.states.swapaxes(0, 1), dt, kind.var_names,
                             split="full")


def train_test_split(data, train_fraction):
    """Split whole trajectories, in order, into train and test subsets; no
    trajectory straddles the boundary. The subsets are views of the input's
    array, not copies: nothing in the package writes to a trajectory."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = data.n_trajectories
    if n < 2:
        raise ValueError("need at least 2 trajectories to split")
    n_train = int(round(train_fraction * n))
    n_train = max(1, min(n - 1, n_train))
    return (
        TrajectoryDataset(data.trajectories[:n_train], data.dt,
                          data.var_names, split="train"),
        TrajectoryDataset(data.trajectories[n_train:], data.dt,
                          data.var_names, split="test"),
    )
