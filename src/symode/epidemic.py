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
from .errors import NumericalError


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
    """Rate constants used throughout the synthetic experiments; sigma is
    model dependent (0.6 for SEIR, 0.5 for SEIRD)."""
    kind = ModelKind(kind)
    sigma = 0.5 if kind is ModelKind.SEIRD else 0.6
    return EpiParams(beta=0.9, gamma=0.2, mu=0.3, sigma=sigma, nu_rate=0.2,
                     delta=0.05, n_pop=1.0)


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
    """Simulate ``n_traj`` trajectories of ``steps`` explicit-Euler steps.

    Initial compartments are drawn i.i.d. uniform on (0, 1); by default
    each initial state is rescaled to sum to one, which the Euler map then
    preserves exactly. No clamping or projection is applied mid-run.
    """
    kind = ModelKind(kind)
    if n_traj < 1 or steps < 1:
        raise ValueError("n_traj and steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    init = rng.uniform(0.0, 1.0, size=(n_traj, kind.dim))
    if normalize_init:
        init = init / init.sum(axis=1, keepdims=True)
    states = np.empty((steps + 1, n_traj, kind.dim))
    states[0] = init
    # overflow is reported below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            states[s + 1] = states[s] + dt * vector_field(kind, params,
                                                          states[s])
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"{kind.value} simulation at dt={dt}: a state "
                             f"is not finite at step {int(np.argmin(finite))}")
    trajectories = [states[:, i, :].copy() for i in range(n_traj)]
    return TrajectoryDataset(trajectories, dt, kind.var_names, split="full")


def train_test_split(data, train_fraction):
    """Split whole trajectories, in order, into train and test subsets; no
    trajectory straddles the boundary."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = data.n_trajectories
    if n < 2:
        raise ValueError("need at least 2 trajectories to split")
    n_train = int(round(train_fraction * n))
    n_train = max(1, min(n - 1, n_train))
    train = [t.copy() for t in data.trajectories[:n_train]]
    test = [t.copy() for t in data.trajectories[n_train:]]
    return (
        TrajectoryDataset(train, data.dt, data.var_names, split="train"),
        TrajectoryDataset(test, data.dt, data.var_names, split="test"),
    )
