"""Workload definitions: the run configuration each workload builds from
its seed, and the protocol gate its results document must pass.

Every workload is closed-loop: one operation at a time, each in a fresh
worker process, one search at a time inside it. The reasons for each
choice are in README.md next to this file.
"""

from __future__ import annotations

# The bundled real series; the real protocol trains on 85 days and
# forecasts 15.
REAL_CSV = "data/covid_qdr_sample.csv"
# The configuration's own output directory. It is echoed into results.json,
# so it is the same for every operation; the worker passes each operation's
# real directory to ``run_pipeline`` instead.
OUTPUT_DIR = "results/perfbench"

_SEARCH = {"batch_size": 10, "pool_capacity": 10, "nu": 0.2, "epsilon": 0.1,
           "controller_lr": 0.002}


def _synthetic(n_trajectories, templates, epochs):
    def build(seed):
        return {
            "mode": "synthetic",
            "seed": seed,
            "output_dir": OUTPUT_DIR,
            "model": {"kind": "sir"},
            "data": {"n_trajectories": n_trajectories, "steps": 250, "dt": 0.2,
                     "train_fraction": 0.5, "normalize_init": True},
            "search": dict(_SEARCH, epochs=epochs, templates=templates),
        }
    return build


def _real(epochs):
    def build(seed):
        return {
            "mode": "real",
            "seed": seed,
            "output_dir": OUTPUT_DIR,
            "input_csv": REAL_CSV,
            "train_days": 85,
            "dt": 1.0,
            "normalization": {"mode": "by_max_total"},
            "search": dict(_SEARCH, epochs=epochs, templates="type2"),
        }
    return build


def forecast_wins(doc):
    """Series whose autonomous forecast beats persistence (real mode)."""
    metrics = doc["metrics"]
    fc = metrics["forecast_mse_per_series"]
    base = metrics["persistence_mse_per_series"]
    return sum(1 for name in fc if fc[name] < base[name])


def _gate_sir_desk(doc):
    """Acceptance criterion 1: max per-step MSE <= 1e-5. (Its other half, a
    rollout over all 250 steps, needs no check here: the pipeline raises
    when an autonomous rollout does not complete.)"""
    worst = doc["metrics"]["max_per_step_mse"]
    return [] if worst <= 1e-5 else [f"max_per_step_mse {worst!r} > 1e-5"]


def _gate_qdr_real(doc):
    """Acceptance criterion 9: three non-empty equations, a 15-step forecast,
    and a forecast that beats persistence on at least two series."""
    problems = []
    equations = [c["symbolic"] for c in doc["components"] if c["symbolic"].strip()]
    if len(equations) != 3:
        problems.append(f"{len(equations)} non-empty equations, expected 3")
    if doc["metrics"]["forecast_steps"] != 15:
        problems.append(f"forecast_steps {doc['metrics']['forecast_steps']}, expected 15")
    wins = forecast_wins(doc)
    if wins < 2:
        problems.append(f"forecast beats persistence on {wins} series, expected >= 2")
    return problems


def _no_gate(doc):
    """No protocol bound applies; the operation is checked by loss
    re-verification and by the pipeline not raising."""
    return []


class Workload:
    """``op_seconds`` is the mean wall time of one operation, worker start
    included, on the machine that defined the benchmark (2 cores,
    OpenBLAS). It only sizes a run: a run of ``--seconds`` s performs
    ``operations(seconds)`` operations, the same number on every commit, so
    two commits always do the same work."""

    def __init__(self, name, build, gate, op_seconds):
        self.name = name
        self.build = build
        self.gate = gate
        self.op_seconds = op_seconds

    def operations(self, seconds):
        return max(1, int(seconds // self.op_seconds))


WORKLOADS = {w.name: w for w in (
    Workload("sir_desk", _synthetic(40, "type2", epochs=12), _gate_sir_desk,
             op_seconds=26.0),
    Workload("qdr_real", _real(epochs=25), _gate_qdr_real, op_seconds=26.0),
    Workload("sir_type1", _synthetic(10, "type1", epochs=10), _no_gate,
             op_seconds=24.0),
)}
