"""End-to-end orchestration: data -> per-component search -> rollout ->
metrics -> results document.

The results document is plain JSON and contains, per component, the
operator sequence and full-precision coefficients, so every learned
expression can be reconstructed and its recorded loss re-verified.
Documents carry no timestamps: identical configs and seeds produce
byte-identical output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import expressions as ex
from .dataio import ScaleRecord, load_csv, normalize_series
from .datasets import TrajectoryDataset
from .epidemic import generate_trajectories, train_test_split
from .errors import ConfigError, DataError, NumericalError
from .forecast import (RolloutMode, per_step_component_mse, per_step_mse,
                       persistence_baseline, rollout)
from .search import SystemModel, assemble_system, search_component

SYMBOLIC_PRECISION = 4


def _data_rng(cfg):
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))


def _component_rng(cfg, component):
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 202,
                                                         component]))


def generate_synthetic(cfg):
    """Synthetic dataset for a RunConfig (synthetic mode)."""
    return generate_trajectories(cfg.model.kind, cfg.model.epi_params(),
                                 cfg.data.n_trajectories, cfg.data.steps,
                                 cfg.data.dt, _data_rng(cfg),
                                 cfg.data.normalize_init)


def _search_all_components(data, cfg):
    search_cfg = cfg.search
    kinds = search_cfg.templates
    if not isinstance(kinds, str) and len(kinds) != data.dim:
        raise ConfigError(f"search.templates: expected {data.dim} kinds, one "
                          f"per state component, got {len(kinds)}")
    return [search_component(data, i, search_cfg, rng=_component_rng(cfg, i))
            for i in range(data.dim)]


def _component_entry(record, name, var_names):
    expr = ex.CompiledExpression(record.template, record.sequence, record.params)
    return {
        "component": record.component,
        "name": name,
        "template": record.template.kind,
        "sequence": list(record.sequence),
        "coefficients": [float(v) for v in record.params],
        "score": float(record.score),
        "loss": float(record.loss),
        "symbolic": ex.to_symbolic_string(expr, SYMBOLIC_PRECISION, var_names),
    }


def _pool_entries(outcome):
    return [{
        "sequence": list(r.sequence),
        "coefficients": [float(v) for v in r.params],
        "score": float(r.score),
        "loss": float(r.loss),
    } for r in outcome.pool.records()]


def _base_document(cfg, var_names, outcomes):
    return {
        "config_echo": cfg.to_dict(),
        "var_names": list(var_names),
        "components": [
            _component_entry(o.best, var_names[i], var_names)
            for i, o in enumerate(outcomes)
        ],
        "pool": [{"component": i, "entries": _pool_entries(o)}
                 for i, o in enumerate(outcomes)],
        "history": [{"component": i, "best_scores": [float(s) for s in o.history]}
                    for i, o in enumerate(outcomes)],
    }


def _autonomous_forecasts(system, test, steps):
    predictions = []
    for traj in test.trajectories:
        result = rollout(system, traj[0], steps, test.dt,
                         RolloutMode.AUTONOMOUS)
        if not result.completed:
            raise NumericalError(
                f"autonomous rollout diverged at step {result.failure_step}")
        predictions.append(result.states)
    return predictions


def run_synthetic(cfg):
    full = generate_synthetic(cfg)
    train, test = train_test_split(full, cfg.data.train_fraction)
    outcomes = _search_all_components(train, cfg)
    system = assemble_system([o.best for o in outcomes], train.var_names)
    steps = test.trajectories[0].shape[0] - 1
    predictions = _autonomous_forecasts(system, test, steps)
    curve = per_step_mse(predictions, test.trajectories)
    by_component = per_step_component_mse(predictions, test.trajectories)
    persistence = persistence_baseline(test.trajectories)
    doc = _base_document(cfg, train.var_names, outcomes)
    # step 0 is the shared initial condition; the reported curve starts at
    # the first predicted step
    doc["metrics"] = {
        "per_step_mse": [float(v) for v in curve[1:]],
        "per_step_mse_by_component": {
            name: [float(v) for v in by_component[1:, j]]
            for j, name in enumerate(train.var_names)
        },
        "persistence_per_step": [float(v) for v in persistence[1:]],
        "max_per_step_mse": float(curve[1:].max()),
    }
    doc["scale_record"] = {"mode": "none", "scale": 1.0}
    return doc


def _series_means(sq, var_names):
    """Column means of a (steps, d) array, keyed by variable name."""
    return {name: float(sq[:, j].mean()) for j, name in enumerate(var_names)}


def run_real(cfg):
    raw = load_csv(cfg.input_csv, dt=cfg.real_dt)
    if raw.n_trajectories != 1:
        raise DataError(f"{cfg.input_csv}: real mode expects a single series")
    series = raw.trajectories[0]
    if series.shape[0] <= cfg.train_days:
        raise DataError(
            f"{cfg.input_csv}: needs more than train_days={cfg.train_days} rows")
    normalized, scale = normalize_series(raw, cfg.normalization.mode,
                                         cfg.normalization.constant)
    values = normalized.trajectories[0]
    train = TrajectoryDataset([values[: cfg.train_days]], cfg.real_dt,
                              raw.var_names, split="train")
    outcomes = _search_all_components(train, cfg)
    system = assemble_system([o.best for o in outcomes], raw.var_names)

    # teacher-forced replay over the training window
    fitted = rollout(system, values[0], cfg.train_days - 1, cfg.real_dt,
                     RolloutMode.TEACHER_FORCED, truth=values[: cfg.train_days])
    teacher_mse = per_step_component_mse([fitted.states],
                                         [values[: cfg.train_days]])

    # autonomous forecast seeded at the last training observation
    horizon = values.shape[0] - cfg.train_days
    anchor = cfg.train_days - 1
    fc = rollout(system, values[anchor], horizon, cfg.real_dt,
                 RolloutMode.AUTONOMOUS)
    if not fc.completed:
        raise NumericalError(
            f"forecast rollout diverged at step {fc.failure_step}")
    truth_window = values[anchor:]
    forecast_sq = (fc.states[1:] - truth_window[1:]) ** 2
    persistence_sq = (truth_window[0] - truth_window[1:]) ** 2

    names = raw.var_names
    doc = _base_document(cfg, names, outcomes)
    doc["metrics"] = {
        "forecast_steps": int(horizon),
        "per_step_mse": [float(v) for v in forecast_sq.mean(axis=1)],
        "persistence_per_step": [float(v) for v in persistence_sq.mean(axis=1)],
        "forecast_mse_per_series": _series_means(forecast_sq, names),
        "persistence_mse_per_series": _series_means(persistence_sq, names),
        "teacher_forced_mse_per_series": _series_means(teacher_mse, names),
    }
    doc["scale_record"] = {"mode": scale.mode, "scale": scale.scale}
    doc["forecast"] = {
        "anchor_step": anchor,
        "values": [[float(v) for v in row * scale.scale]
                   for row in fc.states[1:]],
    }
    return doc


def run_pipeline(cfg, out_dir=None):
    """Run the configured pipeline and write the results document plus the
    plot-ready CSV files into the output directory."""
    doc = run_synthetic(cfg) if cfg.mode == "synthetic" else run_real(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    write_results(doc, out)
    return doc


# ---------------------------------------------------------------------------
# document IO


def write_results(doc, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    write_report(doc, out)
    return out / "results.json"


def write_report(doc, out_dir):
    """Emit the symbolic equations and per-step MSE CSV for a document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "equations.txt", "w", encoding="utf-8") as fh:
        for comp in doc["components"]:
            fh.write(f"d{comp['name']}/dt = {comp['symbolic']}\n")
    with open(out / "mse_per_step.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step_index", "mse"])
        for k, v in enumerate(doc["metrics"]["per_step_mse"], start=1):
            writer.writerow([k, repr(float(v))])
    if "forecast" in doc:
        with open(out / "forecast.csv", "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", *doc["var_names"]])
            anchor = doc["forecast"]["anchor_step"]
            for k, row in enumerate(doc["forecast"]["values"], start=1):
                writer.writerow([anchor + k, *[repr(float(v)) for v in row]])


def load_results(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such results document")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def system_from_document(doc):
    """Rebuild the learned system from a results document."""
    components = doc["components"]
    d = len(components)
    exprs = []
    for comp in sorted(components, key=lambda c: c["component"]):
        template = ex.build_template(comp["template"], d)
        exprs.append(ex.CompiledExpression(template, tuple(comp["sequence"]),
                                           np.array(comp["coefficients"])))
    return SystemModel(exprs, doc["var_names"])


def scale_from_document(doc):
    rec = doc.get("scale_record", {"mode": "none", "scale": 1.0})
    return ScaleRecord(rec["mode"], float(rec["scale"]))
