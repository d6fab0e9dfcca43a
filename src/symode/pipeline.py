"""End-to-end orchestration: data -> per-component search -> results
document -> batched forecasts of the system it describes -> metrics.

The results document is plain JSON and contains, per component, the
operator sequence and full-precision coefficients, so every learned
expression can be reconstructed and its recorded loss re-verified.
Documents carry no timestamps: identical configs and seeds produce
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import expressions as ex
from .dataio import ScaleRecord, load_csv, normalize_series
from .datasets import TrajectoryDataset
from .epidemic import generate_trajectories, train_test_split
from .errors import (ConfigError, DataError, ForecastDivergedError,
                     NumericalError)
from .forecast import (RolloutResult, per_step_component_mse, per_step_mse,
                       persistence_baseline, replay, rollout)
from .search import SystemModel, search_component

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
    """The search outcome of every state component, in component order.

    Each component's search has its own data column and random stream, so
    with more than one component, where the platform can fork, every
    search runs in its own child process and all of them at the same time.
    A child reads ``data`` and ``cfg`` from the memory it inherits, never
    from a pickled copy: a copy would lose the arrays' memory layout and
    with it the last bits of the fitted losses.
    """
    search_cfg = cfg.search
    kinds = search_cfg.templates
    if not isinstance(kinds, str) and len(kinds) != data.dim:
        raise ConfigError(f"search.templates: expected {data.dim} kinds, one "
                          f"per state component, got {len(kinds)}")

    def search(i):
        return search_component(data, i, search_cfg, rng=_component_rng(cfg, i))

    if data.dim > 1:
        # imported here, so that commands which never search do not pay it
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _in_forked_children(search, data.dim,
                                       multiprocessing.get_context("fork"))
    return [search(i) for i in range(data.dim)]


def _in_forked_children(search, n, ctx):
    """``[search(0), ..., search(n - 1)]``, each call in its own forked
    child process, all started together. Each child sends its result, or
    its exception, back through a one-way pipe. The first failure is raised
    here: a child's exception with its type and message, or a
    NumericalError when a child ended without sending anything. Every child
    is stopped and reaped before this returns or raises."""
    from multiprocessing.connection import wait

    children, pending = [], {}
    try:
        for i in range(n):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child_main, args=(search, i, writer))
            child.start()
            # only the child holds the write end now, so its exit is EOF
            writer.close()
            children.append(child)
            pending[reader] = i
        results = [None] * n
        while pending:
            for reader in wait(list(pending)):
                i = pending.pop(reader)
                try:
                    result, error = reader.recv()
                except EOFError:
                    children[i].join()
                    raise NumericalError(
                        f"component {i}: the search process ended with exit "
                        f"code {children[i].exitcode} and sent no result"
                    ) from None
                finally:
                    reader.close()
                if error is not None:
                    raise _rebuild_exception(*error)
                results[i] = result
        for child in children:
            child.join()
        return results
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
            child.join()
        for reader in pending:
            reader.close()


def _child_main(search, i, writer):
    try:
        reply = (search(i), None)
    except BaseException as exc:  # Ctrl-C too: the parent raises it
        import traceback
        reply = (None, (type(exc), exc.args, vars(exc),
                        traceback.format_exc()))
    writer.send(reply)


def _rebuild_exception(cls, args, state, child_traceback):
    """The child's exception, rebuilt without calling ``__init__`` (the
    package's errors take other arguments than the ``args`` they store),
    with the child's formatted traceback as its cause."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    exc.__cause__ = RuntimeError(f"raised in a search process:\n"
                                 f"{child_traceback}")
    return exc


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


def _cut_at_overflow(result, errors):
    """The rollout ``result`` cut before the first step whose row of
    ``errors`` is not finite, and reported as diverged there, as a step
    with a non-finite state is: JSON has no number for the error of a
    forecast that left the float range."""
    finite = np.isfinite(errors).all(axis=1)
    if finite.all():
        return result
    step = int(np.argmin(finite))
    return RolloutResult(result.states[:step], False, step)


def _raise_if_diverged(doc, result, what):
    """Record a forecast that did not complete in the document, then raise
    with the document attached, so that the finished search still gets
    written."""
    if not result.completed:
        doc["metrics"]["diverged_at_step"] = result.failure_step
        raise ForecastDivergedError(
            f"{what} diverged at step {result.failure_step}", doc)


def run_synthetic(cfg):
    full = generate_synthetic(cfg)
    train, test = train_test_split(full, cfg.data.train_fraction)
    doc = _base_document(cfg, train.var_names,
                         _search_all_components(train, cfg))
    truth = np.stack(test.trajectories)
    result = rollout(system_from_document(doc), truth[:, 0],
                     truth.shape[1] - 1, test.dt)
    # (step, trajectory, d) -> (trajectory, step, d); a diverged rollout
    # keeps the steps that every trajectory completed
    predicted = result.states.swapaxes(0, 1)
    completed = truth[:, : predicted.shape[1]]
    curve = per_step_mse(predicted, completed)
    by_component = per_step_component_mse(predicted, completed)
    result = _cut_at_overflow(result, np.column_stack([curve, by_component]))
    curve = curve[: result.states.shape[0]]
    by_component = by_component[: result.states.shape[0]]
    persistence = persistence_baseline(truth)
    # step 0 is the shared initial condition; the reported curve starts at
    # the first predicted step
    metrics = doc["metrics"] = {
        "per_step_mse": [float(v) for v in curve[1:]],
        "per_step_mse_by_component": {
            name: [float(v) for v in by_component[1:, j]]
            for j, name in enumerate(train.var_names)
        },
        "persistence_per_step": [float(v) for v in persistence[1:]],
    }
    if result.completed:
        metrics["max_per_step_mse"] = float(curve[1:].max())
    doc["scale_record"] = {"mode": "none", "scale": 1.0}
    _raise_if_diverged(doc, result, "autonomous rollout")
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
    try:
        normalized, scale = normalize_series(raw, cfg.normalization.mode,
                                             cfg.normalization.constant)
    except ValueError as exc:  # a series whose scale is 0 or beyond range
        raise DataError(f"{cfg.input_csv}: {exc}") from None
    values = normalized.trajectories[0]
    names = raw.var_names
    train_window = values[: cfg.train_days]
    train = TrajectoryDataset([train_window], cfg.real_dt, names,
                              split="train")
    doc = _base_document(cfg, names, _search_all_components(train, cfg))
    system = system_from_document(doc)

    teacher_sq = (replay(system, train_window, cfg.real_dt) - train_window) ** 2

    # autonomous forecast seeded at the last training observation
    horizon = values.shape[0] - cfg.train_days
    anchor = cfg.train_days - 1
    fc = rollout(system, values[anchor], horizon, cfg.real_dt)
    truth_window = values[anchor: anchor + fc.states.shape[0]]
    with np.errstate(over="ignore"):
        sq = (fc.states - truth_window) ** 2
        step_mse = sq.mean(axis=1)
        restored = fc.states * scale.scale
    fc = _cut_at_overflow(fc, np.column_stack([step_mse, restored]))
    kept = fc.states.shape[0]
    forecast_sq = sq[1:kept]
    persistence_sq = (values[anchor] - values[anchor + 1:]) ** 2

    metrics = doc["metrics"] = {
        "forecast_steps": int(horizon),
        "per_step_mse": [float(v) for v in step_mse[1:kept]],
        "persistence_per_step": [float(v) for v in persistence_sq.mean(axis=1)],
    }
    # a diverged forecast has no mean to compare with persistence
    if fc.completed:
        metrics["forecast_mse_per_series"] = _series_means(forecast_sq, names)
    metrics["persistence_mse_per_series"] = _series_means(persistence_sq, names)
    metrics["teacher_forced_mse_per_series"] = _series_means(teacher_sq, names)
    doc["scale_record"] = {"mode": scale.mode, "scale": scale.scale}
    doc["forecast"] = {
        "anchor_step": anchor,
        "values": [[float(v) for v in row] for row in restored[1:kept]],
    }
    _raise_if_diverged(doc, fc, "forecast rollout")
    return doc


def run_pipeline(cfg, out_dir=None):
    """Run the configured pipeline and write the results document plus the
    plot-ready CSV files into the output directory. A forecast that
    diverges still writes the document, with the failing step recorded,
    before its error is raised."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    try:
        doc = run_synthetic(cfg) if cfg.mode == "synthetic" else run_real(cfg)
    except ForecastDivergedError as exc:
        write_results(exc.document, out)
        raise
    write_results(doc, out)
    return doc


# ---------------------------------------------------------------------------
# document IO


def write_results(doc, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
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


# The keys that ``forecast`` and ``report`` read in each section of a
# results document (``config_echo`` is read by ``dt_from_document``);
# ``scale_record`` and ``forecast`` are optional sections.
_RESULTS_FIELDS = {
    "metrics": ("per_step_mse",),
    "scale_record": ("mode", "scale"),
    "forecast": ("anchor_step", "values"),
}
_COMPONENT_FIELDS = ("component", "name", "template", "sequence",
                     "coefficients", "symbolic")


def _check_keys(obj, keys, where):
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}missing field {key!r}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_values(doc):
    """The types of the values ``forecast`` and ``report`` read."""
    names, d = doc["var_names"], len(doc["components"])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(names) == len(set(names)) == d):
        raise ValueError(f"var_names: expected a list of {d} distinct strings")
    mse = doc["metrics"]["per_step_mse"]
    if not isinstance(mse, list) or not all(map(_is_number, mse)):
        raise ValueError("metrics.per_step_mse: expected a list of numbers")
    if "forecast" not in doc:
        return
    anchor, rows = doc["forecast"]["anchor_step"], doc["forecast"]["values"]
    if not _is_int(anchor):
        raise ValueError("forecast.anchor_step: expected an int")
    width = len(doc["var_names"])
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width
            and all(map(_is_number, row)) for row in rows):
        raise ValueError(f"forecast.values: expected a list of rows of "
                         f"{width} numbers")


def load_results(path):
    """Read a results document. A file that is not a JSON object, lacks a
    field that ``forecast`` or ``report`` reads, holds a value of the wrong
    type there, lists a component out of its index order, or holds a
    component the system cannot be rebuilt from ends in a DataError naming
    the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such results document")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top-level value is not a JSON object")
    try:
        _check_keys(doc, ("config_echo", "var_names", "components",
                          "metrics"), "")
        for section, keys in _RESULTS_FIELDS.items():
            if section in doc:
                _check_keys(doc[section], keys, f"{section}: ")
        for k, comp in enumerate(doc["components"]):
            _check_keys(comp, _COMPONENT_FIELDS, f"components[{k}]: ")
            if not (_is_int(comp["component"]) and comp["component"] == k):
                raise ValueError(f"components[{k}].component: expected {k}")
        _check_values(doc)
        system_from_document(doc)
        scale_from_document(doc)
        dt_from_document(doc)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return doc


def system_from_document(doc):
    """Rebuild the learned system from a results document; a component it
    cannot rebuild raises ValueError naming its place in the list."""
    d = len(doc["components"])
    exprs = []
    for k, comp in enumerate(doc["components"]):
        try:
            template = ex.build_template(comp["template"], d)
            exprs.append(ex.CompiledExpression(template,
                                               tuple(comp["sequence"]),
                                               np.array(comp["coefficients"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"components[{k}]: {exc}") from None
    return SystemModel(exprs)


def scale_from_document(doc):
    rec = doc.get("scale_record", {"mode": "none", "scale": 1.0})
    return ScaleRecord(rec["mode"], float(rec["scale"]))


def dt_from_document(doc):
    """The time step the system was fitted at: ``config_echo.data.dt`` in
    synthetic mode, ``config_echo.dt`` in real mode."""
    echo = doc["config_echo"]
    synthetic = isinstance(echo, dict) and echo.get("mode") == "synthetic"
    try:
        dt = echo["data"]["dt"] if synthetic else echo["dt"]
    except (KeyError, TypeError):
        dt = None
    if not (_is_number(dt) and 0 < dt < math.inf):
        field = "config_echo.data.dt" if synthetic else "config_echo.dt"
        raise ValueError(f"{field}: expected a positive number")
    return float(dt)
