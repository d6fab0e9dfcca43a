"""End-to-end orchestration: data -> per-component search -> results
document -> batched forecasts of the system it describes -> metrics.

The results document is plain JSON and contains, per component, the
operator sequence and full-precision coefficients, so every learned
expression can be reconstructed and its recorded loss re-verified.
Documents carry no timestamps: identical configs and seeds produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import expressions as ex
from .dataio import load_csv, normalize_series, read_text, write_csv
from .datasets import TrajectoryDataset
from .epidemic import generate_trajectories, train_test_split
from .errors import ConfigError, DataError, NumericalError
from .forecast import (cut_forecast, per_step_component_mse, per_step_mse,
                       persistence_baseline, rollout)
from .search import SearchOutcome, SystemModel, search_component


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
    from a pickled copy.
    """
    search_cfg = cfg.search
    kinds = search_cfg.templates
    if not isinstance(kinds, str) and len(kinds) != data.dim:
        raise ConfigError(f"search.templates: expected {data.dim} kinds, one "
                          f"per state component, got {len(kinds)}")

    def search(i):
        return search_component(data, i, search_cfg, rng=_component_rng(cfg, i))

    if data.dim > 1 and hasattr(os, "fork"):
        return _in_forked_children(search, data.dim)
    return [search(i) for i in range(data.dim)]


def _in_forked_children(search, n):
    """``[search(0), ..., search(n - 1)]``, each call in its own child
    process from ``os.fork``, all started together. Each child writes its
    pickled result, or its exception, to its own pipe and ends with
    ``os._exit``, and the pipes are read in component order. The first
    failure read is raised: a child's exception with its type and message,
    or a NumericalError naming the component and its exit code when a
    child ended without a complete reply. So the failure of the
    lowest-numbered failing component is raised, whatever the order the
    failures happen in, and no component above it is awaited. Every child
    is stopped and reaped before this returns or raises, so the caller's
    children's resource usage counts the searches."""
    # a child must not write the parent's buffered text a second time
    sys.stdout.flush()
    sys.stderr.flush()
    pids, readers = [], []
    try:
        for i in range(n):
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:
                    _child_main(search, i, writer)  # never returns
            finally:
                # only the child holds the write end now, so its exit is EOF
                os.close(writer)
            pids.append(pid)
        results = []
        for i, reader in enumerate(readers):
            with open(reader, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pids[i], 0)[1]
            pids[i] = None
            if status != 0:
                raise NumericalError(
                    f"component {i}: the search process ended with exit "
                    f"code {os.waitstatus_to_exitcode(status)} and sent no "
                    f"result")
            result, error = pickle.loads(reply)
            if error is not None:
                raise _rebuild_exception(*error)
            results.append(result)
        return results
    finally:
        running = [pid for pid in pids if pid is not None]
        if running:
            import signal
            for pid in running:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
        for reader in readers:
            os.close(reader)


def _child_main(search, i, writer):
    """Run ``search(i)`` in a forked child, write the pickled reply to the
    pipe ``writer`` and end the process, whatever happens: the child never
    returns into its caller, and exits with 0 only once the whole reply is
    written (a reply that cannot be pickled exits with 1). ``os._exit``
    flushes no buffer that the child inherited."""
    status = 1
    try:
        try:
            reply = (search(i), None)
        except BaseException as exc:  # Ctrl-C too: the parent raises it
            import traceback
            reply = (None, (type(exc), exc.args, vars(exc),
                            traceback.format_exc()))
        with open(writer, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _rebuild_exception(cls, args, state, child_traceback):
    """The child's exception, rebuilt without calling ``__init__`` (the
    package's errors take other arguments than the ``args`` they store),
    with the child's formatted traceback as its cause."""
    exc = cls.__new__(cls, *args)
    # MemoryError.__new__ may revive a freed instance with empty args
    exc.args = args
    exc.__dict__.update(state)
    exc.__cause__ = RuntimeError(f"raised in a search process:\n"
                                 f"{child_traceback}")
    return exc


# When the winners' training rollout diverges, the pool systems whose
# components' ranks (0 = best) sum to at most this are tried instead: 9
# systems besides the winners for three components.
MAX_RANK_SUM = 2


def _training_error(records, truth, dt):
    """Score the system of one pool record per component by
    :func:`_score_forecast` on the training trajectories ``truth``, its
    pooled per-step MSE alone: (the step at which it diverges, None when it
    completes; its max per-step MSE against ``truth``, None when it
    diverges)."""
    result, curve = _score_forecast(
        SystemModel([ex.CompiledExpression(r.template, r.sequence, r.params)
                     for r in records]), truth, dt)
    if not result.completed:
        return result.failure_step, None
    return None, float(curve.max())


def _choose_system(outcomes, train):
    """The search outcomes with the components of the system to report as
    their ``best``, and the ``metrics.system_swap`` record when that system
    is not the winners' (None otherwise): the step at which the winners'
    training rollout diverged, and each component's pool rank by name.

    A deliberate deviation from the paper, which picks each component's
    winner alone by its one-step loss: the system those winners form is
    rolled out over the training trajectories ``train`` alone (see
    :func:`_training_error`), before any test data is read; in real mode
    that is the one series from day 0 over train_days - 1 steps. If it
    diverges, every system of pool entries whose ranks sum to at most
    MAX_RANK_SUM is rolled out too, and the one that completes with the
    lowest max per-step MSE replaces the winners; ties go to the lower rank
    sum, then to the lexicographically lower ranks. If none completes, the
    winners stay.
    """
    truth, dt = train.trajectories, train.dt
    pools = [o.pool.records() for o in outcomes]
    step, _ = _training_error([pool[0] for pool in pools], truth, dt)
    if step is None:
        return outcomes, None
    tried = []
    for ranks in np.ndindex((MAX_RANK_SUM + 1,) * len(pools)):
        if (0 < sum(ranks) <= MAX_RANK_SUM
                and all(k < len(pool) for k, pool in zip(ranks, pools))):
            _, error = _training_error(
                [pool[k] for k, pool in zip(ranks, pools)], truth, dt)
            if error is not None:
                tried.append((error, sum(ranks), ranks))
    if not tried:
        return outcomes, None
    _, _, ranks = min(tried)
    return ([SearchOutcome(pool[k], o.pool, o.history)
             for o, pool, k in zip(outcomes, pools, ranks)],
            {"train_diverged_at_step": step,
             "pool_rank": dict(zip(train.var_names, ranks))})


def _record_entry(record):
    """A scored sequence as a pool entry, and inside a component entry."""
    return {"sequence": list(record.sequence),
            "coefficients": [float(v) for v in record.params],
            "score": float(record.score), "loss": float(record.loss)}


def _component_entry(k, record, var_names):
    expr = ex.CompiledExpression(record.template, record.sequence, record.params)
    return {"component": k, "name": var_names[k],
            "template": record.template.kind, **_record_entry(record),
            "symbolic": ex.to_symbolic_string(expr, var_names=var_names)}


def _base_document(cfg, var_names, outcomes):
    return {
        "config_echo": cfg.to_dict(),
        "var_names": list(var_names),
        "components": [_component_entry(i, o.best, var_names)
                       for i, o in enumerate(outcomes)],
        "pool": [{"component": i,
                  "entries": [_record_entry(r) for r in o.pool.records()]}
                 for i, o in enumerate(outcomes)],
        "history": [{"component": i, "best_scores": [float(s) for s in o.history]}
                    for i, o in enumerate(outcomes)],
    }


def _score_forecast(system, truth, dt, by_component=False, scale=None):
    """Roll ``system`` out from the first state of each trajectory of
    ``truth`` (n, T, d) over T - 1 steps and score it in fitted units: the
    rollout and its per-step MSE, then, where asked for, its per-step MSE
    per component and its states times ``scale``, all cut by
    ``cut_forecast`` (an error beyond the float range is a divergence).
    Row 0 of each is the initial state."""
    result = rollout(system, truth[:, 0], truth.shape[1] - 1, dt)
    # (step, trajectory, d) -> (trajectory, step, d); a diverged rollout
    # keeps the steps that every trajectory completed
    predicted = result.states.swapaxes(0, 1)
    completed = truth[:, : predicted.shape[1]]
    scored = [per_step_mse(predicted, completed)]
    if by_component:
        scored.append(per_step_component_mse(predicted, completed))
    if scale is not None:
        with np.errstate(over="ignore"):
            scored.append(result.states * scale)
    return cut_forecast(result, *scored)


def run_synthetic(cfg):
    full = generate_synthetic(cfg)
    train, test = train_test_split(full, cfg.data.train_fraction)
    outcomes, swap = _choose_system(_search_all_components(train, cfg), train)
    doc = _base_document(cfg, train.var_names, outcomes)
    truth = test.trajectories
    result, curve, by_component = _score_forecast(
        system_from_document(doc), truth, test.dt, by_component=True)
    # the reported curves start at the first predicted step
    metrics = doc["metrics"] = {
        "per_step_mse": [float(v) for v in curve[1:]],
        "per_step_mse_by_component": {
            name: [float(v) for v in by_component[1:, j]]
            for j, name in enumerate(train.var_names)
        },
        "persistence_per_step": [float(v)
                                 for v in persistence_baseline(truth)[1:]],
    }
    if result.completed:
        metrics["max_per_step_mse"] = float(curve[1:].max())
    else:
        metrics["diverged_at_step"] = result.failure_step
    if swap is not None:
        metrics["system_swap"] = swap
    doc["scale_record"] = {"mode": "none", "scale": 1.0}
    return doc


def _series_means(sq, var_names):
    """Column means of a (steps, d) array's rows after row 0, by name."""
    return {name: float(sq[1:, j].mean()) for j, name in enumerate(var_names)}


def run_real(cfg):
    raw = load_csv(cfg.input_csv, dt=cfg.real_dt)
    if raw.n_trajectories != 1:
        raise DataError(f"{cfg.input_csv}: real mode expects a single series")
    days = raw.trajectories.shape[1]
    if days <= cfg.train_days:
        raise DataError(
            f"{cfg.input_csv}: needs more than train_days={cfg.train_days} rows")
    try:
        normalized, scale = normalize_series(raw, cfg.normalization.mode,
                                             cfg.normalization.constant)
    except ValueError as exc:  # a series whose scale is 0 or beyond range
        raise DataError(f"{cfg.input_csv}: {exc}") from None
    values = normalized.trajectories
    names = raw.var_names
    train = TrajectoryDataset(values[:, : cfg.train_days], cfg.real_dt, names,
                              split="train")
    outcomes, swap = _choose_system(_search_all_components(train, cfg), train)
    doc = _base_document(cfg, names, outcomes)

    # autonomous forecast of the one series from the last training day on
    anchor = cfg.train_days - 1
    truth = values[:, anchor:]
    fc, curve, by_component, restored = _score_forecast(
        system_from_document(doc), truth, cfg.real_dt, by_component=True,
        scale=scale)
    metrics = doc["metrics"] = {
        "forecast_steps": days - cfg.train_days,
        "per_step_mse": [float(v) for v in curve[1:]],
        "persistence_per_step": [float(v)
                                 for v in persistence_baseline(truth)[1:]],
    }
    # a diverged forecast has no mean to compare with persistence
    if fc.completed:
        metrics["forecast_mse_per_series"] = _series_means(by_component, names)
    still = np.broadcast_to(truth[:, :1], truth.shape)
    metrics["persistence_mse_per_series"] = _series_means(
        per_step_component_mse(still, truth), names)
    # each fit's loss is its one-step Euler MSE on the training pairs
    metrics["teacher_forced_mse_per_series"] = {
        comp["name"]: comp["loss"] for comp in doc["components"]}
    if not fc.completed:
        metrics["diverged_at_step"] = fc.failure_step
    if swap is not None:
        metrics["system_swap"] = swap
    doc["scale_record"] = {"mode": cfg.normalization.mode, "scale": scale}
    doc["forecast"] = {
        "anchor_step": anchor,
        "values": [[float(v) for v in row] for row in restored[1:, 0]],
    }
    return doc


def run_pipeline(cfg, out_dir=None):
    """Run the configured pipeline and write the results document plus the
    plot-ready CSV files into the output directory. A forecast that
    diverged is written like any other, and then raised as a
    NumericalError naming its ``diverged_at_step``."""
    synthetic = cfg.mode == "synthetic"
    doc = run_synthetic(cfg) if synthetic else run_real(cfg)
    write_results(doc, out_dir if out_dir is not None else cfg.output_dir)
    step = doc["metrics"].get("diverged_at_step")
    if step is not None:
        what = "autonomous rollout" if synthetic else "forecast rollout"
        raise NumericalError(f"{what} diverged at step {step}")
    return doc


# ---------------------------------------------------------------------------
# document IO


RESULTS_FILE = "results.json"


def report_files(real):
    """The files ``write_report`` writes, in order: the equations, the
    per-step MSE and, for a real-mode document, the forecast."""
    return ("equations.txt", "mse_per_step.csv",
            *(("forecast.csv",) if real else ()))


def write_results(doc, out_dir):
    """Write the results document and its report files, making ``out_dir``."""
    path = Path(out_dir) / RESULTS_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")
    write_report(doc, path.parent)
    return path


def equations(doc):
    """The text of one ``d<name>/dt = <symbolic>`` line per component."""
    return "".join(f"d{comp['name']}/dt = {comp['symbolic']}\n"
                   for comp in doc["components"])


def write_report(doc, out_dir):
    """Emit the symbolic equations, the per-step MSE CSV and a real-mode
    forecast's CSV of a document into an existing directory."""
    eqs, mse, *forecast = (Path(out_dir) / name
                           for name in report_files("forecast" in doc))
    eqs.write_text(equations(doc), encoding="utf-8")
    write_csv(mse, ["step_index", "mse"],
              enumerate(([v] for v in doc["metrics"]["per_step_mse"]),
                        start=1))
    for path in forecast:
        write_csv(path, ["step", *doc["var_names"]],
                  enumerate(doc["forecast"]["values"],
                            start=doc["forecast"]["anchor_step"] + 1))


# The keys that ``forecast`` and ``report`` read in each section of a
# results document (``config_echo`` is read by ``dt_from_document``);
# ``scale_record`` and ``forecast`` are optional sections.
_RESULTS_FIELDS = {
    "metrics": ("per_step_mse",),
    "scale_record": ("scale",),
    "forecast": ("anchor_step", "values"),
}
_COMPONENT_FIELDS = ("component", "name", "template", "sequence",
                     "coefficients", "symbolic")


def _check_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}expected an object")
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
    for k, comp in enumerate(doc["components"]):
        for key in ("name", "symbolic"):
            if not isinstance(comp[key], str):
                raise ValueError(f"components[{k}].{key}: expected a string")
        if comp["name"] != names[k]:
            raise ValueError(f"components[{k}].name: expected {names[k]!r}")
        coefficients = comp["coefficients"]
        if not (isinstance(coefficients, list)
                and all(map(_is_number, coefficients))):
            raise ValueError(f"components[{k}].coefficients: expected a "
                             "list of numbers")
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


def _finite(parse):
    """A JSON number parser that rejects a ``NaN``/``Infinity`` token and a
    literal beyond the float range with a ValueError."""
    def checked(text):
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {float(text)}")
        return parse(text)
    return checked


def load_results(path):
    """Read a results document. A file that is not strict JSON or not a JSON
    object, lacks a field that ``forecast`` or ``report`` reads, holds a
    value of the wrong type there, lists a component out of its index order
    or under a name other than its ``var_names`` entry, holds a component
    the system cannot be rebuilt from or a scale that is not positive ends
    in a DataError naming the file."""
    path = Path(path)
    text = read_text(path, DataError, "results document")
    try:
        doc = json.loads(text, parse_float=_finite(float),
                         parse_int=_finite(int), parse_constant=_finite(float))
    except ValueError as exc:
        raise DataError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top-level value is not a JSON object")
    try:
        _check_keys(doc, ("config_echo", "var_names", "components",
                          "metrics"), "")
        for section, keys in _RESULTS_FIELDS.items():
            if section in doc:
                _check_keys(doc[section], keys, f"{section}: ")
        if not (isinstance(doc["components"], list) and doc["components"]):
            raise ValueError("components: expected a non-empty list")
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
    """The factor that takes the system's states to the data's units."""
    scale = doc.get("scale_record", {"scale": 1.0})["scale"]
    if not (_is_number(scale) and 0 < scale < math.inf):
        raise ValueError("scale_record.scale: expected a positive number")
    return float(scale)


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
