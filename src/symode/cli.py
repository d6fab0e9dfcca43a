"""Command-line interface.

Subcommands: ``generate`` (write synthetic trajectory CSV), ``search``
(run the full pipeline), ``forecast`` (roll a saved system forward from
new data), ``report`` (re-emit equations and MSE CSV from a results
document). Exit codes: 0 success, 2 config error, 3 data error, 4
numerical failure, running out of memory included, 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_run_config, run_config_from_dict
from .dataio import load_csv, save_trajectories_csv, write_csv
from .errors import ConfigError, DataError, NumericalError
from .forecast import RolloutResult, cut_forecast, replay, rollout
from .pipeline import (RESULTS_FILE, dt_from_document, equations,
                       generate_synthetic, load_results, report_files,
                       run_pipeline, scale_from_document,
                       system_from_document, write_report)


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="symode",
        description="Recover symbolic ODE right-hand sides from trajectory data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic trajectory CSV")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", help="output directory override")
    gen.add_argument("--seed", type=int)

    search = sub.add_parser("search", help="run the full fit/forecast pipeline")
    search.add_argument("--config", required=True)
    search.add_argument("--out", help="output directory override")
    search.add_argument("--seed", type=int)
    search.add_argument("--epochs", type=int)

    fc = sub.add_parser("forecast", help="roll a saved system forward")
    fc.add_argument("--results", required=True)
    fc.add_argument("--data", required=True,
                    help="CSV providing the anchor state (and, in teacher "
                         "mode, the series replayed one step at a time)")
    fc.add_argument("--steps", type=int, default=15)
    fc.add_argument("--mode", choices=["autonomous", "teacher"],
                    default="autonomous")
    fc.add_argument("--out", default=".")

    rep = sub.add_parser("report", help="emit equations and MSE CSV")
    rep.add_argument("--results", required=True)
    rep.add_argument("--out")
    return parser


def _load_config(args):
    """The config file with the command-line overrides applied as file keys,
    so they pass the same validation."""
    doc = load_run_config(args.config).to_dict()
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "out", None):
        doc["output_dir"] = args.out
    if getattr(args, "epochs", None) is not None:
        doc["search"]["epochs"] = args.epochs
    return run_config_from_dict(doc)


def _check_out(path, name, files):
    """The paths of ``files`` in the output directory ``path``. Raises a
    ConfigError naming ``name`` when ``path``, or its nearest existing
    ancestor if it does not exist, is not a directory, or when one of those
    paths is a directory: the writers could not make or write them then.
    Creates nothing."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents)
                    if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"{name}: {existing} is not a directory")
    paths = [path / file for file in files]
    for file in paths:
        if file.is_dir():
            raise ConfigError(f"{name}: {file} is a directory")
    return paths


def _cmd_generate(args):
    cfg = _load_config(args)
    path, = _check_out(cfg.output_dir, "output_dir", ["trajectories.csv"])
    if cfg.mode != "synthetic":
        raise ConfigError("generate requires a synthetic-mode config")
    data = generate_synthetic(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_trajectories_csv(path, data)
    print(f"wrote {data.n_trajectories} trajectories to {path}")


def _cmd_search(args):
    cfg = _load_config(args)
    results, *_ = _check_out(cfg.output_dir, "output_dir",
                             [RESULTS_FILE, *report_files(cfg.mode == "real")])
    doc = run_pipeline(cfg)
    print(f"wrote results to {results}")
    print(equations(doc), end="")


def _cmd_forecast(args):
    if args.steps < 1:
        raise ConfigError("--steps: must be >= 1")
    path, = _check_out(args.out, "--out", ["predictions.csv"])
    doc = load_results(args.results)
    system = system_from_document(doc)
    scale = scale_from_document(doc)
    # step at the dt the system was fitted at
    data = load_csv(args.data, dt_from_document(doc),
                    expected_columns=doc["var_names"])
    if data.n_trajectories != 1:
        raise DataError(f"{args.data}: forecast expects a single series, "
                        f"got {data.n_trajectories} trajectories")
    # step in the units the system was fitted in, write in the data's units;
    # a value that leaves the float range on the way is cut, not warned about
    with np.errstate(over="ignore"):
        values = data.trajectories[0] / scale
        if args.mode == "teacher":
            result = RolloutResult(replay(system, values, data.dt), True)
            anchor = 0
        else:
            result = rollout(system, values[-1], args.steps, data.dt)
            anchor = values.shape[0] - 1
        restored = result.states * scale
    result, restored = cut_forecast(result, restored)
    if not result.completed:
        raise NumericalError(f"rollout diverged at step {result.failure_step}")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, ["step", *doc["var_names"]],
              enumerate(restored, start=anchor))
    print(f"wrote {path}")


def _cmd_report(args):
    # which files a report writes follows from the document, read after
    # its directory is checked
    out = args.out if args.out else Path(args.results).parent
    name = "--out" if args.out else "--results"
    _check_out(out, name, [])
    doc = load_results(args.results)
    _check_out(out, name, report_files("forecast" in doc))
    Path(out).mkdir(parents=True, exist_ok=True)
    write_report(doc, out)
    print(f"wrote report files to {out}")


def main(argv=None):
    args = _make_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "search": _cmd_search,
        "forecast": _cmd_forecast,
        "report": _cmd_report,
    }
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:  # Ctrl-C: the status a shell gives SIGINT
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
