"""Command-line interface.

Subcommands: ``generate`` (write synthetic trajectory CSV), ``search``
(run the full pipeline), ``forecast`` (roll a saved system forward from
new data), ``report`` (re-emit equations and MSE CSV from a results
document). Exit codes: 0 success, 2 config error, 3 data error, 4
numerical failure, running out of memory included.
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
from .pipeline import (dt_from_document, equations, generate_synthetic,
                       load_results, run_pipeline, scale_from_document,
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
    cfg = run_config_from_dict(doc)
    _check_out_dir(cfg.output_dir, "output_dir")
    return cfg


def _check_out_dir(path, name):
    """Raise a ConfigError naming ``name`` unless ``path`` is a directory,
    or does not exist and its nearest existing ancestor is a directory, so
    that the writers can make it. Creates nothing."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents)
                    if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"{name}: {existing} is not a directory")


def _cmd_generate(args):
    cfg = _load_config(args)
    if cfg.mode != "synthetic":
        raise ConfigError("generate requires a synthetic-mode config")
    data = generate_synthetic(cfg)
    path = save_trajectories_csv(Path(cfg.output_dir) / "trajectories.csv",
                                 data)
    print(f"wrote {data.n_trajectories} trajectories to {path}")


def _cmd_search(args):
    cfg = _load_config(args)
    doc = run_pipeline(cfg)
    print(f"wrote results to {Path(cfg.output_dir) / 'results.json'}")
    print(equations(doc), end="")


def _cmd_forecast(args):
    if args.steps < 1:
        raise ConfigError("--steps: must be >= 1")
    _check_out_dir(args.out, "--out")
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
        values = data.trajectories[0] / scale.scale
        if args.mode == "teacher":
            result = RolloutResult(replay(system, values, data.dt), True)
            anchor = 0
        else:
            result = rollout(system, values[-1], args.steps, data.dt)
            anchor = values.shape[0] - 1
        restored = result.states * scale.scale
    result, restored = cut_forecast(result, restored)
    if not result.completed:
        raise NumericalError(f"rollout diverged at step {result.failure_step}")
    path = write_csv(Path(args.out) / "predictions.csv",
                     ["step", *doc["var_names"]],
                     enumerate(restored, start=anchor))
    print(f"wrote {path}")


def _cmd_report(args):
    out = args.out if args.out else Path(args.results).parent
    _check_out_dir(out, "--out" if args.out else "--results")
    write_report(load_results(args.results), out)
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
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
