"""Command-line interface.

Subcommands: ``generate`` (write synthetic trajectory CSV), ``search``
(run the full pipeline), ``forecast`` (roll a saved system forward from
new data), ``report`` (re-emit equations and MSE CSV from a results
document). Exit codes: 0 success, 2 config error, 3 data error, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import load_run_config, run_config_from_dict
from .dataio import load_csv, save_trajectories_csv
from .errors import (ConfigError, DataError, EvaluationError,
                     NonFiniteLossError, NumericalError)
from .forecast import RolloutMode, rollout
from .pipeline import (generate_synthetic, load_results, run_pipeline,
                       scale_from_document, system_from_document,
                       write_report)


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
                    help="CSV providing the anchor state (and truth for "
                         "teacher-forced mode)")
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


def _cmd_generate(args):
    cfg = _load_config(args)
    if cfg.mode != "synthetic":
        raise ConfigError("generate requires a synthetic-mode config")
    data = generate_synthetic(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = save_trajectories_csv(out / "trajectories.csv", data)
    print(f"wrote {data.n_trajectories} trajectories to {path}")


def _cmd_search(args):
    cfg = _load_config(args)
    doc = run_pipeline(cfg)
    print(f"wrote results to {Path(cfg.output_dir) / 'results.json'}")
    for comp in doc["components"]:
        print(f"d{comp['name']}/dt = {comp['symbolic']}")


def _cmd_forecast(args):
    doc = load_results(args.results)
    system = system_from_document(doc)
    scale = scale_from_document(doc)
    data = load_csv(args.data, expected_columns=doc["var_names"])
    series = data.trajectories[0]
    # work in the units the system was fitted in
    values = series / scale.scale
    if args.mode == "teacher":
        steps = values.shape[0] - 1
        result = rollout(system, values[0], steps, data.dt,
                         RolloutMode.TEACHER_FORCED, truth=values)
        anchor = 0
    else:
        result = rollout(system, values[-1], args.steps, data.dt,
                         RolloutMode.AUTONOMOUS)
        anchor = values.shape[0] - 1
    if not result.completed:
        raise NumericalError(
            f"rollout diverged at step {result.failure_step}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "predictions.csv"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", *doc["var_names"]])
        for k, row in enumerate(result.states):
            restored = np.asarray(row) * scale.scale
            writer.writerow([anchor + k, *[repr(float(v)) for v in restored]])
    print(f"wrote {path}")


def _cmd_report(args):
    doc = load_results(args.results)
    out = args.out if args.out else Path(args.results).parent
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
    except (NumericalError, NonFiniteLossError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
