"""symode benchmark: time to a verified fit, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sir_desk --seed 0 --seconds 30 --trace 0

An operation is one ``symode.pipeline.run_pipeline`` in a fresh worker
process (perfbench/worker.py) on a configuration built from the seed. With
``--trace 0`` a run performs a fixed number of operations on distinct
configurations (the number follows from ``--seconds``) and reports the
end-to-end metrics. With ``--trace 1`` it runs configuration 0 traced,
untraced and traced again, and reports the per-layer metrics, the time no
span covers and the tracing overhead. The last line of standard output is
the JSON result; the line before it, prefixed ``perfbench-record``, holds
the environment, results digests, gate outcomes and quality numbers.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REAL_CSV, WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
# Set-up is cheap, so each run repeats it in set-up-only workers to get a
# steady median.
SETUP_REPEATS = 20
# Every worker must end within this many seconds of the run's start, so a
# run ends within the 180 s a run may take.
RUN_DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Counters that must repeat exactly between two traced operations of one
# configuration.
EXACT_COUNTERS = ("search.fits", "search.repeats", "search.score0",
                  "search.sampled", "search.fit_loss_max", "objective.calls",
                  "objective.calls_in_fits", "expressions.forward_in_objective",
                  "bfgs.runs", "bfgs.iters", "bfgs.converged",
                  "forecast.steps", "forecast.diverged", "spans")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _missing_inputs():
    needed = [ROOT / "src" / "symode" / "pipeline.py", ROOT / REAL_CSV]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def environment(seed):
    """What the numbers depend on besides the code: seed, machine,
    interpreter and BLAS, and the code's identity and size."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    sources = sorted((ROOT / "src" / "symode").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def config_seed(seed, index):
    """Program seed of the run's ``index``-th configuration. Configuration 0
    of run seed s uses program seed 1000 * s, so run seed 0 is the shipped
    protocols' seed 0."""
    return 1000 * seed + index


class Runner:
    """Starts workers one at a time and collects their reports."""

    def __init__(self, workload, seed, out):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.start = time.monotonic()
        self.count = 0
        out.mkdir(parents=True)

    def elapsed(self):
        return time.monotonic() - self.start

    def op(self, index, traced=False, setup_only=False):
        """Run one operation on configuration ``index``; returns its report
        with derived timings, or only the error when the worker did not
        finish."""
        self.count += 1
        op_dir = self.out / f"op{self.count:02d}"
        op_dir.mkdir()
        config = op_dir / "config.json"
        config.write_text(json.dumps(self.workload.build(
            config_seed(self.seed, index))), encoding="utf-8")
        request = op_dir / "request.json"
        report_path = op_dir / "report.json"
        request.write_text(json.dumps({
            "workload": self.workload.name,
            "config": str(config),
            "out_dir": str(op_dir),
            "report": str(report_path),
            "trace": traced,
            "setup_only": setup_only,
            "run_id": f"{self.workload.name}-{self.seed}-{self.count}",
        }), encoding="utf-8")
        timeout = RUN_DEADLINE_S - self.elapsed()
        if timeout <= 0:
            return {"index": index, "error": "Timeout: run deadline reached"}
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(request)], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"index": index,
                    "error": f"Timeout: worker killed after {timeout:.0f} s"}
        if proc.returncode != 0 or not report_path.is_file():
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return {"index": index,
                    "error": f"WorkerExit {proc.returncode}: {tail[0]}"}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["index"] = index
        report["setup_s"] = report["t_data"] - t_spawn
        if not setup_only:
            report["search_s"] = report["t_done"] - report["t_data"]
        return report


def _failure_reasons(report):
    reasons = []
    if report.get("error"):
        reasons.append(report["error"])
    reasons += [f"loss re-verification: {p}" for p in report.get("verify", [])]
    reasons += [f"gate: {p}" for p in report.get("gate", [])]
    return reasons


def _setup_median(runner, ops):
    times = [r["setup_s"] for r in ops if "setup_s" in r]
    for index in range(SETUP_REPEATS):
        report = runner.op(index, setup_only=True)
        if "setup_s" in report:
            times.append(report["setup_s"])
    return statistics.median(times)


def end_to_end(runner, seconds):
    """Run configurations 0, 1, ... of the seed once each. Search time varies
    between configurations far more than between repeats of one, so a run
    spends its time on distinct ones and reports their mean."""
    ops = [runner.op(i) for i in range(runner.workload.operations(seconds))]
    timed = [r for r in ops if "search_s" in r]
    if not timed:
        return ops, {}, ["no operation finished, so nothing was timed"]
    metrics = {
        "setup_s": (_setup_median(runner, ops), "s"),
        "search_s": (statistics.fmean([r["search_s"] for r in timed]), "s"),
        "cpu_s": (statistics.fmean([r["cpu_s"] for r in timed]), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in timed), "MB"),
    }
    return ops, metrics, []


def _per_op_layers(report):
    """Per-layer metrics of one traced operation."""
    trace = report["trace"]
    calls, total, self_s = trace["calls"], trace["total_s"], trace["self_s"]
    c = trace["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    lag = "losses.EulerResidualObjective.loss_and_grad"
    lag_calls = calls.get(lag, 0)
    steps = c.get("forecast.steps", 0)
    fits = c.get("search.fits", 0)
    m = {
        "losses.loss_and_grad.calls": (lag_calls, "count"),
        "losses.loss_and_grad.s": (total.get(lag, 0.0), "s"),
        "losses.loss_and_grad.us_per_call": (ratio(total.get(lag, 0.0) * 1e6, lag_calls), "us"),
        "losses.loss.calls": (calls.get("losses.EulerResidualObjective.loss", 0), "count"),
        "losses.objective_init.s": (total.get("losses.EulerResidualObjective.__init__", 0.0), "s"),
        "expressions.forward_pass.calls": (calls.get("expressions.forward_pass", 0), "count"),
        "expressions.forward_per_objective": (ratio(c["expressions.forward_in_objective"], c["objective.calls"]), "ratio"),
        "expressions.evaluate_batch.calls": (calls.get("expressions.evaluate_batch", 0), "count"),
        "optimize.first_order.s": (total.get("optimize.minimize_first_order", 0.0), "s"),
        "optimize.first_order.self_s": (self_s.get("optimize.minimize_first_order", 0.0), "s"),
        "optimize.bfgs.s": (total.get("optimize.minimize_bfgs", 0.0), "s"),
        "optimize.bfgs.self_s": (self_s.get("optimize.minimize_bfgs", 0.0), "s"),
        "optimize.bfgs.iters_mean": (ratio(c.get("bfgs.iters", 0), c.get("bfgs.runs", 0)), "count"),
        "optimize.bfgs.converged_ratio": (ratio(c.get("bfgs.converged", 0), c.get("bfgs.runs", 0)), "ratio"),
        "optimize.calls_per_fit": (ratio(c["objective.calls_in_fits"], fits), "count"),
        "optimize.finetune.s": (total.get("search._finetune_pool", 0.0), "s"),
        "search.sampled": (c.get("search.sampled", 0), "count"),
        "search.fits": (fits, "count"),
        "search.distinct_ratio": (ratio(fits, c.get("search.sampled", 0)), "ratio"),
        "search.repeat_ratio": (ratio(c.get("search.repeats", 0), fits), "ratio"),
        "search.score0_ratio": (ratio(c.get("search.score0", 0), fits), "ratio"),
        "search.score_sequence.self_s": (self_s.get("search.score_sequence", 0.0), "s"),
        "controller.sample.s": (total.get("controller.sample_sequences", 0.0), "s"),
        "controller.update.s": (total.get("controller.policy_update", 0.0), "s"),
        "forecast.rollout.s": (total.get("forecast.rollout", 0.0), "s"),
        "forecast.rollout.steps": (steps, "count"),
        "forecast.us_per_step": (ratio(total.get("forecast.rollout", 0.0) * 1e6, steps), "us"),
        "dataio.load_csv.s": (total.get("dataio.load_csv", 0.0), "s"),
        "dataio.rows": (c.get("dataio.rows", 0), "count"),
        "config.load.s": (total.get("config.load_run_config", 0.0), "s"),
        "epidemic.generate.s": (total.get("epidemic.generate_trajectories", 0.0), "s"),
        "pipeline.write_results.s": (total.get("pipeline.write_results", 0.0), "s"),
        "pipeline.results_bytes": (c.get("pipeline.results_bytes", 0), "bytes"),
        "search.fit_loss_max": (c.get("search.fit_loss_max", 0.0), "loss"),
        "forecast.diverged": (c.get("forecast.diverged", 0), "count"),
        "forecast.wins": (report["quality"].get("forecast_wins", 0), "count"),
        "trace.uncovered_s": (trace["uncovered_s"], "s"),
        "trace.spans": (c["spans"], "count"),
    }
    for layer, value in trace["layer_self_s"].items():
        m[f"{layer}.self_s"] = (value, "s")
    return m


def per_layer(runner, seconds):
    """Configuration 0 traced, untraced, traced. The untraced operation sits
    between the traced ones so that a drift in machine speed during the run
    cancels out of the overhead estimate."""
    ops = [runner.op(0, traced=True), runner.op(0), runner.op(0, traced=True)]
    traced, untraced = [ops[0], ops[2]], ops[1]
    problems = []
    if any("trace" not in r for r in traced) or "search_s" not in untraced:
        return ops, {}, [f"traced run incomplete: {_failure_reasons(r)}"
                         for r in ops if _failure_reasons(r)]
    first, second = (traced[0]["trace"]["counters"],
                     traced[1]["trace"]["counters"])
    for name in EXACT_COUNTERS:
        if first.get(name) != second.get(name):
            problems.append(f"counter {name} differs between traced "
                            f"operations: {first.get(name)} vs "
                            f"{second.get(name)}")
    layers = [_per_op_layers(r) for r in traced]
    metrics = {name: (statistics.fmean([m[name][0] for m in layers]), unit)
               for name, (_, unit) in layers[0].items()}
    traced_s = statistics.fmean([r["search_s"] for r in traced])
    metrics["trace.overhead_ratio"] = (traced_s / untraced["search_s"] - 1.0,
                                       "ratio")
    return ops, metrics, problems


def main(argv=None):
    args = _parse_args(argv)
    missing = _missing_inputs()
    if missing:
        print(f"perfbench: not a symode checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # each run replaces the previous run's outputs, so traces do not pile up
    shutil.rmtree(ROOT / OUT_DIR, ignore_errors=True)
    out = ROOT / OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workload, args.seed, out)
    measure = per_layer if args.trace else end_to_end
    ops, metrics, problems = measure(runner, args.seconds)

    record, result = summarize(args.seed, ops, metrics, problems)
    record = dict(workload=workload.name, environment=environment(args.seed),
                  **record)
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def summarize(seed, ops, metrics, problems):
    """The run record and the result object of a finished run.

    An operation fails when it raised, missed its protocol gate or failed
    loss re-verification. The run is incorrect when a recorded loss did not
    re-verify, when a configuration's results.json changed between
    repeats, or when an exact counter did not repeat.
    """
    problems = list(problems)
    digests = {}
    for r in ops:
        if r.get("digest"):
            digests.setdefault(r["index"], set()).add(r["digest"])
    for index, found in digests.items():
        if len(found) > 1:
            problems.append(f"configuration {index}: results.json differs "
                            f"between repeats: {sorted(found)}")
    problems += [f"configuration {r['index']}: {p}" for r in ops
                 for p in r.get("verify", [])]
    failures = [_failure_reasons(r) for r in ops]
    record = {
        "ops": [{"config_seed": config_seed(seed, r["index"]),
                 "results_sha256": r.get("digest"),
                 "traced": "trace" in r, "setup_s": r.get("setup_s"),
                 "search_s": r.get("search_s"), "quality": r.get("quality"),
                 "counters": ({k: r["trace"]["counters"].get(k)
                               for k in EXACT_COUNTERS}
                              if "trace" in r else None),
                 "failures": f} for r, f in zip(ops, failures)],
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for f in failures if f),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
