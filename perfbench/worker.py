"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py <request.json>

The request names the workload, the run configuration file, the output
directory, whether to trace, and where to write the report. The worker
imports symode from ``src/`` of the checkout, loads the configuration and
the training data (set-up), runs ``symode.pipeline.run_pipeline`` exactly
as ``symode search`` does (search), then re-verifies the written results
document and applies the workload's protocol gate. Timestamps use
``time.monotonic``, a clock shared by all processes, so the parent can
measure set-up from the moment it started the worker.
"""

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from symode import config as sym_config  # noqa: E402
from symode import dataio, epidemic, losses, pipeline  # noqa: E402
from symode.datasets import TrajectoryDataset  # noqa: E402
from symode.errors import SymodeError  # noqa: E402

from workloads import WORKLOADS, forecast_wins  # noqa: E402

# Re-verification tolerance for a recorded loss. The document stores the
# coefficients at full precision, so a faithful rebuild reproduces the
# loss to the last bits; a wrong coefficient moves it far more.
LOSS_REL_TOL = 1e-9


def training_data(cfg):
    """The training set the pipeline fits, rebuilt the way it builds it."""
    if cfg.mode == "synthetic":
        full = pipeline.generate_synthetic(cfg)
        train, _ = epidemic.train_test_split(full, cfg.data.train_fraction)
        return train
    raw = dataio.load_csv(cfg.input_csv, dt=cfg.real_dt)
    normalized, _ = dataio.normalize_series(raw, cfg.normalization.mode,
                                            cfg.normalization.constant)
    values = normalized.trajectories[0]
    return TrajectoryDataset([values[: cfg.train_days]], cfg.real_dt,
                             raw.var_names, split="train")


def verify_losses(doc, train):
    """Rebuild every winner from the document and recompute its loss.

    Returns one problem string per component whose recomputed loss differs
    from the recorded one.
    """
    system = pipeline.system_from_document(doc)
    problems = []
    for entry in doc["components"]:
        i = entry["component"]
        loss = losses.euler_residual_loss(system.components[i], train, i)
        recorded = entry["loss"]
        if not math.isclose(loss, recorded, rel_tol=LOSS_REL_TOL, abs_tol=0.0):
            problems.append(f"component {i}: recorded loss {recorded!r}, "
                            f"recomputed {loss!r}")
    return problems


def check_document(workload, results_path, train):
    """Gate a written results document.

    Returns (verify problems, gate problems, digest, quality numbers).
    """
    raw = Path(results_path).read_bytes()
    doc = json.loads(raw)
    metrics = doc["metrics"]
    quality = {
        "fit_loss_max": max(c["loss"] for c in doc["components"]),
        "max_step_mse": max(metrics["per_step_mse"]),
    }
    if "forecast_mse_per_series" in metrics:
        quality["forecast_wins"] = forecast_wins(doc)
    return (verify_losses(doc, train), workload.gate(doc),
            hashlib.sha256(raw).hexdigest(), quality)


def run(request):
    workload = WORKLOADS[request["workload"]]
    tracer = None
    if request["trace"]:
        from tracing import Tracer
        tracer = Tracer(request["run_id"])
        tracer.install()
    report = {"error": None, "verify": [], "gate": [], "digest": None,
              "quality": {}}
    cfg = sym_config.load_run_config(request["config"])
    train = training_data(cfg)
    report["t_data"] = time.monotonic()
    if request.get("setup_only"):
        return report
    window_start = time.perf_counter_ns()
    try:
        pipeline.run_pipeline(cfg, request["out_dir"])
    except Exception as exc:  # every failure is counted; none ends the run
        report["error"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, SymodeError):  # a defect: keep its traceback
            report["traceback"] = traceback.format_exc()
    window_end = time.perf_counter_ns()
    report["t_done"] = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["cpu_s"] = (own.ru_utime + own.ru_stime
                       + children.ru_utime + children.ru_stime)
    report["peak_rss_mb"] = own.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary((window_start, window_end))
        tracer.write(Path(request["out_dir"]) / "spans.npz")
    if report["error"] is None:
        (report["verify"], report["gate"], report["digest"],
         report["quality"]) = check_document(
            workload, Path(request["out_dir"]) / "results.json", train)
    return report


def main(argv):
    request = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    report = run(request)
    Path(request["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
