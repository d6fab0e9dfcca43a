"""Self-test of the benchmark's loss re-verification gate.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs a small real-mode search, checks that its results document passes
re-verification, then perturbs one coefficient of the document and checks
that re-verification fails, that the operation is counted as failed and
that the run is reported incorrect. Exits 0 when every check holds.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the import path)
from run import OUT_DIR, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from symode import pipeline  # noqa: E402
from symode.config import run_config_from_dict  # noqa: E402


def small_config():
    doc = WORKLOADS["qdr_real"].build(0)
    doc["input_csv"] = str(worker.ROOT / doc["input_csv"])
    doc["search"]["epochs"] = 1
    doc["search"]["optim"] = {"t1_iters": 20, "t2_iters": 20, "t3_iters": 5}
    return run_config_from_dict(doc)


def gate_report(results_path, train):
    verify, gate, digest, quality = worker.check_document(
        WORKLOADS["qdr_real"], results_path, train)
    return {"index": 0, "verify": verify, "gate": [], "digest": digest,
            "quality": quality}


def main():
    cfg = small_config()
    train = worker.training_data(cfg)
    checks = []
    out = worker.ROOT / OUT_DIR / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        pipeline.run_pipeline(cfg, out)
        results = out / "results.json"

        _, clean = summarize(0, [gate_report(results, train)], {}, [])
        checks.append(("faithful document re-verifies",
                       clean["correct"] and clean["failed"] == 0))

        doc = json.loads(results.read_text(encoding="utf-8"))
        # in a type2 expression the last coefficient is the constant of the
        # leaf that is the root's right operand
        doc["components"][0]["coefficients"][-1] += 1e-3
        results.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        report = gate_report(results, train)
        _, perturbed = summarize(0, [report], {}, [])
        checks.append(("perturbed coefficient fails re-verification",
                       len(report["verify"]) == 1))
        checks.append(("the operation counts as failed",
                       perturbed["failed"] == 1 and perturbed["attempted"] == 1))
        checks.append(("the run is reported incorrect",
                       perturbed["correct"] is False))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
