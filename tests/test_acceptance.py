"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1 and 9 run full search protocols and together take a few
minutes; everything else is fast.
"""

import math
import time

import numpy as np

import symode as sm
from symode.config import run_config_from_dict
from symode.controller import slot_vocabularies
from symode.losses import ComponentSamples, EulerResidualObjective
from symode.pipeline import run_real, run_synthetic
from symode.search import CandidatePool

from conftest import random_sequence
from test_controller import brute_force_threshold, constructed_batch
from test_search import brute_force_top_k, random_record


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_c01_synthetic_sir_end_to_end():
    """Desk-scale SIR recovery: 20/20 trajectories, full search protocol,
    autonomous-rollout per-step test MSE <= 1e-5 at every step."""
    cfg = run_config_from_dict({
        "mode": "synthetic",
        "seed": 0,
        "model": {"kind": "sir"},
        "data": {"n_trajectories": 40, "steps": 250, "dt": 0.2,
                 "train_fraction": 0.5},
        "search": {"epochs": 100, "batch_size": 10, "templates": "type2"},
    })
    t0 = time.time()
    doc = run_synthetic(cfg)
    elapsed = time.time() - t0
    worst = doc["metrics"]["max_per_step_mse"]
    assert len(doc["metrics"]["per_step_mse"]) == 250
    report(1, worst <= 1e-5,
           f"max per-step test MSE {worst:.3e} (<= 1e-5), {elapsed:.0f}s")


def test_c02_oracle_coefficient_recovery():
    """With the correct linear form fixed for dR/dt, two-stage optimization
    recovers (gamma, -mu) = (0.2, -0.3) within 1e-3."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    params = sm.benchmark_params("sir")
    data = sm.generate_trajectories("sir", params, 20, 250, 0.2, rng,
                                    normalize_init=False)
    template = sm.build_template("type1", 3)
    seq = ("id", "id", "sub", "id")
    obj = EulerResidualObjective(template, seq, ComponentSamples(data, 2))
    init = np.random.default_rng(0).uniform(-1, 1, 10)
    result = sm.two_stage_minimize(obj.loss_and_grad, init, sm.OptimConfig())
    expr = sm.CompiledExpression(template, seq, result.final_params)
    base = sm.evaluate(expr, [0.0, 0.0, 0.0])
    coef_i = sm.evaluate(expr, [0.0, 1.0, 0.0]) - base
    coef_r = sm.evaluate(expr, [0.0, 0.0, 1.0]) - base
    elapsed = time.time() - t0
    ok = abs(coef_i - 0.2) <= 1e-3 and abs(coef_r + 0.3) <= 1e-3
    report(2, ok and elapsed < 10,
           f"recovered I coef {coef_i:.6f}, R coef {coef_r:.6f} in {elapsed:.1f}s")


def test_c03_score_formula_properties():
    """Score formula on 1000 random losses: S = 1/(1+L), S in (0, 1],
    strictly decreasing in L."""
    rng = np.random.default_rng(7)
    losses = np.unique(np.concatenate([
        rng.uniform(0.0, 1e6, 900), 10.0 ** rng.uniform(-12, 8, 99), [0.0]]))
    scores = np.array([sm.score_from_loss(l) for l in losses])
    formula_ok = np.all(np.abs(scores * (1.0 + losses) - 1.0) <= 1e-12)
    range_ok = np.all((scores > 0.0) & (scores <= 1.0))
    monotone_ok = np.all(np.diff(scores) < 0.0)
    report(3, formula_ok and range_ok and monotone_ok,
           f"{losses.size} losses: formula/range/monotonicity all hold")


def test_c04_risk_seeking_controller_concentration():
    """Bandit concentration at the documented protocol rate: one sequence
    scores 1.0, nine others 0.1, nu=0.2, eta=0.002, epsilon=0.1; policy
    probability of the best sequence must reach 0.9 within 50 updates for
    at least 9 of 10 seeds.

    Note: each update moves the logits by at most eta * max(S - S_nu), so
    fifty updates at eta=0.002 bound the total movement by 0.09 logits,
    while probability 0.9 needs a gap of over four logits; see the
    companion concentration test in test_controller.py for the same
    experiment at a rate where the mechanism can act within 50 updates.
    """
    template = sm.build_template("type2", 3)
    vocabs = slot_vocabularies(template)
    successes = 0
    final_probs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        best = tuple(v[rng.integers(len(v))] for v in vocabs)
        others = []
        while len(others) < 9:
            cand = tuple(v[rng.integers(len(v))] for v in vocabs)
            if cand != best and cand not in others:
                others.append(cand)
        batch = constructed_batch(template, [best] + others,
                                  [1.0] + [0.1] * 9)
        policy = sm.ControllerPolicy.uniform(template, epsilon=0.1, lr=0.002)
        reached = False
        for _ in range(50):
            sm.policy_update(policy, batch, 0.2)
            if math.exp(sm.log_prob(policy, template, best)) >= 0.9:
                reached = True
                break
        successes += reached
        final_probs.append(math.exp(sm.log_prob(policy, template, best)))
    report(4, successes >= 9,
           f"{successes}/10 seeds reached p>=0.9 within 50 updates at "
           f"eta=0.002 (final probabilities ~{max(final_probs):.2e})")


def test_c05_quantile_and_pool_oracles():
    """quantile_threshold matches nearest-rank brute force on 1000 random
    score lists; pool contents equal brute-force top-K on 100 streams."""
    rng = np.random.default_rng(11)
    quantile_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        scores = rng.uniform(0, 1, n)
        nu = float(rng.uniform(0.05, 0.95))
        if not math.isclose(sm.quantile_threshold(scores, nu),
                            brute_force_threshold(list(scores), nu),
                            rel_tol=0, abs_tol=0):
            quantile_ok = False
            break
    pool_ok = True
    for _ in range(100):
        capacity = int(rng.integers(1, 16))
        stream = [random_record(rng) for _ in range(int(rng.integers(1, 120)))]
        pool = CandidatePool(capacity)
        for rec in stream:
            pool.insert(rec)
        if [r.sequence for r in pool.records()] != brute_force_top_k(stream,
                                                                     capacity):
            pool_ok = False
            break
    report(5, quantile_ok and pool_ok,
           "1000 quantile lists and 100 pool streams match brute force")


def test_c06_gradient_correctness():
    """param_gradient and loss_and_gradient match central finite
    differences to relative error 1e-5 on 100 random instances."""
    rng = np.random.default_rng(13)
    h = 1e-5
    worst_expr, worst_loss = 0.0, 0.0
    for trial in range(100):
        kind = ("type1", "type2")[rng.integers(2)]
        d = int(rng.integers(1, 5))
        template = sm.build_template(kind, d)
        seq = random_sequence(template, rng)
        p = sm.param_count(template, seq)

        theta = rng.uniform(-10, 10, p)
        x = rng.uniform(-1.5, 1.5, d)
        expr = sm.CompiledExpression(template, seq, theta)
        grad = sm.param_gradient(expr, x)
        fd = np.zeros(p)
        for k in range(p):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            fd[k] = (sm.evaluate(sm.CompiledExpression(template, seq, up), x)
                     - sm.evaluate(sm.CompiledExpression(template, seq, down),
                                   x)) / (2 * h)
        worst_expr = max(worst_expr,
                         np.linalg.norm(grad - fd)
                         / max(np.linalg.norm(grad), 1e-12))

        data = sm.TrajectoryDataset(
            [rng.uniform(0, 1, (int(rng.integers(3, 10)), d))], 0.2,
            tuple(f"x{j}" for j in range(d)))
        comp = int(rng.integers(d))
        obj = EulerResidualObjective(template, seq,
                                     ComponentSamples(data, comp))
        theta2 = rng.uniform(-2, 2, p)
        _, grad2 = obj.loss_and_grad(theta2)
        fd2 = np.zeros(p)
        for k in range(p):
            up, down = theta2.copy(), theta2.copy()
            up[k] += h
            down[k] -= h
            fd2[k] = (obj.loss(up) - obj.loss(down)) / (2 * h)
        worst_loss = max(worst_loss,
                         np.linalg.norm(grad2 - fd2)
                         / max(np.linalg.norm(grad2), 1e-12))
    ok = worst_expr <= 1e-5 and worst_loss <= 1e-5
    report(6, ok, f"worst relative error: expression {worst_expr:.2e}, "
                  f"loss {worst_loss:.2e}")


def test_c07_bfgs_oracles():
    """BFGS: gradient norm <= 1e-8 within 50 iterations on 20 random SPD
    quadratics; Rosenbrock from (-1.2, 1) to <= 1e-10 within 200."""
    converged = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        root = rng.normal(size=(5, 5))
        A = root @ root.T + 0.5 * np.eye(5)
        b = rng.normal(size=5)
        fn = lambda th: (float(0.5 * th @ A @ th - b @ th), A @ th - b)
        res = sm.minimize_bfgs(fn, rng.normal(size=5), 50, 1e-8)
        converged += np.linalg.norm(A @ res.final_params - b) <= 1e-8

    def rosen(th):
        x, y = th
        return (float((1 - x) ** 2 + 100 * (y - x * x) ** 2),
                np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                          200 * (y - x * x)]))

    res = sm.minimize_bfgs(rosen, np.array([-1.2, 1.0]), 200, 1e-13)
    ok = converged == 20 and res.final_loss <= 1e-10
    report(7, ok, f"SPD {converged}/20 converged, "
                  f"Rosenbrock loss {res.final_loss:.1e} "
                  f"in {res.iterations_used} iterations")


def test_c08_integrator_and_data_properties():
    """SEIRD trajectories conserve total mass to 1e-12 at every step, and
    the Euler fixed-horizon error halves when the step halves."""
    rng = np.random.default_rng(17)
    params = sm.benchmark_params("seird")
    data = sm.generate_trajectories("seird", params, 10, 200, 0.2, rng)
    drift = max(np.max(np.abs(t.sum(axis=1) - 1.0)) for t in data.trajectories)

    from test_epidemic import euler_to, rk4_reference
    sir = sm.benchmark_params("sir")
    x0 = np.array([0.6, 0.3, 0.1])
    ref = rk4_reference("sir", sir, x0, 4.0, 4000)
    err_coarse = np.linalg.norm(euler_to("sir", sir, x0, 4.0, 0.2) - ref)
    err_fine = np.linalg.norm(euler_to("sir", sir, x0, 4.0, 0.1) - ref)
    ratio = err_coarse / err_fine
    ok = drift <= 1e-12 and 1.7 <= ratio <= 2.3
    report(8, ok, f"mass drift {drift:.1e} (<= 1e-12), "
                  f"halving ratio {ratio:.2f} (in [1.7, 2.3])")


def test_c09_real_data_pipeline(data_dir):
    """Bundled 100-day Q/D/R sample, 85/15 split: pipeline completes,
    emits three equations, and the autonomous forecast beats persistence
    on at least 2 of 3 series."""
    cfg = run_config_from_dict({
        "mode": "real",
        "seed": 0,
        "input_csv": str(data_dir / "covid_qdr_sample.csv"),
        "train_days": 85,
        "normalization": {"mode": "by_max_total"},
        "search": {"epochs": 100, "batch_size": 10, "templates": "type2"},
    })
    t0 = time.time()
    doc = run_real(cfg)
    elapsed = time.time() - t0
    equations = [c["symbolic"] for c in doc["components"]]
    metrics = doc["metrics"]
    wins = sum(
        metrics["forecast_mse_per_series"][name]
        < metrics["persistence_mse_per_series"][name]
        for name in doc["var_names"])
    assert metrics["forecast_steps"] == 15
    ok = len(equations) == 3 and all(equations) and wins >= 2
    report(9, ok, f"3 equations emitted, forecast beats persistence on "
                  f"{wins}/3 series, {elapsed:.0f}s")


def test_c10_determinism():
    """Identical config and seed give identical best sequences, bitwise
    identical coefficients, and identical metrics."""
    doc_cfg = {
        "mode": "synthetic",
        "seed": 5,
        "model": {"kind": "sir"},
        "data": {"n_trajectories": 6, "steps": 40, "dt": 0.2,
                 "train_fraction": 0.5},
        "search": {"epochs": 4, "batch_size": 4,
                   "optim": {"t1_iters": 30, "t2_iters": 20, "t3_iters": 10}},
    }
    doc_a = run_synthetic(run_config_from_dict(dict(doc_cfg)))
    doc_b = run_synthetic(run_config_from_dict(dict(doc_cfg)))
    same_seq = all(a["sequence"] == b["sequence"] for a, b in
                   zip(doc_a["components"], doc_b["components"]))
    same_coef = all(a["coefficients"] == b["coefficients"] for a, b in
                    zip(doc_a["components"], doc_b["components"]))
    same_metrics = doc_a["metrics"] == doc_b["metrics"]
    report(10, same_seq and same_coef and same_metrics,
           "sequences, coefficients (bitwise), and metrics identical")
