import numpy as np
import pytest

import symode as sm
from symode.errors import NonFiniteLossError
from symode.losses import ComponentSamples, EulerResidualObjective
from symode.optimize import (ARMIJO_C, GRAD_TOL, LM_ITERS, LM_STALLS,
                             LR_FIRST, MAX_BACKTRACKS, uniform_init)


def quadratic(theta):
    theta = np.asarray(theta, float)
    return float(theta @ theta), 2.0 * theta


def rosenbrock(theta):
    x, y = theta
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    g = np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])
    return float(f), g


def spd_quadratic(seed, dim=5):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(dim, dim))
    A = root @ root.T + 0.5 * np.eye(dim)
    b = rng.normal(size=dim)

    def fn(theta):
        return float(0.5 * theta @ A @ theta - b @ theta), A @ theta - b

    return fn, A, b, rng.normal(size=dim)


class TestFirstOrder:
    def test_convex_quadratic(self):
        res = sm.minimize_first_order(quadratic, np.array([1.0, 1.0]), 200, 0.05)
        assert res.final_loss <= 1e-4

    def test_zero_iterations_returns_init(self):
        init = np.array([0.4, -0.6, 2.0])
        res = sm.minimize_first_order(quadratic, init, 0, 0.05)
        assert np.array_equal(res.final_params, init)
        assert res.iterations_used == 0

    def test_constant_loss_leaves_params(self):
        init = np.array([3.0, -2.0])
        res = sm.minimize_first_order(
            lambda th: (1.0, np.zeros_like(th)), init, 50, 0.1)
        assert np.array_equal(res.final_params, init)
        assert res.final_loss == 1.0

    def test_nonfinite_start_raises(self):
        with pytest.raises(NonFiniteLossError):
            sm.minimize_first_order(
                lambda th: (float("nan"), np.zeros_like(th)),
                np.array([1.0]), 10, 0.1)

    def test_non_finite_gradient_stops(self):
        calls = []

        def fn(theta):
            calls.append(theta.copy())
            return 1.0, np.array([np.nan])

        res = sm.minimize_first_order(fn, np.array([0.5]), 10, 0.1)
        assert len(calls) == 1
        assert res.iterations_used == 0
        assert np.array_equal(res.final_params, [0.5])
        assert res.final_loss == 1.0

    def test_non_finite_loss_stops(self):
        calls = []

        def fn(theta):
            calls.append(theta.copy())
            loss = 1.0 if len(calls) == 1 else float("inf")
            return loss, np.array([1.0])

        res = sm.minimize_first_order(fn, np.array([0.5]), 10, 0.1)
        assert len(calls) == 2
        assert res.iterations_used == 1
        assert np.array_equal(res.final_params, [0.5])
        assert res.final_loss == 1.0

    def test_best_iterate_tracking(self):
        seen = []

        def noisy(theta):
            loss, grad = quadratic(theta)
            seen.append(loss)
            return loss, grad

        res = sm.minimize_first_order(noisy, np.array([2.0, -1.0]), 100, 0.3)
        assert res.final_loss <= min(seen)
        # reported loss is re-checkable at the reported parameters
        assert quadratic(res.final_params)[0] == pytest.approx(res.final_loss)

    def test_overflowing_moment_still_steps(self):
        # gradients near 1e160 square to inf in the second moment; those
        # coordinates step by lr * sign(m_hat) instead of stalling at 0
        series = np.linspace(1e80, 2e80, 30)[:, None]
        data = sm.TrajectoryDataset([series], 1.0, ("x",))
        obj = EulerResidualObjective(sm.build_template("type2", 1),
                                     ("id", "id", "add", "id", "add"),
                                     ComponentSamples(data, 0))
        init = uniform_init(np.random.default_rng(5), 6)
        res = sm.minimize_first_order(obj.loss_and_grad, init, 30, LR_FIRST)
        assert res.final_loss <= obj.loss(init) / 10


class TestBFGS:
    def test_spd_quadratics_converge(self):
        for seed in range(20):
            fn, A, b, init = spd_quadratic(seed)
            res = sm.minimize_bfgs(fn, init, 50, 1e-8)
            assert np.linalg.norm(A @ res.final_params - b) <= 1e-8
            assert res.converged

    def test_already_at_minimum(self):
        fn, A, b, _ = spd_quadratic(1)
        opt = np.linalg.solve(A, b)
        res = sm.minimize_bfgs(fn, opt, 50, 1e-6)
        assert res.converged
        assert res.iterations_used == 0

    def test_rosenbrock(self):
        res = sm.minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]), 200, 1e-12)
        assert res.final_loss <= 1e-10
        assert res.iterations_used <= 200

    def test_armijo_acceptance_property(self):
        # an evaluated point is an accepted iterate unless the next
        # evaluation is the half-way backtrack toward it from the base point
        fn, *_, init = spd_quadratic(3)
        for problem, start in ((fn, init),
                               (rosenbrock, np.array([-1.2, 1.0]))):
            calls = []

            def logged(theta):
                loss, grad = problem(theta)
                calls.append((theta.copy(), loss, grad))
                return loss, grad

            res = sm.minimize_bfgs(logged, start, 50, 1e-10)
            # a failed line search ends the run on a rejected point
            if not np.array_equal(calls[-1][0], res.final_params):
                calls.pop()
            base, accepted = calls[0], 0
            for k, point in enumerate(calls[1:], start=1):
                half = base[0] + 0.5 * (point[0] - base[0])
                if k + 1 < len(calls) and np.allclose(
                        calls[k + 1][0], half, rtol=1e-12, atol=1e-15):
                    continue
                bound = base[1] + ARMIJO_C * base[2] @ (point[0] - base[0])
                assert point[1] <= bound + 1e-15
                base, accepted = point, accepted + 1
            assert accepted

    def test_failed_line_search_returns_start(self):
        # a gradient of the wrong sign: every step along -grad goes uphill
        calls = []

        def fn(theta):
            calls.append(theta.copy())
            return float(theta @ theta), -2.0 * theta

        init = np.array([1.0, -2.0])
        res = sm.minimize_bfgs(fn, init, 20, 1e-8)
        assert len(calls) == 1 + MAX_BACKTRACKS
        assert res.iterations_used == 0
        assert not res.converged
        assert np.array_equal(res.final_params, init)
        assert res.final_loss == 5.0

    def test_nonfinite_start_raises(self):
        with pytest.raises(NonFiniteLossError):
            sm.minimize_bfgs(lambda th: (float("inf"), th), np.array([1.0]),
                             10, 1e-8)

    def test_deterministic(self):
        fn, *_ , init = spd_quadratic(9)
        a = sm.minimize_bfgs(fn, init, 50, 1e-8)
        b2 = sm.minimize_bfgs(fn, init, 50, 1e-8)
        assert np.array_equal(a.final_params, b2.final_params)
        assert a.final_loss == b2.final_loss


class TestTwoStage:
    def test_never_worse_than_first_stage(self):
        cfg = sm.OptimConfig(t1_iters=50, t2_iters=20)
        init = np.array([2.0, 2.0, -3.0])
        first = sm.minimize_first_order(quadratic, init, cfg.t1_iters, LR_FIRST)
        both = sm.two_stage_minimize(quadratic, init, cfg)
        assert both.final_loss <= first.final_loss

    def test_zero_budgets_return_init(self):
        cfg = sm.OptimConfig(t1_iters=0, t2_iters=0)
        init = np.array([1.0, -1.0])
        res = sm.two_stage_minimize(quadratic, init, cfg)
        assert np.array_equal(res.final_params, init)

    def test_sir_recovery_of_linear_component(self, sir_dataset_offsimplex):
        template = sm.build_template("type1", 3)
        seq = ("id", "id", "sub", "id")
        obj = EulerResidualObjective(
            template, seq, ComponentSamples(sir_dataset_offsimplex, 2))
        rng = np.random.default_rng(0)
        res = sm.two_stage_minimize(obj.loss_and_grad, rng.uniform(-1, 1, 10),
                                    sm.OptimConfig())
        expr = sm.CompiledExpression(template, seq, res.final_params)
        base = sm.evaluate(expr, [0, 0, 0])
        coef_i = sm.evaluate(expr, [0, 1, 0]) - base
        coef_r = sm.evaluate(expr, [0, 0, 1]) - base
        assert coef_i == pytest.approx(0.2, abs=1e-3)
        assert coef_r == pytest.approx(-0.3, abs=1e-3)


@pytest.mark.parametrize("iters", [0, 1, 30])
def test_minimizers_never_touch_init(iters):
    """The best-iterate tracker keeps each iterate without a copy, because
    every iterate is a fresh array, and copies only the start: no
    minimizer writes into ``init`` (read-only here) or returns it."""
    fn, _, _, start = spd_quadratic(4)
    runs = (lambda init: sm.minimize_first_order(fn, init, iters, LR_FIRST),
            lambda init: sm.minimize_bfgs(fn, init, iters, 1e-8),
            lambda init: sm.two_stage_minimize(
                fn, init, sm.OptimConfig(t1_iters=iters, t2_iters=iters)))
    for run in runs:
        init = start.copy()
        init.setflags(write=False)
        res = run(init)
        assert res.final_params is not init
        assert np.array_equal(init, start)
        assert np.array_equal(res.final_params, start) == (iters == 0)


class Residual:
    """A least-squares objective |r(theta)|^2 / m for minimize_lm, which
    logs each residual call and each Jacobian it hands out."""

    def __init__(self, r, jac, m):
        self.r, self.jac, self.m = r, jac, m
        self.losses, self.jacobians_at = [], []

    def residual(self, theta):
        r = np.asarray(self.r(theta), dtype=float)
        loss = float(r @ r) / self.m
        self.losses.append(loss)
        if not np.isfinite(loss):
            return float("inf"), r, None

        def jacobian():
            self.jacobians_at.append(loss)
            return np.asarray(self.jac(theta), dtype=float)
        return loss, r, jacobian


def rosenbrock_residual():
    return Residual(lambda t: [10 * (t[1] - t[0] ** 2), 1 - t[0]],
                    lambda t: [[-20 * t[0], 10], [-1, 0]], 2)


def overflowing_residual():
    """A nearly flat start at -0.02, whose first trials overflow."""
    return Residual(lambda t: [np.exp(800 * t[0]) - 1],
                    lambda t: [[800 * np.exp(800 * t[0])]], 1)


class TestLevenbergMarquardt:
    def test_linear_least_squares_in_one_step(self):
        rng = np.random.default_rng(2)
        A, b = rng.normal(size=(30, 4)), rng.normal(size=30)
        objective = Residual(lambda t: A @ t - b, lambda t: A, 30)
        res = sm.minimize_lm(objective, np.zeros(4), LM_ITERS)
        exact = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(res.final_params, exact, rtol=1e-8, atol=1e-10)

    def test_rosenbrock(self):
        objective = rosenbrock_residual()
        res = sm.minimize_lm(objective, np.array([-1.2, 1.0]), LM_ITERS)
        assert np.allclose(res.final_params, [1.0, 1.0], atol=1e-8)
        assert res.converged
        assert res.iterations_used < LM_ITERS

    def test_accepts_only_lower_losses_and_sweeps_only_there(self):
        objective = rosenbrock_residual()
        sm.minimize_lm(objective, np.array([-1.2, 1.0]), LM_ITERS)
        # a Jacobian is formed at the start and at each accepted point, and
        # each accepted point has a lower loss than the one before
        assert objective.jacobians_at[0] == objective.losses[0]
        assert all(b < a for a, b in zip(objective.jacobians_at,
                                         objective.jacobians_at[1:]))
        assert len(objective.jacobians_at) < len(objective.losses)

    def test_stops_on_the_gradient_norm_at_the_start(self):
        objective = Residual(lambda t: [t[0] - 1.0], lambda t: [[1.0]], m=4)
        res = sm.minimize_lm(objective, np.array([1.0 + GRAD_TOL]), LM_ITERS)
        # 2 |J'r| / m is about GRAD_TOL / 2
        assert res.converged and res.iterations_used == 0
        assert len(objective.losses) == 1

    def test_stops_after_stalled_steps(self):
        # a residual whose loss falls by a relative 1e-12 per accepted step
        # whatever the step: each accepted step stalls
        state = {"calls": 0}

        def r(theta):
            state["calls"] += 1
            return [1.0 - 1e-12 * state["calls"]]

        objective = Residual(r, lambda t: [[1.0]], 1)
        res = sm.minimize_lm(objective, np.array([0.0]), LM_ITERS)
        assert res.iterations_used == LM_STALLS
        assert not res.converged

    def test_rejected_trials_raise_the_damping_until_the_budget(self):
        # a gradient of the wrong sign: every trial goes uphill
        objective = Residual(lambda t: [t[0]], lambda t: [[-1.0]], 1)
        res = sm.minimize_lm(objective, np.array([1.0]), LM_ITERS)
        assert res.iterations_used == LM_ITERS
        assert len(objective.losses) == 1 + LM_ITERS
        assert objective.jacobians_at == [1.0]
        assert np.array_equal(res.final_params, [1.0])
        # the damping grows fivefold per rejection, so the steps shrink
        assert objective.losses[-1] == pytest.approx(1.0, rel=1e-30 ** 0.5)

    @pytest.mark.parametrize("iters", [0, 1, 3, 20])
    def test_budget_bounds_iterations_and_residual_calls(self, iters):
        objective = rosenbrock_residual()
        start = np.array([-1.2, 1.0])
        res = sm.minimize_lm(objective, start, iters)
        assert res.iterations_used <= iters
        assert len(objective.losses) <= iters + 1
        if iters == 0:
            assert res.iterations_used == 0
            assert np.array_equal(res.final_params, start)
            assert res.final_loss == objective.losses[0]
        else:
            # Rosenbrock from this start needs more than 20 iterations
            assert not res.converged
            assert res.iterations_used == iters

    def test_non_finite_trial_is_rejected(self):
        objective = overflowing_residual()
        res = sm.minimize_lm(objective, np.array([-0.02]), LM_ITERS)
        assert objective.losses[1] == float("inf")
        assert np.isfinite(res.final_loss)
        assert res.final_loss < objective.losses[0]

    @pytest.mark.parametrize("make,init", [(rosenbrock_residual, [-1.2, 1.0]),
                                           (overflowing_residual, [-0.02])])
    def test_result_is_the_best_point_visited(self, make, init):
        # the lowest finite loss of every residual call, rejected trials
        # included, is the result's, and its parameters give that loss
        objective = make()
        res = sm.minimize_lm(objective, np.array(init), LM_ITERS)
        assert res.final_loss == min(l for l in objective.losses
                                     if np.isfinite(l))
        r = np.asarray(objective.r(res.final_params), dtype=float)
        assert float(r @ r) / objective.m == res.final_loss

    def test_never_touches_init(self):
        fn, A, b, start = spd_quadratic(4)
        objective = Residual(lambda t: A @ t - b, lambda t: A, 5)
        init = start.copy()
        init.setflags(write=False)
        res = sm.minimize_lm(objective, init, LM_ITERS)
        assert res.final_params is not init
        assert np.array_equal(init, start)
        assert res.final_loss < objective.losses[0]

    def test_nonfinite_start_raises(self):
        objective = Residual(lambda t: [np.inf], lambda t: [[1.0]], 1)
        with pytest.raises(NonFiniteLossError):
            sm.minimize_lm(objective, np.array([1.0]), LM_ITERS)

    def test_singular_normal_equations_are_a_rejection(self):
        # two equal columns and no damping left to tell them apart: the
        # solve fails, which counts as a rejected trial, not an error
        objective = Residual(lambda t: [t[0] + t[1] - 2.0, 0.0],
                             lambda t: [[1.0, 1.0], [0.0, 0.0]], 2)
        res = sm.minimize_lm(objective, np.array([5.0, 5.0]), LM_ITERS)
        assert res.final_loss <= objective.losses[0]
        assert np.isfinite(res.final_loss)


class TestOptimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sm.OptimConfig(t1_iters=-1)
