import warnings

import numpy as np
import pytest

import symode as sm
from symode.epidemic import benchmark_params
from symode.forecast import (RolloutResult, cut_forecast,
                             per_step_component_mse, per_step_mse,
                             persistence_baseline, replay, rollout)


@pytest.fixture
def sir_field():
    params = benchmark_params("sir")
    return lambda x: sm.vector_field("sir", params, x)


class TestRollout:
    def test_true_field_reproduces_euler_data(self, sir_field, sir_dataset):
        for traj in sir_dataset.trajectories[:4]:
            result = rollout(sir_field, traj[0], traj.shape[0] - 1,
                             sir_dataset.dt)
            assert result.completed
            assert np.max(np.abs(result.states - traj)) <= 1e-12

    def test_zero_steps_returns_init(self, sir_field):
        init = np.array([0.5, 0.3, 0.2])
        result = rollout(sir_field, init, 0, 0.2)
        assert result.completed
        assert result.states.shape == (1, 3)
        assert np.array_equal(result.states[0], init)

    def test_zero_model_constant_trajectory(self):
        init = np.array([0.1, 0.9])
        result = rollout(lambda x: np.zeros_like(x), init, 7, 0.5)
        assert np.all(result.states == init)

    def test_replay_row_one_equals_rollout_step_one(self, sir_field,
                                                    sir_dataset):
        truth = sir_dataset.trajectories[0]
        auto = rollout(sir_field, truth[0], 5, sir_dataset.dt)
        replayed = replay(sir_field, truth, sir_dataset.dt)
        assert replayed.shape == truth.shape
        assert np.array_equal(replayed[0], truth[0])
        assert replayed[1] == pytest.approx(auto.states[1], abs=1e-15)

    def test_replay_of_true_field_reproduces_euler_data(self, sir_field,
                                                        sir_dataset):
        for traj in sir_dataset.trajectories[:4]:
            replayed = replay(sir_field, traj, sir_dataset.dt)
            assert np.max(np.abs(replayed - traj)) <= 1e-12

    def test_batch_equals_per_state_rollouts(self, sir_field, sir_dataset):
        inits = np.stack([t[0] for t in sir_dataset.trajectories])
        batch = rollout(sir_field, inits, 40, sir_dataset.dt)
        assert batch.completed
        assert batch.states.shape == (41, *inits.shape)
        for i, init in enumerate(inits):
            single = rollout(sir_field, init, 40, sir_dataset.dt)
            np.testing.assert_allclose(batch.states[:, i], single.states,
                                       rtol=1e-12, atol=0.0)

    def test_batch_reports_earliest_failing_step(self):
        # each state grows by about its rate per step: the 1e50 row
        # overflows at step 7, the 1e200 row at step 2, the 1e10 row never
        rates = np.array([[1e50], [1e10], [1e200]])
        singles = [rollout(lambda x: x * r, np.ones(1), 10, 1.0).failure_step
                   for r in rates]
        assert singles == [7, None, 2]
        result = rollout(lambda x: x * rates, np.ones((3, 1)), 10, 1.0)
        assert not result.completed
        assert result.failure_step == 2
        assert result.states.shape == (2, 3, 1)
        assert np.all(np.isfinite(result.states))

    def test_divergence_truncates_with_step_index(self):
        result = rollout(lambda x: x * 1e155, np.array([1.0]), 10, 1.0)
        assert not result.completed
        assert result.failure_step is not None
        assert result.states.shape[0] == result.failure_step


class TestCutForecast:
    def test_finite_forecast_is_kept_whole(self):
        result = rollout(lambda x: -x, np.ones((2, 3)), 5, 0.1)
        arrays = (result, np.ones(6), np.ones((6, 3)))
        cut = cut_forecast(*arrays)
        assert len(cut) == 3
        assert all(a is b for a, b in zip(cut, arrays))

    def test_cut_before_first_non_finite_row(self):
        result = rollout(lambda x: -x, np.ones((2, 3)), 5, 0.1)
        curve = np.arange(6.0)
        errors = np.ones((6, 3))
        errors[4, 1] = np.inf
        errors[5] = np.nan
        cut, cut_curve, cut_errors = cut_forecast(result, curve, errors)
        assert not cut.completed
        assert cut.failure_step == 4
        assert np.array_equal(cut.states, result.states[:4])
        assert np.array_equal(cut_curve, curve[:4])
        assert np.array_equal(cut_errors, errors[:4])

    def test_non_finite_state_ends_the_forecast(self):
        # a teacher-forced replay computes every row, finite or not
        states = np.array([[1.0, 2.0], [3.0, np.inf], [5.0, 6.0]])
        cut, = cut_forecast(RolloutResult(states, True))
        assert (cut.completed, cut.failure_step) == (False, 1)
        assert np.array_equal(cut.states, states[:1])

    def test_rollout_failure_step_kept_when_rows_are_finite(self):
        result = rollout(lambda x: x * 1e200, np.ones(1), 10, 1.0)
        assert result.failure_step == 2
        rows = np.ones(2)
        cut, kept = cut_forecast(result, rows)
        assert cut is result and kept is rows

    def test_earlier_overflow_in_original_units_wins(self):
        result = rollout(lambda x: x * 1e200, np.ones(1), 10, 1.0)
        with np.errstate(over="ignore"):
            restored = result.states * 1e200
        cut, cut_restored = cut_forecast(result, restored)
        assert (cut.completed, cut.failure_step) == (False, 1)
        assert np.array_equal(cut_restored, restored[:1])


class TestPerStepMse:
    def test_exact_prediction_is_zero(self, sir_dataset):
        curve = per_step_mse(sir_dataset.trajectories, sir_dataset.trajectories)
        assert np.all(curve == 0.0)

    def test_constant_error_hand_value(self):
        truth = [np.zeros((6, 1))]
        predicted = [np.full((6, 1), 0.1)]
        assert per_step_mse(predicted, truth) == pytest.approx([0.01] * 6)

    def test_aggregation_order(self):
        rng = np.random.default_rng(0)
        truth = [rng.normal(size=(7, 3)) for _ in range(4)]
        predicted = [t + rng.normal(size=t.shape) for t in truth]
        pooled = per_step_mse(predicted, truth)
        by_component = per_step_component_mse(predicted, truth)
        assert pooled == pytest.approx(by_component.mean(axis=1))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = [rng.normal(size=(5, 2)) for _ in range(6)]
        predicted = [t + 0.3 for t in truth]
        base = per_step_mse(predicted, truth)
        order = rng.permutation(6)
        shuffled = per_step_mse([predicted[i] for i in order],
                                [truth[i] for i in order])
        assert base == pytest.approx(shuffled)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            per_step_mse([np.zeros((4, 2))], [np.zeros((5, 2))])

    def test_sum_beyond_float_range_is_inf_without_warning(self):
        # every squared error, 1e308, is finite; their sum is not
        truth = np.zeros((2, 3, 2))
        predicted = np.full_like(truth, 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = per_step_mse(predicted, truth)
            by_component = per_step_component_mse(predicted, truth)
        assert np.all(pooled == np.inf) and np.all(by_component == np.inf)


class TestPersistenceBaseline:
    def test_constant_truth_is_zero(self):
        truth = [np.full((8, 2), 0.4)]
        assert np.all(persistence_baseline(truth) == 0.0)

    def test_linear_truth_hand_value(self):
        slope, dt, steps = 0.7, 0.25, 10
        t = np.arange(steps + 1) * dt
        truth = [np.column_stack([slope * t])]
        curve = persistence_baseline(truth)
        assert curve == pytest.approx((slope * t) ** 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        truth = [rng.normal(size=(9, 3)) for _ in range(3)]
        assert np.all(persistence_baseline(truth) >= 0.0)
