from dataclasses import fields, replace

import numpy as np
import pytest

import symode as sm
from symode import epidemic
from symode.epidemic import MODEL_RATES, ModelKind, benchmark_params
from symode.errors import NumericalError


def rk4_reference(kind, params, x0, t_final, n_steps):
    """High-order fixed-step reference integrator, independent of the
    Euler generator under test."""
    x = np.asarray(x0, dtype=float)
    h = t_final / n_steps
    for _ in range(n_steps):
        k1 = sm.vector_field(kind, params, x)
        k2 = sm.vector_field(kind, params, x + 0.5 * h * k1)
        k3 = sm.vector_field(kind, params, x + 0.5 * h * k2)
        k4 = sm.vector_field(kind, params, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def euler_to(kind, params, x0, t_final, dt):
    x = np.asarray(x0, dtype=float)
    steps = int(round(t_final / dt))
    for _ in range(steps):
        x = x + dt * sm.vector_field(kind, params, x)
    return x


def euler_loop_reference(kind, params, n_traj, steps, dt, rng,
                         normalize_init=True):
    """The generator's protocol written out without ``rollout``: the same
    initial draw, every Euler step of every trajectory, then a scan of all
    states. Returns the states (steps + 1, n_traj, d) and the first step
    at which a state is not finite (None when every state is finite)."""
    kind = ModelKind(kind)
    init = rng.uniform(0.0, 1.0, size=(n_traj, kind.dim))
    if normalize_init:
        init = init / init.sum(axis=1, keepdims=True)
    states = np.empty((steps + 1, n_traj, kind.dim))
    states[0] = init
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            states[s + 1] = states[s] + dt * sm.vector_field(kind, params,
                                                             states[s])
    finite = np.isfinite(states).all(axis=(1, 2))
    return states, None if finite.all() else int(np.argmin(finite))


class TestVectorField:
    def test_sir_hand_value(self):
        params = sm.EpiParams(beta=0.9, gamma=0.2, mu=0.3, n_pop=1.0)
        deriv = sm.vector_field("sir", params, [0.5, 0.3, 0.2])
        assert deriv == pytest.approx([0.015, -0.015, 0.0], abs=1e-15)

    def test_disease_free_equilibrium(self):
        for kind in ModelKind:
            params = sm.EpiParams(mu=0.0, nu_rate=0.0)
            x = np.zeros(kind.dim)
            x[0] = 0.7                      # susceptible only
            if kind.dim >= 4:
                x[-1] = 0.3                 # removed compartments are inert
            deriv = sm.vector_field(kind, params, x)
            assert np.max(np.abs(deriv)) == 0.0

    def test_seird_mass_conservation(self):
        params = benchmark_params("seird")
        rng = np.random.default_rng(0)
        states = rng.uniform(0, 1, (1000, 5))
        sums = sm.vector_field("seird", params, states).sum(axis=1)
        assert np.max(np.abs(sums)) <= 1e-12

    def test_sir_sum_identity(self):
        params = benchmark_params("sir")
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(0, 1, 3)
            deriv = sm.vector_field("sir", params, x)
            assert deriv.sum() == pytest.approx(params.mu * (1.0 - x.sum()),
                                                abs=1e-12)

    def test_seir_sum_identity(self):
        params = benchmark_params("seir")
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(0, 1, 4)
            deriv = sm.vector_field("seir", params, x)
            assert deriv.sum() == pytest.approx(params.mu * (1.0 - x.sum()),
                                                abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm.vector_field("sir", benchmark_params("sir"), [0.5, 0.5])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sm.EpiParams(beta=-0.1)
        with pytest.raises(ValueError):
            sm.EpiParams(n_pop=0.0)

    @pytest.mark.parametrize("kind", [k.value for k in ModelKind])
    def test_model_rates_are_the_fields_read(self, kind):
        # perturbing an EpiParams field changes the field exactly when the
        # model's rate set names it, so the set cannot drift from the model
        params = benchmark_params(kind)
        states = np.random.default_rng(3).uniform(0.1, 1,
                                                  (50, ModelKind(kind).dim))
        base = sm.vector_field(kind, params, states)
        for f in fields(sm.EpiParams):
            moved = replace(params, **{f.name: getattr(params, f.name) + 0.25})
            changed = not np.array_equal(
                sm.vector_field(kind, moved, states), base)
            assert changed == (f.name in MODEL_RATES[kind]), f.name

    def test_model_dependent_sigma(self):
        assert benchmark_params("seir").sigma == 0.6
        assert benchmark_params("seird").sigma == 0.5
        # the defaults of EpiParams, which SEIRD changes only in sigma
        assert benchmark_params("sir") == benchmark_params("seir") == sm.EpiParams()
        assert benchmark_params("seird") == sm.EpiParams(
            beta=0.9, gamma=0.2, mu=0.3, sigma=0.5, nu_rate=0.2, delta=0.05,
            n_pop=1.0)


class TestGenerator:
    def test_dataset_holds_the_rollouts_own_states(self, monkeypatch):
        # one C-ordered block, no copy of each trajectory
        results = []
        rollout = epidemic.rollout

        def keep(*args):
            results.append(rollout(*args))
            return results[-1]

        monkeypatch.setattr(epidemic, "rollout", keep)
        data = sm.generate_trajectories("sir", benchmark_params("sir"), 5, 4,
                                        0.2, np.random.default_rng(11))
        states, = (result.states for result in results)
        assert data.trajectories.flags.c_contiguous
        assert np.shares_memory(data.trajectories, states)
        assert np.array_equal(data.trajectories, states.swapaxes(0, 1))

    def test_shapes_and_rows(self):
        rng = np.random.default_rng(3)
        data = sm.generate_trajectories("seir", benchmark_params("seir"),
                                        5, 40, 0.2, rng)
        assert data.n_trajectories == 5
        assert all(t.shape == (41, 4) for t in data.trajectories)
        assert data.var_names == ("S", "E", "I", "R")

    def test_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for kind in ModelKind:
            data = sm.generate_trajectories(kind, benchmark_params(kind),
                                            4, 100, 0.2, rng)
            for traj in data.trajectories:
                assert np.max(np.abs(traj.sum(axis=1) - 1.0)) <= 1e-12

    def test_unnormalized_initial_conditions(self):
        rng = np.random.default_rng(5)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        20, 5, 0.2, rng, normalize_init=False)
        sums = np.array([t[0].sum() for t in data.trajectories])
        assert not np.allclose(sums, 1.0)

    def test_deterministic_under_seed(self):
        params = benchmark_params("sir")
        a = sm.generate_trajectories("sir", params, 3, 10, 0.2,
                                     np.random.default_rng(42))
        b = sm.generate_trajectories("sir", params, 3, 10, 0.2,
                                     np.random.default_rng(42))
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize("normalize_init", [True, False])
    @pytest.mark.parametrize("kind", [k.value for k in ModelKind])
    def test_matches_the_euler_loop_bit_for_bit(self, kind, normalize_init):
        params = benchmark_params(kind)
        data = sm.generate_trajectories(kind, params, 7, 250, 0.2,
                                        np.random.default_rng(11),
                                        normalize_init)
        states, failure = euler_loop_reference(kind, params, 7, 250, 0.2,
                                               np.random.default_rng(11),
                                               normalize_init)
        assert failure is None
        assert len(data.trajectories) == 7
        for i, traj in enumerate(data.trajectories):
            assert traj.tobytes() == states[:, i].tobytes()

    @pytest.mark.parametrize("kind, beta, step", [
        ("sir", 1e3, 8), ("seir", 1e10, 8), ("seird", 1e50, 4),
        ("sir", 1e300, 2)])
    def test_overflow_names_the_first_non_finite_step(self, kind, beta, step):
        params = replace(benchmark_params(kind), beta=beta)
        _, failure = euler_loop_reference(kind, params, 6, 40, 0.2,
                                          np.random.default_rng(0))
        assert failure == step
        with pytest.raises(NumericalError) as raised:
            sm.generate_trajectories(kind, params, 6, 40, 0.2,
                                     np.random.default_rng(0))
        assert str(raised.value) == (f"{kind} simulation at dt=0.2: a state "
                                     f"is not finite at step {step}")

    def test_euler_is_first_order(self):
        """Fixed-horizon global error halves when the step halves."""
        params = benchmark_params("sir")
        x0 = np.array([0.6, 0.3, 0.1])
        t_final = 4.0
        ref = rk4_reference("sir", params, x0, t_final, 4000)
        err_coarse = np.linalg.norm(euler_to("sir", params, x0, t_final, 0.2) - ref)
        err_fine = np.linalg.norm(euler_to("sir", params, x0, t_final, 0.1) - ref)
        ratio = err_coarse / err_fine
        assert 1.7 <= ratio <= 2.3


class TestSplit:
    def test_even_split_of_200(self):
        rng = np.random.default_rng(6)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        200, 2, 0.2, rng)
        train, test = sm.train_test_split(data, 0.5)
        assert train.n_trajectories == 100
        assert test.n_trajectories == 100
        assert train.split == "train" and test.split == "test"

    def test_two_trajectories(self):
        rng = np.random.default_rng(7)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        2, 2, 0.2, rng)
        train, test = sm.train_test_split(data, 0.5)
        assert train.n_trajectories == 1
        assert test.n_trajectories == 1

    def test_union_is_disjoint_partition(self):
        rng = np.random.default_rng(8)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        9, 3, 0.2, rng)
        train, test = sm.train_test_split(data, 0.4)
        combined = [tuple(t[0]) for t in train.trajectories]
        combined += [tuple(t[0]) for t in test.trajectories]
        original = [tuple(t[0]) for t in data.trajectories]
        assert sorted(combined) == sorted(original)
        assert len(combined) == 9

    def test_subsets_hold_the_input_arrays(self):
        rng = np.random.default_rng(10)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        5, 4, 0.2, rng)
        train, test = sm.train_test_split(data, 0.6)
        # views of the input's one array, which together hold its bytes in
        # order
        for subset in (train, test):
            assert not subset.trajectories.flags.owndata
            assert np.shares_memory(subset.trajectories, data.trajectories)
        assert (train.trajectories.tobytes() + test.trajectories.tobytes()
                == data.trajectories.tobytes())

    def test_too_few_trajectories(self):
        rng = np.random.default_rng(9)
        data = sm.generate_trajectories("sir", benchmark_params("sir"),
                                        1, 3, 0.2, rng)
        with pytest.raises(ValueError):
            sm.train_test_split(data, 0.5)
