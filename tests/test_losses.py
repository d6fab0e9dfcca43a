import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symode as sm
from symode import expressions as ex
from symode import losses as losses_mod
from symode.datasets import TrajectoryDataset
from symode.errors import EvaluationError
from symode.losses import (QR_BUDGET, ComponentSamples,
                           EulerResidualObjective, tsqr)

from conftest import random_sequence


def single_pair_dataset(x0, x1, dt):
    return TrajectoryDataset([np.array([x0, x1], dtype=float)], dt,
                             tuple(f"x{j}" for j in range(len(x0))))


def central_differences(objective, theta, h=1e-6):
    fd = np.zeros_like(theta)
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        fd[k] = (objective.loss(up) - objective.loss(down)) / (2 * h)
    return fd


def zero_expr(d):
    template = sm.build_template("type2", d)
    return sm.CompiledExpression(template, ("0", "0", "add", "0", "add"),
                                 np.zeros(3 * (d + 1)))


def true_dr_expr():
    # dR/dt = 0.2 I - 0.3 R in (S, I, R) coordinates
    template = sm.build_template("type1", 3)
    theta = np.array([0, 0.2, 0, 0.0, 0, 0, 0.3, 0.0, 1.0, 0.0])
    return sm.CompiledExpression(template, ("id", "id", "sub", "id"), theta)


class TestEulerResidualLoss:
    def test_true_component_gives_zero_loss(self, sir_dataset):
        loss = sm.euler_residual_loss(true_dr_expr(), sir_dataset, 2)
        assert loss <= 1e-28

    def test_zero_expression_constant_series(self):
        traj = np.column_stack([np.full(6, 0.3), np.linspace(0, 1, 6)])
        data = TrajectoryDataset([traj], 0.5, ("a", "b"))
        assert sm.euler_residual_loss(zero_expr(2), data, 0) == 0.0

    def test_hand_computed_single_pair(self):
        data = single_pair_dataset([0.0, 0.0], [0.1, 0.0], dt=0.2)
        assert sm.euler_residual_loss(zero_expr(2), data, 0) == pytest.approx(0.01)

    def test_nonfinite_expression_is_inf_sentinel(self):
        template = sm.build_template("type2", 1)
        theta = np.zeros(6)
        expr = sm.CompiledExpression(template, ("id", "id", "mul", "id", "add"),
                                     theta)
        bad = sm.CompiledExpression(template, expr.sequence,
                                    np.array([1e200, 0, 1e200, 0, 1e200, 0]))
        data = single_pair_dataset([1e200], [1e200], dt=1.0)
        assert sm.euler_residual_loss(bad, data, 0) == float("inf")

    def test_nonfinite_expression_has_zero_gradient(self):
        template = sm.build_template("type2", 1)
        sequence = ("id", "id", "mul", "id", "add")
        data = single_pair_dataset([1e200], [1e200], dt=1.0)
        objective = EulerResidualObjective(template, sequence,
                                           ComponentSamples(data, 0))
        loss, grad = objective.loss_and_grad(
            np.array([1e200, 0, 1e200, 0, 1e200, 0]))
        assert loss == float("inf")
        assert np.array_equal(grad, np.zeros(6))

    def test_zero_field_equals_mean_squared_increments(self, sir_dataset):
        expr = zero_expr(3)
        x, x_next = sir_dataset.stacked_pairs()
        expected = float(np.mean((x_next[:, 1] - x[:, 1]) ** 2))
        assert sm.euler_residual_loss(expr, sir_dataset, 1) == pytest.approx(
            expected, rel=1e-12)

    def test_pooling_matches_pair_enumeration(self, sir_dataset):
        expr = true_dr_expr()
        total, count = 0.0, 0
        for traj in sir_dataset.trajectories:
            for s in range(traj.shape[0] - 1):
                phi = sm.evaluate(expr, traj[s])
                r = traj[s + 1, 2] - traj[s, 2] - phi * sir_dataset.dt
                total += r * r
                count += 1
        assert sm.euler_residual_loss(expr, sir_dataset, 2) == pytest.approx(
            total / count, rel=1e-12, abs=1e-30)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25)
    def test_trajectory_order_invariance(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(10_000))
        trajectories = [rng.uniform(0, 1, (int(rng.integers(2, 8)), 2))
                        for _ in range(4)]
        data = TrajectoryDataset(trajectories, 0.3, ("a", "b"))
        order = list(range(4))
        rng.shuffle(order)
        shuffled = TrajectoryDataset([trajectories[i] for i in order], 0.3,
                                     ("a", "b"))
        template = sm.build_template("type2", 2)
        seq = ("id", "sin", "mul", "square", "add")
        theta = rng.uniform(-1, 1, 9)
        expr = sm.CompiledExpression(template, seq, theta)
        assert sm.euler_residual_loss(expr, data, 1) == pytest.approx(
            sm.euler_residual_loss(expr, shuffled, 1), rel=1e-12)


class TestLossGradient:
    def test_zero_residuals_zero_gradient(self, sir_dataset):
        loss, grad = sm.loss_and_gradient(true_dr_expr(), sir_dataset, 2)
        assert loss <= 1e-28
        assert np.max(np.abs(grad)) <= 1e-12

    def test_single_pair_hand_chain_rule(self):
        # f = alpha * x + beta (d = 1, id leaf isolated in a type2 tree)
        template = sm.build_template("type2", 1)
        seq = ("id", "0", "add", "0", "add")
        alpha, beta = 0.7, -0.2
        theta = np.array([alpha, beta, 0.0, 0.0, 0.0, 0.0])
        expr = sm.CompiledExpression(template, seq, theta)
        x0, x1, dt = 0.5, 0.8, 0.2
        data = single_pair_dataset([x0], [x1], dt)
        loss, grad = sm.loss_and_gradient(expr, data, 0)
        r = x1 - x0 - (alpha * x0 + beta) * dt
        assert loss == pytest.approx(r * r)
        assert grad[0] == pytest.approx(-2 * dt * r * x0)
        assert grad[1] == pytest.approx(-2 * dt * r)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            kind = ("type1", "type2")[rng.integers(2)]
            d = int(rng.integers(1, 4))
            template = sm.build_template(kind, d)
            seq = random_sequence(template, rng)
            n_rows = int(rng.integers(3, 12))
            data = TrajectoryDataset([rng.uniform(0, 1, (n_rows, d))], 0.2,
                                     tuple(f"x{j}" for j in range(d)))
            comp = int(rng.integers(d))
            obj = EulerResidualObjective(template, seq,
                                         ComponentSamples(data, comp))
            theta = rng.uniform(-2, 2, obj.n_params)
            _, grad = obj.loss_and_grad(theta)
            fd = central_differences(obj, theta, h=1e-5)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-5

    def test_component_out_of_range(self, sir_dataset):
        template = sm.build_template("type2", 3)
        with pytest.raises(ValueError):
            EulerResidualObjective(template,
                                   ("id",) * 2 + ("add", "id", "add"),
                                   ComponentSamples(sir_dataset, 3))


class TestComponentSamples:
    """A component search shares one sample set among its feature factor
    and every objective, so no fit may change it, and an objective on a
    set that other sequences used is the objective on a fresh set."""

    def test_arrays_are_read_only(self, sir_dataset):
        samples = ComponentSamples(sir_dataset, 1)
        assert set(samples.features) == set(ex.UNARY_TAGS)
        for array in (samples.dy, *samples.features.values()):
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                np.add(array, 1.0, out=array)

    @pytest.mark.parametrize("kind,seq", [
        ("type1", ("sin", "id", "mul", "cos")),
        ("type2", ("sin", "id", "mul", "exp", "add"))])
    def test_a_used_set_gives_the_bits_of_a_fresh_one(self, sir_dataset,
                                                      kind, seq):
        import symode.search as search_mod

        template = sm.build_template(kind, 3)
        shared = ComponentSamples(sir_dataset, 2)
        kept = [a.copy() for a in (shared.dy, *shared.features.values())]
        factor = search_mod.feature_factor(shared)
        rng = np.random.default_rng(21)
        for _ in range(8):
            sm.score_sequence(random_sequence(template, rng), template,
                              shared, rng, factor)
        assert all(np.array_equal(a, b) for a, b in zip(
            kept, (shared.dy, *shared.features.values())))
        theta = rng.uniform(-1, 1, template.n_params)
        bits = []
        for samples in (shared, ComponentSamples(sir_dataset, 2)):
            objective = EulerResidualObjective(template, seq, samples)
            loss, r, jacobian = objective.residual(theta)
            bits.append((float(objective.loss(theta)).hex(), float(loss).hex(),
                         r.tobytes(), jacobian().tobytes()))
        assert bits[0] == bits[1]


def test_loss_and_grad_runs_one_forward_pass(monkeypatch, sir_dataset):
    """Loss and gradient both read one forward pass per call."""
    calls = []
    forward_pass = ex.forward_pass

    def counting(*args):
        calls.append(args)
        return forward_pass(*args)

    monkeypatch.setattr(ex, "forward_pass", counting)
    template = sm.build_template("type1", 3)
    obj = EulerResidualObjective(template, ("id", "sin", "mul", "exp"),
                                 ComponentSamples(sir_dataset, 1))
    theta = np.full(obj.n_params, 0.1)
    loss, grad = obj.loss_and_grad(theta)
    assert np.isfinite(loss) and np.any(grad != 0.0)
    assert len(calls) == 1
    assert obj.loss(theta) == loss
    assert len(calls) == 2


def reference_loss_and_grad(template, sequence, theta, data, component):
    """The objective's loss and gradient from a walk of ``template.nodes``
    and ``template.slices``, one node at a time and in the operations the
    compiled plan must reproduce bit for bit: the residual's Jacobian J,
    seeded with -dt on every sample and each parameter's column kept per
    sample, and the gradient 2 J'r / M, reduced as the package reduces it:
    one dot product per row of a C-ordered J'."""
    X, X_next = data.stacked_pairs()
    dy = X_next[:, component] - X[:, component]
    m = X.shape[0]
    n = len(template.nodes)
    values, caches = [None] * n, [None] * n
    for i, node in enumerate(template.nodes):
        tag = sequence[i]
        if node.kind == "binary":
            a, b = (values[c] for c in node.children)
            values[i] = a + b if tag == "add" else a - b if tag == "sub" else a * b
            continue
        t = theta[template.slices[i]]
        if node.is_leaf:
            caches[i] = ex.UNARY_RULES[tag][0](X)
            values[i] = caches[i] @ t[:-1] + t[-1]
        else:
            caches[i] = ex.UNARY_RULES[tag][0](values[node.children[0]])
            values[i] = t[0] * caches[i] + t[1]
    r = dy - values[-1] * data.dt
    loss = ex._dot(r, r) / m
    adj = [None] * n
    adj[-1] = np.full(m, -data.dt)
    J = np.zeros((m, template.n_params))
    for i in reversed(range(n)):
        node, tag, a = template.nodes[i], sequence[i], adj[i]
        if node.kind == "binary":
            left, right = node.children
            if tag == "add":
                adj[left], adj[right] = a, a
            elif tag == "sub":
                adj[left], adj[right] = a, -a
            else:
                adj[left], adj[right] = a * values[right], a * values[left]
            continue
        sl = template.slices[i]
        if node.is_leaf:
            J[:, sl.start:sl.stop - 1] = caches[i] * a[:, None]
        else:
            (c,) = node.children
            J[:, sl.start] = a * caches[i]
            adj[c] = a * (theta[sl][0] * ex.UNARY_RULES[tag][1](values[c]))
        J[:, sl.stop - 1] = a
    return loss, (2.0 / m) * (np.ascontiguousarray(J.T) @ r)


def hexes(loss, grad):
    return float(loss).hex(), [float(g).hex() for g in grad]


@pytest.mark.parametrize("kind", ["type1", "type2"])
@pytest.mark.parametrize("trajectories, steps", [(10, 125), (11, 1000)])
def test_compiled_plan_matches_the_template_walk(kind, trajectories, steps):
    """The direct objective walks a plan compiled once per sequence; its
    loss and every gradient entry have the bits of the template walk, on
    M = 1,250 and on M past DOT_BUDGET, where the sample dot products run
    in chunks. Where phi overflows, both losses are inf and the objective's
    gradient is zero."""
    data = sm.generate_trajectories("sir", sm.benchmark_params("sir"),
                                    trajectories, steps, 0.2,
                                    np.random.default_rng(3))
    assert (data.stacked_pairs()[0].shape[0] > ex.DOT_BUDGET) == (
        steps == 1000)
    template = sm.build_template(kind, 3)
    rng = np.random.default_rng(21)
    # every leaf is about 1e200: phi overflows, or the residual's square
    # does where the root keeps phi finite
    huge = np.full(template.n_params, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(6):
            seq = random_sequence(template, rng)
            component = int(rng.integers(3))
            objective = EulerResidualObjective(
                template, seq, ComponentSamples(data, component))
            for theta in (rng.uniform(-1, 1, template.n_params),
                          rng.uniform(-3, 3, template.n_params)):
                assert hexes(*objective.loss_and_grad(theta)) == hexes(
                    *reference_loss_and_grad(template, seq, theta, data,
                                             component))
                assert objective.loss(theta) == objective.loss_and_grad(
                    theta)[0]
            loss, _ = reference_loss_and_grad(template, seq, huge, data,
                                              component)
            assert not np.isfinite(loss)
            loss, grad = objective.loss_and_grad(huge)
            assert loss == objective.loss(huge) == float("inf")
            assert np.array_equal(grad, np.zeros(template.n_params))


@pytest.mark.parametrize("kind, sequence, scale, phi_finite", [
    ("type1", ("cube", "id", "mul", "square"), 1e200, False),   # phi is inf
    ("type1", ("id", "id", "sub", "sin"), 1e308, False),        # phi is nan
    ("type2", ("exp", "cube", "mul", "id", "add"), 1e200, False),
    ("type2", ("1", "0", "add", "0", "add"), 1e200, True),  # r @ r overflows
])
def test_public_entries_do_not_warn_at_overflow(sir_dataset, kind, sequence,
                                                scale, phi_finite):
    """Inside a fit the minimizers hold one np.errstate for the whole fit;
    every public entry holds its own or reads ``residual``, which holds
    one, so an overflowing theta gives the entry's sentinel or its named
    error, never a RuntimeWarning."""
    template = sm.build_template(kind, 3)
    theta = np.full(template.n_params, scale)
    expr = sm.CompiledExpression(template, sequence, theta)
    x = sir_dataset.trajectories[0][:5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        objective = EulerResidualObjective(template, sequence,
                                           ComponentSamples(sir_dataset, 0))
        assert objective.loss(theta) == float("inf")
        loss, grad = objective.loss_and_grad(theta)
        assert loss == float("inf")
        assert np.array_equal(grad, np.zeros(template.n_params))
        assert losses_mod.euler_residual_loss(expr, sir_dataset, 0) == float(
            "inf")
        loss, grad = losses_mod.loss_and_gradient(expr, sir_dataset, 0)
        assert loss == float("inf")
        assert np.array_equal(grad, np.zeros(template.n_params))
        assert np.isfinite(ex.evaluate_batch(expr, x)).all() == phi_finite
        if not phi_finite:
            with pytest.raises(EvaluationError):
                ex.param_gradient(expr, x[0])


# the nonlinear type2 shapes: ab is (l0 +- l1) * l3, ab+c is (l0 * l1) +- l3
# and abc is (l0 * l1) * l3; with add and sub, a repeated tag and the
# constant leaves '0' and '1'
AB = [("sin", "id", "add", "exp", "mul"),
      ("square", "cube", "sub", "id", "mul"),
      ("id", "id", "add", "sin", "mul"),
      ("0", "id", "sub", "cos", "mul"),
      ("1", "exp", "add", "square", "mul")]
AB_PLUS_C = [("sin", "id", "mul", "exp", "add"),
             ("id", "square", "mul", "quartic", "sub"),
             ("cos", "cos", "mul", "1", "add"),
             ("exp", "id", "mul", "0", "sub")]
ABC = ("id", "sin", "mul", "cube", "mul")


# per template kind: (sequence, scale of a theta full of it, what phi is
# on the samples there)
EVALUATION_CASES = {
    "type1": [(("cube", "id", "mul", "square"), 0.5, "finite"),
              (("cube", "id", "mul", "square"), 1e200, "inf"),
              (("id", "id", "sub", "sin"), 1e308, "nan"),
              (("id", "id", "add", "id"), 1e150, "square overflows")],
    "type2": [(("exp", "cube", "mul", "id", "add"), 0.5, "finite"),
              (("exp", "cube", "mul", "id", "add"), 1e200, "inf"),
              (("id", "id", "sub", "0", "add"), 1e308, "nan"),
              (("1", "0", "add", "0", "add"), 1e200, "square overflows")],
}


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_loss_is_the_residual_evaluation(sir_dataset, kind):
    """``loss`` reads ``residual``, the objective's one forward pass: the
    same bits on a finite theta, and the +inf sentinel with no Jacobian
    where phi overflows, where it is nan and where the residual's square
    overflows."""
    template = sm.build_template(kind, 3)
    samples = ComponentSamples(sir_dataset, 0)
    X = sir_dataset.stacked_pairs()[0]
    for sequence, scale, phi in EVALUATION_CASES[kind]:
        theta = np.full(template.n_params, scale)
        with np.errstate(over="ignore", invalid="ignore"):
            values = ex.evaluate_batch(
                sm.CompiledExpression(template, sequence, theta), X)
        if phi == "inf":
            assert np.isinf(values).any() and not np.isnan(values).any()
        elif phi == "nan":
            assert np.isnan(values).any()
        else:
            assert np.isfinite(values).all()
        objective = EulerResidualObjective(template, sequence, samples)
        loss, _, jacobian = objective.residual(theta)
        assert objective.loss(theta).hex() == loss.hex()
        assert (jacobian is None) == (phi != "finite")
        if phi == "finite":
            assert math.isfinite(loss)
        else:
            assert loss == float("inf")


class TestNonlinearShapes:
    """The Euler residual objective on the nonlinear type2 shapes, which
    every type2 fit past the closed form runs Levenberg–Marquardt on."""

    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    @pytest.mark.parametrize("seq", AB + AB_PLUS_C)
    def test_matches_the_template_walk_and_finite_differences(
            self, request, dataset, seq):
        data = request.getfixturevalue(dataset)
        template = sm.build_template("type2", 3)
        rng = np.random.default_rng(7)
        for component in range(3):
            objective = EulerResidualObjective(
                template, seq, ComponentSamples(data, component))
            theta = rng.uniform(-1, 1, template.n_params)
            loss, grad = objective.loss_and_grad(theta)
            assert hexes(loss, grad) == hexes(*reference_loss_and_grad(
                template, seq, theta, data, component))
            assert objective.loss(theta) == loss
            fd = central_differences(objective, theta)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    @pytest.mark.parametrize("seq", [AB[0], AB_PLUS_C[0], ABC])
    def test_jacobian_is_that_of_the_stacked_pairs(self, request, dataset,
                                                   seq):
        # the reference builds each leaf's block [f(X), 1] from the pairs,
        # one leaf rule at a time, and chains the two binary nodes by hand:
        # d phi / d leaf is the product of the binary partials on its path
        data = request.getfixturevalue(dataset)
        template = sm.build_template("type2", 3)
        X, _ = data.stacked_pairs()
        theta = np.random.default_rng(8).uniform(-1, 1, template.n_params)
        blocks = {i: np.column_stack([ex.UNARY_RULES[seq[i]][0](X),
                                      np.ones(len(X))])
                  for i, node in enumerate(template.nodes) if node.is_leaf}
        v = {i: block @ theta[template.slices[i]]
             for i, block in blocks.items()}

        def partials(tag, a, b):
            # d (a tag b) / da and d (a tag b) / db
            if tag == "mul":
                return b, a
            one = np.ones_like(a)
            return one, -one if tag == "sub" else one

        v2 = (v[0] * v[1] if seq[2] == "mul" else
              v[0] + v[1] if seq[2] == "add" else v[0] - v[1])
        d2, d3 = partials(seq[4], v2, v[3])
        d0, d1 = partials(seq[2], v[0], v[1])
        chain = {0: d2 * d0, 1: d2 * d1, 3: d3}
        expected = np.zeros((len(X), template.n_params))
        for i, block in blocks.items():
            expected[:, template.slices[i]] = (-data.dt * chain[i][:, None]
                                               * block)
        for component in range(3):
            objective = EulerResidualObjective(
                template, seq, ComponentSamples(data, component))
            _, _, jacobian = objective.residual(theta)
            J = jacobian()
            assert np.abs(J - expected).max() <= 1e-12 * np.abs(expected).max()


def residual_differences(objective, theta, h=1e-6):
    """Central differences of ``objective``'s residual, one column per
    parameter."""
    columns = []
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        columns.append((objective.residual(up)[1]
                        - objective.residual(down)[1]) / (2 * h))
    return np.column_stack(columns)


class TestResidualJacobian:
    """The residual Jacobian against central differences, and 2 J'r / M
    against ``loss_and_grad``'s gradient, on random type1 and type2
    sequences; 12,000 pairs is above DOT_BUDGET. The second check is an
    identity, since ``loss_and_grad`` computes 2 J'r / M from
    ``residual``; the central differences carry it."""

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    @pytest.mark.parametrize("pairs", [1250, 12000])
    def test_matches_differences_and_the_gradient(self, kind, pairs):
        assert 12000 > ex.DOT_BUDGET
        rng = np.random.default_rng(pairs)
        data = TrajectoryDataset([rng.uniform(-1, 1, (pairs + 1, 3))], 0.1,
                                 ("x0", "x1", "x2"))
        template = sm.build_template(kind, 3)
        checked = 0
        for _ in range(6):
            seq = random_sequence(template, rng)
            objective = EulerResidualObjective(template, seq,
                                               ComponentSamples(data, 0))
            theta = rng.uniform(-1, 1, template.n_params)
            loss, r, jacobian = objective.residual(theta)
            assert loss == pytest.approx(float(r @ r) / pairs, rel=1e-12)
            J = jacobian()
            assert J.shape == (r.size, template.n_params)
            fd = residual_differences(objective, theta)
            assert np.abs(J - fd).max() <= 1e-6 * max(np.abs(J).max(), 1)
            grad = objective.loss_and_grad(theta)[1]
            assert (np.linalg.norm(2 * (J.T @ r) / pairs - grad)
                    <= 1e-11 * np.linalg.norm(grad))
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_jacobian_is_a_view_of_parameter_rows(self, kind, sir_dataset):
        """The residual Jacobian is M x n_params, the transpose of a
        C-ordered J' whose rows J'J and J'r read whole; a one-point
        Jacobian's row is ``param_gradient``, bit for bit."""
        rng = np.random.default_rng(3)
        template = sm.build_template(kind, 3)
        seq = random_sequence(template, rng)
        samples = ComponentSamples(sir_dataset, 0)
        objective = EulerResidualObjective(template, seq, samples)
        theta = rng.uniform(-1, 1, template.n_params)
        J = objective.residual(theta)[2]()
        assert J.shape == (samples.m, template.n_params)
        assert J.T.flags.c_contiguous
        expr = sm.CompiledExpression(template, seq, theta)
        x = sir_dataset.stacked_pairs()[0][:1]
        values, caches = ex.forward_pass(expr.plan, theta,
                                         ex.leaf_values(expr.plan, x))
        row = ex.param_jacobian(expr.plan, theta, values, caches, 1.0)
        assert row.shape == (1, template.n_params)
        assert sm.param_gradient(expr, x[0]).tobytes() == row[0].tobytes()

    def test_residual_has_no_jacobian_at_a_non_finite_loss(self):
        data = single_pair_dataset([1e200, 0.0], [0.0, 0.0], 1.0)
        template = sm.build_template("type2", 2)
        objective = EulerResidualObjective(
            template, ("quartic", "0", "add", "0", "add"),
            ComponentSamples(data, 0))
        loss, _, jacobian = objective.residual(np.ones(template.n_params))
        assert loss == float("inf") and jacobian is None

    def test_residual_runs_no_reverse_sweep(self, monkeypatch, sir_dataset):
        def refuse(*args):
            raise AssertionError("reverse sweep run")

        objectives = [EulerResidualObjective(sm.build_template(kind, 3), seq,
                                             ComponentSamples(sir_dataset, 0))
                      for kind, seq in (("type1", ("sin", "id", "mul", "cos")),
                                        ("type2", AB[0]))]
        monkeypatch.setattr(ex, "param_jacobian", refuse)
        for objective in objectives:
            theta = np.full(objective.n_params, 0.3)
            assert np.isfinite(objective.residual(theta)[0])
            with pytest.raises(AssertionError, match="reverse sweep run"):
                objective.residual(theta)[2]()


class TestPowerTagGradients:
    """Gradient oracles for the power tags in every place a tree puts them;
    the random oracles above draw cube and quartic only by chance."""

    @pytest.mark.parametrize("tag", ["cube", "quartic"])
    @pytest.mark.parametrize("children", [("id", "sin", "mul"),
                                          ("square", "id", "add")])
    def test_type1_root(self, sir_dataset, tag, children):
        template = sm.build_template("type1", 3)
        rng = np.random.default_rng(14)
        for component in range(3):
            objective = EulerResidualObjective(
                template, children + (tag,),
                ComponentSamples(sir_dataset, component))
            theta = rng.uniform(-1, 1, objective.n_params)
            _, grad = objective.loss_and_grad(theta)
            fd = central_differences(objective, theta)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    @pytest.mark.parametrize("tag", ["cube", "quartic"])
    @pytest.mark.parametrize("shape", [("mul", "add"), ("sub", "mul")])
    def test_type2_leaves(self, request, dataset, tag, shape):
        data = request.getfixturevalue(dataset)
        template = sm.build_template("type2", 3)
        seq = (tag, "id", shape[0], tag, shape[1])
        rng = np.random.default_rng(14)
        for component in range(3):
            objective = EulerResidualObjective(
                template, seq, ComponentSamples(data, component))
            theta = rng.uniform(-1, 1, template.n_params)
            _, grad = objective.loss_and_grad(theta)
            fd = central_differences(objective, theta)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)


def test_tsqr_gives_the_gram_matrix_and_rejects_non_finite():
    A = np.random.default_rng(3).standard_normal((1000, 20))
    R = tsqr(A)
    assert R.shape == (20, 20)
    gram = A.T @ A
    # relative to the whole matrix: entries near 0 carry its rounding too
    assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram)
    A[517, 4] = np.nan
    assert tsqr(A) is None


def test_every_factor_qr_stays_within_the_budget(monkeypatch):
    """No QR of a feature factor wakes BLAS threads, at d = 3 and d = 5;
    the nonlinear ab, ab+c and abc shapes are fitted on the Euler residual
    and factor nothing."""
    import symode.search as search_mod

    shapes = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    for model, d in (("sir", 3), ("seird", 5)):
        data = sm.generate_trajectories(model, sm.benchmark_params(model), 4,
                                        300, 0.2, np.random.default_rng(1))
        template = sm.build_template("type2", d)
        samples = ComponentSamples(data, 0)
        factor = search_mod.feature_factor(samples)
        for seq in (AB[0], AB_PLUS_C[0], ABC):
            sm.score_sequence(seq, template, samples,
                              np.random.default_rng(0), factor)
    assert max(rows * cols for rows, cols in shapes) <= QR_BUDGET
    widths = {cols for _, cols in shapes}
    # the feature factors: 7 tags x d states, the ones and the target
    assert widths == {23, 37}


# The loss and gradient of a type2 and a type1 sequence on 25,000 random
# pairs of 3 states, and of a type2 sequence on 25,000 pairs of 5 states
# (18 parameters): each loss, and the gradient of type1's interior node, is
# a dot product over the samples; and the normal equations J'J and J'r
# that Levenberg–Marquardt forms from the 25,000-row Jacobian of the
# residual.
SAMPLE_DOT_SCRIPT = """
import numpy as np
import symode as sm
from symode.datasets import TrajectoryDataset
from symode.errors import EvaluationError
from symode.losses import ComponentSamples
rng = np.random.default_rng(0)
for kind, d, seq in (("type2", 3, ("sin", "id", "mul", "exp", "add")),
                     ("type1", 3, ("sin", "id", "mul", "cos")),
                     ("type2", 5, ("sin", "id", "mul", "exp", "add"))):
    data = TrajectoryDataset([rng.uniform(-1, 1, (25001, d))], 0.1,
                             tuple(f"x{j}" for j in range(d)))
    objective = sm.EulerResidualObjective(sm.build_template(kind, d), seq,
                                          ComponentSamples(data, 0))
    theta = rng.uniform(-1, 1, objective.n_params)
    loss, grad = objective.loss_and_grad(theta)
    _, r, jacobian = objective.residual(theta)
    J = jacobian()
    print(float.hex(loss), *map(float.hex, grad),
          *map(float.hex, (J.T @ J).ravel()), *map(float.hex, J.T @ r))
"""


def test_sample_dot_products_do_not_depend_on_blas_threads():
    """OpenBLAS splits a dot product of more than 10,000 entries among its
    threads; the objective's loss, gradient and normal equations have the
    same bits with one thread and with two, at 3 states and at 5."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.append(subprocess.run(
            [sys.executable, "-c", SAMPLE_DOT_SCRIPT], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 3


def test_sample_dot_product_overflows_to_inf_and_nan():
    """Chunk sums add as IEEE floats: a total past the float range is inf,
    and chunks of opposite infinite sign give nan, as one ``a @ b`` does.
    Callers silence numpy's overflow warning, as the minimizers do."""
    big = np.full(2 * ex.DOT_BUDGET, 1e152)
    assert ex._dot(big, big) == float("inf")
    signs = np.repeat([1.0, -1.0], ex.DOT_BUDGET)
    with np.errstate(over="ignore"):
        assert np.isnan(ex._dot(big * signs, np.full(big.size, 1e200)))
