import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symode as sm
from symode.errors import EvaluationError
from symode.expressions import (EXP_CLAMP, batch_jacobian, leaf_string,
                                to_symbolic_string)

from conftest import random_sequence

UNARY = sm.UNARY_TAGS
BINARY = sm.BINARY_TAGS


def make_expr(kind, d, sequence, params):
    template = sm.build_template(kind, d)
    return sm.CompiledExpression(template, sequence, np.asarray(params, float))


def leaf_only_type2(d, tag, alpha, beta):
    """Type2 expression that reduces to a single leaf: other leaves zeroed
    and combined with add."""
    params = np.zeros(3 * (d + 1))
    params[:d] = alpha
    params[d] = beta
    return make_expr("type2", d, (tag, "0", "add", "0", "add"), params)


class TestTemplates:
    def test_type1_slot_structure(self):
        t = sm.build_template("type1", 3)
        assert t.n_slots == 4
        assert t.slot_kinds() == ("unary", "unary", "binary", "unary")

    def test_type2_slot_structure(self):
        t = sm.build_template("type2", 3)
        assert t.n_slots == 5
        assert t.slot_kinds() == ("unary", "unary", "binary", "unary", "binary")

    def test_type2_dim1_leaf_vectors(self):
        t = sm.build_template("type2", 1)
        assert t.n_slots == 5
        # each leaf carries a length-1 alpha plus a beta
        assert sm.param_count(t, ("id", "id", "add", "id", "add")) == 6

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            sm.build_template("type3", 3)
        with pytest.raises(ValueError):
            sm.build_template("type1", 0)


class TestParamCount:
    def test_type2_d3(self):
        t = sm.build_template("type2", 3)
        assert sm.param_count(t, ("id", "sin", "mul", "exp", "add")) == 12

    def test_type1_d1(self):
        t = sm.build_template("type1", 1)
        assert sm.param_count(t, ("id", "id", "sub", "id")) == 6

    def test_type2_d5(self):
        t = sm.build_template("type2", 5)
        assert sm.param_count(t, ("cos", "cube", "mul", "quartic", "sub")) == 18

    def test_sequence_template_mismatch(self):
        t = sm.build_template("type2", 3)
        with pytest.raises(ValueError):
            sm.param_count(t, ("id", "id", "sub", "id"))
        with pytest.raises(ValueError):
            sm.param_count(t, ("id", "id", "id", "id", "id"))

    def test_matches_gradient_length(self):
        rng = np.random.default_rng(5)
        for kind in ("type1", "type2"):
            for d in (1, 2, 4):
                t = sm.build_template(kind, d)
                seq = random_sequence(t, rng)
                p = sm.param_count(t, seq)
                expr = sm.CompiledExpression(t, seq, rng.uniform(-1, 1, p))
                assert sm.param_gradient(expr, rng.uniform(-1, 1, d)).shape == (p,)


class TestEvaluate:
    def test_square_leaf_hand_value(self):
        expr = leaf_only_type2(2, "square", [1.0, 2.0], 0.5)
        assert sm.evaluate(expr, [2.0, 3.0]) == pytest.approx(22.5, abs=1e-12)

    def test_id_leaf_zero_scales_is_constant(self):
        rng = np.random.default_rng(0)
        expr = leaf_only_type2(3, "id", [0.0, 0.0, 0.0], -1.75)
        for _ in range(5):
            assert sm.evaluate(expr, rng.normal(size=3)) == pytest.approx(-1.75)

    def test_three_factor_product_at_origin(self):
        # the recovered-cases rate equation: three leaf factors multiplied,
        # evaluated at (R, D, Q) = (0, 0, 0) where only the biases survive
        d = 3
        params = np.zeros(12)
        params[0:4] = [-0.9030, 2.4025, -0.0262, 0.0311]      # cube leaf
        params[4:8] = [-0.1840, -0.0432, -2.5147, -0.0181]    # cube leaf
        params[8:12] = [0.1919, 0.1812, 0.7006, -0.7283]      # sin leaf
        expr = make_expr("type2", d, ("cube", "cube", "mul", "sin", "mul"), params)
        expected = 0.0311 * (-0.0181) * (-0.7283)
        assert sm.evaluate(expr, [0.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_one_leaf_is_trainable_constant(self):
        expr = leaf_only_type2(3, "1", [0.4, 0.5, 0.6], 0.25)
        # sum(alpha) + beta regardless of x
        assert sm.evaluate(expr, [9.0, -3.0, 7.0]) == pytest.approx(1.75)

    def test_exp_clamped(self):
        expr = leaf_only_type2(1, "exp", [1.0], 0.0)
        huge = sm.evaluate(expr, [1000.0])
        assert huge == pytest.approx(math.exp(EXP_CLAMP))

    def test_deterministic_and_pure(self):
        rng = np.random.default_rng(3)
        t = sm.build_template("type2", 3)
        seq = ("sin", "exp", "mul", "cube", "sub")
        theta = rng.uniform(-1, 1, 12)
        expr = sm.CompiledExpression(t, seq, theta)
        x = rng.uniform(-1, 1, 3)
        values = {sm.evaluate(expr, x) for _ in range(10)}
        assert len(values) == 1

    def test_dimension_mismatch(self):
        expr = leaf_only_type2(3, "id", [1, 1, 1], 0.0)
        with pytest.raises(ValueError):
            sm.evaluate(expr, [1.0, 2.0])

    def test_nan_input_reported(self):
        expr = leaf_only_type2(2, "id", [1.0, 1.0], 0.0)
        with pytest.raises(EvaluationError):
            sm.evaluate(expr, [float("nan"), 1.0])


class TestGradient:
    def test_id_leaf_gradient(self):
        expr = leaf_only_type2(2, "id", [0.3, -0.7], 0.1)
        g = sm.param_gradient(expr, [2.0, 3.0])
        # leaf 1 owns the first three parameters: alpha then beta
        assert g[:3] == pytest.approx([2.0, 3.0, 1.0])

    def test_square_leaf_gradient(self):
        expr = leaf_only_type2(2, "square", [1.0, 2.0], 0.5)
        g = sm.param_gradient(expr, [2.0, 3.0])
        assert g[:2] == pytest.approx([4.0, 9.0])

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(100):
            kind = ("type1", "type2")[rng.integers(2)]
            d = int(rng.integers(1, 5))
            t = sm.build_template(kind, d)
            seq = random_sequence(t, rng)
            p = sm.param_count(t, seq)
            theta = rng.uniform(-10, 10, p)
            x = rng.uniform(-1.5, 1.5, d)
            expr = sm.CompiledExpression(t, seq, theta)
            g = sm.param_gradient(expr, x)
            fd = np.zeros(p)
            for k in range(p):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                fd[k] = (
                    sm.evaluate(sm.CompiledExpression(t, seq, up), x)
                    - sm.evaluate(sm.CompiledExpression(t, seq, down), x)
                ) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-5

    def test_batch_jacobian_matches_rows(self):
        rng = np.random.default_rng(11)
        t = sm.build_template("type2", 3)
        seq = ("sin", "id", "mul", "square", "add")
        theta = rng.uniform(-1, 1, 12)
        expr = sm.CompiledExpression(t, seq, theta)
        X = rng.uniform(-1, 1, (20, 3))
        J = batch_jacobian(expr, X)
        for i in range(20):
            assert J[i] == pytest.approx(sm.param_gradient(expr, X[i]))


@given(scale=st.floats(-3, 3), data=st.data())
@settings(max_examples=100)
def test_affine_trees_are_affine(scale, data):
    """With only id leaves and add/sub binaries the expression is affine:
    f(c*x) - f(0) == c * (f(x) - f(0))."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    kind = data.draw(st.sampled_from(["type1", "type2"]))
    d = data.draw(st.integers(1, 4))
    t = sm.build_template(kind, d)
    seq = tuple(
        "id" if node.kind == "unary" else ("add", "sub")[rng.integers(2)]
        for node in t.nodes
    )
    theta = rng.uniform(-2, 2, sm.param_count(t, seq))
    expr = sm.CompiledExpression(t, seq, theta)
    x = rng.uniform(-1, 1, d)
    f0 = sm.evaluate(expr, np.zeros(d))
    lhs = sm.evaluate(expr, scale * x) - f0
    rhs = scale * (sm.evaluate(expr, x) - f0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSymbolicString:
    def test_sin_leaf_formats_like_reported_equations(self):
        out = leaf_string("sin", [0.1919, 0.1812, 0.7006], -0.7283,
                          ("R", "D", "Q"), precision=4)
        assert out == "0.1919*sin(R) + 0.1812*sin(D) + 0.7006*sin(Q) - 0.7283"

    def test_zero_operator_leaf_prints_zero(self):
        assert leaf_string("0", [1.0, 2.0], 0.0, ("x", "y")) == "0"

    def test_leaf_powers_use_caret(self):
        out = leaf_string("cube", [-0.9030, 2.4025], 0.0311, ("R", "D"),
                          precision=4)
        assert out == "-0.9030*R^3 + 2.4025*D^3 + 0.0311"

    def test_whole_tree_string(self):
        params = np.zeros(12)
        params[0:4] = [1.0, 0.0, 0.0, 0.0]
        params[4:8] = [0.0, 2.0, 0.0, -0.5]
        expr = make_expr("type2", 3, ("id", "id", "mul", "0", "add"), params)
        full = to_symbolic_string(expr, 4, ("S", "I", "R"))
        assert full == ("((1.0000*S + 0.0000*I + 0.0000*R)"
                        "*(0.0000*S + 2.0000*I + 0.0000*R - 0.5000)) + (0)")
        tidy = to_symbolic_string(expr, 4, ("S", "I", "R"), elide_below=1e-9)
        assert tidy == "((1.0000*S)*(2.0000*I - 0.5000)) + (0)"

    def test_elide_drops_small_terms(self):
        out = leaf_string("id", [0.5, 1e-7], 1e-9, ("a", "b"), precision=4,
                          elide_below=1e-5)
        assert out == "0.5000*a"

    def test_roundtrip_reevaluation(self):
        rng = np.random.default_rng(19)
        names = ("S", "I", "R", "W")
        env = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
        for _ in range(40):
            kind = ("type1", "type2")[rng.integers(2)]
            d = int(rng.integers(1, 5))
            t = sm.build_template(kind, d)
            seq = random_sequence(t, rng)
            theta = rng.uniform(-1, 1, sm.param_count(t, seq))
            expr = sm.CompiledExpression(t, seq, theta)
            text = to_symbolic_string(expr, 8, names[:d])
            x = rng.uniform(-1, 1, d)
            scope = dict(env, **{names[j]: x[j] for j in range(d)})
            reevaluated = eval(text.replace("^", "**"), {"__builtins__": {}}, scope)
            assert reevaluated == pytest.approx(sm.evaluate(expr, x), abs=1e-5)
