import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symode as sm
from symode.errors import EvaluationError
from symode.expressions import (EXP_CLAMP, UNARY_RULES, _join_affine,
                                compile_plan, forward_pass, leaf_values,
                                param_jacobian, to_symbolic_string,
                                unary_string)

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
        assert tuple(n.kind for n in t.nodes) == ("unary", "unary", "binary",
                                                  "unary")

    def test_type2_slot_structure(self):
        t = sm.build_template("type2", 3)
        assert t.n_slots == 5
        assert tuple(n.kind for n in t.nodes) == ("unary", "unary", "binary",
                                                  "unary", "binary")

    def test_type2_dim1_leaf_vectors(self):
        t = sm.build_template("type2", 1)
        assert t.n_slots == 5
        # each leaf carries a length-1 alpha plus a beta
        assert t.n_params == 6

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
                p = t.n_params
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

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_batch_rows_are_bitwise_single_rows(self, kind):
        # a forecast's bits must not depend on how many states share a call
        rng = np.random.default_rng(11)
        t = sm.build_template(kind, 3)
        X = rng.uniform(-2, 2, (57, 3))
        for _ in range(50):
            expr = sm.CompiledExpression(t, random_sequence(t, rng),
                                         rng.uniform(-1, 1, t.n_params))
            alone = [sm.evaluate_batch(expr, x)[0] for x in X]
            assert np.array_equal(sm.evaluate_batch(expr, X), alone)

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_stored_plan_gives_the_per_call_plan_bits(self, kind):
        # what evaluate_batch computed when it compiled the plan on every
        # call: each row a stack of one through forward_pass
        rng = np.random.default_rng(23)
        t = sm.build_template(kind, 3)
        X = rng.uniform(-2, 2, (40, 3))
        for _ in range(50):
            expr = sm.CompiledExpression(t, random_sequence(t, rng),
                                         rng.uniform(-1, 1, t.n_params))
            plan = compile_plan(t, expr.sequence)
            with np.errstate(over="ignore", invalid="ignore"):
                values, _ = forward_pass(plan, expr.params,
                                         leaf_values(plan, X[:, None, :]))
            assert (list(map(float.hex, sm.evaluate_batch(expr, X)))
                    == list(map(float.hex, values[-1][:, 0])))

    def test_plan_is_compiled_once_per_expression(self, monkeypatch):
        import symode.expressions as ex_mod
        compiled = []
        original = ex_mod.compile_plan

        def spy(template, sequence):
            compiled.append(sequence)
            return original(template, sequence)

        monkeypatch.setattr(ex_mod, "compile_plan", spy)
        rng = np.random.default_rng(4)
        t = sm.build_template("type1", 3)
        system = sm.SystemModel([sm.CompiledExpression(
            t, random_sequence(t, rng), rng.uniform(-1, 1, t.n_params) / 10)
            for _ in range(3)])
        assert len(compiled) == 3
        result = sm.rollout(system, rng.uniform(0, 1, (5, 3)), 40, 0.01)
        assert result.states.shape[0] > 1
        sm.param_gradient(system.components[0], [0.1, 0.2, 0.3])
        assert len(compiled) == 3
        assert "plan" not in repr(system.components[0])

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
            p = t.n_params
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

    def test_gradient_overflow_is_an_evaluation_error(self):
        # the value 1e-80 * 1e200 = 1e120 is finite, but its alpha
        # derivative, 1e200 * (1e30)^4, overflows in the reverse sweep
        t = sm.build_template("type2", 1)
        expr = sm.CompiledExpression(t, ("quartic", "id", "mul", "0", "add"),
                                     np.array([1e-200, 0, 0, 1e200, 0, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sm.evaluate(expr, [1e30]) == pytest.approx(1e120)
            with pytest.raises(EvaluationError,
                               match="gradient is not finite at x="):
                sm.param_gradient(expr, [1e30])

    def test_jacobian_rows_match_point_gradients(self):
        """Row s of the batch Jacobian the search runs, seeded with 1, is
        the single-point gradient at X[s]; a batch's leaf matrix-vector
        product rounds differently from a one-row one, so they agree to
        rounding only."""
        rng = np.random.default_rng(11)
        for kind, seq in (("type2", ("sin", "id", "mul", "square", "add")),
                          ("type1", ("cos", "id", "mul", "exp"))):
            t = sm.build_template(kind, 3)
            theta = rng.uniform(-1, 1, t.n_params)
            expr = sm.CompiledExpression(t, seq, theta)
            X = rng.uniform(-1, 1, (20, 3))
            plan = compile_plan(t, seq)
            values, caches = forward_pass(plan, theta, leaf_values(plan, X))
            J = param_jacobian(plan, theta, values, caches, 1.0)
            assert J.shape == (20, t.n_params)
            for s in range(20):
                assert J[s] == pytest.approx(sm.param_gradient(expr, X[s]),
                                             rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_jacobian_writes_every_parameter_row(self, kind, monkeypatch):
        """param_jacobian allocates J' uninitialised and writes each
        parameter's row once; built from memory that starts as NaN, with
        every unary tag at every unary slot and every binary tag at the
        binary slots, J is finite and has the bits of the normal build."""

        class NanFilledNumpy:
            """numpy, except that ``empty`` hands out NaN-filled memory."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, *args, **kwargs):
                return np.full(shape, np.nan, *args, **kwargs)

        import symode.expressions as ex_mod
        rng = np.random.default_rng(5)
        t = sm.build_template(kind, 3)
        X = rng.uniform(-1, 1, (40, 3))
        theta = rng.uniform(-1, 1, t.n_params)
        unary_slots = [i for i, node in enumerate(t.nodes)
                       if node.kind == "unary"]
        built = 0
        for op in BINARY:
            base = [op if node.kind == "binary" else "id" for node in t.nodes]
            for slot in unary_slots:
                for tag in UNARY:
                    seq = tuple(base[:slot] + [tag] + base[slot + 1:])
                    plan = compile_plan(t, seq)
                    values, caches = forward_pass(plan, theta,
                                                  leaf_values(plan, X))
                    want = param_jacobian(plan, theta, values, caches, -0.1)
                    with monkeypatch.context() as patched:
                        patched.setattr(ex_mod, "np", NanFilledNumpy())
                        got = param_jacobian(plan, theta, values, caches,
                                             -0.1)
                    assert np.isfinite(got).all(), seq
                    assert got.tobytes() == want.tobytes(), seq
                    built += 1
        assert built == len(BINARY) * len(unary_slots) * len(UNARY)


class TestPowerRules:
    """cube and quartic are products, which NumPy does not send to libm
    pow; they stay within 2 ulp of it and agree on every special value."""

    # tag -> (pow-based value, pow-based derivative)
    POW = {"cube": (lambda z: np.power(z, 3), lambda z: 3.0 * np.power(z, 2)),
           "quartic": (lambda z: np.power(z, 4),
                       lambda z: 4.0 * np.power(z, 3))}

    def assert_matches_pow(self, tag, z):
        """Within 2 ulp of pow; bit for bit (sign included) wherever pow
        gives a zero, an infinity or NaN."""
        with np.errstate(all="ignore"):
            for rule, reference in zip(UNARY_RULES[tag], self.POW[tag]):
                got, want = rule(z), reference(z)
                exact = (want == 0.0) | ~np.isfinite(want)
                np.testing.assert_array_equal(got[exact], want[exact])
                signed = exact & ~np.isnan(want)
                assert np.array_equal(np.signbit(got[signed]),
                                      np.signbit(want[signed]))
                assert np.all(np.abs(got - want)[~exact]
                              <= 2 * np.spacing(np.abs(want[~exact])))

    @pytest.mark.parametrize("tag", ["cube", "quartic"])
    def test_within_two_ulp_of_pow(self, tag):
        rng = np.random.default_rng(14)
        magnitude = 10.0 ** rng.uniform(-60, 60, 100_000)
        self.assert_matches_pow(tag, rng.choice([-1.0, 1.0], 100_000)
                                * magnitude)

    @pytest.mark.parametrize("tag, overflow, underflow",
                             [("cube", 1e103, 1e-110),
                              ("quartic", 1e78, 1e-90)])
    def test_special_values_match_pow(self, tag, overflow, underflow):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, overflow,
                      -overflow, underflow, -underflow])
        self.assert_matches_pow(tag, z)
        with np.errstate(over="ignore", under="ignore"):
            values = UNARY_RULES[tag][0](z)
        # the inputs reach the cases they are named for
        assert np.all(np.isinf(values[5:7])) and np.all(values[7:] == 0.0)

    def test_bit_equal_to_the_products(self):
        z = np.random.default_rng(15).uniform(-1e3, 1e3, (50, 3))
        cube, cube_deriv = UNARY_RULES["cube"]
        quartic, quartic_deriv = UNARY_RULES["quartic"]
        assert cube(z).tobytes() == (z * z * z).tobytes()
        assert cube_deriv(z).tobytes() == (3.0 * z * z).tobytes()
        assert quartic(z).tobytes() == ((z * z) * (z * z)).tobytes()
        assert quartic_deriv(z).tobytes() == (4.0 * z * z * z).tobytes()


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
    theta = rng.uniform(-2, 2, t.n_params)
    expr = sm.CompiledExpression(t, seq, theta)
    x = rng.uniform(-1, 1, d)
    f0 = sm.evaluate(expr, np.zeros(d))
    lhs = sm.evaluate(expr, scale * x) - f0
    rhs = scale * (sm.evaluate(expr, x) - f0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSymbolicString:
    def test_sin_leaf_formats_like_reported_equations(self):
        out = unary_string("sin", [0.1919, 0.1812, 0.7006], -0.7283,
                           ("R", "D", "Q"), precision=4)
        assert out == "0.1919*sin(R) + 0.1812*sin(D) + 0.7006*sin(Q) - 0.7283"

    def test_zero_operator_leaf_prints_zero(self):
        assert unary_string("0", [1.0, 2.0], 0.0, ("x", "y"),
                            precision=4) == "0"

    def test_leaf_powers_use_caret(self):
        out = unary_string("cube", [-0.9030, 2.4025], 0.0311, ("R", "D"),
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

    def test_roundtrip_reevaluation(self):
        rng = np.random.default_rng(19)
        names = ("S", "I", "R", "W")
        env = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
        for _ in range(40):
            kind = ("type1", "type2")[rng.integers(2)]
            d = int(rng.integers(1, 5))
            t = sm.build_template(kind, d)
            seq = random_sequence(t, rng)
            theta = rng.uniform(-1, 1, t.n_params)
            expr = sm.CompiledExpression(t, seq, theta)
            text = to_symbolic_string(expr, 8, names[:d])
            x = rng.uniform(-1, 1, d)
            scope = dict(env, **{names[j]: x[j] for j in range(d)})
            reevaluated = eval(text.replace("^", "**"), {"__builtins__": {}}, scope)
            assert reevaluated == pytest.approx(sm.evaluate(expr, x), abs=1e-5)


# The printer as it was before one renderer printed every unary node: leaves
# through reference_leaf_string, interior unary nodes through a branch of
# their own with a second copy of the '0'/'1' rules. The one renderer must
# print the same strings.

def reference_unary_term(tag, operand):
    if tag == "id":
        return operand
    if tag == "square":
        return operand + "^2"
    if tag == "cube":
        return operand + "^3"
    if tag == "quartic":
        return operand + "^4"
    return f"{tag}({operand})"


def reference_leaf_string(tag, alpha, beta, var_names, precision):
    alpha = np.asarray(alpha, dtype=float)
    if tag == "0":
        return _join_affine([], float(beta), precision)
    if tag == "1":
        return _join_affine([], float(alpha.sum() + beta), precision)
    terms = [(float(a), reference_unary_term(tag, name))
             for a, name in zip(alpha, var_names)]
    return _join_affine(terms, float(beta), precision)


def reference_symbolic_string(expr, precision, var_names):
    template, sequence, params = expr.template, expr.sequence, expr.params

    def render(i):
        node = template.nodes[i]
        tag = sequence[i]
        if node.kind == "binary":
            if tag == "sub":
                return (f"({render(node.children[0])}) - "
                        f"({render(node.children[1])})")
            parts = []
            stack = [node.children[1], node.children[0]]
            while stack:
                j = stack.pop()
                child = template.nodes[j]
                if child.kind == "binary" and sequence[j] == tag:
                    stack.extend((child.children[1], child.children[0]))
                else:
                    parts.append(f"({render(j)})")
            return (" + " if tag == "add" else "*").join(parts)
        theta = params[template.slices[i]]
        if node.is_leaf:
            return reference_leaf_string(tag, theta[:-1], theta[-1],
                                         var_names, precision)
        inner = render(node.children[0])
        if tag == "0":
            return _join_affine([], float(theta[1]), precision)
        if tag == "1":
            return _join_affine([], float(theta[0] + theta[1]), precision)
        if tag in ("sin", "cos", "exp"):
            text = f"{tag}({inner})"
        else:
            text = reference_unary_term(tag, f"({inner})")
        return _join_affine([(float(theta[0]), text)], float(theta[1]),
                            precision)

    return render(len(template.nodes) - 1)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_every_printed_string_equals_reference(kind, d):
    # every sequence, once with random coefficients and once with a mix of
    # random ones, zeros and negative zeros, at 4 and 8 digits
    template = sm.build_template(kind, d)
    names = ("S", "I", "R")[:d]
    rng = np.random.default_rng(d)
    vocab = [UNARY if node.kind == "unary" else BINARY
             for node in template.nodes]
    for seq in itertools.product(*vocab):
        uniform = rng.uniform(-2, 2, template.n_params)
        mixed = np.choose(rng.integers(3, size=template.n_params),
                          [rng.uniform(-2, 2, template.n_params), 0.0, -0.0])
        for theta in (uniform, mixed):
            expr = sm.CompiledExpression(template, seq, theta)
            for precision in (4, 8):
                assert (to_symbolic_string(expr, precision, names)
                        == reference_symbolic_string(expr, precision, names))
