"""Expression trees on fixed binary-tree templates.

An expression is a triple (template, operator sequence, parameter vector).
The template fixes the tree wiring and exposes one operator slot per node;
the sequence assigns an operator tag to every slot; the flat parameter
vector holds the affine weights attached to unary nodes.

Semantics:

* a unary *leaf* with tag ``u`` computes ``sum_j alpha_j * u(x_j) + beta``
  over the input coordinates (alpha is a length-d vector, beta a scalar);
* an interior unary node computes ``alpha * u(child) + beta`` with scalar
  alpha, beta;
* binary nodes (``add``, ``sub``, ``mul``) combine child values and carry
  no parameters.

Everything here is pure: expressions are immutable after construction and
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError

# Arguments to exp are capped so that randomly initialized parameters can
# never overflow during sequence scoring.
EXP_CLAMP = 30.0


def _exp_clamped(z):
    return np.exp(np.minimum(z, EXP_CLAMP))


def _exp_clamped_deriv(z):
    # derivative of the clamped exp: zero on the flat region
    return np.where(z < EXP_CLAMP, _exp_clamped(z), 0.0)


# tag -> (value rule, derivative rule); rules accept arrays of any shape
UNARY_RULES = {
    "0": (lambda z: np.zeros_like(z), lambda z: np.zeros_like(z)),
    "1": (lambda z: np.ones_like(z), lambda z: np.zeros_like(z)),
    "id": (lambda z: np.asarray(z, dtype=float), lambda z: np.ones_like(z)),
    "square": (lambda z: z * z, lambda z: 2.0 * z),
    "cube": (lambda z: z**3, lambda z: 3.0 * z * z),
    "quartic": (lambda z: z**4, lambda z: 4.0 * z**3),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda z: -np.sin(z)),
    "exp": (_exp_clamped, _exp_clamped_deriv),
}

BINARY_RULES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}

# Ordered operator vocabularies. Controller logits index into these
# tuples, so their order is fixed.
UNARY_TAGS = tuple(UNARY_RULES)
BINARY_TAGS = tuple(BINARY_RULES)

TYPE1 = "type1"
TYPE2 = "type2"


@dataclass(frozen=True)
class TreeNode:
    """One node of a template. ``children`` holds indices of earlier nodes
    in the post-order node list; a unary node without children is a leaf."""

    kind: str  # "unary" | "binary"
    children: tuple = ()

    @property
    def is_leaf(self):
        return self.kind == "unary" and not self.children


@dataclass(frozen=True)
class TreeTemplate:
    """Fixed tree wiring. Nodes are stored in post-order and the node index
    doubles as the canonical controller slot index. ``slices`` (per node, its
    slice of the flat parameter vector) and ``n_params`` follow from it."""

    kind: str
    input_dim: int
    nodes: tuple = field(default=(), compare=True)
    slices: tuple = field(init=False, compare=False, repr=False)
    n_params: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # Leaves own d+1 parameters (alpha vector then beta); interior unary
        # nodes own 2 (alpha, beta); binary nodes own none.
        slices = []
        offset = 0
        for node in self.nodes:
            if node.kind == "unary":
                size = self.input_dim + 1 if node.is_leaf else 2
                slices.append(slice(offset, offset + size))
                offset += size
            else:
                slices.append(None)
        object.__setattr__(self, "slices", tuple(slices))
        object.__setattr__(self, "n_params", offset)

    @property
    def n_slots(self):
        return len(self.nodes)

    def slot_kinds(self):
        return tuple(n.kind for n in self.nodes)


def build_template(kind, input_dim):
    """Build a template of the given kind for ``input_dim`` state variables.

    type1: a unary root applied to a binary combination of two unary leaves
    (4 slots). type2: a binary root combining a binary pair of unary leaves
    with a third unary leaf (5 slots).
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    kind = str(kind).lower()
    if kind == TYPE1:
        nodes = (
            TreeNode("unary"),
            TreeNode("unary"),
            TreeNode("binary", (0, 1)),
            TreeNode("unary", (2,)),
        )
    elif kind == TYPE2:
        nodes = (
            TreeNode("unary"),
            TreeNode("unary"),
            TreeNode("binary", (0, 1)),
            TreeNode("unary"),
            TreeNode("binary", (2, 3)),
        )
    else:
        raise ValueError(f"unknown template kind {kind!r}")
    return TreeTemplate(kind=kind, input_dim=input_dim, nodes=nodes)


def validate_sequence(template, sequence):
    """Check that ``sequence`` assigns an admissible tag to every slot."""
    if len(sequence) != template.n_slots:
        raise ValueError(
            f"sequence length {len(sequence)} != {template.n_slots} slots"
        )
    for j, (tag, node) in enumerate(zip(sequence, template.nodes)):
        vocab = UNARY_TAGS if node.kind == "unary" else BINARY_TAGS
        if tag not in vocab:
            raise ValueError(f"slot {j}: tag {tag!r} not a {node.kind} operator")


def param_count(template, sequence):
    """Number of trainable parameters for (template, sequence)."""
    validate_sequence(template, sequence)
    return template.n_params


@dataclass(frozen=True, eq=False)
class CompiledExpression:
    """An evaluatable expression: template + sequence + flat parameters."""

    template: TreeTemplate
    sequence: tuple
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))
        validate_sequence(self.template, self.sequence)
        theta = np.array(self.params, dtype=float, copy=True)
        expected = self.template.n_params
        if theta.shape != (expected,):
            raise ValueError(f"params shape {theta.shape} != ({expected},)")
        theta.setflags(write=False)
        object.__setattr__(self, "params", theta)


def leaf_values(template, sequence, X):
    """Per-leaf operator outputs u(X), reusable across parameter updates."""
    out = {}
    for i, node in enumerate(template.nodes):
        if node.is_leaf:
            out[i] = UNARY_RULES[sequence[i]][0](X)
    return out


def forward_pass(template, sequence, params, X, cached_leaves=None):
    """Evaluate every node on a batch X of shape (n, d).

    Returns (values, caches): values[i] is the (n,) output of node i and
    caches[i] holds whatever the backward pass needs (leaf operator matrix
    or interior operator output).
    """
    values = [None] * len(template.nodes)
    caches = [None] * len(template.nodes)
    # overflow is legitimate here: non-finite outputs become loss sentinels
    with np.errstate(over="ignore", invalid="ignore"):
        for i, node in enumerate(template.nodes):
            if node.kind == "binary":
                l, r = node.children
                values[i] = BINARY_RULES[sequence[i]](values[l], values[r])
            elif node.is_leaf:
                U = cached_leaves[i] if cached_leaves is not None else None
                if U is None:
                    U = UNARY_RULES[sequence[i]][0](X)
                theta = params[template.slices[i]]
                values[i] = U @ theta[:-1] + theta[-1]
                caches[i] = U
            else:
                (c,) = node.children
                u = UNARY_RULES[sequence[i]][0](values[c])
                theta = params[template.slices[i]]
                values[i] = theta[0] * u + theta[1]
                caches[i] = u
    return values, caches


def _node_adjoints(template, sequence, params, values, seed):
    """Adjoint of the root with respect to each node value, seeded at the
    root with ``seed`` (shape (n,)). Nodes have a single parent, so each
    adjoint is written exactly once."""
    adj = [None] * len(template.nodes)
    adj[-1] = seed
    for i in reversed(range(len(template.nodes))):
        node = template.nodes[i]
        a = adj[i]
        if node.kind == "binary":
            l, r = node.children
            tag = sequence[i]
            if tag == "add":
                adj[l], adj[r] = a, a
            elif tag == "sub":
                adj[l], adj[r] = a, -a
            else:  # mul
                adj[l], adj[r] = a * values[r], a * values[l]
        elif not node.is_leaf:
            (c,) = node.children
            du = UNARY_RULES[sequence[i]][1](values[c])
            alpha = params[template.slices[i]][0]
            adj[c] = a * (alpha * du)
    return adj


def weighted_param_gradient(template, sequence, params, X, weights,
                            cached_leaves=None):
    """Gradient of ``sum_n weights_n * f(X_n)`` with respect to the
    parameters; the workhorse behind loss gradients."""
    values, caches = forward_pass(template, sequence, params, X, cached_leaves)
    adj = _node_adjoints(template, sequence, params, values, weights)
    grad = np.zeros(template.n_params)
    for i, node in enumerate(template.nodes):
        if node.kind != "unary":
            continue
        a = adj[i]
        sl = template.slices[i]
        if node.is_leaf:
            grad[sl.start : sl.stop - 1] = caches[i].T @ a
            grad[sl.stop - 1] = a.sum()
        else:
            grad[sl.start] = float(a @ caches[i])
            grad[sl.start + 1] = a.sum()
    return grad


def batch_jacobian(expr, X):
    """Jacobian d f / d theta evaluated row-wise: shape (n, p)."""
    template, sequence, params = expr.template, expr.sequence, expr.params
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values, caches = forward_pass(template, sequence, params, X)
    ones = np.ones(X.shape[0])
    adj = _node_adjoints(template, sequence, params, values, ones)
    jac = np.zeros((X.shape[0], template.n_params))
    for i, node in enumerate(template.nodes):
        if node.kind != "unary":
            continue
        a = adj[i]
        sl = template.slices[i]
        if node.is_leaf:
            jac[:, sl.start : sl.stop - 1] = a[:, None] * caches[i]
            jac[:, sl.stop - 1] = a
        else:
            jac[:, sl.start] = a * caches[i]
            jac[:, sl.start + 1] = a
    return jac


def evaluate_batch(expr, X):
    """Raw batch evaluation, shape (n,). May contain non-finite values;
    callers that need a hard failure should use :func:`evaluate`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != expr.template.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != {expr.template.input_dim}")
    values, _ = forward_pass(expr.template, expr.sequence, expr.params, X)
    return values[-1]


def evaluate(expr, x):
    """Evaluate the expression at a single point; raises EvaluationError
    if the result is not finite."""
    out = evaluate_batch(expr, np.asarray(x, dtype=float).reshape(1, -1))
    val = float(out[0])
    if not np.isfinite(val):
        raise EvaluationError(f"expression value is not finite at x={x!r}")
    return val


def param_gradient(expr, x):
    """Exact gradient of f with respect to every parameter at one point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    out = evaluate_batch(expr, x)
    if not np.isfinite(out[0]):
        raise EvaluationError(f"expression value is not finite at x={x!r}")
    return batch_jacobian(expr, x)[0]


# ---------------------------------------------------------------------------
# symbolic printing


def _fmt(value, precision):
    if value == 0:
        value = 0.0  # avoid "-0.0000"
    return f"{value:.{precision}f}"


def _join_affine(terms, constant, precision, elide_below):
    """Render ``sum coef*term + constant`` as infix text. ``terms`` is a
    list of (coefficient, text) pairs."""
    if elide_below is not None:
        terms = [(c, t) for c, t in terms if abs(c) >= elide_below]
        if abs(constant) < elide_below:
            constant = 0.0
    parts = list(terms)
    if constant != 0.0 or not parts:
        parts.append((constant, None))
    if len(parts) == 1 and parts[0][1] is None and parts[0][0] == 0.0:
        return "0"
    pieces = []
    for k, (coef, text) in enumerate(parts):
        body = _fmt(abs(coef), precision)
        if text is not None:
            body = f"{body}*{text}"
        if k == 0:
            pieces.append(("-" if coef < 0 else "") + body)
        else:
            pieces.append((" - " if coef < 0 else " + ") + body)
    return "".join(pieces)


def _unary_term(tag, operand):
    """Text of ``u(operand)`` for a bare operand such as a variable name."""
    if tag == "id":
        return operand
    if tag == "square":
        return operand + "^2"
    if tag == "cube":
        return operand + "^3"
    if tag == "quartic":
        return operand + "^4"
    return f"{tag}({operand})"


def leaf_string(tag, alpha, beta, var_names, precision=4, elide_below=None):
    """Render one unary leaf in the printed-equation style, e.g.
    ``0.1919*sin(R) + 0.1812*sin(D) + 0.7006*sin(Q) - 0.7283``."""
    alpha = np.asarray(alpha, dtype=float)
    if tag == "0":
        return _join_affine([], float(beta), precision, elide_below)
    if tag == "1":
        return _join_affine([], float(alpha.sum() + beta), precision, elide_below)
    terms = [(float(a), _unary_term(tag, name)) for a, name in zip(alpha, var_names)]
    return _join_affine(terms, float(beta), precision, elide_below)


def to_symbolic_string(expr, precision=4, var_names=None, elide_below=None):
    """Human-readable infix form of the expression with coefficients
    rounded to ``precision`` decimal digits. Terms smaller in magnitude
    than ``elide_below`` are dropped when that threshold is given."""
    template, sequence, params = expr.template, expr.sequence, expr.params
    if var_names is None:
        var_names = tuple(f"x{j + 1}" for j in range(template.input_dim))

    def render(i):
        node = template.nodes[i]
        tag = sequence[i]
        if node.kind == "binary":
            if tag == "sub":
                return f"({render(node.children[0])}) - ({render(node.children[1])})"
            # flatten associative add/mul chains into a single run
            parts = []
            stack = [node.children[1], node.children[0]]
            while stack:
                j = stack.pop()
                child = template.nodes[j]
                if child.kind == "binary" and sequence[j] == tag:
                    stack.extend((child.children[1], child.children[0]))
                else:
                    parts.append(f"({render(j)})")
            sep = " + " if tag == "add" else "*"
            return sep.join(parts)
        theta = params[template.slices[i]]
        if node.is_leaf:
            return leaf_string(tag, theta[:-1], theta[-1], var_names,
                               precision, elide_below)
        inner = render(node.children[0])
        if tag == "0":
            return _join_affine([], float(theta[1]), precision, elide_below)
        if tag == "1":
            return _join_affine([], float(theta[0] + theta[1]), precision,
                                elide_below)
        if tag in ("sin", "cos", "exp"):
            text = f"{tag}({inner})"
        else:
            text = _unary_term(tag, f"({inner})")
        return _join_affine([(float(theta[0]), text)], float(theta[1]),
                            precision, elide_below)

    return render(len(template.nodes) - 1)
