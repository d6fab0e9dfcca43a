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


# tag -> (value rule, derivative rule); rules accept arrays of any shape.
# Powers are products: NumPy sends z**3 and z**4 to libm pow, which is tens
# of times slower than multiplying; the products stay within 2 ulp of pow.
UNARY_RULES = {
    "0": (lambda z: np.zeros_like(z), lambda z: np.zeros_like(z)),
    "1": (lambda z: np.ones_like(z), lambda z: np.zeros_like(z)),
    "id": (lambda z: np.asarray(z, dtype=float), lambda z: np.ones_like(z)),
    "square": (lambda z: z * z, lambda z: 2.0 * z),
    "cube": (lambda z: z * z * z, lambda z: 3.0 * z * z),
    "quartic": (lambda z: np.square(z * z), lambda z: 4.0 * z * z * z),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda z: -np.sin(z)),
    "exp": (_exp_clamped, _exp_clamped_deriv),
}

# tag -> (value rule, adjoint rule); the adjoint rule maps the node's
# adjoint and its operands' values to the operands' adjoints.
BINARY_RULES = {
    "add": (lambda a, b: a + b, lambda adj, a, b: (adj, adj)),
    "sub": (lambda a, b: a - b, lambda adj, a, b: (adj, -adj)),
    "mul": (lambda a, b: a * b, lambda adj, a, b: (adj * b, adj * a)),
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
    """An evaluatable expression: template + sequence + flat parameters.
    ``plan`` is the sequence's :func:`compile_plan`, built once here for
    every evaluation of the expression."""

    template: TreeTemplate
    sequence: tuple
    params: np.ndarray
    plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))
        validate_sequence(self.template, self.sequence)
        theta = np.array(self.params, dtype=float, copy=True)
        expected = self.template.n_params
        if theta.shape != (expected,):
            raise ValueError(f"params shape {theta.shape} != ({expected},)")
        theta.setflags(write=False)
        object.__setattr__(self, "params", theta)
        object.__setattr__(self, "plan",
                           compile_plan(self.template, self.sequence))


def compile_plan(template, sequence):
    """The walk of (template, sequence) that :func:`forward_pass` and
    :func:`param_jacobian` follow, built once per sequence. Per
    node, in post-order: (kind, value rule, derivative or adjoint rule,
    alpha index, beta index, children). The kind is "leaf", "unary" or
    "binary"; a leaf's alpha is params[alpha:beta], an interior unary
    node's is params[alpha], and a binary node has no parameters. The
    sequence must be valid for the template (:func:`validate_sequence`)."""
    plan = []
    for node, tag, sl in zip(template.nodes, sequence, template.slices):
        if node.kind == "binary":
            plan.append(("binary", *BINARY_RULES[tag], None, None,
                         node.children))
        else:
            plan.append(("leaf" if node.is_leaf else "unary",
                         *UNARY_RULES[tag], sl.start, sl.stop - 1,
                         node.children))
    return tuple(plan)


def leaf_values(plan, X):
    """Per-node leaf operator outputs u(X) on a batch X of shape (n, d),
    None at every other node; they do not depend on the parameters, so one
    set serves every forward pass."""
    # as in forward_pass, a non-finite output is the caller's to handle
    with np.errstate(over="ignore", invalid="ignore"):
        return [rule(X) if kind == "leaf" else None
                for kind, rule, *_ in plan]


def forward_pass(plan, params, leaves):
    """Evaluate every node of a :func:`compile_plan`, reading the leaf
    operator outputs from :func:`leaf_values`.

    Returns (values, caches): values[i] is the (n,) output of node i and
    caches[i] holds what :func:`param_jacobian` reads (leaf operator
    matrix or interior operator output). Overflow gives non-finite values,
    which the caller turns into loss sentinels; the caller also holds the
    ``np.errstate`` that keeps it from warning.
    """
    values, caches = [], []
    for (kind, rule, _, alpha, beta, children), U in zip(plan, leaves):
        if kind == "leaf":
            value, cache = U @ params[alpha:beta] + params[beta], U
        elif kind == "unary":
            cache = rule(values[children[0]])
            value = params[alpha] * cache + params[beta]
        else:
            value, cache = rule(values[children[0]], values[children[1]]), None
        values.append(value)
        caches.append(cache)
    return values, caches


# OpenBLAS computes a dot product of up to 10,000 entries on one thread and
# splits a longer one among its worker threads, whose partial sums round
# differently with their number (OpenBLAS 0.3.31: equal bits at 10,000
# entries with 1 and 2 threads, different ones at 10,001).
DOT_BUDGET = 10000


def _dot(a, b):
    """``float(a @ b)`` of two sample-length vectors, added left to right
    from chunks of at most DOT_BUDGET entries, so that its bits do not
    depend on the BLAS thread count. Overflow gives inf and opposite
    infinities give nan, as one ``a @ b`` does."""
    # One chunk is the plain product, taken without slicing: the slices cost
    # about 0.5 us a call, 45% of an 84-entry dot (numpy 2.4.6, one thread).
    if a.size <= DOT_BUDGET:
        return float(a @ b)
    total = 0.0
    for i in range(0, a.size, DOT_BUDGET):
        total += float(a[i:i + DOT_BUDGET] @ b[i:i + DOT_BUDGET])
    return total


def param_jacobian(plan, params, values, caches, seed):
    """The (n, n_params) matrix whose row s is ``seed * d f(X_s) / d
    theta``, by one reverse sweep of the plan over the values and caches of
    :func:`forward_pass` at the same ``params``, from ``seed`` on every
    sample. Nodes have a single parent, so each node's adjoint is written
    exactly once, before the sweep reaches the node. The matrix is the
    transpose of a C-ordered J' whose every row, one per parameter, is
    written once and contiguous, so J'J and J'r read whole rows."""
    jac = np.empty((len(params), values[-1].size))
    adj = [None] * len(plan)
    adj[-1] = np.full(values[-1].shape, seed)
    for i in reversed(range(len(plan))):
        kind, _, rule, alpha, beta, children = plan[i]
        a = adj[i]
        if kind == "binary":
            l, r = children
            adj[l], adj[r] = rule(a, values[l], values[r])
            continue
        if kind == "leaf":
            np.multiply(caches[i].T, a, out=jac[alpha:beta])
        else:
            np.multiply(a, caches[i], out=jac[alpha])
            (c,) = children
            adj[c] = a * (params[alpha] * rule(values[c]))
        jac[beta] = a
    return jac.T


# overflow gives non-finite values, which the callers report
@np.errstate(over="ignore", invalid="ignore")
def _forward(expr, X):
    """The forward pass of ``expr`` on a batch X of shape (..., d):
    (values, caches)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != expr.template.input_dim:
        raise ValueError(f"input dim {X.shape[-1]} != {expr.template.input_dim}")
    return forward_pass(expr.plan, expr.params, leaf_values(expr.plan, X))


def evaluate_batch(expr, X):
    """Raw batch evaluation, shape (n,). Each row is evaluated as a stack of
    one, so its leaves contract it with a dot product of its own, never with
    a matrix-vector kernel whose rounding depends on the batch: a row's bits
    do not depend on the rows evaluated with it. May contain non-finite
    values; callers that need a hard failure should use :func:`evaluate`."""
    rows = np.atleast_2d(np.asarray(X, dtype=float))[:, None, :]
    values, _ = _forward(expr, rows)
    return values[-1][:, 0]


def evaluate(expr, x):
    """Evaluate the expression at a single point; raises EvaluationError
    if the result is not finite."""
    out = evaluate_batch(expr, np.asarray(x, dtype=float).reshape(1, -1))
    val = float(out[0])
    if not np.isfinite(val):
        raise EvaluationError(f"expression value is not finite at x={x!r}")
    return val


@np.errstate(over="ignore", invalid="ignore")
def param_gradient(expr, x):
    """Exact gradient of f with respect to every parameter at one point:
    the one row of its :func:`param_jacobian`; raises EvaluationError if
    the value or the gradient is not finite."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    values, caches = _forward(expr, x)
    if not np.isfinite(values[-1][0]):
        raise EvaluationError(f"expression value is not finite at x={x!r}")
    grad = param_jacobian(expr.plan, expr.params, values, caches, 1.0)[0]
    if not np.isfinite(grad).all():
        raise EvaluationError(f"expression gradient is not finite at x={x!r}")
    return grad


# ---------------------------------------------------------------------------
# symbolic printing


def _fmt(value, precision):
    if value == 0:
        value = 0.0  # avoid "-0.0000"
    return f"{value:.{precision}f}"


def _join_affine(terms, constant, precision):
    """Render ``sum coef*term + constant`` as infix text. ``terms`` is a
    list of (coefficient, text) pairs."""
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


def _unary_term(tag, operand, composite):
    """Text of ``u(operand)``. A composite operand, a subtree's text, is
    parenthesized unless the tag's own parentheses enclose it."""
    if tag in ("sin", "cos", "exp"):
        return f"{tag}({operand})"
    if composite:
        operand = f"({operand})"
    return operand + {"id": "", "square": "^2", "cube": "^3",
                      "quartic": "^4"}[tag]


def unary_string(tag, alpha, beta, operands, precision, composite=False):
    """Render one unary node, ``sum_j alpha_j*u(operand_j) + beta``, in the
    printed-equation style, e.g.
    ``0.1919*sin(R) + 0.1812*sin(D) + 0.7006*sin(Q) - 0.7283``. A leaf's
    operands are the variable names; an interior node's one operand is its
    child's text, which is ``composite``."""
    alpha = np.asarray(alpha, dtype=float)
    if tag == "0":
        return _join_affine([], float(beta), precision)
    if tag == "1":
        return _join_affine([], float(alpha.sum() + beta), precision)
    terms = [(float(a), _unary_term(tag, name, composite))
             for a, name in zip(alpha, operands)]
    return _join_affine(terms, float(beta), precision)


def to_symbolic_string(expr, precision=4, var_names=None):
    """Human-readable infix form of the expression with coefficients
    rounded to ``precision`` decimal digits."""
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
        operands = var_names if node.is_leaf else [render(node.children[0])]
        return unary_string(tag, theta[:-1], theta[-1], operands, precision,
                            composite=not node.is_leaf)

    return render(len(template.nodes) - 1)
