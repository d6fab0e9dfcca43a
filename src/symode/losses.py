"""One-step forecast residual loss.

For component i the loss of a candidate expression phi is the mean squared
explicit-Euler residual over all consecutive sample pairs, pooled across
trajectories with uniform weight:

    (1 / M) * sum_s ( x_i[s+1] - x_i[s] - phi(x[s]) * dt )^2

A non-finite expression value on any sample yields the +inf sentinel so
that sequence scoring maps the failure to score 0 instead of aborting.

A type2 expression without interior unary nodes is multilinear in its leaf
blocks [u(X) | 1]: phi = K z(theta), with K the product features and z the
matching concatenation or Kronecker product of the leaf parameters. Its
loss is then |R [dt z; -1]|^2 / M with R the QR factor of [K | dy], which
:class:`FactoredResidualObjective` evaluates without touching an M-row
array.
"""

from __future__ import annotations

import math

import numpy as np

from . import expressions as ex


class EulerResidualObjective:
    """Loss, Euler residual and its Jacobian for a fixed (template,
    sequence, data, component), and the gradient 2 J'r / M from them.

    Precomputes the pooled sample pairs and the per-leaf operator outputs,
    which do not depend on the parameters, so repeated calls during
    optimization only pay for the affine combinations.
    """

    def __init__(self, template, sequence, data, component):
        if not 0 <= component < data.dim:
            raise ValueError(f"component {component} out of range 0..{data.dim - 1}")
        if template.input_dim != data.dim:
            raise ValueError("template input_dim does not match dataset dimension")
        ex.validate_sequence(template, sequence)
        self.template = template
        self.sequence = tuple(sequence)
        self._plan = ex.compile_plan(template, self.sequence)
        self.dt = data.dt
        X, X_next = data.stacked_pairs()
        self.dy = X_next[:, component] - X[:, component]
        self.m = X.shape[0]
        self._leaves = ex.leaf_values(self._plan, X)
        self.n_params = template.n_params

    def _loss(self, theta):
        """One forward pass: the loss, the Euler residual and the pass's
        values and caches. A phi that is not finite on some sample makes
        the loss not finite, as does a residual whose square overflows."""
        values, caches = ex.forward_pass(self._plan, theta, self._leaves)
        r = self.dy - values[-1] * self.dt
        return ex._dot(r, r) / self.m, r, values, caches

    # Public entries: a loss that is not finite is the +inf sentinel, never
    # a warning. forward_pass holds no np.errstate of its own; inside a fit
    # the minimizers hold one for the whole fit, and the decorator form
    # costs half of a ``with np.errstate`` block per call.
    @np.errstate(over="ignore", invalid="ignore")
    def loss(self, theta):
        loss = self._loss(theta)[0]
        return loss if math.isfinite(loss) else float("inf")

    # jacobian() runs outside residual's own np.errstate
    @np.errstate(over="ignore", invalid="ignore")
    def loss_and_grad(self, theta):
        loss, r, jacobian = self.residual(theta)
        if jacobian is None:
            # no minimizer reads the gradient at a non-finite loss
            return loss, np.zeros(self.n_params)
        # d (|r|^2 / M) / d theta = 2 J'r / M
        return loss, (2.0 / self.m) * (jacobian().T @ r)

    @np.errstate(over="ignore", invalid="ignore")
    def residual(self, theta):
        """(loss, r, jacobian): the loss, the Euler residual
        r = dy - phi dt with loss = |r|^2 / M, and a function that returns
        r's Jacobian -dt d phi / d theta (M x n_params). The Jacobian's
        sweep runs only when that function is called, so a trial point
        that a minimizer rejects costs one forward pass. A loss that is not
        finite is the +inf sentinel, and its jacobian is None."""
        loss, r, values, caches = self._loss(theta)
        if not math.isfinite(loss):
            return float("inf"), r, None
        return loss, r, lambda: ex.param_jacobian(self._plan, theta, values,
                                                  caches, -self.dt)


# OpenBLAS hands a matrix-vector product of more than about 8,192 entries to
# its worker threads; on 2 cores a 140 x 65 QR then took twice as long as
# with one thread, and four times the CPU. Every QR of a chunked factor
# stays within it, so its bits do not depend on the thread count either.
QR_BUDGET = 8192
# The widest factored objective, the target's column included: past it a
# chunk within QR_BUDGET holds fewer rows than half the columns, and a
# factor, which costs about the cube of its columns, takes longer to build
# than the direct calls of a fit save. On 2 cores, for 300 calls: ``abc``
# at d = 3 (65 columns, M = 5,000) built in 21 ms and saved 37 ms; ``ab``
# at d = 5 (73 columns, M = 25,000) built in 157 ms and saved 278 ms;
# ``abc`` at d = 5 (217 columns) took 1.1 s, against 0.30 s for the direct
# calls.
MAX_FACTOR_COLUMNS = 73


def tsqr(A):
    """R of the QR factorization of ``A``, or None when an entry is not
    finite.

    The rows are folded in one chunk at a time, each factored together with
    the R so far (TSQR), as many rows as keep [R; chunk] within QR_BUDGET
    entries. So no QR sees the whole matrix, and R has the same bits with
    one BLAS thread or many. For any w, |A w| = |R w|.
    """
    if not np.all(np.isfinite(A)):
        return None
    n_rows, n_cols = A.shape
    # at least half the columns: a feature factor of very many states
    # exceeds the budget
    step = max(QR_BUDGET // n_cols - n_cols, n_cols // 2)
    R = np.empty((0, n_cols))
    for start in range(0, n_rows, step):
        R = np.linalg.qr(np.vstack([R, A[start:start + step]]), mode="r")
    return R


def product_width(template, sequence):
    """Number of product features K with phi = K z(theta), or None when an
    interior unary node makes phi not multilinear in its leaf blocks. A
    leaf has d + 1 columns; ``add``/``sub`` concatenate their operands'
    columns and ``mul`` multiplies their counts."""
    widths = []
    for i, node in enumerate(template.nodes):
        if node.is_leaf:
            widths.append(template.input_dim + 1)
        elif node.kind == "unary":
            return None
        else:
            l, r = (widths[c] for c in node.children)
            widths.append(l * r if sequence[i] == "mul" else l + r)
    return widths[-1]


class FactoredResidualObjective:
    """The loss and a residual of an :class:`EulerResidualObjective`,
    evaluated from the R factor of [K | dy], which is built once from that
    objective's leaf operator values and ``dy``.

    ``factor`` is None when the sequence has no :func:`product_width`, when
    that width and the ``dy`` column exceed MAX_FACTOR_COLUMNS, or when an
    entry is not finite. A call forms z(theta) leaf by leaf and takes
    R [dt z; -1]; the residual's Jacobian sweeps the nodes in reverse. Both
    work on arrays of at most the product width per side, so their cost
    does not depend on the number of samples. A value that is not finite
    gives the +inf sentinel; callers silence the overflow warning with
    ``np.errstate``, as the minimizers do.
    """

    def __init__(self, objective):
        template, sequence = objective.template, objective.sequence
        self.dt, self.m = objective.dt, objective.m
        self.n_params = objective.n_params
        self.factor = None
        width = product_width(template, sequence)
        if width is None or width + 1 > MAX_FACTOR_COLUMNS:
            return
        # per node: (leaf parameter slice or None, tag, left, right)
        self._plan = [
            (template.slices[i] if node.is_leaf else None, sequence[i],
             *(node.children or (None, None)))
            for i, node in enumerate(template.nodes)]
        with np.errstate(over="ignore", invalid="ignore"):
            self.factor = tsqr(np.column_stack(
                [self._features(objective._leaves), objective.dy]))
        if self.factor is not None:
            self._rk = np.ascontiguousarray(self.factor[:, :-1])
            self._ry = self.factor[:, -1]

    def _features(self, leaves):
        """The product features K of the leaf operator values ``leaves``,
        in the column order of the z of :meth:`_forward`."""
        blocks = []
        for i, (leaf, tag, l, r) in enumerate(self._plan):
            if leaf is not None:
                blocks.append(np.column_stack([leaves[i], np.ones(self.m)]))
            elif tag == "mul":
                blocks.append((blocks[l][:, :, None] * blocks[r][:, None, :])
                              .reshape(self.m, -1))
            else:
                blocks.append(np.hstack([blocks[l], blocks[r]]))
        return blocks[-1]

    def _forward(self, theta):
        """z of every node, post-order; the last is the root's."""
        z = []
        for leaf, tag, l, r in self._plan:
            if leaf is not None:
                z.append(theta[leaf])
            elif tag == "mul":
                z.append((z[l][:, None] * z[r]).ravel())
            else:
                right = -z[r] if tag == "sub" else z[r]
                z.append(np.concatenate((z[l], right)))
        return z

    def _loss(self, z):
        """The loss at the root's z, and R [dt z; -1]."""
        rv = self.dt * (self._rk @ z) - self._ry
        return float(rv @ rv) / self.m, rv

    def loss(self, theta):
        loss, _ = self._loss(self._forward(theta)[-1])
        return loss if math.isfinite(loss) else float("inf")

    def residual(self, theta):
        """(loss, r, jacobian) as for the direct objective, with the
        residual r = R [dt z; -1] of at most MAX_FACTOR_COLUMNS rows, which
        has the direct residual's norm, and its Jacobian
        dt R_k dz / d theta."""
        z = self._forward(theta)
        loss, rv = self._loss(z[-1])
        if not math.isfinite(loss):
            return float("inf"), rv, None
        return loss, rv, lambda: self._sweep(z, self.dt * self._rk)

    def _sweep(self, z, adjoint):
        """d (adjoint z_root) / d theta for a matrix ``adjoint``, one output
        per row, by one reverse sweep over the z of :meth:`_forward`."""
        adj = [None] * len(z)
        adj[-1] = adjoint
        out = np.empty((adjoint.shape[0], self.n_params))
        for i in reversed(range(len(z))):
            leaf, tag, l, r = self._plan[i]
            a = adj[i]
            if leaf is not None:
                out[:, leaf] = a
            elif tag == "mul":
                a = a.reshape(a.shape[0], z[l].size, z[r].size)
                adj[l], adj[r] = a @ z[r], z[l] @ a
            else:
                n = z[l].size
                adj[l], adj[r] = (a[:, :n],
                                  -a[:, n:] if tag == "sub" else a[:, n:])
        return out


def euler_residual_loss(expr, data, component):
    """Mean squared Euler residual of ``expr`` for one state component."""
    obj = EulerResidualObjective(expr.template, expr.sequence, data, component)
    return obj.loss(expr.params)


def loss_and_gradient(expr, data, component):
    """Loss together with its exact parameter gradient."""
    obj = EulerResidualObjective(expr.template, expr.sequence, data, component)
    return obj.loss_and_grad(expr.params)
