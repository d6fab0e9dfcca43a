"""One-step forecast residual loss.

For component i the loss of a candidate expression phi is the mean squared
explicit-Euler residual over all consecutive sample pairs, pooled across
trajectories with uniform weight:

    (1 / M) * sum_s ( x_i[s+1] - x_i[s] - phi(x[s]) * dt )^2

A non-finite expression value on any sample yields the +inf sentinel so
that sequence scoring maps the failure to score 0 instead of aborting.
Every iterative fit runs on this residual, and its Jacobian gives the
normal equations of Levenberg–Marquardt. What the fits of one component
read from the data, :class:`ComponentSamples`, is derived once.

:func:`tsqr` folds a tall matrix into its R factor, one bounded QR at a
time.
"""

from __future__ import annotations

import math

import numpy as np

from . import expressions as ex


class ComponentSamples:
    """The pooled pairs' count ``m`` and step ``dt``, the component's Euler
    difference ``dy`` and each unary tag's leaf features ``features[tag]``
    (m x dim). They depend on neither sequence nor parameters, so one set
    feeds a search's feature factor and every objective; the arrays are
    read-only, as one write would reach every later fit."""

    def __init__(self, data, component):
        if not 0 <= component < data.dim:
            raise ValueError(f"component {component} out of range 0..{data.dim - 1}")
        X, X_next = data.stacked_pairs()
        self.component, self.dim, self.dt = component, data.dim, data.dt
        self.m = X.shape[0]
        # a difference or a feature that is not finite is the fits' to handle
        with np.errstate(over="ignore", invalid="ignore"):
            self.dy = X_next[:, component] - X[:, component]
            self.features = {tag: rule(X)
                             for tag, (rule, _) in ex.UNARY_RULES.items()}
        for array in (self.dy, *self.features.values()):
            array.flags.writeable = False


class EulerResidualObjective:
    """Loss, Euler residual and its Jacobian for a fixed (template,
    sequence) on one component's :class:`ComponentSamples`, and the
    gradient 2 J'r / M from them. Each leaf reads its tag's features from
    the samples, so a call only pays for the affine combinations.
    """

    def __init__(self, template, sequence, samples):
        if template.input_dim != samples.dim:
            raise ValueError("template input_dim does not match dataset dimension")
        ex.validate_sequence(template, sequence)
        self._plan = ex.compile_plan(template, sequence)
        self.dt, self.dy, self.m = samples.dt, samples.dy, samples.m
        self._leaves = [samples.features[tag] if kind == "leaf" else None
                        for (kind, *_), tag in zip(self._plan, sequence)]
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
# with one thread, and four times the CPU. Every QR of :func:`tsqr` stays
# within it, so its bits do not depend on the thread count either.
QR_BUDGET = 8192


def tsqr(A):
    """R of the QR factorization of ``A``, or None when an entry is not
    finite. The search builds each type2 component's feature factor, the
    one matrix its closed-form fits read, with it.

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


def euler_residual_loss(expr, data, component):
    """Mean squared Euler residual of ``expr`` for one state component."""
    obj = EulerResidualObjective(expr.template, expr.sequence,
                                 ComponentSamples(data, component))
    return obj.loss(expr.params)


def loss_and_gradient(expr, data, component):
    """Loss together with its exact parameter gradient."""
    obj = EulerResidualObjective(expr.template, expr.sequence,
                                 ComponentSamples(data, component))
    return obj.loss_and_grad(expr.params)
