"""One-step forecast residual loss.

For component i the loss of a candidate expression phi is the mean squared
explicit-Euler residual over all consecutive sample pairs, pooled across
trajectories with uniform weight:

    (1 / M) * sum_s ( x_i[s+1] - x_i[s] - phi(x[s]) * dt )^2

A non-finite expression value on any sample yields the +inf sentinel so
that sequence scoring maps the failure to score 0 instead of aborting.
"""

from __future__ import annotations

import numpy as np

from . import expressions as ex


class EulerResidualObjective:
    """Loss and gradient for a fixed (template, sequence, data, component).

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
        self.component = component
        self.dt = data.dt
        X, X_next = data.stacked_pairs()
        self.dy = X_next[:, component] - X[:, component]
        self.m = X.shape[0]
        self._leaves = ex.leaf_values(template, self.sequence, X)
        self.n_params = template.n_params

    def _residual(self, theta):
        """One forward pass and its Euler residual, which is None when phi
        is not finite on some sample."""
        values, caches = ex.forward_pass(self.template, self.sequence, theta,
                                         self._leaves)
        phi = values[-1]
        r = self.dy - phi * self.dt if np.all(np.isfinite(phi)) else None
        return r, values, caches

    def loss(self, theta):
        r, _, _ = self._residual(theta)
        if r is None:
            return float("inf")
        return float(r @ r) / self.m

    def loss_and_grad(self, theta):
        r, values, caches = self._residual(theta)
        if r is None:
            return float("inf"), np.zeros(self.n_params)
        loss = float(r @ r) / self.m
        # d loss / d theta = (2 dt / M) * sum_s r_s * (-d phi / d theta)
        weights = (-2.0 * self.dt / self.m) * r
        grad = ex.weighted_param_gradient(self.template, self.sequence, theta,
                                          values, caches, weights)
        return loss, grad


def euler_residual_loss(expr, data, component):
    """Mean squared Euler residual of ``expr`` for one state component."""
    obj = EulerResidualObjective(expr.template, expr.sequence, data, component)
    return obj.loss(expr.params)


def loss_and_gradient(expr, data, component):
    """Loss together with its exact parameter gradient."""
    obj = EulerResidualObjective(expr.template, expr.sequence, data, component)
    return obj.loss_and_grad(expr.params)
