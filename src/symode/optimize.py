"""Parameter optimization: Levenberg–Marquardt on a least-squares
residual, which fits every iteratively fitted sequence of a search within
the iteration budget its caller gives, and the two-stage scheme of an
adaptive first-order warm-up followed by BFGS refinement with Armijo
backtracking.

The first-order and BFGS routines take a single objective callable
``fn(theta) -> (loss, grad)`` and track the best iterate ever evaluated;
Levenberg–Marquardt takes an objective with a ``residual`` method and
moves only to a lower loss. So the reported loss is never worse than any
point actually visited. Everything is deterministic: no randomness lives
in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLossError


# The fixed parts of the schedule: the step size of the warm-up, the BFGS
# gradient-norm tolerance, the Armijo constant and backtracking factor of
# its line search, and Adam's moment constants.
LR_FIRST = 0.05
GRAD_TOL = 1e-8
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Levenberg–Marquardt: the starting damping and the factor that divides it
# after an accepted step and multiplies it after a rejected one; a fit stops
# after LM_STALLS accepted steps in a row that each lower the loss by a
# relative LM_STALL_RTOL or less, or when its iteration budget is spent.
# LM_ITERS is the full budget, which the search gives every fit but the
# screening first fits of type2 sequences.
LM_DAMPING = 1e-3
LM_DAMPING_FACTOR = 5.0
LM_STALL_RTOL = 1e-10
LM_STALLS = 3
LM_ITERS = 50


@dataclass
class OptimConfig:
    """Iteration budgets of :func:`two_stage_minimize`; the search fits by
    :func:`minimize_lm` and reads none of them. Nothing reads ``t3_iters``:
    no shipped config sets ``search.optim``, but tests and the benchmark's
    self-test do, so the key stays valid."""

    t1_iters: int = 150
    t2_iters: int = 150
    t3_iters: int = 100

    def __post_init__(self):
        if min(self.t1_iters, self.t2_iters, self.t3_iters) < 0:
            raise ValueError("iteration counts must be >= 0")


@dataclass
class OptimResult:
    final_params: np.ndarray
    final_loss: float
    iterations_used: int
    converged: bool


class _BestTracker:
    def __init__(self, theta, loss):
        self.theta = np.array(theta, copy=True)
        self.loss = float(loss)

    def offer(self, theta, loss):
        """Callers offer finite losses only. Every iterate is a fresh array
        that nothing writes to, so ``theta`` is kept without a copy."""
        # ties prefer the most recent point, so a converged iterate wins
        # over an equal-loss line-search trial
        if loss <= self.loss:
            self.loss = float(loss)
            self.theta = theta


def _check_start(loss):
    if not math.isfinite(loss):
        raise NonFiniteLossError(f"loss is {loss} at the initial parameters")


def _norm(v):
    """The Euclidean norm of a vector, with the bits of np.linalg.norm,
    which for a 1-D float vector is sqrt(v @ v) too."""
    return math.sqrt(v @ v)


def uniform_init(rng, count):
    """Default parameter initialization: i.i.d. uniform draws on [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=count)


# non-finite losses and gradients are handled below, not warned about
@np.errstate(over="ignore", invalid="ignore")
def minimize_first_order(fn, init, iters, lr):
    """Adam-style momentum descent with bias correction.

    The second moment is kept as its root, sqrt(v), updated by
    hypot(sqrt(BETA2) sqrt(v), sqrt(1 - BETA2) g), so no gradient is
    squared and the step is the same at any gradient scale up to the float
    range. Runs exactly ``iters`` steps (or stops early on a non-finite
    loss) and returns the best iterate seen.
    """
    theta = np.array(init, dtype=float, copy=True)
    loss, grad = fn(theta)
    _check_start(loss)
    best = _BestTracker(theta, loss)
    m = np.zeros_like(theta)
    rms = np.zeros_like(theta)   # the root of the second moment
    used = 0
    for t in range(1, iters + 1):
        if not np.isfinite(grad).all():
            break
        m = BETA1 * m + (1.0 - BETA1) * grad
        rms = np.hypot(math.sqrt(BETA2) * rms, math.sqrt(1.0 - BETA2) * grad)
        m_hat = m / (1.0 - BETA1**t)
        theta = theta - lr * m_hat / (rms / math.sqrt(1.0 - BETA2**t) + ADAM_EPS)
        loss, grad = fn(theta)
        used = t
        if not math.isfinite(loss):
            break
        best.offer(theta, loss)
    return OptimResult(best.theta, best.loss, used, converged=False)


@np.errstate(over="ignore", invalid="ignore")
def minimize_bfgs(fn, init, iters, grad_tol):
    """BFGS with an inverse-Hessian approximation and Armijo backtracking.

    Stops when the gradient norm drops below ``grad_tol`` or the iteration
    budget is spent. The curvature update is skipped whenever
    s'y <= 1e-10 * |s||y| (the previous approximation is kept); the test is
    relative because s and y shrink together near a minimum and an absolute
    cutoff would freeze the approximation and stall convergence. A failed
    line search (50 backtracks) returns the best iterate found so far.
    """
    theta = np.array(init, dtype=float, copy=True)
    loss, grad = fn(theta)
    _check_start(loss)
    best = _BestTracker(theta, loss)
    n = theta.size
    H = np.eye(n)
    identity = np.eye(n)
    used = 0
    converged = _norm(grad) <= grad_tol
    for k in range(iters):
        if converged or not np.isfinite(grad).all():
            break
        p = -H @ grad
        dd = float(grad @ p)
        if dd >= 0:
            # approximation lost descent property; restart from steepest descent
            H = np.eye(n)
            p = -grad
            dd = -float(grad @ grad)
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            s = step * p
            cand = theta + s
            cand_loss, cand_grad = fn(cand)
            if math.isfinite(cand_loss):
                best.offer(cand, cand_loss)
                if cand_loss <= loss + ARMIJO_C * step * dd:
                    accepted = True
                    break
            step *= BACKTRACK_FACTOR
        if not accepted:
            break
        y = cand_grad - grad
        theta, loss, grad = cand, cand_loss, cand_grad
        used = k + 1
        sty = float(s @ y)
        if sty > 1e-10 * _norm(s) * _norm(y):
            rho = 1.0 / sty
            outer_sy = s[:, None] * y
            H = (identity - rho * outer_sy) @ H @ (identity - rho * outer_sy.T)
            H += rho * (s[:, None] * s)
        # a non-finite norm fails the test; the next iteration stops on it
        converged = _norm(grad) <= grad_tol
    return OptimResult(best.theta, best.loss, used, converged)


def two_stage_minimize(fn, init, cfg: OptimConfig):
    """First-order warm-up for t1 iterations, then BFGS for t2."""
    first = minimize_first_order(fn, init, cfg.t1_iters, LR_FIRST)
    second = minimize_bfgs(fn, first.final_params, cfg.t2_iters, GRAD_TOL)
    # the BFGS tracker starts at the stage-one best, so this never worsens it
    return OptimResult(second.final_params, second.final_loss,
                       first.iterations_used + second.iterations_used,
                       second.converged)


@np.errstate(over="ignore", invalid="ignore")
def minimize_lm(objective, init, iters):
    """Levenberg–Marquardt with Marquardt's scaling on a loss
    |r(theta)|^2 / objective.m, for at most ``iters`` iterations.

    ``objective.residual(theta)`` returns (loss, r, jacobian), where
    ``jacobian()`` is dr/dtheta; it is called only at accepted points. Each
    iteration solves (J'J + lam D) step = -J'r, with D the diagonal of J'J
    (a zero entry taken as 1); J'J and J'r read whole rows when J is the
    transpose of a C-ordered J', as the objective's is. It accepts the
    trial only when its loss is finite and lower than the current one, so
    the current point is always the best one visited; lam starts at
    LM_DAMPING and is divided by LM_DAMPING_FACTOR on an accepted step and
    multiplied by it on a rejected one. Stops when the gradient norm
    2|J'r| / m is at most GRAD_TOL (converged), after LM_STALLS accepted
    steps in a row that each lower the loss by a relative LM_STALL_RTOL or
    less, or after ``iters`` iterations. Each iteration makes at most one
    residual call, so a fit makes at most ``iters + 1``.
    """
    theta = np.array(init, dtype=float, copy=True)
    loss, r, jacobian = objective.residual(theta)
    _check_start(loss)
    grad_scale = 2.0 / objective.m
    damping = LM_DAMPING
    stalls = used = 0
    converged = False
    for k in range(iters):
        if jacobian is not None:   # a new point: its normal equations
            J = jacobian()
            jtj, jtr = J.T @ J, J.T @ r
            if not (np.isfinite(jtj).all() and np.isfinite(jtr).all()):
                break
            converged = grad_scale * _norm(jtr) <= GRAD_TOL
            if converged:
                break
            # J'J + lam D differs from J'J only on its diagonal, a view
            # that each trial rewrites
            damped = jtj.copy()
            diagonal = damped.reshape(-1)[::jtj.shape[0] + 1]
            scaling = diagonal.copy()
            scaling[scaling == 0.0] = 1.0
            jacobian = None
        used = k + 1
        np.add(jtj.diagonal(), damping * scaling, out=diagonal)
        try:
            cand = theta - np.linalg.solve(damped, jtr)
        except np.linalg.LinAlgError:   # singular to working precision
            damping *= LM_DAMPING_FACTOR
            continue
        cand_loss, cand_r, cand_jacobian = objective.residual(cand)
        if cand_loss < loss:   # the +inf sentinel never is
            drop = loss - cand_loss
            stalls = stalls + 1 if drop <= LM_STALL_RTOL * loss else 0
            theta, loss, r, jacobian = cand, cand_loss, cand_r, cand_jacobian
            damping /= LM_DAMPING_FACTOR
            if stalls == LM_STALLS:
                break
        else:
            damping *= LM_DAMPING_FACTOR
    return OptimResult(theta, loss, used, converged)
