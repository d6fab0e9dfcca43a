"""The search loop: score sampled operator sequences, update the
controller, keep the best candidates and fine-tune them; and the
vector-valued system that one expression per component forms. Every
iterative fit, first fits and fine-tune alike, is
:func:`~symode.optimize.minimize_lm` on the sequence's
:class:`~symode.losses.EulerResidualObjective`: a type2 first fit is a
short screening fit of ``LM_SCREEN_ITERS`` iterations, and every other
fit, the fine-tune of each pool entry included, has the full
``LM_ITERS``."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .controller import ControllerPolicy, policy_update, sample_sequences
from .errors import NonFiniteLossError, NumericalError
from .losses import ComponentSamples, EulerResidualObjective, tsqr
from .optimize import LM_ITERS, OptimConfig, minimize_lm, uniform_init

# re-initialization attempts when random parameters give a non-finite loss
MAX_INIT_RETRIES = 3
# The iteration budget of a type2 first fit: it only screens the sequence
# for the pool, whose entries the fine-tune then runs for LM_ITERS more.
# Measured on perfbench qdr_real, config 0 of run seeds 0-19 (60 winners,
# against LM_ITERS for every fit): a budget of 15 left 15 winner losses
# more than 1% worse; 20 left 9, none more than 6% worse. type1 first fits
# keep LM_ITERS: screening them as well raised the median test max
# per-step MSE of sir_type1 run seeds 0-59 from 1.1e-5 to 3.4e-5.
LM_SCREEN_ITERS = 20

# Unary tags whose leaf is a constant whatever its parameters; every other
# tag's leaf features are columns of the closed-form fit.
CONSTANT_TAGS = ("0", "1")
FEATURE_TAGS = tuple(t for t in ex.UNARY_TAGS if t not in CONSTANT_TAGS)


def score_from_loss(loss):
    """Score of a minimized loss: 1 / (1 + L); non-finite losses map to the
    score-0 sentinel."""
    if not np.isfinite(loss):
        return 0.0
    return 1.0 / (1.0 + float(loss))


@dataclass
class SearchConfig:
    """Knobs of one component search. ``templates`` is either a single
    template kind used for every component or one kind per component;
    kinds are matched case-insensitively and stored lower-case."""

    epochs: int = 100
    batch_size: int = 10
    pool_capacity: int = 10
    nu: float = 0.2
    epsilon: float = 0.1
    controller_lr: float = 0.002
    templates: object = ex.TYPE2
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "pool_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if not 0 < self.nu < 1:
            raise ValueError("nu: must lie in (0, 1)")
        if not 0 <= self.epsilon <= 1:
            raise ValueError("epsilon: must lie in [0, 1]")
        if self.controller_lr < 0:
            raise ValueError("controller_lr: must be >= 0")
        single = isinstance(self.templates, str)
        kinds = [self.templates] if single else self.templates
        if not isinstance(kinds, (list, tuple)):
            raise ValueError("templates: expected a string or list")
        if not all(isinstance(t, str) for t in kinds):
            raise ValueError("templates: expected template-kind strings")
        kinds = [t.lower() for t in kinds]
        bad = [t for t in kinds if t not in (ex.TYPE1, ex.TYPE2)]
        if bad:
            raise ValueError(f"templates: unknown template kinds {bad}")
        self.templates = kinds[0] if single else kinds

    def template_for(self, component):
        if isinstance(self.templates, str):
            return self.templates
        if component >= len(self.templates):
            raise ValueError(
                f"no template kind configured for component {component}")
        return self.templates[component]


@dataclass
class ScoreRecord:
    """One scored sequence: minimized loss and the best parameters found;
    its score follows from the loss."""

    sequence: tuple
    loss: float
    params: np.ndarray
    component: int
    template: ex.TreeTemplate

    @property
    def score(self):
        return score_from_loss(self.loss)


class CandidatePool:
    """Keeps the K highest-scoring distinct sequences seen so far.

    Entries rank by loss, ties toward the earlier arrival. Only finite
    losses are admitted, and S = 1 / (1 + L) is monotone in L even after
    rounding, so this is the score order; it also orders the entries whose
    scores saturate at 1.0 in float64. Re-inserting a known sequence keeps
    the better record, in the place of its first arrival.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries = {}     # sequence -> record, in order of arrival

    def __len__(self):
        return len(self._entries)

    def insert(self, record):
        """Offer a record; returns True if the pool now contains it."""
        if not np.isfinite(record.loss):
            return False
        key = record.sequence
        if key in self._entries:
            if record.loss < self._entries[key].loss:
                self._entries[key] = record
            return True
        self._entries[key] = record
        if len(self._entries) > self.capacity:
            # the worst loss, the latest arrival among equals
            del self._entries[max(reversed(self._entries),
                                  key=lambda k: self._entries[k].loss)]
        return key in self._entries

    def records(self):
        """Entries ordered best-first."""
        return sorted(self._entries.values(), key=lambda r: r.loss)

    def best(self):
        recs = self.records()
        return recs[0] if recs else None


@np.errstate(over="ignore", invalid="ignore")
def feature_factor(samples):
    """R of the QR factorization of [Phi | y] for one component, or None
    when a feature is not finite.

    Phi holds the features ``samples.features[tag]`` of every tag of
    ``FEATURE_TAGS`` (tag-major columns) and then a ones column; y is the
    component's Euler difference quotient dy / dt. R is built by
    :func:`~symode.losses.tsqr`, so no QR sees all M rows at once. For
    any column set S, |Phi_S w - y| = |R_S w - R_y|, which is what lets
    every linear sequence of a component search be solved from this one
    small matrix.
    """
    return tsqr(np.column_stack([samples.features[tag] for tag in FEATURE_TAGS]
                                + [np.ones(samples.m),
                                   samples.dy / samples.dt]))


def _is_constant(template, sequence, i):
    """Whether node i is constant whatever its parameters: a '0'/'1' leaf,
    or a binary node over two constant nodes."""
    node = template.nodes[i]
    if node.kind == "binary":
        return all(_is_constant(template, sequence, c) for c in node.children)
    return node.is_leaf and sequence[i] in CONSTANT_TAGS


def linear_form(template, sequence):
    """The expression as a signed sum of leaves, when its function class is
    linear in the leaf features; None when it is not.

    That holds when every binary node is ``add``/``sub``, except ``mul``
    nodes with a constant operand: scaling the other operand by a constant
    leaves its function class unchanged. Returns (terms, units): ``terms``
    lists (leaf index, sign) pairs whose signed sum is the expression once
    every node in ``units`` (the constant ``mul`` operands) is 1. An
    interior unary node (type1) is never linear.
    """
    terms, units = [], []

    def walk(i, sign):
        node = template.nodes[i]
        if node.kind == "unary":
            terms.append((i, sign))
            return node.is_leaf
        l, r = node.children
        if sequence[i] == "mul":
            for unit, rest in ((l, r), (r, l)):
                if _is_constant(template, sequence, unit):
                    units.append(unit)
                    return walk(rest, sign)
            return False
        return walk(l, sign) and walk(r, -sign if sequence[i] == "sub" else sign)

    return (terms, units) if walk(template.n_slots - 1, 1.0) else None


def _set_one(template, sequence, theta, i):
    """Make the constant node i evaluate to 1 (theta starts at zero)."""
    node = template.nodes[i]
    if node.kind == "unary":
        theta[template.slices[i].stop - 1] = 1.0   # beta; alpha stays 0
        return
    l, r = node.children
    _set_one(template, sequence, theta, l)          # 1 + 0, 1 - 0
    if sequence[i] == "mul":
        _set_one(template, sequence, theta, r)      # 1 * 1


def _closed_form(factor, template, sequence, form):
    """Parameters at the least-squares minimum of a linear sequence.

    The solve reads only the factor's rows: an n x (3d+1) problem at most,
    with n = len(FEATURE_TAGS) * d + 1, whatever the number of samples. Each
    non-constant leaf's alpha is its block of the solution, the intercept
    is the first term's beta, and each constant ``mul`` operand is set to 1;
    every other parameter is zero.
    """
    terms, units = form
    d = template.input_dim
    n = len(FEATURE_TAGS) * d + 1
    first, first_sign = terms[0]
    columns, signs = [n - 1], [first_sign]
    targets = [template.slices[first].stop - 1]
    for leaf, sign in terms:
        if sequence[leaf] in CONSTANT_TAGS:
            continue
        start = FEATURE_TAGS.index(sequence[leaf]) * d
        sl = template.slices[leaf]
        columns.extend(range(start, start + d))
        signs.extend([sign] * d)
        targets.extend(range(sl.start, sl.stop - 1))
    # the minimum-norm solution through the SVD (np.linalg.lstsq's gelsd
    # wakes OpenBLAS worker threads at 22 x 10); columns repeat when two
    # leaves share a tag, and on the simplex the ids sum to the ones column
    w = np.linalg.pinv(factor[:n, columns] * signs) @ factor[:n, n]
    theta = np.zeros(template.n_params)
    theta[targets] = w
    for unit in units:
        _set_one(template, sequence, theta, unit)
    return theta


# a loss beyond the float range scores 0; it is no cause for a warning
@np.errstate(over="ignore", invalid="ignore")
def score_sequence(sequence, template, samples, rng, factor=None):
    """Fit the parameters of one sequence to a component's samples and
    score the result.

    The route follows from the sequence alone: given the component's
    :func:`feature_factor`, a sequence whose :func:`linear_form` exists
    takes its least-squares minimum in closed form. Every other sequence,
    and a closed form whose loss is not finite, runs
    :func:`~symode.optimize.minimize_lm` on its Euler residual objective
    from a start uniform on [-1, 1], for ``LM_SCREEN_ITERS`` iterations on
    a type2 template and ``LM_ITERS`` on a type1 one. That start is drawn
    first on either route; only LM tests it, and a start it refuses as not
    finite is drawn again, up to ``MAX_INIT_RETRIES`` times, before a
    score-0 sentinel. Every recorded loss is the objective's at the
    recorded parameters. Numerical failures never propagate out of here.
    """
    sequence = tuple(sequence)
    objective = EulerResidualObjective(template, sequence, samples)
    theta0 = uniform_init(rng, objective.n_params)
    form = None if factor is None else linear_form(template, sequence)
    if form is not None:
        theta = _closed_form(factor, template, sequence, form)
        loss = objective.loss(theta)
        if np.isfinite(loss):
            return ScoreRecord(sequence, loss, theta, samples.component,
                               template)
    iters = LM_SCREEN_ITERS if template.kind == ex.TYPE2 else LM_ITERS
    for attempt in range(1 + MAX_INIT_RETRIES):
        if attempt:
            theta0 = uniform_init(rng, objective.n_params)
        try:
            fit = minimize_lm(objective, theta0, iters)
        except NonFiniteLossError:
            continue
        return ScoreRecord(sequence, fit.final_loss, fit.final_params,
                           samples.component, template)
    return ScoreRecord(sequence, float("inf"), np.zeros(objective.n_params),
                       samples.component, template)


@dataclass
class SearchOutcome:
    best: ScoreRecord
    pool: CandidatePool
    history: list               # per-epoch best batch score


def search_component(data, component, cfg: SearchConfig, rng):
    """Run the full search loop for one state component.

    Every epoch: sample a batch, score each distinct sequence once, insert
    the records into the pool, then update the controller on the batch
    scores. After the last epoch each pool entry fitted iteratively is
    fitted again from its recorded parameters, which can only improve its
    recorded loss. One :class:`~symode.losses.ComponentSamples` feeds every
    fit; a type2 search factors its features once, its one QR, for the
    closed-form fits of its linear sequences.
    """
    template = ex.build_template(cfg.template_for(component), data.dim)
    samples = ComponentSamples(data, component)
    factor = feature_factor(samples) if template.kind == ex.TYPE2 else None
    policy = ControllerPolicy.uniform(template, cfg.epsilon, cfg.controller_lr)
    pool = CandidatePool(cfg.pool_capacity)
    history = []
    for _ in range(cfg.epochs):
        batch = sample_sequences(policy, template, cfg.batch_size, rng)
        scored = {}
        scores = np.empty(cfg.batch_size)
        for i, seq in enumerate(batch.sequences):
            if seq not in scored:
                record = score_sequence(seq, template, samples, rng, factor)
                scored[seq] = record
                pool.insert(record)
            scores[i] = scored[seq].score
        batch.scores = scores
        policy_update(policy, batch, cfg.nu)
        history.append(float(scores.max()))
    _finetune_pool(pool, samples, factor)
    best = pool.best()
    if best is None:
        raise NumericalError(
            f"component {component}: no sequence produced a finite loss")
    return SearchOutcome(best, pool, history)


def _finetune_pool(pool, samples, factor):
    """Run Levenberg–Marquardt again on the Euler residual objective, from
    the recorded parameters of each pool entry that :func:`score_sequence`
    fits iteratively, for the full ``LM_ITERS``; an entry with a closed
    form under the search's feature ``factor`` already sits at its
    least-squares minimum and is skipped. A first fit that stopped on its
    iteration budget (``LM_SCREEN_ITERS`` for a type2 screening fit) or on
    stalled steps goes on from where it stopped. LM moves only to a lower
    loss, and the pool keeps the record with the lower loss, so the
    recorded loss never worsens."""
    for record in pool.records():
        if (factor is not None
                and linear_form(record.template, record.sequence) is not None):
            continue
        objective = EulerResidualObjective(record.template, record.sequence,
                                           samples)
        fit = minimize_lm(objective, record.params, LM_ITERS)
        pool.insert(replace(record, params=fit.final_params,
                            loss=fit.final_loss))


class SystemModel:
    """d learned component expressions evaluated on a shared input."""

    def __init__(self, components):
        self.components = list(components)
        d = len(self.components)
        for expr in self.components:
            if expr.template.input_dim != d:
                raise ValueError("component input_dim != number of components")

    def __call__(self, x):
        """The time derivative at a state (d,) or at each row of a batch
        (n, d), from one batch evaluation per component."""
        x = np.asarray(x, dtype=float)
        out = np.column_stack([ex.evaluate_batch(c, x)
                               for c in self.components])
        return out if x.ndim == 2 else out[0]
