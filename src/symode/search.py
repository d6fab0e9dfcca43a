"""The search loop: score sampled operator sequences, update the
controller, keep the best candidates and fine-tune them; and the
vector-valued system that one expression per component forms. A first
fit, as :func:`score_sequence` routes it, is a closed form or
:func:`~symode.optimize.minimize_lm` on the sequence's Euler residual
objective for ``LM_SCREEN_ITERS`` (type2) or ``LM_ITERS`` (type1)
iterations; the fine-tune runs LM on every pool entry for ``LM_ITERS``."""

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


def _unit_betas(template, sequence, i):
    """The betas that, set to 1 with the rest of node i's parameters zero,
    make node i evaluate to 1 (1 + 0, 1 - 0, 1 * 1); None unless node i is
    constant whatever its parameters: a '0'/'1' leaf, or a binary node over
    two constant nodes."""
    node = template.nodes[i]
    if node.kind == "unary":
        constant = node.is_leaf and sequence[i] in CONSTANT_TAGS
        return [template.slices[i].stop - 1] if constant else None
    l, r = (_unit_betas(template, sequence, c) for c in node.children)
    if l is None or r is None:
        return None
    return l + r if sequence[i] == "mul" else l


def linear_form(template, sequence):
    """The plan of the expression's closed form, when its function class is
    linear in the leaf features; None when it is not.

    That holds when every binary node is ``add``/``sub``, except ``mul``
    nodes with a constant operand: scaling the other operand by a constant
    leaves its function class unchanged. An interior unary node (type1) is
    never linear. The plan is (columns, signs, targets, betas): the signed
    :func:`feature_factor` columns whose weights fit the expression, the
    parameter each weight sets (the ones column's is the first leaf's beta,
    each non-constant leaf's tag block its alphas), and the
    :func:`_unit_betas` of each constant ``mul`` operand.
    """
    d = template.input_dim
    columns, signs, targets, betas = [len(FEATURE_TAGS) * d], [], [], []

    def walk(i, sign):
        node = template.nodes[i]
        if node.kind == "unary":
            if not node.is_leaf:
                return False
            sl = template.slices[i]
            if not signs:
                signs.append(sign)
                targets.append(sl.stop - 1)
            if sequence[i] not in CONSTANT_TAGS:
                start = FEATURE_TAGS.index(sequence[i]) * d
                columns.extend(range(start, start + d))
                signs.extend([sign] * d)
                targets.extend(range(sl.start, sl.stop - 1))
            return True
        l, r = node.children
        if sequence[i] == "mul":
            for unit, rest in ((l, r), (r, l)):
                one = _unit_betas(template, sequence, unit)
                if one is not None:
                    betas.extend(one)
                    return walk(rest, sign)
            return False
        return walk(l, sign) and walk(r, -sign if sequence[i] == "sub" else sign)

    form = columns, signs, targets, betas
    return form if walk(template.n_slots - 1, 1.0) else None


def _closed_form(factor, template, form):
    """Parameters at the least-squares minimum of a linear sequence, from
    its :func:`linear_form` plan: each weight sets its target, each beta is
    1, and every other parameter is zero. The solve reads only the factor's
    rows: an n x (3d+1) problem at most, with n = len(FEATURE_TAGS) * d + 1,
    whatever the number of samples."""
    columns, signs, targets, betas = form
    n = len(FEATURE_TAGS) * template.input_dim + 1
    # the minimum-norm solution through the SVD (np.linalg.lstsq's gelsd
    # wakes OpenBLAS worker threads at 22 x 10); columns repeat when two
    # leaves share a tag, and on the simplex the ids sum to the ones column
    w = np.linalg.pinv(factor[:n, columns] * signs) @ factor[:n, n]
    theta = np.zeros(template.n_params)
    theta[targets] = w
    theta[betas] = 1.0
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
        theta = _closed_form(factor, template, form)
        loss = objective.loss(theta)
        if np.isfinite(loss):
            return ScoreRecord(sequence, loss, theta, template)
    iters = LM_SCREEN_ITERS if template.kind == ex.TYPE2 else LM_ITERS
    for attempt in range(1 + MAX_INIT_RETRIES):
        if attempt:
            theta0 = uniform_init(rng, objective.n_params)
        try:
            fit = minimize_lm(objective, theta0, iters)
        except NonFiniteLossError:
            continue
        return ScoreRecord(sequence, fit.final_loss, fit.final_params, template)
    return ScoreRecord(sequence, float("inf"), np.zeros(objective.n_params),
                       template)


@dataclass
class SearchOutcome:
    best: ScoreRecord
    pool: CandidatePool
    history: list               # per-epoch best batch score


def search_component(data, component, cfg: SearchConfig, rng):
    """Run the full search loop for one state component.

    Every epoch: sample a batch, score each distinct sequence once, insert
    the records into the pool, then update the controller on the batch
    scores. After the last epoch every pool entry, closed forms included,
    is fitted again from its recorded parameters, which can only lower its
    loss. One :class:`~symode.losses.ComponentSamples` feeds every fit; a
    type2 search factors its features once, its one QR, for the closed
    forms of its linear sequences.
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
    _finetune_pool(pool, samples)
    best = pool.best()
    if best is None:
        raise NumericalError(
            f"component {component}: no sequence produced a finite loss")
    return SearchOutcome(best, pool, history)


def _finetune_pool(pool, samples):
    """Run Levenberg–Marquardt again on the Euler residual objective, from
    the recorded parameters of every pool entry, for the full
    ``LM_ITERS``. A first fit that stopped on its iteration budget
    (``LM_SCREEN_ITERS`` for a type2 screening fit) or on stalled steps
    goes on from where it stopped. An entry already at its minimum, as a
    closed form usually is, passes LM's gradient test before any step and
    keeps its bytes. LM moves only to a lower loss, and the pool keeps the
    record with the lower loss, so the recorded loss never worsens."""
    for record in pool.records():
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
