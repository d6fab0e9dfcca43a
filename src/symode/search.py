"""The search loop: score sampled operator sequences, update the
controller, keep the best candidates, fine-tune them, and assemble the
per-component winners into one vector-valued system."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .controller import ControllerPolicy, policy_update, sample_sequences
from .errors import NonFiniteLossError, NumericalError
from .losses import EulerResidualObjective
from .optimize import (OptimConfig, minimize_first_order, two_stage_minimize,
                       uniform_init)

# re-initialization attempts when random parameters give a non-finite loss
MAX_INIT_RETRIES = 3


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
    # seeds search_component's own generator when the caller passes none;
    # the pipeline always passes one, so no config file sets this
    seed: int = field(default=0, metadata={"key": None})

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
    """One scored sequence: minimized loss, its score, and the best
    parameters found."""

    sequence: tuple
    score: float
    loss: float
    params: np.ndarray
    component: int
    template: ex.TreeTemplate


class CandidatePool:
    """Keeps the K highest-scoring distinct sequences seen so far.

    Scores saturate at 1.0 in float64 once the loss drops below machine
    epsilon, so ranking refines score ties by the stored loss (score is a
    monotone bijection of loss, this is the same ordering at full
    precision); remaining ties break toward the earlier arrival. Score-0
    sentinels are never admitted, and re-inserting a known sequence keeps
    the better record.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries = {}     # sequence -> (record, arrival index)
        self._arrivals = 0

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def _rank(record, arrival):
        return (-record.score, record.loss, arrival)

    def insert(self, record):
        """Offer a record; returns True if the pool now contains it."""
        if record.score <= 0.0 or not np.isfinite(record.loss):
            return False
        self._arrivals += 1
        key = record.sequence
        if key in self._entries:
            old, arrival = self._entries[key]
            if self._rank(record, arrival) < self._rank(old, arrival):
                self._entries[key] = (record, arrival)
            return True
        self._entries[key] = (record, self._arrivals)
        if len(self._entries) > self.capacity:
            evict = max(self._entries,
                        key=lambda k: self._rank(*self._entries[k]))
            del self._entries[evict]
        return key in self._entries

    def replace(self, record):
        """Swap in an improved record for an existing sequence, keeping its
        original arrival order."""
        key = record.sequence
        if key not in self._entries:
            raise KeyError(f"sequence {key} not in pool")
        _, arrival = self._entries[key]
        self._entries[key] = (record, arrival)

    def records(self):
        """Entries ordered best-first."""
        ranked = sorted(self._entries.values(),
                        key=lambda ra: self._rank(ra[0], ra[1]))
        return [r for r, _ in ranked]

    def best(self):
        recs = self.records()
        return recs[0] if recs else None


def score_sequence(sequence, template, data, component, optim, rng):
    """Fit the parameters of one sequence and score the result.

    Parameters start uniform on [-1, 1]; a non-finite starting loss is
    retried up to three times before the sequence is written off with a
    score-0 sentinel. Numerical failures never propagate out of here.
    """
    sequence = tuple(sequence)
    objective = EulerResidualObjective(template, sequence, data, component)
    theta0 = None
    for _ in range(1 + MAX_INIT_RETRIES):
        candidate = uniform_init(rng, objective.n_params)
        if np.isfinite(objective.loss(candidate)):
            theta0 = candidate
            break
    if theta0 is None:
        return ScoreRecord(sequence, 0.0, float("inf"),
                           np.zeros(objective.n_params), component, template)
    try:
        result = two_stage_minimize(objective.loss_and_grad, theta0, optim)
    except NonFiniteLossError:
        return ScoreRecord(sequence, 0.0, float("inf"), theta0, component,
                           template)
    loss = result.final_loss
    return ScoreRecord(sequence, score_from_loss(loss), loss,
                       result.final_params, component, template)


@dataclass
class SearchOutcome:
    best: ScoreRecord
    pool: CandidatePool
    history: list               # per-epoch best batch score


def search_component(data, component, cfg: SearchConfig, rng=None):
    """Run the full search loop for one state component.

    Every epoch: sample a batch, score each distinct sequence once, insert
    the records into the pool, then update the controller on the batch
    scores. After the last epoch each pool entry gets a slow first-order
    fine-tuning pass, which can only improve its recorded loss.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, component]))
    template = ex.build_template(cfg.template_for(component), data.dim)
    policy = ControllerPolicy.uniform(template, cfg.epsilon, cfg.controller_lr)
    pool = CandidatePool(cfg.pool_capacity)
    history = []
    for _ in range(cfg.epochs):
        batch = sample_sequences(policy, template, cfg.batch_size, rng)
        scored = {}
        scores = np.empty(cfg.batch_size)
        for i, seq in enumerate(batch.sequences):
            if seq not in scored:
                record = score_sequence(seq, template, data, component,
                                        cfg.optim, rng)
                scored[seq] = record
                pool.insert(record)
            scores[i] = scored[seq].score
        batch.scores = scores
        policy_update(policy, batch, cfg.nu)
        history.append(float(scores.max()))
    _finetune_pool(pool, data, component, cfg.optim)
    best = pool.best()
    if best is None:
        raise NumericalError(
            f"component {component}: no sequence produced a finite loss")
    return SearchOutcome(best, pool, history)


def _finetune_pool(pool, data, component, optim):
    """Slow first-order pass over every pool entry; best-iterate tracking
    guarantees the recorded loss never worsens."""
    for record in pool.records():
        objective = EulerResidualObjective(record.template, record.sequence,
                                           data, component)
        result = minimize_first_order(objective.loss_and_grad, record.params,
                                      optim.t3_iters, optim.lr_finetune)
        if result.final_loss <= record.loss:
            pool.replace(replace(record,
                                 params=result.final_params,
                                 loss=result.final_loss,
                                 score=score_from_loss(result.final_loss)))


class SystemModel:
    """d learned component expressions evaluated on a shared input."""

    def __init__(self, components, var_names=None):
        self.components = list(components)
        d = len(self.components)
        for expr in self.components:
            if expr.template.input_dim != d:
                raise ValueError("component input_dim != number of components")
        self.var_names = tuple(var_names) if var_names else tuple(
            f"x{j + 1}" for j in range(d))

    @property
    def dim(self):
        return len(self.components)

    def __call__(self, x):
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return np.array([ex.evaluate_batch(c, x)[0] for c in self.components])

    def evaluate_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack([ex.evaluate_batch(c, X) for c in self.components])

    def symbolic(self, precision=4, elide_below=None):
        return [ex.to_symbolic_string(c, precision, self.var_names, elide_below)
                for c in self.components]


def assemble_system(records, var_names=None):
    """Stack one ScoreRecord per component index into a SystemModel."""
    d = len(records)
    by_component = {r.component: r for r in records}
    missing = [i for i in range(d) if i not in by_component]
    if missing:
        raise ValueError(f"missing component records for indices {missing}")
    exprs = [
        ex.CompiledExpression(by_component[i].template,
                              by_component[i].sequence,
                              by_component[i].params)
        for i in range(d)
    ]
    return SystemModel(exprs, var_names)
