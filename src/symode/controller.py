"""Categorical sequence controller with a risk-seeking policy gradient.

The policy is a table of independent per-slot logits over the admissible
operators of each slot. Sequences are drawn with epsilon-greedy mixing:
each slot independently falls back to a uniform draw with probability
epsilon. Updates follow REINFORCE restricted to the top of the batch:
only sequences scoring at or above the batch quantile threshold
contribute, weighted by their margin over the threshold. The gradient is
always taken with respect to the softmax policy, also for slots whose
draw came from the uniform branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import allocate
from .expressions import BINARY_TAGS, UNARY_TAGS


def _softmax(logits):
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def slot_vocabularies(template):
    """Admissible operator tags per slot, in controller index order."""
    return tuple(
        UNARY_TAGS if node.kind == "unary" else BINARY_TAGS
        for node in template.nodes
    )


@dataclass
class ControllerPolicy:
    """Per-slot logits plus the exploration and update hyperparameters."""

    logits: list
    epsilon: float
    lr: float

    @classmethod
    def uniform(cls, template, epsilon, lr):
        vocabs = slot_vocabularies(template)
        return cls([np.zeros(len(v)) for v in vocabs], epsilon, lr)

    def probabilities(self):
        return [_softmax(l) for l in self.logits]


@dataclass
class SampleBatch:
    """Sequences drawn in one round, with bookkeeping for the update."""

    sequences: list                  # list of tag tuples
    choices: np.ndarray              # (n, s) chosen vocabulary indices
    scores: np.ndarray = None        # filled after scoring


def sample_sequences(policy, template, n, rng):
    """Draw ``n`` operator sequences; each slot independently uses the
    uniform branch with probability epsilon, otherwise the softmax.

    A softmax draw is ``rng.choice(len(vocab), p=p)`` with each slot's CDF
    computed once per batch: the same arithmetic and the same call on
    ``rng`` that ``Generator.choice`` makes, so the same choices."""
    if n < 1:
        raise ValueError("batch size must be >= 1")
    vocabs = slot_vocabularies(template)
    cdfs = []
    for p in policy.probabilities():
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf)
    choices = allocate(np.zeros, shape=(n, len(vocabs)), dtype=int)
    sequences = []
    for i in range(n):
        tags = []
        for j, vocab in enumerate(vocabs):
            if rng.random() < policy.epsilon:
                idx = int(rng.integers(len(vocab)))
            else:
                idx = int(cdfs[j].searchsorted(rng.random(), side="right"))
            choices[i, j] = idx
            tags.append(vocab[idx])
        sequences.append(tuple(tags))
    return SampleBatch(sequences, choices)


def log_prob(policy, template, sequence):
    """Log probability of ``sequence`` under the pure softmax policy."""
    vocabs = slot_vocabularies(template)
    return sum(math.log(p[vocab.index(tag)]) for p, vocab, tag
               in zip(policy.probabilities(), vocabs, sequence))


def quantile_threshold(scores, nu):
    """Empirical threshold keeping the top ``ceil(nu * n)`` scores: the
    smallest value among them (nearest-rank rule). At least one batch
    element always satisfies score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n == 0:
        raise ValueError("scores must be nonempty")
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    k = math.ceil(nu * n)
    return float(np.partition(scores, n - k)[n - k])


def apply_policy_gradient(policy, batch, threshold):
    """One gradient-ascent step using sequences at or above ``threshold``.

    grad = (1/|top|) * sum_top (score - threshold) * d log p / d logits.
    For slot j that is (1/|top|) * (sum of the margins of the top
    sequences that chose each operator - p_j * sum of all top margins).
    Sequences below the threshold contribute exactly zero. Logits are
    updated in place.
    """
    scores = np.asarray(batch.scores, dtype=float)
    top = scores >= threshold
    w = scores[top] - threshold
    if w.size == 0:
        return policy
    choices = batch.choices[top]
    scale = policy.lr / w.size
    for j, p in enumerate(policy.probabilities()):
        counts = np.bincount(choices[:, j], weights=w, minlength=p.size)
        policy.logits[j] += scale * (counts - p * w.sum())
    return policy


def policy_update(policy, batch, nu):
    """Risk-seeking update: compute the batch quantile threshold and take
    one ascent step on the thresholded REINFORCE estimator."""
    if batch.scores is None:
        raise ValueError("batch has no scores")
    threshold = quantile_threshold(batch.scores, nu)
    return apply_policy_gradient(policy, batch, threshold)
