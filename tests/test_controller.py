import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symode as sm
from symode.controller import (apply_policy_gradient, slot_vocabularies)


@pytest.fixture
def type2_template():
    return sm.build_template("type2", 3)


def fresh_policy(template, epsilon=0.1, lr=0.002):
    return sm.ControllerPolicy.uniform(template, epsilon, lr)


class TestSampling:
    def test_epsilon_one_is_uniform(self, type2_template):
        policy = fresh_policy(type2_template, epsilon=1.0)
        # bias the logits hard; the uniform branch must ignore them
        policy.logits[0][:] = np.linspace(-50, 50, 9)
        rng = np.random.default_rng(0)
        batch = sm.sample_sequences(policy, type2_template, 10_000, rng)
        counts = np.bincount(batch.choices[:, 0], minlength=9)
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 1 / 9) <= 0.02)

    def test_epsilon_zero_dominant_logit(self, type2_template):
        policy = fresh_policy(type2_template, epsilon=0.0)
        for logits in policy.logits:
            logits[:] = -10.0
            logits[0] = 10.0
        rng = np.random.default_rng(1)
        batch = sm.sample_sequences(policy, type2_template, 5000, rng)
        freq = np.mean(batch.choices[:, 0] == 0)
        assert freq >= 0.999

    def test_same_seed_same_batch(self, type2_template):
        policy = fresh_policy(type2_template)
        a = sm.sample_sequences(policy, type2_template, 64,
                                np.random.default_rng(7))
        b = sm.sample_sequences(policy, type2_template, 64,
                                np.random.default_rng(7))
        assert a.sequences == b.sequences
        assert np.array_equal(a.choices, b.choices)

    def test_sequences_valid_for_slots(self, type2_template):
        policy = fresh_policy(type2_template, epsilon=0.5)
        rng = np.random.default_rng(3)
        batch = sm.sample_sequences(policy, type2_template, 200, rng)
        vocabs = slot_vocabularies(type2_template)
        for seq in batch.sequences:
            assert all(tag in vocab for tag, vocab in zip(seq, vocabs))


def reference_sample_sequences(policy, template, n, rng):
    """The per-slot ``rng.choice`` loop that ``sample_sequences`` must
    reproduce draw for draw."""
    vocabs = slot_vocabularies(template)
    probs = policy.probabilities()
    choices = np.zeros((n, len(vocabs)), dtype=int)
    sequences = []
    for i in range(n):
        tags = []
        for j, vocab in enumerate(vocabs):
            if rng.random() < policy.epsilon:
                idx = int(rng.integers(len(vocab)))
            else:
                idx = int(rng.choice(len(vocab), p=probs[j]))
            choices[i, j] = idx
            tags.append(vocab[idx])
        sequences.append(tuple(tags))
    return sequences, choices


@pytest.mark.parametrize("kind", ["type1", "type2"])
@pytest.mark.parametrize("logits", ["uniform", "random"])
@pytest.mark.parametrize("epsilon", [0.1, 1.0])
def test_sampling_matches_per_slot_choice_draw_for_draw(kind, logits,
                                                        epsilon):
    template = sm.build_template(kind, 3)
    policy = fresh_policy(template, epsilon=epsilon)
    for seed in range(5):
        if logits == "random":
            init = np.random.default_rng(100 + seed)
            for slot in policy.logits:
                slot[:] = init.normal(scale=3.0, size=slot.size)
        rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
        batch = sm.sample_sequences(policy, template, 200, rng)
        sequences, choices = reference_sample_sequences(policy, template, 200,
                                                        reference_rng)
        assert batch.sequences == sequences
        assert np.array_equal(batch.choices, choices)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestLogProb:
    def test_uniform_policy_value(self, type2_template):
        policy = fresh_policy(type2_template)
        seq = ("id", "sin", "mul", "exp", "add")
        expected = math.log((1 / 9) ** 3 * (1 / 3) ** 2)
        assert sm.log_prob(policy, type2_template, seq) == pytest.approx(
            expected, abs=1e-12)

    def test_dominant_sequence_near_zero(self, type2_template):
        policy = fresh_policy(type2_template)
        vocabs = slot_vocabularies(type2_template)
        seq = tuple(v[0] for v in vocabs)
        for logits in policy.logits:
            logits[0] = 60.0
        assert sm.log_prob(policy, type2_template, seq) == pytest.approx(0.0,
                                                                         abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_always_nonpositive(self, seed):
        template = sm.build_template("type2", 3)
        policy = fresh_policy(template)
        rng = np.random.default_rng(seed)
        for logits in policy.logits:
            logits[:] = rng.normal(scale=3.0, size=logits.size)
        batch = sm.sample_sequences(policy, template, 5, rng)
        for seq in batch.sequences:
            assert sm.log_prob(policy, template, seq) <= 0.0


def brute_force_threshold(scores, nu):
    """Independent nearest-rank oracle: k-th largest with k = ceil(nu*n),
    computed with plain Python sorting."""
    ordered = sorted(scores, reverse=True)
    k = math.ceil(nu * len(ordered))
    return ordered[k - 1]


class TestQuantileThreshold:
    def test_ten_scores_top_two(self):
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        thr = sm.quantile_threshold(scores, 0.2)
        assert thr == pytest.approx(0.9)
        assert sum(s >= thr for s in scores) == 2

    def test_all_equal(self):
        assert sm.quantile_threshold([0.5] * 7, 0.3) == 0.5

    def test_single_score(self):
        assert sm.quantile_threshold([0.42], 0.2) == pytest.approx(0.42)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
           st.floats(0.05, 0.95))
    @settings(max_examples=300)
    def test_matches_brute_force(self, scores, nu):
        assert sm.quantile_threshold(scores, nu) == pytest.approx(
            brute_force_threshold(scores, nu))

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
           st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_at_least_one_passes(self, scores, nu):
        thr = sm.quantile_threshold(scores, nu)
        assert any(s >= thr for s in scores)


def constructed_batch(template, sequences, scores):
    vocabs = slot_vocabularies(template)
    choices = np.array([[vocabs[j].index(tag) for j, tag in enumerate(seq)]
                        for seq in sequences])
    return sm.SampleBatch(list(sequences), choices,
                          scores=np.asarray(scores, float))


def reference_policy_gradient(policy, batch, threshold):
    """The update as a loop over the top sequences and their slots."""
    scores = np.asarray(batch.scores, dtype=float)
    top = np.nonzero(scores >= threshold)[0]
    probs = policy.probabilities()
    grads = [np.zeros_like(l) for l in policy.logits]
    for i in top:
        w = scores[i] - threshold
        if w == 0.0:
            continue
        for j in range(len(policy.logits)):
            g = -probs[j] * w
            g[batch.choices[i, j]] += w
            grads[j] += g
    scale = policy.lr / top.size
    for j in range(len(policy.logits)):
        policy.logits[j] += scale * grads[j]


class TestPolicyUpdate:
    def test_equal_scores_leave_logits(self, type2_template):
        policy = fresh_policy(type2_template)
        rng = np.random.default_rng(0)
        batch = sm.sample_sequences(policy, type2_template, 10, rng)
        batch.scores = np.full(10, 0.37)
        before = [l.copy() for l in policy.logits]
        sm.policy_update(policy, batch, 0.2)
        for a, b in zip(before, policy.logits):
            assert np.array_equal(a, b)

    def test_zero_learning_rate(self, type2_template):
        policy = fresh_policy(type2_template, lr=0.0)
        rng = np.random.default_rng(1)
        batch = sm.sample_sequences(policy, type2_template, 10, rng)
        batch.scores = rng.uniform(0, 1, 10)
        before = [l.copy() for l in policy.logits]
        sm.policy_update(policy, batch, 0.2)
        for a, b in zip(before, policy.logits):
            assert np.array_equal(a, b)

    def test_softmax_normalized_after_updates(self, type2_template):
        policy = fresh_policy(type2_template, lr=0.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = sm.sample_sequences(policy, type2_template, 8, rng)
            batch.scores = rng.uniform(0, 1, 8)
            sm.policy_update(policy, batch, 0.25)
        for p in policy.probabilities():
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p > 0)

    def test_subthreshold_members_contribute_nothing(self, type2_template):
        rng = np.random.default_rng(5)
        vocabs = slot_vocabularies(type2_template)
        seqs = [tuple(v[rng.integers(len(v))] for v in vocabs) for _ in range(6)]
        scores = [1.0, 0.9, 0.8, 0.2, 0.1, 0.05]
        threshold = 0.8

        pol_a = fresh_policy(type2_template, lr=0.7)
        apply_policy_gradient(pol_a, constructed_batch(type2_template, seqs,
                                                       scores), threshold)
        pol_b = fresh_policy(type2_template, lr=0.7)
        apply_policy_gradient(pol_b, constructed_batch(type2_template, seqs[:3],
                                                       scores[:3]), threshold)
        for a, b in zip(pol_a.logits, pol_b.logits):
            assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize("n,nu", [(10, 0.2), (20, 0.5)])
    def test_matches_reference_loop(self, type2_template, n, nu):
        # at batch 10 and nu = 0.2 at most one margin is nonzero and the two
        # forms add the same numbers; with several margins the sums differ
        # only in their order
        rng = np.random.default_rng(n)
        for _ in range(50):
            policy = fresh_policy(type2_template, lr=0.3)
            for logits in policy.logits:
                logits[:] = rng.normal(size=logits.size)
            batch = sm.sample_sequences(policy, type2_template, n, rng)
            batch.scores = rng.uniform(0, 1, n)
            reference = fresh_policy(type2_template, lr=0.3)
            reference.logits = [l.copy() for l in policy.logits]
            threshold = sm.quantile_threshold(batch.scores, nu)
            apply_policy_gradient(policy, batch, threshold)
            reference_policy_gradient(reference, batch, threshold)
            for a, b in zip(policy.logits, reference.logits):
                if n == 10:
                    assert np.array_equal(a, b)
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_bandit_concentration(self, type2_template):
        """A fixed batch with one clear winner concentrates the policy on
        the winning sequence. The learning rate is chosen so that fifty
        updates suffice; at tiny rates the logit movement is bounded by
        lr * updates and cannot reach this concentration."""
        rng = np.random.default_rng(11)
        vocabs = slot_vocabularies(type2_template)
        best = ("id", "square", "mul", "sin", "add")
        others = []
        while len(others) < 9:
            cand = tuple(v[rng.integers(len(v))] for v in vocabs)
            if cand != best:
                others.append(cand)
        batch = constructed_batch(type2_template, [best] + others,
                                  [1.0] + [0.1] * 9)
        policy = fresh_policy(type2_template, epsilon=0.1, lr=25.0)
        for _ in range(50):
            sm.policy_update(policy, batch, 0.2)
        prob = math.exp(sm.log_prob(policy, type2_template, best))
        assert prob >= 0.9

    def test_single_slot_argmax_converges(self):
        """With a deterministic reward on one slot and no exploration, the
        rewarded operator becomes that slot's argmax."""
        template = sm.build_template("type2", 3)
        policy = fresh_policy(template, epsilon=0.0, lr=0.05)
        rng = np.random.default_rng(4)
        target_slot, target_tag = 2, "mul"
        for _ in range(200):
            batch = sm.sample_sequences(policy, template, 10, rng)
            batch.scores = np.array(
                [1.0 if seq[target_slot] == target_tag else 0.1
                 for seq in batch.sequences])
            sm.policy_update(policy, batch, 0.2)
        vocab = slot_vocabularies(template)[target_slot]
        assert vocab[int(np.argmax(policy.logits[target_slot]))] == target_tag
