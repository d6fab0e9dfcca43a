import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symode as sm
import symode.losses as losses_mod
import symode.search as search_mod
from symode import expressions as ex
from symode.datasets import TrajectoryDataset
from symode.errors import NumericalError
from symode.losses import ComponentSamples, EulerResidualObjective
from symode.optimize import LM_ITERS, OptimResult, uniform_init
from symode.search import LM_SCREEN_ITERS, CandidatePool, ScoreRecord

from conftest import random_sequence


def component_rng(seed, component):
    """The generator a test draws one component search from."""
    return np.random.default_rng(np.random.SeedSequence([seed, component]))


def make_record(sequence, loss, component=0):
    template = sm.build_template("type2", 2)
    return ScoreRecord(tuple(sequence), loss, np.zeros(9), component,
                       template)


def random_record(rng, component=0):
    template = sm.build_template("type2", 2)
    seq = random_sequence(template, rng)
    loss = float(rng.uniform(0, 10))
    return ScoreRecord(seq, loss, np.zeros(9), component, template)


# few sequences and few losses, so that a stream repeats both
TIED_SEQUENCES = [("id", "id", "add", "id", "add"),
                  ("sin", "id", "mul", "id", "add"),
                  ("0", "1", "sub", "cos", "mul"),
                  ("exp", "square", "mul", "id", "sub"),
                  ("cube", "1", "add", "sin", "mul"),
                  ("id", "cos", "sub", "exp", "mul")]


def tied_record(rng):
    return make_record(TIED_SEQUENCES[rng.integers(len(TIED_SEQUENCES))],
                       float(rng.integers(3)))


class TestScoreFormula:
    def test_zero_loss_scores_one(self):
        assert sm.score_from_loss(0.0) == 1.0

    def test_known_values(self):
        assert sm.score_from_loss(1.0) == pytest.approx(0.5)
        assert sm.score_from_loss(9.0) == pytest.approx(0.1)

    def test_infinite_loss_is_sentinel(self):
        assert sm.score_from_loss(float("inf")) == 0.0
        assert sm.score_from_loss(float("nan")) == 0.0

    @given(st.floats(0, 1e12, allow_nan=False))
    @settings(max_examples=200)
    def test_formula_and_range(self, loss):
        score = sm.score_from_loss(loss)
        assert abs(score * (1.0 + loss) - 1.0) <= 1e-12
        assert 0.0 < score <= 1.0

    def test_strictly_monotone_decreasing(self):
        rng = np.random.default_rng(0)
        losses = np.sort(rng.uniform(0, 1e6, 1000))
        losses = np.unique(losses)
        scores = [sm.score_from_loss(l) for l in losses]
        assert all(a > b for a, b in zip(scores, scores[1:]))


def brute_force_top_k(stream, k):
    """Oracle: replay the stream on [loss, arrival, sequence] rows. A known
    sequence keeps its arrival and the lower loss; a new one gets the next
    arrival, and past k rows the last by (loss, arrival) goes. Returns the
    sequences ranked by (loss asc, arrival asc)."""
    rows = []
    for arrival, rec in enumerate(stream):
        if not np.isfinite(rec.loss):
            continue
        known = [row for row in rows if row[2] == rec.sequence]
        if known:
            known[0][0] = min(known[0][0], rec.loss)
            continue
        rows.append([rec.loss, arrival, rec.sequence])
        rows = sorted(rows)[:k]
    return [seq for _, _, seq in sorted(rows)]


class TestCandidatePool:
    def test_insert_into_empty(self):
        pool = CandidatePool(5)
        pool.insert(make_record(("id", "id", "add", "id", "add"), 1.0))
        assert len(pool) == 1

    def test_worse_than_min_leaves_full_pool(self):
        pool = CandidatePool(3)
        rng = np.random.default_rng(1)
        records = [random_record(rng) for _ in range(10)]
        for rec in records:
            pool.insert(rec)
        worse = make_record(("0", "1", "sub", "cos", "mul"),
                            2 * max(r.loss for r in pool.records()))
        before = [r.sequence for r in pool.records()]
        if worse.sequence not in before:
            pool.insert(worse)
            assert [r.sequence for r in pool.records()] == before

    def test_sentinels_rejected(self):
        pool = CandidatePool(2)
        assert not pool.insert(make_record(("id",) * 2 + ("add", "id", "add"),
                                           float("inf")))
        assert len(pool) == 0

    def test_duplicate_keeps_better(self):
        pool = CandidatePool(4)
        seq = ("sin", "id", "mul", "id", "add")
        pool.insert(make_record(seq, 1.5))
        pool.insert(make_record(seq, 0.25))
        assert len(pool) == 1
        assert pool.best().loss == 0.25
        pool.insert(make_record(seq, 4.0))
        assert pool.best().loss == 0.25

    def test_equal_losses_keep_arrival_order(self):
        a, b, c, d = TIED_SEQUENCES[:4]
        pool = CandidatePool(3)
        for seq in (a, b, c):
            pool.insert(make_record(seq, 1.0))
        assert [r.sequence for r in pool.records()] == [a, b, c]
        # a re-inserted sequence keeps the place of its first arrival, so a
        # ties b ahead of it although b improved first
        pool.insert(make_record(b, 0.5))
        pool.insert(make_record(a, 0.5))
        pool.insert(make_record(c, 1.0))
        assert [r.sequence for r in pool.records()] == [a, b, c]
        # full: of the equal worst losses the latest arrival goes, first the
        # newcomer itself, then c once d arrives better
        assert not pool.insert(make_record(d, 1.0))
        assert pool.insert(make_record(d, 0.75))
        assert [r.sequence for r in pool.records()] == [a, b, d]

    @given(st.integers(0, 10_000), st.integers(1, 15), st.integers(1, 120),
           st.booleans())
    @settings(max_examples=100)
    def test_matches_brute_force(self, seed, capacity, n_records, tied):
        rng = np.random.default_rng(seed)
        draw = tied_record if tied else random_record
        stream = [draw(rng) for _ in range(n_records)]
        pool = CandidatePool(capacity)
        for rec in stream:
            pool.insert(rec)
        assert [r.sequence for r in pool.records()] == brute_force_top_k(
            stream, capacity)

    def test_score_loss_duality(self):
        rng = np.random.default_rng(3)
        pool = CandidatePool(10)
        for _ in range(50):
            pool.insert(random_record(rng))
        for rec in pool.records():
            assert abs(rec.score * (1.0 + rec.loss) - 1.0) <= 1e-12

    def test_score_follows_a_replaced_loss(self):
        record = make_record(TIED_SEQUENCES[0], 1.0)
        assert record.score == 0.5
        assert dataclasses.replace(record, loss=3.0).score == 0.25
        assert dataclasses.replace(record, loss=float("inf")).score == 0.0


class TestScoreSequence:
    def test_reachable_sir_component_scores_high(self, sir_dataset):
        template = sm.build_template("type2", 3)
        seq = ("id", "id", "sub", "0", "add")
        rng = np.random.default_rng(0)
        record = sm.score_sequence(seq, template,
                                   ComponentSamples(sir_dataset, 2), rng)
        assert record.score >= 0.999
        assert abs(record.score * (1.0 + record.loss) - 1.0) <= 1e-12

    def test_hopeless_sequence_still_returns_record(self, sir_dataset):
        template = sm.build_template("type2", 3)
        seq = ("exp", "exp", "mul", "exp", "mul")
        rng = np.random.default_rng(1)
        record = sm.score_sequence(seq, template,
                                   ComponentSamples(sir_dataset, 0), rng)
        assert 0.0 <= record.score <= 1.0


    def test_non_finite_at_every_start_is_score_zero(self):
        # a quartic leaf of values near 1e80 overflows whatever the start
        data = TrajectoryDataset([np.linspace(1e80, 2e80, 6)[:, None]], 1.0,
                                 ("x",))
        template = sm.build_template("type2", 1)
        record = sm.score_sequence(("quartic", "id", "add", "id", "add"),
                                   template, ComponentSamples(data, 0),
                                   np.random.default_rng(0))
        assert record.score == 0.0
        assert record.loss == float("inf")
        assert np.array_equal(record.params, np.zeros(template.n_params))

    @pytest.mark.parametrize("recovers", [True, False])
    def test_init_retries(self, sir_dataset, monkeypatch, recovers):
        # a start of 1e200 everywhere makes the loss inf; the fit draws again
        # up to MAX_INIT_RETRIES times, which fixes how many numbers it takes
        # from the rng, then gives up with the score-0 sentinel
        draws = []

        def init(rng, count):
            draws.append(count)
            if recovers and len(draws) > 1:
                return uniform_init(rng, count)
            return np.full(count, 1e200)

        template = sm.build_template("type2", 3)
        seq = ("sin", "id", "mul", "exp", "add")
        samples = ComponentSamples(sir_dataset, 1)
        plain = sm.score_sequence(seq, template, samples,
                                  np.random.default_rng(5))
        monkeypatch.setattr(search_mod, "uniform_init", init)
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(5))
        if recovers:
            assert len(draws) == 2
            # the refused start drew nothing, so the fit is the plain one
            assert record.loss == plain.loss
            assert np.array_equal(record.params, plain.params)
        else:
            assert len(draws) == 1 + search_mod.MAX_INIT_RETRIES
            assert record.loss == float("inf")
            assert record.score == 0.0
            assert np.array_equal(record.params, np.zeros(template.n_params))


def all_sequences(template):
    return itertools.product(*[
        sm.UNARY_TAGS if node.kind == "unary" else sm.BINARY_TAGS
        for node in template.nodes])


def linear_sequences(template):
    return [seq for seq in all_sequences(template)
            if search_mod.linear_form(template, seq) is not None]


class TestClosedForm:
    def test_linear_rule_counts(self):
        linear = linear_sequences(sm.build_template("type2", 3))
        assert len(linear) == 3964
        assert ("sin", "1", "mul", "exp", "sub") in linear
        assert ("0", "1", "mul", "cos", "mul") in linear
        assert ("sin", "id", "mul", "exp", "add") not in linear
        type1 = sm.build_template("type1", 3)
        assert all(search_mod.linear_form(type1, seq) is None
                   for seq in all_sequences(type1))

    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    def test_never_worse_than_lm(self, request, dataset):
        data = request.getfixturevalue(dataset)
        template = sm.build_template("type2", 3)
        linear = linear_sequences(template)
        pick = np.random.default_rng(11)
        for component in range(3):
            samples = ComponentSamples(data, component)
            factor = search_mod.feature_factor(samples)
            for k in pick.choice(len(linear), 12, replace=False):
                seq = linear[k]
                closed = sm.score_sequence(seq, template, samples,
                                           np.random.default_rng(k), factor)
                iterative = sm.score_sequence(seq, template, samples,
                                              np.random.default_rng(k))
                assert closed.loss <= iterative.loss * (1 + 1e-9), seq
                # the recorded loss is the objective's at the recorded params
                objective = EulerResidualObjective(template, seq, samples)
                assert objective.loss(closed.params) == closed.loss

    @pytest.mark.parametrize("component,seq", [
        (2, ("id", "0", "add", "0", "add")),
        (0, ("square", "id", "add", "0", "add")),
        (1, ("square", "id", "add", "0", "add")),
    ])
    def test_exact_recovery_on_sir(self, desk_sir_train, component, seq):
        # dR/dt = gamma I is linear in id; on the simplex S*I is linear in
        # the squares and ids, so dS/dt and dI/dt are exact there too
        template = sm.build_template("type2", 3)
        samples = ComponentSamples(desk_sir_train, component)
        factor = search_mod.feature_factor(samples)
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(0), factor)
        assert record.loss < 1e-25

    def test_type1_search_never_reaches_closed_form(self, sir_dataset,
                                                    monkeypatch):
        def refuse(*args):
            raise AssertionError("closed form reached")

        cfg = sm.SearchConfig(epochs=2, batch_size=4)
        monkeypatch.setattr(search_mod, "feature_factor", refuse)
        monkeypatch.setattr(search_mod, "_closed_form", refuse)
        # nor does a type1 fit factor anything else
        monkeypatch.setattr(losses_mod, "tsqr", refuse)
        sm.search_component(sir_dataset, 2,
                            dataclasses.replace(cfg, templates="type1"),
                            component_rng(3, 2))
        with pytest.raises(AssertionError, match="closed form reached"):
            sm.search_component(sir_dataset, 2, cfg, component_rng(3, 2))

    def test_nonlinear_record_is_lm(self, sir_dataset):
        template = sm.build_template("type2", 3)
        seq = ("sin", "id", "mul", "exp", "add")
        assert search_mod.linear_form(template, seq) is None
        samples = ComponentSamples(sir_dataset, 1)
        factor = search_mod.feature_factor(samples)
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(5), factor)
        # what a screening run of Levenberg–Marquardt gives on the Euler
        # residual objective from the first uniform draw, bit for bit
        objective = EulerResidualObjective(template, seq, samples)
        theta0 = uniform_init(np.random.default_rng(5), objective.n_params)
        result = sm.minimize_lm(objective, theta0, LM_SCREEN_ITERS)
        assert np.array_equal(record.params, result.final_params)
        assert record.loss == result.final_loss
        assert record.loss == objective.loss(result.final_params)
        assert record.score == sm.score_from_loss(record.loss)

    def test_non_finite_feature_leaves_linear_sequence_to_lm(self):
        # the quartic feature of values near 1e80 is not finite, so there is
        # no factor, and a linear sequence is fitted like any other type2
        # sequence: by a screening run of Levenberg–Marquardt
        data = TrajectoryDataset([np.linspace(1e80, 2e80, 6)[:, None]], 1.0,
                                 ("x",))
        template = sm.build_template("type2", 1)
        seq = ("id", "id", "add", "id", "add")
        assert search_mod.linear_form(template, seq) is not None
        samples = ComponentSamples(data, 0)
        factor = search_mod.feature_factor(samples)
        assert factor is None
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(5), factor)
        objective = EulerResidualObjective(template, seq, samples)
        theta0 = uniform_init(np.random.default_rng(5), objective.n_params)
        result = sm.minimize_lm(objective, theta0, LM_SCREEN_ITERS)
        assert np.isfinite(record.loss)
        assert record.loss == result.final_loss
        assert record.loss == objective.loss(result.final_params)
        assert np.array_equal(record.params, result.final_params)

    def test_closed_form_needs_no_finite_start(self):
        # a quartic leaf of values near 1e76 overflows the loss at every
        # uniform start, but the feature factor is finite, and so is the
        # closed form's loss; a closed-form fit evaluates no start
        data = TrajectoryDataset([np.linspace(1e76, 2e76, 6)[:, None]], 1.0,
                                 ("x",))
        template = sm.build_template("type2", 1)
        seq = ("quartic", "0", "add", "0", "add")
        samples = ComponentSamples(data, 0)
        factor = search_mod.feature_factor(samples)
        assert factor is not None
        objective = EulerResidualObjective(template, seq, samples)
        rng = np.random.default_rng(0)
        assert not any(np.isfinite(objective.loss(uniform_init(rng, 6)))
                       for _ in range(1 + search_mod.MAX_INIT_RETRIES))
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(0), factor)
        theta = search_mod._closed_form(
            factor, template, seq, search_mod.linear_form(template, seq))
        assert np.isfinite(record.loss) and record.score > 0.0
        assert np.array_equal(record.params, theta)
        assert record.loss == objective.loss(theta)

    def test_nonlinear_sequence_without_factor_fits_direct(
            self, sir_dataset, monkeypatch):
        # the route follows from the sequence: without a feature factor a
        # nonlinear sequence is fitted on its Euler residual all the same
        fitted = []
        lm = search_mod.minimize_lm

        def spy(fit, start, iters):
            fitted.append(type(fit))
            return lm(fit, start, iters)

        monkeypatch.setattr(search_mod, "minimize_lm", spy)
        template = sm.build_template("type2", 3)
        seq = ("sin", "id", "mul", "exp", "add")
        samples = ComponentSamples(sir_dataset, 1)
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(5), None)
        assert fitted == [EulerResidualObjective]
        objective = EulerResidualObjective(template, seq, samples)
        assert record.loss == objective.loss(record.params)


class TestFeatureFactor:
    @pytest.mark.parametrize("component", range(3))
    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    def test_keeps_the_residual_of_every_column_set(self, request, dataset,
                                                    component):
        # [Phi | y] built one column at a time from the pairs: each feature
        # tag of each state (tag-major), the ones column, then y
        data = request.getfixturevalue(dataset)
        X, X_next = data.stacked_pairs()
        columns = [ex.UNARY_RULES[tag][0](X[:, j])
                   for tag in search_mod.FEATURE_TAGS for j in range(data.dim)]
        A = np.column_stack(columns + [np.ones(len(X)),
                                       (X_next[:, component]
                                        - X[:, component]) / data.dt])
        R = search_mod.feature_factor(ComponentSamples(data, component))
        n = A.shape[1]
        assert R.shape == (n, n)
        assert np.allclose(R.T @ R, A.T @ A, rtol=1e-10,
                           atol=1e-10 * np.abs(A.T @ A).max())
        rng = np.random.default_rng(component)
        for _ in range(20):
            cols = rng.choice(n - 1, int(rng.integers(1, n)), replace=False)
            w = rng.uniform(-1, 1, cols.size)
            full = np.linalg.norm(A[:, cols] @ w - A[:, -1])
            small = np.linalg.norm(R[:, cols] @ w - R[:, -1])
            assert small == pytest.approx(full, rel=1e-9)


class TestIterativeFits:
    """Nonlinear type2 sequences are fitted, and fine-tuned in the pool, on
    the Euler residual objective; entries with a closed form are not
    fine-tuned; every recorded loss is that objective's."""

    SEQUENCES = [("id", "0", "add", "0", "add"),        # linear
                 ("id", "sin", "sub", "id", "mul"),     # ab
                 ("square", "id", "mul", "cos", "add")]  # ab+c

    def direct_loss(self, record, data):
        samples = ComponentSamples(data, record.component)
        return EulerResidualObjective(record.template, record.sequence,
                                      samples).loss(record.params)

    @pytest.mark.parametrize("dataset", ["sir_dataset", "qdr_train"])
    def test_every_recorded_loss_is_the_direct_loss(self, request, dataset):
        data = request.getfixturevalue(dataset)
        # a pool as large as the draws keeps every scored sequence
        cfg = sm.SearchConfig(epochs=3, batch_size=10, pool_capacity=30)
        template = sm.build_template("type2", 3)
        for component in range(3):
            out = sm.search_component(data, component, cfg,
                                      component_rng(1, component))
            records = out.pool.records()
            assert out.best is records[0]
            assert any(search_mod.linear_form(template, r.sequence) is None
                       for r in records)
            for record in records:
                assert self.direct_loss(record, data) == record.loss

    def pool(self, data):
        template = sm.build_template("type2", 3)
        samples = ComponentSamples(data, 2)
        factor = search_mod.feature_factor(samples)
        pool = CandidatePool(len(self.SEQUENCES))
        for k, seq in enumerate(self.SEQUENCES):
            pool.insert(sm.score_sequence(seq, template, samples,
                                          np.random.default_rng(k), factor))
        return pool, factor

    def test_finetune_runs_on_direct_objectives(self, sir_dataset,
                                                monkeypatch):
        pool, factor = self.pool(sir_dataset)
        before = {r.sequence: r.loss for r in pool.records()}
        objectives = []
        lm = search_mod.minimize_lm

        def spy(fit, start, iters):
            objectives.append(type(fit))
            return lm(fit, start, iters)

        with monkeypatch.context() as patch:
            patch.setattr(search_mod, "minimize_lm", spy)
            search_mod._finetune_pool(pool, ComponentSamples(sir_dataset, 2),
                                      factor)
        # the linear sequence has a closed form and is not fine-tuned
        assert objectives == [EulerResidualObjective] * 2
        for record in pool.records():
            assert record.loss <= before[record.sequence]
            assert self.direct_loss(record, sir_dataset) == record.loss

    def test_finetune_keeps_entries_whose_direct_loss_would_worsen(
            self, sir_dataset, monkeypatch):
        # a fit that ends above its start, with that end's own loss: the
        # pool keeps the record with the lower loss
        pool, factor = self.pool(sir_dataset)
        before = [(r.loss, r.params.copy()) for r in pool.records()]
        starts = []

        def worsens(fit, init, iters):
            starts.append(init.copy())
            return OptimResult(init + 0.5, fit.loss(init + 0.5), 0,
                               converged=False)

        with monkeypatch.context() as patch:
            patch.setattr(search_mod, "minimize_lm", worsens)
            search_mod._finetune_pool(pool, ComponentSamples(sir_dataset, 2),
                                      factor)
        after = [(r.loss, r.params) for r in pool.records()]
        for (loss, params), (new_loss, new_params) in zip(before, after):
            assert new_loss == loss
            assert np.array_equal(new_params, params)
        # both iterative entries were offered parameters whose loss is
        # worse than their own
        offered = [r for r in pool.records()
                   if any(np.array_equal(r.params, s) for s in starts)]
        assert len(starts) == len(offered) == 2
        for record in offered:
            worse = dataclasses.replace(record, params=record.params + 0.5)
            assert self.direct_loss(worse, sir_dataset) > record.loss

    @pytest.mark.parametrize("kind", ["type2", "type1"])
    def test_one_qr_per_search(self, sir_dataset, monkeypatch, kind):
        """A type2 component search takes one QR factorization, its
        feature factor, and a type1 search takes none; every fit, first
        fits and fine-tune alike, runs on the Euler residual objective."""
        widths, fitted = [], []
        qr, lm = losses_mod.tsqr, search_mod.minimize_lm

        def counting_qr(A):
            widths.append(A.shape[1])
            return qr(A)

        def spy(fit, start, iters):
            fitted.append(type(fit))
            return lm(fit, start, iters)

        for module in (search_mod, losses_mod):
            monkeypatch.setattr(module, "tsqr", counting_qr)
        monkeypatch.setattr(search_mod, "minimize_lm", spy)
        cfg = sm.SearchConfig(epochs=3, batch_size=10, templates=kind)
        # the feature factor's columns: every feature tag of each state,
        # the ones column and the target
        feature_width = len(search_mod.FEATURE_TAGS) * sir_dataset.dim + 2
        for component in range(sir_dataset.dim):
            widths.clear()
            fitted.clear()
            sm.search_component(sir_dataset, component, cfg,
                                component_rng(1, component))
            assert widths == ([feature_width] if kind == "type2" else [])
            assert fitted
            assert set(fitted) == {EulerResidualObjective}


class TestFinetuneRoute:
    @pytest.mark.parametrize("dataset", ["desk_sir_train", "qdr_train"])
    def test_only_iterative_entries_are_fine_tuned(self, request, dataset,
                                                   monkeypatch):
        data = request.getfixturevalue(dataset)
        cfg = sm.SearchConfig(epochs=3, batch_size=10, pool_capacity=30)
        starts, before = [], {}
        lm = search_mod.minimize_lm
        finetune = search_mod._finetune_pool

        def spy(fit, init, iters):
            starts.append(init.tobytes())
            return lm(fit, init, iters)

        def snapshot(pool, *args):
            before.update({r.sequence: (r.params.tobytes(), r.loss)
                           for r in pool.records()})
            # the first fits run minimize_lm too; only the fine-tune's count
            with monkeypatch.context() as patch:
                patch.setattr(search_mod, "minimize_lm", spy)
                return finetune(pool, *args)

        monkeypatch.setattr(search_mod, "_finetune_pool", snapshot)
        template = sm.build_template("type2", 3)
        n_closed = n_iterative = 0
        for component in range(3):
            starts.clear()
            before.clear()
            assert search_mod.feature_factor(
                ComponentSamples(data, component)) is not None
            out = sm.search_component(data, component, cfg,
                                      component_rng(1, component))
            closed = {seq for seq in before
                      if search_mod.linear_form(template, seq) is not None}
            iterative = [params for seq, (params, _) in before.items()
                         if seq not in closed]
            assert sorted(starts) == sorted(iterative)
            after = {r.sequence: r for r in out.pool.records()}
            for seq in closed:
                params, loss = before[seq]
                assert after[seq].params.tobytes() == params
                assert after[seq].loss == loss
            n_closed += len(closed)
            n_iterative += len(iterative)
        assert n_closed > 0 and n_iterative > 0


class TestFitBudgets:
    """A type2 first fit is a screening fit of LM_SCREEN_ITERS iterations;
    a type1 first fit and every fine-tune fit get LM_ITERS. Every fit runs
    on the Euler residual objective."""

    SEQUENCE = ("sin", "id", "mul", "exp", "add")

    def record_budgets(self, monkeypatch):
        calls = []
        lm = search_mod.minimize_lm

        def spy(fit, start, iters):
            calls.append((type(fit), iters))
            return lm(fit, start, iters)

        monkeypatch.setattr(search_mod, "minimize_lm", spy)
        return calls

    @pytest.mark.parametrize("kind", ["type2", "type1"])
    def test_search_budgets(self, sir_dataset, monkeypatch, kind):
        calls = self.record_budgets(monkeypatch)
        first_fits = []
        finetune = search_mod._finetune_pool

        def split(pool, *args):
            first_fits.extend(calls)
            calls.clear()
            return finetune(pool, *args)

        monkeypatch.setattr(search_mod, "_finetune_pool", split)
        cfg = sm.SearchConfig(epochs=3, batch_size=10, templates=kind)
        sm.search_component(sir_dataset, 1, cfg, component_rng(1, 1))
        assert first_fits and calls
        assert {iters for _, iters in first_fits} == {
            LM_SCREEN_ITERS if kind == "type2" else LM_ITERS}
        assert all(iters == LM_ITERS for _, iters in calls)
        assert {fit for fit, _ in first_fits + calls} == {
            EulerResidualObjective}

    @pytest.mark.parametrize("case", ["no factor", "start not finite"])
    def test_screening_budget_follows_the_template_alone(
            self, sir_dataset, monkeypatch, case):
        # neither a missing feature factor nor a start drawn again changes
        # the objective or the budget of a type2 first fit
        samples = ComponentSamples(sir_dataset, 1)
        factor = search_mod.feature_factor(samples)
        draws = []
        if case == "no factor":
            factor = None
        else:
            def init(rng, count):
                draws.append(count)
                if len(draws) > 1:
                    return uniform_init(rng, count)
                return np.full(count, 1e200)

            monkeypatch.setattr(search_mod, "uniform_init", init)
        calls = self.record_budgets(monkeypatch)
        template = sm.build_template("type2", 3)
        record = sm.score_sequence(self.SEQUENCE, template, samples,
                                   np.random.default_rng(5), factor)
        # LM refuses the start that is not finite: a call that raises
        assert calls == [(EulerResidualObjective, LM_SCREEN_ITERS)] * (
            2 if case == "start not finite" else 1)
        assert len(draws) == (2 if case == "start not finite" else 0)
        assert np.isfinite(record.loss)

    @pytest.mark.parametrize("kind,seq", [
        ("type2", SEQUENCE), ("type1", ("sin", "id", "mul", "cos"))])
    def test_first_fit_tests_its_start_once(self, sir_dataset, monkeypatch,
                                            kind, seq):
        # minimize_lm tests the start, so the fit evaluates no loss of its
        # own: one residual call per iteration and one at the start
        calls = {"loss": 0, "residual": 0}
        for name in calls:
            def spy(objective, theta, method=getattr(EulerResidualObjective,
                                                     name), name=name):
                calls[name] += 1
                return method(objective, theta)

            monkeypatch.setattr(EulerResidualObjective, name, spy)
        template = sm.build_template(kind, 3)
        samples = ComponentSamples(sir_dataset, 1)
        factor = (search_mod.feature_factor(samples) if kind == "type2"
                  else None)
        record = sm.score_sequence(seq, template, samples,
                                   np.random.default_rng(5), factor)
        assert np.isfinite(record.loss)
        assert calls["loss"] == 0
        budget = LM_SCREEN_ITERS if kind == "type2" else LM_ITERS
        assert 1 <= calls["residual"] <= budget + 1


class TestOneSampleSet:
    """A component search stacks the sample pairs once, into one
    ComponentSamples, and every objective it builds, first fits and
    fine-tune alike, reads its leaves and Euler difference from it."""

    @pytest.mark.parametrize("kind", ["type2", "type1"])
    def test_one_stacking_per_search(self, sir_dataset, monkeypatch, kind):
        stackings, built = [], []
        stacked_pairs = TrajectoryDataset.stacked_pairs
        objective_class = search_mod.EulerResidualObjective

        def counting(data):
            stackings.append(data)
            return stacked_pairs(data)

        def objective(template, sequence, samples):
            built.append((template, sequence, samples,
                          objective_class(template, sequence, samples)))
            return built[-1][-1]

        monkeypatch.setattr(TrajectoryDataset, "stacked_pairs", counting)
        monkeypatch.setattr(search_mod, "EulerResidualObjective", objective)
        cfg = sm.SearchConfig(epochs=3, batch_size=10, templates=kind)
        for component in range(sir_dataset.dim):
            stackings.clear()
            built.clear()
            sm.search_component(sir_dataset, component, cfg,
                                component_rng(1, component))
            assert len(stackings) == 1 and stackings[0] is sir_dataset
            assert built
            samples = built[0][2]
            assert samples.component == component
            for template, sequence, shared, fit in built:
                assert shared is samples
                assert fit.dy is samples.dy
                leaves = [leaf for leaf in fit._leaves if leaf is not None]
                tags = [tag for node, tag in zip(template.nodes, sequence)
                        if node.is_leaf]
                assert len(leaves) == len(tags)
                assert all(leaf is samples.features[tag]
                           for leaf, tag in zip(leaves, tags))


class TestLevenbergMarquardtFits:
    """The acceptance of Levenberg–Marquardt on the search path: on random
    sequences fitted iteratively (every type1 sequence, the nonlinear
    type2 ones), the loss of ``minimize_lm`` from the uniform start with
    the budget that ``score_sequence`` picks, against that of
    ``two_stage_minimize`` on the same objective from the same start.
    Losses within a relative TIE of each other are the same minimum: LM
    stops on stalled steps, two-stage on the gradient norm, and on type1
    about a third of the fits end at the same minimum a few 1e-12 apart, on
    either side."""

    TIE = 1e-9

    @pytest.mark.parametrize("dataset,kind", [("desk_sir_train", "type2"),
                                              ("qdr_train", "type2"),
                                              ("sir_dataset", "type1")])
    def test_no_worse_than_two_stage_in_the_median(self, request, dataset,
                                                   kind, capsys):
        data = request.getfixturevalue(dataset)
        template = sm.build_template(kind, 3)
        rng = np.random.default_rng(17)
        ratios = []
        while len(ratios) < 16:
            seq = random_sequence(template, rng)
            if search_mod.linear_form(template, seq) is not None:
                continue
            component = len(ratios) % 3
            objective = EulerResidualObjective(
                template, seq, ComponentSamples(data, component))
            start = uniform_init(rng, objective.n_params)
            start.setflags(write=False)
            kept = start.copy()
            start_loss = objective.loss(start)
            if not np.isfinite(start_loss):
                continue
            lm = sm.minimize_lm(objective, start, LM_SCREEN_ITERS
                                if kind == "type2" else LM_ITERS).final_loss
            two_stage = sm.two_stage_minimize(
                objective.loss_and_grad, start, sm.OptimConfig()).final_loss
            assert np.array_equal(start, kept)
            assert lm <= start_loss
            ratios.append(lm / two_stage if two_stage > 0 else
                          (1.0 if lm == 0 else np.inf))
        ratios = np.array(ratios)
        with capsys.disabled():
            print(f"\n[LM vs two-stage, {dataset}] no worse in "
                  f"{np.mean(ratios <= 1 + self.TIE):.0%} of {ratios.size} "
                  f"fits, median loss ratio {np.median(ratios):.3g}, worst "
                  f"{ratios.max():.3g}")
        assert np.median(ratios) <= 1.0 + self.TIE


class TestSearchComponent:
    def test_single_epoch_single_sequence(self, sir_dataset):
        cfg = sm.SearchConfig(epochs=1, batch_size=1)
        out = sm.search_component(sir_dataset, 2, cfg, component_rng(5, 2))
        assert len(out.history) == 1
        assert len(out.pool) == 1
        assert out.best is not None

    def test_running_max_history_nondecreasing(self, sir_dataset):
        cfg = sm.SearchConfig(epochs=6, batch_size=4)
        out = sm.search_component(sir_dataset, 2, cfg, component_rng(2, 2))
        running = np.maximum.accumulate(out.history)
        assert np.all(np.diff(running) >= 0)

    def test_deterministic_under_seed(self, sir_dataset):
        cfg = sm.SearchConfig(epochs=4, batch_size=3)
        a = sm.search_component(sir_dataset, 1, cfg, component_rng(9, 1))
        b = sm.search_component(sir_dataset, 1, cfg, component_rng(9, 1))
        assert a.best.sequence == b.best.sequence
        assert np.array_equal(a.best.params, b.best.params)
        assert a.history == b.history

    def test_finetune_never_worsens(self, sir_dataset):
        cfg = sm.SearchConfig(epochs=3, batch_size=4)
        # capture pool losses before fine-tuning by running the loop pieces
        rng = component_rng(7, 2)
        template = sm.build_template(cfg.template_for(2), sir_dataset.dim)
        policy = sm.ControllerPolicy.uniform(template, cfg.epsilon,
                                             cfg.controller_lr)
        pool = search_mod.CandidatePool(cfg.pool_capacity)
        samples = ComponentSamples(sir_dataset, 2)
        for _ in range(cfg.epochs):
            batch = sm.sample_sequences(policy, template, cfg.batch_size, rng)
            scores = np.empty(cfg.batch_size)
            seen = {}
            for i, seq in enumerate(batch.sequences):
                if seq not in seen:
                    seen[seq] = sm.score_sequence(seq, template, samples,
                                                  rng)
                    pool.insert(seen[seq])
                scores[i] = seen[seq].score
            batch.scores = scores
            sm.policy_update(policy, batch, cfg.nu)
        before = {r.sequence: r.loss for r in pool.records()}
        search_mod._finetune_pool(pool, samples, None)
        for rec in pool.records():
            assert rec.loss <= before[rec.sequence] + 1e-18


    def test_no_finite_loss_is_a_numerical_error(self):
        # residuals near 1e200 square beyond the float range for every
        # sequence and start
        data = TrajectoryDataset([np.linspace(1e200, 1e201, 6)[:, None]], 1.0,
                                 ("x",))
        cfg = sm.SearchConfig(epochs=1, batch_size=2)
        with pytest.raises(NumericalError, match=(
                "component 0: no sequence produced a finite loss")):
            sm.search_component(data, 0, cfg, component_rng(4, 0))


class TestPerComponentTemplates:
    def test_template_for_resolution(self):
        cfg = sm.SearchConfig(templates=["type1", "type2", "type1"])
        assert cfg.template_for(0) == "type1"
        assert cfg.template_for(1) == "type2"
        with pytest.raises(ValueError):
            cfg.template_for(3)
        assert sm.SearchConfig(templates="type2").template_for(7) == "type2"

    def test_mixed_templates_search_and_assemble(self, sir_dataset):
        records = []
        for comp, kinds in ((0, ["type2", "type1", "type1"]),
                            (1, ["type2", "type1", "type1"])):
            cfg = sm.SearchConfig(epochs=2, batch_size=3, templates=kinds)
            records.append(sm.search_component(sir_dataset, comp, cfg,
                                               component_rng(4, comp)).best)
        cfg = sm.SearchConfig(epochs=2, batch_size=3, templates="type1")
        records.append(sm.search_component(sir_dataset, 2, cfg,
                                           component_rng(4, 2)).best)
        system = sm.SystemModel([sm.CompiledExpression(r.template, r.sequence,
                                                       r.params)
                                 for r in records])
        assert system.components[0].template.kind == "type2"
        assert system.components[1].template.kind == "type1"
        assert np.all(np.isfinite(system(np.array([0.4, 0.3, 0.3]))))


class TestSystemModel:
    @staticmethod
    def _random_exprs(template, rng):
        return [sm.CompiledExpression(template, random_sequence(template, rng),
                                      rng.uniform(-1, 1, template.n_params))
                for _ in range(template.input_dim)]

    def test_componentwise_equality(self):
        rng = np.random.default_rng(4)
        exprs = self._random_exprs(sm.build_template("type2", 3), rng)
        system = sm.SystemModel(exprs)
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            expected = [sm.evaluate(e, x) for e in exprs]
            assert system(x) == pytest.approx(expected)

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(5)
        for kind in ("type1", "type2"):
            exprs = self._random_exprs(sm.build_template(kind, 3), rng)
            X = rng.uniform(-1, 1, (50, 3))
            batch = sm.SystemModel(exprs)(X)
            assert batch.shape == (50, 3)
            expected = [[sm.evaluate(e, x) for e in exprs] for x in X]
            np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=0.0)

    def test_single_component_passthrough(self):
        template = sm.build_template("type1", 1)
        theta = np.array([2.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        system = sm.SystemModel([sm.CompiledExpression(
            template, ("id", "0", "add", "id"), theta)])
        assert system(np.array([3.0]))[0] == pytest.approx(6.0)

    def test_symbolic_lines(self):
        rng = np.random.default_rng(8)
        system = sm.SystemModel(
            self._random_exprs(sm.build_template("type2", 2), rng))
        lines = [sm.to_symbolic_string(c, 4, ("u", "v"))
                 for c in system.components]
        assert len(lines) == 2
        assert all(isinstance(l, str) and l for l in lines)
