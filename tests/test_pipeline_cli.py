import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symode as sm
from symode import cli, pipeline
from symode.cli import main
from symode.config import run_config_from_dict
from symode.dataio import load_csv, normalize_series
from symode.errors import NumericalError
from symode.search import CandidatePool, ScoreRecord, SearchOutcome
from symode.pipeline import (dt_from_document, generate_synthetic,
                             load_results, run_pipeline, run_synthetic,
                             scale_from_document, system_from_document)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SERIES = Path(__file__).resolve().parents[1] / "data" / "covid_qdr_sample.csv"

TINY_SEARCH = {
    "epochs": 3,
    "batch_size": 3,
    "pool_capacity": 4,
    "optim": {"t1_iters": 25, "t2_iters": 15, "t3_iters": 10},
}


def tiny_synthetic_doc(seed=0, out="out"):
    return {
        "mode": "synthetic",
        "seed": seed,
        "output_dir": out,
        "model": {"kind": "sir"},
        "data": {"n_trajectories": 4, "steps": 30, "dt": 0.2,
                 "train_fraction": 0.5},
        "search": TINY_SEARCH,
    }


def tiny_real_doc(csv_path, out="out"):
    return {
        "mode": "real",
        "seed": 1,
        "output_dir": out,
        "input_csv": str(csv_path),
        "train_days": 20,
        "normalization": {"mode": "by_max_total"},
        "search": TINY_SEARCH,
    }


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    """A short synthetic observation series in the real-data layout."""
    rng = np.random.default_rng(3)
    days = 30
    q, d, r = 400.0, 10.0, 20.0
    lines = ["date,Q,D,R"]
    import datetime
    start = datetime.date(2020, 1, 22)
    for t in range(days):
        lines.append(f"{(start + datetime.timedelta(days=t)).isoformat()},"
                     f"{q:.1f},{d:.1f},{r:.1f}")
        growth = 180 * np.exp(-((t - 8) / 7.0) ** 2)
        rec = 0.05 * q
        die = 0.002 * q
        q = q + growth - rec - die + rng.normal(0, 2)
        r += rec
        d += die
    path = tmp_path_factory.mktemp("series") / "sample.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSyntheticPipeline:
    def test_document_structure_and_files(self, tmp_path):
        cfg = run_config_from_dict(tiny_synthetic_doc(out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        assert [c["name"] for c in doc["components"]] == ["S", "I", "R"]
        assert len(doc["metrics"]["per_step_mse"]) == 30
        assert len(doc["history"]) == 3
        assert (tmp_path / "run" / "results.json").exists()
        assert (tmp_path / "run" / "equations.txt").exists()
        mse_csv = (tmp_path / "run" / "mse_per_step.csv").read_text()
        assert mse_csv.splitlines()[0] == "step_index,mse"
        assert len(mse_csv.splitlines()) == 31
        equations = (tmp_path / "run" / "equations.txt").read_text().splitlines()
        assert len(equations) == 3
        assert equations[0].startswith("dS/dt = ")

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = run_config_from_dict(tiny_synthetic_doc(out="results"))
        cfg_b = run_config_from_dict(tiny_synthetic_doc(out="results"))
        run_pipeline(cfg_a, out_dir=tmp_path / "a")
        run_pipeline(cfg_b, out_dir=tmp_path / "b")
        bytes_a = (tmp_path / "a" / "results.json").read_bytes()
        bytes_b = (tmp_path / "b" / "results.json").read_bytes()
        assert bytes_a == bytes_b

    def test_document_reconstructs_and_reverifies(self, tmp_path):
        cfg = run_config_from_dict(tiny_synthetic_doc(out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        system = system_from_document(doc)
        data = generate_synthetic(cfg)
        train, _ = sm.train_test_split(data, cfg.data.train_fraction)
        for comp_entry, expr in zip(doc["components"], system.components):
            recomputed = sm.euler_residual_loss(expr, train,
                                                comp_entry["component"])
            assert abs(recomputed - comp_entry["loss"]) <= 1e-10

    def test_symbolic_matches_rebuilt_expression(self, tmp_path):
        cfg = run_config_from_dict(tiny_synthetic_doc(out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        system = system_from_document(doc)
        for comp_entry, expr in zip(doc["components"], system.components):
            assert comp_entry["symbolic"] == sm.to_symbolic_string(
                expr, 4, doc["var_names"])


# Type2 expressions of the SIR field at the benchmark rates (beta 0.9,
# gamma 0.2, mu 0.3, n_pop 1), which the synthetic data follow by Euler
# steps, and ones whose rollout leaves the float range at once. A pool
# keeps one entry per sequence, so entries of one pool differ in sequence.
PRODUCT = ("id", "id", "mul", "id", "add")
LEAF = ("id", "0", "add", "0", "add")
EXACT_SIR = [(PRODUCT, [-0.9, 0, 0, 0, 0, 1, 0, 0, -0.3, 0, 0, 0.3]),
             (PRODUCT, [0.9, 0, 0, 0, 0, 1, 0, 0, 0, -0.5, 0, 0]),
             (LEAF, [0, 0.2, -0.3, 0] + [0] * 8)]
# the exact S field again, with the last leaf subtracted: the same bits
EXACT_S_SUB = (("id", "id", "mul", "id", "sub"),
               [-0.9, 0, 0, 0, 0, 1, 0, 0, 0.3, 0, 0, -0.3])
SLOW_S = (PRODUCT, [-0.8, 0, 0, 0, 0, 1, 0, 0, -0.3, 0, 0, 0.3])
# three sequences of one affine leaf: the other two leaves are constants
LEAVES = (LEAF, ("id", "0", "sub", "0", "add"), ("id", "0", "add", "0", "sub"))
DIVERGING = [(seq, [1e200, 0, 0, 0] + [0] * 8) for seq in LEAVES]
STILL = (("0", "0", "add", "0", "add"), [0] * 12)
CONSTANT = (STILL[0], [0, 0, 0, 1e154] + [0] * 8)


def planted_outcomes(pools):
    """Search outcomes whose pools hold the given (sequence, params)
    entries per component, ranked in the order given."""
    template = sm.build_template("type2", len(pools))
    outcomes = []
    for entries in pools:
        pool = CandidatePool(len(entries))
        for rank, (seq, params) in enumerate(entries):
            pool.insert(ScoreRecord(seq, 10.0 ** (rank - 30),
                                    np.array(params, float), template))
        outcomes.append(SearchOutcome(pool.best(), pool, [0.5]))
    return outcomes


def seird_params(*leaves):
    """Type2 parameters in the five SEIRD states from each leaf's weights,
    its offset 0."""
    return [w for alpha in leaves for w in (*alpha, 0.0)]


# Type2 expressions of the SEIRD field at the benchmark rates (beta 0.9,
# sigma 0.5, gamma 0.2, delta 0.05, n_pop 1) and ones with wrong rates,
# three per component; S's winner leaves the float range at once, and E's
# has a wrong infection rate.
NOTHING = [0.0] * 5
SEIRD_POOLS = [
    [(LEAF, seird_params([1e200, 0, 0, 0, 0], NOTHING, NOTHING)),
     (PRODUCT, seird_params([-0.9, 0, 0, 0, 0], [0, 0, 1, 0, 0], NOTHING)),
     (EXACT_S_SUB[0],
      seird_params([-0.8, 0, 0, 0, 0], [0, 0, 1, 0, 0], NOTHING))],
    [(PRODUCT, seird_params([0.8, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                            [0, -0.5, 0, 0, 0])),
     (EXACT_S_SUB[0], seird_params([0.9, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                                   [0, 0.5, 0, 0, 0])),
     (LEAF, seird_params([0, -0.5, 0, 0, 0], NOTHING, NOTHING))],
    [(LEAF, seird_params([0, 0.5, -0.25, 0, 0], NOTHING, NOTHING)),
     (LEAVES[1], seird_params([0, 0.5, -0.3, 0, 0], NOTHING, NOTHING)),
     (LEAVES[2], seird_params([0, 0.4, -0.25, 0, 0], NOTHING, NOTHING))],
    [(LEAF, seird_params([0, 0, 0.2, 0, 0], NOTHING, NOTHING)),
     (LEAVES[1], seird_params([0, 0, 0.3, 0, 0], NOTHING, NOTHING)),
     (STILL[0], seird_params(NOTHING, NOTHING, NOTHING))],
    [(LEAF, seird_params([0, 0, 0.05, 0, 0], NOTHING, NOTHING)),
     (LEAVES[1], seird_params([0, 0, 0.1, 0, 0], NOTHING, NOTHING)),
     (STILL[0], seird_params(NOTHING, NOTHING, NOTHING))],
]


class TestSystemCheck:
    """When the winners' training rollout diverges, the pool system with
    rank sum at most 2 that completes with the lowest max per-step
    training MSE is reported instead, and ``metrics.system_swap`` says
    so."""

    def run(self, monkeypatch, tmp_path, pools, doc):
        inits = []
        rollout = pipeline.rollout

        def spy(model, init, steps, dt):
            inits.append((np.array(init), steps))
            return rollout(model, init, steps, dt)

        monkeypatch.setattr(pipeline, "rollout", spy)
        monkeypatch.setattr(pipeline, "_search_all_components",
                            lambda data, cfg: planted_outcomes(pools))
        cfg = run_config_from_dict(doc)
        try:
            written = run_pipeline(cfg, out_dir=tmp_path / "run")
        except NumericalError:
            written = load_results(tmp_path / "run" / "results.json")
        return cfg, written, inits

    def test_lowest_training_error_replaces_a_diverging_winner(
            self, monkeypatch, tmp_path):
        # S's winner diverges; S at rank 1 completes with a wrong rate, S at
        # rank 2 follows the data: the lower error wins over the rank sum
        pools = [[DIVERGING[0], SLOW_S, EXACT_S_SUB], [EXACT_SIR[1]],
                 [EXACT_SIR[2]]]
        cfg, doc, inits = self.run(monkeypatch, tmp_path, pools,
                                   tiny_synthetic_doc())
        assert doc["metrics"]["system_swap"] == {
            "train_diverged_at_step": 1, "pool_rank": {"S": 2, "I": 0, "R": 0}}
        assert list(doc["metrics"])[-1] == "system_swap"
        chosen = [EXACT_S_SUB, EXACT_SIR[1], EXACT_SIR[2]]
        for comp, (seq, params) in zip(doc["components"], chosen):
            assert tuple(comp["sequence"]) == seq
            assert comp["coefficients"] == params
        # the pool section still lists every entry, best first
        assert [tuple(e["sequence"]) for e in doc["pool"][0]["entries"]] == [
            DIVERGING[0][0], SLOW_S[0], EXACT_S_SUB[0]]
        assert doc["metrics"]["max_per_step_mse"] < 1e-25
        # every rollout before the forecast starts from the training
        # trajectories' first states and runs over the training horizon
        train, test = sm.train_test_split(generate_synthetic(cfg),
                                          cfg.data.train_fraction)
        check, (forecast, _) = inits[:-1], inits[-1]
        # the winners, then (1, 0, 0) and (2, 0, 0): the other pools hold
        # one entry each
        assert len(check) == 1 + 2
        for init, steps in check:
            assert np.array_equal(init, np.stack(train.trajectories)[:, 0])
            assert steps == cfg.data.steps
        assert np.array_equal(forecast, np.stack(test.trajectories)[:, 0])

    def test_five_components_try_every_rank_tuple(self, monkeypatch,
                                                 tmp_path):
        """On SEIRD, the winners' training rollout diverges, every other
        rank tuple with a sum of at most MAX_RANK_SUM is rolled out once,
        and the one with the lowest training error among those that
        complete is chosen."""
        systems = []
        rollout = pipeline.rollout

        def record(model, init, steps, dt):
            systems.append(tuple(
                next(k for k, (_, params) in enumerate(pool)
                     if np.array_equal(component.params, params))
                for component, pool in zip(model.components, SEIRD_POOLS)))
            return rollout(model, init, steps, dt)

        monkeypatch.setattr(pipeline, "rollout", record)
        doc = tiny_synthetic_doc()
        doc["model"] = {"kind": "seird"}
        cfg, written, inits = self.run(monkeypatch, tmp_path, SEIRD_POOLS,
                                       doc)
        limit = pipeline.MAX_RANK_SUM
        candidates = [ranks for ranks in np.ndindex((limit + 1,) * 5)
                      if 0 < sum(ranks) <= limit]
        assert len(candidates) == 20
        # the winners, each candidate once, then the forecast
        assert len(inits) == len(systems) == 1 + 20 + 1
        assert systems[0] == (0,) * 5
        assert sorted(systems[1:-1]) == sorted(candidates)

        train, _ = sm.train_test_split(generate_synthetic(cfg),
                                       cfg.data.train_fraction)
        truth = np.stack(train.trajectories)
        template = sm.build_template("type2", 5)
        errors = {}
        for ranks in candidates:
            system = sm.SystemModel([
                sm.CompiledExpression(template, pool[k][0],
                                      np.array(pool[k][1], float))
                for k, pool in zip(ranks, SEIRD_POOLS)])
            result = sm.rollout(system, truth[:, 0], cfg.data.steps,
                                cfg.data.dt)
            with np.errstate(over="ignore"):
                mse = sm.per_step_mse(result.states.swapaxes(0, 1),
                                      truth[:, : result.states.shape[0]])
            if result.completed and np.isfinite(mse).all():
                errors[ranks] = mse.max()
        assert 1 < len(errors) < len(candidates)
        best = min(errors, key=errors.get)
        # a rank sum of 2 beats every completing rank sum of 1
        assert sum(best) == 2
        assert written["metrics"]["system_swap"] == {
            "train_diverged_at_step": 1,
            "pool_rank": dict(zip("SEIRD", best))}
        for comp, pool, k in zip(written["components"], SEIRD_POOLS, best):
            assert tuple(comp["sequence"]) == pool[k][0]
            assert comp["coefficients"] == pool[k][1]

    def test_error_beyond_float_range_is_a_training_divergence(
            self, monkeypatch, tmp_path):
        # dR/dt = 1e154: R's winner moves R by 2e153 a step, and no other
        # component reads R, so every state stays finite over the whole
        # training horizon, but the per-step MSE leaves the float range
        pools = [[EXACT_SIR[0]], [EXACT_SIR[1]], [CONSTANT, EXACT_SIR[2]]]
        cfg, doc, inits = self.run(monkeypatch, tmp_path, pools,
                                   tiny_synthetic_doc())
        train, _ = sm.train_test_split(generate_synthetic(cfg),
                                       cfg.data.train_fraction)
        truth = np.stack(train.trajectories)
        template = sm.build_template("type2", 3)
        winners = sm.SystemModel([
            sm.CompiledExpression(template, seq, np.array(params, float))
            for seq, params in (EXACT_SIR[0], EXACT_SIR[1], CONSTANT)])
        result = sm.rollout(winners, truth[:, 0], cfg.data.steps, cfg.data.dt)
        assert result.completed
        with np.errstate(over="ignore"):
            mse = sm.per_step_mse(result.states.swapaxes(0, 1), truth)
        step = int(np.argmin(np.isfinite(mse)))
        assert step == 5 and not np.isfinite(mse).all()
        assert doc["metrics"]["system_swap"] == {
            "train_diverged_at_step": step,
            "pool_rank": {"S": 0, "I": 0, "R": 1}}
        assert doc["components"][2]["coefficients"] == EXACT_SIR[2][1]
        assert doc["metrics"]["max_per_step_mse"] < 1e-25
        # the winners' training rollout, (1, 0, 0)'s and the forecast
        assert len(inits) == 3

    def test_ties_go_to_the_lower_rank_sum(self, monkeypatch, tmp_path):
        # ranks (1, 0, 0) and (2, 0, 0) give the same rollout bits
        pools = [[DIVERGING[0], EXACT_SIR[0], EXACT_S_SUB], [EXACT_SIR[1]],
                 [EXACT_SIR[2]]]
        _, doc, _ = self.run(monkeypatch, tmp_path, pools,
                             tiny_synthetic_doc())
        assert doc["metrics"]["system_swap"]["pool_rank"] == {
            "S": 1, "I": 0, "R": 0}

    def test_winners_stay_when_no_neighbour_completes(self, monkeypatch,
                                                      tmp_path):
        pools = [DIVERGING, [EXACT_SIR[1]], [EXACT_SIR[2]]]
        _, doc, _ = self.run(monkeypatch, tmp_path, pools,
                             tiny_synthetic_doc())
        assert "system_swap" not in doc["metrics"]
        assert doc["metrics"]["diverged_at_step"] == 1
        assert doc["components"][0]["coefficients"] == DIVERGING[0][1]

    def test_completing_winners_write_no_record(self, monkeypatch, tmp_path):
        pools = [[SLOW_S, EXACT_S_SUB], [EXACT_SIR[1]], [EXACT_SIR[2]]]
        _, doc, inits = self.run(monkeypatch, tmp_path, pools,
                                 tiny_synthetic_doc())
        assert list(doc["metrics"]) == [
            "per_step_mse", "per_step_mse_by_component",
            "persistence_per_step", "max_per_step_mse"]
        assert doc["components"][0]["coefficients"] == SLOW_S[1]
        assert len(inits) == 2

    def test_real_mode_checks_the_training_days(self, monkeypatch, tmp_path,
                                                sample_csv):
        pools = [[DIVERGING[0], STILL], [STILL], [STILL]]
        cfg, doc, inits = self.run(monkeypatch, tmp_path, pools,
                                   tiny_real_doc(sample_csv))
        assert doc["metrics"]["system_swap"] == {
            "train_diverged_at_step": 1, "pool_rank": {"Q": 1, "D": 0, "R": 0}}
        assert list(doc["metrics"])[-1] == "system_swap"
        assert doc["components"][0]["coefficients"] == STILL[1]
        values = normalize_series(load_csv(sample_csv, cfg.real_dt),
                                  "by_max_total")[0].trajectories[0]
        # the winners, then (1, 0, 0), from day 0; the forecast from the
        # last training day
        assert len(inits) == 3
        for init, steps in inits[:-1]:
            assert np.array_equal(init, values[None, 0])
            assert steps == cfg.train_days - 1
        anchor, _ = inits[-1]
        assert np.array_equal(anchor, values[None, cfg.train_days - 1])


class TestRealPipeline:
    def test_runs_and_reports_metrics(self, sample_csv, tmp_path):
        cfg = run_config_from_dict(tiny_real_doc(sample_csv,
                                                 out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        metrics = doc["metrics"]
        assert metrics["forecast_steps"] == 10
        assert len(metrics["per_step_mse"]) == 10
        assert set(metrics["forecast_mse_per_series"]) == {"Q", "D", "R"}
        assert doc["scale_record"]["mode"] == "by_max_total"
        assert doc["scale_record"]["scale"] > 0
        assert len(doc["forecast"]["values"]) == 10
        assert (tmp_path / "run" / "forecast.csv").exists()

    def test_teacher_forced_mse_is_the_fitted_loss(self, sample_csv,
                                                   tmp_path):
        """Each series' teacher-forced MSE is the mean squared one-step
        Euler error over the training pairs, replayed row 0 excluded, which
        is its component's fitted loss."""
        cfg = run_config_from_dict(tiny_real_doc(sample_csv,
                                                 out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        raw = load_csv(sample_csv, dt=cfg.real_dt)
        window = (raw.trajectories[0][: cfg.train_days]
                  / doc["scale_record"]["scale"])
        replayed = sm.replay(system_from_document(doc), window, cfg.real_dt)
        one_step = ((replayed - window)[1:] ** 2).mean(axis=0)
        teacher = doc["metrics"]["teacher_forced_mse_per_series"]
        assert list(teacher) == doc["var_names"]
        # The replay evaluates each right-hand side in another operation
        # order than the fit did. Here R's terms reach 1.4e5 and cancel to
        # |f| <= 0.03, so the two orders differ by 1.5e-11 in f and by
        # 1.3e-7 relative in R's mean; a mean over 20 rows, row 0
        # included, would be 5% off.
        for k, comp in enumerate(doc["components"]):
            assert teacher[comp["name"]] == comp["loss"]
            assert teacher[comp["name"]] == pytest.approx(one_step[k],
                                                          rel=1e-6, abs=0)

    def test_forecast_is_scored_in_fitted_units(self, sample_csv, tmp_path):
        """Forecast and persistence are scored against the one series from
        the last training day on, in the units the system was fitted in:
        each per-step MSE is a mean over the series, each per-series MSE a
        mean over the steps."""
        cfg = run_config_from_dict(tiny_real_doc(sample_csv,
                                                 out=str(tmp_path / "run")))
        doc = run_pipeline(cfg)
        scale = doc["scale_record"]["scale"]
        values = load_csv(sample_csv).trajectories[0] / scale
        anchor = doc["forecast"]["anchor_step"]
        assert anchor == cfg.train_days - 1
        truth = values[anchor + 1:]
        forecast_sq = (np.array(doc["forecast"]["values"]) / scale - truth) ** 2
        persistence_sq = (values[anchor] - truth) ** 2
        metrics = doc["metrics"]
        assert metrics["per_step_mse"] == pytest.approx(
            forecast_sq.mean(axis=1), rel=1e-12, abs=0)
        assert metrics["persistence_per_step"] == list(
            persistence_sq.mean(axis=1))
        for j, name in enumerate(doc["var_names"]):
            assert metrics["forecast_mse_per_series"][name] == pytest.approx(
                forecast_sq[:, j].mean(), rel=1e-12, abs=0)
            assert (metrics["persistence_mse_per_series"][name]
                    == persistence_sq[:, j].mean())

    def test_overflow_in_original_units_is_a_divergence(self, sample_csv,
                                                        tmp_path,
                                                        monkeypatch):
        # The series in units of 1e200, so its scale is about 1e203. A
        # system whose states grow by 1e12 per step stays finite in fitted
        # units, squared errors included, over all 10 steps, but its state
        # at step 9 (about 1e108) leaves the float range once multiplied
        # back into the data's units.
        lines = sample_csv.read_text(encoding="utf-8").splitlines()
        big = tmp_path / "big.csv"
        big.write_text("\n".join([lines[0]] + [
            ",".join([row[0], *(repr(float(v) * 1e200) for v in row[1:])])
            for row in (line.split(",") for line in lines[1:])]) + "\n",
            encoding="utf-8")
        monkeypatch.setattr(pipeline, "system_from_document",
                            lambda doc: lambda state: 1e12 * state)
        cfg = run_config_from_dict(tiny_real_doc(big,
                                                 out=str(tmp_path / "run")))
        with pytest.raises(NumericalError,
                           match="^forecast rollout diverged at step 9$"):
            run_pipeline(cfg)
        doc = json.loads((tmp_path / "run" / "results.json").read_text(
            encoding="utf-8"))
        metrics = doc["metrics"]
        assert doc["scale_record"]["scale"] > 1e203
        assert metrics["diverged_at_step"] == 9
        assert "forecast_mse_per_series" not in metrics
        assert len(metrics["per_step_mse"]) == 8
        assert len(doc["forecast"]["values"]) == 8
        assert np.isfinite(doc["forecast"]["values"]).all()

    def test_train_days_must_leave_room(self, sample_csv, tmp_path):
        doc = tiny_real_doc(sample_csv, out=str(tmp_path / "run"))
        doc["train_days"] = 30
        cfg = run_config_from_dict(doc)
        from symode.errors import DataError
        with pytest.raises(DataError):
            run_pipeline(cfg)


def minimal_results_doc():
    """Every field that ``forecast`` and ``report`` read: a 3-component
    type2 system whose right-hand sides are all zero, fitted at dt = 1."""
    seq = ["id", "id", "add", "id", "add"]
    return {
        "config_echo": {"mode": "real", "dt": 1.0},
        "var_names": ["Q", "D", "R"],
        "components": [{"component": i, "name": name, "template": "type2",
                        "sequence": seq, "coefficients": [0.0] * 12,
                        "symbolic": "0"}
                       for i, name in enumerate("QDR")],
        "metrics": {"per_step_mse": [0.0]},
    }


def minimal_results_text(old, new):
    """The minimal document as JSON text with ``old`` replaced by ``new``."""
    return json.dumps(minimal_results_doc()).replace(old, new).encode()


# (results file bytes or a change to the minimal document, message)
BAD_RESULTS = {
    "empty": (b"", "not a JSON document: Expecting value: line 1 column 1 "
                   "(char 0)"),
    "invalid_json": (b"{", "not a JSON document: Expecting property name "
                           "enclosed in double quotes: line 1 column 2 "
                           "(char 1)"),
    "not_utf8": (b"\xff", "not UTF-8 text: 'utf-8' codec can't decode byte "
                          "0xff in position 0: invalid start byte"),
    "list": (b"[]", "top-level value is not a JSON object"),
    "no_components": (lambda doc: doc.pop("components"),
                      "missing field 'components'"),
    "no_config_echo": (lambda doc: doc.pop("config_echo"),
                       "missing field 'config_echo'"),
    "no_dt": (lambda doc: doc["config_echo"].pop("dt"),
              "config_echo.dt: expected a positive number"),
    "zero_dt": (lambda doc: doc["config_echo"].update(dt=0.0),
                "config_echo.dt: expected a positive number"),
    "no_synthetic_dt": (
        lambda doc: doc.update(config_echo={"mode": "synthetic", "dt": 1.0}),
        "config_echo.data.dt: expected a positive number"),
    "negative_synthetic_dt": (
        lambda doc: doc.update(config_echo={"mode": "synthetic",
                                            "data": {"dt": -0.2}}),
        "config_echo.data.dt: expected a positive number"),
    "short_var_names": (lambda doc: doc.update(var_names=["Q"]),
                        "var_names: expected a list of 3 distinct strings"),
    "repeated_var_name": (lambda doc: doc.update(var_names=["Q", "Q", "R"]),
                          "var_names: expected a list of 3 distinct strings"),
    "no_per_step_mse": (lambda doc: doc["metrics"].pop("per_step_mse"),
                        "metrics: missing field 'per_step_mse'"),
    "bad_scale": (
        lambda doc: doc.update(scale_record={"mode": "none", "scale": "x"}),
        "scale_record.scale: expected a positive number"),
    "string_scale": (
        lambda doc: doc.update(scale_record={"mode": "by_constant",
                                             "scale": "100000"}),
        "scale_record.scale: expected a positive number"),
    "negative_scale": (
        lambda doc: doc.update(scale_record={"mode": "by_constant",
                                             "scale": -1.0}),
        "scale_record.scale: expected a positive number"),
    "zero_scale": (
        lambda doc: doc.update(scale_record={"mode": "by_constant",
                                             "scale": 0}),
        "scale_record.scale: expected a positive number"),
    "nan_token": (lambda doc: doc["config_echo"].update(dt=float("nan")),
                  "not a JSON document: non-finite number nan"),
    "infinity_token": (
        lambda doc: doc["metrics"].update(per_step_mse=[float("inf")]),
        "not a JSON document: non-finite number inf"),
    "minus_infinity_token": (
        lambda doc: doc.update(scale_record={"mode": "none",
                                             "scale": float("-inf")}),
        "not a JSON document: non-finite number -inf"),
    "literal_beyond_float_range": (
        minimal_results_text('"dt": 1.0', '"dt": 1e400'),
        "not a JSON document: non-finite number inf"),
    "integer_beyond_float_range": (
        minimal_results_text('"dt": 1.0', '"dt": 1' + "0" * 400),
        "not a JSON document: non-finite number inf"),
    "no_forecast_values": (
        lambda doc: doc.update(forecast={"anchor_step": 0}),
        "forecast: missing field 'values'"),
    "unknown_template": (
        lambda doc: doc["components"][0].update(template="type9"),
        "components[0]: unknown template kind 'type9'"),
    "duplicate_component": (
        lambda doc: doc["components"][1].update(component=0),
        "components[1].component: expected 1"),
    "component_gap": (lambda doc: doc["components"][2].update(component=5),
                      "components[2].component: expected 2"),
    "component_not_int": (
        lambda doc: doc["components"][0].update(component="0"),
        "components[0].component: expected 0"),
    "component_bool": (
        lambda doc: doc["components"][1].update(component=True),
        "components[1].component: expected 1"),
    "no_name": (lambda doc: doc["components"][1].pop("name"),
                "components[1]: missing field 'name'"),
    "swapped_names": (
        lambda doc: [comp.update(name=name)
                     for comp, name in zip(doc["components"], "DQR")],
        "components[0].name: expected 'Q'"),
    "no_template": (lambda doc: doc["components"][0].pop("template"),
                    "components[0]: missing field 'template'"),
    "no_sequence": (lambda doc: doc["components"][2].pop("sequence"),
                    "components[2]: missing field 'sequence'"),
    "no_coefficients": (lambda doc: doc["components"][0].pop("coefficients"),
                        "components[0]: missing field 'coefficients'"),
    "coefficient_count": (
        lambda doc: doc["components"][2].update(coefficients=[0.0] * 3),
        "components[2]: params shape (3,) != (12,)"),
    "bad_tag": (
        lambda doc: doc["components"][1].update(
            sequence=["id", "id", "add", "id", "sin"]),
        "components[1]: slot 4: tag 'sin' not a binary operator"),
    "mse_string": (
        lambda doc: doc["metrics"].update(per_step_mse=[0.5, "x"]),
        "metrics.per_step_mse: expected a list of numbers"),
    "mse_not_list": (
        lambda doc: doc["metrics"].update(per_step_mse=0.5),
        "metrics.per_step_mse: expected a list of numbers"),
    "anchor_float": (
        lambda doc: doc.update(forecast={"anchor_step": 1.5, "values": []}),
        "forecast.anchor_step: expected an int"),
    "anchor_bool": (
        lambda doc: doc.update(forecast={"anchor_step": True, "values": []}),
        "forecast.anchor_step: expected an int"),
    "values_short_row": (
        lambda doc: doc.update(forecast={"anchor_step": 0,
                                         "values": [[1.0, 2.0, 3.0], [1.0]]}),
        "forecast.values: expected a list of rows of 3 numbers"),
    "values_string": (
        lambda doc: doc.update(forecast={"anchor_step": 0,
                                         "values": [[1.0, "x", 3.0]]}),
        "forecast.values: expected a list of rows of 3 numbers"),
    "values_not_rows": (
        lambda doc: doc.update(forecast={"anchor_step": 0, "values": [1.0]}),
        "forecast.values: expected a list of rows of 3 numbers"),
    "coefficient_string": (
        lambda doc: doc["components"][1]["coefficients"].__setitem__(0, "0.5"),
        "components[1].coefficients: expected a list of numbers"),
    "coefficient_bool": (
        lambda doc: doc["components"][2]["coefficients"].__setitem__(3, True),
        "components[2].coefficients: expected a list of numbers"),
    "empty_components": (
        lambda doc: doc.update(components=[], var_names=[]),
        "components: expected a non-empty list"),
    "components_object": (
        lambda doc: doc.update(components={}, var_names=[]),
        "components: expected a non-empty list"),
    # a string or list holding every key name passes a membership test
    "component_string": (
        lambda doc: doc["components"].__setitem__(
            1, "component name template sequence coefficients symbolic"),
        "components[1]: expected an object"),
    "component_list": (
        lambda doc: doc["components"].__setitem__(
            1, ["component", "name", "template", "sequence", "coefficients",
                "symbolic"]),
        "components[1]: expected an object"),
    "metrics_string": (lambda doc: doc.update(metrics="per_step_mse"),
                       "metrics: expected an object"),
    "metrics_list": (lambda doc: doc.update(metrics=["per_step_mse"]),
                     "metrics: expected an object"),
    "scale_record_string": (lambda doc: doc.update(scale_record="mode scale"),
                            "scale_record: expected an object"),
    "scale_record_list": (
        lambda doc: doc.update(scale_record=["mode", "scale"]),
        "scale_record: expected an object"),
    "forecast_string": (
        lambda doc: doc.update(forecast="anchor_step values"),
        "forecast: expected an object"),
    "forecast_list": (
        lambda doc: doc.update(forecast=["anchor_step", "values"]),
        "forecast: expected an object"),
    "symbolic_number": (
        lambda doc: doc["components"][0].update(symbolic=5),
        "components[0].symbolic: expected a string"),
    "name_list": (
        lambda doc: doc["components"][1].update(name=["D"]),
        "components[1].name: expected a string"),
}


class TestCli:
    def test_generate_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_synthetic_doc(out=str(tmp_path / "g"))),
                            encoding="utf-8")
        code = main(["generate", "--config", str(cfg_path)])
        assert code == 0
        data = load_csv(tmp_path / "g" / "trajectories.csv", dt=0.2)
        assert data.n_trajectories == 4
        assert data.var_names == ("S", "I", "R")

    def test_generate_shipped_seird_config(self, tmp_path):
        out = tmp_path / "seird"
        assert main(["generate", "--config",
                     str(CONFIG_DIR / "synthetic_seird.json"),
                     "--out", str(out)]) == 0
        data = load_csv(out / "trajectories.csv", dt=0.2)
        assert data.var_names == ("S", "E", "I", "R", "D")
        assert data.n_trajectories == 200

    def test_search_forecast_report_chain(self, tmp_path, sample_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(sample_csv,
                                                     out=str(tmp_path / "run"))),
                            encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 0
        results = tmp_path / "run" / "results.json"
        assert results.exists()

        assert main(["forecast", "--results", str(results),
                     "--data", str(sample_csv), "--steps", "5",
                     "--out", str(tmp_path / "fc")]) == 0
        pred = (tmp_path / "fc" / "predictions.csv").read_text().splitlines()
        assert pred[0] == "step,Q,D,R"
        assert len(pred) == 7          # header + anchor + 5 steps

        assert main(["report", "--results", str(results),
                     "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "equations.txt").exists()
        assert (tmp_path / "rep" / "mse_per_step.csv").exists()

    def test_every_written_csv_reads_back(self, tmp_path, sample_csv):
        """Each CSV that search, forecast and generate write has LF line
        ends, its step column, and bit for bit the values it came from."""
        def read(path, header, n_keys):
            text = path.read_bytes()
            assert b"\r" not in text and text.endswith(b"\n")
            lines = [line.split(",")
                     for line in text.decode("utf-8").split("\n")[:-1]]
            assert lines[0] == header
            return ([[int(c) for c in line[:n_keys]] for line in lines[1:]],
                    np.array([[float(c) for c in line[n_keys:]]
                              for line in lines[1:]]))

        def assert_same_bits(values, expected):
            expected = np.asarray(expected, dtype=float)
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()

        run, columns = tmp_path / "run", ["Q", "D", "R"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(sample_csv,
                                                     out=str(run))),
                            encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 0
        doc = load_results(run / "results.json")
        mse = doc["metrics"]["per_step_mse"]
        steps, values = read(run / "mse_per_step.csv", ["step_index", "mse"],
                             1)
        assert steps == [[k] for k in range(1, len(mse) + 1)]
        assert_same_bits(values, [[v] for v in mse])
        anchor, rows = doc["forecast"]["anchor_step"], doc["forecast"]["values"]
        steps, values = read(run / "forecast.csv", ["step", *columns], 1)
        assert steps == [[anchor + k] for k in range(1, len(rows) + 1)]
        assert_same_bits(values, rows)

        assert main(["forecast", "--results", str(run / "results.json"),
                     "--data", str(sample_csv), "--steps", "5",
                     "--out", str(tmp_path / "fc")]) == 0
        data = load_csv(sample_csv, dt_from_document(doc))
        scale = scale_from_document(doc)
        observed = data.trajectories[0] / scale
        restored = sm.rollout(system_from_document(doc), observed[-1], 5,
                              data.dt).states * scale
        steps, values = read(tmp_path / "fc" / "predictions.csv",
                             ["step", *columns], 1)
        anchor = observed.shape[0] - 1
        assert steps == [[anchor + k] for k in range(6)]
        assert_same_bits(values, restored)

        gen_doc = tiny_synthetic_doc(out=str(tmp_path / "gen"))
        cfg_path.write_text(json.dumps(gen_doc), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path)]) == 0
        truth = generate_synthetic(run_config_from_dict(gen_doc))
        steps, values = read(tmp_path / "gen" / "trajectories.csv",
                             ["trajectory_id", "step", "S", "I", "R"], 2)
        assert steps == [[tid, step]
                         for tid, traj in enumerate(truth.trajectories)
                         for step in range(traj.shape[0])]
        assert_same_bits(values, np.concatenate(truth.trajectories))

    def test_ctrl_c_ends_in_one_line(self, tmp_path, monkeypatch, capsys):
        def interrupted(data, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "_search_all_components", interrupted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_synthetic_doc(
            out=str(tmp_path / "run"))), encoding="utf-8")
        try:
            code = main(["search", "--config", str(cfg_path)])
        except KeyboardInterrupt:
            pytest.fail("main let the KeyboardInterrupt through")
        assert code == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"
        assert "Traceback" not in err

    def test_diverged_search_still_writes_results(self, tmp_path, capsys):
        # this seed's type1 winners complete their training rollout, so
        # they stay, and overflow the test forecast at step 69
        doc = tiny_synthetic_doc(seed=17, out=str(tmp_path / "run"))
        doc["data"]["steps"] = 250
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: autonomous rollout diverged at step 69\n")

        results = tmp_path / "run" / "results.json"
        written = load_results(results)
        assert written["config_echo"] == run_config_from_dict(doc).to_dict()
        assert [c["component"] for c in written["components"]] == [0, 1, 2]
        assert [p["component"] for p in written["pool"]] == [0, 1, 2]
        assert all(len(h["best_scores"]) == 3 for h in written["history"])
        metrics = written["metrics"]
        assert metrics["diverged_at_step"] == 69
        # only the 68 steps that every test trajectory completed
        assert len(metrics["per_step_mse"]) == 68
        assert "max_per_step_mse" not in metrics
        assert main(["report", "--results", str(results),
                     "--out", str(tmp_path / "rep")]) == 0
        equations = (tmp_path / "rep" / "equations.txt").read_text()
        assert equations == (tmp_path / "run" / "equations.txt").read_text()
        assert len(equations.splitlines()) == 3

    def test_diverged_document_is_returned_then_raised(self, tmp_path):
        doc = tiny_synthetic_doc(seed=17)
        doc["data"]["steps"] = 250
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg = run_config_from_dict(doc)
        returned = run_synthetic(cfg)
        assert list(returned["metrics"]) == [
            "per_step_mse", "per_step_mse_by_component",
            "persistence_per_step", "diverged_at_step"]
        assert returned["metrics"]["diverged_at_step"] == 69
        with pytest.raises(NumericalError) as raised:
            run_pipeline(cfg, out_dir=tmp_path / "run")
        assert str(raised.value) == "autonomous rollout diverged at step 69"
        assert load_results(tmp_path / "run" / "results.json") == returned

    def test_error_beyond_float_range_is_a_divergence(self, tmp_path, capsys):
        # this seed's forecast states stay finite up to step 43, but their
        # squared error at step 43 does not; no pool system of rank sum at
        # most 2 completes its training rollout, so the winners stay
        doc = tiny_synthetic_doc(seed=7, out=str(tmp_path / "run"))
        doc["data"]["steps"] = 250
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: autonomous rollout diverged at step 43\n")

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        text = (tmp_path / "run" / "results.json").read_text(encoding="utf-8")
        metrics = json.loads(text, parse_constant=reject)["metrics"]
        assert metrics["diverged_at_step"] == 43
        assert len(metrics["per_step_mse"]) == 42

    def test_real_mode_rejects_several_trajectories(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("trajectory_id,step,Q,D,R\n"
                        "0,0,1,2,3\n0,1,1,2,3\n1,0,4,5,6\n1,1,4,5,6\n",
                        encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(data,
                                                     out=str(tmp_path / "o"))),
                            encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {data}: real mode expects a single series\n")
        assert not (tmp_path / "o").exists()

    def test_report_on_missing_results(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["report", "--results", str(path),
                     "--out", str(tmp_path / "rep")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: no such results document\n")
        assert not (tmp_path / "rep").exists()

    def test_diverged_real_forecast_still_writes_results(self, tmp_path,
                                                          capsys):
        # this seed's type1 winners complete their training rollout and
        # overflow the forecast at step 8
        doc = tiny_real_doc(SERIES, out=str(tmp_path / "run"))
        doc["seed"] = 2
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: forecast rollout diverged at step 8\n")
        written = load_results(tmp_path / "run" / "results.json")
        assert list(written["metrics"]) == [
            "forecast_steps", "per_step_mse", "persistence_per_step",
            "persistence_mse_per_series", "teacher_forced_mse_per_series",
            "diverged_at_step"]
        assert written["metrics"]["diverged_at_step"] == 8
        assert len(written["metrics"]["per_step_mse"]) == 7
        assert len(written["forecast"]["values"]) == 7
        rows = (tmp_path / "run" / "forecast.csv").read_text().splitlines()
        assert len(rows) == 8

    def test_seed_and_epochs_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_synthetic_doc(out=str(tmp_path / "o"))),
                            encoding="utf-8")
        code = main(["search", "--config", str(cfg_path), "--seed", "9",
                     "--epochs", "2", "--out", str(tmp_path / "o2")])
        assert code == 0
        doc = load_results(tmp_path / "o2" / "results.json")
        assert doc["config_echo"]["seed"] == 9
        assert doc["config_echo"]["search"]["epochs"] == 2

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("role", ["config", "input_csv", "results",
                                      "data"])
    def test_unreadable_input_is_a_named_error(self, tmp_path, capsys,
                                               sample_csv, role, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(bad, out=str(
            tmp_path / "o"))), encoding="utf-8")
        results = self._results_file(tmp_path, lambda doc: None)
        argv, code, what = {
            "config": (["search", "--config", str(bad)], 2, "config file"),
            "input_csv": (["search", "--config", str(cfg_path)], 3, "file"),
            "results": (["report", "--results", str(bad)], 3,
                        "results document"),
            "data": (["forecast", "--results", str(results), "--data",
                      str(bad)], 3, "file"),
        }[role]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        reason = (f"cannot read {what}: Is a directory" if kind == "directory"
                  else "not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte")
        label = "config error" if code == 2 else "data error"
        assert capsys.readouterr().err == f"{label}: {bad}: {reason}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["file", "under_file"])
    @pytest.mark.parametrize("command", ["generate", "search", "forecast",
                                         "report"])
    def test_unusable_out_fails_before_any_work(self, tmp_path, capsys,
                                                 monkeypatch, sample_csv,
                                                 command, where):
        def never(*args):
            pytest.fail("called before the output directory was checked")

        for module, name in [(pipeline, "_search_all_components"),
                             (cli, "generate_synthetic"),
                             (cli, "load_results")]:
            monkeypatch.setattr(module, name, never)
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        out = taken if where == "file" else taken / "sub"
        cfg_path = tmp_path / "cfg.json"
        cfg = (tiny_synthetic_doc() if command == "generate"
               else tiny_real_doc(sample_csv))
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        results = str(tmp_path / "results.json")
        argv = {"generate": ["generate", "--config", str(cfg_path)],
                "search": ["search", "--config", str(cfg_path)],
                "forecast": ["forecast", "--results", results, "--data",
                             str(sample_csv)],
                "report": ["report", "--results", results]}[command]
        assert main([*argv, "--out", str(out)]) == 2
        name = "output_dir" if command in ("generate", "search") else "--out"
        assert capsys.readouterr().err == (
            f"config error: {name}: {taken} is not a directory\n")
        assert sorted(tmp_path.iterdir()) == [cfg_path, taken]
        assert taken.read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.parametrize("command,file", [
        ("generate", "trajectories.csv"), ("search", "results.json"),
        ("search", "forecast.csv"), ("forecast", "predictions.csv"),
        ("report", "equations.txt")])
    def test_output_file_held_as_directory_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, sample_csv, command, file):
        def never(*args):
            pytest.fail("called before the output files were checked")

        for module, name in [(pipeline, "_search_all_components"),
                             (cli, "generate_synthetic")]:
            monkeypatch.setattr(module, name, never)
        if command == "forecast":
            monkeypatch.setattr(cli, "load_results", never)
        out = tmp_path / "o"
        (out / file).mkdir(parents=True)
        cfg_path = tmp_path / "cfg.json"
        cfg = (tiny_synthetic_doc() if command == "generate"
               else tiny_real_doc(sample_csv))
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        results = str(self._results_file(tmp_path, lambda doc: None))
        argv = {"generate": ["generate", "--config", str(cfg_path)],
                "search": ["search", "--config", str(cfg_path)],
                "forecast": ["forecast", "--results", results, "--data",
                             str(sample_csv)],
                "report": ["report", "--results", results]}[command]
        assert main([*argv, "--out", str(out)]) == 2
        name = "output_dir" if command in ("generate", "search") else "--out"
        assert capsys.readouterr().err == (
            f"config error: {name}: {out / file} is a directory\n")
        assert list(out.iterdir()) == [out / file]
        assert not any((out / file).iterdir())

    def test_report_checks_only_the_files_it_writes(self, tmp_path,
                                                    sample_csv):
        # a document without a forecast writes no forecast.csv
        results = self._results_file(tmp_path, lambda doc: None)
        out = tmp_path / "rep"
        (out / "forecast.csv").mkdir(parents=True)
        assert main(["report", "--results", str(results),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "equations.txt", "forecast.csv", "mse_per_step.csv"]

    def test_results_byte_order_mark_is_skipped(self, tmp_path, sample_csv):
        path = tmp_path / "results.json"
        path.write_bytes(b"\xef\xbb\xbf"
                         + json.dumps(minimal_results_doc()).encode("utf-8"))
        assert load_results(path) == minimal_results_doc()
        assert self._forecast_and_report(path, sample_csv, tmp_path) == [0, 0]

    @pytest.mark.parametrize("command", ["search", "report"])
    def test_unusable_default_out_is_a_config_error(self, tmp_path, capsys,
                                                    sample_csv, command):
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(sample_csv,
                                                     out=str(taken))),
                            encoding="utf-8")
        if command == "search":
            argv, name = ["search", "--config", str(cfg_path)], "output_dir"
        else:
            argv = ["report", "--results", str(taken / "results.json")]
            name = "--results"
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {name}: {taken} is not a directory\n")

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "synthetic", "surprise": 1,
                                   "model": {"kind": "sir"}}),
                       encoding="utf-8")
        assert main(["search", "--config", str(bad)]) == 2
        assert main(["search", "--config", str(tmp_path / "missing.json")]) == 2

    def test_data_error_exit_code(self, tmp_path):
        cfg = {"mode": "real", "input_csv": str(tmp_path / "none.csv"),
               "search": TINY_SEARCH}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 3

    def test_generate_rejects_real_mode(self, tmp_path, sample_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(sample_csv)),
                            encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed: must be >= 0"),
        (["--epochs", "0"], "search.epochs: must be >= 1"),
    ], ids=["seed", "epochs"])
    def test_overrides_validated_like_file_keys(self, tmp_path, capsys,
                                                flags, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_synthetic_doc(out=str(tmp_path / "o"))),
                            encoding="utf-8")
        assert main(["search", "--config", str(cfg_path), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("templates", [["type2"],
                                           ["type2", "type2", "type1", "type1"]],
                             ids=["short", "long"])
    def test_templates_list_needs_one_kind_per_component(self, tmp_path, capsys,
                                                         templates):
        doc = tiny_synthetic_doc(out=str(tmp_path / "o"))
        doc["search"] = dict(TINY_SEARCH, templates=templates)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: search.templates: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o" / "results.json").exists()

    def test_non_finite_cell_exit_code(self, tmp_path, capsys, sample_csv):
        lines = sample_csv.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_real_doc(csv_path,
                                                     out=str(tmp_path / "o"))),
                            encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 3
        assert "row 3, column 'R'" in capsys.readouterr().err

    def _results_file(self, tmp_path, content):
        path = tmp_path / "results.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            doc = minimal_results_doc()
            content(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _forecast_and_report(self, path, sample_csv, tmp_path):
        return [main(["forecast", "--results", str(path), "--data",
                      str(sample_csv), "--steps", "5",
                      "--out", str(tmp_path / "fc")]),
                main(["report", "--results", str(path),
                      "--out", str(tmp_path / "rep")])]

    def test_minimal_results_document_loads(self, tmp_path, sample_csv):
        path = self._results_file(tmp_path, lambda doc: None)
        assert self._forecast_and_report(path, sample_csv, tmp_path) == [0, 0]

    def test_scale_record_without_mode_loads(self, tmp_path, sample_csv):
        # forecast reads only the scale; the mode is informational
        path = self._results_file(
            tmp_path, lambda doc: doc.update(scale_record={"scale": 2.0}))
        assert load_results(path)["scale_record"] == {"scale": 2.0}
        assert self._forecast_and_report(path, sample_csv, tmp_path) == [0, 0]

    @pytest.mark.parametrize("content,message", list(BAD_RESULTS.values()),
                             ids=list(BAD_RESULTS))
    def test_malformed_results_exit_code(self, tmp_path, capsys, sample_csv,
                                         content, message):
        path = self._results_file(tmp_path, content)
        assert self._forecast_and_report(path, sample_csv, tmp_path) == [3, 3]
        line = f"data error: {path}: {message}\n"
        assert capsys.readouterr().err == line + line
        assert not (tmp_path / "fc").exists()
        assert not (tmp_path / "rep").exists()

    def test_forecast_reads_columns_by_name(self, tmp_path, sample_csv):
        # dQ/dt = -0.1 Q, so the prediction depends on which column is Q
        path = self._results_file(
            tmp_path,
            lambda doc: doc["components"][0]["coefficients"].__setitem__(0, -0.1))
        rows = [line.split(",") for line in
                sample_csv.read_text(encoding="utf-8").splitlines()]
        rdq = tmp_path / "rdq.csv"
        rdq.write_text("".join(f"{r[0]},{r[3]},{r[2]},{r[1]}\n" for r in rows),
                       encoding="utf-8")
        predictions = []
        for k, data in enumerate((sample_csv, rdq)):
            out = tmp_path / f"fc{k}"
            assert main(["forecast", "--results", str(path), "--data",
                         str(data), "--steps", "5", "--out", str(out)]) == 0
            predictions.append((out / "predictions.csv").read_bytes())
        assert predictions[0] == predictions[1]

    def test_forecast_steps_at_fitted_dt(self, tmp_path, sample_csv):
        # dQ/dt = -0.1 Q fitted at dt = 0.2: each step scales Q by 0.98
        def fitted_at_dt(doc):
            doc["config_echo"] = {"mode": "synthetic", "data": {"dt": 0.2}}
            doc["components"][0]["coefficients"][0] = -0.1

        path = self._results_file(tmp_path, fitted_at_dt)
        assert main(["forecast", "--results", str(path), "--data",
                     str(sample_csv), "--steps", "2",
                     "--out", str(tmp_path / "fc")]) == 0
        rows = (tmp_path / "fc" / "predictions.csv").read_text().splitlines()
        q = [float(row.split(",")[1]) for row in rows[1:]]
        assert q[1] == pytest.approx(0.98 * q[0], rel=1e-12)
        assert q[2] == pytest.approx(0.98 ** 2 * q[0], rel=1e-12)

    def test_forecast_teacher_mode_is_one_step_replay(self, tmp_path,
                                                      sample_csv):
        # dQ/dt = -0.1 Q at dt = 1: row k + 1 is 0.9 times observed row k
        path = self._results_file(
            tmp_path,
            lambda doc: doc["components"][0]["coefficients"].__setitem__(0, -0.1))
        assert main(["forecast", "--results", str(path), "--data",
                     str(sample_csv), "--mode", "teacher",
                     "--out", str(tmp_path / "fc")]) == 0
        observed = [float(line.split(",")[1]) for line in
                    sample_csv.read_text(encoding="utf-8").splitlines()[1:]]
        rows = (tmp_path / "fc" / "predictions.csv").read_text().splitlines()
        q = [float(row.split(",")[1]) for row in rows[1:]]
        assert len(q) == len(observed)
        assert q[0] == observed[0]
        assert q[1:] == pytest.approx([0.9 * v for v in observed[:-1]],
                                      rel=1e-12)

    @pytest.mark.parametrize("mode", ["autonomous", "teacher"])
    def test_forecast_divergence_exit_code(self, tmp_path, capsys, sample_csv,
                                           mode):
        # dQ/dt = 1e308 Q overflows on the first step in either mode
        path = self._results_file(
            tmp_path,
            lambda doc: doc["components"][0]["coefficients"].__setitem__(0, 1e308))
        assert main(["forecast", "--results", str(path), "--data",
                     str(sample_csv), "--mode", mode,
                     "--out", str(tmp_path / "fc")]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: rollout diverged at step 1\n")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("mode,flags,step", [
        ("autonomous", ["--steps", "305"], 305),
        ("teacher", [], 1),
    ])
    def test_overflow_in_original_units_is_a_divergence(self, tmp_path,
                                                        capsys, mode, flags,
                                                        step):
        # fitted at scale 1e5: dQ/dt = 9 Q stays finite in fitted units for
        # 305 steps and dQ/dt = 1e307 Q for one, but not in the data's units
        rate = 9.0 if mode == "autonomous" else 1e307

        def scaled(doc):
            doc["scale_record"] = {"mode": "by_constant", "scale": 1e5}
            doc["components"][0]["coefficients"][0] = rate

        path = self._results_file(tmp_path, scaled)
        assert main(["forecast", "--results", str(path), "--data", str(SERIES),
                     "--mode", mode, *flags,
                     "--out", str(tmp_path / "fc")]) == 4
        assert capsys.readouterr().err == (
            f"numerical failure: rollout diverged at step {step}\n")
        assert not (tmp_path / "fc").exists()

    def test_forecast_rejects_several_trajectories(self, tmp_path, capsys):
        path = self._results_file(tmp_path, lambda doc: None)
        data = tmp_path / "two.csv"
        data.write_text("trajectory_id,step,Q,D,R\n"
                        "0,0,1,2,3\n0,1,1,2,3\n1,0,4,5,6\n1,1,4,5,6\n",
                        encoding="utf-8")
        assert main(["forecast", "--results", str(path), "--data", str(data),
                     "--out", str(tmp_path / "fc")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {data}: forecast expects a single series, got 2 "
            f"trajectories\n")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_forecast_steps_must_be_positive(self, tmp_path, capsys,
                                             sample_csv, steps):
        path = self._results_file(tmp_path, lambda doc: None)
        assert main(["forecast", "--results", str(path), "--data",
                     str(sample_csv), "--steps", steps,
                     "--out", str(tmp_path / "fc")]) == 2
        assert capsys.readouterr().err == "config error: --steps: must be >= 1\n"
        assert not (tmp_path / "fc").exists()

    # 1e13 steps, so no overcommit grants the allocation
    @pytest.mark.parametrize("command", ["generate", "search", "forecast"])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, sample_csv,
                                     command):
        steps = 10_000_000_000_000
        if command == "forecast":
            path = self._results_file(tmp_path, lambda doc: None)
            argv = ["forecast", "--results", str(path), "--data",
                    str(sample_csv), "--steps", str(steps)]
        else:
            doc = tiny_synthetic_doc()
            doc["data"]["steps"] = steps
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [command, "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory: Unable to "
                              "allocate ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_cli_import_loads_neither_multiprocessing_nor_scipy():
    """Set-up cost: importing the CLI loads neither multiprocessing, which
    no module of the package imports, nor scipy."""
    script = ("import sys, symode.cli; print(sorted({m.split('.')[0] for m "
              "in sys.modules} & {'multiprocessing', 'scipy'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
