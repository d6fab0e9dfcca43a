import json
from pathlib import Path

import numpy as np
import pytest

import symode as sm
from symode.cli import main
from symode.config import run_config_from_dict
from symode.dataio import load_csv
from symode.pipeline import (generate_synthetic, load_results, run_pipeline,
                             system_from_document)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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


# (results file bytes or a change to the minimal document, message)
BAD_RESULTS = {
    "empty": (b"", "not a JSON document: Expecting value: line 1 column 1 "
                   "(char 0)"),
    "invalid_json": (b"{", "not a JSON document: Expecting property name "
                           "enclosed in double quotes: line 1 column 2 "
                           "(char 1)"),
    "not_utf8": (b"\xff", "not a JSON document: 'utf-8' codec can't decode "
                          "byte 0xff in position 0: invalid start byte"),
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
    "no_scale_mode": (
        lambda doc: doc.update(scale_record={"scale": 2.0}),
        "scale_record: missing field 'mode'"),
    "bad_scale": (
        lambda doc: doc.update(scale_record={"mode": "none", "scale": "x"}),
        "could not convert string to float: 'x'"),
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

    def test_diverged_search_still_writes_results(self, tmp_path, capsys):
        # this seed's type1 winners overflow the test forecast at step 27
        doc = tiny_synthetic_doc(seed=9, out=str(tmp_path / "run"))
        doc["data"]["steps"] = 250
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: autonomous rollout diverged at step 27\n")

        results = tmp_path / "run" / "results.json"
        written = load_results(results)
        assert written["config_echo"] == run_config_from_dict(doc).to_dict()
        assert [c["component"] for c in written["components"]] == [0, 1, 2]
        assert [p["component"] for p in written["pool"]] == [0, 1, 2]
        assert all(len(h["best_scores"]) == 3 for h in written["history"])
        metrics = written["metrics"]
        assert metrics["diverged_at_step"] == 27
        # only the 26 steps that every test trajectory completed
        assert len(metrics["per_step_mse"]) == 26
        assert "max_per_step_mse" not in metrics
        assert main(["report", "--results", str(results),
                     "--out", str(tmp_path / "rep")]) == 0
        equations = (tmp_path / "rep" / "equations.txt").read_text()
        assert equations == (tmp_path / "run" / "equations.txt").read_text()
        assert len(equations.splitlines()) == 3

    def test_error_beyond_float_range_is_a_divergence(self, tmp_path, capsys):
        # this seed's forecast states stay finite up to step 215, but their
        # squared error at step 215 does not
        doc = tiny_synthetic_doc(seed=26, out=str(tmp_path / "run"))
        doc["data"]["steps"] = 250
        doc["search"] = dict(TINY_SEARCH, templates="type1")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["search", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: autonomous rollout diverged at step 215\n")

        def reject(token):
            raise ValueError(f"non-finite token {token}")

        text = (tmp_path / "run" / "results.json").read_text(encoding="utf-8")
        metrics = json.loads(text, parse_constant=reject)["metrics"]
        assert metrics["diverged_at_step"] == 215
        assert len(metrics["per_step_mse"]) == 214

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
