import json

import numpy as np
import pytest

import symode as sm
from symode.cli import main
from symode.config import run_config_from_dict
from symode.dataio import load_csv
from symode.pipeline import (generate_synthetic, load_results, run_pipeline,
                             system_from_document)

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
        lines = system.symbolic(4)
        for comp_entry, line in zip(doc["components"], lines):
            assert comp_entry["symbolic"] == line


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
