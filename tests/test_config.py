import json
from pathlib import Path

import pytest

from symode.config import load_run_config, run_config_from_dict
from symode.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def minimal_synthetic():
    return {"mode": "synthetic", "model": {"kind": "sir"}}


def minimal_real():
    return {"mode": "real", "input_csv": "series.csv"}


class TestValidation:
    def test_minimal_synthetic_parses_with_defaults(self):
        cfg = run_config_from_dict(minimal_synthetic())
        assert cfg.mode == "synthetic"
        assert cfg.data.n_trajectories == 200
        assert cfg.data.steps == 250
        assert cfg.data.dt == 0.2
        assert cfg.search.epochs == 100
        assert cfg.search.batch_size == 10
        assert cfg.search.epsilon == 0.1
        assert cfg.search.controller_lr == 0.002

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            run_config_from_dict({})

    def test_unknown_top_level_key(self):
        doc = minimal_synthetic()
        doc["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            run_config_from_dict(doc)

    def test_unknown_nested_key_reports_path(self):
        doc = minimal_synthetic()
        doc["search"] = {"optim": {"t9_iters": 3}}
        with pytest.raises(ConfigError, match="search.optim"):
            run_config_from_dict(doc)

    def test_mode_foreign_block_rejected(self):
        doc = minimal_real()
        doc["data"] = {"steps": 10}
        with pytest.raises(ConfigError):
            run_config_from_dict(doc)

    def test_real_requires_input_csv(self):
        with pytest.raises(ConfigError, match="input_csv"):
            run_config_from_dict({"mode": "real"})

    def test_bad_value_reports_path(self):
        doc = minimal_synthetic()
        doc["data"] = {"train_fraction": 1.5}
        with pytest.raises(ConfigError, match="train_fraction"):
            run_config_from_dict(doc)

    def test_bad_type_reports_path(self):
        doc = minimal_synthetic()
        doc["search"] = {"epochs": "many"}
        with pytest.raises(ConfigError, match="epochs"):
            run_config_from_dict(doc)

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            run_config_from_dict({"mode": "synthetic",
                                  "model": {"kind": "sirs"}})

    def test_templates_string_or_list(self):
        doc = minimal_synthetic()
        doc["search"] = {"templates": "type1"}
        assert run_config_from_dict(doc).search.templates == "type1"
        doc["search"] = {"templates": ["type1", "type2", "type2"]}
        assert run_config_from_dict(doc).search.templates == [
            "type1", "type2", "type2"]
        doc["search"] = {"templates": "type9"}
        with pytest.raises(ConfigError, match="templates"):
            run_config_from_dict(doc)

    def test_by_constant_requires_constant(self):
        doc = minimal_real()
        doc["normalization"] = {"mode": "by_constant"}
        with pytest.raises(ConfigError, match="constant"):
            run_config_from_dict(doc)

    def test_epi_param_overrides(self):
        doc = minimal_synthetic()
        doc["model"]["params"] = {"beta": 0.5, "gamma": 0.1}
        cfg = run_config_from_dict(doc)
        assert cfg.model.params == {"beta": 0.5, "gamma": 0.1}
        doc["model"]["params"] = {"betta": 0.5}
        with pytest.raises(ConfigError, match="model.params"):
            run_config_from_dict(doc)

    def test_echo_round_trip(self):
        doc = {
            "mode": "synthetic",
            "seed": 7,
            "output_dir": "out",
            "model": {"kind": "seir", "params": {"beta": 0.8}},
            "data": {"n_trajectories": 6, "steps": 12, "dt": 0.1,
                     "train_fraction": 0.5, "normalize_init": False},
            "search": {"epochs": 2, "batch_size": 3, "pool_capacity": 4,
                       "nu": 0.25, "epsilon": 0.2, "controller_lr": 0.01,
                       "templates": "type1",
                       "optim": {"t1_iters": 5, "t2_iters": 5,
                                 "t3_iters": 5}},
        }
        cfg = run_config_from_dict(doc)
        echoed = cfg.to_dict()
        assert run_config_from_dict(echoed).to_dict() == echoed

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_synthetic()), encoding="utf-8")
        assert load_run_config(path).mode == "synthetic"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_run_config(bad)
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "missing.json")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf"
                         + json.dumps(minimal_synthetic()).encode("utf-8"))
        assert (load_run_config(path).to_dict()
                == run_config_from_dict(minimal_synthetic()).to_dict())


@pytest.mark.parametrize("key,literal,message", [
    # an int beyond the float range in a float field, as NaN is
    ("dt", "1" + "0" * 400, "data.dt: expected a finite number"),
    # more digits than int() converts, in any field
    ("steps", "1" + "0" * 4400, "invalid JSON (Exceeds the limit (4300 "
                                "digits)"),
], ids=["beyond-float-range", "too-many-digits"])
def test_huge_int_literal_is_a_config_error(tmp_path, key, literal, message):
    path = tmp_path / "cfg.json"
    doc = json.dumps(syn(data={key: 2}))
    path.write_text(doc.replace(f'"{key}": 2', f'"{key}": {literal}'),
                    encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert message in str(err.value)


def syn(**keys):
    return {"mode": "synthetic", "model": {"kind": "sir"}, **keys}


def real(**keys):
    return {"mode": "real", "input_csv": "series.csv", **keys}


def optim(**keys):
    return syn(search={"optim": keys})


# (dotted field path the error must start with, document, rest of the message
#  [, test id when it is not the path])
MALFORMED = [
    ("config", [], "expected an object"),
    ("mode", {}, "expected 'synthetic' or 'real'"),
    ("mode", {"mode": "fake"}, "expected 'synthetic' or 'real'"),
    ("config", syn(typo_key=1), "unknown keys ['typo_key']"),
    ("seed", syn(seed="1"), "expected int"),
    ("seed", syn(seed=True), "expected int"),
    ("seed", syn(seed=-1), "must be >= 0"),
    ("output_dir", syn(output_dir=3), "expected str"),
    ("search", syn(search=[]), "expected an object"),
    ("search", syn(search={"typo": 1}), "unknown keys ['typo']"),
    ("search", syn(search={"seed": 1}), "unknown keys ['seed']"),
    ("search.epochs", syn(search={"epochs": "many"}), "expected int"),
    ("search.epochs", syn(search={"epochs": 0}), "must be >= 1"),
    ("search.batch_size", syn(search={"batch_size": 1.5}), "expected int"),
    ("search.batch_size", syn(search={"batch_size": 0}), "must be >= 1"),
    ("search.pool_capacity", syn(search={"pool_capacity": None}),
     "expected int"),
    ("search.pool_capacity", syn(search={"pool_capacity": 0}),
     "must be >= 1"),
    ("search.nu", syn(search={"nu": "0.2"}), "expected float"),
    ("search.nu", syn(search={"nu": 1}), "must lie in (0, 1)"),
    ("search.epsilon", syn(search={"epsilon": True}), "expected float"),
    ("search.epsilon", syn(search={"epsilon": 1.5}), "must lie in [0, 1]"),
    ("search.controller_lr", syn(search={"controller_lr": [0.1]}),
     "expected float"),
    ("search.controller_lr", syn(search={"controller_lr": -0.1}),
     "must be >= 0"),
    ("search.templates", syn(search={"templates": 2}),
     "expected a string or list"),
    ("search.templates", syn(search={"templates": ["type1", 2]}),
     "expected template-kind strings"),
    ("search.templates", syn(search={"templates": "type9"}),
     "unknown template kinds ['type9']"),
    ("search.templates", syn(search={"templates": ["type1", "TYPE3"]}),
     "unknown template kinds ['type3']"),
    ("search.optim", syn(search={"optim": 5}), "expected an object"),
    ("search.optim", optim(t9_iters=3), "unknown keys ['t9_iters']"),
    ("search.optim.t1_iters", optim(t1_iters=1.0), "expected int"),
    ("search.optim.t2_iters", optim(t2_iters="5"), "expected int"),
    ("search.optim.t3_iters", optim(t3_iters=False), "expected int"),
    ("search.optim", optim(t3_iters=-1), "iteration counts must be >= 0"),
    # Deleted keys are unknown whatever their value: the rows whose values
    # once failed the type check keep that check's test id (fourth entry).
    ("search.optim", optim(lr_first="big"), "unknown keys ['lr_first']",
     "search.optim.lr_first"),
    ("search.optim", optim(lr_first=0), "unknown keys ['lr_first']"),
    ("search.optim", optim(lr_finetune=None), "unknown keys ['lr_finetune']",
     "search.optim.lr_finetune"),
    ("search.optim", optim(lr_finetune=0.1), "unknown keys ['lr_finetune']"),
    ("search.optim", optim(grad_tol="tiny"), "unknown keys ['grad_tol']",
     "search.optim.grad_tol"),
    ("search.optim", optim(armijo_c=[]), "unknown keys ['armijo_c']",
     "search.optim.armijo_c"),
    ("search.optim", optim(armijo_c=1), "unknown keys ['armijo_c']"),
    ("search.optim", optim(backtrack_factor={}),
     "unknown keys ['backtrack_factor']", "search.optim.backtrack_factor"),
    ("search.optim", optim(backtrack_factor=0),
     "unknown keys ['backtrack_factor']"),
    ("model", syn(model=[]), "expected an object"),
    ("model", syn(model={"kind": "sir", "rates": {}}), "unknown keys ['rates']"),
    ("model.kind", syn(model={"kind": 1}), "expected str"),
    ("model.kind", syn(model={"kind": "sirs"}), "unknown model 'sirs'"),
    ("model.params", syn(model={"params": [0.5]}), "expected an object"),
    ("model.params", syn(model={"params": {"betta": 0.5}}),
     "unknown keys ['betta']"),
    # a rate the model's vector field never reads
    ("model.params", syn(model={"params": {"delta": 0.1}}),
     "sir does not read ['delta']"),
    ("model.params", syn(model={"params": {"sigma": 0.5, "beta": 0.5,
                                            "nu_rate": 0.1}}),
     "sir does not read ['nu_rate', 'sigma']"),
    ("model.params", syn(model={"kind": "seir", "params": {"delta": 0.1}}),
     "seir does not read ['delta']"),
    ("model.params", syn(model={"kind": "seird", "params": {"mu": 0.1}}),
     "seird does not read ['mu']"),
    ("model.params.n_pop", syn(model={"params": {"n_pop": "1"}}),
     "expected float"),
    ("data", syn(data=None), "expected an object"),
    ("data", syn(data={"days": 3}), "unknown keys ['days']"),
    ("data.n_trajectories", syn(data={"n_trajectories": 2.5}), "expected int"),
    ("data.n_trajectories", syn(data={"n_trajectories": 1}), "must be >= 2"),
    ("data.steps", syn(data={"steps": "250"}), "expected int"),
    ("data.steps", syn(data={"steps": 0}), "must be >= 1"),
    ("data.dt", syn(data={"dt": "0.2"}), "expected float"),
    ("data.dt", syn(data={"dt": 0}), "must be > 0"),
    ("data.train_fraction", syn(data={"train_fraction": None}),
     "expected float"),
    ("data.train_fraction", syn(data={"train_fraction": 1}),
     "must lie in (0, 1)"),
    ("data.normalize_init", syn(data={"normalize_init": 1}), "expected bool"),
    ("config", syn(input_csv="x.csv"), "unknown keys ['input_csv']"),
    ("config", syn(train_days=85), "unknown keys ['train_days']"),
    ("config", syn(dt=1.0), "unknown keys ['dt']"),
    ("config", syn(normalization={}), "unknown keys ['normalization']"),
    ("config", syn(real_dt=1.0), "unknown keys ['real_dt']"),
    ("input_csv", {"mode": "real"}, "required in real mode"),
    ("input_csv", real(input_csv=""), "required in real mode"),
    ("input_csv", real(input_csv=None), "expected str"),
    ("input_csv", real(input_csv=["a.csv"]), "expected str"),
    ("train_days", real(train_days="85"), "expected int"),
    ("train_days", real(train_days=1), "must be >= 2"),
    ("dt", real(dt="1"), "expected float"),
    ("dt", real(dt=-1.0), "must be > 0"),
    ("normalization", real(normalization="none"), "expected an object"),
    ("normalization", real(normalization={"scale": 2.0}),
     "unknown keys ['scale']"),
    ("normalization.mode", real(normalization={"mode": None}), "expected str"),
    ("normalization.mode", real(normalization={"mode": "zscore"}),
     "expected one of ('none', 'by_constant', 'by_max_total')"),
    ("normalization.constant", real(normalization={"constant": "1e3"}),
     "expected float"),
    ("normalization.constant", real(normalization={"constant": 0}),
     "must be > 0"),
    ("normalization.constant", real(normalization={"mode": "by_constant"}),
     "required for by_constant mode"),
    # a constant that no other mode reads
    ("normalization.constant", real(normalization={"constant": 1000.0}),
     "read only in by_constant mode"),
    ("normalization.constant",
     real(normalization={"mode": "none", "constant": 2.0}),
     "read only in by_constant mode"),
    ("config", real(model={"kind": "sir"}), "unknown keys ['model']"),
    ("config", real(data={}), "unknown keys ['data']"),
    ("config", real(real_dt=1.0), "unknown keys ['real_dt']"),
]


@pytest.mark.parametrize("path,doc,message",
                         [case[:3] for case in MALFORMED],
                         ids=[(case[3:] or case)[0] for case in MALFORMED])
def test_malformed_document_names_field(path, doc, message):
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(doc)
    assert str(err.value) == f"{path}: {message}"


# config_echo as results.json records it, for each shipped config
SHIPPED_ECHOES = {
    "real_sample.json": (
        '{"mode": "real", "seed": 0, "output_dir": "results/real_sample", '
        '"search": {"epochs": 100, "batch_size": 10, "pool_capacity": 10, "nu":'
        ' 0.2, "epsilon": 0.1, "controller_lr": 0.002, "templates": "type2", '
        '"optim": {"t1_iters": 150, "t2_iters": 150, "t3_iters": 100}}, '
        '"input_csv": "data/covid_qdr_sample.csv", "train_days": 85, "dt": 1.0, '
        '"normalization": {"mode": "by_max_total", "constant": null}}'),
    "synthetic_seir.json": (
        '{"mode": "synthetic", "seed": 0, "output_dir": "results/seir_full", '
        '"search": {"epochs": 100, "batch_size": 10, "pool_capacity": 10, "nu":'
        ' 0.2, "epsilon": 0.1, "controller_lr": 0.002, "templates": "type2", '
        '"optim": {"t1_iters": 150, "t2_iters": 150, "t3_iters": 100}}, '
        '"model": {"kind": "seir", "params": {}}, "data": {"n_trajectories": '
        '200, "steps": 250, "dt": 0.2, "train_fraction": 0.5, "normalize_init": '
        'true}}'),
    "synthetic_seird.json": (
        '{"mode": "synthetic", "seed": 0, "output_dir": "results/seird_full", '
        '"search": {"epochs": 100, "batch_size": 10, "pool_capacity": 10, "nu":'
        ' 0.2, "epsilon": 0.1, "controller_lr": 0.002, "templates": "type2", '
        '"optim": {"t1_iters": 150, "t2_iters": 150, "t3_iters": 100}}, '
        '"model": {"kind": "seird", "params": {}}, "data": {"n_trajectories": '
        '200, "steps": 250, "dt": 0.2, "train_fraction": 0.5, "normalize_init": '
        'true}}'),
    "synthetic_sir.json": (
        '{"mode": "synthetic", "seed": 0, "output_dir": "results/sir_full", '
        '"search": {"epochs": 100, "batch_size": 10, "pool_capacity": 10, "nu":'
        ' 0.2, "epsilon": 0.1, "controller_lr": 0.002, "templates": "type2", '
        '"optim": {"t1_iters": 150, "t2_iters": 150, "t3_iters": 100}}, '
        '"model": {"kind": "sir", "params": {}}, "data": {"n_trajectories": '
        '200, "steps": 250, "dt": 0.2, "train_fraction": 0.5, "normalize_init": '
        'true}}'),
    "synthetic_sir_desk.json": (
        '{"mode": "synthetic", "seed": 0, "output_dir": "results/sir_desk", '
        '"search": {"epochs": 100, "batch_size": 10, "pool_capacity": 10, "nu":'
        ' 0.2, "epsilon": 0.1, "controller_lr": 0.002, "templates": "type2", '
        '"optim": {"t1_iters": 150, "t2_iters": 150, "t3_iters": 100}}, '
        '"model": {"kind": "sir", "params": {}}, "data": {"n_trajectories": '
        '40, "steps": 250, "dt": 0.2, "train_fraction": 0.5, "normalize_init": '
        'true}}'),
}


def test_every_shipped_config_is_pinned():
    assert sorted(SHIPPED_ECHOES) == sorted(
        path.name for path in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SHIPPED_ECHOES))
def test_shipped_config_echo_pinned(name):
    cfg = load_run_config(CONFIG_DIR / name)
    assert json.dumps(cfg.to_dict()) == SHIPPED_ECHOES[name]


def test_echo_keeps_given_params_and_floats():
    cfg = run_config_from_dict({
        "mode": "synthetic",
        "model": {"kind": "SEIR", "params": {"gamma": 1, "beta": 0.5}},
        "data": {"dt": 1},
        "search": {"templates": ["Type1", "type2", "type2", "type1"],
                   "controller_lr": 1}})
    echo = cfg.to_dict()
    assert json.dumps(echo["model"]) == (
        '{"kind": "seir", "params": {"gamma": 1.0, "beta": 0.5}}')
    assert echo["data"]["dt"] == 1.0 and isinstance(echo["data"]["dt"], float)
    assert echo["search"]["templates"] == ["type1", "type2", "type2", "type1"]
    assert json.dumps(echo["search"]["controller_lr"]) == "1.0"
    real_cfg = run_config_from_dict({
        "mode": "real", "input_csv": "q.csv", "dt": 2,
        "normalization": {"mode": "by_constant", "constant": 1000}})
    tail = {k: v for k, v in real_cfg.to_dict().items()
            if k in ("input_csv", "train_days", "dt", "normalization")}
    assert json.dumps(tail) == (
        '{"input_csv": "q.csv", "train_days": 85, "dt": 2.0, '
        '"normalization": {"mode": "by_constant", "constant": 1000.0}}')


@pytest.mark.parametrize("params,message", [
    ({"beta": -1}, "model: rates must be nonnegative"),
    ({"n_pop": 0}, "model: n_pop must be positive"),
], ids=["beta", "n_pop"])
def test_model_rates_checked_at_load(params, message):
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(syn(model={"kind": "sir", "params": params}))
    assert str(err.value) == message
