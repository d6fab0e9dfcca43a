import json

import hypothesis
import numpy as np
import pytest

import symode as sm
from symode.config import run_config_from_dict
from symode.dataio import load_csv, normalize_series
from symode.pipeline import generate_synthetic

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")

DATA_DIR_NAME = "data"


@pytest.fixture(scope="session")
def data_dir(request):
    return request.config.rootpath / DATA_DIR_NAME


@pytest.fixture(scope="session")
def sir_dataset():
    """Shared small SIR dataset (simplex-normalized initial conditions)."""
    rng = np.random.default_rng(42)
    params = sm.benchmark_params("sir")
    return sm.generate_trajectories("sir", params, 12, 80, 0.2, rng)


@pytest.fixture(scope="session")
def sir_dataset_offsimplex():
    """SIR data with raw uniform initial conditions, so affine fits are
    fully identifiable."""
    rng = np.random.default_rng(42)
    params = sm.benchmark_params("sir")
    return sm.generate_trajectories("sir", params, 12, 80, 0.2, rng,
                                    normalize_init=False)


@pytest.fixture(scope="session")
def desk_sir_train(request):
    """The training half of the desk SIR protocol's data (M = 5,000)."""
    path = request.config.rootpath / "configs" / "synthetic_sir_desk.json"
    cfg = run_config_from_dict(json.loads(path.read_text(encoding="utf-8")))
    train, _ = sm.train_test_split(generate_synthetic(cfg),
                                   cfg.data.train_fraction)
    return train


@pytest.fixture(scope="session")
def qdr_train(data_dir):
    """The real-sample protocol's training window (85 days, M = 84)."""
    raw = load_csv(data_dir / "covid_qdr_sample.csv")
    normalized, _ = normalize_series(raw, "by_max_total")
    return sm.TrajectoryDataset([normalized.trajectories[0][:85]], 1.0,
                                raw.var_names)


def random_sequence(template, rng):
    tags = []
    for node in template.nodes:
        vocab = sm.UNARY_TAGS if node.kind == "unary" else sm.BINARY_TAGS
        tags.append(vocab[rng.integers(len(vocab))])
    return tuple(tags)
