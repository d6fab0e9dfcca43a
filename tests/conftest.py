import hypothesis
import numpy as np
import pytest

import symode as sm

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


def random_sequence(template, rng):
    tags = []
    for node in template.nodes:
        vocab = sm.UNARY_TAGS if node.kind == "unary" else sm.BINARY_TAGS
        tags.append(vocab[rng.integers(len(vocab))])
    return tuple(tags)
