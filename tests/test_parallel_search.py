"""The component searches run in forked child processes: the same bits as
in-process searches, the children's errors raised in the parent, and no
child left behind."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from symode import pipeline
from symode.cli import main
from symode.config import run_config_from_dict
from symode.dataio import load_csv, normalize_series
from symode.datasets import TrajectoryDataset
from symode.epidemic import train_test_split
from symode.errors import NonNumericCellError, NumericalError
from symode.search import search_component

from test_pipeline_cli import tiny_real_doc, tiny_synthetic_doc

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="the searches run in-process where the platform cannot fork")

ROOT = Path(__file__).resolve().parent.parent


def assert_no_child_left():
    """The test process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def synthetic_training_data():
    cfg = run_config_from_dict(tiny_synthetic_doc())
    train, _ = train_test_split(pipeline.generate_synthetic(cfg),
                                cfg.data.train_fraction)
    return train, cfg


def real_training_data(data_dir):
    doc = tiny_real_doc(data_dir / "covid_qdr_sample.csv")
    doc["train_days"] = 85
    cfg = run_config_from_dict(doc)
    raw = load_csv(cfg.input_csv, dt=cfg.real_dt)
    normalized, _ = normalize_series(raw, cfg.normalization.mode,
                                     cfg.normalization.constant)
    window = normalized.trajectories[:, : cfg.train_days]
    return TrajectoryDataset(window, cfg.real_dt, raw.var_names), cfg


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("source", ["synthetic", "real"])
def test_forked_searches_match_in_process_bit_for_bit(source, data_dir):
    train, cfg = (synthetic_training_data() if source == "synthetic"
                  else real_training_data(data_dir))
    if source == "real":
        # a C-ordered view of the normalized series, as run_real fits it
        assert train.trajectories.flags.c_contiguous
        assert not train.trajectories.flags.owndata
    forked = pipeline._search_all_components(train, cfg)
    in_process = [search_component(train, i, cfg.search,
                                   rng=pipeline._component_rng(cfg, i))
                  for i in range(train.dim)]
    assert len(forked) == len(in_process) == 3
    for got, want in zip(forked, in_process):
        assert bits(got.history) == bits(want.history)
        got_pool, want_pool = got.pool.records(), want.pool.records()
        assert len(got_pool) == len(want_pool)
        for a, b in zip([got.best, *got_pool], [want.best, *want_pool]):
            assert (a.sequence, a.template) == (b.sequence, b.template)
            assert bits(a.params) == bits(b.params)
            assert bits([a.loss, a.score]) == bits([b.loss, b.score])


def fake_cfg(templates="type2"):
    return SimpleNamespace(seed=0, search=SimpleNamespace(templates=templates))


def test_each_component_searches_in_its_own_process(monkeypatch):
    monkeypatch.setattr(pipeline, "search_component",
                        lambda data, i, cfg, rng: (i, os.getpid()))
    results = pipeline._search_all_components(SimpleNamespace(dim=3),
                                              fake_cfg())
    assert [i for i, _ in results] == [0, 1, 2]
    pids = {pid for _, pid in results}
    assert len(pids) == 3 and os.getpid() not in pids
    assert_no_child_left()


SEARCH_SCRIPT = """\
import sys
from symode.cli import main
sys.stdout.write("written before the search\\n")
status = main(["search", "--config", sys.argv[1], "--epochs", "1",
               "--out", sys.argv[2]])
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
sys.exit(status)
"""


@pytest.fixture(scope="module")
def desk_search(tmp_path_factory):
    """A 3-component desk SIR ``symode search`` in a fresh interpreter whose
    standard output is a pipe, so that text written before the search is
    still in its buffer at the fork: its standard output."""
    out = tmp_path_factory.mktemp("desk")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", SEARCH_SCRIPT,
         str(ROOT / "configs" / "synthetic_sir_desk.json"), str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    # at one epoch the forecast may diverge (exit 4); the search has run
    assert done.returncode in (0, 4), done.stderr
    assert (out / "results.json").is_file()
    return done.stdout


def test_search_forks_without_importing_multiprocessing(desk_search):
    assert desk_search.splitlines()[-1] == "[]"


def test_text_buffered_before_the_fork_is_written_once(desk_search):
    assert desk_search.count("written before the search") == 1
    assert desk_search.startswith("written before the search\n")


def test_one_component_or_no_fork_searches_in_process(monkeypatch):
    monkeypatch.setattr(pipeline, "search_component",
                        lambda data, i, cfg, rng: os.getpid())
    assert pipeline._search_all_components(SimpleNamespace(dim=1),
                                           fake_cfg()) == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    assert pipeline._search_all_components(SimpleNamespace(dim=2),
                                           fake_cfg()) == [os.getpid()] * 2


def failing_in(component, error):
    """A search_component that raises ``error`` for one component and runs
    the real search for the others."""
    def search(data, i, cfg, rng):
        if i == component:
            raise error
        return search_component(data, i, cfg, rng)
    return search


def test_child_numerical_error_exits_4_with_its_message(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(pipeline, "search_component", failing_in(
        1, NumericalError("component 1: no sequence produced a finite loss")))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_synthetic_doc(out=str(tmp_path / "o"))),
                        encoding="utf-8")
    assert main(["search", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: component 1: no sequence produced a finite loss\n")
    assert not (tmp_path / "o").exists()
    assert_no_child_left()


def test_child_errors_keep_type_message_fields_and_traceback(monkeypatch):
    train, cfg = synthetic_training_data()
    # an error whose __init__ takes other arguments than the args it stores
    cell = NonNumericCellError("x.csv", 3, "Q", "abc")
    monkeypatch.setattr(pipeline, "search_component", failing_in(2, cell))
    with pytest.raises(NonNumericCellError) as caught:
        pipeline._search_all_components(train, cfg)
    assert str(caught.value) == str(cell)
    assert (caught.value.row, caught.value.column) == (3, "Q")

    monkeypatch.setattr(pipeline, "search_component",
                        failing_in(0, KeyError("planted")))
    with pytest.raises(KeyError) as caught:
        pipeline._search_all_components(train, cfg)
    assert caught.value.args == ("planted",)
    cause = str(caught.value.__cause__)
    assert "Traceback (most recent call last)" in cause
    assert "KeyError: 'planted'" in cause
    assert_no_child_left()


@pytest.fixture
def deadline():
    """Fail a test that is still running after 30 s, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still waiting after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_child_that_dies_is_reported_promptly_and_nothing_is_left(monkeypatch,
                                                                  deadline):
    # the last child: its pipe's write end is the one still open in the
    # parent unless the parent closes it. The others finish, since a
    # failure is raised only once no lower component can fail.
    def search(data, i, cfg, rng):
        if i == 2:
            os._exit(1)
        return i

    monkeypatch.setattr(pipeline, "search_component", search)
    start = time.monotonic()
    with pytest.raises(NumericalError, match=r"^component 2: .*exit code 1"):
        pipeline._search_all_components(SimpleNamespace(dim=3), fake_cfg())
    assert time.monotonic() - start < 20
    assert_no_child_left()


def test_lowest_failing_component_is_raised_whatever_the_arrival_order(
        monkeypatch, deadline):
    # component 2 fails first and component 0 last
    def search(data, i, cfg, rng):
        time.sleep(0.4 * (2 - i))
        raise NumericalError(f"component {i}: planted")

    monkeypatch.setattr(pipeline, "search_component", search)
    with pytest.raises(NumericalError, match=r"^component 0: planted$"):
        pipeline._search_all_components(SimpleNamespace(dim=3), fake_cfg())
    assert_no_child_left()


def test_failure_waits_for_lower_components_only(monkeypatch, deadline):
    # component 1 fails at once; component 0 may still fail, so its result
    # is awaited, but component 2 can no longer change the outcome
    def search(data, i, cfg, rng):
        if i == 1:
            raise NumericalError("component 1: planted")
        time.sleep(0.5 if i == 0 else 60)
        return i

    monkeypatch.setattr(pipeline, "search_component", search)
    start = time.monotonic()
    with pytest.raises(NumericalError, match=r"^component 1: planted$"):
        pipeline._search_all_components(SimpleNamespace(dim=3), fake_cfg())
    assert 0.5 <= time.monotonic() - start < 20
    assert_no_child_left()


def test_results_larger_than_a_pipe_come_back_in_order(monkeypatch, deadline):
    # each result overfills its pipe, so a child blocks in send until the
    # parent reads it; component 2 finishes first and waits the longest
    def search(data, i, cfg, rng):
        time.sleep(0.3 * (2 - i))
        return np.full(200_000, float(i))      # 1.6 MB

    monkeypatch.setattr(pipeline, "search_component", search)
    results = pipeline._search_all_components(SimpleNamespace(dim=3),
                                              fake_cfg())
    assert [r.nbytes for r in results] == [1_600_000] * 3
    for i, result in enumerate(results):
        assert np.array_equal(result, np.full(200_000, float(i)))
    assert_no_child_left()


def test_child_whose_reply_cannot_be_pickled_is_a_numerical_error(
        monkeypatch, deadline):
    monkeypatch.setattr(pipeline, "search_component",
                        lambda data, i, cfg, rng: (lambda: i) if i == 1 else i)
    with pytest.raises(NumericalError, match=r"^component 1: .*exit code 1"):
        pipeline._search_all_components(SimpleNamespace(dim=3), fake_cfg())
    assert_no_child_left()
