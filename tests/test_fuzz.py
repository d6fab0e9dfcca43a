"""Property tests over what a user hands the command line: CSV text, config
documents with one key changed, and results documents with one value
changed. Every input ends in one of the CLI's exit codes (0 success, 2
config error, 3 data error, 4 numerical failure), never in a traceback, and
a forecast that succeeds writes only finite numbers. Deterministic tables
pin the non-finite numbers that random draws rarely reach."""

import copy
import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from symode.cli import main
from symode.config import run_config_from_dict

from test_pipeline_cli import tiny_real_doc, tiny_synthetic_doc

EXIT_CODES = {0, 2, 3, 4}
SERIES = Path(__file__).resolve().parents[1] / "data" / "covid_qdr_sample.csv"

# a search small enough that a fuzz example costs well under a second
FUZZ_SEARCH = {"epochs": 1, "batch_size": 2, "pool_capacity": 2,
               "optim": {"t1_iters": 5, "t2_iters": 5, "t3_iters": 2}}


def fuzz(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def paths(doc, prefix=()):
    """The path of every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, 0.5, -0.5, 1e-300, 1e300, -1e300,
                           float("nan"), float("inf"), float("-inf")])
OTHERS = st.sampled_from([None, True, False, "", "x", "type1", "type2", "sir",
                          "seird", "none", "by_constant", "by_max_total",
                          "real", "synthetic", [], {}, ["type2"], [1.0, 2.0],
                          {"x": 1}])
REPLACEMENTS = st.one_of(NUMBERS, OTHERS)
ACTIONS = st.sampled_from(["replace", "replace", "delete", "add"])


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def changed(doc, path, action, value, number):
    """``doc`` with the value at ``path`` replaced (a number by ``number``,
    anything else by ``value``) or deleted, or with an unknown key
    ``surprise`` added next to it."""
    doc = copy.deepcopy(doc)
    parent = value_at(doc, path[:-1])
    if action == "replace":
        parent[path[-1]] = number if is_number(parent[path[-1]]) else value
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["surprise"] = value
    return doc


def run_cli(*argv):
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES
    return code


def run_forecast(results, data, out, *flags):
    """``symode forecast`` into ``out``: its exit code, after checking that a
    forecast which succeeded wrote only finite numbers."""
    predictions = Path(out) / "predictions.csv"
    predictions.unlink(missing_ok=True)
    code = run_cli("forecast", "--results", results, "--data", data,
                   "--out", out, *flags)
    if code == 0:
        with open(predictions, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(cell))
                            for row in rows for cell in row)
    return code


# -- CSV text ---------------------------------------------------------------

NUMBER_CELLS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "400", "1e308", "-1e308",
                     "1e-320"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
BAD_CELLS = st.sampled_from(["", "nan", "inf", "-inf", "x", " 2 ",
                             "2020-02-30", "2020-01-01"])
NAMES = st.sampled_from(["Q", "D", "R", "S", "I", "", " Q ", "date", "step"])


@st.composite
def csv_texts(draw):
    """A series file that is valid in most of its cells: a ``date`` column
    of consecutive days, 1 to 4 value columns and up to 8 rows, with a bad
    cell, a bad header or a short row mixed in now and then."""
    header = ["date", *draw(st.lists(NAMES, min_size=1, max_size=4))]
    if draw(st.integers(0, 9)) == 0:
        header[0] = draw(st.sampled_from(["", "trajectory_id", "Date", "x"]))
    cells = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, BAD_CELLS)
    lines = [header]
    for k in range(draw(st.integers(0, 8))):
        row = [f"2020-01-{k + 1:02d}",
               *draw(st.lists(cells, min_size=len(header) - 1,
                              max_size=len(header) - 1))]
        if draw(st.integers(0, 19)) == 0:
            row = row[:-1]
        lines.append(row)
    return "\n".join(",".join(line) for line in lines) + "\n"


def constant_series(q, d, r):
    return "date,Q,D,R\n" + "".join(f"2020-01-0{k + 1},{q},{d},{r}\n"
                                    for k in range(5))


@fuzz(40)
@given(text=csv_texts())
@example(text=constant_series(0, 0, 0))          # scale 0
@example(text=constant_series(1e308, 1e308, 1))  # scale beyond float range
def test_csv_text_as_search_input(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text(text, encoding="utf-8")
        doc = tiny_real_doc(tmp / "data.csv", out=str(tmp / "run"))
        doc["train_days"] = 3
        doc["search"] = FUZZ_SEARCH
        (tmp / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        run_cli("search", "--config", tmp / "cfg.json")


@pytest.fixture(scope="module")
def real_results(tmp_path_factory):
    """The results document of a tiny real-mode search on the bundled
    series."""
    out = tmp_path_factory.mktemp("real")
    doc = tiny_real_doc(SERIES, out=str(out))
    doc["train_days"] = 85
    doc["search"] = FUZZ_SEARCH
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("search", "--config", cfg) == 0
    return json.loads((out / "results.json").read_text(encoding="utf-8"))


@fuzz(100)
@given(text=csv_texts())
def test_csv_text_as_forecast_data(real_results, text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "results.json").write_text(json.dumps(real_results),
                                          encoding="utf-8")
        (tmp / "data.csv").write_text(text, encoding="utf-8")
        for mode in ("autonomous", "teacher"):
            run_forecast(tmp / "results.json", tmp / "data.csv", tmp / "fc",
                         "--steps", 3, "--mode", mode)


# -- config documents -------------------------------------------------------

def full_config(doc):
    """``doc`` with the tiny search and every field the config echoes."""
    return run_config_from_dict(dict(doc, search=FUZZ_SEARCH)).to_dict()


CONFIGS = {"synthetic": full_config(tiny_synthetic_doc()),
           "real": full_config(tiny_real_doc(SERIES))}
CONFIG_PATHS = sorted({p for doc in CONFIGS.values() for p in paths(doc)})


def search_with(doc):
    """``symode search`` on the config ``doc``: its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # json.dumps writes the non-finite floats as NaN and Infinity,
        # which Python's JSON reader accepts
        (tmp / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        # one epoch, so that a deleted search section (100 default epochs)
        # stays cheap; the file's own epochs are still validated
        return run_cli("search", "--config", tmp / "cfg.json",
                       "--out", tmp / "run", "--epochs", 1)


@fuzz(100)
@given(mode=st.sampled_from(sorted(CONFIGS)),
       path=st.sampled_from(CONFIG_PATHS), action=ACTIONS,
       value=REPLACEMENTS, number=NUMBERS)
@example(mode="synthetic", path=("data", "dt"), action="replace", value=None,
         number=1e300)
@example(mode="real", path=("normalization", "constant"), action="replace",
         value=float("nan"), number=None)
def test_one_key_changed_in_a_config(mode, path, action, value, number):
    assume(path in set(paths(CONFIGS[mode])))
    search_with(changed(CONFIGS[mode], path, action, value, number))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NUMERIC_CONFIG_PATHS = [(mode, path) for mode in sorted(CONFIGS)
                        for path in paths(CONFIGS[mode])
                        if is_number(value_at(CONFIGS[mode], path))]


@pytest.mark.parametrize("number", NON_FINITE, ids=str)
@pytest.mark.parametrize("mode,path", NUMERIC_CONFIG_PATHS,
                         ids=[f"{m}-{'.'.join(p)}"
                              for m, p in NUMERIC_CONFIG_PATHS])
def test_non_finite_config_number_is_a_config_error(mode, path, number):
    assert search_with(changed(CONFIGS[mode], path, "replace", None,
                               number)) == 2


# -- results documents ------------------------------------------------------

@fuzz(100)
@given(data=st.data(), action=ACTIONS, value=REPLACEMENTS, number=NUMBERS)
def test_one_value_changed_in_a_results_document(real_results, data, action,
                                                 value, number):
    path = data.draw(st.sampled_from(list(paths(real_results))))
    doc = changed(real_results, path, action, value, number)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "results.json").write_text(json.dumps(doc), encoding="utf-8")
        for mode in ("autonomous", "teacher"):
            run_forecast(tmp / "results.json", SERIES, tmp / "fc",
                         "--steps", 3, "--mode", mode)
        run_cli("report", "--results", tmp / "results.json",
                "--out", tmp / "rep")


# the numbers ``forecast`` reads: the scale, the time step and one
# coefficient of each component
FORECAST_NUMBERS = [("scale_record", "scale"), ("config_echo", "dt"),
                    *[("components", k, "coefficients", 0) for k in range(3)]]


@pytest.mark.parametrize("number", [*NON_FINITE, 0.0, -1.0, 1e300], ids=str)
@pytest.mark.parametrize("path", FORECAST_NUMBERS,
                         ids=[".".join(map(str, p)) for p in FORECAST_NUMBERS])
def test_number_read_by_forecast(real_results, path, number):
    doc = changed(real_results, path, "replace", None, number)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "results.json").write_text(json.dumps(doc), encoding="utf-8")
        for mode in ("autonomous", "teacher"):
            assert run_forecast(tmp / "results.json", SERIES, tmp / "fc",
                                "--steps", 15, "--mode", mode) in {0, 3, 4}
