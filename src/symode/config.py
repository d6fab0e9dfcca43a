"""Run configuration: a strict JSON schema with field-path error messages.

The dataclasses are the schema: a field's annotation, default and
``__post_init__`` range checks govern its JSON key, which is the field name
or the ``key`` in its metadata. Metadata ``mode`` limits a key to one run
mode; ``fields_of`` makes a dict hold a subset of another dataclass's
fields. Unknown keys are rejected everywhere, and every reported problem
names the offending path (e.g. ``search.optim.t1_iters``), so a malformed
file fails before any computation starts.

A ``__post_init__`` message starting ``<field>:`` is reported at that
field's path (``search.epochs: must be >= 1``), any other at the object's.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .dataio import NORMALIZATION_MODES, read_text
from .epidemic import MODEL_RATES, EpiParams, ModelKind, benchmark_params
from .errors import ConfigError
from .search import SearchConfig

_SYNTHETIC = {"mode": "synthetic"}
_REAL = {"mode": "real"}


@dataclass
class ModelConfig:
    """Ground-truth model of synthetic data. ``params`` overrides some of
    the model's benchmark rate constants; its keys are the EpiParams fields
    that the model reads (``MODEL_RATES``)."""

    kind: str = "sir"
    params: dict = field(default_factory=dict, metadata={"fields_of": EpiParams})

    def __post_init__(self):
        self.kind = self.kind.lower()
        if self.kind not in [m.value for m in ModelKind]:
            raise ValueError(f"kind: unknown model {self.kind!r}")
        self.epi_params()  # range-checks the overridden rates
        unread = sorted(set(self.params) - set(MODEL_RATES[self.kind]))
        if unread:
            raise ValueError(f"params: {self.kind} does not read {unread}")

    def epi_params(self):
        """The model's benchmark rate constants with ``params`` applied."""
        return replace(benchmark_params(self.kind), **self.params)


@dataclass
class DataConfig:
    """Synthetic data generation protocol."""

    n_trajectories: int = 200
    steps: int = 250
    dt: float = 0.2
    train_fraction: float = 0.5
    normalize_init: bool = True

    def __post_init__(self):
        if self.n_trajectories < 2:
            raise ValueError("n_trajectories: must be >= 2")
        if self.steps < 1:
            raise ValueError("steps: must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt: must be > 0")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction: must lie in (0, 1)")


@dataclass
class NormalizationConfig:
    mode: str = "by_max_total"
    constant: Optional[float] = None

    def __post_init__(self):
        if self.mode not in NORMALIZATION_MODES:
            raise ValueError(f"mode: expected one of {NORMALIZATION_MODES}")
        if self.constant is not None and self.constant <= 0:
            raise ValueError("constant: must be > 0")
        if self.mode == "by_constant" and self.constant is None:
            raise ValueError("constant: required for by_constant mode")
        if self.mode != "by_constant" and self.constant is not None:
            raise ValueError("constant: read only in by_constant mode")


@dataclass
class RunConfig:
    """One run. Fields are in the order ``to_dict`` echoes them."""

    mode: str = "synthetic"
    seed: int = 0
    output_dir: str = "results"
    search: SearchConfig = field(default_factory=SearchConfig)
    model: ModelConfig = field(default_factory=ModelConfig, metadata=_SYNTHETIC)
    data: DataConfig = field(default_factory=DataConfig, metadata=_SYNTHETIC)
    input_csv: str = field(default=None, metadata=_REAL)
    train_days: int = field(default=85, metadata=_REAL)
    real_dt: float = field(default=1.0, metadata={**_REAL, "key": "dt"})
    normalization: NormalizationConfig = field(
        default_factory=NormalizationConfig, metadata=_REAL)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        if self.mode == "real" and not self.input_csv:
            raise ValueError("input_csv: required in real mode")
        if self.train_days < 2:
            raise ValueError("train_days: must be >= 2")
        if self.real_dt <= 0:
            raise ValueError("dt: must be > 0")

    def to_dict(self):
        """The document that ``run_config_from_dict`` reads back into this
        config, as echoed into results.json."""
        return _echo(self, self.mode)


def _file_fields(cls, mode):
    """(field, JSON key) of each field of ``cls`` that a ``mode`` file sets."""
    for f in fields(cls):
        if f.metadata.get("mode", mode) == mode:
            yield f, f.metadata.get("key", f.name)


def _kwargs(cls, mapping, path, mode=None):
    """Type-checked constructor arguments of ``cls`` for the keys that
    ``mapping`` sets, in the mapping's order."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = {key: f for f, key in _file_fields(cls, mode)}
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    return {known[key].name: _value(hints[known[key].name], known[key],
                                    mapping[key],
                                    f"{path}.{key}" if path else key, mode)
            for key in mapping}


def _value(kind, f, value, path, mode):
    """``value`` checked against field ``f`` and its annotation ``kind``."""
    if is_dataclass(kind):
        return _build(kind, value, path, mode)
    if "fields_of" in f.metadata:
        return _kwargs(f.metadata["fields_of"], value, path)
    if typing.get_origin(kind) is typing.Union:  # Optional[...]
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{path}: expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number")
    return value


def _build(cls, mapping, path, mode=None):
    kwargs = _kwargs(cls, mapping, path, mode)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        # a "<field>: ..." message extends the path; a message about the
        # whole object follows it
        sep = "." if message.partition(":")[0].isidentifier() else ": "
        raise ConfigError(f"{path}{sep}{message}" if path else message) from None


def _echo(obj, mode):
    doc = {}
    for f, key in _file_fields(type(obj), mode):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _echo(value, mode)
        elif isinstance(value, (dict, list)):
            value = value.copy()
        doc[key] = value
    return doc


def run_config_from_dict(doc):
    """Validate a raw JSON document and build a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected an object")
    if doc.get("mode") not in ("synthetic", "real"):
        raise ConfigError("mode: expected 'synthetic' or 'real'")
    return _build(RunConfig, doc, "", doc["mode"])


def load_run_config(path):
    path = Path(path)
    text = read_text(path, ConfigError, "config file")
    try:
        doc = json.loads(text)
    # a syntax error, or an int literal of more digits than int() converts
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return run_config_from_dict(doc)
