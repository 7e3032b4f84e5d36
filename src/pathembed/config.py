"""Run configuration files.

A run is described by one YAML file with nested sections. Every field has
a default; the fully resolved configuration (defaults included) is echoed
into run metadata so a run directory is self-describing. A dumped
`cfg.to_dict()` reloads to the same configuration.

Sections:

  dataset:
    kind: toy | synthetic | prepared | edgelist
    (per-kind options, see DATASET_DEFAULTS and DATASET_TYPES)
  split:
    val_fraction / test_fraction / seed
  train:
    any field of training.TrainConfig
  sweep:                    # optional, required by the sweep command
    param: embedding_dim | balance | learning_rate | ... | train_fraction
    values: [...]
    trials: 10
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import yaml

from pathembed.training import ConfigError, TrainConfig, check_type

DATASET_KINDS = ("toy", "synthetic", "prepared", "edgelist")

DATASET_DEFAULTS: dict[str, dict] = {
    "toy": {},
    "synthetic": {
        "seed": 0,
        "num_nodes": 2708,
        "num_edges": 5429,
        "num_classes": 7,
        "homophily": 0.78,
    },
    "prepared": {"path": None},
    "edgelist": {"edges": None, "labels": None},
}
DATASET_TYPES: dict[str, dict[str, str]] = {
    "toy": {},
    "synthetic": {"seed": "int", "num_nodes": "int", "num_edges": "int",
                  "num_classes": "int", "homophily": "float"},
    "prepared": {"path": "str"},
    "edgelist": {"edges": "str", "labels": "str | None"},
}

SPLIT_DEFAULTS = {"val_fraction": 0.05, "test_fraction": 0.10, "seed": None}
SPLIT_TYPES = {"val_fraction": "float", "test_fraction": "float", "seed": "int | None"}

SWEEP_DEFAULTS = {"param": None, "values": None, "trials": 10}
SWEEP_TYPES = {"param": "str", "trials": "int"}

_SECTIONS = ("dataset", "split", "train", "sweep")


@dataclass
class RunConfig:
    """A fully resolved run description (all defaults applied)."""

    dataset: dict = field(default_factory=lambda: _with_defaults("synthetic", {}))
    split: dict = field(default_factory=lambda: dict(SPLIT_DEFAULTS))
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: dict | None = None

    def to_dict(self) -> dict:
        """Echo the full configuration, defaults included."""
        out = {
            "dataset": copy.deepcopy(self.dataset),
            "split": dict(self.split),
            "train": self.train.to_dict(),
        }
        if self.sweep is not None:
            out["sweep"] = copy.deepcopy(self.sweep)
        return out

    @property
    def split_seed(self) -> int:
        seed = self.split.get("seed")
        return self.train.seed if seed is None else int(seed)


def _with_defaults(kind: str, options: dict) -> dict:
    merged = {"kind": kind}
    merged.update(DATASET_DEFAULTS[kind])
    merged.update(options)
    return merged


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {section} option(s): {sorted(unknown)}; "
            f"expected a subset of {sorted(allowed)}"
        )


def _parse_dataset(data: dict) -> dict:
    kind = data.get("kind", "synthetic")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {kind!r}")
    options = {k: v for k, v in data.items() if k != "kind"}
    _check_keys(f"dataset({kind})", options, DATASET_DEFAULTS[kind])
    merged = _with_defaults(kind, options)
    if kind == "prepared" and not merged["path"]:
        raise ConfigError("dataset.path is required for kind: prepared")
    if kind == "edgelist" and not merged["edges"]:
        raise ConfigError("dataset.edges is required for kind: edgelist")
    for key, declared in DATASET_TYPES[kind].items():
        check_type(f"dataset.{key}", merged[key], declared)
    return merged


def _parse_split(data: dict) -> dict:
    _check_keys("split", data, SPLIT_DEFAULTS)
    merged = dict(SPLIT_DEFAULTS)
    merged.update(data)
    for key, declared in SPLIT_TYPES.items():
        check_type(f"split.{key}", merged[key], declared)
    val, test = merged["val_fraction"], merged["test_fraction"]
    for name, frac in (("val_fraction", val), ("test_fraction", test)):
        if not 0.0 <= frac < 1.0:
            raise ConfigError(f"split.{name} must lie in [0, 1), got {frac}")
    if val + test >= 1.0:
        raise ConfigError("split fractions must leave some training edges")
    return merged


def _parse_sweep(data: dict | None) -> dict | None:
    if data is None:
        return None
    _check_keys("sweep", data, SWEEP_DEFAULTS)
    merged = dict(SWEEP_DEFAULTS)
    merged.update(data)
    if not merged["param"]:
        raise ConfigError("sweep.param is required")
    for key, declared in SWEEP_TYPES.items():
        check_type(f"sweep.{key}", merged[key], declared)
    values = merged["values"]
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values must be a non-empty list")
    if merged["trials"] < 1:
        raise ConfigError("sweep.trials must be >= 1")
    merged["values"] = list(values)
    return merged


def from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from a nested mapping, applying defaults."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys("top-level", data, _SECTIONS)
    for section in _SECTIONS:
        value = data.get(section)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
    return RunConfig(
        dataset=_parse_dataset(data.get("dataset") or {}),
        split=_parse_split(data.get("split") or {}),
        train=TrainConfig.from_dict(data.get("train") or {}),
        sweep=_parse_sweep(data.get("sweep")),
    )


def load_config(path: str | FilePath) -> RunConfig:
    path = FilePath(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return from_mapping(data or {})

