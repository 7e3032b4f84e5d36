"""Run configuration files: the one schema of a run, and its parser.

A run is described by one YAML file with the sections `dataset`, `split`,
`train` and, for the sweep command, `sweep`. Each section is a dataclass:
its field annotations are its types, its field defaults its defaults, and
a field without a default is a required key. `dataset` names a `kind`, a
key of DATASETS, next to that kind's options; the kind's `load()` builds
the dataset. `parse_section` refuses unknown and missing keys, then runs
the section's `validate`: the type of every field, then the section's
ranges. The resolved configuration, defaults included, is echoed into run
metadata, so a run directory is self-describing, and a dumped
`cfg.to_dict()` reloads to the same configuration.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path as FilePath

from pathembed.datasets import (load_prepared, synthetic_citation_graph,
                                synthetic_option_error, toy_graph)
from pathembed.graph import LabeledDataset, load_dataset
from pathembed.relations import BACKENDS


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


def check_type(key: str, value, declared: str) -> None:
    """ConfigError naming `key` unless `value` fits a declared type such as "int | None".

    An int refuses bools and floats, a float takes an int, and None fits "| None".
    """
    fits = {"None": value is None, "str": isinstance(value, str),
            "list": isinstance(value, list),
            "int": isinstance(value, numbers.Integral) and not isinstance(value, bool),
            "float": isinstance(value, numbers.Real) and not isinstance(value, bool)}
    if not any(fits[kind] for kind in declared.split(" | ")):
        raise ConfigError(f"{key} must be {declared.replace(' | None', ' or null')}, "
                          f"got {value!r}")


class Section:
    """A config section; errors name a field as `prefix` + its name."""

    prefix = ""

    def validate(self) -> None:
        for f in fields(self):  # the annotations are strings, as "int | None"
            check_type(self.prefix + f.name, getattr(self, f.name), f.type)


def parse_section(cls, data: dict):
    """A validated `cls` built from `data`.

    ConfigError names a key that is not a field of `cls`, and a field
    without a default that `data` leaves out or empty.
    """
    _check_keys(cls.prefix, data, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.default is MISSING and not data.get(f.name):
            raise ConfigError(f"{cls.prefix}{f.name} is required")
    section = cls(**data)
    section.validate()
    return section


def _check_keys(prefix: str, data: dict, allowed) -> None:
    unknown = sorted(prefix + str(k) for k in set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown option(s) {unknown}; expected a subset of {sorted(allowed)}")


@dataclass
class TrainConfig(Section):
    """One run's options. None changes the objective's form: the bounded order term
    exp(R - r'), a one-way KL for vi's paths and one ELBO draw per edge per step."""

    backend: str = "vi"
    embedding_dim: int = 128
    hidden_dim: int = 128
    balance: float = 0.5              # multi-path weight; 1 - balance on order + contrast
    learning_rate: float = 0.001
    epochs: int = 200
    batch_pairs: int = 512
    max_len: int = 10
    max_paths: int = 10
    max_pairs: int | None = None      # default 10 * E at build time
    patience: int = 20
    path_budget: int | None = 2000    # DFS descents per multi-path pair
    seed: int = 0

    def validate(self) -> None:
        super().validate()
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {tuple(BACKENDS)}, got {self.backend!r}")
        if not 0.0 <= self.balance <= 1.0:
            raise ConfigError("balance must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("embedding_dim", "hidden_dim", "epochs", "batch_pairs",
                     "max_len", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.max_paths < 2:
            raise ConfigError("max_paths must be >= 2: a multi-path set needs two paths")
        for name in ("max_pairs", "path_budget"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1 when set")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class SplitConfig(Section):
    prefix = "split."

    val_fraction: float = 0.05
    test_fraction: float = 0.10
    seed: int | None = None           # None: train.seed

    def validate(self) -> None:
        super().validate()
        for name in ("val_fraction", "test_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"split.{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ConfigError("split fractions must leave some training edges")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("split.seed must be >= 0 when set")


@dataclass
class SweepConfig(Section):
    prefix = "sweep."

    param: str                        # a TrainConfig field, or train_fraction
    values: list
    trials: int = 10

    def validate(self) -> None:
        super().validate()
        if self.trials < 1:
            raise ConfigError("sweep.trials must be >= 1")
        params = [f.name for f in fields(TrainConfig)] + ["train_fraction"]
        if self.param not in params:
            raise ConfigError(f"sweep.param must be one of {params}, got {self.param!r}")
        if self.param == "seed":
            raise ConfigError("sweep.param cannot be seed: each trial sets its own seed "
                              "from train.seed, so the grid would repeat every trial")


class DatasetSection(Section):
    """The options of one dataset kind; `load()` builds the dataset they describe."""

    prefix = "dataset."


@dataclass
class ToyDataset(DatasetSection):
    kind = "toy"

    def load(self) -> LabeledDataset:
        return toy_graph()


@dataclass
class SyntheticDataset(DatasetSection):
    kind = "synthetic"

    seed: int = 0
    num_nodes: int = 2708
    num_edges: int = 5429
    num_classes: int = 7
    homophily: float = 0.78

    def validate(self) -> None:
        super().validate()
        if self.seed < 0:
            raise ConfigError("dataset.seed must be >= 0")
        if problem := synthetic_option_error(self.num_nodes, self.num_edges,
                                             self.num_classes, self.homophily):
            raise ConfigError(f"dataset.{problem}")

    def load(self) -> LabeledDataset:
        graph, labels = synthetic_citation_graph(**asdict(self))
        return LabeledDataset(graph=graph, labels=labels)


@dataclass
class PreparedDataset(DatasetSection):
    kind = "prepared"

    path: str                         # a directory made by `pathembed prepare`

    def load(self) -> LabeledDataset:
        return load_prepared(self.path)


@dataclass
class EdgelistDataset(DatasetSection):
    kind = "edgelist"

    edges: str
    labels: str | None = None

    def load(self) -> LabeledDataset:
        return load_dataset(self.edges, self.labels)[0]


DATASETS = {cls.kind: cls for cls in (ToyDataset, SyntheticDataset, PreparedDataset,
                                      EdgelistDataset)}


@dataclass
class RunConfig:
    """A fully resolved run description (all defaults applied)."""

    dataset: DatasetSection = field(default_factory=SyntheticDataset)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sweep: SweepConfig | None = None

    def to_dict(self) -> dict:
        """Echo the full configuration, defaults included."""
        out = {"dataset": {"kind": self.dataset.kind, **asdict(self.dataset)},
               "split": asdict(self.split), "train": asdict(self.train)}
        if self.sweep is not None:
            out["sweep"] = asdict(self.sweep)
        return out

    @property
    def split_seed(self) -> int:
        return self.train.seed if self.split.seed is None else self.split.seed


def from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from a nested mapping, applying defaults."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys("", data, [f.name for f in fields(RunConfig)])
    for section, value in data.items():
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
    dataset = dict(data.get("dataset") or {})
    kind = dataset.pop("kind", "synthetic")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"dataset.kind must be one of {tuple(DATASETS)}, got {kind!r}")
    cfg = RunConfig(
        dataset=parse_section(DATASETS[kind], dataset),
        split=parse_section(SplitConfig, data.get("split") or {}),
        train=parse_section(TrainConfig, data.get("train") or {}),
        sweep=None if data.get("sweep") is None else parse_section(SweepConfig, data["sweep"]),
    )
    # every grid point must take each value: a train key's value must pass the
    # train checks, and a train fraction must leave edges for validation
    for value in cfg.sweep.values if cfg.sweep is not None else ():
        try:
            if cfg.sweep.param == "train_fraction":
                check_type("train_fraction", value, "float")
                if not 0.0 < value < 1.0 - cfg.split.val_fraction:
                    raise ConfigError("train_fraction must lie in (0, 1 - split.val_fraction)")
            else:
                replace(cfg.train, **{cfg.sweep.param: value}).validate()
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: {value!r} is refused: {exc}") from None
    return cfg


def load_config(path: str | FilePath) -> RunConfig:
    import yaml  # on first use: `import pathembed` does not load it

    path = FilePath(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:  # YAML is Unicode text
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return from_mapping(data or {})
