"""Layout rules: the oracle stands apart from the package, the public surface is
explicit, and the README documents every training setting."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pathembed
from pathembed.training import TrainConfig

TESTS = Path(__file__).parent
PACKAGE = Path(pathembed.__file__).parent

PUBLIC = [
    "ClassifierReport",
    "ConfigError",
    "DatasetError",
    "EdgeSplit",
    "EmbeddingMatrix",
    "Graph",
    "GraphError",
    "LabeledDataset",
    "ModelState",
    "MultiPathSet",
    "Path",
    "SinglePathSet",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "auc_score",
    "average_precision_score",
    "build_multipath_pool",
    "build_singlepath_pool",
    "classify_nodes",
    "enumerate_simple_paths",
    "evaluate_split",
    "init_state",
    "load_checkpoint",
    "load_dataset",
    "load_edge_list",
    "load_prepared",
    "load_split",
    "prepare_dataset",
    "save_checkpoint",
    "save_split",
    "score_pair",
    "score_pairs",
    "split_edges",
    "sweep",
    "synthetic_citation_graph",
    "toy_graph",
    "train",
    "write_sweep_csv",
]


def test_oracle_imports_only_numpy():
    # standard-library language helpers aside, the oracle shares no code
    # with the package it checks
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the oracle"
            imported.add(node.module.split(".")[0])
    assert imported - {"__future__", "dataclasses"} == {"numpy"}


def test_no_backend_name_branches_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        assert "backend ==" not in path.read_text(encoding="utf-8"), path.name


def test_public_surface_is_explicit():
    assert pathembed.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(pathembed, name), name


def test_readme_train_block_names_every_train_config_field():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"^train:\n((?:  .*\n)+)", section, re.MULTILINE)
    assert block, "README's configuration section has no train: block"
    documented = re.findall(r"^  (\w+):", block.group(1), re.MULTILINE)
    assert sorted(documented) == sorted(f.name for f in fields(TrainConfig))
