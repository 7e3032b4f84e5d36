"""Layout rules: the oracle stands apart from the package, the public surface is
explicit, the package holds no name and no parameter default that only tests
use, config.py sits below the modules that read configs, and the README
documents every training, split and sweep setting."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import pathembed
from pathembed.config import SplitConfig, SweepConfig, TrainConfig

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
    "load_prepared",
    "load_split",
    "prepare_dataset",
    "save_checkpoint",
    "save_split",
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


def test_every_package_name_has_a_production_caller():
    # production is the package's modules and the benchmark harness; the
    # re-exports in __init__.py and the tests do not count as callers
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((TESTS.parent / "perfbench").glob("*.py"))
    defined, methods, named, attributes = [], [], set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                # a method is reached through an attribute, or named inside
                # its own class (a dispatch table); a local variable that
                # shares its name elsewhere does not call it
                inside = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                methods += [(f"{path.stem}.{node.name}.{m.name}", m.name, inside)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name.rsplit(".", 1)[-1])
    unused = [d for d in defined if d.rsplit(".", 1)[1] not in named | attributes]
    unused += [m for m, name, inside in methods if name not in attributes | inside]
    assert unused == []


def test_every_defaulted_parameter_is_passed_by_a_production_call():
    # a default that nothing in the package or the benchmark harness
    # overrides is a setting only tests use. Calls are matched by name; a
    # call to a class calls its __init__, and a call with *args or **kwargs
    # passes every parameter those could fill
    package = sorted(PACKAGE.glob("*.py"))
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in package + sorted((TESTS.parent / "perfbench").glob("*.py"))]
    calls: dict[str, list[tuple[int, bool, set, bool]]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (len(node.args), starred, keywords - {None}, None in keywords))
    unpassed = []
    for module, tree in trees[:len(package)]:
        functions = [(node.name, node, False) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            functions += [(cls.name if m.name == "__init__" else m.name, m,
                           "staticmethod" not in {getattr(d, "id", "") for d in m.decorator_list})
                          for m in cls.body if isinstance(m, ast.FunctionDef)]
        for called, fn, bound in functions:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            for param in defaulted:
                at = positional.index(param) - bound if param in positional else None
                if not any(param in keywords or splat or (at is not None and (at < count or star))
                           for count, star, keywords, splat in calls.get(called, [])):
                    unpassed.append(f"{module}.{fn.name}({param}=)")
    assert unpassed == []


def readme_config_keys(name: str) -> list[str]:
    """The keys that the `name:` block of the README's configuration section lists."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(rf"^{name}:.*\n((?:  .*\n)+)", section, re.MULTILINE)
    assert block, f"README's configuration section has no {name}: block"
    return sorted(re.findall(r"^  (\w+):", block.group(1), re.MULTILINE))


def test_readme_train_block_names_every_train_config_field():
    assert readme_config_keys("train") == sorted(f.name for f in fields(TrainConfig))


@pytest.mark.parametrize("name,defaults", [("split", fields(SplitConfig)),
                                           ("sweep", fields(SweepConfig))])
def test_readme_split_and_sweep_blocks_name_every_key(name, defaults):
    assert readme_config_keys(name) == sorted(f.name for f in defaults)


def test_config_sits_below_training_and_no_function_imports_config_error():
    # config.py owns the run-config schema, so it imports nothing that builds
    # on it, and every module reaches ConfigError through a top-level import
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported & {"pathembed.training", "pathembed.evaluation", "pathembed.cli"} == set()
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom)
                         and "ConfigError" in {alias.name for alias in node.names}]
    assert late == []


def test_no_function_imports_a_package_module_but_the_sweep_point():
    # package modules import each other at the top, so a cycle shows on import;
    # evaluation._sweep_point imports training, which imports evaluation
    late = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = ["pathembed" if node.level else node.module]
                else:
                    continue
                late += [f"{path.stem}.{fn.name} imports {m}" for m in modules
                         if m.split(".")[0] == "pathembed"]
    assert late == ["evaluation._sweep_point imports pathembed.training"]
