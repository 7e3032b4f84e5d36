"""The benchmark harness in perfbench/ still fits the package: its self-test
passes, and each pool is built once, under the module names the harness wraps
(`cli`'s for the `pathembed` commands, `training`'s for a sweep's `train()`)."""

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import pathembed.cli
import pathembed.training
from pathembed import TrainConfig, toy_graph, train
from pathembed.cli import EXIT_OK, main

ROOT = Path(__file__).parents[1]
POOLS = ("build_multipath_pool", "build_singlepath_pool")


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture()
def pool_calls(monkeypatch):
    """Calls of each pool builder, by the module it was looked up in."""
    calls = {}
    for module in (pathembed.cli, pathembed.training):
        for name in POOLS:
            key = f"{module.__name__.split('.')[-1]}.{name}"
            calls[key] = 0

            def spy(*args, _fn=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return calls


def test_the_train_command_builds_each_pool_once_under_the_cli_names(tmp_path, pool_calls):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset": {"kind": "toy"},
        "split": {"val_fraction": 0.1, "test_fraction": 0.1},
        "train": {"backend": "2n", "embedding_dim": 4, "epochs": 1, "max_len": 3, "seed": 0},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert pool_calls == {"cli.build_multipath_pool": 1, "cli.build_singlepath_pool": 1,
                          "training.build_multipath_pool": 0,
                          "training.build_singlepath_pool": 0}


def test_a_pool_less_train_builds_each_pool_once_under_the_training_names(pool_calls):
    cfg = TrainConfig(backend="2n", embedding_dim=4, epochs=1, max_len=3, seed=0)
    train(toy_graph().graph, cfg)
    assert pool_calls == {"cli.build_multipath_pool": 0, "cli.build_singlepath_pool": 0,
                          "training.build_multipath_pool": 1,
                          "training.build_singlepath_pool": 1}
