"""End-to-end command-line behavior: runs, exit codes, artifacts, resume."""

import json
import time

import numpy as np
import pytest
import yaml

import pathembed.cli
from pathembed.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from pathembed.config import RunConfig, from_mapping, load_config, save_config
from pathembed.training import ConfigError


def write_yaml(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh)


def toy_config(**train_overrides):
    train = {
        "backend": "vi",
        "embedding_dim": 8,
        "hidden_dim": 16,
        "epochs": 12,
        "max_len": 4,
        "batch_pairs": 64,
        "seed": 3,
    }
    train.update(train_overrides)
    return {
        "dataset": {"kind": "toy"},
        "split": {"val_fraction": 0.1, "test_fraction": 0.1},
        "train": train,
    }


@pytest.fixture()
def toy_run(tmp_path):
    """One completed toy training run shared by the eval tests."""
    cfg_path = tmp_path / "cfg.yaml"
    write_yaml(cfg_path, toy_config())
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    return out


# -- config files ------------------------------------------------------------


class TestConfig:
    def test_defaults_fill_missing_sections(self, tmp_path):
        path = tmp_path / "min.yaml"
        write_yaml(path, {"dataset": {"kind": "toy"}})
        cfg = load_config(path)
        assert cfg.train.balance == 0.5
        assert cfg.train.backend == "vi"
        assert cfg.split["val_fraction"] == 0.05
        assert cfg.sweep is None

    def test_round_trip_is_lossless(self, tmp_path):
        first = from_mapping(toy_config())
        path = tmp_path / "echo.yaml"
        save_config(first, path)
        second = load_config(path)
        assert second.to_dict() == first.to_dict()
        save_config(second, tmp_path / "echo2.yaml")
        assert (tmp_path / "echo2.yaml").read_bytes() == path.read_bytes()

    def test_unknown_keys_rejected(self):
        for broken in (
            {"optimizer": {}},
            {"dataset": {"kind": "toy", "zoom": 1}},
            {"train": {"learning_rte": 0.1}},
            {"split": {"val_fraction": 0.5, "test_fraction": 0.6}},
        ):
            with pytest.raises(ConfigError):
                from_mapping(broken)

    def test_dataset_kind_requirements(self):
        with pytest.raises(ConfigError):
            from_mapping({"dataset": {"kind": "prepared"}})
        with pytest.raises(ConfigError):
            from_mapping({"dataset": {"kind": "edgelist"}})
        with pytest.raises(ConfigError):
            from_mapping({"dataset": {"kind": "karate"}})

    def test_sweep_section_validation(self):
        good = {"sweep": {"param": "balance", "values": [0.2, 0.8]}}
        assert from_mapping(good).sweep["trials"] == 10
        with pytest.raises(ConfigError):
            from_mapping({"sweep": {"param": "balance", "values": []}})
        with pytest.raises(ConfigError):
            from_mapping({"sweep": {"values": [1]}})


# -- train -------------------------------------------------------------------


class TestTrain:
    def test_toy_run_completes_quickly_with_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config())
        out = tmp_path / "run"
        start = time.time()
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert time.time() - start < 10.0
        for name in ("checkpoint.npz", "history.csv", "metrics.json",
                      "run_meta.json", "labels.tsv", "split"):
            assert (out / name).exists()
        assert not (out / ".lock").exists()

    def test_run_meta_echoes_defaults_and_environment(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        payload = toy_config()
        del payload["train"]["seed"]
        payload["train"].pop("balance", None)  # λ left unset on purpose
        write_yaml(cfg_path, payload)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config"]["train"]["balance"] == 0.5
        assert meta["config"]["split"]["val_fraction"] == 0.1
        assert meta["seed"] == 0
        assert meta["pools"]["multipath_sets"] > 0
        assert meta["pools"]["singlepath_entries"] > 0
        assert meta["train_graph"]["components"] >= 1
        assert meta["wall_time_s"] >= 0
        assert 0.0 <= meta["best_val_auc"] <= 1.0
        assert isinstance(meta["build"], str) and meta["build"]

    def test_epochs_run_counts_epochs_not_steps(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config(batch_pairs=8, epochs=2))  # several steps per epoch
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "run_meta.json").read_text())["epochs_run"] == 2
        assert "epochs: 2 " in capsys.readouterr().out

    def test_invalid_backend_exits_2_with_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config(backend="bogus"))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "backend" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG

    def test_locked_run_directory_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config())
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("12345\n")
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "locked" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config())
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "11"]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["split_seed"] == 11


# -- eval --------------------------------------------------------------------


class TestEval:
    def test_metrics_json_schema(self, toy_run, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(toy_run / "split"), "--out", str(out)])
        assert code == EXIT_OK
        metrics = json.loads(out.read_text())
        assert {"test_auc", "test_ap", "val_auc", "val_ap"} <= set(metrics)
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    def test_re_eval_is_byte_identical(self, toy_run, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                         "--split", str(toy_run / "split"), "--out", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_checkpoint_config_mismatch_exits_2(self, toy_run, tmp_path, capsys):
        other = tmp_path / "other.yaml"
        write_yaml(other, toy_config(backend="2n"))
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(toy_run / "split"), "--config", str(other)])
        assert code == EXIT_CONFIG
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("breakage,message", [
        (lambda arrays: arrays.pop("param_enc1_w"), "'enc1'"),
        (lambda arrays: arrays.update(phi=arrays["phi"][:, :4]), "phi has 4 columns"),
        (lambda arrays: arrays.update(version=np.asarray(1)), "version 1"),
    ], ids=["missing-group", "narrow-phi", "version-1"])
    def test_malformed_or_old_checkpoint_exits_2(self, toy_run, tmp_path, capsys,
                                                  breakage, message):
        with np.load(toy_run / "checkpoint.npz") as data:
            arrays = {name: data[name] for name in data.files}
        breakage(arrays)
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        code = main(["eval", "--checkpoint", str(broken), "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_checkpoint_split_mismatch_exits_2(self, toy_run, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg = toy_config()
        cfg["dataset"] = {"kind": "synthetic", "num_nodes": 60, "num_edges": 110,
                          "num_classes": 3}
        cfg["train"]["epochs"] = 2
        write_yaml(cfg_path, cfg)
        out = tmp_path / "other_run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(out / "split")])
        assert code == EXIT_CONFIG
        assert "mismatch" in capsys.readouterr().err


# -- prepare -----------------------------------------------------------------


class TestPrepare:
    def make_raw(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "edges.txt").write_text("0 1\n1 2\n2 0\n2 3\n")
        (raw / "labels.tsv").write_text("0\ta\n1\ta\n2\tb\n3\tb\n")
        return raw

    def test_reports_stats(self, tmp_path, capsys):
        raw = self.make_raw(tmp_path)
        out = tmp_path / "prep"
        assert main(["prepare", str(raw), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "nodes:  4" in printed
        assert "edges:  4" in printed
        assert "labels: 2" in printed
        meta = json.loads((out / "meta.json").read_text())
        assert meta["num_nodes"] == 4
        assert meta["num_edges"] == 4

    def test_idempotent_byte_identical(self, tmp_path):
        raw = self.make_raw(tmp_path)
        out = tmp_path / "prep"
        assert main(["prepare", str(raw), "--out", str(out)]) == EXIT_OK
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["prepare", str(raw), "--out", str(out)]) == EXIT_OK
        assert snapshot == {p.name: p.read_bytes() for p in out.iterdir()}

    def test_unknown_layout_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "notes.txt").write_text("hello\n")
        code = main(["prepare", str(raw), "--out", str(tmp_path / "prep")])
        assert code == EXIT_CONFIG
        assert "edges" in capsys.readouterr().err


# -- sweep -------------------------------------------------------------------


def sweep_config(values, trials, param="embedding_dim"):
    cfg = toy_config(backend="2n", embedding_dim=4, epochs=4)
    cfg["sweep"] = {"param": param, "values": values, "trials": trials}
    return cfg


class TestSweep:
    def test_row_count_matches_grid(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([2, 4, 8], trials=2))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,value,trial,auc,ap,micro_f1"
        assert len(lines) - 1 == 3 * 2

    def test_single_point_grid_one_row_per_trial(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([4], trials=3))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        assert [r.split(",")[2] for r in rows] == ["0", "1", "2"]

    def test_resume_adds_only_missing_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([2, 4], trials=2))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        reference = out.read_bytes()
        lines = out.read_text().strip().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n")  # keep header + first row
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == reference

    def test_missing_sweep_section_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config())
        code = main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "grid.csv")])
        assert code == EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err

    def test_param_mismatch_with_existing_file_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([0.2], trials=1, param="balance"))
        out = tmp_path / "grid.csv"
        out.write_text("param,value,trial,auc,ap,micro_f1\n"
                       "embedding_dim,4,0,0.5,0.5,nan\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG

    def test_changed_grid_with_existing_file_exits_2_before_training(self, tmp_path,
                                                                     monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([4, 8], trials=1))
        out = tmp_path / "grid.csv"
        out.write_text("param,value,trial,auc,ap,micro_f1\n"
                       "embedding_dim,2,0,0.5,0.5,nan\n")
        before = out.read_bytes()
        calls = []
        monkeypatch.setattr(pathembed.cli, "sweep", lambda *a, **k: calls.append(a) or ([], []))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "embedding_dim=2" in capsys.readouterr().err
        assert calls == []
        assert out.read_bytes() == before
