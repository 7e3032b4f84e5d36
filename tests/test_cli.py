"""End-to-end command-line behavior: runs, exit codes, artifacts, resume."""

import io
import json
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import pathembed.cli
import pathembed.training
from pathembed.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from pathembed.config import DATASETS, ConfigError, RunConfig, from_mapping, load_config
from pathembed.datasets import load_citation_archive, load_prepared

DATA = Path(__file__).parents[1] / "data"


def write_yaml(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh)


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


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
        assert cfg.split.val_fraction == 0.05
        assert cfg.sweep is None

    def test_round_trip_is_lossless(self, tmp_path):
        first = from_mapping(toy_config())
        path = tmp_path / "echo.yaml"
        write_yaml(path, first.to_dict())
        second = load_config(path)
        assert second.to_dict() == first.to_dict()
        write_yaml(tmp_path / "echo2.yaml", second.to_dict())
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
        assert from_mapping(good).sweep.trials == 10
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

    def test_edgelist_dataset_trains_end_to_end(self, tmp_path):
        payload = toy_config(epochs=2)
        payload["dataset"] = {"kind": "edgelist", "edges": str(DATA / "toy" / "edges.txt"),
                              "labels": str(DATA / "toy" / "labels.tsv")}
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, payload)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["dataset"] == {"kind": "edgelist", "num_nodes": 30, "num_edges": 52,
                                   "num_classes": 2}
        assert from_mapping(meta["config"]) == load_config(cfg_path)

    def test_rerun_without_labels_removes_the_last_runs_labels(self, tmp_path, capsys):
        out = tmp_path / "run"
        labeled = toy_config(epochs=2)
        labeled["dataset"] = {"kind": "synthetic", "num_nodes": 30, "num_edges": 60,
                              "num_classes": 2}
        unlabeled = toy_config(epochs=2)
        unlabeled["dataset"] = {"kind": "edgelist", "edges": str(DATA / "toy" / "edges.txt")}
        for payload in (labeled, unlabeled):
            cfg_path = tmp_path / "cfg.yaml"
            write_yaml(cfg_path, payload)
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "run_meta.json").read_text())["dataset"]["num_classes"] == 0
        assert not (out / "labels.tsv").exists()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--split", str(out / "split")]) == EXIT_OK
        assert "micro_f1" not in json.loads(capsys.readouterr().out)

    def test_epochs_run_counts_epochs_not_steps(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config(batch_pairs=8, epochs=2))  # several steps per epoch
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "run_meta.json").read_text())["epochs_run"] == 2
        assert "epochs: 2 " in capsys.readouterr().out

    def test_blow_up_without_validation_names_test_scores_and_writes_no_run(self, tmp_path,
                                                                            capsys):
        # one step at a huge rate: loss and phi stay finite, the test scores do not
        payload = toy_config(backend="2n", epochs=1, batch_pairs=4096, learning_rate=1e300)
        payload["split"]["val_fraction"] = 0.0
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, payload)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUNTIME
        assert "runtime error: non-finite test scores after step 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no checkpoint, history, split or labels

    def test_invalid_backend_exits_2_with_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, toy_config(backend="bogus"))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert "backend" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "embedding_dim", "8"),
        ("train", "epochs", 2.5),
        ("train", "learning_rate", "0.01"),
        ("train", "backend", ["vi"]),
        ("train", "balance", None),
        ("train", "max_pairs", 1.5),
        ("train", "patience", True),
        ("split", "seed", 1.5),
        ("split", "seed", "abc"),
        ("split", "val_fraction", "0.1"),
        ("sweep", "trials", 1.5),
        ("sweep", "trials", True),
        ("sweep", "trials", "3"),
        ("sweep", "param", 3),
        ("dataset", "num_nodes", "60"),
        ("dataset", "seed", 1.5),
        ("dataset", "path", 3),
        # in range for the type, out of range for the synthetic generator
        ("dataset", "homophily", 1.5),
        ("dataset", "homophily", -0.5),
        ("dataset", "num_classes", 0),
        ("dataset", "num_classes", 50),
        ("dataset", "num_nodes", 0),
        ("dataset", "num_edges", -5),
        ("dataset", "num_edges", 60 * 59 // 2 + 1),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, section, key, value):
        payload = toy_config()
        if section == "sweep":
            payload["sweep"] = {"param": "embedding_dim", "values": [4]}
        if section == "dataset":  # the kind that has the option, at a small size
            kind = next(k for k, cls in DATASETS.items() if key in {f.name for f in fields(cls)})
            payload["dataset"] = {"kind": kind}
            if kind == "synthetic":
                payload["dataset"].update(num_nodes=60, num_edges=110)
        payload[section][key] = value
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, payload)
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        assert (key if section == "train" else f"{section}.{key}") in capsys.readouterr().err
        assert not (tmp_path / "r" / "checkpoint.npz").exists()

    @pytest.mark.parametrize("section", ["train", "split", "dataset"])
    def test_negative_seed_exits_2_naming_its_key(self, tmp_path, capsys, section):
        payload = toy_config()
        if section == "dataset":
            payload["dataset"] = {"kind": "synthetic", "num_nodes": 60, "num_edges": 110}
        payload[section]["seed"] = -1
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, payload)
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        key = "seed" if section == "train" else f"{section}.seed"
        assert f"{key} must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_option_exits_2_naming_it(self, tmp_path, capsys, command, seed):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([4], trials=1))
        out = tmp_path / ("r" if command == "train" else "grid.csv")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(cfg_path), "--out", str(out), "--seed", seed])
        assert exit_info.value.code == EXIT_CONFIG
        assert f"--seed: must be a non-negative integer, got '{seed}'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_bytes(b"train:\n  backend: \xff\n")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config file {cfg_path} is not valid YAML" in err and "utf-8" in err
        assert not (tmp_path / "r").exists()

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


def as_version_2(arrays):
    """Make checkpoint arrays version 2, whose config names four settings version 3 removed."""
    config = json.loads(bytes(arrays["config_json"]).decode())
    config.update(mc_samples=1, single_mode="bounded", symmetric_kl=False, grad_clip=5.0)
    arrays.update(version=np.asarray(2), config_json=np.frombuffer(
        json.dumps(config, sort_keys=True).encode(), np.uint8))


def as_version_3(arrays):
    """Make checkpoint arrays version 3, which also held Adam's moments and step count."""
    arrays.update({f"adam_{m}_{key.removeprefix('param_')}": np.zeros_like(arrays[key])
                   for key in list(arrays) if key == "phi" or key.startswith("param_")
                   for m in "mv"})
    arrays.update(version=np.asarray(3), step=np.asarray(12))


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
        (lambda arrays: arrays.pop("param_enc1_w"), "missing ['param_enc1_w']"),
        (lambda arrays: arrays.update(phi=arrays["phi"][:, :4]),
         "phi has shape (16, 4), its config implies (16, 8)"),
        (lambda arrays: arrays.update(version=np.asarray(1)), "version 1"),
        (as_version_2, "version 2"),
        (lambda arrays: arrays.pop("phi"), "missing ['phi']"),
        (lambda arrays: arrays.pop("version"), "missing ['version']"),
        (lambda arrays: arrays.pop("config_json"), "missing ['config_json']"),
        (lambda arrays: arrays.update(config_json=np.frombuffer(b"{backend", np.uint8)),
         "config_json is not JSON"),
        (lambda arrays: arrays.update(config_json=np.frombuffer(b"8", np.uint8)),
         "config_json is not a mapping"),
        (lambda arrays: arrays.update(phi=arrays["phi"][:, 0]),
         "phi has shape (16,), its config implies (16, 8)"),
        (lambda arrays: arrays["phi"].__setitem__((2, 3), np.nan),
         "phi must hold finite numbers"),
        (lambda arrays: arrays.update(version=np.array([4])),
         "version must be an integer scalar, got int64 of shape (1,)"),
        (lambda arrays: arrays.update(version=np.asarray(4.0)),
         "version must be an integer scalar, got float64 of shape ()"),
        (lambda arrays: arrays.update(param_dec2_w=arrays["param_dec2_w"][:, :3]),
         "param_dec2_w has shape (16, 3), its config implies (16, 16)"),
        (as_version_3, "version 3"),
        (lambda arrays: arrays.update(param_enc1_b=np.array([object()] * 16)),
         "param_enc1_b cannot be read"),
        (lambda arrays: arrays.update(version=np.array(4, dtype=object)),
         "version cannot be read"),
        (lambda arrays: arrays.update(phi=arrays["phi"].astype(object)),
         "phi cannot be read"),
    ], ids=["missing-group", "narrow-phi", "version-1", "version-2", "missing-phi",
            "missing-version", "missing-config", "config-not-json", "config-not-mapping",
            "flat-phi", "nan-phi", "version-vector", "version-float", "bad-chain",
            "version-3", "object-param", "object-version", "object-phi"])
    def test_malformed_or_old_checkpoint_exits_2(self, toy_run, tmp_path, capsys,
                                                  breakage, message):
        with np.load(toy_run / "checkpoint.npz") as data:
            arrays = {name: data[name] for name in data.files}
        breakage(arrays)
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays)
        code = main(["eval", "--checkpoint", str(broken), "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "broken.npz" in err

    @pytest.mark.parametrize("content", [
        b"not an archive\n", b"PK\x03\x04cut short", npy_bytes(np.zeros(3)),
    ], ids=["text", "truncated-zip", "npy-array"])
    def test_checkpoint_that_is_not_an_npz_archive_exits_2(self, toy_run, tmp_path, capsys,
                                                             content):
        broken = tmp_path / "broken.npz"
        broken.write_bytes(content)
        code = main(["eval", "--checkpoint", str(broken), "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        assert f"checkpoint {broken} is not an .npz archive" in capsys.readouterr().err

    @pytest.mark.parametrize("name,line,message", [
        ("test_pos.txt", "0 99", "node id outside"),
        ("test_neg.txt", "0 -3", "node id outside"),
        ("test_pos.txt", "0 1 2", "two integer node ids"),
    ], ids=["id-past-the-end", "negative-id", "three-fields"])
    def test_malformed_split_file_exits_2(self, toy_run, tmp_path, capsys, name, line, message):
        split = toy_run / "split"
        path = split / name
        lines = path.read_text().splitlines() + [line]
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(split)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name}, line {len(lines)}" in err
        assert message in err

    @pytest.mark.parametrize("key", ["num_nodes", "seed", "val_fraction", "test_fraction"])
    def test_split_metadata_missing_key_exits_2(self, toy_run, capsys, key):
        path = toy_run / "split" / "metadata.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        assert f"metadata.json: missing key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text[:text.index(",")], "not valid JSON"),
        (lambda text: text.replace('"num_nodes": 16', '"num_nodes": "16"'),
         "key 'num_nodes' must be a positive integer, got '16'"),
        (lambda text: text.replace('"num_nodes": 16', '"num_nodes": 0'),
         "key 'num_nodes' must be a positive integer, got 0"),
        (lambda text: text.replace('"seed": ', '"seed": 1.5, "was": '),
         "key 'seed' must be an integer, got 1.5"),
        (lambda text: text.replace('"test_fraction": ', '"test_fraction": null, "was": '),
         "key 'test_fraction' must be a number, got None"),
    ], ids=["truncated", "num-nodes-string", "num-nodes-zero", "seed-float", "fraction-null"])
    def test_malformed_split_metadata_exits_2(self, toy_run, capsys, edit, message):
        path = toy_run / "split" / "metadata.json"
        text = path.read_text()
        assert '"num_nodes": 16' in text
        path.write_text(edit(text))
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "metadata.json: " in err
        assert message in err

    @pytest.mark.parametrize("line,message", [
        ("7", "expected node and label"),
        ("0\tleft\tright", "expected node and label"),
        ("99\tleft", "unknown node id '99'"),
    ], ids=["one-field", "three-fields", "unknown-node"])
    def test_malformed_run_labels_exit_2(self, toy_run, capsys, line, message):
        path = toy_run / "labels.tsv"
        lines = path.read_text().splitlines() + [line]
        path.write_text("\n".join(lines) + "\n")
        code = main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                     "--split", str(toy_run / "split")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"labels.tsv: line {len(lines)}" in err
        assert message in err

    def test_explicit_labels_must_exist_but_run_labels_are_optional(self, toy_run, tmp_path,
                                                                    capsys):
        def run_eval(*extra):
            return main(["eval", "--checkpoint", str(toy_run / "checkpoint.npz"),
                         "--split", str(toy_run / "split"), *extra])

        labels = tmp_path / "labels.tsv"
        labels.write_bytes((toy_run / "labels.tsv").read_bytes())
        (toy_run / "labels.tsv").unlink()
        assert run_eval() == EXIT_OK
        assert "classification" not in capsys.readouterr().err
        # the toy graph's labels are read, then too few to classify
        assert run_eval("--labels", str(labels)) == EXIT_OK
        assert "skipping classification" in capsys.readouterr().err
        missing = tmp_path / "nowhere" / "labels.tsv"
        out = tmp_path / "metrics.json"
        assert run_eval("--labels", str(missing), "--out", str(out)) == EXIT_CONFIG
        assert f"--labels {missing} is not a file" in capsys.readouterr().err
        assert not out.exists()

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

    def test_citation_archive_with_uncited_paper_trains(self, tmp_path):
        # raw ids are sparse, and paper 555 has no .cites row: it must keep
        # its dense id and its label through prepare, load and train
        raw = tmp_path / "raw"
        raw.mkdir()
        papers = {1: "ai", 5: "ai", 12: "ai", 40: "ai", 555: "db", 41: "db", 100: "db",
                  250: "db", 777: "db"}
        (raw / "mini.content").write_text(
            "".join(f"{pid}\t0\t1\t{label}\n" for pid, label in papers.items()))
        (raw / "mini.cites").write_text(
            "1 5\n5 12\n12 1\n12 40\n40 1\n40 5\n41 100\n100 250\n250 41\n"
            "250 777\n777 100\n41 777\n40 41\n")
        out = tmp_path / "prep"
        assert main(["prepare", str(raw), "--out", str(out)]) == EXIT_OK
        dataset = load_prepared(out)
        graph, labels, class_names, _ = load_citation_archive(raw)
        assert dataset.graph.num_nodes == len(papers) == graph.num_nodes
        np.testing.assert_array_equal(dataset.graph.edges, graph.edges)
        np.testing.assert_array_equal(dataset.labels, labels)
        assert dataset.class_names == class_names
        assert dataset.graph.adjacency[7] == [] and class_names[labels[7]] == "db"
        cfg_path = tmp_path / "cfg.yaml"
        cfg = toy_config(epochs=2)
        cfg["dataset"] = {"kind": "prepared", "path": str(out)}
        write_yaml(cfg_path, cfg)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == EXIT_OK
        assert json.loads((run / "split" / "metadata.json").read_text())["num_nodes"] == 9

    def test_plain_layout_keeps_labeled_node_without_edges(self, tmp_path):
        # node 3 is labeled but has no edge; it keeps its id and its label,
        # numbered together with the edge list's ids
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "edges.txt").write_text("0 1\n1 2\n2 0\n10 11\n")
        (raw / "labels.tsv").write_text("0\ta\n1\ta\n2\tb\n3\tb\n11\ta\n")
        out = tmp_path / "prep"
        assert main(["prepare", str(raw), "--out", str(out)]) == EXIT_OK
        dataset = load_prepared(out)
        assert dataset.graph.num_nodes == 6
        np.testing.assert_array_equal(dataset.graph.edges, [[0, 1], [0, 2], [1, 2], [4, 5]])
        np.testing.assert_array_equal(dataset.labels, [0, 0, 1, 1, -1, 0])
        assert dataset.class_names == ["a", "b"]
        assert dataset.graph.adjacency[3] == []

    @pytest.mark.parametrize("manifest, why", [
        ('["edges.txt"]', "must map file names to sha256 strings"),
        ('{"edges.txt": 7}', "must map file names to sha256 strings"),
        ('{"edges.txt": ', "is not JSON"),
        (b"\xff", "is not JSON"),
    ])
    def test_malformed_checksums_manifest_exits_2(self, tmp_path, capsys, manifest, why):
        raw = self.make_raw(tmp_path)
        if isinstance(manifest, bytes):
            (raw / "checksums.json").write_bytes(manifest)
        else:
            (raw / "checksums.json").write_text(manifest)
        code = main(["prepare", str(raw), "--out", str(tmp_path / "prep")])
        assert code == EXIT_CONFIG
        assert f"{raw / 'checksums.json'} {why}" in capsys.readouterr().err
        assert not (tmp_path / "prep").exists()

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

    def test_unknown_sweep_param_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([4], trials=1, param="bogus"))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "sweep.param" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_sweep_param_exits_2_naming_the_trial_seed_rule(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([1, 2], trials=3, param="seed"))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "sweep.param cannot be seed: each trial sets its own seed" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("param,values,message", [
        ("embedding_dim", [4, 0, -1], "sweep.values: 0 is refused: embedding_dim must be >= 1"),
        ("backend", ["2n", "cosine"], "sweep.values: 'cosine' is refused: backend must be one"),
        ("balance", [0.5, "high"], "sweep.values: 'high' is refused: balance must be float"),
        ("train_fraction", [0.5, 0.9, 1.5],
         "sweep.values: 0.9 is refused: train_fraction must lie in (0, 1 - split.val_fraction)"),
        ("train_fraction", [0.5, True], "sweep.values: True is refused: train_fraction must be"),
    ], ids=["embedding-dim", "backend", "balance-string", "train-fraction-range",
            "train-fraction-bool"])
    def test_bad_sweep_value_exits_2_naming_it(self, tmp_path, capsys, param, values,
                                               message):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config(values, trials=1, param=param))
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_every_good_sweep_value_loads(self):
        payload = sweep_config([0.05, 0.5, 0.899], trials=1, param="train_fraction")
        assert from_mapping(payload).sweep.values == [0.05, 0.5, 0.899]
        payload = sweep_config([None, 1, 7], trials=1, param="max_pairs")
        assert from_mapping(payload).sweep.values == [None, 1, 7]

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

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([2, 4], trials=1))
        out = tmp_path / "grid.csv"
        real_train = pathembed.training.train
        trained = []

        def train(graph, cfg, *args, **kwargs):
            trained.append(cfg.embedding_dim)
            if trained == [2, 4]:
                raise KeyboardInterrupt
            return real_train(graph, cfg, *args, **kwargs)

        monkeypatch.setattr(pathembed.training, "train", train)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        first = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in first] == ["2"]
        trained.clear()
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert trained == [4]
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["2", "4"]
        assert rows[0] == first[0]

    def test_resume_without_failures_removes_the_last_errors_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        out = tmp_path / "grid.csv"
        errors = tmp_path / "grid.errors.json"
        payload = sweep_config([0.01, 1e300], trials=1, param="learning_rate")
        write_yaml(cfg_path, payload)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert [e["value"] for e in json.loads(errors.read_text())["errors"]] == [1e300]
        payload["sweep"]["values"] = [0.01]
        write_yaml(cfg_path, payload)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert not errors.exists()

    @pytest.mark.parametrize("row", ["embedding_dim,4,0,0.5", "embedding_dim,4,zero,0.5,0.5,nan"],
                             ids=["truncated", "non-numeric-trial"])
    def test_malformed_row_in_existing_file_exits_2(self, tmp_path, capsys, row):
        cfg_path = tmp_path / "cfg.yaml"
        write_yaml(cfg_path, sweep_config([4], trials=1))
        out = tmp_path / "grid.csv"
        out.write_text(f"param,value,trial,auc,ap,micro_f1\n{row}\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "line 2: malformed row" in capsys.readouterr().err

    def test_split_seed_exits_2_naming_the_trial_seed_rule(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        payload = sweep_config([4], trials=1)
        payload["split"]["seed"] = 5
        write_yaml(cfg_path, payload)
        out = tmp_path / "grid.csv"
        for extra in ([], ["--seed", "5"]):
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         *extra]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "split.seed is not used by sweep" in err
            assert "train.seed + 9973*t" in err
        assert not out.exists()
        # train splits at split.seed, so it takes the same file
        assert main(["train", "--config", str(cfg_path), "--out",
                     str(tmp_path / "run")]) == EXIT_OK

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


# -- path arguments ------------------------------------------------------------


@pytest.mark.parametrize("case", ["eval --checkpoint <dir>", "eval --split <file>",
                                  "eval --out <dir>", "eval --config <dir>",
                                  "train --out <file>", "train --config <dir>",
                                  "prepare --out <file>", "prepare <file>",
                                  "sweep --out <dir>", "sweep --config <dir>"])
def test_path_argument_of_the_wrong_kind_exits_2(case, tmp_path, request, capsys):
    # a directory where a file belongs, or a file where a directory belongs
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cfg_path = tmp_path / "sweep.yaml"
    write_yaml(cfg_path, sweep_config([4], trials=1))
    raw = TestPrepare().make_raw(tmp_path)
    run = request.getfixturevalue("toy_run") if case.startswith("eval") else None
    capsys.readouterr()
    argv, message = {
        "eval --checkpoint <dir>": lambda: (["eval", "--checkpoint", str(run), "--split",
                                             str(run / "split")],
                                            f"--checkpoint {run} is not a file"),
        "eval --split <file>": lambda: (["eval", "--checkpoint", str(run / "checkpoint.npz"),
                                         "--split", str(a_file)],
                                        f"--split {a_file} is not a directory"),
        "eval --out <dir>": lambda: (["eval", "--checkpoint", str(run / "checkpoint.npz"),
                                      "--split", str(run / "split"), "--out", str(tmp_path)],
                                     f"--out {tmp_path} is not a file"),
        "eval --config <dir>": lambda: (["eval", "--checkpoint", str(run / "checkpoint.npz"),
                                         "--split", str(run / "split"), "--config",
                                         str(tmp_path)], f"--config {tmp_path} is not a file"),
        "train --out <file>": lambda: (["train", "--config", str(cfg_path), "--out",
                                        str(a_file)], f"--out {a_file} is not a directory"),
        "train --config <dir>": lambda: (["train", "--config", str(tmp_path), "--out",
                                          str(tmp_path / "run")],
                                         f"--config {tmp_path} is not a file"),
        "prepare --out <file>": lambda: (["prepare", str(raw), "--out", str(a_file)],
                                         f"--out {a_file} is not a directory"),
        "prepare <file>": lambda: (["prepare", str(a_file), "--out", str(tmp_path / "out")],
                                   f"raw_dir {a_file} is not a directory"),
        "sweep --out <dir>": lambda: (["sweep", "--config", str(cfg_path), "--out",
                                       str(tmp_path)], f"--out {tmp_path} is not a file"),
        "sweep --config <dir>": lambda: (["sweep", "--config", str(tmp_path), "--out",
                                          str(tmp_path / "grid.csv")],
                                         f"--config {tmp_path} is not a file"),
    }[case]()
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
