"""Batch command-line driver: prepare | train | eval | sweep.

All commands are config-file driven and non-interactive. A training run
owns its output directory (guarded by a lockfile) and leaves behind
everything needed to reproduce it: the resolved config, the seed, the
edge split, the checkpoint, the per-step loss history, and final metrics.

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path as FilePath

from pathembed.config import ConfigError, RunConfig, load_config
from pathembed.datasets import DatasetError, prepare_dataset
from pathembed.evaluation import (
    _TRIAL_SEED_STRIDE,
    classify_nodes,
    evaluate_split,
    read_sweep_rows,
    sweep,
)
from pathembed.graph import (
    GraphError,
    LabeledDataset,
    load_labels,
    load_split,
    save_labels,
    save_split,
    split_edges,
)
from pathembed.paths import build_multipath_pool, build_singlepath_pool
from pathembed.training import (
    TrainingError,
    load_checkpoint,
    pool_arguments,
    save_checkpoint,
    save_history,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# -- plumbing ----------------------------------------------------------------


def _git_describe() -> str:
    """Best-effort build identifier for run metadata."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=FilePath(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


class RunLock:
    """One run directory is owned by one process at a time."""

    def __init__(self, run_dir: FilePath):
        self.path = FilePath(run_dir) / ".lock"
        self._held = False

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"run directory {self.path.parent} is locked by another "
                f"process (remove {self.path} if that run is dead)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        self._held = True
        return self

    def __exit__(self, *exc):
        if self._held:
            self.path.unlink(missing_ok=True)
        return False


def _write_json(path: FilePath, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg.train.seed = args.seed
        cfg.split.seed = args.seed
    return cfg


# -- subcommands -------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace) -> int:
    report = prepare_dataset(args.raw_dir, args.out, name=args.name)
    print(f"prepared dataset: {report['name']}")
    print(f"  nodes:  {report['num_nodes']}")
    print(f"  edges:  {report['num_edges']}")
    print(f"  labels: {report['num_labels']}")
    if report["warnings"]:
        for warning in report["warnings"]:
            print(f"  warning: {warning}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = FilePath(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()

    with RunLock(out_dir):
        dataset = cfg.dataset.load()
        split = split_edges(
            dataset.graph,
            cfg.split.val_fraction,
            cfg.split.test_fraction,
            cfg.split_seed,
        )
        tcfg = cfg.train
        multi_args, single_args = pool_arguments(tcfg, split.train_graph)
        multi_pool = build_multipath_pool(split.train_graph, **multi_args)
        single_pool = build_singlepath_pool(split.train_graph, **single_args)
        result = train(
            split.train_graph, tcfg,
            multi_pool=multi_pool, single_pool=single_pool,
            val_pos=split.val_pos, val_neg=split.val_neg,
        )

        save_checkpoint(result.state, tcfg, out_dir / "checkpoint.npz")
        save_history(result.history, out_dir / "history.csv")
        save_split(split, out_dir / "split")
        # else eval would classify against the labels of an earlier run's dataset
        if dataset.labels is not None:
            save_labels(out_dir / "labels.tsv", dataset)
        else:
            (out_dir / "labels.tsv").unlink(missing_ok=True)
        metrics = evaluate_split(result.state, split, tcfg.backend)
        _write_json(out_dir / "metrics.json", metrics)

        components, _ = split.train_graph.connected_components()
        meta = {
            "config": cfg.to_dict(),
            "seed": tcfg.seed,
            "split_seed": cfg.split_seed,
            "dataset": {
                "kind": cfg.dataset.kind,
                "num_nodes": dataset.graph.num_nodes,
                "num_edges": dataset.graph.num_edges,
                "num_classes": dataset.num_classes,
            },
            "train_graph": {
                "num_nodes": split.train_graph.num_nodes,
                "num_edges": split.train_graph.num_edges,
                "components": components,
            },
            "pools": {
                "multipath_sets": len(multi_pool),
                "singlepath_entries": len(single_pool.entries),
            },
            "epochs_run": result.metadata["epochs_run"],
            "best_val_auc": result.metadata["best_val_auc"],
            "wall_time_s": round(time.time() - start, 3),
            "build": _git_describe(),
        }
        _write_json(out_dir / "run_meta.json", meta)

    print(f"run complete: {out_dir}")
    print(f"  epochs: {meta['epochs_run']}  wall: {meta['wall_time_s']}s")
    for key in ("val_auc", "test_auc", "test_ap"):
        if key in metrics:
            print(f"  {key}: {metrics[key]:.4f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    state, tcfg = load_checkpoint(args.checkpoint)
    if args.config is not None:
        requested = load_config(args.config).train
        for field_name in ("backend", "embedding_dim", "hidden_dim"):
            have = getattr(tcfg, field_name)
            want = getattr(requested, field_name)
            if have != want:
                raise ConfigError(
                    f"checkpoint/config mismatch: checkpoint has "
                    f"{field_name}={have!r} but config asks for {want!r}"
                )
    split = load_split(args.split)
    num_nodes = state.embeddings.values.shape[0]
    if split.train_graph.num_nodes != num_nodes:
        raise ConfigError(
            f"checkpoint/split mismatch: checkpoint embeds {num_nodes} "
            f"nodes but the split graph has {split.train_graph.num_nodes}"
        )

    # the run's own labels are optional, an explicit --labels file is not
    labels_path = FilePath(args.split).parent / "labels.tsv"
    if args.labels is not None:
        labels_path = FilePath(args.labels)
        if not labels_path.is_file():
            raise ConfigError(f"--labels {args.labels} is not a file")
    metrics = evaluate_split(state, split, tcfg.backend)
    if labels_path.is_file():
        identity = {str(i): i for i in range(num_nodes)}
        labels, class_names = load_labels(labels_path, identity, num_nodes)
        dataset = LabeledDataset(split.train_graph, labels, class_names)
        try:
            report = classify_nodes(
                state, dataset, train_fraction=0.1, seed=tcfg.seed
            )
        except (ValueError, RuntimeError) as exc:
            print(f"warning: skipping classification ({exc})", file=sys.stderr)
        else:
            metrics["micro_f1"] = report.micro_f1
            metrics["macro_f1"] = report.macro_f1

    payload = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.split.seed is not None:  # checked before --seed, which sets it
        raise ConfigError(f"{args.config}: split.seed is not used by sweep: trial t "
                          f"splits at train.seed + {_TRIAL_SEED_STRIDE}*t; remove split.seed")
    cfg = _apply_overrides(cfg, args)
    if cfg.sweep is None:
        raise ConfigError("the sweep command needs a sweep: section")
    out_path = FilePath(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    param, values, trials = cfg.sweep.param, cfg.sweep.values, cfg.sweep.trials
    # a file from another grid is refused before the dataset loads
    old_rows = read_sweep_rows(out_path, param, values, trials) if out_path.exists() else []
    dataset = cfg.dataset.load()
    if old_rows:
        print(f"resuming: {len(old_rows)} grid points already on disk")

    rows, errors = sweep(
        dataset.graph,
        cfg.train,
        param,
        values,
        trials=trials,
        labels=dataset.labels,
        val_fraction=cfg.split.val_fraction,
        test_fraction=cfg.split.test_fraction,
        out=out_path,
    )
    print(f"sweep complete: {len(rows)} rows -> {out_path}")
    errors_path = out_path.with_suffix(".errors.json")
    if errors:
        _write_json(errors_path, {"errors": errors})
        print(f"  {len(errors)} grid points failed (see .errors.json)")
    else:
        errors_path.unlink(missing_ok=True)  # a resumed sweep's earlier failures
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathembed",
        description="Graph node embeddings constrained by path consistency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize a raw dataset directory")
    p.add_argument("raw_dir", help="directory with the raw dataset files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", default=None, help="dataset name for stat checks")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train embeddings from a config file")
    p.add_argument("--config", required=True, help="YAML run config")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override all seeds")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a saved split")
    p.add_argument("--checkpoint", required=True, help="checkpoint.npz path")
    p.add_argument("--split", required=True, help="split directory")
    p.add_argument("--config", default=None,
                   help="optional config to cross-check against the checkpoint")
    p.add_argument("--labels", default=None,
                   help="labels.tsv for classification metrics")
    p.add_argument("--out", default=None, help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a parameter grid, resumable")
    p.add_argument("--config", required=True, help="YAML config with sweep:")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=_seed, default=None, help="override all seeds")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, GraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, FloatingPointError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
