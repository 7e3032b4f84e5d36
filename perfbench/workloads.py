"""The three workloads, their rounds, checks and metrics.

A run sets up once (and times two more set-ups), then runs whole rounds
of the same operations while the next round still fits in `--seconds`;
the first round always runs. Timings are medians over rounds. After each
round the outputs are checked against `checks.py`, with tracing paused.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import pathembed as pe
from pathembed.training import TrainConfig

import checks
import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD_TIMEOUT = 170

SPEC = HERE.parent / "BENCHMARK.json"
SETUP_SAMPLES = 3
POOL_SAMPLE = 40


def _clock() -> float:
    return time.perf_counter()


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _run_child(argv: list[str], label: str) -> float:
    """Run a child process to its end; return its wall time."""
    t0 = _clock()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=HERE.parent)
    seconds = _clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return seconds


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as the probe measures it itself."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=HERE.parent)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe exited {out.returncode}: {out.stderr[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _import_probe() -> float:
    """Seconds a fresh interpreter spends on `import pathembed.cli`."""
    code = ("import time; t = time.perf_counter(); import pathembed.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT, cwd=HERE.parent)
    if out.returncode != 0:
        raise RuntimeError(f"import probe exited {out.returncode}: {out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1])


def _pool_errors(graph, multi, multi_args: dict, single, single_max_len: int, seed: int,
                 enumerate_all: bool) -> list[str]:
    """Check sampled multi-path sets and single-path entries of one pool build."""
    rng = np.random.default_rng(seed)
    sets = [(s.endpoints, [p.nodes for p in s.paths])
            for s in checks.sample(multi, POOL_SAMPLE, rng)]
    entries = [(pair, path.nodes)
               for pair, path in checks.sample(single.entries, POOL_SAMPLE, rng)]
    return (checks.check_multipath_sets(graph.num_nodes, graph.edges, sets,
                                        multi_args["max_len"], multi_args["max_paths"],
                                        enumerate_all)
            + checks.check_single_entries(graph.num_nodes, graph.edges, entries,
                                          single_max_len))


def _shuffled(graph, labels) -> pe.LabeledDataset:
    """The dataset with its labels permuted, for the classifier's chance level."""
    return pe.LabeledDataset(graph=graph, labels=np.random.default_rng(1).permutation(labels))


class Workload:
    name = ""
    backend = ""
    ops_per_round = 0
    setup_counts_imports = True  # set-up time starts when the interpreter does

    def __init__(self, seed: int, trace: bool, workdir: Path):
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.done = 0          # operations of the current round that completed
        self.first = None      # first round's outputs, for the repeat checks
        self.dumps: list[dict] = []  # spans of child processes

    def setup(self) -> None:
        raise NotImplementedError

    def setup_samples(self, first: float) -> list[float]:
        """Two more set-ups in fresh processes, beside the one this run made."""
        return [first] + [_setup_probe(self.name, self.seed)
                          for _ in range(SETUP_SAMPLES - 1)]

    def round(self, k: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict, k: int) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()


# -- desk-vi ---------------------------------------------------------------------------

DESK_EPOCHS = 3
DESK_MULTI = {"max_len": 3, "max_paths": 6, "max_pairs": 8000, "path_budget": 300}
DESK_SINGLE = {"max_len": 10, "max_pairs": 12000}
GATE_SEED = 0


class DeskVi(Workload):
    """Gate 5's desk setup: pools, K=128 vi training, link scores, classification."""

    name, backend, ops_per_round = "desk-vi", "vi", 5

    def setup(self):
        # gate 5's inputs: the stand-in, its split and its pools, all at seed 0;
        # the workload seed drives training and classification
        self.graph, self.labels = pe.synthetic_citation_graph(seed=GATE_SEED)
        self.split = pe.split_edges(self.graph, 0.05, 0.10, seed=GATE_SEED)
        self.dataset = pe.LabeledDataset(graph=self.graph, labels=self.labels)
        self.cfg = TrainConfig(backend="vi", embedding_dim=128, hidden_dim=128,
                               epochs=DESK_EPOCHS, patience=8, batch_pairs=512, max_len=10,
                               balance=0.5, learning_rate=0.001, seed=self.seed)

    def round(self, k):
        tg = self.split.train_graph
        t0 = _clock()
        multi = pe.build_multipath_pool(tg, **DESK_MULTI, seed=GATE_SEED)
        self.done += 1
        single = pe.build_singlepath_pool(tg, **DESK_SINGLE, seed=GATE_SEED)
        self.done += 1
        t1 = _clock()
        result = pe.train(tg, self.cfg, multi_pool=multi, single_pool=single,
                          val_pos=self.split.val_pos, val_neg=self.split.val_neg)
        train_s = _clock() - t1
        self.done += 1
        metrics = pe.evaluate_split(result.state, self.split, "vi")
        self.done += 1
        report = pe.classify_nodes(result.state, self.dataset, train_fraction=0.1,
                                   seed=self.seed, repeats=10)
        self.done += 1
        return {"wall_s": _clock() - t0, "steps_per_s": len(result.history) / train_s,
                "test_auc": metrics["test_auc"], "micro_f1": report.micro_f1,
                "multi": multi, "single": single, "result": result}

    def check(self, out, k):
        errors = _pool_errors(self.split.train_graph, out["multi"], DESK_MULTI, out["single"],
                              DESK_SINGLE["max_len"], self.seed, enumerate_all=True)
        state = out["result"].state
        pairs = np.concatenate([self.split.test_pos, self.split.test_neg])
        errors += checks.check_link_auc(
            "vi", state.embeddings.values, state.metric_params, self.split.test_pos,
            self.split.test_neg, out["test_auc"], pe.score_pairs(state, pairs, "vi"))
        shuffled = _shuffled(self.graph, self.labels)
        errors += checks.check_beats_shuffled(
            out["micro_f1"], pe.classify_nodes(state, shuffled, train_fraction=0.1,
                                               seed=self.seed, repeats=10).micro_f1)
        errors += checks.check_loss_falls(
            [h["loss"] for h in out["result"].history],
            out["result"].metadata["steps_per_epoch"])
        if self.first is not None:
            errors += checks.check_same("test_auc", out["test_auc"], self.first["test_auc"])
            errors += checks.check_same("micro_f1", out["micro_f1"], self.first["micro_f1"])
        return errors


# -- sweep-2n --------------------------------------------------------------------------

SWEEP_VALUES = (32, 128)
SWEEP_TRIALS = 2
TRIAL_SEED_STRIDE = 9973  # the seed rule documented for evaluation.sweep


class Sweep2n(Workload):
    """An embedding_dim sweep of 2n; every grid point builds its pools inside train()."""

    name, backend = "sweep-2n", "2n"
    ops_per_round = len(SWEEP_VALUES) * SWEEP_TRIALS

    def setup(self):
        # the stand-in of the gates; the workload seed is the sweep's base seed
        self.graph, self.labels = pe.synthetic_citation_graph(seed=GATE_SEED)
        self.cfg = TrainConfig(backend="2n", embedding_dim=SWEEP_VALUES[0], balance=0.9,
                               learning_rate=0.003, epochs=8, patience=6, batch_pairs=512,
                               max_len=6, max_paths=6, max_pairs=3000, path_budget=200,
                               seed=self.seed)
        import pathembed.training as training

        self.capture = tracing.Capture(
            training, ("train", "build_multipath_pool", "build_singlepath_pool"))

    def round(self, k):
        self.capture.clear()
        t0 = _clock()
        rows, errors = pe.sweep(self.graph, self.cfg, "embedding_dim", list(SWEEP_VALUES),
                                trials=SWEEP_TRIALS, labels=self.labels)
        wall = _clock() - t0
        self.done += len(rows)
        for err in errors:
            print(f"sweep point failed: {err}", file=sys.stderr)
        calls = self.capture.calls
        steps = sum(len(result.history) for _, _, result in calls["train"])
        step_s = (self.capture.seconds("train") - self.capture.seconds("build_multipath_pool")
                  - self.capture.seconds("build_singlepath_pool"))
        return {"wall_s": wall, "steps_per_s": steps / step_s,
                "test_auc": float(np.mean([r["auc"] for r in rows])),
                "micro_f1": float(np.mean([r["micro_f1"] for r in rows])),
                "rows": rows, "errors": errors,
                "multi": calls["build_multipath_pool"][0],
                "single": calls["build_singlepath_pool"][0]}

    def check(self, out, k):
        rows = out["rows"]
        errors = []
        if len(rows) + len(out["errors"]) != self.ops_per_round:
            errors.append(f"sweep returned {len(rows)} rows and {len(out['errors'])} errors")
        _, multi_args, multi = out["multi"]
        _, single_args, single = out["single"]
        errors += _pool_errors(multi_args["graph"], multi, multi_args, single,
                               single_args["max_len"], self.seed, enumerate_all=False)
        if self.first is None:
            errors += self._rederive(rows)
        else:
            errors += checks.check_same("sweep rows", rows, self.first["rows"])
        return errors

    def _rederive(self, rows) -> list[str]:
        """Recompute the last grid point by direct calls, under the sweep's seed rule."""
        value, trial = SWEEP_VALUES[-1], SWEEP_TRIALS - 1
        row = next((r for r in rows if r["value"] == value and r["trial"] == trial), None)
        if row is None:
            return [f"no sweep row for embedding_dim={value}, trial {trial}"]
        cfg = replace(self.cfg, seed=self.cfg.seed + TRIAL_SEED_STRIDE * trial,
                      embedding_dim=value)
        split = pe.split_edges(self.graph, 0.05, 0.10, cfg.seed)
        result = pe.train(split.train_graph, cfg, val_pos=split.val_pos, val_neg=split.val_neg)
        metrics = pe.evaluate_split(result.state, split, "2n")
        state = result.state
        pairs = np.concatenate([split.test_pos, split.test_neg])
        errors = checks.check_same("re-derived test AUC", row["auc"], metrics["test_auc"])
        errors += checks.check_link_auc("2n", state.embeddings.values, state.metric_params,
                                        split.test_pos, split.test_neg, metrics["test_auc"],
                                        pe.score_pairs(state, pairs, "2n"))
        dataset = pe.LabeledDataset(graph=self.graph, labels=self.labels)
        f1 = pe.classify_nodes(state, dataset, train_fraction=0.1, seed=cfg.seed,
                               repeats=1).micro_f1
        errors += checks.check_same("re-derived micro-F1", row["micro_f1"], f1)
        shuffled = _shuffled(self.graph, self.labels)
        errors += checks.check_beats_shuffled(
            f1, pe.classify_nodes(state, shuffled, train_fraction=0.1, seed=cfg.seed,
                                  repeats=1).micro_f1)
        errors += checks.check_loss_falls([h["loss"] for h in result.history],
                                          result.metadata["steps_per_epoch"])
        return errors


# -- cli-mlp ---------------------------------------------------------------------------

CLI_CONFIG = """\
dataset:
  kind: prepared
  path: {prepared}
split:
  val_fraction: 0.05
  test_fraction: 0.10
  seed: {split_seed}
train:
  backend: mlp
  embedding_dim: 64
  hidden_dim: 64
  balance: 0.2
  learning_rate: 0.003
  epochs: 2
  patience: 8
  max_len: 3
  seed: {seed}
"""


def _read_pairs(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=2).reshape(-1, 2)


class CliMlp(Workload):
    """`pathembed train` then `pathembed eval`, each in a fresh process."""

    name, backend, ops_per_round = "cli-mlp", "mlp", 2
    setup_counts_imports = False  # its set-up is generation and `pathembed prepare`

    def _prepare(self, where: Path) -> None:
        # graph and split stay at seed 0, as on desk-vi: their pools' size varies
        # by seed; the workload seed is the command's training seed
        graph, labels = pe.synthetic_citation_graph(seed=GATE_SEED, num_nodes=600,
                                                    num_edges=1500, num_classes=7)
        raw = where / "raw"
        raw.mkdir(parents=True)
        np.savetxt(raw / "edges.txt", graph.edges, fmt="%d")
        with open(raw / "labels.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(f"{node}\tclass{label}\n" for node, label in enumerate(labels))
        self._command(where / "prepare.json", ["prepare", str(raw), "--out",
                                               str(where / "prepared")])

    def _command(self, report: Path, argv: list[str]) -> tuple[float, dict]:
        seconds = _run_child([sys.executable, str(HERE / "cli_child.py"), str(report),
                              "1" if self.trace else "0", *argv], f"pathembed {argv[0]}")
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        if "trace" in data:
            self.dumps.append(data.pop("trace"))
        return seconds, data

    def setup(self):
        self._prepare(self.workdir / "setup-0")
        prepared = self.workdir / "setup-0" / "prepared"
        self.config = self.workdir / "run.yaml"
        self.config.write_text(CLI_CONFIG.format(prepared=prepared, split_seed=GATE_SEED,
                                                seed=self.seed))

    def setup_samples(self, first):
        samples = [first]
        for i in range(1, SETUP_SAMPLES):
            t0 = _clock()
            self._prepare(self.workdir / f"setup-{i}")
            samples.append(_clock() - t0)
        return samples

    def round(self, k):
        run = self.workdir / f"run-{k}"
        if k >= 2:
            shutil.rmtree(self.workdir / f"run-{k - 2}", ignore_errors=True)
        train_s, train = self._command(run / "train.json", [
            "train", "--config", str(self.config), "--out", str(run)])
        self.done += 1
        eval_s, _ = self._command(run / "eval-report.json", [
            "eval", "--checkpoint", str(run / "checkpoint.npz"), "--split", str(run / "split"),
            "--out", str(run / "eval.json")])
        self.done += 1
        with open(run / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        with open(run / "eval.json", encoding="utf-8") as fh:
            evaluated = json.load(fh)
        return {"wall_s": train_s + eval_s, "steps_per_s": train["steps"] / train["train_s"],
                "test_auc": metrics["test_auc"], "micro_f1": evaluated["micro_f1"],
                "cli.train_s": train_s, "cli.eval_s": eval_s,
                "run": run, "train": train, "metrics": metrics, "evaluated": evaluated}

    def check(self, out, k):
        run, train = out["run"], out["train"]
        errors = [f"eval reports {key} {out['evaluated'].get(key)!r}, metrics.json {value!r}"
                  for key, value in out["metrics"].items() if out["evaluated"].get(key) != value]
        train_edges = _read_pairs(run / "split" / "train.txt")
        with open(run / "split" / "metadata.json", encoding="utf-8") as fh:
            num_nodes = json.load(fh)["num_nodes"]
        errors += checks.check_multipath_sets(
            num_nodes, train_edges, train["multi"]["sets"], train["multi"]["max_len"],
            train["multi"]["max_paths"], enumerate_all=True)
        errors += checks.check_single_entries(
            num_nodes, train_edges, train["single"]["entries"], train["single"]["max_len"])
        with np.load(run / "checkpoint.npz") as ckpt:
            phi = ckpt["phi"]
            params = {n[len("param_"):]: ckpt[n] for n in ckpt.files if n.startswith("param_")}
        errors += checks.check_link_auc(
            "mlp", phi, params, _read_pairs(run / "split" / "test_pos.txt"),
            _read_pairs(run / "split" / "test_neg.txt"), out["test_auc"])
        names = [line.split("\t")[1] for line in
                 (run / "labels.tsv").read_text(encoding="utf-8").splitlines()]
        ids = {n: i for i, n in enumerate(dict.fromkeys(names))}
        state, cfg = pe.load_checkpoint(run / "checkpoint.npz")
        shuffled = _shuffled(pe.Graph(num_nodes, train_edges), [ids[n] for n in names])
        errors += checks.check_beats_shuffled(
            out["micro_f1"], pe.classify_nodes(state, shuffled, train_fraction=0.1,
                                               seed=cfg.seed).micro_f1)
        with open(run / "run_meta.json", encoding="utf-8") as fh:
            pools = json.load(fh)["pools"]
        per_epoch = math.ceil(max(pools["multipath_sets"], pools["singlepath_entries"])
                              / cfg.batch_pairs)
        losses = np.genfromtxt(run / "history.csv", delimiter=",", names=True)["loss"]
        errors += checks.check_loss_falls(losses, per_epoch)
        if self.first is not None:
            errors += checks.check_same("metrics.json", out["metrics"], self.first["metrics"])
            errors += checks.check_same("micro_f1", out["micro_f1"], self.first["micro_f1"])
        return errors

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (DeskVi, Sweep2n, CliMlp)}


# -- the run -----------------------------------------------------------------------------


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of `end_to_end` or `per_layer` in BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _median(outs, key) -> float:
    return float(statistics.median(o[key] for o in outs))


def _compare_with_counterpart(name: str, seed: int, trace: int, quality: dict) -> list[str]:
    """Traced and untraced runs of one seed must agree bit for bit on quality."""
    mine = OUT / f"{name}-seed{seed}-trace{trace}.json"
    other = OUT / f"{name}-seed{seed}-trace{1 - trace}.json"
    mine.write_text(json.dumps({k: repr(v) for k, v in quality.items()}))
    if not other.is_file():
        return []
    theirs = json.loads(other.read_text())
    return [f"{key} {quality[key]!r} here but {theirs[key]} in the trace={1 - trace} run"
            for key in quality if repr(quality[key]) != theirs.get(key)]


def main(args, t0: float) -> int:
    trace = bool(args.trace)
    tracer = tracing.Tracer().install() if trace else None
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, trace, workdir)
    try:
        if args.setup_probe:
            wl.setup()
            print(json.dumps({"setup_s": _clock() - t0}))
            return 0
        workdir.mkdir(parents=True)
        setup_start = t0 if wl.setup_counts_imports else _clock()
        wl.setup()
        first_setup = _clock() - setup_start
        setup_samples = wl.setup_samples(first_setup) if not trace else [first_setup]
        return _measure(args, wl, tracer, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl: Workload, tracer, setup_samples) -> int:
    attempted = failed = 0
    errors: list[str] = []
    outs: list[dict] = []
    start = _clock()
    k = 0
    while True:
        r0 = _clock()
        if tracer is not None:
            tracer.round = k
        wl.done = 0
        attempted += wl.ops_per_round
        try:
            out = wl.round(k)
        except Exception:  # noqa: BLE001 - a failed round is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        failed += wl.ops_per_round - wl.done
        if out is not None:
            if tracer is not None:
                tracer.active = False
            errors += wl.check(out, k)
            if tracer is not None:
                tracer.active = True
            if wl.first is None:
                wl.first = out
            outs.append(out)
        k += 1
        last = _clock() - r0
        if _clock() - start + last > args.seconds:
            break
    if not outs:
        print("error: no round completed", file=sys.stderr)
        return 1
    quality = {"test_auc": wl.first["test_auc"], "micro_f1": wl.first["micro_f1"]}
    errors += _compare_with_counterpart(wl.name, args.seed, int(tracer is not None), quality)
    if tracer is None:
        metrics = {
            "setup_s": float(statistics.median(setup_samples)),
            "wall_s": _median(outs, "wall_s"),
            "train_steps_per_s": _median(outs, "steps_per_s"),
            "test_auc": quality["test_auc"],
            "micro_f1": quality["micro_f1"],
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = _units("end_to_end")
    else:
        tracer.active = False
        metrics = _layers(wl, tracer, outs)
        units = _units("per_layer")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _layers(wl: Workload, tracer, outs) -> dict:
    """Per-layer metrics of a traced run; the full span record goes to out/."""
    dumps = [tracer.dump(), *wl.dumps]
    summary = tracing.summarize(dumps, wl.backend)
    summary["cli.import_s"] = float(statistics.median(_import_probe() for _ in range(3)))
    summary["trace.wall_s"] = _median(outs, "wall_s")
    # layers that run on one workload only stay out of the common metric list
    step_key = {"vi": "relations.encoder_ms", "mlp": "relations.mlp_ms"}.get(wl.backend)
    if step_key and "relations.relation_ms" in summary:
        summary[step_key] = summary["relations.relation_ms"]
    for key in ("cli.train_s", "cli.eval_s"):
        if key in outs[0]:
            summary[key] = _median(outs, key)
    record = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    record.write_text(json.dumps({"summary": summary, "processes": dumps}))
    for key in sorted(summary):
        print(f"{key:32s} {summary[key]:.6g}", file=sys.stderr)
    return summary
