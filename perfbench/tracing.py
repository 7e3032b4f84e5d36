"""Spans and counts around the public functions of pathembed, kept in memory.

`Tracer.install()` wraps every public module-level function of the
pathembed modules named in `MODULES`, plus `Tensor.backward`, and
replaces each reference to them in every loaded pathembed module (the
package re-exports and `from x import y` names included). A call records
one span: its own id, the function, start, end and the id of the span
open when it began. A few functions also record counts from their
arguments and results. Nothing is written until `dump()`.

`summarize()` turns the spans of one or more processes into per-layer
metrics. A layer's self time is its span minus the time covered by the
spans of other measured layers below it: the step's forward pass minus
the relation and scatter spans, the backward pass minus the scatters.

`Capture` is the light instrument of untraced runs: it times a handful of
calls and keeps their results for the correctness checks.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import statistics
import sys
import time

import numpy as np

MODULES = ("datasets", "graph", "paths", "training", "relations", "autodiff",
           "evaluation", "cli")
TAIL_LEVELS = (99, 95, 90, 75)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def pool_key(args: dict) -> str:
    """Identity of a pool build: the train graph's edges plus every knob."""
    graph = args["graph"]
    digest = hashlib.sha1(np.ascontiguousarray(graph.edges).tobytes())
    knobs = sorted((k, v) for k, v in args.items() if k != "graph")
    digest.update(repr((graph.num_nodes, knobs)).encode())
    return digest.hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.stack: list[int] = []
        self.ids = itertools.count()
        self.round = 0
        self.active = True  # off while the benchmark checks outputs
        self.builds: list[tuple[int, str, str]] = []  # (round, kind, input key)
        self.counts: dict[str, list[float]] = {}

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    # -- hooks: counts taken from arguments and results ------------------------

    def _on_multipath(self, fn, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        self.builds.append((self.round, "multi", pool_key(bound)))
        self._count("paths.multipath_sets", len(result))

    def _on_singlepath(self, fn, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        self.builds.append((self.round, "single", pool_key(bound)))
        self._count("paths.singlepath_entries", len(result.entries))
        self._count("paths.singlepath_fill", len(result.entries) / bound["max_pairs"])

    def _on_step_batch(self, fn, args, kwargs, result):
        self._count("training.pairs_per_step", result.unique_u.size + result.c_unique_u.size)

    def _on_train(self, fn, args, kwargs, result):
        self._count("training.steps", len(result.history))

    def _on_sweep(self, fn, args, kwargs, result):
        rows, errors = result
        self._count("evaluation.sweep_points", len(rows) + len(errors))

    HOOKS = {
        "paths.build_multipath_pool": _on_multipath,
        "paths.build_singlepath_pool": _on_singlepath,
        "training.make_step_batch": _on_step_batch,
        "training.train": _on_train,
        "evaluation.sweep": _on_sweep,
    }

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        stack, spans, ids, clock = self.stack, self.spans, self.ids, time.perf_counter
        hook = self.HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, fid, t0, t1, parent))
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"pathembed.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "pathembed" and not modname.startswith("pathembed."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        tensor = importlib.import_module("pathembed.autodiff").Tensor
        tensor.backward = self._wrap("autodiff.Tensor.backward", tensor.backward)
        return self

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "builds": self.builds,
                "counts": self.counts}


class Capture:
    """Pass-through wrappers over `names` in `module`: call times and results."""

    def __init__(self, module, names):
        self.calls: dict[str, list[tuple[float, dict, object]]] = {n: [] for n in names}
        for name in names:
            setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        calls = self.calls[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((time.perf_counter() - t0, _bound(fn, args, kwargs), result))
            return result

        return wrapper

    def seconds(self, name: str) -> float:
        return sum(c[0] for c in self.calls[name])

    def clear(self) -> None:
        for calls in self.calls.values():
            calls.clear()


# -- summaries -------------------------------------------------------------------


def tail(samples) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and its level.

    With fewer than forty samples there is no such tail and the median
    stands in, at level 50.
    """
    n = len(samples)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return float(np.percentile(samples, level)), level
    return float(statistics.median(samples)), 50


STEP_PARTS = {
    "training.contrast_triplets": "batch",
    "training.make_step_batch": "batch",
    "training.build_objective": "forward",
    "autodiff.Tensor.backward": "backward",
    "training.adam_step": "adam",
}


def _process_samples(dump: dict, backend: str) -> dict[str, list[float]]:
    """Per-layer samples (seconds or counts) from the spans of one process."""
    names = dump["names"]
    spans = sorted(dump["spans"])
    if not spans:
        return {}
    name = {}
    dur = {}
    parent = {}
    for sid, fid, t0, t1, par in spans:
        name[sid], dur[sid], parent[sid] = names[fid], t1 - t0, par

    def is_relation(sid):
        n = name[sid]
        if n.startswith("relations."):
            return True
        # 2n's relation is the plain embedding distance of autodiff
        return (backend == "2n" and n == "autodiff.pair_distance"
                and name.get(parent[sid]) == "training.build_objective")

    def attributed(sid):
        return name[sid] == "autodiff.scatter_rows" or is_relation(sid)

    covered = dict.fromkeys(name, 0.0)
    for sid, *_ in reversed(spans):
        par = parent[sid]
        if par in covered:
            covered[par] += dur[sid] if attributed(sid) else covered[sid]

    out: dict[str, list[float]] = {}

    def add(key, value):
        out.setdefault(key, []).append(value)

    steps: dict[int, dict[str, float]] = {}
    step_of: dict[int, int] = {}
    validation: dict[tuple[int, int], float] = {}
    compile_: dict[int, float] = {}
    adam_count = 0
    dfs = [0, 0.0]
    bfs = [0, 0.0]
    saves = 0.0
    for sid, *_ in spans:
        n, par = name[sid], parent[sid]
        pname = name.get(par)
        if n in STEP_PARTS and pname == "training.train":
            k = adam_count
            if n == "training.adam_step":
                adam_count += 1
            step_of[sid] = k
            part = steps.setdefault(k, {})
            part[STEP_PARTS[n]] = part.get(STEP_PARTS[n], 0.0) + dur[sid] - covered[sid]
        elif par in step_of:
            k = step_of[sid] = step_of[par]
            part = steps[k]
            if n == "autodiff.scatter_rows":
                part["scatter"] = part.get("scatter", 0.0) + dur[sid] - covered[sid]
                part["scatter_calls"] = part.get("scatter_calls", 0) + 1
            elif is_relation(sid):
                part["relation"] = part.get("relation", 0.0) + dur[sid] - covered[sid]
        if pname == "training.train":
            if n in ("evaluation.score_pairs", "evaluation.auc_score"):
                validation[(par, adam_count)] = validation.get((par, adam_count), 0.0) + dur[sid]
            elif n in ("training.compile_multipath", "training.compile_singlepath"):
                compile_[par] = compile_.get(par, 0.0) + dur[sid]
        if n == "paths.enumerate_simple_paths":
            dfs[0] += 1
            dfs[1] += dur[sid]
        elif n == "paths.bfs_distances":
            bfs[0] += 1
            bfs[1] += dur[sid]
        elif n == "paths.build_multipath_pool":
            add("paths.multipath_s", dur[sid])
        elif n == "paths.build_singlepath_pool":
            add("paths.singlepath_s", dur[sid])
        elif n == "evaluation.evaluate_split":
            add("evaluation.score_ms", dur[sid] * 1e3)
        elif n == "evaluation.classify_nodes":
            add("evaluation.classify_s", dur[sid])
        elif n == "datasets.synthetic_citation_graph":
            add("datasets.generate_s", dur[sid])
        elif n == "datasets.prepare_dataset":
            add("datasets.prepare_s", dur[sid])
        elif n == "graph.split_edges":
            add("graph.split_s", dur[sid])
        elif n in ("training.save_checkpoint", "training.save_history", "graph.save_split"):
            saves += dur[sid]
    if saves:
        add("cli.save_ms", saves * 1e3)
    builds = len(out.get("paths.multipath_s", ()))
    if builds:
        add("paths.dfs_calls", dfs[0] / builds)
        add("paths.dfs_s", dfs[1] / builds)
        add("paths.bfs_calls", bfs[0] / builds)
        add("paths.bfs_s", bfs[1] / builds)
    for part in steps.values():
        add("training.batch_ms", part.get("batch", 0.0) * 1e3)
        add("training.forward_ms", part.get("forward", 0.0) * 1e3)
        add("training.backward_ms", part.get("backward", 0.0) * 1e3)
        add("training.adam_ms", part.get("adam", 0.0) * 1e3)
        add("relations.relation_ms", part.get("relation", 0.0) * 1e3)
        add("autodiff.scatter_ms", part.get("scatter", 0.0) * 1e3)
        add("autodiff.scatter_calls", part.get("scatter_calls", 0))
    for seconds in validation.values():
        add("training.validation_ms", seconds * 1e3)
    for seconds in compile_.values():
        add("training.compile_s", seconds)
    for key, values in dump["counts"].items():
        out.setdefault(key, []).extend(values)
    rounds: dict[int, list[str]] = {}
    for rnd, _, key in dump["builds"]:
        rounds.setdefault(rnd, []).append(key)
    for keys in rounds.values():
        add("paths.repeat_build_share", 1.0 - len(set(keys)) / len(keys))
    return out


PER_STEP = ("training.batch_ms", "training.forward_ms", "training.backward_ms",
            "training.adam_ms", "relations.relation_ms", "autodiff.scatter_ms")


def summarize(dumps: list[dict], backend: str) -> dict[str, float]:
    """Per-layer metrics over the spans of several processes.

    Each metric is the median of its samples: per pool build for the
    paths layer, per step for the step parts, per call elsewhere. Per-step
    timings also get a `.tail` (see `tail`), whose level is
    `training.tail_pct`, over `training.step_samples` steps.
    """
    samples: dict[str, list[float]] = {}
    for dump in dumps:
        for key, values in _process_samples(dump, backend).items():
            samples.setdefault(key, []).extend(values)
    out = {key: float(statistics.median(values)) for key, values in samples.items() if values}
    steps = samples.get("training.forward_ms", [])
    out["training.step_samples"] = float(len(steps))
    for key in PER_STEP:
        if samples.get(key):
            out[f"{key}.tail"], level = tail(samples[key])
            out["training.tail_pct"] = float(level)
    return out
