"""Run one pathembed command as the console script does, and report on it.

usage: python3 perfbench/cli_child.py REPORT.json TRACE(0|1) COMMAND [ARGS...]

The command runs through `pathembed.cli.main`, the entry point of the
`pathembed` script. REPORT.json receives the exit code, the optimizer
steps and wall time of the `train()` call, sampled entries of the pools
the command built, and with TRACE 1 every span of the process.
"""

from __future__ import annotations

import json
import sys

import tracing

SAMPLED = 40


def _every_kth(items, count):
    items = list(items)
    stride = max(1, len(items) // count)
    return items[::stride][:count]


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = tracing.Tracer().install() if traced else None
    from pathembed import cli

    capture = tracing.Capture(cli, ("train", "build_multipath_pool", "build_singlepath_pool"))
    code = cli.main(argv)
    report = {"code": code}
    if capture.calls["train"]:
        seconds, _, result = capture.calls["train"][0]
        report.update(train_s=seconds, steps=len(result.history))
    for _, args, pool in capture.calls["build_multipath_pool"]:
        report["multi"] = {
            "max_len": args["max_len"], "max_paths": args["max_paths"],
            "sets": [[list(s.endpoints), [list(p.nodes) for p in s.paths]]
                     for s in _every_kth(pool, SAMPLED)],
        }
    for _, args, pool in capture.calls["build_singlepath_pool"]:
        report["single"] = {
            "max_len": args["max_len"],
            "entries": [[list(pair), list(path.nodes)]
                        for pair, path in _every_kth(pool.entries, SAMPLED)],
        }
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
