"""pathembed benchmark: runs one workload and prints its result as JSON.

usage: python3 perfbench/run.py --workload {desk-vi,sweep-2n,cli-mlp}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports pathembed from `src/`.
The last line of standard output is the result object. See README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads (README.md has the measurements).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("desk-vi", "sweep-2n", "cli-mlp")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the workload's set-up in this fresh process and exit")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if not (SRC / "pathembed" / "__init__.py").is_file():
        print(f"error: no pathembed sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import workloads

    return workloads.main(args, T0)


if __name__ == "__main__":
    sys.exit(main())
