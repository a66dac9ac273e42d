#!/usr/bin/env python3
"""flowsamp benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload model-driven --seed 0 --seconds 20 --trace 0

It builds the workload's inputs from the seed, measures for the given
seconds, checks the outputs and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it explains the run (repetitions, sample counts, quality,
environment). Outputs, the oracle cache and traces go to ``.perfbench/``.
See perfbench/README.md.
"""

import os
import sys

# Cap native thread pools before numpy loads; the benchmark itself is
# single-process and single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(os.cpu_count() or 1))

import argparse  # noqa: E402
import json  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flowsamp", "__init__.py")):
        print(f"error: no flowsamp sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
