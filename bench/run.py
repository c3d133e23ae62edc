"""ghzprotect benchmark: named closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload fig2a-qfi-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One caller runs units of work back to back until ``--seconds`` have passed
(at least one unit always runs), and checks every unit's output outside the
timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable report
with provenance, sample counts and spreads goes to standard error and to
``bench/out/<workload>-seed<seed>-trace<t>.json``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones (per pass) and writes their spans to
``bench/out/<workload>-seed<seed>.spans.jsonl``.  ``--workload all`` runs
every workload in its own process and prints a summary.  The package is
imported from ``src/`` next to this directory; nothing is installed.
"""

import os

# One process, one BLAS thread; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# The figure payload echoes this setting; the references were recorded without it.
os.environ.pop("GHZPROTECT_THREADS", None)

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghzprotect" / "__init__.py").is_file():
        print(f"error: no ghzprotect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)} or all")
    if args.workload == "all":
        result = harness.run_all(args.seed, args.seconds, args.trace)
    else:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
