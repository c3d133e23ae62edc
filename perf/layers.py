"""ghzprotect layer timer: each library layer timed in one process, one BLAS thread.

Usage, from the repository root:

    python perf/layers.py --output BENCH_<n>.json
    python perf/layers.py --quick

Each entry calls one library function at a fixed point, in loops long
enough to time, and reports the median, the interquartile range, the
minimum and the repeat count of the per-call wall seconds (``timeit``,
garbage collection off while timing), and the median and interquartile
range of the per-call CPU seconds of this process (``time.process_time``),
which other load on the host moves less than the wall clock.  The entries
are:

- ``aggregate_metrics`` at N = 10, 100 and 1000, under both conventions;
- ``metrics_grid`` on a 181 x 181 (theta, eta) grid at N = 10 and 100;
- ``aggregate_metrics_dense`` at N = 4, 6, 8 and 10;
- one ``maximize_metric`` call at the CLI's ``optimize`` defaults under
  each convention.

The output also records the git sha and dirty flag, the Python and numpy
versions, the CPU count and the BLAS thread settings.  ``--quick`` takes
fewer and shorter repeats, for a check that the timer runs; only a full
run's numbers are worth comparing, and only with numbers from the same
machine and session.  The package is imported from ``src/`` next to this
directory; nothing is installed.
"""

import os

# One process, one BLAS thread; set before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ghzprotect.dense import aggregate_metrics_dense  # noqa: E402
from ghzprotect.optimize import Objective, maximize_metric  # noqa: E402
from ghzprotect.params import Convention, ProtocolParams  # noqa: E402
from ghzprotect.structured import aggregate_metrics, metrics_grid  # noqa: E402

#: (theta, eta, r) of the point calls: defined under both conventions up to
#: N = 1000, with a rotation that makes the paper convention's phases complex.
POINT = (1.2, 0.1, 0.1)
#: The CLI's default input angle and decay level (its phi0, theta and eta
#: defaults are 0, pi/2 and 0).
CLI_GAMMA, CLI_R = math.pi / 2.0, 0.5
GRID_STEPS = 181

#: (repeats, least seconds a repeat) of a full and of a quick run.
FULL, QUICK = (21, 0.1), (9, 0.02)


def _params(n: int, theta: float = POINT[0], eta: float = POINT[1], r: float = POINT[2]):
    return ProtocolParams(
        n_qubits=n, gamma=CLI_GAMMA, phi0=0.0, theta=theta, eta=eta, r=r
    )


def layers() -> dict:
    """Entry name -> the call it times."""
    calls = {}
    for n in (10, 100, 1000):
        for conv in Convention:
            p = _params(n)
            calls[f"structured.aggregate_metrics.n{n}.{conv.value}"] = (
                lambda p=p, conv=conv: aggregate_metrics(p, conv, max_qubits=p.n_qubits)
            )
    thetas = np.linspace(0.0, math.pi, GRID_STEPS)[:, None]
    etas = np.linspace(0.0, 2.0 * math.pi, GRID_STEPS)[None, :]
    for n in (10, 100):
        for conv in Convention:
            calls[f"structured.metrics_grid.n{n}.{conv.value}"] = (
                lambda n=n, conv=conv: metrics_grid(
                    n, CLI_GAMMA, 0.0, POINT[2], thetas, etas, conv
                )
            )
    for n in (4, 6, 8, 10):
        for conv in Convention:
            p = _params(n)
            calls[f"dense.aggregate_metrics_dense.n{n}.{conv.value}"] = (
                lambda p=p, conv=conv: aggregate_metrics_dense(p, conv)
            )
    base = _params(10, theta=math.pi / 2.0, eta=0.0, r=CLI_R)
    for conv in Convention:
        calls[f"optimize.maximize_metric.n10.{conv.value}"] = (
            lambda conv=conv: maximize_metric(Objective.QFI, CLI_R, base, convention=conv)
        )
    return calls


def time_call(call, repeats: int, least_s: float) -> dict:
    """Per-call wall and CPU seconds over ``repeats``: medians, IQRs, the wall minimum."""
    call()  # first-call costs (caches, imports) stay out of the timings
    timer = timeit.Timer(call)
    loops = 1
    while (elapsed := timer.timeit(loops)) < least_s:
        loops = max(loops + 1, math.ceil(loops * least_s / max(elapsed, 1e-9)))
    wall, cpu = [], []
    for _ in range(repeats):
        start = time.process_time()
        wall.append(timer.timeit(loops) / loops)
        cpu.append((time.process_time() - start) / loops)
    q1, median, q3 = statistics.quantiles(wall, n=4)
    cpu_q1, cpu_median, cpu_q3 = statistics.quantiles(cpu, n=4)
    return {
        "median_s": median, "iqr_s": q3 - q1, "min_s": min(wall),
        "cpu_median_s": cpu_median, "cpu_iqr_s": cpu_q3 - cpu_q1,
        "repeats": repeats, "loops": loops,
    }


def provenance() -> dict:
    sha = dirty = None
    git = ["git", "-C", str(ROOT)]
    try:
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer, shorter repeats")
    parser.add_argument("--output", default=str(ROOT / "BENCH.json"),
                        help="JSON file to write (default: BENCH.json at the repository root)")
    args = parser.parse_args(argv)
    repeats, least_s = QUICK if args.quick else FULL
    entries = {}
    for name, call in layers().items():
        entries[name] = time_call(call, repeats, least_s)
        entry = entries[name]
        print(f"{name}: median {entry['median_s'] * 1e3:.4f} ms, "
              f"IQR {entry['iqr_s'] * 1e3:.4f} ms, min {entry['min_s'] * 1e3:.4f} ms, "
              f"CPU median {entry['cpu_median_s'] * 1e3:.4f} ms "
              f"({repeats} x {entry['loops']})", file=sys.stderr)
    report = {"quick": args.quick, "provenance": provenance(), "entries": entries}
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
