"""Workloads, measurement loop and reports of the ghzprotect benchmark.

Imported by ``run.py`` once ``src/`` is on the import path; see that file
for usage.  Each workload turns its seed into inputs, runs units of work
back to back (``unit_input`` untimed, ``run`` timed, ``check`` untimed) and
counts operations attempted and failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ghzprotect import cli, dense, structured
from ghzprotect.closedform import prob_total
from ghzprotect.params import Convention, ProtocolParams
from spans import Tracer
from verdicts import (
    Tally,
    engines_verdict,
    scalar_verdict,
    sweep_verdict,
    validate_verdict,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

#: Fresh interpreters started per run to measure set-up time.
SETUP_REPEATS = 9
#: Register size of the untimed overflow probe on the largest scalar workload.
PROBE_QUBITS = 2000

END_TO_END = {
    "setup_s": "s",
    "run_s_p90": "s",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = (
    "structured.metrics_grid",
    "structured.aggregate_metrics",
    "optimize.maximize_metric",
    "optimize.maximize_fidelity_at_unit_probability",
    "closedform.eta_opt_probability",
    "closedform.prob_total",
    "closedform.metrics_closedform",
    "dense.aggregate_metrics_dense",
    "dense.do_nothing_baseline",
)
PER_LAYER = {
    **{f"{name}.{field}": unit for name in _CALLS_SELF
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "structured.metrics_grid.points": "count",
    "structured.metrics_grid.nan_ratio": "ratio",
    "structured.metrics_grid.point_classes_per_s": "1/s",
    "structured.aggregate_metrics.degenerate": "count",
    "structured.aggregate_metrics.failed": "count",
    "structured.aggregate_metrics.overflow": "count",
    "optimize.sweep_r.calls": "count",
    "dense.aggregate_metrics_dense.branches": "count",
    "validate.run_validation.self_s": "s",
    "validate.checks_failed": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


# --------------------------------------------------------------------------
# workloads: unit_input (untimed) -> run (timed) -> check (untimed)
# --------------------------------------------------------------------------


def _capture(argv: list[str]) -> tuple[int, str]:
    """Run the CLI entry point in-process and capture its stdout payload."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails every operation of the unit
            traceback.print_exc()
            code = -1
    return code, buffer.getvalue()


def _draw(rng, n: int):
    """Uniform point: gamma in (0, pi), phi0 and theta in [0, pi], eta in [0, 2pi), r in [0, 1)."""
    gamma = 0.0
    while gamma == 0.0:
        gamma = float(rng.uniform(0.0, math.pi))
    return ProtocolParams(
        n_qubits=n,
        gamma=gamma,
        phi0=float(rng.uniform(0.0, math.pi)),
        theta=float(rng.uniform(0.0, math.pi)),
        eta=float(rng.uniform(0.0, 2.0 * math.pi)),
        r=float(rng.uniform(0.0, 1.0)),
        extended_theta=True,
    )


class Workload:
    checks_failed = 0
    #: Units that make one pass of the user's job; per-layer metrics are per pass.
    units_per_pass = 1

    def unit_input(self, index: int):
        return None

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def warm_up(self):
        """One untimed unit before the loop, so that first-call costs stay out of the timings."""
        inp = self.unit_input(-1)
        return self.check(inp, self.run(inp))

    def finish(self):
        """Untimed operations after the loop; none by default."""
        return Tally()

    def details(self) -> dict:
        return {}


def _reference_rows(fig_id: str) -> list[dict[str, str]]:
    """Data rows of a reference figure, as column -> cell text."""
    text = (REFERENCE_DIR / f"fig{fig_id}.csv").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def fig2a_parts() -> list:
    """Figure 2a by rows: one QFI optimisation at one r each."""
    return [
        (["--objective", "qfi", "--r-from", row["r"], "--r-to", row["r"]],
         [{"r": row["r"], "value": row["qfi"], "baseline_qfi": row["qfi_baseline"]}])
        for row in _reference_rows("2a")
    ]


#: Figure 6b's input angles, in degrees and as the CLI computes them.
FIG6B_GAMMAS = ((30, math.pi / 6), (45, math.pi / 4), (60, math.pi / 3),
                (75, 5 * math.pi / 12), (90, math.pi / 2))


def fig6b_parts() -> list:
    """Figure 6b by curves: one unit-probability sweep over its 21 values of r per input angle."""
    rows = _reference_rows("6b")
    return [
        (["--constraint", "unit-probability", "--gamma", repr(gamma),
          "--r-from", "0", "--r-to", "1", "--r-step", "0.05"],
         [{"r": row["r"], "value": row[f"fidelity_gamma_{deg}"]} for row in rows])
        for deg, gamma in FIG6B_GAMMAS
    ]


class FigureWorkload(Workload):
    """One unit is one part of a figure, run as ``ghzprotect sweep`` with that part's flags.

    The ``sweep`` command's defaults are the figures' settings (N = 10,
    paper convention, structured engine, 181 x 181 grid), so the parts
    together do the work of the whole figure, and each output row is
    checked against the matching cells of the reference figure.  Parts are
    visited in a seeded order, every part once per pass over the figure.
    """

    def __init__(self, parts: list, seed: int) -> None:
        self.parts = parts
        self.units_per_pass = len(parts)
        self.rng = np.random.default_rng(seed)
        self.order: list[int] = []

    def unit_input(self, index: int):
        if not self.order:
            self.order = [int(i) for i in self.rng.permutation(len(self.parts))]
        return self.parts[self.order.pop()]

    def warm_up(self):
        # unit_input would take a part out of the first pass
        inp = self.parts[0]
        return self.check(inp, self.run(inp))

    def run(self, inp):
        return _capture(["sweep", *inp[0]])

    def check(self, inp, out):
        return sweep_verdict(*out, inp[1])


class PointsWorkload(Workload):
    """One unit is a seeded batch of ``structured.aggregate_metrics`` calls.

    ``mix`` gives (N, calls per unit) for each register size.  Draws
    alternate between the physical and paper conventions.  With ``probes``,
    the run ends with that many untimed calls at N = 2000.
    """

    def __init__(self, mix: tuple[tuple[int, int], ...], seed: int, probes: int = 0) -> None:
        self.mix, self.probes = mix, probes
        self.rng = np.random.default_rng(seed)
        # touched up front, so the recorded times do not grow the RSS
        self.call_times = {n: np.full(1 << 16, math.nan) for n, _ in mix}
        self.calls = dict.fromkeys(self.call_times, 0)

    def _draws(self, n: int, count: int, first: int = 0) -> list:
        conventions = (Convention.PHYSICAL, Convention.PAPER)
        return [(_draw(self.rng, n), conventions[(first + j) % 2]) for j in range(count)]

    def unit_input(self, index: int):
        return [draw for n, count in self.mix for draw in self._draws(n, count, index)]

    def _evaluate(self, inp, record: bool) -> list:
        clock, outcomes = time.perf_counter, []
        for p, convention in inp:
            start = clock()
            try:
                outcomes.append(structured.aggregate_metrics(p, convention, max_qubits=p.n_qubits))
            except Exception as exc:  # judged by the verdict, outside the timed region
                outcomes.append(exc)
            n = p.n_qubits
            if record and self.calls[n] < self.call_times[n].size:
                self.call_times[n][self.calls[n]] = clock() - start
                self.calls[n] += 1
        return outcomes

    def run(self, inp):
        return self._evaluate(inp, record=True)

    def check(self, inp, out, probe: bool = False):
        tally = Tally()
        for (p, convention), outcome in zip(inp, out):
            reference = prob_total(p).real if convention is Convention.PAPER else None
            tally.add(scalar_verdict(p.n_qubits, convention, outcome, reference, probe))
        return tally

    def warm_up(self):
        inp = self.unit_input(-1)
        return self.check(inp, self._evaluate(inp, record=False))

    def finish(self):
        inp = self._draws(PROBE_QUBITS, self.probes)
        return self.check(inp, self._evaluate(inp, record=False), probe=True)

    def details(self) -> dict:
        per_n = {n: times[: self.calls[n]] * 1e3 for n, times in self.call_times.items()}
        every = np.concatenate(list(per_n.values()))
        if every.size == 0:
            return {}
        return {
            **{f"call_ms_p50_n{n}": float(np.median(t)) for n, t in per_n.items() if t.size},
            "call_ms_p99": float(np.percentile(every, 99)),
            "call_samples": int(every.size),
            "evals_per_s": float(every.size / (every.sum() / 1e3)),
        }


class CrosscheckWorkload(Workload):
    """One unit is ``ghzprotect validate --seed <seed>`` plus seeded dense-vs-structured pairs."""

    #: (N, draws per unit); each draw is evaluated under both conventions.
    DENSE_DRAWS = ((4, 2), (6, 1))

    def __init__(self, seed: int) -> None:
        self.argv = ["validate", "--seed", str(seed)]
        self.rng = np.random.default_rng(seed)
        self.check_names = (REFERENCE_DIR / "validate_checks.txt").read_text(encoding="utf-8").split()

    def unit_input(self, index: int):
        return [
            (_draw(self.rng, n), convention)
            for n, count in self.DENSE_DRAWS
            for _ in range(count)
            for convention in (Convention.PAPER, Convention.PHYSICAL)
        ]

    def run(self, inp):
        report = _capture(self.argv)
        pairs = []
        for p, convention in inp:
            outcome = []
            for engine in (dense.aggregate_metrics_dense, structured.aggregate_metrics):
                try:
                    outcome.append(engine(p, convention))
                except Exception as exc:  # judged by the verdict, outside the timed region
                    outcome.append(exc)
            pairs.append(outcome)
        return report, pairs

    def warm_up(self):
        tally = super().warm_up()
        self.checks_failed = 0  # counted per timed unit
        return tally

    def check(self, inp, out):
        (code, report), pairs = out
        tally = validate_verdict(code, report, self.check_names)
        self.checks_failed += tally.failed + sum(tally.known.values())
        for dense_outcome, structured_outcome in pairs:
            tally.add(engines_verdict(dense_outcome, structured_outcome))
        return tally


#: Workload name -> factory taking the seed; BENCHMARK.json says why each was chosen.
WORKLOADS = {
    "fig2a-qfi-sweep": lambda seed: FigureWorkload(fig2a_parts(), seed),
    "fig6b-unitprob-sweep": lambda seed: FigureWorkload(fig6b_parts(), seed),
    "points-scalar": lambda seed: PointsWorkload(((10, 32), (100, 4), (1000, 1)), seed, probes=2),
    "crosscheck": lambda seed: CrosscheckWorkload(seed),
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def _spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below 2 samples)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import ghzprotect`` returns."""
    code = "import time, ghzprotect; print(time.monotonic(), ghzprotect.__file__)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported ghzprotect from {path.strip()}, not {SRC}")
        times.append(float(stamp) - start)
    return times


def measure(workload: Workload, seconds: float, traced: bool):
    """Run units back to back for ``seconds``; with ``traced``, every other pass is traced.

    A traced run ends on a pass boundary, so the traced units cover whole passes.
    """
    tally, plain_times, traced_times = workload.warm_up(), [], []
    tracer = Tracer() if traced else None
    clock = time.perf_counter
    start, index, per_pass = clock(), 0, workload.units_per_pass
    while True:
        inp = workload.unit_input(index)
        use_tracer = traced and (index // per_pass) % 2 == 1
        if use_tracer:
            tracer.unit = index
            tracer.install()
        try:
            t0 = clock()
            out = workload.run(inp)
            t1 = clock()
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced_times if use_tracer else plain_times).append(t1 - t0)
        tally.add(workload.check(inp, out))
        index += 1
        if clock() - start >= seconds and (not traced or (traced_times and index % per_pass == 0)):
            break
    tally.add(workload.finish())
    return tally, plain_times, traced_times, tracer


def layer_metrics(tracer, workload: Workload, tally, plain_times, traced_times) -> dict:
    units = len(traced_times) / workload.units_per_pass
    values: dict[str, float] = {}
    for name in _CALLS_SELF + ("optimize.sweep_r", "validate.run_validation", "cli.main"):
        values[f"{name}.calls"] = tracer.calls[name] / units
        values[f"{name}.self_s"] = tracer.self_s[name] / units
    grid = tracer.counters["structured.metrics_grid"]
    grid_self = tracer.self_s["structured.metrics_grid"]
    values["structured.metrics_grid.points"] = grid["points"] / units
    values["structured.metrics_grid.nan_ratio"] = grid["nan_points"] / grid["points"] if grid["points"] else 0.0
    values["structured.metrics_grid.point_classes_per_s"] = grid["point_classes"] / grid_self if grid_self else 0.0
    scalar = tracer.counters["structured.aggregate_metrics"]
    values["structured.aggregate_metrics.degenerate"] = scalar["degenerate"] / units
    values["structured.aggregate_metrics.failed"] = scalar["failed"] / units
    values["structured.aggregate_metrics.overflow"] = tally.known["overflow"]
    values["dense.aggregate_metrics_dense.branches"] = (
        tracer.counters["dense.aggregate_metrics_dense"]["branches"] / units
    )
    values["validate.checks_failed"] = workload.checks_failed / (len(plain_times) + len(traced_times))
    values["trace.overhead_s"] = workload.units_per_pass * (
        statistics.median(traced_times) - statistics.median(plain_times)
    )
    values["trace.unattributed_s"] = (math.fsum(traced_times) - tracer.total_self_s()) / units
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def provenance(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    samples: dict[str, list[float]] = {}
    if not trace:
        samples["setup_s"] = measure_setup(SETUP_REPEATS)
    tally, plain_times, traced_times, tracer = measure(workload, seconds, trace)
    checks = {}
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        metrics = layer_metrics(tracer, workload, tally, plain_times, traced_times)
        tracer.write(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
        samples["untraced_run_s"] = plain_times
        samples["traced_run_s"] = traced_times
        # Self times of all spans should cover the traced units, less the
        # benchmark's own glue between calls.
        traced_run = workload.units_per_pass * statistics.median(traced_times)
        gap = metrics["trace.unattributed_s"]["value"]
        checks["self_times_cover_traced_run"] = {
            "traced_run_s": traced_run,
            "unattributed_s": gap,
            "ok": 0.0 <= gap <= 0.05 * traced_run + 1e-3,
        }
    else:
        samples["run_s_p90"] = plain_times
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "run_s_p90": float(np.percentile(plain_times, 90)),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "trace": int(trace),
        "result": result,
        "samples": {key: {"count": len(v), "spread": _spread(v), "values": v}
                    for key, v in samples.items()},
        "outcomes": {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_ratio": tally.failed / tally.attempted,
            "degenerate": tally.degenerate,
            "known_defects": dict(tally.known),
            "known_defect_ratio": sum(tally.known.values()) / tally.attempted,
            "problems": tally.problems,
        },
        "details": {"run_s_p50": statistics.median(plain_times), **workload.details()},
        "checks": checks,
        "provenance": provenance(seed),
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    _print_report(report)
    return result


def _print_report(report: dict) -> None:
    err = sys.stderr
    print(f"== {report['workload']} (trace {report['trace']})", file=err)
    for name, metric in report["result"]["metrics"].items():
        stats = report["samples"].get(name)
        extra = ""
        if stats:
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.3f}"
            extra = f"  (samples {stats['count']}, IQR/median {spread})"
        print(f"  {name:52s} {metric['value']:.6g} {metric['unit']}{extra}", file=err)
    for key, value in report["details"].items():
        print(f"  {key:52s} {value:.6g}", file=err)
    out = report["outcomes"]
    print(f"  verdict: correct={report['result']['correct']} attempted={out['attempted']} "
          f"failed={out['failed']} failed_ratio={out['failed_ratio']:.4g} "
          f"degenerate={out['degenerate']} known_defects={out['known_defects']} "
          f"known_defect_ratio={out['known_defect_ratio']:.4g}", file=err)
    for problem in out["problems"]:
        print(f"  problem: {problem}", file=err)
    for check in report["checks"].values():
        print(f"  self times add up to traced run_s: {'ok' if check['ok'] else 'NO'} "
              f"(unattributed {check['unattributed_s']:.6g} s of {check['traced_run_s']:.6g} s)",
              file=err)
    prov = report["provenance"]
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}", file=err)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    err = sys.stderr
    print("== summary", file=err)
    for name, result in results.items():
        metrics = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                            for k, m in result["metrics"].items() if k in END_TO_END)
        print(f"  {name:22s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {metrics}", file=err)
    return results
