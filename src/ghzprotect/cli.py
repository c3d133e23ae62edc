"""Command-line interface: point metrics, sweeps, optimization, reports.

Subcommands
-----------
metrics   probability, fidelity, and Fisher information at one point
optimize  single grid maximization at one damping strength
sweep     repeated maximization over a damping-strength grid
pareto    fidelity/probability trade-off scatter at one damping strength
figure    ready-to-plot data files for the standard report figures
validate  run the named self-check suite

Configuration is a flat ``key=value`` file; command-line flags override
file values, which override built-in defaults.  The effective
configuration is echoed as ``# key=value`` lines at the top of every
output, so stripping the comment prefix from a previous output yields a
config file that reproduces the run byte for byte.

Exit codes: 0 success, 1 failed validation checks, 2 usage or
configuration errors, 3 numeric degeneracy (no well-defined result at
the requested parameters).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .optimize import (
    UNIT_PROBABILITY,
    ConstraintInfeasibleError,
    GridSpec,
    Objective,
    _check_engine_convention,
    _point_row,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
    pareto_scan,
    sweep_r,
)
from .params import (
    TWO_PI,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
)
from .validate import format_report, run_validation

__all__ = ["ConfigError", "main"]

SCHEMA_VERSION = 1

FIGURE_IDS = ("2a", "2b", "2c", "3a", "3b", "4a", "4b", "5", "6a", "6b")

_UNIT_PROB_CONSTRAINT = "unit-probability"


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""


# --------------------------------------------------------------------------
# configuration keys: converters, validated domains, per-command defaults
# --------------------------------------------------------------------------

_INT_KEYS = {"n", "theta_steps", "eta_steps", "refine_iters", "seed"}
_FLOAT_KEYS = {
    "gamma", "phi0", "r", "theta", "eta",
    "r_from", "r_to", "r_step",
    "theta_min", "theta_max", "eta_min", "eta_max", "refine_shrink",
}
_CHOICE_KEYS = {
    "engine": tuple(e.value for e in Engine),
    "convention": tuple(c.value for c in Convention),
    "objective": tuple(o.value for o in Objective),
    "constraint": ("none", _UNIT_PROB_CONSTRAINT),
    "format": ("csv", "json"),
    "id": FIGURE_IDS,
    "command": ("metrics", "optimize", "sweep", "pareto", "figure", "validate"),
}
_FREE_KEYS = {"output"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | set(_CHOICE_KEYS) | _FREE_KEYS

_POINT_KEYS = ("eta", "r", "theta")
_GRID_KEYS = (
    "eta_max", "eta_min", "eta_steps",
    "refine_iters", "refine_shrink",
    "theta_max", "theta_min", "theta_steps",
)
_BASE_GRID_KEYS = tuple(k for k in _GRID_KEYS if not k.startswith("refine"))
_ENGINE_KEYS = ("convention", "engine", "gamma", "n", "phi0")
_IO_KEYS = ("format", "output")

_COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    "metrics": ("command",) + _ENGINE_KEYS + _IO_KEYS + _POINT_KEYS,
    "optimize": ("command",) + _ENGINE_KEYS + _IO_KEYS + _GRID_KEYS
    + ("constraint", "objective", "r"),
    "sweep": ("command",) + _ENGINE_KEYS + _IO_KEYS + _GRID_KEYS
    + ("constraint", "objective", "r_from", "r_step", "r_to"),
    "pareto": ("command",) + _ENGINE_KEYS + _IO_KEYS + _BASE_GRID_KEYS + ("r",),
    "figure": ("command", "gamma", "n", "phi0") + _IO_KEYS + _GRID_KEYS
    + ("id", "r"),
    "validate": ("command", "output", "seed"),
}


def _base_defaults() -> dict:
    return {
        "engine": Engine.STRUCTURED.value,
        "convention": Convention.PAPER.value,
        "n": 10,
        "gamma": math.pi / 2.0,
        "phi0": 0.0,
        "r": 0.5,
        "theta": math.pi / 2.0,
        "eta": 0.0,
        "objective": Objective.QFI.value,
        "constraint": "none",
        "r_from": 0.0,
        "r_to": 0.9,
        "r_step": 0.05,
        "theta_min": 0.0,
        "theta_max": math.pi,
        "theta_steps": 181,
        "eta_min": 0.0,
        "eta_max": TWO_PI,
        "eta_steps": 181,
        "refine_iters": 6,
        "refine_shrink": 0.2,
        "id": "2a",
        "seed": 7,
        "format": "csv",
        "output": "-",
    }


# The trade-off scatter lives on the mirror-free half of the rotation
# domain, so its default grid stops at pi.
_COMMAND_DEFAULT_OVERRIDES: dict[str, dict] = {
    "pareto": {"eta_max": math.pi},
}


def _convert(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}")
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
        return value
    if key in _CHOICE_KEYS:
        if raw not in _CHOICE_KEYS[key]:
            allowed = ", ".join(_CHOICE_KEYS[key])
            raise ConfigError(f"key {key!r} must be one of [{allowed}], got {raw!r}")
        return raw
    return raw


def parse_config_file(path: str) -> dict:
    """Read a flat key=value config file ('#' starts a comment line)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = _convert(key, value)
    return mapping


def resolve_config(command: str, file_values: dict, flag_values: dict) -> dict:
    """Merge defaults, config-file values, and flags for one command."""
    keys = _COMMAND_KEYS[command]
    defaults = _base_defaults()
    defaults.update(_COMMAND_DEFAULT_OVERRIDES.get(command, {}))

    file_command = file_values.get("command")
    if file_command is not None and file_command != command:
        raise ConfigError(
            f"config file is for command {file_command!r}, "
            f"but {command!r} was invoked"
        )
    for key in file_values:
        if key != "command" and key not in keys:
            raise ConfigError(f"key {key!r} is not accepted by command {command!r}")

    cfg = {key: defaults[key] for key in keys if key != "command"}
    cfg["command"] = command
    explicit = set()
    for layer in (file_values, flag_values):
        for key, value in layer.items():
            if key == "command":
                continue
            cfg[key] = value
            explicit.add(key)

    # The scatter figure reuses the trade-off scan, whose rotation grid
    # must stop at pi; apply that default only when nothing set eta_max.
    if command == "figure" and cfg.get("id") == "5" and "eta_max" not in explicit:
        cfg["eta_max"] = math.pi

    if cfg.get("constraint") == _UNIT_PROB_CONSTRAINT:
        if "objective" not in explicit:
            cfg["objective"] = "fidelity"
        elif cfg["objective"] != "fidelity":
            raise ConfigError(
                "constraint 'unit-probability' applies to objective "
                "'fidelity' only"
            )
    return cfg


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _header_lines(cfg: dict) -> list[str]:
    lines = [f"# command={cfg['command']}"]
    for key in sorted(k for k in cfg if k != "command"):
        lines.append(f"# {key}={_fmt(cfg[key])}")
    return lines


def _render_table(
    cfg: dict, schema: str, notes: list[str], columns: list[str], rows: list[list]
) -> str:
    if cfg["format"] == "json":
        head = {"config": cfg, "schema": schema, "notes": notes}
        lines = [json.dumps(head, sort_keys=True, separators=(",", ":"))]
        for row in rows:
            record = dict(zip(columns, row))
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    lines = _header_lines(cfg)
    lines.append(f"## schema={schema}")
    for note in notes:
        lines.append(f"## note={note}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _schema(cfg: dict, suffix: str = "") -> str:
    tag = cfg["command"] + (f"-{suffix}" if suffix else "")
    return f"ghzprotect-{tag}-{SCHEMA_VERSION}"


def _write_output(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

METRICS_COLUMNS = [
    "engine", "convention", "r", "theta", "eta",
    "probability", "fidelity", "qfi", "imag_residual",
]
OPTIMIZE_COLUMNS = [
    "objective", "engine", "convention", "r", "theta_star", "eta_star", "value",
    "probability", "fidelity", "qfi", "imag_residual", "on_boundary",
]
SWEEP_COLUMNS = OPTIMIZE_COLUMNS + [
    "baseline_probability", "baseline_fidelity", "baseline_qfi",
]
PARETO_COLUMNS = [
    "engine", "convention", "r", "theta", "eta",
    "fidelity", "probability", "baseline_fidelity",
]

_REFERENCE_NOTE = (
    "columns for the alternative weak-measurement reference scheme are "
    "omitted; they are not derivable from this implementation"
)


def _metrics_cells(row: MetricsRow) -> list:
    return [
        row.probability, row.fidelity, row.qfi, row.imag_residual,
    ]


def _base_params(cfg: dict) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=cfg["n"],
        gamma=cfg["gamma"],
        phi0=cfg["phi0"],
        theta=0.0,
        eta=0.0,
        r=0.0,
    )


def _grid_spec(cfg: dict) -> GridSpec:
    return GridSpec(
        theta_range=(cfg["theta_min"], cfg["theta_max"], cfg["theta_steps"]),
        eta_range=(cfg["eta_min"], cfg["eta_max"], cfg["eta_steps"]),
        refine_iters=cfg["refine_iters"],
        refine_shrink=cfg["refine_shrink"],
    )


def _pareto_grid(cfg: dict) -> GridSpec:
    return GridSpec(
        theta_range=(cfg["theta_min"], cfg["theta_max"], cfg["theta_steps"]),
        eta_range=(cfg["eta_min"], cfg["eta_max"], cfg["eta_steps"]),
        refine_iters=0,
    )


def _run_metrics(cfg: dict) -> tuple[str, int]:
    engine = Engine(cfg["engine"])
    convention = Convention(cfg["convention"])
    p = ProtocolParams(
        n_qubits=cfg["n"],
        gamma=cfg["gamma"],
        phi0=cfg["phi0"],
        theta=cfg["theta"],
        eta=cfg["eta"],
        r=cfg["r"],
        extended_theta=True,
    )
    _check_engine_convention(engine, convention)
    row = _point_row(p, engine, convention)
    cells = [
        row.engine.value, row.convention.value, row.r, row.theta, row.eta,
    ] + _metrics_cells(row)
    text = _render_table(cfg, _schema(cfg), [], METRICS_COLUMNS, [cells])
    return text, 0


def _optimize_result_cells(res) -> list:
    return [
        res.objective.value, res.engine.value, res.convention.value, res.r,
        res.theta_star, res.eta_star, res.value,
        res.companion.probability, res.companion.fidelity, res.companion.qfi,
        res.companion.imag_residual, res.on_boundary,
    ]


def _run_optimize(cfg: dict) -> tuple[str, int]:
    engine = Engine(cfg["engine"])
    convention = Convention(cfg["convention"])
    base = _base_params(cfg)
    grid = _grid_spec(cfg)
    if cfg["constraint"] == _UNIT_PROB_CONSTRAINT:
        res = maximize_fidelity_at_unit_probability(
            cfg["r"], base, grid, engine=engine, convention=convention
        )
    else:
        res = maximize_metric(
            Objective(cfg["objective"]), cfg["r"], base, grid,
            engine=engine, convention=convention,
        )
    text = _render_table(
        cfg, _schema(cfg), [], OPTIMIZE_COLUMNS, [_optimize_result_cells(res)]
    )
    return text, 0


def _sweep_r_grid(cfg: dict) -> list[float]:
    r_from, r_to, r_step = cfg["r_from"], cfg["r_to"], cfg["r_step"]
    if r_step <= 0.0:
        raise ConfigError(f"r_step must be positive, got {r_step!r}")
    if r_to < r_from:
        raise ConfigError(f"r_to={r_to!r} is below r_from={r_from!r}")
    count = int(math.floor((r_to - r_from) / r_step + 1e-9)) + 1
    rs = [r_from + i * r_step for i in range(count)]
    # a last step landing on 1.0 may overshoot by one rounding ulp
    if rs and rs[-1] > 1.0 and rs[-1] - 1.0 < 1e-12:
        rs[-1] = 1.0
    return rs


def _sweep_mode(cfg: dict):
    if cfg["constraint"] == _UNIT_PROB_CONSTRAINT:
        return UNIT_PROBABILITY
    return Objective(cfg["objective"])


def _run_sweep(cfg: dict) -> tuple[str, int]:
    engine = Engine(cfg["engine"])
    convention = Convention(cfg["convention"])
    results = sweep_r(
        _sweep_mode(cfg), _sweep_r_grid(cfg), _base_params(cfg), _grid_spec(cfg),
        engine=engine, convention=convention,
    )
    rows = []
    for res in results:
        rows.append(
            _optimize_result_cells(res)
            + [res.baseline.probability, res.baseline.fidelity, res.baseline.qfi]
        )
    text = _render_table(cfg, _schema(cfg), [], SWEEP_COLUMNS, rows)
    return text, 0


def _run_pareto(cfg: dict) -> tuple[str, int]:
    engine = Engine(cfg["engine"])
    convention = Convention(cfg["convention"])
    scan = pareto_scan(
        cfg["r"], _base_params(cfg), _pareto_grid(cfg),
        engine=engine, convention=convention,
    )
    rows = [
        [
            scan.engine.value, scan.convention.value, scan.r,
            pt.theta, pt.eta, pt.fidelity, pt.probability,
            scan.baseline_fidelity,
        ]
        for pt in scan.points
    ]
    text = _render_table(cfg, _schema(cfg), [], PARETO_COLUMNS, rows)
    return text, 0


_FIGURE_R_GRID = tuple(float(x) for x in np.linspace(0.0, 1.0, 21))

_QFI_GAMMAS = ((90, math.pi / 2), (120, 2 * math.pi / 3),
               (135, 3 * math.pi / 4), (150, 5 * math.pi / 6))
_UNITPROB_GAMMAS = ((30, math.pi / 6), (45, math.pi / 4), (60, math.pi / 3),
                    (75, 5 * math.pi / 12), (90, math.pi / 2))


def _figure_sweep(cfg: dict, mode, gamma: float | None = None) -> list:
    base = _base_params(cfg)
    if gamma is not None:
        base = dataclasses.replace(base, gamma=gamma)
    return sweep_r(
        mode, list(_FIGURE_R_GRID), base, _grid_spec(cfg),
        engine=Engine.STRUCTURED, convention=Convention.PAPER,
    )


def _run_figure(cfg: dict) -> tuple[str, int]:
    fig = cfg["id"]
    notes: list[str] = []
    if fig in ("2a", "2b", "2c", "3a", "3b"):
        notes.append(_REFERENCE_NOTE)

    if fig in ("2a", "2b", "2c"):
        results = _figure_sweep(cfg, Objective.QFI)
        if fig == "2a":
            columns = ["r", "qfi", "qfi_baseline"]
            rows = [[res.r, res.value, res.baseline.qfi] for res in results]
        elif fig == "2b":
            columns = ["r", "theta_star", "eta_star"]
            rows = [[res.r, res.theta_star, res.eta_star] for res in results]
        else:
            columns = ["r", "fidelity", "probability"]
            rows = [
                [res.r, res.companion.fidelity, res.companion.probability]
                for res in results
            ]
    elif fig in ("3a", "3b"):
        results = _figure_sweep(cfg, Objective.FIDELITY)
        if fig == "3a":
            columns = ["r", "fidelity", "probability"]
            rows = [
                [res.r, res.value, res.companion.probability] for res in results
            ]
        else:
            columns = ["r", "theta_star", "eta_star"]
            rows = [[res.r, res.theta_star, res.eta_star] for res in results]
    elif fig in ("4a", "4b"):
        results = _figure_sweep(cfg, UNIT_PROBABILITY)
        if fig == "4a":
            columns = ["r", "probability", "fidelity"]
            rows = [
                [res.r, res.companion.probability, res.value] for res in results
            ]
        else:
            columns = ["r", "theta_star", "eta_star"]
            rows = [[res.r, res.theta_star, res.eta_star] for res in results]
    elif fig == "5":
        scan = pareto_scan(
            cfg["r"], _base_params(cfg), _pareto_grid(cfg),
            engine=Engine.STRUCTURED, convention=Convention.PAPER,
        )
        columns = ["theta", "eta", "fidelity", "probability", "fidelity_baseline"]
        rows = [
            [pt.theta, pt.eta, pt.fidelity, pt.probability, scan.baseline_fidelity]
            for pt in scan.points
        ]
    else:  # 6a / 6b
        notes.append("the input-angle set is fixed for this figure; "
                     "the gamma key is ignored")
        if fig == "6a":
            columns = ["r"] + [f"qfi_gamma_{deg}" for deg, _ in _QFI_GAMMAS]
            sweeps = [
                _figure_sweep(cfg, Objective.QFI, gamma) for _, gamma in _QFI_GAMMAS
            ]
        else:
            columns = ["r"] + [
                f"fidelity_gamma_{deg}" for deg, _ in _UNITPROB_GAMMAS
            ]
            sweeps = [
                _figure_sweep(cfg, UNIT_PROBABILITY, gamma)
                for _, gamma in _UNITPROB_GAMMAS
            ]
        rows = [
            [r] + [sweep[i].value for sweep in sweeps]
            for i, r in enumerate(_FIGURE_R_GRID)
        ]

    text = _render_table(cfg, _schema(cfg, fig), notes, columns, rows)
    return text, 0


def _run_validate(cfg: dict) -> tuple[str, int]:
    results = run_validation(seed=cfg["seed"])
    report = format_report(results, cfg["seed"])
    lines = _header_lines(cfg)
    text = "\n".join(lines) + "\n" + report
    code = 0 if all(res.passed for res in results) else 1
    return text, code


_RUNNERS = {
    "metrics": _run_metrics,
    "optimize": _run_optimize,
    "sweep": _run_sweep,
    "pareto": _run_pareto,
    "figure": _run_figure,
    "validate": _run_validate,
}


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------


def _add_io_flags(sub: argparse.ArgumentParser, with_format: bool = True) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--output", help="output path, or - for stdout")
    if with_format:
        sub.add_argument("--format", choices=list(_CHOICE_KEYS["format"]),
                         help="output serialization")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--engine", choices=list(_CHOICE_KEYS["engine"]))
    sub.add_argument("--convention", choices=list(_CHOICE_KEYS["convention"]))
    _add_input_flags(sub)


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="number of qubits")
    sub.add_argument("--gamma", type=float, help="input superposition angle")
    sub.add_argument("--phi0", type=float, help="input superposition phase")


def _add_grid_flags(sub: argparse.ArgumentParser, refine: bool = True) -> None:
    sub.add_argument("--theta-min", type=float)
    sub.add_argument("--theta-max", type=float)
    sub.add_argument("--theta-steps", type=int)
    sub.add_argument("--eta-min", type=float)
    sub.add_argument("--eta-max", type=float)
    sub.add_argument("--eta-steps", type=int)
    if refine:
        sub.add_argument("--refine-iters", type=int)
        sub.add_argument("--refine-shrink", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzprotect",
        description="Metrics and optimization for measurement-flanked "
        "amplitude-damping protection of entangled phase probes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    metrics = commands.add_parser(
        "metrics", help="evaluate one parameter point")
    _add_model_flags(metrics)
    metrics.add_argument("--r", type=float, help="damping strength")
    metrics.add_argument("--theta", type=float, help="measurement strength angle")
    metrics.add_argument("--eta", type=float, help="feedback rotation angle")
    _add_io_flags(metrics)

    optimize = commands.add_parser(
        "optimize", help="maximize one metric on the angle grid")
    _add_model_flags(optimize)
    optimize.add_argument("--r", type=float, help="damping strength")
    optimize.add_argument("--objective", choices=list(_CHOICE_KEYS["objective"]))
    optimize.add_argument("--constraint", choices=list(_CHOICE_KEYS["constraint"]))
    _add_grid_flags(optimize)
    _add_io_flags(optimize)

    sweep = commands.add_parser(
        "sweep", help="repeat the maximization over a damping grid")
    _add_model_flags(sweep)
    sweep.add_argument("--objective", choices=list(_CHOICE_KEYS["objective"]))
    sweep.add_argument("--constraint", choices=list(_CHOICE_KEYS["constraint"]))
    sweep.add_argument("--r-from", type=float)
    sweep.add_argument("--r-to", type=float)
    sweep.add_argument("--r-step", type=float)
    _add_grid_flags(sweep)
    _add_io_flags(sweep)

    pareto = commands.add_parser(
        "pareto", help="fidelity/probability scatter over the angle grid")
    _add_model_flags(pareto)
    pareto.add_argument("--r", type=float, help="damping strength")
    _add_grid_flags(pareto, refine=False)
    _add_io_flags(pareto)

    figure = commands.add_parser(
        "figure", help="data files for the standard report figures")
    figure.add_argument("--id", choices=list(FIGURE_IDS), help="figure identifier")
    _add_input_flags(figure)
    figure.add_argument("--r", type=float,
                        help="damping strength (scatter figure only)")
    _add_grid_flags(figure)
    _add_io_flags(figure)

    validate = commands.add_parser(
        "validate", help="run the named self-check suite")
    validate.add_argument("--seed", type=int, help="random stream seed")
    _add_io_flags(validate, with_format=False)

    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    return {
        key: value
        for key, value in vars(args).items()
        if key not in skip and value is not None
    }


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_values, _flag_values(args))
        text, code = _RUNNERS[args.command](cfg)
        _write_output(cfg["output"], text)
        return code
    except (DegeneracyError, ConstraintInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
