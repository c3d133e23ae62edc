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
file values, which override built-in defaults.  One table (``_KEYS``)
defines every key: its kind, default and help.  Each key a command
accepts is also its flag (``theta_min`` is ``--theta-min``), and a flag's
value passes the same check as the file's, so a non-finite number or an
unknown choice exits 2 either way, with the same message.  The effective
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
from typing import NamedTuple

import numpy as np

from .closedform import VERBATIM_MAX_QUBITS, metrics_closedform
from .dense import DENSE_MAX_QUBITS, aggregate_metrics_dense
from .optimize import (
    UNIT_PROBABILITY,
    ConstraintInfeasibleError,
    GridSpec,
    Objective,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
    pareto_scan,
    sweep_r,
)
from .params import (
    DEFAULT_MAX_QUBITS,
    TWO_PI,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
)
from .structured import aggregate_metrics
from .validate import format_report, run_validation

__all__ = ["ConfigError", "main"]

SCHEMA_VERSION = 1

FIGURE_IDS = ("2a", "2b", "2c", "3a", "3b", "4a", "4b", "5", "6a", "6b")

_UNIT_PROB_CONSTRAINT = "unit-probability"


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""


# --------------------------------------------------------------------------
# configuration keys: one table of kinds, defaults and help; keys per command
# --------------------------------------------------------------------------

_POINT_KEYS = ("eta", "r", "theta")
_GRID_KEYS = (
    "eta_max", "eta_min", "eta_steps",
    "refine_iters", "refine_shrink",
    "theta_max", "theta_min", "theta_steps",
)
_BASE_GRID_KEYS = tuple(k for k in _GRID_KEYS if not k.startswith("refine"))
_MODEL_KEYS = ("convention", "gamma", "n", "phi0")
_IO_KEYS = ("format", "output")

#: The keys each command accepts, from a config file or as flags.
_COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    "metrics": ("convention", "engine", "gamma", "n", "phi0") + _IO_KEYS
    + _POINT_KEYS,
    "optimize": _MODEL_KEYS + _IO_KEYS + _GRID_KEYS
    + ("constraint", "objective", "r"),
    "sweep": _MODEL_KEYS + _IO_KEYS + _GRID_KEYS
    + ("constraint", "objective", "r_from", "r_step", "r_to"),
    "pareto": _MODEL_KEYS + _IO_KEYS + _BASE_GRID_KEYS + ("r",),
    "figure": ("gamma", "n", "phi0") + _IO_KEYS + _GRID_KEYS + ("id", "r"),
    "validate": ("output", "seed"),
}


class _Key(NamedTuple):
    """One configuration key.

    ``kind`` is int, float (finite), str (free text) or the tuple of the
    accepted values.  Every command that lists the key accepts it in a
    config file and as the flag ``--<key>``, with dashes for underscores.
    """

    kind: object
    default: object
    help: str


_KEYS: dict[str, _Key] = {
    "command": _Key(tuple(_COMMAND_KEYS), None, "the command a config file is for"),
    "engine": _Key(tuple(e.value for e in Engine), Engine.STRUCTURED.value,
                   "evaluation engine"),
    "convention": _Key(tuple(c.value for c in Convention), Convention.PAPER.value,
                       "rotation convention"),
    "n": _Key(int, 10, "number of qubits"),
    "gamma": _Key(float, math.pi / 2.0, "input superposition angle"),
    "phi0": _Key(float, 0.0, "input superposition phase"),
    "r": _Key(float, 0.5, "damping strength"),
    "theta": _Key(float, math.pi / 2.0, "measurement strength angle"),
    "eta": _Key(float, 0.0, "feedback rotation angle"),
    "objective": _Key(tuple(o.value for o in Objective), Objective.QFI.value,
                      "metric to maximize"),
    "constraint": _Key(("none", _UNIT_PROB_CONSTRAINT), "none", "search constraint"),
    "r_from": _Key(float, 0.0, "first damping strength"),
    "r_to": _Key(float, 0.9, "last damping strength"),
    "r_step": _Key(float, 0.05, "damping strength step"),
    "theta_min": _Key(float, 0.0, "lower end of the theta grid"),
    "theta_max": _Key(float, math.pi, "upper end of the theta grid"),
    "theta_steps": _Key(int, 181, "points of the theta grid"),
    "eta_min": _Key(float, 0.0, "lower end of the eta grid"),
    "eta_max": _Key(float, TWO_PI, "upper end of the eta grid"),
    "eta_steps": _Key(int, 181, "points of the eta grid"),
    "refine_iters": _Key(int, 6, "grid refinement rounds"),
    "refine_shrink": _Key(float, 0.2, "window shrink factor per refinement"),
    "id": _Key(FIGURE_IDS, "2a", "figure identifier"),
    "seed": _Key(int, 7, "random stream seed"),
    "format": _Key(("csv", "json"), "csv", "output serialization"),
    "output": _Key(str, "-", "output path, or - for stdout"),
}

def _convert(key: str, raw: str):
    """The value of ``key`` given as the text ``raw``, by a file or a flag."""
    kind = _KEYS[key].kind
    if isinstance(kind, tuple):
        if raw not in kind:
            allowed = ", ".join(kind)
            raise ConfigError(f"key {key!r} must be one of [{allowed}], got {raw!r}")
        return raw
    if kind is int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}")
        if key == "seed" and value < 0:  # numpy's refusal would name no key
            raise ConfigError(f"key {key!r} must be non-negative, got {value}")
        return value
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
        return value
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = _convert(key, value)
    return mapping


def resolve_config(command: str, file_values: dict, flag_values: dict) -> dict:
    """Merge defaults, config-file values, and flags for one command."""
    keys = _COMMAND_KEYS[command]
    file_command = file_values.get("command")
    if file_command is not None and file_command != command:
        raise ConfigError(
            f"config file is for command {file_command!r}, "
            f"but {command!r} was invoked"
        )
    for key in file_values:
        if key != "command" and key not in keys:
            raise ConfigError(f"key {key!r} is not accepted by command {command!r}")

    cfg = {key: _KEYS[key].default for key in keys}
    cfg["command"] = command
    explicit = set()
    for layer in (file_values, flag_values):
        for key, value in layer.items():
            if key == "command":
                continue
            cfg[key] = value
            explicit.add(key)

    # The trade-off scan (pareto, and figure 5 that reuses it) lives on the
    # mirror-free half of the rotation domain: its grid stops at pi unless
    # something set eta_max.
    if (command == "pareto" or cfg.get("id") == "5") and "eta_max" not in explicit:
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


#: The largest register each engine evaluates at one point.
_ENGINE_MAX_QUBITS = {
    Engine.STRUCTURED: DEFAULT_MAX_QUBITS,
    Engine.DENSE: DENSE_MAX_QUBITS,
    Engine.CLOSEDFORM_VERBATIM: VERBATIM_MAX_QUBITS,
}


def _run_metrics(cfg: dict) -> tuple[str, int]:
    """Evaluate one parameter point."""
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
    if engine is Engine.CLOSEDFORM_VERBATIM and convention is not Convention.PAPER:
        raise ValueError(
            "the closed-form engine evaluates the two-sided rotation algebra "
            "and only supports the paper convention"
        )
    ceiling = _ENGINE_MAX_QUBITS[engine]
    if p.n_qubits > ceiling:
        raise ValueError(
            f"n_qubits={p.n_qubits} exceeds the configured maximum {ceiling} "
            f"of the {engine.value} engine"
        )
    if engine is Engine.STRUCTURED:
        row = aggregate_metrics(p, convention)
    elif engine is Engine.DENSE:
        row = aggregate_metrics_dense(p, convention)
    else:
        row = metrics_closedform(p)
    cells = [
        row.engine.value, row.convention.value, row.r, row.theta, row.eta,
    ] + _metrics_cells(row)
    text = _render_table(cfg, _schema(cfg), [], METRICS_COLUMNS, [cells])
    return text, 0


def _optimize_result_cells(res) -> list:
    return [
        res.objective.value, res.companion.engine.value, res.convention.value,
        res.r, res.theta_star, res.eta_star, res.value,
        res.companion.probability, res.companion.fidelity, res.companion.qfi,
        res.companion.imag_residual, res.on_boundary,
    ]


def _run_optimize(cfg: dict) -> tuple[str, int]:
    """Maximize one metric on the angle grid."""
    convention = Convention(cfg["convention"])
    base = _base_params(cfg)
    grid = _grid_spec(cfg)
    if cfg["constraint"] == _UNIT_PROB_CONSTRAINT:
        res = maximize_fidelity_at_unit_probability(
            cfg["r"], base, grid, convention=convention
        )
    else:
        res = maximize_metric(
            Objective(cfg["objective"]), cfg["r"], base, grid, convention=convention
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
    """Repeat the maximization over a damping grid."""
    results = sweep_r(
        _sweep_mode(cfg), _sweep_r_grid(cfg), _base_params(cfg), _grid_spec(cfg),
        convention=Convention(cfg["convention"]),
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
    """Fidelity/probability scatter over the angle grid."""
    scan = pareto_scan(
        cfg["r"], _base_params(cfg), _pareto_grid(cfg),
        convention=Convention(cfg["convention"]),
    )
    rows = [
        [
            Engine.STRUCTURED.value, scan.convention.value, scan.r,
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
        convention=Convention.PAPER,
    )


def _run_figure(cfg: dict) -> tuple[str, int]:
    """Data files for the standard report figures."""
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
            convention=Convention.PAPER,
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
    """Run the named self-check suite."""
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


def _flag(key: str) -> str:
    """The command-line flag of a configuration key."""
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of the key table, a flag per key, plus --config."""
    parser = argparse.ArgumentParser(
        prog="ghzprotect",
        description="Metrics and optimization for measurement-flanked "
        "amplitude-damping protection of entangled phase probes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        sub = commands.add_parser(command, help=_RUNNERS[command].__doc__)
        sub.add_argument("--config", help="flat key=value configuration file")
        for key in keys:
            kind = _KEYS[key].kind
            sub.add_argument(
                _flag(key),
                metavar="{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None,
                help=_KEYS[key].help,
            )
    return parser


def _join_number_values(argv: list[str]) -> list[str]:
    """``argv`` with each key flag and the negative number after it joined.

    argparse reads a separate token such as ``-1e-3`` or ``-inf`` as an
    option, which leaves the flag before it without a value.  Written
    ``--phi0=-1e-3``, the token reaches :func:`_convert` as the flag's
    value, as a file's does.
    """
    flags = {_flag(key) for keys in _COMMAND_KEYS.values() for key in keys}
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _flag_values(args: argparse.Namespace) -> dict:
    """The keys given as flags, each checked as in a config file."""
    return {
        key: _convert(key, raw)
        for key, raw in vars(args).items()
        if key not in ("command", "config") and raw is not None
    }


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(
            _join_number_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        flag_values = _flag_values(args)
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_values, flag_values)
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
