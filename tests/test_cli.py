"""End-to-end tests of the command-line interface.

Each test invokes ``main`` in-process and inspects the captured output,
covering the config layering, serialization contract, and exit codes.
"""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzprotect import cli
from ghzprotect.cli import (
    FIGURE_IDS,
    METRICS_COLUMNS,
    OPTIMIZE_COLUMNS,
    PARETO_COLUMNS,
    SWEEP_COLUMNS,
    main,
)
from ghzprotect.optimize import UNIT_PROBABILITY, GridSpec, Objective, pareto_scan, sweep_r
from ghzprotect.params import Convention, Engine, ProtocolParams

PI = math.pi

# Coarse but sufficient grid flags to keep tests fast.
COARSE = [
    "--theta-steps", "41", "--eta-steps", "41", "--refine-iters", "2",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(out: str):
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def header_block(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            pairs[key] = value
    return pairs


class TestMetricsCommand:
    def test_identity_point(self, capsys):
        code, out, _ = run_cli(capsys, [
            "metrics", "--engine", "structured", "--convention", "paper",
            "--n", "10", "--r", "0", "--theta", repr(PI / 2), "--eta", "0",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == METRICS_COLUMNS
        (row,) = rows
        assert abs(float(row["probability"]) - 1.0) < 1e-9
        assert abs(float(row["fidelity"]) - 1.0) < 1e-9
        assert abs(float(row["qfi"]) - 100.0) < 1e-9
        assert row["engine"] == "structured"
        assert row["convention"] == "paper"

    def test_identity_point_at_the_qubit_cap(self, capsys):
        # Every class there has |A+B| = 2^-64: its information counts.
        code, out, _ = run_cli(capsys, [
            "metrics", "--n", "64", "--r", "0", "--theta", repr(PI / 2),
            "--convention", "physical",
        ])
        assert code == 0
        (row,) = parse_table(out)[1]
        assert row["qfi"] == "4096"

    def test_engine_variants_agree_at_identity(self, capsys):
        values = {}
        for engine in (e.value for e in Engine):
            code, out, _ = run_cli(capsys, [
                "metrics", "--engine", engine, "--n", "4",
                "--r", "0", "--theta", repr(PI / 2), "--eta", "0",
            ])
            assert code == 0
            _, rows = parse_table(out)
            values[engine] = float(rows[0]["fidelity"])
            assert rows[0]["engine"] == engine
        assert max(values.values()) - min(values.values()) < 1e-9

    def test_dense_qubit_limit_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["metrics", "--engine", "dense", "--n", "12"])
        assert code == 2
        assert "error:" in err

    def test_closedform_rejects_physical_convention(self, capsys):
        code, _, err = run_cli(capsys, [
            "metrics", "--engine", "closedform_verbatim",
            "--convention", "physical",
        ])
        assert code == 2
        assert "convention" in err

    def test_removed_appendix_engine_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "metrics", "--engine", "closedform_appendix",
        ])
        assert code == 2
        assert "structured" in err
        config = tmp_path / "old.cfg"
        config.write_text("engine=closedform_appendix\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "structured" in err

    def test_physical_rotation_invariance(self, capsys):
        outputs = []
        for eta in ("2.1", "0"):
            code, out, _ = run_cli(capsys, [
                "metrics", "--convention", "physical", "--n", "3",
                "--r", "0.4", "--theta", "0.8", "--eta", eta,
            ])
            assert code == 0
            _, rows = parse_table(out)
            outputs.append(rows[0])
        with_eta, without_eta = outputs
        assert abs(
            float(with_eta["probability"]) - float(without_eta["probability"])
        ) < 1e-12
        assert abs(float(with_eta["qfi"]) - float(without_eta["qfi"])) < 1e-12

    def test_degenerate_point_exits_3(self, capsys):
        code, _, err = run_cli(capsys, [
            "metrics", "--convention", "paper", "--n", "2",
            "--r", "0", "--theta", repr(PI / 2), "--eta", repr(PI / 2),
        ])
        assert code == 3
        assert "vanishes" in err

    def test_out_of_range_parameter_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["metrics", "--r", "1.5"])
        assert code == 2


class TestConfigLayering:
    def test_flags_override_file_overrides_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# a comment line\n"
            "command=metrics\n"
            "r=0.3\n"
            "theta=0.8\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, [
            "metrics", "--config", str(config), "--theta", "0.9",
        ])
        assert code == 0
        echoed = header_block(out)
        assert float(echoed["r"]) == 0.3  # from the file
        assert float(echoed["theta"]) == 0.9  # flag beats the file
        assert int(echoed["n"]) == 10  # untouched default

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("rr=0.3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "rr" in err

    def test_key_not_accepted_by_command_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("objective=qfi\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "objective" in err

    def test_command_mismatch_exits_2(self, capsys, tmp_path):
        config = tmp_path / "other.cfg"
        config.write_text("command=sweep\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "sweep" in err

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("gamma 1.5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "key=value" in err

    def test_bad_number_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("r=zero\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "metrics", "--config", str(tmp_path / "absent.cfg"),
        ])
        assert code == 2

    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        argv = [
            "metrics", "--convention", "physical", "--n", "3",
            "--r", "0.4", "--theta", "0.8", "--eta", "2.1",
        ]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        config = tmp_path / "echo.cfg"
        config.write_text(
            "\n".join(
                line[2:] for line in first.splitlines() if line.startswith("# ")
            ) + "\n",
            encoding="utf-8",
        )
        code, second, _ = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 0
        assert first == second

    def test_threads_key_of_older_payloads_is_unknown(self, capsys, tmp_path):
        # Older payloads echoed an inert `threads` setting; a config
        # stripped from one is refused rather than silently accepted.
        config = tmp_path / "old.cfg"
        config.write_text("command=metrics\nthreads=auto\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["metrics", "--config", str(config)])
        assert code == 2
        assert "unknown key" in err

    def test_output_file_target(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, [
            "metrics", "--r", "0.2", "--output", str(target),
        ])
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert "probability" in text


class TestJsonFormat:
    def test_first_line_is_config_then_rows(self, capsys):
        code, out, _ = run_cli(capsys, [
            "metrics", "--format", "json", "--n", "2", "--r", "0.3",
        ])
        assert code == 0
        lines = out.splitlines()
        head = json.loads(lines[0])
        assert head["config"]["command"] == "metrics"
        assert head["config"]["r"] == 0.3
        assert head["schema"] == "ghzprotect-metrics-1"
        row = json.loads(lines[1])
        assert set(row) == set(METRICS_COLUMNS)
        assert abs(row["probability"] - 1.0) < 1e-12

    def test_json_matches_csv_values(self, capsys):
        argv = ["metrics", "--n", "4", "--r", "0.25", "--theta", "0.7"]
        code, csv_out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_table(csv_out)
        code, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        record = json.loads(json_out.splitlines()[1])
        assert float(rows[0]["fidelity"]) == record["fidelity"]
        assert float(rows[0]["qfi"]) == record["qfi"]


#: Small runs of the three search commands, which take no engine key.
SEARCH_RUNS = {
    "optimize": ["optimize", "--r", "0.3"] + COARSE,
    "sweep": ["sweep", "--r-from", "0.1", "--r-to", "0.2", "--r-step", "0.1"] + COARSE,
    "pareto": ["pareto", "--theta-steps", "5", "--eta-steps", "5"],
}


class TestSearchCommandsTakeNoEngine:
    """Searches run on the structured engine alone; only `metrics` picks one."""

    @pytest.mark.parametrize("command", SEARCH_RUNS)
    def test_output_keeps_the_engine_column_without_an_engine_key(
        self, capsys, command
    ):
        code, out, _ = run_cli(capsys, SEARCH_RUNS[command])
        assert code == 0
        assert "engine" not in header_block(out)
        _, rows = parse_table(out)
        assert rows and {row["engine"] for row in rows} == {"structured"}

    @pytest.mark.parametrize("command", SEARCH_RUNS)
    def test_engine_flag_and_key_exit_2(self, capsys, tmp_path, command):
        argv = SEARCH_RUNS[command]
        code, out, _ = run_cli(capsys, argv + ["--engine", "structured"])
        assert (code, out) == (2, "")
        config = tmp_path / "old.cfg"
        config.write_text("engine=structured\n", encoding="utf-8")
        code, out, err = run_cli(capsys, argv + ["--config", str(config)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: key 'engine' is not accepted by command {command!r}\n"
        )


class TestOptimizeCommand:
    def test_constrained_fidelity_example(self, capsys):
        code, out, _ = run_cli(capsys, [
            "optimize", "--objective", "fidelity",
            "--constraint", "unit-probability",
            "--gamma", "1.0472", "--r", "0.9", *COARSE,
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == OPTIMIZE_COLUMNS
        (row,) = rows
        gamma = 1.0472
        cap = math.cos(gamma / 2) ** 4 + math.sin(gamma / 2) ** 4
        assert abs(float(row["value"]) - cap) < 1e-9
        assert abs(float(row["probability"]) - 1.0) < 1e-9
        assert row["on_boundary"] == "true"
        assert row["objective"] == "fidelity"

    def test_constraint_implies_fidelity_objective(self, capsys):
        code, out, _ = run_cli(capsys, [
            "optimize", "--constraint", "unit-probability", "--r", "0.3", *COARSE,
        ])
        assert code == 0
        assert header_block(out)["objective"] == "fidelity"

    def test_constraint_conflicts_with_other_objective(self, capsys):
        code, _, err = run_cli(capsys, [
            "optimize", "--objective", "qfi",
            "--constraint", "unit-probability", "--r", "0.3",
        ])
        assert code == 2
        assert "fidelity" in err

    def test_probability_objective_peaks_at_one(self, capsys):
        code, out, _ = run_cli(capsys, [
            "optimize", "--objective", "probability", "--r", "0.7", *COARSE,
        ])
        assert code == 0
        _, rows = parse_table(out)
        assert abs(float(rows[0]["value"]) - 1.0) < 1e-9
        assert float(rows[0]["eta_star"]) == 0.0

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, [
            "optimize", "--r", "0.3", "--theta-steps", "1",
        ])
        assert code == 2


class TestSweepCommand:
    def test_unit_probability_plateau_with_baseline(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--constraint", "unit-probability",
            "--r-from", "0.3", "--r-to", "0.4", "--r-step", "0.05",
            "--theta-steps", "41", "--refine-iters", "2",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == SWEEP_COLUMNS
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row["value"]) - 0.5) < 0.02
            assert float(row["eta_star"]) == 0.0
            assert abs(float(row["probability"]) - 1.0) < 1e-9
        first = rows[0]
        assert abs(float(first["baseline_probability"]) - 1.0) < 1e-12
        assert abs(float(first["baseline_fidelity"]) - 0.34109835745) < 1e-9
        assert abs(float(first["baseline_qfi"]) - 5.494272925594667) < 1e-9

    def test_r_grid_validation(self, capsys):
        code, _, _ = run_cli(capsys, [
            "sweep", "--r-from", "0.5", "--r-to", "0.4",
        ])
        assert code == 2
        code, _, _ = run_cli(capsys, [
            "sweep", "--r-from", "0.1", "--r-to", "0.2", "--r-step", "-0.1",
        ])
        assert code == 2

    @pytest.mark.parametrize("r, theta_star, eta_star, value, baseline_qfi", [
        ("0", 1.5707963267948966, 5.4977882607928583, 17065640.594496481, 100.0),
        ("0.4", 1.8234764390655456, 5.4977882607928583, 943576.14457306021,
         1.2019298781623444),
        ("0.8", 2.3005237928546518, 5.4977904948143008, 95.682882702349801,
         1.8494198647297277e-05),
    ])
    def test_information_row_keeps_its_bits(
        self, capsys, r, theta_star, eta_star, value, baseline_qfi
    ):
        """Rows of figure 2a at the default grid, to the last bit.

        These are pole values of the paper-convention search (ROADMAP
        item 2 will replace them), pinned so that work on the kernel or
        the search cannot move a bit of them unnoticed.
        """
        code, out, _ = run_cli(capsys, [
            "sweep", "--objective", "qfi", "--r-from", r, "--r-to", r,
        ])
        assert code == 0
        _, (row,) = parse_table(out)
        assert float(row["theta_star"]) == theta_star
        assert float(row["eta_star"]) == eta_star
        assert float(row["value"]) == value
        assert float(row["baseline_qfi"]) == baseline_qfi

    @pytest.mark.parametrize("line", [
        "fidelity,structured,paper,0.050000000000000003,1.4900007073035342,0,"
        "0.78163575733079971,1,0.78163575733079971,37.302767462781901,0,false,1,"
        "0.93483950224151013,31.805875155675889",
        "fidelity,structured,paper,0.10000000000000001,0,0,0.75,1,0.75,0,0,true,1,"
        "0.88365386091914488,19.272176047178913",
        "fidelity,structured,paper,0.5,0,0,0.75,1,0.75,0,0,true,1,"
        "0.73650890486027254,0.057186543401695308",
        "fidelity,structured,paper,0.90000000000000002,0,0,0.75,1,0.75,0,0,true,1,"
        "0.77214069560791843,5.5272061104929978e-09",
    ])
    def test_unit_probability_row_keeps_its_bits(self, capsys, line):
        """Rows of the default unit-probability sweep at gamma = pi/4, to the last bit.

        The sweep re-evaluates all its levels in one paired scalar call;
        every column printed here is what one scalar call per level gave.
        r = 0.05 is the one interior optimum among them.
        """
        code, out, _ = run_cli(capsys, [
            "sweep", "--constraint", "unit-probability",
            "--gamma", "0.7853981633974483",
        ])
        assert code == 0
        header, rows = parse_table(out)
        expected = dict(zip(header, line.split(",")))
        assert expected in rows


class TestParetoCommand:
    def test_identity_scan_contains_perfect_point(self, capsys):
        code, out, _ = run_cli(capsys, [
            "pareto", "--r", "0", "--theta-steps", "21", "--eta-steps", "21",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == PARETO_COLUMNS
        hits = [
            row for row in rows
            if abs(float(row["theta"]) - PI / 2) < 1e-9
            and float(row["eta"]) == 0.0
        ]
        assert len(hits) == 1
        assert abs(float(hits[0]["fidelity"]) - 1.0) < 1e-9
        assert abs(float(hits[0]["probability"]) - 1.0) < 1e-9

    def test_default_rotation_grid_stops_at_pi(self, capsys):
        code, out, _ = run_cli(capsys, [
            "pareto", "--r", "0.5", "--theta-steps", "5", "--eta-steps", "5",
        ])
        assert code == 0
        echoed = header_block(out)
        assert abs(float(echoed["eta_max"]) - PI) < 1e-15

    @pytest.mark.parametrize("command, flags", [
        ("pareto", {}), ("figure", {"id": "5"}),
    ])
    def test_tradeoff_scan_rotation_default_is_one_rule(self, command, flags):
        assert cli.resolve_config(command, {}, flags)["eta_max"] == PI
        for file_values, flag_values in (
            ({"eta_max": 1.5}, flags), ({}, dict(flags, eta_max=1.5)),
        ):
            cfg = cli.resolve_config(command, file_values, flag_values)
            assert cfg["eta_max"] == 1.5
        other = cli.resolve_config("figure", {}, {"id": "2a"})
        assert other["eta_max"] == 2 * PI

    def test_rotation_grid_beyond_pi_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, [
            "pareto", "--r", "0.5", "--eta-max", repr(2 * PI),
        ])
        assert code == 2


#: The figure grid of ``test_every_figure_is_its_direct_call``: 21 x 21, one
#: refinement pass.
FIGURE_GRID = ["--theta-steps", "21", "--eta-steps", "21", "--refine-iters", "1"]

#: Per figure id of a single r sweep: its search, and the columns after r,
#: each with its field of a sweep result.
SWEEP_FIGURES = {
    "2a": (Objective.QFI, {"qfi": lambda res: res.value,
                           "qfi_baseline": lambda res: res.baseline.qfi}),
    "2b": (Objective.QFI, {"theta_star": lambda res: res.theta_star,
                           "eta_star": lambda res: res.eta_star}),
    "2c": (Objective.QFI, {"fidelity": lambda res: res.companion.fidelity,
                           "probability": lambda res: res.companion.probability}),
    "3a": (Objective.FIDELITY, {"fidelity": lambda res: res.value,
                                "probability": lambda res: res.companion.probability}),
    "3b": (Objective.FIDELITY, {"theta_star": lambda res: res.theta_star,
                                "eta_star": lambda res: res.eta_star}),
    "4a": (UNIT_PROBABILITY, {"probability": lambda res: res.companion.probability,
                              "fidelity": lambda res: res.value}),
    "4b": (UNIT_PROBABILITY, {"theta_star": lambda res: res.theta_star,
                              "eta_star": lambda res: res.eta_star}),
}

#: Per input-angle figure id: its search, and each column's input angle.
GAMMA_FIGURES = {
    "6a": (Objective.QFI, {f"qfi_gamma_{deg}": math.pi * deg / 180
                           for deg in (90, 120, 135, 150)}),
    "6b": (UNIT_PROBABILITY, {f"fidelity_gamma_{deg}": math.pi * deg / 180
                              for deg in (30, 45, 60, 75, 90)}),
}


def direct_figure(fig):
    """(header, rows) of a figure at FIGURE_GRID, from sweep_r or pareto_scan."""
    base = ProtocolParams(n_qubits=10, gamma=PI / 2, phi0=0.0, theta=0.0, eta=0.0, r=0.0)
    if fig == "5":
        grid = GridSpec(theta_range=(0.0, PI, 21), eta_range=(0.0, PI, 21), refine_iters=0)
        scan = pareto_scan(0.5, base, grid, convention=Convention.PAPER)
        header = ["theta", "eta", "fidelity", "probability", "fidelity_baseline"]
        rows = [[*pt, scan.baseline_fidelity] for pt in scan.points]
        return header, rows
    rs = [float(r) for r in np.linspace(0.0, 1.0, 21)]
    grid = GridSpec(theta_range=(0.0, PI, 21), eta_range=(0.0, 2 * PI, 21), refine_iters=1)

    def sweep(mode, gamma=PI / 2):
        p = dataclasses.replace(base, gamma=gamma)
        return sweep_r(mode, rs, p, grid, convention=Convention.PAPER)

    if fig in GAMMA_FIGURES:
        mode, gammas = GAMMA_FIGURES[fig]
        sweeps = [sweep(mode, gamma) for gamma in gammas.values()]
        return ["r", *gammas], [[r] + [results[i].value for results in sweeps]
                                for i, r in enumerate(rs)]
    mode, fields = SWEEP_FIGURES[fig]
    rows = [[res.r] + [field(res) for field in fields.values()] for res in sweep(mode)]
    return ["r", *fields], rows


class TestFigureCommand:
    @pytest.mark.parametrize("fig", FIGURE_IDS)
    def test_every_figure_is_its_direct_call(self, capsys, fig):
        # The header and every cell, as printed, are the matching fields of
        # one direct sweep_r or pareto_scan call at the figure's grid.
        code, out, _ = run_cli(capsys, ["figure", "--id", fig, *FIGURE_GRID])
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        header, rows = direct_figure(fig)
        assert lines[0].split(",") == header
        assert [line.split(",") for line in lines[1:]] == [
            [format(cell, ".17g") for cell in row] for row in rows
        ]

    def test_unknown_id_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["figure", "--id", "7x"])
        assert code == 2

    def test_all_ids_are_offered(self):
        assert FIGURE_IDS == ("2a", "2b", "2c", "3a", "3b", "4a", "4b", "5", "6a", "6b")

    def test_unit_probability_curve(self, capsys):
        code, out, _ = run_cli(capsys, [
            "figure", "--id", "4a", "--theta-steps", "41", "--refine-iters", "2",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["r", "probability", "fidelity"]
        assert len(rows) == 21
        for row in rows:
            assert abs(float(row["probability"]) - 1.0) < 1e-9
        by_r = {round(float(row["r"]), 2): float(row["fidelity"]) for row in rows}
        assert by_r[0.0] > 0.99
        assert by_r[0.05] > 0.5
        assert by_r[0.1] > 0.5
        for r in (0.3, 0.5, 0.9):
            assert abs(by_r[r] - 0.5) < 0.02

    def test_unit_probability_angles(self, capsys):
        code, out, _ = run_cli(capsys, [
            "figure", "--id", "4b", "--theta-steps", "41", "--refine-iters", "2",
        ])
        assert code == 0
        _, rows = parse_table(out)
        for row in rows:
            assert float(row["eta_star"]) == 0.0

    def test_information_curve_drops_with_damping(self, capsys):
        code, out, _ = run_cli(capsys, [
            "figure", "--id", "2a", *COARSE,
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["r", "qfi", "qfi_baseline"]
        by_r = {round(float(row["r"]), 2): float(row["qfi"]) for row in rows}
        assert by_r[0.0] > by_r[0.5] > by_r[0.9]
        baseline = {
            round(float(row["r"]), 2): float(row["qfi_baseline"]) for row in rows
        }
        assert abs(baseline[0.0] - 100.0) < 1e-9
        assert "omitted" in out  # the reference-scheme note

    def test_scatter_figure_reuses_tradeoff_scan(self, capsys):
        code, out, _ = run_cli(capsys, [
            "figure", "--id", "5", "--theta-steps", "21", "--eta-steps", "21",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header == [
            "theta", "eta", "fidelity", "probability", "fidelity_baseline",
        ]
        baselines = {row["fidelity_baseline"] for row in rows}
        assert len(baselines) == 1
        assert abs(float(baselines.pop()) - 0.26611328125) < 1e-9

    def test_input_angle_family_curve(self, capsys):
        code, out, _ = run_cli(capsys, [
            "figure", "--id", "6b", "--theta-steps", "41", "--refine-iters", "2",
        ])
        assert code == 0
        header, rows = parse_table(out)
        assert header[0] == "r"
        assert header[1:] == [
            "fidelity_gamma_30", "fidelity_gamma_45", "fidelity_gamma_60",
            "fidelity_gamma_75", "fidelity_gamma_90",
        ]
        cap30 = math.cos(PI / 12) ** 4 + math.sin(PI / 12) ** 4
        by_r = {
            round(float(row["r"]), 2): float(row["fidelity_gamma_30"])
            for row in rows
        }
        assert abs(by_r[0.3] - cap30) < 1e-9


class TestValidateCommand:
    def test_all_checks_pass_and_report_is_stable(self, capsys):
        code, first, _ = run_cli(capsys, ["validate", "--seed", "7"])
        assert code == 0
        assert "passed 32/32 checks (seed 7)" in first
        assert first.count("\nok ") + first.startswith("ok ") == 32
        code, second, _ = run_cli(capsys, ["validate", "--seed", "7"])
        assert code == 0
        assert first == second

    def test_other_seed_also_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--seed", "123"])
        assert code == 0
        assert "passed 32/32 checks (seed 123)" in out

    @pytest.mark.parametrize("seed", [1, 4, 9, 17, 24, 36])
    def test_seeds_once_failing_scalar_vs_grid_pass(self, capsys, seed):
        # At these seeds the scalar and grid paths used to round apart by
        # more than 1e-10 at near-degenerate points.
        code, out, _ = run_cli(capsys, ["validate", "--seed", str(seed)])
        assert code == 0
        assert f"passed 32/32 checks (seed {seed})" in out

    def test_failing_check_maps_to_exit_1(self, capsys, monkeypatch):
        import ghzprotect.cli as cli_module
        from ghzprotect.validate import CheckResult

        def fake_validation(seed):
            return [CheckResult(name="stub", passed=False, detail="r=0.5")]

        monkeypatch.setattr(cli_module, "run_validation", fake_validation)
        code, out, _ = run_cli(capsys, ["validate"])
        assert code == 1
        assert "FAIL stub: r=0.5" in out


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_separate_number_token_is_the_flags_value(self, capsys):
        # argparse alone reads "-1e-3" as an option and refuses the flag.
        joined = run_cli(capsys, ["metrics", "--n", "4", "--phi0=-1e-3"])
        separate = run_cli(capsys, ["metrics", "--n", "4", "--phi0", "-1e-3"])
        assert joined[0] == 0
        assert separate == joined

    def test_separate_non_finite_token_is_refused_by_the_key_check(self, capsys):
        code, out, err = run_cli(capsys, ["metrics", "--phi0", "-inf"])
        assert (code, out) == (2, "")
        assert err == "error: key 'phi0' must be finite, got '-inf'\n"

    @pytest.mark.parametrize(
        "argv", [["metrics", "--phi0"], ["metrics", "--phi0", "--n", "4"]]
    )
    def test_flag_without_a_value_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "--phi0: expected one argument" in err

    def test_unknown_flag(self, capsys):
        assert main(["metrics", "--order", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        # 1100 qubits overflowed the binomial weights in the first grid.
        ["optimize", "--n", "1100", "--theta-steps", "3", "--eta-steps", "3",
         "--refine-iters", "0"],
        ["optimize", "--n", "500"],
        ["sweep", "--n", "65"],
        ["pareto", "--n", "65"],
        ["figure", "--id", "5", "--n", "100"],
    ])
    def test_searches_refuse_a_register_above_the_ceiling(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        n = argv[argv.index("--n") + 1]
        assert err == (
            f"error: n_qubits={n} exceeds the configured maximum 64 "
            "of the structured engine\n"
        )

    def test_dense_metrics_above_the_ceiling_names_the_engine(self, capsys):
        # The dense engine's ceiling is the default register, n = 10.
        code, out, err = run_cli(capsys, ["metrics", "--engine", "dense", "--n", "11"])
        assert (code, out) == (2, "")
        assert err == (
            "error: n_qubits=11 exceeds the configured maximum 10 "
            "of the dense engine\n"
        )

    def test_closedform_metrics_at_and_above_its_ceiling(self, capsys):
        # From N = 512 the printed information's 4^N overflows a float.  At
        # N = 511 its numerator is a true 0 for r = 1 and underflows at the
        # default r = 0.5, theta = pi/2.
        code, out, _ = run_cli(capsys, [
            "metrics", "--engine", "closedform_verbatim", "--n", "511", "--r", "1",
        ])
        assert code == 0
        (row,) = parse_table(out)[1]
        assert row["engine"] == "closedform_verbatim"
        assert float(row["qfi"]) == 0.0
        code, out, err = run_cli(capsys, [
            "metrics", "--engine", "closedform_verbatim", "--n", "511",
        ])
        assert (code, out) == (3, "")
        assert err.startswith("error: the information numerator ")
        assert "underflows to 0 at N=511" in err
        code, out, err = run_cli(capsys, [
            "metrics", "--engine", "closedform_verbatim", "--n", "512",
        ])
        assert (code, out) == (2, "")
        assert err == (
            "error: n_qubits=512 exceeds the configured maximum 511 "
            "of the closedform_verbatim engine\n"
        )

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


_flag = cli._flag


#: A text each kind of key accepts.
_ACCEPTED = {int: "3", float: "-0.25", str: "out.csv"}


def _rejected_values():
    """(command, key, text) for each key a command accepts and a text it refuses."""
    refused = {int: ("1.5",), float: ("nan", "inf", "-inf")}
    for command, keys in cli._COMMAND_KEYS.items():
        for key in keys:
            kind = cli._KEYS[key].kind
            texts = ("bogus",) if isinstance(kind, tuple) else refused.get(kind, ())
            for text in texts:
                yield command, key, text
    yield "validate", "seed", "-1"


class TestOneDefinitionPerKey:
    @pytest.mark.parametrize("command, key, text", list(_rejected_values()))
    def test_flag_and_config_file_refuse_alike(self, capsys, tmp_path, command, key, text):
        # A flag's value passes the config file's check: the same exit
        # code and the same error line, whatever the key.
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={text}\n", encoding="utf-8")
        flag_run = run_cli(capsys, [command, f"{_flag(key)}={text}"])
        file_run = run_cli(capsys, [command, "--config", str(config)])
        assert flag_run == file_run
        assert run_cli(capsys, [command, _flag(key), text]) == file_run
        code, out, err = file_run
        assert (code, out) == (2, "")
        assert err.startswith(f"error: key {key!r} ")

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_damping_of_a_sweep_figure_exits_2(self, capsys, text):
        # The figure ignores r except for id 5; the flag is refused anyway,
        # as the echoed block replayed through --config always was.
        code, out, err = run_cli(capsys, ["figure", "--id", "4a", "--r", text])
        assert (code, out) == (2, "")
        assert err == f"error: key 'r' must be finite, got {text!r}\n"

    @pytest.mark.parametrize("command", list(cli._COMMAND_KEYS))
    def test_parser_offers_exactly_the_command_keys(self, command):
        (commands,) = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        sub = commands.choices[command]
        flags = {opt for action in sub._actions for opt in action.option_strings}
        keys = cli._COMMAND_KEYS[command]
        assert flags - {"-h", "--help"} == {"--config"} | {_flag(key) for key in keys}
        for key in keys:
            kind = cli._KEYS[key].kind
            text = kind[-1] if isinstance(kind, tuple) else _ACCEPTED[kind]
            args = cli._parser().parse_args([command, _flag(key), text])
            want = cli._convert(key, text)
            assert cli._flag_values(args) == {key: want}
            assert type(cli._flag_values(args)[key]) is type(want)

    def test_every_key_has_a_command_and_a_default_that_round_trips(self):
        used = set().union(*cli._COMMAND_KEYS.values())
        assert used == set(cli._KEYS) - {"command"}
        for key in used:
            default = cli._KEYS[key].default
            assert cli._convert(key, cli._fmt(default)) == default


def test_one_process_runs_many_commands_as_fresh_ones(capsys):
    # The parser is built once per process and reused: a usage error in
    # between leaves later commands as a fresh interpreter would run them.
    sweep = ["sweep", "--r-from", "0", "--r-to", "0.2", "--r-step", "0.1", *COARSE]
    metrics = ["metrics", "--n", "4", "--r", "0.3", "--theta", "1.1", "--eta", "0.7"]
    in_process = [run_cli(capsys, sweep), run_cli(capsys, ["metrics", "--order", "3"]),
                  run_cli(capsys, metrics)]
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert cli._parser() is cli._parser()

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, (_, out, _) in ((sweep, in_process[0]), (metrics, in_process[2])):
        fresh = subprocess.run(
            [sys.executable, "-m", "ghzprotect.cli", *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out == fresh.stdout
