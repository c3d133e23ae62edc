"""Self-tests of the benchmark's verifier and of its metric names.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import harness
from ghzprotect import structured
from ghzprotect.params import Convention, DegeneracyError, Engine, MetricsRow
from verdicts import (
    KNOWN_VALIDATE_DEFECTS,
    engines_verdict,
    scalar_verdict,
    sweep_verdict,
    validate_verdict,
)

BENCH_DIR = Path(__file__).resolve().parent
CHECK_NAMES = (BENCH_DIR / "reference" / "validate_checks.txt").read_text(encoding="utf-8").split()
#: Figure 2a's reference rows, as the columns of a ``sweep`` payload.
WANT = [cells for _, rows in harness.fig2a_parts() for cells in rows]
COLUMNS = list(WANT[0])


def _payload(rows: list[dict[str, str]]) -> str:
    lines = ["# command=sweep", ",".join(COLUMNS)]
    lines += [",".join(row[column] for column in COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _with_value(index: int, value: str) -> str:
    rows = [dict(row) for row in WANT]
    rows[index]["value"] = value
    return _payload(rows)


class TestSweepVerdict:
    def test_reference_passes(self):
        tally = sweep_verdict(0, _payload(WANT), WANT)
        assert (tally.attempted, tally.failed) == (21, 0)

    def test_value_off_beyond_tolerance_fails_its_row(self):
        # 1e-8 relative: the last digit of a value printed to 9 significant digits
        value = float(WANT[5]["value"]) * (1 + 1e-8)
        tally = sweep_verdict(0, _with_value(5, repr(value)), WANT)
        assert (tally.attempted, tally.failed) == (21, 1)

    def test_last_printed_digit_within_tolerance_passes(self):
        # the 17th significant digit is a 1e-16 relative change, inside 1e-9
        original = WANT[5]["value"]
        changed = original[:-1] + str((int(original[-1]) + 1) % 10)
        assert sweep_verdict(0, _with_value(5, changed), WANT).failed == 0

    def test_nonzero_exit_fails_every_row(self):
        tally = sweep_verdict(3, "", WANT)
        assert (tally.attempted, tally.failed) == (21, 21)

    def test_missing_and_extra_rows_fail(self):
        assert sweep_verdict(0, _payload(WANT[:-1]), WANT).failed == 1
        tally = sweep_verdict(0, _payload(WANT), WANT[:-1])
        assert (tally.attempted, tally.failed) == (21, 1)

    @pytest.mark.parametrize("name, parts, rows", [
        ("fig2a-qfi-sweep", 21, 1),
        ("fig6b-unitprob-sweep", 5, 21),
    ])
    def test_figure_unit_matches_reference(self, name, parts, rows):
        workload = harness.WORKLOADS[name](1)
        assert workload.units_per_pass == parts
        inp = workload.unit_input(0)
        tally = workload.check(inp, workload.run(inp))
        assert (tally.attempted, tally.failed) == (rows, 0)


class TestScalarVerdict:
    def test_injected_degeneracy_is_degenerate_not_failed(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegeneracyError("injected")

        monkeypatch.setattr(structured, "aggregate_metrics", degenerate)
        workload = harness.PointsWorkload(((10, 4),), seed=1)
        inp = workload.unit_input(0)
        tally = workload.check(inp, workload.run(inp))
        assert (tally.attempted, tally.failed, tally.degenerate) == (4, 0, 4)

    def test_other_exception_fails(self):
        tally = scalar_verdict(10, Convention.PHYSICAL, ValueError("boom"), None)
        assert (tally.failed, tally.degenerate) == (1, 0)

    def test_probe_overflow_is_a_known_defect(self):
        tally = scalar_verdict(2000, Convention.PAPER, OverflowError("comb"), None, probe=True)
        assert (tally.failed, tally.known["overflow"]) == (0, 1)

    def test_overflow_outside_the_probe_fails(self):
        tally = scalar_verdict(1000, Convention.PAPER, OverflowError("comb"), None)
        assert (tally.failed, sum(tally.known.values())) == (1, 0)

    def test_non_finite_field_fails(self):
        workload = harness.PointsWorkload(((10, 2),), seed=1)
        inp = workload.unit_input(0)
        out = workload.run(inp)
        out[0] = dataclasses.replace(out[0], qfi=float("nan"))
        assert workload.check(inp, out).failed == 1

    def test_seeded_batch_passes(self):
        workload = harness.PointsWorkload(((10, 16),), seed=3)
        inp = workload.unit_input(0)
        tally = workload.check(inp, workload.run(inp))
        assert (tally.attempted, tally.failed) == (16, 0)


class TestEnginesVerdict:
    # the seeded pair at which the engines first disagreed: both weights near -1.4e-9
    ROW = MetricsRow(
        r=0.5133305041614556, theta=2.854731002787898, eta=4.700904898088761,
        probability=-1.4464386448814024e-09, fidelity=136203.08483476008,
        qfi=0.0005528581413690223, imag_residual=1010926.5540325964,
        convention=Convention.PAPER, engine=Engine.DENSE,
    )

    def test_agreeing_rows_pass(self):
        tally = engines_verdict(self.ROW, self.ROW)
        assert (tally.attempted, tally.failed, sum(tally.known.values())) == (1, 0, 0)

    def test_both_degenerate_is_degenerate(self):
        tally = engines_verdict(DegeneracyError("a"), DegeneracyError("b"))
        assert (tally.failed, tally.degenerate) == (0, 1)

    def test_disagreement_at_near_zero_weight_is_a_known_defect(self):
        other = dataclasses.replace(self.ROW, probability=-1.4464386741008386e-09, fidelity=136203.0872823615)
        for pair in ((self.ROW, other), (DegeneracyError("dense"), other)):
            tally = engines_verdict(*pair)
            assert (tally.failed, tally.known["near-degenerate"]) == (0, 1)

    def test_disagreement_at_ordinary_weight_fails(self):
        row = dataclasses.replace(self.ROW, probability=0.25, fidelity=0.5)
        other = dataclasses.replace(row, fidelity=0.5 * (1 + 1e-8))
        for pair in ((row, other), (DegeneracyError("dense"), row), (row, ValueError("boom"))):
            tally = engines_verdict(*pair)
            assert (tally.failed, sum(tally.known.values())) == (1, 0)


class TestValidateVerdict:
    def _report(self, names):
        lines = [f"ok {name}" for name in names]
        lines.append(f"passed {len(names)}/{len(names)} checks (seed 7)")
        return "\n".join(lines) + "\n"

    def test_full_report_passes(self):
        tally = validate_verdict(0, self._report(CHECK_NAMES), CHECK_NAMES)
        assert (tally.attempted, tally.failed) == (32, 0)

    def test_missing_check_line_fails(self):
        tally = validate_verdict(0, self._report(CHECK_NAMES[:-1]), CHECK_NAMES)
        assert (tally.attempted, tally.failed) == (32, 1)

    def test_failed_check_line_fails(self):
        report = self._report(CHECK_NAMES).replace(
            f"ok {CHECK_NAMES[0]}\n", f"FAIL {CHECK_NAMES[0]}: detail\n"
        )
        assert validate_verdict(1, report, CHECK_NAMES).failed == 1

    def test_known_defect_check_is_counted_apart(self):
        (name,) = KNOWN_VALIDATE_DEFECTS
        report = self._report(CHECK_NAMES).replace(f"ok {name}\n", f"FAIL {name}: deltas\n")
        tally = validate_verdict(1, report, CHECK_NAMES)
        assert (tally.failed, tally.known[name]) == (0, 1)


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_metric_names_match_benchmark_json(key):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[key]}
    emitted = harness.END_TO_END if key == "end_to_end" else harness.PER_LAYER
    assert declared == emitted


def test_workload_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
