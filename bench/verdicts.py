"""Correctness verdicts for benchmark outputs.

Every verdict returns a :class:`Tally` of operations attempted and failed.
A ``DegeneracyError`` (no well-defined result at that point) is a documented
outcome, counted as degenerate.  Known defects of the program are counted
under their own name in ``Tally.known`` rather than as failures, so that
they stay visible while the workloads still fail no operation:

- ``overflow``: the binomial weights overflow a float above about N = 1030
  and raise ``OverflowError``; only the untimed large-register probe may
  count here, anywhere else the error fails its operation;
- ``near-degenerate``: dense and structured disagree at a point whose total
  weight is below :data:`NEAR_DEGENERATE_WEIGHT`; a disagreement anywhere
  else fails its pair;
- the ``validate`` checks listed in :data:`KNOWN_VALIDATE_DEFECTS`, whose
  ``FAIL`` lines count here; a ``FAIL`` of any other check fails it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from ghzprotect.params import Convention, DegeneracyError

#: Relative tolerance for values compared against a reference or another engine.
REL_TOL = 1e-9
#: Absolute tolerance for the probability and bound checks of a scalar row.
ABS_TOL = 1e-9

#: Total weight below which a returned row comes from cancellation: at such
#: points the engines may disagree, or one may raise DegeneracyError while
#: the other returns a row, because degeneracy is judged by an absolute
#: tolerance (a known defect).
NEAR_DEGENERATE_WEIGHT = 1e-6

#: validate checks that fail at some seeds at this code, and why.
KNOWN_VALIDATE_DEFECTS = {
    "structured-scalar-vs-grid": (
        "near-degenerate paper-convention points, where the scalar and grid "
        "fidelities disagree beyond 1e-10 (about 1 seed in 6)"
    ),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    degenerate: int = 0
    known: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def known_defect(self, name: str, message: str) -> None:
        self.known[name] += 1
        self._note(f"known defect {name}: {message}")

    def _note(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.degenerate += other.degenerate
        self.known.update(other.known)
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])


def close(a: float, b: float) -> bool:
    """True when a and b agree to REL_TOL relative to the larger magnitude."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return close(float(got), float(want))
    except ValueError:
        return False


def _split_payload(text: str) -> tuple[list[str], list[str]]:
    """(comment and header lines, data rows) of a CSV payload."""
    lines = text.splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    return head + body[:1], body[1:]


def sweep_verdict(exit_code: int, text: str, want: list[dict[str, str]]) -> Tally:
    """One operation per reference row of a ``sweep`` payload.

    ``want`` holds, for each expected row in order, the payload columns to
    compare and their reference cells.  A row fails unless every one of
    them matches; a non-zero exit code fails every row, and an extra row
    fails too.
    """
    tally = Tally(attempted=len(want))
    head, rows = _split_payload(text)
    if exit_code != 0:
        for _ in want:
            tally.fail(f"exit code {exit_code}")
        return tally
    columns = head[-1].split(",") if head else []
    for index, cells in enumerate(want):
        got = rows[index] if index < len(rows) else None
        got_cells = dict(zip(columns, got.split(","))) if got is not None else {}
        if not all(_cell_matches(got_cells.get(column, ""), cell) for column, cell in cells.items()):
            tally.fail(f"row {index}: got {got!r}, want {cells}")
    for extra in rows[len(want):]:
        tally.attempted += 1
        tally.fail(f"unexpected row {extra!r}")
    return tally


def scalar_verdict(
    n: int, convention: Convention, outcome, reference_probability, probe: bool = False
) -> Tally:
    """Verdict on one ``aggregate_metrics`` call.

    ``outcome`` is the returned row or the raised exception.
    ``reference_probability`` is the closed-form total weight (paper
    convention only; ignored under the physical convention).  ``probe``
    marks the untimed large-register probe, where an ``OverflowError`` is
    the known ``overflow`` defect.
    """
    tally = Tally(attempted=1)
    if isinstance(outcome, DegeneracyError):
        tally.degenerate += 1
        return tally
    if probe and isinstance(outcome, OverflowError):
        tally.known_defect("overflow", f"N={n} {convention.value}: {outcome}")
        return tally
    if isinstance(outcome, BaseException):
        tally.fail(f"N={n} {convention.value}: raised {type(outcome).__name__}: {outcome}")
        return tally
    row = outcome
    values = (row.probability, row.fidelity, row.qfi, row.imag_residual)
    if not all(math.isfinite(v) for v in values):
        tally.fail(f"N={n} {convention.value}: non-finite field in {row}")
    elif convention is Convention.PHYSICAL:
        ok = (
            abs(row.probability - 1.0) <= ABS_TOL
            and -ABS_TOL <= row.fidelity <= 1.0 + ABS_TOL
            and -ABS_TOL <= row.qfi <= n * n * (1.0 + ABS_TOL)
            and row.imag_residual < ABS_TOL
        )
        if not ok:
            tally.fail(f"N={n} physical: row out of bounds: {row}")
    elif abs(row.probability - reference_probability) > ABS_TOL:
        tally.fail(
            f"N={n} paper: probability {row.probability!r} differs from the "
            f"closed form {reference_probability!r}"
        )
    return tally


def engines_verdict(dense_outcome, structured_outcome) -> Tally:
    """Dense and structured rows agree to REL_TOL, or both raise DegeneracyError.

    Where they differ and every returned row has a total weight below
    :data:`NEAR_DEGENERATE_WEIGHT`, the pair counts as the known
    ``near-degenerate`` defect.
    """
    tally = Tally(attempted=1)
    outcomes = (("dense", dense_outcome), ("structured", structured_outcome))
    if all(isinstance(outcome, DegeneracyError) for _, outcome in outcomes):
        tally.degenerate += 1
        return tally
    for label, outcome in outcomes:
        if isinstance(outcome, BaseException) and not isinstance(outcome, DegeneracyError):
            tally.fail(f"{label} raised {type(outcome).__name__}: {outcome}")
            return tally
    rows = [outcome for _, outcome in outcomes if not isinstance(outcome, BaseException)]
    if len(rows) == 2 and all(
        close(getattr(rows[0], name), getattr(rows[1], name))
        for name in ("probability", "fidelity", "qfi")
    ):
        return tally
    message = f"engines disagree: dense={dense_outcome!r} structured={structured_outcome!r}"
    if all(abs(row.probability) < NEAR_DEGENERATE_WEIGHT for row in rows):
        tally.known_defect("near-degenerate", message)
    else:
        tally.fail(message)
    return tally


def validate_verdict(exit_code: int, report: str, check_names: list[str]) -> Tally:
    """One operation per named check; a check fails unless its line reads ``ok``.

    A missing line fails its check, and so does every check when the exit
    code is neither 0 (all passed) nor 1 (some failed).  A ``FAIL`` of a
    check in :data:`KNOWN_VALIDATE_DEFECTS` counts as that known defect.
    """
    tally = Tally(attempted=len(check_names))
    status: dict[str, str] = {}
    for line in report.splitlines():
        if line.startswith("ok "):
            status[line[3:]] = "ok"
        elif line.startswith("FAIL "):
            name, _, detail = line[5:].partition(": ")
            status[name] = detail or "failed"
    for name in check_names:
        if exit_code not in (0, 1):
            tally.fail(f"validate exited with code {exit_code}")
        elif name not in status:
            tally.fail(f"check {name!r} missing from the report")
        elif status[name] == "ok":
            continue
        elif name in KNOWN_VALIDATE_DEFECTS:
            tally.known_defect(name, status[name])
        else:
            tally.fail(f"check {name!r} failed: {status[name]}")
    return tally
