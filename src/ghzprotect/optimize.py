"""Deterministic grid search over the measurement and rotation angles.

Maximizes probability, fidelity, or phase information at a fixed decay
probability, runs the unit-probability constrained fidelity search, scans
the full (fidelity, probability) trade-off surface, and sweeps any of
those searches over a grid of decay probabilities.

Search strategy: exhaustive evaluation of an inclusive rectangular angle
grid followed by a fixed number of shrinking local grids centred on the
incumbent.  Everything is pure and evaluated in ascending grid order, so
identical inputs always reproduce bit-identical results; ties are broken
toward the smallest measurement angle, then the smallest rotation angle.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .dense import do_nothing_baseline
from .params import (
    DEFAULT_MAX_QUBITS,
    TWO_PI,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    validate_params,
)
from .structured import _aggregates, _paired_complex

__all__ = [
    "Objective",
    "UNIT_PROBABILITY",
    "GridSpec",
    "OptResult",
    "ParetoPoint",
    "ParetoScanResult",
    "ConstraintInfeasibleError",
    "maximize_metric",
    "maximize_fidelity_at_unit_probability",
    "pareto_scan",
    "sweep_r",
]

#: Tolerance on |probability - 1| for the unit-probability constraint.
UNIT_PROBABILITY_TOL = 1e-9

#: Sweep mode selecting the constrained fidelity search instead of a
#: free maximization objective.
UNIT_PROBABILITY = "unit_probability"


class Objective(str, enum.Enum):
    """Metric maximized by the free (theta, eta) search."""

    PROBABILITY = "probability"
    FIDELITY = "fidelity"
    QFI = "qfi"


class ConstraintInfeasibleError(ValueError):
    """Raised when no grid point satisfies the probability constraint."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search grid plus its local-refinement schedule.

    Each range is an inclusive ``(lo, hi, steps)`` triple realized with
    evenly spaced points.  After the full grid, ``refine_iters`` further
    grids of the same step counts are evaluated, each spanning a window
    around the incumbent whose width is the previous width times
    ``refine_shrink`` (clamped to the original range), so the full-axis
    evaluation budget is ``steps_theta * steps_eta * (1 + refine_iters)``.
    Searches whose best angle is known evaluate one angle per grid (the
    unit-probability search, and the physical-convention searches; the
    fidelity's only when the rotation range starts at 0), so they visit
    ``steps_theta * (1 + refine_iters)`` points.
    """

    theta_range: tuple[float, float, int] = (0.0, math.pi, 181)
    eta_range: tuple[float, float, int] = (0.0, TWO_PI, 181)
    refine_iters: int = 6
    refine_shrink: float = 0.2

    def __post_init__(self) -> None:
        for name, rng, (dom_lo, dom_hi) in (
            ("theta_range", self.theta_range, (0.0, math.pi)),
            ("eta_range", self.eta_range, (0.0, TWO_PI)),
        ):
            lo, hi, steps = rng
            if not isinstance(steps, int) or steps < 2:
                raise ValueError(f"{name} needs at least 2 steps, got {steps}")
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} bounds must satisfy lo < hi, got {rng}")
            if lo < dom_lo or hi > dom_hi:
                raise ValueError(
                    f"{name} must stay within [{dom_lo}, {dom_hi}], got {rng}"
                )
        if not isinstance(self.refine_iters, int) or self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError(
                f"refine_shrink must lie in (0, 1), got {self.refine_shrink}"
            )

    @property
    def evaluation_count(self) -> int:
        """Grid points over all iterations when the full rotation axis is searched.

        A search that pins the rotation angle visits ``steps_theta * (1 +
        refine_iters)`` points instead.
        """
        return self.theta_range[2] * self.eta_range[2] * (1 + self.refine_iters)


@dataclass(frozen=True)
class OptResult:
    """Best grid point found for one decay probability.

    ``value`` is the maximized metric of ``companion``, the structured
    engine's row at ``(theta_star, eta_star)``: all levels of a search are
    re-evaluated in one paired call, and each ``companion`` is the row
    :func:`~ghzprotect.structured.aggregate_metrics` gives at its point,
    bit for bit.
    ``on_boundary`` flags an optimum sitting on an edge of the original
    search ranges (range clipping rather than an interior peak); the
    rotation range counts only where the objective depends on the angle,
    so never for the unit-probability search, which pins it to zero, nor
    for physical-convention probability or information.
    ``baseline`` carries the no-protection reference row when the result
    was produced by a sweep.
    """

    r: float
    objective: Objective
    theta_star: float
    eta_star: float
    value: float
    companion: MetricsRow
    convention: Convention
    on_boundary: bool
    baseline: Optional[MetricsRow] = None


class ParetoPoint(NamedTuple):
    theta: float
    eta: float
    fidelity: float
    probability: float


@dataclass(frozen=True)
class ParetoScanResult:
    """Every evaluable grid point's trade-off pair plus the reference line."""

    r: float
    points: list[ParetoPoint]
    baseline_fidelity: float
    convention: Convention


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in the unit interval, got {r}")
    return r


def _check_register(p_base: ProtocolParams) -> None:
    """Refuse, before any grid, a register above the structured engine's ceiling.

    The grids never reach the scalar path's check, so it is made here.
    """
    if p_base.n_qubits > DEFAULT_MAX_QUBITS:
        raise ValueError(
            f"n_qubits={p_base.n_qubits} exceeds the configured maximum "
            f"{DEFAULT_MAX_QUBITS} of the {Engine.STRUCTURED.value} engine"
        )
    validate_params(p_base, max_qubits=DEFAULT_MAX_QUBITS)


def _grid_values(
    p_base: ProtocolParams,
    r,
    thetas,
    etas,
    convention: Convention,
    fields: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Real grids of the named ``fields`` at broadcast (r, theta, eta) points.

    ``fields`` names :class:`MetricsRow` metrics (``probability``,
    ``fidelity``, ``qfi``), and only those come back, keyed by name.  All
    points are evaluated in one vectorized pass that computes only the
    fields asked for, plus the probability where the others need its
    undefined points (see :func:`~ghzprotect.structured._aggregates`): the
    fidelity only if named, the QFI class sum only if named.  Points whose
    record-average is numerically undefined come back as NaN.
    """
    grids = _aggregates(
        p_base.n_qubits, p_base.gamma, r, thetas, etas, convention,
        probability="probability" in fields, fidelity="fidelity" in fields,
        qfi="qfi" in fields,
    )
    return {
        name: np.ascontiguousarray(grid.real)
        for name, grid in zip(("probability", "fidelity", "qfi"), grids)
        if name in fields
    }


def _best_per_level(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, value) of the best point of each level, non-finite points excluded.

    ``values`` holds one grid per level along its first axis.  The index
    is row-major within the level's grid and the first maximum wins, so
    ties resolve toward the smallest measurement angle first, then the
    smallest rotation angle.  A level with no evaluable point reads -inf.
    """
    flat = values.reshape(len(values), -1)
    flat = np.where(np.isfinite(flat), flat, -np.inf)
    index = np.argmax(flat, axis=1)
    return index, flat[np.arange(len(flat)), index]


def _eta_axis(
    grid: GridSpec,
    convention: Convention,
    objective: Objective,
    unit_probability: bool,
) -> tuple[float, float, int]:
    """The rotation axis a search evaluates, as an inclusive (lo, hi, steps).

    The unit-probability search pins the angle to 0.  Under the physical
    convention the search evaluates one angle per theta:

    - The probability and the information cannot read the angle, so it
      evaluates ``eta_range[0]``: its grids are then bitwise the same along
      the axis, so the full axis would return that point too, as ties go
      to the smallest angle.
    - The fidelity reads the angle only through the coherence term
      (2 w cos eta)^N, w >= 0, added to terms that do not depend on it,
      over a probability that does not either.  cos eta <= 1 = cos 0 and
      rounding is monotone, so no angle beats eta = 0 and the ties go to
      it.  When the axis starts at 0, it evaluates that one angle.
    """
    if unit_probability:
        return (0.0, 0.0, 1)
    if convention is Convention.PHYSICAL:
        lo = grid.eta_range[0]
        if objective is not Objective.FIDELITY:
            return (lo, lo, 1)
        if lo == 0.0:
            return (0.0, 0.0, 1)
    return grid.eta_range


def _search(
    rs: Sequence[float],
    p_base: ProtocolParams,
    grid: GridSpec,
    convention: Convention,
    objective: Objective,
    unit_probability: bool = False,
) -> list[OptResult]:
    """The refinement search of ``objective`` for every decay level in ``rs``.

    Each pass evaluates one (theta, eta) grid per level, all levels at
    once.  Windows, argmax (:func:`_best_per_level`) and incumbent are per
    level, so each level runs the search a one-level call would: each
    window is the previous width times ``refine_shrink``, centred on the
    incumbent and clamped to the range; a point replaces the incumbent
    only if it is strictly better; a level with no evaluable point on its
    first grid is not searched further.  With ``unit_probability`` the
    rotation axis is the single point 0 and only points with
    ``|probability - 1| < 1e-9`` compete.  The grids hold only the fields
    the search reads (:func:`_grid_values`), and the rotation axis is the
    one :func:`_eta_axis` gives.  Every level's incumbent is re-evaluated
    in one paired call (:func:`~ghzprotect.structured._paired_complex`),
    each with the bits of :func:`~ghzprotect.structured.aggregate_metrics`
    at its point.  Results, and the errors of the re-evaluation and of a
    level with no candidate, come in the order of ``rs``.
    """
    eta_matters = not unit_probability and (
        convention is not Convention.PHYSICAL or objective is Objective.FIDELITY
    )
    axes = [
        grid.theta_range,
        _eta_axis(grid, convention, objective, unit_probability),
    ]
    fields = (objective.value,) + (("probability",) if unit_probability else ())
    levels = np.arange(len(rs))
    r_col = np.array(rs, dtype=np.float64)[:, None, None]
    windows = [(np.full(len(rs), lo), np.full(len(rs), hi)) for lo, hi, _ in axes]
    widths = [hi - lo for lo, hi, _ in axes]
    best = [lo for lo, _ in windows]  # the incumbent (theta, eta) of each level
    best_value = np.full(len(rs), -np.inf)
    for iteration in range(grid.refine_iters + 1):
        if iteration > 0:
            widths = [width * grid.refine_shrink for width in widths]
            windows = [
                (np.maximum(lo, mid - width / 2.0), np.minimum(hi, mid + width / 2.0))
                for (lo, hi, _), mid, width in zip(axes, best, widths)
            ]
        thetas, etas = (
            np.ascontiguousarray(np.linspace(lo, hi, steps, axis=1))
            for (lo, hi), (_, _, steps) in zip(windows, axes)
        )
        grids = _grid_values(
            p_base, r_col, thetas[:, :, None], etas[:, None, :], convention, fields
        )
        values = grids[objective.value]
        if unit_probability:
            unit = np.abs(grids["probability"] - 1.0) < UNIT_PROBABILITY_TOL
            values = np.where(unit, values, np.nan)
        del grids  # only the objective's grid stays in memory
        index, peak = _best_per_level(values)
        better = peak > best_value
        if iteration == 0:
            found = better  # only these levels are searched further
            if not found.any():
                break
        better &= found
        best_value = np.where(better, peak, best_value)
        i, j = np.divmod(index, etas.shape[1])
        best = [
            np.where(better, thetas[levels, i], best[0]),
            np.where(better, etas[levels, j], best[1]),
        ]

    # Levels up to the first without a candidate are re-evaluated, in
    # order, before that level raises, as one scalar call per level would.
    searched = len(rs) if found.all() else int(np.argmin(found))
    stars = [
        (r, float(best[0][level]), float(best[1][level]))
        for level, r in enumerate(rs[:searched])
    ]
    paired = _paired_complex(p_base, stars, convention)
    companions = (
        MetricsRow.realized(star, aggregates, convention, Engine.STRUCTURED)
        for star, aggregates in zip(stars, paired)
    )
    th_lo, th_hi, _ = grid.theta_range
    et_lo, et_hi, _ = grid.eta_range
    results = []
    for (r, theta_star, eta_star), companion in zip(stars, companions):
        if unit_probability and (
            abs(companion.probability - 1.0) >= UNIT_PROBABILITY_TOL
        ):
            raise ConstraintInfeasibleError(
                "incumbent violates the unit-probability constraint on scalar "
                f"re-evaluation: probability={companion.probability!r}"
            )
        results.append(
            OptResult(
                r=r,
                objective=objective,
                theta_star=theta_star,
                eta_star=eta_star,
                value=getattr(companion, objective.value),
                companion=companion,
                convention=convention,
                on_boundary=theta_star in (th_lo, th_hi)
                or (eta_matters and eta_star in (et_lo, et_hi)),
            )
        )
    if searched < len(rs):
        if unit_probability:
            raise ConstraintInfeasibleError(
                "no grid point reaches unit probability within 1e-9"
            )
        raise DegeneracyError(
            "no evaluable grid point: every record-average in the "
            "search range is numerically undefined"
        )
    return results


def maximize_metric(
    objective: Union[Objective, str],
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    *,
    convention: Convention = Convention.PAPER,
) -> OptResult:
    """Maximize one metric over the (theta, eta) grid at decay level ``r``.

    ``p_base`` supplies the register size and input amplitudes; its own
    angles and decay probability are ignored; a register above the
    structured engine's qubit ceiling raises ``ValueError`` before any
    grid is evaluated.  Grid points whose metrics are numerically
    undefined are skipped; if no point at all is evaluable a
    :class:`DegeneracyError` propagates.  The grid holds only the field
    the objective reads: the QFI class sum only for ``qfi``, the fidelity
    only for ``fidelity``.
    Under the physical convention, where neither probability nor QFI
    depends on the rotation angle, the search takes those two at the single
    angle ``eta_range[0]``, and the fidelity at the angle 0 when the
    rotation range starts there; the full axis would return the same
    point (see :func:`_eta_axis`).
    """
    objective = Objective(objective)
    r = _check_r(r)
    _check_register(p_base)
    return _search([r], p_base, grid, convention, objective)[0]


def maximize_fidelity_at_unit_probability(
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    *,
    convention: Convention = Convention.PAPER,
) -> OptResult:
    """Best fidelity among deterministic protocol settings.

    The rotation angle is pinned to zero, the probability-unity value at
    every decay level and measurement strength (the identity that
    :func:`~ghzprotect.closedform.eta_opt_probability` evaluates), the
    measurement angle is swept, and only grid points with
    ``|probability - 1| < 1e-9`` compete.  Only probability and fidelity
    are evaluated on the grid.  This is the search that
    :func:`sweep_r` runs for a whole decay grid at once, with one level.
    """
    r = _check_r(r)
    _check_register(p_base)
    return _search(
        [r], p_base, grid, convention, Objective.FIDELITY, unit_probability=True
    )[0]


def pareto_scan(
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(
        theta_range=(0.0, math.pi, 181), eta_range=(0.0, math.pi, 181)
    ),
    *,
    convention: Convention = Convention.PAPER,
) -> ParetoScanResult:
    """(fidelity, probability) at every point of one angle grid.

    Both angle ranges must stay within [0, pi].  Only the base grid is
    evaluated (no refinement), in row-major order; points whose
    record-average is numerically undefined are omitted.  The result also
    carries the no-protection fidelity as the reference line.
    """
    r = _check_r(r)
    _check_register(p_base)
    for name, rng in (("theta_range", grid.theta_range), ("eta_range", grid.eta_range)):
        if rng[0] < 0.0 or rng[1] > math.pi:
            raise ValueError(f"pareto scan requires {name} within [0, pi], got {rng}")

    thetas = np.linspace(*grid.theta_range)
    etas = np.linspace(*grid.eta_range)
    grids = _grid_values(
        p_base, r, thetas[:, None], etas[None, :], convention,
        ("probability", "fidelity"),
    )
    prob, fid = grids["probability"], grids["fidelity"]
    i, j = np.nonzero(np.isfinite(fid) & np.isfinite(prob))  # row-major
    points = [
        ParetoPoint(*point)
        for point in zip(
            thetas[i].tolist(), etas[j].tolist(), fid[i, j].tolist(), prob[i, j].tolist()
        )
    ]
    reference = do_nothing_baseline(
        dataclasses.replace(p_base, theta=math.pi / 2.0, eta=0.0, r=r)
    )
    return ParetoScanResult(
        r=r,
        points=points,
        baseline_fidelity=reference.fidelity,
        convention=convention,
    )


def sweep_r(
    mode: Union[Objective, str],
    r_grid: Union[Sequence[float], Iterable[float]],
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    *,
    convention: Convention = Convention.PAPER,
) -> list[OptResult]:
    """One optimization per decay level, with the no-protection reference.

    ``mode`` is a free objective (``probability`` / ``fidelity`` /
    ``qfi``), maximized one decay level at a time with only the
    objective's field on the grid (see :func:`maximize_metric`), or
    :data:`UNIT_PROBABILITY` for the constrained fidelity search, which
    runs once for the whole grid: each pass evaluates only probability and
    fidelity, for every level at once, and each result equals
    :func:`maximize_fidelity_at_unit_probability` at its level.  ``r_grid``
    must be strictly increasing within [0, 1].  Each returned result
    carries the matching no-protection row in ``baseline``.
    """
    rs = [_check_r(x) for x in r_grid]
    if not rs:
        raise ValueError("r_grid must contain at least one value")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_grid must be strictly increasing")
    _check_register(p_base)

    if mode == UNIT_PROBABILITY:
        results = _search(
            rs, p_base, grid, convention, Objective.FIDELITY, unit_probability=True
        )
    else:
        objective = Objective(mode)
        results = [
            maximize_metric(objective, r, p_base, grid, convention=convention)
            for r in rs
        ]
    return [
        dataclasses.replace(
            result,
            baseline=do_nothing_baseline(
                dataclasses.replace(p_base, theta=math.pi / 2.0, eta=0.0, r=r)
            ),
        )
        for r, result in zip(rs, results)
    ]
