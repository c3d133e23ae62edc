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

from .closedform import metrics_closedform
from .dense import aggregate_metrics_dense, do_nothing_baseline
from .params import (
    TWO_PI,
    Convention,
    DegeneracyError,
    Engine,
    FormulaVariant,
    MetricsRow,
    ProtocolParams,
)
from .structured import _probability_fidelity, aggregate_metrics, metrics_grid

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
    ``refine_shrink`` (clamped to the original range), so the total
    evaluation budget is ``steps_theta * steps_eta * (1 + refine_iters)``.
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
        """Total number of grid points visited across all iterations."""
        return self.theta_range[2] * self.eta_range[2] * (1 + self.refine_iters)


@dataclass(frozen=True)
class OptResult:
    """Best grid point found for one decay probability.

    ``value`` is the maximized metric re-evaluated through the scalar
    path of the requested engine at ``(theta_star, eta_star)``, so it
    always equals the corresponding field of ``companion`` exactly.
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
    engine: Engine
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
    engine: Engine
    convention: Convention


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in the unit interval, got {r}")
    return r


def _check_engine_convention(engine: Engine, convention: Convention) -> None:
    closed = (Engine.CLOSEDFORM_APPENDIX, Engine.CLOSEDFORM_VERBATIM)
    if engine in closed and convention is not Convention.PAPER:
        raise ValueError(
            "closed-form engines evaluate the two-sided rotation algebra and "
            "only support the paper convention"
        )


def _point_row(
    p: ProtocolParams, engine: Engine, convention: Convention
) -> MetricsRow:
    """One metrics row through the scalar path of the requested engine."""
    if engine is Engine.STRUCTURED:
        return aggregate_metrics(p, convention)
    if engine is Engine.DENSE:
        return aggregate_metrics_dense(p, convention)
    if engine is Engine.CLOSEDFORM_VERBATIM:
        return metrics_closedform(p, FormulaVariant.VERBATIM)
    if engine is Engine.CLOSEDFORM_APPENDIX:
        return metrics_closedform(p, FormulaVariant.APPENDIX_AGGREGATED)
    raise ValueError(f"unsupported engine: {engine!r}")


def _grid_values(
    p_base: ProtocolParams,
    r: float,
    thetas: np.ndarray,
    etas: np.ndarray,
    engine: Engine,
    convention: Convention,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (probability, fidelity, qfi) arrays of shape (n_theta, n_eta).

    The structured engine evaluates the whole grid in one vectorized
    pass; the other engines are evaluated pointwise.  Points whose
    record-average is numerically undefined come back as NaN.
    """
    shape = (thetas.size, etas.size)
    if engine is Engine.STRUCTURED:
        prob_c, fid_c, qfi_c = metrics_grid(
            p_base.n_qubits,
            p_base.gamma,
            p_base.phi0,
            r,
            thetas[:, None],
            etas[None, :],
            convention,
        )
        return tuple(
            np.ascontiguousarray(np.broadcast_to(arr, shape).real, dtype=np.float64)
            for arr in (prob_c, fid_c, qfi_c)
        )

    prob = np.empty(shape)
    fid = np.empty(shape)
    qfi = np.empty(shape)
    for i, theta in enumerate(thetas):
        for j, eta in enumerate(etas):
            p = dataclasses.replace(
                p_base, theta=float(theta), eta=float(eta), r=r, extended_theta=True
            )
            try:
                row = _point_row(p, engine, convention)
            except DegeneracyError:
                prob[i, j] = fid[i, j] = qfi[i, j] = math.nan
            else:
                prob[i, j] = row.probability
                fid[i, j] = row.fidelity
                qfi[i, j] = row.qfi
    return prob, fid, qfi


def _pick_objective(
    prob: np.ndarray, fid: np.ndarray, qfi: np.ndarray, objective: Objective
) -> np.ndarray:
    table = {
        Objective.PROBABILITY: prob,
        Objective.FIDELITY: fid,
        Objective.QFI: qfi,
    }
    return table[objective]


def _best_index(values: np.ndarray) -> Optional[tuple[int, ...]]:
    """Row-major argmax with non-finite points excluded.

    Returns None when no point is evaluable.  Scanning in row-major
    order with ``>=`` ties resolves equal maxima toward the smallest
    measurement angle first, then the smallest rotation angle.
    """
    masked = np.where(np.isfinite(values), values, -np.inf)
    peak = masked.max()
    if not np.isfinite(peak):
        return None
    return tuple(int(k) for k in np.argwhere(masked >= peak)[0])


def _window(center: float, width: float, lo: float, hi: float) -> tuple[float, float]:
    return max(lo, center - width / 2.0), min(hi, center + width / 2.0)


def maximize_metric(
    objective: Union[Objective, str],
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    engine: Engine = Engine.STRUCTURED,
    convention: Convention = Convention.PAPER,
) -> OptResult:
    """Maximize one metric over the (theta, eta) grid at decay level ``r``.

    ``p_base`` supplies the register size and input amplitudes; its own
    angles and decay probability are ignored.  Grid points whose metrics
    are numerically undefined are skipped; if no point at all is
    evaluable a :class:`DegeneracyError` propagates.
    """
    objective = Objective(objective)
    r = _check_r(r)
    _check_engine_convention(engine, convention)

    th_lo, th_hi, th_steps = grid.theta_range
    et_lo, et_hi, et_steps = grid.eta_range
    th_window, et_window = (th_lo, th_hi), (et_lo, et_hi)
    th_width, et_width = th_hi - th_lo, et_hi - et_lo

    best: Optional[tuple[float, float, float]] = None  # (value, theta, eta)
    for iteration in range(grid.refine_iters + 1):
        if iteration > 0:
            assert best is not None
            th_width *= grid.refine_shrink
            et_width *= grid.refine_shrink
            th_window = _window(best[1], th_width, th_lo, th_hi)
            et_window = _window(best[2], et_width, et_lo, et_hi)
        thetas = np.linspace(th_window[0], th_window[1], th_steps)
        etas = np.linspace(et_window[0], et_window[1], et_steps)
        values = _pick_objective(
            *_grid_values(p_base, r, thetas, etas, engine, convention), objective
        )
        index = _best_index(values)
        if index is None:
            if best is None:
                raise DegeneracyError(
                    "no evaluable grid point: every record-average in the "
                    "search range is numerically undefined"
                )
            continue
        i, j = index
        candidate = (float(values[i, j]), float(thetas[i]), float(etas[j]))
        if best is None or candidate[0] > best[0]:
            best = candidate

    assert best is not None
    eta_matters = (
        convention is not Convention.PHYSICAL or objective is Objective.FIDELITY
    )
    return _finalize(
        objective, r, p_base, best[1], best[2], grid, engine, convention, eta_matters
    )


def _finalize(
    objective: Objective,
    r: float,
    p_base: ProtocolParams,
    theta_star: float,
    eta_star: float,
    grid: GridSpec,
    engine: Engine,
    convention: Convention,
    eta_matters: bool,
) -> OptResult:
    """Re-evaluate the incumbent through the scalar path and package it.

    ``eta_matters`` says whether the objective depends on the rotation
    angle; only then can the rotation range clip the optimum.
    """
    p_star = dataclasses.replace(
        p_base, theta=theta_star, eta=eta_star, r=r, extended_theta=True
    )
    companion = _point_row(p_star, engine, convention)
    value = {
        Objective.PROBABILITY: companion.probability,
        Objective.FIDELITY: companion.fidelity,
        Objective.QFI: companion.qfi,
    }[objective]
    th_lo, th_hi, _ = grid.theta_range
    et_lo, et_hi, _ = grid.eta_range
    on_boundary = theta_star in (th_lo, th_hi) or (
        eta_matters and eta_star in (et_lo, et_hi)
    )
    return OptResult(
        r=r,
        objective=objective,
        theta_star=theta_star,
        eta_star=eta_star,
        value=value,
        companion=companion,
        engine=engine,
        convention=convention,
        on_boundary=on_boundary,
    )


def maximize_fidelity_at_unit_probability(
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    engine: Engine = Engine.STRUCTURED,
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
    _check_engine_convention(engine, convention)
    return _unit_probability_search([r], p_base, grid, engine, convention)[0]


def _unit_probability_search(
    rs: Sequence[float],
    p_base: ProtocolParams,
    grid: GridSpec,
    engine: Engine,
    convention: Convention,
) -> list[OptResult]:
    """The constrained fidelity search for every decay level in ``rs`` at once.

    Row i of each refinement pass is the measurement-angle grid of
    ``rs[i]``: windows, argmax (first index on ties, as
    :func:`_best_index`) and incumbent are per row, so each row runs the
    search a one-level call would.  Results, and any
    :class:`ConstraintInfeasibleError`, come in the order of ``rs``.
    """
    th_lo, th_hi, th_steps = grid.theta_range
    rows = np.arange(len(rs))
    r_col = np.array(rs, dtype=np.float64)[:, None]
    lo, hi = np.full(len(rs), th_lo), np.full(len(rs), th_hi)
    th_width = th_hi - th_lo

    best_value = np.full(len(rs), -np.inf)
    best_theta = np.full(len(rs), th_lo)
    for iteration in range(grid.refine_iters + 1):
        if iteration > 0:
            th_width *= grid.refine_shrink
            lo = np.maximum(th_lo, best_theta - th_width / 2.0)
            hi = np.minimum(th_hi, best_theta + th_width / 2.0)
        thetas = np.ascontiguousarray(np.linspace(lo, hi, th_steps, axis=1))
        prob, fid = _grid_values_paired(p_base, r_col, thetas, 0.0, engine, convention)
        feasible = (np.abs(prob - 1.0) < UNIT_PROBABILITY_TOL) & np.isfinite(fid)
        values = np.where(feasible, fid, -np.inf)
        index = np.argmax(values, axis=1)
        peak = values[rows, index]
        better = peak > best_value
        if iteration == 0:
            feasible_rows = better  # only these levels are searched further
        better &= feasible_rows
        best_value = np.where(better, peak, best_value)
        best_theta = np.where(better, thetas[rows, index], best_theta)

    results = []
    for i, r in enumerate(rs):
        if not feasible_rows[i]:
            raise ConstraintInfeasibleError(
                "no grid point reaches unit probability within 1e-9"
            )
        result = _finalize(
            Objective.FIDELITY, r, p_base, float(best_theta[i]), 0.0, grid,
            engine, convention, eta_matters=False,
        )
        if abs(result.companion.probability - 1.0) >= UNIT_PROBABILITY_TOL:
            raise ConstraintInfeasibleError(
                "incumbent violates the unit-probability constraint on scalar "
                f"re-evaluation: probability={result.companion.probability!r}"
            )
        results.append(result)
    return results


def _grid_values_paired(
    p_base: ProtocolParams,
    r,
    thetas: np.ndarray,
    etas,
    engine: Engine,
    convention: Convention,
) -> tuple[np.ndarray, np.ndarray]:
    """(probability, fidelity) at broadcast (r, theta, eta) points.

    The structured engine evaluates only these two closed forms, in one
    vectorized pass; the other engines are evaluated pointwise.
    """
    if engine is Engine.STRUCTURED:
        prob_c, fid_c = _probability_fidelity(
            p_base.n_qubits, p_base.gamma, r, thetas, etas, convention
        )
        return prob_c.real, fid_c.real
    rs, thetas, etas = np.broadcast_arrays(r, thetas, etas)
    prob = np.empty(thetas.shape)
    fid = np.empty(thetas.shape)
    for i in np.ndindex(thetas.shape):
        p = dataclasses.replace(
            p_base, theta=float(thetas[i]), eta=float(etas[i]), r=float(rs[i]),
            extended_theta=True,
        )
        try:
            row = _point_row(p, engine, convention)
        except DegeneracyError:
            prob[i] = fid[i] = math.nan
        else:
            prob[i], fid[i] = row.probability, row.fidelity
    return prob, fid


def pareto_scan(
    r: float,
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(
        theta_range=(0.0, math.pi, 181), eta_range=(0.0, math.pi, 181)
    ),
    engine: Engine = Engine.STRUCTURED,
    convention: Convention = Convention.PAPER,
) -> ParetoScanResult:
    """(fidelity, probability) at every point of one angle grid.

    Both angle ranges must stay within [0, pi].  Only the base grid is
    evaluated (no refinement), in row-major order; points whose
    record-average is numerically undefined are omitted.  The result also
    carries the no-protection fidelity as the reference line.
    """
    r = _check_r(r)
    _check_engine_convention(engine, convention)
    for name, rng in (("theta_range", grid.theta_range), ("eta_range", grid.eta_range)):
        if rng[0] < 0.0 or rng[1] > math.pi:
            raise ValueError(f"pareto scan requires {name} within [0, pi], got {rng}")

    thetas = np.linspace(*grid.theta_range)
    etas = np.linspace(*grid.eta_range)
    prob, fid, _ = _grid_values(p_base, r, thetas, etas, engine, convention)
    points = [
        ParetoPoint(float(thetas[i]), float(etas[j]), float(fid[i, j]), float(prob[i, j]))
        for i in range(thetas.size)
        for j in range(etas.size)
        if math.isfinite(fid[i, j]) and math.isfinite(prob[i, j])
    ]
    reference = do_nothing_baseline(
        dataclasses.replace(p_base, theta=math.pi / 2.0, eta=0.0, r=r)
    )
    return ParetoScanResult(
        r=r,
        points=points,
        baseline_fidelity=reference.fidelity,
        engine=engine,
        convention=convention,
    )


def sweep_r(
    mode: Union[Objective, str],
    r_grid: Union[Sequence[float], Iterable[float]],
    p_base: ProtocolParams,
    grid: GridSpec = GridSpec(),
    engine: Engine = Engine.STRUCTURED,
    convention: Convention = Convention.PAPER,
) -> list[OptResult]:
    """One optimization per decay level, with the no-protection reference.

    ``mode`` is a free objective (``probability`` / ``fidelity`` /
    ``qfi``), maximized one decay level at a time, or
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

    if mode == UNIT_PROBABILITY:
        _check_engine_convention(engine, convention)
        results = _unit_probability_search(rs, p_base, grid, engine, convention)
    else:
        objective = Objective(mode)
        results = [
            maximize_metric(objective, r, p_base, grid, engine, convention)
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
