"""Tests for the deterministic (theta, eta) grid search."""

import dataclasses
import math

import numpy as np
import pytest

from ghzprotect import optimize, structured
from ghzprotect.dense import DENSE_MAX_QUBITS, aggregate_metrics_dense, do_nothing_baseline
from ghzprotect.optimize import (
    UNIT_PROBABILITY,
    ConstraintInfeasibleError,
    GridSpec,
    Objective,
    OptResult,
    _best_per_level,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
    pareto_scan,
    sweep_r,
)
from ghzprotect.params import Convention, DegeneracyError, Engine, ProtocolParams
from ghzprotect.structured import aggregate_metrics

GHZ10 = ProtocolParams(
    n_qubits=10, gamma=math.pi / 2, phi0=0.0, theta=math.pi / 4, eta=0.0, r=0.0
)
SMALL = GridSpec(
    theta_range=(0.0, math.pi, 41),
    eta_range=(0.0, 2.0 * math.pi, 41),
    refine_iters=2,
)


def ghz(n: int, gamma: float = math.pi / 2) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=0.0, theta=math.pi / 4, eta=0.0, r=0.0
    )


class TestGridSpec:
    def test_defaults_are_valid(self):
        grid = GridSpec()
        assert grid.theta_range == (0.0, math.pi, 181)
        assert grid.eta_range == (0.0, 2.0 * math.pi, 181)

    def test_evaluation_count(self):
        grid = GridSpec(
            theta_range=(0.0, 1.0, 11),
            eta_range=(0.0, 2.0, 21),
            refine_iters=3,
        )
        assert grid.evaluation_count == 11 * 21 * 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_range": (0.0, math.pi, 1)},
            {"theta_range": (1.0, 1.0, 5)},
            {"theta_range": (-0.1, 1.0, 5)},
            {"theta_range": (0.0, 3.2, 5)},
            {"eta_range": (0.0, 7.0, 5)},
            {"eta_range": (0.5, 0.1, 5)},
            {"refine_iters": -1},
            {"refine_shrink": 0.0},
            {"refine_shrink": 1.0},
        ],
    )
    def test_rejects_malformed_ranges(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestBestIndex:
    """The search's per-level argmax: one grid per level along the first axis."""

    def test_row_major_tie_break(self):
        values = np.array([[[1.0, 2.0], [2.0, 0.0]], np.full((2, 2), 5.0)])
        index, peak = _best_per_level(values)
        assert index.tolist() == [1, 0]  # (0, 1) and (0, 0) row-major
        assert peak.tolist() == [2.0, 5.0]

    def test_non_finite_points_are_skipped(self):
        values = np.array([
            [[np.inf, 1.0], [np.nan, 0.5]],
            [[-np.inf, np.nan], [0.25, np.inf]],
        ])
        index, peak = _best_per_level(values)
        assert index.tolist() == [1, 2]
        assert peak.tolist() == [1.0, 0.25]

    def test_all_bad_returns_none(self):
        # A level with no evaluable point reads -inf, whatever its index.
        _, peak = _best_per_level(np.array([[np.nan, -np.inf], [np.inf, 1.0]]))
        assert peak.tolist() == [-np.inf, 1.0]

    def test_one_dimensional(self):
        index, peak = _best_per_level(np.array([[0.0, 3.0, 3.0]]))
        assert index.tolist() == [1]
        assert peak.tolist() == [3.0]


class TestMaximizeMetric:
    def test_identity_channel_information_bound(self):
        # Lossless channel: the best search point restores the full
        # collective-phase information n^2 at the no-measurement angle.
        res = maximize_metric(
            Objective.QFI, 0.0, GHZ10, convention=Convention.PHYSICAL
        )
        assert abs(res.value - 100.0) < 1e-6
        assert abs(res.theta_star - math.pi / 2) < 1e-3
        assert not res.on_boundary

    def test_probability_peak_is_at_zero_rotation(self):
        res = maximize_metric("probability", 0.7, GHZ10)
        assert abs(res.value - 1.0) < 1e-12
        assert res.eta_star == 0.0

    def test_fidelity_threshold_at_r07(self):
        res = maximize_metric(Objective.FIDELITY, 0.7, GHZ10)
        assert res.value >= 0.98

    def test_value_equals_companion_metric(self):
        for objective, field in [
            (Objective.PROBABILITY, "probability"),
            (Objective.FIDELITY, "fidelity"),
            (Objective.QFI, "qfi"),
        ]:
            res = maximize_metric(objective, 0.3, GHZ10, SMALL)
            assert res.value == getattr(res.companion, field)
            assert res.objective is objective
            assert res.r == 0.3
            assert res.baseline is None

    def test_deterministic_repetition(self):
        a = maximize_metric(Objective.FIDELITY, 0.45, GHZ10, SMALL)
        b = maximize_metric(Objective.FIDELITY, 0.45, GHZ10, SMALL)
        assert a == b

    def test_monotonic_refinement(self):
        values = []
        for iters in (0, 2, 6):
            grid = GridSpec(
                theta_range=(0.0, math.pi, 41),
                eta_range=(0.0, 2.0 * math.pi, 41),
                refine_iters=iters,
            )
            values.append(maximize_metric(Objective.QFI, 0.7, GHZ10, grid).value)
        assert values[1] >= values[0] - 1e-12
        assert values[2] >= values[1] - 1e-12

    def test_rotation_invariance_under_physical_convention(self):
        free = maximize_metric(
            Objective.QFI, 0.35, GHZ10, SMALL, convention=Convention.PHYSICAL
        )
        pinned_grid = GridSpec(
            theta_range=(0.0, math.pi, 41),
            eta_range=(0.0, 1e-12, 2),
            refine_iters=2,
        )
        pinned = maximize_metric(
            Objective.QFI, 0.35, GHZ10, pinned_grid, convention=Convention.PHYSICAL
        )
        assert abs(free.value - pinned.value) < 1e-10

    def test_optimum_reproduced_by_dense_oracle(self):
        # r > 1/2 keeps the two-sided-rotation fidelity surface away from
        # its weight-cancellation pole, so absolute comparisons are
        # meaningful under both conventions.
        grid = GridSpec(
            theta_range=(0.0, math.pi, 21),
            eta_range=(0.0, 2.0 * math.pi, 21),
            refine_iters=2,
        )
        for convention in (Convention.PAPER, Convention.PHYSICAL):
            res = maximize_metric(
                Objective.FIDELITY, 0.6, ghz(3), grid, convention=convention
            )
            point = ProtocolParams(
                n_qubits=3,
                gamma=math.pi / 2,
                phi0=0.0,
                theta=res.theta_star,
                eta=res.eta_star,
                r=0.6,
                extended_theta=True,
            )
            dense_row = aggregate_metrics_dense(point, convention)
            assert abs(res.value - dense_row.fidelity) < 1e-8

    def test_dense_engine_agrees_with_structured(self):
        # The fidelity surface is mirror-symmetric in the rotation angle,
        # so engine-specific rounding may break the tie toward either
        # mirror copy; only the achieved values must agree.
        grid = GridSpec(
            theta_range=(0.0, math.pi, 9),
            eta_range=(0.0, 2.0 * math.pi, 9),
            refine_iters=1,
        )
        dense = maximize_metric(
            Objective.FIDELITY, 0.2, ghz(2), grid, engine=Engine.DENSE
        )
        structured = maximize_metric(Objective.FIDELITY, 0.2, ghz(2), grid)
        assert abs(dense.theta_star - structured.theta_star) < 1e-12
        assert abs(dense.value - structured.value) < 1e-9
        point = ProtocolParams(
            n_qubits=2,
            gamma=math.pi / 2,
            phi0=0.0,
            theta=dense.theta_star,
            eta=dense.eta_star,
            r=0.2,
            extended_theta=True,
        )
        assert abs(
            aggregate_metrics(point, Convention.PAPER).fidelity - dense.value
        ) < 1e-9

    def test_closedform_engine_requires_paper_convention(self):
        with pytest.raises(ValueError):
            maximize_metric(
                Objective.QFI,
                0.3,
                GHZ10,
                SMALL,
                engine=Engine.CLOSEDFORM_VERBATIM,
                convention=Convention.PHYSICAL,
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            maximize_metric("entropy", 0.3, GHZ10, SMALL)
        with pytest.raises(ValueError):
            maximize_metric(Objective.QFI, 1.5, GHZ10, SMALL)

    def test_gamma_sweep_lowers_information_plateau(self):
        # Less balanced input amplitudes carry less collective-phase
        # information, so the optimized value drops with gamma.
        grid = GridSpec(
            theta_range=(0.0, math.pi, 61),
            eta_range=(0.0, 2.0 * math.pi, 61),
            refine_iters=3,
        )
        values = [
            maximize_metric(
                Objective.QFI,
                0.3,
                ghz(10, gamma),
                grid,
                convention=Convention.PHYSICAL,
            ).value
            for gamma in (math.pi / 6, math.pi / 3, math.pi / 2)
        ]
        assert values[0] < values[1] < values[2]


class TestUnitProbabilityConstraint:
    def test_low_decay_beats_even_mixture(self):
        res = maximize_fidelity_at_unit_probability(0.10, GHZ10)
        assert res.value > 0.5
        assert res.eta_star == 0.0
        assert abs(res.companion.probability - 1.0) < 1e-9

    def test_pinned_rotation_does_not_count_as_boundary(self):
        # eta is pinned to 0, not clipped by its range: only theta counts.
        res = maximize_fidelity_at_unit_probability(0.10, GHZ10)
        assert 0.0 < res.theta_star < math.pi
        assert not res.on_boundary

    def test_high_decay_saturates_at_projective_limit(self):
        # At strong damping the best deterministic setting is the
        # projective measurement, which yields the even two-outcome
        # mixture and fidelity exactly 1/2.
        res = maximize_fidelity_at_unit_probability(0.9, GHZ10)
        assert abs(res.value - 0.5) < 1e-9
        assert res.theta_star == 0.0
        assert res.on_boundary

    def test_unbalanced_input_saturates_at_population_bound(self):
        # For gamma = pi/3 the projective limit keeps both computational
        # populations intact, bounding the fidelity by
        # cos^4(gamma/2) + sin^4(gamma/2) = 0.625.
        res = maximize_fidelity_at_unit_probability(0.9, ghz(10, math.pi / 3))
        assert abs(res.value - 0.625) < 1e-9

    def test_ties_resolve_to_the_smallest_measurement_angle(self):
        # At full decay the two edges of the theta range give the same
        # fidelity; the search, alone or in a sweep, keeps theta = 0.
        edges = [
            aggregate_metrics(
                ProtocolParams(
                    n_qubits=10, gamma=math.pi / 2, phi0=0.0, theta=theta,
                    eta=0.0, r=1.0, extended_theta=True,
                ),
                Convention.PAPER,
            ).fidelity
            for theta in (0.0, math.pi)
        ]
        assert edges[0] == edges[1]
        res = maximize_fidelity_at_unit_probability(1.0, GHZ10, SMALL)
        (swept,) = sweep_r(UNIT_PROBABILITY, [1.0], GHZ10, SMALL)
        assert res.theta_star == swept.theta_star == 0.0

    def test_deterministic_repetition(self):
        a = maximize_fidelity_at_unit_probability(0.25, GHZ10, SMALL)
        b = maximize_fidelity_at_unit_probability(0.25, GHZ10, SMALL)
        assert a == b
        assert a.objective is Objective.FIDELITY


class TestParetoScan:
    GRID = GridSpec(theta_range=(0.0, math.pi, 61), eta_range=(0.0, math.pi, 61))

    def test_identity_channel_contains_perfect_point(self):
        scan = pareto_scan(0.0, GHZ10, self.GRID)
        hits = [
            pt
            for pt in scan.points
            if abs(pt.theta - math.pi / 2) < 1e-9 and pt.eta == 0.0
        ]
        assert len(hits) == 1
        assert abs(hits[0].fidelity - 1.0) < 1e-9
        assert abs(hits[0].probability - 1.0) < 1e-9

    def test_half_fidelity_is_reachable_deterministically(self):
        scan = pareto_scan(0.5, GHZ10, self.GRID)
        assert any(
            abs(pt.probability - 1.0) < 1e-9 and abs(pt.fidelity - 0.5) < 0.02
            for pt in scan.points
        )

    def test_high_decay_high_fidelity_needs_low_probability(self):
        # Under the physical convention no record-averaged point exceeds
        # fidelity 1/2 at strong damping, so every point above that
        # threshold (there are none) trivially has low probability.
        scan = pareto_scan(
            0.9, GHZ10, self.GRID, convention=Convention.PHYSICAL
        )
        assert all(
            pt.probability < 0.05 for pt in scan.points if pt.fidelity > 0.5
        )
        assert max(pt.fidelity for pt in scan.points) <= 0.5 + 1e-9

    def test_baseline_matches_reference_row(self):
        scan = pareto_scan(0.5, GHZ10, self.GRID)
        reference = do_nothing_baseline(
            ProtocolParams(
                n_qubits=10,
                gamma=math.pi / 2,
                phi0=0.0,
                theta=math.pi / 2,
                eta=0.0,
                r=0.5,
            )
        )
        assert scan.baseline_fidelity == reference.fidelity
        assert scan.r == 0.5

    def test_rejects_rotation_range_beyond_pi(self):
        with pytest.raises(ValueError):
            pareto_scan(0.5, GHZ10, GridSpec())


#: (id, r grid, base, grid, engine, convention) of the sweep-equals-searches test.
SWEEP_CASES = [
    (
        "structured-paper", [0.0, 0.15, 0.4, 0.7, 1.0], ghz(10, math.pi / 3), SMALL,
        Engine.STRUCTURED, Convention.PAPER,
    ),
    (
        "structured-physical", [0.0, 0.15, 0.4, 0.7, 1.0], ghz(10, math.pi / 3), SMALL,
        Engine.STRUCTURED, Convention.PHYSICAL,
    ),
    (
        "dense-n4", [0.05, 0.3, 0.6], ghz(4),
        GridSpec(
            theta_range=(0.0, math.pi, 11),
            eta_range=(0.0, 2.0 * math.pi, 2),
            refine_iters=2,
        ),
        Engine.DENSE, Convention.PAPER,
    ),
    ("one-level", [0.35], GHZ10, SMALL, Engine.STRUCTURED, Convention.PAPER),
]


#: Decay levels of the unit-probability sweep tests: fine steps up to 0.1,
#: where the optimum is interior and its QFI has bits to lose, then the
#: projective plateau.
UNIT_LEVELS = [round(0.005 * i, 3) for i in range(21)] + [0.3, 0.7, 1.0]


class TestSweep:
    def test_information_sweep_brackets_the_collapse(self):
        results = sweep_r(Objective.QFI, [0.8, 0.9], GHZ10)
        assert results[0].value >= 95.0
        assert results[1].value < 15.0
        for res, r in zip(results, (0.8, 0.9)):
            assert res.r == r
            assert res.baseline is not None
            assert res.baseline.r == r
            assert res.baseline.engine is Engine.CLOSEDFORM_VERBATIM

    def test_unit_probability_mode(self):
        results = sweep_r(UNIT_PROBABILITY, [0.3, 0.6], GHZ10, SMALL)
        for res in results:
            assert abs(res.value - 0.5) <= 0.02
            assert res.eta_star == 0.0
            assert isinstance(res, OptResult)

    def test_baseline_column_is_the_unprotected_row(self):
        (res,) = sweep_r(Objective.FIDELITY, [0.3], GHZ10, SMALL)
        direct = do_nothing_baseline(
            ProtocolParams(
                n_qubits=10,
                gamma=math.pi / 2,
                phi0=0.0,
                theta=math.pi / 2,
                eta=0.0,
                r=0.3,
            )
        )
        assert res.baseline == direct

    @pytest.mark.parametrize(
        ("mode", "rs", "p_base", "grid", "engine", "convention"),
        [
            pytest.param(
                mode, *case[1:],
                id=case[0] if mode == UNIT_PROBABILITY else f"{mode.value}-{case[0]}",
            )
            for mode in (UNIT_PROBABILITY, Objective.QFI, Objective.FIDELITY)
            for case in SWEEP_CASES
        ],
    )
    def test_unit_probability_sweep_is_one_search_per_level(
        self, mode, rs, p_base, grid, engine, convention
    ):
        # A sweep returns, field for field, what one search per decay level
        # returns: the batched constrained search, or one free maximization
        # per level.
        swept = sweep_r(mode, rs, p_base, grid, engine, convention)
        expected = [
            dataclasses.replace(
                maximize_fidelity_at_unit_probability(
                    r, p_base, grid, engine, convention
                )
                if mode == UNIT_PROBABILITY
                else maximize_metric(mode, r, p_base, grid, engine, convention),
                baseline=do_nothing_baseline(
                    dataclasses.replace(p_base, theta=math.pi / 2, eta=0.0, r=r)
                ),
            )
            for r in rs
        ]
        assert swept == expected

    @pytest.mark.parametrize("convention", list(Convention))
    @pytest.mark.parametrize("n", [10, 40])
    def test_unit_probability_companions_are_the_scalar_rows(self, n, convention):
        # The sweep re-evaluates every level's optimum in one paired call;
        # each companion row is the scalar path's row at its point.
        p_base = ghz(n, math.pi / 3)
        results = sweep_r(UNIT_PROBABILITY, UNIT_LEVELS, p_base, convention=convention)
        assert len(results) == len(UNIT_LEVELS)
        for res in results:
            point = dataclasses.replace(
                p_base, theta=res.theta_star, eta=res.eta_star, r=res.r,
                extended_theta=True,
            )
            assert res.companion == aggregate_metrics(point, convention)

    def test_unit_probability_sweep_makes_no_scalar_calls(self, monkeypatch):
        expected = sweep_r(UNIT_PROBABILITY, UNIT_LEVELS, GHZ10, SMALL)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return aggregate_metrics(*args, **kwargs)

        monkeypatch.setattr(structured, "aggregate_metrics", counted)
        monkeypatch.setattr(optimize, "aggregate_metrics", counted)
        assert sweep_r(UNIT_PROBABILITY, UNIT_LEVELS, GHZ10, SMALL) == expected
        assert calls == []

    def test_rejects_bad_r_grids(self):
        with pytest.raises(ValueError):
            sweep_r(Objective.QFI, [], GHZ10, SMALL)
        with pytest.raises(ValueError):
            sweep_r(Objective.QFI, [0.4, 0.4], GHZ10, SMALL)
        with pytest.raises(ValueError):
            sweep_r(Objective.QFI, [0.5, 0.2], GHZ10, SMALL)
        with pytest.raises(ValueError):
            sweep_r(Objective.QFI, [0.5, 1.2], GHZ10, SMALL)


class TestStructuredScalarConsistency:
    def test_companion_row_comes_from_scalar_path(self):
        res = maximize_metric(Objective.FIDELITY, 0.4, GHZ10, SMALL)
        point = ProtocolParams(
            n_qubits=10,
            gamma=math.pi / 2,
            phi0=0.0,
            theta=res.theta_star,
            eta=res.eta_star,
            r=0.4,
            extended_theta=True,
        )
        assert res.companion == aggregate_metrics(point, Convention.PAPER)


class TestGridEvaluation:
    @staticmethod
    def record_fields(monkeypatch):
        """Patch the kernel entry to log the fields each grid evaluation asks for."""
        asked = []
        real = optimize._aggregates

        def recording(*args, fidelity=True, qfi=True, probability=True):
            asked.append((fidelity, qfi))
            return real(*args, fidelity=fidelity, qfi=qfi, probability=probability)

        monkeypatch.setattr(optimize, "_aggregates", recording)
        return asked

    def test_only_the_information_objective_sums_the_classes(self, monkeypatch):
        # Each search evaluates only the fields it reads: the trade-off scan
        # and the fidelity search skip the QFI class sum, the QFI search
        # skips the fidelity, and the probability search skips both.
        runs = {
            "pareto": lambda: pareto_scan(0.4, GHZ10, TestParetoScan.GRID),
            "fidelity": lambda: maximize_metric(Objective.FIDELITY, 0.4, GHZ10, SMALL),
            "probability": lambda: maximize_metric(
                Objective.PROBABILITY, 0.4, GHZ10, SMALL
            ),
            "qfi": lambda: maximize_metric(Objective.QFI, 0.4, GHZ10, SMALL),
        }
        expected = {name: run() for name, run in runs.items()}
        asked = self.record_fields(monkeypatch)
        wanted = {
            "pareto": (True, False),
            "fidelity": (True, False),
            "probability": (False, False),
            "qfi": (False, True),
        }
        for name, run in runs.items():
            asked.clear()
            assert run() == expected[name]
            assert asked and set(asked) == {wanted[name]}, name

    def test_a_level_without_candidates_on_its_first_grid_raises(self, monkeypatch):
        def undefined(
            n, gamma, r, theta, eta, convention, fidelity=True, qfi=True,
            probability=True,
        ):
            grid = np.full(np.broadcast(r, theta, eta).shape, complex(math.nan))
            return grid, grid if fidelity else None, grid if qfi else None

        monkeypatch.setattr(optimize, "_aggregates", undefined)
        with pytest.raises(DegeneracyError, match="no evaluable grid point"):
            maximize_metric(Objective.QFI, 0.4, GHZ10, SMALL)
        monkeypatch.undo()

        # Above r = 1/2 no point reaches unit probability; the level below
        # is still searched, and its result is unchanged.
        expected = maximize_fidelity_at_unit_probability(0.2, GHZ10, SMALL)
        real = optimize._aggregates

        def off_unit_above_half(n, gamma, r, theta, eta, convention, **fields):
            prob, fid, qfi = real(n, gamma, r, theta, eta, convention, **fields)
            return np.where(np.asarray(r) > 0.5, 0.5, prob), fid, qfi

        monkeypatch.setattr(optimize, "_aggregates", off_unit_above_half)
        assert maximize_fidelity_at_unit_probability(0.2, GHZ10, SMALL) == expected
        with pytest.raises(ConstraintInfeasibleError, match="no grid point"):
            sweep_r(UNIT_PROBABILITY, [0.2, 0.8], GHZ10, SMALL)

    @pytest.mark.parametrize("objective", [Objective.PROBABILITY, Objective.QFI])
    def test_physical_searches_pin_the_rotation_axis(self, monkeypatch, objective):
        # Physical probability and information never read the rotation
        # angle, so the structured search evaluates one angle per theta and
        # returns, field by field, what the search over the full axis does.
        rs = [0.0, 0.3, 0.8, 1.0]
        grid = dataclasses.replace(SMALL, eta_range=(0.25, 6.0, 41))
        points = []
        real = optimize._aggregates

        def counting(n, gamma, r, theta, eta, convention, **fields):
            points.append(np.broadcast(r, theta, eta).size)
            return real(n, gamma, r, theta, eta, convention, **fields)

        monkeypatch.setattr(optimize, "_aggregates", counting)
        run = lambda: sweep_r(  # noqa: E731
            objective, rs, GHZ10, grid, convention=Convention.PHYSICAL
        )
        pinned = run()
        assert sum(points) == len(rs) * 41 * (1 + grid.refine_iters)
        assert {res.eta_star for res in pinned} == {0.25}

        points.clear()
        monkeypatch.setattr(optimize, "_eta_axis", lambda grid, *args: grid.eta_range)
        full = run()
        assert sum(points) == len(rs) * grid.evaluation_count
        for a, b in zip(pinned, full):
            for field in dataclasses.fields(OptResult):
                assert getattr(a, field.name) == getattr(b, field.name), field.name

    def test_the_information_search_forms_the_weight_only_where_a_bound_fails(
        self, monkeypatch
    ):
        # The QFI search reads P only through its |P| < 1e-13 mask.  The
        # first grid reaches theta = pi with Re e^(-2i eta) = -1, where no
        # bound clears that mask, so it forms P (one power); the six
        # refined windows clear it and skip P.  The companion's scalar call
        # forms P and F (two powers).  Forming P on every grid took nine.
        expected = maximize_metric(Objective.QFI, 0.4, GHZ10)
        powers = []
        real = structured._int_power

        def counting(z, n):
            powers.append(np.shape(z))
            return real(z, n)

        monkeypatch.setattr(structured, "_int_power", counting)
        assert maximize_metric(Objective.QFI, 0.4, GHZ10) == expected
        assert powers == [(1, 181, 181), (1,), (1,)]

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_physical_fidelity_search_pins_the_rotation_axis_at_zero(
        self, monkeypatch, n
    ):
        # The physical fidelity peaks at eta = 0 for every theta, so the
        # structured search evaluates that one angle and returns, field by
        # field, what the search over the full axis does.
        rs = [0.0, 0.1, 0.5, 0.9, 1.0]
        p = dataclasses.replace(GHZ10, n_qubits=n, gamma=1.1)
        points = []
        real = optimize._aggregates

        def counting(n, gamma, r, theta, eta, convention, **fields):
            points.append(np.broadcast(r, theta, eta).size)
            return real(n, gamma, r, theta, eta, convention, **fields)

        monkeypatch.setattr(optimize, "_aggregates", counting)
        run = lambda: sweep_r(  # noqa: E731
            Objective.FIDELITY, rs, p, SMALL, convention=Convention.PHYSICAL
        )
        pinned = run()
        assert sum(points) == len(rs) * 41 * (1 + SMALL.refine_iters)
        assert {res.eta_star for res in pinned} == {0.0}
        assert all(res.on_boundary for res in pinned)  # eta = 0 ends the range
        monkeypatch.setattr(optimize, "_eta_axis", lambda grid, *args: grid.eta_range)
        full = run()
        for a, b in zip(pinned, full):
            assert repr(a) == repr(b)

    def test_pointwise_engines_keep_the_full_rotation_axis(self):
        grid = GridSpec(
            theta_range=(0.0, math.pi, 3), eta_range=(0.0, 1.0, 3), refine_iters=0
        )
        shifted = dataclasses.replace(grid, eta_range=(0.5, 1.0, 3))
        axis = optimize._eta_axis
        physical, paper = Convention.PHYSICAL, Convention.PAPER
        for objective in (Objective.PROBABILITY, Objective.FIDELITY, Objective.QFI):
            assert axis(grid, Engine.DENSE, physical, objective, False) == (0.0, 1.0, 3)
            assert axis(grid, Engine.STRUCTURED, paper, objective, False) == (0.0, 1.0, 3)
            assert axis(grid, Engine.STRUCTURED, paper, objective, True) == (0.0, 0.0, 1)
        assert axis(grid, Engine.STRUCTURED, physical, Objective.QFI, False) == (0.0, 0.0, 1)
        assert axis(shifted, Engine.STRUCTURED, physical, Objective.QFI, False) == (0.5, 0.5, 1)
        assert axis(grid, Engine.STRUCTURED, physical, Objective.FIDELITY, False) == (0.0, 0.0, 1)
        assert axis(shifted, Engine.STRUCTURED, physical, Objective.FIDELITY, False) == (0.5, 1.0, 3)


class TestRegisterCeiling:
    """Searches and scans refuse a register above the scalar path's ceiling
    before they evaluate any grid."""

    SEARCHES = {
        "maximize_metric": lambda p, **kw: maximize_metric(
            Objective.QFI, 0.3, p, SMALL, **kw
        ),
        "unit_probability": lambda p, **kw: maximize_fidelity_at_unit_probability(
            0.3, p, SMALL, **kw
        ),
        "sweep_r": lambda p, **kw: sweep_r(Objective.FIDELITY, [0.1, 0.3], p, SMALL, **kw),
        "sweep_r_unit": lambda p, **kw: sweep_r(UNIT_PROBABILITY, [0.1, 0.3], p, SMALL, **kw),
        "pareto_scan": lambda p, **kw: pareto_scan(0.3, p, TestParetoScan.GRID, **kw),
    }

    @pytest.mark.parametrize("search", SEARCHES)
    def test_structured_register_above_64_raises_before_the_kernel(
        self, monkeypatch, search
    ):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(optimize, "_aggregates", counting)
        monkeypatch.setattr(structured, "_aggregates", counting)
        with pytest.raises(ValueError, match="n_qubits=65 exceeds the configured maximum 64"):
            self.SEARCHES[search](ghz(65))
        assert calls == []

    @pytest.mark.parametrize("search", SEARCHES)
    def test_dense_register_above_the_ceiling_raises_before_any_point(
        self, monkeypatch, search
    ):
        calls = []
        monkeypatch.setattr(
            optimize, "aggregate_metrics_dense", lambda *args: calls.append(args)
        )
        with pytest.raises(ValueError, match="n_qubits=11 exceeds the configured maximum 10"):
            self.SEARCHES[search](ghz(DENSE_MAX_QUBITS + 1), engine=Engine.DENSE)
        assert calls == []

    def test_largest_structured_register_is_searched(self):
        res = maximize_metric(Objective.PROBABILITY, 0.3, ghz(64), SMALL)
        assert res.value == pytest.approx(1.0)
