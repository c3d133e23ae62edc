"""Tests for the self-validation suite's check list and its grid checks.

Three checks evaluate the structured kernel or a closed form once over a
grid instead of once per point.  Their reports must read as the per-point
loops they replaced did, on a pass and on a failure, and the calls are
counted.  The class checks read the kernel's class rows, corners and
multiplicities: a perturbed value fails them, naming its point.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzprotect import closedform, structured, validate
from ghzprotect.closedform import eta_opt_probability, prob_product, prob_total
from ghzprotect.params import (
    Convention,
    DegeneracyError,
    ProtocolParams,
)
from ghzprotect.structured import aggregate_complex, aggregate_metrics, metrics_grid

THETAS = np.linspace(0.0, math.pi, 10)
ETAS = np.linspace(0.0, 2.0 * math.pi, 10)
RS = np.linspace(0.0, 1.0, 5)


def grid_point(n, i, j, m):
    return ProtocolParams(
        n_qubits=n,
        gamma=math.pi / 2,
        phi0=0.0,
        theta=float(THETAS[i]),
        eta=float(ETAS[j]),
        r=float(RS[m]),
        extended_theta=True,
    )


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def refuse(*args, **kwargs):
    raise AssertionError("the scalar path was called on a passing run")


def offset_at(offset):
    """prob_product plus offset[p] at the grid point of each p of that size."""

    def patched(n, theta, eta, r):
        out = prob_product(n, theta, eta, r)
        for p, delta in offset.items():
            if p.n_qubits == n:
                hit = (theta == p.theta) & (eta == p.eta) & (r == p.r)
                out = out + np.where(hit, delta, 0.0)
        return out

    return patched


def nan_at(kernel, p, field):
    """The kernel, reading NaN in one field at the point of p."""

    def patched(n, gamma, r, theta, eta, convention, **kwargs):
        out = list(kernel(n, gamma, r, theta, eta, convention, **kwargs))
        if n == p.n_qubits:
            hit = (
                (np.asarray(theta) == p.theta)
                & (np.asarray(eta) == p.eta)
                & (np.asarray(r) == p.r)
            )
            out[field] = np.where(hit, np.nan, out[field])
        return tuple(out)

    return patched


class TestClosedformWeightCheck:
    check = staticmethod(validate._check_closedform_weight_vs_structured)

    def test_a_pass_calls_the_kernel_and_the_product_form_once_per_n(self, monkeypatch):
        calls, forms = [], []
        monkeypatch.setattr(validate, "_aggregates", counting(calls, validate._aggregates))
        monkeypatch.setattr(validate, "prob_product", counting(forms, prob_product))
        monkeypatch.setattr(validate, "aggregate_complex", refuse)
        monkeypatch.setattr(validate, "prob_total", refuse)
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert [args[0] for args in calls] == list(range(1, 13))
        assert [args[0] for args in forms] == list(range(1, 13))

    @pytest.mark.parametrize(
        "first, second",
        [
            ((5, 2, 7, 4), (5, 6, 1, 0)),  # earlier theta, later r
            ((7, 4, 2, 4), (7, 4, 5, 0)),  # earlier eta, later r
            ((3, 9, 9, 4), (8, 0, 0, 0)),  # earlier n
        ],
    )
    def test_a_failure_names_the_first_point_in_loop_order(
        self, monkeypatch, first, second
    ):
        offset = {grid_point(*first): 1e-6, grid_point(*second): 2e-6}

        def offset_prob_total(p):
            return prob_total(p) + offset.get(p, 0.0)

        monkeypatch.setattr(validate, "prob_total", offset_prob_total)
        monkeypatch.setattr(validate, "prob_product", offset_at(offset))
        # The per-point loop's text, from the scalar path at the first point.
        n, i, j, m = first
        p = grid_point(*first)
        verbatim = prob_total(p) + 1e-6
        total, _, _ = aggregate_complex(p, Convention.PAPER)
        expected = (
            f"n={n} theta={THETAS[i]!r} eta={ETAS[j]!r} r={RS[m]!r} "
            f"delta={abs(verbatim - total)}"
        )
        assert self.check(np.random.default_rng(0)) == (False, expected)

    def test_prob_total_settles_a_point_the_product_form_flags(self, monkeypatch):
        # An array form off by 1e-6 at one point flags it; the scalar
        # prob_total, not the array, decides that it passes.
        p = grid_point(6, 4, 3, 1)
        scalar_calls = []
        monkeypatch.setattr(validate, "prob_product", offset_at({p: 1e-6}))
        monkeypatch.setattr(validate, "prob_total", counting(scalar_calls, prob_total))
        monkeypatch.setattr(validate, "aggregate_complex", refuse)
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert scalar_calls == [(p,)]

    @pytest.mark.parametrize("field", [0, 2], ids=["probability", "qfi"])
    def test_an_undefined_point_raises_the_scalar_message(self, monkeypatch, field):
        p = grid_point(4, 3, 6, 2)
        monkeypatch.setattr(
            structured, "_aggregates", nan_at(structured._aggregates, p, field)
        )
        monkeypatch.setattr(
            validate, "_aggregates", nan_at(validate._aggregates, p, field)
        )
        with pytest.raises(DegeneracyError) as expected:
            aggregate_complex(p, Convention.PAPER)
        with pytest.raises(DegeneracyError) as raised:
            self.check(np.random.default_rng(0))
        assert str(raised.value) == str(expected.value)

    def test_the_scalar_path_settles_a_point_the_batch_flags(self, monkeypatch):
        p = grid_point(4, 3, 6, 2)
        scalar_calls = []
        monkeypatch.setattr(
            validate, "_aggregates", nan_at(validate._aggregates, p, 2)
        )
        monkeypatch.setattr(
            validate, "aggregate_complex", counting(scalar_calls, aggregate_complex)
        )
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert scalar_calls == [(p, Convention.PAPER)]


class TestDenseStatesCheck:
    check = staticmethod(validate._check_dense_vs_structured_states)

    def test_a_pass_walks_each_draw_once(self, monkeypatch):
        calls, row_calls = [], []
        monkeypatch.setattr(
            validate, "run_all_branches", counting(calls, validate.run_all_branches)
        )
        monkeypatch.setattr(validate, "_class_rows", counting(row_calls, validate._class_rows))
        monkeypatch.setattr(validate, "run_protocol_branch", refuse)
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert [(p.n_qubits, convention) for p, convention in calls] == [
            (n, convention)
            for n in (1, 2, 3, 4)
            for convention in (Convention.PAPER, Convention.PHYSICAL)
        ]
        assert row_calls == calls

    @pytest.mark.parametrize(
        "n, convention, k",
        [(1, Convention.PAPER, 0), (3, Convention.PHYSICAL, 2), (4, Convention.PAPER, 4)],
    )
    def test_a_failure_names_the_perturbed_point(self, monkeypatch, n, convention, k):
        rows_of = validate._class_rows
        drawn = {}

        def perturbed(p, class_convention):
            rows = rows_of(p, class_convention)
            if (p.n_qubits, class_convention) == (n, convention):
                drawn["p"] = p
                rows.a[k] += 1e-9
            return rows

        monkeypatch.setattr(validate, "_class_rows", perturbed)
        result = self.check(np.random.default_rng(0))
        assert result == (False, f"params={drawn['p']} convention={convention.value} k={k}")


class TestRecordClassCompletenessCheck:
    check = staticmethod(validate._check_record_class_completeness)

    @pytest.mark.parametrize("n, k", [(1, 0), (8, 4), (64, 32), (3, None)])
    def test_a_failure_names_the_perturbed_size(self, monkeypatch, n, k):
        # The kernel's multiplicity of class k off by 1e-9 relative, or, for
        # k None, its last class missing.
        axis_of = validate._class_axis

        def perturbed(size, rank):
            axis = axis_of(size, rank)
            if size != n:
                return axis
            if k is None:
                return axis._replace(multiplicities=axis.multiplicities[:-1])
            multiplicities = axis.multiplicities.copy()
            multiplicities[k] *= 1.0 + 1e-9
            return axis._replace(multiplicities=multiplicities)

        monkeypatch.setattr(validate, "_class_axis", perturbed)
        passed, detail = self.check(np.random.default_rng(0))
        assert not passed
        assert detail.startswith(f"n={n} total=")


class TestClassInformationCheck:
    check = staticmethod(validate._check_class_qfi_vs_spectral)

    @staticmethod
    def draws(seed, count):
        """The check's first ``count`` (params, k) draws, replayed from its seed."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(1, 4))
            p = validate._draw_params(rng, n, theta_max=math.pi / 2)
            out.append((p, int(rng.integers(0, n + 1))))
        return out

    def test_a_pass_reads_the_kernel_rows_once_a_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(validate, "_class_rows", counting(calls, validate._class_rows))
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert len(calls) >= 30  # one a draw; a skipped draw takes another
        assert calls == [(p, Convention.PHYSICAL) for p, _ in self.draws(0, len(calls))]

    @pytest.mark.parametrize("target", [0, 9, 29])
    def test_a_failure_names_the_perturbed_point(self, monkeypatch, target):
        rows_of = validate._class_rows
        p_target, k = self.draws(0, target + 1)[target]
        calls = []

        def perturbed(p, convention):
            rows = rows_of(p, convention)
            calls.append(p)
            if len(calls) == target + 1:
                assert p == p_target
                rows.terms[k] += 1e-2 * abs(rows.terms[k]) + 1e-3
            return rows

        monkeypatch.setattr(validate, "_class_rows", perturbed)
        passed, detail = self.check(np.random.default_rng(0))
        assert not passed
        assert detail.startswith(f"params={p_target} k={k} expected=")
        assert len(calls) == target + 1


class TestCornerSymmetryCheck:
    check = staticmethod(validate._check_corner_conjugate_symmetry)

    @pytest.mark.parametrize(
        "n, convention, k",
        [(7, Convention.PAPER, 5), (4, Convention.PHYSICAL, 1), (2, Convention.PHYSICAL, 0)],
    )
    def test_a_failure_names_the_perturbed_point(self, monkeypatch, n, convention, k):
        corners = validate._corners
        drawn = {}

        def perturbed(p, class_k, class_convention):
            lower, upper = corners(p, class_k, class_convention)
            if (p.n_qubits, class_convention, class_k) == (n, convention, k):
                drawn["p"] = p
                upper += 1e-14
            return lower, upper

        monkeypatch.setattr(validate, "_corners", perturbed)
        result = self.check(np.random.default_rng(0))
        assert result == (False, f"params={drawn['p']} k={k} convention={convention.value}")


class TestUnitWeightCheck:
    check = staticmethod(validate._check_unit_weight_at_zero_rotation)

    def test_a_pass_calls_the_kernel_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(validate, "_aggregates", counting(calls, validate._aggregates))
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert len(calls) == 1

    def test_a_failure_names_the_first_r_over_tolerance(self, monkeypatch):
        rs = np.linspace(0.0, 1.0, 100)
        offset = {37: 3e-12, 80: 5e-12}
        kernel = validate._aggregates

        def offset_kernel(*args, **kwargs):
            prob, fid, qfi = kernel(*args, **kwargs)
            for row, delta in offset.items():
                prob[row] += delta
            return prob, fid, qfi

        monkeypatch.setattr(validate, "_aggregates", offset_kernel)
        # The per-r loop's text at the first offset row.
        thetas = np.linspace(0.0, math.pi, 100)
        r = rs[37]
        prob_c, _, _ = metrics_grid(
            10, math.pi / 2, 0.0, float(r), thetas, np.zeros_like(thetas),
            Convention.PAPER,
        )
        worst = float(np.max(np.abs(prob_c + offset[37] - 1.0)))
        expected = f"r={r!r} worst|P-1|={worst}"
        assert self.check(np.random.default_rng(0)) == (False, expected)


R_AXIS = np.linspace(0.0, 1.0, 100)
THETA_AXIS = np.linspace(0.0, math.pi, 100)


def log_argument(r, theta):
    """The argument eta_opt_probability takes the log of: 1 where a >= b, else b / a."""
    a = np.cos(theta / 2.0) ** 2 + r * np.sin(theta / 2.0) ** 2
    b = (1.0 - r) * np.sin(theta / 2.0) ** 2
    return (1.0 + np.abs(a - b)) / (2.0 * a) + 0j


class OffsetLog:
    """numpy, whose log gains i * delta at chosen arguments: -i log then has real part delta."""

    def __init__(self, offsets):
        self.offsets = offsets

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        out = np.log(x)
        for arg, delta in self.offsets.items():
            out = out + np.where(x == arg, 1j * delta, 0.0)
        return out


class TestRotationIdentityCheck:
    check = staticmethod(validate._check_rotation_identity_zero)

    def test_a_pass_makes_one_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(validate, "eta_opt_probability", counting(calls, eta_opt_probability))
        assert self.check(np.random.default_rng(0)) == (True, "")
        assert len(calls) == 1
        assert np.broadcast(*calls[0]).shape == (100, 100)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((10, 95), (30, 80)),  # earlier r, later theta
            ((20, 75), (20, 90)),  # same r, earlier theta
        ],
    )
    def test_a_failure_names_the_first_point_in_loop_order(
        self, monkeypatch, first, second
    ):
        grid = log_argument(R_AXIS[:, None], THETA_AXIS)
        offsets = {}
        for (i, j), delta in ((first, 1e-6), (second, 2e-6)):
            arg = log_argument(float(R_AXIS[i]), float(THETA_AXIS[j]))
            assert np.count_nonzero(grid == arg) == 1  # the point alone is hit
            offsets[arg] = delta
        monkeypatch.setattr(closedform, "np", OffsetLog(offsets))
        # The per-point loop's text: the scalar function's, at the first point.
        i, j = first
        with pytest.raises(AssertionError) as expected:
            eta_opt_probability(float(R_AXIS[i]), float(THETA_AXIS[j]))
        assert "real part 1e-06" in str(expected.value)
        with pytest.raises(AssertionError) as raised:
            self.check(np.random.default_rng(0))
        assert str(raised.value) == str(expected.value)


class TestRotationChecks:
    """The two physical rotation checks: one paired call per draw."""

    CHECKS = {
        "invariance": validate._check_physical_rotation_invariance,
        "fidelity-peak": validate._check_fidelity_peaks_at_zero_rotation,
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_each_draw_is_one_paired_call_of_its_two_points(self, monkeypatch, name):
        calls = []
        monkeypatch.setattr(
            validate, "_paired_complex", counting(calls, validate._paired_complex)
        )
        monkeypatch.setattr(validate, "aggregate_metrics", refuse)
        assert self.CHECKS[name](np.random.default_rng(3)) == (True, "")
        assert len(calls) == 10
        for p, points, convention in calls:
            assert points == [(p.r, p.theta, p.eta), (p.r, p.theta, 0.0)]
            assert convention is Convention.PHYSICAL

    @pytest.mark.parametrize("seed", range(5))
    def test_the_rows_are_those_of_one_point_calls(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            p = validate._draw_params(rng, 6, theta_max=math.pi)
            rows = validate._physical_rows_at_and_without_rotation(p)
            alone = [
                aggregate_metrics(q, Convention.PHYSICAL)
                for q in (p, dataclasses.replace(p, eta=0.0))
            ]
            assert [repr(row) for row in rows] == [repr(row) for row in alone]


def test_a_passing_run_makes_few_scalar_closed_form_calls(monkeypatch):
    # The grid checks call the array forms; scalar prob_total is left to
    # class-weights-collapse, one call per register size.
    callers = {"prob_total": [], "eta_opt_probability": []}

    def called_from(name, fn):
        def wrapper(*args, **kwargs):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in ((n, getattr(validate, n)) for n in callers):
        monkeypatch.setattr(validate, name, called_from(name, fn))
    results = validate.run_validation(7)
    assert all(result.passed for result in results)
    assert callers["prob_total"] == ["_check_class_weights_collapse"] * 4
    assert callers["eta_opt_probability"] == ["_check_rotation_identity_zero"]


def test_check_names_match_the_reference_list():
    # The benchmark's crosscheck workload fails on any name missing from
    # this list, so the report keeps every name, in order.
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    names = (reference / "validate_checks.txt").read_text(encoding="utf-8").split()
    assert [result.name for result in validate.run_validation(7)] == names


def test_scalar_vs_grid_check_evaluates_grids_of_two_points_or_more(monkeypatch):
    # A one-point grid is the scalar path's own call, so comparing the two
    # would compare a call with itself.
    calls = []
    monkeypatch.setattr(validate, "metrics_grid", counting(calls, validate.metrics_grid))
    assert validate._check_scalar_vs_grid(np.random.default_rng(7)) == (True, "")
    assert len(calls) == 20
    assert all(np.broadcast(theta, eta).size >= 2 for *_, theta, eta, _ in calls)
