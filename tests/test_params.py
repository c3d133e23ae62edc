"""Validation and enumeration tests for the shared parameter types."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from ghzprotect import params
from ghzprotect.params import (
    DEGENERACY_TOL,
    BranchClass,
    Convention,
    Engine,
    MetricsRow,
    ProtocolParams,
    branch_classes,
    class_cutoffs,
    validate_params,
)


def make_params(**overrides):
    """A known-good parameter set, tweakable per test."""
    base = dict(
        n_qubits=10,
        gamma=math.pi / 2,
        phi0=0.0,
        theta=math.pi / 4,
        eta=0.3,
        r=0.2,
    )
    base.update(overrides)
    return ProtocolParams(**base)


class TestProtocolParams:
    def test_valid_construction(self):
        p = make_params()
        assert p.n_qubits == 10
        assert p.theta == pytest.approx(math.pi / 4)

    def test_amplitudes_balanced_state(self):
        p = make_params(gamma=math.pi / 2, phi0=math.pi / 2)
        np.testing.assert_allclose(p.alpha, math.sqrt(0.5), atol=1e-15)
        np.testing.assert_allclose(p.beta, 1j * math.sqrt(0.5), atol=1e-15)

    def test_amplitudes_are_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = make_params(
                gamma=rng.uniform(1e-6, math.pi - 1e-6),
                phi0=rng.uniform(-10, 10),
            )
            np.testing.assert_allclose(
                abs(p.alpha) ** 2 + abs(p.beta) ** 2, 1.0, atol=1e-14,
                err_msg="input amplitudes must stay normalized",
            )

    @pytest.mark.parametrize("gamma", [0.0, math.pi, -0.5, 4.0])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_params(gamma=gamma)

    def test_theta_default_domain_stops_at_half_pi(self):
        make_params(theta=math.pi / 2)  # boundary is allowed
        with pytest.raises(ValueError, match="theta"):
            make_params(theta=math.pi / 2 + 1e-9)

    def test_theta_extended_domain(self):
        p = make_params(theta=3.0, extended_theta=True)
        assert p.theta == pytest.approx(3.0)
        with pytest.raises(ValueError, match="theta"):
            make_params(theta=math.pi + 1e-9, extended_theta=True)

    @pytest.mark.parametrize("eta", [-0.1, 2 * math.pi + 1e-9])
    def test_eta_domain(self, eta):
        with pytest.raises(ValueError, match="eta"):
            make_params(eta=eta)

    def test_eta_closed_upper_boundary(self):
        # 2*pi itself is accepted: it is physically identical to 0 and the
        # sweep grids include it as their inclusive endpoint.
        make_params(eta=2 * math.pi)

    @pytest.mark.parametrize("r", [-1e-12, 1.0 + 1e-12])
    def test_r_domain(self, r):
        with pytest.raises(ValueError, match="r must"):
            make_params(r=r)

    @pytest.mark.parametrize("n", [0, -3, 2.0])
    def test_n_qubits_domain(self, n):
        with pytest.raises(ValueError, match="n_qubits"):
            make_params(n_qubits=n)

    def test_phi0_must_be_finite(self):
        with pytest.raises(ValueError, match="phi0"):
            make_params(phi0=math.inf)


class TestValidateParams:
    def test_passthrough(self):
        p = make_params()
        assert validate_params(p) is p

    def test_qubit_ceiling(self):
        p = make_params(n_qubits=7)
        with pytest.raises(ValueError, match="exceeds"):
            validate_params(p, max_qubits=6)
        assert validate_params(p, max_qubits=7) is p

    def test_rejects_a_mutated_object_with_the_dataclass_message(self):
        # Frozen dataclasses can still be mutated through object.__setattr__;
        # the re-check runs on the object itself and says what construction
        # would have said.
        p = make_params()
        object.__setattr__(p, "theta", 5.0)
        with pytest.raises(ValueError) as built:
            make_params(theta=5.0)
        with pytest.raises(ValueError) as checked:
            validate_params(p)
        assert str(checked.value) == str(built.value)


class TestBranchClasses:
    def test_n3_multiplicities(self):
        classes = branch_classes(3)
        assert [(c.k, c.multiplicity) for c in classes] == [
            (0, 1),
            (1, 3),
            (2, 3),
            (3, 1),
        ]

    def test_ascending_order_and_completeness(self):
        for n in [1, 2, 5, 16, 64]:
            classes = branch_classes(n)
            assert [c.k for c in classes] == list(range(n + 1))
            assert sum(c.multiplicity for c in classes) == 2**n

    def test_multiplicities_exact_at_n64(self):
        # Exact integers well beyond float precision.
        classes = branch_classes(64)
        assert classes[32].multiplicity == 1832624140942590534

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            branch_classes(0)

    def test_branch_class_validation(self):
        with pytest.raises(ValueError):
            BranchClass(k=-1, multiplicity=1)
        with pytest.raises(ValueError):
            BranchClass(k=0, multiplicity=0)


class TestMetricsRow:
    def make_row(self, **overrides):
        base = dict(
            r=0.2,
            theta=0.5,
            eta=0.1,
            probability=0.9,
            fidelity=0.8,
            qfi=42.0,
            imag_residual=1e-16,
            convention=Convention.PHYSICAL,
            engine=Engine.STRUCTURED,
        )
        base.update(overrides)
        return MetricsRow(**base)

    def test_valid_row(self):
        row = self.make_row()
        assert row.engine is Engine.STRUCTURED

    def test_physical_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            self.make_row(probability=1.0 + 1e-6)
        with pytest.raises(ValueError, match="fidelity"):
            self.make_row(fidelity=-1e-6)
        with pytest.raises(ValueError, match="qfi"):
            self.make_row(qfi=-1e-6)

    def test_physical_bounds_tolerate_rounding(self):
        row = self.make_row(probability=1.0 + 1e-10, fidelity=1.0 + 1e-10)
        assert row.probability > 1.0

    def test_paper_convention_unbounded(self):
        row = self.make_row(
            convention=Convention.PAPER, probability=3.7, fidelity=-2.0, qfi=-5.0
        )
        assert row.probability == pytest.approx(3.7)

    def test_imag_residual_non_negative(self):
        with pytest.raises(ValueError, match="imag_residual"):
            self.make_row(imag_residual=-1e-18)

    def test_realized_keeps_real_parts_and_largest_imaginary(self):
        row = MetricsRow.realized(
            (0.2, 0.5, 0.1), (0.9 + 1e-17j, 0.8 - 3e-16j, 42.0 + 2e-16j),
            Convention.PAPER, Engine.DENSE,
        )
        assert row == self.make_row(
            imag_residual=3e-16, convention=Convention.PAPER, engine=Engine.DENSE
        )

    def test_realized_rows_are_bound_checked(self):
        with pytest.raises(ValueError, match="probability"):
            MetricsRow.realized(
                (0.2, 0.5, 0.1), (1.1 + 0j, 0.8 + 0j, 42.0 + 0j),
                Convention.PHYSICAL, Engine.STRUCTURED,
            )

    def test_engines_build_rows_only_through_realized(self):
        # The one real-valued row, the no-protection baseline, is built
        # directly; every engine's complex aggregates go through realized.
        calls = []
        for path in sorted(Path(params.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                calls += [
                    (path.name, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "MetricsRow"
                ]
        assert calls == [("dense.py", "do_nothing_baseline")]


class TestClassCutoffs:
    def test_each_tier(self):
        # (|C|, pole_below, drop_below): a strong coherence, one near
        # cancellation, and one whose square underflows.
        cases = [
            (0.1, DEGENERACY_TOL, DEGENERACY_TOL),
            (3e-14, 2.0 * 3e-14 * 3e-14, 3e-14),
            (1e-170, 0.0, math.inf),
            (0.0, 0.0, math.inf),
        ]
        for c_abs, pole, drop in cases:
            assert class_cutoffs(c_abs) == (pole, drop), c_abs
        poles, drops = class_cutoffs(np.array([c for c, _, _ in cases]))
        assert poles.tolist() == [pole for _, pole, _ in cases]
        assert drops.tolist() == [drop for _, _, drop in cases]
