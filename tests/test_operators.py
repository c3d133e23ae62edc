"""Unit tests for the single-qubit protocol operators.

Expected matrices are frozen from hand evaluation of the defining
expressions; channel identities (POVM completeness, Kraus completeness,
unitarity) are exercised over seeded random parameter draws.
"""

import math

import numpy as np
import pytest

from ghzprotect.operators import (
    adc_basis_action,
    adc_kraus,
    flip_op,
    rotation_op,
    weak_meas_op,
)

I2 = np.eye(2, dtype=np.complex128)


class TestWeakMeasOp:
    def test_frozen_values_theta_pi_over_3(self):
        # cos(pi/6) = sqrt(3)/2, sin(pi/6) = 1/2
        m0 = weak_meas_op(0, math.pi / 3)
        m1 = weak_meas_op(1, math.pi / 3)
        np.testing.assert_allclose(
            m0, np.diag([math.sqrt(3) / 2, 0.5]), atol=1e-15
        )
        np.testing.assert_allclose(
            m1, np.diag([0.5, math.sqrt(3) / 2]), atol=1e-15
        )

    def test_projective_limit(self):
        np.testing.assert_allclose(weak_meas_op(0, 0.0), np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(weak_meas_op(1, 0.0), np.diag([0.0, 1.0]), atol=1e-15)

    def test_no_measurement_limit(self):
        # theta = pi/2 gives both operators = I / sqrt(2).
        for outcome in (0, 1):
            np.testing.assert_allclose(
                weak_meas_op(outcome, math.pi / 2), I2 / math.sqrt(2), atol=1e-15
            )

    def test_completeness_random_strengths(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            m0 = weak_meas_op(0, theta)
            m1 = weak_meas_op(1, theta)
            np.testing.assert_allclose(
                m0.conj().T @ m0 + m1.conj().T @ m1,
                I2,
                atol=1e-15,
                err_msg=f"POVM completeness violated at theta={theta}",
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="theta"):
            weak_meas_op(0, -0.1)
        with pytest.raises(ValueError, match="theta"):
            weak_meas_op(0, math.pi + 0.1)
        with pytest.raises(ValueError, match="outcome"):
            weak_meas_op(2, 0.3)


class TestFlipOp:
    def test_values(self):
        np.testing.assert_allclose(flip_op(0), I2, atol=0)
        np.testing.assert_allclose(
            flip_op(1), np.array([[0, 1], [1, 0]], dtype=np.complex128), atol=0
        )

    def test_unitary(self):
        for outcome in (0, 1):
            f = flip_op(outcome)
            np.testing.assert_allclose(f.conj().T @ f, I2, atol=1e-15)

    def test_outcome_error(self):
        with pytest.raises(ValueError, match="outcome"):
            flip_op(-1)


class TestAdcKraus:
    def test_frozen_values(self):
        e0, e1 = adc_kraus(0.19)
        np.testing.assert_allclose(e0, np.diag([1.0, 0.9]), atol=1e-15)
        expected_e1 = np.zeros((2, 2), dtype=np.complex128)
        expected_e1[0, 1] = math.sqrt(0.19)
        np.testing.assert_allclose(e1, expected_e1, atol=1e-15)

    def test_completeness_random_damping(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = rng.uniform(0.0, 1.0)
            e0, e1 = adc_kraus(r)
            np.testing.assert_allclose(
                e0.conj().T @ e0 + e1.conj().T @ e1,
                I2,
                atol=1e-15,
                err_msg=f"Kraus completeness violated at r={r}",
            )

    def test_full_damping(self):
        e0, e1 = adc_kraus(1.0)
        rho = np.array([[0.25, 0.3], [0.3, 0.75]], dtype=np.complex128)
        out = e0 @ rho @ e0.conj().T + e1 @ rho @ e1.conj().T
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="r must"):
            adc_kraus(1.2)


class TestRotationOp:
    def test_frozen_value_eta_pi(self):
        np.testing.assert_allclose(
            rotation_op(0, math.pi), np.diag([1j, -1j]), atol=1e-15
        )

    def test_outcomes_rotate_oppositely(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            eta = rng.uniform(0.0, 2 * math.pi)
            t0 = rotation_op(0, eta)
            t1 = rotation_op(1, eta)
            np.testing.assert_allclose(t0 @ t1, I2, atol=1e-15)
            for t in (t0, t1):
                np.testing.assert_allclose(
                    t.conj().T @ t, I2, atol=1e-15,
                    err_msg=f"rotation not unitary at eta={eta}",
                )

    def test_outcome_error(self):
        with pytest.raises(ValueError, match="outcome"):
            rotation_op(3, 0.1)


class TestAdcBasisAction:
    def test_frozen_values(self):
        images = adc_basis_action(0.19)
        np.testing.assert_allclose(images[(0, 0)], np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(images[(1, 1)], np.diag([0.19, 0.81]), atol=1e-15)
        np.testing.assert_allclose(images[(0, 1)][0, 1], 0.9, atol=1e-15)
        np.testing.assert_allclose(images[(1, 0)][1, 0], 0.9, atol=1e-15)

    def test_matches_kraus_conjugation(self):
        rng = np.random.default_rng(19)
        basis = {
            (0, 0): np.array([[1, 0], [0, 0]], dtype=np.complex128),
            (0, 1): np.array([[0, 1], [0, 0]], dtype=np.complex128),
            (1, 0): np.array([[0, 0], [1, 0]], dtype=np.complex128),
            (1, 1): np.array([[0, 0], [0, 1]], dtype=np.complex128),
        }
        for _ in range(100):
            r = rng.uniform(0.0, 1.0)
            e0, e1 = adc_kraus(r)
            images = adc_basis_action(r)
            for key, op in basis.items():
                expected = e0 @ op @ e0.conj().T + e1 @ op @ e1.conj().T
                np.testing.assert_allclose(
                    images[key], expected, atol=1e-15,
                    err_msg=f"basis image {key} mismatch at r={r}",
                )

    def test_domain_error(self):
        with pytest.raises(ValueError, match="r must"):
            adc_basis_action(-0.5)
