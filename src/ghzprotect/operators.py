"""Single-qubit operators of the protection protocol.

Every step of the per-qubit circuit lives here as an explicit 2x2 matrix:
the weak measurement pair, the outcome-conditioned flips, the amplitude
damping Kraus pair, and the outcome-conditioned phase rotation.  All
matrices are returned as fresh ``np.complex128`` arrays.
"""

from __future__ import annotations

import math

import numpy as np

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _check_outcome(outcome: int) -> None:
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")


def weak_meas_op(outcome: int, theta: float) -> np.ndarray:
    """Measurement operator M_outcome of the variable-strength dichotomic POVM.

    M_0 = diag(cos(theta/2), sin(theta/2)) and M_1 is the same with the
    entries swapped, so M_0^dag M_0 + M_1^dag M_1 = I for every strength.
    theta = pi/2 makes both operators proportional to the identity (no
    measurement); theta = 0 is a projective measurement, with an exact 0
    entry.  theta = pi is projective only to rounding: cos(pi/2) evaluates
    to 6.1e-17, not 0, and is kept so, as every output at theta = pi
    carries its bits.

    Args:
        outcome: measurement record bit, 0 or 1.
        theta: strength angle, must lie in [0, pi].

    Returns:
        2x2 complex matrix.
    """
    _check_outcome(outcome)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if outcome == 0:
        return np.array([[c, 0.0], [0.0, s]], dtype=np.complex128)
    return np.array([[s, 0.0], [0.0, c]], dtype=np.complex128)


def flip_op(outcome: int) -> np.ndarray:
    """Conditional bit flip: identity for outcome 0, sigma_x for outcome 1."""
    _check_outcome(outcome)
    return _I2.copy() if outcome == 0 else _SX.copy()


def adc_kraus(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair (e0, e1) of the amplitude damping channel.

    e0 = diag(1, sqrt(1-r)) keeps the populations, e1 = sqrt(r) |0><1|
    moves excitation to the ground state.  e0^dag e0 + e1^dag e1 = I.
    For a level decaying at rate Gamma for a time t, r = 1 - e^{-Gamma t}.

    Args:
        r: damping probability in [0, 1].
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in the unit interval, got {r}")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - r)]], dtype=np.complex128)
    e1 = np.array([[0.0, math.sqrt(r)], [0.0, 0.0]], dtype=np.complex128)
    return e0, e1


def rotation_op(outcome: int, eta: float) -> np.ndarray:
    """Outcome-conditioned phase rotation.

    T_0 = diag(e^{i eta/2}, e^{-i eta/2}); T_1 is its inverse (the two
    outcomes rotate in opposite senses).  Both are unitary for any eta.
    """
    _check_outcome(outcome)
    sign = 1.0 if outcome == 0 else -1.0
    phase = np.exp(1j * sign * eta / 2.0)
    return np.array(
        [[phase, 0.0], [0.0, np.conj(phase)]], dtype=np.complex128
    )


def adc_basis_action(r: float) -> dict[tuple[int, int], np.ndarray]:
    """Images of the four basis operators |i><j| under amplitude damping.

    Returns a dict keyed by (i, j) with the channel output of |i><j|:

        |0><0| -> |0><0|
        |1><1| -> r |0><0| + (1-r) |1><1|
        |0><1| -> sqrt(1-r) |0><1|
        |1><0| -> sqrt(1-r) |1><0|

    These images fully determine the channel by linearity and are exactly
    what conjugation by the Kraus pair produces (tested against
    :func:`adc_kraus`).
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in the unit interval, got {r}")
    sq = math.sqrt(1.0 - r)
    return {
        (0, 0): np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128),
        (1, 1): np.array([[r, 0.0], [0.0, 1.0 - r]], dtype=np.complex128),
        (0, 1): np.array([[0.0, sq], [0.0, 0.0]], dtype=np.complex128),
        (1, 0): np.array([[0.0, 0.0], [sq, 0.0]], dtype=np.complex128),
    }
