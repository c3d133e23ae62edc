"""Closed-form aggregate formulas, evaluated exactly as written.

Each aggregate function computes one printed expression for the total
probability, fidelity, or Fisher information, and nothing else.  The
appendix aggregates they are checked against (binomial-collapsed
probability and fidelity, the per-class sum for the information) are the
structured engine's paper-convention numbers, which this module does not
import.  The two agree everywhere except for a known inconsistency in the
Fisher aggregate's k=0 and k=N denominators, which is surfaced as a
measurable gap rather than papered over.
"""

from __future__ import annotations

import cmath
import math

from ghzprotect.params import (
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    validate_params,
)

_DEGENERACY_TOL = 1e-14

#: Real-part ceiling for the optimal-rotation identity check.
_ETA_OPT_TOL = 1e-12


def pow_int(z: complex, n: int) -> complex:
    """z**n for non-negative integer n by repeated squaring.

    Stays on the multiplicative path for any exponent (no log/exp branch),
    so thousand-fold powers keep full precision and z=0 is exact.
    """
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    result = complex(1.0)
    base = complex(z)
    while n:
        if n & 1:
            result *= base
        base *= base
        n >>= 1
    return result


def class_probability(p: ProtocolParams, k: int) -> complex:
    """Per-class weight of the record class with k zeros, closed form.

    One parametric expression covers all classes (the k=0 and k=N printed
    specializations follow by substitution):

        |alpha|^2 u^k v^{N-k} e^{ik eta} (r e^{i eta}+(1-r) e^{-i eta})^{N-k}
      + |beta|^2  v^k u^{N-k} e^{i(N-k) eta} (r e^{i eta}+(1-r) e^{-i eta})^k

    with u = cos^2(theta/2), v = sin^2(theta/2).
    """
    validate_params(p, max_qubits=1 << 20)
    n = p.n_qubits
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    u = math.cos(p.theta / 2.0) ** 2
    v = math.sin(p.theta / 2.0) ** 2
    zp = cmath.exp(1j * p.eta)
    zm = cmath.exp(-1j * p.eta)
    damp = p.r * zp + (1.0 - p.r) * zm
    c2 = abs(p.alpha) ** 2
    s2 = abs(p.beta) ** 2
    return c2 * u**k * v ** (n - k) * pow_int(zp, k) * pow_int(damp, n - k) + (
        s2 * v**k * u ** (n - k) * pow_int(zp, n - k) * pow_int(damp, k)
    )


def prob_total(p: ProtocolParams) -> complex:
    """Record-summed total weight.

    The binomial-collapsed product form

        ((r e^{i eta} + (1-r) e^{-i eta}) sin^2(theta/2)
          + e^{i eta} cos^2(theta/2))^N.
    """
    validate_params(p, max_qubits=1 << 20)
    u = math.cos(p.theta / 2.0) ** 2
    v = math.sin(p.theta / 2.0) ** 2
    zp = cmath.exp(1j * p.eta)
    zm = cmath.exp(-1j * p.eta)
    base = (p.r * zp + (1.0 - p.r) * zm) * v + zp * u
    return pow_int(base, p.n_qubits)


def fid_total(p: ProtocolParams) -> complex:
    """Record-averaged overlap with the input state.

    The printed three-term numerator

        (|alpha|^4+|beta|^4) (u e^{i eta} + v (1-r) e^{-i eta})^N
      + 2 |alpha beta|^2 r^N e^{iN eta} v^N
      + 2^{N+1} |alpha beta|^2 (1-r)^{N/2} sin^N(theta) / 2^N

    divided by the total weight.  Raises on vanishing total weight.
    """
    validate_params(p, max_qubits=1 << 20)
    n = p.n_qubits
    u = math.cos(p.theta / 2.0) ** 2
    v = math.sin(p.theta / 2.0) ** 2
    zp = cmath.exp(1j * p.eta)
    zm = cmath.exp(-1j * p.eta)
    c2 = abs(p.alpha) ** 2
    s2 = abs(p.beta) ** 2
    ab2 = c2 * s2

    numerator = (
        (c2**2 + s2**2) * pow_int(u * zp + v * (1.0 - p.r) * zm, n)
        + 2.0 * ab2 * p.r**n * pow_int(zp, n) * v**n
        + 2.0 ** (n + 1) * ab2 * (1.0 - p.r) ** (n / 2.0)
        * math.sin(p.theta) ** n / 2.0**n
    )
    total = prob_total(p)
    if abs(total) < _DEGENERACY_TOL:
        raise DegeneracyError(
            f"total record weight |{total}| vanishes at theta={p.theta}, "
            f"eta={p.eta}, r={p.r}; fidelity is undefined"
        )
    return numerator / total


def qfi_total(p: ProtocolParams) -> complex:
    """Record-averaged Fisher information about the collective phase.

    Evaluates the printed three-part sum whose k=0 and k=N denominators
    read |alpha|^2 sin^{2N}(theta/2) (r(1-r))^N + |beta|^2 cos^{2N}(theta/2)
    e^{iN eta} (and the mirror); these differ from the per-class elements,
    producing a documented gap of N^2 2^{1-N} against the structured
    engine's paper-convention QFI at r=0, eta=0, theta=pi/2.
    """
    validate_params(p, max_qubits=1 << 20)
    n = p.n_qubits
    u = math.cos(p.theta / 2.0) ** 2
    v = math.sin(p.theta / 2.0) ** 2
    zpn = cmath.exp(1j * p.eta * n)
    c2 = abs(p.alpha) ** 2
    s2 = abs(p.beta) ** 2

    numerator = (
        4.0 * c2 * s2 * (1.0 - p.r) ** n
        * math.sin(p.theta) ** (2 * n) / 4.0**n * n**2
    )

    def term(denom: complex) -> complex:
        if numerator == 0.0:
            return 0.0 + 0.0j
        if abs(denom) < _DEGENERACY_TOL:
            raise DegeneracyError(
                f"vanishing information denominator at theta={p.theta}, "
                f"eta={p.eta}, r={p.r}"
            )
        return numerator / denom

    rr = (p.r * (1.0 - p.r)) ** n
    total = term(c2 * v**n * rr + s2 * u**n * zpn)
    total += term(c2 * u**n * zpn + s2 * v**n * rr)
    for k in range(1, n):
        mult = float(math.comb(n, k))
        zmu = cmath.exp(1j * p.eta * (2 * k - n))
        zmu_c = cmath.exp(-1j * p.eta * (2 * k - n))
        denom = (
            c2 * u**k * v ** (n - k) * (1.0 - p.r) ** (n - k) * zmu
            + s2 * v**k * u ** (n - k) * (1.0 - p.r) ** k * zmu_c
        )
        total += mult * term(denom)
    return total


def eta_opt_probability(r: float, theta: float) -> float:
    """Rotation angle that keeps the record-summed weight at 1.

    Evaluates the printed expression -i log((1 + sqrt(1-4ab)) / (2a)) with
    a = cos^2(theta/2) + r sin^2(theta/2) and b = (1-r) sin^2(theta/2).
    Because a + b = 1, the argument collapses to a positive real, so the
    principal real value is identically 0: no rotation ever helps the
    total weight.  The function verifies that collapse numerically and
    returns the (zero) real part.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in the unit interval, got {r}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    a = math.cos(theta / 2.0) ** 2 + r * math.sin(theta / 2.0) ** 2
    b = (1.0 - r) * math.sin(theta / 2.0) ** 2
    if a == 0.0:
        # Only at (r=0, theta=pi): the log argument diverges along the
        # positive real axis, so the real part's limit is still 0.
        return 0.0
    # The discriminant 1 - 4ab equals (a - b)^2 exactly since a + b = 1;
    # taking its root as |a - b| avoids the sign flips that direct
    # evaluation suffers from rounding when a is close to b.
    w = -1j * cmath.log((1.0 + abs(a - b)) / (2.0 * a))
    if abs(w.real) >= _ETA_OPT_TOL:
        raise AssertionError(
            f"optimal-rotation identity violated: real part {w.real} at "
            f"r={r}, theta={theta}"
        )
    return w.real


def metrics_closedform(p: ProtocolParams) -> MetricsRow:
    """Realized metrics row from the closed forms (paper convention).

    The printed aggregates carry the two-sided rotation phases, so rows
    are tagged with the paper convention; use the structured engine for
    physical-convention rows.
    """
    aggregates = (prob_total(p), fid_total(p), qfi_total(p))
    return MetricsRow.realized(
        (p.r, p.theta, p.eta), aggregates, Convention.PAPER,
        Engine.CLOSEDFORM_VERBATIM,
    )
