"""Scalable per-class evaluation of the protocol.

Every qubit sees the same control parameters, so a measurement record
matters only through k, its number of 0 outcomes, and each of the N+1
record classes evolves in closed form: the branch operator is a sum of two
diagonal tensor products (descendants of the two input populations) plus a
pair of corner coherences.  All aggregates then cost O(N) instead of
O(4^N), which is what makes thousand-qubit registers tractable.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ghzprotect.params import (
    DEFAULT_MAX_QUBITS,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    validate_params,
)

_DEGENERACY_TOL = 1e-13
#: Below this, corner populations have underflowed and their class is
#: dropped unless it is a pole, as the dense engine drops such branches.
_UNDERFLOW_TOL = 1e-14
#: Most (class, point) values one QFI block holds: a scalar call takes all
#: classes at once, a 181x181 grid one class at a time.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class DiagProduct:
    """A diagonal tensor-product operator: scalar * prod_i diag(d0_i, d1_i).

    Stores one (d0, d1) pair per qubit, so traces and single diagonal
    entries cost O(N) while the operator itself would be 2^N dimensional.
    """

    scalar: complex
    pairs: tuple[tuple[complex, complex], ...]

    def trace(self) -> complex:
        out = complex(self.scalar)
        for d0, d1 in self.pairs:
            out *= d0 + d1
        return out

    def first_entry(self) -> complex:
        """Diagonal entry at |0...0>: scalar * prod d0."""
        out = complex(self.scalar)
        for d0, _ in self.pairs:
            out *= d0
        return out

    def last_entry(self) -> complex:
        """Diagonal entry at |1...1>: scalar * prod d1."""
        out = complex(self.scalar)
        for _, d1 in self.pairs:
            out *= d1
        return out

    def diagonal(self) -> np.ndarray:
        """Expand the full 2^N diagonal (exponential; small N only).

        The first stored pair is the most significant bit, matching the
        dense engine's operator ordering.
        """
        vec = np.array([self.scalar], dtype=np.complex128)
        for d0, d1 in self.pairs:
            vec = np.kron(vec, np.array([d0, d1], dtype=np.complex128))
        return vec


@dataclass(frozen=True)
class BranchElements:
    """Closed-form elements of one record class.

    A and B are the populations at |0...0> and |1...1>; C and D are the
    coherences at (|1...1>, |0...0>) and its transpose position; P is the
    class trace (per-record weight, before multiplicity).  diag_alpha and
    diag_beta are the two diagonal tensor products descending from the
    input populations |alpha|^2 and |beta|^2; A, B and P are their entries
    and traces, kept separately for O(1) aggregate formulas.
    """

    k: int
    A: complex
    B: complex
    C: complex
    D: complex
    P: complex
    diag_alpha: DiagProduct
    diag_beta: DiagProduct


def _rotation_phases(convention: Convention, eta: float):
    """Per-qubit multipliers the conditional rotation applies.

    Returns (diag0, diag1, corner_lo) where diag0/diag1 are the (d0, d1)
    multipliers for outcome 0 / outcome 1 qubits and corner_lo the
    (outcome 0, outcome 1) multipliers of the lower (row > column)
    coherence.  Upper-coherence multipliers are the conjugates.
    """
    zp = cmath.exp(1j * eta)
    zm = cmath.exp(-1j * eta)
    if convention is Convention.PAPER:
        # T rho T: diagonal entries pick up t_i^2, coherences t_0 t_1 = 1.
        return (zp, zm), (zm, zp), (1.0 + 0.0j, 1.0 + 0.0j)
    # T rho T^dag: diagonals are untouched, coherences wind.
    return (1.0 + 0.0j, 1.0 + 0.0j), (1.0 + 0.0j, 1.0 + 0.0j), (zm, zp)


def _qubit_pairs(p: ProtocolParams, convention: Convention):
    """Per-qubit (d0, d1) diagonal pairs for both input populations.

    Returns (alpha_o0, alpha_o1, beta_o0, beta_o1): the diagonal images of
    |0><0| (alpha branch) and |1><1| (beta branch) for a qubit whose record
    bit is 0 or 1, including the conditional-rotation phases.
    """
    u = math.cos(p.theta / 2.0) ** 2
    v = math.sin(p.theta / 2.0) ** 2
    r = p.r
    rot0, rot1, _ = _rotation_phases(convention, p.eta)
    alpha_o0 = (u * rot0[0], 0.0 * rot0[1])
    alpha_o1 = (v * (1.0 - r) * rot1[0], v * r * rot1[1])
    beta_o0 = (v * r * rot0[0], v * (1.0 - r) * rot0[1])
    beta_o1 = (0.0 * rot1[0], u * rot1[1])
    return alpha_o0, alpha_o1, beta_o0, beta_o1


def _element_scalars(
    p: ProtocolParams, k: int, convention: Convention
) -> tuple[complex, complex, complex, complex, complex]:
    """(A, B, C, D, P) of class k via integer powers; O(1) in N."""
    n = p.n_qubits
    alpha, beta = p.alpha, p.beta
    c2, s2 = abs(alpha) ** 2, abs(beta) ** 2
    a0, a1, b0, b1 = _qubit_pairs(p, convention)

    pop_a0 = c2 * a0[0] ** k * a1[0] ** (n - k)
    pop_b0 = s2 * b0[0] ** k * b1[0] ** (n - k)
    pop_a1 = c2 * a0[1] ** k * a1[1] ** (n - k)
    pop_b1 = s2 * b0[1] ** k * b1[1] ** (n - k)
    trace_a = c2 * (a0[0] + a0[1]) ** k * (a1[0] + a1[1]) ** (n - k)
    trace_b = s2 * (b0[0] + b0[1]) ** k * (b1[0] + b1[1]) ** (n - k)

    # Corner coherence: every qubit contributes sin(theta)/2 * sqrt(1-r)
    # regardless of its record bit; only the rotation phase is conditional.
    _, _, corner_lo = _rotation_phases(convention, p.eta)
    w = (math.sin(p.theta) / 2.0) * math.sqrt(1.0 - p.r)
    lower = (
        np.conj(alpha) * beta * w**n * corner_lo[0] ** k * corner_lo[1] ** (n - k)
    )
    upper = (
        alpha
        * np.conj(beta)
        * w**n
        * np.conj(corner_lo[0]) ** k
        * np.conj(corner_lo[1]) ** (n - k)
    )
    return (
        pop_a0 + pop_b0,
        pop_a1 + pop_b1,
        complex(lower),
        complex(upper),
        trace_a + trace_b,
    )


def branch_elements(
    p: ProtocolParams,
    k: int,
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> BranchElements:
    """Closed-form branch operator of the record class with k zeros."""
    validate_params(p, max_qubits=max_qubits)
    n = p.n_qubits
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")

    a, b, c, d, prob = _element_scalars(p, k, convention)
    alpha, beta = p.alpha, p.beta
    a0, a1, b0, b1 = _qubit_pairs(p, convention)
    diag_alpha = DiagProduct(
        scalar=abs(alpha) ** 2, pairs=(a0,) * k + (a1,) * (n - k)
    )
    diag_beta = DiagProduct(
        scalar=abs(beta) ** 2, pairs=(b0,) * k + (b1,) * (n - k)
    )
    return BranchElements(
        k=k, A=a, B=b, C=c, D=d, P=prob,
        diag_alpha=diag_alpha, diag_beta=diag_beta,
    )


def branch_qfi(elements: BranchElements, n: int) -> complex:
    """Per-record Fisher information of one class.

    The normalized branch state holds corner coherence C/P between
    populations A/P and B/P, and the collective phase winds it at rate n,
    giving (1/P) * 4 |C|^2 n^2 / (A + B).  Classes with no surviving
    coherence carry no information and return 0 without touching the
    denominators.
    """
    if abs(elements.C) == 0.0:
        return 0.0 + 0.0j
    denom = elements.A + elements.B
    if abs(denom) < _DEGENERACY_TOL:
        raise DegeneracyError(
            f"class k={elements.k} has vanishing corner populations "
            f"|A+B|={abs(denom)}; its information is undefined"
        )
    if abs(elements.P) < _DEGENERACY_TOL:
        raise DegeneracyError(
            f"class k={elements.k} has vanishing weight |P|={abs(elements.P)}"
        )
    return (1.0 / elements.P) * 4.0 * abs(elements.C) ** 2 * n**2 / denom


def _realize(values: list[complex]) -> tuple[list[float], float]:
    """Real parts of aggregates plus the largest imaginary magnitude."""
    residual = max(abs(z.imag) for z in values)
    return [z.real for z in values], residual


def aggregate_complex(
    p: ProtocolParams,
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> tuple[complex, complex, complex]:
    """Unrealized (complex) aggregates: (probability, fidelity, qfi).

    The 0-d call of the kernel behind :func:`metrics_grid`, raising
    :class:`DegeneracyError` wherever that kernel returns NaN.  Aggregates
    are complex under the two-sided-multiplication convention;
    :func:`aggregate_metrics` wraps this and realizes the real parts.
    """
    validate_params(p, max_qubits=max_qubits)
    aggregates = _aggregates(p.n_qubits, p.gamma, p.r, p.theta, p.eta, convention)
    total, fid, qfi = map(complex, aggregates)
    where = f"theta={p.theta}, eta={p.eta}, r={p.r}"
    if cmath.isnan(total):
        raise DegeneracyError(
            f"total record weight vanishes (|P| < {_DEGENERACY_TOL}) at {where}"
        )
    if cmath.isnan(qfi):
        raise DegeneracyError(
            f"a record class has vanishing corner populations at {where}"
        )
    return total, fid, qfi


def aggregate_metrics(
    p: ProtocolParams,
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> MetricsRow:
    """Record-averaged probability, fidelity, and Fisher information.

    Realizes the complex aggregates of :func:`aggregate_complex` via their
    real parts; the largest discarded imaginary magnitude is reported as
    ``imag_residual``.
    """
    p_total, fid, qfi = aggregate_complex(p, convention, max_qubits=max_qubits)
    (prob_re, fid_re, qfi_re), residual = _realize([p_total, fid, qfi])
    return MetricsRow(
        r=p.r,
        theta=p.theta,
        eta=p.eta,
        probability=prob_re,
        fidelity=fid_re,
        qfi=qfi_re,
        imag_residual=residual,
        convention=convention,
        engine=Engine.STRUCTURED,
    )


def state_export(elements: BranchElements, n: int) -> np.ndarray:
    """Expand a class's branch operator to a dense 2^n matrix.

    The diagonal comes from the two stored tensor products (record bits in
    canonical order: the k zero-outcomes first); the two corner coherences
    are C at (|1...1>, |0...0>) and D at the transposed position.  Only
    meant for small n, where it feeds comparison against the dense path.
    """
    if len(elements.diag_alpha.pairs) != n:
        raise ValueError(
            f"elements describe {len(elements.diag_alpha.pairs)} qubits, "
            f"asked to export {n}"
        )
    if n > 16:
        raise ValueError(f"refusing to expand a 2^{n}-dimensional matrix")
    diag = elements.diag_alpha.diagonal() + elements.diag_beta.diagonal()
    rho = np.diag(diag).astype(np.complex128)
    rho[-1, 0] += elements.C
    rho[0, -1] += elements.D
    return rho


def metrics_grid(
    n: int,
    gamma: float,
    phi0: float,
    r: float,
    theta: np.ndarray,
    eta: np.ndarray,
    convention: Convention,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized aggregates over broadcastable theta/eta arrays.

    Returns complex arrays (probability, fidelity, qfi) of the broadcast
    shape from the kernel whose 0-d call is :func:`aggregate_complex`, so
    each element equals the scalar path's value exactly.  Points where the
    scalar path raises :class:`DegeneracyError` come back as NaN, so sweeps
    can skip them.  The aggregates do not depend on ``phi0``.
    """
    return _aggregates(n, gamma, r, theta, eta, convention)


@functools.lru_cache(maxsize=32)
def _multiplicities(n: int) -> np.ndarray:
    """Read-only binomial multiplicities C(n, k), k = 0..n, as floats."""
    mult = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    mult.flags.writeable = False
    return mult


def _int_power(z: np.ndarray, n: int) -> np.ndarray:
    """z**n for an integer n >= 1 by repeated squaring."""
    result = z
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * z
    return result


def _broadcast(r, theta, eta) -> tuple[tuple, tuple[int, ...]]:
    """(r, theta, eta) with theta/eta as float arrays of full rank, and the shape.

    The rank is that of the broadcast shape, and at least one, so a 0-d call
    rounds as a one-element grid does (numpy scalars do not) and the k-axis
    tables broadcast; r enters only through theta-shaped factors.
    """
    angles = [np.asarray(x, dtype=np.float64) for x in (theta, eta)]
    out_shape = np.broadcast(r, *angles).shape
    ndim = max(len(out_shape), 1)
    theta, eta = [a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in angles]
    return (r, theta, eta), out_shape


def _closed_forms(
    n: int, gamma: float, r, theta, eta, convention: Convention, k: np.ndarray
):
    """(probability, fidelity, terms) over r and the full-rank theta/eta of _broadcast.

    The O(1) forms of :func:`_aggregates`: sum_k C(n,k) a^k b^(n-k) e^(2k-n)
    = e^n (a + b e^-2)^n, with e^n taken whole so that |e^n| <= 1 holds
    after rounding; both are NaN where |P| < 1e-13.  ``k`` is a class axis
    ending at class n, and ``terms`` are what the QFI class sum reuses: the
    factors (c2, s2, u, q, vr^n, w), the phases e^(2k-n) and the
    |P| < 1e-13 mask.
    """
    c2, s2 = math.cos(gamma / 2.0) ** 2, math.sin(gamma / 2.0) ** 2
    half = theta / 2.0
    u, v = np.cos(half) ** 2, np.sin(half) ** 2
    q, vr = v * (1.0 - r), v * r
    vr_n = vr**n
    w = np.sin(theta) / 2.0 * np.sqrt(1.0 - r)
    if convention is Convention.PAPER:
        phase = np.exp(1j * eta * (2 * k - n))  # e^(2k-n), a row per class
        e_back = np.exp(-2j * eta)
        coherence_n = (2.0 * w) ** n  # the corner phases cancel in C + D
    else:
        phase = np.ones(k.shape[:1] + eta.shape, dtype=np.complex128)
        e_back = phase[0]
        coherence_n = (2.0 * w * np.cos(eta)) ** n
    e_n = phase[-1]

    q_back = q * e_back
    p_total = (c2 + s2) * e_n * _int_power(u + vr + q_back, n)
    fid_num = (c2 * c2 + s2 * s2) * e_n * _int_power(u + q_back, n)
    fid_num += 2.0 * c2 * s2 * (vr_n * e_n + coherence_n)
    degenerate = np.abs(p_total) < _DEGENERACY_TOL
    fid = np.where(degenerate, np.nan, fid_num / p_total)
    p_total = np.where(degenerate, np.nan, p_total)
    return p_total, fid, (c2, s2, u, q, vr_n, w, phase, degenerate)


def _probability_fidelity(
    n: int,
    gamma: float,
    r,
    theta,
    eta,
    convention: Convention,
) -> tuple[np.ndarray, np.ndarray]:
    """Complex (probability, fidelity) over broadcast r/theta/eta, NaN if undefined.

    Bit for bit the first two outputs of :func:`_aggregates` at each r,
    without its QFI class sum.
    """
    (r, theta, eta), out_shape = _broadcast(r, theta, eta)
    k = np.full((1,) * (theta.ndim + 1), n)  # class n alone
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_total, fid, _ = _closed_forms(n, gamma, r, theta, eta, convention, k)
    return p_total.reshape(out_shape), fid.reshape(out_shape)


def _aggregates(
    n: int,
    gamma: float,
    r: float,
    theta,
    eta,
    convention: Convention,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex (probability, fidelity, qfi) over broadcast theta/eta, NaN if undefined.

    With u = cos^2(theta/2), q = sin^2(theta/2) (1-r) and e = e^{i eta} (paper)
    or 1 (physical), class k has corner populations A_k ~ c2 u^k q^(n-k)
    e^(2k-n) and B_k ~ s2 q^k u^(n-k) e^(n-2k), and |C|^2 = c2 s2 (uq)^n =
    |A_k| |B_k|.  Probability and fidelity collapse to O(1) powers
    (:func:`_closed_forms`; the unit-probability search evaluates only those,
    through :func:`_probability_fidelity`).  The QFI sums mult 4 n^2 |C|^2 /
    (A+B) over the classes, in blocks along a k axis of at most
    _BLOCK_ELEMENTS values.  Below |A+B| = 1e-13 a class is a pole (NaN) if
    |C|^2 > |A+B| / 2, and is dropped if it has underflowed (|A+B| < 1e-14)
    or its populations have cancelled (|A+B| < |C|).
    """
    (r, theta, eta), out_shape = _broadcast(r, theta, eta)
    shape = out_shape or (1,)
    k = np.arange(n + 1).reshape((n + 1,) + (1,) * len(shape))  # the class axis

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_total, fid, (c2, s2, u, q, vr_n, w, phase, degenerate) = _closed_forms(
            n, gamma, r, theta, eta, convention, k
        )
        c_abs = math.sqrt(c2 * s2) * w**n  # |C|, the same for every class
        c_sq = c_abs * c_abs

        # A_k + B_k = pop_a[k] phase[k] + pop_b[k] conj(phase[k]).
        powers = u**k * q ** k[::-1]
        pop_a, pop_b = c2 * powers, s2 * powers[::-1]
        pop_a[n] += s2 * vr_n
        pop_b[0] += c2 * vr_n
        plus, minus = pop_a + pop_b, pop_a - pop_b
        weight = _multiplicities(n).reshape(k.shape) * (4.0 * n**2 * c_sq)
        drop_below = np.clip(c_abs, _UNDERFLOW_TOL, _DEGENERACY_TOL)
        pole_below = np.minimum(_DEGENERACY_TOL, 2.0 * c_sq)

        qfi = 0.0
        block = max(1, _BLOCK_ELEMENTS // max(1, math.prod(shape)))
        denom = np.empty((min(block, n + 1),) + shape, dtype=np.complex128)
        for start in range(0, n + 1, block):
            ks = slice(start, min(start + block, n + 1))
            d = denom[: ks.stop - start]
            np.multiply(plus[ks], phase[ks].real, out=d.real)
            np.multiply(minus[ks], phase[ks].imag, out=d.imag)
            size = np.abs(d)
            d[size < drop_below] = np.inf  # a dropped class adds nothing
            d[size < pole_below] = np.nan
            qfi = qfi + np.divide(weight[ks], d, out=d).sum(axis=0)
        qfi[degenerate] = np.nan

    return tuple(z.reshape(out_shape) for z in (p_total, fid, qfi))
