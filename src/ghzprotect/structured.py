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
from typing import Iterator, Optional, Sequence

import numpy as np

from ghzprotect.params import (
    DEFAULT_MAX_QUBITS,
    DEGENERACY_TOL,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    class_cutoffs,
    validate_params,
)

#: Most (class, point) values one block of a paired QFI evaluation holds;
#: a block holds whole points.  A grid takes one class at a time.
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
    input populations |alpha|^2 and |beta|^2; A, B and P are the sums of
    their extreme entries and of their traces.
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

    alpha, beta = p.alpha, p.beta
    a0, a1, b0, b1 = _qubit_pairs(p, convention)
    diag_alpha = DiagProduct(
        scalar=abs(alpha) ** 2, pairs=(a0,) * k + (a1,) * (n - k)
    )
    diag_beta = DiagProduct(
        scalar=abs(beta) ** 2, pairs=(b0,) * k + (b1,) * (n - k)
    )

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
    return BranchElements(
        k=k, C=complex(lower), D=complex(upper),
        A=diag_alpha.first_entry() + diag_beta.first_entry(),
        B=diag_alpha.last_entry() + diag_beta.last_entry(),
        P=diag_alpha.trace() + diag_beta.trace(),
        diag_alpha=diag_alpha, diag_beta=diag_beta,
    )


def branch_qfi(elements: BranchElements, n: int) -> complex:
    """Per-record Fisher information of one class.

    The normalized branch state holds corner coherence C/P between
    populations A/P and B/P, and the collective phase winds it at rate n,
    giving (1/P) * 4 |C|^2 n^2 / (A + B).  A class that the aggregates'
    rule (:func:`~ghzprotect.params.class_cutoffs`) drops returns 0.
    """
    denom = elements.A + elements.B
    pole_below, drop_below = class_cutoffs(abs(elements.C))
    if abs(denom) < pole_below:
        raise DegeneracyError(
            f"class k={elements.k} has vanishing corner populations "
            f"|A+B|={abs(denom)}; its information is undefined"
        )
    if abs(denom) < drop_below:
        return 0.0 + 0.0j
    if abs(elements.P) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"class k={elements.k} has vanishing weight |P|={abs(elements.P)}"
        )
    return (1.0 / elements.P) * 4.0 * abs(elements.C) ** 2 * n**2 / denom


def _paired_complex(
    p: ProtocolParams,
    points: Sequence[tuple[float, float, float]],
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Iterator[tuple[complex, complex, complex]]:
    """Unrealized (probability, fidelity, qfi) at each paired (r, theta, eta) point.

    ``p`` gives the register and input state; its own angles and decay
    probability are not read.  On the first ``next`` it is checked
    against ``max_qubits`` and all points are evaluated in one kernel call
    (:func:`_aggregates` with ``paired``), each with the bits it has
    alone.  The points then come out in order; one where the kernel
    returns NaN raises :class:`DegeneracyError` when it is reached.
    """
    validate_params(p, max_qubits=max_qubits)
    axes = (np.array(axis, dtype=np.float64) for axis in zip(*points))
    totals, fids, qfis = (
        z.tolist()
        for z in _aggregates(p.n_qubits, p.gamma, *axes, convention, paired=True)
    )
    for (r, theta, eta), total, fid, qfi in zip(points, totals, fids, qfis):
        if cmath.isnan(total) or cmath.isnan(qfi):
            where = f"theta={theta}, eta={eta}, r={r}"
            if cmath.isnan(total):
                raise DegeneracyError(
                    f"total record weight vanishes (|P| < {DEGENERACY_TOL}) at {where}"
                )
            raise DegeneracyError(
                f"a record class has vanishing corner populations at {where}"
            )
        yield total, fid, qfi


def aggregate_complex(
    p: ProtocolParams,
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> tuple[complex, complex, complex]:
    """Unrealized (complex) aggregates: (probability, fidelity, qfi).

    The one-point call of the paired evaluation the optimizer uses to
    re-evaluate its optima, raising :class:`DegeneracyError` wherever the
    kernel behind :func:`metrics_grid` returns NaN.  Aggregates are
    complex under the two-sided-multiplication convention;
    :func:`aggregate_metrics` wraps this and realizes the real parts.
    """
    return next(_paired_complex(p, [(p.r, p.theta, p.eta)], convention, max_qubits))


def aggregate_metrics(
    p: ProtocolParams,
    convention: Convention,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> MetricsRow:
    """Record-averaged probability, fidelity, and Fisher information.

    The complex aggregates of :func:`aggregate_complex`, realized by
    :meth:`~ghzprotect.params.MetricsRow.realized`.
    """
    aggregates = aggregate_complex(p, convention, max_qubits=max_qubits)
    return MetricsRow.realized(
        (p.r, p.theta, p.eta), aggregates, convention, Engine.STRUCTURED
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
    shape from the kernel of the scalar path, :func:`aggregate_complex`.
    Each probability and fidelity equals the scalar path's value exactly.
    The QFI does on a one-point grid, which is the scalar path's paired
    call of one point; on larger grids it can differ in the last bits,
    since a grid adds its classes in order of k and the scalar path sums
    each point's classes pairwise (see :func:`_class_sum`).  Points where
    the scalar path raises :class:`DegeneracyError` come back as NaN, so
    sweeps can skip them.
    The aggregates do not depend on ``phi0``.
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
    n: int,
    gamma: float,
    r,
    theta,
    eta,
    convention: Convention,
    k: np.ndarray,
    probability: bool,
    fidelity: bool,
):
    """(probability, fidelity, terms) over r and the full-rank theta/eta of _broadcast.

    The O(1) forms of :func:`_aggregates`: sum_k C(n,k) a^k b^(n-k) e^(2k-n)
    = e^n (a + b e^-2)^n, with e^n taken whole so that |e^n| <= 1 holds
    after rounding; both are NaN where |P| < 1e-13, and each is None
    unless asked for.  ``k`` is a class axis ending at class n, and
    ``terms`` are what the QFI class sum reuses: the factors (c2, s2, u, q,
    vr^n, w), the phases e^(2k-n) and the |P| < 1e-13 mask.  Without the
    probability and the fidelity, P is not formed when a bound shows that
    no point reaches the mask; the mask is then None.
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
    else:
        phase = np.ones(k.shape[:1] + eta.shape, dtype=np.complex128)
        e_back = phase[0]
    e_n = phase[-1]

    u_vr, q_back = u + vr, q * e_back
    p_total = degenerate = fid = None
    if probability or fidelity or not _weight_clears_cutoff(
        c2 + s2, u_vr, q, e_back, n
    ):
        p_total = (c2 + s2) * e_n * _int_power(u_vr + q_back, n)
        degenerate = np.abs(p_total) < DEGENERACY_TOL
    if fidelity:
        if convention is Convention.PAPER:
            coherence_n = (2.0 * w) ** n  # the corner phases cancel in C + D
        else:
            coherence_n = (2.0 * w * np.cos(eta)) ** n
        fid_num = (c2 * c2 + s2 * s2) * e_n * _int_power(u + q_back, n)
        fid_num += 2.0 * c2 * s2 * (vr_n * e_n + coherence_n)
        fid = np.where(degenerate, np.nan, fid_num / p_total)
    p_total = np.where(degenerate, np.nan, p_total) if probability else None
    return p_total, fid, (c2, s2, u, q, vr_n, w, phase, degenerate)


def _weight_clears_cutoff(scale: float, u_vr, q, e_back, n: int) -> bool:
    """Whether a bound shows |P| >= 1e-13 at every point, so no P mask is needed.

    P = scale e^n (u + vr + q e^-2)^n, and the computed real part of the
    base is at least ``low`` = u + vr + q min Re e^-2, since rounding is
    monotone; |z| >= Re z.  The repeated squaring rounds |z|^n by at most
    about 3n 2^-53 relative, which the factor 2 on the cutoff covers.  A
    NaN fails the test.
    """
    low = np.min(u_vr + q * np.min(e_back.real))
    return bool(low > 0.0 and scale * low**n >= 2.0 * DEGENERACY_TOL)


def _class_sum(
    n: int, k: np.ndarray, shape: tuple[int, ...], terms, paired: bool = False
) -> np.ndarray:
    """The QFI of :func:`_aggregates`: its class sum over the full class axis ``k``.

    On a grid of two points or more, the classes add one at a time, in
    order of k, so the grid has, row by row, the bits of its rows evaluated
    alone.  A class whose |A_k + B_k| a bound puts above both cutoffs skips
    them (:func:`_clear_classes`); where |C|^2 = 0 its weight is 0, so it
    adds 0 either way.

    With ``paired``, the L points of ``shape`` = (L,) are independent:
    each sums its n+1 class terms in one pairwise reduction along a
    contiguous class axis, so each has the bits it has alone.  Blocks then
    split the points, never the classes.  A one-point call is always
    paired (:func:`_aggregates`), so its last bits can differ from the
    same point's on a larger grid.
    """
    c2, s2, u, q, vr_n, w, phase, degenerate = terms
    c_abs = math.sqrt(c2 * s2) * w**n  # |C|, the same for every class
    c_sq = c_abs * c_abs
    pole_below, drop_below = class_cutoffs(c_abs)

    # A_k + B_k = pop_a[k] phase[k] + pop_b[k] conj(phase[k]).
    powers = u**k * q ** k[::-1]
    pop_a, pop_b = c2 * powers, s2 * powers[::-1]
    pop_a[n] += s2 * vr_n
    pop_b[0] += c2 * vr_n
    plus, minus = pop_a + pop_b, pop_a - pop_b
    weight = _multiplicities(n).reshape(k.shape) * (4.0 * n**2 * c_sq)

    if paired:
        qfi = np.empty(shape, dtype=np.complex128)
        step = max(1, _BLOCK_ELEMENTS // (n + 1))
        for start in range(0, shape[0], step):
            ps = slice(start, min(start + step, shape[0]))
            rows = np.empty((ps.stop - start, n + 1), dtype=np.complex128)
            d = rows.T  # class-first, as on a grid, over a contiguous class axis
            np.multiply(plus[:, ps], phase[:, ps].real, out=d.real)
            np.multiply(minus[:, ps], phase[:, ps].imag, out=d.imag)
            size = np.abs(d)
            d[size < drop_below[ps]] = np.inf  # a dropped class adds nothing
            d[size < pole_below[ps]] = np.nan
            np.divide(weight[:, ps], d, out=d)
            qfi[ps] = rows.sum(axis=1)
    else:
        clear = _clear_classes(plus, minus, phase)
        qfi = np.zeros(shape, dtype=np.complex128)
        d = np.empty(shape, dtype=np.complex128)
        for j in range(n + 1):
            np.multiply(plus[j], phase[j].real, out=d.real)
            np.multiply(minus[j], phase[j].imag, out=d.imag)
            if not clear[j]:
                size = np.abs(d)
                d[size < drop_below] = np.inf  # a dropped class adds nothing
                d[size < pole_below] = np.nan
            np.divide(weight[j], d, out=d)
            qfi += d  # in place, without two grid temporaries
    if degenerate is not None:
        qfi[degenerate] = np.nan
    return qfi


def _clear_classes(
    plus: np.ndarray, minus: np.ndarray, phase: np.ndarray
) -> np.ndarray:
    """Per class, whether every point has |A_k + B_k| >= 2e-13, above both cutoffs.

    A_k + B_k = plus cos + i minus sin, and the computed modulus is at
    least max(|Re|, |Im|); each rounded product is at least the exact one
    times 1 - 2^-53, and max(|cos|, |sin|) >= 1/sqrt(2) > 0.7.  So the
    class minima of |plus|, |minus|, |cos| and |sin| bound |A_k + B_k| from
    below at O(T + E) cost per class.  A NaN bound clears nothing.
    """
    axes = tuple(range(1, plus.ndim))
    plus_min, minus_min = np.abs(plus).min(axes), np.abs(minus).min(axes)
    floor = np.max(
        [
            plus_min * np.abs(phase.real).min(axes),
            minus_min * np.abs(phase.imag).min(axes),
            np.minimum(plus_min, minus_min) * 0.7,
        ],
        axis=0,
    )
    return floor * (1.0 - 1e-12) >= 2.0 * DEGENERACY_TOL


def _aggregates(
    n: int,
    gamma: float,
    r,
    theta,
    eta,
    convention: Convention,
    fidelity: bool = True,
    qfi: bool = True,
    probability: bool = True,
    paired: bool = False,
) -> tuple[Optional[np.ndarray], ...]:
    """Complex (probability, fidelity, qfi) over broadcast r/theta/eta, NaN if undefined.

    With u = cos^2(theta/2), q = sin^2(theta/2) (1-r) and e = e^{i eta} (paper)
    or 1 (physical), class k has corner populations A_k ~ c2 u^k q^(n-k)
    e^(2k-n) and B_k ~ s2 q^k u^(n-k) e^(n-2k), and |C|^2 = c2 s2 (uq)^n =
    |A_k| |B_k|.  Probability and fidelity collapse to O(1) powers
    (:func:`_closed_forms`).  The QFI sums mult 4 n^2 |C|^2 / (A+B) over
    the classes (:func:`_class_sum`): a class at a time on a grid, and in
    blocks of whole points, of at most _BLOCK_ELEMENTS values, when paired.
    Each class is a pole (NaN) or adds nothing by
    :func:`~ghzprotect.params.class_cutoffs`, the rule every engine uses.

    ``probability``, ``fidelity`` and ``qfi`` select the fields to
    compute; each skipped field comes back as None, and each computed one
    has the same bits as when all are computed.  P is formed for the
    others too, since its |P| < 1e-13 mask marks their undefined points;
    for the QFI alone it is skipped where a bound shows that no point
    reaches the mask.  Without the class sum the phases cover class n
    alone.  :func:`metrics_grid` asks for every field; the optimizer's
    grids ask only for the fields their search reads.

    With ``paired``, r, theta and eta are 1-D arrays of one length L, and
    point i is (r[i], theta[i], eta[i]): each point's QFI has the bits of
    its one-point call, whatever L (see :func:`_class_sum`).  This is the
    scalar path, :func:`_paired_complex`.  A call whose broadcast shape
    holds one point is the paired call of that point.
    """
    (r, theta, eta), out_shape = _broadcast(r, theta, eta)
    shape = out_shape or (1,)
    if not paired and math.prod(shape) == 1:  # one point: the paired call of L = 1
        r, theta, eta = (np.reshape(x, 1) for x in (r, theta, eta))
        shape, paired = (1,), True
    classes = np.arange(n + 1) if qfi else np.array([n])
    k = classes.reshape(classes.shape + (1,) * len(shape))  # the class axis

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_total, fid, terms = _closed_forms(
            n, gamma, r, theta, eta, convention, k, probability, fidelity
        )
        info = _class_sum(n, k, shape, terms, paired) if qfi else None

    return tuple(None if z is None else z.reshape(out_shape) for z in (p_total, fid, info))
