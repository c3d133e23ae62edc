"""Scalable per-class evaluation of the protocol.

Every qubit sees the same control parameters, so a measurement record
matters only through k, its number of 0 outcomes, and each of the N+1
record classes evolves in closed form: the branch operator is a sum of two
diagonal tensor products (descendants of the two input populations, each k
copies of one qubit pair and n - k of another) plus a pair of corner
coherences.  All aggregates then cost O(N) instead of
O(4^N), which is what makes thousand-qubit registers tractable.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Iterator, NamedTuple, Optional, Sequence

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


def _corners(p: ProtocolParams, k: int, convention: Convention) -> tuple[complex, complex]:
    """(C, D): the class-k corner coherences at (|1...1>, |0...0>) and its transpose."""
    n = p.n_qubits
    lo0 = lo1 = 1.0 + 0.0j  # the paper's t_0 t_1 = 1, multiplied in for the signs of zeros
    if convention is Convention.PHYSICAL:  # a phase per qubit, by its record bit
        lo0, lo1 = cmath.exp(-1j * p.eta), cmath.exp(1j * p.eta)
    alpha, beta = p.alpha, p.beta
    w = (math.sin(p.theta) / 2.0) * math.sqrt(1.0 - p.r)  # every qubit's share
    lower = np.conj(alpha) * beta * w**n * lo0**k * lo1 ** (n - k)
    upper = alpha * np.conj(beta) * w**n * np.conj(lo0) ** k * np.conj(lo1) ** (n - k)
    return complex(lower), complex(upper)


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
    axes = np.array(points, dtype=np.float64).T.copy()  # a contiguous row per axis
    totals, fids, qfis = _aggregates(
        p.n_qubits, p.gamma, axes[0], axes[1], axes[2], convention, paired=True
    )
    for (r, theta, eta), total, fid, qfi in zip(
        points, totals.tolist(), fids.tolist(), qfis.tolist()
    ):
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


class _ClassAxis(NamedTuple):
    """Read-only class-axis tables of one register size, a row per class k = 0..n.

    ``phase_exponents`` is 2k - n as complex, ``k`` and ``n_minus_k`` are
    the float exponents of the class powers (numpy raises a float to an
    int exponent through the same float power loop, so the bits are those
    of int exponents) and ``multiplicities`` is the binomial C(n, k) as a
    float.  Each has shape (n + 1, 1, ..., 1), with ``rank`` trailing axes
    to broadcast against the points.
    """

    phase_exponents: np.ndarray
    k: np.ndarray
    n_minus_k: np.ndarray
    multiplicities: np.ndarray

    def last(self) -> _ClassAxis:
        """The tables of class n alone, as views."""
        return _ClassAxis(*(table[-1:] for table in self))


@functools.lru_cache(maxsize=32)
def _class_axis(n: int, rank: int) -> _ClassAxis:
    """The :class:`_ClassAxis` of an n-qubit register against ``rank`` point axes."""
    shape = (n + 1,) + (1,) * rank
    k = np.arange(n + 1, dtype=np.float64).reshape(shape)
    mult = np.array([float(math.comb(n, j)) for j in range(n + 1)]).reshape(shape)
    tables = _ClassAxis((2.0 * k - n).astype(np.complex128), k, n - k, mult)
    for table in tables:
        table.flags.writeable = False
    return tables


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
    axis: _ClassAxis,
    probability: bool,
    fidelity: bool,
):
    """(probability, fidelity, terms) over r and full-rank theta/eta (see _broadcast).

    The O(1) forms of :func:`_aggregates`: sum_k C(n,k) a^k b^(n-k) e^(2k-n)
    = e^n (a + b e^-2)^n, with e^n taken whole so that |e^n| <= 1 holds
    after rounding; both are NaN where |P| < 1e-13, and each is None
    unless asked for.  ``axis`` is a class axis ending at class n, and
    ``terms`` are what the QFI class sum reuses: the factors (c2, s2, u, q,
    vr^n, w), the phases e^(2k-n) and the |P| < 1e-13 mask.  Without the
    probability and the fidelity, P is not formed when a bound shows that
    no point reaches the mask; the mask is then None.
    """
    c2, s2 = math.cos(gamma / 2.0) ** 2, math.sin(gamma / 2.0) ** 2
    half = theta / 2.0
    u, v = np.cos(half) ** 2, np.sin(half) ** 2
    kept = 1.0 - r  # the share of the excitation that the damping keeps
    q, vr = v * kept, v * r
    vr_n = vr**n
    w = np.sin(theta) / 2.0 * np.sqrt(kept)
    if convention is Convention.PAPER:
        phase = np.exp(1j * eta * axis.phase_exponents)  # e^(2k-n), a row per class
        e_back = np.exp(-2j * eta)
    else:
        phase = np.ones(axis.k.shape[:1] + eta.shape, dtype=np.complex128)
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
        fid = fid_num / p_total
        fid[degenerate] = np.nan
    if probability:
        p_total[degenerate] = np.nan
    else:
        p_total = None
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


def _class_factors(n: int, axis: _ClassAxis, terms):
    """(|C|, pole_below, drop_below, pop_a, pop_b, plus, minus, weight), a row per class.

    Class k has A_k = pop_a[k] phase[k], B_k = pop_b[k] conj(phase[k]), so
    A_k + B_k = plus[k] cos + i minus[k] sin, and weight C(n,k) 4 n^2 |C|^2.
    """
    c2, s2, u, q, vr_n, w, phase, degenerate = terms
    c_abs = math.sqrt(c2 * s2) * w**n  # |C|, the same for every class
    c_sq = c_abs * c_abs
    pole_below, drop_below = class_cutoffs(c_abs)
    powers = u**axis.k * q**axis.n_minus_k
    pop_a, pop_b = c2 * powers, s2 * powers[::-1]
    pop_a[n] += s2 * vr_n
    pop_b[0] += c2 * vr_n
    plus, minus = pop_a + pop_b, pop_a - pop_b
    weight = axis.multiplicities * (4.0 * n**2 * c_sq)
    return c_abs, pole_below, drop_below, pop_a, pop_b, plus, minus, weight


def _paired_terms(n: int, axis: _ClassAxis, shape: tuple[int], terms):
    """(rows, |C|, pop_a, pop_b): L paired points' class terms, in one (L, n+1) buffer."""
    factors = _class_factors(n, axis, terms)
    c_abs, pole_below, drop_below, pop_a, pop_b, plus, minus, weight = factors
    phase = terms[6]
    rows = np.empty(shape + (n + 1,), dtype=np.complex128)
    d = rows.T  # class-first, as on a grid, over a contiguous class axis
    np.multiply(plus, phase.real, out=d.real)
    np.multiply(minus, phase.imag, out=d.imag)
    size = np.abs(d)
    d[size < drop_below] = np.inf  # a dropped class adds nothing
    d[size < pole_below] = np.nan
    np.divide(weight, d, out=d)
    return rows, c_abs, pop_a, pop_b


def _class_sum(
    n: int, axis: _ClassAxis, shape: tuple[int, ...], terms, paired: bool = False
) -> np.ndarray:
    """The QFI of :func:`_aggregates`: its class sum over the full class ``axis``.

    On a grid of two points or more, the classes add one at a time, in
    order of k, so the grid has, row by row, the bits of its rows evaluated
    alone.  A class whose |A_k + B_k| a bound puts above both cutoffs skips
    them (:func:`_clear_classes`); where |C|^2 = 0 its weight is 0, so it
    adds 0 either way.

    With ``paired``, the L points of ``shape`` = (L,) are independent:
    each sums its n+1 class terms (:func:`_paired_terms`) in one pairwise
    reduction along a contiguous class row, so each has the bits it has
    alone.  A one-point call is always paired (:func:`_aggregates`), so its
    last bits can differ from the same point's on a larger grid.
    """
    phase, degenerate = terms[6], terms[7]
    if paired:
        qfi = np.add.reduce(_paired_terms(n, axis, shape, terms)[0], axis=1)
    else:
        _, pole_below, drop_below, _, _, plus, minus, weight = _class_factors(n, axis, terms)
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


class _ClassRows(NamedTuple):
    """A_k, B_k, |C| and the QFI class terms of one point (see :func:`_class_rows`)."""

    a: np.ndarray
    b: np.ndarray
    c_abs: float
    terms: np.ndarray


def _class_rows(p: ProtocolParams, convention: Convention) -> _ClassRows:
    """The record classes of ``p``, k = 0..n, from the class sum of its one-point call.

    The terms C(n,k) 4 n^2 |C|^2 / (A_k + B_k) are NaN at a pole and 0 where
    :func:`~ghzprotect.params.class_cutoffs` drops the class; ``np.add.reduce``
    of them has the bits of :func:`aggregate_complex`'s QFI wherever it returns.
    The qubit ceiling is not checked, and no class weight P_k is formed.
    """
    n = p.n_qubits
    axis = _class_axis(n, 1)
    r, theta, eta = np.array([[p.r], [p.theta], [p.eta]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = _closed_forms(n, p.gamma, r, theta, eta, convention, axis, False, False)[2]
        rows, c_abs, pop_a, pop_b = _paired_terms(n, axis, (1,), terms)
    phase = terms[6][:, 0]
    return _ClassRows(pop_a[:, 0] * phase, pop_b[:, 0] * phase.conj(), float(c_abs[0]), rows[0])


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
    the classes (:func:`_class_sum`): a class at a time on a grid, and all
    classes of all points at once when paired.
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

    With ``paired``, r, theta and eta are 1-D arrays of one length L, used
    as given, and point i is (r[i], theta[i], eta[i]): each point's QFI has
    the bits of its one-point call, whatever L (see :func:`_class_sum`).
    This is the scalar path, :func:`_paired_complex`.  A call whose
    broadcast shape holds one point is the paired call of that point.  The
    class-axis tables come from :func:`_class_axis`, built once per
    register size and rank.
    """
    if paired:
        shape = out_shape = theta.shape
    else:
        (r, theta, eta), out_shape = _broadcast(r, theta, eta)
        shape = out_shape or (1,)
        if math.prod(shape) == 1:  # one point: the paired call of L = 1
            r, theta, eta = (np.reshape(x, 1) for x in (r, theta, eta))
            shape, paired = (1,), True
    axis = _class_axis(n, len(shape))
    if not qfi:
        axis = axis.last()

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_total, fid, terms = _closed_forms(
            n, gamma, r, theta, eta, convention, axis, probability, fidelity
        )
        info = _class_sum(n, axis, shape, terms, paired) if qfi else None

    fields = (p_total, fid, info)
    if shape == out_shape:
        return fields
    return tuple(None if z is None else z.reshape(out_shape) for z in fields)
