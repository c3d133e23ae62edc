"""Dense (literal Kraus) reference implementation of the protocol.

The trusted arbiter: every record is evolved site by site with the
operators of :mod:`ghzprotect.operators`, skipping only exact zeros.  The
engine's one structural rule: each site term F_o E_j F_o M_o is diagonal or
has a single nonzero entry, and a term that is neither is refused with a
ValueError on every call.  So from the input's corners a branch state's
nonzeros lie on the diagonal and the two off-diagonal corners; a state is
stored as those 2^N + 2 entries, each with the bits of the literal matrix
products.  :func:`_walk` advances all record prefixes of a tree level in
one numpy batch.  A 2^N x 2^N matrix is built only on demand
(:attr:`BranchRun.rho`, up to N = 6).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from ghzprotect.operators import adc_kraus, flip_op, rotation_op, weak_meas_op
from ghzprotect.params import (
    DEGENERACY_TOL,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    class_cutoffs,
    validate_params,
)

#: Qubit ceiling of the dense engine (a run stores 2^N (2^N + 2) entries).
DENSE_MAX_QUBITS = 10

#: Largest register whose branch states are built as 2^N x 2^N matrices.
_MATRIX_MAX_QUBITS = 6


class BranchRun:
    """Outcome of the protocol conditioned on one measurement record.

    ``probability`` is the trace of the unnormalized branch state, complex
    under the two-sided convention for eta != 0; ``rho`` is that state as a
    2^N x 2^N matrix, built by the given function on each access (the
    engine's runs build it up to N = 6, ValueError above).
    """

    __slots__ = ("pattern", "probability", "_rho")

    def __init__(
        self, pattern: str, probability: complex, rho: Callable[[], np.ndarray]
    ) -> None:
        self.pattern = pattern
        self.probability = probability
        self._rho = rho

    def __repr__(self) -> str:
        return f"BranchRun(pattern={self.pattern!r}, probability={self.probability!r})"

    @property
    def rho(self) -> np.ndarray:
        return self._rho()


def ghz_vector(n: int, gamma: float, phi0: float) -> np.ndarray:
    """Pure input vector alpha|0...0> + beta|1...1> as a dense array."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    alpha = math.cos(gamma / 2.0)
    beta = math.sin(gamma / 2.0) * complex(math.cos(phi0), math.sin(phi0))
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = alpha
    psi[-1] = beta
    return psi


def ghz_state(n: int, gamma: float, phi0: float) -> np.ndarray:
    """Density matrix of the generalized GHZ input state, 2^n x 2^n.

    Only the four corner elements are nonzero:
    |alpha|^2, |beta|^2 on the diagonal and alpha beta* off-diagonal.
    """
    psi = ghz_vector(n, gamma, phi0)
    return np.outer(psi, psi.conj())


def _pattern_bits(pattern: str, n: int) -> list[int]:
    if len(pattern) != n or any(ch not in "01" for ch in pattern):
        raise ValueError(
            f"pattern must be a length-{n} string of 0/1 bits, got {pattern!r}"
        )
    return [int(ch) for ch in pattern]


def _positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the stored entries: the diagonal, then (0, 2^N-1) and (2^N-1, 0)."""
    dim = 2**n
    rows, cols = np.arange(dim + 2), np.arange(dim + 2)
    rows[dim:], cols[dim:] = (0, dim - 1), (dim - 1, 0)
    return rows, cols


def _kraus_ops(
    p: ProtocolParams, o: int, damping: tuple[np.ndarray, np.ndarray]
) -> list[np.ndarray]:
    """The two single-qubit Kraus operators F_o E F_o M_o of record bit o."""
    m = weak_meas_op(o, p.theta)
    f = flip_op(o)
    return [f @ e @ f @ m for e in damping]


@lru_cache(maxsize=32)
def _site_structure(
    n: int, bits: tuple[tuple[int, ...], ...], nonzero: tuple[bool, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (index, left, right) gather tables of :func:`_site_terms`.

    ``nonzero`` is ``terms != 0``, flattened, for the four single-qubit
    terms ``terms[o, j]`` = F_o E_j F_o M_o, which fixes every table:
    ``left`` and ``right`` index ``terms.reshape(-1)``.  A term that is
    diagonal or has one entry holds at most one nonzero in row b, in
    column ``src[o, j, b]``, so a stored entry reads the stored entry whose
    site bits are those columns; it reads the zero slot, index 2^N + 2,
    where its row or column is a zero row.  Raises ValueError, naming the
    record bit, the term and its nonzero pattern, for any other term: it
    could move an entry off the diagonal and the corners.
    """
    mask = np.array(nonzero).reshape(2, 2, 2, 2)
    refused = (mask[..., 0, 1] | mask[..., 1, 0]) & (mask.sum(axis=(2, 3)) > 1)
    if refused.any():
        o, j = np.argwhere(refused)[0]
        raise ValueError(
            f"Kraus term {j} of record bit {o} is neither diagonal nor one "
            f"entry, got nonzero pattern {mask[o, j].astype(int).tolist()}"
        )
    src, live = mask.argmax(axis=3), mask.any(axis=3)  # 0 and False for a zero row
    rows, cols = _positions(n)
    shift = (n - 1 - np.arange(n))[:, None, None, None]
    o, j = np.array(bits)[:, :, None, None], np.arange(2)[:, None]
    row_bit, col_bit = (rows >> shift) & 1, (cols >> shift) & 1
    src_row, src_col = src[o, j, row_bit], src[o, j, col_bit]
    index = np.where(
        live[o, j, row_bit] & live[o, j, col_bit],
        np.arange(rows.size) + ((src_row - row_bit) << shift),
        rows.size,
    )
    term = 4 * (2 * o + j)
    tables = (index, term + 2 * row_bit + src_row, term + 2 * col_bit + src_col)
    for table in tables:
        table.flags.writeable = False
    return tables


def _site_terms(
    p: ProtocolParams, bits: list[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each site's two Kraus terms on each of its bits ``bits[site]``, on the stored entries.

    Returns (index, left, right) of shape (N, len(bits[0]), 2, 2^N + 2):
    stored entry k of K rho K^dag is the one product
    ``(left[k] * rho[index[k]]) * right[k]`` that ``(K @ rho) @ K^dag``
    forms.  The index tables come from :func:`_site_structure`, built once
    per register, bits and zero pattern; only the coefficients are
    gathered here.
    """
    damping = adc_kraus(p.r)
    terms = np.array([_kraus_ops(p, o, damping) for o in (0, 1)])
    index, left, right = _site_structure(
        p.n_qubits, tuple(bits), tuple((terms != 0).ravel().tolist())
    )
    flat = terms.reshape(-1)
    return index, flat[left], flat[right].conj()


def _walk(p: ProtocolParams, bits: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the input through the tree of record prefixes, one batch per level.

    ``bits[site]`` lists the record bits followed at a site: (0, 1) for
    every record, or one record's own bit.  A level's Kraus sum is
    ``0 + t0 + t1``, so a zero is +0 as in the matrix product; entries that
    are not stored read an exact 0.  Returns (values, rot), a row per record
    in binary order: the stored entries before the closing rotation, and
    the diagonal of T_{o_1} (x) ... (x) T_{o_N} with the products np.kron
    forms.
    """
    n = p.n_qubits
    rows, cols = _positions(n)
    psi = ghz_vector(n, p.gamma, p.phi0)
    values = (psi[rows] * psi[cols].conj())[None, :]  # np.outer's products
    rot = np.ones((1, 1), dtype=np.complex128)
    index, left, right = _site_terms(p, bits)
    rotations = np.array([np.diag(rotation_op(o, p.eta)) for o in (0, 1)])
    for site, site_bits in enumerate(bits):
        padded = np.concatenate(
            [values, np.zeros((len(values), 1), dtype=np.complex128)], axis=1
        )
        terms = padded[:, index[site]]
        np.multiply(left[site], terms, out=terms)
        np.multiply(terms, right[site], out=terms)
        values = (0 + terms[:, :, 0]) + terms[:, :, 1]
        values = values.reshape(-1, rows.size)
        rotation = rotations[list(site_bits)]
        rot = (rot[:, None, :, None] * rotation[None, :, None, :]).reshape(
            len(values), -1
        )
    return values, rot


def _rotated(values: np.ndarray, rot: np.ndarray, convention: Convention) -> np.ndarray:
    """The stored entries after the closing rotation T rho T^dag (or T rho T), elementwise."""
    rows, cols = _positions(rot.shape[1].bit_length() - 1)
    right = rot[:, cols]
    if convention is Convention.PHYSICAL:
        right = right.conj()
    return (rot[:, rows] * values) * right


def _matrix(values: np.ndarray, rot: np.ndarray, convention: Convention) -> np.ndarray:
    """One branch's state as a 2^N x 2^N matrix.

    It is rotated by BLAS matrix products, as the literal evolution is: an
    elementwise complex product can round differently.
    """
    n = rot.size.bit_length() - 1
    if n > _MATRIX_MAX_QUBITS:
        raise ValueError(
            f"a {n}-qubit branch state is built as a matrix only up to "
            f"{_MATRIX_MAX_QUBITS} qubits"
        )
    rho = np.zeros((rot.size, rot.size), dtype=np.complex128)
    rho[_positions(n)] = values
    t = np.diag(rot)
    if convention is Convention.PHYSICAL:
        return t @ rho @ t.conj().T
    return t @ rho @ t


def _branch_runs(
    p: ProtocolParams, convention: Convention, patterns: list[str], bits: list[tuple[int, ...]]
) -> list[BranchRun]:
    values, rot = _walk(p, bits)
    traces = _rotated(values, rot, convention)[:, : 2**p.n_qubits].sum(axis=1)
    return [
        BranchRun(pattern, trace, partial(_matrix, v, t, convention))
        for pattern, trace, v, t in zip(patterns, traces.tolist(), values, rot)
    ]


def run_protocol_branch(
    p: ProtocolParams, pattern: str, convention: Convention
) -> BranchRun:
    """Evolve the input through one full measurement-record branch.

    Per qubit, conditioned on its record bit o: weak measurement M_o,
    flip F_o, amplitude damping (full Kraus sum), flip F_o again, and the
    conditional rotation T_o.  The rotation is applied as T rho T^dag
    (PHYSICAL) or T rho T (PAPER).  Returns the unnormalized branch state
    as a :class:`BranchRun`; its trace is the branch probability.
    """
    validate_params(p, max_qubits=DENSE_MAX_QUBITS)
    bits = _pattern_bits(pattern, p.n_qubits)
    return _branch_runs(p, convention, [pattern], [(o,) for o in bits])[0]


def run_all_branches(
    p: ProtocolParams, convention: Convention
) -> list[BranchRun]:
    """All 2^N record branches, ordered by the pattern's binary value.

    One walk over the tree of record prefixes, so a prefix is evolved once.
    A branch goes through the operations :func:`run_protocol_branch` takes
    for its pattern, so the two agree bit for bit.
    """
    validate_params(p, max_qubits=DENSE_MAX_QUBITS)
    n = p.n_qubits
    patterns = [format(index, f"0{n}b") for index in range(2**n)]
    return _branch_runs(p, convention, patterns, [(0, 1)] * n)


@lru_cache(maxsize=16)
def _popcounts(dim: int) -> np.ndarray:
    """Read-only number of set bits of each index 0..dim-1."""
    weights = np.array([bin(i).count("1") for i in range(dim)])
    weights.flags.writeable = False
    return weights


def qfi_general(rho: np.ndarray) -> float:
    """Quantum Fisher information of rho for the collective phase, by spectral decomposition.

    The family is rho(phi) = U rho U^dag with U = diag(1, e^{i phi})^{(x) N}:
    the |1...1> component acquires phase N phi, so the corner coherence
    winds at rate N.  Its exact derivative at phi = 0 is
    drho_ab = i (g_a - g_b) rho_ab, g_a the number of set bits of a, and

        F = sum_{i,j} 2 |<i| drho |j>|^2 / (lambda_i + lambda_j)

    over eigenpairs of rho, skipping pairs whose combined weight falls
    below 1e-10 times the largest eigenvalue.  ``rho`` is a Hermitian,
    normalized 2^N x 2^N density matrix; ValueError if its dimension is not
    a power of two.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim = rho.shape[0]
    if 2 ** (dim.bit_length() - 1) != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    g = _popcounts(dim)
    drho = 1j * (g[:, None] - g[None, :]) * rho
    rho = (rho + rho.conj().T) / 2.0

    vals, vecs = np.linalg.eigh(rho)
    d_in_eig = vecs.conj().T @ drho @ vecs
    denom = vals[:, None] + vals[None, :]
    kept = denom > 1e-10 * vals[-1]
    return float(np.sum(2.0 * np.abs(d_in_eig[kept]) ** 2 / denom[kept]))


def aggregate_metrics_dense(
    p: ProtocolParams, convention: Convention
) -> MetricsRow:
    """Record-averaged probability/fidelity/QFI from full branch evolution.

    The traces, <psi|rho_b|psi> and the corners are read from one walk's
    stored entries, and summed over the records in binary order.  The QFI
    aggregate is the record-average of per-branch information,
    sum_b 4 |C_b|^2 N^2 / (A_b + B_b): each branch estimates the collective
    phase through its surviving corner coherence, and the branch weight
    cancels against the normalization of the branch state.
    """
    validate_params(p, max_qubits=DENSE_MAX_QUBITS)
    n = p.n_qubits
    dim = 2**n
    values, rot = _walk(p, [(0, 1)] * n)
    entries = _rotated(values, rot, convention)

    p_total = sum(entries[:, :dim].sum(axis=1).tolist())
    if abs(p_total) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"total branch weight {p_total} vanishes at theta={p.theta}, "
            f"eta={p.eta}, r={p.r}"
        )

    a, b, c, c_back = (entries[:, k] for k in (0, dim - 1, dim, dim + 1))
    alpha, beta = p.alpha, p.beta
    fid = (alpha.conjugate() * a + beta.conjugate() * c_back) * alpha
    fid += (alpha.conjugate() * c + beta.conjugate() * b) * beta
    fid_num = sum(fid.tolist())

    denom = a + b
    c_abs = np.abs(c)
    pole_below, drop_below = class_cutoffs(c_abs)
    poles = np.abs(denom) < pole_below
    if poles.any():
        raise DegeneracyError(
            f"branch {int(np.argmax(poles)):0{n}b} has vanishing corner "
            f"populations; its information contribution is undefined"
        )
    kept = np.abs(denom) >= drop_below
    qfi = sum((4.0 * c_abs[kept] ** 2 * n**2 / denom[kept]).tolist(), 0j)

    return MetricsRow.realized(
        (p.r, p.theta, p.eta), (p_total, fid_num / p_total, qfi), convention,
        Engine.DENSE,
    )


def do_nothing_baseline(p: ProtocolParams) -> MetricsRow:
    """Metrics when the register is left exposed to damping with no protocol.

    The channel acts once per qubit and nothing is measured, so the outcome
    is deterministic (probability 1) and convention-independent.  Evaluated
    in closed form -- the corner elements of the damped GHZ state are

        A = |alpha|^2 + |beta|^2 r^N,  B = |beta|^2 (1-r)^N,
        C = alpha* beta (1-r)^{N/2}

    -- which is exact for any register size.
    """
    ProtocolParams.__post_init__(p)  # the range checks, on the object itself
    n, r = p.n_qubits, p.r
    alpha, beta = p.alpha, p.beta
    a2, b2 = abs(alpha) ** 2, abs(beta) ** 2

    pop0 = a2 + b2 * r**n
    pop1 = b2 * (1.0 - r) ** n
    coh = np.conj(alpha) * beta * (1.0 - r) ** (n / 2.0)

    fid = (
        a2 * pop0
        + b2 * pop1
        + 2.0 * a2 * b2 * (1.0 - r) ** (n / 2.0)
    )
    if pop0 + pop1 < DEGENERACY_TOL:
        raise DegeneracyError("damped state has no corner population")
    qfi = 4.0 * abs(coh) ** 2 * n**2 / (pop0 + pop1)

    return MetricsRow(
        r=r,
        theta=p.theta,
        eta=p.eta,
        probability=1.0,
        fidelity=float(fid),
        qfi=float(qfi),
        imag_residual=0.0,
        convention=Convention.PHYSICAL,
        engine=Engine.CLOSEDFORM_VERBATIM,
    )
