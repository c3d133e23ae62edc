"""Dense (literal Kraus) reference implementation of the protocol.

The trusted arbiter: every record is evolved site by site with the
operators of :mod:`ghzprotect.operators`, skipping only exact zeros.  Each
site operator F_o E F_o M_o is diagonal or has a single entry, so from the
input's corners a branch state's nonzeros lie on the diagonal and the two
off-diagonal corners; a state is stored as those 2^N + 2 entries, each with
the bits of the literal matrix products.  :func:`_walk` advances all record
prefixes of a tree level in one numpy batch.  A 2^N x 2^N matrix is built
only on demand (:attr:`BranchRun.rho`, up to N = 6).
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
    2^N x 2^N matrix, given as one or as a function that builds it.  The
    engine's runs build it on each access, up to N = 6 (ValueError above).
    """

    __slots__ = ("pattern", "probability", "_rho")

    def __init__(
        self,
        pattern: str,
        probability: complex,
        rho: np.ndarray | Callable[[], np.ndarray],
    ) -> None:
        self.pattern = pattern
        self.probability = probability
        self._rho = rho

    def __repr__(self) -> str:
        return f"BranchRun(pattern={self.pattern!r}, probability={self.probability!r})"

    @property
    def rho(self) -> np.ndarray:
        return self._rho() if callable(self._rho) else self._rho


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


def _lift(ops: np.ndarray, sites: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Embed single-qubit operators, ``ops[j]`` at site ``sites[j]``, in an N-qubit register.

    Only the operators' nonzero pattern is read.  Returns (src, gather) of
    shape (len(ops), 2^N): row i of K_j = I (x) ops[j] (x) I holds
    ``ops[j].flat[gather[j, i]]`` in column ``src[j, i]`` and zeros
    elsewhere (that entry is 0 for a zero row), without forming K_j.  A
    diagonal operator gives ``src[j, i] = i``; one with its one entry at
    (a, b) maps the rows whose site bit is a to the columns whose site bit
    is b.  Raises ValueError, naming the site, for an operator with two
    nonzero entries in a row, which this form cannot hold.
    """
    nonzero = ops != 0
    crowded = nonzero.sum(axis=2).max(axis=1) > 1
    if crowded.any():
        j = int(np.argmax(crowded))
        raise ValueError(
            f"operator at site {sites[j]} has two nonzero entries in a row, "
            f"got nonzero pattern {nonzero[j].astype(int).tolist()}"
        )
    shift = (n - 1 - sites)[:, None]
    index = np.arange(2**n)
    bit = (index >> shift) & 1  # each row's bit at the site
    col = np.take_along_axis(nonzero.argmax(axis=2), bit, axis=1)  # 0 if none
    return index + ((col - bit) << shift), 2 * bit + col


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


def _stored_index(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where each (row, col) is stored; 2^N + 2, a slot that holds 0, if nowhere."""
    dim = rows.shape[-1] - 2
    index = np.where(rows == cols, rows, dim + 2)
    index[(rows == 0) & (cols == dim - 1)] = dim
    index[(rows == dim - 1) & (cols == 0)] = dim + 1
    return index


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
    terms ``terms[o, j]`` = F_o E_j F_o M_o, which fixes every table: all
    operators are lifted in one call (:func:`_lift`), and ``left`` and
    ``right`` index ``terms.reshape(-1)``.  Raises ValueError, naming the
    site, if a term moves a stored entry to one that is not stored: the
    entries reading a stored one through nonzero coefficients then
    outnumber the stored entries that do.
    """
    rows, cols = _positions(n)
    # Each lifted operator's row of terms.reshape(4, 2, 2), in (site, bit, term) order.
    term = (2 * np.array(bits)[..., None] + np.arange(2)).reshape(-1)
    mask = np.array(nonzero).reshape(4, 2, 2)[term]
    sites = np.arange(n).repeat(term.size // n)
    src, gather = _lift(mask, sites, n)
    index = _stored_index(src[:, rows], src[:, cols])
    live = np.take_along_axis(mask.reshape(-1, 4), gather, axis=1)
    count, dim = src.shape
    offsets = dim * np.arange(count)[:, None]
    readers = np.bincount((src + offsets)[live], minlength=count * dim)
    readers = readers.reshape(count, dim)
    reached = (readers[:, rows] * readers[:, cols]).sum(axis=1)
    kept = live[:, rows] & live[:, cols] & (index < dim + 2)
    leaks = reached != np.count_nonzero(kept, axis=1)
    if leaks.any():
        raise ValueError(
            f"a Kraus operator at site {np.argmax(leaks) * n // count} moves "
            f"an entry off the diagonal and the corners"
        )
    gather += 4 * term[:, None]
    shape = (n, len(bits[0]), 2, rows.size)
    tables = (
        index.reshape(shape), gather[:, rows].reshape(shape), gather[:, cols].reshape(shape)
    )
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


def phase_imprint(rho: np.ndarray, delta: float) -> np.ndarray:
    """Apply the collective phase diag(1, e^{i delta})^{tensor N} to rho.

    This is the encoding family whose parameter the corner coherence
    estimates: the |1...1> component acquires phase N*delta, so the
    coherence winds at rate N.
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    d = np.exp(1j * delta * _popcounts(dim))
    return (d[:, None] * rho) * d.conj()[None, :]


def qfi_general(
    state_at: Callable[[float], np.ndarray], phi0: float, step: float = 1e-5
) -> float:
    """Quantum Fisher information by spectral decomposition.

    Makes no structural assumption about the family: differentiates
    numerically (central difference with the given step) and evaluates

        F = sum_{i,j} 2 |<i| drho |j>|^2 / (lambda_i + lambda_j)

    over eigenpairs of rho(phi0), skipping pairs whose combined weight
    falls below 1e-10 times the largest eigenvalue.

    Args:
        state_at: maps a parameter value to a (Hermitian, normalized)
            density matrix.
        phi0: evaluation point.
        step: finite-difference step, validated to [1e-7, 1e-3].
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step must lie in [1e-7, 1e-3], got {step}")
    rho = np.asarray(state_at(phi0), dtype=np.complex128)
    rho = (rho + rho.conj().T) / 2.0
    drho = (
        np.asarray(state_at(phi0 + step), dtype=np.complex128)
        - np.asarray(state_at(phi0 - step), dtype=np.complex128)
    ) / (2.0 * step)

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
