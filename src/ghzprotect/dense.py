"""Dense (full density-matrix) reference implementation of the protocol.

This is the trusted arbiter: every record is evolved step by step on the
full 2^N-dimensional density matrix, with no per-class or closed-form
shortcuts.  A Kraus step K rho K^dag is computed entry by entry instead of
through the 2^N x 2^N embedded matrix K = I (x) op (x) I: every site
operator of the protocol has at most one nonzero per row, so each entry of
the result is a single product, and the terms a matrix product would add
to it are exact zeros.  The states have the bits of the literal matrix
products (see :func:`_step`).  Records with a common prefix share its
evolution: :func:`run_all_branches` evolves each prefix once, with the
same operations in the same order, so every branch state has the bits of a
record evolved on its own.  It is exponentially expensive and capped at
small registers; the scalable per-class engine is validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: Qubit ceiling for full density-matrix evolution (4^N memory scaling).
DENSE_MAX_QUBITS = 6


@dataclass(frozen=True)
class DenseState:
    """A density matrix together with its register size."""

    n_qubits: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.n_qubits
        if self.rho.shape != (dim, dim):
            raise ValueError(
                f"state for n_qubits={self.n_qubits} must be {dim}x{dim}, "
                f"got shape {self.rho.shape}"
            )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def trace(self) -> complex:
        return complex(np.trace(self.rho))


@dataclass(frozen=True)
class BranchRun:
    """Outcome of the protocol conditioned on one measurement record.

    ``state`` is the unnormalized branch operator: its trace equals
    ``probability``.  Under the two-sided-multiplication convention the
    trace (and hence the probability) is complex for eta != 0.
    """

    pattern: str
    probability: complex
    state: DenseState


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


def ghz_state(n: int, gamma: float, phi0: float) -> DenseState:
    """Density matrix of the generalized GHZ input state.

    Only the four corner elements are nonzero:
    |alpha|^2, |beta|^2 on the diagonal and alpha beta* off-diagonal.
    """
    psi = ghz_vector(n, gamma, phi0)
    return DenseState(n_qubits=n, rho=np.outer(psi, psi.conj()))


def _lift(op: np.ndarray, site: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Embed a single-qubit operator at `site` of an N-qubit register.

    Returns the embedded operator K = I (x) op (x) I as one entry per row,
    without forming the 2^N x 2^N matrix: row i of K holds ``coef[i]`` in
    column ``src[i]`` and zeros elsewhere (``coef[i]`` is 0 for a zero
    row).  A diagonal `op` gives ``src[i] = i``; an `op` with its one entry
    at (a, b) maps the rows whose site bit is a to the columns whose site
    bit is b.  Raises ValueError, naming the site, for an operator with two
    nonzero entries in a row, which this form cannot hold.
    """
    nonzero = op != 0
    if nonzero.sum(axis=1).max() > 1:
        raise ValueError(
            f"operator at site {site} has two nonzero entries in a row, "
            f"got {op.tolist()}"
        )
    col = nonzero.argmax(axis=1)  # column of each row's entry; 0 if none
    index = np.arange(2**n).reshape(2**site, 2, 2 ** (n - site - 1))
    src = index[:, col, :].ravel()
    coef = np.broadcast_to(op[(0, 1), col][:, None], index.shape).ravel()
    return src, coef


def _pattern_bits(pattern: str, n: int) -> list[int]:
    if len(pattern) != n or any(ch not in "01" for ch in pattern):
        raise ValueError(
            f"pattern must be a length-{n} string of 0/1 bits, got {pattern!r}"
        )
    return [int(ch) for ch in pattern]


def _site_kraus(
    p: ProtocolParams, site: int, o: int, damping: tuple[np.ndarray, np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two embedded Kraus operators F_o E F_o M_o of `site` on record bit o."""
    m = weak_meas_op(o, p.theta)
    f = flip_op(o)
    return [_lift(f @ e @ f @ m, site, p.n_qubits) for e in damping]


def _step(
    rho: np.ndarray,
    rot: np.ndarray,
    kraus: list[tuple[np.ndarray, np.ndarray]],
    rotation: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One record bit: its site's Kraus sum on rho, its rotation appended to rot.

    With one nonzero per row of K, entry (i, j) of K rho K^dag is the single
    product ``(coef[i] * rho[src[i], src[j]]) * conj(coef[j])``, rounded in
    the order ``(K @ rho) @ K^dag`` rounds it.  The terms that product would
    add are exact zeros, and the protocol's coefficients are real, so each
    entry has the bits of the matrix product.  A -0 left by a zero
    coefficient becomes +0 in the sum, which starts from 0.  ``rot`` is the
    diagonal of the rotation chain, extended with the products ``np.kron``
    forms.
    """
    rho = sum(
        (coef[:, None] * rho.take(src, 0).take(src, 1)) * coef.conj()
        for src, coef in kraus
    )
    return rho, np.multiply.outer(rot, rotation).ravel()


def _branch(
    pattern: str, rho: np.ndarray, rot: np.ndarray, convention: Convention
) -> BranchRun:
    """Close a record: apply the collected rotation; the trace is its weight.

    The rotation's entries are complex, and an elementwise complex product
    can round differently from a BLAS matrix product (by up to 1e-15 on
    unit-scale 64 x 64 states), so the rotation is applied as matrix
    products.
    """
    rot = np.diag(rot)
    if convention is Convention.PHYSICAL:
        rho = rot @ rho @ rot.conj().T
    else:
        rho = rot @ rho @ rot
    prob = complex(np.trace(rho))
    return BranchRun(
        pattern=pattern, probability=prob, state=DenseState(len(pattern), rho)
    )


def run_protocol_branch(
    p: ProtocolParams, pattern: str, convention: Convention
) -> BranchRun:
    """Evolve the input through one full measurement-record branch.

    Per qubit, conditioned on its record bit o: weak measurement M_o,
    flip F_o, amplitude damping (full Kraus sum), flip F_o again, and the
    conditional rotation T_o.  The rotation is applied as T rho T^dag
    (PHYSICAL) or T rho T (PAPER).

    Returns the unnormalized branch state; its trace is the branch
    probability.
    """
    validate_params(p, max_qubits=DENSE_MAX_QUBITS)
    n = p.n_qubits
    bits = _pattern_bits(pattern, n)

    rho = ghz_state(n, p.gamma, p.phi0).rho
    rot = np.ones(1, dtype=np.complex128)
    damping = adc_kraus(p.r)
    for site, o in enumerate(bits):
        kraus = _site_kraus(p, site, o, damping)
        rho, rot = _step(rho, rot, kraus, np.diag(rotation_op(o, p.eta)))
    return _branch(pattern, rho, rot, convention)


def run_all_branches(
    p: ProtocolParams, convention: Convention
) -> list[BranchRun]:
    """All 2^N record branches, ordered by the pattern's binary value.

    Walks the tree of record prefixes depth first and takes each prefix's
    step once: 2^(N+1) - 2 steps instead of N 2^N, and 4N embedded Kraus
    operators instead of N 2^(N+1).  A step touches each entry of the
    state once per Kraus operator, and each leaf applies its rotation as
    two 2^N x 2^N matrix products.  Each branch goes through the
    operations :func:`run_protocol_branch` takes for its pattern, so the
    two agree bit for bit.  The walk keeps an explicit stack, which holds
    at most one pending sibling per level.
    """
    validate_params(p, max_qubits=DENSE_MAX_QUBITS)
    n = p.n_qubits
    damping = adc_kraus(p.r)
    kraus = [[_site_kraus(p, site, o, damping) for o in (0, 1)] for site in range(n)]
    rotation = [np.diag(rotation_op(o, p.eta)) for o in (0, 1)]

    branches = []
    stack = [("", ghz_state(n, p.gamma, p.phi0).rho, np.ones(1, dtype=np.complex128))]
    while stack:
        prefix, rho, rot = stack.pop()
        site = len(prefix)
        if site == n:
            branches.append(_branch(prefix, rho, rot, convention))
            continue
        for o in (1, 0):  # bit 0 is popped first: binary order
            child = _step(rho, rot, kraus[site][o], rotation[o])
            stack.append((prefix + str(o), *child))
    return branches


def run_protocol_average(
    p: ProtocolParams, convention: Convention
) -> tuple[DenseState, complex]:
    """Record-averaged output state and the total success weight.

    Sums the unnormalized branch states over every record and renormalizes
    by the total trace.  Raises :class:`DegeneracyError` when the total
    weight vanishes (every branch killed, e.g. projective measurement onto
    decayed components), since no average state exists there.
    """
    branches = run_all_branches(p, convention)
    total = sum(b.probability for b in branches)
    if abs(total) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"total branch weight {total} vanishes at "
            f"theta={p.theta}, eta={p.eta}, r={p.r}; "
            f"the averaged state is undefined"
        )
    rho = sum(b.state.rho for b in branches) / total
    return DenseState(p.n_qubits, rho), total


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
    weights = np.array([bin(i).count("1") for i in range(dim)])
    d = np.exp(1j * delta * weights)
    return (d[:, None] * rho) * d.conj()[None, :]


def qfi_general(
    state_at: Callable[[float], np.ndarray], phi0: float, step: float = 1e-5
) -> float:
    """Quantum Fisher information by spectral decomposition.

    Makes no structural assumption about the family: differentiates
    numerically (central difference with the given step) and evaluates

        F = sum_{i,j} 2 |<i| drho |j>|^2 / (lambda_i + lambda_j)

    over eigenpairs of rho(phi0), skipping pairs whose combined weight
    falls below 1e-10.

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
    kept = denom > 1e-10
    return float(np.sum(2.0 * np.abs(d_in_eig[kept]) ** 2 / denom[kept]))


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a normalized pure target with a state.

    Returns the real part clipped to [0, 1]; intended for Hermitian,
    normalized states where the imaginary part is pure rounding noise.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(
            f"shape mismatch: vector of size {psi.size} against state "
            f"{rho.shape}"
        )
    val = float(np.real(psi.conj() @ rho @ psi))
    return min(max(val, 0.0), 1.0)


def _corner_elements(rho: np.ndarray) -> tuple[complex, complex, complex]:
    """(A, B, C): the two extreme populations and the corner coherence."""
    return complex(rho[0, 0]), complex(rho[-1, -1]), complex(rho[0, -1])


def aggregate_metrics_dense(
    p: ProtocolParams, convention: Convention
) -> MetricsRow:
    """Record-averaged probability/fidelity/QFI from full branch evolution.

    The QFI aggregate is the record-average of per-branch information,
    sum_b 4 |C_b|^2 N^2 / (A_b + B_b): each branch estimates the collective
    phase through its surviving corner coherence, and the branch weight
    cancels against the normalization of the branch state.
    """
    branches = run_all_branches(p, convention)
    n = p.n_qubits

    p_total = sum(b.probability for b in branches)
    if abs(p_total) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"total branch weight {p_total} vanishes at theta={p.theta}, "
            f"eta={p.eta}, r={p.r}"
        )

    psi = ghz_vector(n, p.gamma, p.phi0)
    fid_num = sum(complex(psi.conj() @ b.state.rho @ psi) for b in branches)
    fid = fid_num / p_total

    qfi = 0.0 + 0.0j
    for b in branches:
        a, bb, c = _corner_elements(b.state.rho)
        denom = a + bb
        pole_below, drop_below = class_cutoffs(abs(c))
        if abs(denom) < pole_below:
            raise DegeneracyError(
                f"branch {b.pattern} has vanishing corner populations; "
                f"its information contribution is undefined"
            )
        if abs(denom) >= drop_below:
            qfi += 4.0 * abs(c) ** 2 * n**2 / denom

    residual = max(abs(p_total.imag), abs(fid.imag), abs(qfi.imag))
    return MetricsRow(
        r=p.r,
        theta=p.theta,
        eta=p.eta,
        probability=float(p_total.real),
        fidelity=float(fid.real),
        qfi=float(qfi.real),
        imag_residual=float(residual),
        convention=convention,
        engine=Engine.DENSE,
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
