"""Shared parameter, branch-class, and result types, and the degeneracy rule.

Pure data containers with validation, plus the cutoffs every engine
applies; no physics computation lives here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

#: A total or per-class record weight |P| below this vanishes; it also
#: caps the cutoffs of :func:`class_cutoffs`.
DEGENERACY_TOL = 1e-13

#: Default qubit-count ceiling for the scalable (per-class) engine.
DEFAULT_MAX_QUBITS = 64


class DegeneracyError(ValueError):
    """Raised when a requested quantity is undefined because the relevant
    probability (or population denominator) vanishes to working precision."""


def class_cutoffs(c_abs):
    """(pole_below, drop_below), elementwise, for classes of coherence |C|.

    A class's information term 4 |C|^2 N^2 / (A + B) is a pole when |A + B|
    < min(tol, 2 |C|^2), and adds nothing when |A + B| < min(tol, |C|),
    where the populations have cancelled, or when |C|^2 = 0 (drop_below is
    then inf).  Physical classes have |A + B| >= 2 |C|: never a pole.
    """
    c_sq = c_abs * c_abs
    pole_below = np.minimum(DEGENERACY_TOL, 2.0 * c_sq)
    drop_below = np.where(c_sq == 0.0, np.inf, np.minimum(DEGENERACY_TOL, c_abs))
    return pole_below, drop_below


class Convention(str, enum.Enum):
    """How the conditional phase rotation acts on the branch state.

    PHYSICAL: unitary conjugation (operator on the left, adjoint on the
        right).  States stay Hermitian and positive, probabilities are real,
        and every metric is independent of the rotation angle.
    PAPER: the same operator on both sides without the adjoint (two-sided
        multiplication).  This reproduces the published per-branch element
        algebra exactly, at the price of complex-valued corner elements and
        traces whenever eta != 0.
    """

    PHYSICAL = "physical"
    PAPER = "paper"


class Engine(str, enum.Enum):
    """Which evaluation path produced a metrics row.

    The paper's appendix aggregates are STRUCTURED rows.
    """

    DENSE = "dense"
    STRUCTURED = "structured"
    CLOSEDFORM_VERBATIM = "closedform_verbatim"


@dataclass(frozen=True)
class ProtocolParams:
    """Input parameters of one protection-protocol evaluation.

    Attributes:
        n_qubits: register size N (>= 1).
        gamma: state mixing angle in (0, pi); the input amplitudes are
            alpha = cos(gamma/2), beta = e^{i phi0} sin(gamma/2).
        phi0: relative phase of the input superposition (the parameter being
            estimated when computing Fisher information).
        theta: measurement strength in [0, pi/2] by default; theta=pi/2 is
            no measurement, theta=0 is projective.  Set ``extended_theta``
            to allow the full [0, pi] sweep range.
        eta: rotation angle in [0, 2*pi].
        r: per-qubit damping probability in [0, 1].
        extended_theta: opt-in widening of the theta domain to [0, pi].
    """

    n_qubits: int
    gamma: float
    phi0: float
    theta: float
    eta: float
    r: float
    extended_theta: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, int) or self.n_qubits < 1:
            raise ValueError(
                f"n_qubits must be a positive integer, got {self.n_qubits!r}"
            )
        if not 0.0 < self.gamma < math.pi:
            raise ValueError(
                f"gamma must lie strictly inside (0, pi), got {self.gamma}"
            )
        theta_hi = math.pi if self.extended_theta else math.pi / 2
        if not 0.0 <= self.theta <= theta_hi:
            raise ValueError(
                f"theta must lie in [0, {theta_hi:.12g}] "
                f"(extended_theta={self.extended_theta}), got {self.theta}"
            )
        if not 0.0 <= self.eta <= TWO_PI:
            raise ValueError(f"eta must lie in [0, 2*pi], got {self.eta}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in the unit interval, got {self.r}")
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 must be finite, got {self.phi0}")

    @property
    def alpha(self) -> complex:
        """Amplitude of |0...0>; real by construction."""
        return complex(math.cos(self.gamma / 2.0), 0.0)

    @property
    def beta(self) -> complex:
        """Amplitude of |1...1>, carrying the phase phi0."""
        return math.sin(self.gamma / 2.0) * complex(
            math.cos(self.phi0), math.sin(self.phi0)
        )


def validate_params(p: ProtocolParams, max_qubits: int = DEFAULT_MAX_QUBITS) -> ProtocolParams:
    """Check a parameter set against an engine's qubit ceiling.

    The dataclass already validates ranges at construction; this re-checks
    them (so hand-built or mutated objects fail loudly) and additionally
    enforces the engine-specific register ceiling.

    Returns the parameter set unchanged if everything holds.
    """
    # Re-run the range checks on the object itself; frozen dataclasses can
    # still be mutated with object.__setattr__, and callers may pass
    # subclasses.
    ProtocolParams.__post_init__(p)
    if p.n_qubits > max_qubits:
        raise ValueError(
            f"n_qubits={p.n_qubits} exceeds the configured maximum {max_qubits}"
        )
    return p


@dataclass(frozen=True)
class BranchClass:
    """One equivalence class of measurement records.

    All records with the same number k of outcome-0 qubits produce the same
    branch state (every qubit shares the same control parameters), so a
    class is (k, multiplicity) with multiplicity = C(N, k).
    """

    k: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be a positive integer, got {self.multiplicity}"
            )


def branch_classes(n: int) -> list[BranchClass]:
    """Enumerate outcome classes k = 0..n with exact binomial multiplicities.

    Uses exact integer arithmetic so the completeness identity
    sum_k C(n, k) == 2**n holds without rounding for any n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return [BranchClass(k=k, multiplicity=math.comb(n, k)) for k in range(n + 1)]


# Tolerance used by MetricsRow bound checks under the physical convention.
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class MetricsRow:
    """Realized metrics at one parameter point.

    ``imag_residual`` is the largest imaginary magnitude discarded when the
    underlying complex aggregates were realized via their real part.  Under
    the physical convention all three metrics are genuine probabilities /
    information quantities and are bound-checked; two-sided-multiplication
    values are reported raw (they can exceed [0, 1] by design).
    """

    r: float
    theta: float
    eta: float
    probability: float
    fidelity: float
    qfi: float
    imag_residual: float
    convention: Convention
    engine: Engine

    def __post_init__(self) -> None:
        if self.imag_residual < 0.0:
            raise ValueError(
                f"imag_residual must be non-negative, got {self.imag_residual}"
            )
        if self.convention is Convention.PHYSICAL:
            if not -_BOUND_TOL <= self.probability <= 1.0 + _BOUND_TOL:
                raise ValueError(
                    f"probability {self.probability} outside [0, 1] "
                    f"(tolerance {_BOUND_TOL}) under the physical convention"
                )
            if not -_BOUND_TOL <= self.fidelity <= 1.0 + _BOUND_TOL:
                raise ValueError(
                    f"fidelity {self.fidelity} outside [0, 1] "
                    f"(tolerance {_BOUND_TOL}) under the physical convention"
                )
            if self.qfi < -_BOUND_TOL:
                raise ValueError(
                    f"qfi {self.qfi} below 0 (tolerance {_BOUND_TOL}) "
                    f"under the physical convention"
                )

    @classmethod
    def realized(
        cls,
        point: tuple[float, float, float],
        aggregates: tuple[complex, complex, complex],
        convention: Convention,
        engine: Engine,
    ) -> MetricsRow:
        """The row of one (r, theta, eta) point's complex aggregates.

        ``aggregates`` is (probability, fidelity, qfi); the metrics are
        their real parts, and the largest discarded imaginary magnitude is
        ``imag_residual``.
        """
        r, theta, eta = point
        total, fid, qfi = aggregates
        return cls(
            r=r,
            theta=theta,
            eta=eta,
            probability=total.real,
            fidelity=fid.real,
            qfi=qfi.real,
            imag_residual=max(abs(z.imag) for z in aggregates),
            convention=convention,
            engine=engine,
        )
