"""Self-validation suite: cross-engine identities run as named checks.

Every check is deterministic for a given seed; the formatted report is
byte-identical across runs, so it can be diffed between machines and
versions.  Failures print the offending parameters.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closedform import (
    class_probability,
    eta_opt_probability,
    prob_total,
    qfi_total,
)
from .dense import (
    aggregate_metrics_dense,
    do_nothing_baseline,
    ghz_state,
    ghz_vector,
    phase_imprint,
    qfi_general,
    run_all_branches,
    run_protocol_branch,
)
from .operators import adc_basis_action, adc_kraus, rotation_op, weak_meas_op
from .optimize import (
    GridSpec,
    Objective,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
    pareto_scan,
)
from .params import (
    Convention,
    ProtocolParams,
    branch_classes,
)
from .structured import (
    _aggregates,
    aggregate_complex,
    aggregate_metrics,
    branch_elements,
    branch_qfi,
    metrics_grid,
    state_export,
)

__all__ = ["CheckResult", "run_validation", "format_report"]

_IDENTITY = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _draw_params(
    rng: np.random.Generator, n: int, theta_max: float = math.pi / 2
) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n,
        gamma=float(rng.uniform(0.15, math.pi - 0.15)),
        phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
        theta=float(rng.uniform(0.05, theta_max)),
        eta=float(rng.uniform(0.0, 2.0 * math.pi)),
        r=float(rng.uniform(0.0, 1.0)),
        extended_theta=True,
    )


def _fail(detail: str) -> tuple[bool, str]:
    return False, detail


def _ok() -> tuple[bool, str]:
    return True, ""


def _check_measurement_completeness(rng) -> tuple[bool, str]:
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.pi))
        m0, m1 = weak_meas_op(0, theta), weak_meas_op(1, theta)
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        if np.max(np.abs(total - _IDENTITY)) > 1e-12:
            return _fail(f"theta={theta!r}")
    return _ok()


def _check_damping_completeness(rng) -> tuple[bool, str]:
    for _ in range(50):
        r = float(rng.uniform(0.0, 1.0))
        e0, e1 = adc_kraus(r)
        total = e0.conj().T @ e0 + e1.conj().T @ e1
        if np.max(np.abs(total - _IDENTITY)) > 1e-12:
            return _fail(f"r={r!r}")
    return _ok()


def _check_rotation_unitarity(rng) -> tuple[bool, str]:
    for _ in range(50):
        eta = float(rng.uniform(0.0, 2.0 * math.pi))
        for outcome in (0, 1):
            t = rotation_op(outcome, eta)
            if np.max(np.abs(t.conj().T @ t - _IDENTITY)) > 1e-12:
                return _fail(f"eta={eta!r} outcome={outcome}")
    return _ok()


def _check_damping_basis_action(rng) -> tuple[bool, str]:
    basis = {
        (0, 0): np.array([[1, 0], [0, 0]], dtype=np.complex128),
        (0, 1): np.array([[0, 1], [0, 0]], dtype=np.complex128),
        (1, 0): np.array([[0, 0], [1, 0]], dtype=np.complex128),
        (1, 1): np.array([[0, 0], [0, 1]], dtype=np.complex128),
    }
    for _ in range(20):
        r = float(rng.uniform(0.0, 1.0))
        e0, e1 = adc_kraus(r)
        table = adc_basis_action(r)
        for key, unit in basis.items():
            direct = e0 @ unit @ e0.conj().T + e1 @ unit @ e1.conj().T
            if np.max(np.abs(table[key] - direct)) > 1e-14:
                return _fail(f"r={r!r} entry={key}")
    return _ok()


def _identity_point(n: int) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n, gamma=math.pi / 2, phi0=0.0, theta=math.pi / 2, eta=0.0, r=0.0
    )


def _check_identity_point_structured(rng) -> tuple[bool, str]:
    row = aggregate_metrics(_identity_point(10), Convention.PAPER)
    if (
        abs(row.probability - 1.0) > 1e-9
        or abs(row.fidelity - 1.0) > 1e-9
        or abs(row.qfi - 100.0) > 1e-9
    ):
        return _fail(f"row={row}")
    return _ok()


def _check_identity_point_dense(rng) -> tuple[bool, str]:
    row = aggregate_metrics_dense(_identity_point(4), Convention.PHYSICAL)
    if (
        abs(row.probability - 1.0) > 1e-9
        or abs(row.fidelity - 1.0) > 1e-9
        or abs(row.qfi - 16.0) > 1e-9
    ):
        return _fail(f"row={row}")
    return _ok()


def _check_record_class_completeness(rng) -> tuple[bool, str]:
    for n in (1, 2, 3, 8, 16, 64):
        total = sum(c.multiplicity for c in branch_classes(n))
        if total != 2**n:
            return _fail(f"n={n} total={total}")
    return _ok()


def _check_record_weights_sum_to_one(rng) -> tuple[bool, str]:
    for n in (1, 2, 3, 4):
        p = _draw_params(rng, n)
        branches = run_all_branches(p, Convention.PHYSICAL)
        total = sum(b.probability for b in branches)
        if abs(total - 1.0) > 1e-10:
            return _fail(f"params={p} total={total!r}")
    return _ok()


def _check_record_states_positive(rng) -> tuple[bool, str]:
    for n in (1, 2, 3):
        p = _draw_params(rng, n)
        for branch in run_all_branches(p, Convention.PHYSICAL):
            eigmin = float(np.min(np.linalg.eigvalsh(branch.rho)))
            if eigmin < -1e-10:
                return _fail(f"params={p} pattern={branch.pattern} eigmin={eigmin}")
    return _ok()


def _check_dense_vs_structured_states(rng) -> tuple[bool, str]:
    for n in (1, 2, 3, 4):
        for convention in (Convention.PAPER, Convention.PHYSICAL):
            p = _draw_params(rng, n)
            for k in range(n + 1):
                pattern = "0" * k + "1" * (n - k)
                dense_rho = run_protocol_branch(p, pattern, convention).rho
                exported = state_export(branch_elements(p, k, convention), n)
                if np.max(np.abs(dense_rho - exported)) > 1e-10:
                    return _fail(f"params={p} convention={convention.value} k={k}")
    return _ok()


def _check_dense_vs_structured_aggregates(rng) -> tuple[bool, str]:
    for n in (1, 2, 3, 4):
        for convention in (Convention.PAPER, Convention.PHYSICAL):
            p = _draw_params(rng, n)
            dense_row = aggregate_metrics_dense(p, convention)
            fast_row = aggregate_metrics(p, convention)
            deltas = (
                abs(dense_row.probability - fast_row.probability),
                abs(dense_row.fidelity - fast_row.fidelity),
                abs(dense_row.qfi - fast_row.qfi),
            )
            if max(deltas) > 1e-9:
                return _fail(
                    f"params={p} convention={convention.value} deltas={deltas}"
                )
    return _ok()


def _check_scalar_vs_grid(rng) -> tuple[bool, str]:
    for _ in range(10):
        p = _draw_params(rng, 8, theta_max=math.pi)
        for convention in (Convention.PAPER, Convention.PHYSICAL):
            # A one-point grid is the scalar path's own call; two points
            # take the grid's class-at-a-time sum.
            prob_c, fid_c, qfi_c = metrics_grid(
                p.n_qubits,
                p.gamma,
                p.phi0,
                p.r,
                np.array([p.theta, p.theta]),
                np.array([p.eta, p.eta]),
                convention,
            )
            total, fid, qfi = aggregate_complex(p, convention)
            deltas = (
                abs(prob_c[0] - total),
                abs(fid_c[0] - fid),
                abs(qfi_c[0] - qfi),
            )
            if max(deltas) > 1e-10 * max(1.0, abs(qfi)):
                return _fail(
                    f"params={p} convention={convention.value} deltas={deltas}"
                )
    return _ok()


def _check_closedform_weight_vs_structured(rng) -> tuple[bool, str]:
    thetas = np.linspace(0.0, math.pi, 10)
    etas = np.linspace(0.0, 2.0 * math.pi, 10)
    rs = np.linspace(0.0, 1.0, 5)
    for n in range(1, 13):
        # One kernel call per n over the (theta, eta, r) grid, in loop order.
        # Its P has the scalar path's bits; its QFI is read only for the
        # NaN that makes the scalar path raise.
        totals, _, qfis = _aggregates(
            n, math.pi / 2, rs, thetas[:, None, None], etas[:, None],
            Convention.PAPER,
        )
        undefined = np.isnan(totals) | np.isnan(qfis)
        for (i, j, m), batch_total in np.ndenumerate(totals):
            theta, eta, r = thetas[i], etas[j], rs[m]
            p = ProtocolParams(
                n_qubits=n,
                gamma=math.pi / 2,
                phi0=0.0,
                theta=float(theta),
                eta=float(eta),
                r=float(r),
                extended_theta=True,
            )
            verbatim = prob_total(p)
            if undefined[i, j, m] or abs(verbatim - batch_total) > 1e-9:
                # The scalar path words the failure, or raises.
                total, _, _ = aggregate_complex(p, Convention.PAPER)
                if abs(verbatim - total) > 1e-9:
                    return _fail(
                        f"n={n} theta={theta!r} eta={eta!r} r={r!r} "
                        f"delta={abs(verbatim - total)}"
                    )
    return _ok()


def _check_documented_denominator_gap(rng) -> tuple[bool, str]:
    p = _identity_point(10)
    verbatim = qfi_total(p).real
    appendix = aggregate_complex(p, Convention.PAPER)[2].real
    if abs(verbatim - 100.1953125) > 1e-9:
        return _fail(f"verbatim={verbatim!r}")
    if abs(appendix - 100.0) > 1e-9:
        return _fail(f"appendix={appendix!r}")
    return _ok()


def _check_class_weights_collapse(rng) -> tuple[bool, str]:
    for n in (1, 3, 6, 10):
        p = _draw_params(rng, n, theta_max=math.pi)
        total = sum(
            cls.multiplicity * class_probability(p, cls.k)
            for cls in branch_classes(n)
        )
        product_form = prob_total(p)
        if abs(total - product_form) > 1e-11:
            return _fail(f"params={p} delta={abs(total - product_form)}")
    return _ok()


def _check_class_qfi_vs_spectral(rng) -> tuple[bool, str]:
    done = 0
    while done < 30:
        n = int(rng.integers(1, 4))
        p = _draw_params(rng, n, theta_max=math.pi / 2)
        k = int(rng.integers(0, n + 1))
        elements = branch_elements(p, k, Convention.PHYSICAL)
        if (elements.A + elements.B).real < 1e-6 or elements.P.real < 1e-6:
            continue
        expected = branch_qfi(elements, n).real
        pattern = "0" * k + "1" * (n - k)
        run = run_protocol_branch(p, pattern, Convention.PHYSICAL)
        rho_hat = run.rho / run.probability.real

        def family(phi: float) -> np.ndarray:
            return phase_imprint(rho_hat, phi)

        spectral = qfi_general(family, 0.0)
        scale = max(abs(expected), 1e-6)
        if abs(spectral - expected) / scale > 1e-4:
            return _fail(
                f"params={p} k={k} expected={expected!r} spectral={spectral!r}"
            )
        done += 1
    return _ok()


def _check_rotation_identity_zero(rng) -> tuple[bool, str]:
    for r in np.linspace(0.0, 1.0, 100):
        for theta in np.linspace(0.0, math.pi, 100):
            value = eta_opt_probability(float(r), float(theta))
            if abs(value) > 1e-12:
                return _fail(f"r={r!r} theta={theta!r} value={value!r}")
    return _ok()


def _check_unit_weight_at_zero_rotation(rng) -> tuple[bool, str]:
    thetas = np.linspace(0.0, math.pi, 100)
    rs = np.linspace(0.0, 1.0, 100)
    prob_c, _, _ = _aggregates(
        10, math.pi / 2, rs[:, None], thetas, 0.0, Convention.PAPER,
        fidelity=False, qfi=False,
    )
    worst = np.max(np.abs(prob_c - 1.0), axis=1)  # a row per r
    for r, row_worst in zip(rs, worst):
        if row_worst > 1e-12:
            return _fail(f"r={r!r} worst|P-1|={float(row_worst)}")
    return _ok()


def _check_physical_rotation_invariance(rng) -> tuple[bool, str]:
    for _ in range(10):
        p = _draw_params(rng, 6, theta_max=math.pi)
        at_eta = aggregate_metrics(p, Convention.PHYSICAL)
        at_zero = aggregate_metrics(
            dataclasses.replace(p, eta=0.0), Convention.PHYSICAL
        )
        if (
            abs(at_eta.probability - at_zero.probability) > 1e-10
            or abs(at_eta.qfi - at_zero.qfi) > 1e-10
        ):
            return _fail(f"params={p}")
    return _ok()


def _check_fidelity_peaks_at_zero_rotation(rng) -> tuple[bool, str]:
    for _ in range(10):
        p = _draw_params(rng, 6, theta_max=math.pi)
        at_eta = aggregate_metrics(p, Convention.PHYSICAL)
        at_zero = aggregate_metrics(
            dataclasses.replace(p, eta=0.0), Convention.PHYSICAL
        )
        if at_eta.fidelity > at_zero.fidelity + 1e-12:
            return _fail(f"params={p}")
    return _ok()


def _check_corner_conjugate_symmetry(rng) -> tuple[bool, str]:
    for _ in range(10):
        n = int(rng.integers(1, 9))
        p = _draw_params(rng, n, theta_max=math.pi)
        for convention in (Convention.PAPER, Convention.PHYSICAL):
            k = int(rng.integers(0, n + 1))
            elements = branch_elements(p, k, convention)
            if abs(elements.D - np.conj(elements.C)) > 1e-15:
                return _fail(f"params={p} k={k} convention={convention.value}")
    return _ok()


def _check_baseline_vs_dense_damping(rng) -> tuple[bool, str]:
    for n in (1, 2, 3, 4):
        p = _draw_params(rng, n)
        row = do_nothing_baseline(p)
        e0, e1 = adc_kraus(p.r)
        rho = ghz_state(n, p.gamma, p.phi0)
        for site in range(n):
            ops = [
                np.kron(
                    np.kron(np.eye(2**site), e), np.eye(2 ** (n - site - 1))
                ).astype(np.complex128)
                for e in (e0, e1)
            ]
            rho = sum(op @ rho @ op.conj().T for op in ops)
        psi = ghz_vector(n, p.gamma, p.phi0)
        fid = float(np.real(psi.conj() @ rho @ psi))
        if abs(fid - row.fidelity) > 1e-9:
            return _fail(f"params={p} fid={fid!r} row={row.fidelity!r}")
    return _ok()


def _check_pure_state_information_bound(rng) -> tuple[bool, str]:
    for n in (1, 2, 3):
        rho = ghz_state(n, math.pi / 2, 0.3)

        def family(phi: float) -> np.ndarray:
            return phase_imprint(rho, phi)

        value = qfi_general(family, 0.0)
        if abs(value - n**2) > 1e-6:
            return _fail(f"n={n} value={value!r}")
    return _ok()


def _check_projective_limit(rng) -> tuple[bool, str]:
    for r in (0.0, 0.4, 1.0):
        p = ProtocolParams(
            n_qubits=10, gamma=math.pi / 2, phi0=0.0, theta=0.0, eta=0.0, r=r
        )
        row = aggregate_metrics(p, Convention.PAPER)
        if abs(row.fidelity - 0.5) > 1e-12 or abs(row.qfi) > 1e-12:
            return _fail(f"r={r!r} row={row}")
    return _ok()


_SMALL_GRID = GridSpec(
    theta_range=(0.0, math.pi, 31),
    eta_range=(0.0, 2.0 * math.pi, 31),
    refine_iters=2,
)


def _check_optimizer_determinism(rng) -> tuple[bool, str]:
    base = _identity_point(6)
    first = maximize_metric(Objective.FIDELITY, 0.35, base, _SMALL_GRID)
    second = maximize_metric(Objective.FIDELITY, 0.35, base, _SMALL_GRID)
    if first != second:
        return _fail(f"first={first} second={second}")
    return _ok()


def _check_optimizer_value_matches_companion(rng) -> tuple[bool, str]:
    base = _identity_point(6)
    for objective, field in (
        (Objective.PROBABILITY, "probability"),
        (Objective.FIDELITY, "fidelity"),
        (Objective.QFI, "qfi"),
    ):
        res = maximize_metric(objective, 0.25, base, _SMALL_GRID)
        if res.value != getattr(res.companion, field):
            return _fail(f"objective={objective.value} result={res}")
    return _ok()


def _check_probability_peak(rng) -> tuple[bool, str]:
    res = maximize_metric(Objective.PROBABILITY, 0.7, _identity_point(10), _SMALL_GRID)
    if abs(res.value - 1.0) > 1e-9 or res.eta_star != 0.0:
        return _fail(f"result={res}")
    return _ok()


def _check_unit_probability_constraint(rng) -> tuple[bool, str]:
    for _ in range(3):
        r = float(rng.uniform(0.0, 1.0))
        res = maximize_fidelity_at_unit_probability(
            r, _identity_point(10), _SMALL_GRID
        )
        if abs(res.companion.probability - 1.0) >= 1e-9:
            return _fail(f"r={r!r} result={res}")
    return _ok()


def _check_pareto_identity_point(rng) -> tuple[bool, str]:
    grid = GridSpec(theta_range=(0.0, math.pi, 41), eta_range=(0.0, math.pi, 41))
    scan = pareto_scan(0.0, _identity_point(10), grid)
    hits = [
        pt
        for pt in scan.points
        if abs(pt.theta - math.pi / 2) < 1e-9 and pt.eta == 0.0
    ]
    if len(hits) != 1 or abs(hits[0].fidelity - 1.0) > 1e-9:
        return _fail(f"hits={hits}")
    if abs(hits[0].probability - 1.0) > 1e-9:
        return _fail(f"hits={hits}")
    return _ok()


def _check_structured_performance(rng) -> tuple[bool, str]:
    p = ProtocolParams(
        n_qubits=1000,
        gamma=math.pi / 2,
        phi0=0.0,
        theta=math.pi / 3,
        eta=0.0,
        r=0.3,
    )
    start = time.perf_counter()
    aggregate_metrics(p, Convention.PAPER, max_qubits=1000)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        return _fail(f"elapsed={elapsed:.3f}s budget=1.0s")
    return _ok()


def _check_serialization_round_trip(rng) -> tuple[bool, str]:
    row = aggregate_metrics(_identity_point(10), Convention.PAPER)
    samples = [
        row.probability,
        row.fidelity,
        row.qfi,
        row.imag_residual,
        math.pi,
        2.0 ** -52,
        1.2345678901234567e-300,
    ]
    for value in samples:
        text = format(value, ".17g")
        if float(text) != value:
            return _fail(f"value={value!r} text={text}")
    return _ok()


_CHECKS: list[tuple[str, Callable]] = [
    ("measurement-completeness", _check_measurement_completeness),
    ("damping-kraus-completeness", _check_damping_completeness),
    ("rotation-unitarity", _check_rotation_unitarity),
    ("damping-basis-action-table", _check_damping_basis_action),
    ("identity-point-structured", _check_identity_point_structured),
    # The appendix aggregates are the structured engine's paper-convention
    # rows; the name stays for the stable report.
    ("identity-point-closedform-appendix", _check_identity_point_structured),
    ("identity-point-dense-n4", _check_identity_point_dense),
    ("record-class-completeness", _check_record_class_completeness),
    ("record-weights-sum-to-one", _check_record_weights_sum_to_one),
    ("record-states-positive", _check_record_states_positive),
    ("dense-vs-structured-states", _check_dense_vs_structured_states),
    ("dense-vs-structured-aggregates", _check_dense_vs_structured_aggregates),
    ("structured-scalar-vs-grid", _check_scalar_vs_grid),
    ("closedform-weight-vs-structured", _check_closedform_weight_vs_structured),
    ("documented-denominator-gap", _check_documented_denominator_gap),
    ("class-weights-collapse", _check_class_weights_collapse),
    ("class-information-vs-spectral", _check_class_qfi_vs_spectral),
    ("rotation-identity-zero", _check_rotation_identity_zero),
    ("unit-weight-at-zero-rotation", _check_unit_weight_at_zero_rotation),
    ("physical-rotation-invariance", _check_physical_rotation_invariance),
    ("fidelity-peaks-at-zero-rotation", _check_fidelity_peaks_at_zero_rotation),
    ("corner-conjugate-symmetry", _check_corner_conjugate_symmetry),
    ("baseline-vs-dense-damping", _check_baseline_vs_dense_damping),
    ("pure-state-information-bound", _check_pure_state_information_bound),
    ("projective-limit", _check_projective_limit),
    ("optimizer-determinism", _check_optimizer_determinism),
    ("optimizer-value-matches-companion", _check_optimizer_value_matches_companion),
    ("probability-peak-at-zero-rotation", _check_probability_peak),
    ("unit-probability-constraint", _check_unit_probability_constraint),
    ("pareto-identity-point", _check_pareto_identity_point),
    ("structured-performance-n1000", _check_structured_performance),
    ("serialization-round-trip", _check_serialization_round_trip),
]


def run_validation(seed: int = 7) -> list[CheckResult]:
    """Run every named check with a single seeded random stream."""
    rng = np.random.default_rng(seed)
    results = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results


def format_report(results: list[CheckResult], seed: int) -> str:
    lines = []
    for result in results:
        if result.passed:
            lines.append(f"ok {result.name}")
        else:
            lines.append(f"FAIL {result.name}: {result.detail}")
    passed = sum(1 for result in results if result.passed)
    lines.append(f"passed {passed}/{len(results)} checks (seed {seed})")
    return "\n".join(lines) + "\n"
