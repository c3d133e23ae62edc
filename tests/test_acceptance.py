"""Acceptance suite: one test per headline claim of the protection scheme.

Every test pins the claimed numbers and tolerances directly; none is
weakened to force a pass.  Tests that fail here record an honest gap
between the claims and what the model actually yields.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ghzprotect.closedform import eta_opt_probability, prob_total, qfi_total
from ghzprotect.dense import (
    aggregate_metrics_dense,
    phase_imprint,
    qfi_general,
    run_protocol_branch,
)
from ghzprotect.optimize import (
    GridSpec,
    Objective,
    maximize_fidelity_at_unit_probability,
    maximize_metric,
)
from ghzprotect.params import Convention, ProtocolParams
from ghzprotect.structured import (
    _class_rows,
    _corners,
    aggregate_complex,
    aggregate_metrics,
    metrics_grid,
)
from ghzprotect.validate import run_validation

PI = math.pi


def ghz_base(n: int, gamma: float = PI / 2) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=0.0, theta=0.0, eta=0.0, r=0.0
    )


def identity_point(n: int) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n, gamma=PI / 2, phi0=0.0, theta=PI / 2, eta=0.0, r=0.0
    )


def r_grid(stop: float) -> list[float]:
    count = int(round(stop / 0.05)) + 1
    return [float(x) for x in np.linspace(0.0, stop, count)]


def random_params(rng: np.random.Generator, n: int) -> ProtocolParams:
    return ProtocolParams(
        n_qubits=n,
        gamma=float(rng.uniform(0.15, PI - 0.15)),
        phi0=float(rng.uniform(0.0, 2.0 * PI)),
        theta=float(rng.uniform(0.05, PI - 0.05)),
        eta=float(rng.uniform(0.0, 2.0 * PI)),
        r=float(rng.uniform(0.0, 1.0)),
        extended_theta=True,
    )


@pytest.fixture(scope="module")
def max_qfi_sweep():
    """Default-grid information maximization over r = 0..0.9, timed once."""
    base = ghz_base(10)
    start = time.perf_counter()
    results = {
        round(r, 2): maximize_metric(Objective.QFI, r, base)
        for r in r_grid(0.9)
    }
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_01_identity_limit():
    start = time.perf_counter()
    p10 = identity_point(10)
    for row in (
        aggregate_metrics(p10, Convention.PAPER),
        aggregate_metrics(p10, Convention.PHYSICAL),
    ):
        assert abs(row.probability - 1.0) <= 1e-9
        assert abs(row.fidelity - 1.0) <= 1e-9
        assert abs(row.qfi - 100.0) <= 1e-9
    for n in (1, 2, 3, 4):
        row = aggregate_metrics_dense(identity_point(n), Convention.PHYSICAL)
        assert abs(row.probability - 1.0) <= 1e-9
        assert abs(row.fidelity - 1.0) <= 1e-9
        assert abs(row.qfi - n**2) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_02_cross_engine_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            p = random_params(rng, n)
            for convention in (Convention.PAPER, Convention.PHYSICAL):
                rows = _class_rows(p, convention)
                for k in range(n + 1):
                    # The dense record's corners are the kernel's A_k, B_k
                    # and coherences.
                    pattern = "0" * k + "1" * (n - k)
                    rho = run_protocol_branch(p, pattern, convention).rho
                    dense = (rho[0, 0], rho[-1, -1], rho[-1, 0], rho[0, -1])
                    kernel = (rows.a[k], rows.b[k], *_corners(p, k, convention))
                    assert np.max(np.abs(np.subtract(dense, kernel))) <= 1e-10
                dense_row = aggregate_metrics_dense(p, convention)
                fast_row = aggregate_metrics(p, convention)
                assert abs(dense_row.probability - fast_row.probability) <= 1e-9
                assert abs(dense_row.fidelity - fast_row.fidelity) <= 1e-9
                assert abs(dense_row.qfi - fast_row.qfi) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_03_closedform_reconciliation():
    thetas = np.linspace(0.0, PI, 10)
    etas = np.linspace(0.0, 2.0 * PI, 10)
    rs = np.linspace(0.0, 1.0, 5)
    for n in range(1, 13):
        for theta in thetas:
            for eta in etas:
                for r in rs:
                    p = ProtocolParams(
                        n_qubits=n, gamma=PI / 2, phi0=0.0,
                        theta=float(theta), eta=float(eta), r=float(r),
                        extended_theta=True,
                    )
                    verbatim = prob_total(p)
                    total, _, _ = aggregate_complex(p, Convention.PAPER)
                    assert abs(verbatim - total) <= 1e-9
    p10 = identity_point(10)
    verbatim_qfi = qfi_total(p10).real
    appendix_qfi = aggregate_complex(p10, Convention.PAPER)[2].real
    assert abs(verbatim_qfi - 100.1953125) <= 1e-9
    assert abs(appendix_qfi - 100.0) <= 1e-9


def test_04_per_class_information_vs_spectral():
    start = time.perf_counter()
    rng = np.random.default_rng(4321)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 4))
        p = random_params(rng, n)
        k = int(rng.integers(0, n + 1))
        # The kernel's class term per record: over the multiplicity and
        # the record's dense weight.
        rows = _class_rows(p, Convention.PHYSICAL)
        run = run_protocol_branch(p, "0" * k + "1" * (n - k), Convention.PHYSICAL)
        weight = run.probability.real
        if (rows.a[k] + rows.b[k]).real < 1e-6 or weight < 1e-6:
            continue
        expected = rows.terms[k].real / (math.comb(n, k) * weight)
        rho_hat = run.rho / weight

        def family(phi: float) -> np.ndarray:
            return phase_imprint(rho_hat, phi)

        spectral = qfi_general(family, 0.0)
        assert abs(spectral - expected) <= 1e-4 * max(abs(expected), 1e-6)
        done += 1
    assert time.perf_counter() - start < 30.0


def test_05_zero_rotation_identity_and_unit_weight():
    rs = np.linspace(0.0, 1.0, 100)
    thetas = np.linspace(0.0, PI, 100)
    for r in rs:
        for theta in thetas:
            assert abs(eta_opt_probability(float(r), float(theta))) <= 1e-12
    for r in rs:
        prob_c, _, _ = metrics_grid(
            10, PI / 2, 0.0, float(r), thetas, np.zeros_like(thetas),
            Convention.PAPER,
        )
        assert float(np.max(np.abs(prob_c - 1.0))) <= 1e-12


def test_06_optimized_information_plateau_and_collapse(max_qfi_sweep):
    results, elapsed = max_qfi_sweep
    for r in r_grid(0.8):
        assert results[round(r, 2)].value >= 95.0, f"r={r}"
    assert results[0.9].value < 15.0
    assert elapsed < 120.0


def test_07_max_fidelity_thresholds():
    base = ghz_base(10)
    for r in r_grid(0.7):
        res = maximize_metric(Objective.FIDELITY, r, base)
        assert res.value >= 0.98, f"r={r}"
    res = maximize_metric(Objective.FIDELITY, 0.999, base)
    assert abs(res.value - 0.5) <= 0.02


def test_08_unit_probability_fidelity_thresholds():
    base = ghz_base(10)
    for r in (0.05, 0.10, 0.15):
        res = maximize_fidelity_at_unit_probability(r, base)
        assert res.value > 0.5, f"r={r} value={res.value}"
    for r in (0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        res = maximize_fidelity_at_unit_probability(r, base)
        assert abs(res.value - 0.5) <= 0.02, f"r={r} value={res.value}"


def test_09_unit_probability_fidelity_small_input_angle():
    """Claim: "for some generalized GHZ state, the proposed scheme can
    protect the state with probability one and fidelity more than 99%."

    At theta = 0 the protocol is a projective measurement with unit
    probability, and its fidelity is the floor 1 - sin^2(gamma)/2 at every
    r.  The floor clears 0.99 for |sin gamma| <= 0.1414 (gamma <= 8.1 deg
    or >= 171.9 deg); at gamma = pi/24 it is 0.99148.

    The claim cannot hold at gamma = pi/3.  With eta pinned to zero every
    step of the circuit (measurement pair, flips, amplitude damping) keeps
    a diagonal state diagonal, and each qubit's |0><1| coherence shrinks
    by sqrt(1 - r) sin(theta) <= sqrt(1 - r), so
    F <= max(|a|^2, |b|^2) + 2 |a|^2 |b|^2 (1 - r)^(N/2)
    = 0.75 + 0.375 (1 - r)^5 at N = 10: 0.971 at r = 0.1, 0.750 at r = 0.9.
    """
    base = ghz_base(10, gamma=PI / 24)
    for r in r_grid(0.9):
        res = maximize_fidelity_at_unit_probability(r, base)
        assert res.value >= 0.99, f"r={r} value={res.value}"


def test_10_fidelity_at_information_optimum(max_qfi_sweep):
    results, _ = max_qfi_sweep
    for r in (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8):
        fid = results[round(r, 2)].companion.fidelity
        assert abs(fid - 0.5) <= 0.05, f"r={r} fidelity={fid}"


def test_11_performance_budgets():
    p = ProtocolParams(
        n_qubits=1000, gamma=PI / 2, phi0=0.0, theta=PI / 3, eta=0.0, r=0.3
    )
    start = time.perf_counter()
    aggregate_metrics(p, Convention.PAPER, max_qubits=1000)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    results = run_validation(seed=7)
    assert time.perf_counter() - start < 120.0
    assert all(res.passed for res in results)
