"""Tests for the per-class engine, anchored to the dense reference.

The class algebra was derived by hand; every closed-form element is
checked against literal dense evolution on small registers, and frozen
spot values pin the formulas themselves.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzprotect.dense import (
    aggregate_metrics_dense,
    run_protocol_branch,
)
from ghzprotect.params import (
    Convention,
    DegeneracyError,
    ProtocolParams,
)
from ghzprotect.structured import (
    BranchElements,
    DiagProduct,
    _probability_fidelity,
    aggregate_complex,
    aggregate_metrics,
    branch_elements,
    branch_qfi,
    metrics_grid,
    state_export,
)


def make_params(**overrides):
    base = dict(
        n_qubits=2,
        gamma=math.pi / 2,
        phi0=0.0,
        theta=math.pi / 2,
        eta=0.0,
        r=0.0,
    )
    base.update(overrides)
    return ProtocolParams(**base)


def random_params(rng, n, **fixed):
    draw = dict(
        n_qubits=n,
        gamma=rng.uniform(0.2, math.pi - 0.2),
        phi0=rng.uniform(0, 2 * math.pi),
        theta=rng.uniform(0.0, math.pi / 2),
        eta=rng.uniform(0.0, 2 * math.pi),
        r=rng.uniform(0.0, 1.0),
    )
    draw.update(fixed)
    return ProtocolParams(**draw)


class TestDiagProduct:
    def test_trace_first_last_against_expansion(self):
        rng = np.random.default_rng(43)
        raw = rng.normal(size=(3, 2, 2))
        pairs = tuple(
            (complex(a[0], a[1]), complex(b[0], b[1])) for a, b in raw
        )
        dp = DiagProduct(scalar=1.5 - 0.5j, pairs=pairs)
        diag = dp.diagonal()
        assert diag.size == 8
        np.testing.assert_allclose(dp.trace(), diag.sum(), atol=1e-14)
        np.testing.assert_allclose(dp.first_entry(), diag[0], atol=1e-14)
        np.testing.assert_allclose(dp.last_entry(), diag[-1], atol=1e-14)


class TestBranchElements:
    def test_frozen_no_measurement_no_damping(self):
        # N=2, theta=pi/2, r=0, eta=0, balanced input, class k=0:
        # each qubit keeps weight 1/2, nothing decays.
        e = branch_elements(make_params(), 0, Convention.PHYSICAL)
        np.testing.assert_allclose(e.A, 0.125, atol=1e-15)
        np.testing.assert_allclose(e.B, 0.125, atol=1e-15)
        np.testing.assert_allclose(e.C, 0.125, atol=1e-15)
        np.testing.assert_allclose(e.D, 0.125, atol=1e-15)
        np.testing.assert_allclose(e.P, 0.25, atol=1e-15)

    def test_diag_products_agree_with_scalars(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_params(rng, 3)
            for conv in Convention:
                for k in range(4):
                    e = branch_elements(p, k, conv)
                    first = e.diag_alpha.first_entry() + e.diag_beta.first_entry()
                    last = e.diag_alpha.last_entry() + e.diag_beta.last_entry()
                    trace = e.diag_alpha.trace() + e.diag_beta.trace()
                    np.testing.assert_allclose(first, e.A, atol=1e-14)
                    np.testing.assert_allclose(last, e.B, atol=1e-14)
                    np.testing.assert_allclose(trace, e.P, atol=1e-14)

    def test_corner_magnitude_k_independent(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = random_params(rng, 4)
            for conv in Convention:
                mags = [
                    abs(branch_elements(p, k, conv).C) for k in range(5)
                ]
                np.testing.assert_allclose(
                    mags, mags[0], atol=1e-12,
                    err_msg="corner magnitude must not depend on the record",
                )

    def test_upper_corner_conjugate_of_lower(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            p = random_params(rng, 3)
            for conv in Convention:
                for k in range(4):
                    e = branch_elements(p, k, conv)
                    np.testing.assert_allclose(e.D, np.conj(e.C), atol=1e-14)

    def test_k_domain(self):
        with pytest.raises(ValueError, match="k must"):
            branch_elements(make_params(), 3, Convention.PHYSICAL)
        with pytest.raises(ValueError, match="k must"):
            branch_elements(make_params(), -1, Convention.PAPER)

    def test_state_export_matches_dense_branch(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                p = random_params(rng, n)
                for conv in Convention:
                    for k in range(n + 1):
                        e = branch_elements(p, k, conv)
                        pattern = "0" * k + "1" * (n - k)
                        dense_run = run_protocol_branch(p, pattern, conv)
                        np.testing.assert_allclose(
                            state_export(e, n),
                            dense_run.state.rho,
                            atol=1e-10,
                            err_msg=(
                                f"class k={k} disagrees with dense record "
                                f"{pattern} ({conv.value}, n={n})"
                            ),
                        )
                        np.testing.assert_allclose(
                            e.P, dense_run.probability, atol=1e-12
                        )

    def test_state_export_size_guard(self):
        e = branch_elements(make_params(), 1, Convention.PHYSICAL)
        with pytest.raises(ValueError, match="describe"):
            state_export(e, 3)


class TestBranchQfi:
    def test_pure_balanced_class(self):
        # theta=pi/2, r=0, eta=0, k=0: normalized branch state is the pure
        # balanced superposition, so the per-record information is n^2.
        e = branch_elements(make_params(), 0, Convention.PHYSICAL)
        np.testing.assert_allclose(branch_qfi(e, 2), 4.0, atol=1e-13)

    def test_no_coherence_no_information(self):
        p = make_params(theta=0.0, r=0.4)
        e = branch_elements(p, 1, Convention.PHYSICAL)
        assert branch_qfi(e, 2) == 0.0

    def test_degenerate_populations_raise(self):
        dp = DiagProduct(scalar=1.0, pairs=((1.0, 0.0),))
        e = BranchElements(
            k=0, A=0.0, B=0.0, C=0.1, D=0.1, P=1.0,
            diag_alpha=dp, diag_beta=dp,
        )
        with pytest.raises(DegeneracyError, match="populations"):
            branch_qfi(e, 1)

    def test_degenerate_weight_raises(self):
        dp = DiagProduct(scalar=1.0, pairs=((1.0, 0.0),))
        e = BranchElements(
            k=0, A=0.2, B=0.2, C=0.1, D=0.1, P=0.0,
            diag_alpha=dp, diag_beta=dp,
        )
        with pytest.raises(DegeneracyError, match="weight"):
            branch_qfi(e, 1)


class TestAggregateMetrics:
    def test_identity_point(self):
        row = aggregate_metrics(make_params(n_qubits=10), Convention.PAPER)
        np.testing.assert_allclose(row.probability, 1.0, atol=1e-12)
        np.testing.assert_allclose(row.fidelity, 1.0, atol=1e-12)
        np.testing.assert_allclose(row.qfi, 100.0, atol=1e-10)

    def test_matches_dense_aggregates(self):
        rng = np.random.default_rng(67)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                p = random_params(rng, n)
                for conv in Convention:
                    got = aggregate_metrics(p, conv)
                    want = aggregate_metrics_dense(p, conv)
                    np.testing.assert_allclose(
                        [got.probability, got.fidelity, got.qfi],
                        [want.probability, want.fidelity, want.qfi],
                        atol=1e-9,
                        err_msg=f"aggregate mismatch at {p} ({conv.value})",
                    )

    def test_physical_probability_is_unity(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = random_params(rng, 12)
            row = aggregate_metrics(p, Convention.PHYSICAL)
            np.testing.assert_allclose(row.probability, 1.0, atol=1e-12)
            assert row.imag_residual < 1e-12

    def test_physical_probability_and_qfi_eta_invariant(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            p0 = random_params(rng, 8, eta=0.0)
            p1 = ProtocolParams(
                n_qubits=8, gamma=p0.gamma, phi0=p0.phi0,
                theta=p0.theta, eta=rng.uniform(0, 2 * math.pi), r=p0.r,
            )
            m0 = aggregate_metrics(p0, Convention.PHYSICAL)
            m1 = aggregate_metrics(p1, Convention.PHYSICAL)
            np.testing.assert_allclose(m1.probability, m0.probability, atol=1e-12)
            np.testing.assert_allclose(m1.qfi, m0.qfi, atol=1e-12 + 1e-12 * abs(m0.qfi))

    def test_projective_measurement_keeps_working(self):
        # theta=0 kills every coherence; information must be 0, not 0/0.
        row = aggregate_metrics(
            make_params(theta=0.0, r=0.3, n_qubits=6), Convention.PAPER
        )
        np.testing.assert_allclose(row.qfi, 0.0, atol=1e-15)
        np.testing.assert_allclose(row.probability, 1.0, atol=1e-12)

    def test_degenerate_total_weight(self):
        p = make_params(theta=math.pi / 2, eta=math.pi / 2, r=0.0)
        with pytest.raises(DegeneracyError, match="weight"):
            aggregate_metrics(p, Convention.PAPER)

    def test_qubit_ceiling_configurable(self):
        p = make_params(n_qubits=80)
        with pytest.raises(ValueError, match="exceeds"):
            aggregate_metrics(p, Convention.PAPER)
        row = aggregate_metrics(p, Convention.PAPER, max_qubits=128)
        assert math.isfinite(row.qfi)

    def test_large_register_runs_fast(self):
        # eta=0 keeps the record-averaged weight at exactly 1, so the sum
        # stays well-conditioned at large N.
        p = make_params(n_qubits=500, theta=0.9, eta=0.0, r=0.35)
        start = time.perf_counter()
        row = aggregate_metrics(p, Convention.PAPER, max_qubits=1024)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        np.testing.assert_allclose(row.probability, 1.0, atol=1e-11)
        assert math.isfinite(row.qfi)

    def test_exponential_weight_decay_flags_degenerate(self):
        # At eta != 0 the two-sided weight decays exponentially in N; once
        # it falls below cancellation resolution the aggregate refuses to
        # divide by it.
        p = make_params(n_qubits=500, theta=0.9, eta=1.1, r=0.35)
        with pytest.raises(DegeneracyError, match="weight"):
            aggregate_metrics(p, Convention.PAPER, max_qubits=1024)


class TestMetricsGrid:
    def test_matches_scalar_path(self):
        thetas = np.linspace(0.0, math.pi / 2, 5)
        etas = np.linspace(0.0, 2 * math.pi, 5)
        tg, eg = np.meshgrid(thetas, etas, indexing="ij")
        for conv in Convention:
            prob, fid, qfi = metrics_grid(
                3, 1.1, 0.4, 0.3, tg, eg, conv
            )
            for i in range(5):
                for j in range(5):
                    p = ProtocolParams(
                        n_qubits=3, gamma=1.1, phi0=0.4,
                        theta=float(tg[i, j]), eta=float(eg[i, j]), r=0.3,
                    )
                    row = aggregate_metrics(p, conv)
                    np.testing.assert_allclose(
                        prob[i, j].real, row.probability, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        fid[i, j].real, row.fidelity, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        qfi[i, j].real, row.qfi, atol=1e-10
                    )

    def test_broadcast_shapes(self):
        prob, fid, qfi = metrics_grid(
            2, 1.0, 0.0, 0.2,
            np.linspace(0, 1, 4)[:, None],
            np.linspace(0, 2, 3)[None, :],
            Convention.PAPER,
        )
        assert prob.shape == fid.shape == qfi.shape == (4, 3)

    @pytest.mark.parametrize("conv", list(Convention))
    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_large_registers_raise_no_runtime_warning(self, n, conv):
        thetas = np.linspace(0.0, math.pi, 181)[:, None]
        etas = np.linspace(0.0, 2 * math.pi, 181)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prob, fid, qfi = metrics_grid(n, 1.1, 0.4, 0.3, thetas, etas, conv)
        assert prob.shape == fid.shape == qfi.shape == (181, 181)
        if conv is Convention.PHYSICAL:
            np.testing.assert_allclose(prob.real, 1.0, atol=1e-9)


_ANGLE = st.one_of(
    st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])
)
_ROTATION = st.one_of(
    st.floats(0.0, 2 * math.pi),
    st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 200),
    gamma=st.floats(0.01, math.pi - 0.01),
    phi0=st.floats(0.0, 2 * math.pi),
    theta=_ANGLE,
    eta=_ROTATION,
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    conv=st.sampled_from(list(Convention)),
)
def test_scalar_path_is_the_grid_at_one_point(n, gamma, phi0, theta, eta, r, conv):
    # The scalar path is the kernel's 0-d call: a one-element grid returns
    # the very same numbers, and NaN exactly where the scalar path raises.
    p = ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=phi0, theta=theta, eta=eta, r=r,
        extended_theta=True,
    )
    grid = [
        complex(z[0])
        for z in metrics_grid(
            n, gamma, phi0, r, np.array([theta]), np.array([eta]), conv
        )
    ]
    undefined = any(math.isnan(z.real) or math.isnan(z.imag) for z in grid)
    try:
        scalar = aggregate_complex(p, conv, max_qubits=200)
    except DegeneracyError:
        assert undefined
    else:
        assert not undefined
        assert list(scalar) == grid


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 200),
    gamma=st.floats(0.01, math.pi - 0.01),
    rs=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
        min_size=1,
        max_size=6,
    ),
    thetas=st.lists(_ANGLE, min_size=1, max_size=8),
    eta=_ROTATION,
    conv=st.sampled_from(list(Convention)),
)
def test_probability_fidelity_over_an_r_axis_is_the_grid_at_each_r(
    n, gamma, rs, thetas, eta, conv
):
    # One call with r along its own axis gives, row by row, the very bits
    # of metrics_grid's probability and fidelity at that r.
    thetas = np.array(thetas)
    etas = np.full(thetas.shape, eta)
    prob, fid = _probability_fidelity(
        n, gamma, np.array(rs)[:, None], thetas, etas, conv
    )
    assert prob.shape == fid.shape == (len(rs), thetas.size)
    for i, r in enumerate(rs):
        grid_prob, grid_fid, _ = metrics_grid(n, gamma, 0.0, r, thetas, etas, conv)
        assert _same_bits(prob[i], grid_prob)
        assert _same_bits(fid[i], grid_fid)
