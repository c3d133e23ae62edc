"""Tests for the per-class engine, anchored to the dense reference.

The class algebra was derived by hand; every closed-form element is
checked against literal dense evolution on small registers, and frozen
spot values pin the formulas themselves.
"""

import cmath
import dataclasses
import itertools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    _aggregates,
    _class_axis,
    _class_rows,
    _corners,
    _paired_complex,
    aggregate_complex,
    aggregate_metrics,
    metrics_grid,
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


def class_sum_oracle(n, gamma, theta, eta, r, convention):
    """The QFI class sum sum_k C(n,k) 4 n^2 |C|^2 / (A_k + B_k) at 50 digits.

    A_k and B_k are the corner populations of class k and |C|^2 =
    c2 s2 (u q)^n; no class is dropped.  Returns a complex number.
    """
    with mpmath.workdps(50):
        c2, s2 = mpmath.cos(gamma / 2) ** 2, mpmath.sin(gamma / 2) ** 2
        u, v = mpmath.cos(theta / 2) ** 2, mpmath.sin(theta / 2) ** 2
        q, vr = v * (1 - mpmath.mpf(r)), v * r
        e = mpmath.expj(eta) if convention is Convention.PAPER else 1
        c_sq = c2 * s2 * (u * q) ** n
        total = 0
        for k in range(n + 1):
            a = c2 * u**k * q ** (n - k) * e ** (2 * k - n) + (k == n) * s2 * (vr * e) ** n
            b = s2 * q**k * u ** (n - k) * e ** (n - 2 * k) + (k == 0) * c2 * (vr * e) ** n
            total += mpmath.binomial(n, k) * 4 * n**2 * c_sq / (a + b)
        return complex(total)


class TestClassRows:
    def test_frozen_no_measurement_no_damping(self):
        # N=2, theta=pi/2, r=0, eta=0, balanced input: each qubit keeps
        # weight 1/2, nothing decays.
        p = make_params()
        rows = _class_rows(p, Convention.PHYSICAL)
        np.testing.assert_allclose(rows.a, 0.125, atol=1e-15)
        np.testing.assert_allclose(rows.b, 0.125, atol=1e-15)
        np.testing.assert_allclose(rows.c_abs, 0.125, atol=1e-15)
        np.testing.assert_allclose(_corners(p, 0, Convention.PHYSICAL), 0.125, atol=1e-15)
        np.testing.assert_allclose(
            run_protocol_branch(p, "11", Convention.PHYSICAL).probability, 0.25, atol=1e-15
        )

    def test_populations_agree_with_scalars(self):
        # A and B against their integer-power forms, and the dense record's
        # weight against P's, with e the diagonal rotation phase (1 under
        # the physical convention).
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_params(rng, 3)
            c2, s2 = abs(p.alpha) ** 2, abs(p.beta) ** 2
            u, v = math.cos(p.theta / 2) ** 2, math.sin(p.theta / 2) ** 2
            q, vr = v * (1.0 - p.r), v * p.r
            for conv in Convention:
                e = cmath.exp(1j * p.eta) if conv is Convention.PAPER else 1.0
                rows = _class_rows(p, conv)
                for k in range(4):
                    first = c2 * u**k * q ** (3 - k) * e ** (2 * k - 3)
                    last = s2 * q**k * u ** (3 - k) * e ** (3 - 2 * k)
                    edge = (vr * e) ** 3
                    trace = c2 * (u * e) ** k * (q / e + vr * e) ** (3 - k)
                    trace += s2 * (vr * e + q / e) ** k * (u * e) ** (3 - k)
                    np.testing.assert_allclose(rows.a[k], first + (k == 3) * s2 * edge, atol=1e-14)
                    np.testing.assert_allclose(rows.b[k], last + (k == 0) * c2 * edge, atol=1e-14)
                    record = run_protocol_branch(p, "0" * k + "1" * (3 - k), conv)
                    np.testing.assert_allclose(record.probability, trace, atol=1e-14)

    def test_corner_magnitude_k_independent(self):
        # The corners have, at every k, the kernel's |C|.
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = random_params(rng, 4)
            for conv in Convention:
                mags = [abs(_corners(p, k, conv)[0]) for k in range(5)]
                np.testing.assert_allclose(
                    mags, _class_rows(p, conv).c_abs, rtol=1e-14, atol=1e-12,
                    err_msg="corner magnitude must not depend on the record",
                )

    def test_pure_balanced_classes(self):
        # theta=pi/2, r=0, eta=0: every normalized branch state is the pure
        # balanced superposition, with n^2 per record, and each of the
        # C(n, k) records weighs 2^-n.
        terms = _class_rows(make_params(), Convention.PHYSICAL).terms
        np.testing.assert_allclose(terms, [1.0, 2.0, 1.0], atol=1e-13)

    def test_no_coherence_no_information(self):
        rows = _class_rows(make_params(theta=0.0, r=0.4), Convention.PHYSICAL)
        assert rows.c_abs == 0.0
        assert np.all(rows.terms == 0.0)

    def test_a_class_pole_reads_nan(self):
        # The paper convention's closed-form pole theta_p(r) at eta = 7 pi/4:
        # the even classes k = 2..8 have cancelled corner populations, and
        # the one-point call raises.
        r = 0.2
        p = ProtocolParams(
            n_qubits=10, gamma=math.pi / 2, phi0=0.0,
            theta=2.0 * math.atan((1.0 - r) ** -0.5), eta=7.0 * math.pi / 4, r=r,
            extended_theta=True,
        )
        terms = _class_rows(p, Convention.PAPER).terms
        assert np.isnan(terms).tolist() == [k in (2, 4, 6, 8) for k in range(11)]
        with pytest.raises(DegeneracyError, match="vanishing corner populations"):
            aggregate_complex(p, Convention.PAPER)

    def test_classes_sum_to_the_aggregate_at_cancelled_populations(self):
        # Classes 1..5 have |A+B| from 3.0e-14 to 6.3e-14, next to |C| =
        # 3.04e-14, and class 4 has cancelled below |C|: its term is 0.
        terms = _class_rows(_NEAR_CANCELLED, Convention.PAPER).terms
        _, _, qfi = aggregate_complex(_NEAR_CANCELLED, Convention.PAPER)
        assert terms[4] == 0.0
        assert np.all(terms[[1, 2, 3, 5]] != 0.0)
        assert np.add.reduce(terms).tobytes() == np.complex128(qfi).tobytes()


class TestCorners:
    def test_upper_corner_conjugate_of_lower(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            p = random_params(rng, 3)
            for conv in Convention:
                for k in range(4):
                    lower, upper = _corners(p, k, conv)
                    np.testing.assert_allclose(upper, np.conj(lower), atol=1e-14)

    def test_matches_dense_branch(self):
        # The dense record 0^k 1^(n-k) stores, at its corners, the kernel's
        # A_k and B_k and the two coherences of _corners.
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(5):
                p = random_params(rng, n)
                for conv in Convention:
                    rows = _class_rows(p, conv)
                    for k in range(n + 1):
                        pattern = "0" * k + "1" * (n - k)
                        rho = run_protocol_branch(p, pattern, conv).rho
                        np.testing.assert_allclose(
                            [rho[0, 0], rho[-1, -1], rho[-1, 0], rho[0, -1]],
                            [rows.a[k], rows.b[k], *_corners(p, k, conv)],
                            atol=1e-10,
                            err_msg=(
                                f"class k={k} disagrees with dense record "
                                f"{pattern} ({conv.value}, n={n})"
                            ),
                        )


#: N = 6 paper-convention point whose QFI classes sit near cancellation.
_NEAR_CANCELLED = ProtocolParams(
    n_qubits=6, gamma=1.35130, phi0=0.24441, theta=2.98400,
    eta=2.59529, r=0.99356, extended_theta=True,
)


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

    def test_dense_engine_applies_the_same_class_rule(self):
        got = aggregate_metrics(_NEAR_CANCELLED, Convention.PAPER)
        want = aggregate_metrics_dense(_NEAR_CANCELLED, Convention.PAPER)
        assert got.qfi == pytest.approx(want.qfi, rel=1e-9)

    @pytest.mark.parametrize("conv", list(Convention))
    def test_identity_point_qfi_is_n_squared_while_c_squared_is_a_float(self, conv):
        # Every class has |A+B| = 2^-n and |C|^2 = 2^-(2n+2), which is
        # nonzero up to n = 536.
        for n in range(1, 537):
            p = make_params(n_qubits=n)
            row = aggregate_metrics(p, conv, max_qubits=536)
            assert row.qfi == pytest.approx(n * n, rel=1e-14), n

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
    # The scalar path sums a point's classes as a one-element grid does: the
    # grid returns the very same numbers, and NaN exactly where the scalar
    # path raises.
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
    # One call without the class sum, with r along its own axis, gives row
    # by row the very bits of metrics_grid's probability and fidelity at
    # that r.  The kernel's fields are real where every phase is one, and
    # metrics_grid casts them to complex.
    thetas = np.array(thetas)
    etas = np.full(thetas.shape, eta)
    prob, fid, qfi = _aggregates(
        n, gamma, np.array(rs)[:, None], thetas, etas, conv, qfi=False
    )
    assert qfi is None
    assert prob.shape == fid.shape == (len(rs), thetas.size)
    for i, r in enumerate(rs):
        grid_prob, grid_fid, _ = metrics_grid(n, gamma, 0.0, r, thetas, etas, conv)
        assert _same_bits(prob[i].astype(np.complex128), grid_prob)
        assert _same_bits(fid[i].astype(np.complex128), grid_fid)


def _paired_outcomes(p, points, conv):
    """Each point's paired aggregates, or the message of its DegeneracyError.

    A paired evaluation stops at its first undefined point, so the points
    after one go into a new paired call.
    """
    outcomes = []
    while len(outcomes) < len(points):
        rest = points[len(outcomes) :]
        try:
            for values in _paired_complex(p, rest, conv, max_qubits=p.n_qubits):
                outcomes.append(np.array(values).tobytes())
        except DegeneracyError as err:
            outcomes.append(str(err))
    return outcomes


def _scalar_outcomes(p, points, conv):
    """Each point's aggregate_complex, or the message of its DegeneracyError."""
    outcomes = []
    for r, theta, eta in points:
        point = dataclasses.replace(p, r=r, theta=theta, eta=eta, extended_theta=True)
        try:
            values = aggregate_complex(point, conv, max_qubits=p.n_qubits)
        except DegeneracyError as err:
            outcomes.append(str(err))
        else:
            outcomes.append(np.array(values).tobytes())
    return outcomes


_R = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    gamma=st.floats(0.01, math.pi - 0.01),
    phi0=st.floats(0.0, 2 * math.pi),
    points=st.lists(st.tuples(_R, _ANGLE, _ROTATION), min_size=1, max_size=8),
    conv=st.sampled_from(list(Convention)),
)
def test_paired_points_have_the_bits_of_one_point_calls(n, gamma, phi0, points, conv):
    # One paired call of L points gives each point the bits of its own
    # aggregate_complex call, signed zeros included, and raises the same
    # DegeneracyError at the same points.
    p = ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=phi0, theta=0.0, eta=0.0, r=0.0
    )
    assert _paired_outcomes(p, points, conv) == _scalar_outcomes(p, points, conv)


@pytest.mark.parametrize("conv", list(Convention))
def test_a_large_paired_batch_keeps_the_bits_of_each_point(conv):
    # 120 points of 301 classes share one buffer of 36,120 values; each
    # point keeps the bits of its one-point call.
    rng = np.random.default_rng(12)
    points = [
        tuple(map(float, rng.uniform((0.0, 0.5, 0.0), (0.3, 2.5, 2 * math.pi))))
        for _ in range(120)
    ]
    p = ProtocolParams(n_qubits=300, gamma=1.1, phi0=0.3, theta=0.0, eta=0.0, r=0.0)
    assert _paired_outcomes(p, points, conv) == _scalar_outcomes(p, points, conv)


_THETA_WITH_ENDS = st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi]))
_NONZERO_ROTATION = st.floats(1e-3, 2 * math.pi)


class TestRealWhereEveryPhaseIsOne:
    """Where every phase is exactly one, the kernel's real arithmetic has the bits of the complex."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 64),
        gamma=st.floats(0.01, math.pi - 0.01),
        r=_R,
        thetas=st.lists(_THETA_WITH_ENDS, min_size=2, max_size=6),
        zero=st.sampled_from([0.0, -0.0]),
        eta=_NONZERO_ROTATION,
    )
    def test_a_zero_rotation_grid_is_that_column_of_a_complex_grid(
        self, n, gamma, r, thetas, zero, eta
    ):
        # Two or more points, so both grids add their classes in order of k.
        thetas = np.array(thetas)[:, None]
        alone = metrics_grid(n, gamma, 0.0, r, thetas, np.array([[zero]]), Convention.PAPER)
        mixed = metrics_grid(
            n, gamma, 0.0, r, thetas, np.array([[zero, eta]]), Convention.PAPER
        )
        for got, column in zip(alone, mixed):
            column = np.ascontiguousarray(column[:, :1])
            assert got.dtype == np.complex128
            assert got.tobytes() == column.tobytes()
            assert np.all(column.imag[~np.isnan(column)] == 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 64),
        gamma=st.floats(0.01, math.pi - 0.01),
        points=st.lists(st.tuples(_R, _THETA_WITH_ENDS), min_size=1, max_size=6),
        extra=st.tuples(_R, _THETA_WITH_ENDS, _NONZERO_ROTATION),
    )
    def test_a_zero_rotation_batch_keeps_its_bits_beside_a_rotated_point(
        self, n, gamma, points, extra
    ):
        p = ProtocolParams(n_qubits=n, gamma=gamma, phi0=0.0, theta=0.0, eta=0.0, r=0.0)
        points = [(r, theta, 0.0) for r, theta in points]
        alone = _paired_outcomes(p, points, Convention.PAPER)
        mixed = _paired_outcomes(p, points + [extra], Convention.PAPER)
        assert mixed[: len(points)] == alone
        for outcome in alone:
            if isinstance(outcome, bytes):
                assert not np.frombuffer(outcome, dtype=np.complex128).imag.any()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 64),
        gamma=st.floats(0.01, math.pi - 0.01),
        r=_R,
        thetas=st.lists(_THETA_WITH_ENDS, min_size=1, max_size=6),
    )
    def test_the_conventions_agree_bit_for_bit_without_rotation(self, n, gamma, r, thetas):
        grids = [
            metrics_grid(n, gamma, 0.0, r, np.array(thetas), np.zeros(1), conv)
            for conv in Convention
        ]
        for paper, physical in zip(*grids):
            assert paper.tobytes() == physical.tobytes()
        p = ProtocolParams(n_qubits=n, gamma=gamma, phi0=0.0, theta=0.0, eta=0.0, r=0.0)
        points = [(r, theta, 0.0) for theta in thetas]
        paper, physical = (_paired_outcomes(p, points, conv) for conv in Convention)
        assert paper == physical

    @pytest.mark.parametrize("conv", list(Convention))
    def test_the_api_stays_complex_without_rotation(self, conv):
        thetas = np.linspace(0.0, math.pi, 5)
        for grid in metrics_grid(10, 1.1, 0.0, 0.3, thetas, 0.0, conv):
            assert grid.dtype == np.complex128
        values = aggregate_complex(make_params(n_qubits=10, theta=1.2, r=0.3), conv)
        assert all(type(value) is complex for value in values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    gamma=st.floats(0.01, math.pi - 0.01),
    point=st.tuples(_R, _ANGLE, _ROTATION),
    shape=st.sampled_from([(), (1,), (1, 1)]),
    conv=st.sampled_from(list(Convention)),
)
def test_a_one_point_call_of_any_shape_is_the_paired_call(n, gamma, point, shape, conv):
    # A call whose broadcast shape holds one point is the paired call of
    # that point: each field has its bits, signed zeros and NaN included.
    r, theta, eta = point
    one = _aggregates(n, gamma, r, np.full(shape, theta), np.full(shape, eta), conv)
    paired = _aggregates(n, gamma, *(np.array([x]) for x in point), conv, paired=True)
    for got, want in zip(one, paired):
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, rank", [(1, 1), (10, 1), (10, 3), (64, 2)])
def test_class_axis_tables_are_read_only(n, rank):
    # The cached tables are shared by every call at (n, rank), and so are
    # the views of class n alone that a call without the class sum reads.
    axis = _class_axis(n, rank)
    k = np.arange(n + 1, dtype=np.float64)
    expected = (2.0 * k - n, k, n - k, [float(math.comb(n, j)) for j in range(n + 1)])
    for table, values in zip(axis, expected):
        assert table.shape == (n + 1,) + (1,) * rank
        assert table.ravel().tolist() == list(values)
    assert axis.phase_exponents.dtype == np.complex128
    for table in axis + axis.last():
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
    assert axis.last().k.ravel().tolist() == [float(n)]


def _kernel_bits(n, gamma, point, conv):
    """The bits of a paired, a grid and a no-class-sum grid kernel call at n."""
    r, theta, eta = point
    paired = _aggregates(n, gamma, *(np.array([x]) for x in point), conv, paired=True)
    thetas = np.array([theta, 0.5 * theta + 0.1, math.pi - theta])[:, None]
    etas = np.array([eta, 0.0, 2.0 * math.pi - eta, 1.0])[None, :]
    grid = metrics_grid(n, gamma, 0.0, r, thetas, etas, conv)
    no_sum = _aggregates(n, gamma, r, thetas, etas, conv, qfi=False)[:2]
    return [z.tobytes() for z in paired + grid + no_sum]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ns=st.lists(st.integers(1, 64), min_size=2, max_size=4),
    gamma=st.floats(0.01, math.pi - 0.01),
    point=st.tuples(_R, _ANGLE, _ROTATION),
    conv=st.sampled_from(list(Convention)),
)
def test_a_warm_class_axis_cache_keeps_the_bits_of_a_cleared_one(ns, gamma, point, conv):
    # Each call gives the same bits whether its class-axis tables were just
    # built or come from the cache, also right after a call at another n.
    cold = {}
    for n in ns:
        _class_axis.cache_clear()
        cold[n] = _kernel_bits(n, gamma, point, conv)
    _class_axis.cache_clear()
    for _ in range(2):  # the first pass fills the cache, the second reads it
        for n in ns:
            assert _kernel_bits(n, gamma, point, conv) == cold[n]


#: Grid sizes of the field property: a single point, which is the paired
#: call of one point, and two grids, which take one class a block.
_GRID_SIZES = [(1, 1), (2, 4), (129, 130)]
#: The (theta, eta) ranges of a first search grid.
_FULL_RANGES = ((0.0, math.pi), (0.0, 2 * math.pi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 200),
    gamma=st.floats(0.01, math.pi - 0.01),
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.4, 1.0])),
    size=st.sampled_from(_GRID_SIZES),
    # The full ranges reach the cutoffs.  The windows inside them avoid
    # theta = 0 and pi, and the narrow one also Re e^(-2i eta) < 0, like a
    # refined search window: there the kernel skips the probability's mask
    # and the |A+B| masks of classes a bound clears.
    windows=st.sampled_from(
        [
            _FULL_RANGES,
            ((0.3, 2.8), (0.0, 2 * math.pi)),
            ((1.2, 1.5), (0.1, 0.3)),
        ]
    ),
    conv=st.sampled_from(list(Convention)),
)
def test_each_computed_field_has_the_bits_of_the_full_grid(
    n, gamma, r, size, windows, conv
):
    # Whatever fields a caller asks for, each one computed is metrics_grid's
    # field bit for bit, NaN included, and each one skipped is None.  The
    # kernel's fields are real where every phase is one, and metrics_grid
    # casts them to complex.
    theta_window, eta_window = windows
    thetas = np.linspace(*theta_window, size[0])[:, None]
    etas = np.linspace(*eta_window, size[1])[None, :]
    assert size[0] * size[1] in (1, 8) or size[0] * size[1] > 1 << 14
    full = metrics_grid(n, gamma, 0.0, r, thetas, etas, conv)
    for probability, fidelity, qfi in itertools.product((False, True), repeat=3):
        part = _aggregates(
            n, gamma, r, thetas, etas, conv,
            probability=probability, fidelity=fidelity, qfi=qfi,
        )
        for want, got, expected in zip((probability, fidelity, qfi), part, full):
            if want:
                assert _same_bits(got.astype(np.complex128), expected)
            else:
                assert got is None


#: (grid size, least N, windows) of the block property: a large grid over
#: the full ranges and over a narrow window, and a 25x40 grid from N = 32.
_BLOCK_CASES = [
    ((129, 130), 1, _FULL_RANGES),
    ((129, 130), 1, ((1.2, 1.5), (0.1, 0.3))),
    ((25, 40), 32, _FULL_RANGES),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(_BLOCK_CASES),
    data=st.data(),
    gamma=st.floats(0.01, math.pi - 0.01),
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    conv=st.sampled_from(list(Convention)),
)
def test_a_class_per_block_sums_as_all_classes_in_one_block(case, data, gamma, r, conv):
    # A grid of two points or more takes one class a block, in place, and
    # skips the |A+B| masks of the classes a bound clears (in the narrow
    # window, at small N).  The whole grid and each row of 130 or 40
    # points add the classes in the same order, so the whole grid has,
    # row by row, the bits of the rows evaluated one at a time.
    size, n_min, (theta_window, eta_window) = case
    n = data.draw(st.integers(n_min, 200), label="n")
    thetas = np.linspace(*theta_window, size[0])[:, None]
    etas = np.linspace(*eta_window, size[1])[None, :]
    whole = metrics_grid(n, gamma, 0.0, r, thetas, etas, conv)[2]
    for i in range(thetas.shape[0]):
        row = metrics_grid(n, gamma, 0.0, r, thetas[i : i + 1], etas, conv)[2]
        assert _same_bits(whole[i : i + 1], row)


def _class_term_sum(p: ProtocolParams, conv: Convention) -> float:
    """Sum over k of |C(n,k) 4 n^2 |C|^2 / (A_k + B_k)|, zero populations left out."""
    n, rows = p.n_qubits, _class_rows(p, conv)
    sizes = np.abs(rows.a + rows.b)
    return sum(
        math.comb(n, k) * 4.0 * n * n * rows.c_abs**2 / size
        for k, size in enumerate(sizes.tolist())
        if size > 0.0
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 64),
    gamma=st.floats(0.01, math.pi - 0.01),
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.4, 1.0])),
    thetas=st.lists(_ANGLE, min_size=2, max_size=4),
    etas=st.lists(_ROTATION, min_size=1, max_size=4),
    conv=st.sampled_from(list(Convention)),
)
def test_scalar_path_matches_a_multi_point_grid(n, gamma, r, thetas, etas, conv):
    # The scalar path's probability and fidelity are the grid's bit for
    # bit, and it raises exactly where the grid holds NaN.  Its QFI may
    # differ in the last bits: the scalar path sums the class axis
    # pairwise, a larger grid in order of k.  Either sum is within
    # (n+1) 2^-53 times the sum of the terms' moduli of the exact one, per
    # component, so the two are within twice that.
    prob, fid, qfi = metrics_grid(
        n, gamma, 0.0, r, np.array(thetas)[:, None], np.array(etas)[None, :], conv
    )
    for i, j in np.ndindex(prob.shape):
        p = ProtocolParams(
            n_qubits=n, gamma=gamma, phi0=0.0, theta=thetas[i], eta=etas[j], r=r,
            extended_theta=True,
        )
        undefined = np.isnan(prob[i, j]) or np.isnan(qfi[i, j])
        try:
            total, fidelity, information = aggregate_complex(p, conv)
        except DegeneracyError:
            assert undefined
            continue
        assert not undefined
        scalar = np.array([total, fidelity]).tobytes()
        assert scalar == np.array([prob[i, j], fid[i, j]]).tobytes()
        gap = information - complex(qfi[i, j])
        if gap:
            bound = 2.0 * (n + 1) * 2.0**-53 * _class_term_sum(p, conv)
            assert abs(gap.real) <= bound and abs(gap.imag) <= bound


#: The paper convention's closed-form pole at r = 0.2 (TestClassRows).
_POLE_R = 0.2
_POLE_THETA = 2.0 * math.atan((1.0 - _POLE_R) ** -0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(n=10, gamma=math.pi / 2, theta=_POLE_THETA, eta=7 * math.pi / 4, r=_POLE_R,
         conv=Convention.PAPER)
@example(n=6, gamma=_NEAR_CANCELLED.gamma, theta=_NEAR_CANCELLED.theta,
         eta=_NEAR_CANCELLED.eta, r=_NEAR_CANCELLED.r, conv=Convention.PAPER)
@given(
    n=st.integers(1, 64),
    gamma=st.floats(0.01, math.pi - 0.01),
    theta=_ANGLE,
    eta=_ROTATION,
    r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    conv=st.sampled_from(list(Convention)),
)
def test_the_class_rows_are_the_terms_of_the_one_point_call(n, gamma, theta, eta, r, conv):
    # The class terms reduce to the bits of the one-point QFI wherever
    # that call returns, and hold a NaN exactly where it raises for a
    # class pole.  Where the total weight vanishes it raises first.
    p = ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=0.0, theta=theta, eta=eta, r=r, extended_theta=True
    )
    terms = _class_rows(p, conv).terms
    try:
        _, _, qfi = aggregate_complex(p, conv)
    except DegeneracyError as exc:
        if "total record weight" not in str(exc):
            assert "vanishing corner populations" in str(exc)
            assert np.isnan(terms).any()
        return
    assert not np.isnan(terms).any()
    assert np.add.reduce(terms).tobytes() == np.complex128(qfi).tobytes()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    re=st.floats(allow_nan=False, allow_infinity=False),
    im=st.floats(allow_nan=False, allow_infinity=False),
)
def test_complex_modulus_is_at_least_each_part(re, im):
    # The class screen bounds |A+B| from below through its parts.
    z = np.array([complex(re, im)])
    with np.errstate(over="ignore"):
        assert np.abs(z)[0] >= max(abs(re), abs(im))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 300),
    gamma=st.floats(0.01, math.pi - 0.01),
    theta=st.floats(0.0, math.pi),
    r=st.floats(0.0, 1.0),
)
def test_physical_qfi_matches_a_50_digit_class_sum(n, gamma, theta, r):
    # Under the physical convention no class cancels, so every class with
    # a normal |C|^2 counts, at any N.
    c_sq = (
        mpmath.mpf(math.sin(gamma / 2) ** 2 * math.cos(gamma / 2) ** 2)
        * mpmath.mpf(math.sin(theta) ** 2 / 4 * (1.0 - r)) ** n
    )
    assume(c_sq >= 1e-290)
    p = ProtocolParams(
        n_qubits=n, gamma=gamma, phi0=0.0, theta=theta, eta=0.0, r=r,
        extended_theta=True,
    )
    got = aggregate_metrics(p, Convention.PHYSICAL, max_qubits=300).qfi
    want = class_sum_oracle(n, gamma, theta, 0.0, r, Convention.PHYSICAL).real
    assert abs(got - want) <= 1e-12 * want
