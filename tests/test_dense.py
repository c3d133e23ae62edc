"""Tests for the dense reference implementation.

Frozen branch states were evaluated by hand from the per-qubit operator
chain; structural invariants (trace preservation, positivity, permutation
symmetry, rotation-angle independence) are exercised over seeded random
parameter draws.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzprotect import dense
from ghzprotect.dense import (
    DENSE_MAX_QUBITS,
    BranchRun,
    aggregate_metrics_dense,
    do_nothing_baseline,
    fidelity_pure,
    ghz_state,
    ghz_vector,
    phase_imprint,
    qfi_general,
    run_all_branches,
    run_protocol_average,
    run_protocol_branch,
)
from ghzprotect.operators import adc_kraus, flip_op, rotation_op, weak_meas_op
from ghzprotect.params import (
    DEGENERACY_TOL,
    Convention,
    DegeneracyError,
    Engine,
    MetricsRow,
    ProtocolParams,
    class_cutoffs,
)
from ghzprotect.structured import aggregate_metrics, branch_elements


def make_params(**overrides):
    base = dict(
        n_qubits=2,
        gamma=math.pi / 2,
        phi0=0.0,
        theta=math.pi / 4,
        eta=0.7,
        r=0.25,
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


def permute_qubits(rho, perm):
    """Conjugate a density matrix by a qubit permutation."""
    n = len(perm)
    tensor = rho.reshape((2,) * (2 * n))
    axes = list(perm) + [n + q for q in perm]
    return tensor.transpose(axes).reshape(2**n, 2**n)


class TestGhzState:
    def test_single_qubit_frozen(self):
        rho = ghz_state(1, math.pi / 2, math.pi / 2)
        expected = np.array(
            [[0.5, -0.5j], [0.5j, 0.5]], dtype=np.complex128
        )
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_corners_only(self):
        rho = ghz_state(3, 1.1, 0.4)
        alpha = math.cos(0.55)
        beta = math.sin(0.55) * np.exp(0.4j)
        np.testing.assert_allclose(rho[0, 0], abs(alpha) ** 2, atol=1e-15)
        np.testing.assert_allclose(rho[-1, -1], abs(beta) ** 2, atol=1e-15)
        np.testing.assert_allclose(rho[0, -1], alpha * np.conj(beta), atol=1e-15)
        np.testing.assert_allclose(rho[-1, 0], np.conj(alpha) * beta, atol=1e-15)
        rho[0, 0] = rho[-1, -1] = rho[0, -1] = rho[-1, 0] = 0.0
        np.testing.assert_allclose(rho, 0.0, atol=1e-15)

    def test_unit_trace_and_purity(self):
        rho = ghz_state(4, 2.0, 1.3)
        assert rho.shape == (16, 16)
        np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)

    def test_vector_matches_outer_product(self):
        psi = ghz_vector(2, 1.0, 0.5)
        np.testing.assert_allclose(
            ghz_state(2, 1.0, 0.5), np.outer(psi, psi.conj()), atol=1e-15
        )


class TestRunProtocolBranch:
    def test_single_qubit_frozen_branch(self):
        # N=1, record "0", theta=pi/2, r=1/2, eta=0, balanced real input:
        # no-measurement limit halves the weight, damping moves half of the
        # excited population down and scales the coherence by sqrt(1/2).
        p = make_params(
            n_qubits=1, theta=math.pi / 2, r=0.5, eta=0.0, phi0=0.0
        )
        run = run_protocol_branch(p, "0", Convention.PHYSICAL)
        corner = math.sqrt(0.5) / 4.0
        expected = np.array(
            [[3.0 / 8.0, corner], [corner, 1.0 / 8.0]], dtype=np.complex128
        )
        np.testing.assert_allclose(run.rho, expected, atol=1e-15)
        np.testing.assert_allclose(run.probability, 0.5, atol=1e-15)

    def test_state_trace_equals_probability(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_params(rng, 2)
            for conv in Convention:
                run = run_protocol_branch(p, "01", conv)
                np.testing.assert_allclose(
                    np.trace(run.rho), run.probability, atol=1e-14
                )

    def test_branch_probabilities_sum_to_one_physical(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            for _ in range(10):
                p = random_params(rng, n)
                branches = run_all_branches(p, Convention.PHYSICAL)
                total = sum(b.probability for b in branches)
                np.testing.assert_allclose(
                    total, 1.0, atol=1e-10,
                    err_msg=f"record weights must sum to 1, params {p}",
                )

    def test_branches_positive_semidefinite_physical(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_params(rng, 3)
            for b in run_all_branches(p, Convention.PHYSICAL):
                eigs = np.linalg.eigvalsh(b.rho)
                assert eigs.min() >= -1e-12, (
                    f"branch {b.pattern} not PSD: min eig {eigs.min()}"
                )

    def test_physical_probability_and_qfi_eta_independent(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            p0 = random_params(rng, 3, eta=0.0)
            p1 = ProtocolParams(
                n_qubits=p0.n_qubits, gamma=p0.gamma, phi0=p0.phi0,
                theta=p0.theta, eta=2.1, r=p0.r,
            )
            m0 = aggregate_metrics_dense(p0, Convention.PHYSICAL)
            m1 = aggregate_metrics_dense(p1, Convention.PHYSICAL)
            np.testing.assert_allclose(m0.probability, m1.probability, atol=1e-12)
            np.testing.assert_allclose(m0.qfi, m1.qfi, atol=1e-12)
            # Fidelity is the one eta-dependent physical metric (its corner
            # cross-term scales by cos^N eta) and peaks at eta = 0.
            assert m0.fidelity >= m1.fidelity - 1e-12

    def test_permutation_symmetry_equal_k_records(self):
        p = make_params(n_qubits=3, eta=1.3)
        for conv in Convention:
            base = run_protocol_branch(p, "011", conv)
            for pattern, perm in [("101", (1, 0, 2)), ("110", (2, 1, 0))]:
                other = run_protocol_branch(p, pattern, conv)
                np.testing.assert_allclose(
                    other.probability, base.probability, atol=1e-12
                )
                np.testing.assert_allclose(
                    permute_qubits(other.rho, perm),
                    base.rho,
                    atol=1e-12,
                    err_msg=f"record {pattern} is not a relabeling of 011",
                )

    def test_branch_order_and_count(self):
        p = make_params(n_qubits=2)
        branches = run_all_branches(p, Convention.PHYSICAL)
        assert [b.pattern for b in branches] == ["00", "01", "10", "11"]

    def test_pattern_validation(self):
        p = make_params(n_qubits=2)
        with pytest.raises(ValueError, match="pattern"):
            run_protocol_branch(p, "012", Convention.PHYSICAL)
        with pytest.raises(ValueError, match="pattern"):
            run_protocol_branch(p, "0", Convention.PHYSICAL)

    def test_qubit_ceiling(self):
        p = make_params(n_qubits=DENSE_MAX_QUBITS + 1)
        with pytest.raises(ValueError, match="exceeds"):
            run_protocol_branch(p, "0" * (DENSE_MAX_QUBITS + 1), Convention.PHYSICAL)


def record_on_its_own(p, pattern, convention):
    """One record evolved from the input alone, site by site (the reference).

    The per-record loop the prefix-tree walk replaced: every site's Kraus
    operators are lifted afresh and the rotation chain is built after the
    damping, so nothing is shared between records.
    """
    n = p.n_qubits
    bits = [int(ch) for ch in pattern]
    rho = ghz_state(n, p.gamma, p.phi0)
    e0, e1 = adc_kraus(p.r)
    for site, o in enumerate(bits):
        m = weak_meas_op(o, p.theta)
        f = flip_op(o)
        left = np.eye(2**site, dtype=np.complex128)
        right = np.eye(2 ** (n - site - 1), dtype=np.complex128)
        kraus = [np.kron(np.kron(left, f @ e @ f @ m), right) for e in (e0, e1)]
        rho = sum(k @ rho @ k.conj().T for k in kraus)

    rot = np.eye(1, dtype=np.complex128)
    for o in bits:
        rot = np.kron(rot, rotation_op(o, p.eta))
    if convention is Convention.PHYSICAL:
        rho = rot @ rho @ rot.conj().T
    else:
        rho = rot @ rho @ rot
    return BranchRun(pattern, complex(np.trace(rho)), rho)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegeneracyError as exc:
        return f"DegeneracyError: {exc}"


#: Rounding bound of a reading that differs from the matrix products, relative
#: to the magnitudes that reading sums (the worst measured is 3.5e-15).
ROUNDING = 1e-14


def assert_same_branch(got, want, eta):
    """The state has the matrix products' bits; its trace their rounding.

    The trace is read off the elementwise rotation: at eta = 0 the rotation
    is exact and the trace has the bits of np.trace.
    """
    assert got.pattern == want.pattern
    assert got.rho.tobytes() == want.rho.tobytes()
    if eta == 0.0:
        assert got.probability == want.probability
    else:
        scale = np.abs(np.diag(want.rho)).sum()
        assert abs(got.probability - want.probability) <= ROUNDING * scale


def reference_row(records, p, convention):
    """The record-averaged row read off the records' matrices, and its scales.

    Traces, <psi|rho|psi> by matrix products and the corners, summed in
    record order; an undefined row is the start of its error.  Each scale
    sums the magnitudes a field's rounding is relative to, so a total that
    has cancelled (paper convention) gives a large one.
    """
    n = p.n_qubits
    psi = ghz_vector(n, p.gamma, p.phi0)
    total = sum(rec.probability for rec in records)
    if abs(total) < DEGENERACY_TOL:
        return "DegeneracyError: total branch weight ", None
    fid = sum(complex(psi.conj() @ rec.rho @ psi) for rec in records) / total
    qfi, qfi_scale = 0j, 0.0
    for rec in records:
        denom, c = rec.rho[0, 0] + rec.rho[-1, -1], rec.rho[0, -1]
        pole_below, drop_below = class_cutoffs(abs(c))
        if abs(denom) < pole_below:
            return f"DegeneracyError: branch {rec.pattern} ", None
        if abs(denom) >= drop_below:
            term = 4.0 * abs(c) ** 2 * n**2 / denom
            qfi, qfi_scale = qfi + term, qfi_scale + abs(term)
    corners = np.ix_([0, -1], [0, -1])
    amplitudes = np.abs(psi[[0, -1]])
    p_scale = sum(np.abs(np.diag(rec.rho)).sum() for rec in records)
    f_scale = sum(amplitudes @ np.abs(rec.rho[corners]) @ amplitudes for rec in records)
    row = MetricsRow.realized(
        (p.r, p.theta, p.eta), (total, fid, qfi), convention, Engine.DENSE
    )
    scales = {
        "probability": p_scale,
        "fidelity": (f_scale + abs(fid) * p_scale) / abs(total),
        "qfi": qfi_scale,
    }
    return row, scales


def assert_rows_agree(got, want, scales):
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), (got, want)
        return
    for name, scale in scales.items():
        assert abs(getattr(got, name) - getattr(want, name)) <= ROUNDING * scale, name
    assert abs(got.imag_residual - want.imag_residual) <= ROUNDING * max(scales.values())
    assert (got.r, got.theta, got.eta) == (want.r, want.theta, want.eta)


def signed_zero_examples(test):
    """Add the points where Kraus entries are exactly 0 as explicit examples.

    At theta in {0, pi} a measurement entry vanishes and at r in {0, 1} a
    damping entry does, so an elementwise product could leave a -0 where
    the matrix product writes +0.
    """
    for n, theta, r, convention in itertools.product(
        (1, 6), (0.0, math.pi), (0.0, 1.0), Convention
    ):
        test = example(
            n=n, gamma=1.1, phi0=0.7, theta=theta, eta=0.0, r=r,
            convention=convention, record=2**n - 1,
        )(test)
    return test


class TestPrefixTree:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @signed_zero_examples
    @given(
        n=st.integers(1, 6),
        gamma=st.floats(0.01, math.pi - 0.01),
        phi0=st.floats(0.0, 2 * math.pi),
        theta=st.floats(0.0, math.pi),
        eta=st.floats(0.0, 2 * math.pi),
        r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
        convention=st.sampled_from(Convention),
        record=st.integers(0, 2**6 - 1),
    )
    def test_every_output_has_the_bits_of_records_evolved_alone(
        self, n, gamma, phi0, theta, eta, r, convention, record
    ):
        p = ProtocolParams(
            n_qubits=n, gamma=gamma, phi0=phi0, theta=theta, eta=eta, r=r,
            extended_theta=True,
        )
        patterns = [format(idx, f"0{n}b") for idx in range(2**n)]
        reference = [record_on_its_own(p, pat, convention) for pat in patterns]

        branches = run_all_branches(p, convention)
        assert [b.pattern for b in branches] == patterns
        for got, want in zip(branches, reference):
            assert_same_branch(got, want, eta)
        pattern = patterns[record % 2**n]
        assert_same_branch(
            run_protocol_branch(p, pattern, convention),
            reference[record % 2**n],
            eta,
        )

        assert_rows_agree(
            outcome(aggregate_metrics_dense, p, convention),
            *reference_row(reference, p, convention),
        )

        # The branch matrices have the reference's bits, so the average has
        # the bits of their sum over the engine's total.
        average = outcome(run_protocol_average, p, convention)
        want_total = sum(rec.probability for rec in reference)
        if isinstance(average, str):
            assert abs(want_total) < DEGENERACY_TOL
        else:
            scale = sum(np.abs(np.diag(rec.rho)).sum() for rec in reference)
            assert abs(average[1] - want_total) <= ROUNDING * scale
            if eta == 0.0:
                assert average[1] == want_total
            want_average = sum(rec.rho for rec in reference) / average[1]
            assert average[0].tobytes() == want_average.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_each_site_and_bit_is_lifted_once(self, monkeypatch, n):
        lifts = []

        def counting_lift(op, site, n_qubits):
            lifts.append((site, n_qubits))
            return original(op, site, n_qubits)

        original = dense._lift
        monkeypatch.setattr(dense, "_lift", counting_lift)
        p = make_params(n_qubits=n)
        run_all_branches(p, Convention.PAPER)
        assert len(lifts) == 4 * n  # N 2^(N+1) when each record lifted its own
        lifts.clear()
        run_protocol_branch(p, "1" * n, Convention.PAPER)
        assert len(lifts) == 2 * n


class TestStoredEntries:
    def test_a_kraus_term_that_leaves_the_stored_entries_raises_naming_the_site(
        self, monkeypatch
    ):
        # An anti-diagonal measurement has one nonzero per row, so it lifts,
        # but it moves the corner coherence off the corners.
        def swapping(outcome, theta):
            return np.array([[0.0, 0.6], [0.8, 0.0]], dtype=np.complex128)

        monkeypatch.setattr(dense, "weak_meas_op", swapping)
        with pytest.raises(ValueError, match="site 0"):
            run_all_branches(make_params(n_qubits=3), Convention.PHYSICAL)

    def test_a_branch_state_has_the_diagonal_and_the_corners(self):
        p = make_params(n_qubits=4, theta=1.1, r=0.4, eta=0.9)
        for b in run_all_branches(p, Convention.PAPER):
            off_diagonal = b.rho - np.diag(np.diag(b.rho))
            off_diagonal[0, -1] = off_diagonal[-1, 0] = 0.0
            assert not off_diagonal.any()
            assert b.rho[0, -1] != 0

    def test_matrices_are_built_up_to_six_qubits(self):
        p = make_params(n_qubits=7)
        run = run_protocol_branch(p, "0110100", Convention.PHYSICAL)
        assert run.probability.real > 0
        with pytest.raises(ValueError, match="up to 6 qubits"):
            run.rho
        with pytest.raises(ValueError, match="exceeds the configured maximum 6"):
            run_protocol_average(p, Convention.PHYSICAL)
        six = run_protocol_branch(make_params(n_qubits=6), "011010", Convention.PHYSICAL)
        assert six.rho.shape == (64, 64)

    def test_ten_qubits_stay_under_150_mb(self):
        p = make_params(n_qubits=10, theta=1.1, r=0.4)
        tracemalloc.start()
        try:
            aggregate_metrics_dense(p, Convention.PAPER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6


def cancelled_class_gamma(n, k, theta, r, eta):
    """The input angle at which class k's corner populations cancel under the paper convention.

    The rotation turns A and B by opposite phases e^(+-i eta (2k - n)), a
    quarter turn each at this eta, so A + B cancels where |A| = |B|;
    bisection on gamma finds that point.
    """
    def gap(gamma):
        p = ProtocolParams(n_qubits=n, gamma=gamma, phi0=0.0, theta=theta, eta=eta, r=r)
        e = branch_elements(p, k, Convention.PAPER)
        return abs(e.A) - abs(e.B)

    lo, hi = 1e-6, math.pi - 1e-6
    assert gap(lo) * gap(hi) < 0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if gap(lo) * gap(mid) <= 0 else (mid, hi)
    return lo


class TestArbiterAtLargeRegisters:
    """The dense engine checks the structured engine above N = 6."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @example(n=10, gamma=1.1, phi0=0.7, theta=0.9, eta=2.3, r=0.35)
    @example(n=10, gamma=2.9, phi0=0.0, theta=math.pi, eta=0.0, r=1.0)
    @given(
        n=st.integers(7, DENSE_MAX_QUBITS),
        gamma=st.floats(0.01, math.pi - 0.01),
        phi0=st.floats(0.0, 2 * math.pi),
        theta=st.floats(0.0, math.pi),
        eta=st.floats(0.0, 2 * math.pi),
        r=st.floats(0.0, 1.0),
    )
    def test_physical_rows_agree_with_the_structured_engine(
        self, n, gamma, phi0, theta, eta, r
    ):
        p = ProtocolParams(
            n_qubits=n, gamma=gamma, phi0=phi0, theta=theta, eta=eta, r=r,
            extended_theta=True,
        )
        got = aggregate_metrics_dense(p, Convention.PHYSICAL)
        want = aggregate_metrics(p, Convention.PHYSICAL)
        for name in ("probability", "fidelity", "qfi"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12, abs=0.0
            ), name

    @pytest.mark.parametrize(
        "n, k, theta, r",
        [(7, 2, 1.2, 0.3), (8, 3, 0.9, 0.5), (9, 3, 1.0, 0.2), (10, 7, 0.7, 0.1)],
    )
    def test_cancelled_corner_populations_raise_in_both_engines(self, n, k, theta, r):
        eta = math.pi / (2 * abs(2 * k - n))
        gamma = cancelled_class_gamma(n, k, theta, r, eta)
        p = ProtocolParams(n_qubits=n, gamma=gamma, phi0=0.0, theta=theta, eta=eta, r=r)
        first = format(2 ** (n - k) - 1, f"0{n}b")  # the class's first record
        with pytest.raises(DegeneracyError, match=f"branch {first} has vanishing corner"):
            aggregate_metrics_dense(p, Convention.PAPER)
        with pytest.raises(DegeneracyError, match="vanishing corner populations"):
            aggregate_metrics(p, Convention.PAPER)

    @pytest.mark.parametrize("n", [7, 10])
    def test_a_cancelled_total_weight_raises_in_both_engines(self, n):
        # Undamped and unmeasured, the paper convention's total weight is
        # cos(eta)^N: zero at a quarter turn.
        p = ProtocolParams(
            n_qubits=n, gamma=1.1, phi0=0.3, theta=math.pi / 2, eta=math.pi / 2, r=0.0
        )
        with pytest.raises(DegeneracyError, match="total branch weight"):
            aggregate_metrics_dense(p, Convention.PAPER)
        with pytest.raises(DegeneracyError, match="total record weight"):
            aggregate_metrics(p, Convention.PAPER)


class TestLift:
    @pytest.mark.parametrize(
        "op",
        [
            [[0.6, 0.0], [0.0, 0.8]],
            [[0.0, 0.0], [0.0, 0.8]],
            [[0.0, 0.5], [0.0, 0.0]],
            [[0.0, 0.0], [0.5, 0.0]],
            [[0.0, 0.3], [0.4, 0.0]],
            [[0.0, 0.3], [0.0, 0.4]],
            [[0.0, 0.0], [0.0, 0.0]],
        ],
    )
    @pytest.mark.parametrize("site", [0, 1, 2])
    def test_the_entries_are_the_kronecker_embedding(self, op, site):
        op = np.array(op, dtype=np.complex128)
        n = 3
        left = np.eye(2**site, dtype=np.complex128)
        right = np.eye(2 ** (n - site - 1), dtype=np.complex128)
        src, coef = dense._lift(op, site, n)
        got = np.zeros((2**n, 2**n), dtype=np.complex128)
        got[np.arange(2**n), src] = coef  # row i holds coef[i] in column src[i]
        assert np.array_equal(got, np.kron(np.kron(left, op), right))

    @pytest.mark.parametrize(
        "op", [[[0.6, 0.1], [0.0, 0.8]], [[0.6, 0.0], [0.1, 0.8]]]
    )
    def test_two_entries_in_a_row_raise_naming_the_site(self, op):
        op = np.array(op, dtype=np.complex128)
        with pytest.raises(ValueError, match="site 2"):
            dense._lift(op, 2, 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        theta=st.one_of(
            st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])
        ),
        r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
        o=st.sampled_from((0, 1)),
    )
    def test_site_operators_are_diagonal_or_one_entry(self, theta, r, o):
        p = make_params(n_qubits=2, theta=theta, r=r, extended_theta=True)
        ops = dense._kraus_ops(p, o, adc_kraus(r))
        assert len(ops) == 2
        for op in ops:
            diagonal = op[0, 1] == 0 and op[1, 0] == 0
            assert diagonal or np.count_nonzero(op) <= 1, op


class TestRunProtocolAverage:
    def test_normalized_output_physical(self):
        p = make_params(n_qubits=3, eta=2.2)
        rho, total = run_protocol_average(p, Convention.PHYSICAL)
        assert rho.shape == (8, 8)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-12)

    def test_degenerate_total_weight_raises(self):
        # Two-sided multiplication puts a zero of the total weight at
        # theta=pi/2, eta=pi/2 for an undamped register.
        p = make_params(n_qubits=2, theta=math.pi / 2, eta=math.pi / 2, r=0.0)
        with pytest.raises(DegeneracyError, match="vanishes"):
            run_protocol_average(p, Convention.PAPER)


def qfi_loop(state_at, phi0, step=1e-5):
    """qfi_general as an explicit double loop over eigenpairs (the reference)."""
    rho = np.asarray(state_at(phi0), dtype=np.complex128)
    rho = (rho + rho.conj().T) / 2.0
    drho = (
        np.asarray(state_at(phi0 + step), dtype=np.complex128)
        - np.asarray(state_at(phi0 - step), dtype=np.complex128)
    ) / (2.0 * step)
    vals, vecs = np.linalg.eigh(rho)
    d_in_eig = vecs.conj().T @ drho @ vecs
    fisher = 0.0
    for i in range(len(vals)):
        for j in range(len(vals)):
            denom = vals[i] + vals[j]
            if denom > 1e-10:
                fisher += 2.0 * abs(d_in_eig[i, j]) ** 2 / denom
    return fisher


def qfi_test_states():
    states = [ghz_state(n, math.pi / 2, 0.3) for n in (1, 2, 3)]
    states.append(ghz_state(2, math.pi / 3, 0.0))
    states.append(np.diag([0.3, 0.2, 0.1, 0.4]).astype(np.complex128))
    p = make_params(n_qubits=3, gamma=1.1, phi0=0.4, r=0.3)
    for b in run_all_branches(p, Convention.PHYSICAL):
        states.append(b.rho / b.probability.real)
    return states


class TestQfiGeneral:
    @pytest.mark.parametrize("rho", qfi_test_states())
    def test_matches_the_eigenpair_loop(self, rho):
        def family(d):
            return phase_imprint(rho, d)

        want = qfi_loop(family, 0.0)
        assert abs(qfi_general(family, 0.0) - want) <= 1e-12 * want

    def test_pure_balanced_state_rate_n(self):
        # Collective-phase information of a pure balanced superposition is
        # exactly N^2.
        for n in (1, 2, 3):
            rho = ghz_state(n, math.pi / 2, 0.3)
            fisher = qfi_general(lambda d, rho=rho: phase_imprint(rho, d), 0.0)
            np.testing.assert_allclose(fisher, n**2, rtol=1e-6)

    def test_pure_unbalanced_state(self):
        # 4 |alpha|^2 |beta|^2 N^2 with |alpha|^2 = 3/4.
        rho = ghz_state(2, math.pi / 3, 0.0)
        fisher = qfi_general(lambda d: phase_imprint(rho, d), 0.0)
        np.testing.assert_allclose(fisher, 4 * 0.75 * 0.25 * 4, rtol=1e-6)

    def test_diagonal_state_carries_no_information(self):
        rho = np.diag([0.3, 0.2, 0.1, 0.4]).astype(np.complex128)
        fisher = qfi_general(lambda d: phase_imprint(rho, d), 0.0)
        np.testing.assert_allclose(fisher, 0.0, atol=1e-10)

    def test_step_domain(self):
        rho = ghz_state(1, math.pi / 2, 0.0)
        family = lambda d: phase_imprint(rho, d)  # noqa: E731
        with pytest.raises(ValueError, match="step"):
            qfi_general(family, 0.0, step=1e-8)
        with pytest.raises(ValueError, match="step"):
            qfi_general(family, 0.0, step=1e-2)


class TestFidelityPure:
    def test_perfect_overlap(self):
        psi = ghz_vector(2, math.pi / 2, 0.9)
        rho = np.outer(psi, psi.conj())
        assert fidelity_pure(psi, rho) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        psi = np.array([1, 0, 0, 0], dtype=np.complex128)
        rho = np.diag([0, 1, 0, 0]).astype(np.complex128)
        assert fidelity_pure(psi, rho) == 0.0

    def test_clipping(self):
        psi = np.array([1.0, 0.0], dtype=np.complex128)
        rho = np.diag([1.0 + 1e-13, 0.0]).astype(np.complex128)
        assert fidelity_pure(psi, rho) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            fidelity_pure(np.zeros(2), np.eye(4))


class TestDoNothingBaseline:
    def test_no_damping_is_lossless(self):
        p = make_params(n_qubits=4, r=0.0)
        row = do_nothing_baseline(p)
        assert row.probability == 1.0
        np.testing.assert_allclose(row.fidelity, 1.0, atol=1e-14)
        np.testing.assert_allclose(row.qfi, 16.0, atol=1e-12)

    def test_full_damping(self):
        p = make_params(n_qubits=3, gamma=1.1, r=1.0)
        row = do_nothing_baseline(p)
        np.testing.assert_allclose(row.fidelity, math.cos(0.55) ** 2, atol=1e-14)
        np.testing.assert_allclose(row.qfi, 0.0, atol=1e-14)

    def test_frozen_values_n10(self):
        p = make_params(n_qubits=10, r=0.3)
        row = do_nothing_baseline(p)
        np.testing.assert_allclose(row.fidelity, 0.34109835745, atol=1e-12)
        np.testing.assert_allclose(row.qfi, 5.494272925594667, atol=1e-11)

    def test_matches_dense_damping(self):
        # Independent check: evolve the full matrix through the bare
        # channel and compare corner metrics.
        from ghzprotect.operators import adc_kraus

        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_params(rng, n)
            rho = ghz_state(n, p.gamma, p.phi0)
            e0, e1 = adc_kraus(p.r)
            for site in range(n):
                left = np.eye(2**site, dtype=np.complex128)
                right = np.eye(2 ** (n - site - 1), dtype=np.complex128)
                ks = [np.kron(np.kron(left, e), right) for e in (e0, e1)]
                rho = sum(k @ rho @ k.conj().T for k in ks)
            psi = ghz_vector(n, p.gamma, p.phi0)
            fid = float(np.real(psi.conj() @ rho @ psi))
            qfi = qfi_general(lambda d, rho=rho: phase_imprint(rho, d), 0.0)

            row = do_nothing_baseline(p)
            np.testing.assert_allclose(row.fidelity, fid, atol=1e-10)
            np.testing.assert_allclose(row.qfi, qfi, rtol=2e-6, atol=1e-9)
