"""Tests for the closed-form aggregate evaluators.

Frozen values come from hand evaluation of the printed expressions; the
structured engine's paper-convention aggregates, the appendix's per-class
sums, are reconciled against the verbatim forms, including the one known
point where the two formula families deliberately disagree.
"""

import ast
import cmath
import math
import struct
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ghzprotect import closedform
from ghzprotect.closedform import (
    class_probability,
    eta_opt_probability,
    fid_total,
    metrics_closedform,
    pow_int,
    prob_product,
    prob_total,
    qfi_total,
)
from ghzprotect.params import (
    Convention,
    DegeneracyError,
    Engine,
    ProtocolParams,
)
from ghzprotect.structured import aggregate_complex


def make_params(**overrides):
    base = dict(
        n_qubits=10,
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


class TestPowInt:
    def test_matches_builtin_small(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            n = int(rng.integers(0, 20))
            np.testing.assert_allclose(pow_int(z, n), z**n, rtol=1e-12)

    def test_zero_cases(self):
        assert pow_int(0.0, 0) == 1.0
        assert pow_int(0.0, 5) == 0.0
        assert pow_int(2.0, 0) == 1.0

    def test_unit_modulus_large_exponent(self):
        z = cmath.exp(0.3j)
        np.testing.assert_allclose(abs(pow_int(z, 1000)), 1.0, atol=1e-12)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            pow_int(1.0 + 0j, -1)


def scalar_pow(z, n):
    """z**n by the repeated squaring of Python complex numbers."""
    result = complex(1.0)
    base = complex(z)
    while n:
        if n & 1:
            result *= base
        base *= base
        n >>= 1
    return result


def math_prob_total(n, theta, eta, r):
    """The printed product form, in math and cmath."""
    u = math.cos(theta / 2.0) ** 2
    v = math.sin(theta / 2.0) ** 2
    zp = cmath.exp(1j * eta)
    zm = cmath.exp(-1j * eta)
    return scalar_pow((r * zp + (1.0 - r) * zm) * v + zp * u, n)


def math_eta_opt(r, theta):
    """The printed optimal rotation's real part, in math and cmath."""
    a = math.cos(theta / 2.0) ** 2 + r * math.sin(theta / 2.0) ** 2
    b = (1.0 - r) * math.sin(theta / 2.0) ** 2
    if a == 0.0:
        return 0.0
    return (-1j * cmath.log((1.0 + abs(a - b)) / (2.0 * a))).real


def bits(x):
    """The bytes of a float or of a complex's two parts (signed zeros count)."""
    return struct.pack("dd", x.real, x.imag) if isinstance(x, complex) else struct.pack("d", x)


def seeded_draws(count=2400, seed=211):
    """(n, theta, eta, r) draws, a third of each angle at its ends, n up to 511."""
    rng = np.random.default_rng(307)
    draws = []
    for index in range(count):
        n = 511 if index % 100 == 0 else int(rng.integers(1, 512))
        theta = float(rng.choice([0.0, math.pi, rng.uniform(0.0, math.pi)]))
        eta = float(rng.choice([0.0, 2.0 * math.pi, rng.uniform(0.0, 2.0 * math.pi)]))
        r = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        draws.append((n, theta, eta, r))
    return draws


class TestArrayForms:
    def test_prob_total_has_the_bits_of_the_math_expression(self):
        for n, theta, eta, r in seeded_draws():
            got = prob_total(make_params(n_qubits=n, theta=theta, eta=eta, r=r, extended_theta=True))
            assert type(got) is complex
            assert bits(got) == bits(math_prob_total(n, theta, eta, r)), (n, theta, eta, r)

    def test_eta_opt_probability_has_the_bits_of_the_math_expression(self):
        for _, theta, _, r in seeded_draws():
            got = eta_opt_probability(r, theta)
            assert type(got) is float
            assert bits(got) == bits(math_eta_opt(r, theta)), (r, theta)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_array_product_form_is_within_rounding_of_prob_total(self, n):
        # |P| <= 1, and an array's complex products may round otherwise
        # than the scalar ones: 1e-14 is the bound the validate screen uses.
        _, theta, eta, r = (np.array(axis) for axis in zip(*seeded_draws()))
        got = prob_product(n, theta, eta, r)
        want = [
            prob_total(make_params(n_qubits=n, theta=t, eta=e, r=x, extended_theta=True))
            for t, e, x in zip(theta.tolist(), eta.tolist(), r.tolist())
        ]
        assert got.shape == theta.shape
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_the_array_rotation_is_that_of_per_point_calls(self):
        r, theta = np.linspace(0.0, 1.0, 41)[:, None], np.linspace(0.0, math.pi, 37)
        got = eta_opt_probability(r, theta)
        assert got.shape == (41, 37)
        want = [[eta_opt_probability(float(x), float(t)) for t in theta] for x in r[:, 0]]
        assert np.array_equal(got, want)


class TestProbTotal:
    def test_unity_at_zero_rotation(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            p = random_params(rng, 10, eta=0.0)
            np.testing.assert_allclose(
                prob_total(p), 1.0, atol=1e-12
            )

    def test_frozen_projective_value(self):
        # theta=0 leaves only the e^{i eta} population term: e^{iN eta}.
        p = make_params(theta=0.0, eta=0.3)
        np.testing.assert_allclose(
            prob_total(p), cmath.exp(3j), atol=1e-14
        )

    def test_variants_agree(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            p = random_params(rng, 8)
            np.testing.assert_allclose(
                prob_total(p),
                aggregate_complex(p, Convention.PAPER)[0],
                atol=1e-12,
            )

    def test_class_weights_sum_to_total(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            p = random_params(rng, 9)
            total = sum(
                math.comb(9, k) * class_probability(p, k) for k in range(10)
            )
            np.testing.assert_allclose(
                total, prob_total(p), atol=1e-12,
                err_msg="binomial collapse of class weights failed",
            )


class TestFidTotal:
    def test_identity_point(self):
        np.testing.assert_allclose(
            fid_total(make_params()), 1.0, atol=1e-12
        )

    def test_projective_no_damping(self):
        p = make_params(theta=0.0)
        np.testing.assert_allclose(
            fid_total(p), 0.5, atol=1e-14
        )

    def test_frozen_full_damping_value(self):
        # r=1, theta=pi/2, eta=0, balanced N=10: every term carries the
        # measurement attenuation 2^{-N}; the surviving population overlap
        # is exactly 2^{-10}.
        p = make_params(r=1.0)
        np.testing.assert_allclose(
            fid_total(p), 2.0**-10, atol=1e-15
        )

    def test_variants_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            p = random_params(rng, 7)
            np.testing.assert_allclose(
                fid_total(p),
                aggregate_complex(p, Convention.PAPER)[1],
                atol=1e-11,
            )

    def test_degenerate_weight(self):
        p = make_params(n_qubits=2, eta=math.pi / 2)
        with pytest.raises(DegeneracyError, match="weight"):
            fid_total(p)

    def test_defined_where_the_structured_engine_is(self):
        # Undamped and unmeasured, the total weight is cos(eta)^2, here
        # |P| = 4.8e-14: below the engines' 1e-13, so both raise.
        p = make_params(n_qubits=2, eta=math.pi / 2 - 2.2e-7)
        assert 1e-14 < abs(prob_total(p)) < 1e-13
        with pytest.raises(DegeneracyError, match="weight"):
            fid_total(p)
        with pytest.raises(DegeneracyError, match="weight"):
            aggregate_complex(p, Convention.PAPER)


def printed_qfi_oracle(n, gamma, theta, eta, r):
    """The printed three-part information sum at 50 digits.

    Returns (total, sum of |terms|), each class term with its multiplicity
    C(n, k); the denominators are those :func:`qfi_total` documents.
    """
    with mpmath.workdps(50):
        c2, s2 = mpmath.cos(gamma / 2) ** 2, mpmath.sin(gamma / 2) ** 2
        u, v = mpmath.cos(theta / 2) ** 2, mpmath.sin(theta / 2) ** 2
        q = 1 - mpmath.mpf(r)
        numerator = 4 * c2 * s2 * q**n * mpmath.sin(theta) ** (2 * n) / 4**n * n**2
        rr, zpn = (r * q) ** n, mpmath.expj(eta * n)
        terms = [
            numerator / (c2 * v**n * rr + s2 * u**n * zpn),
            numerator / (c2 * u**n * zpn + s2 * v**n * rr),
        ]
        for k in range(1, n):
            zmu = mpmath.expj(eta * (2 * k - n))
            denom = c2 * u**k * v ** (n - k) * q ** (n - k) * zmu + s2 * v**k * u ** (n - k) * q**k / zmu
            terms.append(mpmath.binomial(n, k) * numerator / denom)
        return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))


def oracle_draws():
    """Seeded draws: 120 up to N = 64, then 20 up to N = 300.

    Only draws whose printed numerator is at least 1e-290 are kept, clear of
    the underflow that :func:`qfi_total` raises on.
    """
    rng = np.random.default_rng(307)
    draws = []
    while len(draws) < 140:
        p = random_params(rng, int(rng.integers(1, 65 if len(draws) < 120 else 301)))
        numerator = 4 * abs(p.alpha * p.beta) ** 2 * p.n_qubits**2 * (
            (1 - p.r) * math.sin(p.theta) ** 2 / 4
        ) ** p.n_qubits
        if numerator >= 1e-290:
            draws.append(p)
    return draws


class TestQfiTotal:
    def test_the_printed_sum_at_50_digits(self):
        for p in oracle_draws():
            want, scale = printed_qfi_oracle(p.n_qubits, p.gamma, p.theta, p.eta, p.r)
            assert abs(qfi_total(p) - want) <= 1e-12 * scale, p

    @pytest.mark.parametrize("n", [46, 100, closedform.VERBATIM_MAX_QUBITS])
    def test_identity_point_at_large_registers(self, n):
        # Each printed denominator is 2^-N, far above the pole bound of
        # the class coherence |C|^2 = 4^-N / 4.
        want = n**2 * (1.0 + 2.0 ** (1 - n))
        assert abs(qfi_total(make_params(n_qubits=n)) - want) <= 1e-12 * want

    def test_identity_point_appendix(self):
        np.testing.assert_allclose(
            aggregate_complex(make_params(), Convention.PAPER)[2],
            100.0,
            atol=1e-10,
        )

    def test_identity_point_verbatim_documents_gap(self):
        # The printed k=0 and k=N denominators lose the damping phase
        # terms; at the identity point that inflates the aggregate by
        # exactly N^2 2^{1-N}.
        got = qfi_total(make_params())
        np.testing.assert_allclose(got, 100.1953125, atol=1e-10)
        gap = got - aggregate_complex(make_params(), Convention.PAPER)[2]
        np.testing.assert_allclose(gap, 100.0 * 2.0**-9, atol=1e-10)

    def test_full_damping_kills_information(self):
        assert qfi_total(make_params(r=1.0)) == 0.0
        assert aggregate_complex(make_params(r=1.0), Convention.PAPER)[2] == 0.0

    @pytest.mark.parametrize(
        "n, to", [(345, "below the normal float range"), (400, "to 0"), (511, "to 0")],
        ids=["345", "400", "511"],
    )
    def test_an_underflowed_numerator_raises_naming_it(self, n, to):
        # ((1-r) sin^2(theta) / 4)^N = 8^-N is below the smallest float from
        # N = 359.  From N = 341 it is subnormal and has lost digits, though
        # at N = 345 the numerator, N^2 8^-N, is a normal float again.
        p = make_params(n_qubits=n, r=0.5)
        with pytest.raises(DegeneracyError, match=r"numerator .* underflows %s at N=%d" % (to, n)):
            qfi_total(p)

    @pytest.mark.parametrize(
        "theta, r", [(math.pi / 2, 1.0), (0.0, 0.5), (math.pi, 0.5)],
        ids=["r=1", "theta=0", "theta=pi"],
    )
    def test_true_zeros_of_the_numerator_stay_zero(self, theta, r):
        p = make_params(n_qubits=511, theta=theta, r=r, extended_theta=True)
        assert qfi_total(p) == 0.0

    def test_gap_is_confined_to_edge_classes(self):
        # Only the k=0 / k=N denominators differ between the families.  At
        # theta=pi/2, r=0, eta=0 both edge contributions evaluate in closed
        # form and the gap is exactly 4 N^2 2^{-N} (1 - 2|alpha beta|^2).
        rng = np.random.default_rng(103)
        n = 10
        for _ in range(10):
            p = random_params(rng, n, theta=math.pi / 2, r=0.0, eta=0.0)
            verb = qfi_total(p)
            agg = aggregate_complex(p, Convention.PAPER)[2]
            ab2 = abs(p.alpha * p.beta) ** 2
            expected_gap = 4.0 * n**2 * 2.0**-n * (1.0 - 2.0 * ab2)
            np.testing.assert_allclose(
                (verb - agg).real, expected_gap, atol=1e-12
            )
            np.testing.assert_allclose((verb - agg).imag, 0.0, atol=1e-13)


class TestEtaOptProbability:
    def test_always_zero_on_grid(self):
        for r in np.linspace(0.0, 1.0, 10):
            for theta in np.linspace(0.0, math.pi, 10):
                assert eta_opt_probability(float(r), float(theta)) == 0.0

    def test_specific_points(self):
        assert eta_opt_probability(0.5, math.pi / 4) == 0.0
        assert eta_opt_probability(0.0, 2.0) == 0.0
        assert eta_opt_probability(0.0, math.pi) == 0.0  # limiting corner

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="r must"):
            eta_opt_probability(1.5, 0.3)
        with pytest.raises(ValueError, match="theta"):
            eta_opt_probability(0.5, -0.1)


class TestMetricsClosedform:
    def test_row_tags(self):
        row = metrics_closedform(make_params())
        assert row.engine is Engine.CLOSEDFORM_VERBATIM
        assert row.convention is Convention.PAPER

    def test_largest_register_of_the_printed_formulas(self):
        # From N = 512 the information's printed 4^N overflows a float;
        # the fidelity and the information refuse such a register.  At
        # N = 511 the numerator is 0 for r = 1, a true zero, and underflows
        # for r = 0.5.
        p = make_params(n_qubits=closedform.VERBATIM_MAX_QUBITS, r=1.0)
        row = metrics_closedform(p)
        assert math.isfinite(row.fidelity) and row.qfi == 0.0
        with pytest.raises(DegeneracyError, match="numerator"):
            metrics_closedform(make_params(n_qubits=closedform.VERBATIM_MAX_QUBITS, r=0.5))
        above = make_params(n_qubits=closedform.VERBATIM_MAX_QUBITS + 1, r=0.5)
        for formula in (fid_total, qfi_total, metrics_closedform):
            with pytest.raises(ValueError, match="n_qubits=512 exceeds .* 511"):
                formula(above)


def test_closedform_imports_no_engine():
    # The printed formulas are what the engines are checked against, so
    # they evaluate on their own.
    tree = ast.parse(Path(closedform.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert not names & {"structured", "dense", "optimize"}
