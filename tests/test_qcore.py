"""Scalar q-calculus: numbers, factorials, binomials, derivative,
Jackson integral, exponentials, gamma, weight variants."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qcore import (
    DomainError,
    JacksonQuadrature,
    QContext,
    big_e_variant,
    jackson_depth,
    jackson_integral,
    q_binomial,
    q_bracket_gap,
    q_derivative,
    q_exp,
    q_factorial,
    q_factorials,
    q_gamma,
    q_gamma_moment_check,
    q_number,
    small_e_variant,
    support_halfwidth,
    weight_dilation_residual,
    weight_variant,
)

QS = (0.3, 0.5, 0.9)


def test_context_rejects_q_outside_unit_interval():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            QContext(q=bad)


def test_qnum_small_values(ctx05):
    assert q_number(0, ctx05) == 0.0
    assert q_number(1, ctx05) == 1.0
    assert q_number(3, ctx05) == pytest.approx(1.75, abs=1e-15)


@pytest.mark.parametrize("q", QS)
def test_qnum_matches_geometric_sum(q):
    ctx = QContext(q=q)
    qf = Fraction(q).limit_denominator(10**9)
    for n in range(1, 51):
        ref = float(oracles.qnum_frac(n, qf))
        assert q_number(n, ctx) == pytest.approx(ref, rel=1e-12)


def test_qnum_fractional_exponent_closed_form():
    # (1 - q^(1/2)) / (1 - q) at q = 1/4 is (1 - 1/2)/(3/4) = 2/3
    ctx = QContext(q=0.25)
    assert q_number(0.5, ctx) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_qnum_classical_limit():
    # deviation grows like n(n-1)/2 (1-q), so the bound is per unit of n
    ctx = QContext(q=1.0 - 1e-6)
    for n in range(1, 21):
        assert abs(q_number(n, ctx) - n) / n < 1e-4


def test_qfact_product(ctx05):
    assert q_factorial(0, ctx05) == 1.0
    assert q_factorial(3, ctx05) == pytest.approx(2.625, abs=1e-14)


@pytest.mark.parametrize("q", QS)
def test_qfact_vector_equals_scalar_factorials(q):
    ctx = QContext(q=q)
    facts = q_factorials(30, ctx)
    assert facts.shape == (31,)
    assert all(facts[n] == q_factorial(n, ctx) for n in range(31))
    with pytest.raises(DomainError):
        q_factorials(-1, ctx)


def test_qfact_against_extended_precision_oracle(ctx09):
    # frozen from the 50-digit product oracle in oracles.qfact_mp
    frozen = 402794.8737101314
    got = q_factorial(10, ctx09)
    assert got == pytest.approx(frozen, rel=1e-12)
    assert got == pytest.approx(float(oracles.qfact_mp(10, "0.9", 50)), rel=1e-12)


def test_qbinom_frozen_value(ctx05):
    assert q_binomial(4, 2, ctx05) == pytest.approx(2.1875, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    q=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=64),
)
def test_qbinom_factorial_route_equals_pascal_recursion(n, q):
    ctx = QContext(q=float(q))
    for k in range(n + 1):
        ref = float(oracles.qbinom_pascal(n, k, q))
        assert q_binomial(n, k, ctx) == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("q", QS)
def test_bracket_gap_is_power(q):
    # the gap is a subtraction of numbers of size ~1/(1-q), so the
    # attainable accuracy is ulps of the operands, not of q^n
    ctx = QContext(q=q)
    for n in range(31):
        tol = 4 * np.spacing(q_number(n + 1, ctx))
        assert abs(q_bracket_gap(n, ctx) - q**n) <= tol


def test_bracket_gap_small_index_value(ctx03):
    assert q_bracket_gap(7, ctx03) == pytest.approx(0.3**7, abs=1e-15)


def test_qderiv_polynomial_points(ctx05):
    assert q_derivative(lambda x: x, 2.0, ctx05) == pytest.approx(1.0, abs=1e-15)
    # D(x^3)(2) = [3] * 4 = 7
    assert q_derivative(lambda x: x**3, 2.0, ctx05) == pytest.approx(7.0, rel=1e-14)
    with pytest.raises(DomainError):
        q_derivative(lambda x: x, 0.0, ctx05)


def test_jackson_integral_of_identity(ctx05):
    quad = JacksonQuadrature.on(0.0, 1.0, ctx05)
    assert jackson_integral(lambda t: t, quad) == pytest.approx(2.0 / 3.0, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=9),
    a=st.floats(min_value=0.05, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=0.9),
    q=st.sampled_from(QS),
)
def test_jackson_fundamental_theorem_on_polynomials(coeffs, a, width, q):
    ctx = QContext(q=q)
    b = a + width

    def f(t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    got = jackson_integral(lambda t: q_derivative(f, t, ctx), JacksonQuadrature.on(a, b, ctx))
    want = f(b) - f(a)
    assert abs(got - want) < 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("q", (0.3, 0.5))
def test_qexp_product_inverse(q, rng):
    big, small = big_e_variant(q), small_e_variant(q)
    for t in rng.uniform(-0.9 / (1 - q), 0.9 / (1 - q), size=20):
        assert abs(q_exp(big, t) * q_exp(small, -t) - 1.0) < 1e-8


@pytest.mark.parametrize("q", (0.3, 0.5))
def test_qexp_derivative_identities(q, rng):
    ctx = QContext(q=q)
    big, small = big_e_variant(q), small_e_variant(q)
    for x in rng.uniform(0.05, 0.8 / (1 - q), size=10):
        d_big = q_derivative(lambda t: q_exp(big, t), x, ctx)
        assert abs(d_big - q_exp(big, x)) < 1e-8 * (1 + abs(d_big))
        d_small = q_derivative(lambda t: q_exp(small, t), x, ctx)
        assert abs(d_small - q_exp(small, q * x)) < 1e-8


@pytest.mark.parametrize("q", (0.3, 0.5))
def test_small_e_zero_ladder(q):
    small = small_e_variant(q)
    for k in range(4):
        assert abs(q_exp(small, q ** (-k) / (q - 1.0))) < 1e-6


def test_weight_variant_selection(ctx05):
    """The even weight must satisfy D W(t) = -(q+1) t W(qt).

    Two readings of the squared-base exponential exist (deformed
    exponent with plain factorials, or factorials in the squared base);
    only the first satisfies the dilation identity, so that is the one
    every downstream module uses.  The rejected variant is kept in the
    oracles for the record and fails the same identity by a wide margin.
    """
    q = 0.5
    pts = np.linspace(0.1, 1.0, 8)
    good = weight_dilation_residual(weight_variant(q), ctx05, pts)

    def mixed(t):
        return oracles.small_e_series(-t * t, q * q, q)

    bad = max(abs(q_derivative(mixed, t, ctx05) + (q + 1.0) * t * mixed(q * t)) for t in pts)
    assert good < 1e-8
    assert bad > 1e-3
    # the oracle series with equal bases is the canonical weight, bit for bit
    for t in pts:
        assert oracles.small_e_series(-t * t, q * q, q * q) == q_exp(weight_variant(q), -t * t)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9, 0.95))
def test_q_exp_arrays_equal_scalar_loop_exactly(q):
    """The array series repeats the one-point loop bit for bit, element by element."""
    gen = np.random.default_rng(5)
    for base in (q, q * q):
        r = 1.0 / (1.0 - base)
        big_x = [0.0, -0.5, 0.999 * r, -0.999 * r, 0.9 * r, *gen.uniform(-0.99 * r, 0.99 * r, size=40)]
        small_x = [0.0, 3.0 * r, -3.0 * r, *(base ** (-k) / (base - 1.0) for k in range(4))]
        small_x += list(gen.uniform(-3.0 * r, 3.0 * r, size=40))
        for variant, xs, oracle in (
            (big_e_variant(base), big_x, lambda x: oracles.big_e_series(x, base)),
            (small_e_variant(base), small_x, lambda x: oracles.small_e_series(x, base, base)),
        ):
            want = [oracle(x) for x in xs]
            assert q_exp(variant, np.array(xs)).tolist() == want
            assert q_exp(variant, np.array(xs).reshape(-1, 1)).shape == (len(xs), 1)
            for x, w in zip(xs, want):
                got = q_exp(variant, x)
                assert type(got) is float and got == w


def test_q_exp_refuses_any_point_outside_the_disc():
    big = big_e_variant(0.5)
    with pytest.raises(DomainError, match="got [|]x[|] = 2"):
        q_exp(big, np.array([0.5, -2.0, 1.0]))
    assert q_exp(big, np.array([])).shape == (0,)


@pytest.mark.parametrize("q", (0.1, 0.3, 0.5, 0.9, 0.95))
@pytest.mark.parametrize("depth", ("derived", 400))
def test_jackson_sums_equal_node_loop_exactly(q, depth):
    """One f call on the node vector gives the node-by-node sum bit for bit.

    At q = 0.1 and J = 400 the ladder underflows to 0 before its end; the
    sum must still return (a q-derivative integrand raises at 0).
    """
    J = jackson_depth(q) if depth == "derived" else depth
    ctx = QContext(q=q, quad_max_level=J)
    gen = np.random.default_rng(3)
    for _ in range(3):
        coeffs = gen.uniform(-1.0, 1.0, size=9)
        lo, hi = sorted(gen.uniform(0.05, 1.95, size=2))

        def f(t, c=coeffs):
            acc = 0.0
            for cc in c[::-1]:
                acc = acc * t + cc
            return acc

        got = jackson_integral(lambda t: q_derivative(f, t, ctx), JacksonQuadrature.on(lo, hi, ctx))
        want = oracles.jackson_sum_loop(lambda t: (f(q * t) - f(t)) / ((q - 1.0) * t), lo, hi, J, q)
        assert got == want
    small = small_e_variant(q)
    for z in (1.5, 2.0, 3.0):
        got = jackson_integral(
            lambda t: np.array([u ** (z - 1.0) for u in t.tolist()]) * q_exp(small, -q * t),
            JacksonQuadrature.on(0.0, 1.0 / (1.0 - q), ctx),
        )
        want = oracles.jackson_sum_loop(
            lambda t: t ** (z - 1.0) * oracles.small_e_series(-q * t, q, q), 0.0, 1.0 / (1.0 - q), J, q
        )
        assert got == want
    lam = support_halfwidth(ctx)
    for nu in (1, 3, 5):
        want = oracles.jackson_sum_loop(
            lambda t: t ** (nu - 1) * oracles.small_e_series(-t * t, q * q, q * q), -lam, lam, J, q
        )
        assert q_gamma_moment_check(nu, ctx).lhs == want


def test_q_derivative_on_arrays(ctx05):
    x = np.array([2.0, -1.0, 0.5])
    assert q_derivative(lambda t: t * t * t, x, ctx05).tolist() == [
        q_derivative(lambda t: t * t * t, float(v), ctx05) for v in x
    ]
    with pytest.raises(DomainError):
        q_derivative(lambda t: t, np.array([1.0, 0.0, 2.0]), ctx05)


def test_gamma_trivial_and_functional(ctx05):
    assert q_gamma(1.0, ctx05) == pytest.approx(1.0, abs=1e-14)
    assert q_gamma(2.0, ctx05) == pytest.approx(1.0, rel=1e-12)
    lhs = q_gamma(2.5, ctx05)
    rhs = q_number(1.5, ctx05) * q_gamma(1.5, ctx05)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gamma_half_argument_value():
    # Gamma at 1/2 in base 1/4, frozen reference value
    ctx = QContext(q=0.25)
    assert q_gamma(0.5, ctx) == pytest.approx(1.421695501207062, rel=1e-12)


def test_gamma_rejects_nonpositive(ctx05):
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            q_gamma(bad, ctx05)


def test_gamma_integral_representation(ctx05):
    q = 0.5
    small = small_e_variant(q)
    quad = JacksonQuadrature.on(0.0, 1.0 / (1.0 - q), ctx05)
    got = jackson_integral(lambda t: t * q_exp(small, -q * t), quad)
    assert got == pytest.approx(q_gamma(2.0, ctx05), rel=1e-6)


def test_moment_identity_odd_orders(ctx05):
    for nu in (1, 3):
        rep = q_gamma_moment_check(nu, ctx05)
        assert not rep.parity_skipped
        assert rep.rel_gap < 1e-6


def test_moment_identity_even_order_is_parity_skip(ctx05):
    rep = q_gamma_moment_check(2, ctx05)
    assert rep.parity_skipped
    assert abs(rep.lhs) < 1e-14
    assert rep.note


def test_moment_identity_rejects_bad_order(ctx05):
    with pytest.raises(DomainError):
        q_gamma_moment_check(0, ctx05)
    with pytest.raises(DomainError):
        q_gamma_moment_check(2.5, ctx05)


def test_support_halfwidth_values():
    assert support_halfwidth(QContext(q=0.6)) == pytest.approx(1.25, abs=1e-14)
    for q in QS:
        lam = support_halfwidth(QContext(q=q))
        assert lam * lam * (1 - q * q) == pytest.approx(1.0, abs=1e-14)


def test_jackson_depth_derived_from_q_and_capped():
    assert [jackson_depth(q) for q in (0.3, 0.5, 0.7, 0.9)] == [33, 57, 110, 372]
    cap = QContext(q=0.5).quad_max_level
    assert cap == 400
    assert jackson_depth(0.906) == 397 and jackson_depth(0.907) == cap and jackson_depth(0.999) == cap
    for q in (0.05, 0.3, 0.5, 0.7, 0.9):
        j = jackson_depth(q)
        # q^J is the first node factor below 1e-17
        assert q**j < 1e-17 <= q ** (j - 1)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            jackson_depth(bad)
