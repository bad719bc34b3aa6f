"""Deformed Hermite family: recurrence vs closed form, ladder and
eigen identities, weighted orthogonality, node weights, mode ceiling,
classical limit."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qcore import DomainError, QContext, q_exp, q_number, support_halfwidth, weight_variant
from qhermite import (
    classical_limit_gap,
    hermite_gram,
    mode_ceiling,
    norm_constant,
    qhermite_annihilate,
    qhermite_create,
    qhermite_eigencheck,
    qhermite_explicit,
    qhermite_function,
    qhermite_function_values,
    qhermite_orthogonality,
    qhermite_recurrence,
    weight_node_values,
    weight_relation_check,
)

QS = (0.3, 0.5, 0.9)


def test_seed_polynomials(ctx05):
    h = qhermite_recurrence(1, ctx05)
    assert h[0].coeffs == (1.0,)
    assert h[1].coeffs == (0.0, 1.5)


def test_degree_two_constant_term(ctx05):
    """The t^0 coefficient of the second polynomial is -(q+1) q^2.

    The recurrence convention is pinned by the creation identity
    H_k = ((q+1) t - q^k D) H_(k-1), which the exact-rational oracle
    satisfies with zero residual; at q = 1/2 that gives -3/8, and the
    second moment of the even weight confirms orthogonality against H_0
    with exactly this constant.
    """
    assert oracles.creation_residual_frac(2, Fraction(1, 2)) == 0
    ref = [float(c) for c in oracles.hermite_coeffs_frac(2, Fraction(1, 2))]
    assert ref == [-0.375, 0.0, 2.25]
    got = qhermite_recurrence(2, ctx05)[2].coeffs
    assert got == pytest.approx(ref, abs=1e-15)


def test_oracle_family_is_creation_consistent():
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(3, 10)):
        for k in range(1, 9):
            assert oracles.creation_residual_frac(k, q) == 0


def test_recurrence_matches_exact_rational_coefficients():
    for qf, ctx in ((Fraction(1, 2), QContext(q=0.5)), (Fraction(9, 10), QContext(q=0.9))):
        polys = qhermite_recurrence(8, ctx)
        for k in range(9):
            ref = [float(c) for c in oracles.hermite_coeffs_frac(k, qf)]
            scale = max(abs(c) for c in ref)
            assert np.allclose(polys[k].coeffs, ref, atol=5e-13 * scale, rtol=0)


def test_degree_eight_value_frozen(ctx05):
    # exact-rational Horner oracle at t = 577/1000, q = 1/2
    frozen = -0.00026735962994003937
    got = qhermite_recurrence(8, ctx05)[8](0.577)
    assert got == pytest.approx(frozen, abs=1e-14)


@pytest.mark.parametrize("q", QS)
def test_explicit_equals_recurrence(q):
    ctx = QContext(q=q)
    polys = qhermite_recurrence(12, ctx)
    for k in range(13):
        ref = np.asarray(polys[k].coeffs)
        got = np.asarray(qhermite_explicit(k, ctx).coeffs)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=0.95), k=st.integers(min_value=0, max_value=6))
def test_explicit_equals_recurrence_generic_q(q, k):
    ctx = QContext(q=q)
    ref = np.asarray(qhermite_recurrence(k, ctx)[k].coeffs)
    got = np.asarray(qhermite_explicit(k, ctx).coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_annihilation_residuals(ctx05, ctx09):
    assert qhermite_annihilate(1, ctx05) == 0.0
    assert qhermite_annihilate(5, ctx05) < 1e-10
    for k in range(1, 11):
        assert qhermite_annihilate(k, ctx09) < 1e-9


def test_creation_residuals(ctx05, ctx09):
    assert qhermite_create(1, ctx05) == (0.0, 0.0)
    for ctx in (ctx05, ctx09):
        for k in range(1, 11):
            first, second = qhermite_create(k, ctx)
            assert first < 1e-10
            assert second < 1e-10


def test_eigen_residuals(ctx05, ctx09):
    assert qhermite_eigencheck(0, ctx05) == 0.0
    # the stated eigenvalue ladder [k] q^(-k) starts at 2 for q = 1/2
    assert q_number(1, ctx05) / 0.5 == 2.0
    for ctx in (ctx05, ctx09):
        for k in range(11):
            assert qhermite_eigencheck(k, ctx) < 1e-9


def test_parity_exact(ctx05):
    for k, poly in enumerate(qhermite_recurrence(12, ctx05)):
        for m, c in enumerate(poly.coeffs):
            if (k - m) % 2 == 1:
                assert c == 0.0


def test_support_and_weight_vanishing():
    assert support_halfwidth(QContext(q=0.6)) == pytest.approx(1.25, abs=1e-15)
    for q in QS:
        ctx = QContext(q=q)
        lam = support_halfwidth(ctx)
        assert lam * lam * (1 - q * q) == pytest.approx(1.0, abs=1e-14)
        # node-product weight vanishes exactly at the endpoint
        assert weight_node_values(ctx, 8)[0] == 0.0
        # series form agrees to truncation noise
        assert abs(q_exp(weight_variant(q), -lam * lam)) < 1e-10


def test_weight_nodes_positive_and_increasing(ctx05):
    w = weight_node_values(ctx05, 30)
    assert np.all(w[1:] > 0.0)
    assert np.all(np.diff(w) >= 0.0)
    assert w[-1] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("q", QS)
def test_weight_relation(q):
    ctx = QContext(q=q)
    for k in (1, 4):
        assert weight_relation_check(k, ctx) < 1e-7


def test_orthogonality_normalized_diagonal(ctx05):
    rep = qhermite_orthogonality(0, 0, ctx05)
    assert rep.value == pytest.approx(rep.target, rel=1e-6)
    # frozen closed-form norm at k = 0: 2 Gamma(1/2 in base q^2) q / (q+1)
    assert norm_constant(0, ctx05) == pytest.approx(0.9477970008047080, abs=1e-12)
    assert rep.target == pytest.approx(norm_constant(0, ctx05))


def test_orthogonality_off_diagonal(ctx05):
    lam_max = max(norm_constant(k, ctx05) for k in range(9))
    for k in range(9):
        for l in range(9):
            rep = qhermite_orthogonality(k, l, ctx05)
            if k == l:
                assert rep.gap < 1e-6
            else:
                assert abs(rep.value) < 1e-8 * lam_max


def test_orthogonality_mirrors_closed_form_diag(ctx05):
    rep = qhermite_orthogonality(5, 5, ctx05)
    assert rep.value == pytest.approx(norm_constant(5, ctx05), rel=1e-6)


@pytest.mark.parametrize("q", QS)
def test_hermite_gram_matches_pairwise_orthogonality(q):
    ctx = QContext(q=q)
    mat, lam = hermite_gram(8, ctx)
    assert np.array_equal(mat, mat.T)
    for k in range(9):
        assert lam[k] == norm_constant(k, ctx)
        for l in range(9):
            want = oracles.hermite_pairing_ladder(k, l, q, ctx.quad_max_level)
            got = qhermite_orthogonality(k, l, ctx).value
            if (k + l) % 2:
                assert mat[k, l] == got == want == 0.0
            else:
                assert abs(mat[k, l] - want) <= 1e-14 * max(lam[k], lam[l])
                assert abs(got - want) <= 1e-14 * max(lam[k], lam[l])
    with pytest.raises(DomainError):
        hermite_gram(-1, ctx)


def test_weight_nodes_are_shared_and_read_only(ctx05):
    w = weight_node_values(ctx05, 30)
    assert weight_node_values(QContext(q=0.5, quad_max_level=57), 30) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[3] = 0.0


def test_normalized_functions_unit_norm(ctx05):
    q = ctx05.q
    lam = support_halfwidth(ctx05)
    rows = qhermite_function_values(6, ctx05)
    for k in range(7):
        fn = qhermite_function(k, ctx05)
        assert np.array_equal(fn, rows[k])
        J = fn.shape[1] - 1
        weights = (1 - q) * lam * q ** np.arange(J + 1)
        total = np.sum((np.abs(fn[0]) ** 2 + np.abs(fn[1]) ** 2) * weights)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mode_ceiling_frozen_values():
    assert mode_ceiling(QContext(q=0.3)) == 8
    assert mode_ceiling(QContext(q=0.5)) == 12
    assert mode_ceiling(QContext(q=0.9)) == 27


def test_negative_degree_rejected(ctx05):
    with pytest.raises(DomainError):
        qhermite_explicit(-1, ctx05)
    with pytest.raises(DomainError):
        weight_relation_check(0, ctx05)


def test_classical_limit_near_one():
    gap = classical_limit_gap(5, QContext(q=1.0 - 1e-6))
    assert gap < 1e-3


def test_classical_limit_rate_is_first_order():
    # coefficient deviation shrinks linearly in (1 - q)
    g3 = classical_limit_gap(5, QContext(q=1.0 - 1e-3))
    g6 = classical_limit_gap(5, QContext(q=1.0 - 1e-6))
    ratio = g3 / g6
    assert 300 < ratio < 3000


def test_classical_reference_is_physicists_family():
    # the limit target used by classical_limit_gap matches the integer
    # recurrence oracle
    from qhermite import classical_hermite_coeffs

    for k in range(7):
        assert list(classical_hermite_coeffs(k)) == oracles.classical_hermite_coeffs(k)
