"""Coefficient-model Fock space: Fischer pairing, reproducing kernel,
ladder and phase-space operators, commutator and adjointness."""
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from qcore import DomainError, QContext, q_brackets, q_factorial, q_factorials
from qcomplex import BivarPoly, dz, zq_monomial
from qfock import (
    CommutatorReport,
    FockElement,
    adjoint_check,
    adjoint_pairings,
    annihilation_apply,
    annihilation_stack,
    basis_element,
    commutator_check,
    commutator_checks,
    creation_apply,
    creation_stack,
    derivative_apply,
    derivative_stack,
    fischer_gram,
    fischer_inner,
    kernel_element,
    kernel_eval,
    kernel_values,
    momentum_apply,
    momentum_stack,
    norm_sq_stack,
    oscillator_adjoint_gap,
    position_apply,
    position_stack,
)


def test_norm_of_ones_vector(ctx05):
    f = FockElement((1.0, 1.0), ctx05)
    assert f.norm_sq() == pytest.approx(2.0, abs=1e-15)


def _frac_parts(c: complex):
    return Fraction(c.real), Fraction(c.imag)


def test_fischer_pairing_against_exact_factorials(rng):
    # dyadic coefficients and q = 1/2 are exact in Fraction, so the oracle is exact
    q = Fraction(1, 2)
    ctx = QContext(q=0.5)
    a = np.round(64 * (rng.normal(size=12) + 1j * rng.normal(size=12))) / 64
    b = np.round(64 * (rng.normal(size=9) + 1j * rng.normal(size=9))) / 64
    f, g = FockElement(tuple(a), ctx), FockElement(tuple(b), ctx)
    re, im = Fraction(0), Fraction(0)
    for n in range(9):
        (ar, ai), (br, bi) = _frac_parts(a[n]), _frac_parts(b[n])
        fact = oracles.qfact_frac(n, q)
        re += fact * (ar * br + ai * bi)
        im += fact * (ai * br - ar * bi)
    got = fischer_inner(f, g)
    assert isinstance(got, complex)
    assert abs(got - complex(re, im)) <= 1e-14 * abs(complex(re, im))
    norm = sum(oracles.qfact_frac(n, q) * sum(x * x for x in _frac_parts(c)) for n, c in enumerate(a))
    assert f.norm_sq() == pytest.approx(float(norm), rel=1e-14)


def test_kernel_element_against_exact_factorials(ctx05):
    w = 0.75 - 0.5j
    elem = kernel_element(w, ctx05, 10)
    vals = [oracles.zq_product_value(w, n, 0.5) for n in range(10)]
    for n, c in enumerate(elem.coeffs):
        want = vals[n].conjugate() / float(oracles.qfact_frac(n, Fraction(1, 2)))
        assert c == pytest.approx(want, rel=1e-14)


def test_basis_orthogonality_exact(ctx05):
    basis = [basis_element(n, ctx05, 11) for n in range(11)]
    for n, en in enumerate(basis):
        for m, em in enumerate(basis):
            want = q_factorial(n, ctx05) if n == m else 0.0
            assert fischer_inner(en, em) == want


def test_positivity_on_random_elements(ctx05, rng):
    for _ in range(100):
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert FockElement(tuple(coeffs), ctx05).norm_sq() > 0.0


def test_eval_agrees_with_monomial_values(ctx05, rng):
    coeffs = tuple(rng.normal(size=7) + 1j * rng.normal(size=7))
    f = FockElement(coeffs, ctx05)
    for _ in range(5):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = sum(c * oracles.zq_product_value(z, n, 0.5) for n, c in enumerate(coeffs))
        assert f.eval(z) == pytest.approx(want, rel=1e-13)


def test_kernel_at_zero_arguments(ctx05):
    assert kernel_eval(0.3 + 0.1j, 0.0, ctx05).value == 1.0 + 0j
    assert kernel_eval(0.0, 0.4j, ctx05).value == 1.0 + 0j


def test_kernel_rejects_outside_domain(ctx05):
    with pytest.raises(DomainError):
        kernel_eval(0.1, 2.5, ctx05)  # |w| beyond 1/(1-q) = 2
    with pytest.raises(DomainError):
        kernel_eval(3.0, 1.0, ctx05)  # |z w| beyond the series radius


def test_kernel_truncation_reports_tail(ctx05):
    ev = kernel_eval(0.8 + 0.5j, 0.9 - 0.7j, ctx05)
    assert ev.truncation > 5
    assert ev.tail_bound < 1e-11 * abs(ev.value)


def test_kernel_hermitian_symmetry(ctx05, rng):
    for _ in range(6):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        assert kernel_eval(z, w, ctx05).value == pytest.approx(
            kernel_eval(w, z, ctx05).value.conjugate(), rel=1e-13
        )


def test_kernel_series_matches_direct_sum(ctx05):
    z, w = 0.6 + 0.2j, -0.4 + 0.5j
    direct = sum(
        oracles.zq_product_value(z, n, 0.5)
        * oracles.zq_product_value(w, n, 0.5).conjugate()
        / q_factorial(n, ctx05)
        for n in range(60)
    )
    assert kernel_eval(z, w, ctx05).value == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_kernel_values_match_scalar_loop(q, rng):
    ctx = QContext(q=q)
    radius = 1.0 / (1.0 - q)
    shape = (15, 20)
    # four draws with one shared w, then four with a w per point
    for per_point in (False,) * 4 + (True,) * 4:
        if per_point:
            w = (rng.uniform(-1.0, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape)) * 0.6 * radius
        else:
            w = complex(*rng.uniform(-1.0, 1.0, size=2)) * 0.6 * radius
        z = (rng.uniform(-1.0, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape)) * 2.0
        z = np.where(np.abs(z) * np.abs(w) < 0.95 * radius, z, 0.1 * z)
        values, truncation, tail = kernel_values(z, w, ctx)
        assert values.shape == truncation.shape == tail.shape == z.shape
        w_at = np.broadcast_to(w, shape)
        for i in np.ndindex(shape):
            want, n, want_tail = oracles.kernel_scalar(complex(z[i]), complex(w_at[i]), q)
            assert truncation[i] == n
            assert abs(values[i] - want) <= 1e-15 * abs(want)
            assert tail[i] == pytest.approx(want_tail, rel=1e-12)


def test_kernel_eval_is_the_one_point_call(ctx05):
    z, w = 0.8 + 0.5j, 0.9 - 0.7j
    ev = kernel_eval(z, w, ctx05)
    values, truncation, tail = kernel_values(np.array([z]), w, ctx05)
    assert (ev.value, ev.truncation, ev.tail_bound) == (values[0], truncation[0], tail[0])


def test_kernel_values_domain(ctx05):
    with pytest.raises(DomainError):
        kernel_values(np.array([0.1, 3.0]), 1.0, ctx05)  # one point past |z w| = 2
    with pytest.raises(DomainError):
        kernel_values(np.zeros(0), 2.5, ctx05)  # |w| past the disc, even with no points
    values, truncation, _ = kernel_values(np.zeros(0), 0.5, ctx05)
    assert values.shape == truncation.shape == (0,)
    # near the radius at q close to 1 the bound leaves float64 range first
    with pytest.raises(DomainError):
        kernel_values(np.array([9.9]), 9.9, QContext(q=0.99))


def test_reproducing_property(ctx05, rng):
    for _ in range(10):
        f = FockElement(tuple(rng.normal(size=9) + 1j * rng.normal(size=9)), ctx05)
        w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        kw = kernel_element(w, ctx05, 9)
        assert fischer_inner(f, kw) == pytest.approx(f.eval(w), abs=1e-8 * (1 + abs(f.eval(w))))


def test_position_shifts_index_up(ctx05):
    up = position_apply(basis_element(0, ctx05))
    assert np.array_equal(up.coeffs, np.array([0.0, 1.0], dtype=complex))


def test_position_matches_polynomial_model(ctx05, rng):
    q = ctx05.q
    zfac = BivarPoly({(1, 0): 1.0, (0, 1): 1j})
    for n in range(11):
        zn = zq_monomial(n, ctx05)
        dilated = BivarPoly({(a, b): c * q**b for (a, b), c in zn.items()}, clean=False)
        xpoly = zfac * dilated
        xelem = position_apply(basis_element(n, ctx05))
        for _ in range(4):
            x, y = rng.uniform(-1, 1, 2)
            assert xelem.eval(complex(x, y)) == pytest.approx(xpoly(x, y), abs=1e-12)


def test_momentum_matches_polynomial_model(ctx05, rng):
    for n in range(1, 11):
        ppoly = -1j * dz(zq_monomial(n, ctx05), ctx05)
        pelem = momentum_apply(basis_element(n, ctx05))
        for _ in range(4):
            x, y = rng.uniform(-1, 1, 2)
            assert pelem.eval(complex(x, y)) == pytest.approx(ppoly(x, y), abs=1e-12)


def test_momentum_on_first_mode(ctx05):
    out = momentum_apply(basis_element(1, ctx05))
    assert out.coeffs[0] == pytest.approx(-1j, abs=1e-15)
    assert all(abs(c) == 0.0 for c in out.coeffs[1:])


def test_ladder_operators_compose_to_commutator(ctx05):
    e2 = basis_element(2, ctx05, 6)
    down_up = annihilation_apply(creation_apply(e2))
    up_down = creation_apply(annihilation_apply(e2))
    diff = np.array(down_up.coeffs) - np.array(up_down.coeffs)
    assert diff[2] == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize(
    "n,q,want",
    [(0, 0.5, 1.0), (3, 0.5, 0.125), (10, 0.9, 0.9**10)],
)
def test_commutator_eigenvalue(n, q, want):
    rep = commutator_check(n, QContext(q=q))
    assert isinstance(rep, CommutatorReport)
    assert rep.factor == pytest.approx(want, abs=1e-12)
    assert rep.route_gap < 1e-12
    assert rep.stray < 1e-12


def test_commutator_full_ladder(ctx05):
    for n in range(21):
        rep = commutator_check(n, ctx05)
        assert abs(rep.factor - 0.5**n) < 1e-12


def test_adjoint_pair_hand_case(ctx05):
    R = basis_element(1, ctx05, 3)
    Q = basis_element(0, ctx05, 3)
    lhs = fischer_inner(derivative_apply(R), Q)
    rhs = fischer_inner(R, position_apply(Q))
    assert lhs == 1.0
    assert rhs == 1.0
    assert adjoint_check(R, Q) == 0.0


def test_adjoint_on_constants_is_trivial(ctx05):
    R = basis_element(0, ctx05, 2)
    assert fischer_inner(derivative_apply(R), R) == 0.0
    assert adjoint_check(R, R) == 0.0


def test_adjoint_random_pairs(ctx05, rng):
    for _ in range(20):
        R = FockElement(tuple(rng.normal(size=11) + 1j * rng.normal(size=11)), ctx05)
        Q = FockElement(tuple(rng.normal(size=11) + 1j * rng.normal(size=11)), ctx05)
        assert adjoint_check(R, Q) < 1e-10


def test_adjoint_random_pairs_scale_aware(ctx09, rng):
    for _ in range(10):
        R = FockElement(tuple(rng.normal(size=11) + 1j * rng.normal(size=11)), ctx09)
        Q = FockElement(tuple(rng.normal(size=11) + 1j * rng.normal(size=11)), ctx09)
        scale = abs(fischer_inner(derivative_apply(R), Q))
        assert adjoint_check(R, Q) < 1e-12 * (1 + scale)


def test_oscillator_pair_is_not_adjoint(ctx05):
    gap = oscillator_adjoint_gap(ctx05)
    assert gap > 1e-3
    assert gap == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_kernel_classical_limit(rng):
    ctx = QContext(q=0.999)
    for _ in range(15):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert abs(kernel_eval(z, w, ctx).value - np.exp(z * w.conjugate())) < 1e-3


# ---------------------------------------------------------------------------
# stacked operators against the tuple-by-tuple loops they replaced


def _seeded_stack(gen, rows: int, size: int) -> np.ndarray:
    return gen.normal(size=(rows, size)) + 1j * gen.normal(size=(rows, size))


def test_element_stores_a_read_only_array(ctx05):
    f = FockElement((1, 2.5, 1j), ctx05)
    assert isinstance(f.coeffs, np.ndarray) and f.coeffs.dtype == complex
    assert np.array_equal(f.coeffs, [1.0, 2.5, 1j])
    with pytest.raises(ValueError):
        f.coeffs[0] = 0.0
    with pytest.raises(DomainError):
        FockElement((), ctx05)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_stacked_operators_equal_tuple_loops(q, rng):
    ctx = QContext(q=q)
    for size in (1, 2, 11):
        stack = _seeded_stack(rng, 6, size)
        for row, x, d, p, a, c in zip(
            stack,
            position_stack(stack),
            derivative_stack(stack, ctx),
            momentum_stack(stack, ctx),
            annihilation_stack(stack, ctx),
            creation_stack(stack, ctx),
        ):
            f = tuple(row)
            assert tuple(x) == oracles.fock_position(f)
            assert tuple(d) == oracles.fock_derivative(f, q)
            assert tuple(p) == oracles.fock_momentum(f, q)
            assert tuple(a) == oracles.fock_ladder(f, q, +1)
            assert tuple(c) == oracles.fock_ladder(f, q, -1)
            elem = FockElement(row, ctx)
            assert np.array_equal(annihilation_apply(elem).coeffs, a)
            assert np.array_equal(creation_apply(elem).coeffs, c)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_stacked_commutator_equals_tuple_loop(q):
    ctx = QContext(q=q)
    for n, rep in enumerate(commutator_checks(20, ctx)):
        assert rep.n == n
        assert (rep.factor, rep.route_gap, rep.stray) == oracles.fock_commutator(n, q)
        assert commutator_check(n, ctx) == rep


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_stacked_adjoint_pairings_equal_tuple_loop(q, rng):
    ctx = QContext(q=q)
    R, Q = _seeded_stack(rng, 20, 11), _seeded_stack(rng, 20, 11)
    lhs, rhs = adjoint_pairings(R, Q, ctx)
    for r, s, left, right in zip(R, Q, lhs, rhs):
        r, s = tuple(r), tuple(s)
        assert left == oracles.fock_inner(oracles.fock_derivative(r, q), s, q)
        assert right == oracles.fock_inner(r, oracles.fock_position(s), q)
        assert adjoint_check(FockElement(r, ctx), FockElement(s, ctx)) == abs(left - right)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_basis_gram_equals_pairwise_loop(q):
    ctx = QContext(q=q)
    eye = np.eye(11)
    gram = fischer_gram(eye, eye, ctx)
    want = [[oracles.fock_inner(tuple(e), tuple(f), q) for f in eye] for e in eye]
    assert np.array_equal(gram, want)
    assert np.array_equal(norm_sq_stack(eye, ctx), np.diag(gram).real)


# ---------------------------------------------------------------------------
# matrix form on the truncated Z_n basis


N = 12


def _matrix(images: np.ndarray) -> np.ndarray:
    """Column n holds the image of e_n, cut to the first N coefficients."""
    out = np.zeros((N, N), dtype=complex)
    rows = min(N, images.shape[-1])
    out[:rows] = images[:, :rows].T
    return out


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_position_and_derivative_are_the_shift_matrices(q):
    ctx = QContext(q=q)
    eye = np.eye(N)
    assert np.array_equal(_matrix(position_stack(eye)), np.eye(N, k=-1))
    assert np.array_equal(_matrix(derivative_stack(eye, ctx)), np.diag(q_brackets(N - 1, ctx)[1:], k=1))


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_fischer_adjoint_of_position_is_derivative(q):
    ctx = QContext(q=q)
    eye = np.eye(N)
    X, D = _matrix(position_stack(eye)), _matrix(derivative_stack(eye, ctx))
    G = np.diag(q_factorials(N - 1, ctx))
    assert np.array_equal(D.conj().T @ G, G @ X)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_arik_coon_relation(q):
    # DX - qXD = 1 on e_0..e_{N-2}; e_{N-1} leaves the truncation under X
    ctx = QContext(q=q)
    X, D = _matrix(position_stack(np.eye(N))), _matrix(derivative_stack(np.eye(N), ctx))
    rel = D @ X - q * (X @ D)
    assert np.allclose(rel[:, : N - 1], np.eye(N)[:, : N - 1], rtol=0.0, atol=4e-15)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_ladder_pair_is_a_position_momentum_pair(q):
    # since X^dagger = D, (X + D)/sqrt2 is Fischer-self-adjoint and (X - D)/sqrt2 anti-self-adjoint
    ctx = QContext(q=q)
    eye = np.eye(N)
    A, C = _matrix(annihilation_stack(eye, ctx)), _matrix(creation_stack(eye, ctx))
    G = np.diag(q_factorials(N - 1, ctx))
    scale = np.abs(G @ A).max()
    assert np.abs(A.conj().T @ G - G @ A).max() <= 1e-15 * scale
    assert np.abs(C.conj().T @ G + G @ C).max() <= 1e-15 * scale


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_position_momentum_commutator_on_banded_matrices(q):
    # Q = (X + D)/sqrt2, P = i (X - D)/sqrt2 give [Q, P] = i [D, X] = i diag(q^n);
    # truncation to N modes spoils only the last column, where X e_(N-1) leaves
    ctx = QContext(q=q)
    eye = np.eye(N)
    Q = _matrix(annihilation_stack(eye, ctx))
    P = 1j * _matrix(creation_stack(eye, ctx))
    comm = Q @ P - P @ Q
    want = 1j * np.diag(q ** np.arange(N, dtype=float))
    assert np.abs(comm - want)[:, : N - 1].max() <= 4 * np.spacing(np.abs(Q).max() ** 2)
    assert abs(comm[N - 1, N - 1] - want[N - 1, N - 1]) > 1.0
    # both are Fischer self-adjoint: G Q = Q^H G with G = diag([n]!)
    G = np.diag(q_factorials(N - 1, ctx))
    for M in (Q, P):
        assert np.abs(M.conj().T @ G - G @ M).max() <= 1e-15 * np.abs(G @ M).max()


# Worst relative gap to the closed form on the grid below, measured per q
# (4.0e-12, 3.9e-12, 2.5e-10); each bound is 10x that.  q = 0.95 stays out:
# there the gap reaches 2.5e-2 at |(1-q) x u| = 0.81 (an open finding).
_REAL_KERNEL_BOUND = {0.3: 4e-11, 0.5: 4e-11, 0.9: 2.5e-9}


@pytest.mark.parametrize("q", sorted(_REAL_KERNEL_BOUND))
def test_real_axis_kernel_matches_closed_form(q):
    r = 0.9 / math.sqrt(1.0 - q)
    x, u = np.meshgrid(np.linspace(-r, r, 7), np.linspace(-r, r, 7))
    got = kernel_values(x, u, QContext(q=q))[0]
    assert not got.imag.any()
    for xv, uv, v in zip(x.ravel().tolist(), u.ravel().tolist(), got.real.ravel().tolist()):
        want = oracles.kernel_real_mp(xv, uv, q)
        assert abs(v - want) <= _REAL_KERNEL_BOUND[q] * abs(want)
