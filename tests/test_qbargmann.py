"""Node-function transform onto the Fock coefficient model: basis
images, unitarity, coherent states, and the two-variable version."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from qcore import DomainError, QContext, q_factorial, support_halfwidth
import qbargmann
from qbargmann import (
    JacksonFunction,
    bargmann_basis_image,
    bargmann_forward,
    bargmann_unitarity_gram,
    build_kernel_table,
    coherent_overlap,
    coherent_state,
    tensor_basis,
    tensor_forward,
    tensor_unitarity_gram,
)
from qcomplex import zq_point_values
from qfock import fischer_inner, kernel_eval
from qhermite import qhermite_function

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def table05():
    return build_kernel_table(QContext(q=0.5), modes=10)


def random_span(table, span, gen):
    coeffs = gen.normal(size=span + 1) + 1j * gen.normal(size=span + 1)
    vals = np.tensordot(coeffs, table.hvals[: span + 1], axes=(0, 0))
    return JacksonFunction(vals, table.ctx), coeffs


def test_table_modes_clamped_by_ceiling():
    table = build_kernel_table(QContext(q=0.5), modes=200)
    assert table.modes == 12


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_table_rows_equal_mode_functions_exactly(q):
    ctx = QContext(q=q)
    table = build_kernel_table(ctx)
    stacked = np.stack([qhermite_function(n, ctx) for n in range(table.modes + 1)])
    assert np.array_equal(table.hvals, stacked)
    weights = (1.0 - q) * support_halfwidth(ctx) * q ** np.arange(table.level + 1)
    assert np.array_equal(table.proj, table.hvals * weights)


def test_context_route_is_cached():
    ctx = QContext(q=0.5)
    assert qbargmann._ensure_table(ctx) is qbargmann._ensure_table(ctx)


def test_rejects_weird_handle(table05):
    with pytest.raises(DomainError):
        qbargmann._ensure_table("not a context")


def test_mode_functions_are_orthonormal(table05):
    for n in range(table05.modes + 1):
        fn = table05.mode_function(n)
        for m in range(n, table05.modes + 1):
            want = 1.0 if n == m else 0.0
            assert fn.inner(table05.mode_function(m)) == pytest.approx(want, abs=1e-7)


def test_inner_matches_explicit_jackson_sum(table05, rng):
    u, _ = random_span(table05, 6, rng)
    v, _ = random_span(table05, 6, rng)
    q = table05.ctx.q
    lam = 1.0 / math.sqrt(1.0 - q * q)
    total = 0.0 + 0.0j
    for j in range(table05.level + 1):
        wj = (1.0 - q) * lam * q**j
        total += wj * (
            u.values[0, j] * np.conj(v.values[0, j]) + u.values[1, j] * np.conj(v.values[1, j])
        )
    assert u.inner(v) == pytest.approx(total, rel=1e-12)


def test_basis_image_is_normalized_monomial(table05):
    for m in range(11):
        img = bargmann_basis_image(m, table05)
        want = 1.0 / math.sqrt(q_factorial(m, table05.ctx))
        for n, c in enumerate(img.coeffs):
            target = want if n == m else 0.0
            assert c == pytest.approx(target, abs=1e-7)


@pytest.mark.parametrize("q", (0.5, 0.9))
def test_forward_matches_extended_precision_jackson_sum(q, rng):
    table = build_kernel_table(QContext(q=q))
    f, _ = random_span(table, table.modes, rng)
    got = bargmann_forward(f, table).coeffs
    nodes = 2 * (table.level + 1)
    with mpmath.workdps(50):
        qq = mpmath.mpf(q)
        scale = (1 - qq) / mpmath.sqrt(1 - qq * qq)
        weights = [scale * qq**j for j in range(table.level + 1)] * 2
        fvals = [mpmath.mpc(v) for v in f.values.reshape(-1)]
        fact = mpmath.mpf(1)
        for n in range(table.modes + 1):
            if n:
                fact *= (1 - qq**n) / (1 - qq)
            terms = [w * v * mpmath.mpf(h) for w, v, h in zip(weights, fvals, table.hvals[n].reshape(-1))]
            want = complex(mpmath.fsum(terms) / mpmath.sqrt(fact))
            mag = float(mpmath.fsum(abs(t) for t in terms) / mpmath.sqrt(fact))
            # float64 dot of `nodes` terms with ulp-accurate weights: gamma_N bound
            assert abs(got[n] - want) <= (nodes + 8) * EPS * mag


def test_forward_is_linear(table05, rng):
    u, _ = random_span(table05, 8, rng)
    v, _ = random_span(table05, 8, rng)
    alpha = 0.3 - 1.1j
    lhs = bargmann_forward(u.scaled(alpha) + v, table05)
    ru = bargmann_forward(u, table05)
    rv = bargmann_forward(v, table05)
    for a, bu, bv in zip(lhs.coeffs, ru.coeffs, rv.coeffs):
        assert a == pytest.approx(alpha * bu + bv, abs=1e-10)


def test_forward_isometry_and_parseval(table05, rng):
    for _ in range(10):
        u, _ = random_span(table05, 8, rng)
        v, _ = random_span(table05, 8, rng)
        Bu, Bv = bargmann_forward(u, table05), bargmann_forward(v, table05)
        assert fischer_inner(Bu, Bv) == pytest.approx(u.inner(v), abs=1e-7 * (1 + abs(u.inner(v))))
        assert Bu.norm_sq() == pytest.approx(u.inner(u).real, rel=1e-7)


def test_unitarity_gram_sizes_and_identity(table05):
    one = bargmann_unitarity_gram(0, table05)
    assert one.matrix.shape == (1, 1)
    assert one.matrix[0, 0] == pytest.approx(1.0, abs=1e-7)
    g8 = bargmann_unitarity_gram(8, table05)
    assert g8.max_dev < 1e-7
    assert g8.labels[0] == "h0"


def test_unitarity_gram_matches_pairwise_fischer_loop(table05):
    rep = bargmann_unitarity_gram(8, table05)
    imgs = [bargmann_basis_image(m, table05) for m in range(9)]
    want = np.array([[fischer_inner(a, b) for b in imgs] for a in imgs])
    assert rep.matrix.dtype == complex
    assert np.max(np.abs(rep.matrix - want)) <= 64 * EPS


def test_coherent_state_matches_explicit_mode_sum(table05):
    z = 0.7 - 0.4j
    got = coherent_state(z, table05).values
    want = np.zeros_like(got)
    mag = np.zeros(got.shape)
    for n in range(table05.modes + 1):
        c = oracles.zq_product_value(z, n, 0.5) / math.sqrt(oracles.qfact_frac(n, Fraction(1, 2)))
        want += c * table05.hvals[n]
        mag += abs(c) * np.abs(table05.hvals[n])
    assert np.all(np.abs(got - want) <= 64 * EPS * mag)


def test_coherent_state_at_origin_is_ground_mode(table05):
    phi = coherent_state(0.0, table05)
    ground = table05.mode_function(0)
    assert np.max(np.abs(phi.values - ground.values)) < 1e-12


def test_coherent_projections_match_monomial_values(table05):
    z = 0.4 + 0.3j
    phi = coherent_state(z, table05)
    for n in range(9):
        got = phi.inner(table05.mode_function(n))
        want = zq_point_values(z, n, table05.ctx)[n] / math.sqrt(q_factorial(n, table05.ctx))
        assert got == pytest.approx(want, abs=1e-7)


def test_coherent_state_rejects_inadmissible_point(table05):
    with pytest.raises(DomainError):
        coherent_state(2.5, table05)


def test_coherent_overlap_reproduces_kernel(table05, rng):
    ctx = table05.ctx
    for _ in range(6):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        assert coherent_overlap(z, w, table05) == pytest.approx(
            kernel_eval(z, w, ctx).value, abs=1e-6
        )


def test_tensor_zero_maps_to_zero(table05):
    J = table05.level
    out = tensor_forward(np.zeros((2, J + 1, 2, J + 1), dtype=complex), table05)
    assert np.all(out.matrix == 0.0)


def test_tensor_basis_images_are_unit_entries(table05):
    for a in range(6):
        for b in range(6):
            got = tensor_forward(tensor_basis(a, b, table05), table05).matrix
            want = np.zeros_like(got)
            want[a, b] = 1.0
            assert np.max(np.abs(got - want)) < 1e-7


def test_tensor_shape_is_validated(table05):
    with pytest.raises(DomainError):
        tensor_forward(np.zeros((2, 3, 2, 3), dtype=complex), table05)


def test_tensor_factorizes_product_functions(table05, rng):
    u, _ = random_span(table05, 4, rng)
    v, _ = random_span(table05, 4, rng)
    F = np.einsum("sj,tk->sjtk", u.values, v.values)
    got = tensor_forward(F, table05).matrix
    cu = np.array([u.inner(table05.mode_function(n)) for n in range(table05.modes + 1)])
    cv = np.array([v.inner(table05.mode_function(n)) for n in range(table05.modes + 1)])
    assert np.max(np.abs(got - np.outer(cu, cv))) < 1e-8


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_tensor_forward_matches_complex_tensordot(q, rng):
    table = build_kernel_table(QContext(q=q), modes=10)
    n = 2 * (table.level + 1)
    p_abs = np.abs(table.proj.reshape(table.modes + 1, n))
    shape = (2, table.level + 1) * 2
    real = rng.normal(size=shape)
    for F in (real, real + 1j * rng.normal(size=shape), tensor_basis(2, 1, table)):
        got = tensor_forward(F, table).matrix
        want = oracles.tensor_forward_tensordot(table.proj, F)
        # relative to |P| |F| |P|^T, the scale of a dot product's rounding
        scale = p_abs @ np.abs(F).reshape(n, n) @ p_abs.T
        assert got.dtype == complex
        assert np.max(np.abs(got - want) / scale) <= 1e-15


def test_tensor_gram_matches_pairwise_inner_loop(table05):
    """kron(G, G) of the 1-D images equals the Gram of the dense per-pair images.

    The entries are near 1; the dense contraction rounds a few ulps apart
    from the factored one (2.2e-15 at q = 0.7, J = 400).
    """
    tables = [table05] + [build_kernel_table(QContext(q=q), modes=6) for q in (0.3, 0.7, 0.9)]
    for table, kmax in zip(tables, (2, 3, 3, 2)):
        rep = tensor_unitarity_gram(kmax, table)
        want = oracles.tensor_gram_pairwise(table.proj, table.hvals, kmax)
        assert rep.matrix.shape == want.shape
        assert np.max(np.abs(rep.matrix - want)) <= 16 * EPS


def test_tensor_unitarity_gram(table05):
    rep = tensor_unitarity_gram(3, table05)
    assert rep.matrix.shape == (16, 16)
    assert rep.max_dev < 1e-6
    assert rep.labels[0] == "h0xh0"
