"""Plane picture: q-analytic monomials, complex q-derivatives, the
z/zbar expansion, complex Hermite polynomials, Gaussian inner products,
dilation grids, elliptic variables."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qcore import DomainError, QContext, q_number
from qcomplex import (
    BivarPoly,
    EllipticVariable,
    ZBarBasisPoly,
    complex_hermite,
    dz,
    dz_rows,
    dz_stack,
    dzbar,
    dzbar_rows,
    dzbar_stack,
    gaussian_gram,
    gaussian_inner,
    hermite_combine,
    hermite_combine_stack,
    hermite_expand,
    hermite_expand_stack,
    mixed_basis_gram,
    modulus_domination_check,
    qgrid_generate,
    zbar_basis_values,
    zq_expansion_coeffs,
    zq_monomial,
    zq_monomials,
    zq_point_values,
    zq_rows,
    zq_stack,
)


def test_monomial_base_cases(ctx05):
    z0 = zq_monomial(0, ctx05)
    assert z0.terms == {(0, 0): 1.0 + 0j}
    z1 = zq_monomial(1, ctx05)
    assert z1.terms[(1, 0)] == 1.0
    assert z1.terms[(0, 1)] == 1j


def test_monomial_matches_subset_enumeration(ctx05):
    # every coefficient is a subset sum of q-powers times a power of i
    for n in range(9):
        ref = oracles.zq_subset_coeffs(n, Fraction(1, 2))
        poly = zq_monomial(n, ctx05)
        assert set(poly.terms) == set(ref)
        for key, (re, im) in ref.items():
            want = complex(float(re), float(im))
            assert poly.terms[key] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_monomial_matches_dict_loop_bit_for_bit(q):
    ctx = QContext(q=q)
    for n in range(31):
        want = [(key, c) for key, c in oracles.zq_monomial_dict(n, q).items() if c != 0]
        assert list(zq_monomial(n, ctx).terms.items()) == want


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_monomial_family_matches_single_monomials_bit_for_bit(q):
    ctx = QContext(q=q)
    family = zq_monomials(30, ctx)
    assert len(family) == 31
    for n, poly in enumerate(family):
        items = list(poly.terms.items())
        assert items == list(zq_monomial(n, ctx).terms.items())
        assert items == [(key, c) for key, c in oracles.zq_monomial_dict(n, q).items() if c != 0]


def test_monomial_point_value_frozen(ctx05):
    assert zq_point_values(1 + 1j, 2, ctx05)[2] == pytest.approx(0.5 + 1.5j, abs=1e-15)


def test_monomial_polynomial_equals_running_product(rng):
    ctx = QContext(q=0.7)
    poly = zq_monomial(5, ctx)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, size=2)
        want = oracles.zq_product_value(complex(x, y), 5, 0.7)
        assert poly(x, y) == pytest.approx(want, rel=1e-12)
        assert zq_point_values(complex(x, y), 5, ctx)[5] == pytest.approx(want, rel=1e-12)


def test_dz_annihilates_constants(ctx05):
    assert dz(BivarPoly({(0, 0): 1.0}), ctx05).max_abs() == 0.0


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_derivatives_act_on_monomial_ladder(q):
    ctx = QContext(q=q)
    for n in range(1, 13):
        zn = zq_monomial(n, ctx)
        assert dzbar(zn, ctx).max_abs() <= 1e-13 * zn.max_abs()
        got = dz(zn, ctx)
        ref = q_number(n, ctx) * zq_monomial(n - 1, ctx)
        assert (got - ref).max_abs() <= 1e-13 * ref.max_abs()


def test_dz_linearity_exact(ctx05, rng):
    def rand_poly():
        return BivarPoly(
            {
                (a, b): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for a in range(5)
                for b in range(5 - a)
            },
            clean=False,
        )

    f, g = rand_poly(), rand_poly()
    alpha = 0.7 - 0.2j
    lhs = dz(alpha * f + g, ctx05)
    rhs = alpha * dz(f, ctx05) + dz(g, ctx05)
    assert (lhs - rhs).max_abs() < 1e-13


@settings(max_examples=20, deadline=None)
@given(
    q=st.sampled_from((0.3, 0.5, 0.9)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_bivar_zbar_round_trip(q, seed):
    ctx = QContext(q=q)
    gen = np.random.default_rng(seed)
    poly = BivarPoly(
        {
            (a, b): complex(gen.uniform(-1, 1), gen.uniform(-1, 1))
            for a in range(11)
            for b in range(11 - a)
        },
        clean=False,
    )
    back = ZBarBasisPoly.from_bivar(poly).to_bivar()
    assert (back - poly).max_abs() <= 1e-12 * poly.max_abs()


def test_expansion_first_layer_weights(ctx05):
    layer = zq_expansion_coeffs(1, ctx05)
    assert layer.terms[(1, 0)] == pytest.approx(0.75, abs=1e-15)
    assert layer.terms[(0, 1)] == pytest.approx(0.25, abs=1e-15)


def test_expansion_coefficients_sum_to_one(ctx05):
    for n in range(1, 16):
        total = sum(c for _, c in zq_expansion_coeffs(n, ctx05).items())
        assert total == pytest.approx(1.0, abs=1e-13)


def test_expansion_rebuilds_monomial_at_points(rng):
    ctx = QContext(q=0.3)
    for n in range(1, 13):
        layer = zq_expansion_coeffs(n, ctx)
        for _ in range(4):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            direct = zq_point_values(z, n + 1, ctx)[n + 1]
            assert z * layer(z) == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


def test_modulus_domination(ctx05, rng):
    rep = modulus_domination_check(2, [(0.0, 1.0)], ctx05)
    assert rep.ok
    assert rep.worst_ratio == pytest.approx(0.5, abs=1e-15)
    samples = [tuple(rng.uniform(-3, 3, 2)) for _ in range(1000)]
    for n in range(1, 11):
        assert modulus_domination_check(n, samples, ctx05).ok


def test_modulus_domination_takes_any_iterable_of_pairs(ctx05, rng):
    pts = rng.uniform(-2, 2, size=(25, 2))
    want = modulus_domination_check(7, pts, ctx05)
    assert modulus_domination_check(7, (tuple(p) for p in pts.tolist()), ctx05) == want
    assert modulus_domination_check(7, pts.tolist(), ctx05) == want
    empty = modulus_domination_check(3, iter(()), ctx05)
    assert empty.ok and empty.samples_checked == 0
    for bad in (rng.uniform(-1, 1, size=(4, 3)), [(0.1, 0.2, 0.3)], [0.1, 0.2]):
        with pytest.raises(DomainError):
            modulus_domination_check(3, bad, ctx05)


def test_complex_hermite_small_cases():
    assert complex_hermite(0, 0).terms == {(0, 0): 1}
    h11 = complex_hermite(1, 1)
    assert h11.terms == {(1, 1): 1, (0, 0): -1}


def test_complex_hermite_matches_explicit_sum():
    for p in range(6):
        for r in range(6):
            ref = oracles.complex_hermite_coeffs(p, r)
            got = complex_hermite(p, r)
            assert {k: complex(v) for k, v in got.terms.items()} == {
                k: complex(v) for k, v in ref.items()
            }


def test_gaussian_inner_moment_rule():
    z = ZBarBasisPoly({(1, 0): 1})
    assert gaussian_inner(z, z) == pytest.approx(math.pi, rel=1e-15)
    h11 = complex_hermite(1, 1)
    assert gaussian_inner(h11, h11) == pytest.approx(math.pi, rel=1e-15)


def test_gaussian_inner_matches_pairing_oracle(rng):
    for _ in range(5):
        keys = [(int(a), int(b)) for a, b in rng.integers(0, 5, size=(3, 2))]
        f = ZBarBasisPoly({k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys})
        g = ZBarBasisPoly({k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys})
        want = oracles.gaussian_pairing(dict(f.items()), dict(g.items()))
        assert gaussian_inner(f, g) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_gaussian_gram_equals_pairwise_inner(rng):
    hermite = [complex_hermite(p, r) for p in range(7) for r in range(7)]
    floats = [
        ZBarBasisPoly({(int(a), int(b)): complex(*rng.uniform(-1, 1, size=2)) for a, b in keys})
        for keys in rng.integers(0, 6, size=(8, 5, 2))
    ]
    assert min(len({a - b for a, b in f.terms}) for f in floats) >= 2
    # mixed lists pair exact members with float ones through the float rule
    for polys in (hermite, floats, hermite[::5] + floats):
        want = np.array([[oracles.gaussian_inner_loop(f.terms, g.terms) for g in polys] for f in polys])
        assert np.array_equal(gaussian_gram(polys), want)
    for f, g in zip(floats, hermite):
        assert gaussian_inner(f, g) == oracles.gaussian_inner_loop(f.terms, g.terms)


def _relative_gap(got, want: dict) -> float:
    gap = max(abs(got.terms.get(k, 0.0) - want.get(k, 0.0)) for k in set(got.terms) | set(want))
    return gap / max(abs(c) for c in want.values())


def test_substitutions_match_power_table_oracle(rng):
    to_zzbar = ({(1, 0): 0.5, (0, 1): 0.5}, {(1, 0): -0.5j, (0, 1): 0.5j})
    to_xy = ({(1, 0): 1.0, (0, 1): 1j}, {(1, 0): 1.0, (0, 1): -1j})

    def random_terms(deg):
        # every monomial of top degree, about half of the lower ones
        return {
            (a, d - a): complex(*rng.normal(size=2))
            for d in range(deg + 1)
            for a in range(d + 1)
            if d == deg or rng.random() < 0.5
        }

    for deg in range(13):
        xy = random_terms(deg)
        got = ZBarBasisPoly.from_bivar(BivarPoly(xy, clean=False))
        assert _relative_gap(got, oracles.substitute_power_table(xy, *to_zzbar)) <= 1e-15
        zz = random_terms(deg)
        got = ZBarBasisPoly(zz, clean=False).to_bivar()
        assert _relative_gap(got, oracles.substitute_power_table(zz, *to_xy)) <= 1e-15


def test_complex_hermite_orthogonality_exact():
    fams = {(p, r): complex_hermite(p, r) for p in range(5) for r in range(5)}
    for (p, r), left in fams.items():
        for (m, n), right in fams.items():
            got = gaussian_inner(left, right)
            want = math.pi * (math.factorial(p) * math.factorial(r)) if (p, r) == (m, n) else 0.0
            assert got == want


def test_hermite_expand_round_trip(ctx05):
    for p in range(7):
        for r in range(7 - p):
            mono = ZBarBasisPoly({(p, r): 1.0})
            back = hermite_combine(hermite_expand(mono))
            assert (back - mono).max_abs() < 1e-10


def test_hermite_expand_of_hermite_is_unit():
    coeffs = hermite_expand(complex_hermite(2, 3))
    assert coeffs.pop((2, 3)) == pytest.approx(1.0, abs=1e-14)
    assert all(abs(c) < 1e-14 for c in coeffs.values())


def test_mixed_gram_degree_one_is_scaled_identity(ctx05):
    rep = mixed_basis_gram(1, ctx05)
    assert rep.labels == ["k=0,h=0", "k=1,h=0", "k=0,h=1"]
    assert np.allclose(rep.matrix, math.pi * np.eye(3), atol=1e-14)


def test_mixed_gram_full_rank(ctx05):
    rep = mixed_basis_gram(4, ctx05)
    assert rep.matrix.shape == (15, 15)
    assert rep.rank == 15
    assert rep.min_eig > 0.0


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
@pytest.mark.parametrize("N", (4, 6, 8))
def test_mixed_gram_matches_pairwise_expansion(q, N):
    rep = mixed_basis_gram(N, QContext(q=q))
    labels, want = oracles.mixed_gram_pairwise(N, q)
    want = np.array(want)
    assert rep.labels == labels
    assert np.abs(rep.matrix - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(rep.matrix, rep.matrix.conj().T)


def test_mixed_gram_classical_limit():
    """Entrywise approach to the undeformed monomial Gram at q near 1.

    The classical pairing of z^k zbar^h against z^m zbar^n under the
    plane Gaussian is pi (k+n)! when k+n = h+m and zero otherwise; at
    q = 0.999 the deformed Gram should sit within 1e-2 of it, measured
    against the largest classical entry.
    """
    rep = mixed_basis_gram(3, QContext(q=0.999))
    pairs = [tuple(int(s.split("=")[1]) for s in lab.split(",")) for lab in rep.labels]
    classical = np.empty(rep.matrix.shape, dtype=complex)
    for a, (k, h) in enumerate(pairs):
        for b, (m, n) in enumerate(pairs):
            classical[a, b] = oracles.gaussian_pairing({(k, h): 1}, {(m, n): 1})
    scale = np.abs(classical).max()
    assert np.abs(rep.matrix - classical).max() < 1e-2 * scale


def test_grid_depth_zero_is_seed(ctx05):
    grid = qgrid_generate([(2.0, 3.0)], 0, ctx05)
    assert tuple(grid.points) == ((2.0, 3.0),)


def test_grid_depth_one_hand_enumeration(ctx05):
    grid = qgrid_generate([(1.0, 1.0)], 1, ctx05)
    assert set(grid.points) == {(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0)}
    assert grid.count_before_dedup == 4


def test_grid_figure_configuration_count():
    seeds = [(x, y) for y in (1.2, 1.0, 0.8) for x in (9.8, 10.0, 10.2)]
    grid = qgrid_generate(seeds, 6, QContext(q=0.6))
    assert grid.count_before_dedup == len(seeds) * 49
    assert len(grid.points) == 441


def test_grid_duplicate_seeds_collapse(ctx05):
    grid = qgrid_generate([(1.0, 1.0), (1.0, 1.0)], 1, ctx05)
    assert grid.count_before_dedup == 8
    assert len(grid.points) == 4


def test_grid_closure_under_both_dilations(ctx05):
    grid = qgrid_generate([(4.0, 4.0)], 3, ctx05)
    pts = set(grid.points)
    for b1 in range(3):
        for b2 in range(3):
            assert (4.0 * 0.5**b1, 4.0 * 2.0**b2) in pts


def test_elliptic_variable_modulus():
    ev = EllipticVariable(p=2.0, x=3.0, y=4.0)
    assert ev.modulus == pytest.approx(math.hypot(3.0, 8.0), rel=1e-15)
    assert ev.value == complex(3.0, 8.0)
    plain = EllipticVariable(p=1.0, x=1.0, y=1.0)
    assert plain.modulus == pytest.approx(math.sqrt(2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# dense arrays against the dict-keyed term loops they replaced


def _seeded_terms(gen, deg: int) -> dict:
    """Complex coefficients on every (a, b) with a + b <= deg, a-major order."""
    return {
        (a, b): complex(*gen.uniform(-1, 1, size=2)) for a in range(deg + 1) for b in range(deg + 1 - a)
    }


def _in_term_order(poly) -> dict:
    return dict(poly.items())


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_complex_derivatives_equal_dict_loop_on_monomials(q):
    ctx = QContext(q=q)
    stack = zq_stack(30, ctx)
    for sign, op, op_stack in ((-1.0, dz, dz_stack), (+1.0, dzbar, dzbar_stack)):
        on_stack = op_stack(stack, ctx)
        for n, zn in enumerate(zq_monomials(30, ctx)):
            want = oracles.complex_derivative_dict(zn.terms, sign, q)
            assert op(zn, ctx).terms == want
            assert BivarPoly(on_stack[n], clean=False).terms == want


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_complex_derivatives_equal_dict_loop_on_seeded_polynomials(q):
    ctx = QContext(q=q)
    gen = np.random.default_rng(int(q * 10))
    polys = [BivarPoly(_seeded_terms(gen, deg), clean=False) for deg in (0, 1, 4, 6, 10)]
    for sign, op, op_stack in ((-1.0, dz, dz_stack), (+1.0, dzbar, dzbar_stack)):
        for poly in polys:
            want = oracles.complex_derivative_dict(poly.terms, sign, q)
            assert op(poly, ctx).terms == want
            # the a-major insertion order of the dict loop gives the same values
            assert op(poly, ctx).terms == oracles.complex_derivative_dict(
                dict(sorted(poly.terms.items())), sign, q
            )
        stack = np.array([np.pad(p.c, ((0, 11 - p.c.shape[0]), (0, 11 - p.c.shape[1]))) for p in polys])
        for poly, got in zip(polys, op_stack(stack, ctx)):
            assert BivarPoly(got, clean=False).terms == oracles.complex_derivative_dict(poly.terms, sign, q)


def test_arithmetic_equals_dict_loop(rng):
    f = BivarPoly(_seeded_terms(rng, 5), clean=False)
    g = BivarPoly({k: v for k, v in _seeded_terms(rng, 7).items() if k[0] % 2}, clean=False)
    ft, gt = _in_term_order(f), _in_term_order(g)
    assert (f + g).terms == oracles.pair_add(ft, gt)
    assert (f - g).terms == oracles.pair_add(ft, gt, -1)
    for s in (0.7 - 0.2j, -1j, 2.5, 3, 0):
        assert (s * f).terms == oracles.pair_scale(ft, s)
    assert (f * g).terms == oracles.pair_mul(ft, gt)
    assert (g * f).terms == oracles.pair_mul(gt, ft)
    zfac = BivarPoly({(1, 0): 1.0, (0, 1): 1j})
    zn = zq_monomial(9, QContext(q=0.3))
    assert (zfac * zn).terms == oracles.pair_mul(_in_term_order(zfac), _in_term_order(zn))


def test_terms_are_ordered_by_degree_then_b(rng):
    keys = [(int(a), int(b)) for a, b in rng.integers(0, 9, size=(40, 2))]
    poly = BivarPoly({k: complex(*rng.normal(size=2)) for k in keys}, clean=False)
    assert list(poly.terms) == oracles.pair_degree_order(poly.terms)
    assert [k for k, _ in poly.items()] == list(poly.terms)
    # a zero coefficient is no term
    assert BivarPoly({(2, 0): 0.0, (0, 1): 1.0}).terms == {(0, 1): 1.0}
    assert BivarPoly().terms == {} and BivarPoly().max_abs() == 0.0


def test_coefficient_arrays_are_read_only():
    poly = zq_monomial(4, QContext(q=0.5))
    with pytest.raises(ValueError):
        poly.c[0, 0] = 1.0


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_substitution_matches_row_loop(q):
    # complex-roundtrip moved with the image-matrix product; bound the move
    gen = np.random.default_rng(int(q * 100))
    to_zzbar = ((0.5, 0.5), (-0.5j, 0.5j))
    to_xy = ((1.0, 1j), (1.0, -1j))
    for deg in range(13):
        for cls, forms, convert in (
            (BivarPoly, to_zzbar, ZBarBasisPoly.from_bivar),
            (ZBarBasisPoly, to_xy, ZBarBasisPoly.to_bivar),
        ):
            src = cls(_seeded_terms(gen, deg), clean=False)
            want = oracles.substitute_rows(_in_term_order(src), *forms)
            assert _relative_gap(convert(src), want) <= 1e-15


def test_hermite_combine_equals_term_loop(rng):
    for _ in range(5):
        coeffs = {
            (int(p), int(r)): complex(*rng.normal(size=2)) for p, r in rng.integers(0, 7, size=(6, 2))
        }
        want = {}
        for (p, r), c in coeffs.items():
            want = oracles.pair_add(want, oracles.pair_scale(oracles.complex_hermite_coeffs(p, r), c))
        assert hermite_combine(coeffs).terms == want


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_row_derivatives_equal_the_coefficient_cube(q):
    # every nonzero coefficient of dz / dzbar Z_n, n <= 30, bit for bit
    ctx = QContext(q=q)
    rows = zq_rows(30, ctx)
    cube = zq_stack(30, ctx)
    # output row n holds the derivative of Z_n: degree n - 1, entries b < n
    n = np.concatenate([np.full(k, k) for k in range(1, 31)])
    b = np.concatenate([np.arange(k) for k in range(1, 31)])
    for on_rows, on_cube in ((dz_rows, dz_stack), (dzbar_rows, dzbar_stack)):
        got, want = on_rows(rows, ctx), on_cube(cube, ctx)
        assert got.shape == (31, 30)
        assert np.array_equal(got[n, b], want[n, n - 1 - b, b])
        off = np.ones(want.shape, dtype=bool)
        off[n, n - 1 - b, b] = False
        assert not want[off].any()
        # entries past each output row's degree are zero
        assert not got[np.arange(30) >= np.arange(31)[:, np.newaxis]].any()


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_zq_rows_are_cached_read_only_and_size_independent(q):
    ctx = QContext(q=q)
    small, big = zq_rows(7, ctx), zq_rows(40, ctx)
    assert small.shape == (8, 8) and not small.flags.writeable
    assert np.array_equal(small, big[:8, :8])
    stack = zq_stack(12, ctx)
    for n in range(13):
        want = oracles.zq_monomial_dict(n, q)
        assert big[n, : n + 1].tolist() == [want[(n - b, b)] for b in range(n + 1)]
        assert not big[n, n + 1 :].any()
        assert BivarPoly(stack[n], clean=False).terms == {k: v for k, v in want.items() if v != 0}


@pytest.mark.parametrize("seed", range(4))
def test_hermite_maps_equal_dict_loops(seed):
    # expand adds each output's terms by ascending degree, as the dict loop
    # does over degree-ordered terms; combine adds them in the order of its
    # dict, whatever that order is: both bit-equal
    gen = np.random.default_rng(seed)
    for deg in (0, 1, 3, 6, 9):
        terms = _seeded_terms(gen, deg)
        ordered = dict(ZBarBasisPoly(terms, clean=False).items())
        assert hermite_expand(ZBarBasisPoly(terms, clean=False)) == oracles.hermite_expand_loop(ordered)
        assert hermite_combine(ordered).terms == oracles.hermite_combine_loop(ordered)
        assert hermite_combine(terms).terms == oracles.hermite_combine_loop(terms)
        keys = list(terms)
        shuffled = {keys[i]: terms[keys[i]] for i in gen.permutation(len(keys))}
        assert hermite_combine(shuffled).terms == oracles.hermite_combine_loop(shuffled)


@pytest.mark.parametrize("terms", ({(171, 0): 1.5 - 2j}, {(40, 2): 1.0 + 0j}, {(0, 90): -3.0j, (2, 120): 0.5 + 0j}, {(100, 0): 1.0 + 0j, (0, 100): 2.0 + 0j}))
def test_hermite_maps_on_sparse_high_degree_input(terms):
    # the weight table is no larger than the box times the deepest diagonal
    # a nonzero input reaches; z^171 needs no weight past float64
    poly = ZBarBasisPoly(terms, clean=False)
    expanded = hermite_expand(poly)
    assert expanded == oracles.hermite_expand_loop(dict(poly.items()))
    assert hermite_combine(expanded).terms == oracles.hermite_combine_loop(expanded)
    assert hermite_combine(terms).terms == oracles.hermite_combine_loop(terms)


def test_hermite_maps_refuse_weights_past_float64():
    # 171! is a weight of z^171 zbar^171, as in the term loop
    with pytest.raises(OverflowError):
        oracles.hermite_expand_loop({(171, 171): 1.0 + 0j})
    with pytest.raises(OverflowError):
        hermite_expand(ZBarBasisPoly({(171, 171): 1.0 + 0j}, clean=False))


def test_hermite_stacks_equal_one_polynomial_at_a_time(rng):
    polys = [ZBarBasisPoly(_seeded_terms(rng, deg), clean=False) for deg in (2, 5, 6)]
    stack = np.array([np.pad(p.c, ((0, 7 - p.c.shape[0]), (0, 7 - p.c.shape[1]))) for p in polys])
    expanded = hermite_expand_stack(stack)
    for p, row in zip(polys, expanded):
        assert ZBarBasisPoly(row, clean=False).terms == hermite_expand(p)
    for p, row in zip(polys, hermite_combine_stack(expanded)):
        assert ZBarBasisPoly(row, clean=False).terms == hermite_combine(hermite_expand(p)).terms


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_array_evaluations_equal_one_point_calls(q):
    ctx = QContext(q=q)
    gen = np.random.default_rng(int(q * 10))
    pts = gen.uniform(-1.5, 1.5, size=(7, 2))
    x, y = pts[:, 0], pts[:, 1]
    z = x + 1j * y
    for deg in (0, 3, 8):
        bp = BivarPoly(_seeded_terms(gen, deg), clean=False)
        zp = ZBarBasisPoly(_seeded_terms(gen, deg), clean=False)
        got_b, got_z = bp(x, y), zp(z)
        for k, (xv, yv, zv) in enumerate(zip(x.tolist(), y.tolist(), z.tolist())):
            assert got_b[k] == bp(xv, yv) == oracles.bivar_eval_running(dict(bp.items()), xv, yv)
            assert got_z[k] == zp(zv) == oracles.zbar_eval_running(dict(zp.items()), zv)
            # Python's pow rounds the powers differently
            assert abs(got_b[k] - oracles.bivar_eval_pow(dict(bp.items()), xv, yv)) <= 1e-14 * (1 + abs(got_b[k]))
            assert abs(got_z[k] - oracles.zbar_eval_pow(dict(zp.items()), zv)) <= 1e-14 * (1 + abs(got_z[k]))
    # a stack of polynomials, each at its own points
    layers = [zq_expansion_coeffs(n, ctx) for n in (1, 4, 9)]
    stack = np.array([np.pad(p.c, ((0, 10 - p.c.shape[0]), (0, 10 - p.c.shape[1]))) for p in layers])
    pts3 = z[:6].reshape(3, 2)
    vals = zbar_basis_values(stack[:, np.newaxis], pts3)
    assert vals.shape == (3, 2)
    for p, row, zrow in zip(layers, vals, pts3):
        assert np.array_equal(row, p(zrow))


def test_batched_draws_equal_one_at_a_time():
    # the suite's stacked draws give the same values and leave the same state
    for size, lo, hi in (((12, 3, 2), -1, 1), ((25, 2), -2, 2)):
        one, batch = np.random.default_rng(77), np.random.default_rng(77)
        want = np.array([one.uniform(lo, hi) for _ in range(int(np.prod(size)))]).reshape(size)
        assert np.array_equal(batch.uniform(lo, hi, size=size), want)
        assert one.bit_generator.state == batch.bit_generator.state
