"""Exact bivariate polynomial machinery for the plane picture.

Carries the q-analytic monomials ``Z_n(x, y) = prod_{l<n} (x + i q^l y)``,
the complex q-derivatives, the z/zbar expansion layer, complex Hermite
polynomials with their Gaussian inner product, (q, 1/q)-dilation grids, and
elliptic complex variables.

Polynomials are dense complex arrays c[a, b], entry (a, b) multiplying
x^a y^b (or z^a zbar^b).  Sums, differences and scalar multiples are
elementwise; a product adds one shifted, scaled copy of the second factor
per nonzero term of the first, in term order (total degree, then b).
After every product, coefficients at or below 1e-14 of the largest one are
set to zero so that identities that should give the zero polynomial
actually do.  Complex products are rounded as Python's complex multiply
rounds them (separate real products), so every coefficient equals the one
a term-by-term loop gives, on every SIMD path.

dz and dzbar are two shifted scalings of the coefficient array and act on
the last two axes, so a stack of polynomials goes through one call.

Z_n is homogeneous of degree n, so its coefficients are one degree row:
``zq_rows`` serves Z_0..Z_n as a read-only (n+1) x (n+1) table, entry
[k, b] on x^(k-b) y^b, and the z/zbar rows of the same products (behind
the expansion layers and the mixed Gram) come from a sibling table; both
are cached per (q, n) (``lru_cache`` of 32, at least 33 x 33) and built by
a running convolution, so row k has the same bits for every n.  On a
degree row the x-part of dz / dzbar keeps its index and the y-part moves
down by one (``dz_rows``); every nonzero coefficient gets the products of
the (a, b)-array derivative, bit for bit.

Polynomials evaluate on arrays of points: powers are running products,
complex products round as Python's, and terms add in term order, so an
array evaluation equals the one-point call.  The complex Hermite expand
and combine maps are triangular and share one weight table up to sign,
cached per box and per largest diagonal used (``lru_cache`` of 8) and
applied to whole stacks; each output adds its terms in the order the term
loop did.

The x,y <-> z,zbar substitutions map each variable to a linear form, so the
image of a degree-d monomial is a homogeneous coefficient row; the rows of
every degree form one cached block-diagonal image matrix, and a
substitution is one matrix product.  ``gaussian_gram`` pairs a whole list
of polynomials at once, visiting only term pairs of equal sector a - b,
the only ones the moment rule keeps.

The mixed-family Gram does not go through these arrays.  Since
x + i q^l y = A_l z + B_l zbar with A_l = (1+q^l)/2, B_l = (1-q^l)/2,
the z/zbar coefficients of Z_k are a 1-D convolution of the linear
factors and those of conj(Z_h) are the same list reversed, so every
member Z_k conj(Z_h) is one dense coefficient row and the Gram is a
product with the Gaussian moment matrix.

What "L^2 realisation" means here: the Gaussian L^2 Gram of Z_1..Z_6 is
far from diagonal (its largest normalised off-diagonal entry is 0.90 at
q = 0.3 and 0.5), so the Fischer norm is not carried isometrically into
L^2(C, e^{-|z|^2}).  The code checks the basis property instead: the
mixed family Z_k conj(Z_h) has a nonsingular Gaussian Gram
(``mixed_basis_gram``).  Whether the paper claims more is unconfirmed;
only its abstract is at hand.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from qcore import DomainError, QContext, q_brackets

__all__ = [
    "BivarPoly",
    "ZBarBasisPoly",
    "QGrid",
    "EllipticVariable",
    "DominationReport",
    "zq_monomial",
    "zq_monomials",
    "zq_stack",
    "zq_rows",
    "zq_point_values",
    "zbar_basis_values",
    "dz",
    "dzbar",
    "dz_stack",
    "dzbar_stack",
    "dz_rows",
    "dzbar_rows",
    "zq_expansion_coeffs",
    "modulus_domination_check",
    "complex_hermite",
    "gaussian_inner",
    "gaussian_gram",
    "hermite_expand",
    "hermite_combine",
    "hermite_expand_stack",
    "hermite_combine_stack",
    "mixed_basis_gram",
    "qgrid_generate",
]

_CLEAN = 1e-14

Pair = Tuple[int, int]


def _cmul(x, y) -> np.ndarray:
    """x * y for complex arrays or scalars, rounded as Python's complex product rounds it.

    numpy's complex multiply may fuse a product into the subtraction (FMA
    SIMD paths), which moves the last bit; separate real products do not.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    re = x.real * y.real - x.imag * y.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _fit(c: np.ndarray, shape: Pair) -> np.ndarray:
    """c zero-padded or cut (past its nonzero entries) to the trailing shape."""
    if c.shape[-2:] == tuple(shape):
        return c
    out = np.zeros(c.shape[:-2] + tuple(shape), dtype=complex)
    A, B = min(c.shape[-2], shape[0]), min(c.shape[-1], shape[1])
    out[..., :A, :B] = c[..., :A, :B]
    return out


def _array_of(items: list, shape: Pair | None = None) -> np.ndarray:
    """The coefficient array holding the ((a, b), value) terms; by default just large enough."""
    if shape is None:
        shape = (max((a for (a, _), _ in items), default=0) + 1, max((b for (_, b), _ in items), default=0) + 1)
    c = np.zeros(shape, dtype=complex)
    for key, v in items:
        c[key] = v
    return c


def _abs(c: np.ndarray) -> np.ndarray:
    # np.hypot is what abs() of a Python complex computes
    return np.hypot(c.real, c.imag)


class _PairPoly:
    """Dense polynomial: c[a, b] multiplies the monomial of exponent pair (a, b).

    ``terms`` and ``items()`` are read views of the nonzero coefficients,
    ordered by total degree a + b, then by b.
    """

    __slots__ = ("c", "_items")

    def __init__(self, terms=None, clean: bool = True):
        if isinstance(terms, np.ndarray):
            c = np.array(terms, dtype=complex)
            if c.ndim != 2 or not c.size:
                raise DomainError("coefficient array must be two-dimensional and nonempty")
            if clean:
                mag = _abs(c)
                c[mag <= _CLEAN * mag.max()] = 0.0
            self._set(c)
        else:
            terms = {(int(a), int(b)): complex(v) for (a, b), v in (terms or {}).items() if v != 0}
            if any(a < 0 or b < 0 for a, b in terms):
                raise DomainError("exponents must be nonnegative")
            if clean and terms:
                cap = max(abs(v) for v in terms.values())
                terms = {k: v for k, v in terms.items() if abs(v) > _CLEAN * cap}
            items = sorted(terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))
            self._set(_array_of(items), items)

    def _set(self, c: np.ndarray, items: list | None = None) -> None:
        c.flags.writeable = False
        self.c = c
        self._items = items

    @classmethod
    def _wrap(cls, c: np.ndarray, items: list | None = None):
        """An instance holding c as it is, uncleaned; ``items``, when given, must be its term list."""
        out = cls.__new__(cls)
        out._set(c, items)
        return out

    @classmethod
    def _homogeneous(cls, row: np.ndarray):
        """The degree-n polynomial whose (n - b, b) coefficient is row[b], n = len(row) - 1."""
        row = np.asarray(row, dtype=complex)
        n = row.size - 1
        b = np.arange(n + 1)
        c = np.zeros((n + 1, n + 1), dtype=complex)
        c[n - b, b] = row
        return cls._wrap(c, [((n - j, j), v) for j, v in enumerate(row.tolist()) if v != 0])

    def items(self) -> list:
        if self._items is None:
            a, b = np.nonzero(self.c)
            al, bl = a.tolist(), b.tolist()
            # (degree, b) is unique per term, so the values are never compared
            order = sorted(zip(map(operator.add, al, bl), bl, al, self.c[a, b].tolist()))
            self._items = [((x, y), v) for _, y, x, v in order]
        return self._items

    @property
    def terms(self) -> Dict[Pair, complex]:
        return dict(self.items())

    def max_abs(self) -> float:
        return float(_abs(self.c).max())

    def _binop(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        shape = (max(self.c.shape[0], other.c.shape[0]), max(self.c.shape[1], other.c.shape[1]))
        a, b = _fit(self.c, shape), _fit(other.c, shape)
        return self._wrap(a + b if sign > 0 else a - b)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            if other == 0:
                return type(self)()
            # a real factor scales both parts, as Python's complex product does
            return self._wrap(self.c * other.real if other.imag == 0 else _cmul(self.c, other))
        if not isinstance(other, type(self)):
            return NotImplemented
        # shifted copies of other, one per nonzero term of self, in term order
        A, B = other.c.shape
        out = np.zeros((self.c.shape[0] + A - 1, self.c.shape[1] + B - 1), dtype=complex)
        for (a, b), v in self.items():
            out[a : a + A, b : b + B] += _cmul(other.c, v)
        return type(self)(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        a, b = np.nonzero(self.c)
        return int((a + b).max()) if a.size else 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


def _running_powers(x: np.ndarray, deg: int) -> np.ndarray:
    """x^0..x^deg for a real array x, stacked on a new first axis, each the previous one times x."""
    out = np.empty((deg + 1,) + x.shape)
    out[0] = 1.0
    for m in range(deg):
        out[m + 1] = out[m] * x
    return out


def _running_product(x: np.ndarray, ys) -> np.ndarray:
    """1 and the running products of the factors x + i ys[l], stacked on a new first axis.

    Each product is rounded as Python's complex product rounds it; the
    parts are kept in separate contiguous arrays, which numpy multiplies
    faster than the strided parts of a complex array.
    """
    x = np.ascontiguousarray(x, dtype=float)
    re = np.empty((len(ys) + 1,) + x.shape)
    im = np.empty_like(re)
    re[0] = 1.0
    im[0] = 0.0
    for l, y in enumerate(ys):
        a, b = re[l], im[l]
        re[l + 1] = a * x - b * y
        im[l + 1] = a * y + b * x
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _term_positions(c: np.ndarray):
    """Exponent pairs (a, b) nonzero in any array of the stack c, in term order (degree, then b)."""
    a, b = np.nonzero(np.any(c != 0, axis=tuple(range(c.ndim - 2))))
    order = np.lexsort((b, a + b))
    return a[order], b[order]


def _term_sum(terms: np.ndarray):
    """Sum over the first axis, one term after another, as a term loop adds."""
    if not terms.shape[0]:
        return np.zeros(terms.shape[1:], dtype=complex)
    return np.cumsum(terms, axis=0)[-1]


class BivarPoly(_PairPoly):
    """Polynomial in the real coordinates (x, y); key (a, b) means x^a y^b."""

    def __call__(self, x, y):
        """The value at (x, y), or at every point of the broadcast arrays x, y.

        Each term is (c x^a) y^b with the powers taken as running products;
        the terms add in term order.  A scalar point gives a complex.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        a, b = _term_positions(self.c)
        c = self.c[a, b].reshape((-1,) + (1,) * x.ndim)
        xp = _running_powers(x, int(a.max(initial=0)))[a]
        yp = _running_powers(y, int(b.max(initial=0)))[b]
        terms = np.empty(xp.shape, dtype=complex)
        # a real factor scales both parts, as Python's complex product does
        terms.real = c.real * xp * yp
        terms.imag = c.imag * xp * yp
        vals = _term_sum(terms)
        return complex(vals) if vals.ndim == 0 else vals


class ZBarBasisPoly(_PairPoly):
    """Polynomial in (z, zbar); key (i, j) means z^i zbar^j."""

    def __call__(self, z):
        """The value at z, or at every point of the complex array z (see :func:`zbar_basis_values`).

        A scalar point gives a complex.
        """
        vals = zbar_basis_values(self.c, z)
        return complex(vals) if vals.ndim == 0 else vals

    def to_bivar(self) -> BivarPoly:
        """Substitute z = x + iy, zbar = x - iy."""
        return _substitute(self, (1.0, 1j), (1.0, -1j), BivarPoly)

    @staticmethod
    def from_bivar(p: BivarPoly) -> "ZBarBasisPoly":
        """Substitute x = (z + zbar)/2, y = (z - zbar)/(2i)."""
        return _substitute(p, (0.5, 0.5), (-0.5j, 0.5j), ZBarBasisPoly)


def zbar_basis_values(c, z) -> np.ndarray:
    """Values of z,zbar coefficient arrays at points: sum of c[..., i, j] z^i zbar^j.

    The leading axes of c broadcast against the shape of z, so a stack of
    polynomials is evaluated at one set of points each in one call.  Each
    term is (c z^i) zbar^j, the powers running products, every complex
    product rounded as Python's; the terms add in term order.
    """
    c = np.asarray(c, dtype=complex)
    z = np.asarray(z, dtype=complex)
    i, j = _term_positions(c)
    lead = c.shape[:-2]
    nd = max(len(lead), z.ndim)
    coef = np.moveaxis(c[..., i, j], -1, 0).reshape((i.size,) + (1,) * (nd - len(lead)) + lead)
    zp = _running_product(z.real, [np.ascontiguousarray(z.imag)] * int(max(i.max(initial=0), j.max(initial=0))))
    zp = zp.reshape((zp.shape[0],) + (1,) * (nd - z.ndim) + z.shape)
    # the product of conjugates is the conjugate of the product, bit for bit
    return _term_sum(_cmul(_cmul(coef, zp[i]), zp[j].conj()))


@functools.lru_cache(maxsize=64)
def _triangle(deg: int) -> np.ndarray:
    """Flat indices of the pairs (d - j, j), d <= deg, in a (deg+1) x (deg+1) array, degree then j."""
    d, j = np.tril_indices(deg + 1)
    idx = (d - j) * (deg + 1) + j
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _image_matrix(deg: int, first, second) -> np.ndarray:
    """Block-diagonal image of every monomial of degree <= deg under the linear forms.

    Rows and columns follow :func:`_triangle`.  The block of degree d is the
    (d+1) x (d+1) matrix whose row b is first^(d-b) convolved with
    second^b, entry j multiplying X^(d-j) Y^j.
    """
    pow1 = [np.ones(1, dtype=complex)]
    pow2 = [np.ones(1, dtype=complex)]
    for _ in range(deg):
        pow1.append(np.convolve(pow1[-1], first))
        pow2.append(np.convolve(pow2[-1], second))
    size = (deg + 1) * (deg + 2) // 2
    out = np.zeros((size, size), dtype=complex)
    for d in range(deg + 1):
        s = d * (d + 1) // 2
        out[s : s + d + 1, s : s + d + 1] = [np.convolve(pow1[d - b], pow2[b]) for b in range(d + 1)]
    out.flags.writeable = False
    return out


def _substitute(src: _PairPoly, first, second, out_cls):
    """Image of src under its variables -> the linear forms first, second.

    A linear form (u, v) stands for u X + v Y in the output variables.  The
    image of the key (a, b) is homogeneous of degree a + b, so the
    coefficients, listed degree by degree, go through one block-diagonal
    matrix product.
    """
    deg = src.degree()
    idx = _triangle(deg)
    out = np.zeros((deg + 1) ** 2, dtype=complex)
    out[idx] = _fit(src.c, (deg + 1, deg + 1)).ravel()[idx] @ _image_matrix(deg, first, second)
    return out_cls._wrap(out.reshape(deg + 1, deg + 1))


def zq_monomial(n: int, ctx: QContext) -> BivarPoly:
    """Z_n = prod_{l=0..n-1} (x + i q^l y), expanded exactly.

    Entry b of the coefficient row multiplies x^(n-b) y^b; each factor is
    one convolution with (1, i q^l), whose outputs are two-term sums.
    Built with the cleaning filter off: the coefficients are same-sign
    subset sums of q-powers spanning hundreds of decades at small q, and
    the complex derivatives rescale the y-degree-b term by q^(1-b)[b],
    so even relatively tiny terms carry meaning.
    """
    return BivarPoly._homogeneous(zq_rows(n, ctx)[n, : n + 1])


def zq_monomials(n: int, ctx: QContext) -> List[BivarPoly]:
    """Z_0, ..., Z_n from one running convolution; entry k equals ``zq_monomial(k, ctx)``."""
    rows = zq_rows(n, ctx)
    return [BivarPoly._homogeneous(rows[k, : k + 1]) for k in range(n + 1)]


def zq_stack(n: int, ctx: QContext) -> np.ndarray:
    """Coefficients of Z_0, ..., Z_n as one (n+1, n+1, n+1) stack: [k, a, b] multiplies x^a y^b in Z_k."""
    k, b = np.tril_indices(n + 1)
    out = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    out[k, k - b, b] = zq_rows(n, ctx)[k, b]
    return out


def zq_rows(n: int, ctx: QContext) -> np.ndarray:
    """Degree rows of Z_0, ..., Z_n: read-only (n+1) x (n+1), [k, b] multiplies x^(k-b) y^b in Z_k.

    Zero past b = k.  Row k+1 is row k convolved with (1, i q^k), so row k
    has the same bits for every n; a view of the cached table of (q, max(n, 32)).
    """
    if n < 0:
        raise DomainError("monomial index must be >= 0")
    return _factor_rows(ctx.q, max(n, _ROWS_MIN), True)[: n + 1, : n + 1]


# Smallest row table built, so that verify's degrees (<= 30) share one per q.
_ROWS_MIN = 32


@functools.lru_cache(maxsize=32)
def _factor_rows(q: float, n: int, xy: bool) -> np.ndarray:
    """Read-only rows of prod_{l<k} (x + i q^l y), k = 0..n, zero-padded to n+1 columns.

    With ``xy`` the factors are (1, i q^l) on x, y; otherwise they are
    (A_l, B_l) = ((1+q^l)/2, (1-q^l)/2) on z, zbar (real rows).  Row k+1 is
    row k convolved with factor k.
    """
    rows = np.zeros((n + 1, n + 1), dtype=complex if xy else float)
    rows[0, 0] = 1.0
    for l in range(n):
        factor = [1.0, 1j * q**l] if xy else [(1.0 + q**l) / 2.0, (1.0 - q**l) / 2.0]
        rows[l + 1, : l + 2] = np.convolve(rows[l, : l + 1], factor)
    rows.flags.writeable = False
    return rows


def zq_point_values(z: complex, n: int, ctx: QContext) -> np.ndarray:
    """Values Z_0(z), ..., Z_n(z) at one point by the running product."""
    if n < 0:
        raise DomainError("monomial index must be >= 0")
    q = ctx.q
    out = np.empty(n + 1, dtype=complex)
    acc = 1.0 + 0j
    out[0] = acc
    x, y = z.real, z.imag
    for l in range(n):
        acc *= complex(x, q**l * y)
        out[l + 1] = acc
    return out


def _complex_derivative(c, sign: float, ctx: QContext) -> np.ndarray:
    # Monomial action of (1/2)(D^q_x +- i D^{1/q}_y) on the last two axes
    # (a, b); the y-bracket with base 1/q equals q^{1-b} [b]_q.  Real and
    # imaginary parts are scaled separately, as the coefficient-by-
    # coefficient complex products rounded them.  No cleaning: a two-term
    # sum that nearly cancels is the very residual the annihilation
    # checks measure.
    c = np.asarray(c, dtype=complex)
    A, B = c.shape[-2:]
    q = ctx.q
    xs = 0.5 * q_brackets(A - 1, ctx)[1:, np.newaxis]
    ys = np.array([sign * 0.5 * q ** (1 - b) for b in range(1, B)]) * q_brackets(B - 1, ctx)[1:]
    out = np.zeros_like(c)
    out.real[..., :-1, :] = xs * c.real[..., 1:, :]
    out.imag[..., :-1, :] = xs * c.imag[..., 1:, :]
    # i ys c = (-ys im, ys re)
    out.real[..., :, :-1] -= ys * c.imag[..., :, 1:]
    out.imag[..., :, :-1] += ys * c.real[..., :, 1:]
    return out


def _row_derivative(rows, sign: float, ctx: QContext) -> np.ndarray:
    # _complex_derivative on degree rows: [..., n, b] is the coefficient of
    # x^(n-b) y^b.  The x-part of output entry b comes from input entry b
    # (scaled by [n-b]/2) and the y-part from entry b+1, so every nonzero
    # coefficient sees the products and the subtraction it sees on the
    # (a, b) array.
    rows = np.asarray(rows, dtype=complex)
    N = rows.shape[-1] - 1
    q = ctx.q
    br = q_brackets(N, ctx)
    # [n-b] for b < n; b >= n has no x-part, and [0] = 0 stands in for it
    xs = 0.5 * br[np.maximum(np.subtract.outer(np.arange(rows.shape[-2]), np.arange(N)), 0)]
    ys = np.array([sign * 0.5 * q ** (1 - b) for b in range(1, N + 1)]) * br[1:]
    out = np.empty(rows.shape[:-1] + (N,), dtype=complex)
    out.real = xs * rows.real[..., :-1] - ys * rows.imag[..., 1:]
    out.imag = xs * rows.imag[..., :-1] + ys * rows.real[..., 1:]
    return out


def dz_rows(rows, ctx: QContext) -> np.ndarray:
    """dz of degree rows: row n of the last two axes is a degree-n polynomial (see :func:`zq_rows`).

    Row n of the result is the degree n-1 row of its derivative, so the
    last axis loses one entry.
    """
    return _row_derivative(rows, -1.0, ctx)


def dzbar_rows(rows, ctx: QContext) -> np.ndarray:
    """dzbar of degree rows, laid out as in :func:`dz_rows`."""
    return _row_derivative(rows, +1.0, ctx)


def dz_stack(c, ctx: QContext) -> np.ndarray:
    """dz on the last two axes (a, b) of a stack of x,y coefficient arrays."""
    return _complex_derivative(c, -1.0, ctx)


def dzbar_stack(c, ctx: QContext) -> np.ndarray:
    """dzbar on the last two axes (a, b) of a stack of x,y coefficient arrays."""
    return _complex_derivative(c, +1.0, ctx)


def dz(poly: BivarPoly, ctx: QContext) -> BivarPoly:
    """Holomorphic-side complex q-derivative; annihilates the conjugate family."""
    return BivarPoly._wrap(dz_stack(poly.c, ctx))


def dzbar(poly: BivarPoly, ctx: QContext) -> BivarPoly:
    """Antiholomorphic-side complex q-derivative; annihilates Z_n."""
    return BivarPoly._wrap(dzbar_stack(poly.c, ctx))


def _zzbar_rows(n: int, q: float) -> np.ndarray:
    """zbar-ascending z/zbar coefficients of Z_0..Z_n, a read-only (n+1) x (n+1) view.

    Entry j of row k multiplies z^(k-j) zbar^j.  Since x + i q^l y =
    A_l z + B_l zbar with A_l = (1+q^l)/2, B_l = (1-q^l)/2, row k+1 is
    row k convolved with (A_k, B_k).
    """
    return _factor_rows(q, max(n, _ROWS_MIN), False)[: n + 1, : n + 1]


def zq_expansion_coeffs(n: int, ctx: QContext) -> ZBarBasisPoly:
    """Coefficients C_{i,j} with Z_{n+1} = z * sum_{i+j=n} C_{i,j} z^i zbar^j.

    Built by convolving the factors (A_l z + B_l zbar), A_l = (1+q^l)/2,
    B_l = (1-q^l)/2, in O(n^2); the 2^n subset enumeration is only a test
    oracle.
    """
    if n < 1:
        raise DomainError("expansion layer needs n >= 1")
    # the l = 0 factor is z itself (A_0 = 1, B_0 = 0), so C_{n-j,j} is
    # entry j of Z_{n+1}'s row
    return ZBarBasisPoly._homogeneous(_zzbar_rows(n + 1, ctx.q)[n + 1, : n + 1])


@dataclass(frozen=True)
class DominationReport:
    ok: bool
    worst_ratio: float
    n: int
    samples_checked: int


def modulus_domination_check(n: int, samples: Iterable[Tuple[float, float]], ctx: QContext) -> DominationReport:
    """Check |Z_n(x, y)| <= (x^2 + y^2)^{n/2} on the given sample points.

    ``samples`` is an iterable of (x, y) pairs or an (m, 2) array.  Z_n's
    expansion is evaluated at all points in one call; |z|^n is the running
    product of sqrt(x^2 + y^2).  The origin is counted but not compared.
    """
    pts = np.array(list(samples), dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("samples must be (x, y) pairs")
    x, y = pts[:, 0], pts[:, 1]
    r = np.sqrt(x * x + y * y)
    vals = zq_monomial(n, ctx)(x, y)
    live = r != 0.0
    ratio = _abs(vals[live]) / _running_powers(r[live], n)[n]
    worst = float(np.max(ratio, initial=0.0))
    return DominationReport(ok=worst <= 1.0 + 1e-12, worst_ratio=worst, n=n, samples_checked=len(pts))


def complex_hermite(p: int, r: int) -> ZBarBasisPoly:
    """H_{p,r}(z, zbar) = p! r! sum_k (-1)^k / k! * z^{p-k}/(p-k)! * zbar^{r-k}/(r-k)!.

    Coefficients are exact integers.
    """
    if p < 0 or r < 0:
        raise DomainError("indices must be >= 0")
    # ascending degree is descending k
    items = [((p - k, r - k), complex(_hermite_coeff(p, r, k))) for k in range(min(p, r), -1, -1)]
    return ZBarBasisPoly._wrap(_array_of(items, (p + 1, r + 1)), items)


def _hermite_coeff(p: int, r: int, k: int) -> int:
    """Coefficient of z^(p-k) zbar^(r-k) in H_{p,r}, an exact integer."""
    return (-1) ** k * math.factorial(p) * math.factorial(r) // (
        math.factorial(k) * math.factorial(p - k) * math.factorial(r - k)
    )


def _as_exact_int(c: complex):
    re, im = c.real, c.imag
    ri, ii = round(re), round(im)
    if abs(re - ri) < 1e-9 and abs(im - ii) < 1e-9:
        return int(ri), int(ii)
    return None


def gaussian_inner(f: ZBarBasisPoly, g: ZBarBasisPoly) -> complex:
    """Gaussian-plane inner product <f, g>: entry (0, 1) of :func:`gaussian_gram`."""
    return complex(gaussian_gram([f, g])[0, 1])


def gaussian_gram(polys) -> np.ndarray:
    """Gaussian-plane inner products <polys[i], polys[k]>, evaluated analytically.

    Uses the monomial moment rule: the Gaussian integral of
    ``z^alpha zbar^beta`` is ``pi * alpha!`` when alpha == beta and zero
    otherwise, so ``<z^a zbar^b, z^c zbar^d> = pi (a+d)! [a+d == b+c]``.
    When both members of a pair have integral coefficients the
    accumulation runs in exact Python integers and pi multiplies last; the
    factorial products otherwise exceed the float integer window and lose
    ~6e-6 relative.  Each polynomial is split once by its sectors a - b;
    the moment rule pairs only terms of equal sector, so only those pairs
    are visited.
    """
    split = []
    for f in polys:
        terms = [(a, b, c, _as_exact_int(c)) for (a, b), c in f.items()]
        sectors: Dict[int, list] = {}
        for t in terms:
            sectors.setdefault(t[0] - t[1], []).append(t)
        split.append((terms, sectors, all(t[3] is not None for t in terms)))
    members: Dict[int, set] = {}
    for k, (_, sectors, _) in enumerate(split):
        for s in sectors:
            members.setdefault(s, set()).add(k)
    # pairs that share no sector keep their zero entry
    out = np.zeros((len(split), len(split)), dtype=complex)
    for i, (terms, fsec, fexact) in enumerate(split):
        for k in set().union(*(members[s] for s in fsec)):
            _, gsec, gexact = split[k]
            if fexact and gexact:
                acc_re = 0
                acc_im = 0
                for a, b, _, (fr, fim) in terms:
                    for _, d, _, (gr, gim) in gsec.get(a - b, ()):
                        m = math.factorial(a + d)
                        acc_re += (fr * gr + fim * gim) * m
                        acc_im += (fim * gr - fr * gim) * m
                out[i, k] = complex(acc_re, acc_im) * math.pi
            else:
                acc = 0.0 + 0j
                for a, b, cf, _ in terms:
                    for _, d, cg, _ in gsec.get(a - b, ()):
                        acc += cf * cg.conjugate() * math.factorial(a + d)
                out[i, k] = acc * math.pi
    return out


@functools.lru_cache(maxsize=8)
def _hermite_weights(K: int, P: int, R: int) -> np.ndarray:
    """Read-only weights [k, p, r], k < K, of the triangular Hermite maps on a P x R box.

    z^p zbar^r = sum_k C(p,k) C(r,k) k! H_{p-k,r-k}, and H_{p,r}'s
    coefficient of z^(p-k) zbar^(r-k) is (-1)^k times the same integer, so
    one table serves both maps: entry [k, p, r] is the weight output (p, r)
    takes from input (p+k, r+k), C(p+k,k) (r+k)!/r!, rounded once to
    float64 as the term loop rounds it; zero where p+k or r+k leaves the
    box.  A weight past float64 raises OverflowError, as the term loop
    does for a term that needs one; the deepest diagonal, which holds the
    largest weights, is built first.  K * P * R entries.
    """
    w = np.zeros((K, P, R))
    for k in reversed(range(K)):
        u = np.array([math.comb(p + k, k) for p in range(P - k)], dtype=object)
        v = np.array([math.perm(r + k, k) for r in range(R - k)], dtype=object)
        w[k, : P - k, : R - k] = np.multiply.outer(u, v)
    w.flags.writeable = False
    return w


def _hermite_apply(c, combine: bool) -> np.ndarray:
    # output (p, r) adds the weighted inputs (p+k, r+k) for k = 0, 1, ...: in
    # the order a term loop over degree-ordered terms adds them.  Only k up
    # to the largest min(p, r) of a nonzero input is needed.
    c = np.asarray(c, dtype=complex)
    P, R = c.shape[-2:]
    p, r = np.nonzero(np.any(c != 0, axis=tuple(range(c.ndim - 2))))
    K = int(np.minimum(p, r).max(initial=-1)) + 1
    w = _hermite_weights(K, P, R)
    # real and imaginary parts stacked: a real weight scales both
    parts = np.stack((c.real, c.imag))
    acc = np.zeros(parts.shape)
    for k in range(K):
        wk = w[k, : P - k, : R - k]
        acc[..., : P - k, : R - k] += parts[..., k:, k:] * (-wk if combine and k % 2 else wk)
    out = np.empty(c.shape, dtype=complex)
    out.real, out.imag = acc
    return out


def hermite_expand_stack(c) -> np.ndarray:
    """Hermite coefficients of a stack of z,zbar coefficient arrays: [..., p, r] multiplies H_{p,r}."""
    return _hermite_apply(c, False)


def hermite_combine_stack(h) -> np.ndarray:
    """z,zbar coefficients of sum h[..., p, r] H_{p,r}; inverse of :func:`hermite_expand_stack`."""
    return _hermite_apply(h, True)


def hermite_expand(poly: ZBarBasisPoly) -> Dict[Pair, complex]:
    """Coefficients of poly against {H_{p,r}}, the nonzero entries of :func:`hermite_expand_stack`."""
    return ZBarBasisPoly._wrap(hermite_expand_stack(poly.c)).terms


def hermite_combine(coeffs: Dict[Pair, complex]) -> ZBarBasisPoly:
    """Sum of coeff * H_{p,r}; inverse of hermite_expand, through :func:`hermite_combine_stack`.

    Each output coefficient adds its terms in the order of ``coeffs``.  An
    output on the line p - r = s takes terms only from items on that line,
    so layer t of the stack holds the t-th item of each line, and the
    combined layers add one after another.
    """
    if not coeffs:
        return ZBarBasisPoly()
    seen: Dict[int, int] = {}
    layer = []
    for p, r in coeffs:
        layer.append(seen.get(p - r, 0))
        seen[p - r] = layer[-1] + 1
    stack = np.zeros((max(seen.values()), max(p for p, _ in coeffs) + 1, max(r for _, r in coeffs) + 1), dtype=complex)
    for t, ((p, r), c) in zip(layer, coeffs.items()):
        stack[t, p, r] = c
    return ZBarBasisPoly._wrap(_term_sum(hermite_combine_stack(stack)))


def mixed_basis_gram(N: int, ctx: QContext):
    """Gram of {Z_k conj(Z)_h : k+h <= N} under the Gaussian inner product.

    Returns a GramReport carrying the minimum eigenvalue, trace, and rank;
    nonsingularity of this matrix is the computable form of the basis
    property of the mixed family.  Each member's z/zbar coefficients come
    from the linear-factor convolution (see the module docstring), so the
    matrix is pi F M F^T for the stacked coefficient rows F and the moment
    matrix M; its imaginary parts are exactly zero and it is exactly
    symmetric.
    """
    from qcore import GramReport

    if N < 1:
        raise DomainError("degree cap must be >= 1")
    # conj(Z_h) swaps z and zbar, which reverses its coefficient row
    zk = _zzbar_rows(N, ctx.q)
    # monomial z^a zbar^b sits at column d(d+1)/2 + b, d = a + b
    size = (N + 1) * (N + 2) // 2
    fam = np.zeros((size, size))
    labels = []
    for total in range(N + 1):
        start = total * (total + 1) // 2
        for k in range(total, -1, -1):
            h = total - k
            fam[len(labels), start : start + total + 1] = np.convolve(zk[k, : k + 1], zk[h, h::-1])
            labels.append(f"k={k},h={h}")
    a = np.concatenate([np.arange(d, -1, -1) for d in range(N + 1)])
    b = np.concatenate([np.arange(d + 1) for d in range(N + 1)])
    # <z^a zbar^b, z^c zbar^d> = pi (a+d)! when a - b = c - d
    facts = np.array([float(math.factorial(n)) for n in range(2 * N + 1)])
    moments = np.where(np.subtract.outer(a - b, a - b) == 0, facts[np.add.outer(a, b)], 0.0)
    gram = fam @ moments @ fam.T
    gram = math.pi * (np.triu(gram) + np.triu(gram, 1).T)
    return GramReport(labels, gram.astype(complex), target="nonsingular (positive definite)")


@dataclass(frozen=True)
class QGrid:
    """Dilation grid: every seed spawns (q^{b1} x, q^{-b2} y), b1,b2 in 0..depth.

    Points are never compared as floats: only seeds that are exactly equal
    are collapsed, and each remaining seed contributes all its points.
    """

    seeds: tuple
    depth: int
    points: tuple
    count_before_dedup: int


def qgrid_generate(seeds, depth: int, ctx: QContext) -> QGrid:
    if depth < 0:
        raise DomainError("depth must be >= 0")
    seeds = [(float(x), float(y)) for (x, y) in seeds]
    if not seeds:
        raise DomainError("need at least one seed")
    q = ctx.q
    uniq = []
    for s in seeds:
        if s not in uniq:
            uniq.append(s)
    points = []
    for x, y in uniq:
        for b1 in range(depth + 1):
            for b2 in range(depth + 1):
                points.append((q**b1 * x, q ** (-b2) * y))
    return QGrid(
        seeds=tuple(seeds),
        depth=depth,
        points=tuple(points),
        count_before_dedup=len(seeds) * (depth + 1) ** 2,
    )


@dataclass(frozen=True)
class EllipticVariable:
    """w = x + i p y with anisotropic modulus sqrt(x^2 + p^2 y^2), p > 0."""

    p: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError("axis ratio p must be positive and finite")

    @property
    def modulus(self) -> float:
        return math.hypot(self.x, self.p * self.y)

    @property
    def value(self) -> complex:
        return complex(self.x, self.p * self.y)
