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
the last two axes, so a stack of polynomials, such as ``zq_stack``'s
Z_0..Z_n, goes through one call.

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
    "zq_point_values",
    "dz",
    "dzbar",
    "dz_stack",
    "dzbar_stack",
    "zq_expansion_coeffs",
    "modulus_domination_check",
    "complex_hermite",
    "gaussian_inner",
    "gaussian_gram",
    "hermite_expand",
    "hermite_combine",
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
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
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


class BivarPoly(_PairPoly):
    """Polynomial in the real coordinates (x, y); key (a, b) means x^a y^b."""

    def __call__(self, x: float, y: float) -> complex:
        return sum(c * x**a * y**b for (a, b), c in self.items()) + 0j


class ZBarBasisPoly(_PairPoly):
    """Polynomial in (z, zbar); key (i, j) means z^i zbar^j."""

    def __call__(self, z: complex) -> complex:
        zb = z.conjugate()
        return sum(c * z**i * zb**j for (i, j), c in self.items()) + 0j

    def to_bivar(self) -> BivarPoly:
        """Substitute z = x + iy, zbar = x - iy."""
        return _substitute(self, (1.0, 1j), (1.0, -1j), BivarPoly)

    @staticmethod
    def from_bivar(p: BivarPoly) -> "ZBarBasisPoly":
        """Substitute x = (z + zbar)/2, y = (z - zbar)/(2i)."""
        return _substitute(p, (0.5, 0.5), (-0.5j, 0.5j), ZBarBasisPoly)


@functools.lru_cache(maxsize=None)
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
    return BivarPoly._homogeneous(_zq_rows(n, ctx.q)[n])


def zq_monomials(n: int, ctx: QContext) -> List[BivarPoly]:
    """Z_0, ..., Z_n from one running convolution; entry k equals ``zq_monomial(k, ctx)``."""
    return [BivarPoly._homogeneous(row) for row in _zq_rows(n, ctx.q)]


def zq_stack(n: int, ctx: QContext) -> np.ndarray:
    """Coefficients of Z_0, ..., Z_n as one (n+1, n+1, n+1) stack: [k, a, b] multiplies x^a y^b in Z_k."""
    rows = _zq_rows(n, ctx.q)
    out = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    for k, row in enumerate(rows):
        b = np.arange(k + 1)
        out[k, k - b, b] = row
    return out


def _zq_rows(n: int, q: float) -> List[np.ndarray]:
    # row k holds Z_k's coefficients, y-degree ascending
    if n < 0:
        raise DomainError("monomial index must be >= 0")
    rows = [np.ones(1, dtype=complex)]
    for l in range(n):
        rows.append(np.convolve(rows[-1], [1.0, 1j * q**l]))
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


def _zzbar_coeffs(n: int, q: float) -> List[np.ndarray]:
    """zbar-ascending z/zbar coefficients of Z_0..Z_n.

    Entry j of row k multiplies z^(k-j) zbar^j.  Since x + i q^l y =
    A_l z + B_l zbar with A_l = (1+q^l)/2, B_l = (1-q^l)/2, row k+1 is
    row k convolved with (A_k, B_k).
    """
    rows = [np.ones(1)]
    for l in range(n):
        rows.append(np.convolve(rows[-1], [(1.0 + q**l) / 2.0, (1.0 - q**l) / 2.0]))
    return rows


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
    return ZBarBasisPoly._homogeneous(_zzbar_coeffs(n + 1, ctx.q)[n + 1][: n + 1])


@dataclass(frozen=True)
class DominationReport:
    ok: bool
    worst_ratio: float
    n: int
    samples_checked: int


def modulus_domination_check(n: int, samples: Iterable[Tuple[float, float]], ctx: QContext) -> DominationReport:
    """Check |Z_n(x, y)| <= (x^2 + y^2)^{n/2} on the given sample points."""
    poly = zq_monomial(n, ctx)
    worst = 0.0
    count = 0
    for x, y in samples:
        count += 1
        r2 = x * x + y * y
        if r2 == 0.0:
            continue
        ratio = abs(poly(x, y)) / r2 ** (n / 2.0)
        worst = max(worst, ratio)
    return DominationReport(ok=worst <= 1.0 + 1e-12, worst_ratio=worst, n=n, samples_checked=count)


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


def hermite_expand(poly: ZBarBasisPoly) -> Dict[Pair, complex]:
    """Coefficients of poly against {H_{p,r}}.

    Rests on the inversion z^p zbar^r = sum_k C(p,k) C(r,k) k! H_{p-k,r-k}.
    """
    out: Dict[Pair, complex] = {}
    for (p, r), c in poly.items():
        for k in range(min(p, r) + 1):
            w = math.comb(p, k) * math.comb(r, k) * math.factorial(k)
            key = (p - k, r - k)
            out[key] = out.get(key, 0.0) + c * w
    return {k: v for k, v in out.items() if v != 0}


def hermite_combine(coeffs: Dict[Pair, complex]) -> ZBarBasisPoly:
    """Sum of coeff * H_{p,r}; inverse of hermite_expand.

    The terms accumulate into one array in the order of ``coeffs``.
    """
    if not coeffs:
        return ZBarBasisPoly()
    acc = np.zeros((max(p for p, _ in coeffs) + 1, max(r for _, r in coeffs) + 1), dtype=complex)
    for (p, r), c in coeffs.items():
        for k in range(min(p, r) + 1):
            acc[p - k, r - k] += float(_hermite_coeff(p, r, k)) * c
    return ZBarBasisPoly._wrap(acc)


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
    zk = _zzbar_coeffs(N, ctx.q)
    # monomial z^a zbar^b sits at column d(d+1)/2 + b, d = a + b
    size = (N + 1) * (N + 2) // 2
    fam = np.zeros((size, size))
    labels = []
    for total in range(N + 1):
        start = total * (total + 1) // 2
        for k in range(total, -1, -1):
            h = total - k
            fam[len(labels), start : start + total + 1] = np.convolve(zk[k], zk[h][::-1])
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
