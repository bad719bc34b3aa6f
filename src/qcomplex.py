"""Exact bivariate polynomial machinery for the plane picture.

Carries the q-analytic monomials ``Z_n(x, y) = prod_{l<n} (x + i q^l y)``,
the complex q-derivatives, the z/zbar expansion layer, complex Hermite
polynomials with their Gaussian inner product, (q, 1/q)-dilation grids, and
elliptic complex variables.

Polynomials are sparse maps from exponent pairs to complex coefficients.
After every product, coefficients below 1e-14 of the largest one are
dropped so that identities that should give the zero polynomial actually
do.

The x,y <-> z,zbar substitutions do not multiply these maps.  Each
variable goes to a linear form, so the image of one monomial is a
homogeneous coefficient row, a convolution of powers of the two forms;
rows accumulate in one dense array, with no cleaning on the way.  Z_n is
built the same way, one convolution per factor (1, i q^l).
``gaussian_gram`` pairs a whole list of polynomials at once, visiting only
term pairs of equal sector a - b, the only ones the moment rule keeps.

The mixed-family Gram does not go through these maps.  Since
x + i q^l y = A_l z + B_l zbar with A_l = (1+q^l)/2, B_l = (1-q^l)/2,
the z/zbar coefficients of Z_k are a 1-D convolution of the linear
factors and those of conj(Z_h) are the same list reversed, so every
member Z_k conj(Z_h) is one dense coefficient row and the Gram is a
product with the Gaussian moment matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from qcore import DomainError, QContext, q_number

__all__ = [
    "BivarPoly",
    "ZBarBasisPoly",
    "QGrid",
    "EllipticVariable",
    "DominationReport",
    "zq_monomial",
    "zq_monomials",
    "zq_point_values",
    "dz",
    "dzbar",
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


class _PairPoly:
    """Sparse polynomial keyed by exponent pairs; shared arithmetic core."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Pair, complex] | None = None, clean: bool = True):
        self.terms: Dict[Pair, complex] = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    a, b = key
                    if a < 0 or b < 0:
                        raise DomainError("exponents must be nonnegative")
                    self.terms[(int(a), int(b))] = complex(c)
        if clean:
            self._drop_small()

    def _drop_small(self) -> None:
        if not self.terms:
            return
        cap = max(abs(c) for c in self.terms.values())
        if cap == 0.0:
            self.terms.clear()
            return
        for key in [k for k, c in self.terms.items() if abs(c) <= _CLEAN * cap]:
            del self.terms[key]

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def items(self):
        return self.terms.items()

    def _binop(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + sign * c
        return type(self)(out, clean=False)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return type(self)()
            return type(self)({k: c * other for k, c in self.terms.items()}, clean=False)
        if not isinstance(other, type(self)):
            return NotImplemented
        out: Dict[Pair, complex] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return type(self)(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((a + b for (a, b) in self.terms), default=0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class BivarPoly(_PairPoly):
    """Polynomial in the real coordinates (x, y); key (a, b) means x^a y^b."""

    def __call__(self, x: float, y: float) -> complex:
        return sum(c * x**a * y**b for (a, b), c in self.terms.items()) + 0j


class ZBarBasisPoly(_PairPoly):
    """Polynomial in (z, zbar); key (i, j) means z^i zbar^j."""

    def __call__(self, z: complex) -> complex:
        zb = z.conjugate()
        return sum(c * z**i * zb**j for (i, j), c in self.terms.items()) + 0j

    def to_bivar(self) -> BivarPoly:
        """Substitute z = x + iy, zbar = x - iy."""
        return _substitute(self, (1.0, 1j), (1.0, -1j), BivarPoly)

    @staticmethod
    def from_bivar(p: BivarPoly) -> "ZBarBasisPoly":
        """Substitute x = (z + zbar)/2, y = (z - zbar)/(2i)."""
        return _substitute(p, (0.5, 0.5), (-0.5j, 0.5j), ZBarBasisPoly)


def _substitute(src: _PairPoly, first, second, out_cls):
    """Image of src under its variables -> the linear forms first, second.

    A linear form (u, v) stands for u X + v Y in the output variables.  The
    image of the key (a, b) is homogeneous of degree a + b; its row, entry
    j multiplying X^(a+b-j) Y^j, is first^a convolved with second^b.
    """
    deg = src.degree()
    pow1 = [np.ones(1, dtype=complex)]
    pow2 = [np.ones(1, dtype=complex)]
    for _ in range(deg):
        pow1.append(np.convolve(pow1[-1], first))
        pow2.append(np.convolve(pow2[-1], second))
    # rows[d, j] multiplies X^(d-j) Y^j
    rows = np.zeros((deg + 1, deg + 1), dtype=complex)
    for (a, b), c in src.items():
        rows[a + b, : a + b + 1] += c * np.convolve(pow1[a], pow2[b])
    return out_cls({(d - j, j): rows[d, j] for d, j in zip(*np.nonzero(rows))}, clean=False)


def zq_monomial(n: int, ctx: QContext) -> BivarPoly:
    """Z_n = prod_{l=0..n-1} (x + i q^l y), expanded exactly.

    Entry b of the coefficient row multiplies x^(n-b) y^b; each factor is
    one convolution with (1, i q^l), whose outputs are two-term sums.
    Built with the cleaning filter off: the coefficients are same-sign
    subset sums of q-powers spanning hundreds of decades at small q, and
    the complex derivatives rescale the y-degree-b term by q^(1-b)[b],
    so even relatively tiny terms carry meaning.
    """
    return _zq_poly(_zq_rows(n, ctx.q)[n])


def zq_monomials(n: int, ctx: QContext) -> List[BivarPoly]:
    """Z_0, ..., Z_n from one running convolution; entry k equals ``zq_monomial(k, ctx)``."""
    return [_zq_poly(row) for row in _zq_rows(n, ctx.q)]


def _zq_rows(n: int, q: float) -> List[np.ndarray]:
    # row k holds Z_k's coefficients, y-degree ascending
    if n < 0:
        raise DomainError("monomial index must be >= 0")
    rows = [np.ones(1, dtype=complex)]
    for l in range(n):
        rows.append(np.convolve(rows[-1], [1.0, 1j * q**l]))
    return rows


def _zq_poly(row: np.ndarray) -> BivarPoly:
    n = row.size - 1
    return BivarPoly({(n - b, b): row[b] for b in range(n + 1)}, clean=False)


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


def _complex_derivative(poly: BivarPoly, sign: float, ctx: QContext) -> BivarPoly:
    # Monomial action of (1/2)(D^q_x +- i D^{1/q}_y); the y-bracket with base
    # 1/q equals q^{1-b} [b]_q.
    q = ctx.q
    out: Dict[Pair, complex] = {}
    for (a, b), c in poly.items():
        if a:
            key = (a - 1, b)
            out[key] = out.get(key, 0.0) + 0.5 * q_number(a, ctx) * c
        if b:
            key = (a, b - 1)
            out[key] = out.get(key, 0.0) + sign * 0.5j * q ** (1 - b) * q_number(b, ctx) * c
    # no cleaning: a two-term sum that nearly cancels is the very residual
    # the annihilation checks measure
    return BivarPoly(out, clean=False)


def dz(poly: BivarPoly, ctx: QContext) -> BivarPoly:
    """Holomorphic-side complex q-derivative; annihilates the conjugate family."""
    return _complex_derivative(poly, -1.0, ctx)


def dzbar(poly: BivarPoly, ctx: QContext) -> BivarPoly:
    """Antiholomorphic-side complex q-derivative; annihilates Z_n."""
    return _complex_derivative(poly, +1.0, ctx)


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
    row = _zzbar_coeffs(n + 1, ctx.q)[n + 1]
    return ZBarBasisPoly({(n - j, j): row[j] for j in range(n + 1)}, clean=False)


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
    terms: Dict[Pair, complex] = {}
    for k in range(min(p, r) + 1):
        c = (-1) ** k * math.factorial(p) * math.factorial(r) // (
            math.factorial(k) * math.factorial(p - k) * math.factorial(r - k)
        )
        terms[(p - k, r - k)] = complex(c)
    return ZBarBasisPoly(terms, clean=False)


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
    """Sum of coeff * H_{p,r}; inverse of hermite_expand."""
    acc = ZBarBasisPoly()
    for (p, r), c in coeffs.items():
        acc = acc + c * complex_hermite(p, r)
    return acc


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
