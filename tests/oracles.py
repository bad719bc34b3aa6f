"""Independent reference implementations used to freeze expected values.

Everything here is coded straight from the defining formulas and
deliberately does not import the package modules, so test expectations
cannot circularly depend on the code under test.  Most references use
exact rational (or extended-precision) arithmetic; the float ones
(``kernel_scalar``, ``mixed_gram_pairwise``, ``zq_monomial_dict``,
``substitute_power_table``, ``tensor_forward_tensordot``,
``tensor_gram_pairwise``, ``gaussian_inner_loop``,
``hermite_pairing_ladder``, ``big_e_series``, ``small_e_series``,
``jackson_sum_loop``) keep the one-point, term-by-term, node-by-node,
pairwise and complex-upcast algorithms that the array code in the package
replaced.  ``small_e_series`` also keeps the mixed-base reading of the
weight series that the package rejects.
"""
from fractions import Fraction
import math

import numpy as np


def qnum_frac(n: int, q: Fraction) -> Fraction:
    """[n]_q as the geometric sum, exact."""
    return sum((q**m for m in range(n)), Fraction(0))


def qfact_frac(n: int, q: Fraction) -> Fraction:
    out = Fraction(1)
    for m in range(1, n + 1):
        out *= qnum_frac(m, q)
    return out


def qbinom_frac(n: int, k: int, q: Fraction) -> Fraction:
    return qfact_frac(n, q) / (qfact_frac(k, q) * qfact_frac(n - k, q))


def qbinom_pascal(n: int, k: int, q: Fraction) -> Fraction:
    """Gaussian binomial by the q-Pascal recursion, exact."""
    if k < 0 or k > n:
        return Fraction(0)
    row = [Fraction(1)]
    for m in range(1, n + 1):
        nxt = [Fraction(1)]
        for j in range(1, m):
            nxt.append(row[j - 1] + q**j * row[j])
        nxt.append(Fraction(1))
        row = nxt
    return row[k]


def qfact_mp(n: int, q: str, dps: int = 50):
    """[n]_q! via mpmath at dps digits; q given as a decimal string."""
    import mpmath

    with mpmath.workdps(dps):
        qq = mpmath.mpf(q)
        out = mpmath.mpf(1)
        for m in range(1, n + 1):
            out *= (1 - qq**m) / (1 - qq)
        return out


def zq_subset_coeffs(n: int, q: Fraction) -> dict:
    """Coefficients of prod_{m<n} (x + i q^m y) by subset enumeration.

    Returns {(a, b): (re, im)} with exact Fraction parts, a + b = n,
    where the monomial is x^a y^b.
    """
    from itertools import combinations

    out = {}
    for size in range(n + 1):
        total = Fraction(0)
        for subset in combinations(range(n), size):
            total += q ** sum(subset)
        # the subset contributes x^(n-size) (iy)^size
        re, im = {0: (total, 0), 1: (0, total), 2: (-total, 0), 3: (0, -total)}[size % 4]
        out[(n - size, size)] = (Fraction(re), Fraction(im))
    return out


def zq_product_value(z: complex, n: int, q: float) -> complex:
    acc = complex(1.0)
    for m in range(n):
        acc *= complex(z.real, (q**m) * z.imag)
    return acc


def hermite_coeffs_frac(k: int, q: Fraction) -> list:
    """Exact ascending coefficients of the k-th q-Hermite polynomial.

    Three-term recurrence H_(m+1) = (q+1) t H_m - (q+1)[m] q^(m+1) H_(m-1)
    seeded by H_0 = 1, H_1 = (q+1)t; the q-power in the down term is the
    one that makes the family orthogonal for the even q^2-exponential
    weight (checked exactly by creation_residual_frac below and by the
    second-moment computation in the tests).
    """
    prev = [Fraction(1)]
    if k == 0:
        return prev
    cur = [Fraction(0), q + 1]
    for m in range(1, k):
        nxt = [Fraction(0)] * (m + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += (q + 1) * c
        down = (q + 1) * qnum_frac(m, q) * q ** (m + 1)
        for j, c in enumerate(prev):
            nxt[j] -= down * c
        prev, cur = cur, nxt
    return cur


def qderiv_coeffs_frac(coeffs: list, q: Fraction) -> list:
    """Jackson derivative on exact coefficients: t^m -> [m] t^(m-1)."""
    return [qnum_frac(m, q) * coeffs[m] for m in range(1, len(coeffs))]


def creation_residual_frac(k: int, q: Fraction) -> Fraction:
    """Exact residual of H_k = ((q+1) t - q^k D) H_(k-1).

    Zero residual pins down the q-power convention used in
    hermite_coeffs_frac without appeal to the code under test.
    """
    hk = hermite_coeffs_frac(k, q)
    hkm1 = hermite_coeffs_frac(k - 1, q)
    rhs = [Fraction(0)] * (len(hkm1) + 1)
    for j, c in enumerate(hkm1):
        rhs[j + 1] += (q + 1) * c
    for j, c in enumerate(qderiv_coeffs_frac(hkm1, q)):
        rhs[j] -= q**k * c
    return sum(abs(a - b) for a, b in zip(hk, rhs + [Fraction(0)] * (len(hk) - len(rhs))))


def horner_frac(coeffs: list, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def classical_hermite_coeffs(k: int) -> list:
    """Physicists' Hermite polynomial coefficients, exact integers."""
    prev = [1]
    if k == 0:
        return prev
    cur = [0, 2]
    for m in range(1, k):
        nxt = [0] * (m + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= 2 * m * c
        prev, cur = cur, nxt
    return cur


def complex_hermite_coeffs(p: int, r: int) -> dict:
    """H_(p,r) by the explicit finite sum, exact integers.

    H_(p,r)(z, zbar) = sum_j (-1)^j j! C(p,j) C(r,j) z^(p-j) zbar^(r-j);
    returns {(i, j): int} for the monomial z^i zbar^j.
    """
    out = {}
    for j in range(min(p, r) + 1):
        c = (-1) ** j * math.factorial(j) * math.comb(p, j) * math.comb(r, j)
        out[(p - j, r - j)] = c
    return out


def gaussian_pairing(left: dict, right: dict) -> float:
    """<f, g> for z-zbar coefficient maps under the plane Gaussian.

    Uses the moment rule: the integral of z^a zbar^b e^(-|z|^2) over the
    plane is pi a! when a = b and 0 otherwise.  Pairing conjugates the
    right factor, so (i,j) against (m,n) pairs z^(i+n) zbar^(j+m).
    """
    total = 0.0 + 0.0j
    for (i, j), c in left.items():
        for (m, n), d in right.items():
            if i + n == j + m:
                total += complex(c) * complex(d).conjugate() * math.factorial(i + n)
    return math.pi * total


def _as_exact_int(c: complex):
    re, im = c.real, c.imag
    ri, ii = round(re), round(im)
    if abs(re - ri) < 1e-9 and abs(im - ii) < 1e-9:
        return int(ri), int(ii)
    return None


def gaussian_inner_loop(left: dict, right: dict) -> complex:
    """<f, g> for z-zbar coefficient maps by the pairwise term loop.

    Every term pair passes the moment rule test in insertion order.  When
    every coefficient is integral the sum runs in exact integers and pi
    multiplies last; otherwise it runs in floats.
    """
    fi = [(k, _as_exact_int(c)) for k, c in left.items()]
    gi = [(k, _as_exact_int(c)) for k, c in right.items()]
    if all(v is not None for _, v in fi) and all(v is not None for _, v in gi):
        acc_re = 0
        acc_im = 0
        for (a, b), (fr, fim) in fi:
            for (c, d), (gr, gim) in gi:
                if a + d != b + c:
                    continue
                m = math.factorial(a + d)
                # (fr + i fim) * (gr - i gim)
                acc_re += (fr * gr + fim * gim) * m
                acc_im += (fim * gr - fr * gim) * m
        return complex(acc_re, acc_im) * math.pi
    acc = 0.0 + 0j
    for (a, b), cf in left.items():
        for (c, d), cg in right.items():
            if a + d == b + c:
                acc += cf * cg.conjugate() * math.factorial(a + d)
    return acc * math.pi


def big_e_series(x: float, base: float) -> float:
    """sum_k x^k / [k]! term by term, |x| < 1/(1-base).

    The package's finite-radius q-exponential, summed one point at a time
    with its stopping rule (relative tail 1e-18, at most 600 terms).
    """
    acc = 1.0
    term = 1.0
    for k in range(1, 600):
        term *= x / ((1.0 - base**k) / (1.0 - base))
        acc += term
        if abs(term) <= 1e-18 * (1.0 + abs(acc)):
            break
    return acc


def small_e_series(x: float, base: float, factorial_base: float) -> float:
    """sum_j base^(j(j-1)/2) x^j / [j]! with the brackets in factorial_base.

    The package's entire q-exponential is the case factorial_base = base,
    summed by the same loop and stopping rule (relative tail 1e-18, at most
    600 terms).  The weight reading with base q^2 and factorial base q is
    the rejected mixed-base variant.
    """
    acc = 1.0
    term = 1.0
    fb = factorial_base
    for j in range(1, 600):
        term *= base ** (j - 1) * x / ((1.0 - fb**j) / (1.0 - fb))
        acc += term
        if abs(term) <= 1e-18 * (1.0 + abs(acc)):
            break
    return acc


def jackson_sum_loop(f, a: float, b: float, level: int, q: float) -> float:
    """Jackson sum of a scalar f over [a, b], one node at a time.

    Each endpoint c contributes (1-q) c sum_k q^k f(c q^k), k = 0..level in
    ascending order with q^k a running product, stopped at the first
    k >= 8 whose term is below 1e-18 after scaling by (1-q)|c|; the sum
    over [a, b] is the b ladder minus the a ladder.
    """

    def half(c):
        if c == 0.0:
            return 0.0
        scale = (1.0 - q) * abs(c)
        acc = 0.0
        qk = 1.0
        for k in range(level + 1):
            term = qk * f(c * qk)
            acc += term
            if k >= 8 and scale * abs(term) < 1e-18:
                break
            qk *= q
        return (1.0 - q) * c * acc

    return half(b) - half(a)


def hermite_pairing_ladder(k: int, l: int, q: float, J: int) -> float:
    """Weighted Jackson pairing of H_k and H_l on {+-lambda q^j}, j <= J.

    Coefficients by the float three-term recurrence, the weight at the
    nodes by its telescoping product W(lambda q^j) = prod_{m>=j} (1 - q^2m),
    both branches evaluated by Horner and summed as
    (1-q) lambda sum_j q^j W_j (H_k H_l(+) + H_k H_l(-)).
    """
    table = [np.array([1.0]), np.array([0.0, q + 1.0])]
    for m in range(1, max(k, l)):
        up = np.zeros(m + 2)
        up[1:] = (q + 1.0) * table[m]
        down = np.zeros(m + 2)
        down[:m] = (q + 1.0) * ((1.0 - q**m) / (1.0 - q)) * q ** (m + 1) * table[m - 1]
        table.append(up - down)
    w = np.empty(J + 1)
    tail = 1.0
    m = J
    while q ** (2 * m) > 1e-20:
        tail *= 1.0 - q ** (2 * m)
        m += 1
    w[J] = tail
    for j in range(J - 1, -1, -1):
        w[j] = w[j + 1] * (1.0 - q ** (2 * j))
    lam = 1.0 / math.sqrt(1.0 - q * q)
    nodes = lam * q ** np.arange(J + 1)

    def horner(coeffs, t):
        acc = np.zeros_like(t)
        for c in coeffs[::-1]:
            acc = acc * t + c
        return acc

    plus = horner(table[k], nodes) * horner(table[l], nodes)
    minus = horner(table[k], -nodes) * horner(table[l], -nodes)
    return float((1.0 - q) * lam * np.sum(q ** np.arange(J + 1) * (w * (plus + minus))))


def kernel_scalar(z: complex, w: complex, q: float, max_terms: int = 600):
    """K(z, w) by the one-point loop, with the per-point stopping rule.

    Sums Z_n(z) conj(Z_n(w)) / [n]! in complex arithmetic until the
    bound (|z||w|)^n / [n]! is below 1e-12 of the running value while
    the bound ratio |z||w| / [n+1] is below one.  Returns (value,
    truncation, tail_bound); the arguments must lie in the domain.
    """
    acc = 1.0 + 0j
    n = 0
    zn = 1.0 + 0j
    wn = 1.0 + 0j
    fact = 1.0
    zw = abs(z) * abs(w)
    bound = 1.0
    ratio = 1.0
    while n < max_terms:
        zn *= complex(z.real, q**n * z.imag)
        wn *= complex(w.real, q**n * w.imag)
        fact *= (1.0 - q ** (n + 1)) / (1.0 - q)
        n += 1
        acc += zn * wn.conjugate() / fact
        bound = zw**n / fact
        ratio = zw / ((1.0 - q ** (n + 1)) / (1.0 - q))
        if ratio < 1.0 and bound < 1e-12 * abs(acc):
            break
    tail = bound * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return acc, n, tail


def _xy_to_zzbar(poly: dict) -> dict:
    """{(a, b): coeff of x^a y^b} -> {(i, j): coeff of z^i zbar^j}.

    x^a y^b = 2^-a (2i)^-b (z + zbar)^a (z - zbar)^b, expanded binomially.
    """
    out = {}
    for (a, b), c in poly.items():
        scale = c / (2**a * (2j) ** b)
        for r in range(a + 1):
            for s in range(b + 1):
                key = (r + s, (a - r) + (b - s))
                term = scale * math.comb(a, r) * math.comb(b, s) * (-1) ** (b - s)
                out[key] = out.get(key, 0.0) + term
    return out


def zq_monomial_dict(n: int, q: float) -> dict:
    """Z_n = prod_{l<n} (x + i q^l y) by the factor-by-factor dict loop.

    Returns {(a, b): coeff of x^a y^b} in the loop's insertion order
    (b ascending); a zero coefficient, from underflow, is kept.
    """
    terms = {(0, 0): 1.0 + 0j}
    for l in range(n):
        iq = 1j * q**l
        nxt = {}
        for (a, b), c in terms.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0.0) + c
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0.0) + c * iq
        terms = nxt
    return terms


def _cleaned_product(f: dict, g: dict) -> dict:
    """Product of two pair-keyed polynomials, dropping exact zeros and
    coefficients at or below 1e-14 of the largest."""
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    out = {k: complex(c) for k, c in out.items() if c != 0}
    cap = max((abs(c) for c in out.values()), default=0.0)
    return {k: c for k, c in out.items() if abs(c) > 1e-14 * cap}


def substitute_power_table(poly: dict, first: dict, second: dict) -> dict:
    """Image of a pair-keyed polynomial under (X, Y) -> (first, second).

    The sparse-product algorithm: powers of the two images are cached per
    call and cleaned after every product, and each term's product is added
    into the running sum, dropping exact zeros.  For x,y -> z,zbar the
    images are {(1, 0): 0.5, (0, 1): 0.5} and {(1, 0): -0.5j, (0, 1): 0.5j};
    for z,zbar -> x,y they are {(1, 0): 1, (0, 1): 1j} and
    {(1, 0): 1, (0, 1): -1j}.
    """
    pow1 = [{(0, 0): 1.0 + 0j}]
    pow2 = [{(0, 0): 1.0 + 0j}]
    acc = {}
    for (a, b), c in poly.items():
        while len(pow1) <= a:
            pow1.append(_cleaned_product(pow1[-1], first))
        while len(pow2) <= b:
            pow2.append(_cleaned_product(pow2[-1], second))
        for key, v in _cleaned_product(pow1[a], pow2[b]).items():
            acc[key] = acc.get(key, 0.0) + c * v
        acc = {k: v for k, v in acc.items() if v != 0}
    return acc


def tensor_forward_tensordot(proj, F):
    """<<F, h_k (x) h_h>> by two complex tensordots against the projector.

    ``proj`` has shape (modes+1, 2, J+1) and F shape (2, J+1, 2, J+1);
    F is upcast to complex first, as the original contraction did.
    """
    half = np.tensordot(proj, np.asarray(F, dtype=complex), axes=([1, 2], [0, 1]))
    return np.tensordot(half, proj, axes=([1, 2], [1, 2]))


def tensor_gram_pairwise(proj, hvals, kmax: int):
    """Gram of the two-variable images of h_a (x) h_b, a, b <= kmax, pair by pair.

    Each image is the dense contraction P F P^T of its full product F,
    with P the flattened projector; the Gram pairs the flattened images.
    """
    p_flat = proj.reshape(proj.shape[0], -1)
    n = p_flat.shape[1]
    imgs = []
    for a in range(kmax + 1):
        for b in range(kmax + 1):
            F = np.multiply.outer(hvals[a], hvals[b]).reshape(n, n)
            imgs.append((p_flat @ F @ p_flat.T).reshape(-1))
    imgs = np.array(imgs, dtype=complex)
    return imgs @ imgs.conj().T


def mixed_gram_pairwise(N: int, q: float):
    """Gram of {Z_k conj(Z_h) : k + h <= N} term by term.

    Each member is expanded in x, y from the factors x + i q^l y, moved
    to z/zbar by substitution, and every pair of members is paired by
    the Gaussian moment rule.  Returns (labels, matrix) in the
    library's member order (total degree ascending, k descending).
    """
    fam, labels = [], []
    for total in range(N + 1):
        for k in range(total, -1, -1):
            h = total - k
            prod = {}
            for (a1, b1), c1 in zq_monomial_dict(k, q).items():
                for (a2, b2), c2 in zq_monomial_dict(h, q).items():
                    key = (a1 + a2, b1 + b2)
                    prod[key] = prod.get(key, 0.0) + c1 * c2.conjugate()
            fam.append(_xy_to_zzbar(prod))
            labels.append(f"k={k},h={h}")
    matrix = [[gaussian_pairing(f, g) for g in fam] for f in fam]
    return labels, matrix
