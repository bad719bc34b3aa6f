"""Scalar q-calculus: brackets, factorials, q-exponentials, Jackson sums, q-Gamma.

Conventions
-----------
Throughout, ``q`` is a real deformation parameter in (0, 1) and

    [a]_q = (1 - q^a) / (1 - q),

so ``[n]_q = 1 + q + ... + q^{n-1}`` for integer n and ``[n]_q -> n`` as
``q -> 1``.  Two q-exponentials of base b appear, defined by their series
and evaluated as their Euler products (Gasper-Rahman, section 1.3):

    E(x) = sum_k x^k / [k]!              = 1 / prod_k (1 - (1-b) b^k x)   (|x| < 1/(1-b)),
    e(x) = sum_j b^{j(j-1)/2} x^j / [j]! = prod_k (1 + (1-b) b^k x)       (entire),

mutually inverse via ``E(t) e(-t) = 1``, which the products satisfy factor
by factor.  ``e`` has real zeros at ``b^{-k} / (b - 1)`` for k >= 0, one per
factor.

The orthogonality weight used downstream is ``W(t) = e(-t^2)`` with base
``q^2``.  This all-q^2 ("substitution") variant satisfies the dilation
identity

    D^q_t W(t) = -(q+1) t W(q t)

to ~1e-13.  A mixed-base reading (prefactor base q^2 but factorial base q)
fails it by O(1e-1); that series lives in the test oracles, where the
selection is re-verified rather than assumed.

All types are immutable values; every operation is a pure function of its
inputs, safe for concurrent use.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "QContext",
    "jackson_depth",
    "JacksonLadder",
    "QExpVariant",
    "GramReport",
    "q_number",
    "q_brackets",
    "q_factorial",
    "q_factorials",
    "q_binomial",
    "q_bracket_gap",
    "q_derivative",
    "big_e_variant",
    "small_e_variant",
    "weight_variant",
    "weight_dilation_residual",
    "q_exp",
    "jackson_integral",
    "support_halfwidth",
    "q_gamma",
    "q_gamma_moment_check",
    "MomentIdentityReport",
]

# Truncation of the Fock kernel's series: a hard cap on the term count.
SERIES_MAX_TERMS = 600
# Euler products of the q-exponentials: a factor 1 +- y with |y| below
# _FACTOR_TOL rounds to exactly 1.0 and is not formed; at most _MAX_FACTORS
# factors (near base b -> 1 about 39/(1-b) are needed), multiplied in blocks
# of about _FACTOR_BLOCK floats.
_FACTOR_TOL = 1e-17
_MAX_FACTORS = 1 << 20
_FACTOR_BLOCK = 1 << 18
# Deepest Jackson ladder: QContext's default depth and jackson_depth's cap.
JACKSON_MAX_DEPTH = 400
# Absolute floor below which further Jackson nodes are discarded.
_QUAD_TERM_FLOOR = 1e-18
# Leading nodes can vanish legitimately (weights with an endpoint zero), so
# the early-stop rule only kicks in after this many nodes.
_QUAD_MIN_NODES = 8


class DomainError(ValueError):
    """An argument left the domain on which the operation is defined."""


@dataclass(frozen=True)
class QContext:
    """Deformation parameter plus the node depth of Jackson sums.

    Parameters
    ----------
    q : float
        Deformation parameter, strictly between 0 and 1.
    quad_max_level : int
        Node depth J of Jackson sums; nodes are ``c q^k`` for k <= J.
    """

    q: float
    quad_max_level: int = JACKSON_MAX_DEPTH

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if self.quad_max_level < 1:
            raise DomainError("quad_max_level must be >= 1")


def jackson_depth(q: float) -> int:
    """Ladder depth J(q) = min(400, ceil(log 1e-17 / log q)).

    J is the first node whose factor q^J is below 1e-17, so deeper nodes add
    nothing a float64 pairing can hold; the cap is ``JACKSON_MAX_DEPTH``, also
    ``QContext``'s default depth (q above about 0.907 keeps 400).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return min(JACKSON_MAX_DEPTH, math.ceil(math.log(1e-17) / math.log(q)))


@dataclass(frozen=True)
class JacksonLadder:
    """The node ladder of one (q, J): read-only arrays over k = 0..J.

    ``powers`` holds q^k as one running product (``np.cumprod``: plain IEEE
    multiplication, the same bits on every SIMD path); ``nodes`` the nodes
    lambda q^k, lambda = 1/sqrt(1-q^2); ``weights`` the symmetric pairing's
    (1-q) lambda q^k; ``w`` the weight W(lambda q^k) = prod_{m>=k} (1 - q^{2m})
    with q^{2m} = powers[m]^2, one backward running product.  That product
    starts where every further factor rounds to 1, so ``w[k]`` holds the same
    bits for every J, and ``w[0]`` is exactly 0.  Get one from :meth:`of`,
    which caches it per (q, J).
    """

    powers: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    w: np.ndarray

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def of(q: float, J: int) -> "JacksonLadder":
        if J < 0:
            raise DomainError(f"ladder depth must be >= 0, got {J}")
        lam = support_halfwidth(QContext(q=q))
        # 1 - q^{2m} rounds to exactly 1 once q^{2m} < 1e-17
        n = max(J, math.ceil(math.log(1e-17) / (2.0 * math.log(q))))
        powers = np.full(n + 1, q)
        powers[0] = 1.0
        powers = np.cumprod(powers)
        w = np.cumprod((1.0 - powers * powers)[::-1])[::-1]
        head = powers[: J + 1]
        arrays = (head.copy(), lam * head, (1.0 - q) * lam * head, w[: J + 1].copy())
        for a in arrays:
            a.flags.writeable = False
        return JacksonLadder(*arrays)


def q_number(alpha: float, ctx: QContext) -> float:
    """The bracket [alpha]_q = (1 - q^alpha)/(1 - q)."""
    q = ctx.q
    return (1.0 - q**alpha) / (1.0 - q)


@functools.lru_cache(maxsize=256)
def _bracket_table(q: float, n: int) -> np.ndarray:
    # Python's float pow, as q_number computes each bracket
    out = np.array([(1.0 - q**m) / (1.0 - q) for m in range(n + 1)])
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _factorial_table(q: float, n: int) -> np.ndarray:
    # a running product of Python floats: past float64 range it reads inf
    brackets = _bracket_table(q, n).tolist()[1:]
    out = np.fromiter(itertools.accumulate(brackets, operator.mul, initial=1.0), float, n + 1)
    out.flags.writeable = False
    return out


def q_brackets(n: int, ctx: QContext) -> np.ndarray:
    """[0]_q, ..., [n]_q, cached per (q, n) and read-only; entry m equals ``q_number(m, ctx)``."""
    if n < 0:
        raise DomainError("bracket table needs n >= 0")
    return _bracket_table(ctx.q, n)


def q_factorials(n: int, ctx: QContext) -> np.ndarray:
    """[0]_q!, ..., [n]_q! as the running product of the brackets [m]_q.

    Cached per (q, n) and read-only, so callers share one table.
    """
    if n < 0:
        raise DomainError("q-factorial needs n >= 0")
    return _factorial_table(ctx.q, n)


def q_factorial(n: int, ctx: QContext) -> float:
    """[n]_q! = prod_{m=1..n} [m]_q, with [0]_q! = 1: entry n of :func:`q_factorials`."""
    return float(q_factorials(n, ctx)[n])


def q_binomial(n: int, k: int, ctx: QContext) -> float:
    """Gaussian binomial [n]_q! / ([n-k]_q! [k]_q!)."""
    if k < 0 or k > n:
        raise DomainError(f"q-binomial needs 0 <= k <= n, got n={n}, k={k}")
    facts = q_factorials(n, ctx).tolist()
    return facts[n] / (facts[n - k] * facts[k])


def q_bracket_gap(n: int, ctx: QContext) -> float:
    """[n+1]_q - [n]_q, which equals q^n."""
    if n < 0:
        raise DomainError("bracket gap needs n >= 0")
    return q_number(n + 1, ctx) - q_number(n, ctx)


def q_derivative(f, x, ctx: QContext):
    """Difference quotient (f(qx) - f(x)) / ((q-1) x), at a point or elementwise on an array.

    Raises
    ------
    DomainError
        If any point is 0, where the defining quotient is singular.
        Polynomial callers should use the exact coefficient rule in the
        bivariate polynomial module instead.
    """
    if np.any(np.equal(x, 0)):
        raise DomainError("q-derivative quotient is singular at x = 0")
    q = ctx.q
    return (f(q * x) - f(x)) / ((q - 1.0) * x)


_BIG_E = "E"
_SMALL_E = "e"


@dataclass(frozen=True)
class QExpVariant:
    """Selector for one of the two q-exponentials.

    ``kind`` is "E" (finite radius) or "e" (entire, triangular prefactor).
    ``base`` b drives the series' prefactor ``b^{j(j-1)/2}`` and bracket
    factorials alike, and so the factors (1 -+ (1-b) b^k x) of the product.
    """

    kind: str
    base: float

    def __post_init__(self) -> None:
        if self.kind not in (_BIG_E, _SMALL_E):
            raise DomainError(f"unknown q-exponential kind {self.kind!r}")
        if not (0.0 < self.base < 1.0):
            raise DomainError("q-exponential base must lie in (0, 1)")


def big_e_variant(base: float) -> QExpVariant:
    return QExpVariant(_BIG_E, base)


def small_e_variant(base: float) -> QExpVariant:
    return QExpVariant(_SMALL_E, base)


def weight_variant(q: float) -> QExpVariant:
    """The canonical weight series: all-q^2 substitution variant."""
    return small_e_variant(q * q)


def q_exp(variant: QExpVariant, x):
    """Evaluate the selected q-exponential at x, a float or an array, as its Euler product.

    e(x) = prod_k (1 + (1-b) b^k x) and E(x) = 1 / prod_k (1 - (1-b) b^k x),
    b the base, over k <= K with b^k from ``JacksonLadder.of(b, K).powers``.
    K is worked out in logs from b and the largest finite |x|, so that every
    later factor rounds to exactly 1.0.  The factors multiply in ascending
    k, in blocks of about ``_FACTOR_BLOCK`` floats, so each element equals
    its one-point product bit for bit, whatever the rest of its array holds.
    A 0-d input returns a float, an array input an array of its shape.

    Raises
    ------
    DomainError
        For kind "E" if any |x| >= 1/(1-base), outside its disc of
        convergence; when more than ``_MAX_FACTORS`` factors are needed.
    """
    b = variant.base
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    size = np.abs(flat)
    if variant.kind == _BIG_E:
        radius = 1.0 / (1.0 - b)
        outside = size >= radius
        if outside.any():
            raise DomainError(
                f"E-series diverges for |x| >= 1/(1-base) = {radius:.6g}, got |x| = {size[outside][0]:.6g}"
            )
    # K from the largest finite |x| (a non-finite x gives a non-finite
    # product), in logs: 1e-17 / ((1-b) |x|) underflows for |x| near 1e308
    big = float(size[np.isfinite(size)].max(initial=0.0))
    K = 0
    if big > 0.0:
        K = max(0, math.ceil((math.log(_FACTOR_TOL) - math.log1p(-b) - math.log(big)) / math.log(b)))
    if K > _MAX_FACTORS:
        raise DomainError(
            f"q-exponential at base {b!r} and |x| = {big:.6g} needs {K} Euler factors, over {_MAX_FACTORS}"
        )
    coeffs = (1.0 - b) * JacksonLadder.of(b, K).powers
    if variant.kind == _BIG_E:
        coeffs = -coeffs
    rows = max(1, _FACTOR_BLOCK // max(flat.size, 1))
    prod = np.ones(flat.size)
    # a product may overflow to inf, and E's to a zero divisor at the disc's edge
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, coeffs.size, rows):
            factors = 1.0 + np.multiply.outer(coeffs[start : start + rows], flat)
            prod = np.multiply.reduce(np.vstack((prod, factors)), axis=0)
        out = 1.0 / prod if variant.kind == _BIG_E else prod
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def weight_dilation_residual(variant: QExpVariant, ctx: QContext, points) -> float:
    """Max residual of D^q_t W(t) + (q+1) t W(q t) over the nonzero points, W(t) = variant(-t^2).

    The canonical weight variant satisfies this identity to rounding; the
    mixed-base reading in the test oracles does not.
    """

    def w(t):
        return q_exp(variant, -t * t)

    t = np.asarray(points, dtype=float)
    t = t[t != 0]
    q = ctx.q
    lhs = q_derivative(w, t, ctx)
    rhs = -(q + 1.0) * t * w(q * t)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def _half_line_sum(f, c: float, ctx: QContext) -> float:
    # (1-q) c sum_k q^k f(c q^k) on the ladder's powers, ascending k, with the
    # absolute-floor early stop.  f is called once on the node vector, which
    # ends where c q^k underflows to 0; the sum is a running sum, as in a
    # one-node-at-a-time loop.
    if c == 0.0:
        return 0.0
    q = ctx.q
    scale = (1.0 - q) * abs(c)
    qk = JacksonLadder.of(q, ctx.quad_max_level).powers
    nodes = c * qk
    live = np.count_nonzero(nodes)
    terms = qk[:live] * f(nodes[:live])
    below = scale * np.abs(terms) < _QUAD_TERM_FLOOR
    below[:_QUAD_MIN_NODES] = False
    stop = int(below.argmax()) if below.any() else live - 1
    return (1.0 - q) * c * float(np.cumsum(terms[: stop + 1])[-1])


def jackson_integral(f, a: float, b: float, ctx: QContext) -> float:
    """Jackson sum of f over [a, b] on the nodes c q^k, k <= ``ctx.quad_max_level``, c in {a, b}.

    Evaluated as the [0, b] sum minus the [0, a] sum; f must accept an
    array: it is called once per endpoint on that endpoint's node vector.
    """
    return _half_line_sum(f, b, ctx) - _half_line_sum(f, a, ctx)


def support_halfwidth(ctx: QContext) -> float:
    """lambda = 1/sqrt(1 - q^2), the half-width of the symmetric node set."""
    return 1.0 / math.sqrt(1.0 - ctx.q * ctx.q)


def q_gamma(t: float, ctx: QContext) -> float:
    """q-Gamma via its infinite product.

    Gamma_q(t) = (1-q)^{1-t} prod_{k>=1} (1 - q^k) / prod_{k>=0} (1 - q^{t+k}),
    satisfying Gamma_q(t+1) = [t]_q Gamma_q(t) and Gamma_q(1) = 1.

    Raises
    ------
    DomainError
        For t <= 0 (no analytic continuation attempted).
    """
    if t <= 0.0:
        raise DomainError("q-Gamma product formula requires t > 0")
    q = ctx.q
    # Factors are negligible once q^k < 1e-17; log1p keeps the long products
    # stable near q -> 1 where hundreds of thousands of factors contribute.
    terms = max(16, int(math.log(1e-17) / math.log(q)) + 1)
    total = 0.0
    chunk = 1 << 20
    for start in range(0, terms, chunk):
        ks = np.arange(start, min(start + chunk, terms), dtype=float)
        total += float(np.sum(np.log1p(-(q ** (ks + 1.0))) - np.log1p(-(q ** (t + ks)))))
    return (1.0 - q) ** (1.0 - t) * math.exp(total)


@dataclass(frozen=True)
class MomentIdentityReport:
    """Both sides of the symmetric-interval moment identity and their gap."""

    nu: int
    lhs: float
    rhs: float
    rel_gap: float
    parity_skipped: bool
    note: str


_EVEN_MOMENT_NOTE = (
    "even exponent: integrand is odd, symmetric Jackson sum vanishes; check restricted to odd exponents"
)


def q_gamma_moment_check(nu, ctx: QContext):
    """Check the moment identity on [-lambda, lambda] for integer nu >= 1.

    The identity states that the symmetric Jackson sum of
    ``t^{nu-1} W(t)``, with W the canonical weight, equals
    ``(2/(q+1)) q^nu Gamma_{q^2}(nu/2)``.

    For even nu the integrand is odd and the symmetric sum vanishes
    identically, so the check is skipped with a note rather than reported
    as a residual.  Non-integer nu is rejected: t^{nu-1} is not real on
    the negative half of the node set.

    ``nu`` may also be a sequence of exponents, which gives a tuple of
    reports.  W is evaluated once per call: the two halves of the node set
    square to the same bits, and every exponent shares them.
    """
    many = not np.isscalar(nu)
    nus = list(nu) if many else [nu]
    if any(n != int(n) or n < 1 for n in nus):
        raise DomainError("moment check needs a positive integer exponent")
    q = ctx.q
    lam = support_halfwidth(ctx)
    w_vals = None
    reports = []
    for n in map(int, nus):
        rhs = (2.0 / (q + 1.0)) * q**n * q_gamma(n / 2.0, QContext(q=q * q))
        if n % 2 == 0:
            reports.append(MomentIdentityReport(n, 0.0, rhs, 0.0, True, _EVEN_MOMENT_NOTE))
            continue
        if w_vals is None:
            nodes = JacksonLadder.of(q, ctx.quad_max_level).nodes
            w_vals = q_exp(weight_variant(q), -nodes * nodes)
        # Python's pow node by node: numpy's ** differs from it in the last bit
        lhs = jackson_integral(
            lambda t, p=n - 1: np.array([u**p for u in t.tolist()]) * w_vals[: t.size], -lam, lam, ctx
        )
        reports.append(MomentIdentityReport(n, lhs, rhs, abs(lhs - rhs) / abs(rhs), False, ""))
    return tuple(reports) if many else reports[0]


class GramReport:
    """A labeled matrix of inner products with deviation diagnostics.

    Parameters
    ----------
    labels : list of str
        Row/column labels, in matrix order.
    matrix : ndarray
        The Gram matrix.
    target : str
        Human-readable description of the expected matrix.
    target_matrix : ndarray, optional
        When given, ``max_dev`` is the max absolute entrywise deviation.
    """

    def __init__(self, labels, matrix, target, target_matrix=None):
        self.labels = list(labels)
        self.matrix = np.asarray(matrix)
        self.target = target
        herm = np.allclose(self.matrix, self.matrix.conj().T, rtol=0.0, atol=1e-30) or bool(
            np.max(np.abs(self.matrix - self.matrix.conj().T)) <= 1e-10 * (1.0 + np.max(np.abs(self.matrix)))
        )
        self.trace = float(np.real(np.trace(self.matrix)))
        if herm:
            eigs = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)
            self.min_eig = float(eigs[0])
            self.rank = int(np.sum(eigs > 1e-12 * max(self.trace, 1.0)))
        else:
            self.min_eig = float("nan")
            self.rank = -1
        if target_matrix is not None:
            self.max_dev = float(np.max(np.abs(self.matrix - np.asarray(target_matrix))))
        else:
            self.max_dev = float("nan")

    def to_json_dict(self) -> dict:
        return {
            "labels": self.labels,
            "matrix_re": np.real(self.matrix).tolist(),
            "matrix_im": np.imag(self.matrix).tolist(),
            "target": self.target,
            "trace": self.trace,
            "min_eig": self.min_eig,
            "max_dev": None if math.isnan(self.max_dev) else self.max_dev,
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["label", *self.labels]]
        for lab, row in zip(self.labels, self.matrix):
            cells = []
            for v in row:
                z = complex(v)
                cells.append(repr(z.real) if z.imag == 0.0 else f"{z.real!r}+{z.imag!r}i")
            rows.append([lab, *cells])
        return rows
