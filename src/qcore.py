"""Scalar q-calculus: brackets, factorials, q-exponentials, Jackson sums, q-Gamma.

Conventions
-----------
Throughout, ``q`` is a real deformation parameter in (0, 1) and

    [a]_q = (1 - q^a) / (1 - q),

so ``[n]_q = 1 + q + ... + q^{n-1}`` for integer n and ``[n]_q -> n`` as
``q -> 1``.  Two exponential series appear:

    E(x) = sum_k x^k / [k]!                       (radius 1/(1-base)),
    e(x) = sum_j base^{j(j-1)/2} x^j / [j]!       (entire),

mutually inverse via ``E(t) e(-t) = 1``.  ``e`` has real zeros at
``base^{-k} / (base - 1)`` for k >= 0.

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
    "QExpVariant",
    "JacksonQuadrature",
    "GramReport",
    "q_number",
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

# Truncation of the infinite series: a hard cap on the term count, and the
# relative tail tolerance at which a series stops.
SERIES_MAX_TERMS = 600
SERIES_TERM_TOL = 1e-18
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
    quad_max_level: int = 400

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if self.quad_max_level < 1:
            raise DomainError("quad_max_level must be >= 1")


def jackson_depth(q: float) -> int:
    """Ladder depth J(q) = min(400, ceil(log 1e-17 / log q)).

    J is the first node whose factor q^J is below 1e-17, so deeper nodes add
    nothing a float64 pairing can hold; the cap is ``QContext``'s default depth, so
    no ladder is deeper than that default (q above about 0.907 keeps 400).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return min(QContext.quad_max_level, math.ceil(math.log(1e-17) / math.log(q)))


def q_number(alpha: float, ctx: QContext) -> float:
    """The bracket [alpha]_q = (1 - q^alpha)/(1 - q)."""
    q = ctx.q
    return (1.0 - q**alpha) / (1.0 - q)


def q_factorials(n: int, ctx: QContext) -> np.ndarray:
    """[0]_q!, ..., [n]_q! as the running product of the brackets [m]_q."""
    if n < 0:
        raise DomainError("q-factorial needs n >= 0")
    # a running product of Python floats: past float64 range it reads inf
    brackets = (q_number(m, ctx) for m in range(1, n + 1))
    return np.fromiter(itertools.accumulate(brackets, operator.mul, initial=1.0), float, n + 1)


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
    """Selector for one of the two q-exponential series.

    ``kind`` is "E" (finite radius) or "e" (entire, triangular prefactor).
    ``base`` drives both the prefactor ``base^{j(j-1)/2}`` and the bracket
    factorials in the denominator.
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


@functools.lru_cache(maxsize=64)
def _series_factors(b: float):
    """Brackets [k]_b and powers b^(k-1) for k = 1..SERIES_MAX_TERMS-1, read-only.

    Both come from Python's float pow: numpy's ``**`` differs from it in the
    last bit for a few percent of the powers, which would move the sums.
    """
    ks = range(1, SERIES_MAX_TERMS)
    brackets = np.array([(1.0 - b**k) / (1.0 - b) for k in ks])
    powers = np.array([b ** (k - 1) for k in ks])
    brackets.flags.writeable = False
    powers.flags.writeable = False
    return brackets, powers


def q_exp(variant: QExpVariant, x):
    """Evaluate the selected q-exponential series at x, a float or an array.

    Term k is term k-1 times x / [k]_b (times b^(k-1) for kind "e").
    Truncation: an element stops at the first term below
    ``SERIES_TERM_TOL`` relative to its partial sum, or at
    ``SERIES_MAX_TERMS``.  The terms run in blocks of doubling width, with
    the last term and partial sum carried from block to block; the running
    products and sums are ``np.cumprod`` / ``np.cumsum`` along the term
    axis, which repeat the one-point recurrence operation for operation, so
    every element equals its scalar sum bit for bit.  A 0-d input returns
    a float, an array input an array of its shape.

    Raises
    ------
    DomainError
        For kind "E" if any |x| >= 1/(1-base), outside its disc of convergence.
    """
    b = variant.base
    xs = np.asarray(x, dtype=float)
    if variant.kind == _BIG_E:
        radius = 1.0 / (1.0 - b)
        outside = np.abs(xs) >= radius
        if outside.any():
            bad = abs(float(xs[outside][0]))
            raise DomainError(
                f"E-series diverges for |x| >= 1/(1-base) = {radius:.6g}, got |x| = {bad:.6g}"
            )
    brackets, powers = _series_factors(b)
    flat = xs.reshape(-1)
    out = np.empty(flat.size)
    live = np.arange(flat.size)  # elements whose series has not stopped
    term = np.ones(flat.size)
    acc = np.ones(flat.size)
    start, width = 0, 16
    # a float64 term may overflow to inf, as the Python float loop did silently
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and start < brackets.size:
            stop = min(start + width, brackets.size)
            xl = flat[live, np.newaxis]
            if variant.kind == _BIG_E:
                factor = xl / brackets[start:stop]
            else:
                factor = powers[start:stop] * xl / brackets[start:stop]
            terms = np.cumprod(np.hstack((term[:, np.newaxis], factor)), axis=1)[:, 1:]
            sums = np.cumsum(np.hstack((acc[:, np.newaxis], terms)), axis=1)[:, 1:]
            done = np.abs(terms) <= SERIES_TERM_TOL * (1.0 + np.abs(sums))
            hit = done.any(axis=1)
            out[live[hit]] = sums[hit, done[hit].argmax(axis=1)]
            term, acc, live = terms[~hit, -1], sums[~hit, -1], live[~hit]
            start, width = stop, 2 * width
    out[live] = acc  # series cut at SERIES_MAX_TERMS
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


@dataclass(frozen=True)
class JacksonQuadrature:
    """Geometric node rule on [a, b]: nodes c q^k, weights (1-q) c q^k per endpoint."""

    a: float
    b: float
    level: int
    ctx: QContext

    def __post_init__(self) -> None:
        if self.level < 1:
            raise DomainError("quadrature level must be >= 1")

    @classmethod
    def on(cls, a: float, b: float, ctx: QContext) -> "JacksonQuadrature":
        return cls(a, b, ctx.quad_max_level, ctx)


def _half_line_sum(f, c: float, level: int, ctx: QContext) -> float:
    # (1-q) c sum_k q^k f(c q^k), ascending k, with the absolute-floor early
    # stop.  f is called once on the node vector, which ends where c q^k
    # underflows to 0; q^k is a running product and the sum a running sum,
    # as in a one-node-at-a-time loop.
    if c == 0.0:
        return 0.0
    q = ctx.q
    scale = (1.0 - q) * abs(c)
    qk = np.full(level + 1, q)
    qk[0] = 1.0
    qk = np.cumprod(qk)
    nodes = c * qk
    live = np.count_nonzero(nodes)
    terms = qk[:live] * f(nodes[:live])
    below = scale * np.abs(terms) < _QUAD_TERM_FLOOR
    below[:_QUAD_MIN_NODES] = False
    stop = int(below.argmax()) if below.any() else live - 1
    return (1.0 - q) * c * float(np.cumsum(terms[: stop + 1])[-1])


def jackson_integral(f, quad: JacksonQuadrature) -> float:
    """Jackson sum of f over [a, b], evaluated as the [0,b] sum minus the [0,a] sum.

    f must accept an array: it is called once per endpoint on that
    endpoint's node vector.
    """
    ctx = quad.ctx
    return _half_line_sum(f, quad.b, quad.level, ctx) - _half_line_sum(f, quad.a, quad.level, ctx)


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


def q_gamma_moment_check(nu: int, ctx: QContext) -> MomentIdentityReport:
    """Check the moment identity on [-lambda, lambda] for integer nu >= 1.

    The identity states that the symmetric Jackson sum of
    ``t^{nu-1} W(t)``, with W the canonical weight, equals
    ``(2/(q+1)) q^nu Gamma_{q^2}(nu/2)``.

    For even nu the integrand is odd and the symmetric sum vanishes
    identically, so the check is skipped with a note rather than reported
    as a residual.  Non-integer nu is rejected: t^{nu-1} is not real on
    the negative half of the node set.
    """
    if nu != int(nu) or nu < 1:
        raise DomainError("moment check needs a positive integer exponent")
    nu = int(nu)
    q = ctx.q
    lam = support_halfwidth(ctx)
    rhs = (2.0 / (q + 1.0)) * q**nu * q_gamma(nu / 2.0, QContext(q=q * q))
    if nu % 2 == 0:
        return MomentIdentityReport(
            nu=nu,
            lhs=0.0,
            rhs=rhs,
            rel_gap=0.0,
            parity_skipped=True,
            note="even exponent: integrand is odd, symmetric Jackson sum vanishes; check restricted to odd exponents",
        )
    wv = weight_variant(q)

    def integrand(t: np.ndarray) -> np.ndarray:
        # Python's pow node by node: numpy's ** differs from it in the last bit
        return np.array([u ** (nu - 1) for u in t.tolist()]) * q_exp(wv, -t * t)

    lhs = jackson_integral(integrand, JacksonQuadrature.on(-lam, lam, ctx))
    return MomentIdentityReport(
        nu=nu,
        lhs=lhs,
        rhs=rhs,
        rel_gap=abs(lhs - rhs) / abs(rhs),
        parity_skipped=False,
        note="",
    )


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
