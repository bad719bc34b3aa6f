"""The deformed Hermite family orthogonal under e(-t^2) on [-lambda, lambda].

The polynomials H_k are generated by

    H_0 = 1,  H_1 = (q+1) t,
    H_{k+1} = (q+1) t H_k - (q+1) [k]_q q^{k+1} H_{k-1},

equivalently by the explicit coefficients

    a_k^j = (q+1)^{k-j} [k]_q! / ([k-2j]_q! * prod_{m<=j} [-2m]_q)

on t^{k-2j}, with the standard negative bracket [-m]_q = (1-q^{-m})/(1-q).
This family satisfies, with D the one-variable q-derivative,

    D H_k = (q+1) [k]_q H_{k-1}                       (annihilation)
    H_k = ((q+1) t - q^k D) H_{k-1}                   (creation)
    H_k(q t) = q^k ((q+1) t - D) H_{k-1}(t)           (creation, dilated)
    (D^2 - (q+1) t D) H_k + (q+1) [k]_q q^{-k} H_k(q t) = 0

and is orthogonal under the weight W(t) = e(-t^2) (base q^2) on the node
set {+-lambda q^j}, lambda = 1/sqrt(1-q^2), with

    <H_k, H_l>_W = delta_{kl} Lambda_k,
    Lambda_k = 2 (q+1)^{k-1} q^{(k+1)(k+2)/2} [k]_q! Gamma_{q^2}(1/2).

Numerics notes
--------------
* The coefficients come from one cached, read-only table per (q, n)
  (:func:`qhermite_table`; ``lru_cache`` of 16, at least 17 x 17): row k
  holds H_k on t^0..t^k, and the recurrence runs row after row, so row k
  has the same bits for every n.  The ladder and eigen checks, the
  parity and closed-form entries of ``verify``, the Grams and the mode
  functions all read its rows; a row past float64 range raises
  ``DomainError`` naming its degree.  Node values of all rows come from
  one Horner sweep down the table's columns.
* Nodes, powers and W values all come from the cached
  :class:`qcore.JacksonLadder` of (q, J).  At the nodes, W(lambda q^j) =
  prod_{m>=j} (1 - q^{2m}) exactly; the quadratures below use this
  telescoping product (backward cumulative, so the endpoint weight is
  exactly zero) instead of the series, which leaves ~1e-16 endpoint
  noise that the polynomials amplify by ~3e3.
* Normalized function values for high modes shrink like sqrt(Lambda_k)
  (super-geometrically in k), so beyond a q-dependent mode ceiling they
  are not representable from float64 polynomial evaluation; see
  :func:`mode_ceiling`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List

import numpy as np

from qcore import (
    DomainError,
    JacksonLadder,
    QContext,
    q_brackets,
    q_factorials,
    q_gamma,
    q_number,
    support_halfwidth,
)

__all__ = [
    "QHermitePoly",
    "OrthogonalityReport",
    "norm_constant",
    "mode_ceiling",
    "qhermite_table",
    "qhermite_recurrence",
    "qhermite_explicit",
    "qhermite_annihilate",
    "qhermite_create",
    "qhermite_eigencheck",
    "weight_relation_check",
    "weight_node_values",
    "qhermite_orthogonality",
    "hermite_gram",
    "qhermite_function",
    "qhermite_function_values",
    "classical_hermite_coeffs",
    "classical_limit_gap",
]


@dataclass(frozen=True)
class QHermitePoly:
    """Degree-k member with dense ascending coefficients on t^0..t^k."""

    k: int
    coeffs: tuple
    ctx: QContext

    def __call__(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _dilated(c: np.ndarray, s: float) -> np.ndarray:
    # coefficients of p(s t) from those of p(t): t^m picks up s^m
    return c * s ** np.arange(len(c))


def _qderiv(c: np.ndarray, ctx: QContext) -> np.ndarray:
    # coefficients of the q-derivative: t^m -> [m]_q t^{m-1}
    if len(c) <= 1:
        return np.zeros(1)
    return q_brackets(len(c) - 1, ctx)[1:] * c[1:]


# Smallest table built: verify's checks (k <= 12) and the Grams of the
# usual degree caps share one table per q.
_TABLE_MIN = 16


@functools.lru_cache(maxsize=16)
def _coeff_rows(q: float, n: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) table: row k holds H_k on t^0..t^k, zeros past t^k.

    One running recurrence, so row k has the same bits for every n.

    Raises
    ------
    DomainError
        At the first row with a coefficient outside float64 range, naming its degree.
    """
    brackets = q_brackets(n, QContext(q=q)).tolist()
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = 1.0
    if n >= 1:
        table[1, 1] = q + 1.0
    # past float64 range a row reads inf or nan; it is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            table[k + 1, 1 : k + 2] = (q + 1.0) * table[k, : k + 1]
            table[k + 1, :k] -= (q + 1.0) * brackets[k] * q ** (k + 1) * table[k - 1, :k]
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise DomainError(f"H_{int(finite.argmin())} coefficients leave float64 range at q = {q!r}")
    table.flags.writeable = False
    return table


def qhermite_table(k_max: int, ctx: QContext) -> np.ndarray:
    """Coefficients of H_0..H_k_max: a read-only (k_max+1) x (k_max+1) view, row k on t^0..t^k.

    A view of the cached table of (q, max(k_max, 16)); entry (k, m) has
    the same bits whatever the size asked for.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    return _coeff_rows(ctx.q, max(k_max, _TABLE_MIN))[: k_max + 1, : k_max + 1]


def qhermite_recurrence(k_max: int, ctx: QContext) -> List[QHermitePoly]:
    """H_0..H_{k_max} by the three-term recurrence: the rows of :func:`qhermite_table`."""
    table = qhermite_table(k_max, ctx)
    return [QHermitePoly(k, tuple(table[k, : k + 1]), ctx) for k in range(k_max + 1)]


def _neg_bracket(m: int, q: float) -> float:
    # [-m]_q = (1 - q^{-m})/(1 - q) = -[m]_q / q^m
    return (1.0 - q ** (-m)) / (1.0 - q)


def qhermite_explicit(k: int, ctx: QContext) -> QHermitePoly:
    """H_k from the closed-form coefficients; equals the recurrence output.

    Coefficient on t^{k-2j}:
    (q+1)^{k-j} [k]_q! / ([k-2j]_q! * [-2]_q [-4]_q ... [-2j]_q).
    """
    if k < 0:
        raise DomainError("index must be >= 0")
    q = ctx.q
    facts = q_factorials(k, ctx)
    coeffs = np.zeros(k + 1)
    for j in range(k // 2 + 1):
        denom = facts[k - 2 * j]
        for m in range(1, j + 1):
            denom *= _neg_bracket(2 * m, q)
        coeffs[k - 2 * j] = (q + 1.0) ** (k - j) * facts[k] / denom
    return QHermitePoly(k, tuple(coeffs), ctx)


def _pad_to(arr: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: len(arr)] = arr
    return out


def qhermite_annihilate(k: int, ctx: QContext) -> float:
    """Max coefficient of D H_k - (q+1)[k] H_{k-1}, relative to H_k's scale."""
    if k < 1:
        raise DomainError("annihilation check needs k >= 1")
    table = qhermite_table(k, ctx)
    # both sides have degree k-1
    res = _qderiv(table[k], ctx) - (ctx.q + 1.0) * q_number(k, ctx) * table[k - 1, :k]
    return float(np.max(np.abs(res))) / float(np.max(np.abs(table[k])))


def qhermite_create(k: int, ctx: QContext) -> tuple:
    """Residuals of both creation identities, scaled like the annihilation check."""
    if k < 1:
        raise DomainError("creation check needs k >= 1")
    q = ctx.q
    table = qhermite_table(k, ctx)
    hk = table[k]
    hk1 = table[k - 1, :k]
    scale = float(np.max(np.abs(hk)))
    t_shift = np.concatenate(([0.0], (q + 1.0) * hk1))
    d = _pad_to(_qderiv(hk1, ctx), k + 1)
    first = hk - t_shift + q**k * d
    second = _dilated(hk, q) - q**k * t_shift + q**k * d
    return float(np.max(np.abs(first))) / scale, float(np.max(np.abs(second))) / scale


def qhermite_eigencheck(k: int, ctx: QContext) -> float:
    """Residual of (D^2 - (q+1) t D) H_k + (q+1) [k] q^{-k} H_k(q t), scaled."""
    if k < 0:
        raise DomainError("index must be >= 0")
    if k == 0:
        return 0.0
    q = ctx.q
    hk = qhermite_table(k, ctx)[k]
    d1 = _qderiv(hk, ctx)
    d2 = _qderiv(d1, ctx)
    td = np.concatenate(([0.0], d1))
    eig = q_number(k, ctx) * q ** (-k)
    res = _pad_to(d2, k + 1) - (q + 1.0) * td + (q + 1.0) * eig * _dilated(hk, q)
    return float(np.max(np.abs(res))) / float(np.max(np.abs(hk)))


@functools.lru_cache(maxsize=64)
def _gamma_half(q: float) -> float:
    """Gamma_{q^2}(1/2), the k-independent factor of every Lambda_k."""
    return q_gamma(0.5, QContext(q=q * q))


def _norm_constants(k_max: int, ctx: QContext) -> np.ndarray:
    """Lambda_0..Lambda_{k_max}, Lambda_k = 2 (q+1)^{k-1} q^{(k+1)(k+2)/2} [k]_q! Gamma_{q^2}(1/2)."""
    if k_max < 0:
        raise DomainError("index must be >= 0")
    q = ctx.q
    gam = _gamma_half(q)
    facts = q_factorials(k_max, ctx)
    return np.array(
        [2.0 * (q + 1.0) ** (k - 1) * q ** ((k + 1) * (k + 2) / 2.0) * facts[k] * gam for k in range(k_max + 1)]
    )


def norm_constant(k: int, ctx: QContext) -> float:
    """Lambda_k, entry k of the norm constants Lambda_0..Lambda_k."""
    return float(_norm_constants(k, ctx)[k])


def weight_node_values(ctx: QContext, level: int | None = None) -> np.ndarray:
    """W(lambda q^j) = prod_{m>=j} (1 - q^{2m}) for j = 0..level (default ``ctx.quad_max_level``).

    The read-only ``w`` array of :class:`qcore.JacksonLadder`: a backward
    running product, so the endpoint value (j=0, where the m=0 factor
    vanishes) is exactly zero and entry j is the same for every level;
    evaluating the series there instead leaves rounding noise that ruins
    Gram diagonals.
    """
    return JacksonLadder.of(ctx.q, ctx.quad_max_level if level is None else level).w


def _node_eval(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Horner values of every coefficient row at the node vector t; shape (len(rows), len(t)).

    All rows step together from the top column down; a row's zeros past its
    degree keep its running value at exactly 0 until its top coefficient,
    so each row gets the bits of its own Horner loop.
    """
    rows = np.asarray(rows)
    acc = np.zeros((rows.shape[0], t.size))
    for c in rows.T[::-1]:
        acc = acc * t + c[:, np.newaxis]
    return acc


@dataclass(frozen=True)
class OrthogonalityReport:
    k: int
    l: int
    value: float
    target: float
    gap: float


def qhermite_orthogonality(k: int, l: int, ctx: QContext) -> OrthogonalityReport:
    """Entry (k, l) of :func:`hermite_gram` against delta_{kl} Lambda_k.

    The gap is relative to Lambda_k on the diagonal and to
    max(Lambda_k, Lambda_l) off it.
    """
    if k < 0 or l < 0:
        raise DomainError("indices must be >= 0")
    gram, lam = hermite_gram(max(k, l), ctx)
    value = float(gram[k, l])
    lam_k, lam_l = float(lam[k]), float(lam[l])
    if k == l:
        return OrthogonalityReport(k, l, value, lam_k, abs(value - lam_k) / lam_k)
    return OrthogonalityReport(k, l, value, 0.0, abs(value) / max(lam_k, lam_l))


def hermite_gram(kmax: int, ctx: QContext):
    """Weighted Jackson Gram of H_0..H_kmax and its target diag(Lambda_k).

    With V_+- the rows evaluated on the +-lambda q^j nodes and d_j =
    W(lambda q^j) q^j, the Gram is (1-q) lambda (V_+ diag(d) V_+^T +
    V_- diag(d) V_-^T).  The two branch products sum in the same order, so parity-forbidden entries (k + l odd) cancel to
    exact zeros; the upper triangle is mirrored so the matrix is exactly
    symmetric.  Returns ``(matrix, lambdas)``.
    """
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    q = ctx.q
    ladder = JacksonLadder.of(q, ctx.quad_max_level)
    table = qhermite_table(kmax, ctx)
    vp = _node_eval(table, ladder.nodes)
    vm = _node_eval(table, -ladder.nodes)
    d = ladder.w * ladder.powers
    gram = (vp * d) @ vp.T + (vm * d) @ vm.T
    gram = (1.0 - q) * support_halfwidth(ctx) * (np.triu(gram) + np.triu(gram, 1).T)
    return gram, _norm_constants(kmax, ctx)


def weight_relation_check(k: int, ctx: QContext) -> float:
    """Max residual of H_k(qt) W(qt) + q^k D[H_{k-1} W](t) over interior nodes.

    D is applied as the two-point quotient on the node ladder; W at the
    nodes comes from the telescoping product.  The scan stops six decades
    below the endpoint: further down the quotient differences two nearly
    equal floats and the 1/((q-1)t) factor amplifies that rounding noise
    above any meaningful residual (for odd k the even-degree neighbor has
    a nonzero constant term, which is the worst case).
    """
    if k < 1:
        raise DomainError("weight relation needs k >= 1")
    q = ctx.q
    lam = support_halfwidth(ctx)
    J = ctx.quad_max_level
    table = qhermite_table(k, ctx)
    ladder = JacksonLadder.of(q, J + 1)
    w = ladder.w
    worst = 0.0
    for sign in (1.0, -1.0):
        nodes = sign * ladder.nodes[: J + 1]
        vals_k_at_qt = _node_eval(table[k:], q * nodes)[0]
        f_at_t = _node_eval(table[k - 1 : k, :k], nodes)[0] * w[: J + 1]
        f_at_qt = _node_eval(table[k - 1 : k, :k], q * nodes)[0] * w[1 : J + 2]
        # interior nodes: skip j = 0 (the endpoint) and stop at the first
        # node below 1e-6 lambda (|t| decreases along the ladder)
        j = np.arange(1, 1 + np.count_nonzero(np.abs(nodes[1:]) >= 1e-6 * lam))
        dq = (f_at_qt[j] - f_at_t[j]) / ((q - 1.0) * nodes[j])
        lhs = vals_k_at_qt[j] * w[j + 1]
        worst = max(worst, float(np.max(np.abs(lhs + q**k * dq), initial=0.0)))
    return worst


def qhermite_function_values(k_max: int, ctx: QContext) -> np.ndarray:
    """Normalized node values h_k = H_k sqrt(W) / sqrt(Lambda_k), k = 0..k_max.

    Shape (k_max+1, 2, J+1): ``[k, 0, j]`` is h_k at +lambda q^j and
    ``[k, 1, j]`` at -lambda q^j.  The family is orthonormal under the
    plain (unweighted) symmetric Jackson inner product.
    """
    ladder = JacksonLadder.of(ctx.q, ctx.quad_max_level)
    lam = _norm_constants(k_max, ctx)
    rows = qhermite_table(k_max, ctx)
    sw = np.sqrt(ladder.w)
    scale = 1.0 / np.sqrt(lam)[:, np.newaxis]
    vals = np.empty((k_max + 1, 2, ladder.nodes.size))
    vals[:, 0] = _node_eval(rows, ladder.nodes) * sw * scale
    vals[:, 1] = _node_eval(rows, -ladder.nodes) * sw * scale
    return vals


def qhermite_function(k: int, ctx: QContext) -> np.ndarray:
    """Node values of h_k, shape (2, J+1): row k of :func:`qhermite_function_values`."""
    return qhermite_function_values(k, ctx)[k]


# Largest mode count mode_ceiling reports.
_MODE_CAP = 64


def mode_ceiling(ctx: QContext) -> int:
    """Largest mode count whose normalized values are float64-representable.

    Normalized node values scale like sqrt(Lambda_n) while polynomial
    evaluation carries absolute noise ~1e-15 times the coefficient scale
    ~((q+1) lambda q)^n at the dominant nodes, so modes with
    Lambda_n < 1e-22 * max(1, ((q+1) lambda q)^{2n}) are noise.  Gives 8
    at q=0.3, 12 at q=0.5, and >= 16 for q >= 0.7.
    """
    q = ctx.q
    growth = max(1.0, (q + 1.0) * support_halfwidth(ctx) * q)
    norms = _norm_constants(_MODE_CAP, ctx)
    n = 2
    while n < _MODE_CAP:
        if norms[n + 1] < 1e-22 * growth ** (2 * (n + 1)):
            break
        n += 1
    return n


def classical_hermite_coeffs(k: int) -> np.ndarray:
    """Integer coefficients of the classical (physicists') Hermite polynomial."""
    if k < 0:
        raise DomainError("index must be >= 0")
    m2, m1 = [1], [0, 2]
    if k == 0:
        return np.array(m2, dtype=float)
    for n in range(1, k):
        up = [0] + [2 * c for c in m1]
        down = [2 * n * c for c in m2] + [0] * (len(up) - len(m2))
        m2, m1 = m1, [a - b for a, b in zip(up, down)]
    return np.array(m1, dtype=float)


def classical_limit_gap(k_max: int, ctx: QContext) -> float:
    """Worst relative coefficient deviation from the classical family, k <= k_max.

    The deviation decays like O((1-q) k^2); at q = 1 - 1e-6 it measures
    ~1e-5 for k <= 5, at q = 0.999 it measures ~1e-2.
    """
    worst = 0.0
    table = qhermite_table(k_max, ctx)
    for k in range(k_max + 1):
        ref = classical_hermite_coeffs(k)
        live = ref != 0.0
        worst = max(worst, float(np.max(np.abs(table[k, : k + 1][live] - ref[live]) / np.abs(ref[live]))))
    return worst
