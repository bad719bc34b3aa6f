"""Holomorphic-model state space on the Z_n basis with the Fischer pairing.

Elements are finite expansions f = sum_n a_n Z_n with

    <f, g> = sum_n [n]_q! a_n conj(b_n),

so the monomials satisfy <Z_n, Z_m> = delta_{nm} [n]_q!.  The reproducing
kernel of this pairing,

    K(z, w) = sum_n Z_n(z) conj(Z_n(w)) / [n]_q!,

converges for |z w| < 1/(1-q) and reduces to exp(z conj(w)) as q -> 1.

Elements store their coefficients as a read-only complex array.  The
operators act on the last axis of a coefficient array, so a whole stack of
elements goes through one call (the ``*_stack`` functions); the
``*_apply`` functions are the one-element views of the same code:

    X: a_n -> a_{n-1}          (multiplication-type shift, e_n -> e_{n+1})
    D: e_n -> [n]_q e_{n-1}    (lowering derivative; adjoint of X)
    P = -i D
    a   = (sqrt2/2)(X + iP):  e_n -> (sqrt2/2)(e_{n+1} + [n]_q e_{n-1})
    a^+ = (sqrt2/2)(X - iP):  e_n -> (sqrt2/2)(e_{n+1} - [n]_q e_{n-1})

with [a, a^+] e_n = q^n e_n (the e_{n+-2} contributions cancel exactly;
the same factor comes out of the [D, X] route).

Matrix form on the truncated Z_n basis: X is the unit subdiagonal and D
the superdiagonal [n]_q.  The Fischer adjoint is the similarity by
diag([n]_q!), under which X^dagger = D, and DX - qXD = 1 is the Arik-Coon
relation (J. Math. Phys. 17, 1976).  So the pair named a, a^+ here is not
a mutually adjoint ladder pair: a = (X + D)/sqrt2 is Fischer-self-adjoint
and a^+ = (X - D)/sqrt2 is anti-self-adjoint, which makes them a
position/momentum-type pair.  The defect <a e_0, e_1> - <e_0, a^+ e_1> is
sqrt(2), while <D f, g> = <f, X g> holds identically.  Whether the paper
names the pair this way is unconfirmed against its body; only the
abstract is at hand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qcore import SERIES_MAX_TERMS, DomainError, QContext, q_brackets, q_factorials
from qcomplex import zq_point_values

__all__ = [
    "FockElement",
    "KernelEvaluation",
    "CommutatorReport",
    "basis_element",
    "fischer_inner",
    "fischer_gram",
    "norm_sq_stack",
    "kernel_eval",
    "kernel_values",
    "kernel_element",
    "position_apply",
    "momentum_apply",
    "derivative_apply",
    "annihilation_apply",
    "creation_apply",
    "position_stack",
    "derivative_stack",
    "momentum_stack",
    "annihilation_stack",
    "creation_stack",
    "commutator_check",
    "commutator_checks",
    "adjoint_check",
    "adjoint_pairings",
    "oscillator_adjoint_gap",
]

_KERNEL_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockElement:
    """Finite expansion over Z_0..Z_{len(coeffs)-1}.

    ``coeffs`` is stored as a read-only complex ndarray; any sequence of
    numbers is accepted.
    """

    coeffs: np.ndarray
    ctx: QContext

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or not c.size:
            raise DomainError("element needs a flat, nonempty coefficient sequence")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def norm_sq(self) -> float:
        return float(norm_sq_stack(self.coeffs, self.ctx))

    def eval(self, z: complex) -> complex:
        vals = zq_point_values(complex(z), self.coeffs.size - 1, self.ctx)
        return complex(np.dot(self.coeffs, vals))


def basis_element(n: int, ctx: QContext, size: int | None = None) -> FockElement:
    if n < 0:
        raise DomainError("basis index must be >= 0")
    m = n + 1 if size is None else size
    if m <= n:
        raise DomainError("size too small for requested basis index")
    coeffs = np.zeros(m)
    coeffs[n] = 1.0
    return FockElement(coeffs, ctx)


def fischer_inner(f: FockElement, g: FockElement) -> complex:
    n = min(f.coeffs.size, g.coeffs.size)
    a = q_factorials(n - 1, f.ctx) * f.coeffs[:n]
    return complex(np.vdot(g.coeffs[:n], a))


def norm_sq_stack(c, ctx: QContext):
    """<f, f> for every row f of a coefficient stack."""
    c = np.asarray(c, dtype=complex)
    return np.abs(c) ** 2 @ q_factorials(c.shape[-1] - 1, ctx)


def fischer_gram(a, b, ctx: QContext) -> np.ndarray:
    """Pairings <a_i, b_k> of two coefficient stacks (rows), truncated to the shorter rows."""
    n = min(a.shape[-1], b.shape[-1])
    return (q_factorials(n - 1, ctx) * a[:, :n]) @ np.conj(b[:, :n]).T


@dataclass(frozen=True)
class KernelEvaluation:
    z: complex
    w: complex
    truncation: int
    value: complex
    tail_bound: float


def kernel_values(z, w, ctx: QContext):
    """K(z_i, w_i) at every point of the arrays z and w, broadcast together.

    Each point is truncated on its own.  Since |Z_n(z)| <= |z|^n, the term
    at index n is bounded by (|z||w|)^n / [n]_q!.  A point stops summing at
    the first n where the ratio of successive bounds, |z||w| / [n+1]_q, is
    below one and that bound is below 1e-12 of the point's running value,
    or at ``SERIES_MAX_TERMS``; the geometric tail from there gives its
    tail bound.  [n]_q! is shared by all points; w^n is kept per point.
    The recurrence runs on real and imaginary parts separately, in the
    order of the complex products and quotient of one point, so a point's
    value does not depend on the other points in the array.

    Returns ``(values, truncation, tail_bound)``, arrays of the broadcast
    shape.  Raises DomainError when any |w| or |z w| reaches the
    convergence radius 1/(1-q), where the bound ratios no longer drop below
    one, or when a bound leaves float64 range before its point stops.
    """
    w = np.asarray(w, dtype=complex)
    wabs = np.hypot(w.real, w.imag)
    q = ctx.q
    radius = 1.0 / (1.0 - q)
    if wabs.size and wabs.max() >= radius:
        raise DomainError(
            f"kernel argument |w|={wabs.max():.6g} outside the domain disc of radius {radius:.6g}"
        )
    z, w, wabs = np.broadcast_arrays(np.asarray(z, dtype=complex), w, wabs)
    shape = z.shape
    x = z.real.ravel()
    y = z.imag.ravel()
    u = w.real.ravel()
    v = w.imag.ravel()
    zw_all = np.hypot(x, y) * wabs.ravel()
    if zw_all.size and zw_all.max() >= radius:
        raise DomainError(
            f"kernel series needs |z w| < {radius:.6g}, got {zw_all.max():.6g}"
        )
    size = zw_all.size
    values = np.ones(size, dtype=complex)
    truncation = np.zeros(size, dtype=int)
    bounds = np.ones(size)
    ratios = np.ones(size)
    # state of the points still summing, compacted as they stop
    idx = np.arange(size)
    zw = zw_all
    zr, zi = np.ones(size), np.zeros(size)
    wr, wi = np.ones(size), np.zeros(size)
    ar, ai = np.ones(size), np.zeros(size)
    brackets = q_brackets(SERIES_MAX_TERMS + 1, ctx).tolist()
    fact = 1.0
    n = 0
    # past float64 range the bound reads inf or nan; that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        while n < SERIES_MAX_TERMS and idx.size:
            qn = q**n
            qy = qn * y
            qv = qn * v
            zr, zi = zr * x - zi * qy, zr * qy + zi * x
            wr, wi = wr * u - wi * qv, wr * qv + wi * u
            fact *= brackets[n + 1]
            n += 1
            # z^n conj(w^n), rounded as one point's complex product rounds it
            ar = ar + (zr * wr + zi * wi) / fact
            ai = ai + (zi * wr - zr * wi) / fact
            bound = zw**n / fact
            # ratio of successive bounds decreases toward zw(1-q) < 1
            ratio = zw / brackets[n + 1]
            done = (ratio < 1.0) & (bound < _KERNEL_REL_TOL * np.hypot(ar, ai))
            if n == SERIES_MAX_TERMS:
                done[:] = True
            if done.any():
                out = idx[done]
                values.real[out] = ar[done]
                values.imag[out] = ai[done]
                truncation[out] = n
                bounds[out] = bound[done]
                ratios[out] = ratio[done]
                keep = ~done
                idx, zw, x, y, u, v = idx[keep], zw[keep], x[keep], y[keep], u[keep], v[keep]
                zr, zi, wr, wi, ar, ai = zr[keep], zi[keep], wr[keep], wi[keep], ar[keep], ai[keep]
    if not (np.all(np.isfinite(bounds)) and np.all(np.isfinite(values))):
        raise DomainError(
            f"kernel series leaves float64 range before converging, |z w| up to {zw_all.max():.6g}"
        )
    with np.errstate(divide="ignore"):
        tail = np.where(ratios < 1.0, bounds * ratios / (1.0 - ratios), math.inf)
    return values.reshape(shape), truncation.reshape(shape), tail.reshape(shape)


def kernel_eval(z: complex, w: complex, ctx: QContext) -> KernelEvaluation:
    """K(z, w) at one point: :func:`kernel_values` on a one-point array.

    Summation stops at the first n where |z||w| / [n+1]_q < 1 and
    (|z||w|)^n / [n]_q! < 1e-12 |running value|; ``tail_bound`` is the
    geometric tail from there.  Raises DomainError when |w| or |z w|
    reaches the convergence radius 1/(1-q), or when the bound leaves
    float64 range first.
    """
    z = complex(z)
    w = complex(w)
    values, truncation, tail = kernel_values(np.array([z]), w, ctx)
    return KernelEvaluation(
        z=z, w=w, truncation=int(truncation[0]), value=complex(values[0]), tail_bound=float(tail[0])
    )


def kernel_element(w: complex, ctx: QContext, size: int) -> FockElement:
    """The kernel section K(., w) truncated to the first ``size`` coefficients.

    Pairing any element of degree < size against it evaluates the element
    at w exactly: <f, K(., w)> = f(w).
    """
    if size < 1:
        raise DomainError("size must be >= 1")
    if abs(complex(w)) >= 1.0 / (1.0 - ctx.q):
        raise DomainError("kernel argument outside the domain disc")
    vals = zq_point_values(complex(w), size - 1, ctx)
    return FockElement(vals.conj() / q_factorials(size - 1, ctx), ctx)


def position_stack(c) -> np.ndarray:
    """X on the last axis of a coefficient stack: every index moves up by one."""
    c = np.asarray(c, dtype=complex)
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=complex)
    out[..., 1:] = c
    return out


def derivative_stack(c, ctx: QContext) -> np.ndarray:
    """D on the last axis: entry n - 1 of the output is [n]_q a_n; a constant maps to one zero."""
    c = np.asarray(c, dtype=complex)
    size = c.shape[-1]
    if size == 1:
        return np.zeros_like(c)
    return q_brackets(size - 1, ctx)[1:] * c[..., 1:]


def momentum_stack(c, ctx: QContext) -> np.ndarray:
    """P = -i D on the last axis."""
    return -1j * derivative_stack(c, ctx)


def _pad(c: np.ndarray, size: int) -> np.ndarray:
    # c zero-padded on the last axis to the given length
    out = np.zeros(c.shape[:-1] + (size,), dtype=complex)
    out[..., : c.shape[-1]] = c
    return out


def _ladder_stack(c, ctx: QContext, sign: int) -> np.ndarray:
    # (sqrt2/2)(X +- D), D padded to the length of X
    up = position_stack(c)
    down = _pad(derivative_stack(c, ctx), up.shape[-1])
    return math.sqrt(2.0) / 2.0 * (up + down if sign > 0 else up - down)


def annihilation_stack(c, ctx: QContext) -> np.ndarray:
    """a = (sqrt2/2)(X + D) on the last axis."""
    return _ladder_stack(c, ctx, +1)


def creation_stack(c, ctx: QContext) -> np.ndarray:
    """a^+ = (sqrt2/2)(X - D) on the last axis."""
    return _ladder_stack(c, ctx, -1)


def position_apply(f: FockElement) -> FockElement:
    """X: shifts every basis index up by one."""
    return FockElement(position_stack(f.coeffs), f.ctx)


def derivative_apply(f: FockElement) -> FockElement:
    """D: e_n -> [n]_q e_{n-1}."""
    return FockElement(derivative_stack(f.coeffs, f.ctx), f.ctx)


def momentum_apply(f: FockElement) -> FockElement:
    """P = -i D."""
    return FockElement(momentum_stack(f.coeffs, f.ctx), f.ctx)


def annihilation_apply(f: FockElement) -> FockElement:
    """a = (sqrt2/2)(X + iP): e_n -> (sqrt2/2)(e_{n+1} + [n]_q e_{n-1})."""
    return FockElement(annihilation_stack(f.coeffs, f.ctx), f.ctx)


def creation_apply(f: FockElement) -> FockElement:
    """a^+ = (sqrt2/2)(X - iP): e_n -> (sqrt2/2)(e_{n+1} - [n]_q e_{n-1})."""
    return FockElement(creation_stack(f.coeffs, f.ctx), f.ctx)


def _difference(one: np.ndarray, two: np.ndarray) -> np.ndarray:
    # one - two on the last axis, the shorter padded with zeros
    size = max(one.shape[-1], two.shape[-1])
    return _pad(one, size) - _pad(two, size)


@dataclass(frozen=True)
class CommutatorReport:
    """Diagonal action of [a, a^+] on e_n: factor should equal q^n exactly.

    ``route_gap`` compares the ladder route with [D, X]; ``stray`` is the
    largest leftover coefficient away from e_n (the e_{n+-2} contributions
    cancel identically, so it is 0.0).
    """

    n: int
    factor: float
    route_gap: float
    stray: float


def commutator_checks(n_max: int, ctx: QContext) -> list:
    """:class:`CommutatorReport` for e_0..e_{n_max}, all from one identity stack."""
    if n_max < 0:
        raise DomainError("basis index must be >= 0")
    eye = np.eye(n_max + 1)
    ladder = _difference(
        annihilation_stack(creation_stack(eye, ctx), ctx), creation_stack(annihilation_stack(eye, ctx), ctx)
    )
    via_dx = _difference(derivative_stack(position_stack(eye), ctx), position_stack(derivative_stack(eye, ctx)))
    idx = np.arange(n_max + 1)
    diag = ladder[idx, idx]
    gap = diag - via_dx[idx, idx]
    # np.hypot is what abs() of a Python complex computes
    gaps = np.hypot(gap.real, gap.imag)
    off = np.hypot(ladder.real, ladder.imag)
    off[idx, idx] = 0.0
    stray = off.max(axis=1)
    return [
        CommutatorReport(n=n, factor=float(diag[n].real), route_gap=float(gaps[n]), stray=float(stray[n]))
        for n in range(n_max + 1)
    ]


def commutator_check(n: int, ctx: QContext) -> CommutatorReport:
    """The report for e_n: entry n of :func:`commutator_checks`."""
    return commutator_checks(n, ctx)[n]


def adjoint_pairings(R, Q, ctx: QContext):
    """Pairings <D R_i, Q_i> and <R_i, X Q_i> for the rows of two coefficient stacks.

    Each pair is one ``np.vdot``, in the operation order of
    :func:`fischer_inner`; the identity is that the two arrays agree.
    """
    R = np.asarray(R, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    DR = derivative_stack(R, ctx)
    XQ = position_stack(Q)
    lhs = np.empty(R.shape[:-1], dtype=complex)
    rhs = np.empty(R.shape[:-1], dtype=complex)
    n = min(DR.shape[-1], Q.shape[-1])
    m = min(R.shape[-1], XQ.shape[-1])
    left = q_factorials(n - 1, ctx) * DR[..., :n]
    right = q_factorials(m - 1, ctx) * R[..., :m]
    for i in np.ndindex(lhs.shape):
        lhs[i] = np.vdot(Q[i][:n], left[i])
        rhs[i] = np.vdot(XQ[i][:m], right[i])
    return lhs, rhs


def adjoint_check(R: FockElement, Q: FockElement) -> float:
    """|<D R, Q> - <R, X Q>| for the derivative/shift pair; zero to rounding."""
    lhs, rhs = adjoint_pairings(R.coeffs, Q.coeffs, R.ctx)
    return abs(complex(lhs) - complex(rhs))


def oscillator_adjoint_gap(ctx: QContext) -> float:
    """|<a e_0, e_1> - <e_0, a^+ e_1>| = sqrt(2): the ladder pair is not adjoint."""
    e0 = basis_element(0, ctx, 3)
    e1 = basis_element(1, ctx, 3)
    return abs(fischer_inner(annihilation_apply(e0), e1) - fischer_inner(e0, creation_apply(e1)))
