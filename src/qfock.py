"""Holomorphic-model state space on the Z_n basis with the Fischer pairing.

Elements are finite expansions f = sum_n a_n Z_n with

    <f, g> = sum_n [n]_q! a_n conj(b_n),

so the monomials satisfy <Z_n, Z_m> = delta_{nm} [n]_q!.  The reproducing
kernel of this pairing,

    K(z, w) = sum_n Z_n(z) conj(Z_n(w)) / [n]_q!,

converges for |z w| < 1/(1-q) and reduces to exp(z conj(w)) as q -> 1.

Operators act on coefficient sequences:

    X: a_n -> a_{n-1}          (multiplication-type shift, e_n -> e_{n+1})
    D: e_n -> [n]_q e_{n-1}    (lowering derivative; adjoint of X)
    P = -i D
    a   = (sqrt2/2)(X + iP):  e_n -> (sqrt2/2)(e_{n+1} + [n]_q e_{n-1})
    a^+ = (sqrt2/2)(X - iP):  e_n -> (sqrt2/2)(e_{n+1} - [n]_q e_{n-1})

with [a, a^+] e_n = q^n e_n (the e_{n+-2} contributions cancel exactly;
the same factor comes out of the [D, X] route).  The pair (a, a^+) is not
mutually adjoint under the Fischer pairing: the defect is sqrt(2) already
on (e_0, e_1), while <D f, g> = <f, X g> holds identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qcore import SERIES_MAX_TERMS, DomainError, QContext, q_factorials, q_number
from qcomplex import zq_point_values

__all__ = [
    "FockElement",
    "KernelEvaluation",
    "CommutatorReport",
    "basis_element",
    "fischer_inner",
    "kernel_eval",
    "kernel_values",
    "kernel_element",
    "position_apply",
    "momentum_apply",
    "derivative_apply",
    "annihilation_apply",
    "creation_apply",
    "commutator_check",
    "adjoint_check",
    "oscillator_adjoint_gap",
]

_KERNEL_REL_TOL = 1e-12


@dataclass(frozen=True)
class FockElement:
    """Finite expansion over Z_0..Z_{len(coeffs)-1}."""

    coeffs: tuple
    ctx: QContext

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("element needs at least one coefficient")

    def norm_sq(self) -> float:
        c = np.asarray(self.coeffs)
        return float(np.dot(q_factorials(len(c) - 1, self.ctx), np.abs(c) ** 2))

    def eval(self, z: complex) -> complex:
        vals = zq_point_values(complex(z), len(self.coeffs) - 1, self.ctx)
        return complex(np.dot(np.asarray(self.coeffs), vals))


def basis_element(n: int, ctx: QContext, size: int | None = None) -> FockElement:
    if n < 0:
        raise DomainError("basis index must be >= 0")
    m = n + 1 if size is None else size
    if m <= n:
        raise DomainError("size too small for requested basis index")
    coeffs = [0.0] * m
    coeffs[n] = 1.0
    return FockElement(tuple(coeffs), ctx)


def fischer_inner(f: FockElement, g: FockElement) -> complex:
    n = min(len(f.coeffs), len(g.coeffs))
    a = q_factorials(n - 1, f.ctx) * np.asarray(f.coeffs[:n])
    return complex(np.vdot(np.asarray(g.coeffs[:n]), a))


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
            fact *= q_number(n + 1, ctx)
            n += 1
            # z^n conj(w^n), rounded as one point's complex product rounds it
            ar = ar + (zr * wr + zi * wi) / fact
            ai = ai + (zi * wr - zr * wi) / fact
            bound = zw**n / fact
            # ratio of successive bounds decreases toward zw(1-q) < 1
            ratio = zw / q_number(n + 1, ctx)
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
    return FockElement(tuple(vals.conj() / q_factorials(size - 1, ctx)), ctx)


def position_apply(f: FockElement) -> FockElement:
    """X: shifts every basis index up by one."""
    return FockElement((0.0,) + f.coeffs, f.ctx)


def derivative_apply(f: FockElement) -> FockElement:
    """D: e_n -> [n]_q e_{n-1}."""
    if len(f.coeffs) == 1:
        return FockElement((0.0,), f.ctx)
    out = [q_number(n, f.ctx) * f.coeffs[n] for n in range(1, len(f.coeffs))]
    return FockElement(tuple(out), f.ctx)


def momentum_apply(f: FockElement) -> FockElement:
    """P = -i D."""
    d = derivative_apply(f)
    return FockElement(tuple(-1j * c for c in d.coeffs), f.ctx)


def _pad(coeffs: tuple, size: int) -> list:
    return list(coeffs) + [0.0 + 0j] * (size - len(coeffs))


def annihilation_apply(f: FockElement) -> FockElement:
    """a = (sqrt2/2)(X + iP): e_n -> (sqrt2/2)(e_{n+1} + [n]_q e_{n-1})."""
    s = math.sqrt(2.0) / 2.0
    up = _pad(position_apply(f).coeffs, len(f.coeffs) + 1)
    down = _pad(derivative_apply(f).coeffs, len(f.coeffs) + 1)
    return FockElement(tuple(s * (a + b) for a, b in zip(up, down)), f.ctx)


def creation_apply(f: FockElement) -> FockElement:
    """a^+ = (sqrt2/2)(X - iP): e_n -> (sqrt2/2)(e_{n+1} - [n]_q e_{n-1})."""
    s = math.sqrt(2.0) / 2.0
    up = _pad(position_apply(f).coeffs, len(f.coeffs) + 1)
    down = _pad(derivative_apply(f).coeffs, len(f.coeffs) + 1)
    return FockElement(tuple(s * (a - b) for a, b in zip(up, down)), f.ctx)


def _apply_diff(f: FockElement, first, second) -> FockElement:
    one = second(first(f))
    two = first(second(f))
    size = max(len(one.coeffs), len(two.coeffs))
    a = _pad(one.coeffs, size)
    b = _pad(two.coeffs, size)
    return FockElement(tuple(x - y for x, y in zip(a, b)), f.ctx)


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


def commutator_check(n: int, ctx: QContext) -> CommutatorReport:
    if n < 0:
        raise DomainError("basis index must be >= 0")
    e = basis_element(n, ctx)
    ladder = _apply_diff(e, creation_apply, annihilation_apply)
    factor = complex(ladder.coeffs[n]).real
    stray = max(
        (abs(c) for m, c in enumerate(ladder.coeffs) if m != n), default=0.0
    )
    via_dx = _apply_diff(e, position_apply, derivative_apply)
    route_gap = abs(ladder.coeffs[n] - via_dx.coeffs[n])
    return CommutatorReport(n=n, factor=factor, route_gap=route_gap, stray=stray)


def adjoint_check(R: FockElement, Q: FockElement) -> float:
    """|<D R, Q> - <R, X Q>| for the derivative/shift pair; zero to rounding."""
    lhs = fischer_inner(derivative_apply(R), Q)
    rhs = fischer_inner(R, position_apply(Q))
    return abs(lhs - rhs)


def oscillator_adjoint_gap(ctx: QContext) -> float:
    """|<a e_0, e_1> - <e_0, a^+ e_1>| = sqrt(2): the ladder pair is not adjoint."""
    e0 = basis_element(0, ctx, 3)
    e1 = basis_element(1, ctx, 3)
    return abs(fischer_inner(annihilation_apply(e0), e1) - fischer_inner(e0, creation_apply(e1)))
