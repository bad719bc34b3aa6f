"""Transform between weighted node functions and the holomorphic model.

Functions live on the symmetric node ladder {+-lambda q^j}, lambda =
1/sqrt(1-q^2), with the plain symmetric Jackson pairing

    <f, g> = (1-q) lambda sum_j q^j (f(+lambda q^j) conj(g(+..))
                                     + f(-lambda q^j) conj(g(-..))),

evaluated as one weighted dot against the ladder weights (1-q) lambda q^j;
numpy picks the summation order, so results agree with a fixed-order loop
to a few ulps, not bit for bit.  The normalized Hermite functions
h_n = H_n sqrt(W) / sqrt(Lambda_n) are orthonormal under this pairing, and
the transform

    (B f)_n = <f, h_n> / sqrt([n]_q!)

sends h_m to Z_m / sqrt([m]_q!), an orthonormal set under the Fischer
pairing, so B is an isometry on the truncated span.  The coherent state
at z is the kernel section

    Phi_z = sum_n Z_n(z) h_n / sqrt([n]_q!),

whose pairwise overlaps reproduce the Fock kernel: <Phi_z, Phi_w> =
K(z, w).  The two-variable transform applies the same contraction on each
axis and reports coefficients against the normalized tensor basis, so a
product input h_k (x) h_h maps to the single unit entry (k, h).

Every operation accepts either a QContext (a default table is built and
cached) or a prebuilt BargmannKernelTable.  The table holds the mode values
h_n and the projector P_n = h_n * weights, so the forward transform is one
matrix-vector product P f and the Grams are matrix products of stacked
images.  P is real, and the two-variable transform P F P^T runs in real
arithmetic: a complex F is contracted through its float view instead of
upcasting P.  Mode counts are clamped to the float64 representability ceiling
of the normalized family (see qhermite.mode_ceiling); requesting more
modes silently yields the ceiling, recorded in
``BargmannKernelTable.modes``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from qcore import DomainError, GramReport, JacksonLadder, QContext, q_factorials
from qcomplex import zq_point_values
from qfock import FockElement
from qhermite import mode_ceiling, qhermite_function_values

__all__ = [
    "JacksonFunction",
    "BargmannKernelTable",
    "TensorFockElement",
    "build_kernel_table",
    "bargmann_forward",
    "bargmann_basis_image",
    "bargmann_unitarity_gram",
    "coherent_state",
    "coherent_overlap",
    "tensor_basis",
    "tensor_forward",
    "tensor_unitarity_gram",
]


@dataclass(frozen=True)
class JacksonFunction:
    """Values on the node ladder: ``values[0, j]`` at +lambda q^j, ``[1, j]`` at -."""

    values: np.ndarray
    ctx: QContext

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != 2:
            raise DomainError("node values must have shape (2, J+1)")
        object.__setattr__(self, "values", np.asarray(v, dtype=complex))

    @property
    def level(self) -> int:
        return self.values.shape[1] - 1

    def inner(self, other: "JacksonFunction") -> complex:
        if other.values.shape != self.values.shape:
            raise DomainError("node sets differ")
        return np.vdot(other.values, self.values * JacksonLadder.of(self.ctx.q, self.level).weights)

    def __add__(self, other: "JacksonFunction") -> "JacksonFunction":
        if other.values.shape != self.values.shape:
            raise DomainError("node sets differ")
        return JacksonFunction(self.values + other.values, self.ctx)

    def scaled(self, c: complex) -> "JacksonFunction":
        return JacksonFunction(c * self.values, self.ctx)


@dataclass(frozen=True)
class BargmannKernelTable:
    """Precomputed normalized-Hermite node values backing the transform.

    ``hvals[n]`` holds h_n on the ladder with shape (2, J+1); ``proj[n]``
    is the projector row h_n * weights, so <f, h_n> = sum(proj[n] * f);
    ``modes`` is the effective mode count after the representability
    clamp; ``inv_sqrt_fact[n]`` is 1/sqrt([n]_q!).  Treat instances as
    read-only: they are shared through a cache.
    """

    ctx: QContext
    modes: int
    level: int
    hvals: np.ndarray
    inv_sqrt_fact: np.ndarray
    proj: np.ndarray

    def mode_function(self, n: int) -> JacksonFunction:
        if not 0 <= n <= self.modes:
            raise DomainError("mode index exceeds the table's range")
        return JacksonFunction(self.hvals[n], self.ctx)


def build_kernel_table(ctx: QContext, modes: int | None = None) -> BargmannKernelTable:
    ceiling = mode_ceiling(ctx)
    eff = ceiling if modes is None else min(modes, ceiling)
    if eff < 0:
        raise DomainError("mode count must be >= 0")
    J = ctx.quad_max_level
    hv = qhermite_function_values(eff, ctx)
    isf = 1.0 / np.sqrt(q_factorials(eff, ctx))
    proj = hv * JacksonLadder.of(ctx.q, J).weights
    return BargmannKernelTable(ctx=ctx, modes=eff, level=J, hvals=hv, inv_sqrt_fact=isf, proj=proj)


@functools.lru_cache(maxsize=8)
def _cached_table(ctx: QContext, modes: int | None) -> BargmannKernelTable:
    return build_kernel_table(ctx, modes=modes)


def _ensure_table(ctx_or_table, modes: int | None = None) -> BargmannKernelTable:
    if isinstance(ctx_or_table, BargmannKernelTable):
        return ctx_or_table
    if isinstance(ctx_or_table, QContext):
        return _cached_table(ctx_or_table, modes)
    raise DomainError("expected a QContext or a BargmannKernelTable")


def _as_node_function(f, table: BargmannKernelTable) -> JacksonFunction:
    if isinstance(f, JacksonFunction):
        if f.level != table.level:
            raise DomainError("node sets differ between function and table")
        return f
    return JacksonFunction(np.asarray(f), table.ctx)


def bargmann_forward(f, ctx_or_table) -> FockElement:
    """Coefficients b_n = <f, h_n> / sqrt([n]_q!) for n = 0..modes."""
    table = _ensure_table(ctx_or_table)
    fn = _as_node_function(f, table)
    p_flat = table.proj.reshape(table.modes + 1, -1)
    coeffs = table.inv_sqrt_fact * (p_flat @ fn.values.reshape(-1))
    return FockElement(coeffs, table.ctx)


def bargmann_basis_image(m: int, ctx_or_table) -> FockElement:
    """Transform of h_m; exact answer is the single monomial Z_m / sqrt([m]_q!)."""
    table = _ensure_table(ctx_or_table)
    if not 0 <= m <= table.modes:
        raise DomainError("basis index exceeds the table's mode range")
    return bargmann_forward(table.mode_function(m), table)


def bargmann_unitarity_gram(M: int, ctx_or_table) -> GramReport:
    """Fischer Gram of the transformed basis images, target identity.

    ``M`` is clamped to the table's mode range.
    """
    table = _ensure_table(ctx_or_table)
    n = min(M, table.modes) + 1
    p_flat = table.proj.reshape(table.modes + 1, -1)
    h_flat = table.hvals[:n].reshape(n, -1)
    # column m holds the coefficients of the image of h_m
    imgs = table.inv_sqrt_fact[:, np.newaxis] * (p_flat @ h_flat.T)
    fact = q_factorials(table.modes, table.ctx)
    mat = imgs.T @ (fact[:, np.newaxis] * imgs.conj())
    labels = [f"h{m}" for m in range(n)]
    return GramReport(labels, mat.astype(complex), target="identity", target_matrix=np.eye(n))


def coherent_state(z: complex, ctx_or_table) -> JacksonFunction:
    """Kernel section Phi_z = sum_n Z_n(z) h_n / sqrt([n]_q!), truncated.

    Pairing h_n against Phi_z recovers conj(Z_n(z)) / sqrt([n]_q!), and
    <Phi_z, Phi_w> reproduces the Fock kernel K(z, w).  The parameter must
    satisfy |z| < 1/(1-q), the kernel's domain disc.
    """
    table = _ensure_table(ctx_or_table)
    z = complex(z)
    radius = 1.0 / (1.0 - table.ctx.q)
    if abs(z) >= radius:
        raise DomainError(
            f"coherent parameter |z|={abs(z):.6g} outside the domain disc of radius {radius:.6g}"
        )
    zn = zq_point_values(z, table.modes, table.ctx)
    return JacksonFunction(np.tensordot(zn * table.inv_sqrt_fact, table.hvals, axes=(0, 0)), table.ctx)


def coherent_overlap(z: complex, w: complex, ctx_or_table) -> complex:
    """<Phi_z, Phi_w> under the node pairing; equals K(z, w) up to truncation."""
    table = _ensure_table(ctx_or_table)
    return coherent_state(z, table).inner(coherent_state(w, table))


@dataclass(frozen=True)
class TensorFockElement:
    """Coefficients against the normalized tensor basis Z_k Z_h / sqrt([k]![h]!).

    The basis is orthonormal in the two-variable pairing.
    """

    matrix: np.ndarray
    ctx: QContext

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


def tensor_basis(a: int, b: int, ctx_or_table) -> np.ndarray:
    """Node values of h_a (x) h_b with shape (2, J+1, 2, J+1)."""
    table = _ensure_table(ctx_or_table)
    if not (0 <= a <= table.modes and 0 <= b <= table.modes):
        raise DomainError("basis index exceeds the table's mode range")
    return np.multiply.outer(table.hvals[a], table.hvals[b])


def tensor_forward(F: np.ndarray, ctx_or_table) -> TensorFockElement:
    """Double Jackson contraction of F against h_k (x) h_h on both axes.

    ``F[s, j, t, k]`` is the value at (sign_s lambda q^j, sign_t lambda q^k);
    the output entry (k, h) is <<F, h_k (x) h_h>>, so product inputs
    h_k (x) h_h map to a single unit entry.  With F flattened to an
    (n, n) matrix, n = 2(J+1), and P the flattened projector, the result
    is P F P^T, computed in real arithmetic: a real F is never upcast, and
    a complex F enters the first product through its float view.
    """
    table = _ensure_table(ctx_or_table)
    F = np.asarray(F)
    J = table.level
    if F.shape != (2, J + 1, 2, J + 1):
        raise DomainError("tensor values must have shape (2, J+1, 2, J+1)")
    n = 2 * (J + 1)
    p_flat = table.proj.reshape(table.modes + 1, n)
    # a complex F is read as its interleaved (n, 2n) float view
    dtype = complex if np.iscomplexobj(F) else float
    F = np.ascontiguousarray(F, dtype=dtype).reshape(n, n)
    half = (p_flat @ F.view(float)).view(dtype)  # (modes+1, n)
    return TensorFockElement(matrix=half @ p_flat.T, ctx=table.ctx)


def tensor_unitarity_gram(kmax: int, ctx_or_table) -> GramReport:
    """Gram of transformed tensor basis elements h_a (x) h_b, a, b <= kmax.

    The image of h_a (x) h_b is the outer product B_a B_b^T of the real
    1-D images B = P H^T (P the flattened projector, H the flattened mode
    values h_0..h_kmax), so the Gram of the tensor images is kron(G, G)
    with G = B^T B, in the row order (a, b) of the labels.
    """
    table = _ensure_table(ctx_or_table)
    n = min(kmax, table.modes) + 1
    p_flat = table.proj.reshape(table.modes + 1, -1)
    imgs = p_flat @ table.hvals[:n].reshape(n, -1).T
    g = imgs.T @ imgs
    labels = [f"h{a}xh{b}" for a in range(n) for b in range(n)]
    return GramReport(labels, np.kron(g, g).astype(complex), target="identity", target_matrix=np.eye(n * n))
