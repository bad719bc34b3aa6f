"""Independent reference values and artifact parsers for the output checks.

Nothing here calls the library: every value a check compares against is
recomputed from its definition with numpy or mpmath, so a wrong library
result cannot also produce the value it is checked against.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np


def q_factorials(q: float, n: int) -> np.ndarray:
    """[0]_q! .. [n]_q! as a cumulative product of (1 - q^m) / (1 - q)."""
    m = np.arange(1, n + 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((1.0 - q**m) / (1.0 - q))))


def node_weights(q: float, level: int) -> np.ndarray:
    """Symmetric Jackson pairing weights (1-q) lambda q^j, j = 0..level."""
    lam = 1.0 / math.sqrt(1.0 - q * q)
    return (1.0 - q) * lam * q ** np.arange(level + 1, dtype=float)


def node_norm_sq(values: np.ndarray, q: float) -> float:
    """Squared node-pairing norm of values with shape (2, J+1)."""
    w = node_weights(q, values.shape[1] - 1)
    return float(np.sum(w * (np.abs(values[0]) ** 2 + np.abs(values[1]) ** 2)))


def fischer_norm_sq(coeffs, q: float) -> float:
    """Fischer norm sum_n [n]_q! |c_n|^2 of Z_n coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    return float(np.sum(q_factorials(q, len(c) - 1) * np.abs(c) ** 2))


def node_inner(f: np.ndarray, g: np.ndarray, q: float) -> complex:
    """Symmetric Jackson pairing <f, g> of node values with shape (2, J+1)."""
    w = node_weights(q, f.shape[1] - 1)
    return complex(np.sum(w * (f * np.conj(g))))


def zq_monomials(z: complex, n: int, q: float) -> np.ndarray:
    """Z_0(z) .. Z_n(z), with Z_m(z) = prod_{l<m} (x + i q^l y)."""
    factors = z.real + 1j * q ** np.arange(n, dtype=float) * z.imag
    return np.concatenate(([1.0 + 0j], np.cumprod(factors)))


def forward_coeffs(values: np.ndarray, hvals: np.ndarray, q: float) -> np.ndarray:
    """b_n = <f, h_n> / sqrt([n]_q!) for the (real) mode values ``hvals``."""
    proj = hvals * node_weights(q, values.shape[1] - 1)[np.newaxis, np.newaxis, :]
    b = np.einsum("nsj,sj->n", proj, values)
    return b / np.sqrt(q_factorials(q, hvals.shape[0] - 1))


def coherent_values(z: complex, hvals: np.ndarray, q: float) -> np.ndarray:
    """Node values of Phi_z = sum_n Z_n(z) h_n / sqrt([n]_q!) over the given modes."""
    modes = hvals.shape[0] - 1
    c = zq_monomials(z, modes, q) / np.sqrt(q_factorials(q, modes))
    return np.tensordot(c, hvals, axes=(0, 0))


def kernel(z, w: complex, q: float) -> np.ndarray:
    """K(z, w) = sum_n Z_n(z) conj(Z_n(w)) / [n]_q!, vectorised over z.

    Terms and their modulus bounds (|z||w|)^n / [n]_q! are built as running
    ratios, so nothing overflows however many terms a point needs near
    |z w| = 1/(1-q).  A point stops once its geometric tail bound drops
    below 1e-17 of its running value; callers keep |z w| < 1/(1-q).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    acc = np.ones_like(z)
    term = np.ones_like(z)
    bound = np.ones(z.shape)
    zw = np.abs(z) * abs(w)
    live = np.arange(z.size)
    for n in range(1_000_000):
        bracket = (1.0 - q ** (n + 1)) / (1.0 - q)
        factor = (z.real[live] + 1j * q**n * z.imag[live]) * complex(w.real, -(q**n) * w.imag) / bracket
        term[live] *= factor
        acc[live] += term[live]
        bound[live] *= zw[live] / bracket
        ratio = zw[live] / ((1.0 - q ** (n + 2)) / (1.0 - q))
        with np.errstate(divide="ignore"):
            tail = np.where(ratio < 1.0, bound[live] * ratio / np.abs(1.0 - ratio), np.inf)
        live = live[tail > 1e-17 * np.abs(acc[live])]
        if live.size == 0:
            return acc
    raise ValueError("reference kernel series did not converge")


@functools.lru_cache(maxsize=None)
def q_gamma(t: float, q: float) -> float:
    """Gamma_q(t) from mpmath at 30 digits, fast for q close to 1.

    log Gamma_q(t) = (1-t) log(1-q) + sum_k g(k), with
    g(k) = log(1 - q^(k+1)) - log(1 - q^(k+t)).  The first M terms are
    summed directly; the tail is the Euler-Maclaurin sum, whose integral
    and odd derivatives are polylogarithms (with eps = -log q,
    d^m/dx^m log(1 - q^x) = -(-eps)^m Li_(1-m)(q^x)).  The direct product
    needs ~1/(1-q) factors, which takes minutes at q = 0.9999.
    """
    import mpmath as mp

    with mp.workdps(30):
        qm, tm = mp.mpf(q), mp.mpf(t)
        eps = -mp.log(qm)
        M = 50

        def g(k):
            return mp.log(1 - qm ** (k + 1)) - mp.log(1 - qm ** (k + tm))

        s = mp.fsum(g(k) for k in range(M))
        s += (mp.polylog(2, qm ** (M + tm)) - mp.polylog(2, qm ** (M + 1))) / eps
        s += g(M) / 2
        for j in range(1, 9):
            m = 2 * j - 1
            deriv = -((-eps) ** m) * (mp.polylog(1 - m, qm ** (M + 1)) - mp.polylog(1 - m, qm ** (M + tm)))
            s -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
        return float(mp.exp((1 - tm) * mp.log(1 - qm) + s))


def hermite_norm(k: int, q: float) -> float:
    """Lambda_k = 2 (q+1)^(k-1) q^((k+1)(k+2)/2) [k]_q! Gamma_(q^2)(1/2)."""
    return (
        2.0 * (q + 1.0) ** (k - 1) * q ** ((k + 1) * (k + 2) / 2.0)
        * q_factorials(q, k)[k] * q_gamma(0.5, q * q)
    )


# ---------------------------------------------------------------------------
# artifact parsing: each parser raises ValueError on malformed input


def _cell_complex(cell: str) -> complex:
    # Gram CSV cells are repr(re) or "{re!r}+{im!r}i" (im may carry its own sign)
    if not cell.endswith("i"):
        return complex(float(cell), 0.0)
    body = cell[:-1]
    cut = next((i for i in range(len(body) - 1, 0, -1) if body[i] == "+" and body[i - 1] not in "eE"), -1)
    if cut <= 0:
        raise ValueError(f"bad complex cell {cell!r}")
    return complex(float(body[:cut]), float(body[cut + 1:]))


def gram_matrix(data: bytes, fmt: str):
    """(labels, matrix) of a Gram artifact."""
    text = data.decode("utf-8")
    if fmt == "json":
        obj = json.loads(text)
        mat = np.asarray(obj["matrix_re"], dtype=float) + 1j * np.asarray(obj["matrix_im"], dtype=float)
        labels = list(obj["labels"])
    else:
        rows = list(csv.reader(io.StringIO(text)))
        labels = rows[0][1:]
        mat = np.array([[_cell_complex(c) for c in row[1:]] for row in rows[1:]], dtype=complex)
    if mat.shape != (len(labels), len(labels)):
        raise ValueError("Gram artifact is not square in its labels")
    return labels, mat


def table_rows(data: bytes, fmt: str, key: str, columns: list) -> np.ndarray:
    """Numeric rows of a kernel-grid (key "rows") or grid (key "points") artifact."""
    text = data.decode("utf-8")
    if fmt == "json":
        rows = json.loads(text)[key]
    else:
        parsed = list(csv.reader(io.StringIO(text)))
        if parsed[0] != columns:
            raise ValueError("unexpected CSV header")
        rows = parsed[1:]
    arr = np.array([[float(v) for v in r] for r in rows], dtype=float).reshape(-1, len(columns))
    return arr


def scalar_value(data: bytes, fmt: str) -> float:
    text = data.decode("utf-8")
    if fmt == "json":
        return float(json.loads(text)["value"])
    return float(text.strip())
