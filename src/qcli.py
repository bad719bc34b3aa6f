"""Command-line front end: scalar evaluation, table emission, grids, verify.

Subcommands
-----------
eval     print one value (q-number, factorial, binomial, exponentials,
         gamma, monomials, Hermite values, kernel values)
table    emit a Gram/diagnostic table as CSV or JSON
grid     emit a (q, 1/q)-dilation point grid from seeds
verify   run the identity suite; exit 0 only if every entry passes

Shared flags: --q --modes --depth --tol --format --seed --out, with the
environment variable QFOCK_CONFIG pointing at a JSON file of the same
fields as run-wide defaults (flags override the file, the file overrides
built-ins).  The built-in Jackson depth is derived from q,
J(q) = min(400, ceil(log 1e-17 / log q)), the first node whose factor
q^J is below 1e-17; artifacts report the depth actually used.

Exit codes: 0 success, 1 verification failures, 2 domain/config/usage
errors.

Output is deterministic for a fixed config: floats are printed with
repr, randomized checks draw from a generator seeded by --seed in a
fixed registration order, and the verify report is sorted by entry
name.  Complex scalars print as ``a+bi``; CSV files carry separate
Re/Im columns.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from qcore import (
    DomainError,
    GramReport,
    JacksonLadder,
    QContext,
    big_e_variant,
    jackson_depth,
    jackson_integral,
    q_binomial,
    q_bracket_gap,
    q_brackets,
    q_derivative,
    q_exp,
    q_factorials,
    q_gamma,
    q_gamma_moment_check,
    q_number,
    small_e_variant,
    support_halfwidth,
    weight_dilation_residual,
    weight_variant,
)
import qcomplex
import qhermite
import qfock
import qbargmann

__all__ = ["RunConfig", "SuiteEntry", "VerificationSuiteResult", "run_suite", "main"]

@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings; ``depth=None`` means the ladder depth ``jackson_depth(q)``."""

    q: float = 0.5
    modes: int = 16
    depth: int | None = None
    tol: float | None = None
    format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError("q must lie strictly between 0 and 1")
        if self.depth is None:
            object.__setattr__(self, "depth", jackson_depth(self.q))
        if self.modes < 0:
            raise DomainError("modes must be >= 0")
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        if self.tol is not None and not self.tol > 0.0:
            raise DomainError("tol must be positive when given")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be csv or json")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

    def context(self) -> QContext:
        return QContext(q=self.q, quad_max_level=self.depth)

    def as_dict(self) -> dict:
        return asdict(self)


def _load_env_config() -> dict:
    path = os.environ.get("QFOCK_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read QFOCK_CONFIG file {path}: {exc}")
    if not isinstance(data, dict):
        raise DomainError("QFOCK_CONFIG must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise DomainError(f"unknown RunConfig keys in QFOCK_CONFIG: {', '.join(unknown)}")
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {f.name: f.default for f in fields(RunConfig)}
    merged.update(_load_env_config())
    for key in merged:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    try:
        return RunConfig(
            q=float(merged["q"]),
            modes=int(merged["modes"]),
            depth=None if merged["depth"] is None else int(merged["depth"]),
            tol=None if merged["tol"] is None else float(merged["tol"]),
            format=str(merged["format"]),
            seed=int(merged["seed"]),
        )
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad RunConfig value: {exc}")


# ---------------------------------------------------------------------------
# scalar formatting / parsing

def _fmt_real(x: float) -> str:
    return repr(float(x))

def _fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or math.isnan(z.imag) else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"

def _fmt_value(v) -> str:
    if isinstance(v, complex):
        return _fmt_complex(v)
    return _fmt_real(v)

def _json_value(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return float(v)


def parse_complex(text: str) -> complex:
    """Parse the ``a+bi`` literal format (also plain reals and ``bi``)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise DomainError("empty complex literal")
    if s[-1] in "iI":  # the imaginary unit; an "inf" inside stays as it is
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError:
        raise DomainError(f"cannot parse complex literal {text!r}")


def parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"non-numeric pair {text!r}")


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class SuiteEntry:
    name: str
    anchor: str
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class VerificationSuiteResult:
    entries: tuple
    overall: bool

    def failures(self):
        return [e for e in self.entries if not e.passed]


def run_suite(cfg: RunConfig) -> VerificationSuiteResult:
    """Run every identity check at the given config.

    Checks are executed in a fixed registration order (the seeded
    generator is consumed in that order); the report is sorted by entry
    name.  ``cfg.tol`` replaces each entry's own tolerance when set.
    """
    ctx = cfg.context()
    q = ctx.q
    rng = np.random.default_rng(cfg.seed)
    out = []

    def entry(name: str, anchor: str, tol: float, fn) -> None:
        try:
            residual = float(fn())
        except DomainError as exc:
            raise DomainError(f"suite entry {name}: {exc}") from exc
        eff_tol = tol if cfg.tol is None else cfg.tol
        out.append(SuiteEntry(name, anchor, residual, eff_tol, bool(residual <= eff_tol)))

    # --- scalar q-calculus -------------------------------------------------
    def qnum_sum():
        worst = 0.0
        for n in range(1, 51):
            ref = sum(q**m for m in range(n))
            worst = max(worst, abs(q_number(n, ctx) - ref) / ref)
        return worst
    entry("core-qnum-sum", "[n] equals the geometric sum 1+q+..+q^(n-1), n <= 50", 1e-12, qnum_sum)

    def qnum_limit():
        c1 = QContext(q=1.0 - 1e-6)
        return max(abs(q_number(n, c1) - n) / n for n in range(1, 21))
    entry("core-qnum-classical-limit", "[n] -> n as q -> 1 (fixed q = 1-1e-6, n <= 20)", 1e-4, qnum_limit)

    def bracket_gap():
        # normalize by the larger of q^n and the operand ulp scale, since
        # the subtraction cancels to below one ulp of [n] for small q^n
        worst = 0.0
        for n in range(31):
            scale = max(q**n, 4 * np.spacing(q_number(n + 1, ctx)))
            worst = max(worst, abs(q_bracket_gap(n, ctx) - q**n) / scale)
        return worst
    entry("core-bracket-gap", "[n+1] - [n] = q^n, n <= 30 (ulps-aware normalization)", 1.0, bracket_gap)

    def qbinom_pascal():
        prev = [1.0]
        worst = 0.0
        for n in range(1, 11):
            row = [1.0]
            for k in range(1, n):
                row.append(prev[k - 1] + q**k * prev[k])
            row.append(1.0)
            for k, ref in enumerate(row):
                worst = max(worst, abs(q_binomial(n, k, ctx) - ref) / ref)
            prev = row
        return worst
    entry("core-qbinom-pascal", "factorial q-binomial equals the q-Pascal recursion, n <= 10", 1e-12, qbinom_pascal)

    big = big_e_variant(q)
    small = small_e_variant(q)

    def qexp_product():
        ts = rng.uniform(-0.9 / (1 - q), 0.9 / (1 - q), size=20)
        return float(np.max(np.abs(q_exp(big, ts) * q_exp(small, -ts) - 1.0)))
    entry("core-qexp-product", "E(t) e(-t) = 1 at 20 seeded points inside the disc", 1e-8, qexp_product)

    def qexp_deriv_big():
        xs = rng.uniform(-0.8 / (1 - q), 0.8 / (1 - q), size=10)
        xs = xs[xs != 0.0]
        d = q_derivative(lambda t: q_exp(big, t), xs, ctx)
        ref = q_exp(big, xs)
        return float(np.max(np.abs(d - ref) / np.abs(ref), initial=0.0))
    entry("core-qexp-derivative-big", "D E = E at seeded interior points", 1e-8, qexp_deriv_big)

    def qexp_deriv_small():
        xs = rng.uniform(-2.0 / (1 - q), 2.0 / (1 - q), size=10)
        xs = xs[xs != 0.0]
        d = q_derivative(lambda t: q_exp(small, t), xs, ctx)
        ref = q_exp(small, q * xs)
        return float(np.max(np.abs(d - ref) / (1.0 + np.abs(ref)), initial=0.0))
    entry("core-qexp-derivative-small", "D e(x) = e(qx) at seeded points", 1e-8, qexp_deriv_small)

    def small_e_zeros():
        zeros = np.array([q ** (-k) / (q - 1.0) for k in range(4)])
        return float(np.max(np.abs(q_exp(small, zeros))))
    entry("core-small-e-zeros", "e vanishes at q^(-k)/(q-1), k <= 3", 1e-6, small_e_zeros)

    def jackson_ftc():
        worst = 0.0
        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, size=9)
            lo, hi = sorted(rng.uniform(0.05, 1.95, size=2))
            if hi - lo < 1e-3:
                hi = lo + 0.5
            def f(t, c=coeffs):
                acc = 0.0
                for cc in c[::-1]:
                    acc = acc * t + cc
                return acc
            val = jackson_integral(lambda t: q_derivative(f, t, ctx), lo, hi, ctx)
            ref = f(hi) - f(lo)
            worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
        return worst
    entry("core-jackson-ftc", "Jackson sum of D f recovers f(b) - f(a), seeded degree-8 polynomials on [a,b] in (0,2)", 1e-9, jackson_ftc)

    def gamma_functional():
        ts = rng.uniform(0.1, 5.0, size=20)
        worst = 0.0
        for t in ts:
            lhs = q_gamma(t + 1.0, ctx)
            rhs = q_number(t, ctx) * q_gamma(t, ctx)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        return worst
    entry("core-gamma-functional", "Gamma(t+1) = [t] Gamma(t) at 20 seeded t in (0.1, 5)", 1e-9, gamma_functional)

    def gamma_integral():
        worst = 0.0
        # the three sums run on one node vector, b q^k: its series is evaluated once
        b = 1.0 / (1.0 - q)
        e_vals = q_exp(small, -q * (b * JacksonLadder.of(q, ctx.quad_max_level).powers))
        for z in (1.5, 2.0, 3.0):
            # Python's pow node by node: numpy's ** differs from it in the last bit
            val = jackson_integral(
                lambda t: np.array([u ** (z - 1.0) for u in t.tolist()]) * e_vals[: t.size],
                0.0, b, ctx,
            )
            ref = q_gamma(z, ctx)
            worst = max(worst, abs(val - ref) / ref)
        return worst
    entry("core-gamma-integral", "product-formula Gamma equals the Jackson integral of t^(z-1) e(-qt) on [0, 1/(1-q)]", 1e-5, gamma_integral)

    def moment_odd():
        return max(rep.rel_gap for rep in q_gamma_moment_check((1, 3, 5), ctx))
    entry("core-moment-odd", "symmetric weight moment equals (2/(q+1)) q^nu Gamma_{q^2}(nu/2), nu in {1,3,5}", 1e-5, moment_odd)

    entry(
        "core-moment-parity-skip",
        "even-nu moment: integrand is odd so the symmetric Jackson sum vanishes identically; "
        "listed as a parity skip, no residual tested",
        1.0,
        lambda: 0.0,
    )

    wvar = weight_variant(q)

    def weight_dilation():
        lam = support_halfwidth(ctx)
        pts = rng.uniform(0.05, 0.95, size=8) * lam
        return weight_dilation_residual(wvar, ctx, pts)
    entry("core-weight-dilation", "weight satisfies D W(t) = -(q+1) t W(qt) at seeded points", 1e-10, weight_dilation)

    def halfwidth():
        lam = support_halfwidth(ctx)
        return abs(lam * lam * (1.0 - q * q) - 1.0)
    entry("hermite-halfwidth", "lambda^2 (1 - q^2) = 1", 1e-14, halfwidth)

    def weight_vanishing():
        lam = support_halfwidth(ctx)
        series = abs(q_exp(wvar, -lam * lam))
        prod = abs(qhermite.weight_node_values(ctx, 4)[0])
        return max(series, prod)
    entry("hermite-weight-vanishing", "weight vanishes at +-lambda (node product exactly, series to truncation noise)", 1e-10, weight_vanishing)

    # --- plane picture -----------------------------------------------------
    def random_bivar(deg: int) -> qcomplex.BivarPoly:
        # one (re, im) draw per exponent pair with a + b <= deg, a-major order
        a, b = np.nonzero(np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) <= deg)
        draws = rng.uniform(-1, 1, size=(a.size, 2))
        c = np.zeros((deg + 1, deg + 1), dtype=complex)
        c.real[a, b] = draws[:, 0]
        c.imag[a, b] = draws[:, 1]
        return qcomplex.BivarPoly(c, clean=False)

    def dz_linearity():
        fpoly = random_bivar(6)
        gpoly = random_bivar(6)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = qcomplex.dz(alpha * fpoly + gpoly, ctx)
        rhs = alpha * qcomplex.dz(fpoly, ctx) + qcomplex.dz(gpoly, ctx)
        return (lhs - rhs).max_abs() / (1.0 + lhs.max_abs())
    entry("complex-dz-linearity", "dz(a f + g) = a dz f + dz g on seeded polynomials", 1e-12, dz_linearity)

    zrows = qcomplex.zq_rows(30, ctx)

    def max_abs(c):
        # largest |coefficient| of each row
        return qcomplex._abs(c).max(axis=-1)

    def antiholomorphic():
        return float(np.max(max_abs(qcomplex.dzbar_rows(zrows, ctx)[1:]) / max_abs(zrows[1:])))
    entry("complex-antiholomorphic", "dzbar Z_n = 0, n <= 30 (coefficients normalized by the largest in Z_n)", 1e-12, antiholomorphic)

    def holomorphic_action():
        got = qcomplex.dz_rows(zrows, ctx)[1:]
        ref = q_brackets(30, ctx)[1:, np.newaxis] * zrows[:-1, :-1]
        return float(np.max(max_abs(got - ref) / max_abs(ref)))
    entry("complex-holomorphic-action", "dz Z_n = [n] Z_(n-1), n <= 30, normalized coefficients", 1e-12, holomorphic_action)

    def conversion_roundtrip():
        worst = 0.0
        for _ in range(3):
            poly = random_bivar(10)
            back = qcomplex.ZBarBasisPoly.from_bivar(poly).to_bivar()
            worst = max(worst, (back - poly).max_abs() / poly.max_abs())
        return worst
    entry("complex-roundtrip", "x,y form -> z,zbar form -> back is the identity on seeded degree-10 polynomials", 1e-12, conversion_roundtrip)

    def expansion_product():
        # three (re, im) draws per n, in the order of one draw at a time
        draws = rng.uniform(-1, 1, size=(12, 3, 2))
        zs = draws[..., 0] + 1j * draws[..., 1]
        direct = np.array([[qcomplex.zq_point_values(z, n + 1, ctx)[n + 1] for z in row] for n, row in enumerate(zs.tolist(), 1)])
        worst = 0.0
        layers = np.zeros((12, 13, 13), dtype=complex)
        for n in range(1, 13):
            layer = qcomplex.zq_expansion_coeffs(n, ctx)
            worst = max(worst, abs(sum(c for _, c in layer.items()) - 1.0))
            layers[n - 1, : n + 1, : n + 1] = layer.c
        via = qcomplex._cmul(zs, qcomplex.zbar_basis_values(layers[:, np.newaxis], zs))
        return max(worst, float(np.max(qcomplex._abs(via - direct) / (1.0 + qcomplex._abs(direct)))))
    entry("complex-expansion-product", "convolution coefficients rebuild Z_(n+1) = z * sum C_ij z^i zbar^j and sum to 1, n <= 12", 1e-12, expansion_product)

    def hermite_orthogonality_plane():
        idx = [(p, r) for p in range(7) for r in range(7)]
        gram = qcomplex.gaussian_gram([qcomplex.complex_hermite(p, r) for p, r in idx])
        fp = np.array([float(math.factorial(p)) for p, _ in idx])
        fr = np.array([float(math.factorial(r)) for _, r in idx])
        target = np.diag(math.pi * fp * fr)
        norms = fp * fr
        scale = math.pi * np.maximum.outer(norms, norms)
        return np.max(np.abs(gram - target) / scale)
    entry("complex-hermite-orthogonality", "<H_pr, H_mn> = pi p! r! delta delta, p,r,m,n <= 6 (exact integer arithmetic)", 1e-12, hermite_orthogonality_plane)

    def hermite_roundtrip():
        # the 28 monomials z^p zbar^r, p + r <= 6, as one stack
        p, r = np.nonzero(np.add.outer(np.arange(7), np.arange(7)) <= 6)
        monos = np.zeros((p.size, 7, 7), dtype=complex)
        monos[np.arange(p.size), p, r] = 1.0
        back = qcomplex.hermite_combine_stack(qcomplex.hermite_expand_stack(monos))
        return float(np.max(qcomplex._abs(back - monos)))
    entry("complex-hermite-roundtrip", "z^p zbar^r -> Hermite expansion -> back, p+r <= 6", 1e-10, hermite_roundtrip)

    def mixed_gram():
        rep = qcomplex.mixed_basis_gram(6, ctx)
        bound = 1e-10 * max(rep.trace, 1.0)
        if not rep.min_eig > 0.0:
            return math.inf
        return bound / rep.min_eig
    entry("complex-mixed-gram", "mixed-family Gram (N=6) is positive definite: reported value is (1e-10 trace)/min_eig, must stay below 1", 1.0, mixed_gram)

    def domination():
        worst = 0.0
        for n in (3, 7, 15):
            # 25 (x, y) draws, in the order of one draw at a time
            rep = qcomplex.modulus_domination_check(n, rng.uniform(-2, 2, size=(25, 2)), ctx)
            worst = max(worst, rep.worst_ratio - 1.0)
        return max(worst, 0.0)
    entry("complex-domination", "|Z_n(z)| <= |z|^n at seeded samples (reported value is the excess over the bound)", 1e-9, domination)

    def elliptic():
        worst = 0.0
        for _ in range(10):
            p = rng.uniform(0.1, 4.0)
            x, y = rng.uniform(-3, 3, size=2)
            ev = qcomplex.EllipticVariable(p=p, x=x, y=y)
            worst = max(worst, abs(ev.modulus**2 - (x * x + p * p * y * y)) / (1.0 + x * x + p * p * y * y))
        return worst
    entry("complex-elliptic-modulus", "elliptic modulus squared equals x^2 + p^2 y^2 at seeded points", 1e-13, elliptic)

    def grid_count():
        seeds = [(sx, sy) for sy in (1.2, 1.0, 0.8) for sx in (9.8, 10.0, 10.2)]
        grid = qcomplex.qgrid_generate(seeds, 6, QContext(q=0.6))
        want = 9 * 49
        return abs(grid.count_before_dedup - want) + abs(len(grid.points) - want)
    entry("grid-figure-count", "nine-seed ladder at depth 6, q = 0.6 yields (depth+1)^2 = 49 points per seed before dedup", 0.5, grid_count)

    # --- Hermite family ----------------------------------------------------
    htable = qhermite.qhermite_table(12, ctx)

    def explicit_vs_recurrence():
        worst = 0.0
        for k in range(13):
            ref = htable[k, : k + 1]
            got = np.asarray(qhermite.qhermite_explicit(k, ctx).coeffs)
            worst = max(worst, float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref))))
        return worst
    entry("hermite-explicit-vs-recurrence", "closed-form coefficients match the three-term recurrence, k <= 12", 1e-10, explicit_vs_recurrence)

    entry("hermite-annihilation", "D H_k = (q+1)[k] H_(k-1), k <= 10", 1e-10,
          lambda: max(qhermite.qhermite_annihilate(k, ctx) for k in range(1, 11)))
    entry("hermite-creation", "H_k = ((q+1)t - q^k D) H_(k-1) and the dilated form, k <= 10", 1e-10,
          lambda: max(max(qhermite.qhermite_create(k, ctx)) for k in range(1, 11)))
    entry("hermite-eigen", "(D^2 - (q+1) t D) H_k + (q+1)[k] q^-k H_k(qt) = 0, k <= 10", 1e-9,
          lambda: max(qhermite.qhermite_eigencheck(k, ctx) for k in range(11)))

    def hermite_parity():
        # entry (k, m) is H_k's t^m coefficient; zero past m = k
        scale = np.abs(htable).max(axis=1, keepdims=True)
        wrong = np.add.outer(np.arange(13), np.arange(13)) % 2 == 1
        return float(np.max(np.abs(htable)[wrong] / np.broadcast_to(scale, htable.shape)[wrong]))
    entry("hermite-parity", "H_k(-t) = (-1)^k H_k(t): wrong-parity coefficients are exactly zero, k <= 12", 1e-15, hermite_parity)

    def hermite_orthogonality():
        # diagonal gap relative to Lambda_k, off-diagonal to max(Lambda_k, Lambda_l)
        mat, lam = qhermite.hermite_gram(8, ctx)
        return float(np.max(np.abs(mat - np.diag(lam)) / np.maximum.outer(lam, lam)))
    entry("hermite-orthogonality", "weighted Gram is diag(Lambda_k): relative diagonal gap and off-diagonal over Lambda_max, k,l <= 8", 1e-6, hermite_orthogonality)

    entry("hermite-weight-relation", "H_k(qt) W(qt) = -q^k D[H_(k-1) W](t) on interior nodes, k <= 4", 1e-7,
          lambda: max(qhermite.weight_relation_check(k, ctx) for k in range(1, 5)))

    entry("hermite-classical-limit", "recurrence coefficients approach the physicists' Hermite family (fixed q = 1-1e-6, k <= 5)", 1e-3,
          lambda: qhermite.classical_limit_gap(5, QContext(q=1.0 - 1e-6)))

    # --- holomorphic model -------------------------------------------------
    def fock_positivity():
        draws = rng.normal(size=(100, 2, 9))
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        return 0.0 if np.all(qfock.norm_sq_stack(coeffs, ctx) > 0.0) else 1.0
    entry("fock-positivity", "<f, f> > 0 for 100 seeded nonzero elements (1.0 flags a violation)", 0.5, fock_positivity)

    def fock_basis_orthogonality():
        facts = q_factorials(10, ctx)
        eye = np.eye(11)
        gap = qfock.fischer_gram(eye, eye, ctx) - np.diag(facts)
        scale = facts[np.maximum.outer(np.arange(11), np.arange(11))]
        return float(np.max(np.hypot(gap.real, gap.imag) / scale))
    entry("fock-basis-orthogonality", "<Z_n, Z_m> = [n]! delta, n,m <= 10", 1e-13, fock_basis_orthogonality)

    def fock_reproducing():
        worst = 0.0
        for _ in range(10):
            f = qfock.FockElement(rng.normal(size=9) + 1j * rng.normal(size=9), ctx)
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(w) >= 1.0 / (1.0 - q):  # the square leaves the domain disc below q = 0.2144
                w *= 0.9 / ((1.0 - q) * abs(w))
            kw = qfock.kernel_element(w, ctx, 9)
            fw = f.eval(w)
            worst = max(worst, abs(qfock.fischer_inner(f, kw) - fw) / (1.0 + abs(fw)))
        return worst
    entry("fock-reproducing", "<f, K(., w)> = f(w) for seeded degree-8 elements and 10 admissible w", 1e-8, fock_reproducing)

    def fock_commutator():
        worst = 0.0
        for rep in qfock.commutator_checks(20, ctx):
            worst = max(worst, abs(rep.factor - q**rep.n), rep.route_gap, rep.stray)
        return worst
    entry("fock-commutator", "[a, a+] e_n = q^n e_n with exact e_(n+-2) cancellation and the [D, X] route, n <= 20", 1e-12, fock_commutator)

    def fock_adjoint():
        # normalize by the pairing magnitude: the raw gap inherits the
        # [10]! Fischer scale, which exceeds 4e5 at q = 0.9
        draws = rng.normal(size=(20, 4, 11))
        R = draws[:, 0] + 1j * draws[:, 1]
        Q = draws[:, 2] + 1j * draws[:, 3]
        lhs, rhs = qfock.adjoint_pairings(R, Q, ctx)
        worst = 0.0
        for a, b in zip(lhs.tolist(), rhs.tolist()):
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
        return worst
    entry("fock-adjoint", "<D R, Q> = <R, X Q> on seeded degree-10 pairs, gap relative to the pairing size", 1e-10, fock_adjoint)

    entry("fock-nonadjoint-gap", "the ladder pair is not adjoint: |<a e_0, e_1> - <e_0, a+ e_1>| = sqrt(2)", 1e-12,
          lambda: abs(qfock.oscillator_adjoint_gap(ctx) - math.sqrt(2.0)))

    def kernel_classical():
        ck = QContext(q=0.999)
        zs, ws, refs = [], [], []
        for _ in range(15):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            zs.append(z)
            ws.append(w)
            refs.append(np.exp(z * w.conjugate()))
        worst = 0.0
        for v, ref in zip(qfock.kernel_values(np.array(zs), np.array(ws), ck)[0], refs):
            worst = max(worst, abs(v - ref))
        return worst
    entry("fock-kernel-classical-limit", "K(z, w) -> exp(z conj(w)) (fixed q = 0.999, |z|,|w| <= 0.5)", 1e-3, kernel_classical)

    def operator_polynomial_oracle():
        pts = rng.uniform(-1, 1, size=(4, 2))
        zs = qcomplex.zq_stack(10, ctx)
        # X in the polynomial model: z Z_n(x, q y), the product with z = x + i y,
        # cleaned like a polynomial product
        dilated = zs * np.array([q**b for b in range(11)])
        xmodel = np.zeros((11, 12, 12), dtype=complex)
        xmodel[:, 1:, :-1] = dilated
        xmodel[:, :-1, 1:] += 1j * dilated
        mag = np.hypot(xmodel.real, xmodel.imag)
        xmodel[mag <= 1e-14 * mag.max(axis=(1, 2), keepdims=True)] = 0.0
        pmodel = -1j * qcomplex.dz_stack(zs, ctx)
        # x^a and y^b at each point, by Python's pow
        xp = np.array([[x**a for a in range(12)] for x in pts[:, 0].tolist()])
        yp = np.array([[y**b for b in range(12)] for y in pts[:, 1].tolist()])
        zvals = np.array([qcomplex.zq_point_values(complex(x, y), 11, ctx) for x, y in pts.tolist()])
        eye = np.eye(11)
        worst = 0.0
        for model, coeffs in ((xmodel, qfock.position_stack(eye)), (pmodel, qfock.momentum_stack(eye, ctx))):
            size = model.shape[-1]
            a = np.einsum("nab,pa,pb->np", model, xp[:, :size], yp[:, :size])
            b = coeffs @ zvals[:, : coeffs.shape[-1]].T
            gap = a - b
            worst = max(worst, float(np.max(np.hypot(gap.real, gap.imag) / (1.0 + np.hypot(a.real, a.imag)))))
        return worst
    entry("fock-operator-polynomial-oracle", "coefficient-level X and P actions match the exact polynomial model at seeded points, n <= 10", 1e-12, operator_polynomial_oracle)

    # --- node-function transform --------------------------------------------
    table = qbargmann.build_kernel_table(ctx, modes=min(10, cfg.modes))

    def bargmann_basis():
        worst = 0.0
        for m in range(table.modes + 1):
            img = qbargmann.bargmann_basis_image(m, table)
            tgt = table.inv_sqrt_fact[m]
            for n, c in enumerate(img.coeffs.tolist()):
                worst = max(worst, abs(c - tgt) if n == m else abs(c))
        return worst
    entry("bargmann-basis-image", "transform sends h_m to the single monomial Z_m/sqrt([m]!), m within the table range", 1e-7, bargmann_basis)

    def random_span(span: int) -> qbargmann.JacksonFunction:
        coeffs = rng.normal(size=span + 1) + 1j * rng.normal(size=span + 1)
        vals = np.tensordot(coeffs, table.hvals[: span + 1], axes=(0, 0))
        return qbargmann.JacksonFunction(vals, ctx)

    def bargmann_linearity():
        span = min(8, table.modes)
        u, v = random_span(span), random_span(span)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = qbargmann.bargmann_forward(u.scaled(alpha) + v, table)
        rhs_u = qbargmann.bargmann_forward(u, table)
        rhs_v = qbargmann.bargmann_forward(v, table)
        return max(
            abs(a - (alpha * bu + bv))
            for a, bu, bv in zip(lhs.coeffs.tolist(), rhs_u.coeffs.tolist(), rhs_v.coeffs.tolist())
        )
    entry("bargmann-linearity", "transform is linear on seeded node functions", 1e-10, bargmann_linearity)

    def bargmann_isometry():
        span = min(8, table.modes)
        worst = 0.0
        for _ in range(5):
            u, v = random_span(span), random_span(span)
            lhs = qfock.fischer_inner(qbargmann.bargmann_forward(u, table), qbargmann.bargmann_forward(v, table))
            rhs = u.inner(v)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        return worst
    entry("bargmann-isometry", "<Bf, Bg> under Fischer equals <f, g> on the truncated span (includes Parseval at f = g)", 1e-7, bargmann_isometry)

    entry("bargmann-gram", "Gram of transformed basis images is the identity, M = min(8, modes)", 1e-7,
          lambda: qbargmann.bargmann_unitarity_gram(min(8, table.modes), table).max_dev)

    def coherent():
        r = 0.6 / math.sqrt(1.0 - q)
        zs, ws, overlaps = [], [], []
        for _ in range(6):
            z = r * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2.0)
            w = r * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2.0)
            zs.append(z)
            ws.append(w)
            overlaps.append(qbargmann.coherent_overlap(z, w, table))
        worst = 0.0
        for ov, v in zip(overlaps, qfock.kernel_values(np.array(zs), np.array(ws), ctx)[0]):
            worst = max(worst, abs(ov - v))
        return worst
    entry("bargmann-coherent-overlap", "coherent-state overlaps reproduce the Fock kernel at seeded admissible pairs", 1e-6, coherent)

    def tensor_factorization():
        span = min(4, table.modes)
        u, v = random_span(span), random_span(span)
        F = np.einsum("sj,tk->sjtk", u.values, v.values)
        got = qbargmann.tensor_forward(F, table).matrix
        cu = np.array([u.inner(table.mode_function(n)) for n in range(table.modes + 1)])
        cv = np.array([v.inner(table.mode_function(n)) for n in range(table.modes + 1)])
        return float(np.max(np.abs(got - np.outer(cu, cv))))
    entry("bargmann-tensor-factorization", "two-variable transform of u (x) v equals the outer product of 1-D projections", 1e-8, tensor_factorization)

    entry("bargmann-tensor-gram", "tensor images Gram is the identity, k,h <= min(2, modes)", 1e-6,
          lambda: qbargmann.tensor_unitarity_gram(min(2, table.modes), table).max_dev)

    entries = tuple(sorted(out, key=lambda e: e.name))
    return VerificationSuiteResult(entries=entries, overall=all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# subcommands

def _finite(option: str, value):
    """The value itself; a nan or infinite part is refused, naming the option."""
    if not cmath.isfinite(value):
        raise DomainError(f"{option} must be finite, got {value!r}")
    return value


def _eval_point(text: str | None, target: str):
    """Parse --at: a real t for hermite (default 0), an 'x,y' pair for zq (default 0,0)."""
    try:
        if target == "hermite":
            return 0.0 if text is None else float(text)
        return complex(*parse_pair("0,0" if text is None else text))
    except (ValueError, DomainError):
        form = "a real t" if target == "hermite" else "an 'x,y' pair"
        raise DomainError(f"--at for {target} expects {form}, got {text!r}") from None


# Largest Hermite degree `eval` builds: the coefficient table grows as k^2
# (8 MB at k = 1000), and past degree 434 at q = 0.99, 1089 at q = 0.9 its
# rows leave float64 range anyway.
EVAL_HERMITE_MAX_K = 500


def _eval_value(args: argparse.Namespace, ctx: QContext):
    q = ctx.q
    target = args.target
    if target == "qnum":
        return q_number(_finite("--alpha", args.alpha), ctx)
    if target == "qfact":
        return q_factorials(args.n, ctx)[args.n]
    if target == "qbinom":
        return q_binomial(args.n, args.k, ctx)
    if target == "Eq":
        return q_exp(big_e_variant(q), _finite("--x", args.x))
    if target == "eq":
        return q_exp(small_e_variant(q), _finite("--x", args.x))
    if target == "gamma":
        return q_gamma(_finite("--t", args.t), ctx)
    if target == "zq":
        z = _finite("--at", _eval_point(args.at, target))
        return qcomplex.zq_point_values(z, args.n, ctx)[args.n]
    if target == "hermite":
        if args.k > EVAL_HERMITE_MAX_K:
            raise DomainError(f"--k for hermite must be <= {EVAL_HERMITE_MAX_K}, got {args.k}")
        t = _finite("--at", _eval_point(args.at, target))
        return qhermite.qhermite_recurrence(args.k, ctx)[args.k](t)
    if target == "kernel":
        z = _finite("--z", parse_complex(args.z))
        w = _finite("--w", parse_complex(args.w))
        return qfock.kernel_eval(z, w, ctx).value
    raise DomainError(f"unknown eval target {target!r}")  # pragma: no cover - argparse choices guard this


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        value = _eval_value(args, cfg.context())
        finite = cmath.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"eval {args.target}: result outside float64 range")
    if cfg.format == "json":
        text = _json_text({"name": args.target, "value": _json_value(value)})
    else:
        text = _fmt_value(value) + "\n"
    _write_text(text, args.out)
    return 0


def _gram_artifact(report, cfg: RunConfig, out: str | None) -> None:
    if cfg.format == "json":
        _write_text(_json_text({"config": cfg.as_dict(), **report.to_json_dict()}), out)
    else:
        _write_text(_csv_text(report.to_csv_rows()), out)


def cmd_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    ctx = cfg.context()
    name = args.name
    if name == "hermite-gram":
        mat, lambdas = qhermite.hermite_gram(args.kmax, ctx)
        labels = [f"H{k}" for k in range(args.kmax + 1)]
        report = GramReport(labels, mat, target="diag(Lambda_k)", target_matrix=np.diag(lambdas))
        _gram_artifact(report, cfg, args.out)
    elif name == "mixed-gram":
        report = qcomplex.mixed_basis_gram(args.N, ctx)
        _gram_artifact(report, cfg, args.out)
    elif name == "bargmann-gram":
        table = qbargmann.build_kernel_table(ctx, modes=min(args.M, cfg.modes))
        report = qbargmann.bargmann_unitarity_gram(args.M, table)
        _gram_artifact(report, cfg, args.out)
    elif name == "kernel-grid":
        w = _finite("--w", parse_complex(args.w))
        for option in ("xmin", "xmax", "ymin", "ymax"):
            _finite(f"--{option}", getattr(args, option))
        for option in ("nx", "ny"):
            if getattr(args, option) < 1:
                raise DomainError(f"--{option} must be >= 1, got {getattr(args, option)}")
        # x outer, y inner; points outside |z||w| < 1/(1-q) are left out
        x, y = np.meshgrid(
            np.linspace(args.xmin, args.xmax, args.nx), np.linspace(args.ymin, args.ymax, args.ny), indexing="ij"
        )
        radius = 1.0 / (1.0 - cfg.q)
        inside = (np.hypot(x, y) * abs(w) < radius) & (abs(w) < radius)
        x, y = x[inside], y[inside]
        z = np.empty(x.size, dtype=complex)
        z.real, z.imag = x, y
        val = qfock.kernel_values(z, w, ctx)[0] if z.size else z
        absk = np.hypot(val.real, val.imag)  # what abs() of a Python complex computes
        rows = list(zip(x.tolist(), y.tolist(), val.real.tolist(), val.imag.tolist(), absk.tolist()))
        if cfg.format == "json":
            payload = {
                "config": cfg.as_dict(),
                "w": _fmt_complex(w),
                "rows": [list(r) for r in rows],
                "columns": ["x", "y", "ReK", "ImK", "absK"],
            }
            _write_text(_json_text(payload), args.out)
        else:
            csv_rows = [["x", "y", "ReK", "ImK", "absK"]]
            csv_rows.extend([[_fmt_real(v) for v in row] for row in rows])
            _write_text(_csv_text(csv_rows), args.out)
    else:  # pragma: no cover - argparse choices guard this
        raise DomainError(f"unknown table {name!r}")
    return 0


def _finite_pair(option: str, pair):
    """The pair itself; a nan or infinite coordinate is refused, naming the option."""
    if not all(math.isfinite(v) for v in pair):
        raise DomainError(f"{option} points must be finite, got {pair!r}")
    return pair


def _read_seeds(args: argparse.Namespace):
    if args.seeds and args.seeds_file:
        raise DomainError("give either --seeds or --seeds-file, not both")
    if args.seeds:
        chunks = [c for c in args.seeds.split(";") if c.strip()]
        if not chunks:
            raise DomainError("no seeds in --seeds")
        return [_finite_pair("--seeds", parse_pair(c)) for c in chunks]
    if args.seeds_file:
        try:
            with open(args.seeds_file, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise DomainError(f"cannot read seeds file: {exc}")
        seeds = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            seeds.append(_finite_pair("--seeds-file", parse_pair(line)))
        if not seeds:
            raise DomainError("seeds file holds no points")
        return seeds
    raise DomainError("grid needs --seeds or --seeds-file")


def cmd_grid(args: argparse.Namespace, cfg: RunConfig) -> int:
    seeds = _read_seeds(args)
    grid = qcomplex.qgrid_generate(seeds, args.grid_depth, cfg.context())
    if cfg.format == "json":
        payload = {
            "config": cfg.as_dict(),
            "depth": grid.depth,
            "count": len(grid.points),
            "count_before_dedup": grid.count_before_dedup,
            "points": [[x, y] for (x, y) in grid.points],
        }
        _write_text(_json_text(payload), args.out)
    else:
        rows = [["x", "y"]]
        rows.extend([[_fmt_real(x), _fmt_real(y)] for (x, y) in grid.points])
        _write_text(_csv_text(rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    result = run_suite(cfg)
    if cfg.format == "json":
        payload = {
            "config": cfg.as_dict(),
            "overall": result.overall,
            "results": [
                {
                    "name": e.name,
                    "anchor": e.anchor,
                    "residual": e.residual,
                    "tol": e.tol,
                    "pass": e.passed,
                }
                for e in result.entries
            ],
        }
        _write_text(_json_text(payload), args.out)
    else:
        rows = [["name", "anchor", "residual", "tol", "pass"]]
        for e in result.entries:
            rows.append([e.name, e.anchor, _fmt_real(e.residual), _fmt_real(e.tol), str(e.passed).lower()])
        _write_text(_csv_text(rows), args.out)
    if not result.overall and not args.out:
        failed = ", ".join(e.name for e in result.failures())
        print(f"failed: {failed}", file=sys.stderr)
    return 0 if result.overall else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=None, help="deformation parameter in (0, 1)")
    parser.add_argument("--modes", type=int, default=None, help="transform mode cap")
    parser.add_argument("--depth", type=int, default=None, help="Jackson node depth J (default min(400, ceil(log 1e-17 / log q)))")
    parser.add_argument("--tol", type=float, default=None, help="override every verification tolerance")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="artifact format")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    parser.add_argument("--out", default=None, metavar="FILE", help="write the artifact to FILE instead of stdout")


def get_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="q-deformed Fock space toolkit: evaluation, tables, grids, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print one value")
    p_eval.add_argument("target", choices=("qnum", "qfact", "qbinom", "Eq", "eq", "gamma", "zq", "hermite", "kernel"))
    p_eval.add_argument("--alpha", type=float, default=1.0, help="exponent for qnum")
    p_eval.add_argument("--n", type=int, default=1, help="index for qfact/qbinom/zq")
    p_eval.add_argument("--k", type=int, default=0, help=f"lower index for qbinom, degree for hermite (<= {EVAL_HERMITE_MAX_K})")
    p_eval.add_argument("--x", type=float, default=0.0, help="argument for Eq/eq")
    p_eval.add_argument("--t", type=float, default=1.0, help="argument for gamma")
    p_eval.add_argument("--at", default=None, help="evaluation point: 'x,y' for zq (default 0,0), real t for hermite (default 0)")
    p_eval.add_argument("--z", default="0", help="kernel first argument (a+bi)")
    p_eval.add_argument("--w", default="0", help="kernel second argument (a+bi)")
    _add_shared(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_table = sub.add_parser("table", help="emit a Gram/diagnostic table")
    p_table.add_argument("name", choices=("hermite-gram", "mixed-gram", "bargmann-gram", "kernel-grid"))
    p_table.add_argument("--kmax", type=int, default=6, help="hermite-gram degree cap")
    p_table.add_argument("--N", type=int, default=3, help="mixed-gram total-degree cap")
    p_table.add_argument("--M", type=int, default=8, help="bargmann-gram mode cap")
    p_table.add_argument("--w", default="0.5+0i", help="kernel-grid fixed second argument (a+bi)")
    p_table.add_argument("--xmin", type=float, default=-0.9)
    p_table.add_argument("--xmax", type=float, default=0.9)
    p_table.add_argument("--ymin", type=float, default=-0.9)
    p_table.add_argument("--ymax", type=float, default=0.9)
    p_table.add_argument("--nx", type=int, default=25)
    p_table.add_argument("--ny", type=int, default=25)
    _add_shared(p_table)
    p_table.set_defaults(fn=cmd_table)

    p_grid = sub.add_parser("grid", help="emit a (q, 1/q)-dilation grid")
    p_grid.add_argument("--seeds", default=None, help="semicolon-separated x,y pairs")
    p_grid.add_argument("--seeds-file", default=None, help="file with one x,y pair per line")
    p_grid.add_argument("--grid-depth", type=int, default=6, help="dilation depth per axis")
    _add_shared(p_grid)
    p_grid.set_defaults(fn=cmd_grid)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    _add_shared(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = get_args(argv)
    try:
        cfg = resolve_config(args)
        return args.fn(args, cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
