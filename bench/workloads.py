"""The three benchmark workloads: seeded op streams, the timed calls, and checkers.

Each workload draws every input from its seed, hands the library only the
generated inputs, and checks each output off the clock.  An op is one
call into the public API: one suite run, one transform, or one artifact.

Checks are counted in a ``Tally`` and come in two kinds.  An output check
(``Tally.check``) asserts that an op returned what the call computes: a
well-formed result, byte- or entry-identical on a repeat, and equal to an
independent recomputation.  A miss there, an op the library refuses with
``DomainError``, or any other exception fails the op.  An accuracy gate
(``Tally.gate``) applies one of the paper's tolerances to a mathematical
identity that the discretisation meets only inside its working envelope
(a suite entry's residual, forward isometry, coherent overlap against the
kernel, Hermite Gram gap, mixed-Gram conditioning).  A gate miss is a
measured accuracy shortfall of a correct computation: it counts in
``ops_failed_frac`` and ``checks_ok_frac`` but does not fail the op.
Exceptions other than ``DomainError`` are also recorded as crashes, so
the run can report itself as not correct.
"""
from __future__ import annotations

import collections
import csv
import dataclasses
import hashlib
import itertools
import math
import os

import numpy as np

import reference as ref


class Tally:
    def __init__(self):
        self.attempted = 0  # checks of both kinds
        self.failed = 0
        self.failures = collections.Counter()  # check name -> failures
        self.crashes: list = []
        self.hard_failed = 0  # output-check failures, refusals and crashes
        self.ops = 0
        self.ops_failed = 0

    def _count(self, name: str, passed: bool) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures[name] += 1
        return passed

    def check(self, name: str, passed: bool) -> bool:
        """An output check; a miss fails the op."""
        if not passed:
            self.hard_failed += 1
        return self._count(name, passed)

    def gate(self, name: str, passed: bool) -> bool:
        """An accuracy gate; a miss is counted but does not fail the op."""
        return self._count(f"{name} (accuracy gate)", passed)

    def refused(self, name: str, err: Exception) -> None:
        self.check(f"{name}: refused ({type(err).__name__})", False)

    def crashed(self, name: str, err: Exception) -> None:
        self.check(f"{name}: crashed ({type(err).__name__})", False)
        self.crashes.append(f"{name}: {type(err).__name__}: {err}")

    def op_done(self, hard_failed_before: int) -> None:
        """Count one op; it failed if an output check missed since ``hard_failed_before``."""
        self.ops += 1
        if self.hard_failed > hard_failed_before:
            self.ops_failed += 1


class Deck:
    """Draws from a fixed list in seeded shuffles, so every value recurs evenly."""

    def __init__(self, rng: np.random.Generator, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.left.pop()


class Workload:
    """Shared shape: ``setup`` builds state and warms up, ``ops`` yields the
    seeded op stream, ``call`` is the timed part, ``check`` runs off the clock
    and ``self_test`` feeds the checker deliberately wrong results."""

    name = ""
    tail_pct = 0.0  # percentile reported as op_ms_tail; set per workload

    def __init__(self, lib: dict, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.seen: dict = {}  # determinism key -> first result fingerprint
        self.warm: list = []  # (op, output) pairs from the warm-up

    def run_op(self, op, tally: Tally):
        """Untimed wrapper used for warm-up and self-test ops."""
        try:
            out = self.call(op)
        except self.lib["qcore"].DomainError as err:
            tally.refused(op[0], err)
            return None
        self.check(op, out, tally)
        return out

    def artifact_bytes(self, out) -> int:
        return 0

    def deterministic(self, key, fingerprint, tally: Tally, name: str) -> None:
        if key in self.seen:
            tally.check(f"{name} determinism", self.seen[key] == fingerprint)
        else:
            self.seen[key] = fingerprint


# ---------------------------------------------------------------------------
# verify-sweep


class VerifySweep(Workload):
    """In-process ``run_suite`` at q in {0.3, 0.5, 0.7, 0.9}, defaults otherwise.

    The stream cycles q fastest over a pool of four suite seeds drawn from
    the workload seed, so it repeats with period 16 and every repeated
    (q, seed) is compared entry by entry with its first run.
    """

    name = "verify-sweep"
    tail_pct = 60.0
    QS = (0.3, 0.5, 0.7, 0.9)
    ENTRIES = 50

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pool = [int(s) for s in rng.integers(0, 2**31 - 1, size=4)]
        warm = ("suite", 0.5, int(rng.integers(0, 2**31 - 1)))
        self.warm.append((warm, self.run_op(warm, Tally())))

    def ops(self):
        i = 0
        while True:
            yield ("suite", self.QS[i % 4], self.pool[(i // 4) % 4])
            i += 1

    def call(self, op):
        qcli = self.lib["qcli"]
        return qcli.run_suite(qcli.RunConfig(q=op[1], seed=op[2]))

    def check(self, op, result, tally: Tally) -> None:
        entries = list(result.entries)
        tally.check("suite entry count", len(entries) == self.ENTRIES and len({e.name for e in entries}) == len(entries))
        for e in entries:
            holds = math.isfinite(e.residual) and e.residual <= e.tol
            # the suite must report each entry's verdict truthfully ...
            tally.check(f"{e.name} verdict", e.passed == holds)
            # ... and the identity should hold within its tolerance
            tally.gate(e.name, holds)
        fingerprint = tuple((e.name, e.anchor, e.residual, e.tol, e.passed) for e in entries)
        self.deterministic(op, fingerprint, tally, "suite")

    def self_test(self):
        op, result = self.warm[0]
        e = list(result.entries)
        bad = dataclasses.replace(e[0], residual=e[0].tol * 10.0 + 1.0, passed=True)
        liar = dataclasses.replace(result, entries=tuple([bad] + e[1:]), overall=True)
        drift = dataclasses.replace(e[1], residual=e[1].residual + e[1].tol / 2.0)
        drifted = dataclasses.replace(result, entries=tuple([e[0], drift] + e[2:]))
        yield "perturbed residual reported as passed", lambda t: self.check(("suite", -1.0, -1), liar, t)
        yield "entry list differs for an identical (q, seed)", lambda t: self.check(op, drifted, t)
        yield "raised DomainError", lambda t: self.run_op(("suite", 1.5, 0), t)


# ---------------------------------------------------------------------------
# transform-stream


def _close(got, want) -> bool:
    """Equal up to rounding: max deviation <= 1e-9 of (1 + the largest |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want))))


class TransformStream(Workload):
    """Warm transform calls against tables prebuilt at q in {0.3, 0.5, 0.9}.

    One op in four passes a fresh ``QContext`` instead of the table, so the
    library's table cache is on the path.  Spans reach every mode of the
    table, whose ceiling is 8, 12 and 27 modes at the three q.
    """

    name = "transform-stream"
    tail_pct = 95.0
    QS = (0.3, 0.5, 0.9)
    KINDS = ("forward", "coherent", "tensor")

    def setup(self) -> None:
        qcore, qb = self.lib["qcore"], self.lib["qbargmann"]
        self.tables = {q: qb.build_kernel_table(qcore.QContext(q=q)) for q in self.QS}
        self.weights = {q: ref.node_weights(q, t.level) for q, t in self.tables.items()}
        warm_rng = np.random.default_rng([self.seed, 2])
        for q in self.QS:
            for kind in self.KINDS:
                for via_ctx in (False, True):
                    op = self._make(warm_rng, kind, q, via_ctx)
                    self.warm.append((op, self.run_op(op, Tally())))

    def _span(self, rng, q):
        table = self.tables[q]
        s = int(rng.integers(0, table.modes + 1))
        c = rng.normal(size=s + 1) + 1j * rng.normal(size=s + 1)
        return np.tensordot(c, table.hvals[: s + 1], axes=(0, 0))

    def _make(self, rng, kind, q, via_ctx):
        if kind == "forward":
            payload = self._span(rng, q)
        elif kind == "coherent":
            # the suite's radius rule for admissible pairs
            r = 0.6 / math.sqrt(1.0 - q)
            u = rng.uniform(-1.0, 1.0, size=4)
            payload = (r * complex(u[0], u[1]) / math.sqrt(2.0), r * complex(u[2], u[3]) / math.sqrt(2.0))
        else:
            u, v = self._span(rng, q), self._span(rng, q)
            payload = (u, v, np.einsum("sj,tk->sjtk", u, v))
        return (kind, q, via_ctx, payload)

    def ops(self):
        rng = np.random.default_rng([self.seed, 3])
        # kind and q are drawn as a pair so every pair recurs evenly
        pairs = Deck(rng, [(k, q) for k in self.KINDS for q in self.QS])
        ctxs = Deck(rng, (True, False, False, False))
        while True:
            kind, q = pairs.draw()
            yield self._make(rng, kind, q, ctxs.draw())

    def call(self, op):
        kind, q, via_ctx, payload = op
        qb = self.lib["qbargmann"]
        target = self.lib["qcore"].QContext(q=q) if via_ctx else self.tables[q]
        if kind == "forward":
            return qb.bargmann_forward(payload, target)
        if kind == "coherent":
            return qb.coherent_overlap(payload[0], payload[1], target)
        return qb.tensor_forward(payload[2], target)

    def check(self, op, out, tally: Tally) -> None:
        kind, q, _, payload = op
        table = self.tables[q]
        if kind == "forward":
            got = np.asarray(out.coeffs)
            want = ref.forward_coeffs(payload, table.hvals, q)
            tally.check("forward coefficients", got.shape == want.shape and _close(got, want))
            lhs = ref.fischer_norm_sq(out.coeffs, q)
            rhs = ref.node_norm_sq(payload, q)
            tally.gate("forward isometry", abs(lhs - rhs) <= 1e-7 * (1.0 + abs(rhs)))
        elif kind == "coherent":
            z, w = payload
            want = ref.node_inner(ref.coherent_values(z, table.hvals, q), ref.coherent_values(w, table.hvals, q), q)
            tally.check("coherent overlap", _close(complex(out), want))
            tally.gate("coherent overlap vs kernel", abs(complex(out) - ref.kernel(z, w, q)[0]) <= 1e-6)
        else:
            proj = table.hvals * self.weights[q][np.newaxis, np.newaxis, :]
            cu = np.einsum("nsj,sj->n", proj, payload[0])
            cv = np.einsum("nsj,sj->n", proj, payload[1])
            got = np.asarray(out.matrix)
            ok = got.shape == (table.modes + 1,) * 2 and float(np.max(np.abs(got - np.outer(cu, cv)))) <= 1e-8
            tally.check("tensor factorisation", ok)

    def _passing(self, kind: str):
        """A warm-up (op, output) of this kind that passes its check, so a
        failure on the perturbed copy is the perturbation's doing."""
        for op, out in self.warm:
            tally = Tally()
            if op[0] == kind and out is not None:
                self.check(op, out, tally)
                if tally.failed == 0:
                    return op, out
        raise LookupError(f"no warm-up {kind} op passed its check")

    def self_test(self):
        op, out = self._passing("forward")
        coeffs = list(out.coeffs)
        n = int(np.argmax(np.abs(coeffs)))
        coeffs[n] *= 1.001
        perturbed = out.__class__(tuple(coeffs), out.ctx)
        yield "perturbed transform coefficient", lambda t: self.check(op, perturbed, t)
        op, out = self._passing("coherent")
        yield "perturbed coherent overlap", lambda t: self.check(op, complex(out) + 1e-4, t)
        op, out = self._passing("tensor")
        m = np.array(out.matrix)
        m[0, 0] += 1e-6
        yield "perturbed tensor entry", lambda t: self.check(op, out.__class__(m, out.ctx), t)
        r = 2.0 / (1.0 - op[1])
        yield "raised DomainError", lambda t: self.run_op(("coherent", op[1], False, (complex(r), 0j)), t)


# ---------------------------------------------------------------------------
# table-mix


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _hermitian(mat) -> bool:
    """A Gram matrix equals its conjugate transpose up to rounding."""
    return bool(np.max(np.abs(mat - mat.conj().T)) <= 1e-12 * np.max(np.abs(mat)))


class TableMix(Workload):
    """In-process ``qcli.main`` calls that each write one artifact.

    Every round runs one draw of each artifact kind plus a replay of an
    earlier op, in seeded order; the replay's bytes must equal the first
    run's.  Per kind, formats alternate CSV/JSON and the parameters come
    from seeded decks.  Draws outside the library's working
    envelope (small q with large kmax or N) stay in and fail their gates.
    """

    name = "table-mix"
    tail_pct = 95.0
    QS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    GAMMA_QS = (0.99, 0.999, 0.9999)
    KINDS = ("hermite-gram", "mixed-gram", "kernel-grid", "grid", "gamma")
    GATES = {"hermite-gram": "gap", "mixed-gram": "conditioning"}

    def setup(self) -> None:
        self.path = {fmt: os.path.join(self.workdir, f"artifact.{fmt}") for fmt in ("csv", "json")}
        warm_rng = np.random.default_rng([self.seed, 4])
        gen = self._generator(warm_rng)
        for kind in self.KINDS:
            op = gen(kind)
            self.warm.append((op, self.run_op(op, Tally())))

    def _generator(self, rng):
        # parameters that set an op's cost or its envelope are drawn as
        # joint decks, so each run sees every combination equally often
        sizes = (12, 24, 36, 48, 60)
        decks = {
            "hermite-gram": Deck(rng, itertools.product(self.QS, range(6, 13))),
            "mixed-gram": Deck(rng, itertools.product(self.QS, range(4, 9))),
            "kernel-q": Deck(rng, self.QS),
            "kernel-n": Deck(rng, itertools.product(sizes, sizes)),
            "kernel-a": Deck(rng, (0.5, 0.75, 1.0, 1.25, 1.5)),
            "kernel-w": Deck(rng, (0.1, 0.3, 0.5, 0.7, 0.9)),
            "grid-q": Deck(rng, self.QS),
            "grid": Deck(rng, itertools.product(range(4, 11), range(1, 5))),
            "gamma": Deck(rng, self.GAMMA_QS),
        }
        drawn = collections.Counter()

        def gen(kind):
            fmt = ("csv", "json")[drawn[kind] % 2]
            drawn[kind] += 1
            if kind == "hermite-gram":
                q, kmax = decks[kind].draw()
                params = {"kmax": kmax}
                argv = ["table", kind, f"--kmax={kmax}"]
            elif kind == "mixed-gram":
                q, N = decks[kind].draw()
                params = {"N": N}
                argv = ["table", kind, f"--N={N}"]
            elif kind == "kernel-grid":
                q, (nx, ny), a = decks["kernel-q"].draw(), decks["kernel-n"].draw(), decks["kernel-a"].draw()
                w = complex(decks["kernel-w"].draw() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
                params = {"a": a, "w": w, "nx": nx, "ny": ny}
                argv = ["table", kind, f"--w={_fmt_complex(w)}", f"--xmin={-a!r}", f"--xmax={a!r}",
                        f"--ymin={-a!r}", f"--ymax={a!r}", f"--nx={nx}", f"--ny={ny}"]
            elif kind == "grid":
                q, (depth, count) = decks["grid-q"].draw(), decks["grid"].draw()
                seeds = [(float(x), float(y)) for x, y in rng.uniform(-3.0, 3.0, size=(count, 2))]
                params = {"seeds": seeds, "depth": depth}
                argv = ["grid", "--seeds=" + ";".join(f"{x!r},{y!r}" for x, y in seeds), f"--grid-depth={depth}"]
            else:
                q = decks["gamma"].draw()
                params = {"t": float(rng.uniform(0.2, 5.0))}
                argv = ["eval", "gamma", f"--t={params['t']!r}"]
            argv += [f"--q={q!r}", f"--format={fmt}", f"--out={self.path[fmt]}"]
            return (kind, fmt, q, tuple(argv), params)

        return gen

    def ops(self):
        rng = np.random.default_rng([self.seed, 5])
        gen = self._generator(rng)
        replay_kinds = Deck(rng, self.KINDS)
        history = collections.defaultdict(list)
        while True:
            for slot in rng.permutation(len(self.KINDS) + 1):
                if slot < len(self.KINDS):
                    op = gen(self.KINDS[slot])
                    history[op[0]].append(op)
                    yield op
                else:
                    # replay an earlier op of a kind taken in turn
                    past = history[replay_kinds.draw()]
                    if past:
                        yield past[int(rng.integers(0, len(past)))]

    def call(self, op):
        """Runs the CLI in-process; returns (exit code, artifact bytes)."""
        path = self.path[op[1]]
        if os.path.exists(path):
            os.remove(path)
        rc = self.lib["qcli"].main(list(op[3]))
        if rc == 2:
            raise self.lib["qcore"].DomainError(f"qfock exited with code 2 for {' '.join(op[3][:2])}")
        with open(path, "rb") as fh:
            return rc, fh.read()

    def artifact_bytes(self, out) -> int:
        return len(out[1])

    def check(self, op, out, tally: Tally) -> None:
        kind, fmt, q, argv, params = op
        rc, data = out
        self.deterministic(argv, hashlib.sha256(data).hexdigest(), tally, kind)
        # each _check_<kind> returns (output check passed, accuracy gate
        # passed or None for kinds without a gate)
        try:
            ok, gate = getattr(self, "_check_" + kind.replace("-", "_"))(data, fmt, q, params) if rc == 0 else (False, None)
        except (ValueError, KeyError, IndexError, TypeError, csv.Error):
            ok, gate = False, None  # an artifact the parser cannot read is a failed check
        tally.check(f"{kind} artifact", bool(ok))
        if gate is not None:
            tally.gate(f"{kind} {self.GATES[kind]}", bool(gate))

    @staticmethod
    def _check_hermite_gram(data, fmt, q, params):
        labels, mat = ref.gram_matrix(data, fmt)
        k = params["kmax"] + 1
        if len(labels) != k or not np.all(np.isfinite(mat)) or np.any(mat.imag):
            return False, None
        # each entry is one pairing sum, symmetric in its two indices
        ok = _hermitian(mat)
        lam = np.array([ref.hermite_norm(i, q) for i in range(k)])
        gap = np.abs(mat.real - np.diag(lam)) / np.maximum.outer(lam, lam)
        return ok, float(np.max(gap)) <= 1e-6

    @staticmethod
    def _check_mixed_gram(data, fmt, q, params):
        labels, mat = ref.gram_matrix(data, fmt)
        N = params["N"]
        if len(labels) != (N + 1) * (N + 2) // 2 or not np.all(np.isfinite(mat)):
            return False, None
        ok = _hermitian(mat)
        trace = float(np.real(np.trace(mat)))
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        # the verify entry's gate: (1e-10 trace) / min_eig <= 1
        return ok, min_eig > 0.0 and 1e-10 * max(trace, 1.0) / min_eig <= 1.0

    @staticmethod
    def _check_kernel_grid(data, fmt, q, params):
        rows = ref.table_rows(data, fmt, "rows", ["x", "y", "ReK", "ImK", "absK"])
        a, w = params["a"], params["w"]
        xs = np.linspace(-a, a, params["nx"])
        ys = np.linspace(-a, a, params["ny"])
        z = (xs[:, None] + 1j * ys[None, :]).ravel()
        z = z[np.abs(z) * abs(w) < 1.0 / (1.0 - q)]
        if rows.shape[0] != z.size or not (np.array_equal(rows[:, 0], z.real) and np.array_equal(rows[:, 1], z.imag)):
            return False, None
        k_ref = ref.kernel(z, w, q)
        got = rows[:, 2] + 1j * rows[:, 3]
        return bool(np.all(np.abs(got - k_ref) <= 1e-8 * (1.0 + np.abs(k_ref)))
                    and np.allclose(rows[:, 4], np.abs(got), rtol=1e-12, atol=0.0)), None

    @staticmethod
    def _check_grid(data, fmt, q, params):
        pts = ref.table_rows(data, fmt, "points", ["x", "y"])
        uniq = list(dict.fromkeys(params["seeds"]))
        d = params["depth"]
        b1, b2 = np.meshgrid(np.arange(d + 1), np.arange(d + 1), indexing="ij")
        want = np.concatenate([
            np.stack([x * q ** b1.ravel().astype(float), y * q ** -b2.ravel().astype(float)], axis=1) for x, y in uniq
        ])
        return pts.shape == want.shape and bool(np.all(np.abs(pts - want) <= 1e-14 * np.abs(want))), None

    @staticmethod
    def _check_gamma(data, fmt, q, params):
        want = ref.q_gamma(params["t"], q)
        return abs(ref.scalar_value(data, fmt) - want) <= 1e-9 * abs(want), None

    def self_test(self):
        for op, out in self.warm:
            if op[0] != "hermite-gram":
                continue
            rc, data = out
            # flip the low bit of the first digit of the (0, 0) Gram entry
            start = data.index(b",", data.index(b"\n")) if op[1] == "csv" else data.index(b"matrix_re")
            pos = next(i for i in range(start, len(data)) if chr(data[i]).isdigit())
            flipped = bytearray(data)
            flipped[pos] ^= 0x01
            yield "flipped artifact byte", lambda t, op=op, b=bytes(flipped): self.check(op, (rc, b), t)
            bad = (op[0], op[1], op[2], op[3][:2] + ("--kmax=-1",) + op[3][3:], op[4])
            yield "raised DomainError (exit code 2)", lambda t, bad=bad: self.run_op(bad, t)
            return


WORKLOADS = {w.name: w for w in (VerifySweep, TransformStream, TableMix)}
