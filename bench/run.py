"""qfock benchmark: one command for the verify-sweep, transform-stream and table-mix workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run is one closed-loop, single-client, single-thread process (BLAS
pinned to one thread).  It imports the library from ``src/``, builds the
workload's prebuilt state and warms up, feeds every checker deliberately
wrong results (the self-test), and then times ops until their summed call
time reaches ``--seconds``.  Every output is checked off the clock.

Timings are normalised for host speed: the fixed calibration probe in
probe.py runs between ops every PROBE_EVERY_S of op time, and each op's
latency (and each set-up sample) is scaled by PROBE_REF_MS over the probe
time around it.  Raw wall-clock values are printed and kept in the record.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics listed in BENCHMARK.json.  With
``--trace 1`` the first half of ``--seconds`` is run untraced, the same
ops are replayed with every public library function wrapped in spans
(see tracer.py), and ``metrics`` are the per-layer metrics.  ``attempted``
counts ops and ``failed`` the ops that missed an output check, were refused
or crashed; ``correct`` is false when any op failed, a checker let a
deliberately wrong result pass, or a checker crashed.  Accuracy-gate
misses (see workloads.py) fail no op; they are reported in
``ops_failed_frac`` and ``checks_ok_frac``.

Run records (and, for traced runs, the spans) are written to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
# numpy reads these when it is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("qcore", "qcomplex", "qhermite", "qfock", "qbargmann", "qcli")
SETUP_SAMPLES = 5  # this process plus four fresh child processes
PROBE_EVERY_S = 0.5  # op time between two calibration probe points

# Span labels reported together under one metric name.
GROUPS = {
    "qbargmann.unitarity_gram": ("qbargmann.bargmann_unitarity_gram", "qbargmann.tensor_unitarity_gram"),
    "qcomplex.basis_convert": ("qcomplex.from_bivar", "qcomplex.to_bivar"),
}

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "frac",
    "checks_ok_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name.startswith("qcli.import_ms."):
        return "ms"
    for suffix, unit in ((".calls", "calls/op"), (".self_ms", "ms/op"), (".self_share", "frac"),
                         ("node_products", "products/op"), ("kernel_terms", "terms/op"),
                         ("hit_ratio", "ratio"), ("lookups", "count"), ("artifact_bytes", "bytes/op"),
                         ("overhead_frac", "frac"), ("trace.ops", "count")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, workdir: Path):
    """Import numpy and the library, build the workload's state and warm up.

    Returns the workload, per-module import times in ms, and the seconds
    from process start to the end of the warm-up.
    """
    import_ms = {}
    t = time.perf_counter()
    import numpy  # noqa: F401

    import_ms["numpy"] = (time.perf_counter() - t) * 1e3
    sys.path[:0] = [str(SRC), str(HERE)]
    lib = {}
    for name in MODULES:
        t = time.perf_counter()
        lib[name] = importlib.import_module(name)
        import_ms[name] = (time.perf_counter() - t) * 1e3
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](lib, seed, str(workdir))
    wl.setup()
    return wl, import_ms, time.perf_counter() - _T0


def child_setup_seconds(args, count: int) -> list:
    """Normalised set-up time of ``count`` fresh processes, run one after
    another, each scaled by the calibration probe read just before and after."""
    from probe import PROBE_REF_MS, probe_point

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    out = []
    for _ in range(count):
        before = probe_point()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        after = probe_point()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with code {proc.returncode}: {proc.stderr.strip()}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        out.append(seconds * 2.0 * PROBE_REF_MS / (before + after))
    return out


# ---------------------------------------------------------------------------
# measuring


def run_window(wl, tally, seconds=None, count=None, tracer=None):
    """Time ops from the seeded stream until their summed call time reaches
    ``seconds`` (or ``count`` ops ran); check each output off the clock.

    The calibration probe runs before the first op and after every
    PROBE_EVERY_S of op time; each op's normalisation factor is
    PROBE_REF_MS over the mean of the two probe points around it.

    Returns the per-op latencies in seconds, their normalised values, a
    short tag per op, and the artifact bytes written.
    """
    from probe import PROBE_REF_MS, probe_point

    DomainError = wl.lib["qcore"].DomainError
    latencies = []
    factors = []
    tags = []
    busy = 0.0
    since_probe = 0.0
    last_probe = probe_point()
    nbytes = 0

    def close_block():
        nonlocal last_probe, since_probe
        point = probe_point()
        factors.extend([2.0 * PROBE_REF_MS / (last_probe + point)] * (len(latencies) - len(factors)))
        last_probe, since_probe = point, 0.0

    for i, op in enumerate(wl.ops()):
        if (count is not None and i >= count) or (seconds is not None and busy >= seconds):
            break
        if tracer is not None:
            tracer.begin_op(i)
        err = None
        hard_failed = tally.hard_failed
        t0 = time.perf_counter()
        try:
            out = wl.call(op)
        except Exception as exc:  # a refusal or a crash; both are counted below
            err = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        latencies.append(dt)
        tags.append(f"{op[0]}/{op[1]}")
        busy += dt
        since_probe += dt
        if err is None:
            nbytes += wl.artifact_bytes(out)
            try:
                wl.check(op, out, tally)
            except Exception as exc:
                tally.crashed(f"{op[0]} checker", exc)
        elif isinstance(err, DomainError):
            tally.refused(op[0], err)
        else:
            tally.crashed(op[0], err)
        tally.op_done(hard_failed)
        out = op = None  # so the next op's inputs are not built alongside these
        if since_probe >= PROBE_EVERY_S:
            close_block()
    if len(factors) < len(latencies):
        close_block()
    normalised = [x * f for x, f in zip(latencies, factors)]
    return latencies, normalised, tags, nbytes


def self_test(wl) -> list:
    """Feed each checker its deliberately wrong results; return the problems.

    Each wrong result must fail an output check (so it would count as a
    failed op), never pass and never crash the checker.  Determinism state is restored afterwards.
    """
    from workloads import Tally

    problems = []
    saved = wl.seen
    try:
        for desc, feed in wl.self_test():
            wl.seen = dict(saved)
            tally = Tally()
            try:
                feed(tally)
            except Exception as exc:
                problems.append(f"{wl.name}: {desc}: checker crashed ({exc!r})")
                continue
            if tally.hard_failed == 0 or tally.crashes:
                problems.append(f"{wl.name}: {desc}: not counted as a failure")
    except LookupError as exc:
        problems.append(f"{wl.name}: self-test could not run: {exc}")
    finally:
        wl.seen = saved
    return problems


def layer_metrics(tracer, ops: int, nbytes: int, cache_delta, import_ms, overhead: float) -> dict:
    calls, self_ms, op_ms = tracer.summary()
    out = {}
    labels = set(tracer.labels[1:]) | set(GROUPS)
    for label in labels:
        members = GROUPS.get(label, (label,))
        out[f"{label}.calls"] = sum(calls[m] for m in members) / ops
        out[f"{label}.self_ms"] = sum(self_ms[m] for m in members) / ops
    for mod in MODULES:
        ms = sum(v for k, v in self_ms.items() if k.startswith(mod + "."))
        out[f"{mod}.self_ms"] = ms / ops
        out[f"{mod}.self_share"] = ms / op_ms
    for name in ("qcore.q_factorial.calls", "qbargmann.node_products", "qfock.kernel_terms"):
        out[name] = tracer.counts[name] / ops
    hits, lookups = cache_delta
    out["qbargmann.table_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["qbargmann.table_cache.lookups"] = float(lookups)
    out["qcli.artifact_bytes"] = nbytes / ops
    for mod, ms in import_ms.items():
        out[f"qcli.import_ms.{mod}"] = ms
    out["trace.overhead_frac"] = overhead
    out["trace.ops"] = float(ops)
    return out


# ---------------------------------------------------------------------------
# context


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_context(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify-sweep", "transform-stream", "table-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no library sources at {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, import_ms, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, wl, import_ms, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timing_metrics(latencies, pct: float) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_tail of per-op latencies in seconds."""
    import numpy as np

    ms = np.asarray(latencies) * 1e3
    return {
        "ops_per_s": len(ms) / (ms.sum() / 1e3),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_tail": float(np.percentile(ms, pct)),
    }


def measure(args, spec, wl, import_ms, setup_s) -> int:
    from probe import PROBE_REF_MS, calibration_ms, probe_point
    from tracer import Tracer
    from workloads import Tally

    setup_s *= PROBE_REF_MS / probe_point()
    context = machine_context(args)
    calib_before = calibration_ms()
    problems = self_test(wl)

    tally = Tally()
    window = args.seconds / 2.0 if args.trace else args.seconds
    raw, normalised, tags, _ = run_window(wl, tally, seconds=window)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = {}
    if args.trace:
        tracer = Tracer(wl.lib)
        cache = wl.lib["qbargmann"]._cached_table
        before = cache.cache_info()
        tracer.install()
        try:
            _, traced, _, nbytes = run_window(wl, tally, count=len(raw), tracer=tracer)
        finally:
            tracer.uninstall()
        after = cache.cache_info()
        delta = (after.hits - before.hits, after.hits + after.misses - before.hits - before.misses)
        overhead = sum(traced) / sum(normalised) - 1.0
        layer = layer_metrics(tracer, len(traced), nbytes, delta, import_ms, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    calib_after = calibration_ms()
    setup_samples = [setup_s] + child_setup_seconds(args, SETUP_SAMPLES - 1)

    e2e = timing_metrics(normalised, wl.tail_pct)
    e2e.update({
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "ops_failed_frac": tally.failed / tally.attempted,
        "checks_ok_frac": 1.0 - tally.failed / tally.attempted,
    })
    raw_timing = timing_metrics(raw, wl.tail_pct)
    beyond = sum(1 for x in normalised if x * 1e3 > e2e["op_ms_tail"])
    problems += tally.crashes
    record = {
        "context": context,
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "samples": {"ops": len(raw), "tail_percentile": wl.tail_pct, "beyond_tail": beyond,
                    "setup_s": setup_samples},
        "checks": {"attempted": tally.attempted, "failed": tally.failed, "by_check": dict(tally.failures),
                   "ops": tally.ops, "ops_failed": tally.ops_failed},
        "problems": problems,
        "end_to_end": e2e,
        "end_to_end_raw": raw_timing,
        "per_layer": layer,
        "ops": {"tag": tags, "latency_ms": [x * 1e3 for x in raw],
                "normalised_ms": [x * 1e3 for x in normalised]},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} {json.dumps(context)}")
    print(f"# calibration probe: {calib_before:.2f} ms before, {calib_after:.2f} ms after")
    print(f"# {len(raw)} ops; tail = p{wl.tail_pct:g} with {beyond} ops beyond it; "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setup_samples)} s")
    print("# timings are normalised to the reference host speed; raw wall-clock values in brackets")
    for name, value in e2e.items():
        raw_note = f"  [raw {raw_timing[name]:.6g}]" if name in raw_timing else ""
        print(f"{name:>16} {value:14.6g} {E2E_UNITS[name]}{raw_note}")
    print(f"# checks: {tally.attempted} attempted, {tally.failed} failed; "
          f"ops: {tally.ops} attempted, {tally.ops_failed} failed")
    for name, n in sorted(tally.failures.items()):
        print(f"#   failed {n:5d}  {name}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")

    if args.trace:
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name, value in sorted(layer.items()):
            print(f"{name:>44} {value:14.6g} {layer_unit(name)}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": not problems and tally.ops_failed == 0, "attempted": tally.ops,
                      "failed": tally.ops_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
