"""The benchmark's per-layer metric names must all resolve against the library.

A traced benchmark run (``bench/run.py --trace 1``) looks up every
``per_layer`` name of BENCHMARK.json among the metrics that
``bench/run.py::layer_metrics`` builds, and a name it cannot find raises
KeyError.  The span labels behind those metrics come from the library
itself: the functions in each module's ``__all__`` defined in that module,
the methods in ``bench/tracer.py::METHODS``, and the groups in
``bench/run.py::GROUPS``.  This test builds the metrics the same way, by
installing the tracer on the library and calling ``layer_metrics``.
"""
import importlib
import importlib.util
import json
import os
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # bench/run.py pins the BLAS thread variables at import; keep them local
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_benchmark_per_layer_names_resolve():
    bench_run = _load("bench_run", ROOT / "bench" / "run.py")
    bench_tracer = _load("bench_tracer", ROOT / "bench" / "tracer.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib = {name: importlib.import_module(name) for name in bench_run.MODULES}
    tracer = bench_tracer.Tracer(lib)
    tracer.install()
    try:
        tracer.begin_op(0)
        time.sleep(0.001)  # a nonzero op time, which the module shares divide by
        tracer.end_op()
    finally:
        tracer.uninstall()
    import_ms = dict.fromkeys(("numpy", *bench_run.MODULES), 0.0)
    layer = bench_run.layer_metrics(tracer, 1, 0, (0, 0), import_ms, 0.0)
    missing = sorted(m["name"] for m in spec["per_layer"] if m["name"] not in layer)
    assert not missing, f"per-layer names a traced benchmark run cannot resolve: {missing}"
