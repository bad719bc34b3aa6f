"""Every perf record BENCH_*.json at the repo root follows one schema.

A record holds paired benchmark runs of one change against its parent
commit: per workload the window, the seeds and the pair count, and per
metric the parent's and the change's median with quartiles (null where
not measured), plus a note on the host.  ``unresolved`` lists the metrics
of a run that the pairs cannot settle: the parent's own quartile spread is
wider than the metric's BENCHMARK.json bound, and the change's runs do not
all beat the parent's.  Workload and metric names must
be ones that BENCHMARK.json declares, so a record stays readable against
the benchmark it came from.
"""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
HOST_KEYS = {"vcpus", "python", "numpy", "PYTHONDONTWRITEBYTECODE", "note"}


def _number_or_null(x) -> bool:
    return x is None or (isinstance(x, (int, float)) and not isinstance(x, bool))


def _check_summary(where: str, summary) -> None:
    assert isinstance(summary, dict) and set(summary) == {"median", "q1", "q3"}, where
    assert all(_number_or_null(summary[k]) for k in summary), where
    if None not in summary.values():
        assert summary["q1"] <= summary["median"] <= summary["q3"], where


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_follows_the_schema(path):
    rec = json.loads(path.read_text())
    assert set(rec) == {"change", "parent_commit", "host", "runs"}
    assert isinstance(rec["change"], str) and rec["change"]
    assert re.fullmatch(r"[0-9a-f]{7,40}", rec["parent_commit"])
    assert set(rec["host"]) == HOST_KEYS
    assert isinstance(rec["host"]["vcpus"], int) and rec["host"]["vcpus"] >= 1
    assert rec["runs"]
    for run in rec["runs"]:
        assert set(run) == {"workload", "window_s", "seeds", "pairs", "claim", "metrics", "unresolved"}
        assert run["workload"] in WORKLOADS
        assert isinstance(run["window_s"], (int, float)) and run["window_s"] > 0
        assert isinstance(run["claim"], bool)
        assert isinstance(run["pairs"], int) and run["pairs"] == len(run["seeds"]) >= 1
        assert all(isinstance(s, int) for s in run["seeds"])
        assert run["metrics"]
        for name, sides in run["metrics"].items():
            assert name in METRICS, f"{path.name}: {name} is not a BENCHMARK.json metric"
            assert set(sides) == {"parent", "change"}
            for side, summary in sides.items():
                _check_summary(f"{path.name} {run['workload']} {name} {side}", summary)
        assert isinstance(run["unresolved"], list) and set(run["unresolved"]) <= set(run["metrics"])
