"""The current tree reproduces the golden CLI artifacts of tests/golden/.

``tests/golden/regen.py`` defines the set, the comparison and the move
report, and rewrites the set with ``--write``.
"""
import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_golden_set():
    regen = _regen()
    assert regen.GOLDEN.stat().st_size < 100_000
    old = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    mismatches, moves = regen.compare(old, regen.produce())
    moved = {key: move for key, move in moves.items() if move > regen.REL}
    assert not mismatches and not moved, "\n".join(
        ["largest move per artifact and field:", *regen.report(moves), *mismatches]
    )
