"""Golden CLI artifacts: report how far the current tree moved them, or rewrite them.

    PYTHONPATH=src python tests/golden/regen.py          # largest move per artifact and field
    PYTHONPATH=src python tests/golden/regen.py --write  # rewrite tests/golden/artifacts.json

The set holds ``verify --format json`` at q 0.3 / 0.5 / 0.9, seed 0, the four
``table`` artifacts in JSON (the kernel grid at 5 x 5) and a few ``eval``
values at the same q.  ``tests/test_golden.py`` checks the current tree
against it:

* ``verify``: names, anchors, tolerances, verdicts and config exactly; the
  residuals, which are rounding noise, not at all;
* every other artifact: its structure (keys, list lengths, strings,
  integers, config) exactly, and each float within ``REL`` times the
  artifact's largest |float|.

A move is |new - old| / scale with that scale; the report lists the
largest move per artifact and field (the dotted key path, list positions
left out).  After a deliberate change of values, run with ``--write`` and
put the report of the run before it in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent / "artifacts.json"
REL = 1e-13
QS = (0.3, 0.5, 0.9)
COMMANDS = {
    "verify": ["verify"],
    "hermite-gram": ["table", "hermite-gram"],
    "mixed-gram": ["table", "mixed-gram"],
    "bargmann-gram": ["table", "bargmann-gram"],
    "kernel-grid": ["table", "kernel-grid", "--nx", "5", "--ny", "5"],
    "eval-gamma": ["eval", "gamma", "--t", "2.5"],
    "eval-hermite": ["eval", "hermite", "--k", "5", "--at", "0.7"],
    "eval-zq": ["eval", "zq", "--n", "4", "--at", "0.4,0.3"],
    "eval-kernel": ["eval", "kernel", "--z", "0.3+0.2i", "--w", "0.5-0.1i"],
}


def produce() -> dict:
    """Every golden artifact from the current tree, parsed, keyed ``"<name> q=<q>"``."""
    import qcli

    out = {}
    with mock.patch.dict(os.environ):
        os.environ.pop("QFOCK_CONFIG", None)
        for q in QS:
            for name, argv in COMMANDS.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = qcli.main([*argv, "--format", "json", "--q", str(q), "--seed", "0"])
                if code not in (0, 1):
                    raise RuntimeError(f"{name} at q={q} exited {code}")
                out[f"{name} q={q}"] = json.loads(buf.getvalue())
    return out


def _leaves(node, path=()):
    # (dotted key path, leaf) pairs in document order; list positions are left out
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for item in node:
            yield from _leaves(item, path)
    else:
        yield ".".join(path), node


def _shape(node):
    # the document with every float replaced by None
    if isinstance(node, dict):
        return {k: _shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_shape(v) for v in node]
    return None if isinstance(node, float) else node


def _compared(artifact: str, field: str) -> str:
    """How a float leaf is compared: "exact", "skip" (verify residuals) or "moved"."""
    if field.startswith("config.") or artifact.startswith("verify") and field == "results.tol":
        return "exact"
    if artifact.startswith("verify"):
        return "skip"
    return "moved"


def compare(old: dict, new: dict):
    """Mismatches that must not happen, and the largest move per (artifact, field)."""
    mismatches, moves = [], {}
    if sorted(old) != sorted(new):
        return [f"artifact names differ: {sorted(set(old) ^ set(new))}"], moves
    for artifact in old:
        if _shape(old[artifact]) != _shape(new[artifact]):
            mismatches.append(f"{artifact}: structure, strings or integers differ")
            continue
        pairs = [
            (field, a, b)
            for (field, a), (_, b) in zip(_leaves(old[artifact]), _leaves(new[artifact]))
            if isinstance(a, float) and _compared(artifact, field) != "skip"
        ]
        scale = max((abs(a) for field, a, _ in pairs if _compared(artifact, field) == "moved" and math.isfinite(a)), default=0.0)
        for field, a, b in pairs:
            same = a == b or (math.isnan(a) and math.isnan(b))
            if _compared(artifact, field) == "exact":
                if not same:
                    mismatches.append(f"{artifact}: {field} {a!r} -> {b!r}")
                continue
            move = 0.0 if same else abs(b - a) / scale if scale else math.inf
            move = math.inf if math.isnan(move) else move
            moves[artifact, field] = max(moves.get((artifact, field), 0.0), move)
    return mismatches, moves


def report(moves: dict) -> list[str]:
    return [f"{artifact:24s} {field:12s} {move:.3g}" for (artifact, field), move in sorted(moves.items())]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    new = produce()
    if GOLDEN.exists():
        mismatches, moves = compare(json.loads(GOLDEN.read_text(encoding="utf-8")), new)
        print("\n".join(report(moves) + mismatches))
        print(f"largest move {max(moves.values(), default=0.0):.3g} (bound {REL:g}); {len(mismatches)} mismatches")
    if "--write" in argv:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
