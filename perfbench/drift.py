"""Output drift of a workload's data files against the captured reference.

A data file is any ``*.csv`` or ``*.json`` output except ``report.json``, the
only file that carries timing.  For each file the report says whether it is
byte-identical to the reference and gives the largest relative deviation of
its fields, ``|a - b| / max(|a|, |b|)``: 0 for equal values, 1 for a changed
non-numeric field, a changed infinity, or a changed file structure.

The reference lives in ``perfbench/reference/<workload>/<call>/``.  It holds
the outputs of each workload's canonical inputs (``seed=None``: the demo
gallery and criterion 06 have no seeded input; the pseudo lattices without
their seeded offset), captured at the commit that defined the benchmark:

    python3 perfbench/drift.py capture
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


def data_files(root: Path) -> dict[str, Path]:
    return {
        str(p.relative_to(root)): p
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.suffix in (".csv", ".json") and p.name != "report.json"
    }


def _leaves(path: Path) -> list:
    if path.suffix == ".csv":
        return [tok for line in path.read_text().splitlines() for tok in line.split(",")]
    out = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                out.append(key)
                walk(node[key])
        elif isinstance(node, list):
            out.append(len(node))
            for item in node:
                walk(item)
        else:
            out.append(node)

    walk(json.loads(path.read_text()))
    return out


def _number(tok):
    if isinstance(tok, bool) or tok is None:
        return None
    if isinstance(tok, (int, float)):
        return float(tok)
    try:
        return float(tok)
    except ValueError:
        return None


def _rel(a, b) -> float:
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return 1.0
    return abs(x - y) / max(abs(x), abs(y))


def file_drift(ref: Path, got: Path) -> float:
    a, b = _leaves(ref), _leaves(got)
    if len(a) != len(b):
        return 1.0
    return max((_rel(x, y) for x, y in zip(a, b)), default=0.0)


def compare(out_root: Path, workload: str) -> list[dict]:
    """One entry per data file of the reference or of the output."""
    ref = data_files(REFERENCE / workload)
    got = data_files(out_root)
    rows = []
    for rel in sorted(set(ref) | set(got)):
        if rel not in ref or rel not in got:
            rows.append({"file": rel, "identical": False, "max_rel_drift": 1.0})
            continue
        same = ref[rel].read_bytes() == got[rel].read_bytes()
        rows.append({"file": rel, "identical": same, "max_rel_drift": 0.0 if same else file_drift(ref[rel], got[rel])})
    return rows


def capture() -> int:
    """Replace the reference with the canonical outputs of every workload."""
    import run
    import workloads

    for workload in workloads.NAMES:
        sample = run.run_child(workload, None, "work", False, workloads.threads_for(workload))
        if sample.errors:
            sample.discard()
            print(f"{workload}: not captured: {sample.errors}", file=sys.stderr)
            return 1
        dest = REFERENCE / workload
        shutil.rmtree(dest, ignore_errors=True)
        for rel, path in data_files(sample.work / "out").items():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dest / rel)
        sample.discard()
        print(f"{workload}: captured {len(data_files(dest))} files")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["capture"]:
        print("usage: python3 perfbench/drift.py capture", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(capture())
