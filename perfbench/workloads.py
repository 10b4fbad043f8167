"""Workload inputs and correctness gates of the specexact benchmark.

Each workload turns a seed into the exact inputs of one timed child: the
problem documents it writes, the ``cli.main`` argument lists it calls, and the
thread settings it runs with.  The gates re-check the child's outputs with
plain numpy, independent of the package's code paths, after the timed
interval.  This module imports nothing from ``specexact`` so the parent
process can use it without loading the package.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("gallery", "osc_classify", "pseudo_banded", "pseudo_dense")
DEMOS = ("jacobi", "upper_triangular", "sl_matrix", "oscillator", "complex_oscillator")

#: relative tolerance of the pseudospectrum gate on sigma_min ...
PSEUDO_REL_TOL = 1e-8
#: ... plus this many ulps of ||A - zI||_2, the backward-error floor of an SVD
PSEUDO_ABS_ULPS = 100.0
#: criterion 06 of the acceptance suite: limits 1, 3, 5, 7 within 1e-3
OSC_LIMITS = (1.0, 3.0, 5.0, 7.0)
OSC_ATOL = 1e-3
#: the acceptance suite's gallery tolerance on the oscillator demo
GALLERY_OSC_ATOL = 5e-3
#: lattice points re-checked per pseudo run
PSEUDO_CHECK_POINTS = 4


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Threads:
    """Thread settings of a workload; BLAS ``None`` keeps the library default."""

    blas: int | None
    cli: int | None

    def to_dict(self) -> dict:
        return {"blas_pool": self.blas if self.blas else "default", "cli_threads": self.cli}


def threads_for(workload: str, cli_override: int | None = None) -> Threads:
    """Thread settings per workload; total threads never exceed the CPU count."""
    ncpu = cpu_count()
    if workload == "gallery":
        return Threads(blas=None, cli=None)
    if workload == "osc_classify":
        return Threads(blas=None, cli=1)
    # pseudo workloads: grid rows on worker threads, BLAS pinned to one thread
    return Threads(blas=1, cli=cli_override or min(2, ncpu))


# --------------------------------- problem inputs ---------------------------------


def _lattice(seed: int | None, base: tuple[float, float, float, float]) -> list[float]:
    """``base`` shifted by a seeded offset of at most half a unit per axis."""
    if seed is None:
        return list(base)
    rng = random.Random(f"lattice:{seed}")
    dx, dy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    return [base[0] + dx, base[1] + dx, base[2] + dy, base[3] + dy]


def pseudo_banded_doc(seed: int | None) -> dict:
    """Complex oscillator section, q = i x^2 on (-6, 6), m = 400: tridiagonal, n = 399."""
    return {
        "kind": "schrodinger",
        "name": "bench-pseudo-banded",
        "p": 0.0,
        "q": "i*x^2",
        "r": 0.0,
        "L_n": [6.0],
        "m": 400,
        "analysis": [
            {"op": "pseudo", "size": 1, "rect": _lattice(seed, (-1.0, 12.0, -1.0, 12.0)), "nx": 12, "ny": 12}
        ],
    }


def pseudo_dense_doc(seed: int | None) -> dict:
    """Upper-triangular Galerkin section of size 400: dense, non-normal."""
    return {
        "kind": "upper_triangular",
        "name": "bench-pseudo-dense",
        "analysis": [
            {"op": "pseudo", "size": 400, "rect": _lattice(seed, (-2.0, 30.0, -10.0, 10.0)), "nx": 12, "ny": 12}
        ],
    }


def osc_classify_doc() -> dict:
    """Criterion 06: harmonic oscillator, L_n = 4..10, m = 1600, one classify stage."""
    return {
        "kind": "schrodinger",
        "name": "bench-osc-classify",
        "p": 0.0,
        "q": "x^2",
        "r": 0.0,
        "L_n": [float(L) for L in range(4, 11)],
        "m": 1600,
        "analysis": [
            {"op": "classify", "window": [0.0, 8.0, -1.0, 1.0], "tol": 2e-4, "quadrature_points": 32}
        ],
    }


def gallery_order(seed: int | None) -> list[str]:
    order = list(DEMOS)
    if seed is not None:
        random.Random(f"gallery:{seed}").shuffle(order)
    return order


def write_plan(workload: str, seed: int | None, work: Path, threads: Threads) -> list:
    """Generate the workload's inputs under ``work``; return (label, argv) pairs for ``cli.main``.

    ``seed=None`` gives the canonical inputs the drift reference was captured on.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    flags = ["--threads", str(threads.cli)] if threads.cli else []
    if workload == "gallery":
        order = gallery_order(seed)
        calls = [(name, ["demo", name, "--out", str(out / name)] + flags) for name in order]
        inputs = {"demo_order": order}
    else:
        doc = {
            "osc_classify": osc_classify_doc,
            "pseudo_banded": lambda: pseudo_banded_doc(seed),
            "pseudo_dense": lambda: pseudo_dense_doc(seed),
        }[workload]()
        path = work / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        calls = [(workload, ["run", str(path), "--out", str(out / workload)] + flags)]
        inputs = {"problem": doc}
    (work / "plan.json").write_text(json.dumps({"calls": calls, "inputs": inputs}, indent=2))
    return calls


# --------------------------------- correctness gates ---------------------------------


def _stage_errors(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text())
    return [f"{s['op']}: {s['error']}" for s in report["stages"] if s["status"] != "ok"]


def _true_limits(lines: list[str]) -> list[complex]:
    """Values of the ``lambda = ...: TrueEigenvalue(1)`` summary lines."""
    found = []
    for line in lines:
        if line.startswith("lambda = ") and line.endswith(": TrueEigenvalue(1)"):
            found.append(complex(line[len("lambda = "):-len(": TrueEigenvalue(1)")].replace(" ", "")))
    return found


def _gallery_gate(name: str, lines: list[str]) -> list[str]:
    """The verdict lines the acceptance suite and the README pin for each demo."""
    def need(*prefixes):
        return [
            f"{name}: no line starts with {prefix!r}"
            for prefix in prefixes
            if not any(line.startswith(prefix) for line in lines)
        ]

    if name == "jacobi":
        return need("lambda=0: Spurious (pollution of odd sections; even sections bounded below)")
    if name == "upper_triangular":
        return need("band case (c) PassEvidence")
    if name == "sl_matrix":
        return need("lambda0 search PassEvidence", "gamma^AC gamma^DB PassEvidence")
    limits = _true_limits(lines)
    if name == "oscillator":
        got = sorted(v.real for v in limits)
        ok = len(got) == 4 and all(abs(a - b) <= GALLERY_OSC_ATOL for a, b in zip(got, OSC_LIMITS))
        return [] if ok else [f"oscillator: TrueEigenvalue(1) limits {got}, want 1, 3, 5, 7"]
    if name == "complex_oscillator":
        return [] if len(limits) == 1 else [f"complex_oscillator: {len(limits)} TrueEigenvalue(1) lines, want 1"]
    return [f"unknown demo {name!r}"]


def _osc_gate(out_dir: Path) -> list[str]:
    doc = json.loads((out_dir / "classify.json").read_text())
    cands = doc["candidates"]
    values = sorted(c["lambda"][0] for c in cands)
    errs = []
    if len(values) != 4 or any(abs(a - b) > OSC_ATOL for a, b in zip(values, OSC_LIMITS)):
        errs.append(f"osc_classify: limits {values}, want 1, 3, 5, 7 within {OSC_ATOL:g}")
    for c in cands:
        if c["verdict"] != "TrueEigenvalue" or c["multiplicity"] != 1:
            errs.append(f"osc_classify: {c['lambda']} is {c['verdict']}({c['multiplicity']})")
    return errs


def _section(doc: dict):
    """The pseudo stage's section, built from its definition with numpy alone."""
    import numpy as np

    if doc["kind"] == "upper_triangular":
        k = doc["analysis"][0]["size"]
        j = np.arange(1, k + 1, dtype=float)
        a = np.triu(np.broadcast_to(j, (k, k)), 1)
        a[np.diag_indices(k)] = j**3
        return a
    # Dirichlet finite differences of -f'' + i x^2 f on (-L, L) with m cells
    half, m = doc["L_n"][0], doc["m"]
    h = 2.0 * half / m
    x = -half + h * np.arange(1, m)
    inv_h2 = 1.0 / (h * h)
    a = np.diag(2.0 * inv_h2 + 1j * x * x)
    a += np.diag(np.full(m - 2, -inv_h2), 1) + np.diag(np.full(m - 2, -inv_h2), -1)
    return a


def _pseudo_gate(doc: dict, out_dir: Path, seed: int | None) -> list[str]:
    import numpy as np

    stage = doc["analysis"][0]
    rows = (out_dir / "pseudo.csv").read_text().splitlines()
    if rows[0] != "re,im,resnorm" or len(rows) != 1 + stage["nx"] * stage["ny"]:
        return [f"pseudo.csv: header {rows[0]!r} with {len(rows) - 1} rows"]
    re0, re1, im0, im1 = stage["rect"]
    res, ims = np.linspace(re0, re1, stage["nx"]), np.linspace(im0, im1, stage["ny"])
    a = _section(doc)
    n = a.shape[0]
    norm = np.linalg.norm(a, 2)
    rng = random.Random(f"check:{seed}")
    errs = []
    for idx in rng.sample(range(len(rows) - 1), PSEUDO_CHECK_POINTS):
        re, im, val = (float(v) for v in rows[1 + idx].split(","))
        iy, ix = divmod(idx, stage["nx"])
        if re != res[ix] or im != ims[iy]:
            errs.append(f"pseudo.csv row {idx}: point {re}+{im}j is off the lattice")
            continue
        z = complex(re, im)
        smin = np.linalg.svd(a - z * np.eye(n), compute_uv=False)[-1]
        tol = PSEUDO_REL_TOL * smin + PSEUDO_ABS_ULPS * np.finfo(float).eps * (norm + abs(z))
        got = 0.0 if math.isinf(val) else 1.0 / val
        if not abs(got - smin) <= tol:
            errs.append(f"pseudo.csv at {z}: 1/resnorm {got:.17g} vs svd {smin:.17g} (tol {tol:.3g})")
    return errs


def check(workload: str, seed: int | None, work: Path, stdout_by_call: dict) -> list[str]:
    """Every missed gate of one child as a message; empty when all hold."""
    plan = json.loads((work / "plan.json").read_text())
    errs = []
    for label, _argv in plan["calls"]:
        out_dir = work / "out" / label
        try:
            errs += [f"{label}: {e}" for e in _stage_errors(out_dir)]
            if workload == "gallery":
                errs += _gallery_gate(label, stdout_by_call.get(label, "").splitlines())
            elif workload == "osc_classify":
                errs += _osc_gate(out_dir)
            else:
                errs += _pseudo_gate(plan["inputs"]["problem"], out_dir, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errs.append(f"{label}: unreadable output ({type(exc).__name__}: {exc})")
    return errs
