"""specexact benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh child process
(``perfbench/child.py``) that imports ``specexact`` from ``src``, writes the
workload's generated problem files and calls ``cli.main``; samples run one at
a time.  Workloads (see ``BENCHMARK.json`` for why each was chosen):

  gallery        the five demos in a seed-permuted order; BLAS at its default
                 pool size, ``--threads`` unset
  osc_classify   criterion 06 (Schrodinger x^2, m = 1600) as one classify
                 stage; BLAS default, ``--threads 1``; the seed changes nothing
  pseudo_banded  12x12 pseudospectrum of the tridiagonal complex oscillator
                 section (n = 399), lattice offset by the seed; BLAS pinned to
                 1 thread, ``--threads 2`` (at most the CPU count)
  pseudo_dense   the same stage on the dense upper-triangular section of
                 size 400

``--trace 0`` starts samples until ``--seconds`` have passed, adds set-up-only children until there are MIN_SETUP set-up
samples, and reports medians of ``wall_s`` (seconds inside ``cli.main``),
``cpu_s`` (user + system seconds over the same calls), ``setup_s`` (spawn
until ``specexact.cli`` is imported and the problem is on disk) and
``peak_rss_mb`` (the child's maximum resident set).

``--trace 1`` runs the seeded workload once traced and once untraced, once on
its canonical inputs for the drift report when the seed changes them, and for
the pseudo workloads once more at ``--threads 1``.  It reports the per-layer
metrics listed in ``BENCHMARK.json``.

Every sample's outputs pass the workload's correctness gates (see
``workloads.py``) after its timed interval; a nonzero exit, a stage with
status ``error`` or a missed gate fails the sample.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every sample passed.  A full record of each run,
seed and thread settings included, is written to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import drift
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD_TIMEOUT_S = 170.0
MIN_SETUP = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs (0 if unknown).

    Logged per sample: it explains wall time that no CPU time accounts for.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Sample:
    """One child process: its measurements, its outputs' directory, its failures."""

    work: Path
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    steal_s: float = 0.0
    calls: list = field(default_factory=list)
    blas_pool: int | None = None
    errors: list = field(default_factory=list)

    def discard(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def run_child(workload: str, seed: int | None, mode: str, trace: bool, threads: workloads.Threads) -> Sample:
    """Spawn one child, wait for it, read its result and check its outputs."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    spec = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "trace": trace,
        "blas": threads.blas,
        "cli_threads": threads.cli,
        "work": str(work),
        "src": str(SRC),
    }
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV and k != "SPECEXACT_THREADS"}
    if threads.blas:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads.blas)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    sample = Sample(work=work)
    steal0 = steal_seconds()
    with open(work / "child.log", "wb") as log:
        spawn = monotonic()
        spec["spawn_ts"] = spawn
        (work / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(work / "spec.json")],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample.steal_s = steal_seconds() - steal0
    sample.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        sample.errors.append(f"child exited with {proc.returncode}: {tail}")
        return sample
    result = json.loads(result_path.read_text())
    sample.setup_s = result["setup_s"]
    sample.blas_pool = result["blas_pool_measured"]
    sample.calls = result["calls"]
    if mode != "work":
        return sample
    sample.wall_s = sum(c["wall_s"] for c in sample.calls)
    sample.cpu_s = sum(c["cpu_s"] for c in sample.calls)
    for c in sample.calls:
        if c["rc"] != 0:
            sample.errors.append(f"{c['label']}: exit code {c['rc']} {c['error']}".strip())
    sample.errors += workloads.check(workload, seed, work, {c["label"]: c["stdout"] for c in sample.calls})
    return sample


# ------------------------------------ statistics ------------------------------------


def describe(name: str, unit: str, values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    vals = sorted(values)
    n = len(vals)
    med = f"{statistics.median(vals):.6g}" if vals else "n/a"
    tail = "p_tail=n/a (<11 samples)"
    if n >= 11:
        k = n - 10  # the k-th smallest value leaves ten above it
        tail = f"p{100.0 * k / n:.0f}={vals[k - 1]:.6g}"
    return f"  {name:<12} median={med} {unit:<6} {tail} n={n}"


# --------------------------------------- modes ---------------------------------------


def measure(
    workload: str, seed: int, seconds: float, threads: workloads.Threads, units: dict, log: list
) -> tuple[dict, list]:
    """Untraced samples for ``seconds``; returns the end-to-end metrics named in ``units``."""
    samples: list[Sample] = []
    start = monotonic()
    while not samples or monotonic() - start < seconds:
        sample = run_child(workload, seed, "work", False, threads)
        samples.append(sample)
        sample.discard()
    probes = []
    while len(samples) + len(probes) < MIN_SETUP:
        probe = run_child(workload, seed, "setup", False, threads)
        probe.discard()
        probes.append(probe)
    ok = [s for s in samples if not s.errors]
    for s in probes:
        if s.errors:
            log.append(f"set-up probe failed: {s.errors}")
    series = {
        "wall_s": [s.wall_s for s in ok],
        "cpu_s": [s.cpu_s for s in ok],
        "setup_s": [s.setup_s for s in ok + probes if not s.errors],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
    }
    for i, s in enumerate(samples, 1):
        log.append(
            f"sample {i}: wall_s={s.wall_s:.4f} cpu_s={s.cpu_s:.4f} setup_s={s.setup_s:.4f} "
            f"peak_rss_mb={s.peak_rss_mb:.1f} steal_s={s.steal_s:.2f} {'ok' if not s.errors else 'FAILED'}"
        )
        log += [f"  gate: {e}" for e in s.errors]
    log.append("end-to-end:")
    log += [describe(name, unit, series[name]) for name, unit in units.items()]
    failed = sum(1 for s in samples if s.errors)
    log.append(f"  fail_ratio   {failed}/{len(samples)} = {failed / len(samples):.3g} ratio")
    metrics = {}
    for name, unit in units.items():
        if series[name]:
            metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
    return metrics, samples + [p for p in probes if p.errors]


def _stage_seconds(sample: Sample, op: str) -> float:
    total = 0.0
    for c in sample.calls:
        report = json.loads((sample.work / "out" / c["label"] / "report.json").read_text())
        total += sum(s["seconds"] for s in report["stages"] if s["op"] == op)
    return total


def _verdicts(sample: Sample) -> dict:
    counts = {"TrueEigenvalue": 0, "Spurious": 0, "Undecided": 0}
    for path in (sample.work / "out").rglob("classify*.json"):
        for cand in json.loads(path.read_text())["candidates"]:
            counts[cand["verdict"]] += 1
    return counts


def layer_values(workload: str, traced: Sample, plain: Sample, drift_rows: list, speedup: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` by name."""
    spans = json.loads((traced.work / "spans.json").read_text())["spans"]
    summary = tracer.summarize(spans, [(c["start"], c["end"]) for c in traced.calls])
    names = summary["names"]

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def self_s(*which):
        return sum(names[n]["self_s"] for n in which if n in names)

    def infos(name):
        return [s[5] for s in names[name]["spans"]] if name in names else []

    eig = infos("numerics.eig_dense")
    contour = names.get("resolvent_analysis.contour_rank", {"spans": []})["spans"]
    spectrum_calls = calls("resolvent_analysis.SectionLadder.spectrum")
    verdicts = _verdicts(plain)
    v = {
        "numerics.eig_dense.calls": calls("numerics.eig_dense"),
        "numerics.eig_dense.self_s": self_s("numerics.eig_dense"),
        "numerics.eig_dense.max_n": max((i["n"] for i in eig), default=0),
        "numerics.eig_dense.repeat_calls": sum(1 for i in eig if i["repeat"]),
        "numerics.sigma_min.calls": calls("numerics.sigma_min"),
        "numerics.sigma_min.self_s": self_s("numerics.sigma_min"),
        "numerics.op_norm.calls": calls("numerics.op_norm"),
        "numerics.op_norm.self_s": self_s("numerics.op_norm"),
        "resolvent_analysis.contour_rank.calls": len(contour),
        "resolvent_analysis.contour_rank.self_s": self_s("resolvent_analysis.contour_rank"),
        "resolvent_analysis.contour_rank.n_sum": sum(s[5]["n"] for s in contour),
        "resolvent_analysis.contour_rank.blocked": sum(1 for s in contour if s[6] in ("ContourError", "ResolutionError")),
        "resolvent_analysis.pseudospectrum_grid.self_s": self_s("resolvent_analysis.pseudospectrum_grid"),
        "resolvent_analysis.pseudospectrum_grid.points": sum(i["points"] for i in infos("resolvent_analysis.pseudospectrum_grid")),
        "resolvent_analysis.pseudospectrum_grid.thread_speedup": speedup,
        "resolvent_analysis.region_probe.calls": calls("resolvent_analysis.region_probe"),
        "resolvent_analysis.region_probe.self_s": self_s("resolvent_analysis.region_probe"),
        "resolvent_analysis.ladder.spectrum_calls": spectrum_calls,
        "resolvent_analysis.ladder.spectrum_hit_ratio": (
            1.0 - calls("numerics.eig_dense") / spectrum_calls if spectrum_calls else 0.0
        ),
        "spectral_tracker.verdicts.true": verdicts["TrueEigenvalue"],
        "spectral_tracker.verdicts.spurious": verdicts["Spurious"],
        "spectral_tracker.verdicts.undecided": verdicts["Undecided"],
        "discretize.assemble.calls": sum(
            calls(f"discretize.{f}") for f in ("sl_assemble", "sl_block_assemble", "schrodinger_assemble")
        ),
        "discretize.assemble.self_s": self_s(
            "discretize.sl_assemble", "discretize.sl_block_assemble", "discretize.schrodinger_assemble"
        ),
        "cli.output_bytes": sum(p.stat().st_size for p in (plain.work / "out").rglob("*") if p.is_file()),
        "cli.outputs_compared": len(drift_rows),
        "cli.outputs_identical": (
            sum(1 for r in drift_rows if r["identical"]) / len(drift_rows) if drift_rows else 0.0
        ),
        "cli.max_rel_drift": max((r["max_rel_drift"] for r in drift_rows), default=0.0),
        "unattributed_s": summary["unattributed_s"],
        "trace_overhead_s": traced.wall_s - plain.wall_s,
    }
    for f in ("match_trajectories", "classify_point", "track_and_classify"):
        v[f"spectral_tracker.{f}.self_s"] = self_s(f"spectral_tracker.{f}")
    for f in ("schrodinger_constants", "relative_bound", "uniform_resolvent_decay", "gamma_product_2x2", "sl_lambda0_search"):
        v[f"hypothesis_checker.{f}.self_s"] = self_s(f"hypothesis_checker.{f}")
    for f in ("truncate", "split_blocks", "band_profile"):
        v[f"operator_model.{f}.calls"] = calls(f"operator_model.{f}")
        v[f"operator_model.{f}.self_s"] = self_s(f"operator_model.{f}")
    for op in ("spectra", "pseudo", "classify", "verify"):
        v[f"cli.stage.{op}_s"] = _stage_seconds(plain, op)
    walls = {c["label"]: c["wall_s"] for c in plain.calls}
    for demo in workloads.DEMOS:
        v[f"cli.demo.{demo}_s"] = walls.get(demo, 0.0) if workload == "gallery" else 0.0
    for layer, agg in summary["layers"].items():
        v[f"layer.{layer}.calls"] = agg["calls"]
        v[f"layer.{layer}.self_s"] = agg["self_s"]
    return v


def traced_run(workload: str, seed: int, threads: workloads.Threads, log: list) -> tuple[dict, list]:
    traced = run_child(workload, seed, "work", True, threads)
    plain = run_child(workload, seed, "work", False, threads)
    samples = [traced, plain]
    seeded = workload in ("pseudo_banded", "pseudo_dense")
    canonical = run_child(workload, None, "work", False, threads) if seeded else traced
    if seeded:
        samples.append(canonical)
    speedup = 0.0
    if seeded:
        single = run_child(workload, seed, "work", False, workloads.threads_for(workload, cli_override=1))
        samples.append(single)
        if not (single.errors or plain.errors):
            speedup = _stage_seconds(single, "pseudo") / _stage_seconds(plain, "pseudo")
    values = {}
    if not any(s.errors for s in samples):
        drift_rows = drift.compare(canonical.work / "out", workload)
        for row in drift_rows:
            log.append(f"drift: {row['file']}: identical={row['identical']} max_rel_drift={row['max_rel_drift']:.3g}")
        values = layer_values(workload, traced, plain, drift_rows, speedup)
        spans_copy = WORK / f"spans-{workload}.json"
        shutil.copyfile(traced.work / "spans.json", spans_copy)
        log.append(f"spans of the traced child: {spans_copy.relative_to(ROOT)}")
        log.append(f"wall_s traced={traced.wall_s:.4f} untraced={plain.wall_s:.4f}")
    for s in samples:
        log += [f"  gate: {e}" for e in s.errors]
        s.discard()
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specexact" / "cli.py").is_file():
        print(f"error: no specexact sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = workloads.threads_for(args.workload)
    log = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"threads: {json.dumps(threads.to_dict())} nproc={workloads.cpu_count()}",
    ]
    if args.trace:
        values, samples = traced_run(args.workload, args.seed, threads, log)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["per_layer"]
        } if values else {}
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        metrics, samples = measure(args.workload, args.seed, args.seconds, threads, units, log)
    pools = sorted({str(s.blas_pool) for s in samples})
    log.insert(2, f"blas pool measured in the children: {', '.join(pools)}")
    attempted = len(samples)
    failed = sum(1 for s in samples if s.errors)
    correct = failed == 0 and bool(metrics)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "threads": threads.to_dict(), "log": log, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print("\n".join(log))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
