"""One benchmark sample in a fresh process: set up, call ``cli.main``, report.

Usage: ``python3 perfbench/child.py SPEC.json`` where SPEC.json is written by
``run.py``.  The child imports ``specexact.cli`` from the checkout's ``src``,
writes the workload's generated problem files, and records ``setup_s`` from
the parent's spawn timestamp.  It then calls ``cli.main`` once per planned
call with stdout captured, timing wall and CPU seconds around each call only.
With ``trace`` set, the package's public functions are wrapped first and the
recorded spans are written next to the result at the end.  Everything goes to
``result.json`` in the sample's work directory.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_pool_size() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work"])
    from specexact import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: specexact imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    threads = workloads.Threads(blas=spec["blas"], cli=spec["cli_threads"])
    calls = workloads.write_plan(spec["workload"], spec["seed"], work, threads)
    setup_s = monotonic() - spec["spawn_ts"]
    result = {"setup_s": setup_s, "blas_pool_measured": blas_pool_size(), "calls": []}
    if spec["mode"] == "work":
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        for label, argv in calls:
            buf = io.StringIO()
            err = ""
            with contextlib.redirect_stdout(buf):
                cpu0, t0 = cpu_seconds(), monotonic()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # recorded as a failed call; the run goes on
                    rc, err = None, traceback.format_exc()
                t1, cpu1 = monotonic(), cpu_seconds()
            result["calls"].append(
                {"label": label, "rc": rc, "error": err, "start": t0, "end": t1,
                 "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "stdout": buf.getvalue()}
            )
        if tracer is not None:
            tracer.dump(work / "spans.json")
    tmp = work / "result.json.tmp"
    tmp.write_text(json.dumps(result))
    os.replace(tmp, work / "result.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
