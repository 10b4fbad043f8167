"""Spans around the public functions of each specexact module.

The tracer wraps, from outside the package, every public function a layer
module defines, plus a few public methods that carry layer work
(``SectionLadder.matrix/spectrum/norm``, ``BlockSplit.diag_section`` and
``coupling_section``).  Each call records a span: name, start, end, parent
span and thread.  A span opened on a worker thread with no open span of its
own takes the main thread's innermost open span as parent, so the
pseudospectrum grid's row workers nest under ``pseudospectrum_grid``.  Spans
stay in memory and are written once, by :meth:`Tracer.dump`.

Self time is a span's duration minus the union of its children's intervals.
Per-name and per-layer self times add up spans of every thread, so work
spread over the grid's row threads can exceed the wall time it took.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli",
    "operator_model",
    "discretize",
    "numerics",
    "resolvent_analysis",
    "spectral_tracker",
    "hypothesis_checker",
)
METHODS = {
    "resolvent_analysis": {"SectionLadder": ("matrix", "spectrum", "norm")},
    "operator_model": {"BlockSplit": ("diag_section", "coupling_section")},
}
FIELDS = ("name", "start", "end", "parent", "thread", "info", "error")


def _array(m):
    import numpy as np

    return np.ascontiguousarray(getattr(m, "data", m))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._eig_inputs: set[bytes] = set()

    # ------------------------------- span recording -------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _info(self, name: str, fn, args, kwargs):
        """Per-call counters that feed the waste and size metrics."""
        if name == "numerics.eig_dense":
            a = _array(args[0] if args else kwargs["m"])
            digest = hashlib.blake2b(
                repr((a.dtype.str, a.shape)).encode() + a.tobytes(), digest_size=16
            ).digest()
            repeat = digest in self._eig_inputs
            self._eig_inputs.add(digest)
            return {"n": int(a.shape[0]), "repeat": repeat}
        if name == "resolvent_analysis.contour_rank":
            return {"n": int(_array(args[0] if args else kwargs["m"]).shape[0])}
        if name == "resolvent_analysis.pseudospectrum_grid":
            arg = _bound(fn, args, kwargs)
            return {"points": int(arg["nx"]) * int(arg["ny"])}
        return None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = tracer._info(name, fn, args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else -1
            span = [name, 0.0, 0.0, parent, threading.get_ident(), info, ""]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(sid)
            span[1] = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.clock_gettime(time.CLOCK_MONOTONIC)
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each traced function in every package module that binds it."""
        modules = {layer: importlib.import_module(f"specexact.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for other in modules.values():
                    for other_attr, other_obj in list(vars(other).items()):
                        if other_obj is obj:
                            setattr(other, other_attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": FIELDS, "spans": self.spans}))


# ---------------------------------- aggregation ----------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list[float]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children.get(i, ())]
        out.append((end - start) - _covered([iv for iv in kids if iv[1] > iv[0]]))
    return out


def summarize(spans: list, timed: list) -> dict:
    """Per-name calls and self time, layer totals, and uncovered timed seconds.

    ``timed`` holds the (start, end) intervals of the child's ``cli.main``
    calls, taken the way ``wall_s`` takes them.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "spans": []})
    for span, self_s in zip(spans, selfs):
        entry = by_name[span[0]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["spans"].append(span)
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, entry in by_name.items():
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    in_timed = [
        (max(rs, ts), min(re, te)) for rs, re in roots for ts, te in timed if min(re, te) > max(rs, ts)
    ]
    unattributed = sum(te - ts for ts, te in timed) - _covered(in_timed)
    return {"names": dict(by_name), "layers": layers, "unattributed_s": unattributed}
