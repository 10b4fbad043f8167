"""Command-line surface: problem files, analysis stages, demo gallery, reports.

Problem files are JSON; coefficients come from a fixed whitelist of named
built-ins, constants, or sample tables (no expression evaluator).  Every data
file is written atomically and contains no timestamps, so repeated runs on
the same input are byte-identical; wall-clock timings live only in
report.json.

Output schemas (complex numbers are [re, im] pairs everywhere):

spectra.csv    header ``n,re,im,residual``; one row per eigenvalue per ladder
               size, 17-significant-digit values.
pseudo.csv     header ``re,im,resnorm``, row-major over the lattice (im outer,
               re inner), ``inf`` marks exactly singular shifts.
classify.json  {problem, certified_sizes, uncertified_sizes, tol, candidates:
               [{lambda, verdict, multiplicity, probe: {point, sizes, values,
               verdict, head_geomean, tail_geomean, tail_min, scale},
               rank_sizes, ranks, source, note}]}.
hypothesis.json {problem, reports: [{theorem, lambda, constants, per_size,
               verdict, notes}]} with the constants named per theorem tag.
report.json    {tool, version, problem, kind, input_sha256, stages: [{op,
               status, outputs, error, seconds, spectrum_cache,
               blas_threads}]}; the only file with timing.
               ``blas_threads`` lists the thread count of each OpenBLAS pool
               of the process (numpy's and SciPy's) while the stage ran:
               1 in each below ``numerics.SERIAL_BLAS_BELOW``, where the
               stage is pinned, else the pools' own counts.  Every count
               below comes from the stage's
               :class:`numerics.Ledger`, opened fresh around each stage.
               ``spectrum_cache`` is {hits, misses}: the
               stage's spectrum requests answered from the problem's cache
               and by an eigensolve.  Spectra and classify stages also
               record ``eig_routes`` (the stage's eigensolves per route:
               tridiagonal, bisection, kronecker, banded, windowed,
               hermitian, general), ``residuals_computed`` (residuals the
               stage computed: n per hermitian or general eigensolve, one
               per written row of a tridiagonal, bisection, kronecker,
               banded or windowed section) and
               ``windowed_checks`` (per windowed solve: size, found,
               contour_rank, gap, probe_columns, and fallback, null or the
               reason the whole spectrum was computed instead) and
               ``contour_guards`` (the factored contour nodes of the stage,
               windowed solves' and classify contours' alike, by how the
               resolvent-norm guard cleared each: probe_bound,
               frobenius or estimated; a node refused is not counted).  An
               sl_matrix section interleaves its two components' unknowns,
               so it is banded; one whose components share one T and whose
               couplings are constants is declared a Kronecker sum over T
               and takes the kronecker route (the demo's 10).
               A finished classify stage records ``probe_ratios``, one entry
               per candidate: its lambda and verdict, the four ratios its
               region probe was judged by (``RegionProbe.ratios``; null
               where a denominator is zero or the quotient overflows) and
               ``contours``, one entry per contour rank size: size, route
               (closed_form, sketched or dense), gap (the kept/dropped
               singular-value ratio, judged against 10; null when infinite)
               and node_distance (on the closed_form route, the least
               distance from a node to the spectrum over the radius, judged
               against 1e-8; null otherwise), with route, gap and
               node_distance all null where the contour was blocked.  It
               also records ``contour_routes``, its contour ranks per route.  A
               finished pseudo stage records ``sigma_min_routes`` (lattice
               points per route: dense, tridiagonal, banded, triangular) and
               ``dense_fallbacks`` (banded and triangular points redone by
               dense SVD) and ``lanczos_steps`` (the Lanczos steps its
               banded and triangular points ran, per route, zeros
               included).  A finished verify stage records ``gamma_routes``,
               its coupling norms ||S (T - lam)^-1|| per route: eigenvalues
               (a constant sl_matrix coupling) or svd, and ``knob_pairs``,
               the (nu, beta) pairs its Schrodinger constant searches
               evaluated and pruned (zeros without a schrodinger check).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import locale  # argparse's gettext imports it at its first message; loaded here so that no run pays for it
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, discretize as dz, hypothesis_checker as hc, numerics
from . import operator_model as om, resolvent_analysis as ra, spectral_tracker as st

KINDS = ("jacobi", "upper_triangular", "custom_banded", "sl", "sl_matrix", "schrodinger")
GALERKIN_KINDS = ("jacobi", "upper_triangular", "custom_banded")
DEMO_NAMES = ("jacobi", "upper_triangular", "sl_matrix", "oscillator", "complex_oscillator")
#: each analysis op: its output file, and what it reads of the problem's cache
#: ("spectra" and the sections under them, "sections" alone, or nothing)
STAGES = {
    "spectra": ("spectra.csv", "spectra"),
    "pseudo": ("pseudo.csv", "sections"),
    "classify": ("classify.json", "spectra"),
    "verify": ("hypothesis.json", None),
}
#: each verify check and the problem kinds whose data it reads
CHECKS = {
    "relative_bound": GALERKIN_KINDS,
    "uniform_decay": GALERKIN_KINDS,
    "band_case": GALERKIN_KINDS,
    "sl_coercivity": ("sl", "sl_matrix"),
    "sl_matrix": ("sl_matrix",),
    "schrodinger": ("schrodinger",),
}
ENV_THREADS = "SPECEXACT_THREADS"
#: the largest ``--threads`` or ``$SPECEXACT_THREADS`` a run accepts: no count
#: changes a run, and the cap stays so that a larger value still exits 2
MAX_THREADS = 256
#: the largest section a problem may ask for: its dense complex128 array,
#: 16 n^2 bytes, must fit in 1 GiB, so n <= 8192
MAX_SECTION_BYTES = 1 << 30
#: the most trapezoid nodes a classify contour may take: far past any useful rule
#: (the demos take 32-64), while each contour route costs O(quadrature_points)
MAX_QUADRATURE_POINTS = 4096


class ProblemError(ValueError):
    """Problem file failed schema validation."""


def _fmt(x: float) -> str:
    return "inf" if np.isinf(x) else f"{float(x):.17g}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ------------------------------ coefficient parsing ------------------------------

def _exp_minus_x2(x: np.ndarray) -> np.ndarray:
    # math.exp point by point: np.exp differs from it in the last bit at some points
    return np.array([math.exp(-v * v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


_NAMED_COEFFS = {
    "x": lambda x: x,
    "x^2": lambda x: x * x,
    "i*x^2": lambda x: 1j * x * x,
    "exp(-x^2)": _exp_minus_x2,
}


def _table(x: np.ndarray, xs: np.ndarray, re: np.ndarray, im: np.ndarray | None) -> np.ndarray:
    """The table's linear interpolant at the points x: real, or complex with parts set exactly."""
    if im is None:
        return np.interp(x, xs, re)
    out = np.empty(x.shape, dtype=complex)
    out.real, out.imag = np.interp(x, xs, re), np.interp(x, xs, im)
    return out


def parse_coefficient(node, where: str):
    """Whitelisted coefficient: number, [re, im], named built-in, or sample table.

    Each is a :data:`specexact.discretize.Coefficient`, called on a 1-d array
    of points; a number comes back as a scalar, broadcast by the caller.  On
    an array each gives, bit for bit, what it gave point by point.
    """
    if isinstance(node, bool):
        raise ProblemError(f"{where}: booleans are not coefficients")
    if isinstance(node, (int, float)):
        c = _parse_number(node, where)
        return lambda x, c=c: c
    if isinstance(node, list) and len(node) == 2 and all(isinstance(v, (int, float)) for v in node):
        c = _parse_complex(node, where)
        return lambda x, c=c: c
    if isinstance(node, str):
        if node in _NAMED_COEFFS:
            return _NAMED_COEFFS[node]
        raise ProblemError(
            f"{where}: unknown coefficient {node!r}; built-ins are {sorted(_NAMED_COEFFS)}"
        )
    if isinstance(node, dict) and "table" in node:
        tab = node["table"]
        try:
            xs = np.asarray(tab["x"], dtype=float)
            re = np.asarray(tab["re"], dtype=float)
            im = np.asarray(tab.get("im", np.zeros_like(re)), dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProblemError(f"{where}: malformed table ({exc})") from exc
        if not all(np.isfinite(v).all() for v in (xs, re, im)):
            raise ProblemError(f"{where}: expected finite table x/re/im values")
        if xs.ndim != 1 or xs.shape != re.shape or xs.shape != im.shape or xs.size < 2:
            raise ProblemError(f"{where}: table needs matching 1-d x/re/im with >= 2 samples")
        if np.any(np.diff(xs) <= 0):
            raise ProblemError(f"{where}: table x values must be strictly increasing")
        imag = im if np.any(im != 0.0) else None
        return lambda x: _table(x, xs, re, imag)
    raise ProblemError(f"{where}: unsupported coefficient node {node!r}")


def _parse_number(value, where: str, cast=float, cap: bool = False):
    """``cast(value)``, refusing non-numbers, booleans, NaN, infinities and, for ``int``, fractions.

    With ``cap`` the number is a section order: :func:`_check_section_size`
    sees it as written, before the finiteness and integer checks.
    """
    if isinstance(value, bool):
        raise ProblemError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemError(f"{where}: expected a number, got {value!r}") from exc
    if cap:
        _check_section_size(value if isinstance(value, (int, float)) else number, where)
    if not math.isfinite(number):
        raise ProblemError(f"{where}: expected a finite number, got {value!r}")
    if cast is int and not number.is_integer():
        raise ProblemError(f"{where}: expected an integer, got {value!r}")
    return value if cast is int and isinstance(value, int) else cast(number)


def _parse_list(value, where: str, cast=float, cap: bool = False) -> tuple:
    """``value`` as a tuple of :func:`_parse_number` entries, refusing anything but a list."""
    entries = enumerate(_parse_as(value, where, list))
    return tuple(_parse_number(v, f"{where}[{j}]", cast, cap) for j, v in entries)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def _parse_as(value, where: str, kind: type):
    """``value``, refusing anything but a JSON value of type ``kind``."""
    if not isinstance(value, kind):
        raise ProblemError(f"{where}: expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _parse_complex(node, where: str) -> complex:
    """A number or an [re, im] pair."""
    if isinstance(node, list) and len(node) == 2:
        return complex(*_parse_list(node, where))
    return complex(_parse_number(node, where))


def _parse_rect(node, where: str):
    """[re_min, re_max, im_min, im_max] as a tuple of floats; None stays None."""
    if node is None:
        return None
    rect = _parse_list(node, where)
    if len(rect) != 4:
        raise ProblemError(f"{where}: expected [re_min, re_max, im_min, im_max], got {node!r}")
    return rect


# ------------------------------- problem building --------------------------------


@dataclass
class Problem:
    """Parsed problem file: a section family plus its analysis block.

    Every ladder of one problem shares ``cache``, the problem's single store
    of sections and spectra keyed by size, so later stages reuse what
    earlier ones computed.  :func:`run_problem` drops it for an empty one
    once no remaining stage reads a ladder.
    """

    kind: str
    name: str
    analysis: list = field(default_factory=list)
    spec: om.OperatorSpec | None = None
    sl: dz.SLProblem | None = None
    sl_matrix: dz.SLMatrixProblem | None = None
    schrodinger: dz.SchrodingerProblem | None = None
    grid_m: int = 0
    #: the order of every section of an sl, sl_matrix or schrodinger problem, as capped; 0 on a
    #: Galerkin problem, whose stages name their own sizes
    order: int = 0
    cache: ra.SectionCache = field(default_factory=ra.SectionCache, repr=False)

    @property
    def ladder_length(self) -> int | None:
        """The number of truncations (``a_n`` or ``L_n``); None on a Galerkin problem, which has no ladder."""
        model = self.sl or self.sl_matrix or self.schrodinger
        return None if model is None else model.ladder_length

    def default_sizes(self, where: str) -> tuple:
        """The whole ladder; Galerkin problems have none, so ``where`` must name its sizes."""
        if self.ladder_length is None:
            raise ProblemError(f"{where}: {self.kind} problems need explicit section sizes")
        return tuple(range(1, self.ladder_length + 1))

    def ladder(self, sizes, label: str | None = None) -> ra.SectionLadder:
        """A view of the problem's sections at ``sizes``, backed by ``cache``."""
        if self.kind in GALERKIN_KINDS:
            kind, provider = "galerkin", lambda k: om.truncate(self.spec, k)
        elif self.kind == "sl":
            kind, provider = "interval", lambda n: dz.sl_assemble(self.sl, n, self.grid_m)
        elif self.kind == "sl_matrix":
            kind, provider = "interval2x2", lambda n: dz.sl_block_assemble(self.sl_matrix, n, self.grid_m)
        else:
            kind, provider = "domain", lambda n: dz.schrodinger_assemble(self.schrodinger, n, self.grid_m)
        return ra.SectionLadder(label or f"{self.name}:{kind}", tuple(sizes), provider, self.cache)


def _check_section_size(n, where: str) -> None:
    """Refuse a section of order n whose dense complex128 array exceeds ``MAX_SECTION_BYTES``."""
    n = max(n, 0)
    nbytes = 16 * n * n  # a float n overflows to inf here, where n ** 2 would raise
    if nbytes > MAX_SECTION_BYTES:
        raise ProblemError(
            f"{where}: a section of order {n} needs {nbytes} bytes as a dense complex128 "
            f"array, above the cap of {MAX_SECTION_BYTES} bytes"
        )


def _parse_grid_m(doc: dict, default: int, least: int) -> int:
    """The problem's ``m``, refused below the ``least`` grid cells its assembly needs."""
    m = _parse_number(doc.get("m", default), "m", int)
    if m < least:
        raise ProblemError(f"m: expected at least {least} grid cells, got {m!r}")
    return m


def _check_ladder(values: tuple, where: str, top: int | None = None) -> None:
    """Refuse ``values`` unless they increase strictly from at least 1 (to at most ``top``, if given)."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ProblemError(f"{where}: expected strictly increasing values, got {list(values)}")
    if values and values[0] < 1:
        raise ProblemError(f"{where}: expected values of at least 1, got {values[0]!r}")
    if values and top is not None and values[-1] > top:
        raise ProblemError(f"{where}: expected values of at most the ladder length {top}, got {values[-1]!r}")


def _parse_sl_component(node: dict, a: float, b: float, a_n, name: str, key: str | None = None) -> dz.SLProblem:
    """The SL problem of ``node``: the whole file, or its ``tau1``/``tau2`` object ``key``.

    A field error names the field's path (``q``, ``tau1.beta``); an error
    of the constructor is prefixed with ``key``, or ``sl``.
    """
    path = f"{key}." if key else ""
    fields = dict(
        p=parse_coefficient(node.get("p", 1.0), f"{path}p"),
        q=parse_coefficient(node.get("q", 0.0), f"{path}q"),
        beta=_parse_number(node.get("beta", 0.0), f"{path}beta"),
        p_min=_parse_number(node.get("p_min", 1.0), f"{path}p_min"),
        q_min=_parse_number(node.get("q_min", 0.0), f"{path}q_min"),
    )
    try:
        return dz.SLProblem(name=name, a=a, b=b, a_n=a_n, **fields)
    except ValueError as exc:
        raise ProblemError(f"{key or 'sl'}: {exc}") from exc


def parse_problem(doc: dict, name_hint: str = "problem") -> Problem:
    if not isinstance(doc, dict):
        raise ProblemError("problem file must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ProblemError(f"kind must be one of {KINDS}, got {kind!r}")
    name = str(doc.get("name", name_hint))
    analysis = doc.get("analysis", [])
    if not isinstance(analysis, list):
        raise ProblemError("analysis must be a list of stages")
    prob = Problem(kind=kind, name=name)

    if kind == "jacobi":
        prob.spec = om.jacobi_spec()
    elif kind == "upper_triangular":
        prob.spec = om.upper_triangular_spec()
    elif kind == "custom_banded":
        table = doc.get("table")
        if table is None:
            raise ProblemError("custom_banded needs a 'table'")
        try:
            prob.spec = om.custom_banded_spec(table, tail=doc.get("tail", "zero"), name=name)
        except (TypeError, ValueError) as exc:  # numpy raises TypeError on a non-numeric entry
            raise ProblemError(f"table: {exc}") from exc
    elif kind == "sl":
        a, b = _parse_number(doc.get("a", 0.0), "a"), _parse_number(doc.get("b", 1.0), "b")
        prob.sl = _parse_sl_component(doc, a, b, _parse_list(doc.get("a_n", []), "a_n"), name)
        prob.grid_m = _parse_grid_m(doc, 500, 2)
        prob.order = prob.sl.unknowns(prob.grid_m)
    elif kind == "sl_matrix":
        a, b = _parse_number(doc.get("a", 0.0), "a"), _parse_number(doc.get("b", 1.0), "b")
        a_n = _parse_list(doc.get("a_n", []), "a_n")
        tau1, tau2 = (
            _parse_sl_component(_parse_as(doc.get(key, {}), key, dict), a, b, a_n, f"{name}.{key}", key)
            for key in ("tau1", "tau2")
        )
        sup = _parse_as(doc.get("sup_norms", {}), "sup_norms", dict)
        fields = dict(
            gamma1=_parse_complex(doc.get("gamma1", 1.0), "gamma1"),
            gamma2=_parse_complex(doc.get("gamma2", 1.0), "gamma2"),
            **{key: parse_coefficient(doc.get(key, 0.0), key) for key in "stuv"},
            **{f"sup_{key}": _parse_number(sup.get(key, 0.0), f"sup_norms.{key}") for key in "stuv"},
        )
        try:
            prob.sl_matrix = dz.SLMatrixProblem(name=name, tau1=tau1, tau2=tau2, **fields)
        except ValueError as exc:
            raise ProblemError(f"sl_matrix: {exc}") from exc
        prob.grid_m = _parse_grid_m(doc, 300, 2)
        prob.order = 2 * prob.sl_matrix.tau1.unknowns(prob.grid_m)
    else:  # schrodinger
        consts = _parse_as(doc.get("constants", {}), "constants", dict)
        # an absent (or null) constant is fitted
        declared = {
            key: _parse_number(consts[key], f"constants.{key}")
            for key in ("a_grad", "b_grad", "a_r", "b_r")
            if consts.get(key) is not None
        }
        fields = {key: parse_coefficient(doc.get(key, 0.0), key) for key in "pqr"}
        half_widths = _parse_list(doc.get("L_n", []), "L_n")
        try:
            prob.schrodinger = dz.SchrodingerProblem(name=name, L_n=half_widths, **fields, **declared)
        except ValueError as exc:
            raise ProblemError(f"schrodinger: {exc}") from exc
        prob.grid_m = _parse_grid_m(doc, 800, 4)
        prob.order = prob.grid_m - 1
    _check_section_size(prob.order, "m")
    prob.analysis = [_parse_stage(prob, stage, f"analysis[{i}]") for i, stage in enumerate(analysis)]
    return prob


def _parse_stage(prob: Problem, stage, where: str) -> dict:
    """``stage`` with every field its op reads typed and defaulted: the one stage schema.

    The runners read these fields and neither cast nor range-check them.  On
    Galerkin problems each section size meets :func:`_check_section_size` as
    written, before any other check of that field.  Every ladder, and a
    pseudo stage's ``size``, is then refused unless it increases strictly
    from at least 1 to at most the problem's ladder length, if it has one
    (:func:`_check_ladder`).  ``order`` is the largest section order the
    stage builds: the problem's on an sl, sl_matrix or schrodinger problem,
    else the largest size the stage names (on a verify stage, the last cut
    of each check that splits and each band_case scan).  A classify stage
    is refused with fewer than 2 certified sizes, the fewest its trajectories
    match, or with a ``lambda`` and fewer than ``ra.PROBE_MIN_SIZES``, the
    fewest its region probe reads.
    """
    if not isinstance(stage, dict) or "op" not in stage:
        raise ProblemError(f"{where}: each stage needs an 'op' field")
    op = stage["op"]
    if not isinstance(op, str) or op not in STAGES:
        raise ProblemError(f"{where}: unknown op {op!r}")
    cap = prob.kind in GALERKIN_KINDS
    read = lambda key, parse, default, *args: parse(stage.get(key, default), f"{where}.{key}", *args)
    largest = lambda *orders: prob.order or max(orders, default=0)

    def sizes(key):
        value = read(key, _parse_list, [], int, cap)
        _check_ladder(value, f"{where}.{key}", prob.ladder_length)
        return value

    def above(key, low, default, *args, most=math.inf):  # refused here, not later as a stage error
        value = read(key, _parse_number, default, *args)
        if not value > low:
            raise ProblemError(f"{where}.{key}: expected a value above {low}, got {value!r}")
        if value > most:
            raise ProblemError(f"{where}.{key}: expected a value of at most {most}, got {value!r}")
        return value

    if op == "spectra":
        window = read("window", _parse_rect, None)
        ladder = sizes("sizes") or prob.default_sizes(where)
        return {"op": op, "sizes": ladder, "window": window, "order": largest(*ladder)}
    if op == "pseudo":
        size = read("size", _parse_number, None, int, cap) if "size" in stage else None
        rect = read("rect", _parse_rect, None)
        if size is None or rect is None:
            raise ProblemError(f"{where}: pseudo stage needs 'size' and 'rect'")
        if not all(0.0 < width < math.inf for width in (rect[1] - rect[0], rect[3] - rect[2])):
            raise ProblemError(f"{where}.rect: expected re_min < re_max and im_min < im_max, with finite "
                               f"widths, got {list(rect)}")
        _check_ladder((size,), f"{where}.size", prob.ladder_length)
        nx, ny = (above(key, 1, 40, int) for key in ("nx", "ny"))
        if nx * ny > MAX_SECTION_BYTES // 80:  # per point, a float64 and a pseudo.csv row in one buffer
            raise ProblemError(f"{where}.nx, {where}.ny: a lattice of {nx} x {ny} points is above "
                               f"the cap of {MAX_SECTION_BYTES // 80} points")
        return {"op": op, "size": size, "rect": rect, "nx": nx, "ny": ny, "order": largest(size)}
    if op == "classify":
        uncertified = sizes("uncertified_sizes")
        certified = sizes("certified_sizes") or sizes("sizes") or prob.default_sizes(where)
        parsed = {
            "op": op,
            "certified_sizes": certified,
            "uncertified_sizes": uncertified,
            "certified_label": read("certified_label", _parse_as, "certified", str),
            "tol": above("tol", 0, 1e-6),
            "window": read("window", _parse_rect, None),
            "quadrature_points": above(
                "quadrature_points", 15, ra.DEFAULT_QUADRATURE, int, most=MAX_QUADRATURE_POINTS
            ),
            "lambda": None if stage.get("lambda") is None else read("lambda", _parse_complex, None),
            "order": largest(*certified, *uncertified),
        }
        # trajectories match two spectra at least, and a lambda's region probe needs a longer ladder
        least, why = (ra.PROBE_MIN_SIZES, " with a 'lambda'") if parsed["lambda"] is not None else (2, "")
        if len(certified) < least:
            key = "certified_sizes" if stage.get("certified_sizes") else "sizes"
            raise ProblemError(
                f"{where}.{key}: expected at least {least} certified sizes on a classify stage{why}, "
                f"got {list(certified)}"
            )
        return parsed
    checks = [_parse_check(prob, c, f"{where}.checks[{j}]", cap)
              for j, c in enumerate(read("checks", _parse_as, [], list))]
    orders = (n for c in checks for n in (*c["cuts"], c["scan"] if c["check"] == "band_case" else 0))
    return {"op": op, "checks": checks, "order": largest(*orders)}


def _parse_check(prob: Problem, check, where: str, cap: bool) -> dict:
    """One verify check, typed and defaulted like a stage, its section sizes capped first, then range-checked."""
    check = _parse_as(check, where, dict)
    read = lambda key, parse, default, *args: parse(check.get(key, default), f"{where}.{key}", *args)
    cuts, sizes = read("cuts", _parse_list, [], int, cap), read("sizes", _parse_list, [], int, cap)
    scan = read("scan", _parse_number, 100, int, cap)
    _check_ladder(cuts, f"{where}.cuts")
    _check_ladder(sizes, f"{where}.sizes", prob.ladder_length)
    if scan < 2:
        raise ProblemError(f"{where}.scan: expected a value of at least 2, got {scan!r}")
    kind = check.get("check")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise ProblemError(f"{where}: unknown check {kind!r}; checks are {sorted(CHECKS)}")
    if prob.kind not in CHECKS[kind]:
        raise ProblemError(f"{where}: the {kind} check needs a {' or '.join(CHECKS[kind])} problem")
    if kind in ("relative_bound", "uniform_decay") and not cuts:
        raise ProblemError(f"{where}: {kind} needs block 'cuts'")
    if kind == "relative_bound" and sizes and sizes[-1] > cuts[-1]:
        raise ProblemError(f"{where}.sizes: expected values of at most the last cut {cuts[-1]}, got {sizes[-1]!r}")
    if not sizes and kind in ("relative_bound", "sl_matrix"):
        sizes = cuts if kind == "relative_bound" else prob.default_sizes(where)
    return {
        "check": kind,
        "lambda": read("lambda", _parse_complex, 0.0),
        "cuts": cuts,
        "sizes": sizes,
        "scan": scan,
        "normalize": read("normalize", _parse_as, False, bool),
        "tag": read("tag", _parse_as, "Galerkin" if kind == "uniform_decay" else "PerturbGSR", str),
    }


# --------------------------------- stage runners ---------------------------------


def _unique_name(name: str, used: set) -> str:
    base, ext = name.split(".")
    k = 2
    while name in used:
        name = f"{base}_{k}.{ext}"
        k += 1
    used.add(name)
    return name


def _run_spectra(prob: Problem, stage: dict, path: Path, ledger: numerics.Ledger) -> dict:
    ladder, window = prob.ladder(stage["sizes"]), stage["window"]
    lines = ["n,re,im,residual"]
    for size in ladder.sizes:
        s = st.SpectrumResult.from_eig(size, ladder.spectrum(size, window), window, residuals=True)
        for lam, res in zip(s.eigenvalues, s.residuals):
            lines.append(f"{_fmt(size)},{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(res)}")
    _atomic_write(path, "\n".join(lines) + "\n")
    return {}


def _run_pseudo(prob: Problem, stage: dict, path: Path, ledger: numerics.Ledger) -> dict:
    size = stage["size"]
    matrix = prob.ladder([size]).matrix(size)
    grid = ra.pseudospectrum_grid(matrix, stage["rect"], stage["nx"], stage["ny"])
    buf = io.StringIO()
    grid.write_csv(buf)
    _atomic_write(path, buf.getvalue())
    counts = ledger.counts
    return {
        "sigma_min_routes": dict(counts["sigma_min_routes"]),
        "dense_fallbacks": counts["dense_fallbacks"].total(),
        "lanczos_steps": {route: counts["lanczos_steps"][route] for route in ("banded", "triangular")},
    }


def _run_classify(prob: Problem, stage: dict, path: Path, ledger: numerics.Ledger) -> dict:
    certified = prob.ladder(stage["certified_sizes"], label=stage["certified_label"])
    uncertified = None
    if stage["uncertified_sizes"]:
        uncertified = prob.ladder(stage["uncertified_sizes"], label="uncertified")
    tol, quad = stage["tol"], stage["quadrature_points"]
    if stage["lambda"] is not None:
        points = [st.classify_point(stage["lambda"], certified, uncertified, tol=tol, quadrature_points=quad)]
    else:
        points = st.track_and_classify(
            certified, uncertified, window=stage["window"], tol=tol, quadrature_points=quad
        )
    doc = {
        "problem": prob.name,
        "certified_sizes": list(certified.sizes),
        "uncertified_sizes": list(uncertified.sizes) if uncertified else None,
        "tol": tol,
        "candidates": [p.to_dict() for p in points],
    }
    _atomic_write(path, _dump_json(doc))
    ratios = [
        {
            "lambda": [p.value.real, p.value.imag],
            "verdict": p.verdict.value,
            **p.probe.ratios,
            "contours": p.contours,
        }
        for p in points
    ]
    routes = ledger.counts["contour_routes"]
    return {"probe_ratios": ratios, "contour_routes": {route: routes[route] for route in ra.CONTOUR_ROUTES}}


def _verify_checks(prob: Problem, stage: dict) -> list[hc.HypothesisReport]:
    """The stage's reports; :func:`_parse_check` has matched each check to the problem's data."""
    reports: list[hc.HypothesisReport] = []
    for check in stage["checks"]:
        kind, lam, sizes = check["check"], check["lambda"], check["sizes"]
        if kind == "relative_bound":
            split = om.split_blocks(prob.spec, check["cuts"])
            t_secs = [split.diag_section(k) for k in sizes]
            s_secs = [split.coupling_section(k) for k in sizes]
            reports.append(hc.relative_bound(t_secs, s_secs, lam, sizes, tag=check["tag"]))
        elif kind == "uniform_decay":
            split = om.split_blocks(prob.spec, check["cuts"])
            reports.append(hc.uniform_resolvent_decay(list(split.diagonal_blocks), lam, tag=check["tag"]))
        elif kind == "band_case":
            normalize = check["normalize"]
            profile = om.band_profile(
                prob.spec, check["scan"], lam=lam if normalize else None, normalize_by_diag=normalize
            )
            reports.append(hc.banded_case_report(profile))
        elif kind == "sl_coercivity":
            comp = prob.sl or prob.sl_matrix.tau1
            c = hc.sl_coercivity(comp.p_min, comp.q_min, comp.beta)
            reports.append(
                hc.HypothesisReport(
                    theorem="SLMatrix",
                    lam=None,
                    constants={"c_beta": c, "p_min": comp.p_min, "q_min": comp.q_min, "beta": comp.beta},
                    per_size={},
                    verdict=hc.Verdict.PASS if c > 0 else hc.Verdict.INCONCLUSIVE,
                    notes="coercivity constant of the truncated form; sign is diagnostic only",
                )
            )
        elif kind == "sl_matrix":
            mp = prob.sl_matrix
            search = hc.sl_lambda0_search(
                mp.gamma1, mp.gamma2, mp.sup_s, mp.sup_t, mp.sup_u, mp.sup_v
            )
            search.constants["c_beta_1"] = hc.sl_coercivity(mp.tau1.p_min, mp.tau1.q_min, mp.tau1.beta)
            search.constants["c_beta_2"] = hc.sl_coercivity(mp.tau2.p_min, mp.tau2.q_min, mp.tau2.beta)
            reports.append(search)
            if search.verdict is hc.Verdict.PASS:
                a_secs, b_secs, c_secs, d_secs = zip(*(dz.sl_blocks(mp, n, prob.grid_m) for n in sizes))
                reports.append(hc.gamma_product_2x2(a_secs, b_secs, c_secs, d_secs, search.lam, sizes))
        else:  # schrodinger
            reports.append(hc.schrodinger_constants(prob.schrodinger))
    return reports


def _run_verify(prob: Problem, stage: dict, path: Path, ledger: numerics.Ledger) -> dict:
    reports = _verify_checks(prob, stage)
    _atomic_write(path, _dump_json({"problem": prob.name, "reports": [r.to_dict() for r in reports]}))
    routes, pairs = ledger.counts["gamma_routes"], ledger.counts["knob_pairs"]
    return {
        "gamma_routes": {route: routes[route] for route in hc.GAMMA_ROUTES},
        "knob_pairs": {key: pairs[key] for key in hc.KNOB_PAIR_COUNTS},
    }


def run_problem(prob: Problem, out_dir: Path, input_bytes: bytes) -> dict:
    """Execute the analysis block in declaration order; failures don't stop later stages.

    Each op's runner is ``_run_<op>``, looked up when its stage runs.  The
    stages share ``prob.cache``.  It is replaced by an empty one as soon as
    no remaining stage reads a ladder (see ``STAGES``), so a verify stage
    does not keep the sections alive.  Each stage runs in a fresh
    :class:`numerics.Ledger`, which its runner also gets: the one source of
    its entry's counts.  A stage whose largest section order is below
    ``numerics.SERIAL_BLAS_BELOW`` runs with every OpenBLAS pool on one
    thread (:func:`numerics.serial_blas`), and the pools get their counts
    back when it ends.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set = set()
    entries: list[dict] = []
    for i, stage in enumerate(prob.analysis):
        op = stage["op"]
        entry = {"op": op, "status": "ok", "outputs": [], "error": ""}
        start = time.perf_counter()
        name = _unique_name(STAGES[op][0], used)
        serial = stage["order"] < numerics.SERIAL_BLAS_BELOW
        with numerics.Ledger() as ledger, numerics.serial_blas() if serial else contextlib.nullcontext():
            entry["blas_threads"] = numerics.blas_threads()
            try:
                entry.update(globals()[f"_run_{op}"](prob, stage, out_dir / name, ledger), outputs=[name])
            except Exception as exc:  # recorded per stage, run continues
                entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
        counts = ledger.counts
        entry["spectrum_cache"] = {key: counts["spectrum_cache"][key] for key in ("hits", "misses")}
        if STAGES[op][1] == "spectra":
            entry["eig_routes"] = {route: counts["eig_routes"][route] for route in numerics.EIG_ROUTES}
            entry["residuals_computed"] = counts["residuals_computed"].total()
            entry["windowed_checks"] = ledger.records["windowed_checks"]
            entry["contour_guards"] = {key: counts["contour_guards"][key] for key in ra.CONTOUR_GUARDS}
        if not any(STAGES[later["op"]][1] for later in prob.analysis[i + 1 :]):
            prob.cache = ra.SectionCache()
        entry["seconds"] = time.perf_counter() - start
        entries.append(entry)
    report = {
        "tool": "specexact",
        "version": __version__,
        "problem": prob.name,
        "kind": prob.kind,
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
        "stages": entries,
    }
    _atomic_write(out_dir / "report.json", _dump_json(report))
    return report


# ----------------------------------- demos ---------------------------------------


def demo_problem(name: str) -> dict:
    """Baked-in problem documents reproducing the paper-adjacent examples."""
    if name == "jacobi":
        evens = list(range(2, 42, 2))
        odds = list(range(3, 43, 2))
        return {
            "kind": "jacobi",
            "name": "demo-jacobi",
            "analysis": [
                {"op": "spectra", "sizes": list(range(2, 42))},
                {"op": "pseudo", "size": 20, "rect": [-8.0, 8.0, -1.0, 1.0], "nx": 33, "ny": 9},
                {
                    "op": "classify",
                    "certified_sizes": evens,
                    "uncertified_sizes": odds,
                    "lambda": [0.0, 0.0],
                    "tol": 1e-6,
                },
                {
                    "op": "verify",
                    "checks": [
                        {"check": "relative_bound", "lambda": [0.0, 0.0], "cuts": list(range(2, 122, 2))},
                        {"check": "uniform_decay", "lambda": [0.0, 0.0], "cuts": list(range(2, 122, 2))},
                        {"check": "band_case", "scan": 50},
                    ],
                },
            ],
        }
    if name == "upper_triangular":
        return {
            "kind": "upper_triangular",
            "name": "demo-upper-triangular",
            "analysis": [
                {"op": "spectra", "sizes": [4, 6, 8]},
                {
                    "op": "verify",
                    "checks": [
                        {"check": "band_case", "lambda": [0.0, 50.0], "scan": 200, "normalize": True},
                        {
                            "check": "relative_bound",
                            "lambda": [0.0, 50.0],
                            "cuts": list(range(1, 201)),
                            "sizes": [50, 100, 150, 200],
                        },
                        {"check": "uniform_decay", "lambda": [0.0, 50.0], "cuts": list(range(1, 41))},
                    ],
                },
            ],
        }
    if name == "sl_matrix":
        return {
            "kind": "sl_matrix",
            "name": "demo-sl-matrix",
            "a": 0.0,
            "b": math.pi,
            "a_n": [1.0 / n for n in range(10, 101, 10)],
            "m": 300,
            "tau1": {"p": 1.0, "q": 0.0, "beta": 0.0, "p_min": 1.0, "q_min": 0.0},
            "tau2": {"p": 1.0, "q": 0.0, "beta": 0.0, "p_min": 1.0, "q_min": 0.0},
            "gamma1": [1.0, 0.0],
            "gamma2": [1.0, 0.0],
            "s": 0.5,
            "t": 0.0,
            "u": 0.5,
            "v": 0.0,
            "sup_norms": {"s": 0.5, "t": 0.0, "u": 0.5, "v": 0.0},
            "analysis": [
                {"op": "spectra", "window": [-5.0, 20.0, -5.0, 5.0]},
                {"op": "verify", "checks": [{"check": "sl_matrix"}]},
            ],
        }
    if name == "oscillator":
        return {
            "kind": "schrodinger",
            "name": "demo-oscillator",
            "p": 0.0,
            "q": "x^2",
            "r": 0.0,
            "L_n": [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            "m": 400,
            "analysis": [
                {"op": "spectra", "window": [0.0, 8.5, -1.0, 1.0]},
                {"op": "classify", "window": [0.0, 8.0, -1.0, 1.0], "tol": 2e-3},
                {"op": "verify", "checks": [{"check": "schrodinger"}]},
            ],
        }
    if name == "complex_oscillator":
        return {
            "kind": "schrodinger",
            "name": "demo-complex-oscillator",
            "p": 0.0,
            "q": "i*x^2",
            "r": 0.0,
            "L_n": [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0],
            "m": 300,
            "analysis": [
                {"op": "spectra", "window": [-0.5, 4.0, -0.5, 4.0]},
                {"op": "classify", "window": [0.0, 1.5, 0.0, 1.5], "tol": 5e-3},
                {"op": "verify", "checks": [{"check": "schrodinger"}]},
            ],
        }
    raise ProblemError(f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}")


def _demo_summary(name: str, out_dir: Path, report: dict) -> list[str]:
    """The verdict lines of the outputs that ``report``'s finished stages wrote, never another run's files."""
    lines = []
    written = {s["op"]: out_dir / out for s in report["stages"] if s["status"] == "ok" for out in s["outputs"]}
    if "classify" in written:
        doc = json.loads(written["classify"].read_text())
        for cand in doc["candidates"]:
            lam = complex(cand["lambda"][0], cand["lambda"][1])
            verdict = cand["verdict"]
            if verdict == "TrueEigenvalue":
                lines.append(f"lambda = {lam:.6g}: TrueEigenvalue({cand['multiplicity']})")
            elif verdict == "Spurious":
                if name == "jacobi":
                    lines.append(
                        "lambda=0: Spurious (pollution of odd sections; even sections bounded below)"
                    )
                else:
                    lines.append(f"lambda = {lam:.6g}: Spurious ({cand['note']})")
            else:
                lines.append(f"lambda = {lam:.6g}: Undecided ({cand['note']})")
    if "verify" in written:
        doc = json.loads(written["verify"].read_text())
        for rep in doc["reports"]:
            consts = rep["constants"]
            if rep["theorem"] == "BandedCase":
                lam = rep.get("lambda")
                at = f" at lambda = {complex(lam[0], lam[1]):g}" if lam else ""
                lines.append(f"band case ({consts['hint']}) {rep['verdict']}{at}")
                if name == "upper_triangular" and rep.get("per_size", {}).get("col_envelope"):
                    dj = rep["per_size"]["col_envelope"][:8]
                    lines.append("  D_j profile head: " + ", ".join(f"{v:.3e}" for v in dj))
            elif rep["theorem"] in ("PerturbGSR", "PerturbDiscComp"):
                lines.append(
                    f"relative bound {rep['verdict']}: sup gamma_n = {consts['gamma_sup']:.6g}"
                )
            elif rep["theorem"] in ("Galerkin", "DiagonalDecay"):
                lines.append(
                    f"uniform decay {rep['verdict']}: tail min {consts['tail_min']:.3e}"
                )
            elif rep["theorem"] == "SLMatrix" and "eps" in consts:
                lam = rep.get("lambda")
                lam_s = f"{complex(lam[0], lam[1]):.6g}" if lam else "-"
                lines.append(
                    f"lambda0 search {rep['verdict']}: lambda0 = {lam_s}, eps = {consts['eps']}, "
                    f"relaxed product = {consts['product']:.6g}"
                )
            elif rep["theorem"] == "TwoByTwo":
                lines.append(
                    f"gamma^AC gamma^DB {rep['verdict']}: product = {consts['product']:.6g}"
                )
            elif rep["theorem"] == "Schrodinger":
                if rep["verdict"] == "PassEvidence":
                    lines.append(
                        f"schrodinger constants PassEvidence: lambda0 = {consts['lambda0']:g}, "
                        f"gamma = {consts['gamma']:.6g}"
                    )
                else:
                    lines.append("schrodinger constants FailEvidence")
    return lines


# ----------------------------------- CLI glue ------------------------------------


def _parse_sizes(text: str) -> list:
    """argparse ``type=`` of a size list such as ``2:40:2`` or ``3,5,7``, capped before it is listed."""
    largest = math.isqrt(MAX_SECTION_BYTES // 16)  # the largest section order the cap allows
    out = []
    try:
        for chunk in text.split(","):
            if ":" in chunk:
                parts = [int(v) for v in chunk.split(":")]
                start, stop = parts[0], parts[1]
                step = parts[2] if len(parts) > 2 else 1
                sizes = range(start, stop + 1, step)
                if sizes and max(sizes[0], sizes[-1]) > largest:
                    raise argparse.ArgumentTypeError(f"{chunk!r}: a size above the section cap {largest}")
            else:
                sizes = [int(chunk)]
            if len(out) + len(sizes) > largest:
                raise argparse.ArgumentTypeError(f"{text!r}: more than {largest} sizes")
            out.extend(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected sizes such as 2:40:2 or 3,5,7, got {text!r}") from exc
    return out


def _numbers(cast, counts: tuple, form: str):
    """argparse ``type=`` of ``len in counts`` comma-separated numbers, e.g. ``form`` 'nx,ny'."""

    def parse(text: str) -> list:
        try:
            values = [cast(v) for v in text.split(",")]
        except ValueError:
            values = []
        if len(values) not in counts:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return values

    return parse


def _load_problem(path: str) -> tuple[Problem, bytes]:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ProblemError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer literal past Python's digit limit
        raise ProblemError(f"{path}: {exc}") from exc
    return parse_problem(doc, name_hint=p.stem), raw


def _check_threads(args) -> None:
    """Refuse ``--threads``, else ``$SPECEXACT_THREADS``, above ``MAX_THREADS``; no count changes a run."""
    if args.threads is not None:
        threads, where = args.threads, "--threads"
    else:
        try:
            threads = int(os.environ.get(ENV_THREADS) or 1)
        except ValueError:
            threads = 1
        where = f"${ENV_THREADS}"
    if threads > MAX_THREADS:
        raise ProblemError(f"{where}: at most {MAX_THREADS} threads, got {threads}")


def _exit_code(report: dict) -> int:
    return 0 if all(s["status"] == "ok" for s in report["stages"]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specexact",
        description="Finite-section / domain-truncation spectral analysis with "
        "pollution detection and hypothesis checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("problem", help="path to a JSON problem file")
        sp.add_argument("--out", default="specexact-out", help="output directory")

    add_common(sub.add_parser("run", help="run the problem file's analysis block"))
    p_demo = sub.add_parser("demo", help="run a baked-in demo and print a verdict summary")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--out", default=None, help="output directory (default demo-<name>)")

    p_spectra = sub.add_parser("spectra", help="eigenvalues along a ladder -> spectra.csv")
    add_common(p_spectra)
    p_spectra.add_argument("--sizes", type=_parse_sizes, default=None, help="e.g. 2:40:2 or 3,5,7")

    p_pseudo = sub.add_parser("pseudo", help="resolvent-norm grid -> pseudo.csv")
    add_common(p_pseudo)
    p_pseudo.add_argument("--size", type=int, required=True)
    p_pseudo.add_argument("--rect", type=_numbers(float, (4,), "re_min,re_max,im_min,im_max"),
                          required=True, help="re_min,re_max,im_min,im_max")
    p_pseudo.add_argument("--grid", type=_numbers(int, (2,), "nx,ny"), default="40,40", help="nx,ny")

    p_classify = sub.add_parser("classify", help="track limits and classify them -> classify.json")
    add_common(p_classify)
    p_classify.add_argument("--sizes", type=_parse_sizes, default=None, help="certified ladder sizes")
    p_classify.add_argument("--uncertified-sizes", type=_parse_sizes, default=None)
    p_classify.add_argument("--lambda", dest="lam", type=_numbers(float, (1, 2), "re or re,im"),
                            default=None, help="re,im of one point")
    p_classify.add_argument("--tol", type=float, default=1e-6)

    p_verify = sub.add_parser("verify", help="run the problem's verify checks -> hypothesis.json")
    add_common(p_verify)
    for sp in sub.choices.values():
        sp.add_argument("--threads", type=int, default=None,
                        help=f"accepted for compatibility and changes nothing (default ${ENV_THREADS}); "
                        f"a value above {MAX_THREADS} exits 2")

    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            doc = demo_problem(args.name)
            prob = parse_problem(doc, name_hint=args.name)
            out_dir = Path(args.out or f"demo-{args.name}")
            raw = _dump_json(doc).encode()
            _check_threads(args)
            report = run_problem(prob, out_dir, raw)
            for line in _demo_summary(args.name, out_dir, report):
                print(line)
            print(f"outputs in {out_dir}")
            return _exit_code(report)

        prob, raw = _load_problem(args.problem)
        if args.command == "verify":
            prob.analysis = [s for s in prob.analysis if s["op"] == "verify"]
            if not prob.analysis:
                raise ProblemError("problem file has no verify stage")
        elif args.command != "run":  # a stage from argv, parsed like one from the file
            stage = {"op": args.command}
            if args.command == "spectra":
                stage.update(sizes=args.sizes or [])
            elif args.command == "pseudo":
                stage.update(size=args.size, rect=args.rect, nx=args.grid[0], ny=args.grid[1])
            else:
                stage.update(tol=args.tol, certified_sizes=args.sizes or [],
                             uncertified_sizes=args.uncertified_sizes or [])
                if args.lam:
                    stage["lambda"] = args.lam if len(args.lam) == 2 else args.lam[0]
            prob.analysis = [_parse_stage(prob, stage, args.command)]
        _check_threads(args)
        report = run_problem(prob, Path(args.out), raw)
        for s in report["stages"]:
            status = s["status"] + ("" if s["status"] == "ok" else f" ({s['error']})")
            print(f"[{s['op']}] {status} -> {', '.join(s['outputs']) or '-'}")
        return _exit_code(report)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
