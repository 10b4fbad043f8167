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
               status, outputs, error, seconds, spectrum_cache}]}; the only
               file with timing.  ``spectrum_cache`` is {hits, misses}: the
               stage's spectrum requests answered from the problem's cache
               and by an eigensolve.  Spectra and classify stages also
               record ``eig_routes`` (the stage's eigensolves per route:
               tridiagonal, hermitian, general) and ``residuals_computed``
               (residuals the stage computed: n per hermitian or general
               eigensolve, one per written row of a tridiagonal section).
               A finished classify stage records ``probe_ratios``, one entry
               per candidate: its lambda and verdict and the four ratios its
               region probe was judged by (``RegionProbe.ratios``).  A
               finished pseudo stage records ``sigma_min_routes`` (lattice
               points per route: dense, tridiagonal, banded, triangular) and
               ``dense_fallbacks`` (banded and triangular points redone by
               dense SVD).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
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
#: the stages that read the problem's sections through a ladder
LADDER_OPS = ("spectra", "pseudo", "classify")
ENV_THREADS = "SPECEXACT_THREADS"
#: the largest section a problem may ask for: its dense complex128 array,
#: 16 n^2 bytes, must fit in 1 GiB, so n <= 8192
MAX_SECTION_BYTES = 1 << 30


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

_NAMED_COEFFS = {
    "x": lambda x: x,
    "x^2": lambda x: x * x,
    "i*x^2": lambda x: 1j * x * x,
    "exp(-x^2)": lambda x: math.exp(-x * x),
}


def parse_coefficient(node, where: str):
    """Whitelisted coefficient: number, [re, im], named built-in, or sample table."""
    if isinstance(node, bool):
        raise ProblemError(f"{where}: booleans are not coefficients")
    if isinstance(node, (int, float)):
        c = float(node)
        return lambda x, c=c: c
    if isinstance(node, list) and len(node) == 2 and all(isinstance(v, (int, float)) for v in node):
        c = complex(node[0], node[1])
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemError(f"{where}: malformed table ({exc})") from exc
        if xs.ndim != 1 or xs.shape != re.shape or xs.shape != im.shape or xs.size < 2:
            raise ProblemError(f"{where}: table needs matching 1-d x/re/im with >= 2 samples")
        if np.any(np.diff(xs) <= 0):
            raise ProblemError(f"{where}: table x values must be strictly increasing")
        if np.any(im != 0.0):
            return lambda x: complex(np.interp(x, xs, re), np.interp(x, xs, im))
        return lambda x: float(np.interp(x, xs, re))
    raise ProblemError(f"{where}: unsupported coefficient node {node!r}")


def _parse_complex(node, where: str) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    if isinstance(node, list) and len(node) == 2:
        return complex(float(node[0]), float(node[1]))
    raise ProblemError(f"{where}: expected a number or [re, im] pair")


def _parse_number(doc: dict, key: str, default, cast=float):
    """``cast(doc[key])`` (or of ``default``), refusing non-numeric values and booleans."""
    value = doc.get(key, default)
    if isinstance(value, bool):
        raise ProblemError(f"{key}: expected a number, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemError(f"{key}: expected a number, got {value!r}") from exc


def _parse_list(doc: dict, key: str) -> tuple:
    """``doc[key]`` (default empty) as a tuple of floats, refusing anything but a list of numbers."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ProblemError(f"{key}: expected a list, got {value!r}")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"{key}: expected a list of numbers, got {value!r}") from exc


def _parse_object(doc: dict, key: str) -> dict:
    """``doc[key]`` (default empty), refusing anything but a JSON object."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ProblemError(f"{key}: expected an object, got {value!r}")
    return value


def _parse_window(node, where: str):
    if node is None:
        return None
    if not (isinstance(node, list) and len(node) == 4):
        raise ProblemError(f"{where}: window must be [re_min, re_max, im_min, im_max]")
    return tuple(float(v) for v in node)


# ------------------------------- problem building --------------------------------


@dataclass
class Problem:
    """Parsed problem file: a section family plus its analysis block.

    Every ladder of one problem shares ``cache``, the problem's single store
    of sections and spectra keyed by size, so later stages reuse what
    earlier ones computed.  :func:`run_problem` clears it once no remaining
    stage reads a ladder.
    """

    kind: str
    name: str
    analysis: list
    raw: dict
    spec: om.OperatorSpec | None = None
    sl: dz.SLProblem | None = None
    sl_matrix: dz.SLMatrixProblem | None = None
    schrodinger: dz.SchrodingerProblem | None = None
    grid_m: int = 0
    cache: ra.SectionCache = field(default_factory=ra.SectionCache, repr=False)

    def default_sizes(self) -> list:
        if self.kind in GALERKIN_KINDS:
            raise ProblemError(f"{self.kind} problems need explicit section sizes")
        n = (self.sl or self.sl_matrix or self.schrodinger).ladder_length
        return list(range(1, n + 1))

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


def _check_galerkin_sizes(prob: Problem) -> None:
    """Apply :func:`_check_section_size` to a Galerkin problem's ladder sizes, cuts and scans.

    Values that are not numbers are left to the stage that reads them.
    """
    if prob.kind not in GALERKIN_KINDS:
        return
    for i, stage in enumerate(prob.analysis):
        checks = stage.get("checks")
        for node in [stage, *(checks if isinstance(checks, list) else [])]:
            for key in ("size", "sizes", "certified_sizes", "uncertified_sizes", "cuts", "scan"):
                value = node.get(key) if isinstance(node, dict) else None
                for v in value if isinstance(value, list) else [value]:
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        _check_section_size(v, f"analysis[{i}]")


def _parse_sl_component(node: dict, a: float, b: float, a_n, where: str, name: str) -> dz.SLProblem:
    try:
        return dz.SLProblem(
            name=name,
            p=parse_coefficient(node.get("p", 1.0), f"{where}.p"),
            q=parse_coefficient(node.get("q", 0.0), f"{where}.q"),
            a=a,
            b=b,
            beta=_parse_number(node, "beta", 0.0),
            a_n=a_n,
            p_min=_parse_number(node, "p_min", 1.0),
            q_min=_parse_number(node, "q_min", 0.0),
        )
    except ValueError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


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
    for i, stage in enumerate(analysis):
        if not isinstance(stage, dict) or "op" not in stage:
            raise ProblemError(f"analysis[{i}]: each stage needs an 'op' field")
        if stage["op"] not in ("spectra", "pseudo", "classify", "verify"):
            raise ProblemError(f"analysis[{i}]: unknown op {stage['op']!r}")
    prob = Problem(kind=kind, name=name, analysis=analysis, raw=doc)

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
        except ValueError as exc:
            raise ProblemError(f"table: {exc}") from exc
    elif kind == "sl":
        a, b = _parse_number(doc, "a", 0.0), _parse_number(doc, "b", 1.0)
        prob.sl = _parse_sl_component(doc, a, b, _parse_list(doc, "a_n"), "sl", name)
        prob.grid_m = _parse_number(doc, "m", 500, int)
        _check_section_size(prob.sl.unknowns(prob.grid_m), "m")
    elif kind == "sl_matrix":
        a, b = _parse_number(doc, "a", 0.0), _parse_number(doc, "b", 1.0)
        a_n = _parse_list(doc, "a_n")
        tau1 = _parse_sl_component(_parse_object(doc, "tau1"), a, b, a_n, "tau1", f"{name}.tau1")
        tau2 = _parse_sl_component(_parse_object(doc, "tau2"), a, b, a_n, "tau2", f"{name}.tau2")
        sup = _parse_object(doc, "sup_norms")
        try:
            prob.sl_matrix = dz.SLMatrixProblem(
                name=name,
                tau1=tau1,
                tau2=tau2,
                gamma1=_parse_complex(doc.get("gamma1", 1.0), "gamma1"),
                gamma2=_parse_complex(doc.get("gamma2", 1.0), "gamma2"),
                s=parse_coefficient(doc.get("s", 0.0), "s"),
                t=parse_coefficient(doc.get("t", 0.0), "t"),
                u=parse_coefficient(doc.get("u", 0.0), "u"),
                v=parse_coefficient(doc.get("v", 0.0), "v"),
                sup_s=_parse_number(sup, "s", 0.0),
                sup_t=_parse_number(sup, "t", 0.0),
                sup_u=_parse_number(sup, "u", 0.0),
                sup_v=_parse_number(sup, "v", 0.0),
            )
        except ValueError as exc:
            raise ProblemError(f"sl_matrix: {exc}") from exc
        prob.grid_m = _parse_number(doc, "m", 300, int)
        _check_section_size(2 * prob.sl_matrix.tau1.unknowns(prob.grid_m), "m")
    else:  # schrodinger
        consts = _parse_object(doc, "constants")
        # an absent (or null) constant is fitted
        declared = {
            key: _parse_number(consts, key, None)
            for key in ("a_grad", "b_grad", "a_r", "b_r")
            if consts.get(key) is not None
        }
        try:
            prob.schrodinger = dz.SchrodingerProblem(
                name=name,
                p=parse_coefficient(doc.get("p", 0.0), "p"),
                q=parse_coefficient(doc.get("q", 0.0), "q"),
                r=parse_coefficient(doc.get("r", 0.0), "r"),
                L_n=_parse_list(doc, "L_n"),
                **declared,
            )
        except ValueError as exc:
            raise ProblemError(f"schrodinger: {exc}") from exc
        prob.grid_m = _parse_number(doc, "m", 800, int)
        _check_section_size(prob.grid_m - 1, "m")
    _check_galerkin_sizes(prob)
    return prob


# --------------------------------- stage runners ---------------------------------


@dataclass
class StageResult:
    op: str
    status: str
    outputs: list = field(default_factory=list)
    error: str = ""
    seconds: float = 0.0
    details: dict = field(default_factory=dict)


def _unique_name(base: str, ext: str, used: set) -> str:
    name = f"{base}.{ext}"
    k = 2
    while name in used:
        name = f"{base}_{k}.{ext}"
        k += 1
    used.add(name)
    return name


def _run_spectra(prob: Problem, stage: dict, out_dir: Path, name: str) -> None:
    sizes = stage.get("sizes") or prob.default_sizes()
    window = _parse_window(stage.get("window"), "spectra.window")
    ladder = prob.ladder(sizes)
    lines = ["n,re,im,residual"]
    for size in ladder.sizes:
        s = st.SpectrumResult.from_eig(size, ladder.spectrum(size), window, residuals=True)
        for lam, res in zip(s.eigenvalues, s.residuals):
            lines.append(f"{_fmt(size)},{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(res)}")
    _atomic_write(out_dir / name, "\n".join(lines) + "\n")


def _run_pseudo(prob: Problem, stage: dict, out_dir: Path, name: str, threads: int) -> dict:
    if "size" not in stage or "rect" not in stage:
        raise ProblemError("pseudo stage needs 'size' and 'rect'")
    size = stage["size"]
    rect = tuple(float(v) for v in stage["rect"])
    nx, ny = int(stage.get("nx", 40)), int(stage.get("ny", 40))
    matrix = prob.ladder([size]).matrix(size)
    grid = ra.pseudospectrum_grid(matrix, rect, nx, ny, threads=threads)
    buf = io.StringIO()
    grid.write_csv(buf)
    _atomic_write(out_dir / name, buf.getvalue())
    return {"sigma_min_routes": grid.routes, "dense_fallbacks": grid.dense_fallbacks}


def _run_classify(prob: Problem, stage: dict, out_dir: Path, name: str) -> dict:
    certified_sizes = stage.get("certified_sizes") or stage.get("sizes") or prob.default_sizes()
    certified = prob.ladder(certified_sizes, label=stage.get("certified_label", "certified"))
    uncertified = None
    if stage.get("uncertified_sizes"):
        uncertified = prob.ladder(stage["uncertified_sizes"], label="uncertified")
    tol = float(stage.get("tol", 1e-6))
    window = _parse_window(stage.get("window"), "classify.window")
    quad = int(stage.get("quadrature_points", ra.DEFAULT_QUADRATURE))
    if stage.get("lambda") is not None:
        lam = _parse_complex(stage["lambda"], "classify.lambda")
        points = [st.classify_point(lam, certified, uncertified, tol=tol, quadrature_points=quad)]
    else:
        points = st.track_and_classify(
            certified, uncertified, window=window, tol=tol, quadrature_points=quad
        )
    doc = {
        "problem": prob.name,
        "certified_sizes": list(certified.sizes),
        "uncertified_sizes": list(uncertified.sizes) if uncertified else None,
        "tol": tol,
        "candidates": [p.to_dict() for p in points],
    }
    _atomic_write(out_dir / name, _dump_json(doc))
    ratios = [
        {"lambda": [p.value.real, p.value.imag], "verdict": p.verdict.value, **p.probe.ratios}
        for p in points
    ]
    return {"probe_ratios": ratios}


def _verify_checks(prob: Problem, stage: dict) -> list[hc.HypothesisReport]:
    reports: list[hc.HypothesisReport] = []
    for i, check in enumerate(stage.get("checks", [])):
        where = f"verify.checks[{i}]"
        kind = check.get("check")
        if kind == "relative_bound":
            if prob.spec is None:
                raise ProblemError(f"{where}: relative_bound needs a matrix-spec problem")
            cuts = check.get("cuts")
            if not cuts:
                raise ProblemError(f"{where}: relative_bound needs block 'cuts'")
            lam = _parse_complex(check.get("lambda", 0.0), f"{where}.lambda")
            sizes = check.get("sizes") or list(cuts)
            split = om.split_blocks(prob.spec, cuts)
            t_secs = [split.diag_section(k) for k in sizes]
            s_secs = [split.coupling_section(k) for k in sizes]
            reports.append(
                hc.relative_bound(t_secs, s_secs, lam, sizes, tag=check.get("tag", "PerturbGSR"))
            )
        elif kind == "uniform_decay":
            if prob.spec is None:
                raise ProblemError(f"{where}: uniform_decay needs a matrix-spec problem")
            cuts = check.get("cuts")
            if not cuts:
                raise ProblemError(f"{where}: uniform_decay needs block 'cuts'")
            lam = _parse_complex(check.get("lambda", 0.0), f"{where}.lambda")
            split = om.split_blocks(prob.spec, cuts)
            reports.append(
                hc.uniform_resolvent_decay(
                    list(split.diagonal_blocks), lam, tag=check.get("tag", "Galerkin")
                )
            )
        elif kind == "band_case":
            if prob.spec is None:
                raise ProblemError(f"{where}: band_case needs a matrix-spec problem")
            lam = None
            normalize = bool(check.get("normalize", False))
            if normalize:
                lam = _parse_complex(check.get("lambda", 0.0), f"{where}.lambda")
            profile = om.band_profile(
                prob.spec, int(check.get("scan", 100)), lam=lam, normalize_by_diag=normalize
            )
            reports.append(hc.banded_case_report(profile))
        elif kind == "sl_coercivity":
            comp = prob.sl or (prob.sl_matrix.tau1 if prob.sl_matrix else None)
            if comp is None:
                raise ProblemError(f"{where}: sl_coercivity needs an sl or sl_matrix problem")
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
            if mp is None:
                raise ProblemError(f"{where}: sl_matrix check needs an sl_matrix problem")
            search = hc.sl_lambda0_search(
                mp.gamma1, mp.gamma2, mp.sup_s, mp.sup_t, mp.sup_u, mp.sup_v
            )
            search.constants["c_beta_1"] = hc.sl_coercivity(mp.tau1.p_min, mp.tau1.q_min, mp.tau1.beta)
            search.constants["c_beta_2"] = hc.sl_coercivity(mp.tau2.p_min, mp.tau2.q_min, mp.tau2.beta)
            reports.append(search)
            if search.verdict is hc.Verdict.PASS:
                lam0 = search.lam
                sizes = check.get("sizes") or prob.default_sizes()
                a_secs, b_secs, c_secs, d_secs = zip(*(dz.sl_blocks(mp, n, prob.grid_m) for n in sizes))
                reports.append(hc.gamma_product_2x2(a_secs, b_secs, c_secs, d_secs, lam0, sizes))
        elif kind == "schrodinger":
            if prob.schrodinger is None:
                raise ProblemError(f"{where}: schrodinger check needs a schrodinger problem")
            reports.append(hc.schrodinger_constants(prob.schrodinger))
        else:
            raise ProblemError(f"{where}: unknown check {kind!r}")
    return reports


def _run_verify(prob: Problem, stage: dict, out_dir: Path, name: str) -> dict:
    reports = _verify_checks(prob, stage)
    doc = {"problem": prob.name, "reports": [r.to_dict() for r in reports]}
    _atomic_write(out_dir / name, _dump_json(doc))
    return doc


def run_problem(prob: Problem, out_dir: Path, input_bytes: bytes, threads: int = 1) -> dict:
    """Execute the analysis block in declaration order; failures don't stop later stages.

    The stages share ``prob.cache``.  It is cleared as soon as no remaining
    stage reads a ladder (``spectra``, ``pseudo``, ``classify``), so a verify
    stage does not keep the sections alive.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set = set()
    stages: list[StageResult] = []
    cache = prob.cache
    for i, stage in enumerate(prob.analysis):
        op = stage["op"]
        result = StageResult(op=op, status="ok")
        hits, misses = cache.spectrum_hits, cache.spectrum_misses
        routes, residuals = cache.eig_routes.copy(), cache.residuals_computed
        start = time.perf_counter()
        try:
            if op == "spectra":
                name = _unique_name("spectra", "csv", used)
                _run_spectra(prob, stage, out_dir, name)
                result.outputs = [name]
            elif op == "pseudo":
                name = _unique_name("pseudo", "csv", used)
                result.details = _run_pseudo(prob, stage, out_dir, name, threads)
                result.outputs = [name]
            elif op == "classify":
                name = _unique_name("classify", "json", used)
                result.details = _run_classify(prob, stage, out_dir, name)
                result.outputs = [name]
            elif op == "verify":
                name = _unique_name("hypothesis", "json", used)
                _run_verify(prob, stage, out_dir, name)
                result.outputs = [name]
        except Exception as exc:  # recorded per stage, run continues
            result.status = "error"
            result.error = f"{type(exc).__name__}: {exc}"
        result.details["spectrum_cache"] = {
            "hits": cache.spectrum_hits - hits,
            "misses": cache.spectrum_misses - misses,
        }
        if op in ("spectra", "classify"):
            result.details["eig_routes"] = {
                route: cache.eig_routes[route] - routes[route] for route in numerics.EIG_ROUTES
            }
            result.details["residuals_computed"] = cache.residuals_computed - residuals
        if not any(later["op"] in LADDER_OPS for later in prob.analysis[i + 1 :]):
            cache.clear()
        result.seconds = time.perf_counter() - start
        stages.append(result)
    report = {
        "tool": "specexact",
        "version": __version__,
        "problem": prob.name,
        "kind": prob.kind,
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
        "stages": [
            {
                "op": s.op,
                "status": s.status,
                "outputs": s.outputs,
                "error": s.error,
                "seconds": s.seconds,
                **s.details,
            }
            for s in stages
        ],
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


def _demo_summary(name: str, out_dir: Path) -> list[str]:
    lines = []
    classify_path = out_dir / "classify.json"
    hypothesis_path = out_dir / "hypothesis.json"
    if classify_path.exists():
        doc = json.loads(classify_path.read_text())
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
    if hypothesis_path.exists():
        doc = json.loads(hypothesis_path.read_text())
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
    """argparse ``type=`` of a size list such as ``2:40:2`` or ``3,5,7``."""
    out = []
    try:
        for chunk in text.split(","):
            if ":" in chunk:
                parts = [int(v) for v in chunk.split(":")]
                start, stop = parts[0], parts[1]
                step = parts[2] if len(parts) > 2 else 1
                out.extend(range(start, stop + 1, step))
            else:
                out.append(int(chunk))
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
    return parse_problem(doc, name_hint=p.stem), raw


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get(ENV_THREADS, "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _exit_code(report: dict) -> int:
    return 0 if all(s["status"] == "ok" for s in report["stages"]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specexact",
        description="Finite-section / domain-truncation spectral analysis with "
        "pollution detection and hypothesis checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_problem=True):
        if with_problem:
            sp.add_argument("problem", help="path to a JSON problem file")
        sp.add_argument("--out", default="specexact-out", help="output directory")
        sp.add_argument("--threads", type=int, default=None,
                        help=f"worker threads for grid stages (default ${ENV_THREADS} or 1); "
                        "affects speed only, never values")

    add_common(sub.add_parser("run", help="run the problem file's analysis block"))
    p_demo = sub.add_parser("demo", help="run a baked-in demo and print a verdict summary")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--out", default=None, help="output directory (default demo-<name>)")
    p_demo.add_argument("--threads", type=int, default=None)

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

    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            doc = demo_problem(args.name)
            prob = parse_problem(doc, name_hint=args.name)
            out_dir = Path(args.out or f"demo-{args.name}")
            raw = _dump_json(doc).encode()
            report = run_problem(prob, out_dir, raw, threads=_threads_from(args))
            for line in _demo_summary(args.name, out_dir):
                print(line)
            print(f"outputs in {out_dir}")
            return _exit_code(report)

        prob, raw = _load_problem(args.problem)
        if args.command == "spectra":
            stage = {"op": "spectra"}
            if args.sizes:
                stage["sizes"] = args.sizes
            prob.analysis = [stage]
        elif args.command == "pseudo":
            nx, ny = args.grid
            stage = {"op": "pseudo", "size": args.size, "rect": args.rect, "nx": nx, "ny": ny}
            prob.analysis = [stage]
        elif args.command == "classify":
            stage = {"op": "classify", "tol": args.tol}
            if args.sizes:
                stage["certified_sizes"] = args.sizes
            if args.uncertified_sizes:
                stage["uncertified_sizes"] = args.uncertified_sizes
            if args.lam:
                stage["lambda"] = args.lam if len(args.lam) == 2 else [args.lam[0], 0.0]
            prob.analysis = [stage]
        elif args.command == "verify":
            stages = [s for s in prob.analysis if s["op"] == "verify"]
            if not stages:
                raise ProblemError("problem file has no verify stage")
            prob.analysis = stages
        _check_galerkin_sizes(prob)  # the sizes a subcommand took from argv
        report = run_problem(prob, Path(args.out), raw, threads=_threads_from(args))
        for s in report["stages"]:
            status = s["status"] + ("" if s["status"] == "ok" else f" ({s['error']})")
            print(f"[{s['op']}] {status} -> {', '.join(s['outputs']) or '-'}")
        return _exit_code(report)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
