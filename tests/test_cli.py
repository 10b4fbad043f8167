"""CLI surface: problem files, stage outputs, demos, determinism, error paths."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hst

import specexact
from specexact import cli, discretize as dz, numerics


def raising(name):
    def routine(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return routine


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def jacobi_stage(**stage):
    """A jacobi problem whose analysis is the one stage given."""
    return {"kind": "jacobi", "analysis": [stage]}


def assert_pseudo_matches_svd(csv_path, prob, size):
    """Every resolvent norm of a pseudo.csv within the pseudospectrum gate of a dense SVD."""
    a = np.asarray(prob.ladder([size]).matrix(size))
    norm = np.linalg.norm(a, 2)
    for line in csv_path.read_text().strip().split("\n")[1:]:
        re_s, im_s, val_s = line.split(",")
        z = complex(float(re_s), float(im_s))
        want = np.linalg.svd(a - z * np.eye(size), compute_uv=False)[-1]
        got = 1.0 / float(val_s)
        assert abs(got - want) <= 1e-8 * want + 100 * np.finfo(float).eps * (norm + abs(z))


def data_files(out_dir):
    return sorted(
        p.name for p in out_dir.iterdir() if p.suffix in (".csv", ".json") and p.name != "report.json"
    )


def record_sections(monkeypatch, record=lambda sec, m: sec):
    """The list into which each Section built from now on goes, as ``record`` (it, its input), before it is initialized."""
    built, init = [], numerics.Section.__init__

    def recording_init(self, m, **kwargs):
        built.append(record(self, m))
        init(self, m, **kwargs)

    monkeypatch.setattr(numerics.Section, "__init__", recording_init)
    return built


def array_input(sec, m):
    """For :func:`record_sections`: whether the Section is built from an array, not from declared diagonals."""
    return not isinstance(m, dict)


def dense_builds(out_dir):
    """Each stage's ``dense_builds`` in the report.json under ``out_dir``."""
    return [stage["dense_builds"] for stage in json.loads((out_dir / "report.json").read_text())["stages"]]


class TestRun:
    def test_jacobi_classify_spurious(self, tmp_path):
        doc = {
            "kind": "jacobi",
            "analysis": [
                {
                    "op": "classify",
                    "certified_sizes": list(range(2, 42, 2)),
                    "uncertified_sizes": list(range(3, 43, 2)),
                    "lambda": [0.0, 0.0],
                }
            ],
        }
        out = tmp_path / "out"
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "classify.json").read_text())
        assert doc["candidates"][0]["verdict"] == "Spurious"

    def test_empty_analysis(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", write_problem(tmp_path, {"kind": "jacobi", "analysis": []}), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stages"] == []

    def test_sl_spectra_lowest_three(self, tmp_path):
        doc = {
            "kind": "sl",
            "a": 0.0,
            "b": math.pi,
            "a_n": [0.0],
            "m": 500,
            "p": 1.0,
            "q": 0.0,
            "beta": 0.0,
            "p_min": 1.0,
            "q_min": 0.0,
            "analysis": [{"op": "spectra"}],
        }
        out = tmp_path / "out"
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        rows = (out / "spectra.csv").read_text().strip().split("\n")
        assert rows[0] == "n,re,im,residual"
        vals = sorted(float(r.split(",")[1]) for r in rows[1:])
        np.testing.assert_allclose(vals[:3], [1.0, 4.0, 9.0], atol=1e-2)

    def test_stage_error_recorded_and_run_continues(self, tmp_path):
        # the 1 x 1 diagonal blocks of the jacobi matrix are 0, so lambda = 0 is a pole of each T-section,
        # which only the computed sigma_min shows
        doc = {
            "kind": "jacobi",
            "analysis": [
                {"op": "verify", "checks": [{"check": "relative_bound", "cuts": [1, 2, 3]}]},
                {"op": "spectra", "sizes": [2, 3]},
            ],
        }
        out = tmp_path / "out"
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        assert [s["status"] for s in report["stages"]] == ["error", "ok"]
        assert report["stages"][0]["error"].startswith("PoleError: ")
        assert (out / "spectra.csv").exists() and not (out / "hypothesis.json").exists()


class TestPseudo:
    def test_grid_csv(self, tmp_path):
        doc = {
            "kind": "custom_banded",
            "table": [[0.0, 0.0], [0.0, 1.0]],
            "analysis": [],
        }
        out = tmp_path / "out"
        rc = cli.main(
            [
                "pseudo",
                write_problem(tmp_path, doc),
                "--size",
                "2",
                "--rect=-1,2,-1,1",
                "--grid",
                "7,5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "pseudo.csv").read_text().strip().split("\n")
        assert lines[0] == "re,im,resnorm"
        assert len(lines) == 1 + 7 * 5
        # full-precision values round-trip through float()
        for line in lines[1:]:
            re_s, im_s, val_s = line.split(",")
            z = complex(float(re_s), float(im_s))
            want = 1.0 / min(abs(z), abs(z - 1.0)) if z not in (0, 1) else np.inf
            got = np.inf if val_s == "inf" else float(val_s)
            if np.isfinite(want):
                assert got == pytest.approx(want, rel=1e-10)

    def test_report_records_sigma_min_routes(self, tmp_path):
        doc = {
            "kind": "jacobi",
            "analysis": [
                {"op": "spectra", "sizes": [2, 3]},
                {"op": "pseudo", "size": 20, "rect": [-8.0, 8.0, -1.0, 1.0], "nx": 5, "ny": 3},
            ],
        }
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        spectra, pseudo = json.loads((out / "report.json").read_text())["stages"]
        # every shift of a Hermitian tridiagonal section is tridiagonal
        assert pseudo["sigma_min_routes"] == {"tridiagonal": 15}
        assert_pseudo_matches_svd(out / "pseudo.csv", cli.parse_problem(doc), 20)
        assert pseudo["dense_fallbacks"] == 0
        assert "sigma_min_routes" not in spectra and "dense_fallbacks" not in spectra
        assert spectra["spectrum_cache"] == {"hits": 0, "misses": 2}
        assert pseudo["spectrum_cache"] == {"hits": 0, "misses": 0}

    def test_report_records_lanczos_steps(self, tmp_path):
        # the complex oscillator at n = 99 is stored banded, and the upper-triangular section of size 400 is its
        # own Schur form: at least one step per point, at most the cap, none on the other route, no dense fallback
        oscillator = {"kind": "schrodinger", "p": 0.0, "q": "i*x^2", "r": 0.0, "L_n": [6.0], "m": 100}
        cases = [
            (oscillator, {"size": 1, "rect": [-1.0, 12.0, -1.0, 12.0], "nx": 4, "ny": 3}, "banded", 12),
            ({"kind": "upper_triangular"}, {"size": 400, "rect": [-2.0, 30.0, -10.0, 10.0], "nx": 6, "ny": 6},
             "triangular", 36),
        ]
        for doc, lattice, route, points in cases:
            doc = {**doc, "analysis": [{"op": "pseudo", **lattice}]}
            out = tmp_path / route
            assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
            (pseudo,) = json.loads((out / "report.json").read_text())["stages"]
            assert pseudo["sigma_min_routes"] == {route: points} and pseudo["dense_fallbacks"] == 0
            steps = pseudo["lanczos_steps"]
            assert points <= steps.pop(route) <= 64 * points and list(steps.values()) == [0]

    def test_classify_computes_no_residuals(self, tmp_path):
        # classify first: it runs the 7 bisection eigensolves of its window
        # [0, 8] and asks for no residual; the spectra window [0, 8.5] reaches
        # outside it, so spectra solves again and computes one per written row
        doc = cli.demo_problem("oscillator")
        doc["analysis"] = doc["analysis"][1::-1]
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        classify, spectra = json.loads((out / "report.json").read_text())["stages"]
        routes = dict.fromkeys(numerics.EIG_ROUTES, 0) | {"bisection": 7}
        assert classify["eig_routes"] == routes and classify["residuals_computed"] == 0
        rows = len((out / "spectra.csv").read_text().splitlines()) - 1
        assert spectra["eig_routes"] == routes and spectra["spectrum_cache"] == {"hits": 0, "misses": 7}
        assert spectra["residuals_computed"] == rows > 0

    def test_report_records_probe_ratios(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["demo", "oscillator", "--out", str(out)]) == 0
        spectra, classify, verify = json.loads((out / "report.json").read_text())["stages"]
        assert "probe_ratios" not in spectra and "eig_routes" not in verify
        candidates = json.loads((out / "classify.json").read_text())["candidates"]
        assert [r["lambda"] for r in classify["probe_ratios"]] == [c["lambda"] for c in candidates]
        for ratios, cand in zip(classify["probe_ratios"], candidates):
            probe = cand["probe"]
            values = probe["values"]
            assert ratios["verdict"] == cand["verdict"] == "TrueEigenvalue"
            assert ratios["final_over_zero_floor"] == values[-1] / (1e-10 * probe["scale"])
            assert ratios["tail_over_head"] == probe["tail_geomean"] / probe["head_geomean"]
            assert ratios["min_over_bounded_floor"] == min(values) / (1e-6 * probe["scale"])
            assert ratios["final_over_first"] == values[-1] / values[0]

    def test_report_records_contour_routes_and_margins(self, tmp_path):
        # 4 candidates x 3 rank sizes, all Hermitian tridiagonal: 12 closed-form contours (their counts are
        # in the golden ledger), every gap and node distance far from its threshold (10, and 1e-8 of the radius)
        out = tmp_path / "out"
        assert cli.main(["demo", "oscillator", "--out", str(out)]) == 0
        classify = json.loads((out / "report.json").read_text())["stages"][1]
        candidates = json.loads((out / "classify.json").read_text())["candidates"]
        assert "contours" not in candidates[0]
        for ratios, cand in zip(classify["probe_ratios"], candidates):
            assert [c["size"] for c in ratios["contours"]] == cand["rank_sizes"]
            for contour in ratios["contours"]:
                assert set(contour) == {"size", "route", "gap", "node_distance"}
                assert contour["route"] == "closed_form"
                assert contour["gap"] > 1e3 and contour["node_distance"] > 1e-6

    def test_report_records_complex_oscillator_contour_guards(self, tmp_path, monkeypatch):
        # 7 windowed solves and 3 sketched classify contours, 64 nodes each on a non-Hermitian section:
        # every node is cleared by the first sketch pass's probe bound (448 and 192 in the golden
        # ledger), so no power estimate runs
        estimates = []
        estimate = numerics.Factorization.inverse_norm_estimate
        monkeypatch.setattr(
            numerics.Factorization, "inverse_norm_estimate", lambda self: estimates.append(1) or estimate(self)
        )
        assert cli.main(["demo", "complex_oscillator", "--out", str(tmp_path / "out")]) == 0
        assert estimates == []

    def test_seventeen_digit_roundtrip(self, tmp_path):
        doc = {"kind": "jacobi", "analysis": [{"op": "spectra", "sizes": [2, 3]}]}
        out = tmp_path / "out"
        cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)])
        for line in (out / "spectra.csv").read_text().strip().split("\n")[1:]:
            for tok in line.split(","):
                v = float(tok)
                assert f"{v:.17g}" == tok

    def test_reversed_window_corners_write_the_same_bytes(self, tmp_path):
        # a window reaches every filter with its corners in either order: the
        # jacobi spectra rows at sizes 2-11, and the oscillator's 4 TrueEigenvalue verdicts
        oscillator = cli.demo_problem("oscillator")
        cases = (
            (jacobi_stage(op="spectra", sizes=list(range(2, 12))), "spectra.csv", [-3, 3, -1, 1], [3, -3, -1, 1]),
            (dict(oscillator, analysis=oscillator["analysis"][1:2]), "classify.json", [0, 8, -1, 1], [8, 0, 1, -1]),
        )
        for doc, name, ordered, reversed_corners in cases:
            written = []
            for label, window in (("ordered", ordered), ("reversed", reversed_corners)):
                doc["analysis"][0]["window"] = window
                out = tmp_path / f"{name}-{label}"
                assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
                written.append((out / name).read_bytes())
            assert written[0] == written[1]
        assert len(json.loads(written[0])["candidates"]) == 4
        assert (tmp_path / "spectra.csv-ordered" / "spectra.csv").read_text().count("\n") > 1

    def test_report_is_strict_json_at_an_extreme_shift(self, tmp_path):
        # the probe ratios over the floors overflow at |lambda| = 1e308: null in
        # report.json, not Infinity, and computed without a numpy warning
        doc = jacobi_stage(op="classify", certified_sizes=list(range(2, 14, 2)), **{"lambda": [1e308, 0.0]})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"report.json holds {constant}")

        (classify,) = json.loads((out / "report.json").read_text(), parse_constant=refuse)["stages"]
        assert classify["status"] == "ok"
        (ratios,) = classify["probe_ratios"]
        assert ratios["final_over_zero_floor"] is None and ratios["min_over_bounded_floor"] is None


class TestSharedCache:
    @pytest.mark.parametrize("demo", cli.DEMO_NAMES)
    def test_shared_cache_matches_fresh_ladders(self, tmp_path, demo):
        # whole analysis on one cache vs one freshly parsed problem per stage
        doc = cli.demo_problem(demo)
        raw = cli._dump_json(doc).encode()
        shared = cli.parse_problem(doc, name_hint=demo)
        cli.run_problem(shared, tmp_path / "shared", raw)
        fresh_files = {}
        for i, stage in enumerate(doc["analysis"]):
            out = tmp_path / f"fresh{i}"
            cli.run_problem(cli.parse_problem(dict(doc, analysis=[stage]), name_hint=demo), out, raw)
            for name in data_files(out):
                fresh_files[name] = (out / name).read_bytes()
        names = data_files(tmp_path / "shared")
        assert names == sorted(fresh_files) and len(names) == len(doc["analysis"])
        for name in names:
            assert (tmp_path / "shared" / name).read_bytes() == fresh_files[name], name

    @pytest.mark.parametrize("demo", ["oscillator", "complex_oscillator"])
    def test_whole_spectra_stage_in_front_leaves_windowed_bytes(self, tmp_path, demo):
        # a whole spectrum held for every size serves no windowed request on
        # sections with a window route, so the windowed stage writes what it
        # writes alone
        doc = cli.demo_problem(demo)
        windowed = doc["analysis"][0]
        assert windowed["op"] == "spectra" and "window" in windowed
        outputs = {}
        for label, analysis in (("alone", [windowed]), ("behind", [{"op": "spectra"}, windowed])):
            out = tmp_path / label
            assert cli.main(["run", write_problem(tmp_path, dict(doc, analysis=analysis)), "--out", str(out)]) == 0
            outputs[label] = out
        whole, behind = json.loads((outputs["behind"] / "report.json").read_text())["stages"]
        assert whole["spectrum_cache"] == behind["spectrum_cache"] == {"hits": 0, "misses": 7}
        assert (outputs["behind"] / "spectra_2.csv").read_bytes() == (outputs["alone"] / "spectra.csv").read_bytes()

    def test_cache_released_before_verify(self, tmp_path, monkeypatch):
        prob = cli.parse_problem(cli.demo_problem("sl_matrix"))
        sections, seen = record_sections(monkeypatch, lambda sec, m: weakref.ref(sec)), []
        run_verify = cli._run_verify

        def spy(*args):
            gc.collect()
            # the problem keeps each truncation's tridiagonal T (order 299), which verify reads again
            kept = {id(t): t.n for pair in prob.sl_matrix._components.values() for t in pair}
            alive = sum(ref() is not None and id(ref()) not in kept for ref in sections)
            seen.append([len(prob.cache.sections), len(prob.cache.spectra), alive, sorted(kept.values())])
            return run_verify(*args)

        monkeypatch.setattr(cli, "_run_verify", spy)
        report = cli.run_problem(prob, tmp_path / "out", b"")
        assert [s["status"] for s in report["stages"]] == ["ok", "ok"]
        assert report["stages"][0]["spectrum_cache"] == {"hits": 0, "misses": 10}
        # no stage after spectra reads a ladder, so verify runs on an empty
        # cache, and the 10 spectra sections are already released
        assert len(sections) >= 10 and seen == [[0, 0, 0, [299] * 10]]
        assert len(prob.cache.sections) == len(prob.cache.spectra) == 0

    def test_sl_matrix_demo_section_builds_per_stage(self, tmp_path, monkeypatch):
        # per size, spectra builds T1 and T2, which the problem keeps, and the interleaved section
        # from the four blocks' diagonals, no block a Section; verify builds the four blocks over
        # the kept T1 and T2
        sections, before_verify, run_verify = record_sections(monkeypatch), [], cli._run_verify
        monkeypatch.setattr(cli, "_run_verify", lambda *args: before_verify.append(len(sections)) or run_verify(*args))
        assert cli.main(["demo", "sl_matrix", "--out", str(tmp_path / "out")]) == 0
        assert (before_verify, len(sections)) == ([30], 30 + 40)

    def test_oscillator_demo_sections_stay_declared(self, tmp_path, monkeypatch):
        # spectra, shifted solves, norms and contour ranks all read one
        # Section per ladder size, declared tridiagonal by its builder: no
        # array input, and no dense array built
        arrays = record_sections(monkeypatch, array_input)
        assert cli.main(["demo", "oscillator", "--out", str(tmp_path / "out")]) == 0
        assert arrays == [False] * 7
        assert dense_builds(tmp_path / "out") == [{"calls": 0, "max_n": 0}] * 3

    @pytest.mark.parametrize("demo, solves", [("sl_matrix", 10), ("complex_oscillator", 7)])
    def test_demo_spectra_take_banded_route(self, tmp_path, monkeypatch, demo, solves):
        # eigenvalues without eigenvectors, one residual per written row, and
        # the sections keep their declared band: no array input, and no dense
        # array built.  The sl_matrix sections, declared kron(T, K1) + kron(I, K0),
        # take the kronecker route; the non-Hermitian complex_oscillator ones,
        # asked with the stage window, the windowed route, with no fallback
        arrays = record_sections(monkeypatch, array_input)
        doc = cli.demo_problem(demo)
        doc["analysis"] = doc["analysis"][:1]
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        (spectra,) = json.loads((out / "report.json").read_text())["stages"]
        route = "kronecker" if demo == "sl_matrix" else "windowed"
        routes = dict.fromkeys(numerics.EIG_ROUTES, 0) | {route: solves}
        assert spectra["eig_routes"] == routes
        rows = len((out / "spectra.csv").read_text().splitlines()) - 1
        assert spectra["residuals_computed"] == rows > 0
        assert arrays and not any(arrays)
        assert spectra["dense_builds"] == {"calls": 0, "max_n": 0}
        checks = spectra["windowed_checks"]
        assert len(checks) == (0 if demo == "sl_matrix" else solves)
        assert all(c["fallback"] is None and c["found"] == c["contour_rank"] for c in checks)

    def test_jacobi_verify_stage_builds_one_section_per_pole_check(self, tmp_path, monkeypatch):
        # 60 T- and 60 S-sections of relative_bound and 60 diagonal blocks of
        # uniform_decay, each declared from its split's diagonals; the products
        # S (T - lambda)^-1 go to the SVD unscanned.  Three more are the
        # declared sections the two splits and the band profile assemble once each.
        doc = cli.demo_problem("jacobi")
        doc["analysis"] = [stage for stage in doc["analysis"] if stage["op"] == "verify"]
        sections = record_sections(monkeypatch)
        report = cli.run_problem(cli.parse_problem(doc), tmp_path / "out", b"")
        assert [s["status"] for s in report["stages"]] == ["ok"]
        assert len(sections) == 180 + 3

    def test_demo_sections_are_all_declared(self, tmp_path, monkeypatch):
        # every section the five demos build, verify's T, S, blocks and 2x2
        # blocks included, is declared by its builder: none is read from an array
        arrays = record_sections(monkeypatch, array_input)
        for demo in cli.DEMO_NAMES:
            assert cli.main(["demo", demo, "--out", str(tmp_path / demo)]) == 0
        assert arrays and not any(arrays)

    @pytest.mark.parametrize("problem", ["oscillator_demo", "criterion_06"])
    def test_oscillator_runs_with_no_dense_array(self, tmp_path, monkeypatch, problem):
        # the oscillator demo, and criterion 06's classify at m = 1600, with every way a Section
        # places an n x n array made to raise: each of their sections is read from its diagonals
        for name in ("dense", "_placed", "__array__"):
            monkeypatch.setattr(numerics.Section, name, raising(name))
        if problem == "oscillator_demo":
            doc = cli.demo_problem("oscillator")
        else:
            doc = {
                "kind": "schrodinger", "p": 0.0, "q": "x^2", "r": 0.0,
                "L_n": [float(L) for L in range(4, 11)], "m": 1600,
                "analysis": [{"op": "classify", "window": [0.0, 8.0, -1.0, 1.0], "tol": 2e-4, "quadrature_points": 32}],
            }
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        stages = json.loads((out / "report.json").read_text())["stages"]
        assert [stage["status"] for stage in stages] == ["ok"] * len(doc["analysis"])
        assert dense_builds(out) == [{"calls": 0, "max_n": 0}] * len(stages)
        verdicts = [c["verdict"] for c in json.loads((out / "classify.json").read_text())["candidates"]]
        assert verdicts.count("TrueEigenvalue") == 4

    def test_jacobi_pseudo_stage_builds_one_section(self, tmp_path, monkeypatch):
        # all 297 lattice shifts of the size-20 section take the tridiagonal
        # route, on the Section's own diagonals
        doc = cli.demo_problem("jacobi")
        doc["analysis"] = [stage for stage in doc["analysis"] if stage["op"] == "pseudo"]
        sections = record_sections(monkeypatch)
        report = cli.run_problem(cli.parse_problem(doc), tmp_path / "out", b"")
        (stage,) = report["stages"]
        assert stage["status"] == "ok" and stage["sigma_min_routes"] == {"tridiagonal": 297}
        assert len(sections) == 1
        assert_pseudo_matches_svd(tmp_path / "out" / "pseudo.csv", cli.parse_problem(doc), 20)


class TestSpectraSubcommand:
    def test_sizes_flag(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(
            [
                "spectra",
                write_problem(tmp_path, {"kind": "jacobi", "analysis": []}),
                "--sizes",
                "2:6:2,9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = (out / "spectra.csv").read_text().strip().split("\n")[1:]
        sizes = sorted({float(r.split(",")[0]) for r in rows})
        assert sizes == [2.0, 4.0, 6.0, 9.0]


class TestVerify:
    def test_schrodinger_verify(self, tmp_path):
        doc = {
            "kind": "schrodinger",
            "p": 0.0,
            "q": "x^2",
            "r": 0.0,
            "L_n": [6.0],
            "m": 100,
            "analysis": [{"op": "verify", "checks": [{"check": "schrodinger"}]}],
        }
        out = tmp_path / "out"
        rc = cli.main(["verify", write_problem(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "hypothesis.json").read_text())["reports"][0]
        assert rep["theorem"] == "Schrodinger"
        assert rep["verdict"] == "PassEvidence"

    def test_sl_coercivity_check(self, tmp_path):
        doc = {
            "kind": "sl",
            "a": 0.0,
            "b": math.pi,
            "a_n": [0.1],
            "m": 50,
            "p": 1.0,
            "q": 3.0,
            "beta": math.pi / 2,
            "p_min": 1.0,
            "q_min": 3.0,
            "analysis": [{"op": "verify", "checks": [{"check": "sl_coercivity"}]}],
        }
        out = tmp_path / "out"
        assert cli.main(["verify", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        rep = json.loads((out / "hypothesis.json").read_text())["reports"][0]
        assert rep["constants"]["c_beta"] == 3.0
        assert rep["verdict"] == "PassEvidence"

    def test_verify_requires_stage(self, tmp_path):
        rc = cli.main(
            ["verify", write_problem(tmp_path, {"kind": "jacobi", "analysis": []}), "--out", str(tmp_path / "o")]
        )
        assert rc == 2


class TestClassifySubcommand:
    def test_explicit_lambda(self, tmp_path):
        doc = {"kind": "jacobi", "analysis": []}
        out = tmp_path / "out"
        rc = cli.main(
            [
                "classify",
                write_problem(tmp_path, doc),
                "--sizes",
                "2:40:2",
                "--uncertified-sizes",
                "3:41:2",
                "--lambda",
                "0,0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads((out / "classify.json").read_text())
        assert doc["candidates"][0]["verdict"] == "Spurious"


# 37 samples of sin(x) and cos(3x) on [-11, 11]: the sampling grid crosses every segment and both ends
TABLE_X = np.linspace(-11.0, 11.0, 37)
TABLE_RE, TABLE_IM = np.sin(TABLE_X), np.cos(3.0 * TABLE_X)
COEFFICIENT_NODES = {
    "constant": -2.5,
    "pair": [0.5, -1.5],
    "real_table": {"table": {"x": TABLE_X.tolist(), "re": TABLE_RE.tolist()}},
    "complex_table": {"table": {"x": TABLE_X.tolist(), "re": TABLE_RE.tolist(), "im": TABLE_IM.tolist()}},
}
# each whitelisted coefficient as a scalar formula, evaluated point by point
PER_POINT = {
    "x": lambda x: x,
    "x^2": lambda x: x * x,
    "i*x^2": lambda x: 1j * x * x,
    "exp(-x^2)": lambda x: math.exp(-x * x),
    "constant": lambda x: -2.5,
    "pair": lambda x: complex(0.5, -1.5),
    "real_table": lambda x: float(np.interp(x, TABLE_X, TABLE_RE)),
    "complex_table": lambda x: complex(np.interp(x, TABLE_X, TABLE_RE), np.interp(x, TABLE_X, TABLE_IM)),
}


class TestCoefficientForms:
    def test_table_coefficient_interpolates(self, tmp_path):
        # q tabulated as the constant 2.5: spectrum shifts by exactly 2.5
        doc = {
            "kind": "sl",
            "a": 0.0,
            "b": math.pi,
            "a_n": [0.0],
            "m": 60,
            "p": 1.0,
            "q": {"table": {"x": [0.0, math.pi], "re": [2.5, 2.5]}},
            "beta": 0.0,
            "p_min": 1.0,
            "q_min": 2.5,
            "analysis": [{"op": "spectra"}],
        }
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        rows = (out / "spectra.csv").read_text().strip().split("\n")[1:]
        lowest = sorted(float(r.split(",")[1]) for r in rows)[0]
        assert lowest == pytest.approx(3.5, abs=1e-3)

    def test_custom_banded_repeat_edge_ladder(self, tmp_path):
        # discrete Laplacian stencil extended by repeat_edge; spectrum stays in (0, 4)
        doc = {
            "kind": "custom_banded",
            "table": [[2.0, -1.0], [-1.0, 2.0]],
            "tail": "repeat_edge",
            "analysis": [{"op": "spectra", "sizes": [4, 8, 16]}],
        }
        out = tmp_path / "out"
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        rows = (out / "spectra.csv").read_text().strip().split("\n")[1:]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all((vals > 0.0) & (vals < 4.0))

    @pytest.mark.parametrize("name", list(PER_POINT))
    def test_array_sampling_equals_per_point_bits(self, name):
        xs = np.linspace(-12.0, 12.0, 100001)
        got = dz._sample(cli.parse_coefficient(COEFFICIENT_NODES.get(name, name), "q"), xs, "q")
        want = np.asarray([PER_POINT[name](x) for x in xs.tolist()])
        assert got.shape == xs.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_bad_table_rejected(self, tmp_path):
        doc = {
            "kind": "schrodinger",
            "p": 0.0,
            "q": {"table": {"x": [0.0, 0.0], "re": [1.0, 2.0]}},
            "r": 0.0,
            "L_n": [4.0],
            "analysis": [],
        }
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2


class TestErrors:
    def test_unknown_kind(self, tmp_path):
        rc = cli.main(["run", write_problem(tmp_path, {"kind": "nope"}), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "jacobi",\n  "analysis": [}')
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "broken.json:2" in err

    @pytest.mark.parametrize(
        "text, message",
        [(b'{"kind": "jacobi", "m": ' + b"9" * 5000 + b"}", "Exceeds the limit"),
         (b'{"kind": "jacobi", "name": "\xff"}', "can't decode byte 0xff")],
        ids=["integer_past_the_digit_limit", "not_utf8"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "unreadable.json"
        path.write_bytes(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err and "Traceback" not in err

    def test_unknown_demo_lists_names(self, capsys):
        rc = cli.main(["demo", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in cli.DEMO_NAMES:
            assert name in err

    def test_unknown_coefficient(self, tmp_path):
        doc = {"kind": "schrodinger", "p": 0.0, "q": "x^3", "r": 0.0, "L_n": [4.0], "analysis": []}
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "kind, key",
        [("sl", "m"), ("sl", "a"), ("sl", "b"), ("sl_matrix", "m"), ("sl_matrix", "a"),
         ("sl_matrix", "b"), ("schrodinger", "m")],
    )
    def test_non_numeric_grid_value(self, tmp_path, capsys, kind, key):
        docs = {
            "sl": {"kind": "sl", "a": 0.0, "b": math.pi, "a_n": [0.0], "m": 50},
            "sl_matrix": cli.demo_problem("sl_matrix"),
            "schrodinger": {"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 50},
        }
        doc = dict(docs[kind], analysis=[])
        cli.parse_problem(doc)  # valid before the one bad value
        doc[key] = "abc"
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {key}: expected a number, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, least", [("sl", 2), ("sl_matrix", 2), ("schrodinger", 4)])
    def test_too_few_grid_cells_refused_when_parsed(self, tmp_path, capsys, kind, least):
        # each assembly needs `least` grid cells; below that every stage would fail, so the file is refused
        docs = {
            "sl": {"kind": "sl", "a": 0.0, "b": math.pi, "a_n": [0.0], "analysis": [{"op": "spectra", "sizes": [1]}]},
            "sl_matrix": cli.demo_problem("sl_matrix"),
            "schrodinger": cli.demo_problem("oscillator"),
        }
        doc = dict(docs[kind], m=least)
        cli.parse_problem(doc)
        doc["m"] = least - 1
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err and not (tmp_path / "o").exists()
        assert f"error: m: expected at least {least} grid cells, got {least - 1}" in err


    @pytest.mark.parametrize(
        "command, flags, problem, where",
        [
            ("pseudo", ["--size", "1", "--rect", "a,b,c,d"], {}, "--rect"),
            ("pseudo", ["--size", "1", "--rect", "0,1,0,1", "--grid", "4"], {}, "--grid"),
            ("spectra", ["--sizes", "x"], {}, "--sizes"),
            ("run", [], {"L_n": 5}, "L_n"),
            ("run", [], {"constants": 5}, "constants"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "tau1": 5}, "tau1"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "tau2": 5}, "tau2"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "sup_norms": 5}, "sup_norms"),
            ("run", [], {"kind": "sl", "a_n": [0.0], "beta": [1]}, "beta"),
            ("run", [], {"kind": "sl", "a_n": [0.0], "p_min": [1]}, "p_min"),
            ("run", [], {"kind": "sl", "a_n": [[0.0]]}, "a_n[0]"),
            ("run", [], {"L_n": [[4]]}, "L_n[0]"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "sup_norms": {"s": [1]}},
             "sup_norms.s"),
            ("run", [], {"constants": {"b_r": "x"}}, "constants.b_r"),
            ("run", [], {"constants": {"a_grad": "x"}}, "constants.a_grad"),
            ("run", [], {"m": True}, "m"),
            ("run", [], {"kind": "sl", "a_n": [0.0], "a": True}, "a"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "gamma1": True}, "gamma1"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "gamma2": [True, False]},
             "gamma2"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], **{"lambda": True}),
             "analysis[0].lambda"),
            ("run", [], {"kind": "custom_banded", "table": [[{"a": 1}]]}, "table"),
            ("run", [], jacobi_stage(op="spectra", sizes=[2.5, 3]), "analysis[0].sizes"),
            ("run", [], jacobi_stage(op="spectra", sizes=[True, 3]), "analysis[0].sizes"),
            ("run", [], jacobi_stage(op="pseudo", size=8.7, rect=[0, 1, 0, 1]), "analysis[0].size"),
            ("run", [], jacobi_stage(op="pseudo", size=8, rect=[0, 1, 0, 1], nx=4.9), "analysis[0].nx"),
            ("run", [], jacobi_stage(op="pseudo", size=8, rect=[0, 1, 0, 1], nx="abc"), "analysis[0].nx"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], quadrature_points=40.9),
             "analysis[0].quadrature_points"),
            ("run", [], jacobi_stage(op="verify", checks=[{"check": "relative_bound", "cuts": [2.5, 4, 6]}]),
             "analysis[0].checks[0].cuts"),
            ("run", [], jacobi_stage(op="verify", checks=[{"check": "band_case", "scan": "x"}]),
             "analysis[0].checks[0].scan"),
            ("run", [], jacobi_stage(op="pseudo", size=8, rect="abcd"), "analysis[0].rect"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], tol="x"), "analysis[0].tol"),
            ("run", [], jacobi_stage(op="spectra", sizes=[2, 3], window=[0, 1, "a", 2]),
             "analysis[0].window"),
            ("run", [], jacobi_stage(op="verify", checks=5), "analysis[0].checks"),
            ("run", [], jacobi_stage(op="verify", checks=[5]), "analysis[0].checks[0]"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], **{"lambda": ["a", "b"]}),
             "analysis[0].lambda"),
            ("run", [], jacobi_stage(op="pseudo", size=20, rect=[-8, 8, -1, 1], nx=10**12, ny=40),
             "analysis[0].nx"),
            ("spectra", ["--sizes", "1:1000000000"], {}, "--sizes"),
            ("run", [], jacobi_stage(op="pseudo", size=20, rect=[-8, 8, -1, 1], nx=1, ny=40), "analysis[0].nx"),
            ("run", [], jacobi_stage(op="pseudo", size=20, rect=[-8, 8, -1, 1], ny=-3), "analysis[0].ny"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], tol=-1), "analysis[0].tol"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], tol=0.0), "analysis[0].tol"),
            ("run", [], jacobi_stage(op="classify", certified_sizes=[2, 4, 6], quadrature_points=15),
             "analysis[0].quadrature_points"),
            ("pseudo", ["--size", "1", "--rect", "0,1,0,1", "--grid", "1,40"], {}, "pseudo.nx"),
            ("classify", ["--sizes", "1,2", "--tol", "0"], {"L_n": [4, 5]}, "classify.tol"),
            ("run", [], {"q": math.inf}, "q: expected a finite number"),
            ("run", [], {"r": [0.0, math.nan]}, "r[1]: expected a finite number"),
            ("run", [], {"p": 10**400}, "p: expected a number"),
            ("run", [], {"q": {"table": {"x": [0.0, 1.0], "re": [0.0, -math.inf]}}}, "q: expected finite table"),
            ("run", [], {"q": {"table": {"x": [0.0, 1.0], "re": [0.0, 10**400]}}}, "q: malformed table"),
            ("run", [], {**cli.demo_problem("sl_matrix"), "analysis": [], "tau2": {"beta": 0.5}},
             "sl_matrix: component grids mismatch"),
        ],
        ids=["rect", "grid", "sizes", "L_n", "constants", "tau1", "tau2", "sup_norms", "beta",
             "p_min", "a_n_entry", "L_n_entry", "sup_norms_entry", "b_r", "a_grad", "m_bool",
             "a_bool", "gamma1_bool", "gamma2_bool", "lambda_bool", "table_entry", "stage_sizes_frac",
             "stage_sizes_bool", "pseudo_size_frac", "pseudo_nx_frac", "pseudo_nx_str", "quadrature_frac",
             "cuts_frac", "scan_str", "rect_str", "tol_str", "window_entry", "checks_int",
             "checks_entry", "lambda_strs", "pseudo_lattice", "sizes_range", "pseudo_nx_1", "pseudo_ny_neg",
             "tol_neg", "tol_zero", "quadrature_15", "grid_1", "classify_tol_0", "coefficient_infinite",
             "coefficient_pair_nan", "coefficient_int_overflows", "table_infinite", "table_int_overflows",
             "sl_matrix_betas_mismatched"],
    )
    def test_bad_input_exits_2_with_error_line(self, tmp_path, capsys, command, flags, problem, where):
        doc = {"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 50, "analysis": [], **problem}
        argv = [command, write_problem(tmp_path, doc), "--out", str(tmp_path / "o"), *flags]
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports a bad option value by exiting
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and where in err and "Traceback" not in err

    SL = {"kind": "sl", "a_n": [0.0], "analysis": []}
    SL_MATRIX = {**cli.demo_problem("sl_matrix"), "analysis": []}

    @pytest.mark.parametrize(
        "problem, line",
        [
            ({**SL, "q": math.inf}, "q: expected a finite number, got inf"),
            ({**SL, "q": [0, math.nan]}, "q[1]: expected a finite number, got nan"),
            ({**SL_MATRIX, "tau1": {**SL_MATRIX["tau1"], "p": "y"}},
             "tau1.p: unknown coefficient 'y'; built-ins are ['exp(-x^2)', 'i*x^2', 'x', 'x^2']"),
            ({**SL_MATRIX, "tau1": {**SL_MATRIX["tau1"], "beta": "x"}}, "tau1.beta: expected a number, got 'x'"),
            ({**SL_MATRIX, "s": math.inf}, "s: expected a finite number, got inf"),
            ({"q": math.inf}, "q: expected a finite number, got inf"),
            ({"L_n": 5}, "L_n: expected a list, got 5"),
            ({**SL, "beta": 4}, "sl: beta must lie in [0, pi), got 4.0"),
        ],
        ids=["sl_q", "sl_q_entry", "tau1_p", "tau1_beta", "sl_matrix_s", "schrodinger_q", "schrodinger_L_n",
             "sl_constructor"],
    )
    def test_field_error_names_its_path_once(self, tmp_path, capsys, problem, line):
        # a field error reads "error: <path>: <reason>"; only a constructor's error carries the kind
        doc = {"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 50, "analysis": [], **problem}
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert rc == 2 and capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "points", [cli.MAX_QUADRATURE_POINTS + 1, 10**9, 1e9], ids=["cap_plus_1", "int_1e9", "float_1e9"]
    )
    def test_quadrature_points_above_cap_exit_2(self, tmp_path, capsys, points):
        doc = jacobi_stage(op="classify", certified_sizes=[2, 4, 6], quadrature_points=points)
        rc = cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and "error: " in err and "analysis[0].quadrature_points" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_quadrature_points_at_cap_accepted(self):
        doc = jacobi_stage(op="classify", certified_sizes=[2, 4, 6], quadrature_points=cli.MAX_QUADRATURE_POINTS)
        assert cli.parse_problem(doc).analysis[0]["quadrature_points"] == cli.MAX_QUADRATURE_POINTS

    @pytest.mark.parametrize(
        "doc, where",
        [
            (jacobi_stage(op="verify", checks=[{"check": "band_case", "scan": 1}]), "analysis[0].checks[0].scan"),
            (jacobi_stage(op="verify", checks=[{"check": "relative_bound", "cuts": [4, 2]}]),
             "analysis[0].checks[0].cuts"),
            (jacobi_stage(op="verify", checks=[{"check": "uniform_decay", "cuts": [0, 2]}]),
             "analysis[0].checks[0].cuts"),
            (jacobi_stage(op="verify", checks=[{"check": "relative_bound", "cuts": [2, 4, 6], "sizes": [6, 4]}]),
             "analysis[0].checks[0].sizes"),
            (jacobi_stage(op="verify", checks=[{"check": "relative_bound", "cuts": [2, 4], "sizes": [2, 6]}]),
             "analysis[0].checks[0].sizes"),
            (jacobi_stage(op="spectra", sizes=[2.5]), "analysis[0].sizes[0]"),
            (jacobi_stage(op="spectra", sizes=[5, 3]), "analysis[0].sizes"),
            (jacobi_stage(op="spectra", sizes=[0, 3]), "analysis[0].sizes"),
            (jacobi_stage(op="classify", certified_sizes=[4, 4, 6]), "analysis[0].certified_sizes"),
            (jacobi_stage(op="classify", sizes=[-2, 4, 6]), "analysis[0].sizes"),
            (jacobi_stage(op="classify", certified_sizes=[2, 4, 6], uncertified_sizes=[3, 1]),
             "analysis[0].uncertified_sizes"),
            (jacobi_stage(op="pseudo", size=0, rect=[-1, 1, -1, 1]), "analysis[0].size"),
            ({"kind": "sl", "a_n": [0.5, 0.0], "m": 20, "analysis": [{"op": "spectra", "sizes": [1, 3]}]},
             "analysis[0].sizes"),
            ({"kind": "schrodinger", "q": "x^2", "L_n": [4, 5], "m": 20,
              "analysis": [{"op": "pseudo", "size": 3, "rect": [0, 1, 0, 1]}]}, "analysis[0].size"),
            ({"kind": "schrodinger", "q": "x^2", "L_n": [4, 5], "m": 20,
              "analysis": [{"op": "classify", "certified_sizes": [1, 2], "uncertified_sizes": [2, 3]}]},
             "analysis[0].uncertified_sizes"),
            ({**cli.demo_problem("sl_matrix"), "m": 20,
              "analysis": [{"op": "verify", "checks": [{"check": "sl_matrix", "sizes": [1, 11]}]}]},
             "analysis[0].checks[0].sizes"),
            # a lambda's region probe reads at least 6 certified sizes, and trajectories match at least 2
            ({"kind": "jacobi", "analysis": [{"op": "spectra", "sizes": [4]},
                                             {"op": "classify", "sizes": [10, 20, 30], "lambda": 0}]},
             "analysis[1].sizes"),
            (jacobi_stage(op="classify", certified_sizes=[10], window=[-3, 3, -1, 1]),
             "analysis[0].certified_sizes"),
            ({"kind": "sl", "a_n": [0.5], "m": 20, "analysis": [{"op": "classify"}]}, "analysis[0].sizes"),
            # JSON's Infinity, NaN and 1e400 parse as floats; a rect's widths are finite and positive
            (jacobi_stage(op="pseudo", size=20, rect=[-1, math.inf, -1, 1]), "analysis[0].rect[1]"),
            (jacobi_stage(op="classify", sizes=[10, 20, 30, 40, 50, 60], **{"lambda": math.inf}),
             "analysis[0].lambda"),
            (jacobi_stage(op="pseudo", size=20, rect=[-1e308, 1e308, -1, 1]), "analysis[0].rect"),
            (jacobi_stage(op="pseudo", size=20, rect=[1, 1, -1, 1]), "analysis[0].rect"),
        ],
        ids=["scan_1", "cuts_decreasing", "cuts_0", "check_sizes_decreasing", "check_sizes_past_last_cut",
             "sizes_fractional", "sizes_decreasing", "sizes_0",
             "certified_repeated", "classify_sizes_negative", "uncertified_decreasing", "pseudo_size_0",
             "sl_above_ladder", "schrodinger_pseudo_above_ladder", "schrodinger_uncertified_above_ladder",
             "sl_matrix_check_above_ladder", "classify_lambda_3_sizes", "classify_1_size",
             "classify_default_ladder_of_1", "pseudo_rect_infinite", "classify_lambda_infinite",
             "pseudo_rect_width_overflows", "pseudo_rect_degenerate"],
    )
    def test_malformed_ladder_or_check_field_exits_2(self, tmp_path, capsys, doc, where):
        # refused when the file is parsed: no stage runs and no output directory is made
        with pytest.raises(cli.ProblemError, match=re.escape(where)):
            cli.parse_problem(doc)
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: expected ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "stage",
        [{"sizes": [10, 20], "window": [-3, 3, -1, 1]}, {"sizes": [10, 20, 30, 40, 50, 60], "lambda": 0}],
        ids=["window_2_sizes", "lambda_6_sizes"],
    )
    def test_classify_ladders_of_the_least_sizes_still_run(self, tmp_path, stage):
        out = tmp_path / "o"
        doc = jacobi_stage(op="classify", **stage)
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["stages"][0]["status"] == "ok"


class TestThreadCap:
    @pytest.mark.parametrize("value", [cli.MAX_THREADS + 1, 10**9])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_above_cap_exit_2(self, tmp_path, monkeypatch, capsys, source, value):
        # refused before any stage runs
        monkeypatch.setattr(cli, "run_problem", lambda *a, **k: pytest.fail("a stage ran"))
        path = write_problem(tmp_path, jacobi_stage(op="pseudo", size=8, rect=[-1, 1, -1, 1], nx=2, ny=2))
        flags = ["--threads", str(value)] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv(cli.ENV_THREADS, str(value))
        assert cli.main(["run", path, "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        name = "--threads" if source == "flag" else f"${cli.ENV_THREADS}"
        assert err.startswith(f"error: {name}: at most {cli.MAX_THREADS} threads") and "Traceback" not in err
        assert cli.main(["demo", "jacobi", "--out", str(tmp_path / "d"), *flags]) == 2

    def test_at_cap_accepted(self, tmp_path, monkeypatch):
        # no stage starts a thread, whatever the thread count: a grid runs its rows in turn
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread was started"))
        stages = {"spectra": {"sizes": [4]}, "pseudo": {"size": 8, "rect": [-1, 1, -1, 1], "nx": 2, "ny": 4}}
        for op, stage in stages.items():
            path = write_problem(tmp_path, jacobi_stage(op=op, **stage), f"{op}.json")
            assert cli.main(["run", path, "--out", str(tmp_path / f"{op}-flag"), "--threads", str(cli.MAX_THREADS)]) == 0
            with monkeypatch.context() as env:
                env.setenv(cli.ENV_THREADS, str(cli.MAX_THREADS))
                assert cli.main(["run", path, "--out", str(tmp_path / f"{op}-env")]) == 0


class TestSizeGuard:
    """Sections above cli.MAX_SECTION_BYTES, and size lists and lattices sized from it,
    are refused at parse time, before any assembly."""

    @pytest.fixture(autouse=True)
    def no_assembly(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("assembled a section")

        for name in ("sl_assemble", "sl_block_assemble", "sl_blocks", "schrodinger_assemble"):
            monkeypatch.setattr(cli.dz, name, refuse)
        for name in ("truncate", "split_blocks", "band_profile"):
            monkeypatch.setattr(cli.om, name, refuse)

    @pytest.mark.parametrize(
        "doc, n",
        [
            ({"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 1_000_000_000}, 999_999_999),
            ({"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 8194}, 8193),
            ({"kind": "sl", "a_n": [0.0], "m": 10_000}, 9999),
            ({**cli.demo_problem("sl_matrix"), "m": 4098}, 8194),
            ({"kind": "jacobi", "analysis": [{"op": "spectra", "sizes": [2, 9000]}]}, 9000),
            ({"kind": "jacobi", "analysis": [{"op": "pseudo", "size": 10**6}]}, 10**6),
            ({"kind": "jacobi", "analysis": [{"op": "pseudo", "size": 1e300}]}, 1e300),
            ({"kind": "jacobi", "analysis": [{"op": "classify", "uncertified_sizes": [3, 8193]}]}, 8193),
            ({"kind": "jacobi", "analysis": [{"op": "verify", "checks": [{"cuts": [2, 9000]}]}]}, 9000),
            ({"kind": "upper_triangular", "analysis": [{"op": "verify", "checks": [{"scan": 10**5}]}]},
             10**5),
        ],
        ids=["schrodinger_1e9", "schrodinger_edge", "sl", "sl_matrix", "spectra_sizes",
             "pseudo_size", "float_size", "uncertified_sizes", "verify_cuts", "verify_scan"],
    )
    def test_oversized_section_refused(self, tmp_path, capsys, doc, n):
        with pytest.raises(cli.ProblemError, match=re.escape(f"order {n} needs {16 * n * n} bytes")):
            cli.parse_problem(doc)
        assert cli.main(["run", write_problem(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{16 * n * n} bytes" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_cap_admits_order_8192(self):
        assert 16 * 8192**2 == cli.MAX_SECTION_BYTES
        cli.parse_problem({"kind": "schrodinger", "q": "x^2", "L_n": [4], "m": 8193})
        cli.parse_problem({**cli.demo_problem("sl_matrix"), "m": 4097})
        cli.parse_problem({"kind": "jacobi", "analysis": [{"op": "spectra", "sizes": [8192]}]})

    def test_subcommand_sizes_refused(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"kind": "jacobi", "analysis": []})
        assert cli.main(["spectra", path, "--sizes", "2,9000", "--out", str(tmp_path / "o")]) == 2
        assert f"{16 * 9000**2} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["1:1000000000", "-1000000000:0", "1:8000,1:8000"])
    def test_size_range_refused_before_it_is_listed(self, tmp_path, capsys, sizes):
        path = write_problem(tmp_path, {"kind": "jacobi", "analysis": []})
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["spectra", path, f"--sizes={sizes}", "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2 and peak < 1 << 20
        err = capsys.readouterr().err
        assert "error: argument --sizes" in err and "8192" in err and "Traceback" not in err
        assert cli._parse_sizes("2:40:2") == list(range(2, 41, 2))
        assert cli._parse_sizes("3,5,7") == [3, 5, 7]
        assert len(cli._parse_sizes("1:8192")) == 8192

    def test_pseudo_lattice_refused(self, tmp_path, capsys):
        stage = {"op": "pseudo", "size": 20, "rect": [-8, 8, -1, 1], "nx": 10**12, "ny": 40}
        limit = cli.MAX_SECTION_BYTES // 80
        with pytest.raises(cli.ProblemError, match=re.escape(f"analysis[0].nx, analysis[0].ny: a lattice")):
            cli.parse_problem(jacobi_stage(**stage))
        path = write_problem(tmp_path, {"kind": "jacobi", "analysis": []})
        flags = ["--size", "20", "--rect=-8,8,-1,1", "--out", str(tmp_path / "o")]
        # ny = 2, the smallest lattice axis a pseudo stage admits
        assert cli.main(["pseudo", path, "--grid", f"{limit // 2 + 1},2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pseudo.nx, pseudo.ny:") and str(limit) in err
        assert not (tmp_path / "o").exists()
        # the demo and benchmark lattices, and the largest admitted one, pass
        for nx, ny in ((33, 9), (12, 12), (limit // 2, 2)):
            cli.parse_problem(jacobi_stage(**{**stage, "nx": nx, "ny": ny}))


JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6),
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
#: arbitrary values, and lists of small integers that often pass for ladder sizes
FIELD_VALUES = JSON_VALUES | hst.lists(hst.integers(-2, 12), max_size=5)
STAGE_KEYS = ("sizes", "size", "rect", "nx", "ny", "window", "certified_sizes", "uncertified_sizes",
              "certified_label", "tol", "quadrature_points", "lambda")
CHECK_KEYS = ("cuts", "sizes", "scan", "lambda", "normalize", "tag")
VALID_DOCS = {
    "jacobi": {"kind": "jacobi"},
    "upper_triangular": {"kind": "upper_triangular"},
    "custom_banded": {"kind": "custom_banded", "table": [[2.0, -1.0], [-1.0, 2.0]]},
    "sl": {"kind": "sl", "a_n": [0.5, 0.0], "m": 50},
    "sl_matrix": {**cli.demo_problem("sl_matrix"), "analysis": []},
    "schrodinger": {"kind": "schrodinger", "q": "x^2", "L_n": [4, 5, 6], "m": 50},
}
TOP_KEYS = ("m", "a", "b", "a_n", "L_n", "table", "tail", "gamma1", "gamma2", "sup_norms", "constants",
            "tau1", "beta", "p_min", "q", "name")


@hst.composite
def problem_documents(draw):
    """A valid problem of each kind, with stages and checks whose fields carry arbitrary values."""
    check = hst.fixed_dictionaries(
        {"check": hst.sampled_from(sorted(cli.CHECKS)) | JSON_VALUES},
        optional={key: FIELD_VALUES for key in CHECK_KEYS},
    )
    stage = hst.fixed_dictionaries(
        {"op": hst.sampled_from(sorted(cli.STAGES))},
        optional={**{key: FIELD_VALUES for key in STAGE_KEYS}, "checks": hst.lists(check, max_size=3)},
    )
    doc = dict(VALID_DOCS[draw(hst.sampled_from(sorted(VALID_DOCS)))])
    doc.update(draw(hst.dictionaries(hst.sampled_from(TOP_KEYS), FIELD_VALUES, max_size=2)))
    doc["analysis"] = draw(hst.lists(stage | JSON_VALUES, max_size=3))
    return doc


class TestContractFuzz:
    """Any input gives a Problem or a ProblemError; ``main`` exits 0 or 2, never with a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_parse_problem_on_any_json_value(self, doc):
        try:
            assert isinstance(cli.parse_problem(doc), cli.Problem)
        except cli.ProblemError:
            pass

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(problem_documents())
    @example({"kind": "custom_banded", "table": [[{"a": 1}]]})
    @example({"kind": "jacobi", "analysis": [{"op": "spectra", "sizes": [2.5, 3]}]})
    def test_parse_problem_on_arbitrary_stage_fields(self, doc):
        try:
            prob = cli.parse_problem(doc)
        except cli.ProblemError:
            return
        for stage in prob.analysis:
            sizes = stage.get("sizes", ()) + stage.get("certified_sizes", ()) + stage.get("uncertified_sizes", ())
            assert all(type(n) is int for n in sizes)

    # flag values stay short: _parse_sizes lists every size of a range such as 2:40:2
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=hst.sampled_from(["run", "demo", "spectra", "pseudo", "classify", "verify"]) | hst.text(max_size=6),
        target=hst.sampled_from(["jacobi.json", "schrodinger.json", "missing.json", "", *cli.DEMO_NAMES]),
        flags=hst.lists(
            hst.tuples(
                hst.sampled_from(["--out", "--threads", "--sizes", "--size", "--rect", "--grid", "--lambda",
                                  "--tol", "--uncertified-sizes"]),
                hst.text(alphabet="0123456789,:-.eaxinf", max_size=6) | hst.text(max_size=6),
            ),
            max_size=4,
        ),
    )
    def test_main_exits_0_or_2(self, tmp_path, monkeypatch, capsys, command, target, flags):
        # nothing is computed, so fuzzed --threads and --grid values start no work
        monkeypatch.setattr(cli, "run_problem", lambda prob, out_dir, raw: {
            "stages": [{"op": s["op"], "status": "ok", "outputs": [], "error": ""} for s in prob.analysis]
        })
        monkeypatch.chdir(tmp_path)
        verify = {"op": "verify", "checks": [{"check": "schrodinger"}]}
        write_problem(tmp_path, {"kind": "jacobi", "analysis": []}, "jacobi.json")
        write_problem(tmp_path, {**VALID_DOCS["schrodinger"], "analysis": [verify]}, "schrodinger.json")
        try:
            rc = cli.main([command, target, *(f"{flag}={value}" for flag, value in flags)])
        except SystemExit as exc:  # argparse reports a bad option value by exiting
            rc = exc.code
        err = capsys.readouterr().err
        assert rc in (0, 2) and "Traceback" not in err
        assert rc == 0 or "error:" in err


class TestDemoDeterminism:
    def test_demo_summary_reads_only_its_own_outputs(self, tmp_path, capsys):
        # jacobi leaves classify.json behind; upper_triangular, run next into the same directory, has
        # no classify stage, so it prints no lambda line and the same summary as in a fresh directory
        assert cli.main(["demo", "upper_triangular", "--out", str(tmp_path / "fresh")]) == 0
        fresh = capsys.readouterr().out.splitlines()[:-1]
        shared = str(tmp_path / "shared")
        assert cli.main(["demo", "jacobi", "--out", shared]) == 0
        assert any(line.startswith("lambda") for line in capsys.readouterr().out.splitlines())
        assert cli.main(["demo", "upper_triangular", "--out", shared]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert lines == fresh and not any(line.startswith("lambda") for line in lines)

    def test_demos_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        # OPENBLAS_NUM_THREADS sets each pool's count as its library loads; every demo stage runs pinned
        # to one thread either way, and each pool, found here from the process's own map, has its count
        # back once cli.main returns
        code = (
            "import contextlib, ctypes, io, json, os\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'\n"
            "import specexact.cli as cli\n"
            "def counts():\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        paths = dict.fromkeys(line.split(maxsplit=5)[5].strip() for line in maps if 'openblas' in line)\n"
            "    names = ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads', "
            "'openblas_get_num_threads')\n"
            "    libs = [ctypes.CDLL(path) for path in paths]\n"
            "    return [getattr(lib, name)() for lib in libs for name in names if hasattr(lib, name)]\n"
            f"for name in {cli.DEMO_NAMES!r}:\n"
            "    before = counts()\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['demo', name, '--out', os.path.join({out!r}, name)]) == 0\n"
            "    print(json.dumps([name, before, counts()]))\n"
        )
        outs = {threads: tmp_path / f"blas{threads}" for threads in (1, 2)}
        for threads, out in outs.items():
            runs = [json.loads(line) for line in run_fresh(code.format(threads=threads, out=str(out))).splitlines()]
            assert [name for name, _, _ in runs] == list(cli.DEMO_NAMES)
            for name, before, after in runs:
                assert before and after == before, (threads, name)
        for name in cli.DEMO_NAMES:
            one, two = outs[1] / name, outs[2] / name
            assert data_files(one) == data_files(two)
            for data in data_files(one):
                assert (one / data).read_bytes() == (two / data).read_bytes(), f"{name}/{data}"


class TestBlasThreads:
    def test_report_records_blas_threads(self, tmp_path):
        # the jacobi demo's sections are of order 120 at most, so each stage runs with every pool on one
        # thread; a tridiagonal spectra stage at order 1024 keeps the pools' own counts
        pools = numerics.blas_threads()
        assert cli.main(["demo", "jacobi", "--out", str(tmp_path / "demo")]) == 0
        stages = json.loads((tmp_path / "demo" / "report.json").read_text())["stages"]
        assert [s["blas_threads"] for s in stages] == [[1] * len(pools)] * 4
        big = write_problem(tmp_path, jacobi_stage(op="spectra", sizes=[numerics.SERIAL_BLAS_BELOW * 2]))
        assert cli.main(["run", big, "--out", str(tmp_path / "big")]) == 0
        (spectra,) = json.loads((tmp_path / "big" / "report.json").read_text())["stages"]
        assert spectra["blas_threads"] == pools and numerics.blas_threads() == pools

    @pytest.mark.parametrize(
        "doc, order",
        [
            (jacobi_stage(op="pseudo", size=511, rect=[-1.0, 1.0, -1.0, 1.0], nx=2, ny=2), 511),
            (jacobi_stage(op="classify", certified_sizes=[2, 4], uncertified_sizes=[3, 600]), 600),
            ({"kind": "upper_triangular", "analysis": [{"op": "verify", "checks": [
                {"check": "relative_bound", "cuts": [10, 700], "sizes": [10]},
                {"check": "band_case", "scan": 900}]}]}, 900),
            ({**VALID_DOCS["sl_matrix"], "analysis": [{"op": "spectra"}]}, 598),
            ({**VALID_DOCS["schrodinger"], "analysis": [{"op": "verify", "checks": []}]}, 49),
        ],
        ids=["pseudo", "classify", "verify", "sl_matrix", "schrodinger"],
    )
    def test_stage_order_is_its_largest_section(self, doc, order):
        # the order run_problem compares with SERIAL_BLAS_BELOW: a Galerkin stage's largest named size,
        # an ODE problem's one section order
        (stage,) = cli.parse_problem(doc).analysis
        assert stage["order"] == order


def run_fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter on the specexact this process imported; the code must exit 0.

    The child's PYTHONPATH is the directory that holds that package, the checkout's ``src`` or an
    installed package's site-packages, so an installed package is tested as installed."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(specexact.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


#: packages the CLI does not need: scipy.linalg's Python layer and what it imports, and scipy's other subpackages
HEAVY_MODULES = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "scipy.optimize", "scipy.sparse",
                 "scipy.special", "scipy.spatial", "numpy.ma")


class TestImportFootprint:
    # fresh interpreters: this test process has imported scipy.linalg and scipy.optimize itself
    def test_cli_import_loads_no_heavy_scipy_package(self):
        code = f"import specexact.cli, sys; print([m for m in {HEAVY_MODULES!r} if m in sys.modules])"
        assert run_fresh(code) == "[]"

    @pytest.mark.parametrize("scipy_first", [False, True], ids=["scipy_after", "scipy_before"])
    def test_scipy_linalg_shares_the_compiled_modules(self, scipy_first):
        imports = ["import specexact.cli", "import scipy.linalg"]
        code = "; ".join(
            (imports[::-1] if scipy_first else imports)
            + [
                "import numpy as np",
                "from specexact import numerics",
                "print(scipy.linalg.lapack._flapack is numerics._flapack, scipy.linalg.blas._fblas is numerics._fblas)",
                "print(scipy.linalg.eigvalsh_tridiagonal(np.array([2.0, 2.0]), np.array([1.0])))",
            ]
        )
        assert run_fresh(code).splitlines() == ["True True", "[1. 3.]"]

    def test_later_scipy_linalg_reaches_the_shared_modules_by_every_import_form(self):
        # the package attribute itself may be missing (the documented gap), but never another module
        code = (
            "import specexact.cli, sys; import scipy.linalg; from specexact import numerics; "
            "from scipy.linalg import _flapack, _fblas; import scipy.linalg._flapack as direct; "
            "print(scipy.linalg.lapack._flapack is numerics._flapack, _flapack is numerics._flapack, "
            "_fblas is numerics._fblas, direct is numerics._flapack, "
            "getattr(scipy.linalg, '_flapack', None) in (None, numerics._flapack))"
        )
        assert run_fresh(code) == "True True True True True"

    def test_compiled_modules_load_before_numpy(self):
        # SciPy's BLAS worker threads spin for about 0.1 s once loaded: numpy's import, not a run, overlaps that
        code = (
            "import sys, traceback\n"
            "class Hook:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print(any(f.name == '_scipy_linalg_extension' for f in traceback.extract_stack()))\n"
            "sys.meta_path.insert(0, Hook())\n"
            "import specexact.cli\n"
        )
        assert run_fresh(code) == "True"

    def test_scipy_laid_out_otherwise_is_imported_as_usual(self):
        # no extension suffix matches, so the loader falls back to a plain import of scipy.linalg's modules
        code = (
            "import importlib.machinery, sys; importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']; "
            "from specexact import numerics; "
            "print('scipy.linalg' in sys.modules, numerics._flapack is sys.modules['scipy.linalg._flapack'])"
        )
        assert run_fresh(code) == "True True"

    def test_demos_import_nothing_after_start_up(self, tmp_path):
        # an import inside cli.main would be timed as the run's own work
        code = (
            "import contextlib, io, sys\n"
            "import specexact.cli as cli\n"
            "before = set(sys.modules)\n"
            f"for name in {cli.DEMO_NAMES!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert cli.main(['demo', name, '--out', {str(tmp_path)!r} + '/' + name]) == 0\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        assert run_fresh(code) == "[]"


def test_oscillator_demo_and_criterion_06_make_no_full_tridiagonal_solve(tmp_path):
    # every Hermitian tridiagonal query of a windowed run, the section norm too, is answered by bisection: the
    # oscillator demo and criterion 06 (seven n = 1599 sections) make no dstevd call (all eigenvalues of a section)
    criterion_06 = {
        "kind": "schrodinger", "name": "criterion-06", "p": 0.0, "q": "x^2", "r": 0.0,
        "L_n": [float(L) for L in range(4, 11)], "m": 1600,
        "analysis": [{"op": "classify", "window": [0.0, 8.0, -1.0, 1.0], "tol": 2e-4, "quadrature_points": 32}],
    }
    problem = write_problem(tmp_path, criterion_06)
    code = (
        "import contextlib, io\n"
        "import specexact.cli as cli\n"
        "from specexact import numerics\n"
        "orders, dstevd = [], numerics._flapack.dstevd\n"
        "def counting(d, *args, **kwargs):\n"
        "    orders.append(d.shape[0])\n"
        "    return dstevd(d, *args, **kwargs)\n"
        "numerics._flapack.dstevd = counting\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = [cli.main(['demo', 'oscillator', '--out', {str(tmp_path / 'osc')!r}]),\n"
        f"          cli.main(['run', {problem!r}, '--out', {str(tmp_path / 'c06')!r}])]\n"
        "print('exit codes', rc, 'dstevd orders', orders)\n"
    )
    assert run_fresh(code) == "exit codes [0, 0] dstevd orders []"
