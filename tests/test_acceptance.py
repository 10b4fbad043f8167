"""Acceptance suite: one test per criterion, each at its stated tolerance.

Frozen fixtures come from brute-force oracle runs recorded next to each
criterion (direct dense eigensolves / closed forms, independent of the code
paths under test).  Every test prints one pass line; run with `pytest -s
tests/test_acceptance.py` to see them.
"""

import json
import math
import time

import numpy as np
import pytest

from specexact import cli, discretize as dz, hypothesis_checker as hc, numerics
from specexact import operator_model as om, resolvent_analysis as ra, spectral_tracker as st
from specexact.hypothesis_checker import Verdict
from specexact.spectral_tracker import ClassVerdict

import dense_reference

ZERO = lambda x: 0.0
ONE = lambda x: 1.0

# Oracle run (numpy eigvalsh over even sections 2..40): min |eigenvalue| is
# 1.9092722171925638, attained at size 40.
JACOBI_EVEN_FLOOR = 1.909

# Oracle run (dense sigma_max of S_n (T_n - 50i)^{-1} on the 200-section
# upper-triangular split): gamma_200 = 0.156870116785.
UT_GAMMA_200 = 0.156870116785


def ok(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def test_criterion_01_jacobi_pollution():
    start = time.perf_counter()
    spec = om.jacobi_spec()
    for k in range(3, 42, 2):
        w = numerics.eig_dense(om.truncate(spec, k).dense()).eigenvalues
        assert np.min(np.abs(w)) <= 1e-10
    for k in range(2, 41, 2):
        w = numerics.eig_dense(om.truncate(spec, k).dense()).eigenvalues
        assert np.min(np.abs(w)) >= JACOBI_EVEN_FLOOR
    certified = ra.galerkin_ladder(spec, range(2, 42, 2))
    uncertified = ra.galerkin_ladder(spec, range(3, 43, 2))
    verdict = st.classify_point(0.0, certified, uncertified)
    assert verdict.verdict is ClassVerdict.SPURIOUS
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    ok(1, f"jacobi pollution at 0 (Spurious; floor {JACOBI_EVEN_FLOOR}) in {elapsed:.2f}s")


def test_criterion_02_normal_resolvent_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(400):
        n = int(rng.integers(2, 31))
        if case < 200:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = a + a.conj().T
            spectrum = np.linalg.eigvalsh(m)  # oracle
        else:
            spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = np.diag(spectrum)  # oracle: the entries are the spectrum
        scale = max(np.abs(spectrum).max(), 1.0)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale
            dist = np.min(np.abs(np.asarray(spectrum, dtype=complex) - z))
            got = ra.resolvent_norm(m, z)
            assert abs(got - 1.0 / dist) <= 1e-8 * (1.0 / dist)
            checked += 1
    ok(2, f"resolvent norm = 1/dist for normal matrices at {checked} probes")


def test_criterion_03_contour_multiplicity():
    rng = np.random.default_rng(777)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 13))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = numerics.eig_dense(m).eigenvalues
        center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        radius = float(rng.uniform(0.3, 2.5))
        if np.min(np.abs(np.abs(w - center) - radius)) < 0.1:
            continue
        rank = ra.contour_rank(m, center, radius).rank
        inside = int(np.count_nonzero(np.abs(w - center) < radius))
        assert rank == inside
        done += 1
    ok(3, "contour rank equals enclosed clustered multiplicity on 100 random matrices")


def test_criterion_04_sturm_liouville_convergence():
    start = time.perf_counter()
    prob = dz.SLProblem("lap", ONE, ZERO, 0.0, math.pi, 0.0, (0.0,), 1.0, 0.0)
    lowest = {}
    for m in (250, 500, 1000, 2000):
        w = numerics.eig_dense(dz.sl_assemble(prob, 1, m).dense()).eigenvalues.real
        lowest[m] = w[0]
        if m == 2000:
            np.testing.assert_allclose(w[:3], [1.0, 4.0, 9.0], atol=1e-2)
    # Richardson extrapolate from the two finest grids, then observed orders
    lam_star = (4.0 * lowest[2000] - lowest[1000]) / 3.0
    errs = {m: abs(lowest[m] - lam_star) for m in (250, 500, 1000)}
    orders = [np.log2(errs[250] / errs[500]), np.log2(errs[500] / errs[1000])]
    assert all(1.8 <= p <= 2.2 for p in orders)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(4, f"SL lowest three within 1e-2, observed orders {[f'{p:.3f}' for p in orders]} in {elapsed:.1f}s")


def test_criterion_05_interval_truncation_exactness():
    a_n = tuple(1.0 / n for n in range(10, 101, 10))
    tau = dz.SLProblem("lap", ONE, ZERO, 0.0, math.pi, 0.0, a_n, 1.0, 0.0)
    mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, ZERO, ZERO, ZERO, ZERO, 0, 0, 0, 0)
    ladder = ra.SectionLadder(
        "sl2x2", tuple(range(1, 11)), lambda n: dz.sl_block_assemble(mp, n, 300)
    )
    points = st.track_and_classify(ladder, window=(0.0, 2.0, -1.0, 1.0), tol=2e-3)
    assert len(points) == 1
    p = points[0]
    assert abs(p.value - 1.0) <= 1e-2
    assert p.verdict is ClassVerdict.TRUE_EIGENVALUE
    assert p.multiplicity == 2
    mc = st.multiplicity_check(p.value, ladder, radius=1.0)
    assert mc.multiplicity == 2
    ok(5, f"interval-truncated 2x2 lowest limit {p.value.real:.5f} with multiplicity 2")


def test_criterion_06_schrodinger_domain_truncation():
    start = time.perf_counter()
    prob = dz.SchrodingerProblem(
        "osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=tuple(float(L) for L in range(4, 11))
    )
    ladder = ra.SectionLadder(
        "osc", tuple(range(1, 8)), lambda n: dz.schrodinger_assemble(prob, n, 1600)
    )
    points = st.track_and_classify(
        ladder, window=(0.0, 8.0, -1.0, 1.0), tol=2e-4, quadrature_points=32
    )
    values = sorted(p.value.real for p in points)
    np.testing.assert_allclose(values, [1.0, 3.0, 5.0, 7.0], atol=1e-3)
    for p in points:
        assert p.verdict is ClassVerdict.TRUE_EIGENVALUE
        assert p.multiplicity == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(6, f"oscillator limits {[f'{v:.5f}' for v in values]} all TrueEigenvalue(1) in {elapsed:.1f}s")


def test_criterion_07_relative_bound_jacobi():
    sizes = list(range(2, 202, 2))
    split = om.split_blocks(om.jacobi_spec(), sizes)
    t_secs = [split.diag_section(k) for k in sizes]
    s_secs = [split.coupling_section(k) for k in sizes]
    rep = hc.relative_bound(t_secs, s_secs, 0.0, sizes)
    gammas = rep.per_size["gamma"]
    assert np.all(gammas <= 0.5 + 1e-6)
    big = np.asarray(sizes) >= 50
    assert np.all(np.abs(gammas[big] - 0.5) <= 1e-3)
    assert rep.verdict is Verdict.PASS
    ok(7, f"jacobi relative bound sup gamma = {rep.constants['gamma_sup']:.9f} <= 0.5 + 1e-6")


def test_criterion_08_uniform_decay_jacobi_blocks():
    blocks = [np.array([[0.0, 2.0 * n], [2.0 * n, 0.0]]) for n in range(1, 101)]
    rep = hc.uniform_resolvent_decay(blocks, 0.0, tag="Galerkin")
    want = 1.0 / (2.0 * np.arange(1, 101))
    assert np.max(np.abs(rep.per_size["d"] - want)) <= 1e-12
    assert rep.verdict is Verdict.PASS
    ok(8, "jacobi block resolvents d_n = 1/(2n) within 1e-12, PassEvidence")


def test_criterion_09_neumann_inequality_across_demos():
    checked = 0
    # jacobi split at 0
    sizes = list(range(2, 42, 2))
    split = om.split_blocks(om.jacobi_spec(), sizes)
    cases = [
        (0.0, [split.diag_section(k) for k in sizes], [split.coupling_section(k) for k in sizes]),
    ]
    # upper-triangular split at 50i
    ut_sizes = [50, 100, 150, 200]
    ut_split = om.split_blocks(om.upper_triangular_spec(), range(1, 201))
    cases.append(
        (50j, [ut_split.diag_section(k) for k in ut_sizes], [ut_split.coupling_section(k) for k in ut_sizes])
    )
    for lam, t_secs, s_secs in cases:
        rep = hc.relative_bound(t_secs, s_secs, lam)
        for t, s, g in zip(t_secs, s_secs, rep.per_size["gamma"]):
            if g < 1.0:
                eye = np.eye(t.n)
                lhs = dense_reference.sigma_min((t.dense() + s.dense()) - lam * eye)
                rhs = (1.0 - g) * dense_reference.sigma_min(t.dense() - lam * eye)
                assert lhs >= rhs - 1e-10
                checked += 1
    ok(9, f"Neumann lower bound held on {checked} sections with gamma < 1")


def test_criterion_10_upper_triangular_case_c():
    lam = 50j
    profile = om.band_profile(om.upper_triangular_spec(), 200, lam=lam, normalize_by_diag=True)
    js = np.arange(1, 201)
    want_dj = js / np.abs(js.astype(complex) ** 3 - lam)
    want_dj[0] = 0.0  # no off-diagonal entries use column 1
    assert np.max(np.abs(profile.col_envelope - want_dj)) <= 1e-12
    np.testing.assert_array_equal(profile.col_counts, js - 1)
    assert profile.hint == "c"
    sizes = [50, 100, 150, 200]
    split = om.split_blocks(om.upper_triangular_spec(), range(1, 201))
    rep = hc.relative_bound(
        [split.diag_section(k) for k in sizes], [split.coupling_section(k) for k in sizes], lam, sizes
    )
    assert rep.verdict is Verdict.PASS
    assert rep.constants["gamma_sup"] < 1.0
    assert rep.constants["gamma_sup"] == pytest.approx(UT_GAMMA_200, rel=1e-6)
    ok(10, f"case (c) profile exact; gamma_sup = {rep.constants['gamma_sup']:.9f} (frozen oracle)")


def test_criterion_11_demo_determinism(tmp_path, monkeypatch):
    for name in cli.DEMO_NAMES:
        out1 = tmp_path / f"{name}-t1"
        out2 = tmp_path / f"{name}-t4"
        monkeypatch.setenv(cli.ENV_THREADS, "1")
        assert cli.main(["demo", name, "--out", str(out1)]) == 0
        monkeypatch.setenv(cli.ENV_THREADS, "4")
        assert cli.main(["demo", name, "--out", str(out2)]) == 0
        names1 = sorted(
            p.name for p in out1.iterdir() if p.name != "report.json" and p.suffix in (".csv", ".json")
        )
        names2 = sorted(
            p.name for p in out2.iterdir() if p.name != "report.json" and p.suffix in (".csv", ".json")
        )
        assert names1 == names2 and names1
        for fname in names1:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), f"{name}/{fname}"
    ok(11, f"all {len(cli.DEMO_NAMES)} demos byte-identical across repeated runs and thread counts")


def test_demo_gallery_verdict_summaries(tmp_path, capsys):
    """The flagship demo prints the pollution verdict; oscillator prints 4 true limits."""
    assert cli.main(["demo", "jacobi", "--out", str(tmp_path / "j")]) == 0
    out = capsys.readouterr().out
    assert "Spurious" in out and "odd sections" in out
    assert cli.main(["demo", "upper_triangular", "--out", str(tmp_path / "u")]) == 0
    out = capsys.readouterr().out
    assert "band case (c) PassEvidence" in out
    assert "D_j profile head" in out
    assert cli.main(["demo", "oscillator", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "TrueEigenvalue(1)" in l]
    assert len(lines) == 4
    found = sorted(float(l.split("=")[1].split("+")[0]) for l in lines)
    np.testing.assert_allclose(found, [1.0, 3.0, 5.0, 7.0], atol=5e-3)
