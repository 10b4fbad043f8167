"""Trajectory matching, limit detection and pollution classification."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst
from scipy.optimize import linear_sum_assignment

from specexact import discretize as dz, numerics, operator_model as om, resolvent_analysis as ra, spectral_tracker as st
from specexact.spectral_tracker import ClassVerdict

ZERO = lambda x: 0.0
ONE = lambda x: 1.0


def spectra(sizes, value_lists):
    return [st.SpectrumResult(s, np.asarray(v, dtype=complex)) for s, v in zip(sizes, value_lists)]


class TestMatchTrajectories:
    def test_nearest_matching(self):
        ts = st.match_trajectories(spectra([2, 3], [[1.0, 5.0], [1.1, 4.9, 9.0]]))
        paths = {(tuple(t.sizes), tuple(v.real for v in t.values)) for t in ts}
        assert ((2, 3), (1.0, 1.1)) in paths
        assert ((2, 3), (5.0, 4.9)) in paths
        assert ((3,), (9.0,)) in paths

    def test_identical_spectra(self):
        ts = st.match_trajectories(spectra([1, 2, 3], [[1.0, 2.0]] * 3))
        assert sorted(len(t) for t in ts) == [3, 3]
        for t in ts:
            assert len(set(t.values)) == 1

    def test_new_eigenvalue_starts_trajectory(self):
        ts = st.match_trajectories(spectra([1, 2], [[0.0], [0.0, 3.0]]))
        assert sorted(len(t) for t in ts) == [1, 2]

    def test_reversed_ladder_same_partition(self):
        vals = [[1.0, 5.0, 7.2], [1.05, 4.9, 7.3], [1.06, 4.85, 7.25]]
        fwd = st.match_trajectories(spectra([1, 2, 3], vals))
        rev = st.match_trajectories(spectra([1, 2, 3], vals[::-1]))
        fwd_sets = sorted(tuple(sorted(np.round(np.real(t.values), 6))) for t in fwd)
        rev_sets = sorted(tuple(sorted(np.round(np.real(t.values), 6))) for t in rev)
        assert fwd_sets == rev_sets

    def test_needs_two(self):
        with pytest.raises(ValueError):
            st.match_trajectories(spectra([1], [[1.0]]))


def dense_nn_spacing_radius(values):
    """The nearest-neighbor radius from the whole n x n distance matrix: the reference."""
    if values.shape[0] < 2:
        return float("inf")
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    med = float(np.median(dist.min(axis=1)))
    return float("inf") if med == 0.0 else 0.5 * med


class TestMedian:
    """``_median`` is ``np.median`` bit for bit, without importing ``numpy.ma``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        values=hst.lists(
            hst.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True, width=64),
            min_size=1,
            max_size=40,
        ),
        repeat=hst.integers(0, 3),
    )
    @example(values=[1.0, 2.0], repeat=0)  # even n: the mean of the two middle entries
    @example(values=[-0.0, 0.0, 1.0], repeat=0)  # odd n
    @example(values=[1.7976931348623157e308, 1.7976931348623157e308], repeat=0)  # the sum overflows
    @example(values=[5e-324, 5e-324], repeat=0)  # subnormal halves
    @example(values=[-np.inf, np.inf], repeat=0)
    def test_equals_np_median(self, values, repeat):
        x = np.asarray(values + values[:repeat], dtype=float)  # ties from repeats
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.median(x))
        with np.errstate(over="ignore", invalid="ignore"):
            got = st._median(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_nan_entry_gives_nan(self):
        assert np.isnan(st._median(np.array([1.0, np.nan, 0.0])))


def scipy_match_trajectories(spectra):
    """The matching as it was, by SciPy's assignment on the dense cost matrix: the reference."""
    sizes = [s.size for s in spectra]
    sorted_vals = []
    for s in spectra:
        w = np.asarray(s.eigenvalues, dtype=complex)
        sorted_vals.append(w[np.lexsort((w.imag, w.real))])
    trajectories, active = [], {}
    for j, v in enumerate(sorted_vals[0]):
        t = st.Trajectory()
        t.append(sizes[0], v)
        trajectories.append(t)
        active[j] = t
    for step in range(1, len(spectra)):
        prev, curr = sorted_vals[step - 1], sorted_vals[step]
        radius = dense_nn_spacing_radius(prev if prev.shape[0] <= curr.shape[0] else curr)
        next_active = {}
        if prev.size and curr.size:
            cost = np.abs(prev[:, None] - curr[None, :])
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] <= radius and i in active:
                    t = active[i]
                    t.append(sizes[step], curr[j])
                    next_active[j] = t
        for j, v in enumerate(curr):
            if j not in next_active:
                t = st.Trajectory()
                t.append(sizes[step], v)
                trajectories.append(t)
                next_active[j] = t
        active = next_active
    return trajectories


def paths(trajectories):
    return [(t.sizes, t.values) for t in trajectories]


@hst.composite
def value_pairs(draw):
    """Two value vectors of 1-8 entries: real, integer (costs tie) or complex with repeats."""
    kind = draw(hst.sampled_from(["real", "integer", "complex"]))
    m, n = draw(hst.integers(1, 8)), draw(hst.integers(1, 8))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if kind == "real":
        prev, curr = rng.standard_normal(m), rng.standard_normal(n)
    elif kind == "integer":
        prev, curr = rng.integers(0, 4, m).astype(float), rng.integers(0, 4, n).astype(float)
    else:
        pool = rng.integers(-2, 3, 4) + 1j * rng.integers(-2, 3, 4)
        prev, curr = rng.choice(pool, m), rng.choice(pool, n)
    return prev.astype(complex), curr.astype(complex)


class TestAssignment:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(value_pairs())
    @example((np.array([0.0, 1.0, 2.0, 3.0, 4.0], dtype=complex), np.array([2.0], dtype=complex)))
    @example((np.array([2.0], dtype=complex), np.array([0.0, 1.0, 2.0, 3.0, 4.0], dtype=complex)))
    @example((np.ones(6, dtype=complex), np.ones(6, dtype=complex)))
    def test_property_same_as_scipy(self, pair):
        prev, curr = pair
        rows, cols = st._assignment(prev, curr)
        want_rows, want_cols = linear_sum_assignment(np.abs(prev[:, None] - curr[None, :]))
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)

    @pytest.mark.parametrize(
        "prev, curr",
        [
            ([0.0, np.nan], [1.0, 2.0]),
            ([0.0, 1.0], [complex(2.0, np.inf), 3.0]),
            ([np.inf], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [0.0, -np.inf]),
            ([1e308, 0.0], [-1e308, 1.0]),  # finite values whose difference overflows
        ],
    )
    def test_nonfinite_cost_raises(self, prev, curr):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            st._assignment(np.asarray(prev, dtype=complex), np.asarray(curr, dtype=complex))

    def test_jacobi_ladder_same_trajectories_as_scipy(self):
        # interlaced real spectra of nested Hermitian sections, matched in real arithmetic
        specs = [
            st.SpectrumResult(k, numerics.eig_dense(om.truncate(om.jacobi_spec(), k)).eigenvalues)
            for k in (199, 200, 201)
        ]
        assert paths(st.match_trajectories(specs)) == paths(scipy_match_trajectories(specs))

    def test_unwindowed_ladder_scale(self):
        # 1599, 1600 and 1601 converging complex eigenvalues, one new value per rung
        rng = np.random.default_rng(5)
        base = rng.standard_normal(1601) + 1j * rng.standard_normal(1601)
        specs = [
            st.SpectrumResult(n, base[:n] + 1e-4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
            for n in (1599, 1600, 1601)
        ]
        start = time.perf_counter()
        got = st.match_trajectories(specs)
        seconds = time.perf_counter() - start
        tracemalloc.start()
        try:
            st.match_trajectories(specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths(got) == paths(scipy_match_trajectories(specs))
        assert seconds < 2.0
        assert peak < 10e6


class TestNearestNeighborRadius:
    @pytest.mark.parametrize("n", [1, 2, 3, 300, 1000])
    def test_same_as_dense(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert st._nn_spacing_radius(values) == dense_nn_spacing_radius(values)
        duplicated = np.concatenate([values, values[: n // 3]])
        assert st._nn_spacing_radius(duplicated) == dense_nn_spacing_radius(duplicated)

    def test_all_equal_is_infinite(self):
        assert st._nn_spacing_radius(np.full(700, 2.0 + 1j)) == float("inf")


class TestDetectLimits:
    def test_cauchy_tail_candidate(self):
        t = st.Trajectory()
        for i, v in enumerate([1.1, 1.01, 1.001, 1.0001]):
            t.append(i + 1, v)
        cands = st.detect_limits([t], 1e-2, ladder_length=4)
        assert len(cands) == 1
        assert cands[0].value == pytest.approx(1.0001)
        assert cands[0].multiplicity == 1

    def test_oscillation_rejected(self):
        t = st.Trajectory()
        for i, v in enumerate([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]):
            t.append(i + 1, v)
        assert st.detect_limits([t], 1e-2, ladder_length=6) == []

    def test_merge_multiplicity(self):
        t1, t2 = st.Trajectory(), st.Trajectory()
        for i in range(4):
            t1.append(i + 1, 2.0 + 1e-9 * i)
            t2.append(i + 1, 2.0 - 1e-9 * i)
        cands = st.detect_limits([t1, t2], 1e-3, ladder_length=4)
        assert len(cands) == 1
        assert cands[0].multiplicity == 2
        assert cands[0].value == pytest.approx(2.0, abs=1e-6)

    def test_short_span_rejected(self):
        t = st.Trajectory()
        t.append(9, 1.0)
        t.append(10, 1.0)
        assert st.detect_limits([t], 1e-2, ladder_length=10) == []


class TestClassifyPoint:
    def test_jacobi_zero_is_spurious(self):
        cert = ra.galerkin_ladder(om.jacobi_spec(), range(2, 42, 2))
        uncert = ra.galerkin_ladder(om.jacobi_spec(), range(3, 43, 2))
        cp = st.classify_point(0.0, cert, uncert)
        assert cp.verdict is ClassVerdict.SPURIOUS
        assert cp.probe.verdict.value == "BoundedEvidence"

    def test_oscillator_ground_state(self):
        prob = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=tuple(range(4, 11)))
        lad = ra.SectionLadder("osc", tuple(range(1, 8)), lambda n: dz.schrodinger_assemble(prob, n, 400))
        pts = st.track_and_classify(lad, window=(0.0, 2.0, -1.0, 1.0), tol=5e-3)
        assert len(pts) == 1
        assert pts[0].verdict is ClassVerdict.TRUE_EIGENVALUE
        assert pts[0].multiplicity == 1
        assert pts[0].value == pytest.approx(1.0, abs=5e-3)

    def test_resolvent_set_point_undecided(self):
        spec = om.OperatorSpec("diag", lambda k: {0: np.arange(1.0, k + 1)})
        diag = ra.galerkin_ladder(spec, range(2, 16, 2))
        cp = st.classify_point(1.5, diag)
        assert cp.verdict is ClassVerdict.UNDECIDED
        assert "resolvent set" in cp.note

    def test_conjugation_equivariance(self):
        prob = dz.SchrodingerProblem(
            "cosc", p=ZERO, q=lambda x: 1j * x * x, r=ZERO, L_n=(3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
        )
        lad = ra.SectionLadder("c", tuple(range(1, 8)), lambda n: dz.schrodinger_assemble(prob, n, 200))
        pts = st.track_and_classify(lad, window=(0.0, 2.0, 0.0, 2.0), tol=5e-3)
        assert len(pts) == 1
        lam = pts[0].value
        cp = st.classify_point(lam, lad, tol=5e-3)
        # the adjoint ladder: each section's conjugate transpose, declared from its diagonals
        adj = ra.SectionLadder(
            "c*", lad.sizes, lambda n: numerics.Section({-off: d.conj() for off, d in lad.matrix(n).diagonals.items()})
        )
        cp_adj = st.classify_point(np.conj(lam), adj, tol=5e-3)
        assert cp.verdict is cp_adj.verdict
        assert cp.multiplicity == cp_adj.multiplicity

    def test_verdict_stable_under_ladder_extension(self):
        short = ra.galerkin_ladder(om.jacobi_spec(), range(2, 30, 2))
        longer = ra.galerkin_ladder(om.jacobi_spec(), range(2, 42, 2))
        uncert_s = ra.galerkin_ladder(om.jacobi_spec(), range(3, 31, 2))
        uncert_l = ra.galerkin_ladder(om.jacobi_spec(), range(3, 43, 2))
        v1 = st.classify_point(0.0, short, uncert_s).verdict
        v2 = st.classify_point(0.0, longer, uncert_l).verdict
        assert v1 is v2 is ClassVerdict.SPURIOUS

    def test_contour_blocked_degrades_to_undecided(self):
        # eigenvalue exactly on the auto-chosen contour circle: no exception,
        # verdict degrades with a contour-blocked note
        lad = ra.SectionLadder("d", tuple(range(1, 7)), lambda s: np.diag([0.0, 1.0, 5.0]))
        cp = st.classify_point(0.0, lad)
        assert cp.verdict is ClassVerdict.UNDECIDED
        assert "contour-blocked" in cp.note

    def test_oscillator_verdict_stable_under_extension(self):
        prob = dz.SchrodingerProblem(
            "osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=tuple(float(L) for L in range(4, 11))
        )
        short = ra.SectionLadder("s", tuple(range(1, 7)), lambda n: dz.schrodinger_assemble(prob, n, 300))
        longer = ra.SectionLadder("l", tuple(range(1, 8)), lambda n: dz.schrodinger_assemble(prob, n, 300))
        lam = short.spectrum(6).eigenvalues[0]
        v1 = st.classify_point(lam, short, tol=5e-3)
        lam2 = longer.spectrum(7).eigenvalues[0]
        v2 = st.classify_point(lam2, longer, tol=5e-3)
        assert v1.verdict is v2.verdict is ClassVerdict.TRUE_EIGENVALUE
        assert v1.multiplicity == v2.multiplicity == 1

    def test_hermitian_true_eigenvalue_near_real(self):
        prob = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=tuple(range(4, 11)))
        lad = ra.SectionLadder("osc", tuple(range(1, 8)), lambda n: dz.schrodinger_assemble(prob, n, 300))
        pts = st.track_and_classify(lad, window=(0.0, 4.0, -1.0, 1.0), tol=5e-3)
        for p in pts:
            if p.verdict is ClassVerdict.TRUE_EIGENVALUE:
                assert abs(p.value.imag) <= max(1e-6 * p.probe.scale, 10 * 5e-3)


class TestMultiplicityCheck:
    def test_jordan_block_constant_ladder(self):
        lad = ra.SectionLadder("j", (1, 2, 3, 4), lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]))
        mc = st.multiplicity_check(0.0, lad, radius=0.5)
        assert mc.multiplicity == 2
        assert mc.ranks == [2, 2, 2, 2]
        assert mc.first_stable_size == 1

    def test_dirichlet_laplacian_simple(self):
        prob = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, tuple(1.0 / n for n in (4, 5, 6, 8, 10, 16)), 1.0, 0.0)
        lad = ra.SectionLadder("lap", tuple(range(1, 7)), lambda n: dz.sl_assemble(prob, n, 200))
        mc = st.multiplicity_check(1.0, lad, radius=0.6)
        assert mc.multiplicity == 1

    def test_block_duplication_doubles(self):
        p1 = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, tuple(1.0 / n for n in (4, 6, 8, 10)), 1.0, 0.0)
        mp = dz.SLMatrixProblem("b", p1, p1, 1.0, 1.0, ZERO, ZERO, ZERO, ZERO, 0, 0, 0, 0)
        scalar = ra.SectionLadder("s", (1, 2, 3, 4), lambda n: dz.sl_assemble(p1, n, 200))
        block = ra.SectionLadder("b", (1, 2, 3, 4), lambda n: dz.sl_block_assemble(mp, n, 200))
        m_scalar = st.multiplicity_check(1.0, scalar, radius=0.6).multiplicity
        m_block = st.multiplicity_check(1.0, block, radius=0.6).multiplicity
        assert m_scalar == 1 and m_block == 2

    def test_default_radius_from_spectral_gap(self):
        ONE_F = lambda x: 1.0
        prob = dz.SLProblem(
            "lap", ONE_F, ZERO, 0.0, np.pi, 0.0, tuple(1.0 / n for n in (4, 5, 6, 8, 10, 16)), 1.0, 0.0
        )
        lad = ra.SectionLadder("lap", tuple(range(1, 7)), lambda n: dz.sl_assemble(prob, n, 200))
        lam = lad.spectrum(6).eigenvalues[0].real
        mc = st.multiplicity_check(lam, lad)
        assert mc.multiplicity == 1

    def test_sum_rule_over_disjoint_contours(self):
        lad = ra.SectionLadder("d", (1, 2, 3), lambda s: np.diag([0.0, 1.0, 5.0, 5.2]))
        r1 = st.multiplicity_check(0.5, lad, radius=1.0).multiplicity
        r2 = st.multiplicity_check(5.1, lad, radius=0.5).multiplicity
        assert r1 + r2 == 4

    def test_instability_reported_not_raised(self):
        # ladder whose enclosed count changes at every size
        mats = {1: np.diag([0.0, 3.0]), 2: np.diag([0.0, 0.1]), 3: np.diag([0.0, 3.0]), 4: np.diag([0.0, 0.1])}
        lad = ra.SectionLadder("w", (1, 2, 3, 4), lambda s: mats[s])
        mc = st.multiplicity_check(0.0, lad, radius=0.5)
        assert mc.multiplicity is None
        assert mc.note
