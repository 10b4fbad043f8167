"""Resolvent norms, pseudospectra, region probes and contour projections."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst
from scipy.optimize import linear_sum_assignment

from specexact import cli, discretize as dz, numerics, operator_model as om, resolvent_analysis as ra
from specexact.errors import ContourError, ResolutionError
from specexact.resolvent_analysis import ProbeVerdict

import dense_reference


def closed_form_sigma_min_2x2_triangular(a, b):
    """Smallest singular value of [[a, b], [0, a]]: stable form via det/sigma_max."""
    t = 2 * abs(a) ** 2 + b**2
    disc = np.sqrt(t**2 - 4 * abs(a) ** 4)
    sigma_max = np.sqrt((t + disc) / 2)
    return abs(a) ** 2 / sigma_max


class TestResolventNorm:
    def test_normal_distance(self):
        assert ra.resolvent_norm(np.diag([0.0, 1.0]), 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        assert ra.resolvent_norm(np.eye(4), 3.0) == pytest.approx(0.5, abs=1e-14)

    def test_antidiagonal(self):
        assert ra.resolvent_norm([[0.0, 2.0], [2.0, 0.0]], 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_infinite_on_exact_eigenvalue_of_diagonal(self):
        assert ra.resolvent_norm(np.diag([2.0, 3.0]), 2.0) == np.inf

    def test_lower_bound_vs_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = numerics.eig_dense(m).eigenvalues
            z = complex(rng.standard_normal(), rng.standard_normal())
            dist = np.min(np.abs(w - z))
            if dist == 0.0:
                continue
            assert ra.resolvent_norm(m, z) >= 1.0 / dist - 1e-10


class TestPseudospectrumGrid:
    def test_node_value(self):
        g = ra.pseudospectrum_grid(np.diag([0.0, 1.0]), (-1, 2, -1, 1), 7, 5)
        ix = int(np.argmin(np.abs(g.re_points - 0.5)))
        iy = int(np.argmin(np.abs(g.im_points)))
        assert g.values[iy, ix] == pytest.approx(2.0, abs=1e-12)

    def test_hermitian_normality_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        w = np.linalg.eigvalsh(m)
        g = ra.pseudospectrum_grid(m, (-4, 4, -2, 2), 9, 7)
        for re, im, val in g.rows():
            want = 1.0 / np.min(np.abs(w - complex(re, im)))
            assert val == pytest.approx(want, rel=1e-8)

    def test_shifted_nilpotent_sanity(self):
        m = np.array([[0.0, 100.0], [0.0, 0.0]])
        g = ra.pseudospectrum_grid(m, (0.05, 0.15, -0.05, 0.05), 3, 3)
        ix = int(np.argmin(np.abs(g.re_points - 0.1)))
        iy = int(np.argmin(np.abs(g.im_points)))
        z = complex(g.re_points[ix], g.im_points[iy])
        want = 1.0 / closed_form_sigma_min_2x2_triangular(-z, 100.0)
        assert g.values[iy, ix] == pytest.approx(want, rel=1e-10)
        assert g.values[iy, ix] >= 1000.0

    def test_csv_format(self):
        g = ra.pseudospectrum_grid(np.diag([0.0, 1.0]), (0, 1, 0, 1), 2, 2)
        buf = io.StringIO()
        g.values[0, 0] = np.inf
        g.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "re,im,resnorm"
        assert len(lines) == 5
        assert lines[1].endswith(",inf")
        # every finite number round-trips
        for line in lines[2:]:
            for tok in line.split(","):
                float(tok)

    def test_degenerate_rect(self):
        with pytest.raises(ValueError):
            ra.pseudospectrum_grid(np.eye(2), (0, 0, 0, 1), 3, 3)


class TestRegionProbe:
    def test_jacobi_even_bounded(self):
        lad = ra.galerkin_ladder(om.jacobi_spec(), range(2, 42, 2))
        probe = ra.region_probe(lad, 0.0)
        assert probe.verdict is ProbeVerdict.BOUNDED
        assert probe.values.min() > 1.0

    def test_jacobi_odd_unbounded(self):
        lad = ra.galerkin_ladder(om.jacobi_spec(), range(3, 43, 2))
        probe = ra.region_probe(lad, 0.0)
        assert probe.verdict is ProbeVerdict.UNBOUNDED
        assert probe.values[-1] < 1e-10 * probe.scale

    def test_identity_constant(self):
        identity = om.OperatorSpec("identity", lambda k: {0: np.ones(k)})
        lad = ra.galerkin_ladder(identity, range(2, 16, 2))
        probe = ra.region_probe(lad, 2.0)
        assert probe.verdict is ProbeVerdict.BOUNDED
        np.testing.assert_allclose(probe.values, 1.0, atol=1e-14)

    def test_extension_preserves_verdict(self):
        spec = om.jacobi_spec()
        short = ra.region_probe(ra.galerkin_ladder(spec, range(2, 30, 2)), 0.0)
        longer = ra.region_probe(ra.galerkin_ladder(spec, range(2, 50, 2)), 0.0)
        assert short.verdict is longer.verdict is ProbeVerdict.BOUNDED
        short_odd = ra.region_probe(ra.galerkin_ladder(spec, range(3, 31, 2)), 0.0)
        longer_odd = ra.region_probe(ra.galerkin_ladder(spec, range(3, 51, 2)), 0.0)
        assert short_odd.verdict is longer_odd.verdict is ProbeVerdict.UNBOUNDED

    def test_short_ladder_rejected(self):
        with pytest.raises(ValueError):
            ra.region_probe(ra.galerkin_ladder(om.jacobi_spec(), (2, 4, 6)), 0.0)

    #: each probe threshold: the sigma_min ladder at z = 0 as a function of the factor e that places
    #: its decided quantity at e times the threshold, the verdicts at e = 1 -+ 1e-6, and that quantity
    #: over the threshold, read from the probe's ratios
    THRESHOLDS = {
        "zero_floor": (
            lambda e: [e * ra.PROBE_ZERO_FLOOR * 10.0] * 6,
            ProbeVerdict.UNBOUNDED, ProbeVerdict.INCONCLUSIVE,
            lambda r: r["final_over_zero_floor"],
        ),
        "bounded_floor": (
            lambda e: [e * ra.PROBE_BOUNDED_FLOOR * 10.0] * 6,
            ProbeVerdict.INCONCLUSIVE, ProbeVerdict.BOUNDED,
            lambda r: r["min_over_bounded_floor"],
        ),
        "decay_ratio_final": (
            lambda e: [1.0] * 5 + [e * ra.PROBE_DECAY_RATIO],
            ProbeVerdict.INCONCLUSIVE, ProbeVerdict.BOUNDED,
            lambda r: r["final_over_first"] / ra.PROBE_DECAY_RATIO,
        ),
        "decay_ratio_tail": (
            # the tail third's geometric mean is e * PROBE_DECAY_RATIO, its final value far below the first
            lambda e: [1.0] * 4 + [(e * ra.PROBE_DECAY_RATIO) ** 2 / 0.05, 0.05],
            ProbeVerdict.UNBOUNDED, ProbeVerdict.INCONCLUSIVE,
            lambda r: r["tail_over_head"] / ra.PROBE_DECAY_RATIO,
        ),
        "final_drop": (
            lambda e: [1.0] * 4 + [ra.PROBE_FINAL_DROP, e * ra.PROBE_FINAL_DROP],
            ProbeVerdict.UNBOUNDED, ProbeVerdict.INCONCLUSIVE,
            lambda r: r["final_over_first"] / ra.PROBE_FINAL_DROP,
        ),
    }

    @pytest.mark.parametrize("threshold", sorted(THRESHOLDS))
    def test_verdict_flips_at_threshold(self, threshold):
        values, below, above, ratio = self.THRESHOLDS[threshold]
        for e, verdict in ((1.0 - 1e-6, below), (1.0 + 1e-6, above)):
            sigmas = values(e)
            # diag(10, v_k): sigma_min at 0 is v_k, and the largest section's norm, the scale, is 10
            section = lambda k: numerics.Section({0: np.array([10.0, sigmas[k - 1]])})
            probe = ra.region_probe(ra.SectionLadder("diagonal", range(1, 7), section), 0.0)
            assert probe.scale == pytest.approx(10.0, rel=1e-14)
            np.testing.assert_allclose(probe.values, sigmas, rtol=1e-14)
            assert probe.verdict is verdict, (threshold, e)
            assert (ratio(probe.ratios) < 1.0) == (e < 1.0)


class TestContourRank:
    def test_single_enclosed(self):
        assert ra.contour_rank(np.diag([0.0, 5.0]), 0.0, 1.0).rank == 1

    def test_jordan_block_multiplicity(self):
        assert ra.contour_rank([[0.0, 1.0], [0.0, 0.0]], 0.0, 1.0).rank == 2

    def test_two_of_three(self):
        assert ra.contour_rank(np.diag([0.1, 0.2, 5.0]), 0.0, 1.0).rank == 2

    def test_quadrature_refinement_invariance(self):
        m = np.array([[0.3, 1.0, 0.0], [0.0, 0.1, 2.0], [0.0, 0.0, 4.0]])
        r1 = ra.contour_rank(m, 0.2, 1.0, quadrature_points=32)
        r2 = ra.contour_rank(m, 0.2, 1.0, quadrature_points=64)
        assert r1.rank == r2.rank == 2
        # converged trapezoid: doubling changes projection entries negligibly
        assert np.abs(r1.projection - r2.projection).max() <= 1e-8

    def test_sum_rule(self):
        m = np.diag([0.0, 1.0, 5.0, 5.2])
        ranks = [
            ra.contour_rank(m, 0.5, 1.0).rank,
            ra.contour_rank(m, 5.1, 0.5).rank,
        ]
        assert sum(ranks) == 4

    def test_matches_eig_multiplicities_random(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 20:
            n = int(rng.integers(2, 13))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = numerics.eig_dense(m).eigenvalues
            center = complex(rng.standard_normal(), rng.standard_normal())
            radius = float(rng.uniform(0.5, 2.0))
            if np.min(np.abs(np.abs(w - center) - radius)) < 0.1:
                continue
            rank = ra.contour_rank(m, center, radius).rank
            inside = int(np.count_nonzero(np.abs(w - center) < radius))
            assert rank == inside
            done += 1

    def test_eigenvalue_near_contour_raises(self):
        with pytest.raises(ContourError):
            ra.contour_rank(np.diag([1.0, 5.0]), 0.0, 1.0)

    def test_q_minimum(self):
        with pytest.raises(ValueError):
            ra.contour_rank(np.eye(2), 0.0, 0.5, quadrature_points=8)

    def test_banded_path_matches_dense(self):
        # tridiagonal of dimension >= 64 exercises the banded factorization
        rng = np.random.default_rng(9)
        n = 80
        main = rng.uniform(1.0, 2.0, n)
        off = rng.uniform(0.1, 0.3, n - 1)
        m = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        w = np.linalg.eigvalsh(m)
        center = float(np.median(w))
        radius = 0.3
        if np.min(np.abs(np.abs(w - center) - radius)) < 0.02:
            center += 0.01
        rank = ra.contour_rank(m, center, radius).rank
        assert rank == int(np.count_nonzero(np.abs(w - center) < radius))


def contour_nodes(section, center, radius, q):
    """The nodes contour_rank factors, in its order: the upper half circle of a real problem."""
    nodes = center + radius * np.exp(2j * np.pi * np.arange(q) / q)
    real_pairs = section.real and complex(center).imag == 0.0 and q % 2 == 0
    return nodes[: q // 2 + 1] if real_pairs else nodes


def old_rule_refuses(section, center, radius, q):
    """The contour guard that factors each node in turn and power-estimates it: its message, or None.

    The message is the ContourError of the first node in order whose
    factorization fails or whose estimate exceeds the limit.
    """
    limit = ra._PRECONDITION_RESNORM / radius
    for z in contour_nodes(section, center, radius, q):
        try:
            fact = section.factor(z)
        except np.linalg.LinAlgError as exc:
            return f"eigenvalue on the contour: factorization at node {z} failed ({exc})"
        est = fact.inverse_norm_estimate()
        if not np.isfinite(est) or est > limit:
            return f"eigenvalue too close to the contour: resolvent norm ~{est:.3e} at node {z} exceeds {limit:.3e}"
    return None


def refuses(section, center, radius, q):
    """The message of the ContourError contour_rank raises, or None; a ResolutionError is no refusal."""
    try:
        ra.contour_rank(section, center, radius, q)
    except ContourError as exc:
        return str(exc)
    except ResolutionError:
        return None
    return None


def hermitian_with_eigenvalue(rng, n, lam, half, complex_a):
    """A Hermitian section with band half-width ``half`` (n - 1: dense) and the exact eigenvalue lam.

    Random entries, with row and column n // 2 cut off the band, so lam on
    the diagonal there is an eigenvalue whatever the rest is.
    """
    i, j = np.indices((n, n))
    a = rng.standard_normal((n, n)) * (np.abs(i - j) <= half)
    if complex_a:
        a = a + 1j * rng.standard_normal((n, n)) * (np.abs(i - j) <= half) * (i != j)
    a = (a + a.conj().T) / 2
    k = n // 2
    a[k, :] = a[:, k] = 0.0
    a[k, k] = lam
    return numerics.Section(a)


class TestHermitianContourGuard:
    """Hermitian sections' nodes are cleared as any other section's, and the same contours are refused."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        storage=hst.sampled_from(["tridiagonal", "pentadiagonal", "dense"]),
        complex_a=hst.booleans(),
        distance=hst.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-3, 0.3]),
        center_im=hst.sampled_from([0.0, 0.0, 0.4, -0.7]),
    )
    @example(seed=0, storage="tridiagonal", complex_a=False, distance=1e-9, center_im=0.0)
    @example(seed=1, storage="dense", complex_a=True, distance=1e-9, center_im=0.0)
    def test_property_refuses_as_the_old_rule(self, seed, storage, complex_a, distance, center_im):
        # an eigenvalue at ``distance`` r outside or inside the circle, beside
        # the real node c + r, or beside the circle where it crosses the real axis
        rng = np.random.default_rng(seed)
        n = 40 if storage == "dense" else 96
        half = {"tridiagonal": 1, "pentadiagonal": 2, "dense": n - 1}[storage]
        center, radius = complex(rng.uniform(-1.0, 1.0), center_im), float(rng.uniform(1.0, 2.0))
        crossing = center.real + np.sqrt(radius**2 - center_im**2)
        lam = crossing + rng.choice([-1.0, 1.0]) * distance * radius
        sec = hermitian_with_eigenvalue(rng, n, lam, half, complex_a)
        assert sec.hermitian and sec.banded == (storage != "dense") and (sec.tridiagonal is not None) == (half == 1)
        got, want = refuses(sec, center, radius, 32), old_rule_refuses(sec, center, radius, 32)
        if storage == "tridiagonal":  # the closed form reads the exact norm, and says so in its message
            assert (got is None) == (want is None)
        else:
            assert got == want

    @pytest.mark.parametrize("storage", ["tridiagonal", "dense"])
    @pytest.mark.parametrize("complex_a", [False, True])
    def test_eigenvalue_beside_a_real_node_still_refused(self, storage, complex_a):
        rng = np.random.default_rng(5)
        n = 40 if storage == "dense" else 96
        sec = hermitian_with_eigenvalue(rng, n, 1.0 + 1e-9, 1 if storage == "tridiagonal" else n - 1, complex_a)
        assert old_rule_refuses(sec, 0.0, 1.0, 32)
        with pytest.raises(ContourError, match="too close"):
            ra.contour_rank(sec, 0.0, 1.0, 32)

    @pytest.mark.parametrize("n", [8, 96])
    def test_non_normal_section_refused_at_a_non_real_node(self, n):
        # a Jordan-like pair [[lam, M], [0, lam]] 1e-3 r from a non-real node:
        # its resolvent there is about M / (1e-3 r)^2, far above the limit,
        # though 1 / |Im z| is small and the real nodes pass, so a bound for
        # Hermitian sections applied here would let the contour through
        z = complex(np.exp(2j * np.pi * 5 / 32))
        lam = z * (1.0 - 1e-3)
        a = np.diag(np.linspace(3.0, 4.0, n).astype(complex))
        a[0, 0] = a[1, 1] = lam
        a[0, 1] = 1e6
        sec = numerics.Section(a)
        assert not sec.hermitian and sec.banded == (n >= 64)
        limit = ra._PRECONDITION_RESNORM
        refused = [
            abs(z.imag) for z in contour_nodes(sec, 0.0, 1.0, 32) if sec.factor(z).inverse_norm_estimate() > limit
        ]
        assert refused and min(refused) * limit >= 2.0
        assert old_rule_refuses(sec, 0.0, 1.0, 32)
        with pytest.raises(ContourError, match="too close"):
            ra.contour_rank(sec, 0.0, 1.0, 32)

    @staticmethod
    def count_factors_and_estimates(monkeypatch):
        """Record the node of each Section.factor call and of each power estimate made."""
        factor, estimate = numerics.Section.factor, numerics.Factorization.inverse_norm_estimate
        factored, estimated = [], []

        def tagged_factor(self, z):
            factored.append(z)
            fact = factor(self, z)
            fact.node = z
            return fact

        def counted_estimate(self):
            estimated.append(self.node)
            return estimate(self)

        monkeypatch.setattr(numerics.Section, "factor", tagged_factor)
        monkeypatch.setattr(numerics.Factorization, "inverse_norm_estimate", counted_estimate)
        return factored, estimated

    @staticmethod
    def osc_classify_section():
        """Criterion 06's largest section, n = 1599."""
        doc = {"kind": "schrodinger", "p": 0.0, "q": "x^2", "r": 0.0, "L_n": [10.0], "m": 1600}
        prob = cli.parse_problem(doc)
        (size,) = prob.default_sizes("test")
        return prob.ladder([size]).matrix(size)

    def test_osc_classify_section_factors_no_node(self, monkeypatch):
        sec = self.osc_classify_section()
        assert sec.n == 1599 and sec.hermitian and sec.real and sec.banded and sec.tridiagonal is not None
        factored, estimated = self.count_factors_and_estimates(monkeypatch)
        res = ra.contour_rank(sec, 3.0, 1.0, 32)
        assert (res.rank, res.route, res.projection, res.probe_columns) == (1, "closed_form", None, 0)
        assert factored == [] and estimated == []

    def test_hermitian_pentadiagonal_section_clears_every_node_by_the_probe_bound(self, monkeypatch):
        # the same section with a small second diagonal: all 17 nodes of a 32-point contour (its
        # upper half circle) are cleared by the bound from the sketch's own first pass, none estimated
        diagonals = dict(self.osc_classify_section().diagonals)
        diagonals[2] = diagonals[-2] = np.full(diagonals[0].size - 2, 1e-3)
        sec = numerics.Section(diagonals)
        assert sec.n == 1599 and sec.hermitian and sec.real and sec.banded and sec.tridiagonal is None
        factored, estimated = self.count_factors_and_estimates(monkeypatch)
        with numerics.Ledger() as ledger:
            res = ra.contour_rank(sec, 3.0, 1.0, 32)
        assert (res.rank, res.route) == (1, "sketched")
        assert len(factored) == 17 and estimated == []
        assert dict(ledger.counts["contour_guards"]) == {"probe_bound": 17}


def non_hermitian_with_eigenvalue(rng, n, lam, half, complex_a, jordan):
    """A non-Hermitian section with band half-width ``half`` (n - 1: dense) and the exact eigenvalue lam.

    Random entries, with column k = n // 2 cut to its diagonal lam, so
    A e_k = lam e_k.  With ``jordan`` column k + 1 is cut to the pair
    [[lam, 1e3], [0, lam]] in rows k, k + 1: a Jordan-like block whose
    resolvent norm grows as 1e3 / dist^2.
    """
    i, j = np.indices((n, n))
    a = rng.standard_normal((n, n)) * (np.abs(i - j) <= half)
    if complex_a:
        a = a + 1j * rng.standard_normal((n, n)) * (np.abs(i - j) <= half)
    k = n // 2
    a[:, k] = 0.0
    a[k, k] = lam
    if jordan:
        a[:, k + 1] = 0.0
        a[k, k + 1], a[k + 1, k + 1] = 1e3, lam
    return numerics.Section(a)


class TestNonHermitianContourGuard:
    """The bound from the contour's own solves skips the power estimate, and the same nodes are refused."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        storage=hst.sampled_from(["tridiagonal", "pentadiagonal", "dense"]),
        complex_a=hst.booleans(),
        jordan=hst.booleans(),
        distance=hst.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-3, 0.3]),
        node=hst.integers(0, 31),
    )
    @example(seed=0, storage="tridiagonal", complex_a=True, jordan=False, distance=1e-7, node=5)
    @example(seed=1, storage="pentadiagonal", complex_a=False, jordan=True, distance=1e-3, node=0)
    @example(seed=2, storage="dense", complex_a=True, jordan=False, distance=0.0, node=9)
    @example(seed=3, storage="dense", complex_a=False, jordan=False, distance=1e-7, node=16)
    def test_property_refuses_as_the_old_rule(self, seed, storage, complex_a, jordan, distance, node):
        # an eigenvalue ``distance`` r from a node: a complex one beside any node of a complex
        # circle, a real one beside a real node of a circle with a real centre (node 0 or 16)
        rng = np.random.default_rng(seed)
        n = 40 if storage == "dense" else 96
        half = {"tridiagonal": 1, "pentadiagonal": 2, "dense": n - 1}[storage]
        radius = float(rng.uniform(0.5, 2.0))
        if complex_a:
            center = complex(*rng.uniform(-1.0, 1.0, 2))
            offset = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        else:
            center, node, offset = complex(rng.uniform(-1.0, 1.0)), node % 2 * 16, rng.choice([-1.0, 1.0])
        z = (center + radius * np.exp(1j * (2.0 * np.pi * np.arange(32) / 32)))[node]
        lam = z + offset * distance * radius
        if not complex_a:
            lam = float(lam.real)
        sec = non_hermitian_with_eigenvalue(rng, n, lam, half, complex_a, jordan)
        assert not sec.hermitian and sec.banded == (storage != "dense") and sec.real == (not complex_a)
        assert refuses(sec, center, radius, 32) == old_rule_refuses(sec, center, radius, 32)

    @staticmethod
    def diagonal_section(values):
        """A complex diagonal section, stored banded from n >= 64 (the sketched route), else dense."""
        return numerics.Section({0: np.asarray(values, dtype=complex)})

    @pytest.mark.parametrize("n", [12, 80])
    def test_earlier_refusal_raised_before_a_later_failed_factorization(self, n):
        # node 3 is exactly an eigenvalue (its LU fails); node 1 has one 1e-10 r away (refused)
        center, radius, q = 0.2 + 0.1j, 1.0, 32
        nodes = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
        values = 10.0 + np.arange(float(n)) + 0j
        values[5], values[9] = nodes[3], nodes[1] * (1.0 + 1e-10)
        sec = self.diagonal_section(values)
        assert sec.banded == (n >= 64)
        want = old_rule_refuses(sec, center, radius, q)
        assert want.startswith("eigenvalue too close") and f"at node {nodes[1]}" in want
        assert refuses(sec, center, radius, q) == want
        # without the earlier refusal, the failed factorization is the error
        values[9] = 10.0 - 1j
        sec = self.diagonal_section(values)
        want = old_rule_refuses(sec, center, radius, q)
        assert want.startswith("eigenvalue on the contour: factorization") and f"at node {nodes[3]}" in want
        assert refuses(sec, center, radius, q) == want

    def test_sketch_clears_each_node_before_factoring_the_next(self, monkeypatch):
        # node 3 is exactly an eigenvalue: nodes 0-2 are factored, solved against and cleared by
        # the probe bound before node 3's LU is tried, and none of them is estimated
        center, radius, q, n = 0.2 + 0.1j, 1.0, 32, 80
        nodes = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
        values = 10.0 + np.arange(float(n)) + 0j
        values[5] = nodes[3]
        sec = self.diagonal_section(values)
        assert sec.banded
        want = old_rule_refuses(sec, center, radius, q)
        assert want.startswith("eigenvalue on the contour: factorization") and f"at node {nodes[3]}" in want
        factored, estimated = TestHermitianContourGuard.count_factors_and_estimates(monkeypatch)
        with numerics.Ledger() as ledger:
            with pytest.raises(ContourError) as exc:
                ra.contour_rank(sec, center, radius, q)
        assert str(exc.value) == want
        assert factored == list(nodes[:4]) and estimated == []
        assert dict(ledger.counts["contour_guards"]) == {"probe_bound": 3}

    def test_probe_bound_factor_is_needed(self):
        # the eigenvalue next to node 4 sits on a coordinate where all 16 probes are below 1 in
        # magnitude (at most p < 1), with ||R|| = (1 + 1/p) / 2 times the limit there: the largest
        # probe image alone stays below the limit, so only the factor 10 sqrt(2/pi) sqrt(2) sends
        # the node to the estimate, which refuses it
        n, center, radius, q = 1000, 0.0 + 0.5j, 1.0, 64
        limit = ra._PRECONDITION_RESNORM / radius
        probes = np.abs(ra._probe_matrix(n, ra._SKETCH_COLUMNS)).max(axis=1)
        i = int(np.argmin(probes))
        assert probes[i] < 1.0
        z = (center + radius * np.exp(1j * (2.0 * np.pi * np.arange(q) / q)))[4]
        values = 10.0 + 1j + np.arange(n, dtype=complex)
        values[i] = z * (1.0 + 2.0 / ((1.0 + 1.0 / probes[i]) * limit * abs(z)))
        sec = self.diagonal_section(values)
        x = sec.factor(z).solve(ra._probe_matrix(n, ra._SKETCH_COLUMNS), adjoint=True)
        assert np.linalg.norm(x, axis=0).max() < limit < ra._node_bound(x, "probe_bound")
        want = old_rule_refuses(sec, center, radius, q)
        assert want is not None and f"at node {z}" in want
        assert refuses(sec, center, radius, q) == want
        with numerics.Ledger() as ledger:
            ra.contour_rank(self.diagonal_section(np.delete(values, i)), center, radius, q)
        assert dict(ledger.counts["contour_guards"]) == {"probe_bound": q}

    def test_dense_route_clears_by_frobenius(self):
        a = np.diag([0.1, 0.2, 5.0]) + np.diag([0.0, 1.0], 1)
        with numerics.Ledger() as ledger:
            res = ra.contour_rank(a, 0.0, 1.0)
        assert res.route == "dense" and dict(ledger.counts["contour_guards"]) == {"frobenius": 33}


def contour_outcome(m, center, radius, sketch):
    """Rank (or exception class) with the sketch forced on or off."""
    section = numerics.Section(m)
    try:
        res = ra._contour_rank(section, complex(center), radius, 64, np.inf if sketch else 0)
    except (ContourError, ResolutionError) as exc:
        return type(exc), None
    assert (res.projection is None) is sketch
    return res.rank, res.probe_columns


class TestSketchedContourRank:
    def test_public_path_sketches_banded_sections_only(self):
        # a Hermitian pentadiagonal section stored banded is sketched, a small
        # non-Hermitian one dense, and a diagonal one takes the closed form
        n = 80
        penta = np.diag(np.arange(n) * 1.0) + np.diag(np.full(n - 2, 1e-3), 2) + np.diag(np.full(n - 2, 1e-3), -2)
        banded = ra.contour_rank(penta, 2.0, 0.5)
        assert (banded.rank, banded.probe_columns, banded.projection, banded.route) == (1, 16, None, "sketched")
        dense = ra.contour_rank(np.diag([0.1, 0.2, 5.0]) + np.diag([0.0, 1.0], 1), 0.0, 1.0)
        assert dense.probe_columns == 3 and dense.projection.shape == (3, 3) and dense.route == "dense"
        closed = ra.contour_rank(np.diag(np.arange(n) * 1.0), 2.0, 0.5)
        assert (closed.rank, closed.probe_columns, closed.projection, closed.route) == (1, 0, None, "closed_form")

    def test_matches_dense_on_criterion_03_style_matrices(self):
        rng = np.random.default_rng(778)
        done = 0
        while done < 40:
            n = int(rng.integers(2, 41))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = numerics.eig_dense(m).eigenvalues
            center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            radius = float(rng.uniform(0.3, 2.5))
            if np.min(np.abs(np.abs(w - center) - radius)) < 0.1:
                continue
            rank, columns = contour_outcome(m, center, radius, sketch=True)
            assert rank == contour_outcome(m, center, radius, sketch=False)[0]
            assert rank == int(np.count_nonzero(np.abs(w - center) < radius))
            assert columns - rank >= ra._SKETCH_OVERSAMPLING
            done += 1

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(64, 160),
        kl=hst.integers(0, 2),
        ku=hst.integers(0, 2),
        complex_entries=hst.booleans(),
        real_center=hst.booleans(),
        radius=hst.floats(0.05, 1.0),
    )
    # 39 of the 64 diagonal entries lie inside the circle: L doubles to 64 = n
    @example(seed=0, n=64, kl=0, ku=0, complex_entries=False, real_center=False, radius=1.0)
    def test_property_banded_sections_match_dense(
        self, seed, n, kl, ku, complex_entries, real_center, radius
    ):
        rng = np.random.default_rng(seed)
        m = np.zeros((n, n), dtype=complex if complex_entries else float)
        for off in range(-kl, ku + 1):
            d = rng.standard_normal(n - abs(off))
            if complex_entries:
                d = d + 1j * rng.standard_normal(n - abs(off))
            m += np.diag(d, off)
        # centre the circle next to an eigenvalue so that ranks above zero occur
        lam = np.linalg.eigvals(m)[rng.integers(0, n)] + 0.01 * complex(*rng.standard_normal(2))
        center = complex(lam.real, 0.0) if real_center else complex(lam)
        sketched = contour_outcome(m, center, radius, sketch=True)
        assert sketched[0] == contour_outcome(m, center, radius, sketch=False)[0]
        if sketched[1] is not None:
            # L is the least _SKETCH_COLUMNS * 2^j with _SKETCH_OVERSAMPLING columns beyond the rank
            columns = ra._SKETCH_COLUMNS
            while columns - sketched[0] < ra._SKETCH_OVERSAMPLING:
                columns *= 2
            assert sketched[1] == columns

    def test_doubling_and_dense_fallback(self):
        n = 100

        def clustered(k):  # k eigenvalues in [0, 1], the rest at 10, 11, ...; not Hermitian, so not closed form
            return np.diag(np.concatenate([np.linspace(0.0, 1.0, k), 10.0 + np.arange(n - k)])) + np.diag(
                np.full(n - 2, 1e-3), 2
            )

        # 12 enclosed eigenvalues leave too little oversampling at L = 16
        doubled = ra.contour_rank(clustered(12), 0.5, 2.0)
        assert (doubled.rank, doubled.probe_columns, doubled.projection) == (12, 32, None)
        # 60 enclosed eigenvalues would need L = 128 >= n: dense projection
        fallback = ra.contour_rank(clustered(60), 0.5, 2.0)
        assert (fallback.rank, fallback.probe_columns) == (60, n)
        assert fallback.projection.shape == (n, n)
        with pytest.raises(ContourError):
            ra.contour_rank(clustered(12), 10.0, 1.0)

    def test_fixed_seed_probes_are_deterministic(self):
        n = 120
        m = np.diag(np.arange(n) * 1.0) + np.diag(np.full(n - 1, 0.5), 1)
        for center in (3.3, 3.3 + 0.1j):
            runs = [ra.contour_rank(m, center, 0.5) for _ in range(2)]
            assert runs[0].rank == 1 and runs[0].probe_columns == 16 and runs[0].route == "sketched"
            assert runs[0].singular_values.tobytes() == runs[1].singular_values.tobytes()


def planted_tridiagonal(rng, n, complex_a, split, planted):
    """A random Hermitian tridiagonal section with the exact eigenvalues ``planted``.

    Each planted value sits on the diagonal of its own 1 x 1 block, cut off
    by zero off-diagonals; about ``split`` of the other off-diagonals are
    exactly zero too.
    """
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1) * (rng.random(n - 1) >= split)
    if complex_a:
        e = e * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n - 1))
    for i, lam in zip(rng.permutation(n), planted):
        d[i] = lam
        e[max(i - 1, 0) : i + 1] = 0.0
    return numerics.Section({0: d, 1: e, -1: e.conj()})


def contour_or_error(fn):
    """fn()'s ContourRank, or the class of the ContourError or ResolutionError it raised."""
    try:
        return fn()
    except (ContourError, ResolutionError) as exc:
        return type(exc)


class TestClosedFormContourRank:
    """Hermitian tridiagonal contours in closed form against the sketched and the dense projection."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([2, 3, 40, 96, 200]),
        complex_a=hst.booleans(),
        split=hst.sampled_from([0.0, 0.3]),
        q=hst.sampled_from([16, 17, 32, 33, 64, 65]),
        center_im=hst.sampled_from([0.0, 0.0, 0.6, -0.6, 1.5]),
        where=hst.sampled_from(["clear", "near", "node", "cluster_in", "cluster_on", "cluster_out"]),
    )
    @example(seed=3, n=96, complex_a=False, split=0.0, q=32, center_im=0.0, where="node")
    @example(seed=4, n=40, complex_a=True, split=0.3, q=17, center_im=-0.6, where="node")
    @example(seed=5, n=200, complex_a=False, split=0.0, q=16, center_im=0.0, where="cluster_on")
    @example(seed=6, n=3, complex_a=True, split=0.0, q=33, center_im=0.6, where="near")
    def test_property_matches_sketched_and_dense(self, seed, n, complex_a, split, q, center_im, where):
        rng = np.random.default_rng(seed)
        radius = float(rng.uniform(0.3, 1.5))
        a, b = float(rng.uniform(-1.0, 1.0)), center_im * radius
        crossing = a + np.sqrt(max(radius**2 - b**2, 0.0))  # where the circle meets the real axis
        k = 0
        if where == "node" and b:
            # a centre that puts node k on the real axis, up to rounding
            k = int(rng.integers(1, q // 2))
            b = -radius * np.sin(2.0 * np.pi * k / q)
        center = complex(a, b)
        node = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
        planted = {
            "clear": [],
            "near": [crossing + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0) * 1e-9 * radius],
            "node": [node[k].real],
            "cluster_in": a + 0.2 * radius + radius * 1e-6 * np.arange(3),
            "cluster_on": crossing + radius * 1e-6 * np.array([-1.5, -0.5, 0.5]),
            "cluster_out": crossing + radius * (0.2 + 1e-6 * np.arange(3)),
        }[where]
        sec = planted_tridiagonal(rng, n, complex_a, split, planted)
        assert sec.tridiagonal is not None
        closed = contour_or_error(lambda: ra.contour_rank(sec, center, radius, q))
        sketched = contour_or_error(lambda: ra._contour_rank(sec, center, radius, q, np.inf))
        dense = contour_or_error(lambda: ra._contour_rank(sec, center, radius, q, 0))
        outcome = lambda res: res if isinstance(res, type) else res.rank
        assert outcome(closed) == outcome(sketched) == outcome(dense)
        if isinstance(closed, type):
            return
        assert (closed.route, closed.projection, closed.probe_columns) == ("closed_form", None, 0)
        assert sketched.route == "sketched" and dense.route == "dense"
        svals = np.linalg.svd(dense.projection, compute_uv=False)
        if closed.singular_values.size == 0:  # the circle lies off the real axis: nothing is near it
            assert abs(b) >= radius * 3.0 ** (1.0 / q) and closed.rank == 0 and svals[0] < ra.RANK_THRESHOLD
            return
        # P's singular values down to the largest dropped one are the closed form's |f|, within
        # 1e-10 plus, near a node, the first-order change of |f| = |1 / (1 - u^q)| under an
        # eigenvalue error of 1e-14 r: q |f| |f - 1| 1e-14
        lead = min(closed.rank + 1, n)
        assert closed.singular_values.size >= lead
        assert np.all(np.diff(closed.singular_values) <= 0.0)
        got, want = closed.singular_values[:lead], svals[:lead]
        assert np.all(np.abs(got - want) <= 1e-10 + 1e-14 * q * want * np.abs(want - 1.0))
        # the guard's margin is the distance from the nodes to the spectrum
        w = np.linalg.eigvalsh(sec.dense())
        assert closed.node_distance == pytest.approx(np.abs(node[:, None] - w[None, :]).min() / radius, rel=1e-9)

    def test_eigenvalue_beside_a_non_real_node_refused(self):
        # node 3 of 32 sits on the real axis (up to rounding) for this centre,
        # with an eigenvalue 1e-10 r from it: only a non-real node is that close
        q, radius, k = 32, 1.0, 3
        center = complex(0.3, -np.sin(2.0 * np.pi * k / q))
        z = center + radius * np.exp(1j * (2.0 * np.pi * k / q))
        assert abs(z.imag) < 1e-15
        sec = planted_tridiagonal(np.random.default_rng(1), 96, False, 0.0, [z.real + 1e-10])
        with pytest.raises(ContourError, match="too close"):
            ra.contour_rank(sec, center, radius, q)
        with pytest.raises(ContourError, match="too close"):
            ra._contour_rank(sec, center, radius, q, 0)

    def test_non_real_centre_steps_outward_to_the_largest_dropped_value(self):
        # c = a + ib with b = (1 + 1e-5) r and q = 512: the eigenvalue at a, 1e-5 r from a node,
        # is counted with |f| ~ 195.  u^q has phase pi at x1 = a + b tan(11 pi / q), the nearest
        # eigenvalue outside the annulus, and phase 0 at x2 = a + b tan(12 pi / q), so the next
        # one out has the larger |f|: 1 / (|u|^q - 1) against 1 / (|u|^q + 1)
        q, radius, a = 512, 1.0, 0.25
        b = radius * (1.0 + 1e-5)
        x1, x2 = a + b * np.tan(11 * np.pi / q), a + b * np.tan(12 * np.pi / q)
        assert abs(complex(x1, -b)) > radius * 3.0 ** (1.0 / q)
        sec = planted_tridiagonal(np.random.default_rng(0), 6, False, 0.0, [a - 5.0, a, x1, x2, a + 5.0, a + 6.0])
        center = complex(a, b)
        closed, dense = ra.contour_rank(sec, center, radius, q), ra._contour_rank(sec, center, radius, q, 0)
        f = ra._filter_values(np.array([a, x1, x2]), center, radius, q)
        assert closed.rank == dense.rank == 1 and f[2] > 1.3 * f[1]
        assert np.allclose(closed.singular_values[:2], [f[0], f[2]], rtol=1e-12, atol=0.0)
        svals = np.linalg.svd(dense.projection, compute_uv=False)
        assert np.allclose(closed.singular_values[:3], svals[:3], rtol=1e-9)
        assert closed.gap == pytest.approx(dense.gap, rel=1e-9)

    def test_circle_off_the_real_axis_counts_nothing(self):
        # rho = r 3^(1/q) <= |Im c|: no eigenvalue is taken, and no Sturm count is made
        sec = planted_tridiagonal(np.random.default_rng(2), 40, True, 0.0, [])
        res = ra.contour_rank(sec, complex(0.0, 1.2), 1.0, 32)
        assert (res.rank, res.gap, res.singular_values.size, res.node_distance) == (0, np.inf, 0, np.inf)
        assert ra._contour_rank(sec, complex(0.0, 1.2), 1.0, 32, 0).rank == 0
        assert res.margins() == {"route": "closed_form", "gap": None, "node_distance": None}

    def test_eigenvalues_between_is_bisection_by_index(self):
        tri = planted_tridiagonal(np.random.default_rng(3), 200, False, 0.3, []).tridiagonal
        w = tri.eigenvalues()
        inside = tri.eigenvalues_between(w[50] - 1e-9, w[60] + 1e-9)
        assert inside.tobytes() == tri.eigenvalues_by_index(50, 61).tobytes()
        assert np.allclose(inside, w[50:61], rtol=0, atol=1e-13)
        # each value's bits do not depend on the range it was asked with
        assert tri.eigenvalues_by_index(55, 56).tobytes() == inside[5:6].tobytes()
        assert tri.eigenvalues_by_index(-3, 2).size == 2 and tri.eigenvalues_by_index(198, 205).size == 2


@pytest.mark.parametrize("storage", ["diagonal", "pentadiagonal"])
@pytest.mark.parametrize(
    "center, radius",
    [(np.nan, 1.0), (np.inf, 1.0), (1j * np.inf, 1.0), (complex(0.0, np.nan), 1.0), (0.0, np.nan), (0.0, np.inf)],
)
def test_contour_rank_refuses_non_finite_input(storage, center, radius):
    n = 80
    m = np.diag(np.arange(n) * 1.0)
    if storage == "pentadiagonal":
        m += np.diag(np.full(n - 2, 1e-3), 2) + np.diag(np.full(n - 2, 1e-3), -2)
    sec = numerics.Section(m)
    assert (sec.tridiagonal is not None) == (storage == "diagonal")
    with pytest.raises(ValueError, match="finite"):
        ra.contour_rank(sec, center, radius)


def complex_oscillator_section(m: int, half: float = 6.0) -> np.ndarray:
    """Dirichlet finite differences of -f'' + i x^2 f on (-half, half): n = m - 1.

    The potential is even, so the section is persymmetric.
    """
    h = 2.0 * half / m
    x = -half + h * np.arange(1, m)
    off = np.full(m - 2, -1.0 / h**2)
    return np.diag(2.0 / h**2 + 1j * x * x) + np.diag(off, 1) + np.diag(off, -1)


def dense_sigma_min(m, z):
    """The dense reference: dense_reference.sigma_min of the explicitly shifted matrix."""
    z = complex(z)
    shift = z.real if z.imag == 0.0 and not np.iscomplexobj(m) else z
    return dense_reference.sigma_min(m - shift * np.eye(m.shape[0]))


def counted_grid(m, rect, nx, ny):
    """A pseudospectrum grid in a ledger of its own, with that ledger's sigma_min routes and dense fallbacks."""
    with numerics.Ledger() as ledger:
        grid = ra.pseudospectrum_grid(m, rect, nx, ny)
    return grid, dict(ledger.counts["sigma_min_routes"]), ledger.counts["dense_fallbacks"].total()


def assert_no_ledger_records(section, z, rect, closed):
    """With no ledger open, sigma_min and a grid run, raise nothing and add nothing to the ``closed`` ledger."""
    counts = {kind: dict(c) for kind, c in closed.counts.items()}
    section.sigma_min(z)
    ra.pseudospectrum_grid(section, rect, 2, 2)
    assert {kind: dict(c) for kind, c in closed.counts.items()} == counts


def gate_tolerance(sigma, norm, z):
    """The benchmark's pseudospectrum gate: 1e-8 sigma + 100 ulp (||A|| + |z|)."""
    return 1e-8 * sigma + 100 * np.finfo(float).eps * (norm + abs(z))


def symmetric_tridiagonal(rng, n, split):
    """Random real symmetric tridiagonal matrix; about ``split`` of its off-diagonal exactly zero."""
    off = rng.standard_normal(n - 1) * (rng.random(n - 1) >= split)
    return np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)


class TestTridiagonalRoute:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(2, 200),
        split=hst.sampled_from([0.0, 0.1, 0.5, 1.0]),
        where=hst.sampled_from(["eigenvalue", "below", "above", "inside"]),
        stored=hst.sampled_from(["real", "complex"]),
    )
    def test_property_matches_dense(self, seed, n, split, where, stored):
        rng = np.random.default_rng(seed)
        m = symmetric_tridiagonal(rng, n, split)
        if stored == "complex":  # Hermitian, with random unimodular off-diagonal phases
            phase = np.diag(np.exp(2j * np.pi * rng.random(n - 1)), 1)
            m = np.diag(np.diag(m)) + np.triu(m, 1) * phase + (np.triu(m, 1) * phase).conj().T
        d = numerics.eig_dense(m)
        w = d.eigenvalues.real
        norm = np.linalg.norm(m, 2)
        assert d.route == "tridiagonal"
        assert np.max(np.abs(w - np.linalg.eigvalsh(m))) <= 1e-13 * norm
        assert np.all(d.residuals_at(rng.permutation(n)[:10]) <= 1e-12 * norm)
        z = {
            "eigenvalue": w[rng.integers(n)],
            "below": w[0] - rng.uniform(1e-3, 2.0),
            "above": w[-1] + rng.uniform(1e-3, 2.0),
            "inside": rng.uniform(w[0], w[-1]),
        }[where]
        if stored == "complex":
            z = complex(z, rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 2.0))
        section = numerics.Section(m)
        assert section.sigma_min_route == "tridiagonal"
        if where in ("below", "above"):
            assert section.tridiagonal.sturm_count(np.real(z)) == (0 if where == "below" else n)
        want = np.linalg.svd(m - z * np.eye(n), compute_uv=False)[-1]
        assert abs(section.sigma_min(z) - want) <= gate_tolerance(want, norm, z)

    def test_exact_eigenvalue_of_diagonal_is_zero(self):
        # an all-zero off-diagonal splits T into 1 x 1 blocks, whose eigenvalues are exact
        m = np.diag([3.0, -1.0, 2.0, 2.0])
        section = numerics.Section(m)
        assert section.sigma_min_route == "tridiagonal"
        assert section.sigma_min(2.0) == 0.0 and ra.resolvent_norm(m, 2.0) == np.inf
        assert section.sigma_min(0.0) == 1.0


class TestShiftFamilySigmaMin:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(64, 160),
        kl=hst.integers(0, 3),
        ku=hst.integers(0, 3),
        zr=hst.floats(-3.0, 3.0),
        zi=hst.floats(-3.0, 3.0),
    )
    def test_property_banded_matches_dense(self, seed, n, kl, ku, zr, zi):
        rng = np.random.default_rng(seed)
        m = np.zeros((n, n), dtype=complex)
        for off in range(-kl, ku + 1):
            m += np.diag(rng.standard_normal(n - abs(off)) + 1j * rng.standard_normal(n - abs(off)), off)
        z = complex(zr, zi)
        section = numerics.Section(m)
        assert section.sigma_min_route == "banded"
        assert section.sigma_min(z) == pytest.approx(dense_sigma_min(m, z), rel=1e-9)

    def test_persymmetric_complex_oscillator(self):
        # an even Lanczos start vector never sees the odd singular vectors of
        # this section; near the odd eigenvalues 3 e^{i pi/4} and 7 e^{i pi/4}
        # sigma_min belongs to an odd one
        m = complex_oscillator_section(200)
        section = numerics.Section(m)
        assert section.sigma_min_route == "banded"
        for z in (2.0 + 2.2j, 3 * np.exp(0.25j * np.pi) + 0.05, 5.0 + 4.9j, 1.0 + 1.0j, 8.0 + 0.5j):
            with numerics.Ledger() as ledger:
                assert section.sigma_min(z) == pytest.approx(dense_sigma_min(m, z), rel=1e-9)
            assert ledger.counts["dense_fallbacks"].total() == 0

    def test_real_symmetric_tridiagonal_real_shift_is_within_gate_tolerance(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 40, 64, 150):
            off = rng.standard_normal(n - 1)
            m = np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)
            section = numerics.Section(m)
            norm = numerics.op_norm(m)
            # every shift of a Hermitian tridiagonal section takes the tridiagonal route
            assert section.sigma_min_route == "tridiagonal"
            for z in (0.0, -0.7, complex(1.3, 0.0), float(np.linalg.eigvalsh(m)[n // 2])):
                want = dense_sigma_min(m, z)
                assert abs(section.sigma_min(z) - want) <= gate_tolerance(want, norm, z)
            want = dense_sigma_min(m, 0.5 + 0.1j)
            assert abs(section.sigma_min(0.5 + 0.1j) - want) <= gate_tolerance(want, norm, 0.5 + 0.1j)

    def test_exact_eigenvalue_of_complex_diagonal_is_inf(self):
        n = 100
        rect, nx, ny = (0.0, 1.0, 0.0, 1.0), 5, 4
        z = complex(np.linspace(0.0, 1.0, nx)[3], np.linspace(0.0, 1.0, ny)[2])
        d = np.linspace(2.0, 3.0, n) + 1j
        d[40] = z
        m = np.diag(d)
        assert numerics.Section(m).sigma_min_route == "banded"
        g = ra.pseudospectrum_grid(m, rect, nx, ny)
        assert g.values[2, 3] == np.inf
        assert np.count_nonzero(np.isinf(g.values)) == 1
        assert ra.resolvent_norm(m, z) == np.inf

    def test_step_cap_falls_back_to_dense_svd(self, monkeypatch):
        monkeypatch.setattr(numerics, "_LANCZOS_STEPS", 2)
        m = complex_oscillator_section(200)
        section = numerics.Section(m)
        z = 2.0 + 2.0j
        with numerics.Ledger() as ledger:
            assert section.sigma_min(z) == dense_sigma_min(m, z)
        assert dict(ledger.counts["dense_fallbacks"]) == {"banded": 1}
        # the grid's own ledger counts its four fallbacks
        rect = (1.0, 3.0, 1.0, 3.0)
        _, routes, fallbacks = counted_grid(section, rect, 2, 2)
        assert (routes, fallbacks) == ({"banded": 4}, 4)
        assert_no_ledger_records(section, z, rect, ledger)

    def test_banded_grid_takes_one_route_and_repeats_its_bits(self):
        section = numerics.Section(complex_oscillator_section(200))
        g1, routes, fallbacks = counted_grid(section, (-1.0, 12.0, -1.0, 12.0), 6, 5)
        g2 = ra.pseudospectrum_grid(section, (-1.0, 12.0, -1.0, 12.0), 6, 5)
        assert (routes, fallbacks) == ({"banded": 30}, 0)
        assert g1.values.tobytes() == g2.values.tobytes()

    def test_upper_triangular_400_takes_triangular_route(self):
        m = om.truncate(om.upper_triangular_spec(), 400).data
        section = numerics.Section(m)
        assert not section.banded and section.sigma_min_route == "triangular"
        rect = (-2.0, 30.0, -10.0, 10.0)
        g, routes, fallbacks = counted_grid(m, rect, 2, 2)
        assert (routes, fallbacks) == ({"triangular": 4}, 0)
        # the tolerance of the benchmark's pseudospectrum gate
        norm = numerics.op_norm(m)
        for iy, im in enumerate(rect[2:]):
            for ix, re in enumerate(rect[:2]):
                z = complex(re, im)
                want = dense_sigma_min(m, z)
                tol = 1e-8 * want + 100 * np.finfo(float).eps * (norm + abs(z))
                assert abs(1.0 / g.values[iy, ix] - want) <= tol

    def test_upper_triangular_40_stays_dense_and_bit_identical(self):
        m = om.truncate(om.upper_triangular_spec(), 40).data
        assert numerics.Section(m).sigma_min_route == "dense"
        g, routes, fallbacks = counted_grid(m, (-2.0, 30.0, -10.0, 10.0), 2, 2)
        assert (routes, fallbacks) == ({"dense": 4}, 0)
        assert g.values[0, 0] == 1.0 / dense_sigma_min(m, complex(-2.0, -10.0))


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def upper_triangular_complex(rng, n):
    """Complex Gaussian diagonal, strictly upper part scaled to a moderate norm."""
    return np.diag(complex_gaussian(rng, n)) + np.triu(complex_gaussian(rng, n, n), 1) / np.sqrt(n)


class TestTriangularRoute:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(64, 160),
        zr=hst.floats(-3.0, 3.0),
        zi=hst.floats(-3.0, 3.0),
    )
    def test_property_upper_triangular_matches_dense(self, seed, n, zr, zi):
        m = upper_triangular_complex(np.random.default_rng(seed), n)
        z = complex(zr, zi)
        section = numerics.Section(m)
        assert not section.banded and section.sigma_min_route == "triangular"
        with numerics.Ledger() as ledger:
            assert section.sigma_min(z) == pytest.approx(dense_sigma_min(m, z), rel=1e-9)
        assert ledger.counts["dense_fallbacks"].total() == 0

    def test_general_dense_section_takes_dense_route(self):
        m = complex_gaussian(np.random.default_rng(3), 100, 100) / np.sqrt(200)
        section = numerics.Section(m)
        assert not section.banded and section.sigma_min_route == "dense"
        g, routes, fallbacks = counted_grid(m, (0.0, 1.0, 0.0, 1.0), 2, 2)
        assert (routes, fallbacks) == ({"dense": 4}, 0)
        assert g.values[0, 0] == 1.0 / dense_sigma_min(m, 0.0)

    def test_exact_diagonal_eigenvalue_is_inf(self):
        n = 100
        rect, nx, ny = (0.0, 1.0, 0.0, 1.0), 5, 4
        z = complex(np.linspace(0.0, 1.0, nx)[3], np.linspace(0.0, 1.0, ny)[2])
        rng = np.random.default_rng(7)
        d = np.linspace(2.0, 3.0, n) + 1j
        d[40] = z
        m = np.diag(d) + np.triu(complex_gaussian(rng, n, n), 1) / n
        assert numerics.Section(m).sigma_min_route == "triangular"
        g, routes, _ = counted_grid(m, rect, nx, ny)
        assert routes == {"triangular": nx * ny}
        assert g.values[2, 3] == np.inf
        assert np.count_nonzero(np.isinf(g.values)) == 1
        assert ra.resolvent_norm(m, z) == np.inf

    def test_step_cap_falls_back_to_dense_svd(self, monkeypatch):
        monkeypatch.setattr(numerics, "_LANCZOS_STEPS", 1)
        m = upper_triangular_complex(np.random.default_rng(8), 80)
        section = numerics.Section(m)
        z = 0.2 + 0.1j
        with numerics.Ledger() as ledger:
            assert section.sigma_min(z) == dense_sigma_min(m, z)
        assert dict(ledger.counts["dense_fallbacks"]) == {"triangular": 1}
        # the grid's own ledger counts its four fallbacks
        rect = (0.0, 1.0, 0.0, 1.0)
        _, routes, fallbacks = counted_grid(section, rect, 2, 2)
        assert (routes, fallbacks) == ({"triangular": 4}, 4)
        assert_no_ledger_records(section, z, rect, ledger)

    def test_triangular_grid_takes_one_route_and_repeats_its_bits(self):
        # the second grid solves against the shared matrix the first one left shifted
        section = numerics.Section(upper_triangular_complex(np.random.default_rng(9), 120))
        g1, routes, fallbacks = counted_grid(section, (-1.5, 1.5, -1.0, 1.0), 6, 5)
        g2 = ra.pseudospectrum_grid(section, (-1.5, 1.5, -1.0, 1.0), 6, 5)
        assert (routes, fallbacks) == ({"triangular": 30}, 0)
        assert g1.values.tobytes() == g2.values.tobytes()


class TestNeumannBoundOnSections:
    """gamma < 1 forces sigma_min(T+S - lam) >= (1-gamma) sigma_min(T - lam)."""

    def test_jacobi_split(self):
        spec = om.jacobi_spec()
        split = om.split_blocks(spec, range(2, 42, 2))
        for k in range(4, 42, 4):
            t = split.diag_section(k).data
            s = split.coupling_section(k).data
            gamma = numerics.op_norm(s @ np.linalg.inv(t))
            assert gamma < 1
            lhs = dense_reference.sigma_min(t + s)
            rhs = (1 - gamma) * dense_reference.sigma_min(t)
            assert lhs >= rhs - 1e-10
            # same bound in resolvent-norm form
            assert ra.resolvent_norm(t + s, 0.0) <= ra.resolvent_norm(t, 0.0) / (1 - gamma) + 1e-8


def conjugate_transpose(sec):
    """The Section of A^H, declared from the diagonals of A."""
    return numerics.Section({-off: d.conj() for off, d in sec.diagonals.items()})


class TestConjugatedLadder:
    def test_schrodinger_adjoint_ladder_stays_declared(self):
        # the conjugate transpose is declared from the diagonals: no dense
        # array on either ladder, and the spectrum is the conjugate
        prob = dz.SchrodingerProblem("osc", p=lambda x: 0.0, q=lambda x: 1j * x * x, r=lambda x: 0.0, L_n=(3.0, 4.0))
        lad = ra.SectionLadder("osc", (1, 2), lambda n: dz.schrodinger_assemble(prob, n, 80))
        adj = ra.SectionLadder("osc*", lad.sizes, lambda n: conjugate_transpose(lad.matrix(n)))
        for size in adj.sizes:
            sec, sec_h = lad.matrix(size), adj.matrix(size)
            assert (sec_h.kl, sec_h.ku, sec_h.hermitian, sec_h.banded) == (sec.ku, sec.kl, False, True)
            np.testing.assert_array_equal(sec_h.diagonals[1], sec.diagonals[-1].conj())
            w, w_h = lad.spectrum(size).eigenvalues, adj.spectrum(size).eigenvalues
            assert np.max(np.abs(np.sort_complex(w.conj()) - np.sort_complex(w_h))) <= 1e-10 * np.abs(w).max()
        assert not any("data" in vars(sec) for sec in lad.cache.sections.values())
        assert not any("data" in vars(sec) for sec in adj.cache.sections.values())


# ---------------------------------- windowed spectra ---------------------------------

#: the complex_oscillator demo's spectra and classify windows
DEMO_WINDOW = (-0.5, 4.0, -0.5, 4.0)
DEMO_CLASSIFY_WINDOW = (0.0, 1.5, 0.0, 1.5)
PLANTED_WINDOW = (-1.0, 1.0, -0.5, 0.5)


def in_window(w, window):
    re0, re1, im0, im1 = window
    return w[(w.real >= re0) & (w.real <= re1) & (w.imag >= im0) & (w.imag <= im1)]


def window_circle(window):
    """Centre and radius of the circle ``windowed_spectrum`` draws around ``window``."""
    re0, re1, im0, im1 = window
    center = complex(re0 + re1, im0 + im1) / 2.0
    return center, ra.WINDOW_CIRCLE_MARGIN * abs(complex(re1, im1) - center)


def demo_ladder(name="complex_oscillator"):
    prob = cli.parse_problem(cli.demo_problem(name))
    return prob.ladder(prob.default_sizes("test"))


def planted_section(seed, n, ku, near, repeat, jordan, window=PLANTED_WINDOW):
    """A banded, non-normal, non-Hermitian section whose eigenvalues are planted.

    Block upper triangular with kl = 1 and ``ku`` superdiagonals: 1x1 blocks
    and 2x2 blocks S [[l1, b], [0, l2]] S^-1 with S = [[1, 0], [t, 1]], coupled
    by random entries above the blocks, so the eigenvalues are the planted
    diagonal ones.  Planted: three values inside ``window``, ``near`` values
    1e-3 r inside or outside a window edge or the circle of radius r, and a
    value mu of multiplicity ``repeat``, one Jordan block when ``jordan``
    (consecutive, coupled by ones), else semisimple (each copy a direct
    summand).  Returns the Section and mu.
    """
    rng = np.random.default_rng(seed)
    re0, re1, im0, im1 = window
    center, r = window_circle(window)
    lam = center + 4 * r * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    planted = [complex(rng.uniform(re0, re1), rng.uniform(im0, im1)) for _ in range(3)]
    for _ in range(near):
        side, where = rng.choice([-1.0, 1.0]) * 1e-3 * r, rng.integers(0, 3)
        if where == 0:
            planted.append(complex(rng.choice([re0, re1]) + side, rng.uniform(im0, im1)))
        elif where == 1:
            planted.append(complex(rng.uniform(re0, re1), rng.choice([im0, im1]) + side))
        else:
            planted.append(center + (r + side) * np.exp(2j * np.pi * rng.random()))
    mu = complex(rng.uniform(re0 + 0.3, re1 - 0.3), rng.uniform(im0 + 0.2, im1 - 0.2))
    lam[np.abs(lam - mu) < 0.1] += 0.5  # background values keep clear of mu's cluster
    slots = rng.permutation(np.arange(1, n - 1, 2))  # odd slots: neighbours differ
    lam[slots[: len(planted)]] = planted
    upper = {k: 0.5 * (rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)) for k in range(1, ku + 1)}
    protected = set()
    if jordan:
        start = int(rng.integers(1, n - repeat))
        copies = range(start, start + repeat)
        upper[1][start : start + repeat - 1] = 1.0
        protected.update(range(start - 1, start + repeat + 1))
    else:
        copies = [int(s) + 1 for s in slots[len(planted) : len(planted) + repeat]]  # even slots
        for p in copies:
            for k, d in upper.items():  # row p and column p hold nothing off the diagonal
                d[p : p + 1] = 0.0
                if p >= k:
                    d[p - k] = 0.0
            protected.update((p - 1, p, p + 1))
    lam[list(copies)] = mu
    sub = np.zeros(n - 1, dtype=complex)
    i = 0
    while i < n - 1:
        if rng.random() < 0.5 and not {i, i + 1} & protected:
            b, t = upper[1][i], 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
            l1, l2 = lam[i], lam[i + 1]
            lam[i], lam[i + 1], sub[i] = l1 - b * t, t * b + l2, t * (l1 - t * b - l2)
            i += 2
        else:
            i += 1
    return numerics.Section({-1: sub, 0: lam, **upper}), mu


def assert_windowed_or_fallback(sec, window, mu=None):
    """The windowed spectrum is zgeev's inside the window, or it records a fallback and is zgeev's.

    Eigenvalues within 0.05 of ``mu`` (a planted repeated value) are matched as a
    cluster: the same count on both sides, each with a backward error below
    1e-11 ||A||; all others pair up with zgeev's within 1e-10 ||A||.
    """
    dec, check = ra.windowed_spectrum(sec, window)
    ref = numerics.eig_dense(sec)
    assert ref.route == "banded"
    if check.fallback is not None:
        assert dec.route == "banded" and dec.window is None
        np.testing.assert_array_equal(dec.eigenvalues, ref.eigenvalues)
        return check
    assert dec.route == "windowed" and dec.window == tuple(window)
    assert check.found == check.contour_rank == dec.eigenvalues.size
    got, want = in_window(dec.eigenvalues, window), in_window(ref.eigenvalues, window)
    assert got.size == want.size  # never fewer in-window eigenvalues than zgeev
    a = sec.dense()
    norm = np.linalg.norm(a, 2)
    if mu is not None:
        near_got, near_want = np.abs(got - mu) < 0.05, np.abs(want - mu) < 0.05
        assert near_got.sum() == near_want.sum()
        for lam in got[near_got]:
            smin = np.linalg.svd(a - lam * np.eye(sec.n), compute_uv=False)[-1]
            assert smin <= 1e-11 * norm
        got, want = got[~near_got], want[~near_want]
    if got.size:
        cost = np.abs(got[:, np.newaxis] - want[np.newaxis, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * norm
    return check


class TestWindowedSpectrum:
    def test_demo_sections_match_banded_route(self):
        # the 7 complex_oscillator sections: the same in-window eigenvalues as
        # zgeev within 1e-10 relative, no fallback, residuals below 1e-14 ||A||
        ladder = demo_ladder()
        for size in ladder.sizes:
            sec = ladder.matrix(size)
            dec, check = ra.windowed_spectrum(sec, DEMO_WINDOW)
            assert dec.route == "windowed" and check.fallback is None
            assert check.found == check.contour_rank and check.gap >= ra.GAP_FACTOR
            got = in_window(dec.eigenvalues, DEMO_WINDOW)
            want = in_window(numerics.eig_dense(sec).eigenvalues, DEMO_WINDOW)
            assert got.size == want.size > 0
            np.testing.assert_array_less(np.abs(got - want), 1e-10 * np.abs(want))
            rows = np.flatnonzero(np.isin(dec.eigenvalues, got))
            norm = np.linalg.norm(sec.dense(), 2)
            assert np.all(dec.residuals_at(rows) <= 1e-14 * norm)
        assert not any("data" in vars(sec) for sec in ladder.cache.sections.values())

    def test_demo_classify_unchanged_against_banded_route(self, tmp_path, monkeypatch):
        # the demo's candidates and verdicts with the windowed route and with
        # every windowed request sent to zgeev instead
        def classify(out):
            assert cli.main(["demo", "complex_oscillator", "--out", str(out)]) == 0
            return json.loads((out / "classify.json").read_text())["candidates"]

        windowed = classify(tmp_path / "windowed")
        monkeypatch.setattr(ra, "windowed_spectrum", lambda m, window: (numerics.eig_dense(m), ra.WindowedCheck()))
        banded = classify(tmp_path / "banded")
        assert [(c["verdict"], c["multiplicity"], c["ranks"]) for c in windowed] == [
            (c["verdict"], c["multiplicity"], c["ranks"]) for c in banded
        ] == [("TrueEigenvalue", 1, [1, 1, 1])]
        for got, want in zip(windowed, banded):
            assert abs(complex(*got["lambda"]) - complex(*want["lambda"])) <= 1e-10
            assert got["probe"]["verdict"] == want["probe"]["verdict"]

    def test_sub_window_gives_the_same_bits(self):
        # snapped refinement: a solve for the classify window returns exactly
        # the eigenvalues the spectra window's solve holds inside its circle,
        # so a cache hit and a fresh solve write the same bytes
        ladder = demo_ladder()
        center, radius = window_circle(DEMO_CLASSIFY_WINDOW)
        for size in ladder.sizes:
            big, _ = ra.windowed_spectrum(ladder.matrix(size), DEMO_WINDOW)
            small, check = ra.windowed_spectrum(ladder.matrix(size), DEMO_CLASSIFY_WINDOW)
            assert check.fallback is None
            inside = big.eigenvalues[np.abs(big.eigenvalues - center) < radius]
            np.testing.assert_array_equal(small.eigenvalues, inside)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(64, 200),
        ku=hst.integers(1, 3),
        near=hst.integers(0, 4),
        repeat=hst.integers(1, 4),
        jordan=hst.booleans(),
    )
    @example(seed=1, n=64, ku=1, near=0, repeat=1, jordan=False)
    @example(seed=2, n=200, ku=3, near=4, repeat=4, jordan=True)
    @example(seed=3, n=150, ku=2, near=2, repeat=4, jordan=False)
    def test_property_planted_matches_zgeev_or_falls_back(self, seed, n, ku, near, repeat, jordan):
        sec, mu = planted_section(seed, n, ku, near, repeat, jordan)
        assert sec.kl + sec.ku <= 4 and sec.banded and not sec.hermitian
        assert_windowed_or_fallback(sec, PLANTED_WINDOW, mu if repeat > 1 else None)

    def test_planted_cases_take_both_branches(self):
        # simple eigenvalues away from the circle are extracted; a repeated
        # eigenvalue falls back on the count check: semisimple copies refine
        # onto one value, and a Jordan block's values miss the residual bound
        sec, _ = planted_section(1, 64, 1, 0, 1, False)
        assert assert_windowed_or_fallback(sec, PLANTED_WINDOW).fallback is None
        for jordan, missing in ((False, 2), (True, 3)):
            sec, mu = planted_section(0, 120, 2, 0, 3, jordan)
            check = assert_windowed_or_fallback(sec, PLANTED_WINDOW, mu)
            assert check.fallback.startswith("found") and check.found == check.contour_rank - missing

    @pytest.mark.parametrize("angle", [0.0, np.pi / ra.DEFAULT_QUADRATURE])
    def test_eigenvalue_on_the_circle_falls_back(self, angle):
        # on a quadrature node the node's factorization is refused; between
        # two nodes the rank or the count check gives way: zgeev either way
        sec, _ = planted_section(7, 96, 2, 0, 1, False)
        center, radius = window_circle(PLANTED_WINDOW)
        diagonals = dict(sec.diagonals)
        diagonals[0] = diagonals[0].copy()
        slot = int(np.flatnonzero(diagonals[-1] == 0)[4]) + 1  # a 1x1 block
        diagonals[0][slot] = center + radius * np.exp(1j * angle)
        sec = numerics.Section(diagonals)
        check = assert_windowed_or_fallback(sec, PLANTED_WINDOW)
        assert check.fallback is not None
        if angle == 0.0:
            assert check.fallback.startswith("ContourError") and check.contour_rank is None

    def test_exact_eigenvalues_on_the_snap_grid_are_found(self):
        # dyadic diagonal of an upper bidiagonal section: every eigenvalue is a
        # grid point, so the refinement after the snap starts on an exact zero pivot
        n = 64
        sec = numerics.Section({0: (np.arange(n) - 32) / 4 + 0.125 + 0.125j, 1: np.full(n - 1, 0.125)})
        check = assert_windowed_or_fallback(sec, PLANTED_WINDOW)
        assert check.fallback is None and check.found == 10  # 8 of them in the window

    def test_window_without_area_falls_back(self):
        sec, _ = planted_section(1, 64, 1, 0, 1, False)
        dec, check = ra.windowed_spectrum(sec, (0.5, 0.5, 0.25, 0.25))
        assert dec.route == "banded" and check.fallback.startswith("no circle")


def hits_and_misses(ledger):
    return ledger.counts["spectrum_cache"]["hits"], ledger.counts["spectrum_cache"]["misses"]


class TestSpectrumCacheContainment:
    @staticmethod
    def ladder():
        prob = dz.SchrodingerProblem("osc", p=lambda x: 0.0, q=lambda x: 1j * x * x, r=lambda x: 0.0, L_n=(3.0, 4.0))
        return ra.SectionLadder("osc", (1, 2), lambda n: dz.schrodinger_assemble(prob, n, 80))

    def test_windowed_entry_serves_contained_windows(self):
        lad = self.ladder()
        with numerics.Ledger() as ledger:
            first = lad.spectrum(1, DEMO_WINDOW)
            assert first.route == "windowed" and first.window == DEMO_WINDOW
            assert hits_and_misses(ledger) == (0, 1)
            # a sub-window, and the same window written corner-swapped, hit
            assert lad.spectrum(1, DEMO_CLASSIFY_WINDOW) is first
            assert lad.spectrum(1, (4.0, -0.5, 4.0, -0.5)) is first
            assert hits_and_misses(ledger) == (2, 1)
            first.residuals_at([0, 1])
            # a window reaching outside misses and replaces the entry
            other = lad.spectrum(1, (2.5, 5.0, 2.5, 5.0))
            assert other is not first and other.route == "windowed"
            assert lad.cache.spectra[1] is other
            assert hits_and_misses(ledger) == (2, 2)
            # no window asks for the whole spectrum: a miss, whatever window is held
            whole = lad.spectrum(1)
            assert whole.route == "banded" and whole.window is None
            assert whole.dimension == lad.matrix(1).n
            assert hits_and_misses(ledger) == (2, 3)
            assert lad.spectrum(1) is whole
            assert hits_and_misses(ledger) == (3, 3)
            # a whole zgeev spectrum does not serve a window: the windowed solve's
            # bits differ, and must not depend on what was asked before
            again = lad.spectrum(1, DEMO_WINDOW)
            assert again.route == "windowed" and again.window == DEMO_WINDOW
            np.testing.assert_array_equal(again.eigenvalues, first.eigenvalues)
            assert hits_and_misses(ledger) == (3, 4)
            # other sizes have their own entries
            assert lad.spectrum(2, DEMO_CLASSIFY_WINDOW).route == "windowed"
        assert hits_and_misses(ledger) == (3, 5)
        assert dict(ledger.counts["eig_routes"]) == {"windowed": 4, "banded": 1}
        checks = ledger.records["windowed_checks"]
        assert [c["size"] for c in checks] == [1, 1, 1, 2]
        assert all(c["fallback"] is None for c in checks)
        # the residuals of the entry since replaced stay counted
        assert dict(ledger.counts["residuals_computed"]) == {"windowed": 2}

    def test_hermitian_tridiagonal_window_takes_bisection(self):
        # the window's real interval, by bisection; the held interval serves
        # every window inside it, whatever its imaginary extent, with the bits
        # a fresh solve for that window gives
        lad = ra.SectionLadder("osc", (1,), lambda n: demo_ladder("oscillator").matrix(7))
        spectra_window, classify_window = (0.0, 8.5, -1.0, 1.0), (0.0, 8.0, -1.0, 1.0)
        with numerics.Ledger() as ledger:
            held = lad.spectrum(1, spectra_window)
            assert held.route == "bisection" and held.window == (0.0, 8.5, -np.inf, np.inf)
            assert held.dimension == 4 and "data" not in vars(held.section)
            for window in (classify_window, (8.0, 0.0, 5.0, 6.0), (1.0, 2.0, -1e9, 1e9)):
                assert lad.spectrum(1, window) is held
            assert hits_and_misses(ledger) == (3, 1)
        fresh = numerics.eig_dense(held.section, classify_window)
        np.testing.assert_array_equal(fresh.eigenvalues, held.eigenvalues)
        with ledger:
            # a whole spectrum replaces it, and serves no window
            whole = lad.spectrum(1)
            assert whole.route == "tridiagonal" and whole.window is None
            again = lad.spectrum(1, classify_window)
        assert again.route == "bisection" and again is not whole
        np.testing.assert_array_equal(again.eigenvalues, held.eigenvalues)
        assert hits_and_misses(ledger) == (3, 3)
        assert dict(ledger.counts["eig_routes"]) == {"bisection": 2, "tridiagonal": 1}
        assert ledger.records["windowed_checks"] == []

    def test_hermitian_and_small_sections_ignore_the_window(self):
        # a Hermitian section wider than tridiagonal and a small one have no
        # window route: their whole spectrum is computed and serves every window
        band = {0: np.arange(80.0), 1: np.ones(79), -1: np.ones(79), 2: np.ones(78), -2: np.ones(78)}
        herm = ra.SectionLadder("h", (1,), lambda n: numerics.Section(band))
        small = ra.SectionLadder("s", (1,), lambda n: numerics.Section({0: np.arange(20.0) + 1j, 1: np.ones(19)}))
        for lad, route in ((herm, "banded"), (small, "general")):
            with numerics.Ledger() as ledger:
                whole = lad.spectrum(1, DEMO_WINDOW)
                assert whole.route == route and whole.window is None
                assert lad.spectrum(1, (-1e3, 1e3, -1e3, 1e3)) is whole and lad.spectrum(1) is whole
            assert hits_and_misses(ledger) == (2, 1)
            assert ledger.records["windowed_checks"] == []
