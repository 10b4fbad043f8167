"""Sufficient-condition checkers: relative bounds, decay profiles, constant pipelines."""

import json
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from specexact import cli, discretize as dz, hypothesis_checker as hc, numerics, operator_model as om
from specexact.errors import AssumptionError, PoleError
from specexact.hypothesis_checker import Verdict

import dense_reference

ZERO = lambda x: 0.0
ONE = lambda x: 1.0


def brute_force_opnorm(mat, rng, probes=1000, refine_iters=300):
    """Independent sigma_max oracle: random unit probes plus Gram power iteration."""
    mat = np.asarray(mat)
    n = mat.shape[1]
    best_val, best_vec = -1.0, None
    sigma = numerics.op_norm(mat)
    for _ in range(probes):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        val = np.linalg.norm(mat @ x)
        assert val <= sigma + 1e-10  # sigma_max dominates every probe
        if val > best_val:
            best_val, best_vec = val, x
    x = best_vec
    for _ in range(refine_iters):
        y = mat.conj().T @ (mat @ x)
        x = y / np.linalg.norm(y)
    return np.linalg.norm(mat @ x)


class TestRelativeBound:
    def jacobi_sections(self, sizes):
        split = om.split_blocks(om.jacobi_spec(), range(2, max(sizes) + 2, 2))
        return (
            [split.diag_section(k) for k in sizes],
            [split.coupling_section(k) for k in sizes],
        )

    def test_jacobi_gamma_half(self):
        sizes = list(range(2, 82, 2))
        t_secs, s_secs = self.jacobi_sections(sizes)
        rep = hc.relative_bound(t_secs, s_secs, 0.0, sizes)
        assert rep.verdict is Verdict.PASS
        assert rep.constants["gamma_sup"] <= 0.5 + 1e-6
        gam = rep.per_size["gamma"]
        assert gam[0] == 0.0
        np.testing.assert_allclose(gam[1:], 0.5, atol=1e-10)

    def test_zero_perturbation(self):
        t = [np.eye(3) * 2.0] * 4
        s = [np.zeros((3, 3))] * 4
        rep = hc.relative_bound(t, s, 0.0)
        assert rep.constants["gamma_sup"] == 0.0
        assert rep.verdict is Verdict.PASS

    def test_identity_scalar(self):
        # S = T = I at lam = -1: gamma = ||I (I + 1)^{-1}|| = 1/2
        t = [np.eye(4)] * 3
        rep = hc.relative_bound(t, t, -1.0)
        np.testing.assert_allclose(rep.per_size["gamma"], 0.5, atol=1e-12)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(1)
        t = [rng.standard_normal((5, 5)) + 3 * np.eye(5) for _ in range(3)]
        s = [rng.standard_normal((5, 5)) for _ in range(3)]
        base = hc.relative_bound(t, s, 0.5).per_size["gamma"]
        scaled = hc.relative_bound(t, [2.5 * m for m in s], 0.5).per_size["gamma"]
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_pole_error_names_size(self):
        t = [np.diag([0.0, 1.0])]
        with pytest.raises(PoleError) as exc:
            hc.relative_bound(t, t, 0.0, sizes=[7])
        assert exc.value.index == 7

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(3, 21))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 4 * np.eye(n)
            s = rng.standard_normal((n, n))
            rep = hc.relative_bound([t], [s], 0.0)
            target = s @ np.linalg.inv(t)
            target /= numerics.op_norm(target)  # normalize so the 1e-6 bound is scale-free
            oracle = brute_force_opnorm(target, rng)
            assert abs(1.0 - oracle) <= 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([6, 40, 64, 100]),
        shape=hst.sampled_from(["hermitian_tridiagonal", "banded", "dense"]),
        complex_t=hst.booleans(),
        complex_lam=hst.booleans(),
    )
    def test_property_gamma_matches_explicit_inverse(self, seed, n, shape, complex_t, complex_lam):
        rng = np.random.default_rng(seed)
        i, j = np.indices((n, n))

        def section():
            m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_t else 0.0)
            if shape == "hermitian_tridiagonal":
                m = np.triu(np.tril(m, 1), 1)
                return m + m.conj().T + np.diag(rng.uniform(3.0, 6.0, n))
            if shape == "banded":
                m = m * (np.abs(i - j) <= 2)
            return m + 4.0 * np.sqrt(n) * np.eye(n)  # spectrum well right of lam

        t, d, s, b = section(), section(), section(), section()
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) if complex_lam else 0.0)
        sec = numerics.Section(t)
        assert sec.banded == (n >= 64 and shape != "dense")
        assert (sec.tridiagonal is not None) == (shape == "hermitian_tridiagonal")

        def want(t, s):
            return numerics.op_norm(s @ np.linalg.inv(t - lam * np.eye(n)))

        rep = hc.relative_bound([sec], [s], lam)
        assert rep.per_size["gamma"][0] == pytest.approx(want(t, s), rel=1e-12)
        two = hc.gamma_product_2x2([t], [b], [s], [d], lam)
        assert two.constants["gamma_ac"] == pytest.approx(want(t, s), rel=1e-12)
        assert two.constants["gamma_db"] == pytest.approx(want(d, b), rel=1e-12)

    def test_neumann_consequence(self):
        sizes = list(range(2, 42, 2))
        t_secs, s_secs = self.jacobi_sections(sizes)
        rep = hc.relative_bound(t_secs, s_secs, 0.0, sizes)
        for t, s, g in zip(t_secs, s_secs, rep.per_size["gamma"]):
            assert g < 1
            assert dense_reference.sigma_min(t.data + s.data) >= (1 - g) * dense_reference.sigma_min(t) - 1e-10

    def test_jacobi_gamma_at_1024_stays_under_two_complex_squares(self):
        # T is declared tridiagonal and S is dense only while its own size is
        # solved: the peak holds S and the complex solve, under two complex
        # 1024 x 1024 arrays (32 MiB); the SVD of the product is LAPACK's
        n = 1024
        tracemalloc.start()
        try:
            split = om.split_blocks(om.jacobi_spec(), range(2, n + 1, 2))
            rep = hc.relative_bound([split.diag_section(n)], [split.coupling_section(n)], 0.0, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * n * n
        np.testing.assert_allclose(rep.per_size["gamma"], 0.5, atol=1e-10)


    @pytest.mark.parametrize("e, verdict", [(1.0 - 1e-6, Verdict.PASS), (1.0 + 1e-6, Verdict.FAIL)])
    def test_verdict_flips_at_margin(self, e, verdict):
        # T = I, S = g I at lam = 0: gamma = g, placed at e times 1 - MARGIN
        g = e * (1.0 - hc.MARGIN)
        rep = hc.relative_bound([np.eye(3)] * 2, [g * np.eye(3)] * 2, 0.0)
        assert rep.constants["gamma_sup"] == pytest.approx(g, rel=1e-14)
        assert rep.constants["margin"] == hc.MARGIN
        assert rep.verdict is verdict


class TestGammaProduct2x2:
    @pytest.mark.parametrize("e, verdict", [(1.0 - 1e-6, Verdict.PASS), (1.0 + 1e-6, Verdict.FAIL)])
    def test_verdict_flips_at_margin(self, e, verdict):
        # A = D = I, B = I, C = c I at lam = 0: gamma^AC = c and gamma^DB = 1, so the product is c
        c = e * (1.0 - hc.MARGIN)
        eye = [np.eye(3)] * 2
        rep = hc.gamma_product_2x2(eye, eye, [c * np.eye(3)] * 2, eye, 0.0)
        assert rep.constants["product"] == pytest.approx(c, rel=1e-14)
        assert rep.constants["margin"] == hc.MARGIN
        assert rep.verdict is verdict

    def test_zero_couplings(self):
        eye = [np.eye(3)] * 3
        zero = [np.zeros((3, 3))] * 3
        rep = hc.gamma_product_2x2(eye, zero, zero, eye, -1.0)
        assert rep.constants["product"] == 0.0
        assert rep.verdict is Verdict.PASS

    def test_scalar_identity_sections(self):
        c = 0.8
        eye = [np.eye(4)] * 3
        coup = [c * np.eye(4)] * 3
        rep = hc.gamma_product_2x2(eye, coup, coup, eye, -1.0)
        assert rep.constants["gamma_ac"] == pytest.approx(c / 2, abs=1e-12)
        assert rep.constants["product"] == pytest.approx(c * c / 4, abs=1e-12)

    def test_sl_demo_product_below_one(self):
        # u = s = 0.5, gamma1 = gamma2 = 1, t = v = 0; lambda0 from the search
        search = hc.sl_lambda0_search(1.0, 1.0, 0.5, 0.0, 0.5, 0.0)
        assert search.verdict is Verdict.PASS
        lam0 = search.lam
        prob = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        t1 = [dz.sl_assemble(prob, 1, m).data for m in (40, 80, 120)]
        a_secs = [1.0 * t for t in t1]
        d_secs = [1.0 * t for t in t1]
        b_secs = [0.5 * t for t in t1]
        c_secs = [0.5 * t for t in t1]
        rep = hc.gamma_product_2x2(a_secs, b_secs, c_secs, d_secs, lam0)
        assert rep.verdict is Verdict.PASS
        # oracle: by selfadjointness the norm is max_k |0.5 theta_k / (theta_k - lam0)|
        for t, got in zip(t1, rep.per_size["gamma_ac"]):
            theta = np.linalg.eigvalsh(t)
            want = np.max(0.5 * np.abs(theta) / np.abs(theta - lam0))
            assert got == pytest.approx(want, rel=1e-8)
        # and the proof-side bound dominates the computed sups
        assert rep.constants["gamma_ac"] <= search.constants["gamma_bound_1"] + 1e-12

    @staticmethod
    def sl_matrix_blocks(g1, g2, s, t, u, v, m, beta=0.0):
        """sl_blocks at both truncations of a two-step ladder, varying p and q, one beta for both components.

        The declared sup norms are zero: sl_blocks samples the couplings and never reads them.
        """
        tau1 = dz.SLProblem(
            "t1", lambda x: 1.5 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, beta, (0.2, 0.1), 0.5, 1.0
        )
        tau2 = dz.SLProblem("t2", lambda x: 2.0 + np.cos(x), ZERO, 0.0, np.pi, beta, (0.2, 0.1), 1.0, 0.0)
        coefficient = lambda c: c if callable(c) else (lambda x: c)
        mp = dz.SLMatrixProblem(
            "blk", tau1, tau2, g1, g2, *map(coefficient, (s, t, u, v)), 0.0, 0.0, 0.0, 0.0
        )
        return [dz.sl_blocks(mp, n, m) for n in (1, 2)]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        m=hst.sampled_from([6, 40, 90]),
    )
    def test_property_eigenvalue_route_matches_svd_route(self, seed, m):
        # constant couplings over beta = 0 components: each coupling is declared over its
        # diagonal block, and the eigenvalue formula agrees with solves and an SVD, the
        # route the same couplings take when paired with dense diagonal blocks instead
        rng = np.random.default_rng(seed)
        g1, g2, s, t, u, v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        blocks = self.sl_matrix_blocks(g1, g2, s, t, u, v, m)
        lam = complex(*rng.uniform(-3.0, 3.0, 2)) * max(blocks[0][0].norm, 1.0)
        for a, b, c, d in blocks:
            assert c.kronecker.base is a.kronecker.base and b.kronecker.base is d.kronecker.base
            assert [(sec.kronecker.k1[0, 0], sec.kronecker.k0[0, 0]) for sec in (a, b, c, d)] == [
                (g1, 0), (s, t), (u, v), (g2, 0)
            ]
            for block in (a, d):
                theta = block.kronecker.base.tridiagonal.eigenvalues()
                assume(np.min(np.abs(block.kronecker.blocks(theta)[0] - lam)) > 1e-6 * np.max(np.abs(theta)))
        with numerics.Ledger() as ledger:
            got = hc.gamma_product_2x2(*zip(*blocks), lam)
        assert dict(ledger.counts["gamma_routes"]) == {"eigenvalues": 4}
        with numerics.Ledger() as ledger:
            want = hc.gamma_product_2x2(*zip(*((a.dense(), b, c, d.dense()) for a, b, c, d in blocks)), lam)
        assert dict(ledger.counts["gamma_routes"]) == {"svd": 4}
        for key in ("gamma_ac", "gamma_db"):
            np.testing.assert_allclose(got.per_size[key], want.per_size[key], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [20, 90])
    @pytest.mark.parametrize("k", [0, -1])
    def test_eigenvalue_route_keeps_the_pole_error(self, m, k):
        g1 = 1.0 + 0.5j
        blocks = self.sl_matrix_blocks(g1, 1j, 0.3, 0.0, 0.2 - 0.1j, 0.4, m)
        lam = g1 * blocks[1][0].kronecker.base.tridiagonal.eigenvalues()[k]  # on A's spectrum at size 2
        with pytest.raises(PoleError) as declared:
            hc.gamma_product_2x2(*zip(*blocks), lam, [5, 7])
        with pytest.raises(PoleError) as dense:
            hc.gamma_product_2x2(*zip(*([sec.dense() for sec in blk] for blk in blocks)), lam, [5, 7])
        message = f"lambda = {lam} is (numerically) in the spectrum of A-section at size 7"
        assert str(declared.value) == str(dense.value) == message
        assert declared.value.index == dense.value.index == 7

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_shared_t_pole_error_keeps_its_message_and_index(self, k):
        # T1 = T2, so both products read one theta; lambda = g2 theta_k lies on D's spectrum at
        # size 2 and off A's (g1 theta is not real), so the D-section raises as on the dense route
        g2 = 2.0
        tau = dz.SLProblem("t", lambda x: 1.5 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, 0.0, (0.2, 0.1), 0.5, 1.0)
        c = lambda z: (lambda x: z)
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0 + 0.5j, g2, c(0.3), c(0.1), c(0.2), c(0.4), 0.0, 0.0, 0.0, 0.0)
        blocks = [dz.sl_blocks(mp, n, 40) for n in (1, 2)]
        for _, b, c_sec, _ in blocks:
            assert b.kronecker.base is c_sec.kronecker.base
        lam = complex(g2 * blocks[1][1].kronecker.base.tridiagonal.eigenvalues()[k])
        with pytest.raises(PoleError) as declared:
            hc.gamma_product_2x2(*zip(*blocks), lam, [5, 7])
        with pytest.raises(PoleError) as dense:
            hc.gamma_product_2x2(*zip(*([sec.dense() for sec in blk] for blk in blocks)), lam, [5, 7])
        message = f"lambda = {lam} is (numerically) in the spectrum of D-section at size 7"
        assert str(declared.value) == str(dense.value) == message
        assert declared.value.index == dense.value.index == 7

    @pytest.mark.parametrize("stages", ["verify", "demo"])
    def test_demo_verify_stage_solves_each_t_once(self, tmp_path, monkeypatch, stages):
        # the sl_matrix demo's 10 sizes: one dstevd per size serves both products and their pole
        # checks, and no block is bisected (dstebz); run after the spectra stage, verify reads the
        # T that stage solved, which the problem keeps, so the whole demo makes the same 10 calls
        calls = Counter()

        def counting(name, routine):
            return lambda *args, **kwargs: calls.update([name]) or routine(*args, **kwargs)

        for name in ("dstevd", "dstebz"):
            monkeypatch.setattr(numerics._flapack, name, counting(name, getattr(numerics._flapack, name)))
        doc = cli.demo_problem("sl_matrix")
        if stages == "verify":
            doc["analysis"] = [{"op": "verify", "checks": [{"check": "sl_matrix"}]}]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        verify = json.loads((tmp_path / "out" / "report.json").read_text())["stages"][-1]
        assert verify["op"] == "verify" and verify["gamma_routes"] == {"eigenvalues": 20, "svd": 0}
        assert calls == Counter(dstevd=10)

    @pytest.mark.parametrize(
        "u, beta, svd_per_size",
        [(lambda x: 0.2 * np.cos(x), 0.0, 1), (0.2, np.pi / 4, 2)],
        ids=["x_dependent_u", "beta_nonzero"],
    )
    def test_undeclared_couplings_keep_the_svd_route(self, monkeypatch, u, beta, svd_per_size):
        # the route of every input the builder does not declare: one solve and one SVD
        # of the n x n product per coupling, bit for bit the explicit formula
        blocks = self.sl_matrix_blocks(1.0 + 0.5j, 1.0, 0.3, 0.1, u, 0.4, 90, beta)
        lam = -50.0 + 20.0j
        products = []
        op_norm = numerics.op_norm
        monkeypatch.setattr(
            numerics, "op_norm", lambda m: products.append(not isinstance(m, numerics.Section)) or op_norm(m)
        )
        with numerics.Ledger() as ledger:
            rep = hc.gamma_product_2x2(*zip(*blocks), lam)
        assert sum(products) == svd_per_size * len(blocks)
        assert ledger.counts["gamma_routes"] == Counter(svd=svd_per_size * 2, eigenvalues=(2 - svd_per_size) * 2)

        def explicit(t, s):
            return op_norm(t.factor(lam).solve(s.dense().conj().T, adjoint=True))

        assert blocks[0][2].kronecker is None
        assert list(rep.per_size["gamma_ac"]) == [explicit(a, c) for a, _, c, _ in blocks]
        if beta:
            assert list(rep.per_size["gamma_db"]) == [explicit(d, b) for _, b, _, d in blocks]

    @pytest.mark.parametrize("check", ["relative_bound", "gamma_product_2x2"])
    def test_short_sizes_raise(self, check):
        t = [np.diag([2.0, 3.0]), np.diag([2.0, 3.0, 4.0])]
        s = [np.zeros((2, 2)), 0.5 * np.eye(3)]
        run = {
            "relative_bound": lambda sizes: hc.relative_bound(t, s, 0.0, sizes=sizes),
            "gamma_product_2x2": lambda sizes: hc.gamma_product_2x2(t, s, s, t, 0.0, sizes=sizes),
        }[check]
        for sizes in ([2], [2, 3, 4]):
            with pytest.raises(ValueError, match="one size per section"):
                run(sizes)
        assert run([2, 3]).per_size["sizes"] == [2, 3]


class TestUniformDecay:
    def test_jacobi_blocks_exact(self):
        blocks = [np.array([[0.0, 2.0 * n], [2.0 * n, 0.0]]) for n in range(1, 101)]
        rep = hc.uniform_resolvent_decay(blocks, 0.0, tag="Galerkin")
        np.testing.assert_allclose(rep.per_size["d"], 1.0 / (2.0 * np.arange(1, 101)), atol=1e-12)
        assert rep.verdict is Verdict.PASS

    def test_constant_blocks_fail(self):
        rep = hc.uniform_resolvent_decay([np.array([[1.0]])] * 30, 0.0)
        np.testing.assert_array_equal(rep.per_size["d"], 1.0)
        assert rep.verdict is Verdict.FAIL

    def test_cubic_scalar_blocks(self):
        lam = 50j
        blocks = [np.array([[float(j**3)]]) for j in range(1, 41)]
        rep = hc.uniform_resolvent_decay(blocks, lam)
        js = np.arange(1, 41)
        np.testing.assert_allclose(rep.per_size["d"], 1.0 / np.abs(js**3 - lam), rtol=1e-12)
        assert rep.verdict is Verdict.PASS

    def test_inner_sup_over_n(self):
        # family B_j^{(n)}: sup over n picked per j
        fam = [[np.array([[2.0 * j]]), np.array([[1.0 * j]])] for j in range(1, 31)]
        rep = hc.uniform_resolvent_decay(fam, 0.0)
        np.testing.assert_allclose(rep.per_size["d"], 1.0 / np.arange(1, 31), rtol=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            hc.uniform_resolvent_decay([np.array([[0.0]])], 0.0)

    @pytest.mark.parametrize(
        "profile, below, above",
        [
            # head/tail = e * DECAY_FACTOR with the tail minimum 0.05, below TAIL_THRESHOLD
            (lambda e: [0.05 * e * hc.DECAY_FACTOR] * 4 + [0.05] * 2, Verdict.FAIL, Verdict.PASS),
            # tail minimum e * TAIL_THRESHOLD with head/tail 10, above DECAY_FACTOR
            (lambda e: [1.0] * 4 + [e * hc.TAIL_THRESHOLD] * 2, Verdict.PASS, Verdict.FAIL),
        ],
        ids=["decay_factor", "tail_threshold"],
    )
    def test_verdict_flips_at_threshold(self, profile, below, above):
        for e, verdict in ((1.0 - 1e-6, below), (1.0 + 1e-6, above)):
            # 1x1 blocks [1 / d_j] at lam = 0 give the profile d_j
            d = profile(e)
            rep = hc.uniform_resolvent_decay([np.array([[1.0 / dj]]) for dj in d], 0.0)
            np.testing.assert_allclose(rep.per_size["d"], d, rtol=1e-14)
            assert rep.constants["decay_factor"] == hc.DECAY_FACTOR
            assert rep.constants["tail_threshold"] == hc.TAIL_THRESHOLD
            assert rep.verdict is verdict, e


class TestSLCoercivity:
    def test_beta_zero(self):
        assert hc.sl_coercivity(1.0, 5.0, 0.0) == 5.0

    def test_beta_half_pi(self):
        assert hc.sl_coercivity(2.0, 3.0, np.pi / 2) == 3.0

    def test_beta_quarter_pi(self):
        assert hc.sl_coercivity(1.0, 0.0, np.pi / 4) == pytest.approx(-2.0, abs=1e-12)

    def test_constant_on_upper_range(self):
        for beta in np.linspace(np.pi / 2, np.pi - 1e-6, 7):
            assert hc.sl_coercivity(1.0, 1.5, beta) == 1.5

    def test_continuous_on_lower_range(self):
        betas = np.linspace(0, np.pi / 2 - 1e-3, 50)
        vals = [hc.sl_coercivity(1.0, 0.0, b) for b in betas]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))  # decreasing in beta

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.sl_coercivity(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            hc.sl_coercivity(1.0, 1.0, np.pi)


class TestSLLambda0Search:
    def test_zero_couplings_first_candidate(self):
        rep = hc.sl_lambda0_search(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        assert rep.verdict is Verdict.PASS
        assert rep.constants["eps"] == hc.EPS_GRID[0]
        assert rep.constants["product"] == 0.0

    def test_perpendicular_lines_force_sqrt2(self):
        rep = hc.sl_lambda0_search(1.0, 1j, 0.0, 0.0, 0.0, 0.0)
        assert rep.verdict is Verdict.PASS
        # independent oracle: dense maximization of |xi| / |xi - lam0| over the real line
        lam0 = rep.lam
        ts = np.linspace(-40 * abs(lam0), 40 * abs(lam0), 400_001)
        oracle = np.max(np.abs(ts) / np.abs(ts - lam0))
        assert rep.constants["sup_ratio_1"] == pytest.approx(max(oracle, 1.0), rel=1e-4)
        assert oracle == pytest.approx(np.sqrt(2.0), rel=1e-3)
        assert 1.0 + rep.constants["eps"] >= oracle - 1e-3

    def test_coincident_lines(self):
        rep = hc.sl_lambda0_search(1.0, 1.0, 0.5, 0.0, 0.5, 0.0)
        assert rep.verdict is Verdict.PASS
        lam0 = rep.lam
        # bisector is the perpendicular: lam0 purely imaginary, dist = |lam0| >= 1/eps
        assert abs(lam0.real) <= 1e-9 * abs(lam0)
        assert rep.constants["dist_1"] >= 1.0 / rep.constants["eps"]
        # small eps admissible too: check the inequalities directly at eps = 0.01
        eps = 0.01
        lam_small = (np.sqrt(2) / eps) * 1j
        ts = np.linspace(-10 * abs(lam_small), 10 * abs(lam_small), 100_001)
        sup = max(np.max(np.abs(ts) / np.abs(ts - lam_small)), 1.0)
        assert sup <= 1 + eps
        assert abs(lam_small.imag) >= 1 / eps

    def test_sup_peak_far_along_the_line(self):
        # lines 6 degrees apart put lambda_0 at 87 degrees to each; |xi| / |xi - lambda_0| peaks at
        # 1 / sin(87 deg) = 1.00137 > 1 + 0.001, at |xi| = |lambda_0| / cos(87 deg), 19 |lambda_0| out
        # along the line, so the eps = 0.001 candidate must fail its sup condition
        gamma2 = np.exp(1j * np.deg2rad(6.0))
        rep = hc.sl_lambda0_search(1.0, gamma2, 0.9985, 0.0, 0.9985, 0.0)
        assert rep.verdict is Verdict.FAIL
        lam0 = np.sqrt(2.0) / 0.001 * np.exp(1j * np.deg2rad(93.0))
        xi = np.linspace(-21.0, -18.0, 30_001) * abs(lam0)  # Re lambda_0 < 0
        oracle = np.max(np.abs(xi) / np.abs(xi - lam0))
        assert oracle > 1.001 and oracle == pytest.approx(1.0 / np.sin(np.deg2rad(87.0)), rel=1e-12)
        assert rep.constants["sup_ratio_1"] == pytest.approx(oracle, rel=1e-12)

    def test_self_audit(self):
        rep = hc.sl_lambda0_search(2.0, 1j, 0.3, 0.1, 0.4, 0.2)
        if rep.verdict is Verdict.PASS:
            c = rep.constants
            assert c["sup_ratio_1"] <= 1 + c["eps"] and c["sup_ratio_2"] <= 1 + c["eps"]
            assert c["dist_1"] >= 1 / c["eps"] and c["dist_2"] >= 1 / c["eps"]
            assert c["product"] < 1

    def test_precondition(self):
        with pytest.raises(AssumptionError):
            hc.sl_lambda0_search(1.0, 1.0, 1.0, 0.0, 1.0, 0.0)


class TestSchrodingerConstants:
    def test_constant_potential(self):
        rep = hc.schrodinger_constants(
            {"a_grad": 0.0, "b_grad": 0.0, "a_r": 0.0, "b_r": 0.0, "p_sup": 0.0}
        )
        assert rep.verdict is Verdict.PASS
        c = rep.constants
        # pipeline re-evaluation oracle at the returned knobs
        nu_factor = 1 + 1 / (4 * c["nu"])
        b = max(c["beta"] * nu_factor, c["b_r"] * (1 + c["nu"]))
        a = c["p_sup"] ** 4 / (4 * c["beta"]) * nu_factor + c["a_r"] * (1 + c["nu"])
        c_alpha = c["eps"] * c["a_grad"] + 1 / (4 * c["eps"] * c["delta"])
        gamma = np.sqrt((a + b * c_alpha / (1 - c["alpha"])) / c["lambda0"] ** 2 + b / (1 - c["alpha"]))
        assert gamma == pytest.approx(c["gamma"], rel=1e-12)
        assert gamma < 1
        assert max(c["delta"] / c["eps"], c["eps"] * c["b_grad"]) <= c["alpha"] + 1e-15
        assert b < 1 and b / (1 - c["alpha"]) < 1

    def test_oscillator_fitted(self):
        sp = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(20.0,))
        rep = hc.schrodinger_constants(sp)
        assert rep.verdict is Verdict.PASS
        c = rep.constants
        nu_factor = 1 + 1 / (4 * c["nu"])
        b = max(c["beta"] * nu_factor, c["b_r"] * (1 + c["nu"]))
        a = c["p_sup"] ** 4 / (4 * c["beta"]) * nu_factor + c["a_r"] * (1 + c["nu"])
        c_alpha = c["eps"] * c["a_grad"] + 1 / (4 * c["eps"] * c["delta"])
        gamma = np.sqrt((a + b * c_alpha / (1 - c["alpha"])) / c["lambda0"] ** 2 + b / (1 - c["alpha"]))
        assert gamma == pytest.approx(c["gamma"], rel=1e-12) and gamma < 1

    def test_b_r_one_rejected(self):
        with pytest.raises(AssumptionError):
            hc.schrodinger_constants({"a_grad": 0.0, "b_grad": 0.0, "a_r": 0.0, "b_r": 1.0, "p_sup": 0.0})


def loop_schrodinger_constants(consts, knob_grid=hc.KNOB_GRID) -> hc.HypothesisReport:
    """Reference: the scalar loop over all four knobs that the vectorized search replaced."""
    a_grad, b_grad = float(consts["a_grad"]), float(consts["b_grad"])
    a_r, b_r = float(consts["a_r"]), float(consts["b_r"])
    p_sup = float(consts.get("p_sup", 0.0))
    grid = np.asarray(knob_grid, dtype=float)
    best = None
    best_fail = None
    lam_max = 10.0 ** hc.LAMBDA_EXPONENTS[-1]
    for nu in grid:
        nu_factor = 1.0 + 1.0 / (4.0 * nu)
        for beta in grid:
            b = max(beta * nu_factor, b_r * (1.0 + nu))
            if b >= 1.0:
                continue
            a = p_sup**4 / (4.0 * beta) * nu_factor + a_r * (1.0 + nu)
            for alpha in grid:
                if alpha >= 1.0 or b / (1.0 - alpha) >= 1.0:
                    continue
                eps_adm = grid if b_grad == 0.0 else grid[grid * b_grad <= alpha]
                if eps_adm.size == 0:
                    continue
                delta_cap = alpha * eps_adm
                pos = np.searchsorted(grid, delta_cap * (1 + 1e-15), side="right") - 1
                ok = pos >= 0
                if not np.any(ok):
                    continue
                eps_adm, pos = eps_adm[ok], pos[ok]
                delta = grid[pos]
                c_alpha = eps_adm * a_grad + 1.0 / (4.0 * eps_adm * delta)
                num = a + b * c_alpha / (1.0 - alpha)
                den = 1.0 - b / (1.0 - alpha)
                needed = np.sqrt(num / den)
                exps = np.ceil(np.log10(np.maximum(needed, 1.0)))
                exps = np.where(10.0**exps <= needed, exps + 1, exps)
                for i in range(eps_adm.size):
                    k = exps[i]
                    if k > hc.LAMBDA_EXPONENTS[-1]:
                        gamma_at_max = float(np.sqrt(num[i] / lam_max**2 + b / (1.0 - alpha)))
                        if best_fail is None or gamma_at_max < best_fail[0]:
                            best_fail = (
                                gamma_at_max,
                                dict(nu=nu, beta=beta, alpha=alpha, eps=eps_adm[i], delta=delta[i],
                                     a=a, b=b, c_alpha=c_alpha[i], lambda0=-lam_max,
                                     gamma=gamma_at_max),
                            )
                        continue
                    lam0 = 10.0**k
                    gamma = float(np.sqrt(num[i] / lam0**2 + b / (1.0 - alpha)))
                    key = (lam0, gamma, nu, beta, alpha, eps_adm[i])
                    if gamma < 1.0 and (best is None or key < best[0]):
                        best = (
                            key,
                            dict(nu=nu, beta=beta, alpha=alpha, eps=eps_adm[i], delta=delta[i],
                                 a=a, b=b, c_alpha=c_alpha[i], lambda0=-lam0, gamma=gamma),
                        )
    base = {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}
    if best is not None:
        record = best[1]
        return hc.HypothesisReport(
            theorem="Schrodinger", lam=complex(record["lambda0"]), constants={**base, **record},
            per_size={}, verdict=Verdict.PASS,
        )
    return hc.HypothesisReport(
        theorem="Schrodinger", lam=None, constants={**base, **(best_fail[1] if best_fail else {})},
        per_size={}, verdict=Verdict.FAIL,
        notes="no knob combination reached gamma < 1 within the lambda_0 scan",
    )


def per_pair_schrodinger_constants(consts, knob_grid=hc.KNOB_GRID) -> hc.HypothesisReport:
    """Reference: the search with one numpy pass per (nu, beta) pair, which the per-nu search replaced."""
    a_grad, b_grad = float(consts["a_grad"]), float(consts["b_grad"])
    a_r, b_r = float(consts["a_r"]), float(consts["b_r"])
    p_sup = float(consts.get("p_sup", 0.0))
    grid = np.asarray(knob_grid, dtype=float)
    top = hc.LAMBDA_EXPONENTS[-1]
    lam_max = 10.0**top
    best = None  # (key, record), key = (|lam0|, gamma, nu, beta, alpha, eps)
    best_fail = None  # (gamma, record) at the largest lambda scanned
    eps = grid[np.newaxis, :]
    for nu in grid:
        nu_factor = 1.0 + 1.0 / (4.0 * nu)
        for beta in grid:
            b = max(beta * nu_factor, b_r * (1.0 + nu))
            if b >= 1.0:
                continue
            a = p_sup**4 / (4.0 * beta) * nu_factor + a_r * (1.0 + nu)
            # one row per admissible alpha, one column per eps; alpha >= 1 is
            # dropped before it can reach b / (1 - alpha)
            alpha = grid[grid < 1.0]
            alpha = alpha[b / (1.0 - alpha) < 1.0][:, np.newaxis]
            if alpha.size == 0:
                continue
            # largest admissible grid delta for each eps minimizes C_alpha
            pos = np.searchsorted(grid, alpha * eps * (1 + 1e-15), side="right") - 1
            ok = pos >= 0
            if b_grad != 0.0:
                ok &= eps * b_grad <= alpha
            delta = grid[pos]
            c_alpha = eps * a_grad + 1.0 / (4.0 * eps * delta)
            num = a + b * c_alpha / (1.0 - alpha)
            den = 1.0 - b / (1.0 - alpha)
            needed = np.sqrt(num / den)
            exps = np.ceil(np.log10(np.maximum(needed, 1.0)))
            # strict inequality: bump when 10^k equals the threshold exactly
            exps = np.where(10.0**exps <= needed, exps + 1, exps)
            missed = exps > top
            # gamma at lambda_0 = -10^k; where gamma stays >= 1 on the whole
            # lambda scan, at the largest lambda scanned
            lam0 = 10.0 ** np.minimum(exps, top)
            gamma = np.sqrt(num / lam0**2 + b / (1.0 - alpha))

            # nonzero walks (alpha, eps) in loop order, so ties keep the first
            rows, cols = np.nonzero(ok & ~missed & (gamma < 1.0))
            if rows.size:
                k = np.lexsort((grid[cols], alpha[rows, 0], gamma[rows, cols], lam0[rows, cols]))[0]
                i, j = rows[k], cols[k]
                key = (lam0[i, j], float(gamma[i, j]), nu, beta, alpha[i, 0], grid[j])
                if best is None or key < best[0]:
                    best = (
                        key,
                        dict(nu=nu, beta=beta, alpha=alpha[i, 0], eps=grid[j], delta=delta[i, j],
                             a=a, b=b, c_alpha=c_alpha[i, j], lambda0=-lam0[i, j], gamma=key[1]),
                    )
            rows, cols = np.nonzero(ok & missed)
            if rows.size:
                k = np.argmin(gamma[rows, cols])
                i, j = rows[k], cols[k]
                gamma_at_max = float(gamma[i, j])
                if best_fail is None or gamma_at_max < best_fail[0]:
                    best_fail = (
                        gamma_at_max,
                        dict(nu=nu, beta=beta, alpha=alpha[i, 0], eps=grid[j], delta=delta[i, j],
                             a=a, b=b, c_alpha=c_alpha[i, j], lambda0=-lam_max, gamma=gamma_at_max),
                    )
    base = {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}
    if best is not None:
        record = best[1]
        return hc.HypothesisReport(
            theorem="Schrodinger", lam=complex(record["lambda0"]), constants={**base, **record},
            per_size={}, verdict=Verdict.PASS,
        )
    return hc.HypothesisReport(
        theorem="Schrodinger", lam=None, constants={**base, **(best_fail[1] if best_fail else {})},
        per_size={}, verdict=Verdict.FAIL,
        notes="no knob combination reached gamma < 1 within the lambda_0 scan",
    )


def assert_same_as_loop(consts, knob_grid=hc.KNOB_GRID) -> hc.HypothesisReport:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = hc.schrodinger_constants(consts, knob_grid=knob_grid)
    want = loop_schrodinger_constants(consts, knob_grid)
    assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
    return rep


def scaled(lo: float, hi: float, zero: bool = False):
    """10^x for x in [lo, hi], or exactly 0.0 when ``zero``."""
    values = hst.floats(lo, hi).map(lambda x: 10.0**x)
    return hst.one_of(hst.just(0.0), values) if zero else values


class TestSchrodingerConstantsVectorized:
    @pytest.mark.parametrize("demo", ["oscillator", "complex_oscillator"])
    def test_demo_constants_bit_identical_to_loop(self, demo):
        prob = cli.parse_problem(cli.demo_problem(demo))
        rep = assert_same_as_loop(prob.schrodinger.assumption_constants())
        assert rep.verdict is Verdict.PASS

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        a_grad=scaled(-3.0, 9.0, zero=True),
        b_grad=scaled(-3.0, 4.0, zero=True),
        a_r=scaled(-3.0, 20.0),
        b_r=hst.floats(0.0, 0.999),
        p_sup=scaled(-2.0, 3.0, zero=True),
        knobs=hst.sets(hst.sampled_from(hc.KNOB_GRID), min_size=3, max_size=14),
    )
    def test_property_bit_identical_to_loop(self, a_grad, b_grad, a_r, b_r, p_sup, knobs):
        consts = {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}
        assert_same_as_loop(consts, tuple(sorted(knobs)))


class TestSchrodingerConstantsPerNu:
    """One numpy pass per nu against the per-(nu, beta) search it replaced, record for record."""

    @staticmethod
    def assert_same_as_per_pair(consts, knob_grid=hc.KNOB_GRID) -> hc.HypothesisReport:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = hc.schrodinger_constants(consts, knob_grid=knob_grid)
        want = per_pair_schrodinger_constants(consts, knob_grid)
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)
        return rep

    @pytest.mark.parametrize("demo", ["oscillator", "complex_oscillator"])
    def test_demo_constants(self, demo):
        prob = cli.parse_problem(cli.demo_problem(demo))
        assert self.assert_same_as_per_pair(prob.schrodinger.assumption_constants()).verdict is Verdict.PASS

    def test_zero_constants_ties(self):
        # a = 0 and a_grad = b_grad = 0: many cells share lambda_0 and gamma, so the tie-breaks decide
        zero = {"a_grad": 0.0, "b_grad": 0.0, "a_r": 0.0, "b_r": 0.0, "p_sup": 0.0}
        assert self.assert_same_as_per_pair(zero).verdict is Verdict.PASS

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        a_grad=scaled(-3.0, 12.0, zero=True),
        b_grad=scaled(-3.0, 4.0, zero=True),
        a_r=scaled(-3.0, 20.0, zero=True),
        b_r=hst.one_of(hst.just(0.0), hst.floats(0.0, 0.999)),
        p_sup=scaled(-2.0, 3.0, zero=True),
        knobs=hst.one_of(hst.just(hc.KNOB_GRID), hst.sets(hst.sampled_from(hc.KNOB_GRID), min_size=1, max_size=20)),
    )
    def test_property_same_records(self, a_grad, b_grad, a_r, b_r, p_sup, knobs):
        consts = {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}
        self.assert_same_as_per_pair(consts, tuple(sorted(knobs)))


def schrodinger_consts(a_grad=0.0, b_grad=0.0, a_r=0.0, b_r=0.0, p_sup=0.0) -> dict:
    return {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}


class TestSchrodingerConstantsBestFirst:
    """The best-first visit of the (nu, beta) pairs: both references' record, and the pairs it evaluates."""

    @staticmethod
    def search(consts, knob_grid=hc.KNOB_GRID) -> tuple[hc.HypothesisReport, dict]:
        """The report, equal to both references', and the open Ledger's ``knob_pairs`` counts."""
        with warnings.catch_warnings(), numerics.Ledger() as ledger:
            warnings.simplefilter("error", RuntimeWarning)
            rep = hc.schrodinger_constants(consts, knob_grid=knob_grid)
        got = json.dumps(rep.to_dict(), sort_keys=True)
        for reference in (per_pair_schrodinger_constants, loop_schrodinger_constants):
            assert got == json.dumps(reference(consts, knob_grid).to_dict(), sort_keys=True)
        return rep, dict(ledger.counts["knob_pairs"])

    @pytest.mark.parametrize("demo", ["oscillator", "complex_oscillator"])
    def test_demos_evaluate_a_handful_of_pairs(self, demo):
        # every pair has a = 0, so each cell's lambda_0 is at least 1; the first pair visited holds the
        # record, and its gamma is below every other pair's bound: the search ends after a few pairs, not 667
        rep, counts = self.search(cli.parse_problem(cli.demo_problem(demo)).schrodinger.assumption_constants())
        c = rep.constants
        assert rep.verdict is Verdict.PASS and (c["lambda0"], c["nu"], c["beta"]) == (-1.0, 1.0, 1e-4)
        assert counts["evaluated"] <= 4 and counts["evaluated"] + counts["pruned"] == 667

    @pytest.mark.parametrize(
        "consts, lambda0, evaluated",
        [(schrodinger_consts(a_r=1e6), -1e4, 1), (schrodinger_consts(p_sup=3.0), -100.0, 16)],
        ids=["a_r", "p_sup"],
    )
    def test_best_lambda0_above_one(self, consts, lambda0, evaluated):
        # |lambda_0| >= 10^k, the least power of ten above sqrt(a), so a gamma bound taken at lambda_0 = 1
        # would prune pairs that hold the record, and a bound of 1 on |lambda_0| would prune next to none
        rep, counts = self.search(consts)
        assert rep.verdict is Verdict.PASS and rep.constants["lambda0"] == lambda0
        assert counts == {"evaluated": evaluated, "pruned": 667 - evaluated}

    def test_pairs_of_one_nu_tie_and_beta_decides(self):
        # p_sup = 0 and b = b_r (1 + nu) for the three least betas at nu = 1e-4: those pairs have equal a
        # and b, so equal cells; all three are evaluated, and the least beta keeps the record
        rep, counts = self.search(schrodinger_consts(a_grad=1.0, a_r=100.0, b_r=0.5))
        c = rep.constants
        assert rep.verdict is Verdict.PASS and c["lambda0"] == -100.0
        assert (c["nu"], c["beta"], c["b"]) == (hc.KNOB_GRID[0], hc.KNOB_GRID[0], 0.5 * (1.0 + hc.KNOB_GRID[0]))
        assert counts == {"evaluated": 3, "pruned": 632}

    @pytest.mark.parametrize(
        "consts, pairs, evaluated",
        [(schrodinger_consts(a_grad=1.0, a_r=1e20, b_r=0.1), 667, 1),
         (schrodinger_consts(a_r=2e18, b_r=0.5, p_sup=0.07), 635, 3)],
        ids=["huge_a_r", "gamma_tie"],
    )
    def test_fail_only_prunes_by_the_gamma_bound(self, consts, pairs, evaluated):
        # sqrt(a) >= 10^8 for every pair, so none passes; they are visited by their bound on gamma at
        # lambda_0 = -10^8, and the record is the least (gamma, nu, beta, alpha, eps) there.  In gamma_tie
        # the pairs (1e-4, 1e-4) and (1e-4, 1.33e-4) differ in a by one ulp and tie in that gamma: the
        # second, with the smaller bound, is visited first, yet the first holds the record
        rep, counts = self.search(consts)
        assert rep.verdict is Verdict.FAIL and rep.constants["lambda0"] == -1e8
        assert (rep.constants["nu"], rep.constants["beta"]) == (hc.KNOB_GRID[0], hc.KNOB_GRID[0])
        assert counts == {"evaluated": evaluated, "pruned": pairs - evaluated}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a_grad=scaled(-3.0, 12.0, zero=True),
        b_grad=scaled(-3.0, 4.0, zero=True),
        a_r=scaled(13.0, 22.0),
        b_r=hst.one_of(hst.just(0.0), hst.floats(0.0, 0.999)),
        p_sup=scaled(-2.0, 3.0, zero=True),
        knobs=hst.one_of(hst.just(hc.KNOB_GRID), hst.sets(hst.sampled_from(hc.KNOB_GRID), min_size=1, max_size=20)),
    )
    def test_property_fail_records_match_per_pair(self, a_grad, b_grad, a_r, b_r, p_sup, knobs):
        # a_r from 1e13 up: most sets pass nowhere, some with pairs whose 10^k is inside the scan
        consts = schrodinger_consts(a_grad, b_grad, a_r, b_r, p_sup)
        knob_grid = tuple(sorted(knobs))
        want = per_pair_schrodinger_constants(consts, knob_grid)
        assume(want.verdict is Verdict.FAIL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = hc.schrodinger_constants(consts, knob_grid=knob_grid)
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)

    @pytest.mark.parametrize(
        "consts, knob_grid, pairs",
        [(schrodinger_consts(), (1e-4, 1e-3), 3), (schrodinger_consts(b_grad=1e5), hc.KNOB_GRID, 667)],
        ids=["no_delta", "no_eps"],
    )
    def test_no_admissible_cell(self, consts, knob_grid, pairs):
        # (1e-4, 1e-3): alpha eps is below every grid delta; b_grad = 1e5: eps b_grad is above every alpha
        rep, counts = self.search(consts, knob_grid)
        assert rep.verdict is Verdict.FAIL and "nu" not in rep.constants
        assert counts == {"evaluated": 0, "pruned": pairs}


class TestBandedCaseReport:
    def test_upper_triangular_case_c(self):
        profile = om.band_profile(om.upper_triangular_spec(), 200, lam=50j, normalize_by_diag=True)
        rep = hc.banded_case_report(profile)
        assert rep.verdict is Verdict.PASS
        assert rep.constants["hint"] == "c"

    def test_report_serializes(self):
        import json

        profile = om.band_profile(om.jacobi_spec(), 30)
        rep = hc.banded_case_report(profile)
        json.dumps(rep.to_dict())
