"""Finite-difference assemblies: Sturm-Liouville, 2x2 blocks, 1D Schrodinger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.linalg import solve_banded
from scipy.optimize import linear_sum_assignment

from specexact import discretize as dz, numerics, operator_model as om, resolvent_analysis as ra
from specexact.errors import AssumptionError, CoefficientError, DataError, DimensionError

ONE = lambda x: 1.0
ZERO = lambda x: 0.0

# Reference for the rotated oscillator -f'' + i x^2 f, computed once by inverse
# power iteration at L = 12, m = 8000 (double the tested resolution).
ROTATED_OSC_LOWEST = 0.707106781188 + 0.707106218686j


def assert_spectra_match(got, want, tol):
    """Multiset comparison of complex spectra via optimal assignment."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= tol


def lowest_abs_eig_tridiag(mat, iters=200):
    """Inverse power iteration; independent of the package eigensolver."""
    n = mat.shape[0]
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = np.diag(mat, 1)
    ab[1, :] = np.diag(mat)
    ab[2, :-1] = np.diag(mat, -1)
    x = np.ones(n, dtype=complex) / np.sqrt(n)
    lam = None
    for _ in range(iters):
        y = solve_banded((1, 1), ab, x)
        x = y / np.linalg.norm(y)
        lam = np.vdot(x, mat @ x)
    return lam


def dirichlet_laplacian(a_n=(0.0,)):
    return dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, a_n, 1.0, 0.0)


def test_builders_return_sections():
    mp = dz.SLMatrixProblem("m", dirichlet_laplacian(), dirichlet_laplacian(), 1.0, 2.0,
                            ZERO, ZERO, ZERO, ZERO, 0.0, 0.0, 0.0, 0.0)
    sp = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(4.0,))
    for sec, n in [
        (dz.sl_assemble(dirichlet_laplacian(), 1, 10), 9),
        (dz.sl_block_assemble(mp, 1, 10), 18),
        (dz.schrodinger_assemble(sp, 1, 10), 9),
    ]:
        assert isinstance(sec, numerics.Section) and sec.n == n and sec.real


class TestSLAssemble:
    def test_single_interior_node(self):
        m = dz.sl_assemble(dirichlet_laplacian(), 1, 2)
        h = np.pi / 2
        np.testing.assert_allclose(m.dense(), [[2.0 / h**2]], rtol=1e-15)

    def test_dirichlet_laplacian_spectrum(self):
        m = dz.sl_assemble(dirichlet_laplacian(), 1, 500)
        w = np.linalg.eigvalsh(m.dense())
        np.testing.assert_allclose(w[:3], [1.0, 4.0, 9.0], atol=1e-2)

    def test_constant_q_is_exact_shift(self):
        base = dz.sl_assemble(dirichlet_laplacian(), 1, 80).dense()
        shifted_prob = dz.SLProblem("lapc", ONE, lambda x: 2.5, 0.0, np.pi, 0.0, (0.0,), 1.0, 2.5)
        shifted = dz.sl_assemble(shifted_prob, 1, 80).dense()
        np.testing.assert_array_equal(shifted, base + 2.5 * np.eye(79))

    def test_dirichlet_matrix_exactly_symmetric(self):
        prob = dz.SLProblem(
            "varp", lambda x: 2.0 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, 0.0, (0.1,), 1.0, 1.0
        )
        m = dz.sl_assemble(prob, 1, 60).dense()
        np.testing.assert_array_equal(m, m.T)

    def test_neumann_spectrum(self):
        # beta = pi/2: mixed Dirichlet/Neumann on an interval of length pi
        # has eigenvalues (k + 1/2)^2
        prob = dz.SLProblem("neu", ONE, ZERO, 0.0, np.pi, np.pi / 2, (0.0,), 1.0, 0.0)
        w = np.sort(numerics.eig_dense(dz.sl_assemble(prob, 1, 800)).eigenvalues.real)
        np.testing.assert_allclose(w[:3], [0.25, 2.25, 6.25], atol=2e-2)

    def test_robin_symmetrizable_within_tolerance(self):
        prob = dz.SLProblem(
            "rob", lambda x: 2.0 + np.sin(x), lambda x: 1.0, 0.0, np.pi, np.pi / 4, (0.1,), 1.0, 1.0
        )
        m = dz.sl_assemble(prob, 1, 50).dense()
        # diag(d) M diag(1/d) is symmetric for d_{i+1} / d_i = sqrt(M_{i,i+1} / M_{i+1,i})
        d = np.cumprod(np.concatenate([[1.0], np.sqrt(np.diag(m, 1) / np.diag(m, -1))]))
        sym = d[:, None] * m / d[None, :]
        assert np.abs(sym - sym.T).max() <= 1e-12 * np.abs(m).max()

    def test_domain_monotonicity(self):
        prob = dirichlet_laplacian(a_n=tuple(1.0 / n for n in range(1, 8)))
        lows = []
        for n in range(1, 8):
            w = np.linalg.eigvalsh(dz.sl_assemble(prob, n, 400).dense())
            lows.append(w[0])
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))

    def test_grid_convergence_order(self):
        prob = dirichlet_laplacian()
        lows = {m: np.linalg.eigvalsh(dz.sl_assemble(prob, 1, m).dense())[0] for m in (100, 200, 400)}
        order = np.log2((lows[100] - lows[200]) / (lows[200] - lows[400]))
        assert 1.8 <= order <= 2.2

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            dz.SLProblem("bad", ONE, ZERO, 0.0, np.pi, np.pi, (0.1,), 1.0, 0.0)

    @pytest.mark.parametrize(
        "coefficient, message",
        [
            (lambda x: math.sin(x), "TypeError"),  # scalar-only: raises on an array
            (lambda x: x[:-1], "ValueError"),  # one point short: cannot broadcast
            (lambda x: np.ones((2, 1)), "ValueError"),
            (lambda x: "1.0", "non-numeric"),
        ],
        ids=["scalar_only", "short", "wrong_shape", "string"],
    )
    def test_coefficient_off_the_array_contract(self, coefficient, message):
        sl = dz.SLProblem("sl", ONE, coefficient, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        with pytest.raises(CoefficientError, match=f"coefficient q .*{message}"):
            dz.sl_assemble(sl, 1, 20)
        osc = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=coefficient, L_n=(4.0,))
        with pytest.raises(CoefficientError, match=f"coefficient r .*{message}"):
            dz.schrodinger_assemble(osc, 1, 20)
        tau = dirichlet_laplacian()
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, ZERO, ZERO, coefficient, ZERO, 0, 0, 0.5, 0)
        with pytest.raises(CoefficientError, match=f"coefficient u .*{message}"):
            dz.sl_blocks(mp, 1, 20)

    def test_coefficient_is_called_once_per_sampling_on_an_array(self):
        seen = []
        q = lambda x: seen.append((type(x), np.shape(x))) or x * x
        dz.schrodinger_assemble(dz.SchrodingerProblem("osc", p=ZERO, q=q, r=ZERO, L_n=(4.0,)), 1, 40)
        # fitted constants, the audit, then the section's nodes
        assert seen == [(np.ndarray, (dz.AUDIT_POINTS,))] * 2 + [(np.ndarray, (39,))]

    def test_p_bound_violation(self):
        prob = dz.SLProblem("badp", lambda x: 0.5, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        with pytest.raises(CoefficientError):
            dz.sl_assemble(prob, 1, 20)


class TestSLBlockAssemble:
    def test_block_diagonal_duplication(self):
        p1 = dirichlet_laplacian()
        mp = dz.SLMatrixProblem("b", p1, p1, 1.0, 1.0, ZERO, ZERO, ZERO, ZERO, 0, 0, 0, 0)
        blk = dz.sl_block_assemble(mp, 1, 40).dense()
        assert blk.dtype == np.float64
        ws = np.sort(np.linalg.eigvalsh(blk))
        wt = np.sort(np.linalg.eigvalsh(dz.sl_assemble(p1, 1, 40).dense()))
        assert_spectra_match(ws, np.repeat(wt, 2), 1e-9)

    def test_diagonal_scaling_by_i(self):
        p1 = dirichlet_laplacian()
        mp = dz.SLMatrixProblem("b", p1, p1, 1.0, 1j, ZERO, ZERO, ZERO, ZERO, 0, 0, 0, 0)
        w = numerics.eig_dense(dz.sl_block_assemble(mp, 1, 30).dense()).eigenvalues
        wt = np.linalg.eigvalsh(dz.sl_assemble(p1, 1, 30).dense())
        assert_spectra_match(w, np.concatenate([wt.astype(complex), 1j * wt]), 1e-7)

    def test_identity_coupling_shifts_by_one(self):
        # [[T, I], [I, T]] has spectrum lam_k +- 1
        p1 = dirichlet_laplacian()
        mp = dz.SLMatrixProblem("b", p1, p1, 1.0, 1.0, ZERO, ONE, ZERO, ONE, 0, 1, 0, 1)
        w = np.sort(np.linalg.eigvalsh(dz.sl_block_assemble(mp, 1, 30).dense()))
        wt = np.linalg.eigvalsh(dz.sl_assemble(p1, 1, 30).dense())
        assert_spectra_match(w, np.sort(np.concatenate([wt - 1.0, wt + 1.0])), 1e-9)

    def test_norm_product_invariant(self):
        p1 = dirichlet_laplacian()
        with pytest.raises(AssumptionError):
            dz.SLMatrixProblem(
                "bad", p1, p1, 1.0, 1.0, ONE, ZERO, ONE, ZERO, 1.0, 0.0, 1.0, 0.0
            )

    def test_mismatched_unknown_counts_rejected(self):
        # beta = 0 eliminates the endpoint, beta = pi/2 keeps it: K differs
        d = dirichlet_laplacian()
        n = dz.SLProblem("neu", ONE, ZERO, 0.0, np.pi, np.pi / 2, (0.0,), 1.0, 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            dz.SLMatrixProblem("mix", d, n, 1.0, 1.0, ZERO, ZERO, ZERO, ZERO, 0, 0, 0, 0)


class TestSchrodingerAssemble:
    def test_harmonic_oscillator(self):
        sp = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(8.0,))
        sec = dz.schrodinger_assemble(sp, 1, 800)
        assert sec.dense().dtype == np.float64
        np.testing.assert_array_equal(sec.dense(), sec.dense().T)
        w = np.linalg.eigvalsh(sec.dense())
        np.testing.assert_allclose(w[:4], [1.0, 3.0, 5.0, 7.0], atol=1e-3)

    def test_free_particle(self):
        sp = dz.SchrodingerProblem("free", p=ZERO, q=lambda x: 0.01 * x * x, r=ZERO, L_n=(np.pi / 2,))
        # tiny confining q keeps |q| -> inf semantics irrelevant on this interval;
        # compare against the exact Dirichlet value of the shifted problem instead
        sp0 = dz.SchrodingerProblem("free0", p=ZERO, q=lambda x: 1.0, r=ZERO, L_n=(np.pi / 2,))
        w = np.linalg.eigvalsh(dz.schrodinger_assemble(sp0, 1, 1000).dense())
        assert w[0] == pytest.approx(2.0, abs=1e-3)  # 1 (Laplacian) + 1 (shift)

    def test_rotated_oscillator_against_frozen_oracle(self):
        sp = dz.SchrodingerProblem("cosc", p=ZERO, q=lambda x: 1j * x * x, r=ZERO, L_n=(10.0,))
        sec = dz.schrodinger_assemble(sp, 1, 4000)
        lam = lowest_abs_eig_tridiag(sec.dense())
        assert abs(lam - ROTATED_OSC_LOWEST) <= 1e-2

    def test_first_order_term_entries(self):
        sp = dz.SchrodingerProblem("drift", p=lambda x: 2.0, q=lambda x: x * x, r=ZERO, L_n=(3.0,))
        a = dz.schrodinger_assemble(sp, 1, 10).dense()
        h = 6.0 / 10
        assert a[0, 1] == pytest.approx(-1 / h**2 + 2.0 / (2 * h))
        assert a[1, 0] == pytest.approx(-1 / h**2 - 2.0 / (2 * h))

    def test_adjoint_is_conjugate_transpose(self):
        sp = dz.SchrodingerProblem(
            "c", p=lambda x: 0.5, q=lambda x: 1j * x * x + x * x, r=lambda x: 1j * np.cos(x), L_n=(4.0,)
        )
        # the formal adjoint: p -> -conj(p), q -> conj(q), r -> conj(r)
        adj = dz.SchrodingerProblem(
            "c*", p=lambda x: -0.5, q=lambda x: -1j * x * x + x * x, r=lambda x: -1j * np.cos(x), L_n=(4.0,)
        )
        a = dz.schrodinger_assemble(sp, 1, 60).dense()
        aa = dz.schrodinger_assemble(adj, 1, 60).dense()
        assert np.abs(aa - a.conj().T).max() <= 1e-14 * np.abs(a).max()

    def test_domain_monotonicity(self):
        sp = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(3.0, 4.0, 5.0, 6.0))
        lows = [np.linalg.eigvalsh(dz.schrodinger_assemble(sp, n, 400).dense())[0] for n in range(1, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))

    def test_declared_constants_audited(self):
        bad = dz.SchrodingerProblem(
            "bad", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(8.0,), a_grad=0.0, b_grad=0.0, a_r=0.0, b_r=0.0
        )
        with pytest.raises(AssumptionError) as exc:
            dz.schrodinger_assemble(bad, 1, 100)
        assert exc.value.location is not None

    def test_b_r_at_least_one_rejected(self):
        with pytest.raises(AssumptionError):
            dz.SchrodingerProblem("br", p=ZERO, q=lambda x: x * x, r=ZERO, L_n=(8.0,), a_r=0.0, b_r=1.0)

    def test_fitted_constants_cover_samples(self):
        sp = dz.SchrodingerProblem("osc", p=ZERO, q=lambda x: x * x, r=lambda x: np.sin(x), L_n=(8.0,))
        c = sp.assumption_constants()
        assert c["b_r"] < 1.0
        # covering property: the audit must accept its own fit
        sp.audit(1)


#: a 3 x 3 custom_banded table, nonsymmetric and complex off its leading 2 x 2 block
GALERKIN_TABLE = [[2.0, -1.0, 0.0], [-1.0, 3.0, 0.5j], [0.0, 0.25, 4.0]]


def declared_sections(m):
    """Builder Sections on m grid cells (Galerkin sections of size m), keyed by what they cover."""
    sl = lambda beta: dz.SLProblem(
        "varpq", lambda x: 2.0 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, beta, (0.1,), 1.0, 1.0
    )
    sp = lambda p, q: dz.SchrodingerProblem("s", p=p, q=q, r=ZERO, L_n=(4.0,))
    return {
        "sl_dirichlet": dz.sl_assemble(sl(0.0), 1, m),
        "sl_robin": dz.sl_assemble(sl(np.pi / 4), 1, m),
        "schrodinger_real_q": dz.schrodinger_assemble(sp(ZERO, lambda x: x * x), 1, m),
        "schrodinger_complex_q": dz.schrodinger_assemble(sp(ZERO, lambda x: 1j * x * x), 1, m),
        "schrodinger_drift": dz.schrodinger_assemble(sp(lambda x: 0.5 - 0.25j, lambda x: x * x), 1, m),
        "jacobi": om.truncate(om.jacobi_spec(), m),
        "upper_triangular": om.truncate(om.upper_triangular_spec(), m),
        "custom_banded_zero": om.truncate(om.custom_banded_spec(GALERKIN_TABLE, tail="zero"), m),
        "custom_banded_repeat_edge": om.truncate(om.custom_banded_spec(GALERKIN_TABLE, tail="repeat_edge"), m),
    }


class TestDeclaredStructure:
    """A builder's declared diagonals give the Section its dense array would: same structure, same results."""

    STRUCTURE = ("n", "kl", "ku", "real", "hermitian", "banded", "triangular")

    @pytest.mark.parametrize("m", [12, 80])
    @pytest.mark.parametrize("name", list(declared_sections(12)))
    def test_declared_matches_detected(self, name, m):
        with numerics.Ledger() as ledger:
            declared = declared_sections(m)[name]
        assert not ledger.counts["dense_builds"]
        n, kl, ku = declared.n, declared.kl, declared.ku
        padding = {-kl - 2: np.zeros(n - kl - 2), ku + 1: np.full(n - ku - 1, -0.0)}
        padded = numerics.Section(  # zero outer diagonals and a gap, which the Section trims
            {**declared.diagonals, **{off: d for off, d in padding.items() if abs(off) < n}}
        )
        detected = numerics.Section(declared.dense())
        for sec in (declared, padded):
            assert [getattr(sec, key) for key in self.STRUCTURE] == [
                getattr(detected, key) for key in self.STRUCTURE
            ]
            assert (sec.tridiagonal is None) == (detected.tridiagonal is None)
            if sec.tridiagonal is not None:
                np.testing.assert_array_equal(sec.tridiagonal.d, detected.tridiagonal.d)
                np.testing.assert_array_equal(sec.tridiagonal.e, detected.tridiagonal.e)
            np.testing.assert_array_equal(sec._band_template, detected._band_template)
            np.testing.assert_array_equal(sec.dense(), detected.dense())

        rows = [0, declared.n // 2, declared.n - 1]
        got, want = numerics.eig_dense(declared), numerics.eig_dense(detected)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.residuals_at(rows), want.residuals_at(rows))
        b = np.random.default_rng(m).standard_normal((declared.n, 2)) + 0j
        for z in (0.5, 3.0 + 1.0j, -2.0j):
            assert declared.sigma_min(z) == detected.sigma_min(z)
            for adjoint in (False, True):
                np.testing.assert_array_equal(
                    declared.factor(z).solve(b, adjoint), detected.factor(z).solve(b, adjoint)
                )

    @pytest.mark.parametrize("m", [12, 80])
    @pytest.mark.parametrize("coupling", ["hermitian", "varying"])
    def test_sl_block_declared_matches_detected(self, coupling, m):
        # beta = 0 and t = v != 0; s = u constant keeps [[A, B], [C, D]]
        # symmetric, non-constant s and u do not
        vary = coupling == "varying"
        tau = dz.SLProblem("varp", lambda x: 2.0 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, 0.0, (0.1,), 1.0, 1.0)
        s = (lambda x: 0.3 + 0.1 * np.sin(x)) if vary else (lambda x: 0.4)
        u = (lambda x: 0.2 * np.cos(x)) if vary else s
        tv = lambda x: 0.3 * np.cos(x)
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, s, tv, u, tv, 0.5, 0.3, 0.5, 0.3)
        with numerics.Ledger() as ledger:
            declared = dz.sl_block_assemble(mp, 1, m)
        assert not ledger.counts["dense_builds"] and (declared.kl, declared.ku) == (3, 3)
        detected = numerics.Section(declared.dense())
        assert [getattr(declared, key) for key in self.STRUCTURE] == [
            getattr(detected, key) for key in self.STRUCTURE
        ]
        assert declared.hermitian is not vary and declared.banded is (m == 80)
        # the interleaved unknowns: a permutation similarity of the block matrix
        a, b, c, d = dz.sl_blocks(mp, 1, m)
        k = a.n
        perm = np.ravel(np.column_stack([np.arange(k), k + np.arange(k)]))
        blocks = np.block([[a.dense(), b.dense()], [c.dense(), d.dense()]])
        np.testing.assert_array_equal(declared.dense(), blocks[np.ix_(perm, perm)].real)

        rows = [0, declared.n // 2, declared.n - 1]
        got, want = numerics.eig_dense(declared), numerics.eig_dense(detected)
        assert got.route == want.route == ("banded" if m == 80 else "hermitian" if not vary else "general")
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.residuals_at(rows), want.residuals_at(rows))
        if not vary:
            norm = np.linalg.norm(blocks, 2)
            ref = np.linalg.eigvalsh(blocks)
            assert np.max(np.abs(got.eigenvalues.real - ref)) <= 1e-14 * norm
            assert np.all(got.residuals_at(rows) <= 1e-14 * norm)

    @pytest.mark.parametrize("beta", [0.0, np.pi / 4])
    def test_sl_blocks_scale_rows_as_the_diagonal_products(self, beta):
        # s and u change sign, so some products are -0.0 before diag(t) and diag(v) are added
        tau = dz.SLProblem("varp", lambda x: 2.0 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, beta, (0.1,), 1.0, 1.0)
        s, u = (lambda x: 0.3 * np.sin(3.0 * x)), (lambda x: -0.2 * np.cos(2.0 * x))
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, s, lambda x: 0.1 * x, u, ZERO, 0.3, 0.4, 0.2, 0.0)
        t1, t2, s_v, t_v, u_v, v_v = dz._sl_components(mp, 1, 60)
        _, b, c, _ = dz.sl_blocks(mp, 1, 60)
        assert b.dense().tobytes() == (np.diag(s_v) @ t2.dense() + np.diag(t_v)).tobytes()
        assert c.dense().tobytes() == (np.diag(u_v) @ t1.dense() + np.diag(v_v)).tobytes()

    @staticmethod
    def interleaved_from_block_sections(blocks):
        """The 2x2 section's diagonals interleaved from the four block Sections' kept ones, and its K1, K0 or None."""
        a, b, c, d = blocks
        k = a.n

        def interleave(off, even, odd):
            out = np.zeros(max(2 * k - abs(off), 0), dtype=complex)
            out[0::2], out[1::2] = (sec.diagonals.get(block_off, 0.0) for sec, block_off in (even, odd))
            return out

        pairs = {-3: ((c, -1), (b, -2)), -2: ((a, -1), (d, -1)), -1: ((c, 0), (b, -1)), 0: ((a, 0), (d, 0)),
                 1: ((b, 0), (c, 1)), 2: ((a, 1), (d, 1)), 3: ((b, 1), (c, 2))}
        sec = numerics.Section({off: interleave(off, *pair) for off, pair in pairs.items() if abs(off) < 2 * k})
        krons = [blk.kronecker for blk in blocks]
        if any(kron is None or kron.base is not krons[0].base for kron in krons):
            return sec.diagonals, None
        ka, kb, kc, kd = krons
        return sec.diagonals, (np.block([[ka.k1, kb.k1], [kc.k1, kd.k1]]), np.block([[ka.k0, kb.k0], [kc.k0, kd.k0]]))

    @pytest.mark.parametrize("m", [3, 8, 40])
    @pytest.mark.parametrize("case", ["zero", "real", "zero_imaginary", "complex", "x_dependent", "robin", "t1_ne_t2"])
    def test_interleaved_diagonals_match_the_block_sections_bit_for_bit(self, case, m):
        # the section interleaves the blocks' diagonals as a block Section keeps them: a zero coupling's
        # all-zero diagonals are trimmed, so they read +0.0, and a zero imaginary part is dropped
        rng = np.random.default_rng(m)
        g1, g2, s, t, u, v = {
            "zero": (1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            "real": (1.0, -2.0, *rng.standard_normal(4)),
            "zero_imaginary": (1.0 + 0j, 2.0, *(rng.standard_normal(4) + 0j)),
        }.get(case, tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        tau1 = dz.SLProblem("t1", lambda x: 1.5 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi,
                            np.pi / 4 if case == "robin" else 0.0, (0.2, 0.1), 0.5, 1.0)
        tau2 = dz.SLProblem("t2", tau1.p, ZERO, 0.0, np.pi, 0.0, (0.2, 0.1), 0.5, 0.0) if case == "t1_ne_t2" else tau1
        couplings = [constant(z) for z in (s, t, u, v)]
        if case == "x_dependent":
            couplings[0], couplings[2] = (lambda x: s * np.sin(3.0 * x)), (lambda x: u * np.cos(x))
        mp = dz.SLMatrixProblem("blk", tau1, tau2, g1, g2, *couplings, 0.0, 0.0, 0.0, 0.0)
        for n in (1, 2):
            want, want_k = self.interleaved_from_block_sections(dz.sl_blocks(mp, n, m))
            got = dz.sl_block_assemble(mp, n, m)
            assert list(got.diagonals) == list(want)
            for off, diagonal in got.diagonals.items():
                assert (diagonal.dtype, diagonal.tobytes()) == (want[off].dtype, want[off].tobytes()), off
            declared = case in ("zero", "real", "zero_imaginary", "complex")
            assert (got.kronecker is not None) == (want_k is not None) == declared
            if want_k is not None:
                assert (got.kronecker.k1.tobytes(), got.kronecker.k0.tobytes()) == tuple(k.tobytes() for k in want_k)

    @pytest.mark.parametrize(
        "u, beta, declared",
        [(lambda x: 0.2, 0.0, "abcd"), (lambda x: 0.2 * np.cos(x), 0.0, "abd"), (lambda x: 0.2, np.pi / 4, "")],
        ids=["constant", "x_dependent_u", "beta_nonzero"],
    )
    def test_sl_blocks_declare_constant_couplings(self, u, beta, declared):
        # a block diag(rows) T + diag(plus) is declared rows T + plus I, an order-1 Kronecker over T,
        # when rows and plus are constant and T is Hermitian tridiagonal; the ghost row of beta != 0
        # is not symmetric
        tau = dz.SLProblem("varp", lambda x: 2.0 + np.sin(x), lambda x: 1.0 + x * x, 0.0, np.pi, beta, (0.1,), 1.0, 1.0)
        mp = dz.SLMatrixProblem(
            "blk", tau, tau, 1.0 + 1.0j, 2.0, lambda x: 0.3, lambda x: -0.1, u, lambda x: 0.4j, 0.3, 0.1, 0.2, 0.4
        )
        t1, t2, *_ = dz._sl_components(mp, 1, 40)
        with numerics.Ledger() as ledger:
            blocks = dict(zip("abcd", dz.sl_blocks(mp, 1, 40)))
        assert not ledger.counts["dense_builds"]
        assert "".join(name for name, sec in blocks.items() if sec.kronecker is not None) == declared
        expected = (("a", t1, 1.0 + 1.0j, 0.0), ("b", t2, 0.3, -0.1), ("c", t1, 0.2, 0.4j), ("d", t2, 2.0, 0.0))
        for name, base, scale, plus in expected:
            kron = blocks[name].kronecker
            if kron is None:
                continue
            assert kron.base is base and base.tridiagonal is not None
            assert kron.p == 1 and (kron.k1[0, 0], kron.k0[0, 0]) == (scale, plus)
            dense = base.dense()
            np.testing.assert_array_equal(blocks[name].dense(), scale * dense + plus * np.eye(dense.shape[0]))

    def test_sl_block_banded_spectra_build_no_dense_array(self):
        # T2 = T1 + 1, so the blocks share no T and the section is not declared a Kronecker sum
        # (TestKroneckerRoute); it is not Hermitian either, so zgeev takes the one dense array,
        # placed for that call, and the residuals read the diagonals
        tau1 = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        tau2 = dz.SLProblem("lap", ONE, ONE, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        half = lambda x: 0.5
        mp = dz.SLMatrixProblem("blk", tau1, tau2, 1.0, 1.0, half, ZERO, half, ZERO, 0.5, 0, 0.5, 0)
        sec = dz.sl_block_assemble(mp, 1, 300)
        with numerics.Ledger() as ledger:
            dec = numerics.eig_dense(sec)
            assert dec.route == "banded" and dec.residuals_at([0, 1, sec.n - 1]).shape == (3,)
        assert dict(ledger.counts["dense_builds"]) == {sec.n: 1}

    def test_real_builder_stays_real(self):
        assert declared_sections(12)["schrodinger_real_q"].diagonals[0].dtype == np.float64
        assert not declared_sections(12)["schrodinger_complex_q"].real

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_non_finite_declared_diagonal_raises(self, bad):
        with pytest.raises(DataError, match=r"\(3, 2\)"):
            numerics.Section({-1: [1.0, bad], 0: [1.0, 2.0, 3.0], 1: [0.0, 0.0]})
        with pytest.raises(DataError, match=r"\(1, 1\)"):
            numerics.Section({0: [bad, 2.0]})

    @pytest.mark.parametrize("diagonals", [{}, {1: [1.0]}, {0: []}, {0: [1.0, 2.0], 1: [1.0, 2.0]}, {0: [[1.0]]}])
    def test_malformed_declared_diagonals_raise(self, diagonals):
        with pytest.raises(DimensionError):
            numerics.Section(diagonals)


def constant(z):
    return lambda x: z


def raising(name):
    def routine(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return routine


class TestKroneckerRoute:
    """A 2x2 section over one shared T with constant couplings is declared kron(T, K1) + kron(I, K0).

    It then takes the ``kronecker`` eigen route, as does each block declared rows T + plus I; every
    other section keeps its route.
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        m=hst.sampled_from([3, 8, 20, 40]),
        coupling=hst.sampled_from(["hermitian", "non_hermitian", "zero", "x_dependent"]),
        shared=hst.booleans(),
        beta=hst.sampled_from([0.0, np.pi / 4]),
    )
    def test_property_route_agrees_with_zgeev(self, seed, m, coupling, shared, beta):
        rng = np.random.default_rng(seed)
        if coupling == "hermitian":  # real gammas, u = conj(s), v = conj(t): Hermitian when T1 = T2
            g1, g2 = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
            s, t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u, v = np.conj(s), np.conj(t)
        elif coupling == "zero":  # criterion 05: each eigenvalue of T twice
            g1 = g2 = 1.0
            s = t = u = v = 0.0
        else:
            g1, g2, s, t, u, v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = lambda x: 1.5 + np.sin(x)
        tau1 = dz.SLProblem("t1", p, lambda x: 1.0 + x * x, 0.0, np.pi, beta, (0.1,), 0.5, 1.0)
        tau2 = tau1 if shared else dz.SLProblem("t2", p, lambda x: 2.0 + x * x, 0.0, np.pi, beta, (0.1,), 0.5, 2.0)
        u_coefficient = (lambda x: u * np.cos(x)) if coupling == "x_dependent" else constant(u)
        mp = dz.SLMatrixProblem(
            "blk", tau1, tau2, g1, g2, constant(s), constant(t), u_coefficient, constant(v), 0.0, 0.0, 0.0, 0.0
        )
        # the 2x2 section is declared of order 2, and each of its blocks A, B, C, D of order 1
        declared = shared and beta == 0.0 and coupling != "x_dependent"
        self.check_route(rng, dz.sl_block_assemble(mp, 1, m), declared)
        for name, block in zip("abcd", dz.sl_blocks(mp, 1, m)):
            self.check_route(rng, block, beta == 0.0 and not (name == "c" and coupling == "x_dependent"))

    @staticmethod
    def check_route(rng, sec, declared):
        """The section takes the kronecker route iff ``declared``, and agrees with zgeev either way."""
        assert (sec.kronecker is not None) == declared
        with numerics.Ledger() as solved:
            dec = numerics.eig_dense(sec)
        assert (dec.route == "kronecker") == declared
        a = sec.dense()  # a copy the Section does not keep
        eps = np.finfo(float).eps
        assert_spectra_match(dec.eigenvalues, numerics._zgeev(a, vectors=False)[0], 64 * eps * sec.inf_norm)
        assert np.array_equal(np.lexsort((dec.eigenvalues.imag, dec.eigenvalues.real)), np.arange(sec.n))
        if not declared:
            return
        if sec.hermitian:
            np.testing.assert_array_equal(dec.eigenvalues.imag, 0.0)
        rows = rng.permutation(sec.n)[: int(rng.integers(1, sec.n + 1))]
        with numerics.Ledger() as ledger:
            res = dec.residuals_at(rows)
        assert dict(ledger.counts["residuals_computed"]) == {"kronecker": rows.size}
        # the banded route's bar on its normal inputs
        assert res.shape == rows.shape and np.all(res <= 1e-12 * np.linalg.norm(a, 2))
        assert not solved.counts["dense_builds"] and not ledger.counts["dense_builds"]

    def test_dirichlet_laplacian_in_closed_form(self):
        # p = 1, q = 0, beta = 0: T's eigenvalues are theta_k = (4 / h^2) sin^2(k pi / 2m), and
        # K1 = [[1, 1/2], [1/2, 1]], K0 = 0 give the section theta_k / 2 and 3 theta_k / 2
        m = 300
        tau = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        half = constant(0.5)
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, half, ZERO, half, ZERO, 0.5, 0, 0.5, 0)
        sec = dz.sl_block_assemble(mp, 1, m)
        h = (np.pi - 0.1) / m
        theta = 4.0 / h**2 * np.sin(np.arange(1, m) * np.pi / (2 * m)) ** 2
        exact = np.sort(np.concatenate([theta / 2.0, 1.5 * theta]))
        kronecker, banded = numerics.eig_dense(sec), numerics.eig_dense(numerics.Section(sec.diagonals))
        assert (kronecker.route, banded.route) == ("kronecker", "banded")
        for dec in (kronecker, banded):
            np.testing.assert_array_equal(dec.eigenvalues.imag, 0.0)
            assert np.max(np.abs(dec.eigenvalues.real - exact) / exact) <= 1e-10

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_demo_size_runs_no_band_or_dense_eigensolver(self, monkeypatch, hermitian):
        # n = 598 as in the sl_matrix demo, with s = u (Hermitian) or s != conj(u) (not Hermitian):
        # dsbevd, zhbevd and zgeev made to raise, and the spectrum and every residual still come
        tau = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        u = 0.5 if hermitian else 0.5j
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, constant(0.5), ZERO, constant(u), ZERO, 0.5, 0, 0.5, 0)
        sec = dz.sl_block_assemble(mp, 1, 300)
        for name in ("dsbevd", "zhbevd", "zgeev"):
            monkeypatch.setattr(numerics._flapack, name, raising(name))
        with numerics.Ledger() as ledger:
            dec = numerics.eig_dense(sec)
            assert dec.route == "kronecker" and sec.hermitian is hermitian
            assert np.all(dec.residuals <= 1e-12 * np.abs(dec.eigenvalues).max())
        assert not ledger.counts["dense_builds"]

    def test_ladder_window_takes_the_kronecker_route(self):
        # a banded non-Hermitian section asked with a window takes the windowed route; one declared a
        # Kronecker sum has no window route, so one whole spectrum serves every window and the whole
        tau = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        mp = dz.SLMatrixProblem("blk", tau, tau, 1.0, 1.0, constant(0.5), ZERO, constant(0.5j), ZERO, 0.5, 0, 0.5, 0)
        ladder = ra.SectionLadder("blk", (1,), lambda n: dz.sl_block_assemble(mp, n, 40))
        with numerics.Ledger() as ledger:
            first = ladder.spectrum(1, (0.0, 50.0, -5.0, 5.0))
            assert ladder.matrix(1).banded and not ladder.matrix(1).hermitian
            assert first is ladder.spectrum(1, (0.0, 20.0, -1.0, 1.0)) is ladder.spectrum(1)
        assert first.route == "kronecker" and first.window is None
        assert dict(ledger.counts["eig_routes"]) == {"kronecker": 1} and not ledger.records["windowed_checks"]

    def test_shared_t_is_one_object(self):
        # T2 is T1 itself when their diagonals are equal, so both couplings and the section's
        # declaration read one SymmetricTridiagonal, whose eigenvalues are solved once
        tau = dz.SLProblem("lap", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        same = dz.SLProblem("again", ONE, ZERO, 0.0, np.pi, 0.0, (0.1,), 1.0, 0.0)
        mp = dz.SLMatrixProblem("blk", tau, same, 1.0, 2.0, constant(0.3), ONE, constant(0.2), ZERO, 0.3, 1, 0.2, 0)
        t1, t2, *_ = dz._sl_components(mp, 1, 40)
        _, b, c, _ = dz.sl_blocks(mp, 1, 40)
        assert t1 is t2 and b.kronecker.base is c.kronecker.base
        kron = dz.sl_block_assemble(mp, 1, 40).kronecker
        np.testing.assert_array_equal(kron.k1, [[1.0, 0.3], [0.2, 2.0]])
        np.testing.assert_array_equal(kron.k0, [[0.0, 1.0], [0.0, 0.0]])
