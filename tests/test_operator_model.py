"""Truncation, block splitting and band profiling of generative operator specs."""

import numpy as np
import pytest

from specexact import numerics, operator_model as om
from specexact.errors import DataError, PoleError


class TestTruncate:
    def test_jacobi_k3(self):
        m = om.truncate(om.jacobi_spec(), 3)
        np.testing.assert_array_equal(m.data, [[0, 2, 0], [2, 0, 1], [0, 1, 0]])
        assert isinstance(m, numerics.Section) and m.tridiagonal is not None

    def test_single_entry(self):
        m = om.truncate(om.upper_triangular_spec(), 1)
        np.testing.assert_array_equal(m.data, [[1.0]])

    def test_upper_triangular_k2(self):
        m = om.truncate(om.upper_triangular_spec(), 2)
        np.testing.assert_array_equal(m.data, [[1, 2], [0, 8]])

    @pytest.mark.parametrize("spec", [om.jacobi_spec(), om.upper_triangular_spec()])
    def test_nesting(self, spec):
        big = om.truncate(spec, 17).data
        for k in (1, 2, 5, 16):
            np.testing.assert_array_equal(om.truncate(spec, k).data, big[:k, :k])

    def test_nonfinite_entry_named(self):
        bad = om.OperatorSpec("bad", lambda i, j: np.nan if (i, j) == (2, 3) else 0.0)
        with pytest.raises(DataError, match=r"\(2, 3\)"):
            om.truncate(bad, 4)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            om.truncate(om.jacobi_spec(), 0)

    @pytest.mark.parametrize("offset", [10, -10])
    def test_band_declaration_spot_checked(self, offset):
        rule = lambda i, j: 1.0 if i - j == offset else 0.0
        with pytest.raises(DataError, match="declared band"):
            om.OperatorSpec("cheat", rule, band_meta=om.BandMeta(1, 1))


class TestSplitBlocks:
    def test_jacobi_even_cuts(self):
        sp = om.split_blocks(om.jacobi_spec(), range(2, 22, 2))
        for n, block in enumerate(sp.diagonal_blocks, start=1):
            np.testing.assert_array_equal(block, [[0, 2 * n], [2 * n, 0]])

    def test_diagonal_spec_unit_cuts(self):
        spec = om.diagonal_spec(lambda i: float(i))
        sp = om.split_blocks(spec, range(1, 9))
        assert all(b.shape == (1, 1) for b in sp.diagonal_blocks)
        np.testing.assert_array_equal(sp.coupling_section(8), np.zeros((8, 8)))

    def test_upper_triangular_unit_cuts(self):
        sp = om.split_blocks(om.upper_triangular_spec(), range(1, 9))
        for j, block in enumerate(sp.diagonal_blocks, start=1):
            np.testing.assert_array_equal(block, [[j**3]])
        s = sp.coupling_section(8)
        assert s[1, 4] == 5.0 and s[4, 1] == 0.0 and s[4, 4] == 0.0

    def test_reassembly_exact(self):
        # a real leading block with complex entries further out: each slice
        # of the complex assembly is real exactly when truncate's section is
        table = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        table[0, 1] = table[1, 0] = 0.5
        table[3, 4] = 2j
        table[4, 2] = 1 - 1j
        for spec, cuts in [
            (om.jacobi_spec(), range(2, 30, 2)),
            (om.upper_triangular_spec(), (1, 3, 7, 20)),
            (om.custom_banded_spec(table, tail="repeat_edge"), (2, 3, 5, 20)),
        ]:
            sp = om.split_blocks(spec, cuts)
            for k in (1, 2, 3, 4, 5, 17, 20):
                want = om.truncate(spec, k).data
                t, s = sp.diag_section(k), sp.coupling_section(k)
                assert t.dtype == s.dtype == want.dtype
                np.testing.assert_array_equal(t + s, want)

    def test_one_assembly_per_split(self, monkeypatch):
        # the jacobi demo's relative_bound: 60 sizes, each a T and an S section
        sizes = []
        assemble = om._assemble
        monkeypatch.setattr(om, "_assemble", lambda spec, k: sizes.append(k) or assemble(spec, k))
        sp = om.split_blocks(om.jacobi_spec(), range(2, 122, 2))
        for k in range(2, 122, 2):
            sp.diag_section(k)
            sp.coupling_section(k)
        assert sizes == [120]

    def test_section_beyond_last_cut(self):
        sp = om.split_blocks(om.jacobi_spec(), (2, 4))
        for k in (0, 5):
            with pytest.raises(ValueError, match="cover only"):
                sp.diag_section(k)

    def test_non_monotone_cuts(self):
        with pytest.raises(ValueError):
            om.split_blocks(om.jacobi_spec(), (2, 2, 4))


class TestBandProfile:
    def test_jacobi_counts_and_hint(self):
        p = om.band_profile(om.jacobi_spec(), 50)
        assert p.max_row_count <= 3 and p.max_col_count <= 3
        assert p.hint == "a"

    def test_upper_triangular_case_c(self):
        lam = 50j
        p = om.band_profile(om.upper_triangular_spec(), 200, lam=lam, normalize_by_diag=True)
        js = np.arange(1, 201)
        np.testing.assert_array_equal(p.col_counts, js - 1)
        np.testing.assert_allclose(p.col_envelope[1:], js[1:] / np.abs(js[1:] ** 3 - lam), atol=1e-12)
        assert p.hint == "c"

    def test_zero_operator(self):
        p = om.band_profile(om.OperatorSpec("zero", lambda i, j: 0.0), 20)
        assert p.row_counts.max() == 0 and p.col_counts.max() == 0
        assert p.row_envelope.max() == 0.0 and p.col_envelope.max() == 0.0

    def test_partial_sums_monotone(self):
        p = om.band_profile(om.upper_triangular_spec(), 60, lam=50j, normalize_by_diag=True)
        assert np.all(np.diff(p.row_partial_sums) >= 0)
        assert np.all(np.diff(p.col_partial_sums) >= 0)

    def test_scaling_covariance(self):
        base = om.jacobi_spec()
        c = 3.7
        scaled = om.OperatorSpec("scaled", lambda i, j: c * base.entry_rule(i, j))
        p0 = om.band_profile(base, 40)
        p1 = om.band_profile(scaled, 40)
        np.testing.assert_array_equal(p0.row_counts, p1.row_counts)
        np.testing.assert_array_equal(p0.col_counts, p1.col_counts)
        np.testing.assert_allclose(p1.row_envelope, c * p0.row_envelope, rtol=1e-12)
        np.testing.assert_allclose(p1.col_envelope, c * p0.col_envelope, rtol=1e-12)

    def test_pole_error(self):
        with pytest.raises(PoleError) as exc:
            om.band_profile(om.upper_triangular_spec(), 10, lam=8.0, normalize_by_diag=True)
        assert exc.value.index == 2

    def test_scan_too_small(self):
        with pytest.raises(ValueError):
            om.band_profile(om.jacobi_spec(), 1)


class TestJacobiSpectralSymmetry:
    """Tridiagonal zero-diagonal sections: spectrum symmetric under lam -> -lam."""

    def test_symmetry_and_odd_kernel(self):
        spec = om.jacobi_spec()
        for k in range(2, 22):
            w = numerics.eig_dense(om.truncate(spec, k).data).eigenvalues
            w_sorted = np.sort_complex(w)
            np.testing.assert_allclose(
                w_sorted, -np.sort_complex(-w)[::-1], atol=1e-10 * max(np.abs(w))
            )
            if k % 2 == 1:
                assert np.min(np.abs(w)) <= 1e-10


class TestCustomBanded:
    def test_zero_tail(self):
        spec = om.custom_banded_spec([[1, 2], [3, 4]], tail="zero")
        m = om.truncate(spec, 3).data
        np.testing.assert_array_equal(m, [[1, 2, 0], [3, 4, 0], [0, 0, 0]])

    def test_repeat_edge_extends_diagonals(self):
        spec = om.custom_banded_spec([[2, -1], [-1, 2]], tail="repeat_edge")
        m = om.truncate(spec, 4).data
        expect = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        np.testing.assert_array_equal(m, expect)

    def test_bad_table(self):
        with pytest.raises(DataError):
            om.custom_banded_spec([[1, 2, 3]])
