"""Truncation, block splitting and band profiling of generative operator specs."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from specexact import numerics, operator_model as om
from specexact.errors import DataError, PoleError

#: fields of a Section's structure, as tests/test_discretize.py compares them
STRUCTURE = ("n", "kl", "ku", "real", "hermitian", "banded", "triangular")


# Per-entry reference rules (1-based i, j) of the built-in specs, and the
# dense assembly that calls them once per entry: the diagonal producers must
# give exactly these arrays.


def jacobi_rule(i, j):
    q = lambda k: float(k + 1) if k % 2 == 1 else k / 2.0
    return q(i) if j == i + 1 else q(j) if i == j + 1 else 0.0


def upper_triangular_rule(i, j):
    return float(j) if i < j else float(j) ** 3 if i == j else 0.0


def custom_banded_rule(table, tail):
    arr = np.asarray(table, dtype=np.complex128)
    s = arr.shape[0]

    def rule(i, j):
        if i <= s and j <= s:
            return arr[i - 1, j - 1]
        off = j - i
        if tail == "zero" or abs(off) >= s:
            return 0.0
        return arr[s - 1 - off, s - 1] if off >= 0 else arr[s - 1, s - 1 + off]

    return rule


def reference_array(rule, k):
    a = np.array([[complex(rule(i, j)) for j in range(1, k + 1)] for i in range(1, k + 1)])
    return a if np.any(a.imag) else a.real.copy()


class TestTruncate:
    def test_jacobi_k3(self):
        m = om.truncate(om.jacobi_spec(), 3)
        np.testing.assert_array_equal(m.dense(), [[0, 2, 0], [2, 0, 1], [0, 1, 0]])
        assert isinstance(m, numerics.Section) and m.tridiagonal is not None

    def test_single_entry(self):
        m = om.truncate(om.upper_triangular_spec(), 1)
        np.testing.assert_array_equal(m.dense(), [[1.0]])

    def test_upper_triangular_k2(self):
        m = om.truncate(om.upper_triangular_spec(), 2)
        np.testing.assert_array_equal(m.dense(), [[1, 2], [0, 8]])

    @pytest.mark.parametrize("spec", [om.jacobi_spec(), om.upper_triangular_spec()])
    def test_nesting(self, spec):
        big = om.truncate(spec, 17).dense()
        for k in (1, 2, 5, 16):
            np.testing.assert_array_equal(om.truncate(spec, k).dense(), big[:k, :k])

    def test_nonfinite_entry_named(self):
        # A_23 is the second entry of the first superdiagonal
        bad = om.OperatorSpec("bad", lambda k: {0: np.zeros(k), 1: np.where(np.arange(1, k) == 2, np.nan, 0.0)})
        with pytest.raises(DataError, match=r"\(2, 3\)"):
            om.truncate(bad, 4)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            om.truncate(om.jacobi_spec(), 0)

    @pytest.mark.parametrize("k", [2, 3, 80, 400])
    def test_jacobi_stays_tridiagonal(self, k):
        with numerics.Ledger() as ledger:
            sec = om.truncate(om.jacobi_spec(), k)
        assert not ledger.counts["dense_builds"] and (sec.kl, sec.ku) == (1, 1) and sec.tridiagonal is not None

    @staticmethod
    def assert_matches_rule(spec, rule, k, big):
        """truncate(spec, k) is the per-entry reference: values, dtype, structure, nesting in size big."""
        want = reference_array(rule, k)
        sec = om.truncate(spec, k)
        assert sec.dense().dtype == want.dtype
        np.testing.assert_array_equal(sec.dense(), want)
        reference = numerics.Section(want)
        assert [getattr(sec, f) for f in STRUCTURE] == [getattr(reference, f) for f in STRUCTURE]
        np.testing.assert_array_equal(sec.dense(), om.truncate(spec, big).dense()[:k, :k])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12])
    def test_builtin_specs_match_entry_rules(self, k):
        self.assert_matches_rule(om.jacobi_spec(), jacobi_rule, k, 13)
        self.assert_matches_rule(om.upper_triangular_spec(), upper_triangular_rule, k, 13)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        s=hst.integers(1, 5),
        k=hst.integers(1, 15),
        entries=hst.sampled_from(["real", "complex", "complex_outside"]),
        holes=hst.sampled_from([0.0, 0.5]),
        tail=hst.sampled_from(["zero", "repeat_edge"]),
    )
    @example(seed=0, s=3, k=2, entries="complex_outside", holes=0.0, tail="repeat_edge")
    def test_property_custom_banded_matches_entry_rule(self, seed, s, k, entries, holes, tail):
        k = 1 + (k - 1) % (3 * s)  # 1 <= k <= 3 s
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((s, s)) * (rng.random((s, s)) >= holes)  # exact zeros
        if entries != "real":
            imag = rng.standard_normal((s, s))
            if entries == "complex_outside":  # the section of size k is real, larger ones are not
                imag[:k, :k] = 0.0
            table = table + 1j * imag
        spec = om.custom_banded_spec(table, tail=tail)
        self.assert_matches_rule(spec, custom_banded_rule(table, tail), k, 3 * s)


class TestSplitBlocks:
    def test_jacobi_even_cuts(self):
        sp = om.split_blocks(om.jacobi_spec(), range(2, 22, 2))
        for n, block in enumerate(sp.diagonal_blocks, start=1):
            np.testing.assert_array_equal(block.dense(), [[0, 2 * n], [2 * n, 0]])

    def test_diagonal_spec_unit_cuts(self):
        spec = om.OperatorSpec("diag", lambda k: {0: np.arange(1.0, k + 1)})
        sp = om.split_blocks(spec, range(1, 9))
        assert all(b.n == 1 for b in sp.diagonal_blocks)
        np.testing.assert_array_equal(sp.coupling_section(8).dense(), np.zeros((8, 8)))

    def test_upper_triangular_unit_cuts(self):
        sp = om.split_blocks(om.upper_triangular_spec(), range(1, 9))
        for j, block in enumerate(sp.diagonal_blocks, start=1):
            np.testing.assert_array_equal(block.dense(), [[j**3]])
        s = sp.coupling_section(8).dense()
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
                want = om.truncate(spec, k).dense()
                t, s = sp.diag_section(k).dense(), sp.coupling_section(k).dense()
                assert t.dtype == s.dtype == want.dtype
                np.testing.assert_array_equal(t + s, want)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        width=hst.integers(1, 6),
        cuts=hst.lists(hst.integers(1, 30), min_size=1, max_size=6, unique=True).map(sorted),
        complex_entries=hst.booleans(),
    )
    def test_property_declared_sections_match_dense_blocks(self, seed, width, cuts, complex_entries):
        # the declared T, S and blocks against the blocks copied out of the dense section
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((width, width))
        if complex_entries:
            table = table + 1j * rng.standard_normal((width, width))
        spec = om.custom_banded_spec(table, tail="repeat_edge")
        a = om.truncate(spec, cuts[-1]).dense()
        t = np.zeros_like(a)
        for lo, hi in zip([0] + cuts, cuts):
            t[lo:hi, lo:hi] = a[lo:hi, lo:hi]
        sp = om.split_blocks(spec, cuts)
        for block, lo, hi in zip(sp.diagonal_blocks, [0] + cuts, cuts):
            np.testing.assert_array_equal(block.dense(), a[lo:hi, lo:hi])
        for k in {1, cuts[0], (cuts[0] + cuts[-1]) // 2, cuts[-1]}:
            np.testing.assert_array_equal(sp.diag_section(k).dense(), t[:k, :k])
            np.testing.assert_array_equal(sp.coupling_section(k).dense(), (a - t)[:k, :k])

    def test_one_assembly_per_split(self):
        # the jacobi demo's relative_bound: 60 sizes, each a T and an S section
        sizes = []
        jacobi = om.jacobi_spec()
        counted = om.OperatorSpec("jacobi", lambda k: sizes.append(k) or jacobi.diagonals(k))
        sp = om.split_blocks(counted, range(2, 122, 2))
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


def dense_band_profile(spec, scan_limit, lam=None, normalize_by_diag=False):
    """The dense reference of om.band_profile: every count and envelope read off the scan x scan array."""
    if scan_limit < 2:
        raise ValueError("scan_limit must be >= 2")
    a = numerics.Section(spec.diagonals(scan_limit)).dense()
    if normalize_by_diag:
        if lam is None:
            raise ValueError("normalize_by_diag requires lam")
        d = np.diag(a) - lam
        bad = np.nonzero(np.abs(d) <= 1e-12)[0]
        if bad.size:
            raise PoleError(
                f"lam = {lam} hits the diagonal entry at j = {bad[0] + 1}", index=int(bad[0] + 1)
            )
        b = a / d[np.newaxis, :]
        np.fill_diagonal(b, 0.0)
    else:
        b = a

    mags = np.abs(b)
    nz = mags > 0.0
    row_counts = nz.sum(axis=1)
    col_counts = nz.sum(axis=0)
    row_env = mags.max(axis=1)
    col_env = mags.max(axis=0)
    row_terms = row_env**2 * row_counts
    col_terms = col_env**2 * col_counts
    row_psums = np.cumsum(row_terms)
    col_psums = np.cumsum(col_terms)

    # stability diagnostics: compare against the half-scan subsection
    half = scan_limit // 2
    quarter = scan_limit // 4
    nz_half = nz[:half, :half]
    if quarter >= 1:
        rows_stable = bool(np.array_equal(nz_half[:quarter].sum(axis=1), row_counts[:quarter]))
        cols_stable = bool(np.array_equal(nz_half[:, :quarter].sum(axis=0), col_counts[:quarter]))
    else:
        rows_stable = cols_stable = True
    max_stable = bool(
        (nz_half.sum(axis=1).max(initial=0) == row_counts.max(initial=0))
        and (nz_half.sum(axis=0).max(initial=0) == col_counts.max(initial=0))
    )
    env_half = mags[:half, :half].max(initial=0.0)
    env_full = mags.max(initial=0.0)
    envelope_bounded = bool(env_full <= env_half * (1 + 1e-12) + 1e-300)

    if rows_stable and cols_stable and max_stable:
        hint = "a"
    elif rows_stable and om._decade_ratio(row_terms) < om.RATIO_THRESHOLD:
        hint = "b"
    elif cols_stable and om._decade_ratio(col_terms) < om.RATIO_THRESHOLD:
        hint = "c"
    else:
        hint = "none"

    return om.BandProfile(
        scan_limit=scan_limit,
        lam=lam,
        row_counts=row_counts,
        col_counts=col_counts,
        row_envelope=row_env,
        col_envelope=col_env,
        row_partial_sums=row_psums,
        col_partial_sums=col_psums,
        hint=hint,
        envelope_bounded=envelope_bounded,
    )


#: the array fields of a BandProfile
PROFILE_ARRAYS = (
    "row_counts", "col_counts", "row_envelope", "col_envelope", "row_partial_sums", "col_partial_sums"
)


def raise_on_dense(section):
    raise AssertionError(f"dense {section.n} x {section.n} section")


def declared_band_profile(spec, scan, lam, normalize):
    """om.band_profile with the dense array of every Section made to raise."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics.Section, "dense", raise_on_dense)
        return om.band_profile(spec, scan, lam=lam, normalize_by_diag=normalize)


def assert_same_profile(spec, scan, lam, normalize):
    """The declared profile against the dense reference: each field's values and dtype, or the PoleError."""
    try:
        want = dense_band_profile(spec, scan, lam=lam, normalize_by_diag=normalize)
    except PoleError as exc:
        with pytest.raises(PoleError) as got:
            declared_band_profile(spec, scan, lam, normalize)
        assert (str(got.value), got.value.index) == (str(exc), exc.index)
        return
    got = declared_band_profile(spec, scan, lam, normalize)
    for f in PROFILE_ARRAYS:
        g, w = getattr(got, f), getattr(want, f)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), f
    assert (got.scan_limit, got.lam, got.hint, got.envelope_bounded) == (
        want.scan_limit, want.lam, want.hint, want.envelope_bounded
    )


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
        p = om.band_profile(om.OperatorSpec("zero", lambda k: {0: np.zeros(k)}), 20)
        assert p.row_counts.max() == 0 and p.col_counts.max() == 0
        assert p.row_envelope.max() == 0.0 and p.col_envelope.max() == 0.0

    def test_partial_sums_monotone(self):
        p = om.band_profile(om.upper_triangular_spec(), 60, lam=50j, normalize_by_diag=True)
        assert np.all(np.diff(p.row_partial_sums) >= 0)
        assert np.all(np.diff(p.col_partial_sums) >= 0)

    def test_scaling_covariance(self):
        base = om.jacobi_spec()
        c = 3.7
        scaled = om.OperatorSpec("scaled", lambda k: {off: c * d for off, d in base.diagonals(k).items()})
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

    @pytest.mark.parametrize(
        "spec, scan, lam, normalize",
        [
            (om.jacobi_spec(), 50, None, False),
            (om.upper_triangular_spec(), 200, 50j, True),
            (om.upper_triangular_spec(), 200, None, False),
            (om.upper_triangular_spec(), 10, 8.0, True),
        ],
    )
    def test_builtin_specs_match_dense_profile(self, spec, scan, lam, normalize):
        assert_same_profile(spec, scan, lam, normalize)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        s=hst.integers(1, 8),
        scan=hst.integers(2, 80),
        entries=hst.sampled_from(["real", "complex"]),
        holes=hst.sampled_from([0.0, 0.3, 0.7]),
        tail=hst.sampled_from(["zero", "repeat_edge"]),
        lam=hst.sampled_from([None, "real", "complex"]),
    )
    def test_property_matches_dense_profile(self, seed, s, scan, entries, holes, tail, lam):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((s, s)) * (rng.random((s, s)) >= holes)  # exact zeros
        if entries == "complex":
            table = table + 1j * rng.standard_normal((s, s)) * (rng.random((s, s)) >= holes)
        spec = om.custom_banded_spec(table, tail=tail)
        # a real lam sits off a real diagonal unless it hits one exactly; a complex one has Im lam >= 1
        if lam == "real":
            lam = float(rng.standard_normal())
        elif lam == "complex":
            lam = complex(rng.standard_normal(), 1.0 + rng.random())
        assert_same_profile(spec, scan, lam, lam is not None)

    def test_jacobi_at_the_section_cap_from_diagonals(self, monkeypatch):
        # 3 diagonals of 8192 entries, where the dense scan held six 8192 x 8192 arrays
        monkeypatch.setattr(numerics.Section, "dense", raise_on_dense)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            p = om.band_profile(om.jacobi_spec(), 8192)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.hint == "a" and (p.max_row_count, p.max_col_count) == (2, 2)
        assert elapsed < 1.0 and peak < 8 * 2**20


class TestJacobiSpectralSymmetry:
    """Tridiagonal zero-diagonal sections: spectrum symmetric under lam -> -lam."""

    def test_symmetry_and_odd_kernel(self):
        spec = om.jacobi_spec()
        for k in range(2, 22):
            w = numerics.eig_dense(om.truncate(spec, k).dense()).eigenvalues
            w_sorted = np.sort_complex(w)
            np.testing.assert_allclose(
                w_sorted, -np.sort_complex(-w)[::-1], atol=1e-10 * max(np.abs(w))
            )
            if k % 2 == 1:
                assert np.min(np.abs(w)) <= 1e-10


class TestCustomBanded:
    def test_zero_tail(self):
        spec = om.custom_banded_spec([[1, 2], [3, 4]], tail="zero")
        m = om.truncate(spec, 3).dense()
        np.testing.assert_array_equal(m, [[1, 2, 0], [3, 4, 0], [0, 0, 0]])

    def test_repeat_edge_extends_diagonals(self):
        spec = om.custom_banded_spec([[2, -1], [-1, 2]], tail="repeat_edge")
        m = om.truncate(spec, 4).dense()
        expect = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        np.testing.assert_array_equal(m, expect)

    def test_bad_table(self):
        with pytest.raises(DataError):
            om.custom_banded_spec([[1, 2, 3]])
