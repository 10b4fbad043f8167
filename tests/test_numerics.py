"""Kernel contracts: section structure, eigensolve, singular values, and their invariants."""

import contextlib
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as hst

from specexact import numerics, resolvent_analysis as ra
from specexact.errors import DataError, DimensionError

import dense_reference


def residuals_counted(ledger):
    """The residuals ``ledger`` counted, over every route."""
    return ledger.counts["residuals_computed"].total()


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestEigDense:
    def test_symmetric_2x2(self):
        d = numerics.eig_dense([[0, 2], [2, 0]])
        np.testing.assert_allclose(d.eigenvalues, [-2, 2], atol=1e-12)

    def test_identity_is_one_cluster(self):
        d = numerics.eig_dense(np.eye(3))
        np.testing.assert_allclose(d.eigenvalues, [1, 1, 1], atol=1e-14)

    def test_nilpotent_jordan_block(self):
        d = numerics.eig_dense([[0, 1], [0, 0]])
        np.testing.assert_allclose(d.eigenvalues, [0, 0], atol=1e-12)

    def test_residual_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            d = numerics.eig_dense(m)
            scale = numerics.op_norm(m)
            assert np.all(d.residuals <= 1e-8 * scale)

    def test_hermitian_eigenvalues_real(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_hermitian(rng, int(rng.integers(2, 25)))
            d = numerics.eig_dense(m)
            assert np.max(np.abs(d.eigenvalues.imag)) <= 1e-10 * numerics.op_norm(m)

    def test_conjugate_transpose_spectrum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w1 = numerics.eig_dense(m).eigenvalues
            w2 = numerics.eig_dense(m.conj().T).eigenvalues
            # conjugated set must match the original set
            w2c = np.sort_complex(np.conj(w2))
            np.testing.assert_allclose(np.sort_complex(w1), w2c, atol=1e-8 * numerics.op_norm(m))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            numerics.eig_dense(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            numerics.eig_dense([[np.nan, 0], [0, 1]])


class TestTridiagonalEig:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(2, 200),
        split=hst.sampled_from([0.0, 0.1, 0.5, 1.0]),
        repeated=hst.booleans(),
    )
    def test_property_eigenvalues_and_written_residuals(self, seed, n, split, repeated):
        rng = np.random.default_rng(seed)
        main = rng.standard_normal(n)
        off = rng.standard_normal(n - 1) * (rng.random(n - 1) >= split)
        if repeated:  # two equal blocks split by an exact zero: every eigenvalue doubles
            h = n // 2
            main[h : 2 * h], off[h : 2 * h - 1], off[h - 1] = main[:h], off[: h - 1], 0.0
        m = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        with numerics.Ledger() as ledger:
            d = numerics.eig_dense(m)
        norm = np.linalg.norm(m, 2)
        assert d.route == "tridiagonal" and residuals_counted(ledger) == 0
        np.testing.assert_array_equal(d.eigenvalues.imag, 0.0)
        assert np.max(np.abs(d.eigenvalues.real - np.linalg.eigvalsh(m))) <= 1e-10 * norm
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        with numerics.Ledger() as ledger:
            res = d.residuals_at(rows)
        assert res.shape == rows.shape and dict(ledger.counts["residuals_computed"]) == {"tridiagonal": rows.size}
        assert np.all(res <= 100 * np.finfo(float).eps * norm)

    def test_eigenvalues_are_solved_once_and_read_only(self, monkeypatch):
        # every caller reads one array per object: eig_dense, sigma_min and verify's gammas alike
        calls, stevd = [], numerics._flapack.dstevd
        monkeypatch.setattr(numerics._flapack, "dstevd", lambda *args, **kw: calls.append(1) or stevd(*args, **kw))
        rng = np.random.default_rng(3)
        t = numerics.SymmetricTridiagonal(rng.standard_normal(50), rng.standard_normal(49))
        first = t.eigenvalues()
        assert t.eigenvalues() is first and len(calls) == 1 and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        np.testing.assert_array_equal(first, numerics.SymmetricTridiagonal(t.d, t.e).eigenvalues())

    def test_every_residual_in_bounded_memory(self):
        # the residuals go in blocks of dstein vectors: all 4096 of them peak at a few n x 64
        # arrays, where the n x n matrix of vectors and its three temporaries take 512 MiB
        rng = np.random.default_rng(18)
        t = numerics.SymmetricTridiagonal(rng.standard_normal(4096), rng.standard_normal(4095))
        lam = t.eigenvalues()
        tracemalloc.start()
        try:
            res = t.residuals(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.shape == lam.shape and peak < 32 * 2**20
        assert np.all(res <= 100 * np.finfo(float).eps * np.abs(lam).max())

    def test_general_route_computes_every_residual_eagerly(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        with numerics.Ledger() as ledger:
            d = numerics.eig_dense(m)
            assert d.route == "general" and dict(ledger.counts["residuals_computed"]) == {"general": 2}
            np.testing.assert_array_equal(d.residuals_at([1]), d.residuals[[1]])
            assert residuals_counted(ledger) == 2
            # a dense Hermitian input: a Hermitian tridiagonal one takes the tridiagonal route
            h = numerics.eig_dense(np.array([[2.0, 1j, 1.0], [-1j, 2.0, 1j], [1.0, -1j, 2.0]]))
        assert h.route == "hermitian" and dict(ledger.counts["residuals_computed"]) == {"general": 2, "hermitian": 3}


def bisection_case(rng, n, case):
    """Diagonals (d, e) of a real symmetric tridiagonal T, and the index of an isolated entry or None.

    ``wilkinson``: W_n^+, whose largest eigenvalues come in pairs closer than
    1e-13; ``split`` and ``edge``: about a third of e exactly zero, and in
    ``edge`` one diagonal entry cut off on both sides, an exact eigenvalue.
    """
    if case == "wilkinson":
        return np.abs(np.arange(n) - (n - 1) / 2.0), np.ones(n - 1), None
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if case in ("split", "edge"):
        e[rng.random(n - 1) < 0.3] = 0.0
    if case != "edge":
        return d, e, None
    j = int(rng.integers(n))
    e[max(j - 1, 0) : j + 1] = 0.0
    return d, e, j


def sliding_match(got, want, tol):
    """The largest |got - want[j0:j0 + len(got)]| over the offsets j0 near got[0]'s place in want."""
    j = int(np.searchsorted(want, got[0] - tol))
    offsets = range(max(j - 2, 0), min(j + 2, want.size - got.size) + 1)
    return min(np.abs(got - want[j0 : j0 + got.size]).max() for j0 in offsets)


class TestBisectionEig:
    """The bisection route against eigvalsh_tridiagonal: a window's eigenvalues and their residuals."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([2, 3, 64, 200]),
        stored=hst.sampled_from(["real", "complex"]),
        case=hst.sampled_from(["random", "wilkinson", "split", "edge", "off_axis"]),
        side=hst.sampled_from([-1.0, 0.0, 1.0]),
    )
    @example(seed=0, n=200, stored="real", case="wilkinson", side=0.0)
    @example(seed=1, n=64, stored="complex", case="split", side=0.0)
    @example(seed=2, n=3, stored="real", case="edge", side=1.0)
    @example(seed=3, n=200, stored="complex", case="edge", side=-1.0)
    @example(seed=4, n=2, stored="real", case="off_axis", side=0.0)
    def test_property_window_matches_eigvalsh_tridiagonal(self, seed, n, stored, case, side):
        rng = np.random.default_rng(seed)
        d, e, isolated = bisection_case(rng, n, case)
        upper = e * np.exp(2j * np.pi * rng.random(n - 1)) if stored == "complex" else e
        sec = numerics.Section({0: d, 1: upper, -1: np.conj(upper)})
        assert sec.tridiagonal is not None and sec.real == (stored == "real" or not np.any(e))
        # sterf's own error reaches about 10 eps ||T|| at n = 200, so the 4 eps
        # comparison is with eigvalsh_tridiagonal's bisection driver
        want = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stebz")
        norm = float(np.abs(want).max()) or 1.0
        tol = 4 * np.finfo(float).eps * norm
        # window edges in gaps wider than 8 tol, or within eps ||T|| of an exact eigenvalue
        gaps = np.flatnonzero(np.diff(want) > 8 * tol)
        cuts = np.concatenate([[want[0] - 1.0], (want[gaps] + want[gaps + 1]) / 2, [want[-1] + 1.0]])
        lo, hi = np.sort(rng.choice(cuts, 2))
        if isolated is not None:
            lo = d[isolated] + side * np.finfo(float).eps * norm
            hi = max(hi, lo + 2 * np.finfo(float).eps * norm)
        im = (0.5, 1.0) if case == "off_axis" else (-1.0, 1.0)
        with numerics.Ledger() as ledger:
            dec = numerics.eig_dense(sec, (hi, lo, *im))
        assert dec.route == "bisection" and dec.window == (lo, hi, -np.inf, np.inf)
        assert residuals_counted(ledger) == 0
        got = dec.eigenvalues
        np.testing.assert_array_equal(got.imag, 0.0)
        got = got.real
        assert np.all(np.diff(got) >= 0.0)
        inside = lambda w: w[(w >= lo) & (w <= hi)] if case != "off_axis" else w[:0]
        assert inside(got).size == inside(want).size
        if isolated is not None:
            assert (d[isolated] in inside(got)) == (side <= 0.0)
        if got.size:
            assert sliding_match(got, want, tol) <= tol
            sterf = scipy.linalg.eigvalsh_tridiagonal(d, e)
            assert sliding_match(got, sterf, 8 * tol) <= 8 * tol
            rows = rng.permutation(got.size)
            with numerics.Ledger() as ledger:
                assert np.all(dec.residuals_at(rows) <= 1e-13 * norm)
            assert dict(ledger.counts["residuals_computed"]) == {"bisection": got.size}
        # the same bits from a window inside this one
        if inside(got).size:
            sub = numerics.eig_dense(sec, (inside(got)[0], inside(got)[-1], -1.0, 1.0)).eigenvalues
            np.testing.assert_array_equal(sub[(sub.real >= lo) & (sub.real <= hi)], got[(got >= lo) & (got <= hi)])

    def test_unwindowed_request_takes_sterf(self):
        sec = numerics.Section({0: np.arange(5.0), 1: np.ones(4), -1: np.ones(4)})
        whole = numerics.eig_dense(sec)
        assert whole.route == "tridiagonal" and whole.window is None and whole.dimension == 5


class CountingLapack:
    """``numerics._flapack`` with each bisection's index range (il, iu) recorded, and Sturm counts counted.

    A ``dstebz`` call of range ``I`` (2) bisects; one of range ``V`` (1) is
    the count of :meth:`numerics.SymmetricTridiagonal.sturm_count`.
    """

    def __init__(self, lapack):
        self._lapack, self.ranges, self.counts = lapack, [], 0

    def __getattr__(self, name):
        return getattr(self._lapack, name)

    def dstebz(self, *args):
        if args[2] == 2:
            self.ranges.append(tuple(args[5:7]))
        else:
            self.counts += 1
        return self._lapack.dstebz(*args)


@contextlib.contextmanager
def counting_dstebz():
    counter = CountingLapack(numerics._flapack)
    numerics._flapack = counter
    try:
        yield counter
    finally:
        numerics._flapack = counter._lapack


class TestBisectionMemo:
    """``eigenvalues_by_index`` bisects each index once per object, with the bits of a fresh object."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([1, 2, 3, 17, 64]),
        dtype=hst.sampled_from(["real", "complex"]),
        zeros=hst.integers(0, 3),
        ranges=hst.lists(hst.tuples(hst.integers(-3, 70), hst.integers(-3, 70)), min_size=1, max_size=6),
    )
    @example(seed=0, n=17, dtype="complex", zeros=2, ranges=[(3, 9), (0, 5), (8, 17), (2, 4)])
    @example(seed=1, n=2, dtype="real", zeros=1, ranges=[(0, 2), (1, 2), (-3, 70)])
    @example(seed=2, n=1, dtype="complex", zeros=0, ranges=[(0, 1), (-3, 70), (1, 2)])
    def test_overlapping_ranges_in_any_order(self, seed, n, dtype, zeros, ranges):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1) + (1j * rng.standard_normal(n - 1) if dtype == "complex" else 0.0)
        if n > 1:
            e[rng.integers(n - 1, size=zeros)] = 0.0  # exact zeros split T into blocks
        fresh = {}
        for k in range(n):
            one = numerics.SymmetricTridiagonal(d.astype(e.dtype), e).eigenvalues_by_index(k, k + 1)
            assert one.shape == (1,)
            fresh[k] = one
        t = numerics.SymmetricTridiagonal(d.astype(e.dtype), e)
        asked = set()
        with counting_dstebz() as lapack:
            for first, stop in ranges:
                got = t.eigenvalues_by_index(first, stop)
                indices = range(max(first, 0), min(stop, n))
                want = np.sort(np.concatenate([fresh[k] for k in indices])) if indices else np.zeros(0)
                assert got.tobytes() == want.tobytes()
                asked.update(indices)
        # of order 1 the eigenvalue is d[0], with no LAPACK call
        assert sorted(lapack.ranges) == ([] if n == 1 else [(k + 1, k + 1) for k in sorted(asked)])
        if n == 1:
            assert fresh[0].tobytes() == d.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_sturm_count_at_infinite_and_nan_shifts(self, n, capfd):
        rng = np.random.default_rng(n)
        t = numerics.SymmetricTridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        with counting_dstebz() as lapack:
            assert t.sturm_count(-np.inf) == 0 and t.sturm_count(np.inf) == n
            # and an order-1 T answers every shift without LAPACK
            if n == 1:
                assert t.sturm_count(t.d[0]) == 1 and t.sturm_count(np.nextafter(t.d[0], -np.inf)) == 0
        assert lapack.counts == 0 and lapack.ranges == []
        # at -inf dstebz would refuse the interval and print xerbla's message
        assert capfd.readouterr().err == ""
        with pytest.raises(ValueError, match="nan"):
            t.sturm_count(np.nan)

    def test_window_and_closed_form_contour_share_their_bisections(self):
        # the oscillator's eigenvalues 1, 3, 5, ...: the window's values serve the contours around them
        n = 399
        h = 16.0 / (n + 1)
        x = -8.0 + h * np.arange(1, n + 1)
        t = numerics.SymmetricTridiagonal(2.0 / h**2 + x * x, np.full(n - 1, -1.0 / h**2))
        with counting_dstebz() as lapack:
            window = t.eigenvalues_between(0.0, 8.0)
            for c in (1.0, 3.0, 5.0, 7.0):
                ra._closed_form_contour_rank(t, complex(c, 0.0), 0.5, 32)
                ra._closed_form_contour_rank(t, complex(c, 0.25), 0.5, 32)
        assert window.size == 4 and len(lapack.ranges) == len(set(lapack.ranges))
        assert set(lapack.ranges) >= {(k + 1, k + 1) for k in range(4)}


def reference_sturm_count(d, e, z):
    """Eigenvalues of the real symmetric tridiagonal (d, e) at most z: the nonpositive pivots of the LDL^T of T - z.

    The reference of :meth:`numerics.SymmetricTridiagonal.sturm_count`, as a
    Python loop: a pivot of magnitude below pivmin, ``dstebz``'s, is replaced
    by -pivmin.
    """
    e2 = [0.0] + (e * e).tolist()
    pivmin = np.finfo(float).tiny * max(1.0, max(e2))
    count, q = 0, 1.0
    for dj, e2j in zip(d.tolist(), e2):
        q = dj - z - e2j / q
        if abs(q) < pivmin:
            q = -pivmin
        if q <= 0.0:
            count += 1
    return count


def hermitian_tridiagonal(seed, n, case, zeros):
    """(T, A): a random Hermitian tridiagonal A, real or complex with ``zeros`` exact zero off-diagonals, its T."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1) + (1j * rng.standard_normal(n - 1) if case == "complex" else 0.0)
    if n > 1:
        e[rng.integers(n - 1, size=zeros)] = 0.0
    return numerics.SymmetricTridiagonal(d.astype(e.dtype), e), np.diag(d) + np.diag(e, 1) + np.diag(e.conj(), -1)


class TestTridiagonalQueries:
    """Counts, sigma_min and the norm from the bisection memo, against the code and the dense kernels they replace."""

    tridiagonals = dict(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 80),
        case=hst.sampled_from(["real", "complex"]),
        zeros=hst.integers(0, 4),
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**tridiagonals, shifts=hst.lists(hst.floats(-1.5, 1.5), min_size=1, max_size=8))
    @example(seed=0, n=1, case="real", zeros=0, shifts=[-1.0, 0.0, 1.0])
    @example(seed=1, n=40, case="complex", zeros=4, shifts=[-1.5, -0.5, 0.0, 0.5, 1.5])
    def test_lapack_count_matches_the_recurrence(self, seed, n, case, zeros, shifts):
        t, a = hermitian_tridiagonal(seed, n, case, zeros)
        lam = np.linalg.eigvalsh(a)
        norm = max(float(np.abs(lam).max()), 1e-300)
        # the two agree but at exact ties: keep shifts 1e-8 ||T|| from every eigenvalue
        for z in [s * norm for s in shifts] + list((lam[1:] + lam[:-1]) / 2):
            if np.abs(lam - z).min() >= 1e-8 * norm:
                assert t.sturm_count(z) == reference_sturm_count(t.d, t.e, z) == np.count_nonzero(lam <= z)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        **tridiagonals,
        shifts=hst.lists(
            hst.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
        ),
    )
    @example(seed=2, n=1, case="complex", zeros=0, shifts=[0.5j, -2.0])
    @example(seed=3, n=60, case="real", zeros=3, shifts=[0.0, 1.0, -1.0 + 0.5j])
    @example(seed=1770, n=2, case="real", zeros=1, shifts=[3.25 + 0.5j])  # a shift far from a small spectrum
    def test_distance_to_spectrum_matches_dense_svd(self, seed, n, case, zeros, shifts):
        t, a = hermitian_tridiagonal(seed, n, case, zeros)
        lam = np.linalg.eigvalsh(a)
        # shifts between and at the eigenvalues too, where the nearest one is on either side
        for z in shifts + list(lam) + list((lam[1:] + 3 * lam[:-1]) / 4) + list((3 * lam[1:] + lam[:-1]) / 4):
            s = np.linalg.svd(a - z * np.eye(n), compute_uv=False)
            # the SVD's own error is a few eps ||T - z I||, which is about eps ||T|| for z near the spectrum
            assert abs(t.distance_to_spectrum(complex(z)) - s[-1]) <= 4 * np.finfo(float).eps * s[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**tridiagonals, offset=hst.sampled_from([-3.0, 0.0, 3.0]))
    @example(seed=4, n=1, case="real", zeros=0, offset=-3.0)
    @example(seed=5, n=30, case="complex", zeros=2, offset=-3.0)
    def test_op_norm_matches_dense_norm(self, seed, n, case, zeros, offset):
        # an offset makes the most negative or the most positive eigenvalue the largest in magnitude
        a = hermitian_tridiagonal(seed, n, case, zeros)[1] + offset * np.eye(n)
        sec = numerics.Section(a)
        want = np.linalg.norm(a, 2)
        got = numerics.op_norm(sec)
        # the dense SVD's own error reaches about 7 ulps at n <= 80
        assert abs(got - want) <= 16 * np.finfo(float).eps * want
        if sec.tridiagonal is not None:
            assert sec.tridiagonal._by_index.keys() <= {0, n - 1}


def banded_diagonals(kind, n, half, rng):
    """Diagonals {j - i: d} of a random banded matrix of the given kind."""
    cplx = lambda k: rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
    if kind == "real_symmetric":
        upper = {k: rng.standard_normal(n - k) for k in range(half + 1)}
    elif kind == "hermitian":
        upper = {0: rng.standard_normal(n), **{k: cplx(k) for k in range(1, half + 1)}}
    elif kind == "non_normal":
        return {k: cplx(abs(k)) for k in range(-half, half + 1)}
    elif kind == "diagonal":  # complex, so not Hermitian: every eigenvalue is an exact pivot
        return {0: cplx(0)}
    else:  # jordan: one eigenvalue of multiplicity n and one eigenvector
        return {0: np.full(n, 0.5 + 0.25j), 1: np.ones(n - 1)}
    return {**upper, **{-k: upper[k].conj() for k in range(1, half + 1)}}


class TestBandedEig:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([64, 97, 200]),
        half=hst.sampled_from([2, 3]),
        kind=hst.sampled_from(["real_symmetric", "hermitian", "non_normal", "diagonal", "jordan"]),
    )
    @example(seed=0, n=64, half=2, kind="diagonal")
    @example(seed=0, n=200, half=3, kind="jordan")
    def test_property_eigenvalues_and_inverse_iteration_residuals(self, seed, n, half, kind):
        rng = np.random.default_rng(seed)
        sec = numerics.Section(banded_diagonals(kind, n, half, rng))
        a = sec.dense()  # a copy the Section does not keep
        norm = np.linalg.norm(a, 2)
        with numerics.Ledger() as ledger:
            d = numerics.eig_dense(sec)
        assert d.route == "banded" and d.section is sec and residuals_counted(ledger) == 0
        # only zgeev, on the non-Hermitian sections, takes a dense array, placed for the call
        assert dict(ledger.counts["dense_builds"]) == ({} if sec.hermitian else {n: 1})
        if sec.hermitian:
            np.testing.assert_array_equal(d.eigenvalues.imag, 0.0)
            assert np.max(np.abs(d.eigenvalues.real - np.linalg.eigvalsh(a))) <= 1e-14 * norm
        else:
            want = np.linalg.eigvals(a)
            dist = np.abs(d.eigenvalues[:, np.newaxis] - want[np.newaxis, :])
            assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-10 * norm
        rows = rng.permutation(n)[: int(rng.integers(1, 12))]
        with numerics.Ledger() as ledger:
            res = d.residuals_at(rows)
        assert res.shape == rows.shape and dict(ledger.counts["residuals_computed"]) == {"banded": rows.size}
        assert np.all(np.isfinite(res))
        if kind != "non_normal":  # normal inputs, and the Jordan block's exact eigenvector
            assert np.all(res <= 1e-12 * norm)


class TestSigmaMin:
    """The dense reference the other tests compare against, ``dense_reference.sigma_min``."""

    def test_identity(self):
        assert dense_reference.sigma_min(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_antidiagonal(self):
        assert dense_reference.sigma_min([[0, 2], [2, 0]]) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal(self):
        assert dense_reference.sigma_min(np.diag([1.0, 10.0])) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_eigen_distance_hermitian(self):
        # sigma_min(M - lam I) == min_j |lam - lam_j| for Hermitian M
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_hermitian(rng, int(rng.integers(2, 31)))
            w = np.linalg.eigvalsh(m)
            lam = complex(rng.standard_normal(), rng.standard_normal()) * np.abs(w).max()
            got = dense_reference.sigma_min(m - lam * np.eye(m.shape[0]))
            want = np.min(np.abs(w - lam))
            assert got == pytest.approx(want, rel=1e-8)

    def test_lower_bounds_vector_images(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = dense_reference.sigma_min(m)
            for _ in range(50):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= np.linalg.norm(x)
                assert s <= np.linalg.norm(m @ x) + 1e-12

    def test_tridiagonal_fast_path_matches_svd(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            main = rng.standard_normal(n)
            off = rng.standard_normal(n - 1)
            m = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
            dense = float(np.linalg.svd(m, compute_uv=False)[-1])
            assert dense_reference.sigma_min(m) == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_exactly_singular_diag_returns_zero(self):
        assert dense_reference.sigma_min(np.diag([0.0, 1.0, 2.0])) == 0.0


def reference_band_widths(a):
    """(kl, ku) from the index array of every nonzero entry."""
    rows, cols = np.nonzero(a)
    return int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))


def mask_is_hermitian_tridiagonal(a):
    """Reference structure test: Hermitian, and zero wherever |i - j| > 1."""
    if a.shape[0] != a.shape[1] or a.shape[0] < 2:
        return False
    if not np.array_equal(a, a.conj().T):
        return False
    mask = np.abs(np.subtract.outer(np.arange(a.shape[0]), np.arange(a.shape[0]))) > 1
    return not np.any(a[mask])


class TestStructureDetection:
    def test_matches_mask_formula(self):
        rng = np.random.default_rng(31)
        cases = [np.zeros((2, 2)), np.eye(1), np.zeros((3, 4)), np.diag([-0.0, 1.0, 2.0])]
        for _ in range(300):
            n = int(rng.integers(3, 12))
            kind = rng.integers(0, 6)
            if kind == 0:  # dense
                a = rng.standard_normal((n, n))
            else:  # banded with random half-widths, sometimes sparse inside the band
                kl, ku = (int(k) for k in rng.integers(0, 3, 2))
                a = np.zeros((n, n))
                for off in range(-kl, ku + 1):
                    a += np.diag(rng.standard_normal(n - abs(off)) * rng.integers(0, 2), off)
            if kind == 2:  # symmetric
                a = np.triu(a) + np.triu(a, 1).T
            if kind == 3:  # one stray entry far from the diagonal
                a[n - 1, 0] += float(rng.integers(0, 2))
            if kind == 4:  # complex
                a = a + 1j * rng.integers(0, 2) * a
            if kind == 5:  # complex Hermitian
                a = np.triu(a, 1) + 1j * np.triu(a, 1)
                a = a + a.conj().T + np.diag(rng.standard_normal(n))
            cases.append(a)
        verdicts = [mask_is_hermitian_tridiagonal(a) for a in cases]
        assert any(verdicts) and not all(verdicts)
        assert any(v and np.iscomplexobj(a) for a, v in zip(cases, verdicts))
        for a, want in zip(cases, verdicts):
            if a.shape[0] != a.shape[1]:
                with pytest.raises(DimensionError):
                    numerics.Section(a)
            else:
                assert (numerics.Section(a).tridiagonal is not None) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 9),
        kl=hst.integers(0, 3),
        ku=hst.integers(0, 3),
        holes=hst.sampled_from([0.0, 0.3, 0.7]),
        dtype=hst.sampled_from(["real", "complex_dtype", "complex"]),
        shape=hst.sampled_from(["band", "symmetric", "hermitian", "stray"]),
        negative_zero=hst.booleans(),
    )
    @example(seed=0, n=1, kl=0, ku=0, holes=0.0, dtype="complex", shape="band", negative_zero=False)
    @example(seed=1, n=6, kl=1, ku=1, holes=0.0, dtype="real", shape="stray", negative_zero=True)
    @example(seed=2, n=5, kl=1, ku=2, holes=0.0, dtype="complex_dtype", shape="band", negative_zero=True)
    def test_property_matches_reference_formulas(
        self, seed, n, kl, ku, holes, dtype, shape, negative_zero
    ):
        rng = np.random.default_rng(seed)
        i, j = np.indices((n, n))
        band = (i - j <= kl) & (j - i <= ku)
        a = rng.standard_normal((n, n)) * band * (rng.random((n, n)) >= holes)  # exact zeros in the band
        if dtype != "real":
            a = a.astype(complex)
        if dtype == "complex":
            a += 1j * rng.standard_normal((n, n)) * band * (rng.random((n, n)) >= 0.5)
        if shape == "symmetric":
            a = np.triu(a) + np.triu(a, 1).T
        elif shape == "hermitian":
            a = np.triu(a, 1) + np.triu(a, 1).conj().T + np.diag(np.diag(a).real)
        elif shape == "stray":  # one entry far outside the band
            a[(n - 1, 0) if rng.random() < 0.5 else (0, n - 1)] = 1.0 + rng.random()
        if negative_zero:  # -0.0 above the diagonal, facing +0.0 below it
            a[(a == 0) & (i < j)] = -0.0
        sec = numerics.Section(a)
        real = not np.any(a.imag)  # one rule for array and declared input: no nonzero imaginary part
        assert (sec.n, sec.real) == (n, real)
        assert (sec.kl, sec.ku) == reference_band_widths(a)
        assert sec.hermitian == np.array_equal(a, a.conj().T)
        assert (sec.tridiagonal is not None) == mask_is_hermitian_tridiagonal(a)
        if sec.tridiagonal is not None:  # (Re d, |e|) for complex A, the diagonals as stored for real
            want_e = np.diag(a, 1).real if real else np.abs(np.diag(a, 1))
            np.testing.assert_array_equal(sec.tridiagonal.d, np.diag(a).real)
            np.testing.assert_array_equal(sec.tridiagonal.e, want_e)
        # every diagonal of the array declared gives the same Section, bit for bit
        declared = numerics.Section({off: np.diag(a, off) for off in range(1 - n, n)})
        assert declared.real == sec.real and list(declared.diagonals) == list(sec.diagonals)
        for off, d in sec.diagonals.items():
            assert d.dtype == declared.diagonals[off].dtype and d.tobytes() == declared.diagonals[off].tobytes()

    def test_of_accepts_array_and_section(self):
        a = np.diag([1.0, 2.0]) + np.diag([3.0], 1) + np.diag([3.0], -1)
        sec = numerics.Section.of(a)
        assert numerics.Section.of(sec) is sec and sec.tridiagonal is not None
        # numpy reads a Section as its matrix, placed anew on each read and not kept
        first = np.asarray(sec)
        assert first is not np.asarray(sec) and first.dtype == np.float64
        np.testing.assert_array_equal(first, a)
        np.testing.assert_array_equal(np.asarray(sec, dtype=complex), a)
        assert np.asarray(sec, dtype=complex).dtype == np.complex128


def largest_held_array(value) -> int:
    """The most entries of any array in ``value``, looking through dicts, tuples and lists; 0 when none."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return max((largest_held_array(item) for item in value), default=0)
    return 0


class TestNoDenseArrayKept:
    def test_banded_section_keeps_no_square_array(self):
        # complex, not Hermitian and stored banded: its norm takes the SVD and its spectrum zgeev,
        # each on an n x n array placed for that call alone
        n, rng = 512, np.random.default_rng(41)
        sec = numerics.Section(
            {off: rng.standard_normal(n - abs(off)) + 1j * rng.standard_normal(n - abs(off)) for off in (-2, -1, 0, 1)}
        )
        assert sec.banded and not sec.hermitian
        with numerics.Ledger() as ledger:
            norm = sec.norm
            assert numerics.eig_dense(sec).route == "banded"
        assert dict(ledger.counts["dense_builds"]) == {n: 2}
        assert norm == np.linalg.svd(sec.dense(), compute_uv=False)[0]
        assert largest_held_array(vars(sec)) < n * n

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 0.5j])
    def test_array_input_is_not_kept(self, scale):
        n = 70
        a = scale * (np.diag(np.arange(1.0, n + 1)) + np.diag(np.full(n - 2, 0.5), 2))
        want, ref = a.copy(), weakref.ref(a)
        sec = numerics.Section(a)
        del a
        gc.collect()
        assert ref() is None
        assert sec.dense().tobytes() == want.tobytes() and (sec.kl, sec.ku) == (0, 2)


class TestOpNorm:
    def test_diagonal(self):
        assert numerics.op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-14)

    def test_zero(self):
        assert numerics.op_norm(np.zeros((3, 2))) == 0.0

    def test_rank_one(self):
        assert numerics.op_norm([[0, 5], [0, 0]]) == pytest.approx(5.0, abs=1e-14)

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert numerics.op_norm(m) == pytest.approx(2.0, abs=1e-14)

    def test_real_symmetric_tridiagonal_matches_svd(self):
        rng = np.random.default_rng(12)
        for n in (2, 7, 150, 600):
            off = rng.standard_normal(n - 1)
            m = np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)
            want = np.linalg.svd(m, compute_uv=False)[0]
            assert numerics.op_norm(numerics.Section(m)) == pytest.approx(want, rel=1e-13)


class TestFactorization:
    """The shifted solves behind verify's gamma and the contour gate, in every storage kind."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        kind=hst.sampled_from(["banded", "dense", "triangular"]),
        m=hst.integers(0, 56),
        wide=hst.booleans(),
        complex_a=hst.booleans(),
    )
    def test_property_solves_estimate_and_singular(self, seed, kind, m, wide, complex_a):
        rng = np.random.default_rng(seed)
        n = 2 + m if kind == "dense" and not wide else 64 + m
        kl, ku = (int(k) for k in rng.integers(0, 4, 2))
        if kind == "triangular" or (kind == "dense" and wide):
            kl, ku = (0 if kind == "triangular" else n - 1), n - 1
        i, j = np.indices((n, n))
        # a diagonal in the unit disc plus a band of norm about 1, so |z| = 4 is
        # far from the spectrum and z I - A is well conditioned
        a = rng.standard_normal((n, n)) / (2 * np.sqrt(n)) * ((i - j <= kl) & (j - i <= ku) & (i != j))
        diag = rng.uniform(-1.0, 1.0, n)
        if complex_a:
            a = a + 1j * rng.standard_normal((n, n)) * (a != 0) / (2 * np.sqrt(n))
            diag = diag * np.exp(2j * np.pi * rng.random(n))
        a += np.diag(diag)
        z = 4.0 * (np.exp(2j * np.pi * rng.random()) if complex_a else rng.choice([-1.0, 1.0]))

        def factor(mat):
            sec = numerics.Section(mat)
            assert (sec.banded, sec.triangular) == (kind == "banded", kind == "triangular")
            return sec.factor(z)

        fact, shifted = factor(a), z * np.eye(n) - a
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for adjoint, mat in ((False, shifted), (True, shifted.conj().T)):
            want = np.linalg.solve(mat, b)
            got = fact.solve(b, adjoint=adjoint)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        inv_norm = 1.0 / np.linalg.svd(shifted, compute_uv=False)[-1]
        # a lower estimate, converging from below
        assert 0.5 * inv_norm <= fact.inverse_norm_estimate() <= inv_norm * (1.0 + 1e-12)

        # row k of z I - A exactly zero: an exact zero pivot
        k = int(rng.integers(n))
        a[k, :] = 0.0
        a[k, k] = z
        with pytest.raises(np.linalg.LinAlgError):
            factor(a)


def fresh_triangular_solve(a, z, b, adjoint):
    """ztrtrs on z I - A built afresh for this one shift, from the dense A."""
    t = -np.asfortranarray(a, dtype=complex)
    t[np.diag_indices(a.shape[0])] += z
    x, info = numerics._flapack.ztrtrs(t, b, trans=2 if adjoint else 0)
    assert info == 0
    return x


def declared_upper_triangular(rng, n, complex_a):
    """An upper triangular A with its diagonal in the unit annulus, and the Section its diagonals declare."""
    a = np.triu(rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_a else 0.0), 1)
    a = a / np.sqrt(n) + np.diag(rng.uniform(0.5, 1.0, n) * (np.exp(2j * np.pi * rng.random(n)) if complex_a else 1.0))
    return a, numerics.Section({k: a.diagonal(k) for k in range(n)})


class TestSharedTriangularMatrix:
    """Every shift of a triangular section solves against one shared -A with its own diagonal written in."""

    SHIFTS = (2.5, -2.0 + 0.5j, 0.3 + 2.1j, -1.2 - 1.9j, 1.7 - 0.2j)

    @staticmethod
    def solves(rng, n, shifts):
        """(shift index, adjoint, b) for every shift, adjoint or not, 1-d and 2-d b, in a shuffled order."""
        cases = [
            (k, adjoint, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for k in range(len(shifts))
            for adjoint in (False, True)
            for shape in ((n,), (n, 3))
        ]
        return [cases[i] for i in rng.permutation(len(cases))]

    @pytest.mark.parametrize("n", [80, 400])
    @pytest.mark.parametrize("complex_a", [False, True])
    def test_interleaved_solves_equal_a_fresh_matrix(self, n, complex_a):
        rng = np.random.default_rng(n + complex_a)
        a, sec = declared_upper_triangular(rng, n, complex_a)
        assert sec.triangular
        with numerics.Ledger() as ledger:
            facts = [sec.factor(z) for z in self.SHIFTS]
        for k, adjoint, b in self.solves(rng, n, self.SHIFTS) * 2:
            with ledger:
                got = facts[k].solve(b, adjoint=adjoint)
            assert np.array_equal(got, fresh_triangular_solve(a, self.SHIFTS[k], b, adjoint))
        # the shared -A, placed from the diagonals, is the one n x n array of every shift
        assert dict(ledger.counts["dense_builds"]) == {n: 1}

    def test_held_factors_cost_no_matrix_each(self):
        n = 400
        _, sec = declared_upper_triangular(np.random.default_rng(6), n, complex_a=True)
        sec.factor(3.0).solve(np.ones(n))  # builds the shared matrix
        shifts = 3.0 * np.exp(2j * np.pi * np.arange(64) / 64)
        tracemalloc.start()
        try:
            held = [sec.factor(z) for z in shifts]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 64 and peak < n * n * np.dtype(complex).itemsize

    def test_exact_zero_on_the_shifted_diagonal(self):
        rng = np.random.default_rng(7)
        n = 80
        a, _ = declared_upper_triangular(rng, n, complex_a=True)
        z = complex(a[40, 40])
        sec = numerics.Section(a)
        with pytest.raises(np.linalg.LinAlgError):
            sec.factor(z)
        with numerics.Ledger() as ledger:
            assert sec.sigma_min(z) == 0.0
        assert ledger.counts["dense_fallbacks"].total() == 0
        # the refused shift left the shared matrix fit for the next one
        b = rng.standard_normal(n) + 0j
        assert np.array_equal(sec.factor(z + 0.5).solve(b), fresh_triangular_solve(a, z + 0.5, b, False))


def reference_inverse_iteration_residual(sec, lam):
    """:meth:`Section.inverse_iteration_residual` on ``scipy.linalg``'s lu_factor, lu_solve and norm."""

    def solver(mu):
        if sec.banded or sec.triangular:
            return sec.factor(mu).solve
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(mu * np.eye(sec.n) - sec.dense(), check_finite=False)
        if np.abs(np.diag(lu[0])).min() == 0.0:
            raise np.linalg.LinAlgError("exact zero pivot")
        return lambda b: scipy.linalg.lu_solve(lu, b, check_finite=False)

    try:
        solve = solver(lam)
    except np.linalg.LinAlgError:
        solve = solver(lam + np.finfo(float).eps * sec.inf_norm)
    x = sec._lanczos_start
    for _ in range(2):
        x = solve(x)
        norm = scipy.linalg.norm(x, check_finite=False)
        if not np.isfinite(norm):
            return sec.sigma_min(lam)
        x = x / norm
    return float(np.linalg.norm(sec.matvec(x) - lam * x))


def tridiagonal_case(rng, n, case):
    """Diagonals (d, e) of a Hermitian tridiagonal matrix: real, complex, or with an exact zero off-diagonal."""
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1) + (1j * rng.standard_normal(n - 1) if case == "complex" else 0.0)
    if case == "split" and n > 1:
        e[rng.integers(n - 1)] = 0.0
    return d, e


class TestDirectLapack:
    """Each LAPACK/BLAS call site gives the bits of the ``scipy.linalg`` function it stands for."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([1, 2, 3, 17, 200]),
        case=hst.sampled_from(["real", "complex", "split"]),
        z=hst.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    )
    @example(seed=0, n=1, case="real", z=0.5)
    @example(seed=1, n=2, case="split", z=1j)
    @example(seed=2, n=2, case="complex", z=-0.25 + 2j)
    def test_tridiagonal_eigenvalues_and_distance(self, seed, n, case, z):
        rng = np.random.default_rng(seed)
        d, e = tridiagonal_case(rng, n, case)
        t = numerics.SymmetricTridiagonal(d.astype(e.dtype), e)
        want = scipy.linalg.eigvalsh_tridiagonal(t.d, t.e)
        assert np.array_equal(t.eigenvalues(), want)
        k = t.sturm_count(z.real)
        # one index per call, as the memo bisects: a call for several moves their last bits
        tol = 2 * np.finfo(float).tiny
        lam = np.concatenate([
            scipy.linalg.eigvalsh_tridiagonal(t.d, t.e, select="i", select_range=(j, j), tol=tol)
            for j in range(max(k - 1, 0), min(k, n - 1) + 1)
        ])
        assert np.array_equal(t.distance_to_spectrum(z), float(np.min(np.abs(lam - z))))
        if n >= 2:
            sec = numerics.Section({0: d, 1: e, -1: e.conj()})
            assert np.array_equal(numerics.eig_dense(sec).eigenvalues, want.astype(complex))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 40),
        split=hst.booleans(),
    )
    @example(seed=0, n=1, split=False)
    @example(seed=1, n=2, split=True)
    def test_lanczos_ritz_step(self, seed, n, split):
        # the step's tridiagonal: positive alpha, nonnegative beta
        rng = np.random.default_rng(seed)
        alpha, beta = rng.random(n) + 0.1, rng.random(n - 1)
        if split and n > 1:
            beta[rng.integers(n - 1)] = 0.0
        ritz, vecs = numerics._stevd(alpha, beta, vectors=True)
        want, want_vecs = scipy.linalg.eigh_tridiagonal(alpha, beta)
        assert np.array_equal(ritz, want) and np.array_equal(vecs[-1], want_vecs[-1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([64, 97]),
        half=hst.sampled_from([2, 3]),
        kind=hst.sampled_from(["real_symmetric", "hermitian"]),
    )
    def test_banded_hermitian_route(self, seed, n, half, kind):
        sec = numerics.Section(banded_diagonals(kind, n, half, np.random.default_rng(seed)))
        ab = np.zeros((half + 1, n), dtype=sec.diagonals[0].dtype)
        for k in range(half + 1):
            ab[half - k, k:] = sec.diagonals[k]
        d = numerics.eig_dense(sec)
        assert d.route == "banded" and sec.real == (kind == "real_symmetric")
        assert np.array_equal(d.eigenvalues, scipy.linalg.eigvals_banded(ab).astype(complex))

    #: per storage kind of Section.factor: (orders it is drawn at, band widths kl, ku or None for full)
    FACTOR_KINDS = {
        "tridiagonal": ((64, 65, 80, 200), (1, 1)),
        "banded": ((64, 97, 130, 200), (2, 3)),
        "triangular": ((64, 80, 97, 130), (0, None)),
        "dense": ((1, 2, 5, 40), (None, None)),
    }

    @staticmethod
    def direct_solver(kind, a, z, kl, ku):
        """solve(b, adjoint) for z I - A by the kind's LAPACK pair, called here on z I - A built afresh."""
        n = a.shape[0]
        shifted = np.negative(a, dtype=np.result_type(a, z))
        np.fill_diagonal(shifted, z - a.diagonal())
        if kind == "tridiagonal":
            lu = scipy.linalg.lapack.zgttrf(shifted.diagonal(-1), shifted.diagonal(), shifted.diagonal(1))
            assert lu[-1] == 0
            return lambda b, adjoint: scipy.linalg.lapack.zgttrs(*lu[:-1], b, trans="C" if adjoint else "N")[0]
        if kind == "banded":
            ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)  # entry (i, j) at row kl + ku + i - j
            for off in range(-kl, ku + 1):
                ab[kl + ku - off, max(off, 0) : max(off, 0) + n - abs(off)] = shifted.diagonal(off)
            lu, ipiv, info = scipy.linalg.lapack.zgbtrf(ab, kl, ku)
            assert info == 0
            return lambda b, adjoint: scipy.linalg.lapack.zgbtrs(lu, kl, ku, b, ipiv, trans=2 if adjoint else 0)[0]
        if kind == "triangular":
            return lambda b, adjoint: fresh_triangular_solve(a, z, b, adjoint)
        lu_piv = scipy.linalg.lu_factor(shifted, check_finite=False)
        return lambda b, adjoint: scipy.linalg.lu_solve(lu_piv, b, trans=2 if adjoint else 0, check_finite=False)

    @pytest.mark.parametrize("kind", list(FACTOR_KINDS))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        size=hst.integers(0, 3),
        complex_a=hst.booleans(),
        complex_z=hst.booleans(),
    )
    def test_factorization_solves(self, kind, seed, size, complex_a, complex_z):
        orders, (kl, ku) = self.FACTOR_KINDS[kind]
        n = orders[size]
        kl, ku = (n - 1 if k is None else k for k in (kl, ku))
        rng = np.random.default_rng(seed)
        i, j = np.indices((n, n))
        band = (i - j <= kl) & (j - i <= ku) & (i != j)
        # the band scaled to norm about 1 and the diagonal in the unit disc: |z| = 4 is far from the spectrum
        a = rng.standard_normal((n, n)) * band / (2 * np.sqrt(n)) + np.diag(rng.uniform(-1.0, 1.0, n))
        if complex_a:
            a = a + 1j * (rng.standard_normal((n, n)) * band / (2 * np.sqrt(n)) + np.diag(rng.uniform(-0.5, 0.5, n)))
        z = complex(4.0, 1.5) if complex_z else -4.0
        sec = numerics.Section(a)
        assert (sec.kl, sec.ku, sec.sigma_min_route) == (kl, ku, {"tridiagonal": "banded"}.get(kind, kind))
        fact, solve = sec.factor(z), self.direct_solver(kind, a, z, kl, ku)
        assert fact.n == n
        for shape in ((n,), (n, 3)):
            for b in (rng.standard_normal(shape), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
                for adjoint in (False, True):
                    got, want = fact.solve(b, adjoint=adjoint), solve(b, adjoint)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.sampled_from([1, 2, 5, 30, 64, 97]),
        kind=hst.sampled_from(["real_symmetric", "hermitian", "non_normal", "diagonal", "jordan"]),
    )
    @example(seed=0, n=5, kind="diagonal")  # an exact eigenvalue: a zero pivot moves the shift
    @example(seed=0, n=64, kind="diagonal")
    def test_inverse_iteration_residual(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        sec = numerics.Section(banded_diagonals(kind, n, min(2, n - 1), rng))
        a = sec.dense()
        lams = sec.diagonals[0][:3] if kind == "diagonal" else np.linalg.eigvals(a)[:3]
        for lam in lams:
            got = sec.inverse_iteration_residual(lam)
            assert np.array_equal(got, reference_inverse_iteration_residual(sec, lam))


def parent_declared_diagonals(declared: dict) -> dict:
    """``numerics._declared_diagonals`` as it was before it stacked the diagonals: three reductions per diagonal."""
    diags = {int(off): np.asarray(d) for off, d in declared.items()}
    n = np.size(diags.setdefault(0, np.zeros(0)))
    for off, d in diags.items():
        if n == 0 or d.shape != (n - abs(off),):
            raise DimensionError(f"declared diagonal {off} has shape {d.shape}, the order is {n}")
        if not np.all(np.isfinite(d)):
            t = int(np.argmin(np.isfinite(d))) + 1
            raise DataError(f"matrix has a non-finite entry at ({t + max(-off, 0)}, {t + max(off, 0)})")
    real = not any(np.any(np.imag(d)) for d in diags.values())
    keep = lambda d: np.asarray(np.real(d), dtype=float) if real else np.asarray(d, dtype=complex)
    nonzero = [off for off, d in diags.items() if np.any(d)] + [0]
    return {off: keep(diags.get(off, np.zeros(n - abs(off)))) for off in range(min(nonzero), max(nonzero) + 1)}


def declared_or_error(fn, declared):
    """``fn(declared)``, or the type and message of the error it raises."""
    try:
        return fn(declared)
    except (DataError, DimensionError) as exc:
        return type(exc), str(exc)


@hst.composite
def declarations(draw):
    """A builder's ``{offset: diagonal}``: shuffled offsets, sometimes a wrong length or no main diagonal,
    entries among finite values, exact and complex zeros, NaN and inf, in float or complex dtype."""
    n = draw(hst.integers(0, 7))
    inside = list(range(-n, n + 1))
    offsets = draw(hst.lists(hst.sampled_from(inside * 4 + [-n - 1, n + 1]), max_size=6, unique=True))
    if draw(hst.booleans()) and 0 not in offsets:
        offsets.append(0)
    offsets = draw(hst.permutations(offsets))
    finite = [0.0, -0.0, 1.5, -2.0, 0j, complex(0.0, -0.0), 1j, 2.0 - 1j]
    entries = hst.sampled_from(finite * 8 + [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    out = {}
    for off in offsets:
        length = max(n - abs(off), 0) + draw(hst.sampled_from([0] * 12 + [1, -1]))
        values = draw(hst.lists(entries, min_size=max(length, 0), max_size=max(length, 0)))
        kind = draw(hst.sampled_from(["float", "complex", "list", "int"]))
        if kind == "int" and all(np.isfinite(v) and complex(v).imag == 0 for v in values):
            out[off] = np.array([int(complex(v).real) for v in values], dtype=np.int64)
        elif kind == "float" and all(complex(v).imag == 0 for v in values):
            out[off] = np.array([complex(v).real for v in values], dtype=float)
        elif kind == "list":
            out[off] = values
        else:
            out[off] = np.array(values, dtype=complex)
    return out


class TestDeclaredDiagonals:
    """The one-pass check of a builder's diagonals gives what the per-diagonal loop gave."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(declared=declarations())
    @example(declared={1: [np.nan], 0: np.zeros(3)})  # a wrong shape declared before a finite main diagonal
    @example(declared={-1: [1.0, np.inf], 2: [0.0], 0: [1.0, 2.0]})  # non-finite before a wrong shape
    @example(declared={0: np.zeros(4), 3: [0j], -2: [0.0, 1j]})  # an outer zero diagonal is trimmed
    def test_property_matches_the_per_diagonal_loop(self, declared):
        want = declared_or_error(parent_declared_diagonals, declared)
        got = declared_or_error(numerics._declared_diagonals, declared)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, dict) and list(got) == list(want)
        for off in want:
            assert got[off].dtype == want[off].dtype and np.array_equal(got[off], want[off])
            # -0.0 stays -0.0: the same bits, not only equal values
            assert np.array_equal(np.signbit(got[off].real), np.signbit(want[off].real))

    def test_many_diagonals_in_one_pass(self):
        from specexact.operator_model import upper_triangular_spec

        declared = upper_triangular_spec().diagonals(200)
        got, want = numerics._declared_diagonals(declared), parent_declared_diagonals(declared)
        assert list(got) == list(want) == list(range(200))
        assert all(np.array_equal(got[k], want[k]) and got[k].dtype == want[k].dtype for k in want)


def parent_largest_inverse_eigenvalue(sec, fact):
    """``Section._largest_inverse_eigenvalue`` as it was before its step ran on BLAS: the reference."""
    steps = min(sec.n, numerics._LANCZOS_STEPS)
    basis = np.empty((steps, sec.n), dtype=complex)
    alpha, beta = np.empty(steps), np.empty(steps)
    v = sec._lanczos_start
    for k in range(steps):
        basis[k] = v
        w = fact.solve(fact.solve(v), adjoint=True)
        if not np.all(np.isfinite(w)):
            return None
        alpha[k] = np.vdot(v, w).real
        done = basis[: k + 1]
        for _ in range(2):
            w -= np.conj(done @ np.conj(w)) @ done
        beta[k] = np.linalg.norm(w)
        ritz, vecs = numerics._stevd(alpha[: k + 1], beta[:k], vectors=True)
        theta = ritz[-1]
        if not (np.isfinite(theta) and theta > 0.0):
            return None
        if beta[k] * abs(vecs[-1, -1]) <= numerics._LANCZOS_TOL * theta:
            return float(theta)
        v = w / beta[k]
    return None


@contextlib.contextmanager
def no_band_lu():
    """``zgbtrf`` made to raise, so a section that reaches the banded LU fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("banded LU of a tridiagonal section")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics._flapack, "zgbtrf", refuse)
        yield


def tridiagonal_section(rng, n, kl, ku, complex_a, zeros):
    """A Section declared with kl, ku <= 1 and a ``zeros`` share of exact zeros in its off-diagonals."""
    draw = lambda m: rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_a else 0.0)
    diagonals = {0: draw(n)}
    for off in [-k for k in range(1, kl + 1)] + list(range(1, ku + 1)):
        diagonals[off] = draw(n - 1) * (rng.random(n - 1) >= zeros)
        diagonals[off][rng.integers(n - 1)] = 1.0  # not all zero, so the declared band is kept
    return numerics.Section(diagonals)


def pseudo_workload_sections():
    """The pseudo stages' sections of the benchmark: the complex oscillator (n = 399, banded) and the
    upper-triangular section of size 400, with their 12 x 12 lattices."""
    from specexact import cli

    oscillator = {"kind": "schrodinger", "p": 0.0, "q": "i*x^2", "r": 0.0, "L_n": [6.0], "m": 400, "analysis": []}
    triangular = {"kind": "upper_triangular", "analysis": []}
    cases = [(oscillator, 1, (-1.0, 12.0, -1.0, 12.0)), (triangular, 400, (-2.0, 30.0, -10.0, 10.0))]
    for doc, size, (re0, re1, im0, im1) in cases:
        sec = cli.parse_problem(doc).ladder([size]).matrix(size)
        yield sec, [complex(x, y) for y in np.linspace(im0, im1, 12) for x in np.linspace(re0, re1, 12)]


class TestTridiagonalFactorization:
    """Sections stored banded with kl, ku <= 1 factor by zgttrf and agree with the dense references."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(64, 300),
        kl=hst.integers(0, 1),
        ku=hst.integers(0, 1),
        complex_a=hst.booleans(),
        zeros=hst.sampled_from([0.0, 0.2, 0.6]),
    )
    @example(seed=0, n=64, kl=0, ku=0, complex_a=False, zeros=0.0)
    @example(seed=1, n=300, kl=1, ku=1, complex_a=True, zeros=0.6)
    def test_property_solves_and_sigma_min_match_dense(self, seed, n, kl, ku, complex_a, zeros):
        rng = np.random.default_rng(seed)
        sec = tridiagonal_section(rng, n, kl, ku, complex_a, zeros)
        assert sec.banded and (sec.kl, sec.ku) == (kl, ku) and sec.real == (not complex_a)
        a = sec.dense()
        z = complex(rng.standard_normal(), rng.standard_normal())
        shifted = z * np.eye(n) - a
        with no_band_lu():
            fact = sec.factor(z)
            for columns in (1, 16):
                b = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
                for adjoint, mat in ((False, shifted), (True, shifted.conj().T)):
                    x = fact.solve(b[:, 0] if columns == 1 else b, adjoint=adjoint).reshape(n, columns)
                    # normwise backward error of a backward-stable solve
                    err = np.linalg.norm(mat @ x - b) / (np.linalg.norm(mat, 2) * np.linalg.norm(x) + np.linalg.norm(b))
                    assert err <= 64 * n * np.finfo(float).eps
                    np.testing.assert_allclose(x, np.linalg.solve(mat, b), rtol=0, atol=1e-8 * np.linalg.norm(x))
            # the pseudo gate's tolerance; a real diagonal section is Hermitian and takes the tridiagonal route
            got = sec.sigma_min(z)
            want = np.linalg.svd(shifted, compute_uv=False)[-1]
            assert abs(got - want) <= 1e-8 * want + 100 * np.finfo(float).eps * (np.linalg.norm(a, 2) + abs(z))
        assert "_band_template" not in vars(sec)

    @pytest.mark.parametrize("kl, ku", [(0, 1), (1, 0), (0, 0)])
    @pytest.mark.parametrize("complex_a", [False, True])
    def test_shift_at_a_diagonal_entry_is_exactly_singular(self, kl, ku, complex_a):
        rng = np.random.default_rng(3 + kl + 2 * ku)
        sec = tridiagonal_section(rng, 100, kl, ku, complex_a, zeros=0.0)
        z = complex(sec.diagonals[0][37])
        with no_band_lu():
            with pytest.raises(np.linalg.LinAlgError):
                sec.factor(z)
            with numerics.Ledger() as ledger:
                assert sec.sigma_min(z) == 0.0
        assert ledger.counts["dense_fallbacks"].total() == 0

    @pytest.mark.parametrize("case", [0, 1])
    def test_step_matches_the_reference_step(self, case):
        # the banded section (kl = ku = 1) factors each shift by the tridiagonal LU, and no step warns
        sec, shifts = list(pseudo_workload_sections())[case]
        assert sec.sigma_min_route == ("banded", "triangular")[case]
        with no_band_lu(), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for z in shifts:
                fact = sec.factor(z)
                want = parent_largest_inverse_eigenvalue(sec, fact)
                got = sec._largest_inverse_eigenvalue(fact)
                assert want is not None and got == pytest.approx(want, rel=1e-12, abs=0)

    def test_overflowing_solve_warns_of_nothing(self):
        # Toeplitz with symbol 2 + e^{i t} + 0.5 e^{-i t}: sigma_min(A - 2) is about 1e-155 at n = 1024, so the
        # double solve overflows and the point is redone by SVD
        n = 1024
        sec = numerics.Section({0: np.full(n, 2.0), 1: np.ones(n - 1), -1: np.full(n - 1, 0.5)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with numerics.Ledger() as ledger:
                got = sec.sigma_min(2.0)
        assert dict(ledger.counts["dense_fallbacks"]) == {"banded": 1}
        assert got == np.linalg.svd(sec._placed(2.0), compute_uv=False)[-1]
        assert 0.0 < got < 1e-150

    def test_overflowing_inverse_norm_estimate_warns_of_nothing(self):
        # the same section: its first double solve is finite, but its squared norm overflows a dot product,
        # and the next solve overflows; the estimate reads inf, ||(A - 2)^-1|| is about 1e155
        n = 1024
        sec = numerics.Section({0: np.full(n, 2.0), 1: np.ones(n - 1), -1: np.full(n - 1, 0.5)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sec.factor(2.0).inverse_norm_estimate() == np.inf

    def test_ledger_counts_lanczos_steps_per_route(self):
        rng = np.random.default_rng(5)
        banded = tridiagonal_section(rng, 120, 1, 1, True, zeros=0.0)
        _, triangular = declared_upper_triangular(rng, 80, complex_a=True)
        with numerics.Ledger() as ledger:
            for z in (3.0, 2j, -1.5 + 0.5j):
                banded.sigma_min(z)
                triangular.sigma_min(z)
        steps = ledger.counts["lanczos_steps"]
        assert set(steps) == {"banded", "triangular"}
        assert all(3 <= steps[route] <= 3 * numerics._LANCZOS_STEPS for route in steps)
        # the tridiagonal route runs no Lanczos
        with numerics.Ledger() as ledger:
            numerics.Section({0: np.arange(80.0), 1: np.ones(79), -1: np.ones(79)}).sigma_min(0.5)
        assert not ledger.counts["lanczos_steps"]


class TestSerialBlas:
    def test_pins_every_pool_and_restores_each_count_on_an_exception(self, monkeypatch):
        counts = [3, 2]
        pools = tuple((lambda i=i: counts[i], lambda c, i=i: counts.__setitem__(i, c)) for i in range(2))
        monkeypatch.setattr(numerics, "_BLAS_POOLS", pools)
        with pytest.raises(KeyboardInterrupt):
            with numerics.serial_blas():
                assert numerics.blas_threads() == [1, 1]
                raise KeyboardInterrupt
        assert counts == [3, 2]

    def test_without_a_pool_does_nothing(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLAS_POOLS", ())
        with numerics.serial_blas():
            assert numerics.blas_threads() == []

    def test_pins_the_pools_of_this_process(self):
        # numpy's and SciPy's wheels each bundle an OpenBLAS, found once at import
        before = numerics.blas_threads()
        assert before
        with numerics.serial_blas():
            assert numerics.blas_threads() == [1] * len(before)
        assert numerics.blas_threads() == before
