"""Dense linear-algebra kernels with explicit tolerance contracts.

A square input is read as a :class:`Section`: the validated matrix plus its
structure (band widths, real or complex, Hermitian or not, and the diagonals
of a real symmetric tridiagonal matrix), detected once when the Section is
built.  Each kernel picks its route from that structure.  Everything here is
a pure function of its inputs and deterministic for a fixed input, so
concurrent use on distinct inputs is safe.  Backed by LAPACK (balancing +
Hessenberg + implicitly shifted QR for general eigenproblems, bisection and
inverse iteration for tridiagonal ones, bidiagonalization for singular
values) through numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ConvergenceError, DataError, DimensionError


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and coerce to a float64/complex128 2-d array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim == 0 or arr.ndim > 2:
        raise DimensionError(f"{name} must be 2-d, got ndim={arr.ndim}")
    if arr.ndim == 1:
        raise DimensionError(f"{name} must be 2-d, got a vector of length {arr.shape[0]}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"{name} must have positive dimensions, got {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got {arr.shape}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"{name} has a non-finite entry at ({i + 1}, {j + 1})")
    return arr


class SymmetricTridiagonal:
    """A real symmetric tridiagonal matrix kept as its diagonals: O(n) storage.

    ``d`` is the diagonal and ``e`` the off-diagonal.  Each method solves only
    for what its caller reads: all eigenvalues (``sterf``), the distance from
    one real shift to the spectrum (a Sturm count, then ``stebz`` bisection for
    at most two eigenvalues), or residuals at chosen eigenvalues (``dstein``
    inverse iteration).
    """

    def __init__(self, a: np.ndarray):
        self.d, self.e = np.diag(a).copy(), np.diag(a, 1).copy()

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        return scipy.linalg.eigvalsh_tridiagonal(self.d, self.e)

    @cached_property
    def _recurrence(self) -> tuple[list, list, float]:
        # Python floats keep the scalar recurrence of sturm_count fast;
        # pivmin is LAPACK dstebz's: the safe minimum times max(1, max e_j^2)
        e2 = self.e * self.e
        pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
        return self.d.tolist(), [0.0] + e2.tolist(), pivmin

    def sturm_count(self, z: float) -> int:
        """Number of eigenvalues <= z: the nonpositive pivots of the LDL^T of T - z.

        A pivot of magnitude below pivmin is replaced by -pivmin, as LAPACK's
        dlaebz does, so an exact zero pivot cannot divide by zero.
        """
        d, e2, pivmin = self._recurrence
        count, q = 0, 1.0
        for dj, e2j in zip(d, e2):
            q = dj - z - e2j / q
            if abs(q) < pivmin:
                q = -pivmin
            if q <= 0.0:
                count += 1
        return count

    def distance_to_spectrum(self, z: float) -> float:
        """min |lambda - z| over the eigenvalues, which is sigma_min(T - z) for real z.

        With k = :meth:`sturm_count` (z), the eigenvalues k - 1 and k (from 0)
        bracket z; ``stebz`` bisection computes just those two, to an absolute
        accuracy of about eps ||T||.
        """
        k = self.sturm_count(z)
        pair = (max(k - 1, 0), min(k, self.n - 1))
        lam = scipy.linalg.eigvalsh_tridiagonal(self.d, self.e, select="i", select_range=pair)
        return float(np.min(np.abs(lam - z)))

    def residuals(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """||T v - w[r] v|| / ||v|| for the inverse-iteration vector v at each w[r], r in ``rows``.

        ``w`` holds all eigenvalues, ascending.  LAPACK ``dstein`` runs once
        per row: one call reorthogonalizes its vectors within clusters of
        eigenvalues closer than 1e-3 ||T||, which costs O(n m^2) for m rows,
        and a residual needs no orthogonality.  An exact zero off-diagonal
        splits T into blocks; ``dstebz`` then assigns each requested
        eigenvalue its block, and dstein iterates on that block alone.
        """
        n = self.n
        iblock = np.ones(n, dtype=np.int32)
        isplit = np.zeros(n, dtype=np.int32)
        isplit[0] = n
        blocks = None
        if rows.size and not np.all(self.e):
            lo, hi = int(rows.min()), int(rows.max())
            _m, _w, blocks, isplit, info = lapack.dstebz(
                self.d, self.e, 2, 0.0, 0.0, lo + 1, hi + 1, 0.0, b"E"
            )
            if info != 0:
                raise ConvergenceError(f"bisection for eigenvalues {lo}..{hi} failed (info={info})")
        vecs = np.empty((n, rows.size))
        for i, r in enumerate(rows):
            if blocks is not None:
                iblock[0] = blocks[r - lo]
            # a vector that missed dstein's convergence test still yields its residual
            vecs[:, i] = lapack.dstein(self.d, self.e, w[r : r + 1], iblock, isplit)[0][:, 0]
        tv = self.d[:, np.newaxis] * vecs
        tv[:-1] += self.e[:, np.newaxis] * vecs[1:]
        tv[1:] += self.e[:, np.newaxis] * vecs[:-1]
        return np.linalg.norm(tv - vecs * w[rows], axis=0) / np.linalg.norm(vecs, axis=0)


def _band_widths(a: np.ndarray) -> tuple[int, int]:
    """(kl, ku): the outermost nonzero sub- and superdiagonal of a square a, (0, 0) if none.

    Diagonals are counted outward from the main one until they hold every
    nonzero of a, so a narrow band costs one pass over a, not an index array.
    """
    remaining = np.count_nonzero(a) - np.count_nonzero(a.diagonal())
    kl = ku = 0
    k = 1
    while remaining:
        lower, upper = np.count_nonzero(a.diagonal(-k)), np.count_nonzero(a.diagonal(k))
        kl, ku = (k if lower else kl), (k if upper else ku)
        remaining -= lower + upper
        k += 1
    return kl, ku


class Section:
    """A validated square matrix together with its structure, detected once.

    ``data`` is the float64 or complex128 array (see :func:`as_matrix`) and
    ``n`` its order.  ``kl`` and ``ku`` are the outermost nonzero sub- and
    superdiagonal, (0, 0) for a diagonal matrix; ``real`` says ``data`` is
    real; ``hermitian`` says it equals its conjugate transpose exactly.
    ``tridiagonal`` holds the :class:`SymmetricTridiagonal` diagonals when
    the matrix is real symmetric tridiagonal with n >= 2, else None.

    The constructor makes one band scan and one Hermitian test.  A Hermitian
    matrix has kl == ku, and everything outside its band is zero on both
    sides, so the test compares only the kl + 1 pairs of diagonals inside
    the band.  Nothing here is declared: every field follows from ``data``.
    """

    def __init__(self, m):
        a = as_matrix(m, square=True)
        self.data = a
        self.n = a.shape[0]
        self.kl, self.ku = _band_widths(a)
        self.real = not np.iscomplexobj(a)
        self.hermitian = self.kl == self.ku and all(
            np.array_equal(a.diagonal(-k), a.diagonal(k).conj()) for k in range(self.kl + 1)
        )
        self.tridiagonal = None
        if self.real and self.hermitian and self.n >= 2 and self.kl <= 1:
            self.tridiagonal = SymmetricTridiagonal(a)

    @classmethod
    def of(cls, m) -> "Section":
        """``m`` itself when it is a Section, else a new Section of the array ``m``."""
        return m if isinstance(m, cls) else cls(m)

    def __array__(self, dtype=None, copy=None):
        """``data``, so numpy reads a Section as its matrix."""
        return self.data if dtype is None and not copy else np.array(self.data, dtype=dtype)


#: eig_dense routes, one per structure
EIG_ROUTES = ("tridiagonal", "hermitian", "general")


@dataclass(eq=False)
class EigenDecomposition:
    """Spectrum of one dense matrix, with residuals on demand.

    ``eigenvalues`` is sorted lexicographically by (Re, Im) and counted with
    algebraic multiplicity; ``route`` names the solver (one of
    ``EIG_ROUTES``).  The residual of an eigenvalue lam is ||M v - lam v|| /
    ||v|| for its computed eigenvector v.  On the ``hermitian`` and
    ``general`` routes every residual is computed with the eigenvalues, from
    the eigenvectors, which are then dropped.  On the ``tridiagonal`` route
    the decomposition keeps the section's O(n) diagonals instead, and
    :meth:`residuals_at` computes the residuals of the requested eigenvalues
    only, each time it is asked.  ``residuals_computed`` counts the residuals
    computed so far.
    """

    eigenvalues: np.ndarray
    route: str
    all_residuals: np.ndarray | None = field(default=None, repr=False)
    tridiagonal: SymmetricTridiagonal | None = field(default=None, repr=False)
    residuals_computed: int = 0

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def residuals_at(self, rows) -> np.ndarray:
        """Residuals of ``eigenvalues[rows]``, in the order of ``rows``."""
        rows = np.asarray(rows, dtype=np.intp)
        if self.all_residuals is not None:
            return self.all_residuals[rows]
        self.residuals_computed += rows.size
        return self.tridiagonal.residuals(self.eigenvalues.real, rows)

    @property
    def residuals(self) -> np.ndarray:
        """Every residual, in eigenvalue order."""
        return self.residuals_at(np.arange(self.dimension))


def eig_dense(m) -> EigenDecomposition:
    """Eigenvalues of a :class:`Section`, with residuals (see :class:`EigenDecomposition`).

    ``m`` is a Section, or an array read as one.  One route
    per structure.  Real symmetric tridiagonal sections: eigenvalues only,
    by ``eigvalsh_tridiagonal``; residuals come later, on demand.  Other
    Hermitian sections: ``eigh`` with eigenvectors.  Everything else:
    complex QR iteration (``zgeev``) with eigenvectors.  On the last two
    routes every residual is computed here.  Raises
    :class:`ConvergenceError` naming the stuck index if QR iteration fails.
    """
    sec = Section.of(m)
    if sec.tridiagonal is not None:
        w = sec.tridiagonal.eigenvalues().astype(np.complex128)  # ascending, hence (Re, Im) order
        return EigenDecomposition(eigenvalues=w, route="tridiagonal", tridiagonal=sec.tridiagonal)
    a = sec.data
    if sec.hermitian:
        route = "hermitian"
        w, v = np.linalg.eigh(a)
        w = w.astype(np.complex128)
    else:
        route = "general"
        z = a.astype(np.complex128, copy=False)
        w, _, v, info = lapack.zgeev(z, compute_vl=0, compute_vr=1)
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to the eigensolver")
        if info > 0:
            raise ConvergenceError(
                f"QR iteration failed to converge; eigenvalues {info + 1}..{a.shape[0]} "
                "converged, earlier ones did not",
                stuck_index=int(info),
            )
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    resid = np.linalg.norm(a @ v - v * w[np.newaxis, :], axis=0) / np.linalg.norm(v, axis=0)
    return EigenDecomposition(eigenvalues=w, route=route, all_residuals=resid, residuals_computed=w.size)


def sigma_min(m) -> float:
    """Smallest singular value of a :class:`Section` (or of an array read as one).

    Computed by bidiagonalization SVD; exactly-singular structure (zero rows,
    exact rank deficiency found by the factorization) yields exactly 0.0 --
    there is no thresholding.  Real symmetric tridiagonal sections use the
    tridiagonal symmetric solver for all eigenvalues (singular values of a
    symmetric matrix are the absolute eigenvalues), same accuracy class, far
    cheaper.

    This is the dense reference.  sigma_min(A - z I) over shifts z goes
    through ``resolvent_analysis._ShiftFamily.sigma_min``, which has four
    routes: ``tridiagonal`` (real symmetric tridiagonal A, real z) never forms
    A - z I and computes only the one or two eigenvalues that bracket z
    (:meth:`SymmetricTridiagonal.distance_to_spectrum`), which agree with
    this function to about eps ||A||, not bit for bit; ``banded`` uses banded
    LU plus Lanczos; ``triangular`` uses Lanczos with triangular solves on an
    upper-triangular A; its ``dense`` route and the Lanczos fallback take the
    SVD of A - z I directly, as this function would: a shift that reaches
    them is never real symmetric tridiagonal, so no Section is built for it.
    """
    sec = Section.of(m)
    if sec.tridiagonal is not None:
        return float(np.min(np.abs(sec.tridiagonal.eigenvalues())))
    s = np.linalg.svd(sec.data, compute_uv=False)
    return float(s[-1])


def op_norm(m) -> float:
    """Largest singular value (spectral norm); rectangular inputs allowed.

    A square input is read as a :class:`Section`; a real symmetric
    tridiagonal one uses the tridiagonal symmetric solver, as
    :func:`sigma_min` does: the largest absolute eigenvalue.
    """
    a = m.data if isinstance(m, Section) else as_matrix(m)
    if not np.any(a):
        return 0.0
    tri = Section.of(m).tridiagonal if a.shape[0] == a.shape[1] else None
    if tri is not None:
        return float(np.max(np.abs(tri.eigenvalues())))
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0])
