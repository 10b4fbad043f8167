"""Dense linear-algebra kernels with explicit tolerance contracts.

Everything here is a pure function of its inputs and deterministic for a
fixed input, so concurrent use on distinct inputs is safe.  Backed by
LAPACK (balancing + Hessenberg + implicitly shifted QR for general
eigenproblems, bidiagonalization for singular values, partial-pivot LU
for solves) through numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ConvergenceError, DataError, DimensionError, SingularMatrixError

# Eigenvalues closer than max(CLUSTER_REL * scale, CLUSTER_FLOOR) are one cluster.
CLUSTER_REL = 1e-8
CLUSTER_FLOOR = 1e-10

# Pivots below PIVOT_REL * scale mean "numerically singular" in solve().
PIVOT_REL = 1e-14


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


def _norm_scale(m: np.ndarray, eigenvalues: np.ndarray | None = None) -> float:
    """Cheap spectral-norm proxy: max of entry magnitude and spectral radius."""
    scale = float(np.abs(m).max()) if m.size else 0.0
    if eigenvalues is not None and eigenvalues.size:
        scale = max(scale, float(np.abs(eigenvalues).max()))
    return scale


@dataclass(frozen=True)
class Cluster:
    """One group of numerically coincident eigenvalues."""

    indices: tuple[int, ...]
    center: complex

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class EigenDecomposition:
    """Spectrum of one dense matrix, with multiplicity clusters and residuals.

    ``eigenvalues`` is sorted lexicographically by (Re, Im) and counted with
    algebraic multiplicity.  ``residuals[k]`` is ||M v - lam v|| / ||v|| for the
    computed eigenvector v of ``eigenvalues[k]``; the eigenvectors themselves
    are not kept, so a decomposition holds O(n) data.  Cluster membership
    uses the radius ``cluster_radius``; cluster sizes sum to the dimension.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: list[Cluster]
    cluster_radius: float

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def multiplicity_in_disk(self, center: complex, radius: float) -> int:
        """Number of eigenvalues (with multiplicity) strictly inside a disk."""
        return int(np.count_nonzero(np.abs(self.eigenvalues - center) < radius))


def _cluster(eigenvalues: np.ndarray, radius: float) -> list[Cluster]:
    # Single linkage over the lex-sorted values; a sliding window on Re keeps
    # the pair scan near-linear for the sizes this module targets.
    n = eigenvalues.shape[0]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    start = 0
    for i in range(n):
        while eigenvalues[i].real - eigenvalues[start].real > radius:
            start += 1
        for j in range(start, i):
            if abs(eigenvalues[i] - eigenvalues[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [
        Cluster(indices=tuple(idx), center=complex(np.mean(eigenvalues[idx])))
        for idx in sorted(groups.values())
    ]
    return clusters


def _tridiag_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    d = np.diag(a)[:, np.newaxis] * v
    e = np.diag(a, 1)
    d[:-1] += e[:, np.newaxis] * v[1:]
    d[1:] += e[:, np.newaxis] * v[:-1]
    return d


def eig_dense(m) -> EigenDecomposition:
    """Eigenvalues, residuals and multiplicity clusters of a dense matrix.

    Hermitian inputs (detected exactly) go through the symmetric solver
    (tridiagonal variant where the structure allows); everything else through
    complex QR iteration.  Raises :class:`ConvergenceError` naming the stuck
    index if QR iteration fails.
    """
    a = as_matrix(m, square=True)
    if _is_real_symmetric_tridiagonal(a):
        w, v = scipy.linalg.eigh_tridiagonal(np.diag(a), np.diag(a, 1))
        resid = np.linalg.norm(_tridiag_matvec(a, v) - v * w[np.newaxis, :], axis=0)
        resid /= np.linalg.norm(v, axis=0)
        order = np.lexsort((np.zeros_like(w), w))
        w = w[order].astype(np.complex128)
        resid = resid[order]
        radius = max(CLUSTER_REL * _norm_scale(a, w), CLUSTER_FLOOR)
        return EigenDecomposition(
            eigenvalues=w, residuals=resid, clusters=_cluster(w, radius), cluster_radius=radius
        )
    if np.array_equal(a, a.conj().T):
        w, v = np.linalg.eigh(a)
        w = w.astype(np.complex128)
    else:
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
    radius = max(CLUSTER_REL * _norm_scale(a, w), CLUSTER_FLOOR)
    return EigenDecomposition(
        eigenvalues=w, residuals=resid, clusters=_cluster(w, radius), cluster_radius=radius
    )


def _is_real_symmetric_tridiagonal(a: np.ndarray) -> bool:
    if np.iscomplexobj(a) or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        return False
    # tridiagonal exactly when every nonzero lies on the three central diagonals
    central = sum(np.count_nonzero(a.diagonal(k)) for k in (-1, 0, 1))
    return np.count_nonzero(a) == central and np.array_equal(a, a.T)


def sigma_min(m) -> float:
    """Smallest singular value of a square matrix.

    Computed by bidiagonalization SVD; exactly-singular structure (zero rows,
    exact rank deficiency found by the factorization) yields exactly 0.0 --
    there is no thresholding.  Real symmetric tridiagonal inputs use the
    tridiagonal symmetric solver (singular values of a symmetric matrix are
    the absolute eigenvalues), same accuracy class, far cheaper.

    This is the dense reference.  sigma_min(A - z I) over shifts z goes
    through ``resolvent_analysis._ShiftFamily.sigma_min``, which has four
    routes: ``tridiagonal`` (real symmetric tridiagonal A, real z) never forms
    A - z I and is bit-identical to this function; ``banded`` uses banded LU
    plus Lanczos; ``triangular`` uses Lanczos with triangular solves on an
    upper-triangular A; its ``dense`` route and the Lanczos fallback
    call this function.
    """
    a = as_matrix(m, square=True)
    if _is_real_symmetric_tridiagonal(a):
        w = scipy.linalg.eigvalsh_tridiagonal(np.diag(a), np.diag(a, 1))
        return float(np.min(np.abs(w)))
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1])


def op_norm(m) -> float:
    """Largest singular value (spectral norm); rectangular inputs allowed.

    Real symmetric tridiagonal inputs use the tridiagonal symmetric solver,
    as :func:`sigma_min` does: the largest absolute eigenvalue.
    """
    a = as_matrix(m)
    if not np.any(a):
        return 0.0
    if _is_real_symmetric_tridiagonal(a):
        w = scipy.linalg.eigvalsh_tridiagonal(np.diag(a), np.diag(a, 1))
        return float(np.max(np.abs(w)))
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0])


def solve(m, b) -> np.ndarray:
    """Solve M X = B by partial-pivot LU.

    Raises :class:`SingularMatrixError` carrying the offending pivot magnitude
    when the smallest pivot falls below ``1e-14 * ||M||_F``.
    """
    a = as_matrix(m, square=True)
    rhs = np.asarray(b)
    vector = rhs.ndim == 1
    rhs = as_matrix(rhs[:, np.newaxis] if vector else rhs, name="rhs")
    if rhs.shape[0] != a.shape[0]:
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, matrix has {a.shape[0]}")
    if np.iscomplexobj(a) != np.iscomplexobj(rhs):
        a = a.astype(np.complex128)
        rhs = rhs.astype(np.complex128)
    with np.errstate(invalid="ignore", divide="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = float(np.linalg.norm(a))
    if pivots.min() < PIVOT_REL * scale:
        raise SingularMatrixError(
            f"matrix numerically singular: pivot {pivots.min():.3e} below "
            f"{PIVOT_REL:g} * ||M|| = {PIVOT_REL * scale:.3e}",
            pivot=float(pivots.min()),
        )
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return x[:, 0] if vector else x
