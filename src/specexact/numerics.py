"""Linear-algebra kernels with explicit tolerance contracts.

A square input is read as a :class:`Section`: its nonzero diagonals, as a
builder declares them or one band scan of an array finds them, plus the
structure they give (band widths, real or complex, Hermitian or not).  Each
kernel picks its route from that structure; only dense routes build the
n x n array.  A Section is also the shifted operator A - z I over many
shifts z (factorization, sigma_min) and caches its norm.  Eigenvalues of a
tridiagonal or banded section come without eigenvectors; a residual is
computed only when asked for, by inverse iteration at its eigenvalue.  A
section its builder declares as a Kronecker sum over one Hermitian
tridiagonal T (:class:`Kronecker`) takes its spectrum from T's.  A
Hermitian tridiagonal section asked for the eigenvalues in a window computes
only those, by bisection.  An eigenvalue estimate is refined by two-sided
Rayleigh-quotient iteration on the same shifted factorizations;
``resolvent_analysis.windowed_spectrum`` refines its contour estimates so,
and adds the ``windowed`` route to ``EIG_ROUTES``.
Everything here is deterministic for a fixed input.  Backed by LAPACK
(balancing + Hessenberg + implicitly shifted QR for general eigenproblems,
band reduction for Hermitian banded ones, bisection and inverse iteration
for tridiagonal ones, tridiagonal, banded and dense LU and triangular solves
for shifts,
bidiagonalization for singular values).  What a stage's
kernels did (routes, cache hits, residuals, fallbacks) is counted in its
:class:`Ledger`.

LAPACK and BLAS are reached through two libraries.  Most kernels call
SciPy's two compiled extension modules, ``scipy.linalg._flapack`` and
``scipy.linalg._fblas``, loaded on their own (:func:`_scipy_linalg_extension`):
``scipy.linalg``'s Python layer, and the numpy submodules it imports, are
never loaded.  Each call names the typed routine the ``scipy.linalg``
function it stands for would pick (``d`` for float64 operands, ``z`` when
any operand is complex128) with the same arguments, so results are
bit-for-bit those of ``scipy.linalg``; the checks those functions made on
``info`` are made here (:func:`_check_info`).  numpy.linalg, on numpy's own
OpenBLAS, serves the rest: :func:`op_norm`, the SVD fallback of
:meth:`Section.sigma_min`, the ``hermitian`` route of :func:`eig_dense`, and
elsewhere the contour's Gram ``eigvalsh`` and sketch QR and
``_beyn_eigenvalues`` (``resolvent_analysis``) and the ``lstsq`` of
``discretize._cover_fit``; numpy's matrix products run on that BLAS too.
Each library keeps its own thread pool.  :func:`serial_blas` pins every
OpenBLAS pool of the process, SciPy's and numpy's alike, to one thread for
a block, and ``cli.run_problem`` runs a stage in it when the stage's largest
section order is below :data:`SERIAL_BLAS_BELOW`; no kernel pins its own
calls, so a library caller keeps the pools as it set them.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property


def _scipy_linalg_extension(name: str):
    """The compiled module ``scipy.linalg.<name>``, loaded without SciPy's package init.

    An already imported module is reused.  Otherwise the extension file is
    loaded from SciPy's ``linalg`` folder and registered under its canonical
    name, so an ``import scipy.linalg`` before or after shares the module
    object.  A SciPy laid out otherwise falls back to a plain import.

    One gap is left open: when this module loads first, a later ``import
    scipy.linalg`` does not set ``_flapack`` or ``_fblas`` as attributes of
    the ``scipy.linalg`` package, since the import system sets a parent's
    attribute only when it loads the submodule itself.  Every import form
    (``import scipy.linalg._flapack``, ``from scipy.linalg import _flapack``)
    and ``scipy.linalg.lapack._flapack`` still reach the shared module; only
    code that reads the private attribute off the package object fails.
    """
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec is not None else None
    if folders:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folders[0], "linalg", name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(full, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(full, path, loader=loader)
                )
                loader.exec_module(module)
                sys.modules[full] = module
                return module
    return importlib.import_module(full)


# Loaded before numpy: SciPy's BLAS starts its worker threads when it loads, and
# they spin for about 0.1 s of CPU before they sleep, so numpy's import overlaps
# that spin and the first computation does not.  The package imports this module first.
_flapack = _scipy_linalg_extension("_flapack")
_fblas = _scipy_linalg_extension("_fblas")

import numpy as np  # noqa: E402
import numpy.random  # noqa: E402  loaded here so that no run pays for it (np.random.default_rng)

from .errors import ConvergenceError, DataError, DimensionError  # noqa: E402

#: ``cli.run_problem`` runs a stage whose largest section order is below this
#: with every OpenBLAS pool on one thread.  On a 2-vCPU machine a pool of two
#: saved no wall time on smaller sections and spent up to twice the CPU, while
#: jacobi relative_bound and upper_triangular spectra at orders 512 and 1024
#: ran faster on it
SERIAL_BLAS_BELOW = 512


def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in the process, in map order.

    The libraries are the shared objects mapped into the process whose path
    holds ``openblas`` (``/proc/self/maps``); each is asked for the symbols
    of SciPy's 64-bit and 32-bit builds, then of a plain OpenBLAS.  Where
    the map cannot be read, or no OpenBLAS is loaded, there are none.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line)
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


# found once numpy's OpenBLAS and SciPy's (loaded with _flapack above) are both mapped
_BLAS_POOLS = _openblas_pools()


def blas_threads() -> list[int]:
    """The thread count of each OpenBLAS pool of the process, in map order; empty when none is found."""
    return [get() for get, _ in _BLAS_POOLS]


@contextlib.contextmanager
def serial_blas():
    """Every OpenBLAS pool of the process on one thread for the block, its own count back after, even on an error."""
    previous = blas_threads()
    try:
        for _, put in _BLAS_POOLS:
            put(1)
        yield
    finally:
        for (_, put), count in zip(_BLAS_POOLS, previous):
            put(count)


def _lapack(name: str, *operands):
    """The LAPACK routine ``name`` for the operands: ``z`` if any is complex, else ``d``."""
    return getattr(_flapack, ("z" if any(np.iscomplexobj(a) for a in operands) else "d") + name)


def _check_info(info: int, routine: str) -> None:
    """ValueError for an illegal argument (info < 0), LinAlgError for a failure (info > 0)."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")


class Ledger:
    """What the kernels of one stage did: ``counts[kind][key]``, plus ``records[kind]``, a list.

    ``with Ledger() as ledger`` opens ``ledger`` in the running context for the
    block.  :meth:`count` and :meth:`record` add to the open ledger and do
    nothing when none is open.  Each kind is named after the
    ``report.json`` key it feeds; the kernels that add to it say so.
    """

    _open = contextvars.ContextVar("specexact_ledger", default=None)

    def __init__(self):
        self.counts = collections.defaultdict(collections.Counter)
        self.records = collections.defaultdict(list)

    def __enter__(self) -> "Ledger":
        self._token = Ledger._open.set(self)
        return self

    def __exit__(self, *exc) -> None:
        Ledger._open.reset(self._token)

    @classmethod
    def count(cls, kind: str, key: str, n: int = 1) -> None:
        """Add ``n`` to ``counts[kind][key]`` of the open ledger, if one is open."""
        ledger = cls._open.get()
        if ledger is not None:
            ledger.counts[kind][key] += n

    @classmethod
    def record(cls, kind: str, entry) -> None:
        """Append ``entry`` to ``records[kind]`` of the open ledger, if one is open."""
        ledger = cls._open.get()
        if ledger is not None:
            ledger.records[kind].append(entry)


def _stevd(d: np.ndarray, e: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, and eigenvectors if ``vectors``, of the real symmetric tridiagonal (d, e).

    ``dstevd``, the default driver of ``eigh_tridiagonal``, after that
    function's quick exit for order 1.  Without vectors it runs ``dsterf``.
    """
    if d.shape[0] == 1:
        return d.copy(), np.ones((1, 1))
    w, v, info = _flapack.dstevd(d, e, compute_v=int(vectors))
    _check_info(info, "dstevd")
    return w, v


def _nrm2(x: np.ndarray) -> float:
    """||x|| of a vector by BLAS ``dnrm2``/``dznrm2``: scaled, so it cannot overflow."""
    return (_fblas.dznrm2 if np.iscomplexobj(x) else _fblas.dnrm2)(x)


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and coerce to a float64/complex128 2-d array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim == 0 or arr.ndim > 2:
        raise DimensionError(f"matrix must be 2-d, got ndim={arr.ndim}")
    if arr.ndim == 1:
        raise DimensionError(f"matrix must be 2-d, got a vector of length {arr.shape[0]}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"matrix must have positive dimensions, got {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got {arr.shape}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"matrix has a non-finite entry at ({i + 1}, {j + 1})")
    return arr


#: eigenvalues per block of SymmetricTridiagonal.residuals: its n x block vectors bound the memory
_RESIDUAL_BLOCK = 64


class SymmetricTridiagonal:
    """A Hermitian tridiagonal A kept as the diagonals of a real symmetric T: O(n) storage.

    Built from A's diagonal and superdiagonal; ``d``, ``e`` are T's, A's own
    when A is real, (Re d, |e|) when it is complex: A = U T U^H for a diagonal
    unitary U.  Each method solves only for what its caller reads: all
    eigenvalues (``dstevd``, which runs ``dsterf``, once per object), Sturm
    counts (LAPACK's, with no bisection), or residuals at chosen eigenvalues
    (``dstein``).
    Every other query, the eigenvalues in an interval, the distance from a
    shift to the spectrum and the norm max |lambda| (:func:`op_norm`), reads
    one eigenvalue source, the memo of :meth:`eigenvalues_by_index`.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray):
        if np.iscomplexobj(d):
            d, e = d.real, np.abs(e)
        self.d, self.e = d.copy(), e.copy()
        #: all eigenvalues, read-only, once :meth:`eigenvalues` has computed them
        self._all: np.ndarray | None = None
        #: index -> the values one dstebz call returned for it (see eigenvalues_by_index);
        #: of order 1 the eigenvalue is d[0], as dstebz refuses an empty e
        self._by_index: dict[int, np.ndarray] = {0: self.d.copy()} if self.n == 1 else {}
        #: Gershgorin's bound, >= ||T||
        self._bound = float(np.abs(self.d).max() + 2.0 * np.abs(self.e).max(initial=0.0))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending, by ``dstevd`` without vectors (:func:`_stevd`).

        Computed once per object; every call returns the same read-only array.
        """
        if self._all is None:
            self._all = _stevd(self.d, self.e, vectors=False)[0]
            self._all.flags.writeable = False
        return self._all

    def eigenvalues_between(self, lo: float, hi: float) -> np.ndarray:
        """The eigenvalues in [lo, hi], ascending, and any within a small pad of it.

        The pad, 16 eps ||T|| + 4 pivmin (``dstebz``'s pivmin: the safe
        minimum times max(1, max e_j^2)), exceeds the error of bisection and
        of the Sturm count.  :meth:`sturm_count` at lo - pad and hi + pad
        gives the indices of the eigenvalues between, and
        :meth:`eigenvalues_by_index` bisects for each.  The values computed
        for an interval are then those computed for any interval that holds
        it.  Each costs O(n) per bisection step, so a wide interval can cost
        more than :meth:`eigenvalues`.
        """
        pivmin = np.finfo(float).tiny * max(1.0, float(np.square(self.e).max(initial=0.0)))
        pad = 16.0 * np.finfo(float).eps * self._bound + 4.0 * pivmin
        return self.eigenvalues_by_index(self.sturm_count(lo - pad), self.sturm_count(hi + pad))

    def eigenvalues_by_index(self, first: int, stop: int) -> np.ndarray:
        """The eigenvalues of indices first, ..., stop - 1 (from 0, ascending), ascending.

        Indices outside 0, ..., n - 1 are skipped.  ``dstebz`` bisects for
        each index in a call of its own, to the absolute tolerance 2 safmin
        (full relative accuracy, as LAPACK advises), so an eigenvalue's bits
        depend on T and its index alone: bisecting indices 0-3 of the
        m = 1600 oscillator section in one call moves indices 1-3 by 1-2
        ulps.  Each index is therefore bisected once per object, and a later
        call that asks for it again reads the value kept from the first.
        """
        abstol = 2.0 * np.finfo(float).tiny
        indices = range(max(first, 0), min(stop, self.n))
        for k in indices:
            if k not in self._by_index:
                m, w, _, _, info = _flapack.dstebz(self.d, self.e, 2, 0.0, 0.0, k + 1, k + 1, abstol, b"E")
                if info != 0:
                    raise ConvergenceError(f"bisection for eigenvalue {k} failed (info={info})")
                self._by_index[k] = w[:m].copy()
        found = [self._by_index[k] for k in indices]
        return np.sort(np.concatenate(found)) if found else np.zeros(0)

    def sturm_count(self, z: float) -> int:
        """Number of eigenvalues <= z: the nonpositive pivots of the LDL^T of T - z, counted by LAPACK.

        ``dstebz`` on (-c, z], c = 2 bound + 1 (bound, Gershgorin's, is at
        least ||T||), with a tolerance so large that it bisects nothing,
        returns the count alone; a pivot of magnitude at most pivmin counts
        as -pivmin.  A shift at or beyond +-c (+-inf too; LAPACK refuses
        z <= -c) and a T of order 1 are answered here.  NaN raises ValueError.
        """
        if np.isnan(z):
            raise ValueError(f"Sturm count at a shift that is not a number: {z}")
        if self.n == 1:
            return int(self.d[0] <= z)
        c = 2.0 * self._bound + 1.0
        if abs(z) >= c:
            return 0 if z < 0 else self.n
        m, _, _, _, info = _flapack.dstebz(self.d, self.e, 1, -c, z, 0, 0, np.finfo(float).max, b"B")
        _check_info(info, "dstebz")
        return int(m)

    def distance_to_spectrum(self, z: complex) -> float:
        """min |lambda - z| over the eigenvalues, which is sigma_min(T - z I) as T is normal.

        With k = :meth:`sturm_count` (Re z), the eigenvalues k - 1 and k (from 0)
        bracket Re z, so one of them is nearest to z.  Both come from the memo
        of :meth:`eigenvalues_by_index`, to full relative accuracy, so the
        distance is exactly 0.0 at a shift that is one of them.
        """
        k = self.sturm_count(z.real)
        return float(np.min(np.abs(self.eigenvalues_by_index(k - 1, k + 1) - z)))

    def vectors(self, lam: np.ndarray) -> np.ndarray:
        """The inverse-iteration vectors at the eigenvalues ``lam``, one column each, by LAPACK ``dstein``.

        ``dstein`` runs once per value, on all of T: one call
        reorthogonalizes its vectors within clusters of eigenvalues closer
        than 1e-3 ||T||, which costs O(n m^2) for m values, and a residual
        needs no orthogonality.  An exact zero off-diagonal splits T into
        blocks, but needs no block assignment: inverse iteration at an
        eigenvalue of one block still converges to an eigenvector of T, so a
        value is all dstein is given, whichever interval it was computed for.
        A vector that missed dstein's convergence test is kept: it still
        yields its residual.
        """
        n = self.n
        iblock = np.ones(n, dtype=np.int32)
        isplit = np.zeros(n, dtype=np.int32)
        isplit[0] = n
        vecs = np.empty((n, lam.size))
        for i in range(lam.size):
            vecs[:, i] = _flapack.dstein(self.d, self.e, lam[i : i + 1], iblock, isplit)[0][:, 0]
        return vecs

    def residuals(self, lam: np.ndarray) -> np.ndarray:
        """||T v - mu v|| / ||v|| for the inverse-iteration vector v at each eigenvalue mu in ``lam``.

        v comes from :meth:`vectors`.  The values go in blocks of
        ``_RESIDUAL_BLOCK``, so the vectors and their temporaries take O(n)
        memory, not O(n m) for m values.
        """
        out = np.empty(lam.size)
        for lo in range(0, lam.size, _RESIDUAL_BLOCK):
            block = lam[lo : lo + _RESIDUAL_BLOCK]
            vecs = self.vectors(block)
            tv = self.d[:, np.newaxis] * vecs
            tv[:-1] += self.e[:, np.newaxis] * vecs[1:]
            tv[1:] += self.e[:, np.newaxis] * vecs[:-1]
            out[lo : lo + block.size] = np.linalg.norm(tv - vecs * block, axis=0) / np.linalg.norm(vecs, axis=0)
        return out


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


def _declared_diagonals(declared: dict) -> dict:
    """A builder's ``{j - i: diagonal}`` as :class:`Section` keeps it (see there).

    The diagonals are checked stacked end to end, in one pass: the first, in
    the order declared, that has the wrong shape or a non-finite entry
    raises.  The stack serves the checks alone; a diagonal that already has
    the kept dtype is kept as the builder's array, not copied.
    """
    diags = {int(off): np.asarray(d) for off, d in declared.items()}
    n = np.size(diags.setdefault(0, np.zeros(0)))
    offsets = list(diags)
    shaped = [n > 0 and diags[off].shape == (n - abs(off),) for off in offsets]
    good = offsets[: shaped.index(False)] if not all(shaped) else offsets
    lengths = np.array([n - abs(off) for off in good], dtype=np.intp)
    ends = np.cumsum(lengths)
    flat = np.concatenate([diags[off] for off in good]) if good else np.zeros(0)
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite))
        k = int(np.searchsorted(ends, i, side="right"))
        off, t = good[k], i - int(ends[k] - lengths[k]) + 1
        raise DataError(f"matrix has a non-finite entry at ({t + max(-off, 0)}, {t + max(off, 0)})")
    if len(good) < len(offsets):
        off = offsets[len(good)]
        raise DimensionError(f"declared diagonal {off} has shape {diags[off].shape}, the order is {n}")
    real = not (np.iscomplexobj(flat) and np.any(flat.imag))
    # empty diagonals (|off| = n) left out, so each reduceat segment is one whole diagonal
    held = [off for off, length in zip(good, lengths) if length]
    hit = np.logical_or.reduceat(flat != 0, (ends - lengths)[lengths > 0])
    nonzero = [off for off, h in zip(held, hit) if h] + [0]
    keep = lambda d: np.asarray(np.real(d), dtype=float) if real else np.asarray(d, dtype=complex)
    return {off: keep(diags.get(off, np.zeros(n - abs(off)))) for off in range(min(nonzero), max(nonzero) + 1)}


#: Lanczos steps per banded or triangular sigma_min, each two solves against its
#: tridiagonal, banded or triangular factor; a point needing more falls back to dense SVD
_LANCZOS_STEPS = 64
#: the Ritz residual, relative to the Ritz value, that stops the Lanczos iteration
_LANCZOS_TOL = 1e-10
#: seed of the Lanczos start vector, a function of n alone (Section._lanczos_start)
_LANCZOS_SEED = 19990601
#: power steps of Factorization.inverse_norm_estimate, two solves each
_INVERSE_NORM_STEPS = 8


class Factorization:
    """An n x n matrix made ready for optional-adjoint solves, as :meth:`Section.factor` builds it.

    ``solve(b, adjoint)`` is the storage kind's LAPACK solve, bound to its
    factors: it returns the routine's ``(x, info)``, which :meth:`solve`
    checks.
    """

    def __init__(self, n: int, solve):
        self.n = n
        self._solve = solve

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        x, info = self._solve(b, adjoint)
        _check_info(info, "the solve")
        return x

    def inverse_norm_estimate(self) -> float:
        """Power-iteration lower estimate of ||A^{-1}||_2, from below: ``_INVERSE_NORM_STEPS`` steps of 2 solves.

        The contour guard of ``resolvent_analysis`` runs it only at a node
        whose upper bound on ||A^{-1}||_2 does not already clear the limit: a
        lower estimate cannot exceed a bound that passes.
        """
        x = np.ones(self.n, dtype=complex) / np.sqrt(self.n)
        est = 0.0
        for _ in range(_INVERSE_NORM_STEPS):
            w = self.solve(self.solve(x), adjoint=True)
            norm = _nrm2(w)  # scaled, and NaN or inf before any numpy operation reads w
            if not np.isfinite(norm) or norm == 0.0:
                return np.inf if not np.isfinite(norm) else 0.0
            # Rayleigh quotient of (A^-1 A^-H) at x equals <w, x>
            est = np.sqrt(abs(np.vdot(w, x)))
            x = w / norm
        return float(est)


class Section:
    """A square matrix A kept as its nonzero diagonals, with its structure, and A - z I over shifts z.

    ``diagonals`` maps each offset j - i from -kl to ku to its float64 or
    complex128 diagonal; ``n`` is the order.  The input is a square array
    (see :func:`as_matrix`), whose band one scan finds, or the diagonals a
    builder declares, ``{j - i: diagonal}`` with the main one included:
    checked for finite values, stored real when no imaginary part is
    nonzero, and trimmed of all-zero outer diagonals, so either input gives
    the same band widths and ``hermitian``.  ``real`` follows the stored
    dtype: a complex array whose imaginary parts are all zero gives False,
    its diagonals declared give True.  ``data``, the dense array, is the
    input array or is built by the dense routes alone (SVD, ``zgeev`` and
    ``eigh`` with eigenvectors, dense LU); :meth:`dense` gives a copy the
    Section does not keep.  :meth:`matvec` applies A from the diagonals;
    :attr:`inf_norm` is ||A||_inf, read from them.
    ``kl``, ``ku`` are the outermost nonzero sub- and superdiagonal; ``real``
    says A is real; ``hermitian``, A = A^H exactly: kl == ku and the kl + 1
    diagonal pairs inside the band conjugate.  ``tridiagonal`` holds the
    :class:`SymmetricTridiagonal` diagonals of a Hermitian tridiagonal A with
    n >= 2, else None.  ``banded``: stored banded for shifted solves (n >= 64
    with a narrow band); ``triangular``: upper triangular, n >= 64, not banded.

    The structure picks ``sigma_min_route``, the route of :meth:`sigma_min` (z),
    the smallest singular value of A - z I, at every z:

    - ``tridiagonal``: every shift of a Hermitian tridiagonal A, by the
      distance from z to the spectrum (A is normal), from a Sturm count at
      Re z and the section's bisection memo, its one eigenvalue source: exactly
      0.0 at a memo eigenvalue (:meth:`SymmetricTridiagonal.distance_to_spectrum`);
    - ``banded`` and ``triangular``: every shift of a section stored so, by
      Lanczos on (z I - A)^-H (z I - A)^-1 with the solves of :meth:`factor`;
    - ``dense``: everything else, by SVD of the dense A - z I.

    :meth:`factor` (z) gives z I - A, factored in the storage kind the
    structure picks (tridiagonal, banded, triangular or dense).  ``data``,
    the negated off-diagonals, the band template and the triangular matrix
    (-A's parts or -A, stored for those kinds and built from the diagonals),
    the Lanczos start vector, :attr:`norm` and :attr:`inf_norm` are built on
    first use.  ``kronecker`` is the builder's :class:`Kronecker`
    declaration, given here, or None.  Instances are read-only apart from
    the triangular matrix's diagonal, which each triangular factor writes.
    """

    def __init__(self, m, kronecker=None):
        if isinstance(m, dict):
            diagonals = _declared_diagonals(m)
        else:
            a = self.data = as_matrix(m, square=True)
            kl, ku = _band_widths(a)
            diagonals = {off: a.diagonal(off) for off in range(-kl, ku + 1)}
        self.diagonals = diagonals
        self.n = n = diagonals[0].shape[0]
        self.kl, self.ku = kl, ku = -min(diagonals), max(diagonals)
        self.real = not np.iscomplexobj(diagonals[0])
        self.hermitian = kl == ku and all(
            np.array_equal(diagonals[-k], diagonals[k].conj()) for k in range(kl + 1)
        )
        self.tridiagonal = None
        self.kronecker = kronecker
        if self.hermitian and n >= 2 and kl <= 1:
            self.tridiagonal = SymmetricTridiagonal(diagonals[0], diagonals.get(1, np.zeros(n - 1)))
        # banded storage only pays off when the band is genuinely narrow
        self.banded = n >= 64 and (kl + ku + 1) <= max(4, n // 8)
        self.triangular = n >= 64 and kl == 0 and not self.banded
        self.sigma_min_route = (
            "tridiagonal" if self.tridiagonal is not None
            else "banded" if self.banded
            else "triangular" if self.triangular
            else "dense"
        )

    @classmethod
    def of(cls, m) -> "Section":
        """``m`` itself when it is a Section, else a new Section of ``m``."""
        return m if isinstance(m, cls) else cls(m)

    def __array__(self, dtype=None, copy=None):
        """``data``, so numpy reads a Section as its matrix."""
        return self.data if dtype is None and not copy else np.array(self.data, dtype=dtype)

    @cached_property
    def data(self) -> np.ndarray:
        """The dense n x n array, kept once built (:meth:`dense`)."""
        return self.dense()

    def dense(self) -> np.ndarray:
        """A new dense n x n array, placed from the diagonals."""
        a = np.zeros((self.n, self.n), dtype=self.diagonals[0].dtype)
        for off, d in self.diagonals.items():
            np.fill_diagonal(a[max(-off, 0) :, max(off, 0) :], d)
        return a

    @cached_property
    def norm(self) -> float:
        """The spectral norm ||A||, by :func:`op_norm`."""
        return op_norm(self)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x from the diagonals, O(n (kl + ku + 1)) per column; x is a vector or an n x k block of columns."""
        rows = (slice(None),) + (np.newaxis,) * (x.ndim - 1)  # a diagonal scales the rows of each column
        y = self.diagonals[0][rows] * x
        for off, d in self.diagonals.items():
            if off > 0:
                y[: self.n - off] += d[rows] * x[off:]
            elif off < 0:
                y[-off:] += d[rows] * x[: self.n + off]
        return y

    def inverse_iteration_residual(self, lam: complex) -> float:
        """||A x - lam x|| for the unit x of two inverse-iteration steps at the eigenvalue lam.

        The steps solve against :meth:`factor` (lam) from the fixed-seed
        Lanczos start vector, as LAPACK's ``xSTEIN``/``xHSEIN`` do.  An exact
        zero pivot (lam is exact) moves the shift to lam + eps ||A||_inf,
        the row-sum norm read from the diagonals.  A solve that overflows
        (lam I - A is singular to the range of floating point, as at a
        Jordan block) ends the iteration, and the residual is then
        :meth:`sigma_min` (lam), the least residual any unit vector has.
        """
        fact = self._factor_near(lam)
        x = self._lanczos_start
        for _ in range(2):
            x = fact.solve(x)
            norm = _nrm2(x)
            if not np.isfinite(norm):
                return self.sigma_min(lam)
            x = x / norm
        return float(np.linalg.norm(self.matvec(x) - lam * x))

    def _factor_near(self, lam: complex) -> Factorization:
        """:meth:`factor` (lam), or at lam + eps ||A||_inf when lam is exact (a zero pivot)."""
        try:
            return self.factor(lam)
        except np.linalg.LinAlgError:
            return self.factor(lam + np.finfo(float).eps * self.inf_norm)

    def refined_eigenvalue(self, lam: complex, steps: int) -> tuple[complex, float]:
        """``lam`` moved onto a nearby eigenvalue mu by two-sided Rayleigh-quotient iteration, and its residual.

        Each step solves (mu I - A) x = x and (mu I - A)^H y = y against
        :meth:`factor` (mu), from the fixed-seed Lanczos start, and sets mu to
        the two-sided Rayleigh quotient y^H A x / y^H x, which converges
        cubically to a simple eigenvalue whether or not A is normal.  An
        exact zero pivot moves the shift as :meth:`inverse_iteration_residual`
        does.  An overflowing solve (mu is an eigenvalue to working
        precision) or a quotient that is not finite ends the iteration early.
        The residual is ||A x - mu x|| for the last unit x: mu is an exact
        eigenvalue of A - (A x - mu x) x^H.  It is inf when no step completed.
        """
        mu, residual = complex(lam), np.inf
        x = y = self._lanczos_start
        for _ in range(steps):
            fact = self._factor_near(mu)
            x, y = fact.solve(x), fact.solve(y, adjoint=True)
            norms = _nrm2(x), _nrm2(y)
            if not np.all(np.isfinite(norms)):
                break
            x, y = x / norms[0], y / norms[1]
            ax = self.matvec(x)
            quotient = complex(np.vdot(y, ax) / np.vdot(y, x))
            if not np.isfinite(quotient):
                break
            mu, residual = quotient, float(np.linalg.norm(ax - quotient * x))
        return mu, residual

    @cached_property
    def inf_norm(self) -> float:
        """||A||_inf, the largest absolute row sum, read from the diagonals."""
        rows = np.zeros(self.n)
        for off, d in self.diagonals.items():
            rows[max(-off, 0) : max(-off, 0) + d.shape[0]] += np.abs(d)
        return float(rows.max())

    @cached_property
    def _negated_off_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """(-A's subdiagonal, -A's superdiagonal), complex: ``zgttrf``'s dl and du for every shift.

        Zeros stand for an off-diagonal a bidiagonal or diagonal section does
        not hold.  ``zgttrf`` copies its inputs, so these are never written.
        """
        zeros = np.zeros(self.n - 1)
        return tuple(-np.asarray(self.diagonals.get(off, zeros), dtype=complex) for off in (-1, 1))

    @cached_property
    def _band_template(self) -> np.ndarray:
        """-A in ``gbtrf`` band layout: entry (i, j) at row kl + ku + i - j."""
        kl, ku = self.kl, self.ku
        ab0 = np.zeros((2 * kl + ku + 1, self.n), dtype=complex)
        for off, d in self.diagonals.items():
            ab0[kl + ku - off, max(off, 0) : max(off, 0) + d.shape[0]] = -d
        return ab0

    @cached_property
    def _triangular_matrix(self) -> np.ndarray:
        """-A of the triangular route, complex and in Fortran order: one matrix for every shift.

        Placed from the diagonals (all of offset >= 0) and negated in place,
        so no other n x n array is built.  Its diagonal holds the z - a_ii of
        whichever factor solved last (see :meth:`factor`); no other
        entry is ever written.
        """
        t = np.zeros((self.n, self.n), dtype=complex, order="F")
        for off, d in self.diagonals.items():
            np.fill_diagonal(t[:, off:], d)
        return np.negative(t, out=t)

    @cached_property
    def _lanczos_start(self) -> np.ndarray:
        """Fixed-seed unit complex Gaussian vector; a function of n only.

        A symmetric start such as ``ones`` is orthogonal to every odd singular
        vector of a persymmetric section and can miss sigma_min entirely.
        """
        g = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, self.n))
        v = g[0] + 1j * g[1]
        return v / np.linalg.norm(v)

    def factor(self, z: complex) -> Factorization:
        """z I - A, factored in one of four storage kinds, with that kind's solve bound to it.

        - tridiagonal, a section stored banded with kl <= 1 and ku <= 1: the
          complex LU (``zgttrf``) of z - a_ii and the cached negated
          off-diagonals, which ``zgttrf`` copies; no band template is built;
        - banded, a wider stored band: ``gbtrf`` on a copy of the band template;
        - triangular: the section's one shared -A, complex and in Fortran
          order, plus this shift's diagonal z - a_ii, O(n) of its own; each
          solve writes that diagonal into the shared matrix, then runs ``trtrs``;
        - dense, everything else: ``getrf`` of :meth:`_shifted_dense`.

        Raises ``LinAlgError`` when the factorization meets an exact zero
        pivot; for a triangular section, an exact zero on the diagonal.
        """
        n, kl, ku = self.n, self.kl, self.ku
        trans = lambda adjoint: 2 if adjoint else 0
        if self.banded and kl <= 1 and ku <= 1:
            dl, du = self._negated_off_diagonals
            *lu, info = _flapack.zgttrf(dl, z - self.diagonals[0], du)
            _check_info(info, "the tridiagonal LU")
            # lu: dl, d, du, du2, ipiv, the arguments of zgttrs before b
            return Factorization(n, lambda b, adjoint: _flapack.zgttrs(*lu, b, trans=b"C" if adjoint else b"N"))
        if self.banded:
            ab = self._band_template.copy()
            ab[kl + ku, :] += z
            lu, ipiv, info = _lapack("gbtrf", ab)(ab, kl, ku)
            if info < 0:
                raise ValueError(f"illegal argument {-info} passed to the banded LU")
            if info > 0:
                raise np.linalg.LinAlgError(f"banded LU failed with info={info}")
            gbtrs = _lapack("gbtrs", lu)
            return Factorization(n, lambda b, adjoint: gbtrs(lu, kl, ku, b, ipiv, trans=trans(adjoint)))
        if self.triangular:
            t, diagonal = self._triangular_matrix, z - self.diagonals[0]
            if not np.all(diagonal):
                raise np.linalg.LinAlgError("exact zero on the triangular diagonal")
            # a view, so writing it writes the shared matrix; a matrix not in Fortran order raises
            # here, where the wrapper would copy it on every solve
            slot = np.reshape(t, -1, order="F", copy=False)[:: n + 1]
            trtrs = _lapack("trtrs", t)

            def solve(b, adjoint):
                slot[...] = diagonal
                return trtrs(t, b, trans=trans(adjoint))

            return Factorization(n, solve)
        # getrf as lu_factor calls it; a zero pivot is refused here, not warned about
        dense = self._shifted_dense(z)
        lu, piv, info = _lapack("getrf", dense)(dense)
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to the LU")
        if np.abs(np.diag(lu)).min() == 0.0:
            raise np.linalg.LinAlgError("exact zero pivot")
        # getrs of the type lu_solve picks: a real LU meets a complex b as complex
        return Factorization(n, lambda b, adjoint: _lapack("getrs", lu, b)(lu, piv, b, trans=trans(adjoint)))

    def _shifted_dense(self, z: complex) -> np.ndarray:
        """z I - A as a new dense array: one copy of ``data``, negated, with its diagonal shifted.

        Its singular values are those of A - z I, which the SVD fallback of
        :meth:`sigma_min` takes.
        """
        a = np.negative(self.data, dtype=np.result_type(self.data, z))
        np.fill_diagonal(a, z - self.data.diagonal())
        return a

    def sigma_min(self, z: complex) -> float:
        """Smallest singular value of A - z I; exactly 0.0 when it is exactly singular.

        On the banded and triangular routes an exact zero pivot of the LU, or
        an exact zero on the diagonal of z I - A, gives 0.0, and a Lanczos run
        that hits its step cap or a non-finite value is redone by dense SVD
        (and counted in the open :class:`Ledger`'s ``dense_fallbacks``).
        Their relative accuracy is the stopping tolerance 1e-10 on top of the
        conditioning of the solves.
        """
        z = complex(z)
        route = self.sigma_min_route
        if route == "tridiagonal":
            return self.tridiagonal.distance_to_spectrum(z)
        if route != "dense":
            try:
                fact = self.factor(z)
            except np.linalg.LinAlgError:
                return 0.0
            theta = self._largest_inverse_eigenvalue(fact)
            if theta is not None:
                return float(1.0 / np.sqrt(theta))
            Ledger.count("dense_fallbacks", route)
        shift = z.real if self.real and z.imag == 0.0 else z
        return float(np.linalg.svd(self._shifted_dense(shift), compute_uv=False)[-1])

    def _largest_inverse_eigenvalue(self, fact: Factorization) -> float | None:
        """theta_max = 1 / sigma_min^2 of (z I - A)^-H (z I - A)^-1 by Lanczos.

        Full reorthogonalisation (classical Gram-Schmidt, applied twice) keeps
        the basis orthonormal; the run stops once the Ritz residual
        beta_k |e_k^T s| is at most ``_LANCZOS_TOL`` theta.  None when the
        step cap is reached first or a non-finite number appears.  The basis
        is kept as Fortran-ordered columns V, so each pass, w -= V (V^H w),
        is two BLAS ``zgemv`` calls with no temporary beyond V^H w; w is
        tested by its norm (:func:`_nrm2`, which propagates NaN and inf) before any
        numpy operation reads it, so an overflowing solve warns of nothing.
        Each step run is counted in the open :class:`Ledger`'s
        ``lanczos_steps`` under the section's route.
        """
        steps = min(self.n, _LANCZOS_STEPS)
        basis = np.empty((self.n, steps), dtype=complex, order="F")
        alpha, beta = np.empty(steps), np.empty(steps)
        v = self._lanczos_start
        for k in range(steps):
            Ledger.count("lanczos_steps", self.sigma_min_route)
            basis[:, k] = v
            w = fact.solve(fact.solve(v), adjoint=True)
            if not np.isfinite(_nrm2(w)):
                return None
            alpha[k] = np.vdot(v, w).real
            done = basis[:, : k + 1]
            for _ in range(2):
                w = _fblas.zgemv(-1.0, done, _fblas.zgemv(1.0, done, w, trans=2), beta=1.0, y=w, overwrite_y=1)
            beta[k] = _nrm2(w)
            ritz, vecs = _stevd(alpha[: k + 1], beta[:k], vectors=True)
            theta = ritz[-1]
            if not (np.isfinite(theta) and theta > 0.0):
                return None
            if beta[k] * abs(vecs[-1, -1]) <= _LANCZOS_TOL * theta:
                return float(theta)
            v = w / beta[k]
        return None


@dataclass(frozen=True, eq=False)
class Kronecker:
    """A builder's declaration that a Section of order pK is kron(T, K1) + kron(I, K0), p = 1 or 2.

    T, ``base``, is one Hermitian tridiagonal Section of order K
    (``base.tridiagonal`` is set); ``k1`` and ``k0`` are p x p complex
    matrices, and unknown pi + c is component c at node i (at p = 1 the
    Section is K1 T + K0 I).  With T phi = theta phi, the Section maps
    phi (x) w to phi (x) (K1 theta + K0) w, so each eigenpair (lam, w) of
    K1 theta + K0 over T's eigenvalues theta is one (lam, phi (x) w) of it.
    """

    base: Section
    k1: np.ndarray
    k0: np.ndarray

    @property
    def p(self) -> int:
        return self.k1.shape[0]

    def blocks(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """The entries of K1 theta + K0 row by row, one array over theta each: (a,) or (a, b, c, d)."""
        return tuple(self.k1[i, j] * theta + self.k0[i, j] for i in range(self.p) for j in range(self.p))

    def eigenvalues(self, hermitian: bool) -> np.ndarray:
        """The p eigenvalues of each K1 theta + K0, in closed form: a, or mean -+ sqrt(half^2 + b c).

        theta runs over T's eigenvalues, ascending (``dstevd``, kept by T's
        :class:`SymmetricTridiagonal`), and row k holds those of the k-th;
        mean and half are (a + d) / 2 and (a - d) / 2.  A ``hermitian``
        Section has Hermitian blocks, whose eigenvalues are real: there a is
        taken real, and the root is hypot(half, |b|), as c is b's conjugate.
        """
        a, *bcd = self.blocks(self.base.tridiagonal.eigenvalues())
        if self.p == 1:
            return (a.real if hermitian else a)[:, np.newaxis].astype(np.complex128)
        b, c, d = bcd
        mean, half = (a + d) / 2.0, (a - d) / 2.0
        if hermitian:
            mean, root = mean.real, np.hypot(half.real, np.abs(b))
        else:
            root = np.sqrt(half * half + b * c)
        return np.stack([mean - root, mean + root], axis=1).astype(np.complex128)

    def residuals(self, section: Section, lam: np.ndarray, index: np.ndarray) -> np.ndarray:
        """||A v - lam v|| / ||v|| for each eigenvalue lam of K1 theta + K0, v = phi (x) w.

        theta is T's eigenvalue of the same position in ``index`` (row k of
        :meth:`eigenvalues`), phi is T's inverse-iteration vector at theta
        (:meth:`SymmetricTridiagonal.vectors`) and w the null vector of
        K1 theta + K0 - lam, 1 at p = 1, else orthogonal to its larger row
        ((1, 0) when both rows are zero: the block is lam I); A v is
        :meth:`Section.matvec` of ``section``, the Section declared, in
        blocks of ``_RESIDUAL_BLOCK`` as in :meth:`SymmetricTridiagonal.residuals`.
        """
        theta = self.base.tridiagonal.eigenvalues()[index]
        if self.p == 1:
            w = np.ones((1, lam.size))
        else:
            a, b, c, d = self.blocks(theta)
            first = np.stack([b, lam - a])  # orthogonal to the row (a - lam, b)
            second = np.stack([lam - d, c])  # orthogonal to the row (c, d - lam)
            norms = np.linalg.norm(first, axis=0), np.linalg.norm(second, axis=0)
            w = np.where(norms[0] >= norms[1], first, second)  # column j is the 2-vector of lam[j]
            w[:, np.maximum(*norms) == 0.0] = [[1.0], [0.0]]
        out = np.empty(lam.size)
        for lo in range(0, lam.size, _RESIDUAL_BLOCK):
            block = slice(lo, lo + _RESIDUAL_BLOCK)
            phi = self.base.tridiagonal.vectors(theta[block])
            # column j: phi_j (x) w_j, interleaved as the Section's unknowns
            v = (phi[:, np.newaxis, :] * w[np.newaxis, :, block]).reshape(section.n, -1)
            r = section.matvec(v) - v * lam[block]
            out[block] = np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0)
        return out


#: spectrum routes: the six of eig_dense, ``bisection`` for a Hermitian tridiagonal
#: section asked with a window and one per structure otherwise, and ``windowed``
#: (``resolvent_analysis.windowed_spectrum``, the eigenvalues inside one circle)
EIG_ROUTES = ("tridiagonal", "bisection", "kronecker", "banded", "windowed", "hermitian", "general")


@dataclass(eq=False)
class EigenDecomposition:
    """Spectrum of one :class:`Section`, with residuals on demand.

    ``eigenvalues`` is sorted lexicographically by (Re, Im) and counted with
    algebraic multiplicity; ``route`` names the solver (one of
    ``EIG_ROUTES``); ``section`` is the Section solved.  ``window`` is None
    when ``eigenvalues`` is the whole spectrum.  Otherwise ``eigenvalues`` is
    complete inside the rectangle ``window`` (re0, re1, im0, im1) and may hold
    eigenvalues outside it: on the ``windowed`` route ``window`` is the
    rectangle asked for, and ``eigenvalues`` holds every eigenvalue inside a
    circle around it; on the ``bisection`` route ``window`` is the real
    interval asked for with an unbounded imaginary extent, as the spectrum
    is real.  The residual of an
    eigenvalue lam is ||A v - lam v|| / ||v|| for a vector v computed for
    it.  On the dense ``hermitian`` and ``general`` routes v is the computed
    eigenvector and every residual is computed with the eigenvalues, into
    ``all_residuals``; the eigenvectors are then dropped.  On the
    ``tridiagonal``, ``bisection``, ``kronecker``, ``banded`` and
    ``windowed`` routes no eigenvector is computed, and :meth:`residuals_at`
    computes the residuals of the requested eigenvalues only, each time it
    is asked.  On the ``kronecker`` route ``theta_index`` holds, for each
    eigenvalue, the index of the eigenvalue theta of the declared T whose
    p x p block it comes from (:class:`Kronecker`).  Each residual computed,
    here or by :func:`eig_dense`, is counted by route in the open
    :class:`Ledger`'s ``residuals_computed``.
    """

    eigenvalues: np.ndarray
    route: str
    section: Section = field(repr=False)
    all_residuals: np.ndarray | None = field(default=None, repr=False)
    window: tuple | None = None
    theta_index: np.ndarray | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def residuals_at(self, rows) -> np.ndarray:
        """Residuals of ``eigenvalues[rows]``, in the order of ``rows``.

        On the routes without eigenvectors, v is ``dstein``'s vector at the
        eigenvalue (:meth:`SymmetricTridiagonal.residuals`), ``dstein``'s
        vector of T at theta times the p x p block's eigenvector
        (``kronecker``: :meth:`Kronecker.residuals`, through
        :meth:`Section.matvec`), or from two steps of inverse iteration
        (:meth:`Section.inverse_iteration_residual`).
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self.all_residuals is not None:
            return self.all_residuals[rows]
        Ledger.count("residuals_computed", self.route, rows.size)
        if self.route == "kronecker":
            return self.section.kronecker.residuals(self.section, self.eigenvalues[rows], self.theta_index[rows])
        if self.section.tridiagonal is not None:
            return self.section.tridiagonal.residuals(self.eigenvalues.real[rows])
        return np.array([self.section.inverse_iteration_residual(lam) for lam in self.eigenvalues[rows]])

    @property
    def residuals(self) -> np.ndarray:
        """Every residual, in eigenvalue order."""
        return self.residuals_at(np.arange(self.dimension))


def _zgeev(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a dense a by complex QR iteration, with right eigenvectors if ``vectors``."""
    w, _, v, info = _flapack.zgeev(a.astype(np.complex128, copy=False), compute_vl=0, compute_vr=int(vectors))
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to the eigensolver")
    if info > 0:
        raise ConvergenceError(
            f"QR iteration failed to converge; eigenvalues {info + 1}..{a.shape[0]} "
            "converged, earlier ones did not",
            stuck_index=int(info),
        )
    return w, v


def eig_dense(m, window=None) -> EigenDecomposition:
    """Eigenvalues of a :class:`Section`, with residuals (see :class:`EigenDecomposition`).

    ``m`` is a Section, or an array read as one; ``window`` is None or a
    rectangle (re0, re1, im0, im1), corners in any order.  A section a
    builder declares as kron(T, K1) + kron(I, K0) takes one route whatever
    the window:

    - ``kronecker``: the p eigenvalues of each p x p K1 theta + K0 in
      closed form (:meth:`Kronecker.eigenvalues`; real on a Hermitian
      section), over the eigenvalues theta of T (``dstevd``, kept by T's
      :class:`SymmetricTridiagonal`), sorted by (Re, Im).  No band
      eigensolver runs, and no dense array is built.

    Of the others, only a Hermitian tridiagonal section reads the window:

    - ``bisection``: a Hermitian tridiagonal section, in either dtype, asked
      with a window: the eigenvalues whose real part lies in [re0, re1]
      (:meth:`SymmetricTridiagonal.eigenvalues_between`), with ``window``
      (re0, re1, -inf, inf).  Their bits do not depend on the window.

    Every other request gets the whole spectrum, one route per structure:

    - ``tridiagonal``: Hermitian tridiagonal sections, in either dtype,
      by ``dstevd`` without vectors (which runs ``dsterf``), or ``dstebz``
      per index with a window;
    - ``banded``: every other section stored banded, Hermitian ones by
      ``dsbevd``/``zhbevd`` on the diagonals (no dense array is built), the
      rest by ``zgeev`` without eigenvectors on a dense copy the Section
      does not keep;
    - ``hermitian``: other Hermitian sections, by ``eigh`` with eigenvectors;
    - ``general``: everything else, by ``zgeev`` with eigenvectors.

    ``hermitian`` and ``general`` compute every residual here, the other
    routes on demand.  Raises :class:`ConvergenceError` naming the stuck index if QR
    iteration or bisection fails.
    """
    sec = Section.of(m)
    if sec.kronecker is not None:
        w = sec.kronecker.eigenvalues(sec.hermitian).ravel()
        order = np.lexsort((w.imag, w.real))
        return EigenDecomposition(w[order], "kronecker", sec, theta_index=order // sec.kronecker.p)
    if sec.tridiagonal is not None:
        if window is not None:
            re0, re1 = sorted(float(v) for v in window[:2])
            w = sec.tridiagonal.eigenvalues_between(re0, re1).astype(np.complex128)
            return EigenDecomposition(w, "bisection", sec, window=(re0, re1, -np.inf, np.inf))
        w = sec.tridiagonal.eigenvalues().astype(np.complex128)  # ascending, hence (Re, Im) order
        return EigenDecomposition(eigenvalues=w, route="tridiagonal", section=sec)
    if sec.banded:
        if sec.hermitian:
            # upper band storage: row ku - k holds diagonal k from column k on
            ab = np.zeros((sec.ku + 1, sec.n), dtype=sec.diagonals[0].dtype)
            for k in range(sec.ku + 1):
                ab[sec.ku - k, k:] = sec.diagonals[k]
            # as eigvals_banded calls it: no vectors, upper storage, ab overwritten
            bevd = _flapack.zhbevd if np.iscomplexobj(ab) else _flapack.dsbevd
            w, _, info = bevd(ab, compute_v=0, lower=0, overwrite_ab=1)
            _check_info(info, "the banded eigensolver")
            w = w.astype(np.complex128)
        else:
            w, _ = _zgeev(sec.dense(), vectors=False)  # a temporary: the Section keeps its band
            w = w[np.lexsort((w.imag, w.real))]
        return EigenDecomposition(eigenvalues=w, route="banded", section=sec)
    a = sec.data
    if sec.hermitian:
        route = "hermitian"
        w, v = np.linalg.eigh(a)
        w = w.astype(np.complex128)
    else:
        route = "general"
        w, v = _zgeev(a, vectors=True)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    resid = np.linalg.norm(a @ v - v * w[np.newaxis, :], axis=0) / np.linalg.norm(v, axis=0)
    Ledger.count("residuals_computed", route, w.size)
    return EigenDecomposition(eigenvalues=w, route=route, section=sec, all_residuals=resid)


def op_norm(m) -> float:
    """Largest singular value (spectral norm); rectangular inputs allowed.

    Structure is read only from a :class:`Section`: a Hermitian tridiagonal
    one, in either dtype, is normal, so its norm is max(|lambda_0|, |lambda_{n-1}|),
    from its bisection memo.  An array goes straight to the SVD, with no band scan.
    """
    sec = m if isinstance(m, Section) else None
    if sec is not None and sec.tridiagonal is not None:
        tri = sec.tridiagonal
        ends = np.concatenate([tri.eigenvalues_by_index(0, 1), tri.eigenvalues_by_index(tri.n - 1, tri.n)])
        return float(np.abs(ends).max())
    a = sec.data if sec is not None else as_matrix(m)
    if not np.any(a):
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])
