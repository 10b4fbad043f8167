"""Resolvent norms, pseudospectra grids, region-of-boundedness probes, contour ranks.

Verdicts produced here are *evidence*, never proofs: the region of
boundedness is an asymptotic notion and a finite ladder can only exhibit
trends.  The thresholds that define the evidence standard are keyword
arguments with the documented defaults.
"""

from __future__ import annotations

import enum
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import numerics, operator_model
from .errors import ContourError, ResolutionError

#: contour-projection singular values are split at this threshold ...
RANK_THRESHOLD = 0.5
#: ... and the kept/dropped ratio must be at least this factor
GAP_FACTOR = 10.0
#: default number of trapezoid points on a circle
DEFAULT_QUADRATURE = 64

_PRECONDITION_RESNORM = 1e8  # scaled by 1/radius in contour_rank


class ProbeVerdict(str, enum.Enum):
    BOUNDED = "BoundedEvidence"
    UNBOUNDED = "UnboundedEvidence"
    INCONCLUSIVE = "Inconclusive"


@dataclass(eq=False)
class SectionCache:
    """Sections, spectra, norms and shifted-operator families, keyed by size.

    ``sections`` holds :class:`numerics.Section` objects (the provider's own
    when it returns one, as every section builder does), so a section is
    validated and its structure detected once, and its spectrum, norm and
    shift family all read that one structure.  One cache serves every
    :class:`SectionLadder` built on the same pure provider, so a section or
    spectrum computed for one ladder is reused by the next.
    ``spectrum_hits`` and ``spectrum_misses`` count the
    :meth:`SectionLadder.spectrum` calls it answered from memory and by an
    eigensolve, and ``eig_routes`` counts those eigensolves per
    ``numerics.eig_dense`` route.  :meth:`clear` drops the stored data and
    keeps these counts.
    """

    sections: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    spectrum_hits: int = 0
    spectrum_misses: int = 0
    eig_routes: Counter = field(default_factory=Counter)

    @property
    def residuals_computed(self) -> int:
        """Residuals computed so far by the spectra the cache holds."""
        return sum(dec.residuals_computed for dec in self.spectra.values())

    def clear(self) -> None:
        for store in (self.sections, self.spectra, self.norms, self.families):
            store.clear()


@dataclass(eq=False)
class SectionLadder:
    """A truncation family: strictly increasing sizes plus a section provider.

    Sections, their spectra, norms and shifted-operator families live in
    ``cache``, keyed by size; providers must be pure.  Ladders that pass the
    same provider may share one :class:`SectionCache`, whatever their sizes
    and labels; by default each ladder has its own.
    """

    label: str
    sizes: tuple
    provider: Callable = field(repr=False)
    cache: SectionCache = field(default_factory=SectionCache, repr=False)

    def __post_init__(self):
        self.sizes = tuple(self.sizes)
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("ladder sizes must be strictly increasing")

    def matrix(self, size) -> numerics.Section:
        sections = self.cache.sections
        if size not in sections:
            sections[size] = numerics.Section.of(self.provider(size))
        return sections[size]

    def spectrum(self, size) -> numerics.EigenDecomposition:
        spectra = self.cache.spectra
        if size in spectra:
            self.cache.spectrum_hits += 1
        else:
            self.cache.spectrum_misses += 1
            spectra[size] = numerics.eig_dense(self.matrix(size))
            self.cache.eig_routes[spectra[size].route] += 1
        return spectra[size]

    def family(self, size) -> "_ShiftFamily":
        """The shifted-operator family of the section at ``size``."""
        families = self.cache.families
        if size not in families:
            families[size] = _ShiftFamily(self.matrix(size))
        return families[size]

    def norm(self, size) -> float:
        norms = self.cache.norms
        if size not in norms:
            norms[size] = numerics.op_norm(self.matrix(size))
        return norms[size]

    def conjugated(self) -> "SectionLadder":
        """Ladder of conjugate transposes (the discrete adjoint family)."""
        return SectionLadder(
            label=f"{self.label}*",
            sizes=self.sizes,
            provider=lambda s: self.matrix(s).data.conj().T,
        )


def galerkin_ladder(spec, sizes) -> SectionLadder:
    """Ladder of leading principal sections of an operator spec."""
    return SectionLadder(
        label=spec.name, sizes=tuple(sizes), provider=lambda k: operator_model.truncate(spec, k)
    )


# -------------------------------- shifted operator --------------------------------

#: Lanczos steps per banded or triangular sigma_min; a point needing more falls back to dense SVD
_LANCZOS_STEPS = 64
#: the Ritz residual, relative to the Ritz value, that stops the Lanczos iteration
_LANCZOS_TOL = 1e-10
_LANCZOS_SEED = 19990601


def _lanczos_start(n: int) -> np.ndarray:
    """Fixed-seed unit complex Gaussian vector; a function of n only.

    A symmetric start such as ``ones`` is orthogonal to every odd singular
    vector of a persymmetric section and can miss sigma_min entirely.
    """
    g = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, n))
    v = g[0] + 1j * g[1]
    return v / np.linalg.norm(v)


class _Factorization:
    """One matrix made ready for optional-adjoint solves, in one of three storage kinds.

    LU in LAPACK band storage (``ab``), dense LU (``dense``), or an upper
    triangular matrix in Fortran order (``triangular``) that ``trtrs`` solves
    as it stands.  Raises ``LinAlgError`` when the factorization meets an
    exact zero pivot; for a triangular matrix, an exact zero on its diagonal.
    """

    def __init__(self, n: int, kl: int = 0, ku: int = 0, ab=None, dense=None, triangular=None):
        self.n = n
        self.banded = ab is not None
        self._triangular = triangular
        if triangular is not None:
            if not np.all(np.diagonal(triangular)):
                raise scipy.linalg.LinAlgError("exact zero on the triangular diagonal")
            # a C-ordered matrix would be copied by the wrapper on every solve
            self._trtrs = lapack.get_lapack_funcs("trtrs", (triangular,))
        elif self.banded:
            self.kl, self.ku = kl, ku
            gbtrf = lapack.get_lapack_funcs("gbtrf", (ab,))
            lu, ipiv, info = gbtrf(ab, kl, ku)
            if info < 0:
                raise ValueError(f"illegal argument {-info} passed to the banded LU")
            if info > 0:
                raise scipy.linalg.LinAlgError(f"banded LU failed with info={info}")
            self._lu, self._ipiv = lu, ipiv
            self._gbtrs = lapack.get_lapack_funcs("gbtrs", (lu,))
        else:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self._lu, self._piv = scipy.linalg.lu_factor(dense, check_finite=False)
            if np.abs(np.diag(self._lu)).min() == 0.0:
                raise scipy.linalg.LinAlgError("exact zero pivot")

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        if self._triangular is not None:
            x, info = self._trtrs(self._triangular, b, trans=2 if adjoint else 0)
            if info != 0:
                raise scipy.linalg.LinAlgError(f"triangular solve failed with info={info}")
            return x
        if self.banded:
            x, info = self._gbtrs(
                self._lu, self.kl, self.ku, b, self._ipiv, trans=2 if adjoint else 0
            )
            if info != 0:
                raise scipy.linalg.LinAlgError(f"banded solve failed with info={info}")
            return x
        return scipy.linalg.lu_solve(
            (self._lu, self._piv), b, trans=2 if adjoint else 0, check_finite=False
        )

    def inverse_norm_estimate(self, iterations: int = 8) -> float:
        """Power-iteration lower estimate of ||A^{-1}||_2 (converging from below)."""
        x = np.ones(self.n, dtype=complex) / np.sqrt(self.n)
        est = 0.0
        for _ in range(iterations):
            y = self.solve(x)
            w = self.solve(y, adjoint=True)
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm == 0.0:
                return np.inf if not np.isfinite(norm) else 0.0
            # Rayleigh quotient of (A^-1 A^-H) at x equals <w, x>
            est = np.sqrt(abs(np.vdot(w, x)))
            x = w / norm
        return float(est)


class _ShiftFamily:
    """The shifted operator z I - A over many shifts z: factorization and sigma_min.

    A is a :class:`numerics.Section` (an array is read as one), and its
    structure picks the route of :meth:`sigma_min`:

    - ``tridiagonal``: real symmetric tridiagonal A and real z, by the
      distance from z to the spectrum: a Sturm count of A - z on A's
      diagonals, then bisection for the one or two eigenvalues that bracket
      z, O(n) each (``numerics.SymmetricTridiagonal.distance_to_spectrum``);
      it agrees with ``numerics.sigma_min(A - z I)`` to about eps ||A||;
    - ``banded``: every other shift of a section stored banded (n >= 64 with a
      narrow band), by banded LU of z I - A and Lanczos on
      (z I - A)^-H (z I - A)^-1;
    - ``triangular``: every shift of an upper-triangular A with n >= 64 that
      is not stored banded, by Lanczos on (A - z I)^-H (A - z I)^-1 with
      triangular solves; A is its own complex Schur form, so no factorization;
    - ``dense``: everything else, by SVD of the dense A - z I, which is never
      real symmetric tridiagonal here, so ``numerics.sigma_min`` would take
      the same SVD.

    Instances are read-only apart from ``fallbacks``, which collects the
    shifts whose Lanczos run fell back to dense SVD, so threads may share one.
    """

    def __init__(self, m):
        self.section = sec = numerics.Section.of(m)
        a, n, kl, ku = sec.data, sec.n, sec.kl, sec.ku
        self.n, self.kl, self.ku, self.real = n, kl, ku, sec.real
        self.fallbacks: list[complex] = []
        # banded storage only pays off when the band is genuinely narrow
        self.banded = n >= 64 and (kl + ku + 1) <= max(4, n // 8)
        if self.banded:
            # band template of -A in gbtrf layout: entry (i, j) at row kl+ku+i-j
            ab0 = np.zeros((2 * kl + ku + 1, n), dtype=complex)
            for off in range(-kl, ku + 1):
                d = np.diag(a, off)
                if off >= 0:
                    ab0[kl + ku - off, off : off + d.shape[0]] = -d
                else:
                    ab0[kl + ku - off, : d.shape[0]] = -d
            self._ab0 = ab0
        # the upper-triangular A of the triangular route, complex and in Fortran order
        self._triu = None
        if n >= 64 and kl == 0 and not self.banded:
            self._triu = np.asfortranarray(a, dtype=complex)
        if self.banded or self._triu is not None:
            self._start = _lanczos_start(n)

    def factor(self, z: complex) -> _Factorization:
        if self.banded:
            ab = self._ab0.copy()
            ab[self.kl + self.ku, :] += z
            return _Factorization(self.n, self.kl, self.ku, ab=ab)
        return _Factorization(self.n, dense=z * np.eye(self.n) - self.section.data)

    def _shifted_triangular(self, z: complex) -> _Factorization:
        """A - z I of the triangular route, a fresh Fortran-ordered copy."""
        t = self._triu.copy(order="F")
        diag = np.arange(self.n)
        t[diag, diag] -= z
        return _Factorization(self.n, triangular=t)

    def shifted(self, z: complex) -> np.ndarray:
        """Dense A - z I; a real shift of a real matrix stays real."""
        z = complex(z)
        a = self.section.data
        if self.real and z.imag == 0.0:
            return a - z.real * np.eye(self.n)
        return a - z * np.eye(self.n)

    def route(self, z: complex) -> str:
        """The route :meth:`sigma_min` takes at z, one of the four in the class docstring."""
        if self.section.tridiagonal is not None and complex(z).imag == 0.0:
            return "tridiagonal"
        if self.banded:
            return "banded"
        return "dense" if self._triu is None else "triangular"

    def sigma_min(self, z: complex) -> float:
        """Smallest singular value of A - z I; exactly 0.0 when it is exactly singular.

        On the banded and triangular routes an exact zero pivot of the LU, or
        an exact zero on the diagonal of A - z I, gives 0.0, and a Lanczos run
        that hits its step cap or a non-finite value is redone by dense SVD
        (and recorded in ``fallbacks``).  Their relative accuracy is the
        stopping tolerance 1e-10 on top of the conditioning of the solves.
        """
        z = complex(z)
        route = self.route(z)
        if route == "tridiagonal":
            return self.section.tridiagonal.distance_to_spectrum(z.real)
        if route != "dense":
            try:
                fact = self.factor(z) if route == "banded" else self._shifted_triangular(z)
            except scipy.linalg.LinAlgError:
                return 0.0
            theta = self._largest_inverse_eigenvalue(fact)
            if theta is not None:
                return float(1.0 / np.sqrt(theta))
            self.fallbacks.append(z)
        return float(np.linalg.svd(self.shifted(z), compute_uv=False)[-1])

    def _largest_inverse_eigenvalue(self, fact: _Factorization) -> float | None:
        """theta_max = 1 / sigma_min^2 of (z I - A)^-H (z I - A)^-1 by Lanczos.

        Full reorthogonalisation (classical Gram-Schmidt, applied twice) keeps
        the basis orthonormal; the run stops once the Ritz residual
        beta_k |e_k^T s| is at most ``_LANCZOS_TOL`` theta.  None when the
        step cap is reached first or a non-finite number appears.
        """
        steps = min(self.n, _LANCZOS_STEPS)
        basis = np.empty((steps, self.n), dtype=complex)
        alpha, beta = np.empty(steps), np.empty(steps)
        v = self._start
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
            ritz, vecs = scipy.linalg.eigh_tridiagonal(alpha[: k + 1], beta[:k])
            theta = ritz[-1]
            if not (np.isfinite(theta) and theta > 0.0):
                return None
            if beta[k] * abs(vecs[-1, -1]) <= _LANCZOS_TOL * theta:
                return float(theta)
            v = w / beta[k]
        return None


def resolvent_norm(m, z: complex) -> float:
    """1 / sigma_min(M - z I); inf exactly when sigma_min is exactly zero.

    sigma_min comes from :meth:`_ShiftFamily.sigma_min`: for a real
    symmetric tridiagonal M at real z, the distance from z to the nearest
    eigenvalue (a Sturm count, then bisection for the two eigenvalues that
    bracket z); banded LU plus Lanczos for a section stored banded, Lanczos
    with triangular solves for an upper-triangular M with n >= 64, dense SVD
    otherwise.  ``m`` is a :class:`numerics.Section`, or an array read as one.
    """
    s = _ShiftFamily(m).sigma_min(z)
    return float("inf") if s == 0.0 else 1.0 / s


# --------------------------------- pseudospectra --------------------------------


@dataclass
class PseudoGrid:
    """Resolvent norms over a uniform rectangle lattice.

    ``values[iy, ix]`` is 1/sigma_min(M - z) at z = re_points[ix] + 1j * im_points[iy];
    infinite values mark exactly singular shifts.  CSV layout is row-major over
    the lattice: iy outer, ix inner.  ``routes`` counts the lattice points per
    sigma_min route (``dense``, ``tridiagonal``, ``banded``, ``triangular``);
    ``dense_fallbacks`` counts the banded and triangular points redone by
    dense SVD.
    """

    rect: tuple[float, float, float, float]
    nx: int
    ny: int
    size: int
    values: np.ndarray
    routes: dict = field(default_factory=dict)
    dense_fallbacks: int = 0

    @property
    def re_points(self) -> np.ndarray:
        return np.linspace(self.rect[0], self.rect[1], self.nx)

    @property
    def im_points(self) -> np.ndarray:
        return np.linspace(self.rect[2], self.rect[3], self.ny)

    def rows(self):
        res = self.re_points
        ims = self.im_points
        for iy in range(self.ny):
            for ix in range(self.nx):
                yield res[ix], ims[iy], self.values[iy, ix]

    def write_csv(self, fh) -> None:
        fh.write("re,im,resnorm\n")
        for re, im, val in self.rows():
            sval = "inf" if np.isinf(val) else f"{val:.17g}"
            fh.write(f"{re:.17g},{im:.17g},{sval}\n")


def pseudospectrum_grid(m, rect, nx: int, ny: int, threads: int = 1) -> PseudoGrid:
    """Evaluate the resolvent norm on an nx-by-ny lattice over ``rect``.

    One :class:`_ShiftFamily` serves the whole lattice.  Points on the real
    axis of a real symmetric tridiagonal section take the distance to the
    nearest eigenvalue, by a Sturm count and bisection for the two
    eigenvalues that bracket the point; every other point of a section stored
    banded (n >= 64 with a narrow band) takes banded LU plus Lanczos on
    (z - M)^-H (z - M)^-1; every point of an upper-triangular section with
    n >= 64 takes the same Lanczos by triangular solves on M - z.  Both
    Lanczos routes fall back to the dense SVD should Lanczos not converge;
    all other points take the dense SVD.  ``m`` is a
    :class:`numerics.Section`, or an array read as one.  ``threads`` only
    parallelizes independent lattice rows; values are bitwise independent of
    the schedule.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must be nondegenerate")
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    res = np.linspace(re0, re1, nx)
    ims = np.linspace(im0, im1, ny)
    values = np.empty((ny, nx), dtype=float)
    family = _ShiftFamily(m)

    def fill_row(iy: int) -> None:
        for ix in range(nx):
            s = family.sigma_min(complex(res[ix], ims[iy]))
            values[iy, ix] = np.inf if s == 0.0 else 1.0 / s

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(fill_row, range(ny)))
    else:
        for iy in range(ny):
            fill_row(iy)
    routes = Counter(family.route(complex(re, im)) for im in ims for re in res)
    return PseudoGrid(
        rect=(re0, re1, im0, im1),
        nx=nx,
        ny=ny,
        size=family.n,
        values=values,
        routes=dict(sorted(routes.items())),
        dense_fallbacks=len(family.fallbacks),
    )


# -------------------------------- region probing --------------------------------


@dataclass
class RegionProbe:
    """sigma_min(M_n - z) along a truncation ladder plus a trend verdict.

    ``ratios`` holds the four quantities the verdict compared with its
    thresholds (see :func:`region_probe`); ``to_dict`` leaves them out.
    """

    point: complex
    sizes: tuple
    values: np.ndarray
    verdict: ProbeVerdict
    head_geomean: float
    tail_geomean: float
    tail_min: float
    scale: float
    ratios: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "point": [self.point.real, self.point.imag],
            "sizes": list(self.sizes),
            "values": [float(v) for v in self.values],
            "verdict": self.verdict.value,
            "head_geomean": self.head_geomean,
            "tail_geomean": self.tail_geomean,
            "tail_min": self.tail_min,
            "scale": self.scale,
        }


def _geomean(values: np.ndarray) -> float:
    if np.any(values == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(values))))


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None where the denominator is zero."""
    return float(num / den) if den != 0.0 else None


def region_probe(
    ladder: SectionLadder,
    z: complex,
    *,
    zero_floor: float = 1e-10,
    bounded_floor: float = 1e-6,
    decay_ratio: float = 0.5,
    final_drop: float = 0.1,
) -> RegionProbe:
    """Probe whether z behaves like a point of the region of boundedness.

    UnboundedEvidence: the final sigma_min falls below ``zero_floor * scale``,
    or the last-third geometric mean is below ``decay_ratio`` times the
    first-third one with the final value below ``final_drop`` times the first.
    BoundedEvidence: the ladder minimum stays above ``bounded_floor * scale``
    and final/initial stays at least ``decay_ratio``.  Anything else is
    Inconclusive.  ``scale`` is the spectral norm of the largest section.
    The probe's ``ratios`` record final / (``zero_floor`` * scale), tail /
    head, min / (``bounded_floor`` * scale) and final / first, None where a
    denominator is zero, so a report can show how near each threshold the
    verdict was.
    """
    if len(ladder.sizes) < 6:
        raise ValueError("region probe needs a ladder of at least 6 sizes")
    zc = complex(z)
    values = np.asarray([ladder.family(size).sigma_min(zc) for size in ladder.sizes])
    scale = ladder.norm(ladder.sizes[-1])
    third = max(1, len(values) // 3)
    head = _geomean(values[:third])
    tail = _geomean(values[-third:])
    final, first = values[-1], values[0]

    if final < zero_floor * scale or (tail < decay_ratio * head and final < final_drop * first):
        verdict = ProbeVerdict.UNBOUNDED
    elif values.min() >= bounded_floor * scale and final >= decay_ratio * first:
        verdict = ProbeVerdict.BOUNDED
    else:
        verdict = ProbeVerdict.INCONCLUSIVE
    return RegionProbe(
        point=zc,
        sizes=ladder.sizes,
        values=values,
        verdict=verdict,
        head_geomean=head,
        tail_geomean=tail,
        tail_min=float(values[-third:].min()),
        scale=scale,
        ratios={
            "final_over_zero_floor": _ratio(final, zero_floor * scale),
            "tail_over_head": _ratio(tail, head),
            "min_over_bounded_floor": _ratio(values.min(), bounded_floor * scale),
            "final_over_first": _ratio(final, first),
        },
    )


# ------------------------------- contour projections -----------------------------


def _projection_singular_values(proj: np.ndarray) -> np.ndarray:
    """Singular values of the projection via its Gram matrix.

    Absolute accuracy ~ sqrt(eps) * sigma_max, plenty for the 0.5-threshold
    rank split; much cheaper than a full SVD at the sizes contours see.
    """
    gram = proj.conj().T @ proj
    w = np.linalg.eigvalsh(gram)
    return np.sqrt(np.maximum(w[::-1], 0.0))


#: probe columns of the first sketch, doubled while the oversampling is short
_SKETCH_COLUMNS = 16
#: columns the sketch must hold beyond the counted rank
_SKETCH_OVERSAMPLING = 8
_SKETCH_SEED = 20160425


def _probe_matrix(n: int, columns: int) -> np.ndarray:
    """Fixed-seed Gaussian n x columns probes; a function of (n, columns) only."""
    return np.random.default_rng(_SKETCH_SEED).standard_normal((columns, n)).T


def _checked_factor(family: _ShiftFamily, z: complex, limit: float) -> _Factorization:
    """Factor z I - A, refusing nodes where the resolvent norm exceeds ``limit``."""
    try:
        fact = family.factor(z)
    except scipy.linalg.LinAlgError as exc:
        raise ContourError(
            f"eigenvalue on the contour: factorization at node {z} failed ({exc})"
        ) from exc
    est = fact.inverse_norm_estimate()
    if not np.isfinite(est) or est > limit:
        raise ContourError(
            f"eigenvalue too close to the contour: resolvent norm ~{est:.3e} "
            f"at node {z} exceeds {limit:.3e}"
        )
    return fact


def _weighted_solves(factors, weights, b: np.ndarray, real_pairs: bool, adjoint: bool = False):
    """P b = sum_k w_k (z_k - A)^{-1} b, or P^H b when ``adjoint``.

    With ``real_pairs`` the factors cover the upper half circle of a real
    problem; each node stands for itself and its conjugate, so its term is
    2 Re(w X), and 1x at the two real nodes (first and last).
    """
    last = len(weights) - 1
    total = np.zeros(b.shape, dtype=float if real_pairs else complex)
    for k, (fact, w) in enumerate(zip(factors, weights)):
        term = (np.conj(w) if adjoint else w) * fact.solve(b, adjoint=adjoint)
        if real_pairs:
            term = term.real if k in (0, last) else 2.0 * term.real
        total += term
    return total


def _sketched_singular_values(factors, weights, n: int, real_pairs: bool, sketch_below: float):
    """Leading singular values of the contour projection P from L probe columns.

    Y = P^H Omega by adjoint solves, Q = orth(Y), then the singular values of
    the n x L matrix P Q.  Since P = P Pi_range(P^H) and Q captures
    range(P^H), they are P's leading singular values.  L starts at
    ``_SKETCH_COLUMNS`` and doubles until ``_SKETCH_OVERSAMPLING`` columns lie
    beyond the counted rank.  Returns ``(singular_values, L)``, or None once L
    reaches ``sketch_below`` (the caller then forms P densely).
    """
    columns = _SKETCH_COLUMNS
    while columns < sketch_below:
        y = _weighted_solves(factors, weights, _probe_matrix(n, columns), real_pairs, adjoint=True)
        basis = np.linalg.qr(y)[0]
        svals = _projection_singular_values(_weighted_solves(factors, weights, basis, real_pairs))
        if columns - np.count_nonzero(svals > RANK_THRESHOLD) >= _SKETCH_OVERSAMPLING:
            return svals, columns
        columns *= 2
    return None


@dataclass
class ContourRank:
    """Trapezoid contour projection with its extracted rank.

    ``probe_columns`` is the number of columns the projection was applied to:
    the sketch width L when the projection was sketched, else n.  A sketched
    projection is never formed, so ``projection`` is None then;
    ``singular_values`` holds the leading min(n, L) values.
    """

    center: complex
    radius: float
    quadrature_points: int
    projection: np.ndarray | None = field(repr=False)
    rank: int
    gap: float
    singular_values: np.ndarray = field(repr=False)
    probe_columns: int


def contour_rank(
    m,
    center: complex,
    radius: float,
    quadrature_points: int = DEFAULT_QUADRATURE,
    family: "_ShiftFamily | None" = None,
) -> ContourRank:
    """Rank of the spectral projection for the circle of given center/radius.

    The projection P = (1/2 pi i) * contour integral of the resolvent is
    formed by the trapezoid rule; its singular values cluster near 1 and 0
    and the rank is the count above 0.5, accepted only when kept/dropped
    differ by a factor of at least 10.  Raises :class:`ContourError` when an
    eigenvalue sits too close to the circle (resolvent norm above 1e8/radius
    at a quadrature node) and :class:`ResolutionError` when the singular-value
    gap is ambiguous.

    When the section is stored banded (n >= 64 with a narrow band), P is
    sketched rather than formed: each node is factored once, L fixed-seed
    Gaussian probe columns give Y = P^H Omega by adjoint banded solves, and
    the singular values of P orth(Y) stand in for P's.  L starts at 16 and
    doubles until at least 8 columns lie beyond the counted rank; when L
    would reach n the dense n-column projection is formed instead, as it is
    for every section not stored banded.  The probes depend only on n and
    L, so results are byte-deterministic.

    ``m`` is a :class:`numerics.Section`, or an array read as one.
    ``family`` is the shifted-operator family of ``m`` when the caller holds
    one (:meth:`SectionLadder.family`); without it one is built from ``m``.
    """
    q = int(quadrature_points)
    if q < 16:
        raise ValueError("need at least 16 quadrature points")
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if family is None:
        family = _ShiftFamily(m)
    return _contour_rank(family, complex(center), radius, q, family.n if family.banded else 0)


def _contour_rank(
    family: _ShiftFamily, center: complex, radius: float, q: int, sketch_below: float
) -> ContourRank:
    """Contour rank with the sketch tried while L < ``sketch_below`` (0: dense only)."""
    n = family.n
    theta = 2.0 * np.pi * np.arange(q) / q
    nodes = center + radius * np.exp(1j * theta)
    limit = _PRECONDITION_RESNORM / radius
    # a real matrix with a real centre has conjugate-pair nodes, so P is real
    # and only the upper half circle needs solves
    real_pairs = family.real and center.imag == 0.0 and q % 2 == 0
    ks = range(q // 2 + 1) if real_pairs else range(q)
    weights = [(radius / q) * np.exp(1j * theta[k]) for k in ks]
    factors = (_checked_factor(family, nodes[k], limit) for k in ks)
    sketch = None
    if _SKETCH_COLUMNS < sketch_below:
        factors = list(factors)  # both sketch passes reuse every node's LU
        sketch = _sketched_singular_values(factors, weights, n, real_pairs, sketch_below)
    if sketch is None:
        proj = _weighted_solves(factors, weights, np.eye(n, dtype=complex), real_pairs)
        svals, probe_columns = _projection_singular_values(proj), n
    else:
        proj = None
        svals, probe_columns = sketch
    rank = int(np.count_nonzero(svals > RANK_THRESHOLD))
    # the kept/dropped split only exists when both sides are nonempty
    if rank == 0 or rank == svals.size:
        gap = np.inf
    else:
        kept, dropped = svals[rank - 1], svals[rank]
        gap = np.inf if dropped == 0.0 else float(kept / dropped)
    if gap < GAP_FACTOR:
        raise ResolutionError(
            f"ambiguous projection rank: kept/dropped singular-value ratio {gap:.2f} < "
            f"{GAP_FACTOR:g}; increase the quadrature point count (used {q})"
        )
    return ContourRank(
        center=center,
        radius=radius,
        quadrature_points=q,
        projection=proj,
        rank=rank,
        gap=float(gap),
        singular_values=svals,
        probe_columns=probe_columns,
    )
