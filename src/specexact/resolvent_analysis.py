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
    """Sections and spectra, keyed by size.

    ``sections`` holds :class:`numerics.Section` objects (the provider's own
    when it returns one, as every section builder does), so a section is
    validated and its structure detected once, and its spectrum, norm and
    shifted solves all read that one structure.  One cache serves every
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
    spectrum_hits: int = 0
    spectrum_misses: int = 0
    eig_routes: Counter = field(default_factory=Counter)

    @property
    def residuals_computed(self) -> int:
        """Residuals computed so far by the spectra the cache holds."""
        return sum(dec.residuals_computed for dec in self.spectra.values())

    def clear(self) -> None:
        self.sections.clear()
        self.spectra.clear()


@dataclass(eq=False)
class SectionLadder:
    """A truncation family: strictly increasing sizes plus a section provider.

    Sections and their spectra live in ``cache``, keyed by size; each
    Section also caches its norm and shifted-operator data.  Providers must
    be pure.  Ladders that pass the same provider may share one
    :class:`SectionCache`, whatever their sizes and labels; by default each
    ladder has its own.
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

    def norm(self, size) -> float:
        """The spectral norm of the section at ``size`` (:attr:`numerics.Section.norm`)."""
        return self.matrix(size).norm

    def conjugated(self) -> "SectionLadder":
        """Ladder of conjugate transposes (the discrete adjoint family), declared by their diagonals."""
        return SectionLadder(
            label=f"{self.label}*",
            sizes=self.sizes,
            provider=lambda s: numerics.Section(
                {-off: d.conj() for off, d in self.matrix(s).diagonals.items()}
            ),
        )


def galerkin_ladder(spec, sizes) -> SectionLadder:
    """Ladder of leading principal sections of an operator spec."""
    return SectionLadder(
        label=spec.name, sizes=tuple(sizes), provider=lambda k: operator_model.truncate(spec, k)
    )


def resolvent_norm(m, z: complex) -> float:
    """1 / sigma_min(M - z I); inf exactly when sigma_min is exactly zero.

    sigma_min comes from :meth:`numerics.Section.sigma_min`, by the route
    the Section's structure picks (see :class:`numerics.Section`).  ``m`` is
    a Section, or an array read as one.
    """
    s = numerics.Section.of(m).sigma_min(z)
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

    One :class:`numerics.Section` serves the whole lattice; each point takes
    the :meth:`numerics.Section.sigma_min` route its structure picks.  ``m``
    is a Section, or an array read as one.  ``threads`` only parallelizes
    independent lattice rows; values are bitwise independent of the
    schedule.  ``dense_fallbacks`` counts this lattice's fallbacks only, not
    those the Section recorded before.
    """
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must be nondegenerate")
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    res = np.linspace(re0, re1, nx)
    ims = np.linspace(im0, im1, ny)
    values = np.empty((ny, nx), dtype=float)
    section = numerics.Section.of(m)
    earlier_fallbacks = len(section.fallbacks)

    def fill_row(iy: int) -> None:
        for ix in range(nx):
            s = section.sigma_min(complex(res[ix], ims[iy]))
            values[iy, ix] = np.inf if s == 0.0 else 1.0 / s

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(fill_row, range(ny)))
    else:
        for iy in range(ny):
            fill_row(iy)
    routes = Counter(section.sigma_min_route(complex(re, im)) for im in ims for re in res)
    return PseudoGrid(
        rect=(re0, re1, im0, im1),
        nx=nx,
        ny=ny,
        size=section.n,
        values=values,
        routes=dict(sorted(routes.items())),
        dense_fallbacks=len(section.fallbacks) - earlier_fallbacks,
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
    values = np.asarray([ladder.matrix(size).sigma_min(zc) for size in ladder.sizes])
    scale = ladder.matrix(ladder.sizes[-1]).norm
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


def _checked_factor(section: numerics.Section, z: complex, limit: float) -> numerics.Factorization:
    """Factor z I - A, refusing nodes where the resolvent norm exceeds ``limit``."""
    try:
        fact = section.factor(z)
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

    ``m`` is a :class:`numerics.Section`, or an array read as one; a
    ladder's own Section reuses its band template across calls.
    """
    q = int(quadrature_points)
    if q < 16:
        raise ValueError("need at least 16 quadrature points")
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    section = numerics.Section.of(m)
    return _contour_rank(section, complex(center), radius, q, section.n if section.banded else 0)


def _contour_rank(
    section: numerics.Section, center: complex, radius: float, q: int, sketch_below: float
) -> ContourRank:
    """Contour rank with the sketch tried while L < ``sketch_below`` (0: dense only)."""
    n = section.n
    theta = 2.0 * np.pi * np.arange(q) / q
    nodes = center + radius * np.exp(1j * theta)
    limit = _PRECONDITION_RESNORM / radius
    # a real matrix with a real centre has conjugate-pair nodes, so P is real
    # and only the upper half circle needs solves
    real_pairs = section.real and center.imag == 0.0 and q % 2 == 0
    ks = range(q // 2 + 1) if real_pairs else range(q)
    weights = [(radius / q) * np.exp(1j * theta[k]) for k in ks]
    factors = (_checked_factor(section, nodes[k], limit) for k in ks)
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
