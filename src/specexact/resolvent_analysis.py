"""Resolvent norms, pseudospectra grids, region-of-boundedness probes, contour ranks, windowed spectra.

Verdicts produced here are *evidence*, never proofs: the region of
boundedness is an asymptotic notion and a finite ladder can only exhibit
trends.  The thresholds that define the evidence standard are named module
constants: the region probe's ``PROBE_ZERO_FLOOR``, ``PROBE_BOUNDED_FLOOR``,
``PROBE_DECAY_RATIO`` and ``PROBE_FINAL_DROP``, and the contour rank's
``RANK_THRESHOLD`` and ``GAP_FACTOR``, all defined here.

A ladder's spectrum request may carry a window.  Two kinds of section answer
it with the window's eigenvalues alone (their window route, see
:func:`_window_route`).  A Hermitian tridiagonal one computes the eigenvalues
in the window's real interval by bisection (``numerics.eig_dense``).  One
stored banded, not Hermitian and not declared a Kronecker sum goes to
:func:`windowed_spectrum`: the
eigenvalues inside a circle around the window, extracted from the same node
factorizations and solves as the circle's contour rank, and accepted only
when their number equals that rank; otherwise the whole spectrum is computed
and the fallback recorded.  Every other request gets the whole spectrum.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # loaded here so that no run pays for it (np.random.default_rng)

from . import numerics, operator_model
from .errors import ContourError, ResolutionError

#: contour-projection singular values are split at this threshold ...
RANK_THRESHOLD = 0.5
#: ... and the kept/dropped ratio must be at least this factor
GAP_FACTOR = 10.0
#: region probe: UnboundedEvidence where the final sigma_min is below this times the scale ...
PROBE_ZERO_FLOOR = 1e-10
#: ... BoundedEvidence needs the ladder minimum at least this times the scale ...
PROBE_BOUNDED_FLOOR = 1e-6
#: ... and final/first at least this; a tail/head geometric mean below it is decay ...
PROBE_DECAY_RATIO = 0.5
#: ... which is UnboundedEvidence when final/first is also below this
PROBE_FINAL_DROP = 0.1
#: the fewest sizes a region probe's ladder may have
PROBE_MIN_SIZES = 6
#: default number of trapezoid points on a circle
DEFAULT_QUADRATURE = 64
#: the routes of a contour rank (see ContourRank)
CONTOUR_ROUTES = ("closed_form", "sketched", "dense")

_PRECONDITION_RESNORM = 1e8  # scaled by 1/radius in contour_rank
#: the circle of a windowed spectrum: the window's circumcircle, radius times this
WINDOW_CIRCLE_MARGIN = 1.05
#: Rayleigh-quotient steps that refine an extracted eigenvalue, before and after its snap
_REFINE_STEPS = 2
#: the snap grid of extracted eigenvalues: spacing 2^-_SNAP_BITS ||A||_inf, rounded up to a power of 2
_SNAP_BITS = 24
#: an extracted eigenvalue counts as found when its residual is at most this times ||A||_inf
_RESIDUAL_REL = 1e-12


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
    ``spectra`` holds one :class:`numerics.EigenDecomposition` per size; a
    request it cannot serve replaces it.  A windowed one serves the requests
    whose window lies inside its own.  The whole spectrum serves every
    request on a section without a window route; on a section with one
    (bisection or contour extraction) it serves only requests without a
    window, because a windowed solve gives other bits in the last digits.
    So the bytes a windowed request yields do not depend on which requests
    came before it.  The cache keeps no counts: each
    :meth:`SectionLadder.spectrum` request is counted in the open
    :class:`numerics.Ledger`.
    """

    sections: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)


def _bounds(window) -> tuple:
    """(re0, re1, im0, im1) of a rectangle given by its corners in any order."""
    re0, re1, im0, im1 = (float(v) for v in window)
    return min(re0, re1), max(re0, re1), min(im0, im1), max(im0, im1)


def _window_route(section: numerics.Section) -> str | None:
    """The route that answers a windowed request on ``section``, None for the whole spectrum.

    ``bisection`` for a Hermitian tridiagonal section (:func:`numerics.eig_dense`),
    ``windowed`` for one stored banded and not Hermitian (:func:`windowed_spectrum`).
    A section declared as a Kronecker sum has none: its whole spectrum costs
    one tridiagonal eigensolve (the ``kronecker`` route).
    """
    if section.kronecker is not None:
        return None
    if section.tridiagonal is not None:
        return "bisection"
    if section.banded and not section.hermitian:
        return "windowed"
    return None


def _serves(held: numerics.EigenDecomposition, window) -> bool:
    """``held`` answers a request for ``window`` (None: the whole spectrum) as a fresh solve would.

    A windowed ``held`` answers the windows inside its own; a whole one, a
    request without a window, or any request on a section with no window route.
    """
    if held.window is None:
        return window is None or _window_route(held.section) is None
    if window is None:
        return False
    (a0, a1, b0, b1), (c0, c1, d0, d1) = _bounds(held.window), _bounds(window)
    return a0 <= c0 and c1 <= a1 and b0 <= d0 and d1 <= b1


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

    def spectrum(self, size, window=None) -> numerics.EigenDecomposition:
        """The spectrum at ``size``, complete at least inside ``window`` (re0, re1, im0, im1).

        A cached spectrum serves the request as :class:`SectionCache` says:
        a windowed one whose window holds ``window``, or a whole one, except
        that on a section with a window route a whole spectrum serves only a
        request without a window.  Otherwise a request with a window on a
        section stored banded and not Hermitian goes to
        :func:`windowed_spectrum`; every other request to
        :func:`numerics.eig_dense`, with its window, which a Hermitian
        tridiagonal section answers by bisection and any other by its whole
        spectrum.  The open :class:`numerics.Ledger` counts the request as a
        ``spectrum_cache`` hit or miss, and a miss's eigensolve in
        ``eig_routes`` by the route of the spectrum it returns, with the count
        check of a windowed solve in ``windowed_checks``.
        """
        held = self.cache.spectra.get(size)
        if held is not None and _serves(held, window):
            numerics.Ledger.count("spectrum_cache", "hits")
            return held
        numerics.Ledger.count("spectrum_cache", "misses")
        section = self.matrix(size)
        if window is not None and _window_route(section) == "windowed":
            dec, check = windowed_spectrum(section, window)
            numerics.Ledger.record("windowed_checks", {"size": size, **asdict(check)})
        else:
            dec = numerics.eig_dense(section, window)
        self.cache.spectra[size] = dec
        numerics.Ledger.count("eig_routes", dec.route)
        return dec

    def norm(self, size) -> float:
        """The spectral norm of the section at ``size`` (:attr:`numerics.Section.norm`)."""
        return self.matrix(size).norm


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
    the lattice: iy outer, ix inner.  The lattice's sigma_min route and dense
    fallbacks are counted in the open :class:`numerics.Ledger`, not here
    (see :func:`pseudospectrum_grid`).
    """

    rect: tuple[float, float, float, float]
    nx: int
    ny: int
    size: int
    values: np.ndarray

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


def pseudospectrum_grid(m, rect, nx: int, ny: int) -> PseudoGrid:
    """Evaluate the resolvent norm on an nx-by-ny lattice over ``rect``.

    One :class:`numerics.Section` serves the whole lattice; each point takes
    the :meth:`numerics.Section.sigma_min` route its structure picks.  ``m``
    is a Section, or an array read as one.  Rows run in order, bottom to
    top, and each row left to right.  The open :class:`numerics.Ledger`
    counts every dense fallback; its ``sigma_min_routes`` counts the
    lattice's one route nx * ny times.
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

    for iy in range(ny):
        for ix in range(nx):
            s = section.sigma_min(complex(res[ix], ims[iy]))
            values[iy, ix] = np.inf if s == 0.0 else 1.0 / s
    numerics.Ledger.count("sigma_min_routes", section.sigma_min_route, nx * ny)
    return PseudoGrid(
        rect=(re0, re1, im0, im1),
        nx=nx,
        ny=ny,
        size=section.n,
        values=values,
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
    """num / den, or None where the denominator is zero or the quotient overflows.

    The division is Python's, which overflows to inf without numpy's warning.
    """
    ratio = float(num) / float(den) if den != 0.0 else np.inf
    return ratio if np.isfinite(ratio) else None


def region_probe(ladder: SectionLadder, z: complex) -> RegionProbe:
    """Probe whether z behaves like a point of the region of boundedness.

    UnboundedEvidence: the final sigma_min falls below ``PROBE_ZERO_FLOOR *
    scale``, or the last-third geometric mean is below ``PROBE_DECAY_RATIO``
    times the first-third one with the final value below
    ``PROBE_FINAL_DROP`` times the first.  BoundedEvidence: the ladder
    minimum stays at least ``PROBE_BOUNDED_FLOOR * scale`` and final/initial
    stays at least ``PROBE_DECAY_RATIO``.  Anything else is Inconclusive.
    ``scale`` is the spectral norm of the largest section.  The probe's
    ``ratios`` record final / (``PROBE_ZERO_FLOOR`` * scale), tail / head,
    min / (``PROBE_BOUNDED_FLOOR`` * scale) and final / first, None where a
    denominator is zero or the quotient overflows, so a report can show how
    near each threshold the verdict was.
    """
    if len(ladder.sizes) < PROBE_MIN_SIZES:
        raise ValueError(f"region probe needs a ladder of at least {PROBE_MIN_SIZES} sizes")
    zc = complex(z)
    values = np.asarray([ladder.matrix(size).sigma_min(zc) for size in ladder.sizes])
    scale = ladder.matrix(ladder.sizes[-1]).norm
    third = max(1, len(values) // 3)
    head = _geomean(values[:third])
    tail = _geomean(values[-third:])
    final, first = values[-1], values[0]

    zero_floor, bounded_floor = PROBE_ZERO_FLOOR * scale, PROBE_BOUNDED_FLOOR * scale
    if final < zero_floor or (tail < PROBE_DECAY_RATIO * head and final < PROBE_FINAL_DROP * first):
        verdict = ProbeVerdict.UNBOUNDED
    elif values.min() >= bounded_floor and final >= PROBE_DECAY_RATIO * first:
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
            "final_over_zero_floor": _ratio(final, zero_floor),
            "tail_over_head": _ratio(tail, head),
            "min_over_bounded_floor": _ratio(values.min(), bounded_floor),
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


#: Halko, Martinsson & Tropp (2011, SIAM Rev. 53, Lemma 4.1): ||B|| <= 10 sqrt(2/pi) max_i ||B w_i|| over
#: the _SKETCH_COLUMNS real Gaussian probes w_i, except with probability 10^-16; sqrt(2) covers a complex B
_PROBE_BOUND_FACTOR = np.sqrt(2.0) * 10.0 * np.sqrt(2.0 / np.pi)
#: how a factored contour node was cleared, the keys of the open Ledger's ``contour_guards`` (see _clear_node)
CONTOUR_GUARDS = ("probe_bound", "frobenius", "estimated")


def _clear_node(fact: numerics.Factorization, z: complex, limit: float, bound: float, key: str) -> None:
    """Clear the factored node z, or raise :class:`ContourError` where its resolvent norm exceeds ``limit``.

    ``bound`` is an upper bound on the norm from the contour's own solves,
    named by ``key`` (see :func:`_node_bound`); where it passes, the node is
    cleared by ``key``.  Else the norm is the power estimate
    :meth:`numerics.Factorization.inverse_norm_estimate`, a lower bound, so
    the nodes refused are those the estimate alone refuses.  The open
    :class:`numerics.Ledger` counts each cleared node in ``contour_guards``
    by the key that cleared it, ``estimated`` for the estimate.
    """
    if not bound <= limit:
        est = fact.inverse_norm_estimate()
        if not np.isfinite(est) or est > limit:
            raise ContourError(
                f"eigenvalue too close to the contour: resolvent norm ~{est:.3e} "
                f"at node {z} exceeds {limit:.3e}"
            )
        key = "estimated"
    numerics.Ledger.count("contour_guards", key)


def _factored_nodes(section: numerics.Section, nodes):
    """z I - A factored at each node in turn; a failed factorization raises :class:`ContourError`."""
    for z in nodes:
        try:
            fact = section.factor(z)
        except np.linalg.LinAlgError as exc:
            raise ContourError(
                f"eigenvalue on the contour: factorization at node {z} failed ({exc})"
            ) from exc
        yield fact


class _KeptFactors:
    """``factors`` for several passes: the first draws each factor as it reaches it, the later ones reuse it."""

    def __init__(self, factors):
        self._source, self._kept = factors, []

    def __iter__(self):
        yield from self._kept
        for fact in self._source:
            self._kept.append(fact)
            yield fact


def _node_bound(x: np.ndarray, key: str) -> float:
    """An upper bound on ||R|| from the solves ``x`` at one node, R = (z I - A)^-1; inf or nan past overflow.

    ``probe_bound``: x = R^H Omega, the first sketch pass's ``_SKETCH_COLUMNS``
    probes, and the bound is ``_PROBE_BOUND_FACTOR`` times the largest column
    norm; it fails with probability at most 1e-16.  ``frobenius``: x = R,
    the identity solves, and the bound is ||R||_F, which never fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(x.real).sum(axis=0) + np.square(x.imag).sum(axis=0)
        if key == "probe_bound":
            return float(_PROBE_BOUND_FACTOR * np.sqrt(squares.max()))
        return float(np.sqrt(squares.sum()))


def _weighted_solves(
    factors, weights, b: np.ndarray, real_pairs: bool, adjoint: bool = False, nodes=None, guard=None
):
    """P b = sum_k w_k (z_k - A)^{-1} b, or P^H b when ``adjoint``.

    With ``nodes`` (the z_k) it returns the pair (P b, M b), where
    M b = sum_k w_k z_k (z_k - A)^{-1} b is the first moment, from the same
    solves.  With ``real_pairs`` the factors cover the upper half circle of a
    real problem; each node stands for itself and its conjugate, so its term
    is 2 Re(w X), and 1x at the two real nodes (first and last).  With
    ``guard``, each node's factor F_k and solve X_k are passed as
    guard(k, F_k, X_k) before it is added, in node order.
    """
    last = len(weights) - 1
    dtype = float if real_pairs else complex
    total = np.zeros(b.shape, dtype=dtype)
    first = None if nodes is None else np.zeros(b.shape, dtype=dtype)

    def add(acc, term, k):
        acc += (term.real if k in (0, last) else 2.0 * term.real) if real_pairs else term

    for k, (fact, w) in enumerate(zip(factors, weights)):
        x = fact.solve(b, adjoint=adjoint)
        if guard is not None:
            guard(k, fact, x)
        add(total, (np.conj(w) if adjoint else w) * x, k)
        if first is not None:
            add(first, w * nodes[k] * x, k)
    return total if first is None else (total, first)


def _sketched_singular_values(
    factors, weights, n: int, real_pairs: bool, sketch_below: float, nodes=None, guard=None
):
    """Leading singular values of the contour projection P from L probe columns.

    Y = P^H Omega by adjoint solves, Q = orth(Y), then the singular values of
    the n x L matrix P Q.  Since P = P Pi_range(P^H) and Q captures
    range(P^H), they are P's leading singular values.  L starts at
    ``_SKETCH_COLUMNS`` and doubles until ``_SKETCH_OVERSAMPLING`` columns lie
    beyond the counted rank.  Returns ``(singular_values, L, solved)``, where
    ``solved`` is what :func:`_weighted_solves` gave for Q (P Q, or the pair
    (P Q, M Q) with ``nodes``), or None once L reaches ``sketch_below`` (the
    caller then forms P densely).  ``guard`` sees the adjoint solves of the
    first pass alone (see :func:`_weighted_solves`).  ``factors`` is iterated
    once per pass, in node order.
    """
    columns = _SKETCH_COLUMNS
    while columns < sketch_below:
        y = _weighted_solves(factors, weights, _probe_matrix(n, columns), real_pairs, adjoint=True, guard=guard)
        guard = None
        basis = np.linalg.qr(y)[0]
        solved = _weighted_solves(factors, weights, basis, real_pairs, nodes=nodes)
        svals = _projection_singular_values(solved if nodes is None else solved[0])
        if columns - np.count_nonzero(svals > RANK_THRESHOLD) >= _SKETCH_OVERSAMPLING:
            return svals, columns, solved
        columns *= 2
    return None


@dataclass
class ContourRank:
    """Trapezoid contour projection with its extracted rank.

    ``route`` says how the projection's singular values were found:

    - ``closed_form``: a Hermitian tridiagonal section (see
      :func:`_closed_form_contour_rank`).  Nothing is formed or solved, so
      ``projection`` is None and ``probe_columns`` 0; ``singular_values``
      holds |f(lambda)| at the eigenvalues in and beside the annulus the
      circle lies in, descending, and ``node_distance`` is the guard's
      margin: the least distance from a node to one of those eigenvalues,
      over the radius (inf when there is none);
    - ``sketched``: the projection applied to L probe columns and never
      formed, so ``projection`` is None, ``probe_columns`` is L and
      ``singular_values`` holds the leading L values;
    - ``dense``: the n x n projection, with ``probe_columns`` n.

    ``node_distance`` is None on the last two.  ``moments`` is None unless
    asked for: then the pair (A0, A1) of Beyn's method, the projection P and
    the first moment M = sum_k w_k z_k (z_k - A)^{-1} applied to the same
    probe columns (the sketch basis Q, or the identity).
    """

    quadrature_points: int
    projection: np.ndarray | None = field(repr=False)
    rank: int
    gap: float
    singular_values: np.ndarray = field(repr=False)
    probe_columns: int
    route: str
    moments: tuple | None = field(default=None, repr=False)
    node_distance: float | None = None

    def margins(self) -> dict:
        """``route``, and the ``gap`` and ``node_distance`` it was judged by, None where infinite."""
        finite = lambda x: x if x is not None and np.isfinite(x) else None
        return {"route": self.route, "gap": finite(self.gap), "node_distance": finite(self.node_distance)}


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
    at a quadrature node) and :class:`ResolutionError` when the
    singular-value gap is ambiguous.  A centre or radius that is not finite,
    a radius that is not positive and fewer than 16 quadrature points raise
    ``ValueError``.

    The section's declared structure picks one of three routes (see
    :class:`ContourRank`):

    - ``closed_form``: a Hermitian tridiagonal section, from its
      eigenvalues near the circle alone, with no node factored
      (:func:`_closed_form_contour_rank`);
    - ``sketched``: any other section stored banded (n >= 64 with a narrow band).
      Each node is factored once; L fixed-seed Gaussian probe columns give
      Y = P^H Omega by adjoint banded solves, and the singular values of
      P orth(Y) stand in for P's.  L starts at 16 and doubles until at least
      8 columns lie beyond the counted rank.  The probes depend only on n
      and L, so results are byte-deterministic;
    - ``dense``: every other section, and a sketch whose L would reach n:
      the n-column projection is formed.

    On the last two routes the guard refuses a node whose 8-step power
    estimate of the resolvent norm ||R_k|| = ||(z_k I - A)^-1|| exceeds
    1e8 / radius.  The estimate is a lower bound, so a node whose upper
    bound passes needs none (:func:`_clear_node`).  The bound comes from the
    solves the contour already makes: on the sketched route,
    10 sqrt(2/pi) max_i ||R_k^H omega_i|| over the first pass's 16 real
    Gaussian probes (Halko, Martinsson & Tropp 2011, Lemma 4.1), which
    fails with probability at most 1e-16 per node, times sqrt(2) for a
    complex R_k; on the dense route the Frobenius norm
    of R_k from the identity solves, which never fails.  The estimate runs
    only where the bound does not pass, so the nodes refused, the error and
    its message are those of estimating every node in order.  The open
    :class:`numerics.Ledger`'s ``contour_guards`` counts the nodes cleared
    by each of the three ways (``CONTOUR_GUARDS``).

    ``m`` is a :class:`numerics.Section`, or an array read as one; a
    ladder's own Section reuses its band template across calls.  The open
    :class:`numerics.Ledger`'s ``contour_routes`` counts each rank returned
    by its route; a contour that raises is not counted.
    """
    q = int(quadrature_points)
    if q < 16:
        raise ValueError("need at least 16 quadrature points")
    center, radius = complex(center), float(radius)
    if not (np.isfinite(center) and np.isfinite(radius)):
        raise ValueError(f"contour centre {center} and radius {radius} must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    section = numerics.Section.of(m)
    if section.tridiagonal is not None:
        contour = _closed_form_contour_rank(section.tridiagonal, center, radius, q)
    else:
        contour = _contour_rank(section, center, radius, q)
    numerics.Ledger.count("contour_routes", contour.route)
    return contour


def _rank_and_gap(svals: np.ndarray, q: int) -> tuple[int, float]:
    """The count of ``svals`` (descending) above ``RANK_THRESHOLD``, and kept/dropped.

    Raises :class:`ResolutionError` when kept/dropped is below ``GAP_FACTOR``.
    """
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
    return rank, float(gap)


def _filter_values(lam: np.ndarray, center: complex, radius: float, q: int) -> np.ndarray:
    """|f(lam)| = |1 / (1 - u^q)|, u = (lam - c) / r: the trapezoid projection at each eigenvalue."""
    u = (lam - (center.real if center.imag == 0.0 else center)) / radius
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.abs(1.0 / (1.0 - u**q))
    # a complex u^q overflows into nan only where |f| < 1e-300; f is inf at a node
    f[np.isnan(f)] = 0.0
    return f


def _filter_bound(x: float, center: complex, radius: float, q: int) -> float:
    """1 / (|u|^q - 1), u = (x - c) / r, inf where |u| <= 1.

    A bound on |f| at x and at every real point farther from Re c.
    """
    with np.errstate(over="ignore"):
        mag = np.abs((x - center) / radius) ** q
    return np.inf if mag <= 1.0 else float(1.0 / (mag - 1.0))


def _closed_form_contour_rank(
    tri: numerics.SymmetricTridiagonal, center: complex, radius: float, q: int
) -> ContourRank:
    """:func:`contour_rank` of a Hermitian tridiagonal section, from a few of its eigenvalues.

    With the nodes z_k = c + r e^{2 pi i k / q} and weights (r / q) e^{2 pi i k / q},
    the trapezoid projection of a normal A acts on an eigenvalue lambda as
    f(lambda) = 1 / (1 - u^q), u = (lambda - c) / r: FEAST's rational filter
    (Tang & Polizzi 2014, SIMAX 35; Guettel, Polizzi, Tang & Viaud 2015,
    SISC 37).  So P = U f(Lambda) U^H, and its singular values are the
    |f(lambda_j)|.  Where |u|^q > 3, |f| <= 1 / (|u|^q - 1) < 1/2: such an
    eigenvalue is uncounted, and as |u| grows along the real axis on either
    side of Re c, so does that bound shrink.  So with rho = r 3^{1/q} and
    c = a + ib, the Sturm counts at a -+ sqrt(rho^2 - b^2) give the indices
    of the eigenvalues in the disc |lambda - c| <= rho, and each of those and
    the nearest index on either side is bisected
    (:meth:`numerics.SymmetricTridiagonal.eigenvalues_by_index`).  For a real
    centre the nearest one outside has the largest |f| of its side; for a
    non-real one each side steps outward while the next bound could exceed
    the largest uncounted |f| found.  When rho <= |b| no eigenvalue is near
    the circle: the rank is 0.

    The guard reads the exact ||(z_k - A)^{-1}|| = 1 / min_j |z_k - lambda_j|
    over those eigenvalues, which hold every one within rho - r > 1e-8 r
    (for q < 1e8) of the circle, and refuses above 1e8 / r as :func:`_clear_node` does (a
    zero distance is an infinite norm).  Rank and gap are split as on the
    other routes.  Costs two Sturm counts and a bisection per eigenvalue
    taken, O(n) each.
    """
    n = tri.n
    a, b = center.real, center.imag
    rho = radius * 3.0 ** (1.0 / q)
    lam = np.zeros(0)
    if rho > abs(b):
        half = np.sqrt(rho * rho - b * b)
        first, stop = max(tri.sturm_count(a - half) - 1, 0), min(tri.sturm_count(a + half) + 1, n)
        lam = tri.eigenvalues_by_index(first, stop)
        f = _filter_values(lam, center, radius, q)
        uncounted = f[f <= RANK_THRESHOLD].max(initial=0.0)
        while b and first > 0 and _filter_bound(lam[0], center, radius, q) > uncounted:
            first -= 1
            x = tri.eigenvalues_by_index(first, first + 1)
            lam, uncounted = np.concatenate([x, lam]), max(uncounted, _filter_values(x, center, radius, q)[0])
        while b and stop < n and _filter_bound(lam[-1], center, radius, q) > uncounted:
            x = tri.eigenvalues_by_index(stop, stop + 1)
            stop += 1
            lam, uncounted = np.concatenate([lam, x]), max(uncounted, _filter_values(x, center, radius, q)[0])
    # the nodes _contour_rank factors
    nodes = center + radius * np.exp(1j * (2.0 * np.pi * np.arange(q) / q))
    distance, k = np.inf, 0
    if lam.size:
        gaps = np.abs(nodes[:, np.newaxis] - lam[np.newaxis, :]).min(axis=1)
        k = int(np.argmin(gaps))
        distance = float(gaps[k])
    limit = _PRECONDITION_RESNORM / radius
    norm = np.inf if distance == 0.0 else 1.0 / distance
    if norm > limit:
        raise ContourError(
            f"eigenvalue too close to the contour: resolvent norm {norm:.3e} "
            f"at node {nodes[k]} exceeds {limit:.3e}"
        )
    svals = np.sort(_filter_values(lam, center, radius, q))[::-1]
    rank, gap = _rank_and_gap(svals, q)
    return ContourRank(
        quadrature_points=q,
        projection=None,
        rank=rank,
        gap=gap,
        singular_values=svals,
        probe_columns=0,
        route="closed_form",
        node_distance=distance / radius,
    )


def _contour_rank(
    section: numerics.Section,
    center: complex,
    radius: float,
    q: int,
    sketch_below: float | None = None,
    moments: bool = False,
) -> ContourRank:
    """Contour rank with the sketch tried while L < ``sketch_below`` (0: dense only).

    ``sketch_below`` defaults to n for a section stored banded, else 0.  With
    ``moments`` the result also carries Beyn's (A0, A1), from the same solves.
    The first pass over the nodes factors each in turn, solves against it
    and clears it (:func:`_clear_node`) by the bound those solves give
    (:func:`_node_bound`), so the error is that of factoring and estimating
    one node at a time.  The sketch keeps each LU for its later passes; the
    dense route holds one at a time.
    """
    n = section.n
    if sketch_below is None:
        sketch_below = n if section.banded else 0
    theta = 2.0 * np.pi * np.arange(q) / q
    nodes = center + radius * np.exp(1j * theta)
    limit = _PRECONDITION_RESNORM / radius
    # a real matrix with a real centre has conjugate-pair nodes, so P is real
    # and only the upper half circle needs solves
    real_pairs = section.real and center.imag == 0.0 and q % 2 == 0
    ks = range(q // 2 + 1) if real_pairs else range(q)
    weights = [(radius / q) * np.exp(1j * theta[k]) for k in ks]
    zs = [nodes[k] for k in ks]
    solve_nodes = zs if moments else None
    factors = _factored_nodes(section, zs)

    def guard(key):
        return lambda k, fact, x: _clear_node(fact, zs[k], limit, _node_bound(x, key), key)

    sketched = _SKETCH_COLUMNS < sketch_below
    sketch = None
    if sketched:
        factors = _KeptFactors(factors)
        sketch = _sketched_singular_values(
            factors, weights, n, real_pairs, sketch_below, solve_nodes, guard("probe_bound")
        )
    if sketch is None:
        solved = _weighted_solves(
            factors, weights, np.eye(n, dtype=complex), real_pairs, nodes=solve_nodes,
            guard=None if sketched else guard("frobenius"),
        )
        proj = solved if solve_nodes is None else solved[0]
        svals, probe_columns = _projection_singular_values(proj), n
    else:
        proj = None
        svals, probe_columns, solved = sketch
    rank, gap = _rank_and_gap(svals, q)
    return ContourRank(
        quadrature_points=q,
        projection=proj,
        rank=rank,
        gap=gap,
        singular_values=svals,
        probe_columns=probe_columns,
        route="dense" if proj is not None else "sketched",
        moments=solved if moments else None,
    )


# --------------------------------- windowed spectra -------------------------------


@dataclass
class WindowedCheck:
    """The count check of one :func:`windowed_spectrum` solve.

    ``found`` eigenvalues inside the circle against its ``contour_rank`` k,
    with the rank's kept/dropped singular-value ``gap`` (compare it with
    ``GAP_FACTOR``; None when nothing is kept or nothing dropped) and the
    ``probe_columns`` of the sketch.  ``fallback`` is None, or why the whole
    spectrum was computed instead; the fields the solve did not reach stay
    None.
    """

    found: int | None = None
    contour_rank: int | None = None
    gap: float | None = None
    probe_columns: int | None = None
    fallback: str | None = None


def _beyn_eigenvalues(a0: np.ndarray, a1: np.ndarray, rank: int) -> np.ndarray:
    """Eigenvalues of Beyn's reduced matrix V^H A1 W S^-1, with A0 = V S W^H cut at ``rank``."""
    if rank == 0:
        return np.zeros(0, dtype=complex)
    v, s, wh = np.linalg.svd(a0, full_matrices=False)
    return np.linalg.eigvals((v[:, :rank].conj().T @ a1 @ wh[:rank].conj().T) / s[:rank])


def _settled(section: numerics.Section, mu: complex, spacing: float) -> tuple[complex, float]:
    """The eigenvalue near the estimate ``mu``, as a function of its grid cell alone, and its residual.

    ``mu`` is refined (:meth:`numerics.Section.refined_eigenvalue`) to within
    rounding noise of an eigenvalue, snapped to the grid of the given
    power-of-2 ``spacing``, and refined again from the grid point.  Estimates
    of one eigenvalue from different circles refine into the same cell
    unless its noise straddles a cell edge, so a windowed spectrum holds the
    same bits whichever window it was extracted for.
    """
    mu, _ = section.refined_eigenvalue(mu, _REFINE_STEPS)
    grid = complex(spacing * round(mu.real / spacing), spacing * round(mu.imag / spacing))
    return section.refined_eigenvalue(grid, _REFINE_STEPS)


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """``values`` sorted by (Re, Im), each kept only when no kept one lies within ``tol``."""
    kept: list[complex] = []
    for v in values[np.lexsort((values.imag, values.real))]:
        if all(abs(v - u) > tol for u in kept):
            kept.append(v)
    return np.asarray(kept, dtype=complex)


def windowed_spectrum(m, window) -> tuple[numerics.EigenDecomposition, WindowedCheck]:
    """The eigenvalues of a section inside a circle around ``window``, by contour extraction.

    ``window`` is the rectangle (re0, re1, im0, im1).  The circle is its
    circumcircle with the radius enlarged by ``WINDOW_CIRCLE_MARGIN``, so the
    window's edges lie strictly inside.  One pass over its
    ``DEFAULT_QUADRATURE`` nodes, each factored once as :func:`contour_rank`
    factors it, gives the contour rank k of the circle and, from the same
    solves, Beyn's moments A0 = P Q and A1 = M Q on the sketch basis Q
    (W.-J. Beyn, Linear Algebra Appl. 436 (2012) 3839-3863).  The k x k
    reduced problem gives k eigenvalue estimates.  Each is refined by
    Rayleigh-quotient iteration and snapped to a grid of spacing about
    2^-24 ||A||_inf, which makes the value independent of the circle
    (:func:`_settled`).  A value counts as found when its residual is at
    most 1e-12 ||A||_inf (it is then an exact eigenvalue of a matrix that
    close to A), lies inside the circle, and is not within one grid spacing
    of a value found before it.

    Count check: the values kept must number exactly k.  When they do not,
    or the contour raises :class:`ContourError` or :class:`ResolutionError`,
    the whole spectrum comes from :func:`numerics.eig_dense` instead, and
    the returned :class:`WindowedCheck` says why.  A repeated eigenvalue
    takes that fallback too.  Otherwise the result has route ``windowed``,
    its ``window``, and every eigenvalue inside the circle, with residuals
    on demand (:meth:`numerics.Section.inverse_iteration_residual`).  ``m``
    is a Section, or an array read as one.
    """
    section = numerics.Section.of(m)
    re0, re1, im0, im1 = _bounds(window)
    center = complex(re0 + re1, im0 + im1) / 2.0
    radius = WINDOW_CIRCLE_MARGIN * abs(complex(re1, im1) - center)
    check = WindowedCheck()
    if not (np.isfinite(radius) and radius > 0.0):
        check.fallback = f"no circle around the window {tuple(window)}"
        return numerics.eig_dense(section), check
    try:
        contour = _contour_rank(section, center, radius, DEFAULT_QUADRATURE, moments=True)
    except (ContourError, ResolutionError) as exc:
        check.fallback = f"{type(exc).__name__}: {exc}"
        return numerics.eig_dense(section), check
    k = contour.rank
    check.contour_rank, check.probe_columns = k, contour.probe_columns
    check.gap = contour.gap if np.isfinite(contour.gap) else None
    spacing = np.ldexp(1.0, np.frexp(section.inf_norm)[1] - _SNAP_BITS)
    settled = [_settled(section, mu, spacing) for mu in _beyn_eigenvalues(*contour.moments, k)]
    accurate = [mu for mu, residual in settled if residual <= _RESIDUAL_REL * section.inf_norm]
    values = _distinct(np.array(accurate, dtype=complex), spacing)
    values = values[np.abs(values - center) < radius]
    check.found = values.size
    if values.size != k:
        check.fallback = f"found {values.size} eigenvalues inside the circle, contour rank {k}"
        return numerics.eig_dense(section), check
    return numerics.EigenDecomposition(values, "windowed", section, window=tuple(window)), check
