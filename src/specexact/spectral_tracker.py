"""Eigenvalue trajectories across truncation ladders and pollution classification.

A limit candidate found on the user's *certified* ladder (the family asserted
to satisfy the spectral-exactness hypotheses) is classified by two pieces of
evidence: a region-of-boundedness probe at the candidate and the stabilized
contour-projection rank.  A candidate where the certified ladder stays
bounded while an uncertified ladder's eigenvalues accumulate is flagged as
spurious.  Verdicts carry their evidence trail and are never silently
upgraded to proofs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics, resolvent_analysis as ra
from .errors import ContourError, ResolutionError
from .resolvent_analysis import ProbeVerdict, RegionProbe, SectionLadder

#: clustering radius for candidate merging: max(CAND_REL * scale, CAND_TOL_FACTOR * tol)
CAND_REL = 1e-6
CAND_TOL_FACTOR = 10.0
#: contour radius selection: half the gap to the next candidate, clamped
CONTOUR_RADIUS_CAP = 1.0
CONTOUR_RADIUS_FLOOR_FACTOR = 100.0
#: ranks must agree over this many trailing ladder sizes
STABLE_RANKS = 3
#: entries per block of the nearest-neighbor distances in ``_nn_spacing_radius``
_NN_BLOCK = 1 << 16


class ClassVerdict(str, enum.Enum):
    TRUE_EIGENVALUE = "TrueEigenvalue"
    SPURIOUS = "Spurious"
    UNDECIDED = "Undecided"


@dataclass
class SpectrumResult:
    """Eigenvalues (optionally with residuals) of one section, tagged by its ladder size."""

    size: object
    eigenvalues: np.ndarray
    residuals: np.ndarray | None = None

    @classmethod
    def from_eig(
        cls, size, decomposition: numerics.EigenDecomposition, window=None, residuals: bool = False
    ) -> "SpectrumResult":
        """The eigenvalues in the closed rectangle ``window`` (re0, re1, im0, im1), or all.

        The window's corners may come in any order.  Residuals are asked of
        the decomposition only with ``residuals``, and only for the
        eigenvalues kept.
        """
        w = decomposition.eigenvalues
        rows = np.arange(w.size)
        if window is not None:
            re0, re1, im0, im1 = ra._bounds(window)
            rows = rows[(w.real >= re0) & (w.real <= re1) & (w.imag >= im0) & (w.imag <= im1)]
        return cls(
            size=size,
            eigenvalues=w[rows],
            residuals=decomposition.residuals_at(rows) if residuals else None,
        )


@dataclass
class Trajectory:
    """One matched eigenvalue path along the ladder; sizes strictly increasing."""

    sizes: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def append(self, size, value: complex) -> None:
        self.sizes.append(size)
        self.values.append(complex(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> complex:
        return self.values[-1]

    def cauchy_tail(self) -> float:
        """Max consecutive step over (roughly) the last third of the path."""
        if len(self.values) < 2:
            return float("inf")
        diffs = np.abs(np.diff(np.asarray(self.values)))
        k = max(1, diffs.shape[0] // 3)
        return float(diffs[-k:].max())


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-d array of n >= 1 entries, bit for bit, from one partition.

    The partition is ``np.median``'s, at the middle entries and the last, so
    equal entries (0.0 and -0.0) land as there, and so is the rest:
    ``np.mean`` of the middle entry or the two middle ones, NaN when the last
    entry is NaN.  ``np.median`` itself would import ``numpy.ma`` for its
    masked-array check.
    """
    n = x.shape[0]
    half = n // 2
    part = np.partition(x, [half - 1, half, -1] if n % 2 == 0 else [half, -1])
    return float("nan") if np.isnan(part[-1]) else float(np.mean(part[half - 1 + n % 2 : half + 1]))


def _nn_spacing_radius(values: np.ndarray) -> float:
    """Matching radius: half the median nearest-neighbor spacing.

    The distances are taken in blocks of about ``_NN_BLOCK`` entries, so
    memory stays O(n) per block rather than an n x n matrix; each row's
    minimum is the same reduction either way.
    """
    n = values.shape[0]
    if n < 2:
        return float("inf")
    step = max(1, _NN_BLOCK // n)
    nn = np.empty(n)
    for start in range(0, n, step):
        block = np.abs(values[start : start + step, None] - values[None, :])
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = np.inf
        nn[start : start + step] = block.min(axis=1)
    med = _median(nn)
    return float("inf") if med == 0.0 else 0.5 * med


def _assignment(prev: np.ndarray, curr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-total-cost assignment for the costs |prev[i] - curr[j]|.

    The shortest augmenting path method of Jonker & Volgenant (1987), in the
    form of Crouse (2016, IEEE TAES 52(4)), step for step as SciPy's
    ``rectangular_lsap.cpp`` does it, so it returns the same ``(rows, cols)``
    as SciPy's solver on the full cost matrix, ties included.  A row's costs
    are computed when the search visits that row, so memory is O(n).  A
    non-finite cost raises ``ValueError``.
    """
    transpose = prev.shape[0] > curr.shape[0]
    a, b = (curr, prev) if transpose else (prev, curr)
    if not (a.imag.any() or b.imag.any()):
        # |x + 0j| is |x| exactly, and real differences are cheaper
        a, b = np.ascontiguousarray(a.real), np.ascontiguousarray(b.real)
    nr, nc = a.shape[0], b.shape[0]
    u, v = np.zeros(nr), np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    path, shortest = np.empty(nc, dtype=np.intp), np.empty(nc)
    cost, shorter = np.empty(nc), np.empty(nc, dtype=bool)
    for cur in range(nr):
        # Dijkstra from row cur over the reduced costs.  SciPy scans a list of
        # the remaining columns that starts reversed (so a constant cost gives
        # the identity) and drops a scanned column by swap-remove; pos[j] is
        # column j's place in that list, which only breaks ties.  Here a scanned
        # column is masked by an infinite dual instead, so each pass is over all
        # nc columns.
        order = np.arange(nc - 1, -1, -1)
        pos = order.copy()
        dist, src, duals = np.full(nc, np.inf), np.empty(nc, dtype=np.intp), v.copy()
        rows, cols = [], []
        i, min_val, sink, left = cur, 0.0, -1, nc
        while sink < 0:
            rows.append(i)
            np.abs(a[i] - b, out=cost)
            if i == cur and not np.isfinite(cost).all():  # each whole cost row passes here once
                raise ValueError("assignment costs must be finite")
            np.add(cost, min_val, out=cost)
            np.subtract(cost, u[i], out=cost)
            np.subtract(cost, duals, out=cost)
            np.less(cost, dist, out=shorter)
            np.copyto(dist, cost, where=shorter)
            np.copyto(src, i, where=shorter)
            j = int(dist.argmin())
            min_val = dist[j]
            ties = np.flatnonzero(dist == min_val)
            if ties.size > 1:
                # the last unassigned column in list order wins, else the first
                free = ties[row4col[ties] < 0]
                j = int(free[pos[free].argmax()] if free.size else ties[pos[ties].argmin()])
            shortest[j], path[j] = min_val, src[j]
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            left -= 1
            order[pos[j]] = order[left]
            pos[order[left]] = pos[j]
            dist[j], duals[j] = np.inf, -np.inf
        u[cur] += min_val
        others = np.asarray(rows[1:], dtype=np.intp)
        u[others] += min_val - shortest[col4row[others]]
        cols = np.asarray(cols, dtype=np.intp)
        v[cols] -= min_val - shortest[cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        by_row = np.argsort(col4row)
        return col4row[by_row], by_row
    return np.arange(nr), col4row


def match_trajectories(spectra: Sequence[SpectrumResult]) -> list[Trajectory]:
    """Pair eigenvalues between consecutive sizes by minimum-total-cost assignment.

    Cost is |lam - mu|; pairs costlier than the matching radius of the step
    (:func:`_nn_spacing_radius` of the smaller spectrum) are cut (the
    trajectory ends and a new one starts).  Spectra are lex-sorted first so
    ties break deterministically by (Re, Im).
    """
    if len(spectra) < 2:
        raise ValueError("need a ladder of at least 2 spectra")
    sizes = [s.size for s in spectra]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("spectra must come in strictly increasing size order")

    sorted_vals = []
    for s in spectra:
        w = np.asarray(s.eigenvalues, dtype=complex)
        sorted_vals.append(w[np.lexsort((w.imag, w.real))])

    trajectories: list[Trajectory] = []
    active: dict[int, Trajectory] = {}
    for j, v in enumerate(sorted_vals[0]):
        t = Trajectory()
        t.append(sizes[0], v)
        trajectories.append(t)
        active[j] = t

    for step in range(1, len(spectra)):
        prev, curr = sorted_vals[step - 1], sorted_vals[step]
        radius = _nn_spacing_radius(prev if prev.shape[0] <= curr.shape[0] else curr)
        next_active: dict[int, Trajectory] = {}
        if prev.size and curr.size:
            rows, cols = _assignment(prev, curr)
            cost = np.abs(prev[rows] - curr[cols])
            for i, j, c in zip(rows, cols, cost):
                if c <= radius and i in active:
                    t = active[i]
                    t.append(sizes[step], curr[j])
                    next_active[j] = t
        for j, v in enumerate(curr):
            if j not in next_active:
                t = Trajectory()
                t.append(sizes[step], v)
                trajectories.append(t)
                next_active[j] = t
        active = next_active
    return trajectories


@dataclass
class LimitCandidate:
    """A converged limit point with merged multiplicity."""

    value: complex
    multiplicity: int


def detect_limits(trajectories: Sequence[Trajectory], tol: float, *, ladder_length: int) -> list[LimitCandidate]:
    """Converged trajectories become candidates; nearby candidates merge.

    A trajectory qualifies when its Cauchy tail is below ``tol`` and it spans
    at least half the ladder.  Candidates closer than
    max(``CAND_REL`` * scale, ``CAND_TOL_FACTOR`` * tol) merge with
    multiplicities summed; ``scale`` is the largest eigenvalue magnitude seen.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    qualified = [
        t
        for t in trajectories
        if len(t) >= max(2, -(-ladder_length // 2)) and t.cauchy_tail() < tol
    ]
    if not qualified:
        return []
    scale = max((float(np.abs(np.asarray(t.values)).max()) for t in trajectories if len(t)), default=0.0)
    radius = max(CAND_REL * scale, CAND_TOL_FACTOR * tol)
    values = np.asarray([t.last for t in qualified])
    order = np.lexsort((values.imag, values.real))
    groups: list[list[int]] = []
    for idx in order:
        for g in groups:
            if abs(values[idx] - values[g[0]]) <= radius:
                g.append(idx)
                break
        else:
            groups.append([idx])
    out = [LimitCandidate(value=complex(values[g].mean()), multiplicity=len(g)) for g in groups]
    out.sort(key=lambda c: (c.value.real, c.value.imag))
    return out


def candidate_radius(lam: complex, others: Sequence[complex], clustering_radius: float) -> float:
    """Contour radius: half the gap to the nearest other candidate, clamped.

    The floor (100x clustering radius) lifts radii that would drown in
    cluster noise; the cap 1.0 always wins.  Candidates denser than the floor
    make the contour precondition fail downstream, which is the intended
    contour-blocked degradation.
    """
    gap = min((abs(lam - o) for o in others if o != lam), default=np.inf)
    floor = CONTOUR_RADIUS_FLOOR_FACTOR * clustering_radius
    return min(CONTOUR_RADIUS_CAP, max(gap / 2.0, floor))


@dataclass
class ClassifiedPoint:
    """Classification of one limit candidate with its full evidence trail.

    ``contours`` holds, per rank size, the size and the
    :meth:`resolvent_analysis.ContourRank.margins` of its contour (route,
    gap, node distance), all three None where the contour was blocked;
    ``to_dict`` leaves it out.
    """

    value: complex
    verdict: ClassVerdict
    multiplicity: int | None
    probe: RegionProbe
    rank_sizes: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    source: str = ""
    note: str = ""
    contours: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lambda": [self.value.real, self.value.imag],
            "verdict": self.verdict.value,
            "multiplicity": self.multiplicity,
            "probe": self.probe.to_dict(),
            "rank_sizes": list(self.rank_sizes),
            "ranks": list(self.ranks),
            "source": self.source,
            "note": self.note,
        }


def _contour_ranks(ladder: SectionLadder, sizes, lam: complex, radius: float, quadrature_points: int):
    """Contour rank at ``lam`` per size (None where blocked), and its margins (see :class:`ClassifiedPoint`).

    Also the last blocked size's note, or "".
    """
    ranks: list[int | None] = []
    contours: list[dict] = []
    note = ""
    for size in sizes:
        try:
            contour = ra.contour_rank(ladder.matrix(size), lam, radius, quadrature_points)
        except (ContourError, ResolutionError) as exc:
            ranks.append(None)
            contours.append({"size": size, "route": None, "gap": None, "node_distance": None})
            note = f"contour-blocked at size {size}: {exc}"
        else:
            ranks.append(contour.rank)
            contours.append({"size": size, **contour.margins()})
    return ranks, contours, note


def classify_point(
    lam: complex,
    certified: SectionLadder,
    uncertified: SectionLadder | None = None,
    *,
    tol: float = 1e-6,
    neighbors: Sequence[complex] = (),
    quadrature_points: int = ra.DEFAULT_QUADRATURE,
) -> ClassifiedPoint:
    """Classify a limit candidate as TrueEigenvalue(m) / Spurious / Undecided.

    TrueEigenvalue requires UnboundedEvidence at ``lam`` on the certified
    ladder plus contour ranks stabilized at m >= 1 over the last three
    certified sizes.  Spurious requires BoundedEvidence on the certified
    ladder while the uncertified ladder's eigenvalues accumulate at ``lam``
    for at least half its sizes.  A blocked contour degrades the verdict to
    Undecided with a note, never an exception.
    """
    lam = complex(lam)
    probe = ra.region_probe(certified, lam)
    clustering_radius = max(CAND_REL * probe.scale, CAND_TOL_FACTOR * tol)

    if probe.verdict is ProbeVerdict.UNBOUNDED:
        radius = candidate_radius(lam, neighbors, clustering_radius)
        sizes = certified.sizes[-STABLE_RANKS:]
        ranks, contours, note = _contour_ranks(certified, sizes, lam, radius, quadrature_points)
        good = [r for r in ranks if r is not None]
        if len(good) == len(sizes) and len(set(good)) == 1 and good[0] >= 1:
            return ClassifiedPoint(
                value=lam,
                verdict=ClassVerdict.TRUE_EIGENVALUE,
                multiplicity=good[0],
                probe=probe,
                rank_sizes=list(sizes),
                ranks=ranks,
                source=certified.label,
                contours=contours,
            )
        return ClassifiedPoint(
            value=lam,
            verdict=ClassVerdict.UNDECIDED,
            multiplicity=None,
            probe=probe,
            rank_sizes=list(sizes),
            ranks=ranks,
            source=certified.label,
            note=note or "contour ranks did not stabilize at m >= 1",
            contours=contours,
        )

    if probe.verdict is ProbeVerdict.BOUNDED and uncertified is not None:
        hits = 0
        for size in uncertified.sizes:
            w = uncertified.spectrum(size).eigenvalues
            if w.size and np.min(np.abs(w - lam)) <= clustering_radius:
                hits += 1
        if 2 * hits >= len(uncertified.sizes):
            return ClassifiedPoint(
                value=lam,
                verdict=ClassVerdict.SPURIOUS,
                multiplicity=None,
                probe=probe,
                source=f"{certified.label} (certified) vs {uncertified.label} (uncertified)",
                note=f"uncertified eigenvalues within {clustering_radius:.3e} at "
                f"{hits}/{len(uncertified.sizes)} sizes",
            )
        return ClassifiedPoint(
            value=lam,
            verdict=ClassVerdict.UNDECIDED,
            multiplicity=None,
            probe=probe,
            source=certified.label,
            note="bounded on the certified ladder; no uncertified accumulation",
        )

    note = (
        "in resolvent set: no trajectory converges here"
        if probe.verdict is ProbeVerdict.BOUNDED
        else "probe inconclusive"
    )
    return ClassifiedPoint(
        value=lam,
        verdict=ClassVerdict.UNDECIDED,
        multiplicity=None,
        probe=probe,
        source=certified.label,
        note=note,
    )


@dataclass
class MultiplicityCheck:
    """Per-size contour ranks with the stabilized value, if any."""

    value: complex
    sizes: list
    ranks: list
    multiplicity: int | None
    first_stable_size: object | None
    note: str = ""


def multiplicity_check(
    lam: complex,
    certified: SectionLadder,
    *,
    radius: float | None = None,
    quadrature_points: int = ra.DEFAULT_QUADRATURE,
) -> MultiplicityCheck:
    """Contour rank per ladder size; the multiplicity is the stabilized value.

    Non-stabilizing ranks produce an instability note, not an exception.
    The default radius is half the spectral gap around ``lam`` in the largest
    section, clamped by :func:`candidate_radius` like the classifier's contours.
    """
    lam = complex(lam)
    if radius is None:
        w = certified.spectrum(certified.sizes[-1]).eigenvalues
        spectrum_scale = max(float(np.abs(w).max(initial=0.0)), 1.0)
        near = CAND_REL * spectrum_scale
        radius = candidate_radius(lam, w[np.abs(w - lam) > max(near, 1e-12)], near)
    ranks, _, note = _contour_ranks(certified, certified.sizes, lam, radius, quadrature_points)
    multiplicity = None
    first_stable = None
    good = [(s, r) for s, r in zip(certified.sizes, ranks) if r is not None]
    if len(good) >= STABLE_RANKS:
        tail = [r for _, r in good[-STABLE_RANKS:]]
        if len(set(tail)) == 1:
            multiplicity = tail[0]
            # walk back to the first size of the final constant run
            first_stable = good[-STABLE_RANKS][0]
            for s, r in reversed(good):
                if r == multiplicity:
                    first_stable = s
                else:
                    break
    if multiplicity is None and not note:
        note = "ranks did not stabilize over the last three sizes"
    return MultiplicityCheck(
        value=lam,
        sizes=list(certified.sizes),
        ranks=ranks,
        multiplicity=multiplicity,
        first_stable_size=first_stable,
        note=note,
    )


def track_and_classify(
    certified: SectionLadder,
    uncertified: SectionLadder | None = None,
    *,
    window=None,
    tol: float = 1e-6,
    quadrature_points: int = ra.DEFAULT_QUADRATURE,
) -> list[ClassifiedPoint]:
    """Full pipeline: spectra -> trajectories -> limits -> classification.

    ``window`` restricts tracking to a rectangle (re0, re1, im0, im1); the
    inclusion evidence is only about candidates found there.
    """
    spectra = [
        SpectrumResult.from_eig(size, certified.spectrum(size, window), window) for size in certified.sizes
    ]
    trajectories = match_trajectories(spectra)
    candidates = detect_limits(trajectories, tol, ladder_length=len(certified.sizes))
    values = [c.value for c in candidates]
    out = []
    for cand in candidates:
        out.append(
            classify_point(
                cand.value,
                certified,
                uncertified,
                tol=tol,
                neighbors=[v for v in values if v != cand.value],
                quadrature_points=quadrature_points,
            )
        )
    return out
