"""Generative infinite operator matrices: truncation, block splitting, band profiles.

A spec is a name and a function ``diagonals(k)`` that gives the leading
k-by-k section as the ``{j - i: diagonal}`` dict :class:`numerics.Section`
accepts, which checks it, stores it real when it can and trims its all-zero
outer diagonals.  Each built-in spec computes its diagonals with numpy over
the 1-based row index i of A_ij = <A e_j, e_i>.  :func:`truncate` and
:class:`BlockSplit` give Sections declared from them, with no dense A.
Specs are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, PoleError
from .numerics import Section

#: ratio-test threshold for the summability hints (cases b/c)
RATIO_THRESHOLD = 0.99


@dataclass(frozen=True)
class OperatorSpec:
    """An infinite matrix given by its leading sections' diagonals: ``diagonals(k)`` -> {j - i: diagonal}."""

    name: str
    diagonals: Callable[[int], dict]


def truncate(spec: OperatorSpec, k: int) -> Section:
    """Leading k-by-k principal section (the Galerkin compression)."""
    if k < 1:
        raise ValueError(f"section size must be >= 1, got {k}")
    return Section(spec.diagonals(int(k)))


# ------------------------------- block splitting ------------------------------


@dataclass(frozen=True)
class BlockSplit:
    """Splitting A = T + S with T the block diagonal over the given cut points.

    ``diagonals`` are A's up to the last cut, assembled and checked once;
    each section of T and S and each diagonal block is a Section declared
    from them, with no dense A.
    """

    cut_points: tuple[int, ...]
    diagonals: dict = field(repr=False)

    def _masked(self, k: int, inside: bool) -> Section:
        """A's leading k-by-k section, keeping the entries whose row and column share a block iff ``inside``."""
        if not 1 <= k <= self.cut_points[-1]:
            raise ValueError(f"cut points cover only 1..{self.cut_points[-1]}, need {k}")
        block = np.searchsorted(self.cut_points, np.arange(k), side="right")
        # entry t of diagonal off sits in rows and columns t and t + |off|
        return Section({
            off: np.where((block[: k - abs(off)] == block[abs(off) :]) == inside, d[: k - abs(off)], 0.0)
            for off, d in self.diagonals.items()
            if abs(off) < k
        })

    def diag_section(self, k: int) -> Section:
        """Leading k-by-k section of T = diag(B_n)."""
        return self._masked(k, True)

    def coupling_section(self, k: int) -> Section:
        """Leading k-by-k section of S = A - T (exact complement of diag_section)."""
        return self._masked(k, False)

    @property
    def diagonal_blocks(self) -> tuple[Section, ...]:
        """The blocks B_n = (A_ij) for k_{n-1} < i, j <= k_n, declared from A's diagonals on each read."""
        diags = self.diagonals
        return tuple(
            Section({off: diags[off][lo : cut - abs(off)] for off in range(lo - cut + 1, cut - lo) if off in diags})
            for lo, cut in zip((0,) + self.cut_points, self.cut_points)
        )


def split_blocks(spec: OperatorSpec, cut_points: Sequence[int]) -> BlockSplit:
    """Split A = T + S over the cut points k_1 < k_2 < ..., from A's diagonals up to the last cut."""
    cuts = tuple(int(c) for c in cut_points)
    if not cuts or any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])) or cuts[0] < 1:
        raise ValueError("cut points must be strictly increasing positive integers")
    return BlockSplit(cut_points=cuts, diagonals=Section(spec.diagonals(cuts[-1])).diagonals)


# -------------------------------- band profiles -------------------------------


@dataclass
class BandProfile:
    """Nonzero counts and envelope constants of a scanned leading section.

    Arrays are stored 0-based: ``row_counts[i-1]`` is #N_i, ``col_envelope[j-1]``
    is D_j, and the partial sums are cumulative in the scan index (hence
    monotone nondecreasing).  ``hint`` is trend evidence for the summability
    cases {a, b, c} -- never a proof.
    """

    scan_limit: int
    lam: complex | None
    row_counts: np.ndarray
    col_counts: np.ndarray
    row_envelope: np.ndarray
    col_envelope: np.ndarray
    row_partial_sums: np.ndarray
    col_partial_sums: np.ndarray
    hint: str
    envelope_bounded: bool

    @property
    def max_row_count(self) -> int:
        return int(self.row_counts.max()) if self.row_counts.size else 0

    @property
    def max_col_count(self) -> int:
        return int(self.col_counts.max()) if self.col_counts.size else 0


def _decade_ratio(terms: np.ndarray) -> float:
    """Geometric per-step ratio of the nonzero terms over the last decade of indices."""
    limit = terms.shape[0]
    start = max(0, limit // 10 - 1)
    idx = np.nonzero(terms[start:] > 0)[0] + start
    if idx.size < 2:
        return np.inf
    first, last = idx[0], idx[-1]
    if terms[last] >= terms[first]:
        return np.inf if terms[first] == 0 else (terms[last] / terms[first]) ** (1.0 / (last - first))
    return float((terms[last] / terms[first]) ** (1.0 / (last - first)))


def _profile(mags: dict, k: int) -> tuple:
    """Row and column nonzero counts, then maxima, of the leading k-by-k section of magnitude diagonals ``mags``."""
    # entry t of diagonal off sits in row t + max(-off, 0) and column t + max(off, 0)
    offs = [off for off in mags if abs(off) < k]
    vals = np.concatenate([mags[off][: k - abs(off)] for off in offs])
    rows = np.concatenate([np.arange(max(-off, 0), k + min(-off, 0)) for off in offs])
    cols = np.concatenate([np.arange(max(off, 0), k + min(off, 0)) for off in offs])
    row_env, col_env = np.zeros(k), np.zeros(k)
    np.maximum.at(row_env, rows, vals)
    np.maximum.at(col_env, cols, vals)
    nz = vals > 0.0
    return np.bincount(rows[nz], minlength=k), np.bincount(cols[nz], minlength=k), row_env, col_env


def band_profile(
    spec: OperatorSpec,
    scan_limit: int,
    lam: complex | None = None,
    normalize_by_diag: bool = False,
) -> BandProfile:
    """Profile #N_i, #M_j, C_i, D_j over the leading section of size ``scan_limit``, from its diagonals.

    With ``normalize_by_diag`` the profiled matrix is B = S (T - lam)^{-1}
    where T is the diagonal part, i.e. B_ij = A_ij / (A_jj - lam) off the
    diagonal and 0 on it; lam must avoid every scanned diagonal entry.
    """
    if scan_limit < 2:
        raise ValueError("scan_limit must be >= 2")
    diags = Section(spec.diagonals(scan_limit)).diagonals
    if normalize_by_diag:
        if lam is None:
            raise ValueError("normalize_by_diag requires lam")
        d = diags[0] - lam
        bad = np.nonzero(np.abs(d) <= 1e-12)[0]
        if bad.size:
            raise PoleError(
                f"lam = {lam} hits the diagonal entry at j = {bad[0] + 1}", index=int(bad[0] + 1)
            )
        mags = {off: np.abs(v / d[max(off, 0) :][: v.size]) for off, v in diags.items()}
        mags[0] = np.zeros(scan_limit)
    else:
        mags = {off: np.abs(v) for off, v in diags.items()}

    row_counts, col_counts, row_env, col_env = _profile(mags, scan_limit)
    row_terms = row_env**2 * row_counts
    col_terms = col_env**2 * col_counts

    # stability diagnostics: compare against the half-scan subsection
    quarter = scan_limit // 4
    half_rows, half_cols, half_env, _ = _profile(mags, scan_limit // 2)
    rows_stable = bool(np.array_equal(half_rows[:quarter], row_counts[:quarter]))
    cols_stable = bool(np.array_equal(half_cols[:quarter], col_counts[:quarter]))
    max_stable = bool(half_rows.max() == row_counts.max() and half_cols.max() == col_counts.max())
    envelope_bounded = bool(row_env.max() <= half_env.max() * (1 + 1e-12) + 1e-300)

    if rows_stable and cols_stable and max_stable:
        hint = "a"
    elif rows_stable and _decade_ratio(row_terms) < RATIO_THRESHOLD:
        hint = "b"
    elif cols_stable and _decade_ratio(col_terms) < RATIO_THRESHOLD:
        hint = "c"
    else:
        hint = "none"

    return BandProfile(
        scan_limit=scan_limit,
        lam=lam,
        row_counts=row_counts,
        col_counts=col_counts,
        row_envelope=row_env,
        col_envelope=col_env,
        row_partial_sums=np.cumsum(row_terms),
        col_partial_sums=np.cumsum(col_terms),
        hint=hint,
        envelope_bounded=envelope_bounded,
    )


# -------------------------------- built-in specs ------------------------------


def jacobi_spec() -> OperatorSpec:
    """Selfadjoint Jacobi matrix with zero diagonal and weights A_{i,i+1} = A_{i+1,i} = q_i.

    q_i is i + 1 for odd i and i / 2 for even i.  Block-aligned cuts (2, 4,
    6, ...) give B_n = [[0, 2n], [2n, 0]]; the full Galerkin family produces
    an eigenvalue 0 on every odd section.
    """

    def diagonals(k: int) -> dict:
        i = np.arange(1, k)
        q = np.where(i % 2 == 1, i + 1.0, i / 2.0)
        return {-1: q, 0: np.zeros(k), 1: q}

    return OperatorSpec(name="jacobi", diagonals=diagonals)


def upper_triangular_spec() -> OperatorSpec:
    """Upper triangular matrix with A_ij = j above the diagonal and A_jj = j^3."""

    def diagonals(k: int) -> dict:
        j = np.arange(1.0, k + 1)
        return {0: j**3, **{off: j[off:] for off in range(1, k)}}

    return OperatorSpec(name="upper_triangular", diagonals=diagonals)


def custom_banded_spec(
    table: Sequence[Sequence[complex]], tail: str = "zero", name: str = "custom_banded"
) -> OperatorSpec:
    """Spec from a finite entry table plus a tail rule.

    ``tail='zero'``: entries outside the table vanish.  ``tail='repeat_edge'``:
    each diagonal (offset j - i) continues beyond the table with its last
    tabulated value, so constant-band operators extend naturally.
    """
    arr = np.asarray(table, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DataError("custom_banded table must be a nonempty square matrix")
    if not np.all(np.isfinite(arr)):
        raise DataError("custom_banded table has a non-finite entry")
    if tail not in ("zero", "repeat_edge"):
        raise ValueError(f"unknown tail rule {tail!r}; choose 'zero' or 'repeat_edge'")
    s = arr.shape[0]

    def diagonals(k: int) -> dict:
        out = {}
        for off in range(1 - min(s, k), min(s, k)):
            tabulated = np.diagonal(arr, off)
            edge = tabulated[-1] if tail == "repeat_edge" else 0.0
            length = k - abs(off)
            out[off] = np.concatenate([tabulated[:length], np.full(max(length - tabulated.size, 0), edge)])
        return out

    return OperatorSpec(name=name, diagonals=diagonals)
