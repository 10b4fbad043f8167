"""Computable sufficient-condition constants, reported as pass/fail evidence.

Each checker evaluates the finite-section counterpart of one theorem's
hypothesis and reports the computed constants together with a verdict.
Sups over the truncation family are sups over the computed ladder.  The
thresholds are named constants of this module: ``MARGIN`` guards the strict
inequalities of :func:`relative_bound` and :func:`gamma_product_2x2`,
``DECAY_FACTOR`` and ``TAIL_THRESHOLD`` judge
:func:`uniform_resolvent_decay`, and ``EPS_GRID`` sets the search of
:func:`sl_lambda0_search`.  Verdicts are evidence about the
scanned range, never proofs about all n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .errors import AssumptionError, PoleError
from .operator_model import BandProfile

#: PassEvidence for a sup (or product) of at most 1 - MARGIN
MARGIN = 1e-3
#: uniform decay: the head-third geometric mean is at least DECAY_FACTOR times the tail-third one ...
DECAY_FACTOR = 2.0
#: ... and the tail minimum is below TAIL_THRESHOLD
TAIL_THRESHOLD = 0.1
POLE_REL = 1e-12


class Verdict(str, enum.Enum):
    PASS = "PassEvidence"
    FAIL = "FailEvidence"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class HypothesisReport:
    """Computed constants and per-size evidence for one theorem hypothesis."""

    theorem: str
    lam: complex | None
    constants: dict
    per_size: dict
    verdict: Verdict
    notes: str = ""

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            if isinstance(v, np.bool_):
                return bool(v)
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, np.ndarray):
                return [enc(x) for x in v.tolist()]
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v

        return {
            "theorem": self.theorem,
            "lambda": None if self.lam is None else [self.lam.real, self.lam.imag],
            "constants": {k: enc(v) for k, v in self.constants.items()},
            "per_size": {k: enc(v) for k, v in self.per_size.items()},
            "verdict": self.verdict.value,
            "notes": self.notes,
        }


def _check_pole(smin: float, norm: float, message: str, index) -> None:
    """:class:`PoleError` with ``message`` and ``index`` when sigma_min(A - lam) is at most ``POLE_REL`` max(||A||, 1).

    lam is then (numerically) in the spectrum of A.
    """
    if smin <= POLE_REL * max(norm, 1.0):
        raise PoleError(message, index=index)


def _pole_checked(section, lam: complex, message: str, index) -> tuple[numerics.Section, float]:
    """A Section (an array is read as one) and sigma_min(A - lam), checked by :func:`_check_pole`."""
    section = numerics.Section.of(section)
    smin = section.sigma_min(lam)
    _check_pole(smin, section.norm, message, index)
    return section, smin


#: the routes of _gamma, counted per call in the open Ledger's ``gamma_routes``
GAMMA_ROUTES = ("eigenvalues", "svd")


def _gamma(t, s, lam: complex, size, what: str) -> float:
    """||S (T - lam)^-1||, by one of ``GAMMA_ROUTES``; PoleError when lam is in T's spectrum.

    T and S are Sections, or arrays read as them.  The pole check
    (:func:`_check_pole`) comes first on either route.
    ``eigenvalues``: T and S are declared g H + w I and u H + v I over one
    Hermitian tridiagonal H (order-1 :class:`numerics.Kronecker`s, from
    :func:`discretize.sl_blocks`), so the product is normal, with norm
    max |(u theta + v) / (g theta + w - lam)| over H's eigenvalues theta
    (``dstevd``, no vectors, kept by H: one eigensolve for both products
    over a shared H).  T is normal too, so the pole check reads the same
    theta: sigma_min(T - lam) = min |g theta + w - lam|, ||T|| = max |g theta + w|.
    ``svd``: every other input, sigma_min(T - lam) by ``Section.sigma_min``,
    then ||(lam - T)^-H S^H|| by adjoint solves against ``Section.factor`` and
    the SVD of the n x n result; S is made dense only for its own solve
    (:meth:`numerics.Section.dense`, not ``data``).
    """
    message = f"lambda = {lam} is (numerically) in the spectrum of {what}"
    tk, sk = getattr(t, "kronecker", None), getattr(s, "kronecker", None)
    if tk is not None and sk is not None and tk.p == sk.p == 1 and tk.base is sk.base:
        theta = tk.base.tridiagonal.eigenvalues()
        (block,), (coupling,) = tk.blocks(theta), sk.blocks(theta)
        poles = block - lam
        _check_pole(np.abs(poles).min(), np.abs(block).max(), message, size)
        numerics.Ledger.count("gamma_routes", "eigenvalues")
        return float(np.abs(coupling / poles).max())
    t, _ = _pole_checked(t, lam, message, size)
    numerics.Ledger.count("gamma_routes", "svd")
    s = s.dense() if isinstance(s, numerics.Section) else np.asarray(s)
    return numerics.op_norm(t.factor(lam).solve(s.conj().T, adjoint=True))


def relative_bound(
    t_sections: Sequence,
    s_sections: Sequence,
    lam: complex,
    sizes: Sequence | None = None,
    *,
    tag: str = "PerturbGSR",
) -> HypothesisReport:
    """gamma_n = ||S_n (T_n - lam)^{-1}|| per section; PassEvidence iff sup <= 1 - ``MARGIN``.

    ``tag`` selects which perturbation theorem the report is filed under
    ('PerturbGSR' for resolvent convergence, 'PerturbDiscComp' for discrete
    compactness -- the computed quantity is the same).
    """
    lam = complex(lam)
    if len(t_sections) != len(s_sections):
        raise ValueError("need matching T and S section lists")
    t_sections = [numerics.Section.of(t) for t in t_sections]
    sizes = list(sizes) if sizes is not None else [t.n for t in t_sections]
    if len(sizes) != len(t_sections):
        raise ValueError(f"need one size per section: {len(sizes)} sizes for {len(t_sections)} sections")
    gammas = []
    for size, t, s in zip(sizes, t_sections, s_sections):
        gammas.append(_gamma(t, s, lam, size, f"T-section at size {size}"))
    gammas = np.asarray(gammas)
    sup = float(gammas.max())
    third = max(1, len(gammas) // 3)
    verdict = Verdict.PASS if sup <= 1.0 - MARGIN else Verdict.FAIL
    return HypothesisReport(
        theorem=tag,
        lam=lam,
        constants={"gamma_sup": sup, "margin": MARGIN},
        per_size={
            "sizes": sizes,
            "gamma": gammas,
            "head_mean": float(gammas[:third].mean()),
            "tail_mean": float(gammas[-third:].mean()),
        },
        verdict=verdict,
    )


def gamma_product_2x2(
    a_sections: Sequence,
    b_sections: Sequence,
    c_sections: Sequence,
    d_sections: Sequence,
    lam: complex,
    sizes: Sequence | None = None,
) -> HypothesisReport:
    """gamma^AC = sup ||C_n (A_n-lam)^{-1}||, gamma^DB = sup ||B_n (D_n-lam)^{-1}||.

    PassEvidence iff the product is <= 1 - ``MARGIN``.  Each norm is one
    :func:`_gamma` call: from the eigenvalues of T1 or T2 when the coupling
    and its diagonal block are declared over one T (constant couplings in
    :func:`discretize.sl_blocks`), else by solves and an SVD.
    """
    lam = complex(lam)
    lengths = {len(a_sections), len(b_sections), len(c_sections), len(d_sections)}
    if len(lengths) != 1:
        raise ValueError("the four section lists must have equal length")
    a_sections = [numerics.Section.of(a) for a in a_sections]
    sizes = list(sizes) if sizes is not None else [a.n for a in a_sections]
    if len(sizes) != len(a_sections):
        raise ValueError(f"need one size per section: {len(sizes)} sizes for {len(a_sections)} sections")
    g_ac, g_db = [], []
    for size, a, b, c, d in zip(sizes, a_sections, b_sections, c_sections, d_sections):
        g_ac.append(_gamma(a, c, lam, size, f"A-section at size {size}"))
        g_db.append(_gamma(d, b, lam, size, f"D-section at size {size}"))
    gamma_ac = float(np.max(g_ac))
    gamma_db = float(np.max(g_db))
    product = gamma_ac * gamma_db
    return HypothesisReport(
        theorem="TwoByTwo",
        lam=lam,
        constants={"gamma_ac": gamma_ac, "gamma_db": gamma_db, "product": product, "margin": MARGIN},
        per_size={"sizes": sizes, "gamma_ac": np.asarray(g_ac), "gamma_db": np.asarray(g_db)},
        verdict=Verdict.PASS if product <= 1.0 - MARGIN else Verdict.FAIL,
    )


def uniform_resolvent_decay(block_family: Sequence, lam: complex, *, tag: str = "DiagonalDecay") -> HypothesisReport:
    """Decay profile d_j = sup_n ||(B_j^{(n)} - lam)^{-1}|| along the block index j = 1, 2, ....

    ``block_family[j - 1]`` is either one matrix B_j (a ``numerics.Section``
    or an array) or a sequence of them over the inner n-range.  PassEvidence
    iff the head-third geometric mean exceeds the tail-third one by at least
    ``DECAY_FACTOR`` and the tail minimum is below ``TAIL_THRESHOLD``.  File
    under 'Galerkin' via ``tag`` when the blocks come from a block-aligned
    finite-section splitting.
    """
    lam = complex(lam)
    profile = []
    js = list(range(1, len(block_family) + 1))
    for j, entry in zip(js, block_family):
        mats = entry if isinstance(entry, (list, tuple)) else [entry]
        sup = 0.0
        for mat in mats:
            _, smin = _pole_checked(mat, lam, f"lambda = {lam} hits block j = {j}", j)
            sup = max(sup, 1.0 / smin)
        profile.append(sup)
    profile = np.asarray(profile)
    third = max(1, len(profile) // 3)
    head = float(np.exp(np.mean(np.log(profile[:third]))))
    tail = float(np.exp(np.mean(np.log(profile[-third:]))))
    tail_min = float(profile[-third:].min())
    ok = head >= DECAY_FACTOR * tail and tail_min < TAIL_THRESHOLD
    return HypothesisReport(
        theorem=tag,
        lam=lam,
        constants={
            "head_geomean": head,
            "tail_geomean": tail,
            "tail_min": tail_min,
            "decay_factor": DECAY_FACTOR,
            "tail_threshold": TAIL_THRESHOLD,
        },
        per_size={"j": js, "d": profile},
        verdict=Verdict.PASS if ok else Verdict.FAIL,
    )


def sl_coercivity(p_min: float, q_min: float, beta: float) -> float:
    """Coercivity constant of the truncated Sturm-Liouville form.

    q_min for beta in [pi/2, pi); q_min - 2 tan(beta)^2 / p_min on [0, pi/2).
    """
    if p_min <= 0:
        raise ValueError(f"p_min must be positive, got {p_min}")
    if not 0.0 <= beta < np.pi:
        raise ValueError(f"beta must lie in [0, pi), got {beta}")
    if beta >= np.pi / 2:
        return float(q_min)
    return float(q_min - 2.0 * np.tan(beta) ** 2 / p_min)


# ------------------------- lambda_0 selection for 2x2 SL -------------------------

#: the eps values sl_lambda0_search tries, in order
EPS_GRID = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def _line_angle(gamma: complex) -> float:
    """Direction angle of the line gamma * R, folded into [0, pi)."""
    ang = np.angle(gamma) % np.pi
    return float(ang)


def _angle_to_line(direction: float, line: float) -> float:
    """Minimal angle in [0, pi/2] between a ray direction and a line (mod pi)."""
    d = abs((direction - line) % np.pi)
    return min(d, np.pi - d)


def sl_lambda0_search(
    gamma1: complex,
    gamma2: complex,
    sup_s: float,
    sup_t: float,
    sup_u: float,
    sup_v: float,
) -> HypothesisReport:
    """Find (lambda_0, eps) off both lines gamma_i R satisfying the 2x2 SL criteria.

    Candidates sit on the bisector ray maximizing the angle to both lines, at
    radius sqrt(2) / (eps sin(theta_min)), for each eps of ``EPS_GRID`` in
    turn.  A candidate passes when, for both lines, the sup of
    |xi|/|xi - lambda_0| over the line, which is |lambda_0| / dist(lambda_0,
    gamma_i R) = 1 / sin(angle between them) exactly, stays <= 1 + eps and
    dist(lambda_0, gamma_i R) >= 1/eps, and the relaxed coupling bounds satisfy

        (|u|/|g1| (1+eps) + |v| eps) (|s|/|g2| (1+eps) + |t| eps) < 1.

    The first grid candidate that passes is returned; otherwise FailEvidence
    with the best product found.
    """
    gamma1, gamma2 = complex(gamma1), complex(gamma2)
    if gamma1 == 0 or gamma2 == 0:
        raise ValueError("gamma1, gamma2 must be nonzero")
    if not sup_s * sup_u < abs(gamma1) * abs(gamma2):
        raise AssumptionError(
            f"precondition |s| |u| < |gamma1| |gamma2| fails: "
            f"{sup_s * sup_u} >= {abs(gamma1) * abs(gamma2)}"
        )
    phi1, phi2 = _line_angle(gamma1), _line_angle(gamma2)
    psi_candidates = ((phi1 + phi2) / 2.0, (phi1 + phi2) / 2.0 + np.pi / 2.0)
    psi = max(psi_candidates, key=lambda d: min(_angle_to_line(d, phi1), _angle_to_line(d, phi2)))
    theta_min = min(_angle_to_line(psi, phi1), _angle_to_line(psi, phi2))

    best = None
    for eps in EPS_GRID:
        radius = np.sqrt(2.0) / (eps * np.sin(theta_min))
        lam0 = radius * np.exp(1j * psi)
        sin1, sin2 = np.sin(_angle_to_line(psi, phi1)), np.sin(_angle_to_line(psi, phi2))
        # the sup is reached at xi = |lambda_0| / cos(angle) along the line (the limit 1 at a right angle)
        sup1, sup2 = float(1.0 / sin1), float(1.0 / sin2)
        dist1, dist2 = abs(lam0) * sin1, abs(lam0) * sin2
        bound1 = sup_u / abs(gamma1) * (1.0 + eps) + sup_v * eps
        bound2 = sup_s / abs(gamma2) * (1.0 + eps) + sup_t * eps
        product = bound1 * bound2
        sup_ok = sup1 <= 1.0 + eps and sup2 <= 1.0 + eps
        dist_ok = dist1 >= 1.0 / eps and dist2 >= 1.0 / eps
        product_ok = product < 1.0
        record = {
            "eps": eps,
            "lambda0": lam0,
            "theta_min": theta_min,
            "sup_ratio_1": sup1,
            "sup_ratio_2": sup2,
            "dist_1": dist1,
            "dist_2": dist2,
            "gamma_bound_1": bound1,
            "gamma_bound_2": bound2,
            "product": product,
            "sup_ok": sup_ok,
            "dist_ok": dist_ok,
            "product_ok": product_ok,
        }
        if sup_ok and dist_ok and product_ok:
            return HypothesisReport(
                theorem="SLMatrix",
                lam=lam0,
                constants=record,
                per_size={},
                verdict=Verdict.PASS,
                notes="self-audit: all three inequality groups re-evaluate true",
            )
        if sup_ok and dist_ok and (best is None or product < best["product"]):
            best = record
    return HypothesisReport(
        theorem="SLMatrix",
        lam=None if best is None else best["lambda0"],
        constants=best or {"product": float("inf")},
        per_size={},
        verdict=Verdict.FAIL,
        notes="no grid candidate satisfied all three inequalities"
        + ("" if best else " (sup/dist conditions never met)"),
    )


# --------------------------- Schrodinger constant pipeline ---------------------------

KNOB_GRID = tuple(np.geomspace(1e-4, 1.0, 33))  # 8 points per decade over [1e-4, 1]
LAMBDA_EXPONENTS = tuple(range(0, 9))  # lambda_0 scanned over -10^k
#: the counts of schrodinger_constants' (nu, beta) pairs in the open Ledger's ``knob_pairs``
KNOB_PAIR_COUNTS = ("evaluated", "pruned")
#: relative shrink of the pair bounds, so that no rounding lifts one above a computed lambda_0 or gamma
BOUND_SAFETY = 1.0 - 1e-9


def schrodinger_constants(prob_or_constants, *, knob_grid=KNOB_GRID) -> HypothesisReport:
    """Grid-search the constants (nu, beta, alpha, eps, delta) and lambda_0 < 0.

    Pipeline: b = max(beta (1 + 1/(4 nu)), b_r (1 + nu)) < 1,
    a = |p|_inf^4 / (4 beta) (1 + 1/(4 nu)) + a_r (1 + nu),
    C_alpha = eps a_grad + 1/(4 eps delta) subject to max(delta/eps, eps b_grad) <= alpha,
    gamma^2 = (a + b C_alpha / (1 - alpha)) / lambda_0^2 + b / (1 - alpha).

    Returns the knob combination minimizing |lambda_0| (then gamma, nu, beta,
    alpha, eps) with gamma < 1, or FailEvidence with the least gamma (then nu,
    beta, alpha, eps) at the largest lambda_0 scanned; ``knob_grid`` ascends.
    The (nu, beta) pairs are visited best-first by a lower bound on their
    cells' keys: |lambda_0| >= 10^k, the least power of ten above sqrt(a), and
    there gamma^2 >= a / 10^2k + b min over cells of (C_alpha / 10^2k + 1) /
    (1 - alpha).  The visit ends at the first bound above the best key, so the
    record is the full grid's.  A pair whose bound 10^k is above the scan has
    no cell that passes: with no pass among the others, these pairs are
    visited last, in ascending order of a bound on their gamma at
    lambda_0 = -10^8, sqrt(a / 10^16 + b min over cells of (C_alpha / 10^16
    + 1) / (1 - alpha)), until it exceeds the least gamma found.  The open
    Ledger's ``knob_pairs`` counts the pairs evaluated and pruned.
    """
    if hasattr(prob_or_constants, "assumption_constants"):
        consts = prob_or_constants.assumption_constants()
    else:
        consts = dict(prob_or_constants)
    a_grad, b_grad = float(consts["a_grad"]), float(consts["b_grad"])
    a_r, b_r = float(consts["a_r"]), float(consts["b_r"])
    p_sup = float(consts.get("p_sup", 0.0))
    if not b_r < 1.0:
        raise AssumptionError(f"theorem inapplicable: need b_r < 1, got {b_r}")

    grid = np.asarray(knob_grid, dtype=float)
    top = LAMBDA_EXPONENTS[-1]
    lam_max = 10.0**top
    powers = 10.0 ** np.arange(top + 2)
    # what depends on neither nu nor beta: one row per alpha < 1 (alpha >= 1 is
    # dropped before it can reach b / (1 - alpha)), one column per eps
    alpha = grid[grid < 1.0][:, np.newaxis]
    eps = grid[np.newaxis, :]
    # largest admissible grid delta for each eps minimizes C_alpha
    pos = np.searchsorted(grid, alpha * eps * (1 + 1e-15), side="right") - 1
    ok = pos >= 0
    if b_grad != 0.0:
        ok &= eps * b_grad <= alpha
    # the admissible (alpha, eps) cells, in loop order
    rows, cols = np.nonzero(ok)
    alpha, eps, delta = alpha[rows, 0], grid[cols], grid[pos[rows, cols]]
    c_alpha = eps * a_grad + 1.0 / (4.0 * eps * delta)
    one_m = 1.0 - alpha
    # the (nu, beta) pairs with b < 1, nu-major
    nu, beta = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    nu_factor = 1.0 + 1.0 / (4.0 * nu)
    b = np.maximum(beta * nu_factor, b_r * (1.0 + nu))
    nu, beta, nu_factor, b = nu[b < 1.0], beta[b < 1.0], nu_factor[b < 1.0], b[b < 1.0]
    a = p_sup**4 / (4.0 * beta) * nu_factor + a_r * (1.0 + nu)
    # each pair's bound (lam_lb, gamma_lb); the least gamma term of the cells is taken once per power of ten
    k_lb = np.minimum(np.searchsorted(powers, np.sqrt(a) * BOUND_SAFETY, side="right"), top + 1)
    cell_min = ((c_alpha / powers[:, np.newaxis] ** 2 + 1.0) / one_m).min(axis=1, initial=np.inf)
    lam_lb = powers[k_lb]
    gamma_lb = np.sqrt(a / lam_lb**2 + b * cell_min[k_lb]) * BOUND_SAFETY
    # a pair whose |lambda_0| bound is above the scan (k_lb = top + 1) has no cell that passes; with
    # no admissible cell, no pair holds a record: each is pruned unseen
    passable = k_lb <= top if c_alpha.size else np.zeros(b.size, dtype=bool)
    order = np.lexsort((gamma_lb, k_lb))[: np.count_nonzero(passable)]
    best = None  # (key, record), key = (|lam0|, gamma, nu, beta, alpha, eps)
    best_fail = None  # (key, record), key = (gamma, nu, beta) at the largest lambda scanned

    def evaluate(p):
        nonlocal best, best_fail
        ratio = b[p] / one_m
        usable = ratio < 1.0  # elsewhere the values below may be nan, and no cell is picked
        with np.errstate(divide="ignore", invalid="ignore"):
            num = a[p] + b[p] * c_alpha / one_m
            needed = np.sqrt(num / (1.0 - ratio))
            # the least k with 10^k > needed: strict, so 10^k equal to the threshold takes k + 1
            exps = np.searchsorted(powers, needed, side="right")
            missed = exps > top
            # gamma at lambda_0 = -10^k; where gamma stays >= 1 on the whole
            # lambda scan, at the largest lambda scanned
            lam0 = powers[np.minimum(exps, top)]
            gamma = np.sqrt(num / lam0**2 + ratio)

        def knobs(j, lambda0, gamma_at):
            return dict(nu=nu[p], beta=beta[p], alpha=alpha[j], eps=eps[j], delta=delta[j],
                        a=a[p], b=b[p], c_alpha=c_alpha[j], lambda0=lambda0, gamma=gamma_at)

        j = np.flatnonzero(usable & ~missed & (gamma < 1.0))
        if j.size:
            j = j[np.lexsort((eps[j], alpha[j], gamma[j], lam0[j]))[0]]
            key = (lam0[j], float(gamma[j]), nu[p], beta[p], alpha[j], eps[j])
            if best is None or key < best[0]:
                best = (key, knobs(j, -lam0[j], key[1]))
        # flatnonzero walks (alpha, eps) in loop order, so argmin keeps the least of equal gammas
        j = np.flatnonzero(usable & missed)
        if j.size:
            j = j[np.argmin(gamma[j])]
            key = (float(gamma[j]), nu[p], beta[p])
            if best_fail is None or key < best_fail[0]:
                best_fail = (key, knobs(j, -lam_max, key[0]))

    evaluated = 0
    for p in order:
        if best is not None and (lam_lb[p], gamma_lb[p]) > best[0][:2]:
            break
        evaluated += 1
        evaluate(p)
    if best is None and c_alpha.size:
        # every passable pair was evaluated and none passed; the rest can only hold the FailEvidence
        # record, and a pair's gamma at lambda_0 = -10^8 is at least its fail_lb
        rest = np.flatnonzero(~passable)
        fail_lb = np.sqrt(a[rest] / lam_max**2 + b[rest] * cell_min[top]) * BOUND_SAFETY
        for i in np.argsort(fail_lb, kind="stable"):
            if best_fail is not None and fail_lb[i] > best_fail[0][0]:
                break
            evaluated += 1
            evaluate(rest[i])
    numerics.Ledger.count("knob_pairs", "evaluated", evaluated)
    numerics.Ledger.count("knob_pairs", "pruned", b.size - evaluated)
    base = {"a_grad": a_grad, "b_grad": b_grad, "a_r": a_r, "b_r": b_r, "p_sup": p_sup}
    if best is not None:
        record = best[1]
        return HypothesisReport(
            theorem="Schrodinger",
            lam=complex(record["lambda0"]),
            constants={**base, **record},
            per_size={},
            verdict=Verdict.PASS,
        )
    record = best_fail[1] if best_fail else {}
    return HypothesisReport(
        theorem="Schrodinger",
        lam=None,
        constants={**base, **record},
        per_size={},
        verdict=Verdict.FAIL,
        notes="no knob combination reached gamma < 1 within the lambda_0 scan",
    )


def banded_case_report(profile: BandProfile) -> HypothesisReport:
    """File a band profile's case hint as theorem evidence (BandedCase)."""
    constants = {
        "max_row_count": profile.max_row_count,
        "max_col_count": profile.max_col_count,
        "row_partial_sum": float(profile.row_partial_sums[-1]),
        "col_partial_sum": float(profile.col_partial_sums[-1]),
        "hint": profile.hint,
        "envelope_bounded": profile.envelope_bounded,
    }
    return HypothesisReport(
        theorem="BandedCase",
        lam=profile.lam,
        constants=constants,
        per_size={
            "row_counts": profile.row_counts,
            "col_counts": profile.col_counts,
            "row_envelope": profile.row_envelope,
            "col_envelope": profile.col_envelope,
        },
        verdict=Verdict.PASS if profile.hint != "none" else Verdict.FAIL,
        notes=f"case hint '{profile.hint}' over scan limit {profile.scan_limit}; "
        "trend evidence only",
    )
