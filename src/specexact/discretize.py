"""Finite-difference assembly of truncated singular differential problems.

Two kinds of problem: Sturm-Liouville expressions -(p f')' + q f on (a, b) with a
Robin condition at the regular endpoint b and a Dirichlet cut at a_n > a
(scalar and 2x2 operator-matrix form), and 1D Schrodinger expressions
-f'' + p f' + v f on (-L_n, L_n) with Dirichlet ends and complex potential
v = q + r.  Second-order schemes throughout: conservative staggered fluxes
for -(p f')', central differences for the first-order term.  The singular
endpoint a is never sampled; the scheme only ever sees the regular
truncated problem.  Every builder here, :func:`sl_blocks` included,
declares its :class:`numerics.Section` from diagonals: none is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AssumptionError, CoefficientError
from .numerics import Kronecker, Section, _declared_diagonals

#: fraction of audit nodes allowed to violate a declared assumption constant
AUDIT_VIOLATION_BUDGET = 1e-3
AUDIT_POINTS = 10_000
#: a coefficient: called once on a float64 array of points, it returns an array of that shape or a scalar
Coefficient = Callable[[np.ndarray], object]


def _sample(f: Coefficient, xs: np.ndarray, what: str) -> np.ndarray:
    """The coefficient ``what`` at the points ``xs``: one call ``f(xs)``, broadcast to their shape.

    A coefficient takes an array of points and returns an array of that
    shape or a scalar.  One that raises on an array, or returns anything
    else, is refused with :class:`CoefficientError`.
    """
    try:
        vals = np.broadcast_to(np.asarray(f(xs)), xs.shape)
    except Exception as exc:  # any failure of a user callable is the coefficient's
        raise CoefficientError(
            f"coefficient {what} must map an array of points to an array of that shape or a scalar "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if vals.dtype.kind not in "biufc":
        raise CoefficientError(f"coefficient {what} returned non-numeric values (dtype {vals.dtype})")
    return vals


def _sample_real(f: Coefficient, xs: np.ndarray, what: str) -> np.ndarray:
    vals = _sample(f, xs, what)
    if np.iscomplexobj(vals):
        if np.any(vals.imag != 0):
            raise CoefficientError(f"{what} must be real-valued")
        vals = vals.real
    return vals.astype(float)


# ------------------------------ Sturm-Liouville -------------------------------


@dataclass(frozen=True)
class SLProblem:
    """Singular Sturm-Liouville problem with a truncation ladder a_n -> a.

    The boundary condition at b is f(b) cos(beta) - (p f')(b) sin(beta) = 0;
    beta = 0 is Dirichlet, beta = pi/2 is Neumann.  For beta != 0 the flux
    coefficient p must be evaluable up to b + h/2 (ghost cell).
    """

    name: str
    p: Coefficient
    q: Coefficient
    a: float
    b: float
    beta: float
    a_n: tuple[float, ...]
    p_min: float
    q_min: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        if not (0.0 <= self.beta < np.pi):
            raise ValueError(f"beta must lie in [0, pi), got {self.beta}")
        if self.p_min <= 0:
            raise CoefficientError(f"p_min must be positive, got {self.p_min}")
        pts = tuple(float(x) for x in self.a_n)
        if not pts:
            raise ValueError("need at least one truncation point")
        if any(x2 >= x1 for x1, x2 in zip(pts, pts[1:])):
            raise ValueError("truncation points a_n must be strictly decreasing")
        # a_n == a is the regular case (truncation trivial); a_n < a is never valid
        if pts[0] >= self.b or pts[-1] < self.a:
            raise ValueError("truncation points must lie in [a, b)")
        object.__setattr__(self, "a_n", pts)

    @property
    def ladder_length(self) -> int:
        return len(self.a_n)

    def unknowns(self, m: int) -> int:
        return m - 1 if self.beta == 0.0 else m


def _validate_sl_coefficients(prob: SLProblem, p_vals, q_vals):
    slack_p = 1e-12 * (1.0 + abs(prob.p_min))
    slack_q = 1e-12 * (1.0 + abs(prob.q_min))
    if np.any(p_vals <= 0):
        raise CoefficientError(f"p sampled non-positive (min {p_vals.min():.3e})")
    if np.any(p_vals < prob.p_min - slack_p):
        raise CoefficientError(
            f"p drops below the declared p_min = {prob.p_min} (min {p_vals.min():.6g})"
        )
    if np.any(q_vals < prob.q_min - slack_q):
        raise CoefficientError(
            f"q drops below the declared q_min = {prob.q_min} (min {q_vals.min():.6g})"
        )


def sl_assemble(prob: SLProblem, n: int, m: int) -> Section:
    """Stiffness matrix of the truncated problem on (a_n, b) with m grid cells.

    Grid x_i = a_n + i h, h = (b - a_n)/m.  Interior rows use the conservative
    scheme -[p_{i+1/2}(f_{i+1}-f_i) - p_{i-1/2}(f_i-f_{i-1})]/h^2 + q_i f_i.
    Dirichlet at a_n eliminates f_0; beta = 0 eliminates f_m as well, else the
    ghost value f_{m+1} = f_{m-1} + (2 h cot(beta) / p(b)) f_m closes row m.
    The Section is declared tridiagonal: its three diagonals, no dense array.
    """
    if m < 2:
        raise ValueError(f"need at least 2 grid cells, got {m}")
    if not 1 <= n <= len(prob.a_n):
        raise ValueError(f"truncation index {n} outside 1..{len(prob.a_n)}")
    an = prob.a_n[n - 1]
    h = (prob.b - an) / m
    k = prob.unknowns(m)
    nodes = an + h * np.arange(1, k + 1)
    stag = an + h * (np.arange(0, k + 1) + 0.5)  # x_{1/2} .. x_{k+1/2}
    p_stag = _sample_real(prob.p, stag, "p")
    q_nodes = _sample_real(prob.q, nodes, "q")
    _validate_sl_coefficients(prob, p_stag, q_nodes)

    inv_h2 = 1.0 / (h * h)
    diag = (p_stag[:-1] + p_stag[1:]) * inv_h2 + q_nodes  # row i: (p_{i-1/2} + p_{i+1/2}) / h^2 + q_i
    upper = -p_stag[1:-1] * inv_h2
    lower = upper.copy()
    if prob.beta != 0.0:
        # ghost elimination at b, last interior row overwritten
        pl, pr = p_stag[k - 1], p_stag[k]
        pb = float(_sample_real(prob.p, np.array([prob.b]), "p")[0])
        if pb <= 0:
            raise CoefficientError(f"p(b) must be positive, got {pb}")
        c = 2.0 * h / (np.tan(prob.beta) * pb)
        lower[k - 2] = -(pl + pr) * inv_h2
        diag[k - 1] = (pl + pr * (1.0 - c)) * inv_h2 + q_nodes[k - 1]
    return Section({-1: lower, 0: diag, 1: upper})


@dataclass(frozen=True)
class SLMatrixProblem:
    """2x2 operator matrix [[g1 T1, s T2 + t], [u T1 + v, g2 T2]] on one interval.

    Couplings s, t, u, v are bounded multipliers with declared sup norms;
    the declared norms must satisfy |s| |u| < |g1| |g2|.  Both betas are 0
    or neither, so the components have one grid of unknowns.  ``_components``
    keeps T1 and T2 per (n, m) (:func:`_sl_components`), so every stage of a
    run reads one T per truncation, with the eigenvalues it keeps.
    """

    name: str
    tau1: SLProblem
    tau2: SLProblem
    gamma1: complex
    gamma2: complex
    s: Coefficient
    t: Coefficient
    u: Coefficient
    v: Coefficient
    sup_s: float
    sup_t: float
    sup_u: float
    sup_v: float
    _components: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma1 == 0 or self.gamma2 == 0:
            raise ValueError("gamma1, gamma2 must be nonzero")
        if not self.sup_s * self.sup_u < abs(self.gamma1) * abs(self.gamma2):
            raise AssumptionError(
                f"need |s| |u| < |gamma1| |gamma2|: {self.sup_s * self.sup_u} >= "
                f"{abs(self.gamma1) * abs(self.gamma2)}"
            )
        if (self.tau1.a, self.tau1.b, self.tau1.a_n) != (self.tau2.a, self.tau2.b, self.tau2.a_n):
            raise ValueError("components must share the interval and truncation ladder")
        if (self.tau1.beta == 0.0) != (self.tau2.beta == 0.0):
            raise ValueError(f"component grids mismatch: beta = {self.tau1.beta} and {self.tau2.beta} "
                             "(beta = 0 drops the endpoint b, so both betas are 0 or neither)")

    @property
    def ladder_length(self) -> int:
        return self.tau1.ladder_length


def _sl_components(prob: SLMatrixProblem, n: int, m: int) -> tuple:
    """T1, T2 (the :func:`sl_assemble` sections) and s, t, u, v sampled at the interior nodes.

    T2 is T1 itself when their diagonals are equal, so the blocks over them
    share one T.  Both are assembled once per (n, m) and kept by the problem.
    """
    if (n, m) not in prob._components:
        t1, t2 = sl_assemble(prob.tau1, n, m), sl_assemble(prob.tau2, n, m)
        if t1.diagonals.keys() == t2.diagonals.keys() and all(
            np.array_equal(d, t2.diagonals[off]) for off, d in t1.diagonals.items()
        ):
            t2 = t1
        prob._components[n, m] = t1, t2
    t1, t2 = prob._components[n, m]
    an = prob.tau1.a_n[n - 1]
    h = (prob.tau1.b - an) / m
    nodes = an + h * np.arange(1, prob.tau1.unknowns(m) + 1)
    return t1, t2, *(_sample(getattr(prob, c), nodes, c) for c in "stuv")


def _sl_block_diagonals(prob: SLMatrixProblem, n: int, m: int) -> list[tuple[dict, Kronecker | None]]:
    """The four K x K blocks (A, B, C, D) at truncation index n, each ``({j - i: diagonal}, declaration)``.

    A = g1 T1, B = diag(s) T2 + diag(t), C = diag(u) T1 + diag(v) and
    D = g2 T2, where T1 and T2 are the :func:`sl_assemble` sections of the
    two components on m grid cells and the multipliers are sampled at the
    interior nodes.  A block diag(rows) T + diag(plus) with rows and plus
    constant and T Hermitian tridiagonal (beta = 0 makes it so; a ghost row
    at b does not) is declared rows T + plus I, an order-1
    :class:`numerics.Kronecker` over T; any other block's declaration is None.
    """
    t1, t2, s, t, u, v = _sl_components(prob, n, m)
    out = []
    for base, rows, plus in ((t1, prob.gamma1, None), (t2, s, t), (t1, u, v), (t2, prob.gamma2, None)):
        # entry i of diagonal off lies in row i + max(-off, 0)
        rows = np.broadcast_to(rows, (base.n,))
        diagonals = {off: rows[max(-off, 0) :][: d.shape[0]] * d for off, d in base.diagonals.items()}
        if plus is not None:
            diagonals[0] = diagonals[0] + plus
        constant = np.all(rows == rows[0]) and (plus is None or np.all(plus == plus[0]))
        k1, k0 = (np.full((1, 1), c, dtype=complex) for c in (rows[0], 0.0 if plus is None else plus[0]))
        out.append((diagonals, Kronecker(base, k1, k0) if constant and base.tridiagonal is not None else None))
    return out


def sl_blocks(prob: SLMatrixProblem, n: int, m: int) -> tuple[Section, ...]:
    """The four blocks of :func:`_sl_block_diagonals` as Sections, each given its declaration; none is dense."""
    return tuple(Section(diagonals, kronecker=kron) for diagonals, kron in _sl_block_diagonals(prob, n, m))


def sl_block_assemble(prob: SLMatrixProblem, n: int, m: int) -> Section:
    """2K x 2K section of [[A, B], [C, D]] (:func:`sl_blocks`), with the unknowns interleaved.

    Unknown 2i is the first component at node i and 2i + 1 the second: a
    permutation similarity of the block matrix, so the spectrum is the same,
    and every coupling of the tridiagonal blocks lands within three
    diagonals of the main one.  The Section is declared from the four
    blocks' diagonals (:func:`_sl_block_diagonals`), offsets -3..3; no block
    Section is built.  When all four blocks are declared over one shared T
    (T1 and T2 equal, beta = 0 and every coupling constant), the section is
    declared kron(T, K1) + kron(I, K0) with K1 = [[g1, s], [u, g2]] and
    K0 = [[0, t], [v, 0]] (:class:`numerics.Kronecker` of order 2).
    """
    # each block's diagonals as a Section keeps them: an all-zero one is trimmed, so it reads +0.0 below
    blocks = ((_declared_diagonals(diagonals), kron) for diagonals, kron in _sl_block_diagonals(prob, n, m))
    (a, ka), (b, kb), (c, kc), (d, kd) = blocks
    k = a[0].shape[0]

    def interleave(off, even, odd):
        # slot 2i of diagonal off holds the first component's row (off >= 0) or column (off < 0)
        out = np.zeros(2 * k - abs(off), dtype=complex)
        out[0::2], out[1::2] = (block.get(block_off, 0.0) for block, block_off in (even, odd))
        return out

    pairs = {-3: ((c, -1), (b, -2)), -2: ((a, -1), (d, -1)), -1: ((c, 0), (b, -1)), 0: ((a, 0), (d, 0)),
             1: ((b, 0), (c, 1)), 2: ((a, 1), (d, 1)), 3: ((b, 1), (c, 2))}
    kron = None
    if all(x is not None and x.base is ka.base for x in (ka, kb, kc, kd)):
        k1 = np.block([[ka.k1, kb.k1], [kc.k1, kd.k1]])
        kron = Kronecker(ka.base, k1, np.block([[ka.k0, kb.k0], [kc.k0, kd.k0]]))
    return Section({off: interleave(off, *pair) for off, pair in pairs.items() if abs(off) < 2 * k}, kronecker=kron)


# -------------------------------- Schrodinger ----------------------------------


def _cover_fit(y: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of y <= a + b z, shifted so every sample is covered."""
    design = np.column_stack([np.ones_like(z), z])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    b = max(float(coef[1]), 0.0)
    a = max(float(np.max(y - b * z)), 0.0)
    return a, b


@dataclass(eq=False)
class SchrodingerProblem:
    """1D expression -f'' + p f' + v f, v = q + r, truncated to (-L_n, L_n).

    q carries the growth (|q| -> infinity, Re q >= 0), r the rough part.
    The gradient and remainder bounds |q'|^2 <= a_grad + b_grad |q|^2 and
    |r|^2 <= a_r + b_r |q|^2 (b_r < 1) are declared or fitted by sampling
    on a uniform audit grid over the largest truncation interval.
    """

    name: str
    p: Coefficient
    q: Coefficient
    r: Coefficient
    L_n: tuple[float, ...]
    a_grad: float | None = None
    b_grad: float | None = None
    a_r: float | None = None
    b_r: float | None = None
    _resolved: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        pts = tuple(float(x) for x in self.L_n)
        if not pts or any(x <= 0 for x in pts):
            raise ValueError("truncation half-widths L_n must be positive")
        if any(x2 <= x1 for x1, x2 in zip(pts, pts[1:])):
            raise ValueError("truncation half-widths L_n must be strictly increasing")
        self.L_n = pts
        if self.b_r is not None and not self.b_r < 1.0:
            raise AssumptionError(f"need b_r < 1, declared b_r = {self.b_r}")

    @property
    def ladder_length(self) -> int:
        return len(self.L_n)

    def _audit_grid(self, half_width: float) -> np.ndarray:
        return np.linspace(-half_width, half_width, AUDIT_POINTS)

    def assumption_constants(self) -> dict:
        """Resolved (a_grad, b_grad, a_r, b_r, p_sup): declared where given, fitted otherwise."""
        if self._resolved:
            return dict(self._resolved)
        xs = self._audit_grid(self.L_n[-1])
        qv = _sample(self.q, xs, "q").astype(complex)
        if np.any(qv.real < -1e-12 * (1.0 + np.abs(qv))):
            bad = int(np.argmin(qv.real))
            raise AssumptionError(f"Re q must be >= 0; violated at x = {xs[bad]:.6g}", location=float(xs[bad]))
        rv = _sample(self.r, xs, "r").astype(complex)
        pv = _sample(self.p, xs, "p").astype(complex)
        dq = np.gradient(qv, xs)
        q2 = np.abs(qv) ** 2
        out = {}
        if self.a_grad is None or self.b_grad is None:
            out["a_grad"], out["b_grad"] = _cover_fit(np.abs(dq) ** 2, q2)
        else:
            out["a_grad"], out["b_grad"] = float(self.a_grad), float(self.b_grad)
        if self.a_r is None or self.b_r is None:
            out["a_r"], out["b_r"] = _cover_fit(np.abs(rv) ** 2, q2)
            if not out["b_r"] < 1.0:
                raise AssumptionError(f"fitted b_r = {out['b_r']:.6g} is not < 1")
        else:
            out["a_r"], out["b_r"] = float(self.a_r), float(self.b_r)
        out["p_sup"] = float(np.max(np.abs(pv)))
        out["fitted_grad"] = self.a_grad is None or self.b_grad is None
        out["fitted_r"] = self.a_r is None or self.b_r is None
        self._resolved.update(out)
        return dict(out)

    def audit(self, n: int) -> None:
        """Check the resolved constants on the audit grid over Omega_n.

        Raises :class:`AssumptionError` with the worst offender location when
        more than 0.1% of the nodes violate either inequality.
        """
        consts = self.assumption_constants()
        xs = self._audit_grid(self.L_n[n - 1])
        qv = _sample(self.q, xs, "q").astype(complex)
        rv = _sample(self.r, xs, "r").astype(complex)
        dq = np.gradient(qv, xs)
        q2 = np.abs(qv) ** 2
        slack = 1e-9 * (1.0 + q2)
        for label, lhs, a, b in (
            ("|q'|^2 <= a_grad + b_grad |q|^2", np.abs(dq) ** 2, consts["a_grad"], consts["b_grad"]),
            ("|r|^2 <= a_r + b_r |q|^2", np.abs(rv) ** 2, consts["a_r"], consts["b_r"]),
        ):
            excess = lhs - (a + b * q2) - slack
            bad = excess > 0
            if np.count_nonzero(bad) > AUDIT_VIOLATION_BUDGET * xs.size:
                worst = int(np.argmax(excess))
                raise AssumptionError(
                    f"assumption {label} violated at {np.count_nonzero(bad)} of {xs.size} "
                    f"audit nodes; worst at x = {xs[worst]:.6g}",
                    location=float(xs[worst]),
                )


def schrodinger_assemble(prob: SchrodingerProblem, n: int, m: int) -> Section:
    """Dirichlet section of -f'' + p f' + v f on (-L_n, L_n) with m grid cells.

    Central differences: -(f_{i+1} - 2 f_i + f_{i-1})/h^2
    + p_i (f_{i+1} - f_{i-1})/(2h) + v_i f_i.  The Section is declared
    tridiagonal, and real when v and p are.
    """
    if m < 4:
        raise ValueError(f"need at least 4 grid cells, got {m}")
    if not 1 <= n <= len(prob.L_n):
        raise ValueError(f"truncation index {n} outside 1..{len(prob.L_n)}")
    prob.audit(n)
    half = prob.L_n[n - 1]
    h = 2.0 * half / m
    k = m - 1
    nodes = -half + h * np.arange(1, k + 1)
    pv = _sample(prob.p, nodes, "p").astype(complex)
    vv = _sample(prob.q, nodes, "q").astype(complex) + _sample(prob.r, nodes, "r").astype(complex)
    inv_h2 = 1.0 / (h * h)
    return Section(
        {-1: -inv_h2 - pv[1:] / (2.0 * h), 0: 2.0 * inv_h2 + vv, 1: -inv_h2 + pv[:-1] / (2.0 * h)}
    )
