"""Dense strictly convex QP solver for the per-step dispatch subproblem.

Problems have the fixed shape

    minimize    || w + g ||^2
    subject to  lower <= A w <= upper   (rows may be one- or two-sided)

solved with a dual active-set method: start at the unconstrained minimum
w = -g (dual feasible by construction), then add violated constraints one
at a time, dropping blockers whose multiplier would turn negative.  The
method needs no phase-1 point and certifies infeasibility when neither a
primal nor a dual step exists.

check_kkt verifies a candidate point against the KKT system through an
independent route (non-negative least squares on the active gradients) and
is used to cross-check the solver rather than trusting its own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import nnls

#: Constraint-violation threshold: slacks above -TOL_QP count as satisfied.
TOL_QP = 1e-8

#: Directions with squared norm below this are treated as zero steps.
_ZERO_DIR = 1e-14

_SIDES = ("lower", "upper")


class QPError(Exception):
    """Malformed problem data."""


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """minimize ||w + g||^2 subject to lower <= a @ w <= upper.

    Use -inf / +inf entries to express one-sided rows; rows with both
    bounds infinite are ignored.  ``labels`` optionally names rows for
    diagnostics.
    """

    g: np.ndarray
    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if g.ndim != 1:
            raise QPError(f"g must be a vector, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise QPError("g has non-finite entries")
        if a.shape[1] != g.size:
            raise QPError(f"a has {a.shape[1]} columns for a {g.size}-dim w")
        if lower.shape != (a.shape[0],) or upper.shape != (a.shape[0],):
            raise QPError("bound vectors must have one entry per constraint row")
        if not np.all(np.isfinite(a)):
            raise QPError("constraint matrix has non-finite entries")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise QPError(f"row {bad}: lower bound {lower[bad]} exceeds upper {upper[bad]}")
        if self.labels is not None and len(self.labels) != a.shape[0]:
            raise QPError("labels must have one entry per constraint row")

    @property
    def n_var(self) -> int:
        return self.g.size

    @cached_property
    def expanded(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
        """The one-sided rows (see _expand), built once per problem."""
        return _expand(self)

    def objective(self, w: np.ndarray) -> float:
        return float(np.sum((np.asarray(w, dtype=float) + self.g) ** 2))


@dataclass(frozen=True, eq=False)
class QPSolution:
    """Solver output; ``active_set`` holds (row, side) tags, side in {lower, upper}."""

    w: np.ndarray
    status: str
    active_set: tuple[tuple[int, str], ...]
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class KKTReport:
    """Independent first-order optimality check for a candidate point."""

    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float

    @property
    def residual(self) -> float:
        return max(
            self.stationarity,
            self.primal_feasibility,
            self.dual_feasibility,
            self.complementarity,
        )


def _expand(problem: QuadraticProgram):
    """Rewrite two-sided rows as one-sided normals: c_i @ w >= b_i.

    Returns (c, b, tags) where tags[i] = (original row, "lower"|"upper").
    Rows keep the original order, a row's lower side before its upper side;
    infinite bounds give no row.
    """
    bounds = np.empty(2 * problem.a.shape[0])
    bounds[0::2] = problem.lower
    bounds[1::2] = problem.upper
    keep = np.flatnonzero(np.isfinite(bounds))
    row, upper = keep >> 1, keep & 1
    flip = upper.astype(bool)
    c = problem.a[row]
    c[flip] = -c[flip]
    b = bounds[keep]
    b[flip] = -b[flip]
    return c, b, [(r, _SIDES[s]) for r, s in zip(row.tolist(), upper.tolist())]


def _projection_step(c_active: list[np.ndarray], cp: np.ndarray):
    """Dual direction r and null-space step z for candidate normal cp."""
    if not c_active:
        return np.empty(0), cp.copy()
    n_mat = np.column_stack(c_active)
    gram = n_mat.T @ n_mat
    rhs = n_mat.T @ cp
    try:
        r = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        r = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return r, cp - n_mat @ r


def solve_qp(problem: QuadraticProgram, max_iter: int | None = None) -> QPSolution:
    """Solve the QP; status is "optimal", "infeasible" or "iteration_limit"."""
    c_all, b_all, tags = problem.expanded
    n_con = c_all.shape[0]
    if max_iter is None:
        max_iter = 50 * (n_con + problem.n_var) + 100

    w = -problem.g.copy()
    active: list[int] = []
    lam: list[float] = []
    iterations = 0
    status = "optimal"

    while True:
        iterations += 1
        if iterations > max_iter:
            status = "iteration_limit"
            break
        if n_con == 0:
            break
        slack = c_all @ w - b_all
        slack[active] = 0.0  # active rows are satisfied by construction
        p = int(np.argmin(slack))
        if slack[p] >= -TOL_QP:
            break

        cp = c_all[p]
        lam_p = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                status = "iteration_limit"
                break
            r, z = _projection_step([c_all[i] for i in active], cp)
            zz = float(z @ z)
            s_p = float(cp @ w - b_all[p])
            t_primal = np.inf if zz < _ZERO_DIR else -s_p / zz
            t_dual = np.inf
            drop = -1
            for idx, rj in enumerate(r):
                if rj > _ZERO_DIR and lam[idx] / rj < t_dual:
                    t_dual = lam[idx] / rj
                    drop = idx
            step = min(t_primal, t_dual)
            if not np.isfinite(step):
                status = "infeasible"
                break
            w = w + step * z
            for idx in range(len(lam)):
                lam[idx] -= step * r[idx]
            lam_p += step
            if t_primal <= t_dual:
                active.append(p)
                lam.append(lam_p)
                break
            del active[drop], lam[drop]
        if status != "optimal":
            break

    tagged = tuple(tags[i] for i in active) if status == "optimal" else ()
    if status == "optimal":
        kkt = check_kkt(problem, w).residual
    else:
        kkt = float("inf")
    return QPSolution(
        w=w, status=status, active_set=tagged, kkt_residual=kkt, iterations=iterations
    )


def check_kkt(
    problem: QuadraticProgram, w: np.ndarray, active_tol: float = 1e-6
) -> KKTReport:
    """Score a candidate point against the KKT conditions.

    Multipliers are recovered by non-negative least squares on the gradients
    of near-active rows (slack <= active_tol), so the check shares no state
    with the solver's own active-set bookkeeping.
    """
    w = np.asarray(w, dtype=float)
    grad = 2.0 * (w + problem.g)
    c_all, b_all, _ = problem.expanded
    if c_all.shape[0] == 0:
        return KKTReport(
            stationarity=float(np.linalg.norm(grad)),
            primal_feasibility=0.0,
            dual_feasibility=0.0,
            complementarity=0.0,
        )
    slack = c_all @ w - b_all
    primal = max(0.0, float(-np.min(slack)))
    near = slack <= active_tol
    if np.any(near):
        mu, stationarity = nnls(c_all[near].T, grad)
        complementarity = float(np.max(mu * np.abs(slack[near])))
    else:
        stationarity = float(np.linalg.norm(grad))
        complementarity = 0.0
    return KKTReport(
        stationarity=float(stationarity),
        primal_feasibility=primal,
        dual_feasibility=0.0,
        complementarity=complementarity,
    )
