"""Dense strictly convex QP solver for the per-step dispatch subproblem.

Problems have the fixed shape

    minimize    || w + g ||^2
    subject to  lower <= A w <= upper   (rows may be one- or two-sided)

solved with a dual active-set method: start at the unconstrained minimum
w = -g (dual feasible by construction), then add violated constraints one
at a time, dropping blockers whose multiplier would turn negative.  The
method needs no phase-1 point and certifies infeasibility when neither a
primal nor a dual step exists.

Online, consecutive problems usually bind the same rows, so solve_qp can
be warm-started with the previous solution's active set (the hot start of
online active-set QP: Ferreau, Bock and Diehl 2008).  The guess is tested
by its equality projection: minimize ||w + g||^2 with the guessed rows held
at their bounds.  If that point's multipliers are non-negative and it
satisfies every row, it meets the KKT conditions, which for a strictly
convex QP make it the unique optimum; otherwise the dual active-set method
runs from the start as it would unguided.

check_kkt verifies a candidate point against the KKT system through an
independent route (non-negative least squares on the active gradients).
The solver does not call it; it is the tests' oracle for the solver's
points.

A problem whose matrix stays fixed while g and the bounds change (the
controller's step QP) is built once as a template; with_vectors derives each
instance from it and shares the one-sided normals and their Gram matrix, so
only the vectors are checked and expanded per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Constraint-violation threshold: slacks above -TOL_QP count as satisfied.
TOL_QP = 1e-8

#: Directions with squared norm below this are treated as zero steps.
_ZERO_DIR = 1e-14

#: nnls frees at most this many columns per column of its matrix, the cap
#: of the reference Lawson-Hanson implementation.
_NNLS_PASSES = 3

_SIDES = ("lower", "upper")


class QPError(Exception):
    """Malformed problem data."""


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """minimize ||w + g||^2 subject to lower <= a @ w <= upper.

    Use -inf / +inf entries to express one-sided rows; rows with both
    bounds infinite are ignored.
    """

    g: np.ndarray
    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        if not np.all(np.isfinite(a)):
            raise QPError("constraint matrix has non-finite entries")
        self._set_vectors(self.g, self.lower, self.upper)

    def _set_vectors(self, g, lower, upper) -> None:
        """Store and check g and the bounds against the matrix."""
        g = np.asarray(g, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if g.ndim != 1:
            raise QPError(f"g must be a vector, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise QPError("g has non-finite entries")
        if self.a.shape[1] != g.size:
            raise QPError(f"a has {self.a.shape[1]} columns for a {g.size}-dim w")
        if lower.shape != (self.a.shape[0],) or upper.shape != (self.a.shape[0],):
            raise QPError("bound vectors must have one entry per constraint row")
        if (lower > upper).any():
            bad = int(np.argmax(lower > upper))
            raise QPError(f"row {bad}: lower bound {lower[bad]} exceeds upper {upper[bad]}")

    def with_vectors(self, g, lower, upper) -> "QuadraticProgram":
        """This problem's matrix with a new g and new bounds.

        The new vectors are checked as the constructor checks them; the
        matrix is not checked again.  When the same bounds are finite, the
        one-sided normals and their Gram matrix are shared with this
        problem, so they are built once for every problem derived from it;
        otherwise they are expanded afresh.
        """
        derived = object.__new__(QuadraticProgram)
        object.__setattr__(derived, "a", self.a)
        derived._set_vectors(g, lower, upper)
        normals = self._normals
        if (np.isfinite(derived._sides) == normals.finite).all():
            # cached_property reads the instance dict first.
            derived.__dict__["_normals"] = normals
        return derived

    @property
    def n_var(self) -> int:
        return self.g.size

    @cached_property
    def _sides(self) -> np.ndarray:
        """Bounds interleaved per row: [lower_0, upper_0, lower_1, upper_1, ...]."""
        sides = np.empty(2 * self.a.shape[0])
        sides[0::2] = self.lower
        sides[1::2] = self.upper
        return sides

    @cached_property
    def _normals(self) -> "_Normals":
        """The one-sided normals; they depend on a and on which bounds are finite.

        Raises QPError if their Gram matrix is not finite, as when huge rows
        overflow; the solver could only return garbage from it.
        """
        finite = np.isfinite(self._sides)
        keep = np.flatnonzero(finite)
        row, upper = keep >> 1, keep & 1
        flip = upper.astype(bool)
        c = self.a[row]
        c[flip] = -c[flip]
        c.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            gram = c @ c.T
        if not np.isfinite(gram).all():
            raise QPError("the constraint rows are too large: their Gram matrix overflows")
        gram.flags.writeable = False
        tags = [(r, _SIDES[s]) for r, s in zip(row.tolist(), upper.tolist())]
        return _Normals(finite=finite, keep=keep, flip=flip, c=c, tags=tags, gram=gram)

    @cached_property
    def expanded(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
        """Two-sided rows rewritten as one-sided normals: c_i @ w >= b_i.

        Returns (c, b, tags) where tags[i] = (original row, "lower"|"upper").
        Rows keep the original order, a row's lower side before its upper
        side; infinite bounds give no row.  Built once per problem.
        """
        normals = self._normals
        b = self._sides[normals.keep]
        b[normals.flip] = -b[normals.flip]
        return normals.c, b, normals.tags

    def objective(self, w: np.ndarray) -> float:
        return float(np.sum((np.asarray(w, dtype=float) + self.g) ** 2))


@dataclass(frozen=True, eq=False)
class _Normals:
    """One-sided rows c_i @ w >= b_i without their offsets b_i.

    ``finite`` marks the interleaved bound sides that give a row, ``keep``
    lists them and ``flip`` marks the upper sides, whose normal is negated;
    ``gram`` is c @ c.T, which the solver slices on every inner step.
    """

    finite: np.ndarray
    keep: np.ndarray
    flip: np.ndarray
    c: np.ndarray
    tags: list[tuple[int, str]]
    gram: np.ndarray

    @cached_property
    def rows(self) -> dict[tuple[int, str], int]:
        """Index of each tag's row in c."""
        return {tag: i for i, tag in enumerate(self.tags)}


@dataclass(frozen=True, eq=False)
class QPSolution:
    """Solver output; ``active_set`` holds (row, side) tags, side in {lower, upper}."""

    w: np.ndarray
    status: str
    active_set: tuple[tuple[int, str], ...]
    iterations: int


@dataclass(frozen=True)
class KKTReport:
    """Independent first-order optimality check for a candidate point."""

    stationarity: float
    primal_feasibility: float
    complementarity: float

    @property
    def residual(self) -> float:
        return max(self.stationarity, self.primal_feasibility, self.complementarity)


def _projection_step(c_all: np.ndarray, gram: np.ndarray, active: list[int], p: int):
    """Dual direction r and null-space step z for candidate row p.

    ``gram`` is c_all @ c_all.T, so the active Gram system is a slice of it.
    """
    cp = c_all[p]
    if not active:
        return np.empty(0), cp.copy()
    gram_active = gram[np.ix_(active, active)]
    rhs = gram[active, p]
    try:
        r = np.linalg.solve(gram_active, rhs)
    except np.linalg.LinAlgError:
        r = np.linalg.lstsq(gram_active, rhs, rcond=None)[0]
    return r, cp - c_all[active].T @ r


def _warm_point(problem: QuadraticProgram, guess: list[int]) -> np.ndarray | None:
    """The optimum if the rows ``guess`` are its active set, else None.

    Solves the equality projection gram[S, S] lam = b_S + c_S g and forms
    w = c_S^T lam - g.  The point is returned only when every multiplier is
    non-negative, w is finite and every row, the guessed ones included,
    has slack >= -TOL_QP; the guessed rows must also hold within TOL_QP of
    their bounds, so a badly conditioned slice cannot pass on rounding.
    """
    c_all, b_all, _ = problem.expanded
    c_s = c_all[guess]
    gram_s = problem._normals.gram[guess][:, guess]
    try:
        lam = np.linalg.solve(gram_s, b_all[guess] + c_s @ problem.g)
    except np.linalg.LinAlgError:
        return None
    if not lam.min() >= 0.0:  # also when a multiplier is NaN
        return None
    w = c_s.T @ lam - problem.g
    if not np.isfinite(w).all():
        return None
    slack = c_all @ w - b_all
    if not (slack.min() >= -TOL_QP and slack[guess].max() <= TOL_QP):
        return None
    return w


def solve_qp(
    problem: QuadraticProgram,
    max_iter: int | None = None,
    warm: tuple[tuple[int, str], ...] | None = None,
) -> QPSolution:
    """Solve the QP; status is "optimal", "infeasible" or "iteration_limit".

    ``warm`` guesses the active set as (row, side) tags, typically the
    previous solution's ``active_set``.  A guess that passes the test of
    _warm_point gives the optimum at once, counted as one iteration, with
    the guess as its active set.  An unknown or repeated tag, a singular
    Gram slice or a failed test falls back to the dual active-set method
    from the unconstrained minimum, exactly as without a guess.
    """
    c_all, b_all, tags = problem.expanded
    normals = problem._normals
    gram = normals.gram
    n_con = c_all.shape[0]
    if max_iter is None:
        max_iter = 50 * (n_con + problem.n_var) + 100
    if warm and max_iter >= 1:
        guess = [normals.rows.get(tag, -1) for tag in warm]
        if -1 not in guess and len(set(guess)) == len(guess):
            w = _warm_point(problem, guess)
            if w is not None:
                return QPSolution(w=w, status="optimal", active_set=tuple(warm), iterations=1)

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
            r, z = _projection_step(c_all, gram, active, p)
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
    return QPSolution(w=w, status=status, active_set=tagged, iterations=iterations)


def check_kkt(problem: QuadraticProgram, w: np.ndarray) -> KKTReport:
    """Score a candidate point against the KKT conditions.

    Multipliers are recovered by non-negative least squares on the gradients
    of near-active rows (slack <= 1e-6), so the check shares no state
    with the solver's own active-set bookkeeping, and dual feasibility
    holds by construction rather than being scored.  Stationarity is measured
    from the returned multipliers, so an NNLS stopped at its iteration cap
    can only overstate the residual.
    """
    w = np.asarray(w, dtype=float)
    grad = 2.0 * (w + problem.g)
    c_all, b_all, _ = problem.expanded
    if c_all.shape[0] == 0:
        return KKTReport(
            stationarity=float(np.linalg.norm(grad)),
            primal_feasibility=0.0,
            complementarity=0.0,
        )
    slack = c_all @ w - b_all
    primal = max(0.0, -float(slack.min()))
    near = slack <= 1e-6
    if near.any():
        gradients = c_all[near].T
        mu = nnls(gradients, grad)
        residual = gradients @ mu - grad
        stationarity = math.sqrt(residual @ residual)
        complementarity = float((mu * np.abs(slack[near])).max())
    else:
        stationarity = float(np.linalg.norm(grad))
        complementarity = 0.0
    return KKTReport(
        stationarity=stationarity,
        primal_feasibility=primal,
        complementarity=complementarity,
    )


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares: x >= 0 minimizing ||a @ x - b||.

    The active-set method of Lawson and Hanson (1974, Solving Least Squares
    Problems, ch. 23), for the small dense systems of check_kkt.  It runs on
    columns scaled to a largest entry of one, so that no column counts as
    negligible for its scale alone; a column whose largest entry is zero or
    subnormal keeps a zero multiplier.  A least-squares solution on
    full-rank columns that is already non-negative and finite is the optimum
    and is returned at once.  Otherwise at most ``_NNLS_PASSES * n`` columns
    are freed, and a capped run returns its last feasible iterate.  A
    multiplier beyond the float range is returned as zero.
    """
    m, n = a.shape
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank == n and (x >= 0.0).all() and np.isfinite(x).all():
        return x
    x = np.zeros(n)
    norms = np.max(np.abs(a), axis=0, initial=0.0)
    cols = np.flatnonzero(norms >= np.finfo(float).tiny)
    if cols.size == 0:
        return x
    a = a[:, cols] / norms[cols]
    # Correlations with the residual below tol are rounding noise.
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.linalg.norm(b)))
    y = np.zeros(cols.size)
    free = np.zeros(cols.size, dtype=bool)
    # Columns that entered with a non-positive fit; barred until y moves.
    barred = np.zeros(cols.size, dtype=bool)
    dual = a.T @ b
    for _ in range(_NNLS_PASSES * n):
        candidates = np.where(free | barred, -np.inf, dual)
        j = int(np.argmax(candidates))
        if candidates[j] <= tol:
            break
        free[j] = True
        s = _free_fit(a, b, free)
        if s[j] <= 0.0:
            # Rounding let in a column that the fit does not use: try the
            # next-best one instead of stepping nowhere.
            free[j] = False
            barred[j] = True
            continue
        # A fit with a non-positive entry moves towards it and pins one more
        # column to zero, so this loop ends within n passes.
        while (blocked := np.flatnonzero(free & (s <= 0.0))).size:
            gap = y[blocked] - s[blocked]
            ratio = np.divide(y[blocked], gap, out=np.zeros_like(gap), where=gap > 0.0)
            y += np.min(ratio) * (s - y)
            y[blocked[np.argmin(ratio)]] = 0.0
            free &= y > 0.0
            y[~free] = 0.0
            s = _free_fit(a, b, free)
        y = s
        barred[:] = False
        dual = a.T @ (b - a @ y)
    with np.errstate(over="ignore"):
        x[cols] = y / norms[cols]
    x[np.isinf(x)] = 0.0
    return x


def _free_fit(a: np.ndarray, b: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Least-squares coefficients on the free columns of a, zero elsewhere."""
    s = np.zeros(a.shape[1])
    if free.any():
        s[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
    return s
