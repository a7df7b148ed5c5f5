"""Dense strictly convex QP solver for the per-step dispatch subproblem.

Problems have the fixed shape

    minimize    || w + g ||^2
    subject to  lower <= A w <= upper   (rows may be one- or two-sided)

solved with a dual active-set method: start at the unconstrained minimum
w = -g (dual feasible by construction), then add violated constraints one
at a time, dropping blockers whose multiplier would turn negative.  The
method needs no phase-1 point and certifies infeasibility when neither a
primal nor a dual step exists.

Online, consecutive problems usually bind the same rows, so solve_qp_stack
can warm-start each member with its previous solution's active set (the
hot start of online active-set QP: Ferreau, Bock and Diehl 2008).  The
guess is tested by its equality projection: minimize ||w + g||^2 with the
guessed rows held at their bounds.  If that point's multipliers are
non-negative and it satisfies every row, it meets the KKT conditions, which
for a strictly convex QP make it the unique optimum; otherwise the member
goes to solve_qp, the dual active-set method from the start.  solve_qp
itself takes no guess: on lone controller steps a guess, hit or miss, cost
more than solving cold.

check_kkt verifies a candidate point against the KKT system through an
independent route (non-negative least squares on the active gradients).
The solver does not call it; it is the tests' oracle for the solver's
points.

A problem whose matrix stays fixed while g and the bounds change (the
controller's step QP) is built once as a template.  derive_stack checks the
vectors of a stack of instances, each member from its own template, once,
and holds them as a ProblemStack of arrays; a member's infinite bounds must
be its template's, so it shares the template's one-sided normals and their
Gram matrix.  A lone step QP is a stack of one.  solve_qp_stack runs the
warm test on those arrays for the whole stack and derives a problem only
for a member that misses, which goes to the cold method alone; a member's
solution does not depend on the stack it is solved in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
        g, lower, upper = (np.asarray(x, dtype=float) for x in (self.g, self.lower, self.upper))
        if g.ndim != 1:
            raise QPError(f"g must be a vector, got shape {g.shape}")
        g, lower, upper = _checked_vectors([a], g[None], lower[None], upper[None])
        object.__setattr__(self, "g", g[0])
        object.__setattr__(self, "lower", lower[0])
        object.__setattr__(self, "upper", upper[0])

    @property
    def n_var(self) -> int:
        return self.g.size

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Offsets b of the one-sided rows c @ w >= b, interleaved per row.

        [lower_0, -upper_0, lower_1, -upper_1, ...]; an infinite offset
        gives no row.
        """
        return _interleaved_offsets(self.lower[None], self.upper[None])[0]

    @cached_property
    def _normals(self) -> "_Normals":
        """The one-sided normals; they depend on a and on which bounds are finite.

        Raises QPError if their Gram matrix is not finite, as when huge rows
        overflow; the solver could only return garbage from it.
        """
        finite = np.isfinite(self._offsets)
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
        return _Normals(finite=finite, keep=keep, c=c, tags=tags, gram=gram)

    @cached_property
    def expanded(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
        """Two-sided rows rewritten as one-sided normals: c_i @ w >= b_i.

        Returns (c, b, tags) where tags[i] = (original row, "lower"|"upper").
        Rows keep the original order, a row's lower side before its upper
        side; infinite bounds give no row.  Built once per problem.
        """
        normals = self._normals
        return normals.c, self._offsets[normals.keep], normals.tags

    def objective(self, w: np.ndarray) -> float:
        return float(np.sum((np.asarray(w, dtype=float) + self.g) ** 2))


@dataclass(frozen=True, eq=False)
class _Normals:
    """One-sided rows c_i @ w >= b_i without their offsets b_i.

    ``finite`` marks the interleaved bound sides that give a row and
    ``keep`` lists them; an upper side's normal is negated.  ``gram`` is
    c @ c.T, which the solver slices on every inner step.
    """

    finite: np.ndarray
    keep: np.ndarray
    c: np.ndarray
    tags: list[tuple[int, str]]
    gram: np.ndarray

    @cached_property
    def rows(self) -> dict[tuple[int, str], int]:
        """Index of each tag's row in c."""
        return {tag: i for i, tag in enumerate(self.tags)}


def _checked_vectors(matrices: Sequence[np.ndarray], g, lower, upper):
    """g (K, n) and the bounds (K, rows) as float arrays, row j checked against matrices[j].

    A bad stack raises the QPError that a bad member's own constructor
    raises.
    """
    g, lower, upper = (np.asarray(x, dtype=float) for x in (g, lower, upper))
    if g.ndim != 2 or len(g) != len(matrices):
        raise QPError(f"g must be a stack of {len(matrices)} vectors, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise QPError("g has non-finite entries")
    for shape in {a.shape for a in matrices}:
        if shape[1] != g.shape[1]:
            raise QPError(f"a has {shape[1]} columns for a {g.shape[1]}-dim w")
        if lower.shape != (len(g), shape[0]) or upper.shape != lower.shape:
            raise QPError("bound vectors must have one entry per constraint row")
    crossed = lower > upper
    if crossed.any():
        j, bad = np.argwhere(crossed)[0]
        raise QPError(f"row {bad}: lower bound {lower[j, bad]} exceeds upper {upper[j, bad]}")
    return g, lower, upper


def _interleaved_offsets(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per member, [lower_0, -upper_0, lower_1, -upper_1, ...] (see _offsets)."""
    offsets = np.empty((len(lower), 2 * lower.shape[1]))
    offsets[:, 0::2] = lower
    offsets[:, 1::2] = -upper
    return offsets


@dataclass(frozen=True, eq=False)
class ProblemStack:
    """K problems held as arrays: member j has templates[j]'s matrix and row j of g and the bounds.

    ``offsets`` interleaves each member's bounds as _offsets does; member
    j's finite offsets are those of templates[j], so it has that
    template's normals.  Indexing derives member j as a QuadraticProgram;
    solve_qp_stack derives only the members it solves cold.
    """

    templates: tuple[QuadraticProgram, ...]
    g: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.templates)

    def __getitem__(self, j: int) -> QuadraticProgram:
        """Member j as a problem of its own, sharing its template's normals."""
        template = self.templates[j]
        derived = object.__new__(QuadraticProgram)
        # Frozen: fill the instance dict, which cached_property reads first.
        derived.__dict__.update(
            a=template.a, g=self.g[j], lower=self.lower[j], upper=self.upper[j],
            _offsets=self.offsets[j], _normals=template._normals,
        )
        return derived


def derive_stack(templates: Sequence[QuadraticProgram], g, lower, upper) -> ProblemStack:
    """K problems: templates[j]'s matrix with row j of g, lower and upper.

    The (K, n) g and (K, rows) bounds are checked once for the whole
    stack, with the messages of the constructor.  Member j shares the
    normals of templates[j], so its infinite bounds must be the template's;
    QPError names the first member and row where they are not.
    """
    templates = tuple(templates)
    g, lower, upper = _checked_vectors([t.a for t in templates], g, lower, upper)
    offsets = _interleaved_offsets(lower, upper)
    finite = np.array([t._normals.finite for t in templates]).reshape(offsets.shape)
    own = np.isfinite(offsets) != finite
    if own.any():
        j, side = np.argwhere(own)[0]
        row, bound = side >> 1, _SIDES[side & 1]
        this, its = ("infinite", "finite") if finite[j, side] else ("finite", "infinite")
        raise QPError(f"member {j}, row {row}: {bound} bound {this}, template's {its}")
    return ProblemStack(templates, g, lower, upper, offsets)


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
    With as many active rows as variables z is zero, whatever a bad slice's rounding says.
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
    if len(active) >= cp.size:
        return r, np.zeros_like(cp)
    return r, cp - c_all[active].T @ r


def _guess_rows(normals: _Normals, guess) -> list[int] | None:
    """The rows of normals that the guess's tags name, or None for an unknown or repeated tag."""
    index = normals.rows
    rows = [index.get(tag, -1) for tag in guess]
    return rows if -1 not in rows and len(set(rows)) == len(rows) else None


def _warm_points(c, gram, b, g, rows) -> tuple[np.ndarray, np.ndarray | None]:
    """(hit, w): per member, whether its guessed rows are its active set, and its optimum.

    Member j has the one-sided rows c[j] w >= b[j] with Gram matrix
    gram[j], the vector g[j] and the guessed rows rows[j]; every member
    guesses as many rows.  A guess is tested by its equality projection:
    solve gram[S, S] lam = b_S + c_S g and form w = c_S^T lam - g.  The
    point is a hit only when every multiplier is non-negative (NaN fails),
    w is finite and every row, the guessed ones included, has slack
    >= -TOL_QP; the guessed rows must also hold within TOL_QP of their
    bounds, so a badly conditioned slice cannot pass on rounding.  A
    singular slice misses.  w is None when no member's multipliers pass.

    np.linalg.solve and each np.matmul make one LAPACK or BLAS call per
    member, the call a stack of one makes, so a member's bits do not
    depend on the stack it is in.
    """
    k = np.arange(len(rows))[:, None]
    c_s = c[k, rows]
    gram_s = gram[k[..., None], rows[..., None], rows[:, None]]
    lam = _solve_each(gram_s, b[k, rows] + np.matmul(c_s, g[..., None])[..., 0])
    dual = (lam >= 0.0).all(axis=1)  # NaN fails
    if not dual.any():  # where most misses on noisy traffic end
        return dual, None
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.matmul(c_s.transpose(0, 2, 1), lam[..., None])[..., 0] - g
        slack = np.matmul(c, w[..., None])[..., 0] - b
    primal = [np.isfinite(w), slack >= -TOL_QP, slack[k, rows] <= TOL_QP]
    return dual & np.concatenate(primal, axis=1).all(axis=1), w


def _solve_each(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lam[j] with gram[j] lam[j] = rhs[j]; NaN for a member whose gram[j] is singular.

    np.linalg.solve raises for the whole stack if one matrix is singular,
    so then each member is solved alone, with the same LAPACK call as in
    the stack.
    """
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        lam = np.full_like(rhs, np.nan)
        for j in range(len(rhs)):
            try:
                lam[j] = np.linalg.solve(gram[j : j + 1], rhs[j : j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return lam


def solve_qp(problem: QuadraticProgram, max_iter: int | None = None) -> QPSolution:
    """Solve the QP cold; status is "optimal", "infeasible" or "iteration_limit".

    The dual active-set method runs from the unconstrained minimum.  Only
    solve_qp_stack warm-starts, and it sends a member whose guess misses
    here.
    """
    c_all, b_all, tags = problem.expanded
    gram = problem._normals.gram
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
            r, z = _projection_step(c_all, gram, active, p)
            zz = float(z @ z)
            s_p = float(cp @ w - b_all[p])
            t_primal = np.inf if zz < _ZERO_DIR else -s_p / zz
            t_dual = np.inf
            drop = -1
            # A ratio past the float range is inf: no blocker, and no warning.
            with np.errstate(over="ignore"):
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


def solve_qp_stack(problems: ProblemStack, warm: Sequence[tuple | None]) -> list[QPSolution]:
    """Each member j's optimum, warm-started from its guess warm[j] of (row, side) tags.

    Members whose guesses name as many rows of normals of one shape are
    warm-tested as one stack on the stack's arrays (_warm_points); no
    problem is derived for a hit, which is counted as one iteration with
    the guess as its active set.  A member with no guess, or whose guess
    names an unknown or repeated tag, has a singular Gram slice or fails
    the test, goes to the cold solve_qp(problems[j]).  Each member's
    solution is bit for bit that of its own one-member stack.
    """
    solutions: list[QPSolution | None] = [None] * len(problems)
    groups: dict[tuple, list[tuple[int, list[int]]]] = {}
    for j, guess in enumerate(warm):
        if not guess:
            continue
        normals = problems.templates[j]._normals
        rows = _guess_rows(normals, guess)
        if rows is not None:
            groups.setdefault((len(rows), normals.c.shape), []).append((j, rows))
    for members in groups.values():
        idx = [j for j, _ in members]
        normals = [problems.templates[j]._normals for j in idx]
        offsets = problems.offsets[idx]
        hits, w = _warm_points(
            np.array([n.c for n in normals]),
            np.array([n.gram for n in normals]),
            # A member's finite offsets are its template's kept rows.
            offsets[np.isfinite(offsets)].reshape(len(idx), -1),
            problems.g[idx],
            np.array([rows for _, rows in members]),
        )
        for j in np.flatnonzero(hits):
            solutions[idx[j]] = QPSolution(
                w=w[j], status="optimal", active_set=tuple(warm[idx[j]]), iterations=1
            )
    return [
        solve_qp(problems[j]) if solution is None else solution
        for j, solution in enumerate(solutions)
    ]


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
