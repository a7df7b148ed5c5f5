"""Dual active-set QP solver against closed-form projections and a lattice oracle."""

import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexsafe import qp_solver
from flexsafe.qp_solver import (
    KKTReport,
    QPError,
    QuadraticProgram,
    check_kkt,
    derive_stack,
    nnls,
    solve_qp,
    solve_qp_stack,
)

from conftest import (
    LATTICE_SPACING,
    lattice_argmin,
    lattice_argmin_brute,
    make_lattice_instance,
)


def box(g, lower, upper):
    return QuadraticProgram(
        g=np.asarray(g, dtype=float),
        a=np.eye(len(g)),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )


def test_inactive_constraints_give_unconstrained_minimum():
    problem = box([3.0, -4.0], [-10, -10], [10, 10])
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.w, [-3.0, 4.0], atol=1e-12)
    assert sol.active_set == ()
    assert check_kkt(problem, sol.w).residual < 1e-10


def test_box_projection_is_clip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=4) * 3
        lower = -rng.uniform(0.1, 2.0, size=4)
        upper = rng.uniform(0.1, 2.0, size=4)
        problem = box(g, lower, upper)
        sol = solve_qp(problem)
        assert sol.status == "optimal"
        assert np.allclose(sol.w, np.clip(-g, lower, upper), atol=1e-10)
        assert check_kkt(problem, sol.w).residual < 1e-8


def test_halfspace_projection_closed_form():
    """min ||w + g||^2 s.t. c.w >= b projects -g onto the halfspace."""
    c = np.array([1.0, 2.0])
    b = 4.0
    g = np.array([1.0, 1.0])  # -g = (-1,-1) violates c.w >= 4
    problem = QuadraticProgram(
        g=g, a=c[None, :], lower=np.array([b]), upper=np.array([np.inf])
    )
    sol = solve_qp(problem)
    target = -g + (b - c @ -g) / (c @ c) * c
    assert sol.status == "optimal"
    assert np.allclose(sol.w, target, atol=1e-12)
    assert sol.active_set == ((0, "lower"),)


def test_equality_row_pins_component():
    problem = QuadraticProgram(
        g=np.array([2.0, 0.5]),
        a=np.array([[1.0, 0.0], [0.0, 1.0]]),
        lower=np.array([0.7, -5.0]),
        upper=np.array([0.7, 5.0]),
    )
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    assert sol.w[0] == pytest.approx(0.7, abs=1e-12)
    assert sol.w[1] == pytest.approx(-0.5, abs=1e-12)


def test_infeasible_rows_detected():
    # w0 >= 1 and w0 <= -1 simultaneously.
    problem = QuadraticProgram(
        g=np.zeros(2),
        a=np.array([[1.0, 0.0], [1.0, 0.0]]),
        lower=np.array([1.0, -np.inf]),
        upper=np.array([np.inf, -1.0]),
    )
    sol = solve_qp(problem)
    assert sol.status == "infeasible"
    assert sol.active_set == ()


def test_active_set_tags_name_the_binding_side():
    problem = QuadraticProgram(
        g=np.array([5.0, -5.0]),
        a=np.eye(2),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    sol = solve_qp(problem)
    assert sorted(sol.active_set) == [(0, "lower"), (1, "upper")]


def test_solution_beats_random_feasible_points():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3))
    problem = QuadraticProgram(
        g=rng.normal(size=3) * 2,
        a=a,
        lower=a @ np.zeros(3) - 1.0,  # origin is strictly feasible
        upper=a @ np.zeros(3) + 1.0,
    )
    sol = solve_qp(problem)
    assert sol.status == "optimal"
    best = problem.objective(sol.w)
    for _ in range(200):
        cand = rng.uniform(-1, 1, size=3)
        if np.all(a @ cand >= problem.lower - 1e-12) and np.all(
            a @ cand <= problem.upper + 1e-12
        ):
            assert problem.objective(cand) >= best - 1e-10


@pytest.mark.parametrize("n_active", [0, 1, 2])
def test_matches_lattice_oracle(lattice_points, n_active):
    """Planted instances whose exact minimizer lies on a brute-force lattice."""
    rng = np.random.default_rng(100 + n_active)
    for _ in range(3):
        problem, w_star = make_lattice_instance(rng, n_active)
        sol = solve_qp(problem)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.w - w_star)) <= 1e-8
        brute = lattice_argmin(problem, lattice_points)
        assert np.max(np.abs(sol.w - brute)) <= LATTICE_SPACING
        assert check_kkt(problem, sol.w).residual < 1e-8


def test_lattice_oracle_matches_brute_force(lattice_points):
    """The bisecting oracle returns exactly the point the full scan returns."""
    rng = np.random.default_rng(424242)
    problems = [make_lattice_instance(rng, n_active=1 + i % 2)[0] for i in range(2)]
    # Two-sided, upper-only and q-free rows, with the optimum on the boundary.
    problems.append(
        QuadraticProgram(
            g=np.array([0.3, -0.8]),
            a=np.array([[1.0, 0.0], [0.4, -1.0], [0.6, 0.8]]),
            lower=np.array([-0.5, -np.inf, -0.2]),
            upper=np.array([0.4, 0.3, np.inf]),
        )
    )
    for problem in problems:
        fast = lattice_argmin(problem, lattice_points)
        assert np.array_equal(fast, lattice_argmin_brute(problem, lattice_points))


def _expand_row_loop(problem):
    """Row-by-row expansion into one-sided rows; the reference for expanded."""
    rows, offsets, tags = [], [], []
    for i in range(problem.a.shape[0]):
        if np.isfinite(problem.lower[i]):
            rows.append(problem.a[i])
            offsets.append(problem.lower[i])
            tags.append((i, "lower"))
        if np.isfinite(problem.upper[i]):
            rows.append(-problem.a[i])
            offsets.append(-problem.upper[i])
            tags.append((i, "upper"))
    if rows:
        return np.vstack(rows), np.array(offsets), tags
    return np.empty((0, problem.n_var)), np.empty(0), tags


def test_expand_matches_row_loop():
    rng = np.random.default_rng(8)
    problems = [
        QuadraticProgram(
            g=np.zeros(2),
            a=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            lower=np.array([-np.inf, 0.5, -1.0]),
            upper=np.array([np.inf, np.inf, 2.0]),
        )
    ]
    for _ in range(200):
        m, n = int(rng.integers(0, 7)), int(rng.integers(1, 4))
        lower = rng.normal(size=m) - 1.0
        upper = lower + rng.uniform(0.0, 2.0, size=m)
        lower[rng.random(m) < 0.3] = -np.inf
        upper[rng.random(m) < 0.3] = np.inf
        a = rng.normal(size=(m, n))
        problems.append(QuadraticProgram(g=rng.normal(size=n), a=a, lower=lower, upper=upper))
    for problem in problems:
        c, b, tags = problem.expanded
        c_ref, b_ref, tags_ref = _expand_row_loop(problem)
        assert c.shape == c_ref.shape and np.array_equal(c, c_ref)
        assert np.array_equal(b, b_ref)
        assert tags == tags_ref
    assert problems[0].expanded is problems[0].expanded  # built once per problem


def test_check_kkt_flags_suboptimal_point():
    problem = box([3.0, -4.0], [-10, -10], [10, 10])
    good = check_kkt(problem, np.array([-3.0, 4.0]))
    assert good.residual < 1e-10
    bad = check_kkt(problem, np.array([0.0, 0.0]))
    assert bad.residual > 1.0
    assert bad.stationarity > 1.0


def test_check_kkt_reports_primal_violation():
    problem = box([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])
    report = check_kkt(problem, np.array([0.0, 0.0]))
    assert report.primal_feasibility == pytest.approx(1.0)


def test_kkt_report_residual_is_max():
    report = KKTReport(stationarity=1e-9, primal_feasibility=3e-7, complementarity=2e-8)
    assert report.residual == 3e-7


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=np.zeros(2), a=np.eye(3), lower=np.zeros(3), upper=np.ones(3)),
        dict(g=np.zeros(2), a=np.eye(2), lower=np.zeros(3), upper=np.ones(2)),
        dict(g=np.zeros(2), a=np.eye(2), lower=np.ones(2), upper=np.zeros(2)),
        dict(g=np.array([np.nan, 0.0]), a=np.eye(2), lower=np.zeros(2), upper=np.ones(2)),
    ],
)
def test_malformed_problems_rejected(kwargs):
    with pytest.raises(QPError):
        QuadraticProgram(**kwargs)


def test_overflowing_gram_matrix_rejected():
    """Rows whose Gram matrix overflows raise QPError, without a floating-point warning."""
    problem = QuadraticProgram(
        g=np.zeros(2), a=1e308 * np.eye(2), lower=-np.ones(2), upper=np.ones(2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QPError, match="Gram matrix"):
            solve_qp(problem)
        with pytest.raises(QPError, match="Gram matrix"):
            derive_stack(problem, np.zeros((1, 2)), -np.ones((1, 2)), np.ones((1, 2)))


def test_overflowing_objective_rejected():
    """A finite g whose squared norm overflows raises QPError, alone or stacked, with no warning."""
    template = box([0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    g = np.array([[0.0, 0.0], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QPError, match=r"\|\|w \+ g\|\|\^2 overflows"):
            QuadraticProgram(g=g[1], a=np.eye(2), lower=-np.ones(2), upper=np.ones(2))
        with pytest.raises(QPError, match=r"\|\|w \+ g\|\|\^2 overflows"):
            derive_stack(template, g, -np.ones((2, 2)), np.ones((2, 2)))
    assert len(derive_stack(template, 1e-50 * g, -np.ones((2, 2)), np.ones((2, 2)))) == 2


def test_full_active_set_takes_no_rounding_step():
    """As many independent active rows as variables leave no primal step.

    Rows 0 and 3 are one equality; with rows 1, 2 and 4 active, adding
    either of them has z = 0 exactly.  Its rounding residue (2.9e-7, the
    slice is ill-conditioned) used to pass for a step: the method cycled
    between the twin rows with a growing w until it overflowed, instead of
    finding rows 4 and 5 contradictory.
    """
    normal = np.array([2.0, 1e-3, 7.859375])
    twin = [0.0, 1.0, 0.0]
    a = np.vstack([twin, [5.0, 0.0, -1.0], [3.0, 0.0, 0.0], twin, normal, normal])
    problem = QuadraticProgram(
        g=np.zeros(3),
        a=a,
        lower=np.array([0.0, 0.0, -1.0, 0.0, 2.0, -np.inf]),
        upper=np.array([0.0, 0.0, -1.0, 0.0, np.inf, 1.0]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_qp(problem).status == "infeasible"


def test_iteration_cap_reported():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 6))
    problem = QuadraticProgram(
        g=rng.normal(size=6),
        a=a,
        lower=a @ np.zeros(6) - 0.01,
        upper=a @ np.zeros(6) + 0.01,
    )
    sol = solve_qp(problem, max_iter=1)
    assert sol.status in ("optimal", "iteration_limit")
    if sol.status == "iteration_limit":
        assert sol.active_set == ()


# Zero or a magnitude in [1e-3, 10]: the instances stay far from singular.
# Near cond(a) ~ 1 / eps the optimal multipliers are huge and both solvers'
# residuals carry rounding errors well above the 1e-10 compared here; the
# nearly singular instances are compared up to that rounding further down.
MAGNITUDE = st.floats(1e-3, 10.0)
ENTRY = st.one_of(st.just(0.0), MAGNITUDE, MAGNITUDE.map(lambda v: -v))


def _rounding(a, *xs):
    """Residual error a backward-stable solver may make at multipliers xs."""
    scale = max(float(np.linalg.norm(x)) for x in xs)
    return 1e-10 + 10.0 * np.finfo(float).eps * max(a.shape) * np.linalg.norm(a) * scale


def _no_worse_than_scipy(a, b, x):
    ref, _ = scipy.optimize.nnls(a, b)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    residual, ref_residual = np.linalg.norm(a @ x - b), np.linalg.norm(a @ ref - b)
    assert residual <= ref_residual + _rounding(a, x, ref)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    kind=st.sampled_from(["random", "rank_deficient", "overdetermined"]),
)
def test_nnls_matches_scipy(data, shape, kind):
    """Same optimal residual as scipy's Lawson-Hanson on assorted instances."""
    m, n = shape
    if kind == "overdetermined":
        m = n + m
    a = data.draw(arrays(np.float64, (m, n), elements=ENTRY))
    if kind == "rank_deficient":
        # Repeat, negate and scale columns: rank below the column count.
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        scales = data.draw(st.lists(ENTRY, min_size=len(picks), max_size=len(picks)))
        a = np.hstack([a, a[:, picks] * np.array(scales)])
    b = data.draw(arrays(np.float64, (m,), elements=ENTRY))
    try:
        ref, ref_norm = scipy.optimize.nnls(a, b)
    except RuntimeError:  # the reference hit its own iteration cap
        assume(False)
    x = nnls(a, b)
    assert x.shape == (a.shape[1],) and np.all(x >= 0.0)
    assert abs(np.linalg.norm(a @ x - b) - ref_norm) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 7),
    k=st.integers(1, 5),
    exponent=st.floats(-16.0, -6.0),
)
def test_nnls_nearly_dependent_columns(data, m, k, exponent):
    """One column off the span of the others by 1e-16 to 1e-6: optimal to working precision.

    Such instances have optimal multipliers up to 1e16 or residuals that
    differ from scipy's only in the last bits of ||a x - b||^2, so they are
    judged by the NNLS optimality conditions instead of by scipy's residual.
    """
    base = data.draw(arrays(np.float64, (m, k), elements=ENTRY))
    weights = data.draw(arrays(np.float64, (k,), elements=ENTRY))
    nudge = data.draw(arrays(np.float64, (m,), elements=ENTRY))
    at = data.draw(st.integers(0, k))
    a = np.insert(base, at, base @ weights + 10.0**exponent * nudge, axis=1)
    b = data.draw(arrays(np.float64, (m,), elements=ENTRY))
    x = nnls(a, b)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    grad = a.T @ (a @ x - b)
    scale = np.linalg.norm(a) * (np.linalg.norm(a) * np.linalg.norm(x) + max(1.0, np.linalg.norm(b)))
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * scale
    assert np.all(grad >= -tol)  # no column could lower the residual
    assert np.all(np.abs(grad[x > 0.0]) <= tol)  # stationary on the columns in use


def test_nnls_ill_conditioned_and_tiny_columns():
    # Nearly opposite columns: the exact optimum has multipliers near 1e10.
    a = np.array([[2.0, -1.0], [1e-10, 0.0]])
    for b in ([0.0, 1.0], [-1.82611582, 8.31667801]):
        _no_worse_than_scipy(a, np.array(b), nnls(a, np.array(b)))
    # A column whose largest entry is zero or subnormal keeps a zero
    # multiplier; scipy returns inf for the subnormal one.
    a = np.array([[1.0, 5e-324, 0.0], [0.0, 1e-320, 0.0]])
    assert np.array_equal(nnls(a, np.array([1.0, 1.0])), [1.0, 0.0, 0.0])
    # A multiplier beyond the float range comes back as zero.
    assert np.array_equal(nnls(np.array([[2.3e-308]]), np.array([10.0])), [0.0])


def test_nnls_passes_over_a_column_the_fit_does_not_use(monkeypatch):
    """A column let in by a rounding-level dual whose fit is not positive is
    barred until the iterate moves, instead of re-entering until the cap."""
    # The third column lies in the span of the first two up to a singular
    # value 1e-16 times the largest.
    a = np.array(
        [
            [0.30792298340887136, 1.7138495150993727, -1.9713257745475357],
            [1.5015702878997428, 1.182961147915247, -1.3886518196957267],
            [0.9273947502432107, -0.13355665480969844, 0.13297661532245658],
        ]
    )
    b = np.array([0.9335077886479612, -1.289569749811818, -0.3366805477609017])
    fits = []
    free_fit = qp_solver._free_fit
    monkeypatch.setattr(
        qp_solver, "_free_fit", lambda a, b, free: fits.append(free.copy()) or free_fit(a, b, free)
    )
    x = nnls(a, b)
    assert len(fits) <= a.shape[1]  # one fit per entering column
    _no_worse_than_scipy(a, b, x)


def test_nnls_fast_path_and_cap(monkeypatch):
    a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    inside = a @ np.array([0.5, 0.25])
    assert np.allclose(nnls(a, inside), [0.5, 0.25], atol=1e-14)
    # The unconstrained fit is (-1, 1): NNLS drops the first column.
    b = a @ np.array([-1.0, 1.0])
    x = nnls(a, b)
    assert x[0] == 0.0 and x[1] > 0.0
    monkeypatch.setattr(qp_solver, "_NNLS_PASSES", 0)
    assert np.array_equal(nnls(a, b), np.zeros(2))


def test_kkt_stationarity_comes_from_returned_multipliers(monkeypatch):
    """A stopped NNLS can only overstate the residual, never hide one."""
    problem = box([3.0, 0.0], [-1.0, -1.0], [1.0, 1.0])  # w = (-1, 0), row 0 binds
    w = np.array([-1.0, 0.0])
    assert check_kkt(problem, w).residual < 1e-12
    monkeypatch.setattr(qp_solver, "nnls", lambda a, b: np.zeros(a.shape[1]))
    stopped = check_kkt(problem, w)
    assert stopped.stationarity == pytest.approx(np.linalg.norm(2.0 * (w + problem.g)))


def _bounds(data, m):
    """Bounds with lower <= upper, each side infinite where a drawn mask says so."""
    lower = data.draw(arrays(np.float64, (m,), elements=ENTRY))
    upper = lower + data.draw(arrays(np.float64, (m,), elements=st.floats(0.0, 5.0)))
    lower[data.draw(arrays(np.bool_, (m,)))] = -np.inf
    upper[data.draw(arrays(np.bool_, (m,)))] = np.inf
    return lower, upper


def _shifted(data, problem):
    """problem's bounds moved by one drawn shift per row: infinite where problem's are."""
    shift = data.draw(arrays(np.float64, (problem.a.shape[0],), elements=ENTRY))
    return problem.lower + shift, problem.upper + shift


def _own_pattern_row(template, lower, upper):
    """The first row whose bounds are infinite where template's are not, or the other way."""
    differs = (np.isinf(lower) != np.isinf(template.lower)) | (
        np.isinf(upper) != np.isinf(template.upper)
    )
    return int(np.flatnonzero(differs)[0]) if differs.any() else None


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    m=st.integers(0, 7),
    same_pattern=st.booleans(),
)
def test_derived_member_matches_fresh_problem(data, n, m, same_pattern):
    """A one-member stack expands and solves exactly as a problem built from scratch.

    A member whose infinite bounds are not where its template's are is
    refused, naming the member and the first such row.
    """
    a = data.draw(arrays(np.float64, (m, n), elements=ENTRY))
    template_lower, template_upper = _bounds(data, m)
    template = QuadraticProgram(g=np.zeros(n), a=a, lower=template_lower, upper=template_upper)
    g = data.draw(arrays(np.float64, (n,), elements=ENTRY))
    lower, upper = _shifted(data, template) if same_pattern else _bounds(data, m)
    own_row = _own_pattern_row(template, lower, upper)
    if own_row is not None:
        with pytest.raises(QPError, match=rf"^member 0, row {own_row}: "):
            derive_stack(template, g[None], lower[None], upper[None])
        return
    derived = derive_stack(template, g[None], lower[None], upper[None])[0]
    fresh = QuadraticProgram(g=g, a=a, lower=lower, upper=upper)
    assert derived._normals is template._normals
    (c, b, tags), (c_ref, b_ref, tags_ref) = derived.expanded, fresh.expanded
    assert np.array_equal(c, c_ref) and np.array_equal(b, b_ref) and tags == tags_ref
    sol, ref = solve_qp(derived), solve_qp(fresh)
    assert sol.status == ref.status
    assert np.array_equal(sol.w, ref.w)
    assert sol.active_set == ref.active_set


def test_derive_stack_names_a_member_with_bounds_of_its_own():
    """Every member shares its template's normals, so its infinite bounds must be the template's."""
    template = box([0.0, 0.0], [-1.0, -np.inf], [1.0, 1.0])
    g, lower, upper = np.zeros((3, 2)), np.tile(template.lower, (3, 1)), np.ones((3, 2))
    assert len(derive_stack(template, g, lower, upper)) == 3
    lower[2, 0] = -np.inf
    with pytest.raises(QPError, match="^member 2, row 0: lower bound infinite, template's finite$"):
        derive_stack(template, g, lower, upper)
    lower[2, 0], lower[1, 1] = -1.0, 0.0
    with pytest.raises(QPError, match="^member 1, row 1: lower bound finite, template's infinite$"):
        derive_stack(template, g, lower, upper)
    lower[1, 1], upper[0, 1] = -np.inf, np.inf
    with pytest.raises(QPError, match="^member 0, row 1: upper bound infinite, template's finite$"):
        derive_stack(template, g, lower, upper)


def _problem(data, n, m):
    """A strictly convex instance with m rows on n variables, some sides infinite."""
    a = data.draw(arrays(np.float64, (m, n), elements=ENTRY))
    lower, upper = _bounds(data, m)
    g = data.draw(arrays(np.float64, (n,), elements=ENTRY))
    return QuadraticProgram(g=g, a=a, lower=lower, upper=upper)


def _warm_solve(problem, guess):
    """problem solved warm from guess, as a one-member solve_qp_stack."""
    stack = derive_stack(problem, problem.g[None], problem.lower[None], problem.upper[None])
    return solve_qp_stack(stack, [guess])[0]


def _same_solution(sol, ref):
    assert sol.status == ref.status
    assert np.array_equal(sol.w, ref.w)
    assert sol.active_set == ref.active_set
    assert sol.iterations == ref.iterations


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 8))
def test_warm_start_from_the_own_active_set_hits(data, n, m):
    """Guessing the cold solve's own active set returns its optimum in one iteration.

    The instances are strictly complementary and well conditioned.  A
    multiplier that is zero at the optimum may come out of the warm test a
    rounding below zero, and nearly dependent active normals amplify the
    two routes' different rounding to more than the 1e-12 compared here;
    either way the warm solve falls back to, or stays near, the cold one,
    which the next test checks for any guess.
    """
    problem = _problem(data, n, m)
    cold = solve_qp(problem)
    assume(cold.status == "optimal" and cold.active_set)
    c, b, tags = problem.expanded
    rows = [tags.index(tag) for tag in cold.active_set]
    gram = c[rows] @ c[rows].T
    lam = np.linalg.solve(gram, b[rows] + c[rows] @ problem.g)
    assume(np.linalg.cond(gram) <= 100.0 and lam.min() >= 1e-6)
    assume(np.max(np.abs(cold.w)) <= 10.0)
    warm = _warm_solve(problem, cold.active_set)
    assert warm.iterations == 1
    assert (warm.status, warm.active_set) == (cold.status, cold.active_set)
    assert np.max(np.abs(warm.w - cold.w)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    m=st.integers(1, 8),
    kind=st.sampled_from(["random", "duplicated", "dependent"]),
)
def test_warm_start_from_any_guess_gives_the_cold_solution(data, n, m, kind):
    """A wrong, repeated or dependent guess falls back to the cold solve bit for bit.

    A guess that passes the warm test is an optimal active set, so it may
    only return the cold optimum, up to rounding.
    """
    problem = _problem(data, n, m)
    tags = problem.expanded[2]
    known = st.sampled_from(tags) if tags else st.nothing()
    unknown = st.sampled_from([(m, "lower"), (-1, "upper"), (0, "middle")])
    if kind == "random":
        guess = data.draw(st.lists(st.one_of(known, unknown), min_size=1, max_size=4))
    elif kind == "duplicated":
        guess = data.draw(st.lists(st.one_of(known, unknown), min_size=1, max_size=3))
        guess.insert(data.draw(st.integers(0, len(guess))), data.draw(st.sampled_from(guess)))
    else:
        # More rows than variables, or both sides of one row: dependent normals.
        assume(len(tags) > n)
        guess = data.draw(st.lists(known, min_size=n + 1, max_size=len(tags), unique=True))
    cold = solve_qp(problem)
    sol = _warm_solve(problem, tuple(guess))
    hit = sol.iterations == 1 and sol.active_set == tuple(guess)
    event(f"{kind} guess {'hit' if hit else 'fell back'}")
    if hit:
        assert kind != "duplicated"
        assert sol.status == cold.status == "optimal"
        assert np.max(np.abs(sol.w - cold.w)) <= 1e-12
        assert check_kkt(problem, sol.w).residual < 1e-8
    else:
        _same_solution(sol, cold)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    m=st.integers(0, 6),
    gap=st.floats(1e-3, 1.0),
)
def test_infeasible_instance_stays_infeasible_under_any_guess(data, n, m, gap):
    """Two rows along one normal that no point satisfies both of, plus random rows."""
    normal = data.draw(arrays(np.float64, (n,), elements=MAGNITUDE))
    bound = data.draw(ENTRY)
    a = np.vstack([data.draw(arrays(np.float64, (m, n), elements=ENTRY)), normal, normal])
    lower, upper = _bounds(data, m)
    problem = QuadraticProgram(
        g=data.draw(arrays(np.float64, (n,), elements=ENTRY)),
        a=a,
        lower=np.append(lower, [bound + gap, -np.inf]),
        upper=np.append(upper, [np.inf, bound]),
    )
    tags = problem.expanded[2]
    guess = data.draw(st.lists(st.sampled_from(tags), min_size=1, max_size=4))
    cold = solve_qp(problem)
    assert cold.status == "infeasible"
    _same_solution(_warm_solve(problem, tuple(guess)), cold)


def test_guess_of_more_rows_than_variables_falls_back():
    """Three guessed rows in two variables are dependent: the guess misses, whatever rounding says.

    Both sides of equality row 0 and row 1 give an exactly singular Gram
    slice that LAPACK factors without complaint here, and whose projection
    passed the warm test 7.8e-12 away from the cold optimum.
    """
    a = np.array([[0.0, 5.596358549892807], [0.0625, 3.0]])
    bounds = np.array([-1.0, 0.0])
    problem = QuadraticProgram(g=np.zeros(2), a=a, lower=bounds, upper=bounds)
    guess = ((0, "lower"), (0, "upper"), (1, "lower"))
    _same_solution(_warm_solve(problem, guess), solve_qp(problem))


def _guess(data, problem, kind):
    """A warm-start guess of one kind for problem, or None where the kind has none."""
    tags = problem.expanded[2]
    if kind == "none":
        return data.draw(st.sampled_from([None, ()]))
    if kind == "own":
        return solve_qp(problem).active_set
    if kind == "unknown":
        return ((problem.a.shape[0], "lower"),)
    if not tags:
        return None
    if kind == "wrong":
        wrong = st.lists(st.sampled_from(tags), min_size=1, max_size=3, unique=True)
        return tuple(data.draw(wrong))
    if kind == "repeated":
        tag = data.draw(st.sampled_from(tags))
        return (tag, tag)
    # Both sides of one two-sided row: opposite normals, an exactly singular slice.
    two_sided = sorted({r for r, side in tags if side == "upper" and (r, "lower") in tags})
    return ((two_sided[0], "lower"), (two_sided[0], "upper")) if two_sided else None


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    m=st.integers(1, 6),
    kinds=st.lists(
        st.sampled_from(["none", "own", "wrong", "unknown", "repeated", "singular"]),
        min_size=1,
        max_size=8,
    ),
)
def test_stacked_solves_equal_each_member_alone(data, n, m, kinds):
    """Each member of solve_qp_stack is bit for bit its own one-member stack.

    The members share one template with their own g, bounds and guesses,
    so a stack mixes guess sizes; a singular slice shares its stack group
    with the members around it.  Reversing the stack must not change any
    member's solution either.
    """
    template = _problem(data, n, m)
    vectors = []
    for _ in kinds:
        lower, upper = _shifted(data, template)
        vectors.append((data.draw(arrays(np.float64, (n,), elements=ENTRY)), lower, upper))
    problems = [derive_stack(template, *(x[None] for x in v))[0] for v in vectors]
    guesses = [_guess(data, problem, kind) for problem, kind in zip(problems, kinds)]
    stacked, reversed_stack = [None] * len(kinds), [None] * len(kinds)
    js = list(range(len(kinds)))
    for order, out in ((js, stacked), (js[::-1], reversed_stack)):
        g, lower, upper = (np.array(x) for x in zip(*(vectors[j] for j in order)))
        stack = derive_stack(template, g, lower, upper)
        for j, sol in zip(order, solve_qp_stack(stack, [guesses[j] for j in order])):
            out[j] = sol
    for problem, guess, sol, again in zip(problems, guesses, stacked, reversed_stack):
        alone = _warm_solve(problem, guess)
        hit = guess and alone.iterations == 1 and alone.active_set == tuple(guess)
        event("hit" if hit else "cold")
        _same_solution(sol, alone)
        _same_solution(again, alone)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(0, 6), k=st.integers(1, 6))
def test_derive_stack_matches_each_member_alone(data, n, m, k):
    """Stacked derivation gives each member what its own stack of one gives.

    Each member's bounds keep the template's infinite entries or, when a
    drawn flag says so, have a pattern of their own; a stack with such a
    member is refused, naming the first one.
    """
    template = _problem(data, n, m)
    g = data.draw(arrays(np.float64, (k, n), elements=ENTRY))
    own = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    bounds = [_bounds(data, m) if o else _shifted(data, template) for o in own]
    lower, upper = (np.array(x).reshape(k, m) for x in zip(*bounds))
    own_rows = [_own_pattern_row(template, lower[j], upper[j]) for j in range(k)]
    if any(row is not None for row in own_rows):
        j = next(j for j, row in enumerate(own_rows) if row is not None)
        with pytest.raises(QPError, match=rf"^member {j}, row {own_rows[j]}: "):
            derive_stack(template, g, lower, upper)
        return
    stack = derive_stack(template, g, lower, upper)
    for j in range(k):
        derived = stack[j]
        alone = derive_stack(template, g[j : j + 1], lower[j : j + 1], upper[j : j + 1])[0]
        assert derived.a is template.a
        for name in ("g", "lower", "upper"):
            assert np.array_equal(getattr(derived, name), getattr(alone, name)), name
        assert derived._normals is template._normals is alone._normals
        (c, b, tags), (c_ref, b_ref, tags_ref) = derived.expanded, alone.expanded
        assert np.array_equal(c, c_ref) and np.array_equal(b, b_ref) and tags == tags_ref


def test_derive_stack_checks_the_stack_as_the_constructor_does():
    template = box([0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    good = np.zeros((2, 2)), -np.ones((2, 2)), np.ones((2, 2))
    assert len(derive_stack(template, *good)) == 2
    assert len(derive_stack(template, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))) == 0
    g, lower, upper = (x.copy() for x in good)
    g[1, 0] = np.inf
    with pytest.raises(QPError, match="g has non-finite entries"):
        derive_stack(template, g, lower, upper)
    with pytest.raises(QPError, match="a has 2 columns for a 3-dim w"):
        derive_stack(template, np.zeros((2, 3)), lower, upper)
    with pytest.raises(QPError, match="one entry per constraint row"):
        derive_stack(template, good[0], np.zeros((2, 3)), upper)
    with pytest.raises(QPError, match="stack of 2 vectors"):
        derive_stack(template, np.zeros(2), lower, upper)
    lower[1, 1] = 2.0
    with pytest.raises(QPError, match=r"row 1: lower bound 2.0 exceeds upper 1.0"):
        derive_stack(template, good[0], lower, upper)


def test_with_vectors_checks_the_new_vectors():
    """A lone step QP, derived as a stack of one, has its new vectors checked as the constructor does."""
    template = box([0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    lower, upper = template.lower[None], template.upper[None]
    with pytest.raises(QPError, match="non-finite"):
        derive_stack(template, np.array([[np.nan, 0.0]]), lower, upper)
    with pytest.raises(QPError, match="one entry per constraint row"):
        derive_stack(template, np.zeros((1, 2)), np.zeros((1, 3)), np.ones((1, 2)))
    with pytest.raises(QPError, match="columns"):
        derive_stack(template, np.zeros((1, 3)), lower, upper)
    with pytest.raises(QPError, match="exceeds upper"):
        derive_stack(template, np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 2)))
