"""Dual active-set QP solver against closed-form projections and a lattice oracle."""

import numpy as np
import pytest

from flexsafe.qp_solver import (
    KKTReport,
    QPError,
    QuadraticProgram,
    _expand,
    check_kkt,
    solve_qp,
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
    sol = solve_qp(box([3.0, -4.0], [-10, -10], [10, 10]))
    assert sol.status == "optimal"
    assert np.allclose(sol.w, [-3.0, 4.0], atol=1e-12)
    assert sol.active_set == ()
    assert sol.kkt_residual < 1e-10


def test_box_projection_is_clip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=4) * 3
        lower = -rng.uniform(0.1, 2.0, size=4)
        upper = rng.uniform(0.1, 2.0, size=4)
        sol = solve_qp(box(g, lower, upper))
        assert sol.status == "optimal"
        assert np.allclose(sol.w, np.clip(-g, lower, upper), atol=1e-10)
        assert sol.kkt_residual < 1e-8


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
    assert not np.isfinite(sol.kkt_residual)


def test_active_set_tags_name_the_binding_side():
    problem = QuadraticProgram(
        g=np.array([5.0, -5.0]),
        a=np.eye(2),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
        labels=("row0", "row1"),
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
        assert sol.kkt_residual < 1e-8


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
    """Row-by-row expansion into one-sided rows; the reference for _expand."""
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
        c, b, tags = _expand(problem)
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
    report = KKTReport(
        stationarity=1e-9, primal_feasibility=3e-7, dual_feasibility=0.0, complementarity=2e-8
    )
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
        assert not np.isfinite(sol.kkt_residual)
