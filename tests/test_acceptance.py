"""Acceptance gate: eight end-to-end checks at pinned tolerances.

Each check contributes one "<ID> PASS/FAIL: ..." line to the acceptance
report that conftest prints after the run.
"""

import csv
import functools
import json
import math
import shutil
import time

import numpy as np
import pytest

from flexsafe.cli import main as cli_main
from flexsafe.for_region import (
    FORPolygon,
    contains_many,
    sample_oracle_for,
    sweep_for,
    verify_vertices,
)
from flexsafe.grid_model import load_grid
from flexsafe.ofo_controller import (
    ControllerConfig,
    SetPoint,
    calibrate_alpha,
    run_schedule,
)
from flexsafe.power_flow import nodal_residuals, solve_power_flow
from flexsafe.qp_solver import check_kkt, solve_qp
from flexsafe.sensitivity import compute_sensitivity, finite_difference_oracle
from flexsafe.trajectory_analysis import (
    SafetyClass,
    TrajectorySet,
    classify,
    coverage_metric,
)
from flexsafe.uncertainty_mc import NoiseConfig, density_histogram, run_monte_carlo

from conftest import (
    ACCEPTANCE_LINES,
    ALL_GRIDS,
    LATTICE_SPACING,
    grid_path,
    lattice_argmin,
    make_lattice_instance,
    make_trajectory,
    twobus_closed_form,
)


def passfail(criterion):
    """Record one acceptance-report line per criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                ACCEPTANCE_LINES.append(f"{criterion} FAIL: {exc}")
                raise
            ACCEPTANCE_LINES.append(f"{criterion} PASS: {detail}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def ring4_sweep():
    """Fine FOR sweep of the 4-bus ring, shared by the region checks.

    144 rays keep the inscribed polygon's chord error well under the 1e-3
    safety tolerance used below.  The sweep's wall time is charged to every
    check that consumes it.
    """
    grid = load_grid(grid_path("ring4"))
    smap = compute_sensitivity(grid)
    start = time.perf_counter()
    polygon = sweep_for(grid, smap, n_angles=144)
    elapsed = time.perf_counter() - start
    return grid, smap, polygon, elapsed


@passfail("A1")
def test_a1_power_flow_matches_closed_form():
    start = time.perf_counter()
    twobus = load_grid(grid_path("twobus"))
    state = solve_power_flow(twobus)
    assert state.converged
    v2, theta2, p_pcc, q_pcc = twobus_closed_form(-0.3, -0.1, 0.1)
    closed_form_err = max(
        abs(state.v[1] - v2),
        abs(state.theta[1] - theta2),
        abs(state.p_pcc - p_pcc),
        abs(state.q_pcc - q_pcc),
    )
    assert closed_form_err < 1e-8

    worst_residual = 0.0
    for name in ALL_GRIDS:
        grid = load_grid(grid_path(name))
        solved = solve_power_flow(grid)
        assert solved.converged, name
        residual = np.max(np.abs(nodal_residuals(grid, solved)))
        assert residual < 1e-8, name
        worst_residual = max(worst_residual, residual)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"
    return (
        f"closed-form error {closed_form_err:.1e}, worst nodal residual "
        f"{worst_residual:.1e} across {len(ALL_GRIDS)} grids ({elapsed:.2f}s)"
    )


@passfail("A2")
def test_a2_sensitivity_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for name in ALL_GRIDS:
        grid = load_grid(grid_path(name))
        analytic = compute_sensitivity(grid)
        fd = finite_difference_oracle(grid)
        err = np.max(np.abs(analytic.matrix - fd.matrix)) / np.max(np.abs(fd.matrix))
        assert err < 1e-4, name
        worst = max(worst, err)

    # Central differences are second order: halving the step should shrink
    # the FD-vs-FD disagreement by roughly 4x.
    twobus = load_grid(grid_path("twobus"))
    d_2 = finite_difference_oracle(twobus, step=2e-3).matrix
    d_1 = finite_difference_oracle(twobus, step=1e-3).matrix
    d_05 = finite_difference_oracle(twobus, step=5e-4).matrix
    ratio = np.max(np.abs(d_2 - d_1)) / np.max(np.abs(d_1 - d_05))
    assert 2.8 < ratio < 5.7

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    return (
        f"max relative error {worst:.1e} across {len(ALL_GRIDS)} grids, "
        f"FD halving ratio {ratio:.2f} ({elapsed:.1f}s)"
    )


@passfail("A3")
def test_a3_vertex_tracking_converges_and_is_safe(ring4_sweep):
    grid, smap, polygon, sweep_seconds = ring4_sweep
    start = time.perf_counter()

    # Calibrate the stability edge against the farthest vertex, then deploy
    # at a quarter of the edge so transients stay inside the region.
    far = polygon.vertices[
        np.argmax(np.hypot(polygon.vertices[:, 0], polygon.vertices[:, 1]))
    ]
    edge = calibrate_alpha(grid, smap, SetPoint(far[0], far[1]))
    config = ControllerConfig(
        alpha=edge / 4.0, max_iterations=500, convergence_tol=1e-3
    )

    trajectories = tuple(
        run_schedule(grid, smap, [SetPoint(p, q)], config)
        for p, q in polygon.vertices
    )
    n_converged = sum(t.converged for t in trajectories)
    rate = n_converged / len(trajectories)
    assert rate >= 0.90, f"only {n_converged}/{len(trajectories)} vertices reached"

    tset = TrajectorySet(trajectories=trajectories, failures=())
    verdict = classify(tset, polygon)
    assert verdict.safety_class is SafetyClass.SAFE, verdict.safety_class

    ladder = (0, 1, 2, 3, 5, 8, 12, 20, 35, 60, 100, 200, None)
    coverage = [coverage_metric(tset, polygon, k=k) for k in ladder]
    for earlier, later in zip(coverage, coverage[1:]):
        assert later >= earlier - 1e-9, f"coverage not monotone: {coverage}"

    elapsed = sweep_seconds + time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s budget"
    max_steps = max(len(t.steps) for t in trajectories if t.converged)
    return (
        f"{n_converged}/{len(trajectories)} vertices reached (alpha "
        f"{config.alpha:.3f}, <= {max_steps} iterations), set classified Safe, "
        f"coverage rises 0 -> {coverage[-1]:.3f} monotonically ({elapsed:.1f}s)"
    )


@passfail("A4")
def test_a4_sweep_agrees_with_sampling_oracle(ring4_sweep):
    grid, _, polygon, sweep_seconds = ring4_sweep
    start = time.perf_counter()

    sample = sample_oracle_for(grid, n_samples=20000, seed=20240817)
    assert sample.points.shape[0] == 20000
    inside = contains_many(polygon, sample.points, tol=1e-3)
    fraction = float(inside.mean())
    assert fraction >= 0.99, f"only {fraction:.4f} of oracle points inside"

    violations, drift = verify_vertices(grid, polygon)
    assert np.max(violations) <= 1e-4, f"vertex limit violation {np.max(violations):.2e}"
    assert np.max(drift) <= 1e-4, f"vertex re-simulation drift {np.max(drift):.2e}"

    elapsed = sweep_seconds + time.perf_counter() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 300s budget"
    return (
        f"{fraction:.2%} of {sample.points.shape[0]} oracle-feasible points "
        f"inside the dilated polygon; vertex violation {np.max(violations):.1e}, "
        f"drift {np.max(drift):.1e} ({elapsed:.1f}s)"
    )


@passfail("A5")
def test_a5_qp_matches_lattice_bruteforce(lattice_points):
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst_gap = 0.0
    worst_kkt = 0.0
    for i in range(25):
        problem, w_star = make_lattice_instance(rng, n_active=1 + i % 2)
        solution = solve_qp(problem)
        assert solution.status == "optimal", f"instance {i}: {solution.status}"
        brute = lattice_argmin(problem, lattice_points)
        assert np.array_equal(brute, w_star), f"instance {i}: oracle drifted"
        gap = float(np.max(np.abs(solution.w - brute)))
        assert gap <= LATTICE_SPACING, f"instance {i}: gap {gap:.2e}"
        kkt = check_kkt(problem, solution.w).residual
        assert kkt < 1e-8, f"instance {i}: KKT residual {kkt:.2e}"
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    return (
        f"25/25 instances within lattice spacing (worst gap {worst_gap:.1e}), "
        f"worst KKT residual {worst_kkt:.1e} ({elapsed:.1f}s)"
    )


@passfail("A6")
def test_a6_planted_labels_reproduced():
    diamond = FORPolygon(
        vertices=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        angles=np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
    )
    expected = {
        "safe": SafetyClass.SAFE,
        "transient": SafetyClass.CONDITIONALLY_SAFE,
        "final_exit": SafetyClass.UNSAFE,
        "aborted": SafetyClass.UNSAFE,
    }
    labels = tuple(expected)
    rng = np.random.default_rng(909090)

    for case in range(100):
        label = labels[case % len(labels)]
        trajectories = []
        for _ in range(int(rng.integers(3, 7))):
            points = rng.uniform(-0.35, 0.35, size=(int(rng.integers(2, 6)), 2))
            trajectories.append(make_trajectory(points))
        plant_at = int(rng.integers(0, len(trajectories)))
        if label == "transient":
            trajectories[plant_at] = make_trajectory(
                [(0.0, 0.0), (1.3, 1.1), (0.2, -0.1)]
            )
        elif label == "final_exit":
            trajectories[plant_at] = make_trajectory(
                [(0.0, 0.0), (0.3, 0.2), (1.4, 0.9)]
            )
        elif label == "aborted":
            trajectories[plant_at] = make_trajectory(
                [(0.0, 0.0), (0.1, 0.1)], aborted=True
            )

        verdict = classify(trajectories, diamond)
        assert verdict.safety_class is expected[label], (
            f"case {case}: planted {label}, got {verdict.safety_class}"
        )
        # Safe must imply conditionally safe: no final exit, no abort.
        if verdict.safety_class is SafetyClass.SAFE:
            assert verdict.n_final_exits == 0 and verdict.n_aborted == 0

    return "100/100 planted labels reproduced; Safe => ConditionallySafe throughout"


@passfail("A7")
def test_a7_measurement_noise_degrades_convergence():
    start = time.perf_counter()
    grid = load_grid(grid_path("ring4_tightv"))
    schedule = [SetPoint(-0.4, -0.8)]
    config = ControllerConfig(alpha=0.1, max_iterations=500, convergence_tol=1e-3)
    n = 200

    # Identical seed: both ensembles see the same sensitivity perturbations,
    # the second adds measurement noise on top.
    sens_only = NoiseConfig(seed=2024, sens_bounds=(-0.05, 0.05))
    with_meas = NoiseConfig(
        seed=2024, sens_bounds=(-0.05, 0.05), meas_bounds=(-0.02, 0.02)
    )
    baseline = run_monte_carlo(grid, schedule, config, sens_only, n_trials=n, jobs=4)
    degraded = run_monte_carlo(grid, schedule, config, with_meas, n_trials=n, jobs=4)

    x1 = sum(t.converged for t in baseline.trajectories)
    x2 = sum(t.converged for t in degraded.trajectories)
    rate1, rate2 = x1 / n, x2 / n
    assert rate1 >= 0.95, f"sensitivity-only rate {rate1:.3f}"

    pooled = (x1 + x2) / (2 * n)
    z = (rate1 - rate2) / math.sqrt(pooled * (1.0 - pooled) * (2.0 / n))
    assert z > 1.645, f"z = {z:.2f}: degradation not significant"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 600s budget"
    return (
        f"convergence {rate1:.3f} with sensitivity noise only vs {rate2:.3f} "
        f"with measurement noise added (n={n} each, z={z:.1f}) ({elapsed:.0f}s)"
    )


@passfail("A8")
def test_a8_histograms_normalized_and_parallel_mc_deterministic(tmp_path):
    # In-process: binned density integrates to one on full and sliced views.
    planted = [
        make_trajectory([(0.1 * i, 0.05 * j) for j in range(5)]) for i in range(4)
    ]
    for hist in (
        density_histogram(planted, bins=(8, 6)),
        density_histogram(planted, bins=5, iteration=3),
    ):
        assert abs(hist.normalization() - 1.0) <= 1e-12

    # CLI: one scenario, serial vs parallel, byte-identical artifacts.
    shutil.copy(grid_path("ring4"), tmp_path / "ring4.json")
    scenario = {
        "grid": "ring4.json",
        "controller": {"alpha": 0.1, "max_iterations": 60},
        "schedule": [[0.2, 0.1]],
        "noise": {
            "seed": 7,
            "load_sigma": {"household": 0.02, "industry": 0.02, "commercial": 0.02},
            "meas_bounds": [-0.01, 0.01],
            "sens_bounds": [-0.05, 0.05],
        },
        "for": {"n_angles": 8, "oracle_samples": 200},
        "mc": {"n_trials": 18, "histogram_bins": 16, "histogram_iterations": [3]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli_main(["mc", str(path), "--out", str(serial), "--jobs", "1"]) == 0
    assert cli_main(["mc", str(path), "--out", str(parallel), "--jobs", "3"]) == 0

    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    histogram_names = [n for n in names if "histogram" in n]
    assert histogram_names
    for name in histogram_names:
        with (serial / name).open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        mass = sum(float(r["rho"]) * float(r["area"]) for r in rows)
        assert abs(mass - 1.0) <= 1e-12, f"{name}: mass {mass!r}"

    return (
        f"{len(histogram_names)} emitted histograms carry unit mass; "
        f"{len(names)} artifacts byte-identical serial vs 3-way parallel"
    )
