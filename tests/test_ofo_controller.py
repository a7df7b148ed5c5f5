"""Feedback dispatch controller: per-step QP wiring, closed loop, CSV export."""

import csv

import numpy as np
import pytest

from flexsafe import ofo_controller
from flexsafe.for_region import SweepConfig, sweep_for
from flexsafe.ofo_controller import (
    ControllerConfig,
    SetPoint,
    build_step_qp,
    calibrate_alpha,
    closed_loop_step,
    export_trajectory_csv,
    grad_cost,
    run_schedule,
    step_qp_template,
)
from flexsafe.grid_model import apply_control
from flexsafe.power_flow import PowerFlowError, measure, solve_power_flow
from flexsafe.qp_solver import QuadraticProgram, check_kkt, solve_qp, solve_qp_stack
from flexsafe.sensitivity import compute_sensitivity

from conftest import assert_same_state


@pytest.fixture(scope="module")
def ring4_map(ring4):
    return compute_sensitivity(ring4)


@pytest.fixture(scope="module")
def config():
    return ControllerConfig(alpha=0.1, max_iterations=500, convergence_tol=1e-3)


def test_grad_cost_targets_pcc_rows(ring4):
    y = measure(solve_power_flow(ring4))
    grad = grad_cost(y, SetPoint(p_set=0.1, q_set=-0.2))
    assert grad.shape == y.values.shape
    assert np.all(grad[:-2] == 0.0)
    assert grad[-2] == pytest.approx(2 * (y.p_pcc - 0.1))
    assert grad[-1] == pytest.approx(2 * (y.q_pcc + 0.2))


def test_step_qp_encodes_scaled_limits(ring4, ring4_map, config):
    u = ring4.control_vector()
    y = measure(solve_power_flow(ring4))
    grad = grad_cost(y, SetPoint(0.0, 0.0))
    template = step_qp_template(ring4, ring4_map, config.alpha)
    problem = build_step_qp(u, y, ring4_map, ring4, grad, template)
    n_ctrl2 = 2 * ring4.n_ctrl
    n, m = ring4.n_bus, len(ring4.branches)
    assert problem.a.shape == (n_ctrl2 + n + m, n_ctrl2)
    # Control box rows are alpha * I with distance-to-bound limits.
    lower_u, upper_u = ring4.control_bounds()
    assert np.allclose(problem.a[:n_ctrl2], config.alpha * np.eye(n_ctrl2))
    assert np.allclose(problem.lower[:n_ctrl2], lower_u - u)
    assert np.allclose(problem.upper[:n_ctrl2], upper_u - u)
    # Voltage rows project through the sensitivity map.
    assert np.allclose(problem.a[n_ctrl2 : n_ctrl2 + n], config.alpha * ring4_map.matrix[:n])
    v_min = np.array([bus.v_min for bus in ring4.buses])
    v_max = np.array([bus.v_max for bus in ring4.buses])
    assert np.allclose(problem.lower[n_ctrl2 : n_ctrl2 + n], v_min - y.v)
    assert np.allclose(problem.upper[n_ctrl2 : n_ctrl2 + n], v_max - y.v)
    # The gradient is pushed through the map: g = 2 M^T grad_phi... times 1/2
    # in the ||w+g||^2 parameterization, i.e. g = M^T grad_phi.
    assert problem.g.shape == (n_ctrl2,)
    assert np.all(np.isfinite(problem.g))


def test_step_qp_from_template_matches_fresh_build(ring4, ring4_map, config):
    """A step QP derived from the run's template equals one built on its own."""
    template = step_qp_template(ring4, ring4_map, config.alpha)
    rng = np.random.default_rng(4)
    lower_u, upper_u = ring4.control_bounds()
    n_rows = ring4.n_bus + ring4.n_branch
    for _ in range(5):
        u = rng.uniform(lower_u, upper_u)
        y = measure(solve_power_flow(ring4, control=u))
        grad = grad_cost(y, SetPoint(rng.normal(), rng.normal()))
        fresh = QuadraticProgram(
            g=2.0 * (ring4_map.matrix.T @ grad),
            a=np.vstack([config.alpha * np.eye(u.size), config.alpha * ring4_map.matrix[:n_rows]]),
            lower=np.concatenate([lower_u - u, ring4.v_min - y.v, -y.s]),
            upper=np.concatenate([upper_u - u, ring4.v_max - y.v, ring4.s_max - y.s]),
        )
        derived = build_step_qp(u, y, ring4_map, ring4, grad, template)
        assert derived.a is template.a
        for name in ("g", "a", "lower", "upper"):
            assert np.array_equal(getattr(derived, name), getattr(fresh, name)), name
        assert derived._normals is template._normals  # rows expanded once per run
        one, other = solve_qp(fresh), solve_qp(derived)
        assert np.array_equal(one.w, other.w)
        assert one.active_set == other.active_set


def test_single_step_descends_cost(ring4, ring4_map, config):
    target = SetPoint(p_set=0.2, q_set=0.0)
    u = ring4.control_vector()
    template = step_qp_template(ring4, ring4_map, config.alpha)
    step, state = closed_loop_step(
        ring4, u, ring4_map, config.alpha, lambda y: grad_cost(y, target), template
    )
    assert step.qp_status == "optimal"
    before = target.distance(step.y.p_pcc, step.y.q_pcc)
    after_state = solve_power_flow(apply_control(ring4, step.u_next))
    after = target.distance(after_state.p_pcc, after_state.q_pcc)
    assert after < before
    assert np.max(np.abs(step.u_next - step.u)) <= config.alpha * np.max(np.abs(step.w)) + 1e-12


def test_run_schedule_reaches_reachable_target(ring4, ring4_map, config):
    target = SetPoint(p_set=0.2, q_set=0.1)
    traj = run_schedule(ring4, ring4_map, [target], config)
    assert traj.converged and not traj.aborted
    final = traj.states[-1]
    assert target.distance(final.p_pcc, final.q_pcc) <= config.convergence_tol
    assert traj.k_f == len(traj.steps) - 1
    assert len(traj.states) == len(traj.steps)


def test_run_schedule_chains_controls_and_segments(ring4, ring4_map, config):
    schedule = [SetPoint(0.2, 0.1), SetPoint(-0.1, 0.0)]
    traj = run_schedule(ring4, ring4_map, schedule, config)
    assert len(traj.segments) == 2
    # Within a segment, u chains through u_next; the update computed at a
    # converged step is held, so the next segment starts from that step's u.
    boundary = traj.segments[0].stop
    for prev, nxt in zip(traj.steps, traj.steps[1:]):
        if nxt.k == boundary:
            assert np.array_equal(nxt.u, prev.u)
        else:
            assert np.array_equal(nxt.u, prev.u_next)
        assert nxt.k == prev.k + 1
    # Segment windows tile the step sequence.
    assert traj.segments[0].start == 0
    assert traj.segments[0].stop == traj.segments[1].start
    assert traj.segments[1].stop == len(traj.steps)
    assert all(seg.converged for seg in traj.segments)
    # Each segment ends within tolerance of its own target.
    for seg in traj.segments:
        state = traj.states[seg.stop - 1]
        assert seg.setpoint.distance(state.p_pcc, state.q_pcc) <= config.convergence_tol


def test_unreachable_target_exhausts_iterations(ring4, ring4_map):
    config = ControllerConfig(alpha=0.1, max_iterations=40, convergence_tol=1e-3)
    # Far beyond the unit capability.
    traj = run_schedule(ring4, ring4_map, [SetPoint(5.0, 5.0)], config)
    assert not traj.converged
    assert not traj.aborted
    assert len(traj.steps) == 40
    assert traj.segments[0].converged is False


def test_infeasible_qp_holds_control(ring4, ring4_map, config):
    class BrokenMeter:
        """Reports absurd voltages so every QP voltage row is unsatisfiable."""

        def perturb_grid(self, grid, k):
            return None

        def measurement_noise(self, k):
            from flexsafe.power_flow import MeasurementNoise

            return MeasurementNoise(24.0, 25.0, np.random.default_rng(k))

    u = ring4.control_vector()
    template = step_qp_template(ring4, ring4_map, config.alpha)
    step, _ = closed_loop_step(
        ring4, u, ring4_map, config.alpha, lambda y: grad_cost(y, SetPoint(0.0, 0.0)),
        template, noise=BrokenMeter(),
    )
    assert step.qp_status == "infeasible"
    assert np.array_equal(step.u_next, u)
    assert np.all(step.w == 0.0)


def test_plant_collapse_aborts_trajectory(ring4, ring4_map, config):
    class Saboteur:
        """Make the plant unsolvable from step 3 onward."""

        def perturb_grid(self, grid, k):
            if k < 3:
                return None
            return np.tile([0.0, 40.0], (len(grid.fixed_loads), 1))

        def measurement_noise(self, k):
            return None

    traj = run_schedule(ring4, ring4_map, [SetPoint(0.2, 0.1)], config, noise=Saboteur())
    assert traj.aborted and not traj.converged
    assert traj.abort_reason is not None
    assert len(traj.steps) == 3  # steps 0..2 happened, step 3 blew up
    assert len(traj.states) == len(traj.steps)


def test_convergence_judged_on_true_state(ring4, ring4_map):
    """Measurement noise must not fake convergence: the plant has to arrive."""

    class NoisyMeter:
        def perturb_grid(self, grid, k):
            return None

        def measurement_noise(self, k):
            from flexsafe.power_flow import MeasurementNoise

            return MeasurementNoise(-0.02, 0.02, np.random.default_rng(1000 + k))

    config = ControllerConfig(alpha=0.1, max_iterations=500, convergence_tol=1e-3)
    target = SetPoint(0.2, 0.1)
    traj = run_schedule(ring4, ring4_map, [target], config, noise=NoisyMeter())
    if traj.converged:
        final = traj.states[-1]
        assert target.distance(final.p_pcc, final.q_pcc) <= config.convergence_tol


def test_trajectory_csv_round_trip(ring4, ring4_map, config, tmp_path):
    schedule = [SetPoint(0.2, 0.1), SetPoint(-0.1, 0.0)]
    traj = run_schedule(ring4, ring4_map, schedule, config)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, ring4, path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj.steps)
    ks = [int(r["k"]) for r in rows]
    assert ks == list(range(len(traj.steps)))
    # True plant PCC values are recorded exactly (repr round-trip).
    assert [float(r["p_pcc"]) for r in rows] == [s.p_pcc for s in traj.states]
    assert [float(r["q_pcc"]) for r in rows] == [s.q_pcc for s in traj.states]
    # Objective column tracks the owning segment's target.
    k_mid = traj.segments[1].start
    state = traj.states[k_mid]
    expected_phi = traj.segments[1].setpoint.distance(state.p_pcc, state.q_pcc) ** 2
    assert float(rows[k_mid]["phi"]) == pytest.approx(expected_phi, rel=1e-12)
    assert rows[0]["qp_status"] == "optimal"
    # One column per control channel.
    for label in ("p:g3", "p:g4", "q:g3", "q:g4"):
        assert label in rows[0]


def test_calibrate_alpha_returns_working_gain(ring4, ring4_map):
    alpha = calibrate_alpha(
        ring4, ring4_map, SetPoint(0.2, 0.1), lo=0.02, hi=2.0, max_iterations=300, rounds=6
    )
    assert 0.02 <= alpha <= 2.0
    config = ControllerConfig(alpha=alpha, max_iterations=300, convergence_tol=1e-3)
    traj = run_schedule(ring4, ring4_map, [SetPoint(0.2, 0.1)], config)
    assert traj.converged


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(alpha=0.1, max_iterations=0)
    with pytest.raises(ValueError):
        ControllerConfig(alpha=0.1, convergence_tol=-1.0)


def test_stacked_step_members_equal_their_own_steps(ring4, ring4_map, monkeypatch):
    """One kernel step over members with their own gains, templates, costs and guesses.

    Each member's record and plant state are bit for bit its one-member
    step with the same warm-start guess; a member whose plant fails gets
    the error its own step raises, and the others go on.
    """
    lower, upper = ring4.control_bounds()
    u = np.random.default_rng(8).uniform(lower, upper, size=(5, lower.size))
    u[3, 0] = np.nan
    u[4] = u[2]
    alphas = [0.05, 0.1, 0.2, 0.1, 0.2]
    targets = [SetPoint(0.2, 0.1), SetPoint(-0.1, 0.0), SetPoint(0.3, -0.2), SetPoint(0.0, 0.0),
               SetPoint(0.3, -0.2)]
    gradients = [lambda y, target=target: grad_cost(y, target) for target in targets]
    templates = [step_qp_template(ring4, ring4_map, alpha) for alpha in alphas]
    initial = solve_power_flow(ring4, control=0.9 * np.nan_to_num(u))
    # No guess, the member's own cold active set, a wrong one and a repeated one.
    own, _ = closed_loop_step(ring4, u[2], ring4_map, alphas[2], gradients[2], templates[2])
    assert own.active_set
    warm = [None, ((0, "lower"), (9, "upper")), own.active_set, ((1, "upper"),), 2 * own.active_set]
    solved = _record_step_qps(monkeypatch)
    steps, states = closed_loop_step(
        ring4, u, ring4_map, alphas, gradients, templates, k=5, initial=initial, warm=warm
    )
    assert [guess for _, guess, _ in solved] == [warm[i] for i in (0, 1, 2, 4)]
    assert solved[2][2].iterations == 1 < solved[3][2].iterations  # hit, then fallback
    assert len(steps) == len(states) == 5
    for i in range(5):
        args = (ring4, u[i], ring4_map, alphas[i], gradients[i], templates[i])
        if i == 3:
            with pytest.raises(PowerFlowError) as exc:
                closed_loop_step(*args, k=5, initial=initial[i], warm=warm[i])
            assert isinstance(steps[i], PowerFlowError) and str(steps[i]) == str(exc.value)
            continue
        step, state = closed_loop_step(*args, k=5, initial=initial[i], warm=warm[i])
        got = steps[i]
        for name in ("w", "u", "u_next"):
            assert np.array_equal(getattr(got, name), getattr(step, name)), name
        assert np.array_equal(got.y.values, step.y.values)
        assert (got.k, got.qp_status, got.active_set) == (step.k, step.qp_status, step.active_set)
        assert_same_state(states[i], state)
    # Members 2 and 4 take the same step: a hit and a fallback agree on the optimum.
    assert steps[2].active_set == steps[4].active_set == own.active_set
    assert np.max(np.abs(steps[2].w - steps[4].w)) <= 1e-12


def _record_step_qps(monkeypatch) -> list:
    """(problem, guess, solution) of every step QP the kernel solves, alone or in a stack."""
    solved = []

    def recording(problem, max_iter=None, warm=None):
        solution = solve_qp(problem, max_iter, warm)
        solved.append((problem, warm, solution))
        return solution

    def recording_stack(problems, warm):
        solutions = solve_qp_stack(problems, warm)
        solved.extend(zip(problems, warm, solutions))
        return solutions

    monkeypatch.setattr(ofo_controller, "solve_qp", recording)
    monkeypatch.setattr(ofo_controller, "solve_qp_stack", recording_stack)
    return solved


@pytest.mark.parametrize("loop", ["ring4 sweep", "synth30 run"])
def test_every_solved_step_qp_passes_the_kkt_check(loop, ring4, synth30, monkeypatch):
    """The independent KKT check accepts each optimal step QP, solved warm or cold."""
    solved = _record_step_qps(monkeypatch)
    if loop == "ring4 sweep":
        assert sweep_for(ring4, config=SweepConfig(n_angles=6)).n_vertices == 6
    else:
        # The flows at two box corners: reaching them binds the control box.
        schedule = []
        for corner in synth30.control_bounds():
            state = solve_power_flow(synth30, control=corner)
            schedule.append(SetPoint(state.p_pcc, state.q_pcc))
        smap = compute_sensitivity(synth30)
        run_schedule(synth30, smap, schedule, ControllerConfig(alpha=0.05, max_iterations=200))
    optimal = [(p, warm, sol) for p, warm, sol in solved if sol.status == "optimal"]
    hits = sum(
        bool(warm) and sol.iterations == 1 and sol.active_set == warm for _, warm, sol in optimal
    )
    assert 0 < hits < len(optimal)
    for problem, _, solution in optimal:
        assert check_kkt(problem, solution.w).residual < 1e-8


def test_noise_drives_one_member_only(ring4, ring4_map, config):
    from flexsafe.uncertainty_mc import NoiseConfig, TrialNoise

    noise = TrialNoise(NoiseConfig(seed=1, meas_bounds=(-0.01, 0.01)), trial=0)
    template = step_qp_template(ring4, ring4_map, config.alpha)
    u = np.zeros((2, 2 * ring4.n_ctrl))
    with pytest.raises(ValueError, match="one member"):
        closed_loop_step(
            ring4, u, ring4_map, [0.1, 0.1], [np.zeros_like] * 2, [template] * 2, noise=noise
        )
