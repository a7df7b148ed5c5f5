"""Feedback dispatch controller: per-step QP wiring, closed loop, CSV export."""

import csv

import numpy as np
import pytest

from flexsafe import ofo_controller
from flexsafe.for_region import sweep_for
from flexsafe.ofo_controller import (
    ControllerConfig,
    SetPoint,
    build_step_qp,
    calibrate_alpha,
    closed_loop_step,
    export_trajectory_csv,
    grad_cost,
    plant_failure,
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
    u, u_next = traj.steps.u, traj.steps.u_next
    for k in range(1, len(traj.steps)):
        if k == boundary:
            assert np.array_equal(u[k], u[k - 1])
        else:
            assert np.array_equal(u[k], u_next[k - 1])
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
    # The limits bind step after step; the record keeps equal active sets as one tuple.
    sets = traj.steps.active_set
    assert any(sets)
    assert len({id(a) for a in sets}) == len(set(sets)) < len(sets)


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


def _tracking_gradients(targets):
    """One stacked gradient for members tracking their own set points; row i is grad_cost's."""
    p_set = np.array([t.p_set for t in targets])
    q_set = np.array([t.q_set for t in targets])

    def gradient(y):
        grad = np.zeros(y.values.shape)
        grad[:, -2] = 2.0 * (y.p_pcc - p_set)
        grad[:, -1] = 2.0 * (y.q_pcc - q_set)
        return grad

    return gradient


def test_stacked_step_members_equal_their_own_steps(ring4, ring4_map, monkeypatch):
    """One kernel step over members with their own gains, templates, costs and guesses.

    The costs come as one stacked gradient.  Each row of the StepRecord
    and each plant state are bit for bit its member's one-member stack
    step with the same warm-start guess, and the guess-free member's are
    also those of its one-vector step; a member whose plant fails is
    marked failed, its StateStack row gives the error its own step raises,
    and the others go on.
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
    stack, states = closed_loop_step(
        ring4, u, ring4_map, alphas, _tracking_gradients(targets), templates,
        k=5, initial=initial, warm=warm,
    )
    assert [guess for _, guess, _ in solved] == [warm[i] for i in (0, 1, 2, 4)]
    assert solved[2][2].iterations == 1 < solved[3][2].iterations  # hit, then fallback
    assert len(stack) == len(states) == 5
    assert stack.y.values.shape == (5, len(own.y)) and np.isnan(stack.y.values[3]).all()
    for i in range(5):
        if i == 3:
            with pytest.raises(PowerFlowError) as exc:
                closed_loop_step(
                    ring4, u[i], ring4_map, alphas[i], gradients[i], templates[i],
                    k=5, initial=initial[i],
                )
            error = plant_failure(states.failures[i], states.mismatch[i], 5)
            assert type(error) is type(exc.value)
            assert str(error) == str(exc.value)
            assert stack.qp_status[i] == "plant_failed"
            assert np.array_equal(stack.u_next[i], u[i], equal_nan=True)
            continue
        alone, alone_states = closed_loop_step(
            ring4, u[i : i + 1], ring4_map, [alphas[i]], _tracking_gradients([targets[i]]),
            [templates[i]], k=5, initial=initial.take([i]), warm=[warm[i]],
        )
        for name in ("w", "u", "u_next"):
            assert np.array_equal(getattr(stack, name)[i], getattr(alone, name)[0]), name
        assert np.array_equal(stack.y.values[i], alone.y.values[0])
        assert (stack.qp_status[i], stack.active_set[i]) == (alone.qp_status[0], alone.active_set[0])
        assert_same_state(states[i], alone_states[0])
    # The guess-free member's step is its one-vector step.
    step, state = closed_loop_step(
        ring4, u[0], ring4_map, alphas[0], gradients[0], templates[0], k=5, initial=initial[0]
    )
    for name in ("w", "u", "u_next"):
        assert np.array_equal(getattr(stack, name)[0], getattr(step, name)), name
    assert np.array_equal(stack.y.values[0], step.y.values)
    assert (stack.qp_status[0], stack.active_set[0]) == (step.qp_status, step.active_set)
    assert_same_state(states[0], state)
    # Members 2 and 4 take the same step: a hit and a fallback agree on the optimum.
    assert stack.active_set[2] == stack.active_set[4] == own.active_set
    assert np.max(np.abs(stack.w[2] - stack.w[4])) <= 1e-12


def test_stack_whose_every_plant_fails(ring4, ring4_map, config):
    """Every member's plant fails: the step QPs are a stack of none, and each member is marked failed."""
    u = np.full((3, ring4.control_vector().size), np.nan)
    target = SetPoint(0.2, 0.1)
    template = step_qp_template(ring4, ring4_map, config.alpha)
    stack, states = closed_loop_step(
        ring4, u, ring4_map, [config.alpha] * 3, _tracking_gradients([target] * 3),
        [template] * 3, k=2,
    )
    assert stack.qp_status == ("plant_failed",) * 3
    assert np.all(stack.w == 0.0)
    assert np.array_equal(stack.u_next, u, equal_nan=True)
    assert np.isnan(stack.y.values).all()
    for i in range(3):
        with pytest.raises(PowerFlowError) as exc:
            closed_loop_step(
                ring4, u[i], ring4_map, config.alpha, lambda y: grad_cost(y, target), template, k=2
            )
        error = plant_failure(states.failures[i], states.mismatch[i], 2)
        assert type(error) is type(exc.value)
        assert str(error) == str(exc.value)


def _record_step_qps(monkeypatch) -> list:
    """(problem, guess, solution) of every step QP the kernel solves, alone or in a stack."""
    solved = []

    def recording(problem, max_iter=None):
        solution = solve_qp(problem, max_iter)
        solved.append((problem, None, solution))
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
    """The independent KKT check accepts each optimal step QP, solved warm or cold.

    Only the sweep's stacked step QPs are warm-started; a run's lone steps
    are all solved cold.
    """
    solved = _record_step_qps(monkeypatch)
    if loop == "ring4 sweep":
        assert sweep_for(ring4, n_angles=6).n_vertices == 6
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
    if loop == "ring4 sweep":
        assert 0 < hits < len(optimal)
    else:
        assert hits == 0
    for problem, _, solution in optimal:
        assert check_kkt(problem, solution.w).residual < 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_noise_drives_one_member_only(ring4, ring4_map, config, k):
    """A noise model drives one control vector; a stack of any size is refused."""
    from flexsafe.uncertainty_mc import NoiseConfig, TrialNoise

    noise = TrialNoise(NoiseConfig(seed=1, meas_bounds=(-0.01, 0.01)), trial=0)
    template = step_qp_template(ring4, ring4_map, config.alpha)
    u = np.zeros((k, 2 * ring4.n_ctrl))
    with pytest.raises(ValueError, match="one member"):
        closed_loop_step(
            ring4, u, ring4_map, [0.1] * k, np.zeros_like, [template] * k, noise=noise
        )


def test_warm_guess_is_refused_for_one_control_vector(ring4, ring4_map, config):
    """A warm-start guess is per member of a stack; one control vector's step QP is solved cold."""
    template = step_qp_template(ring4, ring4_map, config.alpha)
    with pytest.raises(ValueError, match="per member of a stack"):
        closed_loop_step(
            ring4, ring4.control_vector(), ring4_map, config.alpha, np.zeros_like, template,
            warm=((0, "lower"),),
        )
