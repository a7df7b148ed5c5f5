"""AC power-flow solver against a hand-derived two-bus solution and physics checks."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexsafe import power_flow
from flexsafe.grid_model import apply_control, load_grid
from flexsafe.power_flow import (
    MeasurementNoise,
    PowerFlowError,
    SingularJacobianError,
    branch_flows,
    limit_violation,
    measure,
    measurement_labels,
    nodal_residuals,
    solve_power_flow,
    steady_state_map,
)
from flexsafe.uncertainty_mc import NoiseConfig, TrialNoise

from conftest import ALL_GRIDS, assert_same_state, grid_path, twobus_closed_form


def test_two_bus_matches_closed_form(twobus):
    state = solve_power_flow(twobus)
    # Net injection at bus 2: the 3 MW / 1 Mvar load on a 10 MVA base.
    v2, theta2, p_pcc, q_pcc = twobus_closed_form(-0.3, -0.1, 0.1)
    assert state.converged
    assert abs(state.v[1] - v2) < 1e-8
    assert abs(state.theta[1] - theta2) < 1e-8
    assert abs(state.p_pcc - p_pcc) < 1e-8
    assert abs(state.q_pcc - q_pcc) < 1e-8


def test_two_bus_closed_form_tracks_control(twobus):
    u = np.array([0.2, -0.1])
    state = solve_power_flow(apply_control(twobus, u))
    v2, _, p_pcc, q_pcc = twobus_closed_form(0.2 - 0.3, -0.1 - 0.1, 0.1)
    assert abs(state.v[1] - v2) < 1e-8
    assert abs(state.p_pcc - p_pcc) < 1e-8
    assert abs(state.q_pcc - q_pcc) < 1e-8


@pytest.mark.parametrize("name", ALL_GRIDS)
def test_nodal_residuals_below_tolerance(name):
    grid = load_grid(grid_path(name))
    state = solve_power_flow(grid)
    assert state.converged
    assert state.mismatch < 1e-8
    assert np.max(np.abs(nodal_residuals(grid, state))) < 1e-8


def test_flat_unloaded_case_converges_immediately(boxcase):
    state = solve_power_flow(boxcase)
    assert state.iterations == 0
    assert np.allclose(state.v, 1.0)
    assert abs(state.p_pcc) < 1e-12 and abs(state.q_pcc) < 1e-12


def test_lossless_branch_power_balance(twobus):
    state = solve_power_flow(twobus)
    voltage = state.v * np.exp(1j * state.theta)
    s_from, s_to = branch_flows(twobus, voltage)
    # r = 0: active power in equals active power out.
    assert abs(s_from[0].real + s_to[0].real) < 1e-10
    assert state.p_pcc == pytest.approx(s_from[0].real, abs=1e-12)


def test_flow_magnitude_uses_more_loaded_end(ring4):
    state = solve_power_flow(ring4)
    voltage = state.v * np.exp(1j * state.theta)
    s_from, s_to = branch_flows(ring4, voltage)
    expected = np.maximum(np.abs(s_from), np.abs(s_to))
    assert np.allclose(state.s_flows, expected, atol=1e-12)


def test_measurement_vector_layout(ring4):
    state = solve_power_flow(ring4)
    m = measure(state)
    n, b = ring4.n_bus, len(ring4.branches)
    assert m.values.shape == (n + b + 2,)
    assert np.array_equal(m.v, state.v)
    assert np.array_equal(m.s, state.s_flows)
    assert m.p_pcc == state.p_pcc and m.q_pcc == state.q_pcc
    labels = measurement_labels(ring4)
    assert len(labels) == len(m.values)
    assert labels[0].startswith("v:") and labels[-2:] == ("p_pcc", "q_pcc")


def test_measurement_noise_envelope_and_determinism(ring4):
    state = solve_power_flow(ring4)
    clean = measure(state).values
    noise = MeasurementNoise(-0.02, 0.02, np.random.default_rng(7))
    noisy = measure(state, noise).values
    ratio = noisy / clean
    assert np.all(ratio >= 0.98 - 1e-12) and np.all(ratio <= 1.02 + 1e-12)
    assert not np.allclose(noisy, clean)
    # Same seed reproduces the same draw.
    again = measure(state, MeasurementNoise(-0.02, 0.02, np.random.default_rng(7))).values
    assert np.array_equal(noisy, again)


def test_steady_state_map_matches_solve(ring4):
    u = np.array([0.3, -0.2, 0.1, 0.05])
    m = steady_state_map(ring4, u)
    state = solve_power_flow(apply_control(ring4, u))
    assert np.allclose(m.values, measure(state).values, atol=1e-12)


def test_unsolvable_injection_flags_non_convergence(twobus):
    # Drawing 3.1 pu of reactive power across a 0.1 pu reactance has no
    # real solution (the closed-form discriminant goes negative).
    with pytest.raises(ValueError):
        twobus_closed_form(-0.3, -3.1, 0.1)
    overload = replace(twobus.fixed_loads[0], q=3.1)
    grid = replace(twobus, fixed_loads=(overload,))
    state = solve_power_flow(grid, max_iter=25)
    assert not state.converged
    assert state.iterations == 25
    # The convenience map turns the flag into an exception.
    with pytest.raises(PowerFlowError):
        steady_state_map(grid, np.zeros(2), max_iter=25)


def test_max_iter_enforced(ring4):
    state = solve_power_flow(ring4, max_iter=1)
    assert not state.converged and state.iterations == 1
    with pytest.raises(PowerFlowError):
        steady_state_map(ring4, np.zeros(4), max_iter=1)


def test_warm_start_accepts_previous_state(ring4):
    cold = solve_power_flow(ring4)
    warm = solve_power_flow(ring4, initial=cold)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert np.allclose(warm.v, cold.v, atol=1e-10)


@pytest.mark.parametrize("name", ALL_GRIDS)
def test_warm_start_matches_flat_start(name):
    """Started from a neighbouring state, Newton lands on the flat-start solution."""
    grid = load_grid(grid_path(name))
    lower, upper = grid.control_bounds()
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.uniform(lower, upper)
        near = np.clip(u + rng.normal(scale=0.05, size=u.size), lower, upper)
        flat = solve_power_flow(apply_control(grid, u))
        neighbour = solve_power_flow(apply_control(grid, near))
        assert flat.converged and neighbour.converged
        warm = solve_power_flow(apply_control(grid, u), initial=neighbour)
        assert warm.converged
        assert np.max(np.abs(warm.v - flat.v)) <= 1e-8
        assert abs(warm.p_pcc - flat.p_pcc) <= 1e-8
        assert abs(warm.q_pcc - flat.q_pcc) <= 1e-8


@pytest.mark.parametrize("name", ALL_GRIDS)
def test_control_vector_solve_matches_applied_grid(name):
    """Solving from the control vector is solving the grid apply_control derives."""
    grid = load_grid(grid_path(name))
    lower, upper = grid.control_bounds()
    rng = np.random.default_rng(17)
    # Controls inside the box and past it: both routes clip to the box.
    for scale in (1.0, 1.5):
        for _ in range(5):
            u = rng.uniform(lower, upper) * scale
            applied = solve_power_flow(apply_control(grid, u))
            direct = solve_power_flow(grid, control=u)
            assert direct.converged == applied.converged
            assert direct.iterations == applied.iterations
            for field in ("v", "theta", "s_flows"):
                assert np.max(np.abs(getattr(direct, field) - getattr(applied, field))) <= 1e-12
            assert abs(direct.p_pcc - applied.p_pcc) <= 1e-12
            assert abs(direct.q_pcc - applied.q_pcc) <= 1e-12


@pytest.mark.parametrize("name", ("ring4", "synth30"))
def test_load_delta_solve_matches_grid_with_moved_loads(name):
    """Solving with a load delta is solving a grid built with the moved loads, bit for bit."""
    grid = load_grid(grid_path(name))
    sigma = {"household": 0.02, "industry": 0.02, "commercial": 0.02}
    noise = TrialNoise(NoiseConfig(seed=5, load_sigma=sigma), trial=3)
    lower, upper = grid.control_bounds()
    rng = np.random.default_rng(23)
    for _ in range(4):
        delta = noise.perturb_grid(grid)
        loads = tuple(
            replace(ld, p=ld.p + float(dp), q=ld.q + float(dq))
            for ld, (dp, dq) in zip(grid.fixed_loads, delta)
        )
        u = rng.uniform(lower, upper)
        built = solve_power_flow(apply_control(replace(grid, fixed_loads=loads), u))
        direct = solve_power_flow(grid, control=u, load_delta=delta)
        assert built.converged and direct.iterations == built.iterations
        for field in ("v", "theta"):
            assert np.array_equal(getattr(direct, field), getattr(built, field))
        assert (direct.p_pcc, direct.q_pcc) == (built.p_pcc, built.q_pcc)


def test_load_delta_shape_checked(ring4):
    with pytest.raises(ValueError, match="load delta has shape"):
        solve_power_flow(ring4, load_delta=np.zeros((len(ring4.fixed_loads) + 1, 2)))


def test_control_vector_length_checked(ring4):
    with pytest.raises(ValueError, match="control vector has length 3"):
        solve_power_flow(ring4, control=np.zeros(3))


def test_limit_violation_sign(ring4, ring4_tightv):
    state = solve_power_flow(ring4)
    assert limit_violation(ring4, state) <= 0.0
    # Push the tight-voltage variant past its ceiling.
    grid = apply_control(ring4_tightv, np.array([0.0, 0.0, 0.6, 0.6]))
    pushed = solve_power_flow(grid)
    assert limit_violation(ring4_tightv, pushed) > 0.0


#: Grids for the stacked-solve property test, loaded once for all examples.
STACK_GRIDS = {name: load_grid(grid_path(name)) for name in ("twobus", "ring4", "synth30")}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(STACK_GRIDS)),
    k=st.integers(1, 6),
    where=st.integers(0, 5),
    odd=st.sampled_from([None, "diverging", "non-finite"]),
    warm=st.booleans(),
    loads=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_member_equals_its_solo_solve(name, k, where, odd, warm, loads, seed):
    """A member of any stack, at any position, is bit for bit its own solve.

    Flat or warm start, with or without load deltas; one member may diverge
    (a load far past what the grid can deliver) or take a non-finite step
    (a NaN control), and its companions are untouched.
    """
    grid = STACK_GRIDS[name]
    rng = np.random.default_rng(seed)
    lower, upper = grid.control_bounds()
    u = rng.uniform(lower, upper, size=(k, lower.size))
    delta = None
    if loads or odd == "diverging":
        delta = rng.normal(scale=0.02, size=(k, len(grid.fixed_loads), 2))
    where %= k
    if odd == "diverging":
        delta[where] += 50.0
    elif odd == "non-finite":
        u[where, 0] = np.nan
    initial = None
    if warm:
        near = np.clip(np.nan_to_num(u) + rng.normal(scale=0.05, size=u.shape), lower, upper)
        initial = solve_power_flow(grid, control=near)
    with np.errstate(all="ignore"):
        stack = solve_power_flow(grid, initial=initial, control=u, load_delta=delta)
        assert len(stack) == k
        assert type(stack.iterations) is int and stack.iterations == stack.steps.max()
        for i in range(k):
            try:
                solo = solve_power_flow(
                    grid,
                    initial=None if initial is None else initial[i],
                    control=u[i],
                    load_delta=None if delta is None else delta[i],
                )
            except SingularJacobianError as exc:
                assert stack.failures[i] == str(exc) and not stack.converged[i]
                continue
            assert stack.failures[i] is None
            assert_same_state(stack[i], solo)
    if odd is not None:
        assert not stack.converged[where]
    if odd == "non-finite":
        assert stack.failures[where].startswith("non-finite Newton step")


def test_singular_member_fails_alone(ring4, monkeypatch):
    """A singular Jacobian fails its member only, though np.linalg.solve fails the stack."""
    mark = 0.777  # a voltage magnitude that marks the member to break
    original = power_flow.mismatch_jacobian

    def jacobian(ybus_pq, v_pq, i_pq):
        jac = original(ybus_pq, v_pq, i_pq)
        jac[np.abs(v_pq[:, 0]) == mark] = 0.0
        return jac

    monkeypatch.setattr(power_flow, "mismatch_jacobian", jacobian)
    lower, upper = ring4.control_bounds()
    u = np.random.default_rng(3).uniform(lower, upper, size=(4, lower.size))
    start = solve_power_flow(ring4, control=u)
    v, theta = start.v.copy(), start.theta.copy()
    first_pq = ring4.pq_indices[0]
    v[2, first_pq], theta[2, first_pq] = mark, 0.0
    stack = solve_power_flow(ring4, initial=SimpleNamespace(v=v, theta=theta), control=u)
    assert stack.failures[2].startswith("singular power-flow Jacobian at iteration 0")
    assert not stack.converged[2]
    for i in range(4):
        alone = SimpleNamespace(v=v[i], theta=theta[i])
        if i == 2:
            with pytest.raises(SingularJacobianError) as exc:
                solve_power_flow(ring4, initial=alone, control=u[i])
            assert str(exc.value) == stack.failures[2]
        else:
            assert stack.failures[i] is None
            assert_same_state(stack[i], solve_power_flow(ring4, initial=alone, control=u[i]))


def test_stack_measure_and_limits_match_members(ring4_tightv):
    lower, upper = ring4_tightv.control_bounds()
    u = np.random.default_rng(5).uniform(lower, upper, size=(5, lower.size))
    stack = solve_power_flow(ring4_tightv, control=u)
    y = measure(stack)
    violation = limit_violation(ring4_tightv, stack)
    assert y.values.shape == (5, len(measurement_labels(ring4_tightv)))
    assert violation.shape == (5,) and (violation > 0).any()
    for i in range(5):
        member = stack[i]
        assert np.array_equal(y.values[i], measure(member).values)
        assert (y.p_pcc[i], y.q_pcc[i]) == (member.p_pcc, member.q_pcc)
        assert violation[i] == limit_violation(ring4_tightv, member)
