"""AC power flow and the controller's measurement stack.

Newton-Raphson in polar form on a slack + PQ model.  The slack bus is held
at 1.0 p.u. and zero angle; every other bus carries a (possibly zero)
complex injection.  Measurements stack bus voltage magnitudes, branch
apparent-flow magnitudes, and the coupling-branch (PCC) flow:

    y = [v_1 .. v_n, s_1 .. s_m, p_pcc, q_pcc]

Sign conventions
----------------
* Injections are generator-oriented: flexible units inject positive power,
  fixed loads consume.
* The PCC flow is the complex flow entering the coupling branch at its
  ``from`` end; fixtures orient that branch so positive p_pcc means import
  from the superimposed grid.
* Branch loading s_i is the apparent-power magnitude at the more-loaded
  end, so s_i >= 0 always and the s_max limit applies to the worst end.

Stacks
------
solve_power_flow also solves a stack of K members at once (a (K, n_u)
array of controls or a (K, n_loads, 2) array of load deltas) and returns a
StateStack.  Each Newton pass takes one step for every member still
iterating.  Every operation, the Ybus product and the linear solves
included, acts on each member's row alone, so a member's result is bit for
bit its solve alone, whatever K and its companions.  measure and
limit_violation take a stack as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexsafe.grid_model import GridModel

TOL_PF = 1e-8
MAX_ITER_PF = 30


class PowerFlowError(Exception):
    """Power-flow evaluation failed (divergence where convergence is required)."""


class SingularJacobianError(PowerFlowError):
    """The Newton iteration hit a singular (or non-finite) Jacobian."""


@dataclass(frozen=True, eq=False)
class SystemState:
    """Converged (or capped) power-flow solution.

    Parameters
    ----------
    v, theta : per-bus voltage magnitude (p.u.) and angle (rad).
    s_flows : per-branch apparent-flow magnitude at the more-loaded end (p.u.).
    p_pcc, q_pcc : signed PCC flow (p.u., import from the superimposed grid positive).
    converged : True iff the final mismatch is below the solve tolerance.
    iterations : Newton steps taken.
    mismatch : max abs P/Q mismatch over non-slack buses at exit (p.u.).
    """

    v: np.ndarray
    theta: np.ndarray
    s_flows: np.ndarray
    p_pcc: float
    q_pcc: float
    converged: bool
    iterations: int
    mismatch: float


@dataclass(frozen=True, eq=False)
class StateStack:
    """K power-flow solutions solved as one stack; row i belongs to member i.

    The fields are SystemState's with a leading member axis, and
    ``steps[i]`` is member i's Newton steps (its SystemState.iterations).
    ``failures[i]`` says why member i's Newton iteration broke down (a
    singular Jacobian or a non-finite step), or is None; such a member is
    not converged and holds its state before the failed step.
    ``iterations`` counts the Newton passes over the stack: the most steps
    any member took.
    """

    v: np.ndarray
    theta: np.ndarray
    s_flows: np.ndarray
    p_pcc: np.ndarray
    q_pcc: np.ndarray
    converged: np.ndarray
    steps: np.ndarray
    mismatch: np.ndarray
    failures: tuple[str | None, ...]
    iterations: int

    def __len__(self) -> int:
        return self.v.shape[0]

    def __getitem__(self, i: int) -> SystemState:
        """Member i's solution as a SystemState, with arrays of its own."""
        return SystemState(
            v=self.v[i].copy(),
            theta=self.theta[i].copy(),
            s_flows=self.s_flows[i].copy(),
            p_pcc=float(self.p_pcc[i]),
            q_pcc=float(self.q_pcc[i]),
            converged=bool(self.converged[i]),
            iterations=int(self.steps[i]),
            mismatch=float(self.mismatch[i]),
        )

    def take(self, rows) -> "StateStack":
        """The members at ``rows``, in that order, as a stack."""
        rows = np.asarray(rows, dtype=int)
        return StateStack(
            v=self.v[rows],
            theta=self.theta[rows],
            s_flows=self.s_flows[rows],
            p_pcc=self.p_pcc[rows],
            q_pcc=self.q_pcc[rows],
            converged=self.converged[rows],
            steps=self.steps[rows],
            mismatch=self.mismatch[rows],
            failures=tuple(self.failures[i] for i in rows),
            iterations=int(self.steps[rows].max(initial=0)),
        )


@dataclass(frozen=True, eq=False)
class MeasurementVector:
    """Ordered measurement stack [v_1..v_n, s_1..s_m, p_pcc, q_pcc].

    ``values`` is one vector, or a (K, n_y) array with member i in row i;
    the properties then carry the same leading axis.
    """

    values: np.ndarray
    n_bus: int
    n_branch: int

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def v(self) -> np.ndarray:
        return self.values[..., : self.n_bus]

    @property
    def s(self) -> np.ndarray:
        return self.values[..., self.n_bus : self.n_bus + self.n_branch]

    @property
    def p_pcc(self) -> float | np.ndarray:
        return _scalar(self.values[..., -2])

    @property
    def q_pcc(self) -> float | np.ndarray:
        return _scalar(self.values[..., -1])


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A 0-d array as a Python float; any other array as it is."""
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True, eq=False)
class MeasurementNoise:
    """Relative uniform noise on every measurement entry: y -> y * (1 + U[lo, hi])."""

    lo: float
    hi: float
    rng: np.random.Generator

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"noise bounds must satisfy lo <= hi, got [{self.lo}, {self.hi}]")


def measurement_labels(grid: GridModel) -> tuple[str, ...]:
    """Row labels of the measurement vector, matching its layout."""
    return (
        tuple(f"v:{bus.id}" for bus in grid.buses)
        + tuple(f"s:{br.id}" for br in grid.branches)
        + ("p_pcc", "q_pcc")
    )


def mismatch_jacobian(ybus_pq: np.ndarray, v_pq: np.ndarray, i_pq: np.ndarray) -> np.ndarray:
    """Jacobian of the stacked P/Q mismatch at PQ buses wrt [theta_pq, v_pq].

    Takes the Ybus block on the PQ rows and columns, and a (K, npq) stack
    of the complex voltage and current injection (full Ybus @ V) at the PQ
    buses; returns one Jacobian per member, shape (K, 2 npq, 2 npq).
    Complex bus-power derivatives in polar form:
        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
        dS/dv     = diag(V) conj(Y diag(V/|V|)) + diag(conj(I) V/|V|)
    """
    n_members, npq = v_pq.shape
    vnorm = v_pq / np.abs(v_pq)
    vy = v_pq[:, :, None] * np.conj(ybus_pq)
    ds_dth = -1j * vy * np.conj(v_pq)[:, None, :]
    ds_dvm = vy * np.conj(vnorm)[:, None, :]
    # The diagonals, as strided views of the flattened matrices.
    ds_dth.reshape(n_members, -1)[:, :: npq + 1] += 1j * v_pq * np.conj(i_pq)
    ds_dvm.reshape(n_members, -1)[:, :: npq + 1] += np.conj(i_pq) * vnorm
    ds = np.concatenate([ds_dth, ds_dvm], axis=2)
    return np.concatenate([ds.real, ds.imag], axis=1)


def branch_flows(grid: GridModel, voltage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex power entering each branch at its from and to ends (per member of a stack)."""
    f_idx, t_idx = grid.branch_ends
    yff, yft, ytf, ytt = grid.branch_admittance
    vf = voltage.take(f_idx, axis=-1)
    vt = voltage.take(t_idx, axis=-1)
    sf = vf * np.conj(yff * vf + yft * vt)
    st = vt * np.conj(ytf * vf + ytt * vt)
    return sf, st


def solve_power_flow(
    grid: GridModel,
    initial: SystemState | StateStack | None = None,
    tol: float = TOL_PF,
    max_iter: int = MAX_ITER_PF,
    control: np.ndarray | None = None,
    load_delta: np.ndarray | None = None,
) -> SystemState | StateStack:
    """Newton-Raphson fixed point of the nodal power balances.

    Starts flat (1.0 p.u., zero angle) unless ``initial`` gives a state to
    start from, such as the previous closed-loop step's.  ``control`` and
    ``load_delta`` change the injections on the grid's own network, with
    no new grid built (see GridModel.bus_injections).

    One control vector (or none) gives a SystemState, with converged=False
    (never raised) when the iteration cap is hit; SingularJacobianError is
    raised if the linearization degenerates.  A stack of K controls or
    load deltas gives a StateStack: each pass takes one Newton step for
    every member still iterating, and a member drops out once it has
    converged, hit the cap or failed.  A member whose Jacobian is singular
    or whose step is not finite is marked failed (StateStack.failures) and
    leaves its companions untouched.  The Ybus product is one dot product
    per member and bus (np.vecdot) rather than a matrix product over the
    stack, and each Jacobian is factored on its own, so a member's bits
    never depend on K or on its companions.
    """
    s_spec = grid.bus_injections(control, load_delta)
    single = s_spec.ndim == 1
    n = grid.n_bus
    pq = grid.pq_select
    npq = grid.pq_indices.size
    ybus_conj = np.conj(grid.ybus)  # np.vecdot conjugates its first argument back
    ybus_pq = grid.ybus_pq

    v_out = np.ones(s_spec.shape)
    th_out = np.zeros(s_spec.shape)
    if initial is not None:
        v_out[...] = initial.v
        th_out[...] = initial.theta
        v_out[..., grid.slack_index] = 1.0
        th_out[..., grid.slack_index] = 0.0

    # v, th and spec hold the members still iterating, one row each, and
    # ``rows`` says whose rows they are; for one member they are views of
    # v_out and th_out.  Members leave in groups (converged, capped or
    # failed); each group's (rows, v, th, mismatch, converged, steps) goes
    # to ``exits``.
    v, th, spec = v_out.reshape(-1, n), th_out.reshape(-1, n), s_spec.reshape(-1, n)
    rows = np.arange(len(spec))
    exits = []
    failures: list[str | None] = [None] * len(spec)
    iterations = 0
    while True:
        voltage = v * np.exp(1j * th)
        ibus = np.vecdot(ybus_conj, voltage[:, None, :])
        mismatch = (voltage * np.conj(ibus) - spec)[:, pq]
        f = np.concatenate([mismatch.real, mismatch.imag], axis=1)
        f_max = np.abs(f).max(axis=1, initial=0.0)
        done = f_max < tol
        capped = iterations >= max_iter
        if capped or done.any():
            leaving = np.ones_like(done) if capped else done
            if leaving.all():
                exits.append((rows, v, th, f_max, done, iterations))
                break
            exits.append((rows[leaving], v[leaving], th[leaving], f_max[leaving], done[leaving], iterations))
            stay = ~leaving
            rows, v, th, spec = rows[stay], v[stay], th[stay], spec[stay]
            voltage, ibus, f, f_max = voltage[stay], ibus[stay], f[stay], f_max[stay]
        jac = mismatch_jacobian(ybus_pq, voltage[:, pq], ibus[:, pq])
        try:
            dx = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            dx = None
        broken = None
        if dx is None or not np.isfinite(dx).all():
            dx, broken = _solve_each(jac, -f, iterations)
        if broken:
            out = np.zeros(rows.size, dtype=bool)
            out[list(broken)] = True
            for j, why in broken.items():
                failures[rows[j]] = why
            exits.append((rows[out], v[out], th[out], f_max[out], ~out[out], iterations))
            if out.all():
                break
            stay = ~out
            rows, v, th, spec, dx = rows[stay], v[stay], th[stay], spec[stay], dx[stay]
        th[:, pq] += dx[:, :npq]
        v[:, pq] += dx[:, npq:]
        iterations += 1

    if single:  # the one member left once, its state in v_out and th_out
        if failures[0] is not None:
            raise SingularJacobianError(failures[0])
        (_, _, _, worst, converged, _), = exits
        sf, st = branch_flows(grid, v_out * np.exp(1j * th_out))
        s_pcc = sf[grid.pcc_index]
        return SystemState(
            v=v_out,
            theta=th_out,
            s_flows=np.maximum(np.abs(sf), np.abs(st)),
            p_pcc=float(s_pcc.real),
            q_pcc=float(s_pcc.imag),
            converged=bool(converged[0]),
            iterations=iterations,
            mismatch=float(worst[0]),
        )

    if len(exits) == 1:  # all members left together, so rows is in member order
        _, v, th, worst, converged, last = exits[0]
        steps = np.full(len(rows), last)
    else:
        order = np.argsort(np.concatenate([e[0] for e in exits]))
        v, th, worst, converged = (np.concatenate([e[k] for e in exits])[order] for k in range(1, 5))
        steps = np.concatenate([np.full(e[0].size, e[5]) for e in exits])[order]
    sf, st = branch_flows(grid, v * np.exp(1j * th))
    s_pcc = sf[:, grid.pcc_index]
    return StateStack(
        v=v,
        theta=th,
        s_flows=np.maximum(np.abs(sf), np.abs(st)),
        p_pcc=s_pcc.real.copy(),
        q_pcc=s_pcc.imag.copy(),
        converged=converged,
        steps=steps,
        mismatch=worst,
        failures=tuple(failures),
        iterations=iterations,
    )


def _solve_each(
    jac: np.ndarray, rhs: np.ndarray, iteration: int
) -> tuple[np.ndarray, dict[int, str]]:
    """Newton steps jac[i] dx[i] = rhs[i] solved member by member, and {member: why} of the failed.

    A member fails if its Jacobian is singular or its step is not finite.
    np.linalg.solve raises for the whole stack if one matrix is singular,
    so each member is solved alone here, with the same LAPACK call as in
    the stack.
    """
    dx = np.zeros_like(rhs)
    broken = {}
    for i in range(rhs.shape[0]):
        try:
            dx[i] = np.linalg.solve(jac[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            what = "singular power-flow Jacobian"
        else:
            if np.isfinite(dx[i]).all():
                continue
            what = "non-finite Newton step"
        broken[i] = f"{what} at iteration {iteration} (cond ~ {np.linalg.cond(jac[i]):.3e})"
    return dx, broken


def nodal_residuals(grid: GridModel, state: SystemState) -> np.ndarray:
    """Re-evaluated |complex power mismatch| per bus; the slack entry is zeroed
    (its injection is free by construction)."""
    voltage = state.v * np.exp(1j * state.theta)
    mismatch = voltage * np.conj(grid.ybus @ voltage) - grid.bus_injections()
    out = np.abs(mismatch)
    out[grid.slack_index] = 0.0
    return out


def limit_violation(grid: GridModel, state: SystemState | StateStack) -> float | np.ndarray:
    """Largest violation of the voltage band and branch-flow limits (0 if feasible).

    One float for a SystemState, one per member for a StateStack.
    """
    worst = np.max(
        np.concatenate(
            [grid.v_min - state.v, state.v - grid.v_max, state.s_flows - grid.s_max], axis=-1
        ),
        axis=-1,
        initial=0.0,
    )
    return _scalar(worst)


def measure(state: SystemState, noise: MeasurementNoise | None = None) -> MeasurementVector:
    """Stack the feedback vector from a converged state, optionally noisy.

    With noise, every entry is independently scaled by (1 + U[lo, hi]); the
    PCC rows are measurements like any other and get perturbed too.  A
    StateStack gives a (K, n_y) stack, row i measured from member i.
    """
    if not (state.converged is True or np.all(state.converged)):
        raise ValueError("cannot measure a non-converged state")
    pcc = np.array([state.p_pcc, state.q_pcc]).T
    y = np.concatenate([state.v, state.s_flows, pcc], axis=-1)
    if noise is not None:
        y = y * (1.0 + noise.rng.uniform(noise.lo, noise.hi, size=y.shape))
    return MeasurementVector(
        values=y, n_bus=state.v.shape[-1], n_branch=state.s_flows.shape[-1]
    )


def steady_state_map(
    grid: GridModel,
    u: np.ndarray,
    tol: float = TOL_PF,
    max_iter: int = MAX_ITER_PF,
) -> MeasurementVector:
    """Noise-free steady-state map u -> y; the ground-truth oracle for tests."""
    state = solve_power_flow(grid, tol=tol, max_iter=max_iter, control=u)
    if not state.converged:
        raise PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(mismatch {state.mismatch:.3e})"
        )
    return measure(state)
