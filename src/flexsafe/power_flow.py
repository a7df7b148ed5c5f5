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
class MeasurementVector:
    """Ordered measurement stack [v_1..v_n, s_1..s_m, p_pcc, q_pcc]."""

    values: np.ndarray
    n_bus: int
    n_branch: int

    def __len__(self) -> int:
        return self.values.size

    @property
    def v(self) -> np.ndarray:
        return self.values[: self.n_bus]

    @property
    def s(self) -> np.ndarray:
        return self.values[self.n_bus : self.n_bus + self.n_branch]

    @property
    def p_pcc(self) -> float:
        return float(self.values[-2])

    @property
    def q_pcc(self) -> float:
        return float(self.values[-1])


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

    Takes the Ybus block on the PQ rows and columns, and the complex
    voltage and current injection (full Ybus @ V) at the PQ buses.
    Complex bus-power derivatives in polar form:
        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
        dS/dv     = diag(V) conj(Y diag(V/|V|)) + diag(conj(I) V/|V|)
    """
    npq = v_pq.size
    vnorm = v_pq / np.abs(v_pq)
    vy = v_pq[:, None] * np.conj(ybus_pq)
    ds_dth = -1j * vy * np.conj(v_pq)[None, :]
    ds_dvm = vy * np.conj(vnorm)[None, :]
    diag = np.arange(npq)
    ds_dth[diag, diag] += 1j * v_pq * np.conj(i_pq)
    ds_dvm[diag, diag] += np.conj(i_pq) * vnorm
    jac = np.empty((2 * npq, 2 * npq))
    jac[:npq, :npq] = ds_dth.real
    jac[:npq, npq:] = ds_dvm.real
    jac[npq:, :npq] = ds_dth.imag
    jac[npq:, npq:] = ds_dvm.imag
    return jac


def branch_flows(grid: GridModel, voltage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex power entering each branch at its from and to ends."""
    f_idx, t_idx = grid.branch_ends
    yff, yft, ytf, ytt = grid.branch_admittance
    vf = voltage[f_idx]
    vt = voltage[t_idx]
    sf = vf * np.conj(yff * vf + yft * vt)
    st = vt * np.conj(ytf * vf + ytt * vt)
    return sf, st


def solve_power_flow(
    grid: GridModel,
    initial: SystemState | None = None,
    tol: float = TOL_PF,
    max_iter: int = MAX_ITER_PF,
    control: np.ndarray | None = None,
    load_delta: np.ndarray | None = None,
) -> SystemState:
    """Newton-Raphson fixed point of the nodal power balances.

    Starts flat (1.0 p.u., zero angle) unless ``initial`` gives a state to
    start from, such as the previous closed-loop step's.  ``control`` and
    ``load_delta`` change the injections on the grid's own network, with
    no new grid built (see GridModel.bus_injections).  Returns a state
    with converged=False (never raises) when the iteration cap is hit;
    raises SingularJacobianError if the linearization degenerates.
    """
    n = grid.n_bus
    slack = grid.slack_index
    pq = grid.pq_indices
    npq = pq.size
    s_spec = grid.bus_injections(control, load_delta)
    ybus = grid.ybus
    ybus_pq = grid.ybus_pq

    v = np.ones(n)
    th = np.zeros(n)
    if initial is not None:
        v = initial.v.copy()
        th = initial.theta.copy()
        v[slack] = 1.0
        th[slack] = 0.0

    iterations = 0
    converged = False
    while True:
        voltage = v * np.exp(1j * th)
        ibus = ybus @ voltage
        mismatch = (voltage * np.conj(ibus) - s_spec)[pq]
        f = np.concatenate([mismatch.real, mismatch.imag])
        worst = float(np.max(np.abs(f))) if npq else 0.0
        if worst < tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        jac = mismatch_jacobian(ybus_pq, voltage[pq], ibus[pq])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular power-flow Jacobian at iteration {iterations} "
                f"(cond ~ {np.linalg.cond(jac):.3e})"
            ) from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError(
                f"non-finite Newton step at iteration {iterations} "
                f"(cond ~ {np.linalg.cond(jac):.3e})"
            )
        th[pq] += dx[:npq]
        v[pq] += dx[npq:]
        iterations += 1

    sf, st = branch_flows(grid, v * np.exp(1j * th))
    s_pcc = sf[grid.pcc_index]
    return SystemState(
        v=v,
        theta=th,
        s_flows=np.maximum(np.abs(sf), np.abs(st)),
        p_pcc=float(s_pcc.real),
        q_pcc=float(s_pcc.imag),
        converged=converged,
        iterations=iterations,
        mismatch=worst,
    )


def nodal_residuals(grid: GridModel, state: SystemState) -> np.ndarray:
    """Re-evaluated |complex power mismatch| per bus; the slack entry is zeroed
    (its injection is free by construction)."""
    voltage = state.v * np.exp(1j * state.theta)
    mismatch = voltage * np.conj(grid.ybus @ voltage) - grid.bus_injections()
    out = np.abs(mismatch)
    out[grid.slack_index] = 0.0
    return out


def limit_violation(grid: GridModel, state: SystemState) -> float:
    """Largest violation of the voltage band and branch-flow limits (0 if feasible)."""
    worst = 0.0
    worst = max(worst, float(np.max(grid.v_min - state.v, initial=0.0)))
    worst = max(worst, float(np.max(state.v - grid.v_max, initial=0.0)))
    worst = max(worst, float(np.max(state.s_flows - grid.s_max, initial=0.0)))
    return worst


def measure(state: SystemState, noise: MeasurementNoise | None = None) -> MeasurementVector:
    """Stack the feedback vector from a converged state, optionally noisy.

    With noise, every entry is independently scaled by (1 + U[lo, hi]); the
    PCC rows are measurements like any other and get perturbed too.
    """
    if not state.converged:
        raise ValueError("cannot measure a non-converged state")
    y = np.concatenate([state.v, state.s_flows, [state.p_pcc, state.q_pcc]])
    if noise is not None:
        y = y * (1.0 + noise.rng.uniform(noise.lo, noise.hi, size=y.size))
    return MeasurementVector(values=y, n_bus=state.v.size, n_branch=state.s_flows.size)


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
