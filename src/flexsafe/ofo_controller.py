"""Projected-gradient feedback dispatch of flexible units at the PCC.

Each iteration measures the plant, forms the tracking-cost gradient pulled
back through the constant sensitivity map, and solves a small QP for the
update direction w:

    minimize  || w + 2 M^T grad_phi ||^2
    subject to  control box, voltage band and flow limits, all written on
                the predicted next operating point u + alpha w.

The control is advanced by u <- u + alpha w.  Constraints on network
quantities use the latest measurement plus the linearized change, so the
scheme enforces limits through feedback rather than through an exact model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from flexsafe.grid_model import GridModel, clip_control, control_labels
from flexsafe.power_flow import (
    MeasurementNoise,
    MeasurementVector,
    PowerFlowError,
    SingularJacobianError,
    StateStack,
    SystemState,
    measure,
    solve_power_flow,
)
from flexsafe.qp_solver import QuadraticProgram, derive_stack, solve_qp, solve_qp_stack


class ControllerError(Exception):
    """Controller setup or calibration failure."""


@dataclass(frozen=True)
class SetPoint:
    """PCC power target in p.u. (import positive)."""

    p_set: float
    q_set: float

    def __post_init__(self):
        if not (math.isfinite(self.p_set) and math.isfinite(self.q_set)):
            raise ValueError("set point must be finite")

    def distance(self, p: float, q: float) -> float:
        return math.hypot(p - self.p_set, q - self.q_set)


@dataclass(frozen=True)
class ControllerConfig:
    """Gain and termination settings for the feedback loop."""

    alpha: float
    max_iterations: int = 500
    convergence_tol: float = 1e-3

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


class NoiseModel(Protocol):
    """Disturbance hooks the closed loop consults once per iteration.

    ``perturb_grid`` returns iteration k's (n_loads, 2) array of (dp, dq)
    added to the grid's fixed loads, or None to leave them as they are.
    """

    def perturb_grid(self, grid: GridModel, k: int) -> np.ndarray | None: ...

    def measurement_noise(self, k: int) -> MeasurementNoise | None: ...


@dataclass(frozen=True, eq=False)
class OFOStep:
    """One controller iteration: measurement in, control update out.

    ``active_set`` holds the step QP's binding (row, side) tags, empty
    unless the QP was solved; the next step's QP is warm-started from it.
    """

    k: int
    y: MeasurementVector
    w: np.ndarray
    u: np.ndarray
    u_next: np.ndarray
    qp_status: str
    active_set: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class SegmentRecord:
    """Outcome of tracking one set point; steps [start, stop) belong to it."""

    setpoint: SetPoint
    start: int
    stop: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop record: one true plant state per recorded step."""

    steps: tuple[OFOStep, ...]
    states: tuple[SystemState, ...]
    segments: tuple[SegmentRecord, ...]
    converged: bool
    aborted: bool = False
    abort_reason: str | None = None

    def __post_init__(self):
        if len(self.steps) != len(self.states):
            raise ValueError("steps and states must pair one-to-one")

    @property
    def k_f(self) -> int:
        """Index of the last recorded iteration (-1 for an empty record)."""
        return len(self.steps) - 1

    def pcc_path(self) -> np.ndarray:
        """True (p_pcc, q_pcc) per step, shape (n_steps, 2)."""
        return np.array([[st.p_pcc, st.q_pcc] for st in self.states]).reshape(-1, 2)

    def control_path(self) -> np.ndarray:
        """Applied control per step, shape (n_steps, n_u)."""
        return np.array([s.u for s in self.steps])


def grad_cost(y: MeasurementVector, setpoint: SetPoint) -> np.ndarray:
    """Gradient of the PCC tracking cost with respect to the measurement.

    The cost (p_pcc - p_set)^2 + (q_pcc - q_set)^2 touches only the last two
    measurement rows, so every other entry is zero.
    """
    grad = np.zeros(len(y))
    grad[-2] = 2.0 * (y.p_pcc - setpoint.p_set)
    grad[-1] = 2.0 * (y.q_pcc - setpoint.q_set)
    return grad


def step_qp_template(grid: GridModel, smap, alpha: float) -> QuadraticProgram:
    """The part of every step QP that stays fixed for a run.

    Rows, in order: control box, voltage band, flow limits, all on the
    step alpha w: the matrix [alpha I; alpha M_v; alpha M_s].  The bounds
    are the limits themselves (the offsets at u = 0, y = 0), so the
    template has the steps' finite bounds and its one-sided normals and
    their Gram matrix serve every step (see build_step_qp).
    """
    m_mat = smap.matrix
    n, m = grid.n_bus, grid.n_branch
    lower_u, upper_u = grid.control_bounds()
    # A huge alpha overflows to inf here; QuadraticProgram rejects it.
    with np.errstate(over="ignore"):
        a = np.vstack(
            [
                alpha * np.eye(lower_u.size),
                alpha * m_mat[:n],
                alpha * m_mat[n : n + m],
            ]
        )
    return QuadraticProgram(
        g=np.zeros(a.shape[1]),
        a=a,
        lower=np.concatenate([lower_u, grid.v_min, np.zeros(m)]),
        upper=np.concatenate([upper_u, grid.v_max, grid.s_max]),
    )


def build_step_qp(
    u: np.ndarray,
    y: MeasurementVector,
    smap,
    grid: GridModel,
    grad_phi: np.ndarray,
    template: QuadraticProgram | Sequence[QuadraticProgram],
) -> QuadraticProgram | list[QuadraticProgram]:
    """Assemble the per-step direction QP at measurement y and control u.

    Rows, in order: control box (exact, on the true u), voltage band and
    flow limits (linearized around the measurement).  All rows are written
    on the post-step point u + alpha w.  ``template`` is the loop's
    step_qp_template(grid, smap, alpha); each step supplies only its
    gradient and offsets.

    With a (K, n_u) stack of controls, a stack of K measurements, a
    (K, n_y) stack of gradients and one template per member, returns one
    QP per member (see derive_stack).  The offsets and the vectors
    2 M^T grad_phi are formed and checked for the whole stack; np.matmul
    makes one matrix-vector product per member, so a member's bits do not
    depend on its companions.
    """
    lower_u, upper_u = grid.control_bounds()
    lower = np.concatenate([lower_u - u, grid.v_min - y.v, -y.s], axis=-1)
    upper = np.concatenate([upper_u - u, grid.v_max - y.v, grid.s_max - y.s], axis=-1)
    m_t = smap.matrix.T
    if u.ndim == 1:
        return template.with_vectors(2.0 * (m_t @ grad_phi), lower, upper)
    return derive_stack(template, 2.0 * np.matmul(m_t, grad_phi[..., None])[..., 0], lower, upper)


def closed_loop_step(
    grid: GridModel,
    u: np.ndarray,
    smap,
    alpha: float | Sequence[float],
    gradient: Callable[[MeasurementVector], np.ndarray] | Sequence[Callable],
    template: QuadraticProgram | Sequence[QuadraticProgram],
    k: int = 0,
    noise: NoiseModel | None = None,
    initial: SystemState | StateStack | None = None,
    warm: tuple | Sequence[tuple | None] | None = None,
) -> tuple[OFOStep, SystemState] | tuple[tuple[OFOStep | PowerFlowError, ...], StateStack]:
    """Run one closed-loop iteration against the true plant.

    The step kernel of every loop (dispatch, region sweep, gain
    calibration): solve the plant at u, Newton warm-started from
    ``initial`` (the previous step's true state); measure it; solve the step
    QP for the cost gradient ``gradient(y)``; clip the update to the unit
    box.  ``template`` is the loop's step_qp_template for (grid, smap,
    alpha), and ``warm`` the active set of the loop's last solved step QP,
    the guess solve_qp starts from.  Returns the step record and the true
    plant state that produced the measurement.  An infeasible QP holds the
    control (w = 0) rather than taking an unreliable direction.

    A (K, n_u) stack of controls steps K independent members in lockstep:
    ``alpha``, ``gradient``, ``template`` and ``warm`` (if given) then hold
    one entry per member, ``initial`` is a StateStack, and ``noise`` may
    drive a stack of one only.  The plant is solved as one stack, and the
    measurements, step QPs (build_step_qp) and clip are formed for the
    whole stack; solve_qp_stack runs every member's warm test at once and
    solves each miss cold on its own.  Each member's cost gradient, QP and
    guess are its own.  Returns, per member, its OFOStep or the
    PowerFlowError that stopped it, and the StateStack.  A member's results
    are bit for bit those of its own one-member step; one control vector is
    the one-member case.
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    if noise is not None and not single:
        raise ValueError("a noise model drives one member, not a stack")
    load_delta = noise.perturb_grid(grid, k) if noise is not None else None
    states = solve_power_flow(grid, initial=initial, control=u, load_delta=load_delta)
    if single:
        if not states.converged:
            raise PowerFlowError(
                f"plant power flow diverged at iteration {k} (mismatch {states.mismatch:.3e})"
            )
        u_live, alphas = u[None], (alpha,)
        members = [measure(states, noise.measurement_noise(k) if noise is not None else None)]
        problem = build_step_qp(u, members[0], smap, grid, gradient(members[0]), template)
        solutions = [solve_qp(problem, warm=warm)]
    else:
        results: list[OFOStep | PowerFlowError | None] = [None] * len(u)
        for i in np.flatnonzero(~states.converged):
            why = states.failures[i]
            results[i] = SingularJacobianError(why) if why else PowerFlowError(
                f"plant power flow diverged at iteration {k} "
                f"(mismatch {states.mismatch[i]:.3e})"
            )
        live = np.flatnonzero(states.converged)
        u_live, alphas = u[live], [alpha[i] for i in live]
        guesses = [None] * len(live) if warm is None else [warm[i] for i in live]
        ys = measure(states.take(live))
        members = [MeasurementVector(row.copy(), ys.n_bus, ys.n_branch) for row in ys.values]
        grad_phi = np.reshape([gradient[i](y) for i, y in zip(live, members)], ys.values.shape)
        problems = build_step_qp(u_live, ys, smap, grid, grad_phi, [template[i] for i in live])
        solutions = solve_qp_stack(problems, guesses)
    w = [sol.w if sol.status == "optimal" else np.zeros(u.shape[-1]) for sol in solutions]
    if w:  # some member's plant solved
        stepped = (u_live + np.array(alphas)[:, None] * np.array(w)).clip(*grid.control_bounds())
    steps = [
        OFOStep(
            k=k,
            y=y,
            w=w_j,
            u=u_live[j].copy(),
            u_next=(stepped[j] if solution.status == "optimal" else u_live[j]).copy(),
            qp_status=solution.status,
            active_set=solution.active_set,
        )
        for j, (y, w_j, solution) in enumerate(zip(members, w, solutions))
    ]
    if single:
        return steps[0], states
    for i, step in zip(live, steps):
        results[i] = step
    return tuple(results), states


def run_schedule(
    grid: GridModel,
    smap,
    schedule: Sequence[SetPoint],
    config: ControllerConfig,
    u0: np.ndarray | None = None,
    noise: NoiseModel | None = None,
) -> Trajectory:
    """Track each set point in turn, carrying the control across segments.

    A segment ends as soon as the true PCC flow is within convergence_tol of
    its target (the update computed at that step is not applied), or after
    max_iterations.  A diverging plant aborts the run; the partial record is
    returned rather than raised so ensemble studies can keep the evidence.
    Each step's power flow starts from the previous step's true state, and
    every step derives its QP from one step_qp_template and warm-starts it
    from the active set of the last step whose QP was solved.
    """
    if not schedule:
        raise ControllerError("schedule must contain at least one set point")
    if u0 is None:
        u = grid.control_vector()
    else:
        u, _ = clip_control(grid, np.asarray(u0, dtype=float))

    steps: list[OFOStep] = []
    states: list[SystemState] = []
    segments: list[SegmentRecord] = []
    k = 0
    aborted = False
    reason = None
    state = None
    warm = None
    template = step_qp_template(grid, smap, config.alpha)

    for setpoint in schedule:
        seg_start = k
        seg_converged = False
        for _ in range(config.max_iterations):
            try:
                step, state = closed_loop_step(
                    grid, u, smap, config.alpha, lambda y: grad_cost(y, setpoint), template,
                    k=k, noise=noise, initial=state, warm=warm,
                )
            except PowerFlowError as exc:
                aborted = True
                reason = str(exc)
                break
            steps.append(step)
            states.append(state)
            if step.qp_status == "optimal":
                warm = step.active_set
            k += 1
            if setpoint.distance(state.p_pcc, state.q_pcc) <= config.convergence_tol:
                seg_converged = True
                break
            u = step.u_next
        segments.append(
            SegmentRecord(setpoint=setpoint, start=seg_start, stop=k, converged=seg_converged)
        )
        if aborted:
            break

    converged = (
        not aborted
        and len(segments) == len(schedule)
        and all(s.converged for s in segments)
    )
    return Trajectory(
        steps=tuple(steps),
        states=tuple(states),
        segments=tuple(segments),
        converged=converged,
        aborted=aborted,
        abort_reason=reason,
    )


def export_trajectory_csv(traj: Trajectory, grid: GridModel, path: str | Path) -> None:
    """Per-iteration record: k, applied control, true PCC flow, cost, QP status."""
    owner = {}
    for seg in traj.segments:
        for k in range(seg.start, seg.stop):
            owner[k] = seg.setpoint
    header = ["k", *control_labels(grid), "p_pcc", "q_pcc", "phi", "qp_status", "active_count"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for step, state in zip(traj.steps, traj.states):
            sp = owner[step.k]
            phi = (state.p_pcc - sp.p_set) ** 2 + (state.q_pcc - sp.q_set) ** 2
            writer.writerow(
                [
                    step.k,
                    *[repr(float(x)) for x in step.u],
                    repr(float(state.p_pcc)),
                    repr(float(state.q_pcc)),
                    repr(float(phi)),
                    step.qp_status,
                    len(step.active_set),
                ]
            )


def calibrate_alpha(
    grid: GridModel,
    smap,
    setpoint: SetPoint,
    lo: float = 1e-3,
    hi: float = 4.0,
    max_iterations: int = 1000,
    convergence_tol: float = 1e-3,
    rounds: int = 24,
) -> float:
    """Largest gain that still converges on the noise-free plant.

    Log-scale bisection on the stability boundary: small gains converge,
    gains past 1/(2 lambda_max) of the PCC quadratic diverge.  Used offline
    to pick per-network defaults.  The iteration budget must be generous
    enough for the lo bracket, whose convergence is the slowest.
    """

    def converges(alpha: float) -> bool:
        cfg = ControllerConfig(
            alpha=alpha, max_iterations=max_iterations, convergence_tol=convergence_tol
        )
        traj = run_schedule(grid, smap, [setpoint], cfg)
        return traj.converged and not traj.aborted

    if not converges(lo):
        raise ControllerError(f"no convergence even at alpha={lo}; check the set point")
    if converges(hi):
        return hi
    good, bad = lo, hi
    for _ in range(rounds):
        mid = math.sqrt(good * bad)
        if converges(mid):
            good = mid
        else:
            bad = mid
    return good
