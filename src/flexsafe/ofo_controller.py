"""Projected-gradient feedback dispatch of flexible units at the PCC.

Each iteration measures the plant, forms the tracking-cost gradient pulled
back through the constant sensitivity map, and solves a small QP for the
applied step w, alpha times the projected-gradient direction:

    minimize  || w + 2 alpha M^T grad_phi ||^2
    subject to  control box, voltage band and flow limits, all written on
                the predicted next operating point u + w.

The control is advanced by u <- u + w.  The gain enters through g only, so
the QP's matrix depends on the sensitivity map alone.  Constraints on
network quantities use the latest measurement plus the linearized change,
so the scheme enforces limits through feedback rather than an exact model.
"""

from __future__ import annotations

import csv
import math
from array import array
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
from flexsafe.qp_solver import (
    ProblemStack,
    QuadraticProgram,
    derive_stack,
    solve_qp,
    solve_qp_stack,
)


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

    ``w`` is the applied step, u_next = u + w clipped to the unit box.
    ``active_set`` holds the step QP's binding (row, side) tags, empty
    unless the QP was solved.
    """

    y: MeasurementVector
    w: np.ndarray
    u: np.ndarray
    u_next: np.ndarray
    qp_status: str
    active_set: tuple[tuple[int, str], ...]


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Steps as arrays: a run's, row k step k, or a kernel stack's, row i member i.

    The fields are OFOStep's with a leading row axis: ``y`` holds the
    (n_rows, n_y) measurements, ``w``, ``u`` and ``u_next`` are
    (n_rows, n_u) arrays, and ``qp_status`` and ``active_set`` hold one
    entry per row.  A stack member whose plant failed has a NaN
    measurement, w = 0, u_next = u and the status "plant_failed"; the
    StateStack beside it says why (plant_failure).
    """

    y: MeasurementVector
    w: np.ndarray
    u: np.ndarray
    u_next: np.ndarray
    qp_status: tuple[str, ...]
    active_set: tuple[tuple[tuple[int, str], ...], ...]

    def __len__(self) -> int:
        return self.u.shape[0]


def plant_failure(why: str | None, mismatch: float, k: int) -> PowerFlowError:
    """The error of step k's plant solve that did not converge.

    ``why`` is the Newton breakdown the solve reported (StateStack.failures),
    if any; otherwise the iteration ran out at ``mismatch``.
    """
    if why:
        return SingularJacobianError(why)
    return PowerFlowError(f"plant power flow diverged at iteration {k} (mismatch {mismatch:.3e})")


@dataclass(frozen=True)
class SegmentRecord:
    """Outcome of tracking one set point; steps [start, stop) belong to it."""

    setpoint: SetPoint
    start: int
    stop: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop record as arrays: each step and the true plant state it measured.

    ``steps`` is a StepRecord and ``states`` a StateStack, each with step k
    in row k.  Nothing per step is kept, so a pickled trajectory (what a
    Monte Carlo worker returns) holds only arrays.
    """

    steps: StepRecord
    states: StateStack
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
        return np.column_stack([self.states.p_pcc, self.states.q_pcc])


class _RunRecord:
    """A run's steps as one growing buffer per field.

    A step appends its values' bytes and keeps no object of its own, and
    finish() views each buffer as an (n_steps, ...) array without a copy,
    so the record is never held twice.  Keeping each step's arrays and
    stacking them at the end would leave the freed arrays in the
    allocator's heap beside the new stacks, and raise a long run's peak
    resident set.  Equal active sets are kept as one tuple, so a run
    holds, pickles and unpickles each distinct set once.
    """

    STEP = ("w", "u", "u_next")
    STATE = ("v", "theta", "s_flows")
    SCALARS = {"p_pcc": "d", "q_pcc": "d", "mismatch": "d", "converged": "b", "iterations": "q"}

    def __init__(self):
        self.buffers = {name: array("d") for name in ("y", *self.STEP, *self.STATE)}
        self.buffers.update((name, array(code)) for name, code in self.SCALARS.items())
        self.qp_status: list[str] = []
        self.active_set: list[tuple[tuple[int, str], ...]] = []
        self.distinct_sets: dict[tuple, tuple] = {}

    def append(self, step: OFOStep, state: SystemState) -> None:
        buf = self.buffers
        buf["y"].frombytes(step.y.values.tobytes())
        for name in self.STEP:
            buf[name].frombytes(getattr(step, name).tobytes())
        for name in self.STATE:
            buf[name].frombytes(getattr(state, name).tobytes())
        for name in self.SCALARS:
            buf[name].append(getattr(state, name))
        self.qp_status.append(step.qp_status)
        self.active_set.append(self.distinct_sets.setdefault(step.active_set, step.active_set))

    def _view(self, name: str, *shape: int, dtype=float) -> np.ndarray:
        return np.frombuffer(self.buffers[name], dtype=dtype).reshape(len(self.qp_status), *shape)

    def finish(self, grid: GridModel, n_u: int) -> tuple[StepRecord, StateStack]:
        n, m = grid.n_bus, grid.n_branch
        steps = StepRecord(
            y=MeasurementVector(self._view("y", n + m + 2), n, m),
            w=self._view("w", n_u),
            u=self._view("u", n_u),
            u_next=self._view("u_next", n_u),
            qp_status=tuple(self.qp_status),
            active_set=tuple(self.active_set),
        )
        newton = self._view("iterations", dtype=np.int64)
        states = StateStack(
            v=self._view("v", n),
            theta=self._view("theta", n),
            s_flows=self._view("s_flows", m),
            p_pcc=self._view("p_pcc"),
            q_pcc=self._view("q_pcc"),
            converged=self._view("converged", dtype=bool),
            steps=newton,
            mismatch=self._view("mismatch"),
            failures=(None,) * len(newton),
            iterations=int(newton.max(initial=0)),
        )
        return steps, states


def grad_cost(y: MeasurementVector, setpoint: SetPoint) -> np.ndarray:
    """Gradient of the PCC tracking cost with respect to the measurement.

    The cost (p_pcc - p_set)^2 + (q_pcc - q_set)^2 touches only the last two
    measurement rows, so every other entry is zero.
    """
    grad = np.zeros(len(y))
    grad[-2] = 2.0 * (y.p_pcc - setpoint.p_set)
    grad[-1] = 2.0 * (y.q_pcc - setpoint.q_set)
    return grad


def step_qp_template(grid: GridModel, smap) -> QuadraticProgram:
    """The part of every step QP that stays fixed for a sensitivity map.

    Rows, in order: control box, voltage band, flow limits, all on the
    step w: the matrix [I; M_v; M_s].  The bounds are the limits
    themselves (the offsets at u = 0, y = 0), so the template has the
    steps' finite bounds and its one-sided normals and their Gram matrix
    serve every step of every gain (see build_step_qp).
    """
    m_mat = smap.matrix
    n, m = grid.n_bus, grid.n_branch
    lower_u, upper_u = grid.control_bounds()
    return QuadraticProgram(
        g=np.zeros(m_mat.shape[1]),
        a=np.vstack([np.eye(lower_u.size), m_mat[: n + m]]),
        lower=np.concatenate([lower_u, grid.v_min, np.zeros(m)]),
        upper=np.concatenate([upper_u, grid.v_max, grid.s_max]),
    )


def build_step_qp(
    u: np.ndarray,
    y: MeasurementVector,
    smap,
    grid: GridModel,
    alpha: float | np.ndarray,
    grad_phi: np.ndarray,
    template: QuadraticProgram,
) -> QuadraticProgram | ProblemStack:
    """Assemble the per-step QP for the applied step w at measurement y and control u.

    Rows, in order: control box (exact, on the true u), voltage band and
    flow limits (linearized around the measurement).  All rows are written
    on the post-step point u + w.  The gain enters through the objective
    alone: g = 2 M^T (alpha grad_phi), grad_phi the cost gradient.
    ``template`` is step_qp_template(grid, smap); each step supplies only
    its gain, gradient and offsets.  A gain that overflows g makes
    derive_stack raise QPError, with no overflow warning.

    With a (K, n_u) stack of controls, a stack of K measurements, K gains
    and a (K, n_y) stack of gradients, returns the members' QPs as one
    ProblemStack of the template (see derive_stack).  The offsets and the
    vectors g are formed and checked for the whole stack; np.matmul makes
    one matrix-vector product per member, so a member's bits do not depend
    on its companions.
    """
    lower_u, upper_u = grid.control_bounds()
    lower = np.concatenate([lower_u - u, grid.v_min - y.v, -y.s], axis=-1)
    upper = np.concatenate([upper_u - u, grid.v_max - y.v, grid.s_max - y.s], axis=-1)
    m_t = smap.matrix.T
    with np.errstate(over="ignore"):
        if u.ndim == 1:
            g = 2.0 * (m_t @ (alpha * grad_phi))
            return derive_stack(template, g[None], lower[None], upper[None])[0]
        scaled = np.asarray(alpha, dtype=float)[:, None] * grad_phi
        return derive_stack(template, 2.0 * np.matmul(m_t, scaled[..., None])[..., 0], lower, upper)


def closed_loop_step(
    grid: GridModel,
    u: np.ndarray,
    smap,
    alpha: float | Sequence[float],
    gradient: Callable[[MeasurementVector], np.ndarray],
    template: QuadraticProgram,
    k: int = 0,
    noise: NoiseModel | None = None,
    initial: SystemState | StateStack | None = None,
    warm: Sequence[tuple | None] | None = None,
) -> tuple[OFOStep, SystemState] | tuple[StepRecord, StateStack]:
    """Run one closed-loop iteration against the true plant.

    The step kernel of every loop (dispatch, region sweep, gain
    calibration): solve the plant at u, Newton warm-started from
    ``initial`` (the previous step's true state); measure it; solve the step
    QP for the gain-scaled gradient ``alpha * gradient(y)``; clip u + w, w
    the QP's step, to the unit box.  ``template`` is step_qp_template(grid,
    smap), shared by every gain; a gain that overflows g raises QPError.
    One control vector's step QP is solved cold, and ``warm`` must be None
    (ValueError otherwise).  Returns the OFOStep and the true plant state
    that produced the measurement; a plant that does not converge raises
    its plant_failure.  An infeasible QP holds the control (w = 0) rather
    than taking an unreliable step.

    A (K, n_u) stack of controls steps K independent members in lockstep:
    ``alpha`` and ``warm`` (if given) then hold one entry per member,
    ``warm[i]`` being the active set of member i's last solved
    step QP, ``initial`` is a StateStack, and ``noise`` must be None (a
    stack of any size, one included, raises ValueError).  ``gradient`` is
    then one callable for the stack: it maps the (K, n_y) MeasurementVector
    to the (K, n_y) gradients, row i member i's own; a member whose plant
    failed has a NaN row, and its gradient row is not read.  The plant is
    solved as one stack, and the measurements, step QPs (build_step_qp),
    warm tests (solve_qp_stack) and clip are formed for the whole stack; a
    member whose guess misses is solved cold on its own.  Returns the
    StepRecord and the StateStack, row i member i's.  A member whose plant
    failed takes no step and raises nothing: the StateStack holds why
    (plant_failure), and the others go on.  A member's results are bit for
    bit those of its own one-member step; one control vector is the
    one-member case.

    One control vector keeps its own branch: as a stack of one, ``flexsafe run``
    on a 30-bus, 1,617-step schedule took 17% longer on a 2-core machine
    (median 1.02 -> 1.20 s, slower in 10 of 10 alternating pairs).
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    if noise is not None and not single:
        raise ValueError("a noise model drives one member, not a stack")
    if warm is not None and single:
        raise ValueError("a warm-start guess is per member of a stack, not for one control vector")
    load_delta = noise.perturb_grid(grid, k) if noise is not None else None
    states = solve_power_flow(grid, initial=initial, control=u, load_delta=load_delta)
    if single:
        if not states.converged:
            raise plant_failure(None, states.mismatch, k)
        y = measure(states, noise.measurement_noise(k) if noise is not None else None)
        problem = build_step_qp(u, y, smap, grid, alpha, gradient(y), template)
        solution = solve_qp(problem)
        if solution.status == "optimal":
            w, u_next = solution.w, (u + solution.w).clip(*grid.control_bounds())
        else:
            w, u_next = np.zeros(u.size), u.copy()
        step = OFOStep(
            y=y,
            w=w,
            u=u.copy(),
            u_next=u_next,
            qp_status=solution.status,
            active_set=solution.active_set,
        )
        return step, states

    live = np.flatnonzero(states.converged)
    y_live = measure(states if live.size == len(u) else states.take(live))
    y = y_live
    if live.size < len(u):
        values = np.full((len(u), len(y_live)), np.nan)
        values[live] = y_live.values
        y = MeasurementVector(values, y_live.n_bus, y_live.n_branch)
    gains = np.asarray(alpha, dtype=float)[live]
    problems = build_step_qp(u[live], y_live, smap, grid, gains, gradient(y)[live], template)
    guesses = [None] * live.size if warm is None else [warm[i] for i in live]
    w = np.zeros(u.shape)
    status, active = ["plant_failed"] * len(u), [()] * len(u)
    for i, solution in zip(live, solve_qp_stack(problems, guesses)):
        status[i], active[i] = solution.status, solution.active_set
        if solution.status == "optimal":
            w[i] = solution.w
    optimal = np.array([s == "optimal" for s in status], dtype=bool)
    u_next = np.where(optimal[:, None], (u + w).clip(*grid.control_bounds()), u)
    steps = StepRecord(
        y=y,
        w=w,
        u=u.copy(),
        u_next=u_next,
        qp_status=tuple(status),
        active_set=tuple(active),
    )
    return steps, states


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
    every step derives its QP from step_qp_template(grid, smap) and solves
    it cold.
    The run keeps only each step's values, one buffer per field, and returns
    them as the Trajectory's StepRecord and StateStack.
    """
    if not schedule:
        raise ControllerError("schedule must contain at least one set point")
    if u0 is None:
        u = grid.control_vector()
    else:
        u, _ = clip_control(grid, np.asarray(u0, dtype=float))

    record = _RunRecord()
    segments: list[SegmentRecord] = []
    k = 0
    aborted = False
    reason = None
    state = None
    template = step_qp_template(grid, smap)

    for setpoint in schedule:
        seg_start = k
        seg_converged = False
        for _ in range(config.max_iterations):
            try:
                step, state = closed_loop_step(
                    grid, u, smap, config.alpha, lambda y: grad_cost(y, setpoint), template,
                    k=k, noise=noise, initial=state,
                )
            except PowerFlowError as exc:
                aborted = True
                reason = str(exc)
                break
            record.append(step, state)
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
    steps, states = record.finish(grid, u.size)
    return Trajectory(
        steps=steps,
        states=states,
        segments=tuple(segments),
        converged=converged,
        aborted=aborted,
        abort_reason=reason,
    )


def export_trajectory_csv(traj: Trajectory, grid: GridModel, path: str | Path) -> None:
    """Per-iteration record: k, applied control, true PCC flow, cost, QP status."""
    steps, states = traj.steps, traj.states
    targets = [seg.setpoint for seg in traj.segments for _ in range(seg.start, seg.stop)]
    rows = zip(
        steps.u, states.p_pcc.tolist(), states.q_pcc.tolist(), targets,
        steps.qp_status, steps.active_set,
    )
    header = ["k", *control_labels(grid), "p_pcc", "q_pcc", "phi", "qp_status", "active_count"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k, (u, p, q, sp, status, active) in enumerate(rows):
            phi = (p - sp.p_set) ** 2 + (q - sp.q_set) ** 2
            writer.writerow(
                [k, *map(repr, u.tolist()), repr(p), repr(q), repr(phi), status, len(active)]
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
