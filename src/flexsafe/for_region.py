"""Feasible operating region of the PCC flow under network constraints.

The region is charted by sweeping rays from the PQ origin: for each angle
the same projected-gradient machinery the dispatch controller uses pushes
the operating point outward along the ray (model in the loop, noise-free)
until network constraints pin it.  The resulting vertices, ordered by
angle, form a star-shaped polygon.

A sampling oracle provides the independent route: random controls drawn in
the box, simulated exactly, and filtered by the true limits.  Their PCC
images must land inside the swept polygon.

Both run as stacks: all rays step together through one stacked step
kernel, and the oracle's draws are solved a chunk at a time as one stacked
power flow.  A member's result does not depend on its companions, so each
vertex and each oracle point is bit for bit what its own solve gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flexsafe.grid_model import GridModel, control_labels
from flexsafe.power_flow import (
    MeasurementVector,
    PowerFlowError,
    SingularJacobianError,
    SystemState,
    limit_violation,
    solve_power_flow,
)
from flexsafe.ofo_controller import OFOStep, closed_loop_step, step_qp_template
from flexsafe.sensitivity import SensitivityMap, compute_sensitivity


#: Controls the sampling oracle solves per stacked power flow: enough to
#: share the per-call cost, few enough to keep the stack's arrays small.
ORACLE_CHUNK = 256


class FORError(Exception):
    """Region sweep could not produce a usable polygon."""


@dataclass(frozen=True)
class SweepConfig:
    """Ray-sweep settings; stages are (kappa, mu) = (outward pull, ray pin)."""

    n_angles: int = 72
    stages: tuple[tuple[float, float], ...] = ((10.0, 50.0), (1.0, 5000.0))
    stage_iterations: int = 400
    gain_scale: float = 0.1
    stall_tol: float = 1e-7
    patience: int = 8

    def __post_init__(self):
        if self.n_angles < 3:
            raise ValueError(f"need at least 3 sweep angles, got {self.n_angles}")
        if not self.stages:
            raise ValueError("at least one (kappa, mu) stage is required")
        if self.stage_iterations < 1 or self.patience < 1:
            raise ValueError("stage_iterations and patience must be positive")
        if self.gain_scale <= 0 or self.stall_tol <= 0:
            raise ValueError("gain_scale and stall_tol must be positive")


@dataclass(frozen=True, eq=False)
class FORPolygon:
    """Star-shaped region boundary: one vertex per surviving sweep angle.

    ``controls`` stores the control vector that realized each vertex so the
    boundary can be re-simulated; ``binding`` names the limits within the
    binding band at each vertex; ``failures`` records dropped angles.
    """

    vertices: np.ndarray
    angles: np.ndarray
    binding: tuple[tuple[str, ...], ...] = ()
    controls: tuple[np.ndarray, ...] = ()
    failures: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        angles = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "angles", angles)
        if verts.shape[0] < 3:
            raise FORError(f"a polygon needs at least 3 vertices, got {verts.shape[0]}")
        if angles.shape != (verts.shape[0],):
            raise FORError("one sweep angle per vertex is required")
        if not np.all(np.isfinite(verts)) or not np.all(np.isfinite(angles)):
            raise FORError("polygon data must be finite")
        if np.any(np.diff(angles) <= 0):
            raise FORError("vertices must be ordered by strictly increasing angle")
        for name in ("binding", "controls"):
            val = getattr(self, name)
            if val and len(val) != verts.shape[0]:
                raise FORError(f"{name} must align with vertices when provided")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a closed polygon given as an (n, 2) vertex loop."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def contains_many(polygon: FORPolygon, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Vectorized point-in-polygon, boundary inclusive within tol.

    Interior membership uses the crossing-number parity; points within tol
    of any edge count as inside regardless of parity, which makes the test
    robust exactly where parity is ill-conditioned.  Non-finite points are
    never contained.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = polygon.vertices
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]

    straddles = (y1 > py) != (y2 > py)
    denom = np.where(y2 - y1 == 0.0, 1.0, y2 - y1)
    x_cross = x1 + (py - y1) * (x2 - x1) / denom
    inside = np.sum(straddles & (px < x_cross), axis=1) % 2 == 1

    ex, ey = x2 - x1, y2 - y1
    seg_len2 = np.where(ex**2 + ey**2 == 0.0, 1.0, ex**2 + ey**2)
    t = np.clip(((px - x1) * ex + (py - y1) * ey) / seg_len2, 0.0, 1.0)
    dist2 = (px - (x1 + t * ex)) ** 2 + (py - (y1 + t * ey)) ** 2
    near = np.min(dist2, axis=1) <= tol * tol

    finite = np.all(np.isfinite(pts), axis=1)
    return (inside | near) & finite


def _binding_labels(
    grid: GridModel, u: np.ndarray, state: SystemState, band: float = 1e-3
) -> tuple[str, ...]:
    """Limits within ``band`` of their bound at the given operating point."""
    labels: list[str] = []
    lower, upper = grid.control_bounds()
    for name, ui, lo, hi in zip(control_labels(grid), u, lower, upper):
        if ui - lo <= band:
            labels.append(f"{name}:min")
        if hi - ui <= band:
            labels.append(f"{name}:max")
    for bus, v in zip(grid.buses, state.v):
        if v - bus.v_min <= band:
            labels.append(f"v:{bus.id}:min")
        if bus.v_max - v <= band:
            labels.append(f"v:{bus.id}:max")
    for branch, s in zip(grid.branches, state.s_flows):
        if math.isfinite(branch.s_max) and branch.s_max - s <= band:
            labels.append(f"s:{branch.id}:max")
    return tuple(labels)


class _Ray:
    """One sweep ray's push: its stages' gains, templates and costs, and its progress.

    The per-iteration cost -kappa (c . x) + mu (n . x)^2 (c the ray
    direction, n its normal) is minimized with the controller's own
    constrained step; the gain is scaled to the cost curvature seen through
    the PCC rows of the sensitivity map.  Each stage derives its step QPs
    from one step_qp_template; every step QP is warm-started from the
    active set of the ray's last solved one.
    """

    def __init__(self, grid: GridModel, smap: SensitivityMap, theta: float, config: SweepConfig):
        c = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([-math.sin(theta), math.cos(theta)])
        m_pcc = smap.matrix[-2:]
        sigma_n2 = float(np.sum((n_vec @ m_pcc) ** 2))
        sigma_c2 = float(np.sum((c @ m_pcc) ** 2))
        if sigma_n2 + sigma_c2 < 1e-18:
            raise FORError("controls have no effect on the PCC flow; the region is a point")
        self.config = config
        self.stages = []
        for kappa, mu in config.stages:
            alpha = config.gain_scale / (mu * sigma_n2 + kappa * sigma_c2)

            def gradient(y: MeasurementVector, kappa=kappa, mu=mu) -> np.ndarray:
                perp = float(n_vec @ [y.p_pcc, y.q_pcc])
                grad_phi = np.zeros(len(y))
                grad_phi[-2] = -kappa * c[0] + 2.0 * mu * perp * n_vec[0]
                grad_phi[-1] = -kappa * c[1] + 2.0 * mu * perp * n_vec[1]
                return grad_phi

            self.stages.append((alpha, gradient, step_qp_template(grid, smap, alpha)))
        self.u = smap.u0.copy()
        self.active_set = None
        self.stage = 0
        self.iterations = 0
        self.stall = 0

    def advance(self, step: OFOStep) -> bool:
        """Take one step's outcome; False once the last stage has ended.

        A stage ends on a QP that is not optimal, after ``patience``
        updates in a row below ``stall_tol``, or after
        ``stage_iterations`` steps.
        """
        config = self.config
        self.iterations += 1
        ended = step.qp_status != "optimal"
        if not ended:
            delta = float(np.max(np.abs(step.u_next - self.u)))
            self.u = step.u_next
            self.active_set = step.active_set
            self.stall = self.stall + 1 if delta < config.stall_tol else 0
            ended = self.stall >= config.patience
        if ended or self.iterations >= config.stage_iterations:
            self.stage += 1
            self.iterations = self.stall = 0
        return self.stage < len(self.stages)


def _push_rays(
    grid: GridModel, smap: SensitivityMap, thetas, config: SweepConfig
) -> list[tuple[np.ndarray, SystemState] | Exception]:
    """Drive the PCC flow outward along each ray until pinned, all rays in lockstep.

    Every live ray takes one step per call of the step kernel, as one
    stack: each with its own stage, gain, template and cost, its power
    flow and step QP warm-started from its own previous step.  A ray
    leaves the stack when its last stage ends or its plant fails.  The pinned points are then
    solved from a flat start, as verify_vertices re-solves them.  Returns
    per ray its (control, pinned state), or the error that dropped it.
    Each ray's result is bit for bit that of the ray pushed alone.
    """
    results: list = [None] * len(thetas)
    rays: dict[int, _Ray] = {}
    for i, theta in enumerate(thetas):
        try:
            rays[i] = _Ray(grid, smap, theta, config)
        except FORError as exc:
            results[i] = exc
    live = list(rays)
    pinned: list[int] = []
    states = None
    k = 0
    while live:
        stages = [rays[i].stages[rays[i].stage] for i in live]
        steps, states = closed_loop_step(
            grid,
            np.array([rays[i].u for i in live]),
            smap,
            [alpha for alpha, _, _ in stages],
            [gradient for _, gradient, _ in stages],
            [template for _, _, template in stages],
            k=k,
            initial=states,
            warm=[rays[i].active_set for i in live],
        )
        k += 1
        going = []
        for j, (i, step) in enumerate(zip(live, steps)):
            if isinstance(step, PowerFlowError):
                results[i] = step
            elif rays[i].advance(step):
                going.append(j)
            else:
                pinned.append(i)
        live = [live[j] for j in going]
        states = states.take(going)
    if pinned:
        solved = solve_power_flow(grid, control=np.array([rays[i].u for i in pinned]))
        for j, i in enumerate(pinned):
            if solved.failures[j] is not None:
                results[i] = SingularJacobianError(solved.failures[j])
            elif not solved.converged[j]:
                results[i] = PowerFlowError("power flow diverged at the pinned point")
            else:
                results[i] = (rays[i].u, solved[j])
    return results


def sweep_for(
    grid: GridModel,
    smap: SensitivityMap | None = None,
    config: SweepConfig | None = None,
) -> FORPolygon:
    """Chart the feasible PCC region by pushing along rays from the origin.

    The rays are pushed in lockstep (see _push_rays); each vertex is what
    its ray gives when pushed alone.
    """
    if config is None:
        config = SweepConfig()
    if smap is None:
        smap = compute_sensitivity(grid)

    vertices: list[tuple[float, float]] = []
    angles: list[float] = []
    binding: list[tuple[str, ...]] = []
    controls: list[np.ndarray] = []
    failures: list[tuple[float, str]] = []

    thetas = [2.0 * math.pi * i / config.n_angles for i in range(config.n_angles)]
    for theta, result in zip(thetas, _push_rays(grid, smap, thetas, config)):
        if isinstance(result, Exception):
            failures.append((theta, str(result)))
            continue
        u, state = result
        vertices.append((state.p_pcc, state.q_pcc))
        angles.append(theta)
        binding.append(_binding_labels(grid, u, state))
        controls.append(u)

    if len(vertices) < 3:
        raise FORError(
            f"only {len(vertices)} of {config.n_angles} sweep angles succeeded; "
            f"first failure: {failures[0][1] if failures else 'none recorded'}"
        )
    return FORPolygon(
        vertices=np.array(vertices),
        angles=np.array(angles),
        binding=tuple(binding),
        controls=tuple(controls),
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class FORSample:
    """Exactly simulated feasible operating points (the oracle route)."""

    points: np.ndarray
    n_requested: int
    n_infeasible: int
    n_diverged: int

    @property
    def n_feasible(self) -> int:
        return self.points.shape[0]


def sample_oracle_for(grid: GridModel, n_samples: int, seed) -> FORSample:
    """Draw controls uniformly in the box, keep the ones the true limits admit.

    No linearization is involved: every candidate is a full power-flow
    solve, and feasibility is judged by the exact limit check (a violation
    of at most 1e-9).  The candidates are drawn as one stream and solved
    ORACLE_CHUNK at a time as one stack; each gives what its own solve
    would.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    lower, upper = grid.control_bounds()
    points: list[np.ndarray] = []
    n_infeasible = 0
    n_diverged = 0
    for start in range(0, n_samples, ORACLE_CHUNK):
        u = rng.uniform(lower, upper, size=(min(ORACLE_CHUNK, n_samples - start), lower.size))
        states = solve_power_flow(grid, control=u)
        solved = states.take(np.flatnonzero(states.converged))
        feasible = limit_violation(grid, solved) <= 1e-9
        n_diverged += len(states) - len(solved)
        n_infeasible += int(np.count_nonzero(~feasible))
        points.append(np.column_stack([solved.p_pcc[feasible], solved.q_pcc[feasible]]))
    return FORSample(
        points=np.concatenate(points).reshape(-1, 2),
        n_requested=n_samples,
        n_infeasible=n_infeasible,
        n_diverged=n_diverged,
    )


def verify_vertices(grid: GridModel, polygon: FORPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Re-simulate stored vertex controls; return (limit violations, PQ drift).

    A healthy sweep shows violations at numerical zero and drift below the
    re-simulation tolerance; either growing means the polygon no longer
    describes this grid.
    """
    if not polygon.controls:
        raise FORError("polygon carries no vertex controls to verify")
    violations = np.empty(polygon.n_vertices)
    drift = np.empty(polygon.n_vertices)
    for i, u in enumerate(polygon.controls):
        state = solve_power_flow(grid, control=u)
        if not state.converged:
            raise PowerFlowError(f"vertex {i} control no longer solves")
        violations[i] = limit_violation(grid, state)
        drift[i] = math.hypot(
            state.p_pcc - polygon.vertices[i, 0], state.q_pcc - polygon.vertices[i, 1]
        )
    return violations, drift


def export_for_csv(polygon: FORPolygon, path: str | Path) -> None:
    """One vertex per row: sweep angle in degrees, PQ point, binding limits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta_deg", "p_pcc", "q_pcc", "binding_constraints"])
        binding = polygon.binding or tuple(() for _ in range(polygon.n_vertices))
        for theta, (p, q), tags in zip(polygon.angles, polygon.vertices, binding):
            writer.writerow(
                [
                    repr(float(math.degrees(theta))),
                    repr(float(p)),
                    repr(float(q)),
                    ";".join(tags),
                ]
            )


def read_for_csv(path: str | Path) -> FORPolygon:
    """Rebuild a polygon from its CSV export (geometry and binding tags only)."""
    angles: list[float] = []
    vertices: list[tuple[float, float]] = []
    binding: list[tuple[str, ...]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["theta_deg", "p_pcc", "q_pcc"]:
            raise FORError(f"{path} is not a region export")
        for row in reader:
            angles.append(math.radians(float(row[0])))
            vertices.append((float(row[1]), float(row[2])))
            binding.append(tuple(t for t in row[3].split(";") if t))
    return FORPolygon(
        vertices=np.array(vertices).reshape(-1, 2),
        angles=np.array(angles),
        binding=tuple(binding),
    )
