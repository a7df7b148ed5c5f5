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
from flexsafe.ofo_controller import closed_loop_step, plant_failure, step_qp_template
from flexsafe.sensitivity import SensitivityMap, compute_sensitivity


#: Controls the sampling oracle solves per stacked power flow: enough to
#: share the per-call cost, few enough to keep the stack's arrays small.
ORACLE_CHUNK = 256

#: The ray push's stages, (kappa, mu) = (outward pull, ray pin), run in turn.
SWEEP_STAGES = ((10.0, 50.0), (1.0, 5000.0))
#: Steps a stage may take before it ends.
STAGE_ITERATIONS = 400
#: A stage's gain: this over the stage cost's curvature through the PCC rows.
GAIN_SCALE = 0.1
#: A stage ends after PATIENCE updates in a row smaller than STALL_TOL.
STALL_TOL = 1e-7
PATIENCE = 8
#: A limit this close to its bound at a vertex is named as binding there.
BINDING_BAND = 1e-3


def sweep_settings(n_angles: int) -> dict:
    """What a swept polygon depends on besides its grid: n_angles and the constants above."""
    return {
        "n_angles": n_angles,
        "stages": SWEEP_STAGES,
        "stage_iterations": STAGE_ITERATIONS,
        "gain_scale": GAIN_SCALE,
        "stall_tol": STALL_TOL,
        "patience": PATIENCE,
        "binding_band": BINDING_BAND,
    }


class FORError(Exception):
    """Region sweep could not produce a usable polygon."""


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


def _binding_labels(grid: GridModel, u: np.ndarray, state: SystemState) -> tuple[str, ...]:
    """Limits within BINDING_BAND of their bound at the given operating point."""
    labels: list[str] = []
    lower, upper = grid.control_bounds()
    for name, ui, lo, hi in zip(control_labels(grid), u, lower, upper):
        if ui - lo <= BINDING_BAND:
            labels.append(f"{name}:min")
        if hi - ui <= BINDING_BAND:
            labels.append(f"{name}:max")
    for bus, v in zip(grid.buses, state.v):
        if v - bus.v_min <= BINDING_BAND:
            labels.append(f"v:{bus.id}:min")
        if bus.v_max - v <= BINDING_BAND:
            labels.append(f"v:{bus.id}:max")
    for branch, s in zip(grid.branches, state.s_flows):
        if math.isfinite(branch.s_max) and branch.s_max - s <= BINDING_BAND:
            labels.append(f"s:{branch.id}:max")
    return tuple(labels)


@dataclass(frozen=True, eq=False)
class _RayCosts:
    """The stage costs of a stack of rays, as one gradient callable for the step kernel.

    Member j minimizes -kappa_j (c_j . x) + mu_j (n_j . x)^2 over the PCC
    flow x = (p_pcc, q_pcc), with c_j its ray direction and n_j its normal.
    """

    c: np.ndarray
    normal: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray

    def __call__(self, y: MeasurementVector) -> np.ndarray:
        """The (K, n_y) gradients at a (K, n_y) stack of measurements."""
        pcc = y.values[:, -2:]
        # One 2-vector dot per member (np.matmul), the call n . x of one ray makes.
        perp = np.matmul(self.normal[:, None, :], pcc[..., None])[:, 0, 0]
        grad = np.zeros(y.values.shape)
        grad[:, -2:] = -self.kappa[:, None] * self.c + (2.0 * self.mu * perp)[:, None] * self.normal
        return grad


def _push_rays(
    grid: GridModel, smap: SensitivityMap, thetas
) -> list[tuple[np.ndarray, SystemState] | Exception]:
    """Drive the PCC flow outward along each ray until pinned, all rays in lockstep.

    Each ray minimizes its stage costs (_RayCosts) in turn with the
    controller's own constrained step; a stage's gain is scaled to the
    cost curvature seen through the PCC rows of the sensitivity map, and
    every ray and stage derives its step QPs from one step_qp_template.  The
    live rays' state is held as arrays: control, stage, steps and stalled
    steps in the stage, and the last solved step QP's active set, which
    warm-starts the next.  Every live ray takes one step per call of the
    step kernel, as one stack.  A stage ends on a QP that is not optimal,
    after PATIENCE updates in a row below STALL_TOL, or after
    STAGE_ITERATIONS steps; a ray leaves the stack when its last stage
    ends or its plant fails.  The pinned points are then solved from a
    flat start, as verify_vertices re-solves them.  Returns per ray its
    (control, pinned state), or the error that dropped it.  Each ray's
    result is bit for bit that of the ray pushed alone.
    """
    results: list = [None] * len(thetas)
    kappa, mu = (np.array(x) for x in zip(*SWEEP_STAGES))
    m_pcc = smap.matrix[-2:]
    rays, directions, alphas = [], [], []
    for i, theta in enumerate(thetas):
        c = np.array([math.cos(theta), math.sin(theta)])
        n_vec = np.array([-math.sin(theta), math.cos(theta)])
        sigma_n2 = float(np.sum((n_vec @ m_pcc) ** 2))
        sigma_c2 = float(np.sum((c @ m_pcc) ** 2))
        if sigma_n2 + sigma_c2 < 1e-18:
            results[i] = FORError("controls have no effect on the PCC flow; the region is a point")
            continue
        rays.append(i)
        directions.append((c, n_vec))
        alphas.append(GAIN_SCALE / (mu * sigma_n2 + kappa * sigma_c2))
    directions = np.array(directions).reshape(-1, 2, 2)
    c, normal = directions[:, 0], directions[:, 1]
    alpha = np.array(alphas)
    template = step_qp_template(grid, smap)

    # Per live ray: its index in ``rays``, control, stage, steps and stalled
    # steps in the stage, and warm-start guess.
    live = np.arange(len(rays))
    u = np.tile(smap.u0, (len(rays), 1))
    stage, iterations, stall = (np.zeros(len(rays), dtype=int) for _ in range(3))
    guesses: list = [None] * len(rays)
    pinned: list[int] = []
    pinned_u: list[np.ndarray] = []
    states = None
    k = 0
    while live.size:
        steps, states = closed_loop_step(
            grid,
            u,
            smap,
            alpha[live, stage],
            _RayCosts(c[live], normal[live], kappa[stage], mu[stage]),
            template,
            k=k,
            initial=states,
            warm=guesses,
        )
        failed = ~states.converged
        optimal = np.array([status == "optimal" for status in steps.qp_status])
        delta = np.max(np.abs(steps.u_next - u), axis=1)
        u = steps.u_next
        guesses = [new if ok else old for new, ok, old in zip(steps.active_set, optimal, guesses)]
        iterations += 1
        # A QP that is not optimal ends the stage, which resets the stall count.
        stall = np.where(delta < STALL_TOL, stall + 1, 0)
        ended = ~optimal | (stall >= PATIENCE) | (iterations >= STAGE_ITERATIONS)
        stage[ended] += 1
        iterations[ended] = stall[ended] = 0
        for j in np.flatnonzero(failed):
            results[rays[live[j]]] = plant_failure(states.failures[j], states.mismatch[j], k)
        k += 1
        done = ~failed & (stage == len(SWEEP_STAGES))
        pinned.extend(rays[r] for r in live[done])
        pinned_u.extend(u[done])
        going = np.flatnonzero(~failed & ~done)
        if going.size < live.size:
            per_ray = (live, u, stage, iterations, stall)
            live, u, stage, iterations, stall = (x[going] for x in per_ray)
            guesses = [guesses[j] for j in going]
            states = states.take(going)
    if pinned:
        solved = solve_power_flow(grid, control=np.array(pinned_u))
        for j, i in enumerate(pinned):
            if solved.failures[j] is not None:
                results[i] = SingularJacobianError(solved.failures[j])
            elif not solved.converged[j]:
                results[i] = PowerFlowError("power flow diverged at the pinned point")
            else:
                results[i] = (pinned_u[j], solved[j])
    return results


def sweep_for(
    grid: GridModel, smap: SensitivityMap | None = None, n_angles: int = 72
) -> FORPolygon:
    """Chart the feasible PCC region by pushing along n_angles rays from the origin.

    The rays are pushed in lockstep (see _push_rays); each vertex is what
    its ray gives when pushed alone.
    """
    if n_angles < 3:
        raise ValueError(f"need at least 3 sweep angles, got {n_angles}")
    if smap is None:
        smap = compute_sensitivity(grid)

    vertices: list[tuple[float, float]] = []
    angles: list[float] = []
    binding: list[tuple[str, ...]] = []
    controls: list[np.ndarray] = []
    failures: list[tuple[float, str]] = []

    thetas = [2.0 * math.pi * i / n_angles for i in range(n_angles)]
    for theta, result in zip(thetas, _push_rays(grid, smap, thetas)):
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
            f"only {len(vertices)} of {n_angles} sweep angles succeeded; "
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

    The controls are solved from a flat start as one stack, as the sweep
    solves its pinned points.  A healthy sweep shows violations at
    numerical zero and drift below the re-simulation tolerance; either
    growing means the polygon no longer describes this grid.
    """
    if not polygon.controls:
        raise FORError("polygon carries no vertex controls to verify")
    states = solve_power_flow(grid, control=np.array(polygon.controls))
    if not states.converged.all():
        raise PowerFlowError(f"vertex {np.argmin(states.converged)} control no longer solves")
    drift = np.hypot(states.p_pcc - polygon.vertices[:, 0], states.q_pcc - polygon.vertices[:, 1])
    return limit_violation(grid, states), drift


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
    """Rebuild a polygon from its CSV export (geometry and binding tags only).

    Raises FORError, naming the path and, where it has one, the line, for
    a file that is not a well-formed export: undecodable bytes, a row
    without its four fields, a field that is not a finite number, or too
    few vertices for a polygon.
    """
    angles: list[float] = []
    vertices: list[tuple[float, float]] = []
    binding: list[tuple[str, ...]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:3] != ["theta_deg", "p_pcc", "q_pcc"]:
                raise FORError(f"{path} is not a region export")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if len(row) != 4:
                    raise FORError(f"{where}: expected 4 fields, got {len(row)}")
                try:
                    theta, p, q = (float(x) for x in row[:3])
                except ValueError:
                    raise FORError(f"{where}: a field is not a number") from None
                if not all(map(math.isfinite, (theta, p, q))):
                    raise FORError(f"{where}: a field is not finite")
                angles.append(math.radians(theta))
                vertices.append((p, q))
                binding.append(tuple(t for t in row[3].split(";") if t))
    except UnicodeDecodeError as exc:
        raise FORError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:
        raise FORError(f"{path}: {exc}") from None
    try:
        return FORPolygon(
            vertices=np.array(vertices).reshape(-1, 2),
            angles=np.array(angles),
            binding=tuple(binding),
        )
    except FORError as exc:
        raise FORError(f"{path}: {exc}") from None
