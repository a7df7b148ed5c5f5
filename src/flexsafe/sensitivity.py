"""Steady-state input-output sensitivity map and its verification oracle.

The controller consumes a constant linearization of the measurement stack
around an initial operating point.  Column j is the derivative of every
measurement with respect to control entry j, obtained by the implicit
function theorem on the power-flow equations: the network unknowns respond
with dx/du = J^-1 E (J the power-flow Jacobian, E the injection selector),
and the measurement rows chain through analytic flow derivatives.

A central finite-difference oracle built purely on the nonlinear
steady-state map provides an independent cross-check; the two routes share
no derivative code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from flexsafe.grid_model import GridModel, clip_control, control_labels
from flexsafe.power_flow import (
    PowerFlowError,
    SingularJacobianError,
    branch_flows,
    measurement_labels,
    mismatch_jacobian,
    solve_power_flow,
    steady_state_map,
)

#: Flow magnitudes below this are treated as zero; |S| is not differentiable
#: at the origin, so both computation routes return a zero row there.
FLOW_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class SensitivityMap:
    """Dense map dy/du with the measurement-row / control-column layout.

    ``u0`` records the linearization point.
    """

    matrix: np.ndarray
    u0: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("sensitivity matrix has non-finite entries")
        if self.matrix.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match labels "
                f"({len(self.row_labels)} x {len(self.col_labels)})"
            )


def _flow_derivatives(v1: complex, v2: complex, a: complex, b: complex):
    """Derivatives of S = V1 conj(a V1 + b V2) wrt (theta1, theta2, v1, v2)."""
    i1 = a * v1 + b * v2
    s = v1 * np.conj(i1)
    e1 = v1 / abs(v1)
    e2 = v2 / abs(v2)
    ds_dth1 = 1j * (s - np.conj(a) * abs(v1) ** 2)
    ds_dth2 = -1j * v1 * np.conj(b) * np.conj(v2)
    ds_dv1 = e1 * np.conj(i1) + np.conj(a) * abs(v1)
    ds_dv2 = v1 * np.conj(b) * np.conj(e2)
    return s, ds_dth1, ds_dth2, ds_dv1, ds_dv2


def _measurement_jacobian(grid: GridModel, voltage: np.ndarray, pq: list[int]) -> np.ndarray:
    """dy/dx for x = [theta_pq, v_pq]; slack quantities are constants."""
    n, m = grid.n_bus, grid.n_branch
    npq = len(pq)
    pos = {bus: i for i, bus in enumerate(pq)}
    rows = np.zeros((n + m + 2, 2 * npq))

    for bus in pq:
        rows[bus, npq + pos[bus]] = 1.0

    f_idx, t_idx = grid.branch_ends
    yff, yft, ytf, ytt = grid.branch_admittance
    sf, st = branch_flows(grid, voltage)

    def scatter(row: int, bus1: int, bus2: int, d_th1, d_th2, d_v1, d_v2):
        if bus1 in pos:
            rows[row, pos[bus1]] += d_th1
            rows[row, npq + pos[bus1]] += d_v1
        if bus2 in pos:
            rows[row, pos[bus2]] += d_th2
            rows[row, npq + pos[bus2]] += d_v2

    for bi in range(m):
        f, t = f_idx[bi], t_idx[bi]
        # differentiate the flow at the more-loaded end, the one s_i reports
        if abs(sf[bi]) >= abs(st[bi]):
            own, other, a, b = f, t, yff[bi], yft[bi]
        else:
            own, other, a, b = t, f, ytt[bi], ytf[bi]
        s, dth1, dth2, dv1, dv2 = _flow_derivatives(voltage[own], voltage[other], a, b)
        mag = abs(s)
        if mag < FLOW_EPS:
            continue
        scatter(
            n + bi,
            own,
            other,
            (s.real * dth1.real + s.imag * dth1.imag) / mag,
            (s.real * dth2.real + s.imag * dth2.imag) / mag,
            (s.real * dv1.real + s.imag * dv1.imag) / mag,
            (s.real * dv2.real + s.imag * dv2.imag) / mag,
        )

    pi = grid.pcc_index
    f, t = f_idx[pi], t_idx[pi]
    _, dth1, dth2, dv1, dv2 = _flow_derivatives(voltage[f], voltage[t], yff[pi], yft[pi])
    scatter(n + m, f, t, dth1.real, dth2.real, dv1.real, dv2.real)
    scatter(n + m + 1, f, t, dth1.imag, dth2.imag, dv1.imag, dv2.imag)
    return rows


def compute_sensitivity(grid: GridModel, u0: np.ndarray | None = None) -> SensitivityMap:
    """Linearize the steady-state map at u0 via the power-flow Jacobian.

    The map is computed once at the initial operating point and held
    constant by the controller; no re-linearization happens during a run.
    A u0 outside the unit boxes is clipped to them, and the map records the
    clipped control it linearized at.
    """
    if u0 is None:
        u0 = grid.control_vector()
    u0, _ = clip_control(grid, u0)
    state = solve_power_flow(grid, tol=1e-10, max_iter=40, control=u0)
    if not state.converged:
        raise PowerFlowError(
            f"power flow did not converge at the linearization point "
            f"(mismatch {state.mismatch:.3e})"
        )
    voltage = state.v * np.exp(1j * state.theta)
    pq = list(grid.pq_indices)
    npq = len(pq)
    pos = {bus: i for i, bus in enumerate(pq)}

    jac = mismatch_jacobian(grid.ybus_pq, voltage[None, pq], (grid.ybus @ voltage)[None, pq])[0]
    selector = np.zeros((2 * npq, 2 * grid.n_ctrl))
    j = grid.n_ctrl
    for col, bus in enumerate(grid.ctrl_buses):
        if bus not in pos:  # unit at the slack bus never moves the network state
            continue
        selector[pos[bus], col] = 1.0
        selector[npq + pos[bus], j + col] = 1.0
    try:
        dx_du = np.linalg.solve(jac, selector)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(
            f"singular Jacobian at the linearization point (cond ~ {np.linalg.cond(jac):.3e})"
        ) from exc

    matrix = _measurement_jacobian(grid, voltage, pq) @ dx_du
    return SensitivityMap(
        matrix=matrix,
        u0=u0,
        row_labels=measurement_labels(grid),
        col_labels=control_labels(grid),
    )


def finite_difference_oracle(
    grid: GridModel, u0: np.ndarray | None = None, step: float = 1e-5
) -> SensitivityMap:
    """Central finite differences of the nonlinear map, column by column.

    Inner solves run at 1e-12 tolerance: a looser fixed point leaves
    O(tol/step) relative noise in the differences, which would drown the
    1e-4 agreement this oracle certifies.
    """
    if u0 is None:
        u0 = grid.control_vector()
    u0 = np.asarray(u0, dtype=float)
    lower, upper = grid.control_bounds()
    if np.any(u0 - step < lower) or np.any(u0 + step > upper):
        raise ValueError("finite-difference stencil crosses a control bound; move u0 inward")

    columns = []
    for col in range(u0.size):
        up = u0.copy()
        um = u0.copy()
        up[col] += step
        um[col] -= step
        yp = steady_state_map(grid, up, tol=1e-12, max_iter=60).values
        ym = steady_state_map(grid, um, tol=1e-12, max_iter=60).values
        columns.append((yp - ym) / (2.0 * step))
    return SensitivityMap(
        matrix=np.column_stack(columns),
        u0=u0.copy(),
        row_labels=measurement_labels(grid),
        col_labels=control_labels(grid),
    )


def perturb_sensitivity(
    smap: SensitivityMap, bounds: tuple[float, float], seed
) -> SensitivityMap:
    """Multiply every entry by (1 + w), w ~ U[c, d] i.i.d.; deterministic per seed.

    Multiplicative mismatch keeps zero entries zero, preserving the network
    sparsity structure of the map.
    """
    c, d = bounds
    if c > d:
        raise ValueError(f"mismatch bounds must satisfy c <= d, got [{c}, {d}]")
    rng = np.random.default_rng(seed)
    factor = 1.0 + rng.uniform(c, d, size=smap.matrix.shape)
    return replace(smap, matrix=smap.matrix * factor)


def export_sensitivity_csv(smap: SensitivityMap, path: str | Path) -> None:
    """Write the map with row/column header labels."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["measurement", *smap.col_labels])
        for label, row in zip(smap.row_labels, smap.matrix):
            writer.writerow([label, *[repr(float(x)) for x in row]])
