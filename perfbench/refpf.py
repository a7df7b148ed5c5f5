"""Reference AC power flow, written from the grid JSON alone.

It shares no code with flexsafe: the grid document is converted to
per-unit here, the bus admittance matrix is stamped from the pi model of
each branch, and the nodal power balances at the PQ buses are handed to
``scipy.optimize.root``.  The benchmark uses it to make reachable set
points, to make an independent cloud of feasible PCC points, and to
re-check recorded operating points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import root


@dataclass(frozen=True)
class RefGrid:
    """Per-unit view of a grid document, in file order."""

    bus_ids: tuple[str, ...]
    slack: int
    v_min: np.ndarray
    v_max: np.ndarray
    f_bus: np.ndarray
    t_bus: np.ndarray
    s_max: np.ndarray  # per unit, inf where the file gives no limit
    ybus: np.ndarray
    y_from: np.ndarray  # (m, 2): from-end current = y_from @ (V_f, V_t)
    y_to: np.ndarray  # (m, 2): to-end current = y_to @ (V_f, V_t)
    pcc: int
    fixed_injection: np.ndarray  # complex, loads and uncontrolled units
    ctrl_bus: np.ndarray  # bus of each controllable unit
    u_lower: np.ndarray  # control box, [p_1..p_j, q_1..q_j]
    u_upper: np.ndarray

    @property
    def n_ctrl(self) -> int:
        return self.ctrl_bus.size


def load_ref_grid(source: str | Path | dict) -> RefGrid:
    """Read a grid file (or an already parsed document) into per unit."""
    doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    base = float(doc["s_base_mva"])
    bus_ids = tuple(b["id"] for b in doc["buses"])
    where = {bid: i for i, bid in enumerate(bus_ids)}
    n = len(bus_ids)

    ybus = np.zeros((n, n), dtype=complex)
    f_bus, t_bus, s_max, y_from, y_to = [], [], [], [], []
    for br in doc["branches"]:
        f, t = where[br["from"]], where[br["to"]]
        series = 1.0 / complex(br["r_pu"], br["x_pu"])
        half_shunt = 0.5j * br.get("b_pu", 0.0)
        tap = br.get("tap", 1.0)
        # Ideal transformer tap:1 at the from end, then the pi section.
        i_f = ((series + half_shunt) / tap**2, -series / tap)
        i_t = (-series / tap, series + half_shunt)
        ybus[f, f] += i_f[0]
        ybus[f, t] += i_f[1]
        ybus[t, f] += i_t[0]
        ybus[t, t] += i_t[1]
        f_bus.append(f)
        t_bus.append(t)
        y_from.append(i_f)
        y_to.append(i_t)
        limit = br.get("s_max_mva")
        s_max.append(math.inf if limit is None else limit / base)

    fixed = np.zeros(n, dtype=complex)
    for load in doc.get("loads", []):
        fixed[where[load["bus"]]] -= complex(load["p_mw"], load["q_mvar"]) / base
    ctrl_bus, p_box, q_box = [], [], []
    for unit in doc.get("flex_units", []):
        if unit.get("controllable", True):
            ctrl_bus.append(where[unit["bus"]])
            p_box.append((unit["p_min_mw"] / base, unit["p_max_mw"] / base))
            q_box.append((unit["q_min_mvar"] / base, unit["q_max_mvar"] / base))
        else:
            fixed[where[unit["bus"]]] += complex(unit.get("p_mw", 0.0), unit.get("q_mvar", 0.0)) / base
    box = np.array(p_box + q_box).reshape(-1, 2)

    branch_ids = [br["id"] for br in doc["branches"]]
    return RefGrid(
        bus_ids=bus_ids,
        slack=next(i for i, b in enumerate(doc["buses"]) if b["type"] == "slack"),
        v_min=np.array([b["v_min_pu"] for b in doc["buses"]], dtype=float),
        v_max=np.array([b["v_max_pu"] for b in doc["buses"]], dtype=float),
        f_bus=np.array(f_bus, dtype=int),
        t_bus=np.array(t_bus, dtype=int),
        s_max=np.array(s_max, dtype=float),
        ybus=ybus,
        y_from=np.array(y_from, dtype=complex).reshape(-1, 2),
        y_to=np.array(y_to, dtype=complex).reshape(-1, 2),
        pcc=branch_ids.index(doc["pcc_branch"]),
        fixed_injection=fixed,
        ctrl_bus=np.array(ctrl_bus, dtype=int),
        u_lower=box[:, 0],
        u_upper=box[:, 1],
    )


@dataclass(frozen=True)
class RefState:
    voltage: np.ndarray  # complex bus voltages
    s_from: np.ndarray  # complex power entering each branch at its from end
    s_to: np.ndarray

    @property
    def v(self) -> np.ndarray:
        return np.abs(self.voltage)

    @property
    def flows(self) -> np.ndarray:
        return np.maximum(np.abs(self.s_from), np.abs(self.s_to))


def injections(grid: RefGrid, u: np.ndarray) -> np.ndarray:
    """Net complex injection per bus for the control vector u."""
    u = np.asarray(u, dtype=float)
    j = grid.n_ctrl
    s = grid.fixed_injection.copy()
    np.add.at(s, grid.ctrl_bus, u[:j] + 1j * u[j:])
    return s


def solve(grid: RefGrid, u: np.ndarray, tol: float = 1e-12) -> RefState:
    """AC power flow at control u; raises RuntimeError if it does not solve."""
    spec = injections(grid, u)
    pq = np.array([i for i in range(len(grid.bus_ids)) if i != grid.slack])

    def voltages(x):
        vm = np.ones(len(grid.bus_ids))
        va = np.zeros(len(grid.bus_ids))
        va[pq] = x[: pq.size]
        vm[pq] = x[pq.size :]
        return vm * np.exp(1j * va)

    def balance(x):
        v = voltages(x)
        gap = (v * np.conj(grid.ybus @ v) - spec)[pq]
        return np.concatenate([gap.real, gap.imag])

    x0 = np.concatenate([np.zeros(pq.size), np.ones(pq.size)])
    sol = root(balance, x0, method="hybr", options={"xtol": 1e-13})
    worst = float(np.max(np.abs(balance(sol.x))))
    if worst > tol:
        raise RuntimeError(f"reference power flow did not solve (mismatch {worst:.2e})")
    v = voltages(sol.x)
    vf, vt = v[grid.f_bus], v[grid.t_bus]
    s_from = vf * np.conj(grid.y_from[:, 0] * vf + grid.y_from[:, 1] * vt)
    s_to = vt * np.conj(grid.y_to[:, 0] * vf + grid.y_to[:, 1] * vt)
    return RefState(voltage=v, s_from=s_from, s_to=s_to)


def pcc_flow(grid: RefGrid, state: RefState) -> tuple[float, float]:
    s = state.s_from[grid.pcc]
    return float(s.real), float(s.imag)


def within_limits(grid: RefGrid, state: RefState, v_margin: float = 0.0, s_share: float = 1.0) -> bool:
    """Voltage band shrunk by v_margin and flows below s_share of their limit."""
    v = state.v
    return bool(
        np.all(v >= grid.v_min + v_margin)
        and np.all(v <= grid.v_max - v_margin)
        and np.all(state.flows <= s_share * grid.s_max)
    )
