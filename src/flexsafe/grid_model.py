"""Static grid data model: buses, branches, flexible units, fixed loads.

Grid files carry physical units (MW / MVAr / kV); everything in memory is
per-unit on ``s_base``.  The model is immutable after load, so a single
model can be shared freely across concurrent trials.

The static network (index maps, limit vectors, branch admittances, Ybus)
is computed once per loaded grid.  A closed-loop step never builds a new
grid: the control vector and, under load noise, an (n_loads, 2) array of
load changes reach the power flow as data (``bus_injections(control,
load_delta)``), so a step pays only for its injections.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

LOAD_CLASSES = ("household", "industry", "commercial")

SLACK = "slack"
PQ = "pq"

#: Excess beyond a unit bound that is clipped silently; anything larger is
#: still clipped but reported as a ClipEvent.
CLIP_TOL = 1e-9


class GridError(Exception):
    """Base class for grid model errors."""


class GridLoadError(GridError):
    """Grid file missing, malformed, or failing the documented schema."""


class GridValidationError(GridError):
    """A structural invariant of the grid model is violated."""

    def __init__(self, findings: list[str]):
        super().__init__(findings[0] if findings else "invalid grid")
        self.findings = list(findings)


@dataclass(frozen=True)
class Bus:
    id: str
    bus_type: str  # "slack" | "pq"
    v_kv: float
    v_min: float  # p.u.
    v_max: float  # p.u.


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    r: float  # series resistance, p.u.
    x: float  # series reactance, p.u.
    b: float = 0.0  # total shunt susceptance, p.u.
    tap: float = 1.0  # off-nominal ratio at the from end
    s_max: float = math.inf  # apparent-flow limit, p.u.; inf = unlimited


@dataclass(frozen=True)
class FlexUnit:
    id: str
    bus: str
    p_min: float  # p.u.
    p_max: float
    q_min: float
    q_max: float
    controllable: bool = True
    p: float = 0.0  # current set point, p.u. (injection positive)
    q: float = 0.0


@dataclass(frozen=True)
class FixedLoad:
    id: str
    bus: str
    p: float  # p.u., consumption positive
    q: float
    load_class: str


@dataclass(frozen=True)
class ClipEvent:
    unit: str
    field: str  # "p" | "q"
    requested: float
    bound: float


@dataclass(frozen=True)
class GridModel:
    """Validated network snapshot, per-unit on ``s_base``.

    Voltage and flow limits plus the FlexUnit boxes are the inequality
    constraints enforced by the controller; the nodal power balances the
    power-flow solver drives to zero are the matching equalities.  A run
    holds one model and varies only what it passes to bus_injections.
    """

    s_base: float  # MVA
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    flex_units: tuple[FlexUnit, ...]
    fixed_loads: tuple[FixedLoad, ...]
    pcc: str  # branch id of the coupling branch to the superimposed grid

    # ---- index helpers -------------------------------------------------

    @cached_property
    def bus_index(self) -> dict[str, int]:
        return {bus.id: i for i, bus in enumerate(self.buses)}

    @cached_property
    def branch_index(self) -> dict[str, int]:
        return {br.id: i for i, br in enumerate(self.branches)}

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @cached_property
    def slack_index(self) -> int:
        idx = [i for i, bus in enumerate(self.buses) if bus.bus_type == SLACK]
        if len(idx) != 1:
            raise GridValidationError([f"expected exactly one slack bus, found {len(idx)}"])
        return idx[0]

    @cached_property
    def pq_indices(self) -> np.ndarray:
        """Indices of the non-slack buses, ascending (read-only)."""
        return _read_only(np.delete(np.arange(self.n_bus), self.slack_index))

    @cached_property
    def pq_select(self) -> slice | np.ndarray:
        """pq_indices as a slice when they are one run of buses, else as they are.

        Indexing with a slice gives a view, so the Newton loop reads and
        updates the PQ buses without fancy-index copies.
        """
        pq = self.pq_indices
        if pq.size and pq[-1] - pq[0] == pq.size - 1:
            return slice(int(pq[0]), int(pq[-1]) + 1)
        return pq

    @cached_property
    def pcc_index(self) -> int:
        return self.branch_index[self.pcc]

    @cached_property
    def ctrl_indices(self) -> tuple[int, ...]:
        """Indices into flex_units of the controllable units, in declaration order."""
        return tuple(i for i, fu in enumerate(self.flex_units) if fu.controllable)

    @cached_property
    def ctrl_buses(self) -> np.ndarray:
        """Bus index of each controllable unit, in control-vector order (read-only)."""
        units = [self.flex_units[i] for i in self.ctrl_indices]
        return _read_only(np.array([self.bus_index[fu.bus] for fu in units], dtype=int))

    @property
    def n_ctrl(self) -> int:
        return len(self.ctrl_indices)

    # ---- limit and injection vectors ------------------------------------

    @cached_property
    def v_min(self) -> np.ndarray:
        return _read_only(np.array([bus.v_min for bus in self.buses]))

    @cached_property
    def v_max(self) -> np.ndarray:
        return _read_only(np.array([bus.v_max for bus in self.buses]))

    @cached_property
    def s_max(self) -> np.ndarray:
        return _read_only(np.array([br.s_max for br in self.branches]))

    def control_vector(self) -> np.ndarray:
        """Current set points of controllable units, ordered [p_1..p_j, q_1..q_j]."""
        units = [self.flex_units[i] for i in self.ctrl_indices]
        return np.array([fu.p for fu in units] + [fu.q for fu in units])

    def control_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) box of the control vector, read-only."""
        return self._control_box

    @cached_property
    def _control_box(self) -> tuple[np.ndarray, np.ndarray]:
        units = [self.flex_units[i] for i in self.ctrl_indices]
        lower = np.array([fu.p_min for fu in units] + [fu.q_min for fu in units])
        upper = np.array([fu.p_max for fu in units] + [fu.q_max for fu in units])
        return _read_only(lower), _read_only(upper)

    def bus_injections(
        self, control: np.ndarray | None = None, load_delta: np.ndarray | None = None
    ) -> np.ndarray:
        """Net complex injection per bus (generation positive), p.u.

        With ``control``, the controllable units inject that control vector
        instead of their set points, clipped silently to their boxes: the
        injections of ``apply_control(self, control)``, without building it.
        With ``load_delta``, an (n_loads, 2) array of (dp, dq) in declaration
        order, each fixed load draws (p + dp) + j(q + dq) instead of p + jq.
        A (K, n_u) stack of controls or a (K, n_loads, 2) stack of load
        deltas gives a (K, n_bus) stack of injections, row i from member i
        alone; an unstacked argument applies to every member.
        """
        if control is None:
            u = self.control_vector()
        else:
            u = _as_control(self, control, stack=True).clip(*self.control_bounds())
        if load_delta is None:
            s = self._uncontrolled_injections.copy()
        else:
            s = self._minus_loads(load_delta)
        if s.ndim < u.ndim:  # a stack of controls over the same loads
            s = np.repeat(s[None], len(u), axis=0)
        j = self.n_ctrl
        units = u[..., :j] + 1j * u[..., j:]
        # Transposed, the bus axis leads for one member and for a stack alike.
        np.add.at(s.T, self.ctrl_buses, units.T if units.ndim == s.ndim else units[:, None])
        return s

    @cached_property
    def _uncontrolled_injections(self) -> np.ndarray:
        """Injection per bus of the fixed loads and non-controllable units (read-only)."""
        return _read_only(self._minus_loads(np.zeros((len(self.fixed_loads), 2))))

    def _minus_loads(self, delta) -> np.ndarray:
        """The non-controllable units' injections less each fixed load moved by (dp, dq).

        Loads are subtracted one by one in declaration order, as a grid
        built with the moved loads sums them; a stack of deltas gives a
        stack of injections.
        """
        units, buses, loads = self._injection_parts
        delta = np.asarray(delta, dtype=float)
        if delta.shape[-2:] != loads.shape or delta.ndim > 3:
            raise ValueError(f"load delta has shape {delta.shape}, expected {loads.shape}")
        pq = loads + delta
        s = units.copy() if pq.ndim == 2 else np.repeat(units[None], len(pq), axis=0)
        np.subtract.at(s.T, buses, (pq[..., 0] + 1j * pq[..., 1]).T)
        return s

    @cached_property
    def _injection_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-controllable units' injection per bus; each fixed load's bus and (p, q)."""
        units = np.zeros(self.n_bus, dtype=complex)
        for fu in self.flex_units:
            if not fu.controllable:
                units[self.bus_index[fu.bus]] += fu.p + 1j * fu.q
        buses = np.array([self.bus_index[ld.bus] for ld in self.fixed_loads], dtype=int)
        loads = np.array([(ld.p, ld.q) for ld in self.fixed_loads], dtype=float).reshape(-1, 2)
        return _read_only(units), _read_only(buses), _read_only(loads)

    # ---- network matrices ------------------------------------------------

    @cached_property
    def branch_ends(self) -> tuple[np.ndarray, np.ndarray]:
        f = np.array([self.bus_index[br.from_bus] for br in self.branches], dtype=int)
        t = np.array([self.bus_index[br.to_bus] for br in self.branches], dtype=int)
        return _read_only(f), _read_only(t)

    @cached_property
    def branch_admittance(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Two-port admittances (yff, yft, ytf, ytt) of the branch pi model."""
        ys = np.array([1.0 / (br.r + 1j * br.x) for br in self.branches])
        bc = np.array([br.b for br in self.branches])
        tap = np.array([br.tap for br in self.branches])
        yff = (ys + 0.5j * bc) / tap**2
        yft = -ys / tap
        ytf = -ys / tap
        ytt = ys + 0.5j * bc
        return _read_only(yff), _read_only(yft), _read_only(ytf), _read_only(ytt)

    @cached_property
    def ybus(self) -> np.ndarray:
        n = self.n_bus
        f, t = self.branch_ends
        yff, yft, ytf, ytt = self.branch_admittance
        y = np.zeros((n, n), dtype=complex)
        np.add.at(y, (f, f), yff)
        np.add.at(y, (f, t), yft)
        np.add.at(y, (t, f), ytf)
        np.add.at(y, (t, t), ytt)
        return _read_only(y)

    @cached_property
    def ybus_pq(self) -> np.ndarray:
        """The Ybus block on the non-slack rows and columns (read-only)."""
        pq = self.pq_indices
        return _read_only(self.ybus[np.ix_(pq, pq)])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def control_labels(grid: GridModel) -> tuple[str, ...]:
    """Column labels of the control vector, matching its layout."""
    units = [grid.flex_units[i] for i in grid.ctrl_indices]
    return tuple(f"p:{fu.id}" for fu in units) + tuple(f"q:{fu.id}" for fu in units)


# ---- file format ---------------------------------------------------------


def _finite(kind: str):
    """Draft 2020-12's check of JSON type ``kind`` that also wants a float-range value."""
    base = Draft202012Validator.TYPE_CHECKER
    return lambda checker, x: base.is_type(x, kind) and abs(x) <= sys.float_info.max


#: Draft 2020-12 with finite numbers: JSON parsing lets NaN, Infinity, 1e400
#: and integers beyond the float range through, and no input key means them.
_FiniteValidator = jsonschema.validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"number": _finite("number"), "integer": _finite("integer")}
    ),
)


@cache
def _validator(schema: str):
    text = resources.files("flexsafe.schemas").joinpath(f"{schema}.schema.json").read_text()
    return _FiniteValidator(json.loads(text))


def load_document(path: Path, schema: str, error: type[Exception]) -> dict:
    """The JSON file at ``path``, checked against ``schemas/<schema>.schema.json``.

    Raises ``error`` if the file cannot be read, is not JSON or breaks the
    schema; a schema message names the key path, e.g. ``mc/n_trials``.
    """
    what = f"{schema} file {path}"
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bytes not UTF-8, or nesting too deep
        raise error(f"{what} is not valid JSON: {exc}") from exc
    problem = best_match(_validator(schema).iter_errors(doc))
    if problem is not None:
        where = "/".join(str(p) for p in problem.absolute_path) or "<root>"
        raise error(f"{what} violates schema at {where}: {problem.message}")
    return doc


def load_grid(path: str | Path) -> GridModel:
    """Load and validate a grid file; returns a per-unit GridModel.

    Raises GridLoadError if the file cannot be read or parsed or breaks
    ``schemas/grid.schema.json`` (NaN, Infinity and numbers beyond the
    float range included), and GridValidationError naming the first
    violated structural invariant.
    """
    doc = load_document(Path(path), "grid", GridLoadError)

    s_base = float(doc["s_base_mva"])
    buses = tuple(
        Bus(
            id=b["id"],
            bus_type=b["type"],
            v_kv=float(b["v_kv"]),
            v_min=float(b["v_min_pu"]),
            v_max=float(b["v_max_pu"]),
        )
        for b in doc["buses"]
    )
    branches = tuple(
        Branch(
            id=b["id"],
            from_bus=b["from"],
            to_bus=b["to"],
            r=float(b["r_pu"]),
            x=float(b["x_pu"]),
            b=float(b.get("b_pu", 0.0)),
            tap=float(b.get("tap", 1.0)),
            s_max=math.inf if b.get("s_max_mva") is None else float(b["s_max_mva"]) / s_base,
        )
        for b in doc["branches"]
    )
    flex_units = tuple(
        FlexUnit(
            id=u["id"],
            bus=u["bus"],
            p_min=float(u["p_min_mw"]) / s_base,
            p_max=float(u["p_max_mw"]) / s_base,
            q_min=float(u["q_min_mvar"]) / s_base,
            q_max=float(u["q_max_mvar"]) / s_base,
            controllable=bool(u.get("controllable", True)),
            p=float(u.get("p_mw", 0.0)) / s_base,
            q=float(u.get("q_mvar", 0.0)) / s_base,
        )
        for u in doc.get("flex_units", [])
    )
    fixed_loads = tuple(
        FixedLoad(
            id=ld["id"],
            bus=ld["bus"],
            p=float(ld["p_mw"]) / s_base,
            q=float(ld["q_mvar"]) / s_base,
            load_class=ld["load_class"],
        )
        for ld in doc.get("loads", [])
    )
    grid = GridModel(
        s_base=s_base,
        buses=buses,
        branches=branches,
        flex_units=flex_units,
        fixed_loads=fixed_loads,
        pcc=doc["pcc_branch"],
    )
    findings = validate(grid)
    if findings:
        raise GridValidationError(findings)
    return grid


# ---- validation ------------------------------------------------------------


#: Per-unit fields of each model part, and the grid-file key each comes from.
_FILE_KEYS = {
    "buses": {"v_kv": "v_kv", "v_min": "v_min_pu", "v_max": "v_max_pu"},
    "branches": {"r": "r_pu", "x": "x_pu", "b": "b_pu", "tap": "tap", "s_max": "s_max_mva"},
    "flex_units": {
        "p_min": "p_min_mw",
        "p_max": "p_max_mw",
        "q_min": "q_min_mvar",
        "q_max": "q_max_mvar",
        "p": "p_mw",
        "q": "q_mvar",
    },
    "loads": {"p": "p_mw", "q": "q_mvar"},
}


def validate(grid: GridModel) -> list[str]:
    """Check every structural invariant; returns one finding per violation.

    Every per-unit number must be finite (s_max may be +inf, an unlimited
    branch): a finite file value divided by a small s_base can overflow.
    Such a finding names the file key, e.g. ``flex_units/0/p_max_mw``.
    """
    findings: list[str] = []
    if grid.s_base <= 0:
        findings.append(f"s_base must be positive, got {grid.s_base}")
    for part, keys in _FILE_KEYS.items():
        items = grid.fixed_loads if part == "loads" else getattr(grid, part)
        for i, item in enumerate(items):
            for name, key in keys.items():
                value = getattr(item, name)
                if not (math.isfinite(value) or (name == "s_max" and value == math.inf)):
                    findings.append(f"{part}/{i}/{key}: per-unit value {value} is not finite")

    seen: set[str] = set()
    for bus in grid.buses:
        if bus.id in seen:
            findings.append(f"duplicate bus id {bus.id!r}")
        seen.add(bus.id)
        if bus.bus_type not in (SLACK, PQ):
            findings.append(f"bus {bus.id}: unknown type {bus.bus_type!r}")
        if not bus.v_min < bus.v_max:
            findings.append(f"bus {bus.id}: v_min must be below v_max")

    n_slack = sum(1 for bus in grid.buses if bus.bus_type == SLACK)
    if n_slack == 0:
        findings.append("no slack bus")
    elif n_slack > 1:
        findings.append("multiple slack buses")

    bus_ids = {bus.id for bus in grid.buses}
    seen = set()
    for br in grid.branches:
        if br.id in seen:
            findings.append(f"duplicate branch id {br.id!r}")
        seen.add(br.id)
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                findings.append(f"branch {br.id}: references nonexistent bus {end!r}")
        if br.from_bus == br.to_bus:
            findings.append(f"branch {br.id}: endpoints must differ")
        if br.r < 0:
            findings.append(f"branch {br.id}: negative resistance")
        if br.r == 0 and br.x == 0:
            findings.append(f"branch {br.id}: zero series impedance")
        if br.tap <= 0:
            findings.append(f"branch {br.id}: tap ratio must be positive")
        if br.s_max <= 0:
            findings.append(f"branch {br.id}: s_max must be positive")

    seen = set()
    for fu in grid.flex_units:
        if fu.id in seen:
            findings.append(f"duplicate flex unit id {fu.id!r}")
        seen.add(fu.id)
        if fu.bus not in bus_ids:
            findings.append(f"flex unit {fu.id}: references nonexistent bus {fu.bus!r}")
        if fu.p_min > fu.p_max:
            findings.append(f"flex unit {fu.id}: p_min above p_max")
        if fu.q_min > fu.q_max:
            findings.append(f"flex unit {fu.id}: q_min above q_max")

    seen = set()
    for ld in grid.fixed_loads:
        if ld.id in seen:
            findings.append(f"duplicate load id {ld.id!r}")
        seen.add(ld.id)
        if ld.bus not in bus_ids:
            findings.append(f"load {ld.id}: references nonexistent bus {ld.bus!r}")
        if ld.load_class not in LOAD_CLASSES:
            findings.append(f"load {ld.id}: unknown load class {ld.load_class!r}")

    if grid.pcc not in {br.id for br in grid.branches}:
        findings.append(f"pcc branch {grid.pcc!r} does not exist")

    if not findings and grid.n_bus > 1:
        reached = {grid.buses[0].id}
        frontier = [grid.buses[0].id]
        adjacency: dict[str, list[str]] = {bus.id: [] for bus in grid.buses}
        for br in grid.branches:
            adjacency[br.from_bus].append(br.to_bus)
            adjacency[br.to_bus].append(br.from_bus)
        while frontier:
            nxt = frontier.pop()
            for other in adjacency[nxt]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != grid.n_bus:
            missing = sorted(bus_ids - reached)
            findings.append(f"network graph is disconnected (unreachable: {', '.join(missing)})")

    return findings


# ---- control application ----------------------------------------------------


def _as_control(grid: GridModel, u, stack: bool = False) -> np.ndarray:
    """u as a float array of one control vector, or also a (K, n_u) stack if ``stack``."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in ((1, 2) if stack else (1,)) or u.shape[-1] != 2 * grid.n_ctrl:
        raise ValueError(
            f"control vector has length {u.shape[-1] if u.ndim else 1}, "
            f"expected {2 * grid.n_ctrl}"
        )
    return u


def clip_control(grid: GridModel, u: np.ndarray) -> tuple[np.ndarray, tuple[ClipEvent, ...]]:
    """Clip a control vector to the unit boxes, reporting non-trivial clips."""
    u = _as_control(grid, u)
    lower, upper = grid.control_bounds()
    clipped = np.clip(u, lower, upper)
    below = u < lower - CLIP_TOL
    outside = np.flatnonzero(below | (u > upper + CLIP_TOL))
    if outside.size == 0:
        return clipped, ()
    labels = control_labels(grid)
    events = []
    for i in outside:
        field, unit = labels[i].split(":", 1)
        bound = lower[i] if below[i] else upper[i]
        events.append(ClipEvent(unit, field, float(u[i]), float(bound)))
    return clipped, tuple(events)


def apply_control(grid: GridModel, u: np.ndarray) -> GridModel:
    """Return a grid whose controllable-unit set points equal u (clipped to bounds).

    Topology, limits, and fixed loads are untouched.  No loop builds one:
    ``solve_power_flow(grid, control=u)`` solves the same injections.
    """
    clipped, _ = clip_control(grid, u)
    units = list(grid.flex_units)
    j = grid.n_ctrl
    for col, idx in enumerate(grid.ctrl_indices):
        units[idx] = replace(units[idx], p=float(clipped[col]), q=float(clipped[col + j]))
    return replace(grid, flex_units=tuple(units))
