"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from flexsafe.grid_model import GridModel, load_grid
from flexsafe.power_flow import MeasurementVector, StateStack, SystemState
from flexsafe.qp_solver import QuadraticProgram
from flexsafe.ofo_controller import SegmentRecord, SetPoint, StepRecord, Trajectory

FIXTURES = Path(__file__).parent / "fixtures"
ALL_GRIDS = ("twobus", "ring4", "boxcase", "ring4_tightv", "synth30")

# One line per acceptance criterion, printed after the run so the pytest
# output doubles as an acceptance report (see test_acceptance.passfail).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def grid_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


# Odd values, or deletion, set at one key path of an input document by the
# fuzz tests of scenario and grid files.
ODD_VALUES = [None, True, 2.5, float("nan"), float("inf"), -float("inf"), -1, "x", [], {}, [0.1]]
DELETE = object()


def key_paths(node, prefix=()):
    """Every key and list position under node, as a path of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutated(doc, path, value):
    """A copy of doc with value at path (deleted for DELETE); None if a list item is deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        if not isinstance(parent, dict):
            return None
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="session")
def twobus() -> GridModel:
    return load_grid(grid_path("twobus"))


@pytest.fixture(scope="session")
def ring4() -> GridModel:
    return load_grid(grid_path("ring4"))


@pytest.fixture(scope="session")
def boxcase() -> GridModel:
    return load_grid(grid_path("boxcase"))


@pytest.fixture(scope="session")
def ring4_tightv() -> GridModel:
    return load_grid(grid_path("ring4_tightv"))


@pytest.fixture(scope="session")
def synth30() -> GridModel:
    return load_grid(grid_path("synth30"))


def assert_same_state(member: SystemState, solo: SystemState) -> None:
    """Every SystemState field equal bit for bit (NaN equal to NaN), types included."""
    for name in ("v", "theta", "s_flows"):
        got, want = getattr(member, name), getattr(solo, name)
        assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True), name
    for name in ("p_pcc", "q_pcc", "mismatch"):
        got, want = getattr(member, name), getattr(solo, name)
        assert type(got) is float and np.array_equal(got, want, equal_nan=True), name
    assert member.converged is solo.converged
    assert type(member.iterations) is int and member.iterations == solo.iterations


def twobus_closed_form(p_inj: float, q_inj: float, x: float):
    """Exact two-bus solution, derived by hand rather than by the solver.

    With V1 = 1 at angle 0 and a lossless series reactance x, the injection
    S = P + jQ at bus 2 gives V2 = a + jb with b = P x and
    a^2 - a + P^2 x^2 - Q x = 0 (the root near 1).  Returns (v2, theta2,
    p_pcc, q_pcc) with the PCC flow taken at the slack end.
    """
    b = p_inj * x
    disc = 1.0 - 4.0 * (p_inj**2 * x**2 - q_inj * x)
    if disc < 0:
        raise ValueError("no real power-flow solution for this injection")
    a = 0.5 * (1.0 + math.sqrt(disc))
    v2 = math.hypot(a, b)
    theta2 = math.atan2(b, a)
    return v2, theta2, -b / x, (1.0 - a) / x


def make_trajectory(
    points, aborted: bool = False, converged: bool = True, target=None
) -> Trajectory:
    """Real Trajectory object with planted PCC points, for classifier tests.

    Each state is a minimal converged one-bus state carrying only its PCC
    point; each step holds zero controls and an optimal QP.
    """
    pts = np.array(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if target is None:
        target = tuple(pts[-1]) if n else (0.0, 0.0)
    zeros = np.zeros((n, 2))
    steps = StepRecord(
        y=MeasurementVector(values=np.zeros((n, 3)), n_bus=1, n_branch=0),
        w=zeros,
        u=zeros,
        u_next=zeros,
        qp_status=("optimal",) * n,
        active_set=((),) * n,
    )
    states = StateStack(
        v=np.ones((n, 1)),
        theta=np.zeros((n, 1)),
        s_flows=np.zeros((n, 0)),
        p_pcc=pts[:, 0].copy(),
        q_pcc=pts[:, 1].copy(),
        converged=np.ones(n, dtype=bool),
        steps=np.ones(n, dtype=int),
        mismatch=np.zeros(n),
        failures=(None,) * n,
        iterations=1 if n else 0,
    )
    segments = (
        SegmentRecord(
            setpoint=SetPoint(p_set=float(target[0]), q_set=float(target[1])),
            start=0,
            stop=n,
            converged=converged,
        ),
    )
    return Trajectory(
        steps=steps,
        states=states,
        segments=segments,
        converged=converged and not aborted,
        aborted=aborted,
        abort_reason="planted abort" if aborted else None,
    )


# ---------------------------------------------------------------------------
# Lattice-based QP oracle: instances whose exact optimum lies on the search
# lattice, so a brute-force argmin is an exact independent reference.

LATTICE_N = 2001
LATTICE_LO, LATTICE_HI = -1.0, 1.0
LATTICE_SPACING = (LATTICE_HI - LATTICE_LO) / (LATTICE_N - 1)


@pytest.fixture(scope="session")
def lattice_points() -> np.ndarray:
    axis = np.linspace(LATTICE_LO, LATTICE_HI, LATTICE_N)
    pp, qq = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([pp.ravel(), qq.ravel()])


def make_lattice_instance(
    rng: np.random.Generator, n_active: int
) -> tuple[QuadraticProgram, np.ndarray]:
    """Random 2-d instance with a known-optimal point on the lattice.

    The optimum w* is drawn on the lattice away from the border; n_active
    constraints pass exactly through w* with positive multipliers folded
    into g (so the KKT system holds at w* by construction), and a few
    inactive rows keep slack >= 0.1.  Returns (problem, w*).
    """
    axis = np.linspace(LATTICE_LO, LATTICE_HI, LATTICE_N)
    w_star = np.array(
        [axis[rng.integers(200, LATTICE_N - 200)] for _ in range(2)]
    )
    rows, lower = [], []
    grad_sum = np.zeros(2)
    base_angle = rng.uniform(0, 2 * math.pi)
    for i in range(n_active):
        # spread active normals so they stay linearly independent
        ang = base_angle + i * (math.pi / 2) + rng.uniform(-0.3, 0.3)
        c = np.array([math.cos(ang), math.sin(ang)])
        lam = rng.uniform(0.2, 1.5)
        rows.append(c)
        lower.append(float(c @ w_star))
        grad_sum += lam * c
    for _ in range(rng.integers(2, 4)):
        ang = rng.uniform(0, 2 * math.pi)
        c = np.array([math.cos(ang), math.sin(ang)])
        slack = rng.uniform(0.1, 0.8)
        rows.append(c)
        lower.append(float(c @ w_star) - slack)
    g = -w_star + grad_sum
    a = np.vstack(rows)
    problem = QuadraticProgram(
        g=g,
        a=a,
        lower=np.array(lower),
        upper=np.full(len(lower), np.inf),
    )
    return problem, w_star


def lattice_argmin_brute(problem: QuadraticProgram, points: np.ndarray) -> np.ndarray:
    """Brute-force feasible minimizer of the QP over the shared lattice.

    The reference for lattice_argmin: every point is tested and scored.
    """
    feasible = np.ones(points.shape[0], dtype=bool)
    vals = points @ problem.a.T
    feasible &= np.all(vals >= problem.lower - 1e-12, axis=1)
    feasible &= np.all(vals <= problem.upper + 1e-12, axis=1)
    if not np.any(feasible):
        raise ValueError("no feasible lattice point; bad instance")
    diff = points + problem.g
    obj = np.einsum("ij,ij->i", diff, diff)
    obj[~feasible] = np.inf
    return points[int(np.argmin(obj))]


def lattice_argmin(problem: QuadraticProgram, points: np.ndarray) -> np.ndarray:
    """The point lattice_argmin_brute returns, found without scanning the lattice.

    ``points`` is the (N*N, 2) lattice of ``lattice_points``, row i holding
    p = axis[i] against every q.  Along a lattice row each constraint value
    ``points @ a.T`` is monotone in q, because rounding is monotone, so the
    feasible q form one interval per row.  Its two ends are bisected for all
    rows at once, evaluating the same expressions as the brute force on
    the probed points only.  The objective along a row falls and then rises,
    so only the clamped points around its unconstrained minimum can win;
    they are scored with the same expression, and ties go to the first
    flat index, as np.argmin breaks them.
    """
    n = math.isqrt(points.shape[0])
    a = problem.a
    base = np.arange(n) * n
    rising_lower, falling_lower = a[:, 1] >= 0, a[:, 1] <= 0

    def holds(cols: np.ndarray, lower_rows: np.ndarray, upper_rows: np.ndarray) -> np.ndarray:
        vals = points[base + cols] @ a.T
        ok = (vals >= problem.lower - 1e-12) | ~lower_rows
        ok &= (vals <= problem.upper + 1e-12) | ~upper_rows
        return np.all(ok, axis=1)

    def first_true(pred) -> np.ndarray:
        """Per row, the first column where a false-then-true predicate holds (n if none)."""
        lo, hi = np.zeros(n, dtype=int), np.full(n, n)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            ok = pred(np.minimum(mid, n - 1)) & (mid < n)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, np.minimum(mid + 1, hi))
        return lo

    # Rows whose q coefficient is zero are constant along a lattice row and
    # belong to both ends; each end is the conjunction of the monotone tests.
    start = first_true(lambda cols: holds(cols, rising_lower, falling_lower))
    stop = first_true(lambda cols: ~holds(cols, falling_lower, rising_lower))
    rows = np.flatnonzero(start < stop)
    if rows.size == 0:
        raise ValueError("no feasible lattice point; bad instance")

    axis = points[:n, 1]
    centre = np.searchsorted(axis, -problem.g[1])
    cols = np.clip(centre + np.arange(-2, 2)[:, None], start[rows], stop[rows] - 1)
    flat = np.unique(base[rows] + cols)
    diff = points[flat] + problem.g
    obj = np.einsum("ij,ij->i", diff, diff)
    return points[flat[int(np.argmin(obj))]]
