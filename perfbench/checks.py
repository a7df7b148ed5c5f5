"""Output checks for each workload's artifacts.

Every check rests on a computation made apart from flexsafe (the
reference power flow, a winding-number point-in-polygon test, a Wilson
interval, a schedule walk) or on a documented property of the method.
None compares against a stored copy of earlier output.

A check returns a ``Verdict``: the operations attempted and failed, and a
list of problems.  A failed operation (an angle the sweep dropped, an
aborted trial, a set point not reached) is counted, not reported as a
problem; a problem means an artifact is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refpf

#: Containment tolerance of the safety classification (flexsafe's default).
SAFETY_TOL = 1e-3
#: The histogram extent is the region bounding box grown by this share per side.
HIST_PAD = 0.1
WILSON_Z = 1.959963984540054


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_polygon(path: Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Sweep angles (rad), vertices and binding tags of for_region.csv."""
    header, rows = read_csv(path)
    if header[:4] != ["theta_deg", "p_pcc", "q_pcc", "binding_constraints"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    angles = np.radians([float(r[0]) for r in rows])
    vertices = np.array([[float(r[1]), float(r[2])] for r in rows]).reshape(-1, 2)
    return angles, vertices, [r[3] for r in rows]


def shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def inside_dilated(vertices: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Winding-number membership, or distance to the boundary within tol."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = vertices[None, :, :]
    b = np.roll(vertices, -1, axis=0)[None, :, :]
    p = pts[:, None, :]
    edge = b - a
    rel = p - a
    cross = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    up = (a[..., 1] <= p[..., 1]) & (b[..., 1] > p[..., 1]) & (cross > 0)
    down = (b[..., 1] <= p[..., 1]) & (a[..., 1] > p[..., 1]) & (cross < 0)
    winding = up.sum(axis=1) - down.sum(axis=1)
    length2 = np.maximum(np.sum(edge**2, axis=-1), 1e-300)
    t = np.clip(np.sum(rel * edge, axis=-1) / length2, 0.0, 1.0)
    gap2 = np.sum((rel - t[..., None] * edge) ** 2, axis=-1)
    return (winding != 0) | (gap2.min(axis=1) <= tol * tol)


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval, written out from its textbook form."""
    phat = successes / trials
    z2n = z * z / trials
    centre = (phat + z2n / 2) / (1 + z2n)
    spread = z / (1 + z2n) * math.sqrt(phat * (1 - phat) / trials + z2n / (4 * trials))
    return max(0.0, centre - spread), min(1.0, centre + spread)


def close(a: float, b: float, rel: float = 1e-9, absolute: float = 1e-12) -> bool:
    return abs(a - b) <= max(absolute, rel * max(abs(a), abs(b)))


# ---- for_ring4 -------------------------------------------------------------


def check_for(out: Path, doc: dict, cloud: np.ndarray) -> Verdict:
    n_angles = doc["for"]["n_angles"]
    summary = json.loads((out / "for_summary.json").read_text())
    angles, vertices, binding = read_polygon(out / "for_region.csv")
    v = Verdict(attempted=n_angles, failed=int(summary["failed_angles"]))

    v.expect(
        len(vertices) + v.failed == n_angles,
        f"{len(vertices)} vertices and {v.failed} failed angles for {n_angles} rays",
    )
    v.expect(summary["n_vertices"] == len(vertices), "for_summary n_vertices disagrees with the CSV")
    steps = angles * n_angles / (2 * math.pi)
    v.expect(
        bool(np.all(np.abs(steps - np.round(steps)) < 1e-9)) and bool(np.all(np.diff(steps) > 0)),
        "vertex angles are not increasing sweep angles 2*pi*i/n",
    )
    for theta, (p, q), tags in zip(angles, vertices, binding):
        off = math.remainder(math.atan2(q, p) - theta, 2 * math.pi)
        v.expect(abs(off) < 0.01, f"vertex at {math.degrees(theta):.1f} deg is {off:.3g} rad off its ray")
        v.expect(bool(tags), f"vertex at {math.degrees(theta):.1f} deg names no binding limit")
    if len(vertices) >= 3:
        v.expect(close(shoelace(vertices), summary["area"]), "for_summary area is not the polygon's area")
        share = float(inside_dilated(vertices, cloud, SAFETY_TOL).mean())
        v.expect(
            share >= 0.99,
            f"only {share:.2%} of {len(cloud)} reference feasible points lie in the dilated polygon",
        )
    v.expect(
        summary["oracle"]["n_requested"] == doc["for"]["oracle_samples"],
        "oracle sample count differs from the scenario",
    )
    return v


# ---- run_synth30 -----------------------------------------------------------


def check_run(out: Path, doc: dict, grid_file: Path, rng: np.random.Generator, n_rows: int = 12) -> Verdict:
    targets = [tuple(t) for t in doc["schedule"]]
    ctrl = doc["controller"]
    v = Verdict(attempted=len(targets))
    files = sorted(p.name for p in out.glob("trajectory_*.csv"))
    v.expect(files == ["trajectory_000.csv"], f"expected one trajectory file, found {files}")
    header, rows = read_csv(out / "trajectory_000.csv")

    grid_doc = json.loads(grid_file.read_text())
    units = [u["id"] for u in grid_doc["flex_units"] if u.get("controllable", True)]
    labels = [f"p:{u}" for u in units] + [f"q:{u}" for u in units]
    v.expect(
        header[: 1 + len(labels)] == ["k", *labels] and header[1 + len(labels) : 1 + len(labels) + 3] == ["p_pcc", "q_pcc", "phi"],
        f"unexpected trajectory header {header}",
    )
    if v.problems:
        return v
    n_u = len(labels)
    k = [int(r[0]) for r in rows]
    u = np.array([[float(x) for x in r[1 : 1 + n_u]] for r in rows]).reshape(-1, n_u)
    pcc = np.array([[float(r[1 + n_u]), float(r[2 + n_u])] for r in rows]).reshape(-1, 2)
    phi = [float(r[3 + n_u]) for r in rows]
    v.expect(k == list(range(len(rows))), "step index k is not 0, 1, 2, ...")

    # Walk the rows against the schedule: a segment ends at the first row
    # within tolerance of its target, or after max_iterations rows.
    owner: list[tuple[float, float]] = []
    row = 0
    aborted = False
    for target in targets:
        stop = min(row + ctrl["max_iterations"], len(rows))
        hit = next(
            (i for i in range(row, stop) if math.hypot(pcc[i, 0] - target[0], pcc[i, 1] - target[1]) <= ctrl["convergence_tol"]),
            None,
        )
        if hit is None:
            v.failed += 1
            aborted = aborted or stop - row < ctrl["max_iterations"]
            owner += [target] * (stop - row)
            row = stop
        else:
            owner += [target] * (hit + 1 - row)
            row = hit + 1
    v.expect(row == len(rows), f"{len(rows) - row} rows left after the last set point")

    bad_phi = [
        i for i, (t, (p, q)) in enumerate(zip(owner, pcc))
        if not close(phi[i], (p - t[0]) ** 2 + (q - t[1]) ** 2, rel=1e-12, absolute=1e-300)
    ]
    v.expect(not bad_phi, f"phi differs from (p - p_set)^2 + (q - q_set)^2 on {len(bad_phi)} rows, first row {bad_phi[:1]}")

    grid = refpf.load_ref_grid(grid_doc)
    v.expect(
        bool(np.all(u >= grid.u_lower - 1e-12) and np.all(u <= grid.u_upper + 1e-12)),
        "a recorded control leaves its unit box",
    )
    for i in sorted(rng.choice(len(rows), size=min(n_rows, len(rows)), replace=False)):
        p, q = refpf.pcc_flow(grid, refpf.solve(grid, u[i]))
        v.expect(
            abs(p - pcc[i, 0]) <= 1e-6 and abs(q - pcc[i, 1]) <= 1e-6,
            f"row {i}: reference flow ({p:.9f}, {q:.9f}) differs from the recorded PCC flow",
        )

    _, vertices, _ = read_polygon(out / "for_region.csv")
    inside = inside_dilated(vertices, pcc, SAFETY_TOL)
    final_exit = (not aborted) and inside.size > 0 and not inside[-1]
    transient = bool(np.any(~inside[:-1]))
    expected = "unsafe" if aborted or final_exit else "conditionally_safe" if transient else "safe"
    report = json.loads((out / "run_verdict.json").read_text())
    verdict = report["verdict"]
    for key, want in (
        ("safety_class", expected),
        ("n_trajectories", 1),
        ("n_transient_exits", int(transient)),
        ("n_final_exits", int(final_exit)),
        ("n_aborted", int(aborted)),
        ("tol", SAFETY_TOL),
    ):
        v.expect(verdict[key] == want, f"run_verdict {key} is {verdict[key]!r}, recomputed {want!r}")
    v.expect(report["n_converged"] == int(v.failed == 0), "run_verdict n_converged disagrees with the schedule walk")
    return v


# ---- mc_ring4_tightv -------------------------------------------------------


def histogram_problems(path: Path, bins: int, extent: np.ndarray) -> tuple[list[str], int]:
    """Problems of one histogram CSV, and the number of states it holds."""
    _, rows = read_csv(path)
    name = path.name
    if len(rows) != bins * bins:
        return [f"{name}: {len(rows)} cells, expected {bins * bins}"], 0
    centre = np.array([[float(r[0]), float(r[1])] for r in rows])
    count = np.array([int(r[2]) for r in rows])
    area = np.array([float(r[3]) for r in rows])
    rho = np.array([float(r[4]) for r in rows])
    total = int(count.sum())
    problems = []
    mass = math.fsum(float(x) for x in rho * area)
    if abs(mass - 1.0) > 1e-12:
        problems.append(f"{name}: sum(rho * area) = {mass!r}")
    if total < 1 or not np.allclose(rho, count / (area * max(total, 1)), rtol=1e-9, atol=0.0):
        problems.append(f"{name}: rho is not n / (area * total n) in every cell")
    edges = [np.linspace(lo, hi, bins + 1) for lo, hi in extent]
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    want = np.array([[p, q] for p in mids[0] for q in mids[1]])
    if not np.allclose(centre, want, rtol=0.0, atol=1e-12):
        problems.append(f"{name}: cells do not tile the padded region bounding box")
    widths = np.outer(np.diff(edges[0]), np.diff(edges[1])).ravel()
    if not np.allclose(area, widths, rtol=1e-9, atol=0.0):
        problems.append(f"{name}: cell areas do not match the cell grid")
    return problems, total


def check_mc(out: Path, doc: dict) -> Verdict:
    n = doc["mc"]["n_trials"]
    summary = json.loads((out / "mc_summary.json").read_text())
    report = summary["report"]
    verdict = report["verdict"]
    v = Verdict(attempted=n, failed=len(summary["failures"]))

    v.expect(summary["n_trials"] == n and report["n_trials"] == n and verdict["n_trajectories"] == n, "trial count differs from the scenario")
    v.expect(summary["seed"] == doc["noise"]["seed"], "mc_summary seed differs from the scenario")
    v.expect(verdict["n_aborted"] == v.failed, "n_aborted disagrees with the failure list")
    v.expect(verdict["tol"] == SAFETY_TOL, f"verdict tolerance {verdict['tol']!r}")

    converged = report["n_converged"]
    v.expect(close(report["convergence_rate"], converged / n), "convergence_rate is not n_converged / n_trials")
    v.expect(
        all(close(a, b) for a, b in zip(report["rate_ci"], wilson(converged, n))),
        f"rate_ci {report['rate_ci']} is not the Wilson interval of {converged}/{n}",
    )
    critical = round(summary["critical_fraction"] * n)
    v.expect(close(summary["critical_fraction"], critical / n), "critical_fraction is not a count over n_trials")
    v.expect(
        all(close(a, b) for a, b in zip(summary["critical_ci"], wilson(critical, n))),
        f"critical_ci {summary['critical_ci']} is not the Wilson interval of {critical}/{n}",
    )
    transient, final, aborted = verdict["n_transient_exits"], verdict["n_final_exits"], verdict["n_aborted"]
    v.expect(
        max(transient, final + aborted) <= critical <= transient + final + aborted,
        f"{critical} critical trials outside [max({transient}, {final}+{aborted}), {transient}+{final}+{aborted}]",
    )
    has_exit = transient + final + aborted > 0
    expected = "unsafe" if final + aborted else "conditionally_safe" if has_exit else "safe"
    v.expect(verdict["safety_class"] == expected, f"safety class {verdict['safety_class']!r} does not follow from its exit counts")

    _, vertices, _ = read_polygon(out / "for_region.csv")
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    pad = HIST_PAD * (hi - lo)
    extent = np.column_stack([lo - pad, hi + pad])
    bins = doc["mc"]["histogram_bins"]
    problems, pooled = histogram_problems(out / "mc_histogram.csv", bins, extent)
    v.problems += problems
    hist = summary["histogram"]
    v.expect(pooled == hist["n_total"], f"pooled histogram holds {pooled} states, summary says {hist['n_total']}")
    v.expect(abs(hist["normalization"] - 1.0) <= 1e-12, "summary normalization is not 1")
    states = hist["n_total"] + hist["n_dropped"]
    v.expect(
        n <= states <= n * doc["controller"]["max_iterations"],
        f"{states} recorded states for {n} trials of at most {doc['controller']['max_iterations']} steps",
    )
    for k in doc["mc"]["histogram_iterations"]:
        problems, held = histogram_problems(out / f"mc_histogram_k{k}.csv", bins, extent)
        v.problems += problems
        v.expect(held <= n, f"mc_histogram_k{k}.csv holds {held} states for {n} trials")
    return v


def pooled_states(out: Path) -> int:
    """States the mc study recorded, binned or dropped."""
    hist = json.loads((out / "mc_summary.json").read_text())["histogram"]
    return hist["n_total"] + hist["n_dropped"]
