"""Scenario files for each workload, made from the workload seed.

flexsafe sees only the files written here: a copy of the grid and a
scenario that names it.  Every random choice comes from the seed, through
streams that are independent of each other.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refpf

GRIDS = Path(__file__).resolve().parent / "grids"

#: Workload parameters.  The sizes keep one study command at a few seconds
#: so a run holds several of them; the README explains each choice.
FOR_RAYS = 24  # fewest rays whose polygon holds >= 99% of the ring4 cloud
FOR_ORACLE = 2000
FOR_CLOUD = 3000
MC_TRIALS = 64
MC_RAYS = 8
RUN_TARGETS = 60
RUN_RAYS = 8
SETUP_ORACLE = 200
#: Set points are made from controls inside this share of each unit box,
#: and kept only with this voltage margin, so every one is reachable.
RUN_BOX_SHARE = 0.9
RUN_V_MARGIN = 0.005

CONTROLLER_MC = {"alpha": 0.1, "max_iterations": 60, "convergence_tol": 1e-3}
CONTROLLER_RUN = {"alpha": 0.05, "max_iterations": 200, "convergence_tol": 1e-3}
MC_NOISE = {
    "load_sigma": {"household": 0.02, "industry": 0.02, "commercial": 0.02},
    "meas_bounds": [-0.01, 0.01],
    "sens_bounds": [-0.05, 0.05],
}
MC_TARGET = [-0.4, -0.8]  # just inside the binding voltage limit of ring4_tightv

# Independent random streams drawn from one workload seed.
STREAM_FLEXSAFE, STREAM_CLOUD, STREAM_TARGETS, STREAM_ROWS = range(4)


def stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, which]))


def flexsafe_seed(seed: int) -> int:
    """The master seed written into a scenario's noise block."""
    return int(stream(seed, STREAM_FLEXSAFE).integers(0, 2**31 - 1))


@dataclass
class Inputs:
    scenario: Path
    doc: dict
    grid_file: Path
    #: Reference-PF PCC points of feasible controls (for_ring4 only).
    cloud: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))


def feasible_cloud(grid: refpf.RefGrid, rng: np.random.Generator, n: int) -> np.ndarray:
    """PCC images of uniform random controls that meet every limit."""
    points = []
    for _ in range(n):
        state = refpf.solve(grid, rng.uniform(grid.u_lower, grid.u_upper))
        if refpf.within_limits(grid, state):
            points.append(refpf.pcc_flow(grid, state))
    return np.array(points, dtype=float).reshape(-1, 2)


def reachable_targets(grid: refpf.RefGrid, rng: np.random.Generator, n: int) -> list[list[float]]:
    """PCC set points realised by interior controls that meet every limit."""
    mid = 0.5 * (grid.u_lower + grid.u_upper)
    half = 0.5 * RUN_BOX_SHARE * (grid.u_upper - grid.u_lower)
    targets = []
    while len(targets) < n:
        state = refpf.solve(grid, rng.uniform(mid - half, mid + half))
        if refpf.within_limits(grid, state, v_margin=RUN_V_MARGIN, s_share=0.95):
            targets.append(list(refpf.pcc_flow(grid, state)))
    return targets


def make_inputs(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the grid copy and the scenario for one workload run."""
    directory.mkdir(parents=True, exist_ok=True)
    cloud = np.empty((0, 2))
    if workload == "for_ring4":
        grid_name = "ring4.json"
        doc = {
            "controller": {"alpha": 0.1},
            "schedule": [[0.0, 0.0]],
            "noise": {"seed": flexsafe_seed(seed)},
            "for": {"n_angles": FOR_RAYS, "oracle_samples": FOR_ORACLE},
        }
        cloud = feasible_cloud(
            refpf.load_ref_grid(GRIDS / grid_name), stream(seed, STREAM_CLOUD), FOR_CLOUD
        )
    elif workload == "mc_ring4_tightv":
        grid_name = "ring4_tightv.json"
        doc = {
            "controller": dict(CONTROLLER_MC),
            "schedule": [list(MC_TARGET)],
            "noise": {"seed": flexsafe_seed(seed), **MC_NOISE},
            "for": {"n_angles": MC_RAYS, "oracle_samples": SETUP_ORACLE},
            "mc": {"n_trials": MC_TRIALS, "histogram_bins": 24, "histogram_iterations": [5, 50]},
        }
    elif workload == "run_synth30":
        grid_name = "synth30.json"
        doc = {
            "controller": dict(CONTROLLER_RUN),
            "schedule": reachable_targets(
                refpf.load_ref_grid(GRIDS / grid_name), stream(seed, STREAM_TARGETS), RUN_TARGETS
            ),
            "for": {"n_angles": RUN_RAYS, "oracle_samples": SETUP_ORACLE},
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc = {"grid": grid_name, **doc}
    grid_file = directory / grid_name
    shutil.copyfile(GRIDS / grid_name, grid_file)
    scenario = directory / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=1) + "\n")
    return Inputs(scenario=scenario, doc=doc, grid_file=grid_file, cloud=cloud)
