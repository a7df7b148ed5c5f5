"""Scenario files: one JSON document describing a complete study.

A scenario bundles the grid reference, controller settings, dispatch
schedule, noise channels, sweep and Monte Carlo parameters.  Its keys,
types and plain ranges are those of ``schemas/scenario.schema.json``,
checked on load with the validator grid files use, so every number is
finite.  This module checks what needs the grid (the ``u0`` length and
unit box, the load channel), turns the config classes' own range checks
into ScenarioErrors naming the block, and reads integer keys as int and
other numbers as float.  The loader resolves the grid path relative to the
scenario file and stamps the raw document with a content hash so every
artifact can name the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flexsafe.grid_model import GridError, GridModel, clip_control, load_document, load_grid
from flexsafe.ofo_controller import ControllerConfig, SetPoint
from flexsafe.uncertainty_mc import NoiseConfig, check_load_channel

#: Schedule directive: expand to one single-target run per region vertex.
HULL_VERTICES = "hull-vertices"


class ScenarioError(Exception):
    """Scenario file missing, malformed, or inconsistent with its grid."""


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Parsed scenario; ``schedule`` is either explicit targets or HULL_VERTICES."""

    source: Path
    grid_path: Path
    grid: GridModel
    controller: ControllerConfig
    schedule: tuple[SetPoint, ...] | str
    u0: np.ndarray | None
    noise: NoiseConfig | None
    n_angles: int
    oracle_samples: int
    mc_trials: int
    histogram_bins: int
    histogram_iterations: tuple[int, ...]
    out_dir: Path | None
    config_hash: str


def config_hash(document: dict) -> str:
    """sha256 of the canonical JSON form of the raw scenario document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _typed(block: dict, *ints: str) -> dict:
    """A block of numbers: the keys named in ``ints`` as int (3.0 is 3), the rest float."""
    return {key: int(x) if key in ints else float(x) for key, x in block.items()}


def _in_block(block: str, call, **kwargs):
    """``call(**kwargs)``, its ValueError raised as a ScenarioError naming the block."""
    try:
        return call(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{block} block: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file, loading its grid."""
    path = Path(path)
    doc = load_document(path, "scenario", ScenarioError)

    grid_path = (path.parent / doc["grid"]).resolve()
    try:
        grid = load_grid(grid_path)
    except GridError as exc:
        raise ScenarioError(f"grid {grid_path}: {exc}") from exc

    controller = _in_block(
        "controller", ControllerConfig, **_typed(doc["controller"], "max_iterations")
    )

    schedule = doc["schedule"]
    if schedule != HULL_VERTICES:
        schedule = tuple(SetPoint(*map(float, pair)) for pair in schedule)

    u0 = doc.get("u0")
    if u0 is not None:
        u0 = np.array(u0, dtype=float)
        if u0.shape != (2 * grid.n_ctrl,):
            raise ScenarioError(
                f"u0 has {u0.size} entries; the grid has {2 * grid.n_ctrl} controls"
            )
        _, outside = clip_control(grid, u0)
        if outside:
            where = ", ".join(f"{e.field}:{e.unit} = {e.requested!r}" for e in outside)
            raise ScenarioError(f"u0 leaves the unit boxes at {where}")

    noise = None
    if doc.get("noise") is not None:
        block = doc["noise"]
        sigma, cov, meas, sens = (
            block.get(k) for k in ("load_sigma", "load_cov", "meas_bounds", "sens_bounds")
        )
        noise = _in_block(
            "noise",
            NoiseConfig,
            seed=int(block["seed"]),
            load_sigma=None if sigma is None else _typed(sigma),
            load_cov=cov,
            meas_bounds=None if meas is None else tuple(map(float, meas)),
            sens_bounds=None if sens is None else tuple(map(float, sens)),
        )
        _in_block("noise", check_load_channel, grid=grid, config=noise)

    for_block = doc.get("for", {})
    mc = doc.get("mc", {})

    out_dir = Path(doc["out_dir"]) if doc.get("out_dir") else None
    if out_dir is not None and not out_dir.is_absolute():
        out_dir = (path.parent / out_dir).resolve()

    return ScenarioConfig(
        source=path,
        grid_path=grid_path,
        grid=grid,
        controller=controller,
        schedule=schedule,
        u0=u0,
        noise=noise,
        n_angles=int(for_block.get("n_angles", 72)),
        oracle_samples=int(for_block.get("oracle_samples", 5000)),
        mc_trials=int(mc.get("n_trials", 100)),
        histogram_bins=int(mc.get("histogram_bins", 40)),
        histogram_iterations=tuple(int(k) for k in mc.get("histogram_iterations", ())),
        out_dir=out_dir,
        config_hash=config_hash(doc),
    )
