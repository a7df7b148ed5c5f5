"""Scenario files: one JSON document describing a complete study.

A scenario bundles the grid reference, controller settings, dispatch
schedule, noise channels, sweep and Monte Carlo parameters.  The loader
resolves the grid path relative to the scenario file and stamps the raw
document with a content hash so every artifact can name the exact
configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flexsafe.grid_model import GridError, GridModel, clip_control, load_grid
from flexsafe.ofo_controller import ControllerConfig, SetPoint
from flexsafe.for_region import SweepConfig
from flexsafe.uncertainty_mc import NoiseConfig, check_load_channel

#: Schedule directive: expand to one single-target run per region vertex.
HULL_VERTICES = "hull-vertices"

_TOP_KEYS = {"grid", "controller", "schedule", "u0", "noise", "for", "mc", "out_dir"}


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
    sweep: SweepConfig
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


def _as_mapping(doc: dict, key: str) -> dict:
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ScenarioError(f"'{key}' must be an object, got {type(val).__name__}")
    return val


def _number(block: dict, key: str, default, kind: type, where: str):
    """block[key] (or default) converted by ``kind``; see _convert."""
    return _convert(block.get(key, default), kind, key, where)


def _convert(raw, kind: type, key: str, where: str):
    """``raw`` converted by ``kind``; a ScenarioError naming ``key`` if it cannot be.

    Booleans are not numbers, an integer key takes no fractional value and
    no key takes NaN or infinity (which JSON parsing lets through): ``true``,
    ``2.5`` and ``NaN`` are rejected rather than read as 1, 2 and NaN.
    """
    try:
        if isinstance(raw, bool):
            raise TypeError(raw)
        value = kind(raw)
        fractional = kind is int and isinstance(raw, float) and value != raw
        if fractional or not math.isfinite(value):
            raise ValueError(raw)
        return value
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(
            f"{where}: '{key}' must be {'an integer' if kind is int else 'a number'}, got {raw!r}"
        ) from None


def _numbers(raw, key: str, where: str) -> list[float]:
    """``raw`` as a list of numbers, each checked by _convert."""
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: '{key}' must be a list of numbers, got {raw!r}")
    return [_convert(x, float, key, where) for x in raw]


def _parse_schedule(raw) -> tuple[SetPoint, ...] | str:
    if raw == HULL_VERTICES:
        return HULL_VERTICES
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(
            f"'schedule' must be \"{HULL_VERTICES}\" or a non-empty list of [p, q] pairs"
        )
    targets = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ScenarioError(f"schedule entry {i} is not a [p, q] pair: {item!r}")
        targets.append(SetPoint(*_numbers(item, "schedule", f"schedule entry {i}")))
    return tuple(targets)


def _parse_noise(block: dict | None) -> NoiseConfig | None:
    if block is None:
        return None
    if not isinstance(block, dict) or "seed" not in block:
        raise ScenarioError(f"'noise' must be an object with a 'seed', got {block!r}")
    unknown = set(block) - {"seed", "load_sigma", "load_cov", "meas_bounds", "sens_bounds"}
    if unknown:
        raise ScenarioError(f"unknown noise keys: {sorted(unknown)}")
    where = "noise block"
    seed = _number(block, "seed", None, int, where)
    if seed < 0:
        raise ScenarioError(f"noise block: 'seed' must be non-negative, got {seed}")
    sigma, cov, meas, sens = (
        block.get(k) for k in ("load_sigma", "load_cov", "meas_bounds", "sens_bounds")
    )
    if sigma is not None:
        if not isinstance(sigma, dict):
            raise ScenarioError(f"{where}: 'load_sigma' must be an object, got {sigma!r}")
        sigma = {cls: _convert(x, float, "load_sigma", where) for cls, x in sigma.items()}
    if cov is not None:
        if not isinstance(cov, list):
            raise ScenarioError(f"{where}: 'load_cov' must be a list of rows, got {cov!r}")
        cov = [_numbers(row, "load_cov", where) for row in cov]
    try:
        return NoiseConfig(
            seed=seed,
            load_sigma=sigma,
            load_cov=None if cov is None else np.array(cov),
            meas_bounds=None if meas is None else tuple(_numbers(meas, "meas_bounds", where)),
            sens_bounds=None if sens is None else tuple(_numbers(sens, "sens_bounds", where)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"noise block: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file, loading its grid."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("grid", "controller", "schedule"):
        if key not in doc:
            raise ScenarioError(f"{path}: missing required key '{key}'")
    if not isinstance(doc["grid"], str):
        raise ScenarioError(f"{path}: 'grid' must be a path string, got {doc['grid']!r}")

    grid_path = (path.parent / doc["grid"]).resolve()
    try:
        grid = load_grid(grid_path)
    except GridError as exc:
        raise ScenarioError(f"grid {grid_path}: {exc}") from exc

    ctrl = _as_mapping(doc, "controller")
    unknown = set(ctrl) - {"alpha", "max_iterations", "convergence_tol"}
    if unknown:
        raise ScenarioError(f"unknown controller keys: {sorted(unknown)}")
    if "alpha" not in ctrl:
        raise ScenarioError("'controller' block requires 'alpha'")
    try:
        controller = ControllerConfig(
            alpha=_number(ctrl, "alpha", None, float, "controller block"),
            max_iterations=_number(ctrl, "max_iterations", 500, int, "controller block"),
            convergence_tol=_number(ctrl, "convergence_tol", 1e-3, float, "controller block"),
        )
    except ValueError as exc:
        raise ScenarioError(f"controller block: {exc}") from exc

    schedule = _parse_schedule(doc["schedule"])

    u0 = None
    if doc.get("u0") is not None:
        u0 = np.array(_numbers(doc["u0"], "u0", str(path)))
        if u0.shape != (2 * grid.n_ctrl,):
            raise ScenarioError(
                f"u0 has {u0.size} entries; the grid has {2 * grid.n_ctrl} controls"
            )
        _, outside = clip_control(grid, u0)
        if outside:
            where = ", ".join(f"{e.field}:{e.unit} = {e.requested!r}" for e in outside)
            raise ScenarioError(f"u0 leaves the unit boxes at {where}")

    noise = _parse_noise(doc.get("noise"))
    if noise is not None:
        try:
            check_load_channel(grid, noise)
        except ValueError as exc:
            raise ScenarioError(f"noise block: {exc}") from exc

    for_block = _as_mapping(doc, "for")
    unknown = set(for_block) - {
        "n_angles",
        "oracle_samples",
        "stage_iterations",
        "gain_scale",
        "stall_tol",
        "patience",
    }
    if unknown:
        raise ScenarioError(f"unknown for keys: {sorted(unknown)}")
    try:
        sweep = SweepConfig(
            n_angles=_number(for_block, "n_angles", 72, int, "for block"),
            stage_iterations=_number(for_block, "stage_iterations", 400, int, "for block"),
            gain_scale=_number(for_block, "gain_scale", 0.1, float, "for block"),
            stall_tol=_number(for_block, "stall_tol", 1e-7, float, "for block"),
            patience=_number(for_block, "patience", 8, int, "for block"),
        )
    except ValueError as exc:
        raise ScenarioError(f"for block: {exc}") from exc
    oracle_samples = _number(for_block, "oracle_samples", 5000, int, "for block")
    if oracle_samples < 1:
        raise ScenarioError("oracle_samples must be positive")

    mc_block = _as_mapping(doc, "mc")
    unknown = set(mc_block) - {"n_trials", "histogram_bins", "histogram_iterations"}
    if unknown:
        raise ScenarioError(f"unknown mc keys: {sorted(unknown)}")
    mc_trials = _number(mc_block, "n_trials", 100, int, "mc block")
    histogram_bins = _number(mc_block, "histogram_bins", 40, int, "mc block")
    if mc_trials < 1 or histogram_bins < 1:
        raise ScenarioError("mc n_trials and histogram_bins must be positive")
    raw_iterations = mc_block.get("histogram_iterations", ())
    if not isinstance(raw_iterations, (list, tuple)):
        raise ScenarioError("mc block: 'histogram_iterations' must be a list of integers")
    iterations = tuple(
        _convert(k, int, "histogram_iterations", "mc block") for k in raw_iterations
    )
    if any(k < 0 for k in iterations):
        raise ScenarioError("histogram_iterations must be non-negative")

    if doc.get("out_dir") is not None and not isinstance(doc["out_dir"], str):
        raise ScenarioError(f"{path}: 'out_dir' must be a path string, got {doc['out_dir']!r}")
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
        sweep=sweep,
        oracle_samples=oracle_samples,
        mc_trials=mc_trials,
        histogram_bins=histogram_bins,
        histogram_iterations=iterations,
        out_dir=out_dir,
        config_hash=config_hash(doc),
    )
