"""Command-line front end: chart a region, run a schedule, or study noise.

    flexsafe for  <scenario.json> [--out DIR] [--seed S]
    flexsafe run  <scenario.json> [--out DIR] [--seed S]
    flexsafe mc   <scenario.json> [--out DIR] [--seed S] [--jobs N]

Exit codes: 0 the study completed (whatever its verdict) or --help was
asked for, 1 anything wrong with the inputs (command line, scenario, grid
file), 2 a numerical failure mid-study.  All artifacts are deterministic for
a fixed scenario and seed: rerunning a command reproduces every output byte,
and mc's --jobs changes only the wall-clock time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from flexsafe.grid_model import GridError
from flexsafe.power_flow import PowerFlowError
from flexsafe.qp_solver import QPError
from flexsafe.sensitivity import compute_sensitivity, export_sensitivity_csv
from flexsafe.ofo_controller import (
    ControllerError,
    SetPoint,
    export_trajectory_csv,
    run_schedule,
)
from flexsafe.for_region import (
    FORError,
    FORPolygon,
    contains_many,
    export_for_csv,
    read_for_csv,
    sample_oracle_for,
    sweep_for,
)
from flexsafe.trajectory_analysis import robustness_verdict, verdict_payload
from flexsafe.uncertainty_mc import (
    TrialNoise,
    critical_fraction,
    density_histogram,
    export_histogram_csv,
    run_monte_carlo,
)
from flexsafe.scenario import HULL_VERTICES, ScenarioConfig, ScenarioError, load_scenario

#: Histogram extent: region bounding box grown by this fraction per side,
#: so excursions just outside the region still land in a bin.
PAD_FRACTION = 0.1

REGION_CSV = "for_region.csv"

#: Sidecar of REGION_CSV: the _region_stamp of the inputs that charted it.
REGION_STAMP = "for_region.sha256"


def _write_json(payload: dict, path: Path) -> None:
    """Write payload as strict JSON: a NaN or infinity raises ValueError and writes nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _out_dir(sc: ScenarioConfig, args) -> Path:
    out = args.out or sc.out_dir or sc.source.parent / f"{sc.source.stem}_out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective_seed(sc: ScenarioConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    return sc.noise.seed if sc.noise is not None else 0


def _region_stamp(sc: ScenarioConfig) -> str:
    """sha256 of everything the region depends on: grid document and sweep settings."""
    digest = hashlib.sha256(sc.grid_path.read_bytes())
    digest.update(json.dumps(asdict(sc.sweep), sort_keys=True).encode())
    return digest.hexdigest()


def _ensure_region(sc: ScenarioConfig, out: Path, refresh: bool = False) -> FORPolygon:
    """The scenario's region: the cached CSV if its stamp matches, else a new sweep."""
    cache, stamp_file = out / REGION_CSV, out / REGION_STAMP
    stamp = _region_stamp(sc)
    if (
        not refresh
        and cache.exists()
        and stamp_file.exists()
        and stamp_file.read_text().strip() == stamp
    ):
        return read_for_csv(cache)
    # Drop the old stamp first, so a run cut short never leaves a stamp
    # vouching for a CSV it does not describe.
    stamp_file.unlink(missing_ok=True)
    polygon = sweep_for(sc.grid, config=sc.sweep)
    export_for_csv(polygon, cache)
    stamp_file.write_text(stamp + "\n")
    return polygon


def _region_extent(polygon: FORPolygon):
    lo = polygon.vertices.min(axis=0)
    hi = polygon.vertices.max(axis=0)
    pad = PAD_FRACTION * (hi - lo)
    return (
        (float(lo[0] - pad[0]), float(hi[0] + pad[0])),
        (float(lo[1] - pad[1]), float(hi[1] + pad[1])),
    )


def _cmd_for(args) -> int:
    sc = load_scenario(args.config)
    out = _out_dir(sc, args)
    polygon = _ensure_region(sc, out, refresh=True)
    smap = compute_sensitivity(sc.grid, sc.u0)
    export_sensitivity_csv(smap, out / "sensitivity.csv")

    sample = sample_oracle_for(sc.grid, sc.oracle_samples, _effective_seed(sc, args))
    # With no feasible sample there is nothing to test: null, as coverage is.
    inside_fraction = (
        float(contains_many(polygon, sample.points, tol=1e-3).mean()) if sample.n_feasible else None
    )
    summary = {
        "config_hash": sc.config_hash,
        "grid": sc.grid_path.name,
        "n_vertices": polygon.n_vertices,
        "area": polygon.area,
        "failed_angles": len(polygon.failures),
        "oracle": {
            "n_requested": sample.n_requested,
            "n_feasible": sample.n_feasible,
            "n_infeasible": sample.n_infeasible,
            "n_diverged": sample.n_diverged,
            "inside_fraction": inside_fraction,
        },
    }
    _write_json(summary, out / "for_summary.json")
    print(
        f"region: {polygon.n_vertices} vertices, area {polygon.area:.6g}, "
        f"{len(polygon.failures)} failed angles"
    )
    tested = "none to test" if inside_fraction is None else f"{inside_fraction:.2%} inside at tol 1e-3"
    print(f"oracle: {sample.n_feasible}/{sample.n_requested} feasible, {tested}")
    print(f"wrote {out / REGION_CSV}")
    return 0


def _resolve_schedules(sc: ScenarioConfig, polygon: FORPolygon):
    """HULL_VERTICES becomes one single-target schedule per region vertex."""
    if sc.schedule == HULL_VERTICES:
        return [
            [SetPoint(p_set=float(p), q_set=float(q))] for p, q in polygon.vertices
        ]
    return [list(sc.schedule)]


def _cmd_run(args) -> int:
    sc = load_scenario(args.config)
    out = _out_dir(sc, args)
    polygon = _ensure_region(sc, out)
    smap = compute_sensitivity(sc.grid, sc.u0)

    noise_cfg = sc.noise
    if noise_cfg is not None and args.seed is not None:
        noise_cfg = replace(noise_cfg, seed=args.seed)
    noise = TrialNoise(noise_cfg, trial=0) if noise_cfg is not None else None

    trajectories = []
    for schedule in _resolve_schedules(sc, polygon):
        traj = run_schedule(sc.grid, smap, schedule, sc.controller, u0=sc.u0, noise=noise)
        export_trajectory_csv(traj, sc.grid, out / f"trajectory_{len(trajectories):03d}.csv")
        trajectories.append(traj)

    report = robustness_verdict(trajectories, polygon)
    payload = verdict_payload(report)
    payload["config_hash"] = sc.config_hash
    payload["grid"] = sc.grid_path.name
    _write_json(payload, out / "run_verdict.json")
    print(
        f"{len(trajectories)} run(s): verdict {report.verdict.safety_class.value}, "
        f"{report.n_converged}/{report.n_trials} converged"
    )
    return 0


def _cmd_mc(args) -> int:
    sc = load_scenario(args.config)
    if sc.noise is None:
        raise ScenarioError("mc requires a 'noise' block in the scenario")
    if sc.schedule == HULL_VERTICES:
        raise ScenarioError("mc requires an explicit schedule, not hull-vertices")
    out = _out_dir(sc, args)
    polygon = _ensure_region(sc, out)
    smap = compute_sensitivity(sc.grid, sc.u0)
    noise_cfg = sc.noise
    if args.seed is not None:
        noise_cfg = replace(noise_cfg, seed=args.seed)

    tset = run_monte_carlo(
        sc.grid,
        list(sc.schedule),
        sc.controller,
        noise_cfg,
        sc.mc_trials,
        smap=smap,
        u0=sc.u0,
        jobs=args.jobs,
    )
    report = robustness_verdict(tset, polygon)
    crit, crit_ci = critical_fraction(tset, polygon)

    extent = _region_extent(polygon)
    hist = density_histogram(tset, bins=sc.histogram_bins, extent=extent)
    export_histogram_csv(hist, out / "mc_histogram.csv")
    for k in sc.histogram_iterations:
        hist_k = density_histogram(tset, bins=sc.histogram_bins, iteration=k, extent=extent)
        export_histogram_csv(hist_k, out / f"mc_histogram_k{k}.csv")

    summary = {
        "config_hash": sc.config_hash,
        "grid": sc.grid_path.name,
        "seed": noise_cfg.seed,
        "n_trials": sc.mc_trials,
        "report": verdict_payload(report),
        "critical_fraction": crit,
        "critical_ci": [crit_ci[0], crit_ci[1]],
        "histogram": {
            "normalization": hist.normalization(),
            "n_total": hist.n_total,
            "n_dropped": hist.n_dropped,
        },
        "failures": [
            {"trial": f.trial, "reason": f.reason} for f in tset.failures
        ],
    }
    _write_json(summary, out / "mc_summary.json")
    print(
        f"mc: {sc.mc_trials} trials, verdict {report.verdict.safety_class.value}, "
        f"convergence {report.convergence_rate:.2%} "
        f"[{report.rate_ci[0]:.2%}, {report.rate_ci[1]:.2%}], "
        f"critical {crit:.2%}"
    )
    return 0


def _integer_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexsafe",
        description="Feedback-optimized dispatch with region-based safety verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("for", _cmd_for, "chart the feasible PCC region and cross-check it"),
        ("run", _cmd_run, "run the dispatch schedule and classify the result"),
        ("mc", _cmd_mc, "propagate noise channels through repeated runs"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("config", type=Path, help="scenario JSON file")
        if name == "mc":
            sp.add_argument(
                "--jobs", type=_integer_at_least(1), default=1, help="worker processes"
            )
        sp.add_argument("--out", type=Path, default=None, help="artifact directory")
        sp.add_argument(
            "--seed", type=_integer_at_least(0), default=None, help="override the master seed"
        )
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed help (code 0) or the usage message;
        # a bad command line is an input error, same as a bad scenario file.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ScenarioError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PowerFlowError, ControllerError, FORError, QPError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
