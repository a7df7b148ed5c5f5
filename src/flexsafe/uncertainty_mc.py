"""Monte Carlo propagation of disturbances through the closed loop.

Three independent noise channels, each on its own timescale:

* load fluctuation  - additive Gaussian on every fixed load, redrawn each
  controller iteration (the plant moves under the controller's feet);
* measurement error - multiplicative uniform on every measurement row,
  redrawn each iteration;
* model mismatch    - multiplicative uniform on the sensitivity entries,
  drawn once per trial (the map is wrong, but consistently so).

Every draw comes from a stream keyed by (trial, channel) off one master
seed and read in step order by the one process that runs the trial, so a
parallel run reproduces the serial run byte for byte.

Each trial's Trajectory is its record as arrays, step k in row k:
``states`` is one StateStack, and ``steps`` a StepRecord of (n_steps, n_u)
controls and applied steps, (n_steps, n_y) measurements and one QP status
and active set per step.  No per-step object is kept, so a pool worker
returns only these arrays, and the summaries below read them with no
per-step loop.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from numbers import Real
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from flexsafe.grid_model import LOAD_CLASSES, GridModel
from flexsafe.power_flow import MeasurementNoise
from flexsafe.ofo_controller import ControllerConfig, SetPoint, Trajectory, run_schedule
from flexsafe.sensitivity import SensitivityMap, compute_sensitivity, perturb_sensitivity
from flexsafe.trajectory_analysis import (
    TOL_SAFETY,
    TrajectorySet,
    TrialFailure,
    _as_trajectories,
    wilson_interval,
)
from flexsafe.for_region import FORPolygon, contains_many

CHANNEL_LOAD = 0
CHANNEL_MEAS = 1
CHANNEL_SENS = 2


@dataclass(frozen=True, eq=False)
class NoiseConfig:
    """Channel magnitudes; leave a field at None to switch that channel off.

    ``load_sigma`` maps load class to a standard deviation in p.u.;
    ``load_cov`` replaces it with a full covariance over the stacked vector
    [dp_1..dp_L, dq_1..dq_L].  ``meas_bounds`` / ``sens_bounds`` are the
    (lo, hi) supports of the relative uniform errors.
    """

    seed: int
    load_sigma: Mapping[str, float] | None = None
    load_cov: np.ndarray | None = None
    meas_bounds: tuple[float, float] | None = None
    sens_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.load_sigma is not None:
            if not isinstance(self.load_sigma, Mapping):
                raise ValueError(f"load_sigma must map classes to sigmas: {self.load_sigma!r}")
            for cls, sigma in self.load_sigma.items():
                if cls not in LOAD_CLASSES:
                    raise ValueError(f"unknown load class {cls!r}")
                if not (_finite(sigma) and sigma >= 0):
                    raise ValueError(f"load sigma for {cls!r} must be finite and non-negative")
        if self.load_sigma is not None and self.load_cov is not None:
            raise ValueError("specify load_sigma or load_cov, not both")
        if self.load_cov is not None:
            cov = np.asarray(self.load_cov, dtype=float)
            object.__setattr__(self, "load_cov", cov)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("load covariance must be square")
            if not np.isfinite(cov).all():
                raise ValueError("load covariance entries must be finite")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("load covariance must be symmetric")
            eigvals = np.linalg.eigvalsh(cov)
            if eigvals.min() < -1e-10 * max(1.0, eigvals.max()):
                raise ValueError("load covariance must be positive semi-definite")
        for name in ("meas_bounds", "sens_bounds"):
            val = getattr(self, name)
            if val is not None and not (
                isinstance(val, (tuple, list))
                and len(val) == 2
                and all(map(_finite, val))
                and val[0] <= val[1]
            ):
                raise ValueError(f"{name} must be two finite numbers lo <= hi, got {val!r}")

    @property
    def load_enabled(self) -> bool:
        return self.load_sigma is not None or self.load_cov is not None


def _finite(x) -> bool:
    """x is a finite real number; booleans are not numbers here."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def channel_stream(seed: int, trial: int, channel: int) -> np.random.Generator:
    """Independent generator for one (trial, channel) cell."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, channel)))


def check_load_channel(grid: GridModel, config: NoiseConfig) -> None:
    """Raise ValueError unless the load channel fits the grid's loads."""
    n_loads = len(grid.fixed_loads)
    if config.load_cov is not None and config.load_cov.shape[0] != 2 * n_loads:
        raise ValueError(
            f"load covariance is {config.load_cov.shape[0]}-dim "
            f"but the grid has {n_loads} loads"
        )
    if config.load_sigma is not None:
        missing = {ld.load_class for ld in grid.fixed_loads} - set(config.load_sigma)
        if missing:
            raise ValueError(f"load_sigma missing classes: {sorted(missing)}")


def _load_sampler(grid: GridModel, config: NoiseConfig):
    """Check the load channel against grid's loads; return its draw, a function of a generator."""
    check_load_channel(grid, config)
    n_loads = len(grid.fixed_loads)
    if config.load_cov is not None:
        # eigh handles rank-deficient covariances (e.g. one common factor
        # driving every load) that a plain Cholesky factorization rejects.
        mean, cov = np.zeros(2 * n_loads), config.load_cov
        return lambda rng: rng.multivariate_normal(mean, cov, method="eigh").reshape(2, -1).T
    if config.load_sigma is None:
        return lambda rng: np.zeros((n_loads, 2))
    sigma = np.array([config.load_sigma[ld.load_class] for ld in grid.fixed_loads])[:, None]
    return lambda rng: rng.normal(0.0, 1.0, size=(n_loads, 2)) * sigma


def sample_load_noise(
    grid: GridModel, config: NoiseConfig, rng: np.random.Generator
) -> np.ndarray:
    """One additive load perturbation, shape (n_loads, 2) for (dp, dq)."""
    return _load_sampler(grid, config)(rng)


@dataclass(frozen=True)
class TrialNoise:
    """NoiseModel for one run of one Monte Carlo trial.

    Each channel reads its own channel_stream(seed, trial, channel), made
    here, in step order, so a new run needs a new TrialNoise.  The load
    channel is checked against a grid's loads at its first draw for it.
    """

    config: NoiseConfig
    trial: int

    def __post_init__(self):
        stream = partial(channel_stream, self.config.seed, self.trial)
        load = stream(CHANNEL_LOAD) if self.config.load_enabled else None
        meas = self.config.meas_bounds
        if meas is not None:
            meas = MeasurementNoise(*meas, stream(CHANNEL_MEAS))
        object.__setattr__(self, "_load", load)
        object.__setattr__(self, "_meas", meas)
        object.__setattr__(self, "_sampler", (None, None))  # (grid, its checked load draw)

    def perturb_grid(self, grid: GridModel) -> np.ndarray | None:
        """The next load perturbation (see sample_load_noise); None with the channel off."""
        if self._load is None:
            return None
        if self._sampler[0] is not grid:
            object.__setattr__(self, "_sampler", (grid, _load_sampler(grid, self.config)))
        return self._sampler[1](self._load)

    def measurement_noise(self) -> MeasurementNoise | None:
        """The run's one MeasurementNoise: each measurement draws on from its stream."""
        return self._meas

    def sensitivity(self, smap: SensitivityMap) -> SensitivityMap:
        if self.config.sens_bounds is None:
            return smap
        return perturb_sensitivity(
            smap,
            self.config.sens_bounds,
            channel_stream(self.config.seed, self.trial, CHANNEL_SENS),
        )


def run_trial(
    grid: GridModel,
    smap: SensitivityMap,
    schedule: Sequence[SetPoint],
    controller_config: ControllerConfig,
    noise_config: NoiseConfig | None,
    u0: np.ndarray | None,
    trial: int,
) -> Trajectory:
    """run_schedule under every channel of a new TrialNoise(noise_config, trial), or noise-free."""
    if noise_config is None:
        return run_schedule(grid, smap, schedule, controller_config, u0=u0)
    noise = TrialNoise(noise_config, trial)
    return run_schedule(
        grid, noise.sensitivity(smap), schedule, controller_config, u0=u0, noise=noise
    )


def run_monte_carlo(
    grid: GridModel,
    schedule: Sequence[SetPoint],
    controller_config: ControllerConfig,
    noise_config: NoiseConfig,
    n_trials: int,
    smap: SensitivityMap | None = None,
    u0: np.ndarray | None = None,
    jobs: int = 1,
) -> TrajectorySet:
    """Run n_trials independent closed-loop realizations.

    Trial t is run_trial(..., t), on min(jobs, n_trials) processes; results
    are identical for any ``jobs`` because one process reads all of a trial's
    streams, in step order.  Aborted runs stay in the set (the classifier
    must see them) and are additionally listed in ``failures``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if smap is None:
        smap = compute_sensitivity(grid)
    run_one = partial(run_trial, grid, smap, tuple(schedule), controller_config, noise_config, u0)
    # A fork pool starts all its workers at once, so never more than trials.
    workers = min(jobs, n_trials)
    if workers == 1:
        trajectories = [run_one(t) for t in range(n_trials)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunk = max(1, n_trials // (4 * workers))
            trajectories = list(ex.map(run_one, range(n_trials), chunksize=chunk))
    failures = tuple(
        TrialFailure(trial=t, reason=traj.abort_reason or "aborted")
        for t, traj in enumerate(trajectories)
        if traj.aborted
    )
    return TrajectorySet(trajectories=tuple(trajectories), failures=failures)


@dataclass(frozen=True, eq=False)
class DensityHistogram:
    """2-D occupancy density over the PQ plane; rho integrates to one.

    A histogram with nothing binned (n_total 0: no state, or every state
    outside its extent) has zero counts and zero rho, so its
    normalization() is 0.0.
    """

    p_edges: np.ndarray
    q_edges: np.ndarray
    counts: np.ndarray
    rho: np.ndarray
    n_total: int
    n_dropped: int

    @property
    def cell_areas(self) -> np.ndarray:
        return np.outer(np.diff(self.p_edges), np.diff(self.q_edges))

    def normalization(self) -> float:
        """Integral of rho over the grid; 1 up to rounding, 0.0 when nothing was binned."""
        return float(np.sum(self.rho * self.cell_areas))


def density_histogram(
    tset: TrajectorySet | Sequence[Trajectory],
    bins: int | tuple[int, int] = 40,
    iteration: int | None = None,
    extent: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> DensityHistogram:
    """Bin true PCC states; iteration=None pools every recorded state.

    With an explicit ``extent``, points outside are dropped and counted;
    the default extent is the data bounding box grown by 1e-9 on every
    side.  Density is count / (cell area x binned total), so the histogram
    integrates to one by construction whenever anything was binned.  With
    nothing to bin, an explicit extent gives an empty histogram (every
    state and empty trajectory counted in n_dropped); without one,
    ValueError is raised.
    """
    trajs = _as_trajectories(tset)
    pts_list: list[np.ndarray] = []
    n_missing = 0
    for traj in trajs:
        pts = traj.pcc_path()
        if pts.shape[0] == 0:
            n_missing += 1
            continue
        if iteration is None:
            pts_list.append(pts)
        else:
            pts_list.append(pts[min(iteration, pts.shape[0] - 1)].reshape(1, 2))
    if not pts_list and extent is None:
        raise ValueError("no states to bin")
    pts = np.vstack(pts_list) if pts_list else np.empty((0, 2))

    if extent is None:
        span = 1e-9
        p_lo, p_hi = pts[:, 0].min() - span, pts[:, 0].max() + span
        q_lo, q_hi = pts[:, 1].min() - span, pts[:, 1].max() + span
        extent = ((p_lo, p_hi), (q_lo, q_hi))
    counts, p_edges, q_edges = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=bins, range=extent
    )
    n_binned = int(counts.sum())
    # With nothing binned every count is zero, and so is rho.
    rho = counts / (np.outer(np.diff(p_edges), np.diff(q_edges)) * max(n_binned, 1))
    return DensityHistogram(
        p_edges=p_edges,
        q_edges=q_edges,
        counts=counts.astype(int),
        rho=rho,
        n_total=n_binned,
        n_dropped=pts.shape[0] - n_binned + n_missing,
    )


def critical_fraction(
    tset: TrajectorySet | Sequence[Trajectory], polygon: FORPolygon
) -> tuple[float, tuple[float, float]]:
    """Fraction of trials that ever left the region (aborts count), with CI."""
    trajs = _as_trajectories(tset)
    if not trajs:
        raise ValueError("cannot score an empty trajectory set")
    n_critical = 0
    for traj in trajs:
        pts = traj.pcc_path()
        outside = pts.shape[0] > 0 and not bool(
            np.all(contains_many(polygon, pts, TOL_SAFETY))
        )
        if traj.aborted or outside:
            n_critical += 1
    return n_critical / len(trajs), wilson_interval(n_critical, len(trajs))


def export_histogram_csv(hist: DensityHistogram, path: str | Path) -> None:
    """Full cell grid, row-major over (p, q): center coordinates, count, density."""
    p_centers = 0.5 * (hist.p_edges[:-1] + hist.p_edges[1:])
    q_centers = 0.5 * (hist.q_edges[:-1] + hist.q_edges[1:])
    areas = hist.cell_areas
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p_center", "q_center", "n", "area", "rho"])
        for i, pc in enumerate(p_centers):
            for j, qc in enumerate(q_centers):
                writer.writerow(
                    [
                        repr(float(pc)),
                        repr(float(qc)),
                        int(hist.counts[i, j]),
                        repr(float(areas[i, j])),
                        repr(float(hist.rho[i, j])),
                    ]
                )
