"""Safety classification of closed-loop trajectory sets against a region.

A trajectory set is Safe when every recorded operating point of every run
stays inside the region (within tolerance) and no run aborted;
ConditionallySafe when every final point is inside but some transient
excursion left the region; Unsafe when a final point lands outside or a run
aborted before producing one.  The missing tail of an aborted run cannot be
checked, so it is treated as outside: the classifier never upgrades a set
on evidence it does not have.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from flexsafe.for_region import FORPolygon, contains_many, polygon_area
from flexsafe.ofo_controller import Trajectory

#: Containment tolerance used when classifying trajectories against a region.
TOL_SAFETY = 1e-3


class SafetyClass(Enum):
    SAFE = "safe"
    CONDITIONALLY_SAFE = "conditionally_safe"
    UNSAFE = "unsafe"


@dataclass(frozen=True)
class TrialFailure:
    """A run that produced no usable trajectory, with the reason kept."""

    trial: int
    reason: str


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Trajectories under one scenario, with the runs that failed listed apart."""

    trajectories: tuple[Trajectory, ...]
    failures: tuple[TrialFailure, ...] = ()

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class Witness:
    """First piece of evidence for the assigned class (trajectory, step, point)."""

    trajectory: int
    step: int
    point: tuple[float, float] | None
    reason: str


@dataclass(frozen=True, eq=False)
class SafetyVerdict:
    safety_class: SafetyClass
    tol: float
    n_trajectories: int
    n_transient_exits: int
    n_final_exits: int
    n_aborted: int
    witness: Witness | None


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """Ensemble verdict plus convergence statistics under disturbances."""

    verdict: SafetyVerdict
    n_trials: int
    n_converged: int
    convergence_rate: float
    rate_ci: tuple[float, float]
    coverage: float


def _as_trajectories(tset) -> tuple[Trajectory, ...]:
    if isinstance(tset, TrajectorySet):
        return tset.trajectories
    return tuple(tset)


def classify(tset: TrajectorySet | Sequence[Trajectory], polygon: FORPolygon) -> SafetyVerdict:
    """Assign Safe / ConditionallySafe / Unsafe to a trajectory set, at tolerance TOL_SAFETY.

    Severity order when picking the witness: an aborted run or a final
    point outside the region decides Unsafe; otherwise the first transient
    excursion decides ConditionallySafe.
    """
    trajs = _as_trajectories(tset)
    if not trajs:
        raise ValueError("cannot classify an empty trajectory set")

    n_transient = 0
    n_final = 0
    n_aborted = 0
    unsafe_witness: Witness | None = None
    transient_witness: Witness | None = None

    for ti, traj in enumerate(trajs):
        pts = traj.pcc_path()
        inside = (
            contains_many(polygon, pts, TOL_SAFETY)
            if pts.shape[0]
            else np.empty(0, dtype=bool)
        )
        if traj.aborted:
            n_aborted += 1
            if unsafe_witness is None:
                unsafe_witness = Witness(
                    trajectory=ti, step=traj.k_f, point=None, reason="aborted"
                )
        elif inside.size and not inside[-1]:
            n_final += 1
            if unsafe_witness is None:
                unsafe_witness = Witness(
                    trajectory=ti,
                    step=traj.k_f,
                    point=(float(pts[-1, 0]), float(pts[-1, 1])),
                    reason="final_exit",
                )
        transient = np.flatnonzero(~inside[:-1]) if inside.size else np.empty(0, int)
        if transient.size:
            n_transient += 1
            if transient_witness is None:
                k = int(transient[0])
                transient_witness = Witness(
                    trajectory=ti,
                    step=k,
                    point=(float(pts[k, 0]), float(pts[k, 1])),
                    reason="transient_exit",
                )

    if n_aborted or n_final:
        cls, witness = SafetyClass.UNSAFE, unsafe_witness
    elif n_transient:
        cls, witness = SafetyClass.CONDITIONALLY_SAFE, transient_witness
    else:
        cls, witness = SafetyClass.SAFE, None
    return SafetyVerdict(
        safety_class=cls,
        tol=TOL_SAFETY,
        n_trajectories=len(trajs),
        n_transient_exits=n_transient,
        n_final_exits=n_final,
        n_aborted=n_aborted,
        witness=witness,
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial rate, 95% two-sided."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = 1.959963984540054  # standard normal quantile of a 95% two-sided interval
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def coverage_metric(
    tset: TrajectorySet | Sequence[Trajectory],
    polygon: FORPolygon,
    k: int | None = None,
) -> float:
    """Fraction of the region area spanned by trajectory endpoints at step k.

    Endpoints are taken at min(k, last recorded step) and ordered by the
    angle of each trajectory's final target, so the spanned polygon grows
    outward as the runs progress.  Runs with equally angled targets (every
    mc trial shares its targets) are ordered by their endpoint's angle about
    the endpoints' centroid, then by its coordinates, so the result does not
    depend on the order of the runs.  Degenerate endpoint sets span
    zero area.
    """
    trajs = _as_trajectories(tset)
    if len(trajs) < 3:
        raise ValueError(f"coverage needs at least 3 trajectories, got {len(trajs)}")
    endpoints = []
    order_angles = []
    for traj in trajs:
        pts = traj.pcc_path()
        if pts.shape[0] == 0:
            raise ValueError("coverage is undefined for an empty trajectory")
        idx = pts.shape[0] - 1 if k is None else min(k, pts.shape[0] - 1)
        endpoints.append(pts[idx])
        target = traj.segments[-1].setpoint
        order_angles.append(math.atan2(target.q_set, target.p_set))
    endpoints = np.array(endpoints)
    # fsum is exactly rounded, so the centroid does not depend on run order.
    centroid = [math.fsum(col) / len(trajs) for col in endpoints.T]
    dp, dq = endpoints[:, 0] - centroid[0], endpoints[:, 1] - centroid[1]
    order = np.lexsort((endpoints[:, 1], endpoints[:, 0], np.arctan2(dq, dp), order_angles))
    spanned = polygon_area(endpoints[order])
    total = polygon.area
    if total <= 0.0:
        return 0.0
    return spanned / total


def robustness_verdict(
    tset: TrajectorySet | Sequence[Trajectory], polygon: FORPolygon
) -> RobustnessReport:
    """Classify an ensemble and summarize its convergence statistics."""
    trajs = _as_trajectories(tset)
    verdict = classify(trajs, polygon)
    n_converged = sum(1 for t in trajs if t.converged)
    try:
        coverage = coverage_metric(trajs, polygon)
    except ValueError:
        coverage = float("nan")
    return RobustnessReport(
        verdict=verdict,
        n_trials=len(trajs),
        n_converged=n_converged,
        convergence_rate=n_converged / len(trajs),
        rate_ci=wilson_interval(n_converged, len(trajs)),
        coverage=coverage,
    )


def _json_value(value):
    """A SafetyClass as its value, a non-finite float (the coverage of < 3 runs) as None."""
    if isinstance(value, SafetyClass):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def verdict_payload(obj: SafetyVerdict | RobustnessReport) -> dict:
    """JSON-ready dict for a verdict or a full robustness report."""
    return asdict(obj, dict_factory=lambda items: {k: _json_value(v) for k, v in items})
