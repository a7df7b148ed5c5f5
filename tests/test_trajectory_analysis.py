"""Safety classification of trajectory ensembles against a planted polygon."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexsafe.cli import _write_json
from flexsafe.for_region import FORPolygon
from flexsafe.trajectory_analysis import (
    SafetyClass,
    TrajectorySet,
    TrialFailure,
    classify,
    coverage_metric,
    robustness_verdict,
    verdict_payload,
    wilson_interval,
)

from conftest import make_trajectory


@pytest.fixture(scope="module")
def diamond():
    return FORPolygon(
        vertices=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        angles=np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
    )


INSIDE_PATH = [(0.0, 0.0), (0.2, 0.1), (0.4, 0.2)]
EXCURSION_PATH = [(0.0, 0.0), (0.9, 0.9), (0.3, 0.2)]  # leaves, comes back
ESCAPE_PATH = [(0.0, 0.0), (0.5, 0.2), (0.9, 0.9)]  # ends outside


def test_all_inside_is_safe(diamond):
    traj = make_trajectory(INSIDE_PATH)
    assert np.array_equal(traj.pcc_path(), np.asarray(INSIDE_PATH))
    verdict = classify([traj] * 3, diamond)
    assert verdict.safety_class is SafetyClass.SAFE
    assert verdict.n_trajectories == 3
    assert verdict.n_transient_exits == 0
    assert verdict.n_final_exits == 0
    assert verdict.witness is None


def test_transient_exit_is_conditionally_safe(diamond):
    tset = [make_trajectory(INSIDE_PATH), make_trajectory(EXCURSION_PATH)]
    verdict = classify(tset, diamond)
    assert verdict.safety_class is SafetyClass.CONDITIONALLY_SAFE
    assert verdict.n_transient_exits == 1
    assert verdict.n_final_exits == 0
    assert verdict.witness is not None
    assert verdict.witness.trajectory == 1
    assert verdict.witness.step == 1
    assert verdict.witness.point == (0.9, 0.9)


def test_final_point_outside_is_unsafe(diamond):
    tset = [make_trajectory(EXCURSION_PATH), make_trajectory(ESCAPE_PATH)]
    verdict = classify(tset, diamond)
    assert verdict.safety_class is SafetyClass.UNSAFE
    assert verdict.n_final_exits == 1
    # The unsafe witness wins over the milder transient one.
    assert verdict.witness.trajectory == 1
    assert verdict.witness.step == 2


def test_aborted_trajectory_is_unsafe(diamond):
    tset = [make_trajectory(INSIDE_PATH), make_trajectory(INSIDE_PATH, aborted=True)]
    verdict = classify(tset, diamond)
    assert verdict.safety_class is SafetyClass.UNSAFE
    assert verdict.n_aborted == 1
    assert "abort" in verdict.witness.reason


def test_boundary_band_counts_as_inside(diamond):
    on_edge = [(0.0, 0.0), (0.5, 0.5)]  # final point exactly on the boundary
    nudged = [(0.0, 0.0), (0.5 + 4e-4, 0.5 + 4e-4)]  # outside but within tol
    verdict = classify([make_trajectory(on_edge), make_trajectory(nudged)], diamond)
    assert verdict.safety_class is SafetyClass.SAFE
    far = [(0.0, 0.0), (0.51, 0.51)]
    verdict = classify([make_trajectory(far)], diamond)
    assert verdict.safety_class is SafetyClass.UNSAFE


def test_classify_accepts_trajectory_set_wrapper(diamond):
    # Aborted runs stay in the trajectory tuple; the failures list mirrors
    # them for reporting and must not double-count in the verdict.
    tset = TrajectorySet(
        trajectories=(
            make_trajectory(INSIDE_PATH),
            make_trajectory(INSIDE_PATH, aborted=True),
        ),
        failures=(TrialFailure(trial=1, reason="power flow diverged"),),
    )
    assert len(tset) == 2
    verdict = classify(tset, diamond)
    assert verdict.safety_class is SafetyClass.UNSAFE
    assert verdict.n_aborted == 1
    assert verdict.n_trajectories == 2


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(8, 10)
    # Reference: Wilson (1927) score interval at 95%.
    assert lo == pytest.approx(0.4901625, abs=1e-6)
    assert hi == pytest.approx(0.9433178, abs=1e-6)
    assert wilson_interval(0, 10) == (pytest.approx(0.0), pytest.approx(0.2775328, abs=1e-6))
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0)
    assert lo == pytest.approx(0.7224672, abs=1e-6)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_coverage_grows_with_spread(diamond):
    tight = [
        make_trajectory([(0.0, 0.0), (0.1, 0.0)], target=(0.1, 0.0)),
        make_trajectory([(0.0, 0.0), (-0.05, 0.08)], target=(-0.05, 0.08)),
        make_trajectory([(0.0, 0.0), (-0.02, -0.09)], target=(-0.02, -0.09)),
    ]
    wide = [
        make_trajectory([(0.0, 0.0), (0.8, 0.0)], target=(0.8, 0.0)),
        make_trajectory([(0.0, 0.0), (-0.4, 0.64)], target=(-0.4, 0.64)),
        make_trajectory([(0.0, 0.0), (-0.16, -0.72)], target=(-0.16, -0.72)),
    ]
    c_tight = coverage_metric(tight, diamond)
    c_wide = coverage_metric(wide, diamond)
    assert 0.0 < c_tight < c_wide <= 1.0
    # Hand-checked: triangle over the wide endpoints / diamond area.
    pts = np.array([[0.8, 0.0], [-0.4, 0.64], [-0.16, -0.72]])
    d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
    expected = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0]) / diamond.area
    assert c_wide == pytest.approx(expected, rel=1e-12)


def test_coverage_truncates_at_step_k(diamond):
    paths = [
        [(0.0, 0.0), (0.9, 0.0), (0.9, 0.0)],
        [(0.0, 0.0), (0.0, 0.9), (0.0, 0.9)],
        [(0.0, 0.0), (-0.9, 0.0), (-0.9, 0.0)],
    ]
    tset = [make_trajectory(p, target=p[-1]) for p in paths]
    assert coverage_metric(tset, diamond, k=0) == 0.0  # all at the origin
    full = coverage_metric(tset, diamond)
    assert coverage_metric(tset, diamond, k=1) == pytest.approx(full)
    # k beyond the last step clamps to the final point.
    assert coverage_metric(tset, diamond, k=99) == pytest.approx(full)


COORD = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(
        st.tuples(
            st.tuples(COORD, COORD),
            st.sampled_from([(0.5, 0.5), (1.0, 1.0), (-0.3, 0.2), (0.0, -0.7)]),
        ),
        min_size=3,
        max_size=12,
    ),
    data=st.data(),
)
def test_coverage_does_not_depend_on_run_order(diamond, runs, data):
    """Runs sharing a target angle, as every mc trial does, in any order."""
    trajs = [make_trajectory([(0.0, 0.0), end], target=target) for end, target in runs]
    shuffled = data.draw(st.permutations(trajs))
    assert coverage_metric(shuffled, diamond) == coverage_metric(trajs, diamond)


def test_coverage_of_shared_target_is_the_star_polygon(diamond):
    """Endpoints around one target span their star polygon, not a crossed loop."""
    corners = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    crossed = [corners[i] for i in (0, 2, 1, 3)]
    trajs = [make_trajectory([(0.0, 0.0), c], target=(0.3, 0.3)) for c in crossed]
    assert coverage_metric(trajs, diamond) == pytest.approx(0.25, rel=1e-12)


def test_coverage_needs_three_trajectories(diamond):
    with pytest.raises(ValueError):
        coverage_metric([make_trajectory(INSIDE_PATH)] * 2, diamond)


def test_coverage_degenerate_endpoints_is_zero(diamond):
    collinear = [
        make_trajectory([(0.0, 0.0), (0.1, 0.1)], target=(0.5, 0.5)),
        make_trajectory([(0.0, 0.0), (0.2, 0.2)], target=(0.5, 0.5)),
        make_trajectory([(0.0, 0.0), (0.3, 0.3)], target=(0.5, 0.5)),
    ]
    assert coverage_metric(collinear, diamond) == 0.0


def test_robustness_report_composes(diamond):
    tset = TrajectorySet(
        trajectories=(
            make_trajectory(INSIDE_PATH, target=(0.4, 0.2)),
            make_trajectory(EXCURSION_PATH, target=(0.3, 0.2)),
            make_trajectory([(0.0, 0.0), (-0.3, 0.1)], converged=False, target=(-0.3, 0.1)),
        ),
    )
    report = robustness_verdict(tset, diamond)
    assert report.n_trials == 3
    assert report.n_converged == 2
    assert report.convergence_rate == pytest.approx(2 / 3)
    lo, hi = report.rate_ci
    assert lo < report.convergence_rate < hi
    assert report.verdict.safety_class is SafetyClass.CONDITIONALLY_SAFE
    assert 0.0 <= report.coverage <= 1.0


def test_verdict_json_round_trip(diamond, tmp_path):
    verdict = classify([make_trajectory(ESCAPE_PATH)], diamond)
    path = tmp_path / "run_verdict.json"
    _write_json(verdict_payload(verdict), path)
    data = json.loads(path.read_text())
    assert data["safety_class"] == "unsafe"
    assert data["n_trajectories"] == 1
    assert data["witness"]["step"] == 2
    assert path.read_text().endswith("\n")

    report = robustness_verdict([make_trajectory(INSIDE_PATH)] * 2, diamond)
    payload = verdict_payload(report)
    assert payload["verdict"]["safety_class"] == "safe"
    assert payload["coverage"] is None  # < 3 endpoints: coverage undefined
    assert payload["n_trials"] == 2
    json.dumps(payload)  # payload must be JSON-serializable as-is
