"""Feasible-operating-region sweep, containment geometry, sampling oracle, CSV."""

import math

import numpy as np
import pytest

from flexsafe import for_region
from flexsafe.for_region import (
    ORACLE_CHUNK,
    FORError,
    FORPolygon,
    _binding_labels,
    _push_rays,
    contains_many,
    export_for_csv,
    polygon_area,
    read_for_csv,
    sample_oracle_for,
    sweep_for,
    verify_vertices,
)
from flexsafe.grid_model import load_grid
from flexsafe.power_flow import PowerFlowError, limit_violation, solve_power_flow
from flexsafe.sensitivity import compute_sensitivity

from conftest import assert_same_state, grid_path


@pytest.fixture(scope="module")
def diamond():
    return FORPolygon(
        vertices=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        angles=np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
    )


@pytest.fixture(scope="module")
def boxcase_poly(boxcase):
    return sweep_for(boxcase, n_angles=8)


def test_polygon_area_known_shapes():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_area(square) == 4.0
    assert polygon_area(square[::-1]) == 4.0  # orientation-independent
    triangle = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert polygon_area(triangle) == 6.0


def test_containment_boundary_inclusive(diamond):
    pts = np.array(
        [
            [0.0, 0.0],  # interior
            [1.0, 0.0],  # vertex
            [0.5, 0.5],  # mid-edge
            [0.5 + 1e-9, 0.5 + 1e-9],  # just outside
            [2.0, 2.0],  # far outside
        ]
    )
    inside = contains_many(diamond, pts, tol=0.0)
    assert inside.tolist() == [True, True, True, False, False]
    dilated = contains_many(diamond, pts, tol=0.1)
    assert dilated.tolist() == [True, True, True, True, False]
    assert contains_many(diamond, (0.2, -0.1)).tolist() == [True]  # one point, not an array


def test_containment_rejects_non_finite(diamond):
    pts = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    assert not contains_many(diamond, pts, tol=10.0).any()


def test_polygon_validation():
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(FORError):
        FORPolygon(vertices=two, angles=np.array([0.0, 1.0]))
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(FORError):  # angles must strictly increase
        FORPolygon(vertices=square, angles=np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(FORError):  # non-finite vertex
        FORPolygon(
            vertices=np.array([[np.nan, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
            angles=np.array([0.0, 1.0, 2.0]),
        )
    with pytest.raises(FORError):  # optional fields must align with vertices
        FORPolygon(
            vertices=square,
            angles=np.array([0.0, 1.0, 2.0, 3.0]),
            binding=(("p:u1:max",),),
        )


def test_sweep_config_validation(boxcase):
    with pytest.raises(ValueError, match="at least 3 sweep angles"):
        sweep_for(boxcase, n_angles=2)


def test_box_limits_recovered(boxcase_poly):
    """With no loads and a stiff tie, the region is the unit capability box."""
    v = boxcase_poly.vertices
    assert v[:, 0].max() == pytest.approx(0.4, abs=1e-6)
    assert v[:, 0].min() == pytest.approx(-0.4, abs=1e-6)
    # Reactive import also carries the tie's I^2 x loss, so the q extreme
    # sits slightly above the 0.3 pu unit limit; the export side slightly below.
    assert 0.3 - 1e-6 <= v[:, 1].max() <= 0.305
    assert -0.3 <= v[:, 1].min() <= -0.295
    assert boxcase_poly.area == pytest.approx(0.42, abs=0.01)


def test_vertices_lie_on_their_rays(boxcase_poly):
    for (p, q), theta in zip(boxcase_poly.vertices, boxcase_poly.angles):
        err = (math.atan2(q, p) - theta + math.pi) % (2 * math.pi) - math.pi
        assert abs(err) < 0.01


def test_binding_labels_name_real_limits(boxcase_poly, boxcase):
    lower, upper = boxcase.control_bounds()
    for tags, u in zip(boxcase_poly.binding, boxcase_poly.controls):
        assert tags  # a pushed-to-the-edge point must bind something
        for tag in tags:
            kind = tag.split(":")[0]
            assert kind in ("p", "q", "v", "s")
    # The pure-import vertex binds the unit's active-power floor.
    assert "p:u1:min" in boxcase_poly.binding[0]


def test_sweep_vertices_replay_on_true_plant(boxcase, boxcase_poly):
    violations, drift = verify_vertices(boxcase, boxcase_poly)
    assert violations.shape == (boxcase_poly.n_vertices,)
    assert np.max(violations) <= 1e-9
    assert np.max(drift) <= 1e-9


def test_ring4_sweep_mixed_binding(ring4):
    smap = compute_sensitivity(ring4)
    poly = sweep_for(ring4, smap=smap, n_angles=12)
    assert poly.n_vertices == 12
    assert polygon_area(poly.vertices) > 0.1
    kinds = {tag.split(":")[0] for tags in poly.binding for tag in tags}
    assert "p" in kinds or "q" in kinds
    violations, drift = verify_vertices(ring4, poly)
    assert np.max(violations) <= 1e-6
    assert np.max(drift) <= 1e-6


def test_oracle_counts_and_determinism(boxcase):
    sample = sample_oracle_for(boxcase, 500, seed=9)
    assert sample.n_requested == 500
    assert sample.n_feasible == len(sample.points)
    assert sample.n_feasible + sample.n_infeasible + sample.n_diverged == 500
    assert sample.n_feasible > 0
    again = sample_oracle_for(boxcase, 500, seed=9)
    assert np.array_equal(sample.points, again.points)
    other = sample_oracle_for(boxcase, 500, seed=10)
    assert not np.array_equal(sample.points, other.points)


def test_oracle_points_inside_swept_region(boxcase, boxcase_poly):
    """Feasible plant states stay within the (tolerance-dilated) sweep polygon.

    8 rays cut the box corners, so allow the corner-chord error plus the
    safety tolerance when checking containment.
    """
    sample = sample_oracle_for(boxcase, 400, seed=3)
    chord_slack = 0.09  # octagon-vs-rectangle corner gap for this box
    inside = contains_many(boxcase_poly, sample.points, tol=chord_slack)
    assert inside.mean() >= 0.99


def test_csv_round_trip(ring4, tmp_path):
    smap = compute_sensitivity(ring4)
    poly = sweep_for(ring4, smap=smap, n_angles=8)
    path = tmp_path / "region.csv"
    export_for_csv(poly, path)
    back = read_for_csv(path)
    assert np.array_equal(back.vertices, poly.vertices)
    assert np.array_equal(back.angles, poly.angles)
    assert back.binding == poly.binding
    assert back.area == pytest.approx(poly.area)


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FORError):
        read_for_csv(path)


HEADER = "theta_deg,p_pcc,q_pcc,binding_constraints\n"
GOOD_ROWS = "0.0,1.0,0.0,\n120.0,-0.5,0.8,\n240.0,-0.5,-0.8,\n"


@pytest.mark.parametrize(
    "body, message",
    [
        (HEADER + GOOD_ROWS + "0.0,0.5\n", r"line 5: expected 4 fields, got 2"),
        (HEADER + "0.0,x,0.1,\n" + GOOD_ROWS, r"line 2: a field is not a number"),
        (HEADER + GOOD_ROWS + "300.0,inf,0.0,\n", r"line 5: a field is not finite"),
        (HEADER, r"a polygon needs at least 3 vertices, got 0"),
        ("\udcff\udcfe", r"is not UTF-8 text \(byte 0\)"),
    ],
    ids=["short row", "not a number", "not finite", "header only", "not UTF-8"],
)
def test_read_names_the_path_and_line_of_a_bad_export(tmp_path, body, message):
    path = tmp_path / "region.csv"
    path.write_bytes(body.encode("utf-8", "surrogateescape"))
    with pytest.raises(FORError, match=message) as exc:
        read_for_csv(path)
    assert str(exc.value).startswith(str(path))


def _record_ray_guesses(monkeypatch) -> dict:
    """Per ray direction, each step's (warm-start guess, step QP active set), read from the kernel.

    A kernel member is known by the ray direction c of its row of the
    stacked cost gradient; a member whose plant failed takes no step.
    """
    recorded: dict = {}
    kernel = for_region.closed_loop_step

    def recording(grid, u, smap, alpha, gradient, template, **kwargs):
        stack, states = kernel(grid, u, smap, alpha, gradient, template, **kwargs)
        for c, guess, tags, solved in zip(
            gradient.c, kwargs["warm"], stack.active_set, states.converged
        ):
            if solved:
                recorded.setdefault(tuple(c.tolist()), []).append((guess, tags))
        return stack, states

    monkeypatch.setattr(for_region, "closed_loop_step", recording)
    return recorded


@pytest.mark.parametrize("name", ["ring4", "ring4_tightv", "synth30"])
def test_lockstep_sweep_equals_each_ray_alone(name, monkeypatch):
    """The rays pushed in lockstep give what each gives pushed alone, bit for bit.

    Each ray warm-starts its step QPs from its own last active set, so its
    guesses are those of the ray pushed alone.
    """
    grid = load_grid(grid_path(name))
    smap = compute_sensitivity(grid)
    recorded = _record_ray_guesses(monkeypatch)
    polygon = sweep_for(grid, smap=smap, n_angles=6)
    assert polygon.n_vertices == 6
    lockstep = dict(recorded)
    for i, theta in enumerate(polygon.angles):
        ray = (math.cos(theta), math.sin(theta))
        recorded.clear()
        ((u, state),) = _push_rays(grid, smap, [theta])
        assert recorded[ray] == lockstep[ray]
        assert sum(guess == tags for guess, tags in recorded[ray]) > len(recorded[ray]) / 2
        assert np.array_equal(polygon.controls[i], u)
        assert tuple(polygon.vertices[i]) == (state.p_pcc, state.q_pcc)
        assert polygon.binding[i] == _binding_labels(grid, u, state)
        assert_same_state(solve_power_flow(grid, control=u), state)
    violations, drift = verify_vertices(grid, polygon)
    assert np.all(drift == 0.0)
    assert np.max(violations) <= 1e-6


def oracle_one_by_one(grid, n_samples, seed):
    """The sampling oracle as one solve per sample: the reference for the stacked one."""
    rng = np.random.default_rng(seed)
    lower, upper = grid.control_bounds()
    points, n_infeasible, n_diverged = [], 0, 0
    for _ in range(n_samples):
        u = rng.uniform(lower, upper)
        try:
            state = solve_power_flow(grid, control=u)
        except PowerFlowError:
            n_diverged += 1
            continue
        if not state.converged:
            n_diverged += 1
        elif limit_violation(grid, state) > 1e-9:
            n_infeasible += 1
        else:
            points.append((state.p_pcc, state.q_pcc))
    return np.array(points).reshape(-1, 2), n_infeasible, n_diverged


@pytest.mark.parametrize("name", ["ring4_tightv", "synth30"])
def test_stacked_oracle_equals_one_by_one(name):
    grid = load_grid(grid_path(name))
    n = 2 * ORACLE_CHUNK + 37  # two full chunks and a partial one
    sample = sample_oracle_for(grid, n, seed=11)
    points, n_infeasible, n_diverged = oracle_one_by_one(grid, n, 11)
    assert np.array_equal(sample.points, points)
    assert (sample.n_requested, sample.n_infeasible, sample.n_diverged) == (
        n,
        n_infeasible,
        n_diverged,
    )
    if name == "ring4_tightv":  # its tight voltage band rejects some samples
        assert sample.n_infeasible > 0
