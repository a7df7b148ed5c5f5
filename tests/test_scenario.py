"""Scenario file parsing: defaults, validation, path resolution, hashing."""

import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexsafe.scenario import (
    HULL_VERTICES,
    ScenarioError,
    config_hash,
    load_scenario,
)

from conftest import grid_path


@pytest.fixture()
def scenario_dir(tmp_path):
    shutil.copy(grid_path("ring4"), tmp_path / "ring4.json")
    return tmp_path


def write_scenario(directory, doc, name="scenario.json"):
    path = directory / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "grid": "ring4.json",
    "controller": {"alpha": 0.1},
    "schedule": [[0.2, 0.1]],
}


def test_minimal_scenario_and_defaults(scenario_dir):
    sc = load_scenario(write_scenario(scenario_dir, MINIMAL))
    assert sc.grid.pcc == "tie"
    assert sc.controller.alpha == 0.1
    assert sc.controller.max_iterations == 500
    assert sc.controller.convergence_tol == 1e-3
    assert len(sc.schedule) == 1
    assert sc.schedule[0].p_set == 0.2
    assert sc.u0 is None and sc.noise is None and sc.out_dir is None
    assert sc.sweep.n_angles == 72
    assert sc.oracle_samples == 5000
    assert sc.mc_trials == 100
    assert sc.histogram_bins == 40
    assert sc.histogram_iterations == ()
    assert len(sc.config_hash) == 64


def test_full_scenario_round_trip(scenario_dir):
    doc = {
        **MINIMAL,
        "u0": [0.1, 0.0, 0.0, 0.0],
        "noise": {
            "seed": 7,
            "load_sigma": {"household": 0.01, "industry": 0.01, "commercial": 0.01},
            "meas_bounds": [-0.02, 0.02],
            "sens_bounds": [-0.05, 0.05],
        },
        "for": {"n_angles": 16, "oracle_samples": 800},
        "mc": {"n_trials": 12, "histogram_bins": 10, "histogram_iterations": [0, 5]},
        "out_dir": "results",
    }
    sc = load_scenario(write_scenario(scenario_dir, doc))
    assert sc.u0.tolist() == [0.1, 0.0, 0.0, 0.0]
    assert sc.noise.seed == 7
    assert sc.noise.meas_bounds == (-0.02, 0.02)
    assert sc.sweep.n_angles == 16
    assert sc.oracle_samples == 800
    assert sc.mc_trials == 12
    assert sc.histogram_iterations == (0, 5)
    assert sc.out_dir == scenario_dir / "results"


def test_hull_vertices_schedule(scenario_dir):
    doc = {**MINIMAL, "schedule": HULL_VERTICES}
    sc = load_scenario(write_scenario(scenario_dir, doc))
    assert sc.schedule == HULL_VERTICES


def test_grid_path_relative_to_scenario(scenario_dir):
    nested = scenario_dir / "sub"
    nested.mkdir()
    doc = {**MINIMAL, "grid": "../ring4.json"}
    sc = load_scenario(write_scenario(nested, doc))
    assert sc.grid_path == scenario_dir / "ring4.json"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(surprise=1), "unknown keys"),
        (lambda d: d.pop("grid"), "missing required key 'grid'"),
        (lambda d: d.pop("schedule"), "missing required key 'schedule'"),
        (lambda d: d.update(schedule=[]), "schedule"),
        (lambda d: d.update(schedule=[[0.1]]), "pair"),
        (lambda d: d.update(controller={}), "alpha"),
        (lambda d: d.update(controller={"alpha": 0.1, "beta": 2}), "unknown controller keys"),
        (lambda d: d.update(u0=[0.1, 0.2]), "controls"),
        (lambda d: d.update(u0=[0.1, 0.0, 0.0, -0.5]), "u0 leaves the unit boxes at q:g4 = -0.5"),
        (lambda d: d.update(noise={"load_sigma": {"household": 0.1}}), "seed"),
        (lambda d: d.update(noise={"seed": 1, "fuzz": 2}), "unknown noise keys"),
        (lambda d: d.update({"for": {"n_angles": 2}}), "for block"),
        (lambda d: d.update({"for": {"rays": 9}}), "unknown for keys"),
        (lambda d: d.update(mc={"n_trials": 0}), "positive"),
        (lambda d: d.update(mc={"n_trials": None}), "'n_trials' must be an integer"),
        (lambda d: d.update(mc={"n_trials": "abc"}), "'n_trials' must be an integer"),
        (lambda d: d.update(mc={"n_trials": 2.5}), "'n_trials' must be an integer, got 2.5"),
        (
            lambda d: d.update(controller={"alpha": 0.1, "max_iterations": True}),
            "'max_iterations' must be an integer, got True",
        ),
        (lambda d: d.update(controller={"alpha": True}), "'alpha' must be a number"),
        (lambda d: d.update(controller={"alpha": float("nan")}), "'alpha' must be a number"),
        (lambda d: d.update({"for": {"stall_tol": float("inf")}}), "'stall_tol' must be a number"),
        (lambda d: d.update({"for": {"patience": 1e400}}), "'patience' must be an integer"),
        (
            lambda d: d.update(mc={"histogram_iterations": [1, 2.5]}),
            "'histogram_iterations' must be an integer, got 2.5",
        ),
        (
            lambda d: d.update(mc={"histogram_iterations": "12"}),
            "'histogram_iterations' must be a list of integers",
        ),
        (lambda d: d.update(noise={"seed": -1}), "'seed' must be non-negative"),
        (lambda d: d.update(mc={"walks": 1}), "unknown mc keys"),
    ],
)
def test_malformed_scenarios_rejected(scenario_dir, mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    path = write_scenario(scenario_dir, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert fragment in str(err.value)


def test_integral_floats_read_as_integers(scenario_dir):
    doc = {**MINIMAL, "mc": {"n_trials": 3.0, "histogram_iterations": [2.0]}}
    sc = load_scenario(write_scenario(scenario_dir, doc))
    assert sc.mc_trials == 3 and type(sc.mc_trials) is int
    assert sc.histogram_iterations == (2,)


def test_missing_and_invalid_files(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "ghost.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    missing_grid = write_scenario(tmp_path, MINIMAL)
    with pytest.raises(ScenarioError):
        load_scenario(missing_grid)  # grid file absent in tmp_path


def test_config_hash_canonicalization():
    a = {"grid": "g.json", "controller": {"alpha": 0.1}, "schedule": [[0.1, 0.2]]}
    b = {"schedule": [[0.1, 0.2]], "controller": {"alpha": 0.1}, "grid": "g.json"}
    assert config_hash(a) == config_hash(b)  # key order is irrelevant
    c = {**a, "controller": {"alpha": 0.2}}
    assert config_hash(a) != config_hash(c)


def test_hash_matches_loaded_scenario(scenario_dir):
    path = write_scenario(scenario_dir, MINIMAL)
    sc = load_scenario(path)
    assert sc.config_hash == config_hash(json.loads(path.read_text()))


SIGMA = {"household": 0.01, "industry": 0.01, "commercial": 0.01}
FULL = {
    **MINIMAL,
    "controller": {"alpha": 0.1, "max_iterations": 50, "convergence_tol": 1e-3},
    "schedule": [[0.2, 0.1], [0.0, -0.1]],
    "u0": [0.1, 0.0, 0.0, 0.0],
    "noise": {
        "seed": 7,
        "load_sigma": SIGMA,
        "meas_bounds": [-0.02, 0.02],
        "sens_bounds": [-0.05, 0.05],
    },
    "for": {"n_angles": 16, "oracle_samples": 800, "gain_scale": 0.1, "patience": 8},
    "mc": {"n_trials": 12, "histogram_bins": 10, "histogram_iterations": [0, 5]},
    "out_dir": "results",
}
# ring4 has three loads: a covariance over their six (dp, dq) entries.
COV = [[0.01 * (i == j) for j in range(6)] for i in range(6)]
WITH_COV = {**FULL, "noise": {"seed": 7, "load_cov": COV}}
ODD_VALUES = [None, True, 2.5, float("nan"), float("inf"), -float("inf"), -1, "x", [], {}, [0.1]]
DELETE = object()


def _paths(node, prefix=()):
    """Every key and list position under node, as a path of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
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


@st.composite
def mutated_scenarios(draw):
    base = draw(st.sampled_from([MINIMAL, FULL, WITH_COV]))
    path = draw(st.sampled_from(list(_paths(base))))
    doc = _mutated(base, path, draw(st.sampled_from([*ODD_VALUES, DELETE])))
    return base if doc is None else doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    shutil.copy(grid_path("ring4"), directory / "ring4.json")
    return directory


@settings(max_examples=300, deadline=None)
@given(doc=mutated_scenarios())
def test_mutated_scenario_loads_or_raises_scenario_error(fuzz_dir, doc):
    """One odd key or leaf gives a ScenarioError or a scenario whose numbers are finite."""
    try:
        sc = load_scenario(write_scenario(fuzz_dir, doc))
    except ScenarioError:
        return
    numbers = [] if sc.u0 is None else list(sc.u0)
    if sc.schedule != HULL_VERTICES:
        numbers += [x for sp in sc.schedule for x in (sp.p_set, sp.q_set)]
    if sc.noise is not None:
        numbers += list((sc.noise.load_sigma or {}).values())
        numbers += [] if sc.noise.load_cov is None else list(sc.noise.load_cov.ravel())
        numbers += [*(sc.noise.meas_bounds or ()), *(sc.noise.sens_bounds or ())]
    assert all(type(x) is not bool and math.isfinite(x) for x in numbers)
