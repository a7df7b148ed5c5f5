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

from conftest import DELETE, ODD_VALUES, grid_path, key_paths, mutated


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
    assert sc.n_angles == 72
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
    assert sc.n_angles == 16
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


def _schema(where: str, message: str) -> str:
    return f"violates schema at {where}: {message}"


def _unexpected(where: str, key: str) -> str:
    return _schema(where, f"Additional properties are not allowed ('{key}' was unexpected)")


# (name, mutation, fragment of the error message).  The test id is
# "<lambda>-" + name, so ids stay fixed when a message is reworded.
MALFORMED = [
    ("unknown keys", lambda d: d.update(surprise=1), _unexpected("<root>", "surprise")),
    (
        "missing required key 'grid'",
        lambda d: d.pop("grid"),
        _schema("<root>", "'grid' is a required property"),
    ),
    (
        "missing required key 'schedule'",
        lambda d: d.pop("schedule"),
        _schema("<root>", "'schedule' is a required property"),
    ),
    ("schedule", lambda d: d.update(schedule=[]), _schema("schedule", "[] should be non-empty")),
    ("pair", lambda d: d.update(schedule=[[0.1]]), _schema("schedule/0", "[0.1] is too short")),
    (
        "alpha",
        lambda d: d.update(controller={}),
        _schema("controller", "'alpha' is a required property"),
    ),
    (
        "unknown controller keys",
        lambda d: d.update(controller={"alpha": 0.1, "beta": 2}),
        _unexpected("controller", "beta"),
    ),
    ("controls", lambda d: d.update(u0=[0.1, 0.2]), "controls"),
    (
        "u0 leaves the unit boxes at q:g4 = -0.5",
        lambda d: d.update(u0=[0.1, 0.0, 0.0, -0.5]),
        "u0 leaves the unit boxes at q:g4 = -0.5",
    ),
    (
        "seed",
        lambda d: d.update(noise={"load_sigma": {"household": 0.1}}),
        _schema("noise", "'seed' is a required property"),
    ),
    (
        "unknown noise keys",
        lambda d: d.update(noise={"seed": 1, "fuzz": 2}),
        _unexpected("noise", "fuzz"),
    ),
    (
        "for block",
        lambda d: d.update({"for": {"n_angles": 2}}),
        _schema("for/n_angles", "2 is less than the minimum of 3"),
    ),
    ("unknown for keys", lambda d: d.update({"for": {"rays": 9}}), _unexpected("for", "rays")),
    (
        "removed for keys",
        lambda d: d.update({"for": {"gain_scale": 0.1}}),
        _unexpected("for", "gain_scale"),
    ),
    (
        "positive",
        lambda d: d.update(mc={"n_trials": 0}),
        _schema("mc/n_trials", "0 is less than the minimum of 1"),
    ),
    (
        "'n_trials' must be an integer",
        lambda d: d.update(mc={"n_trials": None}),
        _schema("mc/n_trials", "None is not of type 'integer'"),
    ),
    (
        "'n_trials' must be an integer",
        lambda d: d.update(mc={"n_trials": "abc"}),
        _schema("mc/n_trials", "'abc' is not of type 'integer'"),
    ),
    (
        "'n_trials' must be an integer, got 2.5",
        lambda d: d.update(mc={"n_trials": 2.5}),
        _schema("mc/n_trials", "2.5 is not of type 'integer'"),
    ),
    (
        "'max_iterations' must be an integer, got True",
        lambda d: d.update(controller={"alpha": 0.1, "max_iterations": True}),
        _schema("controller/max_iterations", "True is not of type 'integer'"),
    ),
    (
        "'alpha' must be a number",
        lambda d: d.update(controller={"alpha": True}),
        _schema("controller/alpha", "True is not of type 'number'"),
    ),
    (
        "'alpha' must be a number",
        lambda d: d.update(controller={"alpha": float("nan")}),
        _schema("controller/alpha", "nan is not of type 'number'"),
    ),
    (
        "'convergence_tol' must be a number",
        lambda d: d.update(controller={"alpha": 0.1, "convergence_tol": float("inf")}),
        _schema("controller/convergence_tol", "inf is not of type 'number'"),
    ),
    (
        "'n_angles' must be an integer",
        lambda d: d.update({"for": {"n_angles": 1e400}}),
        _schema("for/n_angles", "inf is not of type 'integer'"),
    ),
    (
        "'histogram_iterations' must be an integer, got 2.5",
        lambda d: d.update(mc={"histogram_iterations": [1, 2.5]}),
        _schema("mc/histogram_iterations/1", "2.5 is not of type 'integer'"),
    ),
    (
        "'histogram_iterations' must be a list of integers",
        lambda d: d.update(mc={"histogram_iterations": "12"}),
        _schema("mc/histogram_iterations", "'12' is not of type 'array'"),
    ),
    (
        "'seed' must be non-negative",
        lambda d: d.update(noise={"seed": -1}),
        _schema("noise/seed", "-1 is less than the minimum of 0"),
    ),
    ("unknown mc keys", lambda d: d.update(mc={"walks": 1}), _unexpected("mc", "walks")),
]


@pytest.mark.parametrize(
    "mutate, fragment",
    [case[1:] for case in MALFORMED],
    ids=[f"<lambda>-{case[0]}" for case in MALFORMED],
)
def test_malformed_scenarios_rejected(scenario_dir, mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    path = write_scenario(scenario_dir, doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert fragment in str(err.value)


def test_integral_floats_read_as_integers(scenario_dir):
    doc = {
        **MINIMAL,
        "mc": {"n_trials": 3.0, "histogram_iterations": [2.0]},
        "for": {"n_angles": 8.0},
    }
    sc = load_scenario(write_scenario(scenario_dir, doc))
    assert sc.mc_trials == 3 and type(sc.mc_trials) is int
    assert sc.histogram_iterations == (2,)
    # The region stamp hashes n_angles: its value type is part of it.
    assert sc.n_angles == 8 and type(sc.n_angles) is int


def test_missing_and_invalid_files(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "ghost.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    for text in (b"\xff{}", b"[" * 100_000 + b"]" * 100_000):  # not UTF-8; nested too deep
        bad.write_bytes(text)
        with pytest.raises(ScenarioError, match="is not valid JSON"):
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
    "for": {"n_angles": 16, "oracle_samples": 800},
    "mc": {"n_trials": 12, "histogram_bins": 10, "histogram_iterations": [0, 5]},
    "out_dir": "results",
}
# ring4 has three loads: a covariance over their six (dp, dq) entries.
COV = [[0.01 * (i == j) for j in range(6)] for i in range(6)]
WITH_COV = {**FULL, "noise": {"seed": 7, "load_cov": COV}}
@st.composite
def mutated_scenarios(draw):
    base = draw(st.sampled_from([MINIMAL, FULL, WITH_COV]))
    path = draw(st.sampled_from(list(key_paths(base))))
    doc = mutated(base, path, draw(st.sampled_from([*ODD_VALUES, DELETE])))
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
