"""Grid data model: loading, validation, per-unit conversion, control wiring."""

import json
import math
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from flexsafe.grid_model import (
    GridError,
    GridLoadError,
    GridValidationError,
    apply_control,
    clip_control,
    control_labels,
    load_grid,
    validate,
)

from conftest import ALL_GRIDS, DELETE, ODD_VALUES, grid_path, key_paths, mutated


@pytest.mark.parametrize("name", ALL_GRIDS)
def test_fixtures_load_and_validate(name):
    grid = load_grid(grid_path(name))
    assert validate(grid) == []
    assert grid.n_bus == len(grid.buses)
    assert grid.slack_index == 0 or grid.buses[grid.slack_index].bus_type == "slack"


def test_per_unit_conversion(twobus):
    raw = json.loads(grid_path("twobus").read_text())
    assert twobus.s_base == raw["s_base_mva"]
    load = twobus.fixed_loads[0]
    assert load.p == raw["loads"][0]["p_mw"] / raw["s_base_mva"]
    assert load.q == raw["loads"][0]["q_mvar"] / raw["s_base_mva"]
    unit = twobus.flex_units[0]
    assert unit.p_max == raw["flex_units"][0]["p_max_mw"] / raw["s_base_mva"]


def test_scaling_invariance(tmp_path):
    """Doubling s_base and every MW figure leaves the per-unit model unchanged."""
    raw = json.loads(grid_path("twobus").read_text())
    raw["s_base_mva"] *= 2
    for unit in raw["flex_units"]:
        for key in ("p_min_mw", "p_max_mw", "q_min_mvar", "q_max_mvar", "p_mw", "q_mvar"):
            unit[key] = unit.get(key, 0.0) * 2
    for load in raw["loads"]:
        load["p_mw"] *= 2
        load["q_mvar"] *= 2
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(raw))
    a = load_grid(grid_path("twobus"))
    b = load_grid(scaled)
    assert b.s_base == 2 * a.s_base
    assert b.flex_units == a.flex_units
    assert b.fixed_loads == a.fixed_loads


def test_schema_rejects_malformed(tmp_path):
    raw = json.loads(grid_path("twobus").read_text())
    del raw["buses"][0]["v_kv"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(GridLoadError):
        load_grid(bad)

    raw = json.loads(grid_path("twobus").read_text())
    raw["buses"][0]["mystery_field"] = 1
    bad.write_text(json.dumps(raw))
    with pytest.raises(GridLoadError):
        load_grid(bad)

    bad.write_text("not json {")
    with pytest.raises(GridLoadError):
        load_grid(bad)

    bad.write_bytes(b"\xff{}")  # not UTF-8
    with pytest.raises(GridLoadError, match="is not valid JSON"):
        load_grid(bad)

    # JSON parsing reads NaN, Infinity and 1e400 as floats; no grid number may be one.
    for unit, key, value in [
        ("branches", "r_pu", float("nan")),
        ("flex_units", "p_max_mw", float("inf")),
        ("flex_units", "p_max_mw", 10**400),
    ]:
        raw = json.loads(grid_path("ring4").read_text())
        index = 1 if unit == "branches" else 0
        raw[unit][index][key] = value
        bad.write_text(json.dumps(raw))
        with pytest.raises(GridLoadError, match=f"violates schema at {unit}/{index}/{key}:"):
            load_grid(bad)


@pytest.mark.parametrize("name", ["grid", "scenario"])
def test_packaged_schemas_are_valid(name):
    text = resources.files("flexsafe.schemas").joinpath(f"{name}.schema.json").read_text()
    Draft202012Validator.check_schema(json.loads(text))


GRID_DOCS = [json.loads(grid_path(name).read_text()) for name in ALL_GRIDS]


@st.composite
def mutated_grids(draw):
    base = draw(st.sampled_from(GRID_DOCS))
    path = draw(st.sampled_from(list(key_paths(base))))
    doc = mutated(base, path, draw(st.sampled_from([*ODD_VALUES, DELETE])))
    return base if doc is None else doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "grid.json"


@settings(max_examples=300, deadline=None)
@given(doc=mutated_grids())
def test_mutated_grid_loads_or_raises_grid_error(fuzz_file, doc):
    """One odd key or leaf gives a GridError or a model whose numbers are finite."""
    fuzz_file.write_text(json.dumps(doc))
    try:
        grid = load_grid(fuzz_file)
    except GridError:
        return
    assert math.isfinite(grid.s_base)
    for item in (*grid.buses, *grid.branches, *grid.flex_units, *grid.fixed_loads):
        for field in fields(item):
            x = getattr(item, field.name)
            unlimited = field.name == "s_max" and x == math.inf
            assert not isinstance(x, float) or unlimited or math.isfinite(x), (item, field.name)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["branches"][0].update(to="nowhere"), "nowhere"),
        (lambda d: d.update(pcc_branch="ghost"), "ghost"),
        (lambda d: d["buses"].append(dict(d["buses"][1], id="b2")), "duplicate"),
        (lambda d: d["buses"][1].update(v_min_pu=1.2, v_max_pu=1.1), "v_min"),
        (lambda d: d["flex_units"][0].update(p_min_mw=6.0, p_max_mw=5.0), "p_min"),
    ],
)
def test_structural_validation(tmp_path, mutate, fragment):
    raw = json.loads(grid_path("twobus").read_text())
    mutate(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(GridValidationError) as err:
        load_grid(bad)
    assert fragment in str(err.value)


def test_disconnected_grid_rejected(tmp_path):
    raw = json.loads(grid_path("ring4").read_text())
    raw["buses"].append(
        {"id": "island", "type": "pq", "v_kv": 110.0, "v_min_pu": 0.9, "v_max_pu": 1.1}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(GridValidationError):
        load_grid(bad)


def test_control_vector_layout(ring4):
    labels = control_labels(ring4)
    assert labels == ("p:g3", "p:g4", "q:g3", "q:g4")
    u = ring4.control_vector()
    assert u.shape == (4,)
    lower, upper = ring4.control_bounds()
    assert np.all(lower <= u) and np.all(u <= upper)
    assert lower[0] == -0.4 and upper[2] == 0.3


def test_apply_control_is_pure(ring4):
    u = np.array([0.1, -0.2, 0.05, 0.0])
    g2 = apply_control(ring4, u)
    assert np.allclose(g2.control_vector(), u)
    assert np.allclose(ring4.control_vector(), 0.0)
    assert g2.buses is ring4.buses  # topology shared, units replaced


def test_clip_control(ring4):
    lower, upper = ring4.control_bounds()
    req = upper + 0.5
    clipped, events = clip_control(ring4, req)
    assert np.allclose(clipped, upper)
    assert len(events) == len(req)
    assert all(e.requested > e.bound for e in events)

    inside = (lower + upper) / 2
    same, events = clip_control(ring4, inside)
    assert np.allclose(same, inside)
    assert events == ()

    low = inside.copy()
    low[3] = lower[3] - 0.25
    _, events = clip_control(ring4, low)
    assert [(e.unit, e.field, e.bound) for e in events] == [("g4", "q", lower[3])]

    with pytest.raises(ValueError):
        clip_control(ring4, np.zeros(3))
