"""The functions perfbench traces still exist and are called as it counts them.

perfbench/tracing.py wraps flexsafe functions by (module, attribute) name
and counts controller steps by calls of ofo_controller.build_step_qp.  A
change that deletes or renames a traced function, or builds step QPs by
another route, fails here rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import flexsafe
from flexsafe import ofo_controller, power_flow
from flexsafe.for_region import sweep_for
from flexsafe.grid_model import GridModel
from flexsafe.ofo_controller import ControllerConfig, SetPoint, run_schedule
from flexsafe.sensitivity import compute_sensitivity

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for module, attr in _tracing().LAYERS:
        owner = importlib.import_module(f"flexsafe.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"flexsafe.{module}.{attr}"
    assert isinstance(vars(GridModel)["ybus"], cached_property)


def test_one_step_qp_built_per_recorded_step(ring4, monkeypatch):
    built = []
    original = ofo_controller.build_step_qp

    def counting(*args, **kwargs):
        problem = original(*args, **kwargs)
        built.append(len(problem.lower))  # what the trace reads of solve_qp's argument
        return problem

    monkeypatch.setattr(ofo_controller, "build_step_qp", counting)
    config = ControllerConfig(alpha=0.1, max_iterations=60)
    schedule = [SetPoint(0.2, 0.1), SetPoint(-0.1, 0.0)]
    traj = run_schedule(ring4, compute_sensitivity(ring4), schedule, config)
    assert len(traj.steps) > 2
    assert len(built) == len(traj.steps)


def _record_calls(monkeypatch, module, name) -> list:
    """Collect what every call of module.name returns, wrapped as perfbench wraps it.

    Callers import by name, so every flexsafe module attribute that holds
    the function is replaced.
    """
    original = getattr(module, name)
    returned = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        returned.append(out)
        return out

    modules = {m for m, _ in _tracing().LAYERS}
    for mod in (flexsafe, *(importlib.import_module(f"flexsafe.{m}") for m in modules)):
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, recording)
    return returned


def test_sweep_solves_the_plant_once_per_built_step(ring4, monkeypatch):
    """A lockstep sweep builds its step QPs and solves its plant once per kernel step.

    perfbench counts steps by build_step_qp calls and requires as many
    power-flow solves; it writes each solve's iteration count to JSON.
    """
    smap = compute_sensitivity(ring4)
    solves = _record_calls(monkeypatch, power_flow, "solve_power_flow")
    built = _record_calls(monkeypatch, ofo_controller, "build_step_qp")
    polygon = sweep_for(ring4, smap, n_angles=6)
    assert polygon.n_vertices == 6
    assert built and len(solves) >= len(built)
    assert all(type(out.iterations) is int for out in solves)
