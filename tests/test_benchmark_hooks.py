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

from flexsafe import ofo_controller
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
