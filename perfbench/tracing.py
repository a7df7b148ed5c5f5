"""Traced flexsafe command, and the per-layer metrics read from its spans.

    python3 tracing.py SPANS.json -- <flexsafe command line>

runs ``flexsafe.cli.main`` in this process with a wrapper around each
public layer function.  Callers import by name, so each wrapper replaces
every module attribute that holds the function: the attribute each caller
actually looks up.  A wrapper records a span (name, parent, start, end and
what the returned object says about the work done); spans stay in memory
and are written out when the command ends.

Nothing under src/ changes: the wrappers are installed from here.  The
metric functions below import nothing from flexsafe, so the benchmark can
use them on a spans file alone.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from collections import defaultdict

#: (module, attribute) of each wrapped function; "Class.method" wraps a method.
LAYERS = (
    ("scenario", "load_scenario"),
    ("grid_model", "apply_control"),
    ("power_flow", "solve_power_flow"),
    ("power_flow", "measure"),
    ("sensitivity", "compute_sensitivity"),
    ("sensitivity", "perturb_sensitivity"),
    ("qp_solver", "solve_qp"),
    ("qp_solver", "check_kkt"),
    ("ofo_controller", "build_step_qp"),
    ("ofo_controller", "run_schedule"),
    ("for_region", "sweep_for"),
    ("for_region", "sample_oracle_for"),
    ("for_region", "contains_many"),
    ("trajectory_analysis", "robustness_verdict"),
    ("uncertainty_mc", "run_monte_carlo"),
    ("uncertainty_mc", "channel_stream"),
    ("uncertainty_mc", "sample_load_noise"),
    ("uncertainty_mc", "TrialNoise.perturb_grid"),
    ("uncertainty_mc", "TrialNoise.measurement_noise"),
    ("uncertainty_mc", "density_histogram"),
    ("sensitivity", "export_sensitivity_csv"),
    ("ofo_controller", "export_trajectory_csv"),
    ("for_region", "export_for_csv"),
    ("uncertainty_mc", "export_histogram_csv"),
    ("cli", "_write_json"),
)

WRITERS = (
    "sensitivity.export_sensitivity_csv",
    "ofo_controller.export_trajectory_csv",
    "for_region.export_for_csv",
    "uncertainty_mc.export_histogram_csv",
    "cli._write_json",
)
NOISE = (
    "uncertainty_mc.channel_stream",
    "uncertainty_mc.sample_load_noise",
    "uncertainty_mc.TrialNoise.perturb_grid",
    "uncertainty_mc.TrialNoise.measurement_noise",
)

#: Per-layer metrics and their units, in report order.
METRICS = {
    "scenario.load_s": "s",
    "grid_model.apply_control_s": "s",
    "grid_model.ybus_builds_per_step": "count",
    "power_flow.solves": "count",
    "power_flow.solve_s": "s",
    "power_flow.us_per_solve": "us",
    "power_flow.newton_iters_per_solve": "count",
    "power_flow.measure_s": "s",
    "sensitivity.compute_s": "s",
    "sensitivity.perturb_s": "s",
    "qp_solver.solves": "count",
    "qp_solver.solve_s": "s",
    "qp_solver.check_kkt_s": "s",
    "qp_solver.iters_per_solve": "count",
    "qp_solver.rows_per_solve": "count",
    "qp_solver.nonoptimal": "count",
    "ofo_controller.steps": "count",
    "ofo_controller.us_per_step": "us",
    "ofo_controller.build_step_qp_s": "s",
    "ofo_controller.steps_per_segment": "count",
    "for_region.sweep_s": "s",
    "for_region.steps_per_ray": "count",
    "for_region.oracle_s": "s",
    "for_region.contains_many_s": "s",
    "trajectory_analysis.verdict_s": "s",
    "uncertainty_mc.noise_s": "s",
    "uncertainty_mc.streams_per_step": "count",
    "uncertainty_mc.steps_per_trial": "count",
    "uncertainty_mc.histogram_s": "s",
    "uncertainty_mc.trial_bytes": "bytes",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


# ---- recording (runs inside the traced process) ------------------------------


def _work(name: str, args, kwargs, out) -> dict | None:
    """What the returned object says about the work a call did."""
    if name == "power_flow.solve_power_flow":
        return {"iters": out.iterations}
    if name == "qp_solver.solve_qp":
        problem = args[0] if args else kwargs["problem"]
        return {"iters": out.iterations, "status": out.status, "rows": len(problem.lower)}
    if name == "ofo_controller.run_schedule":
        return {"steps": len(out.steps), "segments": len(out.segments)}
    if name == "for_region.sweep_for":
        return {"rays": out.n_vertices + len(out.failures)}
    if name == "uncertainty_mc.run_monte_carlo":
        trajs = out.trajectories
        size = sum(len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL)) for t in trajs)
        return {"trials": len(trajs), "steps": sum(len(t.steps) for t in trajs), "bytes": size / len(trajs)}
    if name in WRITERS:
        return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[-1])}
    return None


class Recorder:
    """Spans of one single-threaded process, held in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, work]
        self.stack: list[int] = []
        self.ybus_builds = 0
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            record[4] = _work(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import importlib
        from functools import cached_property

        modules = {m: importlib.import_module(f"flexsafe.{m}") for m, _ in LAYERS}
        for module, attr in LAYERS:
            name = f"{module}.{attr}"
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in (*modules.values(), importlib.import_module("flexsafe")):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        grid_cls = getattr(modules["grid_model"], "GridModel", None)
        prop = vars(grid_cls).get("ybus") if grid_cls is not None else None
        if not isinstance(prop, cached_property):
            self.missing.append("grid_model.GridModel.ybus")
            return

        def ybus(grid):
            self.ybus_builds += 1
            return prop.func(grid)

        counted = cached_property(ybus)
        counted.__set_name__(grid_cls, "ybus")
        grid_cls.ybus = counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "ybus_builds": self.ybus_builds, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    spans_path, sep, *command = argv
    if sep != "--":
        print("usage: tracing.py SPANS.json -- <flexsafe arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from flexsafe.cli import main as flexsafe_main

    try:
        return flexsafe_main(command)
    finally:
        recorder.dump(spans_path)


# ---- metrics (runs in the benchmark) ----------------------------------------


class Trace:
    """Spans with parent links resolved, self times and ancestor names."""

    def __init__(self, doc: dict):
        self.spans = doc["spans"]
        self.ybus_builds = doc["ybus_builds"]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time = [0.0] * len(self.spans)
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            self.by_name[name].append(i)
            if parent is not None:
                self.child_time[parent] += end - start

    def duration(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def ancestors(self, i: int) -> set[str]:
        names = set()
        parent = self.spans[i][1]
        while parent is not None:
            names.add(self.spans[parent][0])
            parent = self.spans[parent][1]
        return names

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str) -> float:
        """Time covered by calls of ``name``, nested calls counted once."""
        return sum(self.duration(i) for i in self.by_name[name] if name not in self.ancestors(i))

    def self_total(self, names) -> float:
        return sum(self.self_time(i) for n in names for i in self.by_name[n])

    def work(self, name: str, key: str) -> list:
        return [self.spans[i][4][key] for i in self.by_name[name] if self.spans[i][4]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from a spans file."""
    t = Trace(doc)
    steps = t.count("ofo_controller.build_step_qp")
    solves = t.count("power_flow.solve_power_flow")
    loop_solves = [
        t.spans[i][4]["iters"]
        for i in t.by_name["power_flow.solve_power_flow"]
        if (a := t.ancestors(i)) & {"ofo_controller.run_schedule", "for_region.sweep_for"}
        and "sensitivity.compute_sensitivity" not in a
    ]
    sweep_linearization = sum(
        t.duration(i)
        for i in t.by_name["sensitivity.compute_sensitivity"]
        if "for_region.sweep_for" in t.ancestors(i)
    )
    loop_time = t.total("ofo_controller.run_schedule") + t.total("for_region.sweep_for") - sweep_linearization
    sweep_steps = sum(
        1 for i in t.by_name["ofo_controller.build_step_qp"] if "for_region.sweep_for" in t.ancestors(i)
    )
    qp_iters = t.work("qp_solver.solve_qp", "iters")
    qp_rows = t.work("qp_solver.solve_qp", "rows")
    segments = sum(t.work("ofo_controller.run_schedule", "segments"))
    trials = sum(t.work("uncertainty_mc.run_monte_carlo", "trials"))
    trial_bytes = t.work("uncertainty_mc.run_monte_carlo", "bytes")
    return {
        "scenario.load_s": t.total("scenario.load_scenario"),
        "grid_model.apply_control_s": t.total("grid_model.apply_control"),
        "grid_model.ybus_builds_per_step": _ratio(t.ybus_builds, steps),
        "power_flow.solves": solves,
        "power_flow.solve_s": t.self_total(["power_flow.solve_power_flow"]),
        "power_flow.us_per_solve": 1e6 * _ratio(t.self_total(["power_flow.solve_power_flow"]), solves),
        "power_flow.newton_iters_per_solve": _ratio(sum(loop_solves), len(loop_solves)),
        "power_flow.measure_s": t.total("power_flow.measure"),
        "sensitivity.compute_s": t.total("sensitivity.compute_sensitivity"),
        "sensitivity.perturb_s": t.total("sensitivity.perturb_sensitivity"),
        "qp_solver.solves": t.count("qp_solver.solve_qp"),
        "qp_solver.solve_s": t.self_total(["qp_solver.solve_qp"]),
        "qp_solver.check_kkt_s": t.total("qp_solver.check_kkt"),
        "qp_solver.iters_per_solve": _ratio(sum(qp_iters), len(qp_iters)),
        "qp_solver.rows_per_solve": _ratio(sum(qp_rows), len(qp_rows)),
        "qp_solver.nonoptimal": sum(1 for s in t.work("qp_solver.solve_qp", "status") if s != "optimal"),
        "ofo_controller.steps": steps,
        "ofo_controller.us_per_step": 1e6 * _ratio(loop_time, steps),
        "ofo_controller.build_step_qp_s": t.total("ofo_controller.build_step_qp"),
        "ofo_controller.steps_per_segment": _ratio(steps - sweep_steps, segments),
        "for_region.sweep_s": t.total("for_region.sweep_for"),
        "for_region.steps_per_ray": _ratio(sweep_steps, sum(t.work("for_region.sweep_for", "rays"))),
        "for_region.oracle_s": t.total("for_region.sample_oracle_for"),
        "for_region.contains_many_s": t.total("for_region.contains_many"),
        "trajectory_analysis.verdict_s": t.total("trajectory_analysis.robustness_verdict"),
        "uncertainty_mc.noise_s": t.self_total(NOISE),
        "uncertainty_mc.streams_per_step": _ratio(t.count("uncertainty_mc.channel_stream"), steps),
        "uncertainty_mc.steps_per_trial": _ratio(sum(t.work("uncertainty_mc.run_monte_carlo", "steps")), trials),
        "uncertainty_mc.histogram_s": t.total("uncertainty_mc.density_histogram"),
        "uncertainty_mc.trial_bytes": _ratio(sum(trial_bytes), len(trial_bytes)),
        "cli.write_s": sum(t.total(w) for w in WRITERS),
        "cli.artifact_bytes": sum(sum(t.work(w, "bytes")) for w in WRITERS),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
