"""The benchmark's own tests; run with

    python3 -m pytest perfbench/selftest.py -q

The file name keeps them out of the repository's tier-1 collection.
They check the reference power flow against a closed form, the geometry
helpers, and that every output check rejects a planted wrong artifact.
The artifacts come from real flexsafe commands on scaled-down workloads.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import refpf
import run
import tracing


def flexsafe(*args) -> None:
    subprocess.run([sys.executable, "-m", "flexsafe.cli", *map(str, args)], env=run._env(), check=True, capture_output=True)


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def planted(tmp_path: Path, out: Path) -> Path:
    copy = tmp_path / "planted"
    shutil.copytree(out, copy)
    return copy


# ---- reference power flow ----------------------------------------------------


def two_bus(x: float) -> dict:
    return {
        "s_base_mva": 1.0,
        "buses": [
            {"id": "a", "type": "slack", "v_kv": 10.0, "v_min_pu": 0.5, "v_max_pu": 1.5},
            {"id": "b", "type": "pq", "v_kv": 10.0, "v_min_pu": 0.5, "v_max_pu": 1.5},
        ],
        "branches": [{"id": "ab", "from": "a", "to": "b", "r_pu": 0.0, "x_pu": x, "s_max_mva": None}],
        "flex_units": [
            {"id": "g", "bus": "b", "p_min_mw": -2.0, "p_max_mw": 2.0, "q_min_mvar": -2.0, "q_max_mvar": 2.0}
        ],
        "loads": [],
        "pcc_branch": "ab",
    }


@pytest.mark.parametrize("p, q", [(0.0, 0.0), (0.8, 0.3), (-1.2, 0.5), (0.4, -0.9)])
def test_reference_pf_matches_two_bus_closed_form(p, q):
    # Slack at 1 + 0j, lossless reactance x, injection p + jq at bus b.
    # With V = a + jb, the injection is j(|V|^2 - V) / x, so p = b / x and
    # q = (a^2 + b^2 - a) / x: b = p x and a is the root of
    # a^2 - a + (p x)^2 - q x = 0 near 1.  The slack end sends
    # conj((1 - V) / (jx)) = (-b + j(1 - a)) / x into the branch.
    x = 0.05
    b = p * x
    a = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * (b * b - q * x)))
    grid = refpf.load_ref_grid(two_bus(x))
    state = refpf.solve(grid, np.array([p, q]))
    assert abs(state.voltage[1] - complex(a, b)) < 1e-11
    p_pcc, q_pcc = refpf.pcc_flow(grid, state)
    assert abs(p_pcc + b / x) < 1e-10 and abs(q_pcc - (1.0 - a) / x) < 1e-10


def test_reference_pf_conserves_power_on_a_lossless_ring():
    doc = json.loads((inputs.GRIDS / "ring4.json").read_text())
    for br in doc["branches"]:
        br["r_pu"], br["b_pu"] = 0.0, 0.0
    grid = refpf.load_ref_grid(doc)
    u = np.array([0.2, -0.1, 0.05, 0.1])
    state = refpf.solve(grid, u)
    p_pcc, _ = refpf.pcc_flow(grid, state)
    assert abs(p_pcc + refpf.injections(grid, u).real.sum()) < 1e-10


# ---- geometry and statistics ---------------------------------------------------


def test_inside_dilated_on_a_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    points = np.array([[0.5, 0.5], [1.5, 0.5], [1.0005, 0.5], [-0.002, 0.5], [1.0007, 1.0007], [0.5, 0.0]])
    assert checks.inside_dilated(square, points, 1e-3).tolist() == [True, False, True, False, True, True]
    assert checks.inside_dilated(square[::-1], points[:2], 0.0).tolist() == [True, False]


def test_wilson_interval_textbook_values():
    lo, hi = checks.wilson(5, 10)
    assert abs(lo - 0.2366) < 1e-4 and abs(hi - 0.7634) < 1e-4
    assert checks.wilson(0, 20)[0] == 0.0 and checks.wilson(20, 20)[1] == 1.0


def test_self_time_excludes_children():
    doc = {
        "ybus_builds": 2,
        "missing": [],
        "spans": [
            ["ofo_controller.run_schedule", None, 0.0, 10.0, {"steps": 1, "segments": 1}],
            ["ofo_controller.build_step_qp", 0, 1.0, 2.0, None],
            ["qp_solver.solve_qp", 0, 2.0, 5.0, {"iters": 4, "status": "optimal", "rows": 12}],
            ["qp_solver.check_kkt", 2, 3.0, 4.0, None],
            ["power_flow.solve_power_flow", 0, 5.0, 6.5, {"iters": 3}],
        ],
    }
    m = tracing.layer_metrics(doc)
    assert m["qp_solver.solve_s"] == 2.0 and m["qp_solver.check_kkt_s"] == 1.0
    assert m["power_flow.solve_s"] == 1.5 and m["power_flow.newton_iters_per_solve"] == 3
    assert m["ofo_controller.steps"] == 1 and m["ofo_controller.us_per_step"] == 1e7
    assert m["grid_model.ybus_builds_per_step"] == 2 and m["qp_solver.rows_per_solve"] == 12
    assert set(m) | {"trace.overhead_s"} == set(tracing.METRICS)


# ---- planted faults on real artifacts ------------------------------------------


@pytest.fixture(scope="module")
def for_ring4(tmp_path_factory):
    work = tmp_path_factory.mktemp("for_ring4")
    data = inputs.make_inputs("for_ring4", 3, work / "inputs")
    flexsafe("for", data.scenario, "--out", work / "out")
    return data, work / "out"


def scaled(workload: str, work: Path, edit) -> inputs.Inputs:
    data = inputs.make_inputs(workload, 3, work / "inputs")
    edit(data.doc)
    data.scenario.write_text(json.dumps(data.doc))
    return data


@pytest.fixture(scope="module")
def run_synth30(tmp_path_factory):
    work = tmp_path_factory.mktemp("run_synth30")

    def shrink(doc):
        doc["schedule"] = doc["schedule"][:6]
        doc["for"]["n_angles"] = 6

    data = scaled("run_synth30", work, shrink)
    flexsafe("for", data.scenario, "--out", work / "out")
    flexsafe("run", data.scenario, "--out", work / "out")
    return data, work / "out"


@pytest.fixture(scope="module")
def mc_ring4_tightv(tmp_path_factory):
    work = tmp_path_factory.mktemp("mc_ring4_tightv")

    def shrink(doc):
        doc["mc"]["n_trials"] = 6
        doc["for"]["n_angles"] = 6

    data = scaled("mc_ring4_tightv", work, shrink)
    for jobs in (1, 2):
        flexsafe("for", data.scenario, "--out", work / f"jobs{jobs}")
        flexsafe("mc", data.scenario, "--out", work / f"jobs{jobs}", "--jobs", jobs)
    return data, work


def test_for_check_accepts_real_region(for_ring4):
    data, out = for_ring4
    v = checks.check_for(out, data.doc, data.cloud)
    assert v.problems == [] and (v.attempted, v.failed) == (inputs.FOR_RAYS, 0)


def test_for_check_rejects_shrunken_polygon(for_ring4, tmp_path):
    data, out = for_ring4
    bad = planted(tmp_path, out)

    def shrink(rows):
        for r in rows[1:]:
            r[1], r[2] = repr(0.9 * float(r[1])), repr(0.9 * float(r[2]))

    rewrite_csv(bad / "for_region.csv", shrink)
    problems = checks.check_for(bad, data.doc, data.cloud).problems
    assert any("reference feasible points" in p for p in problems)


def test_for_check_rejects_vertex_off_its_ray(for_ring4, tmp_path):
    data, out = for_ring4
    bad = planted(tmp_path, out)

    def turn(rows):
        rows[3][0] = repr(float(rows[3][0]) + 2.0)

    rewrite_csv(bad / "for_region.csv", turn)
    assert any("off its ray" in p for p in checks.check_for(bad, data.doc, data.cloud).problems)


def test_run_check_accepts_real_trajectory(run_synth30):
    data, out = run_synth30
    v = checks.check_run(out, data.doc, data.grid_file, np.random.default_rng(0))
    assert v.problems == [] and (v.attempted, v.failed) == (6, 0)


def test_run_check_rejects_flipped_verdict(run_synth30, tmp_path):
    data, out = run_synth30
    bad = planted(tmp_path, out)
    report = json.loads((bad / "run_verdict.json").read_text())
    flip = {"safe": "unsafe", "conditionally_safe": "safe", "unsafe": "safe"}
    report["verdict"]["safety_class"] = flip[report["verdict"]["safety_class"]]
    (bad / "run_verdict.json").write_text(json.dumps(report))
    problems = checks.check_run(bad, data.doc, data.grid_file, np.random.default_rng(0)).problems
    assert any("safety_class" in p for p in problems)


def test_run_check_rejects_perturbed_phi(run_synth30, tmp_path):
    data, out = run_synth30
    bad = planted(tmp_path, out)

    def perturb(rows):
        col = rows[0].index("phi")
        rows[5][col] = repr(float(rows[5][col]) * (1.0 + 1e-9))

    rewrite_csv(bad / "trajectory_000.csv", perturb)
    problems = checks.check_run(bad, data.doc, data.grid_file, np.random.default_rng(0)).problems
    assert any("phi differs" in p for p in problems)


def test_run_check_rejects_recorded_flow_off_the_reference(run_synth30, tmp_path):
    data, out = run_synth30
    bad = planted(tmp_path, out)

    def shift(rows):
        col = rows[0].index("q_pcc")
        for r in rows[1:]:
            r[col] = repr(float(r[col]) + 1e-5)

    rewrite_csv(bad / "trajectory_000.csv", shift)
    problems = checks.check_run(bad, data.doc, data.grid_file, np.random.default_rng(0)).problems
    assert any("reference flow" in p for p in problems)


def test_mc_is_byte_identical_at_one_and_two_jobs(mc_ring4_tightv):
    _, work = mc_ring4_tightv
    one, two = work / "jobs1", work / "jobs2"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert all((one / n).read_bytes() == (two / n).read_bytes() for n in names)


def test_mc_check_accepts_real_study(mc_ring4_tightv):
    data, work = mc_ring4_tightv
    v = checks.check_mc(work / "jobs1", data.doc)
    assert v.problems == [] and (v.attempted, v.failed) == (6, 0)


def test_mc_check_rejects_moved_histogram_count(mc_ring4_tightv, tmp_path):
    data, work = mc_ring4_tightv
    bad = planted(tmp_path, work / "jobs1")

    def move(rows):
        full = next(r for r in rows[1:] if int(r[2]) > 0)
        empty = next(r for r in rows[1:] if int(r[2]) == 0)
        full[2], empty[2] = str(int(full[2]) - 1), "1"

    rewrite_csv(bad / "mc_histogram.csv", move)
    problems = checks.check_mc(bad, data.doc).problems
    assert any("rho is not n" in p for p in problems)


def test_mc_check_rejects_wrong_interval(mc_ring4_tightv, tmp_path):
    data, work = mc_ring4_tightv
    bad = planted(tmp_path, work / "jobs1")
    summary = json.loads((bad / "mc_summary.json").read_text())
    summary["critical_ci"][0] += 0.01
    (bad / "mc_summary.json").write_text(json.dumps(summary))
    assert any("critical_ci" in p for p in checks.check_mc(bad, data.doc).problems)


def test_traced_steps_match_the_trajectory(run_synth30, tmp_path):
    data, out = run_synth30
    traced = planted(tmp_path, out)
    spans = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(run.HERE / "tracing.py"), str(spans), "--", "run", str(data.scenario), "--out", str(traced)],
        env=run._env(), check=True, capture_output=True,
    )
    doc = json.loads(spans.read_text())
    metrics = tracing.layer_metrics(doc)
    assert doc["missing"] == []
    assert run.trace_checks("run_synth30", metrics, traced, data, doc["missing"]) == []
    assert (traced / "trajectory_000.csv").read_bytes() == (out / "trajectory_000.csv").read_bytes()
