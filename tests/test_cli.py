"""End-to-end CLI runs on small scenarios: artifacts, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import flexsafe
from flexsafe import for_region
from flexsafe.cli import _region_stamp, main
from flexsafe.ofo_controller import export_trajectory_csv
from flexsafe.scenario import load_scenario
from flexsafe.sensitivity import compute_sensitivity
from flexsafe.uncertainty_mc import run_monte_carlo

from conftest import grid_path


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(grid_path("ring4"), tmp_path / "ring4.json")
    shutil.copy(grid_path("boxcase"), tmp_path / "boxcase.json")
    return tmp_path


def write_scenario(directory, doc, name="scenario.json"):
    path = directory / name
    path.write_text(json.dumps(doc))
    return path


def base_doc(grid="ring4.json", **extra):
    doc = {
        "grid": grid,
        "controller": {"alpha": 0.1, "max_iterations": 200},
        "schedule": [[0.2, 0.1]],
        "for": {"n_angles": 8, "oracle_samples": 300},
    }
    doc.update(extra)
    return doc


NOISE = {
    "seed": 11,
    "load_sigma": {"household": 0.02, "industry": 0.02, "commercial": 0.02},
    "meas_bounds": [-0.01, 0.01],
}


def test_cli_import_loads_no_scipy():
    """The command line needs only numpy and jsonschema at run time."""
    src = str(Path(flexsafe.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys, flexsafe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate", "x.json"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["for", "--help"], ["mc", "-h"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage: flexsafe" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["for", "run"])
def test_jobs_only_on_mc(workdir, capsys, command):
    path = write_scenario(workdir, base_doc())
    assert main([command, str(path), "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (workdir / "scenario_out").exists()


def test_missing_scenario_exits_1(tmp_path, capsys):
    assert main(["for", str(tmp_path / "ghost.json")]) == 1
    assert "ghost.json" in capsys.readouterr().err


def test_broken_grid_exits_1(workdir, capsys):
    (workdir / "ring4.json").write_text("{}")
    path = write_scenario(workdir, base_doc())
    assert main(["for", str(path)]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "unit, index, key, value, s_base",
    [
        pytest.param("branches", 1, "r_pu", float("nan"), None, id="branches-1-r_pu-nan"),
        pytest.param("flex_units", 0, "p_max_mw", float("inf"), None, id="flex_units-0-p_max_mw-inf"),
        # Finite in the file, but 1e308 MW over 0.5 MVA overflows per unit.
        pytest.param("flex_units", 0, "p_max_mw", 1e308, 0.5, id="flex_units-0-p_max_mw-per-unit-overflow"),
    ],
)
def test_non_finite_grid_number_exits_1(workdir, capsys, unit, index, key, value, s_base):
    doc = json.loads((workdir / "ring4.json").read_text())
    doc[unit][index][key] = value
    if s_base is not None:
        doc["s_base_mva"] = s_base
    (workdir / "ring4.json").write_text(json.dumps(doc))
    path = write_scenario(workdir, base_doc())
    assert main(["for", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{unit}/{index}/{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "mc"])
def test_overflowing_gain_exits_2(workdir, capsys, command):
    """A finite but huge alpha overflows the step QP's g: exit 2, no verdict, no warning.

    At 1e308 the scaled gradient itself overflows; at 1e200 it is finite
    but its squared norm, the objective's scale, is not.
    """
    for alpha, why in ((1e308, "g has non-finite entries"), (1e200, "||w + g||^2 overflows")):
        controller = {"alpha": alpha, "max_iterations": 20}
        doc = base_doc(controller=controller, noise=NOISE, mc={"n_trials": 2})
        path = write_scenario(workdir, doc)
        out = workdir / f"art{alpha:g}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and why in err and "Traceback" not in err
        assert not (out / "run_verdict.json").exists() and not (out / "mc_summary.json").exists()


def test_unsolvable_grid_exits_2(workdir, capsys):
    # Valid grid file, but the load is far past the deliverable power:
    # the base power flow diverges and the study cannot start.
    doc = json.loads((workdir / "ring4.json").read_text())
    doc["loads"][1]["q_mvar"] = 500.0
    (workdir / "ring4.json").write_text(json.dumps(doc))
    path = write_scenario(workdir, base_doc())
    assert main(["for", str(path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_for_command_artifacts(workdir, capsys):
    path = write_scenario(workdir, base_doc(grid="boxcase.json"))
    out = workdir / "art"
    assert main(["for", str(path), "--out", str(out)]) == 0
    assert (out / "for_region.csv").exists()
    assert (out / "sensitivity.csv").exists()
    summary = json.loads((out / "for_summary.json").read_text())
    assert summary["n_vertices"] == 8
    assert summary["area"] > 0
    assert summary["oracle"]["n_feasible"] > 0
    assert 0.0 <= summary["oracle"]["inside_fraction"] <= 1.0
    assert summary["config_hash"]
    stdout = capsys.readouterr().out
    assert "vertices" in stdout and "oracle" in stdout


def test_default_out_dir_from_stem(workdir):
    path = write_scenario(workdir, base_doc(grid="boxcase.json"), name="study.json")
    assert main(["for", str(path)]) == 0
    assert (workdir / "study_out" / "for_region.csv").exists()


def test_run_command_single_target(workdir):
    path = write_scenario(workdir, base_doc())
    out = workdir / "art"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "trajectory_000.csv").exists()
    report = json.loads((out / "run_verdict.json").read_text())
    assert report["verdict"]["safety_class"] in ("safe", "conditionally_safe", "unsafe")
    assert report["verdict"]["n_trajectories"] == 1
    assert report["n_trials"] == 1
    assert report["grid"] == "ring4.json"
    assert report["config_hash"]


def test_run_reuses_cached_region(workdir, capsys):
    path = write_scenario(workdir, base_doc())
    out = workdir / "art"
    assert main(["for", str(path), "--out", str(out)]) == 0
    region_before = (out / "for_region.csv").read_bytes()
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "for_region.csv").read_bytes() == region_before
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "corrupt",
    [
        b"theta_deg,p_pcc,q_pcc,binding_constraints\n0.0,0.5\n",
        b"theta_deg,p_pcc,q_pcc,binding_constraints\n0.0,nan,0.1,\n",
        b"theta_deg,p_pcc,q_pcc,binding_constraints\n",
        b"\xff\xfe",
    ],
    ids=["short row", "NaN field", "header only", "not UTF-8"],
)
def test_unreadable_cached_region_is_charted_again(workdir, capsys, corrupt):
    """A cache whose stamp matches but whose CSV does not read is stale, not fatal."""
    path = write_scenario(workdir, base_doc())
    out = workdir / "art"
    assert main(["for", str(path), "--out", str(out)]) == 0
    stamp = (out / "for_region.sha256").read_bytes()
    (out / "for_region.csv").write_bytes(corrupt)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "cached region unreadable" in err and "for_region.csv" in err
    assert "Traceback" not in err
    fresh = workdir / "fresh"
    assert main(["for", str(path), "--out", str(fresh)]) == 0
    assert (out / "for_region.csv").read_bytes() == (fresh / "for_region.csv").read_bytes()
    assert (out / "for_region.sha256").read_bytes() == stamp


def test_region_cache_recomputed_when_inputs_change(workdir, capsys):
    shutil.copy(grid_path("ring4_tightv"), workdir / "ring4_tightv.json")
    short = {"alpha": 0.1, "max_iterations": 20}
    plain = write_scenario(workdir, base_doc(controller=short), name="plain.json")
    tight = write_scenario(
        workdir, base_doc(grid="ring4_tightv.json", controller=short), name="tight.json"
    )
    out = workdir / "art"
    assert main(["for", str(plain), "--out", str(out)]) == 0
    plain_region = (out / "for_region.csv").read_bytes()
    capsys.readouterr()
    assert main(["run", str(tight), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "cached region" in err and str(out / "for_region.csv") in err
    tight_region = (out / "for_region.csv").read_bytes()
    assert tight_region != plain_region
    fresh = workdir / "fresh"
    assert main(["for", str(tight), "--out", str(fresh)]) == 0
    assert (fresh / "for_region.csv").read_bytes() == tight_region
    # The sweep settings are part of the stamp too.
    finer_doc = base_doc(grid="ring4_tightv.json", controller=short, **{"for": {"n_angles": 9}})
    finer = write_scenario(workdir, finer_doc, name="finer.json")
    assert main(["run", str(finer), "--out", str(out)]) == 0
    assert len((out / "for_region.csv").read_text().splitlines()) == 1 + 9
    # A deleted stamp is reported as a mismatched one is.
    (out / "for_region.sha256").unlink()
    capsys.readouterr()
    assert main(["run", str(finer), "--out", str(out)]) == 0
    assert str(out / "for_region.csv") in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [
        ("SWEEP_STAGES", ((10.0, 50.0),)),
        ("STAGE_ITERATIONS", 401),
        ("GAIN_SCALE", 0.2),
        ("STALL_TOL", 1e-8),
        ("PATIENCE", 9),
        ("BINDING_BAND", 2e-3),
    ],
)
def test_region_stamp_covers_the_sweep_constants(workdir, monkeypatch, name, value):
    """A region charted under other sweep constants is never reused."""
    sc = load_scenario(write_scenario(workdir, base_doc()))
    before = _region_stamp(sc)
    monkeypatch.setattr(for_region, name, value)
    assert _region_stamp(sc) != before


def test_run_hull_vertices_fans_out(workdir):
    path = write_scenario(workdir, base_doc(schedule="hull-vertices"))
    out = workdir / "art"
    assert main(["run", str(path), "--out", str(out)]) == 0
    trajs = sorted(out.glob("trajectory_*.csv"))
    assert len(trajs) == 8  # one run per region vertex
    report = json.loads((out / "run_verdict.json").read_text())
    assert report["verdict"]["n_trajectories"] == 8


def test_mc_requires_noise_block(workdir, capsys):
    path = write_scenario(workdir, base_doc(mc={"n_trials": 3}))
    assert main(["mc", str(path)]) == 1
    assert "noise" in capsys.readouterr().err


def test_mc_requires_explicit_schedule(workdir, capsys):
    doc = base_doc(schedule="hull-vertices", noise=NOISE, mc={"n_trials": 3})
    path = write_scenario(workdir, doc)
    assert main(["mc", str(path)]) == 1
    assert "schedule" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("n_trials", [None, "abc", 2.5, True])
def test_bad_trial_count_exits_1(workdir, capsys, n_trials):
    path = write_scenario(workdir, base_doc(noise=NOISE, mc={"n_trials": n_trials}))
    assert main(["mc", str(path)]) == 1
    assert "n_trials" in capsys.readouterr().err


def test_boolean_iteration_cap_exits_1(workdir, capsys):
    path = write_scenario(workdir, base_doc(controller={"alpha": 0.1, "max_iterations": True}))
    assert main(["run", str(path)]) == 1
    assert "controller/max_iterations: True is not of type 'integer'" in capsys.readouterr().err


NAN = float("nan")


@pytest.mark.parametrize("command", ["run", "mc"])
@pytest.mark.parametrize(
    "change, key",
    [
        ({"noise": {"seed": 1, "meas_bounds": [0.1]}}, "meas_bounds"),
        ({"noise": {"seed": 1, "meas_bounds": ["a", "b"]}}, "meas_bounds"),
        ({"noise": {"seed": 1, "sens_bounds": [NAN, 0.1]}}, "sens_bounds"),
        ({"noise": {"seed": 1, "load_sigma": [1, 2]}}, "load_sigma"),
        ({"noise": {"seed": 1, "load_sigma": {}}}, "load_sigma"),
        ({"noise": {"seed": 1, "load_cov": [[0.01]]}}, "covariance"),
        ({"noise": {"seed": 1, "load_sigma": {"household": 0.1, "industry": NAN}}}, "load_sigma"),
        ({"grid": 5}, "grid"),
        ({"out_dir": 5}, "out_dir"),
        ({"u0": [NAN] * 4}, "u0"),
        ({"schedule": [[True, 0]]}, "schedule"),
        ({"u0": [1.4, 0.0, 0.0, 0.0]}, "u0"),
    ],
)
def test_malformed_inputs_exit_1(workdir, capsys, command, change, key):
    path = write_scenario(workdir, {**base_doc(noise=NOISE), **change})
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [["--jobs", "0"], ["--seed", "-1"], ["--jobs", "two"]])
def test_bad_numeric_flags_exit_1(workdir, capsys, flag):
    path = write_scenario(workdir, base_doc(noise=NOISE, mc={"n_trials": 2}))
    assert main(["mc", str(path), *flag]) == 1
    err = capsys.readouterr().err
    assert flag[0] in err and "numerical failure" not in err
    assert not (workdir / "scenario_out").exists()


def test_mc_artifacts_and_reruns_identical(workdir):
    doc = base_doc(
        controller={"alpha": 0.1, "max_iterations": 40},
        noise=NOISE,
        mc={"n_trials": 4, "histogram_bins": 10, "histogram_iterations": [2]},
    )
    path = write_scenario(workdir, doc)
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["mc", str(path), "--out", str(out1)]) == 0
    assert main(["mc", str(path), "--out", str(out2), "--jobs", "2"]) == 0
    summary = json.loads((out1 / "mc_summary.json").read_text())
    assert summary["n_trials"] == 4
    assert 0.0 <= summary["report"]["convergence_rate"] <= 1.0
    assert abs(summary["histogram"]["normalization"] - 1.0) <= 1e-12
    for name in ("mc_summary.json", "mc_histogram.csv", "mc_histogram_k2.csv"):
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_mc_with_nothing_to_bin_completes(workdir, capsys):
    """Every trial aborts at step 0: the study still completes, Unsafe, with empty histograms."""
    huge = {"household": 1e6, "industry": 1e6, "commercial": 1e6}
    doc = base_doc(
        noise={**NOISE, "load_sigma": huge},
        mc={"n_trials": 3, "histogram_bins": 4, "histogram_iterations": [1]},
    )
    path = write_scenario(workdir, doc)
    out = workdir / "empty"
    assert main(["mc", str(path), "--out", str(out)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    summary = _strict_json((out / "mc_summary.json").read_text())
    assert summary["report"]["verdict"]["safety_class"] == "unsafe"
    assert summary["histogram"] == {"normalization": 0.0, "n_total": 0, "n_dropped": 3}
    assert len(summary["failures"]) == 3
    for name in ("mc_histogram.csv", "mc_histogram_k1.csv"):
        assert (out / name).read_text().count("\n") == 1 + 4 * 4, name


def test_run_is_trial_zero_of_mc_under_every_channel(workdir):
    """`run` applies the scenario's noise as mc's trial 0, the sensitivity channel included."""
    controller = {"alpha": 0.1, "max_iterations": 40}
    noisy = write_scenario(
        workdir, base_doc(controller=controller, noise={**NOISE, "sens_bounds": [-0.3, 0.3]})
    )
    plain = write_scenario(workdir, base_doc(controller=controller, noise=NOISE), name="plain.json")
    assert main(["run", str(noisy), "--out", str(workdir / "noisy")]) == 0
    assert main(["run", str(plain), "--out", str(workdir / "plain")]) == 0
    sc = load_scenario(noisy)
    tset = run_monte_carlo(
        sc.grid, list(sc.schedule), sc.controller, sc.noise, n_trials=1,
        smap=compute_sensitivity(sc.grid, sc.u0), u0=sc.u0,
    )
    export_trajectory_csv(tset.trajectories[0], sc.grid, workdir / "trial0.csv")
    written = (workdir / "noisy" / "trajectory_000.csv").read_bytes()
    assert written == (workdir / "trial0.csv").read_bytes()
    assert written != (workdir / "plain" / "trajectory_000.csv").read_bytes()


def test_mc_seed_override_changes_results(workdir):
    doc = base_doc(
        controller={"alpha": 0.1, "max_iterations": 40},
        noise=NOISE,
        mc={"n_trials": 3, "histogram_bins": 8},
    )
    path = write_scenario(workdir, doc)
    out1, out2, out3 = workdir / "s1", workdir / "s2", workdir / "s3"
    assert main(["mc", str(path), "--out", str(out1)]) == 0
    assert main(["mc", str(path), "--out", str(out2), "--seed", "99"]) == 0
    assert main(["mc", str(path), "--out", str(out3), "--seed", "99"]) == 0
    h1 = (out1 / "mc_histogram.csv").read_bytes()
    h2 = (out2 / "mc_histogram.csv").read_bytes()
    h3 = (out3 / "mc_histogram.csv").read_bytes()
    assert h2 != h1  # different seed, different ensemble
    assert h2 == h3  # same override reproduces bytes
    s2 = json.loads((out2 / "mc_summary.json").read_text())
    assert s2["seed"] == 99


def test_artifacts_carry_no_absolute_paths(workdir):
    doc = base_doc(
        controller={"alpha": 0.1, "max_iterations": 40},
        noise=NOISE,
        mc={"n_trials": 3, "histogram_bins": 8},
    )
    path = write_scenario(workdir, doc)
    out = workdir / "art"
    assert main(["for", str(path), "--out", str(out)]) == 0
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert main(["mc", str(path), "--out", str(out)]) == 0
    for artifact in out.iterdir():
        text = artifact.read_text()
        assert str(workdir) not in text, artifact.name


def _strict_json(text: str):
    """json.loads that refuses NaN and infinities, as strict JSON parsers do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_json_artifacts_parse_strictly(workdir):
    """Every JSON artifact is strict JSON, also when the oracle has no feasible sample."""
    doc = base_doc(
        controller={"alpha": 0.1, "max_iterations": 40},
        noise=NOISE,
        mc={"n_trials": 3, "histogram_bins": 8},
    )
    path = write_scenario(workdir, doc)
    out = workdir / "art"
    for command in ("for", "run", "mc"):
        assert main([command, str(path), "--out", str(out)]) == 0
    # b3 and b4 capped at 1.01 p.u.: the one oracle draw of seed 1 is infeasible.
    grid = json.loads(grid_path("ring4_tightv").read_text())
    for bus in grid["buses"]:
        if bus["id"] in ("b3", "b4"):
            bus["v_max_pu"] = 1.01
    (workdir / "tight.json").write_text(json.dumps(grid))
    tight = base_doc(grid="tight.json")
    tight["for"]["oracle_samples"] = 1
    tight_out = workdir / "tight"
    path = write_scenario(workdir, tight, name="tight_scenario.json")
    assert main(["for", str(path), "--out", str(tight_out), "--seed", "1"]) == 0
    oracle = _strict_json((tight_out / "for_summary.json").read_text())["oracle"]
    assert oracle["n_feasible"] == 0 and oracle["inside_fraction"] is None
    artifacts = sorted(out.glob("*.json")) + sorted(tight_out.glob("*.json"))
    names = {artifact.name for artifact in artifacts}
    assert {"for_summary.json", "run_verdict.json", "mc_summary.json"} <= names
    for artifact in artifacts:
        _strict_json(artifact.read_text())


def test_write_json_refuses_nan_and_writes_nothing(tmp_path):
    from flexsafe.cli import _write_json

    with pytest.raises(ValueError):
        _write_json({"inside_fraction": float("nan")}, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()
