"""flexsafe benchmark: three CLI studies timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run makes its inputs from the seed, times one cold set-up, then runs
the workload's study command again and again, one fresh process at a
time, until S seconds have passed.  Every command's artifacts are checked
(see checks.py) and must repeat byte for byte.  The last line of standard
output is one JSON object: whether every check held, the operations
attempted and failed, and the metrics.

--trace 0 reports the end-to-end metrics: the median study wall time, the
set-up time and the median peak resident set of the study's processes.
--trace 1 runs the same loop with the traced run's settings, then one
traced command, and reports the per-layer metrics read from its spans.

Workloads (see README.md for why each was chosen):
  for_ring4        flexsafe for on ring4, 24 rays
  mc_ring4_tightv  flexsafe mc --jobs 2 on ring4_tightv, all noise channels
  run_synth30      flexsafe run on synth30, 60 seeded reachable set points
"""

from __future__ import annotations

import os

# One BLAS thread per process, here and in every command started: the
# machine has few cores and the mc study already runs two workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
STARTED = time.perf_counter()


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (a command failed or is missing)."""


@dataclass(frozen=True)
class Workload:
    command: str
    jobs: int | None  # --jobs of the untraced study; the traced run uses 1
    region_in_setup: bool  # `flexsafe for` writes the region the study reuses


WORKLOADS = {
    "for_ring4": Workload("for", None, False),
    "mc_ring4_tightv": Workload("mc", 2, True),
    "run_synth30": Workload("run", None, True),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(run_dir: Path, tag: str, argv: list[str]) -> dict:
    """Run argv through launch.py; returns its wall time and peak RSS."""
    result = run_dir / f"{tag}.json"
    err = run_dir / f"{tag}.err"
    cmd = [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(result), str(run_dir / f"{tag}.out"), str(err), "--", *argv]
    proc = subprocess.Popen(cmd, env=_env(), start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - STARTED)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchmarkError(f"{tag}: still running at the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchmarkError(f"{tag}: launcher failed with exit {proc.returncode}")
    record = json.loads(result.read_text())
    if record["returncode"] != 0:
        tail = err.read_text()[-2000:]
        raise BenchmarkError(f"{tag}: exit {record['returncode']}\n{tail}")
    return record


FLEXSAFE = [sys.executable, "-m", "flexsafe.cli"]


def cli_args(command: str, scenario: Path, out: Path, jobs: int | None = None) -> list[str]:
    args = [command, str(scenario), "--out", str(out)]
    return args + ([] if jobs is None else ["--jobs", str(jobs)])


def study_files(out: Path, keep: set[str]) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.name not in keep)


def check(name: str, out: Path, data: inputs.Inputs, seed: int) -> checks.Verdict:
    if name == "for_ring4":
        return checks.check_for(out, data.doc, data.cloud)
    if name == "mc_ring4_tightv":
        return checks.check_mc(out, data.doc)
    return checks.check_run(out, data.doc, data.grid_file, inputs.stream(seed, inputs.STREAM_ROWS))


def trace_checks(name: str, metrics: dict, out: Path, data: inputs.Inputs, missing: list[str]) -> list[str]:
    """The traced run's step totals against totals read from the artifacts."""
    problems = [f"traced layer function not found: {m}" for m in missing]
    steps = metrics["ofo_controller.steps"]
    if name == "run_synth30":
        _, rows = checks.read_csv(out / "trajectory_000.csv")
        if steps != len(rows):
            problems.append(f"traced {steps} steps, trajectory CSV has {len(rows)} rows")
    elif name == "mc_ring4_tightv":
        states = checks.pooled_states(out)
        if steps != states:
            problems.append(f"traced {steps} steps, pooled histogram n_total + n_dropped is {states}")
    if metrics["power_flow.solves"] < steps or steps == 0:
        problems.append(f"{metrics['power_flow.solves']} power-flow solves for {steps} steps")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    wl = WORKLOADS[name]
    data = inputs.make_inputs(name, seed, run_dir / "inputs")
    out = run_dir / "out"
    out.mkdir()

    # Set-up: a fresh interpreter loads the scenario; run and mc also need
    # the region that `flexsafe for` writes for them.
    probe = "import sys, flexsafe; flexsafe.load_scenario(sys.argv[1]); print(flexsafe.__file__)"
    record = launch(run_dir, "setup_load", [sys.executable, "-c", probe, str(data.scenario)])
    loaded_from = Path((run_dir / "setup_load.out").read_text().strip()).resolve()
    if SRC.resolve() not in loaded_from.parents:
        raise BenchmarkError(f"flexsafe was imported from {loaded_from}, not from {SRC}")
    setup_s = record["wall_s"]
    if wl.region_in_setup:
        setup_s += launch(run_dir, "setup_for", FLEXSAFE + cli_args("for", data.scenario, out))["wall_s"]
    keep = {p.name for p in out.iterdir()}

    jobs = 1 if trace and wl.jobs is not None else wl.jobs
    walls, peaks, problems = [], [], []
    attempted = failed = 0
    reference: dict[str, bytes] | None = None

    def study(tag: str, argv: list[str]) -> dict:
        nonlocal attempted, failed, reference
        for path in study_files(out, keep):
            path.unlink()
        record = launch(run_dir, tag, argv)
        try:
            verdict = check(name, out, data, seed)
        except (OSError, LookupError, ValueError) as exc:
            verdict = checks.Verdict(problems=[f"artifacts unreadable: {exc!r}"])
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend(f"{tag}: {p}" for p in verdict.problems)
        artifacts = {p.name: p.read_bytes() for p in study_files(out, keep)}
        if reference is None:
            reference = artifacts
        elif artifacts != reference:
            problems.append(f"{tag}: artifacts differ from the first command's")
        return record

    loop_start = time.perf_counter()
    while not walls or time.perf_counter() - loop_start < seconds:
        record = study(f"study{len(walls)}", FLEXSAFE + cli_args(wl.command, data.scenario, out, jobs))
        walls.append(record["wall_s"])
        peaks.append(record["maxrss_kb"] / 1024.0)

    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    else:
        spans = run_dir / "spans.json"
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans), "--"]
        record = study("traced", argv + cli_args(wl.command, data.scenario, out, jobs))
        doc = json.loads(spans.read_text())
        layer = tracing.layer_metrics(doc)
        layer["trace.overhead_s"] = record["wall_s"] - statistics.median(walls)
        problems += trace_checks(name, layer, out, data, doc["missing"])
        metrics = {key: (layer[key], unit) for key, unit in tracing.METRICS.items()}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flexsafe" / "cli.py").is_file():
        print(f"error: no flexsafe sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
