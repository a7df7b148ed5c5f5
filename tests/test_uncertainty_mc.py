"""Monte Carlo uncertainty propagation: noise channels, ensembles, histograms."""

import csv
import pickle
from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest

from flexsafe import uncertainty_mc
from flexsafe.for_region import FORPolygon
from flexsafe.grid_model import GridModel, load_grid
from flexsafe.ofo_controller import ControllerConfig, SetPoint, run_schedule
from flexsafe.power_flow import limit_violation
from flexsafe.sensitivity import compute_sensitivity
from flexsafe.uncertainty_mc import (
    CHANNEL_LOAD,
    CHANNEL_MEAS,
    CHANNEL_SENS,
    NoiseConfig,
    TrialNoise,
    channel_stream,
    critical_fraction,
    density_histogram,
    export_histogram_csv,
    run_monte_carlo,
    run_trial,
    sample_load_noise,
)

from conftest import grid_path, make_trajectory


def test_channel_streams_are_keyed_not_sequential():
    a = channel_stream(seed=1, trial=0, channel=CHANNEL_LOAD).normal(size=4)
    b = channel_stream(seed=1, trial=0, channel=CHANNEL_LOAD).normal(size=4)
    assert np.array_equal(a, b)
    # Different trial, channel, iteration, or seed: independent streams.
    for kwargs in (
        dict(seed=1, trial=1, channel=CHANNEL_LOAD),
        dict(seed=1, trial=0, channel=CHANNEL_MEAS),
        dict(seed=1, trial=0, channel=CHANNEL_LOAD, iteration=3),
        dict(seed=2, trial=0, channel=CHANNEL_LOAD),
    ):
        other = channel_stream(**kwargs).normal(size=4)
        assert not np.array_equal(a, other)


def test_load_noise_per_class_sigma(ring4):
    config = NoiseConfig(seed=5, load_sigma={"household": 0.5, "industry": 0.0, "commercial": 0.0})
    rng = np.random.default_rng(0)
    draws = np.stack([sample_load_noise(ring4, config, rng) for _ in range(4000)])
    assert draws.shape == (4000, len(ring4.fixed_loads), 2)
    by_class = {load.load_class: i for i, load in enumerate(ring4.fixed_loads)}
    hh = draws[:, by_class["household"], :]
    assert hh.std() == pytest.approx(0.5, rel=0.05)
    assert abs(hh.mean()) < 0.02
    assert np.all(draws[:, by_class["industry"], :] == 0.0)
    assert np.all(draws[:, by_class["commercial"], :] == 0.0)


def test_load_noise_full_covariance(ring4):
    n = len(ring4.fixed_loads)
    # Perfectly correlated active-power noise across all loads, no reactive noise.
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = 0.04  # sigma 0.2, correlation 1
    config = NoiseConfig(seed=5, load_cov=cov)
    rng = np.random.default_rng(1)
    draws = np.stack([sample_load_noise(ring4, config, rng) for _ in range(2000)])
    dp = draws[:, :, 0]
    # Comonotone up to the eigen-factorization's numerical zeros.
    assert np.allclose(dp[:, 0], dp[:, 1], atol=1e-7)
    assert dp.std() == pytest.approx(0.2, rel=0.05)
    assert np.all(draws[:, :, 1] == 0.0)


def test_load_sigma_must_cover_known_classes():
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, load_sigma={"mystery": 0.1})
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, load_sigma={"household": -0.1})


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, load_cov=np.ones((3, 2)))  # not square
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, load_cov=asym)  # not symmetric
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, meas_bounds=(0.02, -0.02))  # lo > hi
    both = dict(load_sigma={"household": 0.1}, load_cov=np.eye(2))
    with pytest.raises(ValueError):
        NoiseConfig(seed=1, **both)


def test_trial_noise_is_frozen_and_deterministic(ring4):
    config = NoiseConfig(seed=3, load_sigma={"household": 0.1, "industry": 0.1, "commercial": 0.1})
    tn = TrialNoise(config, trial=2)
    with pytest.raises(FrozenInstanceError):
        tn.trial = 5
    d1 = tn.perturb_grid(ring4, k=0)
    d2 = TrialNoise(config, trial=2).perturb_grid(ring4, k=0)
    assert d1.shape == (len(ring4.fixed_loads), 2)
    assert np.array_equal(d1, d2)
    # Load noise is redrawn every iteration.
    d3 = tn.perturb_grid(ring4, k=1)
    assert not np.array_equal(d3, d1)
    # With the load channel off there is nothing to add.
    assert TrialNoise(NoiseConfig(seed=3), trial=2).perturb_grid(ring4, k=0) is None


def test_noisy_schedule_builds_no_grid(monkeypatch):
    """All three channels reach the plant as data: no GridModel and no Ybus per step."""
    grid = load_grid(grid_path("ring4"))
    smap = compute_sensitivity(grid)  # builds the one Ybus of the run
    builds, made = [], []
    ybus = vars(GridModel)["ybus"].func

    def counting_ybus(g):
        builds.append(g)
        return ybus(g)

    counted = cached_property(counting_ybus)
    counted.__set_name__(GridModel, "ybus")
    monkeypatch.setattr(GridModel, "ybus", counted)
    init = GridModel.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GridModel, "__init__", counting_init)
    sigma = {"household": 0.02, "industry": 0.02, "commercial": 0.02}
    config = NoiseConfig(
        seed=4, load_sigma=sigma, meas_bounds=(-0.01, 0.01), sens_bounds=(-0.05, 0.05)
    )
    noise = TrialNoise(config, trial=1)
    controller = ControllerConfig(alpha=0.1, max_iterations=30)
    traj = run_schedule(
        grid, noise.sensitivity(smap), [SetPoint(0.2, 0.1)], controller, noise=noise
    )
    assert len(traj.steps) > 5 and not traj.aborted
    assert builds == [] and made == []


def test_sensitivity_perturbation_fixed_within_trial(ring4):
    config = NoiseConfig(seed=3, sens_bounds=(-0.05, 0.05))
    smap = compute_sensitivity(ring4)
    tn = TrialNoise(config, trial=0)
    m1 = tn.sensitivity(smap)
    m2 = tn.sensitivity(smap)
    assert np.array_equal(m1.matrix, m2.matrix)  # one draw per trial
    other = TrialNoise(config, trial=1).sensitivity(smap)
    assert not np.array_equal(m1.matrix, other.matrix)


@pytest.fixture(scope="module")
def mc_inputs(ring4):
    schedule = [SetPoint(0.2, 0.1)]
    controller = ControllerConfig(alpha=0.1, max_iterations=120, convergence_tol=1e-3)
    noise = NoiseConfig(
        seed=11,
        load_sigma={"household": 0.02, "industry": 0.02, "commercial": 0.02},
        meas_bounds=(-0.01, 0.01),
        sens_bounds=(-0.05, 0.05),
    )
    return ring4, schedule, controller, noise


def test_parallel_matches_serial(mc_inputs):
    grid, schedule, controller, noise = mc_inputs
    serial = run_monte_carlo(grid, schedule, controller, noise, n_trials=6, jobs=1)
    parallel = run_monte_carlo(grid, schedule, controller, noise, n_trials=6, jobs=2)
    assert len(serial) == len(parallel) == 6
    for a, b in zip(serial.trajectories, parallel.trajectories):
        assert a.converged == b.converged
        assert np.array_equal(a.pcc_path(), b.pcc_path())
        assert np.array_equal(a.steps.u, b.steps.u)
        # Every other recorded field survives the pool's transport too.
        for name in ("w", "u_next"):
            assert np.array_equal(getattr(a.steps, name), getattr(b.steps, name)), name
        assert np.array_equal(a.steps.y.values, b.steps.y.values)
        assert a.steps.qp_status == b.steps.qp_status
        assert a.steps.active_set == b.steps.active_set
        assert np.array_equal(a.states.steps, b.states.steps)
        assert np.array_equal(a.states.mismatch, b.states.mismatch)
        assert a.segments == b.segments
        assert (a.aborted, a.abort_reason) == (b.aborted, b.abort_reason)


def test_trajectory_pickles_as_its_arrays(mc_inputs):
    """Reading steps and states builds views on access and caches nothing in the payload."""
    grid, schedule, controller, noise = mc_inputs
    traj = run_trial(grid, compute_sensitivity(grid), schedule, controller, noise, None, 2)
    before = pickle.dumps(traj, pickle.HIGHEST_PROTOCOL)
    assert len(traj.steps) > 5
    p_measured, state = traj.steps.y.p_pcc, traj.states[-1]
    assert p_measured.shape == (len(traj.steps),) and state.p_pcc == traj.pcc_path()[-1, 0]
    assert pickle.dumps(traj, pickle.HIGHEST_PROTOCOL) == before
    back = pickle.loads(before)
    assert np.array_equal(back.pcc_path(), traj.pcc_path())
    for name in ("w", "u", "u_next"):
        assert np.array_equal(getattr(back.steps, name), getattr(traj.steps, name)), name
    assert np.array_equal(back.steps.y.values, traj.steps.y.values)
    for name in ("v", "theta", "s_flows", "converged", "steps", "mismatch"):
        assert np.array_equal(getattr(back.states, name), getattr(traj.states, name)), name
    assert back.steps.qp_status == traj.steps.qp_status
    assert back.steps.active_set == traj.steps.active_set


def test_stacked_limit_violation_matches_each_state(ring4_tightv):
    """One limit_violation call on a trajectory's states equals the per-state loop bit for bit."""
    noise = NoiseConfig(
        seed=1,
        load_sigma={"household": 0.02, "industry": 0.02, "commercial": 0.02},
        meas_bounds=(-0.01, 0.01),
        sens_bounds=(-0.05, 0.05),
    )
    controller = ControllerConfig(alpha=0.1, max_iterations=60)
    smap = compute_sensitivity(ring4_tightv)
    traj = run_trial(ring4_tightv, smap, [SetPoint(-0.4, -0.8)], controller, noise, None, 0)
    stacked = limit_violation(ring4_tightv, traj.states)
    looped = [limit_violation(ring4_tightv, traj.states[i]) for i in range(len(traj.states))]
    assert stacked.shape == (len(traj.steps),)
    assert (stacked > 0).any() and (stacked == 0).any()  # both kinds of state are scored
    assert stacked.tobytes() == np.array(looped).tobytes()


@pytest.mark.parametrize("jobs, n_trials, pool", [(1000, 3, 3), (2, 3, 2), (1000, 1, None)])
def test_pool_is_no_larger_than_the_trial_count(mc_inputs, monkeypatch, jobs, n_trials, pool):
    """A fork pool starts every worker at once: never more workers than trials, one runs inline."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(uncertainty_mc, "ProcessPoolExecutor", InlinePool)
    grid, schedule, controller, noise = mc_inputs
    short = ControllerConfig(alpha=controller.alpha, max_iterations=5)
    tset = run_monte_carlo(grid, schedule, short, noise, n_trials=n_trials, jobs=jobs)
    assert len(tset) == n_trials
    assert sizes == ([] if pool is None else [pool])


def test_ensemble_is_seed_deterministic(mc_inputs):
    grid, schedule, controller, noise = mc_inputs
    a = run_monte_carlo(grid, schedule, controller, noise, n_trials=3)
    b = run_monte_carlo(grid, schedule, controller, noise, n_trials=3)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.pcc_path(), tb.pcc_path())


def test_diverging_trials_recorded_as_failures(ring4):
    schedule = [SetPoint(0.2, 0.1)]
    controller = ControllerConfig(alpha=0.1, max_iterations=40, convergence_tol=1e-3)
    noise = NoiseConfig(
        seed=1, load_sigma={"household": 60.0, "industry": 60.0, "commercial": 60.0}
    )
    tset = run_monte_carlo(ring4, schedule, controller, noise, n_trials=4)
    assert len(tset) == 4  # aborted runs keep their partial trajectories
    aborted = [t for t in tset.trajectories if t.aborted]
    assert aborted, "60 pu load swings must kill some power flows"
    assert len(tset.failures) == len(aborted)
    assert all(f.reason for f in tset.failures)
    trial_ids = [f.trial for f in tset.failures]
    assert trial_ids == sorted(trial_ids)


def test_histogram_density_normalizes(mc_inputs):
    grid, schedule, controller, noise = mc_inputs
    tset = run_monte_carlo(grid, schedule, controller, noise, n_trials=5)
    hist = density_histogram(tset, bins=12)
    assert hist.counts.sum() == hist.n_total
    assert hist.n_dropped == 0  # auto extent covers everything
    assert hist.normalization() == pytest.approx(1.0, abs=1e-12)
    assert hist.counts.shape == (12, 12)
    assert hist.p_edges.shape == (13,)


def test_histogram_iteration_slice_and_filter():
    paths = [
        [(0.0, 0.0), (1.0, 1.0)],
        [(0.0, 0.0), (3.0, 3.0)],
    ]
    tset = [make_trajectory(p) for p in paths]
    full = density_histogram(tset, bins=4)
    assert full.n_total == 4
    at_k = density_histogram(tset, bins=4, iteration=1)
    assert at_k.n_total == 2  # one point per trajectory
    picky = density_histogram([t for t in tset if t.pcc_path()[-1, 0] > 2], bins=4)
    assert picky.n_total == 2  # only the second trajectory survives


def test_histogram_explicit_extent_drops_outliers():
    tset = [make_trajectory([(0.0, 0.0), (0.5, 0.5), (9.0, 9.0)])]
    hist = density_histogram(tset, bins=4, extent=((-1.0, 1.0), (-1.0, 1.0)))
    # n_total counts binned points; the out-of-extent one is tallied apart.
    assert hist.n_total == 2
    assert hist.n_dropped == 1
    assert hist.counts.sum() == 2
    assert hist.normalization() == pytest.approx(1.0, abs=1e-12)
    assert hist.p_edges[0] == -1.0 and hist.p_edges[-1] == 1.0


def test_histogram_explicit_extent_with_nothing_inside_is_empty():
    """Every state outside, or no state at all: zero counts and rho, every point tallied as dropped."""
    extent = ((-1.0, 1.0), (-1.0, 1.0))
    outside = [make_trajectory([(5.0, 5.0), (9.0, 9.0)]), make_trajectory([(-3.0, 0.0)])]
    for tset, dropped in ((outside, 3), ([], 0)):
        hist = density_histogram(tset, bins=(3, 2), extent=extent)
        assert (hist.n_total, hist.n_dropped) == (0, dropped)
        assert hist.counts.shape == hist.rho.shape == (3, 2)
        assert not hist.counts.any() and not hist.rho.any()
        assert hist.normalization() == 0.0
        assert hist.p_edges[0] == -1.0 and hist.q_edges[-1] == 1.0


def test_histogram_empty_selection_raises():
    tset = [make_trajectory([(0.0, 0.0)])]
    with pytest.raises(ValueError):
        density_histogram([], bins=4, iteration=5)


def test_critical_fraction_planted():
    diamond = FORPolygon(
        vertices=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        angles=np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
    )
    tset = [
        make_trajectory([(0.0, 0.0), (0.2, 0.1)]),  # clean
        make_trajectory([(0.0, 0.0), (0.9, 0.9), (0.1, 0.1)]),  # excursion: critical
        make_trajectory([(0.0, 0.0), (0.1, 0.0)], aborted=True),  # abort: critical
        make_trajectory([(0.0, 0.0), (2.0, 2.0)]),  # ends outside: critical
    ]
    frac, (lo, hi) = critical_fraction(tset, diamond)
    assert frac == pytest.approx(0.75)
    assert lo < frac < hi


def test_histogram_csv_full_grid(tmp_path):
    tset = [make_trajectory([(0.0, 0.0), (0.5, 0.5)])]
    hist = density_histogram(tset, bins=3)
    path = tmp_path / "hist.csv"
    export_histogram_csv(hist, path)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9  # full grid, including empty cells
    total = sum(int(r["n"]) for r in rows)
    assert total == hist.counts.sum()
    mass = sum(float(r["rho"]) * float(r["area"]) for r in rows)
    assert mass == pytest.approx(1.0, abs=1e-12)
    # Row-major order: p varies slowest.
    p_vals = [float(r["p_center"]) for r in rows]
    assert p_vals == sorted(p_vals)
