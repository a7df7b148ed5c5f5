"""Feedback-optimized flexibility dispatch with trajectory-set safety verification."""

from flexsafe.grid_model import (
    GridError,
    GridLoadError,
    GridModel,
    GridValidationError,
    apply_control,
    clip_control,
    load_grid,
    validate,
)
from flexsafe.power_flow import (
    MeasurementNoise,
    MeasurementVector,
    PowerFlowError,
    SingularJacobianError,
    StateStack,
    SystemState,
    limit_violation,
    measure,
    nodal_residuals,
    solve_power_flow,
    steady_state_map,
)
from flexsafe.sensitivity import (
    SensitivityMap,
    compute_sensitivity,
    export_sensitivity_csv,
    finite_difference_oracle,
    perturb_sensitivity,
)
from flexsafe.qp_solver import (
    KKTReport,
    QPError,
    QPSolution,
    QuadraticProgram,
    check_kkt,
    solve_qp,
)
from flexsafe.ofo_controller import (
    ControllerConfig,
    ControllerError,
    NoiseModel,
    OFOStep,
    SetPoint,
    Trajectory,
    build_step_qp,
    calibrate_alpha,
    closed_loop_step,
    export_trajectory_csv,
    grad_cost,
    run_schedule,
    step_qp_template,
)
from flexsafe.for_region import (
    FORError,
    FORPolygon,
    FORSample,
    SweepConfig,
    contains_many,
    export_for_csv,
    polygon_area,
    read_for_csv,
    sample_oracle_for,
    sweep_for,
    verify_vertices,
)
from flexsafe.trajectory_analysis import (
    RobustnessReport,
    SafetyClass,
    SafetyVerdict,
    TrajectorySet,
    TrialFailure,
    Witness,
    classify,
    coverage_metric,
    robustness_verdict,
    wilson_interval,
)
from flexsafe.uncertainty_mc import (
    DensityHistogram,
    NoiseConfig,
    TrialNoise,
    channel_stream,
    critical_fraction,
    density_histogram,
    export_histogram_csv,
    run_monte_carlo,
    sample_load_noise,
)
from flexsafe.scenario import ScenarioConfig, ScenarioError, load_scenario

__version__ = "0.1.0"
