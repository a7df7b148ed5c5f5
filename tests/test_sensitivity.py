"""Analytic input-output sensitivities against finite differences and closed forms."""

import csv

import numpy as np
import pytest

from flexsafe.grid_model import load_grid
from flexsafe.sensitivity import (
    compute_sensitivity,
    export_sensitivity_csv,
    finite_difference_oracle,
    perturb_sensitivity,
)

from conftest import ALL_GRIDS, grid_path


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", ("twobus", "ring4"))
def test_matches_finite_differences(name):
    grid = load_grid(grid_path(name))
    analytic = compute_sensitivity(grid)
    fd = finite_difference_oracle(grid)
    assert analytic.row_labels == fd.row_labels
    assert analytic.col_labels == fd.col_labels
    assert rel_error(analytic.matrix, fd.matrix) < 1e-7


def test_lossless_pcc_row_is_exact(twobus):
    """On a lossless tie the PCC import offsets bus-2 generation one for one."""
    smap = compute_sensitivity(twobus)
    i = smap.row_labels.index("p_pcc")
    jp = smap.col_labels.index("p:u1")
    jq = smap.col_labels.index("q:u1")
    assert smap.matrix[i, jp] == pytest.approx(-1.0, abs=1e-12)
    assert smap.matrix[i, jq] == pytest.approx(0.0, abs=1e-12)
    # The slack voltage is fixed, so its row is identically zero.
    assert np.all(smap.matrix[smap.row_labels.index("v:b1")] == 0.0)


def test_finite_difference_truncation_order(twobus):
    """Halving the step shrinks the central-difference error about 4x.

    D(h) - D(h/2) is dominated by the O(h^2) truncation term, so successive
    differences contract by ~4; a wide band guards against noise.
    """
    d_2 = finite_difference_oracle(twobus, step=2e-3).matrix
    d_1 = finite_difference_oracle(twobus, step=1e-3).matrix
    d_05 = finite_difference_oracle(twobus, step=5e-4).matrix
    num = np.max(np.abs(d_2 - d_1))
    den = np.max(np.abs(d_1 - d_05))
    assert den > 0
    assert 2.8 < num / den < 5.7


def test_non_default_operating_point(ring4):
    u0 = np.array([0.3, -0.2, 0.15, 0.1])
    analytic = compute_sensitivity(ring4, u0=u0)
    fd = finite_difference_oracle(ring4, u0=u0)
    assert np.array_equal(analytic.u0, u0)
    assert rel_error(analytic.matrix, fd.matrix) < 1e-7
    # Sensitivities genuinely depend on the operating point.
    base = compute_sensitivity(ring4)
    assert not np.allclose(analytic.matrix, base.matrix, atol=1e-6)


def test_records_the_clipped_linearization_point(ring4):
    """A u0 beyond the boxes is linearized at the box edge, and says so."""
    _, upper = ring4.control_bounds()
    outside = compute_sensitivity(ring4, u0=upper + 1.0)
    at_edge = compute_sensitivity(ring4, u0=upper)
    assert np.array_equal(outside.u0, upper)
    assert np.array_equal(outside.matrix, at_edge.matrix)


def test_oracle_refuses_stencil_across_bounds(ring4):
    lower, _ = ring4.control_bounds()
    with pytest.raises(ValueError):
        finite_difference_oracle(ring4, u0=lower)


def test_perturbation_bounds_and_determinism(ring4):
    smap = compute_sensitivity(ring4)
    noisy = perturb_sensitivity(smap, (-0.05, 0.05), seed=42)
    nonzero = smap.matrix != 0.0
    ratio = noisy.matrix[nonzero] / smap.matrix[nonzero]
    assert np.all(ratio >= 0.95 - 1e-12) and np.all(ratio <= 1.05 + 1e-12)
    # Structural zeros stay zero; same seed reproduces the draw.
    assert np.all(noisy.matrix[~nonzero] == 0.0)
    again = perturb_sensitivity(smap, (-0.05, 0.05), seed=42)
    assert np.array_equal(noisy.matrix, again.matrix)
    other = perturb_sensitivity(smap, (-0.05, 0.05), seed=43)
    assert not np.array_equal(noisy.matrix, other.matrix)


@pytest.mark.parametrize("name", ALL_GRIDS)
def test_matrix_shape_and_labels(name):
    grid = load_grid(grid_path(name))
    smap = compute_sensitivity(grid)
    n, m = grid.n_bus, len(grid.branches)
    assert smap.matrix.shape == (n + m + 2, 2 * grid.n_ctrl)
    assert smap.row_labels[-2:] == ("p_pcc", "q_pcc")
    assert len(smap.col_labels) == 2 * grid.n_ctrl
    assert np.all(np.isfinite(smap.matrix))


def test_csv_export_round_trips_values(ring4, tmp_path):
    smap = compute_sensitivity(ring4)
    path = tmp_path / "sens.csv"
    export_sensitivity_csv(smap, path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["measurement", *smap.col_labels]
    assert len(rows) == 1 + len(smap.row_labels)
    parsed = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert np.array_equal(parsed, smap.matrix)  # repr round-trip is exact
    assert [row[0] for row in rows[1:]] == list(smap.row_labels)
