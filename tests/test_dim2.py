"""End-to-end checks of the two-dimensional paths."""

import numpy as np
import pytest

from quasiheat.grid import GridSpec, SpaceTimeField
from quasiheat.harness import ExperimentConfig, run_experiment
from quasiheat.regularity import RegularityParams, modelling_remainder


def test_noise_diag_d2(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        experiment="noise-diag",
        grid={"dim": 2, "n": 32, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        # fewer samples than the acceptance run: scale tolerances accordingly
        params={"n_samples": 1200, "covariance_rtol": 0.15, "whiteness_cap": 0.12},
        seeds=[4],
        output_dir=str(tmp_path / "out"),
    ))
    report = run_experiment(cfg)
    assert report.passed


def test_lemma_suite_d2(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        experiment="lemmas",
        grid={"dim": 2, "n": 32, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        params={"n_random": 4, "sim_basepoints": 1, "refine": False},
        seeds=[1],
        output_dir=str(tmp_path / "out"),
    ))
    report = run_experiment(cfg)
    assert report.passed
    assert all(np.isfinite(v) for v in report.metrics["constants"].values())


def test_modelling_remainder_d2_recovers_structure():
    # synthetic difference gradient: affine part plus a cubic tail whose
    # min-max remainder scales like r^3 and whose Hessian the fit recovers
    grid = GridSpec.create(2, 128)
    depth = int(np.ceil(0.25**2 / grid.snap_dt)) + 2  # slab of the largest radius
    times = grid.snapshot_times()[: depth + 1]
    xs = np.arange(128) / 128
    X, Y = np.meshgrid(xs - 0.5, xs - 0.5, indexing="ij")
    H = np.array([[0.8, -0.3], [-0.3, 0.5]])
    b = np.array([0.2, -0.1])
    r2 = X**2 + Y**2
    gw = np.empty((len(times), 128, 128, 2))
    for c in range(2):
        lin = H[c, 0] * X + H[c, 1] * Y
        cubic = 1.5 * r2 * (X if c == 0 else Y)
        gw[:, :, :, c] = b[c] + lin + cubic
    grad_u = SpaceTimeField(grid, times, gw)
    grad_va = SpaceTimeField(grid, times, np.zeros_like(gw))
    z = (float(times[-1]), (0.5, 0.5))
    reg = RegularityParams.for_grid(grid, alpha=0.75)
    rep = modelling_remainder(grad_u, grad_va, z, reg)
    assert not rep.degenerate
    assert rep.slope == pytest.approx(3.0, abs=0.3)
    assert np.max(np.abs(rep.models[0].B - H)) < 0.05
    assert np.max(np.abs(np.asarray(rep.b_reference) - b)) < 1e-12
    for m in rep.models:
        assert np.array_equal(m.B, m.B.T)
    base_slope, _ = rep.baseline_slope, rep.baseline_values
    # unmodelled oscillation of an affine-dominated field scales like r
    assert base_slope == pytest.approx(1.0, abs=0.15)
