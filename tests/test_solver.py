import numpy as np
import pytest

from quasiheat.grid import GridSpec
from quasiheat.noise import NoisePath, NoiseSpec
from quasiheat.nonlinearity import linear_family, sine_family
from quasiheat.solver import (
    SolveConfig,
    SolverError,
    solve_anisotropic_batch,
    solve_linear_constant,
    solve_nonlinear,
)


def setup(n=64, kappa=0.5, sigma=1.0, seed=5, cfl=0.25, dim=1, scheme="exp"):
    grid = GridSpec.create(dim, n, cfl=cfl)
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=sigma, master_seed=seed)
    path = NoisePath(spec, grid)
    A = sine_family(dim, kappa)
    return grid, SolveConfig(grid=grid, path=path, A=A, scheme=scheme)


def test_zero_noise_zero_data_stays_zero():
    _, cfg = setup(sigma=0.0)
    u = solve_nonlinear(cfg)
    assert np.all(u.state.values == 0.0)
    v = solve_linear_constant(cfg, None)
    assert np.all(v.state.values == 0.0)


def test_ou_single_mode_closed_form():
    grid, cfg = setup(sigma=0.0)
    xs = np.arange(64) / 64
    init = np.cos(2 * np.pi * 3 * xs)
    cfg.initial_state = init
    traj = solve_linear_constant(cfg, np.array([[0.8]]))
    mu = 0.8 * 4 * np.pi**2 * 9
    for it, t in enumerate(traj.state.times):
        exact = np.exp(-mu * t) * init
        assert np.max(np.abs(traj.state.values[it] - exact)) < 1e-12


def test_identity_flux_matches_exact_integrator():
    grid, cfg = setup(kappa=0.0)
    u = solve_nonlinear(cfg)
    v = solve_linear_constant(cfg, None)
    scale = np.max(np.abs(v.state.values))
    assert np.max(np.abs(u.state.values - v.state.values)) <= 1e-10 * scale
    assert np.max(np.abs(u.gradient.values - v.gradient.values)) <= 1e-10 * np.max(
        np.abs(v.gradient.values)
    )


def test_batch_of_one_is_bitwise_single():
    _, cfg = setup(n=32)
    a = np.array([[0.85]])
    batch = solve_anisotropic_batch(cfg, [a])
    single = solve_linear_constant(cfg, a)
    assert np.array_equal(batch[0].state.values, single.state.values)
    assert np.array_equal(batch[0].gradient.values, single.gradient.values)


def test_batch_identical_coefficients_identical_output():
    _, cfg = setup(n=32)
    a = np.array([[0.7]])
    batch = solve_anisotropic_batch(cfg, [a, a])
    assert np.array_equal(batch[0].state.values, batch[1].state.values)


def test_batch_matches_singles_bitwise():
    _, cfg = setup(n=32)
    rng = np.random.default_rng(3)
    mats = [np.array([[v]]) for v in rng.uniform(0.4, 1.0, size=8)]
    batch = solve_anisotropic_batch(cfg, mats)
    for m, b in zip(mats, batch):
        s = solve_linear_constant(cfg, m)
        assert np.array_equal(b.state.values, s.state.values)


def test_gradient_zero_spatial_mean():
    _, cfg = setup(n=64)
    u = solve_nonlinear(cfg)
    means = u.gradient.values.mean(axis=1)
    assert np.max(np.abs(means)) < 1e-12


def test_shared_path_between_solvers():
    grid, cfg = setup(n=32)
    assert cfg.path.digest(range(16)) == NoisePath(cfg.path.spec, grid).digest(range(16))


def test_refinement_order():
    # three noise-coupled levels dt, 2dt, 4dt via substep aggregation
    n, dim = 64, 1
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=1.0, master_seed=3)
    A = sine_family(dim, 0.5)
    terminal = {}
    for cfl, agg in ((0.0625, 1), (0.125, 2), (0.25, 4)):
        grid = GridSpec.create(dim, n, cfl=cfl)
        path = NoisePath(spec, grid, substeps=agg)
        cfg = SolveConfig(grid=grid, path=path, A=A)
        terminal[agg] = solve_nonlinear(cfg).state.values[-1]
    e21 = np.max(np.abs(terminal[2] - terminal[1]))
    e42 = np.max(np.abs(terminal[4] - terminal[2]))
    order = np.log2(e42 / e21)
    assert order >= 0.8


def test_imex_scheme_runs_and_tracks_exact():
    # rational-IMEX cross-check on a linear anisotropic flux: per-mode error
    # relative to the solution scale stays below 1%
    grid, cfg = setup(n=64, scheme="imex")
    cfgM = SolveConfig(grid=grid, path=cfg.path, A=linear_family([[0.8]]), scheme="imex")
    u = solve_nonlinear(cfgM)
    v = solve_linear_constant(cfgM, np.array([[0.8]]))
    uh = np.fft.rfft(u.state.values[-1])
    vh = np.fft.rfft(v.state.values[-1])
    scale = np.sqrt(np.mean(np.abs(vh) ** 2))
    assert np.max(np.abs(uh - vh)) / scale <= 0.01


def test_dt_bound_enforced():
    grid = GridSpec(dim=1, n=64, t_end=1.0, dt=0.3 / 64**2, snap_stride=1)
    spec = NoiseSpec(alpha=0.75, dim=1, master_seed=0)
    with pytest.raises(SolverError):
        SolveConfig(grid=grid, path=NoisePath(spec, grid), A=sine_family(1, 0.0))


def test_2d_solves():
    grid, cfg = setup(n=16, dim=2)
    u = solve_nonlinear(cfg)
    v = solve_linear_constant(cfg, np.array([[0.9, 0.05], [0.05, 0.8]]))
    assert u.state.values.shape == v.state.values.shape
    assert np.all(np.isfinite(u.state.values))
    assert u.gradient.values.shape[-1] == 2


def test_initial_condition_trajectory_starts_there():
    grid, cfg = setup(n=32, sigma=0.0)
    xs = np.arange(32) / 32
    cfg.initial_state = np.sin(2 * np.pi * xs)
    u = solve_nonlinear(cfg)
    assert np.max(np.abs(u.state.values[0] - cfg.initial_state)) < 1e-14


def test_dealias_option_runs():
    _, cfg = setup(n=32)
    cfg.dealias = True
    u = solve_nonlinear(cfg)
    assert np.all(np.isfinite(u.state.values))
    cfg.dealias = False
    v = solve_nonlinear(cfg)
    # the flux is non-polynomial, so the 2/3 mask is a small perturbation
    scale = np.max(np.abs(v.state.values))
    assert np.max(np.abs(u.state.values - v.state.values)) <= 0.1 * scale
