import numpy as np
import pytest

import solver_reference as ref
from quasiheat.grid import GridSpec
from quasiheat.noise import NoisePath, NoiseSpec
from quasiheat.nonlinearity import linear_family, sine_family
from quasiheat.solver import (
    SolveConfig,
    SolverDivergenceError,
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
    return grid, SolveConfig(path=path, A=A, scheme=scheme)


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
        cfg = SolveConfig(path=path, A=A)
        terminal[agg] = solve_nonlinear(cfg).state.values[-1]
    e21 = np.max(np.abs(terminal[2] - terminal[1]))
    e42 = np.max(np.abs(terminal[4] - terminal[2]))
    order = np.log2(e42 / e21)
    assert order >= 0.8


def test_imex_scheme_runs_and_tracks_exact():
    # rational-IMEX cross-check on a linear anisotropic flux: per-mode error
    # relative to the solution scale stays below 1%
    grid, cfg = setup(n=64, scheme="imex")
    cfgM = SolveConfig(path=cfg.path, A=linear_family([[0.8]]), scheme="imex")
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
        SolveConfig(path=NoisePath(spec, grid), A=sine_family(1, 0.0))


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


# ---- parity with the frozen per-equation loops of tests/solver_reference.py


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _path(dim, n, seed=11, sigma=1.0, t_support=(0.0, 1.0), substeps=1, cfl=0.25):
    grid = GridSpec.create(dim, n, cfl=cfl)
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=sigma, master_seed=seed, t_support=t_support)
    return grid, NoisePath(spec, grid, substeps=substeps)


@pytest.mark.parametrize("dim,n,substeps", [(1, 64, 1), (1, 128, 2), (2, 16, 1), (2, 16, 3)])
def test_increment_hat_matches_fresh_philox_reference(dim, n, substeps):
    grid, path = _path(dim, n, t_support=(0.25, 0.5), substeps=substeps)
    lo, hi = (int(round(t / grid.dt)) for t in (0.25, 0.5))
    steps = [0, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, grid.n_steps - 1, 7, 3 * lo // 2]
    # out of order and repeated: a re-keyed generator carries no state over
    for step in steps + steps[::-1]:
        assert _bits_equal(path.increment_hat(step), ref.increment_hat(path, step))
    assert not np.any(path.increment_hat(lo - 1)) and np.any(path.increment_hat(lo))
    assert np.any(path.increment_hat(hi - 1)) and not np.any(path.increment_hat(hi))
    _, quiet = _path(dim, n, sigma=0.0)
    assert _bits_equal(quiet.increment_hat(5), ref.increment_hat(quiet, 5))


def _xs(grid):
    return np.arange(grid.n) / grid.n


def _case(name):
    """(SolveConfig, two constant coefficients) for one parity case."""
    if name.startswith("d2"):
        grid, path = _path(2, 16)
        A = sine_family(2, 0.5)
        coeffs = [np.array([[0.9, 0.05], [0.05, 0.8]]), np.array([[0.7, -0.1], [-0.1, 0.95]])]
    else:
        kw = {
            "substeps2": {"substeps": 2, "cfl": 0.125},
            "t_support": {"t_support": (0.25, 0.5)},
            "sigma0": {"sigma": 0.0},
        }.get(name, {})
        grid, path = _path(1, 32, **kw)
        A = sine_family(1, 0.5)
        coeffs = [np.array([[0.85]]), np.array([[0.45]])]
    if name == "imex":
        A = linear_family([[0.8]])
    if name == "d2_linear_flux":
        # a matrix flux through the nonlinear step (matmul on the gradient view)
        A = linear_family(coeffs[0])
    cfg = SolveConfig(path=path, A=A, scheme="imex" if name == "imex" else "exp")
    if name in ("sigma0", "initial_state"):
        x = _xs(grid)
        cfg.initial_state = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    if name == "d2_initial_state":
        x = _xs(grid)
        cfg.initial_state = np.sin(2 * np.pi * x)[:, None] * np.cos(4 * np.pi * x)[None, :]
    return cfg, coeffs


PARITY_CASES = ["d1", "d2", "substeps2", "t_support", "sigma0", "imex", "initial_state",
                "d2_initial_state", "d2_linear_flux"]


@pytest.mark.parametrize("name", PARITY_CASES)
def test_engine_mixed_batch_matches_reference_loops(name):
    cfg, (a1, a2) = _case(name)
    got = solve_anisotropic_batch(cfg, [cfg.A, None, a1, a2])
    want = [ref.solve_nonlinear(cfg), ref.solve_linear_constant(cfg, None)]
    want += ref.solve_anisotropic_batch(cfg, [a1, a2])
    for traj, (state, grad) in zip(got, want):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


@pytest.mark.parametrize("name", ["d1", "d2", "imex", "initial_state"])
def test_batch_of_one_wrappers_match_reference_loops(name):
    cfg, (a1, _) = _case(name)
    for traj, (state, grad) in (
        (solve_nonlinear(cfg), ref.solve_nonlinear(cfg)),
        (solve_linear_constant(cfg, a1), ref.solve_linear_constant(cfg, a1)),
        (solve_linear_constant(cfg), ref.solve_linear_constant(cfg, None)),
    ):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


@pytest.mark.parametrize("dim", [1, 2])
def test_linear_flux_member_matches_reference(dim):
    # constant DA: the harness solves u with the exact integrator on A's matrix
    grid, path = _path(dim, 32 if dim == 1 else 16)
    A = sine_family(dim, 0.0)
    cfg = SolveConfig(path=path, A=A)
    u, v = solve_anisotropic_batch(cfg, [A.linear_matrix, None])
    for traj, (state, grad) in zip(
        (u, v), (ref.solve_linear_constant(cfg, A.linear_matrix), ref.solve_linear_constant(cfg))
    ):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


def test_shared_sweep_fetches_each_increment_once(monkeypatch):
    _, cfg = setup(n=32)
    calls = []
    inner = NoisePath.increment_hat
    monkeypatch.setattr(NoisePath, "increment_hat", lambda self, step: calls.append(step) or inner(self, step))
    solve_anisotropic_batch(cfg, [cfg.A, None, np.array([[0.6]])])
    assert calls == list(range(cfg.grid.n_steps))


def test_sweep_rejects_a_second_flux_member():
    _, cfg = setup(n=32)
    with pytest.raises(SolverError):
        solve_anisotropic_batch(cfg, [cfg.A, cfg.A])
    with pytest.raises(SolverError):
        solve_anisotropic_batch(cfg, [sine_family(1, 0.3)])


# ---- windowed members: a member given snapshot rows keeps only its gradient there


@pytest.mark.parametrize("name", ["d1", "d2", "initial_state", "imex"])
def test_windowed_members_match_full_run_and_reference(name):
    cfg, (a1, a2) = _case(name)
    n_snap = len(cfg.grid.snapshot_times())
    members = [cfg.A, None, a1, a2, a1, a2]
    rows = [slice(3, 7), None, slice(0, 2), slice(n_snap - 1, n_snap), slice(None), slice(5, 6)]
    got = solve_anisotropic_batch(cfg, members, rows)
    full = solve_anisotropic_batch(cfg, members)
    want = [ref.solve_nonlinear(cfg), ref.solve_linear_constant(cfg, None)]
    want += ref.solve_anisotropic_batch(cfg, [a1, a2, a1, a2])
    for traj, whole, (state, grad), keep in zip(got, full, want, rows):
        assert (traj.state is None) == (keep is not None)
        if keep is None:
            assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, whole.gradient.values[keep or slice(None)])
        assert _bits_equal(traj.gradient.values, grad[keep or slice(None)])
        assert _bits_equal(traj.gradient.times, whole.gradient.times[keep or slice(None)])


def test_windowed_sweep_stops_after_the_last_kept_row(monkeypatch):
    _, cfg = setup(n=32)
    calls = []
    inner = NoisePath.increment_hat
    monkeypatch.setattr(NoisePath, "increment_hat", lambda self, step: calls.append(step) or inner(self, step))
    stride = cfg.grid.snap_stride
    solve_anisotropic_batch(cfg, [cfg.A, np.array([[0.6]])], [slice(2, 4), slice(0, 6)])
    assert calls == list(range(5 * stride))
    calls.clear()
    solve_anisotropic_batch(cfg, [np.array([[0.6]])], [slice(0, 1)])
    assert calls == []


def test_windowed_rows_rejected_unless_a_nonempty_run():
    _, cfg = setup(n=32)
    for rows in ([slice(0, 4, 2)], [slice(3, 3)], [None, None]):
        with pytest.raises(SolverError):
            solve_anisotropic_batch(cfg, [None], rows)


@pytest.mark.parametrize("rows", [None, [slice(4, 6)], [slice(4, 6), slice(2, 3)], [None, slice(5, 6)]])
def test_non_finite_initial_state_raises_at_the_first_snapshot_kept_or_not(rows):
    grid, cfg = setup(n=32)
    cfg.initial_state = np.zeros(grid.shape)
    cfg.initial_state[3] = np.nan
    members = [cfg.A] if rows is None or len(rows) == 1 else [cfg.A, np.array([[0.6]])]
    with pytest.raises(SolverDivergenceError) as exc:
        solve_anisotropic_batch(cfg, members, rows)
    assert exc.value.step == grid.snap_stride - 1
    # a linear member alone diverges at the same step
    with pytest.raises(SolverDivergenceError) as exc:
        solve_anisotropic_batch(cfg, [np.array([[0.6]])], [slice(4, 6)])
    assert exc.value.step == grid.snap_stride - 1
