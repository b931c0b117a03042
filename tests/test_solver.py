import os
from types import SimpleNamespace

import numpy as np
import pytest

import solver_reference as ref
from quasiheat.grid import GridSpec
from quasiheat.noise import NoisePath, NoiseSpec
from quasiheat.nonlinearity import linear_family, sine_family
from quasiheat.solver import (
    SolverDivergenceError,
    SolverError,
    solve_anisotropic_batch,
    solve_linear_constant,
    solve_nonlinear,
)


def setup(n=64, kappa=0.5, sigma=1.0, seed=5, cfl=0.25, dim=1, t_end=1.0):
    grid = GridSpec.create(dim, n, cfl=cfl, t_end=t_end)
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=sigma, master_seed=seed)
    return grid, NoisePath(spec, grid), sine_family(dim, kappa)


def test_zero_noise_zero_data_stays_zero():
    _, path, A = setup(sigma=0.0)
    u = solve_nonlinear(path, A)
    assert np.all(u.state.values == 0.0)
    v = solve_linear_constant(path, None)
    assert np.all(v.state.values == 0.0)


def test_modes_decay_in_closed_form_after_the_noise_stops():
    # the noise is off from t = 1 on: each mode of the exact integrator then
    # decays as exp(-mu_k (t - 1)) from its value at t = 1
    grid, path, _ = setup(t_end=1.25)
    traj = solve_linear_constant(path, np.array([[0.8]]))
    times, states = traj.state.times, traj.state.values
    i1 = int(np.flatnonzero(np.isclose(times, 1.0))[0])
    assert i1 < len(times) - 1 and np.any(states[i1])
    mu = 0.8 * (2 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)) ** 2
    hat1 = np.fft.rfft(states[i1])
    scale = np.max(np.abs(states[i1]))
    for t, state in zip(times[i1:], states[i1:]):
        exact = np.fft.irfft(np.exp(-mu * (t - 1.0)) * hat1, n=grid.n)
        assert np.max(np.abs(state - exact)) <= 1e-12 * scale


def test_identity_flux_matches_exact_integrator():
    _, path, A = setup(kappa=0.0)
    u = solve_nonlinear(path, A)
    v = solve_linear_constant(path, None)
    scale = np.max(np.abs(v.state.values))
    assert np.max(np.abs(u.state.values - v.state.values)) <= 1e-10 * scale
    assert np.max(np.abs(u.gradient.values - v.gradient.values)) <= 1e-10 * np.max(
        np.abs(v.gradient.values)
    )


def test_batch_of_one_is_bitwise_single():
    _, path, _ = setup(n=32)
    a = np.array([[0.85]])
    batch = solve_anisotropic_batch(path, [a])
    single = solve_linear_constant(path, a)
    assert np.array_equal(batch[0].state.values, single.state.values)
    assert np.array_equal(batch[0].gradient.values, single.gradient.values)


def test_batch_identical_coefficients_identical_output():
    _, path, _ = setup(n=32)
    a = np.array([[0.7]])
    batch = solve_anisotropic_batch(path, [a, a])
    assert np.array_equal(batch[0].state.values, batch[1].state.values)


def test_batch_matches_singles_bitwise():
    _, path, _ = setup(n=32)
    rng = np.random.default_rng(3)
    mats = [np.array([[v]]) for v in rng.uniform(0.4, 1.0, size=8)]
    batch = solve_anisotropic_batch(path, mats)
    for m, b in zip(mats, batch):
        s = solve_linear_constant(path, m)
        assert np.array_equal(b.state.values, s.state.values)


def test_gradient_zero_spatial_mean():
    _, path, A = setup(n=64)
    u = solve_nonlinear(path, A)
    means = u.gradient.values.mean(axis=1)
    assert np.max(np.abs(means)) < 1e-12


def test_shared_path_between_solvers():
    grid, path, _ = setup(n=32)
    assert path.digest(range(16)) == NoisePath(path.spec, grid).digest(range(16))


def test_refinement_order():
    # three noise-coupled levels dt, 2dt, 4dt via substep aggregation
    n, dim = 64, 1
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=1.0, master_seed=3)
    A = sine_family(dim, 0.5)
    terminal = {}
    for cfl, agg in ((0.0625, 1), (0.125, 2), (0.25, 4)):
        grid = GridSpec.create(dim, n, cfl=cfl)
        path = NoisePath(spec, grid, substeps=agg)
        terminal[agg] = solve_nonlinear(path, A).state.values[-1]
    e21 = np.max(np.abs(terminal[2] - terminal[1]))
    e42 = np.max(np.abs(terminal[4] - terminal[2]))
    order = np.log2(e42 / e21)
    assert order >= 0.8


def test_dt_bound_enforced():
    grid = GridSpec(dim=1, n=64, t_end=1.0, dt=0.3 / 64**2, snap_stride=1)
    path = NoisePath(NoiseSpec(alpha=0.75, dim=1, master_seed=0), grid)
    with pytest.raises(SolverError):
        solve_nonlinear(path, sine_family(1, 0.0))
    with pytest.raises(SolverError):
        solve_linear_constant(path)


def test_flux_dimension_must_match_the_grid():
    _, path, _ = setup(n=32)
    with pytest.raises(SolverError):
        solve_nonlinear(path, sine_family(2, 0.5))


def test_2d_solves():
    _, path, A = setup(n=16, dim=2)
    u = solve_nonlinear(path, A)
    v = solve_linear_constant(path, np.array([[0.9, 0.05], [0.05, 0.8]]))
    assert u.state.values.shape == v.state.values.shape
    assert np.all(np.isfinite(u.state.values))
    assert u.gradient.values.shape[-1] == 2


def test_every_solution_starts_from_rest():
    _, path, A = setup(n=32)
    u, v = solve_anisotropic_batch(path, [A, np.array([[0.7]])])
    assert u.state.times[0] == 0.0
    assert not np.any(u.state.values[0]) and not np.any(v.state.values[0])
    assert np.any(u.state.values[1]) and np.any(v.state.values[1])


# ---- parity with the frozen per-equation loops of tests/solver_reference.py


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _path(dim, n, seed=11, sigma=1.0, substeps=1, cfl=0.25, t_end=1.0):
    grid = GridSpec.create(dim, n, cfl=cfl, t_end=t_end)
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=sigma, master_seed=seed)
    return grid, NoisePath(spec, grid, substeps=substeps)


@pytest.mark.parametrize("dim,n,substeps", [(1, 64, 1), (1, 128, 2), (2, 16, 1), (2, 16, 3)])
def test_increment_hat_matches_fresh_philox_reference(dim, n, substeps):
    grid, path = _path(dim, n, substeps=substeps, t_end=1.25)
    end = int(round(1.0 / grid.dt))  # the first step with t >= 1
    steps = [0, 1, end - 1, end, end + 1, grid.n_steps - 1, 7, end // 2]
    # out of order and repeated: a re-keyed generator carries no state over
    for step in steps + steps[::-1]:
        assert _bits_equal(path.increment_hat(step), ref.increment_hat(path, step))
    assert np.any(path.increment_hat(end - 1)) and not np.any(path.increment_hat(end))
    assert not np.any(path.increment_hat(grid.n_steps - 1))
    _, quiet = _path(dim, n, sigma=0.0)
    assert _bits_equal(quiet.increment_hat(5), ref.increment_hat(quiet, 5))


def _case(name):
    """(the setup ``solver_reference`` reads, two constant coefficients) for
    one parity case; every solve starts from rest with the exponential step."""
    if name.startswith("d2"):
        grid, path = _path(2, 16)
        A = sine_family(2, 0.5)
        coeffs = [np.array([[0.9, 0.05], [0.05, 0.8]]), np.array([[0.7, -0.1], [-0.1, 0.95]])]
    else:
        kw = {
            "substeps2": {"substeps": 2, "cfl": 0.125},
            "noise_end": {"t_end": 1.25},
            "sigma0": {"sigma": 0.0},
        }.get(name, {})
        grid, path = _path(1, 32, **kw)
        A = sine_family(1, 0.5)
        coeffs = [np.array([[0.85]]), np.array([[0.45]])]
    if name == "d2_linear_flux":
        # a matrix flux through the nonlinear step (matmul on the gradient view)
        A = linear_family(coeffs[0])
    return SimpleNamespace(path=path, A=A, grid=grid, scheme="exp", initial_state=None), coeffs


PARITY_CASES = ["d1", "d2", "substeps2", "noise_end", "sigma0", "d2_linear_flux"]


def _flux_at(k: int, flux, linear: list) -> list:
    """``linear`` with ``flux`` put in at position k."""
    return linear[:k] + [flux] + linear[k:]


def _flux_positions(names, positions) -> list:
    """(case, flux position) parameters; the flux-first case's id is the bare name."""
    return [pytest.param(name, k, id=name if k == 0 else f"{name}-flux{k}")
            for name in names for k in positions]


@pytest.mark.parametrize("name,flux_at", _flux_positions(PARITY_CASES, (0, 1, 3)))
def test_engine_mixed_batch_matches_reference_loops(name, flux_at):
    # the flux member first, in the middle and last: each row matches its own loop
    cfg, (a1, a2) = _case(name)
    got = solve_anisotropic_batch(cfg.path, _flux_at(flux_at, cfg.A, [None, a1, a2]))
    linear = [ref.solve_linear_constant(cfg, None)] + ref.solve_anisotropic_batch(cfg, [a1, a2])
    want = _flux_at(flux_at, ref.solve_nonlinear(cfg), linear)
    assert len(got) == len(want) == 4
    for traj, (state, grad) in zip(got, want):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


@pytest.mark.parametrize("name", ["d1", "d2"])
def test_batch_of_one_wrappers_match_reference_loops(name):
    cfg, (a1, _) = _case(name)
    for traj, (state, grad) in (
        (solve_nonlinear(cfg.path, cfg.A), ref.solve_nonlinear(cfg)),
        (solve_linear_constant(cfg.path, a1), ref.solve_linear_constant(cfg, a1)),
        (solve_linear_constant(cfg.path), ref.solve_linear_constant(cfg, None)),
    ):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


@pytest.mark.parametrize("dim", [1, 2])
def test_linear_flux_member_matches_reference(dim):
    # constant DA: the harness solves u with the exact integrator on A's matrix
    cfg, _ = _case("d2" if dim == 2 else "d1")
    A = sine_family(dim, 0.0)
    u, v = solve_anisotropic_batch(cfg.path, [A.linear_matrix, None])
    for traj, (state, grad) in zip(
        (u, v), (ref.solve_linear_constant(cfg, A.linear_matrix), ref.solve_linear_constant(cfg))
    ):
        assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, grad)


def _counting_increments(monkeypatch, tmp_path):
    """Record the step of every increment any path makes from now on, in this
    process or in a stream's forked workers: a line per step appended to the
    returned log."""
    log = tmp_path / "steps"
    log.write_text("")
    inner = NoisePath.increments

    def counted(self, start, stop):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, "".join(f"{s}\n" for s in range(start, stop)).encode())
        finally:
            os.close(fd)
        return inner(self, start, stop)

    monkeypatch.setattr(NoisePath, "increments", counted)
    return log


def _drawn(log) -> list:
    """The logged steps as a sorted multiset: workers draw concurrently."""
    return sorted(int(line) for line in log.read_text().split())


def test_shared_sweep_fetches_each_increment_once(monkeypatch, tmp_path):
    grid, path, A = setup(n=32)
    log = _counting_increments(monkeypatch, tmp_path)
    solve_anisotropic_batch(path, [A, None, np.array([[0.6]])])
    assert _drawn(log) == list(range(grid.n_steps))


def test_sweep_rejects_a_second_flux_member():
    _, path, A = setup(n=32)
    with pytest.raises(SolverError):
        solve_anisotropic_batch(path, [A, A])
    with pytest.raises(SolverError):
        solve_anisotropic_batch(path, [A, sine_family(1, 0.3)])


# ---- windowed members: a member given snapshot rows keeps only its gradient there


@pytest.mark.parametrize(
    "name,flux_at", _flux_positions(["d1", "d2", "noise_end", "substeps2"], (0, 2, 5)))
def test_windowed_members_match_full_run_and_reference(name, flux_at):
    cfg, (a1, a2) = _case(name)
    n_snap = len(cfg.grid.snapshot_times())
    members = _flux_at(flux_at, cfg.A, [None, a1, a2, a1, a2])
    rows = _flux_at(flux_at, slice(3, 7),
                    [None, slice(0, 2), slice(n_snap - 1, n_snap), slice(None), slice(5, 6)])
    got = solve_anisotropic_batch(cfg.path, members, rows)
    full = solve_anisotropic_batch(cfg.path, members)
    linear = [ref.solve_linear_constant(cfg, None)]
    linear += ref.solve_anisotropic_batch(cfg, [a1, a2, a1, a2])
    want = _flux_at(flux_at, ref.solve_nonlinear(cfg), linear)
    assert len(got) == len(want) == 6
    for traj, whole, (state, grad), keep in zip(got, full, want, rows):
        assert (traj.state is None) == (keep is not None)
        if keep is None:
            assert _bits_equal(traj.state.values, state)
        assert _bits_equal(traj.gradient.values, whole.gradient.values[keep or slice(None)])
        assert _bits_equal(traj.gradient.values, grad[keep or slice(None)])
        assert _bits_equal(traj.gradient.times, whole.gradient.times[keep or slice(None)])


def test_windowed_sweep_stops_after_the_last_kept_row(monkeypatch, tmp_path):
    grid, path, A = setup(n=32)
    log = _counting_increments(monkeypatch, tmp_path)
    stride = grid.snap_stride
    solve_anisotropic_batch(path, [A, np.array([[0.6]])], [slice(2, 4), slice(0, 6)])
    assert _drawn(log) == list(range(5 * stride))
    log.write_text("")
    solve_anisotropic_batch(path, [np.array([[0.6]])], [slice(0, 1)])
    assert _drawn(log) == []


def test_windowed_rows_rejected_unless_a_nonempty_run():
    _, path, _ = setup(n=32)
    for rows in ([slice(0, 4, 2)], [slice(3, 3)], [None, None]):
        with pytest.raises(SolverError):
            solve_anisotropic_batch(path, [None], rows)


@pytest.mark.parametrize("rows", [None, [slice(4, 6)], [slice(4, 6), slice(2, 3)], [None, slice(5, 6)]])
def test_non_finite_initial_state_raises_at_the_first_snapshot_kept_or_not(rows, monkeypatch):
    # a NaN enters through the increment of step s; every member is checked at
    # the snapshot that closes s's interval, whether that row is kept or not
    grid, path, A = setup(n=32)
    stride = grid.snap_stride
    s = 2 * stride + 5
    inner = NoisePath.increments

    def poisoned(self, start, stop):
        dw = inner(self, start, stop)
        if start <= s < stop:
            dw[s - start, 3] = np.nan
        return dw

    monkeypatch.setattr(NoisePath, "increments", poisoned)
    members = [A] if rows is None or len(rows) == 1 else [A, np.array([[0.6]])]
    with pytest.raises(SolverDivergenceError) as exc:
        solve_anisotropic_batch(path, members, rows)
    assert exc.value.step == 3 * stride - 1
    # a linear member alone diverges at the same step
    with pytest.raises(SolverDivergenceError) as exc:
        solve_anisotropic_batch(path, [np.array([[0.6]])], [slice(4, 6)])
    assert exc.value.step == 3 * stride - 1
    with pytest.raises(ChildProcessError):  # every worker of both sweeps is reaped
        os.waitpid(-1, os.WNOHANG)

