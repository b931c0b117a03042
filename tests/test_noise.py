import os
import signal

import numpy as np
import pytest

from quasiheat.grid import GridSpec, Spectral
from quasiheat.noise import (
    BATCH_MAX_POINTS,
    SLOT_BYTES,
    SLOTS_PER_WORKER,
    NoiseError,
    NoisePath,
    NoiseSpec,
    analytic_covariance,
    build_spectrum,
    covariance_diagnostics,
)


def make_path(n=64, alpha=0.75, sigma=1.0, seed=42, dim=1, substeps=1):
    grid = GridSpec.create(dim, n)
    spec = NoiseSpec(alpha=alpha, dim=dim, sigma=sigma, master_seed=seed)
    return grid, NoisePath(spec, grid, substeps=substeps)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_zero_mode_amplitude():
    grid, path = make_path(sigma=1.7)
    assert path.amplitudes[0] == pytest.approx(1.7, abs=1e-15)


def test_spectral_exponent():
    spec = NoiseSpec(alpha=0.75, dim=1)
    assert spec.s == pytest.approx(2.5)
    spec2 = NoiseSpec(alpha=0.6, dim=2)
    assert spec2.s == pytest.approx(3.2)


def test_spectrum_formula_value():
    # K_hat(k) = sigma^2 (1+|k|^2)^(-s/2): at s = 3, k = 2*pi the value is
    # (1 + 4 pi^2)^(-3/2), about 3.9e-3
    k2 = 4 * np.pi**2
    assert (1 + k2) ** (-1.5) == pytest.approx(3.88e-3, rel=0.01)
    grid, path = make_path(alpha=0.75, sigma=1.0)
    khat_1 = path.amplitudes[1] ** 2
    assert khat_1 == pytest.approx((1 + k2) ** (-2.5 / 2), rel=1e-12)


def test_spectrum_even_in_k():
    grid = GridSpec.create(2, 16)
    spec = NoiseSpec(alpha=0.75, dim=2)
    amp = build_spectrum(spec, grid)
    # rows at +-m along the full-fft axis coincide
    for m in range(1, 8):
        assert np.allclose(amp[m], amp[-m])


def test_spec_validation():
    with pytest.raises(NoiseError):
        NoiseSpec(alpha=0.4, dim=1)
    with pytest.raises(NoiseError):
        NoiseSpec(alpha=1.0, dim=1)
    with pytest.raises(NoiseError):
        NoiseSpec(alpha=0.75, dim=1, sigma=-1.0)


def test_master_seed_is_one_64_bit_key_word():
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(NoiseError, match="master_seed"):
            NoiseSpec(alpha=0.75, dim=1, master_seed=seed)
    grid = GridSpec.create(1, 32)
    top = NoisePath(NoiseSpec(alpha=0.75, dim=1, master_seed=2**64 - 1), grid)
    assert top.increment_hat(3).tobytes() != make_path(n=32, seed=0)[1].increment_hat(3).tobytes()


# ---------------------------------------------------------------------------
# increments
# ---------------------------------------------------------------------------

def test_zero_amplitude_gives_zero_field():
    grid, path = make_path(sigma=0.0)
    assert np.all(Spectral(grid).to_phys(path.increment_hat(5)) == 0.0)


def test_increment_outside_time_support_is_zero():
    grid, path = make_path()
    step_after_one = int(1.0 / grid.dt) + 10
    assert np.all(path.increment_hat(step_after_one) == 0.0)


def test_determinism_bit_identical_across_instances_and_order():
    grid, path = make_path(seed=123)
    _, path2 = make_path(seed=123)
    steps = [5, 0, 17, 3, 5]
    a = {s: path.increment_hat(s) for s in steps}
    for s in reversed(steps):
        assert np.array_equal(a[s], path2.increment_hat(s))


def test_different_seeds_differ():
    _, p1 = make_path(seed=1)
    _, p2 = make_path(seed=2)
    assert not np.allclose(p1.increment_hat(0), p2.increment_hat(0))


def test_realness_residue():
    grid, path = make_path(n=64, sigma=2.0)
    for step in range(4):
        hat = path.increment_hat(step)
        full = Spectral(grid).mirrored_phys(hat)
        assert np.max(np.abs(full.imag)) <= 1e-12 * 2.0


def test_substep_aggregation_couples_levels():
    grid_c = GridSpec.create(1, 32, cfl=0.25)
    grid_f = GridSpec.create(1, 32, cfl=0.125)
    spec = NoiseSpec(alpha=0.75, dim=1, master_seed=9)
    coarse = NoisePath(spec, grid_c, substeps=2)
    fine = NoisePath(spec, grid_f, substeps=1)
    lhs = coarse.increment_hat(3)
    rhs = fine.increment_hat(6) + fine.increment_hat(7)
    assert np.allclose(lhs, rhs, atol=1e-15)


def test_digest_stable():
    _, p1 = make_path(seed=7)
    _, p2 = make_path(seed=7)
    assert p1.digest(range(8)) == p2.digest(range(8))


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

def test_mode_statistics():
    # n = 64 keeps all 1e4 sampled steps inside the noise time support
    grid, path = make_path(n=64, seed=11)
    n_samples = 10_000
    assert n_samples * grid.dt < 1.0
    m = 1
    coeffs = np.empty(n_samples, dtype=complex)
    means = 0.0
    for i in range(n_samples):
        f = np.fft.irfft(path.increment_hat(i), n=64)
        coeffs[i] = np.fft.rfft(f)[m] / 64
        means += f.mean()
    khat = path.amplitudes[m] ** 2
    var = np.mean(np.abs(coeffs) ** 2)
    assert var == pytest.approx(grid.dt * khat, rel=0.05)
    # the field mean is Gaussian with per-sample variance dt*khat(0); 3 MC sigmas
    mc_sigma = np.sqrt(grid.dt * path.amplitudes[0] ** 2 / n_samples)
    assert abs(means / n_samples) <= 3 * mc_sigma


def test_covariance_diagnostics_small():
    grid, path = make_path(n=32, seed=21)
    diag = covariance_diagnostics(path, 4000, max_lag=4)
    assert max(diag.covariance_rel_error) <= 0.08
    assert diag.disjoint_step_correlation <= 0.05
    assert diag.symmetry_residual <= 1e-12
    assert diag.max_imag_residue <= 1e-12
    assert diag.deterministic_replay
    assert diag.covariance_analytic[0] == pytest.approx(
        float(analytic_covariance(path.spec, grid, [0])[0])
    )


def test_diagnostics_requires_enough_samples():
    grid, path = make_path()
    with pytest.raises(NoiseError):
        covariance_diagnostics(path, 100)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def one_step_block_grid() -> GridSpec:
    """d = 2, n = 64: one-step blocks, 4 to a slot; a coarse dt keeps t = 1 near."""
    return GridSpec(dim=2, n=64, t_end=1.25, dt=2.0**-10, snap_stride=4)


@pytest.mark.parametrize("dim,n,substeps,sigma", [
    (1, 64, 1, 1.0), (1, 32, 2, 1.0), (1, 32, 3, 1.0),
    (2, 16, 1, 1.0), (2, 16, 3, 1.0), (1, 32, 1, 0.0), (2, 16, 2, 0.0), (2, 64, 2, 1.0),
])
def test_block_rows_are_the_bytes_of_increment_hat(dim, n, substeps, sigma):
    grid = GridSpec.create(dim, n, t_end=1.25)
    if n**dim > BATCH_MAX_POINTS:
        grid = one_step_block_grid()
    spec = NoiseSpec(alpha=0.75, dim=dim, sigma=sigma, master_seed=4)
    path = NoisePath(spec, grid, substeps=substeps)
    end = int(round(1.0 / grid.dt))  # the first step with t >= 1
    # aligned, unaligned, straddling t = 1, past it, and a block of one
    for start, stop in [(0, 64), (5, 70), (end - 10, end + 30), (end + 3, end + 9), (7, 8)]:
        block = path.increments(start, stop)
        assert block.shape == (stop - start,) + path.amplitudes.shape
        for row, step in zip(block, range(start, stop)):
            assert row.tobytes() == path.increment_hat(step).tobytes()
    assert np.any(path.increments(end - 1, end + 1)[0]) == (sigma > 0)
    assert not np.any(path.increments(end - 1, end + 1)[1])
    # the stream: one read-only row a step, in step order; straddling t = 1
    # and ending mid-slot, then whole slots
    assert (end + 30) % path.slot_steps
    for n_steps in (end + 30, 2 * path.slot_steps):
        with path.stream(n_steps) as items:
            for step, row in enumerate(items):
                assert row.shape == path.amplitudes.shape and not row.flags.writeable
                assert row.tobytes() == path.increment_hat(step).tobytes()
        assert step == n_steps - 1


@pytest.mark.parametrize("dim,n,block,slot,ring_bytes", [
    (1, 64, 64, 64, 270_336),  # one 64-step block: a snapshot interval
    (1, 256, 64, 64, 1_056_768),
    (2, 64, 1, 15, 4_055_040),  # 15 one-step blocks of 33 KiB fit in SLOT_BYTES, 16 do not
])
def test_slot_steps_are_whole_blocks_within_an_interval_and_the_byte_cap(dim, n, block, slot, ring_bytes):
    path = make_path(n=n, dim=dim)[1]
    row_bytes = path.amplitudes.size * 16
    assert (path.block_steps, path.slot_steps) == (block, slot)
    assert slot <= path.grid.snap_stride and slot * row_bytes <= SLOT_BYTES
    # the largest such slot: one more block breaks the interval or the byte cap
    assert slot + block > path.grid.snap_stride or (slot + block) * row_bytes > SLOT_BYTES
    assert 2 * SLOTS_PER_WORKER * slot * row_bytes == ring_bytes  # the ring on 2 cores
    grid = one_step_block_grid()  # an interval of 4 steps bounds the slot before the bytes do
    assert NoisePath(NoiseSpec(alpha=0.75, dim=2, master_seed=1), grid).slot_steps == grid.snap_stride
    huge = make_path(n=1024)[1]  # a 64-step block over SLOT_BYTES is a slot of its own
    assert huge.block_steps * huge.amplitudes.size * 16 > SLOT_BYTES and huge.slot_steps == 64


def test_more_workers_than_cores_keep_every_byte_in_order(monkeypatch):
    # 5 workers, likely more than the cores: every ring slot is reused, every credit cycles
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    path = make_path(n=32)[1]
    n_steps = 23 * path.slot_steps + 7
    got = bytearray()

    def stalled(signum, frame):
        raise TimeoutError("the stream stalled")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        with path.stream(n_steps) as items:
            for row in items:
                got += row.tobytes()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert bytes(got) == path.increments(0, n_steps).tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_error_names_its_step_and_every_worker_is_reaped(monkeypatch):
    path = NoisePath(NoiseSpec(alpha=0.75, dim=2, master_seed=1), one_step_block_grid())
    inner = NoisePath.increments

    def failing(self, start, stop):
        if start <= 37 < stop:
            raise FloatingPointError("bad draw")
        return inner(self, start, stop)

    monkeypatch.setattr(NoisePath, "increments", failing)
    seen = []
    with pytest.raises(NoiseError, match=r"steps \[37, 38\): FloatingPointError\('bad draw'\)"):
        with path.stream(100) as items:
            for step, _ in enumerate(items):
                seen.append(step)
    assert path.slot_steps == 4 and seen == list(range(36))  # every step before step 37's slot
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 64)])
def test_a_consumer_error_mid_stream_reaps_every_worker(dim, n):
    path = make_path(n=n, dim=dim)[1]
    with pytest.raises(KeyError):
        with path.stream(path.grid.n_steps) as items:
            for step, _ in enumerate(items):
                if step > 3 * path.slot_steps:
                    raise KeyError(step)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_block_steps_batch_small_rows_only():
    assert make_path(n=256)[1].block_steps == GridSpec.create(1, 256).snap_stride
    assert make_path(n=16, dim=2)[1].block_steps == GridSpec.create(2, 16).snap_stride
    assert make_path(n=64, dim=2)[1].block_steps == 1


def test_amplitudes_are_not_an_init_argument():
    grid = GridSpec.create(1, 16)
    spec = NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=1)
    with pytest.raises(TypeError):
        NoisePath(spec, grid, 1, np.zeros(3))  # used to be taken, then replaced
    assert NoisePath(spec, grid, 1).amplitudes.shape == Spectral(grid).k.shape[1:]
