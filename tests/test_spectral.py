"""Bitwise parity of the spectral helper with the frozen per-module code."""

import numpy as np
import pytest

import solver_reference as solver_ref
import spectral_reference as ref
from quasiheat.grid import (
    GridSpec,
    Mollifier,
    SpaceTimeField,
    Spectral,
    mollify,
    mollify_deriv,
    spectral_gradient,
)
from quasiheat.noise import (
    NoisePath,
    NoiseSpec,
    analytic_covariance,
    build_spectrum,
    write_spectrum_csv,
)

CASES = [(1, 64), (1, 256), (2, 32), (2, 64)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def random_field(grid, n_times, comps=(), seed=0):
    rng = np.random.default_rng(seed)
    # snapshots on different scales
    scale = rng.exponential(size=n_times).reshape((n_times,) + (1,) * (grid.dim + len(comps)))
    vals = scale * rng.standard_normal((n_times,) + grid.shape + comps)
    return SpaceTimeField(grid, np.arange(n_times) * grid.snap_dt, vals)


@pytest.mark.parametrize("dim,n", CASES)
def test_spectrum_covariance_and_csv_match_reference(dim, n, tmp_path):
    grid = GridSpec.create(dim, n)
    spec = NoiseSpec(alpha=0.7, dim=dim, sigma=1.3)
    assert same_bits(build_spectrum(spec, grid), ref.build_spectrum(spec, grid))
    lags = list(range(6))
    assert same_bits(analytic_covariance(spec, grid, lags),
                     ref.analytic_covariance(spec, grid, lags))
    write_spectrum_csv(spec, grid, tmp_path / "new.csv")
    ref.write_spectrum_csv(spec, grid, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("dim,n", CASES)
def test_spectral_gradient_matches_reference_on_snapshots(dim, n):
    grid = GridSpec.create(dim, n)
    f = random_field(grid, 5, seed=n + dim)
    g = spectral_gradient(f).values
    assert same_bits(g, ref.spectral_gradient(f))
    # the batched call gives each snapshot's unbatched gradient
    sp = Spectral(grid)
    assert same_bits(g[2], sp.gradient_phys(sp.to_hat(f.values[2])))


@pytest.mark.parametrize("dim,n", CASES)
@pytest.mark.parametrize("comps", [(), ("d",), ("d", "d")])
def test_mollifiers_match_reference(dim, n, comps):
    grid = GridSpec.create(dim, n)
    comps = tuple(dim for _ in comps)
    f = random_field(grid, 3, comps, seed=7 * n + dim)
    r = 4 * grid.dx
    mol = Mollifier.build(grid, r)
    assert same_bits(mollify(f, r).values, ref.convolve(f, mol.mass_kernel))
    for axis in range(dim):
        assert same_bits(mollify_deriv(f, r, axis).values, ref.convolve(f, mol.deriv_kernels[axis]))


@pytest.mark.parametrize("dim,n", CASES)
def test_noise_transforms_match_reference(dim, n):
    grid = GridSpec.create(dim, n)
    path = NoisePath(NoiseSpec(alpha=0.75, dim=dim, master_seed=5), grid)
    axes = tuple(range(dim))
    sp = Spectral(grid)
    for step in range(3):
        hat = path.increment_hat(step)
        assert same_bits(sp.to_phys(hat),
                         np.fft.irfftn(hat, s=grid.shape, axes=axes))
        assert same_bits(sp.mirrored_phys(hat),
                         np.fft.ifftn(ref.full_spectrum(hat, grid), s=grid.shape, axes=axes))


@pytest.mark.parametrize("dim,n", CASES)
def test_wavenumbers_match_reference(dim, n):
    grid = GridSpec.create(dim, n)
    sp = Spectral(grid)
    for k, m, kw in zip(sp.k, ref._mode_frequencies(grid), ref._wavenumbers(grid)):
        assert same_bits(k, np.broadcast_to(2.0 * np.pi * m, k.shape))
        assert same_bits(k, np.broadcast_to(kw, k.shape))


@pytest.mark.parametrize("dim,n", CASES)
def test_symbol_matches_reference(dim, n):
    grid = GridSpec.create(dim, n)
    sp = Spectral(grid)
    rng = np.random.default_rng(n)
    for a in (None, np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))):
        assert same_bits(sp.symbol(a), np.broadcast_to(solver_ref._sym_mu(grid, a), sp.k.shape[1:]))


@pytest.mark.parametrize("dim,n", CASES)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transforms_on_batched_leading_axes_match_numpy_nd(dim, n, lead):
    grid = GridSpec.create(dim, n)
    sp = Spectral(grid)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(10 * n + dim + len(lead))
    phys = rng.standard_normal(lead + grid.shape)
    hat = np.fft.rfftn(phys, axes=axes)
    assert same_bits(sp.to_hat(phys), hat)
    assert same_bits(sp.to_phys(hat), np.fft.irfftn(hat, s=grid.shape, axes=axes))
    # gradient and divergence against per-component nd transforms
    ks = ref._wavenumbers(grid)
    grad = sp.gradient_phys(hat)
    assert same_bits(grad, np.stack(
        [np.fft.irfftn(1j * k * hat, s=grid.shape, axes=axes) for k in ks], axis=-1))
    q = rng.standard_normal(lead + grid.shape + (dim,))
    div = 1j * ks[0] * np.fft.rfftn(q[..., 0], axes=axes)
    if dim == 2:
        div = div + 1j * ks[1] * np.fft.rfftn(q[..., 1], axes=axes)
    assert same_bits(sp.divergence_hat(q), div)
    # a batched call gives every member its unbatched result
    for idx in np.ndindex(*lead):
        assert same_bits(grad[idx], sp.gradient_phys(hat[idx]))
        assert same_bits(sp.to_hat(phys)[idx], sp.to_hat(phys[idx]))


@pytest.mark.parametrize("dim,n", CASES)
def test_transforms_without_the_direct_gufuncs_give_the_same_bits(dim, n, monkeypatch):
    import quasiheat.grid as grid_mod

    # numpy >= 2 runs the direct gufuncs; the fallback is np.fft's public functions
    grid = GridSpec.create(dim, n)
    sp = Spectral(grid)
    phys = np.random.default_rng(n + dim).standard_normal((3,) + grid.shape)
    direct = sp.to_hat(phys), sp.to_phys(sp.to_hat(phys))
    monkeypatch.setattr(grid_mod, "_RFFT", None)
    monkeypatch.setattr(grid_mod, "_IRFFT", None)
    assert same_bits(sp.to_hat(phys), direct[0])
    assert same_bits(sp.to_phys(direct[0]), direct[1])
