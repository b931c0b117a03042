"""Reference time loops for the solver and the noise increments.

A frozen copy of the three per-equation loops that ``quasiheat.solver`` ran
before they became one sweep engine, and of the increment that built a fresh
``Philox(key=...)`` for every step, with a frozen copy of the wavenumbers
they used.  The engine and ``NoisePath.increment_hat`` must reproduce these
bits exactly; each loop here draws its own increments, so a shared sweep is
checked against three independent ones.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from quasiheat.nonlinearity import FrozenCoefficient


def _wavenumbers(grid):
    n = grid.n
    if grid.dim == 1:
        return [2 * np.pi * np.fft.rfftfreq(n, d=grid.dx)]
    kx = 2 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    ky = 2 * np.pi * np.fft.rfftfreq(n, d=grid.dx)
    return [kx[:, None], ky[None, :]]


def increment_hat(path, step: int) -> np.ndarray:
    grid = path.grid
    amp = path.amplitudes
    if not path._active(step) or path.spec.sigma == 0.0:
        return np.zeros(amp.shape, dtype=complex)
    dt_fine = grid.dt / path.substeps
    scale = np.sqrt(dt_fine) * grid.n ** (grid.dim / 2.0)
    out = np.zeros(amp.shape, dtype=complex)
    base = path.substeps * step
    for i in range(path.substeps):
        rng = Generator(
            Philox(key=np.array([path.spec.master_seed, base + i], dtype=np.uint64))
        )
        w = rng.standard_normal(grid.shape)
        out += np.fft.rfftn(w)
    return scale * amp * out


def _sym_mu(grid, a):
    ks = _wavenumbers(grid)
    if a is None:
        a = np.eye(grid.dim)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s = 0.5 * (a + a.T)
    if grid.dim == 1:
        return s[0, 0] * ks[0] * ks[0]
    return (
        s[0, 0] * ks[0] * ks[0]
        + 2.0 * s[0, 1] * ks[0] * ks[1]
        + s[1, 1] * ks[1] * ks[1]
    )


class _Spectral:
    def __init__(self, grid):
        self.grid = grid
        self.axes = tuple(range(grid.dim))
        self.ks = _wavenumbers(grid)

    def to_hat(self, phys):
        return np.fft.rfftn(phys, axes=self.axes)

    def to_phys(self, hat):
        return np.fft.irfftn(hat, s=self.grid.shape, axes=self.axes)

    def gradient_phys(self, hat):
        comps = [self.to_phys(1j * k * hat) for k in self.ks]
        return np.stack(comps, axis=-1)

    def divergence_hat(self, q):
        out = None
        for i, k in enumerate(self.ks):
            term = 1j * k * self.to_hat(q[..., i])
            out = term if out is None else out + term
        return out


def _initial_hat(cfg, sp):
    if cfg.initial_state is None:
        return sp.to_hat(np.zeros(cfg.grid.shape))
    return sp.to_hat(np.asarray(cfg.initial_state, dtype=float))


def _alloc(grid):
    n_snap = grid.n_steps // grid.snap_stride + 1
    return np.empty((n_snap,) + grid.shape), np.empty((n_snap,) + grid.shape + (grid.dim,))


def _coeff_matrix(a):
    if a is None:
        return None
    if isinstance(a, FrozenCoefficient):
        return np.asarray(a.matrix)
    return np.atleast_2d(np.asarray(a, dtype=float))


def solve_nonlinear(cfg):
    """(state, gradient) snapshots of the quasilinear equation."""
    grid = cfg.grid
    sp = _Spectral(grid)
    mu0 = _sym_mu(grid, None)
    decay = np.exp(-mu0 * grid.dt)
    rational = 1.0 / (1.0 + mu0 * grid.dt)
    dt = grid.dt
    uh = _initial_hat(cfg, sp)
    state, grad = _alloc(grid)
    state[0], grad[0] = sp.to_phys(uh), sp.gradient_phys(uh)
    row = 1
    for step in range(grid.n_steps):
        g = sp.gradient_phys(uh)
        q = cfg.A.ev(g) - g
        nh = sp.divergence_hat(q)
        dw = increment_hat(cfg.path, step)
        if cfg.scheme == "exp":
            uh = decay * (uh + dt * nh) + dw
        else:
            uh = (uh + dt * nh + dw) * rational
        if (step + 1) % grid.snap_stride == 0:
            state[row] = sp.to_phys(uh)
            grad[row] = sp.gradient_phys(uh)
            row += 1
    return state, grad


def solve_linear_constant(cfg, a=None):
    """(state, gradient) snapshots of one constant-coefficient equation."""
    grid = cfg.grid
    sp = _Spectral(grid)
    decay = np.exp(-_sym_mu(grid, _coeff_matrix(a)) * grid.dt)
    vh = _initial_hat(cfg, sp)
    state, grad = _alloc(grid)
    state[0], grad[0] = sp.to_phys(vh), sp.gradient_phys(vh)
    row = 1
    for step in range(grid.n_steps):
        vh = decay * vh + increment_hat(cfg.path, step)
        if (step + 1) % grid.snap_stride == 0:
            state[row] = sp.to_phys(vh)
            grad[row] = sp.gradient_phys(vh)
            row += 1
    return state, grad


def solve_anisotropic_batch(cfg, coefficients):
    """[(state, gradient)] per coefficient, from one stacked loop."""
    grid = cfg.grid
    sp = _Spectral(grid)
    mats = [_coeff_matrix(a) for a in coefficients]
    decay = np.stack([np.exp(-_sym_mu(grid, m) * grid.dt) for m in mats])
    nb = len(mats)
    vh = np.zeros((nb,) + decay.shape[1:], dtype=complex)
    if cfg.initial_state is not None:
        vh[:] = _initial_hat(cfg, sp)[None]
    n_snap = grid.n_steps // grid.snap_stride + 1
    states = np.empty((nb, n_snap) + grid.shape)
    grads = np.empty((nb, n_snap) + grid.shape + (grid.dim,))
    for i in range(nb):
        states[i, 0] = sp.to_phys(vh[i])
        grads[i, 0] = sp.gradient_phys(vh[i])
    row = 1
    for step in range(grid.n_steps):
        vh = decay * vh + increment_hat(cfg.path, step)[None]
        if (step + 1) % grid.snap_stride == 0:
            for i in range(nb):
                states[i, row] = sp.to_phys(vh[i])
                grads[i, row] = sp.gradient_phys(vh[i])
            row += 1
    return [(states[i], grads[i]) for i in range(nb)]
