"""Time integration of the quasilinear equation and its linear models.

Three equations share one noise path:

* nonlinear:   du/dt = div A(grad u) + xi
* heat:        dv/dt = Lap v + xi
* anisotropic: dv_a/dt = div a grad v_a + xi   (constant elliptic a)

The nonlinear equation is advanced by a stabilized exponential splitting of
du/dt = Lap u + div(A(grad u) - grad u) + xi:

    u_hat <- exp(-|k|^2 dt) * (u_hat + dt * N_hat(u)) + dW_hat

which damps the stiff part unconditionally (the explicit remainder has
Jacobian norm at most 2 because |DA eta| <= |eta|) and, crucially, injects
each fresh noise increment with unit coefficient -- exactly as the
constant-coefficient integrator below does, so the noise-transfer error
cancels in differences of solutions driven by the same path.  A classical
rational variant (u_hat + dt N_hat + dW_hat) / (1 + |k|^2 dt) is retained as
scheme="imex" for cross-checks; its noise factor 1/(1+|k|^2 dt) pollutes the
high modes of solution differences and is not used for modelledness runs.

Constant-coefficient equations use the exact per-mode exponential update

    v_hat <- exp(-mu_k dt) v_hat + dW_hat,   mu_k = k . sym(a) k,

which removes time-discretization error from the model side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .grid import GridSpec, SpaceTimeField, _wavenumbers
from .noise import NoisePath
from .nonlinearity import FrozenCoefficient, Nonlinearity, validate


class SolverError(RuntimeError):
    pass


class SolverDivergenceError(SolverError):
    def __init__(self, step: int):
        super().__init__(
            f"non-finite state at step {step}: time step violates the stability bound"
        )
        self.step = step


@dataclass
class SolveConfig:
    """Shared solver setup; dt comes from the grid and must satisfy cfl <= 1/4."""

    grid: GridSpec
    path: NoisePath
    A: Nonlinearity
    dealias: bool = False
    scheme: str = "exp"
    initial_state: Optional[np.ndarray] = None
    _validated: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.scheme not in ("exp", "imex"):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.cfl > 0.25 + 1e-12:
            raise SolverError(f"cfl = {self.cfl} exceeds 1/4")
        if self.path.grid != self.grid:
            raise SolverError("noise path is bound to a different grid")
        if self.A.dim != self.grid.dim:
            raise SolverError("nonlinearity dimension does not match the grid")
        if not self._validated:
            validate(self.A)
            self._validated = True

    @property
    def cfl(self) -> float:
        return self.grid.dt / (self.grid.dx * self.grid.dx)


@dataclass(frozen=True)
class Trajectory:
    """State and spectral-gradient snapshots at the snapshot cadence."""

    state: SpaceTimeField
    gradient: SpaceTimeField
    provenance: dict

    def gradient_at(self, z) -> np.ndarray:
        t, x = z
        return np.asarray(self.gradient.value_at(t, x))


def _sym_mu(grid: GridSpec, a: Optional[np.ndarray]) -> np.ndarray:
    """Fourier symbol k . sym(a) k on the rfftn mode layout."""
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


def _dealias_mask(grid: GridSpec) -> np.ndarray:
    ks = _wavenumbers(grid)
    cut = 2.0 * np.pi * (grid.n // 3)
    if grid.dim == 1:
        return (np.abs(ks[0]) <= cut).astype(float)
    return ((np.abs(ks[0]) <= cut) & (np.abs(ks[1]) <= cut)).astype(float)


class _Spectral:
    """Cached FFT helpers for one grid."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.axes = tuple(range(grid.dim))
        self.ks = _wavenumbers(grid)

    def to_hat(self, phys: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(phys, axes=self.axes)

    def to_phys(self, hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(hat, s=self.grid.shape, axes=self.axes)

    def gradient_phys(self, hat: np.ndarray) -> np.ndarray:
        comps = [self.to_phys(1j * k * hat) for k in self.ks]
        return np.stack(comps, axis=-1)

    def divergence_hat(self, q: np.ndarray) -> np.ndarray:
        out = None
        for i, k in enumerate(self.ks):
            term = 1j * k * self.to_hat(q[..., i])
            out = term if out is None else out + term
        return out


def _provenance(cfg: SolveConfig, kind: str, extra: dict = None) -> dict:
    p = {
        "kind": kind,
        "scheme": cfg.scheme if kind == "nonlinear" else "exact-ou",
        "grid": cfg.grid.to_dict(),
        "cfl": cfg.cfl,
        "seed": cfg.path.spec.master_seed,
        "noise": cfg.path.spec.to_dict(),
        "nonlinearity": {"name": cfg.A.name, **cfg.A.params},
        "dealias": cfg.dealias,
    }
    if extra:
        p.update(extra)
    return p


def _initial_hat(cfg: SolveConfig, sp: _Spectral) -> np.ndarray:
    if cfg.initial_state is None:
        return sp.to_hat(np.zeros(cfg.grid.shape))
    return sp.to_hat(np.asarray(cfg.initial_state, dtype=float))


def _alloc(grid: GridSpec) -> tuple:
    n_snap = grid.n_steps // grid.snap_stride + 1
    state = np.empty((n_snap,) + grid.shape)
    grad = np.empty((n_snap,) + grid.shape + (grid.dim,))
    return state, grad


def solve_nonlinear(cfg: SolveConfig) -> Trajectory:
    """Advance the quasilinear equation from rest on the configured path."""
    grid = cfg.grid
    sp = _Spectral(grid)
    mu0 = _sym_mu(grid, None)
    decay = np.exp(-mu0 * grid.dt)
    rational = 1.0 / (1.0 + mu0 * grid.dt)
    mask = _dealias_mask(grid) if cfg.dealias else None
    dt = grid.dt
    exp_scheme = cfg.scheme == "exp"

    uh = _initial_hat(cfg, sp)
    state, grad = _alloc(grid)
    state[0], grad[0] = sp.to_phys(uh), sp.gradient_phys(uh)
    row = 1
    for step in range(grid.n_steps):
        g = sp.gradient_phys(uh)
        q = cfg.A.ev(g) - g
        nh = sp.divergence_hat(q)
        if mask is not None:
            nh = nh * mask
        dw = cfg.path.increment_hat(step)
        if exp_scheme:
            uh = decay * (uh + dt * nh) + dw
        else:
            uh = (uh + dt * nh + dw) * rational
        if (step + 1) % grid.snap_stride == 0:
            state[row] = sp.to_phys(uh)
            grad[row] = sp.gradient_phys(uh)
            if not np.all(np.isfinite(state[row])):
                raise SolverDivergenceError(step)
            row += 1

    times = grid.snapshot_times()
    return Trajectory(
        SpaceTimeField(grid, times, state),
        SpaceTimeField(grid, times, grad),
        _provenance(cfg, "nonlinear"),
    )


def _coeff_matrix(a) -> Optional[np.ndarray]:
    if a is None:
        return None
    if isinstance(a, FrozenCoefficient):
        return np.asarray(a.matrix)
    return np.atleast_2d(np.asarray(a, dtype=float))


def solve_linear_constant(cfg: SolveConfig, a=None) -> Trajectory:
    """Exact-exponential (per-mode OU) solve of the constant-coefficient
    equation; ``a=None`` gives the plain heat model."""
    grid = cfg.grid
    sp = _Spectral(grid)
    mat = _coeff_matrix(a)
    decay = np.exp(-_sym_mu(grid, mat) * grid.dt)
    vh = _initial_hat(cfg, sp)
    state, grad = _alloc(grid)
    state[0], grad[0] = sp.to_phys(vh), sp.gradient_phys(vh)
    row = 1
    for step in range(grid.n_steps):
        vh = decay * vh + cfg.path.increment_hat(step)
        if (step + 1) % grid.snap_stride == 0:
            state[row] = sp.to_phys(vh)
            grad[row] = sp.gradient_phys(vh)
            if not np.all(np.isfinite(state[row])):
                raise SolverDivergenceError(step)
            row += 1
    times = grid.snapshot_times()
    extra = {"coefficient": (mat.tolist() if mat is not None else "identity")}
    return Trajectory(
        SpaceTimeField(grid, times, state),
        SpaceTimeField(grid, times, grad),
        _provenance(cfg, "linear", extra),
    )


def solve_anisotropic_batch(
    cfg: SolveConfig, coefficients: Sequence[Union[FrozenCoefficient, np.ndarray]]
) -> List[Trajectory]:
    """One sweep over the steps updating every frozen-coefficient model.

    Each noise increment is regenerated once and broadcast across the batch;
    per-mode updates are elementwise, so each batch member is bitwise
    identical to a ``solve_linear_constant`` run with its coefficient.
    """
    if len(coefficients) == 0:
        return []
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
        dw = cfg.path.increment_hat(step)
        vh = decay * vh + dw[None]
        if (step + 1) % grid.snap_stride == 0:
            for i in range(nb):
                states[i, row] = sp.to_phys(vh[i])
                grads[i, row] = sp.gradient_phys(vh[i])
            if not np.all(np.isfinite(states[:, row])):
                raise SolverDivergenceError(step)
            row += 1

    times = grid.snapshot_times()
    out = []
    for i, mat in enumerate(mats):
        extra = {
            "coefficient": (mat.tolist() if mat is not None else "identity"),
            "batch_index": i,
            "batch_size": nb,
        }
        out.append(
            Trajectory(
                SpaceTimeField(grid, times, states[i]),
                SpaceTimeField(grid, times, grads[i]),
                _provenance(cfg, "linear", extra),
            )
        )
    return out
