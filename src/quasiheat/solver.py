"""Time integration of the quasilinear equation and its linear models.

Three equations share one noise path, and one engine advances any mix of
them in a single sweep over the steps, fetching each step's increment once:

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

``solve_anisotropic_batch(cfg, members)`` is the entry point: a member is the
flux ``cfg.A`` (at most one) or a constant coefficient (``None`` is the heat
model).  ``solve_nonlinear`` and ``solve_linear_constant`` are batches of
one.  Every member's update is elementwise in Fourier space, so it is bitwise
the same whether it is advanced alone or beside others.  The wavenumbers, the
symbols mu_k and the transforms come from ``grid.Spectral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .grid import GridSpec, SpaceTimeField, Spectral
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
    """Shared solver setup; dt comes from the noise path's grid and must
    satisfy cfl <= 1/4."""

    path: NoisePath
    A: Nonlinearity
    scheme: str = "exp"
    initial_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.scheme not in ("exp", "imex"):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.cfl > 0.25 + 1e-12:
            raise SolverError(f"cfl = {self.cfl} exceeds 1/4")
        if self.A.dim != self.grid.dim:
            raise SolverError("nonlinearity dimension does not match the grid")
        validate(self.A)

    @property
    def grid(self) -> GridSpec:
        return self.path.grid

    @property
    def cfl(self) -> float:
        return self.grid.dt / (self.grid.dx * self.grid.dx)


@dataclass(frozen=True)
class Trajectory:
    """State and spectral-gradient snapshots at the snapshot cadence."""

    state: SpaceTimeField
    gradient: SpaceTimeField

    def gradient_at(self, z) -> np.ndarray:
        t, x = z
        return np.asarray(self.gradient.value_at(t, x))


def _coeff_matrix(a) -> Optional[np.ndarray]:
    if isinstance(a, FrozenCoefficient):
        a = a.matrix
    return None if a is None else np.atleast_2d(np.asarray(a, dtype=float))


def _sweep(cfg: SolveConfig, members: Sequence) -> List[Trajectory]:
    """Advance every member on ``cfg.path`` in one pass over the steps.

    The flux member (if any) takes the ``exp``/``imex`` step of the module
    docstring; the constant-coefficient members are stacked along a leading
    axis and take the exact per-mode update.  Each member writes its own
    snapshot arrays, allocated once.
    """
    if len(members) == 0:
        return []
    grid = cfg.grid
    dt = grid.dt
    sp = Spectral(grid)
    flux = [i for i, m in enumerate(members) if isinstance(m, Nonlinearity)]
    if len(flux) > 1 or any(members[i] is not cfg.A for i in flux):
        raise SolverError("a sweep advances at most one flux member, and it must be cfg.A")
    linear = [i for i in range(len(members)) if i not in flux]
    slot = {i: k for k, i in enumerate(linear)}  # member -> row of the linear stack

    mu0 = sp.symbol()
    decay0 = np.exp(-mu0 * dt)
    rational = 1.0 / (1.0 + mu0 * dt)
    exp_scheme = cfg.scheme == "exp"
    if linear:
        decay = np.stack([np.exp(-sp.symbol(_coeff_matrix(members[i])) * dt) for i in linear])

    if cfg.initial_state is None:
        h0 = sp.to_hat(np.zeros(grid.shape))
    else:
        h0 = sp.to_hat(np.asarray(cfg.initial_state, dtype=float))
    uh = h0
    vh = np.empty((len(linear),) + h0.shape, dtype=complex)
    vh[:] = h0

    times = grid.snapshot_times()
    states = [np.empty((len(times),) + grid.shape) for _ in members]
    grads = [np.empty((len(times),) + grid.shape + (grid.dim,)) for _ in members]

    def snapshot(row: int) -> None:
        for i, (state, grad) in enumerate(zip(states, grads)):
            hat = vh[slot[i]] if i in slot else uh
            state[row] = sp.to_phys(hat)
            grad[row] = sp.gradient_phys(hat)

    snapshot(0)
    row = 1
    for step in range(grid.n_steps):
        if flux:
            g = sp.gradient_phys(uh)
            nh = sp.divergence_hat(cfg.A.ev(g) - g)
        dw = cfg.path.increment_hat(step)
        if flux:
            if exp_scheme:
                uh = decay0 * (uh + dt * nh) + dw
            else:
                uh = (uh + dt * nh + dw) * rational
        if linear:
            np.multiply(decay, vh, out=vh)
            vh += dw
        if (step + 1) % grid.snap_stride == 0:
            snapshot(row)
            if not all(np.all(np.isfinite(state[row])) for state in states):
                raise SolverDivergenceError(step)
            row += 1

    return [
        Trajectory(SpaceTimeField(grid, times, state), SpaceTimeField(grid, times, grad))
        for state, grad in zip(states, grads)
    ]


def solve_anisotropic_batch(
    cfg: SolveConfig,
    members: Sequence[Union[Nonlinearity, FrozenCoefficient, np.ndarray, None]],
) -> List[Trajectory]:
    """One sweep over the steps advancing every member on one noise path.

    A member is the flux ``cfg.A`` (at most one), a constant coefficient
    (``FrozenCoefficient`` or matrix), or ``None`` for the heat model.  Each
    increment is made once per step and shared, and every member is bitwise
    identical to a run of it alone.
    """
    return _sweep(cfg, members)


def solve_nonlinear(cfg: SolveConfig) -> Trajectory:
    """Advance the quasilinear equation from rest on the configured path."""
    return _sweep(cfg, [cfg.A])[0]


def solve_linear_constant(cfg: SolveConfig, a=None) -> Trajectory:
    """Exact-exponential (per-mode OU) solve of the constant-coefficient
    equation; ``a=None`` gives the plain heat model."""
    return _sweep(cfg, [a])[0]
