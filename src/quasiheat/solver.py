"""Time integration of the quasilinear equation and its linear models.

Three equations share one noise path, and one engine advances any mix of
them in a single sweep while ``NoisePath.stream``'s forked workers, one per
usable core with its own copy of the path, draw the increments of the next steps:

* nonlinear:   du/dt = div A(grad u) + xi
* heat:        dv/dt = Lap v + xi
* anisotropic: dv_a/dt = div a grad v_a + xi   (constant elliptic a)

Each member is a row h of one stack of spectra, and every row takes the
exponential step

    h <- exp(-mu_k dt) * (h + dt * N_hat(h)) + dW_hat,   mu_k = k . sym(a) k.

A constant-coefficient row has N = 0: the exact per-mode update, which
removes time-discretization error from the model side.  The flux row has
a = I and N = div(A(grad u) - grad u), a stabilized exponential splitting of
du/dt = Lap u + div(A(grad u) - grad u) + xi that damps the stiff part
unconditionally (the explicit remainder has Jacobian norm at most 2 because
|DA eta| <= |eta|).  Every row injects each fresh noise increment with unit
coefficient, so the noise-transfer error cancels in differences of solutions
driven by the same path.

``solve_anisotropic_batch(path, members, rows)`` is the entry point.  Every
member starts from rest at t = 0 (fields are zero for t <= 0) under the
path's noise, which stops at t = 1 (``noise.NOISE_END``).  A member is a
flux ``Nonlinearity`` (at most one) or a constant coefficient (``None`` is
the heat model); it keeps state and gradient at every snapshot, or only its
gradient on given rows, such as the slab a frozen model's cylinders read.
``solve_nonlinear`` and ``solve_linear_constant`` are batches of one.  Every
row's update is elementwise in Fourier space, so a member is bitwise the
same alone or beside others, in any position.  The wavenumbers, the symbols
mu_k and the transforms come from ``grid.Spectral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .grid import SpaceTimeField, Spectral
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

    def __reduce__(self):  # pickled by its step, not its message
        return type(self), (self.step,)


@dataclass(frozen=True)
class Trajectory:
    """State and spectral-gradient snapshots at the snapshot cadence; a
    member that kept only some rows has their gradient and no state."""

    state: Optional[SpaceTimeField]
    gradient: SpaceTimeField

    def gradient_at(self, z) -> np.ndarray:
        return np.asarray(self.gradient.value_at(*z))


def _coeff_matrix(a) -> Optional[np.ndarray]:
    if isinstance(a, FrozenCoefficient):
        a = a.matrix
    return None if a is None else np.atleast_2d(np.asarray(a, dtype=float))


def solve_anisotropic_batch(
    path: NoisePath,
    members: Sequence[Union[Nonlinearity, FrozenCoefficient, np.ndarray, None]],
    rows: Optional[Sequence[Optional[slice]]] = None,
) -> List[Trajectory]:
    """One sweep over the steps advancing every member from rest on ``path``.

    A member is a flux ``Nonlinearity`` (at most one), a constant coefficient
    (``FrozenCoefficient`` or matrix), or ``None`` for the heat model.  Each
    increment is made once per step and shared, and every member is bitwise
    identical to a run of it alone: each is a row of one stack of spectra,
    in member order, and takes the step of the module docstring, the flux
    row with its explicit term, the others with the exact per-mode decay.
    dt comes from the path's grid and must satisfy cfl <= 1/4.
    ``rows[i]`` None (the default) keeps member i's state and gradient at
    every snapshot; a slice of snapshot rows keeps only its gradient there.
    The sweep stops after the last kept row, and every member is checked for
    finiteness at every snapshot, kept or not.
    """
    return _sweep(path, members, rows)


def _sweep(path: NoisePath, members, rows) -> List[Trajectory]:
    """The engine of the three public solves; each calls it once, so tracing
    their names counts one sweep per call."""
    grid = path.grid
    dt = grid.dt
    cfl = dt / (grid.dx * grid.dx)
    if cfl > 0.25 + 1e-12:
        raise SolverError(f"cfl = {cfl} exceeds 1/4")
    if len(members) == 0:
        return []
    flux = [i for i, m in enumerate(members) if isinstance(m, Nonlinearity)]
    if len(flux) > 1:
        raise SolverError("a sweep advances at most one flux member")
    A = members[flux[0]] if flux else None
    if A is not None:
        if A.dim != grid.dim:
            raise SolverError("nonlinearity dimension does not match the grid")
        validate(A)
    sp = Spectral(grid)

    times = grid.snapshot_times()
    rows = [None] * len(members) if rows is None else rows
    spans = [range(len(times))[r or slice(None)] for r in rows]
    if len(spans) != len(members) or any(s.step != 1 or not s for s in spans):
        raise SolverError("rows must give each member None or a nonempty run of snapshot rows")
    last = max(s[-1] for s in spans)
    n_steps = grid.n_steps if last == len(times) - 1 else last * grid.snap_stride

    # the flux row decays by |k|^2; numpy's cast per product, once
    decay = np.stack([np.exp(-sp.symbol(None if i in flux else _coeff_matrix(m)) * dt)
                      for i, m in enumerate(members)]).astype(complex)
    h = np.repeat(sp.to_hat(np.zeros(grid.shape))[None], len(members), axis=0)

    states = [np.empty((len(s),) + grid.shape) if r is None else None for r, s in zip(rows, spans)]
    grads = [np.empty((len(s),) + grid.shape + (grid.dim,)) for s in spans]

    def snapshot(row: int) -> None:
        for hat, span, state, grad in zip(h, spans, states, grads):
            if row in span:
                if state is not None:
                    state[row] = sp.to_phys(hat)
                grad[row - span.start] = sp.gradient_phys(hat)

    snapshot(0)
    with path.stream(n_steps) as increments:
        for stop, rows in increments:
            for dw in rows:
                for f in flux:
                    g = sp.gradient_phys(h[f])
                    h[f] += dt * sp.divergence_hat(A.ev(g) - g)
                np.multiply(decay, h, out=h)
                h += dw
            if stop % grid.snap_stride == 0:
                if not np.all(np.isfinite(h)):
                    raise SolverDivergenceError(stop - 1)
                snapshot(stop // grid.snap_stride)

    return [
        Trajectory(None if state is None else SpaceTimeField(grid, times, state),
                   SpaceTimeField(grid, times[span.start:span.stop], grad))
        for span, state, grad in zip(spans, states, grads)
    ]


def solve_nonlinear(path: NoisePath, A: Nonlinearity) -> Trajectory:
    """Advance the quasilinear equation with flux ``A`` from rest on ``path``."""
    return _sweep(path, [A], None)[0]


def solve_linear_constant(path: NoisePath, a=None) -> Trajectory:
    """Exact-exponential (per-mode OU) solve of the constant-coefficient
    equation from rest on ``path``; ``a=None`` gives the plain heat model."""
    return _sweep(path, [a], None)[0]
