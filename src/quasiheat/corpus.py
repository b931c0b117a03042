"""Deterministic synthetic fields for exercising the estimators.

Entries come with analytic gradients and a basepoint at the center of the
torus chart, so lattice increments and cylinder windows up to radius ~1/8
never cross the periodic seam and the non-periodic formulas stay exact.
Fields whose affine or quadratic structure makes an estimator vanish carry
the corresponding expectation flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .grid import GridSpec, SpaceTimeField

_CUSP_ALPHA = 0.75  # Hoelder exponent of the smoothed-cusp entry's gradient
# the cusp's smoothing in physical units: the corpus is one function at every n
_CUSP_SCALE = 1.0 / 32.0


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    scalar: SpaceTimeField
    gradient: SpaceTimeField
    basepoint: tuple
    expect_zero_increment_constant: bool = False
    expect_zero_affine_residual: bool = False
    time_dependent: bool = False


def _coords(grid: GridSpec):
    xs = np.arange(grid.n) * grid.dx
    if grid.dim == 1:
        return (xs,)
    return np.meshgrid(xs, xs, indexing="ij")


def _mk(grid: GridSpec, times, f, gradf) -> tuple:
    coords = _coords(grid)
    times = np.asarray(times, dtype=float)
    svals = np.stack([f(t, *coords) for t in times])
    gvals = np.stack([np.stack(gradf(t, *coords), axis=-1) for t in times])
    return (
        SpaceTimeField(grid, times, svals),
        SpaceTimeField(grid, times, gvals),
    )


def _smooth_random(grid: GridSpec, index: int, n_modes: int = 6):
    """Periodic random trigonometric polynomial with decaying coefficients."""
    rng = Generator(Philox(key=np.array([0xC0FFEE + index, 17], dtype=np.uint64)))
    terms = []
    for m in range(1, n_modes + 1):
        amp = rng.normal() / m**2.2
        phase = rng.uniform(0, 2 * np.pi)
        if grid.dim == 1:
            terms.append((amp, m, 0, phase))
        else:
            m2 = int(rng.integers(0, n_modes + 1))
            terms.append((amp, m, m2, phase))

    def f(t, *xs):
        out = np.zeros_like(xs[0])
        for amp, m1, m2, ph in terms:
            arg = 2 * np.pi * m1 * xs[0] + ph
            if grid.dim == 2:
                arg = arg + 2 * np.pi * m2 * xs[1]
            out = out + amp * np.sin(arg)
        return out

    def gradf(t, *xs):
        outs = [np.zeros_like(xs[0]) for _ in range(grid.dim)]
        for amp, m1, m2, ph in terms:
            arg = 2 * np.pi * m1 * xs[0] + ph
            if grid.dim == 2:
                arg = arg + 2 * np.pi * m2 * xs[1]
            c = amp * np.cos(arg)
            outs[0] = outs[0] + 2 * np.pi * m1 * c
            if grid.dim == 2:
                outs[1] = outs[1] + 2 * np.pi * m2 * c
        return outs

    return f, gradf


def build_corpus(grid: GridSpec, n_random: int = 20, r_max: float = 0.25) -> list:
    """Deterministic corpus: affine, quadratic, trig, smoothed cusp, time ramp, random.

    The basepoint time sits deep enough that cylinders up to radius ``r_max``
    stay inside the stored snapshots (slab depth r_max^2); purely spatial
    entries carry a single snapshot at that time.
    """
    center = 0.5 if grid.dim == 1 else (0.5, 0.5)
    snap_dt = grid.snap_dt
    depth = int(np.ceil(r_max * r_max / snap_dt)) + 2
    all_times = grid.snapshot_times()
    if depth + 1 > len(all_times):
        depth = len(all_times) - 1
    times = all_times[: depth + 1]
    t0 = float(times[-1])
    static_times = times[-1:]
    z = (t0, center)
    entries = []

    gvec = np.arange(1, grid.dim + 1, dtype=float)  # fixed affine slope

    def aff(t, *xs):
        out = 0.3 * np.ones_like(xs[0])
        for i, x in enumerate(xs):
            out = out + gvec[i] * (x - 0.5)
        return out

    def aff_g(t, *xs):
        return [gvec[i] * np.ones_like(xs[0]) for i in range(grid.dim)]

    s, g = _mk(grid, times, aff, aff_g)
    entries.append(
        CorpusEntry("affine", s, g, z, expect_zero_increment_constant=True,
                    expect_zero_affine_residual=True)
    )

    hess = np.array([[1.5]]) if grid.dim == 1 else np.array([[1.5, 0.4], [0.4, -0.8]])

    def quad(t, *xs):
        out = np.zeros_like(xs[0])
        for i in range(grid.dim):
            for j in range(grid.dim):
                out = out + 0.5 * hess[i, j] * (xs[i] - 0.5) * (xs[j] - 0.5)
        return out

    def quad_g(t, *xs):
        return [
            sum(hess[i, j] * (xs[j] - 0.5) for j in range(grid.dim))
            for i in range(grid.dim)
        ]

    s, g = _mk(grid, times, quad, quad_g)
    entries.append(
        CorpusEntry("quadratic", s, g, z, expect_zero_increment_constant=True,
                    expect_zero_affine_residual=True)
    )

    def trig(t, *xs):
        return np.sin(2 * np.pi * xs[0]) + (
            0.5 * np.cos(4 * np.pi * xs[-1]) if grid.dim == 2 else 0.3 * np.sin(6 * np.pi * xs[0])
        )

    def trig_g(t, *xs):
        if grid.dim == 1:
            return [2 * np.pi * np.cos(2 * np.pi * xs[0]) + 1.8 * np.pi * np.cos(6 * np.pi * xs[0])]
        return [
            2 * np.pi * np.cos(2 * np.pi * xs[0]),
            -2 * np.pi * np.sin(4 * np.pi * xs[1]),
        ]

    s, g = _mk(grid, times, trig, trig_g)
    entries.append(CorpusEntry("trig", s, g, z))

    # gradient with a smoothed |x-x'|^alpha cusp at the basepoint
    eps = _CUSP_SCALE

    def cusp_g(t, *xs):
        r2 = sum((x - 0.5) ** 2 for x in xs) + eps * eps
        fac = r2 ** ((_CUSP_ALPHA - 1.0) / 2.0)
        return [(x - 0.5) * fac for x in xs]

    def cusp(t, *xs):
        r2 = sum((x - 0.5) ** 2 for x in xs) + eps * eps
        return r2 ** ((_CUSP_ALPHA + 1.0) / 2.0) / (_CUSP_ALPHA + 1.0)

    s, g = _mk(grid, times, cusp, cusp_g)
    entries.append(CorpusEntry("smoothed-cusp", s, g, z))

    def tsin(t, *xs):
        return t * np.sin(2 * np.pi * xs[0])

    def tsin_g(t, *xs):
        out = [t * 2 * np.pi * np.cos(2 * np.pi * xs[0])]
        if grid.dim == 2:
            out.append(np.zeros_like(xs[0]))
        return out

    s, g = _mk(grid, times, tsin, tsin_g)
    entries.append(CorpusEntry("time-ramp-sine", s, g, z, time_dependent=True))

    for idx in range(n_random):
        f, gradf = _smooth_random(grid, idx)
        s, g = _mk(grid, static_times, f, gradf)
        entries.append(CorpusEntry(f"random-smooth-{idx:02d}", s, g, z))
    return entries
