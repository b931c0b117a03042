"""Reference spectral code: a frozen copy of the per-module mode layouts.

Before the rfft mode layout lived in ``grid.Spectral``, ``noise`` built its
own integer mode frequencies and ``grid`` its own wavenumbers, and each
module called the numpy transforms itself.  These are copies of those
functions.  The spectral helper must reproduce their bits exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def _mode_frequencies(grid):
    n = grid.n
    if grid.dim == 1:
        return (np.fft.rfftfreq(n, d=1.0 / n),)
    mx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    my = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    return (mx, my)


def _wavenumbers(grid):
    n = grid.n
    if grid.dim == 1:
        return [2 * np.pi * np.fft.rfftfreq(n, d=grid.dx)]
    kx = 2 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    ky = 2 * np.pi * np.fft.rfftfreq(n, d=grid.dx)
    return [kx[:, None], ky[None, :]]


def build_spectrum(spec, grid):
    freqs = _mode_frequencies(grid)
    k2 = sum((2.0 * np.pi * m) ** 2 for m in freqs)
    return spec.sigma * (1.0 + k2) ** (-spec.s / 4.0)


def analytic_covariance(spec, grid, lag_nodes):
    amp = build_spectrum(spec, grid)
    khat = amp * amp
    freqs = _mode_frequencies(grid)
    if grid.dim == 1:
        w = np.full(khat.shape, 2.0)
        w[0] = 1.0
        if grid.n % 2 == 0:
            w[-1] = 1.0
        m0 = freqs[0]
    else:
        w = np.full(khat.shape, 2.0)
        w[:, 0] = 1.0
        if grid.n % 2 == 0:
            w[:, -1] = 1.0
        m0 = np.broadcast_to(freqs[0], khat.shape)
    lags = np.asarray(lag_nodes)
    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        phase = np.cos(2.0 * np.pi * m0 * lag * grid.dx)
        out[i] = float(np.sum(w * khat * phase))
    return out


def full_spectrum(hat, grid):
    n = grid.n
    if grid.dim == 1:
        full = np.zeros(n, dtype=complex)
        full[: n // 2 + 1] = hat
        full[n // 2 + 1 :] = np.conj(hat[1 : n // 2][::-1])
        return full
    full = np.zeros((n, n), dtype=complex)
    full[:, : n // 2 + 1] = hat
    cols = np.arange(n // 2 + 1, n)
    full[:, cols] = np.conj(full[(-np.arange(n)) % n][:, (n - cols)])
    return full


def write_spectrum_csv(spec, grid, path):
    amp = build_spectrum(spec, grid)
    freqs = _mode_frequencies(grid)
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"k_{i + 1}" for i in range(grid.dim)] + ["khat"])
        it = np.ndindex(amp.shape)
        for idx in it:
            if grid.dim == 1:
                ks = [2.0 * np.pi * float(freqs[0][idx[0]])]
            else:
                ks = [
                    2.0 * np.pi * float(freqs[0][idx[0], 0]),
                    2.0 * np.pi * float(freqs[1][0, idx[1]]),
                ]
            w.writerow([repr(k) for k in ks] + [repr(float(amp[idx] ** 2))])


def spectral_gradient(f):
    """Gradient values, shape (T, n[, n], d)."""
    axes = tuple(range(1, 1 + f.grid.dim))
    fhat = np.fft.rfftn(f.values, axes=axes)
    ks = _wavenumbers(f.grid)
    comps = [
        np.fft.irfftn(1j * k[None] * fhat, s=f.grid.shape, axes=axes) for k in ks
    ]
    return np.stack(comps, axis=-1)


def convolve(f, kernel):
    axes = tuple(range(1, 1 + f.grid.dim))
    khat = np.fft.rfftn(kernel, axes=tuple(range(f.grid.dim)))
    shape = khat.shape
    expand = (1,) * 1 + shape + (1,) * len(f.component_shape)
    fhat = np.fft.rfftn(f.values, axes=axes)
    return np.fft.irfftn(fhat * khat.reshape(expand), s=f.grid.shape, axes=axes)
