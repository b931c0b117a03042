"""White-in-time, spatially colored periodic Gaussian noise.

The spatial spectrum is pinned to K_hat(k) = sigma^2 (1+|k|^2)^(-s/2) on the
resolved modes k in (2*pi*Z)^d, with s = 2*alpha + d, which places the
gradient of the linear solution at spatial Hoelder regularity alpha.  Each
time-step increment is an independent Gaussian field with mode variance
dt*K_hat(k); increments are never stored but regenerated from a counter-based
stream keyed by (master_seed, step), so any step can be resampled bit-exactly
in any order, and paths built from one spec agree bit for bit.  One path
object is not thread-safe (see ``NoisePath``); give each thread its own.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .grid import GridSpec, SpaceTimeField


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSpec:
    """Spectral description of the driving noise."""

    alpha: float
    dim: int
    sigma: float = 1.0
    master_seed: int = 0
    t_support: tuple = (0.0, 1.0)

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise NoiseError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if self.dim not in (1, 2):
            raise NoiseError("dim must be 1 or 2")
        if self.sigma < 0:
            raise NoiseError("sigma must be nonnegative")
        if not (self.dim < self.s < self.dim + 2):
            raise NoiseError("spectral exponent out of admissible range")

    @property
    def s(self) -> float:
        return 2.0 * self.alpha + self.dim

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "dim": self.dim,
            "sigma": self.sigma,
            "master_seed": self.master_seed,
            "t_support": list(self.t_support),
        }


def _mode_frequencies(grid: GridSpec):
    """Integer mode frequencies in the rfftn layout, one array per axis."""
    n = grid.n
    if grid.dim == 1:
        return (np.fft.rfftfreq(n, d=1.0 / n),)
    mx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    my = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    return (mx, my)


def build_spectrum(spec: NoiseSpec, grid: GridSpec) -> np.ndarray:
    """Square-root amplitudes a(k) = sigma*(1+|k|^2)^(-s/4) on resolved modes.

    Layout matches numpy's rfftn of a real field on the grid; k = 2*pi*m with
    integer m, |m_i| <= n/2.  Even in k by construction.
    """
    if spec.dim != grid.dim:
        raise NoiseError("noise and grid dimension disagree")
    freqs = _mode_frequencies(grid)
    k2 = sum((2.0 * np.pi * m) ** 2 for m in freqs)
    return spec.sigma * (1.0 + k2) ** (-spec.s / 4.0)


@dataclass(frozen=True)
class NoisePath:
    """Replayable noise stream bound to a grid's time step.

    ``substeps`` refines the underlying white-noise lattice: the increment for
    step j is the sum of ``substeps`` finer increments keyed by
    (master_seed, substeps*j + i).  Solvers running at dt, 2*dt, 4*dt with
    substeps 1, 2, 4 then consume consistently coupled noise, which is what
    the time-refinement studies rely on.

    Each key re-keys one cached ``Philox`` through its state setter (zero
    counter, empty buffer): the bits of a fresh ``Philox(key=...)`` without
    its construction cost.  So one path object is not thread-safe.
    """

    spec: NoiseSpec
    grid: GridSpec
    substeps: int = 1
    _amp: np.ndarray = field(default=None, repr=False, compare=False)
    _scaled_amp: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _gen: Generator = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.substeps < 1:
            raise NoiseError("substeps must be >= 1")
        grid = self.grid
        amp = build_spectrum(self.spec, grid)
        scale = np.sqrt(grid.dt / self.substeps) * grid.n ** (grid.dim / 2.0)
        object.__setattr__(self, "_amp", amp)
        object.__setattr__(self, "_scaled_amp", scale * amp)
        object.__setattr__(self, "_gen", Generator(Philox(key=0)))

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    def _active(self, step: int) -> bool:
        t = step * self.grid.dt
        lo, hi = self.spec.t_support
        return (lo - 1e-12) <= t < (hi - 1e-12)

    def increment_hat(self, step: int) -> np.ndarray:
        """rfftn coefficients of the step's increment (zero outside t-support)."""
        grid = self.grid
        shape = self._amp.shape
        if not self._active(step) or self.spec.sigma == 0.0:
            return np.zeros(shape, dtype=complex)
        rfft = np.fft.rfft if grid.dim == 1 else np.fft.rfftn
        out = np.zeros(shape, dtype=complex)
        base = self.substeps * step
        for i in range(self.substeps):
            key = np.array([self.spec.master_seed, base + i], dtype=np.uint64)
            self._gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            out += rfft(self._gen.standard_normal(grid.shape))
        return self._scaled_amp * out

    def sample_increment(self, step: int) -> SpaceTimeField:
        """The step's increment as a single-snapshot physical field."""
        axes = tuple(range(self.grid.dim))
        vals = np.fft.irfftn(self.increment_hat(step), s=self.grid.shape, axes=axes)
        return SpaceTimeField(self.grid, np.array([step * self.grid.dt]), vals[None])

    def digest(self, steps) -> str:
        """Hash of regenerated increments; equal hashes certify a shared path."""
        h = hashlib.sha256()
        for step in steps:
            h.update(self.increment_hat(int(step)).tobytes())
        return h.hexdigest()


def analytic_covariance(spec: NoiseSpec, grid: GridSpec, lag_nodes) -> np.ndarray:
    """K at lattice lags along axis 0: K(x) = sum_k K_hat(k) e^(ik.x)."""
    amp = build_spectrum(spec, grid)
    khat = amp * amp
    freqs = _mode_frequencies(grid)
    # weight doubled on modes whose conjugate is folded away by the rfft layout
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


@dataclass
class NoiseDiagnostics:
    lags: list
    covariance_analytic: list
    covariance_empirical: list
    covariance_rel_error: list
    disjoint_step_correlation: float
    stationarity_max_sigmas: float
    symmetry_residual: float
    max_imag_residue: float
    deterministic_replay: bool
    n_samples: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def covariance_diagnostics(path: NoisePath, n_samples: int, max_lag: int = 4) -> NoiseDiagnostics:
    """Monte Carlo self-test of the synthesized noise against its spectrum.

    Uses one increment per step index (distinct steps are independent), with
    the fields scaled by 1/sqrt(dt) so their covariance matches K directly.
    """
    if n_samples < 10**3:
        raise NoiseError("need at least 1e3 samples for covariance diagnostics")
    grid = path.grid
    n_steps_avail = int((path.spec.t_support[1] - path.spec.t_support[0]) / grid.dt)
    if n_samples > n_steps_avail:
        raise NoiseError(
            f"only {n_steps_avail} in-support steps available for {n_samples} samples"
        )
    lags = list(range(max_lag + 1))
    k_an = analytic_covariance(path.spec, grid, lags)
    axes = tuple(range(grid.dim))
    inv_sqrt_dt = 1.0 / np.sqrt(grid.dt)

    acc = np.zeros(len(lags))
    sym = 0.0
    anchor_acc = np.zeros(grid.shape)
    anchor_sq = np.zeros(grid.shape)
    white_acc = 0.0
    imag_max = 0.0
    prev = None
    for i in range(n_samples):
        hat = path.increment_hat(i)
        f = np.fft.irfftn(hat, s=grid.shape, axes=axes) * inv_sqrt_dt
        # realness residue measured on the explicitly mirrored full spectrum
        if i < 8:
            full = np.fft.ifftn(_full_spectrum(hat, grid), s=grid.shape, axes=axes)
            imag_max = max(imag_max, float(np.max(np.abs(full.imag))) * inv_sqrt_dt)
        for li, lag in enumerate(lags):
            acc[li] += float(np.mean(f * np.roll(f, -lag, axis=0)))
        sym = max(
            sym,
            float(np.max(np.abs(
                np.mean(f * np.roll(f, -1, axis=0)) - np.mean(f * np.roll(f, 1, axis=0))
            ))),
        )
        prod0 = f * np.roll(f, -1, axis=0)
        anchor_acc += prod0
        anchor_sq += prod0 * prod0
        if prev is not None:
            white_acc += float(np.mean(prev * f))
        prev = f

    emp = acc / n_samples
    rel = np.abs(emp - k_an) / np.abs(k_an)
    rho = (white_acc / (n_samples - 1)) / emp[0] if emp[0] else 0.0

    anchor_mean = anchor_acc / n_samples
    anchor_var = anchor_sq / n_samples - anchor_mean**2
    mc_std = np.sqrt(np.maximum(anchor_var, 1e-300) / n_samples)
    stat = float(np.max(np.abs(anchor_mean - anchor_mean.mean()) / mc_std)) if path.spec.sigma else 0.0

    # query order must not matter: regenerate a window forwards and backwards
    order = list(range(min(16, n_samples)))
    fwd = {s: path.increment_hat(s) for s in order}
    replay = all(np.array_equal(fwd[s], path.increment_hat(s)) for s in reversed(order))

    sigma_scale = max(path.spec.sigma, 1e-300)
    return NoiseDiagnostics(
        lags=lags,
        covariance_analytic=[float(v) for v in k_an],
        covariance_empirical=[float(v) for v in emp],
        covariance_rel_error=[float(v) for v in rel],
        disjoint_step_correlation=float(abs(rho)),
        stationarity_max_sigmas=stat,
        symmetry_residual=float(sym),
        max_imag_residue=float(imag_max / sigma_scale),
        deterministic_replay=replay,
        n_samples=n_samples,
    )


def _full_spectrum(hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mirror an rfftn half-spectrum to the full Hermitian spectrum."""
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


def write_spectrum_csv(spec: NoiseSpec, grid: GridSpec, path) -> None:
    """Tabulate (k, K_hat(k)) over resolved modes."""
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
