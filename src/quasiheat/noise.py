"""White-in-time, spatially colored periodic Gaussian noise.

The spatial spectrum is pinned to K_hat(k) = sigma^2 (1+|k|^2)^(-s/2) on the
resolved modes k in (2*pi*Z)^d, with s = 2*alpha + d, which places the
gradient of the linear solution at spatial Hoelder regularity alpha.  Each
time-step increment in [0, NOISE_END) = [0, 1) is an independent Gaussian
field with mode variance dt*K_hat(k), and every later one is zero.
Increments are never stored but regenerated from a counter-based stream
keyed by (master_seed, step), so any step can be resampled bit-exactly in
any order or block (``NoisePath.increments``), and paths built from one
spec agree bit for bit.  A path is not thread-safe; ``NoisePath.stream`` draws
ahead in forked workers, one per usable core, each with its own copy of it.
The mode layout, the transforms and the half-spectrum folding belong to
``grid.Spectral``; this module owns no frequencies of its own.
"""

from __future__ import annotations

import csv
import hashlib
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .grid import GridSpec, Spectral

NOISE_END = 1.0  # the noise acts on 0 <= t < NOISE_END
BATCH_MAX_POINTS = 1024  # rows up to this many points batch an interval's transforms
SLOT_BYTES = 2**20  # a stream slot takes blocks up to this size: one pipe wake-up per slot
SLOTS_PER_WORKER = 4


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSpec:
    """Spectral description of the driving noise."""

    alpha: float
    dim: int
    sigma: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise NoiseError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if self.dim not in (1, 2):
            raise NoiseError("dim must be 1 or 2")
        if self.sigma < 0:
            raise NoiseError("sigma must be nonnegative")
        if not 0 <= self.master_seed < 2**64:
            raise NoiseError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not (self.dim < self.s < self.dim + 2):
            raise NoiseError("spectral exponent out of admissible range")

    @property
    def s(self) -> float:
        return 2.0 * self.alpha + self.dim


def build_spectrum(spec: NoiseSpec, grid: GridSpec) -> np.ndarray:
    """Square-root amplitudes a(k) = sigma*(1+|k|^2)^(-s/4) on resolved modes.

    Layout is the grid's half-spectrum (see ``grid.Spectral``).  Even in k
    by construction.
    """
    if spec.dim != grid.dim:
        raise NoiseError("noise and grid dimension disagree")
    return spec.sigma * (1.0 + Spectral(grid).symbol()) ** (-spec.s / 4.0)


@dataclass(frozen=True)
class NoisePath:
    """Replayable noise stream bound to a grid's time step.

    ``substeps`` refines the underlying white-noise lattice: the increment for
    step j is the sum of ``substeps`` finer increments keyed by
    (master_seed, substeps*j + i).  Solvers running at dt, 2*dt, 4*dt with
    substeps 1, 2, 4 then consume consistently coupled noise, which is what
    the time-refinement studies rely on.

    Each key re-keys one cached ``Philox`` by setting its fresh state (zero
    counter, empty buffer) with the step as the key's second word: the bits
    of a new ``Philox(key=...)`` without its cost.  Not thread-safe: ``stream`` forks copies.
    """

    spec: NoiseSpec
    grid: GridSpec
    substeps: int = 1
    _amp: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _scaled_amp: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _gen: Generator = field(default=None, init=False, repr=False, compare=False)
    _state: dict = field(default=None, init=False, repr=False, compare=False)
    _spectral: Spectral = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.substeps < 1:
            raise NoiseError("substeps must be >= 1")
        grid = self.grid
        amp = build_spectrum(self.spec, grid)
        scale = np.sqrt(grid.dt / self.substeps) * grid.n ** (grid.dim / 2.0)
        object.__setattr__(self, "_amp", amp)
        object.__setattr__(self, "_scaled_amp", scale * amp)
        object.__setattr__(self, "_gen", Generator(Philox(key=self.spec.master_seed)))
        object.__setattr__(self, "_state", self._gen.bit_generator.state)
        object.__setattr__(self, "_spectral", Spectral(grid))

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    def _active(self, step: int) -> bool:
        return step * self.grid.dt < NOISE_END - 1e-12

    @property
    def block_steps(self) -> int:
        """Steps per ``increments`` call: a snapshot interval or, for large rows, one."""
        return self.grid.snap_stride if self.grid.n ** self.grid.dim <= BATCH_MAX_POINTS else 1

    def increments(self, start: int, stop: int) -> np.ndarray:
        """Increments of steps start..stop-1, a row each and bitwise its ``increment_hat``:
        each step keeps its own keys, and the block's normals take one transform."""
        out = np.zeros((stop - start,) + self._amp.shape, dtype=complex)
        live = out[:sum(map(self._active, range(start, stop)))]  # zero from NOISE_END on
        if len(live) == 0 or self.spec.sigma == 0.0:
            return out
        z = np.empty((len(live), self.substeps) + self.grid.shape)
        for r, row in enumerate(z.reshape((-1,) + self.grid.shape)):
            self._state["state"]["key"][1] = self.substeps * start + r
            self._gen.bit_generator.state = self._state
            self._gen.standard_normal(out=row)
        for hat in self._spectral.to_hat(z).swapaxes(0, 1):  # the substeps, in order
            live += hat
        np.multiply(self._scaled_amp, live, out=live)
        return out

    @property
    def slot_steps(self) -> int:
        """Steps per ``stream`` slot: whole blocks dividing ``snap_stride``, within SLOT_BYTES."""
        steps, row_bytes = self.block_steps, self._amp.size * 16
        while self.grid.snap_stride % (2 * steps) == 0 and 2 * steps * row_bytes <= SLOT_BYTES:
            steps *= 2
        return steps

    @contextmanager
    def stream(self, n_steps: int):
        """Iterator of (stop, rows) over steps 0..n_steps-1: rows, read-only and valid until
        the next item, are the ``increments`` of the ``slot_steps`` (fewer at the end) steps
        before stop.  Forked workers, one per usable core with its own copy of the path, fill
        every W-th slot of a shared ring; pipes say slot ready and slot free; all are reaped."""
        slot, n_slots = self.slot_steps, -(-n_steps // self.slot_steps)
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        n_workers = min(cores or 1, n_slots)
        depth = SLOTS_PER_WORKER * max(n_workers, 1)
        ring = np.frombuffer(mmap.mmap(-1, depth * slot * self._amp.size * 16), complex)
        ring = ring.reshape((depth, slot) + self._amp.shape)
        pids, fds = [], []  # fds: per worker, the "ready" read end and the "free" write end
        try:
            for w in range(n_workers):
                (ready, ready_w), (free_r, free) = os.pipe(), os.pipe()
                fds += [ready, free]
                pids.append(os.fork())
                if pids[-1] == 0:  # the worker: never returns into the caller's frames
                    try:
                        for fd in fds:
                            os.close(fd)
                        self._fill(ring, range(w * slot, n_steps, n_workers * slot), ready_w, free_r)
                    finally:
                        os._exit(0)
                os.close(ready_w)
                os.close(free_r)
            ring.flags.writeable = False

            def items():
                for i, start in enumerate(range(0, n_steps, slot)):
                    ready, free = fds[2 * (i % n_workers):2 * (i % n_workers) + 2]
                    if os.read(ready, 1) != b"+":
                        error = b"".join(iter(lambda: os.read(ready, 4096), b"")).decode(errors="replace")
                        raise NoiseError(f"noise worker {i % n_workers} failed: "
                                         f"{error or f'exited before step {start}'}")
                    yield min(start + slot, n_steps), ring[i % depth, :n_steps - start]
                    if i + depth < n_slots:
                        os.write(free, b"-")

            yield items()
        finally:
            for fd in fds:
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)

    def _fill(self, ring, starts: range, ready: int, free: int) -> None:
        """A worker: fill each slot once free, say so; stop at EOF, EPIPE or an error."""
        slot, block = len(ring[0]), self.block_steps
        for k, start in enumerate(starts):
            if k >= SLOTS_PER_WORKER and not os.read(free, 1):
                return
            for s in range(start, min(start + slot, starts.stop), block):
                stop = min(s + block, start + slot, starts.stop)
                try:
                    ring[start // slot % len(ring), s - start:stop - start] = self.increments(s, stop)
                except Exception as exc:
                    os.write(ready, f"!drawing steps [{s}, {stop}): {exc!r}".encode()[:4000])
                    return
            os.write(ready, b"+")

    def increment_hat(self, step: int) -> np.ndarray:
        """Half-spectrum of the step's increment (zero from t = NOISE_END on)."""
        return self.increments(step, step + 1)[0]

    def digest(self, steps) -> str:
        """Hash of regenerated increments; equal hashes certify a shared path."""
        h = hashlib.sha256()
        for step in steps:
            h.update(self.increment_hat(int(step)).tobytes())
        return h.hexdigest()


def analytic_covariance(spec: NoiseSpec, grid: GridSpec, lag_nodes) -> np.ndarray:
    """K at lattice lags along axis 0: K(x) = sum_k K_hat(k) e^(ik.x)."""
    sp = Spectral(grid)
    amp = build_spectrum(spec, grid)
    khat = amp * amp
    w = sp.fold_weights()
    lags = np.asarray(lag_nodes)
    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        phase = np.cos(sp.k[0] * lag * grid.dx)
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


def check_diagnostics_size(grid: GridSpec, n_samples: int, max_lag: int) -> None:
    """Raise unless ``covariance_diagnostics`` can run these sizes on grid."""
    if n_samples < 10**3:
        raise NoiseError("need at least 1e3 samples for covariance diagnostics")
    n_steps_avail = int(NOISE_END / grid.dt)
    if n_samples > n_steps_avail:
        raise NoiseError(
            f"only {n_steps_avail} in-support steps available for {n_samples} samples"
        )
    if max_lag < 0:
        raise NoiseError(f"max_lag must be nonnegative, got {max_lag}")


def covariance_diagnostics(path: NoisePath, n_samples: int, max_lag: int = 4) -> NoiseDiagnostics:
    """Monte Carlo self-test of the synthesized noise against its spectrum.

    Uses one increment per step index (distinct steps are independent), with
    the fields scaled by 1/sqrt(dt) so their covariance matches K directly.
    """
    grid = path.grid
    check_diagnostics_size(grid, n_samples, max_lag)
    lags = list(range(max_lag + 1))
    k_an = analytic_covariance(path.spec, grid, lags)
    sp = Spectral(grid)
    inv_sqrt_dt = 1.0 / np.sqrt(grid.dt)

    acc = np.zeros(len(lags))
    sym = 0.0
    anchor_acc = np.zeros(grid.shape)
    anchor_sq = np.zeros(grid.shape)
    white_acc = 0.0
    imag_max = 0.0
    prev = None
    with path.stream(n_samples) as blocks:
        for i, hat in enumerate(hat for _, rows in blocks for hat in rows):
            f = sp.to_phys(hat) * inv_sqrt_dt
            # realness residue measured on the explicitly mirrored full spectrum
            if i < 8:
                full = sp.mirrored_phys(hat)
                imag_max = max(imag_max, float(np.max(np.abs(full.imag))) * inv_sqrt_dt)
            for li, lag in enumerate(lags):
                acc[li] += float(np.mean(f * np.roll(f, -lag, axis=0)))
            asym = np.mean(f * np.roll(f, -1, axis=0)) - np.mean(f * np.roll(f, 1, axis=0))
            sym = max(sym, float(np.max(np.abs(asym))))
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


def write_spectrum_csv(spec: NoiseSpec, grid: GridSpec, path) -> None:
    """Tabulate (k, K_hat(k)) over resolved modes."""
    amp = build_spectrum(spec, grid)
    k = Spectral(grid).k
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"k_{i + 1}" for i in range(grid.dim)] + ["khat"])
        for idx in np.ndindex(amp.shape):
            ks = [repr(float(ki[idx])) for ki in k]
            w.writerow(ks + [repr(float(amp[idx] ** 2))])
