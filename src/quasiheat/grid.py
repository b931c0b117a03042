"""Space-time grid, fields, and the geometric/analytic primitives.

Fields live on the unit torus [0, 1)^d sampled at n points per axis, with
time-indexed snapshots.  This module provides the parabolic
(Carnot-Caratheodory) metric, parabolic cylinders, lattice increments,
mollification by a compactly supported bump, and the spectral helper that
owns the rfft mode layout (wavenumbers, symbols, transforms, gradients).
Everything is periodic; non-periodic analytic test fields are handled by the
callers keeping their analysis windows away from the seam.  Lattice geometry
(balls, shift sets, mollifier kernels) is built once per grid and exact
radius, cached on its exact arguments, and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _direct_transforms():
    """The gufuncs behind ``np.fft.rfft`` and ``irfft`` (numpy >= 2), to be
    called without their 7 us of argument checks: kept if they exist, take the
    arguments ``np.fft`` passes and give its bits on a probe; else (None, None)."""
    try:
        from numpy.fft import _pocketfft_umath as pfu

        x = np.cos(np.arange(16.0) ** 1.5).reshape(2, 8)
        h = pfu.rfft_n_even(x, 1, out=np.empty((2, 5), complex))
        y = pfu.irfft(h, 1 / 8, out=np.empty((2, 8)))
    except (ImportError, AttributeError, TypeError, ValueError):
        return None, None
    if h.tobytes() != np.fft.rfft(x).tobytes() or y.tobytes() != np.fft.irfft(h).tobytes():
        return None, None
    return pfu.rfft_n_even, pfu.irfft


_RFFT, _IRFFT = _direct_transforms()  # grid sizes are powers of two, so n is even


class GridError(ValueError):
    pass


def read_only(*arrays) -> tuple:
    """The arrays, made read-only in place: a shared array raises on a write."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0,1)^d times a uniform snapshot cadence.

    ``dt`` is the solver time step; snapshots are retained every
    ``snap_stride`` steps.  The cadence is constrained so the thinnest
    analysis cylinder (radius 4*dx, depth (4*dx)^2) contains a snapshot.
    """

    dim: int
    n: int
    t_end: float
    dt: float
    snap_stride: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n):
            raise GridError(f"n must be a power of two, got {self.n}")
        if self.dt <= 0:
            raise GridError("dt must be positive")
        if self.t_end < 1.0:
            raise GridError("t_end must be >= 1")
        if self.snap_stride < 1:
            raise GridError("snap_stride must be >= 1")
        r_min = 4.0 * self.dx
        if self.snap_stride * self.dt > r_min * r_min * (1 + 1e-12):
            raise GridError(
                "snapshot cadence too coarse: snap_stride*dt must be <= (4*dx)^2"
            )

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def snap_dt(self) -> float:
        return self.snap_stride * self.dt

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def snapshot_times(self) -> np.ndarray:
        """Times at which solvers retain snapshots, t=0 included."""
        m = self.n_steps // self.snap_stride
        return np.arange(m + 1) * self.snap_dt

    @staticmethod
    def create(dim: int, n: int, cfl: float = 0.25, t_end: float = 1.0) -> "GridSpec":
        """Derive dt = cfl*dx^2 and the coarsest admissible snapshot cadence."""
        if not (0 < cfl <= 0.25):
            raise GridError(f"cfl must lie in (0, 1/4], got {cfl}")
        dx = 1.0 / n
        dt = cfl * dx * dx
        stride = max(1, int(round(16.0 / cfl)))
        while stride * dt > 16.0 * dx * dx * (1 + 1e-12):
            stride //= 2
        return GridSpec(dim=dim, n=n, t_end=t_end, dt=dt, snap_stride=stride)


def torus_delta(x1, x2) -> np.ndarray:
    """Signed shortest representative of x1 - x2 on the unit torus, per axis."""
    d = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    return (d + 0.5) % 1.0 - 0.5


def torus_distance(x1, x2) -> float:
    return float(np.linalg.norm(torus_delta(x1, x2)))


def cc_distance(z1, z2) -> float:
    """Parabolic distance |t-t'|^(1/2) + |x-x'| with periodic spatial part."""
    t1, x1 = z1
    t2, x2 = z2
    return math.sqrt(abs(t1 - t2)) + torus_distance(x1, x2)


@dataclass(frozen=True)
class SpaceTimeField:
    """Snapshots of a scalar/vector/matrix field on the grid.

    ``values`` has shape (T, n[, n], *component-dims); fields are implicitly
    zero for t <= 0.  Instances are immutable; the stored array view is
    read-only.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape[0] != times.shape[0]:
            raise GridError("values and times disagree on snapshot count")
        if values.shape[1 : 1 + self.grid.dim] != self.grid.shape:
            raise GridError(
                f"spatial shape {values.shape[1:1 + self.grid.dim]} does not match grid {self.grid.shape}"
            )
        if times.ndim != 1 or (len(times) > 1 and np.any(np.diff(times) <= 0)):
            raise GridError("snapshot times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        tv, vv = read_only(times.view(), values.view())
        object.__setattr__(self, "times", tv)
        object.__setattr__(self, "values", vv)

    @property
    def component_shape(self) -> tuple:
        return self.values.shape[1 + self.grid.dim :]

    @property
    def is_scalar(self) -> bool:
        return self.component_shape == ()

    def time_index(self, t: float) -> int:
        """Index of the snapshot nearest to t; error if none is within half a cadence."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 0.5 * self.grid.snap_dt + 1e-14:
            raise GridError(f"no snapshot near t={t}")
        return idx

    def node_index(self, x) -> tuple:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.round(x * self.grid.n).astype(int) % self.grid.n
        if np.max(np.abs(torus_delta(x, idx / self.grid.n))) > 1e-9:
            raise GridError(f"point {x} is not a grid node")
        return tuple(int(i) for i in idx)

    def value_at(self, t: float, x):
        it = self.time_index(t)
        return self.values[(it,) + self.node_index(x)]


def _lattice_steps(grid: GridSpec, y) -> np.ndarray:
    """Integer node steps of a lattice shift y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (grid.dim,):
        raise GridError(f"shift must have {grid.dim} components")
    steps = y / grid.dx
    s = np.round(steps).astype(int)
    if np.max(np.abs(steps - s)) > 1e-9:
        raise GridError(f"shift {y} is not a lattice vector")
    return s


def increment(f: SpaceTimeField, y) -> SpaceTimeField:
    """Spatial increment f(t, x+y) - f(t, x) for a lattice shift y."""
    shifted = f.values
    for axis, si in enumerate(_lattice_steps(f.grid, y)):
        if si:
            shifted = np.roll(shifted, -int(si), axis=1 + axis)
    return SpaceTimeField(f.grid, f.times, shifted - f.values)


def _lattice_offsets(dim: int, m: int) -> np.ndarray:
    """Integer offsets of [-m, m]^dim, one row each, in row-major order."""
    axes = np.meshgrid(*[np.arange(-m, m + 1)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


@functools.lru_cache(maxsize=None)  # shared: the shifts are read-only
def lattice_shifts(grid: GridSpec, max_norm: float, budget: int = None) -> np.ndarray:
    """Nonzero lattice vectors y with |y| <= max_norm, optionally thinned;
    built once per (grid, max_norm, budget).

    Thinning keeps a deterministic stride-decimated subset that always
    includes the extreme axis-aligned shifts.
    """
    m = int(math.floor(max_norm / grid.dx + 1e-9))
    if m < 1:
        return read_only(np.zeros((0, grid.dim)))[0]
    pts = _lattice_offsets(grid.dim, m)
    norms = np.linalg.norm(pts, axis=1)
    # m's own tolerance, so in d = 1 every offset up to m is kept
    shifts = pts[(norms > 0) & (norms <= max_norm / grid.dx + 1e-9)]
    if budget is not None and len(shifts) > budget:
        extremes = [s for s in shifts if np.count_nonzero(s) == 1 and np.max(np.abs(s)) == m]
        stride = int(np.ceil(len(shifts) / max(budget - len(extremes), 1)))
        thinned = shifts[::stride]
        shifts = np.unique(np.vstack([thinned] + [np.asarray(extremes)]), axis=0)
    return read_only(shifts * grid.dx)[0]


@dataclass(frozen=True)
class ParabolicCylinder:
    """Backward cylinder (t'-r^2, t'] x B_r(x') around basepoint z = (t', x')."""

    t: float
    x: tuple
    r: float

    def __post_init__(self):
        if not (self.r > 0 and self.r < 0.5):
            raise GridError(f"cylinder radius must lie in (0, 1/2), got {self.r}")
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))


@dataclass(frozen=True)
class CylinderSamples:
    """Grid samples of a field over a parabolic cylinder.

    ``values`` has shape (Ts, Nn, *components); the last time row is the
    basepoint time, and ``xrel[j]`` is the signed torus displacement of node j
    from the basepoint.  Rows below t = 0 carry the implicit zero extension.
    """

    xrel: np.ndarray
    values: np.ndarray

    def flat(self) -> tuple:
        """(xrel, values) with time and node axes merged."""
        ts, nn = self.values.shape[:2]
        comp = self.values.shape[2:]
        x = np.broadcast_to(self.xrel[None, :, :], (ts, nn, self.xrel.shape[1]))
        return x.reshape(ts * nn, -1), self.values.reshape((ts * nn,) + comp)


@dataclass(frozen=True)
class CylinderWindow:
    """Where a parabolic cylinder sits in a field's snapshot array: built once
    per cylinder, it samples any field on those snapshots at any lattice shift.

    ``slab`` selects the snapshots in (t'-r^2, t'].  ``box`` holds the
    torus-wrapped node indices of the bounding box per axis and ``inball``
    marks the nodes with |x - x'| < r in it.  ``nodes`` indexes those nodes
    (row-major box order) at signed offsets ``xrel`` from x'.  Samples carry
    ``n_below`` zero-extension rows below t = 0 before the slab's rows.
    """

    grid: GridSpec
    slab: slice
    n_below: int
    box: tuple
    inball: np.ndarray
    nodes: tuple
    xrel: np.ndarray

    def take_box(self, values: np.ndarray) -> np.ndarray:
        """Slab rows of the bounding box, shape (Ts, W[, W], *components)."""
        return values[self.slab][(slice(None),) + np.ix_(*self.box)]

    def samples(self, values: np.ndarray, y=None) -> CylinderSamples:
        """In-ball samples of values, or of values(x + y) - values(x) for a
        lattice shift y: the samples of ``increment(f, y)``."""
        slab = values[self.slab]
        vals = slab[(slice(None),) + self.nodes]
        if y is not None:
            steps = _lattice_steps(self.grid, y)
            shifted = tuple((i + int(s)) % self.grid.n for i, s in zip(self.nodes, steps))
            vals = slab[(slice(None),) + shifted] - vals
        if self.n_below > 0:
            vals = np.concatenate([np.zeros((self.n_below,) + vals.shape[1:]), vals])
        return CylinderSamples(xrel=self.xrel, values=vals)


@functools.lru_cache(maxsize=None)  # shared: the arrays are read-only
def ball_offsets(grid: GridSpec, r: float) -> tuple:
    """(offs, inball, pts) of the ball |x| < r around a node: its bounding
    box's offsets per axis, the in-ball mask over the box, and the in-ball
    lattice offsets, one row each in row-major box order; built once per
    (grid, r)."""
    m = int(math.ceil(r / grid.dx)) - 1
    pts = _lattice_offsets(grid.dim, m)
    inball = np.linalg.norm(pts * grid.dx, axis=1) < r - 1e-12
    return read_only(np.arange(-m, m + 1), inball.reshape((2 * m + 1,) * grid.dim), pts[inball])


def cylinder_window(f: SpaceTimeField, cyl: ParabolicCylinder) -> CylinderWindow:
    """Snapshot slab and grid nodes with torus distance < r from x'."""
    grid = f.grid
    it = f.time_index(cyl.t)
    lo = f.times[it] - cyl.r * cyl.r
    j0 = int(np.searchsorted(f.times, lo + 1e-14, side="right"))
    if j0 > it:
        raise GridError("empty time slab: snapshot cadence insufficient for radius")

    node0 = f.node_index(cyl.x)
    offs, inball, pts = ball_offsets(grid, cyl.r)

    # zero-extension below t = 0, on the snapshot cadence, for a field whose
    # first snapshot is t = 0
    n_below = 0
    snap_dt = grid.snap_dt
    if abs(f.times[0]) < 0.5 * snap_dt and lo < f.times[0] - snap_dt:
        n_below = int(math.floor((f.times[0] - lo) / snap_dt - 1e-12))
    return CylinderWindow(
        grid=grid,
        slab=slice(j0, it + 1),
        n_below=n_below,
        box=tuple((node0[a] + offs) % grid.n for a in range(grid.dim)),
        inball=inball,
        nodes=tuple((node0[a] + pts[:, a]) % grid.n for a in range(grid.dim)),
        xrel=pts * grid.dx,
    )


def cylinder_samples(f: SpaceTimeField, cyl: ParabolicCylinder) -> CylinderSamples:
    """All grid nodes with torus distance < r from x', at snapshots in (t'-r^2, t']."""
    return cylinder_window(f, cyl).samples(f.values)


# ---------------------------------------------------------------------------
# Spectral helper
# ---------------------------------------------------------------------------

class Spectral:
    """The rfft mode layout of one grid, and the transforms on it.

    Modes follow numpy's real transform of a field on the grid: the last axis
    holds the non-negative half, k = 2*pi*m with integer m, |m_i| <= n/2.
    Transforms act on the trailing d axes, so leading axes (snapshots,
    components, batch members) go through one call; d = 1 uses the 1-D
    transforms.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        n, dx = grid.n, grid.dx
        ks = [2 * np.pi * np.fft.rfftfreq(n, d=dx)]
        if grid.dim == 2:
            ks = [2 * np.pi * np.fft.fftfreq(n, d=dx)[:, None], ks[0][None, :]]
        # wavenumbers per axis, each of the half-spectrum shape
        self.k = np.stack(np.broadcast_arrays(*ks))
        self.ik = 1j * self.k

    def symbol(self, a: Optional[np.ndarray] = None) -> np.ndarray:
        """k . sym(a) k per mode; ``a=None`` gives |k|^2."""
        k = self.k
        a = np.eye(self.grid.dim) if a is None else np.atleast_2d(np.asarray(a, dtype=float))
        s = 0.5 * (a + a.T)
        if self.grid.dim == 1:
            return s[0, 0] * k[0] * k[0]
        return s[0, 0] * k[0] * k[0] + 2.0 * s[0, 1] * k[0] * k[1] + s[1, 1] * k[1] * k[1]

    def to_hat(self, phys: np.ndarray) -> np.ndarray:
        """``rfftn`` over the trailing d axes, as numpy computes it: the real
        transform of the last axis, then the complex one of the axis before."""
        if _RFFT is None:
            hat = np.fft.rfft(phys)
        else:
            hat = _RFFT(phys, 1, out=np.empty(phys.shape[:-1] + (self.grid.n // 2 + 1,), complex))
        return hat if self.grid.dim == 1 else np.fft.fft(hat, axis=-2)

    def to_phys(self, hat: np.ndarray) -> np.ndarray:
        """``irfftn`` over the trailing d axes: the steps of ``to_hat`` reversed."""
        if self.grid.dim == 2:
            hat = np.fft.ifft(hat, axis=-2)
        if _IRFFT is None:
            return np.fft.irfft(hat, n=self.grid.n)
        return _IRFFT(hat, 1 / self.grid.n, out=np.empty(hat.shape[:-1] + (self.grid.n,)))

    def gradient_phys(self, hat: np.ndarray) -> np.ndarray:
        """Gradient with a trailing component axis, batched over any leading
        axes of hat.  In d = 2 it is a transposed view of one inverse
        transform of the components stacked along a new first axis."""
        if self.grid.dim == 1:
            return self.to_phys(self.ik[0] * hat)[..., None]
        g = self.to_phys(self.ik[:, None] * hat.reshape(-1, *hat.shape[-2:]))
        g = g.reshape(2, *hat.shape[:-1], -1)
        return g.transpose(*range(1, g.ndim), 0)

    def divergence_hat(self, q: np.ndarray) -> np.ndarray:
        """Spectrum of the divergence of q, whose components are on the last axis."""
        if self.grid.dim == 1:
            return self.ik[0] * self.to_hat(q[..., 0])
        qh = self.to_hat(q.transpose(q.ndim - 1, *range(q.ndim - 1)))
        return self.ik[0] * qh[0] + self.ik[1] * qh[1]

    def fold_weights(self) -> np.ndarray:
        """Weight 2 on the modes whose conjugate the half-spectrum leaves out."""
        w = np.full(self.k.shape[1:], 2.0)
        w[..., 0] = 1.0
        w[..., -1] = 1.0
        return w

    def mirrored_phys(self, hat: np.ndarray) -> np.ndarray:
        """Complex inverse transform of hat mirrored to the full Hermitian
        spectrum; real up to rounding iff hat is the spectrum of a real field."""
        n = self.grid.n
        full = np.zeros(self.grid.shape, dtype=complex)
        full[..., : n // 2 + 1] = hat
        cols = np.arange(n // 2 + 1, n)
        src = full if self.grid.dim == 1 else full[(-np.arange(n)) % n]
        full[..., cols] = np.conj(src[..., n - cols])
        return np.fft.ifftn(full)


def spectral_gradient(f: SpaceTimeField) -> SpaceTimeField:
    """Fourier-exact gradient of a scalar field, returned with a trailing d axis."""
    if not f.is_scalar:
        raise GridError("spectral_gradient expects a scalar field")
    sp = Spectral(f.grid)
    return SpaceTimeField(f.grid, f.times, sp.gradient_phys(sp.to_hat(f.values)))


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def _bump(u2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-|u|^2)) for |u| < 1, zero outside (u2 = |u|^2)."""
    out = np.zeros_like(u2)
    inside = u2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Discrete kernels for the rescaled radial bump at scale r.

    ``mass_kernel`` integrates to exactly 1 after renormalization and has
    vanishing first moments by symmetry.  ``deriv_kernels[i]`` samples the
    i-th partial derivative of the rescaled bump (same renormalization), so
    convolving with it approximates the partial derivative of the smoothing.
    """

    grid: GridSpec
    r: float
    mass_kernel: np.ndarray = field(repr=False)
    deriv_kernels: tuple = field(repr=False)

    @staticmethod
    @functools.lru_cache(maxsize=None)  # shared: the kernels are read-only
    def build(grid: GridSpec, r: float) -> "Mollifier":
        if not (2 * grid.dx <= r < 0.5):
            raise GridError(f"mollifier scale must lie in [2*dx, 1/2), got {r}")
        n, dx, d = grid.n, grid.dx, grid.dim
        m = int(math.ceil(r / dx))
        offs = np.arange(-m, m + 1)
        u = np.meshgrid(*[offs * dx / r] * d, indexing="ij")
        u2 = sum(ui * ui for ui in u)
        raw = _bump(u2)
        inside = u2 < 1.0
        quad = (dx / r) ** d
        mass = raw * quad
        z = mass.sum()
        mass = mass / z
        deriv = []
        for ui in u:
            # d/du_i of the bump, times the chain rule factor 1/r
            du = np.zeros_like(u2)
            du[inside] = raw[inside] * (-2.0 * ui[inside] / (1.0 - u2[inside]) ** 2)
            deriv.append(du * quad / (r * z))

        def embed(kern):
            full = np.zeros(grid.shape)
            np.add.at(full, np.ix_(*[offs % n] * d), kern)
            return read_only(full)[0]

        return Mollifier(
            grid=grid,
            r=r,
            mass_kernel=embed(mass),
            deriv_kernels=tuple(embed(k) for k in deriv),
        )


def _convolve(f: SpaceTimeField, kernel: np.ndarray) -> np.ndarray:
    sp = Spectral(f.grid)
    # component axes go in front, so the transforms act on the trailing axes
    comp = tuple(range(1 + f.grid.dim, f.values.ndim))
    front = tuple(range(len(comp)))
    fhat = sp.to_hat(np.moveaxis(f.values, comp, front))
    return np.moveaxis(sp.to_phys(fhat * sp.to_hat(kernel)), front, comp)


def mollify(f: SpaceTimeField, r: float) -> SpaceTimeField:
    """Convolve each snapshot with the unit-mass bump at scale r (entrywise)."""
    return SpaceTimeField(f.grid, f.times, _convolve(f, Mollifier.build(f.grid, r).mass_kernel))


def mollify_deriv(f: SpaceTimeField, r: float, axis: int) -> SpaceTimeField:
    """Convolve with the sampled i-th partial of the scale-r bump.

    Annihilates constants exactly and approximates the i-th partial
    derivative of ``mollify(f, r)``.
    """
    mol = Mollifier.build(f.grid, r)
    if not (0 <= axis < f.grid.dim):
        raise GridError(f"axis {axis} out of range for dim {f.grid.dim}")
    return SpaceTimeField(f.grid, f.times, _convolve(f, mol.deriv_kernels[axis]))
