"""Estimators for parabolic regularity and gradient modelledness.

Everything here consumes :class:`~quasiheat.grid.SpaceTimeField` snapshots and
produces numbers that discretize sup-type quantities:

* parabolic Hoelder seminorms over deterministic stratified pair sets,
* best-constant approximation of gradient increments across dyadic scales,
* mollified time-derivative terms,
* scalar/vector min-max affine fits over parabolic cylinders,
* the per-basepoint modelling remainder, i.e. how well the gradient of the
  difference between the nonlinear solution and its frozen-coefficient model
  is approximated by an affine map on shrinking cylinders, and the no-model
  baseline oscillation it is contrasted with, on the same samples.

Sup norms over cylinders are exact over the grid samples, in d = 1 and d = 2;
seminorms are exact over every grid pair when a field or box has few enough
samples for the pair budget, and otherwise stratified-sampled lower bounds of
the discrete sup.  All sampling is deterministic given the parameters.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fitting import chebyshev_center, fit_affine_gradient, fit_affine_scalar
from .grid import (
    GridSpec,
    ParabolicCylinder,
    SpaceTimeField,
    ball_offsets,
    cylinder_samples,
    cylinder_window,
    increment,
    lattice_shifts,
    mollify,
    mollify_deriv,
    read_only,
)
from .nonlinearity import Nonlinearity, increment_averaged_coefficient


class RegularityError(ValueError):
    pass


# The one default of each estimator knob; ``harness.DEFAULTS`` reads it too.
DEFAULTS = {"pair_budget": 100_000, "y_budget": 16, "r_min_factor": 4, "r_max": 0.25}

# a log-log slope is fitted over at least this many radii
MIN_RADII = 4


@dataclass(frozen=True)
class RegularityParams:
    """Knobs shared by the estimators.

    ``radii`` is the dyadic radius set, truncated to [4*dx, 1/4] (the torus
    and snapshot cadence bound both ends); ``pair_budget`` caps the sampled
    pairs per separation scale in seminorms; ``y_budget`` caps the lattice
    shifts probed per scale in increment estimators.
    """

    alpha: float
    radii: np.ndarray
    pair_budget: int = DEFAULTS["pair_budget"]
    y_budget: int = DEFAULTS["y_budget"]

    def __post_init__(self):
        if not (0.5 < self.alpha < 1.0):
            raise RegularityError("alpha must lie in (1/2, 1): second differences gain requires 2*alpha > 1")
        for key in ("pair_budget", "y_budget"):
            if getattr(self, key) < 1:
                raise RegularityError(f"{key} must be at least 1, got {getattr(self, key)}")
        radii = np.sort(np.asarray(self.radii, dtype=float))
        if len(radii) == 0:
            raise RegularityError("empty radius set")
        object.__setattr__(self, "radii", read_only(radii.view())[0])

    @staticmethod
    def for_grid(
        grid: GridSpec,
        alpha: float,
        r_min_factor: int = DEFAULTS["r_min_factor"],
        r_max: float = DEFAULTS["r_max"],
        pair_budget: int = DEFAULTS["pair_budget"],
        y_budget: int = DEFAULTS["y_budget"],
    ) -> "RegularityParams":
        if r_min_factor < 1:
            raise RegularityError(f"r_min_factor must be at least 1, got {r_min_factor}")
        r = r_min_factor * grid.dx
        radii = []
        while r <= r_max + 1e-12:
            radii.append(r)
            r *= 2.0
        return RegularityParams(
            alpha=alpha,
            radii=np.array(radii),
            pair_budget=pair_budget,
            y_budget=y_budget,
        )


# ---------------------------------------------------------------------------
# Hoelder seminorm
# ---------------------------------------------------------------------------

def _dyadic_classes(dim: int, n_space: int, n_time: int, dx: float, snap_dt: float):
    """Offset classes (time shift in snapshots, signed spatial shift vector in
    nodes) on dyadic scales: the directions in {-1, 0, 1}^d with a positive
    first nonzero component, scaled by 1, 2, 4, ..., each also at its
    parabolically matched time shift with both signs (the sign is not
    redundant there), then the time shifts 1, 2, 4, ...
    """
    classes = []
    units = [v for v in itertools.product((-1, 0, 1), repeat=dim) if v > (0,) * dim]
    sx = 1
    while sx <= max(n_space // 2, 1):
        st_par = int(round((sx * dx) ** 2 / snap_dt))
        for v in units:
            s = tuple(sx * c for c in v)
            classes.append((0, s))
            if 1 <= st_par < n_time:
                classes += [(st_par, s), (st_par, tuple(-c for c in s))]
        sx *= 2
    st = 1
    while st < n_time:
        classes.append((st, (0,) * dim))
        st *= 2
    return classes


@functools.lru_cache(maxsize=None)  # shared: the arrays are read-only
def _pairs(grid: GridSpec, r: Optional[float]) -> tuple:
    """The pair table of every node of the torus (r None) or of the in-ball
    nodes of a ball's box, built once per (grid, r): anchor and partner node
    indices (row-major), each class's start and each class's distance."""
    inball = np.ones(grid.shape, bool) if r is None else ball_offsets(grid, r)[1]
    nodes = np.flatnonzero(inball)
    anchor, partner, starts, classes = _pair_table(np.argwhere(inball), grid.n if r is None else 0)
    space = tuple(math.hypot(*[s * grid.dx for s in c]) for c in classes.tolist())
    return read_only(nodes[anchor], nodes[partner], starts) + (space,)


def _pair_table(coords: np.ndarray, wrap: int) -> tuple:
    """Every ordered pair (anchor, partner) of the nodes at integer ``coords``
    (a row each), sorted by class: the |shift| vector, per axis
    min(s mod n, n - s mod n) on a torus of ``wrap`` = n nodes, else |s|.
    Returns anchor and partner indices into ``coords``, each class's start
    in the table and the classes, the zero shift first."""
    m, dim = coords.shape
    anchor, partner = np.divmod(np.arange(m * m), m)
    shift = np.abs(coords[partner] - coords[anchor])
    if wrap:
        shift = np.minimum(shift, wrap - shift)
    key = np.ravel_multi_index(tuple(shift.T), (int(shift.max()) + 1,) * dim)  # 0 for 0
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
    return anchor[order], partner[order], starts, shift[order[starts]]


def holder_seminorm(
    f: SpaceTimeField,
    alpha: float,
    region: Optional[ParabolicCylinder] = None,
    pair_budget: int = DEFAULTS["pair_budget"],
) -> float:
    """Discrete parabolic Hoelder seminorm sup |f(z)-f(z')| / d(z,z')^alpha.

    With n_anchors^2 <= 8 * pair_budget it is exact over every grid pair: a
    pair table, built once per (grid, radius) and read-only, lists every
    ordered pair of nodes (every node of the torus, the in-ball nodes of a
    box) sorted by class, the |shift| vector, and each time shift st reduces
    |f(t + st, partner) - f(t, anchor)|, gathered in chunks, to a max per
    pair, then per class (``np.maximum.reduceat``).  Otherwise
    pairs are enumerated by offset classes on dyadic scales, decimated on the
    torus by a deterministic time-axis stride beyond the budget: a lower bound.

    A class shares one distance, so it is reduced once: the max of
    |f(z)-f(z')| over its pairs and components, divided by d^alpha.  That is
    the max of the per-pair ratios bit for bit, since correctly rounded
    division by a positive constant is monotone, and the max over components,
    then over anchors, is the max over all entries.  The table holds the
    same-time pairs in both orientations, and |a - b| = |b - a|.
    """
    if pair_budget < 1:
        raise RegularityError(f"pair_budget must be at least 1, got {pair_budget}")
    grid = f.grid
    dim = grid.dim
    if region is None:
        vals = f.values
    else:
        win = cylinder_window(f, region)
        vals = win.take_box(f.values)
    n_time, n_space = vals.shape[:2]
    n_nodes = n_space**dim
    n_anchors = n_time * n_nodes
    if n_anchors < 2:
        raise RegularityError("need at least two samples in the region")
    snap_dt = grid.snap_dt if n_time > 1 else 1.0

    def stride(st):  # the whole field decimates its time axis to the budget
        return 1 if region is not None else max(1, int(np.ceil((n_time - st) * n_nodes / pair_budget)))

    best = 0.0
    # the offsets of a field or a box are as many as its anchors
    if n_anchors * n_anchors <= pair_budget * 8:
        anchor, partner, starts, space = _pairs(grid, None if region is None else region.r)
        flat = vals.reshape(n_time, n_nodes, -1).transpose(0, 2, 1)  # (time, component, node)
        for st in range(n_time):
            first = 0 if st else 1  # the zero class, at distance 0 when st = 0
            if first == len(starts):
                continue
            lag = math.sqrt(st * snap_dt) if st else 0.0
            later, earlier = flat[st :: stride(st)], flat[: n_time - st : stride(st)]
            p0, step = starts[first], max(1, (1 << 18) // (len(later) * flat.shape[1]))
            peak = np.concatenate([  # per pair, in gathers of at most 2 MB
                np.abs(np.take(later, partner[i : i + step], axis=2)
                       - np.take(earlier, anchor[i : i + step], axis=2)).max(axis=(0, 1))
                for i in range(p0, len(anchor), step)])
            top = np.maximum.reduceat(peak, starts[first:] - p0)
            best = max(best, float((top / [(lag + h) ** alpha for h in space[first:]]).max()))
        return best

    for st, sv in _dyadic_classes(dim, n_space, n_time, grid.dx, snap_dt):
        if region is None:
            # torus wrap: shift s and s - n give the same pair family
            sd = [min(abs(s) % grid.n, grid.n - abs(s) % grid.n) for s in sv]
        else:
            sd = [abs(s) for s in sv]
        dist = (math.sqrt(st * snap_dt) if st else 0.0) + math.hypot(
            *[s * grid.dx for s in sd]
        )
        if dist == 0.0:
            continue
        if region is None:
            # decimate the time axis first, then roll only the kept rows
            a = vals[st :: stride(st)]
            for ax, s in enumerate(sv):
                if s % grid.n:
                    a = np.roll(a, -s, axis=1 + ax)
            diff = a - vals[: n_time - st : stride(st)]
        else:
            # within a box, shifts are plain slices (|s| <= n_space); both
            # ends of a pair must be in-ball
            dst = tuple(slice(max(s, 0), n_space + min(s, 0)) for s in sv)
            src = tuple(slice(max(-s, 0), n_space - max(s, 0)) for s in sv)
            pair = win.inball[dst] & win.inball[src]
            if not pair.any():
                continue
            a = vals[(slice(st, None),) + dst][:, pair]
            diff = a - vals[(slice(n_time - st),) + src][:, pair]
        best = max(best, float(np.abs(diff).max()) / dist**alpha)
    return best


# ---------------------------------------------------------------------------
# Increment constants
# ---------------------------------------------------------------------------

def increment_constant(
    grad_f: SpaceTimeField,
    z: tuple,
    params: RegularityParams,
    spacetime: bool = False,
) -> float:
    """Best-constant approximation of gradient increments across scales.

    For each dyadic scale l and lattice shift |y| <= l the optimal constant
    k for delta_y(grad f) on the ball (or parabolic cylinder, when
    ``spacetime``) of radius l is the Chebyshev center of the sampled
    values; the estimator returns sup over (l, y) of radius(l, y) / l^(2 alpha).
    """
    t0, x0 = z
    grid = grad_f.grid
    best = 0.0
    for l in params.radii:
        shifts = lattice_shifts(grid, l, budget=params.y_budget)
        if len(shifts) == 0:
            continue
        win = cylinder_window(grad_f, ParabolicCylinder(t=t0, x=x0, r=float(l)))
        for y in shifts:
            cs = win.samples(grad_f.values, y)
            vals = cs.values if spacetime else cs.values[-1:]
            _, rad = chebyshev_center(vals.reshape(-1, vals.shape[-1]))
            best = max(best, float(rad) / float(l) ** (2 * params.alpha))
    return best


def time_term_constant(
    f: SpaceTimeField,
    z: tuple,
    params: RegularityParams,
) -> float:
    """Mollified time-derivative terms of the space-time interpolation bound.

    sum_{i=0..d} sup_r r^(1-2 alpha) sup_{|y|<=r} sup over P_r(z) of
    |d/dt (delta_y f)_{r,i}|, with the i >= 1 channels convolved against the
    r-scaled derivative bump (r times the sampled-kernel derivative) and d/dt
    taken by centered differences on the snapshot cadence, at the rows of
    P_r(z)'s slab that have a snapshot on either side.
    """
    t0, x0 = z
    grid = f.grid
    if not f.is_scalar:
        raise RegularityError("time terms are defined for scalar fields")
    best = [0.0] * (grid.dim + 1)  # the running sup of each channel
    for r in params.radii:
        if r < 2 * grid.dx or r >= 0.5 or int(round(r * r / grid.snap_dt)) < 3:
            continue
        win = cylinder_window(f, ParabolicCylinder(t=t0, x=x0, r=float(r)))
        rows = slice(max(win.slab.start - 1, 0), win.slab.stop + 1)  # a snapshot either side
        around = SpaceTimeField(grid, f.times[rows], f.values[rows])
        if len(around.times) < 3:
            raise RegularityError("need at least 3 snapshots for a centered time derivative")
        dt = around.times[1:] - around.times[:-1]
        if np.max(np.abs(dt - dt[0])) > 1e-12:
            raise RegularityError("snapshots must be uniformly spaced")
        at = (slice(None),) + win.nodes
        for y in lattice_shifts(grid, r, budget=params.y_budget):
            dyf = increment(around, y)
            for i in range(grid.dim + 1):
                g = mollify(dyf, r).values if i == 0 else r * mollify_deriv(dyf, r, i - 1).values
                g = g[at]  # then the centred time difference, at the nodes of P_r(z)
                sup = float(np.max(np.abs((g[2:] - g[:-2]) / (2.0 * dt[0]))))
                best[i] = max(best[i], float(r) ** (1 - 2 * params.alpha) * sup)
    return sum(best)


# ---------------------------------------------------------------------------
# Increment-vs-gradient affine transfer
# ---------------------------------------------------------------------------

def increment_affine_pair(
    f: SpaceTimeField,
    grad_f: SpaceTimeField,
    z: tuple,
    shifts,
    l: float,
) -> list:
    """[(lhs, rhs), ...] of the increment-to-gradient affine comparison, one
    pair per lattice shift y in ``shifts``.

    lhs: min-max residual of fitting delta_y f by a spatial affine function
    on P_l(z).  rhs: |y| times the min-max residual of fitting grad f by a
    symmetric affine model on P_2l(z), which is fitted once for all shifts.
    """
    t0, x0 = z
    win = cylinder_window(f, ParabolicCylinder(t=t0, x=x0, r=float(l)))
    cs = cylinder_samples(grad_f, ParabolicCylinder(t=t0, x=x0, r=2.0 * float(l)))
    grad_res = fit_affine_gradient(*cs.flat()).residual
    return [(fit_affine_scalar(*win.samples(f.values, y).flat()).residual,
             float(np.linalg.norm(np.atleast_1d(y))) * grad_res) for y in shifts]


def flux_mismatch(
    A: Nonlinearity,
    grad_u: SpaceTimeField,
    y,
    a_z: np.ndarray,
) -> SpaceTimeField:
    """(a_y - a(z)) applied to delta_y grad u, the source driving the
    difference equation once the coefficient is frozen at z; ``a_z`` is the
    frozen matrix a(z) = ``freeze(A, grad u(z)).matrix``."""
    ay = increment_averaged_coefficient(A, grad_u, y)
    dgrad = increment(grad_u, y).values
    g = np.einsum("...ij,...j->...i", ay.values - a_z, dgrad)
    return SpaceTimeField(grad_u.grid, grad_u.times, g)


# ---------------------------------------------------------------------------
# Modelling remainder and baseline
# ---------------------------------------------------------------------------

@dataclass
class BasepointReport:
    """Remainder-vs-radius analysis of one basepoint."""

    z: tuple
    radii: list
    residuals: list          # pinned-b min-max residuals per radius
    residuals_free: list     # free-b cross-check per radius
    models: list             # AffineModel per radius (pinned-b)
    slope: Optional[float]
    m_z: float
    b_gap: float             # |b_free(r_min) - grad w(z)|
    b_reference: list        # grad w(z), the pinned constant term
    baseline_slope: Optional[float]
    baseline_values: list
    stability_residuals: list  # residual of the r_min model replayed at each radius
    degenerate: bool
    increment_n: Optional[float] = None

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["z"] = [self.z[0], list(np.atleast_1d(self.z[1]))]
        d["models"] = [
            {"B": m.B.tolist(), "b": m.b.tolist()} for m in self.models
        ]
        return d


def _loglog_slope(radii, values, tiny: float = 1e-13) -> Optional[float]:
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > tiny
    if keep.sum() < MIN_RADII:
        return None
    coef = np.polyfit(np.log(r[keep]), np.log(v[keep]), 1)
    return float(coef[0])


def modelling_remainder(
    grad_u: SpaceTimeField,
    grad_v_a: SpaceTimeField,
    z: tuple,
    params: RegularityParams,
    with_increment_constant: bool = False,
) -> BasepointReport:
    """Fit affine models to grad(u - v_a) on shrinking cylinders around z.

    The constant term is pinned to the basepoint value of the difference
    gradient (its optimal limit); a free-constant fit is kept as the
    recovery cross-check.  Returns the residual table, the r^(-2 alpha)
    normalized sup M_z, the log-log slope, the stability replay of the
    smallest-radius model across all radii, and the no-model baseline: the
    RMS of grad u - grad u(z), which unlike the sup does not grow with the
    sample count of shrinking cylinders.  The two fields may be the same
    window of snapshot rows if it holds every cylinder's slab and starts at
    t = 0 when a slab reaches below it; ``degenerate`` reads that window.
    """
    if len(params.radii) < MIN_RADII:
        raise RegularityError(f"need at least {MIN_RADII} radii for slope estimation")
    if not np.array_equal(grad_u.times, grad_v_a.times):
        raise RegularityError("gradient fields must share snapshot times")
    t0, x0 = z
    gw = SpaceTimeField(grad_u.grid, grad_u.times, grad_u.values - grad_v_a.values)
    b_ref = np.asarray(gw.value_at(t0, x0), dtype=float).reshape(-1)
    u_ref = np.asarray(grad_u.value_at(t0, x0), dtype=float)

    residuals, residuals_free, models, stability, baseline = [], [], [], [], []
    for r in params.radii:
        # gw shares grad u's grid and times, so one window serves both
        win = cylinder_window(gw, ParabolicCylinder(t=t0, x=x0, r=float(r)))
        x, v = win.samples(gw.values).flat()
        pinned = fit_affine_gradient(x, v, pin_b=b_ref)
        free = fit_affine_gradient(x, v)
        if not models:  # the smallest radius
            b_gap = float(np.max(np.abs(free.model.b - b_ref)))
        residuals.append(pinned.residual)
        residuals_free.append(free.residual)
        models.append(pinned.model)
        # the smallest-radius model replayed at this radius
        stability.append(float(np.max(np.abs(v - models[0](x)))))
        diff = win.samples(grad_u.values).values - u_ref
        baseline.append(float(np.sqrt(np.mean(diff * diff))))

    m_z = max(res / float(r) ** (2.0 * params.alpha) for res, r in zip(residuals, params.radii))
    degenerate = float(np.max(np.abs(gw.values))) <= 1e-12 or max(residuals) <= 1e-12
    slope = None if degenerate else _loglog_slope(params.radii, residuals)
    inc_n = increment_constant(gw, z, params, spacetime=True) if with_increment_constant else None

    return BasepointReport(
        z=z,
        radii=[float(r) for r in params.radii],
        residuals=[float(v) for v in residuals],
        residuals_free=[float(v) for v in residuals_free],
        models=models,
        slope=slope,
        m_z=float(m_z),
        b_gap=b_gap,
        b_reference=[float(v) for v in b_ref],
        baseline_slope=_loglog_slope(params.radii, baseline),
        baseline_values=baseline,
        stability_residuals=stability,
        degenerate=bool(degenerate),
        increment_n=inc_n,
    )


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------

@dataclass
class ModellingReport:
    """Per-basepoint remainder curves plus the global modelling constant."""

    alpha: float
    entries: list = field(default_factory=list)

    def add(self, seed: int, report: BasepointReport) -> None:
        self.entries.append((seed, report))

    @property
    def m_global(self) -> float:
        return max((r.m_z for _, r in self.entries), default=0.0)

    def slopes(self) -> list:
        return [r.slope for _, r in self.entries if r.slope is not None]

    def baseline_slopes(self) -> list:
        return [r.baseline_slope for _, r in self.entries if r.baseline_slope is not None]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m_global": self.m_global,
            "entries": [
                {"seed": seed, **rep.to_dict()} for seed, rep in self.entries
            ],
        }
