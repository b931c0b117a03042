"""Min-max (Chebyshev) fitting primitives.

Two closely related problems back the regularity estimators:

* ``chebyshev_center``: the constant minimizing the sup of Euclidean
  residuals over a finite point set, i.e. the center of the minimum
  enclosing ball.  Closed form for d = 1.  In d = 2 a prefilter drops the
  points strictly inside the octagon of extreme points, on which the circle
  does not depend, and Welzl's randomized incremental loops, made
  deterministic by a fixed-key shuffle, run on the rest.

* ``fit_affine_*``: affine models minimizing the max-abs-component residual
  over samples.  The gradient and scalar fits differ only in their linear
  part, sym(B) or one slope row, and share one core: it checks shapes and
  the sample count, prunes samples sharing an offset to their componentwise
  envelope (the model depends on the offset only), subtracts a pinned
  constant and forks once.  An identifiable d = 1 line is solved exactly
  from the envelope's convex hulls in O(m log m); every other fit is one
  design, scaled and solved exactly by Stiefel's exchange algorithm, whose
  final reference certifies the optimum.  Least squares stands in, flagged
  degenerate, when the model is not identifiable or the exchange loop hits
  its cap.  The reported residual is always the sup the returned model
  achieves over the samples, so it bounds the model's error.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox


class FitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Minimum enclosing ball
# ---------------------------------------------------------------------------

def chebyshev_center(points) -> tuple:
    """Center and radius of the smallest ball enclosing the points.

    Accepts (N,) scalars or (N, d) vectors with d in {1, 2}.  The returned
    radius is the achieved sup of |p - center|.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise FitError("empty point set")
    if pts.ndim == 1:
        pts = pts[:, None]
    d = pts.shape[1]
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return np.array([0.5 * (lo + hi)]), 0.5 * (hi - lo)
    if d != 2:
        raise FitError(f"chebyshev_center supports d in {{1, 2}}, got {d}")
    pts = pts[_hull_candidates(pts)]
    rng = Generator(Philox(key=np.array([0x6D65623, 0], dtype=np.uint64)))
    shuffled = pts[rng.permutation(len(pts))].tolist()
    c = (shuffled[0][0], shuffled[0][1], 0.0)
    for i, p in enumerate(shuffled):
        if not _in_circle(c, p):
            c = _circle_one_point(shuffled[: i + 1], p)
    return np.array(c[:2]), c[2]


def _octagon(pts: np.ndarray) -> np.ndarray:
    """The extreme points in the directions 0, 45, ..., 315 degrees, less cyclic repeats."""
    x, y = pts[:, 0], pts[:, 1]
    ext = pts[[int(np.argmax(v)) for v in (x, x + y, y, y - x, -x, -x - y, -y, x - y)]]
    return ext[(ext != np.roll(ext, 1, axis=0)).any(axis=1)]


# a computed cross product errs by less than 3 * 2**-53 of |t1| + |t2| (Shewchuk's
# orient2d bound); the floor covers products that underflow
_CROSS_TOL, _CROSS_FLOOR = 4 * np.finfo(float).eps, np.finfo(float).tiny


def _hull_candidates(pts: np.ndarray) -> np.ndarray:
    """Mask of the points not strictly inside ``_octagon`` (Akl and Toussaint):
    a point goes only if its cross product with every edge exceeds the rounding
    bound, so it is inside in exact arithmetic; under 3 vertices, none goes."""
    a = _octagon(pts)
    inside = np.full(len(pts), len(a) >= 3)
    for (ax, ay), (bx, by) in zip(a, np.roll(a, -1, axis=0)):  # one edge at a time keeps memory O(N)
        t1, t2 = (bx - ax) * (pts[:, 1] - ay), (by - ay) * (pts[:, 0] - ax)
        inside &= t1 - t2 > _CROSS_TOL * (np.abs(t1) + np.abs(t2)) + _CROSS_FLOOR
    return ~inside


def _circle_one_point(points, p):
    """Smallest circle through p enclosing points."""
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(c, q):
            c = _diameter(p, q) if c[2] == 0.0 else _circle_two_points(points[: i + 1], p, q)
    return c


def _circle_two_points(points, p, q):
    """Smallest circle through p and q enclosing points: of the circles through
    p, q and a point outside the p-q diameter circle, the smaller of the one
    centred farthest left of p->q and the one centred farthest right."""
    circ = _diameter(p, q)
    outside = [r for r in points if not _in_circle(circ, r)]
    sides = []
    for sign in (1.0, -1.0):
        on_side = [c for r in outside if sign * _cross(p, q, r) > 0.0 and (c := _circumcircle(p, q, r))]
        if on_side:
            sides.append(max(on_side, key=lambda c: sign * _cross(p, q, c)))
    return min(sides, key=lambda c: c[2], default=circ)


def _diameter(a, b):
    cx, cy = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
    return (cx, cy, max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1])))


def _circumcircle(a, b, c):
    """The circle through a, b and c, or None when collinear, computed about their box's midpoint."""
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2
    ax, ay, bx, by, cx, cy = a[0] - ox, a[1] - oy, b[0] - ox, b[1] - oy, c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    return (x, y, max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]), math.hypot(x - c[0], y - c[1])))


_EPS_IN = 1.0 + 1e-12  # p is in circle c when |p - centre| <= r * _EPS_IN


def _in_circle(c, p) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _EPS_IN


def _cross(a, b, c) -> float:  # (b - a) x (c - a)
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# ---------------------------------------------------------------------------
# Min-max affine fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineModel:
    """x |-> B (x - x') + b; fits assign symmetric entries from shared
    parameters, so B == B.T holds bitwise on their output."""

    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(-1))

    def __call__(self, xrel: np.ndarray) -> np.ndarray:
        return np.asarray(xrel) @ self.B.T + self.b


@dataclass(frozen=True)
class ScalarAffine:
    """x |-> slope.(x - x') + offset, the scalar-valued fit used on increments."""

    slope: np.ndarray
    offset: float

    def __call__(self, xrel: np.ndarray) -> np.ndarray:
        return np.asarray(xrel) @ np.asarray(self.slope) + self.offset


@dataclass(frozen=True)
class FitResult:
    model: object
    residual: float
    degenerate: bool


def _prune_envelope(xrel: np.ndarray, values: np.ndarray) -> tuple:
    """(offsets, vmax, vmin): the distinct offsets, in increasing order, and
    the componentwise max and min of the samples at each.

    Valid for the max-abs-component objective because the model value at a
    given offset is shared by all its samples.
    """
    order = np.lexsort(xrel.T[::-1])  # rows in lexicographic order
    xs, vs = xrel[order], values[order]
    start = np.flatnonzero(np.concatenate([[True], np.any(xs[1:] != xs[:-1], axis=1)]))
    return xs[start], np.maximum.reduceat(vs, start), np.minimum.reduceat(vs, start)


def _sup_residual(model, x: np.ndarray, v: np.ndarray) -> float:
    """The sup the model achieves over the samples, in its own arithmetic."""
    return float(np.max(np.abs(v - model(x))))


MinimaxResult = namedtuple("MinimaxResult", "x level success")


def linprog(design: np.ndarray, targets: np.ndarray) -> MinimaxResult:
    """min_x max_i |targets_i - design_i x|, for a design of full column rank
    p, by Stiefel's exchange algorithm (the simplex method on the LP's dual).
    A reference of p + 1 rows j with signs s_j fixes x and a level h by
    design_j x + s_j h = targets_j; weights w >= 0 solving sum_j w_j
    [s_j design_j, 1] = [0, 1] make h a lower bound on the optimum.  The row
    of largest residual enters, the ratio test on w picks the row that
    leaves, and the loop stops when the achieved sup meets h up to rounding.
    Bland's rule, which cannot cycle, takes over after 5 (p + 1) exchanges;
    after 50 (p + 1) the result is unsuccessful.  Returns (x, level h, success).
    """
    D, y, p = design, targets, design.shape[1]
    # start: p independent rows by least-squares residual, and their interpolant's worst row
    order = np.argsort(-np.abs(y - D @ np.linalg.lstsq(D, y, rcond=None)[0]), kind="stable")
    rest, ref = D[order], []
    for _ in range(p):
        left = np.linalg.norm(rest, axis=1)
        j = int(np.argmax(left >= 1e-6 * left.max()))
        rest = rest - np.outer(rest @ rest[j], rest[j]) / left[j] ** 2
        ref.append(order[j])
    worst = int(np.argmax(np.abs(y - D @ np.linalg.solve(D[ref], y[ref]))))
    # signs from the null vector of the transposed reference give w, h >= 0
    null = np.append(-np.linalg.solve(D[ref].T, D[worst]), 1.0)
    ref = np.append(ref, worst)
    sign = np.copysign(1.0, null) * np.copysign(1.0, null @ y[ref])
    for it in range(50 * (p + 1)):
        # the basis columns [s_j design_j, 1] are s_j times this system's rows
        inv = np.linalg.inv(np.column_stack([D[ref], sign]))
        sol = inv @ y[ref]
        x, h = sol[:p], float(sol[p])
        r = y - D @ x
        gap = np.abs(r) - h
        tol = 32 * np.finfo(float).eps * (1.0 + np.abs(x).sum())
        bland = it >= 5 * (p + 1)
        k = int(np.argmax(gap > tol if bland else gap))
        if gap[k] <= tol:  # rounding can put h an ulp above the sup it bounds
            return MinimaxResult(x, min(h, float(np.max(np.abs(r)))), True)
        s = np.copysign(1.0, r[k])
        w, step = sign * inv[p], sign * (inv.T @ np.append(s * D[k], 1.0))
        ratio = np.where(step > 1e-12, np.maximum(w, 0.0) / np.maximum(step, 1e-12), np.inf)
        ties = np.flatnonzero(ratio <= ratio.min())
        out = ties[np.argmin(ref[ties])] if bland else ties[np.argmax(step[ties])]
        ref[out], sign[out] = k, s
    return MinimaxResult(x, h, False)


def _minmax_fit(design: np.ndarray, targets: np.ndarray) -> tuple:
    """(theta, degenerate) minimizing max |design @ theta - targets|.

    A full-rank design goes to ``linprog`` with each column and the targets
    scaled to unit max-abs, so that its tolerances act as relative ones.  A
    rank-deficient design, or an exchange loop that hits its cap, falls
    back to the least-squares theta and is flagged degenerate.
    """
    if np.linalg.matrix_rank(design) == design.shape[1]:
        col = np.max(np.abs(design), axis=0)
        scale = float(np.max(np.abs(targets))) or 1.0
        res = linprog(design / col, targets / scale)
        if res.success:
            return res.x * scale / col, False
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return theta, True


def _upper_hull(x: list, y: list) -> tuple:
    """Vertices of the upper convex hull of points with increasing x
    (Andrew's monotone chain)."""
    hx, hy = [], []
    for px, py in zip(x, y):
        while len(hx) > 1 and (hx[-1] - hx[-2]) * (py - hy[-2]) >= (hy[-1] - hy[-2]) * (px - hx[-2]):
            hx.pop()
            hy.pop()
        hx.append(px)
        hy.append(py)
    return np.array(hx), np.array(hy)


def _minmax_line(x: np.ndarray, hi: np.ndarray, lo: np.ndarray, free: bool) -> tuple:
    """(theta, degenerate) of the exact d = 1 fit: theta = (slope, offset)
    minimizes max |v - slope x - offset| over samples whose values at the
    distinct increasing offsets ``x`` span [lo, hi]; when not ``free`` the
    line passes through the origin and theta = (slope,).  The line must be
    identifiable: two distinct offsets (free), or a nonzero one (pinned).

    For a slope s the best offset centres the values v - s x, leaving half
    their spread.  The spread is convex and piecewise linear in s, with its
    kinks at the edge slopes of the upper hull of (x, hi) and the lower hull
    of (x, lo), so its minimum is at one of these (the equioscillation of
    the Chebyshev line fit; Rivlin, *An Introduction to the Approximation of
    Functions*).  Each candidate's spread reads one vertex per hull,
    found by bisecting the hull's monotone edge slopes: O(m log m) in all.

    A line through the origin fits the points exactly as well as it fits
    their reflections through the origin, and the best free line of the
    symmetric set passes through the origin, so the pinned fit is the free
    fit of that set.
    """
    if not free:
        xs, vmax, vmin = _prune_envelope(np.concatenate([x, x, -x, -x])[:, None],
                                         np.concatenate([hi, lo, -hi, -lo])[:, None])
        x, hi, lo = xs[:, 0], vmax[:, 0], vmin[:, 0]
    ux, uy = _upper_hull(x.tolist(), hi.tolist())
    lx, ly = _upper_hull(x.tolist(), (-lo).tolist())
    ly = -ly
    su = np.diff(uy) / np.diff(ux)  # decreasing
    sl = np.diff(ly) / np.diff(lx)  # increasing
    s = np.concatenate([su, sl])
    iu = np.searchsorted(-su, -s)  # the upper vertex maximizing hi - s x
    il = np.searchsorted(sl, s)  # the lower vertex minimizing lo - s x
    spread = (uy[iu] - s * ux[iu]) - (ly[il] - s * lx[il])
    slope = s[int(np.argmin(spread))]
    offset = 0.5 * (np.max(hi - slope * x) + np.min(lo - slope * x))
    return (np.array([slope, offset]) if free else np.array([slope])), False


def min_fit_samples(n_par: int) -> int:
    """The fewest samples a fit of n_par parameters takes: their bounds
    above and below must outnumber the parameters."""
    return n_par // 2 + 1


@functools.lru_cache(maxsize=None)  # shared: read it, never write it
def _sym_index(d: int) -> np.ndarray:
    """(d, d) numbers of the parameters of sym(B): its upper triangle, row by row."""
    r = np.arange(d)
    i, j = np.minimum.outer(r, r), np.maximum.outer(r, r)
    return i * d - i * (i - 1) // 2 + j - i


def _fit_affine(xrel, values, pin, linear) -> tuple:
    """(x, v, L, c, degenerate) of the min-max fit of ``values`` at offsets
    ``xrel`` by the model L x + c, with L[i, j] = theta[lin[i, j]] for
    lin = linear(d) of shape (k, d).  theta holds the linear parameters
    0 .. max(lin), then the k entries of c unless ``pin`` fixes them.  x and
    v come back as (N, d) and (N, k) arrays.

    The samples are pruned to their envelope and the pin is subtracted.  An
    identifiable d = 1 line goes to the hulls of ``_minmax_line``; every
    other fit goes to ``_minmax_fit`` as one design, a row per (bound,
    pruned sample, component).
    """
    x = np.asarray(xrel, dtype=float)
    v = np.asarray(values, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    v = v[:, None] if v.ndim == 1 else v
    lin = linear(x.shape[1])
    k = len(lin)
    if v.shape != (len(x), k):
        raise FitError(f"expected {k}-component values at {len(x)} offsets, got shape {v.shape}")
    n_par = int(lin.max()) + 1 + (k if pin is None else 0)
    if len(x) < min_fit_samples(n_par):
        raise FitError(f"need at least {min_fit_samples(n_par)} samples, got {len(x)}")
    xp, hi, lo = _prune_envelope(x, v)
    if pin is not None:
        pin = np.asarray(pin, dtype=float).reshape(-1)
        if pin.size != k:
            raise FitError(f"a pin of {pin.size} entries for {k}-component values")
        hi, lo = hi - pin, lo - pin
    if x.shape[1] == 1 and (len(xp) > 1 if pin is None else np.any(xp)):
        theta, degenerate = _minmax_line(xp[:, 0], hi[:, 0], lo[:, 0], pin is None)
    else:
        x2 = np.concatenate([xp, xp])
        design = np.zeros((len(x2), k, n_par))
        design[:, np.arange(k)[:, None], lin] = x2[:, None, :]
        if pin is None:
            design[:, np.arange(k), n_par - k + np.arange(k)] = 1.0
        theta, degenerate = _minmax_fit(design.reshape(-1, n_par), np.concatenate([hi, lo]).reshape(-1))
    return x, v, theta[lin], theta[n_par - k:] if pin is None else pin, degenerate


def fit_affine_gradient(xrel, values, pin_b: Optional[np.ndarray] = None) -> FitResult:
    """Min-max fit of a vector field by B(x - x') + b with symmetric B.

    ``values`` are d-component samples at offsets ``xrel`` from the
    basepoint.  The residual is the sup over samples of the largest absolute
    component that the returned model achieves; ``pin_b`` freezes the
    constant term (the default slope analyses pin it to the field's
    basepoint value).
    """
    x, v, B, b, degenerate = _fit_affine(xrel, values, pin_b, _sym_index)
    model = AffineModel(B=B, b=b)
    return FitResult(model=model, residual=_sup_residual(model, x, v), degenerate=degenerate)


def fit_affine_scalar(xrel, values, pin_offset: Optional[float] = None) -> FitResult:
    """Min-max fit of scalar samples by slope.(x - x') + offset; the residual
    is the sup the returned model achieves."""
    x, v, slope, offset, degenerate = _fit_affine(xrel, values, pin_offset, lambda d: np.arange(d)[None, :])
    model = ScalarAffine(slope=slope[0], offset=float(offset[0]))
    return FitResult(model=model, residual=_sup_residual(model, x, v[:, 0]), degenerate=degenerate)
