"""Min-max (Chebyshev) fitting primitives.

Two closely related problems back the regularity estimators:

* ``chebyshev_center``: the constant minimizing the sup of Euclidean
  residuals over a finite point set, i.e. the center of the minimum
  enclosing ball.  Solved in closed form for d = 1 and by the randomized
  incremental (Welzl-style) algorithm for d = 2, made deterministic by a
  fixed-key shuffle.  The three nested loops scan for the next point
  outside the circle in vectorized chunks and build all candidate
  circumcentres at once, bit-identical to per-point loops: distances within
  a few ulp of the threshold are re-tested with math.hypot.

* ``fit_affine_*``: affine models minimizing the max-abs-component residual
  over samples.  The fit is a small dense LP (variables: model coefficients
  plus one slack), solved with HiGHS once a rank check has found the model
  identifiable; least squares stands in when it is not.  Because the model depends on the
  spatial offset only, samples sharing an offset are pruned to their
  componentwise envelope before the LP, which keeps the constraint count at
  twice the number of distinct offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import linprog


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
    cx, cy, r = _min_enclosing_circle(pts)
    return np.array([cx, cy]), r


def _min_enclosing_circle(pts: np.ndarray) -> tuple:
    rng = Generator(Philox(key=np.array([0x6D65623, 0], dtype=np.uint64)))
    order = rng.permutation(len(pts))
    xs = np.ascontiguousarray(pts[order, 0])
    ys = np.ascontiguousarray(pts[order, 1])
    c = _circle_one_point(xs, ys, 1, 0)
    i = _first_outside(xs, ys, 1, len(xs), c)
    while i < len(xs):
        c = _circle_one_point(xs, ys, i + 1, i)
        i = _first_outside(xs, ys, i + 1, len(xs), c)
    return c


def _circle_one_point(xs, ys, k, ip):
    """Smallest circle through point ip enclosing the first k points."""
    p = (xs[ip], ys[ip])
    c = (p[0], p[1], 0.0)
    j = _first_outside(xs, ys, 0, k, c)
    while j < k:
        q = (xs[j], ys[j])
        if c[2] == 0.0:
            c = _diameter(p, q)
        else:
            c = _circle_two_points(xs, ys, j + 1, p, q)
        j = _first_outside(xs, ys, j + 1, k, c)
    return c


def _circle_two_points(xs, ys, k, p, q):
    """Smallest circle through p and q enclosing the first k points.

    Of the points outside the p-q diameter circle, the circumcircle whose
    centre lies farthest left (right) of p->q is the first maximum (minimum)
    of the centre's cross product, as a strict-comparison scan keeps it.
    """
    circ = _diameter(p, q)
    idx = _outside(xs[:k], ys[:k], circ).nonzero()[0]
    if idx.size == 0:
        return circ
    rx, ry = xs[idx], ys[idx]
    px, py = p
    qx, qy = q
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    ccx, ccy, ok = _circumcentres(p, q, rx, ry)
    ccross = (qx - px) * (ccy - py) - (qy - py) * (ccx - px)
    sides = []
    for sign, side in ((1.0, ok & (cross > 0.0)), (-1.0, ok & (cross < 0.0))):
        cand = side.nonzero()[0]
        if cand.size:
            j = cand[_first_max(sign * ccross[cand])]
            x, y = ccx[j], ccy[j]
            r = max(math.hypot(x - px, y - py), math.hypot(x - qx, y - qy), math.hypot(x - rx[j], y - ry[j]))
            sides.append((x, y, r))
    if not sides:
        return circ
    return sides[0] if len(sides) == 1 or sides[0][2] <= sides[1][2] else sides[1]


def _diameter(a, b):
    cx = 0.5 * (a[0] + b[0])
    cy = 0.5 * (a[1] + b[1])
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _first_max(v):
    """Index that ``best = 0; best = j if v[j] > v[best]`` ends on."""
    if np.isnan(v[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(v), -np.inf, v)))


def _circumcentres(a, b, xs, ys):
    """Centres of the circles through a, b and each (xs, ys), computed in
    coordinates shifted to the bounding-box midpoint; ``ok`` flags the
    non-collinear triples.  Each IEEE operation matches the scalar
    construction (np.minimum may pick the other signed zero than min(),
    but only when all three coordinates are zero, where d == 0)."""
    ox = (np.minimum(min(a[0], b[0]), xs) + np.maximum(max(a[0], b[0]), xs)) / 2
    oy = (np.minimum(min(a[1], b[1]), ys) + np.maximum(max(a[1], b[1]), ys)) / 2
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = xs - ox, ys - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
        y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    return x, y, d != 0.0


_EPS_IN = 1.0 + 1e-12


# np.hypot and math.hypot may differ in the last ulp; distances this close
# (relative) to the threshold are re-tested with math.hypot
_HYPOT_BAND = 8 * np.finfo(float).eps


def _outside(xs, ys, c) -> np.ndarray:
    """Mask of points with math.hypot(p - centre) > r * _EPS_IN."""
    cx, cy, r = c
    dx, dy = xs - cx, ys - cy
    h = np.hypot(dx, dy)
    thr = r * _EPS_IN
    out = h > thr
    near = np.abs(h - thr) <= _HYPOT_BAND * thr + 1e-300
    if near.any():
        for j in near.nonzero()[0]:
            out[j] = not math.hypot(dx[j], dy[j]) <= thr
    return out


def _first_outside(xs, ys, start, stop, c) -> int:
    """Index of the first point in [start, stop) outside c, else stop;
    scans growing chunks, as the next outside point is usually near."""
    size = 64
    while start < stop:
        end = min(start + size, stop)
        out = _outside(xs[start:end], ys[start:end], c)
        j = int(out.argmax())
        if out[j]:
            return start + j
        start = end
        size *= 2
    return stop


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
    """Collapse samples sharing an offset to componentwise min/max.

    Valid for the max-abs-component objective because the model value at a
    given offset is shared by all its samples.
    """
    uniq, inv = np.unique(xrel, axis=0, return_inverse=True)
    c = values.shape[1]
    vmax = np.full((len(uniq), c), -np.inf)
    vmin = np.full((len(uniq), c), np.inf)
    np.maximum.at(vmax, inv, values)
    np.minimum.at(vmin, inv, values)
    x2 = np.concatenate([uniq, uniq], axis=0)
    v2 = np.concatenate([vmax, vmin], axis=0)
    return x2, v2


def _minmax_fit(design: np.ndarray, targets: np.ndarray) -> tuple:
    """(theta, t, degenerate) for min t s.t. |design @ theta - targets| <= t.

    A full-rank design goes to HiGHS.  A rank-deficient design, or an LP that
    fails, falls back to the least-squares theta and the sup it achieves, and
    is flagged degenerate.
    """
    nrow, npar = design.shape
    if np.linalg.matrix_rank(design) == npar:
        A_ub = np.zeros((2 * nrow, npar + 1))
        A_ub[:nrow, :npar] = design
        A_ub[nrow:, :npar] = -design
        A_ub[:, npar] = -1.0
        c = np.zeros(npar + 1)
        c[npar] = 1.0
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=np.concatenate([targets, -targets]),
            bounds=[(None, None)] * npar + [(0, None)],
            method="highs",
        )
        if res.success:
            return res.x[:npar], float(res.x[npar]), False
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return theta, float(np.max(np.abs(design @ theta - targets))), True


def fit_affine_gradient(xrel, values, pin_b: Optional[np.ndarray] = None) -> FitResult:
    """Min-max fit of a vector field by B(x - x') + b with symmetric B.

    ``values`` are d-component samples at offsets ``xrel`` from the
    basepoint.  The residual is the optimal sup over samples of the largest
    absolute component; ``pin_b`` freezes the constant term (the default
    slope analyses pin it to the field's basepoint value).
    """
    x = np.asarray(xrel, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    d = x.shape[1]
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[1] != d:
        raise FitError("gradient fit expects d-component values")
    pairs = [(i, j) for i in range(d) for j in range(i, d)]  # entries of sym(B)
    n_par = len(pairs) + (0 if pin_b is not None else d)
    if 2 * x.shape[0] < n_par + 1:
        raise FitError(f"need at least {n_par + 1} samples, got {x.shape[0]}")

    xp, vp = _prune_envelope(x, v)
    if pin_b is not None:
        vp = vp - np.asarray(pin_b, dtype=float)[None, :]

    # one constraint row per (pruned sample, component)
    design = np.zeros((xp.shape[0], d, n_par))
    for p_idx, (i, j) in enumerate(pairs):
        design[:, i, p_idx] += xp[:, j]
        if i != j:
            design[:, j, p_idx] += xp[:, i]
    if pin_b is None:
        for c in range(d):
            design[:, c, len(pairs) + c] = 1.0
    nrow = xp.shape[0] * d
    theta, resid, degenerate = _minmax_fit(design.reshape(nrow, n_par), vp.reshape(nrow))

    B = np.zeros((d, d))
    for p_idx, (i, j) in enumerate(pairs):
        B[i, j] = B[j, i] = theta[p_idx]
    b = np.asarray(pin_b, dtype=float) if pin_b is not None else theta[len(pairs):]
    return FitResult(model=AffineModel(B=B, b=b), residual=resid, degenerate=degenerate)


def fit_affine_scalar(xrel, values, pin_offset: Optional[float] = None) -> FitResult:
    """Min-max fit of scalar samples by slope.(x - x') + offset."""
    x = np.asarray(xrel, dtype=float)
    v = np.asarray(values, dtype=float).reshape(-1)
    if x.ndim == 1:
        x = x[:, None]
    d = x.shape[1]
    n_par = d + (0 if pin_offset is not None else 1)
    if 2 * x.shape[0] < n_par + 1:
        raise FitError(f"need at least {n_par + 1} samples, got {x.shape[0]}")
    xp, vp = _prune_envelope(x, v[:, None])
    targets = vp[:, 0] - (pin_offset if pin_offset is not None else 0.0)
    if pin_offset is not None:
        design = xp
    else:
        design = np.concatenate([xp, np.ones((xp.shape[0], 1))], axis=1)

    theta, resid, degenerate = _minmax_fit(design, targets)
    offset = float(pin_offset) if pin_offset is not None else float(theta[d])
    return FitResult(model=ScalarAffine(slope=theta[:d], offset=offset),
                     residual=resid, degenerate=degenerate)
