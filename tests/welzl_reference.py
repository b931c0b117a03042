"""Scalar reference for the d = 2 minimum enclosing circle.

A frozen copy of the per-point Welzl loops that ``quasiheat.fitting`` used
before its scans were vectorized.  The package's solver must return the same
(cx, cy, r) bits as this one on every input; ``oracles.brute_chebyshev``
stays the independent referee for the geometry itself.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox

_EPS_IN = 1.0 + 1e-12


def min_enclosing_circle(pts: np.ndarray) -> tuple:
    rng = Generator(Philox(key=np.array([0x6D65623, 0], dtype=np.uint64)))
    order = rng.permutation(len(pts))
    shuffled = [tuple(pts[i]) for i in order]
    c = None
    for i, p in enumerate(shuffled):
        if c is None or not _in_circle(c, p):
            c = _circle_one_point(shuffled[: i + 1], p)
    return c


def _circle_one_point(points, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(c, q):
            if c[2] == 0.0:
                c = _diameter(p, q)
            else:
                c = _circle_two_points(points[: i + 1], p, q)
    return c


def _circle_two_points(points, p, q):
    circ = _diameter(p, q)
    left = None
    right = None
    px, py = p
    qx, qy = q
    for r in points:
        if _in_circle(circ, r):
            continue
        cross = _cross(px, py, qx, qy, r[0], r[1])
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (
            left is None
            or _cross(px, py, qx, qy, c[0], c[1]) > _cross(px, py, qx, qy, left[0], left[1])
        ):
            left = c
        elif cross < 0.0 and (
            right is None
            or _cross(px, py, qx, qy, c[0], c[1]) < _cross(px, py, qx, qy, right[0], right[1])
        ):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _diameter(a, b):
    cx = 0.5 * (a[0] + b[0])
    cy = 0.5 * (a[1] + b[1])
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumcircle(a, b, c):
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]), math.hypot(x - c[0], y - c[1]))
    return (x, y, r)


def _in_circle(c, p) -> bool:
    return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _EPS_IN


def _cross(x0, y0, x1, y1, x2, y2) -> float:
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
