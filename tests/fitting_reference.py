"""Reference min-max affine fits.

A frozen copy of the two public affine fits of ``quasiheat.fitting`` as they
were before both became thin wrappers of one fit core: each normalised its
own shapes, counted its own samples, pruned its own envelope and chose
between the d = 1 hull and its own exchange design, and the d = 1 line fit
built a third design for its unidentifiable cases.  The package's fits must
return the same bits as these on every well-formed input.  The helpers the
core left unchanged are imported from the package.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from quasiheat.fitting import (
    AffineModel,
    FitError,
    FitResult,
    ScalarAffine,
    _minmax_fit,
    _prune_envelope,
    _sup_residual,
    _upper_hull,
)


def _minmax_line(x: np.ndarray, hi: np.ndarray, lo: np.ndarray, free: bool) -> tuple:
    """(theta, degenerate) of the exact d = 1 fit: theta = (slope, offset)
    minimizes max |v - slope x - offset| over samples whose values at the
    distinct increasing offsets ``x`` span [lo, hi]; when not ``free`` the
    line passes through the origin and theta = (slope,).

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
    fit of that set.  Fewer than two distinct offsets (free), or no nonzero
    offset (pinned), leave the fit unidentifiable; its rank-deficient design
    goes to ``_minmax_fit``, whose least squares stands in.
    """
    if (len(x) < 2) if free else not np.any(x):
        x2 = np.concatenate([x, x])
        design = np.stack([x2, np.ones_like(x2)], axis=1) if free else x2[:, None]
        return _minmax_fit(design, np.concatenate([hi, lo]))
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


def gradient_fit_samples(d: int, pinned: bool = False) -> int:
    """The fewest samples ``fit_affine_gradient`` takes in d dimensions: their
    bounds above and below must outnumber the entries of sym(B) and b."""
    return (d * (d + 1) // 2 + (0 if pinned else d)) // 2 + 1


def fit_affine_gradient(xrel, values, pin_b: Optional[np.ndarray] = None) -> FitResult:
    """Min-max fit of a vector field by B(x - x') + b with symmetric B.

    ``values`` are d-component samples at offsets ``xrel`` from the
    basepoint.  The residual is the sup over samples of the largest absolute
    component that the returned model achieves; ``pin_b`` freezes the
    constant term (the default slope analyses pin it to the field's
    basepoint value).
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
    need = gradient_fit_samples(d, pinned=pin_b is not None)
    if x.shape[0] < need:
        raise FitError(f"need at least {need} samples, got {x.shape[0]}")

    xp, vmax, vmin = _prune_envelope(x, v)
    if pin_b is not None:
        pb = np.asarray(pin_b, dtype=float)
        vmax, vmin = vmax - pb, vmin - pb
    if d == 1:
        theta, degenerate = _minmax_line(xp[:, 0], vmax[:, 0], vmin[:, 0], pin_b is None)
    else:
        x2 = np.concatenate([xp, xp])
        # one constraint row per (pruned sample, component)
        design = np.zeros((x2.shape[0], d, n_par))
        for p_idx, (i, j) in enumerate(pairs):
            design[:, i, p_idx] += x2[:, j]
            if i != j:
                design[:, j, p_idx] += x2[:, i]
        if pin_b is None:
            for c in range(d):
                design[:, c, len(pairs) + c] = 1.0
        nrow = x2.shape[0] * d
        theta, degenerate = _minmax_fit(design.reshape(nrow, n_par),
                                        np.concatenate([vmax, vmin]).reshape(nrow))

    B = np.zeros((d, d))
    for p_idx, (i, j) in enumerate(pairs):
        B[i, j] = B[j, i] = theta[p_idx]
    b = np.asarray(pin_b, dtype=float) if pin_b is not None else theta[len(pairs):]
    model = AffineModel(B=B, b=b)
    return FitResult(model=model, residual=_sup_residual(model, x, v), degenerate=degenerate)


def fit_affine_scalar(xrel, values, pin_offset: Optional[float] = None) -> FitResult:
    """Min-max fit of scalar samples by slope.(x - x') + offset; the residual
    is the sup the returned model achieves."""
    x = np.asarray(xrel, dtype=float)
    v = np.asarray(values, dtype=float).reshape(-1)
    if x.ndim == 1:
        x = x[:, None]
    d = x.shape[1]
    n_par = d + (0 if pin_offset is not None else 1)
    if 2 * x.shape[0] < n_par + 1:
        raise FitError(f"need at least {n_par + 1} samples, got {x.shape[0]}")
    xp, vmax, vmin = _prune_envelope(x, v[:, None])
    shift = pin_offset if pin_offset is not None else 0.0
    hi, lo = vmax[:, 0] - shift, vmin[:, 0] - shift
    if d == 1:
        theta, degenerate = _minmax_line(xp[:, 0], hi, lo, pin_offset is None)
    else:
        x2 = np.concatenate([xp, xp])
        design = x2 if pin_offset is not None else np.concatenate([x2, np.ones((len(x2), 1))], axis=1)
        theta, degenerate = _minmax_fit(design, np.concatenate([hi, lo]))

    offset = float(pin_offset) if pin_offset is not None else float(theta[d])
    model = ScalarAffine(slope=theta[:d], offset=offset)
    return FitResult(model=model, residual=_sup_residual(model, x, v), degenerate=degenerate)
