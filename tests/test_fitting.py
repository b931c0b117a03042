import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasiheat.fitting import (
    FitError,
    chebyshev_center,
    fit_affine_gradient,
    fit_affine_scalar,
)

from oracles import (
    brute_affine_gradient,
    brute_chebyshev,
    exact_affine_scalar_1d,
    exact_affine_scalar_1d_pinned,
    exact_minmax_vertex,
    gradient_fit_design,
)
from quasiheat import fitting
import fitting_reference
from welzl_reference import _EPS_IN, _in_circle, min_enclosing_circle


# ---------------------------------------------------------------------------
# chebyshev center
# ---------------------------------------------------------------------------

def test_single_point():
    c, r = chebyshev_center(np.array([[1.2, -0.4]]))
    assert np.allclose(c, [1.2, -0.4])
    assert r == 0.0


def test_interval_midpoint():
    c, r = chebyshev_center(np.array([1.0, 3.0]))
    assert c[0] == pytest.approx(2.0)
    assert r == pytest.approx(1.0)


def test_empty_rejected():
    with pytest.raises(FitError):
        chebyshev_center(np.zeros((0, 2)))


def test_welzl_matches_grid_search():
    rng = np.random.default_rng(5)
    for trial in range(10):
        pts = rng.normal(size=(50, 2)) * rng.uniform(0.5, 2.0)
        c, r = chebyshev_center(pts)
        c_o, r_o = brute_chebyshev(pts)
        assert abs(r - r_o) < 1e-6
        # center of the min enclosing ball is unique
        assert np.linalg.norm(c - c_o) < 1e-5


def test_welzl_deterministic():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 2))
    a = chebyshev_center(pts)
    b = chebyshev_center(pts)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_welzl_collinear_points():
    pts = np.stack([np.linspace(0, 1, 9), np.zeros(9)], axis=1)
    c, r = chebyshev_center(pts)
    assert np.allclose(c, [0.5, 0.0], atol=1e-12)
    assert r == pytest.approx(0.5, abs=1e-12)


def assert_matches_scalar_welzl(pts):
    """Bitwise the scalar reference on the points the prefilter keeps; within
    1e-14 r of the reference on the full set, and enclosing every point."""
    pts = np.asarray(pts, dtype=float)
    c, r = chebyshev_center(pts)
    cx, cy, r_kept = min_enclosing_circle(pts[fitting._hull_candidates(pts)])
    assert c.tobytes() == np.array([cx, cy]).tobytes()
    assert np.float64(r).tobytes() == np.float64(r_kept).tobytes()
    cx, cy, r_full = min_enclosing_circle(pts)
    assert abs(r - r_full) <= 1e-14 * r_full
    assert math.hypot(c[0] - cx, c[1] - cy) <= 1e-14 * r_full
    assert all(_in_circle((c[0], c[1], r), p) for p in pts)


def test_welzl_bitwise_matches_scalar_reference_random():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5, 17, 64, 65, 300, 2000):
        assert_matches_scalar_welzl(rng.normal(size=(m, 2)) * rng.uniform(1e-7, 1e3))


_LINES = {"x_axis": (1.0, 0.0), "y_axis": (0.0, 1.0), "half_slope": (1.0, 0.5), "diagonal": (1.0, 1.0)}


@pytest.mark.parametrize("kind", ["duplicates", "all_equal", "collinear", "cocircular", "lattice",
                                  *_LINES, "all_equal_12k", "two_points_12k"])
def test_welzl_bitwise_matches_scalar_reference_degenerate(kind):
    rng = np.random.default_rng(12)
    if kind == "duplicates":
        pts = np.repeat(rng.normal(size=(40, 2)), 5, axis=0)
    elif kind == "all_equal":
        pts = np.repeat([[0.3, -1.7]], 50, axis=0)
    elif kind == "collinear":
        t = rng.normal(size=200)
        pts = np.stack([t, 0.3 * t - 2.0], axis=1)
    elif kind in _LINES:
        pts = np.outer(rng.normal(size=12_000), _LINES[kind])
    elif kind == "all_equal_12k":
        pts = np.repeat([[0.3, -1.7]], 12_000, axis=0)
    elif kind == "two_points_12k":
        pts = rng.permutation(np.repeat([[0.3, -1.7], [-2.1, 0.4]], 6_000, axis=0))
    elif kind == "cocircular":
        th = 2 * np.pi * rng.integers(0, 24, size=300) / 24
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        pts = rng.integers(-4, 5, size=(500, 2)) / 64.0
    assert_matches_scalar_welzl(pts)
    if kind == "all_equal":
        assert chebyshev_center(pts)[1] == 0.0


def test_welzl_bitwise_matches_scalar_reference_on_eps_boundary():
    # points within an ulp or two of r * _EPS_IN from the centre, where
    # np.hypot and math.hypot can disagree in the last bit
    rng = np.random.default_rng(13)
    base = rng.normal(size=(60, 2))
    cx, cy, r = min_enclosing_circle(base)
    th = rng.uniform(0, 2 * np.pi, size=400)
    rad = r * _EPS_IN * (1.0 + rng.integers(-4, 5, size=400) * np.finfo(float).eps)
    ring = np.stack([cx + rad * np.cos(th), cy + rad * np.sin(th)], axis=1)
    assert_matches_scalar_welzl(np.concatenate([base, ring]))


def test_welzl_bitwise_matches_scalar_reference_large():
    # more points than any modelling-d2 set (at most 12,688)
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(25_000, 2)) * 1e-3
    assert_matches_scalar_welzl(pts)


@pytest.mark.parametrize("centre,scale", [((0.0, 0.0), 1.0), (None, 1.0), ((3.7, -1.2), 1e-3), ((1e8, -3e7), 1.0)])
def test_prefilter_drops_only_points_strictly_inside_the_octagon(centre, scale):
    # points 1-4 ulp to either side of each edge, where a computed cross
    # product can take the wrong sign; each one dropped must be strictly
    # inside in exact arithmetic, so the circle of the kept points is the
    # circle of all of them.  With centre None the first edge passes through
    # the origin, where an ulp is far below the rounding of the cross product.
    rng = np.random.default_rng(16)
    th = np.arange(8) * np.pi / 4 + rng.uniform(-0.2, 0.2, size=8)
    unit = np.stack([np.cos(th), np.sin(th)], axis=1)
    centre = -0.5 * (unit[0] + unit[1]) if centre is None else np.array(centre)
    verts = unit * scale + centre
    edge = np.roll(verts, -1, axis=0) - verts
    on = verts[:, None] + rng.uniform(0.05, 0.95, size=(8, 200, 1)) * edge[:, None]
    ulps = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=on.shape)
    near = (on + ulps * np.spacing(on)).reshape(-1, 2)
    inner = rng.uniform(-0.5, 0.5, size=(200, 2)) * scale + centre
    pts = rng.permutation(np.concatenate([verts, near, inner]))
    keep = fitting._hull_candidates(pts)
    poly = [tuple(map(Fraction, v)) for v in fitting._octagon(pts)]
    assert len(poly) == 8 and all(any(tuple(map(Fraction, p)) == v for p in pts[keep]) for v in poly)
    dropped = pts[~keep]
    assert len(dropped) > len(inner) // 2
    for px, py in (tuple(map(Fraction, p)) for p in dropped):
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            assert (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0
    c, r = chebyshev_center(pts)
    assert all(_in_circle((c[0], c[1], r), p) for p in pts)


def test_prefilter_drops_the_inside_of_a_square():
    # the 8 directions find each corner of a square twice; the polygon is the
    # square once the repeats go, and every point inside it is dropped
    inner = np.random.default_rng(17).uniform(-0.9, 0.9, size=(100, 2))
    pts = np.concatenate([[[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]], inner])
    assert np.flatnonzero(fitting._hull_candidates(pts)).tolist() == [0, 1, 2, 3]


def test_prefilter_keeps_every_point_of_a_degenerate_octagon():
    # collinear and all-equal sets have fewer than 3 distinct extreme points
    t = np.linspace(-1.0, 1.0, 50)
    for pts in (np.stack([t, 0.3 * t - 2.0], axis=1), np.repeat([[0.3, -1.7]], 50, axis=0)):
        assert fitting._hull_candidates(pts).all()


# ---------------------------------------------------------------------------
# scalar min-max fit
# ---------------------------------------------------------------------------

def test_scalar_exact_affine_recovery():
    xs = np.linspace(-1, 1, 33)
    vals = 0.7 * xs - 0.2
    res = fit_affine_scalar(xs, vals)
    assert res.residual < 1e-12
    assert res.model.slope[0] == pytest.approx(0.7, abs=1e-10)
    assert res.model.offset == pytest.approx(-0.2, abs=1e-10)
    assert not res.degenerate


def test_scalar_parabola_benchmark():
    # best sup-norm affine fit of x^2 on [-1, 1]: offset 1/2, residual 1/2
    xs = np.linspace(-1, 1, 801)
    res = fit_affine_scalar(xs, xs**2)
    assert abs(res.residual - 0.5) <= 1e-3
    assert abs(res.model.offset - 0.5) <= 1e-3
    assert abs(res.model.slope[0]) <= 1e-6


def test_scalar_pinned_offset():
    xs = np.linspace(-1, 1, 41)
    res = fit_affine_scalar(xs, xs**2, pin_offset=0.0)
    # with the offset pinned at 0 the best slope is 0 by symmetry, residual 1
    assert res.residual == pytest.approx(1.0, abs=1e-9)


def test_scalar_matches_exact_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        xs = rng.uniform(-1, 1, size=25)
        vals = rng.normal(size=25)
        res = fit_affine_scalar(xs, vals)
        oracle = exact_affine_scalar_1d(xs, vals)
        assert abs(res.residual - oracle) < 1e-9


def _line_fits(xs, vals, pin):
    """The d = 1 fit of (xs, vals) through both public entry points."""
    scalar = fit_affine_scalar(xs, vals, pin_offset=pin)
    vector = fit_affine_gradient(xs[:, None], vals[:, None],
                                 pin_b=None if pin is None else np.array([pin]))
    return scalar, vector


_H = 1.0 / 256  # the headline's grid spacing


@pytest.mark.parametrize("kind", [
    "duplicates", "collinear", "two_offsets", "with_zero", "without_zero", "headline",
])
def test_exact_line_fits_match_oracles_on_adversarial_sets(kind):
    rng = np.random.default_rng(21)
    for _ in range(10):
        if kind == "duplicates":
            xs = np.repeat(rng.uniform(-1, 1, size=6), 4)
            vals = rng.normal(size=24)
        elif kind == "collinear":
            xs = rng.integers(-8, 9, size=20) * _H
            vals = 0.7 * xs - 0.2
        elif kind == "two_offsets":
            xs = rng.choice([-0.25, 0.5], size=12)
            xs[:2] = [-0.25, 0.5]
            vals = rng.normal(size=12)
        elif kind == "with_zero":
            xs = np.concatenate([[0.0, 0.0], rng.integers(-8, 9, size=14) * _H])
            vals = rng.normal(size=16)
        elif kind == "without_zero":
            xs = rng.integers(1, 9, size=16) * _H * rng.choice([-1.0, 1.0], size=16)
            vals = rng.normal(size=16)
        else:  # smallest-radius remainders at the headline are about 1e-6
            xs = np.repeat(np.arange(-3, 4) * _H, 5)
            vals = 1e-6 * rng.normal(size=35) + 2e-6 * xs / _H
        scale = float(np.max(np.abs(vals)))
        pin = 0.3 * scale
        free_oracle = exact_affine_scalar_1d(xs, vals)
        pinned_oracle = exact_affine_scalar_1d_pinned(xs, vals, pin)
        for fit in _line_fits(xs, vals, None):
            assert not fit.degenerate
            assert abs(fit.residual - free_oracle) <= 1e-13 * scale
        for fit in _line_fits(xs, vals, pin):
            assert not fit.degenerate
            assert abs(fit.residual - pinned_oracle) <= 1e-13 * scale
        if kind == "collinear":
            assert all(fit.residual <= 1e-15 for fit in _line_fits(xs, vals, None))
            assert all(fit.residual <= 1e-15 for fit in _line_fits(xs, vals + 0.2, 0.0))


def test_exact_line_fits_flag_a_single_offset_degenerate():
    xs = np.full(6, 0.125)
    vals = np.linspace(-1.0, 1.0, 6)
    for fit in _line_fits(xs, vals, None):  # slope and offset not identifiable
        assert fit.degenerate
        assert fit.residual == float(np.max(np.abs(vals - fit.model(xs[:, None]))))
    zero = np.zeros(6)
    for fit in _line_fits(zero, vals, 0.5):  # no nonzero offset pins the slope
        assert fit.degenerate
        assert fit.residual == 1.5
    # one nonzero offset is enough for a pinned fit
    assert not any(fit.degenerate for fit in _line_fits(xs, vals, 0.5))


def _sup_of_model(fit, x, v):
    x = np.asarray(x, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    return float(np.max(np.abs(np.asarray(v, dtype=float) - fit.model(x))))


@pytest.mark.parametrize("d", [1, 2])
def test_residual_is_the_sup_the_model_achieves(d):
    # remainders at the headline's smallest radius are about 1e-6; an LP's
    # slack variable can fall short of the sup its model achieves there
    rng = np.random.default_rng(31 + d)
    for _ in range(20):
        x = rng.integers(-4, 5, size=(60, d)) * _H
        v = 1e-6 * rng.normal(size=(60, d)) + x @ (3e-4 * np.eye(d))
        fits = [(fit_affine_gradient(x, v), v),
                (fit_affine_gradient(x, v, pin_b=v[0] + 1e-7), v),
                (fit_affine_scalar(x, v[:, 0]), v[:, 0]),
                (fit_affine_scalar(x, v[:, 0], pin_offset=1e-7), v[:, 0])]
        for fit, target in fits:
            assert fit.residual >= _sup_of_model(fit, x, target)


def test_d1_runs_never_import_scipy_optimize(tmp_path):
    script = f"""
import sys
import quasiheat
from quasiheat.harness import ExperimentConfig, run_experiment
assert "scipy.optimize" not in sys.modules, "loaded by import quasiheat"
cfg = ExperimentConfig.from_dict(dict(
    experiment="lemmas", grid={{"dim": 1, "n": 32}},
    params={{"n_random": 2, "sim_basepoints": 1}},
    seeds=[1], output_dir={str(tmp_path)!r}))
run_experiment(cfg)
assert "scipy.optimize" not in sys.modules, "loaded by a d = 1 lemmas run"
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_no_run_imports_scipy():
    script = """
import sys
import numpy as np
import quasiheat
from quasiheat.fitting import fit_affine_gradient, fit_affine_scalar
rng = np.random.default_rng(3)
x = rng.uniform(-1, 1, size=(20, 2))
v = rng.normal(size=(20, 2))
fits = [fit_affine_gradient(x, v), fit_affine_gradient(x, v, pin_b=v[0]),
        fit_affine_scalar(x, v[:, 0]), fit_affine_scalar(x, v[:, 0], pin_offset=0.5)]
assert not any(fit.degenerate for fit in fits)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert proc.returncode == 0, proc.stderr


def _lattice_set(kind, rng):
    """A small d = 2 sample set on the headline lattice that invites ties
    and degenerate references."""
    m = int(rng.integers(4, 7))
    x = rng.integers(-3, 4, size=(m, 2)) * _H
    if kind == "half_integer_ties":
        v = rng.integers(-2, 3, size=(m, 2)) * 0.5
    elif kind == "collinear_offsets":
        t = rng.integers(-4, 5, size=m)
        x = np.stack([t, 2 * t], axis=1) * _H
        x[0] = [_H, 0.0]  # one offset off the line keeps the fits identifiable
        v = rng.normal(size=(m, 2))
    elif kind == "near_exact":
        v = x @ np.array([[3e-4, 1e-4], [1e-4, -2e-4]]) + 1e-5 + 1e-6 * rng.normal(size=(m, 2))
    else:  # quantized values
        v = np.round(4 * rng.normal(size=(m, 2))) / 4
    return x, v


def _fits_with_designs(x, v):
    """(fit, design, targets): free and pinned, gradient and scalar fits of
    (x, v) with the unpruned design the vertex oracle minimizes over."""
    pin = v[0] + 0.1 * float(np.max(np.abs(v)))
    design, targets = gradient_fit_design(x, v)
    affine = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    return [
        (fit_affine_gradient(x, v), design, targets),
        (fit_affine_gradient(x, v, pin_b=pin), design[:, :3], (v - pin).reshape(-1)),
        (fit_affine_scalar(x, v[:, 0]), affine, v[:, 0]),
        (fit_affine_scalar(x, v[:, 0], pin_offset=pin[0]), x, v[:, 0] - pin[0]),
    ]


_LATTICE_KINDS = ["half_integer_ties", "collinear_offsets", "near_exact", "quantized"]


@pytest.mark.parametrize("kind", _LATTICE_KINDS)
def test_exchange_fits_match_vertex_oracle_on_adversarial_lattices(kind):
    rng = np.random.default_rng(41)
    for _ in range(6):
        for fit, design, targets in _fits_with_designs(*_lattice_set(kind, rng)):
            assert not fit.degenerate
            scale = float(np.max(np.abs(targets)))
            assert abs(fit.residual - exact_minmax_vertex(design, targets)) <= 1e-13 * scale


@pytest.mark.parametrize("kind", _LATTICE_KINDS)
def test_exchange_solver_certifies_its_optimum(kind, monkeypatch):
    # the level of the final reference is a lower bound on the optimum of
    # the scaled problem, and the sup its solution achieves meets it
    solve, calls = fitting.linprog, []

    def recording(design, targets):
        result = solve(design, targets)
        calls.append((design, targets, result))
        return result

    monkeypatch.setattr(fitting, "linprog", recording)
    rng = np.random.default_rng(41)  # the sets of the vertex-oracle test
    for _ in range(6):
        _fits_with_designs(*_lattice_set(kind, rng))
    assert len(calls) == 24
    for design, targets, result in calls:
        assert result.success
        achieved = float(np.max(np.abs(targets - design @ result.x)))
        assert result.level <= achieved <= result.level + 1e-12 * np.max(np.abs(targets))


def test_unsuccessful_exchange_falls_back_to_least_squares(monkeypatch):
    monkeypatch.setattr(fitting, "linprog", lambda design, targets: fitting.MinimaxResult(
        x=np.zeros(design.shape[1]), level=0.0, success=False))
    rng = np.random.default_rng(44)
    x = rng.uniform(-1, 1, size=(30, 2))
    v = rng.normal(size=(30, 2))
    fit = fit_affine_scalar(x, v[:, 0])
    assert fit.degenerate
    lsq, *_ = np.linalg.lstsq(np.concatenate([x, np.ones((30, 1))], axis=1), v[:, 0], rcond=None)
    assert np.allclose(np.append(fit.model.slope, fit.model.offset), lsq, rtol=0, atol=1e-12)
    assert fit.residual == _sup_of_model(fit, x, v[:, 0])
    assert fit_affine_gradient(x, v).degenerate


def test_scalar_pinned_matches_exact_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        xs = rng.uniform(-1, 1, size=20)
        vals = rng.normal(size=20)
        res = fit_affine_scalar(xs, vals, pin_offset=0.3)
        oracle = exact_affine_scalar_1d_pinned(xs, vals, 0.3)
        assert abs(res.residual - oracle) < 1e-9


# ---------------------------------------------------------------------------
# gradient (vector) min-max fit
# ---------------------------------------------------------------------------

def test_gradient_exact_affine_recovery_2d():
    H = np.array([[1.1, -0.2], [-0.2, 0.7]])
    b = np.array([0.3, -0.5])
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(60, 2))
    V = X @ H.T + b
    res = fit_affine_gradient(X, V)
    assert res.residual < 1e-10
    assert np.max(np.abs(res.model.B - H)) < 1e-8
    assert np.max(np.abs(res.model.b - b)) < 1e-8


def test_gradient_symmetry_bitwise():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(40, 2))
    V = rng.normal(size=(40, 2))
    res = fit_affine_gradient(X, V)
    assert np.array_equal(res.model.B, res.model.B.T)


def test_gradient_pinned_b():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(50, 1))
    V = 0.8 * X + 0.1 + 0.02 * rng.normal(size=(50, 1))
    res = fit_affine_gradient(X, V, pin_b=np.array([0.1]))
    assert np.array_equal(res.model.b, np.array([0.1]))
    free = fit_affine_gradient(X, V)
    assert free.residual <= res.residual + 1e-12


def test_gradient_matches_bruteforce_d2():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(30, 2))
    H = np.array([[0.9, 0.3], [0.3, -0.4]])
    V = X @ H.T + 0.05 * rng.normal(size=(30, 2))
    res = fit_affine_gradient(X, V)
    oracle = brute_affine_gradient(X, V)
    assert abs(res.residual - oracle) < 1e-4


def test_gradient_degenerate_geometry_falls_back():
    X = np.zeros((10, 1))  # all samples at one offset: slope unidentifiable
    V = np.linspace(0, 1, 10)[:, None]
    res = fit_affine_gradient(X, V)
    assert res.degenerate
    assert np.isfinite(res.residual)


def test_gradient_requires_enough_samples():
    with pytest.raises(FitError):
        fit_affine_gradient(np.zeros((1, 2)), np.zeros((1, 2)))


def test_scalar_fit_rejects_multicomponent_values():
    rng = np.random.default_rng(13)
    with pytest.raises(FitError):
        fit_affine_scalar(rng.uniform(-1, 1, size=(20, 2)), rng.normal(size=(20, 2)))


@pytest.mark.parametrize("pin_b", [0.3, np.array([0.1, 0.2, 0.3])], ids=["one-entry", "three-entry"])
def test_gradient_fit_rejects_a_pin_of_the_wrong_size(pin_b):
    rng = np.random.default_rng(14)
    with pytest.raises(FitError):
        fit_affine_gradient(rng.uniform(-1, 1, size=(20, 2)), rng.normal(size=(20, 2)), pin_b=pin_b)


def test_residual_is_sup_of_max_abs_component():
    rng = np.random.default_rng(12)
    X = rng.uniform(-1, 1, size=(25, 2))
    V = rng.normal(size=(25, 2))
    res = fit_affine_gradient(X, V)
    pred = X @ res.model.B.T + res.model.b
    achieved = float(np.max(np.abs(V - pred)))
    assert achieved <= res.residual + 1e-8

# ---------------------------------------------------------------------------
# parity with the frozen per-fit pipelines of tests/fitting_reference.py
# ---------------------------------------------------------------------------

def _parity_sets(d):
    """(name, xrel, values): the inputs the one fit core must fit exactly as
    the two separate pipelines did."""
    rng = np.random.default_rng(60 + d)
    yield "random", rng.uniform(-1, 1, size=(30, d)), rng.normal(size=(30, d))
    x = rng.integers(-3, 4, size=(40, d)) * _H  # repeated offsets
    yield "lattice", x, 1e-6 * rng.normal(size=(40, d)) + x @ (3e-4 * np.eye(d))
    yield "one-offset", np.repeat(rng.integers(1, 4, size=(1, d)) * _H, 6, axis=0), rng.normal(size=(6, d))
    yield "zero-offsets", np.zeros((6, d)), rng.normal(size=(6, d))
    if d == 2:
        t = rng.integers(-4, 5, size=12)
        yield "collinear", np.stack([t, 2 * t], axis=1) * _H, rng.normal(size=(12, 2))


def _fit_bytes(fit):
    m = fit.model
    parts = (m.B, m.b) if isinstance(m, fitting.AffineModel) else (m.slope, m.offset)
    return [np.asarray(p, dtype=float).tobytes() for p in parts + (fit.residual,)], fit.degenerate


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("d", [1, 2])
def test_fits_match_frozen_reference_bitwise(d, pinned):
    for name, x, v in _parity_sets(d):
        pin = v[0] + 0.1 if pinned else None
        scalar_pin = None if pin is None else float(pin[0])
        for new, old, values, p in [
            (fit_affine_gradient, fitting_reference.fit_affine_gradient, v, pin),
            (fit_affine_scalar, fitting_reference.fit_affine_scalar, v[:, 0], scalar_pin),
        ]:
            assert _fit_bytes(new(x, values, p)) == _fit_bytes(old(x, values, p)), (name, new.__name__)
