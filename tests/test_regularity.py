import math

import numpy as np
import pytest

import quasiheat.corpus
import quasiheat.grid
import quasiheat.regularity
from quasiheat.corpus import build_corpus
from quasiheat.fitting import fit_affine_gradient, fit_affine_scalar
from quasiheat.grid import (
    GridSpec,
    Mollifier,
    ParabolicCylinder,
    SpaceTimeField,
    cylinder_samples,
    cylinder_window,
    increment,
    lattice_shifts,
    mollify,
    mollify_deriv,
)
from quasiheat.nonlinearity import freeze, linear_family, sine_family
from quasiheat.regularity import (
    RegularityError,
    RegularityParams,
    _pair_table,
    _pairs,
    flux_mismatch,
    holder_seminorm,
    increment_affine_pair,
    increment_constant,
    modelling_remainder,
    time_term_constant,
)

from oracles import all_pairs_seminorm, brute_increment_constant, direct_convolution
from welzl_reference import min_enclosing_circle


def static_field(n, fn, times=None, comps=None):
    grid = GridSpec.create(1, n)
    xs = np.arange(n) / n
    times = np.array([0.0]) if times is None else times
    base = fn(xs)
    vals = np.stack([base for _ in times])
    if comps:
        vals = vals[..., None]
    return grid, SpaceTimeField(grid, times, vals)


def corpus_entry(grid, name):
    for e in build_corpus(grid, n_random=3):
        if e.name == name:
            return e
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Hoelder seminorm
# ---------------------------------------------------------------------------

def test_seminorm_constant_field():
    _, f = static_field(32, lambda x: np.full_like(x, 1.7))
    assert holder_seminorm(f, 0.75) == 0.0


def test_seminorm_homogeneity():
    _, f = static_field(32, lambda x: np.sin(2 * np.pi * x))
    grid = f.grid
    a = holder_seminorm(f, 0.75)
    g = SpaceTimeField(grid, f.times, 2.0 * f.values)
    assert holder_seminorm(g, 0.75) == 2.0 * a  # power-of-two scaling is exact
    h = SpaceTimeField(grid, f.times, -3.0 * f.values)
    assert holder_seminorm(h, 0.75) == pytest.approx(3.0 * a, rel=1e-14)


def oracle_seminorm(f, alpha, region=None):
    """all_pairs_seminorm over every sample of f, or over the in-ball samples
    of a cylinder's slab."""
    if region is None:
        n, dim = f.grid.n, f.grid.dim
        axes = np.meshgrid(*[np.arange(n) / n] * dim, indexing="ij")
        coords = np.stack([a.ravel() for a in axes], axis=1)
        vals = f.values.reshape((len(f.times), n**dim) + f.component_shape)
        return all_pairs_seminorm(f.times, coords, vals, alpha)
    win = cylinder_window(f, region)
    vals = f.values[win.slab][(slice(None),) + win.nodes]
    return all_pairs_seminorm(f.times[win.slab], win.xrel, vals, alpha)


def y_only_field(n, n_time, fn):
    """A d = 2 field on n_time snapshots that varies along the second axis
    only: fn maps (times, y) to values."""
    grid = GridSpec.create(2, n)
    times = grid.snapshot_times()[:n_time]
    vals = fn(times[:, None], np.arange(n)[None, :] / n)
    return SpaceTimeField(grid, times, np.broadcast_to(vals[:, None, :], (n_time, n, n)))


@pytest.mark.parametrize("case", ["d1-field", "d2-field", "d2-box"])
def test_seminorm_exhaustive_matches_all_pairs_oracle(case):
    region = None
    if case == "d1-field":
        _, f = static_field(32, lambda x: np.sin(2 * np.pi * x))
    elif case == "d2-field":  # the sup, 4.0, is on the same-time shift (0, 2dx)
        f = y_only_field(8, 1, lambda t, y: np.sin(2 * np.pi * y))
    else:  # at r = 2dx the slab is the last snapshot alone
        f = y_only_field(32, 12, lambda t, y: np.random.default_rng(3).normal(size=(len(t), 32)))
        region = ParabolicCylinder(t=float(f.times[-1]), x=(0.5, 0.5), r=2 * f.grid.dx)
    est = holder_seminorm(f, 0.75, region=region)
    assert est == pytest.approx(oracle_seminorm(f, 0.75, region), rel=1e-13)


@pytest.mark.parametrize("case", ["d1-field", "d2-field", "d2-box"])
def test_seminorm_spacetime_matches_all_pairs_oracle(case):
    rng = np.random.default_rng(7)
    region = None
    if case == "d1-field":
        grid = GridSpec.create(1, 16)
        f = SpaceTimeField(grid, grid.snapshot_times()[:5], rng.normal(size=(5, 16)))
    elif case == "d2-field":
        f = y_only_field(8, 5, lambda t, y: rng.normal(size=(len(t), 8)))
    else:  # at r = 6dx the slab holds 3 snapshots
        f = y_only_field(32, 12, lambda t, y: rng.normal(size=(len(t), 32)))
        region = ParabolicCylinder(t=float(f.times[-1]), x=(0.5, 0.5), r=6 * f.grid.dx)
    est = holder_seminorm(f, 0.75, region=region)
    assert est == pytest.approx(oracle_seminorm(f, 0.75, region), rel=1e-13)


def test_exhaustive_torus_table_holds_each_ordered_pair_once():
    # Z_8^2 has 64^2 ordered node pairs in 25 classes, the |shift| vectors
    # (min(s, 8 - s) per axis) in {0, ..., 4}^2; a class with k components
    # strictly between 0 and 4 holds 64 * 2^k pairs
    grid = GridSpec.create(2, 8)
    coords = np.indices((8, 8)).reshape(2, -1).T
    anchor, partner, starts, classes = _pair_table(coords, 8)
    assert np.array_equal(np.sort(anchor * 64 + partner), np.arange(64 * 64))
    assert classes[0].tolist() == [0, 0]
    assert sorted(classes.tolist()) == [[i, j] for i in range(5) for j in range(5)]
    sizes = np.diff(np.r_[starts, 64 * 64])
    assert sizes.tolist() == [64 * 2 ** sum(0 < c < 4 for c in cl) for cl in classes.tolist()]
    shift = np.abs(coords[partner] - coords[anchor])
    assert np.array_equal(np.minimum(shift, 8 - shift), np.repeat(classes, sizes, axis=0))
    vals = np.random.default_rng(5).normal(size=(1, 8, 8))
    f = SpaceTimeField(grid, grid.snapshot_times()[:1], vals)
    assert holder_seminorm(f, 0.75) == pytest.approx(oracle_seminorm(f, 0.75), rel=1e-13)
    # the sup is on a pair that straddles the seam, one node apart
    vals = np.zeros((1, 8, 8))
    vals[0, 0, 0], vals[0, 7, 0] = 1.0, -1.0
    f = SpaceTimeField(grid, grid.snapshot_times()[:1], vals)
    assert holder_seminorm(f, 0.75) == 2.0 / grid.dx**0.75


def same_table(a, b) -> bool:
    """Bitwise equality of two pair tables: three index arrays, then distances."""
    arrays = all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                 for x, y in zip(a[:3], b[:3]))
    return arrays and np.array(a[3]).tobytes() == np.array(b[3]).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_cached_pair_tables_are_fresh_builds_bit_for_bit(dim):
    # box radii off the lattice steps; 6/64 and 0.1 are 6 and 6.4 steps at n = 64
    for n in (8, 16, 32, 64, 128):
        grid = GridSpec.create(dim, n)
        radii = [k * grid.dx for k in (0.7, 1.5, 2.5, 4.4)] + [6 / 64, 0.1]
        for r in radii + radii[::-1] + [None] * (n**dim <= 256):  # None: the torus
            assert same_table(_pairs(grid, r), _pairs.__wrapped__(grid, r))
    grid = GridSpec.create(dim, 64)
    near, far = _pairs(grid, 6 / 64), _pairs(grid, 0.1)
    assert len(far[0]) > len(near[0]) and same_table(far, _pairs.__wrapped__(grid, 0.1))
    for a in far[:3] + _pairs(GridSpec.create(dim, 8), None)[:3]:
        with pytest.raises(ValueError):
            a[...] = 0


def test_seminorm_budget_is_lower_bound():
    n = 64
    grid = GridSpec.create(1, n)
    times = grid.snapshot_times()[:9]
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(9, n))
    f = SpaceTimeField(grid, times, vals)
    full = holder_seminorm(f, 0.75, pair_budget=10**8)
    capped = holder_seminorm(f, 0.75, pair_budget=2000)
    assert capped <= full + 1e-12


def test_budgets_below_one_are_rejected():
    # a pair budget of 0 used to end in an OverflowError at the time stride
    _, f = static_field(64, lambda x: np.sin(2 * np.pi * x))
    with pytest.raises(RegularityError, match="pair_budget"):
        holder_seminorm(f, 0.75, pair_budget=0)
    for key in ("pair_budget", "y_budget"):
        with pytest.raises(RegularityError, match=key):
            RegularityParams(alpha=0.75, radii=[0.125], **{key: 0})


def test_seminorm_monotone_under_region_inclusion():
    n = 32
    grid = GridSpec.create(1, n)
    times = grid.snapshot_times()
    rng = np.random.default_rng(3)
    f = SpaceTimeField(grid, times, rng.normal(size=(len(times), n)))
    t0 = float(times[-1])
    prev = 0.0
    for rf in (4, 6, 8):
        cyl = ParabolicCylinder(t=t0, x=0.5, r=rf * grid.dx)
        val = holder_seminorm(f, 0.75, region=cyl)
        assert val >= prev - 1e-15
        prev = val


def test_seminorm_vector_field_uses_max_component():
    n = 32
    grid = GridSpec.create(1, n)
    xs = np.arange(n) / n
    v = np.stack([np.sin(2 * np.pi * xs), np.zeros(n)], axis=-1)[None]
    f = SpaceTimeField(grid, np.array([0.0]), v)
    _, fs = static_field(n, lambda x: np.sin(2 * np.pi * x))
    assert holder_seminorm(f, 0.75) == pytest.approx(holder_seminorm(fs, 0.75), rel=1e-14)


# ---------------------------------------------------------------------------
# increment constant
# ---------------------------------------------------------------------------

def params_for(grid, alpha=0.75, r_max=0.25, y_budget=64):
    return RegularityParams.for_grid(grid, alpha, r_max=r_max, y_budget=y_budget)


def test_increment_constant_affine_is_zero():
    grid = GridSpec.create(1, 64)
    entry = corpus_entry(grid, "affine")
    reg = params_for(grid)
    assert increment_constant(entry.gradient, entry.basepoint, reg) <= 1e-12


def test_increment_constant_quadratic_is_zero():
    grid = GridSpec.create(1, 64)
    entry = corpus_entry(grid, "quadratic")
    reg = params_for(grid)
    assert increment_constant(entry.gradient, entry.basepoint, reg) <= 1e-12


def test_increment_constant_matches_exhaustive_oracle():
    n = 32
    grid = GridSpec.create(1, n)
    entry = corpus_entry(grid, "smoothed-cusp")
    reg = params_for(grid, y_budget=10**6)
    est = increment_constant(entry.gradient, entry.basepoint, reg, spacetime=False)
    grad_row = entry.gradient.values[-1, :, 0]
    oracle = brute_increment_constant(
        grad_row, np.arange(n) / n, n // 2, [float(r) for r in reg.radii], 0.75,
        grid.dx, n,
    )
    assert est == pytest.approx(oracle, rel=0.05)
    assert est == pytest.approx(oracle, rel=1e-12)  # budgets cover everything here


def whole_field_increment_constant(grad_f, z, params, spacetime):
    """increment_constant through whole-field increments and scalar Welzl."""
    t0, x0 = z
    best = 0.0
    for l in params.radii:
        for y in lattice_shifts(grad_f.grid, l, budget=params.y_budget):
            cs = cylinder_samples(increment(grad_f, y), ParabolicCylinder(t=t0, x=x0, r=float(l)))
            vals = cs.values if spacetime else cs.values[-1:]
            pts = vals.reshape(-1, vals.shape[-1])
            if grad_f.grid.dim == 1:
                rad = 0.5 * (pts.max() - pts.min())
            else:
                rad = min_enclosing_circle(pts)[2]
            best = max(best, float(rad) / float(l) ** (2 * params.alpha))
    return best


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("spacetime", [False, True])
def test_increment_constant_bitwise_matches_whole_field_reference(dim, spacetime):
    n = 16
    grid = GridSpec.create(dim, n)
    times = grid.snapshot_times()[:12]
    rng = np.random.default_rng(21)
    f = SpaceTimeField(grid, times, rng.normal(size=(12,) + grid.shape + (dim,)))
    reg = RegularityParams.for_grid(grid, 0.75, r_min_factor=2, y_budget=12)
    x0 = 15 / 16 if dim == 1 else (15 / 16, 0.0)  # windows wrap at the seam
    for t0 in (float(times[1]), float(times[-1])):  # with and without zero extension
        z = (t0, x0)
        est = increment_constant(f, z, reg, spacetime=spacetime)
        ref = whole_field_increment_constant(f, z, reg, spacetime)
        assert est > 0.0
        assert np.float64(est).tobytes() == np.float64(ref).tobytes()


def test_d2_increment_constant_takes_every_sample_of_a_large_cylinder():
    # a cylinder of 20 dx on a d = 2, n = 64 grid holds 31,125 increment
    # samples a shift; one spike of the field at the basepoint node, a row
    # before the basepoint time, makes an outlier at an odd index, which a
    # stride-2 decimation to 20,000 points would skip
    grid = GridSpec.create(2, 64)
    times = grid.snapshot_times()[:40]
    rng = np.random.default_rng(22)
    values = 1e-3 * rng.normal(size=(len(times),) + grid.shape + (2,))
    values[-2, 32, 32] = (1.0, -0.5)
    f = SpaceTimeField(grid, times, values)
    z = (float(times[-1]), (0.5, 0.5))
    reg = RegularityParams(alpha=0.75, radii=np.array([20 * grid.dx]), y_budget=2)
    cyl = ParabolicCylinder(t=z[0], x=z[1], r=float(reg.radii[0]))
    for y in lattice_shifts(grid, reg.radii[0], budget=reg.y_budget):
        pts = cylinder_samples(increment(f, y), cyl).values.reshape(-1, 2)
        outlier = int(np.argmin(pts[:, 0]))
        assert len(pts) > 20_000 and outlier % int(np.ceil(len(pts) / 20_000)) != 0
    est = increment_constant(f, z, reg, spacetime=True)
    ref = whole_field_increment_constant(f, z, reg, spacetime=True)
    assert est == pytest.approx(ref, rel=1e-14)
    # the spike's increment, -(1, -0.5), sets the radius
    assert est * float(reg.radii[0]) ** 1.5 == pytest.approx(0.5 * math.hypot(1.0, 0.5), rel=1e-2)


def record_windows(monkeypatch) -> list:
    """Count the windows built through either binding of cylinder_window (grid's
    own, which cylinder_samples calls, and regularity's); return their radii."""
    radii, build = [], quasiheat.grid.cylinder_window

    def recorded(f, cyl):
        radii.append(cyl.r)
        return build(f, cyl)

    for module in (quasiheat.grid, quasiheat.regularity):
        monkeypatch.setattr(module, "cylinder_window", recorded)
    return radii


@pytest.mark.parametrize("dim", [1, 2])
def test_increment_constant_builds_one_window_per_radius(dim, monkeypatch):
    grid = GridSpec.create(dim, 16)
    times = grid.snapshot_times()[:12]
    f = SpaceTimeField(grid, times, np.random.default_rng(4).normal(size=(12,) + grid.shape + (dim,)))
    reg = RegularityParams.for_grid(grid, 0.75, r_min_factor=2, y_budget=12)
    radii = record_windows(monkeypatch)
    assert increment_constant(f, (float(times[-1]), 0.5 if dim == 1 else (0.5, 0.0)), reg, True) > 0
    assert radii == [float(r) for r in reg.radii]


# ---------------------------------------------------------------------------
# time terms
# ---------------------------------------------------------------------------

def test_time_terms_zero_for_static_field():
    grid = GridSpec.create(1, 64)
    entry = corpus_entry(grid, "trig")
    reg = params_for(grid)
    assert time_term_constant(entry.scalar, entry.basepoint, reg) <= 1e-12


def test_time_terms_constant_in_space_field_vanish():
    # spatial increments of a spatially constant field vanish identically,
    # and the derivative channels annihilate constants on top of that
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()[:20]
    vals = np.outer(times, np.ones(64))  # f(t, x) = t
    f = SpaceTimeField(grid, times, vals)
    reg = params_for(grid)
    z = (float(times[-1]), 0.5)
    assert time_term_constant(f, z, reg) <= 1e-12


def test_time_terms_need_three_snapshots_around_a_cylinder():
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()[:2]
    f = SpaceTimeField(grid, times, np.random.default_rng(3).normal(size=(2, 64)))
    with pytest.raises(RegularityError, match="need at least 3 snapshots for a centered time derivative"):
        time_term_constant(f, (float(times[-1]), 0.5), params_for(grid))


def test_time_terms_need_uniform_snapshot_times():
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()[:20].copy()
    times[-3] += 0.25 * grid.snap_dt  # inside the smallest cylinder's rows
    f = SpaceTimeField(grid, times, np.random.default_rng(4).normal(size=(20, 64)))
    with pytest.raises(RegularityError, match="snapshots must be uniformly spaced"):
        time_term_constant(f, (float(times[-1]), 0.5), params_for(grid))


def test_time_terms_match_semi_analytic_oracle():
    # f(t,x) = t sin(2 pi x): d/dt (delta_y f)_{r,i} is time independent and
    # equals the mollified increment of sin; compute it by direct convolution
    n = 64
    grid = GridSpec.create(1, n)
    entry = corpus_entry(grid, "time-ramp-sine")
    reg = params_for(grid, y_budget=10**6)
    est = time_term_constant(entry.scalar, entry.basepoint, reg)

    alpha = 0.75
    xs = np.arange(n) / n
    t0, x0 = entry.basepoint
    best_total = 0.0
    for i in (0, 1):
        best = 0.0
        for r in [float(r) for r in reg.radii]:
            if round(r * r / grid.snap_dt) < 3:
                continue
            mol = Mollifier.build(grid, r)
            kernel = mol.mass_kernel if i == 0 else r * mol.deriv_kernels[0]
            m = int(np.floor(r / grid.dx + 1e-9))
            node0 = int(round(x0 * n))
            ball = [(node0 + o) % n for o in range(-m, m + 1) if abs(o * grid.dx) < r - 1e-12]
            for s in range(-m, m + 1):
                if s == 0:
                    continue
                gy = np.sin(2 * np.pi * (xs + s / n)) - np.sin(2 * np.pi * xs)
                conv = direct_convolution(gy, kernel)
                sup = np.max(np.abs(conv[ball]))
                best = max(best, r ** (1 - 2 * alpha) * sup)
        best_total += best
    assert est == pytest.approx(best_total, rel=0.05)


def per_shift_time_terms(f, z, params):
    """time_term_constant read through a window per shift and channel: each
    time derivative is sampled on its own P_r(z), taken one snapshot earlier
    when t' is the last snapshot."""
    t0, x0 = z
    grid = f.grid
    best = [0.0] * (grid.dim + 1)
    for r in params.radii:
        if int(round(r * r / grid.snap_dt)) < 3:
            continue
        slab = cylinder_window(f, ParabolicCylinder(t=t0, x=x0, r=float(r))).slab
        rows = slice(max(slab.start - 1, 0), slab.stop + 1)
        around = SpaceTimeField(grid, f.times[rows], f.values[rows])
        for y in lattice_shifts(grid, r, budget=params.y_budget):
            dyf = increment(around, y)
            for i in range(grid.dim + 1):
                g = mollify(dyf, r).values if i == 0 else r * mollify_deriv(dyf, r, i - 1).values
                dt = around.times[1] - around.times[0]
                times = around.times[1:-1]
                dt_field = SpaceTimeField(grid, times, (g[2:] - g[:-2]) / (2.0 * dt))
                cyl = ParabolicCylinder(t=min(t0, float(times[-1])), x=x0, r=float(r))
                sup = float(np.max(np.abs(cylinder_samples(dt_field, cyl).values)))
                best[i] = max(best[i], float(r) ** (1 - 2 * params.alpha) * sup)
    return sum(best)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_time_terms_one_window_per_radius_bitwise(dim, n, monkeypatch):
    grid = GridSpec.create(dim, n)
    times = grid.snapshot_times()
    f = SpaceTimeField(grid, times, np.random.default_rng(8).normal(size=(len(times),) + grid.shape))
    reg = RegularityParams.for_grid(grid, 0.75, r_min_factor=2, y_budget=6)
    used = [float(r) for r in reg.radii if round(r * r / grid.snap_dt) >= 3]
    x0 = (n - 1) / n if dim == 1 else ((n - 1) / n, 0.0)  # windows wrap at the seam
    # a slab from the first snapshot (with zero extension), one inside, one at the last
    for t0 in (float(times[3]), float(times[len(times) // 2]), float(times[-1])):
        ref = per_shift_time_terms(f, (t0, x0), reg)
        radii = record_windows(monkeypatch)
        est = time_term_constant(f, (t0, x0), reg)
        monkeypatch.undo()
        assert radii == used
        assert est > 0.0 and np.float64(est).tobytes() == np.float64(ref).tobytes()


# ---------------------------------------------------------------------------
# increment-affine transfer and flux mismatch
# ---------------------------------------------------------------------------

def test_increment_affine_pair_affine_field():
    grid = GridSpec.create(1, 64)
    entry = corpus_entry(grid, "affine")
    [(lhs, rhs)] = increment_affine_pair(
        entry.scalar, entry.gradient, entry.basepoint, [3 * grid.dx], 0.0625
    )
    assert lhs <= 1e-12 and rhs <= 1e-12


def test_increment_affine_pair_quadratic_field():
    grid = GridSpec.create(1, 64)
    entry = corpus_entry(grid, "quadratic")
    [(lhs, rhs)] = increment_affine_pair(
        entry.scalar, entry.gradient, entry.basepoint, [3 * grid.dx], 0.0625
    )
    # increments of a quadratic are affine; the gradient is exactly affine
    assert lhs <= 1e-10 and rhs <= 1e-10


def test_increment_affine_pair_smooth_ratio_bounded():
    grid = GridSpec.create(1, 64)
    reg = params_for(grid)
    ratios = []
    for e in build_corpus(grid, n_random=8):
        if not e.name.startswith("random-smooth"):
            continue
        for l in (0.0625, 0.125):
            [(lhs, rhs)] = increment_affine_pair(e.scalar, e.gradient, e.basepoint, [2 * grid.dx], l)
            if rhs > 1e-12:
                ratios.append(lhs / rhs)
    assert ratios and max(ratios) <= 10.0


@pytest.mark.parametrize("dim", [1, 2])
def test_increment_affine_pair_bitwise_per_shift_with_one_gradient_fit(dim, monkeypatch):
    n = 16
    grid = GridSpec.create(dim, n)
    times = grid.snapshot_times()[:12]
    rng = np.random.default_rng(5)
    f = SpaceTimeField(grid, times, rng.normal(size=(12,) + grid.shape))
    grad_f = SpaceTimeField(grid, times, rng.normal(size=(12,) + grid.shape + (dim,)))
    z, l = (float(times[-1]), 0.0 if dim == 1 else (0.0, 0.5)), 0.125
    shifts = list(lattice_shifts(grid, l, budget=6)) + [np.full(dim, (n - 1) * grid.dx)]
    want = []
    for y in shifts:  # a window and a gradient fit per shift
        x, v = cylinder_samples(increment(f, y), ParabolicCylinder(t=z[0], x=z[1], r=l)).flat()
        x2, v2 = cylinder_samples(grad_f, ParabolicCylinder(t=z[0], x=z[1], r=2 * l)).flat()
        want.append((fit_affine_scalar(x, v).residual,
                     float(np.linalg.norm(y)) * fit_affine_gradient(x2, v2).residual))
    fits = []

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_affine_gradient(*args, **kwargs)

    monkeypatch.setattr(quasiheat.regularity, "fit_affine_gradient", counted)
    got = increment_affine_pair(f, grad_f, z, shifts, l)
    assert len(fits) == 1
    assert len(got) == len(shifts) > 2
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_flux_mismatch_zero_for_linear_flux():
    grid = GridSpec.create(1, 32)
    entry = corpus_entry(grid, "trig")
    A = linear_family([[0.8]])
    a_z = freeze(A, entry.gradient.value_at(*entry.basepoint)).matrix
    g = flux_mismatch(A, entry.gradient, [3 / 32], a_z)
    assert np.max(np.abs(g.values)) <= 1e-14


def test_flux_mismatch_zero_for_zero_shift():
    grid = GridSpec.create(1, 32)
    entry = corpus_entry(grid, "trig")
    A = sine_family(1, 0.5)
    a_z = freeze(A, entry.gradient.value_at(*entry.basepoint)).matrix
    g = flux_mismatch(A, entry.gradient, [0.0], a_z)
    assert np.max(np.abs(g.values)) <= 1e-14


# ---------------------------------------------------------------------------
# modelling remainder / baseline
# ---------------------------------------------------------------------------

def sim_pair(n=128, kappa=0.5, seed=2):
    from quasiheat.noise import NoisePath, NoiseSpec
    from quasiheat.solver import solve_anisotropic_batch, solve_nonlinear
    from quasiheat.nonlinearity import freeze

    grid = GridSpec.create(1, n)
    spec = NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=seed)
    path = NoisePath(spec, grid)
    A = sine_family(1, kappa)
    u = solve_nonlinear(path, A)
    z = (float(u.state.times[-4]), 0.25)
    a = freeze(A, u.gradient_at(z))
    va = solve_anisotropic_batch(path, [a])[0]
    return grid, u, va, z


def test_modelling_remainder_identical_fields_degenerate():
    grid, u, va, z = sim_pair(n=128)
    reg = params_for(grid)
    rep = modelling_remainder(u.gradient, u.gradient, z, reg)
    assert rep.degenerate
    assert max(rep.residuals) <= 1e-12
    assert rep.slope is None


def test_modelling_remainder_invariants():
    grid, u, va, z = sim_pair(n=128)
    reg = params_for(grid)
    rep = modelling_remainder(u.gradient, va.gradient, z, reg)
    # residuals are monotone under region inclusion
    assert all(a <= b + 1e-12 for a, b in zip(rep.residuals, rep.residuals[1:]))
    # free-b fit can only improve on the pinned one
    assert all(f <= p + 1e-9 for f, p in zip(rep.residuals_free, rep.residuals))
    # constant-term recovery at the smallest radius
    assert rep.b_gap <= rep.residuals_free[0] + 1e-9
    # M_z consistency
    alpha2 = 2 * reg.alpha
    assert rep.m_z == pytest.approx(
        max(res / r**alpha2 for res, r in zip(rep.residuals, rep.radii))
    )
    # every fitted B is symmetric (trivially here in d=1, shape check)
    for m in rep.models:
        assert np.array_equal(m.B, m.B.T)


def test_modelling_remainder_b_stability_bound():
    # consecutive fitted Bs on nested cylinders obey the two-residual bound
    grid, u, va, z = sim_pair(n=128)
    reg = params_for(grid)
    rep = modelling_remainder(u.gradient, va.gradient, z, reg)
    gw = SpaceTimeField(grid, u.gradient.times, u.gradient.values - va.gradient.values)
    for i in range(len(rep.radii) - 1):
        cs = cylinder_samples(gw, ParabolicCylinder(t=z[0], x=z[1], r=rep.radii[i]))
        x, _ = cs.flat()
        drift = np.max(np.abs(x @ (rep.models[i].B - rep.models[i + 1].B).T))
        assert drift <= rep.residuals[i] + rep.residuals[i + 1] + 1e-9


def test_modelling_remainder_requires_four_radii():
    grid, u, va, z = sim_pair(n=128)
    reg = RegularityParams(alpha=0.75, radii=np.array([0.03125, 0.0625, 0.125]))
    with pytest.raises(RegularityError):
        modelling_remainder(u.gradient, va.gradient, z, reg)


def against_zero(grad):
    """A zero model gradient on grad's times: modelling_remainder then reads
    grad alone, and its baseline is grad's."""
    return SpaceTimeField(grad.grid, grad.times, np.zeros_like(grad.values))


def test_baseline_constant_gradient_degenerate():
    grid = GridSpec.create(1, 128)
    entry = corpus_entry(grid, "affine")
    reg = params_for(grid)
    rep = modelling_remainder(entry.gradient, against_zero(entry.gradient), entry.basepoint, reg)
    slope, vals = rep.baseline_slope, rep.baseline_values
    assert slope is None
    assert max(vals) <= 1e-12


def test_baseline_recovers_cusp_exponent(monkeypatch):
    # gradient profile with a smoothed |x - x'|^alpha modulus: slope ~ alpha;
    # smoothed at 2 dx, the cusp shows down to the grid
    n = 256
    grid = GridSpec.create(1, n)
    monkeypatch.setattr(quasiheat.corpus, "_CUSP_SCALE", 2 * grid.dx)
    entry = [
        e for e in build_corpus(grid, n_random=0)
        if e.name == "smoothed-cusp"
    ][0]
    reg = params_for(grid)
    rep = modelling_remainder(entry.gradient, against_zero(entry.gradient), entry.basepoint, reg)
    slope = rep.baseline_slope
    assert slope == pytest.approx(0.75, abs=0.1)


def random_gradient_pair(dim):
    """Random grad u and grad v_a on the first 120 snapshots of an n = 64 grid
    (r_max^2 is 16 snapshots), and x' = 0.5 on each axis."""
    grid = GridSpec.create(dim, 64)
    times = grid.snapshot_times()[:120]
    rng = np.random.default_rng(11 + dim)
    shape = (len(times),) + grid.shape + (dim,)
    grad_u, grad_v = (SpaceTimeField(grid, times, rng.normal(size=shape)) for _ in range(2))
    reg = RegularityParams.for_grid(grid, 0.75, r_min_factor=2)
    return grad_u, grad_v, 0.5 if dim == 1 else (0.5, 0.5), reg


@pytest.mark.parametrize("dim", [1, 2])
def test_baseline_is_the_rms_of_grad_u_on_each_cylinder(dim):
    grad_u, grad_v, x0, reg = random_gradient_pair(dim)
    # t' = times[8]: the larger slabs reach below t = 0 (zero-extension rows)
    below = ParabolicCylinder(t=float(grad_u.times[8]), x=x0, r=float(reg.radii[-1]))
    assert cylinder_window(grad_u, below).n_below > 0
    for t0 in (float(grad_u.times[8]), float(grad_u.times[100])):
        rep = modelling_remainder(grad_u, grad_v, (t0, x0), reg)
        ref = np.asarray(grad_u.value_at(t0, x0), dtype=float)
        want = []
        for r in reg.radii:
            diff = cylinder_samples(grad_u, ParabolicCylinder(t=t0, x=x0, r=float(r))).values - ref
            want.append(float(np.sqrt(np.mean(diff * diff))))
        assert np.array(rep.baseline_values).tobytes() == np.array(want).tobytes()
        assert rep.baseline_slope == quasiheat.regularity._loglog_slope(reg.radii, want)


@pytest.mark.parametrize("dim", [1, 2])
def test_modelling_remainder_builds_one_window_per_radius(dim, monkeypatch):
    grad_u, grad_v, x0, reg = random_gradient_pair(dim)
    radii = record_windows(monkeypatch)
    z = (float(grad_u.times[8]), x0)
    modelling_remainder(grad_u, grad_v, z, reg, with_increment_constant=False)
    assert radii == [float(r) for r in reg.radii]


def _comp_abs(diff, n_lead):
    out = np.abs(diff)
    while out.ndim > n_lead:
        out = out.max(axis=-1)
    return out


def _first_pair_classes(n_space, n_time, dx, snap_dt, exhaustive, signed):
    """The offset classes (time shift, first-axis shift) as the seminorm first
    listed them; the references below expand each to its d = 2 shifts.  Its
    exhaustive listing never pairs a time shift of 0 with a first-axis shift
    of 0, so in d = 2 it misses the same-time shifts along the second axis."""
    classes = []
    if exhaustive:
        lo = -(n_space - 1) if signed else 0
        for st in range(0, n_time):
            for sx in range(lo, n_space):
                if st == 0 and sx == 0:
                    continue
                if st == 0 and not signed and sx > n_space // 2:
                    continue
                if st == 0 and signed and sx < 0:
                    continue
                classes.append((st, sx))
        return classes
    sx = 1
    while sx <= max(n_space // 2, 1):
        classes.append((0, sx))
        st_par = int(round((sx * dx) ** 2 / snap_dt))
        if 1 <= st_par < n_time:
            classes.append((st_par, sx))
            classes.append((st_par, -sx))
        sx *= 2
    st = 1
    while st < n_time:
        classes.append((st, 0))
        st *= 2
    return classes


def _roll_then_stride_seminorm(f, alpha, pair_budget):
    """The whole-field seminorm as it was first written: roll every snapshot,
    then stride the time axis."""
    grid, vals = f.grid, f.values
    dim, n_time, n = grid.dim, vals.shape[0], grid.n
    snap_dt = grid.snap_dt if n_time > 1 else 1.0
    exhaustive = (n_time * n**dim) * (n_time * n**dim) <= pair_budget * 8
    best = 0.0
    for st, sx in _first_pair_classes(n, n_time, grid.dx, snap_dt, exhaustive, signed=False):
        if dim == 1:
            specs = [(sx,)]
        elif exhaustive:
            specs = [(sx, sy) for sy in range(n)]
        else:
            specs = [(sx, 0), (0, sx), (sx, sx), (sx, -sx)]
        for sv in specs:
            sd = [min(abs(s) % n, n - abs(s) % n) for s in sv]
            dist = (math.sqrt(st * snap_dt) if st else 0.0) + math.hypot(*[s * grid.dx for s in sd])
            if dist == 0.0:
                continue
            shifted = vals
            for ax, s in enumerate(sv):
                if s % n:
                    shifted = np.roll(shifted, -s, axis=1 + ax)
            a_view = shifted[st:] if st else shifted
            b_view = vals[: n_time - st] if st else vals
            stride = max(1, int(np.ceil(a_view.shape[0] * np.prod(a_view.shape[1 : 1 + dim]) / pair_budget)))
            diff = a_view[::stride] - b_view[::stride]
            ratios = _comp_abs(diff, diff.ndim - len(f.component_shape)) / dist**alpha
            best = max(best, float(ratios.max()))
    return best


@pytest.mark.parametrize("dim,n,n_time,comps,budget,time_only", [
    (1, 64, 257, (), 100_000, False),
    (1, 32, 129, (1,), 500, False),
    # (129 - 1) * 32 / 512 = 8 exactly: the stride must count n_time - st rows
    (1, 32, 129, (), 512, True),
    (1, 8, 5, (), 100_000, False),  # small enough for the exhaustive listing
    (2, 16, 65, (2,), 2_000, False),
    (2, 16, 65, (2,), 100_000, False),
    (2, 4, 3, (2,), 100_000, False),
    # the pair table at several time shifts
    (1, 16, 9, (1,), 100_000, False),
    (2, 8, 3, (2,), 100_000, False),
    (1, 8, 5, (), 100_000, True),  # the sup sits on the zero spatial shift
    # more pairs than one 2 MB gather holds
    (1, 512, 1, (2,), 100_000, False),
    (1, 256, 3, (2,), 100_000, False),
    # n_anchors^2 = 144^2 = 8 * 2592: the table, then the dyadic listing
    (1, 16, 9, (), 2592, False),
    (1, 16, 9, (), 2591, False),
])
def test_whole_field_seminorm_strides_before_rolling(dim, n, n_time, comps, budget, time_only):
    grid = GridSpec.create(dim, n)
    rng = np.random.default_rng(n_time + 7 * n)
    # heavy tails: the sup sits on a few pairs, so a decimation that keeps
    # other rows changes it
    shape = (n_time,) + ((1,) * dim if time_only else grid.shape) + comps
    vals = np.broadcast_to(rng.standard_cauchy(shape), (n_time,) + grid.shape + comps)
    f = SpaceTimeField(grid, np.arange(n_time) * grid.snap_dt, vals)
    got = holder_seminorm(f, 0.75, pair_budget=budget)
    assert got == _roll_then_stride_seminorm(f, 0.75, budget) and got > 0.0


def test_exhaustive_seminorm_reduces_every_gather():
    # a smooth field's sup sits on a pair far apart: at n = 512 with two
    # components, its class (about 136 nodes) lies past the first 2 MB gather
    grid = GridSpec.create(1, 512)
    x = 2 * np.pi * np.arange(512) * grid.dx
    f = SpaceTimeField(grid, np.zeros(1), np.stack([np.sin(x), np.cos(x)], axis=-1)[None])
    got = holder_seminorm(f, 0.75)
    assert got == _roll_then_stride_seminorm(f, 0.75, 100_000)
    assert got == pytest.approx(max(2 * math.sin(math.pi * d) / d**0.75 for d in np.arange(1, 257) / 512))


def _masked_box_seminorm(f, alpha, region, pair_budget, second_axis=False):
    """The seminorm on a cylinder's box as it was first written: a (time x box)
    in-ball mask and a ratio array per offset class, zero off the mask.
    ``second_axis`` adds the same-time shifts (0, sy) that its d = 2
    exhaustive listing missed."""
    grid, dim = f.grid, f.grid.dim
    win = cylinder_window(f, region)
    vals = win.take_box(f.values)
    mask = np.broadcast_to(win.inball, vals.shape[: 1 + dim])
    n_time, w = vals.shape[:2]
    snap_dt = grid.snap_dt if n_time > 1 else 1.0
    n_anchors = n_time * w**dim
    exhaustive = n_anchors * n_anchors <= pair_budget * 8
    best = 0.0
    classes = _first_pair_classes(w, n_time, grid.dx, snap_dt, exhaustive, signed=True)
    if second_axis:
        classes = [(0, None)] + classes
    for st, sx in classes:
        if sx is None:
            specs = [(0, sy) for sy in range(1, w)]
        elif dim == 1:
            specs = [(sx,)]
        elif exhaustive:
            specs = [(sx, sy) for sy in range(-(w - 1), w)]
        else:
            specs = [(sx, 0), (0, sx), (sx, sx), (sx, -sx)]
        for sv in specs:
            dist = (math.sqrt(st * snap_dt) if st else 0.0) + math.hypot(*[abs(s) * grid.dx for s in sv])
            if dist == 0.0:
                continue
            sl_src, sl_dst, ok = [slice(0, n_time - st)], [slice(st, n_time)], True
            for s in sv:
                if s >= 0:
                    sl_src.append(slice(0, w - s))
                    sl_dst.append(slice(s, w))
                    ok = ok and w - s > 0
                else:
                    sl_src.append(slice(-s, w))
                    sl_dst.append(slice(0, w + s))
                    ok = ok and w + s > 0
            if not ok:
                continue
            msk = mask[tuple(sl_dst)] & mask[tuple(sl_src)]
            if not msk.any():
                continue
            diff = _comp_abs(vals[tuple(sl_dst)] - vals[tuple(sl_src)], msk.ndim)
            ratios = np.where(msk, diff, 0.0) / dist**alpha
            best = max(best, float(ratios.max()))
    return best


# the d = 2 exhaustive cases (node, row, comps) whose sup is on a same-time
# shift (0, sy), which the first listing missed
_SECOND_AXIS_SUP = {(0, -1, ()), (0, -1, (1,)), (-1, -1, ()), (-1, -1, (1,)), (None, 2, (2,))}


@pytest.mark.parametrize("dim,n,comps", [
    (1, 64, ()), (1, 64, (1,)), (1, 64, (2,)), (2, 32, ()), (2, 32, (1,)), (2, 32, (2,)),
])
@pytest.mark.parametrize("budget", [200_000, 20])  # the exhaustive, then the dyadic listing
@pytest.mark.parametrize("node,row", [
    (0, -1),  # the box wraps the torus seam
    (-1, -1),  # the box wraps the seam from the other side
    (1, 3),  # the slab starts at row 0, the box wraps the seam
    (None, 2),  # the slab starts at row 0 and the cylinder reaches below t = 0
])
def test_box_seminorm_bitwise_matches_masked_ratio_reference(dim, n, comps, budget, node, row):
    grid = GridSpec.create(dim, n)
    n_time = 12
    rng = np.random.default_rng(n + 5 * len(comps) + 11 * dim)
    x = (n // 2 if node is None else node % n) * grid.dx
    r = 8 * grid.dx
    # heavy tails put the sup on a few pairs; a spike on every node off the
    # ball makes any pair that reaches one win
    vals = rng.standard_cauchy((n_time,) + grid.shape + comps)
    d = np.abs(np.arange(n) * grid.dx - x)
    d = np.minimum(d, 1.0 - d)
    vals[:, (d if dim == 1 else np.hypot(d[:, None], d[None, :])) >= r - 1e-12] += 1e6
    f = SpaceTimeField(grid, np.arange(n_time) * grid.snap_dt, vals)
    cyl = ParabolicCylinder(t=float(f.times[row]), x=(x,) * dim, r=r)
    win = cylinder_window(f, cyl)
    assert (win.slab.start == 0) == (row > 0)
    n_anchors = (win.slab.stop - win.slab.start) * win.inball.size
    assert (n_anchors * n_anchors <= budget * 8) == (budget == 200_000)
    got = holder_seminorm(f, 0.75, region=cyl, pair_budget=budget)
    want = _masked_box_seminorm(f, 0.75, cyl, budget)
    if dim == 2 and budget == 200_000 and (node, row, comps) in _SECOND_AXIS_SUP:
        first, want = want, _masked_box_seminorm(f, 0.75, cyl, budget, second_axis=True)
        assert want > first
        assert want == pytest.approx(oracle_seminorm(f, 0.75, cyl), rel=1e-13)
    assert got == want and 0.0 < got < 1e6


# the box of the lemma suite's seminorms on P_3l at n = 64 and l = 4 dx, 23
# nodes across, on a static corpus field's one snapshot or on 9 snapshot rows
@pytest.mark.parametrize("n_time,rows", [(1, 1), (12, 9)])
@pytest.mark.parametrize("comps", [(), (1,)])
@pytest.mark.parametrize("budget", [10_000, 20])  # the suite's box budget, then the dyadic listing
def test_lemma_box_seminorm_bitwise_matches_masked_ratio_reference(n_time, rows, comps, budget):
    grid = GridSpec.create(1, 64)
    r = 12 * grid.dx
    vals = np.random.default_rng(n_time + 5 * len(comps)).standard_cauchy((n_time, 64) + comps)
    d = np.abs(np.arange(64) * grid.dx - 0.5)
    vals[:, d >= r - 1e-12] += 1e6  # any pair that reaches off the ball wins
    f = SpaceTimeField(grid, np.arange(n_time) * grid.snap_dt, vals)
    cyl = ParabolicCylinder(t=float(f.times[-1]), x=0.5, r=r)
    assert cylinder_window(f, cyl).take_box(f.values).shape[:2] == (rows, 23)
    got = holder_seminorm(f, 0.75, region=cyl, pair_budget=budget)
    assert got == _masked_box_seminorm(f, 0.75, cyl, budget) and 0.0 < got < 1e6
    if budget == 10_000:
        assert got == pytest.approx(oracle_seminorm(f, 0.75, cyl), rel=1e-13)
