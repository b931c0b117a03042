import numpy as np
import pytest

from quasiheat.grid import (
    GridError,
    GridSpec,
    Mollifier,
    ParabolicCylinder,
    SpaceTimeField,
    ball_offsets,
    cc_distance,
    cylinder_samples,
    cylinder_window,
    increment,
    lattice_shifts,
    mollify,
    mollify_deriv,
    spectral_gradient,
    torus_distance,
)

from oracles import direct_convolution


def static_field(n, fn, dim=1):
    grid = GridSpec.create(dim, n)
    xs = np.arange(n) / n
    if dim == 1:
        vals = fn(xs)[None]
    else:
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = fn(X, Y)[None]
    return grid, SpaceTimeField(grid, np.array([0.0]), vals)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_identical_points():
    assert cc_distance((0.3, 0.5), (0.3, 0.5)) == 0.0


def test_metric_direct_evaluation():
    assert cc_distance((0.25, 0.5), (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_metric_periodic_wrap():
    assert cc_distance((0.0, 0.9), (0.0, 0.0)) == pytest.approx(0.1, abs=1e-12)


def test_metric_triangle_inequality():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        z = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        d01 = cc_distance(z[0], z[1])
        d12 = cc_distance(z[1], z[2])
        d02 = cc_distance(z[0], z[2])
        assert d02 <= d01 + d12 + 1e-12


def test_metric_parabolic_scaling():
    # d((t'+s^2 tau, x'+s xi), (t', x')) = s * d((t'+tau, x'+xi), (t', x'))
    t0, x0 = 0.3, 0.25
    tau, xi = 0.01, 0.0625
    for s in (0.5, 2.0):
        lhs = cc_distance((t0 + s * s * tau, x0 + s * xi), (t0, x0))
        rhs = s * cc_distance((t0 + tau, x0 + xi), (t0, x0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_metric_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z1 = (rng.uniform(), (rng.uniform(), rng.uniform()))
        z2 = (rng.uniform(), (rng.uniform(), rng.uniform()))
        assert cc_distance(z1, z2) == pytest.approx(cc_distance(z2, z1), rel=1e-14)


# ---------------------------------------------------------------------------
# increments
# ---------------------------------------------------------------------------

def test_increment_zero_shift():
    _, f = static_field(32, lambda x: np.sin(2 * np.pi * x))
    out = increment(f, [0.0])
    assert np.all(out.values == 0.0)


def test_increment_half_period_sine():
    _, f = static_field(128, lambda x: np.sin(2 * np.pi * x))
    out = increment(f, [0.5])
    xs = np.arange(128) / 128
    assert np.max(np.abs(out.values[0] + 2 * np.sin(2 * np.pi * xs))) < 1e-13


def test_increment_constant_field():
    _, f = static_field(32, lambda x: 0.7 * np.ones_like(x))
    assert np.all(increment(f, [3 / 32]).values == 0.0)


def test_increment_rejects_off_lattice():
    _, f = static_field(32, lambda x: x)
    with pytest.raises(GridError):
        increment(f, [0.013])


def test_increment_cocycle():
    grid, f = static_field(64, lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))
    y1, y2 = np.array([5 / 64]), np.array([11 / 64])
    lhs = increment(f, y1 + y2).values
    shifted = np.roll(increment(f, y2).values, -5, axis=1)
    rhs = shifted + increment(f, y1).values
    assert np.max(np.abs(lhs - rhs)) < 1e-13


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def test_mollifier_kernel_invariants():
    grid = GridSpec.create(1, 256)
    mol = Mollifier.build(grid, 0.1)
    assert abs(mol.mass_kernel.sum() - 1.0) < 1e-12
    xs = np.arange(256) / 256.0
    xc = np.where(xs > 0.5, xs - 1.0, xs)
    assert abs(float((mol.mass_kernel * xc).sum())) < 1e-12
    assert abs(mol.deriv_kernels[0].sum()) < 1e-12
    assert np.all(mol.mass_kernel >= 0.0)


def test_mollify_preserves_constants_and_deriv_annihilates():
    grid, f = static_field(64, lambda x: np.full_like(x, 2.5))
    out = mollify(f, 0.125)
    assert np.max(np.abs(out.values - 2.5)) < 1e-12
    dout = mollify_deriv(f, 0.125, 0)
    assert np.max(np.abs(dout.values)) < 1e-12


def test_mollify_reproduces_affine_in_interior():
    grid, f = static_field(256, lambda x: 0.4 + 1.3 * x)
    out = mollify(f, 0.1)
    interior = slice(int(0.15 * 256), int(0.85 * 256))
    assert np.max(np.abs(out.values[0, interior] - f.values[0, interior])) < 1e-10


def test_mollify_matches_dense_quadrature():
    # independent dense-quadrature convolution of the continuous kernel
    n, r = 512, 0.1
    grid, f = static_field(n, lambda x: np.sin(2 * np.pi * x))
    out = mollify(f, r)

    def psi(u):
        return np.where(np.abs(u) < 1, np.exp(-1 / np.maximum(1 - u**2, 1e-300)), 0.0)

    uu = np.linspace(-1, 1, 400_001)
    z = np.trapezoid(psi(uu), uu)
    y = np.linspace(-r, r, 400_001)
    w = psi(y / r) / (r * z)
    for i in (n // 7, n // 3, n // 2):
        oracle = np.trapezoid(np.sin(2 * np.pi * (i / n - y)) * w, y)
        assert abs(out.values[0, i] - oracle) < 1e-8


def test_mollify_matches_direct_convolution_oracle():
    n, r = 64, 0.2
    grid, f = static_field(n, lambda x: np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    mol = Mollifier.build(grid, r)
    out = mollify(f, r)
    oracle = direct_convolution(f.values[0], mol.mass_kernel)
    assert np.max(np.abs(out.values[0] - oracle)) < 1e-12


def test_mollifier_cache_keys_on_the_exact_scale():
    # 6/64 and 0.1 are 6 and 6.4 grid steps: each call must use its own
    # kernels, whichever scale was built first
    n = 64
    grid, f = static_field(n, lambda x: np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x))
    for r in (6 / 64, 0.1):
        mol = Mollifier.build(grid, r)
        assert mol.r == r
        out = mollify(f, r).values[0]
        assert np.max(np.abs(out - direct_convolution(f.values[0], mol.mass_kernel))) < 1e-12
        out = mollify_deriv(f, r, 0).values[0]
        assert np.max(np.abs(out - direct_convolution(f.values[0], mol.deriv_kernels[0]))) < 1e-12
    assert Mollifier.build(grid, 0.1) is mol  # one build per (grid, r)
    for kernel in (mol.mass_kernel, mol.deriv_kernels[0]):
        with pytest.raises(ValueError):
            kernel[0] = 1.0


def test_mollify_commutes_with_increments():
    grid, f = static_field(128, lambda x: np.sin(2 * np.pi * x) ** 2)
    y = [7 / 128]
    a = mollify(increment(f, y), 0.1).values
    b = increment(mollify(f, 0.1), y).values
    assert np.max(np.abs(a - b)) < 1e-13


def test_mollify_deriv_is_derivative_of_mollify():
    # spectral derivative of the smoothed field as the cross-check
    for n, r in ((512, 0.1), (256, 0.2)):
        grid, f = static_field(n, lambda x: np.sin(2 * np.pi * x))
        lhs = mollify_deriv(f, r, 0).values[0]
        rhs = spectral_gradient(mollify(f, r)).values[0, :, 0]
        assert np.max(np.abs(lhs - rhs)) <= 10.0 / n**2


def test_mollify_rejects_unresolved_scale():
    grid, f = static_field(32, lambda x: x)
    with pytest.raises(GridError):
        mollify(f, grid.dx)


# ---------------------------------------------------------------------------
# spectral gradient
# ---------------------------------------------------------------------------

def test_gradient_of_constant():
    _, f = static_field(32, lambda x: np.full_like(x, 1.3))
    assert np.max(np.abs(spectral_gradient(f).values)) < 1e-12


def test_gradient_closed_form():
    _, f = static_field(128, lambda x: np.sin(2 * np.pi * x))
    g = spectral_gradient(f)
    xs = np.arange(128) / 128
    assert np.max(np.abs(g.values[0, :, 0] - 2 * np.pi * np.cos(2 * np.pi * xs))) < 1e-10


def test_gradient_linearity():
    _, f = static_field(64, lambda x: np.sin(2 * np.pi * x))
    _, g = static_field(64, lambda x: np.cos(4 * np.pi * x))
    grid = f.grid
    combo = SpaceTimeField(grid, f.times, 2.0 * f.values - 3.0 * g.values)
    lhs = spectral_gradient(combo).values
    rhs = 2.0 * spectral_gradient(f).values - 3.0 * spectral_gradient(g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gradient_2d():
    grid, f = static_field(32, lambda X, Y: np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y), dim=2)
    g = spectral_gradient(f)
    xs = np.arange(32) / 32
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.max(np.abs(g.values[0, :, :, 0] - 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y))) < 1e-10
    assert np.max(np.abs(g.values[0, :, :, 1] + 2 * np.pi * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y))) < 1e-10


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_cylinder_node_count_d1():
    grid = GridSpec.create(1, 64)
    f = SpaceTimeField(grid, np.array([0.0, grid.snap_dt]), np.zeros((2, 64)))
    cs = cylinder_samples(f, ParabolicCylinder(t=grid.snap_dt, x=0.5, r=4 * grid.dx))
    assert cs.xrel.shape[0] == 7  # lattice count 2*4 - 1


def test_cylinder_at_time_zero_is_zero_extension():
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()[:3]
    vals = np.ones((3, 64))
    vals[0] = 0.0  # state at t=0 is zero
    f = SpaceTimeField(grid, times, vals)
    cyl = ParabolicCylinder(t=0.0, x=0.5, r=8 * grid.dx)
    cs = cylinder_samples(f, cyl)
    assert np.all(cs.values == 0.0)
    win = cylinder_window(f, cyl)  # zero-extension rows, then the t = 0 row
    assert win.slab == slice(0, 1) and len(cs.values) == win.n_below + 1


def test_field_from_row_one_gets_no_zero_extension():
    # t' - r^2 lies 5e-15 below t = 0: the whole run's slab starts at row 1,
    # and the field that starts there (at t = snap_dt) is not one from t = 0
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()
    vals = np.random.default_rng(0).standard_normal((len(times), 64))
    whole = SpaceTimeField(grid, times, vals)
    cyl = ParabolicCylinder(t=float(times[16]), x=0.5, r=float(np.sqrt(times[16] + 5e-15)))
    assert cylinder_window(whole, cyl).slab == slice(1, 17)
    from_one = SpaceTimeField(grid, times[1:], vals[1:])
    assert cylinder_window(from_one, cyl).n_below == cylinder_window(whole, cyl).n_below == 0
    got, want = cylinder_samples(from_one, cyl), cylinder_samples(whole, cyl)
    assert np.array_equal(got.values, want.values)


def test_cylinder_count_matches_bruteforce():
    grid = GridSpec.create(1, 16)
    times = grid.snapshot_times()
    f = SpaceTimeField(grid, times, np.zeros((len(times), 16)))
    for rf in (4, 6, 7):
        r = rf * grid.dx
        t0 = float(times[-1])
        cs = cylinder_samples(f, ParabolicCylinder(t=t0, x=0.5, r=r))
        count = 0
        for t in times:
            if not (t0 - r * r < t <= t0):
                continue
            for j in range(16):
                if torus_distance(j / 16, 0.5) < r:
                    count += 1
        assert cs.values.size == count


def test_cylinder_count_matches_bruteforce_2d():
    grid = GridSpec.create(2, 16)
    times = grid.snapshot_times()[:10]
    f = SpaceTimeField(grid, times, np.zeros((10, 16, 16)))
    r = 5 * grid.dx
    t0 = float(times[-1])
    cs = cylinder_samples(f, ParabolicCylinder(t=t0, x=(0.5, 0.25), r=r))
    count = 0
    for t in times:
        if not (t0 - r * r < t <= t0):
            continue
        for j in range(16):
            for k in range(16):
                dxv = np.array([
                    min(abs(j / 16 - 0.5), 1 - abs(j / 16 - 0.5)),
                    min(abs(k / 16 - 0.25), 1 - abs(k / 16 - 0.25)),
                ])
                if np.linalg.norm(dxv) < r:
                    count += 1
    assert cs.values.size == count


def random_field(dim, n, n_times, comps=(), seed=0):
    grid = GridSpec.create(dim, n)
    times = grid.snapshot_times()[:n_times]
    rng = np.random.default_rng(seed)
    return grid, SpaceTimeField(grid, times, rng.normal(size=(n_times,) + grid.shape + comps))


def assert_same_samples(a, b, n_below):
    assert a.values.tobytes() == b.values.tobytes() and a.values.shape == b.values.shape
    assert not a.values[:n_below].any()  # the zero extension below t = 0
    assert a.xrel.tobytes() == b.xrel.tobytes()


@pytest.mark.parametrize("dim,comps", [(1, ()), (1, (1,)), (2, (2,))])
def test_cylinder_increment_matches_whole_field_increment(dim, comps):
    n = 16
    grid, f = random_field(dim, n, 12, comps)
    m = 6  # up to the cylinder radius, so windows wrap at both edges
    if dim == 1:
        shifts = [(s,) for s in range(-m, m + 1)] + [(n - 1,), (-(n - 1),), (n // 2,)]
        centres = [0.0, 1 / n, 0.5, (n - 1) / n]
    else:
        shifts = [(m, 0), (-m, 0), (0, m), (0, -m), (3, -4), (n - 1, 1 - n), (0, 0)]
        centres = [(0.0, 0.0), ((n - 1) / n, 0.0), (0.5, (n - 1) / n), (1 / n, 0.5)]
    # basepoint times at t = 0, inside the zero extension, and late
    for t_idx in (0, 1, 11):
        for x0 in centres:
            for r in (2 * grid.dx, 5 * grid.dx, 7 * grid.dx):
                cyl = ParabolicCylinder(t=float(f.times[t_idx]), x=x0, r=r)
                win = cylinder_window(f, cyl)  # one window serves every shift
                for s in shifts:
                    y = np.array(s) * grid.dx
                    ref = cylinder_samples(increment(f, y), cyl)
                    assert_same_samples(win.samples(f.values, y), ref, win.n_below)


def test_cylinder_increment_zero_extension_rows():
    grid, f = random_field(1, 32, 4, seed=1)
    cyl = ParabolicCylinder(t=float(f.times[1]), x=0.25, r=8 * grid.dx)
    win = cylinder_window(f, cyl)
    cs = win.samples(f.values, 3 * grid.dx)
    n_below = win.n_below
    assert n_below > 0
    assert np.all(cs.values[:n_below] == 0.0) and np.all(cs.values[n_below:] != 0.0)


def test_cylinder_increment_rejects_off_lattice():
    grid, f = random_field(1, 16, 3)
    win = cylinder_window(f, ParabolicCylinder(t=0.0, x=0.5, r=4 * grid.dx))
    with pytest.raises(GridError):
        win.samples(f.values, 0.3 * grid.dx)


@pytest.mark.parametrize("dim", [1, 2])
def test_cylinder_window_box_holds_the_samples(dim):
    grid, f = random_field(dim, 16, 10, seed=2)
    x0 = 0.0 if dim == 1 else (0.0, 15 / 16)
    cyl = ParabolicCylinder(t=float(f.times[-1]), x=x0, r=5 * grid.dx)
    w = cylinder_window(f, cyl)
    box = w.take_box(f.values)
    cs = cylinder_samples(f, cyl)
    assert box.shape[0] == cs.values.shape[0]
    assert np.array_equal(box[:, w.inball], cs.values)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_cached_geometry_is_a_fresh_build_bit_for_bit(dim):
    # radii off the lattice steps, and pairs that meet one m: 6/64 and 0.1 are
    # 6 and 6.4 steps at n = 64, 3/16 and 0.2 are 6 and 6.4 at n = 32
    for n in (8, 16, 32, 64, 128):
        grid = GridSpec.create(dim, n)
        radii = [k * grid.dx for k in (0.7, 1.5, 2.5, 4.0, 6.4)] + [6 / 64, 0.1, 3 / 16, 0.2]
        for r in radii + radii[::-1]:
            assert all(map(same_bits, ball_offsets(grid, r), ball_offsets.__wrapped__(grid, r)))
            for budget in (None, 1, 4, 16):
                fresh = lattice_shifts.__wrapped__(grid, r, budget=budget)
                assert same_bits(lattice_shifts(grid, r, budget=budget), fresh)
    grid = GridSpec.create(dim, 64)
    near, far = ball_offsets(grid, 6 / 64), ball_offsets(grid, 0.1)  # m = 5, then 6
    assert len(near[0]) == 11 and len(far[0]) == 13
    assert all(map(same_bits, far, ball_offsets.__wrapped__(grid, 0.1)))


def test_cached_geometry_is_read_only():
    grid = GridSpec.create(2, 32)
    for a in ball_offsets(grid, 0.1) + (lattice_shifts(grid, 0.1, budget=4),
                                        lattice_shifts(grid, 1e-3)):
        with pytest.raises(ValueError):
            a[...] = 0


def test_cylinder_radius_bound():
    with pytest.raises(GridError):
        ParabolicCylinder(t=0.5, x=0.5, r=0.5)


def test_cylinder_requires_resolved_basepoint_time():
    # a basepoint far from any snapshot signals insufficient cadence
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()[:4]
    f = SpaceTimeField(grid, times, np.zeros((4, 64)))
    with pytest.raises(GridError):
        cylinder_samples(f, ParabolicCylinder(t=0.9, x=0.5, r=4 * grid.dx))


# ---------------------------------------------------------------------------
# grid spec
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(GridError):
        GridSpec.create(1, 48)  # not a power of two
    with pytest.raises(GridError):
        GridSpec.create(1, 64, cfl=0.3)
    with pytest.raises(GridError):
        GridSpec(dim=1, n=64, t_end=1.0, dt=1e-4, snap_stride=100)  # cadence too coarse


def test_field_immutable():
    grid = GridSpec.create(1, 16)
    f = SpaceTimeField(grid, np.array([0.0]), np.zeros((1, 16)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
