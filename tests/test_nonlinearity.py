import numpy as np
import pytest

from quasiheat.grid import GridSpec, SpaceTimeField
from quasiheat.nonlinearity import (
    FrozenCoefficient,
    Nonlinearity,
    NonlinearityError,
    ValidationError,
    builtin_family,
    freeze,
    increment_averaged_coefficient,
    linear_family,
    sine_family,
    validate,
)


def test_identity_constants():
    A = sine_family(1, 0.0)
    rep = validate(A)
    assert rep.passed
    assert rep.min_rayleigh == pytest.approx(1.0, abs=1e-12)
    assert rep.max_opnorm == pytest.approx(1.0, abs=1e-12)
    assert rep.max_lipschitz == pytest.approx(0.0, abs=1e-12)
    assert A.is_linear


def test_sine_family_constants():
    A = sine_family(1, 0.5)
    assert A.lam == pytest.approx(1 / 3)
    assert A.Lam == pytest.approx(1 / 3)
    rep = validate(A)
    assert rep.passed
    assert rep.min_rayleigh >= 1 / 3 - 1e-12
    assert rep.max_opnorm <= 1.0 + 1e-12
    assert rep.max_lipschitz <= 1 / 3 + 1e-12
    assert not A.is_linear


def test_doubling_flux_rejected():
    A = Nonlinearity(
        name="doubling",
        dim=1,
        ev=lambda p: 2.0 * np.asarray(p, dtype=float),
        jac=lambda p: np.full(np.asarray(p).shape + (1,), 2.0),
        lam=2.0,
        Lam=0.0,
    )
    with pytest.raises(ValidationError) as err:
        validate(A)
    assert err.value.witness is not None


def test_linear_family_normalization():
    with pytest.raises(NonlinearityError):
        linear_family([[2.0]])
    with pytest.raises(NonlinearityError):
        linear_family([[1.0, 0.5], [0.1, 1.0]])  # not symmetric
    A = linear_family([[0.8, 0.1], [0.1, 0.6]])
    assert A.is_linear
    assert validate(A).passed


def test_builtin_dispatch():
    assert builtin_family("sine", 1, kappa=0.0).name == "sine"
    assert builtin_family("linear", 2).linear_matrix.shape == (2, 2)
    with pytest.raises(NonlinearityError):
        builtin_family("cubic", 1)
    with pytest.raises(NonlinearityError):
        sine_family(1, 1.0)


def test_freeze_linear_returns_matrix():
    M = np.array([[0.7, 0.1], [0.1, 0.85]])
    A = linear_family(M)
    fc = freeze(A, [1.3, -2.0])
    assert np.allclose(fc.matrix, M)


def test_freeze_sine_values():
    A = sine_family(1, 0.5)
    assert freeze(A, [0.0]).matrix[0, 0] == pytest.approx(1.0)
    assert freeze(A, [np.pi / 2]).matrix[0, 0] == pytest.approx(2 / 3)


def test_freeze_random_basepoints_elliptic():
    A = sine_family(2, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        fc = freeze(A, rng.uniform(-5, 5, size=2))
        eigs = np.linalg.eigvalsh(0.5 * (fc.matrix + fc.matrix.T))
        assert eigs.min() >= A.lam - 1e-12
        assert np.linalg.norm(fc.matrix, ord=2) <= 1.0 + 1e-12


def test_frozen_coefficient_validation():
    with pytest.raises(NonlinearityError):
        FrozenCoefficient(matrix=np.array([[1.5]]))  # violates |a eta| <= |eta|


def grad_field(n, fn):
    grid = GridSpec.create(1, n)
    xs = np.arange(n) / n
    vals = fn(xs)[None, :, None]
    return grid, SpaceTimeField(grid, np.array([0.0]), vals)


@pytest.mark.parametrize("dim,n,field", [(1, 64, "sine"), (1, 64, "random"), (2, 32, "random")])
def test_averaged_coefficient_zero_shift_within_a_few_ulp(dim, n, field):
    # not bitwise: the quadrature's convex combinations and weights round;
    # random fields measured 2 ulp (d = 1) and 3 ulp (d = 2) at most
    A = sine_family(dim, 0.5)
    grid = GridSpec.create(dim, n)
    if field == "sine":
        fields = [np.sin(2 * np.pi * np.arange(n) / n)[None, :, None]]
    else:
        fields = [np.random.default_rng(seed).normal(size=(4,) + grid.shape + (dim,)) for seed in range(3)]
    for vals in fields:
        g = SpaceTimeField(grid, np.arange(len(vals)) * grid.snap_dt, vals)
        ay = increment_averaged_coefficient(A, g, [0.0] * dim).values
        direct = A.jac(vals)
        assert np.all(np.abs(ay - direct) <= 4 * np.spacing(np.abs(direct)))


def test_averaged_coefficient_linear_flux_constant():
    A = linear_family([[0.8]])
    _, g = grad_field(64, lambda x: np.cos(2 * np.pi * x))
    ay = increment_averaged_coefficient(A, g, [5 / 64])
    assert np.max(np.abs(ay.values - 0.8)) < 1e-14


def test_averaged_coefficient_matches_closed_form():
    # for the sine family, int_0^1 cos(theta b + (1-theta) a) dtheta
    # = (sin b - sin a) / (b - a)
    kappa = 0.5
    A = sine_family(1, kappa)
    n = 64
    _, g = grad_field(n, lambda x: 1.5 * np.sin(2 * np.pi * x))
    y = 9 / n
    ay = increment_averaged_coefficient(A, g, [y])
    p0 = g.values[0, :, 0]
    p1 = np.roll(p0, -9)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_cos = np.where(
            np.abs(p1 - p0) > 1e-12,
            (np.sin(p1) - np.sin(p0)) / (p1 - p0),
            np.cos(p0),
        )
    closed = (1 + kappa * avg_cos) / (1 + kappa)
    assert np.max(np.abs(ay.values[0, :, 0, 0] - closed)) < 1e-8


def test_averaged_coefficient_inherits_bounds():
    A = sine_family(1, 0.5)
    _, g = grad_field(64, lambda x: 3.0 * np.sin(2 * np.pi * x))
    ay = increment_averaged_coefficient(A, g, [3 / 64])
    vals = ay.values[0, :, 0, 0]
    assert vals.min() >= A.lam - 1e-12
    assert vals.max() <= 1.0 + 1e-12


def test_averaged_coefficient_deviation_scales_with_radius():
    # || a_y - a(z) || over P_2l grows at most like l^alpha, with the
    # empirical constant stable under grid refinement
    from quasiheat.corpus import build_corpus
    from quasiheat.grid import GridSpec, ParabolicCylinder, cylinder_samples

    A = sine_family(1, 0.5)
    alpha = 0.75
    consts = {}
    for n in (64, 128):
        grid = GridSpec.create(1, n)
        entry = [e for e in build_corpus(grid, n_random=0) if e.name == "trig"][0]
        z = entry.basepoint
        az = freeze(A, entry.gradient.value_at(*z)).matrix
        best = 0.0
        for l in (1 / 16, 1 / 8):
            y = np.array([l / 2])
            ay = increment_averaged_coefficient(A, entry.gradient, y)
            dev = SpaceTimeField(grid, ay.times, ay.values - az)
            cs = cylinder_samples(dev, ParabolicCylinder(t=z[0], x=z[1], r=2 * l))
            best = max(best, float(np.max(np.abs(cs.values))) / l**alpha)
        consts[n] = best
    assert consts[64] > 0
    assert abs(consts[128] - consts[64]) / consts[64] <= 0.5
