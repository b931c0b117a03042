"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy simulations are shared through session fixtures; every tolerance is
pinned here, not in helper code.
"""

import time

import numpy as np
import pytest

from quasiheat.corpus import build_corpus
from quasiheat.fitting import chebyshev_center, fit_affine_gradient, fit_affine_scalar
from quasiheat.grid import GridSpec, SpaceTimeField
from quasiheat.harness import ExperimentConfig, run_experiment
from quasiheat.noise import NoisePath, NoiseSpec
from quasiheat.nonlinearity import freeze, sine_family
from quasiheat.regularity import RegularityParams, holder_seminorm, increment_constant, time_term_constant
from quasiheat.solver import solve_anisotropic_batch, solve_linear_constant, solve_nonlinear

from oracles import (
    all_pairs_seminorm,
    brute_chebyshev,
    brute_increment_constant,
    exact_affine_scalar_1d,
    exact_affine_scalar_1d_pinned,
    exact_minmax_vertex,
    gradient_fit_design,
)


def report_line(criterion, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion} {label}: {status} ({detail})")
    assert passed, f"criterion {criterion} {label}: {detail}"


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def headline(out_dir):
    cfg = ExperimentConfig.from_dict(dict(
        experiment="theorem1",
        grid={"dim": 1, "n": 256, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        params={"basepoints": 16},
        seeds=[1, 2, 3, 4],
        output_dir=str(out_dir / "headline"),
    ))
    t0 = time.time()
    report = run_experiment(cfg)
    return cfg, report, time.time() - t0


# ---------------------------------------------------------------------------
# 1. linear degeneracy
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_linear_degeneracy(out_dir):
    t0 = time.time()
    worst = 0.0
    for label, nl in (
        ("identity", {"kind": "sine", "kappa": 0.0}),
        ("anisotropic", {"kind": "linear", "matrix": [[0.8]]}),
    ):
        cfg = ExperimentConfig.from_dict(dict(
            experiment="theorem1",
            grid={"dim": 1, "n": 128, "t_end": 1.0, "cfl": 0.25},
            noise={"alpha": 0.75, "sigma": 1.0},
            nonlinearity=nl,
            params={"basepoints": 3, "companion_increment_constant": False},
            seeds=[7],
            output_dir=str(out_dir / f"lin-{label}"),
        ))
        report = run_experiment(cfg)
        assert report.metrics["degenerate_linear"]
        check = {c.name: c for c in report.checks}["degenerate_linear_remainder"]
        worst = max(worst, check.value)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 120
    report_line(1, "linear-degeneracy", ok,
                f"worst remainder {worst:.2e} <= 1e-09 at every radius/basepoint; "
                f"{elapsed:.0f}s <= 120s")


# ---------------------------------------------------------------------------
# 2. headline scaling
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_headline_scaling(headline):
    cfg, report, elapsed = headline
    checks = {c.name: c for c in report.checks}
    frac_model = checks["modelled_slope_fraction"].value
    frac_base = checks["baseline_slope_fraction"].value
    n_bp = report.metrics["n_basepoints"]
    failed = [c.name for c in report.checks if not c.passed]
    ok = (
        n_bp == 64
        and frac_model >= 0.8
        and frac_base >= 0.8
        and report.passed
        and elapsed <= 900
    )
    report_line(2, "headline-scaling", ok,
                f"modelled slope >= 1.25 on {frac_model:.0%} of {n_bp} basepoints "
                f"(need >= 80%), baseline slope <= 1.0 on {frac_base:.0%}; "
                f"failed checks {failed} (need none); {elapsed:.0f}s <= 900s")


# ---------------------------------------------------------------------------
# 3. noise statistics
# ---------------------------------------------------------------------------

def test_criterion_3_noise_statistics(out_dir):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict(dict(
        experiment="noise-diag",
        grid={"dim": 1, "n": 64, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        params={"n_samples": 10_000, "max_lag": 4},
        seeds=[1],
        output_dir=str(out_dir / "noise"),
    ))
    report = run_experiment(cfg)
    checks = {c.name: c for c in report.checks}
    rel = checks["covariance_rel_error[seed=1]"].value
    rho = checks["disjoint_step_correlation[seed=1]"].value
    elapsed = time.time() - t0
    ok = rel <= 0.05 and rho <= 0.05 and elapsed <= 60
    report_line(3, "noise-statistics", ok,
                f"covariance rel err {rel:.3f} <= 0.05 on lags 0..4 at 1e4 samples, "
                f"|rho| {rho:.4f} <= 0.05; {elapsed:.0f}s <= 60s")


# ---------------------------------------------------------------------------
# 4. solver verification
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_solver_verification():
    t0 = time.time()
    # (a) exact integrator against the closed-form decay: the noise stops at
    # t = 1, after which every mode decays as exp(-mu_k (t - 1)); the error is
    # relative to the largest value at t = 1
    grid = GridSpec.create(1, 64, t_end=1.25)
    spec0 = NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=0)
    traj = solve_linear_constant(NoisePath(spec0, grid), np.array([[0.85]]))
    i1 = int(np.flatnonzero(np.isclose(traj.state.times, 1.0))[0])
    mu = 0.85 * (2 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)) ** 2
    hat1 = np.fft.rfft(traj.state.values[i1])
    ou_err = max(
        float(np.max(np.abs(state - np.fft.irfft(np.exp(-mu * (t - 1.0)) * hat1, n=grid.n))))
        for t, state in zip(traj.state.times[i1:], traj.state.values[i1:])
    ) / float(np.max(np.abs(traj.state.values[i1])))

    # (b) self-refinement order under noise-coupled dt halving
    spec_r = NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=3)
    A = sine_family(1, 0.5)
    terminal = {}
    for cfl, agg in ((0.0625, 1), (0.125, 2), (0.25, 4)):
        g = GridSpec.create(1, 64, cfl=cfl)
        p = NoisePath(spec_r, g, substeps=agg)
        terminal[agg] = solve_nonlinear(p, A).state.values[-1]
    e21 = float(np.max(np.abs(terminal[2] - terminal[1])))
    e42 = float(np.max(np.abs(terminal[4] - terminal[2])))
    order = float(np.log2(e42 / e21))

    elapsed = time.time() - t0
    ok = ou_err <= 1e-12 and order >= 0.8 and elapsed <= 120
    report_line(4, "solver-verification", ok,
                f"free-decay closed-form rel err {ou_err:.2e} <= 1e-12, "
                f"refinement order {order:.2f} >= 0.8; {elapsed:.0f}s <= 120s")


# ---------------------------------------------------------------------------
# 5. lemma suites
# ---------------------------------------------------------------------------

def _time_term_oracle_n32(grid, z, reg):
    """Direct-convolution evaluation of the mollified time terms for t*sin(2 pi x)."""
    from quasiheat.grid import Mollifier
    from oracles import direct_convolution

    n = grid.n
    xs = np.arange(n) / n
    t0, x0 = z
    total = 0.0
    for i in (0, 1):
        best = 0.0
        for r in [float(r) for r in reg.radii]:
            if round(r * r / grid.snap_dt) < 3 or r < 2 * grid.dx or r >= 0.5:
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
                sup = float(np.max(np.abs(conv[ball])))
                best = max(best, r ** (1 - 2 * reg.alpha) * sup)
        total += best
    return total


def test_criterion_5_lemma_suites(out_dir):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict(dict(
        experiment="lemmas",
        grid={"dim": 1, "n": 64, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        seeds=[1],
        output_dir=str(out_dir / "lemmas"),
    ))
    report = run_experiment(cfg)
    consts = report.metrics["constants"]
    refine = report.metrics["refinement"]
    caps_ok = all(c.passed for c in report.checks)

    # estimator-vs-exhaustive-oracle agreement at n <= 32
    n = 32
    grid = GridSpec.create(1, n)
    entry = [e for e in build_corpus(grid, n_random=2) if e.name == "smoothed-cusp"][0]
    reg = RegularityParams.for_grid(grid, 0.75, y_budget=10**6)
    est = increment_constant(entry.gradient, entry.basepoint, reg, spacetime=False)
    oracle = brute_increment_constant(
        entry.gradient.values[-1, :, 0], np.arange(n) / n, n // 2,
        [float(r) for r in reg.radii], 0.75, grid.dx, n,
    )
    inc_ok = abs(est - oracle) <= 0.05 * max(oracle, 1e-300)

    sem_est = holder_seminorm(entry.scalar, 0.75)
    sem_oracle = all_pairs_seminorm(
        entry.scalar.times, (np.arange(n) / n)[:, None],
        entry.scalar.values[..., None], 0.75,
    )
    sem_ok = abs(sem_est - sem_oracle) <= 0.05 * sem_oracle

    # time terms against a direct-convolution oracle at n = 32
    ramp = [e for e in build_corpus(grid, n_random=0) if e.name == "time-ramp-sine"][0]
    tt_est = time_term_constant(ramp.scalar, ramp.basepoint, reg)
    tt_oracle = _time_term_oracle_n32(grid, ramp.basepoint, reg)
    tt_ok = abs(tt_est - tt_oracle) <= 0.05 * max(tt_oracle, 1e-300)

    # the pinned-constant remainder fit against the exact dual-support oracle
    spec = NoiseSpec(alpha=0.75, dim=1, sigma=1.0, master_seed=4)
    path = NoisePath(spec, grid)
    u = solve_nonlinear(path, sine_family(1, 0.5))
    va = solve_anisotropic_batch(
        path, [freeze(sine_family(1, 0.5), u.gradient.values[-1, n // 4])]
    )[0]
    gw = SpaceTimeField(grid, u.gradient.times,
                        u.gradient.values - va.gradient.values)
    from quasiheat.grid import ParabolicCylinder, cylinder_samples
    z = (float(u.state.times[-1]), 0.25)
    cs = cylinder_samples(gw, ParabolicCylinder(t=z[0], x=z[1], r=0.25))
    x, v = cs.flat()
    b_ref = np.asarray(gw.value_at(*z)).reshape(1)
    got = fit_affine_gradient(x, v, pin_b=b_ref).residual
    want = exact_affine_scalar_1d_pinned(x[:, 0], v[:, 0], float(b_ref[0]))
    fit_ok = abs(got - want) <= 1e-9

    elapsed = time.time() - t0
    ok = caps_ok and inc_ok and sem_ok and tt_ok and fit_ok and elapsed <= 600
    worst_const = max(consts.values())
    worst_change = max((r["rel_change"] for r in refine.values()), default=0.0)
    report_line(5, "lemma-suites", ok,
                f"all inequality constants <= caps (worst {worst_const:.2f} <= 50, "
                f"coefficient ratio <= 1.05), refinement drift {worst_change:.0%} <= 50%, "
                f"n=32 oracle agreement within 5%; {elapsed:.0f}s <= 600s")


# ---------------------------------------------------------------------------
# 6. min-max fitting
# ---------------------------------------------------------------------------

def test_criterion_6_minmax_fitting():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_fit = 0.0
    worst_line = 0.0
    worst_below = 0.0
    n_instances = 0
    # 60 scalar free fits + 20 pinned fits against the exact dual-support
    # oracle; in d = 1 both the fit and the oracle are exact
    for _ in range(60):
        m = int(rng.integers(8, 30))
        xs = rng.uniform(-1, 1, size=m)
        vals = rng.normal(size=m)
        got = fit_affine_scalar(xs, vals).residual
        want = exact_affine_scalar_1d(xs, vals)
        worst_line = max(worst_line, abs(got - want))
        n_instances += 1
    for _ in range(20):
        m = int(rng.integers(6, 20))
        xs = rng.uniform(-1, 1, size=m)
        vals = rng.normal(size=m)
        got = fit_affine_scalar(xs, vals, pin_offset=0.1).residual
        want = exact_affine_scalar_1d_pinned(xs, vals, 0.1)
        worst_line = max(worst_line, abs(got - want))
        n_instances += 1
    # 20 d=2 vector instances against exact LP-vertex enumeration; both are
    # exact, and the residual is an achieved sup, so it may not fall below
    # the optimum
    for _ in range(20):
        m = int(rng.integers(5, 7))
        H = rng.normal(size=(2, 2))
        H = 0.5 * (H + H.T)
        X = rng.uniform(-1, 1, size=(m, 2))
        V = X @ H.T + rng.normal(size=(2,)) + 0.2 * rng.normal(size=(m, 2))
        fit = fit_affine_gradient(X, V)
        design, targets = gradient_fit_design(X, V)
        want = exact_minmax_vertex(design, targets)
        worst_fit = max(worst_fit, abs(fit.residual - want))
        worst_below = max(worst_below, want - fit.residual)
        n_instances += 1

    worst_ball = 0.0
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(10, 50)), 2))
        _, r = chebyshev_center(pts)
        _, r_o = brute_chebyshev(pts)
        worst_ball = max(worst_ball, abs(r - r_o))

    xs = np.linspace(-1, 1, 801)
    bench = fit_affine_scalar(xs, xs**2).residual

    elapsed = time.time() - t0
    ok = (
        n_instances == 100
        and worst_line <= 1e-12
        and worst_fit <= 1e-12
        and worst_below <= 1e-12
        and worst_ball <= 1e-6
        and abs(bench - 0.5) <= 1e-3
    )
    report_line(6, "minmax-fitting", ok,
                f"d=1 exact fit vs oracle gap {worst_line:.2e} <= 1e-12, d=2 exchange fit vs "
                f"LP-vertex gap {worst_fit:.2e} <= 1e-12 and {worst_below:.2e} below "
                f"it <= 1e-12, on {n_instances} instances, "
                f"enclosing-ball gap {worst_ball:.2e} <= 1e-6, "
                f"parabola benchmark residual {bench:.4f} = 0.5 +- 1e-3; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. regularity stability
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_regularity_stability():
    t0 = time.time()
    alpha = 0.75
    seminorms = {}
    for n in (128, 256):
        per_seed = []
        grid = GridSpec.create(1, n)
        for seed in (1, 2, 3, 4):
            spec = NoiseSpec(alpha=alpha, dim=1, sigma=1.0, master_seed=seed)
            v = solve_linear_constant(NoisePath(spec, grid), None)
            per_seed.append(holder_seminorm(v.gradient, alpha, pair_budget=100_000))
        seminorms[n] = per_seed
    mean_ratio = float(np.mean(seminorms[256]) / np.mean(seminorms[128]))
    stable = abs(mean_ratio - 1.0) <= 0.30

    # uniform-in-basepoint bound for the anisotropic models, across seeds
    grid = GridSpec.create(1, 128)
    A = sine_family(1, 0.5)
    uniform_ok = True
    worst = (0.0, 1.0)
    for seed in (1, 2):
        spec = NoiseSpec(alpha=alpha, dim=1, sigma=1.0, master_seed=seed)
        path = NoisePath(spec, grid)
        u = solve_nonlinear(path, A)
        v = solve_linear_constant(path, None)
        sem_v = holder_seminorm(v.gradient, alpha, pair_budget=100_000)
        rng = np.random.default_rng(11 + seed)
        times = u.state.times
        eligible = np.nonzero(times >= 0.2)[0]
        coeffs = []
        for _ in range(16):
            it = int(eligible[rng.integers(0, len(eligible))])
            ix = int(rng.integers(0, 128))
            coeffs.append(freeze(A, u.gradient.values[it, ix]))
        sup_a = 0.0
        for va in solve_anisotropic_batch(path, coeffs):
            sup_a = max(sup_a, holder_seminorm(va.gradient, alpha, pair_budget=25_000))
        uniform_ok = uniform_ok and sup_a <= 3.0 * sem_v
        if sup_a / sem_v > worst[0] / worst[1]:
            worst = (sup_a, sem_v)

    elapsed = time.time() - t0
    ok = stable and uniform_ok
    report_line(7, "regularity-stability", ok,
                f"mean grad-v seminorm ratio (n=256/n=128) {mean_ratio:.3f} within 30%, "
                f"sup over 16 basepoints x 2 seeds of anisotropic seminorm "
                f"{worst[0]:.2f} <= 3 x {worst[1]:.2f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_reproducibility(out_dir):
    t0 = time.time()

    def collect(base, cfg):
        out = base / cfg.config_hash
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "run_meta.json"
        }

    identical = True
    for idx, (exp, params, grid_n) in enumerate((
        ("noise-diag", {"n_samples": 2000}, 32),
        ("theorem1", {"basepoints": 2, "companion_increment_constant": False}, 128),
    )):
        base = out_dir / f"repro-{exp}"
        cfg = ExperimentConfig.from_dict(dict(
            experiment=exp,
            grid={"dim": 1, "n": grid_n, "t_end": 1.0, "cfl": 0.25},
            noise={"alpha": 0.75, "sigma": 1.0},
            nonlinearity={"kind": "sine", "kappa": 0.5},
            params=params,
            seeds=[5],
            output_dir=str(base),
        ))
        run_experiment(cfg)
        first = collect(base, cfg)
        run_experiment(cfg)
        second = collect(base, cfg)
        identical = identical and first == second and len(first) >= 2

    elapsed = time.time() - t0
    report_line(8, "reproducibility", identical,
                f"byte-identical report bodies and CSVs across reruns for "
                f"noise-diag and theorem1; {elapsed:.0f}s")
