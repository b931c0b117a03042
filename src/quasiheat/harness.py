"""Experiment orchestration: configs, runs, reports, artifacts.

Four batch experiments share the config format:

* ``noise-diag``     -- spectrum export plus Monte Carlo noise self-tests
* ``theorem1``       -- the modelledness experiment: solve the quasilinear
                        equation and its per-basepoint frozen-coefficient
                        models on one path, fit affine corrections on
                        shrinking cylinders, and test that remainder slopes
                        beat the no-model baseline
* ``lemmas``         -- the inequality suite on the synthetic corpus and on
                        simulated fields, with refinement-stability checks
                        on the corpus
* ``apriori-sweep``  -- amplitude sweep relating the linear and nonlinear
                        gradient seminorms

``run_experiment`` is the one runner: it owns what every run shares (seeds,
grid, report, output directory, timing, report files) and calls the body of
the experiment from ``EXPERIMENTS``, which only adds checks, metrics and
artifacts.  Reports are deterministic functions of (config, seed): artifact
bytes are reproducible, wall-clock lives in a sidecar.

``lemmas`` and ``apriori-sweep`` run their n -> 2n refinement pass in one forked
child beside the base pass (``_side_by_side``), which needs ``os.fork`` as the
noise stream does.  The child shares the parent's pages copy-on-write and adds
the 2n pass's own arrays; ``run_meta.json`` gives ``children_maxrss_mb``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
import resource
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np
from numpy.random import Generator, Philox

from .corpus import build_corpus
from .grid import (GridError, GridSpec, ParabolicCylinder, SpaceTimeField, ball_offsets,
                   cylinder_samples, cylinder_window, lattice_shifts)
from .noise import (NOISE_END, NoiseError, NoisePath, NoiseSpec, check_diagnostics_size,
                    covariance_diagnostics, write_spectrum_csv)
from .nonlinearity import (Nonlinearity, NonlinearityError, builtin_family, freeze,
                           increment_averaged_coefficient, validate)
from .regularity import (
    DEFAULTS as REGULARITY_DEFAULTS,
    MIN_RADII,
    ModellingReport,
    RegularityError,
    RegularityParams,
    flux_mismatch,
    holder_seminorm,
    increment_affine_pair,
    increment_constant,
    modelling_remainder,
    time_term_constant,
)
from .fitting import fit_affine_gradient, min_fit_samples
from .solver import SolverDivergenceError, solve_anisotropic_batch


class ConfigError(ValueError):
    pass


_BASEPOINT_TAG = 0xBA5E

# The one default of every key of these config sections; a key not listed is
# rejected, and a value must have its default's JSON type.  The defaults of
# ``params`` are per experiment (``EXPERIMENTS``).
DEFAULTS = {
    "grid": {"dim": 1, "n": 256, "t_end": 1.0, "cfl": 0.25},
    "noise": {"alpha": 0.75, "sigma": 1.0},
    "nonlinearity": {"kind": "sine", "kappa": 0.5, "matrix": None},
    "regularity": REGULARITY_DEFAULTS,
}
_SECTIONS = tuple(DEFAULTS) + ("params",)
# the other config keys but the experiment, each with a value of its JSON type
_TOP_LEVEL = {"seeds": [0], "output_dir": "out", "plots": False}


def _wrong_type(value, default) -> bool:
    """Whether ``value`` lacks the JSON type of ``default``: a number (an
    integral one for an int default), a boolean, a string, or a list of such.
    The one None default, the flux matrix, takes null or a list."""
    if default is None:
        return value is not None and not isinstance(value, list)
    if isinstance(default, list):
        return not isinstance(value, list) or any(_wrong_type(v, default[0]) for v in value)
    if isinstance(default, (bool, str)):
        return not isinstance(value, type(default))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return isinstance(default, int) and not float(value).is_integer()


def _check_type(name: str, value, like) -> None:
    if _wrong_type(value, like):
        raise ConfigError(f"{name} = {value!r} does not have the JSON type of {like!r}")


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a module's rejection of a value is a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (GridError, NoiseError, NonlinearityError, RegularityError) as exc:
        raise ConfigError(str(exc)) from exc


def _omitted(section: str):
    """An omitted section is stored as its defaults without the None ones."""
    return field(default_factory=lambda: {k: v for k, v in DEFAULTS[section].items()
                                          if v is not None})


@dataclass
class ExperimentConfig:
    """A run's config.  ``grid``, ``noise`` and ``nonlinearity`` are stored and
    hashed as given, and read through ``section``; ``params`` and
    ``regularity`` are stored with their defaults merged in."""

    experiment: str
    grid: dict = _omitted("grid")
    noise: dict = _omitted("noise")
    nonlinearity: dict = _omitted("nonlinearity")
    regularity: dict = _omitted("regularity")
    params: dict = field(default_factory=dict)
    seeds: List[int] = field(default_factory=list)
    output_dir: str = "out"
    plots: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {tuple(EXPERIMENTS)}")
        for name in _SECTIONS:
            self._check(name, getattr(self, name))
        for key, like in _TOP_LEVEL.items():
            _check_type(key, getattr(self, key), like)
        self.params = self.section("params")
        self.regularity = self.section("regularity")

    def _defaults(self, name: str) -> dict:
        return EXPERIMENTS[self.experiment].params if name == "params" else DEFAULTS[name]

    def _check(self, name: str, given: dict) -> None:
        if not isinstance(given, dict):
            raise ConfigError(f"config section {name} must be an object, got {given!r}")
        defaults = self._defaults(name)
        unknown = set(given) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}; "
                              f"known: {sorted(defaults)}")
        for key, value in given.items():
            _check_type(f"{name}.{key}", value, defaults[key])

    def section(self, name: str) -> dict:
        """A config section's given keys over its defaults."""
        return {**self._defaults(name), **getattr(self, name)}

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in d:
            raise ConfigError("config must name an experiment")
        return ExperimentConfig(**d)

    @staticmethod
    def from_json_file(path, experiment: Optional[str] = None) -> "ExperimentConfig":
        """Load a config file; ``experiment`` replaces the file's experiment
        before the defaults of the one run are merged into its params."""
        try:
            d = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if experiment is not None:
            d["experiment"] = experiment
        return ExperimentConfig.from_dict(d)

    def apply_override(self, dotted: str, value: str) -> None:
        """Apply a ``section.key=value`` CLI override (JSON-decoded value);
        the key is validated before anything is written."""
        parts = dotted.split(".")
        if len(parts) > 2:
            raise ConfigError("overrides support one nesting level")
        if parts[0] not in self.__dataclass_fields__:
            raise ConfigError(f"unknown config key {parts[0]!r}")
        if parts[0] == "experiment":
            raise ConfigError("the experiment is chosen by the subcommand, not by an override")
        if len(parts) == 2 and parts[0] not in _SECTIONS:
            raise ConfigError(f"unknown config section {parts[0]!r}")
        if parts[0] in _SECTIONS and len(parts) == 1:
            raise ConfigError(f"override {parts[0]} one key at a time: {parts[0]}.<key>")
        try:
            val = json.loads(value)
        except json.JSONDecodeError:
            val = value
        if parts[0] in _SECTIONS:
            self._check(parts[0], {parts[1]: val})
        else:
            _check_type(parts[0], val, _TOP_LEVEL[parts[0]])
        if len(parts) == 1:
            setattr(self, parts[0], val)
        else:
            getattr(self, parts[0])[parts[1]] = val

    # ---- canonical form --------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    # ---- module builders ---------------------------------------------------

    def build_grid(self, refine: int = 1) -> GridSpec:
        """The grid, with ``refine`` times the nodes per axis at the same cfl."""
        g = self.section("grid")
        return _checked(GridSpec.create, dim=int(g["dim"]), n=refine * int(g["n"]),
                        cfl=float(g["cfl"]), t_end=float(g["t_end"]))

    def build_noise_spec(self, seed: int, sigma: float = None) -> NoiseSpec:
        n = self.section("noise")
        return _checked(NoiseSpec, alpha=float(n["alpha"]), dim=int(self.section("grid")["dim"]),
                        sigma=float(n["sigma"]) if sigma is None else sigma, master_seed=int(seed))

    def build_noise_path(self, grid: GridSpec, seed: int, sigma: float = None) -> NoisePath:
        return NoisePath(self.build_noise_spec(seed, sigma), grid)

    def build_nonlinearity(self) -> Nonlinearity:
        nl = self.section("nonlinearity")
        return _checked(builtin_family, kind=nl["kind"], dim=int(self.section("grid")["dim"]),
                        kappa=nl["kappa"], matrix=nl["matrix"])

    def build_regularity(self, grid: GridSpec) -> RegularityParams:
        r = self.regularity
        return _checked(RegularityParams.for_grid, grid, alpha=float(self.section("noise")["alpha"]),
                        r_min_factor=int(r["r_min_factor"]), r_max=float(r["r_max"]),
                        pair_budget=int(r["pair_budget"]), y_budget=int(r["y_budget"]))

    def parameter_block(self) -> dict:
        A = self.build_nonlinearity()
        g, n = self.section("grid"), self.section("noise")
        alpha = float(n["alpha"])
        dim = int(g["dim"])
        return {
            "alpha": alpha,
            "s": 2 * alpha + dim,
            "sigma": float(n["sigma"]),
            "nonlinearity": A.name,
            "kappa": A.params.get("kappa"),
            "lambda": A.lam,
            "Lambda": A.Lam,
            "dim": dim,
            "n": int(g["n"]),
            "cfl": float(g["cfl"]),
        }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@dataclass
class Check:
    name: str
    passed: bool
    value: Optional[float] = None
    threshold: str = ""
    detail: str = ""


@dataclass
class RunReport:
    experiment: str
    config_hash: str
    parameter_block: dict
    checks: List[Check] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    wallclock_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_check(self, name, passed, value=None, threshold="", detail="") -> None:
        self.checks.append(
            Check(name=name, passed=bool(passed),
                  value=None if value is None else float(value),
                  threshold=threshold, detail=detail)
        )

    def add_at_most(self, name, value, cap, detail="") -> None:
        """A check that ``value`` is at most ``cap``."""
        self.add_check(name, value <= cap, value, f"<= {cap}", detail=detail)

    def body_dict(self) -> dict:
        """Deterministic report body; wall-clock is deliberately excluded."""
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "parameters": self.parameter_block,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "metrics": self.metrics,
            "artifacts": self.artifacts,
        }

    def body_json(self) -> str:
        return _json(self.body_dict())


# ---------------------------------------------------------------------------
# The runner skeleton
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """What the runner hands an experiment body."""

    cfg: ExperimentConfig
    grid: GridSpec
    seeds: List[int]
    report: RunReport
    out: Path

    def artifact(self, name: str) -> Path:
        """The path of a new artifact; the report lists it in this order."""
        self.report.artifacts.append(name)
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write_csv(self, name: str, header: list, rows) -> None:
        with self.artifact(name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    t_start = time.time()
    if not cfg.seeds:  # before the output directory is made
        raise ConfigError(
            f"experiment {cfg.experiment!r} samples randomness: provide --seed or config seeds"
        )
    validate_config(cfg)  # before any output, so a run rejects what validate-config does
    grid = cfg.build_grid()
    report = RunReport(cfg.experiment, cfg.config_hash, cfg.parameter_block())
    out = Path(cfg.output_dir) / cfg.config_hash
    EXPERIMENTS[cfg.experiment].body(_Run(cfg, grid, [int(s) for s in cfg.seeds], report, out))
    report.wallclock_s = time.time() - t_start
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.body_json())
    # KiB on Linux: the largest reaped child so far (a noise worker or a 2n pass)
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    (out / "run_meta.json").write_text(_json({"wallclock_s": report.wallclock_s,
                                              "children_maxrss_mb": children_mb,
                                              "config": cfg.to_dict()}))
    return report


def _side_by_side(units: list) -> list:
    """``[unit() for unit in units]``, each unit but the last run in a forked child
    that pickles its result or exception (raised here as it was) into a pipe.  Every
    child is reaped on every exit path; one left writing to a closed pipe ends on EPIPE."""
    reads, pids = [], []
    try:
        for unit in units[:-1]:
            r, w = os.pipe()
            reads.append(r)
            pids.append(os.fork())
            if pids[-1] == 0:  # the child: never returns into the caller's frames
                try:
                    for fd in reads:
                        os.close(fd)
                    try:
                        data = pickle.dumps((True, unit()))
                    except Exception as exc:
                        data = pickle.dumps((False, exc))
                    with open(w, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(0)
            os.close(w)
        last = units[-1]()
        results = []
        for r in reads:
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            if not data:
                raise ChildProcessError("a side-by-side pass exited without its result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results + [last]
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _model_rows(grad: SpaceTimeField, z, r_max: float) -> slice:
    """The snapshot rows of (t' - r_max^2, t'], which hold every cylinder of z
    of radius <= r_max."""
    return cylinder_window(grad, ParabolicCylinder(t=z[0], x=z[1], r=r_max)).slab


def _model_member(A: Nonlinearity):
    """The sweep member for u: with constant DA the quasilinear equation is
    the frozen anisotropic one, so the exact integrator applies to u."""
    return A.linear_matrix if A.is_linear else A


def _solve_u_v(path: NoisePath, A: Nonlinearity, reg: RegularityParams) -> tuple:
    """u, and the alpha-seminorms of grad v and grad u, from one sweep of u and
    the heat model v (nothing reads the states; both are read at every snapshot)."""
    u, v = solve_anisotropic_batch(path, [_model_member(A), None], rows=[slice(None)] * 2)
    return u, {name: holder_seminorm(w.gradient, reg.alpha, pair_budget=reg.pair_budget)
               for name, w in (("grad_v", v), ("grad_u", u))}


def draw_basepoints(
    grid: GridSpec, times: np.ndarray, count: int, seed: int, t_min: float, t_max: float
) -> list:
    """Deterministic basepoints on the snapshot-time x node lattice."""
    eligible = np.nonzero((times >= t_min - 1e-12) & (times <= t_max + 1e-12))[0]
    eligible = eligible[eligible > 0]
    if len(eligible) == 0:
        raise ConfigError("no snapshot times in the basepoint window")
    rng = Generator(Philox(key=np.array([seed, _BASEPOINT_TAG], dtype=np.uint64)))
    out = []
    used = set()
    guard = 0
    while len(out) < count:
        it = int(eligible[int(rng.integers(0, len(eligible)))])
        node = tuple(int(v) for v in rng.integers(0, grid.n, size=grid.dim))
        key = (it, node)
        guard += 1
        if key in used and guard < 100 * count:
            continue
        used.add(key)
        x = tuple(v * grid.dx for v in node)
        out.append((float(times[it]), x[0] if grid.dim == 1 else x))
    return out


# ---------------------------------------------------------------------------
# noise-diag
# ---------------------------------------------------------------------------

def _noise_diag(run: _Run) -> None:
    cfg, grid, report, p = run.cfg, run.grid, run.report, run.cfg.params
    all_diags = {}
    for seed in run.seeds:
        path = cfg.build_noise_path(grid, seed)
        diag = covariance_diagnostics(path, int(p["n_samples"]), int(p["max_lag"]))
        all_diags[str(seed)] = asdict(diag)
        rel = max(diag.covariance_rel_error)
        report.add_at_most(f"covariance_rel_error[seed={seed}]", rel, p["covariance_rtol"],
                           detail=f"lags {diag.lags}")
        report.add_at_most(f"disjoint_step_correlation[seed={seed}]",
                           diag.disjoint_step_correlation, p["whiteness_cap"])
        report.add_at_most(f"imag_residue[seed={seed}]", diag.max_imag_residue,
                           p["imag_residue_cap"])
        report.add_check(f"deterministic_replay[seed={seed}]", diag.deterministic_replay)
        stat_cap = 2.0 * np.sqrt(2.0 * np.log(max(grid.n**grid.dim, 2)))
        report.add_check(
            f"stationarity[seed={seed}]",
            diag.stationarity_max_sigmas <= stat_cap,
            diag.stationarity_max_sigmas, f"<= {stat_cap:.2f} (max-deviation sigmas)",
        )

    write_spectrum_csv(cfg.build_noise_spec(run.seeds[0]), grid, run.artifact("spectrum.csv"))
    run.artifact("diagnostics.json").write_text(_json(all_diags))
    report.metrics["seeds"] = run.seeds


# ---------------------------------------------------------------------------
# theorem1
# ---------------------------------------------------------------------------

def _theorem1(run: _Run) -> None:
    cfg, grid, report, p = run.cfg, run.grid, run.report, run.cfg.params
    A = cfg.build_nonlinearity()
    reg = cfg.build_regularity(grid)
    alpha = reg.alpha

    mreport = ModellingReport(alpha=alpha)
    seminorms = {}
    path_digests = {}
    errors = []

    for seed in run.seeds:
        path = cfg.build_noise_path(grid, seed)
        # every solver below consumes this path; the digest certifies that
        # regenerated increments are shared bit-identically
        path_digests[str(seed)] = path.digest(
            range(0, grid.n_steps, max(1, grid.n_steps // 16))
        )
        try:
            u, seminorms[str(seed)] = _solve_u_v(path, A, reg)
        except SolverDivergenceError as exc:
            errors.append({"seed": seed, "error": str(exc)})
            continue

        zs = draw_basepoints(
            grid, u.gradient.times, int(p["basepoints"]), seed,
            t_min=p["t_min_frac"] * grid.t_end, t_max=min(grid.t_end, NOISE_END),
        )
        coeffs = [freeze(A, u.gradient_at(z)) for z in zs]
        slabs = [_model_rows(u.gradient, z, reg.radii[-1]) for z in zs]
        for z, slab, va in zip(zs, slabs, solve_anisotropic_batch(path, coeffs, rows=slabs)):
            gu = SpaceTimeField(grid, u.gradient.times[slab], u.gradient.values[slab])
            rep = modelling_remainder(
                gu, va.gradient, z, reg,
                with_increment_constant=bool(p["companion_increment_constant"]),
            )
            mreport.add(seed, rep)

    # --- checks -----------------------------------------------------------
    slope_floor = 2 * alpha - p["slope_margin"]
    base_cap = alpha + p["slope_margin"]
    n_entries = len(mreport.entries)
    report.add_check("solver_completed", not errors and n_entries > 0,
                     len(errors), "no divergence", detail=json.dumps(errors))

    if A.is_linear:
        worst = max(
            (max(rep.residuals + rep.residuals_free) for _, rep in mreport.entries),
            default=float("inf"),
        )
        report.add_at_most(
            "degenerate_linear_remainder", worst, p["linear_remainder_tol"],
            detail="exactly linear flux: model equation coincides with the solved one",
        )
    elif n_entries:
        slopes = mreport.slopes()
        bslopes = mreport.baseline_slopes()
        frac_model = float(np.mean([s >= slope_floor for s in slopes])) if slopes else 0.0
        frac_base = float(np.mean([s <= base_cap for s in bslopes])) if bslopes else 0.0
        report.add_check(
            "modelled_slope_fraction", frac_model >= p["pass_fraction"], frac_model,
            f">= {p['pass_fraction']} at slope >= {slope_floor}",
            detail=f"{len(slopes)} basepoints",
        )
        report.add_check(
            "baseline_slope_fraction", frac_base >= p["pass_fraction"], frac_base,
            f">= {p['pass_fraction']} at slope <= {base_cap}",
        )
        bgap_ok = all(
            rep.b_gap <= rep.residuals_free[0] for _, rep in mreport.entries
        )
        report.add_check(
            "constant_term_recovery", bgap_ok, None,
            "free-b fit at the smallest radius returns the basepoint value",
        )

    report.metrics["modelling_constant"] = mreport.m_global
    report.metrics["seminorms"] = seminorms
    report.metrics["path_digests"] = path_digests
    report.metrics["degenerate_linear"] = A.is_linear
    report.metrics["n_basepoints"] = n_entries
    report.metrics["slopes"] = mreport.slopes()
    report.metrics["baseline_slopes"] = mreport.baseline_slopes()

    # --- artifacts ----------------------------------------------------------
    run.artifact("modelling_report.json").write_text(_json(mreport.to_dict()))
    run.write_csv(
        "remainder.csv",
        ["z_id", "seed", "r", "residual", "residual_free", "baseline_rms", "slope",
         "baseline_slope"],
        ([z_id, seed, repr(r), repr(res), repr(resf), repr(base),
          repr(rep.slope) if rep.slope is not None else "",
          repr(rep.baseline_slope) if rep.baseline_slope is not None else ""]
         for z_id, (seed, rep) in enumerate(mreport.entries)
         for r, res, resf, base in zip(rep.radii, rep.residuals,
                                       rep.residuals_free, rep.baseline_values)),
    )

    if cfg.plots and n_entries:
        from .plots import loglog_svg

        series = [
            (f"z{z_id}", rep.radii, rep.residuals)
            for z_id, (_, rep) in enumerate(mreport.entries)
            if max(rep.residuals) > 0
        ]
        if series:
            loglog_svg(series, run.artifact("remainder.svg"),
                       guides=[2 * alpha, alpha],
                       title="modelled remainder vs radius")


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def _affine_sup(grad: SpaceTimeField, z, radii, alpha, spacetime: bool) -> float:
    """sup_r r^(-2 alpha) inf_(B,b) ||grad f - B(x - x') - b|| over P_r(z), or
    over the ball B_r(x') at time t' alone when not ``spacetime``."""
    best = 0.0
    for r in radii:
        cs = cylinder_samples(grad, ParabolicCylinder(t=z[0], x=z[1], r=float(r)))
        x, v = cs.flat() if spacetime else (cs.xrel, cs.values[-1])
        res = fit_affine_gradient(x, v).residual
        best = max(best, res / float(r) ** (2 * alpha))
    return best


def _ratio(lhs: float, rhs: float, tol: float) -> Optional[float]:
    if rhs <= tol:
        return None if lhs <= tol else float("inf")
    return lhs / rhs


def _small_radii(radii) -> list:
    """The lemma suite's shift scales: the 3r cylinders must fit in the torus."""
    return [r for r in radii if 3 * r < 0.5 and r <= 0.126]


_LEMMA_FAMILIES = (
    "affine_from_increments_space",
    "affine_from_increments_spacetime",
    "increment_affine_transfer",
    "coefficient_holder_ratio",
    "flux_mismatch_holder",
)


def _flux_holder_ratios(A, grad, z, l, shifts, reg) -> list:
    """[(a_y - a(z)) delta_y grad]_alpha on P_2l against l^alpha [grad]_alpha
    on P_3l, for each shift y.  The mismatch is computed on P_2l's snapshot
    rows only, with a(z) frozen once."""
    def cyl(k):  # P_kl(z)
        return ParabolicCylinder(t=z[0], x=z[1], r=k * float(l))

    def semi(f, k):
        return holder_seminorm(f, reg.alpha, region=cyl(k), pair_budget=reg.pair_budget // 10)

    rhs = float(l) ** reg.alpha * semi(grad, 3)
    slab = cylinder_window(grad, cyl(2)).slab
    rows = SpaceTimeField(grad.grid, grad.times[slab], grad.values[slab])
    a_z = freeze(A, grad.value_at(*z)).matrix
    return [_ratio(semi(flux_mismatch(A, rows, y, a_z), 2), rhs, 1e-11) for y in shifts]


def _lemma_constants(cfg: ExperimentConfig, grid: GridSpec, seeds: List[int]) -> dict:
    """Empirical constants of every inequality family at one resolution.

    The deterministic corpus drives every family (the product and
    interpolation estimates hold for any Hoelder field, not only solutions),
    which keeps the n -> 2n comparison meaningful: the corpus is the same
    analytic data at both resolutions.  Simulated fields are measured
    separately; their sup-statistics differ realization-to-realization
    across resolutions and only feed the cap checks.  Empty ``seeds`` measure
    the corpus only: no solve runs.
    """
    A = cfg.build_nonlinearity()
    reg = cfg.build_regularity(grid)
    p = cfg.params
    alpha = reg.alpha
    ztol = p["zero_tol"]
    radii_ball = [r for r in reg.radii if r <= 0.25]
    radii_small = _small_radii(reg.radii)
    # fixed physical shift so the coefficient family compares like for like across n
    y0 = lattice_shifts(grid, max(radii_small), budget=1)[0]
    corpus = build_corpus(grid, n_random=int(p["n_random"]), r_max=max(radii_ball))
    # each shift scale with its shifts for the affine transfer and for the flux mismatch
    scales = [(l, lattice_shifts(grid, l, budget=4), lattice_shifts(grid, l, budget=2))
              for l in radii_small]

    corpus_consts = {name: 0.0 for name in _LEMMA_FAMILIES}
    sim_consts = {name: 0.0 for name in _LEMMA_FAMILIES}
    zero_worst = 0.0

    def bump(table, name, value):
        if value is not None and np.isfinite(value):
            table[name] = max(table[name], value)

    def spacetime_ratio(grad, scalar, z):
        lhs = _affine_sup(grad, z, radii_ball, alpha, spacetime=True)
        rhs = increment_constant(grad, z, reg, spacetime=True) + time_term_constant(scalar, z, reg)
        return _ratio(lhs, rhs, ztol)

    def coefficient_ratio(grad, grad_semi):
        ay = increment_averaged_coefficient(A, grad, y0)
        return _ratio(holder_seminorm(ay, alpha, pair_budget=reg.pair_budget // 4), grad_semi, ztol)

    for entry in corpus:
        z = entry.basepoint
        lhs_space = _affine_sup(entry.gradient, z, radii_ball, alpha, spacetime=False)
        n_space = increment_constant(entry.gradient, z, reg, spacetime=False)
        if entry.expect_zero_increment_constant:
            zero_worst = max(zero_worst, lhs_space, n_space)
        bump(corpus_consts, "affine_from_increments_space", _ratio(lhs_space, n_space, ztol))

        if entry.time_dependent:
            bump(corpus_consts, "affine_from_increments_spacetime",
                 spacetime_ratio(entry.gradient, entry.scalar, z))

        gf_semi = holder_seminorm(entry.gradient, alpha, pair_budget=reg.pair_budget // 4)
        bump(corpus_consts, "coefficient_holder_ratio", coefficient_ratio(entry.gradient, gf_semi))

        for l, pair_ys, flux_ys in scales:
            for lhs, rhs in increment_affine_pair(entry.scalar, entry.gradient, z, pair_ys, l):
                if entry.expect_zero_affine_residual:
                    zero_worst = max(zero_worst, lhs)
                bump(corpus_consts, "increment_affine_transfer", _ratio(lhs, rhs, ztol))
            if not entry.expect_zero_increment_constant:
                for ratio in _flux_holder_ratios(A, entry.gradient, z, l, flux_ys, reg):
                    bump(corpus_consts, "flux_mismatch_holder", ratio)

    # simulated gradient fields exercise the same families on real solutions;
    # u advances through the flux step even when A is linear
    for seed in seeds:
        (u,) = solve_anisotropic_batch(cfg.build_noise_path(grid, seed), [A])
        gu = u.gradient
        su_global = holder_seminorm(gu, alpha, pair_budget=reg.pair_budget)
        zs = draw_basepoints(grid, u.state.times, int(p["sim_basepoints"]), seed,
                             t_min=0.2 * grid.t_end, t_max=grid.t_end)
        for z in zs:
            bump(sim_consts, "affine_from_increments_spacetime", spacetime_ratio(gu, u.state, z))
            for l, _, flux_ys in scales[:2]:
                for lhs, rhs in increment_affine_pair(u.state, gu, z, flux_ys, l):
                    bump(sim_consts, "increment_affine_transfer", _ratio(lhs, rhs, ztol))
                for ratio in _flux_holder_ratios(A, gu, z, l, flux_ys, reg):
                    bump(sim_consts, "flux_mismatch_holder", ratio)
        bump(sim_consts, "coefficient_holder_ratio", coefficient_ratio(gu, su_global))

    return {
        "constants": corpus_consts,
        "sim_constants": sim_consts,
        "zero_worst": zero_worst,
    }


def _lemmas(run: _Run) -> None:
    cfg, report, p = run.cfg, run.report, run.cfg.params
    # refinement stability is judged on the deterministic corpus, which is the
    # same analytic data at both resolutions; no field is simulated at 2n, and
    # the 2n pass reads nothing of the n pass, so it runs in a child beside it
    units = [lambda: _lemma_constants(cfg, run.grid, run.seeds)]
    if p["refine"]:
        units.insert(0, lambda: _lemma_constants(cfg, cfg.build_grid(refine=2), []))
    *refined, res_n = _side_by_side(units)
    cap = p["constant_cap"]
    for name in _LEMMA_FAMILIES:
        val = max(res_n["constants"][name], res_n["sim_constants"][name])
        limit = p["coefficient_ratio_cap"] if name == "coefficient_holder_ratio" else cap
        report.add_at_most(name, val, limit,
                           detail=f"corpus {res_n['constants'][name]:.4g}, "
                                  f"simulated {res_n['sim_constants'][name]:.4g}")
    report.add_at_most("zero_families_vanish", res_n["zero_worst"], p["zero_tol"],
                       detail="affine/quadratic corpus entries")

    refine = {}
    for res_2n in refined:
        for name in _LEMMA_FAMILIES:
            val = res_n["constants"][name]
            v2 = res_2n["constants"][name]
            if val <= p["zero_tol"]:
                change = 0.0 if v2 <= p["zero_tol"] else float("inf")
            else:
                change = abs(v2 - val) / val
            refine[name] = {"n": val, "2n": v2, "rel_change": change}
            report.add_at_most(f"refinement_stability[{name}]", change, p["refine_rel_change"])

    report.metrics["constants"] = res_n["constants"]
    report.metrics["sim_constants"] = res_n["sim_constants"]
    report.metrics["refinement"] = refine
    unrefined = {"2n": "", "rel_change": ""}
    run.write_csv(
        "constants.csv", ["family", "constant", "constant_sim", "constant_2n", "rel_change"],
        ([name, repr(res_n["constants"][name]), repr(res_n["sim_constants"][name]),
          repr(refine.get(name, unrefined)["2n"]),
          repr(refine.get(name, unrefined)["rel_change"])] for name in _LEMMA_FAMILIES),
    )


# ---------------------------------------------------------------------------
# apriori-sweep
# ---------------------------------------------------------------------------

def _apriori_sweep(run: _Run) -> None:
    cfg, grid, report, p = run.cfg, run.grid, run.report, run.cfg.params
    A = cfg.build_nonlinearity()
    reg = cfg.build_regularity(grid)
    alpha = reg.alpha

    sigmas = [float(s) for s in p["sigmas"]]
    rows = []
    failures = []

    def sweep():
        for seed in run.seeds:
            for sigma in sigmas:
                path = cfg.build_noise_path(grid, seed, sigma=sigma)
                try:
                    _, seminorms = _solve_u_v(path, A, reg)
                except SolverDivergenceError as exc:
                    failures.append({"seed": seed, "sigma": sigma, "error": str(exc)})
                    continue
                rows.append({"seed": seed, "sigma": sigma, **seminorms})

    def refined():  # the first seed at sigma = 1 at 2n; a divergence is raised only with a base
        path2 = cfg.build_noise_path(cfg.build_grid(refine=2), run.seeds[0], sigma=1.0)
        try:
            (u2,) = solve_anisotropic_batch(path2, [_model_member(A)], rows=[slice(None)])
        except SolverDivergenceError as exc:
            return exc
        return holder_seminorm(u2.gradient, alpha, pair_budget=reg.pair_budget)

    su2 = _side_by_side([refined, sweep] if p["refine"] else [sweep])[0]  # read when refining

    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], []).append(row)

    lin_ok, mono_ok, finite_ok = True, True, True
    for seed, rws in by_seed.items():
        rws.sort(key=lambda r: r["sigma"])
        for a, b in zip(rws, rws[1:]):
            if a["sigma"] > 0 and a["grad_v"] > 0:
                fac = b["sigma"] / a["sigma"]
                if abs(b["grad_v"] / a["grad_v"] - fac) > p["scaling_rtol"] * fac:
                    lin_ok = False
            if b["grad_u"] < a["grad_u"] * (1 - 1e-9):
                mono_ok = False
        finite_ok = finite_ok and all(np.isfinite(r["grad_u"]) for r in rws)

    report.add_check("linear_seminorm_scaling", lin_ok, None,
                     "grad_v seminorm scales exactly with sigma")
    report.add_check("nonlinear_seminorm_monotone", mono_ok, None,
                     "grad_u seminorm nondecreasing in sigma per seed")
    report.add_check("seminorms_finite", finite_ok)
    report.add_check("sweep_completed", not failures, len(failures),
                     "no solver divergence", detail=json.dumps(failures))

    # report-only power-law fit of grad_u against grad_v
    xs = [r["grad_v"] for r in rows if r["grad_v"] > 0 and r["grad_u"] > 0]
    ys = [r["grad_u"] for r in rows if r["grad_v"] > 0 and r["grad_u"] > 0]
    exponent = None
    if len(xs) >= 3:
        exponent = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    report.metrics["power_law_exponent"] = exponent

    # the first seed at sigma = 1 against the same run at n -> 2n
    base = [r for r in rows if r["seed"] == run.seeds[0] and r["sigma"] == 1.0]
    if p["refine"] and base:
        if isinstance(su2, SolverDivergenceError):
            raise su2
        ratio = su2 / base[0]["grad_u"] if base[0]["grad_u"] > 0 else float("inf")
        cap = p["refine_ratio_cap"]
        report.add_check("refinement_stability", 1.0 / cap <= ratio <= cap, ratio,
                         f"within [{1/cap:.3f}, {cap}]")

    report.metrics["rows"] = rows
    run.write_csv(
        "sweep.csv", ["seed", "sigma", "grad_v_seminorm", "grad_u_seminorm"],
        ([r["seed"], repr(r["sigma"]), repr(r["grad_v"]), repr(r["grad_u"])] for r in rows),
    )


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------

def _check_noise_diag(cfg: ExperimentConfig, grid: GridSpec, reg: RegularityParams) -> None:
    _checked(check_diagnostics_size, grid, int(cfg.params["n_samples"]), int(cfg.params["max_lag"]))


def _check_theorem1(cfg: ExperimentConfig, grid: GridSpec, reg: RegularityParams) -> None:
    _check_radii(grid, reg, len(reg.radii) >= MIN_RADII, f"theorem1 fits slopes over at least {MIN_RADII} radii")


def _check_lemmas(cfg: ExperimentConfig, grid: GridSpec, reg: RegularityParams) -> None:
    _check_radii(grid, reg, bool(_small_radii(reg.radii)), "lemmas needs a radius r <= 1/8 with 3r < 1/2")


def _check_radii(grid: GridSpec, reg: RegularityParams, enough: bool, rule: str) -> None:
    """Raise unless the radii are ``enough`` and the smallest holds an affine fit's nodes."""
    radii = reg.radii.tolist()
    if not enough:
        raise ConfigError(f"{rule}, got {radii}; lower regularity.r_min_factor or raise grid.n")
    d = grid.dim  # a free gradient fit has the d(d + 1)/2 entries of sym(B) and the d of b
    nodes, need = len(ball_offsets(grid, radii[0])[2]), min_fit_samples(d * (d + 3) // 2)
    if nodes < need:
        raise ConfigError(f"the smallest radius {radii[0]} holds {nodes} grid node(s), fewer "
                          f"than the {need} an affine fit needs; raise regularity.r_min_factor")


def _check_apriori_sweep(cfg: ExperimentConfig, grid: GridSpec, reg: RegularityParams) -> None:
    sigmas = [float(s) for s in cfg.params["sigmas"]]
    if not sigmas:
        raise ConfigError("params.sigmas is empty: the sweep would check nothing")
    for sigma in sigmas:
        cfg.build_noise_spec(0, sigma=sigma)
    if cfg.params["refine"] and 1.0 not in sigmas:
        raise ConfigError(f"params.refine compares the sigma = 1.0 run at n and 2n, but "
                          f"params.sigmas = {sigmas} lacks 1.0; add it or set refine false")


class Experiment(NamedTuple):
    body: Callable[[_Run], None]  # adds the experiment's checks, metrics and artifacts
    check: Callable[[ExperimentConfig, GridSpec, RegularityParams], None]  # raises ConfigError on a bad config
    params: dict  # the defaults of ``params``; a key not listed is rejected


EXPERIMENTS = {
    "noise-diag": Experiment(_noise_diag, _check_noise_diag, {
        "n_samples": 10_000,
        "max_lag": 4,
        "covariance_rtol": 0.05,
        "whiteness_cap": 0.05,
        "imag_residue_cap": 1e-12,
    }),
    "theorem1": Experiment(_theorem1, _check_theorem1, {
        "basepoints": 16,
        "slope_margin": 0.25,
        "pass_fraction": 0.8,
        "t_min_frac": 0.2,
        "linear_remainder_tol": 1e-9,
        "companion_increment_constant": True,
    }),
    "lemmas": Experiment(_lemmas, _check_lemmas, {
        "constant_cap": 50.0,
        "coefficient_ratio_cap": 1.05,
        "refine_rel_change": 0.5,
        "zero_tol": 1e-9,
        "n_random": 20,
        "sim_basepoints": 3,
        "refine": True,
    }),
    "apriori-sweep": Experiment(_apriori_sweep, _check_apriori_sweep, {
        "sigmas": [0.25, 0.5, 1.0, 2.0],
        "scaling_rtol": 1e-9,
        "refine_ratio_cap": 1.5,
        "refine": True,
    }),
}


def validate_config(cfg: ExperimentConfig) -> dict:
    """Construct every module object the config references; raise on errors.
    ``n_steps`` and ``n_snapshots`` give the size of one solve."""
    grid = cfg.build_grid()
    A = cfg.build_nonlinearity()
    cert = validate(A)
    spec = [cfg.build_noise_spec(seed) for seed in cfg.seeds or [0]][0]
    reg = cfg.build_regularity(grid)
    EXPERIMENTS[cfg.experiment].check(cfg, grid, reg)
    return {
        "config_hash": cfg.config_hash,
        "grid": asdict(grid),
        "n_steps": grid.n_steps,
        "n_snapshots": len(grid.snapshot_times()),
        "noise": asdict(spec),
        "nonlinearity": asdict(cert),
        "radii": [float(r) for r in reg.radii],
        "parameters": cfg.parameter_block(),
    }
