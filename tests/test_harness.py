import json
import os
import signal
import time

import numpy as np
import pytest

from quasiheat.cli import _config_from_args, build_parser
from quasiheat.cli import main as cli_main
from quasiheat.grid import GridSpec
from quasiheat.harness import (
    ConfigError,
    ExperimentConfig,
    _side_by_side,
    draw_basepoints,
    run_experiment,
    validate_config,
)
from quasiheat.nonlinearity import NonlinearityError, builtin_family


def noise_cfg(tmp_path, **over):
    base = dict(
        experiment="noise-diag",
        grid={"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        params={"n_samples": 1500, "covariance_rtol": 0.12},
        seeds=[3],
        output_dir=str(tmp_path / "out"),
    )
    base.update(over)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "noise-diag", "bogus": 1})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "frobnicate"})


def test_defaults_merged():
    cfg = ExperimentConfig(experiment="theorem1")
    assert cfg.params["basepoints"] == 16
    assert cfg.params["slope_margin"] == 0.25
    assert cfg.regularity["pair_budget"] == 100_000


def test_hash_tracks_content(tmp_path):
    a = noise_cfg(tmp_path)
    b = noise_cfg(tmp_path)
    assert a.config_hash == b.config_hash
    c = noise_cfg(tmp_path, noise={"alpha": 0.8, "sigma": 1.0})
    assert c.config_hash != a.config_hash


def test_override_applies(tmp_path):
    cfg = noise_cfg(tmp_path)
    cfg.apply_override("grid.n", "64")
    assert cfg.grid["n"] == 64
    cfg.apply_override("params.n_samples", "2000")
    assert cfg.params["n_samples"] == 2000
    with pytest.raises(ConfigError):
        cfg.apply_override("nosuch.key", "1")


def test_override_validates_before_writing(tmp_path):
    cfg = noise_cfg(tmp_path)
    before = cfg.to_dict()
    with pytest.raises(ConfigError):
        cfg.apply_override("params.a.b", "1")
    with pytest.raises(ConfigError):
        cfg.apply_override("foo", "1")
    with pytest.raises(ConfigError):
        cfg.apply_override("seeds.x", "1")
    with pytest.raises(ConfigError):  # would keep the old experiment's params
        cfg.apply_override("experiment", '"lemmas"')
    assert cfg.to_dict() == before
    assert not hasattr(cfg, "foo")


def test_cli_experiment_switch_uses_file_keys_only(tmp_path):
    raw = {
        "experiment": "theorem1",
        "grid": {"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        "params": {"refine": False},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_file = tmp_path / "t.json"
    cfg_file.write_text(json.dumps(raw))
    args = build_parser().parse_args(["lemmas", "--config", str(cfg_file)])
    cfg = _config_from_args(args, "lemmas")
    assert cfg.experiment == "lemmas"
    assert "basepoints" not in cfg.params and "slope_margin" not in cfg.params
    direct = ExperimentConfig.from_dict(dict(raw, experiment="lemmas"))
    assert cfg.config_hash == direct.config_hash


def test_validate_config(tmp_path):
    summary = validate_config(noise_cfg(tmp_path))
    assert summary["parameters"]["s"] == pytest.approx(2.5)
    assert summary["grid"]["n"] == 32
    assert len(summary["radii"]) >= 2
    # the size of one solve: dt = cfl/n^2 to t_end = 1, a snapshot every snap_stride steps
    assert summary["n_steps"] == 4096
    assert summary["n_snapshots"] == 4096 // summary["grid"]["snap_stride"] + 1 == 65


def test_config_hash_pinned():
    """Output directories are named by the hash; these are its values since
    the report format was fixed."""
    headline = {
        "experiment": "theorem1",
        "grid": {"dim": 1, "n": 256, "t_end": 1.0, "cfl": 0.25},
        "noise": {"alpha": 0.75, "sigma": 1.0},
        "nonlinearity": {"kind": "sine", "kappa": 0.5},
        "params": {"basepoints": 16},
        "seeds": [1, 2, 3, 4],
        "output_dir": "out",
    }
    assert ExperimentConfig.from_dict(headline).config_hash == "fb186d12c4f6"
    assert ExperimentConfig(experiment="noise-diag").config_hash == "9495a93bd2d7"
    partial = ExperimentConfig(experiment="lemmas", grid={"n": 64},
                               nonlinearity={"kind": "linear", "matrix": [[0.8]]})
    assert partial.config_hash == "2e6c231a1ab7"  # sections are hashed as given


def test_unknown_grid_noise_nonlinearity_keys_rejected(tmp_path):
    for section, given in (("grid", {"dim": 1, "nn": 64}),
                           ("noise", {"alpha": 0.75, "sigm": 2.0}),
                           ("nonlinearity", {"kind": "sine", "kapa": 0.2})):
        with pytest.raises(ConfigError, match=f"unknown {section} keys"):
            ExperimentConfig.from_dict({"experiment": "theorem1", section: given})
    cfg = noise_cfg(tmp_path)
    before = cfg.to_dict()
    for dotted, value in (("grid.nn", "64"), ("noise.sigm", "2.0"),
                          ("nonlinearity.kapa", "0.2"), ("grid", '{"n": 64}'),
                          ("grid.n=64", "64")):
        with pytest.raises(ConfigError):
            cfg.apply_override(dotted, value)
    assert cfg.to_dict() == before
    cfg.apply_override("nonlinearity.matrix", "[[0.8]]")
    assert cfg.nonlinearity["matrix"] == [[0.8]]


def test_omitted_kappa_takes_the_one_default():
    cfg = ExperimentConfig(experiment="theorem1", nonlinearity={"kind": "sine"})
    assert cfg.nonlinearity == {"kind": "sine"}  # stored as given
    A = cfg.build_nonlinearity()
    assert A.params["kappa"] == 0.5 and not A.is_linear
    assert cfg.parameter_block() == ExperimentConfig(experiment="theorem1").parameter_block()


# ---------------------------------------------------------------------------
# basepoints
# ---------------------------------------------------------------------------

def test_basepoints_deterministic_and_in_window():
    grid = GridSpec.create(1, 64)
    times = grid.snapshot_times()
    a = draw_basepoints(grid, times, 8, seed=5, t_min=0.2, t_max=1.0)
    b = draw_basepoints(grid, times, 8, seed=5, t_min=0.2, t_max=1.0)
    assert a == b
    assert len(a) == 8
    for t, x in a:
        assert 0.2 - 1e-12 <= t <= 1.0 + 1e-12
        assert 0.0 <= x < 1.0
    c = draw_basepoints(grid, times, 8, seed=6, t_min=0.2, t_max=1.0)
    assert c != a


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_noise_diag_run_and_artifacts(tmp_path):
    cfg = noise_cfg(tmp_path)
    report = run_experiment(cfg)
    assert report.passed
    out = tmp_path / "out" / cfg.config_hash
    assert (out / "report.json").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "diagnostics.json").exists()
    body = json.loads((out / "report.json").read_text())
    assert body["config_hash"] == cfg.config_hash
    assert body["parameters"]["alpha"] == 0.75
    assert "wallclock" not in json.dumps(body)


def test_noise_diag_byte_identical_rerun(tmp_path):
    cfg = noise_cfg(tmp_path)
    run_experiment(cfg)
    out = tmp_path / "out" / cfg.config_hash
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"}
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"}
    assert first == second


def test_requires_seeds(tmp_path):
    cfg = noise_cfg(tmp_path, seeds=[])
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()  # raised before the output directory is made


_TINY = {
    "noise-diag": {"grid": {"dim": 1, "n": 32},
                   "params": {"n_samples": 1000, "covariance_rtol": 0.2}},
    "theorem1": {"grid": {"dim": 1, "n": 64}, "regularity": {"r_min_factor": 2},
                 "params": {"basepoints": 2, "companion_increment_constant": False}},
    "lemmas": {"grid": {"dim": 1, "n": 32}, "params": {"n_random": 2, "sim_basepoints": 1}},
    "apriori-sweep": {"grid": {"dim": 1, "n": 32}, "params": {"sigmas": [0.5, 1.0]}},
}


@pytest.mark.parametrize("experiment", list(_TINY))
def test_run_experiment_writes_report_meta_and_listed_artifacts(tmp_path, experiment):
    cfg = ExperimentConfig.from_dict(dict(_TINY[experiment], experiment=experiment, seeds=[2],
                                          output_dir=str(tmp_path / "out")))
    report = run_experiment(cfg)
    out = tmp_path / "out" / cfg.config_hash
    assert report.artifacts and report.checks
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["report.json", "run_meta.json"] + report.artifacts)
    body = (out / "report.json").read_text()
    assert body == report.body_json()
    assert "wallclock" not in body
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["wallclock_s"] == report.wallclock_s > 0
    assert meta["children_maxrss_mb"] > 0 and "maxrss" not in body  # every run forks
    assert meta["config"] == cfg.to_dict()


def theorem1_small_cfg(tmp_path, **over):
    base = dict(
        experiment="theorem1",
        grid={"dim": 1, "n": 128, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        params={"basepoints": 3, "companion_increment_constant": False},
        seeds=[1],
        output_dir=str(tmp_path / "out"),
    )
    base.update(over)
    return ExperimentConfig.from_dict(base)


def test_theorem1_small_run(tmp_path):
    cfg = theorem1_small_cfg(tmp_path)
    cfg.plots = True
    report = run_experiment(cfg)
    out = tmp_path / "out" / cfg.config_hash
    assert (out / "modelling_report.json").exists()
    assert (out / "remainder.csv").exists()
    assert (out / "remainder.svg").exists()
    names = [c.name for c in report.checks]
    assert "modelled_slope_fraction" in names
    assert "baseline_slope_fraction" in names
    assert "constant_term_recovery" in names
    assert report.metrics["n_basepoints"] == 3
    assert len(report.metrics["path_digests"]["1"]) == 64  # sha256 hex
    body = json.loads((out / "report.json").read_text())
    assert body["parameters"]["kappa"] == 0.5
    assert body["parameters"]["lambda"] == pytest.approx(1 / 3)


def test_theorem1_degenerate_linear(tmp_path):
    cfg = theorem1_small_cfg(
        tmp_path,
        nonlinearity={"kind": "sine", "kappa": 0.0},
        params={"basepoints": 2, "companion_increment_constant": False},
    )
    report = run_experiment(cfg)
    assert report.metrics["degenerate_linear"]
    names = {c.name: c for c in report.checks}
    assert names["degenerate_linear_remainder"].passed
    assert names["degenerate_linear_remainder"].value <= 1e-9


def test_apriori_small(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        experiment="apriori-sweep",
        grid={"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        params={"sigmas": [0.5, 1.0], "refine": False},
        seeds=[2],
        output_dir=str(tmp_path / "out"),
    ))
    report = run_experiment(cfg)
    names = {c.name: c for c in report.checks}
    assert names["linear_seminorm_scaling"].passed
    assert names["seminorms_finite"].passed
    assert (tmp_path / "out" / cfg.config_hash / "sweep.csv").exists()


def test_apriori_zero_amplitude(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        experiment="apriori-sweep",
        grid={"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        params={"sigmas": [0.0, 1.0], "refine": False},
        seeds=[2],
        output_dir=str(tmp_path / "out0"),
    ))
    report = run_experiment(cfg)
    assert report.passed
    zero_rows = [r for r in report.metrics["rows"] if r["sigma"] == 0.0]
    assert zero_rows and all(r["grad_u"] == 0.0 for r in zero_rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_config(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(noise_cfg(tmp_path).to_dict()))
    rc = cli_main(["validate-config", "--config", str(cfg_file)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert "config_hash" in summary
    assert (summary["n_steps"], summary["n_snapshots"]) == (4096, 65)


def test_cli_noise_diag_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(noise_cfg(tmp_path).to_dict()))
    rc = cli_main(["noise-diag", "--config", str(cfg_file), "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out


def test_cli_requires_seed(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    d = noise_cfg(tmp_path).to_dict()
    d["seeds"] = []
    cfg_file.write_text(json.dumps(d))
    rc = cli_main(["noise-diag", "--config", str(cfg_file)])
    assert rc == 2


def test_cli_override(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(noise_cfg(tmp_path).to_dict()))
    rc = cli_main([
        "noise-diag", "--config", str(cfg_file), "--seed", "4",
        "--set", "params.n_samples=1200",
    ])
    assert rc == 0


def test_cli_apriori_and_lemmas(tmp_path, capsys):
    cfg_file = tmp_path / "a.json"
    cfg_file.write_text(json.dumps(dict(
        experiment="apriori-sweep",
        grid={"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        params={"sigmas": [0.5, 1.0], "refine": False},
        output_dir=str(tmp_path / "out-a"),
    )))
    assert cli_main(["apriori-sweep", "--config", str(cfg_file), "--seed", "6"]) == 0

    cfg_file2 = tmp_path / "l.json"
    cfg_file2.write_text(json.dumps(dict(
        experiment="lemmas",
        grid={"dim": 1, "n": 32, "t_end": 1.0, "cfl": 0.25},
        noise={"alpha": 0.75, "sigma": 1.0},
        nonlinearity={"kind": "sine", "kappa": 0.5},
        params={"n_random": 3, "sim_basepoints": 1, "refine": False},
        output_dir=str(tmp_path / "out-l"),
    )))
    assert cli_main(["lemmas", "--config", str(cfg_file2), "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_refined_lemma_run_solves_once_per_seed_on_the_base_grid(tmp_path, monkeypatch):
    # the n -> 2n check compares corpus constants: no field is simulated at 2n
    # (the 2n pass runs in a forked child: each call appends its grid to a file)
    import quasiheat.harness as harness

    log = tmp_path / "grids"
    log.write_text("")
    inner = harness.solve_anisotropic_batch

    def counted(path, *args, **kwargs):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{path.grid!r}\n".encode())
        finally:
            os.close(fd)
        return inner(path, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_anisotropic_batch", counted)
    cfg = ExperimentConfig.from_dict({
        "experiment": "lemmas", "grid": {"n": 32}, "seeds": [1, 2],
        "params": {"n_random": 3, "sim_basepoints": 1, "refine": True},
        "output_dir": str(tmp_path)})
    report = run_experiment(cfg)
    assert set(report.metrics["refinement"]) == set(harness._LEMMA_FAMILIES)
    assert log.read_text().splitlines() == [repr(cfg.build_grid())] * 2


def test_unknown_params_and_regularity_keys_rejected():
    with pytest.raises(ConfigError, match="basepoint"):
        ExperimentConfig.from_dict({"experiment": "theorem1", "params": {"basepoint": 4}})
    with pytest.raises(ConfigError, match="refine"):  # a lemmas key, not a theorem1 one
        ExperimentConfig.from_dict({"experiment": "theorem1", "params": {"refine": False}})
    with pytest.raises(ConfigError, match="pair_budgt"):
        ExperimentConfig.from_dict({"experiment": "lemmas", "regularity": {"pair_budgt": 10}})
    ok = ExperimentConfig.from_dict({
        "experiment": "theorem1", "params": {"basepoints": 4},
        "regularity": {"r_min_factor": 2, "r_max": 0.2, "pair_budget": 10, "y_budget": 4},
    })
    assert ok.params["basepoints"] == 4 and ok.regularity["r_min_factor"] == 2


def test_override_rejects_unknown_params_and_regularity_keys(tmp_path):
    cfg = noise_cfg(tmp_path)
    before = cfg.to_dict()
    for dotted, value in (("params.n_sample", "10"), ("params.basepoints", "4"),
                          ("regularity.pair_budgt", "10"), ("params", '{"n_samples": 10}'),
                          ("regularity", "{}")):
        with pytest.raises(ConfigError):
            cfg.apply_override(dotted, value)
    assert cfg.to_dict() == before
    cfg.apply_override("regularity.y_budget", "8")
    assert cfg.regularity["y_budget"] == 8


def test_null_kappa_rejected(tmp_path, capsys):
    """kappa has one default (0.5); an explicit null is an error, not a linear flux."""
    with pytest.raises(ConfigError, match="kappa"):
        ExperimentConfig.from_dict({"experiment": "theorem1",
                                    "nonlinearity": {"kind": "sine", "kappa": None}})
    assert cli_main(["validate-config", "--set", "nonlinearity.kappa=null"]) == 2
    assert "config error" in capsys.readouterr().err


def test_a_matrix_with_the_sine_flux_rejected(tmp_path, monkeypatch, capsys):
    """The sine flux takes kappa; a matrix given with it used to be dropped."""
    _rejected_writing_nothing(["validate-config", "--experiment", "theorem1",
                               "--set", "nonlinearity.matrix=[[0.5]]"], tmp_path, monkeypatch, capsys)
    with pytest.raises(NonlinearityError, match="matrix"):
        builtin_family("sine", 1, 0.5, matrix=[[0.5]])


def test_config_values_type_checked(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["noise-diag", "--seed", "1", "--output-dir", str(out),
                     "--set", "grid.n=abc"]) == 2
    assert "config error" in capsys.readouterr().err
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"experiment": "noise-diag", "grid": {"n": "abc"},
                                    "output_dir": str(out)}))
    assert cli_main(["noise-diag", "--config", str(cfg_file), "--seed", "1"]) == 2
    assert cli_main(["validate-config", "--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written
    for section, given in (("grid", {"n": 64.5}), ("params", {"refine": "yes"}),
                           ("params", {"n_random": True}), ("nonlinearity", {"kind": 1}),
                           ("regularity", {"r_max": None}), ("params", {"zero_tol": [1e-9]})):
        with pytest.raises(ConfigError, match="type"):
            ExperimentConfig.from_dict({"experiment": "lemmas", section: given})
    with pytest.raises(ConfigError, match="object"):
        ExperimentConfig.from_dict({"experiment": "lemmas", "grid": None})
    # a number where the default is one, an integral float for an int
    ok = ExperimentConfig.from_dict({"experiment": "apriori-sweep",
                                     "grid": {"n": 32.0, "t_end": 1},
                                     "params": {"sigmas": [1, 0.5]}})
    assert ok.build_grid().n == 32


def _rejected_writing_nothing(argv, tmp_path, monkeypatch, capsys):
    """The CLI, run in tmp_path, exits 2 with a config error and adds no file."""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert cli_main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_config_file_seeds_string_rejected(tmp_path, monkeypatch, capsys):
    # "12" used to run seeds 1 and 2
    (tmp_path / "c.json").write_text(json.dumps({"experiment": "noise-diag", "seeds": "12"}))
    _rejected_writing_nothing(["noise-diag", "--config", "c.json"], tmp_path, monkeypatch, capsys)


def test_override_seeds_string_rejected(tmp_path, monkeypatch, capsys):
    # used to end in a ValueError traceback
    _rejected_writing_nothing(["noise-diag", "--set", 'seeds="abc"'], tmp_path, monkeypatch, capsys)


def test_fractional_seed_rejected(tmp_path, monkeypatch, capsys):
    # [1.5] used to run seed 1
    _rejected_writing_nothing(["noise-diag", "--set", "seeds=[1.5]"], tmp_path, monkeypatch, capsys)
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"experiment": "noise-diag", "seeds": [1.5]})
    cfg = ExperimentConfig(experiment="noise-diag")
    cfg.apply_override("seeds", "[2, 3]")
    assert cfg.seeds == [2, 3]


def test_output_dir_and_plots_types_checked(tmp_path, monkeypatch, capsys):
    for override in ("output_dir=5", "plots=2"):
        _rejected_writing_nothing(["validate-config", "--set", override], tmp_path, monkeypatch, capsys)
    for given in ({"output_dir": 5}, {"plots": 2}):
        with pytest.raises(ConfigError, match="type"):
            ExperimentConfig.from_dict({"experiment": "noise-diag", **given})
    cfg = ExperimentConfig(experiment="noise-diag")
    cfg.apply_override("plots", "true")
    cfg.apply_override("output_dir", "elsewhere")  # not JSON: taken as the string
    assert cfg.plots is True and cfg.output_dir == "elsewhere"


def test_unreadable_config_file_rejected(tmp_path, monkeypatch, capsys):
    # each used to end in a traceback with exit 1
    (tmp_path / "bad.json").write_text('{"experiment": ')
    (tmp_path / "list.json").write_text('["noise-diag"]')
    for name in ("missing.json", "bad.json", "list.json"):
        _rejected_writing_nothing(["noise-diag", "--seed", "1", "--config", name],
                                  tmp_path, monkeypatch, capsys)
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_json_file(tmp_path / name)


def _no_sweep(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr("quasiheat.harness.solve_anisotropic_batch", fail)


def test_theorem1_with_fewer_than_four_radii_rejected(tmp_path, monkeypatch, capsys):
    # n=32 gives the radii [1/8, 1/4]; noise-diag reads no radius, and draws
    # at most 4,096 samples there
    assert cli_main(["validate-config", "--set", "grid.n=32", "--set", "params.n_samples=4096"]) == 0
    cfg_file = tmp_path / "t.json"
    cfg_file.write_text(json.dumps({"experiment": "theorem1", "grid": {"n": 32}}))
    assert cli_main(["validate-config", "--config", str(cfg_file)]) == 2
    assert "at least 4 radii" in capsys.readouterr().err
    _no_sweep(monkeypatch)
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "grid": {"n": 32},
                                      "seeds": [1], "output_dir": str(tmp_path / "out")})
    with pytest.raises(ConfigError, match="at least 4 radii"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_lemmas_without_a_small_radius_rejected(tmp_path, monkeypatch, capsys):
    # n=16 gives the one radius 1/4: no shift scale r <= 1/8
    cfg_file = tmp_path / "l.json"
    cfg_file.write_text(json.dumps({"experiment": "lemmas", "grid": {"n": 16}}))
    assert cli_main(["validate-config", "--config", str(cfg_file)]) == 2
    assert "r <= 1/8" in capsys.readouterr().err
    _no_sweep(monkeypatch)
    assert cli_main(["lemmas", "--seed", "1", "--set", "grid.n=16",
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert "r <= 1/8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each smallest ball holds one node, where the free affine fit needs 2 (d = 1)
# or 3 (d = 2); a solve used to end in a FitError traceback
_TOO_SMALL = {
    "theorem1-d1": ("theorem1", ["grid.n=64"]),
    "lemmas-d1": ("lemmas", ["grid.n=64"]),
    "theorem1-d2": ("theorem1", ["grid.dim=2", "grid.n=32", "params.basepoints=3"]),
}


@pytest.mark.parametrize("case", sorted(_TOO_SMALL))
def test_a_smallest_cylinder_too_small_to_fit_is_a_config_error(case, tmp_path, monkeypatch,
                                                                 capsys):
    experiment, sets = _TOO_SMALL[case]
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"experiment": experiment}))

    def overrides(*extra):
        return [arg for item in sets + list(extra) for arg in ("--set", item)]

    assert cli_main(["validate-config", "--config", str(cfg_file)]
                    + overrides("regularity.r_min_factor=1")) == 2
    assert "an affine fit needs" in capsys.readouterr().err
    _no_sweep(monkeypatch)
    out = tmp_path / "out"
    assert cli_main([experiment, "--seed", "5", "--output-dir", str(out)]
                    + overrides("regularity.r_min_factor=1")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "an affine fit needs" in err
    assert not out.exists()
    # r_min_factor 2 gives the smallest ball 3 nodes in d = 1 and 9 in d = 2
    assert cli_main(["validate-config", "--config", str(cfg_file)]
                    + overrides("grid.n=64", "regularity.r_min_factor=2")) == 0


@pytest.mark.parametrize("dotted,match", [
    ("grid.n=100", "power of two"),
    ("noise.alpha=0.4", "alpha"),
    ("regularity.r_min_factor=100", "empty radius set"),
    ("regularity.r_min_factor=0", "at least 1"),
    ("nonlinearity.kappa=5", "kappa"),
])
def test_out_of_range_values_are_config_errors(tmp_path, monkeypatch, capsys, dotted, match):
    assert cli_main(["validate-config", "--set", dotted]) == 2
    assert "config error" in capsys.readouterr().err
    _no_sweep(monkeypatch)
    out = tmp_path / "out"
    assert cli_main(["theorem1", "--seed", "1", "--set", dotted, "--output-dir", str(out)]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_windowed_models_give_the_whole_field_basepoint_reports():
    """v_a keeps the rows of (t' - r_max^2, t'] and grad u is read on the same
    rows; the reports equal those on whole fields, also when the slab reaches
    t = 0 (the cylinders take zero-extension rows) or ends there."""
    from quasiheat.harness import _model_rows
    from quasiheat.solver import solve_anisotropic_batch
    from quasiheat.nonlinearity import freeze, sine_family
    from quasiheat.regularity import RegularityParams, modelling_remainder
    from quasiheat.grid import SpaceTimeField

    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "grid": {"n": 64},
                                      "regularity": {"r_min_factor": 2}})
    grid = cfg.build_grid()
    path = cfg.build_noise_path(grid, 3)
    A = sine_family(1, 0.5)
    reg = RegularityParams.for_grid(grid, alpha=0.75, r_min_factor=2)
    r_max = float(reg.radii[-1])
    (u,) = solve_anisotropic_batch(path, [A])
    times = u.gradient.times
    # r_max^2 is 16 snapshots: t' = times[16] puts the slab's open end at t = 0
    zs = [(float(times[10]), 0.25), (float(times[16]), 0.75), (float(times[200]), 0.5)]
    coeffs = [freeze(A, u.gradient_at(z)) for z in zs]
    slabs = [_model_rows(u.gradient, z, r_max) for z in zs]
    assert slabs == [slice(0, 11), slice(1, 17), slice(185, 201)]
    whole = solve_anisotropic_batch(path, coeffs)
    windowed = solve_anisotropic_batch(path, coeffs, rows=slabs)
    for z, slab, va, wa in zip(zs, slabs, whole, windowed):
        assert wa.state is None and len(wa.gradient.times) == slab.stop - slab.start
        gu = SpaceTimeField(grid, times[slab], u.gradient.values[slab])
        got = modelling_remainder(gu, wa.gradient, z, reg, with_increment_constant=True)
        want = modelling_remainder(u.gradient, va.gradient, z, reg, with_increment_constant=True)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_validate_config_takes_an_experiment(tmp_path, monkeypatch, capsys):
    # n=16 leaves no shift scale r <= 1/8, which lemmas needs and noise-diag
    # (drawing at most 1,024 samples there) does not
    assert cli_main(["validate-config", "--set", "grid.n=16", "--set", "params.n_samples=1024"]) == 0
    capsys.readouterr()
    assert cli_main(["validate-config", "--experiment", "lemmas", "--set", "grid.n=16"]) == 2
    assert "r <= 1/8" in capsys.readouterr().err
    _no_sweep(monkeypatch)
    assert cli_main(["lemmas", "--seed", "1", "--set", "grid.n=16",
                     "--output-dir", str(tmp_path / "out")]) == 2
    cfg_file = tmp_path / "n.json"
    cfg_file.write_text(json.dumps({"experiment": "noise-diag", "grid": {"n": 16},
                                    "params": {"n_samples": 1024}}))
    assert cli_main(["validate-config", "--config", str(cfg_file)]) == 0
    assert cli_main(["validate-config", "--config", str(cfg_file), "--experiment", "lemmas"]) == 2



def test_seed_outside_the_philox_key_word_is_a_config_error(tmp_path, capsys):
    # a seed is one 64-bit key word; 2**64 + s must not silently draw seed s's noise
    out = tmp_path / "out"
    for seed in (str(2**64), "-1"):
        assert cli_main(["noise-diag", "--seed", "1", "--seed", seed,
                         "--output-dir", str(out)]) == 2
        assert cli_main(["validate-config", "--seed", seed]) == 2
        assert "master_seed" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written
    assert cli_main(["validate-config", "--seed", str(2**64 - 1)]) == 0


def test_a_diverging_seed_gives_its_own_error(tmp_path, monkeypatch):
    from quasiheat.noise import NoisePath
    from quasiheat.solver import SolverDivergenceError

    grid = GridSpec.create(1, 64)
    s = 2 * grid.snap_stride + 5
    inner = NoisePath.increments

    def poisoned(self, start, stop):
        dw = inner(self, start, stop)
        if self.spec.master_seed == 2 and start <= s < stop:
            dw[s - start, 3] = np.nan
        return dw

    def run(seeds, poison):
        if poison:
            monkeypatch.setattr(NoisePath, "increments", poisoned)
        cfg = ExperimentConfig.from_dict(dict(_TINY["theorem1"], experiment="theorem1",
                                              seeds=seeds, output_dir=str(tmp_path / "out")))
        run_experiment(cfg)
        monkeypatch.undo()
        return json.loads((tmp_path / "out" / cfg.config_hash / "report.json").read_text())

    clean = run([1], poison=False)
    report = run([1, 2], poison=True)
    check = next(c for c in report["checks"] if c["name"] == "solver_completed")
    error = str(SolverDivergenceError(3 * grid.snap_stride - 1))
    assert json.loads(check["detail"]) == [{"seed": 2, "error": error}]
    assert not check["passed"]
    # seed 1's results are those of a run without seed 2
    assert report["metrics"]["seminorms"]["1"] == clean["metrics"]["seminorms"]["1"]


# ---- the side-by-side passes: every child is reaped on every exit path


def _within_a_minute(call):
    """``call()``, failing the test if it stalls."""
    def stalled(signum, frame):
        raise TimeoutError("a side-by-side pass stalled")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_side_by_side_results_come_back_in_unit_order():
    got = _within_a_minute(lambda: _side_by_side(
        [lambda: ("a", os.getpid()), lambda: ("b", os.getpid()), lambda: ("c", os.getpid())]))
    assert [name for name, _ in got] == ["a", "b", "c"]
    assert got[2][1] == os.getpid() and len({pid for _, pid in got}) == 3


def test_side_by_side_raises_a_childs_error_as_it_was():
    def child():
        raise ValueError("x")

    with pytest.raises(ValueError) as info:
        _within_a_minute(lambda: _side_by_side([child, lambda: 1]))
    assert type(info.value) is ValueError and info.value.args == ("x",)


def test_side_by_side_child_that_dies_without_its_result_is_an_error():
    with pytest.raises(ChildProcessError, match="without its result"):
        _within_a_minute(lambda: _side_by_side([lambda: os._exit(3), lambda: 1]))


def test_side_by_side_divergence_keeps_its_step():
    from quasiheat.solver import SolverDivergenceError

    def child():
        raise SolverDivergenceError(7)

    with pytest.raises(SolverDivergenceError) as info:
        _within_a_minute(lambda: _side_by_side([child, lambda: 1]))
    assert info.value.step == 7 and str(info.value) == str(SolverDivergenceError(7))


@pytest.mark.parametrize("payload", [0, 100_000])  # 800 KB: more than a pipe holds
def test_side_by_side_parent_error_while_the_child_runs(payload):
    def child():
        time.sleep(0.3)
        return np.arange(payload)

    def parent():
        raise RuntimeError("parent")

    with pytest.raises(RuntimeError, match="parent"):
        _within_a_minute(lambda: _side_by_side([child, parent]))


def test_side_by_side_takes_a_child_result_larger_than_a_pipe():
    got = _within_a_minute(lambda: _side_by_side([lambda: np.arange(100_000.0), lambda: 1]))
    assert got[0].tobytes() == np.arange(100_000.0).tobytes() and got[1] == 1


def test_apriori_drops_the_2n_pass_when_its_base_sweep_diverges(tmp_path, monkeypatch):
    # seed 1 at sigma = 1 diverges at n and at 2n: there is no base to compare with,
    # so the 2n child's divergence is discarded as if it had never run
    from quasiheat.noise import NoisePath

    inner = NoisePath.increments

    def poisoned(self, start, stop):
        dw = inner(self, start, stop)
        if self.spec.master_seed == 1 and self.spec.sigma == 1.0 and start <= 40 < stop:
            dw[40 - start, 3] = np.nan
        return dw

    monkeypatch.setattr(NoisePath, "increments", poisoned)
    bodies = []
    for refine in (True, False):
        cfg = ExperimentConfig.from_dict(dict(
            _TINY["apriori-sweep"], experiment="apriori-sweep", seeds=[1, 2],
            params=dict(_TINY["apriori-sweep"]["params"], refine=refine),
            output_dir=str(tmp_path / "out")))
        report = _within_a_minute(lambda: run_experiment(cfg))
        bodies.append({k: v for k, v in report.body_dict().items()
                       if k not in ("config_hash", "parameters")})
    assert bodies[0] == bodies[1]
    failed = json.loads(next(c for c in bodies[0]["checks"] if c["name"] == "sweep_completed")["detail"])
    assert [(f["seed"], f["sigma"]) for f in failed] == [(1, 1.0)]


def test_a_run_rejects_what_validate_config_rejects(tmp_path, monkeypatch, capsys):
    # noise-diag reads no radius; its run used to skip the radius checks that
    # validate-config makes, and exit 0
    sets = ["--set", "grid.n=32", "--set", "params.n_samples=4096",
            "--set", "regularity.r_min_factor=0"]
    monkeypatch.setattr("quasiheat.harness.covariance_diagnostics", None)  # no draw runs
    for argv in (["validate-config", "--experiment", "noise-diag"], ["noise-diag", "--seed", "1"]):
        _rejected_writing_nothing(argv + sets, tmp_path, monkeypatch, capsys)


# each used to validate; a run ended in a NoiseError or IndexError traceback
@pytest.mark.parametrize("sets,match", [
    (["grid.n=32"], "only 4096 in-support steps"),  # for the default 10,000 samples
    (["params.n_samples=10"], "at least 1e3 samples"),
    (["params.max_lag=-1"], "max_lag"),
])
def test_noise_diag_sizes_it_cannot_run_are_config_errors(sets, match, tmp_path, monkeypatch,
                                                          capsys):
    overrides = [arg for item in sets for arg in ("--set", item)]
    monkeypatch.setattr("quasiheat.harness.covariance_diagnostics", None)  # no draw runs
    for argv in (["validate-config", "--experiment", "noise-diag"], ["noise-diag", "--seed", "1"]):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv + overrides) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.iterdir())


# an empty list used to pass every check with no rows, and a list without 1.0
# to leave out refinement_stability; a negative sigma failed only in the run
@pytest.mark.parametrize("sigmas,match", [
    ("[]", "empty"),
    ("[-0.5, 1.0]", "sigma must be nonnegative"),
    ("[0.5, 2.0]", "lacks 1.0"),
])
def test_apriori_sigmas_that_hide_its_checks_are_config_errors(sigmas, match, tmp_path,
                                                               monkeypatch, capsys):
    overrides = ["--set", "grid.n=32", "--set", f"params.sigmas={sigmas}"]
    _no_sweep(monkeypatch)
    for argv in (["validate-config", "--experiment", "apriori-sweep"],
                 ["apriori-sweep", "--seed", "1"]):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv + overrides) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not list(tmp_path.iterdir())
    # without the refinement, a list without 1.0 checks everything it lists
    if sigmas == "[0.5, 2.0]":
        assert cli_main(["validate-config", "--experiment", "apriori-sweep", "--set",
                         "params.refine=false"] + overrides) == 0
