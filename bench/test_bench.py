"""Smoke test of the benchmark itself, on a tiny theorem1 configuration.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "experiment": "theorem1",
    "grid": {"dim": 1, "n": 64, "t_end": 1.0, "cfl": 0.25},
    "regularity": {"r_min_factor": 2},
    "params": {"basepoints": 2},
}


def _bindings() -> dict:
    """Every attribute of every quasiheat module, plus the traced method."""
    import quasiheat
    from quasiheat.noise import NoisePath

    out = {("NoisePath", "increment_hat"): NoisePath.__dict__["increment_hat"]}
    for name, mod in list(sys.modules.items()):
        if name == "quasiheat" or name.startswith("quasiheat."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    assert quasiheat.fitting.linprog.__module__.startswith("scipy")
    return out


def test_traced_run_matches_untraced_and_unwraps(tmp_path):
    plain = child.run_once(TINY, 1, tmp_path / "plain")
    assert plain["problems"] == [] and plain["checks"] > 0

    before = _bindings()
    tracer = Tracer()
    traced = child.run_once(TINY, 1, tmp_path / "traced", tracer)
    assert traced["problems"] == []
    assert traced["artifact_sha256"] == plain["artifact_sha256"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left installed"
    assert not tracer._patched

    stats = tracer.summary(traced["run_s"])
    # 3 sweeps of 16384 steps plus the 16-step path digest
    assert stats["noise.increment_hat.calls"] == 3 * 16384 + 16
    assert stats["solver.steps"] == 3 * 16384
    assert stats["noise.increments_per_step"] == (3 * 16384 + 16) / 16384
    assert stats["solver.sweeps"] == 3
    assert stats["nonlinearity.freeze.calls"] == 2
    assert 0.0 < stats["trace.top_level_share"] <= 1.0
    # bindings copied by ``from .x import f`` were wrapped too
    assert stats["grid.increment.calls"] > 0 and stats["fitting.linprog.calls"] > 0
    tracer.write(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny-smoke", TINY)
    code = run.main(["--workload", "tiny-smoke", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    text = "\n".join(lines)
    for name in ("run_s", "peak_rss_mb", "checks_failed_share", "artifact_sha256"):
        assert f"{name}: " in text
    assert ("setup_s: " in text) == (trace == 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas-d1", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
